//! Child processes timed from outside: wall clock around spawn and reap,
//! peak RSS from the kernel's `wait4` accounting (not from anything the
//! child prints), and a watchdog that kills a child past its deadline.
//!
//! Linux folds the resident peak of the address space a process leaves
//! at `exec` into its `ru_maxrss`, and a spawned child leaves its
//! parent's: a child spawned straight from the benchmark (which holds
//! parsed reports) would report the benchmark's peak when that is the
//! larger. So every measured child is spawned by a spawner, the
//! benchmark's own binary run with [`SPAWNER_FLAG`], whose address space
//! stays small (see [`start_spawner`]).

use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::os::raw::{c_int, c_long, c_uint, c_ulong};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark reads child RSS through Linux `wait4`");

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then 14 longs
/// starting with `ru_maxrss` (in KiB).
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn waitid(idtype: c_int, id: c_uint, infop: *mut SigInfo, options: c_int) -> c_int;
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
    fn kill(pid: c_int, sig: c_int) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut c_ulong) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const c_ulong) -> c_int;
}

/// A CPU affinity mask as the kernel's calls take it (1024 CPUs).
#[derive(Debug, Clone, Copy, PartialEq)]
struct CpuSet([c_ulong; 16]);

impl CpuSet {
    const BITS: usize = c_ulong::BITS as usize;

    /// The CPUs the calling thread may run on.
    fn current() -> Result<CpuSet, String> {
        let mut set = CpuSet([0; 16]);
        // SAFETY: the mask is a live buffer of the size passed.
        let r = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.0.as_mut_ptr()) };
        if r != 0 {
            return Err(format!(
                "sched_getaffinity: {}",
                std::io::Error::last_os_error()
            ));
        }
        Ok(set)
    }

    fn only(cpu: usize) -> CpuSet {
        let mut set = CpuSet([0; 16]);
        set.0[cpu / Self::BITS] |= 1 << (cpu % Self::BITS);
        set
    }

    fn last(&self) -> Option<usize> {
        (0..16 * Self::BITS)
            .rev()
            .find(|&c| self.0[c / Self::BITS] & (1 << (c % Self::BITS)) != 0)
    }

    /// Restrict the calling thread (and children it spawns) to this set.
    fn apply(&self) -> Result<(), String> {
        // SAFETY: the mask is a live buffer of the size passed.
        let r = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), self.0.as_ptr()) };
        if r != 0 {
            return Err(format!(
                "sched_setaffinity: {}",
                std::io::Error::last_os_error()
            ));
        }
        Ok(())
    }
}

/// The CPU that single-threaded measurements run on, so that a `-j 1`
/// child and the speed probe that scales it see the same core: the last
/// CPU this process may use (the first often takes more interrupts).
pub fn serial_cpu() -> Result<usize, String> {
    CpuSet::current()?
        .last()
        .ok_or_else(|| "no CPU in this process's affinity mask".to_string())
}

/// Run `f` on a thread of its own pinned to `cpu`.
pub fn on_cpu<T: Send>(cpu: usize, f: impl FnOnce() -> T + Send) -> Result<T, String> {
    std::thread::scope(|s| {
        s.spawn(|| CpuSet::only(cpu).apply().map(|_| f()))
            .join()
            .map_err(|_| "pinned thread panicked".to_string())?
    })
}

/// `siginfo_t` is 128 bytes on Linux; only its size matters here.
#[repr(C, align(8))]
struct SigInfo([u8; 128]);

const P_PID: c_int = 1;
const WEXITED: c_int = 4;
const WNOWAIT: c_int = 0x0100_0000;
const SIGKILL: c_int = 9;

/// Retry `f` while it fails with `EINTR`.
fn retry_eintr(mut f: impl FnMut() -> c_int) -> Result<c_int, String> {
    loop {
        let r = f();
        if r != -1 {
            return Ok(r);
        }
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(e.to_string());
        }
    }
}

/// How a measured child ended.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Wall-clock seconds from spawn to reap.
    pub wall_s: f64,
    /// Peak resident set of the child, in MiB.
    pub peak_rss_mb: f64,
    /// User plus system CPU seconds of the child.
    pub cpu_s: f64,
    /// Exit code, or `None` when a signal ended it.
    pub code: Option<i32>,
    /// The terminating signal, if any.
    pub signal: Option<i32>,
}

impl Run {
    /// Exited with status 0.
    pub fn ok(&self) -> bool {
        self.code == Some(0)
    }

    pub fn describe(&self) -> String {
        match (self.code, self.signal) {
            (Some(c), _) => format!("exit status {c}"),
            (None, Some(s)) => format!("killed by signal {s}"),
            (None, None) => "unknown end".to_string(),
        }
    }
}

/// The argument that makes the benchmark binary serve as the spawner.
pub const SPAWNER_FLAG: &str = "--spawner";

/// The running spawner: requests go to its stdin, one line each, and
/// results come back on its stdout.
struct Spawner {
    child: Child,
    requests: ChildStdin,
    replies: BufReader<ChildStdout>,
}

static SPAWNER: Mutex<Option<Spawner>> = Mutex::new(None);

/// Start `exe SPAWNER_FLAG` as the spawner of every later
/// [`run_measured`] call.
pub fn start_spawner(exe: &Path) -> Result<(), String> {
    let mut child = Command::new(exe)
        .arg(SPAWNER_FLAG)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start the spawner {}: {e}", exe.display()))?;
    let requests = child.stdin.take().expect("piped stdin");
    let replies = BufReader::new(child.stdout.take().expect("piped stdout"));
    let old = SPAWNER
        .lock()
        .expect("spawner lock poisoned")
        .replace(Spawner {
            child,
            requests,
            replies,
        });
    if let Some(old) = old {
        finish(old);
    }
    Ok(())
}

/// Stop the spawner, if one runs, and wait for it to exit.
pub fn stop_spawner() {
    if let Some(s) = SPAWNER.lock().expect("spawner lock poisoned").take() {
        finish(s);
    }
}

fn finish(s: Spawner) {
    let Spawner {
        mut child,
        requests,
        replies,
    } = s;
    // End of input ends the spawner's loop.
    drop(requests);
    drop(replies);
    let _ = child.wait();
}

/// The spawner's loop: read requests from stdin until it closes, run
/// each, and write its result line to stdout.
pub fn serve() -> Result<(), String> {
    let stdin = std::io::stdin();
    let mut out = std::io::stdout().lock();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("spawner input: {e}"))?;
        let reply = match decode_request(&line) {
            Ok((program, args, dir, stdout, stderr, deadline, cpu)) => {
                run_here(&program, &args, &dir, &stdout, &stderr, deadline, cpu)
            }
            Err(e) => Err(e),
        };
        writeln!(out, "{}", encode_reply(&reply))
            .and_then(|_| out.flush())
            .map_err(|e| format!("spawner output: {e}"))?;
    }
    Ok(())
}

type Request = (
    PathBuf,
    Vec<String>,
    PathBuf,
    PathBuf,
    PathBuf,
    Duration,
    Option<usize>,
);

/// One request line: tab-separated program, directory, stdout file,
/// stderr file, deadline in milliseconds, CPU (`-` for none), then the
/// arguments.
fn encode_request(
    program: &Path,
    args: &[String],
    dir: &Path,
    stdout: &Path,
    stderr: &Path,
    deadline: Duration,
    cpu: Option<usize>,
) -> Result<String, String> {
    let mut fields: Vec<String> = [program, dir, stdout, stderr]
        .iter()
        .map(|p| p.to_string_lossy().into_owned())
        .collect();
    fields.push(deadline.as_millis().to_string());
    fields.push(cpu.map_or("-".to_string(), |c| c.to_string()));
    fields.extend(args.iter().cloned());
    if let Some(f) = fields.iter().find(|f| f.contains(['\t', '\n'])) {
        return Err(format!("cannot pass {f:?} to the spawner"));
    }
    Ok(fields.join("\t"))
}

fn decode_request(line: &str) -> Result<Request, String> {
    let fields: Vec<&str> = line.split('\t').collect();
    if fields.len() < 6 {
        return Err(format!("bad spawner request {line:?}"));
    }
    let ms = fields[4]
        .parse()
        .map_err(|_| format!("bad deadline {:?}", fields[4]))?;
    let cpu = match fields[5] {
        "-" => None,
        c => Some(c.parse().map_err(|_| format!("bad CPU {c:?}"))?),
    };
    Ok((
        PathBuf::from(fields[0]),
        fields[6..].iter().map(|s| s.to_string()).collect(),
        PathBuf::from(fields[1]),
        PathBuf::from(fields[2]),
        PathBuf::from(fields[3]),
        Duration::from_millis(ms),
        cpu,
    ))
}

/// `ok`, wall, peak RSS, CPU, exit code and signal (`-` for none), or
/// `err` and a message. Floats print exactly (`{:?}` round-trips).
fn encode_reply(reply: &Result<Run, String>) -> String {
    let opt = |v: Option<i32>| v.map_or("-".to_string(), |v| v.to_string());
    match reply {
        Ok(r) => format!(
            "ok\t{:?}\t{:?}\t{:?}\t{}\t{}",
            r.wall_s,
            r.peak_rss_mb,
            r.cpu_s,
            opt(r.code),
            opt(r.signal)
        ),
        Err(e) => format!("err\t{}", e.replace(['\t', '\n'], " ")),
    }
}

fn decode_reply(line: &str) -> Result<Run, String> {
    let fields: Vec<&str> = line.trim_end_matches('\n').split('\t').collect();
    let bad = || format!("bad spawner reply {line:?}");
    match fields.as_slice() {
        ["err", msg] => Err(msg.to_string()),
        ["ok", wall, rss, cpu, code, signal] => {
            let float = |s: &str| s.parse::<f64>().map_err(|_| bad());
            let opt = |s: &str| match s {
                "-" => Ok(None),
                _ => s.parse::<i32>().map(Some).map_err(|_| bad()),
            };
            Ok(Run {
                wall_s: float(wall)?,
                peak_rss_mb: float(rss)?,
                cpu_s: float(cpu)?,
                code: opt(code)?,
                signal: opt(signal)?,
            })
        }
        _ => Err(bad()),
    }
}

/// Run `program args...` in `dir` with stdout and stderr sent to files,
/// pinned to `cpu` if given, and measure it. The child is killed after
/// `deadline`. It is spawned by the spawner when one runs, else by this
/// process.
pub fn run_measured(
    program: &Path,
    args: &[String],
    dir: &Path,
    stdout: &Path,
    stderr: &Path,
    deadline: Duration,
    cpu: Option<usize>,
) -> Result<Run, String> {
    let mut guard = SPAWNER.lock().expect("spawner lock poisoned");
    let Some(s) = guard.as_mut() else {
        drop(guard);
        return run_here(program, args, dir, stdout, stderr, deadline, cpu);
    };
    let request = encode_request(program, args, dir, stdout, stderr, deadline, cpu)?;
    writeln!(s.requests, "{request}")
        .and_then(|_| s.requests.flush())
        .map_err(|e| format!("spawner request: {e}"))?;
    let mut reply = String::new();
    match s.replies.read_line(&mut reply) {
        Ok(0) => Err("the spawner exited".to_string()),
        Ok(_) => decode_reply(&reply),
        Err(e) => Err(format!("spawner reply: {e}")),
    }
}

fn run_here(
    program: &Path,
    args: &[String],
    dir: &Path,
    stdout: &Path,
    stderr: &Path,
    deadline: Duration,
    cpu: Option<usize>,
) -> Result<Run, String> {
    let out = File::create(stdout).map_err(|e| format!("{}: {e}", stdout.display()))?;
    let err = File::create(stderr).map_err(|e| format!("{}: {e}", stderr.display()))?;
    let mut cmd = Command::new(program);
    cmd.args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::from(out))
        .stderr(Stdio::from(err));
    // A child inherits the affinity of the thread that spawns it.
    let all = CpuSet::current()?;
    if let Some(cpu) = cpu {
        CpuSet::only(cpu).apply()?;
    }
    let t0 = Instant::now();
    let spawned = cmd.spawn();
    all.apply()?;
    let child = spawned.map_err(|e| format!("cannot start {}: {e}", program.display()))?;
    let pid = child.id() as c_int;
    // Set, under the lock, once the child has exited and before it is
    // reaped: until `wait4` reaps it, its pid cannot be reused, so the
    // watchdog only ever signals our own child.
    let exited = Arc::new(Mutex::new(false));
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let watchdog = {
        let exited = Arc::clone(&exited);
        std::thread::spawn(move || {
            if let Err(mpsc::RecvTimeoutError::Timeout) = done_rx.recv_timeout(deadline) {
                let exited = exited.lock().expect("exit flag lock poisoned");
                if !*exited {
                    // SAFETY: the flag is still false under the lock, so
                    // the child has not been reaped and `pid` is ours.
                    unsafe {
                        kill(pid, SIGKILL);
                    }
                }
            }
        })
    };
    let mut info = SigInfo([0; 128]);
    // SAFETY: `info` is a live, 8-aligned buffer of siginfo_t's size;
    // WNOWAIT leaves the child unreaped.
    let waited =
        retry_eintr(|| unsafe { waitid(P_PID, pid as c_uint, &mut info, WEXITED | WNOWAIT) });
    *exited.lock().expect("exit flag lock poisoned") = true;
    let mut status: c_int = 0;
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: both pointers refer to live, properly aligned locals of the
    // C layouts `wait4` writes; `pid` is an exited, unreaped child.
    let reaped =
        waited.and_then(|_| retry_eintr(|| unsafe { wait4(pid, &mut status, 0, &mut ru) }));
    let wall_s = t0.elapsed().as_secs_f64();
    let _ = done_tx.send(());
    watchdog.join().map_err(|_| "watchdog thread panicked")?;
    // `wait4` reaped the child; `Child` must not wait for it again.
    drop(child);
    reaped.map_err(|e| format!("waiting for {}: {e}", program.display()))?;
    let (code, signal) = if status & 0x7f == 0 {
        (Some((status >> 8) & 0xff), None)
    } else {
        (None, Some(status & 0x7f))
    };
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Ok(Run {
        wall_s,
        peak_rss_mb: ru.maxrss as f64 / 1024.0,
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        code,
        signal,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = crate::work_root();
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("test-proc-{}-{name}", std::process::id()))
    }

    #[test]
    fn measures_exit_code_and_rss() {
        let (o, e) = (tmp("o1"), tmp("e1"));
        let args = vec!["-c".to_string(), "echo hi; exit 3".to_string()];
        let r = run_measured(
            Path::new("/bin/sh"),
            &args,
            Path::new("."),
            &o,
            &e,
            Duration::from_secs(30),
            None,
        )
        .unwrap();
        assert_eq!(r.code, Some(3));
        assert!(r.peak_rss_mb > 0.0);
        assert!(r.wall_s > 0.0);
        assert_eq!(std::fs::read_to_string(&o).unwrap(), "hi\n");
        let _ = std::fs::remove_file(o);
        let _ = std::fs::remove_file(e);
    }

    #[test]
    fn requests_and_replies_round_trip() {
        let args = vec!["-j".to_string(), "2".to_string(), "a b".to_string()];
        let line = encode_request(
            Path::new("/bin/x"),
            &args,
            Path::new("d"),
            Path::new("o"),
            Path::new("e"),
            Duration::from_millis(1500),
            Some(3),
        )
        .unwrap();
        let (program, a, dir, o, e, deadline, cpu) = decode_request(&line).unwrap();
        assert_eq!(program, Path::new("/bin/x"));
        assert_eq!((a, dir, o, e), (args, "d".into(), "o".into(), "e".into()));
        assert_eq!((deadline, cpu), (Duration::from_millis(1500), Some(3)));
        assert!(encode_request(
            Path::new("x"),
            &["a\tb".to_string()],
            Path::new("."),
            Path::new("o"),
            Path::new("e"),
            deadline,
            None
        )
        .is_err());

        let run = Run {
            wall_s: 0.1 + 0.2,
            peak_rss_mb: 54.25,
            cpu_s: 1.0 / 3.0,
            code: None,
            signal: Some(9),
        };
        assert_eq!(decode_reply(&encode_reply(&Ok(run.clone()))), Ok(run));
        let err = Err("no\tsuch\nfile".to_string());
        assert_eq!(
            decode_reply(&encode_reply(&err)),
            Err("no such file".to_string())
        );
    }

    #[test]
    fn pins_the_child_to_a_cpu() {
        let (o, e) = (tmp("o3"), tmp("e3"));
        let cpu = serial_cpu().unwrap();
        let args = vec![
            "-c".to_string(),
            "grep Cpus_allowed_list /proc/self/status".to_string(),
        ];
        let r = run_measured(
            Path::new("/bin/sh"),
            &args,
            Path::new("."),
            &o,
            &e,
            Duration::from_secs(30),
            Some(cpu),
        )
        .unwrap();
        assert!(r.ok());
        let text = std::fs::read_to_string(&o).unwrap();
        assert_eq!(
            text.split_whitespace().nth(1),
            Some(cpu.to_string().as_str())
        );
        // The spawning thread got its own mask back.
        assert_eq!(CpuSet::current().unwrap().last(), Some(cpu));
        assert_eq!(
            on_cpu(cpu, || CpuSet::current().unwrap()),
            Ok(CpuSet::only(cpu))
        );
        let _ = std::fs::remove_file(o);
        let _ = std::fs::remove_file(e);
    }

    #[test]
    fn deadline_kills_the_child() {
        let (o, e) = (tmp("o2"), tmp("e2"));
        let args = vec!["-c".to_string(), "exec sleep 30".to_string()];
        let r = run_measured(
            Path::new("/bin/sh"),
            &args,
            Path::new("."),
            &o,
            &e,
            Duration::from_millis(100),
            None,
        )
        .unwrap();
        assert_eq!(r.signal, Some(SIGKILL));
        assert!(!r.ok());
        let _ = std::fs::remove_file(o);
        let _ = std::fs::remove_file(e);
    }
}
