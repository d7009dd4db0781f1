//! `cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <scan_matrix|apply_cuda2hip|flow_paths> --seed <n> \
//!     --seconds <s> --trace <0|1>`
//!
//! Prints progress to stderr and, as the last stdout line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.

use cocci_e2ebench::workload::{self, Scale, Workload};
use cocci_e2ebench::{build_spatch, layers, measure, proc, work_root};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or(format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Measured children are spawned by the spawner, so they do not report
/// this process's resident peak as theirs; it is stopped on every path.
fn run(args: &Args) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    proc::start_spawner(&exe)?;
    let result = run_spawned(args);
    proc::stop_spawner();
    result
}

fn run_spawned(args: &Args) -> Result<String, String> {
    let spatch = build_spatch()?;
    let dir = work_root().join(format!("{}-{}", args.workload.name(), args.seed));
    let prep = workload::prepare(args.workload, args.seed, Scale::FULL, &dir)
        .map_err(|e| format!("generating {}: {e}", dir.display()))?;
    eprintln!(
        "e2ebench: {} seed {}: {} files, {} bytes, {} CPUs; spatch {}",
        args.workload.name(),
        args.seed,
        prep.files,
        prep.bytes,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        workload::spatch_args(args.workload, 2, workload::CORPUS, "out/j2.json").join(" ")
    );
    let outcome = if args.trace {
        layers::run(&spatch, &prep, args.seconds)
    } else {
        measure::run(&spatch, &prep, args.seconds)
    };
    // The corpus is regenerated from the seed on every run.
    let _ = std::fs::remove_dir_all(&dir);
    Ok(outcome?.to_json())
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(proc::SPAWNER_FLAG) {
        return match proc::serve() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("e2ebench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <scan_matrix|apply_cuda2hip|flow_paths> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
