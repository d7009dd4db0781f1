//! The end-to-end run (`--trace 0`): the `spatch` binary timed from
//! outside, in a closed loop (one invocation at a time), at `-j 2` and
//! `-j 1`, with every output checked. Every wall clock is scaled to
//! reference machine speed by a [`speed`](crate::speed) probe run just
//! before it on as many threads as spatch gets workers.

use crate::proc::{self, Run};
use crate::speed::{self, Probe};
use crate::workload::{self, Digest, Prepared, CORPUS, EMPTY};
use crate::{json, median, Outcome};
use std::collections::BTreeSet;
use std::path::Path;
use std::time::{Duration, Instant};

/// Worker counts of the two timed configurations.
pub const THREADS: [usize; 2] = [2, 1];
/// Set-up runs (spatch over an empty directory) before the timed loop;
/// one more precedes each timed invocation.
pub const SETUP_RUNS: usize = 5;
/// Minimum timed invocations per configuration, even past `--seconds`.
pub const MIN_SAMPLES: usize = 3;
/// A child still running after this is killed and its files fail.
pub const DEADLINE: Duration = Duration::from_secs(120);

/// Checks invocations of one workload. The first invocation is the
/// reference: its stdout goes through the oracle in full; later
/// invocations must reproduce its stdout byte for byte, and every
/// invocation's report goes through the oracle.
pub struct Checker<'a> {
    prep: &'a Prepared,
    /// Reference stdout, its oracle failures, and its report digest.
    reference: Option<(Vec<u8>, BTreeSet<String>, Digest)>,
    pub attempted: usize,
    pub failed: usize,
}

impl<'a> Checker<'a> {
    pub fn new(prep: &'a Prepared) -> Self {
        Checker {
            prep,
            reference: None,
            attempted: 0,
            failed: 0,
        }
    }

    /// Run spatch at `threads` workers (plus `extra` flags) over the
    /// corpus, check the outputs, and account the files. Returns the
    /// measurement and the report document.
    pub fn invoke(
        &mut self,
        spatch: &Path,
        threads: usize,
        extra: &[&str],
    ) -> Result<(Run, Option<json::Value>), String> {
        let out = self.prep.dir.join("out");
        let (report, stdout, stderr) = (
            format!("out/j{threads}.json"),
            out.join(format!("j{threads}.stdout")),
            out.join(format!("j{threads}.stderr")),
        );
        let mut args = workload::spatch_args(self.prep.workload, threads, CORPUS, &report);
        let target = args.pop().expect("the target is the last argument");
        args.extend(extra.iter().map(|s| s.to_string()));
        args.push(target);
        // `-j 1` runs on the CPU its speed probe measures.
        let cpu = (threads == 1).then(proc::serial_cpu).transpose()?;
        let run = proc::run_measured(
            spatch,
            &args,
            &self.prep.dir,
            &stdout,
            &stderr,
            DEADLINE,
            cpu,
        )?;
        self.attempted += self.prep.files;
        let all: BTreeSet<String> = self
            .prep
            .expect
            .files()
            .into_iter()
            .map(String::from)
            .collect();
        if !run.ok() {
            eprintln!(
                "e2ebench: spatch -j {threads} ended with {}; all {} files count as failed",
                run.describe(),
                all.len()
            );
            self.failed += all.len();
            return Ok((run, None));
        }
        let read = |p: &Path| std::fs::read(p).map_err(|e| format!("{}: {e}", p.display()));
        let doc = String::from_utf8(read(&self.prep.dir.join(&report))?)
            .map_err(|e| e.to_string())
            .and_then(|t| json::parse(&t));
        let (doc, digest) = match doc.and_then(|d| workload::report_digest(&d).map(|g| (d, g))) {
            Ok(x) => x,
            Err(e) => {
                eprintln!("e2ebench: unreadable report: {e}; all files count as failed");
                self.failed += all.len();
                return Ok((run, None));
            }
        };
        let mut failed = workload::check_report(&self.prep.expect, &digest);
        let bytes = read(&stdout)?;
        match &self.reference {
            None => {
                let text = String::from_utf8_lossy(&bytes);
                let bad = workload::check_stdout(self.prep.workload, &self.prep.expect, &text);
                failed.extend(bad.iter().cloned());
                self.reference = Some((bytes, bad, digest));
            }
            Some((ref_out, ref_bad, ref_digest)) => {
                if bytes != *ref_out {
                    eprintln!(
                        "e2ebench: spatch -j {threads} stdout differs from the reference run"
                    );
                    failed.extend(all.iter().cloned());
                }
                failed.extend(ref_bad.iter().cloned());
                failed.extend(
                    all.iter()
                        .filter(|f| digest.get(*f) != ref_digest.get(*f))
                        .cloned(),
                );
            }
        }
        if !failed.is_empty() {
            let first: Vec<&String> = failed.iter().take(3).collect();
            eprintln!(
                "e2ebench: spatch -j {threads}: {} file(s) failed the oracle, e.g. {first:?}",
                failed.len()
            );
        }
        self.failed += failed.len();
        Ok((run, Some(doc)))
    }
}

/// Wall clock of spatch loading the workload's rules or patch over an
/// empty directory: process start, rule parse and compile, and
/// lint-at-load, on the CPU the one-thread speed probe `probe_s` taken
/// just before measured. Returns the raw time and the time scaled by
/// that probe, `None` when the run fails.
fn setup_once(spatch: &Path, prep: &Prepared, probe_s: f64) -> Result<Option<(f64, f64)>, String> {
    let out = prep.dir.join("out");
    let args = workload::spatch_args(prep.workload, 2, EMPTY, "out/setup.json");
    let r = proc::run_measured(
        spatch,
        &args,
        &prep.dir,
        &out.join("setup.stdout"),
        &out.join("setup.stderr"),
        DEADLINE,
        Some(proc::serial_cpu()?),
    )?;
    if !r.ok() {
        eprintln!("e2ebench: set-up run ended with {}", r.describe());
        return Ok(None);
    }
    Ok(Some((r.wall_s, speed::at_reference(r.wall_s, probe_s))))
}

/// The timed run: one checked reference run at `-j 2`, then `-j 2` and
/// `-j 1` invocations in alternating order for `seconds`. Set-up runs
/// are spread over the same window, one before each timed invocation, so
/// one transient cannot move their median. Each set-up run is scaled by
/// a one-thread speed probe, and each timed invocation by a probe on as
/// many threads as its `-j`, both taken just before. Metrics are medians
/// of the scaled times; stderr shows the raw ones next to them.
pub fn run(spatch: &Path, prep: &Prepared, seconds: f64) -> Result<Outcome, String> {
    let probe = Probe::new();
    let mut setup = Vec::new();
    for _ in 0..SETUP_RUNS {
        setup.push(setup_once(spatch, prep, probe.time(1)?)?);
    }
    let mut checker = Checker::new(prep);
    checker.invoke(spatch, 2, &[])?;
    let mut walls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut raw: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut probes: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut rss = Vec::new();
    let t0 = Instant::now();
    // ABBA order, so neither configuration always runs first.
    let order = [0, 1, 1, 0];
    let mut k = 0;
    while t0.elapsed().as_secs_f64() < seconds || walls.iter().any(|w| w.len() < MIN_SAMPLES) {
        let c = order[k % order.len()];
        k += 1;
        let probe_1 = probe.time(1)?;
        setup.push(setup_once(spatch, prep, probe_1)?);
        let probe_s = match THREADS[c] {
            1 => probe_1,
            n => probe.time(n)?,
        };
        let (run, _) = checker.invoke(spatch, THREADS[c], &[])?;
        walls[c].push(speed::at_reference(run.wall_s, probe_s));
        raw[c].push(run.wall_s);
        probes[c].push(probe_s);
        if c == 0 {
            rss.push(run.peak_rss_mb);
        }
    }
    let setup_ok = setup.iter().all(Option::is_some);
    let (setup_raw, setup): (Vec<f64>, Vec<f64>) = setup.into_iter().flatten().unzip();
    // With ten-odd samples no percentile below the maximum has ten
    // samples beyond it, so the maximum is the tail shown.
    let tail = |w: &[f64]| w.iter().copied().fold(0.0, f64::max);
    eprintln!(
        "e2ebench: {}: {} files, {} bytes; scaled: -j 2: n={} median {:.4} s max {:.4} s; \
         -j 1: n={} median {:.4} s max {:.4} s; setup: n={} median {:.5} s",
        prep.workload.name(),
        prep.files,
        prep.bytes,
        walls[0].len(),
        median(&walls[0]),
        tail(&walls[0]),
        walls[1].len(),
        median(&walls[1]),
        tail(&walls[1]),
        setup.len(),
        median(&setup),
    );
    eprintln!(
        "e2ebench: raw: -j 2 median {:.4} s max {:.4} s; -j 1 median {:.4} s max {:.4} s; \
         setup median {:.5} s; speed probe median: 2 threads {:.5} s, 1 thread {:.5} s \
         (reference {} s)",
        median(&raw[0]),
        tail(&raw[0]),
        median(&raw[1]),
        tail(&raw[1]),
        median(&setup_raw),
        median(&probes[0]),
        median(&probes[1]),
        speed::REFERENCE_S,
    );
    Ok(Outcome {
        correct: checker.failed == 0 && setup_ok,
        attempted: checker.attempted,
        failed: checker.failed,
        metrics: vec![
            ("wall_s", median(&walls[0])),
            ("wall_j1_s", median(&walls[1])),
            ("setup_s", median(&setup)),
            ("peak_rss_mb", median(&rss)),
        ],
    })
}
