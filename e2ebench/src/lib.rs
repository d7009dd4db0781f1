//! End-to-end benchmark of the `spatch` binary.
//!
//! One run generates a seeded corpus for one workload
//! ([`workload`]), builds the release `spatch` from source, and then
//! either times the binary from outside ([`measure`], `--trace 0`) or
//! times each engine layer in process around its public entry point
//! ([`layers`], `--trace 1`). Every spatch output is checked by an
//! oracle derived from the generated text. The last line of stdout is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.

pub mod json;
pub mod layers;
pub mod measure;
pub mod proc;
pub mod speed;
pub mod workload;

use std::path::{Path, PathBuf};
use std::process::Command;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("wall_j1_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name, unit, and which way is better.
pub const PER_LAYER: [(&str, &str, &str); 47] = [
    ("compile.ns", "ns", "lower"),
    ("lint.ns", "ns", "lower"),
    ("walk.ns", "ns", "lower"),
    ("walk.files", "count", "lower"),
    ("read.bytes", "B", "lower"),
    ("prefilter.ns", "ns", "lower"),
    ("prefilter.attempts", "count", "lower"),
    ("prefilter.survivors", "count", "lower"),
    ("prefilter.survival_frac", "frac", "lower"),
    ("parse.ns", "ns", "lower"),
    ("parse.calls", "count", "lower"),
    ("parse.mb_per_s", "MB/s", "higher"),
    ("parse.errors", "count", "lower"),
    ("cfg_build.ns", "ns", "lower"),
    ("cfg_build.calls", "count", "lower"),
    ("cfg_build.nodes", "count", "lower"),
    ("tree_match.ns", "ns", "lower"),
    ("tree_match.calls", "count", "lower"),
    ("tree_match.matches", "count", "higher"),
    ("tree_match.anchor_frac", "frac", "higher"),
    ("flow_match.ns", "ns", "lower"),
    ("flow_match.calls", "count", "lower"),
    ("flow_match.witnesses", "count", "higher"),
    ("orchestrate.ns", "ns", "lower"),
    ("orchestrate.calls", "count", "lower"),
    ("rewrite.ns", "ns", "lower"),
    ("rewrite.edits", "count", "higher"),
    ("report.ns", "ns", "lower"),
    ("report.bytes", "B", "lower"),
    ("sarif.ns", "ns", "lower"),
    ("sarif.bytes", "B", "lower"),
    ("driver.j1_ns", "ns", "lower"),
    ("driver.j2_ns", "ns", "lower"),
    ("driver.speedup_j2", "x", "higher"),
    ("driver.parallel_eff", "frac", "higher"),
    ("cli.unattributed_frac", "frac", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("selfreport.pool_util", "frac", "higher"),
    ("selfreport.walk_ns", "ns", "lower"),
    ("selfreport.prefilter_ns", "ns", "lower"),
    ("selfreport.parse_ns", "ns", "lower"),
    ("selfreport.cfg_build_ns", "ns", "lower"),
    ("selfreport.tree_match_ns", "ns", "lower"),
    ("selfreport.flow_match_ns", "ns", "lower"),
    ("selfreport.rewrite_ns", "ns", "lower"),
    ("selfreport.render_ns", "ns", "lower"),
    ("selfreport.report_ns", "ns", "lower"),
];

/// The outcome of one benchmark run, printed as its last stdout line.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    /// Corpus files handed to spatch, summed over checked invocations.
    pub attempted: usize,
    /// Of those, files that failed (status, oracle, or process exit).
    pub failed: usize,
    /// Metric values by name; units come from [`END_TO_END`] /
    /// [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// The result line. Units are looked up by metric name.
    pub fn to_json(&self) -> String {
        let unit = |name: &str| {
            END_TO_END
                .iter()
                .map(|(n, u)| (*n, *u))
                .chain(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)))
                .find(|(n, _)| *n == name)
                .map(|(_, u)| u)
                .expect("every reported metric is declared")
        };
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!(
                    "{}: {{\"value\": {v:?}, \"unit\": {}}}",
                    json::quote(name),
                    json::quote(unit(name))
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `xs` (mean of the middle two for an even count; 0 when
/// empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The repository root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Scratch space for generated corpora and outputs.
pub fn work_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("work")
}

/// Build the release `spatch` binary from the repository's sources and
/// return its path. Honours `CARGO_TARGET_DIR` (relative to the current
/// directory, as cargo reads it); otherwise builds into `target/`.
pub fn build_spatch() -> Result<PathBuf, String> {
    let root = repo_root();
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(t) => std::env::current_dir()
            .map_err(|e| format!("current directory: {e}"))?
            .join(t),
        None => root.join("target"),
    };
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet", "-p", "spatch"])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building spatch failed ({status})"));
    }
    let exe = target.join("release").join("spatch");
    if exe.is_file() {
        Ok(exe)
    } else {
        Err(format!("{} missing after the build", exe.display()))
    }
}
