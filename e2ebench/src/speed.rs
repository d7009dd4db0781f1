//! Machine-speed probe for the end-to-end times.
//!
//! The benchmark shares its cores and caches with other work on the
//! host, and the host's speed drifts: the same `spatch` invocation takes
//! up to a quarter longer for minutes at a time, on the parent commit and
//! a change alike. So each timed invocation is preceded by a fixed kernel
//! (the benchmark's own JSON reader parsing and dropping a fixed
//! report-shaped document: allocation-heavy, branchy work like spatch's),
//! run on as many threads as the invocation gets workers, and the
//! invocation's wall clock is scaled by [`REFERENCE_S`] over the kernel's
//! time just before it (the median of [`PASSES`] passes). The two CPUs
//! of a small host can differ in speed at one moment, so one-thread
//! kernels and single-threaded children both run pinned to
//! [`proc::serial_cpu`]. The kernel is benchmark code only, so no change
//! to the program under test can move it.

use crate::{json, proc};
use std::time::Instant;

/// The kernel's typical time on the 2-CPU Xeon host the benchmark was
/// tuned on, at one and at two threads: scaled times read as seconds at
/// that host's usual speed.
pub const REFERENCE_S: f64 = 0.01;

/// Entries of the fixed kernel document (about 0.6 MB).
const ENTRIES: usize = 4_000;
/// Kernel passes per probe; the probe reports their median.
pub const PASSES: usize = 3;

/// The fixed kernel and its input.
pub struct Probe {
    doc: String,
}

impl Probe {
    pub fn new() -> Probe {
        let mut doc = String::from("[");
        for i in 0..ENTRIES {
            if i > 0 {
                doc.push(',');
            }
            doc.push_str(&format!(
                "{{\"file\": \"corpus/dir{}/file_{i}.c\", \"status\": \"changed\", \"findings\": \
                 [{{\"rule\": \"r{}\", \"line\": {}, \"message\": \"call of api_{}\"}}, \
                 {{\"rule\": \"q{}\", \"line\": {}, \"extra\": [1, 2.5, true, null]}}]}}",
                i % 7,
                i % 50,
                i * 3,
                i % 13,
                i % 11,
                i * 5
            ));
        }
        doc.push(']');
        Probe { doc }
    }

    /// Seconds one pass of the kernel takes now on `threads` threads at
    /// once (each parses the document; a pass ends when all are done):
    /// the median of [`PASSES`] back-to-back passes. One thread runs on
    /// [`proc::serial_cpu`].
    pub fn time(&self, threads: usize) -> Result<f64, String> {
        let pass = || {
            let value = json::parse(&self.doc).expect("the kernel document is valid JSON");
            drop(std::hint::black_box(value));
        };
        let passes = || -> Vec<f64> {
            (0..PASSES)
                .map(|_| {
                    let t = Instant::now();
                    std::thread::scope(|s| {
                        for _ in 1..threads {
                            s.spawn(pass);
                        }
                        pass();
                    });
                    t.elapsed().as_secs_f64()
                })
                .collect()
        };
        let passes = match threads {
            1 => proc::on_cpu(proc::serial_cpu()?, passes)?,
            _ => passes(),
        };
        Ok(crate::median(&passes))
    }
}

impl Default for Probe {
    fn default() -> Self {
        Probe::new()
    }
}

/// `wall_s` at reference speed, given the kernel's time `probe_s`
/// measured just before it.
pub fn at_reference(wall_s: f64, probe_s: f64) -> f64 {
    wall_s * REFERENCE_S / probe_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_runs_and_scales() {
        let p = Probe::new();
        assert!(p.time(1).unwrap() > 0.0);
        assert!(p.time(2).unwrap() > 0.0);
        assert_eq!(at_reference(2.0, REFERENCE_S), 2.0);
        assert_eq!(at_reference(2.0, 2.0 * REFERENCE_S), 1.0);
    }
}
