//! Every workload at a tiny scale, through the same timed and traced
//! paths the benchmark runs, with the oracle checking each output.
//! Builds the release `spatch` first.

use cocci_e2ebench::json::{self, Value};
use cocci_e2ebench::workload::{self, Scale, Workload};
use cocci_e2ebench::{
    build_spatch, layers, measure, proc, work_root, Outcome, END_TO_END, PER_LAYER,
};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn metric(o: &Outcome, name: &str) -> f64 {
    o.metrics
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} missing"))
        .1
}

fn tiny_dir(w: Workload) -> PathBuf {
    work_root().join(format!("test-{}-{}", w.name(), std::process::id()))
}

#[test]
fn every_workload_passes_its_oracle_timed_and_traced() {
    let spatch = build_spatch().expect("spatch builds");
    for w in Workload::ALL {
        let dir = tiny_dir(w);
        let prep = workload::prepare(w, 7, Scale::TINY, &dir).expect("corpus generated");
        assert!(prep.files > 0 && prep.bytes > 0);

        let timed = measure::run(&spatch, &prep, 0.01).expect("timed run");
        assert!(timed.correct, "{}: {timed:?}", w.name());
        assert_eq!(timed.failed, 0);
        assert_eq!(timed.attempted % prep.files, 0);
        assert_eq!(timed.metrics.len(), END_TO_END.len());
        for (name, _) in END_TO_END {
            assert!(metric(&timed, name) > 0.0, "{}: {name} is zero", w.name());
        }

        let traced = layers::run(&spatch, &prep, 0.01).expect("traced run");
        assert!(traced.correct, "{}: {traced:?}", w.name());
        assert_eq!(traced.metrics.len(), PER_LAYER.len());
        let survival = metric(&traced, "prefilter.survival_frac");
        let (cfg, flow, tree) = (
            metric(&traced, "cfg_build.calls"),
            metric(&traced, "flow_match.calls"),
            metric(&traced, "tree_match.calls"),
        );
        match w {
            Workload::ScanMatrix => {
                assert!(survival < 1.0);
                assert_eq!((cfg, flow), (0.0, 0.0));
                assert!(metric(&traced, "sarif.bytes") > 0.0);
            }
            Workload::ApplyCuda2Hip => {
                assert_eq!(survival, 1.0);
                assert!(metric(&traced, "orchestrate.calls") > 0.0);
                assert!(metric(&traced, "rewrite.edits") > 0.0);
            }
            Workload::FlowPaths => {
                assert!(cfg > 0.0 && flow > 0.0);
                assert_eq!(tree, 0.0);
            }
        }
        std::fs::remove_dir_all(&dir).expect("tiny corpus removed");
        let _ = std::fs::remove_file(work_root().join(format!(
            "{}.trace.json",
            dir.file_name().unwrap().to_string_lossy()
        )));
    }
}

#[test]
fn a_wrong_output_counts_failed_files() {
    let w = Workload::FlowPaths;
    let dir = tiny_dir(w).with_extension("wrong");
    let prep = workload::prepare(w, 3, Scale::TINY, &dir).expect("corpus generated");
    // Drop every finding of the first file from an otherwise perfect
    // text output: exactly that file fails.
    let workload::Expect::Findings(m) = &prep.expect else {
        panic!("scan workloads expect findings");
    };
    let (first, _) = m
        .iter()
        .find(|(_, f)| !f.is_empty())
        .expect("a file with findings");
    let lines: Vec<String> = m
        .iter()
        .filter(|(name, _)| *name != first)
        .flat_map(|(name, fs)| {
            fs.iter()
                .map(move |(r, l)| format!("{name}:{l}:5: {r}: matched"))
        })
        .collect();
    let failed = workload::check_stdout(w, &prep.expect, &lines.join("\n"));
    assert_eq!(failed.into_iter().collect::<Vec<_>>(), vec![first.clone()]);
    std::fs::remove_dir_all(&dir).expect("tiny corpus removed");
}

#[test]
fn benchmark_json_declares_what_the_code_reports() {
    let path = cocci_e2ebench::repo_root().join("BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
    let names = |key: &str| -> Vec<(String, String, String)> {
        doc.get(key)
            .expect(key)
            .as_array()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    };
    let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
    let expected: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, expected);
    let e2e: Vec<(String, String)> = names("end_to_end")
        .into_iter()
        .map(|(n, u, _)| (n, u))
        .collect();
    let declared: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(e2e, declared);
    let layers: Vec<(String, String, String)> = PER_LAYER
        .iter()
        .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
        .collect();
    assert_eq!(names("per_layer"), layers);
}

/// A child reports this process's resident peak when spawned from it,
/// and its own when spawned through the spawner.
#[test]
fn the_spawner_keeps_the_benchmarks_peak_out_of_child_rss() {
    let ballast = vec![1u8; 64 << 20];
    let dir = work_root();
    std::fs::create_dir_all(&dir).unwrap();
    let id = std::process::id();
    let (o, e) = (
        dir.join(format!("test-rss-{id}.out")),
        dir.join(format!("test-rss-{id}.err")),
    );
    let run = || {
        proc::run_measured(
            Path::new("/bin/sh"),
            &["-c".to_string(), "exit 0".to_string()],
            &dir,
            &o,
            &e,
            Duration::from_secs(30),
            None,
        )
        .expect("/bin/sh runs")
    };
    let direct = run();
    proc::start_spawner(Path::new(env!("CARGO_BIN_EXE_cocci-e2ebench"))).expect("spawner starts");
    let spawned = run();
    proc::stop_spawner();
    std::hint::black_box(&ballast);
    assert!(spawned.ok() && direct.ok());
    assert!(
        direct.peak_rss_mb >= 64.0,
        "direct: {} MB",
        direct.peak_rss_mb
    );
    assert!(
        spawned.peak_rss_mb < 16.0,
        "spawned: {} MB",
        spawned.peak_rss_mb
    );
    let _ = std::fs::remove_file(o);
    let _ = std::fs::remove_file(e);
}
