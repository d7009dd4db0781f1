//! The in-memory batch entry points and the streaming corpus entry
//! points must be the same driver seen through two doors: for the same
//! files, `apply_batch_opts` ≡ `apply_to_corpus` and `scan_batch` ≡
//! `scan_corpus`, at every thread count, with only timings differing.
//!
//! Applying a patch and scanning with a one-rule set holding that patch
//! are the same per-file run folded two ways: they must agree on every
//! per-file fact except the finding's rule label.
//!
//! The streaming entry points must also keep their bounded-memory
//! promise: the producer may not read more than one batch ahead of what
//! the sink has already received.

use cocci_core::corpus::{BatchOptions, CorpusOptions, FileSource, MemorySource};
use cocci_core::explain::RuleAttempt;
use cocci_core::{
    apply_batch_opts, apply_to_corpus, scan_batch, scan_corpus, CompiledPatch, CompiledRuleSet,
    ExecOptions, FileOutcome, FileReport, KillStage, ScanOutcome,
};
use cocci_smpl::parse_semantic_patch;
use cocci_workloads::gen::{self, CodebaseSpec};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A mixed corpus: transform hits, report-rule hits, suppressed sites,
/// prefilter misses, and an unparsable file.
fn corpus() -> Vec<(String, String)> {
    (0..18)
        .map(|i| {
            let body = match i % 6 {
                0 => "void f(void) {\n    old_api(1);\n    alpha(2);\n}\n".to_string(),
                1 => "void f(void) {\n    other();\n}\n".to_string(),
                2 => "void f(void) {\n    beta(1); // spatch-ignore r-beta\n    gamma(2);\n}\n"
                    .to_string(),
                3 => "old_api alpha beta void broken( {\n".to_string(),
                4 => format!("void f{i}(int x) {{\n    if (x) {{\n        old_api(1);\n    }}\n    alpha(x);\n}}\n"),
                _ => "void f(void) {\n    gamma(3);\n    old_api(1);\n}\n".to_string(),
            };
            (format!("f{i:02}.c"), body)
        })
        .collect()
}

/// A report row with every timing zeroed.
fn masked(mut r: FileReport) -> String {
    r.seconds = 0.0;
    for rule in &mut r.rules {
        rule.seconds = 0.0;
    }
    format!("{r:?}")
}

fn apply_digest(o: &FileOutcome) -> String {
    format!(
        "{}|{:?}|{:?}|{}",
        o.name,
        o.output,
        o.findings,
        masked(FileReport::from_outcome(o))
    )
}

fn scan_digest(o: &ScanOutcome) -> String {
    format!(
        "{}|{:?}|{}|{}|{}",
        o.name,
        o.findings,
        o.parses,
        o.rules_pruned,
        masked(o.to_report())
    )
}

fn report_rule(callee: &str) -> String {
    format!("@scan@\nexpression e;\nposition p;\n@@\n{callee}(e)@p;\n")
}

fn rule_set() -> CompiledRuleSet {
    let src = |id: &str, text: String| (format!("{id}.cocci"), id.to_string(), text);
    CompiledRuleSet::from_sources(&[
        src("r-alpha", report_rule("alpha")),
        src("r-beta", report_rule("beta")),
        src("r-gamma", report_rule("gamma")),
        src(
            "fix-old",
            "@@ @@\n- old_api(1);\n+ new_api(1);\n".to_string(),
        ),
    ])
    .unwrap()
}

#[test]
fn apply_batch_matches_apply_to_corpus() {
    let patch = parse_semantic_patch("@@ @@\n- old_api(1);\n+ new_api(1);\n").unwrap();
    let compiled = Arc::new(CompiledPatch::compile(&patch).unwrap());
    let files = corpus();
    for threads in [1, 2, 4] {
        let batch: Vec<String> = apply_batch_opts(
            &compiled,
            &files,
            &ExecOptions {
                threads,
                prefilter: true,
                ..Default::default()
            },
        )
        .iter()
        .map(apply_digest)
        .collect();
        let mut streamed = Vec::new();
        let report = apply_to_corpus(
            &patch,
            &mut MemorySource::new(files.clone()),
            &CorpusOptions {
                threads,
                batch: BatchOptions {
                    max_files: 4,
                    max_bytes: usize::MAX,
                },
                ..Default::default()
            },
            |_, _, o| streamed.push(apply_digest(o)),
        )
        .unwrap();
        assert_eq!(batch, streamed, "-j {threads}");
        let rows: Vec<String> = report.files.into_iter().map(masked).collect();
        let batch_rows: Vec<String> = apply_batch_opts(
            &compiled,
            &files,
            &ExecOptions {
                threads,
                prefilter: true,
                ..Default::default()
            },
        )
        .iter()
        .map(|o| masked(FileReport::from_outcome(o)))
        .collect();
        assert_eq!(rows, batch_rows, "-j {threads} report rows");
    }
}

#[test]
fn scan_batch_matches_scan_corpus() {
    let set = rule_set();
    let files = corpus();
    for threads in [1, 2, 4] {
        let batch = scan_batch(
            &set,
            &files,
            &ExecOptions {
                threads,
                prefilter: true,
                ..Default::default()
            },
        );
        let mut streamed = Vec::new();
        let report = scan_corpus(
            &set,
            &mut MemorySource::new(files.clone()),
            &CorpusOptions {
                threads,
                batch: BatchOptions {
                    max_files: 4,
                    max_bytes: usize::MAX,
                },
                ..Default::default()
            },
            None,
            |_, _, o| streamed.push(scan_digest(o)),
        )
        .unwrap();
        let batch_digests: Vec<String> = batch.iter().map(scan_digest).collect();
        assert_eq!(batch_digests, streamed, "-j {threads}");
        let rows: Vec<String> = report.files.into_iter().map(masked).collect();
        let batch_rows: Vec<String> = batch.iter().map(|o| masked(o.to_report())).collect();
        assert_eq!(rows, batch_rows, "-j {threads} report rows");
        // Per-rule rows: every surviving rule, ascending by id.
        for o in &batch {
            let ids: Vec<&str> = o.rules.iter().map(|r| r.id.as_str()).collect();
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            assert_eq!(ids, sorted, "{}", o.name);
            assert_eq!(o.rules.len() + o.rules_pruned, set.len(), "{}", o.name);
        }
    }
}

/// A source that records, at each `next_batch` call, how many files the
/// sink had received by then.
struct Recording {
    inner: MemorySource,
    sunk: Arc<AtomicUsize>,
    at_call: Vec<usize>,
}

impl FileSource for Recording {
    fn next_batch(&mut self, opts: &BatchOptions) -> Vec<(String, String)> {
        self.at_call.push(self.sunk.load(Ordering::SeqCst));
        self.inner.next_batch(opts)
    }
}

/// Files that take real parsing work, so a producer that never waits
/// would race far ahead of the workers.
fn heavy_corpus(n: usize) -> Vec<(String, String)> {
    let body: String = (0..200)
        .map(|k| format!("void f{k}(int x) {{\n    if (x > {k}) {{\n        alpha(x);\n        old_api(1);\n    }}\n}}\n"))
        .collect();
    (0..n)
        .map(|i| (format!("h{i:02}.c"), body.clone()))
        .collect()
}

fn assert_bounded(at_call: &[usize], max_files: usize) {
    for (k, &sunk) in at_call.iter().enumerate() {
        let call = k + 1;
        let floor = call.saturating_sub(2) * max_files;
        assert!(
            sunk >= floor,
            "next_batch call {call}: only {sunk} file(s) sunk, expected >= {floor} ({at_call:?})"
        );
    }
}

#[test]
fn streaming_reads_at_most_one_batch_ahead() {
    const MAX_FILES: usize = 2;
    let opts = CorpusOptions {
        threads: 1,
        batch: BatchOptions {
            max_files: MAX_FILES,
            max_bytes: usize::MAX,
        },
        ..Default::default()
    };
    let files = heavy_corpus(40);

    let patch = parse_semantic_patch("@@ @@\n- old_api(1);\n+ new_api(1);\n").unwrap();
    let sunk = Arc::new(AtomicUsize::new(0));
    let mut src = Recording {
        inner: MemorySource::new(files.clone()),
        sunk: Arc::clone(&sunk),
        at_call: Vec::new(),
    };
    let report = apply_to_corpus(&patch, &mut src, &opts, |_, _, _| {
        sunk.fetch_add(1, Ordering::SeqCst);
    })
    .unwrap();
    assert_eq!(report.files.len(), 40);
    assert_eq!(src.at_call.len(), 21);
    assert_bounded(&src.at_call, MAX_FILES);

    let set = rule_set();
    let sunk = Arc::new(AtomicUsize::new(0));
    let mut src = Recording {
        inner: MemorySource::new(files),
        sunk: Arc::clone(&sunk),
        at_call: Vec::new(),
    };
    let report = scan_corpus(&set, &mut src, &opts, None, |_, _, _| {
        sunk.fetch_add(1, Ordering::SeqCst);
    })
    .unwrap();
    assert_eq!(report.files.len(), 40);
    assert_bounded(&src.at_call, MAX_FILES);
}

/// One file of every generator family the use-case patches target, plus
/// an unparsable file and suppression markers that silence some or all
/// of a file's findings.
fn use_case_corpus() -> Vec<(String, String)> {
    let spec = CodebaseSpec {
        files: 2,
        functions_per_file: 3,
        seed: 7,
    };
    let families = [
        gen::omp_codebase(&spec),
        gen::kernel_codebase(&spec),
        gen::multiversion_codebase(&spec),
        gen::unrolled_codebase(&spec, 4),
        gen::stencil_codebase(&spec),
        gen::cuda_codebase(&spec),
        gen::openacc_codebase(&spec),
        gen::raw_loop_codebase(&spec),
        gen::librsb_codebase(&spec),
        gen::branchy_codebase(&spec),
        gen::report_scan_codebase(&spec),
    ];
    let mut files: Vec<(String, String)> = families
        .into_iter()
        .enumerate()
        .flat_map(|(i, fam)| {
            fam.into_iter()
                .map(move |f| (format!("{i:02}/{}", f.name), f.text))
        })
        .collect();
    files.push((
        "broken.cu".into(),
        "old_api kernel<<< void broken( {\n".into(),
    ));
    files.push((
        "all_quiet.c".into(),
        "void f(void) {\n    old_api(1); // spatch-ignore scan\n}\n".into(),
    ));
    files.push((
        "half_quiet.c".into(),
        "void f(void) {\n    old_api(1); // spatch-ignore scan\n    old_api(2);\n}\n".into(),
    ));
    files
}

/// The per-file facts both jobs report, rule labels masked: the report
/// row plus the stage of every funnel attempt, in order.
fn run_digest(r: &FileReport, attempts: &[RuleAttempt]) -> String {
    let findings: Vec<_> = r
        .findings
        .iter()
        .map(|f| (&f.path, f.line, f.col, f.end_line, f.end_col, &f.message))
        .collect();
    let stages: Vec<KillStage> = attempts.iter().map(|a| a.stage).collect();
    format!(
        "{}|{}|m={}|w={}|s={}|{:?}|{:?}|{:?}",
        r.name, r.status, r.matches, r.witnesses, r.suppressed, findings, r.kill_stage, stages
    )
}

#[test]
fn apply_matches_one_rule_scan() {
    let files = use_case_corpus();
    let mut patches: Vec<(&str, &str)> = cocci_workloads::patches::ALL.to_vec();
    let quiet = report_rule("old_api");
    patches.push(("scan", &quiet));
    // Two rules in one file: a file only one of them can match, and a
    // file the prefilter prunes, which counts one attempt per rule.
    let two = "@old@\nexpression e;\nposition p;\n@@\nold_api(e)@p;\n\
               @al@\nexpression e;\nposition p;\n@@\nalpha(e)@p;\n";
    patches.push(("two", two));
    let configs = [
        ExecOptions {
            threads: 2,
            ..Default::default()
        },
        ExecOptions {
            threads: 2,
            prefilter: true,
            ..Default::default()
        },
        ExecOptions {
            threads: 2,
            timeout_ms: Some(0),
            ..Default::default()
        },
    ];
    let mut seen = std::collections::BTreeSet::new();
    for (id, text) in patches {
        let compiled =
            Arc::new(CompiledPatch::compile(&parse_semantic_patch(text).unwrap()).unwrap());
        let set = CompiledRuleSet::from_sources(&[(
            format!("{id}.cocci"),
            id.to_string(),
            text.to_string(),
        )])
        .unwrap();
        for opts in &configs {
            let applied: Vec<String> = apply_batch_opts(&compiled, &files, opts)
                .iter()
                .map(|o| {
                    let r = FileReport::from_outcome(o);
                    seen.insert(format!("{}/{:?}", r.status, r.kill_stage));
                    run_digest(&r, &o.attempts)
                })
                .collect();
            let scanned: Vec<String> = scan_batch(&set, &files, opts)
                .iter()
                .map(|o| run_digest(&o.to_report(), &o.attempts))
                .collect();
            assert_eq!(applied, scanned, "{id} at {opts:?}");
        }
    }
    // The corpus reaches every status and the inline-suppression stage.
    for want in [
        "pruned/Some(Prefilter)",
        "unmatched/",
        "matched/Some(Suppressed)",
        "matched/Some(Completed)",
        "changed/Some(Completed)",
        "timeout/Some(Timeout)",
        "error/Some(Parse)",
    ] {
        assert!(
            seen.iter().any(|s| s.starts_with(want)),
            "{want} not reached: {seen:?}"
        );
    }
}
