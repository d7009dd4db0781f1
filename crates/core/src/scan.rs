//! The N-rule scan job: lint a corpus with a whole rule collection in
//! one pass.
//!
//! Scanning runs through the same corpus driver as applying
//! ([`crate::corpus`]), and the work unit is again the file. For each
//! file, one pass of the rule set's merged prefilter automaton decides
//! which rules may match it at all; the survivors then run one after
//! another, in rule-id order, on one [`FileContext`] (text, parse tree,
//! CFG cache, line table, suppression index) that lives only as long as
//! the file's job. Fifty rules over one file share one parse — the
//! [`ScanOutcome::parses`] probe asserts exactly that.
//!
//! Findings are attributed to the scan rule that produced them: each
//! finding's `rule` field is rewritten to the rule's id and its message
//! honours the rule's `// spatch-message:` override, so one merged
//! report (or SARIF run) stays navigable at fifty rules.
//!
//! Scan mode never writes files: a transform rule that *would* change a
//! file records a `changed` per-rule outcome and its match count, and
//! nothing else.

use crate::context::FileContext;
use crate::corpus::{drive, drive_memory, CorpusOptions, FileSource, Outcome};
use crate::driver::{prefilter_attempts, run_patch, ExecOptions};
use crate::explain::{KillStage, RuleAttempt};
use crate::findings::Finding;
use crate::orchestrate::ApplyError;
use crate::report::json::{self, Value};
use crate::report::{ApplyReport, FileReport, FileStatus};
use crate::ruleset::{CompiledRuleSet, ScanRule};
use std::time::Instant;

/// Outcome of one rule on one file (scan mode).
#[derive(Debug, Clone, PartialEq)]
pub struct RuleOutcome {
    /// The rule id ([`RuleMeta::id`](crate::RuleMeta::id)).
    pub id: String,
    /// Per-rule status; `changed` means the (transform) rule *would*
    /// rewrite the file — scan mode never writes.
    pub status: FileStatus,
    /// Matches this rule found in the file.
    pub matches: usize,
    /// Findings kept after suppression filtering.
    pub findings: usize,
    /// Findings dropped by `// spatch-ignore` markers.
    pub suppressed: usize,
    /// Wall-clock seconds this rule spent on this file — recorded for
    /// *every* status, including `timeout` and `error`, so slow-rule
    /// accounting (`--stats`) covers quarantined work too.
    pub seconds: f64,
    /// Deepest funnel stage this rule's attempts reached on this file
    /// (`None` when no attempt was recorded — e.g. a matcher panic, or
    /// a report from an older build).
    pub kill_stage: Option<KillStage>,
}

impl RuleOutcome {
    /// Serialize as one JSON object (used inside file reports).
    pub(crate) fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"id\": {}, \"status\": \"{}\", \"matches\": {}, \"findings\": {}, \"suppressed\": {}, \"seconds\": {:e}",
            json::escape(&self.id),
            self.status,
            self.matches,
            self.findings,
            self.suppressed,
            self.seconds
        );
        if let Some(k) = self.kill_stage {
            out.push_str(&format!(", \"kill_stage\": \"{}\"", k.name()));
        }
        out.push('}');
        out
    }

    /// Parse the [`to_json`](RuleOutcome::to_json) form back.
    pub(crate) fn from_json(v: &Value) -> Result<RuleOutcome, String> {
        let o = v.as_object().ok_or("rule outcome: expected an object")?;
        let get_n = |k: &str| o.get(k).and_then(Value::as_f64).unwrap_or(0.0) as usize;
        Ok(RuleOutcome {
            id: o
                .get("id")
                .and_then(Value::as_str)
                .ok_or("rule outcome: missing \"id\"")?
                .to_string(),
            status: o
                .get("status")
                .and_then(Value::as_str)
                .and_then(FileStatus::parse)
                .ok_or("rule outcome: bad \"status\"")?,
            matches: get_n("matches"),
            findings: get_n("findings"),
            suppressed: get_n("suppressed"),
            seconds: o.get("seconds").and_then(Value::as_f64).unwrap_or(0.0),
            kill_stage: o
                .get("kill_stage")
                .and_then(Value::as_str)
                .and_then(KillStage::parse),
        })
    }
}

/// Result of scanning one file with a whole rule set.
#[derive(Debug, Clone)]
pub struct ScanOutcome {
    /// File name as passed in.
    pub name: String,
    /// FNV-1a hash of the file text (resume bookkeeping).
    pub hash: u64,
    /// Wall-clock seconds for the whole file (prefilter scan + every rule).
    pub seconds: f64,
    /// Times the file text was parsed — the "N rules, one parse"
    /// guarantee says this stays ≤ 1 however many rules survived.
    pub parses: usize,
    /// Per-function CFGs built (shared across flow-sensitive rules).
    pub cfg_builds: usize,
    /// Rules the merged prefilter pruned for this file without parsing.
    pub rules_pruned: usize,
    /// Outcomes of the surviving rules, ascending by rule id.
    pub rules: Vec<RuleOutcome>,
    /// All kept findings, attributed to their rule ids, grouped in rule
    /// order.
    pub findings: Vec<Finding>,
    /// Total findings dropped by `// spatch-ignore` markers.
    pub suppressed: usize,
    /// Per-path witnesses summed over flow-routed rules.
    pub witnesses: usize,
    /// First per-rule failure, prefixed with the rule id.
    pub error: Option<String>,
    /// Every attempt this file saw — one `Prefilter` entry per transform
    /// rule of each pruned scan rule plus the surviving rules' attempts,
    /// attributed to scan rule ids. Feeds the report's `explain` block
    /// under `--explain`.
    pub attempts: Vec<RuleAttempt>,
}

impl ScanOutcome {
    /// Aggregate file status: the most severe per-rule status
    /// (error > timeout > changed > matched > unmatched), or `pruned`
    /// when no rule survived the prefilter.
    pub fn status(&self) -> FileStatus {
        // `FileStatus` is declared in ascending severity.
        self.rules
            .iter()
            .map(|r| r.status)
            .max_by_key(|s| *s as u8)
            .unwrap_or(FileStatus::Pruned)
    }

    /// Matches summed over all rules.
    pub fn matches(&self) -> usize {
        self.rules.iter().map(|r| r.matches).sum()
    }

    /// The per-file report entry (per-rule outcomes included).
    pub fn to_report(&self) -> FileReport {
        FileReport {
            name: self.name.clone(),
            status: self.status(),
            matches: self.matches(),
            witnesses: self.witnesses,
            seconds: self.seconds,
            hash: self.hash,
            error: self.error.clone(),
            findings: self.findings.clone(),
            rules: self.rules.clone(),
            rules_pruned: self.rules_pruned,
            suppressed: self.suppressed,
            kill_stage: self.attempts.iter().map(|a| a.stage).max(),
        }
    }
}

impl Outcome for ScanOutcome {
    fn report(&self) -> FileReport {
        self.to_report()
    }
    fn attempts(&self) -> &[RuleAttempt] {
        &self.attempts
    }
}

/// The scan job: scan one file with every rule of `set`.
///
/// One pass of the merged prefilter picks the rules that may match; the
/// survivors then run one after another, in rule-id order, on one
/// [`FileContext`] this job owns and drops when it returns.
fn scan_file(
    set: &CompiledRuleSet,
    name: &str,
    text: &str,
    hash: u64,
    opts: &ExecOptions,
) -> ScanOutcome {
    let t0 = Instant::now();
    let surviving: Vec<usize> = if opts.prefilter {
        let _span = cocci_trace::span(cocci_trace::Phase::Prefilter);
        set.surviving_rules(text)
    } else {
        (0..set.len()).collect()
    };
    if opts.prefilter && surviving.is_empty() {
        cocci_trace::count(cocci_trace::Counter::FilesPruned, 1);
    }
    let mut out = ScanOutcome {
        name: name.to_string(),
        hash,
        seconds: 0.0,
        parses: 0,
        cfg_builds: 0,
        rules_pruned: set.len() - surviving.len(),
        rules: Vec::with_capacity(surviving.len()),
        findings: Vec::new(),
        suppressed: 0,
        witnesses: 0,
        error: None,
        attempts: Vec::new(),
    };
    // Pruned rules record their `Prefilter` funnel attempts here, one
    // per transform rule as the apply job does — the only point that
    // knows a (file × rule) pair was killed before parsing.
    let mut next = surviving.iter().copied().peekable();
    for (ri, rule) in set.rules.iter().enumerate() {
        if next.next_if_eq(&ri).is_none() {
            out.attempts.extend(prefilter_attempts(
                &rule.compiled,
                name,
                text,
                Some(&rule.meta.id),
                opts.explain.as_deref(),
            ));
        }
    }
    if !surviving.is_empty() {
        let mut ctx = FileContext::with_hash(name, text, hash);
        for ri in surviving {
            run_rule(&set.rules[ri], &mut ctx, opts, &mut out);
        }
        out.parses = ctx.parses();
        out.cfg_builds = ctx.cfg_builds();
    }
    out.seconds = t0.elapsed().as_secs_f64();
    out
}

/// Run one surviving rule on the file's shared context and fold its
/// result into `out`.
fn run_rule(rule: &ScanRule, ctx: &mut FileContext, opts: &ExecOptions, out: &mut ScanOutcome) {
    let (t0, shared0) = (Instant::now(), ctx.shared_time());
    let run = run_patch(&mut opts.patcher(&rule.compiled), ctx, Some(&rule.meta));
    let id = &rule.meta.id;
    if let (None, Some(e)) = (&out.error, &run.error) {
        out.error = Some(format!("rule {id}: {e}"));
    }
    // Failed attempts keep their elapsed time too: a timed-out or
    // crashing rule is exactly what slow-file accounting must see. The
    // file's parse and other shared state serve all its rules, so they
    // are not charged to whichever rule asked first.
    out.rules.push(RuleOutcome {
        id: id.clone(),
        status: run.status(),
        matches: run.matches,
        findings: run.findings.len(),
        suppressed: run.suppressed,
        seconds: t0
            .elapsed()
            .saturating_sub(ctx.shared_time() - shared0)
            .as_secs_f64(),
        kill_stage: run.kill_stage,
    });
    out.findings.extend(run.findings);
    out.suppressed += run.suppressed;
    out.witnesses += run.witnesses;
    out.attempts.extend(run.attempts);
}

/// Scan one in-memory batch of files with every rule of `set`; outcomes
/// come back in input order.
///
/// Work units are files, fed through the corpus driver as one batch;
/// each file is sieved by the merged prefilter (one automaton pass) and
/// parsed at most once for all its surviving rules. With
/// `opts.prefilter` off every rule runs on every file.
pub fn scan_batch(
    set: &CompiledRuleSet,
    files: &[(String, String)],
    opts: &ExecOptions,
) -> Vec<ScanOutcome> {
    drive_memory(files, opts.threads, |name, text, hash| {
        scan_file(set, name, text, hash, opts)
    })
}

/// Scan every file of `source` with `set`, streaming batches with
/// bounded memory; the scan counterpart of
/// [`apply_to_corpus_resumed`](crate::apply_to_corpus_resumed).
///
/// `previous` enables incremental re-scan: files whose content hash and
/// completed status match the prior report are skipped, carrying their
/// findings *and per-rule outcomes* forward. Sound only against the same
/// rule set — callers must compare [`ApplyReport::patch_hash`] against
/// [`CompiledRuleSet::hash`] before resuming (the returned report
/// records it).
pub fn scan_corpus(
    set: &CompiledRuleSet,
    source: &mut dyn FileSource,
    opts: &CorpusOptions,
    previous: Option<&ApplyReport>,
    mut sink: impl FnMut(&str, &str, &ScanOutcome),
) -> Result<ApplyReport, ApplyError> {
    let exec = opts.exec(set.requires_flow().map(|r| r.meta.id.as_str()))?;
    let mut report = drive(
        source,
        opts,
        previous,
        |name, text, hash| scan_file(set, name, text, hash, &exec),
        |name, text, outcome| sink(name, text, &outcome),
    );
    report.patch_hash = set.hash;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::MemorySource;
    use crate::orchestrate::Patcher;
    use std::sync::Arc;

    fn src(id: &str, text: &str) -> (String, String, String) {
        (format!("{id}.cocci"), id.to_string(), text.to_string())
    }

    fn report_rule(callee: &str) -> String {
        format!("@scan@\nexpression e;\nposition p;\n@@\n{callee}(e)@p;\n")
    }

    fn set3() -> CompiledRuleSet {
        CompiledRuleSet::from_sources(&[
            src("r-alpha", &report_rule("alpha")),
            src("r-beta", &report_rule("beta")),
            src("r-gamma", &report_rule("gamma")),
        ])
        .unwrap()
    }

    fn key(f: &Finding) -> (String, u32, u32, String) {
        (f.path.clone(), f.line, f.col, f.rule.clone())
    }

    #[test]
    fn scan_agrees_with_individual_runs() {
        let set = set3();
        let files: Vec<(String, String)> = vec![
            (
                "ab.c".into(),
                "void f(void) {\n    alpha(1);\n    beta(2);\n}\n".into(),
            ),
            ("g.c".into(), "void g(void) {\n    gamma(3);\n}\n".into()),
            ("none.c".into(), "void h(void) {\n    delta(4);\n}\n".into()),
        ];
        let outcomes = scan_batch(&set, &files, &ExecOptions::default());

        // Baseline: each rule applied individually to each file.
        let mut individual: Vec<(String, u32, u32, String)> = Vec::new();
        for rule in &set.rules {
            let mut p = Patcher::from_compiled(Arc::clone(&rule.compiled));
            for (name, text) in &files {
                p.apply(name, text).unwrap();
                for f in std::mem::take(&mut p.last_stats.findings) {
                    individual.push((f.path, f.line, f.col, rule.meta.id.clone()));
                }
            }
        }
        let mut merged: Vec<_> = outcomes
            .iter()
            .flat_map(|o| o.findings.iter().map(key))
            .collect();
        merged.sort();
        individual.sort();
        assert_eq!(merged, individual, "scan == N individual runs");
        // Finding attribution: the scan-rule id, not the SMPL rule name.
        assert!(merged.iter().all(|k| k.3.starts_with("r-")));
    }

    #[test]
    fn one_parse_serves_every_rule() {
        let rules: Vec<_> = (0..10)
            .map(|i| src(&format!("r{i:02}"), &report_rule("shared_api")))
            .collect();
        let set = CompiledRuleSet::from_sources(&rules).unwrap();
        let files = vec![(
            "f.c".to_string(),
            "void f(void) {\n    shared_api(1);\n}\n".to_string(),
        )];
        let outcomes = scan_batch(&set, &files, &ExecOptions::default());
        assert_eq!(outcomes[0].rules.len(), 10, "all rules survive");
        assert_eq!(outcomes[0].parses, 1, "ten rules, one parse");
        assert_eq!(outcomes[0].findings.len(), 10);
        // The same holds with parallel workers racing on the file.
        let outcomes = scan_batch(
            &set,
            &files,
            &ExecOptions {
                threads: 4,
                ..Default::default()
            },
        );
        assert_eq!(outcomes[0].parses, 1);
    }

    #[test]
    fn merged_prefilter_prunes_per_file() {
        let set = set3();
        let files = vec![
            (
                "a.c".to_string(),
                "void f(void) { alpha(1); }\n".to_string(),
            ),
            ("n.c".to_string(), "void f(void) { other(); }\n".to_string()),
        ];
        let outcomes = scan_batch(
            &set,
            &files,
            &ExecOptions {
                prefilter: true,
                ..Default::default()
            },
        );
        assert_eq!(outcomes[0].rules_pruned, 2);
        assert_eq!(outcomes[0].rules.len(), 1);
        assert_eq!(outcomes[0].rules[0].id, "r-alpha");
        assert_eq!(outcomes[0].status(), FileStatus::Matched);
        // No survivors: the file is pruned without being parsed.
        assert_eq!(outcomes[1].rules_pruned, 3);
        assert_eq!(outcomes[1].status(), FileStatus::Pruned);
        assert_eq!(outcomes[1].parses, 0);
    }

    #[test]
    fn suppression_is_per_rule() {
        let set = set3();
        let files = vec![(
            "s.c".to_string(),
            "void f(void) {\n    alpha(1); // spatch-ignore r-alpha\n    beta(2);\n}\n".to_string(),
        )];
        let outcomes = scan_batch(&set, &files, &ExecOptions::default());
        let by_id = |id: &str| outcomes[0].rules.iter().find(|r| r.id == id).unwrap();
        assert_eq!(by_id("r-alpha").suppressed, 1);
        assert_eq!(by_id("r-alpha").findings, 0);
        assert_eq!(by_id("r-alpha").matches, 1, "suppressed, not unmatched");
        assert_eq!(by_id("r-beta").findings, 1);
        assert_eq!(outcomes[0].suppressed, 1);
        assert_eq!(outcomes[0].findings.len(), 1);
        assert_eq!(outcomes[0].findings[0].rule, "r-beta");
    }

    #[test]
    fn transform_rules_report_would_change_without_writing() {
        let set = CompiledRuleSet::from_sources(&[
            src("fix-alpha", "@@ @@\n- alpha(1);\n+ alpha2(1);\n"),
            src("scan-beta", &report_rule("beta")),
        ])
        .unwrap();
        let files = vec![(
            "m.c".to_string(),
            "void f(void) {\n    alpha(1);\n    beta(2);\n}\n".to_string(),
        )];
        let outcomes = scan_batch(&set, &files, &ExecOptions::default());
        let fix = outcomes[0]
            .rules
            .iter()
            .find(|r| r.id == "fix-alpha")
            .unwrap();
        assert_eq!(fix.status, FileStatus::Changed);
        assert!(fix.matches > 0);
        assert_eq!(fix.findings, 0, "transform rules produce no findings");
        let scan = outcomes[0]
            .rules
            .iter()
            .find(|r| r.id == "scan-beta")
            .unwrap();
        assert_eq!(scan.status, FileStatus::Matched);
        assert_eq!(outcomes[0].status(), FileStatus::Changed);
    }

    #[test]
    fn unparsable_file_errors_once_per_rule_one_lex() {
        let set = set3();
        let files = vec![(
            "bad.c".to_string(),
            "alpha beta gamma void broken( {\n".to_string(),
        )];
        let outcomes = scan_batch(&set, &files, &ExecOptions::default());
        assert_eq!(outcomes[0].status(), FileStatus::Error);
        assert_eq!(outcomes[0].rules.len(), 3);
        assert!(outcomes[0]
            .rules
            .iter()
            .all(|r| r.status == FileStatus::Error));
        assert_eq!(outcomes[0].parses, 1, "the parse failure is cached");
        let err = outcomes[0].error.as_deref().unwrap();
        assert!(err.starts_with("rule r-alpha:"), "{err}");
    }

    #[test]
    fn zero_budget_times_rules_out() {
        let set = set3();
        let files = vec![(
            "f.c".to_string(),
            "void f(void) { alpha(1); }\n".to_string(),
        )];
        let outcomes = scan_batch(
            &set,
            &files,
            &ExecOptions {
                timeout_ms: Some(0),
                ..Default::default()
            },
        );
        assert_eq!(outcomes[0].status(), FileStatus::Timeout);
        assert!(outcomes[0]
            .rules
            .iter()
            .all(|r| r.status == FileStatus::Timeout));
        // Quarantined attempts still record their elapsed time, so slow
        // files are visible to `--stats` whatever their status.
        assert!(
            outcomes[0].rules.iter().all(|r| r.seconds > 0.0),
            "{:?}",
            outcomes[0].rules
        );
        assert!(outcomes[0].seconds > 0.0);
    }

    #[test]
    fn error_outcomes_record_seconds() {
        let set = set3();
        let files = vec![(
            "bad.c".to_string(),
            "alpha beta gamma void broken( {\n".to_string(),
        )];
        let outcomes = scan_batch(&set, &files, &ExecOptions::default());
        assert_eq!(outcomes[0].status(), FileStatus::Error);
        assert!(outcomes[0].rules.iter().all(|r| r.seconds > 0.0));
        // And the per-rule seconds survive the report JSON round trip.
        let report = ApplyReport {
            patch: String::new(),
            patch_hash: 0,
            threads: 1,
            prefilter: true,
            resumed: 0,
            total_seconds: 0.0,
            metrics: None,
            lints: Vec::new(),
            explain: None,
            files: outcomes.iter().map(|o| o.to_report()).collect(),
        };
        let back = ApplyReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back.files[0].rules, report.files[0].rules);
    }

    #[test]
    fn outcome_order_is_deterministic_across_thread_counts() {
        let set = set3();
        let files: Vec<(String, String)> = (0..6)
            .map(|i| {
                (
                    format!("f{i}.c"),
                    "void f(void) {\n    alpha(1);\n    beta(2);\n    gamma(3);\n}\n".to_string(),
                )
            })
            .collect();
        type FileDigest = (String, Vec<String>, Vec<(String, u32, u32, String)>);
        let runs: Vec<Vec<FileDigest>> = [1, 4, 8]
            .iter()
            .map(|&t| {
                scan_batch(
                    &set,
                    &files,
                    &ExecOptions {
                        threads: t,
                        ..Default::default()
                    },
                )
                .iter()
                .map(|o| {
                    (
                        o.name.clone(),
                        o.rules.iter().map(|r| r.id.clone()).collect(),
                        o.findings.iter().map(key).collect(),
                    )
                })
                .collect()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
        // Rule order within a file is ascending by id, not completion.
        assert_eq!(runs[0][0].1, ["r-alpha", "r-beta", "r-gamma"]);
    }

    #[test]
    fn scan_corpus_resumes_and_carries_rule_outcomes() {
        let set = set3();
        let hit = (
            "hit.c".to_string(),
            "void f(void) {\n    alpha(1);\n}\n".to_string(),
        );
        let first = scan_corpus(
            &set,
            &mut MemorySource::new(vec![hit.clone()]),
            &CorpusOptions::default(),
            None,
            |_, _, _| {},
        )
        .unwrap();
        assert_eq!(first.patch_hash, set.hash);
        assert_eq!(first.files[0].status, FileStatus::Matched);
        assert!(!first.files[0].rules.is_empty());

        // Round-trip through JSON (the CLI resume path) and re-scan.
        let prior = ApplyReport::from_json(&first.to_json()).unwrap();
        let mut sunk = 0;
        let second = scan_corpus(
            &set,
            &mut MemorySource::new(vec![hit]),
            &CorpusOptions::default(),
            Some(&prior),
            |_, _, _| sunk += 1,
        )
        .unwrap();
        assert_eq!(second.resumed, 1);
        assert_eq!(sunk, 0, "unchanged file skipped");
        assert_eq!(second.files[0].rules, prior.files[0].rules);
        assert_eq!(second.files[0].findings, prior.files[0].findings);
    }

    #[test]
    fn scan_corpus_refuses_no_flow_with_quantified_rules() {
        let set = CompiledRuleSet::from_sources(&[src(
            "needs-flow",
            "@@ @@\n- a();\n+ a2();\n... when exists\nb();\n",
        )])
        .unwrap();
        let err = scan_corpus(
            &set,
            &mut MemorySource::new(vec![(
                "f.c".to_string(),
                "void f(void) { a(); b(); }\n".into(),
            )]),
            &CorpusOptions {
                no_flow: true,
                ..Default::default()
            },
            None,
            |_, _, _| {},
        )
        .unwrap_err();
        assert!(err.message.contains("needs-flow"), "{err}");
        assert!(err.message.contains("when exists"), "{err}");
    }

    /// Streaming-scan counterpart of the corpus determinism test: the
    /// (file × rule) unit pool must yield the same sink stream and
    /// report whatever the thread count and batch size.
    #[test]
    fn scan_corpus_identical_across_threads_and_batch_sizes() {
        let set = set3();
        let files: Vec<(String, String)> = (0..9)
            .map(|i| {
                let body = match i % 3 {
                    0 => "void f(void) {\n    alpha(1);\n    beta(2);\n}\n",
                    1 => "void f(void) {\n    gamma(3);\n}\n",
                    _ => "void f(void) {\n    delta(4);\n}\n",
                };
                (format!("s{i}.c"), body.to_string())
            })
            .collect();
        type Digest = (Vec<String>, Vec<(String, String, usize)>);
        let mut runs: Vec<Digest> = Vec::new();
        for threads in [1, 2, 4] {
            for max_files in [1, 4, 100] {
                let mut sunk = Vec::new();
                let report = scan_corpus(
                    &set,
                    &mut MemorySource::new(files.clone()),
                    &CorpusOptions {
                        threads,
                        batch: crate::corpus::BatchOptions {
                            max_files,
                            max_bytes: usize::MAX,
                        },
                        ..Default::default()
                    },
                    None,
                    |name, _, outcome| {
                        sunk.push(format!("{name}:{}:{}", outcome.status(), outcome.matches()))
                    },
                )
                .unwrap();
                let digest: Vec<(String, String, usize)> = report
                    .files
                    .iter()
                    .map(|f| (f.name.clone(), f.status.to_string(), f.matches))
                    .collect();
                runs.push((sunk, digest));
            }
        }
        for r in &runs[1..] {
            assert_eq!(r.0, runs[0].0, "sink stream differs");
            assert_eq!(r.1, runs[0].1, "report sequence differs");
        }
        let expect: Vec<String> = (0..9).map(|i| format!("s{i}.c")).collect();
        let names: Vec<String> = runs[0].1.iter().map(|(n, _, _)| n.clone()).collect();
        assert_eq!(names, expect, "report keeps walk order");
    }

    #[test]
    fn rule_outcome_json_round_trips() {
        let r = RuleOutcome {
            id: "x\"y".into(),
            status: FileStatus::Matched,
            matches: 3,
            findings: 2,
            suppressed: 1,
            seconds: 1.25e-3,
            kill_stage: Some(KillStage::Completed),
        };
        let v = json::parse(&r.to_json()).unwrap();
        assert_eq!(RuleOutcome::from_json(&v).unwrap(), r);
        // Entries without the stage (older reports) parse to None.
        let r2 = RuleOutcome {
            kill_stage: None,
            ..r.clone()
        };
        let v = json::parse(&r2.to_json()).unwrap();
        assert_eq!(RuleOutcome::from_json(&v).unwrap(), r2);
    }
}
