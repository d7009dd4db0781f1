//! Single-patch entry points and the per-file apply job.
//!
//! Applying one semantic patch to N files is embarrassingly parallel —
//! the per-file pipeline shares nothing but the (read-only) compiled
//! patch. Every entry point here runs through the one corpus driver
//! ([`crate::corpus`]): the in-memory [`apply_batch`] family feeds its
//! list through it as a single batch, and the job it runs per file is
//! `run_one` — prefilter scan, then a full apply. The apply is folded
//! into its outcome by `run_patch`, which the scan job runs once per
//! surviving rule.
//!
//! The patch is compiled **once** per run ([`CompiledPatch`]) and shared
//! immutably by every worker; each file only builds a cheap [`Patcher`]
//! wrapper for its mutable per-application state. A compile
//! error therefore surfaces exactly once, as the run-level `Err` of
//! [`apply_to_files`], instead of being repeated for every file. With
//! `prefilter` enabled, [`apply_batch`] skips lexing/parsing entirely for
//! files that fail the patch's literal-atom pre-scan.

use crate::compile::CompiledPatch;
use crate::context::FileContext;
use crate::corpus::drive_memory;
use crate::explain::{self, ExplainConfig, KillStage, RuleAttempt};
use crate::findings::Finding;
use crate::orchestrate::{ApplyError, Patcher};
use crate::report::FileStatus;
use crate::ruleset::RuleMeta;
use cocci_smpl::{Rule, SemanticPatch};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Result of patching one file.
#[derive(Debug, Clone)]
pub struct FileOutcome {
    /// File name as passed in.
    pub name: String,
    /// Patched text when the patch changed the file.
    pub output: Option<String>,
    /// Error message when the file failed (parse error, edit conflict).
    pub error: Option<String>,
    /// Matches found across rules.
    pub matches: usize,
    /// Per-path witnesses produced by CFG-routed (statement-dots)
    /// rules; cross-branch bindings that fork count once per path.
    pub witnesses: usize,
    /// Findings from reporting-only rules and script `print_report`
    /// calls — one per match witness.
    pub findings: Vec<crate::findings::Finding>,
    /// Findings dropped by `// spatch-ignore` suppression markers.
    pub suppressed: usize,
    /// The prefilter skipped this file before lexing/parsing.
    pub pruned: bool,
    /// The file exceeded the per-file time budget.
    pub timed_out: bool,
    /// FNV-1a hash of the *original* file text (resume bookkeeping).
    pub hash: u64,
    /// Wall-clock seconds this file took (prefilter scan included).
    pub seconds: f64,
    /// One record per (this file × rule) attempt with the stage that
    /// ended it — the explain funnel's per-file half. Empty for error
    /// outcomes (unattributable) and resumed files.
    pub attempts: Vec<RuleAttempt>,
    /// File-level summary: the deepest stage any attempt reached
    /// (`Completed` when any rule completed), `None` when nothing ran.
    pub kill_stage: Option<KillStage>,
}

/// Per-run execution knobs shared by every worker.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Worker threads (0 = number of available CPUs).
    pub threads: usize,
    /// Skip files failing the literal-atom pre-scan without parsing.
    pub prefilter: bool,
    /// Route flow-sensitive rules through the CFG path engine (all-paths
    /// statement dots). Off = legacy tree-sequence dots.
    pub flow: bool,
    /// Per-file wall-clock budget in milliseconds, checked at rule
    /// boundaries; over-budget files get a `timeout` outcome.
    pub timeout_ms: Option<u64>,
    /// `--explain` filter: attempts matching it carry human-readable
    /// kill details (the stage itself is always recorded).
    pub explain: Option<Arc<ExplainConfig>>,
}

impl FileOutcome {
    /// An outcome for `name` with nothing recorded yet.
    pub(crate) fn empty(name: &str, hash: u64) -> FileOutcome {
        FileOutcome {
            name: name.to_string(),
            output: None,
            error: None,
            matches: 0,
            witnesses: 0,
            findings: Vec::new(),
            suppressed: 0,
            pruned: false,
            timed_out: false,
            hash,
            seconds: 0.0,
            attempts: Vec::new(),
            kill_stage: None,
        }
    }

    /// The outcome's status: a failure first (timeout, then error), then
    /// whether the file was pruned, changed, matched or left unmatched.
    pub(crate) fn status(&self) -> FileStatus {
        if self.timed_out {
            FileStatus::Timeout
        } else if self.error.is_some() {
            FileStatus::Error
        } else if self.pruned {
            FileStatus::Pruned
        } else if self.output.is_some() {
            FileStatus::Changed
        } else if self.matches > 0 {
            FileStatus::Matched
        } else {
            FileStatus::Unmatched
        }
    }
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            threads: 0,
            prefilter: false,
            flow: true,
            timeout_ms: None,
            explain: None,
        }
    }
}

impl ExecOptions {
    /// A [`Patcher`] over `compiled` with these knobs. It is cheap (the
    /// compiled patch is shared) and carries nothing from one file to
    /// the next, so each file (apply) or rule application (scan) builds
    /// its own.
    pub(crate) fn patcher(&self, compiled: &Arc<CompiledPatch>) -> Patcher {
        let mut patcher = Patcher::from_compiled(Arc::clone(compiled));
        patcher.flow_enabled = self.flow;
        patcher.time_budget = self.timeout_ms.map(Duration::from_millis);
        patcher.explain = self.explain.clone();
        patcher
    }
}

/// Apply `patch` to every `(name, text)` pair using `threads` worker
/// threads (0 = number of available CPUs). Outcomes are returned in input
/// order. A patch compile error is returned once, at run level.
pub fn apply_to_files(
    patch: &SemanticPatch,
    files: &[(String, String)],
    threads: usize,
) -> Result<Vec<FileOutcome>, ApplyError> {
    let compiled = Arc::new(CompiledPatch::compile(patch)?);
    Ok(apply_batch(&compiled, files, threads, false))
}

/// Apply an already-compiled patch to one in-memory batch of files.
///
/// With `prefilter`, files that cannot match (per
/// [`CompiledPatch::may_match`]) are marked pruned without being parsed.
/// Shorthand for [`apply_batch_opts`] with default flow/timeout knobs.
pub fn apply_batch(
    compiled: &Arc<CompiledPatch>,
    files: &[(String, String)],
    threads: usize,
    prefilter: bool,
) -> Vec<FileOutcome> {
    apply_batch_opts(
        compiled,
        files,
        &ExecOptions {
            threads,
            prefilter,
            ..Default::default()
        },
    )
}

/// Apply an already-compiled patch to one in-memory batch of files with
/// full execution options (prefilter, CFG flow routing, per-file time
/// budget).
pub fn apply_batch_opts(
    compiled: &Arc<CompiledPatch>,
    files: &[(String, String)],
    opts: &ExecOptions,
) -> Vec<FileOutcome> {
    drive_memory(files, opts.threads, |name, text, hash| {
        run_one(compiled, name, text, hash, opts)
    })
}

thread_local! {
    /// Set while this thread runs inside [`catch_matcher_panics`]: the
    /// panic hook stays silent for it (the payload is captured and
    /// surfaced as the file's error entry), so one pathological file
    /// does not spray "thread panicked" noise over a corpus run.
    static QUIET_PANICS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Chain a once-installed hook in front of the default one that
/// suppresses output only for threads currently inside the catch.
fn install_quiet_panic_hook() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
}

/// Run `f`, converting a panic into an ordinary [`ApplyError`] so one
/// pathological file maps to a `failed` report entry instead of
/// poisoning the whole corpus run (the worker thread — and with it the
/// scoped-thread driver — would otherwise die with it).
fn catch_matcher_panics<T>(
    name: &str,
    f: impl FnOnce() -> Result<T, ApplyError>,
) -> Result<T, ApplyError> {
    install_quiet_panic_hook();
    QUIET_PANICS.with(|q| q.set(true));
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    QUIET_PANICS.with(|q| q.set(false));
    match caught {
        Ok(result) => result,
        Err(payload) => {
            cocci_trace::count(cocci_trace::Counter::Panics, 1);
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic payload>".to_string());
            Err(ApplyError::new(format!("{name}: matcher panicked: {msg}")))
        }
    }
}

/// One prefilter-killed attempt per transform rule of the patch, with
/// the absent required atoms as the `--explain` detail. Each attempt is
/// recorded as it is made. `scan_id` attributes the attempts to a scan
/// rule, as [`run_patch`] does.
pub(crate) fn prefilter_attempts(
    compiled: &CompiledPatch,
    name: &str,
    text: &str,
    scan_id: Option<&str>,
    explain: Option<&ExplainConfig>,
) -> Vec<RuleAttempt> {
    let mut attempts = Vec::new();
    for (ri, rule) in compiled.patch.rules.iter().enumerate() {
        let Rule::Transform(t) = rule else { continue };
        let label = scan_id.unwrap_or_else(|| t.name.as_deref().unwrap_or("<anonymous>"));
        let detail =
            explain
                .filter(|cfg| cfg.matches(name, label))
                .map(|_| match compiled.rule_atoms(ri) {
                    Some(atoms) => {
                        let absent: Vec<&str> = atoms
                            .iter()
                            .filter(|a| !text.contains(a.as_str()))
                            .map(String::as_str)
                            .collect();
                        format!("missing required atom(s): {}", absent.join(", "))
                    }
                    None => "prefilter rejected the file".to_string(),
                });
        explain::record_attempt(KillStage::Prefilter, name, label, detail.as_deref());
        attempts.push(RuleAttempt {
            rule: label.to_string(),
            stage: KillStage::Prefilter,
            detail,
        });
    }
    attempts
}

/// The apply job: run the per-file pipeline (prefilter scan, then full
/// apply) once. `hash` is the content hash of `text`.
pub(crate) fn run_one(
    compiled: &Arc<CompiledPatch>,
    name: &str,
    text: &str,
    hash: u64,
    opts: &ExecOptions,
) -> FileOutcome {
    let t0 = Instant::now();
    let survives = !opts.prefilter || {
        let _span = cocci_trace::span(cocci_trace::Phase::Prefilter);
        compiled.may_match(text)
    };
    let mut out = if survives {
        let mut ctx = FileContext::with_hash(name, text, hash);
        run_patch(&mut opts.patcher(compiled), &mut ctx, None)
    } else {
        cocci_trace::count(cocci_trace::Counter::FilesPruned, 1);
        let attempts = prefilter_attempts(compiled, name, text, None, opts.explain.as_deref());
        FileOutcome {
            pruned: true,
            kill_stage: attempts.iter().map(|a| a.stage).max(),
            attempts,
            ..FileOutcome::empty(name, hash)
        }
    };
    out.seconds = t0.elapsed().as_secs_f64();
    out
}

/// Run `patcher`'s patch on the file `ctx` holds and fold the result into
/// an outcome (`seconds` left at 0). The one place where a patch run's
/// matcher panics are caught, its findings pass the file's
/// `// spatch-ignore` markers, and its funnel attempts are recorded.
///
/// `label` attributes the run to a scan rule: attempts and findings take
/// its id (and findings its message override) before suppression, so
/// markers name the id.
pub(crate) fn run_patch(
    patcher: &mut Patcher,
    ctx: &mut FileContext,
    label: Option<&RuleMeta>,
) -> FileOutcome {
    let mut out = FileOutcome::empty(ctx.name(), ctx.hash());
    let res = catch_matcher_panics(&out.name, || patcher.apply_ctx(ctx));
    let stats = std::mem::take(&mut patcher.last_stats);
    out.attempts = stats.attempts;
    let mut findings = stats.findings;
    if let Some(meta) = label {
        for a in &mut out.attempts {
            a.rule.clone_from(&meta.id);
        }
        for f in &mut findings {
            f.rule.clone_from(&meta.id);
            if let Some(m) = &meta.message {
                f.message.clone_from(m);
            }
        }
    }
    match res {
        Ok(output) => {
            let per_rule = |findings: &[Finding], rule: &str| {
                findings.iter().filter(|f| f.rule == rule).count()
            };
            // Pre-suppression finding counts per attempt, to upgrade a
            // completed attempt whose findings all vanish.
            let before: Vec<usize> = out
                .attempts
                .iter()
                .map(|a| per_rule(&findings, &a.rule))
                .collect();
            // `// spatch-ignore` markers drop findings here, at the
            // outcome boundary — matching itself never sees them.
            if !findings.is_empty() {
                (out.findings, out.suppressed) = ctx.suppressions().filter(findings);
            }
            cocci_trace::count(cocci_trace::Counter::Suppressions, out.suppressed as u64);
            for (a, before) in out.attempts.iter_mut().zip(before) {
                if a.stage == KillStage::Completed
                    && before > 0
                    && per_rule(&out.findings, &a.rule) == 0
                {
                    a.stage = KillStage::Suppressed;
                    if a.detail.is_some() || patcher.explain_wants(&out.name, &a.rule) {
                        a.detail = Some(format!("all {before} finding(s) suppressed inline"));
                    }
                }
            }
            out.output = output;
            out.matches = stats.matches_per_rule.iter().sum();
            out.witnesses = stats.witnesses;
        }
        Err(e) => {
            out.error = Some(e.message);
            out.timed_out = e.timed_out;
        }
    }
    // The single record point per attempt, so the `--stats` funnel, the
    // report metrics, and the per-outcome stages reconcile exactly.
    for a in &out.attempts {
        explain::record_attempt(a.stage, &out.name, &a.rule, a.detail.as_deref());
    }
    out.kill_stage = out.attempts.iter().map(|a| a.stage).max();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::content_hash;
    use cocci_smpl::parse_semantic_patch;

    #[test]
    fn parallel_driver_patches_all_files() {
        let patch = parse_semantic_patch("@@ @@\n- old_api(42);\n+ new_api(42);\n").unwrap();
        let files: Vec<(String, String)> = (0..32)
            .map(|i| {
                (
                    format!("f{i}.c"),
                    "void f(void) { old_api(42); done(); }\n".to_string(),
                )
            })
            .collect();
        let outcomes = apply_to_files(&patch, &files, 4).unwrap();
        assert_eq!(outcomes.len(), 32);
        for o in &outcomes {
            assert!(o.error.is_none(), "{:?}", o.error);
            let out = o.output.as_ref().expect("patched");
            assert!(out.contains("new_api(42);"));
            assert!(!out.contains("old_api"));
        }
    }

    #[test]
    fn results_keep_input_order() {
        let patch = parse_semantic_patch("@@ @@\n- a();\n+ b();\n").unwrap();
        let files: Vec<(String, String)> = (0..8)
            .map(|i| (format!("f{i}.c"), "void g(void) { a(); }\n".to_string()))
            .collect();
        let outcomes = apply_to_files(&patch, &files, 3).unwrap();
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.name, format!("f{i}.c"));
        }
    }

    #[test]
    fn unmatched_files_return_none() {
        let patch = parse_semantic_patch("@@ @@\n- nothing_here();\n+ x();\n").unwrap();
        let files = vec![("f.c".to_string(), "void g(void) { other(); }\n".to_string())];
        let outcomes = apply_to_files(&patch, &files, 1).unwrap();
        assert!(outcomes[0].output.is_none());
        assert!(outcomes[0].error.is_none());
        assert!(!outcomes[0].pruned);
    }

    #[test]
    fn compile_error_surfaces_once_at_run_level() {
        let patch =
            parse_semantic_patch("@@\nidentifier f =~ \"bad(regex\";\n@@\n- f();\n+ g();\n")
                .unwrap();
        let files: Vec<(String, String)> = (0..16)
            .map(|i| (format!("f{i}.c"), "void f(void) {}\n".to_string()))
            .collect();
        let err = apply_to_files(&patch, &files, 4).unwrap_err();
        assert!(err.to_string().contains("regex"), "{err}");
    }

    #[test]
    fn prefilter_prunes_without_parsing() {
        let patch = parse_semantic_patch("@@ @@\n- old_api(1);\n+ new_api(1);\n").unwrap();
        let compiled = Arc::new(CompiledPatch::compile(&patch).unwrap());
        let files = vec![
            ("hit.c".to_string(), "void f(void) { old_api(1); }\n".into()),
            ("miss.c".to_string(), "void f(void) { other(); }\n".into()),
            // Would be a parse error — the prefilter skips it before the
            // parser ever sees it.
            ("broken.c".to_string(), "void f( {".into()),
        ];
        let outcomes = apply_batch(&compiled, &files, 2, true);
        assert!(outcomes[0].output.is_some() && !outcomes[0].pruned);
        assert!(outcomes[1].pruned && outcomes[1].error.is_none());
        assert!(outcomes[2].pruned && outcomes[2].error.is_none());
        // Same batch without the prefilter: the broken file errors.
        let outcomes = apply_batch(&compiled, &files, 2, false);
        assert!(!outcomes[1].pruned);
        assert!(outcomes[2].error.is_some());
    }

    #[test]
    fn zero_time_budget_times_every_file_out() {
        let patch = parse_semantic_patch("@@ @@\n- a();\n+ b();\n").unwrap();
        let compiled = Arc::new(CompiledPatch::compile(&patch).unwrap());
        let files = vec![("f.c".to_string(), "void g(void) { a(); }\n".to_string())];
        let outcomes = apply_batch_opts(
            &compiled,
            &files,
            &ExecOptions {
                threads: 1,
                timeout_ms: Some(0),
                ..Default::default()
            },
        );
        assert!(outcomes[0].timed_out);
        assert!(outcomes[0].output.is_none());
        assert!(outcomes[0].error.as_deref().unwrap().contains("budget"));
        // A generous budget does not trip.
        let outcomes = apply_batch_opts(
            &compiled,
            &files,
            &ExecOptions {
                threads: 1,
                timeout_ms: Some(60_000),
                ..Default::default()
            },
        );
        assert!(!outcomes[0].timed_out);
        assert!(outcomes[0].output.is_some());
    }

    #[test]
    fn flow_toggle_changes_dots_semantics() {
        // Tree dots match across the early return; all-paths dots refuse.
        let patch =
            parse_semantic_patch("@@ @@\n- begin();\n+ begin2();\n...\nfinish();\n").unwrap();
        let compiled = Arc::new(CompiledPatch::compile(&patch).unwrap());
        let files = vec![(
            "f.c".to_string(),
            "void f(int x) { begin(); if (x) return; finish(); }\n".to_string(),
        )];
        let flow_on = apply_batch_opts(&compiled, &files, &ExecOptions::default());
        assert!(flow_on[0].output.is_none(), "all-paths semantics refuses");
        let flow_off = apply_batch_opts(
            &compiled,
            &files,
            &ExecOptions {
                flow: false,
                ..Default::default()
            },
        );
        assert!(
            flow_off[0].output.is_some(),
            "tree semantics over-matches: {:?}",
            flow_off[0].error
        );
    }

    #[test]
    fn matcher_panics_map_to_failed_outcomes() {
        // The guard converts a panic into an ordinary ApplyError (the
        // report-side contract for one pathological file), instead of
        // letting it poison the scoped-thread driver.
        let err = catch_matcher_panics::<()>("weird.c", || panic!("synthetic blowup")).unwrap_err();
        assert!(err.message.contains("weird.c"), "{err}");
        assert!(err.message.contains("synthetic blowup"), "{err}");
        assert!(err.message.contains("panicked"), "{err}");
        assert!(!err.timed_out);
        // String payloads are extracted too.
        let owned = String::from("owned payload");
        let err = catch_matcher_panics::<()>("s.c", move || panic!("{owned}")).unwrap_err();
        assert!(err.message.contains("owned payload"), "{err}");
        // Ordinary results pass through untouched.
        assert_eq!(catch_matcher_panics("f.c", || Ok(7)).unwrap(), 7);
        let plain = catch_matcher_panics::<()>("f.c", || Err(ApplyError::new("x"))).unwrap_err();
        assert_eq!(plain.message, "x");
    }

    #[test]
    fn flow_outcomes_carry_witness_counts_and_rewrite_both_arms() {
        // A metavariable that binds differently in the two arms forks
        // one witness per path; each drives its own rewrite.
        let patch =
            parse_semantic_patch("@@\nexpression e;\n@@\na();\n...\n- b(e);\n+ c(e);\n").unwrap();
        let files = vec![(
            "f.c".to_string(),
            "void f(int x) {\n    a();\n    if (x) {\n        b(1);\n    } else {\n        b(2);\n    }\n    done();\n}\n"
                .to_string(),
        )];
        let outcomes = apply_to_files(&patch, &files, 1).unwrap();
        assert!(outcomes[0].error.is_none(), "{:?}", outcomes[0].error);
        assert_eq!(outcomes[0].witnesses, 2, "one witness per path binding");
        let out = outcomes[0].output.as_ref().expect("both arms rewritten");
        assert!(out.contains("c(1);"), "{out}");
        assert!(out.contains("c(2);"), "{out}");
        assert!(!out.contains("b(1)") && !out.contains("b(2)"), "{out}");
    }

    #[test]
    fn suppression_markers_drop_findings_from_outcomes() {
        let patch = parse_semantic_patch("@scan@\nexpression e;\nposition p;\n@@\nold_api(e)@p;\n")
            .unwrap();
        let files = vec![(
            "s.c".to_string(),
            "void f(void) {\n    old_api(1); // spatch-ignore scan\n\n    old_api(2);\n}\n"
                .to_string(),
        )];
        let outcomes = apply_to_files(&patch, &files, 1).unwrap();
        assert_eq!(outcomes[0].matches, 2, "matching still sees both sites");
        assert_eq!(outcomes[0].findings.len(), 1);
        assert_eq!(outcomes[0].findings[0].line, 4);
        assert_eq!(outcomes[0].suppressed, 1);
        // A marker naming a different rule suppresses nothing.
        let files = vec![(
            "s.c".to_string(),
            "void f(void) {\n    old_api(1); // spatch-ignore other-rule\n}\n".to_string(),
        )];
        let outcomes = apply_to_files(&patch, &files, 1).unwrap();
        assert_eq!(outcomes[0].findings.len(), 1);
        assert_eq!(outcomes[0].suppressed, 0);
    }

    #[test]
    fn outcomes_carry_content_hashes() {
        let patch = parse_semantic_patch("@@ @@\n- a();\n+ b();\n").unwrap();
        let files = vec![
            ("f.c".to_string(), "void g(void) { a(); }\n".to_string()),
            ("g.c".to_string(), "void g(void) { a(); }\n".to_string()),
            ("h.c".to_string(), "void h(void) { x(); }\n".to_string()),
        ];
        let outcomes = apply_to_files(&patch, &files, 1).unwrap();
        assert_eq!(outcomes[0].hash, outcomes[1].hash, "same text, same hash");
        assert_ne!(outcomes[0].hash, outcomes[2].hash);
        assert_eq!(outcomes[0].hash, content_hash("void g(void) { a(); }\n"));
    }

    #[test]
    fn outcomes_carry_timings() {
        let patch = parse_semantic_patch("@@ @@\n- a();\n+ b();\n").unwrap();
        let files = vec![("f.c".to_string(), "void g(void) { a(); }\n".to_string())];
        let outcomes = apply_to_files(&patch, &files, 1).unwrap();
        assert!(outcomes[0].seconds > 0.0);
    }
}
