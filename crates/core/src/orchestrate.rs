//! Rule orchestration: running a whole semantic patch against one file.
//!
//! Rules execute **in order**, and each transformation rule's edits are
//! applied to the text before the next rule runs (Coccinelle's sequential
//! semantics — the unroll patch relies on rule `r1` seeing `p1`'s
//! substitutions). Rules communicate through:
//!
//! * the *matched set* — `depends on r` skips a rule unless `r` matched;
//! * *exported environments* — a rule that later rules inherit from
//!   (via `rule.var` metavariables or script inputs) exports one
//!   environment per match; dependent rules run once per environment.
//!   Environments form a linear chain (`cfe` → `cf2hf` → `hfe`), which
//!   covers every multi-rule patch in the paper; the full cross-product
//!   semantics of upstream Coccinelle are intentionally not reproduced.
//! * the shared script interpreter: `@initialize@` blocks populate
//!   globals, `@script@` rules compute new bindings per environment.

use crate::compile::CompiledPatch;
use crate::context::FileContext;
use crate::edits::EditSet;
use crate::env::{Env, ExportedEnv, Value};
use crate::explain::{AttemptProbe, ExplainConfig, KillStage, RuleAttempt};
use crate::findings::{self, Finding};
use crate::matcher::{self, MatchCtx, MatchState};
use crate::rewrite;
use cocci_cast::ast::*;
use cocci_cast::parser::ParseOptions;
use cocci_cast::visit;
use cocci_script::{Interp, PosInfo, Value as ScriptValue};
use cocci_smpl::{
    Constraint, DepExpr, FreshPart, MetaDeclKind, Pattern, Rule, ScriptRule, SemanticPatch,
    TransformRule,
};
use cocci_source::Span;
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// Error applying a semantic patch.
#[derive(Debug, Clone)]
pub struct ApplyError {
    /// Description.
    pub message: String,
    /// The file exceeded its per-file time budget (recorded as a
    /// `timeout` outcome by the driver, not a hard error).
    pub timed_out: bool,
}

impl ApplyError {
    /// An ordinary (non-timeout) apply error.
    pub fn new(message: impl Into<String>) -> ApplyError {
        ApplyError {
            message: message.into(),
            timed_out: false,
        }
    }

    /// A per-file time-budget violation.
    pub fn timeout(message: impl Into<String>) -> ApplyError {
        ApplyError {
            message: message.into(),
            timed_out: true,
        }
    }
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ApplyError {}

fn aerr(message: impl Into<String>) -> ApplyError {
    ApplyError::new(message)
}

/// Statistics from one application.
#[derive(Debug, Clone, Default)]
pub struct ApplyStats {
    /// Matches found per rule (by index).
    pub matches_per_rule: Vec<usize>,
    /// Total edits applied.
    pub edits: usize,
    /// Per-path witnesses produced by CFG-routed (statement-dots)
    /// rules — every match of such a rule is one witness, so forked
    /// cross-branch bindings count once per path.
    pub witnesses: usize,
    /// Findings produced by reporting-only rules (pure-context bodies)
    /// and by script rules via `coccilib.report.print_report` — one per
    /// match witness.
    pub findings: Vec<Finding>,
    /// One record per transform-rule attempt (and per timed-out rule
    /// boundary), in rule order: the kill stage that ended it, plus an
    /// `--explain` detail when the patcher's explain filter matched.
    /// Kept after `Ok` *and* after timeout/parse errors (the two
    /// attributable failure modes); after any other error it is empty.
    pub attempts: Vec<RuleAttempt>,
}

/// Applies a parsed semantic patch to files.
///
/// The expensive, immutable per-patch artifacts (rule patterns, compiled
/// regexes, prefilters) live in a shared [`CompiledPatch`]; a `Patcher`
/// only adds its knobs and the statistics of its last application.
/// Script-interpreter globals live in each application (every
/// [`apply_ctx`](Patcher::apply_ctx) starts a fresh interpreter), so
/// nothing carries from one file to the next and building a `Patcher`
/// is cheap — the driver compiles once and builds one per file over the
/// same `Arc`.
pub struct Patcher {
    compiled: Arc<CompiledPatch>,
    /// Statistics of the most recent `apply` call (reset when it starts).
    pub last_stats: ApplyStats,
    /// Route flow-sensitive rules (statement dots) through the CFG path
    /// engine. On by default; `spatch --no-flow` and benchmarks clear it
    /// to get the legacy tree-sequence reading of dots.
    pub flow_enabled: bool,
    /// Per-file wall-clock budget, checked at rule boundaries. A file
    /// over budget aborts with a timeout error instead of stalling the
    /// corpus run.
    pub time_budget: Option<std::time::Duration>,
    /// `--explain` filter: when set and matching a (file, rule)
    /// attempt, its [`RuleAttempt`] carries a human-readable detail
    /// (the always-on half records only the stage).
    pub explain: Option<Arc<ExplainConfig>>,
}

impl Patcher {
    /// Compile a semantic patch (regex constraints validated eagerly) and
    /// wrap it in a fresh `Patcher`. Prefer [`CompiledPatch::compile`] +
    /// [`Patcher::from_compiled`] when applying to many files so the
    /// compile happens once.
    pub fn new(patch: &SemanticPatch) -> Result<Self, ApplyError> {
        Ok(Self::from_compiled(Arc::new(CompiledPatch::compile(
            patch,
        )?)))
    }

    /// A patcher over an already-compiled patch (no recompile).
    pub fn from_compiled(compiled: Arc<CompiledPatch>) -> Self {
        Patcher {
            compiled,
            last_stats: ApplyStats::default(),
            flow_enabled: true,
            time_budget: None,
            explain: None,
        }
    }

    /// The shared compiled patch.
    pub fn compiled(&self) -> &CompiledPatch {
        &self.compiled
    }

    /// Apply the patch to one file. Returns `Ok(Some(text))` when edits
    /// were made, `Ok(None)` when nothing matched.
    pub fn apply(&mut self, name: &str, src: &str) -> Result<Option<String>, ApplyError> {
        let mut ctx = FileContext::new(name, src);
        self.apply_ctx(&mut ctx)
    }

    /// Apply the patch to the file `ctx` holds. Returns `Ok(Some(text))`
    /// with the rewritten file when edits were made, `Ok(None)` when
    /// nothing changed.
    ///
    /// Every rule matches through one [`FileContext`] per text version:
    /// the caller's `ctx` while the text is the original, then a fresh
    /// context built once per landed edit over the rewritten text. Parse
    /// tree, CFGs and line table therefore come from that version's
    /// caches, and later rules see earlier rules' rewrites (sequential
    /// rule semantics). `ctx` itself still describes the original text
    /// when the call returns, so several patches can share it — the scan
    /// driver parses a file once for all its rules.
    ///
    /// `last_stats` is reset on entry; see [`ApplyStats::attempts`] for
    /// what survives an `Err`.
    pub fn apply_ctx(&mut self, ctx: &mut FileContext) -> Result<Option<String>, ApplyError> {
        self.last_stats = ApplyStats::default();
        let t0 = std::time::Instant::now();
        let opts = ParseOptions {
            pattern: false,
            lang: self.compiled.patch.lang,
        };
        let name = ctx.name().to_string();
        // The context of the current text, once an edit has landed.
        let mut rewritten: Option<FileContext> = None;
        let mut interp = Interp::new();
        let mut matched: HashSet<String> = HashSet::new();
        let mut streams: Vec<ExportedEnv> = vec![ExportedEnv::new()];
        let mut stats = ApplyStats {
            matches_per_rule: vec![0; self.compiled.patch.rules.len()],
            ..ApplyStats::default()
        };
        let mut finalizers = Vec::new();
        // Auto-findings of reporting rules whose bindings feed a script
        // rule are *deferred*: if that script ends up authoring findings
        // (via `coccilib.report.print_report`), the generic `matched`
        // records are dropped — emitting both would double-report every
        // site — but a script that never reports must not silently
        // swallow the matches either.
        let mut deferred: Vec<(String, Vec<Finding>)> = Vec::new();
        let mut scripts_reporting: HashSet<String> = HashSet::new();

        // Clone the Arc handle (not the rules) so rule iteration does not
        // conflict with the `&self` borrows of the helper methods.
        let compiled = Arc::clone(&self.compiled);
        for (ri, rule) in compiled.patch.rules.iter().enumerate() {
            // Per-file time budget, checked at rule boundaries so a
            // pathological file aborts between rules instead of stalling
            // the whole corpus run.
            if let Some(budget) = self.time_budget {
                if t0.elapsed() >= budget {
                    cocci_trace::count(cocci_trace::Counter::Timeouts, 1);
                    let rule_label = rule.name().unwrap_or("<anonymous>");
                    stats.attempts.push(self.attempt(
                        &name,
                        rule_label,
                        KillStage::Timeout,
                        || {
                            Some(format!(
                                "budget {} ms expired before this rule",
                                budget.as_millis()
                            ))
                        },
                    ));
                    self.last_stats = stats;
                    return Err(ApplyError::timeout(format!(
                        "{name}: exceeded per-file time budget ({} ms) before rule {}",
                        budget.as_millis(),
                        rule.name().unwrap_or("<anonymous>"),
                    )));
                }
            }
            let after_edit = rewritten.is_some();
            let version = match &mut rewritten {
                Some(c) => c,
                None => &mut *ctx,
            };
            match rule {
                Rule::Initialize(b) => {
                    interp
                        .run_block(&b.code)
                        .map_err(|e| aerr(format!("{name}: initialize block: {e}")))?;
                }
                Rule::Finalize(b) => finalizers.push(b.code.clone()),
                Rule::Script(s) => {
                    if !deps_ok(s.depends.as_ref(), &matched) {
                        continue;
                    }
                    self.run_script_rule(
                        s,
                        &mut interp,
                        &mut streams,
                        &mut matched,
                        version,
                        &mut stats.findings,
                        &mut scripts_reporting,
                    )?;
                }
                Rule::Transform(t) => {
                    if !deps_ok(t.depends.as_ref(), &matched) {
                        continue;
                    }
                    let rule_label = t.name.as_deref().unwrap_or("<anonymous>");
                    let tu: Arc<TranslationUnit> = match version.parse(opts) {
                        Ok(tu) => tu,
                        Err(e) => {
                            let msg = if after_edit {
                                format!("cannot parse target (after transformation): {e}")
                            } else {
                                format!("cannot parse target: {e}")
                            };
                            stats.attempts.push(self.attempt(
                                &name,
                                rule_label,
                                KillStage::Parse,
                                || Some(msg.clone()),
                            ));
                            self.last_stats = stats;
                            return Err(aerr(format!("{name}: {msg}")));
                        }
                    };
                    // Contradictory witness groups are already rejected
                    // inside run_transform_rule (before they could claim
                    // territory or export environments), so every match
                    // here is one whose edits landed in the returned
                    // set. A non-zero witness_group marks a CFG path
                    // witness; a flow-routed rule's tree-fallback
                    // matches (over-budget functions) keep 0 and are
                    // not counted as witnesses.
                    let (all_matches, new_streams, edits, probe) =
                        self.run_transform_rule(ri, t, &tu, version, &streams)?;
                    let stage = probe.stage(!all_matches.is_empty());
                    stats
                        .attempts
                        .push(self.attempt(&name, rule_label, stage, || probe.detail(stage)));
                    stats.matches_per_rule[ri] = all_matches.len();
                    stats.witnesses += all_matches.iter().filter(|m| m.witness_group != 0).count();
                    // Reporting-only rules (pure-context bodies) route
                    // their witnesses to findings: one finding per
                    // witness, anchored at the rule's first bound
                    // position metavariable (or the match root), with
                    // line/col resolved against the *current* text.
                    // Rules whose bindings feed a script rule defer
                    // theirs (see `deferred` above).
                    if self.compiled.rules[ri].report_only && !all_matches.is_empty() {
                        let r = version.resolver();
                        let mut auto = Vec::with_capacity(all_matches.len());
                        for m in &all_matches {
                            auto.push(findings::finding_for_match(
                                rule_label,
                                &t.metavars,
                                m,
                                &r,
                                version.text(),
                            ));
                        }
                        let feeds_script = t
                            .name
                            .as_ref()
                            .is_some_and(|n| self.compiled.script_inherited_from.contains(n));
                        if feeds_script {
                            deferred.push((rule_label.to_string(), auto));
                        } else {
                            stats.findings.extend(auto);
                        }
                    }
                    if !all_matches.is_empty() {
                        if let Some(n) = &t.name {
                            matched.insert(n.clone());
                        }
                        if let Some(ns) = new_streams {
                            streams = ns;
                        }
                        if !edits.is_empty() {
                            stats.edits += edits.len();
                            let _render = cocci_trace::span(cocci_trace::Phase::Render);
                            let text = edits
                                .apply(version.text())
                                .map_err(|e| aerr(format!("{name}: rule {rule_label}: {e}")))?;
                            rewritten = Some(FileContext::new(name.as_str(), text));
                        }
                    }
                }
            }
        }
        // Settle the deferred auto-findings: a rule whose inheriting
        // script reported keeps only the script's messages; if no such
        // script reported anything, the generic findings stand in so
        // the matches do not silently vanish from report output.
        for (rname, auto) in deferred {
            let authored = compiled.patch.rules.iter().any(|r| match r {
                Rule::Script(s) => {
                    s.inputs.iter().any(|(_, from, _)| *from == rname)
                        && s.name
                            .as_ref()
                            .is_some_and(|n| scripts_reporting.contains(n))
                }
                _ => false,
            });
            if !authored {
                stats.findings.extend(auto);
            }
        }
        for code in finalizers {
            interp
                .run_block(&code)
                .map_err(|e| aerr(format!("{name}: finalize block: {e}")))?;
        }
        self.last_stats = stats;
        Ok(rewritten.map(|c| c.text().to_string()))
    }

    /// Whether the `--explain` filter is set and matches this
    /// (file, rule) attempt — i.e. whether details should be kept.
    pub fn explain_wants(&self, file: &str, rule: &str) -> bool {
        self.explain.as_ref().is_some_and(|c| c.matches(file, rule))
    }

    /// The funnel record of one (file, rule) attempt that `stage` ended.
    /// Its `--explain` detail stays `None` unless the explain filter is
    /// set and matches — the cheap always-on half never assembles detail
    /// strings.
    fn attempt(
        &self,
        file: &str,
        rule: &str,
        stage: KillStage,
        detail: impl FnOnce() -> Option<String>,
    ) -> RuleAttempt {
        RuleAttempt {
            rule: rule.to_string(),
            stage,
            detail: self.explain_wants(file, rule).then(detail).flatten(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run_script_rule(
        &self,
        s: &ScriptRule,
        interp: &mut Interp,
        streams: &mut Vec<ExportedEnv>,
        matched: &mut HashSet<String>,
        version: &mut FileContext,
        findings: &mut Vec<Finding>,
        scripts_reporting: &mut HashSet<String>,
    ) -> Result<(), ApplyError> {
        let mut new_streams = Vec::new();
        let mut any = false;
        // The line table of the current text version is built lazily
        // (most script rules inherit no positions). Positions were bound
        // against the current text of their rule's run; report mode is
        // restricted to transformation-free patches, so the text — and
        // with it the line table — cannot have moved since.
        for ex in streams.iter() {
            // Gather inputs; environments lacking them pass through
            // unchanged (the script does not run for them).
            let mut inputs = BTreeMap::new();
            let mut complete = true;
            for (local, from, var) in &s.inputs {
                match ex.get(from, var) {
                    Some(Value::Pos {
                        file: pf,
                        span,
                        resolved,
                    }) => {
                        // Exported positions carry their bind-time
                        // line/col (the text may have been rewritten
                        // since); resolving the raw span against the
                        // current text is only a fallback for
                        // positions that never crossed the export path.
                        let (line, column, line_end, column_end) = match resolved {
                            Some(rp) => (rp.line, rp.col, rp.end_line, rp.end_col),
                            None => {
                                let r = version.resolver();
                                let (line, column) = r.line_col(span.start);
                                let (line_end, column_end) = r.line_col(span.end);
                                (line, column, line_end, column_end)
                            }
                        };
                        inputs.insert(
                            local.clone(),
                            // Coccinelle hands scripts a *list* of
                            // positions per metavariable; this engine
                            // binds one site per witness, so the list
                            // is a singleton — `p[0]`.
                            ScriptValue::List(vec![ScriptValue::Pos(PosInfo {
                                file: pf.to_string(),
                                line: i64::from(line),
                                column: i64::from(column),
                                line_end: i64::from(line_end),
                                column_end: i64::from(column_end),
                            })]),
                        );
                    }
                    Some(v) => {
                        inputs.insert(local.clone(), ScriptValue::Str(v.render("")));
                    }
                    None => {
                        complete = false;
                        break;
                    }
                }
            }
            if !complete {
                new_streams.push(ex.clone());
                continue;
            }
            let run = interp
                .run_script(&s.code, &inputs)
                .map_err(|e| aerr(format!("{}: script rule: {e}", version.name())))?;
            // `coccilib.report.print_report` calls become findings,
            // attributed to this script rule.
            for r in interp.take_reports() {
                if let Some(n) = &s.name {
                    scripts_reporting.insert(n.clone());
                }
                findings.push(Finding {
                    path: r.pos.file,
                    line: r.pos.line.max(0) as u32,
                    col: r.pos.column.max(0) as u32,
                    end_line: r.pos.line_end.max(0) as u32,
                    end_col: r.pos.column_end.max(0) as u32,
                    rule: s.name.clone().unwrap_or_else(|| "<script>".to_string()),
                    message: r.message,
                    bindings: Vec::new(),
                });
            }
            match run {
                Some(outputs) => {
                    let mut ex2 = ex.clone();
                    if let Some(rname) = &s.name {
                        for (k, v) in outputs {
                            ex2.bind(rname, &k, Value::Text(v.render()));
                        }
                    }
                    new_streams.push(ex2);
                    any = true;
                }
                None => {
                    // Dict-miss idiom: drop this environment.
                }
            }
        }
        if any {
            if let Some(n) = &s.name {
                matched.insert(n.clone());
            }
        }
        if !new_streams.is_empty() {
            *streams = new_streams;
        }
        Ok(())
    }

    /// Run one transformation rule over all seed environments. Returns
    /// the surviving matches (contradictory witness groups already
    /// rejected), (when the rule is inherited from) the new environment
    /// stream, the emitted edit set for those matches, ready to
    /// apply, and the attempt probe for kill-stage attribution. `tu` is
    /// the parse of `version`'s text.
    #[allow(clippy::type_complexity)]
    fn run_transform_rule(
        &self,
        ri: usize,
        t: &TransformRule,
        tu: &Arc<TranslationUnit>,
        version: &mut FileContext,
        streams: &[ExportedEnv],
    ) -> Result<
        (
            Vec<MatchState>,
            Option<Vec<ExportedEnv>>,
            EditSet,
            AttemptProbe,
        ),
        ApplyError,
    > {
        let exports_needed = t
            .name
            .as_ref()
            .map(|n| self.compiled.inherited_from.contains(n))
            .unwrap_or(false);
        let has_inherited = t.metavars.iter().any(|m| m.inherited_from.is_some());

        // Build seeds: one per stream env when inheriting, else a single
        // empty seed. Constant-set metavariables multiply seeds.
        let base_seeds: Vec<(Option<&ExportedEnv>, Env)> = if has_inherited {
            let mut seeds = Vec::new();
            'outer: for ex in streams {
                let mut env = Env::new();
                for mv in &t.metavars {
                    if let Some(from) = &mv.inherited_from {
                        match ex.get(from, &mv.name) {
                            Some(v) => env.bind(&mv.name, v.clone()),
                            None => continue 'outer,
                        }
                    }
                }
                seeds.push((Some(ex), env));
            }
            seeds
        } else {
            vec![(None, Env::new())]
        };

        let mut seeds = Vec::new();
        for (ex, env) in base_seeds {
            let mut variants = vec![env];
            for mv in &t.metavars {
                if mv.kind == MetaDeclKind::Constant {
                    if let Some(Constraint::Set(vals)) = &mv.constraint {
                        let mut next = Vec::new();
                        for v in vals {
                            if let Ok(i) = v.parse::<i128>() {
                                for base in &variants {
                                    let mut e = base.clone();
                                    e.bind(&mv.name, Value::Int(i));
                                    next.push(e);
                                }
                            }
                        }
                        if !next.is_empty() {
                            variants = next;
                        }
                    }
                }
            }
            for v in variants {
                seeds.push((ex, v));
            }
        }

        let file = version.name().to_string();
        let text = version.text_arc();
        let src: &str = &text;
        let ctx = MatchCtx {
            file: &file,
            src,
            decls: &t.metavars,
            regexes: &self.compiled.rules[ri].regexes,
        };

        // Flow-sensitive rules route through the CFG path engine
        // (all-paths dots semantics); everything else — and every rule
        // when `--no-flow` cleared `flow_enabled` — stays on the tree
        // matcher. The search (span indexes over the text version's
        // cached per-function CFGs) is built once and reused across all
        // seed environments.
        //
        // Exception: a rule whose dots carry an explicit `when exists`/
        // `when strict` cannot take the tree reading at all — it would
        // silently discard the quantifier and (for strict) over-match.
        // With flow matching disabled that is a loud per-file error,
        // not a degraded rewrite.
        if !self.flow_enabled {
            if let Some(fp) = &self.compiled.rules[ri].flow {
                if fp.explicit_quant {
                    return Err(aerr(format!(
                        "rule {}: `when exists` / `when strict` require CFG path matching, \
                         which is disabled (--no-flow)",
                        t.name.as_deref().unwrap_or("<anonymous>")
                    )));
                }
            }
        }
        let flow_search = match (&self.compiled.rules[ri].flow, &t.body.pattern) {
            (Some(fp), Pattern::Stmts(pats)) if self.flow_enabled => Some(
                crate::flowmatch::FlowSearch::with_cache(fp, pats, tu, version.cfgs()),
            ),
            _ => None,
        };

        // A tree-routed expression or statement pattern visits only the
        // items holding all of the rule's prefilter atoms (see
        // `find_matches_in`); atomless rules, item patterns and the flow
        // route walk the whole unit.
        let atoms = match (&flow_search, &t.body.pattern) {
            (None, Pattern::Expr(_) | Pattern::Stmts(_)) => self.compiled.rules[ri]
                .atoms
                .as_deref()
                .filter(|a| !a.is_empty()),
            _ => None,
        };

        let mut all_matches: Vec<MatchState> = Vec::new();
        let mut new_streams: Vec<ExportedEnv> = Vec::new();
        let mut claimed: Vec<(Span, u32)> = Vec::new();
        let mut edits = EditSet::new();
        let mut probe = AttemptProbe::default();
        let rule_label = t.name.as_deref().unwrap_or("<anonymous>");
        for (ex, seed) in &seeds {
            let mut found = match &flow_search {
                Some(fs) => {
                    let _span = cocci_trace::span_with(cocci_trace::Phase::FlowMatch, rule_label);
                    fs.find(&ctx, seed)
                }
                None => {
                    let _span = cocci_trace::span_with(cocci_trace::Phase::TreeMatch, rule_label);
                    let only = atoms.map(|a| version.anchor_items(tu, a));
                    let found = find_matches_in(&ctx, &t.body.pattern, tu, seed, only.as_deref());
                    // Tree route: a full-pattern match *is* the anchor
                    // hit (no separate gap/binding stages).
                    probe.anchors += found.len() as u64;
                    found
                }
            };
            for m in &mut found {
                // Fresh identifiers computed per match.
                for mv in &t.metavars {
                    if let MetaDeclKind::FreshIdentifier(parts) = &mv.kind {
                        let mut text = String::new();
                        for p in parts {
                            match p {
                                FreshPart::Lit(l) => text.push_str(l),
                                FreshPart::MetaRef(r) => match m.env.get(r) {
                                    Some(v) => text.push_str(&v.render(src)),
                                    None => {
                                        return Err(aerr(format!(
                                            "fresh identifier `{}` references unbound `{r}`",
                                            mv.name
                                        )))
                                    }
                                },
                            }
                        }
                        m.env.bind(
                            &mv.name,
                            Value::Ident {
                                name: text.into(),
                                span: Span::SYNTHETIC,
                            },
                        );
                    }
                }
            }
            // Sibling witnesses forked from one anchor attempt (adjacent
            // in `found`, shared non-zero group id) are handled as a
            // group. For patterns with a *forall* gap the group is
            // atomic — the siblings jointly discharge the all-paths
            // obligation, so if an earlier claim blocks any sibling, or
            // their rewrites contradict, keeping a subset would rewrite
            // only some of the attempt's arms. Pure-`exists` patterns
            // fork one *independent* witness per surviving path: there
            // only the individually blocked/contradicting siblings
            // drop.
            let atomic_groups = self.compiled.rules[ri]
                .flow
                .as_ref()
                .map(|fp| fp.has_forall_gap())
                .unwrap_or(true);
            let mut it = found.into_iter().peekable();
            while let Some(first) = it.next() {
                let gid = first.witness_group;
                let mut members = vec![first];
                if gid != 0 {
                    while it.peek().map(|m| m.witness_group == gid).unwrap_or(false) {
                        members.push(it.next().expect("peeked"));
                    }
                }
                let member_blocked = |m: &MatchState| {
                    let root = match_root(m);
                    !root.is_synthetic() && claims_conflict(&claimed, root, m)
                };
                // An ungrouped match is a one-member atomic group.
                if gid == 0 || atomic_groups {
                    if members.iter().any(member_blocked) {
                        probe.group_blocked += 1;
                        continue;
                    }
                    // Contradictory rewrites (a forked metavariable
                    // substituted into a *shared* anchor's replacement
                    // or insertion) reject the group here, before it
                    // claims territory, exports environments, or counts
                    // as matched — the clean no-match outcome the
                    // pre-fork engine gave. Each member's edits land in
                    // their own set so cross-member contradictions are
                    // visible (same-offset insertions with different
                    // text never trip a single merged set).
                    let mut member_sets = Vec::with_capacity(members.len());
                    {
                        let _rewrite = cocci_trace::span(cocci_trace::Phase::Rewrite);
                        for m in &members {
                            let mut set = EditSet::new();
                            rewrite::emit_edits(&t.body, m, src, &mut set)
                                .map_err(|e| aerr(format!("rewrite: {e}")))?;
                            member_sets.push(set);
                        }
                    }
                    let contradictory = member_sets
                        .iter()
                        .enumerate()
                        .any(|(i, a)| member_sets[i + 1..].iter().any(|b| a.conflicts_with(b)));
                    if contradictory {
                        probe.contradictory += 1;
                        continue;
                    }
                    for set in member_sets {
                        edits.merge(set);
                    }
                } else {
                    // Independent exists witnesses: drop blocked ones,
                    // then keep a maximal consistent set in source
                    // order (a later witness whose edits contradict an
                    // accepted sibling's drops alone).
                    let before = members.len();
                    members.retain(|m| !member_blocked(m));
                    probe.group_blocked += (before - members.len()) as u64;
                    let mut accepted_sets: Vec<EditSet> = Vec::new();
                    let mut kept = Vec::with_capacity(members.len());
                    let _rewrite = cocci_trace::span(cocci_trace::Phase::Rewrite);
                    for m in members {
                        let mut set = EditSet::new();
                        rewrite::emit_edits(&t.body, &m, src, &mut set)
                            .map_err(|e| aerr(format!("rewrite: {e}")))?;
                        if accepted_sets.iter().all(|a| !a.conflicts_with(&set)) {
                            accepted_sets.push(set);
                            kept.push(m);
                        } else {
                            probe.contradictory += 1;
                        }
                    }
                    members = kept;
                    for set in accepted_sets {
                        edits.merge(set);
                    }
                }
                for m in members {
                    let root = match_root(&m);
                    if !root.is_synthetic() {
                        claimed.push((root, m.witness_group));
                    }
                    if exports_needed {
                        let mut ex2 = ex.map(|e| (*e).clone()).unwrap_or_default();
                        let mut detached = Env::new();
                        for (k, v) in m.env.iter() {
                            let dv = match v {
                                // Positions crossing a rule boundary
                                // capture their line/col *now*, against
                                // the text this rule matched: later
                                // rules may rewrite the text and shift
                                // the byte offsets out from under the
                                // span. A position inherited
                                // already-resolved keeps its original
                                // (bind-time) coordinates.
                                Value::Pos {
                                    file: pf,
                                    span,
                                    resolved: None,
                                } => {
                                    let r = version.resolver();
                                    let (line, col) = r.line_col(span.start);
                                    let (end_line, end_col) = r.line_col(span.end);
                                    Value::Pos {
                                        file: pf.clone(),
                                        span: *span,
                                        resolved: Some(crate::env::ResolvedPos {
                                            line,
                                            col,
                                            end_line,
                                            end_col,
                                        }),
                                    }
                                }
                                v => v.detach(src),
                            };
                            detached.bind(k, dv);
                        }
                        if let Some(n) = &t.name {
                            ex2.absorb(n, &detached);
                        }
                        new_streams.push(ex2);
                    }
                    all_matches.push(m);
                }
            }
        }
        let streams_out = if exports_needed && !new_streams.is_empty() {
            Some(new_streams)
        } else {
            None
        };
        if let Some(fs) = &flow_search {
            // Flow route: per-anchor-attempt accounting accumulated
            // inside the search (across every seed environment).
            let p = fs.probe();
            probe.anchors += p.anchors.get();
            probe.gap_kills += p.gap_kills.get();
            probe.binding_kills += p.binding_kills.get();
        }
        Ok((all_matches, streams_out, edits, probe))
    }
}

/// Whether an overlapping earlier claim blocks match `m`. Sibling
/// witnesses forked from one CFG anchor attempt deliberately share
/// source territory (the common anchors); matches with the same
/// non-zero witness group never block each other — each rewrites its
/// own per-path sites.
fn claims_conflict(claimed: &[(Span, u32)], root: Span, m: &MatchState) -> bool {
    claimed
        .iter()
        .any(|&(c, g)| overlaps(c, root) && !(m.witness_group != 0 && g == m.witness_group))
}

/// Evaluate a dependency expression against the matched-rule set.
fn deps_ok(dep: Option<&DepExpr>, matched: &HashSet<String>) -> bool {
    match dep {
        None => true,
        Some(DepExpr::Rule(n)) => matched.contains(n),
        Some(DepExpr::Not(n)) => !matched.contains(n),
        Some(DepExpr::And(parts)) => parts.iter().all(|p| deps_ok(Some(p), matched)),
        Some(DepExpr::Or(parts)) => parts.iter().any(|p| deps_ok(Some(p), matched)),
    }
}

/// Root source span of a match (merge of all pair spans).
fn match_root(m: &MatchState) -> Span {
    m.pairs
        .iter()
        .filter(|p| !p.src.is_synthetic() && !p.src.is_empty())
        .fold(Span::SYNTHETIC, |acc, p| acc.merge(p.src))
}

fn overlaps(a: Span, b: Span) -> bool {
    a.start < b.end && b.start < a.end
}

/// Find all matches of a pattern in a translation unit, starting from a
/// seed environment.
pub fn find_matches(
    ctx: &MatchCtx,
    pattern: &Pattern,
    tu: &TranslationUnit,
    seed: &Env,
) -> Vec<MatchState> {
    find_matches_in(ctx, pattern, tu, seed, None)
}

/// [`find_matches`] over a subset of the unit's leaf items: with
/// `Some(only)` (ascending numbers in [`visit::walk_items`] order), an
/// expression pattern walks only those items' expressions, and a
/// statement pattern only those functions' block windows and nested
/// statements. The top-level pseudo-statement dual and item patterns
/// always see the whole unit.
///
/// The result equals the unrestricted walk whenever `only` holds every
/// item that can contain a match — what [`FileContext::anchor_items`]
/// returns for the rule's prefilter atoms.
pub(crate) fn find_matches_in(
    ctx: &MatchCtx,
    pattern: &Pattern,
    tu: &TranslationUnit,
    seed: &Env,
    only: Option<&[u32]>,
) -> Vec<MatchState> {
    let visited = || {
        let mut items: Vec<&Item> = Vec::new();
        visit::walk_items(tu, &mut |it| items.push(it));
        match only {
            Some(only) => only.iter().map(|&i| items[i as usize]).collect(),
            None => items,
        }
    };
    let mut out = Vec::new();
    match pattern {
        Pattern::Expr(pat) => {
            for it in visited() {
                visit::item_exprs(it, &mut |e| {
                    let mut st = MatchState {
                        env: seed.clone(),
                        ..Default::default()
                    };
                    if matcher::match_expr(ctx, pat, e, &mut st) {
                        // Record the root pair for the rewriter.
                        st.pairs.push(crate::matcher::Pair {
                            pat: pat.span(),
                            src: e.span(),
                            kind: crate::matcher::PairKind::Expr,
                        });
                        out.push(st);
                    }
                });
            }
        }
        Pattern::Stmts(pats) => {
            // Match inside every block of every visited function.
            let fns: Vec<&FunctionDef> = visited()
                .into_iter()
                .filter_map(|it| match it {
                    Item::Function(f) => Some(f),
                    _ => None,
                })
                .collect();
            let mut blocks: Vec<&Block> = fns.iter().map(|f| &f.body).collect();
            let mut nested: Vec<&Block> = Vec::new();
            for b in &blocks {
                for s in &b.stmts {
                    visit::walk_stmt(s, &mut |st| {
                        if let Stmt::Block(inner) = st {
                            nested.push(inner);
                        }
                    });
                }
            }
            blocks.extend(nested);
            for block in blocks {
                collect_seq_matches(ctx, pats, &block.stmts, block.span, seed, &mut out);
            }
            // Single-statement patterns also match at nested
            // sub-statement positions (unbraced `if`/loop branches),
            // which block-list windows never visit.
            if pats.len() == 1 && !matches!(pats[0], Stmt::Dots { .. } | Stmt::MetaStmtList { .. })
            {
                let mut nested_stmts: Vec<&Stmt> = Vec::new();
                for f in &fns {
                    for s in &f.body.stmts {
                        visit::walk_stmt(s, &mut |st| {
                            if !matches!(st, Stmt::Block(_)) {
                                nested_stmts.push(st);
                            }
                        });
                    }
                }
                for s in nested_stmts {
                    let mut st = MatchState {
                        env: seed.clone(),
                        ..Default::default()
                    };
                    if matcher::match_stmt(ctx, &pats[0], s, &mut st) {
                        out.push(st);
                    }
                }
            }
            // Dual: directive/declaration-only patterns also match the
            // top level (the include-insertion and API-translation rules
            // need this).
            let only_toplevel_shapes = pats
                .iter()
                .all(|p| matches!(p, Stmt::Directive(_) | Stmt::Decl(_) | Stmt::Dots { .. }));
            if only_toplevel_shapes {
                let pseudo: Vec<Stmt> = tu
                    .items
                    .iter()
                    .map(|it| match it {
                        Item::Directive(d) => Stmt::Directive(d.clone()),
                        Item::Decl(d) => Stmt::Decl(d.clone()),
                        other => Stmt::Empty { span: other.span() },
                    })
                    .collect();
                collect_seq_matches(ctx, pats, &pseudo, tu.span, seed, &mut out);
            }
        }
        Pattern::Items(pats) => {
            collect_item_matches(ctx, pats, &tu.items, seed, &mut out);
            // Recurse into namespaces / extern blocks.
            fn rec(
                ctx: &MatchCtx,
                pats: &[Item],
                items: &[Item],
                seed: &Env,
                out: &mut Vec<MatchState>,
            ) {
                for it in items {
                    match it {
                        Item::Namespace { items, .. } | Item::ExternBlock { items, .. } => {
                            collect_item_matches(ctx, pats, items, seed, out);
                            rec(ctx, pats, items, seed, out);
                        }
                        _ => {}
                    }
                }
            }
            rec(ctx, pats, &tu.items, seed, &mut out);
        }
    }
    out
}

pub(crate) fn collect_seq_matches(
    ctx: &MatchCtx,
    pats: &[Stmt],
    srcs: &[Stmt],
    enclosing: Span,
    seed: &Env,
    out: &mut Vec<MatchState>,
) {
    let leading_dots = matches!(pats.first(), Some(Stmt::Dots { .. }));
    let starts: Vec<usize> = if leading_dots {
        vec![0]
    } else {
        (0..srcs.len().max(1)).collect()
    };
    for start in starts {
        if start > srcs.len() {
            break;
        }
        let mut st = MatchState {
            env: seed.clone(),
            ..Default::default()
        };
        if matcher::match_stmt_seq(ctx, pats, &srcs[start..], false, enclosing, &mut st) {
            out.push(st);
        }
    }
}

fn collect_item_matches(
    ctx: &MatchCtx,
    pats: &[Item],
    items: &[Item],
    seed: &Env,
    out: &mut Vec<MatchState>,
) {
    if pats.is_empty() {
        return;
    }
    for start in 0..items.len() {
        if start + pats.len() > items.len() {
            break;
        }
        let mut st = MatchState {
            env: seed.clone(),
            ..Default::default()
        };
        let mut ok = true;
        for (pi, p) in pats.iter().enumerate() {
            if !matcher::match_item(ctx, p, &items[start + pi], &mut st) {
                ok = false;
                break;
            }
        }
        if ok {
            out.push(st);
        }
    }
}
