//! The traced run (`--trace 1`): each engine layer timed in process by
//! wrapping its public entry point, on the same generated inputs the
//! binary sees. Spans (name, start, end, parent, file id) are kept in
//! memory and written as a Chrome trace when the run ends; a layer's
//! figure is the summed *self* time of its spans. The same per-file
//! calls also run without spans, and the difference is the tracing
//! overhead. End-to-end metrics never come from this run.

use crate::measure::Checker;
use crate::workload::{Prepared, CORPUS};
use crate::{json, median, Outcome};
use cocci_cast::parser::ParseOptions;
use cocci_cast::visit;
use cocci_core::corpus::{BatchOptions, FileSource, WalkSource};
use cocci_core::orchestrate::find_matches;
use cocci_core::{
    apply_batch_opts, rewrite, scan_batch, to_sarif, to_sarif_with, ApplyReport, CompiledPatch,
    CompiledRuleSet, EditSet, Env, ExecOptions, FileReport, FlowSearch, MatchCtx, Patcher,
    SarifRule,
};
use cocci_lint::{lint_patch, lint_ruleset, LintConfig};
use cocci_smpl::{parse_semantic_patch, Pattern, Rule};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span.
    parent: Option<usize>,
    /// Corpus file index, for spans of one file's work.
    file: Option<u32>,
}

/// In-memory span recorder. When off, `begin`/`end` record nothing.
struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, file: Option<u32>) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            file,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    fn end(&mut self) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("end matches a begin");
        self.spans[i].end_ns = self.now();
    }

    /// Run `f` inside a span.
    fn time<T>(&mut self, name: &'static str, file: Option<u32>, f: impl FnOnce() -> T) -> T {
        self.begin(name, file);
        let out = f();
        self.end();
        out
    }

    /// Summed self time (duration minus the time covered by child
    /// spans) per span name, over `spans[from..]`.
    fn self_ns(&self, from: usize) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans[from..] {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().skip(from) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(child[i]);
        }
        out
    }

    /// Chrome trace-event JSON of every span (one complete event each,
    /// with its parent and file id as arguments).
    fn chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \
                     \"args\": {{\"id\": {i}, \"parent\": {}, \"file\": {}}}}}",
                    json::quote(s.name),
                    s.start_ns as f64 / 1e3,
                    (s.end_ns - s.start_ns) as f64 / 1e3,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.file.map_or("null".to_string(), |f| f.to_string()),
                )
            })
            .collect();
        format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n"))
    }
}

/// What the workload runs: a rule set (scan) or one patch (apply).
enum Subject {
    Scan(CompiledRuleSet),
    Apply(Arc<CompiledPatch>),
}

impl Subject {
    /// The compiled patches a file may run, after the prefilter.
    fn survivors(&self, text: &str) -> (usize, Vec<Arc<CompiledPatch>>) {
        match self {
            Subject::Scan(set) => (
                set.len(),
                set.surviving_rules(text)
                    .into_iter()
                    .map(|i| Arc::clone(&set.rules[i].compiled))
                    .collect(),
            ),
            Subject::Apply(p) => (
                1,
                if p.may_match(text) {
                    vec![Arc::clone(p)]
                } else {
                    vec![]
                },
            ),
        }
    }
}

/// Work counts of one per-file pass.
#[derive(Debug, Clone, Default, PartialEq)]
struct Counts {
    prefilter_attempts: usize,
    survivors: usize,
    parse_calls: usize,
    parse_bytes: usize,
    parse_errors: usize,
    cfg_calls: usize,
    cfg_nodes: usize,
    tree_calls: usize,
    tree_matches: usize,
    tree_anchored: usize,
    flow_calls: usize,
    witnesses: usize,
    orchestrate_calls: usize,
    edits: usize,
}

/// Rules a layer can be called on directly: transform rules that
/// inherit nothing, so an empty environment is their whole seed.
fn standalone(p: &CompiledPatch) -> impl Iterator<Item = (usize, &cocci_smpl::TransformRule)> {
    p.patch
        .rules
        .iter()
        .enumerate()
        .filter_map(|(ri, r)| match r {
            Rule::Transform(t) if t.metavars.iter().all(|m| m.inherited_from.is_none()) => {
                Some((ri, t))
            }
            _ => None,
        })
}

/// One pass of every per-file layer over `files`: prefilter, parse,
/// CFG build, tree or flow matching and rewrite on the standalone
/// rules, then the whole orchestrated patch on the parsed context.
fn file_pass(subject: &Subject, files: &[(String, String)], tr: &mut Tracer) -> Counts {
    let mut c = Counts::default();
    for (fi, (name, text)) in files.iter().enumerate() {
        let id = Some(fi as u32);
        tr.begin("file", id);
        let (attempts, patches) = tr.time("prefilter", id, || subject.survivors(text));
        c.prefilter_attempts += attempts;
        c.survivors += patches.len();
        if patches.is_empty() {
            tr.end();
            continue;
        }
        let opts = ParseOptions {
            pattern: false,
            lang: patches[0].patch.lang,
        };
        let mut ctx = cocci_core::FileContext::new(name.as_str(), text.as_str());
        c.parse_calls += 1;
        c.parse_bytes += text.len();
        let tu = match tr.time("parse", id, || ctx.parse(opts)) {
            Ok(tu) => tu,
            Err(_) => {
                c.parse_errors += 1;
                tr.end();
                continue;
            }
        };
        // The route `Patcher` takes: CFG path matching for statement-dots
        // rules the compiler lowered, the tree matcher for the rest.
        let (mut flow_rules, mut tree_rules) = (Vec::new(), Vec::new());
        for p in &patches {
            for (ri, t) in standalone(p) {
                match (&p.rules[ri].flow, &t.body.pattern) {
                    (Some(fp), Pattern::Stmts(pats)) => flow_rules.push((p, ri, t, fp, pats)),
                    _ => tree_rules.push((p, ri, t)),
                }
            }
        }
        if !flow_rules.is_empty() {
            tr.time("cfg_build", id, || {
                visit::walk_functions(&tu, &mut |f| {
                    let before = ctx.cfg_builds();
                    let cfg = ctx.cfgs().get_or_build(f);
                    if ctx.cfg_builds() > before {
                        c.cfg_calls += 1;
                        c.cfg_nodes += cfg.map_or(0, |g| g.len());
                    }
                });
            });
            tr.time("flow_match", id, || {
                for (p, ri, t, fp, pats) in &flow_rules {
                    let mctx = MatchCtx {
                        file: name,
                        src: text,
                        decls: &t.metavars,
                        regexes: &p.rules[*ri].regexes,
                    };
                    let search = FlowSearch::with_cache(fp, pats, &tu, ctx.cfgs());
                    c.flow_calls += 1;
                    c.witnesses += search.find(&mctx, &Env::new()).len();
                }
            });
        }
        let mut found = Vec::new();
        if !tree_rules.is_empty() {
            tr.time("tree_match", id, || {
                for (p, ri, t) in &tree_rules {
                    let mctx = MatchCtx {
                        file: name,
                        src: text,
                        decls: &t.metavars,
                        regexes: &p.rules[*ri].regexes,
                    };
                    let ms = find_matches(&mctx, &t.body.pattern, &tu, &Env::new());
                    c.tree_calls += 1;
                    c.tree_matches += ms.len();
                    c.tree_anchored += usize::from(!ms.is_empty());
                    if !p.rules[*ri].report_only && !ms.is_empty() {
                        found.push((*t, ms));
                    }
                }
            });
        }
        if !found.is_empty() {
            tr.time("rewrite", id, || {
                for (t, ms) in &found {
                    let mut edits = EditSet::new();
                    for m in ms {
                        // An edit the rewriter refuses stays out of the
                        // count; the orchestrated run below reports it.
                        let _ = rewrite::emit_edits(&t.body, m, text, &mut edits);
                    }
                    c.edits += edits.len();
                }
            });
        }
        tr.time("orchestrate", id, || {
            for p in &patches {
                let mut patcher = Patcher::from_compiled(Arc::clone(p));
                let _ = patcher.apply_ctx(&mut ctx);
                c.orchestrate_calls += 1;
            }
        });
        tr.end();
    }
    c
}

/// Compile (and lint) the workload's rules or patch, as spatch's
/// start-up does.
fn load(prep: &Prepared, tr: &mut Tracer) -> Result<Subject, String> {
    if prep.workload.is_scan() {
        let dir = prep.dir.join("rules");
        let set = tr
            .time("compile", None, || CompiledRuleSet::load_dir(&dir))
            .map_err(|e| e.to_string())?;
        tr.time("lint", None, || lint_ruleset(&set, &LintConfig::default()));
        Ok(Subject::Scan(set))
    } else {
        let text = std::fs::read_to_string(prep.dir.join("patch.cocci"))
            .map_err(|e| format!("patch.cocci: {e}"))?;
        let (patch, compiled) = tr.time("compile", None, || {
            let patch = parse_semantic_patch(&text).map_err(|e| e.to_string())?;
            let compiled = CompiledPatch::compile(&patch).map_err(|e| e.to_string())?;
            Ok::<_, String>((patch, compiled))
        })?;
        tr.time("lint", None, || {
            lint_patch(&patch, "patch.cocci", Some(&text), &LintConfig::default())
        });
        Ok(Subject::Apply(Arc::new(compiled)))
    }
}

/// Walk the corpus and read every file, as the binary's producer does.
/// Names come back as spatch reports them (`corpus/...`).
fn walk(prep: &Prepared) -> Vec<(String, String)> {
    let mut src = WalkSource::discover(&[prep.dir.join(CORPUS)], &[]);
    let prefix = format!("{}/", prep.dir.display());
    let mut files = Vec::new();
    loop {
        let batch = src.next_batch(&BatchOptions::default());
        if batch.is_empty() {
            break;
        }
        files.extend(
            batch
                .into_iter()
                .map(|(n, t)| (n.strip_prefix(&prefix).unwrap_or(&n).to_string(), t)),
        );
    }
    files
}

/// The in-memory driver at `threads` workers; per-file reports come
/// back for the report layer.
fn drive(subject: &Subject, files: &[(String, String)], threads: usize) -> Vec<FileReport> {
    let opts = ExecOptions {
        threads,
        prefilter: true,
        flow: true,
        timeout_ms: None,
        explain: None,
    };
    match subject {
        Subject::Scan(set) => scan_batch(set, files, &opts)
            .iter()
            .map(|o| o.to_report())
            .collect(),
        Subject::Apply(p) => apply_batch_opts(p, files, &opts)
            .iter()
            .map(FileReport::from_outcome)
            .collect(),
    }
}

fn ns(d: std::time::Duration) -> f64 {
    d.as_nanos() as f64
}

/// Median of `n` runs of `f`, which reports nanoseconds.
fn median_of(n: usize, mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..n).map(|_| f()).collect::<Vec<_>>())
}

/// The traced run of `prep` for about `seconds`.
pub fn run(spatch: &Path, prep: &Prepared, seconds: f64) -> Result<Outcome, String> {
    let budget = seconds / 4.0;
    let mut tr = Tracer::new();
    let mut m: Vec<(&'static str, f64)> = Vec::new();

    // Set-up layer: compile and lint, as at spatch start-up.
    let mut subject = None;
    let mut setup = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let from = tr.spans.len();
        subject = Some(load(prep, &mut tr)?);
        let s = tr.self_ns(from);
        setup.0.push(s["compile"] as f64);
        setup.1.push(s["lint"] as f64);
    }
    let subject = subject.expect("loaded at least once");
    m.push(("compile.ns", median(&setup.0)));
    m.push(("lint.ns", median(&setup.1)));

    // Walk layer: discover and drain the source.
    let mut files = Vec::new();
    let walk_ns = median_of(3, || {
        let t = Instant::now();
        files = tr.time("walk", None, || walk(prep));
        ns(t.elapsed())
    });
    m.push(("walk.ns", walk_ns));
    m.push(("walk.files", files.len() as f64));
    m.push((
        "read.bytes",
        files.iter().map(|(_, t)| t.len()).sum::<usize>() as f64,
    ));

    // Per-file layers: untraced and traced passes alternate.
    let mark = tr.spans.len();
    let (mut plain, mut traced, mut per_name) = (Vec::new(), Vec::new(), Vec::new());
    let mut counts = Counts::default();
    let t0 = Instant::now();
    while traced.is_empty() || t0.elapsed().as_secs_f64() < budget {
        tr.on = false;
        let t = Instant::now();
        let c = file_pass(&subject, &files, &mut tr);
        plain.push(ns(t.elapsed()));
        tr.on = true;
        tr.spans.truncate(mark);
        let t = Instant::now();
        counts = file_pass(&subject, &files, &mut tr);
        traced.push(ns(t.elapsed()));
        per_name.push(tr.self_ns(mark));
        assert_eq!(c, counts, "passes over the same inputs do the same work");
    }
    let layer = |name: &str| {
        median(
            &per_name
                .iter()
                .map(|s| *s.get(name).unwrap_or(&0) as f64)
                .collect::<Vec<_>>(),
        )
    };
    let frac = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let parse_ns = layer("parse");
    m.extend([
        ("prefilter.ns", layer("prefilter")),
        ("prefilter.attempts", counts.prefilter_attempts as f64),
        ("prefilter.survivors", counts.survivors as f64),
        (
            "prefilter.survival_frac",
            frac(counts.survivors, counts.prefilter_attempts),
        ),
        ("parse.ns", parse_ns),
        ("parse.calls", counts.parse_calls as f64),
        (
            "parse.mb_per_s",
            if parse_ns > 0.0 {
                counts.parse_bytes as f64 / 1e6 / (parse_ns / 1e9)
            } else {
                0.0
            },
        ),
        ("parse.errors", counts.parse_errors as f64),
        ("cfg_build.ns", layer("cfg_build")),
        ("cfg_build.calls", counts.cfg_calls as f64),
        ("cfg_build.nodes", counts.cfg_nodes as f64),
        ("tree_match.ns", layer("tree_match")),
        ("tree_match.calls", counts.tree_calls as f64),
        ("tree_match.matches", counts.tree_matches as f64),
        (
            "tree_match.anchor_frac",
            frac(counts.tree_anchored, counts.tree_calls),
        ),
        ("flow_match.ns", layer("flow_match")),
        ("flow_match.calls", counts.flow_calls as f64),
        ("flow_match.witnesses", counts.witnesses as f64),
        ("orchestrate.ns", layer("orchestrate")),
        ("orchestrate.calls", counts.orchestrate_calls as f64),
        ("rewrite.ns", layer("rewrite")),
        ("rewrite.edits", counts.edits as f64),
    ]);
    // Adjacent passes pair up, so slow drift of the machine cancels.
    let overhead = median(
        &plain
            .iter()
            .zip(&traced)
            .map(|(p, t)| (t - p) / p)
            .collect::<Vec<_>>(),
    );

    // Driver / pool layer: the in-memory batch drivers at 1 and 2 threads.
    let (mut j1, mut j2) = (Vec::new(), Vec::new());
    let mut reports = Vec::new();
    let t0 = Instant::now();
    while j1.is_empty() || t0.elapsed().as_secs_f64() < budget {
        let t = Instant::now();
        reports = tr.time("driver.j1", None, || drive(&subject, &files, 1));
        j1.push(ns(t.elapsed()));
        let t = Instant::now();
        tr.time("driver.j2", None, || drive(&subject, &files, 2));
        j2.push(ns(t.elapsed()));
    }
    let (j1, j2) = (median(&j1), median(&j2));
    m.extend([
        ("driver.j1_ns", j1),
        ("driver.j2_ns", j2),
        ("driver.speedup_j2", j1 / j2),
        ("driver.parallel_eff", j1 / j2 / 2.0),
    ]);

    // Report layer: JSON report and SARIF of the `-j 1` batch outcomes.
    let report = ApplyReport {
        patch: if prep.workload.is_scan() {
            "rules"
        } else {
            "patch.cocci"
        }
        .to_string(),
        patch_hash: 0,
        threads: 1,
        prefilter: true,
        resumed: 0,
        total_seconds: j1 / 1e9,
        metrics: None,
        lints: Vec::new(),
        explain: None,
        files: reports,
    };
    let sarif_rules: Vec<SarifRule> = match &subject {
        Subject::Scan(set) => set
            .rules
            .iter()
            .map(|r| SarifRule {
                id: r.meta.id.clone(),
                level: r.meta.severity.as_str(),
                description: r.meta.message.clone().unwrap_or_else(|| r.meta.id.clone()),
            })
            .collect(),
        Subject::Apply(_) => Vec::new(),
    };
    let (mut report_bytes, mut sarif_bytes) = (0, 0);
    let report_ns = median_of(3, || {
        let t = Instant::now();
        report_bytes = tr.time("report", None, || report.to_json()).len();
        ns(t.elapsed())
    });
    let sarif_ns = median_of(3, || {
        let t = Instant::now();
        sarif_bytes = tr
            .time("sarif", None, || match &subject {
                Subject::Scan(_) => to_sarif_with(&report, &sarif_rules),
                Subject::Apply(_) => to_sarif(&report),
            })
            .len();
        ns(t.elapsed())
    });
    m.extend([
        ("report.ns", report_ns),
        ("report.bytes", report_bytes as f64),
        ("sarif.ns", sarif_ns),
        ("sarif.bytes", sarif_bytes as f64),
    ]);

    // The binary: one untimed `--stats` run for spatch's own readings,
    // then `-j 1` runs for the share no in-process layer accounts for.
    let mut checker = Checker::new(prep);
    let (stats_run, doc) = checker.invoke(spatch, 2, &["--stats"])?;
    let mut walls = Vec::new();
    let t0 = Instant::now();
    while walls.len() < 3 || t0.elapsed().as_secs_f64() < budget {
        walls.push(checker.invoke(spatch, 1, &[])?.0.wall_s);
    }
    let wall_j1 = median(&walls) * 1e9;
    m.push(("cli.unattributed_frac", (wall_j1 - j1) / wall_j1));
    m.push(("trace.overhead_frac", overhead));
    m.extend(self_report(doc.as_ref(), stats_run.wall_s));

    let trace_path = crate::work_root().join(format!(
        "{}.trace.json",
        prep.dir
            .file_name()
            .map_or("run".into(), |n| n.to_string_lossy())
    ));
    std::fs::write(&trace_path, tr.chrome_json())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    eprintln!(
        "e2ebench: {}: {} spans written to {}",
        prep.workload.name(),
        tr.spans.len(),
        trace_path.display()
    );
    // Every declared per-layer metric appears, in declaration order.
    let metrics = crate::PER_LAYER
        .iter()
        .map(|(name, _, _)| {
            let v = m.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            (
                *name,
                v.unwrap_or_else(|| panic!("metric {name} not measured")),
            )
        })
        .collect();
    Ok(Outcome {
        correct: checker.failed == 0,
        attempted: checker.attempted,
        failed: checker.failed,
        metrics,
    })
}

/// Engine phases spatch reports in its own `--stats` metrics block, and
/// the per-layer metric each is recorded as.
const SELF_PHASES: [(&str, &str); 9] = [
    ("walk", "selfreport.walk_ns"),
    ("prefilter", "selfreport.prefilter_ns"),
    ("parse", "selfreport.parse_ns"),
    ("cfg_build", "selfreport.cfg_build_ns"),
    ("tree_match", "selfreport.tree_match_ns"),
    ("flow_match", "selfreport.flow_match_ns"),
    ("rewrite", "selfreport.rewrite_ns"),
    ("render", "selfreport.render_ns"),
    ("report", "selfreport.report_ns"),
];

/// spatch's own `--stats` readings from its report's `metrics` block:
/// pool utilization as the program computes it (1 − idle share of the
/// workers' wall-clock budget) and per-phase nanoseconds.
fn self_report(doc: Option<&json::Value>, wall_s: f64) -> Vec<(&'static str, f64)> {
    let metrics = doc.and_then(|d| d.get("metrics"));
    let phase = |p: &str| {
        metrics
            .and_then(|m| m.get("phases"))
            .and_then(|ph| ph.get(p))
            .and_then(|x| x.get("ns"))
            .and_then(json::Value::as_f64)
            .unwrap_or(0.0)
    };
    let pool = metrics.and_then(|m| m.get("pool"));
    let pool_f = |k: &str| {
        pool.and_then(|p| p.get(k))
            .and_then(json::Value::as_f64)
            .unwrap_or(0.0)
    };
    let total_s = doc
        .and_then(|d| d.get("total_seconds"))
        .and_then(json::Value::as_f64)
        .unwrap_or(wall_s);
    let budget_ns = total_s * 1e9 * pool_f("workers").max(1.0);
    let mut out = vec![(
        "selfreport.pool_util",
        1.0 - (pool_f("idle_ns") / budget_ns).clamp(0.0, 1.0),
    )];
    for (p, name) in SELF_PHASES {
        out.push((name, phase(p)));
    }
    out
}
