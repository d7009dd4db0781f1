//! `spatch` — command-line front end for the semantic-patch engine,
//! mirroring Coccinelle's `spatch` usage:
//!
//! ```text
//! spatch --sp-file patch.cocci file1.c src/ ...
//!
//! Options:
//!   --sp-file <FILE>    semantic patch to apply (required)
//!   --mode <M>          `patch` (rewrite) or `report` (findings only);
//!                       auto-detected: a transformation-free patch (no
//!                       `-`/`+` lines) selects report mode
//!   --format <F>        report-mode output: `text` (grep-style
//!                       `file:line:col: rule: message`), `json` (the
//!                       apply report with embedded findings), or
//!                       `sarif` (SARIF 2.1.0 for CI ingestion)
//!   --in-place          rewrite files on disk instead of printing a diff
//!   -o <FILE>           write the single patched file here
//!   -j, --jobs <N>      worker threads (default: all cores)
//!   --report <FILE>     write a machine-readable JSON apply report
//!   --resume <FILE>     skip files whose content hash is unchanged
//!                       since this previous report (incremental re-apply)
//!   --timeout-ms <N>    per-file time budget; over-budget files are
//!                       recorded with a `timeout` status
//!   --ignore <PAT>      extra .gitignore-style exclusion (repeatable)
//!   --no-prefilter      disable the literal-atom pre-scan
//!   --no-flow           tree-sequence dots instead of CFG path matching
//!   --trace-out <FILE>  write a Chrome trace-event JSON profile of the
//!                       run (open in Perfetto / about:tracing)
//!   --stats             print per-phase/per-rule aggregates, the match
//!                       funnel, slowest files, and pool utilization to
//!                       stderr
//!   --explain[=GLOB[:RULE]]
//!                       trace per-attempt kill stages: annotate per-file
//!                       output and embed an `explain` block in the JSON
//!                       report, optionally filtered by file glob and
//!                       rule id
//!   --quiet             suppress per-file match reports
//! ```
//!
//! Targets may be files **or directories**: directories are walked
//! recursively (C/C++/CUDA extensions, honouring each root's
//! `.gitignore` plus `--ignore` patterns) and streamed through the
//! engine in bounded-memory batches — a GADGET-scale tree is one
//! command. Without `--in-place`/`-o`, a unified diff of every changed
//! file is printed to stdout — the traditional spatch workflow of
//! reviewing the change before enacting it.
//!
//! **Scan mode** (`spatch scan --rules <dir> <targets...>`) lints a
//! corpus with a whole directory of rules in one pass: every `*.cocci`
//! file is compiled once, each target file is parsed once however many
//! rules survive the merged prefilter, and findings merge into one
//! report (text/JSON/SARIF) attributed per rule id. Scan never writes
//! files. `--resume`, `-j`, `--ignore`, `--timeout-ms`,
//! `--no-prefilter`, `--no-flow`, `--report`, and `--format` behave as
//! in patch/report mode.
//!
//! **Lint mode** (`spatch lint <patch.cocci|rules-dir>`) statically
//! analyses the *rules themselves* (`cocci-lint`): unused or unbindable
//! metavariables, unsatisfiable `=~` constraints, bad `depends on`
//! edges, dead disjunction branches, prefilter-invisible rules,
//! unroutable quantified dots, duplicate rules. Diagnostics print as
//! text/JSON/SARIF; per-class levels move with `--deny/--warn/--allow
//! <ID>`. Exit 0 when clean (warnings allowed), 1 on deny-level
//! findings, 2 when the rules cannot be loaded at all. Scan and apply
//! run the same analysis at load time — warnings go to stderr and
//! deny-level findings refuse the run before the corpus walk
//! (`--no-lint` skips it); surviving diagnostics land in the JSON
//! report's `lints` block.

mod diff;
mod telemetry;

use cocci_core::corpus::{apply_to_corpus_resumed, CorpusOptions, WalkSource};
use cocci_core::explain::RuleAttempt;
use cocci_core::scan::scan_corpus;
use cocci_core::{ApplyReport, CompiledRuleSet, ExplainConfig, FileStatus, RunMetrics, SarifRule};
use cocci_lint::{
    has_deny, lint_duplicates, lint_patch, lint_ruleset, Lint, LintConfig, LintLevel,
};
use cocci_smpl::{parse_semantic_patch, SemanticPatch};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

/// Run mode: rewrite matches or report them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Apply edits (the traditional spatch behaviour).
    Patch,
    /// Emit findings; never touch a file.
    Report,
}

/// Report-mode output format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    /// Grep-style `file:line:col: rule: message` lines.
    Text,
    /// The apply report JSON with embedded findings.
    Json,
    /// SARIF 2.1.0.
    Sarif,
}

#[derive(Default)]
struct Args {
    /// `spatch scan ...` — rule-collection scan mode.
    scan: bool,
    /// `spatch lint ...` — rule static-analysis mode.
    lint: bool,
    /// Skip the load-time rule lint in scan/apply.
    no_lint: bool,
    /// `--deny/--warn/--allow <ID>` overrides, in flag order.
    lint_overrides: Vec<(String, LintLevel)>,
    /// Scan mode's `--rules <dir>`.
    rules: Option<PathBuf>,
    sp_file: Option<PathBuf>,
    targets: Vec<PathBuf>,
    in_place: bool,
    output: Option<PathBuf>,
    threads: usize,
    quiet: bool,
    report: Option<PathBuf>,
    resume: Option<PathBuf>,
    timeout_ms: Option<u64>,
    ignore: Vec<String>,
    no_prefilter: bool,
    no_flow: bool,
    mode: Option<Mode>,
    format: Option<Format>,
    /// Chrome trace-event JSON destination (enables tracing).
    trace_out: Option<PathBuf>,
    /// Print the aggregate stats table (enables tracing).
    stats: bool,
    /// `--explain[=FILE_GLOB[:RULE_ID]]`: trace per-attempt kill stages
    /// (empty string = every attempt). Enables tracing.
    explain: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: spatch --sp-file <patch.cocci> [--mode patch|report] [--format text|json|sarif] \
         [--in-place] [-o FILE] [-j N] [--report FILE] \
         [--resume FILE] [--timeout-ms N] [--ignore PAT]... [--no-prefilter] [--no-flow] \
         [--trace-out FILE] [--stats] [--explain[=GLOB[:RULE]]] [--quiet] <files-or-dirs...>\n\
         \x20      spatch scan --rules <dir> [--format text|json|sarif] [-j N] [--report FILE] \
         [--resume FILE] [--timeout-ms N] [--ignore PAT]... [--no-prefilter] [--no-flow] \
         [--no-lint] [--deny ID]... [--warn ID]... [--allow ID]... \
         [--trace-out FILE] [--stats] [--explain[=GLOB[:RULE]]] [--quiet] <files-or-dirs...>\n\
         \x20      spatch lint [--format text|json|sarif] [--deny ID]... [--warn ID]... \
         [--allow ID]... [--stats] [--quiet] <patch.cocci|rules-dir>"
    );
    std::process::exit(2);
}

/// Build the lint enforcement config from `--deny/--warn/--allow` flags.
fn lint_config(args: &Args) -> Result<LintConfig, ExitCode> {
    let mut cfg = LintConfig::default();
    for (key, level) in &args.lint_overrides {
        if let Err(e) = cfg.set(key, *level) {
            eprintln!("spatch: {e}");
            return Err(ExitCode::from(2));
        }
    }
    Ok(cfg)
}

fn parse_args() -> Args {
    let mut a = Args::default();
    let mut it = std::env::args().skip(1).peekable();
    match it.peek().map(String::as_str) {
        Some("scan") => {
            a.scan = true;
            it.next();
        }
        Some("lint") => {
            a.lint = true;
            it.next();
        }
        _ => {}
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--rules" if a.scan => {
                a.rules = Some(PathBuf::from(it.next().unwrap_or_else(|| usage())))
            }
            "--sp-file" if !a.scan && !a.lint => {
                a.sp_file = Some(PathBuf::from(it.next().unwrap_or_else(|| usage())))
            }
            "--deny" => a
                .lint_overrides
                .push((it.next().unwrap_or_else(|| usage()), LintLevel::Deny)),
            "--warn" => a
                .lint_overrides
                .push((it.next().unwrap_or_else(|| usage()), LintLevel::Warn)),
            "--allow" => a
                .lint_overrides
                .push((it.next().unwrap_or_else(|| usage()), LintLevel::Allow)),
            "--no-lint" if !a.lint => a.no_lint = true,
            "--mode" if !a.scan && !a.lint => {
                a.mode = Some(match it.next().as_deref() {
                    Some("patch") => Mode::Patch,
                    Some("report") => Mode::Report,
                    other => {
                        eprintln!("spatch: bad --mode {other:?} (expected patch|report)");
                        usage();
                    }
                })
            }
            "--format" => {
                a.format = Some(match it.next().as_deref() {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    Some("sarif") => Format::Sarif,
                    other => {
                        eprintln!("spatch: bad --format {other:?} (expected text|json|sarif)");
                        usage();
                    }
                })
            }
            "--in-place" if !a.scan && !a.lint => a.in_place = true,
            "-o" if !a.scan && !a.lint => {
                a.output = Some(PathBuf::from(it.next().unwrap_or_else(|| usage())))
            }
            "-j" | "--jobs" => {
                a.threads = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--report" => a.report = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--resume" => a.resume = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--timeout-ms" => {
                a.timeout_ms = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--ignore" => a.ignore.push(it.next().unwrap_or_else(|| usage())),
            "--no-prefilter" => a.no_prefilter = true,
            "--no-flow" => a.no_flow = true,
            "--trace-out" => {
                a.trace_out = Some(PathBuf::from(it.next().unwrap_or_else(|| usage())))
            }
            "--stats" => a.stats = true,
            "--explain" if !a.lint => a.explain = Some(String::new()),
            other if other.starts_with("--explain=") && !a.lint => {
                a.explain = Some(other["--explain=".len()..].to_string())
            }
            "--quiet" => a.quiet = true,
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => {
                eprintln!("unknown option: {other}");
                usage();
            }
            other => a.targets.push(PathBuf::from(other)),
        }
    }
    if a.scan {
        if a.rules.is_none() {
            eprintln!("spatch: scan mode requires --rules <dir>");
            usage();
        }
    } else if a.lint {
        if a.targets.len() != 1 {
            eprintln!("spatch: lint mode takes exactly one patch file or rules directory");
            usage();
        }
    } else if a.sp_file.is_none() {
        usage();
    }
    if a.targets.is_empty() {
        usage();
    }
    // `--ignore` repeated with the identical pattern used to stack the
    // duplicate into the walker's pattern list (and re-evaluate it per
    // path); exact duplicates collapse, first occurrence wins.
    let mut seen = std::collections::HashSet::new();
    a.ignore.retain(|p| seen.insert(p.clone()));
    a
}

/// Load `--resume`'s previous report, if one was given, refusing one
/// produced by a different patch / rule set (`expected_hash` mismatch):
/// skipping "unchanged" files is only sound against the very same rules.
fn load_resume(
    args: &Args,
    expected_hash: u64,
    what: &str,
) -> Result<Option<ApplyReport>, ExitCode> {
    let Some(path) = &args.resume else {
        return Ok(None);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("spatch: cannot read resume report {}: {e}", path.display());
            return Err(ExitCode::from(2));
        }
    };
    let r = match ApplyReport::from_json(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("spatch: cannot parse resume report {}: {e}", path.display());
            return Err(ExitCode::from(2));
        }
    };
    if r.patch_hash != expected_hash {
        // A report without a hash (older spatch) cannot vouch for any
        // rules either — refuse rather than silently skip files the
        // current rules have never seen.
        eprintln!(
            "spatch: {} was not produced by this {what} ({}); refusing to resume from it",
            path.display(),
            if r.patch.is_empty() {
                format!("unknown {what}")
            } else {
                r.patch.clone()
            }
        );
        return Err(ExitCode::from(2));
    }
    Ok(Some(r))
}

/// Lint the rules at load time, before the corpus is touched (skipped
/// under `--no-lint`). Deny lines always go to stderr, warn lines unless
/// `--quiet`; deny-level findings refuse the run.
fn load_lints(
    args: &Args,
    path: &std::path::Path,
    what: &str,
    lint: impl FnOnce(&LintConfig) -> Vec<Lint>,
) -> Result<Vec<Lint>, ExitCode> {
    if args.no_lint {
        return Ok(Vec::new());
    }
    let lints = lint(&lint_config(args)?);
    for l in &lints {
        if l.level == LintLevel::Deny || !args.quiet {
            eprintln!("spatch: lint [{}]: {}", l.level, l.finding.text_line());
        }
    }
    if has_deny(&lints) {
        eprintln!(
            "spatch: {}: deny-level lint findings; fix the {what} or pass --no-lint",
            path.display()
        );
        return Err(ExitCode::from(2));
    }
    Ok(lints)
}

/// Per-file progress shared by the scan and apply sinks: the heartbeat
/// and the `--explain` stderr annotation.
struct Progress {
    heartbeat: telemetry::Heartbeat,
    explain: Option<Arc<ExplainConfig>>,
    quiet: bool,
}

impl Progress {
    /// Count one finished file and, under `--explain`, print its traced
    /// attempts as `rule [stage] detail`.
    fn file(&mut self, name: &str, findings: usize, attempts: &[RuleAttempt]) {
        self.heartbeat.tick(findings);
        let Some(cfg) = self.explain.as_deref().filter(|_| !self.quiet) else {
            return;
        };
        for a in attempts.iter().filter(|a| cfg.matches(name, &a.rule)) {
            match &a.detail {
                Some(d) => eprintln!("spatch: explain: {name}: {} [{}] {d}", a.rule, a.stage),
                None => eprintln!("spatch: explain: {name}: {} [{}]", a.rule, a.stage),
            }
        }
    }
}

/// Start a corpus run: parse `--explain`, switch telemetry on, discover
/// the targets, and build the driver options and the progress display.
fn start_run(args: &Args) -> (WalkSource, CorpusOptions, Progress) {
    let explain = args
        .explain
        .as_deref()
        .map(|spec| Arc::new(ExplainConfig::parse(spec)));
    telemetry::init(args.trace_out.as_deref(), args.stats, explain.is_some());
    let source = WalkSource::discover(&args.targets, &args.ignore);
    let progress = Progress {
        heartbeat: telemetry::Heartbeat::new(source.remaining(), args.quiet),
        explain: explain.clone(),
        quiet: args.quiet,
    };
    let opts = CorpusOptions {
        threads: args.threads,
        no_prefilter: args.no_prefilter,
        no_flow: args.no_flow,
        timeout_ms: args.timeout_ms,
        explain,
        ..Default::default()
    };
    (source, opts, progress)
}

/// The post-run tail shared by scan and apply: the trace file, `--stats`,
/// one stderr line per failed or timed-out file, the resume note, and
/// the `--report` write. Returns the failure count.
fn finish_run(args: &Args, report: &ApplyReport) -> usize {
    if let Some(path) = &args.trace_out {
        if let Err(e) = telemetry::write_trace(path) {
            eprintln!("spatch: cannot write trace {}: {e}", path.display());
        } else if !args.quiet {
            eprintln!("spatch: trace written to {}", path.display());
        }
    }
    if args.stats {
        telemetry::print_stats(report);
    }
    // Every failed file — parse/rewrite/write errors and unreadable paths
    // alike — is in the report exactly once; report them from there.
    // Timeouts are warnings, not failures: the whole point of the budget
    // is that one pathological file must not sink the corpus run.
    let mut failures = 0usize;
    for f in &report.files {
        let fallback = match f.status {
            FileStatus::Error => {
                failures += 1;
                "unknown error"
            }
            FileStatus::Timeout => "timed out",
            _ => continue,
        };
        eprintln!(
            "spatch: {}: {}",
            f.name,
            f.error.as_deref().unwrap_or(fallback)
        );
    }
    if let (Some(path), true) = (&args.resume, report.resumed > 0 && !args.quiet) {
        eprintln!(
            "spatch: resumed: {} unchanged file(s) skipped via {}",
            report.resumed,
            path.display()
        );
    }
    if let Some(path) = &args.report {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("spatch: cannot write report {}: {e}", path.display());
            failures += 1;
        } else if !args.quiet {
            eprintln!("spatch: report written to {}", path.display());
        }
    }
    failures
}

/// Print the findings in `--format` (text by default): grep-style lines,
/// the whole report as JSON (findings embedded), or the SARIF document
/// that `sarif` renders.
fn print_findings(args: &Args, report: &ApplyReport, sarif: impl FnOnce() -> String) {
    match args.format.unwrap_or(Format::Text) {
        Format::Text => {
            for fd in report.files.iter().flat_map(|f| &f.findings) {
                println!("{}", fd.text_line());
            }
        }
        Format::Json => print!("{}", report.to_json()),
        Format::Sarif => print!("{}", sarif()),
    }
}

fn exit_code(failures: usize) -> ExitCode {
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `spatch lint <patch.cocci|rules-dir>`: static analysis of the rules
/// themselves — nothing in the corpus is touched. Exit 0 clean, 1 on
/// deny-level findings, 2 when the rules cannot be loaded.
fn run_lint(args: &Args) -> ExitCode {
    let t0 = std::time::Instant::now();
    let target = &args.targets[0];
    let cfg = match lint_config(args) {
        Ok(c) => c,
        Err(code) => return code,
    };
    // Gather `(source, rule id, text)` triples: one per `*.cocci` file
    // for a directory (validating each metadata header exactly as scan's
    // loader would), or the single file itself.
    let mut rule_files: Vec<PathBuf> = Vec::new();
    if target.is_dir() {
        match std::fs::read_dir(target) {
            Ok(rd) => {
                for entry in rd.filter_map(|e| e.ok()) {
                    let p = entry.path();
                    if p.extension().is_some_and(|x| x == "cocci") {
                        rule_files.push(p);
                    }
                }
            }
            Err(e) => {
                eprintln!("spatch: cannot read {}: {e}", target.display());
                return ExitCode::from(2);
            }
        }
        rule_files.sort();
        if rule_files.is_empty() {
            eprintln!("spatch: {}: no .cocci rule files", target.display());
            return ExitCode::from(2);
        }
    } else {
        rule_files.push(target.clone());
    }
    let mut sources: Vec<(String, String, String)> = Vec::new();
    for p in &rule_files {
        let text = match std::fs::read_to_string(p) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("spatch: cannot read {}: {e}", p.display());
                return ExitCode::from(2);
            }
        };
        let stem = p
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("rule")
            .to_string();
        let meta = match cocci_core::parse_rule_metadata(&text, &stem) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("spatch: {}: {e}", p.display());
                return ExitCode::from(2);
            }
        };
        sources.push((p.display().to_string(), meta.id, text));
    }
    let mut patches: Vec<SemanticPatch> = Vec::new();
    for (src, _, text) in &sources {
        match parse_semantic_patch(text) {
            Ok(p) => patches.push(p),
            Err(e) => {
                eprintln!("spatch: {src}: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let mut lints: Vec<Lint> = Vec::new();
    for ((src, _, text), patch) in sources.iter().zip(&patches) {
        lints.extend(lint_patch(patch, src, Some(text), &cfg));
    }
    let entries: Vec<(&str, &str, &SemanticPatch)> = sources
        .iter()
        .zip(&patches)
        .map(|((src, id, _), p)| (id.as_str(), src.as_str(), p))
        .collect();
    lints.extend(lint_duplicates(&entries, &cfg));

    let denies = lints.iter().filter(|l| l.level == LintLevel::Deny).count();
    let warns = lints.len() - denies;
    // The lint metrics block: per-class finding counts plus how long
    // the whole analysis took — CI's `lint_overhead_frac` gate reads
    // the wall-clock from here instead of timing the process.
    let total_seconds = t0.elapsed().as_secs_f64();
    let mut metrics = RunMetrics::default();
    metrics
        .counters
        .insert("lint_rule_files".to_string(), sources.len() as u64);
    metrics
        .counters
        .insert("lint_findings".to_string(), lints.len() as u64);
    for l in &lints {
        *metrics
            .counters
            .entry(format!("lint_{}", l.finding.rule))
            .or_insert(0) += 1;
    }
    match args.format.unwrap_or(Format::Text) {
        Format::Text => {
            for l in &lints {
                println!("{}", l.finding.text_line());
            }
        }
        Format::Json | Format::Sarif => {
            // Reuse the apply-report shape: a lint run is a corpus run
            // that never walked any files, carrying only the `lints`
            // block (and its metrics) — so downstream JSON/SARIF
            // consumers need nothing new.
            let report = ApplyReport {
                patch: target.display().to_string(),
                patch_hash: 0,
                threads: 0,
                prefilter: false,
                resumed: 0,
                total_seconds,
                metrics: Some(metrics.clone()),
                lints: lints.iter().map(|l| l.finding.clone()).collect(),
                explain: None,
                files: Vec::new(),
            };
            if args.format == Some(Format::Json) {
                print!("{}", report.to_json());
            } else {
                print!(
                    "{}",
                    cocci_core::to_sarif_with(&report, &cocci_lint::sarif_rules(&cfg))
                );
            }
        }
    }
    if args.stats {
        eprintln!("spatch lint stats:");
        for (name, v) in &metrics.counters {
            eprintln!("  counter {name}: {v}");
        }
        eprintln!("  wall ms={:.3}", total_seconds * 1e3);
    }
    if !args.quiet {
        eprintln!(
            "spatch: lint: {} finding(s) ({denies} deny, {warns} warn) across {} rule file(s)",
            lints.len(),
            sources.len()
        );
    }
    if denies > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `spatch scan --rules <dir>`: N rules, one parse per file.
fn run_scan(args: &Args) -> ExitCode {
    let rules_dir = args.rules.as_ref().expect("validated in parse_args");
    let set = match CompiledRuleSet::load_dir(rules_dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("spatch: {e}");
            return ExitCode::from(2);
        }
    };
    // A rule that can never match (or never bind) should fail here, not
    // hours into a walk.
    let lints = match load_lints(args, rules_dir, "rules", |cfg| lint_ruleset(&set, cfg)) {
        Ok(l) => l,
        Err(code) => return code,
    };
    let previous = match load_resume(args, set.hash, "rule set") {
        Ok(p) => p,
        Err(code) => return code,
    };
    let (mut source, opts, mut progress) = start_run(args);
    let quiet = args.quiet;
    let run = scan_corpus(
        &set,
        &mut source,
        &opts,
        previous.as_ref(),
        |name, _original, outcome| {
            progress.file(name, outcome.findings.len(), &outcome.attempts);
            if quiet || outcome.error.is_some() {
                return; // errors are reported once, from the report below
            }
            let ran = outcome.rules.len();
            let pruned = outcome.rules_pruned;
            if outcome.findings.is_empty() && outcome.suppressed == 0 {
                eprintln!("spatch: {name}: no findings ({ran} rule(s) ran, {pruned} pruned)");
            } else {
                eprintln!(
                    "spatch: {name}: {} finding(s), {} suppressed ({ran} rule(s) ran, {pruned} pruned)",
                    outcome.findings.len(),
                    outcome.suppressed
                );
            }
        },
    );
    progress.heartbeat.finish();
    let mut report = match run {
        Ok(r) => r,
        Err(e) => {
            // Run-level refusal (e.g. --no-flow vs `when exists` rules).
            eprintln!("spatch: {}: {e}", rules_dir.display());
            return ExitCode::from(2);
        }
    };
    report.patch = rules_dir.display().to_string();
    report.lints = lints.iter().map(|l| l.finding.clone()).collect();
    let failures = finish_run(args, &report);

    print_findings(args, &report, || {
        // Every loaded rule goes into the tool section, severities and
        // message overrides included — findingless rules keep the
        // output shape stable run over run.
        let rules: Vec<SarifRule> = set
            .rules
            .iter()
            .map(|r| SarifRule {
                id: r.meta.id.clone(),
                level: r.meta.severity.as_str(),
                description: r
                    .meta
                    .message
                    .clone()
                    .unwrap_or_else(|| format!("semantic-patch rule {}", r.meta.id)),
            })
            .collect();
        cocci_core::to_sarif_with(&report, &rules)
    });
    if !quiet {
        let total_findings: usize = report.files.iter().map(|f| f.findings.len()).sum();
        let suppressed: usize = report.files.iter().map(|f| f.suppressed).sum();
        eprintln!(
            "spatch: {total_findings} finding(s), {suppressed} suppressed, across {} file(s) with {} rule(s), {failures} failure(s) ({})",
            report.files.len(),
            set.len(),
            report.summary()
        );
    }
    exit_code(failures)
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.scan {
        return run_scan(&args);
    }
    if args.lint {
        return run_lint(&args);
    }
    let sp_file = args.sp_file.as_ref().expect("validated in parse_args");
    let patch_text = match std::fs::read_to_string(sp_file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("spatch: cannot read {}: {e}", sp_file.display());
            return ExitCode::from(2);
        }
    };
    let patch = match parse_semantic_patch(&patch_text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("spatch: {}: {e}", sp_file.display());
            return ExitCode::from(2);
        }
    };
    let patch_hash = cocci_core::content_hash(&patch_text);

    // Lint at load, before anything else runs: deny-level diagnostics
    // mean every match would fail (or never happen) — refuse up front.
    let source_name = sp_file.display().to_string();
    let lints = match load_lints(&args, sp_file, "patch", |cfg| {
        lint_patch(&patch, &source_name, Some(&patch_text), cfg)
    }) {
        Ok(l) => l,
        Err(code) => return code,
    };

    // Report mode: explicit `--mode report`, or auto-detected from a
    // transformation-free patch (pure-context bodies can only ever
    // produce findings).
    let mode = args.mode.unwrap_or(if patch.is_report_only() {
        Mode::Report
    } else {
        Mode::Patch
    });
    if mode == Mode::Report && !patch.is_report_only() {
        // A transforming patch rewrites the in-memory text between
        // rules (sequential semantics), so findings of later rules
        // would carry line/col of an intermediate text no file on disk
        // ever has. Report mode therefore requires a
        // transformation-free patch, as upstream Coccinelle does.
        eprintln!(
            "spatch: report mode needs a transformation-free patch \
             (this one has `-`/`+` lines; drop them or run in patch mode)"
        );
        return ExitCode::from(2);
    }
    if mode == Mode::Report && (args.in_place || args.output.is_some()) {
        eprintln!(
            "spatch: report mode emits findings, never rewrites; \
             --in-place / -o make no sense with it"
        );
        return ExitCode::from(2);
    }
    if args.format.is_some() && mode != Mode::Report {
        eprintln!("spatch: --format only applies to report mode (--mode report)");
        return ExitCode::from(2);
    }

    // `-o` holds exactly one output file; a directory walk (or several
    // targets) could produce several changed files that would silently
    // overwrite each other in it.
    if args.output.is_some() && (args.targets.len() > 1 || args.targets[0].is_dir()) {
        eprintln!(
            "spatch: -o takes a single input file; use --in-place (or diff mode) for \
             directories and multi-file runs"
        );
        return ExitCode::from(2);
    }

    // Incremental re-apply: load the previous run's report up front so a
    // bad path fails before any work happens.
    let previous = match load_resume(&args, patch_hash, "semantic patch") {
        Ok(p) => p,
        Err(code) => return code,
    };
    let (mut source, opts, mut progress) = start_run(&args);

    // The sink runs while each batch's text is still in memory: print the
    // diff / rewrite the file immediately, then let the text drop. Write
    // failures are collected so the report can be corrected afterwards
    // (the driver outcome says "changed", but the change never landed).
    let mut changed = 0usize;
    let mut write_errors: Vec<(String, String)> = Vec::new();
    let run = apply_to_corpus_resumed(
        &patch,
        &mut source,
        &opts,
        previous.as_ref(),
        |name, original, outcome| {
            progress.file(name, outcome.findings.len(), &outcome.attempts);
            if outcome.error.is_some() {
                return; // reported once from the report below
            }
            let Some(new_text) = &outcome.output else {
                if !args.quiet {
                    let what = if outcome.pruned {
                        "no match (pruned)"
                    } else if !outcome.findings.is_empty() {
                        "matched, findings recorded"
                    } else if outcome.matches > 0 {
                        "matched, no edits"
                    } else {
                        "no match"
                    };
                    eprintln!("spatch: {name}: {what}");
                }
                return;
            };
            if mode == Mode::Report {
                // A mixed patch's transform rules may still produce
                // edits in memory; report mode never surfaces them.
                return;
            }
            changed += 1;
            if args.in_place {
                if let Err(e) = std::fs::write(name, new_text) {
                    write_errors.push((name.to_string(), format!("cannot write: {e}")));
                    changed -= 1;
                } else if !args.quiet {
                    // Flow-routed rules report per-path witnesses too: a
                    // cross-branch binding that forked shows up once per
                    // rewritten path.
                    if outcome.witnesses > 0 {
                        eprintln!(
                            "spatch: {name}: rewritten ({} matches, {} witnesses)",
                            outcome.matches, outcome.witnesses
                        );
                    } else {
                        eprintln!("spatch: {name}: rewritten ({} matches)", outcome.matches);
                    }
                }
            } else if let Some(out) = &args.output {
                if let Err(e) = std::fs::write(out, new_text) {
                    write_errors.push((
                        name.to_string(),
                        format!("cannot write {}: {e}", out.display()),
                    ));
                    changed -= 1;
                }
            } else {
                print!("{}", diff::unified_diff(name, original, new_text, 3));
            }
        },
    );

    progress.heartbeat.finish();
    let mut report = match run {
        Ok(r) => r,
        Err(e) => {
            // Patch compile error: run-level, reported exactly once.
            eprintln!("spatch: {}: {e}", sp_file.display());
            return ExitCode::from(2);
        }
    };
    report.patch = sp_file.display().to_string();
    report.patch_hash = patch_hash;
    report.lints = lints.iter().map(|l| l.finding.clone()).collect();
    // A file whose rewrite failed to land is an error, not a change —
    // downgrade its report entry before anything consumes it.
    for (name, msg) in write_errors {
        if let Some(f) = report.files.iter_mut().find(|f| f.name == name) {
            f.status = FileStatus::Error;
            f.error = Some(msg);
        }
    }
    let failures = finish_run(&args, &report);

    // Report mode: the findings are the product. Resumed files kept
    // their findings in the report, so every format sees the full set
    // even on incremental runs.
    if mode == Mode::Report {
        print_findings(&args, &report, || cocci_core::to_sarif(&report));
    }
    if !args.quiet {
        if mode == Mode::Report {
            let total_findings: usize = report.files.iter().map(|f| f.findings.len()).sum();
            let suppressed: usize = report.files.iter().map(|f| f.suppressed).sum();
            let suppressed_note = if suppressed > 0 {
                format!(" ({suppressed} suppressed)")
            } else {
                String::new()
            };
            eprintln!(
                "spatch: {total_findings} finding(s){suppressed_note} across {} file(s), {failures} failure(s) ({})",
                report.files.len(),
                report.summary()
            );
        } else {
            eprintln!(
                "spatch: {changed}/{} file(s) transformed, {failures} failure(s) ({})",
                report.files.len(),
                report.summary()
            );
        }
    }
    exit_code(failures)
}
