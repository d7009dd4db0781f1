//! The three benchmark workloads: how each corpus and its rules are
//! generated from a seed, the `spatch` command line that runs them, and
//! the oracle that checks spatch's outputs.
//!
//! The oracle derives every expected result from the generated text
//! alone (call sites, function shapes, line numbers) — never from a
//! spatch run — so a wrong answer counts as failed files, not as a new
//! baseline.

use crate::json::{self, Value};
use cocci_workloads::gen::{self, CodebaseSpec, GeneratedFile};
use cocci_workloads::{corpus, CorpusTreeSpec, RuleMatrixSpec};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};

/// Rules in the `scan_matrix` rule directory.
pub const MATRIX_RULES: usize = 50;
/// Rules sharing one prefilter atom in `scan_matrix`.
pub const MATRIX_OVERLAP: usize = 5;

/// The statement-dots report rules of `flow_paths`: (rule id, text).
pub const FLOW_RULES: [(&str, &str); 3] = [
    (
        "acquire",
        "// spatch-rule: acquire\n@r@\nexpression e;\nposition p;\n@@\nacquire(e)@p;\n...\nrelease(e);\n",
    ),
    (
        "probe",
        "// spatch-rule: probe\n@r@\nexpression b;\nposition p;\n@@\nprobe_begin(b)@p;\n...\nprobe_end(b);\n",
    ),
    (
        "checkpoint",
        "// spatch-rule: checkpoint\n@r@\nexpression e;\nposition p;\n@@\ncheckpoint()@p;\n...\ncommit(e);\n",
    ),
];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `spatch scan` with 50 rule-matrix rules, SARIF on stdout.
    ScanMatrix,
    /// `spatch --sp-file` with the full CUDA→HIP migration, diff on stdout.
    ApplyCuda2Hip,
    /// `spatch scan` with three statement-dots rules over CFG-heavy code.
    FlowPaths,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ScanMatrix,
        Workload::ApplyCuda2Hip,
        Workload::FlowPaths,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanMatrix => "scan_matrix",
            Workload::ApplyCuda2Hip => "apply_cuda2hip",
            Workload::FlowPaths => "flow_paths",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Scan workloads load a rule directory; the apply workload a patch.
    pub fn is_scan(self) -> bool {
        self != Workload::ApplyCuda2Hip
    }
}

/// Corpus size. Every family uses `functions` functions per file.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Files per generator family (`scan_matrix` has one family,
    /// `flow_paths` three, the `apply_cuda2hip` tree six).
    pub files: usize,
    pub functions: usize,
    /// Outsized `scan_matrix` files, in a subdirectory walked last.
    pub outsized_files: usize,
    pub outsized_functions: usize,
}

impl Scale {
    /// The measured size: thousands of files per workload.
    pub const FULL: Scale = Scale {
        files: 3000,
        functions: 16,
        outsized_files: 4,
        outsized_functions: 2000,
    };

    /// A few files per family, for the benchmark's own tests.
    pub const TINY: Scale = Scale {
        files: 12,
        functions: 8,
        outsized_files: 1,
        outsized_functions: 40,
    };

    fn per_family(self, w: Workload) -> usize {
        match w {
            Workload::ScanMatrix => self.files,
            Workload::ApplyCuda2Hip => (self.files / 6).max(1),
            Workload::FlowPaths => (self.files / 3).max(1),
        }
    }
}

/// Expected call-site counts of one file for the CUDA→HIP migration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sites {
    pub rand: usize,
    pub half: usize,
    pub launch: usize,
}

impl Sites {
    fn of_input(text: &str) -> Sites {
        Sites {
            rand: text.matches("curand_uniform_double(").count(),
            half: text.matches("__half ").count(),
            launch: text.matches("<<<").count(),
        }
    }

    fn any(self) -> bool {
        self != Sites::default()
    }
}

/// What the oracle expects of each corpus file, keyed by the path
/// spatch reports (`corpus/<relative path>`).
#[derive(Debug, Clone)]
pub enum Expect {
    /// Scan workloads: the sorted (rule id, line) findings of each file.
    Findings(BTreeMap<String, Vec<(String, u32)>>),
    /// The apply workload: the migration sites of each file.
    Sites(BTreeMap<String, Sites>),
}

impl Expect {
    pub fn files(&self) -> Vec<&str> {
        match self {
            Expect::Findings(m) => m.keys().map(String::as_str).collect(),
            Expect::Sites(m) => m.keys().map(String::as_str).collect(),
        }
    }
}

/// A workload generated on disk, under `dir`:
/// `corpus/` (the target), `rules/` or `patch.cocci`, `empty/` (the
/// set-up target) and `out/` (spatch's outputs).
#[derive(Debug, Clone)]
pub struct Prepared {
    pub workload: Workload,
    pub dir: PathBuf,
    /// Corpus files spatch walks.
    pub files: usize,
    /// Their total size in bytes.
    pub bytes: usize,
    pub expect: Expect,
}

/// Relative directory of the corpus inside [`Prepared::dir`].
pub const CORPUS: &str = "corpus";
/// Relative directory of the empty set-up target.
pub const EMPTY: &str = "empty";

fn write_all(root: &Path, files: &[GeneratedFile]) -> io::Result<()> {
    for f in files {
        let path = root.join(&f.name);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, &f.text)?;
    }
    Ok(())
}

fn prefixed(dir: &str, files: Vec<GeneratedFile>) -> Vec<GeneratedFile> {
    files
        .into_iter()
        .map(|f| GeneratedFile {
            name: format!("{dir}/{}", f.name),
            text: f.text,
        })
        .collect()
}

/// Generate `w` from `seed` at `scale` under `dir` (replacing it).
pub fn prepare(w: Workload, seed: u64, scale: Scale, dir: &Path) -> io::Result<Prepared> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    for sub in [CORPUS, EMPTY, "out"] {
        std::fs::create_dir_all(dir.join(sub))?;
    }
    let n = scale.per_family(w);
    let corpus_dir = dir.join(CORPUS);
    // The walkable corpus files with their text.
    let files: Vec<GeneratedFile> = match w {
        Workload::ScanMatrix => {
            let spec = RuleMatrixSpec {
                rules: MATRIX_RULES,
                files: n,
                functions_per_file: scale.functions,
                overlap: MATRIX_OVERLAP,
                seed,
            };
            write_all(
                &dir.join("rules"),
                &cocci_workloads::rule_matrix_rules(&spec),
            )?;
            let mut files = cocci_workloads::rule_matrix_codebase(&spec);
            // `outsized/` sorts after every `matrix_*.c`, so the walk
            // reaches the big files last.
            files.extend(prefixed(
                "outsized",
                cocci_workloads::rule_matrix_codebase(&RuleMatrixSpec {
                    files: scale.outsized_files,
                    functions_per_file: scale.outsized_functions,
                    seed: seed ^ 0x5EED_0B16,
                    ..spec
                }),
            ));
            write_all(&corpus_dir, &files)?;
            files
        }
        Workload::ApplyCuda2Hip => {
            std::fs::write(
                dir.join("patch.cocci"),
                cocci_workloads::patches::UC78_CUDA_HIP_FULL,
            )?;
            let spec = CorpusTreeSpec {
                files_per_family: n,
                functions_per_file: scale.functions,
                seed,
            };
            corpus::write_corpus_tree(&corpus_dir, &spec)?;
            corpus::corpus_tree(&spec)
                .into_iter()
                .filter(|f| corpus::is_walkable(&f.name))
                .collect()
        }
        Workload::FlowPaths => {
            for (id, text) in FLOW_RULES {
                std::fs::create_dir_all(dir.join("rules"))?;
                std::fs::write(dir.join("rules").join(format!("{id}.cocci")), text)?;
            }
            let spec = |k: u64| CodebaseSpec {
                files: n,
                functions_per_file: scale.functions,
                seed: seed.wrapping_add(k),
            };
            let mut files = prefixed("scan", gen::report_scan_codebase(&spec(0)));
            files.extend(prefixed("branchy", gen::branchy_codebase(&spec(1))));
            files.extend(prefixed("forked", gen::forked_commit_codebase(&spec(2))));
            write_all(&corpus_dir, &files)?;
            files
        }
    };
    let bytes = files.iter().map(|f| f.text.len()).sum();
    let key = |f: &GeneratedFile| format!("{CORPUS}/{}", f.name);
    let expect = match w {
        Workload::ScanMatrix => Expect::Findings(
            files
                .iter()
                .map(|f| (key(f), matrix_findings(&f.text)))
                .collect(),
        ),
        Workload::FlowPaths => Expect::Findings(
            files
                .iter()
                .map(|f| (key(f), flow_findings(&f.text)))
                .collect(),
        ),
        Workload::ApplyCuda2Hip => Expect::Sites(
            files
                .iter()
                .map(|f| (key(f), Sites::of_input(&f.text)))
                .collect(),
        ),
    };
    Ok(Prepared {
        workload: w,
        dir: dir.to_path_buf(),
        files: files.len(),
        bytes,
        expect,
    })
}

/// `scan_matrix`: one finding per `api_g(x, j)` call with `j` below the
/// overlap, by rule `g * overlap + j`; decoy arms (`j >= overlap`) and
/// quiet code give none.
fn matrix_findings(text: &str) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let Some(at) = line.find("api_") else {
            continue;
        };
        let rest = &line[at + 4..];
        let g_end = rest.find('(').expect("generated call has an argument list");
        let g: usize = rest[..g_end].parse().expect("group number");
        let arm_start = rest.rfind(", ").expect("two arguments") + 2;
        let arm_end = rest.rfind(");").expect("call statement");
        let j: usize = rest[arm_start..arm_end].parse().expect("arm number");
        if j < MATRIX_OVERLAP {
            let i = g * MATRIX_OVERLAP + j;
            out.push((format!("r{i:03}-g{g}"), ln as u32 + 1));
        }
    }
    out.sort();
    out
}

/// `flow_paths`, per function (the rules fire at their first anchor):
/// * `acquire(r)` — one finding when no early `return` can skip the
///   `release(r)` that follows (report_scan: `functions / 2` per file);
/// * `probe_begin(b)` — one finding per function without an early
///   `return` (branchy);
/// * `checkpoint()` — one finding per distinct `commit(e)` argument, as
///   the path engine forks a witness per binding (forked_commit).
fn flow_findings(text: &str) -> Vec<(String, u32)> {
    #[derive(Default)]
    struct Func {
        anchor: Option<(&'static str, u32)>,
        returns: bool,
        releases: bool,
        probe_ends: bool,
        commits: BTreeSet<String>,
    }
    let mut out = Vec::new();
    let mut cur: Option<Func> = None;
    for (ln, line) in text.lines().enumerate() {
        let ln = ln as u32 + 1;
        if line.starts_with("void ") {
            cur = Some(Func::default());
            continue;
        }
        let Some(f) = cur.as_mut() else {
            continue;
        };
        if line == "}" {
            let f = cur.take().expect("inside a function");
            let n = match f.anchor {
                Some(("acquire", _)) => usize::from(f.releases && !f.returns),
                Some(("probe", _)) => usize::from(f.probe_ends && !f.returns),
                Some(("checkpoint", _)) => f.commits.len(),
                _ => 0,
            };
            if let Some((rule, at)) = f.anchor {
                out.extend(std::iter::repeat_n((rule.to_string(), at), n));
            }
            continue;
        }
        let t = line.trim();
        if f.anchor.is_none() {
            for (prefix, rule) in [
                ("acquire(", "acquire"),
                ("probe_begin(", "probe"),
                ("checkpoint()", "checkpoint"),
            ] {
                if t.starts_with(prefix) {
                    f.anchor = Some((rule, ln));
                }
            }
        }
        f.returns |= t.starts_with("return");
        f.releases |= t.starts_with("release(");
        f.probe_ends |= t.starts_with("probe_end(");
        if let Some(arg) = t.strip_prefix("commit(") {
            f.commits.insert(arg.trim_end_matches(");").to_string());
        }
    }
    out.sort();
    out
}

/// The `spatch` arguments of `w`, run from [`Prepared::dir`] over
/// `target` with `threads` workers and the report written to `report`.
pub fn spatch_args(w: Workload, threads: usize, target: &str, report: &str) -> Vec<String> {
    let mut a: Vec<&str> = match w {
        Workload::ScanMatrix => vec!["scan", "--rules", "rules", "--format", "sarif"],
        Workload::ApplyCuda2Hip => vec!["--sp-file", "patch.cocci"],
        Workload::FlowPaths => vec!["scan", "--rules", "rules"],
    };
    let threads = threads.to_string();
    a.extend(["--report", report, "-j", &threads, "--quiet", target]);
    a.into_iter().map(String::from).collect()
}

/// Per-file outcome digest of a report: (status, sorted findings as
/// (rule, line, col)). Equal digests mean equal report findings.
pub type Digest = BTreeMap<String, (String, Vec<(String, u32, u32)>)>;

/// Extract the [`Digest`] of a `--report` JSON document.
pub fn report_digest(report: &Value) -> Result<Digest, String> {
    let files = report.get("files").ok_or("report has no `files`")?;
    let mut out = Digest::new();
    for f in files.as_array() {
        let name = f
            .get("name")
            .and_then(Value::as_str)
            .ok_or("file without name")?;
        let status = f
            .get("status")
            .and_then(Value::as_str)
            .ok_or("file without status")?;
        let mut findings: Vec<(String, u32, u32)> = f
            .get("findings")
            .map(|v| v.as_array())
            .unwrap_or(&[])
            .iter()
            .map(|x| {
                let n = |k: &str| x.get(k).and_then(Value::as_f64).unwrap_or(0.0) as u32;
                let rule = x.get("rule").and_then(Value::as_str).unwrap_or("");
                (rule.to_string(), n("line"), n("col"))
            })
            .collect();
        findings.sort();
        out.insert(name.to_string(), (status.to_string(), findings));
    }
    Ok(out)
}

/// Files whose report entry breaks the oracle: missing, `error` or
/// `timeout`, wrong findings (scan workloads), or a status that
/// disagrees with whether the file has migration sites (apply).
pub fn check_report(expect: &Expect, digest: &Digest) -> BTreeSet<String> {
    let mut failed = BTreeSet::new();
    let bad_status = |s: &str| s == "error" || s == "timeout";
    match expect {
        Expect::Findings(m) => {
            for (name, want) in m {
                let ok = digest.get(name).is_some_and(|(status, got)| {
                    let got: Vec<(String, u32)> =
                        got.iter().map(|(r, l, _)| (r.clone(), *l)).collect();
                    !bad_status(status) && got == *want
                });
                if !ok {
                    failed.insert(name.clone());
                }
            }
        }
        Expect::Sites(m) => {
            for (name, sites) in m {
                let ok = digest.get(name).is_some_and(|(status, _)| {
                    !bad_status(status) && (status == "changed") == sites.any()
                });
                if !ok {
                    failed.insert(name.clone());
                }
            }
        }
    }
    failed
}

/// Files whose stdout part breaks the oracle: SARIF results
/// (`scan_matrix`), text finding lines (`flow_paths`) or the unified
/// diff's `+` lines (`apply_cuda2hip`, every site in its HIP form).
pub fn check_stdout(w: Workload, expect: &Expect, stdout: &str) -> BTreeSet<String> {
    let mut failed = BTreeSet::new();
    match (w, expect) {
        (Workload::ScanMatrix, Expect::Findings(m)) => {
            let got = match sarif_findings(stdout) {
                Ok(g) => g,
                Err(_) => return m.keys().cloned().collect(),
            };
            compare_findings(m, &got, &mut failed);
        }
        (Workload::FlowPaths, Expect::Findings(m)) => {
            let mut got: BTreeMap<String, Vec<(String, u32)>> = BTreeMap::new();
            for line in stdout.lines() {
                // `path:line:col: rule: message`
                let mut parts = line.splitn(5, ':');
                let (Some(path), Some(ln), Some(_col), Some(rule)) =
                    (parts.next(), parts.next(), parts.next(), parts.next())
                else {
                    return m.keys().cloned().collect();
                };
                let ln = ln.parse().unwrap_or(0);
                got.entry(path.to_string())
                    .or_default()
                    .push((rule.trim().to_string(), ln));
            }
            compare_findings(m, &got, &mut failed);
        }
        (Workload::ApplyCuda2Hip, Expect::Sites(m)) => {
            let mut got: BTreeMap<String, (Sites, usize)> = BTreeMap::new();
            let mut cur: Option<String> = None;
            for line in stdout.lines() {
                if let Some(path) = line.strip_prefix("+++ b/") {
                    cur = Some(path.to_string());
                    got.entry(path.to_string()).or_default();
                    continue;
                }
                let (Some(path), Some(added)) = (&cur, line.strip_prefix('+')) else {
                    continue;
                };
                let e = got.get_mut(path).expect("entry made at the header");
                e.0.rand += added.matches("rocrand_uniform_double(").count();
                e.0.half += added.matches("rocblas_half ").count();
                e.0.launch += added.matches("hipLaunchKernelGGL(").count();
                let left = Sites::of_input(added);
                e.1 += left.rand + left.half + left.launch;
            }
            for (name, want) in m {
                let ok = match got.remove(name) {
                    Some((sites, leftovers)) => want.any() && sites == *want && leftovers == 0,
                    None => !want.any(),
                };
                if !ok {
                    failed.insert(name.clone());
                }
            }
            // A diff for a file outside the corpus fails nothing known;
            // it still breaks the run's output, so it is counted.
            failed.extend(got.into_keys());
        }
        _ => unreachable!("expectation kind follows the workload"),
    }
    failed
}

fn compare_findings(
    want: &BTreeMap<String, Vec<(String, u32)>>,
    got: &BTreeMap<String, Vec<(String, u32)>>,
    failed: &mut BTreeSet<String>,
) {
    for (name, w) in want {
        let mut g = got.get(name).cloned().unwrap_or_default();
        g.sort();
        if g != *w {
            failed.insert(name.clone());
        }
    }
    failed.extend(got.keys().filter(|k| !want.contains_key(*k)).cloned());
}

/// SARIF results as (uri → sorted (rule id, start line)).
fn sarif_findings(text: &str) -> Result<BTreeMap<String, Vec<(String, u32)>>, String> {
    let doc = json::parse(text)?;
    let mut got: BTreeMap<String, Vec<(String, u32)>> = BTreeMap::new();
    for run in doc.get("runs").ok_or("no runs")?.as_array() {
        for r in run.get("results").ok_or("no results")?.as_array() {
            let rule = r.get("ruleId").and_then(Value::as_str).ok_or("no ruleId")?;
            let loc = r
                .get("locations")
                .and_then(|l| l.as_array().first())
                .and_then(|l| l.get("physicalLocation"))
                .ok_or("no location")?;
            let uri = loc
                .get("artifactLocation")
                .and_then(|a| a.get("uri"))
                .and_then(Value::as_str)
                .ok_or("no uri")?;
            let line = loc
                .get("region")
                .and_then(|g| g.get("startLine"))
                .and_then(Value::as_f64)
                .ok_or("no startLine")?;
            got.entry(uri.to_string())
                .or_default()
                .push((rule.to_string(), line as u32));
        }
    }
    Ok(got)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_oracle_counts_arms_below_overlap() {
        let text = "void f(int n, double *buf) {\n    api_3(buf[1], 4);\n}\n\n\
                    void g(int n, double *buf) {\n    api_3(buf[2], 6);\n}\n";
        assert_eq!(matrix_findings(text), vec![("r019-g3".to_string(), 2)]);
    }

    #[test]
    fn flow_oracle_follows_function_shapes() {
        let text = "void a(int n, double *buf) {\n    probe_begin(buf);\n    if (n > 4)\n        return;\n    probe_end(buf);\n}\n\n\
                    void b(int n, double *buf) {\n    probe_begin(buf);\n    probe_end(buf);\n}\n\n\
                    void c(int n, double *buf) {\n    checkpoint();\n    if (n > 4) {\n        commit(buf[1]);\n    } else {\n        commit(buf[2]);\n    }\n}\n";
        assert_eq!(
            flow_findings(text),
            vec![
                ("checkpoint".to_string(), 14),
                ("checkpoint".to_string(), 14),
                ("probe".to_string(), 9),
            ]
        );
    }

    #[test]
    fn report_scan_oracle_matches_generator_documentation() {
        let spec = CodebaseSpec {
            files: 5,
            functions_per_file: 8,
            seed: 3,
        };
        let total: usize = gen::report_scan_codebase(&spec)
            .iter()
            .map(|f| flow_findings(&f.text).len())
            .sum();
        assert_eq!(total, 5 * 8 / 2);
    }

    #[test]
    fn diff_oracle_requires_every_site_migrated() {
        let mut m = BTreeMap::new();
        m.insert(
            "corpus/a.cu".to_string(),
            Sites {
                rand: 0,
                half: 1,
                launch: 1,
            },
        );
        m.insert("corpus/b.c".to_string(), Sites::default());
        let expect = Expect::Sites(m);
        let good = "--- a/corpus/a.cu\n+++ b/corpus/a.cu\n@@ -1,2 +1,2 @@\n-    __half h;\n+    rocblas_half h;\n-    k<<<g, b, 0, s>>>(n);\n+    hipLaunchKernelGGL(k,g,b,0,s,n);\n";
        assert!(check_stdout(Workload::ApplyCuda2Hip, &expect, good).is_empty());
        let partial = "--- a/corpus/a.cu\n+++ b/corpus/a.cu\n@@ -1,2 +1,2 @@\n-    __half h;\n+    rocblas_half h;\n";
        assert_eq!(
            check_stdout(Workload::ApplyCuda2Hip, &expect, partial).len(),
            1
        );
    }
}
