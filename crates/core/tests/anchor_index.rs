//! The anchor index is a pure optimization. A rule's prefilter atoms
//! all occur inside the function or top-level declaration holding any of
//! its tree matches, so visiting only those items must give the matches
//! of a full walk.
//!
//! The reference is the same compiled patch with every rule's atoms
//! emptied, which already means "cannot prefilter" and so walks every
//! item. Both must agree on matches per rule, findings and output text,
//! over every workload patch and generator family, and over inputs
//! mutated to sit on the index's edges.

use cocci_core::{CompiledPatch, Patcher};
use cocci_smpl::parse_semantic_patch;
use cocci_workloads::gen::{self, CodebaseSpec, GeneratedFile};
use cocci_workloads::patches;
use cocci_workloads::rule_matrix::{rule_matrix_codebase, rule_matrix_rules, RuleMatrixSpec};
use std::sync::Arc;

/// One patch compiled twice: as is, and with every atom set emptied.
fn indexed_and_reference(src: &str) -> (Arc<CompiledPatch>, Arc<CompiledPatch>) {
    let sp = parse_semantic_patch(src).unwrap_or_else(|e| panic!("patch parse: {e}\n{src}"));
    let indexed = CompiledPatch::compile(&sp).unwrap_or_else(|e| panic!("compile: {e}"));
    let mut reference = indexed.clone();
    for rule in &mut reference.rules {
        if rule.atoms.is_some() {
            rule.atoms = Some(Vec::new());
        }
    }
    (Arc::new(indexed), Arc::new(reference))
}

/// Everything the two runs must agree on, as one comparable string,
/// and the number of matches.
fn outcome(compiled: &Arc<CompiledPatch>, name: &str, text: &str) -> (String, usize) {
    let mut p = Patcher::from_compiled(Arc::clone(compiled));
    let out = p.apply(name, text).map_err(|e| e.message);
    let s = &p.last_stats;
    let digest = format!(
        "{out:?}\nmatches {:?}\nfindings {:?}",
        s.matches_per_rule, s.findings
    );
    (digest, s.matches_per_rule.iter().sum())
}

/// Apply every patch to every file both ways; returns the matches found,
/// so callers can check the inputs were not inert.
fn assert_agree(patches: &[(String, String)], files: &[GeneratedFile]) -> usize {
    let mut matched = 0;
    for (id, src) in patches {
        let (indexed, reference) = indexed_and_reference(src);
        for f in files {
            let (got, n) = outcome(&indexed, &f.name, &f.text);
            let (want, _) = outcome(&reference, &f.name, &f.text);
            assert_eq!(got, want, "patch {id} on {}:\n{}", f.name, f.text);
            matched += n;
        }
    }
    matched
}

fn workload_patches() -> Vec<(String, String)> {
    let matrix = RuleMatrixSpec {
        rules: 6,
        overlap: 3,
        ..RuleMatrixSpec::default()
    };
    patches::ALL
        .iter()
        .map(|(id, src)| (id.to_string(), src.to_string()))
        .chain(
            rule_matrix_rules(&matrix)
                .into_iter()
                .map(|r| (r.name, r.text)),
        )
        .collect()
}

fn generated_files() -> Vec<GeneratedFile> {
    let spec = CodebaseSpec {
        files: 2,
        functions_per_file: 6,
        seed: 11,
    };
    let mut files = Vec::new();
    files.extend(gen::omp_codebase(&spec));
    files.extend(gen::kernel_codebase(&spec));
    files.extend(gen::multiversion_codebase(&spec));
    files.extend(gen::unrolled_codebase(&spec, 4));
    files.extend(gen::stencil_codebase(&spec));
    files.extend(gen::cuda_codebase(&spec));
    files.extend(gen::openacc_codebase(&spec));
    files.extend(gen::raw_loop_codebase(&spec));
    files.extend(gen::librsb_codebase(&spec));
    files.extend(rule_matrix_codebase(&RuleMatrixSpec {
        rules: 6,
        files: 4,
        overlap: 3,
        ..RuleMatrixSpec::default()
    }));
    files
}

/// The generated files with every patch's atoms planted where no match
/// can be: in comments and strings between functions. Also each file
/// wrapped in a namespace and in an `extern "C"` block, whose functions
/// the index must number like top-level ones.
fn mutated_files(files: &[GeneratedFile], patches: &[(String, String)]) -> Vec<GeneratedFile> {
    let mut atoms: Vec<String> = Vec::new();
    for (_, src) in patches {
        let (indexed, _) = indexed_and_reference(src);
        for rule in &indexed.rules {
            atoms.extend(rule.atoms.iter().flatten().cloned());
        }
    }
    atoms.sort();
    atoms.dedup();
    let planted: String = atoms
        .iter()
        .filter(|a| !a.contains("*/") && !a.contains('"') && !a.contains('\\'))
        .enumerate()
        .map(|(i, a)| format!("/* {a} */\nstatic const char *note_{i} = \"{a}\";\n"))
        .collect();
    let mut out = Vec::new();
    for f in files {
        let between = f.text.replace("\n}\n", &format!("\n}}\n{planted}"));
        out.push(GeneratedFile {
            name: format!("planted_{}", f.name),
            text: between,
        });
        out.push(GeneratedFile {
            name: format!("ns_{}", f.name),
            text: format!("namespace ns {{\n{}\n}}\n", f.text),
        });
        out.push(GeneratedFile {
            name: format!("extern_{}", f.name),
            text: format!("extern \"C\" {{\n{}\n}}\n", f.text),
        });
    }
    out
}

#[test]
fn workload_patches_agree_with_full_walks() {
    let patches = workload_patches();
    let files = generated_files();
    assert!(assert_agree(&patches, &files) > 0);
    assert!(assert_agree(&patches, &mutated_files(&files, &patches)) > 0);
}

fn file(name: &str, text: &str) -> GeneratedFile {
    GeneratedFile {
        name: name.to_string(),
        text: text.to_string(),
    }
}

#[test]
fn edge_inputs_agree_with_full_walks() {
    let patches: Vec<(String, String)> = [
        // Two atoms, `api_pair` and `flag`.
        "@@\nexpression e;\n@@\n- api_pair(e, flag)\n+ api_new(e)\n",
        // An expression rule over initializers and bodies alike.
        "@r@\nexpression e;\nposition p;\n@@\nold_api(e)@p\n",
        // A statement rule, with and without surrounding dots.
        "@@\nexpression e;\n@@\n- old_api(e);\n+ new_api(e);\n",
        "@@\nexpression e;\n@@\nsetup();\n...\n- old_api(e);\n+ new_api(e);\n",
    ]
    .iter()
    .enumerate()
    .map(|(i, s)| (format!("edge{i}"), s.to_string()))
    .collect();
    let files = [
        // The atoms sit in different functions, and one function holds
        // both.
        file(
            "split.c",
            "void a(int x) { api_pair(x, 1); }\nvoid b(int flag) { g(flag); }\n\
             void c(int flag) { api_pair(2, flag); }\n",
        ),
        file(
            "split_only.c",
            "void a(int x) { api_pair(x, 1); }\nvoid b(int flag) { g(flag); }\n",
        ),
        // Atoms only in a comment and a string between functions.
        file(
            "comment.c",
            "void a(void) { g(1); }\n/* old_api(x); api_pair(x, flag) */\n\
             const char *s = \"old_api(1); setup();\";\nvoid b(void) { g(2); }\n",
        ),
        // Matches in top-level initializers next to in-body ones.
        file(
            "init.c",
            "int g0 = old_api(1);\nint g1 = 2, g2 = old_api(g0) + old_api(3);\n\
             void a(void) { setup(); old_api(4); }\nint g3 = api_pair(5, flag);\n",
        ),
        // Functions inside namespace and extern "C" blocks.
        file(
            "nested.cpp",
            "namespace outer { namespace inner { void a(void) { setup(); old_api(1); } }\n\
             int v = old_api(2); }\nextern \"C\" { void b(int flag) { api_pair(3, flag); } }\n\
             void c(void) { old_api(5); }\n",
        ),
        // Unbraced nested statements and inner blocks.
        file(
            "blocks.c",
            "void a(int x) { if (x) old_api(1); else { setup(); old_api(2); } \
             while (x) { { old_api(3); } } }\n",
        ),
    ];
    assert!(assert_agree(&patches, &files) > 0);
}

#[test]
fn memo_follows_the_rewritten_text() {
    // Rule `r2`'s atom `bar` does not occur in the original text; it
    // appears only once `r1` has rewritten `foo(`. An index built for the
    // original text would find no item and miss both calls.
    let src = "@r1@\nexpression e;\n@@\n- foo(e)\n+ bar(e)\n\n\
               @r2@\nexpression e;\nposition p;\n@@\nbar(e)@p\n";
    let text =
        "void f(int x) {\n    foo(x);\n}\n\nvoid g(int y) {\n    other(y);\n    foo(y + 1);\n}\n";
    let (indexed, reference) = indexed_and_reference(src);
    let mut p = Patcher::from_compiled(Arc::clone(&indexed));
    let out = p.apply("v.c", text).unwrap().unwrap();
    assert!(
        out.contains("bar(x)") && out.contains("bar(y + 1)"),
        "{out}"
    );
    assert_eq!(p.last_stats.matches_per_rule, [2, 2]);
    assert_eq!(p.last_stats.findings.len(), 2);
    assert_eq!(
        outcome(&indexed, "v.c", text),
        outcome(&reference, "v.c", text)
    );
}
