//! Robustness and failure-path tests: malformed inputs, conflicting
//! edits, finalize blocks, statistics, and parser resilience on
//! real-world-shaped C.

use cocci_cast::parser::MAX_NESTING;
use cocci_core::{apply_batch, apply_to_files, CompiledPatch, KillStage, Patcher};
use cocci_smpl::parse_semantic_patch;
use std::sync::Arc;

// ---- failure paths ----

#[test]
fn unparsable_target_is_an_error_not_a_panic() {
    let patch = parse_semantic_patch("@@ @@\n- a();\n+ b();\n").unwrap();
    let mut p = Patcher::new(&patch).unwrap();
    let err = p.apply("t.c", "void f( { garbage").unwrap_err();
    assert!(err.to_string().contains("cannot parse"), "{err}");
}

#[test]
fn over_deep_files_fail_alone_on_workers() {
    // Nesting past the parser's budget used to overflow a worker's stack
    // and abort the whole run. It is now that file's parse error; the
    // other files of the batch, one of them exactly at the budget, are
    // matched as usual.
    let patch =
        parse_semantic_patch("@r@\nexpression e;\nposition p;\n@@\napi_0(e, 0)@p\n").unwrap();
    let compiled = Arc::new(CompiledPatch::compile(&patch).unwrap());
    // Item, `return` and its expression take three levels, each
    // parenthesis one, and the call's argument one more.
    let innermost_call = |k: usize| {
        format!(
            "void f(int x) {{\n  return {}api_0(x, 0){};\n}}\n",
            "(".repeat(k),
            ")".repeat(k)
        )
    };
    let normal = "void n(int x) {\n  api_0(x, 0);\n}\n".to_string();
    let files = vec![
        (
            "paren.c".to_string(),
            format!(
                "void p(int x) {{ api_0(x, 0); return {}1{}; }}\n",
                "(".repeat(3000),
                ")".repeat(3000)
            ),
        ),
        (
            "brace.c".to_string(),
            format!(
                "void b(int x) {{ api_0(x, 0); {}{} }}\n",
                "{".repeat(5000),
                "}".repeat(5000)
            ),
        ),
        ("at_budget.c".to_string(), innermost_call(MAX_NESTING - 4)),
        ("over_budget.c".to_string(), innermost_call(MAX_NESTING - 3)),
        ("normal.c".to_string(), normal.clone()),
    ];
    let alone = apply_batch(&compiled, &[("normal.c".to_string(), normal)], 1, true);
    for threads in [1, 2] {
        let out = apply_batch(&compiled, &files, threads, true);
        for o in [&out[0], &out[1], &out[3]] {
            let err = o.error.as_deref().unwrap_or_default();
            assert!(err.contains("nesting deeper than"), "{}: {err:?}", o.name);
            assert_eq!(o.kill_stage, Some(KillStage::Parse), "{}", o.name);
        }
        assert_eq!(out[2].error, None);
        assert_eq!(out[2].findings.len(), 1, "{:?}", out[2].findings);
        assert_eq!(out[4].findings, alone[0].findings);
    }
}

#[test]
fn bad_regex_constraint_fails_at_compile_time() {
    let patch =
        parse_semantic_patch("@@\nidentifier f =~ \"unclosed(\";\n@@\n- f();\n+ g();\n").unwrap();
    let err = match Patcher::new(&patch) {
        Err(e) => e,
        Ok(_) => panic!("expected compile error"),
    };
    assert!(err.to_string().contains("regex"), "{err}");
}

#[test]
fn script_hard_error_propagates() {
    let patch = parse_semantic_patch(
        "@m@\nidentifier f;\nexpression list el;\n@@\nf(el)\n\n@script:python s@\nf << m.f;\ng;\n@@\ncoccinelle.g = undefined_name;\n",
    )
    .unwrap();
    let mut p = Patcher::new(&patch).unwrap();
    let err = p.apply("t.c", "void t(void) { call(1); }\n").unwrap_err();
    assert!(err.to_string().contains("undefined name"), "{err}");
}

#[test]
fn overlapping_matches_resolve_first_wins() {
    // Nested `a[x][y][z]` inside another: the outer match claims the
    // span; the inner occurrence inside the binding is left as-is (one
    // rewrite, no conflict, no panic).
    let patch = parse_semantic_patch(
        "#spatch --c++\n@@\nsymbol a;\nexpression x,y,z;\n@@\n- a[x][y][z]\n+ a[x, y, z]\n",
    )
    .unwrap();
    let mut p = Patcher::new(&patch).unwrap();
    let out = p
        .apply("t.cpp", "void f(void) { q = a[a[0][1][2]][j][k]; }\n")
        .unwrap()
        .unwrap();
    assert!(out.contains("a[a[0][1][2], j, k]"), "{out}");
}

// ---- finalize blocks and statistics ----

#[test]
fn finalize_block_runs_after_rules() {
    // A finalize block that would fail proves it ran; one that is fine
    // must not disturb the result.
    let ok =
        parse_semantic_patch("@@ @@\n- a();\n+ b();\n\n@finalize:python@ @@\nmsg = \"done\"\n")
            .unwrap();
    let mut p = Patcher::new(&ok).unwrap();
    assert!(p.apply("t.c", "void f(void) { a(); }\n").unwrap().is_some());

    let bad =
        parse_semantic_patch("@@ @@\n- a();\n+ b();\n\n@finalize:python@ @@\nboom = missing\n")
            .unwrap();
    let mut p2 = Patcher::new(&bad).unwrap();
    assert!(p2.apply("t.c", "void f(void) { a(); }\n").is_err());
}

#[test]
fn apply_stats_count_matches() {
    let patch = parse_semantic_patch("@r@\nexpression e;\n@@\n- f(e);\n+ g(e);\n").unwrap();
    let mut p = Patcher::new(&patch).unwrap();
    p.apply("t.c", "void t(void) { f(1); f(2); f(3); }\n")
        .unwrap()
        .unwrap();
    assert_eq!(p.last_stats.matches_per_rule.iter().sum::<usize>(), 3);
    assert!(p.last_stats.edits >= 3);
}

// ---- parser resilience on real-world-shaped C ----

#[test]
fn handles_crlf_line_endings() {
    let patch = parse_semantic_patch("@@ @@\n- old();\n+ new_call();\n").unwrap();
    let mut p = Patcher::new(&patch).unwrap();
    let src = "void f(void) {\r\n    old();\r\n}\r\n";
    let out = p.apply("t.c", src).unwrap().unwrap();
    assert!(out.contains("new_call();"), "{out:?}");
}

#[test]
fn handles_tabs_and_deep_nesting() {
    let patch = parse_semantic_patch("@@ @@\n- leaf();\n+ LEAF();\n").unwrap();
    let mut p = Patcher::new(&patch).unwrap();
    let src = "void f(int a, int b, int c) {\n\tif (a) {\n\t\twhile (b) {\n\t\t\tfor (int i = 0; i < c; ++i) {\n\t\t\t\tleaf();\n\t\t\t}\n\t\t}\n\t}\n}\n";
    let out = p.apply("t.c", src).unwrap().unwrap();
    assert!(out.contains("\t\t\t\tLEAF();"), "{out}");
}

#[test]
fn preprocessor_conditionals_are_preserved() {
    let patch = parse_semantic_patch("@@ @@\n- old();\n+ new_call();\n").unwrap();
    let mut p = Patcher::new(&patch).unwrap();
    let src = "#ifdef FAST\n#define N 4\n#else\n#define N 1\n#endif\nvoid f(void) { old(); }\n";
    let out = p.apply("t.c", src).unwrap().unwrap();
    assert!(out.contains("#ifdef FAST"));
    assert!(out.contains("#else"));
    assert!(out.contains("#endif"));
    assert!(out.contains("new_call();"));
}

#[test]
fn string_escapes_do_not_confuse_matching() {
    let patch = parse_semantic_patch("@@ @@\n- old();\n+ new_call();\n").unwrap();
    let mut p = Patcher::new(&patch).unwrap();
    let src = r#"void f(void) { printf("quote \" and old(); inside"); old(); }"#;
    let out = p.apply("t.c", src).unwrap().unwrap();
    // The string literal must be untouched.
    assert!(out.contains(r#""quote \" and old(); inside""#), "{out}");
    assert!(out.trim_end().ends_with("new_call(); }"), "{out}");
}

#[test]
fn comment_only_changes_never_happen() {
    let patch = parse_semantic_patch("@@ @@\n- old();\n+ new_call();\n").unwrap();
    let mut p = Patcher::new(&patch).unwrap();
    let src = "/* old(); */\n// old();\nvoid f(void) { real(); }\n";
    assert!(p.apply("t.c", src).unwrap().is_none());
}

// ---- idempotence and fixpoints ----

#[test]
fn insertion_patches_are_not_idempotent_but_stable() {
    // UC1-style insertion: a second application would double-insert —
    // unless the patch guards itself with depends on !has_marker.
    let guarded = r#"
@has@
@@
PROLOGUE();

@depends on !has@
identifier f;
statement list SL;
@@
void f(void)
{
+ PROLOGUE();
SL
}
"#;
    let patch = parse_semantic_patch(guarded).unwrap();
    let mut p = Patcher::new(&patch).unwrap();
    let src = "void step(void)\n{\n    work();\n}\n";
    let once = p.apply("t.c", src).unwrap().unwrap();
    assert_eq!(once.matches("PROLOGUE();").count(), 1);
    // Second application: guard rule sees the marker, nothing happens.
    assert!(p.apply("t.c", &once).unwrap().is_none());
}

#[test]
fn large_file_many_matches() {
    let mut body = String::new();
    for i in 0..500 {
        body.push_str(&format!("    x{i} = f(x{i});\n"));
    }
    let src = format!("void big(void) {{\n{body}}}\n");
    let patch = parse_semantic_patch("@@\nexpression e;\n@@\n- f(e)\n+ g(e)\n").unwrap();
    let mut p = Patcher::new(&patch).unwrap();
    let out = p.apply("big.c", &src).unwrap().unwrap();
    assert_eq!(out.matches("g(x").count(), 500);
    assert!(!out.contains("f(x"));
}

#[test]
fn driver_compile_error_is_run_level_not_per_file() {
    // The patch compiles once per run; a compile error surfaces exactly
    // once as the driver's `Err`, not duplicated onto every file.
    let patch =
        parse_semantic_patch("@@\nidentifier f =~ \"bad(regex\";\n@@\n- f();\n+ g();\n").unwrap();
    let files: Vec<(String, String)> = (0..8)
        .map(|i| (format!("f{i}.c"), "void f(void) {}\n".to_string()))
        .collect();
    let err = apply_to_files(&patch, &files, 4).unwrap_err();
    assert!(err.to_string().contains("regex"), "{err}");
}
