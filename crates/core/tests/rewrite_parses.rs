//! Rules that run after a rewrite share one parse of the rewritten text.
//!
//! A patch parses each text version it matches once: the original, and
//! then each text an edit produced. Later rules over an unchanged version
//! reuse its tree instead of re-parsing it.
//!
//! Its own integration-test binary because trace counters are
//! process-global: one test function owns them end to end.

use cocci_core::Patcher;
use cocci_smpl::parse_semantic_patch;
use cocci_trace::Counter;

#[test]
fn rules_after_a_rewrite_do_not_reparse() {
    // Three transform rules; only the first one edits.
    let patch = parse_semantic_patch(
        "@a@ @@\n- old_api(1);\n+ new_api(1);\n\n\
         @b@ @@\n- missing_one();\n+ x();\n\n\
         @c@ @@\n- missing_two();\n+ y();\n",
    )
    .unwrap();
    let mut patcher = Patcher::new(&patch).unwrap();

    cocci_trace::set_enabled(true);
    cocci_trace::reset();
    let out = patcher
        .apply("f.c", "void f(void) {\n    old_api(1);\n}\n")
        .unwrap();
    let parsed = cocci_trace::counter_value(Counter::FilesParsed);
    let hits = cocci_trace::counter_value(Counter::ParseCacheHits);
    cocci_trace::set_enabled(false);

    assert_eq!(out.as_deref(), Some("void f(void) {\n    new_api(1);\n}\n"));
    assert_eq!(patcher.last_stats.matches_per_rule, [1, 0, 0]);
    assert_eq!(parsed, 2, "original text once, rewritten text once");
    assert_eq!(hits, 1, "rule c reuses rule b's parse of the rewrite");
}
