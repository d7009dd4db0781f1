//! Ablation benches for the engine's design choices.
//!
//! * `iso` — cost of the const-fold/additive isomorphism: the paper's
//!   `p0` pattern (`i+k-1` with `constant k={4}`, requires the
//!   isomorphism) vs. an equivalent patch written with pre-folded
//!   literals (`i+3`, pure structural matching). Measures what the
//!   generality of "constants compared by value" costs.
//! * `regex` — cost of `=~` constraints: UC11 with its long LIBRSB regex
//!   vs. the same patch with the constraint removed (matching every
//!   function). Shows constraint checking is cheap relative to matching,
//!   and *reduces* work by pruning candidates early.

use cocci_bench::timing::{Harness, Throughput};
use cocci_core::apply_to_files;
use cocci_smpl::parse_semantic_patch;
use cocci_workloads::gen::{librsb_codebase, unrolled_codebase, CodebaseSpec};
use cocci_workloads::patches::{UC11_PRAGMA_INJECT, UC5_UNROLL_P0};

/// `p0` rewritten with the constant arithmetic already folded: matches
/// the same loops without exercising the isomorphism machinery.
const UNROLL_LITERAL: &str = r#"
@p0lit@
type T;
identifier i,l;
statement A,B,C,D;
@@
+ #pragma omp unroll partial(4)
for (T i=0; i
- +3
< l ;
- i+=4
+ ++i
)
{
\( A \& i+0 \) \(
- B \& i+1
\) \(
- C \& i+2
\) \(
- D \& i+3
\)
}
"#;

/// UC11 without the regex constraint: every function gets wrapped.
const PRAGMA_INJECT_UNCONSTRAINED: &str = r#"
@pragma_inject@
identifier i;
type T;
@@
+ #pragma GCC push_options
+ #pragma GCC optimize "-O3", "-fno-tree-loop-vectorize"
T i(...)
{
...
}
+ #pragma GCC pop_options
"#;

fn iso_ablation(h: &mut Harness) {
    let spec = CodebaseSpec {
        files: 4,
        functions_per_file: 8,
        seed: 0xAB1,
    };
    let files = unrolled_codebase(&spec, 4);
    let inputs: Vec<(String, String)> = files
        .iter()
        .map(|f| (f.name.clone(), f.text.clone()))
        .collect();

    let with_iso = parse_semantic_patch(UC5_UNROLL_P0).unwrap();
    let literal = parse_semantic_patch(UNROLL_LITERAL).unwrap();

    // Both must transform every loop.
    for patch in [&with_iso, &literal] {
        let outcomes = apply_to_files(patch, &inputs, 1).unwrap();
        let n: usize = outcomes
            .iter()
            .filter_map(|o| o.output.as_deref())
            .map(|t| t.matches("#pragma omp unroll").count())
            .sum();
        assert_eq!(n, spec.files * spec.functions_per_file);
    }

    h.bench("ablation_iso", "const-fold-iso", Throughput::None, || {
        apply_to_files(&with_iso, &inputs, 1).unwrap()
    });
    h.bench("ablation_iso", "literal", Throughput::None, || {
        apply_to_files(&literal, &inputs, 1).unwrap()
    });
}

fn regex_ablation(h: &mut Harness) {
    let spec = CodebaseSpec {
        files: 4,
        functions_per_file: 24,
        seed: 0xAB2,
    };
    let files = librsb_codebase(&spec);
    let inputs: Vec<(String, String)> = files
        .iter()
        .map(|f| (f.name.clone(), f.text.clone()))
        .collect();

    let constrained = parse_semantic_patch(UC11_PRAGMA_INJECT).unwrap();
    let unconstrained = parse_semantic_patch(PRAGMA_INJECT_UNCONSTRAINED).unwrap();

    h.bench(
        "ablation_regex",
        "regex-constrained",
        Throughput::None,
        || apply_to_files(&constrained, &inputs, 1).unwrap(),
    );
    h.bench("ablation_regex", "unconstrained", Throughput::None, || {
        apply_to_files(&unconstrained, &inputs, 1).unwrap()
    });
}

fn main() {
    let mut h = Harness::new("ablation").sample_size(15);
    iso_ablation(&mut h);
    regex_ablation(&mut h);
    h.finish().expect("write BENCH_ablation.json");
}
