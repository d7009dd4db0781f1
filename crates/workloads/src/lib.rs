//! `cocci-workloads`: synthetic codebases and micro-kernels for the
//! experiment harness.
//!
//! The paper evaluates Coccinelle on real HPC codes (GADGET, LIBRSB,
//! CUDA applications) that are not redistributable here. In their place
//! this crate generates *parameterized synthetic equivalents* that
//! exercise the same code paths:
//!
//! * [`gen`] — one generator per use case (OpenMP regions, kernel
//!   functions, multiversioned functions, unrolled loops, 3-D stencils,
//!   CUDA miniapps, OpenACC kernels, raw search loops, LIBRSB-style
//!   naming), plus size-swept codebases for the scaling experiment;
//! * [`adversarial`] — code in which API names appear inside strings,
//!   comments, and as identifier substrings: the corpus on which textual
//!   rewriting (hipify-perl-style) produces false positives and a
//!   semantic engine must not;
//! * [`kernels`] — the AoS vs. SoA particle-update kernels motivating the
//!   paper's flagship refactoring ([ML21]), runnable in Rust so the
//!   memory-layout effect itself is measurable;
//! * [`corpus`] — mixed on-disk corpus *trees* (nested directories, noise
//!   files, `.gitignore`d artifacts) for directory-mode driver runs and
//!   the prefilter bench;
//! * [`rule_matrix`] — N report-only rules with controllable
//!   prefilter-atom overlap plus a matching corpus, driving the
//!   `spatch scan` bench and CI's N-rules-vs-1-rule agreement check.

pub mod adversarial;
pub mod corpus;
pub mod gen;
pub mod kernels;
pub mod patches;
pub mod rng;
pub mod rule_matrix;

pub use corpus::{corpus_tree, write_corpus_tree, CorpusTreeSpec};
pub use gen::{CodebaseSpec, GeneratedFile};
pub use rule_matrix::{rule_matrix_codebase, rule_matrix_id, rule_matrix_rules, RuleMatrixSpec};

#[cfg(test)]
mod tests {
    use crate::gen;

    #[test]
    fn generators_are_deterministic() {
        let a = gen::omp_codebase(&gen::CodebaseSpec {
            files: 3,
            functions_per_file: 4,
            seed: 42,
        });
        let b = gen::omp_codebase(&gen::CodebaseSpec {
            files: 3,
            functions_per_file: 4,
            seed: 42,
        });
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.text, y.text);
        }
        let c = gen::omp_codebase(&gen::CodebaseSpec {
            files: 3,
            functions_per_file: 4,
            seed: 43,
        });
        assert_ne!(a[0].text, c[0].text);
    }
}
