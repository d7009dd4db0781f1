//! `cocci-core`: the semantic-patch engine — matching, transformation,
//! rule orchestration, and a parallel multi-file driver.
//!
//! This is the paper's primary contribution rebuilt in Rust. The pipeline
//! for one file is:
//!
//! 1. parse the target file with `cocci-cast`;
//! 2. for each rule of the semantic patch (in order), honouring
//!    `depends on` and inherited-metavariable seeding, find all matches of
//!    the rule's pattern — flow-sensitive rules (statement dots) go
//!    through CFG path matching ([`flowmatch`], all-paths semantics over
//!    `cocci-flow` graphs), everything else through the tree matcher
//!    ([`matcher`]);
//! 3. for each match, generate span edits from the rule body's `-`/`+`
//!    annotations ([`rewrite`]);
//! 4. splice all edits into the original text ([`edits`]), yielding a
//!    minimal diff.
//!
//! The patch is compiled **once** per run ([`compile::CompiledPatch`]:
//! regex constraints, inheritance graph, per-rule prefilter atoms) and
//! shared immutably across workers. The [`corpus`] module holds the one
//! corpus driver: a persistent worker team fed by one FIFO queue, which
//! streams whole directory trees through steps 1–4, file by file, in
//! bounded-memory batches, emitting a machine-readable [`ApplyReport`].
//! The [`driver`] (one patch) and [`scan`] (a rule collection) modules
//! supply its per-file jobs and their entry points.
//!
//! ```
//! use cocci_core::Patcher;
//! let patch = cocci_smpl::parse_semantic_patch(
//!     "@@ @@\n- old_api(42);\n+ new_api(42);\n",
//! ).unwrap();
//! let mut patcher = Patcher::new(&patch).unwrap();
//! let out = patcher.apply("demo.c", "void f(void) { old_api(42); }\n").unwrap();
//! assert_eq!(out.unwrap(), "void f(void) { new_api(42); }\n");
//! ```

pub mod compile;
pub mod context;
pub mod corpus;
pub mod driver;
pub mod edits;
pub mod env;
pub mod explain;
pub mod findings;
pub mod flowmatch;
pub mod matcher;
pub mod orchestrate;
mod pool;
pub mod report;
pub mod rewrite;
pub mod ruleset;
pub mod scan;
pub mod suppress;

pub use compile::CompiledPatch;
pub use context::FileContext;
pub use corpus::{
    apply_to_corpus, apply_to_corpus_resumed, BatchOptions, CorpusOptions, FileSource, IgnoreSet,
    MemorySource, WalkSource,
};
pub use driver::{apply_batch, apply_batch_opts, apply_to_files, ExecOptions, FileOutcome};
pub use edits::{Edit, EditConflict, EditSet};
pub use env::{Env, ExportedEnv, Value};
pub use explain::{AttemptTrace, ExplainBlock, ExplainConfig, KillStage};
pub use findings::{to_sarif, to_sarif_with, Finding, SarifRule};
pub use flowmatch::{CfgCache, FlowPattern, FlowSearch, FlowStep, SearchProbe};
pub use matcher::{MatchCtx, MatchState, Pair, PairKind};
pub use orchestrate::{ApplyError, Patcher};
pub use report::{content_hash, ApplyReport, FileReport, FileStatus, PoolMetrics, RunMetrics};
pub use ruleset::{parse_rule_metadata, CompiledRuleSet, RuleMeta, ScanRule, Severity};
pub use scan::{scan_batch, scan_corpus, RuleOutcome, ScanOutcome};
pub use suppress::SuppressionIndex;
