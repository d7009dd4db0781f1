//! Per-file state shared across rules: parse once, match N times.
//!
//! A [`FileContext`] holds one *text version* of a file and the
//! rule-independent state derived from it: the parsed translation unit,
//! the per-function CFG cache, the line-table [`Resolver`], the
//! suppression-comment index and the anchor memo, each built on first
//! use. Every rule of every patch applied to that text borrows it
//! ([`Patcher::apply_ctx`](crate::Patcher::apply_ctx)), so fifty scan
//! rules over one file lex, parse and build each CFG once.
//!
//! The anchor memo ([`FileContext::anchor_items`]) serves the tree
//! matcher. It numbers the parse's leaf items (functions, declarations,
//! directives) in source order, keeps their spans, and records for each
//! prefilter atom asked about the items whose span holds an occurrence —
//! one substring pass over the text per distinct atom, shared by every
//! rule with that atom. By the prefilter's item-level contract
//! ([`cocci_smpl::prefilter`]) a tree match lies inside an item holding
//! all of its rule's atoms, so the matcher visits only those items.
//!
//! A patch whose edits land mid-application moves on to a fresh context
//! over the rewritten text, built once per landed edit, and its later
//! rules share that one. The caller's context keeps describing the
//! original text, so the next rule set member still finds its caches
//! valid. The [`parses`] and [`cfg_builds`] counters exist so tests can
//! assert the "exactly once" property instead of trusting it.
//!
//! [`parses`]: FileContext::parses
//! [`cfg_builds`]: FileContext::cfg_builds

use crate::findings::Resolver;
use crate::flowmatch::CfgCache;
use crate::report::content_hash;
use crate::suppress::SuppressionIndex;
use cocci_cast::ast::TranslationUnit;
use cocci_cast::parser::{parse_translation_unit, NoMeta, ParseOptions};
use cocci_cast::visit;
use cocci_cast::Lang;
use cocci_source::{Interner, Span};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One text version of a file plus the state built from it once and
/// shared by every rule matched against it. See the module docs.
pub struct FileContext {
    name: String,
    text: Arc<str>,
    hash: u64,
    parsed: Option<(Lang, Arc<TranslationUnit>)>,
    parse_err: Option<(Lang, String)>,
    resolver: Option<Arc<Resolver>>,
    suppress: Option<Arc<SuppressionIndex>>,
    cfgs: CfgCache,
    anchors: Option<Anchors>,
    interner: Arc<Interner>,
    parses: usize,
    shared_time: Duration,
}

/// The anchor memo of one parse (see the module docs).
struct Anchors {
    /// The parse the item numbering belongs to.
    tu: Arc<TranslationUnit>,
    /// Leaf-item spans, sorted and disjoint.
    spans: Vec<Span>,
    /// Per atom, the ascending numbers of the items holding it.
    by_atom: HashMap<String, Vec<u32>>,
}

impl FileContext {
    /// A fresh context over one version of a file's text.
    pub fn new(name: impl Into<String>, text: impl Into<Arc<str>>) -> FileContext {
        let text = text.into();
        let hash = content_hash(&text);
        FileContext::with_hash(name, text, hash)
    }

    /// [`FileContext::new`] for a caller that already hashed `text` (the
    /// corpus driver hashes each file once, for `--resume`).
    pub(crate) fn with_hash(
        name: impl Into<String>,
        text: impl Into<Arc<str>>,
        hash: u64,
    ) -> FileContext {
        FileContext {
            name: name.into(),
            text: text.into(),
            hash,
            parsed: None,
            parse_err: None,
            resolver: None,
            suppress: None,
            cfgs: CfgCache::default(),
            anchors: None,
            interner: Interner::global(),
            parses: 0,
            shared_time: Duration::ZERO,
        }
    }

    /// The interner this file's tokens and identifiers resolve through.
    ///
    /// All contexts share the process-global table (pattern-side and
    /// file-side symbols must compare equal), so the handle is a cheap
    /// `Arc` clone that worker threads can carry across the pool
    /// boundary without touching a lock.
    pub fn interner(&self) -> Arc<Interner> {
        Arc::clone(&self.interner)
    }

    /// The file's (display) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// A cheap shared handle on the text.
    pub fn text_arc(&self) -> Arc<str> {
        Arc::clone(&self.text)
    }

    /// FNV-1a hash of the text (for a file's original text, its
    /// `--resume` identity).
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Parse the file under `opts`, caching the result: the first rule
    /// pays for the parse, later rules (of this patch or any other in a
    /// scan) get the same tree. A parse *failure* is cached too — fifty
    /// rules over an unparsable file report one error each without
    /// re-lexing it fifty times.
    pub fn parse(&mut self, opts: ParseOptions) -> Result<Arc<TranslationUnit>, String> {
        if let Some((lang, tu)) = &self.parsed {
            if *lang == opts.lang {
                cocci_trace::count(cocci_trace::Counter::ParseCacheHits, 1);
                return Ok(Arc::clone(tu));
            }
        }
        if let Some((lang, e)) = &self.parse_err {
            if *lang == opts.lang {
                cocci_trace::count(cocci_trace::Counter::ParseCacheHits, 1);
                return Err(e.clone());
            }
        }
        self.parses += 1;
        let parsed = timed(&mut self.shared_time, || {
            parse_translation_unit(&self.text, opts, &NoMeta)
        });
        match parsed {
            Ok(tu) => {
                let tu = Arc::new(tu);
                self.parsed = Some((opts.lang, Arc::clone(&tu)));
                Ok(tu)
            }
            Err(e) => {
                let msg = e.to_string();
                self.parse_err = Some((opts.lang, msg.clone()));
                Err(msg)
            }
        }
    }

    /// The line/col resolver for the text, built on first use.
    pub fn resolver(&mut self) -> Arc<Resolver> {
        match &self.resolver {
            Some(r) => Arc::clone(r),
            None => {
                let r = timed(&mut self.shared_time, || {
                    Arc::new(Resolver::new(&self.name, &self.text))
                });
                self.resolver = Some(Arc::clone(&r));
                r
            }
        }
    }

    /// The `// spatch-ignore` suppression index, built on first use.
    pub fn suppressions(&mut self) -> Arc<SuppressionIndex> {
        match &self.suppress {
            Some(s) => Arc::clone(s),
            None => {
                let s = timed(&mut self.shared_time, || {
                    Arc::new(SuppressionIndex::parse(&self.text))
                });
                self.suppress = Some(Arc::clone(&s));
                s
            }
        }
    }

    /// The shared per-function CFG cache.
    pub fn cfgs(&mut self) -> &mut CfgCache {
        &mut self.cfgs
    }

    /// The leaf items of `tu` (numbered in [`visit::walk_items`] order)
    /// whose span holds an occurrence of every atom in `atoms`, ascending.
    /// `atoms` must not be empty, and `tu` must be a parse of this
    /// context's text; the memo follows the most recent one asked about.
    pub(crate) fn anchor_items(&mut self, tu: &Arc<TranslationUnit>, atoms: &[String]) -> Vec<u32> {
        let anchors = match &mut self.anchors {
            Some(a) if Arc::ptr_eq(&a.tu, tu) => a,
            slot => timed(&mut self.shared_time, || {
                let mut spans = Vec::new();
                visit::walk_items(tu, &mut |it| spans.push(it.span()));
                slot.insert(Anchors {
                    tu: Arc::clone(tu),
                    spans,
                    by_atom: HashMap::new(),
                })
            }),
        };
        for atom in atoms {
            if !anchors.by_atom.contains_key(atom) {
                let items = timed(&mut self.shared_time, || {
                    items_holding(&self.text, &anchors.spans, atom)
                });
                anchors.by_atom.insert(atom.clone(), items);
            }
        }
        let mut lists: Vec<&[u32]> = atoms.iter().map(|a| &anchors.by_atom[a][..]).collect();
        lists.sort_by_key(|l| l.len());
        let (first, rest) = lists.split_first().expect("at least one atom");
        first
            .iter()
            .copied()
            .filter(|i| rest.iter().all(|l| l.binary_search(i).is_ok()))
            .collect()
    }

    /// How many times the file text was actually parsed through this
    /// context — the probe behind the scan engine's "one parse serves N
    /// rules" guarantee.
    pub fn parses(&self) -> usize {
        self.parses
    }

    /// Wall time spent building this context's shared state: parse, line
    /// table, suppression index and anchor memo. Every rule uses it, so
    /// per-rule timings leave it out.
    pub(crate) fn shared_time(&self) -> Duration {
        self.shared_time
    }

    /// How many per-function CFGs were built through this context.
    pub fn cfg_builds(&self) -> usize {
        self.cfgs.builds()
    }
}

/// Run `build`, adding its wall time to `spent`.
fn timed<T>(spent: &mut Duration, build: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let built = build();
    *spent += t0.elapsed();
    built
}

/// The numbers of the items in `spans` (sorted, disjoint) that wholly
/// contain an occurrence of `atom` in `text`, ascending. After a hit the
/// search resumes at the end of that item; after an occurrence no item
/// contains, one character on, so overlapping occurrences are seen.
fn items_holding(text: &str, spans: &[Span], atom: &str) -> Vec<u32> {
    let mut out = Vec::new();
    let step = atom.chars().next().map_or(1, char::len_utf8);
    let mut from = 0usize;
    while let Some(off) = text.get(from..).and_then(|rest| rest.find(atom)) {
        let start = (from + off) as u32;
        let end = start + atom.len() as u32;
        let i = spans.partition_point(|s| s.start <= start);
        match i.checked_sub(1).filter(|&k| spans[k].end >= end) {
            Some(k) => {
                out.push(k as u32);
                from = spans[k].end as usize;
            }
            None => from = start as usize + step,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_is_cached_per_lang() {
        let mut ctx = FileContext::new("a.c", "void f(void) { g(); }\n");
        let opts = ParseOptions {
            pattern: false,
            lang: Lang::C,
        };
        let t1 = ctx.parse(opts).unwrap();
        let t2 = ctx.parse(opts).unwrap();
        assert!(Arc::ptr_eq(&t1, &t2));
        assert_eq!(ctx.parses(), 1);
    }

    #[test]
    fn parse_errors_are_cached() {
        let mut ctx = FileContext::new("bad.c", "void broken( {\n");
        let opts = ParseOptions {
            pattern: false,
            lang: Lang::C,
        };
        let e1 = ctx.parse(opts).unwrap_err();
        let e2 = ctx.parse(opts).unwrap_err();
        assert_eq!(e1, e2);
        assert_eq!(ctx.parses(), 1);
    }

    #[test]
    fn resolver_and_suppressions_are_shared() {
        let mut ctx = FileContext::new("a.c", "int x; // spatch-ignore\n");
        let r1 = ctx.resolver();
        let r2 = ctx.resolver();
        assert!(Arc::ptr_eq(&r1, &r2));
        let s1 = ctx.suppressions();
        let s2 = ctx.suppressions();
        assert!(Arc::ptr_eq(&s1, &s2));
    }

    #[test]
    fn anchor_items_hold_every_atom() {
        let mut ctx = FileContext::new(
            "a.cpp",
            "int a = 1; // foo\nvoid f(void) { foo(); bar(); }\nvoid g(void) { bar(); }\n\
             /* foo bar */ namespace n { void h(void) { foo(bar); } }\n",
        );
        let tu = ctx
            .parse(ParseOptions {
                pattern: false,
                lang: Lang::Cpp,
            })
            .unwrap();
        let mut items = |atoms: &[&str]| {
            let atoms: Vec<String> = atoms.iter().map(|a| a.to_string()).collect();
            ctx.anchor_items(&tu, &atoms)
        };
        // Items: `a` (its comment lies outside it), f, g, h.
        assert_eq!(items(&["foo"]), [1, 3]);
        assert_eq!(items(&["bar"]), [1, 2, 3]);
        assert_eq!(items(&["bar", "foo"]), [1, 3]);
        assert_eq!(items(&["baz", "foo"]), [] as [u32; 0]);
        // An occurrence straddling two items belongs to neither.
        assert_eq!(items(&["}\nvoid g"]), [] as [u32; 0]);
    }

    #[test]
    fn hash_matches_content_hash() {
        let ctx = FileContext::new("a.c", "text");
        assert_eq!(ctx.hash(), content_hash("text"));
    }
}
