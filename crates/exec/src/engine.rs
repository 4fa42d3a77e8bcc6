//! The parallel split-evaluation engine: [`ExecSpanner`], a shared
//! handle on the tiered engine core
//! ([`splitc_spanner::engine::TieredEvsa`], which owns tier selection,
//! the document gate and pooled scan caches; [`Engine`] is re-exported
//! from there), and the split / many-document evaluation entry points
//! over scoped threads (`pool::scoped_map`).

use crate::pool::scoped_map;
use splitc_spanner::dense::DenseCache;
use splitc_spanner::engine::TieredEvsa;
use splitc_spanner::evsa::EVsa;
use splitc_spanner::prefilter::PrefilterStats;
use splitc_spanner::span::Span;
use splitc_spanner::splitter::Splitter;
use splitc_spanner::tuple::SpanRelation;
use splitc_spanner::vsa::Vsa;
use std::sync::Arc;

pub use splitc_spanner::engine::Engine;

/// A splitting function: documents to split spans. Native splitters
/// (`splitc_spanner::splitter::native`) are used on large corpora;
/// formal splitters can be wrapped via [`split_fn_of_splitter`].
pub type SplitFn = Arc<dyn Fn(&[u8]) -> Vec<Span> + Send + Sync>;

/// Wraps a formal (automaton) splitter as a [`SplitFn`].
pub fn split_fn_of_splitter(s: &Splitter) -> SplitFn {
    let compiled = s.compile();
    Arc::new(move |doc| compiled.split(doc))
}

/// A spanner compiled for repeated evaluation: a shared handle on the
/// tiered engine core ([`TieredEvsa`]), which holds the tier, the
/// optional document gate and the pooled scan caches.
#[derive(Debug, Clone)]
pub struct ExecSpanner {
    core: Arc<TieredEvsa>,
}

impl ExecSpanner {
    /// Compiles a VSet-automaton once (functionalization + block normal
    /// form) with the default [`Engine::Dense`]. Thin wrapper over
    /// [`crate::CompileOptions`], the general front door.
    pub fn compile(vsa: &Vsa) -> ExecSpanner {
        crate::CompileOptions::new().compile_spanner(vsa)
    }

    /// Compiles with an explicit engine choice. Thin wrapper over
    /// [`crate::CompileOptions::engine`].
    pub fn compile_with(vsa: &Vsa, engine: Engine) -> ExecSpanner {
        crate::CompileOptions::new()
            .engine(engine)
            .compile_spanner(vsa)
    }

    /// Wraps a compiled core.
    pub(crate) fn from_core(core: TieredEvsa) -> ExecSpanner {
        ExecSpanner {
            core: Arc::new(core),
        }
    }

    /// The engine this spanner was compiled for (as requested; see
    /// [`ExecSpanner::tier`] for the tier actually chosen).
    pub fn engine(&self) -> Engine {
        self.core.engine()
    }

    /// The engine tier the compile-time tiering actually selected:
    /// equals [`ExecSpanner::engine`] except when an [`Engine::Aot`]
    /// request exceeded the AOT state budget and degraded to
    /// [`Engine::Dense`].
    pub fn tier(&self) -> Engine {
        self.core.tier()
    }

    /// The compiled block-normal-form automaton.
    pub fn evsa(&self) -> &EVsa {
        self.core.evsa()
    }

    /// A process-unique identity for this compilation, used as the
    /// spanner half of [`crate::segcache::SegmentCache`] keys. It is the
    /// address of the shared eVSA allocation: clones of one compilation
    /// share cache entries, while independent compilations (even of the
    /// same pattern) get distinct ids — which costs at most extra cache
    /// misses, never a wrong answer. Long-lived services that want
    /// cross-request sharing should therefore reuse compiled spanners
    /// (as `splitc-server`'s registry does) rather than recompile.
    pub fn cache_id(&self) -> u64 {
        Arc::as_ptr(self.core.evsa()) as u64
    }

    /// Evaluates on one document.
    pub fn eval(&self, doc: &[u8]) -> SpanRelation {
        self.core.eval(doc)
    }

    /// Evaluates on one document with caller-owned scratch, typically
    /// one cache and stats accumulator per worker (the corpus and fleet
    /// runners); see [`TieredEvsa::eval_with`].
    pub(crate) fn eval_with(
        &self,
        doc: &[u8],
        cache: &mut DenseCache,
        stats: &mut PrefilterStats,
    ) -> SpanRelation {
        self.core.eval_with(doc, cache, stats)
    }
}

/// Sequential baseline: evaluates the spanner on the whole document.
pub fn evaluate_sequential(spanner: &ExecSpanner, doc: &[u8]) -> SpanRelation {
    spanner.eval(doc)
}

/// Split-and-distribute evaluation: splits `doc`, evaluates the (split-)
/// spanner on every chunk on a pool of `workers` threads, shifts and
/// unions the results. When `P = P_S ∘ S` has been certified, this
/// equals `evaluate_sequential(P, doc)`.
///
/// `workers == 0` is normalized to 1 (sequential evaluation on the
/// calling thread), as in every pool entry point of this crate.
pub fn evaluate_split(
    split_spanner: &ExecSpanner,
    split: &SplitFn,
    doc: &[u8],
    workers: usize,
) -> SpanRelation {
    let chunks = split(doc);
    if chunks.is_empty() {
        return SpanRelation::empty();
    }
    let results = scoped_map(workers, chunks.len(), |i| {
        let sp = chunks[i];
        let mut local = split_spanner.eval(sp.slice(doc));
        local.shift_in_place(sp);
        local
    });
    SpanRelation::concat(results)
}

/// Evaluates the spanner over a collection of documents, one task per
/// document (the "pre-parallel" baseline of the paper's Spark
/// experiments). Returns one relation per document, in order.
/// `workers == 0` is normalized to 1.
pub fn evaluate_many(spanner: &ExecSpanner, docs: &[&[u8]], workers: usize) -> Vec<SpanRelation> {
    scoped_map(workers, docs.len(), |i| spanner.eval(docs[i]))
}

/// Evaluates over a collection of documents with **per-chunk tasks**:
/// every document is split and each (doc, chunk) pair becomes one pool
/// task — more, smaller tasks for the same pool, reproducing the paper's
/// observation that splitting helps even for pre-parallel collections.
/// `workers == 0` is normalized to 1.
pub fn evaluate_many_split(
    split_spanner: &ExecSpanner,
    split: &SplitFn,
    docs: &[&[u8]],
    workers: usize,
) -> Vec<SpanRelation> {
    // Flatten (doc, chunk) pairs.
    let mut tasks: Vec<(usize, Span)> = Vec::new();
    for (di, doc) in docs.iter().enumerate() {
        for sp in split(doc) {
            tasks.push((di, sp));
        }
    }
    // Empty task lists skip the pool and merge machinery entirely —
    // frequent when splits produce nothing. (Singleton lists are already
    // run inline by `scoped_map`, which spawns no threads for `n <= 1`.)
    if tasks.is_empty() {
        return docs.iter().map(|_| SpanRelation::empty()).collect();
    }
    let partials = scoped_map(workers, tasks.len(), |i| {
        let (di, sp) = tasks[i];
        let mut local = split_spanner.eval(sp.slice(docs[di]));
        local.shift_in_place(sp);
        (di, local)
    });
    let mut per_doc: Vec<Vec<SpanRelation>> = vec![Vec::new(); docs.len()];
    for (di, rel) in partials {
        per_doc[di].push(rel);
    }
    per_doc.into_iter().map(SpanRelation::concat).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitc_spanner::rgx::Rgx;
    use splitc_spanner::splitter::{self, native};

    fn spanner(pat: &str) -> ExecSpanner {
        ExecSpanner::compile(&Rgx::parse(pat).unwrap().to_vsa().unwrap())
    }

    #[test]
    fn split_evaluation_matches_sequential() {
        // A self-splittable extractor: all a-runs; sentence splitter.
        let p = spanner(".*x{a+}.*");
        let split: SplitFn = Arc::new(native::sentences);
        let doc = b"aa bb aaa. a. bbb aa";
        for workers in [1, 2, 4] {
            assert_eq!(
                evaluate_split(&p, &split, doc, workers),
                evaluate_sequential(&p, doc),
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn formal_splitter_wrapping() {
        let p = spanner(".*x{a+}.*");
        let split = split_fn_of_splitter(&splitter::sentences());
        let doc = b"aa.bb aaa";
        assert_eq!(
            evaluate_split(&p, &split, doc, 2),
            evaluate_sequential(&p, doc)
        );
    }

    #[test]
    fn empty_and_trivial_documents() {
        let p = spanner(".*x{a+}.*");
        let split: SplitFn = Arc::new(native::sentences);
        assert!(evaluate_split(&p, &split, b"", 4).is_empty());
        assert!(evaluate_split(&p, &split, b"...", 4).is_empty());
    }

    #[test]
    fn many_documents_both_granularities() {
        let p = spanner(".*x{a+}.*");
        let split: SplitFn = Arc::new(native::sentences);
        let docs: Vec<&[u8]> = vec![b"aa. b aa", b"", b"a.a.a", b"bbb"];
        let per_doc = evaluate_many(&p, &docs, 3);
        let per_chunk = evaluate_many_split(&p, &split, &docs, 3);
        assert_eq!(per_doc.len(), docs.len());
        assert_eq!(per_doc, per_chunk);
        // "aa. b aa": x{a+} matches every a+ substring — 3 per a-pair.
        assert_eq!(per_doc[0].len(), 6);
        assert!(per_doc[1].is_empty());
    }

    #[test]
    fn pool_order_is_stable() {
        let p = spanner("x{a*}");
        let docs: Vec<Vec<u8>> = (0..64).map(|i| vec![b'a'; i % 7]).collect();
        let refs: Vec<&[u8]> = docs.iter().map(Vec::as_slice).collect();
        let out = evaluate_many(&p, &refs, 8);
        for (i, rel) in out.iter().enumerate() {
            assert_eq!(rel.len(), 1);
            assert_eq!(
                rel.tuple(0).spans()[0].len(),
                i % 7,
                "order must be preserved"
            );
        }
    }

    #[test]
    fn engines_agree_and_default_is_dense() {
        let pat = ".*x{a+}.*";
        let p = Rgx::parse(pat).unwrap().to_vsa().unwrap();
        let nfa = ExecSpanner::compile_with(&p, Engine::Nfa);
        let dense = ExecSpanner::compile_with(&p, Engine::Dense);
        assert_eq!(nfa.engine(), Engine::Nfa);
        assert_eq!(dense.engine(), Engine::Dense);
        assert_eq!(ExecSpanner::compile(&p).engine(), Engine::Dense);
        let split: SplitFn = Arc::new(native::sentences);
        for doc in [b"aa bb aaa. a. bbb aa".as_slice(), b"", b"..."] {
            assert_eq!(nfa.eval(doc), dense.eval(doc));
            assert_eq!(
                evaluate_split(&nfa, &split, doc, 2),
                evaluate_split(&dense, &split, doc, 2)
            );
        }
        assert_eq!("nfa".parse::<Engine>().unwrap(), Engine::Nfa);
        assert_eq!("dense".parse::<Engine>().unwrap(), Engine::Dense);
        assert_eq!("prefilter".parse::<Engine>().unwrap(), Engine::Prefilter);
        assert!("turbo".parse::<Engine>().is_err());
    }

    #[test]
    fn prefilter_engine_agrees_with_dense() {
        // Sparse-match extractor: most sentences are gate-rejected, and
        // the relations still match the other engines exactly.
        let pat = "(.*[^0-9]|)x{[0-9]+}([^0-9].*|)";
        let p = Rgx::parse(pat).unwrap().to_vsa().unwrap();
        let dense = ExecSpanner::compile_with(&p, Engine::Dense);
        let pre = ExecSpanner::compile_with(&p, Engine::Prefilter);
        assert_eq!(pre.engine(), Engine::Prefilter);
        assert_eq!(pre.engine().name(), "prefilter");
        let split: SplitFn = Arc::new(native::sentences);
        for doc in [
            b"no numbers anywhere. plain words. more text".as_slice(),
            b"answer 42. or 7 maybe. none here",
            b"",
            b"...",
        ] {
            assert_eq!(pre.eval(doc), dense.eval(doc));
            assert_eq!(
                evaluate_split(&pre, &split, doc, 2),
                evaluate_split(&dense, &split, doc, 2)
            );
        }
    }

    #[test]
    fn aot_engine_agrees_and_reports_tier() {
        let pat = "(.*[^0-9]|)x{[0-9]+}([^0-9].*|)";
        let p = Rgx::parse(pat).unwrap().to_vsa().unwrap();
        let dense = ExecSpanner::compile_with(&p, Engine::Dense);
        let aot = ExecSpanner::compile_with(&p, Engine::Aot);
        assert_eq!(aot.engine(), Engine::Aot);
        assert_eq!(aot.tier(), Engine::Aot, "small spanner must fit the budget");
        assert_eq!(dense.tier(), Engine::Dense);
        assert_eq!("aot".parse::<Engine>().unwrap(), Engine::Aot);
        let split: SplitFn = Arc::new(native::sentences);
        for doc in [
            b"no numbers anywhere. plain words. more text".as_slice(),
            b"answer 42. or 7 maybe. none here",
            b"",
            b"...",
        ] {
            assert_eq!(aot.eval(doc), dense.eval(doc));
            assert_eq!(
                evaluate_split(&aot, &split, doc, 2),
                evaluate_split(&dense, &split, doc, 2)
            );
        }
    }

    #[test]
    fn many_split_short_circuits_empty_and_singleton_tasks() {
        let p = spanner(".*x{a+}.*");
        let split: SplitFn = Arc::new(native::sentences);
        // No chunks at all: one empty relation per document, pool skipped.
        let empties: Vec<&[u8]> = vec![b"...", b"", b"."];
        let out = evaluate_many_split(&p, &split, &empties, 4);
        assert_eq!(out.len(), empties.len());
        assert!(out.iter().all(SpanRelation::is_empty));
        assert_eq!(out, evaluate_many(&p, &empties, 4));
        // Exactly one chunk across the collection: inline evaluation,
        // results identical to the pooled path and correctly shifted.
        let single: Vec<&[u8]> = vec![b"...", b".aa a", b""];
        let out = evaluate_many_split(&p, &split, &single, 4);
        assert_eq!(out, evaluate_many(&p, &single, 4));
        assert_eq!(out[1].len(), 4, "a-runs of \"aa a\": aa, a, a, a");
        // No documents at all.
        assert!(evaluate_many_split(&p, &split, &[], 4).is_empty());
    }

    #[test]
    fn zero_workers_normalized_to_sequential() {
        // The documented contract: `workers == 0` behaves exactly like
        // `workers == 1` in every pool entry point (it used to panic).
        let p = spanner(".*x{a+}.*");
        let split: SplitFn = Arc::new(native::sentences);
        let doc = b"aa bb aaa. a. bbb aa";
        let docs: Vec<&[u8]> = vec![doc, b"", b"a.a"];
        assert_eq!(
            evaluate_split(&p, &split, doc, 0),
            evaluate_split(&p, &split, doc, 1)
        );
        assert_eq!(evaluate_many(&p, &docs, 0), evaluate_many(&p, &docs, 1));
        assert_eq!(
            evaluate_many_split(&p, &split, &docs, 0),
            evaluate_many_split(&p, &split, &docs, 1)
        );
    }

    #[test]
    fn split_spanner_differs_from_p_when_not_self_splittable() {
        // Sanity: the engine computes P_S ∘ S; if P is not
        // self-splittable, distributing P itself changes the semantics —
        // which the engine faithfully reflects.
        let p = spanner(".*x{a\\.a}.*");
        let split: SplitFn = Arc::new(native::sentences);
        let doc = b"a.a";
        assert_eq!(evaluate_sequential(&p, doc).len(), 1);
        assert!(evaluate_split(&p, &split, doc, 2).is_empty());
    }
}
