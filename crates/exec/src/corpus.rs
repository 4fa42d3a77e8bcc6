//! Streaming sharded corpus execution.
//!
//! [`CorpusRunner`] is the production shape of the paper's parallel
//! evaluation payoff: instead of materializing every document and
//! calling [`crate::evaluate_many_split`], it *streams* each document
//! through a [`StreamingSplitter`](crate::StreamingSplitter) (constant
//! memory per document), batches the emitted segments to amortize
//! dispatch, fans the batches out to a worker pool over a **bounded**
//! queue (backpressure, so peak memory is about `(queue depth + workers)
//! × batch bytes` of stream plus a chunk at either end, never corpus
//! size), evaluates each segment with one
//! [`ExecSpanner`] through a per-worker lazy-DFA cache, and aggregates
//! per-document [`SpanRelation`]s with deterministic ordering
//! regardless of worker scheduling.
//!
//! The runner is a typed wrapper over the crate's one streaming pipeline
//! (the private `pipeline` module), which it shares with
//! [`crate::FleetRunner`]; this module contributes the single-spanner
//! `SegmentWork` and the [`CorpusStats`] view of a run.
//!
//! When `P = P_S ∘ S` has been certified split-correct
//! (`splitc-core`), the relations returned here equal whole-document
//! evaluation of `P` — the differential proptest suite asserts equality
//! with [`crate::evaluate_many_split`] on every run.

use crate::engine::ExecSpanner;
use crate::pipeline::{Pipeline, Run, SegmentWork};
use crate::pool::EvalPool;
use crate::segcache::SegmentCache;
use splitc_spanner::dense::{DenseCache, DenseCacheStats};
use splitc_spanner::prefilter::PrefilterStats;
use splitc_spanner::span::Span;
use splitc_spanner::splitter::CompiledSplitter;
use splitc_spanner::tuple::SpanRelation;
use std::sync::Arc;

/// Tuning knobs of a [`CorpusRunner`].
#[derive(Debug, Clone, Copy)]
pub struct CorpusRunnerConfig {
    /// Evaluation worker threads (the producer streams and splits on the
    /// calling thread). `0` is normalized to 1, matching the contract of
    /// the engine's pool entry points.
    pub workers: usize,
    /// Target payload per dispatched batch: segments are accumulated
    /// until the stream they span reaches this many bytes (each segment
    /// counting at least its queue entry), so corpora of tiny segments do
    /// not pay one queue round-trip per segment.
    pub batch_bytes: usize,
    /// Capacity of the bounded work queue, in batches. The producer
    /// blocks when the queue is full (backpressure). A queued segment is
    /// a range of a chunk the splitter read and pins that chunk, and a
    /// batch is charged the stream its segments span, so peak in-flight
    /// memory is the chunks under `queue_depth` batches plus one batch
    /// per worker: about that many `batch_bytes` of stream, plus a chunk
    /// at either end.
    pub queue_depth: usize,
    /// Chunk size used by [`CorpusRunner::run_slices`] when feeding
    /// already-materialized documents through the streaming path.
    pub chunk_bytes: usize,
}

impl Default for CorpusRunnerConfig {
    fn default() -> Self {
        CorpusRunnerConfig {
            workers: 4,
            batch_bytes: 32 << 10,
            queue_depth: 8,
            chunk_bytes: 64 << 10,
        }
    }
}

impl CorpusRunnerConfig {
    /// Returns a copy with every zero knob normalized to its minimum
    /// legal value (1). This is *the* normalization every runner entry
    /// point applies — callers holding possibly-zero configured values
    /// can pass them straight through, and services that want a typed
    /// rejection instead can validate up front (see
    /// `splitc-server`'s config layer) rather than rely on panics.
    pub fn normalized(self) -> CorpusRunnerConfig {
        CorpusRunnerConfig {
            workers: self.workers.max(1),
            batch_bytes: self.batch_bytes.max(1),
            queue_depth: self.queue_depth.max(1),
            chunk_bytes: self.chunk_bytes.max(1),
        }
    }
}

/// Run statistics of one [`CorpusRunner`] invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CorpusStats {
    /// Documents streamed.
    pub docs: usize,
    /// Documents whose relation was reused verbatim from a
    /// [`crate::CorpusHandle`] extraction memo instead of being run
    /// (always 0 outside [`crate::CorpusHandle::extract`]).
    pub docs_reused: usize,
    /// Split segments evaluated.
    pub segments: usize,
    /// Total bytes across all evaluated segments.
    pub segment_bytes: u64,
    /// Batches dispatched to the worker pool.
    pub batches: usize,
    /// Largest `[low watermark, position)` window any document's
    /// streaming splitter held at once — bounded by segment + chunk
    /// length for prompt splitters, not by document size. The chunks
    /// overlapping it, and those that queued segments share, are what
    /// stays resident.
    pub peak_buffered_bytes: usize,
    /// Aggregated per-worker lazy-DFA cache statistics (all zero under
    /// [`crate::Engine::Nfa`]).
    pub cache: DenseCacheStats,
    /// Aggregated prefilter statistics: worker-side gate rejections and
    /// skip-loop jumps (non-zero only under [`crate::Engine::Prefilter`]).
    pub prefilter: PrefilterStats,
    /// Bytes the streaming splitter's own skip loop jumped instead of
    /// stepping (any engine).
    pub splitter_bytes_skipped: u64,
    /// Segment bytes the streaming splitter copied because their segment
    /// crossed a chunk boundary (see
    /// [`crate::StreamStats::bytes_stitched`]); every other segment is a
    /// range of a chunk the splitter already held.
    pub splitter_bytes_stitched: u64,
}

/// The outcome of a corpus run: one relation per input document (in
/// input order) plus run statistics.
#[derive(Debug, Clone)]
pub struct CorpusResult {
    /// Per-document span relations, index-aligned with the input order.
    pub relations: Vec<SpanRelation>,
    /// Statistics of the run.
    pub stats: CorpusStats,
}

impl CorpusResult {
    /// The corpus view of a pipeline run: member 0 of every document.
    pub(crate) fn from_run(run: Run<(DenseCacheStats, PrefilterStats)>) -> CorpusResult {
        let (f, (cache, prefilter)) = (run.feed, run.tally);
        CorpusResult {
            relations: run
                .relations
                .into_iter()
                .map(|row| row.into_iter().next().expect("one member"))
                .collect(),
            stats: CorpusStats {
                docs: f.docs,
                docs_reused: f.docs_reused,
                segments: f.segments,
                segment_bytes: f.segment_bytes,
                batches: f.batches,
                peak_buffered_bytes: f.peak_buffered_bytes,
                cache,
                prefilter,
                splitter_bytes_skipped: f.splitter_skipped,
                splitter_bytes_stitched: f.splitter_stitched,
            },
        }
    }
}

/// One spanner per segment, with a per-worker lazy-DFA cache and
/// prefilter counters as scratch. Hits in a segment cache return the
/// stored relation, byte-identical to the engine call they replace.
impl SegmentWork for ExecSpanner {
    type Scratch = (DenseCache, PrefilterStats);
    type Tally = (DenseCacheStats, PrefilterStats);

    fn members(&self) -> usize {
        1
    }

    fn memo_id(&self) -> u64 {
        self.cache_id()
    }

    fn scratch(&self) -> Self::Scratch {
        (DenseCache::default(), PrefilterStats::default())
    }

    fn eval(
        &self,
        bytes: &[u8],
        cache: Option<&SegmentCache>,
        (dense, prefilter): &mut Self::Scratch,
        mut emit: impl FnMut(usize, SpanRelation),
    ) {
        match cache {
            Some(sc) => emit(
                0,
                SpanRelation::clone(
                    &sc.get_or_eval(self.cache_id(), bytes, || {
                        self.eval_with(bytes, dense, prefilter)
                    })
                    .0,
                ),
            ),
            None => emit(0, self.eval_with(bytes, dense, prefilter)),
        }
    }

    fn tally(&self, (dense, prefilter): Self::Scratch) -> Self::Tally {
        (dense.stats(), prefilter)
    }

    fn merge(total: &mut Self::Tally, part: Self::Tally) {
        *total = (total.0.merge(part.0), total.1.merge(part.1));
    }
}

/// Streaming sharded corpus executor. See the [module docs](self) for
/// the pipeline shape; construct with [`CorpusRunner::new`] and feed a
/// corpus with [`CorpusRunner::run_streams`] (chunked sources) or
/// [`CorpusRunner::run_slices`] (materialized documents, driven through
/// the same streaming path).
#[derive(Debug)]
pub struct CorpusRunner(Pipeline<ExecSpanner>);

impl CorpusRunner {
    /// Creates a runner evaluating `spanner` over the segments produced
    /// by `splitter`. For results equal to whole-document evaluation the
    /// pair must be certified split-correct; the runner itself computes
    /// `P_S ∘ S` faithfully either way.
    pub fn new(
        spanner: ExecSpanner,
        splitter: CompiledSplitter,
        config: CorpusRunnerConfig,
    ) -> CorpusRunner {
        CorpusRunner(Pipeline::new(Arc::new(spanner), splitter, config, None))
    }

    /// [`CorpusRunner::new`], but evaluation workers run on the shared
    /// long-lived `pool` instead of per-run spawned threads. Results are
    /// identical; only the thread lifecycle differs — a server reusing
    /// one pool across requests pays zero spawn/join per request. A pool
    /// smaller than `config.workers` still completes every run (worker
    /// loops are self-draining; see [`crate::pool`]).
    pub fn with_pool(
        spanner: ExecSpanner,
        splitter: CompiledSplitter,
        config: CorpusRunnerConfig,
        pool: Arc<EvalPool>,
    ) -> CorpusRunner {
        CorpusRunner(Pipeline::new(
            Arc::new(spanner),
            splitter,
            config,
            Some(pool),
        ))
    }

    /// Attaches a shared [`SegmentCache`]: workers look each segment up
    /// by content before dispatching the engine, so repeated segments —
    /// across documents, runs, and (for a process-wide cache) requests —
    /// are answered without re-evaluation. Results are byte-identical
    /// with or without a cache (hits return exactly the relation the
    /// engine would compute; the deterministic merge is unchanged).
    pub fn with_segment_cache(self, cache: Arc<SegmentCache>) -> CorpusRunner {
        CorpusRunner(self.0.with_segment_cache(cache))
    }

    /// The runner's configuration.
    pub fn config(&self) -> &CorpusRunnerConfig {
        &self.0.config
    }

    /// The pipeline this runner wraps (for [`crate::CorpusHandle`]).
    pub(crate) fn pipeline(&self) -> &Pipeline<ExecSpanner> {
        &self.0
    }

    /// Streams a corpus of chunked document sources through the
    /// pipeline. Each item of `docs` is one document, delivered as an
    /// iterator of byte chunks (e.g. reads from a file or a generator) —
    /// no document is ever materialized by the runner.
    pub fn run_streams<D, C, B>(&self, docs: D) -> CorpusResult
    where
        D: IntoIterator<Item = C>,
        C: IntoIterator<Item = B>,
        B: AsRef<[u8]>,
    {
        CorpusResult::from_run(self.0.run_streams(docs))
    }

    /// Evaluates documents whose split is **already known**, skipping
    /// the splitter entirely: each item is `(document bytes, split
    /// spans)`. This is the re-query path of the incremental layer —
    /// [`crate::handle::CorpusHandle`] maintains segmentations across
    /// edits and re-extracts through this entry point, so an unchanged
    /// segment costs one cache lookup instead of a resplit + dispatch.
    ///
    /// The spans must be the splitter's output for those bytes (the
    /// handle guarantees this); the pipeline downstream of splitting —
    /// batching, pooling, caching, deterministic merge — is identical to
    /// [`CorpusRunner::run_streams`].
    pub fn run_presplit<'a, D>(&self, docs: D) -> CorpusResult
    where
        D: IntoIterator<Item = (&'a [u8], &'a [Span])>,
    {
        CorpusResult::from_run(self.0.run_presplit(docs))
    }

    /// Runs already-materialized documents through the streaming path,
    /// feeding each in [`CorpusRunnerConfig::chunk_bytes`] chunks. This
    /// is the entry point the differential tests and the
    /// `e5_corpus_stream` benchmark compare against
    /// [`crate::evaluate_many_split`].
    pub fn run_slices(&self, docs: &[&[u8]]) -> CorpusResult {
        CorpusResult::from_run(self.0.run_slices(docs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{evaluate_many_split, split_fn_of_splitter, Engine, SplitFn};
    use splitc_spanner::rgx::Rgx;
    use splitc_spanner::splitter;
    use splitc_spanner::vsa::Vsa;

    fn vsa(pat: &str) -> Vsa {
        Rgx::parse(pat).unwrap().to_vsa().unwrap()
    }

    fn runner(pat: &str, config: CorpusRunnerConfig) -> CorpusRunner {
        CorpusRunner::new(
            ExecSpanner::compile(&vsa(pat)),
            splitter::sentences().compile(),
            config,
        )
    }

    fn docs() -> Vec<Vec<u8>> {
        vec![
            b"aa bb. aaa. b aa".to_vec(),
            b"".to_vec(),
            b"no delimiter aaa".to_vec(),
            b"a.a.a.".to_vec(),
            b"...".to_vec(),
        ]
    }

    #[test]
    fn matches_evaluate_many_split() {
        let owned = docs();
        let refs: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
        let r = runner(
            ".*x{a+}.*",
            CorpusRunnerConfig {
                workers: 3,
                batch_bytes: 4,
                queue_depth: 2,
                chunk_bytes: 3,
            },
        );
        let got = r.run_slices(&refs);
        let split: SplitFn = split_fn_of_splitter(&splitter::sentences());
        let spanner = ExecSpanner::compile(&vsa(".*x{a+}.*"));
        let expected = evaluate_many_split(&spanner, &split, &refs, 3);
        assert_eq!(got.relations, expected);
        assert_eq!(got.stats.docs, refs.len());
        assert!(got.stats.segments > 0);
    }

    #[test]
    fn nfa_engine_and_zero_workers() {
        let owned = docs();
        let refs: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
        let r = CorpusRunner::new(
            ExecSpanner::compile_with(&vsa(".*x{a+}.*"), Engine::Nfa),
            splitter::sentences().compile(),
            CorpusRunnerConfig {
                workers: 0,
                ..Default::default()
            },
        );
        let got = r.run_slices(&refs);
        let split: SplitFn = split_fn_of_splitter(&splitter::sentences());
        let spanner = ExecSpanner::compile(&vsa(".*x{a+}.*"));
        assert_eq!(
            got.relations,
            evaluate_many_split(&spanner, &split, &refs, 1)
        );
        assert_eq!(got.stats.cache, DenseCacheStats::default());
    }

    #[test]
    fn cache_is_warm_on_repetitive_corpora() {
        let owned: Vec<Vec<u8>> = (0..50).map(|_| b"aa bb. cc aa. aaa".to_vec()).collect();
        let refs: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
        let r = runner(
            ".*x{a+}.*",
            CorpusRunnerConfig {
                workers: 2,
                ..Default::default()
            },
        );
        let got = r.run_slices(&refs);
        assert!(
            got.stats.cache.hit_rate() > 0.9,
            "lazy DFA should be amortized: {:?}",
            got.stats.cache
        );
    }

    #[test]
    fn streaming_buffer_is_bounded() {
        // One 64 KiB document of short sentences, streamed in 512-byte
        // chunks: the splitter window must stay near segment + chunk.
        let doc: Vec<u8> = (0..4096)
            .flat_map(|_| b"aaaa bb aaaa cc.".to_vec())
            .collect();
        let refs: Vec<&[u8]> = vec![&doc];
        let r = runner(
            ".*x{a+}.*",
            CorpusRunnerConfig {
                workers: 2,
                chunk_bytes: 512,
                ..Default::default()
            },
        );
        let got = r.run_slices(&refs);
        assert!(
            got.stats.peak_buffered_bytes <= 512 + 64,
            "peak {} should be ~chunk+segment, doc is {}",
            got.stats.peak_buffered_bytes,
            doc.len()
        );
    }

    #[test]
    fn prefilter_engine_matches_and_reports_stats() {
        // A sparse corpus: only one sentence in many contains a digit.
        let mut owned: Vec<Vec<u8>> = (0..20)
            .map(|_| b"plain words only here. nothing to find. still nothing".to_vec())
            .collect();
        owned.push(b"the answer is 42. plain tail".to_vec());
        let refs: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
        let pat = "(.*[^0-9]|)x{[0-9]+}([^0-9].*|)";
        let pre = CorpusRunner::new(
            ExecSpanner::compile_with(&vsa(pat), Engine::Prefilter),
            splitter::sentences().compile(),
            CorpusRunnerConfig {
                workers: 2,
                ..Default::default()
            },
        );
        let dense = CorpusRunner::new(
            ExecSpanner::compile_with(&vsa(pat), Engine::Dense),
            splitter::sentences().compile(),
            CorpusRunnerConfig {
                workers: 2,
                ..Default::default()
            },
        );
        let got = pre.run_slices(&refs);
        assert_eq!(got.relations, dense.run_slices(&refs).relations);
        let pf = got.stats.prefilter;
        assert!(
            pf.bytes_skipped > 500,
            "most segments should be gate-rejected: {pf:?}"
        );
        assert!(pf.candidates >= 1, "the digit sentence is a candidate");
        assert!(
            pf.candidates <= 4,
            "sparse corpus must not flood candidates: {pf:?}"
        );
        // Dense runs report no prefilter activity; the streaming
        // splitter's skipped bytes are counted apart.
        let dense_stats = dense.run_slices(&refs).stats;
        assert_eq!(dense_stats.prefilter, PrefilterStats::default());
        assert!(dense_stats.splitter_bytes_skipped > 500);
    }

    #[test]
    fn stats_carry_the_enumeration_frames() {
        // The bigram extractor on the AOT tier: the run's frame count is
        // the sum of each segment's own.
        let spanner =
            ExecSpanner::compile_with(&splitc_textgen::spanners::ngram_extractor(2), Engine::Aot);
        let doc = splitc_textgen::wiki_corpus(&splitc_textgen::CorpusConfig {
            target_bytes: 16 << 10,
            ..Default::default()
        });
        let sentences = splitter::sentences().compile();
        let r = CorpusRunner::new(
            spanner.clone(),
            sentences.clone(),
            CorpusRunnerConfig {
                workers: 2,
                batch_bytes: 1 << 10,
                ..Default::default()
            },
        );
        let got = r.run_slices(&[&doc]);
        let mut expected = 0;
        for span in sentences.split(&doc) {
            let mut cache = DenseCache::default();
            spanner.eval_with(span.slice(&doc), &mut cache, &mut PrefilterStats::default());
            expected += cache.enum_frames();
        }
        assert!(expected > 1000, "{expected} frames");
        assert_eq!(got.stats.cache.enum_frames, expected);
    }

    #[test]
    fn empty_corpus() {
        let r = runner("x{a*}", CorpusRunnerConfig::default());
        let got = r.run_slices(&[]);
        assert!(got.relations.is_empty());
        assert_eq!(got.stats, CorpusStats::default());
    }

    #[test]
    fn pooled_runner_matches_spawned_runner() {
        let owned = docs();
        let refs: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
        let config = CorpusRunnerConfig {
            workers: 3,
            batch_bytes: 4,
            queue_depth: 2,
            chunk_bytes: 3,
        };
        let spawned = runner(".*x{a+}.*", config).run_slices(&refs);
        // A shared pool, reused across several requests — including one
        // *smaller* than the requested worker count (self-draining
        // loops must still complete the run).
        for pool_size in [1, 2, 8] {
            let pool = std::sync::Arc::new(EvalPool::new(pool_size));
            for _request in 0..3 {
                let r = CorpusRunner::with_pool(
                    ExecSpanner::compile(&vsa(".*x{a+}.*")),
                    splitter::sentences().compile(),
                    config,
                    pool.clone(),
                );
                let got = r.run_slices(&refs);
                assert_eq!(got.relations, spawned.relations, "pool size {pool_size}");
            }
            assert!(pool.stats().submitted >= 3, "pool was actually used");
        }
    }

    #[test]
    fn config_normalization() {
        let zeroed = CorpusRunnerConfig {
            workers: 0,
            batch_bytes: 0,
            queue_depth: 0,
            chunk_bytes: 0,
        }
        .normalized();
        assert_eq!(zeroed.workers, 1);
        assert_eq!(zeroed.batch_bytes, 1);
        assert_eq!(zeroed.queue_depth, 1);
        assert_eq!(zeroed.chunk_bytes, 1);
        let kept = CorpusRunnerConfig::default().normalized();
        assert_eq!(kept.workers, CorpusRunnerConfig::default().workers);
    }
}
