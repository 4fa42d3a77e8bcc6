//! The one streaming pipeline behind every corpus-scale runner.
//!
//! Split-correctness (`P = P_S ∘ S`) is what lets evaluation be
//! distributed over segments; this module owns that distribution once.
//! A [`Pipeline`] streams documents through a [`StreamingSplitter`] (or
//! takes an already-known segmentation), packs the segments into
//! batches of about `batch_bytes` of stream, fans the batches out to
//! workers over a **bounded** queue, and merges the shifted per-segment
//! tuples deterministically into `relations[doc][member]`, independent
//! of worker scheduling.
//!
//! **Backpressure.** A segment's bytes are a range of a buffer the
//! producer already holds — a pushed chunk, or for a presplit document
//! the document — so a queued segment pins that buffer until a worker
//! drops it. Each segment is charged toward its batch the stream it
//! extends the queued segments over (the gap since the previous segment
//! included) and at least its queue entry, so at most `queue_depth`
//! queued batches, one batch per worker and the one being filled are in
//! flight, and the chunks they pin cover about that many `batch_bytes`
//! of stream plus a chunk at either end — never corpus size.
//!
//! What a worker does with one segment is the only thing that differs
//! between runners, and it sits behind the narrow [`SegmentWork`]
//! trait: [`crate::ExecSpanner`] (one spanner, see
//! [`crate::CorpusRunner`]) and [`crate::Fleet`] (the fused gate → shared
//! scan → dispatch pass, see [`crate::FleetRunner`]). The pipeline is
//! generic over it, so the per-segment path is monomorphised — no
//! dynamic dispatch between the queue and the work.
//!
//! **Zero-copy hand-off.** On the way in, a segment crosses to its
//! worker as a shared range ([`crate::SegBytes`]): no segment bytes are
//! allocated, copied or freed between the splitter and the engine, only
//! a reference count moves (a segment that crosses a chunk boundary was
//! stitched once, by the splitter). On the way out, the work hands each
//! relation over by value: one row-major span buffer, allocated once at
//! its exact size by the engine. The worker shifts it in place
//! ([`SpanRelation::shift_in_place`]), so no tuple is copied or
//! allocated between the engine and the merge; a segment-cache hit
//! clones the shared relation once and shifts the clone, leaving the
//! cached copy segment-local.
//!
//! The pipeline is the single owner of:
//!
//! * **backpressure** — the producer blocks on the bounded queue;
//! * **drain-on-panic** — a worker whose evaluation panics records the
//!   failure and keeps draining the queue without evaluating, so the
//!   producer's blocking send can never deadlock; the panic is re-raised
//!   on the calling thread once every worker has reported;
//! * **pool-or-spawn** — worker loops run on a shared long-lived
//!   [`EvalPool`] or on per-run spawned threads, with identical results;
//! * **the deterministic merge** — every segment is tagged with its
//!   running index in the stream, and before the cells are filled the
//!   partials are sorted by `(stream index, member)`. That is the
//!   **stream-order invariant**: each `(doc, member)` cell receives its
//!   segments' rows in the order the segments left the splitter,
//!   whichever worker evaluated them. Each cell is one span buffer,
//!   sized up front and extended by every partial's rows; under a
//!   disjoint splitter that is document order, so
//!   [`SpanRelation::concat`] finds each part starting after the last
//!   one ended — one comparison per part — and hands the buffer over
//!   as it is. The order is a speed matter, not a correctness one:
//!   whatever arrives out of order (overlapping segments of a
//!   non-disjoint splitter, empty spans on a shared boundary) falls
//!   back to [`SpanRelation::from_rows`], which sorts and dedups.

use crate::corpus::CorpusRunnerConfig;
use crate::pool::EvalPool;
use crate::segcache::SegmentCache;
use crate::stream::{SegBytes, Segment, StreamingSplitter};
use parking_lot::Mutex;
use splitc_spanner::dense::DenseCacheStats;
use splitc_spanner::prefilter::PrefilterStats;
use splitc_spanner::span::Span;
use splitc_spanner::splitter::CompiledSplitter;
use splitc_spanner::tuple::SpanRelation;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;

/// What one worker does with one segment. Implemented by a single
/// [`crate::ExecSpanner`] and by a fused [`crate::Fleet`].
pub(crate) trait SegmentWork: Send + Sync + 'static {
    /// Per-worker mutable state (lazy-DFA caches, gate buffers, counters).
    type Scratch;

    /// Number of members; results are indexed `[doc][member]`.
    fn members(&self) -> usize;
    /// Stable identity of the compiled work, keying
    /// [`crate::CorpusHandle`]'s per-shard extraction memo.
    fn memo_id(&self) -> u64;
    /// Fresh per-worker scratch.
    fn scratch(&self) -> Self::Scratch;
    /// Evaluates one segment, handing `emit(member, relation)` each
    /// segment-local relation by value (the pipeline shifts it in
    /// place). Members that provably contribute nothing may be left
    /// out. With a `cache`, a relation may come from it instead of an
    /// engine call; the cache keeps its own copy unshifted.
    fn eval(
        &self,
        bytes: &[u8],
        cache: Option<&SegmentCache>,
        scratch: &mut Self::Scratch,
        emit: impl FnMut(usize, SpanRelation),
    );
    /// The worker's counters, read from its scratch when the queue
    /// drains (its producer counters stay 0).
    fn tally(&self, scratch: Self::Scratch) -> RunStats;
}

/// What one run of a [`crate::CorpusRunner`] or [`crate::FleetRunner`]
/// reports. The producer fills the first eight counters; each worker
/// fills the rest, and [`RunStats::merge`] sums the workers' reports into
/// the run's. The fused-gate counters (`shared_scan_bytes` through
/// `candidates`) stay 0 outside a fleet run, as `docs_reused` stays 0
/// outside a [`crate::CorpusHandle`] re-query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Documents streamed (a handle re-query counts every shard).
    pub docs: usize,
    /// Documents whose relations were reused verbatim from a
    /// [`crate::CorpusHandle`] extraction memo instead of being run.
    pub docs_reused: usize,
    /// Split segments evaluated (a fleet considers each for every member).
    pub segments: usize,
    /// Total bytes across all evaluated segments.
    pub segment_bytes: u64,
    /// Batches dispatched to the workers.
    pub batches: usize,
    /// Largest `[low watermark, position)` window any document's
    /// streaming splitter held at once — bounded by segment + chunk
    /// length for prompt splitters, not by document size. The chunks
    /// overlapping it, and those that queued segments share, are what
    /// stays resident.
    pub peak_buffered_bytes: usize,
    /// Bytes the streaming splitter's own skip loop jumped instead of
    /// stepping (any engine).
    pub splitter_bytes_skipped: u64,
    /// Segment bytes the streaming splitter copied because their segment
    /// crossed a chunk boundary (see
    /// [`crate::StreamStats::bytes_stitched`]); every other segment is a
    /// range of a chunk the splitter already held.
    pub splitter_bytes_stitched: u64,
    /// The workers' lazy-DFA cache statistics (all zero under
    /// [`crate::Engine::Nfa`]).
    pub cache: DenseCacheStats,
    /// The workers' gate rejections, candidates and skip-loop jumps:
    /// non-zero only on the gated tiers, [`crate::Engine::Prefilter`] and
    /// an in-budget [`crate::Engine::Aot`].
    pub prefilter: PrefilterStats,
    /// Bytes consumed by a fleet's shared multi-needle scan (early exit
    /// makes this at most, often far less than, `segment_bytes`).
    pub shared_scan_bytes: u64,
    /// `(segment, member)` evaluations a fleet dispatched to an engine.
    /// The headline number: sequential evaluation dispatches
    /// `segments × members`.
    pub dispatches: u64,
    /// `(segment, member)` pairs a fleet pruned by the cheap per-member
    /// facts (minimum length, required prefix, private required-byte
    /// finder).
    pub gate_rejected: u64,
    /// `(segment, member)` pairs a fleet pruned because the shared scan
    /// found none of the member's needles.
    pub scan_rejected: u64,
    /// Segments dispatched per fleet member, index-aligned with the
    /// fleet.
    pub candidates: Vec<u64>,
}

impl RunStats {
    /// Adds `other`'s counters into these: `peak_buffered_bytes` by max,
    /// `candidates` member by member, everything else summed.
    pub fn merge(&mut self, other: &RunStats) {
        self.docs += other.docs;
        self.docs_reused += other.docs_reused;
        self.segments += other.segments;
        self.segment_bytes += other.segment_bytes;
        self.batches += other.batches;
        self.peak_buffered_bytes = self.peak_buffered_bytes.max(other.peak_buffered_bytes);
        self.splitter_bytes_skipped += other.splitter_bytes_skipped;
        self.splitter_bytes_stitched += other.splitter_bytes_stitched;
        self.cache = self.cache.merge(other.cache);
        self.prefilter = self.prefilter.merge(other.prefilter);
        self.shared_scan_bytes += other.shared_scan_bytes;
        self.dispatches += other.dispatches;
        self.gate_rejected += other.gate_rejected;
        self.scan_rejected += other.scan_rejected;
        if self.candidates.len() < other.candidates.len() {
            self.candidates.resize(other.candidates.len(), 0);
        }
        for (total, c) in self.candidates.iter_mut().zip(&other.candidates) {
            *total += c;
        }
    }

    /// Average number of members a fleet dispatched per segment — the
    /// fused pass's fan-out. Sequential evaluation has fan-out = fleet
    /// size; the gap between the two is the work the fusion avoided.
    pub fn fan_out(&self) -> f64 {
        if self.segments == 0 {
            0.0
        } else {
            self.dispatches as f64 / self.segments as f64
        }
    }
}

/// The outcome of a run: one result per input document, in input order,
/// plus what the run reports. `R` is a [`SpanRelation`] for a
/// [`crate::CorpusRunner`] and the members' relations (fleet compile
/// order) for a [`crate::FleetRunner`].
#[derive(Debug, Clone)]
pub struct RunResult<R> {
    /// Per-document results, index-aligned with the input.
    pub relations: Vec<R>,
    /// Statistics of the run.
    pub stats: RunStats,
}

impl RunResult<Vec<SpanRelation>> {
    /// The one column of a single-spanner run.
    pub(crate) fn single(self) -> RunResult<SpanRelation> {
        RunResult {
            relations: self
                .relations
                .into_iter()
                .map(|row| row.into_iter().next().expect("one member"))
                .collect(),
            stats: self.stats,
        }
    }
}

/// `(stream index, document index, segment)` triples in stream order.
/// Batches may span document boundaries, so collections of tiny
/// documents still fill them.
type Batch = Vec<(usize, usize, Segment)>;

/// What one queued segment costs beside the bytes it pins: its batch
/// entry. Each segment is charged at least this toward the batch target,
/// so a run of empty or tiny segments still fills batches.
const ENTRY_BYTES: usize = std::mem::size_of::<(usize, usize, Segment)>();

/// The shifted, non-empty relation of one `(doc, member)` cell from one
/// segment: `(stream index, doc, member, relation)`.
type Partial = (usize, usize, usize, SpanRelation);

/// The producer side: accumulates segments into batches and sends them
/// over the bounded queue, blocking when it is full.
struct Feed {
    tx: SyncSender<Batch>,
    batch: Batch,
    batch_bytes: usize,
    /// `(document, end)` of the furthest-reaching segment queued so far.
    reach: Option<(usize, usize)>,
    target: usize,
    stats: RunStats,
}

impl Feed {
    /// Queues one segment, tagged with its running index in the stream.
    /// The segment is charged the stream bytes it extends the queued
    /// segments' reach by (the gap before it included, since the chunk
    /// it shares pins that gap too), and at least its batch entry.
    fn segment(&mut self, di: usize, seg: Segment) {
        let len = seg.bytes.len();
        let from = match self.reach {
            Some((d, end)) if d == di => end,
            _ => seg.span.start,
        };
        self.reach = Some((di, from.max(seg.span.end)));
        let seq = self.stats.segments;
        self.stats.segments += 1;
        self.stats.segment_bytes += len as u64;
        self.batch_bytes += seg.span.end.saturating_sub(from).max(ENTRY_BYTES);
        self.batch.push((seq, di, seg));
        if self.batch_bytes >= self.target {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        self.stats.batches += 1;
        self.batch_bytes = 0;
        let _ = self.tx.send(std::mem::take(&mut self.batch));
    }
}

/// The worker loop's signature, see [`Pipeline::new`].
type WorkerLoop<W> =
    fn(&W, Option<&SegmentCache>, &Mutex<Receiver<Batch>>, &AtomicBool) -> (Vec<Partial>, RunStats);

/// A runner over any [`SegmentWork`]: the splitter, tuning, optional
/// shared pool and segment cache, and the work itself.
#[derive(Debug)]
pub(crate) struct Pipeline<W: SegmentWork> {
    pub work: Arc<W>,
    splitter: CompiledSplitter,
    pub config: CorpusRunnerConfig,
    /// `None` spawns per-run threads (the batch-job shape); services
    /// reuse one long-lived pool across requests.
    pool: Option<Arc<EvalPool>>,
    /// Shared content-addressed per-segment result cache, handed to
    /// [`SegmentWork::eval`].
    segment_cache: Option<Arc<SegmentCache>>,
    worker_loop: WorkerLoop<W>,
}

impl<W: SegmentWork> Pipeline<W> {
    /// Taking `worker_loop::<W>` here, where both runners are built,
    /// compiles the per-segment loop in this crate next to the work it
    /// calls. Referenced from the generic `run_*` methods instead, it
    /// would be compiled in whichever crate instantiates them — a
    /// separate instantiation whose median operation time measured ~7%
    /// higher on the benchmark's sparse fleet workload (2-core host).
    pub fn new(
        work: Arc<W>,
        splitter: CompiledSplitter,
        config: CorpusRunnerConfig,
        pool: Option<Arc<EvalPool>>,
    ) -> Pipeline<W> {
        Pipeline {
            work,
            splitter,
            config,
            pool,
            segment_cache: None,
            worker_loop: worker_loop::<W>,
        }
    }

    pub fn with_segment_cache(mut self, cache: Arc<SegmentCache>) -> Pipeline<W> {
        self.segment_cache = Some(cache);
        self
    }

    /// Streams chunked document sources through the splitter; no
    /// document is ever materialized.
    pub fn run_streams<D, C, B>(&self, docs: D) -> RunResult<Vec<SpanRelation>>
    where
        D: IntoIterator<Item = C>,
        C: IntoIterator<Item = B>,
        B: AsRef<[u8]>,
    {
        self.run(docs, |feed, di, doc| {
            let mut splitter = StreamingSplitter::new(&self.splitter);
            for chunk in doc {
                for seg in splitter.push(chunk.as_ref()) {
                    feed.segment(di, seg);
                }
            }
            let (tail, split) = splitter.finish_with_stats();
            let stats = &mut feed.stats;
            stats.peak_buffered_bytes = stats.peak_buffered_bytes.max(split.peak_buffered_bytes);
            stats.splitter_bytes_skipped += split.bytes_skipped;
            stats.splitter_bytes_stitched += split.bytes_stitched;
            for seg in tail {
                feed.segment(di, seg);
            }
        })
    }

    /// Evaluates `(document bytes, split spans)` pairs whose split is
    /// already known, skipping the splitter.
    pub fn run_presplit<'a, D>(&self, docs: D) -> RunResult<Vec<SpanRelation>>
    where
        D: IntoIterator<Item = (&'a [u8], &'a [Span])>,
    {
        self.run(docs, |feed, di, (bytes, spans)| {
            // One copy of the document shared by every segment — the
            // per-segment cost is an `Arc` clone, not a byte copy.
            let doc: Arc<[u8]> = Arc::from(bytes);
            for &span in spans {
                let bytes = SegBytes::new(doc.clone(), span.start..span.end);
                feed.segment(di, Segment { span, bytes });
            }
        })
    }

    /// Materialized documents through the streaming path, in
    /// `config.chunk_bytes` chunks.
    pub fn run_slices(&self, docs: &[&[u8]]) -> RunResult<Vec<SpanRelation>> {
        let chunk = self.config.chunk_bytes.max(1);
        self.run_streams(docs.iter().map(|d| d.chunks(chunk)))
    }

    /// The pipeline: starts the workers, feeds every document through
    /// `produce` on the calling thread, then collects and merges.
    fn run<I, F>(&self, docs: I, mut produce: F) -> RunResult<Vec<SpanRelation>>
    where
        I: IntoIterator,
        F: FnMut(&mut Feed, usize, I::Item),
    {
        let members = self.work.members();
        if members == 0 {
            // Nothing could be emitted: count documents, never split.
            let docs = docs.into_iter().count();
            return RunResult {
                relations: vec![Vec::new(); docs],
                stats: RunStats {
                    docs,
                    ..RunStats::default()
                },
            };
        }
        let config = self.config.normalized();
        let (tx, rx) = sync_channel::<Batch>(config.queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let failed = Arc::new(AtomicBool::new(false));
        let (out_tx, out_rx) = std::sync::mpsc::channel::<(Vec<Partial>, RunStats)>();
        let mut handles = Vec::new();
        for _ in 0..config.workers {
            let work = self.work.clone();
            let cache = self.segment_cache.clone();
            let rx = rx.clone();
            let failed = failed.clone();
            let out_tx = out_tx.clone();
            let worker_loop = self.worker_loop;
            let job = move || {
                let _ = out_tx.send(worker_loop(&*work, cache.as_deref(), &rx, &failed));
            };
            match &self.pool {
                Some(pool) => pool.execute(Box::new(job)),
                None => handles.push(std::thread::spawn(job)),
            }
        }
        drop(out_tx);

        let mut feed = Feed {
            tx,
            batch: Vec::new(),
            batch_bytes: 0,
            reach: None,
            target: config.batch_bytes,
            stats: RunStats::default(),
        };
        for (di, doc) in docs.into_iter().enumerate() {
            feed.stats.docs += 1;
            produce(&mut feed, di, doc);
        }
        feed.flush();
        let mut stats = std::mem::take(&mut feed.stats);
        drop(feed); // hang up: workers drain the queue and report

        // Exactly one report per worker; a disconnect before all have
        // reported means a worker died outside its catch (a bug).
        let mut partials: Vec<Partial> = Vec::new();
        for _ in 0..config.workers {
            match out_rx.recv() {
                Ok((part, worker)) => {
                    partials.extend(part);
                    stats.merge(&worker);
                }
                Err(_) => {
                    failed.store(true, Ordering::Relaxed);
                    break;
                }
            }
        }
        for h in handles {
            if h.join().is_err() {
                failed.store(true, Ordering::Relaxed);
            }
        }
        assert!(
            !failed.load(Ordering::Relaxed),
            "a runner worker panicked while evaluating a batch"
        );

        // Each worker pops its batches from one FIFO, so the partials
        // arrive as one ascending run per worker: a run-adaptive sort
        // merges them back into the order the segments left the
        // splitter (the keys are unique), so `concat` finds them ordered.
        partials.sort_by_key(|&(seq, _, mi, _)| (seq, mi));
        let mut cells: Vec<Vec<Vec<SpanRelation>>> = vec![vec![Vec::new(); members]; stats.docs];
        for (_, di, mi, rel) in partials {
            cells[di][mi].push(rel);
        }
        let relations = cells
            .into_iter()
            .map(|row| row.into_iter().map(SpanRelation::concat).collect())
            .collect();
        RunResult { relations, stats }
    }
}

/// One worker: drains the queue and evaluates each segment with
/// worker-local scratch, returning shifted relations keyed by
/// `(stream index, doc, member)`. Evaluation panics are caught and
/// recorded in `failed`; the worker then keeps draining without
/// evaluating, so the producer never deadlocks on the bounded queue. A
/// free function over owned contexts, so the same loop runs on spawned
/// threads and on a long-lived [`EvalPool`].
fn worker_loop<W: SegmentWork>(
    work: &W,
    cache: Option<&SegmentCache>,
    rx: &Mutex<Receiver<Batch>>,
    failed: &AtomicBool,
) -> (Vec<Partial>, RunStats) {
    let mut scratch = work.scratch();
    let mut out: Vec<Partial> = Vec::new();
    loop {
        // Hold the lock across `recv`: batches are coarse, so the
        // serialization this imposes on the pop path is noise.
        let batch = match rx.lock().recv() {
            Ok(b) => b,
            Err(_) => break, // producer hung up and queue drained
        };
        if failed.load(Ordering::Relaxed) {
            continue; // drain-only after a failure anywhere
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut local: Vec<Partial> = Vec::new();
            for (seq, di, seg) in batch {
                work.eval(&seg.bytes, cache, &mut scratch, |mi, mut rel| {
                    if !rel.is_empty() {
                        rel.shift_in_place(seg.span);
                        local.push((seq, di, mi, rel));
                    }
                });
            }
            local
        }));
        match result {
            Ok(local) => out.extend(local),
            Err(_) => failed.store(true, Ordering::Relaxed),
        }
    }
    (out, work.tally(scratch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{evaluate_many_split, split_fn_of_splitter, Engine, ExecSpanner};
    use crate::fleet::Fleet;
    use crate::proptests::splitter_pool;
    use splitc_spanner::rgx::Rgx;
    use splitc_spanner::splitter;
    use splitc_spanner::vsa::Vsa;
    use std::time::Duration;

    fn vsa(pat: &str) -> Vsa {
        Rgx::parse(pat).unwrap().to_vsa().unwrap()
    }

    /// Documents over the pool splitters' alphabet, long enough that
    /// three workers interleave one-segment batches within each.
    fn docs() -> Vec<Vec<u8>> {
        vec![
            b"aa bab. aaa\nb aa. abc aab.\n\naa a".to_vec(),
            b"".to_vec(),
            b"a.a.a. aa ba ab\nc aaa b. ca ac aa".to_vec(),
            b"baa aab\n\n. a a a. aaaa bb aa c".to_vec(),
        ]
    }

    #[test]
    fn merge_is_identical_across_worker_counts_and_to_the_oracle() {
        let owned = docs();
        let refs: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
        let config = |workers| CorpusRunnerConfig {
            workers,
            batch_bytes: 1,
            queue_depth: 2,
            chunk_bytes: 5,
        };
        let mut overlapping = 0;
        for s in splitter_pool() {
            let split = split_fn_of_splitter(&s);
            let spans: Vec<Vec<Span>> = refs.iter().map(|d| split(d)).collect();
            if spans
                .iter()
                .any(|sp| sp.windows(2).any(|w| w[0].overlaps(w[1])))
            {
                overlapping += 1; // non-disjoint: the merge's fallback sort
            }
            for pat in [".*x{a+}.*", ".*x{}.*", ".*x{a}.*y{[ab]+}.*", ".*ab.*"] {
                let spanner = ExecSpanner::compile(&vsa(pat));
                let run = |workers| {
                    let p = Pipeline::new(
                        Arc::new(spanner.clone()),
                        s.compile(),
                        config(workers),
                        None,
                    );
                    p.run_slices(&refs).single().relations
                };
                let three = run(3);
                assert_eq!(three, run(1), "3 vs 1 workers, {pat} under {s:?}");
                assert_eq!(
                    three,
                    evaluate_many_split(&spanner, &split, &refs, 1),
                    "3 workers vs oracle, {pat} under {s:?}"
                );
            }
        }
        assert!(
            overlapping > 0,
            "the pool must exercise a non-disjoint split"
        );
    }

    #[test]
    fn segment_cache_hits_stay_unshifted() {
        let owned = docs();
        let refs: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
        let config = CorpusRunnerConfig {
            workers: 2,
            batch_bytes: 1,
            queue_depth: 2,
            chunk_bytes: 5,
        };
        let pats = [".*x{a+}.*", ".*x{}.*"];
        let spanner = ExecSpanner::compile(&vsa(pats[0]));
        let fleet = Fleet::compile(
            &pats.iter().map(|p| vsa(p)).collect::<Vec<_>>(),
            Engine::Dense,
        );
        let cache = Arc::new(SegmentCache::new(1 << 12));
        let corpus = Pipeline::new(
            Arc::new(spanner.clone()),
            splitter::sentences().compile(),
            config,
            None,
        )
        .with_segment_cache(cache.clone());
        let fused = Pipeline::new(
            Arc::new(fleet),
            splitter::sentences().compile(),
            config,
            None,
        )
        .with_segment_cache(cache.clone());
        let corpus_first = corpus.run_slices(&refs).relations;
        let fused_first = fused.run_slices(&refs).relations;
        let misses = cache.stats().misses;
        // The second pass is all hits; had a hit shifted the cached
        // relation, it would come back shifted twice.
        assert_eq!(corpus.run_slices(&refs).relations, corpus_first);
        assert_eq!(fused.run_slices(&refs).relations, fused_first);
        assert_eq!(cache.stats().misses, misses, "second pass is all hits");
        assert!(cache.stats().hits > 0);
        let split = split_fn_of_splitter(&splitter::sentences());
        assert_eq!(
            corpus.run_slices(&refs).single().relations,
            evaluate_many_split(&spanner, &split, &refs, 1)
        );
        // Every stored relation is still the segment-local one.
        for doc in &refs {
            for sp in split(doc) {
                let seg = &doc[sp.start..sp.end];
                let (rel, hit) = cache.get_or_eval(spanner.cache_id(), seg, || {
                    panic!("segment evaluated twice")
                });
                assert!(hit);
                assert_eq!(*rel, spanner.eval(seg), "cached relation of {seg:?}");
            }
        }
    }

    #[test]
    fn empty_segments_still_fill_batches() {
        // `.*x{}a.*` emits an empty segment before every `a`: 64 KiB of
        // `a` is 65 536 segments of no bytes, which must not all queue
        // as one batch.
        let doc = vec![b'a'; 64 << 10];
        let s = splitter::Splitter::parse(".*x{}a.*").unwrap();
        let spanner = ExecSpanner::compile(&vsa(".*x{}.*"));
        let config = CorpusRunnerConfig {
            workers: 2,
            ..CorpusRunnerConfig::default()
        };
        let p = Pipeline::new(Arc::new(spanner.clone()), s.compile(), config, None);
        let run = p.run_slices(&[&doc]);
        assert_eq!(run.stats.segments, doc.len());
        assert_eq!(run.stats.segment_bytes, 0);
        let floor = run.stats.segments * ENTRY_BYTES / config.batch_bytes;
        assert!(
            run.stats.batches >= floor.max(2),
            "{} batches, {floor} expected",
            run.stats.batches
        );
        let split = split_fn_of_splitter(&s);
        assert_eq!(
            run.single().relations,
            evaluate_many_split(&spanner, &split, &[&doc], 1)
        );
    }

    #[test]
    fn sparse_segments_are_charged_the_stream_they_pin() {
        // One 3-byte tag per 4 KiB. A queued segment pins the chunk it
        // shares, so a batch is charged the stream it spans, not its
        // few segment bytes: 256 KiB in 32 KiB batches is 8 of them.
        let doc: Vec<u8> = (0..64)
            .flat_map(|_| {
                let mut block = vec![b' '; 4093];
                block.extend_from_slice(b"<a>");
                block
            })
            .collect();
        let s = splitter::Splitter::parse(".*x{<a>}.*").unwrap();
        let spanner = ExecSpanner::compile(&vsa(".*x{a}.*"));
        let config = CorpusRunnerConfig {
            workers: 2,
            ..CorpusRunnerConfig::default()
        };
        let p = Pipeline::new(Arc::new(spanner.clone()), s.compile(), config, None);
        let run = p.run_slices(&[&doc]);
        assert_eq!(run.stats.segments, 64);
        assert!(run.stats.batches >= 7, "{} batches", run.stats.batches);
        let split = split_fn_of_splitter(&s);
        assert_eq!(
            run.single().relations,
            evaluate_many_split(&spanner, &split, &[&doc], 1)
        );
    }

    /// Emits an empty relation for member 0 per segment, counted as a
    /// dispatch, and panics on any segment containing the marker.
    #[derive(Debug)]
    struct PanicOn(&'static [u8]);

    impl SegmentWork for PanicOn {
        type Scratch = u64;
        fn members(&self) -> usize {
            1
        }
        fn memo_id(&self) -> u64 {
            0
        }
        fn scratch(&self) -> u64 {
            0
        }
        fn eval(
            &self,
            bytes: &[u8],
            _cache: Option<&SegmentCache>,
            evaluated: &mut u64,
            mut emit: impl FnMut(usize, SpanRelation),
        ) {
            let hit = bytes.windows(self.0.len()).any(|w| w == self.0);
            assert!(!hit, "induced worker panic");
            *evaluated += 1;
            emit(0, SpanRelation::empty());
        }
        fn tally(&self, evaluated: u64) -> RunStats {
            RunStats {
                dispatches: evaluated,
                ..RunStats::default()
            }
        }
    }

    /// Runs `f` on its own thread and returns how it ended, failing the
    /// test (instead of hanging) when it does not finish within a
    /// generous bound.
    fn within_bound<T: Send + 'static>(
        f: impl FnOnce() -> T + Send + 'static,
    ) -> std::thread::Result<T> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)));
        });
        rx.recv_timeout(Duration::from_secs(120))
            .expect("pipeline run hung")
    }

    #[test]
    fn worker_panic_is_reraised_not_deadlocked() {
        // Many one-segment batches through a depth-1 queue: the producer
        // blocks on nearly every send, so a worker that stopped draining
        // after the panic would hang the run.
        let doc: Vec<u8> = (0..200)
            .map(|i| {
                if i == 37 {
                    "boom. ".to_string()
                } else {
                    format!("s{i}. ")
                }
            })
            .collect::<String>()
            .into_bytes();
        let config = CorpusRunnerConfig {
            workers: 2,
            batch_bytes: 1,
            queue_depth: 1,
            chunk_bytes: 7,
        };
        let pool = Arc::new(EvalPool::new(2));
        for pool in [None, Some(pool.clone())] {
            let work = Arc::new(PanicOn(b"boom"));
            let p = Pipeline::new(work, splitter::sentences().compile(), config, pool);
            let d = doc.clone();
            let ended = within_bound(move || p.run_slices(&[&d]).stats);
            assert!(
                ended.is_err(),
                "the worker panic must surface on the caller"
            );
        }
        // The same pool still completes a clean run afterwards.
        let clean = Pipeline::new(
            Arc::new(PanicOn(b"never")),
            splitter::sentences().compile(),
            config,
            Some(pool),
        );
        let run = within_bound(move || clean.run_slices(&[&doc])).expect("clean run");
        assert!(run.stats.segments >= 200, "one segment per sentence");
        assert_eq!(
            run.stats.batches, run.stats.segments,
            "one segment per batch"
        );
        assert_eq!(
            run.stats.dispatches, run.stats.segments as u64,
            "every worker's report was merged"
        );
    }
}
