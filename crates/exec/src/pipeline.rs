//! The one streaming pipeline behind every corpus-scale runner.
//!
//! Split-correctness (`P = P_S ∘ S`) is what lets evaluation be
//! distributed over segments; this module owns that distribution once.
//! A [`Pipeline`] streams documents through a [`StreamingSplitter`] (or
//! takes an already-known segmentation), packs the segments into
//! batches of about `batch_bytes`, fans the batches out to workers over
//! a **bounded** queue (backpressure: peak in-flight memory is
//! `queue_depth × batch_bytes` plus one batch per worker, never corpus
//! size), and merges the shifted per-segment tuples deterministically
//! into `relations[doc][member]`, independent of worker scheduling.
//!
//! What a worker does with one segment is the only thing that differs
//! between runners, and it sits behind the narrow [`SegmentWork`]
//! trait: [`crate::ExecSpanner`] (one spanner, see
//! [`crate::CorpusRunner`]) and [`crate::Fleet`] (the fused gate → shared
//! scan → dispatch pass, see [`crate::FleetRunner`]). The pipeline is
//! generic over it, so the per-segment path is monomorphised — no
//! dynamic dispatch between the queue and the work, and the corpus
//! worker shifts tuples straight out of the engine's relation.
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
//! * **the deterministic merge** — `SpanRelation::from_tuples` sorts
//!   and dedups each `(doc, member)` cell.

use crate::corpus::CorpusRunnerConfig;
use crate::pool::EvalPool;
use crate::segcache::SegmentCache;
use crate::stream::{Segment, StreamingSplitter};
use parking_lot::Mutex;
use splitc_spanner::span::Span;
use splitc_spanner::splitter::CompiledSplitter;
use splitc_spanner::tuple::{SpanRelation, SpanTuple};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;

/// What one worker does with one segment. Implemented by a single
/// [`crate::ExecSpanner`] and by a fused [`crate::Fleet`].
pub(crate) trait SegmentWork: Send + Sync + 'static {
    /// Per-worker mutable state (lazy-DFA caches, gate buffers, counters).
    type Scratch;
    /// Counters a worker reports once its queue drains.
    type Tally: Default + Send;

    /// Number of members; results are indexed `[doc][member]`.
    fn members(&self) -> usize;
    /// Stable identity of the compiled work, keying
    /// [`crate::CorpusHandle`]'s per-shard extraction memo.
    fn memo_id(&self) -> u64;
    /// Fresh per-worker scratch.
    fn scratch(&self) -> Self::Scratch;
    /// Evaluates one segment, calling `emit(member, relation)` with
    /// segment-local relations (the pipeline shifts them). Members that
    /// provably contribute nothing may be left out. With a `cache`, a
    /// relation may come from it instead of an engine call.
    fn eval(
        &self,
        bytes: &[u8],
        cache: Option<&SegmentCache>,
        scratch: &mut Self::Scratch,
        emit: impl FnMut(usize, &SpanRelation),
    );
    /// The worker's report, built from its scratch when the queue drains.
    fn tally(&self, scratch: Self::Scratch) -> Self::Tally;
    /// Adds one worker's report into the run total.
    fn merge(total: &mut Self::Tally, part: Self::Tally);
}

/// Producer-side counters of one run, shared by every runner's stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FeedStats {
    pub docs: usize,
    /// Set by [`crate::CorpusHandle`]'s memoized re-query only.
    pub docs_reused: usize,
    pub segments: usize,
    pub segment_bytes: u64,
    pub batches: usize,
    pub peak_buffered_bytes: usize,
    /// Bytes the streaming splitter's own skip loop jumped.
    pub splitter_skipped: u64,
}

/// The raw outcome of a run: `relations[doc][member]`, the producer's
/// counters, and the merged worker tallies.
#[derive(Debug)]
pub(crate) struct Run<T> {
    pub relations: Vec<Vec<SpanRelation>>,
    pub feed: FeedStats,
    pub tally: T,
}

/// One segment flowing through the queue. The streaming path moves each
/// freshly split [`Segment`] in (the bytes were just materialized and
/// have no other owner); the presplit re-query path shares one `Arc` of
/// the whole document per segment instead of copying bytes — at corpus
/// scale that removes one allocation and one memcpy per segment from
/// the all-hits hot path.
enum SegPayload {
    Owned(Segment),
    Shared { doc: Arc<Vec<u8>>, span: Span },
}

impl SegPayload {
    /// The segment's absolute span in its document (the shift applied
    /// to its tuples).
    fn span(&self) -> Span {
        match self {
            SegPayload::Owned(seg) => seg.span,
            SegPayload::Shared { span, .. } => *span,
        }
    }

    fn bytes(&self) -> &[u8] {
        match self {
            SegPayload::Owned(seg) => &seg.bytes,
            SegPayload::Shared { doc, span } => &doc[span.start..span.end],
        }
    }
}

/// `(document index, segment)` pairs in stream order. Batches may span
/// document boundaries, so collections of tiny documents still fill them.
type Batch = Vec<(usize, SegPayload)>;

/// Shifted tuples of one `(doc, member)` cell from one segment.
type Partial = (usize, usize, Vec<SpanTuple>);

/// The producer side: accumulates segments into batches and sends them
/// over the bounded queue, blocking when it is full.
struct Feed {
    tx: SyncSender<Batch>,
    batch: Batch,
    batch_bytes: usize,
    target: usize,
    stats: FeedStats,
}

impl Feed {
    fn segment(&mut self, di: usize, seg: SegPayload) {
        let len = seg.bytes().len();
        self.stats.segments += 1;
        self.stats.segment_bytes += len as u64;
        self.batch_bytes += len;
        self.batch.push((di, seg));
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
type WorkerLoop<W> = fn(
    &W,
    Option<&SegmentCache>,
    &Mutex<Receiver<Batch>>,
    &AtomicBool,
) -> (Vec<Partial>, <W as SegmentWork>::Tally);

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
    pub fn run_streams<D, C, B>(&self, docs: D) -> Run<W::Tally>
    where
        D: IntoIterator<Item = C>,
        C: IntoIterator<Item = B>,
        B: AsRef<[u8]>,
    {
        self.run(docs, |feed, di, doc| {
            let mut splitter = StreamingSplitter::new(&self.splitter);
            for chunk in doc {
                for seg in splitter.push(chunk.as_ref()) {
                    feed.segment(di, SegPayload::Owned(seg));
                }
            }
            feed.stats.peak_buffered_bytes = feed
                .stats
                .peak_buffered_bytes
                .max(splitter.peak_buffered_bytes());
            feed.stats.splitter_skipped += splitter.bytes_skipped();
            for seg in splitter.finish() {
                feed.segment(di, SegPayload::Owned(seg));
            }
        })
    }

    /// Evaluates `(document bytes, split spans)` pairs whose split is
    /// already known, skipping the splitter.
    pub fn run_presplit<'a, D>(&self, docs: D) -> Run<W::Tally>
    where
        D: IntoIterator<Item = (&'a [u8], &'a [Span])>,
    {
        self.run(docs, |feed, di, (bytes, spans)| {
            // One copy of the document shared by every segment — the
            // per-segment cost is an `Arc` clone, not a byte copy.
            let doc = Arc::new(bytes.to_vec());
            for &span in spans {
                let doc = doc.clone();
                feed.segment(di, SegPayload::Shared { doc, span });
            }
        })
    }

    /// Materialized documents through the streaming path, in
    /// `config.chunk_bytes` chunks.
    pub fn run_slices(&self, docs: &[&[u8]]) -> Run<W::Tally> {
        let chunk = self.config.chunk_bytes.max(1);
        self.run_streams(docs.iter().map(|d| d.chunks(chunk)))
    }

    /// The pipeline: starts the workers, feeds every document through
    /// `produce` on the calling thread, then collects and merges.
    fn run<I, F>(&self, docs: I, mut produce: F) -> Run<W::Tally>
    where
        I: IntoIterator,
        F: FnMut(&mut Feed, usize, I::Item),
    {
        let members = self.work.members();
        if members == 0 {
            // Nothing could be emitted: count documents, never split.
            let docs = docs.into_iter().count();
            return Run {
                relations: vec![Vec::new(); docs],
                feed: FeedStats {
                    docs,
                    ..FeedStats::default()
                },
                tally: W::Tally::default(),
            };
        }
        let config = self.config.normalized();
        let (tx, rx) = sync_channel::<Batch>(config.queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let failed = Arc::new(AtomicBool::new(false));
        let (out_tx, out_rx) = std::sync::mpsc::channel::<(Vec<Partial>, W::Tally)>();
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
            target: config.batch_bytes,
            stats: FeedStats::default(),
        };
        for (di, doc) in docs.into_iter().enumerate() {
            feed.stats.docs += 1;
            produce(&mut feed, di, doc);
        }
        feed.flush();
        let stats = feed.stats;
        drop(feed); // hang up: workers drain the queue and report

        // Exactly one report per worker; a disconnect before all have
        // reported means a worker died outside its catch (a bug).
        let mut partials: Vec<Partial> = Vec::new();
        let mut tally = W::Tally::default();
        for _ in 0..config.workers {
            match out_rx.recv() {
                Ok((part, t)) => {
                    partials.extend(part);
                    W::merge(&mut tally, t);
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

        let mut cells: Vec<Vec<Vec<SpanTuple>>> = (0..stats.docs)
            .map(|_| (0..members).map(|_| Vec::new()).collect())
            .collect();
        for (di, mi, tuples) in partials {
            cells[di][mi].extend(tuples);
        }
        Run {
            relations: cells
                .into_iter()
                .map(|row| row.into_iter().map(SpanRelation::from_tuples).collect())
                .collect(),
            feed: stats,
            tally,
        }
    }
}

/// One worker: drains the queue and evaluates each segment with
/// worker-local scratch, returning shifted tuples keyed by
/// `(doc, member)`. Evaluation panics are caught and recorded in
/// `failed`; the worker then keeps draining without evaluating, so the
/// producer never deadlocks on the bounded queue. A free function over
/// owned contexts, so the same loop runs on spawned threads and on a
/// long-lived [`EvalPool`].
fn worker_loop<W: SegmentWork>(
    work: &W,
    cache: Option<&SegmentCache>,
    rx: &Mutex<Receiver<Batch>>,
    failed: &AtomicBool,
) -> (Vec<Partial>, W::Tally) {
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
            for (di, seg) in batch {
                let (bytes, span) = (seg.bytes(), seg.span());
                work.eval(bytes, cache, &mut scratch, |mi, rel| {
                    if !rel.is_empty() {
                        local.push((di, mi, rel.iter().map(|t| t.shift(span)).collect()));
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
    use splitc_spanner::splitter;
    use std::time::Duration;

    /// Emits an empty relation for member 0 per segment and panics on
    /// any segment containing the marker.
    #[derive(Debug)]
    struct PanicOn(&'static [u8]);

    impl SegmentWork for PanicOn {
        type Scratch = ();
        type Tally = usize;
        fn members(&self) -> usize {
            1
        }
        fn memo_id(&self) -> u64 {
            0
        }
        fn scratch(&self) {}
        fn eval(
            &self,
            bytes: &[u8],
            _cache: Option<&SegmentCache>,
            _scratch: &mut (),
            mut emit: impl FnMut(usize, &SpanRelation),
        ) {
            let hit = bytes.windows(self.0.len()).any(|w| w == self.0);
            assert!(!hit, "induced worker panic");
            emit(0, &SpanRelation::empty());
        }
        fn tally(&self, _scratch: ()) -> usize {
            1
        }
        fn merge(total: &mut usize, part: usize) {
            *total += part;
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
            let ended = within_bound(move || p.run_slices(&[&d]).feed);
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
        assert!(run.feed.segments >= 200, "one segment per sentence");
        assert_eq!(run.feed.batches, run.feed.segments, "one segment per batch");
        assert_eq!(run.tally, config.workers, "every worker reported");
    }
}
