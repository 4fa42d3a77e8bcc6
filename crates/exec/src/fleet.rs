//! Fused multi-spanner fleet evaluation.
//!
//! A service built on split-correctness evaluates *many* extraction
//! rules over the same traffic — and running one [`crate::CorpusRunner`]
//! per rule re-reads, re-splits, and re-scans the corpus once per rule.
//! This module evaluates a whole fleet of compiled spanners in **one**
//! streamed pass:
//!
//! 1. **One split pass** — the corpus is streamed through a single
//!    [`StreamingSplitter`](crate::StreamingSplitter), so splitter work and I/O are paid once,
//!    not once per member.
//! 2. **One shared byte partition** — all dense members are compiled
//!    over the coarsest common refinement of every member's transition
//!    masks ([`DenseEvsa::compile_with_classes`]), so the fleet shares
//!    one `class_of` view of each byte.
//! 3. **One shared literal scan** — each member's
//!    [`PrefilterAnalysis`] needles (required prefix, grown contained
//!    literal, or small required byte set) are merged into a single
//!    [`MultiNeedle`] Aho–Corasick scanner built on the SWAR
//!    `ByteFinder`s. Per segment, one scan (with early exit once every
//!    live member has evidence) decides which members see the segment
//!    at all; only those *owners* pay an automaton dispatch.
//!
//! Every pruning stage is conservative in exactly the prefilter-gate
//! sense — a skipped `(segment, member)` pair provably contributes an
//! empty relation — so fused results are byte-identical to running the
//! members sequentially, which the differential and metamorphic test
//! suites assert.
//!
//! The fused pass is the fleet's `SegmentWork`; [`FleetRunner`] is a
//! typed wrapper over the crate's one streaming pipeline (the private
//! `pipeline` module), shared with [`crate::CorpusRunner`], so batching,
//! backpressure, pooling, and the deterministic merge are the corpus
//! runner's exactly.
//!
//! [`DenseEvsa::compile_with_classes`]: splitc_spanner::dense::DenseEvsa::compile_with_classes

use crate::corpus::CorpusRunnerConfig;
use crate::engine::{Engine, ExecSpanner};
use crate::pipeline::{Pipeline, Run, SegmentWork};
use crate::pool::EvalPool;
use crate::segcache::SegmentCache;
use parking_lot::Mutex;
use splitc_automata::classes::{ByteClassBuilder, ByteClasses};
use splitc_automata::scan::{ByteFinder, MultiNeedle};
use splitc_spanner::dense::{DenseCache, DenseCacheStats, DenseConfig};
use splitc_spanner::engine::TieredEvsa;
use splitc_spanner::evsa::EVsa;
use splitc_spanner::prefilter::{PrefilterAnalysis, PrefilterStats};
use splitc_spanner::span::Span;
use splitc_spanner::splitter::CompiledSplitter;
use splitc_spanner::tuple::SpanRelation;
use splitc_spanner::vsa::Vsa;
use std::sync::Arc;

/// Largest per-member needle set enrolled in the shared scanner. A
/// member whose only content fact is a required byte *set* wider than
/// this keeps a private SWAR finder instead (self-gated), so the shared
/// automaton stays small and selective.
const MAX_MEMBER_NEEDLES: usize = 16;

/// One compiled fleet member: the spanner plus the pruning facts the
/// fused pass applies before dispatching to its engine.
#[derive(Debug)]
struct FleetMember {
    spanner: ExecSpanner,
    /// Shortest accepted segment (`usize::MAX` = empty language: the
    /// member is never dispatched).
    min_len: usize,
    /// Bytes every accepted segment starts with (may be empty).
    prefix: Vec<u8>,
    /// `true` when the member's content evidence comes from the shared
    /// multi-needle scan.
    scanned: bool,
    /// Private required-byte finder for members whose byte set is too
    /// wide for the shared scanner.
    finder: Option<ByteFinder>,
}

/// Aggregate statistics of one fused fleet pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Documents streamed.
    pub docs: usize,
    /// Documents whose member relations were reused verbatim from a
    /// [`crate::CorpusHandle`] extraction memo instead of being run
    /// (always 0 outside [`crate::CorpusHandle::extract_fleet`]).
    pub docs_reused: usize,
    /// Split segments produced (each is considered by every member).
    pub segments: usize,
    /// Total bytes across all segments.
    pub segment_bytes: u64,
    /// Batches dispatched to the worker pool.
    pub batches: usize,
    /// Largest byte window any document's streaming splitter held.
    pub peak_buffered_bytes: usize,
    /// Bytes consumed by the shared multi-needle scan (early exit makes
    /// this at most, often far less than, `segment_bytes`).
    pub shared_scan_bytes: u64,
    /// `(segment, member)` evaluations actually dispatched to an
    /// engine. The headline number: sequential evaluation dispatches
    /// `segments × members`.
    pub dispatches: u64,
    /// `(segment, member)` pairs pruned by the cheap per-member facts
    /// (minimum length, required prefix, private required-byte finder).
    pub gate_rejected: u64,
    /// `(segment, member)` pairs pruned because the shared scan found
    /// none of the member's needles.
    pub scan_rejected: u64,
    /// Segments dispatched per member, index-aligned with the fleet.
    pub candidates: Vec<u64>,
    /// Aggregated per-worker lazy-DFA cache statistics.
    pub cache: DenseCacheStats,
    /// Aggregated backend prefilter statistics (skip-loop bytes, inner
    /// gate counts under [`Engine::Prefilter`]).
    pub prefilter: PrefilterStats,
    /// Bytes the streaming splitter's own skip loop jumped instead of
    /// stepping.
    pub splitter_bytes_skipped: u64,
    /// Segment bytes the streaming splitter copied because their segment
    /// crossed a chunk boundary.
    pub splitter_bytes_stitched: u64,
}

impl FleetStats {
    /// Average number of members dispatched per segment — the fused
    /// pass's fan-out. Sequential evaluation has fan-out = fleet size;
    /// the gap between the two is the work the fusion avoided.
    pub fn fan_out(&self) -> f64 {
        if self.segments == 0 {
            0.0
        } else {
            self.dispatches as f64 / self.segments as f64
        }
    }
}

/// The outcome of a fleet corpus run: per-document, per-member span
/// relations plus run statistics.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// `relations[doc][member]`, index-aligned with the input corpus
    /// and the fleet's compile order.
    pub relations: Vec<Vec<SpanRelation>>,
    /// Statistics of the run.
    pub stats: FleetStats,
}

/// Per-evaluation scratch: one lazy-DFA cache per member, the
/// epoch-stamped evidence buffers of the fused gate, and the worker's
/// counters. One instance per worker thread (or pooled, for the
/// whole-document entry point).
#[derive(Debug)]
pub(crate) struct FleetScratch {
    caches: Vec<DenseCache>,
    /// Cheap-gate verdict per member for the segment being processed.
    cheap_pass: Vec<bool>,
    /// Epoch stamp per member: `evidence[m] == epoch` means the shared
    /// scan saw one of `m`'s needles in the current segment. Stamping
    /// avoids clearing the buffer for every segment.
    evidence: Vec<u64>,
    epoch: u64,
    tally: FleetTally,
}

/// Per-worker counters, merged into [`FleetStats`] after the run.
#[derive(Debug, Clone, Default)]
pub(crate) struct FleetTally {
    shared_scan_bytes: u64,
    dispatches: u64,
    gate_rejected: u64,
    scan_rejected: u64,
    candidates: Vec<u64>,
    cache: DenseCacheStats,
    prefilter: PrefilterStats,
}

/// A fleet of spanners compiled for fused evaluation.
///
/// Compile once with [`Fleet::compile`]; evaluate whole documents with
/// [`Fleet::eval`] or stream a corpus through a [`FleetRunner`]. The
/// type is cheap to share across threads (wrap in [`Arc`]); the fused
/// pass itself is driven with per-worker scratch.
#[derive(Debug)]
pub struct Fleet {
    members: Vec<FleetMember>,
    engine: Engine,
    /// The shared byte partition dense members are indexed by (`None`
    /// under [`Engine::Nfa`], which compiles no tables).
    classes: Option<ByteClasses>,
    /// The shared multi-needle scanner over every scanned member's
    /// needles.
    scanner: MultiNeedle,
    /// Owning member per needle id.
    needle_owner: Vec<u32>,
    /// Pooled scratch for the whole-document entry point.
    scratch_pool: Mutex<Vec<FleetScratch>>,
}

impl Fleet {
    /// Compiles a fleet from VSet-automata (functionalization + block
    /// normal form per member, as in [`ExecSpanner::compile_with`]),
    /// sharing one byte partition and one needle scanner across the
    /// fleet. Thin wrapper over [`crate::CompileOptions::compile_fleet`].
    pub fn compile(vsas: &[Vsa], engine: Engine) -> Fleet {
        crate::CompileOptions::new()
            .engine(engine)
            .compile_fleet(vsas)
    }

    /// Compiles a fleet from already-normalized automata, with `config`
    /// applied to every member's dense tier.
    pub fn compile_evsas(evsas: Vec<Arc<EVsa>>, engine: Engine, config: DenseConfig) -> Fleet {
        // The shared partition: coarsest common refinement of every
        // member's transition masks. Refining a refinement stays a
        // refinement, so each member's dense tables are exact over it.
        let classes = (engine != Engine::Nfa && !evsas.is_empty()).then(|| {
            let mut builder = ByteClassBuilder::new();
            for evsa in &evsas {
                for m in evsa.byte_masks() {
                    builder.add_set(|b| m.contains(b));
                }
            }
            builder.build()
        });

        let mut members = Vec::with_capacity(evsas.len());
        let mut needles: Vec<Vec<u8>> = Vec::new();
        let mut needle_owner: Vec<u32> = Vec::new();
        for (mi, evsa) in evsas.into_iter().enumerate() {
            let analysis = PrefilterAnalysis::analyze(&evsa);
            let spanner =
                ExecSpanner::from_core(TieredEvsa::compile(evsa, engine, config, classes.clone()));
            // Content evidence, strongest applicable form first: a
            // required prefix is checked in O(|prefix|) per segment, so
            // such members need no scan enrollment. Everyone else
            // enrolls their contained-literal / required-byte needles;
            // wide required sets keep a private finder.
            let (scanned, finder) = if !analysis.prefix.is_empty() {
                (false, None)
            } else {
                match analysis.content_needles(MAX_MEMBER_NEEDLES) {
                    Some(ns) => {
                        for n in ns {
                            needles.push(n);
                            needle_owner.push(mi as u32);
                        }
                        (true, None)
                    }
                    None => (
                        false,
                        analysis
                            .required
                            .map(|set| ByteFinder::from_predicate(move |b| set.contains(b))),
                    ),
                }
            };
            members.push(FleetMember {
                spanner,
                min_len: analysis.min_len,
                prefix: analysis.prefix,
                scanned,
                finder,
            });
        }
        Fleet {
            members,
            engine,
            classes,
            scanner: MultiNeedle::new(&needles),
            needle_owner,
            scratch_pool: Mutex::new(Vec::new()),
        }
    }

    /// Number of members in the fleet.
    pub fn num_members(&self) -> usize {
        self.members.len()
    }

    /// The engine every member was compiled for.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// The shared byte partition (`None` under [`Engine::Nfa`]).
    pub fn shared_classes(&self) -> Option<&ByteClasses> {
        self.classes.as_ref()
    }

    /// Number of needles enrolled in the shared scanner.
    pub fn num_needles(&self) -> usize {
        self.scanner.num_needles()
    }

    /// The compiled spanner of member `i` (fleet compile order).
    pub fn member(&self, i: usize) -> &ExecSpanner {
        &self.members[i].spanner
    }

    /// Fused whole-document evaluation: one relation per member, equal
    /// to `member(i).eval(doc)` for every `i` (the differential suites
    /// assert this). Uses pooled scratch; corpus-scale callers should
    /// stream through a [`FleetRunner`] instead.
    pub fn eval(&self, doc: &[u8]) -> Vec<SpanRelation> {
        let mut out = vec![SpanRelation::empty(); self.members.len()];
        let mut scratch = self
            .scratch_pool
            .lock()
            .pop()
            .unwrap_or_else(|| SegmentWork::scratch(self));
        SegmentWork::eval(self, doc, None, &mut scratch, |mi, rel| out[mi] = rel);
        self.scratch_pool.lock().push(scratch);
        out
    }
}

/// The fused pass as the pipeline's per-segment work: every member is a
/// result column, and a segment cache is probed per surviving
/// `(segment, member)` dispatch.
impl SegmentWork for Fleet {
    type Scratch = FleetScratch;
    type Tally = FleetTally;

    fn members(&self) -> usize {
        self.members.len()
    }

    /// The members' stable ids folded into one key (FNV-1a).
    fn memo_id(&self) -> u64 {
        self.members.iter().fold(0xcbf29ce484222325u64, |key, m| {
            (key ^ m.spanner.cache_id()).wrapping_mul(0x100000001b3)
        })
    }

    fn scratch(&self) -> FleetScratch {
        let n = self.members.len();
        FleetScratch {
            caches: (0..n).map(|_| DenseCache::default()).collect(),
            cheap_pass: vec![false; n],
            evidence: vec![0; n],
            epoch: 0,
            tally: FleetTally {
                candidates: vec![0; n],
                ..FleetTally::default()
            },
        }
    }

    /// The fused per-segment pass: cheap gates → one shared scan with
    /// early exit → dispatch to the surviving members' engines. `sink`
    /// receives `(member, relation)` for every dispatched member (the
    /// relation may be empty — a false candidate); pruned members
    /// provably contribute empty relations and are not reported.
    ///
    /// With a `seg_cache`, each surviving `(segment, member)` dispatch
    /// is first looked up by content under the member's
    /// [`ExecSpanner::cache_id`]; a hit replaces the engine call with
    /// the byte-identical stored relation (gates and the shared scan
    /// still run — they are what keeps the per-member key space sparse).
    fn eval(
        &self,
        bytes: &[u8],
        seg_cache: Option<&SegmentCache>,
        scratch: &mut FleetScratch,
        mut sink: impl FnMut(usize, SpanRelation),
    ) {
        let tally = &mut scratch.tally;
        scratch.epoch += 1;
        let epoch = scratch.epoch;
        // Cheap per-member facts; count scanned members still awaiting
        // content evidence, so the scan can stop as soon as all have it.
        let mut awaiting = 0usize;
        for (mi, m) in self.members.iter().enumerate() {
            let pass =
                bytes.len() >= m.min_len && (m.prefix.is_empty() || bytes.starts_with(&m.prefix));
            scratch.cheap_pass[mi] = pass;
            if !pass {
                tally.gate_rejected += 1;
            } else if m.scanned {
                awaiting += 1;
            }
        }
        if awaiting > 0 {
            let mut remaining = awaiting;
            let mut sc = self.scanner.scanner();
            let consumed = self.scanner.push(&mut sc, bytes, |nid, _end| {
                let owner = self.needle_owner[nid] as usize;
                if scratch.cheap_pass[owner] && scratch.evidence[owner] != epoch {
                    scratch.evidence[owner] = epoch;
                    remaining -= 1;
                    if remaining == 0 {
                        return false;
                    }
                }
                true
            });
            tally.shared_scan_bytes += consumed as u64;
        }
        for (mi, m) in self.members.iter().enumerate() {
            if !scratch.cheap_pass[mi] {
                continue;
            }
            if m.scanned {
                if scratch.evidence[mi] != epoch {
                    tally.scan_rejected += 1;
                    continue;
                }
            } else if let Some(f) = &m.finder {
                if f.find(bytes).is_none() {
                    tally.gate_rejected += 1;
                    continue;
                }
            }
            tally.candidates[mi] += 1;
            tally.dispatches += 1;
            match seg_cache {
                Some(sc) => {
                    let (rel, _) = sc.get_or_eval(m.spanner.cache_id(), bytes, || {
                        m.spanner
                            .eval_with(bytes, &mut scratch.caches[mi], &mut tally.prefilter)
                    });
                    sink(mi, SpanRelation::clone(&rel));
                }
                None => {
                    let rel =
                        m.spanner
                            .eval_with(bytes, &mut scratch.caches[mi], &mut tally.prefilter);
                    sink(mi, rel);
                }
            }
        }
    }

    fn tally(&self, scratch: FleetScratch) -> FleetTally {
        let cache = scratch
            .caches
            .iter()
            .fold(DenseCacheStats::default(), |acc, c| acc.merge(c.stats()));
        FleetTally {
            cache,
            ..scratch.tally
        }
    }

    fn merge(total: &mut FleetTally, part: FleetTally) {
        total.shared_scan_bytes += part.shared_scan_bytes;
        total.dispatches += part.dispatches;
        total.gate_rejected += part.gate_rejected;
        total.scan_rejected += part.scan_rejected;
        if total.candidates.len() < part.candidates.len() {
            total.candidates.resize(part.candidates.len(), 0);
        }
        for (agg, c) in total.candidates.iter_mut().zip(part.candidates) {
            *agg += c;
        }
        total.cache = total.cache.merge(part.cache);
        total.prefilter = total.prefilter.merge(part.prefilter);
    }
}

impl FleetResult {
    /// The fleet view of a pipeline run.
    pub(crate) fn from_run(run: Run<FleetTally>) -> FleetResult {
        let (f, t) = (run.feed, run.tally);
        FleetResult {
            relations: run.relations,
            stats: FleetStats {
                docs: f.docs,
                docs_reused: f.docs_reused,
                segments: f.segments,
                segment_bytes: f.segment_bytes,
                batches: f.batches,
                peak_buffered_bytes: f.peak_buffered_bytes,
                shared_scan_bytes: t.shared_scan_bytes,
                dispatches: t.dispatches,
                gate_rejected: t.gate_rejected,
                scan_rejected: t.scan_rejected,
                candidates: t.candidates,
                cache: t.cache,
                prefilter: t.prefilter,
                splitter_bytes_skipped: f.splitter_skipped,
                splitter_bytes_stitched: f.splitter_stitched,
            },
        }
    }
}

/// Streaming fused corpus executor: the fleet-wide analogue of
/// [`crate::CorpusRunner`] — one splitter pass, one bounded queue, one
/// worker pool, N spanners. Reuses [`crate::CorpusRunnerConfig`]
/// (`workers`, `batch_bytes`, `queue_depth`, `chunk_bytes` mean exactly
/// what they mean there).
#[derive(Debug)]
pub struct FleetRunner(Pipeline<Fleet>);

impl FleetRunner {
    /// Creates a runner evaluating `fleet` over the segments produced by
    /// `splitter`. As with [`crate::CorpusRunner`], results equal
    /// whole-document evaluation exactly when each member is certified
    /// split-correct for the splitter; the runner computes each
    /// `P_S ∘ S` faithfully either way.
    pub fn new(
        fleet: Arc<Fleet>,
        splitter: CompiledSplitter,
        config: CorpusRunnerConfig,
    ) -> FleetRunner {
        FleetRunner(Pipeline::new(fleet, splitter, config, None))
    }

    /// [`FleetRunner::new`], but fused evaluation workers run on the
    /// shared long-lived `pool` instead of per-run spawned threads —
    /// identical results, zero thread spawn/join per request (see
    /// [`crate::CorpusRunner::with_pool`]).
    pub fn with_pool(
        fleet: Arc<Fleet>,
        splitter: CompiledSplitter,
        config: CorpusRunnerConfig,
        pool: Arc<EvalPool>,
    ) -> FleetRunner {
        FleetRunner(Pipeline::new(fleet, splitter, config, Some(pool)))
    }

    /// Attaches a shared [`SegmentCache`]: each surviving
    /// `(segment, member)` dispatch is answered from the cache when the
    /// segment content was already evaluated under that member. Results
    /// are byte-identical with or without a cache (see
    /// [`crate::CorpusRunner::with_segment_cache`]).
    pub fn with_segment_cache(self, cache: Arc<SegmentCache>) -> FleetRunner {
        FleetRunner(self.0.with_segment_cache(cache))
    }

    /// The runner's configuration.
    pub fn config(&self) -> &CorpusRunnerConfig {
        &self.0.config
    }

    /// The fleet being evaluated.
    pub fn fleet(&self) -> &Arc<Fleet> {
        &self.0.work
    }

    /// The pipeline this runner wraps (for [`crate::CorpusHandle`]).
    pub(crate) fn pipeline(&self) -> &Pipeline<Fleet> {
        &self.0
    }

    /// Streams a corpus of chunked document sources through the fused
    /// pipeline (same contract as [`crate::CorpusRunner::run_streams`]:
    /// one item per document, delivered chunk by chunk, never
    /// materialized).
    ///
    /// An **empty fleet** short-circuits to no work: documents are
    /// counted but never split, scanned, or dispatched.
    pub fn run_streams<D, C, B>(&self, docs: D) -> FleetResult
    where
        D: IntoIterator<Item = C>,
        C: IntoIterator<Item = B>,
        B: AsRef<[u8]>,
    {
        FleetResult::from_run(self.0.run_streams(docs))
    }

    /// Evaluates documents whose split is already known, skipping the
    /// splitter: each item is `(document bytes, split spans)` — the
    /// fleet analogue of [`crate::CorpusRunner::run_presplit`], used by
    /// the incremental layer to re-query maintained corpora.
    pub fn run_presplit<'a, D>(&self, docs: D) -> FleetResult
    where
        D: IntoIterator<Item = (&'a [u8], &'a [Span])>,
    {
        FleetResult::from_run(self.0.run_presplit(docs))
    }

    /// Runs already-materialized documents through the streaming path,
    /// feeding each in [`crate::CorpusRunnerConfig::chunk_bytes`]-sized
    /// chunks — the entry point the differential tests and the
    /// `e7_fleet` benchmark compare against per-member sequential runs.
    pub fn run_slices(&self, docs: &[&[u8]]) -> FleetResult {
        FleetResult::from_run(self.0.run_slices(docs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{CorpusRunner, CorpusRunnerConfig};
    use splitc_spanner::rgx::Rgx;
    use splitc_spanner::splitter;

    fn vsa(pat: &str) -> Vsa {
        Rgx::parse(pat).unwrap().to_vsa().unwrap()
    }

    fn fleet_of(pats: &[&str], engine: Engine) -> Fleet {
        Fleet::compile(&pats.iter().map(|p| vsa(p)).collect::<Vec<_>>(), engine)
    }

    fn docs() -> Vec<Vec<u8>> {
        vec![
            b"qab12 plain words. tail qx9 end".to_vec(),
            b"".to_vec(),
            b"nothing relevant anywhere".to_vec(),
            b"qab7. qcd8. qab9 qcd1".to_vec(),
            b"...".to_vec(),
        ]
    }

    const PATS: [&str; 4] = [".*x{qab[0-9]+}.*", ".*x{qcd[0-9]+}.*", ".*x{a+}.*", "x{.*}"];

    #[test]
    fn eval_matches_per_member_eval() {
        for engine in [Engine::Nfa, Engine::Dense, Engine::Prefilter, Engine::Aot] {
            let fleet = fleet_of(&PATS, engine);
            for doc in docs() {
                let fused = fleet.eval(&doc);
                for (mi, rel) in fused.iter().enumerate() {
                    assert_eq!(
                        rel,
                        &fleet.member(mi).eval(&doc),
                        "member {mi} on {:?} under {engine:?}",
                        String::from_utf8_lossy(&doc)
                    );
                }
            }
        }
    }

    #[test]
    fn runner_matches_sequential_corpus_runners() {
        let owned = docs();
        let refs: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
        let config = CorpusRunnerConfig {
            workers: 3,
            batch_bytes: 4,
            queue_depth: 2,
            chunk_bytes: 3,
        };
        for engine in [Engine::Nfa, Engine::Dense, Engine::Prefilter, Engine::Aot] {
            let fleet = Arc::new(fleet_of(&PATS, engine));
            let runner = FleetRunner::new(fleet.clone(), splitter::sentences().compile(), config);
            let got = runner.run_slices(&refs);
            assert_eq!(got.stats.docs, refs.len());
            for (mi, pat) in PATS.iter().enumerate() {
                let seq = CorpusRunner::new(
                    crate::ExecSpanner::compile_with(&vsa(pat), engine),
                    splitter::sentences().compile(),
                    config,
                );
                let expected = seq.run_slices(&refs);
                for (di, rel) in expected.relations.iter().enumerate() {
                    assert_eq!(
                        &got.relations[di][mi], rel,
                        "doc {di} member {mi} under {engine:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn shared_scan_prunes_dispatches() {
        // Two keyword members with disjoint literals and no catch-all:
        // on a corpus where each sentence mentions at most one keyword,
        // the fused pass must dispatch fewer (segment, member) pairs
        // than sequential evaluation would (segments × members).
        let owned = docs();
        let refs: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
        let fleet = Arc::new(fleet_of(
            &[".*x{qab[0-9]+}.*", ".*x{qcd[0-9]+}.*"],
            Engine::Prefilter,
        ));
        assert!(fleet.num_needles() >= 2, "keywords should enroll needles");
        let runner = FleetRunner::new(
            fleet.clone(),
            splitter::sentences().compile(),
            CorpusRunnerConfig::default(),
        );
        let got = runner.run_slices(&refs);
        let all_pairs = (got.stats.segments * fleet.num_members()) as u64;
        assert!(
            got.stats.dispatches < all_pairs,
            "fused pass should prune: {} dispatches of {all_pairs} pairs",
            got.stats.dispatches
        );
        assert_eq!(
            got.stats.dispatches + got.stats.gate_rejected + got.stats.scan_rejected,
            all_pairs,
            "every (segment, member) pair is dispatched or rejected exactly once"
        );
        assert_eq!(
            got.stats.candidates.iter().sum::<u64>(),
            got.stats.dispatches
        );
        assert!(got.stats.fan_out() < fleet.num_members() as f64);
    }

    #[test]
    fn empty_fleet_short_circuits() {
        let owned = docs();
        let refs: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
        let fleet = Arc::new(Fleet::compile(&[], Engine::Dense));
        assert_eq!(fleet.num_members(), 0);
        let runner = FleetRunner::new(
            fleet,
            splitter::sentences().compile(),
            CorpusRunnerConfig::default(),
        );
        let got = runner.run_slices(&refs);
        assert_eq!(got.stats.docs, refs.len());
        assert_eq!(got.stats.segments, 0, "no splitting work for empty fleets");
        assert_eq!(got.stats.dispatches, 0);
        assert!(got.relations.iter().all(Vec::is_empty));
    }

    #[test]
    fn empty_corpus() {
        let fleet = Arc::new(fleet_of(&PATS, Engine::Dense));
        let runner = FleetRunner::new(
            fleet,
            splitter::sentences().compile(),
            CorpusRunnerConfig::default(),
        );
        let got = runner.run_slices(&[]);
        assert!(got.relations.is_empty());
        assert_eq!(got.stats.docs, 0);
    }

    #[test]
    fn zero_length_match_member_is_always_dispatched() {
        // `.*x{}.*` matches the empty span at every position, including
        // in empty segments: min_len 0, no prefix, no content evidence
        // — the fused gates must never prune it.
        let fleet = fleet_of(&[".*x{}.*", ".*x{qab[0-9]+}.*"], Engine::Prefilter);
        for doc in [&b""[..], b"q", b"qab1"] {
            let fused = fleet.eval(doc);
            assert_eq!(fused[0], fleet.member(0).eval(doc));
            assert!(!fused[0].is_empty(), "x{{}} matches everywhere");
            assert_eq!(fused[1], fleet.member(1).eval(doc));
        }
    }

    #[test]
    fn shared_classes_are_a_common_refinement() {
        let fleet = fleet_of(&PATS, Engine::Dense);
        let classes = fleet.shared_classes().expect("dense fleets share classes");
        // Every member's transition masks must be unions of shared
        // classes: all bytes in one class agree on membership.
        for mi in 0..fleet.num_members() {
            for mask in fleet.member(mi).evsa().byte_masks() {
                for c in 0..classes.num_classes() {
                    let mut inside = classes.bytes_of(c).map(|b| mask.contains(b));
                    let first = inside.next();
                    if let Some(first) = first {
                        assert!(
                            inside.all(|m| m == first),
                            "class {c} split by a member-{mi} mask"
                        );
                    }
                }
            }
        }
        let nfa = fleet_of(&PATS, Engine::Nfa);
        assert!(nfa.shared_classes().is_none());
    }

    #[test]
    fn pooled_fleet_runner_matches_spawned() {
        let owned = docs();
        let refs: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
        let config = CorpusRunnerConfig {
            workers: 3,
            batch_bytes: 4,
            queue_depth: 2,
            chunk_bytes: 3,
        };
        let fleet = Arc::new(fleet_of(&PATS, Engine::Prefilter));
        let spawned = FleetRunner::new(fleet.clone(), splitter::sentences().compile(), config)
            .run_slices(&refs);
        let pool = Arc::new(EvalPool::new(2));
        for _request in 0..3 {
            let pooled = FleetRunner::with_pool(
                fleet.clone(),
                splitter::sentences().compile(),
                config,
                pool.clone(),
            )
            .run_slices(&refs);
            assert_eq!(pooled.relations, spawned.relations);
        }
        assert!(pool.stats().submitted >= 3);
    }

    #[test]
    fn worker_panic_does_not_deadlock() {
        // A fleet over a corpus large enough to need several batches:
        // the runner completes under a tiny bounded queue even when
        // batches vastly outnumber its depth. The panic path itself is
        // driven by `pipeline::tests::worker_panic_is_reraised_not_deadlocked`.
        let owned: Vec<Vec<u8>> = (0..64)
            .map(|i| format!("qab{i}. qcd{i}").into_bytes())
            .collect();
        let refs: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
        let fleet = Arc::new(fleet_of(&PATS, Engine::Dense));
        let runner = FleetRunner::new(
            fleet,
            splitter::sentences().compile(),
            CorpusRunnerConfig {
                workers: 2,
                batch_bytes: 1,
                queue_depth: 1,
                chunk_bytes: 2,
            },
        );
        let got = runner.run_slices(&refs);
        assert_eq!(got.stats.docs, 64);
        assert!(
            got.stats.batches > 8,
            "tiny batches should outnumber the queue"
        );
    }
}
