//! Maintained corpora: edits resplit only the dirty window.
//!
//! [`CorpusHandle`] owns a sharded corpus **together with its
//! segmentation** and keeps both up to date under point edits, appends,
//! and shard replacement — the paper's §1 Wikipedia-edit scenario made
//! operational. The key primitive is the *quiescent position*
//! ([`SplitterState::is_quiescent`]): a stream position where the
//! splitter sits in exactly its fresh-start configuration with nothing
//! pending, so the segmentation after that point is a pure (shifted)
//! function of the remaining bytes. The handle records quiescent
//! positions as **sync points** while splitting, and an edit then:
//!
//! 1. rewinds to the greatest sync point at or before the edit start
//!    (the *left frontier* `left` — no segment crosses it). Ownership
//!    at the frontier: **every span with `start >= left` belongs to the
//!    resplit**, because a fresh stream started at a quiescent point
//!    re-emits exactly the old continuation — including an empty span
//!    sitting *on* `left`. Only spans with `start < left` are kept from
//!    the old segmentation (the right frontier uses the same rule);
//! 2. resplits forward with a fresh splitter stream, probing each old
//!    sync point past the edit (shifted by the edit's byte delta): the
//!    first one where the new stream is also quiescent is the *right
//!    frontier* — from there the old suffix segmentation is provably
//!    identical modulo the shift, so it is spliced back instead of
//!    resplit;
//! 3. falls back to resplitting the rest of the shard when no sync
//!    point converges (rare; e.g. an edit that opens an unbounded
//!    segment). Either way the resulting segmentation equals a full
//!    split of the edited bytes — the differential proptests assert
//!    exactly that, byte for byte.
//!
//! Re-extraction is two-tier:
//!
//! * **Shard tier**: the handle stamps every shard with a generation
//!   (bumped by each mutation) and memoizes, per spanner, the relation
//!   each shard produced at its current generation. An extract runs the
//!   runner over **dirty shards only** — clean shards hand their
//!   relation back verbatim (`stats.docs_reused` counts them). After a
//!   point edit to one shard of an N-shard corpus, N−1 shards never
//!   touch the runner at all.
//! * **Segment tier**: within a dirty shard, a shared
//!   [`crate::SegmentCache`] attached to the runner answers the
//!   unchanged segments — all but the edit's dirty window — by content,
//!   so only the edited segments reach an engine.
//!
//! Both tiers go through the runners' presplit path (no resplitting on
//! the query path): [`CorpusHandle::extract`] and
//! [`CorpusHandle::extract_fleet`] are one generic memoized re-query
//! over the crate's streaming pipeline, keyed by the work's memo id, with
//! one memo table whose rows hold one relation per member. Both tiers
//! are speed-only: extraction results are byte-identical to a full
//! from-scratch rescan, which the differential proptests assert over
//! random edit scripts and the `t8_incremental` benchmark measures as
//! the incremental ≥-speedup asserted in CI.

use crate::corpus::CorpusRunner;
use crate::fleet::FleetRunner;
use crate::pipeline::{Pipeline, RunResult, SegmentWork};
use parking_lot::Mutex;
use splitc_spanner::span::Span;
use splitc_spanner::splitter::CompiledSplitter;
use splitc_spanner::stream::SplitterState;
use splitc_spanner::tuple::SpanRelation;
use std::ops::Range;
use std::sync::Arc;

/// Streaming step used when (re)splitting shard bytes; sync points are
/// probed at these boundaries, so it bounds sync density and resplit
/// granularity.
const SYNC_STEP: usize = 1024;

/// One shard of a maintained corpus: bytes, their segmentation, and the
/// recorded sync points (ascending absolute positions, all quiescent).
#[derive(Debug, Clone)]
struct Shard {
    bytes: Vec<u8>,
    /// The splitter's segmentation of `bytes`, ascending.
    segments: Vec<Span>,
    /// Quiescent stream positions recorded during splitting (strictly
    /// between 0 and `bytes.len()`), ascending. Resplit frontiers are
    /// chosen from these.
    syncs: Vec<usize>,
    /// Monotone mutation stamp (handle-wide counter): a memoized
    /// relation is valid exactly while its recorded generation equals
    /// this one.
    generation: u64,
}

/// What one delta did: the dirty window actually resplit and how much
/// of the old segmentation survived. Returned by every mutation of a
/// [`CorpusHandle`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Left resplit frontier (absolute offset in the edited shard).
    pub window_start: usize,
    /// Right frontier in post-edit coordinates: the position where old
    /// suffix segments were spliced back, or the new shard length when
    /// no sync point converged.
    pub window_end: usize,
    /// Bytes actually re-streamed through the splitter
    /// (`window_end - window_start`).
    pub resplit_bytes: usize,
    /// Whether a right frontier was found (suffix reuse happened).
    pub converged: bool,
    /// Old segments kept untouched before the window.
    pub segments_reused_prefix: usize,
    /// Old segments spliced back (shifted) after the window.
    pub segments_reused_suffix: usize,
    /// Segments produced by resplitting the window.
    pub segments_resplit: usize,
}

/// A corpus held with its segmentation, maintained incrementally under
/// edits. See the [module docs](self) for the frontier algorithm;
/// construct with [`CorpusHandle::new`] and re-extract through
/// [`CorpusHandle::extract`] / [`CorpusHandle::extract_fleet`].
///
/// Shards are the unit of replacement (and map to documents of the
/// runner results); edits address byte ranges within one shard.
#[derive(Debug)]
pub struct CorpusHandle {
    splitter: CompiledSplitter,
    shards: Vec<Shard>,
    /// Source of shard generation stamps; bumped by every mutation.
    next_gen: u64,
    /// Per-spanner extraction memos (shard tier of incremental
    /// re-extraction; see the [module docs](self)). Interior-mutable so
    /// `extract` stays `&self`.
    memo: Mutex<Vec<SpannerMemo>>,
}

/// Upper bound of spanner/fleet keys the extraction memo retains
/// (FIFO): a handle is typically extracted by a handful of long-lived
/// runners, and an evicted key only costs one full re-run.
const MEMO_KEYS: usize = 4;

/// Per-shard memoized results for one spanner (or fleet) key.
#[derive(Debug)]
struct SpannerMemo {
    key: u64,
    /// Index-aligned with the handle's shards: the generation the row
    /// was computed at, and the row itself (one relation per member).
    /// `None` until the shard is first extracted under this key.
    per_shard: Vec<Option<(u64, Arc<Vec<SpanRelation>>)>>,
}

/// Finds (or inserts, evicting FIFO past [`MEMO_KEYS`]) the memo for
/// `key`, sized to `n_shards`.
fn memo_slot(memos: &mut Vec<SpannerMemo>, key: u64, n_shards: usize) -> &mut SpannerMemo {
    let idx = match memos.iter().position(|m| m.key == key) {
        Some(i) => i,
        None => {
            if memos.len() >= MEMO_KEYS {
                memos.remove(0);
            }
            memos.push(SpannerMemo {
                key,
                per_shard: Vec::new(),
            });
            memos.len() - 1
        }
    };
    let m = &mut memos[idx];
    m.per_shard.resize_with(n_shards, || None);
    m
}

impl CorpusHandle {
    /// An empty corpus maintained under `splitter`.
    pub fn new(splitter: CompiledSplitter) -> CorpusHandle {
        CorpusHandle {
            splitter,
            shards: Vec::new(),
            next_gen: 0,
            memo: Mutex::new(Vec::new()),
        }
    }

    /// The next generation stamp (each mutation consumes one).
    fn bump_gen(&mut self) -> u64 {
        self.next_gen += 1;
        self.next_gen
    }

    /// Builds a corpus from shard byte buffers, splitting each fully
    /// once (the only full-corpus split the handle ever does).
    pub fn from_shards<I>(splitter: CompiledSplitter, shards: I) -> CorpusHandle
    where
        I: IntoIterator<Item = Vec<u8>>,
    {
        let mut handle = CorpusHandle::new(splitter);
        for bytes in shards {
            handle.push_shard(bytes);
        }
        handle
    }

    /// Appends a new shard, returning its index.
    pub fn push_shard(&mut self, bytes: Vec<u8>) -> usize {
        let (segments, syncs) = split_recording_syncs(&self.splitter, &bytes);
        let generation = self.bump_gen();
        self.shards.push(Shard {
            bytes,
            segments,
            syncs,
            generation,
        });
        self.shards.len() - 1
    }

    /// Replaces shard `shard` wholesale (a full resplit of that shard —
    /// other shards are untouched, and unchanged segment *content*
    /// still hits the segment cache on re-extraction).
    pub fn replace_shard(&mut self, shard: usize, bytes: Vec<u8>) -> DeltaStats {
        let (segments, syncs) = split_recording_syncs(&self.splitter, &bytes);
        let stats = DeltaStats {
            window_start: 0,
            window_end: bytes.len(),
            resplit_bytes: bytes.len(),
            converged: false,
            segments_reused_prefix: 0,
            segments_reused_suffix: 0,
            segments_resplit: segments.len(),
        };
        let generation = self.bump_gen();
        self.shards[shard] = Shard {
            bytes,
            segments,
            syncs,
            generation,
        };
        stats
    }

    /// Appends bytes to shard `shard` — the log-tailing delta. Resplits
    /// only from the last sync point (for sync-dense splitters like
    /// sentences or lines, a constant-size tail).
    pub fn append(&mut self, shard: usize, bytes: &[u8]) -> DeltaStats {
        let len = self.shards[shard].bytes.len();
        self.edit(shard, len..len, bytes)
    }

    /// Replaces `range` of shard `shard` with `replacement` (the point
    /// edit; inserts and deletes are the empty-range / empty-replacement
    /// cases). Only the dirty window between the two frontiers is
    /// re-streamed; the resulting segmentation equals a full split of
    /// the edited bytes.
    ///
    /// # Panics
    /// If `shard` is out of bounds or `range` exceeds the shard.
    pub fn edit(&mut self, shard: usize, range: Range<usize>, replacement: &[u8]) -> DeltaStats {
        let generation = self.bump_gen();
        let sh = &mut self.shards[shard];
        assert!(
            range.start <= range.end && range.end <= sh.bytes.len(),
            "edit range {range:?} out of bounds (shard len {})",
            sh.bytes.len()
        );
        let delta = replacement.len() as isize - range.len() as isize;

        // Left frontier: greatest sync ≤ edit start (0 when none).
        // Quiescence guarantees no old segment crosses it.
        let left = match sh.syncs.partition_point(|&s| s <= range.start) {
            0 => 0,
            i => sh.syncs[i - 1],
        };

        // Splice the bytes.
        let mut new_bytes = Vec::with_capacity((sh.bytes.len() as isize + delta) as usize);
        new_bytes.extend_from_slice(&sh.bytes[..range.start]);
        new_bytes.extend_from_slice(replacement);
        new_bytes.extend_from_slice(&sh.bytes[range.end..]);

        // Candidate right frontiers: old sync points at or past the
        // edit end, mapped into post-edit coordinates. At such a
        // position the bytes from there on are the untouched old
        // suffix, so new-stream quiescence there proves the old suffix
        // segmentation correct (modulo the shift).
        let candidates: Vec<(usize, usize)> = sh
            .syncs
            .iter()
            .filter(|&&q| q >= range.end)
            .map(|&q| (q, (q as isize + delta) as usize))
            .filter(|&(_, q_new)| q_new > left)
            .collect();

        // Resplit the window [left ..], probing each candidate.
        let window = &new_bytes[left..];
        let mut new_segments: Vec<Span> = Vec::new(); // window-local
        let mut new_syncs: Vec<usize> = Vec::new(); // window-local
        let mut frontier: Option<(usize, usize)> = None; // (q_old, q_new)
        match self.splitter.stream() {
            // No stream (over the phase-DFA budget), so no sync points:
            // `left` is 0 and the whole shard is resplit.
            None => new_segments = self.splitter.split(window),
            Some(mut st) => {
                let mut fed = 0usize;
                for &(q_old, q_new) in &candidates {
                    let target = q_new - left;
                    feed_to(
                        &mut st,
                        window,
                        &mut fed,
                        target,
                        &mut new_segments,
                        &mut new_syncs,
                    );
                    if st.is_quiescent() {
                        frontier = Some((q_old, q_new));
                        break;
                    }
                }
                if frontier.is_none() {
                    // No convergence: resplit through the end of the shard.
                    feed_to(
                        &mut st,
                        window,
                        &mut fed,
                        window.len(),
                        &mut new_segments,
                        &mut new_syncs,
                    );
                    new_segments.extend(st.finish());
                }
            }
        }

        // Reassemble: untouched prefix + resplit window + (shifted)
        // reused suffix.
        let prefix_end = sh.segments.partition_point(|s| s.start < left);
        let mut segments: Vec<Span> = sh.segments[..prefix_end].to_vec();
        let reused_prefix = segments.len();
        let resplit = new_segments.len();
        segments.extend(
            new_segments
                .into_iter()
                .map(|s| Span::new(s.start + left, s.end + left)),
        );
        let mut syncs: Vec<usize> = sh.syncs.iter().copied().filter(|&s| s <= left).collect();
        syncs.extend(new_syncs.into_iter().map(|s| s + left));
        let mut reused_suffix = 0;
        let (window_end, converged) = match frontier {
            Some((q_old, q_new)) => {
                let suffix_start = sh.segments.partition_point(|s| s.start < q_old);
                for s in &sh.segments[suffix_start..] {
                    segments.push(Span::new(
                        (s.start as isize + delta) as usize,
                        (s.end as isize + delta) as usize,
                    ));
                    reused_suffix += 1;
                }
                if q_new < new_bytes.len() {
                    syncs.push(q_new);
                }
                syncs.extend(
                    sh.syncs
                        .iter()
                        .filter(|&&s| s > q_old)
                        .map(|&s| (s as isize + delta) as usize)
                        .filter(|&s| s < new_bytes.len()),
                );
                (q_new, true)
            }
            None => (new_bytes.len(), false),
        };

        syncs.dedup();
        sh.bytes = new_bytes;
        sh.segments = segments;
        sh.syncs = syncs;
        sh.generation = generation;
        DeltaStats {
            window_start: left,
            window_end,
            resplit_bytes: window_end - left,
            converged,
            segments_reused_prefix: reused_prefix,
            segments_reused_suffix: reused_suffix,
            segments_resplit: resplit,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The bytes of shard `shard`.
    pub fn shard_bytes(&self, shard: usize) -> &[u8] {
        &self.shards[shard].bytes
    }

    /// The maintained segmentation of shard `shard`.
    pub fn segments(&self, shard: usize) -> &[Span] {
        &self.shards[shard].segments
    }

    /// Total segments across all shards.
    pub fn total_segments(&self) -> usize {
        self.shards.iter().map(|s| s.segments.len()).sum()
    }

    /// Total bytes across all shards.
    pub fn total_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.bytes.len() as u64).sum()
    }

    /// The corpus as `(bytes, segmentation)` documents, one per shard —
    /// the shape [`CorpusRunner::run_presplit`] consumes.
    pub fn presplit_docs(&self) -> impl Iterator<Item = (&[u8], &[Span])> {
        self.shards
            .iter()
            .map(|s| (s.bytes.as_slice(), s.segments.as_slice()))
    }

    /// Re-extracts the whole corpus through `runner` **without
    /// resplitting** (one relation per shard). Incremental on both
    /// tiers (see the [module docs](self)): shards unchanged since the
    /// last extraction under this spanner reuse their memoized relation
    /// without touching the runner (`stats.docs_reused` counts them),
    /// and within the dirty shards a shared [`crate::SegmentCache`]
    /// attached to the runner answers the segments whose content is
    /// unchanged. `stats.docs` covers every shard; the remaining run
    /// statistics (segments, bytes, batches, engine counters) account
    /// the dirty shards actually streamed.
    pub fn extract(&self, runner: &CorpusRunner) -> RunResult<SpanRelation> {
        self.requery(runner.pipeline()).single()
    }

    /// [`CorpusHandle::extract`] for a fused fleet: the memo key is the
    /// fleet's member identity, the memoized unit is the per-shard row
    /// of member relations.
    pub fn extract_fleet(&self, runner: &FleetRunner) -> RunResult<Vec<SpanRelation>> {
        self.requery(runner.pipeline())
    }

    /// The memoized re-query behind both extracts: runs the dirty shards
    /// through the pipeline's presplit path and splices the memoized rows
    /// of the clean ones back in.
    fn requery<W: SegmentWork>(&self, pipeline: &Pipeline<W>) -> RunResult<Vec<SpanRelation>> {
        let mut memos = self.memo.lock();
        let memo = memo_slot(&mut memos, pipeline.work.memo_id(), self.shards.len());
        let dirty = dirty_shards(&self.shards, memo);
        let mut run = pipeline.run_presplit(dirty.iter().map(|&i| {
            (
                self.shards[i].bytes.as_slice(),
                self.shards[i].segments.as_slice(),
            )
        }));
        run.relations = assemble(
            &self.shards,
            memo,
            &dirty,
            std::mem::take(&mut run.relations),
        );
        run.stats.docs = self.shards.len();
        run.stats.docs_reused = self.shards.len() - dirty.len();
        run
    }
}

/// Shard indices whose memoized result is missing or stale (ascending).
fn dirty_shards(shards: &[Shard], memo: &SpannerMemo) -> Vec<usize> {
    (0..shards.len())
        .filter(|&i| {
            memo.per_shard[i]
                .as_ref()
                .is_none_or(|(g, _)| *g != shards[i].generation)
        })
        .collect()
}

/// Rebuilds the full per-shard result vector: freshly-run relations for
/// the dirty shards (memoizing each at the shard's current generation),
/// memoized relations cloned out for the clean ones. `fresh` is
/// index-aligned with `dirty` (the runner preserves input order).
fn assemble(
    shards: &[Shard],
    memo: &mut SpannerMemo,
    dirty: &[usize],
    fresh: Vec<Vec<SpanRelation>>,
) -> Vec<Vec<SpanRelation>> {
    debug_assert_eq!(dirty.len(), fresh.len());
    let mut fresh = fresh.into_iter();
    let mut next_dirty = dirty.iter().copied().peekable();
    shards
        .iter()
        .enumerate()
        .map(|(i, shard)| {
            if next_dirty.peek() == Some(&i) {
                next_dirty.next();
                let rel = fresh.next().expect("one result per dirty shard");
                memo.per_shard[i] = Some((shard.generation, Arc::new(rel.clone())));
                rel
            } else {
                let (_, row) = memo.per_shard[i].as_ref().expect("clean shard is memoized");
                Vec::clone(row)
            }
        })
        .collect()
}

/// Streams `bytes[*fed..target]` into `st` in [`SYNC_STEP`] chunks,
/// collecting emitted segments and recording sync points from the
/// splitter's per-byte quiescence tracker
/// ([`SplitterState::last_quiescent`]): after each chunk, the latest
/// quiescent position inside it (window-local, interior, strictly
/// positive) is recorded — at most one sync per [`SYNC_STEP`], which
/// bounds sync density without requiring quiescence to coincide with a
/// chunk boundary (for delimiter splitters it almost never does).
fn feed_to(
    st: &mut SplitterState,
    bytes: &[u8],
    fed: &mut usize,
    target: usize,
    segments: &mut Vec<Span>,
    syncs: &mut Vec<usize>,
) {
    while *fed < target {
        let end = (*fed + SYNC_STEP).min(target);
        segments.extend(st.push(&bytes[*fed..end]));
        *fed = end;
        let q = st.last_quiescent();
        if q > 0 && q < bytes.len() && syncs.last().is_none_or(|&s| s < q) {
            syncs.push(q);
        }
    }
}

/// Fully splits `bytes`, recording sync points (the initial-split and
/// shard-replacement path). A splitter without a stream (over the
/// phase-DFA budget) records none.
fn split_recording_syncs(splitter: &CompiledSplitter, bytes: &[u8]) -> (Vec<Span>, Vec<usize>) {
    let Some(mut st) = splitter.stream() else {
        return (splitter.split(bytes), Vec::new());
    };
    let mut segments = Vec::new();
    let mut syncs = Vec::new();
    let mut fed = 0usize;
    feed_to(
        &mut st,
        bytes,
        &mut fed,
        bytes.len(),
        &mut segments,
        &mut syncs,
    );
    segments.extend(st.finish());
    (segments, syncs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusRunnerConfig;
    use crate::engine::ExecSpanner;
    use crate::segcache::SegmentCache;
    use splitc_spanner::rgx::Rgx;
    use splitc_spanner::splitter;
    use std::sync::Arc;

    fn handle_of(shards: &[&[u8]]) -> CorpusHandle {
        CorpusHandle::from_shards(
            splitter::sentences().compile(),
            shards.iter().map(|s| s.to_vec()),
        )
    }

    /// The maintained segmentation must equal a from-scratch split of
    /// the current bytes — the handle's core invariant.
    fn assert_consistent(h: &CorpusHandle) {
        let compiled = splitter::sentences().compile();
        for i in 0..h.num_shards() {
            assert_eq!(
                h.segments(i),
                compiled.split(h.shard_bytes(i)).as_slice(),
                "shard {i}: {:?}",
                String::from_utf8_lossy(h.shard_bytes(i))
            );
        }
    }

    fn big_shard() -> Vec<u8> {
        (0..500)
            .map(|i| format!("sentence number {i} with words. "))
            .collect::<String>()
            .into_bytes()
    }

    #[test]
    fn initial_split_matches_batch() {
        let h = handle_of(&[b"aa bb. cc dd. tail", b"", b"no delimiter"]);
        assert_consistent(&h);
        assert_eq!(h.num_shards(), 3);
        assert!(h.total_segments() >= 3);
    }

    #[test]
    fn point_edit_resplits_small_window_and_reuses_suffix() {
        let mut h = handle_of(&[&big_shard()]);
        let before = h.segments(0).len();
        // Edit a few bytes in the middle of the shard.
        let mid = h.shard_bytes(0).len() / 2;
        let stats = h.edit(0, mid..mid + 5, b"EDIT");
        assert_consistent(&h);
        assert!(
            stats.converged,
            "a sync-dense splitter must converge: {stats:?}"
        );
        assert!(
            stats.resplit_bytes <= 4 * SYNC_STEP,
            "window should be local to the edit: {stats:?}"
        );
        assert!(stats.segments_reused_prefix > 0);
        assert!(stats.segments_reused_suffix > 0);
        assert!(h.segments(0).len() >= before - 3);
    }

    #[test]
    fn append_resplits_only_the_tail() {
        let mut h = handle_of(&[&big_shard()]);
        let stats = h.append(0, b"appended tail. and more");
        assert_consistent(&h);
        assert!(
            stats.window_start > h.shard_bytes(0).len() / 2,
            "append must not rewind to the front: {stats:?}"
        );
        assert!(stats.segments_reused_prefix > 0);
    }

    #[test]
    fn replace_shard_and_push_shard() {
        let mut h = handle_of(&[b"aa bb. cc", b"dd ee. ff"]);
        let stats = h.replace_shard(1, b"entirely new. content here".to_vec());
        assert!(!stats.converged);
        assert_eq!(stats.segments_reused_prefix, 0);
        let i = h.push_shard(b"third shard. appended".to_vec());
        assert_eq!(i, 2);
        assert_consistent(&h);
    }

    #[test]
    fn edits_at_boundaries_and_degenerate_ranges() {
        let mut h = handle_of(&[b"aa bb. cc dd. ee ff"]);
        h.edit(0, 0..0, b"front insert. "); // insert at start
        assert_consistent(&h);
        let len = h.shard_bytes(0).len();
        h.edit(0, len..len, b" back"); // insert at end
        assert_consistent(&h);
        h.edit(0, 3..10, b""); // pure delete
        assert_consistent(&h);
        h.edit(0, 0..h.shard_bytes(0).len(), b"gone. all new"); // full rewrite
        assert_consistent(&h);
    }

    #[test]
    fn extract_matches_full_rescan_and_hits_cache() {
        let pat = Rgx::parse(".*x{a+}.*").unwrap().to_vsa().unwrap();
        let spanner = ExecSpanner::compile(&pat);
        let cache = Arc::new(SegmentCache::new(1 << 14));
        let runner = CorpusRunner::new(
            spanner.clone(),
            splitter::sentences().compile(),
            CorpusRunnerConfig {
                workers: 2,
                ..Default::default()
            },
        )
        .with_segment_cache(cache.clone());
        let full_runner = CorpusRunner::new(
            spanner,
            splitter::sentences().compile(),
            CorpusRunnerConfig::default(),
        );

        let shard: Vec<u8> = (0..200)
            .map(|i| format!("words aa{i} here. "))
            .collect::<String>()
            .into_bytes();
        let mut h = CorpusHandle::from_shards(splitter::sentences().compile(), [shard]);
        let first = h.extract(&runner);
        cache.reset_stats(); // count only the post-edit re-extraction
        let mid = h.shard_bytes(0).len() / 2;
        h.edit(0, mid..mid + 3, b"aaa");
        let second = h.extract(&runner);
        // Differential: presplit extraction equals streaming the edited
        // bytes from scratch.
        let full = full_runner.run_slices(&[h.shard_bytes(0)]);
        assert_eq!(second.relations, full.relations);
        assert_ne!(
            second.relations, first.relations,
            "the edit changed matches"
        );
        let s = cache.stats();
        assert!(
            s.hits > s.misses,
            "re-extraction after a point edit must be mostly cache hits: {s:?}"
        );
    }

    #[test]
    fn extract_memo_reuses_clean_shards() {
        let pat = Rgx::parse(".*x{a+}.*").unwrap().to_vsa().unwrap();
        let spanner = ExecSpanner::compile(&pat);
        let cache = Arc::new(SegmentCache::new(1 << 14));
        let runner = CorpusRunner::new(
            spanner,
            splitter::sentences().compile(),
            CorpusRunnerConfig::default(),
        )
        .with_segment_cache(cache.clone());
        let shards: Vec<Vec<u8>> = (0..4)
            .map(|s| {
                (0..50)
                    .map(|i| format!("shard {s} sentence aa{i}. "))
                    .collect::<String>()
                    .into_bytes()
            })
            .collect();
        let mut h = CorpusHandle::from_shards(splitter::sentences().compile(), shards);

        let cold = h.extract(&runner);
        assert_eq!(cold.stats.docs_reused, 0);
        assert_eq!(cold.stats.docs, 4);

        // Unchanged corpus: every shard comes from the memo — the
        // runner (and thus the segment cache) is never consulted.
        cache.reset_stats();
        let warm = h.extract(&runner);
        assert_eq!(warm.relations, cold.relations);
        assert_eq!(warm.stats.docs_reused, 4);
        assert_eq!(warm.stats.segments, 0);
        assert_eq!(cache.stats(), crate::SegCacheStats::default());

        // Edit one shard: exactly that shard is re-run; within it the
        // segment cache answers everything outside the dirty window.
        h.edit(0, 0..0, b"front aaa insert. ");
        let third = h.extract(&runner);
        assert_eq!(third.stats.docs_reused, 3);
        assert_eq!(third.relations[1..], cold.relations[1..]);
        assert_ne!(third.relations[0], cold.relations[0]);

        // The full rescan still matches — the memo is speed-only.
        let full = CorpusRunner::new(
            ExecSpanner::compile(&pat),
            splitter::sentences().compile(),
            CorpusRunnerConfig::default(),
        )
        .run_presplit(h.presplit_docs());
        assert_eq!(third.relations, full.relations);
    }
}

/// One document as a single-shard handle: with a segment cache, a
/// re-extraction after an edit re-evaluates only the touched segments.
#[cfg(test)]
mod single_shard {
    use super::*;
    use crate::corpus::CorpusRunnerConfig;
    use crate::engine::ExecSpanner;
    use crate::segcache::{SegCacheStats, SegmentCache};
    use splitc_spanner::rgx::Rgx;
    use splitc_spanner::splitter;

    fn spanner(pat: &str) -> ExecSpanner {
        ExecSpanner::compile(&Rgx::parse(pat).unwrap().to_vsa().unwrap())
    }

    /// One worker, so cache hit/miss counts are exact.
    fn cached_runner(spanner: ExecSpanner, cache: &Arc<SegmentCache>) -> CorpusRunner {
        let config = CorpusRunnerConfig {
            workers: 1,
            ..Default::default()
        };
        CorpusRunner::new(spanner, splitter::sentences().compile(), config)
            .with_segment_cache(cache.clone())
    }

    fn one_shard(doc: &[u8]) -> CorpusHandle {
        CorpusHandle::from_shards(splitter::sentences().compile(), [doc.to_vec()])
    }

    #[test]
    fn single_shard_extract_matches_direct() {
        let p = spanner(".*x{a+}.*");
        let cache = Arc::new(SegmentCache::new(1 << 10));
        let doc = b"aa b. c aaa. aa";
        let got = one_shard(doc).extract(&cached_runner(p.clone(), &cache));
        assert_eq!(
            got.relations,
            vec![p.eval(doc)],
            "self-splittable: equal semantics"
        );
    }

    #[test]
    fn single_segment_edit_reuses_other_segments() {
        let p = spanner(".*x{a+}.*");
        let cache = Arc::new(SegmentCache::new(1 << 10));
        let runner = cached_runner(p.clone(), &cache);
        let mut h = one_shard(b"aaa bb. cc aa. dd a");
        h.extract(&runner);
        assert_eq!((cache.stats().misses, cache.stats().hits), (3, 0));
        // Edit the middle sentence only.
        h.edit(0, 11..13, b"aaaa");
        let rel = h.extract(&runner);
        let s = cache.stats();
        assert_eq!(s.misses, 4, "only the edited segment is recomputed");
        assert_eq!(s.hits, 2, "the other two segments come from cache");
        assert_eq!(rel.relations, vec![p.eval(b"aaa bb. cc aaaa. dd a")]);
    }

    #[test]
    fn repeated_segments_hit_cache_within_one_shard() {
        let cache = Arc::new(SegmentCache::new(1 << 10));
        let runner = cached_runner(spanner(".*x{a+}.*"), &cache);
        let got = one_shard(b"aa.aa.aa").extract(&runner);
        let s = cache.stats();
        assert_eq!((s.misses, s.hits), (1, 2), "three identical segments");
        // Per segment: x ∈ {a@0, a@1, aa} — 3 tuples, shifted apart.
        assert_eq!(
            got.relations[0].len(),
            9,
            "shifted copies are distinct tuples"
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn clear_resets() {
        let p = spanner("x{a*}");
        let cache = Arc::new(SegmentCache::new(1 << 10));
        let runner = cached_runner(p.clone(), &cache);
        let first = one_shard(b"aa").extract(&runner);
        assert!(!cache.is_empty());
        cache.clear();
        cache.reset_stats();
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats(), SegCacheStats::default());
        // A fresh handle (no shard memo) over a cleared cache recomputes,
        // and still returns the same result.
        let again = one_shard(b"aa").extract(&runner);
        assert_eq!((cache.stats().misses, cache.stats().hits), (1, 0));
        assert_eq!(again.relations, first.relations);
        assert_eq!(again.relations, vec![p.eval(b"aa")]);
    }

    #[test]
    fn eviction_never_changes_results() {
        // A cache starved to a couple of entries must keep returning
        // exactly what an unbounded one returns, across a working set
        // far larger than its capacity, while actually evicting.
        let p = spanner(".*x{a+}.*");
        let starved = Arc::new(SegmentCache::new(2));
        let unbounded = Arc::new(SegmentCache::new(1 << 16));
        let docs: Vec<String> = (0..40)
            .map(|i| format!("aa{i} bb. cc a{i}a. dd aaa{i}. tail a"))
            .collect();
        for round in 0..2 {
            for (i, d) in docs.iter().enumerate() {
                let a = one_shard(d.as_bytes()).extract(&cached_runner(p.clone(), &starved));
                let b = one_shard(d.as_bytes()).extract(&cached_runner(p.clone(), &unbounded));
                assert_eq!(a.relations, b.relations, "round {round} doc {i}");
            }
        }
        let s = starved.stats();
        assert!(s.evictions > 0, "the bound must have been enforced: {s:?}");
        assert!(
            starved.len() <= starved.capacity(),
            "cache stayed within its bound"
        );
    }
}

/// Deterministic frontier coverage: edits one before, at, and one after
/// every recorded sync point, with the edit starting there (left
/// frontier) and ending there (right frontier), for every splitter of
/// the differential pool.
#[cfg(test)]
mod frontier_table {
    use super::*;
    use crate::corpus::CorpusRunnerConfig;
    use crate::engine::ExecSpanner;
    use crate::pool::EvalPool;
    use crate::segcache::SegmentCache;
    use splitc_spanner::rgx::Rgx;

    /// `len` bytes over the differential alphabet (letters, sentence and
    /// line delimiters, spaces), from a fixed linear congruential stream.
    /// Every [`SYNC_STEP`] multiple — where chunked splitting tends to
    /// record its syncs — holds an `a`, so the everywhere-empty splitter
    /// puts an empty span on those syncs.
    fn text(seed: u64, len: usize) -> Vec<u8> {
        const ALPHABET: &[u8] = b"aabbc. \n";
        let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        (0..len)
            .map(|i| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                match i % SYNC_STEP {
                    0 => b'a',
                    _ => ALPHABET[(x >> 33) as usize % ALPHABET.len()],
                }
            })
            .collect()
    }

    #[test]
    fn edits_around_recorded_syncs_match_batch_split() {
        let spanner = ExecSpanner::compile(&Rgx::parse(".*x{}.*").unwrap().to_vsa().unwrap());
        let config = CorpusRunnerConfig {
            workers: 2,
            batch_bytes: 256,
            ..Default::default()
        };
        let pool = Arc::new(EvalPool::new(2));
        let mut synced = 0;
        for (si, s) in crate::proptests::splitter_pool().iter().enumerate() {
            let compiled = s.compile();
            let shard = text(si as u64, 3 * SYNC_STEP + 512);
            let syncs = CorpusHandle::from_shards(compiled.clone(), [shard.clone()]).shards[0]
                .syncs
                .clone();
            if !syncs.is_empty() {
                assert!(syncs.len() >= 2, "splitter {si}: syncs {syncs:?}");
                synced += 1;
            }
            let cached =
                CorpusRunner::with_pool(spanner.clone(), compiled.clone(), config, pool.clone())
                    .with_segment_cache(Arc::new(SegmentCache::new(1 << 12)));
            let fresh =
                CorpusRunner::with_pool(spanner.clone(), compiled.clone(), config, pool.clone());
            for &q in &syncs {
                for p in [q - 1, q, q + 1] {
                    let left = p..(p + 3).min(shard.len());
                    let right = p.saturating_sub(3)..p;
                    for (range, replacement) in [(left, &b"b.a"[..]), (right, b"a"), (p..p, b"a")] {
                        let mut h = CorpusHandle::from_shards(compiled.clone(), [shard.clone()]);
                        h.extract(&cached);
                        h.edit(0, range.clone(), replacement);
                        let case = format!("splitter {si}, sync {q}, edit {range:?}");
                        assert_eq!(h.segments(0), compiled.split(h.shard_bytes(0)), "{case}");
                        assert_eq!(
                            h.extract(&cached).relations,
                            fresh.run_slices(&[h.shard_bytes(0)]).relations,
                            "{case}"
                        );
                    }
                }
            }
        }
        assert!(synced >= 3, "the table must reach interior sync points");
    }
}

#[cfg(test)]
mod review_probe {
    use super::*;
    use splitc_spanner::Splitter;

    #[test]
    fn empty_segment_at_left_frontier() {
        // A splitter that emits an empty span [i,i> before each 'a'.
        let s = Splitter::parse(".*x{}a.*").unwrap();
        let compiled = s.compile();
        let mut h = CorpusHandle::from_shards(compiled.clone(), [b"bbabb".to_vec()]);
        // Sanity: maintained segmentation matches batch split.
        assert_eq!(
            h.segments(0),
            compiled.split(h.shard_bytes(0)).as_slice(),
            "initial"
        );
        // Insert at position 2 (just before the 'a'), displacing it.
        h.edit(0, 2..2, b"c");
        let full = compiled.split(h.shard_bytes(0));
        assert_eq!(
            h.segments(0),
            full.as_slice(),
            "after edit: bytes {:?}",
            String::from_utf8_lossy(h.shard_bytes(0))
        );
    }

    #[test]
    fn empty_segment_at_recorded_sync() {
        let s = Splitter::parse(".*x{}a.*").unwrap();
        let compiled = s.compile();
        // 'a' exactly at position 2048 (a chunk boundary, where a sync
        // is recorded); everything else inert 'b'.
        let mut doc = vec![b'b'; 3000];
        doc[2048] = b'a';
        let mut h = CorpusHandle::from_shards(compiled.clone(), [doc]);
        assert_eq!(
            h.segments(0),
            compiled.split(h.shard_bytes(0)).as_slice(),
            "initial"
        );
        // Edit well past the empty segment; left frontier = 2048.
        h.edit(0, 2500..2501, b"X");
        let full = compiled.split(h.shard_bytes(0));
        assert_eq!(h.segments(0), full.as_slice(), "after edit");
    }
}
