//! Content-addressed per-segment result cache.
//!
//! The paper's incremental-maintenance payoff (§1) rests on one fact:
//! once `P = P_S ∘ S` is certified, the relation of a segment is a pure
//! function of the segment **bytes** — so results can be cached by
//! content and reused across edits, re-queries, and even across
//! documents that share segments. [`SegmentCache`] is the shared,
//! bounded form of that cache:
//!
//! * **Keyed by `(hash(segment bytes), spanner id)`** with the stored
//!   content verified on every hit, so hash collisions cost a re-check,
//!   never a wrong answer.
//! * **Sharded**: the key hash picks one of 16 independently
//!   locked shards, so the worker pools of [`crate::CorpusRunner`] and
//!   [`crate::FleetRunner`] probe it concurrently without serializing on
//!   one mutex.
//! * **Bounded** with FIFO eviction per shard: the cache holds at most
//!   its configured capacity of entries; inserting into a full shard
//!   evicts the oldest entry. Eviction affects *speed only* — an evicted
//!   segment is simply recomputed on the next miss (the regression and
//!   property suites drive a capacity-2 cache through edit scripts and
//!   assert byte-identical results).
//!
//! Because a hit returns exactly the relation the engine would have
//! computed, plugging the cache under a runner's worker loop preserves
//! the deterministic merge: `SpanRelation::from_rows` sees the same
//! rows whether they came from an engine dispatch or from cache.

use parking_lot::Mutex;
use splitc_spanner::tuple::SpanRelation;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of independently locked shards. A power of two so the shard
/// index is a mask of the key hash; 16 is comfortably above the worker
/// counts the runners are configured with.
const NUM_SHARDS: usize = 16;

/// Hit/miss/eviction counters of a [`SegmentCache`]. Counters are
/// cumulative over the cache's lifetime (shared caches aggregate over
/// every runner and request probing them) and are read with
/// [`SegmentCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegCacheStats {
    /// Lookups answered by a stored relation (content-verified).
    pub hits: u64,
    /// Lookups that evaluated the spanner and populated the cache.
    pub misses: u64,
    /// Entries evicted to keep the cache within its capacity.
    pub evictions: u64,
}

impl SegCacheStats {
    /// Fraction of lookups answered from cache (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One cached segment result. The content is kept for collision
/// verification: identical content implies identical relation (spanners
/// are functions of the segment bytes), differing content with an equal
/// hash falls through to a recompute.
#[derive(Debug)]
struct Entry {
    spanner: u64,
    content: Vec<u8>,
    /// Shared so a hit hands the relation back without cloning its
    /// tuples — the hot re-query path shifts straight out of the
    /// cached relation.
    relation: Arc<SpanRelation>,
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<u64, Entry>,
    /// Keys in insertion order; the front is the eviction victim.
    /// Every insert pushes exactly one key and every evicted key is
    /// removed from the map, so `fifo.len() == map.len()` always.
    fifo: VecDeque<u64>,
}

/// A bounded, sharded, content-addressed cache of per-segment
/// [`SpanRelation`]s, shared across workers, runners, and requests.
/// See the [module docs](self) for the key and eviction contract;
/// construct with [`SegmentCache::new`] and share via `Arc`.
#[derive(Debug)]
pub struct SegmentCache {
    shards: Vec<Mutex<Shard>>,
    /// Maximum entries per shard (total capacity / NUM_SHARDS, ≥ 1).
    per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl SegmentCache {
    /// Creates a cache bounded at `capacity` entries (normalized up so
    /// every shard holds at least one entry).
    pub fn new(capacity: usize) -> SegmentCache {
        SegmentCache {
            shards: (0..NUM_SHARDS)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            per_shard: (capacity.max(NUM_SHARDS)).div_ceil(NUM_SHARDS),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Total entry capacity.
    pub fn capacity(&self) -> usize {
        self.per_shard * NUM_SHARDS
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (statistics are kept; see
    /// [`SegmentCache::reset_stats`]).
    pub fn clear(&self) {
        for s in &self.shards {
            let mut s = s.lock();
            s.map.clear();
            s.fifo.clear();
        }
    }

    /// Resets the hit/miss/eviction counters.
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }

    /// Cumulative counters.
    pub fn stats(&self) -> SegCacheStats {
        SegCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Looks the segment up by content, evaluating (and caching) on a
    /// miss. Returns the (shared) relation plus whether it was a hit —
    /// a hit is an `Arc` clone, never a tuple copy. The evaluation runs
    /// outside the shard lock, so concurrent workers never serialize on
    /// an engine dispatch; two racing misses on the same key both
    /// evaluate (identical results) and the second insert replaces the
    /// first.
    pub fn get_or_eval(
        &self,
        spanner_id: u64,
        bytes: &[u8],
        eval: impl FnOnce() -> SpanRelation,
    ) -> (Arc<SpanRelation>, bool) {
        let key = key_of(spanner_id, bytes);
        let shard = &self.shards[(key as usize) & (NUM_SHARDS - 1)];
        {
            let guard = shard.lock();
            if let Some(e) = guard.map.get(&key) {
                if e.spanner == spanner_id && e.content == bytes {
                    let rel = e.relation.clone();
                    drop(guard);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return (rel, true);
                }
            }
        }
        let rel = Arc::new(eval());
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut guard = shard.lock();
        if guard
            .map
            .insert(
                key,
                Entry {
                    spanner: spanner_id,
                    content: bytes.to_vec(),
                    relation: rel.clone(),
                },
            )
            .is_none()
        {
            guard.fifo.push_back(key);
        }
        while guard.map.len() > self.per_shard {
            let victim = guard.fifo.pop_front().expect("fifo tracks the map");
            guard.map.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        (rel, false)
    }
}

/// The cache key: a multiplicative FNV-1a variant over 8-byte lanes
/// (byte-at-a-time hashing is the single hottest instruction stream of
/// the all-hits re-query path), with the spanner id folded in so the
/// same segment under two spanners occupies two entries, the length
/// folded in so lane-padding cannot alias, and a final avalanche. A
/// colliding key costs a content re-check, never a wrong answer.
fn key_of(spanner_id: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x100000001b3;
    let mut h = 0xcbf29ce484222325u64 ^ spanner_id.wrapping_mul(PRIME);
    let mut lanes = bytes.chunks_exact(8);
    for lane in &mut lanes {
        let w = u64::from_le_bytes(lane.try_into().expect("8-byte lane"));
        h = (h ^ w).wrapping_mul(PRIME);
    }
    let mut tail = bytes.len() as u64;
    for &b in lanes.remainder() {
        tail = (tail << 8) | b as u64;
    }
    h = (h ^ tail).wrapping_mul(PRIME);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51afd7ed558ccd);
    h ^ (h >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitc_spanner::tuple::SpanTuple;
    use splitc_spanner::Span;

    fn rel(n: usize) -> SpanRelation {
        SpanRelation::from_tuples(
            (0..n)
                .map(|i| SpanTuple::new(vec![Span::new(i, i + 1)]))
                .collect(),
        )
    }

    #[test]
    fn hit_returns_cached_relation() {
        let c = SegmentCache::new(64);
        let (r1, hit1) = c.get_or_eval(7, b"abc", || rel(2));
        assert!(!hit1);
        let (r2, hit2) = c.get_or_eval(7, b"abc", || unreachable!("must hit"));
        assert!(hit2);
        assert_eq!(r1, r2);
        assert_eq!(
            c.stats(),
            SegCacheStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn spanner_id_separates_entries() {
        let c = SegmentCache::new(64);
        let (_, h1) = c.get_or_eval(1, b"abc", || rel(1));
        let (_, h2) = c.get_or_eval(2, b"abc", || rel(2));
        assert!(!h1 && !h2, "different spanners never share entries");
        let (r, hit) = c.get_or_eval(2, b"abc", || unreachable!());
        assert!(hit);
        assert_eq!(*r, rel(2));
    }

    #[test]
    fn eviction_recomputes_but_stays_correct() {
        // Capacity smaller than the working set: every entry cycles
        // through eviction, and lookups always return the evaluated
        // relation for the content.
        let c = SegmentCache::new(1); // normalized to NUM_SHARDS entries
        let keys: Vec<Vec<u8>> = (0..200u32).map(|i| i.to_be_bytes().to_vec()).collect();
        for round in 0..3 {
            for (i, k) in keys.iter().enumerate() {
                let (r, _) = c.get_or_eval(9, k, || rel(i % 5));
                assert_eq!(*r, rel(i % 5), "round {round} key {i}");
            }
        }
        assert!(c.len() <= c.capacity());
        let s = c.stats();
        assert!(s.evictions > 0, "working set exceeds capacity: {s:?}");
        assert_eq!(s.hits + s.misses, 600);
    }

    #[test]
    fn clear_and_reset() {
        let c = SegmentCache::new(64);
        let _ = c.get_or_eval(1, b"x", || rel(1));
        assert_eq!(c.len(), 1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats().misses, 1, "clear keeps counters");
        c.reset_stats();
        assert_eq!(c.stats(), SegCacheStats::default());
    }
}
