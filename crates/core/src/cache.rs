//! A content-addressed certification cache: certify once, reuse the
//! verdict on every later request.
//!
//! The operational story of the paper is that certification is a
//! *service-side, one-time* cost: once `P = P_S ∘ S` is certified for a
//! `(splitter, spanner)` pair, every subsequent extraction request can
//! be parallelized safely without re-running the (PSPACE-complete in
//! general) decision procedure. [`CertCache`] is that memo table —
//! keyed by **content hashes** of the participating artifacts, so two
//! registrations of byte-identical patterns share one verdict no matter
//! when, or from which connection, they arrive.
//!
//! The cache stores full outcomes ([`Verdict`] including
//! counterexamples, or the per-pair [`CertError`]), never just a
//! boolean: a cached *failure* replays its witness for free, and a
//! cached interface error keeps re-registrations cheap too.
//!
//! Keys are caller-computed (see [`content_hash`]) rather than derived
//! from the automata, so the cache composes with any registry notion of
//! identity — a server hashes the source pattern text, a build system
//! might hash a serialized automaton. Collisions at 64 bits are
//! vanishingly unlikely for registry-sized populations; a paranoid
//! caller can fold both artifacts' lengths into the hashed material.

use crate::error::CertError;
use crate::split_correctness::Verdict;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The cache key: `(spanner content hash, splitter content hash)`.
pub type CertKey = (u64, u64);

/// A cached certification outcome.
pub type CachedVerdict = Result<Verdict, CertError>;

/// Hit/miss counters of a [`CertCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CertCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to run certification.
    pub misses: u64,
    /// Verdicts currently stored.
    pub entries: usize,
}

impl CertCacheStats {
    /// Fraction of lookups answered from the cache (0 when none yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A thread-safe, content-hash-keyed store of certification verdicts.
///
/// ```
/// use splitc_core::cache::{content_hash, CertCache};
/// use splitc_core::split_correct;
/// use splitc_spanner::{splitter, Rgx};
///
/// let cache = CertCache::new();
/// let p = Rgx::parse(".*x{a+}.*").unwrap().to_vsa().unwrap();
/// let s = splitter::sentences();
/// let key = (content_hash(b".*x{a+}.*"), content_hash(b"sentences"));
///
/// // A miss is certified and stored; the next lookup is a map probe.
/// assert!(cache.get(key).is_none());
/// let v1 = cache.insert(key, split_correct(&p, &p, &s));
/// let v2 = cache.get(key).expect("stored");
/// assert_eq!(v1, v2);
/// assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));
/// ```
#[derive(Debug, Default)]
pub struct CertCache {
    map: Mutex<HashMap<CertKey, CachedVerdict>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CertCache {
    /// An empty cache.
    pub fn new() -> CertCache {
        CertCache::default()
    }

    /// Pure lookup: the cached outcome for `key`, if any. Counts a hit
    /// or miss.
    pub fn get(&self, key: CertKey) -> Option<CachedVerdict> {
        let found = self.lock().get(&key).cloned();
        match found {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Seeds the cache with an already-computed outcome without touching
    /// the hit/miss counters: probe keys with [`CertCache::get`],
    /// certify the misses (e.g. together, through `certify_many`), then
    /// insert each outcome. Certification runs outside the lock, so two
    /// threads racing a cold key may both certify; the first stored
    /// outcome wins and is returned, so repeated lookups observe one
    /// stable verdict.
    pub fn insert(&self, key: CertKey, outcome: CachedVerdict) -> CachedVerdict {
        self.lock().entry(key).or_insert(outcome).clone()
    }

    /// Hit/miss/size counters.
    pub fn stats(&self) -> CertCacheStats {
        CertCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.lock().len(),
        }
    }

    /// Drops every stored verdict (counters are kept — they describe
    /// lifetime traffic, not current contents).
    pub fn clear(&self) {
        self.lock().clear();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<CertKey, CachedVerdict>> {
        // Certification closures run outside the lock and map ops don't
        // panic, so poisoning is unreachable; recover instead of
        // propagating a second panic out of a stats call.
        self.map.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The canonical content hash used by registries and cache keys:
/// FNV-1a over the raw bytes, 64-bit. Stable across processes and
/// platforms (no randomized state), so hashes can appear in wire
/// formats and logs.
pub fn content_hash(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split_correct;
    use splitc_spanner::{splitter, Rgx};

    #[test]
    fn content_hash_is_stable_and_discriminating() {
        assert_eq!(content_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(content_hash(b"abc"), content_hash(b"abc"));
        assert_ne!(content_hash(b"abc"), content_hash(b"abd"));
        assert_ne!(content_hash(b"ab"), content_hash(b"abc"));
    }

    #[test]
    fn caches_holds_fails_and_errors() {
        let cache = CertCache::new();
        let s = splitter::sentences();
        let local = Rgx::parse(".*x{a+}.*").unwrap().to_vsa().unwrap();
        let crossing = Rgx::parse(".*x{a\\.a}.*").unwrap().to_vsa().unwrap();
        let othervar = Rgx::parse(".*y{a+}.*").unwrap().to_vsa().unwrap();

        let cases: [(&str, &splitc_spanner::Vsa); 3] = [
            ("local", &local),
            ("crossing", &crossing),
            ("othervar", &othervar),
        ];
        for (name, p) in cases {
            let key = (content_hash(name.as_bytes()), content_hash(b"sentences"));
            // `othervar` vs `local` is a variable-mismatch CertError.
            let target = if name == "othervar" { &local } else { p };
            assert!(cache.get(key).is_none(), "{name}: cold");
            let v_cold = cache.insert(key, split_correct(p, target, &s));
            let v_warm = cache.get(key).expect("must be cached");
            assert_eq!(v_cold, v_warm, "{name}");
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 3);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);

        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().hits, 3, "counters describe lifetime traffic");
    }

    #[test]
    fn insert_seeds_without_counting_and_first_store_wins() {
        let cache = CertCache::new();
        let stored = cache.insert((7, 7), Ok(Verdict::Holds));
        assert!(stored.unwrap().holds());
        assert_eq!(cache.stats().misses, 0, "insert is not a lookup");
        // Existing entry wins over a later insert.
        let stored = cache.insert((7, 7), Err(CertError::Invalid("late".into())));
        assert!(stored.unwrap().holds());
        assert!(cache.get((7, 7)).expect("seeded").unwrap().holds());
    }

    #[test]
    fn concurrent_cold_keys_converge() {
        use std::sync::atomic::AtomicUsize;
        let cache = CertCache::new();
        let runs = AtomicUsize::new(0);
        let key = (1, 2);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let v = cache.get(key).unwrap_or_else(|| {
                        runs.fetch_add(1, Ordering::Relaxed);
                        cache.insert(key, Ok(Verdict::Holds))
                    });
                    assert!(v.unwrap().holds());
                });
            }
        });
        // At least one certification ran; every thread saw the verdict.
        assert!(runs.load(Ordering::Relaxed) >= 1);
        assert_eq!(cache.stats().entries, 1);
    }
}
