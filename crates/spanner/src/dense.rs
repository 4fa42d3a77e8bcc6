//! The dense evaluation engine: byte-class tables + the one backward
//! viability DFA.
//!
//! The NFA engine ([`crate::eval`]) walks raw 256-byte [`ByteSet`]
//! transitions state-by-state at every document position. This module
//! compiles an [`EVsa`] once into a form that makes the per-byte work
//! nearly constant:
//!
//! 1. **Alphabet compression** — the coarsest [`ByteClasses`] partition
//!    refining every transition byte set, shared with the automata
//!    substrate. Realistic spanners distinguish a handful of classes, so
//!    tables indexed by class are tiny.
//! 2. **Dense per-state tables** — for every `(state, class)` pair, the
//!    precompiled list of matching transitions (no mask tests at match
//!    time) plus the deduplicated predecessor state set.
//! 3. **A lazily-determinized backward DFA** — power-set states of the
//!    *viability* sets, built on demand while scanning a document and
//!    memoized per compiled automaton, so repeated evaluations (chunked
//!    corpora!) pay determinization once. The cache is memory-bounded:
//!    when a scan would intern more than
//!    [`DenseConfig::max_cache_states`] distinct sets, the engine falls
//!    back to the exact NFA simulation, so results never change — only
//!    speed.
//!
//! This is the crate's only backward DFA. The AOT tier ([`crate::aot`])
//! is the same DFA explored to completion and frozen, and both tiers run
//! one `viability_pass`, generic over a `BackwardTable`: the lazy table
//! is a fallible memoised step (its skip-loop on for the prefilter
//! engine, off for plain dense), the frozen one a single table load.
//! Tuple enumeration reads the pass through one `FlatViable` view and
//! the shared forward search of [`crate::eval`].

use crate::aot::AotEvsa;
use crate::byteset::ByteSet;
use crate::eval::{
    self, forward_enumerate_scratch, EdgeCandidates, EdgeSource, EnumScratch, StateRoles,
    ViableSource,
};
use crate::evsa::EVsa;
use crate::tuple::SpanRelation;
use splitc_automata::classes::{ByteClassBuilder, ByteClasses};
use splitc_automata::nfa::StateId;
use splitc_automata::scan::ByteFinder;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Source of unique per-[`DenseEvsa`] identities, used by
/// [`DenseCache`] ownership tracking.
static ENGINE_IDS: AtomicU64 = AtomicU64::new(0);

/// Tuning knob of the dense engine.
///
/// The knob trades memory for lazy-DFA coverage. The governing
/// invariant — relied on throughout the workspace and asserted by the
/// differential test suites — is **fallback-on-overflow**: a scan that
/// would exceed the bound switches to the exact NFA simulation for that
/// scan, so any configuration (including an absurdly small one) changes
/// speed only, never results. Raise the bound for spanners whose
/// power-set construction is genuinely large but still wanted on the
/// fast path; lower it to cap worst-case memory per
/// [`DenseCache`] (each interned state costs `⌈|Q|/64⌉` words plus one
/// `u32` row per byte class).
#[derive(Debug, Clone, Copy)]
pub struct DenseConfig {
    /// Upper bound on interned power-set states of the lazy DFA. When a
    /// document scan would exceed it, the engine falls back to the exact
    /// NFA simulation for that scan (results are unchanged).
    pub max_cache_states: usize,
}

impl Default for DenseConfig {
    fn default() -> Self {
        // Power-set blowups of practical spanners are far smaller; the
        // bound exists to keep adversarial automata from hoarding memory
        // (each state costs `⌈|Q|/64⌉` words + one row of `u32`s).
        DenseConfig {
            max_cache_states: 8192,
        }
    }
}

/// Sentinel for a not-yet-computed lazy-DFA transition.
const UNEXPLORED: u32 = u32::MAX;

/// Consecutive self-steps a scan must observe before it consults the
/// skip-loop scanner. Match-dense inputs oscillate between states every
/// few bytes; gating on a streak keeps their overhead to one counter
/// increment per byte, while genuinely flat regions reach the threshold
/// immediately and jump the rest in one scan.
const SKIP_STREAK: u32 = 8;

/// Transition-level statistics of one [`DenseCache`].
///
/// A *hit* is a scan step answered by a memoized `(state, class)` row; a
/// *miss* computes (and interns) the successor power-set state. Because
/// the cache persists across documents, the hit rate of a chunked corpus
/// converges towards 1 — this is the number the streaming corpus runner
/// reports per worker to show that lazy determinization is amortized.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DenseCacheStats {
    /// Lazy-DFA steps answered from a memoized transition row.
    pub hits: u64,
    /// Lazy-DFA steps that had to compute the successor state.
    pub misses: u64,
    /// Stack frames the forward enumeration pushed or reused (see
    /// [`DenseCache::enum_frames`]).
    pub enum_frames: u64,
}

impl DenseCacheStats {
    /// Hits as a fraction of all steps (0.0 for an unused cache).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Component-wise sum (for aggregating per-worker caches).
    pub fn merge(self, other: DenseCacheStats) -> DenseCacheStats {
        DenseCacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            enum_frames: self.enum_frames + other.enum_frames,
        }
    }
}

/// The lazily-determinized backward DFA: interned power-set states
/// (bitsets over the eVSA states, stored flat) and a dense
/// `state × class` transition table filled on demand. Ids are assigned
/// in interning order, so exploring every `(id, class)` breadth-first
/// yields the AOT tier's frozen numbering.
#[derive(Debug, Default)]
pub(crate) struct LazyDfa {
    /// Membership bitsets, `words` per interned state; index = id.
    pub(crate) sets: Vec<u64>,
    ids: HashMap<Box<[u64]>, u32>,
    /// `rows[id * num_classes + class]` → successor id or [`UNEXPLORED`].
    pub(crate) rows: Vec<u32>,
    /// Id of the empty set, once interned (a fixpoint of every step).
    pub(crate) dead: Option<u32>,
    /// Memoized skip-loop escape scanners per interned state (see
    /// [`escape_finder`]).
    loops: HashMap<u32, Option<ByteFinder>>,
    /// Steps answered from a memoized row.
    hits: u64,
    /// Steps that computed a successor.
    misses: u64,
}

impl LazyDfa {
    /// Drops the interned states, rows and loop probes; the hit/miss
    /// counters survive (they describe the scan history, not the current
    /// contents).
    fn clear(&mut self) {
        self.sets.clear();
        self.ids.clear();
        self.rows.clear();
        self.dead = None;
        self.loops.clear();
    }

    /// Number of interned states.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }
}

/// Scratch state for dense scans: the lazy DFA plus a reusable
/// per-position buffer. Caches persist across documents (that is the
/// point of *lazy* determinization); keep one per worker, or let
/// [`crate::engine::TieredEvsa`] pool them.
///
/// A cache is safe to hand between different compiled engines: every
/// interned power set and transition row is meaningful only for the
/// [`DenseEvsa`] that produced it (the state numbering *and* the byte
/// classes differ across engines), so each engine stamps the caches it
/// uses with its own identity and resets the lazy DFAs on an ownership
/// change. Fleets with one cache per member never pay the reset; a
/// cache shuttled between members (the latent aliasing hazard) degrades
/// to correct-but-cold scans instead of corrupting results.
#[derive(Debug, Default)]
pub struct DenseCache {
    bwd: LazyDfa,
    /// Identity of the [`DenseEvsa`] whose lazy-DFA state this cache
    /// currently holds (`None` = fresh).
    owner: Option<u64>,
    /// Backward-DFA state index per document position
    /// (`len = doc.len()+1`). Shared with the AOT engine, which rewrites
    /// it wholesale per scan (no ownership hazard: nothing lazy
    /// survives).
    pub(crate) ids_buf: Vec<u32>,
    /// Bytes resolved by the skip-loop scanner instead of table steps.
    pub(crate) skipped: u64,
    /// Reusable forward-enumeration buffers (variable tables, undo
    /// trail, frame stack), shared across every document this cache
    /// evaluates.
    pub(crate) scratch: EnumScratch,
}

impl DenseCache {
    /// Transition-level hit/miss statistics and the enumeration's frame
    /// count, accumulated by every scan that used this cache. Counters
    /// survive overflow-triggered cache resets.
    pub fn stats(&self) -> DenseCacheStats {
        DenseCacheStats {
            hits: self.bwd.hits,
            misses: self.bwd.misses,
            enum_frames: self.scratch.frames,
        }
    }

    /// Bytes this cache resolved through a skip-loop scanner instead of
    /// stepping a transition table (0 under the plain dense engine).
    /// Monotone across scans, like the hit/miss counters.
    pub fn skipped_bytes(&self) -> u64 {
        self.skipped
    }

    /// Stack frames the forward enumeration pushed or reused on this
    /// cache, summed over every evaluation (see [`crate::eval`]): its
    /// machine-independent work, to read against the tuples produced.
    /// Monotone across scans, like [`DenseCache::skipped_bytes`].
    pub fn enum_frames(&self) -> u64 {
        self.scratch.frames
    }
}

/// An [`EVsa`] compiled for the dense engine.
///
/// Construction cost is `O(|Q| · classes + |δ|)`; evaluation reuses the
/// compiled tables and a caller-owned [`DenseCache`], so the type is
/// cheap to share across worker threads (wrap in `Arc`).
#[derive(Debug)]
pub struct DenseEvsa {
    evsa: Arc<EVsa>,
    config: DenseConfig,
    /// Unique identity for [`DenseCache`] ownership checks.
    engine_id: u64,
    classes: ByteClasses,
    /// Number of byte classes.
    pub(crate) nc: usize,
    /// Number of eVSA states.
    ns: usize,
    /// Bitset words per power-set state.
    pub(crate) words: usize,
    /// CSR of transition indices per `(state, class)`; values index into
    /// `evsa.transitions_from(state)`.
    edge_off: Vec<u32>,
    edge_pool: Vec<u32>,
    /// CSR of deduplicated predecessor states per `(state, class)`.
    pred_off: Vec<u32>,
    pred_pool: Vec<StateId>,
    /// States with at least one final block, as a bitset.
    finals: Box<[u64]>,
    /// Post flags and pre-state indices (see [`crate::eval`]),
    /// precomputed once.
    pub(crate) roles: StateRoles,
}

/// Flattens per-key vectors into CSR offsets + pool.
pub(crate) fn to_csr<T: Copy>(per_key: Vec<Vec<T>>) -> (Vec<u32>, Vec<T>) {
    let mut off = Vec::with_capacity(per_key.len() + 1);
    let mut pool = Vec::new();
    off.push(0u32);
    for v in per_key {
        pool.extend_from_slice(&v);
        off.push(pool.len() as u32);
    }
    (off, pool)
}

impl DenseEvsa {
    /// Compiles the dense tables for `evsa` over the coarsest byte
    /// partition refining its own transition masks.
    pub fn compile(evsa: Arc<EVsa>, config: DenseConfig) -> DenseEvsa {
        let mut builder = ByteClassBuilder::new();
        for m in evsa.byte_masks() {
            builder.add_set(|b| m.contains(b));
        }
        DenseEvsa::compile_with_classes(evsa, config, builder.build())
    }

    /// Compiles the dense tables for `evsa` over a caller-supplied byte
    /// partition. The fleet engine uses this to index every member's
    /// tables by one shared partition (the coarsest common refinement
    /// across all members), so a single `class_of` lookup per scanned
    /// byte serves the whole fleet.
    ///
    /// # Panics
    ///
    /// `classes` must **refine** every transition mask of the automaton
    /// (no class straddles a mask boundary) — simulation over classes is
    /// exact only under refinement. Violations panic at compile time
    /// rather than corrupting scans.
    pub fn compile_with_classes(
        evsa: Arc<EVsa>,
        config: DenseConfig,
        classes: ByteClasses,
    ) -> DenseEvsa {
        for m in evsa.byte_masks() {
            for c in 0..classes.num_classes() {
                let mut members = classes.bytes_of(c).map(|b| m.contains(b));
                let first = members.next().expect("classes are non-empty");
                assert!(
                    members.all(|x| x == first),
                    "byte partition does not refine a transition mask \
                     (class {c} straddles the mask boundary)"
                );
            }
        }
        let ns = evsa.num_states();
        let nc = classes.num_classes();
        let reps = classes.representatives();
        let words = ns.div_ceil(64);

        // Classes refine every mask, so membership of the representative
        // byte decides membership of the whole class.
        let mut class_cache: HashMap<ByteSet, Vec<u16>> = HashMap::new();
        let mut classes_of_mask = |m: &ByteSet| -> Vec<u16> {
            class_cache
                .entry(*m)
                .or_insert_with(|| {
                    (0..nc as u16)
                        .filter(|&c| m.contains(reps[c as usize]))
                        .collect()
                })
                .clone()
        };

        let mut edges: Vec<Vec<u32>> = vec![Vec::new(); ns * nc];
        let mut preds: Vec<Vec<StateId>> = vec![Vec::new(); ns * nc];
        for q in 0..ns {
            for (i, (_, mask, r)) in evsa.transitions_from(q as StateId).iter().enumerate() {
                for c in classes_of_mask(mask) {
                    edges[q * nc + c as usize].push(i as u32);
                    preds[*r as usize * nc + c as usize].push(q as StateId);
                }
            }
        }
        for v in preds.iter_mut() {
            v.sort_unstable();
            v.dedup();
        }
        let (edge_off, edge_pool) = to_csr(edges);
        let (pred_off, pred_pool) = to_csr(preds);

        let mut finals = vec![0u64; words].into_boxed_slice();
        for q in 0..ns {
            if !evsa.final_blocks(q as StateId).is_empty() {
                finals[q >> 6] |= 1u64 << (q & 63);
            }
        }
        let roles = if ns > 0 {
            StateRoles::of(&evsa)
        } else {
            StateRoles::default()
        };

        DenseEvsa {
            evsa,
            config,
            engine_id: ENGINE_IDS.fetch_add(1, Ordering::Relaxed),
            classes,
            nc,
            ns,
            words,
            edge_off,
            edge_pool,
            pred_off,
            pred_pool,
            finals,
            roles,
        }
    }

    /// The compiled automaton.
    pub fn evsa(&self) -> &EVsa {
        &self.evsa
    }

    /// The byte-class partition the tables are indexed by.
    pub fn classes(&self) -> &ByteClasses {
        &self.classes
    }

    /// Binds `cache` to this engine before a scan. A cache last used by
    /// a *different* `DenseEvsa` holds power sets and transition rows
    /// over that engine's state numbering and byte classes — reading
    /// them here would silently corrupt results (or index rows out of
    /// bounds when the class counts differ). An ownership change resets
    /// the lazy DFA; the hit/miss/skip counters survive, as with
    /// overflow resets.
    fn adopt(&self, cache: &mut DenseCache) {
        if cache.owner != Some(self.engine_id) {
            cache.bwd.clear();
            cache.owner = Some(self.engine_id);
        }
    }

    /// Interns the candidate set appended to the tail of `dfa.sets`: a
    /// known set is dropped from the tail and keeps its id; a new one
    /// stays and gets the next id, or is dropped for `None` when `dfa`
    /// already holds `cap` states.
    fn intern(&self, dfa: &mut LazyDfa, cap: usize) -> Option<u32> {
        let n = dfa.len();
        let set = &dfa.sets[n * self.words..];
        let known = dfa.ids.get(set).copied();
        if known.is_some() || n >= cap {
            dfa.sets.truncate(n * self.words);
            return known;
        }
        if set.iter().all(|&w| w == 0) {
            dfa.dead = Some(n as u32);
        }
        dfa.ids.insert(set.into(), n as u32);
        dfa.rows.resize(dfa.rows.len() + self.nc, UNEXPLORED);
        Some(n as u32)
    }

    /// Interns the pass's seed, the set of final states (id 0 in a
    /// fresh `dfa`).
    pub(crate) fn seed(&self, dfa: &mut LazyDfa, cap: usize) -> Option<u32> {
        dfa.sets.extend_from_slice(&self.finals);
        self.intern(dfa, cap)
    }

    /// One lazy-DFA step: predecessor set of interned state `id` on byte
    /// class `c`, computed (and memoized) on first use. `None` = `dfa`
    /// would exceed `cap` states.
    pub(crate) fn step(&self, dfa: &mut LazyDfa, id: u32, c: usize, cap: usize) -> Option<u32> {
        let cached = dfa.rows[id as usize * self.nc + c];
        if cached != UNEXPLORED {
            dfa.hits += 1;
            return Some(cached);
        }
        dfa.misses += 1;
        let (off, pool) = (&self.pred_off, &self.pred_pool);
        // The predecessor set is built in place at the tail of the
        // sets, so a step that finds a known set allocates nothing.
        let n = dfa.sets.len();
        dfa.sets.resize(n + self.words, 0);
        let (sets, out) = dfa.sets.split_at_mut(n);
        for (w, &word) in sets[id as usize * self.words..][..self.words]
            .iter()
            .enumerate()
        {
            let mut bits = word;
            while bits != 0 {
                let q = (w << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let base = q * self.nc + c;
                for &t in &pool[off[base] as usize..off[base + 1] as usize] {
                    out[t as usize >> 6] |= 1u64 << (t & 63);
                }
            }
        }
        let nid = self.intern(dfa, cap)?;
        dfa.rows[id as usize * self.nc + c] = nid;
        Some(nid)
    }

    /// Evaluates on a document with an explicit scan cache (one per
    /// worker; reuse amortizes lazy determinization across documents),
    /// producing exactly the relation of [`eval::eval_evsa`].
    pub fn eval_with(&self, doc: &[u8], cache: &mut DenseCache) -> SpanRelation {
        self.eval_scan(doc, cache, false)
    }

    /// [`DenseEvsa::eval_with`] with the [`viability_pass`] skip-loop
    /// switched by the engine.
    pub(crate) fn eval_scan(
        &self,
        doc: &[u8],
        cache: &mut DenseCache,
        skip_loop: bool,
    ) -> SpanRelation {
        if self.ns == 0 {
            return SpanRelation::empty();
        }
        self.adopt(cache);
        let mut table = Lazy {
            dense: self,
            dfa: &mut cache.bwd,
            cap: self.config.max_cache_states,
            skip_loop,
        };
        if viability_pass(&mut table, doc, &mut cache.ids_buf, &mut cache.skipped).is_none() {
            // Cache bound hit: exact fallback via the materialized bitset
            // viability table; later (smaller) scans start fresh.
            cache.bwd.clear();
            let viable = eval::viability(&self.evsa, doc);
            return self.enumerate(doc, &viable, &mut cache.scratch);
        }
        let viable = FlatViable {
            ids: &cache.ids_buf,
            sets: &cache.bwd.sets,
            words: self.words,
            forced: None,
        };
        self.enumerate(doc, &viable, &mut cache.scratch)
    }

    /// The shared forward tuple enumeration over the dense edge tables.
    pub(crate) fn enumerate<V: ViableSource>(
        &self,
        doc: &[u8],
        viable: &V,
        scratch: &mut EnumScratch,
    ) -> SpanRelation {
        forward_enumerate_scratch(
            &self.evsa,
            doc,
            &self.roles,
            viable,
            &DenseEdges(self),
            scratch,
        )
    }
}

/// The skip-loop escape scanner of a backward DFA state, given which
/// byte classes step the state to itself: a SWAR finder for the escape
/// bytes when the state stays on at least 192 of the 256 bytes, else
/// `None` (a state that escapes on most bytes would bounce out of the
/// scanner immediately, so skipping does not pay).
pub(crate) fn escape_finder(
    classes: &ByteClasses,
    mut stays: impl FnMut(usize) -> bool,
) -> Option<ByteFinder> {
    let mut stay = ByteSet::EMPTY;
    for c in (0..classes.num_classes()).filter(|&c| stays(c)) {
        classes.bytes_of(c).for_each(|b| stay.insert(b));
    }
    (stay.len() >= 192).then(|| ByteFinder::from_predicate(|b| !stay.contains(b)))
}

/// A backward viability DFA as [`viability_pass`] steps it: the lazy
/// tier's memoised cache ([`Lazy`]) or the AOT tier's frozen table
/// (`&AotEvsa`).
pub(crate) trait BackwardTable {
    /// A state as the table names it.
    type Id: Copy + PartialEq;
    /// The seed state (the final states); `None` = cache bound hit.
    fn start(&mut self) -> Option<Self::Id>;
    /// The predecessor of `cur` on byte `b`; `None` = cache bound hit.
    fn step(&mut self, cur: Self::Id, b: u8) -> Option<Self::Id>;
    /// The state's index into the table's flat membership sets.
    fn index(&self, cur: Self::Id) -> u32;
    /// Whether `cur` is the empty viability set.
    fn is_dead(&self, cur: Self::Id) -> bool;
    /// The skip-loop escape scanner of `cur` ([`escape_finder`]), when
    /// the table skips at all.
    fn escape(&mut self, cur: Self::Id) -> Option<&ByteFinder>;
}

/// The backward viability pass: fills `ids` (`len = doc.len() + 1`)
/// with the table's state index per position, right to left. `None` =
/// the table hit its cache bound (the caller falls back to the exact
/// NFA simulation).
///
/// The pass steps 4 bytes per iteration. After [`SKIP_STREAK`] bytes
/// without a state change it asks the table for the state's escape
/// scanner, and crosses a flat region with one [`ByteFinder::rfind`] for
/// the previous escape byte, bulk-filling the provably unchanged
/// positions in between (counted in `skipped`). The empty set is a
/// fixpoint of the predecessor step, so reaching it fills every earlier
/// position at once. Both accelerations are exact: they change speed
/// only, never the ids.
pub(crate) fn viability_pass<T: BackwardTable>(
    table: &mut T,
    doc: &[u8],
    ids: &mut Vec<u32>,
    skipped: &mut u64,
) -> Option<()> {
    let mut cur = table.start()?;
    let mut i = doc.len();
    ids.clear();
    ids.resize(i + 1, 0);
    ids[i] = table.index(cur);
    // `i` bytes are unconsumed; `doc[i-1]` is processed next.
    let mut streak = 0u32;
    while i > 0 {
        if table.is_dead(cur) {
            ids[..i].fill(table.index(cur));
            break;
        }
        if streak >= SKIP_STREAK {
            streak = 0;
            let idx = table.index(cur);
            if let Some(f) = table.escape(cur) {
                // Bytes after the last escape all stay put.
                let j = f.rfind(&doc[..i]).map_or(0, |j| j + 1);
                ids[j..i].fill(idx);
                *skipped += (i - j) as u64;
                i = j;
                continue;
            }
        }
        let prev = cur;
        if i >= 4 {
            for k in 1..=4 {
                cur = table.step(cur, doc[i - k])?;
                ids[i - k] = table.index(cur);
            }
            i -= 4;
            // A state unchanged across 4 steps is (heuristically) in a
            // self-loop; the escape probe above is exact either way.
            streak = if cur == prev { streak + 4 } else { 0 };
        } else {
            cur = table.step(cur, doc[i - 1])?;
            ids[i - 1] = table.index(cur);
            i -= 1;
            streak = if cur == prev { streak + 1 } else { 0 };
        }
    }
    Some(())
}

/// The lazy tier's [`BackwardTable`]: memoised steps over one cache's
/// DFA, interning at most `cap` states, with the skip-loop on or off as
/// the engine says.
pub(crate) struct Lazy<'a> {
    pub(crate) dense: &'a DenseEvsa,
    pub(crate) dfa: &'a mut LazyDfa,
    pub(crate) cap: usize,
    pub(crate) skip_loop: bool,
}

impl BackwardTable for Lazy<'_> {
    type Id = u32;

    fn start(&mut self) -> Option<u32> {
        self.dense.seed(self.dfa, self.cap)
    }

    #[inline(always)]
    fn step(&mut self, cur: u32, b: u8) -> Option<u32> {
        let c = self.dense.classes.class_of(b);
        self.dense.step(self.dfa, cur, c, self.cap)
    }

    #[inline(always)]
    fn index(&self, cur: u32) -> u32 {
        cur
    }

    #[inline(always)]
    fn is_dead(&self, cur: u32) -> bool {
        self.dfa.dead == Some(cur)
    }

    /// Probed once per state and memoized. The probe steps every class;
    /// a step that would overflow the cache counts as an escape.
    fn escape(&mut self, cur: u32) -> Option<&ByteFinder> {
        if !self.skip_loop {
            return None;
        }
        let (dense, dfa, cap) = (self.dense, &mut *self.dfa, self.cap);
        if !dfa.loops.contains_key(&cur) {
            let finder = escape_finder(&dense.classes, |c| {
                dense.step(dfa, cur, c, cap) == Some(cur)
            });
            dfa.loops.insert(cur, finder);
        }
        dfa.loops[&cur].as_ref()
    }
}

/// Viability view over a backward DFA's flat membership sets — the lazy
/// cache's or the frozen AOT table's — indexed by the ids of one
/// [`viability_pass`].
pub(crate) struct FlatViable<'a> {
    /// Backward state index per document position.
    pub(crate) ids: &'a [u32],
    /// Membership bitsets, `words` per state.
    pub(crate) sets: &'a [u64],
    pub(crate) words: usize,
    /// The frozen tier, whose precompiled forced-move table answers
    /// [`ViableSource::advance`]; the lazy tier has none.
    pub(crate) forced: Option<&'a AotEvsa>,
}

impl ViableSource for FlatViable<'_> {
    #[inline]
    fn viable(&self, pos: usize, q: StateId) -> bool {
        let q = q as usize;
        let base = self.ids[pos] as usize * self.words;
        self.sets[base + (q >> 6)] & (1u64 << (q & 63)) != 0
    }

    #[inline]
    fn advance(&self, doc: &[u8], pos: usize, q: StateId) -> (usize, StateId) {
        match self.forced {
            Some(aot) => aot.advance(self.ids, doc, pos, q),
            None => (pos, q),
        }
    }
}

/// Edge source backed by the precompiled per-(state, class) lists.
struct DenseEdges<'a>(&'a DenseEvsa);

impl EdgeSource for DenseEdges<'_> {
    #[inline]
    fn candidates(&self, q: StateId, b: u8) -> EdgeCandidates<'_> {
        let d = self.0;
        let base = q as usize * d.nc + d.classes.class_of(b);
        EdgeCandidates::List(&d.edge_pool[d.edge_off[base] as usize..d.edge_off[base + 1] as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_evsa;
    use crate::rgx::Rgx;
    use crate::span::Span;
    use crate::vars::VarId;

    fn compile(pattern: &str) -> Arc<EVsa> {
        let vsa = Rgx::parse(pattern).unwrap().to_vsa().unwrap();
        Arc::new(EVsa::from_functional(&vsa.functionalize()))
    }

    fn dense(pattern: &str) -> DenseEvsa {
        DenseEvsa::compile(compile(pattern), DenseConfig::default())
    }

    /// One evaluation with a fresh cache.
    fn eval(d: &DenseEvsa, doc: &[u8]) -> SpanRelation {
        d.eval_with(doc, &mut DenseCache::default())
    }

    #[test]
    fn eval_matches_nfa_engine() {
        for (pat, docs) in [
            (
                ".*x{a+}.*",
                vec![b"aabaa".to_vec(), b"".to_vec(), b"bbb".to_vec()],
            ),
            (
                "x{a*}y{b*}",
                vec![b"aabb".to_vec(), b"ab".to_vec(), b"ba".to_vec()],
            ),
            ("(a|b)*x{ab}(a|b)*", vec![b"abab".to_vec()]),
            (".*x{}.*", vec![b"ab".to_vec()]),
            ("x{[^.]+}(\\..*)?", vec![b"ab.cd".to_vec()]),
        ] {
            let e = compile(pat);
            let d = DenseEvsa::compile(e.clone(), DenseConfig::default());
            for doc in docs {
                assert_eq!(eval(&d, &doc), eval_evsa(&e, &doc), "pattern {pat}");
            }
        }
    }

    #[test]
    fn cache_overflow_falls_back_to_nfa() {
        // A bound of 1 cannot even hold the second power-set state, so
        // every scan takes the fallback path — results must not change.
        let e = compile(".*x{a+}.*");
        let tiny = DenseEvsa::compile(
            e.clone(),
            DenseConfig {
                max_cache_states: 1,
            },
        );
        let doc = b"aa b aa";
        assert_eq!(eval(&tiny, doc), eval_evsa(&e, doc));
        assert_eq!(eval(&tiny, b""), eval_evsa(&e, b""));
    }

    #[test]
    fn skip_loop_is_exact_and_skips() {
        // A needle in a long flat haystack: the backward viability pass
        // must jump the context via the scanner, with identical results.
        let d = dense(".*x{q+}.*");
        let mut doc = vec![b'a'; 2048];
        doc[777] = b'q';
        let mut cache = DenseCache::default();
        assert_eq!(
            d.eval_scan(&doc, &mut cache, true),
            eval(&d, &doc),
            "skip-loop must not change results"
        );
        assert!(
            cache.skipped_bytes() > 1000,
            "expected a large jump, got {}",
            cache.skipped_bytes()
        );
        // Matchless documents and tiny documents behave identically too.
        for doc in [vec![b'a'; 100], vec![], vec![b'q']] {
            assert_eq!(d.eval_scan(&doc, &mut cache, true), eval(&d, &doc));
        }
    }

    #[test]
    fn empty_set_stops_the_pass() {
        // Backward from the end, `x{a+}` dies on the first non-`a` byte:
        // the pass fills the rest from the empty set without stepping.
        let d = dense("x{a+}");
        let mut doc = vec![b'a'; 1000];
        doc[998] = b'b';
        let mut cache = DenseCache::default();
        assert!(eval(&d, &doc).is_empty());
        assert_eq!(d.eval_with(&doc, &mut cache), eval_evsa(&d.evsa, &doc));
        let stats = cache.stats();
        assert!(stats.hits + stats.misses <= 8, "{stats:?}");
        let dead = cache.bwd.dead.expect("the empty set was interned");
        assert!(cache.ids_buf[..998].iter().all(|&id| id == dead));
    }

    #[test]
    fn cache_is_reused_across_documents() {
        let d = dense(".*x{a+}.*");
        let mut cache = DenseCache::default();
        let r1 = d.eval_with(b"aa b", &mut cache);
        let interned_after_first = cache.bwd.sets.len();
        let r2 = d.eval_with(b"aa b", &mut cache);
        assert_eq!(r1, r2);
        // Second scan of the same document interns nothing new.
        assert_eq!(cache.bwd.sets.len(), interned_after_first);
        assert!(interned_after_first > 0);
    }

    #[test]
    fn long_document_dense() {
        let doc = vec![b'a'; 1 << 18];
        let d = dense("a*x{b*}a*");
        let rel = eval(&d, &doc);
        assert_eq!(rel.len(), doc.len() + 1);
        assert_eq!(rel.tuple(0).get(VarId(0)), Span::new(0, 0));
    }

    /// `x{[\x80-\xFF]+}`-shaped spanner built directly over the high
    /// half of the byte alphabet (the regex layer is ASCII-only).
    fn hi_range_evsa() -> Arc<EVsa> {
        let mut v = crate::vsa::Vsa::new(crate::vars::VarTable::new(["x"]).unwrap());
        let q1 = v.add_state();
        let q2 = v.add_state();
        let hi = ByteSet::range(0x80, 0xFF);
        v.add_transition(
            0,
            crate::vsa::Label::Op(crate::vars::VarOp::Open(VarId(0))),
            q1,
        );
        v.add_transition(q1, crate::vsa::Label::Bytes(hi), q1);
        v.add_transition(
            q1,
            crate::vsa::Label::Op(crate::vars::VarOp::Close(VarId(0))),
            q2,
        );
        v.set_final(q2, true);
        Arc::new(EVsa::from_functional(&v.functionalize()))
    }

    #[test]
    fn non_ascii_classes() {
        let e = hi_range_evsa();
        let d = DenseEvsa::compile(e.clone(), DenseConfig::default());
        for doc in [vec![0x80, 0xC3, 0xFF], vec![0x80, 0x20], vec![0x00], vec![]] {
            assert_eq!(eval(&d, &doc), eval_evsa(&e, &doc));
        }
    }

    #[test]
    fn shared_classes_compile_matches_own_partition() {
        // A strictly finer partition than the automaton's own still
        // refines every mask, so results must be identical.
        let e = compile(".*x{a+}.*");
        let own = DenseEvsa::compile(e.clone(), DenseConfig::default());
        let mut builder = ByteClassBuilder::new();
        for m in e.byte_masks() {
            builder.add_set(|b| m.contains(b));
        }
        builder
            .add_set(|b: u8| b.is_ascii_digit())
            .add_set(|b| b == b'q');
        let shared =
            DenseEvsa::compile_with_classes(e.clone(), DenseConfig::default(), builder.build());
        assert!(shared.classes().num_classes() > own.classes().num_classes());
        for doc in [b"aabaa".as_slice(), b"", b"q9a", b"bbb"] {
            assert_eq!(eval(&shared, doc), eval(&own, doc));
        }
    }

    #[test]
    #[should_panic(expected = "does not refine")]
    fn non_refining_partition_is_rejected() {
        // `x{a}` distinguishes 'a' from everything else; the singleton
        // partition straddles that boundary.
        DenseEvsa::compile_with_classes(
            compile("x{a}"),
            DenseConfig::default(),
            ByteClasses::singleton(),
        );
    }

    #[test]
    fn cache_ownership_resets_across_engines() {
        // One cache shuttled between a narrow-alphabet engine and a
        // wide high-byte engine: different state numberings AND
        // different class counts. Without the ownership check the
        // second engine reads the first engine's interned power sets
        // (silent corruption, or out-of-bounds rows); with it, every
        // hand-off resets the lazy DFAs and results stay exact.
        let narrow_e = compile(".*x{a+b}.*");
        let narrow = DenseEvsa::compile(narrow_e.clone(), DenseConfig::default());
        let wide_e = hi_range_evsa();
        let wide = DenseEvsa::compile(wide_e.clone(), DenseConfig::default());
        assert_ne!(narrow.classes().num_classes(), wide.classes().num_classes());
        let mut cache = DenseCache::default();
        let doc_n = b"aabaa";
        let doc_w = vec![0x80u8, 0xFF, 0x81];
        for _ in 0..3 {
            assert_eq!(
                narrow.eval_with(doc_n, &mut cache),
                eval_evsa(&narrow_e, doc_n)
            );
            assert_eq!(
                wide.eval_with(&doc_w, &mut cache),
                eval_evsa(&wide_e, &doc_w)
            );
        }
        // Same-engine reuse still never resets: interned states persist.
        let before = cache.stats();
        let _ = wide.eval_with(&doc_w, &mut cache);
        assert!(cache.stats().hits > before.hits);
    }

    #[test]
    fn empty_automaton() {
        let v = crate::vsa::Vsa::new(crate::vars::VarTable::empty());
        let e = Arc::new(EVsa::from_functional(&v));
        let d = DenseEvsa::compile(e, DenseConfig::default());
        assert!(eval(&d, b"abc").is_empty());
    }
}
