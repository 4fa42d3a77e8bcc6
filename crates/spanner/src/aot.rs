//! The ahead-of-time (AOT) engine: a fully determinized backward
//! viability DFA frozen into a flat premultiplied `u16` transition table.
//!
//! The dense engine ([`crate::dense`]) pays lazy-DFA bookkeeping on the
//! hot path: a memoization probe, a hit/miss counter and a
//! `state * num_classes + class` multiply per scanned byte, plus hash
//! interning whenever a scan reaches a new power-set state. For the
//! small hot spanners that dominate the e-series benchmarks and the
//! server's warm paths, this module removes all of it at compile time:
//!
//! 1. **Full determinization under a budget** — the backward
//!    *viability* DFA that feeds tuple enumeration is determinized
//!    eagerly over the dense engine's byte-class predecessor adjacency.
//!    Construction aborts — and the caller falls back to the lazy dense
//!    tier — as soon as it would intern more than [`AOT_BUDGET`] sets
//!    (or more than the packed table can address). The DFA is *not*
//!    minimized: each of its states is an observable set of viable eVSA
//!    states (tuple enumeration reads the membership bitsets), and
//!    merging language-equivalent sets would change results.
//! 2. **Premultiplied `u16` tables** — state ids are stored
//!    pre-multiplied by the row stride (the class count rounded up to a
//!    power of two), with the empty-set flag packed into bit 15, so the
//!    inner loop is `table[(id & MASK) | class]`: one AND, one OR, one
//!    load — no multiply, no branch. The pass steps 4 bytes per
//!    iteration (unrolled) and crosses flat regions with precompiled
//!    skip-loop escape scanners; the document gate in front of it is
//!    the tiered core's ([`crate::engine`]).
//!
//! Exactness: the backward table's states are exactly the viability sets
//! the lazy dense engine would intern, and the forward tuple enumeration
//! is the shared [`crate::eval`] search over the same dense edge tables —
//! so relations are byte-identical to the NFA, dense and prefilter
//! engines (asserted by the repository-wide engine-matrix differential
//! harness).

use crate::dense::{DenseCache, DenseEdges, DenseEvsa};
use crate::eval::forward_enumerate_scratch;
use crate::eval::ViableSource;
use crate::tuple::SpanRelation;
use splitc_automata::nfa::StateId;
use splitc_automata::scan::ByteFinder;
use std::collections::HashMap;
use std::sync::Arc;

/// Upper bound on determinized backward states. When the subset
/// construction would exceed it — or the premultiplied ids would no
/// longer fit in the 15 addressable bits of a `u16` — compilation
/// returns `None` and the caller stays on the lazy dense tier.
/// Determinization cost is bounded by `O(budget · classes · |Q|/64)`, so
/// an adversarial automaton cannot make compilation blow up. Hot
/// production spanners determinize to a handful of states; the budget
/// admits all of them while keeping the packed table comfortably
/// cache-resident (at most `1024 · stride` `u16` entries).
pub const AOT_BUDGET: usize = 1024;

/// Flag bit packed into a table entry's id: *empty viability set*.
const FLAG: u16 = 1 << 15;

/// Mask selecting the premultiplied state id (low 15 bits).
const MASK: u16 = FLAG - 1;

/// Consecutive self-steps before a pass consults its precompiled
/// skip-loop scanner (same rationale and value as the dense engine).
const SKIP_STREAK: u32 = 8;

/// Packs a state index into a premultiplied table entry.
///
/// `shift` is `log2(stride)`; the flag lands in bit 15, which the
/// packing budget (`states * stride <= 1 << 15`) keeps clear of the id.
#[inline]
fn pack(index: usize, shift: u32, flag: bool) -> u16 {
    debug_assert!(index << shift < 1 << 15, "premultiplied id overflows u16");
    ((index << shift) as u16) | if flag { FLAG } else { 0 }
}

/// Recovers the state index from a packed table entry.
#[inline]
fn unpack(id: u16, shift: u32) -> usize {
    ((id & MASK) >> shift) as usize
}

/// The eagerly determinized backward DFA: interned power sets and a
/// total `index × class` transition table (the empty set is explicit).
struct SubsetDfa {
    /// Flattened membership bitsets, `words` per state.
    sets: Vec<u64>,
    /// `trans[index * nc + class]` → successor index (total).
    trans: Vec<u32>,
    /// Index of the seed set.
    start: u32,
}

impl SubsetDfa {
    fn num_states(&self, words: usize) -> usize {
        self.sets.len().checked_div(words).unwrap_or(0)
    }
}

/// Budget-bounded subset construction over the dense engine's
/// predecessor CSR, seeded with the final states. Returns `None` when
/// more than `budget` sets would be interned.
fn determinize_bounded(dense: &DenseEvsa, budget: usize) -> Option<SubsetDfa> {
    let nc = dense.nc;
    let words = dense.words;
    let (off, pool) = (&dense.pred_off, &dense.pred_pool);
    let mut sets: Vec<u64> = Vec::new();
    let mut ids: HashMap<Box<[u64]>, u32> = HashMap::new();
    let mut trans: Vec<u32> = Vec::new();
    fn intern(
        set: Box<[u64]>,
        nc: usize,
        budget: usize,
        ids: &mut HashMap<Box<[u64]>, u32>,
        sets: &mut Vec<u64>,
        trans: &mut Vec<u32>,
    ) -> Option<u32> {
        if let Some(&id) = ids.get(&set) {
            return Some(id);
        }
        if ids.len() >= budget {
            return None;
        }
        let id = ids.len() as u32;
        sets.extend_from_slice(&set);
        trans.resize(trans.len() + nc, u32::MAX);
        ids.insert(set, id);
        Some(id)
    }
    let start = intern(
        dense.finals.clone(),
        nc,
        budget,
        &mut ids,
        &mut sets,
        &mut trans,
    )?;
    let mut next = 0usize;
    let mut out = vec![0u64; words];
    while next < ids.len() {
        let id = next;
        next += 1;
        for c in 0..nc {
            out.iter_mut().for_each(|w| *w = 0);
            for w in 0..words {
                let mut bits = sets[id * words + w];
                while bits != 0 {
                    let q = (w << 6) + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let base = q * nc + c;
                    for &t in &pool[off[base] as usize..off[base + 1] as usize] {
                        out[t as usize >> 6] |= 1u64 << (t & 63);
                    }
                }
            }
            let rid = intern(
                out.clone().into_boxed_slice(),
                nc,
                budget,
                &mut ids,
                &mut sets,
                &mut trans,
            )?;
            trans[id * nc + c] = rid;
        }
    }
    Some(SubsetDfa { sets, trans, start })
}

/// Precompiled scan-skip analysis for one eVSA state with a block-free
/// self-loop (a "scanning" state: the `.*` context of an extractor).
///
/// `ok` is a bitvec indexed by `(backward id << shift) | class`: the bit
/// is set when, for a document byte of that class with that viability id
/// *after* it, the state's only viable move is the self-loop — the
/// self-loop mask contains the class, the state itself is in the
/// viability set, and every other transition either misses the class or
/// targets a state outside the set. Under those conditions the forward
/// enumeration can cross the byte without a stack frame (see
/// [`crate::eval::ViableSource::scan_skip`]); the lazy dense tier cannot
/// precompute this table because its cache ids are unstable under
/// eviction.
#[derive(Debug)]
struct ScanSkip {
    ok: Vec<u64>,
}

/// An [`EVsa`](crate::evsa::EVsa) compiled for the AOT engine: the
/// premultiplied backward (viability) DFA table, with the dense engine's
/// edge tables driving tuple enumeration. Construct via [`AotEvsa::compile`]; `None` means
/// the automaton exceeded the budget and the caller should stay on the
/// lazy dense tier ([`crate::engine::TieredEvsa`] does exactly that).
#[derive(Debug)]
pub struct AotEvsa {
    /// The embedded dense compilation: byte classes, edge tables for the
    /// forward enumeration, post flags.
    dense: Arc<DenseEvsa>,
    /// `log2(stride)`; premultiplied id = `index << shift`.
    shift: u32,
    /// Byte → class, widened for direct OR-ing into a premultiplied id.
    cls: Box<[u16; 256]>,
    /// Backward table: `bwd_tbl[(id & MASK) | class]` → packed successor
    /// (bit 15 = empty viability set).
    bwd_tbl: Vec<u16>,
    /// Packed start entry of the pass.
    bwd_start: u16,
    /// Bitset words per viability set.
    words: usize,
    /// Flattened viability membership bitsets, `words` per backward
    /// state, indexed by unpacked backward ids.
    bwd_sets: Vec<u64>,
    /// Per-eVSA-state scan-skip tables (`None` = no block-free
    /// self-loop, the state never scans).
    scan: Vec<Option<ScanSkip>>,
    /// Precompiled skip-loop escape scanners per state index (`None` =
    /// the state escapes too often for skipping to pay).
    bwd_escape: Vec<Option<ByteFinder>>,
    /// State count of the determinization — the number the budget is
    /// charged against.
    raw_bwd: usize,
}

impl AotEvsa {
    /// Determinizes and freezes the automaton of `dense` under
    /// [`AOT_BUDGET`], sharing `dense`'s byte classes and edge tables.
    /// `None` when the automaton is empty, the subset construction
    /// exceeds the budget, or the packed ids would overflow the 15
    /// addressable bits of a `u16` — callers then stay on the lazy dense
    /// tier (which is exact at any size). A shared partition (see
    /// [`DenseEvsa::compile_with_classes`]) widens the row stride, so a
    /// fleet member that fits alone may degrade to lazy dense.
    pub fn compile(dense: &Arc<DenseEvsa>) -> Option<AotEvsa> {
        AotEvsa::compile_within(dense, AOT_BUDGET)
    }

    /// [`AotEvsa::compile`] under an explicit state budget (the tiering
    /// boundary tests).
    pub(crate) fn compile_within(dense: &Arc<DenseEvsa>, max_states: usize) -> Option<AotEvsa> {
        let evsa = dense.evsa();
        if evsa.num_states() == 0 {
            return None;
        }
        let nc = dense.nc;
        let words = dense.words;
        let stride = nc.next_power_of_two();
        let shift = stride.trailing_zeros();
        // Ids are premultiplied by `stride`, so `states * stride` must
        // stay below bit 15; charging the budget with the same cap keeps
        // construction memory proportional to what can be packed.
        let budget = max_states.min((1usize << 15) / stride);
        if budget == 0 {
            return None;
        }

        let bwd_raw = determinize_bounded(dense, budget)?;
        let raw_bwd = bwd_raw.num_states(words);

        // Every state's membership set feeds tuple enumeration, so the
        // determinization is packed unminimized.
        if raw_bwd * stride > 1 << 15 {
            return None;
        }
        let empty_of = |i: usize| (0..words).all(|w| bwd_raw.sets[i * words + w] == 0);
        let mut bwd_tbl = vec![0u16; raw_bwd * stride];
        for q in 0..raw_bwd {
            for c in 0..nc {
                let r = bwd_raw.trans[q * nc + c] as usize;
                bwd_tbl[(q << shift) | c] = pack(r, shift, empty_of(r));
            }
            // Padding classes are never indexed (cls[b] < nc); keep them
            // self-looping so a stray read cannot leave the table.
            for c in nc..stride {
                bwd_tbl[(q << shift) | c] = pack(q, shift, empty_of(q));
            }
        }
        let bwd_start = pack(
            bwd_raw.start as usize,
            shift,
            empty_of(bwd_raw.start as usize),
        );

        let classes = dense.classes();
        let mut cls = Box::new([0u16; 256]);
        for b in 0..=255u8 {
            cls[b as usize] = classes.class_of(b) as u16;
        }

        // Precompile skip-loop escape scanners: a state that self-loops
        // on ≥ 192 of the 256 bytes gets a SWAR finder for its escapes
        // (same threshold as the dense engine's lazy probe).
        let bwd_escape: Vec<Option<ByteFinder>> = (0..raw_bwd)
            .map(|q| {
                let own = (q << shift) as u16;
                let mut stay = crate::byteset::ByteSet::EMPTY;
                for c in 0..nc {
                    if bwd_tbl[(q << shift) | c] & MASK == own {
                        for b in classes.bytes_of(c) {
                            stay.insert(b);
                        }
                    }
                }
                if stay.len() >= 192 {
                    Some(ByteFinder::from_predicate(|b| !stay.contains(b)))
                } else {
                    None
                }
            })
            .collect();

        // Scan-skip tables (see [`ScanSkip`]): the backward ids are a
        // frozen, exhaustive enumeration of every viability set, so the
        // "is the self-loop the only viable move?" predicate can be
        // answered per (id, class) once, at compile time. The class
        // partition refines every transition mask, so testing one
        // representative byte per class is exact.
        let set_has = |id: usize, q: StateId| {
            bwd_raw.sets[id * words + (q as usize >> 6)] & (1u64 << (q & 63)) != 0
        };
        let scan: Vec<Option<ScanSkip>> = (0..evsa.num_states())
            .map(|qi| {
                let s = qi as StateId;
                // Post states emit-and-cut on entry: no frame ever
                // scans from one.
                if dense.post[qi] {
                    return None;
                }
                let ts = evsa.transitions_from(s);
                let mut self_mask = crate::byteset::ByteSet::EMPTY;
                for (block, mask, r) in ts {
                    if *r == s && block.is_empty() {
                        self_mask = self_mask.or(mask);
                    }
                }
                if self_mask.is_empty() {
                    return None;
                }
                let others: Vec<_> = ts
                    .iter()
                    .filter(|(block, _, r)| !(*r == s && block.is_empty()))
                    .map(|(_, mask, r)| (mask, *r))
                    .collect();
                let bits = raw_bwd << shift;
                let mut ok = vec![0u64; bits.div_ceil(64)];
                for c in 0..nc {
                    let Some(b) = classes.bytes_of(c).next() else {
                        continue;
                    };
                    if !self_mask.contains(b) {
                        continue;
                    }
                    for id in 0..raw_bwd {
                        if !set_has(id, s)
                            || others.iter().any(|(m, r)| m.contains(b) && set_has(id, *r))
                        {
                            continue;
                        }
                        let idx = (id << shift) | c;
                        ok[idx >> 6] |= 1u64 << (idx & 63);
                    }
                }
                Some(ScanSkip { ok })
            })
            .collect();

        Some(AotEvsa {
            dense: dense.clone(),
            shift,
            cls,
            bwd_tbl,
            bwd_start,
            words,
            bwd_sets: bwd_raw.sets,
            scan,
            bwd_escape,
            raw_bwd,
        })
    }

    /// Determinized state count — the number charged against
    /// [`AOT_BUDGET`]. Exposed so the tiering boundary can be pinned by
    /// regression tests.
    pub fn determinized_states(&self) -> usize {
        self.raw_bwd
    }

    /// One backward table step.
    #[inline(always)]
    fn bstep(&self, cur: u16, b: u8) -> u16 {
        self.bwd_tbl[((cur & MASK) | self.cls[b as usize]) as usize]
    }

    /// Runs the backward viability pass, filling `cache.ids_buf` with
    /// the backward state *index* per position. Unrolled 4 bytes per
    /// iteration; flat regions are crossed by the precompiled escape
    /// scanners; an empty viability set short-circuits the rest (the
    /// empty set is a fixpoint of the predecessor step).
    fn viability_pass(&self, doc: &[u8], cache: &mut DenseCache) {
        let n = doc.len();
        cache.ids_buf.clear();
        cache.ids_buf.resize(n + 1, 0);
        let mut cur = self.bwd_start;
        cache.ids_buf[n] = unpack(cur, self.shift) as u32;
        let mut i = n;
        let mut streak = 0u32;
        while i > 0 {
            if cur & FLAG != 0 {
                // Empty viability set: every earlier position is empty.
                let idx = unpack(cur, self.shift) as u32;
                cache.ids_buf[..i].fill(idx);
                return;
            }
            if streak >= SKIP_STREAK {
                streak = 0;
                let idx = unpack(cur, self.shift);
                if let Some(f) = &self.bwd_escape[idx] {
                    match f.rfind(&doc[..i]) {
                        Some(j) => {
                            // Bytes after the last escape all stay put.
                            cache.ids_buf[j + 1..i].fill(idx as u32);
                            cache.skipped += (i - (j + 1)) as u64;
                            i = j + 1;
                            if i == 0 {
                                return;
                            }
                        }
                        None => {
                            cache.ids_buf[..i].fill(idx as u32);
                            cache.skipped += i as u64;
                            return;
                        }
                    }
                }
            }
            if i >= 4 {
                let prev = cur;
                cur = self.bstep(cur, doc[i - 1]);
                cache.ids_buf[i - 1] = unpack(cur, self.shift) as u32;
                cur = self.bstep(cur, doc[i - 2]);
                cache.ids_buf[i - 2] = unpack(cur, self.shift) as u32;
                cur = self.bstep(cur, doc[i - 3]);
                cache.ids_buf[i - 3] = unpack(cur, self.shift) as u32;
                cur = self.bstep(cur, doc[i - 4]);
                cache.ids_buf[i - 4] = unpack(cur, self.shift) as u32;
                i -= 4;
                // Block-level streak: a state unchanged across 4 steps
                // is (heuristically) sitting in a self-loop; the escape
                // probe above is exact either way.
                streak = if cur == prev { streak + 4 } else { 0 };
            } else {
                let prev = cur;
                cur = self.bstep(cur, doc[i - 1]);
                cache.ids_buf[i - 1] = unpack(cur, self.shift) as u32;
                i -= 1;
                streak = if cur == prev { streak + 1 } else { 0 };
            }
        }
    }

    /// Evaluates with an explicit scan cache (one per worker), producing
    /// exactly the relation of the NFA, dense and prefilter engines. The
    /// cache's id buffer and enumeration scratch are reused; its
    /// lazy-DFA state is untouched (the AOT table is static), so a cache
    /// may alternate between engines freely.
    pub fn eval_with(&self, doc: &[u8], cache: &mut DenseCache) -> SpanRelation {
        self.viability_pass(doc, cache);
        let viable = AotViable {
            ids: &cache.ids_buf,
            sets: &self.bwd_sets,
            words: self.words,
            scan: &self.scan,
            shift: self.shift,
            cls: &self.cls,
        };
        forward_enumerate_scratch(
            self.dense.evsa(),
            doc,
            &self.dense.post,
            &viable,
            &DenseEdges(&self.dense),
            &mut cache.scratch,
        )
    }
}

/// Viability view over the AOT backward table's membership bitsets.
struct AotViable<'a> {
    /// Backward state index per document position.
    ids: &'a [u32],
    /// Flattened membership bitsets, `words` per state.
    sets: &'a [u64],
    words: usize,
    /// Per-eVSA-state scan-skip tables.
    scan: &'a [Option<ScanSkip>],
    /// `log2(stride)` — the scan tables share the premultiplied layout.
    shift: u32,
    /// Byte → class.
    cls: &'a [u16; 256],
}

impl ViableSource for AotViable<'_> {
    #[inline]
    fn viable(&self, pos: usize, q: StateId) -> bool {
        let q = q as usize;
        let base = self.ids[pos] as usize * self.words;
        self.sets[base + (q >> 6)] & (1u64 << (q & 63)) != 0
    }

    #[inline]
    fn scan_skip(&self, doc: &[u8], mut pos: usize, q: StateId) -> usize {
        let Some(skip) = self.scan[q as usize].as_ref() else {
            return pos;
        };
        // One load + bit test per crossed byte, against the per-byte
        // frame push/pop + edge iteration this replaces.
        while pos < doc.len() {
            let idx =
                ((self.ids[pos + 1] as usize) << self.shift) | self.cls[doc[pos] as usize] as usize;
            if skip.ok[idx >> 6] & (1u64 << (idx & 63)) == 0 {
                break;
            }
            pos += 1;
        }
        pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseConfig;
    use crate::eval::eval_evsa;
    use crate::evsa::EVsa;
    use crate::rgx::Rgx;
    use splitc_automata::classes::ByteClasses;

    fn compile(pattern: &str) -> Arc<EVsa> {
        let vsa = Rgx::parse(pattern).unwrap().to_vsa().unwrap();
        Arc::new(EVsa::from_functional(&vsa.functionalize()))
    }

    fn dense(e: &Arc<EVsa>) -> Arc<DenseEvsa> {
        Arc::new(DenseEvsa::compile(e.clone(), DenseConfig::default()))
    }

    /// AOT compilation under an explicit budget.
    fn aot_within(e: &Arc<EVsa>, max_states: usize) -> Option<AotEvsa> {
        AotEvsa::compile_within(&dense(e), max_states)
    }

    fn aot(e: &Arc<EVsa>) -> AotEvsa {
        AotEvsa::compile(&dense(e)).expect("fits the budget")
    }

    /// One evaluation with a fresh cache.
    fn eval(a: &AotEvsa, doc: &[u8]) -> SpanRelation {
        a.eval_with(doc, &mut DenseCache::default())
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
            ("x{ab}b|a(x{bb})", vec![b"abb".to_vec(), b"ab".to_vec()]),
        ] {
            let e = compile(pat);
            let a = aot(&e);
            for doc in docs {
                assert_eq!(eval(&a, &doc), eval_evsa(&e, &doc), "pattern {pat}");
            }
        }
    }

    #[test]
    fn long_unrolled_scan_is_exact() {
        // Lengths around the 4-byte unroll boundary and beyond.
        let e = compile(".*x{a+}.*");
        let a = aot(&e);
        for len in [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 255] {
            let mut doc = vec![b'b'; len];
            if len > 2 {
                doc[len / 2] = b'a';
                doc[len - 1] = b'a';
            }
            assert_eq!(eval(&a, &doc), eval_evsa(&e, &doc), "len {len}");
        }
    }

    #[test]
    fn skip_loop_is_exact_and_skips() {
        let e = compile(".*x{q+}.*");
        let a = aot(&e);
        let mut doc = vec![b'a'; 2048];
        doc[777] = b'q';
        let mut cache = DenseCache::default();
        assert_eq!(a.eval_with(&doc, &mut cache), eval_evsa(&e, &doc));
        assert!(
            cache.skipped_bytes() > 1000,
            "expected a large jump, got {}",
            cache.skipped_bytes()
        );
        // Matchless and tiny documents behave identically too.
        for doc in [vec![b'a'; 100], vec![], vec![b'q']] {
            assert_eq!(a.eval_with(&doc, &mut cache), eval_evsa(&e, &doc));
        }
    }

    #[test]
    fn scan_skip_is_exact_on_sparse_and_dense_matches() {
        // Token-boundary extractor with `.*` contexts: the scanning
        // state gets a precompiled scan-skip table, and the enumeration
        // must still produce the exact NFA relation whether matches are
        // sparse (long skips), dense (skips interleave with branches),
        // or sitting on the document edges.
        let e = compile("(.*[^ab]|)x{a+b}([^ab].*|)");
        let a = aot(&e);
        assert!(
            a.scan.iter().any(Option::is_some),
            "the .* context must yield a scan-skip table"
        );
        let mut sparse = vec![b'.'; 4096];
        sparse[1000] = b'a';
        sparse[1001] = b'b';
        sparse[4094] = b'a';
        sparse[4095] = b'b';
        let dense_doc: Vec<u8> = b"aab ab .ab aaab b a ab".repeat(40);
        let edges: Vec<u8> = b"ab..ab".to_vec();
        for doc in [&sparse, &dense_doc, &edges, &Vec::new()] {
            assert_eq!(eval(&a, doc), eval_evsa(&e, doc));
        }
    }

    #[test]
    fn gate_rejects_and_counts() {
        // Required literal 'q': on the AOT tier an all-'a' document is
        // gate-rejected without a single table step.
        use crate::engine::{Engine, TieredEvsa};
        use crate::prefilter::PrefilterStats;
        let e = compile(".*x{q+}.*");
        let t = TieredEvsa::compile(e.clone(), Engine::Aot, DenseConfig::default(), None);
        assert_eq!(t.tier(), Engine::Aot);
        assert!(!t.gate().expect("AOT tier is gated").is_transparent());
        let mut cache = DenseCache::default();
        let mut stats = PrefilterStats::default();
        let doc = vec![b'a'; 512];
        assert!(t.eval_with(&doc, &mut cache, &mut stats).is_empty());
        assert_eq!(cache.skipped_bytes(), 0);
        assert_eq!(stats.bytes_skipped, 512);
        assert_eq!(stats.candidates, 0);
    }

    #[test]
    fn budget_fallback_boundary() {
        // budget-1 / budget / budget+1 around the automaton's own
        // determinization size pins the AOT→dense fallback edge.
        let e = compile("(a|b)*x{ab}(a|b)*");
        let need = aot(&e).determinized_states();
        assert!(need > 1, "test automaton must determinize to > 1 state");
        assert!(
            aot_within(&e, need - 1).is_none(),
            "budget-1 must fall back"
        );
        let at = aot_within(&e, need).expect("budget exactly fits");
        let above = aot_within(&e, need + 1).expect("budget+1 fits");
        for doc in [b"abab".as_slice(), b"", b"bb"] {
            assert_eq!(eval(&at, doc), eval_evsa(&e, doc));
            assert_eq!(eval(&above, doc), eval_evsa(&e, doc));
        }
    }

    #[test]
    fn zero_and_empty_automata_fall_back() {
        // An empty-language automaton either compiles (and then agrees
        // with the reference evaluator everywhere) or falls back.
        let v = crate::vsa::Vsa::new(crate::vars::VarTable::empty());
        let e = Arc::new(EVsa::from_functional(&v));
        if let Some(a) = AotEvsa::compile(&dense(&e)) {
            for doc in [b"".as_slice(), b"ab"] {
                assert_eq!(eval(&a, doc), eval_evsa(&e, doc));
            }
        }
        assert!(aot_within(&compile("x{a}"), 0).is_none());
    }

    #[test]
    fn packing_roundtrips_at_u16_boundary() {
        // Every (index, shift) pair the packing budget admits must
        // round-trip through the premultiplied representation with the
        // flag bit intact — including the extreme index for each stride.
        for shift in 0..=8u32 {
            let stride = 1usize << shift;
            let max_index = (1usize << 15) / stride - 1;
            for index in [0, 1, max_index / 2, max_index] {
                for flag in [false, true] {
                    let id = pack(index, shift, flag);
                    assert_eq!(unpack(id, shift), index, "shift {shift} index {index}");
                    assert_eq!(id & FLAG != 0, flag);
                    // The premultiplied id stays below bit 15: masking
                    // off the flag recovers the shifted index exactly.
                    assert_eq!((id & MASK) as usize, index << shift);
                }
            }
        }
    }

    #[test]
    fn packing_budget_caps_state_count() {
        // With the widest possible stride the cap is 2^15 / stride; the
        // compile-time budget must never admit more states than pack().
        for nc in [1usize, 2, 3, 5, 8, 17, 200, 256] {
            let stride = nc.next_power_of_two();
            let cap = (1usize << 15) / stride;
            let shift = stride.trailing_zeros();
            // The largest admissible index packs; one past it would not.
            assert!(((cap - 1) << shift) < (1 << 15));
            assert!((cap << shift) >= (1 << 15));
        }
    }

    #[test]
    fn classes_shared_partition_matches_own() {
        use splitc_automata::classes::ByteClassBuilder;
        let e = compile(".*x{a+}.*");
        let own = aot(&e);
        let mut builder = ByteClassBuilder::new();
        for m in e.byte_masks() {
            builder.add_set(|b| m.contains(b));
        }
        builder.add_set(|b: u8| b.is_ascii_digit());
        let classes: ByteClasses = builder.build();
        let shared = AotEvsa::compile(&Arc::new(DenseEvsa::compile_with_classes(
            e.clone(),
            DenseConfig::default(),
            classes,
        )))
        .unwrap();
        for doc in [b"aabaa".as_slice(), b"", b"q9a", b"bbb"] {
            assert_eq!(eval(&shared, doc), eval(&own, doc));
        }
    }
}
