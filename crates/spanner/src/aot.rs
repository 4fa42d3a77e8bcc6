//! The ahead-of-time (AOT) engine: the dense engine's backward viability
//! DFA explored to completion, then frozen into a flat premultiplied
//! `u16` transition table.
//!
//! The lazy dense tier ([`crate::dense`]) pays lazy-DFA bookkeeping on
//! the hot path: a memoization probe, a hit/miss counter and a
//! `state * num_classes + class` multiply per scanned byte, plus hash
//! interning whenever a scan reaches a new power-set state. For the
//! small hot spanners that dominate the e-series benchmarks and the
//! server's warm paths, this module moves all of it to compile time:
//!
//! 1. **Explore under a budget** — the lazy DFA is explored
//!    breadth-first over every `(state, class)` through the dense
//!    engine's own memoised step, with [`AOT_BUDGET`] (or the number of
//!    states the packed table can address, if smaller) as its intern
//!    cap. Exploration aborts — and the caller stays on the lazy dense
//!    tier — as soon as the cap is hit. The DFA is *not* minimized:
//!    each of its states is an observable set of viable eVSA states
//!    (tuple enumeration reads the membership bitsets), and merging
//!    language-equivalent sets would change results.
//! 2. **Freeze into premultiplied `u16` tables** — state ids are stored
//!    pre-multiplied by the row stride (the class count rounded up to a
//!    power of two), with the empty-set flag packed into bit 15, so a
//!    step is `table[(id & MASK) | class]`: one AND, one OR, one load —
//!    no multiply, no branch. The explored DFA's membership sets, in its
//!    own numbering, feed enumeration; skip-loop escape scanners and
//!    one forced-move table over `(eVSA state, backward id, class)`
//!    are precompiled once. A forced move is a state's only viable
//!    move on a byte; the forward enumeration follows chains of them
//!    without a stack frame per byte.
//!
//! The frozen table runs the dense module's one `viability_pass` (as
//! its `BackwardTable`), so the unroll, skip-loop and empty-set stop are
//! the lazy tier's; the document gate in front of it is the tiered
//! core's ([`crate::engine`]).
//!
//! Exactness: the frozen states *are* the lazy DFA's, and the forward
//! tuple enumeration is the shared [`crate::eval`] search over the same
//! dense edge tables — so relations are byte-identical to the NFA, dense
//! and prefilter engines (asserted by the repository-wide engine-matrix
//! differential harness).

use crate::dense::{
    escape_finder, viability_pass, BackwardTable, DenseCache, DenseEvsa, FlatViable, LazyDfa,
};
use crate::tuple::SpanRelation;
use splitc_automata::nfa::StateId;
use splitc_automata::scan::ByteFinder;
use std::sync::Arc;

/// Upper bound on determinized backward states. When exploration would
/// exceed it — or the premultiplied ids would no longer fit in the 15
/// addressable bits of a `u16` — compilation returns `None` and the
/// caller stays on the lazy dense tier. Exploration cost is bounded by
/// `O(budget · classes · |Q|/64)`, so an adversarial automaton cannot
/// make compilation blow up. Hot production spanners determinize to a
/// handful of states; the budget admits all of them while keeping the
/// packed table comfortably cache-resident (at most `1024 · stride`
/// `u16` entries).
pub const AOT_BUDGET: usize = 1024;

/// Upper bound on forced-move table entries: eVSA states times the
/// backward row block (backward states rounded up to a power of two,
/// times the row stride). An automaton over it gets no table, and its
/// enumeration pushes a frame per move, as on the lazy tier. At `u32`
/// per entry the table stays within 1 MiB.
pub(crate) const FORCED_CAP: usize = 1 << 18;

/// Flag bit packed into a table entry's id: *empty viability set*.
const FLAG: u16 = 1 << 15;

/// Mask selecting the premultiplied state id (low 15 bits).
const MASK: u16 = FLAG - 1;

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

/// An [`EVsa`](crate::evsa::EVsa) compiled for the AOT engine: the
/// frozen backward (viability) DFA table, with the dense engine's edge
/// tables driving tuple enumeration. Construct via
/// [`AotEvsa::compile`]; `None` means the automaton exceeded the budget
/// and the caller should stay on the lazy dense tier
/// ([`crate::engine::TieredEvsa`] does exactly that).
#[derive(Debug)]
pub struct AotEvsa {
    /// The embedded dense compilation: byte classes, edge tables for the
    /// forward enumeration, post flags.
    dense: Arc<DenseEvsa>,
    /// `log2(stride)`; premultiplied id = `index << shift`.
    shift: u32,
    /// Byte → class, widened for direct OR-ing into a premultiplied id.
    cls: Box<[u16; 256]>,
    /// `tbl[(id & MASK) | class]` → packed predecessor state (bit 15 =
    /// empty viability set).
    tbl: Vec<u16>,
    /// Packed start entry of the pass.
    start: u16,
    /// The explored DFA's membership bitsets, `words` per state, indexed
    /// by unpacked ids.
    sets: Vec<u64>,
    /// Skip-loop escape scanners per state index.
    escapes: Vec<Option<ByteFinder>>,
    /// `log2` of one eVSA state's block of [`AotEvsa::forced`]: the
    /// backward state count rounded up to a power of two, times the
    /// row stride.
    row_bits: u32,
    /// Forced moves, indexed by `(q << row_bits) | (backward id <<
    /// shift) | class`: `r + 1` when, for a document byte of that class
    /// with that viability id *after* it, `q`'s only viable move is
    /// block-free into the non-post state `r`, and `r` is `q` itself or
    /// not a pre state (so the pre-state dedupe still sees every pre
    /// state a run enters); 0 otherwise. Empty over [`FORCED_CAP`]. The
    /// lazy tier has no such table: its cache ids are unstable under
    /// eviction.
    forced: Vec<u32>,
}

impl AotEvsa {
    /// Explores and freezes the backward DFA of `dense` under
    /// [`AOT_BUDGET`], sharing `dense`'s byte classes and edge tables.
    /// `None` when the automaton is empty, exploration exceeds the
    /// budget, or the packed ids would overflow the 15 addressable bits
    /// of a `u16` — callers then stay on the lazy dense tier (which is
    /// exact at any size). A shared partition (see
    /// [`DenseEvsa::compile_with_classes`]) widens the row stride, so a
    /// fleet member that fits alone may degrade to lazy dense.
    pub fn compile(dense: &Arc<DenseEvsa>) -> Option<AotEvsa> {
        AotEvsa::compile_within(dense, AOT_BUDGET, FORCED_CAP)
    }

    /// [`AotEvsa::compile`] under an explicit state budget (the tiering
    /// boundary tests) and forced-move table cap (0 builds no table).
    pub(crate) fn compile_within(
        dense: &Arc<DenseEvsa>,
        max_states: usize,
        forced_cap: usize,
    ) -> Option<AotEvsa> {
        let evsa = dense.evsa();
        if evsa.num_states() == 0 {
            return None;
        }
        let (nc, words) = (dense.nc, dense.words);
        let stride = nc.next_power_of_two();
        let shift = stride.trailing_zeros();
        // Ids are premultiplied by `stride`, so `states * stride` must
        // stay within bit 15; capping the exploration at the same bound
        // keeps construction memory proportional to what can be packed.
        let cap = max_states.min((1usize << 15) / stride);
        let dfa = explore(dense, cap)?;
        let states = dfa.len();
        let row = |q: usize, c: usize| dfa.rows[q * nc + c] as usize;
        let packed = |q: usize| pack(q, shift, dfa.dead == Some(q as u32));
        let mut tbl = vec![0u16; states * stride];
        for q in 0..states {
            for c in 0..stride {
                // Padding classes are never indexed (cls[b] < nc); keep
                // them self-looping so a stray read cannot leave the
                // table.
                tbl[(q << shift) | c] = packed(if c < nc { row(q, c) } else { q });
            }
        }
        let classes = dense.classes();
        let cls = Box::new(std::array::from_fn(|b| classes.class_of(b as u8) as u16));
        let escapes = (0..states)
            .map(|q| escape_finder(classes, |c| row(q, c) == q))
            .collect();

        // Forced moves: the frozen ids are an exhaustive enumeration of
        // every viability set, so "which moves of `q` are viable?" can be
        // answered per (id, class) once, at compile time. The class
        // partition refines every transition mask, so testing one
        // representative byte per class is exact.
        let set_has = |id: usize, q: StateId| {
            dfa.sets[id * words + (q as usize >> 6)] & (1u64 << (q & 63)) != 0
        };
        let ns = evsa.num_states();
        let row_bits = states.next_power_of_two().trailing_zeros() + shift;
        let mut forced = Vec::new();
        if ns << row_bits <= forced_cap {
            forced.resize(ns << row_bits, 0);
            let post = &dense.roles.post;
            for (c, b) in classes.representatives().into_iter().enumerate() {
                // Post states emit-and-cut on entry: no frame holds one.
                for q in (0..ns).filter(|&q| !post[q]) {
                    let ts = evsa.transitions_from(q as StateId);
                    for id in 0..states {
                        let mut live = ts
                            .iter()
                            .filter(|(_, mask, r)| mask.contains(b) && set_has(id, *r));
                        let (Some((block, _, r)), None) = (live.next(), live.next()) else {
                            continue;
                        };
                        let ri = *r as usize;
                        if block.is_empty() && !post[ri] && (ri == q || !dense.roles.is_pre(*r)) {
                            forced[(q << row_bits) | (id << shift) | c] = r + 1;
                        }
                    }
                }
            }
        }

        Some(AotEvsa {
            dense: dense.clone(),
            shift,
            cls,
            tbl,
            start: packed(0),
            sets: dfa.sets,
            escapes,
            row_bits,
            forced,
        })
    }

    /// Determinized state count — the number charged against
    /// [`AOT_BUDGET`]. Exposed so the tiering boundary can be pinned by
    /// regression tests.
    pub fn determinized_states(&self) -> usize {
        self.escapes.len()
    }

    /// Evaluates with an explicit scan cache (one per worker), producing
    /// exactly the relation of the NFA, dense and prefilter engines. The
    /// cache's id buffer and enumeration scratch are reused; its
    /// lazy-DFA state is untouched (the AOT table is static), so a cache
    /// may alternate between engines freely.
    pub fn eval_with(&self, doc: &[u8], cache: &mut DenseCache) -> SpanRelation {
        viability_pass(&mut &*self, doc, &mut cache.ids_buf, &mut cache.skipped)
            .expect("a frozen table has no cache bound");
        let viable = FlatViable {
            ids: &cache.ids_buf,
            sets: &self.sets,
            words: self.dense.words,
            forced: (!self.forced.is_empty()).then_some(self),
        };
        self.dense.enumerate(doc, &viable, &mut cache.scratch)
    }

    /// The forced-move hook of [`FlatViable`] over this table's ids (see
    /// [`crate::eval::ViableSource::advance`]): one load per crossed
    /// byte, against the frame push, edge iteration and pop this
    /// replaces.
    #[inline]
    pub(crate) fn advance(
        &self,
        ids: &[u32],
        doc: &[u8],
        mut pos: usize,
        mut q: StateId,
    ) -> (usize, StateId) {
        while pos < doc.len() {
            let idx = ((q as usize) << self.row_bits)
                | ((ids[pos + 1] as usize) << self.shift)
                | self.cls[doc[pos] as usize] as usize;
            match self.forced[idx] {
                0 => break,
                r => (pos, q) = (pos + 1, r - 1),
            }
        }
        (pos, q)
    }
}

/// The lazy DFA of `dense` explored breadth-first over every
/// `(id, class)` — so ids are numbered in discovery order from the seed
/// — or `None` when it has more than `cap` states.
fn explore(dense: &DenseEvsa, cap: usize) -> Option<LazyDfa> {
    let mut dfa = LazyDfa::default();
    dense.seed(&mut dfa, cap)?;
    let mut id = 0;
    while id < dfa.len() {
        for c in 0..dense.nc {
            dense.step(&mut dfa, id as u32, c, cap)?;
        }
        id += 1;
    }
    Some(dfa)
}

/// The frozen table: a step is one premultiplied load.
impl BackwardTable for &AotEvsa {
    type Id = u16;

    fn start(&mut self) -> Option<u16> {
        Some(self.start)
    }

    #[inline(always)]
    fn step(&mut self, cur: u16, b: u8) -> Option<u16> {
        Some(self.tbl[((cur & MASK) | self.cls[b as usize]) as usize])
    }

    #[inline(always)]
    fn index(&self, cur: u16) -> u32 {
        unpack(cur, self.shift) as u32
    }

    #[inline(always)]
    fn is_dead(&self, cur: u16) -> bool {
        cur & FLAG != 0
    }

    fn escape(&mut self, cur: u16) -> Option<&ByteFinder> {
        self.escapes[unpack(cur, self.shift)].as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{DenseConfig, Lazy};
    use crate::eval::{self, eval_evsa, ViableSource};
    use crate::evsa::EVsa;
    use crate::rgx::Rgx;
    use proptest::prelude::*;
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
        AotEvsa::compile_within(&dense(e), max_states, FORCED_CAP)
    }

    fn aot(e: &Arc<EVsa>) -> AotEvsa {
        AotEvsa::compile(&dense(e)).expect("fits the budget")
    }

    /// AOT compilation without a forced-move table.
    fn aot_bare(e: &Arc<EVsa>) -> AotEvsa {
        AotEvsa::compile_within(&dense(e), AOT_BUDGET, 0).expect("fits the budget")
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
        // state gets self-loop entries in the forced-move table, the
        // capture gets moves between states, and the enumeration must
        // still produce the exact NFA relation whether matches are
        // sparse (long skips), dense (skips interleave with branches),
        // or sitting on the document edges.
        let e = compile("(.*[^ab]|)x{a+b}([^ab].*|)");
        let a = aot(&e);
        let bare = aot_bare(&e);
        assert!(bare.forced.is_empty(), "cap 0 builds no table");
        let moves = a.forced.iter().enumerate().filter(|(_, &r)| r != 0);
        let (loops, steps): (Vec<_>, Vec<_>) =
            moves.partition(|&(idx, &r)| idx >> a.row_bits == r as usize - 1);
        assert!(!loops.is_empty(), "the .* context must yield self-loops");
        assert!(!steps.is_empty(), "the capture must yield forced steps");
        let mut sparse = vec![b'.'; 4096];
        sparse[1000] = b'a';
        sparse[1001] = b'b';
        sparse[4094] = b'a';
        sparse[4095] = b'b';
        let dense_doc: Vec<u8> = b"aab ab .ab aaab b a ab".repeat(40);
        let edges: Vec<u8> = b"ab..ab".to_vec();
        for doc in [&sparse, &dense_doc, &edges, &Vec::new()] {
            let (mut with, mut without) = (DenseCache::default(), DenseCache::default());
            assert_eq!(a.eval_with(doc, &mut with), eval_evsa(&e, doc));
            assert_eq!(bare.eval_with(doc, &mut without), eval_evsa(&e, doc));
            assert!(with.enum_frames() <= without.enum_frames());
        }
        let (mut with, mut without) = (DenseCache::default(), DenseCache::default());
        a.eval_with(&sparse, &mut with);
        bare.eval_with(&sparse, &mut without);
        assert!(
            with.enum_frames() * 100 < without.enum_frames(),
            "the .* context crosses the sparse document frame-free: {} vs {} frames",
            with.enum_frames(),
            without.enum_frames()
        );
    }

    /// A sentence document of about `len` bytes: space-separated tokens
    /// (lower-case words, capitalised words, numbers), a period after
    /// each sentence, a blank line after every fourth.
    fn sentence_doc(len: usize, mut seed: u64) -> Vec<u8> {
        let mut draw = |bound: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % bound
        };
        let mut doc = Vec::with_capacity(len + 256);
        for sentence in 0.. {
            if doc.len() >= len {
                break;
            }
            for t in 0..6 + draw(14) {
                if t > 0 {
                    doc.push(b' ');
                }
                let (len, kind) = (1 + draw(9) as usize, draw(10));
                for i in 0..len {
                    doc.push(match kind {
                        0 => b'0' + draw(10) as u8,
                        1 if i == 0 => b'A' + draw(26) as u8,
                        _ => b'a' + draw(26) as u8,
                    });
                }
            }
            doc.extend_from_slice(if sentence % 4 == 3 { b".\n\n" } else { b". " });
        }
        doc
    }

    /// `ngram_extractor(2)` per sentence segment, the `batch-dense`
    /// plan. Per tuple, a run enters seven eVSA states — the `.*` loop,
    /// the post-delimiter state, the open, token 1, the space, token 2's
    /// first byte and token 2 — and five of those moves are forced. With
    /// forced moves followed frame-free and last edges reusing their
    /// frame, the search spends about three frames per tuple (seven
    /// when every move pushed a frame).
    #[test]
    fn bigram_enumeration_takes_three_frames_per_tuple() {
        let e = compile(r"(.*[^A-Za-z0-9]|)g{[A-Za-z0-9]+ [A-Za-z0-9]+}([^A-Za-z0-9].*|)");
        let a = aot(&e);
        let doc = sentence_doc(64 << 10, 4096);
        let mut cache = DenseCache::default();
        let mut tuples = 0;
        for span in crate::splitter::sentences().split(&doc) {
            let seg = span.slice(&doc);
            let rel = a.eval_with(seg, &mut cache);
            assert_eq!(rel, eval_evsa(&e, seg));
            tuples += rel.len();
        }
        assert!(tuples > 5000, "{tuples} tuples");
        let per_tuple = cache.enum_frames() as f64 / tuples as f64;
        assert!(
            per_tuple <= 3.1,
            "{} frames for {tuples} tuples: {per_tuple:.2} per tuple",
            cache.enum_frames()
        );
    }

    /// The AOT-tier twin of
    /// `eval::tests::ambiguous_prefix_enumerates_in_linear_work`: forced
    /// moves never enter a different pre state, so the pre-state dedupe
    /// keeps the search linear.
    #[test]
    fn ambiguous_prefix_enumerates_in_linear_work() {
        let e = compile(r"((.*a...........)?.*\.)?x{[^.]+}(\..*)?");
        let a = aot(&e);
        let sentences = crate::splitter::sentences();
        let frames = |kib: usize| {
            let mut doc = b"Anna has a cat and a bag. Data are vast. ".repeat(kib * 25);
            doc.truncate(kib << 10);
            let mut cache = DenseCache::default();
            let rel = a.eval_with(&doc, &mut cache);
            let spans: Vec<_> = rel.iter().map(|t| t.spans()[0]).collect();
            assert_eq!(spans, sentences.split(&doc), "{kib} KiB");
            cache.enum_frames()
        };
        let (small, large) = (frames(16), frames(64));
        assert!(
            large <= 4 * small + small / 8,
            "16 KiB: {small} frames, 64 KiB: {large} frames"
        );
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

    /// Every pattern the spanner crate's tests compile: the proptest
    /// spanners and splitters, and this module's own.
    fn all_patterns() -> Vec<&'static str> {
        let own = [
            ".*x{a+}.*",
            "x{a*}y{b*}",
            "(a|b)*x{ab}(a|b)*",
            ".*x{}.*",
            "x{[^.]+}(\\..*)?",
            "x{ab}b|a(x{bb})",
            ".*x{q+}.*",
            "(.*[^ab]|)x{a+b}([^ab].*|)",
        ];
        let (spanners, splitters) = (
            crate::proptests::PATTERNS,
            crate::proptests::SPLITTER_PATTERNS,
        );
        let mut all: Vec<&str> = spanners
            .iter()
            .chain(splitters)
            .chain(&own)
            .copied()
            .collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    /// Textbook subset construction of the backward viability DFA,
    /// straight from the eVSA's byte-set transitions: seed = the final
    /// states, successors numbered breadth-first by id, then class.
    /// Returns the sets in discovery order and `trans[id * nc + class]`.
    fn reference_subsets(e: &EVsa, classes: &ByteClasses) -> (Vec<Vec<u64>>, Vec<usize>) {
        let ns = e.num_states();
        let has = |set: &[u64], q: usize| set[q >> 6] & (1u64 << (q & 63)) != 0;
        let mut seed = vec![0u64; ns.div_ceil(64)];
        for q in (0..ns).filter(|&q| !e.final_blocks(q as StateId).is_empty()) {
            seed[q >> 6] |= 1u64 << (q & 63);
        }
        let mut sets = vec![seed];
        let mut trans = Vec::new();
        let mut next = 0;
        while next < sets.len() {
            for b in classes.representatives() {
                let mut out = vec![0u64; sets[next].len()];
                for q in 0..ns {
                    let ts = e.transitions_from(q as StateId);
                    if ts
                        .iter()
                        .any(|(_, m, r)| m.contains(b) && has(&sets[next], *r as usize))
                    {
                        out[q >> 6] |= 1u64 << (q & 63);
                    }
                }
                let id = match sets.iter().position(|s| *s == out) {
                    Some(id) => id,
                    None => {
                        sets.push(out);
                        sets.len() - 1
                    }
                };
                trans.push(id);
            }
            next += 1;
        }
        (sets, trans)
    }

    #[test]
    fn frozen_table_is_the_explored_lazy_dfa() {
        for pat in all_patterns() {
            let e = compile(pat);
            let d = dense(&e);
            let a = aot(&e);
            let n = a.determinized_states();
            let (nc, words) = (d.nc, d.words);
            // The lazy DFA explored to completion under the engine's own
            // cache bound, and an independent subset construction.
            let lazy = explore(&d, DenseConfig::default().max_cache_states).unwrap();
            let (sets, trans) = reference_subsets(&e, d.classes());
            assert_eq!((lazy.len(), sets.len()), (n, n), "{pat}: state count");
            assert_eq!(a.sets, lazy.sets, "{pat}: membership sets");
            assert_eq!(a.sets, sets.concat(), "{pat}: membership sets");
            assert_eq!(unpack(a.start, a.shift), 0, "{pat}: the seed is state 0");
            for q in 0..n {
                for c in 0..nc {
                    let entry = a.tbl[(q << a.shift) | c];
                    let r = unpack(entry, a.shift);
                    assert_eq!(
                        r,
                        lazy.rows[q * nc + c] as usize,
                        "{pat}: row {q} class {c}"
                    );
                    assert_eq!(r, trans[q * nc + c], "{pat}: row {q} class {c}");
                    let empty = a.sets[r * words..][..words].iter().all(|&w| w == 0);
                    assert_eq!(entry & FLAG != 0, empty, "{pat}: empty flag of {r}");
                }
            }
            assert!(aot_within(&e, n - 1).is_none(), "{pat}: budget n-1");
            for budget in [n, n + 1] {
                let at = aot_within(&e, budget).expect("budget n and n+1 fit");
                assert_eq!(
                    (at.sets.as_slice(), at.tbl.as_slice()),
                    (a.sets.as_slice(), a.tbl.as_slice())
                );
            }
        }
    }

    /// Documents of up to 8 flat runs of up to 63 bytes each, so that
    /// passes reach the skip-loop streak and the empty set.
    fn run_doc() -> impl Strategy<Value = Vec<u8>> {
        let byte = prop_oneof![Just(b'a'), Just(b'b'), Just(b'.')];
        proptest::collection::vec((byte, 1..64usize), 0..8).prop_map(|runs| {
            runs.into_iter()
                .flat_map(|(b, n)| std::iter::repeat_n(b, n))
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn forced_moves_match_the_nfa_engine(
            doc in run_doc(),
        ) {
            for pat in all_patterns() {
                let e = compile(pat);
                let reference = eval_evsa(&e, &doc);
                prop_assert_eq!(&eval(&aot(&e), &doc), &reference, "{}", pat);
                prop_assert_eq!(&eval(&aot_bare(&e), &doc), &reference, "{} without forced moves", pat);
            }
        }

        #[test]
        fn every_pass_decodes_to_the_viability_sets(
            pi in 0..crate::proptests::PATTERNS.len(),
            doc in run_doc(),
        ) {
            let e = compile(crate::proptests::PATTERNS[pi]);
            let reference = eval::viability(&e, &doc);
            let words = e.num_states().div_ceil(64);
            let decodes = |ids: &[u32], sets: &[u64]| {
                let view = FlatViable { ids, sets, words, forced: None };
                (0..=doc.len()).all(|pos| {
                    (0..e.num_states() as StateId).all(|q| view.viable(pos, q) == reference.viable(pos, q))
                })
            };
            let (mut ids, mut skipped) = (Vec::new(), 0u64);
            let a = aot(&e);
            prop_assert!(viability_pass(&mut &a, &doc, &mut ids, &mut skipped).is_some());
            prop_assert!(decodes(&ids, &a.sets), "frozen pass");
            // The lazy pass: unbounded, and starved so that it overflows
            // mid-document (a `None` the engine answers with the NFA).
            for cap in [DenseConfig::default().max_cache_states, 1, 2] {
                let d = DenseEvsa::compile(e.clone(), DenseConfig { max_cache_states: cap });
                for skip_loop in [false, true] {
                    let mut dfa = LazyDfa::default();
                    let mut lazy = Lazy { dense: &d, dfa: &mut dfa, cap, skip_loop };
                    match viability_pass(&mut lazy, &doc, &mut ids, &mut skipped) {
                        Some(()) => prop_assert!(decodes(&ids, &dfa.sets), "lazy pass, cap {cap}, skip {skip_loop}"),
                        None => prop_assert!(cap <= 2, "only a starved cache overflows"),
                    }
                    let mut cache = DenseCache::default();
                    prop_assert_eq!(d.eval_scan(&doc, &mut cache, skip_loop), eval_evsa(&e, &doc));
                }
            }
        }
    }
}
