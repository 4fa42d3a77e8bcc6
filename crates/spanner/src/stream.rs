//! Incremental (streaming) splitter simulation.
//!
//! [`crate::dense`] evaluates a splitter *per document*: its backward
//! viability pass reads the whole document before the forward pass can
//! enumerate a single span. That is the right shape for batch corpora,
//! but it forces the caller to materialize every document in memory. This
//! module provides the complementary *forward-only* engine behind
//! streaming execution (`splitc-exec`'s `StreamingSplitter`): a
//! [`SplitterState`] consumes a document **chunk by chunk** and emits
//! split segments incrementally, with memory proportional to the
//! unresolved window of the stream rather than to the document.
//!
//! # Algorithm
//!
//! A splitter is a unary spanner, so every accepting run of its
//! block-normal-form automaton ([`crate::evsa`]) passes through three
//! phases: *before* the split variable opens, *inside* the span, and
//! *after* it closes. The stream state maintains one NFA frontier
//! (set of automaton states) per phase instance:
//!
//! * one **before** frontier (runs that have not opened yet),
//! * one **inside** frontier per candidate open position still alive,
//! * one **after** frontier per closed-but-unconfirmed candidate span.
//!
//! Spanner semantics accept only at document end, so a closed candidate
//! `[i, j⟩` is *confirmed* — proven to be in the output for **every**
//! possible continuation of the stream — as soon as its after-frontier
//! becomes *universal* (all suffixes accepted). Candidates whose
//! after-frontier dies are dropped; the rest resolve when
//! [`SplitterState::finish`] applies the final blocks.
//!
//! [`StreamTables::compile`] **determinizes the three phase automata
//! eagerly** (within a power-set budget), precomputing per-phase DFA
//! transition rows, emptiness, end-of-document acceptance, and
//! universality per DFA state — so the per-byte stepping cost is a
//! handful of array lookups, competitive with the dense engine's lazy
//! DFA. Splitters whose phase power-sets exceed the budget fall back to
//! exact on-line NFA frontier simulation with memoized universality
//! checks; results are identical either way (the test suite runs both
//! paths differentially).
//!
//! Confirmed spans are released in ascending `(start, end)` order — the
//! exact order of [`crate::splitter::CompiledSplitter::split`] — by
//! holding a confirmed span back until no candidate with a smaller start
//! can still appear. For the built-in disjoint splitters (sentences,
//! lines, paragraphs) confirmation happens at the delimiter byte, so the
//! buffered window is a single segment; overlapping splitters (N-grams,
//! character windows) buffer at most their window depth. A splitter
//! whose post-split language is not universal (e.g. `x{a*}b*`) cannot be
//! confirmed before end of stream — such splitters still stream
//! correctly but degenerate to whole-document buffering; see
//! [`SplitterState::low_watermark`] for the contract the execution layer
//! uses to bound its byte buffer.

use crate::dense::to_csr;
use crate::evsa::EVsa;
use crate::span::Span;
use splitc_automata::classes::{ByteClassBuilder, ByteClasses};
use splitc_automata::nfa::StateId;
use splitc_automata::scan::ByteFinder;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Default power-set budget of the eager phase-DFA construction, shared
/// across the three phases. Realistic splitters determinize to a few
/// dozen sets; a splitter exceeding the budget streams via the exact
/// set-based fallback instead (same results, slower per byte).
const DEFAULT_DFA_BUDGET: usize = 4096;

/// Upper bound on power-set states explored per universality query in
/// the set-based fallback. Queries that exceed it are conservatively
/// answered "not universal", which only delays emission until
/// [`SplitterState::finish`] — results are unaffected.
const MAX_UNIVERSALITY_SETS: usize = 4096;

/// One successor table per `(state, class)` pair: CSR target lists for
/// arbitrary automata, plus a per-entry `u64` successor bitmask fast
/// path when the automaton fits in one bitset word.
#[derive(Debug)]
struct PhaseTable {
    off: Vec<u32>,
    pool: Vec<StateId>,
    /// `mask[q * nc + c]` = bitmask of successors; empty when the
    /// automaton has more than 64 states.
    mask: Vec<u64>,
}

impl PhaseTable {
    #[inline]
    fn targets(&self, base: usize) -> &[StateId] {
        &self.pool[self.off[base] as usize..self.off[base + 1] as usize]
    }
}

/// The three determinized phase automata (see the [module docs](self)).
/// DFA state id 0 is always the empty (dead) frontier.
#[derive(Debug)]
struct PhaseDfas {
    /// `before_next[id * nc + c]` → before-DFA successor.
    before_next: Vec<u32>,
    /// Inside-DFA state entered by opening at this byte (0 = no open).
    before_open: Vec<u32>,
    /// After-DFA state entered by an open+close block (empty span).
    before_oc: Vec<u32>,
    inside_next: Vec<u32>,
    /// After-DFA state entered by closing before this byte (0 = none).
    inside_close: Vec<u32>,
    after_next: Vec<u32>,
    /// Whether the before frontier accepts via an `x⊢ ⊣x` final block.
    before_oc_at_end: Vec<bool>,
    /// Whether the inside frontier accepts via a `⊣x` final block.
    inside_close_at_end: Vec<bool>,
    /// Whether the after frontier accepts via an empty final block.
    after_accepting: Vec<bool>,
    /// Whether every continuation is accepted from this after frontier.
    after_universal: Vec<bool>,
    /// The before-DFA state of the automaton's start frontier.
    before_start: u32,
    /// Skip-loop table: per before state, a SWAR finder for the bytes
    /// that change anything (leave the state, open a span, or emit an
    /// empty span). When the stream has no pending or unreleased
    /// candidates, runs of non-escape bytes are jumped by the scanner
    /// instead of stepped — the streaming counterpart of the dense
    /// engine's skip-loop. `None` = the state escapes on too much of the
    /// alphabet for skipping to pay.
    before_skip: Vec<Option<ByteFinder>>,
    /// Whether the before state is Moore-equivalent to `before_start`:
    /// identical `(open, oc)` outputs on every class, identical
    /// end-of-input acceptance, and equivalent successors. From such a
    /// state the continuation segmentation is the same function of the
    /// remaining bytes as a fresh stream's — the relaxed quiescence
    /// test of [`SplitterState::is_quiescent`]. (Checking `id ==
    /// before_start` alone is too strict: the subset construction
    /// routinely lands in start-equivalent states with different ids
    /// after consuming bytes.)
    before_like_start: Vec<bool>,
}

/// Precompiled stepping structures of a unary splitter: byte classes,
/// per-`(state, class)` phase tables (NFA-level), and — when the budget
/// allows — the eager phase DFAs. Built once per compiled splitter
/// ([`crate::splitter::CompiledSplitter::stream`] hands out
/// [`SplitterState`]s sharing one table).
#[derive(Debug)]
pub struct StreamTables {
    classes: ByteClasses,
    /// Number of byte classes.
    nc: usize,
    /// Bitset words per frontier.
    words: usize,
    start: StateId,
    /// Successors on transitions whose block performs no operation.
    plain: PhaseTable,
    /// Successors on blocks performing `x⊢` (the byte starts the span).
    open: PhaseTable,
    /// Successors on blocks performing `⊣x` (the byte follows the span).
    close: PhaseTable,
    /// Successors on blocks performing both (empty span before the byte).
    open_close: PhaseTable,
    /// States accepting at document end with an empty final block.
    final_plain: Box<[u64]>,
    /// States accepting at document end with a `⊣x` final block.
    final_close: Box<[u64]>,
    /// States accepting at document end with an `x⊢ ⊣x` final block.
    final_open_close: Box<[u64]>,
    /// Eager phase DFAs; `None` when the power-set budget was exceeded
    /// (streams then use the set-based fallback).
    dfas: Option<PhaseDfas>,
}

impl StreamTables {
    /// Compiles stepping tables for a **unary** block-normal-form
    /// automaton with the default phase-DFA budget. Panics when the
    /// automaton is not unary (splitters are validated at
    /// [`crate::splitter::Splitter::new`]).
    pub fn compile(evsa: &EVsa) -> StreamTables {
        Self::compile_with_budget(evsa, DEFAULT_DFA_BUDGET)
    }

    /// [`StreamTables::compile`] with an explicit power-set budget for
    /// the eager phase-DFA construction. A budget of 0 disables the
    /// DFAs entirely, forcing the exact set-based fallback — useful for
    /// differential testing; results are identical on both paths.
    pub fn compile_with_budget(evsa: &EVsa, budget: usize) -> StreamTables {
        assert_eq!(
            evsa.vars().len(),
            1,
            "streaming simulation is defined for unary splitters"
        );
        let ns = evsa.num_states();
        let mut builder = ByteClassBuilder::new();
        for m in evsa.byte_masks() {
            builder.add_set(|b| m.contains(b));
        }
        let classes = builder.build();
        let nc = classes.num_classes();
        let reps = classes.representatives();
        let words = ns.div_ceil(64).max(1);

        let mut plain: Vec<Vec<StateId>> = vec![Vec::new(); ns * nc];
        let mut open: Vec<Vec<StateId>> = vec![Vec::new(); ns * nc];
        let mut close: Vec<Vec<StateId>> = vec![Vec::new(); ns * nc];
        let mut open_close: Vec<Vec<StateId>> = vec![Vec::new(); ns * nc];
        for q in 0..ns {
            for (block, mask, r) in evsa.transitions_from(q as StateId) {
                let opens = block.iter().any(|op| op.is_open());
                let closes = block.iter().any(|op| !op.is_open());
                let table = match (opens, closes) {
                    (false, false) => &mut plain,
                    (true, false) => &mut open,
                    (false, true) => &mut close,
                    (true, true) => &mut open_close,
                };
                for (c, &rep) in reps.iter().enumerate() {
                    if mask.contains(rep) {
                        table[q * nc + c].push(*r);
                    }
                }
            }
        }
        for t in [&mut plain, &mut open, &mut close, &mut open_close] {
            for v in t.iter_mut() {
                v.sort_unstable();
                v.dedup();
            }
        }

        let mut final_plain = vec![0u64; words].into_boxed_slice();
        let mut final_close = vec![0u64; words].into_boxed_slice();
        let mut final_open_close = vec![0u64; words].into_boxed_slice();
        for q in 0..ns {
            for block in evsa.final_blocks(q as StateId) {
                let opens = block.iter().any(|op| op.is_open());
                let closes = block.iter().any(|op| !op.is_open());
                let set = match (opens, closes) {
                    (false, false) => &mut final_plain,
                    (false, true) => &mut final_close,
                    (true, true) => &mut final_open_close,
                    // An open without a close at document end cannot
                    // belong to a valid run of a functional automaton.
                    (true, false) => continue,
                };
                set[q >> 6] |= 1u64 << (q & 63);
            }
        }

        let mk = |t: Vec<Vec<StateId>>| {
            let mask = if ns <= 64 {
                t.iter()
                    .map(|v| v.iter().fold(0u64, |m, &q| m | (1u64 << q)))
                    .collect()
            } else {
                Vec::new()
            };
            let (off, pool) = to_csr(t);
            PhaseTable { off, pool, mask }
        };
        let mut tables = StreamTables {
            classes,
            nc,
            words,
            start: evsa.start(),
            plain: mk(plain),
            open: mk(open),
            close: mk(close),
            open_close: mk(open_close),
            final_plain,
            final_close,
            final_open_close,
            dfas: None,
        };
        tables.dfas = tables.build_dfas(budget);
        tables
    }

    /// The byte-class partition the tables are indexed by.
    pub fn classes(&self) -> &ByteClasses {
        &self.classes
    }

    /// Whether streams use the eager phase DFAs (`false`: the set-based
    /// fallback, either because the budget was exceeded or explicitly 0).
    pub fn uses_phase_dfas(&self) -> bool {
        self.dfas.is_some()
    }

    /// ORs the successors of every state in `set` under `table` on byte
    /// class `c` into `out`.
    fn step_into(&self, table: &PhaseTable, set: &[u64], c: usize, out: &mut [u64]) {
        if !table.mask.is_empty() {
            // Single-word fast path: one precomputed OR per frontier bit.
            let mut bits = set[0];
            let mut acc = out[0];
            while bits != 0 {
                let q = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                acc |= table.mask[q * self.nc + c];
            }
            out[0] = acc;
            return;
        }
        for (w, &bits) in set.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let q = (w << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                for &t in table.targets(q * self.nc + c) {
                    out[t as usize >> 6] |= 1u64 << (t & 63);
                }
            }
        }
    }

    /// Eagerly determinizes the three phase automata within `budget`
    /// total interned power-set states. Returns `None` when the budget
    /// does not suffice.
    fn build_dfas(&self, budget: usize) -> Option<PhaseDfas> {
        if budget == 0 {
            // The documented off-switch: never build DFAs, not even for
            // automata whose reachable frontier sets all pre-exist.
            return None;
        }
        /// One growing phase DFA during construction.
        struct Dfa {
            ids: HashMap<Vec<u64>, u32>,
            sets: Vec<Vec<u64>>,
        }
        impl Dfa {
            fn new(words: usize) -> Dfa {
                let empty = vec![0u64; words];
                let mut ids = HashMap::new();
                ids.insert(empty.clone(), 0);
                Dfa {
                    ids,
                    sets: vec![empty],
                }
            }
        }
        let mut before = Dfa::new(self.words);
        let mut inside = Dfa::new(self.words);
        let mut after = Dfa::new(self.words);
        let total = |b: &Dfa, i: &Dfa, a: &Dfa| b.sets.len() + i.sets.len() + a.sets.len();

        // Intern helper: returns the id, or None past the budget.
        fn intern(dfa: &mut Dfa, set: Vec<u64>, room: bool) -> Option<u32> {
            if let Some(&id) = dfa.ids.get(&set) {
                return Some(id);
            }
            if !room {
                return None;
            }
            let id = dfa.sets.len() as u32;
            dfa.ids.insert(set.clone(), id);
            dfa.sets.push(set);
            Some(id)
        }

        let mut start_set = vec![0u64; self.words];
        let s = self.start as usize;
        start_set[s >> 6] |= 1u64 << (s & 63);
        let before_start = intern(&mut before, start_set, true)?;

        // Explore the three worklists to fixpoint; rows are filled per
        // discovered id for every class.
        let mut before_next = vec![0u32; before.sets.len() * self.nc];
        let mut before_open = vec![0u32; before.sets.len() * self.nc];
        let mut before_oc = vec![0u32; before.sets.len() * self.nc];
        let mut inside_next = vec![0u32; inside.sets.len() * self.nc];
        let mut inside_close = vec![0u32; inside.sets.len() * self.nc];
        let mut after_next = vec![0u32; after.sets.len() * self.nc];
        let (mut done_b, mut done_i, mut done_a) = (0usize, 0usize, 0usize);
        loop {
            let progressed = done_b < before.sets.len()
                || done_i < inside.sets.len()
                || done_a < after.sets.len();
            if !progressed {
                break;
            }
            while done_b < before.sets.len() {
                let id = done_b;
                done_b += 1;
                before_next.resize(before.sets.len() * self.nc, 0);
                before_open.resize(before.sets.len() * self.nc, 0);
                before_oc.resize(before.sets.len() * self.nc, 0);
                let set = before.sets[id].clone();
                for c in 0..self.nc {
                    let mut nb = vec![0u64; self.words];
                    self.step_into(&self.plain, &set, c, &mut nb);
                    let mut op = vec![0u64; self.words];
                    self.step_into(&self.open, &set, c, &mut op);
                    let mut oc = vec![0u64; self.words];
                    self.step_into(&self.open_close, &set, c, &mut oc);
                    let room = total(&before, &inside, &after) < budget;
                    before_next[id * self.nc + c] = intern(&mut before, nb, room)?;
                    let room = total(&before, &inside, &after) < budget;
                    before_open[id * self.nc + c] = intern(&mut inside, op, room)?;
                    let room = total(&before, &inside, &after) < budget;
                    before_oc[id * self.nc + c] = intern(&mut after, oc, room)?;
                }
            }
            while done_i < inside.sets.len() {
                let id = done_i;
                done_i += 1;
                inside_next.resize(inside.sets.len() * self.nc, 0);
                inside_close.resize(inside.sets.len() * self.nc, 0);
                let set = inside.sets[id].clone();
                for c in 0..self.nc {
                    let mut ni = vec![0u64; self.words];
                    self.step_into(&self.plain, &set, c, &mut ni);
                    let mut cl = vec![0u64; self.words];
                    self.step_into(&self.close, &set, c, &mut cl);
                    let room = total(&before, &inside, &after) < budget;
                    inside_next[id * self.nc + c] = intern(&mut inside, ni, room)?;
                    let room = total(&before, &inside, &after) < budget;
                    inside_close[id * self.nc + c] = intern(&mut after, cl, room)?;
                }
            }
            while done_a < after.sets.len() {
                let id = done_a;
                done_a += 1;
                after_next.resize(after.sets.len() * self.nc, 0);
                let set = after.sets[id].clone();
                for c in 0..self.nc {
                    let mut na = vec![0u64; self.words];
                    self.step_into(&self.plain, &set, c, &mut na);
                    let room = total(&before, &inside, &after) < budget;
                    after_next[id * self.nc + c] = intern(&mut after, na, room)?;
                }
            }
        }
        // Rows may have been resized past the final set counts; trim.
        before_next.truncate(before.sets.len() * self.nc);
        before_open.truncate(before.sets.len() * self.nc);
        before_oc.truncate(before.sets.len() * self.nc);
        inside_next.truncate(inside.sets.len() * self.nc);
        inside_close.truncate(inside.sets.len() * self.nc);
        after_next.truncate(after.sets.len() * self.nc);

        let flag = |sets: &[Vec<u64>], finals: &[u64]| -> Vec<bool> {
            sets.iter().map(|s| intersects(s, finals)).collect()
        };
        let before_oc_at_end = flag(&before.sets, &self.final_open_close);
        let inside_close_at_end = flag(&inside.sets, &self.final_close);
        let after_accepting = flag(&after.sets, &self.final_plain);

        // Universality per after id: an id is non-universal iff it can
        // reach a non-accepting id (including itself). Reverse BFS from
        // the non-accepting ids over the after-DFA edges.
        let n_after = after.sets.len();
        let mut rev: Vec<Vec<u32>> = vec![Vec::new(); n_after];
        for id in 0..n_after {
            for c in 0..self.nc {
                rev[after_next[id * self.nc + c] as usize].push(id as u32);
            }
        }
        let mut non_universal = vec![false; n_after];
        let mut queue: Vec<u32> = (0..n_after as u32)
            .filter(|&id| !after_accepting[id as usize])
            .collect();
        for &id in &queue {
            non_universal[id as usize] = true;
        }
        while let Some(id) = queue.pop() {
            for &p in &rev[id as usize] {
                if !non_universal[p as usize] {
                    non_universal[p as usize] = true;
                    queue.push(p);
                }
            }
        }
        let after_universal = non_universal.iter().map(|&b| !b).collect();

        // Skip-loop table (see the field docs on [`PhaseDfas`]). A byte
        // class is *inert* for a before state when it neither leaves the
        // state nor opens a span nor emits an empty span; only the
        // complement — the escape bytes — needs scanning for. The dead
        // state 0 is inert on everything: once the before frontier dies
        // with nothing unresolved, whole chunks are skipped.
        let n_before = before.sets.len();
        let mut before_skip: Vec<Option<ByteFinder>> = Vec::with_capacity(n_before);
        for id in 0..n_before {
            let mut escape = [false; 256];
            for c in 0..self.nc {
                let at = id * self.nc + c;
                let inert =
                    before_next[at] == id as u32 && before_open[at] == 0 && before_oc[at] == 0;
                if !inert {
                    for b in self.classes.bytes_of(c) {
                        escape[b as usize] = true;
                    }
                }
            }
            let escapes = escape.iter().filter(|&&e| e).count();
            before_skip.push(if escapes <= 128 {
                Some(ByteFinder::from_predicate(|b| escape[b as usize]))
            } else {
                None
            });
        }

        // Start-equivalence for the quiescence probe: partition the
        // before-DFA by Moore refinement, where a state's output is its
        // `(open, oc)` action pair on every class plus its end-of-input
        // acceptance, and two states stay merged only if their
        // successors stay merged. Bisimilar states yield identical
        // segmentations on every suffix, so any state in the start
        // state's block is a sound resplit frontier.
        let mut block = vec![0u32; n_before];
        {
            let mut ids: HashMap<Vec<u32>, u32> = HashMap::new();
            for q in 0..n_before {
                let mut sig: Vec<u32> = Vec::with_capacity(2 * self.nc + 1);
                sig.push(before_oc_at_end[q] as u32);
                for c in 0..self.nc {
                    sig.push(before_open[q * self.nc + c]);
                    sig.push(before_oc[q * self.nc + c]);
                }
                let fresh = ids.len() as u32;
                block[q] = *ids.entry(sig).or_insert(fresh);
            }
            loop {
                let mut ids: HashMap<Vec<u32>, u32> = HashMap::new();
                let mut next_block = vec![0u32; n_before];
                for q in 0..n_before {
                    let mut sig: Vec<u32> = Vec::with_capacity(self.nc + 1);
                    sig.push(block[q]);
                    for c in 0..self.nc {
                        sig.push(block[before_next[q * self.nc + c] as usize]);
                    }
                    let fresh = ids.len() as u32;
                    next_block[q] = *ids.entry(sig).or_insert(fresh);
                }
                if next_block == block {
                    break;
                }
                block = next_block;
            }
        }
        let start_block = block[before_start as usize];
        let before_like_start: Vec<bool> = block.iter().map(|&b| b == start_block).collect();

        Some(PhaseDfas {
            before_next,
            before_open,
            before_oc,
            inside_next,
            inside_close,
            after_next,
            before_oc_at_end,
            inside_close_at_end,
            after_accepting,
            after_universal,
            before_start,
            before_skip,
            before_like_start,
        })
    }
}

#[inline]
fn is_zero(set: &[u64]) -> bool {
    set.iter().all(|&w| w == 0)
}

#[inline]
fn intersects(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b.iter()).any(|(x, y)| x & y != 0)
}

/// A closed-but-unreleased candidate span in DFA mode.
#[derive(Debug, Clone)]
struct DfaCandidate {
    span: Span,
    /// After-DFA state; meaningless once `confirmed`.
    after: u32,
    confirmed: bool,
}

/// A closed-but-unreleased candidate span in set mode.
#[derive(Debug, Clone)]
struct SetCandidate {
    span: Span,
    /// After-phase frontier; meaningless once `confirmed`.
    states: Vec<u64>,
    confirmed: bool,
}

/// DFA-mode runtime state: everything is a `u32` phase-DFA id.
#[derive(Debug, Clone)]
struct DfaState {
    before: u32,
    /// `(open position, inside-DFA id)`, ascending positions.
    pending: Vec<(usize, u32)>,
    /// Sorted by `(start, end)`.
    candidates: Vec<DfaCandidate>,
}

/// Set-mode (fallback) runtime state: exact NFA frontiers.
#[derive(Debug, Clone)]
struct SetState {
    before: Vec<u64>,
    pending: Vec<(usize, Vec<u64>)>,
    candidates: Vec<SetCandidate>,
    /// Memoized universality verdicts per after-phase frontier.
    universal: HashMap<Vec<u64>, bool>,
    /// Scratch frontiers reused across steps.
    scratch: Vec<u64>,
    open_buf: Vec<u64>,
    close_buf: Vec<u64>,
}

#[derive(Debug, Clone)]
enum Mode {
    Dfa(DfaState),
    Sets(SetState),
}

/// Incremental splitter execution state: feed document bytes with
/// [`SplitterState::push`], collect emitted split spans (ascending
/// `(start, end)`, exactly the spans of the batch splitter), and call
/// [`SplitterState::finish`] at end of stream. Obtain one per stream via
/// [`crate::splitter::CompiledSplitter::stream`]; the precompiled
/// [`StreamTables`] are shared, the per-stream state is not.
#[derive(Debug, Clone)]
pub struct SplitterState {
    t: Arc<StreamTables>,
    /// Bytes consumed so far (= the stream offset of the next byte).
    pos: usize,
    /// Bytes consumed by the skip-loop scanner instead of DFA steps.
    skipped: u64,
    /// Largest position observed quiescent so far (see
    /// [`SplitterState::last_quiescent`]). 0 — the fresh start — is
    /// trivially quiescent.
    quiet: usize,
    /// Emitted spans not yet drained by the caller.
    out: Vec<Span>,
    mode: Mode,
}

impl SplitterState {
    /// Starts a stream at offset 0.
    pub fn new(tables: Arc<StreamTables>) -> SplitterState {
        let words = tables.words;
        let mode = match &tables.dfas {
            Some(d) => Mode::Dfa(DfaState {
                before: d.before_start,
                pending: Vec::new(),
                candidates: Vec::new(),
            }),
            None => {
                let mut before = vec![0u64; words];
                let s = tables.start as usize;
                before[s >> 6] |= 1u64 << (s & 63);
                Mode::Sets(SetState {
                    before,
                    pending: Vec::new(),
                    candidates: Vec::new(),
                    universal: HashMap::new(),
                    scratch: vec![0u64; words],
                    open_buf: vec![0u64; words],
                    close_buf: vec![0u64; words],
                })
            }
        };
        SplitterState {
            t: tables,
            pos: 0,
            skipped: 0,
            quiet: 0,
            out: Vec::new(),
            mode,
        }
    }

    /// Number of bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes consumed by the skip-loop scanner instead of phase-DFA
    /// steps (0 in set-fallback mode, which always steps exactly).
    pub fn bytes_skipped(&self) -> u64 {
        self.skipped
    }

    /// Number of unresolved candidate segments (open or closed but not
    /// yet released).
    pub fn pending_segments(&self) -> usize {
        match &self.mode {
            Mode::Dfa(d) => d.pending.len() + d.candidates.len(),
            Mode::Sets(s) => s.pending.len() + s.candidates.len(),
        }
    }

    /// The smallest stream offset any unresolved candidate still refers
    /// to (`pos()` when nothing is unresolved). Bytes before the low
    /// watermark can never appear in a future emitted span, so a
    /// streaming caller may discard them — this is what bounds the byte
    /// buffer of the execution layer's `StreamingSplitter`.
    pub fn low_watermark(&self) -> usize {
        let (p, c) = match &self.mode {
            Mode::Dfa(d) => (
                d.pending.first().map(|(i, _)| *i),
                d.candidates.first().map(|c| c.span.start),
            ),
            Mode::Sets(s) => (
                s.pending.first().map(|(i, _)| *i),
                s.candidates.first().map(|c| c.span.start),
            ),
        };
        self.pos
            .min(p.unwrap_or(usize::MAX))
            .min(c.unwrap_or(usize::MAX))
    }

    /// True when the stream state is **quiescent**: every emitted span
    /// has been drained, nothing is pending or unresolved, and the
    /// before-phase simulation sits in exactly its start configuration.
    /// From a quiescent position the continuation is the same function
    /// of the remaining bytes as a fresh stream's (shifted by the
    /// offset) — which makes quiescent positions the *stable resplit
    /// frontiers* of the incremental corpus-maintenance layer: an edit
    /// strictly between two quiescent positions can only change the
    /// segments between them.
    pub fn is_quiescent(&self) -> bool {
        if !self.out.is_empty() {
            return false;
        }
        match &self.mode {
            Mode::Dfa(d) => {
                let dfas = self.t.dfas.as_ref().expect("DFA mode has tables");
                d.pending.is_empty()
                    && d.candidates.is_empty()
                    && dfas.before_like_start[d.before as usize]
            }
            Mode::Sets(s) => {
                if !s.pending.is_empty() || !s.candidates.is_empty() {
                    return false;
                }
                let start = self.t.start as usize;
                s.before.iter().enumerate().all(|(w, &bits)| {
                    let expect = if w == start >> 6 {
                        1u64 << (start & 63)
                    } else {
                        0
                    };
                    bits == expect
                })
            }
        }
    }

    /// The largest stream position observed quiescent so far (0 — the
    /// fresh start — counts). Unlike [`SplitterState::is_quiescent`],
    /// which answers only for the *current* position, this is tracked
    /// byte by byte while stepping, so quiescent positions strictly
    /// inside a pushed chunk are found too — for delimiter-based
    /// splitters those are exactly the just-past-a-delimiter positions,
    /// which almost never coincide with chunk boundaries. The
    /// incremental corpus layer records these as its stable resplit
    /// frontiers.
    pub fn last_quiescent(&self) -> usize {
        self.quiet
    }

    /// Consumes a chunk of the document and returns the split spans
    /// (absolute stream offsets) that became releasable, in ascending
    /// `(start, end)` order across the whole stream.
    ///
    /// In DFA mode, whenever nothing is unresolved (no pending opens, no
    /// unreleased candidates) and the before state is inert on most
    /// bytes, the scanner jumps straight to the next escape byte —
    /// skipped positions provably change nothing, so emitted spans and
    /// [`SplitterState::low_watermark`] stay exactly as in the stepped
    /// simulation (skipped bytes fall below the watermark immediately,
    /// composing with the execution layer's chunk-boundary buffering).
    pub fn push(&mut self, chunk: &[u8]) -> Vec<Span> {
        if matches!(self.mode, Mode::Sets(_)) {
            for &b in chunk {
                self.step_sets(b);
            }
            return std::mem::take(&mut self.out);
        }
        let mut i = 0;
        while i < chunk.len() {
            let jump = match (&self.mode, self.t.dfas.as_ref()) {
                (Mode::Dfa(d), Some(dfas)) if d.pending.is_empty() && d.candidates.is_empty() => {
                    let like = dfas.before_like_start[d.before as usize];
                    dfas.before_skip[d.before as usize]
                        .as_ref()
                        .map(|f| (f.find(&chunk[i..]), like))
                }
                _ => None,
            };
            if let Some((hit, like)) = jump {
                // Jump over the inert run (possibly the whole chunk).
                let j = hit.unwrap_or(chunk.len() - i);
                self.pos += j;
                self.skipped += j as u64;
                i += j;
                if like {
                    // Inert run from a start-like state with nothing
                    // unresolved: every position in it is quiescent.
                    self.quiet = self.pos;
                }
                if i >= chunk.len() {
                    break;
                }
            }
            self.step_dfa(chunk[i]);
            i += 1;
        }
        std::mem::take(&mut self.out)
    }

    /// Ends the stream: applies the automaton's final blocks, resolving
    /// every remaining candidate, and returns the last spans.
    pub fn finish(mut self) -> Vec<Span> {
        let n = self.pos;
        let t = Arc::clone(&self.t);
        let mut spans: Vec<Span> = Vec::new();
        match &mut self.mode {
            Mode::Dfa(d) => {
                let dfas = t.dfas.as_ref().expect("DFA mode has tables");
                for (i, id) in d.pending.drain(..) {
                    if dfas.inside_close_at_end[id as usize] {
                        spans.push(Span::new(i, n));
                    }
                }
                if dfas.before_oc_at_end[d.before as usize] {
                    spans.push(Span::new(n, n));
                }
                for c in d.candidates.drain(..) {
                    if c.confirmed || dfas.after_accepting[c.after as usize] {
                        spans.push(c.span);
                    }
                }
            }
            Mode::Sets(s) => {
                for (i, set) in s.pending.drain(..) {
                    if intersects(&set, &t.final_close) {
                        spans.push(Span::new(i, n));
                    }
                }
                if intersects(&s.before, &t.final_open_close) {
                    spans.push(Span::new(n, n));
                }
                for c in s.candidates.drain(..) {
                    if c.confirmed || intersects(&c.states, &t.final_plain) {
                        spans.push(c.span);
                    }
                }
            }
        }
        spans.sort_unstable();
        spans.dedup();
        let mut out = std::mem::take(&mut self.out);
        out.extend(spans);
        out
    }

    /// One byte in DFA mode: array lookups only.
    fn step_dfa(&mut self, b: u8) {
        let t = &self.t;
        let dfas = t.dfas.as_ref().expect("DFA mode has tables");
        let nc = t.nc;
        let c = t.classes.class_of(b);
        let p = self.pos;
        let Mode::Dfa(d) = &mut self.mode else {
            unreachable!("mode checked by caller");
        };

        // After-phase candidates.
        let mut i = 0;
        while i < d.candidates.len() {
            let cand = &mut d.candidates[i];
            if !cand.confirmed {
                let next = dfas.after_next[cand.after as usize * nc + c];
                if next == 0 {
                    d.candidates.remove(i);
                    continue;
                }
                cand.after = next;
                cand.confirmed = dfas.after_universal[next as usize];
            }
            i += 1;
        }

        // Inside-phase frontiers: close into candidates `[i, p⟩`, stay
        // inside on plain transitions.
        let mut new_candidates: Vec<(Span, u32)> = Vec::new();
        let mut k = 0;
        while k < d.pending.len() {
            let (start, id) = d.pending[k];
            let closed = dfas.inside_close[id as usize * nc + c];
            if closed != 0 {
                new_candidates.push((Span::new(start, p), closed));
            }
            let next = dfas.inside_next[id as usize * nc + c];
            if next == 0 {
                d.pending.remove(k);
            } else {
                d.pending[k].1 = next;
                k += 1;
            }
        }

        // Before-phase frontier: open at p / empty span at p / stay.
        let opened = dfas.before_open[d.before as usize * nc + c];
        let oc = dfas.before_oc[d.before as usize * nc + c];
        if oc != 0 {
            new_candidates.push((Span::new(p, p), oc));
        }
        d.before = dfas.before_next[d.before as usize * nc + c];
        if opened != 0 {
            d.pending.push((p, opened));
        }

        for (span, after) in new_candidates {
            let confirmed = dfas.after_universal[after as usize];
            let at = d
                .candidates
                .binary_search_by_key(&(span.start, span.end), |c| (c.span.start, c.span.end))
                .unwrap_err();
            d.candidates.insert(
                at,
                DfaCandidate {
                    span,
                    after,
                    confirmed,
                },
            );
        }

        self.pos = p + 1;
        // Release confirmed candidates in sorted order while no pending
        // open with a smaller start can still produce an earlier span.
        while let Some(front) = d.candidates.first() {
            if !front.confirmed {
                break;
            }
            if d.pending
                .first()
                .is_some_and(|(i, _)| *i < front.span.start)
            {
                break;
            }
            self.out.push(d.candidates.remove(0).span);
        }
        if d.pending.is_empty()
            && d.candidates.is_empty()
            && dfas.before_like_start[d.before as usize]
        {
            self.quiet = self.pos;
        }
    }

    /// One byte in set mode: exact NFA frontier stepping. Allocation-free
    /// except when a new candidate span is created.
    fn step_sets(&mut self, b: u8) {
        let t = Arc::clone(&self.t);
        let c = t.classes.class_of(b);
        let p = self.pos;
        let Mode::Sets(s) = &mut self.mode else {
            unreachable!("mode checked by caller");
        };

        // After-phase candidates advance on operation-free transitions.
        let mut any_unconfirmed = false;
        for cand in &mut s.candidates {
            if cand.confirmed {
                continue;
            }
            any_unconfirmed = true;
            s.scratch.iter_mut().for_each(|w| *w = 0);
            t.step_into(&t.plain, &cand.states, c, &mut s.scratch);
            std::mem::swap(&mut cand.states, &mut s.scratch);
        }
        if any_unconfirmed {
            s.candidates.retain(|c| c.confirmed || !is_zero(&c.states));
        }

        // Inside-phase frontiers stay inside on plain transitions and
        // close into new candidates [i, p⟩ (the close op precedes the
        // byte, so byte `p` is outside the span).
        let mut new_candidates: Vec<(Span, Vec<u64>)> = Vec::new();
        for idx in 0..s.pending.len() {
            let (i, ref set) = s.pending[idx];
            s.close_buf.iter_mut().for_each(|w| *w = 0);
            t.step_into(&t.close, set, c, &mut s.close_buf);
            if !is_zero(&s.close_buf) {
                new_candidates.push((Span::new(i, p), s.close_buf.clone()));
            }
            s.scratch.iter_mut().for_each(|w| *w = 0);
            t.step_into(&t.plain, set, c, &mut s.scratch);
            std::mem::swap(&mut s.pending[idx].1, &mut s.scratch);
        }
        s.pending.retain(|(_, set)| !is_zero(set));

        // Before-phase frontier: stay before, open at p, or emit the
        // empty span [p, p⟩ via an open+close block.
        s.open_buf.iter_mut().for_each(|w| *w = 0);
        t.step_into(&t.open, &s.before, c, &mut s.open_buf);
        s.close_buf.iter_mut().for_each(|w| *w = 0);
        t.step_into(&t.open_close, &s.before, c, &mut s.close_buf);
        if !is_zero(&s.close_buf) {
            new_candidates.push((Span::new(p, p), s.close_buf.clone()));
        }
        s.scratch.iter_mut().for_each(|w| *w = 0);
        t.step_into(&t.plain, &s.before, c, &mut s.scratch);
        std::mem::swap(&mut s.before, &mut s.scratch);
        if !is_zero(&s.open_buf) {
            s.pending.push((p, s.open_buf.clone()));
        }

        for (span, states) in new_candidates {
            let confirmed = check_universal(&t, &mut s.universal, &states);
            insert_set_candidate(&t, s, span, states, confirmed);
        }
        // Unconfirmed survivors may have stepped into a universal
        // frontier; re-check (memoized, so this is a hash lookup in the
        // common case).
        if any_unconfirmed {
            for idx in 0..s.candidates.len() {
                if !s.candidates[idx].confirmed {
                    s.candidates[idx].confirmed =
                        check_universal(&t, &mut s.universal, &s.candidates[idx].states);
                }
            }
        }

        self.pos = p + 1;
        while let Some(front) = s.candidates.first() {
            if !front.confirmed {
                break;
            }
            if s.pending
                .first()
                .is_some_and(|(i, _)| *i < front.span.start)
            {
                break;
            }
            self.out.push(s.candidates.remove(0).span);
        }
        if s.pending.is_empty() && s.candidates.is_empty() {
            let start = t.start as usize;
            let at_start = s.before.iter().enumerate().all(|(w, &bits)| {
                let expect = if w == start >> 6 {
                    1u64 << (start & 63)
                } else {
                    0
                };
                bits == expect
            });
            if at_start {
                self.quiet = self.pos;
            }
        }
    }
}

/// Inserts a set-mode candidate keeping `(start, end)` order, merging
/// frontiers when the same span is produced by several runs.
fn insert_set_candidate(
    t: &StreamTables,
    s: &mut SetState,
    span: Span,
    states: Vec<u64>,
    confirmed: bool,
) {
    match s
        .candidates
        .binary_search_by_key(&(span.start, span.end), |c| (c.span.start, c.span.end))
    {
        Ok(i) => {
            let c = &mut s.candidates[i];
            c.confirmed = c.confirmed || confirmed;
            if !c.confirmed {
                for (w, x) in c.states.iter_mut().zip(states.iter()) {
                    *w |= x;
                }
                let merged = c.states.clone();
                s.candidates[i].confirmed = check_universal(t, &mut s.universal, &merged);
            }
        }
        Err(i) => s.candidates.insert(
            i,
            SetCandidate {
                span,
                states,
                confirmed,
            },
        ),
    }
}

/// Whether every continuation of the stream is accepted from the
/// after-phase frontier `set`: BFS over the power-set automaton
/// restricted to operation-free transitions, requiring every reachable
/// frontier (including `set`) to intersect the empty-block finals.
/// Memoized; exploration is capped at [`MAX_UNIVERSALITY_SETS`] (cap hit
/// ⇒ conservative `false`).
fn check_universal(t: &StreamTables, memo: &mut HashMap<Vec<u64>, bool>, set: &[u64]) -> bool {
    if let Some(&v) = memo.get(set) {
        return v;
    }
    let mut visited: Vec<Vec<u64>> = vec![set.to_vec()];
    let mut seen: HashSet<Vec<u64>> = HashSet::new();
    seen.insert(set.to_vec());
    let mut i = 0;
    let mut verdict = true;
    'bfs: while i < visited.len() {
        let cur = visited[i].clone();
        i += 1;
        if !intersects(&cur, &t.final_plain) || memo.get(&cur) == Some(&false) {
            verdict = false;
            break 'bfs;
        }
        if memo.get(&cur) == Some(&true) {
            continue;
        }
        for c in 0..t.nc {
            let mut next = vec![0u64; t.words];
            t.step_into(&t.plain, &cur, c, &mut next);
            if !seen.contains(&next) {
                if visited.len() >= MAX_UNIVERSALITY_SETS {
                    verdict = false;
                    break 'bfs;
                }
                seen.insert(next.clone());
                visited.push(next);
            }
        }
    }
    if verdict {
        // Everything reachable from a universal frontier is itself
        // universal (its reachable sets are a subset).
        for v in visited {
            memo.insert(v, true);
        }
    } else {
        // Only the query frontier is known non-universal; reached
        // frontiers need not be able to reach the failing one.
        memo.insert(set.to_vec(), false);
    }
    memo[set]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splitter::{self, Splitter};
    use crate::vars::VarId;

    /// Splits `doc` through a streaming state with the given chunking
    /// and phase-DFA budget.
    fn stream_split_budget(s: &Splitter, doc: &[u8], chunk: usize, budget: usize) -> Vec<Span> {
        let evsa = {
            let f = if s.vsa().is_functional() {
                s.vsa().trim()
            } else {
                s.vsa().functionalize()
            };
            crate::evsa::EVsa::from_functional(&f)
        };
        let tables = Arc::new(StreamTables::compile_with_budget(&evsa, budget));
        let mut st = SplitterState::new(tables);
        let mut out = Vec::new();
        for piece in doc.chunks(chunk.max(1)) {
            out.extend(st.push(piece));
        }
        out.extend(st.finish());
        out
    }

    /// Splits `doc` through the compiled splitter's streaming state.
    fn stream_split(s: &Splitter, doc: &[u8], chunk: usize) -> Vec<Span> {
        let compiled = s.compile();
        let mut st = compiled.stream();
        let mut out = Vec::new();
        for piece in doc.chunks(chunk.max(1)) {
            out.extend(st.push(piece));
        }
        out.extend(st.finish());
        out
    }

    fn check(s: &Splitter, doc: &[u8]) {
        let batch = s.compile().split(doc);
        for chunk in [1, 2, 3, 5, doc.len().max(1)] {
            assert_eq!(
                stream_split(s, doc, chunk),
                batch,
                "doc {:?} chunk {chunk} (dfa mode)",
                String::from_utf8_lossy(doc)
            );
            // Budget 0 forces the set-based fallback; results must be
            // identical.
            assert_eq!(
                stream_split_budget(s, doc, chunk, 0),
                batch,
                "doc {:?} chunk {chunk} (set mode)",
                String::from_utf8_lossy(doc)
            );
        }
    }

    #[test]
    fn sentences_stream_equals_batch() {
        let s = splitter::sentences();
        for doc in [
            b"Hello world. How are you. Fine".as_slice(),
            b"",
            b"...",
            b"no delimiter at all",
            b"trailing.",
            b".leading",
        ] {
            check(&s, doc);
        }
    }

    #[test]
    fn lines_and_paragraphs_stream() {
        check(&splitter::lines(), b"a b\nc\n\nd\n");
        check(&splitter::paragraphs(), b"p one\nstill one\n\np two");
        check(&splitter::paragraphs(), b"a\n\n\nb\n");
    }

    #[test]
    fn overlapping_splitters_stream() {
        check(&splitter::ngrams(2), b"one two three four");
        check(&splitter::char_windows(3), b"abcdef");
        check(&splitter::ngram_windows(2), b"aa.bb cc");
    }

    #[test]
    fn nested_spans_released_in_sorted_order() {
        // x{abc} | a(x{b})c produces the nested spans [0,3⟩ and [1,2⟩;
        // sorted order requires the outer span first even though the
        // inner one closes earlier.
        let s = Splitter::parse("x{abc}|a(x{b})c").unwrap();
        check(&s, b"abc");
        check(&s, b"abd");
    }

    #[test]
    fn paper_example_5_8_streams() {
        let s = Splitter::parse("x{ab}b|a(x{bb})").unwrap();
        check(&s, b"abb");
        check(&s, b"abab");
    }

    #[test]
    fn empty_spans_stream() {
        check(&Splitter::parse("x{aa}|a(x{})a").unwrap(), b"aa");
        check(&Splitter::parse("x{.*}").unwrap(), b"");
        check(&Splitter::parse("x{.*}").unwrap(), b"abc");
    }

    #[test]
    fn non_universal_suffix_resolves_at_finish() {
        // After the close, `b*` does not accept every continuation, so
        // candidates stay buffered until finish — results still match.
        let s = Splitter::parse("x{a*}b*").unwrap();
        check(&s, b"aabb");
        check(&s, b"aaba"); // dies: 'a' after 'b'
        check(&s, b"");
    }

    #[test]
    fn default_budget_compiles_builtins_to_dfas() {
        for s in [
            splitter::sentences(),
            splitter::lines(),
            splitter::paragraphs(),
            splitter::ngrams(2),
        ] {
            let evsa = crate::evsa::EVsa::from_functional(&s.vsa().trim());
            let t = StreamTables::compile(&evsa);
            assert!(t.uses_phase_dfas(), "builtin splitter within budget");
            let off = StreamTables::compile_with_budget(&evsa, 0);
            assert!(!off.uses_phase_dfas(), "budget 0 must disable DFAs");
        }
    }

    #[test]
    fn skip_loop_streams_sparse_splitters_exactly() {
        // Spans open only after a 'q'; everything before is inert, so
        // the scanner jumps it. Results must match batch splitting for
        // every chunking, and skipped bytes must be substantial.
        let s = Splitter::parse(".*q(x{a+})(q.*)?").unwrap();
        let mut doc = vec![b'b'; 512];
        doc.extend_from_slice(b"qaaa");
        doc.extend(vec![b'b'; 17]);
        check(&s, &doc);
        let compiled = s.compile();
        for chunk in [1usize, 7, 64, doc.len()] {
            let mut st = compiled.stream();
            let mut got = Vec::new();
            for piece in doc.chunks(chunk) {
                got.extend(st.push(piece));
            }
            let skipped = st.bytes_skipped();
            got.extend(st.finish());
            assert_eq!(got, compiled.split(&doc), "chunk {chunk}");
            assert!(
                skipped > 400,
                "scanner should cross the inert prefix (chunk {chunk}): {skipped}"
            );
        }
        // Dense splitters never skip incorrectly either (sentences open
        // everywhere, so pending keeps the loop stepping).
        let mut st = splitter::sentences().compile().stream();
        let _ = st.push(b"aa.bb.cc");
        let _ = st.finish();
    }

    #[test]
    fn dead_before_frontier_skips_whole_chunks() {
        // x{a}b: after a non-matching prefix the before frontier dies
        // with nothing pending; the rest of the stream is jumped.
        let s = Splitter::parse("x{a}b").unwrap();
        let compiled = s.compile();
        let mut st = compiled.stream();
        let mut doc = vec![b'c'];
        doc.extend(vec![b'z'; 100]);
        let mut got = st.push(&doc);
        assert!(st.bytes_skipped() >= 100, "{}", st.bytes_skipped());
        got.extend(st.finish());
        assert_eq!(got, compiled.split(&doc));
    }

    #[test]
    fn low_watermark_bounds_buffering_for_disjoint_splitters() {
        let s = splitter::sentences().compile();
        let mut st = s.stream();
        let doc = b"one one. two two. three three.";
        for (i, &b) in doc.iter().enumerate() {
            let _ = st.push(std::slice::from_ref(&b));
            // The watermark never lags more than the current segment.
            let lag = st.pos() - st.low_watermark();
            assert!(lag <= 12, "lag {lag} at byte {i}");
        }
        assert_eq!(st.pending_segments(), 0);
        assert_eq!(st.finish(), Vec::new());
    }

    #[test]
    fn spans_are_absolute_across_chunks() {
        let s = splitter::sentences().compile();
        let mut st = s.stream();
        let mut got = st.push(b"aa.b");
        got.extend(st.push(b"b.cc"));
        got.extend(st.finish());
        assert_eq!(got, vec![Span::new(0, 2), Span::new(3, 5), Span::new(6, 8)]);
    }

    #[test]
    fn stream_matches_dense_eval_directly() {
        // Belt and braces: the emitted spans equal the dense engine's
        // tuple enumeration, not just the batch splitter wrapper.
        let s = splitter::sentences();
        let c = s.compile();
        let dense = crate::dense::DenseEvsa::compile(
            Arc::new(c.evsa().clone()),
            crate::dense::DenseConfig::default(),
        );
        let doc = b"aa.bb cc.dd";
        let spans: Vec<Span> = dense
            .eval_with(doc, &mut crate::dense::DenseCache::default())
            .iter()
            .map(|t| t.get(VarId(0)))
            .collect();
        assert_eq!(stream_split(&s, doc, 4), spans);
    }
}
