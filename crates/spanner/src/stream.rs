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
//! *after* it closes. [`StreamTables::compile`] **determinizes the three
//! phase automata eagerly, then jointly minimizes them**. The subset
//! construction runs over the automaton's operation-free, opening,
//! closing and open+close transitions. One Moore refinement
//! ([`splitc_automata::dfa::moore_refine`]) then treats the three
//! phases as one state set: a state starts in the block of its phase
//! and end-of-document flag, and its edges are its phase's moves, opens,
//! closes and empty spans per byte class. The quotient is minimal, so
//! its state counts depend on the splitter's spans, not on how its
//! automaton was built. Per DFA state the tables hold transition rows,
//! emptiness (id 0 is dead), end-of-document acceptance, and
//! universality. The stream state holds one phase-DFA state per phase
//! instance:
//!
//! * one **before** state (runs that have not opened yet),
//! * one **inside** state per candidate open position still alive,
//! * one **after** state per closed-but-unconfirmed candidate span.
//!
//! The per-byte stepping cost is a handful of array lookups, competitive
//! with the dense engine's lazy DFA. Spanner semantics accept only at
//! document end, so a closed candidate `[i, j⟩` is *confirmed* — proven
//! to be in the output for **every** possible continuation of the
//! stream — as soon as its after state is *universal* (all suffixes
//! accepted). Candidates whose after state dies are dropped; the rest
//! resolve when [`SplitterState::finish`] applies the final blocks.
//!
//! The subset construction runs under a power-set budget of 4096 sets
//! shared by the three phases, counted before minimization; realistic
//! splitters determinize to a few dozen. A splitter whose phase DFAs
//! exceed it gets no tables
//! ([`StreamTables::compile`] returns `None`) and so no stream
//! ([`crate::splitter::CompiledSplitter::stream`] returns `None`). The
//! execution layer then buffers each document whole, in the one copy it
//! keeps anyway, and splits it with
//! [`crate::splitter::CompiledSplitter::split`]: the same spans, at the
//! batch tier's cost, which stays linear in the document because the
//! forward enumeration expands each pre-capture `(state, position)`
//! once (see [`crate::eval`]). What such a splitter gives up is
//! bounded memory and interior sync points: nothing is emitted before
//! end of stream and only position 0 is quiescent.
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
//!
//! # Skip loop
//!
//! Most bytes change nothing: inside a `sentences` segment, the before
//! state and the one pending open's inside state both stay put on every
//! byte but `.`. [`StreamTables::compile`] precompiles, per pair of a
//! before and an inside state, a SWAR finder for the bytes that move,
//! open, close or emit; while the stream holds no candidate and at most
//! one pending open, [`SplitterState::push`] jumps to the next such byte
//! instead of stepping. A delimiter segment then costs two stepped
//! bytes: its closing delimiter and the opening byte after it (the
//! minimal inside DFA enters its one live state on that byte and stays).
//! Skipped bytes change only the position, so every observable —
//! emitted spans, low watermark, quiescence — is exactly the stepped
//! simulation's.

use crate::dense::to_csr;
use crate::evsa::EVsa;
use crate::span::Span;
use splitc_automata::classes::{ByteClassBuilder, ByteClasses};
use splitc_automata::dfa::{moore_refine, DEAD};
use splitc_automata::nfa::StateId;
use splitc_automata::scan::ByteFinder;
use std::collections::HashMap;
use std::sync::Arc;

/// Default power-set budget of the eager phase-DFA construction, shared
/// across the three phases. A splitter exceeding it has no stream; its
/// documents are buffered whole and batch-split (see the module docs).
const DEFAULT_DFA_BUDGET: usize = 4096;

/// Successor lists per `(state, class)` pair of one transition kind,
/// in CSR form. Used only while determinizing.
struct PhaseTable {
    off: Vec<u32>,
    pool: Vec<StateId>,
}

impl PhaseTable {
    /// ORs the successors of every state in `set` on byte class `c`
    /// into `out` (`nc` classes per state row).
    fn step_into(&self, nc: usize, set: &[u64], c: usize, out: &mut [u64]) {
        for (w, &bits) in set.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let q = (w << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let base = q * nc + c;
                for &t in &self.pool[self.off[base] as usize..self.off[base + 1] as usize] {
                    out[t as usize >> 6] |= 1u64 << (t & 63);
                }
            }
        }
    }
}

/// The three determinized, jointly minimized phase automata of a unary
/// splitter (see the [module docs](self)), indexed by one byte-class
/// partition. DFA state id 0 of each phase is dead: the empty frontier
/// and every state equivalent to it. Built once per
/// compiled splitter ([`crate::splitter::CompiledSplitter::stream`]
/// hands out [`SplitterState`]s sharing one table).
#[derive(Debug)]
pub struct StreamTables {
    classes: ByteClasses,
    /// Number of byte classes.
    nc: usize,
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
    /// The before-DFA state of the automaton's start frontier. The
    /// tables are jointly minimal, so a before state from which the
    /// continuation segmentation is the same function of the remaining
    /// bytes as a fresh stream's *is* this state: the quiescence test of
    /// [`SplitterState::is_quiescent`] is an id comparison.
    before_start: u32,
    /// Skip-loop table, indexed by `before id * skip_cols + inside id`:
    /// a SWAR finder for the bytes on which the configuration *(before
    /// state, one pending open in this inside state)* changes anything —
    /// the before state leaves, opens a span or emits an empty span, or
    /// the inside state leaves or closes. Inside id 0 (the dead state)
    /// stands for "nothing pending", so that column covers a stream with
    /// nothing unresolved. While the stream holds at most one pending
    /// open and no candidate, runs of non-escape bytes are jumped by the
    /// scanner instead of stepped — the streaming counterpart of the
    /// dense engine's skip-loop. `None` = the pair escapes on too much
    /// of the alphabet for skipping to pay.
    skip: Vec<Option<ByteFinder>>,
    /// Columns of `skip`: the number of inside states when every pair
    /// fits the power-set budget, else 1 (only the nothing-pending
    /// column).
    skip_cols: usize,
}

impl StreamTables {
    /// Determinizes the phase automata of a **unary** block-normal-form
    /// automaton within the default power-set budget and jointly
    /// minimizes them; `None` when the
    /// budget does not suffice (the splitter then has no stream, see the
    /// [module docs](self)). Panics when the
    /// automaton is not unary (splitters are validated at
    /// [`crate::splitter::Splitter::new`]).
    pub fn compile(evsa: &EVsa) -> Option<StreamTables> {
        Self::compile_within(evsa, DEFAULT_DFA_BUDGET)
    }

    /// [`StreamTables::compile`] within `budget` total interned
    /// power-set states across the three phases.
    pub(crate) fn compile_within(evsa: &EVsa, budget: usize) -> Option<StreamTables> {
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

        // NFA-level phase tables, by what the transition's block does:
        // nothing, `x⊢` (the byte starts the span), `⊣x` (the byte
        // follows the span), or both (an empty span before the byte).
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
        let csr = |mut t: Vec<Vec<StateId>>| {
            for v in t.iter_mut() {
                v.sort_unstable();
                v.dedup();
            }
            let (off, pool) = to_csr(t);
            PhaseTable { off, pool }
        };
        let (plain, open, close, open_close) = (csr(plain), csr(open), csr(close), csr(open_close));

        // States accepting at document end with an empty, a `⊣x`, and an
        // `x⊢ ⊣x` final block.
        let mut final_plain = vec![0u64; words];
        let mut final_close = vec![0u64; words];
        let mut final_open_close = vec![0u64; words];
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
        let mut before = Dfa::new(words);
        let mut inside = Dfa::new(words);
        let mut after = Dfa::new(words);
        // Interns `set` into one phase, returning its id; `None` once the
        // three phases together hold `budget` sets.
        let mut total = 3;
        let mut intern = |dfa: &mut Dfa, set: Vec<u64>| -> Option<u32> {
            if let Some(&id) = dfa.ids.get(&set) {
                return Some(id);
            }
            if total >= budget {
                return None;
            }
            total += 1;
            let id = dfa.sets.len() as u32;
            dfa.ids.insert(set.clone(), id);
            dfa.sets.push(set);
            Some(id)
        };

        let mut start_set = vec![0u64; words];
        let s = evsa.start() as usize;
        start_set[s >> 6] |= 1u64 << (s & 63);
        let before_start = intern(&mut before, start_set)?;

        // Explore the three worklists to fixpoint; rows are filled per
        // discovered id for every class.
        let step = |table: &PhaseTable, set: &[u64], c: usize| {
            let mut out = vec![0u64; words];
            table.step_into(nc, set, c, &mut out);
            out
        };
        let mut before_next = Vec::new();
        let mut before_open = Vec::new();
        let mut before_oc = Vec::new();
        let mut inside_next = Vec::new();
        let mut inside_close = Vec::new();
        let mut after_next = Vec::new();
        let (mut done_b, mut done_i, mut done_a) = (0usize, 0usize, 0usize);
        while done_b < before.sets.len() || done_i < inside.sets.len() || done_a < after.sets.len()
        {
            while done_b < before.sets.len() {
                let set = before.sets[done_b].clone();
                done_b += 1;
                for c in 0..nc {
                    before_next.push(intern(&mut before, step(&plain, &set, c))?);
                    before_open.push(intern(&mut inside, step(&open, &set, c))?);
                    before_oc.push(intern(&mut after, step(&open_close, &set, c))?);
                }
            }
            while done_i < inside.sets.len() {
                let set = inside.sets[done_i].clone();
                done_i += 1;
                for c in 0..nc {
                    inside_next.push(intern(&mut inside, step(&plain, &set, c))?);
                    inside_close.push(intern(&mut after, step(&close, &set, c))?);
                }
            }
            while done_a < after.sets.len() {
                let set = after.sets[done_a].clone();
                done_a += 1;
                for c in 0..nc {
                    after_next.push(intern(&mut after, step(&plain, &set, c))?);
                }
            }
        }

        let flag = |sets: &[Vec<u64>], finals: &[u64]| -> Vec<bool> {
            sets.iter().map(|s| intersects(s, finals)).collect()
        };
        // The subset construction's tables, then their joint quotient;
        // universality and the skip table are built on the quotient.
        let mut t = StreamTables {
            classes,
            nc,
            before_next,
            before_open,
            before_oc,
            inside_next,
            inside_close,
            after_next,
            before_oc_at_end: flag(&before.sets, &final_open_close),
            inside_close_at_end: flag(&inside.sets, &final_close),
            after_accepting: flag(&after.sets, &final_plain),
            after_universal: Vec::new(),
            before_start,
            skip: Vec::new(),
            skip_cols: 1,
        }
        .minimized();
        t.after_universal = t.universality();
        (t.skip, t.skip_cols) = t.skip_table(budget);
        Some(t)
    }

    /// The joint Moore partition of the three phases, refined as one
    /// state set (before ids, then inside, then after). A state starts in
    /// the block of its phase and end flag; its row holds, per class, the
    /// before state's next/open/oc, the inside state's next/close, or the
    /// after state's next, padded with [`DEAD`]. States in one block are
    /// jointly bisimilar, so they emit the same spans on every suffix.
    fn joint_blocks(&self) -> Vec<u32> {
        let nc = self.nc;
        let (n_b, n_i) = (self.before_oc_at_end.len(), self.inside_close_at_end.len());
        let n = n_b + n_i + self.after_accepting.len();
        let (at_i, at_a) = (n_b as StateId, (n_b + n_i) as StateId);
        let mut init = Vec::with_capacity(n);
        let mut succ = Vec::with_capacity(n * 3 * nc);
        for (q, &end) in self.before_oc_at_end.iter().enumerate() {
            init.push(end as u32);
            for at in q * nc..(q + 1) * nc {
                succ.extend([
                    self.before_next[at],
                    at_i + self.before_open[at],
                    at_a + self.before_oc[at],
                ]);
            }
        }
        for (q, &end) in self.inside_close_at_end.iter().enumerate() {
            init.push(2 + end as u32);
            for at in q * nc..(q + 1) * nc {
                succ.extend([
                    at_i + self.inside_next[at],
                    at_a + self.inside_close[at],
                    DEAD,
                ]);
            }
        }
        for (q, &end) in self.after_accepting.iter().enumerate() {
            init.push(4 + end as u32);
            for at in q * nc..(q + 1) * nc {
                succ.extend([at_a + self.after_next[at], DEAD, DEAD]);
            }
        }
        moore_refine(&init, &succ, 3 * nc)
    }

    /// The quotient of the phase tables by [`StreamTables::joint_blocks`].
    /// Blocks are numbered by first appearance, so each phase's blocks
    /// are consecutive and start with the block of its dead id 0:
    /// subtracting that block renumbers the phase from 0, and dead stays
    /// 0. The derived tables (`after_universal`, `skip`) are left as they
    /// are.
    fn minimized(self) -> StreamTables {
        let nc = self.nc;
        let block = self.joint_blocks();
        let (n_b, n_i) = (self.before_oc_at_end.len(), self.inside_close_at_end.len());
        let (at_i, at_a) = (n_b, n_b + n_i);
        let id = |at: usize, old: u32| block[at + old as usize] - block[at];
        // The first member of each block of a phase, in block order.
        let members = |at: usize, len: usize| -> Vec<usize> {
            let mut fresh = 0;
            (0..len)
                .filter(|&q| {
                    let first = id(at, q as u32) == fresh;
                    fresh += first as u32;
                    first
                })
                .collect()
        };
        let reps_b = members(0, n_b);
        let reps_i = members(at_i, n_i);
        let reps_a = members(at_a, self.after_accepting.len());
        let rows = |reps: &[usize], table: &[u32], to: usize| -> Vec<u32> {
            let row = |&q: &usize| &table[q * nc..(q + 1) * nc];
            reps.iter().flat_map(row).map(|&t| id(to, t)).collect()
        };
        let flags = |reps: &[usize], flag: &[bool]| reps.iter().map(|&q| flag[q]).collect();
        StreamTables {
            before_next: rows(&reps_b, &self.before_next, 0),
            before_open: rows(&reps_b, &self.before_open, at_i),
            before_oc: rows(&reps_b, &self.before_oc, at_a),
            inside_next: rows(&reps_i, &self.inside_next, at_i),
            inside_close: rows(&reps_i, &self.inside_close, at_a),
            after_next: rows(&reps_a, &self.after_next, at_a),
            before_oc_at_end: flags(&reps_b, &self.before_oc_at_end),
            inside_close_at_end: flags(&reps_i, &self.inside_close_at_end),
            after_accepting: flags(&reps_a, &self.after_accepting),
            before_start: id(0, self.before_start),
            ..self
        }
    }

    /// Universality per after id: an id is non-universal iff it can reach
    /// a non-accepting id (including itself). Reverse BFS from the
    /// non-accepting ids over the after-DFA edges.
    fn universality(&self) -> Vec<bool> {
        let nc = self.nc;
        let n_after = self.after_accepting.len();
        let mut rev: Vec<Vec<u32>> = vec![Vec::new(); n_after];
        for id in 0..n_after {
            for c in 0..nc {
                rev[self.after_next[id * nc + c] as usize].push(id as u32);
            }
        }
        let mut non_universal = vec![false; n_after];
        let mut queue: Vec<u32> = (0..n_after as u32)
            .filter(|&id| !self.after_accepting[id as usize])
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
        non_universal.iter().map(|&b| !b).collect()
    }

    /// The skip-loop table and its column count (see the field docs). A
    /// byte is an *escape* for a before state when its class leaves the
    /// state, opens a span or emits an empty span, and for an inside
    /// state when its class leaves the state or closes the span; a pair
    /// escapes on the union. The dead states are inert on everything:
    /// once the before frontier dies with nothing unresolved, whole
    /// chunks are skipped.
    fn skip_table(&self, budget: usize) -> (Vec<Option<ByteFinder>>, usize) {
        let nc = self.nc;
        let n_before = self.before_oc_at_end.len();
        let n_inside = self.inside_close_at_end.len();
        let escapes_of = |inert: &dyn Fn(usize) -> bool| {
            let mut escape = [false; 256];
            for c in (0..nc).filter(|&c| !inert(c)) {
                for b in self.classes.bytes_of(c) {
                    escape[b as usize] = true;
                }
            }
            escape
        };
        let before_escape: Vec<[bool; 256]> = (0..n_before)
            .map(|q| {
                escapes_of(&|c| {
                    let at = q * nc + c;
                    self.before_next[at] == q as u32
                        && self.before_open[at] == 0
                        && self.before_oc[at] == 0
                })
            })
            .collect();
        let skip_cols = if n_before * n_inside <= budget {
            n_inside
        } else {
            1
        };
        let inside_escape: Vec<[bool; 256]> = (0..skip_cols)
            .map(|q| {
                escapes_of(&|c| {
                    let at = q * nc + c;
                    self.inside_next[at] == q as u32 && self.inside_close[at] == 0
                })
            })
            .collect();
        let mut skip: Vec<Option<ByteFinder>> = Vec::with_capacity(n_before * skip_cols);
        for b in &before_escape {
            for i in &inside_escape {
                let escape = |x: u8| b[x as usize] || i[x as usize];
                let escapes = (0..=255u8).filter(|&x| escape(x)).count();
                skip.push((escapes <= 128).then(|| ByteFinder::from_predicate(escape)));
            }
        }
        (skip, skip_cols)
    }

    /// The byte-class partition the tables are indexed by.
    pub fn classes(&self) -> &ByteClasses {
        &self.classes
    }

    /// The skip-loop finder of a `(before, inside)` configuration
    /// (`inside` 0 = nothing pending); `None` when its bytes must be
    /// stepped.
    #[inline]
    fn skip(&self, before: u32, inside: u32) -> Option<&ByteFinder> {
        let inside = inside as usize;
        if inside >= self.skip_cols {
            return None;
        }
        self.skip[before as usize * self.skip_cols + inside].as_ref()
    }
}

#[inline]
fn intersects(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b.iter()).any(|(x, y)| x & y != 0)
}

/// A closed-but-unreleased candidate span.
#[derive(Debug, Clone)]
struct Candidate {
    span: Span,
    /// After-DFA state; meaningless once `confirmed`.
    after: u32,
    confirmed: bool,
}

/// Incremental splitter execution state: feed document bytes with
/// [`SplitterState::push`], collect emitted split spans (ascending
/// `(start, end)`, exactly the spans of the batch splitter), and call
/// [`SplitterState::finish`] at end of stream. Obtain one per stream via
/// [`crate::splitter::CompiledSplitter::stream`]; the precompiled
/// [`StreamTables`] are shared, the per-stream state is not. Every
/// piece of state is a `u32` phase-DFA id.
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
    before: u32,
    /// `(open position, inside-DFA id)`, ascending positions.
    pending: Vec<(usize, u32)>,
    /// Sorted by `(start, end)`.
    candidates: Vec<Candidate>,
}

impl SplitterState {
    /// Starts a stream at offset 0.
    pub fn new(tables: Arc<StreamTables>) -> SplitterState {
        SplitterState {
            before: tables.before_start,
            t: tables,
            pos: 0,
            skipped: 0,
            quiet: 0,
            out: Vec::new(),
            pending: Vec::new(),
            candidates: Vec::new(),
        }
    }

    /// Number of bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes consumed by the skip-loop scanner instead of phase-DFA
    /// steps, inside segments as well as between them (see the
    /// [module docs](self#skip-loop)).
    pub fn bytes_skipped(&self) -> u64 {
        self.skipped
    }

    /// Number of unresolved candidate segments (open or closed but not
    /// yet released).
    pub fn pending_segments(&self) -> usize {
        self.pending.len() + self.candidates.len()
    }

    /// The smallest stream offset any unresolved candidate still refers
    /// to (`pos()` when nothing is unresolved). Bytes before the low
    /// watermark can never appear in a future emitted span, so a
    /// streaming caller may discard them — this is what bounds the byte
    /// buffer of the execution layer's `StreamingSplitter`.
    pub fn low_watermark(&self) -> usize {
        let p = self.pending.first().map(|(i, _)| *i);
        let c = self.candidates.first().map(|c| c.span.start);
        self.pos
            .min(p.unwrap_or(usize::MAX))
            .min(c.unwrap_or(usize::MAX))
    }

    /// True when the stream state is **quiescent**: every emitted span
    /// has been drained, nothing is pending or unresolved, and the
    /// before-phase simulation sits in its start state (the tables are
    /// jointly minimal, so every state equivalent to the start *is* the
    /// start).
    /// From a quiescent position the continuation is the same function
    /// of the remaining bytes as a fresh stream's (shifted by the
    /// offset) — which makes quiescent positions the *stable resplit
    /// frontiers* of the incremental corpus-maintenance layer: an edit
    /// strictly between two quiescent positions can only change the
    /// segments between them.
    pub fn is_quiescent(&self) -> bool {
        self.out.is_empty()
            && self.pending.is_empty()
            && self.candidates.is_empty()
            && self.before == self.t.before_start
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
    /// Whenever the stream holds no candidate and at most one pending
    /// open, and that configuration — the before state plus the open's
    /// inside state — is inert on most bytes, the scanner jumps straight
    /// to the next escape byte. Inside a delimiter-based segment that is
    /// the segment's closing delimiter, so each segment costs two stepped
    /// bytes (see the [module docs](self#skip-loop)).
    /// Skipped bytes change only the position: emitted spans,
    /// [`SplitterState::low_watermark`] (pinned by the pending open, or
    /// equal to the position when nothing is pending) and
    /// [`SplitterState::last_quiescent`] (which only advances while
    /// nothing is pending) stay exactly as in the stepped simulation.
    pub fn push(&mut self, chunk: &[u8]) -> Vec<Span> {
        let mut i = 0;
        while i < chunk.len() {
            if self.candidates.is_empty() && self.pending.len() <= 1 {
                let inside = self.pending.first().map_or(0, |&(_, id)| id);
                if let Some(f) = self.t.skip(self.before, inside) {
                    // Jump over the inert run (possibly the whole chunk).
                    let j = f.find(&chunk[i..]).unwrap_or(chunk.len() - i);
                    self.pos += j;
                    self.skipped += j as u64;
                    i += j;
                    if inside == 0 && self.before == self.t.before_start {
                        // Inert run from the start state with nothing
                        // unresolved: every position in it is quiescent.
                        self.quiet = self.pos;
                    }
                    if i >= chunk.len() {
                        break;
                    }
                }
            }
            self.step_dfa(chunk[i]);
            i += 1;
        }
        std::mem::take(&mut self.out)
    }

    /// [`SplitterState::push`] without the skip loop: every byte through
    /// the phase DFAs. The oracle the skip loop is tested against.
    #[cfg(test)]
    pub(crate) fn push_stepped(&mut self, chunk: &[u8]) -> Vec<Span> {
        for &b in chunk {
            self.step_dfa(b);
        }
        std::mem::take(&mut self.out)
    }

    /// Ends the stream: applies the automaton's final blocks, resolving
    /// every remaining candidate, and returns the last spans.
    pub fn finish(mut self) -> Vec<Span> {
        let n = self.pos;
        let t = &self.t;
        let mut spans: Vec<Span> = Vec::new();
        for (i, id) in self.pending.drain(..) {
            if t.inside_close_at_end[id as usize] {
                spans.push(Span::new(i, n));
            }
        }
        if t.before_oc_at_end[self.before as usize] {
            spans.push(Span::new(n, n));
        }
        for c in self.candidates.drain(..) {
            if c.confirmed || t.after_accepting[c.after as usize] {
                spans.push(c.span);
            }
        }
        spans.sort_unstable();
        spans.dedup();
        let mut out = std::mem::take(&mut self.out);
        out.extend(spans);
        out
    }

    /// One byte through the phase DFAs: array lookups only.
    fn step_dfa(&mut self, b: u8) {
        let dfas = &self.t;
        let nc = dfas.nc;
        let c = dfas.classes.class_of(b);
        let p = self.pos;

        // After-phase candidates.
        let mut i = 0;
        while i < self.candidates.len() {
            let cand = &mut self.candidates[i];
            if !cand.confirmed {
                let next = dfas.after_next[cand.after as usize * nc + c];
                if next == 0 {
                    self.candidates.remove(i);
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
        while k < self.pending.len() {
            let (start, id) = self.pending[k];
            let closed = dfas.inside_close[id as usize * nc + c];
            if closed != 0 {
                new_candidates.push((Span::new(start, p), closed));
            }
            let next = dfas.inside_next[id as usize * nc + c];
            if next == 0 {
                self.pending.remove(k);
            } else {
                self.pending[k].1 = next;
                k += 1;
            }
        }

        // Before-phase frontier: open at p / empty span at p / stay.
        let opened = dfas.before_open[self.before as usize * nc + c];
        let oc = dfas.before_oc[self.before as usize * nc + c];
        if oc != 0 {
            new_candidates.push((Span::new(p, p), oc));
        }
        self.before = dfas.before_next[self.before as usize * nc + c];
        if opened != 0 {
            self.pending.push((p, opened));
        }

        for (span, after) in new_candidates {
            let confirmed = dfas.after_universal[after as usize];
            let at = self
                .candidates
                .binary_search_by_key(&(span.start, span.end), |c| (c.span.start, c.span.end))
                .unwrap_err();
            self.candidates.insert(
                at,
                Candidate {
                    span,
                    after,
                    confirmed,
                },
            );
        }

        self.pos = p + 1;
        // Release confirmed candidates in sorted order while no pending
        // open with a smaller start can still produce an earlier span.
        while let Some(front) = self.candidates.first() {
            if !front.confirmed {
                break;
            }
            if self
                .pending
                .first()
                .is_some_and(|(i, _)| *i < front.span.start)
            {
                break;
            }
            self.out.push(self.candidates.remove(0).span);
        }
        if self.pending.is_empty() && self.candidates.is_empty() && self.before == dfas.before_start
        {
            self.quiet = self.pos;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splitter::{self, Splitter};
    use crate::vars::VarId;

    /// Splits `doc` through the compiled splitter's streaming state.
    fn stream_split(s: &Splitter, doc: &[u8], chunk: usize) -> Vec<Span> {
        let compiled = s.compile();
        let mut st = compiled.stream().expect("within budget");
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
                "doc {:?} chunk {chunk}",
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
            assert!(
                StreamTables::compile(&evsa).is_some(),
                "builtin splitter within budget"
            );
            assert!(
                StreamTables::compile_within(&evsa, 0).is_none(),
                "budget 0 must disable DFAs"
            );
        }
    }

    /// `sentences` with a before phase that also tracks whether an `a`
    /// sits `dots + 1` bytes back: the same language (the extra prefix
    /// alternative is subsumed by `.*\.`), but 2^(dots + 1) before sets
    /// in the subset construction, which joint minimization collapses
    /// to `sentences`' tables.
    fn padded_sentences(dots: usize) -> Splitter {
        let pattern = format!(r"((.*a{})?.*\.)?x{{[^.]+}}(\..*)?", ".".repeat(dots));
        Splitter::parse(&pattern).unwrap()
    }

    /// Per-phase state counts (before, inside, after) of the stream
    /// tables, dead states included, after checking their canonical
    /// form: refining the compiled tables again merges and renumbers
    /// nothing.
    fn minimal_phase_counts(s: &Splitter) -> (usize, usize, usize) {
        let st = s.compile().stream().expect("within budget");
        let t = &st.t;
        let blocks = t.joint_blocks();
        let identity: Vec<u32> = (0..blocks.len() as u32).collect();
        assert_eq!(blocks, identity, "not a refinement fixpoint");
        let count = |table: &[u32]| table.len() / t.nc;
        (
            count(&t.before_next),
            count(&t.inside_next),
            count(&t.after_next),
        )
    }

    /// A sentence (`x{[^.]+}(\..*)?`) preceded by `.*a` and `dots`
    /// arbitrary bytes: a genuine look-behind, whose minimal before DFA
    /// tracks the last `dots + 1` bytes' `a`s: 2^(dots + 1) states
    /// besides the dead one.
    fn look_behind_sentence(dots: usize) -> Splitter {
        Splitter::parse(&format!(r".*a{}x{{[^.]+}}(\..*)?", ".".repeat(dots))).unwrap()
    }

    #[test]
    fn phase_tables_are_jointly_minimal() {
        for (name, s, counts) in [
            ("sentences", splitter::sentences(), (3, 2, 2)),
            ("lines", splitter::lines(), (3, 2, 2)),
            ("paragraphs", splitter::paragraphs(), (5, 3, 3)),
            ("http_messages", splitter::http_messages(), (5, 3, 3)),
            ("whole_document", splitter::whole_document(), (2, 2, 1)),
            ("ngrams(1)", splitter::ngrams(1), (3, 2, 2)),
            ("ngrams(2)", splitter::ngrams(2), (3, 4, 2)),
            ("ngram_windows(2)", splitter::ngram_windows(2), (3, 4, 2)),
            ("char_windows(3)", splitter::char_windows(3), (2, 4, 2)),
            // The same language as `sentences`, and the same tables.
            ("padded_sentences(10)", padded_sentences(10), (3, 2, 2)),
        ] {
            assert_eq!(minimal_phase_counts(&s), counts, "{name}");
        }
    }

    #[test]
    fn stream_tables_are_a_refinement_fixpoint() {
        // The builtins are checked by the count test above.
        for p in crate::proptests::SPLITTER_PATTERNS {
            minimal_phase_counts(&Splitter::parse(p).unwrap());
        }
    }

    #[test]
    fn padded_sentences_quiesce_like_sentences() {
        // 4 KiB of pseudo-random bytes over an alphabet of `a`s, dots
        // and fillers, so that the padded look-behind sees every shape.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let doc: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                b"aaa..b c"[(x >> 61) as usize]
            })
            .collect();
        let padded = padded_sentences(10).compile();
        let plain = splitter::sentences().compile();
        let (mut a, mut b) = (padded.stream().unwrap(), plain.stream().unwrap());
        let mut quiescent = 0;
        for (i, byte) in doc.iter().enumerate() {
            assert_eq!(a.push(&[*byte]), b.push(&[*byte]), "byte {i}");
            assert_eq!(a.is_quiescent(), b.is_quiescent(), "byte {i}");
            assert_eq!(a.last_quiescent(), b.last_quiescent(), "byte {i}");
            quiescent += b.is_quiescent() as usize;
        }
        // Quiescent just past each dot: the comparison is not vacuous.
        assert!(quiescent > doc.len() / 8, "{quiescent} quiescent positions");
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn over_budget_splitter_has_no_stream() {
        let fits = look_behind_sentence(10).compile();
        let st = fits.stream().expect("10 dots fit");
        assert_eq!(st.t.before_oc_at_end.len(), 2049);
        assert_eq!(st.t.skip_cols, 1, "but not their skip pairs");
        let st = padded_sentences(10).compile().stream().unwrap();
        assert!(st.t.skip_cols > 1, "padded sentences' skip pairs fit");
        assert!(look_behind_sentence(11).compile().stream().is_none());
        let over = padded_sentences(11).compile();
        assert!(over.stream().is_none(), "11 padded dots do not fit");
        let doc = b"one a. two aaaaaaaaaaaaaa b. three";
        let expect = splitter::sentences().compile().split(doc);
        assert_eq!(over.split(doc), expect);
        check(&padded_sentences(10), doc);
        check(&look_behind_sentence(10), b"a0123456789xy.z. a0123456789bc");
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
            let mut st = compiled.stream().unwrap();
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
        // Delimiter splitters skip inside their segments: with one open
        // pending, `sentences` steps only each '.' and the opening byte
        // after it, so of "aaa.bbb.ccc" all six other bytes are skipped.
        let sentences = splitter::sentences().compile();
        let mut st = sentences.stream().unwrap();
        let mut got = st.push(b"aaa.bbb.ccc");
        assert_eq!(st.bytes_skipped(), 6);
        got.extend(st.finish());
        assert_eq!(got, sentences.split(b"aaa.bbb.ccc"));
    }

    #[test]
    fn dead_before_frontier_skips_whole_chunks() {
        // x{a}b: after a non-matching prefix the before frontier dies
        // with nothing pending; the rest of the stream is jumped.
        let s = Splitter::parse("x{a}b").unwrap();
        let compiled = s.compile();
        let mut st = compiled.stream().unwrap();
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
        let mut st = s.stream().unwrap();
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
        let mut st = s.stream().unwrap();
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
