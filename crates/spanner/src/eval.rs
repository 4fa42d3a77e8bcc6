//! Evaluation of spanners on documents.
//!
//! [`eval_evsa`] is the production evaluator. It works in two passes:
//!
//! 1. a backward *viability* pass computes, per document position, the
//!    set of states from which acceptance is still reachable (bitset
//!    rows, `O(n · |δ|)` time, `O(n · |Q|/64)` space);
//! 2. an iterative forward search enumerates tuples, entering only viable
//!    states. Once a run reaches a *post* state (all variables closed —
//!    well-defined because states of a functional automaton have unique
//!    variable configurations), the output tuple is already determined and
//!    the run is cut off immediately, so trailing `Σ*` contexts cost O(1)
//!    per match instead of O(document).
//!
//! [`reference_eval`] is an intentionally naive oracle used by the test
//! suite: it enumerates candidate tuples and checks membership of each
//! encoded ref-word in the normalized ref-word language — an independent
//! implementation path against which the fast evaluator is validated.

use crate::evsa::EVsa;
use crate::ext::ExtAlphabet;
use crate::span::Span;
use crate::tuple::{SpanRelation, SpanTuple};
use crate::vars::VarOp;
use crate::vsa::Vsa;
use splitc_automata::nfa::StateId;

/// Evaluates a (not necessarily functional) VSet-automaton on a document.
///
/// Convenience wrapper: functionalizes, converts to block normal form and
/// calls [`eval_evsa`]. For repeated evaluation compile once via
/// [`EVsa::from_functional`].
pub fn eval(vsa: &Vsa, doc: &[u8]) -> SpanRelation {
    let f = if vsa.is_functional() {
        vsa.clone()
    } else {
        vsa.functionalize()
    };
    eval_evsa(&EVsa::from_functional(&f), doc)
}

/// Per-position viable-state membership, abstracted so the forward
/// enumeration runs unchanged over the materialized bitset table
/// ([`Viability`]) or the dense engine's lazily-determinized backward
/// pass ([`crate::dense`]).
pub(crate) trait ViableSource {
    /// Whether acceptance is still reachable from state `q` at document
    /// position `pos`.
    fn viable(&self, pos: usize, q: StateId) -> bool;

    /// Forced-move hook: from state `q` at position `pos`, follows the
    /// chain of moves that have no alternative and returns where it
    /// stops. At each crossed position `t` the chain's state has exactly
    /// one viable move on `doc[t]`, that move is block-free and enters a
    /// non-post state, and it is a self-loop or leaves the pre states.
    /// Under that guarantee the forward enumeration may move a frame
    /// along the chain without visiting the intermediate positions: no
    /// variable operations fire (the blocks are empty), no alternative
    /// branches exist to backtrack into, the pre-state dedupe still sees
    /// every pre state a run enters, and finals only matter at
    /// `doc.len()` (the chain never passes it).
    ///
    /// The default (no moves) is correct for every engine; the AOT tier
    /// overrides it with a precompiled `(eVSA state × viability id ×
    /// byte class)` table — see `crate::aot`.
    #[inline]
    fn advance(&self, _doc: &[u8], pos: usize, q: StateId) -> (usize, StateId) {
        (pos, q)
    }
}

/// The edges of one state worth trying for one document byte.
///
/// The NFA path tries every outgoing transition and filters by byte mask;
/// the dense path precompiles per-(state, byte-class) index lists, so no
/// mask check is needed at match time.
pub(crate) enum EdgeCandidates<'a> {
    /// Try transition indices `0..n`, checking each byte mask.
    All(usize),
    /// Try exactly these transition indices; masks are pre-filtered.
    List(&'a [u32]),
}

impl EdgeCandidates<'_> {
    #[inline]
    fn get(&self, i: usize) -> Option<usize> {
        match self {
            EdgeCandidates::All(n) => (i < *n).then_some(i),
            EdgeCandidates::List(s) => s.get(i).map(|&x| x as usize),
        }
    }

    #[inline]
    fn needs_mask_check(&self) -> bool {
        matches!(self, EdgeCandidates::All(_))
    }
}

/// Supplier of [`EdgeCandidates`] per (state, document byte).
pub(crate) trait EdgeSource {
    /// Candidate transition indices of `q` on byte `b` (indices into
    /// [`EVsa::transitions_from`]`(q)`).
    fn candidates(&self, q: StateId, b: u8) -> EdgeCandidates<'_>;
}

/// The NFA edge source: every transition is a candidate, mask-checked.
pub(crate) struct AllEdges<'a>(pub(crate) &'a EVsa);

impl EdgeSource for AllEdges<'_> {
    #[inline]
    fn candidates(&self, q: StateId, _b: u8) -> EdgeCandidates<'_> {
        EdgeCandidates::All(self.0.transitions_from(q).len())
    }
}

/// Per-position state bitsets.
pub(crate) struct Viability {
    words: usize,
    bits: Vec<u64>,
}

impl Viability {
    #[inline]
    fn get(&self, pos: usize, q: usize) -> bool {
        self.bits[pos * self.words + (q >> 6)] & (1u64 << (q & 63)) != 0
    }
    #[inline]
    fn set(&mut self, pos: usize, q: usize) {
        self.bits[pos * self.words + (q >> 6)] |= 1u64 << (q & 63);
    }
}

impl ViableSource for Viability {
    #[inline]
    fn viable(&self, pos: usize, q: StateId) -> bool {
        self.get(pos, q as usize)
    }
}

pub(crate) fn viability(evsa: &EVsa, doc: &[u8]) -> Viability {
    let n = doc.len();
    let ns = evsa.num_states();
    let words = ns.div_ceil(64);
    let mut v = Viability {
        words,
        bits: vec![0u64; (n + 1) * words],
    };
    for q in 0..ns {
        if !evsa.final_blocks(q as StateId).is_empty() {
            v.set(n, q);
        }
    }
    for i in (0..n).rev() {
        let b = doc[i];
        for q in 0..ns {
            for (_, mask, r) in evsa.transitions_from(q as StateId) {
                if mask.contains(b) && v.get(i + 1, *r as usize) {
                    v.set(i, q);
                    break;
                }
            }
        }
    }
    v
}

/// Per-state facts the forward enumeration keys on, computed once per
/// automaton.
#[derive(Debug, Default)]
pub(crate) struct StateRoles {
    /// True when the state's (unique) variable configuration has every
    /// variable closed, i.e. the output tuple of any run is already fully
    /// determined on entry.
    pub(crate) post: Vec<bool>,
    /// For a *pre* state — one reached from the start by block-free
    /// transitions only, so no variable operation has fired yet — its
    /// index among the pre states; [`StateRoles::NOT_PRE`] otherwise.
    pre: Vec<u32>,
    /// Number of pre states.
    npre: usize,
}

impl StateRoles {
    const NOT_PRE: u32 = u32::MAX;

    /// Whether `q` is a pre state: no variable operation precedes it.
    pub(crate) fn is_pre(&self, q: StateId) -> bool {
        self.pre[q as usize] != StateRoles::NOT_PRE
    }

    pub(crate) fn of(evsa: &EVsa) -> StateRoles {
        use std::collections::VecDeque;
        let nv = evsa.vars().len();
        let ns = evsa.num_states();
        // ops[q]: (closed variables, variable operations) on a path to
        // q, unique per state in a functional automaton; None =
        // unreached.
        let mut ops: Vec<Option<(usize, usize)>> = vec![None; ns];
        let mut queue = VecDeque::new();
        ops[evsa.start() as usize] = Some((0, 0));
        queue.push_back(evsa.start());
        while let Some(q) = queue.pop_front() {
            let (closed, all) = ops[q as usize].expect("queued states are reached");
            for (block, _, r) in evsa.transitions_from(q) {
                let closes = block.iter().filter(|op| !op.is_open()).count();
                if ops[*r as usize].is_none() {
                    ops[*r as usize] = Some((closed + closes, all + block.len()));
                    queue.push_back(*r);
                }
            }
        }
        let mut npre = 0;
        let pre = ops
            .iter()
            .map(|o| match o {
                Some((_, 0)) => {
                    npre += 1;
                    npre as u32 - 1
                }
                _ => StateRoles::NOT_PRE,
            })
            .collect();
        StateRoles {
            post: ops
                .iter()
                .map(|o| matches!(o, Some((c, _)) if *c == nv))
                .collect(),
            pre,
            npre,
        }
    }
}

/// Evaluates a block-normal-form automaton on a document with the NFA
/// engine: a materialized backward viability table plus mask-checked
/// per-transition scanning. The dense engine ([`crate::dense`]) runs the
/// same enumeration over byte-class tables and a lazy-DFA viability pass.
pub fn eval_evsa(evsa: &EVsa, doc: &[u8]) -> SpanRelation {
    if evsa.num_states() == 0 {
        return SpanRelation::empty();
    }
    let viable = viability(evsa, doc);
    forward_enumerate(evsa, doc, &StateRoles::of(evsa), &viable, &AllEdges(evsa))
}

/// One suspended position of the iterative forward search.
#[derive(Debug)]
pub(crate) struct Frame {
    pos: usize,
    state: StateId,
    edge: usize,
    trail_mark: usize,
    emitted_finals: bool,
}

/// Reusable buffers of [`forward_enumerate_scratch`]. The search used to
/// allocate its variable tables, undo trail, frame stack and output
/// afresh on every call — one set of allocations *per evaluated
/// segment* in the corpus pipelines, where segments are tiny and
/// plentiful. A scratch lives in each [`crate::dense::DenseCache`], so
/// per-worker evaluation reuses the grown buffers across every segment
/// the worker touches; the returned relation costs one exact-size copy
/// per call.
#[derive(Debug, Default)]
pub(crate) struct EnumScratch {
    opens: Vec<usize>,
    closes: Vec<usize>,
    /// Trail of (var index, is_open, old value) for undo.
    trail: Vec<(usize, bool, usize)>,
    stack: Vec<Frame>,
    /// Emitted rows, row-major.
    out: Vec<Span>,
    /// Bitset over `(position, pre-state index)`: the pre-state frames
    /// already expanded by this call.
    expanded: Vec<u64>,
    /// Frames pushed or reused (roots included) by every call on this
    /// scratch: the search's machine-independent work, which the
    /// scaling tests read. A frame overwritten by the successor of its
    /// last viable edge counts once more, as a push would; moves the
    /// engine's [`ViableSource::advance`] follows count nothing.
    pub(crate) frames: u64,
}

/// The iterative forward search shared by the NFA and dense engines:
/// enumerates tuples, entering only viable states, with the post-state
/// cutoff. `roles` must come from [`StateRoles::of`]; `viable` and `edges`
/// select the engine. Allocates fresh scratch buffers; hot callers use
/// [`forward_enumerate_scratch`] with a long-lived [`EnumScratch`].
pub(crate) fn forward_enumerate<V: ViableSource, E: EdgeSource>(
    evsa: &EVsa,
    doc: &[u8],
    roles: &StateRoles,
    viable: &V,
    edges: &E,
) -> SpanRelation {
    forward_enumerate_scratch(evsa, doc, roles, viable, edges, &mut EnumScratch::default())
}

/// [`forward_enumerate`] over caller-provided scratch buffers, reused
/// across calls. Rows are written into the scratch's output buffer and
/// handed to the returned relation as one exact-size copy per call —
/// the only per-call allocation.
///
/// A frame's first visit follows its forced moves
/// ([`ViableSource::advance`]). A frame's last viable edge overwrites
/// it with the successor instead of pushing one, keeping the frame's
/// trail mark so that popping it undoes both blocks: no backtrack visit
/// is spent finding that no edges are left.
///
/// Before the first variable operation (an empty undo trail) a frame's
/// whole subtree depends only on its `(state, position)`: the variable
/// tables are still unset. A second such frame would re-emit the first
/// one's rows, so it is dropped unexpanded. This keeps an ambiguous
/// prefix (`(.*a.{11})?.*\.` before a capture) linear in the document:
/// a search over single runs would expand each pre-state position once
/// per run reaching it, a number that grows with the position.
pub(crate) fn forward_enumerate_scratch<V: ViableSource, E: EdgeSource>(
    evsa: &EVsa,
    doc: &[u8],
    roles: &StateRoles,
    viable: &V,
    edges: &E,
    scratch: &mut EnumScratch,
) -> SpanRelation {
    let n = doc.len();
    if !viable.viable(0, evsa.start()) {
        return SpanRelation::empty();
    }
    let nv = evsa.vars().len();

    const UNSET: usize = usize::MAX;
    let EnumScratch {
        opens,
        closes,
        trail,
        stack,
        out,
        expanded,
        frames,
    } = scratch;
    opens.clear();
    opens.resize(nv, UNSET);
    closes.clear();
    closes.resize(nv, UNSET);
    trail.clear();
    stack.clear();
    out.clear();
    expanded.clear();
    expanded.resize(((n + 1) * roles.npre).div_ceil(64), 0);
    *frames += 1;
    let post = &roles.post;
    let mut rows = 0usize;

    fn apply_block(
        block: &[VarOp],
        pos: usize,
        opens: &mut [usize],
        closes: &mut [usize],
        trail: &mut Vec<(usize, bool, usize)>,
    ) {
        for op in block {
            match op {
                VarOp::Open(v) => {
                    trail.push((v.index(), true, opens[v.index()]));
                    opens[v.index()] = pos;
                }
                VarOp::Close(v) => {
                    trail.push((v.index(), false, closes[v.index()]));
                    closes[v.index()] = pos;
                }
            }
        }
    }

    fn undo(
        trail: &mut Vec<(usize, bool, usize)>,
        mark: usize,
        opens: &mut [usize],
        closes: &mut [usize],
    ) {
        while trail.len() > mark {
            let (v, was_open, old) = trail.pop().unwrap();
            if was_open {
                opens[v] = old;
            } else {
                closes[v] = old;
            }
        }
    }

    let emit = |opens: &[usize], closes: &[usize], out: &mut Vec<Span>, rows: &mut usize| {
        debug_assert!(
            (0..nv).all(|i| opens[i] != UNSET && closes[i] != UNSET),
            "functional automaton must assign all variables"
        );
        out.extend((0..nv).map(|i| Span::new(opens[i], closes[i])));
        *rows += 1;
    };

    if post[evsa.start() as usize] {
        // Post-state cutoff at the root (Boolean spanners).
        emit(opens, closes, out, &mut rows);
    } else {
        stack.push(Frame {
            pos: 0,
            state: evsa.start(),
            edge: 0,
            trail_mark: 0,
            emitted_finals: false,
        });
    }

    while let Some(frame) = stack.last_mut() {
        if !frame.emitted_finals {
            // First visit of this frame: let the engine follow the moves
            // that have no alternative (see [`ViableSource::advance`]).
            // Backtracking is unaffected — crossed positions provably
            // have no alternative edges to revisit.
            (frame.pos, frame.state) = viable.advance(doc, frame.pos, frame.state);
            let (pos, state) = (frame.pos, frame.state);
            if trail.is_empty() {
                let i = roles.pre[state as usize];
                if i != StateRoles::NOT_PRE {
                    let bit = pos * roles.npre + i as usize;
                    let (word, mask) = (bit >> 6, 1u64 << (bit & 63));
                    if expanded[word] & mask != 0 {
                        stack.pop();
                        continue;
                    }
                    expanded[word] |= mask;
                }
            }
            frame.emitted_finals = true;
            if pos == n {
                for block in evsa.final_blocks(state) {
                    let mark = trail.len();
                    apply_block(block, pos, opens, closes, trail);
                    emit(opens, closes, out, &mut rows);
                    undo(trail, mark, opens, closes);
                }
            }
        }
        let (pos, state) = (frame.pos, frame.state);

        if pos == n {
            let mark = frame.trail_mark;
            stack.pop();
            undo(trail, mark, opens, closes);
            continue;
        }

        let b = doc[pos];
        let ts = evsa.transitions_from(state);
        let cand = edges.candidates(state, b);
        let mask_checked = cand.needs_mask_check();
        // Take the first live edge into a non-post state, and stop at the
        // next live edge after it, where the frame resumes.
        let mut taken = None;
        while let Some(idx) = cand.get(frame.edge) {
            let (block, mask, r) = &ts[idx];
            if (!mask_checked || mask.contains(b)) && viable.viable(pos + 1, *r) {
                if taken.is_some() {
                    break;
                }
                let mark = trail.len();
                // Block operations happen at the boundary *before* the byte.
                apply_block(block, pos, opens, closes, trail);
                if post[*r as usize] {
                    // The tuple is fully determined and acceptance is
                    // viable: emit and cut the run (trailing context
                    // costs O(1)).
                    emit(opens, closes, out, &mut rows);
                    undo(trail, mark, opens, closes);
                } else {
                    taken = Some((*r, mark));
                }
            }
            frame.edge += 1;
        }
        let Some((state, mark)) = taken else {
            let mark = frame.trail_mark;
            stack.pop();
            undo(trail, mark, opens, closes);
            continue;
        };
        let next = Frame {
            pos: pos + 1,
            state,
            edge: 0,
            trail_mark: mark,
            emitted_finals: false,
        };
        if cand.get(frame.edge).is_none() {
            // The last live edge: its successor takes this frame over.
            *frame = Frame {
                trail_mark: frame.trail_mark,
                ..next
            };
        } else {
            stack.push(next);
        }
        *frames += 1;
    }

    SpanRelation::from_rows(nv, rows, out.to_vec())
}

/// Boolean acceptance: whether the spanner outputs at least one tuple on
/// `doc`. Runs a forward bitset pass only — `O(n · |δ|)` time, `O(|Q|)`
/// space.
pub fn accepts_evsa(evsa: &EVsa, doc: &[u8]) -> bool {
    let ns = evsa.num_states();
    if ns == 0 {
        return false;
    }
    let mut cur = vec![false; ns];
    // Double-buffered frontier: both vectors are allocated once and
    // swapped per byte (the old code allocated a fresh `next` per
    // position).
    let mut next = vec![false; ns];
    cur[evsa.start() as usize] = true;
    for &b in doc {
        next.fill(false);
        let mut any = false;
        for (q, &live) in cur.iter().enumerate() {
            if !live {
                continue;
            }
            for (_, mask, r) in evsa.transitions_from(q as StateId) {
                if mask.contains(b) {
                    next[*r as usize] = true;
                    any = true;
                }
            }
        }
        if !any {
            return false;
        }
        std::mem::swap(&mut cur, &mut next);
    }
    (0..ns).any(|q| cur[q] && !evsa.final_blocks(q as StateId).is_empty())
}

/// Naive reference evaluator: enumerates all span tuples over `doc` and
/// tests each by ref-word membership in the normalized language of the
/// automaton. Exponential in the number of variables — tests only.
pub fn reference_eval(vsa: &Vsa, doc: &[u8]) -> SpanRelation {
    let f = if vsa.is_functional() {
        vsa.clone()
    } else {
        vsa.functionalize()
    };
    let evsa = EVsa::from_functional(&f);
    let ext = ExtAlphabet::from_masks(evsa.vars().clone(), &evsa.byte_masks());
    let nfa = evsa.to_nfa(&ext);
    let nv = evsa.vars().len();
    let n = doc.len();

    let mut spans = Vec::new();
    for i in 0..=n {
        for j in i..=n {
            spans.push(Span::new(i, j));
        }
    }
    let mut out = Vec::new();
    let mut assignment = vec![Span::new(0, 0); nv];
    enumerate(&mut assignment, 0, &spans, &mut |t: &[Span]| {
        let tuple = SpanTuple::new(t.to_vec());
        let rw = crate::refword::RefWord::from_tuple(doc, &tuple);
        let word: Vec<_> = rw
            .syms()
            .iter()
            .map(|s| match s {
                crate::refword::RefSym::Byte(b) => ext.class_sym_of_byte(*b),
                crate::refword::RefSym::Op(op) => ext.op_sym(*op),
            })
            .collect();
        if nfa.accepts(&word) {
            out.push(tuple);
        }
    });
    SpanRelation::from_tuples(out)
}

fn enumerate(assignment: &mut Vec<Span>, i: usize, spans: &[Span], f: &mut impl FnMut(&[Span])) {
    if i == assignment.len() {
        f(assignment);
        return;
    }
    for &s in spans {
        assignment[i] = s;
        enumerate(assignment, i + 1, spans, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rgx::Rgx;
    use crate::vars::VarId;

    fn compile(pattern: &str) -> Vsa {
        Rgx::parse(pattern).unwrap().to_vsa().unwrap()
    }

    #[test]
    fn eval_simple_capture() {
        let p = compile("x{a+}");
        let rel = eval(&p, b"aaa");
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.tuple(0).get(VarId(0)), Span::new(0, 3));
    }

    #[test]
    fn eval_all_matches() {
        // Σ* x{a} Σ* finds every 'a'.
        let p = compile(".*x{a}.*");
        let rel = eval(&p, b"abca");
        assert_eq!(rel.len(), 2);
        let spans: Vec<Span> = rel.iter().map(|t| t.get(VarId(0))).collect();
        assert!(spans.contains(&Span::new(0, 1)));
        assert!(spans.contains(&Span::new(3, 4)));
    }

    #[test]
    fn eval_empty_document() {
        let p = compile("x{a*}");
        let rel = eval(&p, b"");
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.tuple(0).get(VarId(0)), Span::new(0, 0));
    }

    #[test]
    fn eval_no_match() {
        let p = compile("x{a}");
        assert!(eval(&p, b"b").is_empty());
        assert!(eval(&p, b"aa").is_empty());
    }

    #[test]
    fn eval_two_variables() {
        let p = compile("x{a+}b+y{c+}");
        let rel = eval(&p, b"aabbcc");
        assert_eq!(rel.len(), 1);
        let t = rel.tuple(0);
        assert_eq!(t.get(VarId(0)), Span::new(0, 2));
        assert_eq!(t.get(VarId(1)), Span::new(4, 6));
    }

    #[test]
    fn eval_agrees_with_reference() {
        for (pat, doc) in [
            (".*x{a+}.*", b"aabaa".as_slice()),
            ("x{a*}y{b*}", b"aabb"),
            ("(a|b)*x{ab}(a|b)*", b"abab"),
            ("x{(a|b)}y{(a|b)}", b"ab"),
            (".*x{}.*", b"ab"),
        ] {
            let p = compile(pat);
            assert_eq!(eval(&p, doc), reference_eval(&p, doc), "pattern {pat}");
        }
    }

    #[test]
    fn boolean_spanner_yields_unit_tuple() {
        let p = compile("a+b");
        let rel = eval(&p, b"aab");
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.tuple(0), SpanTuple::unit());
        assert!(eval(&p, b"ba").is_empty());
    }

    #[test]
    fn boolean_acceptance() {
        let p = compile("a+b");
        let e = EVsa::from_functional(&p.functionalize());
        assert!(accepts_evsa(&e, b"aab"));
        assert!(!accepts_evsa(&e, b"ab c"));
        assert!(!accepts_evsa(&e, b""));
    }

    #[test]
    fn empty_spans_at_every_position() {
        // Σ* x{} Σ* yields an empty span at every boundary.
        let p = compile(".*x{}.*");
        let rel = eval(&p, b"ab");
        assert_eq!(rel.len(), 3);
    }

    #[test]
    fn highly_ambiguous_automaton_dedups() {
        // Union of the same pattern with itself 3 times: every tuple has
        // multiple accepting runs; the relation must stay a set.
        let p1 = compile(".*x{a+}.*");
        let u = p1.union(&p1).unwrap().union(&p1).unwrap();
        assert_eq!(eval(&u, b"aa b aa"), eval(&p1, b"aa b aa"));
    }

    #[test]
    fn non_ascii_bytes_are_first_class() {
        // Byte classes must cover the full 0..=255 range.
        let mut v = Vsa::new(crate::vars::VarTable::new(["x"]).unwrap());
        let q1 = v.add_state();
        let q2 = v.add_state();
        let hi = crate::byteset::ByteSet::range(0x80, 0xFF);
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
        let rel = eval(&v, &[0x80, 0xC3, 0xFF]);
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.tuple(0).get(VarId(0)), Span::new(0, 3));
        assert!(eval(&v, &[0x80, 0x20]).is_empty(), "0x20 not in the class");
        assert!(eval(&v, &[0x00]).is_empty());
    }

    #[test]
    fn long_document_runs_fast_and_iteratively() {
        // The evaluator must be iterative (no recursion on document
        // length) and output-sensitive (post-state cutoff): 1 MiB of 'a'
        // with an all-boundaries extractor.
        let doc = vec![b'a'; 1 << 20];
        let p = compile("a*x{b*}a*");
        let rel = eval(&p, &doc);
        assert_eq!(rel.len(), doc.len() + 1);
    }

    /// `sentences`' language behind an ambiguous prefix: before the
    /// capture, `(.*a.{11})?.*\.` reaches each position along one run
    /// per earlier `a`. The search still expands each pre-state position
    /// once, so its work grows linearly with the document; re-expanding
    /// them per run takes 16x the frames for 4x the bytes.
    #[test]
    fn ambiguous_prefix_enumerates_in_linear_work() {
        let evsa = EVsa::from_vsa(&compile(r"((.*a...........)?.*\.)?x{[^.]+}(\..*)?"));
        let roles = StateRoles::of(&evsa);
        let sentences = crate::splitter::sentences();
        let frames = |kib: usize| {
            let mut doc = b"Anna has a cat and a bag. Data are vast. ".repeat(kib * 25);
            doc.truncate(kib << 10);
            let mut scratch = EnumScratch::default();
            let viable = viability(&evsa, &doc);
            let rel = forward_enumerate_scratch(
                &evsa,
                &doc,
                &roles,
                &viable,
                &AllEdges(&evsa),
                &mut scratch,
            );
            let spans: Vec<Span> = rel.iter().map(|t| t.get(VarId(0))).collect();
            assert_eq!(spans, sentences.split(&doc), "{kib} KiB");
            scratch.frames
        };
        let (small, large) = (frames(16), frames(64));
        assert!(
            large <= 4 * small + small / 8,
            "16 KiB: {small} frames, 64 KiB: {large} frames"
        );
    }
}
