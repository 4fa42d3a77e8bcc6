//! Document splitters (paper §3) and their algorithmics.
//!
//! A *splitter* is a unary spanner. This module provides:
//!
//! * [`Splitter`] — validated wrapper around a unary [`Vsa`];
//! * [`Splitter::split`] — producing the set of split spans of a document;
//! * [`Splitter::is_disjoint`] — the pairwise-disjointness check of
//!   Proposition 5.5, implemented as a synchronized two-run product
//!   simulation with difference/overlap flags (NL in the automaton size);
//! * [`compose`] — the composed spanner `P ∘ S` (Lemma C.1/C.2): the
//!   explicit three-phase product construction, computable in polynomial
//!   time;
//! * a library of realistic splitters: sentences, lines, paragraphs /
//!   HTTP messages, token N-grams, character windows, and the trivial
//!   whole-document splitter — each in *formal* (VSet-automaton) form,
//!   with fast native counterparts in [`native`] cross-validated by the
//!   test suite.

use crate::byteset::ByteSet;
use crate::dense::DenseConfig;
use crate::engine::{Engine, TieredEvsa};
use crate::eval::eval;
use crate::evsa::EVsa;
use crate::prefilter::PrefilterGate;
use crate::rgx::{Ast, Rgx};
use crate::span::Span;
use crate::stream::{SplitterState, StreamTables};
use crate::vars::{VarId, VarOp};
use crate::vsa::{Label, Vsa};
use splitc_automata::nfa::StateId;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, OnceLock};

/// A document splitter: a unary spanner.
#[derive(Debug, Clone)]
pub struct Splitter {
    vsa: Vsa,
}

impl Splitter {
    /// Wraps a unary VSet-automaton; errors when the arity is not 1.
    pub fn new(vsa: Vsa) -> Result<Splitter, String> {
        if vsa.vars().len() != 1 {
            return Err(format!(
                "a splitter must have exactly one variable, got {}",
                vsa.vars()
            ));
        }
        Ok(Splitter { vsa })
    }

    /// Builds a splitter from a regex formula with one variable.
    pub fn from_rgx(rgx: &Rgx) -> Result<Splitter, String> {
        Splitter::new(rgx.to_vsa().map_err(|e| e.to_string())?)
    }

    /// Parses a one-variable regex formula into a splitter.
    pub fn parse(pattern: &str) -> Result<Splitter, String> {
        Splitter::from_rgx(&Rgx::parse(pattern).map_err(|e| e.to_string())?)
    }

    /// The underlying automaton.
    pub fn vsa(&self) -> &Vsa {
        &self.vsa
    }

    /// The splitter variable's name (`x_S`).
    pub fn var_name(&self) -> &str {
        self.vsa.vars().name(VarId(0))
    }

    /// Evaluates the splitter: the set of split spans of `doc`, sorted.
    pub fn split(&self, doc: &[u8]) -> Vec<Span> {
        eval(&self.vsa, doc)
            .iter()
            .map(|t| t.get(VarId(0)))
            .collect()
    }

    /// Compiled splitting for repeated use: block normal form plus the
    /// `prefilter` engine (the dense byte-class / lazy-DFA fast path
    /// behind the splitter's document gate; see [`CompiledSplitter`]).
    pub fn compile(&self) -> CompiledSplitter {
        CompiledSplitter::new(TieredEvsa::compile(
            Arc::new(EVsa::from_vsa(&self.vsa)),
            Engine::Prefilter,
            DenseConfig::default(),
            None,
        ))
    }

    /// Proposition 5.5: whether the splitter is *disjoint* — for every
    /// document, the produced spans are pairwise disjoint (paper §3).
    ///
    /// Implementation: a product of two synchronized runs of the splitter
    /// over the same document, tracking each run's phase (before / inside
    /// / after its span), whether the two spans provably differ, and
    /// whether an overlap has been witnessed. The splitter is disjoint
    /// iff no accepting product configuration has both flags set.
    pub fn is_disjoint(&self) -> bool {
        let compiled = self.compile();
        let report = two_run_report(compiled.evsa(), compiled.evsa());
        !report.distinct_overlapping
    }

    /// Determinizes the underlying automaton (Prop. 4.4), yielding a
    /// splitter usable with the polynomial-time fast paths (dfVSA
    /// inputs). Worst-case exponential, one-time cost.
    pub fn determinize(&self) -> Splitter {
        Splitter {
            vsa: self.vsa.determinize(),
        }
    }
}

/// Findings of the synchronized two-run product analysis of two unary
/// spanners over the same document (the engine behind Prop. 5.5 and the
/// "highlander" check for annotated splitters, App. E).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwoRunReport {
    /// Some document admits a run of each automaton producing *distinct,
    /// overlapping* spans.
    pub distinct_overlapping: bool,
    /// Some document admits a run of each automaton producing the *same*
    /// span.
    pub equal_spans: bool,
}

/// Runs the synchronized two-run product of two unary block-normal-form
/// automata over a common (guessed) document, tracking each run's phase
/// (before / inside / after its span), whether the spans provably
/// differ, and whether an overlap has been witnessed.
pub fn two_run_report(e1: &EVsa, e2: &EVsa) -> TwoRunReport {
    assert_eq!(e1.vars().len(), 1, "two-run analysis is for splitters");
    assert_eq!(e2.vars().len(), 1, "two-run analysis is for splitters");

    #[derive(Clone, Copy, PartialEq, Eq, Hash)]
    struct Cfg {
        q1: StateId,
        q2: StateId,
        ph1: u8, // 0 before, 1 inside, 2 after
        ph2: u8,
        diff: bool,
        overlap: bool,
    }

    // Applies a block to a phase; returns (new phase, opened, closed).
    fn step_phase(ph: u8, block: &[VarOp]) -> Option<(u8, bool, bool)> {
        let opens = block.iter().any(|op| op.is_open());
        let closes = block.iter().any(|op| !op.is_open());
        let mut p = ph;
        if opens {
            if p != 0 {
                return None;
            }
            p = 1;
        }
        if closes {
            if p != 1 {
                return None;
            }
            p = 2;
        }
        Some((p, opens, closes))
    }

    // Combines two block applications; returns updated flags or None
    // when inconsistent.
    fn apply_blocks(cfg: Cfg, b1: &[VarOp], b2: &[VarOp]) -> Option<Cfg> {
        let (ph1, o1, c1) = step_phase(cfg.ph1, b1)?;
        let (ph2, o2, c2) = step_phase(cfg.ph2, b2)?;
        let mut diff = cfg.diff;
        // Opens (closes) at different boundaries => different spans.
        if o1 != o2 || c1 != c2 {
            diff = true;
        }
        let mut overlap = cfg.overlap;
        // Empty span of one run at a boundary strictly inside the other
        // span (the paper's overlap definition on empty spans).
        if o1 && c1 && ph2 == 1 {
            overlap = true;
        }
        if o2 && c2 && ph1 == 1 {
            overlap = true;
        }
        Some(Cfg {
            q1: cfg.q1,
            q2: cfg.q2,
            ph1,
            ph2,
            diff,
            overlap,
        })
    }

    let start = Cfg {
        q1: e1.start(),
        q2: e2.start(),
        ph1: 0,
        ph2: 0,
        diff: false,
        overlap: false,
    };
    let mut report = TwoRunReport {
        distinct_overlapping: false,
        equal_spans: false,
    };
    let mut seen: HashMap<Cfg, ()> = HashMap::new();
    let mut queue: VecDeque<Cfg> = VecDeque::new();
    seen.insert(start, ());
    queue.push_back(start);
    while let Some(cfg) = queue.pop_front() {
        // Acceptance: both runs take a final block at document end.
        for fb1 in e1.final_blocks(cfg.q1) {
            for fb2 in e2.final_blocks(cfg.q2) {
                if let Some(end) = apply_blocks(cfg, fb1, fb2) {
                    if end.ph1 == 2 && end.ph2 == 2 {
                        if end.diff && end.overlap {
                            report.distinct_overlapping = true;
                        }
                        if !end.diff {
                            report.equal_spans = true;
                        }
                    }
                }
            }
        }
        if report.distinct_overlapping && report.equal_spans {
            return report;
        }
        // Byte steps.
        for (b1, m1, r1) in e1.transitions_from(cfg.q1) {
            for (b2, m2, r2) in e2.transitions_from(cfg.q2) {
                if m1.and(m2).is_empty() {
                    continue;
                }
                let Some(mut next) = apply_blocks(cfg, b1, b2) else {
                    continue;
                };
                // Consuming a byte with both runs inside: overlap.
                if next.ph1 == 1 && next.ph2 == 1 {
                    next.overlap = true;
                }
                next.q1 = *r1;
                next.q2 = *r2;
                if let std::collections::hash_map::Entry::Vacant(e) = seen.entry(next) {
                    e.insert(());
                    queue.push_back(next);
                }
            }
        }
    }
    report
}

/// A splitter compiled to block normal form on the tiered engine core
/// ([`TieredEvsa`]) — the gated `prefilter` engine by default, or the
/// `aot` tier — plus [`StreamTables`] for incremental (chunk-by-chunk)
/// splitting, built lazily on the first [`CompiledSplitter::stream`]
/// call so batch-only callers never pay the phase-DFA determinization.
/// A splitter whose phase DFAs exceed their budget has no stream
/// tables and no stream: callers buffer its documents and split them
/// with this tier (see [`crate::stream`]).
#[derive(Debug, Clone)]
pub struct CompiledSplitter {
    core: Arc<TieredEvsa>,
    stream: OnceLock<Option<Arc<StreamTables>>>,
}

impl CompiledSplitter {
    /// Wraps a compiled unary automaton (see [`Splitter::compile`] for
    /// the default engine).
    ///
    /// # Panics
    ///
    /// When the automaton does not have exactly one variable.
    pub fn new(core: TieredEvsa) -> CompiledSplitter {
        assert_eq!(core.evsa().vars().len(), 1, "a splitter is unary");
        CompiledSplitter {
            core: Arc::new(core),
            stream: OnceLock::new(),
        }
    }

    /// The underlying block-normal-form automaton.
    pub fn evsa(&self) -> &EVsa {
        self.core.evsa()
    }

    /// The tier the splitter compiled to (see [`TieredEvsa::tier`]).
    pub fn tier(&self) -> Engine {
        self.core.tier()
    }

    /// The splitter's document gate (see [`crate::prefilter`]):
    /// documents shorter than the minimum split length (or missing a
    /// required byte) split to nothing without touching the tables.
    /// `None` only when an `aot` request fell back to plain dense.
    pub fn gate(&self) -> Option<&PrefilterGate> {
        self.core.gate()
    }

    /// Splits a document (the gate, then the compiled tier; exact NFA
    /// fallback when a lazy-DFA cache bound is hit).
    pub fn split(&self, doc: &[u8]) -> Vec<Span> {
        self.core
            .eval(doc)
            .iter()
            .map(|t| t.get(VarId(0)))
            .collect()
    }

    /// Starts an incremental split of one document stream: feed bytes
    /// chunk by chunk with [`SplitterState::push`] and close the stream
    /// with [`SplitterState::finish`]. Emitted spans are exactly those
    /// of [`CompiledSplitter::split`], in the same ascending order,
    /// without the document ever being materialized (see
    /// [`crate::stream`] for the buffering contract). The tables are
    /// compiled on first use and shared afterwards; each call returns
    /// independent per-stream state. `None` when the phase DFAs exceed
    /// their budget: such a splitter has no incremental form, and a
    /// caller buffers the whole document and calls
    /// [`CompiledSplitter::split`] on it.
    pub fn stream(&self) -> Option<SplitterState> {
        self.stream
            .get_or_init(|| StreamTables::compile(self.evsa()).map(Arc::new))
            .clone()
            .map(SplitterState::new)
    }
}

/// The composed spanner `P_S ∘ S` (Lemma C.1/C.2): evaluates `P_S` on
/// every substring extracted by `S`, with shifted indices. The result is
/// a VSet-automaton of size `O(|P_S| · |S|)` over `SVars(P_S)`.
///
/// Construction (paper Appendix C): three phases — (1) simulate `S`
/// before its variable opens, (2) simulate `S` and `P_S` jointly inside
/// the split, entered on `S`'s `x⊢` with `P_S` at its start state and
/// left on `S`'s `⊣x` from accepting `P_S` states, (3) simulate `S` after
/// the split; accepting where `S` accepts.
pub fn compose(ps: &Vsa, s: &Splitter) -> Vsa {
    let sv = s.vsa();
    let mut out = Vsa::new(ps.vars().clone());

    // Phase-1 and phase-3 states: one per S state.
    let n_s = sv.num_states();
    // out state 0 exists; we lay out: phase1[q] then phase3[q] then
    // phase2 pairs discovered on demand.
    let mut phase1: Vec<StateId> = Vec::with_capacity(n_s);
    let mut phase3: Vec<StateId> = Vec::with_capacity(n_s);
    for q in 0..n_s {
        let id = if q == sv.start() as usize {
            0
        } else {
            out.add_state()
        };
        phase1.push(id);
    }
    // Make sure start maps correctly even if S's start is not 0.
    phase1[sv.start() as usize] = 0;
    for _ in 0..n_s {
        phase3.push(out.add_state());
    }
    let mut phase2: HashMap<(StateId, StateId), StateId> = HashMap::new();
    let mut queue: VecDeque<(StateId, StateId)> = VecDeque::new();
    let get2 = |out: &mut Vsa,
                queue: &mut VecDeque<(StateId, StateId)>,
                phase2: &mut HashMap<(StateId, StateId), StateId>,
                q: StateId,
                p: StateId|
     -> StateId {
        *phase2.entry((q, p)).or_insert_with(|| {
            queue.push_back((q, p));
            out.add_state()
        })
    };

    // Phase 1 and 3 transitions; phase-2 entry on x⊢.
    for q in 0..n_s as StateId {
        out.set_final(phase3[q as usize], sv.is_final(q));
        for &(l, r) in sv.transitions_from(q) {
            match l {
                Label::Bytes(m) => {
                    out.add_transition(phase1[q as usize], Label::Bytes(m), phase1[r as usize]);
                    out.add_transition(phase3[q as usize], Label::Bytes(m), phase3[r as usize]);
                }
                Label::Eps => {
                    out.add_transition(phase1[q as usize], Label::Eps, phase1[r as usize]);
                    out.add_transition(phase3[q as usize], Label::Eps, phase3[r as usize]);
                }
                Label::Op(op) => {
                    if op.is_open() {
                        // Enter phase 2 with P_S at its start.
                        let id = get2(&mut out, &mut queue, &mut phase2, r, ps.start());
                        out.add_transition(phase1[q as usize], Label::Eps, id);
                    }
                    // ⊣x handled from phase-2 states below.
                }
            }
        }
    }

    // Phase-2 exploration.
    while let Some((q, p)) = queue.pop_front() {
        let id = phase2[&(q, p)];
        // S's ⊣x: leave the split when P_S accepts.
        for &(l, r) in sv.transitions_from(q) {
            match l {
                Label::Op(op) if !op.is_open() && ps.is_final(p) => {
                    out.add_transition(id, Label::Eps, phase3[r as usize]);
                }
                Label::Eps => {
                    let rid = get2(&mut out, &mut queue, &mut phase2, r, p);
                    out.add_transition(id, Label::Eps, rid);
                }
                _ => {}
            }
        }
        for &(l, r) in ps.transitions_from(p) {
            match l {
                Label::Op(op) => {
                    let rid = get2(&mut out, &mut queue, &mut phase2, q, r);
                    out.add_transition(id, Label::Op(op), rid);
                }
                Label::Eps => {
                    let rid = get2(&mut out, &mut queue, &mut phase2, q, r);
                    out.add_transition(id, Label::Eps, rid);
                }
                Label::Bytes(mp) => {
                    // Both advance on a byte.
                    for &(ls, rs) in sv.transitions_from(q) {
                        if let Label::Bytes(ms) = ls {
                            let m = mp.and(&ms);
                            if m.is_empty() {
                                continue;
                            }
                            let rid = get2(&mut out, &mut queue, &mut phase2, rs, r);
                            out.add_transition(id, Label::Bytes(m), rid);
                        }
                    }
                }
            }
        }
    }

    out.trim()
}

/// Splitter composition `S₁ ∘ S₂` (Lemma 6.1): split by `S₂`, then apply
/// `S₁` within every chunk.
pub fn compose_splitter(s1: &Splitter, s2: &Splitter) -> Splitter {
    Splitter::new(compose(s1.vsa(), s2)).expect("composition of a unary spanner is unary")
}

// ---------------------------------------------------------------------
// Built-in splitter library.
// ---------------------------------------------------------------------

/// Sentence splitter: maximal period-free chunks, delimited by `.`
/// (periods excluded from the span). Disjoint.
pub fn sentences() -> Splitter {
    Splitter::parse(r"(.*\.)?x{[^.]+}(\..*)?").expect("builtin")
}

/// Line splitter: maximal newline-free chunks. Disjoint.
pub fn lines() -> Splitter {
    Splitter::parse("(.*\\n)?x{[^\\n]+}(\\n.*)?").expect("builtin")
}

/// Paragraph splitter: maximal chunks free of blank lines (`\n\n`),
/// not beginning or ending with a newline. Disjoint.
pub fn paragraphs() -> Splitter {
    Splitter::parse("(.*\\n\\n)?x{[^\\n]+(\\n[^\\n]+)*}(\\n\\n.*|\\n?)").expect("builtin")
}

/// HTTP-message splitter: messages in a log are separated by blank
/// lines, exactly like paragraphs (paper §1 and §3.1).
pub fn http_messages() -> Splitter {
    paragraphs()
}

/// The trivial splitter selecting the whole document. Disjoint.
pub fn whole_document() -> Splitter {
    Splitter::parse("x{.*}").expect("builtin")
}

/// Token N-gram splitter: `n` consecutive tokens (`[A-Za-z0-9]+`)
/// separated by single spaces (paper §1, §3). **Not** disjoint for
/// `n > 1`.
pub fn ngrams(n: usize) -> Splitter {
    assert!(n >= 1, "N-grams need n >= 1");
    let tok = "[A-Za-z0-9]+";
    let mut inner = String::from(tok);
    for _ in 1..n {
        inner.push(' ');
        inner.push_str(tok);
    }
    // Token boundaries are any non-alphanumeric byte (or the document
    // edge) — this matches the native splitter and keeps N-gram
    // extraction self-splittable by sentence/line/paragraph splitters.
    let pattern = format!("(.*[^A-Za-z0-9]|)x{{{inner}}}([^A-Za-z0-9].*|)");
    Splitter::parse(&pattern).expect("builtin")
}

/// Bounded token-window splitter: every window of **at most** `n`
/// consecutive tokens, with arbitrary (non-empty, non-alphanumeric)
/// separators between tokens — the "windows of a bounded number N of
/// words" reading of N-grams in the paper's §1. Unlike [`ngrams`]
/// (exactly-`n` windows, single-space separators), this variant also
/// covers documents shorter than `n` tokens, which is what makes the
/// §3.1 claim "a proximity extractor spanning ≤ n tokens is
/// self-splittable by n-grams" hold on *all* documents.
pub fn ngram_windows(n: usize) -> Splitter {
    assert!(n >= 1, "windows need n >= 1");
    let tok = "[A-Za-z0-9]+";
    let sep = "[^A-Za-z0-9]+";
    let mut branches = Vec::new();
    for k in 1..=n {
        let mut inner = String::from(tok);
        for _ in 1..k {
            inner.push_str(sep);
            inner.push_str(tok);
        }
        branches.push(format!("(.*[^A-Za-z0-9]|)x{{{inner}}}([^A-Za-z0-9].*|)"));
    }
    Splitter::parse(&branches.join("|")).expect("builtin")
}

/// Character window splitter: every contiguous `k`-byte window. Not
/// disjoint for `k > 0` on documents longer than `k`.
pub fn char_windows(k: usize) -> Splitter {
    let mut win = Vec::with_capacity(k);
    for _ in 0..k {
        win.push(Ast::Bytes(ByteSet::FULL));
    }
    let ast = Ast::Concat(vec![
        Ast::Star(Box::new(Ast::Bytes(ByteSet::FULL))),
        Ast::Var("x".into(), Box::new(Ast::Concat(win))),
        Ast::Star(Box::new(Ast::Bytes(ByteSet::FULL))),
    ]);
    Splitter::from_rgx(&Rgx::from_ast(ast).expect("builtin")).expect("builtin")
}

/// Fast native splitter implementations, cross-validated against the
/// formal (automaton) splitters by the test suite. These are what the
/// execution engine uses on large corpora.
pub mod native {
    use crate::span::Span;

    /// Maximal runs of bytes different from `delim`.
    pub fn split_by_delim(doc: &[u8], delim: u8) -> Vec<Span> {
        let mut out = Vec::new();
        let mut start = None;
        for (i, &b) in doc.iter().enumerate() {
            if b == delim {
                if let Some(s) = start.take() {
                    out.push(Span::new(s, i));
                }
            } else if start.is_none() {
                start = Some(i);
            }
        }
        if let Some(s) = start {
            out.push(Span::new(s, doc.len()));
        }
        out
    }

    /// Native sentence splitter (delimiter `.`), matching
    /// [`super::sentences`].
    pub fn sentences(doc: &[u8]) -> Vec<Span> {
        split_by_delim(doc, b'.')
    }

    /// Native line splitter, matching [`super::lines`].
    pub fn lines(doc: &[u8]) -> Vec<Span> {
        split_by_delim(doc, b'\n')
    }

    /// Native paragraph splitter (blocks separated by blank lines, spans
    /// trimmed of boundary newlines), matching [`super::paragraphs`].
    pub fn paragraphs(doc: &[u8]) -> Vec<Span> {
        let mut out = Vec::new();
        let n = doc.len();
        let mut i = 0;
        while i < n {
            // Skip newlines.
            while i < n && doc[i] == b'\n' {
                i += 1;
            }
            if i >= n {
                break;
            }
            let start = i;
            // Scan to the next blank line or the end.
            let mut end = i;
            while i < n {
                if doc[i] == b'\n' && i + 1 < n && doc[i + 1] == b'\n' {
                    break;
                }
                if doc[i] != b'\n' {
                    end = i + 1;
                }
                i += 1;
            }
            out.push(Span::new(start, end));
        }
        out
    }

    /// Native token N-gram splitter, matching [`super::ngrams`]: spans of
    /// `n` consecutive `[A-Za-z0-9]+` tokens separated by single spaces.
    pub fn ngrams(doc: &[u8], n: usize) -> Vec<Span> {
        let is_tok = |b: u8| b.is_ascii_alphanumeric();
        // Token spans.
        let mut toks: Vec<Span> = Vec::new();
        let mut start = None;
        for (i, &b) in doc.iter().enumerate() {
            if is_tok(b) {
                if start.is_none() {
                    start = Some(i);
                }
            } else if let Some(s) = start.take() {
                toks.push(Span::new(s, i));
            }
        }
        if let Some(s) = start {
            toks.push(Span::new(s, doc.len()));
        }
        let mut out = Vec::new();
        if n == 0 || toks.len() < n {
            return out;
        }
        'outer: for w in toks.windows(n) {
            // Consecutive tokens must be separated by exactly one space.
            for pair in w.windows(2) {
                let gap = &doc[pair[0].end..pair[1].start];
                if gap != b" " {
                    continue 'outer;
                }
            }
            out.push(Span::new(w[0].start, w[n - 1].end));
        }
        out
    }

    /// Native bounded token-window splitter, matching
    /// [`super::ngram_windows`]: all windows of 1..=n consecutive
    /// tokens (maximal alphanumeric runs), any separators.
    pub fn ngram_windows(doc: &[u8], n: usize) -> Vec<Span> {
        let is_tok = |b: u8| b.is_ascii_alphanumeric();
        let mut toks: Vec<Span> = Vec::new();
        let mut start = None;
        for (i, &b) in doc.iter().enumerate() {
            if is_tok(b) {
                if start.is_none() {
                    start = Some(i);
                }
            } else if let Some(s) = start.take() {
                toks.push(Span::new(s, i));
            }
        }
        if let Some(s) = start {
            toks.push(Span::new(s, doc.len()));
        }
        let mut out = Vec::new();
        for k in 1..=n.min(toks.len()) {
            for w in toks.windows(k) {
                out.push(Span::new(w[0].start, w[k - 1].end));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Native character-window splitter, matching
    /// [`super::char_windows`].
    pub fn char_windows(doc: &[u8], k: usize) -> Vec<Span> {
        if doc.len() < k {
            return Vec::new();
        }
        (0..=doc.len() - k).map(|i| Span::new(i, i + k)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitter_requires_unary() {
        let v = Rgx::parse("x{a}y{b}").unwrap().to_vsa().unwrap();
        assert!(Splitter::new(v).is_err());
        assert!(Splitter::parse("x{a}").is_ok());
    }

    #[test]
    fn sentences_split_and_are_disjoint() {
        let s = sentences();
        let doc = b"Hello world. How are you. Fine";
        let spans = s.split(doc);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].slice(doc), b"Hello world");
        assert_eq!(spans[1].slice(doc), b" How are you");
        assert_eq!(spans[2].slice(doc), b" Fine");
        assert!(s.is_disjoint());
        assert_eq!(spans, native::sentences(doc));
    }

    #[test]
    fn lines_match_native() {
        let s = lines();
        let doc = b"a b\nc\n\nd\n";
        assert_eq!(s.split(doc), native::lines(doc));
        assert!(s.is_disjoint());
    }

    #[test]
    fn paragraphs_match_native() {
        let s = paragraphs();
        for doc in [
            b"one para".as_slice(),
            b"p one\nstill one\n\np two",
            b"a\n\nb\n\nc",
            b"a\n\n\nb",
            b"trailing\n",
            b"x\n\n",
        ] {
            assert_eq!(
                s.split(doc),
                native::paragraphs(doc),
                "doc {:?}",
                String::from_utf8_lossy(doc)
            );
        }
        assert!(s.is_disjoint());
    }

    #[test]
    fn tiered_compile_splits_identically() {
        let tiered = |s: &Splitter, budget| {
            CompiledSplitter::new(TieredEvsa::compile_within(
                Arc::new(EVsa::from_vsa(s.vsa())),
                Engine::Aot,
                DenseConfig::default(),
                None,
                budget,
            ))
        };
        for s in [sentences(), lines(), paragraphs()] {
            let dense = s.compile();
            let aot = tiered(&s, crate::aot::AOT_BUDGET);
            assert_eq!(aot.tier(), Engine::Aot);
            for doc in [
                b"Hello world. How are you. Fine".as_slice(),
                b"a b\nc\n\nd\n",
                b"",
                b"...",
            ] {
                assert_eq!(aot.split(doc), dense.split(doc));
            }
        }
        // A starved budget degrades to dense, with identical splits.
        let s = sentences();
        let starved = tiered(&s, 1);
        assert_eq!(starved.tier(), Engine::Dense);
        let doc = b"Hello world. Fine";
        assert_eq!(starved.split(doc), s.compile().split(doc));
    }

    #[test]
    fn ngrams_match_native_and_nondisjoint() {
        let doc = b"one two three four";
        for n in 1..=3 {
            let s = ngrams(n);
            assert_eq!(s.split(doc), native::ngrams(doc, n), "n={n}");
        }
        assert!(ngrams(1).is_disjoint(), "1-grams are disjoint");
        assert!(!ngrams(2).is_disjoint(), "2-grams overlap (paper §3)");
    }

    #[test]
    fn ngram_counts() {
        let doc = b"a bb ccc dddd";
        assert_eq!(ngrams(2).split(doc).len(), 3);
        assert_eq!(ngrams(4).split(doc).len(), 1);
        assert!(ngrams(5).split(doc).is_empty());
    }

    #[test]
    fn ngram_windows_match_native() {
        for doc in [
            b"one two three".as_slice(),
            b"aa.bb cc",
            b"single",
            b"",
            b"..!",
        ] {
            for n in 1..=3 {
                let s = ngram_windows(n);
                assert_eq!(
                    s.split(doc),
                    native::ngram_windows(doc, n),
                    "n={n} doc={:?}",
                    String::from_utf8_lossy(doc)
                );
            }
        }
        assert!(!ngram_windows(2).is_disjoint());
    }

    #[test]
    fn char_windows_overlap() {
        let s = char_windows(2);
        let doc = b"abc";
        assert_eq!(s.split(doc), native::char_windows(doc, 2));
        assert_eq!(s.split(doc).len(), 2);
        assert!(!s.is_disjoint());
    }

    #[test]
    fn whole_document_is_disjoint() {
        let s = whole_document();
        assert_eq!(s.split(b"abc"), vec![Span::new(0, 3)]);
        assert!(s.is_disjoint());
    }

    #[test]
    fn paper_example_5_8_splitter_is_not_disjoint() {
        // S = x{ab}b + ax{bb} on "abb" produces [1,3⟩ and [2,4⟩ (1-based)
        // which overlap.
        let s = Splitter::parse("x{ab}b|a(x{bb})").unwrap();
        let spans = s.split(b"abb");
        assert_eq!(spans, vec![Span::new(0, 2), Span::new(1, 3)]);
        assert!(!s.is_disjoint());
    }

    #[test]
    fn empty_span_overlap_detected() {
        // S selects the whole doc and an empty span in the middle:
        // x{aa} | ax{}a — [0,2) overlaps [1,1).
        let s = Splitter::parse("x{aa}|a(x{})a").unwrap();
        assert!(!s.is_disjoint());
        // But an empty span at the *end* boundary of another span does
        // not overlap (paper's strict inequality): x{a}a | a x{} a.
        let s2 = Splitter::parse("x{a}a|a(x{})a").unwrap();
        assert!(s2.is_disjoint());
    }

    #[test]
    fn compose_shifts_results() {
        // P_S = y{b}, S = sentences; P = P_S ∘ S finds 'b' only relative
        // to sentence starts... here: locate 'b' at any position within a
        // chunk: use y over chunk content.
        let ps = Rgx::parse(".*y{b}.*").unwrap().to_vsa().unwrap();
        let s = sentences();
        let composed = compose(&ps, &s);
        let doc = b"ab.ba";
        let rel = eval(&composed, doc);
        let spans: Vec<Span> = rel.iter().map(|t| t.get(VarId(0))).collect();
        assert_eq!(spans, vec![Span::new(1, 2), Span::new(3, 4)]);
    }

    #[test]
    fn compose_definition_agrees_pointwise() {
        // (P_S ∘ S)(d) = union over s in S(d) of shifted P_S(d_s).
        let ps = Rgx::parse("y{[ab]+}").unwrap().to_vsa().unwrap();
        let s = sentences();
        let composed = compose(&ps, &s);
        for doc in [b"ab.ba.aa".as_slice(), b"ab", b"", b"..", b"a.b."] {
            let direct = eval(&composed, doc);
            let mut expected = Vec::new();
            for sp in s.split(doc) {
                for t in eval(&ps, sp.slice(doc)).iter() {
                    expected.push(t.shift(sp));
                }
            }
            let expected = crate::tuple::SpanRelation::from_tuples(expected);
            assert_eq!(direct, expected, "doc {:?}", String::from_utf8_lossy(doc));
        }
    }

    #[test]
    fn compose_splitter_pages_then_paragraphs() {
        // Splitting lines inside sentences == composing the splitters.
        let inner = lines();
        let outer = sentences();
        let combined = compose_splitter(&inner, &outer);
        let doc = b"a\nb.c\nd";
        let mut expected = Vec::new();
        for sp in outer.split(doc) {
            for inner_sp in inner.split(sp.slice(doc)) {
                expected.push(inner_sp.shift(sp));
            }
        }
        expected.sort();
        expected.dedup();
        assert_eq!(combined.split(doc), expected);
    }

    #[test]
    fn compiled_splitter_matches() {
        let s = sentences();
        let c = s.compile();
        let doc = b"one. two. three";
        assert_eq!(s.split(doc), c.split(doc));
    }

    #[test]
    fn compiled_splitter_gate_short_circuits() {
        // Sentences need at least one non-period byte; the empty
        // document and all-period documents are gate-rejected, with
        // results identical to the ungated path.
        let c = sentences().compile();
        assert!(c.gate().unwrap().rejects(b""));
        assert_eq!(c.split(b""), sentences().split(b""));
        assert_eq!(c.split(b"..."), sentences().split(b"..."));
        // char_windows(3) has min split length 3.
        let w = char_windows(3).compile();
        assert!(w.gate().unwrap().rejects(b"ab"));
        for doc in [b"ab".as_slice(), b"abc", b"abcd"] {
            assert_eq!(w.split(doc), char_windows(3).split(doc));
        }
        assert!(w.split(b"ab").is_empty());
    }
}
