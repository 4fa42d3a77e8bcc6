//! The cover condition (paper §5.1.2).
//!
//! `P` and `S` satisfy the *cover condition* when every output tuple of
//! `P` on any document is covered by (contained in) some split of `S` on
//! that document (Definition 5.2). It is necessary for splittability
//! (Lemma 5.3).
//!
//! * [`cover_condition`] — the general check (Lemma 5.4): the condition
//!   holds iff `P ⊆ P_V ∘ S` where `P_V` is the universal spanner over
//!   `SVars(P)`. PSPACE-complete; implemented via the spanner-containment
//!   engine.
//! * [`cover_condition_df`] — the polynomial-time check for deterministic
//!   functional automata with a disjoint splitter (Lemma 5.6): reduces to
//!   containment of *unambiguous* automata `A_P ⊆ A_S` over a bit-marked
//!   alphabet, decided by accepting-path counting (Stearns–Hunt).

use crate::error::CertError;
use crate::split_correctness::{CounterExample, FastPathError, Verdict};
use splitc_automata::nfa::{Nfa, StateId, Sym};
use splitc_automata::ops::{self, Containment};
use splitc_automata::unambiguous;
use splitc_spanner::byteset::ByteSet;
use splitc_spanner::equiv::SpannerCheck;
use splitc_spanner::ext::{ExtAlphabet, ExtSym};
use splitc_spanner::splitter::{compose, Splitter};
use splitc_spanner::tuple::SpanTuple;
use splitc_spanner::vars::{VarId, VarOp};
use splitc_spanner::vsa::{Label, VarStatus, Vsa};

/// The universal spanner `P_V`: on every document it outputs **every**
/// possible `(V, d)`-tuple (used in the Lemma 5.4 reduction).
pub fn universal_spanner(vars: &splitc_spanner::vars::VarTable) -> Vsa {
    let mut v = Vsa::new(vars.clone());
    v.set_final(0, true);
    v.add_transition(0, Label::Bytes(ByteSet::FULL), 0);
    for var in vars.iter() {
        v.add_transition(0, Label::Op(VarOp::Open(var)), 0);
        v.add_transition(0, Label::Op(VarOp::Close(var)), 0);
    }
    v
}

/// General cover-condition check (Lemma 5.4): `P ⊆ P_V ∘ S`.
/// PSPACE-complete for the general spanner classes.
pub fn cover_condition(p: &Vsa, s: &Splitter) -> Verdict {
    let pv = universal_spanner(p.vars());
    let composed = compose(&pv, s);
    match splitc_spanner::spanner_contains(p, &composed)
        .expect("P_V shares P's variables by construction")
    {
        SpannerCheck::Holds => Verdict::Holds,
        SpannerCheck::Counterexample { doc, tuple, .. } => Verdict::Fails(CounterExample {
            doc,
            tuple,
            split: None,
            left_has_it: true,
            reason: "cover condition violated: no split covers this tuple".into(),
        }),
    }
}

/// Polynomial-time cover-condition check for deterministic functional
/// VSet-automata and disjoint splitters (Lemma 5.6).
///
/// Constructs the bit-marked automata `A_P` (ref-words of `P` with the
/// operation region flagged) and `A_S` (the same words whose flagged
/// region fits inside some split of `S`) and decides `L(A_P) ⊆ L(A_S)`
/// by unambiguous-automaton containment. If the construction turns out
/// ambiguous (possible only in boundary corner cases involving empty
/// spans at split borders), falls back to classical containment for
/// exactness.
pub fn cover_condition_df(p: &Vsa, s: &Splitter) -> Result<Verdict, CertError> {
    validate_df(p, "P")?;
    validate_df(s.vsa(), "S")?;
    if !s.is_disjoint() {
        return Err(FastPathError::new("splitter is not disjoint").into());
    }
    Ok(cover_condition_df_prechecked(p, s))
}

/// [`cover_condition_df`] minus the precondition validation — for
/// callers that have already established determinism, functionality,
/// and disjointness (the split-correctness fast path validates the
/// whole triple once; the batch certifier validates per batch).
///
/// A `Holds` from the unambiguous route is not exact:
/// [`unambiguous::ufa_contains_unchecked`] answers "contained" when the
/// accepting-path counts agree modulo the three
/// `splitc_automata::counting::COUNT_PRIMES`, which is strong evidence,
/// not a proof. Only a failure is confirmed by classical containment
/// (for its witness). Exact counting is ROADMAP item 13.
pub(crate) fn cover_condition_df_prechecked(p: &Vsa, s: &Splitter) -> Verdict {
    let p = p.trim();
    let s_vsa = s.vsa().trim();
    let mut masks = p.byte_masks();
    masks.extend(s_vsa.byte_masks());
    let ext = ExtAlphabet::from_masks(p.vars().clone(), &masks);

    if p.vars().is_empty() {
        // Boolean spanner: the empty tuple is covered by any split, so
        // the condition is "wherever P outputs, S outputs": L_P ⊆ L_{S≠∅}.
        return boolean_cover(&p, &s_vsa, &ext);
    }

    let ap = build_ap(&p, &ext);
    let as_ = build_as(&s_vsa, &ext, p.vars().len());

    let exact = |ap: &Nfa, as_: &Nfa| -> Verdict {
        match ops::contains(ap, as_) {
            Containment::Contained => Verdict::Holds,
            Containment::Counterexample(w) => Verdict::Fails(decode_marked_witness(&ext, &w)),
        }
    };

    if unambiguous::is_unambiguous(&ap) && unambiguous::is_unambiguous(&as_) {
        if unambiguous::ufa_contains_unchecked(&ap, &as_) {
            Verdict::Holds
        } else {
            // Produce a witness via the classical procedure (only on
            // failure; the common case stays polynomial).
            exact(&ap, &as_)
        }
    } else {
        exact(&ap, &as_)
    }
}

pub(crate) fn validate_df(vsa: &Vsa, who: &str) -> Result<(), FastPathError> {
    if !vsa.is_functional() {
        return Err(FastPathError::new(format!("{who} is not functional")));
    }
    if !vsa.is_deterministic() {
        return Err(FastPathError::new(format!(
            "{who} is not deterministic (conditions 1-2)"
        )));
    }
    Ok(())
}

/// Boolean (0-ary) case: `clr(Ref(P)) ⊆ clr(Ref(S))`.
fn boolean_cover(p: &Vsa, s_vsa: &Vsa, ext: &ExtAlphabet) -> Verdict {
    let lp = byte_language(p, ext);
    let ls = byte_language(s_vsa, ext);
    match ops::contains(&lp, &ls) {
        Containment::Contained => Verdict::Holds,
        Containment::Counterexample(w) => {
            let doc: Vec<u8> = w
                .iter()
                .filter_map(|&sym| ext.class_representative(sym))
                .collect();
            Verdict::Fails(CounterExample {
                doc,
                tuple: SpanTuple::unit(),
                split: None,
                left_has_it: true,
                reason: "cover condition violated: P outputs on a document where S \
                         produces no split"
                    .into(),
            })
        }
    }
}

/// The byte language `clr(Ref(A))`: operations become ε.
fn byte_language(vsa: &Vsa, ext: &ExtAlphabet) -> Nfa {
    let f = if vsa.is_functional() {
        vsa.trim()
    } else {
        vsa.functionalize()
    };
    let mut nfa = Nfa::new(ext.alphabet_size());
    for _ in 0..f.num_states() {
        nfa.add_state();
    }
    nfa.add_start(f.start());
    for q in 0..f.num_states() as StateId {
        nfa.set_final(q, f.is_final(q));
        for &(l, r) in f.transitions_from(q) {
            match l {
                Label::Eps | Label::Op(_) => nfa.add_eps(q, r),
                Label::Bytes(m) => {
                    for sym in ext.class_syms(&m) {
                        nfa.add_transition(q, sym, r);
                    }
                }
            }
        }
    }
    nfa
}

/// Pair-alphabet symbol: extended symbol × bit. Layout: `2·e + bit`.
fn pair_sym(ext_sym: Sym, bit: bool) -> Sym {
    Sym(ext_sym.0 * 2 + bit as u32)
}

fn unpair(sym: Sym) -> (Sym, bool) {
    (Sym(sym.0 / 2), sym.0 % 2 == 1)
}

/// Builds `A_P` over the pair alphabet (Lemma 5.6, appendix
/// construction): accepts `(σ₁,i₁)⋯(σₙ,iₙ)` where `σ₁⋯σₙ ∈ Ref(P)` and
/// the bit sequence `0*1+0*` marks the region from the first to the last
/// variable operation.
fn build_ap(p: &Vsa, ext: &ExtAlphabet) -> Nfa {
    let configs = p
        .unique_configs()
        .expect("trimmed deterministic functional automaton has unique configs");
    let nv = p.vars().len();
    let phase = |q: StateId| -> u8 {
        let c = configs[q as usize];
        let mut opened = false;
        let mut all_closed = true;
        for i in 0..nv {
            match c.get(VarId(i as u32)) {
                VarStatus::Waiting => all_closed = false,
                VarStatus::Open => {
                    opened = true;
                    all_closed = false;
                }
                VarStatus::Closed => opened = true,
            }
        }
        if !opened {
            0 // pre
        } else if all_closed {
            2 // post
        } else {
            1 // mid
        }
    };

    let n = p.num_states();
    let mut nfa = Nfa::new(ext.alphabet_size() * 2);
    // Layout: state q in phase k -> NFA state 3q + k.
    for _ in 0..3 * n {
        nfa.add_state();
    }
    let id = |q: StateId, k: u8| -> StateId { 3 * q + k as StateId };
    nfa.add_start(id(p.start(), 0));
    for q in 0..n as StateId {
        if p.is_final(q) {
            // Functional: finals are post states; accept in phase 3
            // (index 2). A final pre state can only happen for V = ∅,
            // excluded by the caller.
            nfa.set_final(id(q, 2), true);
        }
        for &(l, r) in p.transitions_from(q) {
            match l {
                Label::Eps => unreachable!("deterministic automata are ε-free"),
                Label::Bytes(m) => {
                    for cs in ext.class_syms(&m) {
                        match phase(q) {
                            0 => nfa.add_transition(id(q, 0), pair_sym(cs, false), id(r, 0)),
                            1 => nfa.add_transition(id(q, 1), pair_sym(cs, true), id(r, 1)),
                            _ => nfa.add_transition(id(q, 2), pair_sym(cs, false), id(r, 2)),
                        }
                    }
                }
                Label::Op(op) => {
                    let sym = pair_sym(ext.op_sym(op), true);
                    let from_phase = match phase(q) {
                        0 => 0,
                        _ => 1,
                    };
                    let to_phase = match phase(r) {
                        2 => 2,
                        _ => 1,
                    };
                    nfa.add_transition(id(q, from_phase), sym, id(r, to_phase));
                }
            }
        }
    }
    nfa
}

/// Builds `A_S` over the pair alphabet: accepts the words of `A_P` whose
/// 1-marked region lies inside some split of `S` (5-phase simulation,
/// appendix construction).
fn build_as(s_vsa: &Vsa, ext: &ExtAlphabet, nv: usize) -> Nfa {
    let n = s_vsa.num_states();
    let mut nfa = Nfa::new(ext.alphabet_size() * 2);
    // state q in phase k (1..=5) -> 5q + (k-1).
    for _ in 0..5 * n {
        nfa.add_state();
    }
    let id = |q: StateId, k: u8| -> StateId { 5 * q + (k - 1) as StateId };
    nfa.add_start(id(s_vsa.start(), 1));
    // All V operation symbols (the splitter's own variable is *not* in
    // `ext`; its open/close become the ε phase changes).
    let mut open_syms = Vec::new();
    let mut any_op_syms = Vec::new();
    let mut close_syms = Vec::new();
    for i in 0..nv {
        let v = VarId(i as u32);
        open_syms.push(pair_sym(ext.op_sym(VarOp::Open(v)), true));
        close_syms.push(pair_sym(ext.op_sym(VarOp::Close(v)), true));
        any_op_syms.push(pair_sym(ext.op_sym(VarOp::Open(v)), true));
        any_op_syms.push(pair_sym(ext.op_sym(VarOp::Close(v)), true));
    }
    for q in 0..n as StateId {
        if s_vsa.is_final(q) {
            nfa.set_final(id(q, 5), true);
        }
        // Phase-changing op loops (S state stays put).
        for &sym in &open_syms {
            nfa.add_transition(id(q, 2), sym, id(q, 3));
        }
        for &sym in &any_op_syms {
            nfa.add_transition(id(q, 3), sym, id(q, 3));
        }
        for &sym in &close_syms {
            nfa.add_transition(id(q, 3), sym, id(q, 4));
        }
        for &(l, r) in s_vsa.transitions_from(q) {
            match l {
                Label::Eps => {
                    for k in 1..=5u8 {
                        nfa.add_eps(id(q, k), id(r, k));
                    }
                }
                Label::Bytes(m) => {
                    for cs in ext.class_syms(&m) {
                        nfa.add_transition(id(q, 1), pair_sym(cs, false), id(r, 1));
                        nfa.add_transition(id(q, 2), pair_sym(cs, false), id(r, 2));
                        nfa.add_transition(id(q, 3), pair_sym(cs, true), id(r, 3));
                        nfa.add_transition(id(q, 4), pair_sym(cs, false), id(r, 4));
                        nfa.add_transition(id(q, 5), pair_sym(cs, false), id(r, 5));
                    }
                }
                Label::Op(op) => {
                    // S's own variable: x⊢ moves phase 1→2, ⊣x 4→5.
                    if op.is_open() {
                        nfa.add_eps(id(q, 1), id(r, 2));
                    } else {
                        nfa.add_eps(id(q, 4), id(r, 5));
                    }
                }
            }
        }
    }
    nfa
}

/// Decodes a pair-alphabet witness into `(doc, tuple)`.
fn decode_marked_witness(ext: &ExtAlphabet, word: &[Sym]) -> CounterExample {
    let nv = ext.vars().len();
    let mut doc = Vec::new();
    let mut opens = vec![0usize; nv];
    let mut closes = vec![0usize; nv];
    for &sym in word {
        let (e, _) = unpair(sym);
        match ext.decode(e) {
            ExtSym::Class(c) => doc.push(c.first().expect("non-empty class")),
            ExtSym::Op(VarOp::Open(v)) => opens[v.index()] = doc.len(),
            ExtSym::Op(VarOp::Close(v)) => closes[v.index()] = doc.len(),
        }
    }
    let tuple = SpanTuple::new(
        (0..nv)
            .map(|i| splitc_spanner::span::Span::new(opens[i], closes[i]))
            .collect(),
    );
    CounterExample {
        doc,
        tuple,
        split: None,
        left_has_it: true,
        reason: "cover condition violated: no split covers this tuple".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitc_spanner::rgx::Rgx;
    use splitc_spanner::splitter;

    fn vsa(p: &str) -> Vsa {
        Rgx::parse(p).unwrap().to_vsa().unwrap()
    }

    fn dvsa(p: &str) -> Vsa {
        vsa(p).determinize()
    }

    #[test]
    fn sentence_local_extractor_is_covered() {
        // P finds 'a'-runs not containing '.', S = sentences.
        let p = vsa(".*x{a+}.*");
        let s = splitter::sentences();
        // A tuple of P inside a single sentence is covered... but P can
        // also match across: x{a+} never contains '.', and any a+ run is
        // within one sentence. Cover holds.
        assert!(matches!(cover_condition(&p, &s), Verdict::Holds));
    }

    #[test]
    fn crossing_extractor_violates_cover() {
        // P captures a region containing a period: no sentence covers it.
        let p = vsa(".*x{a\\.a}.*");
        let s = splitter::sentences();
        match cover_condition(&p, &s) {
            Verdict::Fails(cex) => {
                assert!(cex.doc.windows(3).any(|w| w == b"a.a"));
            }
            Verdict::Holds => panic!("cover should fail"),
        }
    }

    #[test]
    fn df_agrees_with_general_on_simple_cases() {
        let cases: &[(&str, Splitter)] = &[
            (".*x{a+}.*", splitter::sentences()),
            (".*x{a\\.a}.*", splitter::sentences()),
            (".*x{ab}.*", splitter::whole_document()),
        ];
        for (pat, s) in cases {
            let p = dvsa(pat);
            let sd = s.determinize();
            let general = matches!(cover_condition(&p, s), Verdict::Holds);
            let fast = matches!(cover_condition_df(&p, &sd).unwrap(), Verdict::Holds);
            assert_eq!(general, fast, "pattern {pat}");
        }
    }

    #[test]
    fn fast_path_rejects_nondisjoint() {
        let p = dvsa(".*x{a}.*");
        let s = splitter::ngrams(2);
        assert!(cover_condition_df(&p, &s).is_err());
    }

    #[test]
    fn fast_path_rejects_nondeterministic() {
        let p = vsa(".*x{a}.*|.*x{aa}.*"); // nondeterministic as given
        let s = splitter::sentences();
        if !p.is_deterministic() {
            assert!(cover_condition_df(&p, &s).is_err());
        }
    }

    #[test]
    fn boolean_cover_checks_language() {
        // P = Boolean "contains ab"; S outputs nothing on documents
        // without 'a'... sentences always output on non-empty docs, but
        // on the empty doc they output nothing — and P doesn't match
        // empty. Use S = x{a+} which outputs only on pure a-docs.
        let p = dvsa("a+");
        let s = Splitter::parse("x{a+}").unwrap().determinize();
        assert!(matches!(
            cover_condition_df(&p, &s).unwrap(),
            Verdict::Holds
        ));
        let p2 = dvsa("b+");
        match cover_condition_df(&p2, &s).unwrap() {
            Verdict::Fails(cex) => assert!(cex.doc.contains(&b'b')),
            Verdict::Holds => panic!("b-docs have no splits"),
        }
    }

    #[test]
    fn paper_lemma_5_4_family() {
        // Paper's reduction shape: P = a·y{Σ*}, S = x{a·A}: cover holds
        // iff every suffix is in A. With A = Σ*, cover holds; with
        // A = b*, it fails (e.g. suffix "a").
        let p = vsa("a(y{.*})");
        let s_all = Splitter::parse("x{a.*}").unwrap();
        assert!(matches!(cover_condition(&p, &s_all), Verdict::Holds));
        let s_b = Splitter::parse("x{ab*}").unwrap();
        assert!(matches!(cover_condition(&p, &s_b), Verdict::Fails(_)));
    }

    #[test]
    fn universal_spanner_outputs_everything() {
        let vars = splitc_spanner::vars::VarTable::new(["x"]).unwrap();
        let pv = universal_spanner(&vars);
        let rel = splitc_spanner::eval::eval(&pv, b"ab");
        // All spans of a 2-byte doc: 6.
        assert_eq!(rel.len(), 6);
    }
}
