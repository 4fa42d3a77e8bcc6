//! Split-correctness and self-splittability (paper §5.1, §5.3).
//!
//! *Split-correctness*: given spanners `P`, `P_S` and a splitter `S`,
//! decide whether `P = P_S ∘ S` (Definition 3.1). The general procedure
//! ([`split_correct`], Theorem 5.1) constructs the composed spanner
//! `P′ = P_S ∘ S` (Lemma C.1/C.2, polynomial size) and tests spanner
//! equivalence `P = P′` — PSPACE-complete for RGX and VSA.
//!
//! For deterministic functional automata and a **disjoint** splitter,
//! [`split_correct_df`] implements the polynomial-time procedure of
//! Theorem 5.7: first the cover condition (Lemma 5.6), then a guarded
//! product search for a ref-word on which `P` and `P_S` disagree
//! relative to the (unique) covering split. Self-splittability is the
//! special case `P_S = P` ([`self_splittable`], [`self_splittable_df`];
//! Theorems 5.16 and 5.17).
//!
//! ## Boundary caveat (documented deviation)
//!
//! The paper's Theorem 5.7 algorithm — reproduced faithfully here —
//! checks *pointwise* agreement per covering split. When a tuple
//! consists solely of empty spans sitting exactly on the boundary
//! between two adjacent splits, that tuple is covered by **two**
//! disjoint splits, and pointwise agreement is slightly stronger than
//! `P = P_S ∘ S` (the union over splits could produce the tuple through
//! the other split). The exact semantics is always available through
//! [`split_correct`]; the test suite contains a witness for the
//! discrepancy (`boundary_empty_span_corner`).

use crate::cover;
use crate::error::CertError;
use crate::util;
use splitc_automata::nfa::{Nfa, StateId, Sym};
use splitc_automata::ops::{self, Containment};
use splitc_spanner::equiv::{CheckStrategy, SpannerCheck};
use splitc_spanner::evsa::EVsa;
use splitc_spanner::ext::ExtAlphabet;
use splitc_spanner::span::Span;
use splitc_spanner::splitter::{compose, Splitter};
use splitc_spanner::tuple::SpanTuple;
use splitc_spanner::vars::{VarOp, VarTable};
use splitc_spanner::vsa::Vsa;
use std::fmt;

/// Outcome of a split-correctness style check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The property holds.
    Holds,
    /// The property fails, with a concrete witness.
    Fails(CounterExample),
}

impl Verdict {
    /// Whether the property holds.
    pub fn holds(&self) -> bool {
        matches!(self, Verdict::Holds)
    }
}

/// A concrete witness that a property fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterExample {
    /// Document on which the two sides disagree.
    pub doc: Vec<u8>,
    /// The disputed tuple (over `SVars(P)`).
    pub tuple: SpanTuple,
    /// The split involved, when the procedure pins one down.
    pub split: Option<Span>,
    /// `true` when `P` produces the tuple but the split side does not.
    pub left_has_it: bool,
    /// Human-readable explanation.
    pub reason: String,
}

impl fmt::Display for CounterExample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (doc: {:?}, tuple spans: {:?})",
            self.reason,
            String::from_utf8_lossy(&self.doc),
            self.tuple.spans()
        )
    }
}

/// Error returned by the fast-path procedures when their preconditions
/// (determinism, functionality, disjointness) are not met.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastPathError {
    /// What precondition failed.
    pub message: String,
}

impl FastPathError {
    pub(crate) fn new(message: impl Into<String>) -> FastPathError {
        FastPathError {
            message: message.into(),
        }
    }
}

impl fmt::Display for FastPathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fast path unavailable: {}", self.message)
    }
}

impl std::error::Error for FastPathError {}

/// General split-correctness (Theorem 5.1): is `P = P_S ∘ S`?
///
/// Builds the composed spanner (polynomial, Lemma C.2) and decides
/// spanner equivalence — PSPACE-complete in general, polynomial when
/// both sides happen to normalize deterministically.
///
/// ```
/// use splitc_core::split_correct;
/// use splitc_spanner::{Rgx, Splitter};
///
/// // P: the first lowercase line of each blank-line-separated message;
/// // P_S: the first line of a chunk. P = P_S ∘ S for the message splitter.
/// let p = Rgx::parse("(.*\\n\\n|)x{[a-z]+}(\\n.*|)").unwrap().to_vsa().unwrap();
/// let ps = Rgx::parse("x{[a-z]+}(\\n.*|)").unwrap().to_vsa().unwrap();
/// let s = splitc_spanner::splitter::http_messages();
/// assert!(split_correct(&p, &ps, &s).unwrap().holds());
/// ```
pub fn split_correct(p: &Vsa, ps: &Vsa, s: &Splitter) -> Result<Verdict, CertError> {
    split_correct_with(p, ps, s, CheckStrategy::default())
}

/// [`split_correct`] with an explicit containment engine
/// ([`CheckStrategy`]); the determinize-first strategy is the
/// differential-testing and benchmarking baseline of the antichain
/// certification engine.
pub fn split_correct_with(
    p: &Vsa,
    ps: &Vsa,
    s: &Splitter,
    strategy: CheckStrategy,
) -> Result<Verdict, CertError> {
    if p.vars().names() != ps.vars().names() {
        return Err(CertError::VariableMismatch {
            left: p.vars().to_string(),
            right: ps.vars().to_string(),
        });
    }
    let composed = compose(ps, s);
    split_correct_composed(p, &composed, strategy)
}

/// Split-correctness against an **already composed** spanner
/// `P′ = P_S ∘ S` (see [`splitc_spanner::splitter::compose`]).
///
/// This is the batch certifier's entry point
/// (`splitc_exec::certify::certify_many`): across many `(P, P_S)` pairs
/// sharing a splitter, the polynomial-size composition is computed once
/// per distinct `P_S` and reused, so each pair only pays for the
/// equivalence search itself.
pub fn split_correct_composed(
    p: &Vsa,
    composed: &Vsa,
    strategy: CheckStrategy,
) -> Result<Verdict, CertError> {
    Ok(
        match splitc_spanner::spanner_equivalent_with(p, composed, strategy)? {
            SpannerCheck::Holds => Verdict::Holds,
            SpannerCheck::Counterexample {
                doc,
                tuple,
                left_has_it,
            } => Verdict::Fails(CounterExample {
                doc,
                tuple,
                split: None,
                left_has_it,
                reason: if left_has_it {
                    "P produces a tuple that P_S ∘ S does not".into()
                } else {
                    "P_S ∘ S produces a tuple that P does not".into()
                },
            }),
        },
    )
}

/// Self-splittability (Theorem 5.16): is `P = P ∘ S`?
///
/// ```
/// use splitc_core::{self_splittable, Verdict};
/// use splitc_spanner::Rgx;
///
/// let runs = Rgx::parse(".*x{a+}.*").unwrap().to_vsa().unwrap();
/// let s = splitc_spanner::splitter::sentences();
/// assert!(self_splittable(&runs, &s).unwrap().holds());
///
/// // A sentence-crossing extractor is rejected with a witness document.
/// let crossing = Rgx::parse(".*x{a\\.a}.*").unwrap().to_vsa().unwrap();
/// match self_splittable(&crossing, &s).unwrap() {
///     Verdict::Fails(cex) => assert!(cex.doc.contains(&b'.')),
///     Verdict::Holds => unreachable!(),
/// }
/// ```
pub fn self_splittable(p: &Vsa, s: &Splitter) -> Result<Verdict, CertError> {
    split_correct(p, p, s)
}

/// Polynomial-time split-correctness for deterministic functional
/// VSet-automata with a disjoint splitter (Theorem 5.7).
///
/// See the module documentation for the boundary caveat.
pub fn split_correct_df(p: &Vsa, ps: &Vsa, s: &Splitter) -> Result<Verdict, CertError> {
    if p.vars().names() != ps.vars().names() {
        return Err(CertError::VariableMismatch {
            left: p.vars().to_string(),
            right: ps.vars().to_string(),
        });
    }
    cover::validate_df(p, "P")?;
    cover::validate_df(ps, "P_S")?;
    cover::validate_df(s.vsa(), "S")?;
    if !s.is_disjoint() {
        return Err(FastPathError::new("splitter is not disjoint").into());
    }
    Ok(split_correct_df_prechecked(p, ps, s))
}

/// [`split_correct_df`] minus the precondition validation: the caller
/// guarantees `p`, `ps`, and `s` are deterministic functional automata
/// with identical `P`/`P_S` variables and a **disjoint** splitter —
/// verdicts are meaningless otherwise.
///
/// This is the batch certifier's fast-path entry point
/// (`splitc_exec::certify`): across a fleet, the splitter preconditions
/// are established once per batch and the spanner preconditions once
/// per distinct spanner, so per-pair work is just the Lemma 5.6 cover
/// check plus the guarded product search.
pub fn split_correct_df_prechecked(p: &Vsa, ps: &Vsa, s: &Splitter) -> Verdict {
    // Step 1: cover condition (Lemma 5.6) — necessary by Lemma 5.3.
    match cover::cover_condition_df_prechecked(p, s) {
        Verdict::Holds => {}
        fails => return fails,
    }

    // Step 2: guarded product search for a distinguishing ref-word.
    guarded_product_check(p, ps, s)
}

/// Polynomial-time self-splittability (Theorem 5.17).
pub fn self_splittable_df(p: &Vsa, s: &Splitter) -> Result<Verdict, CertError> {
    split_correct_df(p, p, s)
}

/// The product machinery shared by the fast path and by the annotated
/// variant: compares, over all ref-words with variable operations inside
/// the guessed split window, acceptance of `P` against acceptance of
/// `P_S` on the window content.
pub(crate) fn guarded_product_check(p: &Vsa, ps: &Vsa, s: &Splitter) -> Verdict {
    let pieces = ProductPieces::build(p, ps, s);
    pieces.compare()
}

/// Prebuilt automata for the guarded product comparison.
pub(crate) struct ProductPieces {
    ext: ExtAlphabet,
    x: splitc_spanner::vars::VarId,
    p_vars: VarTable,
    /// `S ∩ G ∩ P`: ref-words encoding (d, t ∈ P(d), s ∈ S(d)) with the
    /// tuple's operations inside the window.
    l1: Nfa,
    /// `S ∩ W`: ref-words encoding (d, t, s ∈ S(d)) whose window content
    /// is an output of `P_S` on the chunk.
    l2: Nfa,
}

impl ProductPieces {
    pub(crate) fn build(p: &Vsa, ps: &Vsa, s: &Splitter) -> ProductPieces {
        // Merged variable table: SVars(P) plus a fresh splitter variable.
        let xname = util::fresh_var_name(p.vars(), "__split");
        let mut names: Vec<String> = p.vars().names().to_vec();
        names.push(xname.clone());
        let merged = VarTable::new(names).expect("fresh name cannot collide");
        let x = merged.lookup(&xname).expect("just inserted");

        let mut masks = p.byte_masks();
        masks.extend(ps.byte_masks());
        masks.extend(s.vsa().byte_masks());
        let ext = ExtAlphabet::from_masks(merged.clone(), &masks);

        // S with its variable renamed to the fresh name.
        let s_renamed = s
            .vsa()
            .replace_var_table(VarTable::new([xname.clone()]).expect("single name"))
            .expect("splitter has one variable");

        let ep = EVsa::from_vsa(p);
        let eps_ = EVsa::from_vsa(ps);
        let es = EVsa::from_vsa(&s_renamed);

        let x_loops = vec![ext.op_sym(VarOp::Open(x)), ext.op_sym(VarOp::Close(x))];
        let v_loops: Vec<Sym> = p
            .vars()
            .iter()
            .flat_map(|v| {
                let mv = ext
                    .vars()
                    .lookup(p.vars().name(v))
                    .expect("merged table contains P vars");
                [ext.op_sym(VarOp::Open(mv)), ext.op_sym(VarOp::Close(mv))]
            })
            .collect();

        let np = util::lifted_nfa(&ep, &ext, &x_loops);
        let ns = util::lifted_nfa(&es, &ext, &v_loops);
        let g = guard_nfa(&ext, x, &v_loops);
        let w = window_nfa(&eps_, &ext, x);

        let np = np.remove_eps();
        let ns = ns.remove_eps();
        let g = g.remove_eps();
        let w = w.remove_eps();

        let l1 = ns.intersect(&g).remove_eps().intersect(&np).trim();
        let l2 = ns.intersect(&w).trim();
        ProductPieces {
            ext,
            x,
            p_vars: p.vars().clone(),
            l1,
            l2,
        }
    }

    pub(crate) fn compare(&self) -> Verdict {
        if let Containment::Counterexample(word) = ops::contains(&self.l1, &self.l2) {
            return self.decode(&word, true);
        }
        if let Containment::Counterexample(word) = ops::contains(&self.l2, &self.l1) {
            return self.decode(&word, false);
        }
        Verdict::Holds
    }

    fn decode(&self, word: &[Sym], left_has_it: bool) -> Verdict {
        let (doc, tuple, split) = util::decode_split_witness(&self.ext, self.x, &self.p_vars, word)
            .expect("guarded product words contain a complete window");
        Verdict::Fails(CounterExample {
            doc,
            tuple,
            split: Some(split),
            left_has_it,
            reason: if left_has_it {
                "P produces a tuple inside a split on which P_S disagrees".into()
            } else {
                "P_S produces a tuple on a split that P does not produce".into()
            },
        })
    }
}

/// The guard `G`: variable operations of `SVars(P)` may only occur
/// between `x⊢` and `⊣x` (justified by the cover condition + disjointness
/// — paper's TM "rejects runs with ΓV symbols outside the window").
fn guard_nfa(ext: &ExtAlphabet, x: splitc_spanner::vars::VarId, v_loops: &[Sym]) -> Nfa {
    let mut nfa = Nfa::new(ext.alphabet_size());
    let p1 = nfa.add_state();
    let p2 = nfa.add_state();
    let p3 = nfa.add_state();
    nfa.add_start(p1);
    nfa.set_final(p3, true);
    let classes: Vec<Sym> = (0..256u16)
        .map(|b| ext.class_sym_of_byte(b as u8))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    for &c in &classes {
        nfa.add_transition(p1, c, p1);
        nfa.add_transition(p2, c, p2);
        nfa.add_transition(p3, c, p3);
    }
    for &v in v_loops {
        nfa.add_transition(p2, v, p2);
    }
    nfa.add_transition(p1, ext.op_sym(VarOp::Open(x)), p2);
    nfa.add_transition(p2, ext.op_sym(VarOp::Close(x)), p3);
    nfa
}

/// The window automaton `W`: bytes, then `x⊢`, then a run of `P_S` on the
/// window content, then `⊣x` from accepting `P_S` states, then bytes.
fn window_nfa(
    ps: &splitc_spanner::evsa::EVsa,
    ext: &ExtAlphabet,
    x: splitc_spanner::vars::VarId,
) -> Nfa {
    let mut nfa = util::lifted_nfa(ps, ext, &[]);
    let inner_start = nfa
        .starts()
        .first()
        .copied()
        .expect("lifted NFA has a start");
    let inner_finals: Vec<StateId> = nfa.final_states().collect();
    let p1 = nfa.add_state();
    let p3 = nfa.add_state();
    let classes: Vec<Sym> = (0..256u16)
        .map(|b| ext.class_sym_of_byte(b as u8))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    for &c in &classes {
        nfa.add_transition(p1, c, p1);
        nfa.add_transition(p3, c, p3);
    }
    nfa.add_transition(p1, ext.op_sym(VarOp::Open(x)), inner_start);
    for f in inner_finals {
        nfa.set_final(f, false);
        nfa.add_transition(f, ext.op_sym(VarOp::Close(x)), p3);
    }
    nfa.set_final(p3, true);
    // Replace the start: only p1 starts.
    let mut out = Nfa::new(nfa.alphabet_size());
    for _ in 0..nfa.num_states() {
        out.add_state();
    }
    for q in 0..nfa.num_states() as StateId {
        out.set_final(q, nfa.is_final(q));
        for &(sym, r) in nfa.transitions_from(q) {
            out.add_transition(q, sym, r);
        }
        for &r in nfa.eps_from(q) {
            out.add_eps(q, r);
        }
    }
    out.add_start(p1);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitc_spanner::eval::eval;
    use splitc_spanner::rgx::Rgx;
    use splitc_spanner::splitter;

    fn vsa(p: &str) -> Vsa {
        Rgx::parse(p).unwrap().to_vsa().unwrap()
    }

    fn dvsa(p: &str) -> Vsa {
        vsa(p).determinize()
    }

    #[test]
    fn http_example_from_paper_section_3_1() {
        // Messages separated by blank lines; request line starts with
        // GET. P finds request lines by the G-E-T prefix — self-splittable
        // by the message splitter.
        let p = vsa("(.*\\n\\n|)x{GET [a-z]+}(\\n.*|)");
        let s = splitter::http_messages();
        // Sanity: P extracts from a two-message log.
        let doc = b"GET alpha\nHost h\n\nGET beta\nHost i";
        assert_eq!(eval(&p, doc).len(), 2);
        assert!(self_splittable(&p, &s).unwrap().holds());
    }

    #[test]
    fn sentence_person_extractor_is_self_splittable() {
        // "Spanners that do not look beyond the sentence level" (§3.1):
        // every a-run lies within one sentence (a+ cannot contain '.'),
        // and the per-sentence union reproduces exactly the same spans.
        let p = vsa(".*x{a+}.*");
        let s = splitter::sentences();
        assert!(self_splittable(&p, &s).unwrap().holds());
    }

    #[test]
    fn crossing_extractor_is_not_self_splittable() {
        let p = vsa(".*x{a\\.a}.*");
        let s = splitter::sentences();
        match self_splittable(&p, &s).unwrap() {
            Verdict::Fails(cex) => {
                assert!(cex.left_has_it);
                // The witness tuple crosses a sentence boundary.
                let rel = eval(&p, &cex.doc);
                assert!(rel.contains(&cex.tuple));
            }
            Verdict::Holds => panic!("crossing extractor can't be split"),
        }
    }

    #[test]
    fn split_correct_with_rewritten_split_spanner() {
        // Paper §3.1 HTTP example: P finds the line at a message start
        // (doc start or after a blank line); P_S finds the first line of
        // the chunk. P = P_S ∘ S (messages).
        let p = vsa("(.*\\n\\n|)x{[a-z]+}(\\n.*|)");
        let ps = vsa("x{[a-z]+}(\\n.*|)");
        let s = splitter::http_messages();
        assert!(split_correct(&p, &ps, &s).unwrap().holds());
        // The variant that *requires* a preceding blank line is not
        // self-splittable: chunks contain no blank lines.
        let p2 = vsa(".*\\n\\nx{[a-z]+}(\\n.*|)");
        assert!(!self_splittable(&p2, &s).unwrap().holds());
    }

    #[test]
    fn fast_path_agrees_with_general() {
        let cases: &[(&str, &str)] = &[
            (".*x{a+}.*", ".*x{a+}.*"),
            (".*x{a\\.a}.*", ".*x{a\\.a}.*"),
            (".*x{ab}.*", "x{ab}.*"),
        ];
        let s = splitter::sentences();
        let sd = s.determinize();
        for (ppat, pspat) in cases {
            let p = dvsa(ppat);
            let ps = dvsa(pspat);
            let slow = split_correct(&p, &ps, &s).unwrap().holds();
            let fast = split_correct_df(&p, &ps, &sd).unwrap().holds();
            assert_eq!(slow, fast, "P={ppat} PS={pspat}");
        }
    }

    #[test]
    fn fast_path_requires_preconditions() {
        let p = vsa(".*x{a}.*|.*x{aa}.*");
        let s = splitter::sentences();
        if !p.is_deterministic() {
            assert!(split_correct_df(&p, &p, &s).is_err());
        }
        let p2 = dvsa(".*x{a}.*");
        assert!(split_correct_df(&p2, &p2, &splitter::ngrams(2).determinize()).is_err());
    }

    #[test]
    fn ngram_proximity_example_from_paper() {
        // §3.1: email/phone at most three tokens apart is self-splittable
        // by N-grams for N >= 5 but not for N < 5. Scaled down: a pair of
        // adjacent tokens x{t} y{t} is self-splittable by 2-grams but not
        // by 1-grams. Note: N-gram splitters are not disjoint, so only
        // the general procedure applies.
        let tok = "[ab]+";
        let p = vsa(&format!(
            "(.*[^A-Za-z0-9]|)e{{{tok}}} p{{{tok}}}([^A-Za-z0-9].*|)"
        ));
        assert!(self_splittable(&p, &splitter::ngrams(2)).unwrap().holds());
        assert!(!self_splittable(&p, &splitter::ngrams(1)).unwrap().holds());
    }

    #[test]
    fn splitter_variable_name_collision_is_handled() {
        // P uses a variable named like the splitter's.
        let p = vsa(".*x{a+}.*");
        let s = Splitter::parse("(.*\\.)?x{[^.]+}(\\..*)?").unwrap();
        assert_eq!(s.var_name(), "x");
        assert!(self_splittable(&p, &s).unwrap().holds());
        let pd = dvsa(".*x{a+}.*");
        assert!(split_correct_df(&pd, &pd, &s.determinize())
            .unwrap()
            .holds());
    }

    #[test]
    fn boundary_empty_span_corner() {
        // Documented deviation (module docs): a tuple of empty spans on
        // the boundary between two adjacent splits is covered by both.
        // P = a y{} b (empty span between 'a' and 'b'); S = x{a}b | a x{b};
        // P_S = a y{} | ε... we pick P_S producing the tuple only from
        // the *second* chunk: P_S = y{}b.
        let p = vsa("a(y{})b");
        let ps = vsa("y{}b");
        let s = Splitter::parse("x{a}b|a(x{b})").unwrap().determinize();
        assert!(s.is_disjoint());
        // Exact semantics: P = P_S ∘ S holds (the tuple comes from the
        // second chunk).
        let exact = split_correct(&p, &ps, &s).unwrap();
        assert!(exact.holds(), "exact: {exact:?}");
        // The paper's pointwise procedure flags the first chunk.
        let pd = p.determinize();
        let psd = ps.determinize();
        let fast = split_correct_df(&pd, &psd, &s).unwrap();
        assert!(
            !fast.holds(),
            "pointwise check is strictly stronger on this corner"
        );
    }

    #[test]
    fn whole_document_splitter_reduces_to_equivalence() {
        // With S = whole document, split-correctness is P = P_S.
        let s = splitter::whole_document();
        let p = vsa(".*x{ab}.*");
        let q = vsa(".*x{ab}.*");
        assert!(split_correct(&p, &q, &s).unwrap().holds());
        let r = vsa("x{ab}.*");
        assert!(!split_correct(&p, &r, &s).unwrap().holds());
    }
}
