//! Splittability (paper §5.2).
//!
//! `P` is *splittable* by `S` when some split-spanner `P_S` satisfies
//! `P = P_S ∘ S`. For **disjoint** splitters the paper characterizes
//! splittability through the *canonical split-spanner* `P_S^can`
//! (Lemma 5.12): `P` is splittable by `S` iff `P = P_S^can ∘ S`, and
//! `P_S^can` is constructible in polynomial time (Prop. 5.9). The
//! decision procedure is therefore: build `P_S^can`, then run
//! split-correctness (Theorem 5.15; PSPACE-complete overall).
//!
//! The canonical split-spanner on a chunk document `d` outputs every
//! tuple `t` such that *some* context document `d′` has a split
//! producing `d` on which `P` outputs the shifted `t` — see the paper's
//! Example 5.10 for why disjointness is needed for canonicity.

use crate::error::CertError;
use crate::split_correctness::{split_correct, CounterExample, Verdict};
use crate::util;
use splitc_automata::nfa::{Nfa, StateId};
use splitc_spanner::ext::{ExtAlphabet, ExtSym};
use splitc_spanner::splitter::Splitter;
use splitc_spanner::vars::{VarOp, VarTable};
use splitc_spanner::vsa::Vsa;

/// Result of a splittability check.
#[derive(Debug, Clone)]
pub enum SplittabilityVerdict {
    /// `P` is splittable by `S`; the canonical split-spanner witnesses
    /// it (`P = witness ∘ S`).
    Splittable {
        /// The canonical split-spanner `P_S^can`.
        witness: Vsa,
    },
    /// Not splittable; the counterexample shows where `P` and
    /// `P_S^can ∘ S` disagree.
    NotSplittable(CounterExample),
}

impl SplittabilityVerdict {
    /// Whether `P` is splittable.
    pub fn is_splittable(&self) -> bool {
        matches!(self, SplittabilityVerdict::Splittable { .. })
    }
}

/// Constructs the canonical split-spanner `P_S^can` (Prop. 5.9):
/// on every chunk `d` it outputs `{t | ∃d′, s ∈ S(d′): d′_s = d and
/// t ≫ s ∈ P(d′)}`. Polynomial in `|P|·|S|`.
///
/// Construction (paper Appendix C, recast on ref-word NFAs): build
/// `P^x = P_Σ ·x⊢ P ·⊣x P_Σ` (three copies of `P`, the outer ones with
/// variable transitions removed, connected state-to-state by the
/// splitter-variable operations) and `S^{+V}` (`S` with self-loops for
/// all of `P`'s operations); intersect their ref-word languages; the
/// canonical split-spanner is the *middle part* — start states are the
/// targets of reachable `x⊢` edges, accepting states the sources of
/// co-reachable `⊣x` edges, with the `x` edges removed.
pub fn canonical_split_spanner(p: &Vsa, s: &Splitter) -> Vsa {
    // Merged variable table: SVars(P) + fresh splitter variable.
    let xname = util::fresh_var_name(p.vars(), "__split");
    let mut names: Vec<String> = p.vars().names().to_vec();
    names.push(xname.clone());
    let merged = VarTable::new(names).expect("fresh name");
    let x = merged.lookup(&xname).expect("just inserted");

    let mut masks = p.byte_masks();
    masks.extend(s.vsa().byte_masks());
    let ext = ExtAlphabet::from_masks(merged.clone(), &masks);

    let s_renamed = s
        .vsa()
        .replace_var_table(VarTable::new([xname]).expect("single"))
        .expect("splitter is unary");

    // P as raw ref-word NFA over the merged alphabet.
    let np = util::raw_ext_nfa(p, &ext);
    // P_Σ: byte transitions only.
    let p_sigma = bytes_only(&np, &ext);
    // P^x: copy1 (P_Σ) --x⊢--> copy2 (P) --⊣x--> copy3 (P_Σ).
    let n = np.num_states();
    let mut px = Nfa::new(ext.alphabet_size());
    for _ in 0..3 * n {
        px.add_state();
    }
    let c1 = |q: StateId| q;
    let c2 = |q: StateId| q + n as StateId;
    let c3 = |q: StateId| q + 2 * n as StateId;
    for q in 0..n as StateId {
        for &(sym, r) in p_sigma.transitions_from(q) {
            px.add_transition(c1(q), sym, c1(r));
            px.add_transition(c3(q), sym, c3(r));
        }
        for &r in p_sigma.eps_from(q) {
            px.add_eps(c1(q), c1(r));
            px.add_eps(c3(q), c3(r));
        }
        for &(sym, r) in np.transitions_from(q) {
            px.add_transition(c2(q), sym, c2(r));
        }
        for &r in np.eps_from(q) {
            px.add_eps(c2(q), c2(r));
        }
        px.add_transition(c1(q), ext.op_sym(VarOp::Open(x)), c2(q));
        px.add_transition(c2(q), ext.op_sym(VarOp::Close(x)), c3(q));
        px.set_final(c3(q), np.is_final(q));
    }
    for &st in np.starts() {
        px.add_start(c1(st));
    }

    // S^{+V}: S's raw NFA with self-loops for all P operations.
    let mut ns = util::raw_ext_nfa(&s_renamed, &ext);
    for q in 0..ns.num_states() as StateId {
        for v in p.vars().iter() {
            let mv = ext.vars().lookup(p.vars().name(v)).expect("merged table");
            ns.add_transition(q, ext.op_sym(VarOp::Open(mv)), q);
            ns.add_transition(q, ext.op_sym(VarOp::Close(mv)), q);
        }
    }

    // Intersection of the ref-word languages.
    let prod = px.remove_eps().intersect(&ns.remove_eps());

    // Middle part: start after reachable x⊢ edges, accept before
    // co-reachable ⊣x edges; drop the x edges.
    let open_sym = ext.op_sym(VarOp::Open(x));
    let close_sym = ext.op_sym(VarOp::Close(x));
    let reach = prod.reachable();
    let co = prod.co_reachable();
    let mut mid = Nfa::new(ext.alphabet_size());
    for _ in 0..prod.num_states() {
        mid.add_state();
    }
    let fresh_start = mid.add_state();
    mid.add_start(fresh_start);
    for q in 0..prod.num_states() as StateId {
        for &(sym, r) in prod.transitions_from(q) {
            if sym == open_sym {
                if reach[q as usize] {
                    mid.add_eps(fresh_start, r);
                }
            } else if sym == close_sym {
                if co[r as usize] {
                    mid.set_final(q, true);
                }
            } else {
                mid.add_transition(q, sym, r);
            }
        }
    }

    // Back to a classic VSet-automaton over SVars(P).
    let vsa_merged = Vsa::from_ext_nfa(&mid.trim(), &ext);
    let keep: Vec<&str> = p.vars().names().iter().map(String::as_str).collect();
    let (table, map) = project_table(vsa_merged.vars(), &keep);
    vsa_merged.rename_vars(table, &map).functionalize()
}

fn project_table(from: &VarTable, keep: &[&str]) -> (VarTable, splitc_spanner::vars::VarMap) {
    let ids: Vec<_> = keep
        .iter()
        .map(|n| from.lookup(n).expect("present"))
        .collect();
    from.project(&ids)
}

/// Removes non-byte symbol transitions, keeping ε.
fn bytes_only(nfa: &Nfa, ext: &ExtAlphabet) -> Nfa {
    let mut out = Nfa::new(nfa.alphabet_size());
    for _ in 0..nfa.num_states() {
        out.add_state();
    }
    for q in 0..nfa.num_states() as StateId {
        out.set_final(q, nfa.is_final(q));
        for &(sym, r) in nfa.transitions_from(q) {
            if matches!(ext.decode(sym), ExtSym::Class(_)) {
                out.add_transition(q, sym, r);
            }
        }
        for &r in nfa.eps_from(q) {
            out.add_eps(q, r);
        }
    }
    for &s in nfa.starts() {
        out.add_start(s);
    }
    out
}

/// Decides splittability of `P` by a **disjoint** splitter `S`
/// (Theorem 5.15): builds the canonical split-spanner and checks
/// `P = P_S^can ∘ S`. Errors when `S` is not disjoint — decidability for
/// general splitters is open (paper §8).
///
/// ```
/// use splitc_core::{splittable, SplittabilityVerdict};
/// use splitc_spanner::Rgx;
///
/// // Message-start lines: not *self*-splittable via the blank-line
/// // context, but splittable — the returned witness drops the context.
/// let p = Rgx::parse("(.*\\n\\n|)x{[a-z]+}(\\n.*|)").unwrap().to_vsa().unwrap();
/// let s = splitc_spanner::splitter::http_messages();
/// assert!(matches!(
///     splittable(&p, &s).unwrap(),
///     SplittabilityVerdict::Splittable { .. }
/// ));
/// ```
pub fn splittable(p: &Vsa, s: &Splitter) -> Result<SplittabilityVerdict, CertError> {
    if !s.is_disjoint() {
        return Err(CertError::UnsupportedSplitter(
            "splittability via the canonical split-spanner requires a disjoint \
             splitter (Lemma 5.12); decidability for general splitters is open"
                .into(),
        ));
    }
    let canonical = canonical_split_spanner(p, s);
    Ok(match split_correct(p, &canonical, s)? {
        Verdict::Holds => SplittabilityVerdict::Splittable { witness: canonical },
        Verdict::Fails(cex) => SplittabilityVerdict::NotSplittable(cex),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitc_spanner::eval::eval;
    use splitc_spanner::rgx::Rgx;
    use splitc_spanner::span::Span;
    use splitc_spanner::splitter;
    use splitc_spanner::vars::VarId;

    fn vsa(p: &str) -> Vsa {
        Rgx::parse(p).unwrap().to_vsa().unwrap()
    }

    #[test]
    fn canonical_matches_definition_pointwise() {
        // P^can_S(d) = {t | ∃d', s ∈ S(d'): d'_s = d, t ≫ s ∈ P(d')}.
        // P = sentence-local a-runs, S = sentences: on a chunk (no '.'),
        // the canonical spanner behaves like P.
        let p = vsa(".*x{a+}.*");
        let s = splitter::sentences();
        let can = canonical_split_spanner(&p, &s);
        // On chunk "baa": same outputs as P itself.
        assert_eq!(eval(&can, b"baa"), eval(&p, b"baa"));
        // A chunk containing '.' is never produced by the sentence
        // splitter, so the canonical spanner outputs nothing there.
        assert!(eval(&can, b"a.a").is_empty());
    }

    #[test]
    fn paper_example_http_first_line() {
        // P = request line after a blank line or at doc start; canonical
        // split spanner w.r.t. messages = first line of the chunk.
        let p = vsa("(.*\\n\\n|)x{[a-z]+}(\\n.*|)");
        let s = splitter::http_messages();
        let can = canonical_split_spanner(&p, &s);
        let rel = eval(&can, b"abc\ndef");
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.tuple(0).get(VarId(0)), Span::new(0, 3));
    }

    #[test]
    fn splittable_positive_and_witness_works() {
        let p = vsa("(.*\\n\\n|)x{[a-z]+}(\\n.*|)");
        let s = splitter::http_messages();
        match splittable(&p, &s).unwrap() {
            SplittabilityVerdict::Splittable { witness } => {
                // The witness split-spanner reproduces P through S on a
                // sample document.
                let doc = b"abc\nxy\n\ndef";
                let mut expected = Vec::new();
                for sp in s.split(doc) {
                    for t in eval(&witness, sp.slice(doc)).iter() {
                        expected.push(t.shift(sp));
                    }
                }
                let composed = splitc_spanner::tuple::SpanRelation::from_tuples(expected);
                assert_eq!(composed, eval(&p, doc));
            }
            SplittabilityVerdict::NotSplittable(cex) => {
                panic!("should be splittable, got {cex}")
            }
        }
    }

    #[test]
    fn splittable_negative() {
        // A cross-sentence extractor is not splittable by sentences.
        let p = vsa(".*x{a\\.a}.*");
        let s = splitter::sentences();
        match splittable(&p, &s).unwrap() {
            SplittabilityVerdict::NotSplittable(_) => {}
            SplittabilityVerdict::Splittable { .. } => {
                panic!("crossing extractor must not be splittable")
            }
        }
    }

    #[test]
    fn splittable_but_not_self_splittable() {
        // P needs the blank-line context, so P ≠ P ∘ S; yet P is
        // splittable via the canonical spanner... note P must still
        // satisfy the cover condition. "Line after blank line" tuples on
        // chunks: P on a chunk never matches (no blank line), so
        // P ∘ S = ∅ ≠ P. The canonical spanner drops the context.
        let p = vsa(".*\\n\\nx{[a-z]+}(\\n.*|)");
        let s = splitter::http_messages();
        assert!(!crate::self_splittable(&p, &s).unwrap().holds());
        // P is NOT fully splittable either: P misses doc-start lines, but
        // the canonical spanner (first-line-of-chunk) would also fire on
        // the first message. Verify the verdict matches the brute-force
        // comparison on a sample.
        let verdict = splittable(&p, &s).unwrap();
        assert!(!verdict.is_splittable());
    }

    #[test]
    fn nondisjoint_splitter_is_rejected() {
        let p = vsa(".*x{a}.*");
        assert!(splittable(&p, &splitter::ngrams(2)).is_err());
    }

    #[test]
    fn paper_example_5_8_canonical_on_nondisjoint() {
        // Example 5.10: with the non-disjoint splitter of Example 5.8 the
        // canonical construction over-produces. We only verify the
        // *construction* (Prop. 5.9 does not require disjointness for
        // building the automaton): P = a y{b} b, S = x{ab}b + a x{bb}.
        let p = vsa("a(y{b})b");
        let s = Splitter::parse("x{ab}b|a(x{bb})").unwrap();
        let can = canonical_split_spanner(&p, &s);
        // Pcan on "ab" = {y = [2,3⟩ (1-based) → [1,2)}; on "bb" = {[0,1)}.
        let r_ab = eval(&can, b"ab");
        assert_eq!(r_ab.len(), 1);
        assert_eq!(r_ab.tuple(0).get(VarId(0)), Span::new(1, 2));
        let r_bb = eval(&can, b"bb");
        assert_eq!(r_bb.len(), 1);
        assert_eq!(r_bb.tuple(0).get(VarId(0)), Span::new(0, 1));
        // Noted erratum: the paper's Example 5.10 computes
        // (Pcan ∘ S)("abb") = {[1,2⟩,[2,3⟩,[3,4⟩} by unioning
        // Pcan(ab) ∪ Pcan(bb) for *both* splits. Under the composition
        // as defined in §3 (evaluate on the chunk content d_s), the split
        // [1,3⟩ has content "ab" and [2,4⟩ has content "bb", so
        // (Pcan ∘ S)("abb") = {[2,3⟩} = P("abb") — for this instance the
        // composition happens to coincide with P.
        let composed = splitc_spanner::splitter::compose(&can, &s);
        let rel = eval(&composed, b"abb");
        assert_eq!(rel, eval(&p, b"abb"));
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn nondisjoint_canonical_overproduces_with_same_content_splits() {
        // The phenomenon Example 5.10 is after (Pcan ∘ S ⊄ P for
        // non-disjoint S) does occur when two *overlapping splits share
        // the same content*: P = y{a}aa, S = x{aa}a + a x{aa} on "aaa".
        // Both splits have content "aa"; Pcan("aa") = {y=[0,1)} (via the
        // first split), and re-shifting it through the second split
        // fabricates y=[1,2) ∉ P("aaa").
        let p = vsa("y{a}aa");
        let s = Splitter::parse("x{aa}a|a(x{aa})").unwrap();
        assert!(!s.is_disjoint());
        let can = canonical_split_spanner(&p, &s);
        let r = eval(&can, b"aa");
        assert_eq!(r.len(), 1);
        assert_eq!(r.tuple(0).get(VarId(0)), Span::new(0, 1));
        let composed = splitc_spanner::splitter::compose(&can, &s);
        let rel = eval(&composed, b"aaa");
        assert_eq!(rel.len(), 2, "fabricated tuple appears");
        assert_eq!(eval(&p, b"aaa").len(), 1);
        // Hence Pcan ∘ S ⊄ P: the converse inclusion of Lemma 5.12 truly
        // needs disjointness.
        assert!(!splitc_spanner::spanner_contains(&composed, &p)
            .unwrap()
            .holds());
    }

    #[test]
    fn lemma_5_14_canonical_is_smallest() {
        // If P = P_S ∘ S with S disjoint, then P^can_S ⊆ P_S.
        let p = vsa("(.*\\n\\n|)x{[a-z]+}(\\n.*|)");
        let ps = vsa("x{[a-z]+}(\\n.*|)");
        let s = splitter::http_messages();
        assert!(crate::split_correct(&p, &ps, &s).unwrap().holds());
        let can = canonical_split_spanner(&p, &s);
        assert!(splitc_spanner::spanner_contains(&can, &ps).unwrap().holds());
    }
}
