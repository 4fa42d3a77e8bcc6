//! Unambiguous finite automata: ambiguity testing and polynomial-time
//! containment (Stearns & Hunt 1985).
//!
//! An NFA is *unambiguous* if every word has at most one accepting run.
//! Containment `L(A) ⊆ L(B)` for unambiguous `A` and `B` is decidable in
//! polynomial time: because runs and words are in bijection,
//! `L(A) ⊆ L(B)` iff for every length `n` the number of accepting paths of
//! `A` equals the number of accepting paths of the product `A × B` (which
//! is again unambiguous). Both count sequences satisfy linear recurrences
//! of order ≤ their state counts, so agreement on lengths
//! `0 ..= |Q_A| + |Q_{A×B}|` implies agreement everywhere. The counts are
//! exact ([`PathCounter`]: add-only multi-word integers whose width is
//! fixed up front from `|starts| · maxdeg^L`), so the answer is a proof
//! either way.
//!
//! This is the engine behind the paper's polynomial-time cover-condition
//! check for deterministic functional VSet-automata with disjoint splitters
//! (Lemma 5.6).

use crate::counting::PathCounter;
use crate::nfa::{Nfa, StateId};
use std::collections::{HashSet, VecDeque};

/// Tests whether the automaton is unambiguous (at most one accepting run
/// per word). ε-transitions are eliminated and the automaton trimmed first;
/// ambiguity is judged on the normalized automaton.
///
/// Pair-product criterion with a "diverged" flag: the (ε-eliminated,
/// trimmed) automaton is ambiguous iff the self-product can reach, on the
/// same word, a pair of final states after the two runs have differed in at
/// least one state. The flag is necessary because two distinct runs may
/// re-converge to the same final state.
pub fn is_unambiguous(nfa: &Nfa) -> bool {
    let n = nfa.remove_eps().trim();
    if n.num_states() == 0 {
        return true;
    }
    !has_two_accepting_runs(&n)
}

/// Detects two distinct runs on the same word that end in (possibly equal)
/// final states: the pair product with a "diverged" flag.
fn has_two_accepting_runs(n: &Nfa) -> bool {
    let mut seen: HashSet<(StateId, StateId, bool)> = HashSet::new();
    let mut queue: VecDeque<(StateId, StateId, bool)> = VecDeque::new();
    for &s1 in n.starts() {
        for &s2 in n.starts() {
            let (a, b) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
            let diverged = a != b;
            if seen.insert((a, b, diverged)) {
                queue.push_back((a, b, diverged));
            }
        }
    }
    while let Some((p, q, diverged)) = queue.pop_front() {
        if diverged && n.is_final(p) && n.is_final(q) {
            return true;
        }
        for &(s1, r1) in n.transitions_from(p) {
            for &(s2, r2) in n.transitions_from(q) {
                if s1 != s2 {
                    continue;
                }
                // remove_eps deduplicates parallel edges, so from p == q a
                // pair (r1, r2) with r1 == r2 is the same edge taken twice
                // (the same run), and r1 != r2 is a genuine divergence.
                let d2 = diverged || r1 != r2;
                let (a, b) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
                if seen.insert((a, b, d2)) {
                    queue.push_back((a, b, d2));
                }
            }
        }
    }
    false
}

/// Error raised by [`ufa_contains`] when an input is ambiguous.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AmbiguousInput {
    /// Which side was ambiguous: `"left"` or `"right"`.
    pub side: &'static str,
}

impl std::fmt::Display for AmbiguousInput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} automaton is ambiguous", self.side)
    }
}

impl std::error::Error for AmbiguousInput {}

/// Polynomial-time containment for unambiguous automata, verifying
/// unambiguity of both inputs first.
pub fn ufa_contains(a: &Nfa, b: &Nfa) -> Result<bool, AmbiguousInput> {
    if !is_unambiguous(a) {
        return Err(AmbiguousInput { side: "left" });
    }
    if !is_unambiguous(b) {
        return Err(AmbiguousInput { side: "right" });
    }
    Ok(ufa_contains_unchecked(a, b))
}

/// Polynomial-time containment for automata the caller guarantees to be
/// unambiguous (e.g. by construction, as in Lemma 5.6 of the paper).
///
/// Compares the exact accepting-path counts of `a` and of the product
/// `a × b` for all word lengths up to the Cayley–Hamilton bound, in one
/// [`PathCounter`] pass per automaton that stops at the first length
/// where they differ.
pub fn ufa_contains_unchecked(a: &Nfa, b: &Nfa) -> bool {
    debug_assert_eq!(a.alphabet_size(), b.alphabet_size());
    let an = a.remove_eps().trim();
    let bn = b.remove_eps().trim();
    if an.num_states() == 0 {
        return true; // empty language contained in anything
    }
    let prod = an.intersect(&bn).trim();
    let bound = an.num_states() + prod.num_states() + 1;
    let mut ca = PathCounter::new(&an, bound);
    let mut cp = PathCounter::new(&prod, bound);
    for len in 0..=bound {
        if ca.count() != cp.count() {
            return false;
        }
        if len < bound {
            ca.step();
            cp.step();
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::Sym;
    use crate::ops::contains;

    fn sigma_star(asize: u32) -> Nfa {
        let mut n = Nfa::new(asize);
        let q = n.add_state();
        n.add_start(q);
        n.set_final(q, true);
        for s in 0..asize {
            n.add_transition(q, Sym(s), q);
        }
        n
    }

    fn word_nfa(asize: u32, w: &[u32]) -> Nfa {
        let mut n = Nfa::new(asize);
        let mut q = n.add_state();
        n.add_start(q);
        for &c in w {
            let r = n.add_state();
            n.add_transition(q, Sym(c), r);
            q = r;
        }
        n.set_final(q, true);
        n
    }

    #[test]
    fn dfa_is_unambiguous() {
        assert!(is_unambiguous(&sigma_star(2)));
        assert!(is_unambiguous(&word_nfa(2, &[0, 1])));
    }

    #[test]
    fn parallel_paths_are_ambiguous() {
        let mut n = Nfa::new(1);
        let q0 = n.add_state();
        let q1 = n.add_state();
        let q2 = n.add_state();
        let f = n.add_state();
        n.add_start(q0);
        n.add_transition(q0, Sym(0), q1);
        n.add_transition(q0, Sym(0), q2);
        n.add_transition(q1, Sym(0), f);
        n.add_transition(q2, Sym(0), f);
        n.set_final(f, true);
        assert!(!is_unambiguous(&n)); // two runs for "aa", re-converging
    }

    #[test]
    fn diverge_without_accept_is_fine() {
        // Nondeterministic but unambiguous: (a a) | (a b), sharing prefix
        // via two branches — each word has one accepting run.
        let mut n = Nfa::new(2);
        let q0 = n.add_state();
        let q1 = n.add_state();
        let q2 = n.add_state();
        let f1 = n.add_state();
        let f2 = n.add_state();
        n.add_start(q0);
        n.add_transition(q0, Sym(0), q1);
        n.add_transition(q0, Sym(0), q2);
        n.add_transition(q1, Sym(0), f1);
        n.add_transition(q2, Sym(1), f2);
        n.set_final(f1, true);
        n.set_final(f2, true);
        assert!(is_unambiguous(&n));
    }

    #[test]
    fn ufa_containment_agrees_with_general() {
        // a* ⊆ Σ*, Σ* ⊄ a*
        let mut astar = Nfa::new(2);
        let q = astar.add_state();
        astar.add_start(q);
        astar.set_final(q, true);
        astar.add_transition(q, Sym(0), q);
        let ss = sigma_star(2);
        assert!(ufa_contains(&astar, &ss).unwrap());
        assert!(!ufa_contains(&ss, &astar).unwrap());
        assert_eq!(
            contains(&astar, &ss).holds(),
            ufa_contains(&astar, &ss).unwrap()
        );
    }

    #[test]
    fn counts_past_u128_decide_containment() {
        // Σ^{≥20} over 256 symbols, and the same language minus the words
        // whose 20th symbol is 0. Their counts first differ at length 20:
        // 2^160 against 255 · 2^152, both past `u128::MAX`.
        let at_least_20 = |banned: Option<u32>| {
            let mut n = Nfa::new(256);
            n.add_states(21);
            n.add_start(0);
            for q in 0..20 {
                for s in (0..256).filter(|&s| q != 19 || Some(s) != banned) {
                    n.add_transition(q, Sym(s), q + 1);
                }
            }
            for s in 0..256 {
                n.add_transition(20, Sym(s), 20);
            }
            n.set_final(20, true);
            n
        };
        let (all, gapped) = (at_least_20(None), at_least_20(Some(0)));
        assert!(ufa_contains(&gapped, &all).unwrap());
        assert!(ufa_contains(&all, &sigma_star(256)).unwrap());
        assert!(!ufa_contains(&all, &gapped).unwrap());
        assert!(!contains(&all, &gapped).holds());
    }

    #[test]
    fn ambiguous_input_is_rejected() {
        let mut n = Nfa::new(1);
        let q0 = n.add_state();
        let f1 = n.add_state();
        let f2 = n.add_state();
        n.add_start(q0);
        n.add_transition(q0, Sym(0), f1);
        n.add_transition(q0, Sym(0), f2);
        n.set_final(f1, true);
        n.set_final(f2, true);
        assert_eq!(ufa_contains(&n, &sigma_star(1)).unwrap_err().side, "left");
    }

    #[test]
    fn equal_languages_contained_both_ways() {
        // Two different unambiguous automata for a+: chain-based and loop.
        let mut a = Nfa::new(1);
        let q0 = a.add_state();
        let q1 = a.add_state();
        a.add_start(q0);
        a.add_transition(q0, Sym(0), q1);
        a.add_transition(q1, Sym(0), q1);
        a.set_final(q1, true);
        let mut b = Nfa::new(1);
        let p0 = b.add_state();
        let p1 = b.add_state();
        b.add_start(p0);
        b.add_transition(p0, Sym(0), p0);
        b.add_transition(p0, Sym(0), p1);
        b.set_final(p1, true);
        // b is ambiguous? For word a^n there is exactly one run: loop p0
        // n-1 times then move to p1. Unambiguous.
        assert!(is_unambiguous(&b));
        assert!(ufa_contains(&a, &b).unwrap());
        assert!(ufa_contains(&b, &a).unwrap());
    }
}
