//! Property-based tests for the automata substrate.

use crate::antichain;
use crate::dfa::Dfa;
use crate::nfa::{Nfa, StateId, Sym};
use crate::ops::{contains, equivalent, Containment};
use crate::unambiguous::{is_unambiguous, ufa_contains};
use proptest::prelude::*;

/// A compact description of a random NFA for proptest shrinking.
#[derive(Debug, Clone)]
struct RandNfa {
    asize: u32,
    states: usize,
    edges: Vec<(u32, u32, u32)>, // (from, sym, to)
    finals: Vec<u32>,
}

impl RandNfa {
    fn build(&self) -> Nfa {
        let mut n = Nfa::new(self.asize);
        n.add_states(self.states);
        n.add_start(0);
        for &(f, s, t) in &self.edges {
            n.add_transition(
                f % self.states as u32,
                Sym(s % self.asize),
                t % self.states as u32,
            );
        }
        for &f in &self.finals {
            n.set_final(f % self.states as u32, true);
        }
        n
    }
}

fn rand_nfa(max_states: usize, asize: u32) -> impl Strategy<Value = RandNfa> {
    (2..=max_states).prop_flat_map(move |states| {
        (
            proptest::collection::vec((0u32..16, 0u32..8, 0u32..16), 0..20),
            proptest::collection::vec(0u32..16, 1..4),
        )
            .prop_map(move |(edges, finals)| RandNfa {
                asize,
                states,
                edges,
                finals,
            })
    })
}

/// A random DFA over a large alphabet: symbol `s` moves like symbol class
/// `s % classes`, so each state has one edge per symbol of a class and
/// path counts grow like `asize^len`, past `u128` within the
/// Cayley–Hamilton bound of [`ufa_contains`].
#[derive(Debug, Clone)]
struct RandDfa {
    asize: u32,
    states: u32,
    classes: u32,
    /// `cells[q * 3 + class] % (states + 1)`: the target of `q` on that
    /// class, or no edge when it equals `states`.
    cells: Vec<u32>,
    finals: Vec<u32>,
}

impl RandDfa {
    fn target(&self, q: u32, class: u32) -> Option<u32> {
        let to = self.cells[(q * 3 + class) as usize] % (self.states + 1);
        (to < self.states).then_some(to)
    }

    fn build(&self) -> Nfa {
        let mut n = Nfa::new(self.asize);
        n.add_states(self.states as usize);
        n.add_start(0);
        for q in 0..self.states {
            for s in 0..self.asize {
                if let Some(to) = self.target(q, s % self.classes) {
                    n.add_transition(q, Sym(s), to);
                }
            }
        }
        for &f in &self.finals {
            n.set_final(f % self.states, true);
        }
        n
    }

    /// A DFA accepting a superset of `self`'s language: `self` plus
    /// `other`'s edges where `self` has none, and both final sets.
    fn extended_by(&self, other: &RandDfa) -> RandDfa {
        let mut wider = self.clone();
        for (i, cell) in wider.cells.iter_mut().enumerate() {
            if self.target(i as u32 / 3, i as u32 % 3).is_none() {
                *cell = other.cells[i];
            }
        }
        wider.finals.extend(&other.finals);
        wider
    }
}

fn rand_dfa(asize: u32) -> impl Strategy<Value = RandDfa> {
    (
        3u32..=8,
        1u32..=3,
        proptest::collection::vec(0u32..9, 24..25),
        proptest::collection::vec(0u32..8, 1..4),
    )
        .prop_map(move |(states, classes, cells, finals)| RandDfa {
            asize,
            states,
            classes,
            cells,
            finals,
        })
}

/// Two [`rand_dfa`]s over one alphabet of 64 or 256 symbols; in half of
/// the draws the second extends the first, so containment holds.
fn rand_dfa_pair() -> impl Strategy<Value = (RandDfa, RandDfa)> {
    let sizes = prop_oneof![Just(64u32), Just(256u32)];
    (sizes, 0u32..2).prop_flat_map(|(asize, extend)| {
        (rand_dfa(asize), rand_dfa(asize)).prop_map(move |(a, b)| {
            let b = if extend == 1 { a.extended_by(&b) } else { b };
            (a, b)
        })
    })
}

/// Brute-force check whether every word of length <= max_len accepted by a
/// is accepted by b.
fn brute_contained(a: &Nfa, b: &Nfa, max_len: usize) -> Option<Vec<Sym>> {
    a.enumerate_words(max_len, usize::MAX)
        .into_iter()
        .find(|w| !b.accepts(w))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn containment_agrees_with_bruteforce(
        ra in rand_nfa(6, 2),
        rb in rand_nfa(6, 2),
    ) {
        let a = ra.build();
        let b = rb.build();
        let res = contains(&a, &b);
        // Pumping bound: |A| * 2^|B| suffices, but short words catch real
        // discrepancies; rely on the counterexample check below for
        // soundness of the Contained verdict on bounded words.
        match &res {
            Containment::Contained => {
                prop_assert!(brute_contained(&a, &b, 6).is_none());
            }
            Containment::Counterexample(w) => {
                prop_assert!(a.accepts(w));
                prop_assert!(!b.accepts(w));
            }
        }
    }

    #[test]
    fn antichain_agrees_with_determinize_first(
        ra in rand_nfa(6, 3),
        rb in rand_nfa(6, 3),
    ) {
        let a = ra.build();
        let b = rb.build();
        let lazy = antichain::contains(&a, &b);
        let refr = antichain::contains_determinize_first(&a, &b);
        prop_assert_eq!(lazy.holds(), refr.holds());
        // Both searches are breadth-first, so witnesses have equal
        // (minimal) length, and each must be a genuine counterexample.
        if let (
            Containment::Counterexample(w1),
            Containment::Counterexample(w2),
        ) = (&lazy, &refr) {
            prop_assert_eq!(w1.len(), w2.len());
            prop_assert!(a.accepts(w1) && !b.accepts(w1));
            prop_assert!(a.accepts(w2) && !b.accepts(w2));
        }
    }

    #[test]
    fn determinization_preserves_language(ra in rand_nfa(6, 2)) {
        let a = ra.build();
        let d = Dfa::determinize(&a);
        for len in 0..=5usize {
            for wi in 0..(1u32 << len) {
                let w: Vec<Sym> = (0..len).map(|i| Sym((wi >> i) & 1)).collect();
                prop_assert_eq!(a.accepts(&w), d.accepts(&w));
            }
        }
    }

    #[test]
    fn minimize_equivalent_to_unminimized(ra in rand_nfa(6, 2)) {
        // (a) word samples: every word up to length 6 is classified
        // identically by the raw determinization and its minimization...
        let a = ra.build();
        let d = Dfa::determinize(&a);
        let m = d.minimize();
        prop_assert!(m.num_states() <= d.num_states());
        for len in 0..=6usize {
            for wi in 0..(1u32 << len) {
                let w: Vec<Sym> = (0..len).map(|i| Sym((wi >> i) & 1)).collect();
                prop_assert_eq!(d.accepts(&w), m.accepts(&w));
            }
        }
        // ...and (b) via the antichain containment check, both
        // directions, on the full (unbounded) languages.
        let dn = d.to_nfa();
        let mn = m.to_nfa();
        prop_assert!(contains(&dn, &mn).holds());
        prop_assert!(contains(&mn, &dn).holds());
    }

    #[test]
    fn minimize_is_idempotent(ra in rand_nfa(6, 2)) {
        // Re-minimizing a minimized DFA merges, drops and renumbers
        // nothing: it returns the same automaton, id for id.
        let m = Dfa::determinize(&ra.build()).minimize();
        let mm = m.minimize();
        prop_assert_eq!(mm.num_states(), m.num_states());
        prop_assert_eq!(mm.start(), m.start());
        for q in 0..m.num_states() as StateId {
            prop_assert_eq!(mm.is_final(q), m.is_final(q));
            for a in 0..m.alphabet_size() {
                prop_assert_eq!(mm.step(q, Sym(a)), m.step(q, Sym(a)));
            }
        }
    }

    #[test]
    fn trim_preserves_language(ra in rand_nfa(6, 2)) {
        let a = ra.build();
        let t = a.trim();
        prop_assert!(equivalent(&a, &t).holds());
    }

    #[test]
    fn reverse_is_involution(ra in rand_nfa(5, 2)) {
        let a = ra.build();
        let rr = a.reverse().reverse();
        prop_assert!(equivalent(&a, &rr).holds());
    }

    #[test]
    fn ufa_containment_agrees_when_unambiguous(
        ra in rand_nfa(5, 2),
        rb in rand_nfa(5, 2),
        dfas in rand_dfa_pair(),
    ) {
        let a = ra.build();
        let b = rb.build();
        if is_unambiguous(&a) && is_unambiguous(&b) {
            let fast = ufa_contains(&a, &b).unwrap();
            let slow = contains(&a, &b).holds();
            prop_assert_eq!(fast, slow);
        }
        // DFAs are unambiguous by construction; over 64 or 256 symbols
        // their path counts outgrow every fixed-width integer.
        let (a, b) = (dfas.0.build(), dfas.1.build());
        prop_assert_eq!(ufa_contains(&a, &b).unwrap(), contains(&a, &b).holds());
    }

    #[test]
    fn union_accepts_both(ra in rand_nfa(5, 2), rb in rand_nfa(5, 2)) {
        let a = ra.build();
        let b = rb.build();
        let u = a.union(&b);
        prop_assert!(contains(&a, &u).holds());
        prop_assert!(contains(&b, &u).holds());
        // And nothing more.
        for w in u.enumerate_words(5, 200) {
            prop_assert!(a.accepts(&w) || b.accepts(&w));
        }
    }

    #[test]
    fn intersection_is_conjunction(ra in rand_nfa(5, 2), rb in rand_nfa(5, 2)) {
        let a = ra.build().remove_eps();
        let b = rb.build().remove_eps();
        let i = a.intersect(&b);
        for len in 0..=5usize {
            for wi in 0..(1u32 << len) {
                let w: Vec<Sym> = (0..len).map(|k| Sym((wi >> k) & 1)).collect();
                prop_assert_eq!(i.accepts(&w), a.accepts(&w) && b.accepts(&w));
            }
        }
    }
}
