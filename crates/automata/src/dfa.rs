//! Deterministic finite automata and subset construction.

use crate::nfa::{Nfa, StateId, Sym};
use std::collections::HashMap;

/// A deterministic finite automaton with a (dense) transition table.
///
/// `trans[q * alphabet_size + a]` is the successor of state `q` on symbol
/// `a`, or `DEAD` when undefined (the implicit rejecting sink).
#[derive(Debug, Clone)]
pub struct Dfa {
    alphabet_size: u32,
    trans: Vec<StateId>,
    start: StateId,
    finals: Vec<bool>,
}

/// Sentinel for "no transition" (implicit dead state).
pub const DEAD: StateId = StateId::MAX;

impl Dfa {
    /// Alphabet size.
    #[inline]
    pub fn alphabet_size(&self) -> u32 {
        self.alphabet_size
    }

    /// Number of (explicit) states.
    #[inline]
    pub fn num_states(&self) -> usize {
        self.finals.len()
    }

    /// The start state.
    #[inline]
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Whether `q` accepts.
    #[inline]
    pub fn is_final(&self, q: StateId) -> bool {
        self.finals[q as usize]
    }

    /// Successor of `q` on `sym`, or [`DEAD`].
    #[inline]
    pub fn step(&self, q: StateId, sym: Sym) -> StateId {
        self.trans[q as usize * self.alphabet_size as usize + sym.index()]
    }

    /// Runs the automaton on a word.
    pub fn accepts(&self, word: &[Sym]) -> bool {
        let mut q = self.start;
        for &s in word {
            q = self.step(q, s);
            if q == DEAD {
                return false;
            }
        }
        self.is_final(q)
    }

    /// Subset construction: determinizes an NFA (ε-transitions allowed).
    ///
    /// Worst-case exponential — this is exactly the PSPACE-hardness source
    /// the paper works around with dfVSA; the library exposes it for the
    /// general procedures and for small inputs.
    pub fn determinize(nfa: &Nfa) -> Dfa {
        let nfa = nfa.remove_eps();
        let asize = nfa.alphabet_size();
        let mut subsets: HashMap<Vec<StateId>, StateId> = HashMap::new();
        let mut worklist: Vec<Vec<StateId>> = Vec::new();
        let mut trans: Vec<StateId> = Vec::new();
        let mut finals: Vec<bool> = Vec::new();

        let mut start_set: Vec<StateId> = nfa.starts().to_vec();
        start_set.sort_unstable();
        start_set.dedup();

        let mut intern = |set: Vec<StateId>,
                          worklist: &mut Vec<Vec<StateId>>,
                          trans: &mut Vec<StateId>,
                          finals: &mut Vec<bool>|
         -> StateId {
            if let Some(&id) = subsets.get(&set) {
                return id;
            }
            let id = finals.len() as StateId;
            finals.push(set.iter().any(|&q| nfa.is_final(q)));
            trans.extend(std::iter::repeat_n(DEAD, asize as usize));
            subsets.insert(set.clone(), id);
            worklist.push(set);
            id
        };

        let start = intern(start_set, &mut worklist, &mut trans, &mut finals);
        let mut idx = 0usize;
        while idx < worklist.len() {
            let set = worklist[idx].clone();
            let id = idx as StateId;
            idx += 1;
            // Group successors by symbol.
            let mut by_sym: HashMap<Sym, Vec<StateId>> = HashMap::new();
            for &q in &set {
                for &(s, r) in nfa.transitions_from(q) {
                    by_sym.entry(s).or_default().push(r);
                }
            }
            for (s, mut succ) in by_sym {
                succ.sort_unstable();
                succ.dedup();
                let rid = intern(succ, &mut worklist, &mut trans, &mut finals);
                trans[id as usize * asize as usize + s.index()] = rid;
            }
        }
        let _ = start;
        Dfa {
            alphabet_size: asize,
            trans,
            start: 0,
            finals,
        }
    }

    /// Minimizes the automaton by Moore partition refinement
    /// ([`moore_refine`]): states are split by acceptance, then
    /// repeatedly by successor-block signature until stable. `O(n² · |Σ|)`
    /// worst case — simple and sufficient for the automata the decision
    /// procedures produce. The implicit dead state is kept implicit
    /// (unreachable states are dropped; dead-equivalent ones are kept).
    pub fn minimize(&self) -> Dfa {
        let n = self.num_states();
        if n == 0 {
            return self.clone();
        }
        let asize = self.alphabet_size as usize;
        // Reachable states only, renumbered in ascending order.
        let mut reach = vec![false; n];
        let mut stack = vec![self.start];
        reach[self.start as usize] = true;
        while let Some(q) = stack.pop() {
            for a in 0..asize {
                let r = self.trans[q as usize * asize + a];
                if r != DEAD && !reach[r as usize] {
                    reach[r as usize] = true;
                    stack.push(r);
                }
            }
        }
        let old_of: Vec<usize> = (0..n).filter(|&q| reach[q]).collect();
        let mut compact = vec![DEAD; n];
        for (i, &q) in old_of.iter().enumerate() {
            compact[q] = i as StateId;
        }
        let init: Vec<u32> = old_of.iter().map(|&q| self.finals[q] as u32).collect();
        let succ: Vec<StateId> = old_of
            .iter()
            .flat_map(|&q| &self.trans[q * asize..(q + 1) * asize])
            .map(|&r| if r == DEAD { DEAD } else { compact[r as usize] })
            .collect();
        let block = moore_refine(&init, &succ, asize);
        // Build the quotient.
        let num_blocks = block.iter().max().map_or(0, |&m| m as usize + 1);
        let mut trans = vec![DEAD; num_blocks * asize];
        let mut finals = vec![false; num_blocks];
        for (i, &b) in block.iter().enumerate() {
            let b = b as usize;
            finals[b] = self.finals[old_of[i]];
            for a in 0..asize {
                let r = succ[i * asize + a];
                if r != DEAD {
                    trans[b * asize + a] = block[r as usize];
                }
            }
        }
        Dfa {
            alphabet_size: self.alphabet_size,
            trans,
            start: block[compact[self.start as usize] as usize],
            finals,
        }
    }

    /// Converts back to an NFA (useful for reusing NFA-level algorithms).
    pub fn to_nfa(&self) -> Nfa {
        let mut n = Nfa::new(self.alphabet_size);
        n.add_states(self.num_states());
        n.add_start(self.start);
        for q in 0..self.num_states() as StateId {
            n.set_final(q, self.finals[q as usize]);
            for a in 0..self.alphabet_size {
                let r = self.step(q, Sym(a));
                if r != DEAD {
                    n.add_transition(q, Sym(a), r);
                }
            }
        }
        n
    }

    /// Complement over the full alphabet: completes with the dead state and
    /// flips acceptance.
    pub fn complement(&self) -> Dfa {
        let asize = self.alphabet_size as usize;
        let n = self.num_states();
        let mut trans = self.trans.clone();
        // Materialize the dead state as an explicit, now-accepting sink.
        let dead_id = n as StateId;
        for t in trans.iter_mut() {
            if *t == DEAD {
                *t = dead_id;
            }
        }
        trans.extend(std::iter::repeat_n(dead_id, asize));
        let mut finals: Vec<bool> = self.finals.iter().map(|f| !f).collect();
        finals.push(true);
        Dfa {
            alphabet_size: self.alphabet_size,
            trans,
            start: self.start,
            finals,
        }
    }
}

/// Moore partition refinement: the coarsest partition of states that
/// refines `init` and in which two states share a block only if, for
/// every `k < arity`, their `k`-th successors (row-major in `succ`,
/// `succ[q * arity + k]`, [`DEAD`] = no edge) share a block or both are
/// [`DEAD`]. Returns each state's block, numbered in order of first
/// appearance: state 0 lies in block 0, and a block's lowest state is
/// lower than that of every later block.
///
/// Two states end in one block iff they are bisimilar: equal initial
/// blocks along every pair of equal-label paths. [`Dfa::minimize`]
/// refines acceptance over the alphabet; a caller with several kinds of
/// edge per symbol lays them side by side in one row.
pub fn moore_refine(init: &[u32], succ: &[StateId], arity: usize) -> Vec<u32> {
    let n = init.len();
    assert_eq!(
        succ.len(),
        n * arity,
        "successor table must be states × arity"
    );
    let (mut block, mut count) = number_by_first_appearance(init.chunks(1));
    let mut sig: Vec<u32> = Vec::with_capacity(n * (arity + 1));
    loop {
        // A state's signature: its block, then its successors' blocks.
        sig.clear();
        for q in 0..n {
            sig.push(block[q]);
            let row = &succ[q * arity..(q + 1) * arity];
            sig.extend(
                row.iter()
                    .map(|&r| if r == DEAD { DEAD } else { block[r as usize] }),
            );
        }
        let (next, next_count) = number_by_first_appearance(sig.chunks(arity + 1));
        // Refinement only splits blocks: an unchanged count is a fixpoint.
        if next_count == count {
            return next;
        }
        (block, count) = (next, next_count);
    }
}

/// Numbers the distinct keys in order of first appearance; returns each
/// key's number and the count of distinct keys.
fn number_by_first_appearance<'a>(keys: impl Iterator<Item = &'a [u32]>) -> (Vec<u32>, usize) {
    let mut ids: HashMap<&[u32], u32> = HashMap::new();
    let numbers = keys
        .map(|k| {
            let fresh = ids.len() as u32;
            *ids.entry(k).or_insert(fresh)
        })
        .collect();
    (numbers, ids.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ends_in_a() -> Nfa {
        let mut n = Nfa::new(2);
        let q0 = n.add_state();
        let q1 = n.add_state();
        n.add_start(q0);
        n.set_final(q1, true);
        n.add_transition(q0, Sym(0), q0);
        n.add_transition(q0, Sym(1), q0);
        n.add_transition(q0, Sym(0), q1);
        n
    }

    #[test]
    fn determinize_matches_nfa() {
        let n = ends_in_a();
        let d = Dfa::determinize(&n);
        for w in n.enumerate_words(5, 100) {
            assert!(d.accepts(&w));
        }
        assert!(!d.accepts(&[]));
        assert!(!d.accepts(&[Sym(1)]));
        assert!(d.accepts(&[Sym(1), Sym(0)]));
    }

    #[test]
    fn complement_flips() {
        let d = Dfa::determinize(&ends_in_a());
        let c = d.complement();
        assert!(c.accepts(&[]));
        assert!(c.accepts(&[Sym(1)]));
        assert!(!c.accepts(&[Sym(0)]));
        assert!(!c.accepts(&[Sym(1), Sym(0)]));
    }

    #[test]
    fn minimize_collapses_equivalent_states() {
        // Two redundant paths to acceptance: (a|b)(a|b)* built wastefully.
        let mut n = Nfa::new(2);
        let q0 = n.add_state();
        let f1 = n.add_state();
        let f2 = n.add_state();
        n.add_start(q0);
        n.add_transition(q0, Sym(0), f1);
        n.add_transition(q0, Sym(1), f2);
        for f in [f1, f2] {
            n.set_final(f, true);
            n.add_transition(f, Sym(0), f);
            n.add_transition(f, Sym(1), f);
        }
        let d = Dfa::determinize(&n);
        let m = d.minimize();
        assert_eq!(m.num_states(), 2, "q0 + one accepting sink");
        for w in n.enumerate_words(4, 50) {
            assert!(m.accepts(&w));
        }
        assert!(!m.accepts(&[]));
    }

    #[test]
    fn minimize_preserves_language() {
        let d = Dfa::determinize(&ends_in_a());
        let m = d.minimize();
        assert!(m.num_states() <= d.num_states());
        for len in 0..=6usize {
            for wi in 0..(1u32 << len) {
                let w: Vec<Sym> = (0..len).map(|i| Sym((wi >> i) & 1)).collect();
                assert_eq!(d.accepts(&w), m.accepts(&w));
            }
        }
    }

    #[test]
    fn moore_refine_splits_on_any_edge_kind() {
        // Rows of two edge kinds. States 1 and 2 differ only in the
        // second kind (1 → 3, 2 → DEAD), so they split; 3 and 4 merge.
        let init = [0, 0, 0, 1, 1];
        let succ = [
            1, 2, //
            3, 3, //
            4, DEAD, //
            DEAD, DEAD, //
            DEAD, DEAD,
        ];
        assert_eq!(moore_refine(&init, &succ, 2), vec![0, 1, 2, 3, 3]);
        assert_eq!(moore_refine(&[7, 7], &[], 0), vec![0, 0]);
    }

    #[test]
    fn roundtrip_to_nfa() {
        let d = Dfa::determinize(&ends_in_a());
        let n = d.to_nfa();
        assert!(n.accepts(&[Sym(1), Sym(0)]));
        assert!(!n.accepts(&[Sym(1)]));
    }
}
