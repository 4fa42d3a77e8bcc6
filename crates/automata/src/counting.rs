//! Exact accepting-path counting for finite automata.
//!
//! For an **unambiguous** automaton the number of accepting paths on words
//! of length `n` equals the number of accepted words of length `n`; this is
//! the engine behind the polynomial-time containment test of Stearns &
//! Hunt (1985) used by Lemma 5.6 of the paper (the tractable cover-condition
//! check). Sequences of path counts satisfy a linear recurrence of order ≤
//! `num_states`, so agreement on a finite prefix of lengths implies
//! agreement everywhere (Cayley–Hamilton).
//!
//! Counts are exact. A count is a fixed-width little-endian multi-word
//! integer, and counting only ever adds. The width is fixed before
//! counting: every count and partial sum up to length `L` is at most the
//! number of length-`L` paths, `|starts| · maxdeg^L`, where `maxdeg` is
//! the largest out-degree. So a count fits in
//! `⌈log2 |starts|⌉ + L·⌈log2 maxdeg⌉ + 1` bits and no addition can
//! overflow.

use crate::nfa::{Nfa, StateId};

/// Streams, per word length, the exact number of accepting paths of an
/// ε-free automaton, up to a length fixed at construction.
pub struct PathCounter<'a> {
    nfa: &'a Nfa,
    /// Limbs per count, enough for every length up to the maximum.
    width: usize,
    /// `counts[q * width..][..width]` = paths from a start state to `q`
    /// of the current length.
    counts: Vec<u64>,
    next: Vec<u64>,
    /// Sum over the final states, trimmed by [`PathCounter::count`].
    total: Vec<u64>,
}

/// `⌈log2 x⌉`, with `0` for `x <= 1`.
fn ceil_log2(x: usize) -> usize {
    x.max(1).next_power_of_two().trailing_zeros() as usize
}

/// `dst += src` over equal-width limbs. The width bound rules out a carry
/// out of the top limb.
fn add_into(dst: &mut [u64], src: &[u64]) {
    let mut carry = false;
    for (d, &s) in dst.iter_mut().zip(src) {
        let (v, c1) = d.overflowing_add(s);
        let (v, c2) = v.overflowing_add(carry as u64);
        *d = v;
        carry = c1 | c2;
    }
    assert!(!carry, "path count exceeded its width bound");
}

impl<'a> PathCounter<'a> {
    /// Creates a counter for word lengths `0..=max_len`; `nfa` must be
    /// ε-free (debug-asserted).
    pub fn new(nfa: &'a Nfa, max_len: usize) -> Self {
        debug_assert!(!nfa.has_eps(), "PathCounter requires an eps-free NFA");
        let n = nfa.num_states();
        let maxdeg = (0..n)
            .map(|q| nfa.transitions_from(q as StateId).len())
            .max()
            .unwrap_or(0);
        let bits = ceil_log2(nfa.starts().len()) + max_len * ceil_log2(maxdeg) + 1;
        let width = bits.div_ceil(64);
        let mut counts = vec![0; n * width];
        for &s in nfa.starts() {
            // Multiple start entries are deduplicated by Nfa::add_start.
            counts[s as usize * width] = 1;
        }
        PathCounter {
            nfa,
            width,
            counts,
            next: vec![0; n * width],
            total: vec![0; width],
        }
    }

    /// The exact number of accepting paths at the current length, as
    /// little-endian limbs without trailing zero limbs (so equal counts
    /// are equal slices, and zero is empty).
    pub fn count(&mut self) -> &[u64] {
        let w = self.width;
        self.total.fill(0);
        for q in self.nfa.final_states() {
            add_into(&mut self.total, &self.counts[q as usize * w..][..w]);
        }
        let used = self
            .total
            .iter()
            .rposition(|&l| l != 0)
            .map_or(0, |i| i + 1);
        &self.total[..used]
    }

    /// Advances to the next word length (at most the `max_len` given to
    /// [`PathCounter::new`]).
    pub fn step(&mut self) {
        let w = self.width;
        self.next.fill(0);
        for (q, c) in self.counts.chunks_exact(w).enumerate() {
            if c.iter().all(|&l| l == 0) {
                continue;
            }
            for &(_, r) in self.nfa.transitions_from(q as StateId) {
                add_into(&mut self.next[r as usize * w..][..w], c);
            }
        }
        std::mem::swap(&mut self.counts, &mut self.next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::Sym;

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

    /// Counts for lengths `0..=max_len` (ε removed first), as limbs.
    fn path_counts(nfa: &Nfa, max_len: usize) -> Vec<Vec<u64>> {
        let nfa = nfa.remove_eps();
        let mut counter = PathCounter::new(&nfa, max_len);
        let mut out = vec![counter.count().to_vec()];
        for _ in 0..max_len {
            counter.step();
            out.push(counter.count().to_vec());
        }
        out
    }

    /// [`path_counts`] of counts known to fit one limb.
    fn small_counts(nfa: &Nfa, max_len: usize) -> Vec<u64> {
        let limb = |c: Vec<u64>| {
            assert!(c.len() <= 1, "count {c:?} exceeds one limb");
            c.first().copied().unwrap_or(0)
        };
        path_counts(nfa, max_len).into_iter().map(limb).collect()
    }

    #[test]
    fn counts_sigma_star() {
        // Over a 2-letter alphabet: 1, 2, 4, 8, ...
        assert_eq!(small_counts(&sigma_star(2), 5), vec![1, 2, 4, 8, 16, 32]);
        assert_eq!(small_counts(&sigma_star(3), 3), vec![1, 3, 9, 27]);
    }

    #[test]
    fn counts_past_u128_are_exact() {
        // Σ* over 256 symbols at length 20 has exactly 256^20 = 2^160
        // words: limbs 0, 0 and 2^32. A `u128` count saturates here.
        let counts = path_counts(&sigma_star(256), 20);
        assert_eq!(counts[20], vec![0, 0, 1 << 32]);
        assert_eq!(counts[16], vec![0, 0, 1], "2^128");
        assert_eq!(counts[15], vec![0, 1 << 56], "2^120");
    }

    #[test]
    fn streaming_counter_matches_batch() {
        // A counter's fixed width follows its `max_len`; the counts must
        // not: a counter sized for length 40 streams the same values as
        // one sized for each shorter prefix.
        let n = sigma_star(200);
        let mut c = PathCounter::new(&n, 40);
        for len in 0..=40 {
            assert_eq!(c.count(), path_counts(&n, len)[len], "length {len}");
            if len < 40 {
                c.step();
            }
        }
    }

    #[test]
    fn counts_single_word() {
        let mut n = Nfa::new(2);
        let q0 = n.add_state();
        let q1 = n.add_state();
        n.add_start(q0);
        n.add_transition(q0, Sym(1), q1);
        n.set_final(q1, true);
        assert_eq!(small_counts(&n, 3), vec![0, 1, 0, 0]);
    }

    #[test]
    fn ambiguous_automaton_counts_paths_not_words() {
        // Two parallel paths accepting "a": path count 2, word count 1.
        let mut n = Nfa::new(1);
        let q0 = n.add_state();
        let q1 = n.add_state();
        let q2 = n.add_state();
        n.add_start(q0);
        n.add_transition(q0, Sym(0), q1);
        n.add_transition(q0, Sym(0), q2);
        n.set_final(q1, true);
        n.set_final(q2, true);
        assert_eq!(small_counts(&n, 1), vec![0, 2]);
    }

    #[test]
    fn eps_inputs_are_handled() {
        let mut n = Nfa::new(1);
        let q0 = n.add_state();
        let q1 = n.add_state();
        n.add_start(q0);
        n.add_eps(q0, q1);
        n.add_transition(q1, Sym(0), q1);
        n.set_final(q1, true);
        assert_eq!(small_counts(&n, 3), vec![1, 1, 1, 1]);
    }
}
