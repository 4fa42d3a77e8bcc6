//! Spanner containment and equivalence (paper §4.3).
//!
//! Two spanners are compared as regular languages of **order-normalized
//! valid ref-words** over a shared extended alphabet: `P ⊆ P′` iff the
//! normalized language of `P` is contained in that of `P′`. The generic
//! containment engine is the lazy subset construction of
//! [`splitc_automata::ops::contains`]; on deterministic functional inputs
//! the subsets stay singletons and the check runs in polynomial time —
//! exactly the paper's Theorem 4.3 (NL containment for dfVSA), while for
//! nondeterministic inputs it realizes the PSPACE procedure of Theorem
//! 4.1.
//!
//! On failure, a counterexample `(document, tuple)` is materialized from
//! the witness word (choosing a representative byte per byte class).

use crate::evsa::EVsa;
use crate::ext::ExtAlphabet;
use crate::tuple::SpanTuple;
use crate::vsa::Vsa;
use splitc_automata::antichain;
use splitc_automata::nfa::Nfa;
use splitc_automata::ops::Containment;

/// Containment engine selection for the language-level spanner checks.
///
/// The default routes through the antichain-pruned on-the-fly search
/// ([`splitc_automata::antichain`]); the determinize-first reference is
/// kept for differential testing and for the
/// `t3_certification_scaling` benchmark baseline. Verdicts are always
/// identical; only cost differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckStrategy {
    /// Lazy subset search with antichain pruning and symbol-class
    /// alphabet collapse (the production path).
    #[default]
    Antichain,
    /// Determinize the right-hand automaton up front (exponential in its
    /// size regardless of the instance), then walk the product.
    DeterminizeFirst,
}

impl CheckStrategy {
    /// Stable lowercase name, as used in `BENCH` row `engine` fields.
    pub fn name(self) -> &'static str {
        match self {
            CheckStrategy::Antichain => "antichain",
            CheckStrategy::DeterminizeFirst => "determinize",
        }
    }

    /// Containment of raw NFAs under this strategy.
    pub(crate) fn contains(self, a: &Nfa, b: &Nfa) -> Containment {
        match self {
            CheckStrategy::Antichain => antichain::contains(a, b),
            CheckStrategy::DeterminizeFirst => antichain::contains_determinize_first(a, b),
        }
    }
}

/// Result of a spanner containment / equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpannerCheck {
    /// The checked property holds.
    Holds,
    /// Witness: `doc` and `tuple` are produced by one side only.
    Counterexample {
        /// A document on which the spanners differ.
        doc: Vec<u8>,
        /// A tuple output by exactly one of the spanners on `doc`.
        tuple: SpanTuple,
        /// `true` when the tuple is produced by the *left* spanner.
        left_has_it: bool,
    },
}

impl SpannerCheck {
    /// Whether the property holds.
    pub fn holds(&self) -> bool {
        matches!(self, SpannerCheck::Holds)
    }
}

/// Decides `P(d) ⊆ P′(d)` for all documents `d`.
///
/// Both spanners must have the same variables (`SVars`); this is an
/// interface error, reported as `Err`.
pub fn spanner_contains(p: &Vsa, p_prime: &Vsa) -> Result<SpannerCheck, String> {
    spanner_contains_with(p, p_prime, CheckStrategy::default())
}

/// [`spanner_contains`] with an explicit containment engine.
pub fn spanner_contains_with(
    p: &Vsa,
    p_prime: &Vsa,
    strategy: CheckStrategy,
) -> Result<SpannerCheck, String> {
    if p.vars().names() != p_prime.vars().names() {
        return Err(format!(
            "containment requires identical variables: {} vs {}",
            p.vars(),
            p_prime.vars()
        ));
    }
    let ea = EVsa::from_vsa(p);
    let eb = EVsa::from_vsa(p_prime);
    let mut masks = ea.byte_masks();
    masks.extend(eb.byte_masks());
    let ext = ExtAlphabet::from_masks(p.vars().clone(), &masks);
    let na = ea.to_nfa(&ext);
    let nb = eb.to_nfa(&ext);
    Ok(match strategy.contains(&na, &nb) {
        Containment::Contained => SpannerCheck::Holds,
        Containment::Counterexample(w) => decode_counterexample(&ext, &w, true),
    })
}

/// Decides `P = P′` (same output on every document).
pub fn spanner_equivalent(p: &Vsa, p_prime: &Vsa) -> Result<SpannerCheck, String> {
    spanner_equivalent_with(p, p_prime, CheckStrategy::default())
}

/// [`spanner_equivalent`] with an explicit containment engine.
pub fn spanner_equivalent_with(
    p: &Vsa,
    p_prime: &Vsa,
    strategy: CheckStrategy,
) -> Result<SpannerCheck, String> {
    match spanner_contains_with(p, p_prime, strategy)? {
        SpannerCheck::Holds => {}
        cex => return Ok(cex),
    }
    Ok(match spanner_contains_with(p_prime, p, strategy)? {
        SpannerCheck::Holds => SpannerCheck::Holds,
        SpannerCheck::Counterexample { doc, tuple, .. } => SpannerCheck::Counterexample {
            doc,
            tuple,
            left_has_it: false,
        },
    })
}

fn decode_counterexample(
    ext: &ExtAlphabet,
    word: &[splitc_automata::nfa::Sym],
    left_has_it: bool,
) -> SpannerCheck {
    let (doc, rw) = ext.decode_word(word);
    let tuple = rw
        .tuple(ext.vars())
        .expect("normalized language contains only valid ref-words");
    SpannerCheck::Counterexample {
        doc,
        tuple,
        left_has_it,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use crate::rgx::Rgx;

    fn compile(pattern: &str) -> Vsa {
        Rgx::parse(pattern).unwrap().to_vsa().unwrap()
    }

    #[test]
    fn containment_holds() {
        let a = compile("x{a}");
        let b = compile("x{a}|x{b}");
        assert!(spanner_contains(&a, &b).unwrap().holds());
        let r = spanner_contains(&b, &a).unwrap();
        assert!(!r.holds());
    }

    #[test]
    fn counterexample_is_faithful() {
        let a = compile(".*x{ab}.*");
        let b = compile("x{ab}");
        match spanner_contains(&a, &b).unwrap() {
            SpannerCheck::Counterexample {
                doc,
                tuple,
                left_has_it,
            } => {
                assert!(left_has_it);
                let ra = eval(&a, &doc);
                let rb = eval(&b, &doc);
                assert!(ra.contains(&tuple));
                assert!(!rb.contains(&tuple));
            }
            SpannerCheck::Holds => panic!("should not be contained"),
        }
    }

    #[test]
    fn equivalence_of_syntactic_variants() {
        // a|aa vs a+ restricted to length <= 2? Not equal; use exact pair.
        let a = compile("x{a|b}");
        let b = compile("x{[ab]}");
        assert!(spanner_equivalent(&a, &b).unwrap().holds());
        let c = compile("x{a}");
        match spanner_equivalent(&a, &c).unwrap() {
            SpannerCheck::Counterexample { left_has_it, .. } => assert!(left_has_it),
            _ => panic!(),
        }
        // Direction flag: right side has extra output.
        match spanner_equivalent(&c, &a).unwrap() {
            SpannerCheck::Counterexample {
                left_has_it, doc, ..
            } => {
                assert!(!left_has_it);
                assert_eq!(doc, b"b");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn variable_mismatch_is_an_error() {
        let a = compile("x{a}");
        let b = compile("y{a}");
        assert!(spanner_contains(&a, &b).is_err());
    }

    #[test]
    fn operation_order_is_normalized() {
        // x{y{a}} vs y{x{a}}: same spanner (both variables cover "a"),
        // even though raw ref-words differ in operation order.
        let a = compile("x{y{a}}");
        let b = compile("y{x{a}}");
        assert!(spanner_equivalent(&a, &b).unwrap().holds());
    }

    #[test]
    fn boolean_spanners_compare_as_languages() {
        let a = compile("(a|b)*abb");
        let b = compile(".*abb");
        assert!(spanner_contains(&a, &b).unwrap().holds());
        assert!(!spanner_contains(&b, &a).unwrap().holds());
    }

    #[test]
    fn empty_spanner_contained_in_everything() {
        let empty = Vsa::new(crate::vars::VarTable::empty());
        let b = compile("a*");
        assert!(spanner_contains(&empty, &b).unwrap().holds());
    }
}
