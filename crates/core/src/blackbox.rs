//! Split-constrained black boxes (paper §7.1).
//!
//! Real IE pipelines join regular "glue" spanners with opaque extractors
//! (coreference resolvers, neural NER taggers, …) whose internals cannot
//! be analyzed, but for which *split constraints* are known: "`π` is
//! self-splittable by `S`". The inference problem asks whether the whole
//! join `α ⋈ P₁ ⋈ ⋯ ⋈ P_k` is splittable by `S` for **every** instance
//! satisfying the constraints.
//!
//! Theorem 7.4 gives the positive inference implemented by
//! [`infer_join_splittable`]: if `S` is disjoint, the signature is
//! connected, `α` is splittable by `S`, and every symbol carries the
//! constraint `πᵢ ⊑ S`, then the join is splittable by `S` — uniformly,
//! with the witness `α_S ⋈ P₁ ⋈ ⋯ ⋈ P_k`. Lemma 7.3 shows the
//! disjointness hypothesis cannot be dropped (reproduced in the tests).

use crate::error::CertError;
use crate::splittability::{splittable, SplittabilityVerdict};
use splitc_spanner::evsa::EVsa;
use splitc_spanner::splitter::Splitter;
use splitc_spanner::vars::VarTable;
use splitc_spanner::vsa::Vsa;
use std::collections::{BTreeMap, BTreeSet};

/// A spanner symbol of a signature: a name plus its variables.
#[derive(Debug, Clone)]
pub struct SpannerSymbol {
    /// Symbol name (e.g. `"coref"`).
    pub name: String,
    /// `SVars(π)`.
    pub vars: VarTable,
}

/// A spanner signature `Π = {π₁, …, π_k}` (paper §7.1). Must be
/// *connected*: the hypergraph whose hyperedges are the symbols'
/// variable sets is connected.
#[derive(Debug, Clone)]
pub struct Signature {
    symbols: Vec<SpannerSymbol>,
}

impl Signature {
    /// Builds a signature; rejects duplicate names and disconnected
    /// hypergraphs (the paper assumes connectedness).
    pub fn new(symbols: Vec<SpannerSymbol>) -> Result<Signature, String> {
        let mut names = BTreeSet::new();
        for s in &symbols {
            if !names.insert(s.name.clone()) {
                return Err(format!("duplicate spanner symbol {}", s.name));
            }
        }
        let sig = Signature { symbols };
        if !sig.is_connected() {
            return Err("signature hypergraph is not connected".into());
        }
        Ok(sig)
    }

    /// The symbols.
    pub fn symbols(&self) -> &[SpannerSymbol] {
        &self.symbols
    }

    fn is_connected(&self) -> bool {
        if self.symbols.len() <= 1 {
            return true;
        }
        // Union-find over symbols via shared variable names.
        let n = self.symbols.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, i: usize) -> usize {
            if parent[i] != i {
                let r = find(parent, parent[i]);
                parent[i] = r;
            }
            parent[i]
        }
        let mut by_var: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, s) in self.symbols.iter().enumerate() {
            for name in s.vars.names() {
                by_var.entry(name.as_str()).or_default().push(i);
            }
        }
        for (_, members) in by_var {
            for w in members.windows(2) {
                let a = find(&mut parent, w[0]);
                let b = find(&mut parent, w[1]);
                parent[a] = b;
            }
        }
        let root = find(&mut parent, 0);
        (0..n).all(|i| find(&mut parent, i) == root)
    }
}

/// A regular split constraint `π ⊑ S`: the symbol is promised to be
/// self-splittable by the splitter.
#[derive(Debug, Clone)]
pub struct SplitConstraint {
    /// Constrained symbol name.
    pub symbol: String,
    /// The splitter the symbol is self-splittable by.
    pub splitter: Splitter,
}

/// An instance of a signature: a concrete spanner per symbol (used by
/// tests and by callers that *do* have the implementations and want to
/// check `I ⊨ C`).
#[derive(Debug, Clone, Default)]
pub struct Instance {
    spanners: BTreeMap<String, Vsa>,
}

impl Instance {
    /// Empty instance.
    pub fn new() -> Instance {
        Instance::default()
    }

    /// Binds a symbol to a spanner.
    pub fn bind(&mut self, name: impl Into<String>, spanner: Vsa) -> &mut Self {
        self.spanners.insert(name.into(), spanner);
        self
    }

    /// The spanner bound to a name.
    pub fn get(&self, name: &str) -> Option<&Vsa> {
        self.spanners.get(name)
    }

    /// Checks `I ⊨ C`: every constrained symbol's spanner is
    /// self-splittable by the constraint's splitter.
    pub fn satisfies(&self, constraints: &[SplitConstraint]) -> Result<bool, CertError> {
        for c in constraints {
            let p = self
                .get(&c.symbol)
                .ok_or_else(|| CertError::Invalid(format!("symbol {} is unbound", c.symbol)))?;
            if !crate::self_splittable(p, &c.splitter)?.holds() {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Materializes the join `α ⋈ P₁ ⋈ ⋯ ⋈ P_k` over the signature
    /// order.
    pub fn join_with(&self, alpha: &Vsa, signature: &Signature) -> Result<Vsa, String> {
        let mut acc: EVsa = EVsa::from_vsa(alpha);
        for sym in signature.symbols() {
            let p = self
                .get(&sym.name)
                .ok_or_else(|| format!("symbol {} is unbound", sym.name))?;
            acc = acc.join(&EVsa::from_vsa(p));
        }
        // Convert back to a classic automaton via the normalized NFA.
        let ext =
            splitc_spanner::ext::ExtAlphabet::from_masks(acc.vars().clone(), &acc.byte_masks());
        let nfa = acc.to_nfa(&ext);
        Ok(Vsa::from_ext_nfa(&nfa.trim(), &ext))
    }
}

/// Outcome of the black-box inference.
#[derive(Debug, Clone)]
pub enum BlackBoxVerdict {
    /// Theorem 7.4 applies: the join is splittable by `S` for every
    /// satisfying instance, via `α_S ⋈ P₁ ⋈ ⋯ ⋈ P_k`.
    Inferred {
        /// The split-spanner for the `α` part (`α = witness ∘ S`).
        alpha_witness: Vsa,
    },
    /// The premises do not hold; inference is not possible (which does
    /// **not** mean the join is unsplittable for every instance).
    NotApplicable {
        /// Which premise failed.
        reason: String,
    },
}

impl BlackBoxVerdict {
    /// Whether the inference succeeded.
    pub fn inferred(&self) -> bool {
        matches!(self, BlackBoxVerdict::Inferred { .. })
    }
}

/// Black-box split-correctness inference (Theorem 7.4): given a regular
/// spanner `α`, a connected signature with constraints `πᵢ ⊑ S` for the
/// **same disjoint** splitter `S`, the join `α ⋈ I` is splittable by `S`
/// for every instance `I ⊨ C`.
pub fn infer_join_splittable(
    alpha: &Vsa,
    signature: &Signature,
    constraints: &[SplitConstraint],
    s: &Splitter,
) -> Result<BlackBoxVerdict, CertError> {
    if !s.is_disjoint() {
        return Ok(BlackBoxVerdict::NotApplicable {
            reason: "splitter is not disjoint (Lemma 7.3 shows the hypothesis is \
                     necessary)"
                .into(),
        });
    }
    // Every symbol must carry a constraint with (semantically) the same
    // splitter.
    for sym in signature.symbols() {
        let Some(c) = constraints.iter().find(|c| c.symbol == sym.name) else {
            return Ok(BlackBoxVerdict::NotApplicable {
                reason: format!("symbol {} has no split constraint", sym.name),
            });
        };
        let same = splitter_equiv(&c.splitter, s)?;
        if !same {
            return Ok(BlackBoxVerdict::NotApplicable {
                reason: format!("constraint on {} uses a different splitter", sym.name),
            });
        }
    }
    // α itself must be splittable by S.
    match splittable(alpha, s)? {
        SplittabilityVerdict::Splittable { witness } => Ok(BlackBoxVerdict::Inferred {
            alpha_witness: witness,
        }),
        SplittabilityVerdict::NotSplittable(cex) => Ok(BlackBoxVerdict::NotApplicable {
            reason: format!("α is not splittable by S: {cex}"),
        }),
    }
}

/// Semantic equality of two splitters.
fn splitter_equiv(a: &Splitter, b: &Splitter) -> Result<bool, CertError> {
    let table = VarTable::new(["x"]).expect("single");
    let av = a.vsa().replace_var_table(table.clone())?;
    let bv = b.vsa().replace_var_table(table)?;
    Ok(splitc_spanner::spanner_equivalent(&av, &bv)?.holds())
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitc_spanner::eval::eval;
    use splitc_spanner::rgx::Rgx;
    use splitc_spanner::splitter;
    use splitc_spanner::tuple::SpanRelation;

    fn vsa(p: &str) -> Vsa {
        Rgx::parse(p).unwrap().to_vsa().unwrap()
    }

    fn sym(name: &str, vars: &[&str]) -> SpannerSymbol {
        SpannerSymbol {
            name: name.into(),
            vars: VarTable::new(vars.iter().copied()).unwrap(),
        }
    }

    #[test]
    fn signature_connectedness() {
        assert!(Signature::new(vec![sym("p1", &["x", "y"]), sym("p2", &["y", "z"])]).is_ok());
        assert!(Signature::new(vec![sym("p1", &["x"]), sym("p2", &["z"])]).is_err());
        assert!(Signature::new(vec![sym("p1", &["x"]), sym("p1", &["x"])]).is_err());
    }

    #[test]
    fn lemma_7_3_counterexample() {
        // P1 = Σ*·x1{a}·x2{b}·Σ*, P2 = Σ*·x2{b}·x3{a}·Σ*,
        // S = Σ*·x{aΣ + Σa}·Σ*: both are self-splittable by S, but
        // P1 ⋈ P2 violates the cover condition on "aba".
        let p1 = vsa(".*x1{a}x2{b}.*");
        let p2 = vsa(".*x2{b}x3{a}.*");
        let s = Splitter::parse(".*x{(a.|.a)}.*").unwrap();
        assert!(!s.is_disjoint());
        assert!(crate::self_splittable(&p1, &s).unwrap().holds());
        assert!(crate::self_splittable(&p2, &s).unwrap().holds());
        // The join on "aba" outputs ([1,2⟩,[2,3⟩,[3,4⟩) (1-based) whose
        // minimal cover is the whole document — no split covers it.
        let j = EVsa::from_vsa(&p1).join(&EVsa::from_vsa(&p2));
        let rel = splitc_spanner::eval::eval_evsa(&j, b"aba");
        assert_eq!(rel.len(), 1);
        let t = rel.tuple(0);
        let cover = t.minimal_cover().unwrap();
        assert!(!s.split(b"aba").iter().any(|sp| sp.contains_span(cover)));
    }

    #[test]
    fn theorem_7_4_inference_and_soundness() {
        // α finds a marker token; the "black boxes" are sentence-local
        // extractors sharing variables with α. S = sentences (disjoint).
        let alpha = vsa(".*q(x{[ab]+})q.*");
        let p1 = vsa(".*q(x{[ab]+})q y{[ab]+}.*"); // x then adjacent token y
        let sig = Signature::new(vec![sym("p1", &["x", "y"])]).unwrap();
        let s = splitter::sentences();
        let constraints = vec![SplitConstraint {
            symbol: "p1".into(),
            splitter: s.clone(),
        }];
        // Premises: α splittable (it is sentence-local: q...q cannot
        // contain '.'? q is a letter... x content [ab]+ and q are
        // period-free, so yes).
        let verdict = infer_join_splittable(&alpha, &sig, &constraints, &s).unwrap();
        assert!(verdict.inferred(), "{verdict:?}");

        // Soundness on a concrete instance: I ⊨ C, and the join is
        // splittable — validate pointwise on a sample document.
        let mut inst = Instance::new();
        inst.bind("p1", p1.clone());
        assert!(inst.satisfies(&constraints).unwrap());
        let join = inst.join_with(&alpha, &sig).unwrap();
        let BlackBoxVerdict::Inferred { alpha_witness } = verdict else {
            unreachable!()
        };
        // Witness for the join: α_S ⋈ P1 (Theorem 7.4's construction).
        let join_witness_e = EVsa::from_vsa(&alpha_witness).join(&EVsa::from_vsa(&p1));
        let doc = b"qaq ab. qbq ba";
        let mut expected = Vec::new();
        for sp in s.split(doc) {
            for t in splitc_spanner::eval::eval_evsa(&join_witness_e, sp.slice(doc)).iter() {
                expected.push(t.shift(sp));
            }
        }
        assert_eq!(
            SpanRelation::from_tuples(expected),
            eval(&join, doc),
            "P = (α_S ⋈ P1) ∘ S on the sample"
        );
    }

    #[test]
    fn inference_requires_constraints_on_all_symbols() {
        let alpha = vsa(".*x{a}.*");
        let sig = Signature::new(vec![sym("p1", &["x"])]).unwrap();
        let s = splitter::sentences();
        let v = infer_join_splittable(&alpha, &sig, &[], &s).unwrap();
        assert!(!v.inferred());
    }

    #[test]
    fn inference_rejects_nondisjoint() {
        let alpha = vsa(".*x{a}.*");
        let sig = Signature::new(vec![sym("p1", &["x"])]).unwrap();
        let s = splitter::ngrams(2);
        let constraints = vec![SplitConstraint {
            symbol: "p1".into(),
            splitter: s.clone(),
        }];
        let v = infer_join_splittable(&alpha, &sig, &constraints, &s).unwrap();
        assert!(!v.inferred());
    }

    #[test]
    fn constraint_with_different_splitter_rejected() {
        let alpha = vsa(".*x{a}.*");
        let sig = Signature::new(vec![sym("p1", &["x"])]).unwrap();
        let s = splitter::sentences();
        let constraints = vec![SplitConstraint {
            symbol: "p1".into(),
            splitter: splitter::lines(),
        }];
        let v = infer_join_splittable(&alpha, &sig, &constraints, &s).unwrap();
        assert!(!v.inferred());
    }
}
