//! Batch certification of spanner/splitter fleets.
//!
//! Production deployments do not certify one `(P, P_S, S)` triple at a
//! time: a corpus pipeline ships a *fleet* of extractors that all ride
//! the same splitter, and every pair must be certified split-correct
//! **before** the corpus run starts (the certificate is what makes
//! [`crate::CorpusRunner`]'s output equal whole-document evaluation).
//! [`certify_many`] is the batch entry point, shaped like the corpus
//! runner: a worker pool over indexed tasks, deterministic output
//! order, and a stats block.
//!
//! Two levers make the batch cheaper than `pairs.len()` independent
//! [`splitc_core::split_correct`] calls:
//!
//! * **Memoized composition.** The polynomial-size composed spanner
//!   `P_S ∘ S` (Lemma C.2) depends only on `P_S` and the shared
//!   splitter, so it is built once per distinct split-spanner index and
//!   reused across every pair (and every worker) through a shared
//!   cache; [`CertifyStats`] reports hit/miss counters.
//! * **Fast-path routing.** Splitter-level preconditions of the
//!   Theorem 5.7 polynomial path (functionality, determinism,
//!   disjointness) are checked once per batch, spanner-level ones once
//!   per distinct spanner; eligible pairs take
//!   [`splitc_core::split_correct_df`]. Its `Holds` verdicts are
//!   accepted as-is, and they are proofs: the pointwise check is
//!   stronger than `P = P_S ∘ S`, and it decides its containment by
//!   [`ufa_contains_unchecked`], which compares exact accepting-path
//!   counts (add-only multi-word integers whose width is fixed before
//!   counting from `|starts| · maxdeg^L`, so none can overflow). Its
//!   `Fails` verdicts can be spurious on the documented
//!   boundary-empty-span corner, so they — like declined pairs — are
//!   confirmed through the general (antichain) engine. Batch verdicts
//!   therefore never depend on routing.
//!
//! The general route runs on the antichain-pruned containment engine by
//! default ([`CheckStrategy::Antichain`]); the determinize-first
//! reference is selectable for differential runs and is the baseline of
//! the `t3_certification_scaling` benchmark.
//!
//! [`ufa_contains_unchecked`]: splitc_automata::unambiguous::ufa_contains_unchecked

use crate::pool::scoped_map;
use parking_lot::Mutex;
use splitc_core::{
    split_correct_composed, split_correct_df_prechecked, CertError, CheckStrategy, Verdict,
};
use splitc_spanner::splitter::{compose, Splitter};
use splitc_spanner::vsa::Vsa;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Tuning knobs of a [`certify_many`] run.
#[derive(Debug, Clone, Copy)]
pub struct CertifyConfig {
    /// Certification worker threads. `0` is normalized to 1, matching
    /// the contract of every pool entry point in this crate; a single
    /// worker or a single pair runs on the calling thread.
    pub workers: usize,
    /// Containment engine for the general route. The default is the
    /// antichain-pruned search; [`CheckStrategy::DeterminizeFirst`] is
    /// the benchmark/differential reference.
    pub strategy: CheckStrategy,
}

impl Default for CertifyConfig {
    fn default() -> Self {
        CertifyConfig {
            workers: 4,
            strategy: CheckStrategy::default(),
        }
    }
}

/// Which route certified a pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertPath {
    /// Theorem 5.7 polynomial fast path.
    FastPath,
    /// General equivalence through the configured [`CheckStrategy`].
    General,
}

/// Per-pair outcome of a batch certification.
#[derive(Debug, Clone)]
pub struct Certification {
    /// The `(P, P_S)` indices this outcome belongs to, as passed in.
    pub pair: (usize, usize),
    /// The verdict (or the interface error for this pair).
    pub verdict: Result<Verdict, CertError>,
    /// Which route produced the verdict (`General` for errors).
    pub path: CertPath,
}

impl Certification {
    /// Whether this pair certified successfully (no error, property holds).
    pub fn holds(&self) -> bool {
        matches!(&self.verdict, Ok(v) if v.holds())
    }
}

/// Aggregate statistics of one [`certify_many`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CertifyStats {
    /// Pairs certified.
    pub pairs: usize,
    /// Pairs resolved by the Theorem 5.7 fast path.
    pub fast_path: usize,
    /// Pairs resolved by the general engine.
    pub general: usize,
    /// Eligible pairs the fast path declined — or failed, pending
    /// general-engine confirmation — at run time (they are also counted
    /// under `general`).
    pub fast_path_fallbacks: usize,
    /// Composed-spanner cache hits (a pair reused another pair's
    /// `P_S ∘ S`).
    pub compose_hits: usize,
    /// Composed-spanner cache misses (compositions actually built).
    pub compose_misses: usize,
}

/// The outcome of a batch certification: one [`Certification`] per input
/// pair (index-aligned, regardless of worker scheduling) plus stats.
#[derive(Debug, Clone)]
pub struct CertifyResult {
    /// Per-pair outcomes, in input order.
    pub outcomes: Vec<Certification>,
    /// Run statistics.
    pub stats: CertifyStats,
}

impl CertifyResult {
    /// Whether every pair certified successfully.
    pub fn all_hold(&self) -> bool {
        self.outcomes.iter().all(Certification::holds)
    }

    /// The pairs that failed to certify (error or counterexample).
    pub fn failures(&self) -> impl Iterator<Item = &Certification> {
        self.outcomes.iter().filter(|c| !c.holds())
    }
}

/// Shared per-batch state: the memoized compositions and counters.
struct Shared<'a> {
    spanners: &'a [Vsa],
    splitter: &'a Splitter,
    /// `P_S` index → composed `P_S ∘ S`, built at most once per index.
    composed: Mutex<HashMap<usize, Arc<Vsa>>>,
    /// Spanner index → it and the splitter pass their fast-path
    /// preconditions.
    df_eligible: Vec<bool>,
    strategy: CheckStrategy,
    fast_path: AtomicUsize,
    general: AtomicUsize,
    fallbacks: AtomicUsize,
    compose_hits: AtomicUsize,
    compose_misses: AtomicUsize,
}

impl Shared<'_> {
    /// The composed spanner for split-spanner index `si`, memoized
    /// across pairs and workers.
    fn composed(&self, si: usize) -> Arc<Vsa> {
        // Fast path: already built.
        if let Some(c) = self.composed.lock().get(&si) {
            self.compose_hits.fetch_add(1, Ordering::Relaxed);
            return c.clone();
        }
        // Build outside the lock (compositions are the expensive part;
        // two workers racing the same index at worst build it twice and
        // one result wins). The loser's lookup still counts as a hit so
        // hits + misses equals the number of cache lookups exactly.
        let built = Arc::new(compose(&self.spanners[si], self.splitter));
        match self.composed.lock().entry(si) {
            std::collections::hash_map::Entry::Occupied(e) => {
                self.compose_hits.fetch_add(1, Ordering::Relaxed);
                e.get().clone()
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                self.compose_misses.fetch_add(1, Ordering::Relaxed);
                v.insert(built).clone()
            }
        }
    }

    fn certify_pair(&self, pair: (usize, usize)) -> Certification {
        let (pi, si) = pair;
        if pi >= self.spanners.len() || si >= self.spanners.len() {
            return Certification {
                pair,
                verdict: Err(CertError::Invalid(format!(
                    "pair ({pi}, {si}) out of bounds for {} spanners",
                    self.spanners.len()
                ))),
                path: CertPath::General,
            };
        }
        let p = &self.spanners[pi];
        let ps = &self.spanners[si];
        if p.vars().names() != ps.vars().names() {
            return Certification {
                pair,
                verdict: Err(CertError::VariableMismatch {
                    left: p.vars().to_string(),
                    right: ps.vars().to_string(),
                }),
                path: CertPath::General,
            };
        }
        if self.df_eligible[pi] && self.df_eligible[si] {
            // Preconditions were established at batch level (splitter)
            // and per spanner index, so the per-pair cost is just the
            // Thm 5.7 check itself — no revalidation.
            let v = split_correct_df_prechecked(p, ps, self.splitter);
            if v.holds() {
                // A fast-path Holds is a proof: the Theorem 5.7
                // pointwise check is *stronger* than `P = P_S ∘ S`, so
                // agreement per covering split implies equality, and its
                // containment compares exact path counts.
                self.fast_path.fetch_add(1, Ordering::Relaxed);
                return Certification {
                    pair,
                    verdict: Ok(v),
                    path: CertPath::FastPath,
                };
            }
            // A fast-path Fails can be spurious on the documented
            // boundary-empty-span corner (see the split_correctness
            // module docs), so failures are confirmed through the
            // general engine below — batch verdicts never depend on
            // routing. Failing pairs are rare; paying both paths for
            // them keeps the common all-certified fleet cheap.
            self.fallbacks.fetch_add(1, Ordering::Relaxed);
        }
        self.general.fetch_add(1, Ordering::Relaxed);
        let composed = self.composed(si);
        Certification {
            pair,
            verdict: split_correct_composed(p, &composed, self.strategy),
            path: CertPath::General,
        }
    }
}

/// Certifies a batch of `(P, P_S)` pairs — indices into `spanners` —
/// against one shared `splitter`, on a worker pool.
///
/// Returns one outcome per pair in input order. Self-splittability is
/// the diagonal case `(i, i)`. See the [module docs](self) for the
/// memoization and routing behavior.
///
/// ```
/// use splitc_exec::certify::{certify_many, CertifyConfig};
/// use splitc_spanner::{splitter, Rgx};
///
/// let fleet = vec![
///     Rgx::parse(".*x{a+}.*").unwrap().to_vsa().unwrap(), // sentence-local
///     Rgx::parse(".*x{a\\.a}.*").unwrap().to_vsa().unwrap(), // crossing
/// ];
/// let pairs = vec![(0, 0), (1, 1)];
/// let result = certify_many(
///     &fleet,
///     &splitter::sentences(),
///     &pairs,
///     &CertifyConfig::default(),
/// );
/// assert!(result.outcomes[0].holds());
/// assert!(!result.outcomes[1].holds()); // crossing extractor: witness doc
/// ```
pub fn certify_many(
    spanners: &[Vsa],
    splitter: &Splitter,
    pairs: &[(usize, usize)],
    config: &CertifyConfig,
) -> CertifyResult {
    // Batch-level precomputation: splitter preconditions once, spanner
    // preconditions once per distinct index (not once per pair).
    let splitter_df = splitter.vsa().is_functional()
        && splitter.vsa().is_deterministic()
        && splitter.is_disjoint();
    let df_eligible: Vec<bool> = if splitter_df {
        spanners
            .iter()
            .map(|v| v.is_functional() && v.is_deterministic())
            .collect()
    } else {
        vec![false; spanners.len()]
    };

    let shared = Shared {
        spanners,
        splitter,
        composed: Mutex::new(HashMap::new()),
        df_eligible,
        strategy: config.strategy,
        fast_path: AtomicUsize::new(0),
        general: AtomicUsize::new(0),
        fallbacks: AtomicUsize::new(0),
        compose_hits: AtomicUsize::new(0),
        compose_misses: AtomicUsize::new(0),
    };

    // Work stealing over the pair list; outcomes come back in input
    // order regardless of scheduling.
    let outcomes = scoped_map(config.workers, pairs.len(), |i| {
        shared.certify_pair(pairs[i])
    });
    let stats = CertifyStats {
        pairs: pairs.len(),
        fast_path: shared.fast_path.load(Ordering::Relaxed),
        general: shared.general.load(Ordering::Relaxed),
        fast_path_fallbacks: shared.fallbacks.load(Ordering::Relaxed),
        compose_hits: shared.compose_hits.load(Ordering::Relaxed),
        compose_misses: shared.compose_misses.load(Ordering::Relaxed),
    };
    CertifyResult { outcomes, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitc_core::split_correct;
    use splitc_spanner::rgx::Rgx;
    use splitc_spanner::splitter;

    fn vsa(p: &str) -> Vsa {
        Rgx::parse(p).unwrap().to_vsa().unwrap()
    }

    fn fleet() -> Vec<Vsa> {
        vec![
            vsa(".*x{a+}.*"),    // 0: sentence-local, self-splittable
            vsa(".*x{a\\.a}.*"), // 1: crossing, not self-splittable
            vsa(".*x{ab}.*"),    // 2: self-splittable
            vsa("x{ab}.*"),      // 3: prefix extractor
        ]
    }

    #[test]
    fn matches_single_pair_certification() {
        let spanners = fleet();
        let s = splitter::sentences();
        let pairs = vec![(0, 0), (1, 1), (2, 2), (0, 2), (2, 3)];
        for workers in [1, 3] {
            let result = certify_many(
                &spanners,
                &s,
                &pairs,
                &CertifyConfig {
                    workers,
                    ..CertifyConfig::default()
                },
            );
            assert_eq!(result.outcomes.len(), pairs.len());
            assert_eq!(result.stats.pairs, pairs.len());
            for (outcome, &(pi, si)) in result.outcomes.iter().zip(&pairs) {
                assert_eq!(outcome.pair, (pi, si));
                let single = split_correct(&spanners[pi], &spanners[si], &s).unwrap();
                assert_eq!(
                    outcome.verdict.as_ref().unwrap().holds(),
                    single.holds(),
                    "pair ({pi}, {si}), workers {workers}"
                );
            }
        }
    }

    #[test]
    fn strategies_agree_in_batch() {
        let spanners = fleet();
        let s = splitter::sentences();
        let pairs = vec![(0, 0), (1, 1), (0, 2)];
        let anti = certify_many(
            &spanners,
            &s,
            &pairs,
            &CertifyConfig {
                strategy: CheckStrategy::Antichain,
                ..CertifyConfig::default()
            },
        );
        let detf = certify_many(
            &spanners,
            &s,
            &pairs,
            &CertifyConfig {
                strategy: CheckStrategy::DeterminizeFirst,
                ..CertifyConfig::default()
            },
        );
        for (a, d) in anti.outcomes.iter().zip(&detf.outcomes) {
            assert_eq!(a.holds(), d.holds(), "pair {:?}", a.pair);
        }
    }

    #[test]
    fn composition_is_shared_across_pairs() {
        let spanners = fleet();
        let s = splitter::sentences();
        // Five pairs, all against split-spanner 0 (nondeterministic
        // fleet → general path → the composition cache is exercised).
        let pairs = vec![(0, 0), (1, 0), (2, 0), (3, 0), (0, 0)];
        let result = certify_many(
            &spanners,
            &s,
            &pairs,
            &CertifyConfig {
                workers: 1, // deterministic counters
                ..CertifyConfig::default()
            },
        );
        assert_eq!(result.stats.compose_misses, 1, "{:?}", result.stats);
        assert_eq!(result.stats.compose_hits, 4, "{:?}", result.stats);
        assert_eq!(result.stats.general, 5);
    }

    #[test]
    fn fast_path_routes_deterministic_fleets() {
        // Determinized members and splitter are fast-path eligible. The
        // two local extractors certify there; the crossing one fails
        // there and is confirmed by the general engine. Every outcome is
        // `split_correct`'s verdict, witness included.
        let spanners: Vec<Vsa> = [".*x{a+}.*", ".*x{ab}.*", ".*x{a\\.a}.*"]
            .into_iter()
            .map(|p| vsa(p).determinize())
            .collect();
        let s = splitter::sentences().determinize();
        let pairs = vec![(0, 0), (1, 1), (2, 2)];
        let result = certify_many(&spanners, &s, &pairs, &CertifyConfig::default());
        for (outcome, &(pi, si)) in result.outcomes.iter().zip(&pairs) {
            let reference = split_correct(&spanners[pi], &spanners[si], &s);
            assert_eq!(outcome.verdict, reference, "pair ({pi}, {si})");
        }
        let paths: Vec<CertPath> = result.outcomes.iter().map(|c| c.path).collect();
        use CertPath::{FastPath, General};
        assert_eq!(paths, [FastPath, FastPath, General]);
        assert_eq!(result.stats.fast_path, 2, "{:?}", result.stats);
        assert_eq!(result.stats.general, 1);
        assert_eq!(result.stats.fast_path_fallbacks, 1);
    }

    #[test]
    fn errors_are_per_pair_not_batch() {
        let spanners = vec![vsa(".*x{a+}.*"), vsa(".*y{a+}.*")];
        let s = splitter::sentences();
        let pairs = vec![(0, 1), (0, 0), (7, 0)];
        let result = certify_many(&spanners, &s, &pairs, &CertifyConfig::default());
        assert!(matches!(
            result.outcomes[0].verdict,
            Err(CertError::VariableMismatch { .. })
        ));
        assert!(result.outcomes[1].holds());
        assert!(matches!(
            result.outcomes[2].verdict,
            Err(CertError::Invalid(_))
        ));
        assert!(!result.all_hold());
        assert_eq!(result.failures().count(), 2);
    }

    #[test]
    fn zero_workers_and_empty_batches() {
        let spanners = fleet();
        let s = splitter::sentences();
        let result = certify_many(
            &spanners,
            &s,
            &[],
            &CertifyConfig {
                workers: 0,
                ..CertifyConfig::default()
            },
        );
        assert!(result.outcomes.is_empty());
        assert!(result.all_hold());
        let one = certify_many(
            &spanners,
            &s,
            &[(0, 0)],
            &CertifyConfig {
                workers: 0,
                ..CertifyConfig::default()
            },
        );
        assert!(one.all_hold());
    }

    #[test]
    fn boundary_corner_verdict_is_routing_independent() {
        // The repo's documented corner (split_correctness module docs,
        // `boundary_empty_span_corner` test): the Theorem 5.7 pointwise
        // procedure reports Fails while the exact semantics Holds. The
        // pair is fast-path eligible, and the batch certifier must still
        // report the exact verdict.
        let spanners = vec![vsa("a(y{})b").determinize(), vsa("y{}b").determinize()];
        let s = splitc_spanner::Splitter::parse("x{a}b|a(x{b})")
            .unwrap()
            .determinize();
        assert!(
            !splitc_core::split_correct_df(&spanners[0], &spanners[1], &s)
                .unwrap()
                .holds()
        );
        let exact = split_correct(&spanners[0], &spanners[1], &s);
        assert!(exact.as_ref().unwrap().holds());
        let result = certify_many(&spanners, &s, &[(0, 1)], &CertifyConfig::default());
        assert_eq!(result.outcomes[0].verdict, exact, "{:?}", result.stats);
        assert_eq!(result.outcomes[0].path, CertPath::General);
        assert_eq!(result.stats.fast_path_fallbacks, 1, "the fast path ran");
    }

    #[test]
    fn counterexamples_survive_the_batch() {
        let spanners = fleet();
        let s = splitter::sentences();
        let result = certify_many(&spanners, &s, &[(1, 1)], &CertifyConfig::default());
        match result.outcomes[0].verdict.as_ref().unwrap() {
            Verdict::Fails(cex) => {
                let rel = splitc_spanner::eval::eval(&spanners[1], &cex.doc);
                assert!(rel.contains(&cex.tuple), "witness must replay");
            }
            Verdict::Holds => panic!("crossing extractor must fail"),
        }
    }
}
