//! One tiered engine core for spanners and splitters.
//!
//! Every compiled automaton the runtime evaluates — an extraction
//! spanner `P_S` or a splitter `S` — sits behind one [`TieredEvsa`]. It
//! owns the three decisions that used to be coded once per engine:
//!
//! * **tier selection** — NFA simulation ([`crate::eval`]), the lazy
//!   dense tables ([`crate::dense`]) or the ahead-of-time table
//!   ([`crate::aot`]: the same lazy backward DFA explored to completion
//!   and frozen), with the AOT → dense fallback when the exploration
//!   exceeds [`crate::aot::AOT_BUDGET`];
//! * **the document gate** — the [`PrefilterGate`] of the automaton's
//!   [`PrefilterAnalysis`], run exactly once per document, with its
//!   [`PrefilterStats`] accounting;
//! * **pooled scratch** — one pool of [`DenseCache`]s behind
//!   [`TieredEvsa::eval`], for callers without per-worker scratch.
//!
//! [`TieredEvsa::compile`] (through its budget-taking twin
//! `compile_within`) is the single place an [`Engine`] request becomes
//! a tier, a gate, a skip-loop setting and a fallback:
//!
//! | request | tier | gate | skip-loop |
//! |---|---|---|---|
//! | `nfa` | NFA | — | — |
//! | `dense` | dense | — | off |
//! | `prefilter` | dense | yes | on |
//! | `aot` (fits the budget) | AOT | yes | on, escapes precompiled |
//! | `aot` (over budget) | dense | — | off |
//!
//! The dense and AOT tiers run one backward viability pass
//! (`dense::viability_pass`), monomorphised over the lazy table or the
//! frozen one; the skip-loop column is that pass's setting. Every tier
//! is exact, and the gate is conservative, so the choice changes speed
//! only, never relations.

use crate::aot::{AotEvsa, AOT_BUDGET, FORCED_CAP};
use crate::dense::{DenseCache, DenseConfig, DenseEvsa};
use crate::eval::eval_evsa;
use crate::evsa::EVsa;
use crate::prefilter::{PrefilterAnalysis, PrefilterGate, PrefilterStats};
use crate::tuple::SpanRelation;
use splitc_automata::classes::ByteClasses;
use std::sync::{Arc, Mutex};

/// Evaluation engine selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Per-position NFA simulation over raw byte-set transitions.
    Nfa,
    /// Byte-class tables + memory-bounded lazy-DFA cache with exact NFA
    /// fallback (see [`crate::dense`]). The default.
    #[default]
    Dense,
    /// The dense engine behind a literal prefilter: documents are gated
    /// by the spanner's required prefix / byte class / minimum match
    /// length, and lazy-DFA self-loops are crossed by a SWAR skip-loop
    /// (see [`crate::prefilter`]). Behaves like plain dense (plus the
    /// skip-loop) when the analysis finds nothing usable.
    Prefilter,
    /// Ahead-of-time tier: the dense tier's backward viability DFA
    /// explored to completion under a state budget, frozen into a flat
    /// premultiplied `u16` table stepped 4 bytes per iteration, behind
    /// the prefilter gate (see [`crate::aot`]). Tiering is automatic at
    /// compile time: when the exploration exceeds the budget the
    /// automaton silently degrades to the lazy [`Engine::Dense`] tier —
    /// [`TieredEvsa::engine`] still reports `Aot` (the request),
    /// [`TieredEvsa::tier`] reports what actually compiled.
    Aot,
}

impl Engine {
    /// Stable lowercase name (as accepted by the bench `--engine` flag
    /// and the server's `"engine"` field).
    pub fn name(self) -> &'static str {
        match self {
            Engine::Nfa => "nfa",
            Engine::Dense => "dense",
            Engine::Prefilter => "prefilter",
            Engine::Aot => "aot",
        }
    }
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Engine, String> {
        match s {
            "nfa" => Ok(Engine::Nfa),
            "dense" => Ok(Engine::Dense),
            "prefilter" => Ok(Engine::Prefilter),
            "aot" => Ok(Engine::Aot),
            other => Err(format!(
                "unknown engine {other:?} (expected nfa|dense|prefilter|aot)"
            )),
        }
    }
}

/// The tier a [`TieredEvsa`] compiled to.
#[derive(Debug)]
enum Tier {
    Nfa,
    /// The lazy dense tables; gated (the prefilter engine) or not.
    Dense(Arc<DenseEvsa>),
    Aot(AotEvsa),
}

/// An [`EVsa`] compiled on the tier an [`Engine`] request maps to, with
/// its optional document gate and a pool of scan caches. See the
/// [module docs](self) for the mapping.
///
/// Evaluate with per-worker scratch through [`TieredEvsa::eval_with`],
/// or with pooled scratch through [`TieredEvsa::eval`]. The type is
/// cheap to share across threads (wrap in `Arc`).
#[derive(Debug)]
pub struct TieredEvsa {
    evsa: Arc<EVsa>,
    requested: Engine,
    tier: Tier,
    gate: Option<PrefilterGate>,
    /// Reusable scan caches for [`TieredEvsa::eval`].
    caches: Mutex<Vec<DenseCache>>,
}

impl TieredEvsa {
    /// Compiles `evsa` for `engine`. `config` bounds the lazy-DFA cache
    /// of the dense tier; `classes`, when given, indexes the tables by a
    /// shared byte partition (see [`DenseEvsa::compile_with_classes`],
    /// whose refinement requirement applies).
    pub fn compile(
        evsa: Arc<EVsa>,
        engine: Engine,
        config: DenseConfig,
        classes: Option<ByteClasses>,
    ) -> TieredEvsa {
        TieredEvsa::compile_within(evsa, engine, config, classes, AOT_BUDGET)
    }

    /// [`TieredEvsa::compile`] under an explicit AOT state budget (the
    /// tiering boundary tests).
    pub(crate) fn compile_within(
        evsa: Arc<EVsa>,
        engine: Engine,
        config: DenseConfig,
        classes: Option<ByteClasses>,
        aot_budget: usize,
    ) -> TieredEvsa {
        let dense = || {
            Arc::new(match classes {
                Some(c) => DenseEvsa::compile_with_classes(evsa.clone(), config, c),
                None => DenseEvsa::compile(evsa.clone(), config),
            })
        };
        let gate = || Some(PrefilterAnalysis::analyze(&evsa).gate());
        let (tier, gate) = match engine {
            Engine::Nfa => (Tier::Nfa, None),
            Engine::Dense => (Tier::Dense(dense()), None),
            Engine::Prefilter => (Tier::Dense(dense()), gate()),
            Engine::Aot => {
                let dense = dense();
                match AotEvsa::compile_within(&dense, aot_budget, FORCED_CAP) {
                    Some(aot) => (Tier::Aot(aot), gate()),
                    // Over budget: the plain dense engine, which is exact
                    // at any automaton size.
                    None => (Tier::Dense(dense), None),
                }
            }
        };
        TieredEvsa {
            evsa,
            requested: engine,
            tier,
            gate,
            caches: Mutex::new(Vec::new()),
        }
    }

    /// The engine this automaton was compiled for (as requested; see
    /// [`TieredEvsa::tier`] for the tier actually chosen).
    pub fn engine(&self) -> Engine {
        self.requested
    }

    /// The tier compile-time tiering actually selected: equals
    /// [`TieredEvsa::engine`] except when an [`Engine::Aot`] request
    /// exceeded the AOT state budget and degraded to
    /// [`Engine::Dense`].
    pub fn tier(&self) -> Engine {
        match (&self.tier, &self.gate) {
            (Tier::Nfa, _) => Engine::Nfa,
            (Tier::Dense(_), None) => Engine::Dense,
            (Tier::Dense(_), Some(_)) => Engine::Prefilter,
            (Tier::Aot(_), _) => Engine::Aot,
        }
    }

    /// The compiled block-normal-form automaton.
    pub fn evsa(&self) -> &Arc<EVsa> {
        &self.evsa
    }

    /// The document gate (`None` on the ungated `nfa` and `dense`
    /// tiers).
    pub fn gate(&self) -> Option<&PrefilterGate> {
        self.gate.as_ref()
    }

    /// Evaluates one document with caller-owned scratch — a scan cache
    /// and a prefilter-stats accumulator, typically one pair per worker
    /// thread. The gate runs first: a rejected document adds its length
    /// to [`PrefilterStats::bytes_skipped`]; a surviving one counts as a
    /// candidate (unless the gate is transparent), adds the bytes its
    /// scan skipped, and counts as a false candidate when its relation
    /// is empty. Ungated tiers leave `stats` untouched.
    pub fn eval_with(
        &self,
        doc: &[u8],
        cache: &mut DenseCache,
        stats: &mut PrefilterStats,
    ) -> SpanRelation {
        let Some(gate) = &self.gate else {
            return self.scan(doc, cache);
        };
        if gate.rejects(doc) {
            stats.bytes_skipped += doc.len() as u64;
            return SpanRelation::empty();
        }
        let counted = !gate.is_transparent();
        if counted {
            stats.candidates += 1;
        }
        let skipped_before = cache.skipped_bytes();
        let rel = self.scan(doc, cache);
        stats.bytes_skipped += cache.skipped_bytes() - skipped_before;
        if counted && rel.is_empty() {
            stats.false_candidates += 1;
        }
        rel
    }

    /// Evaluates one document with a pooled scan cache; the prefilter
    /// counters are discarded.
    pub fn eval(&self, doc: &[u8]) -> SpanRelation {
        let mut cache = self
            .caches
            .lock()
            .expect("cache pool poisoned")
            .pop()
            .unwrap_or_default();
        let out = self.eval_with(doc, &mut cache, &mut PrefilterStats::default());
        self.caches.lock().expect("cache pool poisoned").push(cache);
        out
    }

    /// The tier's evaluation, behind the gate.
    fn scan(&self, doc: &[u8], cache: &mut DenseCache) -> SpanRelation {
        match &self.tier {
            Tier::Nfa => eval_evsa(&self.evsa, doc),
            // The gated dense tier is the prefilter engine, whose scans
            // run the skip-loop.
            Tier::Dense(dense) => dense.eval_scan(doc, cache, self.gate.is_some()),
            Tier::Aot(aot) => aot.eval_with(doc, cache),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rgx::Rgx;

    fn compile(pattern: &str, engine: Engine) -> TieredEvsa {
        let vsa = Rgx::parse(pattern).unwrap().to_vsa().unwrap();
        let evsa = Arc::new(EVsa::from_functional(&vsa.functionalize()));
        TieredEvsa::compile(evsa, engine, DenseConfig::default(), None)
    }

    #[test]
    fn requests_map_to_tiers_and_gates() {
        let pat = "(.*[^0-9]|)x{[0-9]+}([^0-9].*|)";
        for (engine, gated) in [
            (Engine::Nfa, false),
            (Engine::Dense, false),
            (Engine::Prefilter, true),
            (Engine::Aot, true),
        ] {
            let t = compile(pat, engine);
            assert_eq!(t.engine(), engine);
            assert_eq!(t.tier(), engine, "a small spanner keeps its tier");
            assert_eq!(t.gate().is_some(), gated, "{engine:?}");
            assert_eq!(engine.name().parse::<Engine>(), Ok(engine));
        }
        assert!("turbo".parse::<Engine>().is_err());
        // Over budget: the AOT request degrades to the ungated dense tier.
        let vsa = Rgx::parse(pat).unwrap().to_vsa().unwrap();
        let evsa = Arc::new(EVsa::from_functional(&vsa.functionalize()));
        let t = TieredEvsa::compile_within(evsa, Engine::Aot, DenseConfig::default(), None, 1);
        assert_eq!((t.engine(), t.tier()), (Engine::Aot, Engine::Dense));
        assert!(t.gate().is_none());
    }
}
