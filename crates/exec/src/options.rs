//! One front door for engine and runner construction.
//!
//! The execution layer grew one entry point per knob combination, which
//! composed badly (a caller wanting "AOT splitter + starved dense cache +
//! shared pool + segment cache" had to know four different signatures).
//! This module collapses them behind two builders:
//!
//! * [`CompileOptions`] — *what to compile*: the engine request, the
//!   dense-engine cache budget, and an optional shared byte partition.
//!   One options value compiles spanners, fleets, and splitters
//!   consistently, each through the tiered engine core
//!   ([`TieredEvsa`]).
//! * [`RunnerOptions`] — *how to run*: worker/batch/queue/chunk tuning,
//!   an optional shared [`EvalPool`], and an optional shared
//!   [`SegmentCache`]. One options value constructs both runner kinds.
//!
//! A few legacy entry points remain as thin delegating wrappers because
//! the repository benchmark (`perfbench/`) calls them:
//! `ExecSpanner::{compile, compile_with}`, `Fleet::compile`,
//! `Splitter::compile` and `{Corpus,Fleet}Runner::{new, with_pool}`;
//! removing them would change what it builds. For the same reason the
//! old result names survive as type aliases of
//! [`RunResult`](crate::RunResult) and [`RunStats`](crate::RunStats):
//! [`CorpusResult`](crate::CorpusResult),
//! [`FleetResult`](crate::FleetResult) and
//! [`FleetStats`](crate::FleetStats).
//!
//! ```
//! use splitc_exec::{CompileOptions, RunnerOptions, Engine};
//! use splitc_spanner::{rgx::Rgx, splitter};
//!
//! let vsa = Rgx::parse(".*x{a+}.*").unwrap().to_vsa().unwrap();
//! let opts = CompileOptions::new().engine(Engine::Prefilter);
//! let spanner = opts.compile_spanner(&vsa);
//! let split = opts.compile_splitter(&splitter::sentences());
//! let runner = RunnerOptions::new().workers(2).corpus_runner(spanner, split);
//! let out = runner.run_slices(&[b"aa b. aaa"]);
//! assert_eq!(out.relations.len(), 1);
//! ```

use crate::corpus::{CorpusRunner, CorpusRunnerConfig};
use crate::engine::{Engine, ExecSpanner};
use crate::fleet::{Fleet, FleetRunner};
use crate::pool::EvalPool;
use crate::segcache::SegmentCache;
use splitc_automata::classes::ByteClasses;
use splitc_spanner::dense::DenseConfig;
use splitc_spanner::engine::TieredEvsa;
use splitc_spanner::evsa::EVsa;
use splitc_spanner::splitter::{CompiledSplitter, Splitter};
use splitc_spanner::vsa::Vsa;
use std::sync::Arc;

/// Builder for every compile-time choice of the execution layer: which
/// engine tier to request, how the dense tier's cache is budgeted, and
/// whether to index tables by an externally shared byte partition. See the
/// [module docs](self) for the sprawl this replaces.
#[derive(Debug, Clone, Default)]
pub struct CompileOptions {
    engine: Engine,
    dense: DenseConfig,
    classes: Option<ByteClasses>,
}

impl CompileOptions {
    /// Default options: [`Engine::Dense`] with the default
    /// [`DenseConfig`], no shared partition.
    pub fn new() -> CompileOptions {
        CompileOptions::default()
    }

    /// Requests an engine tier (compile-time tiering may still degrade
    /// an [`Engine::Aot`] request; see [`ExecSpanner::tier`]).
    pub fn engine(mut self, engine: Engine) -> CompileOptions {
        self.engine = engine;
        self
    }

    /// Replaces the whole dense-engine configuration at once.
    pub fn dense(mut self, config: DenseConfig) -> CompileOptions {
        self.dense = config;
        self
    }

    /// Bounds the lazy-DFA cache (states) of the dense tier — the knob
    /// the differential harnesses turn to starve caches.
    pub fn max_cache_states(mut self, states: usize) -> CompileOptions {
        self.dense.max_cache_states = states;
        self
    }

    /// Indexes dense tables by an externally shared byte partition
    /// (e.g. one computed across a fleet) instead of the automaton's own
    /// classes. Applies to single-spanner compiles; [`Fleet`] compiles
    /// always compute their members' common refinement themselves.
    pub fn shared_classes(mut self, classes: ByteClasses) -> CompileOptions {
        self.classes = Some(classes);
        self
    }

    /// The requested engine.
    pub fn requested_engine(&self) -> Engine {
        self.engine
    }

    /// The dense-engine configuration.
    pub fn dense_config(&self) -> DenseConfig {
        self.dense
    }

    /// Compiles one spanner (functionalization + block normal form +
    /// the requested engine tier). Subsumes `ExecSpanner::compile` and
    /// `compile_with`.
    pub fn compile_spanner(&self, vsa: &Vsa) -> ExecSpanner {
        self.compile_evsa(Arc::new(EVsa::from_vsa(vsa)))
    }

    /// Compiles a spanner from an already-normalized automaton.
    pub fn compile_evsa(&self, evsa: Arc<EVsa>) -> ExecSpanner {
        ExecSpanner::from_core(TieredEvsa::compile(
            evsa,
            self.engine,
            self.dense,
            self.classes.clone(),
        ))
    }

    /// Compiles a fleet for fused evaluation. The fleet computes the
    /// coarsest common refinement of its members itself, so any
    /// [`CompileOptions::shared_classes`] setting is ignored here.
    pub fn compile_fleet(&self, vsas: &[Vsa]) -> Fleet {
        let evsas = vsas.iter().map(|v| Arc::new(EVsa::from_vsa(v))).collect();
        Fleet::compile_evsas(evsas, self.engine, self.dense)
    }

    /// Compiles a splitter. Splitters always run gated: an
    /// [`Engine::Aot`] request compiles the AOT tier (with its dense
    /// fallback), every other request the `prefilter` engine that
    /// [`Splitter::compile`] uses, with this cache budget.
    pub fn compile_splitter(&self, splitter: &Splitter) -> CompiledSplitter {
        let engine = match self.engine {
            Engine::Aot => Engine::Aot,
            _ => Engine::Prefilter,
        };
        let evsa = Arc::new(EVsa::from_vsa(splitter.vsa()));
        CompiledSplitter::new(TieredEvsa::compile(evsa, engine, self.dense, None))
    }
}

/// Builder for runner construction: pipeline tuning plus the two shared
/// resources (worker pool, segment cache) a service threads through
/// every request. Subsumes `{Corpus,Fleet}Runner::{new, with_pool}` and
/// the `with_segment_cache` modifiers.
#[derive(Debug, Clone, Default)]
pub struct RunnerOptions {
    config: CorpusRunnerConfig,
    pool: Option<Arc<EvalPool>>,
    segment_cache: Option<Arc<SegmentCache>>,
}

impl RunnerOptions {
    /// Default options: [`CorpusRunnerConfig::default`], per-run spawned
    /// workers, no segment cache.
    pub fn new() -> RunnerOptions {
        RunnerOptions::default()
    }

    /// Replaces the whole pipeline configuration at once.
    pub fn config(mut self, config: CorpusRunnerConfig) -> RunnerOptions {
        self.config = config;
        self
    }

    /// Evaluation worker threads (see [`CorpusRunnerConfig::workers`]).
    pub fn workers(mut self, n: usize) -> RunnerOptions {
        self.config.workers = n;
        self
    }

    /// Target payload per dispatched batch
    /// (see [`CorpusRunnerConfig::batch_bytes`]).
    pub fn batch_bytes(mut self, n: usize) -> RunnerOptions {
        self.config.batch_bytes = n;
        self
    }

    /// Bounded queue capacity, in batches
    /// (see [`CorpusRunnerConfig::queue_depth`]).
    pub fn queue_depth(mut self, n: usize) -> RunnerOptions {
        self.config.queue_depth = n;
        self
    }

    /// Chunk size for materialized documents
    /// (see [`CorpusRunnerConfig::chunk_bytes`]).
    pub fn chunk_bytes(mut self, n: usize) -> RunnerOptions {
        self.config.chunk_bytes = n;
        self
    }

    /// Runs evaluation workers on a shared long-lived pool instead of
    /// per-run spawned threads.
    pub fn pool(mut self, pool: Arc<EvalPool>) -> RunnerOptions {
        self.pool = Some(pool);
        self
    }

    /// Attaches a shared content-addressed segment cache (see
    /// [`SegmentCache`]); results are byte-identical with or without.
    pub fn segment_cache(mut self, cache: Arc<SegmentCache>) -> RunnerOptions {
        self.segment_cache = Some(cache);
        self
    }

    /// The pipeline configuration.
    pub fn runner_config(&self) -> CorpusRunnerConfig {
        self.config
    }

    /// Constructs a [`CorpusRunner`] with these options. The options
    /// value is reusable — shared resources are cloned in, not moved.
    pub fn corpus_runner(&self, spanner: ExecSpanner, splitter: CompiledSplitter) -> CorpusRunner {
        let runner = match &self.pool {
            Some(pool) => CorpusRunner::with_pool(spanner, splitter, self.config, pool.clone()),
            None => CorpusRunner::new(spanner, splitter, self.config),
        };
        match &self.segment_cache {
            Some(cache) => runner.with_segment_cache(cache.clone()),
            None => runner,
        }
    }

    /// Constructs a [`FleetRunner`] with these options.
    pub fn fleet_runner(&self, fleet: Arc<Fleet>, splitter: CompiledSplitter) -> FleetRunner {
        let runner = match &self.pool {
            Some(pool) => FleetRunner::with_pool(fleet, splitter, self.config, pool.clone()),
            None => FleetRunner::new(fleet, splitter, self.config),
        };
        match &self.segment_cache {
            Some(cache) => runner.with_segment_cache(cache.clone()),
            None => runner,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitc_spanner::rgx::Rgx;
    use splitc_spanner::splitter;

    fn vsa(pat: &str) -> Vsa {
        Rgx::parse(pat).unwrap().to_vsa().unwrap()
    }

    #[test]
    fn options_match_legacy_entry_points() {
        let v = vsa(".*x{a+}.*");
        let docs: Vec<&[u8]> = vec![b"aa bb. aaa. b aa", b"", b"a.a.a."];
        for engine in [Engine::Nfa, Engine::Dense, Engine::Prefilter, Engine::Aot] {
            let via_options = CompileOptions::new().engine(engine).compile_spanner(&v);
            let legacy = ExecSpanner::compile_with(&v, engine);
            assert_eq!(via_options.engine(), legacy.engine());
            assert_eq!(via_options.tier(), legacy.tier());
            for d in &docs {
                assert_eq!(via_options.eval(d), legacy.eval(d), "{engine:?}");
            }
        }
    }

    #[test]
    fn dense_knobs_apply() {
        let opts = CompileOptions::new().max_cache_states(3);
        assert_eq!(opts.dense_config().max_cache_states, 3);
        // A starved cache still evaluates exactly.
        let sp = opts.compile_spanner(&vsa(".*x{a+}.*"));
        let full = ExecSpanner::compile(&vsa(".*x{a+}.*"));
        assert_eq!(sp.eval(b"aa b aaa"), full.eval(b"aa b aaa"));
    }

    #[test]
    fn runner_options_build_equivalent_runners() {
        let docs: Vec<&[u8]> = vec![b"aa bb. aaa. b aa", b"", b"a.a.a."];
        let legacy = CorpusRunner::new(
            ExecSpanner::compile(&vsa(".*x{a+}.*")),
            splitter::sentences().compile(),
            CorpusRunnerConfig::default(),
        )
        .run_slices(&docs);
        let pool = Arc::new(EvalPool::new(2));
        let cache = Arc::new(SegmentCache::new(128));
        let opts = RunnerOptions::new()
            .workers(2)
            .batch_bytes(8)
            .pool(pool.clone())
            .segment_cache(cache.clone());
        // Options are reusable: two runners from one value, and the
        // second run hits the segment cache the first populated.
        for _ in 0..2 {
            let runner = opts.corpus_runner(
                CompileOptions::new().compile_spanner(&vsa(".*x{a+}.*")),
                CompileOptions::new().compile_splitter(&splitter::sentences()),
            );
            assert_eq!(runner.run_slices(&docs).relations, legacy.relations);
        }
        assert!(pool.stats().submitted > 0, "pool was used");
        assert!(cache.stats().misses > 0, "cache was populated");
        // Note: distinct compilations get distinct cache ids, so the
        // second runner misses; sharing hits require a shared spanner.
        let shared = CompileOptions::new().compile_spanner(&vsa(".*x{a+}.*"));
        cache.reset_stats();
        for _ in 0..2 {
            let runner = opts.corpus_runner(
                shared.clone(),
                CompileOptions::new().compile_splitter(&splitter::sentences()),
            );
            assert_eq!(runner.run_slices(&docs).relations, legacy.relations);
        }
        let s = cache.stats();
        assert!(s.hits > 0, "second run over a shared spanner hits: {s:?}");
    }

    #[test]
    fn fleet_runner_via_options() {
        let pats = [".*x{a+}.*", "x{[0-9]+}"];
        let vsas: Vec<Vsa> = pats.iter().map(|p| vsa(p)).collect();
        let docs: Vec<&[u8]> = vec![b"aa 42. bbb 7 aa", b""];
        let opts = CompileOptions::new().engine(Engine::Prefilter);
        let fleet = Arc::new(opts.compile_fleet(&vsas));
        let got = RunnerOptions::new()
            .workers(2)
            .segment_cache(Arc::new(SegmentCache::new(64)))
            .fleet_runner(fleet.clone(), opts.compile_splitter(&splitter::sentences()))
            .run_slices(&docs);
        let legacy = FleetRunner::new(
            Arc::new(Fleet::compile(&vsas, Engine::Prefilter)),
            splitter::sentences().compile(),
            CorpusRunnerConfig::default(),
        )
        .run_slices(&docs);
        assert_eq!(got.relations, legacy.relations);
    }
}
