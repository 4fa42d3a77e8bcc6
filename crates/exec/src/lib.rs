#![warn(missing_docs)]
//! Parallel and incremental execution of split spanner evaluation.
//!
//! The paper's Introduction motivates split-correctness with three
//! operational payoffs, all implemented here:
//!
//! * **Parallel evaluation** ([`engine`]): once `P = P_S ∘ S` is
//!   certified, a document is split by `S` and `P_S` is evaluated on the
//!   chunks by a worker pool, with results shifted (`≫`) and unioned —
//!   semantically identical to evaluating `P` on the whole document
//!   (guaranteed by the decision procedures of `splitc-core`).
//! * **Fine-grained scheduling** ([`engine::evaluate_many_split`]): even
//!   for pre-parallel collections of small documents, splitting yields
//!   more, smaller tasks and measurably better pool utilization — the
//!   paper's Spark observation (§1 "Further motivation").
//! * **Incremental maintenance** ([`handle`], [`segcache`]): a
//!   maintained corpus resplits only the dirty window of an edit, and
//!   per-segment results cached by content mean re-evaluating an edited
//!   document only recomputes the touched segments (the paper's
//!   Wikipedia-edit scenario).
//! * **Streaming sharded corpus execution** ([`stream`], [`corpus`]):
//!   documents are split *while being read* (chunk by chunk, constant
//!   memory via [`stream::StreamingSplitter`]) and the resulting
//!   segments are batched and fanned out to a worker pool over a
//!   bounded queue with per-worker dense-engine caches
//!   ([`corpus::CorpusRunner`]) — the shape that scales split-correct
//!   evaluation to corpora larger than memory.
//! * **Fused fleet evaluation** ([`fleet`]): many spanners over the
//!   same corpus in *one* streamed pass — one splitter, one shared byte
//!   partition, one merged multi-needle literal scan dispatching each
//!   segment only to the members with evidence in it
//!   ([`fleet::FleetRunner`]). Both runners are typed wrappers over one
//!   streaming pipeline, generic over what a worker does with a segment.
//! * **Batch certification** ([`certify`]): the step *before* any of
//!   the above — a fleet of `(P, P_S)` pairs sharing one splitter is
//!   certified split-correct on a worker pool, with the composed
//!   spanners memoized across pairs and the antichain containment
//!   engine on the general route ([`certify::certify_many`]).
//! * **Long-lived worker pools** ([`pool`]): [`pool::EvalPool`] is a
//!   reusable self-draining thread pool the runners share via
//!   [`corpus::CorpusRunner::with_pool`] /
//!   [`fleet::FleetRunner::with_pool`] — a service handling many
//!   requests pays thread spawn/teardown once per process instead of
//!   once per call (the default constructors still spawn per-call
//!   workers, so one-shot uses are unchanged).
//!
//! The repository's top-level `ARCHITECTURE.md` shows where this crate
//! sits in the full pipeline (regex → VSA/eVSA → engines → execution).

pub mod annotated;
pub mod certify;
pub mod corpus;
pub mod engine;
pub mod fleet;
pub mod handle;
pub mod options;
mod pipeline;
pub mod pool;
pub mod segcache;
pub mod stream;

pub use annotated::{AnnotatedPlan, AnnotatedSplitFn};
pub use certify::{
    certify_many, CertPath, Certification, CertifyConfig, CertifyResult, CertifyStats,
};
pub use corpus::{CorpusResult, CorpusRunner, CorpusRunnerConfig};
pub use engine::{
    evaluate_many, evaluate_many_split, evaluate_sequential, evaluate_split, Engine, ExecSpanner,
    SplitFn,
};
pub use fleet::{Fleet, FleetResult, FleetRunner, FleetStats};
pub use handle::{CorpusHandle, DeltaStats};
pub use options::{CompileOptions, RunnerOptions};
pub use pipeline::{RunResult, RunStats};
pub use pool::{EvalPool, EvalPoolStats};
pub use segcache::{SegCacheStats, SegmentCache};
pub use stream::{SegBytes, Segment, StreamStats, StreamingSplitter};

#[cfg(test)]
mod proptests;
