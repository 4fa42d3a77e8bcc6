//! # split-correctness
//!
//! A complete implementation of *Split-Correctness in Information
//! Extraction* (Doleschal, Kimelfeld, Martens, Nahshon, Neven; PODS
//! 2019): document spanners, splitters, and decision procedures that
//! certify when an information extractor can be evaluated independently
//! per document segment — plus the parallel/incremental execution engine
//! that cashes in on the certificate.
//!
//! ## Quick start
//!
//! ```
//! use split_correctness::prelude::*;
//!
//! // An extractor: every run of 'a's, anywhere in the document.
//! let p = Rgx::parse(".*x{a+}.*").unwrap().to_vsa().unwrap();
//! // A splitter: sentences (maximal period-free chunks).
//! let s = splitters::sentences();
//!
//! // Certify that per-sentence evaluation is equivalent (Thm 5.16).
//! assert!(self_splittable(&p, &s).unwrap().holds());
//!
//! // Evaluate in parallel over sentences — same result, distributed.
//! let spanner = ExecSpanner::compile(&p);
//! let split: SplitFn = std::sync::Arc::new(native_splitters::sentences);
//! let doc = b"aaa bb. cc aa";
//! assert_eq!(
//!     evaluate_split(&spanner, &split, doc, 4),
//!     evaluate_sequential(&spanner, doc),
//! );
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`automata`] | NFA/DFA substrate, containment, unambiguous automata |
//! | [`spanner`] | spans, ref-words, regex formulas, VSet-automata, splitters |
//! | [`core`] | the paper's decision procedures (split-correctness, splittability, …) |
//! | [`exec`] | parallel + incremental + streaming corpus execution engine |
//! | [`server`] | extraction-as-a-service: HTTP server, compile/certification caches |
//! | [`textgen`] | synthetic corpora and workload extractors |
//!
//! How the crates compose — the regex → VSA/eVSA → engine → execution
//! dataflow, the certification pipeline, engine-selection semantics,
//! and the benchmark row schema — is documented in the repository's
//! top-level `ARCHITECTURE.md`.

#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_docs)]

pub use splitc_automata as automata;
pub use splitc_core as core;
pub use splitc_exec as exec;
pub use splitc_server as server;
pub use splitc_spanner as spanner;
pub use splitc_textgen as textgen;

/// One-stop imports for applications.
pub mod prelude {
    pub use splitc_core::{
        annotated, blackbox, canonical_split_spanner, cover_condition, cover_condition_df, filters,
        reasoning, self_splittable, self_splittable_df, split_correct, split_correct_df,
        split_correct_with, splittable, CertError, CheckStrategy, SplittabilityVerdict, Verdict,
    };
    pub use splitc_exec::{
        certify_many, evaluate_many, evaluate_many_split, evaluate_sequential, evaluate_split,
        CertPath, Certification, CertifyConfig, CertifyResult, CertifyStats, CompileOptions,
        CorpusHandle, CorpusResult, CorpusRunner, CorpusRunnerConfig, CorpusStats, DeltaStats,
        Engine, ExecSpanner, Fleet, FleetResult, FleetRunner, FleetStats, RunnerOptions, SegBytes,
        SegCacheStats, Segment, SegmentCache, SplitFn, StreamStats, StreamingSplitter,
    };
    pub use splitc_spanner::splitter as splitters;
    pub use splitc_spanner::splitter::native as native_splitters;
    pub use splitc_spanner::{
        eval::eval, PrefilterStats, Rgx, Span, SpanRelation, SpanTuple, Splitter, TupleRef,
        VarTable, Vsa,
    };
}
