#![warn(missing_docs)]
//! Document spanners, regex formulas, VSet-automata and splitters.
//!
//! This crate implements the document-spanner formalism of Fagin et al.
//! (*Document Spanners: A Formal Approach to Information Extraction*,
//! J. ACM 2015) as used by *Split-Correctness in Information Extraction*
//! (PODS 2019):
//!
//! * [`span`] — spans `[i, j⟩`, the shift operator `≫`, containment and
//!   overlap predicates (paper §2, Figure 1).
//! * [`vars`] — span variables, variable operations `x⊢` / `⊣x`, and the
//!   fixed total order `≺` on operations used by deterministic
//!   VSet-automata (paper §4.2).
//! * [`byteset`] — 256-bit byte sets; transitions of our automata carry
//!   byte sets rather than single bytes so realistic splitters stay small.
//! * [`mod@tuple`] — `(V, d)`-tuples and span relations.
//! * [`refword`] — ref-words, validity, the `clr` morphism and tuple
//!   extraction (paper §4, following Freydenberger's semantics).
//! * [`rgx`] — regex formulas: AST, parser, functionality check, and
//!   compilation to VSet-automata (paper §4.1).
//! * [`vsa`] — classic VSet-automata with ε- and variable-operation
//!   transitions; functionality, determinism (weak and strong),
//!   functionalization and determinization (paper §4.2, Prop. 4.4).
//! * [`evsa`] — the internal *block normal form* used for evaluation and
//!   spanner algebra (union, projection, natural join).
//! * [`ext`] — interned extended alphabets `Σ ∪ Γ_V` with byte-class
//!   compression, bridging spanners to the [`splitc_automata`] substrate.
//! * [`equiv`] — spanner containment and equivalence on order-normalized
//!   valid ref-word languages (Theorems 4.1 and 4.3).
//! * [`splitter`] — document splitters, the disjointness check
//!   (Prop. 5.5), the composition `P ∘ S` (Lemma C.1/C.2), and a library
//!   of realistic splitters (sentences, paragraphs, lines, N-grams, HTTP
//!   requests).
//! * [`eval`] — evaluation of spanners on documents (output-sensitive
//!   enumeration) plus a brute-force reference evaluator for testing.
//! * [`dense`] — the dense engine: byte-class-compressed transition
//!   tables and a memory-bounded lazy-DFA cache accelerating the
//!   viability pass, with exact fallback to the NFA engine.
//! * [`prefilter`] — literal prefilters over the dense engine: a
//!   per-spanner analysis (minimum match length, required prefix
//!   literal, required byte class) gates documents before any DFA step,
//!   and the lazy DFA's skip-loop crosses `Σ*` contexts with a SWAR
//!   scanner; trivial analyses fall back to plain dense evaluation.
//! * [`aot`] — the ahead-of-time engine tier: [`dense`]'s backward
//!   viability DFA explored to completion under a budget and frozen
//!   into a flat premultiplied `u16` transition table (empty-set flag
//!   packed into bit 15), run by the same viability pass; falls back to
//!   [`dense`] when the budget is exceeded.
//! * [`mod@engine`] — the tiered engine core every compiled spanner and
//!   splitter sits behind: one mapping from an [`Engine`] request to a
//!   tier, a document gate and a skip-loop setting, plus pooled scan
//!   caches.
//! * [`stream`] — incremental splitter simulation: a forward-only step
//!   API ([`stream::SplitterState`]) emitting split spans chunk by chunk
//!   without materializing the document (splitters past the phase-DFA
//!   budget have none; their documents are split whole), behind the
//!   streaming corpus execution of `splitc-exec`.
//!
//! A map of how these modules compose into the full pipeline (regex →
//! VSA → eVSA → dense/stream engines → execution layer) lives in the
//! repository's top-level `ARCHITECTURE.md`.

pub mod aot;
pub mod byteset;
pub mod dense;
pub mod engine;
pub mod equiv;
pub mod eval;
pub mod evsa;
pub mod ext;
pub mod prefilter;
pub mod refword;
pub mod rgx;
pub mod span;
pub mod splitter;
pub mod stream;
pub mod tuple;
pub mod vars;
pub mod vsa;

pub use aot::AotEvsa;
pub use dense::{DenseCache, DenseCacheStats, DenseConfig, DenseEvsa};
pub use engine::{Engine, TieredEvsa};
pub use equiv::{
    spanner_contains, spanner_contains_with, spanner_equivalent, spanner_equivalent_with,
    CheckStrategy, SpannerCheck,
};
pub use evsa::EVsa;
pub use prefilter::{PrefilterAnalysis, PrefilterGate, PrefilterStats};
pub use rgx::Rgx;
pub use span::Span;
pub use splitter::Splitter;
pub use stream::{SplitterState, StreamTables};
pub use tuple::{SpanRelation, SpanTuple, TupleRef};
pub use vars::{VarId, VarOp, VarTable};
pub use vsa::Vsa;

#[cfg(test)]
mod proptests;
