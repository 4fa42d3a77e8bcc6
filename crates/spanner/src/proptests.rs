//! Property-based tests for the spanner crate: the formalism-level
//! invariants (reference evaluation, determinization/functionalization,
//! composition, disjointness, algebra).
//!
//! Per-engine differential coverage (nfa / dense / prefilter / aot ×
//! batch / streaming / fleet, starved caches, sparse documents) lives in
//! the repository-wide engine-matrix harness (`tests/engine_matrix.rs`
//! at the workspace root), which draws random spanners from the shared
//! generator in `splitc_textgen::spangen` — new engines register there
//! instead of growing a copy-pasted suite here.

use crate::eval::{eval, reference_eval};
use crate::rgx::Rgx;
use crate::span::Span;
use crate::splitter::{compose, CompiledSplitter, Splitter};
use crate::tuple::{SpanRelation, SpanTuple};
use crate::vsa::Vsa;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::OnceLock;
pub(crate) const PATTERNS: &[&str] = &[
    "x{a+}",
    ".*x{a}.*",
    "x{a*}y{b*}",
    "(a|b)*x{ab}(a|b)*",
    "x{[ab]+}",
    "a?x{b}a?",
    ".*x{}.*",
    "x{a|bb}",
    "(x{a}b)|(a(x{b}))",
    ".*x{a.a}.*",
];

pub(crate) const SPLITTER_PATTERNS: &[&str] = &[
    "(.*\\.)?x{[^.]+}(\\..*)?", // sentences
    "x{.*}",                    // whole document
    ".*x{..}.*",                // 2-byte windows (non-disjoint)
    "x{a*}.*",                  // prefix of a's (incl. empty)
    "x{ab}b|a(x{bb})",          // paper example 5.8
];

fn doc_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'.')], 0..8)
}

fn compile(p: &str) -> Vsa {
    Rgx::parse(p).unwrap().to_vsa().unwrap()
}

/// Spans over a tiny range, so drawn rows collide often.
fn span_strategy() -> impl Strategy<Value = Span> {
    (0..4usize, 0..3usize).prop_map(|(start, len)| Span::new(start, start + len))
}

/// Up to 7 unsorted rows of `arity` spans, duplicates likely.
fn rows_strategy(arity: usize) -> impl Strategy<Value = Vec<Vec<Span>>> {
    proptest::collection::vec(
        proptest::collection::vec(span_strategy(), arity..arity + 1),
        0..8,
    )
}

fn relation_of(arity: usize, rows: &[Vec<Span>]) -> SpanRelation {
    SpanRelation::from_rows(arity, rows.len(), rows.concat())
}

fn rows_of(rel: &SpanRelation) -> Vec<Vec<Span>> {
    rel.iter().map(|r| r.spans().to_vec()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn eval_agrees_with_reference(pi in 0..PATTERNS.len(), doc in doc_strategy()) {
        let p = compile(PATTERNS[pi]);
        prop_assert_eq!(eval(&p, &doc), reference_eval(&p, &doc));
    }

    #[test]
    fn determinize_preserves_outputs(pi in 0..PATTERNS.len(), doc in doc_strategy()) {
        let p = compile(PATTERNS[pi]);
        let d = p.determinize();
        prop_assert!(d.is_deterministic());
        prop_assert!(d.is_functional());
        prop_assert_eq!(eval(&p, &doc), eval(&d, &doc));
    }

    #[test]
    fn functionalize_preserves_outputs(pi in 0..PATTERNS.len(), doc in doc_strategy()) {
        let p = compile(PATTERNS[pi]);
        let f = p.functionalize();
        prop_assert!(f.is_functional());
        prop_assert_eq!(eval(&p, &doc), eval(&f, &doc));
    }

    #[test]
    fn composition_matches_pointwise_definition(
        pi in 0..PATTERNS.len(),
        si in 0..SPLITTER_PATTERNS.len(),
        doc in doc_strategy(),
    ) {
        let ps = compile(PATTERNS[pi]);
        let s = Splitter::parse(SPLITTER_PATTERNS[si]).unwrap();
        let composed = compose(&ps, &s);
        let direct = eval(&composed, &doc);
        let mut expected = Vec::new();
        for sp in s.split(&doc) {
            for t in eval(&ps, sp.slice(&doc)).iter() {
                expected.push(t.shift(sp));
            }
        }
        prop_assert_eq!(direct, SpanRelation::from_tuples(expected));
    }

    #[test]
    fn disjointness_agrees_with_bruteforce(si in 0..SPLITTER_PATTERNS.len(), docs in proptest::collection::vec(doc_strategy(), 1..6)) {
        let s = Splitter::parse(SPLITTER_PATTERNS[si]).unwrap();
        let verdict = s.is_disjoint();
        if verdict {
            // No sampled document may produce overlapping spans.
            for doc in &docs {
                let spans = s.split(doc);
                for (i, a) in spans.iter().enumerate() {
                    for b in &spans[i + 1..] {
                        prop_assert!(
                            a.disjoint(*b),
                            "claimed disjoint but {a:?} overlaps {b:?} on {doc:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn union_is_set_union(
        pi in 0..PATTERNS.len(),
        qi in 0..PATTERNS.len(),
        doc in doc_strategy(),
    ) {
        let a = compile(PATTERNS[pi]);
        let b = compile(PATTERNS[qi]);
        if a.vars().names() == b.vars().names() {
            let u = a.union(&b).unwrap();
            prop_assert_eq!(eval(&u, &doc), eval(&a, &doc).union(&eval(&b, &doc)));
        }
    }

    #[test]
    fn equivalence_consistent_with_eval(
        pi in 0..PATTERNS.len(),
        qi in 0..PATTERNS.len(),
        doc in doc_strategy(),
    ) {
        let a = compile(PATTERNS[pi]);
        let b = compile(PATTERNS[qi]);
        if a.vars().names() == b.vars().names()
            && crate::equiv::spanner_equivalent(&a, &b).unwrap().holds()
        {
            prop_assert_eq!(eval(&a, &doc), eval(&b, &doc));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flat_relation_agrees_with_a_row_set_model(
        drawn in (0..4usize).prop_flat_map(|arity| {
            (Just(arity), rows_strategy(arity), rows_strategy(arity), rows_strategy(arity))
        }),
        other_arity in 0..4usize,
        s in span_strategy(),
    ) {
        let (arity, a, b, probes) = &drawn;
        let arity = *arity;
        let model: BTreeSet<Vec<Span>> = a.iter().cloned().collect();
        let model_b: BTreeSet<Vec<Span>> = b.iter().cloned().collect();
        let rel = relation_of(arity, a);
        let tuples: Vec<SpanTuple> = a.iter().map(|r| SpanTuple::new(r.clone())).collect();
        prop_assert_eq!(&rel, &SpanRelation::from_tuples(tuples));
        prop_assert_eq!(rows_of(&rel), model.iter().cloned().collect::<Vec<_>>());
        prop_assert_eq!(rel.len(), model.len());
        prop_assert_eq!(rel.is_empty(), model.is_empty());
        for (i, row) in rel.iter().enumerate() {
            prop_assert_eq!(rel.tuple(i), row);
            prop_assert_eq!(row, row.to_owned());
        }
        for probe in a.iter().chain(probes) {
            prop_assert_eq!(rel.contains(&SpanTuple::new(probe.clone())), model.contains(probe));
        }

        let union: Vec<Vec<Span>> = model.union(&model_b).cloned().collect();
        prop_assert_eq!(rows_of(&rel.union(&relation_of(arity, b))), union);

        let shifted: BTreeSet<Vec<Span>> = model
            .iter()
            .map(|r| r.iter().map(|sp| sp.shift(s)).collect())
            .collect();
        prop_assert_eq!(rows_of(&rel.shift(s)), shifted.into_iter().collect::<Vec<_>>());

        // Empties are normalised; a Boolean relation holds at most `()`.
        let empty = relation_of(arity, &[]);
        prop_assert_eq!(&empty, &SpanRelation::from_rows(other_arity, 0, Vec::new()));
        prop_assert_eq!(&empty, &SpanRelation::empty());
        prop_assert_eq!(rel.is_empty(), rel == empty);
        if arity == 0 {
            prop_assert!(rel.len() <= 1);
            prop_assert!(rel.spans().is_empty());
        }
    }
}

/// The splitters the stream oracle runs: `SPLITTER_PATTERNS`, every
/// builtin, and four that reach the skip loop's corners, compiled once:
/// an open at every `a` while earlier opens are still pending, a close
/// before every byte of a run, an empty span before every byte, and an
/// unconfirmed candidate whose after state moves on bytes the rest of
/// the stream ignores.
fn stream_splitters() -> &'static [CompiledSplitter] {
    use crate::splitter as b;
    static POOL: OnceLock<Vec<CompiledSplitter>> = OnceLock::new();
    POOL.get_or_init(|| {
        let extra = [
            r".*x{ab[^.]*}(\..*)?",
            r"(.*\.)?x{a[^.]*}.*",
            ".*x{}.*",
            "x{a}(ab)*",
        ];
        SPLITTER_PATTERNS
            .iter()
            .chain(&extra)
            .map(|p| Splitter::parse(p).unwrap())
            .chain([
                b::sentences(),
                b::lines(),
                b::paragraphs(),
                b::whole_document(),
                b::ngrams(1),
                b::ngrams(2),
                b::ngram_windows(2),
                b::char_windows(3),
            ])
            .map(|s| s.compile())
            .collect()
    })
}

/// Documents of up to 400 bytes built from runs over the delimiter
/// alphabet, so that inert runs are long enough to skip.
fn run_doc_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec((0..5usize, 1..32usize), 0..16).prop_map(|runs| {
        let mut doc: Vec<u8> = runs
            .into_iter()
            .flat_map(|(sym, len)| std::iter::repeat_n(b".\nab "[sym], len))
            .collect();
        doc.truncate(400);
        doc
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The skip loop changes nothing observable: after every chunk, the
    /// skipping stream and a stream stepping every byte agree on the
    /// emitted spans and on every piece of exposed state.
    #[test]
    fn skip_loop_matches_stepping_oracle(
        doc in run_doc_strategy(),
        chunks in proptest::collection::vec(1..64usize, 1..8),
    ) {
        for (si, compiled) in stream_splitters().iter().enumerate() {
            let mut fast = compiled.stream().expect("within budget");
            let mut slow = compiled.stream().expect("within budget");
            let mut at = 0;
            for &len in chunks.iter().cycle() {
                if at >= doc.len() {
                    break;
                }
                let piece = &doc[at..(at + len).min(doc.len())];
                at += piece.len();
                prop_assert_eq!(fast.push(piece), slow.push_stepped(piece), "splitter {} at {}", si, at);
                prop_assert_eq!(fast.pos(), slow.pos());
                prop_assert_eq!(fast.low_watermark(), slow.low_watermark(), "splitter {} at {}", si, at);
                prop_assert_eq!(fast.last_quiescent(), slow.last_quiescent(), "splitter {} at {}", si, at);
                prop_assert_eq!(fast.is_quiescent(), slow.is_quiescent(), "splitter {} at {}", si, at);
                prop_assert_eq!(fast.pending_segments(), slow.pending_segments(), "splitter {} at {}", si, at);
            }
            prop_assert_eq!(slow.bytes_skipped(), 0);
            prop_assert_eq!(fast.finish(), slow.finish(), "splitter {}", si);
        }
    }
}
