//! The repository-wide **engine matrix**: every [`Engine`] variant —
//! nfa, dense, prefilter, aot — run over the *same* randomly generated
//! spanner/corpus pairs and asserted byte-identical, across every
//! execution path:
//!
//! * **batch** — [`ExecSpanner::eval`] on match-dense and match-sparse
//!   documents, with production-sized *and* starved 2-state lazy-DFA
//!   caches (the starved bound forces the overflow fallback mid-scan);
//! * **streaming** — [`CorpusRunner`] cutting documents into adversarial
//!   1-byte chunks;
//! * **fleet** — [`Fleet`] fused evaluation compared member-by-member.
//!
//! All random structure comes from the shared seeded generator in
//! [`spangen`] (`splitc_textgen::spangen`), so every engine — current
//! and future — is exercised against exactly the same distribution: a
//! new engine registers by extending [`ENGINES`] (the exhaustiveness
//! test below fails compilation until the `match` is updated too).

use proptest::prelude::*;
use split_correctness::exec::{
    CompileOptions, CorpusRunner, CorpusRunnerConfig, Engine, ExecSpanner,
};
use split_correctness::spanner::dense::DenseConfig;
use split_correctness::spanner::rgx::Rgx;
use split_correctness::spanner::splitter;
use split_correctness::spanner::tuple::SpanRelation;
use split_correctness::spanner::vsa::Vsa;
use split_correctness::textgen::spangen;

/// Every engine the matrix runs. The first entry is the reference
/// engine (plain NFA simulation) the others are compared against.
const ENGINES: [Engine; 4] = [Engine::Nfa, Engine::Dense, Engine::Prefilter, Engine::Aot];

/// Cache configurations: production-sized, and a starved 2-state bound
/// that forces the lazy-DFA overflow fallback on every non-trivial scan.
fn cache_configs() -> [DenseConfig; 2] {
    [
        DenseConfig::default(),
        DenseConfig {
            max_cache_states: 2,
        },
    ]
}

fn options(engine: Engine, config: DenseConfig) -> CompileOptions {
    CompileOptions::new().engine(engine).dense(config)
}

fn compile_matrix(vsa: &Vsa, config: DenseConfig) -> Vec<(Engine, ExecSpanner)> {
    ENGINES
        .iter()
        .map(|&e| (e, options(e, config).compile_spanner(vsa)))
        .collect()
}

/// Asserts all engines produce `reference`'s relation on `doc`.
fn assert_agree(
    matrix: &[(Engine, ExecSpanner)],
    doc: &[u8],
    reference: &SpanRelation,
    context: &str,
) -> Result<(), TestCaseError> {
    for (engine, spanner) in matrix {
        prop_assert_eq!(
            &spanner.eval(doc),
            reference,
            "engine {:?} diverges ({})",
            engine,
            context
        );
    }
    Ok(())
}

#[test]
fn matrix_covers_every_engine_variant() {
    // Exhaustive match with no wildcard: adding an `Engine` variant
    // breaks this test at compile time until the variant is added to
    // `ENGINES` (and thereby to every suite in this file).
    for e in ENGINES {
        match e {
            Engine::Nfa | Engine::Dense | Engine::Prefilter | Engine::Aot => {}
        }
    }
    let mut names: Vec<&str> = ENGINES.iter().map(|e| e.name()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), ENGINES.len(), "duplicate engine in matrix");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Batch path: random spanners × {dense, sparse} documents ×
    /// {production, starved} caches — all engines byte-identical.
    #[test]
    fn batch_engines_agree_on_random_spanners(
        seed in 0u64..u64::MAX,
        doc_seed in 0u64..u64::MAX,
    ) {
        let vsa = spangen::rand_spanner_vsa(seed);
        let docs = [
            spangen::dense_doc(doc_seed, 24),
            spangen::sparse_doc(doc_seed, 64),
        ];
        for config in cache_configs() {
            let matrix = compile_matrix(&vsa, config);
            for doc in &docs {
                let reference = matrix[0].1.eval(doc);
                assert_agree(&matrix, doc, &reference, "random spanner, batch")?;
            }
        }
    }

    /// Batch path over the fixed pattern table (empty spans, unions,
    /// two-variable spanners, `Σ*` contexts, literal anchors).
    #[test]
    fn batch_engines_agree_on_fixed_patterns(
        pi in 0..spangen::PATTERNS.len(),
        doc_seed in 0u64..u64::MAX,
    ) {
        let vsa = Rgx::parse(spangen::PATTERNS[pi]).unwrap().to_vsa().unwrap();
        let docs = [
            spangen::dense_doc(doc_seed, 24),
            spangen::sparse_doc(doc_seed, 64),
        ];
        for config in cache_configs() {
            let matrix = compile_matrix(&vsa, config);
            for doc in &docs {
                let reference = matrix[0].1.eval(doc);
                assert_agree(&matrix, doc, &reference, spangen::PATTERNS[pi])?;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Streaming path: the corpus runner cuts every document into
    /// adversarial 1-byte chunks; relations must match the reference
    /// engine document-for-document under every engine.
    #[test]
    fn streaming_engines_agree_with_one_byte_chunks(
        seed in 0u64..u64::MAX,
        corpus_seed in 0u64..u64::MAX,
        workers in 0usize..4,
    ) {
        let vsa = spangen::rand_spanner_vsa(seed);
        let owned: Vec<Vec<u8>> = (0..4)
            .map(|i| spangen::dense_doc(corpus_seed.wrapping_add(i), 32))
            .collect();
        let refs: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
        let config = CorpusRunnerConfig {
            workers,
            batch_bytes: 8,
            queue_depth: 2,
            chunk_bytes: 1, // adversarial: every push is a single byte
        };
        let mut reference: Option<Vec<SpanRelation>> = None;
        for engine in ENGINES {
            let runner = CorpusRunner::new(
                ExecSpanner::compile_with(&vsa, engine),
                splitter::sentences().compile(),
                config,
            );
            let got = runner.run_slices(&refs);
            prop_assert_eq!(got.stats.docs, refs.len());
            match &reference {
                None => reference = Some(got.relations),
                Some(expected) => prop_assert_eq!(
                    &got.relations,
                    expected,
                    "engine {:?} diverges on 1-byte-chunk streaming",
                    engine
                ),
            }
        }
    }

    /// Fleet path: fused evaluation under every engine equals the
    /// reference engine's per-member relations, with production and
    /// starved caches.
    #[test]
    fn fleet_engines_agree_per_member(
        seed in 0u64..u64::MAX,
        doc_seed in 0u64..u64::MAX,
        n in 1usize..6,
    ) {
        let vsas = spangen::rand_fleet(seed, n);
        let docs = [
            spangen::dense_doc(doc_seed, 32),
            spangen::sparse_doc(doc_seed, 48),
        ];
        // Reference relations: plain NFA simulation, member by member.
        let reference: Vec<Vec<SpanRelation>> = docs
            .iter()
            .map(|doc| {
                vsas.iter()
                    .map(|v| ExecSpanner::compile_with(v, Engine::Nfa).eval(doc))
                    .collect()
            })
            .collect();
        for config in cache_configs() {
            for engine in ENGINES {
                let fleet = options(engine, config).compile_fleet(&vsas);
                for (di, doc) in docs.iter().enumerate() {
                    let fused = fleet.eval(doc);
                    for (mi, rel) in fused.iter().enumerate() {
                        prop_assert_eq!(
                            rel,
                            &reference[di][mi],
                            "member {} under {:?} (starved: {})",
                            mi,
                            engine,
                            config.max_cache_states == 2
                        );
                    }
                }
            }
        }
    }
}
