//! Incremental maintenance under edits — the paper's Wikipedia-model
//! motivation (§1): after certifying `P = P ∘ S`, a small edit to the
//! corpus only requires re-processing the touched segments.
//!
//! Two layers demonstrate the same payoff:
//!
//! 1. A single-shard [`CorpusHandle`] — one document, one worker:
//!    re-evaluate after an in-place edit; only the edited segment
//!    misses its (bounded, content-addressed) [`SegmentCache`].
//! 2. [`CorpusHandle`] + [`SegmentCache`] — a sharded, *maintained*
//!    corpus: point edits, appends, and shard replacement resplit only
//!    the dirty window (`DeltaStats` reports the resplit frontier),
//!    and re-extraction is two-tier incremental: untouched shards
//!    reuse their memoized relation without running at all
//!    (`stats.docs_reused`), while inside the dirty shards the shared
//!    segment cache re-evaluates only segments whose bytes changed.
//!
//! ```sh
//! cargo run --release --example incremental_wiki
//! ```

use split_correctness::prelude::*;
use split_correctness::textgen::{self, CorpusConfig};
use splitc_textgen::spanners;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // Entity extraction, certified sentence-splittable.
    let p = spanners::entity_extractor();
    let s = splitters::sentences();
    assert!(self_splittable(&p, &s).unwrap().holds());
    println!("entity extractor certified self-splittable by sentences ✓");

    let cfg = CorpusConfig {
        target_bytes: 2 << 20,
        ..Default::default()
    };
    let doc = textgen::wiki_corpus(&cfg);

    // --- Layer 1: one document as a single-shard maintained corpus -----
    let compile = CompileOptions::new();
    let compiled = compile.compile_splitter(&s);
    let cache = Arc::new(SegmentCache::new(1 << 16));
    let runner = RunnerOptions::new()
        .workers(1)
        .segment_cache(cache.clone())
        .corpus_runner(compile.compile_spanner(&p), compiled.clone());
    let mut single = CorpusHandle::from_shards(compiled.clone(), [doc]);

    // Cold run: every segment is a miss.
    let t0 = Instant::now();
    let before = single.extract(&runner);
    let cold = t0.elapsed();
    let s0 = cache.stats();
    println!(
        "cold run: {} entities, {} segments evaluated in {:?}",
        before.relations[0].len(),
        s0.misses,
        cold
    );

    // Simulate a Wikipedia-style edit: overwrite a few bytes in the
    // middle of one sentence.
    let mid = single.shard_bytes(0).len() / 2;
    single.edit(0, mid..mid + 7, b"Newname");

    let t0 = Instant::now();
    let after = single.extract(&runner);
    let warm = t0.elapsed();
    let s1 = cache.stats();
    println!(
        "after edit: {} entities; recomputed {} segment(s), {} from cache, in {:?} \
         ({:.1}x faster than cold)",
        after.relations[0].len(),
        s1.misses - s0.misses,
        s1.hits - s0.hits,
        warm,
        cold.as_secs_f64() / warm.as_secs_f64().max(1e-9),
    );
    assert!(
        s1.misses - s0.misses <= 2,
        "an in-sentence edit touches at most the edited segment(s)"
    );

    // The incremental result equals from-scratch evaluation.
    let direct = evaluate_sequential(&compile.compile_spanner(&p), single.shard_bytes(0));
    assert_eq!(after.relations, vec![direct]);
    println!("incremental result equals from-scratch evaluation ✓");

    // --- Layer 2: a maintained sharded corpus --------------------------
    let shards: Vec<Vec<u8>> = (0..8)
        .map(|i| {
            textgen::wiki_corpus(&CorpusConfig {
                target_bytes: 256 << 10,
                seed: 42 + i,
                ..Default::default()
            })
        })
        .collect();
    let mut handle = CorpusHandle::from_shards(compiled.clone(), shards);

    let cache = Arc::new(SegmentCache::new(1 << 16));
    let cached = RunnerOptions::new()
        .segment_cache(cache.clone())
        .corpus_runner(compile.compile_spanner(&p), compiled.clone());

    let t0 = Instant::now();
    let cold_corpus = handle.extract(&cached);
    let cold = t0.elapsed();
    println!(
        "\nmaintained corpus: {} shards / {} segments; cold extraction {:?} ({} cache misses)",
        handle.num_shards(),
        handle.total_segments(),
        cold,
        cache.stats().misses,
    );

    // A point edit, an append, and a shard replacement — each delta
    // resplits only the dirty window of the touched shard.
    let d = handle.edit(3, 1000..1007, b"Newname");
    println!(
        "point edit: resplit {} bytes / {} segments (window {}..{}, converged: {})",
        d.resplit_bytes, d.segments_resplit, d.window_start, d.window_end, d.converged
    );
    handle.append(5, b" Trailing update sentence.");
    handle.replace_shard(
        7,
        textgen::wiki_corpus(&CorpusConfig {
            target_bytes: 256 << 10,
            seed: 99,
            ..Default::default()
        }),
    );

    let t0 = Instant::now();
    let warm_corpus = handle.extract(&cached);
    let warm = t0.elapsed();
    let cs = cache.stats();
    println!(
        "after 3 deltas: re-extraction {:?} ({:.1}x faster than cold; \
         {}/{} shards reused from memo; {} hits / {} misses in the dirty shards)",
        warm,
        cold.as_secs_f64() / warm.as_secs_f64().max(1e-9),
        warm_corpus.stats.docs_reused,
        warm_corpus.stats.docs,
        cs.hits,
        cs.misses,
    );
    assert_eq!(
        warm_corpus.stats.docs_reused, 5,
        "only the 3 edited shards run"
    );
    assert_ne!(cold_corpus.relations, warm_corpus.relations);

    // Byte-identical to an uncached full rescan of the edited corpus.
    let full = RunnerOptions::new()
        .corpus_runner(compile.compile_spanner(&p), compiled)
        .run_slices(&handle.presplit_docs().map(|(b, _)| b).collect::<Vec<_>>());
    assert_eq!(warm_corpus.relations, full.relations);
    println!("maintained corpus equals full re-extraction ✓");
}
