//! E6 — literal prefilter + skip-loop on match-sparse corpora.
//!
//! PR 2's dense lazy DFA still inspects every byte of every document
//! through a table lookup; real workloads are match-sparse, and
//! production regex engines win an order of magnitude there with
//! literal prefilters. This benchmark measures exactly that gap for a
//! number extractor over sparse Wikipedia-like text
//! (`splitc_textgen::sparse_number_corpus`) with the dense engine vs
//! the prefiltered engine (`splitc_spanner::prefilter`: analysis-gated
//! rejection + SWAR skip-loop):
//!
//! * **collection** (the gated rows, bench `e6_sparse_prefilter`) — a
//!   pre-parallel collection of small documents evaluated with
//!   [`splitc_exec::evaluate_many`]; most documents contain no digit at
//!   all, so the prefilter gate answers them with one SWAR scan. This
//!   isolates the evaluation stage the prefilter accelerates.
//! * **stream** (rows `e6_sparse_prefilter/stream`) — the full
//!   streaming [`splitc_exec::CorpusRunner`] pipeline over sharded
//!   sparse documents split to sentences, reporting the
//!   `PrefilterStats` surfaced in `RunStats` (gate rejections per
//!   segment + skip-loop bytes).
//!
//! Engines must produce byte-identical relations — asserted on every
//! run. One invocation emits both engines' rows (the `--engine` flag is
//! accepted-and-ignored for harness uniformity, like
//! `t3_certification_scaling`); the CI gate requires prefilter over
//! dense by the configured floor on the collection rows.

use splitc_bench::{bench_json, ms, scaled, time_best, x, Table};
use splitc_exec::{evaluate_many, CorpusRunner, CorpusRunnerConfig, Engine, ExecSpanner};
use splitc_spanner::splitter;
use splitc_spanner::vsa::Vsa;
use splitc_textgen::{sparse_number_shards, CorpusConfig};

/// The workload extractor: maximal-digit-run tokens, self-splittable by
/// sentences (same spanner as E5, on corpora where it rarely fires).
fn number_extractor() -> Vsa {
    splitc_spanner::rgx::Rgx::parse("(.*[^0-9]|)x{[0-9]+}([^0-9].*|)")
        .unwrap()
        .to_vsa()
        .unwrap()
}

fn main() {
    let workers: usize = std::env::var("SC_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let p = number_extractor();
    let s = splitter::sentences();
    let verdict = splitc_core::self_splittable(&p, &s).unwrap();
    assert!(
        verdict.holds(),
        "number extractor must be sentence-self-splittable"
    );
    let dense = ExecSpanner::compile_with(&p, Engine::Dense);
    let pre = ExecSpanner::compile_with(&p, Engine::Prefilter);

    // ------------------------------------------------------------------
    // Collection workload: many small documents, most entirely barren.
    // ------------------------------------------------------------------
    let n_docs = scaled(2048).max(64);
    let doc_cfg = CorpusConfig {
        target_bytes: 2048,
        seed: 0x59A25E,
        ..Default::default()
    };
    // One digit-bearing sentence in 256: at ~15 sentences per document,
    // roughly one document in 17 contains a match.
    let owned = sparse_number_shards(n_docs, &doc_cfg, 256);
    let refs: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
    let total_bytes: usize = refs.iter().map(|d| d.len()).sum();
    println!(
        "E6: number extraction over {n_docs} sparse ~2 KiB documents \
         ({:.1} MiB total; workers: {workers})",
        total_bytes as f64 / (1 << 20) as f64,
    );

    let (dense_rels, dense_wall) = time_best(3, || evaluate_many(&dense, &refs, workers));
    let dense_tuples: usize = dense_rels.iter().map(|r| r.len()).sum();
    bench_json(
        "e6_sparse_prefilter",
        Engine::Dense.name(),
        total_bytes,
        n_docs as f64,
        dense_wall,
        dense_tuples,
    );
    let (pre_rels, pre_wall) = time_best(3, || evaluate_many(&pre, &refs, workers));
    let pre_tuples: usize = pre_rels.iter().map(|r| r.len()).sum();
    bench_json(
        "e6_sparse_prefilter",
        Engine::Prefilter.name(),
        total_bytes,
        n_docs as f64,
        pre_wall,
        pre_tuples,
    );
    assert_eq!(dense_rels, pre_rels, "engines must agree on the collection");
    assert!(dense_tuples > 0, "the sparse corpus still has needles");
    let matching = dense_rels.iter().filter(|r| !r.is_empty()).count();

    let mib = total_bytes as f64 / (1 << 20) as f64;
    let mut table = Table::new(
        &format!("E6 — sparse collection, number extraction at {workers} workers"),
        &["engine", "wall ms", "MiB/s", "speedup vs dense"],
    );
    table.row(&[
        "dense".into(),
        ms(dense_wall),
        format!("{:.1}", mib / dense_wall.as_secs_f64().max(1e-9)),
        x(1.0),
    ]);
    table.row(&[
        "prefilter".into(),
        ms(pre_wall),
        format!("{:.1}", mib / pre_wall.as_secs_f64().max(1e-9)),
        x(dense_wall.as_secs_f64() / pre_wall.as_secs_f64().max(1e-9)),
    ]);
    table.print();
    println!(
        "{pre_tuples} tuples; {matching}/{n_docs} documents contain a match \
         — the rest are answered by one SWAR scan each",
    );

    // ------------------------------------------------------------------
    // Streaming pipeline: sharded sparse corpus through CorpusRunner.
    // ------------------------------------------------------------------
    let shards = 8;
    let per_doc = scaled(1 << 20);
    let stream_cfg = CorpusConfig {
        target_bytes: per_doc,
        seed: 0x59A25F,
        ..Default::default()
    };
    let owned = sparse_number_shards(shards, &stream_cfg, 64);
    let refs: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
    let stream_bytes: usize = refs.iter().map(|d| d.len()).sum();
    let run = |spanner: &ExecSpanner| {
        let runner = CorpusRunner::new(
            spanner.clone(),
            s.compile(),
            CorpusRunnerConfig {
                workers,
                ..Default::default()
            },
        );
        time_best(2, || runner.run_slices(&refs))
    };
    let (dense_stream, dense_stream_wall) = run(&dense);
    bench_json(
        "e6_sparse_prefilter/stream",
        Engine::Dense.name(),
        stream_bytes,
        shards as f64,
        dense_stream_wall,
        dense_stream.relations.iter().map(|r| r.len()).sum(),
    );
    let (pre_stream, pre_stream_wall) = run(&pre);
    bench_json(
        "e6_sparse_prefilter/stream",
        Engine::Prefilter.name(),
        stream_bytes,
        shards as f64,
        pre_stream_wall,
        pre_stream.relations.iter().map(|r| r.len()).sum(),
    );
    assert_eq!(
        dense_stream.relations, pre_stream.relations,
        "engines must agree on the streamed corpus"
    );
    let pf = pre_stream.stats.prefilter;
    println!(
        "\nstreaming pipeline ({shards} shards x {:.1} MiB, split to sentences): \
         dense {} ms, prefilter {} ms ({})",
        per_doc as f64 / (1 << 20) as f64,
        ms(dense_stream_wall),
        ms(pre_stream_wall),
        x(dense_stream_wall.as_secs_f64() / pre_stream_wall.as_secs_f64().max(1e-9)),
    );
    println!(
        "prefilter stats: {} candidates ({} false) of {} segments, \
         {} bytes skipped of {stream_bytes} ({:.1}%)",
        pf.candidates,
        pf.false_candidates,
        pre_stream.stats.segments,
        pf.bytes_skipped,
        100.0 * pf.bytes_skipped as f64 / stream_bytes as f64,
    );
    println!(
        "\nShape check: on the collection rows the prefilter gate answers\n\
         barren documents with one SWAR scan instead of a per-byte DFA walk\n\
         (the CI gate asserts the floor; the recorded quiet-host factor\n\
         lives in BENCH_pr5.json). The streaming rows show the same engines\n\
         behind the splitter pipeline, where PrefilterStats surface in\n\
         RunStats."
    );
}
