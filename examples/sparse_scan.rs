//! Sparse scanning: literal prefilters + skip-loops on a match-sparse
//! corpus.
//!
//! Most documents of a real corpus contain nothing an extractor wants —
//! yet a table-driven engine pays a per-byte cost on all of them. This
//! example shows the `prefilter` engine closing that gap:
//!
//! 1. compile a number extractor and inspect what the prefilter
//!    analysis proved about it (minimum match length, required bytes);
//! 2. certify it split-correct by sentences, as always;
//! 3. run a sparse synthetic corpus through the streaming
//!    `CorpusRunner` with the dense engine and with the prefiltered
//!    engine, compare wall clocks, and read the `PrefilterStats`
//!    surfaced in `RunStats`.
//!
//! Run with: `cargo run --release --example sparse_scan`

use split_correctness::prelude::*;
use split_correctness::spanner::evsa::EVsa;
use split_correctness::spanner::prefilter::PrefilterAnalysis;
use split_correctness::textgen::{self, CorpusConfig};
use std::time::Instant;

fn main() {
    // A spanner extracting maximal digit runs, anywhere in a document.
    let pattern = "(.*[^0-9]|)x{[0-9]+}([^0-9].*|)";
    let p = Rgx::parse(pattern).unwrap().to_vsa().unwrap();

    // What the prefilter analysis proves about it, once, at compile
    // time: every match needs at least one byte, and that byte must be
    // a digit — so a document without digits can be answered by one
    // SWAR scan.
    let analysis = PrefilterAnalysis::analyze(&EVsa::from_vsa(&p));
    println!("pattern:          {pattern}");
    println!("min match length: {}", analysis.min_len);
    println!("required prefix:  {:?}", analysis.prefix);
    println!("required bytes:   {:?}", analysis.required);
    assert!(!analysis.is_trivial(), "digits are required");

    // Certification is unchanged: the extractor is sentence-local.
    let s = splitters::sentences();
    assert!(self_splittable(&p, &s).unwrap().holds());

    // A sparse corpus: ~1 sentence in 64 carries a number.
    let cfg = CorpusConfig {
        target_bytes: 1 << 20,
        seed: 0x5CA7,
        ..Default::default()
    };
    let shards = 8;
    let docs = textgen::sparse_number_shards(shards, &cfg, 64);
    let refs: Vec<&[u8]> = docs.iter().map(Vec::as_slice).collect();
    let total: usize = refs.iter().map(|d| d.len()).sum();

    let mut results = Vec::new();
    for engine in [Engine::Dense, Engine::Prefilter] {
        let opts = CompileOptions::new().engine(engine);
        let runner =
            RunnerOptions::new().corpus_runner(opts.compile_spanner(&p), opts.compile_splitter(&s));
        let t0 = Instant::now();
        let out = runner.run_slices(&refs);
        let wall = t0.elapsed();
        println!(
            "\n{:<9} {:>8.2} ms  ({:.1} MiB/s)",
            engine.name(),
            wall.as_secs_f64() * 1e3,
            total as f64 / (1 << 20) as f64 / wall.as_secs_f64(),
        );
        if engine == Engine::Prefilter {
            let pf = out.stats.prefilter;
            println!(
                "          {} of {} segments were candidates ({} false); \
                 {} of {total} bytes skipped ({:.1}%)",
                pf.candidates,
                out.stats.segments,
                pf.false_candidates,
                pf.bytes_skipped,
                100.0 * pf.bytes_skipped as f64 / total as f64,
            );
        }
        results.push(out.relations);
    }
    assert_eq!(results[0], results[1], "engines agree tuple for tuple");
    let tuples: usize = results[0].iter().map(|r| r.len()).sum();
    println!("\nboth engines extracted the same {tuples} tuples");
}
