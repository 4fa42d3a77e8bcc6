//! E2 — paper §1: the same split-then-distribute pipeline on 279 MB of
//! PubMed sentences gave a 1.9x speedup (5 cores).
//!
//! Reproduction: number-heavy PubMed-like corpus, 2-gram extraction,
//! simulated 5-worker pool (see E1 / `splitc_bench::simulate`).

use splitc_bench::simulate::simulate_split;
use splitc_bench::{bench_json, engine_arg, ms, scaled, time, time_best, x, Table};
use splitc_exec::{ExecSpanner, SplitFn};
use splitc_spanner::splitter::native;
use splitc_textgen::{pubmed_corpus, spanners};
use std::sync::Arc;

fn main() {
    let engine = engine_arg();
    let bytes = scaled(8 << 20);
    println!(
        "E2: N-gram extraction over a {:.1} MiB PubMed-like corpus (engine: {})",
        bytes as f64 / (1 << 20) as f64,
        engine.name()
    );
    let (doc, gen_t) = time(|| pubmed_corpus(bytes, 0xBEEF));
    println!(
        "corpus generated in {} ms ({} sentences)",
        ms(gen_t),
        native::sentences(&doc).len()
    );

    let p = spanners::ngram_extractor(2);
    let spanner = ExecSpanner::compile_with(&p, engine);
    let split: SplitFn = Arc::new(native::sentences);
    let report = simulate_split(&spanner, &split, &doc, &[1, 2, 5]);
    let (rel, seq_wall) = time_best(2, || spanner.eval(&doc));
    bench_json(
        "e2_pubmed_speedup/N=2",
        engine.name(),
        doc.len(),
        2.0,
        seq_wall,
        rel.len(),
    );

    let mut table = Table::new(
        "E2 — PubMed-like corpus, 2-gram extraction",
        &["workers", "makespan ms", "speedup", "paper"],
    );
    for (w, m) in &report.makespans {
        table.row(&[
            w.to_string(),
            ms(*m),
            x(report.speedup(*w)),
            if *w == 5 {
                "1.90x".into()
            } else {
                String::new()
            },
        ]);
    }
    table.print();
    println!(
        "sequential baseline: {} ms over {} tasks",
        ms(report.sequential),
        report.tasks
    );
}
