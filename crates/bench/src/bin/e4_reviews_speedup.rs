//! E4 — paper §1: extracting negative-sentiment targets from ~570,000
//! Amazon Fine Food reviews; sentence splitting gave a 4.16x speedup at
//! the same parallelism (5 nodes).
//!
//! Reproduction: synthetic review collection (scaled to 40,000 reviews
//! by default; scale with SC_SCALE), per-review vs per-sentence task
//! granularity on a simulated 5-worker pool.

use splitc_bench::simulate::simulate_collection;
use splitc_bench::{bench_json, engine_arg, ms, scale, time, x, Table};
use splitc_exec::{ExecSpanner, SplitFn};
use splitc_spanner::splitter::native;
use splitc_textgen::{reviews_corpus, spanners};
use std::sync::Arc;

fn main() {
    let engine = engine_arg();
    let n = (40_000.0 * scale()) as usize;
    println!(
        "E4: negative-sentiment targets over {n} review-like documents (engine: {})",
        engine.name()
    );
    let docs = reviews_corpus(n, 0xF00D);
    let refs: Vec<&[u8]> = docs.iter().map(Vec::as_slice).collect();

    let p = spanners::negative_sentiment_targets();
    let spanner = ExecSpanner::compile_with(&p, engine);
    let split: SplitFn = Arc::new(native::sentences);

    let (per_doc, per_chunk) = simulate_collection(&spanner, &split, &refs, &[5], 5);

    let (total, seq_wall) = time(|| -> usize { refs.iter().map(|d| spanner.eval(d).len()).sum() });
    bench_json(
        "e4_reviews_speedup",
        engine.name(),
        refs.iter().map(|d| d.len()).sum(),
        n as f64,
        seq_wall,
        total,
    );
    let base = per_doc.makespans[0].1;
    let fine = per_chunk.makespans[0].1;
    let mut table = Table::new(
        "E4 — task granularity on a 5-worker pool (reviews)",
        &[
            "granularity",
            "tasks",
            "makespan ms",
            "speedup vs per-review",
            "paper",
        ],
    );
    table.row(&[
        "per-review".into(),
        per_doc.tasks.to_string(),
        ms(base),
        x(1.0),
        String::new(),
    ]);
    table.row(&[
        "per-sentence".into(),
        per_chunk.tasks.to_string(),
        ms(fine),
        x(base.as_secs_f64() / fine.as_secs_f64().max(1e-12)),
        "4.16x".into(),
    ]);
    table.print();
    println!("{total} negative-sentiment targets extracted");

    // Scheduling-wave view (cf. E3b): a wave of 60 reviews on 5 workers.
    let wave: Vec<&[u8]> = refs.iter().take(60).copied().collect();
    let (per_doc, per_chunk) = simulate_collection(&spanner, &split, &wave, &[5], 5);
    let base = per_doc.makespans[0].1;
    let fine = per_chunk.makespans[0].1;
    let mut table = Table::new(
        "E4b — one scheduling wave (60 reviews) on 5 workers",
        &[
            "granularity",
            "tasks",
            "makespan ms",
            "speedup vs per-review",
            "paper",
        ],
    );
    table.row(&[
        "per-review".into(),
        per_doc.tasks.to_string(),
        ms(base),
        x(1.0),
        String::new(),
    ]);
    table.row(&[
        "per-sentence".into(),
        per_chunk.tasks.to_string(),
        ms(fine),
        x(base.as_secs_f64() / fine.as_secs_f64().max(1e-12)),
        "4.16x".into(),
    ]);
    table.print();
}
