//! E3 — paper §1: extracting financial transactions from ~9,000 Reuters
//! articles over Spark; breaking each article into sentences reduced the
//! running time 1.99x on a 5-node cluster *at the same parallelism* —
//! splitting provides the scheduler with more, smaller tasks.
//!
//! Reproduction: synthetic article collection, transaction extractor,
//! per-article vs per-sentence task granularity on a simulated 5-worker
//! pool.

use splitc_bench::simulate::simulate_collection;
use splitc_bench::{bench_json, engine_arg, ms, scale, time, x, Table};
use splitc_exec::{ExecSpanner, SplitFn};
use splitc_spanner::splitter::native;
use splitc_textgen::{articles_corpus, skewed_articles_corpus, spanners};
use std::sync::Arc;

fn main() {
    let engine = engine_arg();
    let n = (9000.0 * scale()) as usize;
    println!(
        "E3: transaction extraction over {n} Reuters-like articles (engine: {})",
        engine.name()
    );
    let docs = articles_corpus(n, 0x5EED);
    let refs: Vec<&[u8]> = docs.iter().map(Vec::as_slice).collect();

    let p = spanners::transaction_extractor();
    let spanner = ExecSpanner::compile_with(&p, engine);
    let split: SplitFn = Arc::new(native::sentences);

    let (per_doc, per_chunk) = simulate_collection(&spanner, &split, &refs, &[5], 5);

    let (total, seq_wall) = time(|| -> usize { refs.iter().map(|d| spanner.eval(d).len()).sum() });
    bench_json(
        "e3_reuters_speedup",
        engine.name(),
        refs.iter().map(|d| d.len()).sum(),
        n as f64,
        seq_wall,
        total,
    );
    let mut table = Table::new(
        "E3 — task granularity on a 5-worker pool (Reuters-like)",
        &[
            "granularity",
            "tasks",
            "makespan ms",
            "speedup vs per-article",
            "paper",
        ],
    );
    let base = per_doc.makespans[0].1;
    table.row(&[
        "per-article".into(),
        per_doc.tasks.to_string(),
        ms(base),
        x(1.0),
        String::new(),
    ]);
    let fine = per_chunk.makespans[0].1;
    table.row(&[
        "per-sentence".into(),
        per_chunk.tasks.to_string(),
        ms(fine),
        x(base.as_secs_f64() / fine.as_secs_f64().max(1e-12)),
        "1.99x".into(),
    ]);
    table.print();
    println!("{total} transactions extracted in total");

    // The paper attributes its 1.99x to Spark gaining "more control over
    // scheduling" from many small tasks. An idealized zero-overhead pool
    // over 9,000 uniform articles is already balanced (table above), so
    // the headline factor is a property of the real system, not of load
    // balance at that scale. The mechanism *is* visible in the idealized
    // model at scheduling-wave granularity: when the number of
    // in-flight coarse tasks is comparable to the pool size (Spark
    // schedules in waves of ~#cores tasks), long-article skew directly
    // hits the makespan and splitting repairs it.
    let docs = skewed_articles_corpus(60, 0x5EED0);
    let refs: Vec<&[u8]> = docs.iter().map(Vec::as_slice).collect();
    let (per_doc, per_chunk) = simulate_collection(&spanner, &split, &refs, &[5], 5);
    let base = per_doc.makespans[0].1;
    let fine = per_chunk.makespans[0].1;
    let mut table = Table::new(
        "E3b — one scheduling wave (60 skewed articles, 2% long) on 5 workers",
        &[
            "granularity",
            "tasks",
            "makespan ms",
            "speedup vs per-article",
            "paper",
        ],
    );
    table.row(&[
        "per-article".into(),
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
        "1.99x".into(),
    ]);
    table.print();
}
