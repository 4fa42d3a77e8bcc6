//! E9 — AOT table tier vs the lazy dense engine on the e1–e4
//! hot loops.
//!
//! The four extraction workloads of the paper-reproduction experiments
//! (Wikipedia N-grams, PubMed N-grams, Reuters transactions, Amazon
//! review sentiment) are replayed single-threaded under two engines:
//! the PR 6 lazy dense engine (on-the-fly DFA cache) and the AOT tier
//! (fully determinized backward viability DFA, premultiplied `u16`
//! table). Emits one `BENCH` row per (workload, engine); the
//! `--gate aot:<ratio>` check in `scripts/bench_check.py` compares the
//! pairs and requires the AOT tier to win on at least two workloads.
//!
//! Both engines are differentially checked against each other on every
//! corpus before timing, so a row can never report a fast-but-wrong
//! engine. The `--engine` flag is accepted-and-ignored for smoke-runner
//! uniformity (both engines are always run).

use splitc_bench::{bench_json, engine_arg, ms, scale, scaled, time_best, x, Table};
use splitc_exec::{Engine, ExecSpanner};
use splitc_spanner::vsa::Vsa;
use splitc_textgen::{
    articles_corpus, pubmed_corpus, reviews_corpus, spanners, wiki_corpus, CorpusConfig,
};

/// One replayed workload: a formal extractor and the documents of its
/// original experiment (single-document corpora are one-element lists).
struct Workload {
    name: &'static str,
    what: &'static str,
    vsa: Vsa,
    docs: Vec<Vec<u8>>,
}

fn workloads() -> Vec<Workload> {
    let wiki = wiki_corpus(&CorpusConfig {
        target_bytes: scaled(4 << 20),
        ..Default::default()
    });
    vec![
        Workload {
            name: "e1",
            what: "wiki 2-grams",
            vsa: spanners::ngram_extractor(2),
            docs: vec![wiki],
        },
        Workload {
            name: "e2",
            what: "pubmed 3-grams",
            vsa: spanners::ngram_extractor(3),
            docs: vec![pubmed_corpus(scaled(4 << 20), 0xBEEF)],
        },
        Workload {
            name: "e3",
            what: "reuters transactions",
            vsa: spanners::transaction_extractor(),
            docs: articles_corpus(scaled(4096).max(8), 0x5EED),
        },
        Workload {
            name: "e4",
            what: "review sentiment",
            vsa: spanners::negative_sentiment_targets(),
            docs: reviews_corpus(scaled(16384).max(8), 0xF00D),
        },
    ]
}

fn main() {
    // Accepted for smoke-runner uniformity; both engines always run.
    let _ = engine_arg();
    println!("E9: AOT table tier vs lazy dense on the e1-e4 hot loops");

    let mut table = Table::new(
        "E9 — AOT vs lazy dense (single-threaded full-corpus evaluation)",
        &[
            "workload",
            "bytes",
            "tuples",
            "dense ms",
            "aot ms",
            "aot speedup",
        ],
    );
    for w in workloads() {
        let bytes: usize = w.docs.iter().map(Vec::len).sum();
        let dense = ExecSpanner::compile_with(&w.vsa, Engine::Dense);
        let aot = ExecSpanner::compile_with(&w.vsa, Engine::Aot);
        assert_eq!(
            aot.tier(),
            Engine::Aot,
            "{}: workload automaton exceeds the AOT state budget",
            w.name
        );
        // Differential check before timing: byte-identical relations on
        // every document of the corpus.
        for doc in &w.docs {
            assert_eq!(
                dense.eval(doc),
                aot.eval(doc),
                "{}: engines diverge",
                w.name
            );
        }
        let eval_all = |spanner: &ExecSpanner| -> usize {
            w.docs.iter().map(|doc| spanner.eval(doc).len()).sum()
        };
        let (tuples, dense_wall) = time_best(3, || eval_all(&dense));
        let (_, aot_wall) = time_best(3, || eval_all(&aot));
        for (engine, wall) in [("dense", dense_wall), ("aot", aot_wall)] {
            bench_json(
                &format!("e9_aot/{}", w.name),
                engine,
                bytes,
                scale(),
                wall,
                tuples,
            );
        }
        table.row(&[
            format!("{} ({})", w.name, w.what),
            bytes.to_string(),
            tuples.to_string(),
            ms(dense_wall),
            ms(aot_wall),
            x(dense_wall.as_secs_f64() / aot_wall.as_secs_f64().max(1e-12)),
        ]);
    }
    table.print();
    println!(
        "\nShape check: the premultiplied AOT tables beat the lazy dense\n\
         cache on match-sparse scanning loops (the gate requires a win on\n\
         at least two of the four workloads, not on every shape)."
    );
}
