//! Fleet extraction: a whole rule catalog in one fused pass.
//!
//! Production extraction rarely runs one rule — a catalog of tens to
//! hundreds of extractors is evaluated over the same corpus, and
//! running one streaming pass per rule re-reads, re-splits, and
//! re-scans everything once per rule. This example shows the fleet
//! engine fusing a keyword-mention catalog into a single pass:
//!
//! 1. build the catalog and certify a member split-correct by
//!    sentences, as always;
//! 2. compile a `Fleet`: one shared byte partition across all members,
//!    and every member's literal evidence merged into one multi-needle
//!    scanner;
//! 3. run a synthetic keyword corpus through the streaming
//!    `FleetRunner`, compare wall clock against sequential per-member
//!    `CorpusRunner` passes, and read the `RunStats` that explain the
//!    gap — one shared scan decides which members see each segment, so
//!    dispatch fan-out stays near the per-sentence mention rate instead
//!    of the catalog size.
//!
//! Run with: `cargo run --release --example fleet_extraction`

use split_correctness::prelude::*;
use split_correctness::textgen::{self, spanners, CorpusConfig};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // A 24-rule catalog: member `i` extracts `<keyword_i><digits>`
    // mention tokens (keywords `qaa`, `qab`, ... — disjoint literals).
    let n = 24;
    let catalog = spanners::keyword_fleet(n);

    // Certification is per member and unchanged by fusion: each
    // extractor is sentence-local, so per-sentence evaluation is exact.
    let s = splitters::sentences();
    assert!(self_splittable(&catalog[0], &s).unwrap().holds());

    // One compilation for the whole catalog. The fleet shares one byte
    // partition (coarsest common refinement of every member's
    // transition masks) and enrolls each member's required literal in
    // one Aho-Corasick scanner over SWAR byte finders.
    let opts = CompileOptions::new().engine(Engine::Prefilter);
    let fleet = Arc::new(opts.compile_fleet(&catalog));
    println!(
        "fleet: {} members, {} shared needles",
        n,
        fleet.num_needles()
    );

    // A corpus where each sentence mentions one uniformly-chosen
    // keyword with probability 1/8 — match-sparse per member.
    let cfg = CorpusConfig {
        target_bytes: 1 << 20,
        seed: 0xF1EE7,
        ..Default::default()
    };
    let docs = textgen::keyword_corpus_shards(8, &cfg, n, 8);
    let refs: Vec<&[u8]> = docs.iter().map(Vec::as_slice).collect();
    let total: usize = refs.iter().map(|d| d.len()).sum();
    println!(
        "corpus: {} shards, {:.1} MiB\n",
        refs.len(),
        total as f64 / (1 << 20) as f64
    );

    // Fused: one streamed split pass, one shared scan per segment.
    let runner = RunnerOptions::new().fleet_runner(fleet.clone(), opts.compile_splitter(&s));
    let t0 = Instant::now();
    let fused = runner.run_slices(&refs);
    let fused_wall = t0.elapsed();

    // Sequential: one full streaming pass per catalog member.
    let members: Vec<ExecSpanner> = catalog.iter().map(|v| opts.compile_spanner(v)).collect();
    let t0 = Instant::now();
    let sequential: Vec<RunResult<SpanRelation>> = members
        .iter()
        .map(|m| {
            RunnerOptions::new()
                .corpus_runner(m.clone(), opts.compile_splitter(&s))
                .run_slices(&refs)
        })
        .collect();
    let seq_wall = t0.elapsed();

    // Fusion is invisible in the results.
    for (mi, res) in sequential.iter().enumerate() {
        for (di, rel) in res.relations.iter().enumerate() {
            assert_eq!(&fused.relations[di][mi], rel, "doc {di} member {mi}");
        }
    }

    let st = &fused.stats;
    println!(
        "sequential: {:>8.1} ms   ({} passes over the corpus)",
        seq_wall.as_secs_f64() * 1e3,
        n
    );
    println!(
        "fused:      {:>8.1} ms   ({:.1}x)",
        fused_wall.as_secs_f64() * 1e3,
        seq_wall.as_secs_f64() / fused_wall.as_secs_f64().max(1e-9)
    );
    println!(
        "\n{} segments x {} members = {} pairs:",
        st.segments,
        n,
        st.segments * n
    );
    println!(
        "  {:>8} dispatched to an engine (fan-out {:.2})",
        st.dispatches,
        st.fan_out()
    );
    println!("  {:>8} rejected by cheap gates", st.gate_rejected);
    println!("  {:>8} rejected by the shared scan", st.scan_rejected);
    println!(
        "shared scan consumed {:.1} MiB (once), not {:.1} MiB ({} member passes)",
        st.shared_scan_bytes as f64 / (1 << 20) as f64,
        (st.segment_bytes * n as u64) as f64 / (1 << 20) as f64,
        n
    );
}
