//! The batch workloads: in-process runners on the streaming path.
//!
//! * `batch-sparse` — a 64-member keyword fleet under `Engine::Prefilter`
//!   through `FleetRunner`, over keyword shards that mention a keyword
//!   once every 16 sentences. The streaming splitter and the fleet's
//!   shared scan, gates and skip loop do the work; forward enumeration
//!   almost never runs.
//! * `batch-dense` — `ngram_extractor(2)` on the AOT tier through
//!   `CorpusRunner`, over wiki shards: enumeration, the AOT table walk
//!   and the relation merge do the work; there is no required literal,
//!   so no scan runs.
//!
//! One operation is one pass of the runner over the whole corpus; its
//! output is checked against [`crate::reference`] after the pass, outside
//! its timed interval.

use crate::host::Baseline;
use crate::reference::{bigrams, keyword_mentions, spans_of, Spans};
use crate::stats::{median, setup_times, Outcome, Tally};
use crate::trace::{write_trace, SpanRecord, Tracer};
use crate::{Args, Metric, Report};

use splitc_exec::{
    CorpusResult, CorpusRunner, CorpusRunnerConfig, Engine, ExecSpanner, Fleet, FleetResult,
    FleetRunner, FleetStats, Segment, StreamingSplitter,
};
use splitc_spanner::splitter::{self, CompiledSplitter};
use splitc_textgen::{keyword_corpus_shards, spanners, wiki_corpus, CorpusConfig};

use std::sync::Arc;
use std::time::{Duration, Instant};

/// Evaluation workers of both runners (the host has two cores).
const WORKERS: usize = 2;
/// Set-ups before the window; one more follows every pass, and
/// `setup_s` is the median of all. Set-up takes milliseconds, so many
/// are cheap, and spreading them over the window makes them sample the
/// host as the passes do.
const SETUPS: usize = 11;

/// batch-sparse: 16 shards of 2 MiB, 64 fleet members, a keyword
/// mention once every 16 sentences.
const SPARSE_SHARDS: usize = 16;
const SPARSE_SHARD_BYTES: usize = 2 << 20;
const FLEET: usize = 64;
const NEEDLE_EVERY: usize = 16;

/// batch-dense: 8 shards of 2 MiB of wiki text (about 2.4 M bigrams).
const DENSE_SHARDS: usize = 8;
const DENSE_SHARD_BYTES: usize = 2 << 20;

fn runner_config() -> CorpusRunnerConfig {
    CorpusRunnerConfig {
        workers: WORKERS,
        ..CorpusRunnerConfig::default()
    }
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

/// Feeds documents to a runner as 64 KiB chunks, the way a reader
/// streaming files would.
fn chunked(docs: &[Vec<u8>]) -> impl Iterator<Item = std::slice::Chunks<'_, u8>> {
    let chunk = runner_config().chunk_bytes;
    docs.iter().map(move |d| d.chunks(chunk))
}

/// The split a runner performs, done alone: per-document segments.
fn split_all(splitter: &CompiledSplitter, docs: &[Vec<u8>]) -> Vec<Vec<Segment>> {
    let chunk = runner_config().chunk_bytes;
    docs.iter()
        .map(|d| {
            let mut s = StreamingSplitter::new(splitter);
            let mut segs = Vec::new();
            for c in d.chunks(chunk) {
                segs.extend(s.push(c));
            }
            segs.extend(s.finish());
            segs
        })
        .collect()
}

/// What one traced pass measured beside the runner itself.
struct ProbePass {
    run: SpanRecord,
    split: SpanRecord,
    segments: usize,
    segment_bytes: u64,
    /// Single-threaded evaluation of every segment.
    eval_ms: f64,
    tuples: u64,
}

impl ProbePass {
    /// The part of the pass's wall time its busiest stage does not
    /// explain: the runner's batching, queueing, merge and pipeline fill
    /// and drain. The producer splits while `WORKERS` threads evaluate,
    /// so the busiest stage takes `max(split, eval / WORKERS)`.
    fn runner_self_ms(&self) -> f64 {
        self.run.ms() - self.split.ms().max(self.eval_ms / WORKERS as f64)
    }

    fn eval_mb_per_s(&self) -> f64 {
        mb(self.segment_bytes) / (self.eval_ms / 1e3)
    }
}

/// Runs passes for `window` (at least one); each returns its output and
/// its timed interval, and is checked afterwards. Returns per-pass
/// throughput in MB/s.
fn measure<R>(
    window: Duration,
    bytes: u64,
    tally: &mut Tally,
    mut pass: impl FnMut(u64) -> (R, Duration),
    check: &dyn Fn(&R) -> bool,
) -> Vec<f64> {
    let start = Instant::now();
    let mut rates = Vec::new();
    let mut i = 0;
    while rates.is_empty() || start.elapsed() < window {
        let (out, t) = pass(i);
        i += 1;
        tally.record(Outcome::Ok);
        if !check(&out) {
            tally.mismatch();
        }
        rates.push(mb(bytes) / t.as_secs_f64());
    }
    let shown: Vec<String> = rates.iter().map(|r| format!("{r:.1}")).collect();
    println!("  passes (MB/s): {}", shown.join(" "));
    rates
}

/// The end-to-end metrics every batch run reports, given the per-pass
/// throughput over `bytes` of documents.
fn e2e(setup_s: f64, setups: usize, baseline: Baseline, bytes: u64, rates: &[f64]) -> Vec<Metric> {
    let rate = median(rates);
    let n = rates.len();
    vec![
        Metric::new("setup_s", setup_s, "s", setups),
        Metric::new("peak_rss_mb", baseline.peak_above_mb(), "MiB", 1),
        Metric::new("ops_per_s", rate / mb(bytes), "1/s", n),
        Metric::new("op_p50_ms", 1e3 * mb(bytes) / rate, "ms", n),
        Metric::new("extract_mb_per_s", rate, "MB/s", n),
    ]
}

/// Span names of a batch workload: its set-up, its runner call, and
/// its evaluation timed alone.
struct Names {
    setup: &'static str,
    run: &'static str,
    eval: &'static str,
}

/// Measures a batch workload. Untraced: set-up, a warm-up pass, then
/// passes for `--seconds`. Traced, after that: passes for another
/// `--seconds` with the runner call under a span, each followed by the
/// split and the evaluation (`eval`: one segment, returns its tuples)
/// timed alone; `keep` sees each traced pass's output. Returns the
/// report and the traced passes.
#[allow(clippy::too_many_arguments)]
fn run_batch<S, R>(
    args: &Args,
    docs: &[Vec<u8>],
    setup: fn() -> S,
    pass: impl Fn(&S, &[Vec<u8>]) -> R,
    check: &dyn Fn(&R) -> bool,
    names: Names,
    eval: impl Fn(&S, &[u8]) -> u64,
    mut keep: impl FnMut(&R),
) -> (Report, Vec<ProbePass>) {
    let bytes: u64 = docs.iter().map(|d| d.len() as u64).sum();
    // Inputs and references exist by now; what the process gains from
    // here on is the program's.
    let baseline = Baseline::now();
    let set_up = || (setup(), Duration::ZERO);
    let (mut setups, system) = setup_times(SETUPS, set_up);
    let mut report = Report::default();
    // Warm-up pass: lazy DFA states and allocator pools fill here.
    let _ = pass(&system, docs);
    let timed = |_| {
        let t = Instant::now();
        let out = pass(&system, docs);
        let elapsed = t.elapsed();
        setups.extend(setup_times(1, set_up).0);
        (out, elapsed)
    };
    let rates = measure(args.seconds, bytes, &mut report.tally, timed, check);
    let untraced = e2e(median(&setups), setups.len(), baseline, bytes, &rates);
    if !args.trace {
        report.metrics = untraced;
        return (report, Vec::new());
    }

    let tracer = Tracer::default();
    let compiles: Vec<f64> = (0..SETUPS)
        .map(|_| tracer.time(names.setup, None, 0, setup).1.ms())
        .collect();
    let traced_setup = median(&compiles) / 1e3;
    let splitter = splitter::sentences().compile();
    let mut probes = Vec::new();
    let traced_pass = |i| {
        let root = tracer.open("pass", None, i);
        let (out, run) = tracer.time(names.run, Some(root.id()), i, || pass(&system, docs));
        let (segs, split) = tracer.time("stream.split", Some(root.id()), i, || {
            split_all(&splitter, docs)
        });
        let mut eval_ms = 0.0;
        let mut tuples = 0;
        for doc in &segs {
            let (n, span) = tracer.time(names.eval, Some(root.id()), i, || {
                doc.iter().map(|s| eval(&system, &s.bytes)).sum::<u64>()
            });
            eval_ms += span.ms();
            tuples += n;
        }
        tracer.close(root);
        keep(&out);
        let elapsed = Duration::from_nanos(run.end - run.start);
        probes.push(ProbePass {
            run,
            split,
            segments: segs.iter().map(Vec::len).sum(),
            segment_bytes: segs.iter().flatten().map(|s| s.bytes.len() as u64).sum(),
            eval_ms,
            tuples,
        });
        (out, elapsed)
    };
    let rates = measure(args.seconds, bytes, &mut report.tally, traced_pass, check);
    report.overheads(
        &untraced,
        &e2e(traced_setup, compiles.len(), baseline, bytes, &rates),
    );

    let n = probes.len();
    let per_pass =
        |f: &dyn Fn(&ProbePass) -> f64| median(&probes.iter().map(f).collect::<Vec<_>>());
    let layer = names.run.trim_end_matches(".run");
    let m = &mut report.metrics;
    m.push(Metric::new(
        "compile_ms",
        median(&compiles),
        "ms",
        compiles.len(),
    ));
    m.push(Metric::new(
        format!("{layer}.run_ms"),
        per_pass(&|p| p.run.ms()),
        "ms",
        n,
    ));
    m.push(Metric::new(
        "op_self_ms",
        per_pass(&ProbePass::runner_self_ms),
        "ms",
        n,
    ));
    m.push(Metric::new(
        "split_mb_per_s",
        per_pass(&|p| mb(bytes) / (p.split.ms() / 1e3)),
        "MB/s",
        n,
    ));
    m.push(Metric::new(
        "stream.segments",
        probes[0].segments as f64,
        "count",
        n,
    ));
    m.push(Metric::new(
        "eval_mb_per_s",
        per_pass(&ProbePass::eval_mb_per_s),
        "MB/s",
        n,
    ));
    write_trace(&args.trace_path(), &tracer);
    (report, probes)
}

fn sparse_docs(seed: u64) -> Vec<Vec<u8>> {
    keyword_corpus_shards(
        SPARSE_SHARDS,
        &CorpusConfig {
            target_bytes: SPARSE_SHARD_BYTES,
            seed,
            ..CorpusConfig::default()
        },
        FLEET,
        NEEDLE_EVERY,
    )
}

fn sparse_setup() -> FleetRunner {
    let fleet = Fleet::compile(&spanners::keyword_fleet(FLEET), Engine::Prefilter);
    FleetRunner::new(
        Arc::new(fleet),
        splitter::sentences().compile(),
        runner_config(),
    )
}

/// `batch-sparse`.
pub fn sparse(args: &Args) -> Report {
    let docs = sparse_docs(args.seed);
    let reference: Vec<Vec<Spans>> = docs.iter().map(|d| keyword_mentions(d, FLEET)).collect();
    let check = |r: &FleetResult| {
        r.relations.len() == reference.len()
            && r.relations.iter().zip(&reference).all(|(got, want)| {
                got.len() == want.len() && got.iter().zip(want).all(|(g, w)| spans_of(g) == *w)
            })
    };
    let mut stats: Option<FleetStats> = None;
    let (mut report, probes) = run_batch(
        args,
        &docs,
        sparse_setup,
        |runner: &FleetRunner, docs| runner.run_streams(chunked(docs)),
        &check,
        Names {
            setup: "fleet.compile",
            run: "fleet.run",
            eval: "fleet.eval",
        },
        |runner, seg| {
            runner
                .fleet()
                .eval(seg)
                .iter()
                .map(|r| r.len() as u64)
                .sum()
        },
        |out| {
            stats.get_or_insert_with(|| out.stats.clone());
        },
    );
    if let Some(s) = stats {
        let n = probes.len();
        for (name, value, unit) in [
            ("fleet.fan_out", s.fan_out(), "members/segment"),
            (
                "fleet.shared_scan_bytes",
                s.shared_scan_bytes as f64,
                "bytes",
            ),
            ("fleet.dispatches", s.dispatches as f64, "count"),
            ("fleet.gate_rejected", s.gate_rejected as f64, "count"),
            ("fleet.scan_rejected", s.scan_rejected as f64, "count"),
            ("dense.cache_hit_rate", s.cache.hit_rate(), "ratio"),
            (
                "prefilter.bytes_skipped",
                s.prefilter.bytes_skipped as f64,
                "bytes",
            ),
            (
                "prefilter.false_candidate_rate",
                s.prefilter.false_candidates as f64 / s.prefilter.candidates.max(1) as f64,
                "ratio",
            ),
        ] {
            report.metrics.push(Metric::new(name, value, unit, n));
        }
    }
    report
}

fn dense_docs(seed: u64) -> Vec<Vec<u8>> {
    (0..DENSE_SHARDS as u64)
        .map(|i| {
            wiki_corpus(&CorpusConfig {
                target_bytes: DENSE_SHARD_BYTES,
                seed: seed.wrapping_mul(DENSE_SHARDS as u64).wrapping_add(i),
                ..CorpusConfig::default()
            })
        })
        .collect()
}

fn dense_setup() -> CorpusRunner {
    CorpusRunner::new(
        bigram_spanner(),
        splitter::sentences().compile(),
        runner_config(),
    )
}

fn bigram_spanner() -> ExecSpanner {
    let spanner = ExecSpanner::compile_with(&spanners::ngram_extractor(2), Engine::Aot);
    assert_eq!(
        spanner.tier(),
        Engine::Aot,
        "ngram_extractor(2) fits the AOT state budget"
    );
    spanner
}

/// `batch-dense`.
pub fn dense(args: &Args) -> Report {
    let docs = dense_docs(args.seed);
    let reference: Vec<Spans> = docs.iter().map(|d| bigrams(d)).collect();
    let check = |r: &CorpusResult| {
        r.relations.len() == reference.len()
            && r.relations
                .iter()
                .zip(&reference)
                .all(|(g, w)| spans_of(g) == *w)
    };
    // The runner keeps its spanner private; evaluation alone uses an
    // identical compilation.
    let spanner = bigram_spanner();
    let (mut report, probes) = run_batch(
        args,
        &docs,
        dense_setup,
        |runner: &CorpusRunner, docs| runner.run_streams(chunked(docs)),
        &check,
        Names {
            setup: "engine.compile",
            run: "corpus.run",
            eval: "engine.eval",
        },
        |_, seg| spanner.eval(seg).len() as u64,
        |_| {},
    );
    if !probes.is_empty() {
        let rates: Vec<f64> = probes
            .iter()
            .map(|p| p.tuples as f64 / (p.eval_ms / 1e3))
            .collect();
        report.metrics.push(Metric::new(
            "engine.tuples_per_s",
            median(&rates),
            "1/s",
            probes.len(),
        ));
    }
    report
}
