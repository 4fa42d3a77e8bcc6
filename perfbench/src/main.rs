//! The repository benchmark: four workloads over the extraction stack,
//! end-to-end metrics untraced, per-layer metrics in a traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <batch-sparse|batch-dense|serve-inline|serve-edit> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from `--seed` inside the benchmark; the program
//! under test only ever sees the generated bytes. Each run prints a host
//! fingerprint, one line per metric (name, value, unit, samples), the
//! failed/attempted operations, and, as its last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! JSON metrics are [`END_TO_END`]; with `--trace 1` they are
//! [`PER_LAYER`], and the spans are written to `perfbench/traces/`.
//! Both lists hold only metrics that every workload measures; the
//! metrics a single workload adds are printed as lines only. The
//! process exits 1 when an output disagrees with the independent
//! reference and 2 on a usage error.

mod batch;
mod host;
mod reference;
mod serve;
mod stats;
mod trace;

use stats::Tally;
use std::path::PathBuf;
use std::time::Duration;

/// Command-line arguments.
#[derive(Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measuring window.
    pub seconds: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Args {
    /// Where the traced run writes its spans.
    pub fn trace_path(&self) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.jsonl", self.workload, self.seed))
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples the value summarizes.
    pub samples: usize,
}

impl Metric {
    /// A metric summarizing `samples` measurements.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// The end-to-end metrics of the JSON line (`--trace 0`), in the order
/// of `BENCHMARK.json`. An operation is one runner pass over the whole
/// corpus (batch), one `/extract` request (serve-inline), or one cycle
/// of a delta and its re-query (serve-edit).
pub const END_TO_END: [&str; 4] = ["setup_s", "peak_rss_mb", "ops_per_s", "op_p50_ms"];

/// The per-layer metrics of the JSON line (`--trace 1`), in the order of
/// `BENCHMARK.json`: the tracing overhead of each end-to-end metric, and
/// the layers every workload goes through.
pub const PER_LAYER: [&str; 8] = [
    "trace_overhead.setup_s",
    "trace_overhead.peak_rss_mb",
    "trace_overhead.ops_per_s",
    "trace_overhead.op_p50_ms",
    "compile_ms",
    "split_mb_per_s",
    "eval_mb_per_s",
    "op_self_ms",
];

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Every measured metric; those named in [`END_TO_END`] or
    /// [`PER_LAYER`] also go on the JSON line.
    pub metrics: Vec<Metric>,
    /// Printed for reading only: in the traced run, the end-to-end
    /// values measured with and without tracing.
    pub notes: Vec<Metric>,
    /// Operations attempted and failed.
    pub tally: Tally,
}

impl Report {
    /// Adds the tracing overhead of each end-to-end metric measured
    /// both untraced and traced, and keeps both values for reading.
    pub fn overheads(&mut self, untraced: &[Metric], traced: &[Metric]) {
        for u in untraced {
            let Some(t) = traced.iter().find(|t| t.name == u.name) else {
                continue;
            };
            self.metrics.push(Metric::new(
                format!("trace_overhead.{}", u.name),
                t.value - u.value,
                u.unit,
                u.samples.min(t.samples),
            ));
            self.notes.push(Metric::new(
                format!("untraced.{}", u.name),
                u.value,
                u.unit,
                u.samples,
            ));
            self.notes.push(Metric::new(
                format!("traced.{}", t.name),
                t.value,
                t.unit,
                t.samples,
            ));
        }
    }
}

/// The workloads `--workload` accepts.
const WORKLOADS: [&str; 4] = ["batch-sparse", "batch-dense", "serve-inline", "serve-edit"];

const USAGE: &str =
    "usage: perfbench --workload <batch-sparse|batch-dense|serve-inline|serve-edit> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}"));
                }
                workload = Some(value)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of (0, 600]"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The metrics named in `names`, in that order. Panics when the
/// workload did not measure one of them: the JSON line must hold them
/// all.
fn select<'a>(metrics: &'a [Metric], names: &[&str]) -> Vec<&'a Metric> {
    names
        .iter()
        .map(|&n| {
            metrics
                .iter()
                .find(|m| m.name == n)
                .unwrap_or_else(|| panic!("the workload did not measure {n}"))
        })
        .collect()
}

fn json_line(report: &Report, names: &[&str], correct: bool) -> String {
    let metrics: Vec<String> = select(&report.metrics, names)
        .into_iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.attempted,
        report.tally.failed(),
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let host = host::fingerprint();
    println!(
        "host: nproc={} rustc=\"{}\" calibration_ms={:.3} calibration_utf8_ms={:.3}",
        host.nproc, host.rustc, host.calibration_ms, host.calibration_utf8_ms
    );
    println!(
        "seed={} seconds={} trace={}",
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace)
    );
    println!("workload={}", args.workload);
    let report = match args.workload.as_str() {
        "batch-sparse" => batch::sparse(&args),
        "batch-dense" => batch::dense(&args),
        "serve-inline" => serve::inline(&args),
        _ => serve::edit(&args),
    };
    for m in report.notes.iter().chain(&report.metrics) {
        println!(
            "  {:<36} {:>14.4} {:<8} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let t = &report.tally;
    println!(
        "  operations: {} failed / {} attempted (status {}, transport {}, mismatch {})",
        t.failed(),
        t.attempted,
        t.bad_status,
        t.transport,
        t.mismatched
    );
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", json_line(&report, names, t.mismatched == 0));
    if t.mismatched != 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitc_server::Json;

    /// The metric names of one list of `BENCHMARK.json`.
    fn manifest(list: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let json = Json::parse(&text).expect("BENCHMARK.json is JSON");
        json.get(list)
            .and_then(Json::as_arr)
            .expect("a metric list")
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).expect("name").into())
            .collect()
    }

    #[test]
    fn json_lists_match_the_manifest() {
        assert_eq!(manifest("end_to_end"), END_TO_END);
        assert_eq!(manifest("per_layer"), PER_LAYER);
    }

    #[test]
    fn json_line_holds_the_named_metrics_in_order() {
        let mut report = Report::default();
        for (name, value) in [("b", 2.0), ("extra", 9.0), ("a", 1.5)] {
            report.metrics.push(Metric::new(name, value, "ms", 3));
        }
        report.tally.record(stats::Outcome::Ok);
        assert_eq!(
            json_line(&report, &["a", "b"], true),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "did not measure c")]
    fn json_line_refuses_a_missing_metric() {
        json_line(&Report::default(), &["c"], true);
    }
}
