//! Experiment harness: shared machinery for the `e*`/`t*` binaries that
//! regenerate every empirical claim of the paper (see the top-level
//! `README.md`, "Experiment binaries", for the experiment index).

use std::time::{Duration, Instant};

pub mod families;
pub mod simulate;

/// The evaluation engine selected for this run: `--engine {nfa,dense}`
/// on the command line (also accepted as `--engine=...`), else the
/// `SC_ENGINE` environment variable, else the default ([`splitc_exec::Engine::Dense`]).
///
/// Panics with a usage message on an unknown engine name, so CI fails
/// loudly instead of silently benchmarking the wrong thing.
pub fn engine_arg() -> splitc_exec::Engine {
    let mut args = std::env::args().skip(1);
    let mut chosen: Option<String> = None;
    while let Some(a) = args.next() {
        if a == "--engine" {
            chosen = Some(
                args.next()
                    .expect("--engine requires a value: --engine {nfa,dense}"),
            );
        } else if let Some(v) = a.strip_prefix("--engine=") {
            chosen = Some(v.to_string());
        }
    }
    let chosen = chosen.or_else(|| std::env::var("SC_ENGINE").ok());
    match chosen {
        None => splitc_exec::Engine::default(),
        Some(v) => v
            .parse()
            .unwrap_or_else(|e| panic!("--engine: {e}; usage: --engine {{nfa,dense}}")),
    }
}

/// Emits one machine-readable benchmark result row on stdout.
///
/// The line format is `BENCH {json}` with the stable schema
/// `{"bench", "engine", "bytes", "scale", "wall_ms", "tuples"}`; the CI
/// `bench-smoke` job greps these lines into the `BENCH_pr.json`
/// artifact (JSON-lines, one row per line). `bytes` and `tuples` are 0
/// for benchmarks where they do not apply (e.g. decision-procedure
/// scaling rows). `scale` is the row's *problem-size parameter* — the
/// needle `k` of a scaling family, the N of an N-gram workload, a
/// document count — so tooling can gate on "the largest scale point"
/// without parsing bench-name suffixes (t-series rows used to carry
/// only `bytes: 0`, leaving gates to positional name assumptions).
pub fn bench_json(
    bench: &str,
    engine: &str,
    bytes: usize,
    scale: f64,
    wall: Duration,
    tuples: usize,
) {
    debug_assert!(
        !bench.contains('"') && !engine.contains('"'),
        "bench/engine labels must not need JSON escaping"
    );
    println!(
        "BENCH {{\"bench\":\"{bench}\",\"engine\":\"{engine}\",\"bytes\":{bytes},\"scale\":{scale},\"wall_ms\":{:.3},\"tuples\":{tuples}}}",
        wall.as_secs_f64() * 1e3
    );
}

/// Times a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Times a closure over several iterations, returning the minimum
/// duration (robust against scheduler noise).
pub fn time_best<T>(iters: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    assert!(iters >= 1);
    let mut best = Duration::MAX;
    let mut out = None;
    for _ in 0..iters {
        let t0 = Instant::now();
        out = Some(f());
        best = best.min(t0.elapsed());
    }
    (out.expect("at least one iteration"), best)
}

/// Scale factor for corpus sizes, settable via `SC_SCALE` (default 1.0,
/// the scale the experiment binaries' reference numbers assume).
pub fn scale() -> f64 {
    std::env::var("SC_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0)
}

/// Scales a byte count by [`scale`].
pub fn scaled(bytes: usize) -> usize {
    ((bytes as f64) * scale()) as usize
}

/// A plain-text results table, printed in a stable, grep-friendly
/// format suitable for recording experiment results verbatim.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells.to_vec());
    }

    /// Prints the table.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        println!("\n== {} ==", self.title);
        let fmt_row = |cells: &[String]| {
            let mut line = String::from("| ");
            for (i, c) in cells.iter().enumerate() {
                line.push_str(&format!("{:<w$} | ", c, w = widths[i]));
            }
            line
        };
        println!("{}", fmt_row(&self.headers));
        println!(
            "|{}|",
            widths
                .iter()
                .map(|w| "-".repeat(w + 2))
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            println!("{}", fmt_row(row));
        }
    }
}

/// Formats a duration in milliseconds with 2 decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Formats a speedup factor.
pub fn x(f: f64) -> String {
    format!("{f:.2}x")
}
