//! Service metrics: per-endpoint latency histograms and aggregated
//! execution counters, all lock-cheap and rendered into `/stats` JSON.

use crate::json::Json;
use parking_lot::Mutex;
use splitc_exec::RunStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log2 buckets: bucket `i` counts latencies in
/// `[2^i, 2^(i+1))` microseconds; the last bucket is open-ended. 30
/// buckets reach ~17 minutes — everything beyond clips into the top
/// bucket.
const BUCKETS: usize = 30;

/// A fixed-size log2 latency histogram (microsecond resolution).
///
/// Recording is two relaxed atomic adds, so request threads never
/// contend; percentile queries walk the 30 buckets and return the upper
/// bound of the bucket holding the requested rank (an upward-biased
/// estimate, which is the conservative direction for latency SLOs).
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    total_us: AtomicU64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Records one observation.
    pub fn record(&self, elapsed: Duration) {
        let us = elapsed.as_micros().min(u64::MAX as u128) as u64;
        let bucket = (64 - us.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Upper bound of the bucket containing the `p`-th percentile
    /// observation (`p` in `[0, 100]`), in microseconds. 0 when empty.
    pub fn percentile_us(&self, p: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return upper_bound_us(i);
            }
        }
        upper_bound_us(BUCKETS - 1)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.total_us
            .load(Ordering::Relaxed)
            .checked_div(self.count())
            .unwrap_or(0)
    }

    /// Renders `{count, mean_us, p50_us, p99_us}`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::Num(self.count() as f64)),
            ("mean_us", Json::Num(self.mean_us() as f64)),
            ("p50_us", Json::Num(self.percentile_us(50.0) as f64)),
            ("p99_us", Json::Num(self.percentile_us(99.0) as f64)),
        ])
    }
}

/// Renders named counters as one JSON object, in order.
fn counters<const N: usize>(pairs: [(&str, u64); N]) -> Json {
    Json::obj(Vec::from(pairs.map(|(key, n)| (key, Json::Num(n as f64)))))
}

fn upper_bound_us(bucket: usize) -> u64 {
    if bucket >= BUCKETS - 1 {
        u64::MAX >> (64 - BUCKETS)
    } else {
        (1u64 << bucket).saturating_mul(2).saturating_sub(1).max(1)
    }
}

/// Everything `/stats` reports about request handling and execution,
/// owned by the server and shared with its connection handlers.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Latency per endpoint, in route order: register (spanner /
    /// splitter / fleet), certify, extract, stats.
    pub register_latency: LatencyHistogram,
    /// `/certify` latency.
    pub certify_latency: LatencyHistogram,
    /// `/extract` latency.
    pub extract_latency: LatencyHistogram,
    /// Corpus-resource endpoint latency (`PUT`/`GET`/`DELETE`
    /// `/corpus/{id}` and `POST /corpus/{id}/delta`).
    pub corpus_latency: LatencyHistogram,
    /// `/stats` latency.
    pub stats_latency: LatencyHistogram,
    /// Requests answered, by status class.
    pub responses_2xx: AtomicU64,
    /// 4xx responses (bad requests, unknown ids, 409s, 413s).
    pub responses_4xx: AtomicU64,
    /// 5xx responses.
    pub responses_5xx: AtomicU64,
    /// Connections refused with `429` at admission.
    pub rejected_429: AtomicU64,
    /// Aggregated execution counters across every `/extract`.
    pub exec: Mutex<ExecTotals>,
}

/// Cumulative execution counters folded in from each corpus/fleet run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ExecTotals {
    /// Corpus-runner extractions served.
    pub corpus_runs: u64,
    /// Fleet-runner extractions served.
    pub fleet_runs: u64,
    /// Every run's statistics, summed by [`RunStats::merge`] (with
    /// `candidates` left empty: member counts of different fleets do not
    /// add up).
    pub run: RunStats,
}

impl Metrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Classifies a response status into the 2xx/4xx/5xx counters.
    pub fn count_status(&self, status: u16) {
        let counter = match status {
            200..=299 => &self.responses_2xx,
            500..=599 => &self.responses_5xx,
            _ => &self.responses_4xx,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds one corpus (or, with `fleet`, fleet) run's statistics into
    /// the totals.
    pub fn record(&self, fleet: bool, stats: &RunStats) {
        let mut t = self.exec.lock();
        if fleet {
            t.fleet_runs += 1;
        } else {
            t.corpus_runs += 1;
        }
        t.run.merge(stats);
        t.run.candidates.clear();
    }

    /// Renders the request-side metrics (`/stats` assembles the full
    /// document around this).
    pub fn to_json(&self) -> Json {
        let responses = [
            ("ok_2xx", &self.responses_2xx),
            ("client_4xx", &self.responses_4xx),
            ("server_5xx", &self.responses_5xx),
            ("rejected_429", &self.rejected_429),
        ]
        .map(|(key, n)| (key, n.load(Ordering::Relaxed)));
        let exec = {
            let t = self.exec.lock();
            let r = &t.run;
            [
                ("corpus_runs", t.corpus_runs),
                ("fleet_runs", t.fleet_runs),
                ("docs", r.docs as u64),
                ("segments", r.segments as u64),
                ("segment_bytes", r.segment_bytes),
                ("batches", r.batches as u64),
                ("cache_hits", r.cache.hits),
                ("cache_misses", r.cache.misses),
                ("prefilter_bytes_skipped", r.prefilter.bytes_skipped),
                ("prefilter_candidates", r.prefilter.candidates),
                ("splitter_bytes_skipped", r.splitter_bytes_skipped),
                ("splitter_bytes_stitched", r.splitter_bytes_stitched),
                ("enum_frames", r.cache.enum_frames),
                ("fleet_dispatches", r.dispatches),
                ("fleet_gate_rejected", r.gate_rejected),
                ("fleet_scan_rejected", r.scan_rejected),
            ]
        };
        Json::obj(vec![
            (
                "latency",
                Json::obj(vec![
                    ("register", self.register_latency.to_json()),
                    ("certify", self.certify_latency.to_json()),
                    ("extract", self.extract_latency.to_json()),
                    ("corpus", self.corpus_latency.to_json()),
                    ("stats", self.stats_latency.to_json()),
                ]),
            ),
            ("responses", counters(responses)),
            ("exec", counters(exec)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_are_upper_bounds() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile_us(50.0), 0, "empty");
        for us in [1u64, 2, 3, 100, 1000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 5);
        let p50 = h.percentile_us(50.0);
        assert!(p50 >= 3, "p50 bucket bound covers the median, got {p50}");
        assert!(h.percentile_us(99.0) >= 1000);
        assert!(h.mean_us() >= (1 + 2 + 3 + 100 + 1000) / 5 - 1);
        // Huge values clip into the top bucket instead of panicking.
        h.record(Duration::from_secs(40_000));
        assert!(h.percentile_us(100.0) > 0);
    }

    #[test]
    fn status_classes() {
        let m = Metrics::new();
        for s in [200, 200, 404, 429, 500] {
            m.count_status(s);
        }
        assert_eq!(m.responses_2xx.load(Ordering::Relaxed), 2);
        assert_eq!(m.responses_4xx.load(Ordering::Relaxed), 2);
        assert_eq!(m.responses_5xx.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn exec_totals_fold() {
        let m = Metrics::new();
        let cs = RunStats {
            docs: 2,
            segments: 10,
            segment_bytes: 100,
            splitter_bytes_skipped: 7,
            splitter_bytes_stitched: 3,
            cache: splitc_spanner::DenseCacheStats {
                enum_frames: 5,
                ..Default::default()
            },
            ..Default::default()
        };
        m.record(false, &cs);
        m.record(false, &cs);
        let fs = RunStats {
            segments: 1,
            dispatches: 3,
            candidates: vec![1, 2],
            ..Default::default()
        };
        m.record(true, &fs);
        let t = m.exec.lock().clone();
        assert_eq!((t.corpus_runs, t.fleet_runs), (2, 1));
        assert_eq!(t.run.docs, 4);
        assert_eq!(t.run.segments, 21);
        assert!(t.run.candidates.is_empty(), "fleets' members do not add up");
        // JSON rendering includes the folded numbers.
        let rendered = m.to_json().to_string();
        assert!(rendered.contains("\"corpus_runs\":2"));
        assert!(rendered.contains("\"segment_bytes\":200"));
        assert!(rendered.contains("\"splitter_bytes_skipped\":14"));
        assert!(rendered.contains("\"splitter_bytes_stitched\":6"));
        assert!(rendered.contains("\"enum_frames\":10"));
        assert!(rendered.contains("\"fleet_runs\":1"));
        assert!(rendered.contains("\"fleet_dispatches\":3"));
    }
}
