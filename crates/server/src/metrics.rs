//! Service metrics: per-endpoint latency histograms and aggregated
//! execution counters, all lock-cheap and rendered into `/stats` JSON.

use crate::json::Json;
use parking_lot::Mutex;
use splitc_exec::{CorpusStats, FleetStats};
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
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecTotals {
    /// Corpus-runner extractions served.
    pub corpus_runs: u64,
    /// Fleet-runner extractions served.
    pub fleet_runs: u64,
    /// Documents processed.
    pub docs: u64,
    /// Segments evaluated.
    pub segments: u64,
    /// Bytes across evaluated segments.
    pub segment_bytes: u64,
    /// Batches dispatched to the evaluation pool.
    pub batches: u64,
    /// Lazy-DFA cache hits.
    pub cache_hits: u64,
    /// Lazy-DFA cache misses.
    pub cache_misses: u64,
    /// Prefilter bytes skipped (gate rejections + skip-loop jumps).
    pub prefilter_bytes_skipped: u64,
    /// Bytes the streaming splitter's skip loop jumped.
    pub splitter_bytes_skipped: u64,
    /// Segment bytes the streaming splitter stitched across chunks.
    pub splitter_bytes_stitched: u64,
    /// Forward-enumeration frames pushed or reused.
    pub enum_frames: u64,
    /// Prefilter candidates handed to a DFA.
    pub prefilter_candidates: u64,
    /// Fleet `(segment, member)` evaluations dispatched.
    pub fleet_dispatches: u64,
    /// Fleet pairs pruned by cheap gates.
    pub fleet_gate_rejected: u64,
    /// Fleet pairs pruned by the shared needle scan.
    pub fleet_scan_rejected: u64,
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

    /// Folds one corpus run's statistics into the totals.
    pub fn record_corpus(&self, stats: &CorpusStats) {
        let mut t = self.exec.lock();
        t.corpus_runs += 1;
        t.docs += stats.docs as u64;
        t.segments += stats.segments as u64;
        t.segment_bytes += stats.segment_bytes;
        t.batches += stats.batches as u64;
        t.cache_hits += stats.cache.hits;
        t.cache_misses += stats.cache.misses;
        t.prefilter_bytes_skipped += stats.prefilter.bytes_skipped;
        t.prefilter_candidates += stats.prefilter.candidates;
        t.splitter_bytes_skipped += stats.splitter_bytes_skipped;
        t.splitter_bytes_stitched += stats.splitter_bytes_stitched;
        t.enum_frames += stats.cache.enum_frames;
    }

    /// Folds one fleet run's statistics into the totals.
    pub fn record_fleet(&self, stats: &FleetStats) {
        let mut t = self.exec.lock();
        t.fleet_runs += 1;
        t.docs += stats.docs as u64;
        t.segments += stats.segments as u64;
        t.segment_bytes += stats.segment_bytes;
        t.batches += stats.batches as u64;
        t.cache_hits += stats.cache.hits;
        t.cache_misses += stats.cache.misses;
        t.prefilter_bytes_skipped += stats.prefilter.bytes_skipped;
        t.prefilter_candidates += stats.prefilter.candidates;
        t.splitter_bytes_skipped += stats.splitter_bytes_skipped;
        t.splitter_bytes_stitched += stats.splitter_bytes_stitched;
        t.enum_frames += stats.cache.enum_frames;
        t.fleet_dispatches += stats.dispatches;
        t.fleet_gate_rejected += stats.gate_rejected;
        t.fleet_scan_rejected += stats.scan_rejected;
    }

    /// Renders the request-side metrics (`/stats` assembles the full
    /// document around this).
    pub fn to_json(&self) -> Json {
        let exec = *self.exec.lock();
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
            (
                "responses",
                Json::obj(vec![
                    (
                        "ok_2xx",
                        Json::Num(self.responses_2xx.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "client_4xx",
                        Json::Num(self.responses_4xx.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "server_5xx",
                        Json::Num(self.responses_5xx.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "rejected_429",
                        Json::Num(self.rejected_429.load(Ordering::Relaxed) as f64),
                    ),
                ]),
            ),
            (
                "exec",
                Json::obj(vec![
                    ("corpus_runs", Json::Num(exec.corpus_runs as f64)),
                    ("fleet_runs", Json::Num(exec.fleet_runs as f64)),
                    ("docs", Json::Num(exec.docs as f64)),
                    ("segments", Json::Num(exec.segments as f64)),
                    ("segment_bytes", Json::Num(exec.segment_bytes as f64)),
                    ("batches", Json::Num(exec.batches as f64)),
                    ("cache_hits", Json::Num(exec.cache_hits as f64)),
                    ("cache_misses", Json::Num(exec.cache_misses as f64)),
                    (
                        "prefilter_bytes_skipped",
                        Json::Num(exec.prefilter_bytes_skipped as f64),
                    ),
                    (
                        "prefilter_candidates",
                        Json::Num(exec.prefilter_candidates as f64),
                    ),
                    (
                        "splitter_bytes_skipped",
                        Json::Num(exec.splitter_bytes_skipped as f64),
                    ),
                    (
                        "splitter_bytes_stitched",
                        Json::Num(exec.splitter_bytes_stitched as f64),
                    ),
                    ("enum_frames", Json::Num(exec.enum_frames as f64)),
                    ("fleet_dispatches", Json::Num(exec.fleet_dispatches as f64)),
                    (
                        "fleet_gate_rejected",
                        Json::Num(exec.fleet_gate_rejected as f64),
                    ),
                    (
                        "fleet_scan_rejected",
                        Json::Num(exec.fleet_scan_rejected as f64),
                    ),
                ]),
            ),
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
        let cs = CorpusStats {
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
        m.record_corpus(&cs);
        m.record_corpus(&cs);
        let t = *m.exec.lock();
        assert_eq!(t.corpus_runs, 2);
        assert_eq!(t.docs, 4);
        assert_eq!(t.segments, 20);
        // JSON rendering includes the folded numbers.
        let rendered = m.to_json().to_string();
        assert!(rendered.contains("\"corpus_runs\":2"));
        assert!(rendered.contains("\"segment_bytes\":200"));
        assert!(rendered.contains("\"splitter_bytes_skipped\":14"));
        assert!(rendered.contains("\"splitter_bytes_stitched\":6"));
        assert!(rendered.contains("\"enum_frames\":10"));
    }
}
