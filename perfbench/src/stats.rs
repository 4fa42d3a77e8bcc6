//! Sample statistics and operation accounting.
//!
//! Every timing the benchmark reports is a median or a guarded tail
//! percentile of many samples, never a single measurement: the host is
//! a shared two-core VM and one sample says little.

use std::time::{Duration, Instant};

/// A tail percentile is reported only when at least this many samples
/// lie strictly beyond it; with fewer, the tail is one or two outliers
/// and reads differently on every run.
pub const MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the middle pair for an even count).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Distance between the first and third quartiles (nearest rank), for
/// showing how widely per-sample differences spread.
pub fn iqr(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "spread of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |p: f64| v[(nearest_rank(p, v.len()).max(1) - 1).min(v.len() - 1)];
    at(75.0) - at(25.0)
}

/// Runs `setup` `n` times and returns each set-up's time (s) and the
/// last system built. `setup` returns its system and the part of its
/// wall time spent waiting rather than working, which is left out. Each
/// system is dropped before the next set-up starts, so these set-ups
/// never overlap.
pub fn setup_times<T>(n: usize, mut setup: impl FnMut() -> (T, Duration)) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let t = Instant::now();
        let (system, waited) = setup();
        times.push((t.elapsed() - waited).as_secs_f64());
        last = Some(system);
    }
    (times, last.expect("at least one set-up"))
}

/// Why a tail percentile was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TooFewSamples {
    /// Samples available.
    pub samples: usize,
    /// Samples the percentile needs for [`MIN_BEYOND`] of them to lie
    /// beyond it.
    pub needed: usize,
}

impl std::fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} samples, need {} for {MIN_BEYOND} beyond the percentile",
            self.samples, self.needed
        )
    }
}

/// The nearest-rank `p`-th percentile (`0 < p < 100`) of `samples`,
/// refused unless at least [`MIN_BEYOND`] samples rank above it.
pub fn tail_percentile(samples: &[f64], p: f64) -> Result<f64, TooFewSamples> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of (0, 100)");
    let n = samples.len();
    // Nearest rank: the smallest value with at least p% of the samples
    // at or below it.
    let rank = nearest_rank(p, n);
    if n == 0 || n - rank.max(1) < MIN_BEYOND {
        // Smallest n with n - ceil(p n / 100) >= MIN_BEYOND.
        let needed = (1..)
            .find(|&m: &usize| m - nearest_rank(p, m) >= MIN_BEYOND)
            .expect("some sample count suffices for p < 100");
        return Err(TooFewSamples { samples: n, needed });
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v[rank.max(1) - 1])
}

/// `ceil(p n / 100)`, multiplied before dividing so that whole
/// percentiles of whole counts are exact.
fn nearest_rank(p: f64, n: usize) -> usize {
    (p * n as f64 / 100.0).ceil() as usize
}

/// Attempted and failed operations of one run. An operation is one
/// request, one edit cycle, or one batch pass. It fails on a non-200
/// response (429 included), a transport error, or an output that
/// disagrees with the reference; a mismatch found after the timed
/// window turns an operation already counted as attempted into a
/// failure, it does not add an attempt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Non-200 responses.
    pub bad_status: u64,
    /// Connection or protocol errors.
    pub transport: u64,
    /// Outputs that disagree with the reference.
    pub mismatched: u64,
}

/// How one operation ended, as seen while it ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed with status 200 (its output may still be checked later).
    Ok,
    /// Completed with another status.
    BadStatus,
    /// Did not complete.
    Transport,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => {}
            Outcome::BadStatus => self.bad_status += 1,
            Outcome::Transport => self.transport += 1,
        }
    }

    /// Marks one already-counted, successful operation as having
    /// produced a wrong output.
    pub fn mismatch(&mut self) {
        assert!(
            self.mismatched < self.attempted - self.bad_status - self.transport,
            "a mismatch must belong to a successful attempt"
        );
        self.mismatched += 1;
    }

    /// All failures, whatever their kind.
    pub fn failed(&self) -> u64 {
        self.bad_status + self.transport + self.mismatched
    }

    /// Component-wise sum (one tally per client thread).
    pub fn merge(self, other: Tally) -> Tally {
        Tally {
            attempted: self.attempted + other.attempted,
            bad_status: self.bad_status + other.bad_status,
            transport: self.transport + other.transport,
            mismatched: self.mismatched + other.mismatched,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn iqr_is_the_quartile_distance() {
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(iqr(&v), 4.0);
        assert_eq!(iqr(&[5.0]), 0.0);
    }

    #[test]
    fn setup_times_leave_out_the_wait() {
        let mut built = 0;
        let (times, last) = setup_times(3, || {
            built += 1;
            (built, Duration::ZERO)
        });
        assert_eq!((times.len(), last), (3, 3));
        // A wait as long as the set-up itself leaves nothing.
        let (times, _) = setup_times(3, || {
            let t = Instant::now();
            std::thread::sleep(Duration::from_millis(2));
            ((), t.elapsed())
        });
        assert!(median(&times) < 1e-3, "{times:?}");
    }

    #[test]
    fn p95_is_refused_without_ten_samples_beyond_it() {
        // 199 samples: rank ceil(0.95 * 199) = 190, 9 beyond.
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        let err = tail_percentile(&v, 95.0).unwrap_err();
        assert_eq!(err.samples, 199);
        assert_eq!(err.needed, 200);
        // 200 samples: rank 190, exactly 10 beyond.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 95.0), Ok(190.0));
    }

    #[test]
    fn tail_percentile_refuses_empty_and_tiny_inputs() {
        assert!(tail_percentile(&[], 95.0).is_err());
        assert!(tail_percentile(&[1.0; 10], 50.0).is_err());
        // 20 samples leave exactly 10 above the median rank.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 50.0), Ok(10.0));
    }

    #[test]
    fn tail_percentile_ignores_input_order() {
        let mut v: Vec<f64> = (1..=400).map(f64::from).collect();
        v.reverse();
        assert_eq!(tail_percentile(&v, 95.0), Ok(380.0));
        assert_eq!(tail_percentile(&v, 90.0), Ok(360.0));
        // p99 of 400 leaves only 4 beyond it.
        assert!(tail_percentile(&v, 99.0).is_err());
    }

    #[test]
    fn tally_counts_every_failure_kind_once() {
        let mut a = Tally::default();
        a.record(Outcome::Ok);
        a.record(Outcome::Ok);
        a.record(Outcome::BadStatus);
        let mut b = Tally::default();
        b.record(Outcome::Transport);
        b.record(Outcome::Ok);
        let mut t = a.merge(b);
        assert_eq!((t.attempted, t.failed()), (5, 2));
        // A late mismatch converts a success, it is not a new attempt.
        t.mismatch();
        assert_eq!((t.attempted, t.failed()), (5, 3));
        t.mismatch();
        t.mismatch();
        assert_eq!((t.attempted, t.failed()), (5, 5));
    }

    #[test]
    #[should_panic(expected = "successful attempt")]
    fn tally_refuses_more_mismatches_than_successes() {
        let mut t = Tally::default();
        t.record(Outcome::BadStatus);
        t.mismatch();
    }
}
