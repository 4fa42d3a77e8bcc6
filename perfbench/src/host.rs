//! Host fingerprint and process memory.
//!
//! Printed with every run so that a slow or crowded host shows as such
//! instead of as a regression of the code under test.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// What the run was measured on.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Logical CPUs this process may use.
    pub nproc: usize,
    /// `rustc -V` of the toolchain on the path.
    pub rustc: String,
    /// Milliseconds the fixed calibration loop took (median of 5).
    pub calibration_ms: f64,
    /// Milliseconds the fixed UTF-8 validation loop took (median of 5).
    pub calibration_utf8_ms: f64,
}

/// Fixed integer work: a xorshift chain whose length never changes, so
/// its time tracks the host's single-core speed at the moment of the run.
fn calibration_loop() -> u64 {
    let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);
    let mut acc = 0u64;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    acc
}

/// Fixed cache-bound work: validating the tails of a 64 KiB text as
/// UTF-8, over and over. This is the access pattern of `Json::parse` on
/// a large body, whose speed on a shared host can swing by much more
/// than the integer loop's; this loop shows when it does.
fn calibration_utf8_loop(text: &[u8]) -> usize {
    let mut acc = 0;
    for i in 0..20_000 {
        let tail = black_box(&text[i % 4096..]);
        acc += std::str::from_utf8(tail).map_or(0, str::len);
    }
    acc
}

/// Median of five timings of `f`, in ms.
fn median_ms(mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[2]
}

/// Takes the fingerprint (about a second of CPU).
pub fn fingerprint() -> Fingerprint {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let text: Vec<u8> = (0..64 << 10).map(|i| b'a' + (i % 26) as u8).collect();
    Fingerprint {
        nproc,
        rustc,
        calibration_ms: median_ms(|| {
            black_box(calibration_loop());
        }),
        calibration_utf8_ms: median_ms(|| {
            black_box(calibration_utf8_loop(&text));
        }),
    }
}

/// A line of `/proc/self/status` in MiB (Linux).
fn status_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{key} line in /proc/self/status"));
    kb / 1024.0
}

/// The memory the process holds before the program under test is set
/// up: taken after the benchmark has generated its inputs and
/// references, so the peak above it is the program's share.
#[derive(Debug, Clone, Copy)]
pub struct Baseline {
    resident_mb: f64,
}

impl Baseline {
    /// The resident set now (`VmRSS`).
    pub fn now() -> Baseline {
        Baseline {
            resident_mb: status_mb("VmRSS:"),
        }
    }

    /// Peak resident set so far (`VmHWM`) above the baseline, in MiB.
    pub fn peak_above_mb(&self) -> f64 {
        status_mb("VmHWM:") - self.resident_mb
    }
}
