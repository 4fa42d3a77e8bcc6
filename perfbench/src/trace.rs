//! In-memory spans for the traced run.
//!
//! A span is recorded around one call into a layer's public functions,
//! from the benchmark's own code: name, start, end, the span that caused
//! it, and the request (or pass) it belongs to. Spans stay in memory
//! while the run measures and are written out once it ends, so writing
//! them costs nothing inside the timed window.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a recorded span within one [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(u32);

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique within the tracer.
    pub id: SpanId,
    /// Layer boundary, `layer.call` (e.g. `json.parse`).
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns (not before `start`).
    pub end: u64,
    /// The span this one ran inside, if any.
    pub parent: Option<SpanId>,
    /// Request or pass the span belongs to.
    pub req: u64,
}

impl SpanRecord {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end - self.start) as f64 / 1e6
    }
}

/// A span that has started and not yet ended.
#[must_use = "an open span is recorded only when closed"]
#[derive(Debug)]
pub struct Open {
    id: SpanId,
    name: &'static str,
    start: Instant,
    parent: Option<SpanId>,
    req: u64,
}

impl Open {
    /// The id the span will be recorded under, for its children.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Starts a span.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, req: u64) -> Open {
        Open {
            id: SpanId(self.next.fetch_add(1, Ordering::Relaxed)),
            name,
            start: Instant::now(),
            parent,
            req,
        }
    }

    /// Ends a span and records it.
    pub fn close(&self, open: Open) -> SpanRecord {
        let end = Instant::now();
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        let record = SpanRecord {
            id: open.id,
            name: open.name,
            start: ns(open.start),
            end: ns(end),
            parent: open.parent,
            req: open.req,
        };
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .push(record.clone());
        record
    }

    /// Runs `f` inside a span and returns its result with the span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, SpanRecord) {
        let open = self.open(name, parent, req);
        let out = f();
        (out, self.close(open))
    }

    /// Every span recorded so far, in the order they ended.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .clone()
    }

    /// Writes all spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.0.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.id.0, s.name, s.start, s.end, s.req
            )?;
        }
        out.flush()
    }
}

/// Self time of every span, in ns: its duration minus the part of its
/// interval that its children cover. Children may overlap each other
/// (they can run on different threads); overlapping cover counts once,
/// and cover outside the parent's interval does not count.
pub fn self_times(spans: &[SpanRecord]) -> HashMap<SpanId, u64> {
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|k| {
                    k.iter()
                        .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.end - s.start - covered)
        })
        .collect()
}

/// Per span name, in order of first appearance: spans, total ms, and
/// self ms (see [`self_times`]).
pub fn summary(spans: &[SpanRecord]) -> Vec<(&'static str, usize, f64, f64)> {
    let selfs = self_times(spans);
    let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
    for s in spans {
        let own = selfs[&s.id] as f64 / 1e6;
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += s.ms();
                r.3 += own;
            }
            None => rows.push((s.name, 1, s.ms(), own)),
        }
    }
    rows
}

/// Prints total and self time per span name and writes the spans to
/// `path` as JSON lines.
pub fn write_trace(path: &Path, tracer: &Tracer) {
    let spans = tracer.spans();
    println!(
        "  {:<24} {:>7} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for (name, count, total, own) in summary(&spans) {
        println!("  {name:<24} {count:>7} {total:>12.3} {own:>12.3}");
    }
    match tracer.write_jsonl(path) {
        Ok(()) => println!("trace: {} spans -> {}", spans.len(), path.display()),
        Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
    }
}

/// Durations (ms) of the spans called `name`.
pub fn durations_ms(spans: &[SpanRecord], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(SpanRecord::ms)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, start: u64, end: u64, parent: Option<u32>) -> SpanRecord {
        SpanRecord {
            id: SpanId(id),
            name: "t",
            start,
            end,
            parent: parent.map(SpanId),
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span(0, 0, 100, None),
            span(1, 10, 30, Some(0)),
            span(2, 50, 60, Some(0)),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&SpanId(0)], 70);
        assert_eq!(s[&SpanId(1)], 20);
        assert_eq!(s[&SpanId(2)], 10);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two workers' spans overlap inside the parent.
        let spans = [
            span(0, 0, 100, None),
            span(1, 10, 50, Some(0)),
            span(2, 40, 70, Some(0)),
            span(3, 20, 30, Some(0)),
        ];
        assert_eq!(self_times(&spans)[&SpanId(0)], 40);
    }

    #[test]
    fn cover_outside_the_parent_is_clipped() {
        let spans = [
            span(0, 100, 200, None),
            span(1, 50, 120, Some(0)),
            span(2, 190, 260, Some(0)),
            span(3, 300, 400, Some(0)),
        ];
        assert_eq!(self_times(&spans)[&SpanId(0)], 70);
    }

    #[test]
    fn grandchildren_do_not_reduce_the_grandparent_twice() {
        let spans = [
            span(0, 0, 100, None),
            span(1, 0, 60, Some(0)),
            span(2, 10, 20, Some(1)),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&SpanId(0)], 40);
        assert_eq!(s[&SpanId(1)], 50);
        assert_eq!(s[&SpanId(2)], 10);
    }

    #[test]
    fn tracer_records_nesting_from_real_calls() {
        let t = Tracer::default();
        let root = t.open("root", None, 7);
        let ((), child) = t.time("child", Some(root.id()), 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let root = t.close(root);
        assert_eq!(child.parent, Some(root.id));
        assert!(root.start <= child.start && child.end <= root.end);
        let spans = t.spans();
        assert_eq!(durations_ms(&spans, "child").len(), 1);
        let rows = summary(&spans);
        assert_eq!(rows.len(), 2);
        let root_row = rows.iter().find(|r| r.0 == "root").unwrap();
        assert_eq!(root_row.1, 1);
        assert!((root_row.3 - (root.ms() - child.ms())).abs() < 1e-9);
    }
}
