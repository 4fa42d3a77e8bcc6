//! A long-lived evaluation worker pool.
//!
//! Every parallel entry point in this crate used to spawn its worker
//! threads per call (scoped threads around one corpus run). That shape
//! is fine for batch jobs but wrong for a *service*: a server handling
//! thousands of `/extract` requests would pay thread spawn/join on each
//! one. [`EvalPool`] is the reusable handle — `workers` threads started
//! once, fed jobs over a channel, joined on drop — that
//! [`crate::CorpusRunner::with_pool`] and
//! [`crate::FleetRunner::with_pool`] plug their per-request worker loops
//! into.
//!
//! Jobs are plain `FnOnce` boxes. Runner worker loops are self-draining
//! (they exit when the run's segment queue disconnects), so a pool
//! smaller than a run's requested `workers` still completes the run:
//! the jobs that find a free pool thread drain the whole queue, and the
//! late ones exit immediately on the disconnected channel. Concurrent
//! runs therefore share the pool without deadlock — producers live on
//! the callers' threads, never inside the pool.
//!
//! A job that panics is caught by the pool thread (the panic is
//! reported to the submitting runner through its own drain-on-panic
//! protocol), so one poisoned request can never shrink the pool.
//!
//! One-shot indexed batches (`evaluate_split`, `evaluate_many*`,
//! `certify_many`) instead run on `scoped_map`: scoped threads for
//! one call, or none at all for one worker or one task.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A boxed unit of work submitted to the pool.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Usage counters of an [`EvalPool`], for service `/stats` surfaces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalPoolStats {
    /// Jobs submitted over the pool's lifetime.
    pub submitted: u64,
    /// Jobs completed (including panicked ones, which are caught).
    pub completed: u64,
    /// Jobs that panicked while running.
    pub panicked: u64,
}

/// A fixed-size pool of long-lived evaluation threads.
///
/// Construct once (typically wrapped in an [`Arc`] and shared across
/// requests), submit jobs with [`EvalPool::execute`]; dropping the pool
/// closes the job channel and joins every thread.
///
/// ```
/// use splitc_exec::pool::EvalPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
///
/// let pool = EvalPool::new(4);
/// let hits = Arc::new(AtomicUsize::new(0));
/// for _ in 0..16 {
///     let hits = hits.clone();
///     pool.execute(Box::new(move || {
///         hits.fetch_add(1, Ordering::Relaxed);
///     }));
/// }
/// drop(pool); // joins: all jobs have run
/// assert_eq!(hits.load(Ordering::Relaxed), 16);
/// ```
#[derive(Debug)]
pub struct EvalPool {
    tx: Option<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
    submitted: AtomicU64,
    completed: Arc<AtomicU64>,
    panicked: Arc<AtomicU64>,
}

impl EvalPool {
    /// Starts a pool of `workers` threads. `0` is normalized to 1,
    /// matching the contract of every pool entry point in this crate.
    pub fn new(workers: usize) -> EvalPool {
        let workers = workers.max(1);
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let completed = Arc::new(AtomicU64::new(0));
        let panicked = Arc::new(AtomicU64::new(0));
        let handles = (0..workers)
            .map(|_| {
                let rx = rx.clone();
                let completed = completed.clone();
                let panicked = panicked.clone();
                std::thread::spawn(move || Self::worker(&rx, &completed, &panicked))
            })
            .collect();
        EvalPool {
            tx: Some(tx),
            handles,
            workers,
            submitted: AtomicU64::new(0),
            completed,
            panicked,
        }
    }

    /// Number of threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Submits a job. Jobs run in submission order as threads free up;
    /// the call never blocks (the job channel is unbounded — admission
    /// control belongs to the caller, e.g. the server's bounded request
    /// queue).
    pub fn execute(&self, job: Job) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.tx
            .as_ref()
            .expect("pool channel open until drop")
            .send(job)
            .expect("pool threads alive until drop");
    }

    /// Lifetime usage counters.
    pub fn stats(&self) -> EvalPoolStats {
        EvalPoolStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            panicked: self.panicked.load(Ordering::Relaxed),
        }
    }

    fn worker(rx: &Mutex<Receiver<Job>>, completed: &AtomicU64, panicked: &AtomicU64) {
        loop {
            let job = match rx.lock().recv() {
                Ok(j) => j,
                Err(_) => break, // pool dropped and queue drained
            };
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err() {
                panicked.fetch_add(1, Ordering::Relaxed);
            }
            completed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Drop for EvalPool {
    fn drop(&mut self) {
        drop(self.tx.take()); // disconnect: workers exit after draining
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Runs `task(0)`, …, `task(n - 1)` on up to `workers` scoped threads
/// that steal indices from a shared counter, and returns the results in
/// index order. With one worker or at most one task it runs on the
/// calling thread and spawns nothing; `workers == 0` is normalized to 1.
/// Each worker returns its `(index, value)` pairs, and the caller places
/// them after the join. A panicking task is re-raised on the caller.
pub(crate) fn scoped_map<T, F>(workers: usize, n: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.max(1).min(n);
    if workers <= 1 {
        return (0..n).map(task).collect();
    }
    let next = AtomicUsize::new(0);
    let steal = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, task(i)));
        }
    };
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(steal)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_all_jobs_and_counts() {
        let pool = EvalPool::new(3);
        assert_eq!(pool.workers(), 3);
        let n = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let n = n.clone();
            pool.execute(Box::new(move || {
                n.fetch_add(1, Ordering::Relaxed);
            }));
        }
        // Drop joins, so every job has completed afterwards.
        let stats_before = pool.stats();
        assert_eq!(stats_before.submitted, 50);
        drop(pool);
        assert_eq!(n.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn scoped_map_keeps_index_order_and_runs_small_batches_inline() {
        for workers in [0, 1, 3] {
            let squares = scoped_map(workers, 50, |i| i * i);
            assert_eq!(squares, (0..50).map(|i| i * i).collect::<Vec<_>>());
        }
        // One worker or one task: the caller's thread, nothing spawned.
        let caller = std::thread::current().id();
        let on = |_| std::thread::current().id();
        assert_eq!(scoped_map(1, 4, on), vec![caller; 4]);
        assert_eq!(scoped_map(4, 1, on), vec![caller]);
        assert!(scoped_map(4, 0, |i| i).is_empty());
    }

    #[test]
    #[should_panic(expected = "task 7")]
    fn scoped_map_reraises_a_task_panic() {
        scoped_map(2, 16, |i| assert_ne!(i, 7, "task 7"));
    }

    #[test]
    fn zero_workers_normalized() {
        let pool = EvalPool::new(0);
        assert_eq!(pool.workers(), 1);
        let n = Arc::new(AtomicUsize::new(0));
        let nn = n.clone();
        pool.execute(Box::new(move || {
            nn.fetch_add(1, Ordering::Relaxed);
        }));
        drop(pool);
        assert_eq!(n.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn panicking_job_does_not_kill_the_pool() {
        let pool = EvalPool::new(1);
        pool.execute(Box::new(|| panic!("induced")));
        let n = Arc::new(AtomicUsize::new(0));
        let nn = n.clone();
        pool.execute(Box::new(move || {
            nn.fetch_add(1, Ordering::Relaxed);
        }));
        drop(pool);
        assert_eq!(n.load(Ordering::Relaxed), 1, "pool survived the panic");
    }

    #[test]
    fn stats_track_panics() {
        let pool = EvalPool::new(2);
        pool.execute(Box::new(|| {}));
        pool.execute(Box::new(|| panic!("induced")));
        // Busy-wait for completion (jobs are fast).
        for _ in 0..1000 {
            if pool.stats().completed == 2 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let s = pool.stats();
        assert_eq!(s.submitted, 2);
        assert_eq!(s.completed, 2);
        assert_eq!(s.panicked, 1);
    }
}
