//! Per-worker scheduler counters.
//!
//! Every worker owns one cache-line-aligned block of `AtomicU64` cells
//! ([`PoolCounters`]), so the hot-path increments (task retired,
//! priority-lane hit, park) are uncontended `Relaxed` RMWs on a line no
//! other worker writes. The ready-queue depth and its high-water mark are
//! not cells: the pool reads both off its ready set, under its lock.
//!
//! [`RuntimeMetrics`] / [`WorkerMetrics`] are the plain-data snapshots
//! downstream code consumes.
//!
//! Counter semantics (fixed, tests rely on them):
//! - `executed` counts tasks *retired* through the pool's execute path,
//!   including bodies skipped by cancellation — it always equals the
//!   number of trace records an enabled trace would collect.
//! - `priority_hits` counts tasks taken from the priority lane.
//! - `parks` counts actual condvar waits (not idle-loop passes).
//! - `max_queue_depth` is the high-water mark of tasks pushed ready but
//!   not yet started, across the whole pool.

use std::sync::atomic::{AtomicU64, Ordering};

/// Scheduler counters for one worker, as captured by a snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerMetrics {
    /// Tasks retired through the execute path (includes cancelled skips).
    pub executed: u64,
    /// Tasks taken from the priority lane.
    pub priority_hits: u64,
    /// Times the worker waited on the ready set's condvar.
    pub parks: u64,
}

/// Pool-wide scheduler-counter snapshot ([`Runtime::runtime_metrics`]).
///
/// [`Runtime::runtime_metrics`]: crate::Runtime::runtime_metrics
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RuntimeMetrics {
    /// One entry per worker, indexed by worker id.
    pub workers: Vec<WorkerMetrics>,
    /// High-water mark of ready-but-not-started tasks across the pool.
    pub max_queue_depth: u64,
}

impl RuntimeMetrics {
    /// Total tasks retired across all workers.
    pub fn tasks_executed(&self) -> u64 {
        self.workers.iter().map(|w| w.executed).sum()
    }

    /// Always 0: the pool has no local deques to steal from. Kept only
    /// for the benchmark's `runtime.steal_success_rate` rung, which reads
    /// 0 through its zero-denominator guard.
    pub fn steals_attempted(&self) -> u64 {
        0
    }

    /// Always 0, like [`steals_attempted`](Self::steals_attempted), for the
    /// benchmark's `runtime.steal_success_rate` rung.
    pub fn steals_succeeded(&self) -> u64 {
        0
    }

    /// Total priority-lane hits across all workers.
    pub fn priority_hits(&self) -> u64 {
        self.workers.iter().map(|w| w.priority_hits).sum()
    }

    /// Total condvar parks across all workers.
    pub fn parks(&self) -> u64 {
        self.workers.iter().map(|w| w.parks).sum()
    }

    /// Human-readable multi-line report (one row per worker plus totals).
    pub fn report(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(
            out,
            "{:>6} {:>9} {:>9} {:>7}",
            "worker", "executed", "prio-hit", "parks"
        )
        .unwrap();
        for (i, w) in self.workers.iter().enumerate() {
            writeln!(
                out,
                "{i:>6} {:>9} {:>9} {:>7}",
                w.executed, w.priority_hits, w.parks
            )
            .unwrap();
        }
        writeln!(
            out,
            "{:>6} {:>9} {:>9} {:>7}",
            "total",
            self.tasks_executed(),
            self.priority_hits(),
            self.parks()
        )
        .unwrap();
        write!(out, "max ready-queue depth: {}", self.max_queue_depth).unwrap();
        out
    }
}

/// One worker's counters, padded to a cache line so neighbouring
/// workers' increments never false-share.
#[repr(align(64))]
#[derive(Default)]
struct WorkerCells {
    executed: AtomicU64,
    priority_hits: AtomicU64,
    parks: AtomicU64,
}

/// Live counter cells owned by the pool (`Shared.metrics`).
pub(crate) struct PoolCounters {
    workers: Box<[WorkerCells]>,
}

impl PoolCounters {
    pub fn new(num_workers: usize) -> Self {
        PoolCounters {
            workers: (0..num_workers).map(|_| WorkerCells::default()).collect(),
        }
    }

    #[inline]
    pub fn executed(&self, worker: usize) {
        self.workers[worker]
            .executed
            .fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn priority_hit(&self, worker: usize) {
        self.workers[worker]
            .priority_hits
            .fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn park(&self, worker: usize) {
        self.workers[worker].parks.fetch_add(1, Ordering::Relaxed);
    }

    /// Copy every counter into a plain-data snapshot, beside the ready
    /// set's high-water mark.
    pub fn snapshot(&self, max_queue_depth: u64) -> RuntimeMetrics {
        RuntimeMetrics {
            workers: self
                .workers
                .iter()
                .map(|w| WorkerMetrics {
                    executed: w.executed.load(Ordering::Relaxed),
                    priority_hits: w.priority_hits.load(Ordering::Relaxed),
                    parks: w.parks.load(Ordering::Relaxed),
                })
                .collect(),
            max_queue_depth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_over_workers() {
        let m = RuntimeMetrics {
            workers: vec![
                WorkerMetrics {
                    executed: 3,
                    priority_hits: 1,
                    parks: 4,
                },
                WorkerMetrics {
                    executed: 7,
                    priority_hits: 0,
                    parks: 2,
                },
            ],
            max_queue_depth: 9,
        };
        assert_eq!(m.tasks_executed(), 10);
        assert_eq!(m.steals_attempted(), 0);
        assert_eq!(m.steals_succeeded(), 0);
        assert_eq!(m.priority_hits(), 1);
        assert_eq!(m.parks(), 6);
        let rep = m.report();
        assert!(rep.contains("max ready-queue depth: 9"));
        assert!(rep.contains("prio-hit") && !rep.contains("steal"));
        assert_eq!(rep.lines().count(), 1 + 2 + 1 + 1);
    }

    #[test]
    fn pool_counters_snapshot_shape() {
        let c = PoolCounters::new(3);
        c.executed(0);
        c.executed(0);
        c.priority_hit(2);
        c.park(2);
        let snap = c.snapshot(2);
        assert_eq!(snap.workers.len(), 3);
        assert_eq!(snap.workers[0].executed, 2);
        assert_eq!(snap.workers[1], WorkerMetrics::default());
        assert_eq!(snap.workers[2].priority_hits, 1);
        assert_eq!(snap.workers[2].parks, 1);
        assert_eq!(snap.max_queue_depth, 2);
    }
}
