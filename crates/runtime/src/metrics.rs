//! Per-worker scheduler counters.
//!
//! Every worker owns one cache-line-aligned block of `AtomicU64` cells
//! ([`PoolCounters`]), so the hot-path increments (task retired, lost
//! injector race, priority-lane hit, park) are uncontended `Relaxed` RMWs
//! on a line no other worker writes. The only pool-wide cells are the ready
//! -queue depth gauge and its high-water mark, bumped once per task push
//! and pop.
//!
//! [`RuntimeMetrics`] / [`WorkerMetrics`] are the plain-data snapshots
//! downstream code consumes.
//!
//! Counter semantics (fixed, tests rely on them):
//! - `executed` counts tasks *retired* through the pool's execute path,
//!   including bodies skipped by cancellation — it always equals the
//!   number of trace records an enabled trace would collect.
//! - `steal_retries` counts lock-free CAS contention observed while
//!   acquiring work: `Steal::Retry` outcomes from the priority lane and
//!   the regular injector. A retry means some *other* worker won the
//!   contended index — it measures contention, not loss.
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
    /// `Steal::Retry` outcomes (lost CAS races) on the two injectors.
    pub steal_retries: u64,
    /// Tasks taken from the priority lane.
    pub priority_hits: u64,
    /// Times the worker parked on the idle condvar.
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

    /// Total lost CAS races (`Steal::Retry`) across all workers.
    pub fn steal_retries(&self) -> u64 {
        self.workers.iter().map(|w| w.steal_retries).sum()
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
            "{:>6} {:>9} {:>9} {:>9} {:>7}",
            "worker", "executed", "steal-rty", "prio-hit", "parks"
        )
        .unwrap();
        for (i, w) in self.workers.iter().enumerate() {
            writeln!(
                out,
                "{i:>6} {:>9} {:>9} {:>9} {:>7}",
                w.executed, w.steal_retries, w.priority_hits, w.parks
            )
            .unwrap();
        }
        writeln!(
            out,
            "{:>6} {:>9} {:>9} {:>9} {:>7}",
            "total",
            self.tasks_executed(),
            self.steal_retries(),
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
    steal_retries: AtomicU64,
    priority_hits: AtomicU64,
    parks: AtomicU64,
}

/// Live counter cells owned by the pool (`Shared.metrics`).
pub(crate) struct PoolCounters {
    workers: Box<[WorkerCells]>,
    depth: AtomicU64,
    max_depth: AtomicU64,
}

impl PoolCounters {
    pub fn new(num_workers: usize) -> Self {
        PoolCounters {
            workers: (0..num_workers).map(|_| WorkerCells::default()).collect(),
            depth: AtomicU64::new(0),
            max_depth: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn executed(&self, worker: usize) {
        self.workers[worker]
            .executed
            .fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn steal_retry(&self, worker: usize) {
        self.workers[worker]
            .steal_retries
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

    /// A task became ready: raise the depth gauge and fold it into the
    /// high-water mark.
    #[inline]
    pub fn depth_inc(&self) {
        let d = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.max_depth.fetch_max(d, Ordering::Relaxed);
    }

    /// A ready task started executing: lower the depth gauge.
    #[inline]
    pub fn depth_dec(&self) {
        self.depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Current ready-queue depth gauge (tasks ready but not started) —
    /// the load signal a server's admission control keys off.
    pub fn depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }

    /// Copy every counter into a plain-data snapshot.
    pub fn snapshot(&self) -> RuntimeMetrics {
        RuntimeMetrics {
            workers: self
                .workers
                .iter()
                .map(|w| WorkerMetrics {
                    executed: w.executed.load(Ordering::Relaxed),
                    steal_retries: w.steal_retries.load(Ordering::Relaxed),
                    priority_hits: w.priority_hits.load(Ordering::Relaxed),
                    parks: w.parks.load(Ordering::Relaxed),
                })
                .collect(),
            max_queue_depth: self.max_depth.load(Ordering::Relaxed),
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
                    steal_retries: 6,
                    priority_hits: 1,
                    parks: 4,
                },
                WorkerMetrics {
                    executed: 7,
                    steal_retries: 2,
                    priority_hits: 0,
                    parks: 2,
                },
            ],
            max_queue_depth: 9,
        };
        assert_eq!(m.tasks_executed(), 10);
        assert_eq!(m.steals_attempted(), 0);
        assert_eq!(m.steals_succeeded(), 0);
        assert_eq!(m.steal_retries(), 8);
        assert_eq!(m.priority_hits(), 1);
        assert_eq!(m.parks(), 6);
        let rep = m.report();
        assert!(rep.contains("max ready-queue depth: 9"));
        assert!(rep.contains("steal-rty") && !rep.contains("steal-ok"));
        assert_eq!(rep.lines().count(), 1 + 2 + 1 + 1);
    }

    #[test]
    fn pool_counters_snapshot_shape() {
        let c = PoolCounters::new(3);
        c.executed(0);
        c.executed(0);
        c.steal_retry(1);
        c.steal_retry(1);
        c.steal_retry(1);
        c.priority_hit(2);
        c.park(2);
        c.depth_inc();
        c.depth_inc();
        c.depth_dec();
        let snap = c.snapshot();
        assert_eq!(snap.workers.len(), 3);
        assert_eq!(snap.workers[0].executed, 2);
        assert_eq!(snap.workers[1].steal_retries, 3);
        assert_eq!(snap.workers[2].priority_hits, 1);
        assert_eq!(snap.workers[2].parks, 1);
        assert_eq!(snap.max_queue_depth, 2);
        assert_eq!(c.depth(), 1);
    }
}
