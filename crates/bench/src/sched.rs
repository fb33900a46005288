//! Fork-join task storm over the work-stealing deques.
//!
//! Measures the raw work-stealing substrate — no runtime, no dependency
//! tracking — so the deque protocol itself dominates. `roots` seed tasks
//! go through the shared injector; every task of depth `d > 0` pushes two
//! depth-`d-1` children onto its worker's local deque, so the storm is the
//! classic binary fork-join tree (`roots * (2^(depth+1) - 1)` tasks total)
//! with all the pop/steal races a real solve produces, compressed into
//! no-op task bodies.
//!
//! `benchmark/` runs it as the `runtime.ns_per_task` and
//! `runtime.steal_success_rate` probes (`storm::<LockFree>`); the
//! [`Backend`] parameter is the deque implementation under the storm.

use crossbeam_deque::Steal;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// A work-stealing implementation the storm can drive: a compile-time
/// parameter, so there is no dynamic dispatch inside the hot loop.
pub trait Backend {
    type Worker: Send;
    type Stealer: Send + Sync + Clone;
    type Injector: Send + Sync;
    const NAME: &'static str;

    fn worker() -> Self::Worker;
    fn stealer(w: &Self::Worker) -> Self::Stealer;
    fn injector() -> Self::Injector;
    fn inj_push(inj: &Self::Injector, v: u32);
    fn inj_steal(inj: &Self::Injector) -> Steal<u32>;
    fn push(w: &Self::Worker, v: u32);
    fn pop(w: &Self::Worker) -> Option<u32>;
    fn steal(s: &Self::Stealer) -> Steal<u32>;
}

/// The production lock-free deque and segment-list injector.
pub struct LockFree;

impl Backend for LockFree {
    type Worker = crossbeam_deque::Worker<u32>;
    type Stealer = crossbeam_deque::Stealer<u32>;
    type Injector = crossbeam_deque::Injector<u32>;
    const NAME: &'static str = "lockfree";

    fn worker() -> Self::Worker {
        crossbeam_deque::Worker::new_lifo()
    }
    fn stealer(w: &Self::Worker) -> Self::Stealer {
        w.stealer()
    }
    fn injector() -> Self::Injector {
        crossbeam_deque::Injector::new()
    }
    fn inj_push(inj: &Self::Injector, v: u32) {
        inj.push(v);
    }
    fn inj_steal(inj: &Self::Injector) -> Steal<u32> {
        inj.steal()
    }
    fn push(w: &Self::Worker, v: u32) {
        w.push(v);
    }
    fn pop(w: &Self::Worker) -> Option<u32> {
        w.pop()
    }
    fn steal(s: &Self::Stealer) -> Steal<u32> {
        s.steal()
    }
}

/// One storm run's results.
#[derive(Clone, Copy, Debug)]
pub struct StormResult {
    /// Total tasks executed (`roots * (2^(depth+1) - 1)`).
    pub tasks: u64,
    /// Wall-clock nanoseconds per task.
    pub ns_per_task: f64,
    /// Steal polls (injector polls + sibling-deque polls) across workers.
    pub steal_attempts: u64,
    /// Steal polls that delivered a task.
    pub steal_hits: u64,
}

impl StormResult {
    /// Fraction of steal polls that delivered a task.
    pub fn steal_success_rate(&self) -> f64 {
        if self.steal_attempts == 0 {
            0.0
        } else {
            self.steal_hits as f64 / self.steal_attempts as f64
        }
    }
}

/// Run one fork-join storm on `workers` threads. Every worker loops
/// pop-local → poll-injector → sweep-siblings, yielding to the OS when a
/// full sweep comes up dry (essential when the storm oversubscribes the
/// machine).
pub fn storm<B: Backend>(workers: usize, roots: usize, depth: u32) -> StormResult {
    assert!(workers >= 1 && roots >= 1);
    let total = roots as u64 * ((1u64 << (depth + 1)) - 1);
    let injector = B::injector();
    for _ in 0..roots {
        B::inj_push(&injector, depth);
    }
    let locals: Vec<B::Worker> = (0..workers).map(|_| B::worker()).collect();
    let stealers: Vec<B::Stealer> = locals.iter().map(B::stealer).collect();
    let remaining = AtomicUsize::new(total as usize);
    let attempts = AtomicU64::new(0);
    let hits = AtomicU64::new(0);

    let start = Instant::now();
    std::thread::scope(|scope| {
        for (id, local) in locals.into_iter().enumerate() {
            let (injector, stealers) = (&injector, &stealers);
            let (remaining, attempts, hits) = (&remaining, &attempts, &hits);
            scope.spawn(move || {
                let mut my_attempts = 0u64;
                let mut my_hits = 0u64;
                let run = |d: u32| {
                    if d > 0 {
                        B::push(&local, d - 1);
                        B::push(&local, d - 1);
                    }
                    remaining.fetch_sub(1, Ordering::Relaxed);
                };
                'outer: loop {
                    if let Some(d) = B::pop(&local) {
                        run(d);
                        continue;
                    }
                    // Out of local work: poll the injector, then sweep the
                    // sibling deques, exactly the pool's find_task order.
                    loop {
                        my_attempts += 1;
                        match B::inj_steal(injector) {
                            Steal::Success(d) => {
                                my_hits += 1;
                                run(d);
                                continue 'outer;
                            }
                            Steal::Retry => continue,
                            Steal::Empty => break,
                        }
                    }
                    let mut retry = false;
                    for (other, s) in stealers.iter().enumerate() {
                        if other == id {
                            continue;
                        }
                        my_attempts += 1;
                        match B::steal(s) {
                            Steal::Success(d) => {
                                my_hits += 1;
                                run(d);
                                continue 'outer;
                            }
                            Steal::Retry => retry = true,
                            Steal::Empty => {}
                        }
                    }
                    if !retry && remaining.load(Ordering::Relaxed) == 0 {
                        break;
                    }
                    // Dry sweep while work is still in flight elsewhere:
                    // give the OS a chance to run whoever holds it.
                    std::thread::yield_now();
                }
                attempts.fetch_add(my_attempts, Ordering::Relaxed);
                hits.fetch_add(my_hits, Ordering::Relaxed);
            });
        }
    });
    let elapsed = start.elapsed();
    assert_eq!(
        remaining.load(Ordering::SeqCst),
        0,
        "storm lost tasks ({} backend)",
        B::NAME
    );

    StormResult {
        tasks: total,
        ns_per_task: elapsed.as_nanos() as f64 / total as f64,
        steal_attempts: attempts.load(Ordering::SeqCst),
        steal_hits: hits.load(Ordering::SeqCst),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_executes_every_task() {
        // 4 roots, depth 5 => 4 * 63 = 252 tasks; the exactly-once check
        // is the assert inside storm (remaining hits zero, never below).
        let lf = storm::<LockFree>(4, 4, 5);
        assert_eq!(lf.tasks, 252);
        assert!(lf.ns_per_task > 0.0);
        // The injector seeded the 4 roots: every one of them was stolen.
        assert!(lf.steal_hits >= 4);
        assert!(lf.steal_success_rate() <= 1.0);
    }

    #[test]
    fn single_worker_storm_needs_only_injector_steals() {
        let r = storm::<LockFree>(1, 2, 3);
        assert_eq!(r.tasks, 30);
        // No siblings to poll; every hit came from the injector, and the
        // owner popped the rest locally.
        assert_eq!(r.steal_hits, 2);
    }
}
