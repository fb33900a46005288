//! Model-checked interleaving tests for the worker pool.
//!
//! Compiled (and meaningful) only under `RUSTFLAGS="--cfg
//! dcst_model_check"`: the `dcst_sync` alias layer then resolves the
//! pool's every mutex, condvar, atomic, deque and thread-spawn to
//! `loom-lite`'s instrumented equivalents, and each test below re-runs a
//! small pool scenario under `loom_lite::Builder` — bounded-exhaustive
//! DFS over schedule choices first, seeded random schedules after. A
//! deadlock (all threads blocked), livelock (schedule-point budget
//! exhausted) or panic in *any* explored interleaving fails the test with
//! the offending schedule trace.
//!
//! Ground rules for scenario bodies, which run once per interleaving:
//!
//! * Bookkeeping (hit counters, logs) uses **plain `std` atomics and
//!   mutexes**, never the instrumented ones: they must not add schedule
//!   points, and an uninstrumented lock is only held for straight-line
//!   code, never across an instrumented operation.
//! * **No spin-waiting.** An uninstrumented spin loop monopolizes the
//!   single active model thread forever; rendezvous must come from task
//!   dependencies instead.
//! * Scenarios stay tiny (1–2 workers, ≤4 tasks): the schedule tree grows
//!   exponentially and the DFS budget is what makes small spaces
//!   *exhaustive* (`report.exhausted`) rather than sampled.
//!
//! The per-test execution floors asserted below sum to well over 10 000
//! explored interleavings per suite run.

#![cfg(dcst_model_check)]

use dcst_runtime::{DataKey, Runtime};
use loom_lite::Builder;
// Test bookkeeping only, never a pool primitive. xtask-lint: allow(pool-sync)
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
// xtask-lint: allow(pool-sync)
use std::sync::Arc;
use std::sync::Mutex as StdMutex;

/// A scenario must either run its whole exploration budget or prove the
/// space smaller than it (`exhausted`); anything else means the budget
/// silently shrank and the coverage claim with it.
fn assert_explored(report: &loom_lite::Report, floor: usize) {
    assert!(
        report.failure.is_none(),
        "failing interleaving: {}",
        report.failure.as_deref().unwrap_or_default()
    );
    assert!(
        report.exhausted || report.executions >= floor,
        "explored only {} interleavings (floor {}, not exhausted)",
        report.executions,
        floor
    );
}

#[test]
fn single_task_completes_in_every_interleaving() {
    let report = Builder {
        max_dfs_executions: 2000,
        random_iterations: 200,
        ..Builder::default()
    }
    .check(|| {
        let rt = Runtime::new(1);
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        rt.task("t").spawn(move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        rt.wait().unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    });
    assert_explored(&report, 2200);
}

#[test]
fn priority_lane_overtakes_queued_normal_work() {
    // One worker. A's completion releases successors B (normal) and C
    // (high) from inside the worker's own execute step, so whenever both
    // were wired as successors before A finished, the worker sees both
    // queued and must take C from the priority lane first. The `*_wired`
    // flags (read after each submission returns, monotone w.r.t. the
    // wiring-time `finished` check) identify exactly those interleavings;
    // in the rest the assertion is vacuous and the DFS covers both kinds.
    let report = Builder {
        max_dfs_executions: 3000,
        random_iterations: 1000,
        ..Builder::default()
    }
    .check(|| {
        let rt = Runtime::new(1);
        let k = DataKey::new(0, 0);
        let log: Arc<StdMutex<Vec<&'static str>>> = Arc::new(StdMutex::new(Vec::new()));
        let a_done = Arc::new(AtomicBool::new(false));
        {
            let (log, a_done) = (log.clone(), a_done.clone());
            rt.task("A").write(k).spawn(move || {
                log.lock().unwrap().push("A");
                a_done.store(true, Ordering::SeqCst);
            });
        }
        {
            let log = log.clone();
            rt.task("B")
                .read(k)
                .spawn(move || log.lock().unwrap().push("B"));
        }
        let b_wired = !a_done.load(Ordering::SeqCst);
        {
            let log = log.clone();
            rt.task("C")
                .read(k)
                .high_priority()
                .spawn(move || log.lock().unwrap().push("C"));
        }
        let c_wired = !a_done.load(Ordering::SeqCst);
        rt.wait().unwrap();
        let got = log.lock().unwrap().clone();
        assert_eq!(got.len(), 3, "lost or duplicated task: {got:?}");
        assert_eq!(got[0], "A", "dependency order violated: {got:?}");
        if b_wired && c_wired {
            assert_eq!(
                got[1], "C",
                "priority task queued behind normal work: {got:?}"
            );
        }
    });
    assert_explored(&report, 4000);
}

#[test]
fn steal_and_pop_deliver_every_task_exactly_once() {
    // Two workers racing over the injector batch-pop and mutual steals:
    // each of the four independent tasks must run exactly once.
    let report = Builder {
        max_dfs_executions: 3000,
        random_iterations: 1500,
        ..Builder::default()
    }
    .check(|| {
        let rt = Runtime::new(2);
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..4 {
            let h = hits.clone();
            rt.task("t").spawn(move || {
                h.fetch_add(1, Ordering::SeqCst);
            });
        }
        rt.wait().unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 4);
    });
    assert_explored(&report, 4500);
}

#[test]
fn parked_workers_never_miss_a_wakeup() {
    // Three submit/wait phases on one worker: between phases the worker
    // parks on `idle_cv` (its `wait_for` backstop is modeled as an
    // untimed `wait`, so the eventcount protocol gets no second chance).
    // A lost wakeup leaves the task queued and the master blocked on
    // `done_cv` — every thread blocked, which the model reports as a
    // deadlock.
    let report = Builder {
        max_dfs_executions: 2500,
        random_iterations: 1000,
        ..Builder::default()
    }
    .check(|| {
        let rt = Runtime::new(1);
        let count = Arc::new(AtomicUsize::new(0));
        for phase in 1..=3 {
            let c = count.clone();
            rt.task("p").spawn(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
            rt.wait().unwrap();
            assert_eq!(count.load(Ordering::SeqCst), phase);
        }
    });
    assert_explored(&report, 3500);
}

#[test]
fn pending_sentinel_survives_submission_racing_completion() {
    // Diamond A → {B, C} → D on two workers. The master wires B, C and D
    // while A (and then B/C) may already be finishing on the workers, so
    // every path through the +1-sentinel wiring protocol — predecessor
    // already finished, finishing concurrently, still pending — is
    // explored. Dependency violations are observed through the epoch
    // counters, a lost release as a model deadlock.
    let report = Builder {
        max_dfs_executions: 3000,
        random_iterations: 1500,
        ..Builder::default()
    }
    .check(|| {
        let rt = Runtime::new(2);
        let k = DataKey::new(0, 0);
        let stage = Arc::new(AtomicUsize::new(0));
        let violations = Arc::new(AtomicUsize::new(0));
        {
            let stage = stage.clone();
            rt.task("A").write(k).spawn(move || {
                stage.store(1, Ordering::SeqCst);
            });
        }
        for name in ["B", "C"] {
            let (stage, violations) = (stage.clone(), violations.clone());
            rt.task(name).gatherv(k).spawn(move || {
                if stage.load(Ordering::SeqCst) != 1 {
                    violations.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        {
            let (stage, violations) = (stage.clone(), violations.clone());
            rt.task("D").read_write(k).spawn(move || {
                if stage.swap(2, Ordering::SeqCst) != 1 {
                    violations.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        rt.wait().unwrap();
        assert_eq!(stage.load(Ordering::SeqCst), 2);
        assert_eq!(violations.load(Ordering::SeqCst), 0);
    });
    assert_explored(&report, 4500);
}

#[test]
fn two_scopes_on_one_key_share_no_edge_and_lose_no_task() {
    // W1/W2 restated for scopes. Two submitter threads, one scope each,
    // both chaining two tasks through the *same* key on a one-worker pool:
    // each submits under its own scope's lock, racing the other and the
    // worker. Every body runs exactly once, each scope keeps its own
    // order, both waits return (a lost release or wakeup is a model
    // deadlock), and the only edge wired per scope joins its own two
    // tasks — a shared key table would wire one scope's first task behind
    // the other's chain.
    let report = Builder {
        max_dfs_executions: 3000,
        random_iterations: 1500,
        ..Builder::default()
    }
    .check(|| {
        let rt = Arc::new(Runtime::new(1));
        rt.enable_tracing();
        let hits = Arc::new(AtomicUsize::new(0));
        let violations = Arc::new(AtomicUsize::new(0));
        let run_scope = {
            let (hits, violations) = (hits.clone(), violations.clone());
            move |rt: &Runtime| {
                let scope = rt.scope();
                let k = DataKey::new(0, 0);
                let first_ran = Arc::new(AtomicBool::new(false));
                {
                    let (hits, first_ran) = (hits.clone(), first_ran.clone());
                    scope.task("first").write(k).spawn(move || {
                        hits.fetch_add(1, Ordering::SeqCst);
                        first_ran.store(true, Ordering::SeqCst);
                    });
                }
                {
                    let (hits, violations) = (hits.clone(), violations.clone());
                    scope.task("second").read_write(k).spawn(move || {
                        hits.fetch_add(1, Ordering::SeqCst);
                        if !first_ran.load(Ordering::SeqCst) {
                            violations.fetch_add(1, Ordering::SeqCst);
                        }
                    });
                }
                scope.wait().unwrap();
                let trace = rt.take_scope_trace(&scope);
                let ids: Vec<usize> = trace.records.iter().map(|r| r.id).collect();
                assert_eq!(ids.len(), 2, "lost or duplicated task: {ids:?}");
                assert_eq!(trace.edges.len(), 1, "edges: {:?}", trace.edges);
                let (from, to) = trace.edges[0];
                assert!(
                    ids.contains(&from) && ids.contains(&to),
                    "cross-scope edge {from}->{to}, own ids {ids:?}"
                );
            }
        };
        let other = {
            let (rt, run_scope) = (rt.clone(), run_scope.clone());
            loom_lite::thread::spawn(move || run_scope(&rt))
        };
        run_scope(&rt);
        other.join().unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 4);
        assert_eq!(violations.load(Ordering::SeqCst), 0);
    });
    assert_explored(&report, 4500);
}

#[test]
fn reintroduced_wiring_race_is_caught_as_deadlock() {
    // The mutation proof: `new_with_buggy_wiring` re-creates the
    // pre-sentinel protocol (finished-check and successor-push under two
    // separate body locks). In the interleaving where A retires between
    // B's check and push, B's release is lost and the pool deadlocks —
    // the checker must find that schedule within budget.
    let report = Builder {
        max_dfs_executions: 4000,
        random_iterations: 4000,
        ..Builder::default()
    }
    .check(|| {
        let rt = Runtime::new_with_buggy_wiring(1);
        let k = DataKey::new(0, 0);
        rt.task("A").write(k).spawn(|| {});
        rt.task("B").read(k).spawn(|| {});
        rt.wait().unwrap();
    });
    let failure = report.failure.unwrap_or_else(|| {
        panic!(
            "model checker missed the wiring race in {} interleavings",
            report.executions
        )
    });
    assert!(
        failure.contains("deadlock"),
        "expected a deadlock report, got: {failure}"
    );
}
