//! Model-checked interleaving tests for the worker pool.
//!
//! Compiled (and meaningful) only under `RUSTFLAGS="--cfg
//! dcst_model_check"`: the `dcst_sync` alias layer then resolves the
//! pool's every mutex, condvar, atomic and thread-spawn to
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
//!   dependencies or from loom-lite's own mutex and condvar, which the
//!   scheduler sees.
//! * Every scenario submits through [`Scope`](dcst_runtime::Scope), the
//!   one submission handle the solver and the daemon run.
//! * Scenarios stay tiny (1–2 workers, ≤4 tasks): the schedule tree grows
//!   exponentially and the DFS budget is what makes small spaces
//!   *exhaustive* (`report.exhausted`) rather than sampled.
//!
//! The per-test execution floors asserted below sum to well over 10 000
//! explored interleavings per suite run.

#![cfg(dcst_model_check)]

use dcst_runtime::{DataKey, Mutation, Runtime};
use loom_lite::sync::{Condvar as LoomCondvar, Mutex as LoomMutex};
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
        let scope = rt.scope();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        scope.task("t").spawn(move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        scope.wait().unwrap();
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
        let scope = rt.scope();
        let k = DataKey::new(0, 0);
        let log: Arc<StdMutex<Vec<&'static str>>> = Arc::new(StdMutex::new(Vec::new()));
        let a_done = Arc::new(AtomicBool::new(false));
        {
            let (log, a_done) = (log.clone(), a_done.clone());
            scope.task("A").write(k).spawn(move || {
                log.lock().unwrap().push("A");
                a_done.store(true, Ordering::SeqCst);
            });
        }
        {
            let log = log.clone();
            scope
                .task("B")
                .read(k)
                .spawn(move || log.lock().unwrap().push("B"));
        }
        let b_wired = !a_done.load(Ordering::SeqCst);
        {
            let log = log.clone();
            scope
                .task("C")
                .read(k)
                .high_priority()
                .spawn(move || log.lock().unwrap().push("C"));
        }
        let c_wired = !a_done.load(Ordering::SeqCst);
        scope.wait().unwrap();
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
fn two_workers_pop_every_injected_task_exactly_once() {
    // Two workers racing over the ready set's normal lane: each of the
    // four independent tasks must run exactly once.
    let report = Builder {
        max_dfs_executions: 3000,
        random_iterations: 1500,
        ..Builder::default()
    }
    .check(|| {
        let rt = Runtime::new(2);
        let scope = rt.scope();
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..4 {
            let h = hits.clone();
            scope.task("t").spawn(move || {
                h.fetch_add(1, Ordering::SeqCst);
            });
        }
        scope.wait().unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 4);
    });
    assert_explored(&report, 4500);
}

#[test]
fn parked_workers_never_miss_a_wakeup() {
    // Three submit/wait phases on one worker: between phases the worker
    // waits on the ready set's condvar, untimed. A lost wakeup leaves the
    // task queued and the master blocked on `done_cv` (whose `wait_for`
    // backstop the model runs as an untimed `wait`) — every thread
    // blocked, which the model reports as a deadlock.
    let report = Builder {
        max_dfs_executions: 2500,
        random_iterations: 1000,
        ..Builder::default()
    }
    .check(|| {
        let rt = Runtime::new(1);
        let scope = rt.scope();
        let count = Arc::new(AtomicUsize::new(0));
        for phase in 1..=3 {
            let c = count.clone();
            scope.task("p").spawn(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
            scope.wait().unwrap();
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
        let scope = rt.scope();
        let k = DataKey::new(0, 0);
        let stage = Arc::new(AtomicUsize::new(0));
        let violations = Arc::new(AtomicUsize::new(0));
        {
            let stage = stage.clone();
            scope.task("A").write(k).spawn(move || {
                stage.store(1, Ordering::SeqCst);
            });
        }
        for name in ["B", "C"] {
            let (stage, violations) = (stage.clone(), violations.clone());
            scope.task(name).gatherv(k).spawn(move || {
                if stage.load(Ordering::SeqCst) != 1 {
                    violations.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        {
            let (stage, violations) = (stage.clone(), violations.clone());
            scope.task("D").read_write(k).spawn(move || {
                if stage.swap(2, Ordering::SeqCst) != 1 {
                    violations.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        scope.wait().unwrap();
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
fn scope_wait_never_misses_its_last_task() {
    // The waiter's side of `done_cv`, on the handle the solver runs. The
    // scope's one task tells the master it has started (a rendezvous on
    // loom-lite's own mutex and condvar, so the scheduler sees it), and
    // only then does the master call `wait`: its check of the scope's
    // count races the worker's decrement and notify, and the DFS walks
    // that short tail of both threads. A lost wakeup leaves the master
    // asleep with nothing left to notify it: a model deadlock. A second
    // phase repeats the race on the reset scope.
    let report = Builder {
        max_dfs_executions: 3000,
        random_iterations: 1500,
        ..Builder::default()
    }
    .check(|| {
        let rt = Runtime::new(1);
        let scope = rt.scope();
        let hits = Arc::new(AtomicUsize::new(0));
        for phase in 1..=2 {
            let started = Arc::new((LoomMutex::new(false), LoomCondvar::new()));
            {
                let (started, hits) = (started.clone(), hits.clone());
                scope.task("last").spawn(move || {
                    hits.fetch_add(1, Ordering::SeqCst);
                    let (flag, cv) = &*started;
                    *flag.lock() = true;
                    cv.notify_one();
                });
            }
            let (flag, cv) = &*started;
            let mut up = flag.lock();
            while !*up {
                cv.wait(&mut up);
            }
            drop(up);
            scope.wait().unwrap();
            assert_eq!(hits.load(Ordering::SeqCst), phase, "wait returned early");
        }
    });
    assert_explored(&report, 4500);
}

#[test]
fn cancel_racing_a_failure_latches_once() {
    // A `CancelHandle::cancel` on another thread races a failing
    // `spawn_try` of the same scope on a one-worker pool: the canceller
    // waits until the failing body has started (the same loom-lite
    // rendezvous), then both race for the scope's first-failure slot.
    // `wait` reports the entry that came first: a canceller that finds the
    // latch already raised came second, and so did a failing body that
    // finds it raised by its end. The latch holds until `wait`: the task
    // the failure releases never runs, and once the worker has skipped a
    // body (seen the latch) it starts no other — in the one worker's
    // execution order, which the trace keeps, the bodies that ran come
    // first.
    let report = Builder {
        max_dfs_executions: 3000,
        random_iterations: 1500,
        ..Builder::default()
    }
    .check(|| {
        let rt = Runtime::new(1);
        rt.enable_tracing();
        let scope = rt.scope();
        let handle = scope.cancel_handle();
        let (k, free) = (DataKey::new(0, 0), DataKey::new(0, 1));
        let ran: Arc<StdMutex<Vec<&'static str>>> = Arc::new(StdMutex::new(Vec::new()));
        let started = Arc::new((LoomMutex::new(false), LoomCondvar::new()));
        let cancel_came_second = Arc::new(AtomicBool::new(false));
        let fail_came_second = Arc::new(AtomicBool::new(false));
        let canceller = {
            let (handle, started) = (handle.clone(), started.clone());
            let second = cancel_came_second.clone();
            loom_lite::thread::spawn(move || {
                let (flag, cv) = &*started;
                let mut up = flag.lock();
                while !*up {
                    cv.wait(&mut up);
                }
                drop(up);
                second.store(handle.is_cancelled(), Ordering::SeqCst);
                handle.cancel();
            })
        };
        {
            let (handle, ran) = (handle.clone(), ran.clone());
            let second = fail_came_second.clone();
            scope.task("fail").write(k).spawn_try(move || {
                ran.lock().unwrap().push("fail");
                let (flag, cv) = &*started;
                *flag.lock() = true;
                cv.notify_one();
                second.store(handle.is_cancelled(), Ordering::SeqCst);
                Err::<(), _>(std::io::Error::other("diverged"))
            });
        }
        for (name, key) in [("after", k), ("free", free)] {
            let ran = ran.clone();
            scope
                .task(name)
                .read_write(key)
                .spawn(move || ran.lock().unwrap().push(name));
        }
        canceller.join().unwrap();
        assert!(handle.is_cancelled());
        let err = scope.wait().unwrap_err();
        let cancel_first = fail_came_second.load(Ordering::SeqCst);
        let fail_first = cancel_came_second.load(Ordering::SeqCst);
        assert!(!(cancel_first && fail_first), "both entries came first");
        if cancel_first {
            assert!(err.is_cancelled(), "cancel latched first, wait says {err}");
        }
        if fail_first {
            assert!(
                err.task == "fail",
                "the failure latched first, wait says {err}"
            );
        }
        assert!(err.is_cancelled() || (err.task == "fail" && !err.is_panic()));
        let ran = ran.lock().unwrap().clone();
        assert!(!ran.contains(&"after"), "released by a failure: {ran:?}");
        let order: Vec<&str> = rt
            .take_scope_trace(&scope)
            .records
            .iter()
            .map(|r| r.name)
            .collect();
        assert_eq!(order.len(), 3, "every task executed or skipped once");
        let started = order.iter().take_while(|n| ran.contains(n)).count();
        assert_eq!(started, ran.len(), "a body ran after a skip: {order:?}");
        // `wait` cleared the latch: the scope's next phase runs.
        assert!(!handle.is_cancelled());
        scope.task("again").spawn(|| {});
        scope.wait().unwrap();
    });
    assert_explored(&report, 4500);
}

#[test]
fn reintroduced_wiring_race_is_caught_as_deadlock() {
    // The mutation proof: `Mutation::Wiring` re-creates the
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
        let rt = Runtime::new_mutated(1, false, Mutation::Wiring);
        let scope = rt.scope();
        let k = DataKey::new(0, 0);
        scope.task("A").write(k).spawn(|| {});
        scope.task("B").read(k).spawn(|| {});
        scope.wait().unwrap();
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

/// Explore `scenario`, which runs a runtime carrying a seeded bug: the
/// model checker must report a deadlock within `budget` interleavings.
fn mutation_deadlocks(budget: usize, scenario: impl Fn() + Send + Sync + 'static) {
    let report = Builder {
        max_dfs_executions: budget,
        random_iterations: budget,
        ..Builder::default()
    }
    .check(scenario);
    let failure = report.failure.unwrap_or_else(|| {
        panic!(
            "model checker missed the mutation in {} interleavings",
            report.executions
        )
    });
    assert!(
        failure.contains("deadlock"),
        "expected a deadlock report, got: {failure}"
    );
}

#[test]
fn reintroduced_lost_wakeup_is_caught_as_deadlock() {
    // `Mutation::Park`: a worker that finds both lanes empty, lets the
    // ready lock go, and waits under a fresh hold without looking again.
    // A task released in that gap finds no waiter to notify, so the
    // worker sleeps beside it and the master never returns from `wait`.
    mutation_deadlocks(4000, || {
        let rt = Runtime::new_mutated(1, false, Mutation::Park);
        let scope = rt.scope();
        for _ in 0..2 {
            scope.task("p").spawn(|| {});
            scope.wait().unwrap();
        }
    });
}

/// A fork group of two tasks, each of which starts and then waits for the
/// other to have started, joined by the inline task submitted after it.
/// With one fork worker the pair can only both finish if the submitter
/// runs the one still queued: a join that slept through it would leave
/// the worker waiting on a task nobody pops.
fn fork_pair_then_inline(rt: &Runtime) {
    rt.enable_tracing();
    let scope = rt.scope();
    let k = DataKey::new(0, 0);
    let started = Arc::new((LoomMutex::new([false; 2]), LoomCondvar::new()));
    for me in 0..2 {
        let started = started.clone();
        scope.task("group").gatherv(k).fork().spawn(move || {
            let (flags, cv) = &*started;
            let mut up = flags.lock();
            up[me] = true;
            cv.notify_all();
            while !up[1 - me] {
                cv.wait(&mut up);
            }
        });
    }
    let joined = Arc::new(AtomicBool::new(false));
    {
        let (started, joined) = (started.clone(), joined.clone());
        scope.task("after").read_write(k).spawn(move || {
            let up = *started.0.lock();
            joined.store(up == [true; 2], Ordering::SeqCst);
        });
    }
    scope.wait().unwrap();
    assert!(joined.load(Ordering::SeqCst), "ran before its group joined");
    let trace = rt.take_trace();
    let mut lanes: Vec<(&str, usize)> = trace.records.iter().map(|r| (r.name, r.worker)).collect();
    lanes.sort();
    // Lane 0 is the fork worker, lane 1 the submitter.
    assert_eq!(lanes, [("after", 1), ("group", 0), ("group", 1)]);
}

#[test]
fn fork_join_runs_a_queued_group_task_on_the_submitter() {
    // `join_forked` on an inline runtime with one fork worker: the
    // submitter pops the group task still queued and runs it itself,
    // whichever task the worker took and whenever it took it, and sleeps
    // in `drain` only once nothing of the group is left to pop.
    let report = Builder {
        max_dfs_executions: 3000,
        random_iterations: 1500,
        ..Builder::default()
    }
    .check(|| fork_pair_then_inline(&Runtime::inline(1)));
    assert_explored(&report, 4500);
}

#[test]
fn join_that_drains_before_popping_is_caught_as_deadlock() {
    // `Mutation::Join`: the submitter sleeps until the group is done
    // before it pops, so the group task the worker is not running stays
    // queued while the worker waits for it to start.
    mutation_deadlocks(4000, || {
        fork_pair_then_inline(&Runtime::new_mutated(1, true, Mutation::Join))
    });
}
