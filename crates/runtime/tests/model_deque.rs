//! Model-checked interleaving tests for the lock-free queues in
//! `vendor/crossbeam-deque`, compiled under `--cfg dcst_model_check` so
//! their every atomic access and fence routes through loom-lite and
//! becomes a schedule point. The segment-list injector is the pool's
//! only queue (two of them: the priority lane and the normal one); the
//! Chase–Lev worker deque is driven only by `dcst_bench::sched::storm`.
//!
//! These scenarios state the TLA⁺ invariants of the SNIPPETS.md
//! work-stealing spec directly against the production protocol:
//!
//! * **No lost task / no double execution** (W1, W2): every pushed item is
//!   delivered to exactly one party, across pop/steal CAS races, buffer
//!   growth, and concurrent injector consumers.
//! * **LIFO-local / FIFO-steal order** (W3): owners pop newest-first,
//!   thieves and the injector deliver oldest-first.
//! * The **mutation test** weakens the pop-side CAS to a plain store
//!   (`Worker::new_lifo_with_buggy_pop`, compiled only under this cfg) and
//!   proves the checker catches the resulting double delivery.
//!
//! Same ground rules as `model.rs` (std atomics for bookkeeping, tiny
//! scenarios), with one refinement: loops that retry on `Steal::Retry` are
//! permitted because a `Retry` is only ever returned after *another*
//! thread won the contended CAS — each retry implies someone else consumed
//! an item, so the loops are bounded by the item count, and every
//! iteration passes through instrumented (scheduling) operations.

#![cfg(dcst_model_check)]

use crossbeam_deque::{Injector, Steal, Worker};
use loom_lite::Builder;
// Test bookkeeping only, never a pool primitive. xtask-lint: allow(pool-sync)
use std::sync::atomic::{AtomicUsize, Ordering};
// xtask-lint: allow(pool-sync)
use std::sync::Arc;

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

/// Steal until `Empty`, accumulating into `sum`/`count`. Bounded: every
/// `Retry` means the competing owner/consumer just won an item.
fn drain_stealer(s: &crossbeam_deque::Stealer<usize>, sum: &AtomicUsize, count: &AtomicUsize) {
    loop {
        match s.steal() {
            Steal::Success(v) => {
                sum.fetch_add(v, Ordering::SeqCst);
                count.fetch_add(1, Ordering::SeqCst);
            }
            Steal::Retry => continue,
            Steal::Empty => return,
        }
    }
}

#[test]
fn steal_and_pop_deliver_each_item_exactly_once() {
    // One owner, one thief, two items: the canonical pop/steal race. The
    // single-element case forces the owner through its top CAS against the
    // thief's; exactly one of them may deliver that item.
    let report = Builder {
        max_dfs_executions: 9000,
        random_iterations: 3000,
        ..Builder::default()
    }
    .check(|| {
        let w = Worker::new_lifo();
        w.push(1usize);
        w.push(2);
        let s = w.stealer();
        let sum = Arc::new(AtomicUsize::new(0));
        let count = Arc::new(AtomicUsize::new(0));
        let (s2, c2) = (sum.clone(), count.clone());
        let h = loom_lite::thread::spawn(move || {
            let st = s;
            drain_stealer(&st, &s2, &c2);
        });
        while let Some(v) = w.pop() {
            sum.fetch_add(v, Ordering::SeqCst);
            count.fetch_add(1, Ordering::SeqCst);
        }
        h.join().unwrap();
        // Owner stopped at None and the thief at Empty; anything still
        // undelivered would be dropped with the deque — caught here.
        assert_eq!(count.load(Ordering::SeqCst), 2, "lost or duplicated item");
        assert_eq!(sum.load(Ordering::SeqCst), 3, "wrong items delivered");
    });
    assert_explored(&report, 10_000);
}

#[test]
fn growth_under_concurrent_steal_preserves_every_item() {
    // Capacity-2 deque: the third concurrent push doubles the buffer while
    // the thief may be holding the *retired* buffer's pointer between its
    // speculative slot read and its top CAS — the epoch-free reclamation
    // window. Every item must still be delivered exactly once.
    let report = Builder {
        max_dfs_executions: 9000,
        random_iterations: 3000,
        ..Builder::default()
    }
    .check(|| {
        let w = Worker::new_lifo_with_capacity(2);
        w.push(1usize);
        w.push(2);
        let s = w.stealer();
        let sum = Arc::new(AtomicUsize::new(0));
        let count = Arc::new(AtomicUsize::new(0));
        let (s2, c2) = (sum.clone(), count.clone());
        let h = loom_lite::thread::spawn(move || {
            let st = s;
            drain_stealer(&st, &s2, &c2);
        });
        // Concurrent with the thief: may grow (b - t hits 2) depending on
        // how many steals landed first; the DFS explores both.
        w.push(3);
        w.push(4);
        while let Some(v) = w.pop() {
            sum.fetch_add(v, Ordering::SeqCst);
            count.fetch_add(1, Ordering::SeqCst);
        }
        h.join().unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 4, "lost or duplicated item");
        assert_eq!(sum.load(Ordering::SeqCst), 10, "wrong items delivered");
    });
    assert_explored(&report, 10_000);
}

#[test]
fn two_consumers_drain_the_injector_exactly_once() {
    // The pool's one consumer pattern: two workers each looping
    // `Injector::steal` over the same queue (head CAS per item, `Retry`
    // re-polled). Each of the three items is delivered to exactly one
    // side.
    let report = Builder {
        max_dfs_executions: 9000,
        random_iterations: 3000,
        ..Builder::default()
    }
    .check(|| {
        let inj = Arc::new(Injector::new());
        inj.push(1usize);
        inj.push(2);
        inj.push(3);
        let sum = Arc::new(AtomicUsize::new(0));
        let count = Arc::new(AtomicUsize::new(0));
        let consume = {
            let (inj, sum, count) = (inj.clone(), sum.clone(), count.clone());
            move || loop {
                match inj.steal() {
                    Steal::Success(v) => {
                        sum.fetch_add(v, Ordering::SeqCst);
                        count.fetch_add(1, Ordering::SeqCst);
                    }
                    Steal::Retry => continue,
                    Steal::Empty => return,
                }
            }
        };
        let h = loom_lite::thread::spawn(consume.clone());
        consume();
        h.join().unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 3, "lost or duplicated item");
        assert_eq!(sum.load(Ordering::SeqCst), 6, "wrong items delivered");
    });
    assert_explored(&report, 10_000);
}

#[test]
fn hi_injector_drained_before_normal_injector() {
    // The pool-level drain-order guarantee, restated against the lock-free
    // injectors: a consumer that polls the priority lane before the normal
    // injector (exactly `find_task`'s order, Retry re-entering from the
    // top) must deliver a queued high item before any normal item, even
    // with a second consumer racing it for both queues.
    let report = Builder {
        max_dfs_executions: 9000,
        random_iterations: 3000,
        ..Builder::default()
    }
    .check(|| {
        let hi = Arc::new(Injector::new());
        let lo = Arc::new(Injector::new());
        hi.push(100usize);
        lo.push(1);
        lo.push(2);
        let violations = Arc::new(AtomicUsize::new(0));
        let taken = Arc::new(AtomicUsize::new(0));
        let consume = {
            let (hi, lo) = (hi.clone(), lo.clone());
            let (violations, taken) = (violations.clone(), taken.clone());
            move || loop {
                match hi.steal() {
                    Steal::Success(_) => {
                        taken.fetch_add(1, Ordering::SeqCst);
                        continue;
                    }
                    Steal::Retry => continue,
                    Steal::Empty => {}
                }
                match lo.steal() {
                    Steal::Success(_) => {
                        // Nothing pushes to `hi` after setup, so its
                        // emptiness is monotone: having polled it Empty
                        // before this claim, it must still be empty now. A
                        // consumer that skipped the priority poll (or a
                        // spurious Empty from the lane) shows up here.
                        if !hi.is_empty() {
                            violations.fetch_add(1, Ordering::SeqCst);
                        }
                        taken.fetch_add(1, Ordering::SeqCst);
                        continue;
                    }
                    Steal::Retry => continue,
                    Steal::Empty => return,
                }
            }
        };
        let other = consume.clone();
        let h = loom_lite::thread::spawn(other);
        consume();
        h.join().unwrap();
        assert_eq!(taken.load(Ordering::SeqCst), 3, "lost or duplicated item");
        assert_eq!(
            violations.load(Ordering::SeqCst),
            0,
            "normal item delivered while the priority lane still held work"
        );
    });
    assert_explored(&report, 10_000);
}

#[test]
fn mutation_weakened_pop_cas_is_caught_as_double_delivery() {
    // The seeded mutation: `new_lifo_with_buggy_pop` claims the final
    // element with a plain `top` store instead of the CAS. In the
    // interleaving where the thief's CAS lands between the owner's bottom
    // decrement and its store, both sides deliver the same item — the
    // checker must find that schedule and report the assertion panic.
    let report = Builder {
        max_dfs_executions: 6000,
        random_iterations: 6000,
        ..Builder::default()
    }
    .check(|| {
        let w = Worker::new_lifo_with_buggy_pop();
        w.push(7usize);
        let s = w.stealer();
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = count.clone();
        let h = loom_lite::thread::spawn(move || {
            let st = s;
            loop {
                match st.steal() {
                    Steal::Success(_) => {
                        c2.fetch_add(1, Ordering::SeqCst);
                        return;
                    }
                    Steal::Retry => continue,
                    Steal::Empty => return,
                }
            }
        });
        if w.pop().is_some() {
            count.fetch_add(1, Ordering::SeqCst);
        }
        h.join().unwrap();
        assert!(
            count.load(Ordering::SeqCst) <= 1,
            "item delivered to both owner and thief"
        );
    });
    let failure = report.failure.unwrap_or_else(|| {
        panic!(
            "model checker missed the weakened-CAS double delivery in {} interleavings",
            report.executions
        )
    });
    assert!(
        failure.contains("panic"),
        "expected the double-delivery assertion panic, got: {failure}"
    );
}
