//! Integration tests for the access-check shadow tracker, which every
//! debug build runs (a release build compiles it out, so this file is
//! empty there).
//!
//! Well-declared graphs must pass untouched; every seeded misdeclaration
//! (a borrow outside the task's declared footprint, or overlapping
//! concurrent GatherV writers) must surface as a `RuntimeError` whose
//! message names the offending task.

#![cfg(debug_assertions)]

use dcst_runtime::{DataKey, Runtime, SharedData};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

const OBJ: u64 = 7;

fn key(i: usize) -> DataKey {
    DataKey::new(OBJ, i as u64)
}

#[test]
fn well_declared_fanout_join_passes() {
    let rt = Runtime::new(3);
    let scope = rt.scope();
    let buf = SharedData::new(vec![0usize; 64]);
    buf.bind_keys(&[key(0)]);
    {
        let buf = buf.clone();
        scope.task("init").write(key(0)).spawn(move || {
            // SAFETY: first writer epoch, exclusive by construction.
            let s = unsafe { buf.slice_mut() };
            s.iter_mut().for_each(|x| *x = 1);
        });
    }
    for chunk in 0..8 {
        let buf = buf.clone();
        scope.task("partial").gatherv(key(0)).spawn(move || {
            // SAFETY: disjoint 8-element ranges per GatherV writer.
            let s = unsafe { buf.range_mut(chunk * 8..(chunk + 1) * 8) };
            s.iter_mut().for_each(|x| *x += chunk);
        });
    }
    {
        let buf = buf.clone();
        scope.task("join").read(key(0)).spawn(move || {
            // SAFETY: shared read after the GatherV group closed.
            let s = unsafe { buf.slice() };
            let total: usize = s.iter().sum();
            assert_eq!(total, 64 + 8 * (0..8).sum::<usize>());
        });
    }
    scope.wait().unwrap();
}

#[test]
fn mutable_borrow_under_read_declaration_is_caught() {
    let rt = Runtime::new(2);
    let scope = rt.scope();
    let buf = SharedData::new(vec![0.0f64; 16]);
    buf.bind_keys(&[key(0)]);
    {
        let buf = buf.clone();
        scope.task("liar").read(key(0)).spawn(move || {
            // Declared INPUT, takes an exclusive borrow: footprint error.
            // SAFETY: the tracker panics before the alias is created.
            let _s = unsafe { buf.range_mut(0..4) };
        });
    }
    let err = scope.wait().unwrap_err();
    assert_eq!(err.task, "liar");
    assert!(
        err.message().contains("access-check") && err.message().contains("mutable"),
        "unexpected message: {}",
        err.message()
    );
}

#[test]
fn borrow_of_undeclared_buffer_is_caught() {
    let rt = Runtime::new(2);
    let scope = rt.scope();
    let a = SharedData::new(vec![0.0f64; 16]);
    let b = SharedData::new(vec![0.0f64; 16]);
    a.bind_keys(&[key(0)]);
    b.bind_keys(&[key(1)]);
    {
        let b = b.clone();
        scope.task("stray").write(key(0)).spawn(move || {
            // Declares only key 0, touches the buffer bound to key 1.
            // SAFETY: the tracker panics before the alias is created.
            let _s = unsafe { b.range(0..1) };
        });
    }
    let err = scope.wait().unwrap_err();
    assert_eq!(err.task, "stray");
    assert!(
        err.message().contains("declared no matching access"),
        "unexpected message: {}",
        err.message()
    );
}

#[test]
fn unbound_buffer_borrowed_in_a_task_is_caught() {
    let rt = Runtime::new(2);
    let scope = rt.scope();
    let buf = SharedData::new(vec![0.0f64; 8]);
    // No bind_keys: no declared access can cover a borrow of this buffer.
    {
        let buf = buf.clone();
        scope.task("unbound").write(key(0)).spawn(move || {
            // SAFETY: the tracker panics before the alias is created.
            let _s = unsafe { buf.range_mut(0..8) };
        });
    }
    let err = scope.wait().unwrap_err();
    assert_eq!(err.task, "unbound");
    assert!(
        err.message().contains("never bound"),
        "unexpected message: {}",
        err.message()
    );
    // Borrows from the master thread (no task context) are skipped, bound
    // or not.
    // SAFETY: no task is running.
    unsafe { buf.range_mut(0..8) }.fill(2.0);
    buf.bind_keys(&[key(0)]);
    // SAFETY: no task is running.
    let _s = unsafe { buf.range(0..8) };
}

#[test]
fn an_earlier_sibling_does_not_lend_its_write() {
    let rt = Runtime::new(2);
    let scope = rt.scope();
    let buf = SharedData::new(vec![0.0f64; 8]);
    buf.bind_keys(&[key(0)]);
    {
        let buf = buf.clone();
        scope.task("writer").write(key(0)).spawn(move || {
            // SAFETY: exclusive writer epoch.
            unsafe { buf.range_mut(0..8) }.fill(1.0);
        });
    }
    {
        let buf = buf.clone();
        // The same scope declared a write on key 0 one task earlier; this
        // task declares only a read, so its exclusive borrow is its own
        // misdeclaration.
        scope.task("reader").read(key(0)).spawn(move || {
            // SAFETY: the tracker panics before the alias is created.
            let _s = unsafe { buf.range_mut(0..8) };
        });
    }
    let err = scope.wait().unwrap_err();
    assert_eq!(err.task, "reader");
    assert!(
        err.message().contains("declared no matching access"),
        "unexpected message: {}",
        err.message()
    );
    let v = buf.try_unwrap().unwrap_or_else(|_| panic!("unique"));
    assert_eq!(v, vec![1.0; 8], "the writer ran and was not blamed");
}

/// Runs one empty task on a fresh inline runtime from inside the calling
/// task's body, as the D&C subset fallback runs MRRR.
fn run_nested_task() {
    let inner = Runtime::inline(0);
    let scope = inner.scope();
    scope.task("Inner").spawn(|| {});
    scope.wait().unwrap();
}

#[test]
fn nested_task_leaves_the_outer_footprint_checked() {
    let rt = Runtime::new(2);
    let scope = rt.scope();
    let a = SharedData::new(vec![0.0f64; 8]);
    let b = SharedData::new(vec![0.0f64; 8]);
    a.bind_keys(&[key(0)]);
    b.bind_keys(&[key(1)]);
    scope.task("Outer").write(key(0)).spawn(move || {
        // SAFETY: Outer's declared buffer, and the scope's only task.
        unsafe { a.range_mut(0..8) }.fill(1.0);
        run_nested_task();
        // Key 1 is outside Outer's footprint: the nested task must have
        // handed Outer's context back for this to be caught.
        // SAFETY: the tracker panics before the alias is created.
        let _s = unsafe { b.range_mut(0..8) };
    });
    let err = scope.wait().unwrap_err();
    assert_eq!(err.task, "Outer");
    assert!(
        err.message().contains("declared no matching access"),
        "unexpected message: {}",
        err.message()
    );
}

#[test]
fn nested_task_leaves_no_stale_outer_borrow() {
    let rt = Runtime::new(2);
    let scope = rt.scope();
    let buf = SharedData::new(vec![0.0f64; 8]);
    buf.bind_keys(&[key(0)]);
    {
        let buf = buf.clone();
        scope.task("First").write(key(0)).spawn(move || {
            // SAFETY: exclusive writer epoch.
            unsafe { buf.range_mut(0..8) }.fill(1.0);
            run_nested_task();
        });
    }
    {
        let buf = buf.clone();
        // Ordered after First by the write on key 0, so First's borrow
        // must have retired with First, nested task or not.
        scope.task("Second").write(key(0)).spawn(move || {
            // SAFETY: exclusive writer epoch.
            unsafe { buf.range_mut(0..8) }.fill(2.0);
        });
    }
    scope.wait().unwrap();
    let v = buf.try_unwrap().unwrap_or_else(|_| panic!("unique"));
    assert_eq!(v, vec![2.0; 8]);
}

/// Raises its flag when dropped, normally or by a panic's unwind.
struct SetOnDrop(Arc<AtomicBool>);

impl Drop for SetOnDrop {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

#[test]
fn overlapping_gatherv_writers_are_caught() {
    let rt = Runtime::new(2);
    let scope = rt.scope();
    let buf = SharedData::new(vec![0.0f64; 100]);
    buf.bind_keys(&[key(0)]);
    let a_borrowed = Arc::new(AtomicBool::new(false));
    let b_attempted = Arc::new(AtomicBool::new(false));
    {
        let buf = buf.clone();
        let (a_borrowed, b_attempted) = (a_borrowed.clone(), b_attempted.clone());
        scope.task("gatherA").gatherv(key(0)).spawn(move || {
            // SAFETY: the overlapping second borrow panics in the tracker
            // before an alias to this range is created.
            let _s = unsafe { buf.range_mut(0..60) };
            a_borrowed.store(true, Ordering::SeqCst);
            // Hold the borrow live until B has tried (and failed) to take
            // an overlapping range: B flags from a drop guard that runs
            // *after* its attempt, on the unwind path too, so `_s` is still
            // live when the tracker looks and this loop still terminates.
            while !b_attempted.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
        });
    }
    {
        let buf = buf.clone();
        let (a_borrowed, b_attempted) = (a_borrowed.clone(), b_attempted.clone());
        scope.task("gatherB").gatherv(key(0)).spawn(move || {
            while !a_borrowed.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
            // Declared before the borrow, so dropped after it — or by the
            // unwind out of `range_mut`.
            let _attempted = SetOnDrop(b_attempted);
            // Declaration-correct (GATHERV on the right key) but ranges
            // overlap 40..60: the live-interval check must fire.
            // SAFETY: the tracker panics before the alias is created.
            let _s = unsafe { buf.range_mut(40..100) };
        });
    }
    let err = scope.wait().unwrap_err();
    assert_eq!(err.task, "gatherB");
    assert!(
        err.message().contains("overlapping concurrent borrows")
            && err.message().contains("gatherA"),
        "unexpected message: {}",
        err.message()
    );
}

/// Task shape drawn by the random-DAG property test below: a buffer index
/// and a declared access mode the body honours (unless sabotaged).
const MODE_READ: usize = 0;
const MODE_WRITE: usize = 1;
const MODE_READ_WRITE: usize = 2;
const MODE_GATHERV: usize = 3;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn random_dags_accept_honest_tasks_and_reject_misdeclared(
        num_bufs in 1usize..4,
        tasks in collection::vec((0usize..4, 0usize..4), 3..12),
        sabotage in 0usize..2,
        victim_pick in 0usize..64,
    ) {
        let sabotage = sabotage == 1;
        let victim = victim_pick % tasks.len();
        // The pool and the inline discipline install the same task context,
        // so both must accept the honest DAG and catch the saboteur.
        for rt in [Runtime::new(3), Runtime::inline(0)] {
            let scope = rt.scope();
            let bufs: Vec<SharedData<f64>> = (0..num_bufs)
                .map(|i| {
                    let b = SharedData::new(vec![0.0f64; 64]);
                    b.bind_keys(&[key(i)]);
                    b
                })
                .collect();
            // Hands each GatherV writer of a buffer its own disjoint 4-element
            // chunk (at most 11 tasks per case, so chunks stay in bounds).
            let chunk_counters: Arc<Vec<AtomicUsize>> =
                Arc::new((0..num_bufs).map(|_| AtomicUsize::new(0)).collect());

            for (t, &(mode, buf_pick)) in tasks.iter().enumerate() {
                let bi = buf_pick % num_bufs;
                let buf = bufs[bi].clone();
                let counters = chunk_counters.clone();
                if sabotage && t == victim {
                    // Misdeclared: INPUT on the right key, exclusive borrow in
                    // the body. Schedule-independent; must always be caught.
                    scope.task("saboteur").read(key(bi)).spawn(move || {
                        // SAFETY: the tracker panics before the alias exists.
                        let _s = unsafe { buf.range_mut(0..8) };
                    });
                    continue;
                }
                match mode {
                    MODE_READ => {
                        scope.task("reader").read(key(bi)).spawn(move || {
                            // SAFETY: ordered after every writer epoch.
                            let s = unsafe { buf.slice() };
                            let _ = s.iter().sum::<f64>();
                        });
                    }
                    MODE_WRITE => {
                        scope.task("writer").write(key(bi)).spawn(move || {
                            // SAFETY: exclusive writer epoch.
                            let s = unsafe { buf.slice_mut() };
                            s.iter_mut().for_each(|x| *x += 1.0);
                        });
                    }
                    MODE_READ_WRITE => {
                        scope.task("updater").read_write(key(bi)).spawn(move || {
                            // SAFETY: exclusive writer epoch.
                            let s = unsafe { buf.slice_mut() };
                            s.iter_mut().for_each(|x| *x *= 2.0);
                        });
                    }
                    MODE_GATHERV => {
                        scope.task("gather").gatherv(key(bi)).spawn(move || {
                            let c = counters[bi].fetch_add(1, Ordering::SeqCst);
                            // SAFETY: per-writer disjoint chunk of the group.
                            let s = unsafe { buf.range_mut(c * 4..(c + 1) * 4) };
                            s.iter_mut().for_each(|x| *x += 1.0);
                        });
                    }
                    _ => unreachable!(),
                }
            }

            let result = scope.wait();
            if sabotage {
                let err = result.expect_err("misdeclaration went undetected");
                prop_assert_eq!(err.task.as_str(), "saboteur");
                prop_assert!(
                    err.message().contains("access-check"),
                    "unexpected message: {}",
                    err.message()
                );
            } else {
                prop_assert!(result.is_ok(), "honest DAG rejected: {:?}", result.err());
            }
        }
    }
}
