//! Runtime semantics under stress: ordering guarantees, panic containment,
//! GATHERV group interleavings, DAG recording, trace integrity.

use dcst_runtime::{DataKey, Runtime, SharedData};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

#[test]
fn deep_chain_runs_in_order_under_many_workers() {
    let rt = Runtime::new(4);
    let scope = rt.scope();
    let k = DataKey::new(1, 0);
    let log = Arc::new(Mutex::new(Vec::new()));
    for i in 0..500usize {
        let log = log.clone();
        scope
            .task("chain")
            .read_write(k)
            .spawn(move || log.lock().unwrap().push(i));
    }
    scope.wait().unwrap();
    assert_eq!(*log.lock().unwrap(), (0..500).collect::<Vec<_>>());
}

#[test]
fn wide_fanout_then_join_counts_everything() {
    let rt = Runtime::new(3);
    let scope = rt.scope();
    let root = DataKey::new(2, 0);
    let sum = Arc::new(AtomicUsize::new(0));
    scope.task("init").write(root).spawn(|| {});
    for i in 1..=200usize {
        let sum = sum.clone();
        scope.task("leaf").gatherv(root).spawn(move || {
            sum.fetch_add(i, Ordering::Relaxed);
        });
    }
    let observed = Arc::new(AtomicUsize::new(0));
    let (s, o) = (sum.clone(), observed.clone());
    scope.task("join").read_write(root).spawn(move || {
        o.store(s.load(Ordering::Relaxed), Ordering::Relaxed);
    });
    scope.wait().unwrap();
    assert_eq!(observed.load(Ordering::Relaxed), 100 * 201);
}

#[test]
fn alternating_gatherv_epochs_are_separated() {
    // G G | R | G G | W : each phase must see the previous complete.
    let rt = Runtime::new(4);
    let scope = rt.scope();
    let k = DataKey::new(3, 0);
    let counter = Arc::new(AtomicUsize::new(0));
    for _ in 0..2 {
        let c = counter.clone();
        scope.task("g1").gatherv(k).spawn(move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
    }
    let c = counter.clone();
    scope
        .task("r")
        .read(k)
        .spawn(move || assert_eq!(c.load(Ordering::SeqCst), 2));
    for _ in 0..2 {
        let c = counter.clone();
        scope.task("g2").gatherv(k).spawn(move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
    }
    let c = counter.clone();
    scope
        .task("w")
        .write(k)
        .spawn(move || assert_eq!(c.load(Ordering::SeqCst), 4));
    scope.wait().unwrap();
}

#[test]
fn panicking_task_does_not_deadlock_successors() {
    // A panic latches cancellation: successor bodies are skipped, but the
    // bookkeeping still runs so wait() terminates and reports the panic.
    let rt = Runtime::new(2);
    let scope = rt.scope();
    let k = DataKey::new(4, 0);
    let ran = Arc::new(AtomicUsize::new(0));
    scope.task("boom").write(k).spawn(|| panic!("first"));
    let r = ran.clone();
    scope.task("after").read(k).spawn(move || {
        r.fetch_add(1, Ordering::SeqCst);
    });
    let err = scope.wait().unwrap_err();
    assert_eq!(err.task, "boom");
    assert_eq!(
        ran.load(Ordering::SeqCst),
        0,
        "successor body must be skipped once the failure latches"
    );
}

#[test]
fn only_first_panic_is_reported() {
    let rt = Runtime::new(2);
    let scope = rt.scope();
    let k = DataKey::new(5, 0);
    scope.task("a").read_write(k).spawn(|| panic!("one"));
    scope.task("b").read_write(k).spawn(|| panic!("two"));
    let err = scope.wait().unwrap_err();
    let msg = err.message();
    assert!(msg == "one" || msg == "two");
    // Slot cleared afterwards.
    scope.task("ok").spawn(|| {});
    scope.wait().unwrap();
}

#[test]
fn typed_failure_cancels_dag_and_runtime_stays_usable() {
    #[derive(Debug)]
    struct Unstable(usize);
    impl std::fmt::Display for Unstable {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "kernel diverged at step {}", self.0)
        }
    }
    impl std::error::Error for Unstable {}

    let rt = Runtime::new(3);
    let scope = rt.scope();
    let k = DataKey::new(4, 1);
    let ran = Arc::new(AtomicUsize::new(0));
    scope
        .task("diverge")
        .write(k)
        .spawn_try(|| Err::<(), _>(Unstable(17)));
    for _ in 0..100 {
        let r = ran.clone();
        scope.task("dependent").read_write(k).spawn(move || {
            r.fetch_add(1, Ordering::SeqCst);
        });
    }
    let err = scope.wait().unwrap_err();
    assert_eq!(err.task, "diverge");
    let (_, e) = err.downcast::<Unstable>().expect("typed error survives");
    assert_eq!(e.0, 17);
    assert_eq!(ran.load(Ordering::SeqCst), 0, "all dependents skipped");
    // Next phase is clean.
    let c = ran.clone();
    scope.task("fresh").spawn(move || {
        c.fetch_add(1, Ordering::SeqCst);
    });
    scope.wait().unwrap();
    assert_eq!(ran.load(Ordering::SeqCst), 1);
}

#[test]
fn independent_tasks_submitted_before_failure_may_still_be_skipped_safely() {
    // Cancellation is a scope-wide latch, not a reachability analysis:
    // once any task fails, every not-yet-started body is skipped, even on
    // unrelated keys. wait() must still terminate and count everything.
    let rt = Runtime::new(1);
    let scope = rt.scope();
    let gate = DataKey::new(4, 2);
    scope
        .task("fail-first")
        .write(gate)
        .spawn_try(|| Err::<(), _>(std::io::Error::other("latch")));
    for i in 0..64u64 {
        scope
            .task("unrelated")
            .write(DataKey::new(4, 10 + i))
            .spawn(|| {});
    }
    let err = scope.wait().unwrap_err();
    assert_eq!(err.task, "fail-first");
    // All 65 tasks were accounted for (wait returned), and the scope
    // accepts new work.
    scope.task("ok").spawn(|| {});
    scope.wait().unwrap();
}

#[test]
fn independent_key_spaces_fully_overlap() {
    // 4 independent chains must finish even with 1 worker (no deadlock
    // potential), and with 4 workers the logical clocks stay consistent.
    for threads in [1, 4] {
        let rt = Runtime::new(threads);
        let scope = rt.scope();
        let cells: Vec<Arc<AtomicUsize>> = (0..4).map(|_| Arc::new(AtomicUsize::new(0))).collect();
        #[allow(clippy::needless_range_loop)]
        for chain in 0..4usize {
            let k = DataKey::new(6, chain as u64);
            for step in 0..50usize {
                let cell = cells[chain].clone();
                scope.task("step").read_write(k).spawn(move || {
                    let prev = cell.swap(step + 1, Ordering::SeqCst);
                    assert_eq!(prev, step, "chain {chain}");
                });
            }
        }
        scope.wait().unwrap();
    }
}

#[test]
fn trace_covers_all_phases() {
    let rt = Runtime::new(2);
    let scope = rt.scope();
    rt.enable_tracing();
    for _ in 0..3 {
        scope.task("p1").spawn(|| {});
    }
    scope.wait().unwrap();
    for _ in 0..2 {
        scope.task("p2").spawn(|| {});
    }
    scope.wait().unwrap();
    let trace = rt.take_trace();
    assert_eq!(trace.records.len(), 5);
    let stats = trace.kernel_stats();
    assert_eq!(stats.iter().map(|s| s.count).sum::<usize>(), 5);
}

#[test]
fn traced_graph_chain_and_diamond() {
    let rt = Runtime::new(2);
    let scope = rt.scope();
    rt.enable_tracing();
    let a = DataKey::new(7, 1);
    let b = DataKey::new(7, 2);
    scope.task("src").write(a).write(b).spawn(|| {});
    scope.task("left").read_write(a).spawn(|| {});
    scope.task("right").read_write(b).spawn(|| {});
    scope.task("sink").read(a).read(b).spawn(|| {});
    scope.wait().unwrap();
    let dag = rt.take_trace();
    assert_eq!(dag.records.len(), 4);
    assert_eq!(dag.edges.len(), 4); // src→left, src→right, left→sink, right→sink
    assert_eq!(dag.critical_path_len(), 3);
    let dot = dag.to_dot();
    assert!(dot.contains("t0 -> t1;") && dot.contains("t0 -> t2;"));
}

#[test]
fn shared_data_ranges_partition_under_runtime() {
    let rt = Runtime::new(4);
    let scope = rt.scope();
    let buf = SharedData::new(vec![0u64; 64 * 16]);
    let k = DataKey::new(8, 0);
    buf.bind_keys(&[k]);
    for c in 0..64usize {
        let buf = buf.clone();
        scope.task("w").gatherv(k).spawn(move || {
            // SAFETY: disjoint 16-element ranges per task inside one
            // GatherV group.
            let s = unsafe { buf.range_mut(c * 16..(c + 1) * 16) };
            for (i, x) in s.iter_mut().enumerate() {
                *x = (c * 16 + i) as u64;
            }
        });
    }
    scope.wait().unwrap();
    let v = buf
        .try_unwrap()
        .unwrap_or_else(|_| panic!("unique after wait"));
    assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64));
}

#[test]
fn thousands_of_tiny_tasks_complete() {
    let rt = Runtime::new(4);
    let scope = rt.scope();
    let done = Arc::new(AtomicUsize::new(0));
    for i in 0..5000usize {
        let d = done.clone();
        let key = DataKey::new(9, (i % 37) as u64);
        scope.task("tiny").read_write(key).spawn(move || {
            d.fetch_add(1, Ordering::Relaxed);
        });
    }
    scope.wait().unwrap();
    assert_eq!(done.load(Ordering::Relaxed), 5000);
}

#[test]
fn inline_bodies_run_in_submission_order_on_the_calling_thread() {
    // No declared accesses at all: the only thing ordering these bodies is
    // that each one has already run when `spawn` returns.
    let rt = Runtime::inline(0);
    let scope = rt.scope();
    let me = std::thread::current().id();
    let log = Arc::new(Mutex::new(Vec::new()));
    for i in 0..100usize {
        let l = log.clone();
        scope.task("step").spawn(move || {
            assert_eq!(std::thread::current().id(), me);
            l.lock().unwrap().push(i);
        });
        assert_eq!(log.lock().unwrap().len(), i + 1, "ran at submission");
    }
    scope.wait().unwrap();
    assert_eq!(*log.lock().unwrap(), (0..100).collect::<Vec<_>>());
}

#[test]
fn inline_failure_is_typed_by_wait_and_skips_later_bodies() {
    let rt = Runtime::inline(0);
    let scope = rt.scope();
    let ran = Arc::new(AtomicUsize::new(0));
    let r = ran.clone();
    scope.task("before").spawn(move || {
        r.fetch_add(1, Ordering::SeqCst);
    });
    scope
        .task("diverge")
        .spawn_try(|| Err::<(), _>(std::io::Error::other("first")));
    scope
        .task("second-failure")
        .spawn_try(|| Err::<(), _>(std::io::Error::other("second")));
    for _ in 0..10 {
        let r = ran.clone();
        scope.task("after").spawn(move || {
            r.fetch_add(1, Ordering::SeqCst);
        });
    }
    let err = scope.wait().unwrap_err();
    assert_eq!(err.task, "diverge");
    let (_, io) = err.downcast::<std::io::Error>().expect("typed error");
    assert_eq!(io.to_string(), "first");
    assert_eq!(ran.load(Ordering::SeqCst), 1, "bodies after the failure");
    // A panic is contained the same way, and wait resets the latch.
    scope.task("boom").spawn(|| panic!("inline panic"));
    let err = scope.wait().unwrap_err();
    assert!(err.is_panic() && err.message().contains("inline panic"));
    let r = ran.clone();
    scope.task("fresh").spawn(move || {
        r.fetch_add(1, Ordering::SeqCst);
    });
    scope.wait().unwrap();
    assert_eq!(ran.load(Ordering::SeqCst), 2);
}

#[test]
fn inline_wait_is_reusable_and_trace_has_one_record_per_body() {
    let rt = Runtime::inline(0);
    let scope = rt.scope();
    rt.enable_tracing();
    for _phase in 0..3 {
        for _ in 0..4 {
            scope.task("body").spawn(|| {});
        }
        scope.wait().unwrap();
    }
    let trace = rt.take_trace();
    assert_eq!(trace.records.len(), 12);
    assert_eq!(trace.num_workers, 1);
    assert!(trace.edges.is_empty(), "inline mode tracks no dependencies");
    assert!(trace
        .records
        .iter()
        .all(|r| r.name == "body" && r.worker == 0 && r.end_us >= r.start_us));
    // Ids follow submission order.
    let ids: Vec<usize> = trace.records.iter().map(|r| r.id).collect();
    assert_eq!(ids, (0..12).collect::<Vec<_>>());
}

#[test]
fn forked_group_joins_before_the_next_inline_task() {
    let rt = Runtime::inline(2);
    let scope = rt.scope();
    rt.enable_tracing();
    let me = std::thread::current().id();
    let buf = SharedData::new(vec![0usize; 64]);
    let k = DataKey::new(10, 0);
    buf.bind_keys(&[k]);
    for round in 0..20usize {
        for chunk in 0..8usize {
            let buf = buf.clone();
            scope.task("panel").gatherv(k).fork().spawn(move || {
                // SAFETY: disjoint chunk per forked task of the group.
                let s = unsafe { buf.range_mut(chunk * 8..(chunk + 1) * 8) };
                s.iter_mut().for_each(|x| *x += 1);
            });
        }
        let buf = buf.clone();
        scope.task("join").read(k).spawn(move || {
            assert_eq!(std::thread::current().id(), me);
            // SAFETY: the forked group was joined before this body runs.
            let s = unsafe { buf.slice() };
            assert!(s.iter().all(|&x| x == round + 1), "round {round}");
        });
    }
    scope.wait().unwrap();
    let trace = rt.take_trace();
    assert_eq!(trace.records.len(), 20 * 9);
    assert_eq!(trace.num_workers, 3, "two fork workers + the caller's lane");
    // The declared accesses only feed the footprint check: an inline
    // runtime infers no edge from them, so the fork join alone orders each
    // join after its group.
    assert!(trace.edges.is_empty());
    // Inline bodies stay on the caller's lane; forked ones run wherever an
    // executor is free — the fork workers or the caller while it joins.
    assert!(trace
        .records
        .iter()
        .all(|r| r.name != "join" || r.worker == 2));
    // A forked group really is concurrent: two bodies that each wait for
    // the other to start deadlock unless two executors run them at once.
    let started: Arc<[AtomicUsize; 2]> = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
    for i in 0..2 {
        let started = started.clone();
        scope.task("rendezvous").fork().spawn(move || {
            started[i].store(1, Ordering::SeqCst);
            while started[1 - i].load(Ordering::SeqCst) == 0 {
                std::hint::spin_loop();
            }
        });
    }
    // A failing forked body latches the scope like any other.
    scope
        .task("bad-panel")
        .fork()
        .spawn_try(|| Err::<(), _>(std::io::Error::other("gemm")));
    let ran = Arc::new(AtomicUsize::new(0));
    let r = ran.clone();
    scope.task("after").spawn(move || {
        r.fetch_add(1, Ordering::SeqCst);
    });
    assert_eq!(scope.wait().unwrap_err().task, "bad-panel");
    assert_eq!(ran.load(Ordering::SeqCst), 0);
    // Without fork workers, fork() degrades to inline execution.
    let rt = Runtime::inline(0);
    let scope = rt.scope();
    scope.task("panel").fork().spawn(move || {
        assert_eq!(std::thread::current().id(), me);
    });
    scope.wait().unwrap();
}
