//! Per-submission-scope isolation: a failure or cancel in one scope must
//! never abort, mis-attribute, or stall another scope's tasks — the
//! property the serve daemon's concurrent requests stand on.

use dcst_runtime::{DataKey, Runtime, Scope};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Keys are scope-local names; the distinct bases below only keep the
/// tests readable.
fn key(base: u64, idx: u64) -> DataKey {
    DataKey::new(base, idx)
}

#[derive(Debug)]
struct Poison(&'static str);

impl std::fmt::Display for Poison {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "poisoned: {}", self.0)
    }
}

impl std::error::Error for Poison {}

/// Submit a chain of `len` tasks on `scope`, bumping `ran` per body; task
/// `fail_at` (if any) returns a typed error instead.
fn submit_chain(
    scope: &Scope<'_>,
    base: u64,
    len: usize,
    fail_at: Option<usize>,
    ran: &Arc<AtomicUsize>,
) {
    for i in 0..len {
        let ran = ran.clone();
        let b = scope.task("link").read_write(key(base, 0));
        if fail_at == Some(i) {
            b.spawn_try(move || Err::<(), _>(Poison("chain")));
        } else {
            b.spawn(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }
    }
}

#[test]
fn two_racing_graphs_one_poisoned_other_unaffected() {
    // The satellite regression: two scopes race on the shared pool; scope A
    // is poisoned mid-chain, scope B must run every task and wait() Ok.
    let rt = Runtime::new(4);
    for round in 0..20 {
        let sa = rt.scope();
        let sb = rt.scope();
        let ran_a = Arc::new(AtomicUsize::new(0));
        let ran_b = Arc::new(AtomicUsize::new(0));
        // Interleave submissions so the graphs genuinely coexist.
        submit_chain(&sa, 100 + round, 40, Some(5), &ran_a);
        submit_chain(&sb, 200 + round, 40, None, &ran_b);
        let err = sa.wait().expect_err("poisoned scope must fail");
        assert_eq!(err.task, "link");
        assert!(!err.is_panic() && !err.is_cancelled());
        let (_task, p) = err.downcast::<Poison>().expect("typed recovery");
        assert_eq!(p.0, "chain");
        sb.wait().expect("healthy scope must not see A's failure");
        assert_eq!(
            ran_b.load(Ordering::SeqCst),
            40,
            "every task of the healthy scope must run"
        );
        // The poisoned scope ran exactly the pre-failure prefix: its chain
        // is serialized by the key, and the latch skips the rest.
        assert_eq!(ran_a.load(Ordering::SeqCst), 5);
    }
}

#[test]
fn cancel_skips_queued_tasks_and_reports_cancelled() {
    // One worker, held busy by a gate so the rest of the scope's chain is
    // still queued when cancel() lands.
    let rt = Runtime::new(1);
    let scope = rt.scope();
    let started = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    {
        let (s, r) = (started.clone(), release.clone());
        scope.task("gate").read_write(key(300, 0)).spawn(move || {
            s.store(true, Ordering::SeqCst);
            while !r.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
        });
    }
    let ran = Arc::new(AtomicUsize::new(0));
    for _ in 0..30 {
        let ran = ran.clone();
        scope.task("queued").read_write(key(300, 0)).spawn(move || {
            ran.fetch_add(1, Ordering::SeqCst);
        });
    }
    while !started.load(Ordering::SeqCst) {
        std::hint::spin_loop();
    }
    scope.cancel();
    release.store(true, Ordering::SeqCst);
    let err = scope.wait().expect_err("cancelled scope must report it");
    assert!(err.is_cancelled());
    assert!(!err.is_panic());
    assert_eq!(err.message(), "cancelled");
    assert_eq!(
        ran.load(Ordering::SeqCst),
        0,
        "no queued body may start after cancel latches"
    );
    // The scope (and the runtime) stay usable.
    let hit = Arc::new(AtomicBool::new(false));
    let h = hit.clone();
    scope
        .task("next")
        .spawn(move || h.store(true, Ordering::SeqCst));
    scope.wait().unwrap();
    assert!(hit.load(Ordering::SeqCst));
}

#[test]
fn cancel_handle_works_from_another_thread() {
    let rt = Runtime::new(2);
    let scope = rt.scope();
    let release = Arc::new(AtomicBool::new(false));
    {
        let r = release.clone();
        scope.task("gate").read_write(key(310, 0)).spawn(move || {
            while !r.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
        });
    }
    let ran = Arc::new(AtomicUsize::new(0));
    for _ in 0..10 {
        let ran = ran.clone();
        scope.task("queued").read_write(key(310, 0)).spawn(move || {
            ran.fetch_add(1, Ordering::SeqCst);
        });
    }
    let handle = scope.cancel_handle();
    assert!(!handle.is_cancelled());
    let rel = release.clone();
    let canceller = std::thread::spawn(move || {
        handle.cancel();
        rel.store(true, Ordering::SeqCst);
    });
    let err = scope.wait().expect_err("handle cancel must latch");
    assert!(err.is_cancelled());
    assert_eq!(ran.load(Ordering::SeqCst), 0);
    canceller.join().unwrap();
}

#[test]
fn failure_beats_cancel_for_attribution() {
    // A scope that already failed keeps its typed error even if a control
    // plane cancels it afterwards — attribution must not be overwritten.
    let rt = Runtime::new(1);
    let scope = rt.scope();
    scope
        .task("boom")
        .read_write(key(320, 0))
        .spawn_try(|| Err::<(), _>(Poison("real failure")));
    // The single worker has retired "boom" once wait() would return; give
    // the failure time to latch by waiting, then cancel and re-check via a
    // second phase instead: cancel-after-failure within one phase.
    scope.cancel();
    let err = scope.wait().expect_err("must fail");
    // Either the failure latched first (typed) or cancel did (cancelled):
    // both are legal outcomes of the race, but a typed failure must never
    // be *replaced* by the cancel marker once latched. Run the
    // deterministic order too: failure strictly first.
    let scope2 = rt.scope();
    scope2
        .task("boom2")
        .read_write(key(321, 0))
        .spawn_try(|| Err::<(), _>(Poison("first")));
    let err2 = scope2.wait().expect_err("typed failure");
    assert!(!err2.is_cancelled(), "latched failure survives: {err2}");
    drop(err);
}

#[test]
fn priority_scope_tasks_overtake_normal_queue() {
    // One worker held busy; a normal scope floods the injector, then a
    // priority scope submits one task LAST — it must still run first.
    let rt = Runtime::new(1);
    let started = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let log: Arc<std::sync::Mutex<Vec<&'static str>>> = Arc::new(std::sync::Mutex::new(Vec::new()));
    let gate = rt.scope();
    {
        let (s, r) = (started.clone(), release.clone());
        gate.task("gate").spawn(move || {
            s.store(true, Ordering::SeqCst);
            while !r.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
        });
    }
    while !started.load(Ordering::SeqCst) {
        std::hint::spin_loop();
    }
    let normal = rt.scope();
    let boosted = rt.priority_scope();
    for _ in 0..8 {
        let log = log.clone();
        normal
            .task("panel")
            .spawn(move || log.lock().unwrap().push("panel"));
    }
    {
        let log = log.clone();
        boosted
            .task("urgent")
            .spawn(move || log.lock().unwrap().push("urgent"));
    }
    release.store(true, Ordering::SeqCst);
    boosted.wait().unwrap();
    normal.wait().unwrap();
    gate.wait().unwrap();
    let got = log.lock().unwrap().clone();
    assert_eq!(got.len(), 9);
    assert_eq!(
        got[0], "urgent",
        "priority-scope task must overtake queued normal work: {got:?}"
    );
}

#[test]
fn per_scope_traces_split_cleanly() {
    let rt = Runtime::new(2);
    rt.enable_tracing();
    let sa = rt.scope();
    let sb = rt.scope();
    for _ in 0..4 {
        sa.task("alpha").read_write(key(340, 0)).spawn(|| {});
    }
    for _ in 0..7 {
        sb.task("beta").read_write(key(341, 0)).spawn(|| {});
    }
    sa.wait().unwrap();
    sb.wait().unwrap();
    let ta = rt.take_scope_trace(&sa);
    assert_eq!(ta.records.len(), 4);
    assert!(ta.records.iter().all(|r| r.name == "alpha"));
    // Chain of 4 on one key → 3 edges, none crossing into scope B.
    assert_eq!(ta.edges.len(), 3);
    // Draining A leaves B's records intact and tracing still enabled.
    let tb = rt.take_scope_trace(&sb);
    assert_eq!(tb.records.len(), 7);
    assert!(tb.records.iter().all(|r| r.name == "beta"));
    assert_eq!(tb.edges.len(), 6);
    let sc = rt.scope();
    sc.task("gamma").spawn(|| {});
    sc.wait().unwrap();
    let tc = rt.take_scope_trace(&sc);
    assert_eq!(
        tc.records.len(),
        1,
        "tracing must stay enabled after drains"
    );
    // take_trace still drains whatever is left (nothing here) and disables.
    let rest = rt.take_trace();
    assert_eq!(rest.records.len(), 0);
}

#[test]
fn same_key_in_two_scopes_imposes_no_order() {
    // Keys are names within a scope: B's chain on key(7, 0) must run to
    // completion while A's first task on the *same* key is still blocked.
    let rt = Runtime::new(2);
    rt.enable_tracing();
    let sa = rt.scope();
    let sb = rt.scope();
    let started = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    {
        let (s, r) = (started.clone(), release.clone());
        sa.task("held").read_write(key(7, 0)).spawn(move || {
            s.store(true, Ordering::SeqCst);
            while !r.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
        });
    }
    sa.task("after-held").read_write(key(7, 0)).spawn(|| {});
    while !started.load(Ordering::SeqCst) {
        std::hint::spin_loop();
    }
    let ran_b = Arc::new(AtomicUsize::new(0));
    for _ in 0..2 {
        let ran_b = ran_b.clone();
        sb.task("free").read_write(key(7, 0)).spawn(move || {
            ran_b.fetch_add(1, Ordering::SeqCst);
        });
    }
    // A shared key namespace orders B behind A and this wait never returns:
    // time it out, and let A go either way so the pool can drain.
    let b_done = std::thread::scope(|ts| {
        let (tx, rx) = std::sync::mpsc::channel();
        let sb = &sb;
        ts.spawn(move || tx.send(sb.wait()));
        let got = rx.recv_timeout(std::time::Duration::from_secs(10));
        let a_still_blocked = !release.swap(true, Ordering::SeqCst);
        got.map(|res| (res, a_still_blocked))
    });
    let (res_b, a_still_blocked) = b_done.expect("scope B waited on scope A's task");
    res_b.unwrap();
    assert!(a_still_blocked);
    assert_eq!(ran_b.load(Ordering::SeqCst), 2);
    sa.wait().unwrap();
    // Each scope's chain is one edge, between its own two tasks.
    for scope in [&sa, &sb] {
        let t = rt.take_scope_trace(scope);
        let ids: Vec<usize> = t.records.iter().map(|r| r.id).collect();
        assert_eq!(ids.len(), 2);
        assert_eq!(t.edges.len(), 1);
        assert!(
            t.edges
                .iter()
                .all(|(from, to)| ids.contains(from) && ids.contains(to)),
            "edge into another scope: {:?} vs ids {ids:?}",
            t.edges
        );
    }
}

#[test]
fn scope_reuse_across_phases() {
    let rt = Runtime::new(2);
    let scope = rt.scope();
    let count = Arc::new(AtomicUsize::new(0));
    for phase in 0..3 {
        for _ in 0..10 {
            let c = count.clone();
            scope.task("p").spawn(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        scope.wait().unwrap();
        assert_eq!(count.load(Ordering::SeqCst), (phase + 1) * 10);
    }
}

#[test]
fn many_concurrent_scopes_under_stress() {
    // 8 scopes × 30 tasks interleaved; a third of the scopes poisoned at a
    // random-ish position. Exactly the poisoned scopes fail, each with its
    // own attribution, and every healthy scope runs all tasks.
    let rt = Runtime::new(4);
    for _ in 0..10 {
        let scopes: Vec<Scope<'_>> = (0..8).map(|_| rt.scope()).collect();
        let counters: Vec<Arc<AtomicUsize>> =
            (0..8).map(|_| Arc::new(AtomicUsize::new(0))).collect();
        for i in 0..30 {
            for (s, (scope, ran)) in scopes.iter().zip(counters.iter()).enumerate() {
                let poisoned = s % 3 == 0 && i == 7 + s;
                let ran = ran.clone();
                let b = scope.task("stress").read_write(key(2000 + s as u64, 0));
                if poisoned {
                    b.spawn_try(move || Err::<(), _>(Poison("stress")));
                } else {
                    b.spawn(move || {
                        ran.fetch_add(1, Ordering::SeqCst);
                    });
                }
            }
        }
        for (s, (scope, ran)) in scopes.iter().zip(counters.iter()).enumerate() {
            let res = scope.wait();
            if s % 3 == 0 {
                let err = res.expect_err("poisoned scope must fail");
                assert_eq!(err.task, "stress");
                // Chain serialized on one key: exactly the prefix ran.
                assert_eq!(ran.load(Ordering::SeqCst), 7 + s);
            } else {
                res.expect("healthy scope must pass");
                assert_eq!(ran.load(Ordering::SeqCst), 30);
            }
        }
    }
}
