//! Observability invariants under random task DAGs (proptest): trace
//! records, timeline analysis, the Chrome trace-event export, and the
//! scheduler counters must stay mutually consistent no matter how the
//! work-stealing pool interleaves execution.

use dcst_runtime::{jsonv, DataKey, Runtime};
use proptest::prelude::*;

/// One submitted task: which key it touches, how, and whether it goes to
/// the priority lane.
#[derive(Clone, Debug)]
struct Spec {
    key: usize,
    mode: u32, // 0 = read, 1 = write, 2 = gatherv
    hi: bool,
    spin: u32,
}

fn arb_dag() -> impl Strategy<Value = (usize, Vec<Spec>)> {
    let spec = (0usize..5, 0u32..3, 0u32..2, 0u32..200).prop_map(|(key, mode, hi, spin)| Spec {
        key,
        mode,
        hi: hi == 1,
        spin,
    });
    (1usize..5, proptest::collection::vec(spec, 1..40))
}

/// Run a DAG with tracing on; return the trace and the counter snapshot.
fn run(workers: usize, specs: &[Spec]) -> (dcst_runtime::Trace, dcst_runtime::RuntimeMetrics) {
    let rt = Runtime::new(workers);
    rt.enable_tracing();
    for s in specs {
        let key = DataKey::new(7, s.key as u64);
        let mut b = rt.task("t");
        b = match s.mode {
            0 => b.read(key),
            1 => b.write(key),
            _ => b.gatherv(key),
        };
        if s.hi {
            b = b.high_priority();
        }
        let spin = s.spin;
        b.spawn(move || {
            // A little real work so records have nonzero extent sometimes.
            let mut acc = 0u64;
            for i in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
            }
            std::hint::black_box(acc);
        });
    }
    rt.wait().unwrap();
    (rt.take_trace(), rt.runtime_metrics())
}

fn count_ph(events: &[jsonv::Json], ph: &str) -> usize {
    events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some(ph))
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Per-worker lanes are serial: records on one worker never overlap,
    /// total busy time fits in `makespan × workers`, and the idle fraction
    /// is a fraction.
    #[test]
    fn timelines_are_serial_and_bounded((workers, specs) in arb_dag()) {
        let (trace, _) = run(workers, &specs);
        prop_assert_eq!(trace.records.len(), specs.len());
        prop_assert_eq!(trace.num_workers, workers);

        for w in 0..workers {
            let mut lane: Vec<_> = trace
                .records
                .iter()
                .filter(|r| r.worker == w)
                .collect();
            lane.sort_by_key(|r| (r.start_us, r.end_us));
            for pair in lane.windows(2) {
                prop_assert!(
                    pair[0].end_us <= pair[1].start_us,
                    "worker {w}: [{},{}] overlaps [{},{}]",
                    pair[0].start_us, pair[0].end_us, pair[1].start_us, pair[1].end_us
                );
            }
        }

        prop_assert!(trace.busy_us() <= trace.makespan_us() * workers as u64);
        let idle = trace.idle_fraction();
        prop_assert!((0.0..=1.0).contains(&idle), "idle fraction {idle}");

        let lanes = trace.worker_timelines();
        prop_assert_eq!(lanes.len(), workers);
        let tasks: usize = lanes.iter().map(|l| l.tasks).sum();
        prop_assert_eq!(tasks, trace.records.len());
        for l in &lanes {
            prop_assert!(l.busy_us <= trace.makespan_us());
            prop_assert!(l.largest_gap_us <= l.idle_us);
        }
    }

    /// The Chrome export round-trips as valid JSON whose event counts
    /// mirror the trace: one "X" per record, one "M" lane per worker, one
    /// "s"/"f" flow pair per dependency edge (every edge has both endpoint
    /// records here, so none are skipped).
    #[test]
    fn chrome_export_mirrors_the_trace((workers, specs) in arb_dag()) {
        let (trace, _) = run(workers, &specs);
        let doc = jsonv::parse(&trace.to_chrome_json()).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("traceEvents array");
        prop_assert_eq!(count_ph(events, "X"), trace.records.len());
        prop_assert_eq!(count_ph(events, "M"), workers);
        prop_assert_eq!(count_ph(events, "s"), trace.edges.len());
        prop_assert_eq!(count_ph(events, "f"), trace.edges.len());
        // Edges reference real task ids.
        let max_id = trace.records.iter().map(|r| r.id).max().unwrap_or(0);
        for &(from, to) in &trace.edges {
            prop_assert!(from <= max_id && to <= max_id);
            prop_assert!(from != to, "self-edge {from}");
        }
        // The plain JSON export parses too.
        prop_assert!(jsonv::parse(&trace.to_json()).is_ok());
    }

    /// Scheduler counters reconcile with the trace: executed tasks equal
    /// record count, steal successes never exceed attempts or executions,
    /// and the ready-queue high-water mark covers at least one task.
    #[test]
    fn counters_reconcile_with_the_trace((workers, specs) in arb_dag()) {
        let (trace, rm) = run(workers, &specs);
        prop_assert_eq!(rm.workers.len(), workers);
        prop_assert_eq!(rm.tasks_executed(), trace.records.len() as u64);
        prop_assert!(rm.max_queue_depth >= 1);
        for w in &rm.workers {
            prop_assert!(w.steals_succeeded <= w.steals_attempted);
            prop_assert!(w.steals_succeeded <= rm.tasks_executed());
            prop_assert!(w.priority_hits <= rm.tasks_executed());
        }
        let report = rm.report();
        prop_assert!(report.contains("max ready-queue depth"));
    }
}

/// High-priority tasks land in the priority lane: a burst of
/// high-priority submissions must register priority-lane hits (every such
/// task is either a priority-lane steal or, rarely, a local pop after a
/// batch steal — so assert on a generous margin).
#[test]
fn priority_lane_hits_are_counted() {
    let rt = Runtime::new(2);
    for _ in 0..64 {
        rt.task("hi").high_priority().spawn(|| {});
    }
    rt.wait().unwrap();
    let rm = rt.runtime_metrics();
    assert_eq!(rm.tasks_executed(), 64);
    assert!(
        rm.priority_hits() >= 32,
        "expected most of 64 high-priority tasks via the priority lane, got {}",
        rm.priority_hits()
    );
}

/// Counters accumulate across phases on one runtime; two equal batches
/// must double the executed count (diffing snapshots isolates a phase).
#[test]
fn metrics_accumulate_across_phases() {
    let rt = Runtime::new(2);
    for _ in 0..10 {
        rt.task("a").spawn(|| {});
    }
    rt.wait().unwrap();
    let first = rt.runtime_metrics();
    assert_eq!(first.tasks_executed(), 10);
    for _ in 0..10 {
        rt.task("b").spawn(|| {});
    }
    rt.wait().unwrap();
    let second = rt.runtime_metrics();
    assert_eq!(second.tasks_executed(), 20);
    assert!(second.max_queue_depth >= first.max_queue_depth);
}
