//! The three solver workloads: one Table III matrix, solved each round by
//! `TaskFlowDc` at `T` threads and by `SequentialDc` on one, interleaved so
//! machine drift hits both alike.

use crate::check::{self, Gates};
use crate::layers::{self, TracedRun};
use crate::report::{MetricValue, RunRecord};
use crate::spans::Spans;
use crate::stats::{self, Summary};
use crate::{alloc, machine, provenance, replay, Passes, Scale};
use dcst_bench::sched;
use dcst_core::{
    DcOptions, Eigen, ForkJoinDc, LevelParallelDc, SequentialDc, SolveMode, TaskFlowDc,
    TridiagEigensolver,
};
use dcst_matrix::{set_update_policy, UpdatePolicy};
use dcst_tridiag::gen::MatrixType;
use dcst_tridiag::SymTridiag;
use std::time::Instant;

pub struct SolverWorkload {
    pub name: &'static str,
    /// Table III matrix type.
    pub ty: usize,
    pub mode: SolveMode,
    /// Index into [`Scale::solver_n`] / [`Scale::rounds`].
    pub slot: usize,
}

pub const SOLVER_WORKLOADS: [SolverWorkload; 3] = [
    SolverWorkload {
        name: "dense_t4_n2000",
        ty: 4,
        mode: SolveMode::Full,
        slot: 0,
    },
    SolverWorkload {
        name: "deflate_t2_n4000",
        ty: 2,
        mode: SolveMode::Full,
        slot: 1,
    },
    SolverWorkload {
        name: "values_t6_n4000",
        ty: 6,
        mode: SolveMode::ValuesOnly,
        slot: 2,
    },
];

pub fn opts(threads: usize, mode: SolveMode) -> DcOptions {
    DcOptions {
        threads,
        mode,
        ..DcOptions::default()
    }
}

pub(crate) fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Failure bookkeeping shared by both workload kinds.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Count one failed operation, keeping the first few reasons.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }
}

/// Check one solve's output outside the timed region; counts a failure
/// per gate tripped and returns the gates (zeros for values-only).
fn verify(
    who: &str,
    t: &SymTridiag,
    eig: &Eigen,
    mode: SolveMode,
    scale: &Scale,
    seed: u64,
    tally: &mut Tally,
) -> Gates {
    let (gates, failures) = match mode {
        SolveMode::ValuesOnly => (
            Gates::default(),
            check::check_values(t, &eig.values, 64, seed),
        ),
        _ => check::check_full(
            t,
            &eig.values,
            &eig.vectors,
            check::ORTH_COLUMNS,
            seed,
            scale.threads,
        ),
    };
    for f in failures {
        tally.fail(format!("{who}: {f}"));
    }
    gates
}

/// What the end-to-end pass hands to the report and to the layer pass.
pub struct EndToEnd {
    pub t: SymTridiag,
    pub setup_s: f64,
    pub generate_ms: f64,
    pub taskflow_ms: Vec<f64>,
    pub seq_ms: Vec<f64>,
    /// Wall of the timed rounds, checks excluded, seconds.
    pub timed_s: f64,
    pub calib_ms: Vec<f64>,
    pub peak: alloc::AllocUse,
    /// Worst gates seen on the task-flow results.
    pub gates: Gates,
    /// Task-flow eigenvalues of the last round: the replay's reference.
    pub values: Vec<f64>,
}

/// Set up, then `rounds` timed rounds of (task-flow solve, sequential
/// solve), checking the first and last round's outputs, then one extra
/// untimed task-flow solve under the allocation meter.
pub fn end_to_end(
    w: &SolverWorkload,
    seed: u64,
    scale: &Scale,
    rounds: usize,
    corrupt: bool,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<EndToEnd, String> {
    let n = scale.solver_n[w.slot];
    let ty = MatrixType::from_index(w.ty).expect("workload table names a Table III type");
    let taskflow = TaskFlowDc::new(opts(scale.threads, w.mode));
    let seq = SequentialDc::new(opts(1, w.mode));

    // Set-up: generation plus one untimed warm-up round, several times; the
    // median is `setup_s`.
    let setup_span = spans.enter("setup");
    let (mut setup_all, mut generate_all) = (Vec::new(), Vec::new());
    let mut t = None;
    for _ in 0..scale.setups.max(1) {
        let start = Instant::now();
        let (m, id) = spans.time("tridiag.generate", || ty.generate(n, seed));
        generate_all.push(spans.dur_ms(id));
        let (warm, _) = spans.time("warmup", || (taskflow.solve(&m), seq.solve(&m)));
        if let (Err(e), _) | (_, Err(e)) = warm {
            return Err(format!("{}: warm-up solve failed: {e}", w.name));
        }
        setup_all.push(start.elapsed().as_secs_f64());
        t = Some(m);
    }
    spans.exit(setup_span);
    let t = t.expect("at least one set-up ran");

    let mut out = EndToEnd {
        t,
        setup_s: stats::median(&setup_all),
        generate_ms: stats::median(&generate_all),
        taskflow_ms: Vec::with_capacity(rounds),
        seq_ms: Vec::with_capacity(rounds),
        timed_s: 0.0,
        calib_ms: Vec::with_capacity(rounds),
        peak: alloc::AllocUse::default(),
        gates: Gates::default(),
        values: Vec::new(),
    };
    let t = &out.t;
    let tol = check::value_tol(t);

    let loop_span = spans.enter("rounds");
    for round in 0..rounds {
        out.calib_ms.push(machine::calib_ms(scale.calib_iters));
        let round_start = Instant::now();
        let start = Instant::now();
        let a = taskflow.solve(t);
        out.taskflow_ms.push(ms_since(start));
        let start = Instant::now();
        let b = seq.solve(t);
        out.seq_ms.push(ms_since(start));

        tally.attempt();
        tally.attempt();
        let (mut a, b) = (a, b);
        let check_start = Instant::now();
        for (who, r) in [("taskflow", &a), ("sequential", &b)] {
            if let Err(e) = r {
                tally.fail(format!("{who}: solve failed: {e}"));
            }
        }
        if let (Ok(a), Ok(b), true) = (&mut a, &b, round == 0 || round + 1 == rounds) {
            if corrupt && a.vectors.cols() > 0 {
                // Test hook: a deliberately wrong eigenvector.
                a.vectors.col_mut(0)[0] += 1e-3;
            } else if corrupt {
                a.values[0] -= 1e-3 * t.max_norm();
            }
            let g = verify("taskflow", t, a, w.mode, scale, seed, tally);
            verify("sequential", t, b, w.mode, scale, seed, tally);
            out.gates.resid_neps = out.gates.resid_neps.max(g.resid_neps);
            out.gates.orth_neps = out.gates.orth_neps.max(g.orth_neps);
            let diff = check::max_abs_diff(&a.values, &b.values);
            if check::over(diff, tol) {
                tally.fail(format!(
                    "taskflow and sequential eigenvalues differ by {diff:e} (tolerance {tol:e})"
                ));
            }
            out.values = std::mem::take(&mut a.values);
        }
        let checking = check_start.elapsed();
        drop((a, b));
        out.timed_s += (round_start.elapsed() - checking).as_secs_f64();
    }
    spans.exit(loop_span);

    let (peak, extra) = alloc::measure(|| taskflow.solve(t));
    out.peak = peak;
    if let Err(e) = extra {
        return Err(format!("{}: allocation-metered solve failed: {e}", w.name));
    }
    Ok(out)
}

/// The six end-to-end metrics of a solver workload.
fn end_to_end_metrics(e: &EndToEnd) -> Vec<MetricValue> {
    let tf = Summary::of(&e.taskflow_ms);
    let seq = Summary::of(&e.seq_ms);
    let ops = (e.taskflow_ms.len() + e.seq_ms.len()) as f64;
    vec![
        MetricValue::new("setup_s", e.setup_s)
            .note("generation + one warm-up round, median of the set-ups"),
        MetricValue::new("op_p50_ms", tf.median)
            .spread(&tf)
            .note("TaskFlowDc::solve at T threads"),
        MetricValue::new("op_tail_ms", tf.tail.value).note(format!(
            "p{:.1} of {} TaskFlowDc solves, {} beyond",
            100.0 * tf.tail.percentile,
            tf.n,
            tf.tail.beyond
        )),
        MetricValue::new("seq_p50_ms", seq.median)
            .spread(&seq)
            .note("SequentialDc::solve, 1 thread, same input"),
        MetricValue::new("ops_per_s", ops / e.timed_s)
            .note(format!("{ops} solves over the timed rounds")),
        MetricValue::new("peak_alloc_mb", e.peak.peak_mb())
            .note("high-water of one extra untimed TaskFlowDc solve"),
    ]
}

/// One traced task-flow solve with everything it returns.
fn traced_solve(t: &SymTridiag, threads: usize, mode: SolveMode) -> Result<TracedRun, String> {
    let before = dcst_matrix::metrics::snapshot();
    let start = Instant::now();
    let (_, stats, trace, runtime) = TaskFlowDc::new(opts(threads, mode))
        .solve_observed(t)
        .map_err(|e| format!("traced solve failed: {e}"))?;
    Ok(TracedRun {
        wall_ms: ms_since(start),
        trace,
        runtime,
        counters: dcst_matrix::metrics::snapshot().delta(&before),
        merges: stats.merges,
    })
}

fn p50_of(reps: usize, mut solve: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut ms = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        solve()?;
        ms.push(ms_since(start));
    }
    Ok(stats::median(&ms))
}

/// The machine probes, once per process. Also returns the FMA peak the
/// GEMM rates are read against.
pub fn machine_metrics(scale: &Scale, calib_ms: &[f64]) -> (Vec<MetricValue>, f64) {
    let llc = provenance::llc_bytes();
    let (_, available) = provenance::meminfo();
    let bytes = scale
        .triad_bytes
        .unwrap_or_else(|| machine::triad_array_bytes(llc, available));
    let triad = machine::stream_triad(bytes, 2);
    let (lo, hi) = calib_ms
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
    let peak_fma = machine::peak_fma_gflops(scale.fma_iters);
    let metrics = vec![
        MetricValue::new("machine.peak_fma_gflops", peak_fma)
            .note(format!("1 thread, {:?} width", dcst_matrix::simd_level())),
        MetricValue::new("machine.stream_triad_gbs", triad.gbs).note(format!(
            "3 arrays of {} MiB each; sysfs LLC {} MiB",
            triad.array_bytes >> 20,
            llc >> 20
        )),
        MetricValue::new("machine.calib_spread", if lo > 0.0 { hi / lo } else { 0.0 }).note(
            format!("max/min of {} per-round scalar chains", calib_ms.len()),
        ),
    ];
    (metrics, peak_fma)
}

/// The trace fold (source **T** and **C**): per-layer busy time and counts
/// of traced runs at `T` threads (`par`) and at one (`one`). Fails when
/// less than 98 % of busy time lands in a named layer.
pub fn fold_metrics(
    par: &[TracedRun],
    one: &[TracedRun],
    untraced_ms: f64,
) -> Result<Vec<MetricValue>, String> {
    let (folded, attributed, unknown) = layers::fold(par, one, untraced_ms);
    if attributed < layers::MIN_ATTRIBUTED {
        return Err(format!(
            "only {:.1}% of traced busy time lands in a named layer (need {:.0}%); \
             unknown task names: {unknown:?} — extend layers::bucket_of",
            100.0 * attributed,
            100.0 * layers::MIN_ATTRIBUTED
        ));
    }
    let mut out: Vec<MetricValue> = folded
        .into_iter()
        .map(|(n, v)| MetricValue::new(n, v))
        .collect();
    out.push(MetricValue::new("core.attributed_frac", attributed));
    Ok(out)
}

/// One problem probed from outside (source **X**): the root-merge replay,
/// the comparators, the leaf solver, the scheduler storm.
pub struct LayerInput<'a> {
    pub t: &'a SymTridiag,
    pub mode: SolveMode,
    /// Eigenvalues the replay must reproduce.
    pub reference: &'a [f64],
    /// Untraced medians of this problem the ratios are taken against.
    pub taskflow_p50_ms: f64,
    pub seq_p50_ms: f64,
    /// `machine.peak_fma_gflops` of this process.
    pub peak_fma_gflops: f64,
}

pub fn probe_metrics(
    input: &LayerInput<'_>,
    scale: &Scale,
    spans: &mut Spans,
) -> Result<Vec<MetricValue>, String> {
    let (t, mode, threads) = (input.t, input.mode, scale.threads);
    let mut out: Vec<MetricValue> = Vec::new();

    // X: the root-merge replay.
    let r = replay::replay(t, threads, mode != SolveMode::ValuesOnly, spans)
        .map_err(|e| e.to_string())?;
    let diff = check::max_abs_diff(&r.values, input.reference);
    if check::over(diff, check::value_tol(t)) {
        return Err(format!(
            "replayed eigenvalues differ from the solver's by {diff:e} (tolerance {:e})",
            check::value_tol(t)
        ));
    }
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    out.extend([
        MetricValue::new("matrix.gemm_gflops_1t", r.gemm_gflops_1t).note(format!("k = {}", r.k)),
        MetricValue::new("matrix.gemm_gflops_par", r.gemm_gflops_par),
        MetricValue::new(
            "matrix.gemm_peak_frac",
            ratio(r.gemm_gflops_1t, input.peak_fma_gflops),
        ),
        MetricValue::new(
            "matrix.gemm_par_speedup",
            ratio(r.gemm_gflops_par, r.gemm_gflops_1t),
        ),
        MetricValue::new("secular.deflate_ms", r.deflate_ms),
        MetricValue::new("secular.roots_ns_per_root", r.roots_ns_per_root),
        MetricValue::new("secular.local_w_ms", r.local_w_ms),
        MetricValue::new("secular.assemble_ms", r.assemble_ms),
        MetricValue::new("core.replay_residue_frac", r.residue_frac),
    ]);

    // X: comparators. The 1-thread task-flow and its forced-dense twin
    // alternate so drift cannot skew their ratio.
    let solve_with = |s: &dyn TridiagEigensolver| -> Result<(), String> {
        s.solve(t)
            .map(drop)
            .map_err(|e| format!("{}: {e}", s.name()))
    };
    let tf1 = TaskFlowDc::new(opts(1, mode));
    let (mut auto_ms, mut dense_ms) = (Vec::new(), Vec::new());
    let span = spans.enter("core.comparators");
    for _ in 0..scale.comparator_reps.max(1) {
        let start = Instant::now();
        solve_with(&tf1)?;
        auto_ms.push(ms_since(start));
        set_update_policy(UpdatePolicy::ForceDense);
        let start = Instant::now();
        let res = solve_with(&tf1);
        set_update_policy(UpdatePolicy::Auto);
        res?;
        dense_ms.push(ms_since(start));
    }
    let taskflow_1t = stats::median(&auto_ms);
    let forkjoin = ForkJoinDc::new(opts(threads, mode));
    let levelpar = LevelParallelDc::new(opts(threads, mode));
    let forkjoin_p50 = p50_of(scale.comparator_reps, || solve_with(&forkjoin))?;
    let levelpar_p50 = p50_of(scale.comparator_reps, || solve_with(&levelpar))?;
    spans.exit(span);
    out.extend([
        MetricValue::new(
            "matrix.dense_update_ratio",
            ratio(stats::median(&dense_ms), taskflow_1t),
        )
        .note("1-thread p50 under ForceDense ÷ under auto"),
        MetricValue::new("core.taskflow_1t_p50_ms", taskflow_1t),
        MetricValue::new("core.forkjoin_p50_ms", forkjoin_p50),
        MetricValue::new("core.levelpar_p50_ms", levelpar_p50),
        MetricValue::new(
            "core.par_speedup_vs_seq",
            ratio(input.seq_p50_ms, input.taskflow_p50_ms),
        ),
        MetricValue::new(
            "core.par_efficiency",
            ratio(taskflow_1t, threads as f64 * input.taskflow_p50_ms),
        ),
    ]);

    // X: the leaf solver on consecutive min_part-row blocks of the input.
    let min_part = DcOptions::default().min_part;
    let blocks: Vec<SymTridiag> = (0..t.n() / min_part)
        .map(|b| {
            let (lo, hi) = (b * min_part, (b + 1) * min_part);
            SymTridiag::new(t.d[lo..hi].to_vec(), t.e[lo..hi - 1].to_vec())
        })
        .collect();
    let (res, id) = spans.time("qriter.steqr_blocks", || {
        blocks
            .iter()
            .try_for_each(|b| dcst_qriter::steqr(b).map(drop))
    });
    res.map_err(|e| format!("steqr on an input block failed: {e}"))?;
    out.push(MetricValue::new(
        "qriter.steqr_us_per_leaf",
        ratio(spans.dur_ms(id) * 1e3, blocks.len() as f64),
    ));

    // X: the scheduler substrate alone.
    let (storm, _) = spans.time("runtime.storm", || {
        sched::storm::<sched::LockFree>(threads, 4 * threads, scale.storm_depth)
    });
    out.push(
        MetricValue::new("runtime.ns_per_task", storm.ns_per_task)
            .note(format!("{} no-op tasks on {threads} workers", storm.tasks)),
    );
    Ok(out)
}

/// Run one solver workload. `corrupt` damages the checked task-flow
/// outputs: the test-suite's proof that a wrong answer is counted.
pub fn run(
    w: &SolverWorkload,
    seed: u64,
    scale: &Scale,
    passes: Passes,
    corrupt: bool,
    spans: &mut Spans,
) -> Result<RunRecord, String> {
    let mut tally = Tally::default();
    let rounds = if passes.end_to_end() {
        scale.rounds[w.slot]
    } else {
        scale.layer_rounds
    };
    let e2e = end_to_end(w, seed, scale, rounds, corrupt, spans, &mut tally)?;
    let mut record = RunRecord {
        workload: w.name.to_string(),
        seed,
        threads: scale.threads,
        counts: format!(
            "n={} rounds={rounds} setups={} traced={}+{} comparator_reps={}",
            e2e.t.n(),
            scale.setups,
            scale.traced_reps,
            scale.traced_reps,
            scale.comparator_reps
        ),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
    };
    if passes.end_to_end() {
        record.end_to_end = end_to_end_metrics(&e2e);
    }
    if passes.layers() {
        let span = spans.enter("traced_solves");
        let traced = |threads: usize, spans: &mut Spans| -> Result<Vec<TracedRun>, String> {
            (0..scale.traced_reps.max(1))
                .map(|rep| {
                    let (run, id) =
                        spans.time("solve_traced", || traced_solve(&e2e.t, threads, w.mode));
                    let run = run?;
                    if rep == 0 {
                        spans.add_tasks(id, &run.trace);
                    }
                    Ok(run)
                })
                .collect()
        };
        let par = traced(scale.threads, spans)?;
        let one = traced(1, spans)?;
        spans.exit(span);
        let (mut layer, peak_fma_gflops) = machine_metrics(scale, &e2e.calib_ms);
        let input = LayerInput {
            t: &e2e.t,
            mode: w.mode,
            reference: &e2e.values,
            taskflow_p50_ms: stats::median(&e2e.taskflow_ms),
            seq_p50_ms: stats::median(&e2e.seq_ms),
            peak_fma_gflops,
        };
        layer.extend(fold_metrics(&par, &one, input.taskflow_p50_ms)?);
        layer.extend(probe_metrics(&input, scale, spans)?);
        layer.extend([
            MetricValue::new("core.orth_neps", e2e.gates.orth_neps),
            MetricValue::new("core.resid_neps", e2e.gates.resid_neps),
            MetricValue::new("core.alloc_calls", e2e.peak.calls as f64),
            MetricValue::new("tridiag.generate_ms", e2e.generate_ms),
        ]);
        layer.extend(crate::serve_mix::not_applicable(&crate::Spec::embedded()));
        record.per_layer = layer;
    }
    record.attempted = tally.attempted;
    record.failed = tally.failed;
    record.failures = tally.failures;
    Ok(record)
}
