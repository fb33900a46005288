//! The single task-name → layer map, and the fold of traced runs into
//! per-layer busy time.
//!
//! Every task the runtime records lands in exactly one *bucket*, and every
//! bucket belongs to one *layer* (a crate of this repository). The six
//! merge buckets are the paper's Table I steps; the rest name the work
//! outside the merge phase. A task name this map does not know is
//! reported as unattributed, and a run whose attributed share of busy
//! time falls below [`MIN_ATTRIBUTED`] fails — that is how a renamed or
//! new kernel surfaces instead of silently skewing the shares.

use dcst_core::MergeStat;
use dcst_matrix::metrics::CounterSnapshot;
use dcst_runtime::{RuntimeMetrics, Trace};
use std::collections::BTreeMap;

/// The six Table I merge steps, in the paper's order.
pub const MERGE_BUCKETS: [&str; 6] = ["deflate", "laed4", "local_w", "assemble", "gemm", "copy"];

/// Least share of traced busy time that must land in a named bucket.
pub const MIN_ATTRIBUTED: f64 = 0.98;

/// `(bucket, layer)` of a traced task name; `None` for a name this map
/// does not know.
pub fn bucket_of(task: &str) -> Option<(&'static str, &'static str)> {
    Some(match task {
        "ComputeDeflation" => ("deflate", "secular"),
        "LAED4" => ("laed4", "secular"),
        "ComputeLocalW" | "ReduceW" => ("local_w", "secular"),
        "ComputeVect" => ("assemble", "secular"),
        // The rank-structured update tasks are the GEMM step's
        // replacements: compression, the Q·U basis products, the join
        // barrier and the structured multiply all displace dense GEMM time.
        "UpdateVect" | "UpdateVectStructured" | "CompressW" | "StructBasis" | "StructJoin" => {
            ("gemm", "matrix")
        }
        "PermuteV" | "CopyBackDeflated" | "SortEigenvalues" | "SortBarrier" | "SortCopy"
        | "SortCopyBack" => ("copy", "core"),
        // Values-only mode: boundary-row propagation replaces assembly,
        // GEMM and the n×n copies.
        "RowUpdate" => ("row_update", "core"),
        "STEDC" => ("leaf", "qriter"),
        "Scale" | "ScaleBack" => ("scale", "core"),
        // A small subset request handed whole to the MRRR crate.
        "SubsetFallback" => ("subset_fallback", "mrrr"),
        _ => return None,
    })
}

/// Busy time of one traced run, by bucket, in milliseconds.
#[derive(Clone, Debug, Default)]
pub struct Busy {
    pub by_bucket: BTreeMap<&'static str, f64>,
    pub unattributed_ms: f64,
    /// Unknown task names seen, for the failure message.
    pub unknown: Vec<&'static str>,
}

impl Busy {
    /// Walk the raw records once; each lands in exactly one bucket.
    pub fn of(trace: &Trace) -> Busy {
        let mut busy = Busy::default();
        for r in &trace.records {
            let ms = (r.end_us - r.start_us) as f64 / 1e3;
            match bucket_of(r.name) {
                Some((bucket, _)) => *busy.by_bucket.entry(bucket).or_insert(0.0) += ms,
                None => {
                    busy.unattributed_ms += ms;
                    if !busy.unknown.contains(&r.name) {
                        busy.unknown.push(r.name);
                    }
                }
            }
        }
        busy
    }

    pub fn get(&self, bucket: &str) -> f64 {
        self.by_bucket.get(bucket).copied().unwrap_or(0.0)
    }

    pub fn total_ms(&self) -> f64 {
        self.by_bucket.values().sum::<f64>() + self.unattributed_ms
    }

    /// Sum of the six Table I buckets.
    pub fn merge_ms(&self) -> f64 {
        MERGE_BUCKETS.iter().map(|b| self.get(b)).sum()
    }

    /// Share of busy time in named buckets (1 for an empty trace).
    pub fn attributed_frac(&self) -> f64 {
        let total = self.total_ms();
        if total == 0.0 {
            1.0
        } else {
            1.0 - self.unattributed_ms / total
        }
    }
}

/// Everything one traced execution returns through public API.
pub struct TracedRun {
    /// Wall time of the traced call, ms.
    pub wall_ms: f64,
    pub trace: Trace,
    pub runtime: RuntimeMetrics,
    /// Kernel-counter delta across the call.
    pub counters: CounterSnapshot,
    /// Merge statistics of the solve(s) inside.
    pub merges: Vec<MergeStat>,
}

fn median_of(runs: &[TracedRun], f: impl Fn(&TracedRun, &Busy) -> f64, busy: &[Busy]) -> f64 {
    let v: Vec<f64> = runs.iter().zip(busy).map(|(r, b)| f(r, b)).collect();
    crate::stats::median(&v)
}

/// Per-layer metrics folded from traced runs at `T` threads (`par`) and at
/// one thread (`one`): medians across the runs for times and shares, the
/// first run for counts (they repeat exactly). Returns the metrics and
/// the lowest attributed share seen, with the unknown names behind it.
pub fn fold(
    par: &[TracedRun],
    one: &[TracedRun],
    untraced_p50_ms: f64,
) -> (Vec<(&'static str, f64)>, f64, Vec<&'static str>) {
    let busy_par: Vec<Busy> = par.iter().map(|r| Busy::of(&r.trace)).collect();
    let busy_one: Vec<Busy> = one.iter().map(|r| Busy::of(&r.trace)).collect();
    let bucket = |name: &'static str| median_of(par, |_, b| b.get(name), &busy_par);
    let first = &par[0];
    let count = |name: &str| first.counters.get(name) as f64;
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };

    let total = median_of(par, |_, b| b.total_ms(), &busy_par);
    let copy = bucket("copy");
    let merged_n: usize = first.merges.iter().map(|m| m.n).sum();
    let deflated: usize = first.merges.iter().map(|m| m.n - m.k).sum();
    let root = first.merges.iter().max_by_key(|m| m.n);
    let traced_wall = median_of(par, |r, _| r.wall_ms, &busy_par);

    let metrics = vec![
        ("matrix.update_busy_ms", bucket("gemm")),
        ("matrix.gemm_flops", count("gemm.flops")),
        (
            "matrix.structured_merges",
            count("update.structured_merges"),
        ),
        ("matrix.flops_saved", count("update.flops_saved")),
        ("secular.laed4_busy_ms", bucket("laed4")),
        ("secular.deflate_busy_ms", bucket("deflate")),
        ("secular.local_w_busy_ms", bucket("local_w")),
        ("secular.assemble_busy_ms", bucket("assemble")),
        (
            "secular.iters_per_root",
            ratio(count("secular.iters"), count("secular.root_solves")),
        ),
        (
            "secular.bisection_rescues",
            count("secular.bisection_rescues"),
        ),
        (
            "secular.deflation_ratio",
            ratio(deflated as f64, merged_n as f64),
        ),
        ("secular.k_root", root.map_or(0.0, |m| m.k as f64)),
        ("qriter.leaf_busy_ms", bucket("leaf")),
        ("qriter.sweeps", count("steqr.sweeps")),
        ("core.busy_ms", total),
        (
            "core.busy_1t_ms",
            median_of(one, |_, b| b.total_ms(), &busy_one),
        ),
        ("core.copy_busy_ms", copy),
        (
            "core.copy_busy_1t_ms",
            median_of(one, |_, b| b.get("copy"), &busy_one),
        ),
        ("core.copy_share", ratio(copy, total)),
        ("core.row_update_busy_ms", bucket("row_update")),
        (
            "core.merge_busy_ms",
            median_of(par, |_, b| b.merge_ms(), &busy_par),
        ),
        (
            "core.outside_graph_frac",
            median_of(
                par,
                |r, _| ratio(r.wall_ms - r.trace.makespan_us() as f64 / 1e3, r.wall_ms),
                &busy_par,
            ),
        ),
        ("runtime.tasks", first.trace.records.len() as f64),
        (
            "runtime.idle_frac",
            median_of(par, |r, _| r.trace.idle_fraction(), &busy_par),
        ),
        (
            "runtime.steal_success_rate",
            ratio(
                first.runtime.steals_succeeded() as f64,
                first.runtime.steals_attempted() as f64,
            ),
        ),
        ("runtime.parks", first.runtime.parks() as f64),
        (
            "runtime.trace_overhead_frac",
            ratio(traced_wall, untraced_p50_ms) - 1.0,
        ),
    ];

    let mut worst = 1.0f64;
    let mut unknown = Vec::new();
    for b in busy_par.iter().chain(&busy_one) {
        worst = worst.min(b.attributed_frac());
        for name in &b.unknown {
            if !unknown.contains(name) {
                unknown.push(*name);
            }
        }
    }
    (metrics, worst, unknown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcst_runtime::TaskRecord;

    fn record(name: &'static str, start_us: u64, end_us: u64) -> TaskRecord {
        TaskRecord {
            id: 0,
            name,
            worker: 0,
            start_us,
            end_us,
        }
    }

    fn trace(records: Vec<TaskRecord>) -> Trace {
        Trace {
            records,
            edges: vec![],
            num_workers: 1,
        }
    }

    #[test]
    fn every_solver_task_name_has_a_layer() {
        for name in [
            "Scale",
            "STEDC",
            "ComputeDeflation",
            "PermuteV",
            "LAED4",
            "ComputeLocalW",
            "ReduceW",
            "CopyBackDeflated",
            "ComputeVect",
            "CompressW",
            "StructBasis",
            "StructJoin",
            "UpdateVect",
            "UpdateVectStructured",
            "SortEigenvalues",
            "SortCopy",
            "SortBarrier",
            "SortCopyBack",
            "ScaleBack",
            "RowUpdate",
            "SubsetFallback",
        ] {
            assert!(bucket_of(name).is_some(), "{name} has no layer");
        }
        assert_eq!(bucket_of("RowUpdate"), Some(("row_update", "core")));
        assert_eq!(bucket_of("NoSuchKernel"), None);
    }

    #[test]
    fn records_land_in_one_bucket_each_and_unknowns_are_counted() {
        let b = Busy::of(&trace(vec![
            record("LAED4", 0, 3000),
            record("UpdateVect", 3000, 9000),
            record("CompressW", 9000, 10000),
            record("Mystery", 10000, 10500),
        ]));
        assert_eq!(b.get("laed4"), 3.0);
        assert_eq!(b.get("gemm"), 7.0);
        assert_eq!(b.merge_ms(), 10.0);
        assert_eq!(b.unattributed_ms, 0.5);
        assert_eq!(b.unknown, vec!["Mystery"]);
        assert!((b.attributed_frac() - 10.0 / 10.5).abs() < 1e-12);
    }
}
