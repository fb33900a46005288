//! The footprint contract is checked where it runs: a debug build's shadow
//! tracker validates every borrow a task body takes against the task's
//! declared accesses, so a spawn site that no test executes is a spawn
//! site nobody checks. Small traced solves over every graph shape — full,
//! values-only, subset with the pruned root, the subset fallback, GATHERV
//! and serialized panels, dense and structured updates — must between
//! them run every task the solver builds.
//!
//! The update policy knob is process-global, so this file holds a single
//! `#[test]`.

use dcst::matrix::{set_update_policy, UpdatePolicy};
use dcst::prelude::*;
use std::collections::BTreeSet;

/// Every task name `crates/core/src/taskflow.rs` submits, plus the trace
/// name a structured `UpdateVect` panel runs under.
const TASKS: [&str; 14] = [
    "STEDC",
    "ComputeDeflation",
    "PermuteV",
    "LAED4",
    "ReduceW",
    "CompressW",
    "StructBasis",
    "StructJoin",
    "UpdateVect",
    "UpdateVectStructured",
    "RowUpdate",
    "SortEigenvalues",
    "SortCopy",
    "SubsetFallback",
];

#[test]
fn traced_solves_run_every_task_kind() {
    let n = 256;
    let t = MatrixType::Type4.generate(n, 5);
    let modes = [
        SolveMode::Full,
        SolveMode::ValuesOnly,
        SolveMode::Subset {
            il: n / 4,
            iu: n / 2,
        },
        SolveMode::Subset {
            il: 0,
            iu: n / 32 - 1,
        },
    ];
    let mut seen = BTreeSet::new();
    for policy in [UpdatePolicy::ForceDense, UpdatePolicy::ForceStructured] {
        set_update_policy(policy);
        for use_gatherv in [true, false] {
            for mode in modes {
                let opts = DcOptions {
                    min_part: 16,
                    nb: 24,
                    threads: 2,
                    use_gatherv,
                    mode,
                };
                let (eig, _, trace, _) = TaskFlowDc::new(opts)
                    .solve_observed(&t)
                    .unwrap_or_else(|e| panic!("{policy:?} {mode:?} gatherv={use_gatherv}: {e}"));
                if mode == SolveMode::Full {
                    let orth = orthogonality_error(&eig.vectors);
                    assert!(orth < 1e-12, "{policy:?} gatherv={use_gatherv}: {orth}");
                }
                seen.extend(trace.records.iter().map(|r| r.name));
            }
        }
    }
    set_update_policy(UpdatePolicy::Auto);
    let missing: Vec<&str> = TASKS.into_iter().filter(|n| !seen.contains(n)).collect();
    assert!(missing.is_empty(), "no traced solve ran {missing:?}");
    let extra: Vec<&str> = seen.into_iter().filter(|n| !TASKS.contains(n)).collect();
    assert!(extra.is_empty(), "tasks missing from TASKS: {extra:?}");
}
