//! Global kernel counters for solver observability.
//!
//! A fixed set of named monotonic counters that the numerical kernels bump
//! as they run (secular iterations, rescue-path activations, GEMM volume,
//! eigenvector elements copied — the quantities behind the paper's Figures
//! 5–6 deflation narrative and Table I cost model). Counters are
//! process-global `AtomicU64`s with `Relaxed` increments: kernels batch
//! their adds (one `add` per solve or per panel, never per inner-loop
//! step), so the hot paths see at most a handful of uncontended atomic
//! RMWs.
//!
//! Counters are global while Rust tests run on parallel threads, so tests
//! must only assert *monotonic* properties (value after ≥ value before +
//! own contribution) — concurrent solves can only add, never subtract.

use std::sync::atomic::{AtomicU64, Ordering};

/// The registered counter names, in snapshot order.
pub const NAMES: [&str; 13] = [
    "secular.root_solves",
    "secular.iters",
    "secular.bisection_rescues",
    "secular.certified",
    "steqr.sweeps",
    "steqr.exceptional_rescues",
    "gemm.calls",
    "gemm.flops",
    "update.structured_merges",
    "update.structured_blocks",
    "update.structured_rank",
    "update.flops_saved",
    "copy.elems",
];

fn index_of(name: &str) -> usize {
    NAMES
        .iter()
        .position(|n| *n == name)
        // A typo'd counter name is a programming error worth a loud panic.
        // The analyzer reaches this through a name collision on `get`; the
        // real caller on kernel paths is `add`, in every build — but kernels
        // batch their adds (per root solve or panel, never per inner-loop
        // step) and pass literal names: ≤ 13 short compares, panic arm dead.
        // xtask-lint: allow(hot-path) — batched lookup; panic arm is a typo'd literal
        .unwrap_or_else(|| panic!("unknown metrics counter '{name}'"))
}

/// Point-in-time copy of every counter. Obtained from [`snapshot`]; two
/// snapshots bracket a region of interest and [`CounterSnapshot::delta`]
/// isolates its contribution (other threads' increments still leak into a
/// delta — see the module docs on monotonic assertions).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    values: [u64; NAMES.len()],
}

impl CounterSnapshot {
    /// Value of `name` in this snapshot.
    pub fn get(&self, name: &str) -> u64 {
        self.values[index_of(name)]
    }

    /// Counter-wise saturating difference `self − earlier`.
    pub fn delta(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        let mut values = [0u64; NAMES.len()];
        for (i, v) in values.iter_mut().enumerate() {
            *v = self.values[i].saturating_sub(earlier.values[i]);
        }
        CounterSnapshot { values }
    }

    /// Iterate `(name, value)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        NAMES.iter().copied().zip(self.values.iter().copied())
    }
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static VALUES: [AtomicU64; NAMES.len()] = [ZERO; NAMES.len()];

/// Add `v` to the named counter.
#[inline]
pub fn add(name: &str, v: u64) {
    VALUES[index_of(name)].fetch_add(v, Ordering::Relaxed);
}

/// Copy every counter.
pub fn snapshot() -> CounterSnapshot {
    let mut snap = CounterSnapshot::default();
    for (slot, v) in snap.values.iter_mut().zip(VALUES.iter()) {
        *slot = v.load(Ordering::Relaxed);
    }
    snap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_lists_every_name() {
        let snap = snapshot();
        assert_eq!(snap.iter().count(), NAMES.len());
        for (name, _) in snap.iter() {
            assert!(NAMES.contains(&name));
        }
    }

    #[test]
    #[should_panic(expected = "unknown metrics counter")]
    fn unknown_name_panics() {
        snapshot().get("no.such.counter");
    }

    #[test]
    fn add_is_visible_and_monotonic() {
        let before = snapshot();
        add("gemm.calls", 3);
        add("gemm.flops", 1000);
        let after = snapshot();
        let d = after.delta(&before);
        assert!(d.get("gemm.calls") >= 3);
        assert!(d.get("gemm.flops") >= 1000);
        assert!(after.get("gemm.calls") >= before.get("gemm.calls") + 3);
    }
}
