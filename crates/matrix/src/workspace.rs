//! Per-thread packing workspace for the blocked GEMM.
//!
//! Each thread that executes GEMM work owns one [`Workspace`] holding the
//! packed B slab (`KC x NC`); A is read in place and needs none. The buffer
//! grows monotonically and is never shrunk, so after a warm-up call at a
//! given problem size the steady state performs **zero heap allocation**
//! inside GEMM. Every actual growth bumps a thread-local counter, which the
//! allocation regression test snapshots across repeated calls.

use std::cell::{Cell, RefCell};

thread_local! {
    /// Growth events of the *calling thread's* workspace. Thread-local so
    /// unrelated threads (pool workers, parallel tests) cannot perturb an
    /// allocation regression test's snapshot.
    static GROWTH_EVENTS: Cell<usize> = const { Cell::new(0) };
}

/// Number of workspace buffer growth events (allocations or reallocations)
/// performed so far by the calling thread. Monotone; only meaningful as a
/// delta: snapshot before and after a repeated GEMM call — an unchanged
/// count proves the steady state allocates nothing.
pub fn workspace_growth_events() -> usize {
    GROWTH_EVENTS.with(|c| c.get())
}

/// Reusable B-packing buffer for one thread.
#[derive(Default)]
pub struct Workspace {
    b_pack: Vec<f64>,
}

impl Workspace {
    /// Mutable view of the packing buffer, grown (never shrunk) to at
    /// least `len` elements.
    pub fn panel(&mut self, len: usize) -> &mut [f64] {
        if self.b_pack.len() < len {
            GROWTH_EVENTS.with(|c| c.set(c.get() + 1));
            self.b_pack.resize(len, 0.0);
        }
        &mut self.b_pack[..len]
    }
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::default());
}

/// Run `f` with this thread's workspace.
///
/// GEMM never calls itself reentrantly from packing or micro-kernel code,
/// so the `RefCell` borrow cannot conflict.
pub(crate) fn with_workspace<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    WORKSPACE.with(|ws| f(&mut ws.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_grow_once_per_high_water_mark() {
        let t = std::thread::spawn(|| {
            let before = workspace_growth_events();
            with_workspace(|ws| {
                ws.panel(200);
            });
            let after_first = workspace_growth_events();
            assert_eq!(after_first, before + 1, "first use allocates the panel");
            for _ in 0..10 {
                with_workspace(|ws| ws.panel(200)[199] = 1.0);
            }
            assert_eq!(
                workspace_growth_events(),
                after_first,
                "steady state allocates nothing"
            );
            with_workspace(|ws| {
                ws.panel(201);
            });
            assert_eq!(workspace_growth_events(), after_first + 1, "grew once");
        });
        t.join().unwrap();
    }
}
