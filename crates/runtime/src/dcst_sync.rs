//! Sync-primitive alias layer for the pool.
//!
//! The pool imports every synchronization primitive it uses — mutexes,
//! condvars, atomics, work-stealing deques, thread spawning — from this
//! module instead of naming `parking_lot` / `std::sync` /
//! `crossbeam_deque` directly (`cargo run -p xtask -- analyze` enforces
//! this). In a normal build the aliases are zero-cost re-exports; under
//! `RUSTFLAGS="--cfg dcst_model_check"` they resolve to `loom-lite`'s
//! instrumented equivalents, so the model checker can serialize the pool's
//! every synchronization step and explore interleavings
//! (see `crates/runtime/tests/model.rs`).

#[cfg(not(dcst_model_check))]
mod imp {
    pub use parking_lot::{Condvar, Mutex};

    pub mod atomic {
        pub use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    }

    pub mod deque {
        pub use crossbeam_deque::{Injector, Steal, Stealer, Worker};
    }

    pub type WorkerHandle = std::thread::JoinHandle<()>;

    pub fn spawn_worker(name: String, f: impl FnOnce() + Send + 'static) -> WorkerHandle {
        std::thread::Builder::new()
            .name(name)
            .spawn(f)
            .expect("failed to spawn worker thread")
    }
}

#[cfg(dcst_model_check)]
mod imp {
    pub use loom_lite::sync::{Condvar, Mutex};

    pub mod atomic {
        pub use loom_lite::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    }

    pub mod deque {
        // Since PR 7 the lock-free Chase–Lev deque and segment-list
        // injector route their own atomics through loom-lite when built
        // under this cfg (vendor/crossbeam-deque/src/sys.rs), so the model
        // explores the REAL protocol — CAS races, growth, block handoff —
        // rather than loom-lite's mutex-based deque mirror (which remains
        // only in loom-lite's self-tests).
        pub use crossbeam_deque::{Injector, Steal, Stealer, Worker};
    }

    pub type WorkerHandle = loom_lite::thread::JoinHandle;

    pub fn spawn_worker(_name: String, f: impl FnOnce() + Send + 'static) -> WorkerHandle {
        loom_lite::thread::spawn(f)
    }
}

pub(crate) use imp::*;
