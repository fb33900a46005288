//! Counting global allocator: live bytes, high-water mark and call count
//! across every thread (lifted from the legacy `modes` bin). The library
//! only defines it; a binary that wants `peak_alloc_mb` installs it:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: dcst_benchmark::alloc::CountingAlloc = dcst_benchmark::alloc::CountingAlloc;
//! ```
//!
//! Without that the counters stay at zero and every peak reads 0.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

/// Wrapper around the system allocator. Relaxed is enough — the counters
/// are bookkeeping, never synchronization.
pub struct CountingAlloc;

fn bump(sz: usize) {
    let now = CURRENT.fetch_add(sz, Relaxed) + sz;
    PEAK.fetch_max(now, Relaxed);
}

// SAFETY: every method delegates verbatim to `System` and only adds
// atomic counter bookkeeping; layout/pointer contracts are untouched.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            CALLS.fetch_add(1, Relaxed);
            bump(layout.size());
        }
        p
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            CALLS.fetch_add(1, Relaxed);
            bump(layout.size());
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        CURRENT.fetch_sub(layout.size(), Relaxed);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            CALLS.fetch_add(1, Relaxed);
            if new_size >= layout.size() {
                bump(new_size - layout.size());
            } else {
                CURRENT.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

/// What one measured region allocated.
#[derive(Clone, Copy, Debug, Default)]
pub struct AllocUse {
    /// High-water of live bytes above the level at entry.
    pub peak_bytes: usize,
    /// Allocation calls (alloc, alloc_zeroed, realloc) made inside.
    pub calls: u64,
}

impl AllocUse {
    pub fn peak_mb(&self) -> f64 {
        self.peak_bytes as f64 / (1024.0 * 1024.0)
    }
}

/// Run `f` and report its allocation high-water and call count. Regions
/// must not nest or overlap: the high-water mark is one process-wide cell.
pub fn measure<R>(f: impl FnOnce() -> R) -> (AllocUse, R) {
    let base = CURRENT.load(Relaxed);
    let calls = CALLS.load(Relaxed);
    PEAK.store(base, Relaxed);
    let r = f();
    let used = AllocUse {
        peak_bytes: PEAK.load(Relaxed).saturating_sub(base),
        calls: CALLS.load(Relaxed) - calls,
    };
    (used, r)
}
