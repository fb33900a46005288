//! The access-check shadow tracker: dynamic validation of the safety
//! contract `SharedData` otherwise takes on faith. It is a debug
//! assertion: every debug build (so every plain `cargo test`) runs it,
//! and a release build compiles none of it.
//!
//! The STF discipline says a task may only touch buffer regions covered by
//! its declared accesses, and GatherV writers to one key must touch
//! disjoint ranges. Nothing enforces that — a misdeclared access compiles,
//! runs, and corrupts results silently on a rare schedule. In a debug
//! build the pool installs a thread-local task context (id, name,
//! declared accesses) around every task body, and every
//! [`SharedData`](crate::SharedData) borrow of a key-bound buffer is
//! checked against:
//!
//! 1. **The declared footprint** — a mutable borrow requires a declared
//!    `Write`/`ReadWrite`/`GatherV` on one of the buffer's bound keys; a
//!    shared borrow requires any declared access. Violations are
//!    deterministic: they panic on every run, independent of scheduling.
//! 2. **The live-interval table** — each buffer keeps the set of borrows
//!    currently held by running tasks; a new borrow overlapping a
//!    *different* task's live borrow (either side mutable) panics with
//!    both task names. This is what catches overlapping GatherV ranges,
//!    which are declaration-correct but disjointness-wrong.
//!
//! Every borrow a task takes is checked: a task borrowing a buffer never
//! bound via [`SharedData::bind_keys`](crate::SharedData::bind_keys) has
//! no declaration that could cover it, so that borrow panics too.
//!
//! Borrows are considered live until their task finishes (the pool clears
//! the context, and with it the task's interval entries, before releasing
//! successors). Contexts nest: a task body that runs tasks of its own (on
//! a [`Runtime::inline`](crate::Runtime::inline)) gets its context back,
//! live borrows included, when each inner task finishes. Borrows from
//! threads with no task context (e.g. the submitting thread between
//! phases) are not tracked. Same-task overlapping borrows are also not
//! flagged: tasks routinely re-slice a region sequentially, and those
//! aliases never run concurrently with themselves.

use crate::deps::{Access, AccessMode, DataKey};
use std::cell::RefCell;
use std::sync::{Arc, Mutex};

/// Per-buffer shadow state: the keys the buffer is bound to plus the
/// currently live borrows of running tasks.
pub(crate) struct BufferTracker {
    keys: Vec<DataKey>,
    live: Mutex<Vec<LiveBorrow>>,
}

struct LiveBorrow {
    start: usize,
    end: usize,
    mutable: bool,
    task_id: usize,
    task_name: &'static str,
}

pub(crate) struct TaskCtx {
    id: usize,
    name: &'static str,
    accesses: Vec<Access>,
    /// Trackers this task borrowed from, for O(borrowed buffers) cleanup.
    touched: Vec<Arc<BufferTracker>>,
}

thread_local! {
    static CURRENT: RefCell<Option<TaskCtx>> = const { RefCell::new(None) };
}

pub(crate) fn new_tracker(keys: &[DataKey]) -> Arc<BufferTracker> {
    Arc::new(BufferTracker {
        keys: keys.to_vec(),
        live: Mutex::new(Vec::new()),
    })
}

/// Called by the pool on the executing worker, before the task closure.
/// Returns the context this one displaces — the enclosing task's, when a
/// task body runs a task itself — for [`clear_task_ctx`] to restore.
pub(crate) fn install_task_ctx(
    id: usize,
    name: &'static str,
    accesses: Vec<Access>,
) -> Option<TaskCtx> {
    CURRENT.with(|c| {
        c.borrow_mut().replace(TaskCtx {
            id,
            name,
            accesses,
            touched: Vec::new(),
        })
    })
}

/// Called by the pool after the closure returns or panics, before
/// successors are released: retires every live borrow the task held and
/// reinstates `outer`, the context [`install_task_ctx`] displaced.
pub(crate) fn clear_task_ctx(outer: Option<TaskCtx>) {
    CURRENT.with(|c| {
        if let Some(ctx) = std::mem::replace(&mut *c.borrow_mut(), outer) {
            for tracker in &ctx.touched {
                tracker
                    .live
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .retain(|b| b.task_id != ctx.id);
            }
        }
    });
}

fn mode_allows(mode: AccessMode, mutable: bool) -> bool {
    if mutable {
        matches!(
            mode,
            AccessMode::Write | AccessMode::ReadWrite | AccessMode::GatherV
        )
    } else {
        true
    }
}

/// Validate one `SharedData::range`/`range_mut` call against the current
/// task's declaration and the buffer's live borrows, then record it.
/// `tracker` is `None` for a buffer never bound to a key.
pub(crate) fn on_borrow(
    tracker: Option<&Arc<BufferTracker>>,
    start: usize,
    end: usize,
    mutable: bool,
) {
    CURRENT.with(|c| {
        let mut cell = c.borrow_mut();
        let Some(ctx) = cell.as_mut() else {
            // Not inside a task (e.g. the master thread reading results
            // after `wait`): the runtime makes no scheduling promise here,
            // so there is nothing to check against.
            return;
        };
        let Some(tracker) = tracker else {
            panic!(
                "access-check: task '{}' took a {} borrow of {}..{} on a buffer never bound \
                 to a key (SharedData::bind_keys), so no declared access can cover it",
                ctx.name,
                if mutable { "mutable" } else { "shared" },
                start,
                end,
            );
        };
        let declared = ctx
            .accesses
            .iter()
            .any(|a| tracker.keys.contains(&a.key) && mode_allows(a.mode, mutable));
        if !declared {
            panic!(
                "access-check: task '{}' took a {} borrow of {}..{} on a buffer bound to {:?}, \
                 but declared no matching access (declared: {:?})",
                ctx.name,
                if mutable { "mutable" } else { "shared" },
                start,
                end,
                tracker.keys,
                ctx.accesses
            );
        }
        let mut live = tracker.live.lock().unwrap_or_else(|e| e.into_inner());
        for b in live.iter() {
            if b.task_id != ctx.id && b.end > start && end > b.start && (mutable || b.mutable) {
                panic!(
                    "access-check: overlapping concurrent borrows of a buffer bound to {:?}: \
                     task '{}' holds {}..{} ({}) while task '{}' takes {}..{} ({}); \
                     GatherV writers must touch disjoint ranges",
                    tracker.keys,
                    b.task_name,
                    b.start,
                    b.end,
                    if b.mutable { "mutable" } else { "shared" },
                    ctx.name,
                    start,
                    end,
                    if mutable { "mutable" } else { "shared" },
                );
            }
        }
        live.push(LiveBorrow {
            start,
            end,
            mutable,
            task_id: ctx.id,
            task_name: ctx.name,
        });
        drop(live);
        if !ctx.touched.iter().any(|t| Arc::ptr_eq(t, tracker)) {
            ctx.touched.push(tracker.clone());
        }
    });
}
