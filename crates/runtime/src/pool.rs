//! Out-of-order task execution on a work-stealing worker pool.
//!
//! A submitter opens a [`Scope`] ([`Runtime::scope`] or
//! [`Runtime::priority_scope`]) and states its flow through it with
//! [`Scope::task`]; dependencies are inferred by that scope's
//! [`DepTracker`](crate::deps) — keys are names within a scope — and
//! encoded as edges between nodes. A node becomes *ready* when its last
//! unfinished predecessor completes, at which point
//! it is pushed to a crossbeam injector that the worker threads drain
//! (local LIFO deque first, then the priority injector, then the regular
//! injector, then stealing).
//!
//! The scheduler is critical-path-aware: tasks marked
//! [`TaskBuilder::high_priority`] (the merge phase's serial spine —
//! deflation, the ReduceW join, leaf STEDC) land in a dedicated priority
//! lane that every worker polls ahead of the commuting panel tasks, so a
//! ready join never queues behind a wall of panel work. Local deques pop
//! LIFO to keep a worker on the cache-hot chain it just unlocked; stealers
//! still take the oldest task, preserving breadth for load balance.
//!
//! [`Runtime::inline`] is the degenerate discipline: each task body runs on
//! the submitting thread at submission, so the task flow executes as the
//! sequential program it spells. Only tasks marked [`TaskBuilder::fork`]
//! leave the caller, for an optional pool that is joined before the next
//! inline task — the fork/join shape of a sequential code over threaded
//! kernels.

use crate::dcst_sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use crate::dcst_sync::deque::{Injector, Steal, Stealer, Worker as WorkerDeque};
use crate::dcst_sync::{spawn_worker, Condvar, Mutex, WorkerHandle};
use crate::deps::{Access, AccessMode, DataKey, DepTracker};
use crate::metrics::{PoolCounters, RuntimeMetrics};
use crate::trace::{TaskRecord, Trace};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Boxed error type carried through the runtime's failure channel.
pub type BoxError = Box<dyn std::error::Error + Send + Sync + 'static>;

std::thread_local! {
    /// Trace-name override for the task currently executing on this
    /// worker; consumed (and cleared) when its record is written.
    static TRACE_NAME_OVERRIDE: std::cell::Cell<Option<&'static str>> =
        const { std::cell::Cell::new(None) };
}

/// Rename the currently executing task in the execution trace.
///
/// Task names are fixed at submission time, but some task bodies choose a
/// variant at run time (e.g. `UpdateVect` picking the rank-structured
/// multiply); calling this from inside the body relabels this execution's
/// trace record so profiles show the variants distinctly. A no-op outside
/// a task or with tracing disabled; the override never leaks to the next
/// task on the worker.
pub fn set_task_trace_name(name: &'static str) {
    TRACE_NAME_OVERRIDE.with(|c| c.set(Some(name)));
}

type TaskFn = Box<dyn FnOnce() -> Result<(), BoxError> + Send + 'static>;

/// How a task failed: a caught panic, a typed error returned from a
/// [`TaskBuilder::spawn_try`] body, or an explicit [`Scope::cancel`].
#[derive(Debug)]
pub enum FailureKind {
    /// The task body panicked; the payload is rendered as text.
    Panicked(String),
    /// The task body returned a typed error.
    Failed(BoxError),
    /// The scope was cancelled before its tasks completed.
    Cancelled,
}

/// Error returned by [`Scope::wait`]: the first task failure (typed
/// error, panic, or cancellation) of the waited phase, with the losing
/// task's name.
#[derive(Debug)]
pub struct RuntimeError {
    /// Name of the first task that failed (`"<scope>"` for an explicit
    /// [`Scope::cancel`], which is not attributable to any one task).
    pub task: String,
    /// What happened inside that task.
    pub kind: FailureKind,
}

impl RuntimeError {
    /// The failure rendered as text (panic payload or error `Display`).
    pub fn message(&self) -> String {
        match &self.kind {
            FailureKind::Panicked(m) => m.clone(),
            FailureKind::Failed(e) => e.to_string(),
            FailureKind::Cancelled => "cancelled".to_string(),
        }
    }

    /// True when the task panicked (as opposed to returning a typed error).
    pub fn is_panic(&self) -> bool {
        matches!(self.kind, FailureKind::Panicked(_))
    }

    /// True when the scope was cancelled rather than failing on its own.
    pub fn is_cancelled(&self) -> bool {
        matches!(self.kind, FailureKind::Cancelled)
    }

    /// Recover the typed error a `spawn_try` body returned, together with
    /// the failing task's name. Panics and foreign error types are handed
    /// back unchanged in `Err`.
    pub fn downcast<T>(self) -> Result<(String, T), Self>
    where
        T: std::error::Error + Send + Sync + 'static,
    {
        match self.kind {
            FailureKind::Failed(b) => match b.downcast::<T>() {
                Ok(t) => Ok((self.task, *t)),
                Err(b) => Err(RuntimeError {
                    task: self.task,
                    kind: FailureKind::Failed(b),
                }),
            },
            kind => Err(RuntimeError {
                task: self.task,
                kind,
            }),
        }
    }
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            FailureKind::Panicked(m) => write!(f, "task '{}' panicked: {m}", self.task),
            FailureKind::Failed(e) => write!(f, "task '{}' failed: {e}", self.task),
            FailureKind::Cancelled => write!(f, "'{}' cancelled", self.task),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.kind {
            FailureKind::Failed(e) => Some(&**e),
            FailureKind::Panicked(_) | FailureKind::Cancelled => None,
        }
    }
}

struct NodeBody {
    /// Taken by the executing worker.
    closure: Option<TaskFn>,
    /// Tasks waiting on this one; edges registered at submission time.
    successors: Vec<Arc<Node>>,
    finished: bool,
}

struct Node {
    id: usize,
    name: &'static str,
    /// Critical-path task: scheduled through the priority lane.
    high: bool,
    pending: AtomicUsize,
    body: Mutex<NodeBody>,
    /// The submission scope this task belongs to: its failure/cancellation
    /// domain and completion counter.
    scope: Arc<ScopeState>,
    /// Declared accesses, kept past submission so the executing worker can
    /// install the shadow tracker's task context (debug builds only).
    #[cfg(debug_assertions)]
    accesses: Vec<Access>,
}

/// Per-scope failure/cancellation domain. Every task belongs to exactly
/// one [`Scope`]; a failure or cancel latches *only* its own scope, so
/// concurrent submissions — e.g. independent solve requests multiplexed
/// over one pool — can never abort or mis-attribute each other's tasks.
struct ScopeState {
    id: usize,
    /// Tasks of this scope submitted but not yet finished.
    outstanding: AtomicUsize,
    /// First task failure (typed error or panic) of the scope's current
    /// phase, or the cancellation marker.
    failure: Mutex<Option<RuntimeError>>,
    /// Latched by the scope's first failure or an explicit cancel; bodies
    /// of this scope's not-yet-started tasks are skipped while set.
    /// Cleared by `wait()` so the scope is reusable.
    cancelled: AtomicBool,
    /// Route every task of this scope through the priority injector lane
    /// (a whole-request priority class, on top of per-task
    /// [`TaskBuilder::high_priority`]).
    boost: bool,
}

impl ScopeState {
    fn new(id: usize, boost: bool) -> Self {
        ScopeState {
            id,
            outstanding: AtomicUsize::new(0),
            failure: Mutex::new(None),
            cancelled: AtomicBool::new(false),
            boost,
        }
    }

    /// Record the first failure of the scope's phase and latch its
    /// cancellation. The latch is raised *before* the failing task's
    /// successors are released (the caller runs the release loop after
    /// `execute`'s body section), so a successor made ready by a failing
    /// task never runs its body.
    fn record_failure(&self, task: &str, kind: FailureKind) {
        let mut slot = self.failure.lock();
        if slot.is_none() {
            *slot = Some(RuntimeError {
                task: task.to_string(),
                kind,
            });
        }
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// Latch cancellation: queued-but-unstarted bodies of this scope are
    /// skipped, and `wait` reports [`FailureKind::Cancelled`] unless a real
    /// failure latched first (first entry wins, so cancelling an
    /// already-failed scope preserves the failure's attribution).
    fn cancel(&self) {
        self.record_failure("<scope>", FailureKind::Cancelled);
    }
}

struct Shared {
    injector: Injector<Arc<Node>>,
    /// Priority lane polled ahead of `injector` by every worker.
    hi_injector: Injector<Arc<Node>>,
    stealers: Vec<Stealer<Arc<Node>>>,
    /// Tasks submitted but not yet finished.
    outstanding: AtomicUsize,
    /// Workers currently parked on `idle_cv` (incremented under
    /// `idle_lock` before the final queue re-check, so a pusher that reads
    /// 0 is guaranteed the worker will still see its push).
    idle_workers: AtomicUsize,
    /// Signals workers to exit.
    stop: AtomicBool,
    /// True while a trace buffer is installed (cheap pre-check).
    tracing: AtomicBool,
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
    /// One lock/condvar pair serves every waiter: `Scope::wait` and the
    /// drop-time global drain both sleep on `done_cv` and re-check their
    /// own counter. Scope completions are rare (one per
    /// request), so the shared notify_all costs nothing measurable and
    /// avoids a dynamically growing set of condvars.
    done_lock: Mutex<()>,
    done_cv: Condvar,
    /// Trace records tagged with the executing task's scope id, so
    /// `take_scope_trace` can split one shared pool's trace per request.
    trace: Mutex<Vec<(TaskRecord, usize)>>,
    /// Dependency edges observed at submission while tracing is enabled,
    /// tagged with the successor's scope id.
    trace_edges: Mutex<Vec<(usize, usize, usize)>>,
    /// Per-worker scheduler counters (see `crate::metrics` for the exact
    /// counter semantics).
    metrics: PoolCounters,
    epoch: Instant,
}

impl Shared {
    fn push_ready(&self, node: Arc<Node>) {
        self.metrics.depth_inc();
        if node.high {
            self.hi_injector.push(node);
        } else {
            self.injector.push(node);
        }
        // Skip the notify syscall when nobody is parked (the common case
        // while the pool is saturated). The counter is raised under
        // `idle_lock` before the parking worker's final emptiness check, so
        // reading 0 here means that worker will observe this push.
        if self.idle_workers.load(Ordering::SeqCst) > 0 {
            let _g = self.idle_lock.lock();
            self.idle_cv.notify_one();
        }
    }

    fn execute(&self, node: Arc<Node>, worker_id: usize) {
        // Counted unconditionally — cancelled skips included — so the
        // executed counter always matches an enabled trace's record count.
        self.metrics.executed(worker_id);
        let closure = node.body.lock().closure.take();
        let start = self.epoch.elapsed();
        // After the task's own scope latches (failure or explicit cancel),
        // drop remaining bodies of THAT scope without running them; other
        // scopes' tasks are untouched. The successor bookkeeping below
        // still runs so the counters reach zero and the waits terminate.
        let skip = node.scope.cancelled.load(Ordering::SeqCst);
        if let Some(f) = closure {
            if skip {
                drop(f);
            } else {
                // The task context must be installed before the closure's
                // first SharedData borrow and cleared (even on panic) before
                // successors are released, so a successor's borrows are never
                // checked against this task's already-retired ones. Clearing
                // reinstates the context it displaced: that of the task whose
                // body runs this one on an inline runtime.
                #[cfg(debug_assertions)]
                let outer =
                    crate::check::install_task_ctx(node.id, node.name, node.accesses.clone());
                let result = catch_unwind(AssertUnwindSafe(f));
                #[cfg(debug_assertions)]
                crate::check::clear_task_ctx(outer);
                match result {
                    Ok(Ok(())) => {}
                    Ok(Err(err)) => node
                        .scope
                        .record_failure(node.name, FailureKind::Failed(err)),
                    Err(payload) => {
                        let message = payload
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "non-string panic payload".into());
                        node.scope
                            .record_failure(node.name, FailureKind::Panicked(message));
                    }
                }
            }
        }
        // Always drained, traced or not, so an override set by this body
        // can never label a later task on the same worker.
        let renamed = TRACE_NAME_OVERRIDE.with(|c| c.take());
        if self.tracing.load(Ordering::Relaxed) {
            let end = self.epoch.elapsed();
            self.trace.lock().push((
                TaskRecord {
                    id: node.id,
                    name: renamed.unwrap_or(node.name),
                    worker: worker_id,
                    start_us: start.as_micros() as u64,
                    end_us: end.as_micros() as u64,
                },
                node.scope.id,
            ));
        }
        // Release successors.
        let successors = {
            let mut body = node.body.lock();
            body.finished = true;
            std::mem::take(&mut body.successors)
        };
        for s in successors {
            if s.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                self.push_ready(s);
            }
        }
        // Scope counter first, global counter second: when the global count
        // hits zero every scope count already has, so the drop-time drain
        // can never observe a stale non-zero scope.
        let scope_done = node.scope.outstanding.fetch_sub(1, Ordering::AcqRel) == 1;
        let all_done = self.outstanding.fetch_sub(1, Ordering::AcqRel) == 1;
        if scope_done || all_done {
            let _g = self.done_lock.lock();
            self.done_cv.notify_all();
        }
    }
}

fn find_task(
    shared: &Shared,
    local: &WorkerDeque<Arc<Node>>,
    worker_id: usize,
) -> Option<Arc<Node>> {
    if let Some(node) = local.pop() {
        return Some(node);
    }
    loop {
        // Priority lane first: a ready critical-path task (deflation,
        // ReduceW, STEDC) must not queue behind commuting panel tasks.
        // These are popped singly — they are rare and serial by nature, so
        // batching them into one worker's local deque would only delay a
        // sibling's chance to pick one up.
        match shared.hi_injector.steal() {
            Steal::Success(node) => {
                shared.metrics.priority_hit(worker_id);
                return Some(node);
            }
            Steal::Retry => {
                shared.metrics.steal_retry(worker_id);
                continue;
            }
            Steal::Empty => {}
        }
        match shared.injector.steal_batch_and_pop(local) {
            Steal::Success(node) => return Some(node),
            Steal::Retry => {
                shared.metrics.steal_retry(worker_id);
                continue;
            }
            Steal::Empty => {}
        }
        // Both injectors empty: sweep the sibling deques. One sweep is one
        // steal attempt for the metrics, successful or not.
        shared.metrics.steal_attempt(worker_id);
        match shared.stealers.iter().map(|s| s.steal()).collect() {
            Steal::Success(node) => {
                shared.metrics.steal_success(worker_id);
                return Some(node);
            }
            Steal::Empty => return None,
            Steal::Retry => {
                shared.metrics.steal_retry(worker_id);
                continue;
            }
        }
    }
}

fn worker_loop(shared: Arc<Shared>, local: WorkerDeque<Arc<Node>>, worker_id: usize) {
    loop {
        match find_task(&shared, &local, worker_id) {
            Some(node) => {
                shared.metrics.depth_dec();
                shared.execute(node, worker_id)
            }
            None => {
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
                let mut guard = shared.idle_lock.lock();
                // Publish idleness, then re-check under the lock. The
                // argument has two halves, stated against the atomic deque:
                //
                // * Injectors (correctness): every newly *released* task
                //   lands in an injector via `push_ready`, whose pusher
                //   either sees the raised idle counter (and notifies under
                //   this same lock, which we hold until the wait releases
                //   it) or pushed early enough for the `is_empty` re-check
                //   below to observe the push — the injector's push CAS on
                //   the tail index is ordered before `is_empty`'s SeqCst
                //   index loads. Either way no wakeup is lost.
                //
                // * Sibling deques (latency only): work can also sit in
                //   another worker's local deque — batched there by
                //   `steal_batch_and_pop` after our sweep looked, never
                //   notified because only `push_ready` notifies. The owner
                //   is awake and will drain it, so parking here is *safe*;
                //   it just forfeits parallelism until the next release.
                //   `Stealer::is_empty` is a racy hint (top/bottom loads,
                //   no CAS), which is exactly enough for a heuristic
                //   re-check: a false "empty" restores the status quo ante
                //   (owner drains it), a false "non-empty" costs one more
                //   find_task sweep. The 1 s `wait_for` backstop below
                //   stays as insurance against bugs, not as part of either
                //   argument — the model suite runs with untimed waits.
                shared.idle_workers.fetch_add(1, Ordering::SeqCst);
                if shared.hi_injector.is_empty()
                    && shared.injector.is_empty()
                    && shared.stealers.iter().all(|s| s.is_empty())
                    && !shared.stop.load(Ordering::Acquire)
                {
                    shared.metrics.park(worker_id);
                    shared
                        .idle_cv
                        .wait_for(&mut guard, std::time::Duration::from_secs(1));
                }
                shared.idle_workers.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

/// One scope's dependency domain: the access history of the keys its
/// tasks have named, and the nodes that history refers to. It lives and
/// dies with its scope, so a [`DataKey`] is a name *within* a scope and
/// nothing outlives a request.
#[derive(Default)]
struct DepDomain {
    /// Knows a task by its position in `nodes`.
    tracker: DepTracker,
    /// The scope's nodes since it was last waited quiescent, in submission
    /// order, for edge wiring.
    nodes: Vec<Arc<Node>>,
}

/// What a [`Scope`] owns of its scope. The domain sits *beside* the shared
/// state, never inside it: every `Node` holds its `Arc<ScopeState>`, so a
/// node table reachable from there would be a cycle keeping an abandoned
/// scope alive for good.
struct ScopeCore {
    state: Arc<ScopeState>,
    /// Held by a submitter while it allocates the task's id, infers its
    /// dependencies and counts it outstanding.
    deps: Mutex<DepDomain>,
}

impl ScopeCore {
    fn new(id: usize, boost: bool) -> Self {
        ScopeCore {
            state: Arc::new(ScopeState::new(id, boost)),
            deps: Mutex::new(DepDomain::default()),
        }
    }
}

/// The sequential-task-flow runtime. See the crate docs for the model.
pub struct Runtime {
    shared: Arc<Shared>,
    threads: Vec<WorkerHandle>,
    /// Task and scope ids are unique per runtime, whichever scope draws
    /// them: trace records and edges of every scope share one id space.
    next_task_id: AtomicUsize,
    next_scope_id: AtomicUsize,
    num_threads: usize,
    /// The inline discipline ([`Runtime::inline`]): task bodies run on the
    /// submitting thread, which owns trace lane `num_threads`.
    inline: bool,
    /// Model-check only: reintroduce the pre-sentinel successor-wiring
    /// race so the model checker can demonstrate it catches the bug.
    #[cfg(dcst_model_check)]
    buggy_wiring: bool,
}

impl Runtime {
    /// Spawn a pool of `num_threads` workers (at least 1).
    pub fn new(num_threads: usize) -> Self {
        Self::build(num_threads.max(1), false)
    }

    /// A runtime in the *inline* discipline: every task body runs on the
    /// submitting thread, at submission — a sequential task flow executed
    /// in submission order *is* the sequential algorithm. There is no
    /// dependency tracking and no cross-thread handoff; declared accesses
    /// only feed a debug build's shadow tracker. Trace records, the
    /// per-scope first-failure latch and skip-after-failure behave exactly
    /// as on the pool, and `wait` is still what reports the failure.
    ///
    /// `fork_threads` workers (0 for none) serve only the tasks marked
    /// [`TaskBuilder::fork`]; the submitter joins them — running queued
    /// ones itself — before it runs its next inline task. One thread
    /// submits at a time.
    pub fn inline(fork_threads: usize) -> Self {
        Self::build(fork_threads, true)
    }

    fn build(num_threads: usize, inline: bool) -> Self {
        // LIFO locals: of the batch a worker pulls from the injector it
        // runs the most recently released task first (the one whose inputs
        // are most likely still in cache), while stealers take from the
        // opposite (oldest) end to preserve breadth.
        let deques: Vec<_> = (0..num_threads).map(|_| WorkerDeque::new_lifo()).collect();
        let stealers = deques.iter().map(|d| d.stealer()).collect();
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            hi_injector: Injector::new(),
            stealers,
            outstanding: AtomicUsize::new(0),
            idle_workers: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            tracing: AtomicBool::new(false),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
            trace: Mutex::new(Vec::new()),
            trace_edges: Mutex::new(Vec::new()),
            metrics: PoolCounters::new(num_threads + usize::from(inline)),
            epoch: Instant::now(),
        });
        let threads = deques
            .into_iter()
            .enumerate()
            .map(|(i, d)| {
                let sh = shared.clone();
                spawn_worker(format!("dcst-worker-{i}"), move || worker_loop(sh, d, i))
            })
            .collect();
        Runtime {
            shared,
            threads,
            next_task_id: AtomicUsize::new(0),
            next_scope_id: AtomicUsize::new(0),
            num_threads,
            inline,
            #[cfg(dcst_model_check)]
            buggy_wiring: false,
        }
    }

    /// Model-check only: a runtime whose successor wiring re-creates the
    /// unsynchronized finished-check/push window the +1 pending sentinel
    /// fixed. Exists so `tests/model.rs` can prove the checker detects
    /// that bug class (a lost successor release deadlocks the model).
    #[cfg(dcst_model_check)]
    pub fn new_with_buggy_wiring(num_threads: usize) -> Self {
        let mut rt = Self::new(num_threads);
        rt.buggy_wiring = true;
        rt
    }

    /// Number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Trace lanes: one per worker, plus the submitter's when it runs
    /// task bodies itself.
    fn lanes(&self) -> usize {
        self.num_threads + usize::from(self.inline)
    }

    /// Open a fresh submission scope — the only way to submit work: an
    /// isolated dependency and failure/cancellation domain over the shared
    /// pool. Tasks submitted through the scope ([`Scope::task`]) run on
    /// the same workers as everything else, but they order only against
    /// each other, a failure (or [`Scope::cancel`]) latches only this
    /// scope — concurrent scopes keep running — and [`Scope::wait`]
    /// observes only this scope's completion and first failure.
    pub fn scope(&self) -> Scope<'_> {
        self.new_scope(false)
    }

    /// [`scope`](Self::scope), but every task submitted through it enters
    /// the priority injector lane: the whole-request priority class a
    /// server maps high-priority requests onto.
    pub fn priority_scope(&self) -> Scope<'_> {
        self.new_scope(true)
    }

    fn new_scope(&self, boost: bool) -> Scope<'_> {
        let id = self.next_scope_id.fetch_add(1, Ordering::Relaxed);
        Scope {
            rt: self,
            core: ScopeCore::new(id, boost),
        }
    }

    /// Start recording per-task timing and dependency edges. Any previous
    /// trace is discarded.
    pub fn enable_tracing(&self) {
        *self.shared.trace.lock() = Vec::new();
        *self.shared.trace_edges.lock() = Vec::new();
        self.shared.tracing.store(true, Ordering::Relaxed);
    }

    /// Stop tracing and return the records and edges collected so far
    /// (all scopes).
    pub fn take_trace(&self) -> Trace {
        self.shared.tracing.store(false, Ordering::Relaxed);
        Trace {
            records: std::mem::take(&mut *self.shared.trace.lock())
                .into_iter()
                .map(|(r, _)| r)
                .collect(),
            edges: std::mem::take(&mut *self.shared.trace_edges.lock())
                .into_iter()
                .map(|(from, to, _)| (from, to))
                .collect(),
            num_workers: self.lanes(),
        }
    }

    /// Drain the trace records and edges belonging to one scope, leaving
    /// other scopes' records in place and tracing ENABLED — the
    /// per-request trace path of a long-lived server, where one shared
    /// pool interleaves many requests and each response carries only its
    /// own timeline. Call after the scope's `wait` so the records are
    /// complete.
    pub fn take_scope_trace(&self, scope: &Scope<'_>) -> Trace {
        let sid = scope.core.state.id;
        let mut records = Vec::new();
        {
            let mut all = self.shared.trace.lock();
            let mut keep = Vec::with_capacity(all.len());
            for (r, s) in all.drain(..) {
                if s == sid {
                    records.push(r);
                } else {
                    keep.push((r, s));
                }
            }
            *all = keep;
        }
        let mut edges = Vec::new();
        {
            let mut all = self.shared.trace_edges.lock();
            let mut keep = Vec::with_capacity(all.len());
            for (from, to, s) in all.drain(..) {
                if s == sid {
                    edges.push((from, to));
                } else {
                    keep.push((from, to, s));
                }
            }
            *all = keep;
        }
        Trace {
            records,
            edges,
            num_workers: self.lanes(),
        }
    }

    /// Snapshot the scheduler counters accumulated since the pool started.
    /// Counters are cumulative across phases; diff two snapshots to
    /// isolate one phase.
    pub fn runtime_metrics(&self) -> RuntimeMetrics {
        let mut snap = self.shared.metrics.snapshot();
        // Growth is counted inside each deque (the owner bumps a plain
        // relaxed counter per doubling); fold it in here rather than in
        // PoolCounters so the hot push path carries no extra probe.
        for (w, s) in snap.workers.iter_mut().zip(self.shared.stealers.iter()) {
            w.deque_grows = s.grow_count();
        }
        snap
    }

    /// Current ready-queue depth: tasks released to the injectors or local
    /// deques but not yet started. A server's admission control reads this
    /// gauge to shed load when the pool's backlog saturates.
    pub fn ready_queue_depth(&self) -> u64 {
        self.shared.metrics.depth()
    }

    /// A node counted as outstanding in its scope and in the pool. Its
    /// `pending` count starts at the +1 sentinel that keeps the task from
    /// firing while `submit_task` wires its edges.
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    fn new_node(
        &self,
        id: usize,
        scope: &Arc<ScopeState>,
        name: &'static str,
        accesses: Vec<Access>,
        high: bool,
        f: TaskFn,
    ) -> Arc<Node> {
        scope.outstanding.fetch_add(1, Ordering::AcqRel);
        self.shared.outstanding.fetch_add(1, Ordering::AcqRel);
        Arc::new(Node {
            id,
            name,
            high,
            pending: AtomicUsize::new(1),
            body: Mutex::new(NodeBody {
                closure: Some(f),
                successors: Vec::new(),
                finished: false,
            }),
            scope: scope.clone(),
            #[cfg(debug_assertions)]
            accesses,
        })
    }

    /// Submission in the inline discipline: run the body here and now, on
    /// the submitter's own trace lane — or, for a forked task when fork
    /// workers exist, push it to them as a dependency-free node.
    fn submit_inline(
        &self,
        scope: &Arc<ScopeState>,
        name: &'static str,
        accesses: Vec<Access>,
        fork: bool,
        f: TaskFn,
    ) {
        let id = self.next_task_id.fetch_add(1, Ordering::Relaxed);
        let fork = fork && self.num_threads > 0;
        if !fork {
            // The flow continues past a forked group: join it first.
            self.join_forked(scope);
        }
        let node = self.new_node(id, scope, name, accesses, false, f);
        if fork {
            self.shared.push_ready(node);
        } else {
            self.shared.execute(node, self.num_threads);
        }
    }

    /// Join `scope`'s forked group. The submitter is an executor too: it
    /// runs whatever part of the group is still queued instead of sleeping
    /// through it, so a small (or empty-bodied) group costs no handoff.
    fn join_forked(&self, scope: &ScopeState) {
        while scope.outstanding.load(Ordering::Acquire) != 0 {
            let queued = match self.shared.injector.steal() {
                Steal::Empty => self.shared.stealers.iter().map(|s| s.steal()).collect(),
                found => found,
            };
            match queued {
                Steal::Success(node) => {
                    self.shared.metrics.depth_dec();
                    self.shared.execute(node, self.num_threads);
                }
                Steal::Retry => {}
                // The rest of the group is running on the fork workers.
                Steal::Empty => return self.drain(scope),
            }
        }
    }

    fn submit_task(
        &self,
        core: &ScopeCore,
        name: &'static str,
        accesses: Vec<Access>,
        high: bool,
        fork: bool,
        f: TaskFn,
    ) {
        let scope = &core.state;
        if self.inline {
            return self.submit_inline(scope, name, accesses, fork, f);
        }
        // A scope-wide priority class boosts every one of its tasks into
        // the priority lane, on top of per-task high_priority.
        let high = high || scope.boost;
        // Under the scope's own lock: allocate the id (so ids rise in the
        // scope's submission order), infer dependencies, and resolve the
        // predecessors to nodes. Other scopes submit concurrently. The
        // per-predecessor edge wiring (which takes each predecessor's body
        // lock and can contend with finishing workers) happens after the
        // lock drops, so a long dependency list does not hold up a second
        // submitter of this scope either.
        let mut st = core.deps.lock();
        let id = self.next_task_id.fetch_add(1, Ordering::Relaxed);
        let seq = st.nodes.len();
        let deps = st.tracker.submit(seq, &accesses);
        let preds: Vec<Arc<Node>> = deps.iter().map(|&d| st.nodes[d].clone()).collect();
        if !preds.is_empty() && self.shared.tracing.load(Ordering::Relaxed) {
            let mut edges = self.shared.trace_edges.lock();
            edges.extend(preds.iter().map(|p| (p.id, id, scope.id)));
        }
        let node = self.new_node(id, scope, name, accesses, high, f);
        st.nodes.push(node.clone());
        drop(st);
        #[cfg(dcst_model_check)]
        if self.buggy_wiring {
            // The pre-sentinel bug under model test: the finished check and
            // the successor push happen under two separate body locks, so a
            // predecessor finishing in the window drains its successor list
            // without this node in it — `pending` never reaches zero.
            for pred in &preds {
                let finished = pred.body.lock().finished;
                if !finished {
                    node.pending.fetch_add(1, Ordering::AcqRel);
                    pred.body.lock().successors.push(node.clone());
                }
            }
            if node.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                self.shared.push_ready(node);
            }
            return;
        }
        // The Arc clones keep predecessors alive should a concurrent `wait`
        // clear the table; each body lock decides the finished-vs-pending
        // race per predecessor.
        for pred in preds {
            let mut body = pred.body.lock();
            if !body.finished {
                node.pending.fetch_add(1, Ordering::AcqRel);
                body.successors.push(node.clone());
            }
        }
        if node.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.shared.push_ready(node);
        }
    }

    /// Sleep until every submitted task of `scope` has finished.
    fn drain(&self, scope: &ScopeState) {
        let mut guard = self.shared.done_lock.lock();
        // The finishing worker notifies `done_cv` under `done_lock` when a
        // scope's (or the global) outstanding count reaches zero, and this
        // re-check holds the same lock, so the wakeup cannot be missed; the
        // timeout is a safety backstop, not a polling interval.
        while scope.outstanding.load(Ordering::Acquire) != 0 {
            self.shared
                .done_cv
                .wait_for(&mut guard, std::time::Duration::from_secs(1));
        }
    }

    fn wait_scope(&self, core: &ScopeCore) -> Result<(), RuntimeError> {
        let scope = &core.state;
        self.drain(scope);
        {
            // A task is counted outstanding under this lock, so zero here
            // means every task the domain names has finished: a later task
            // could only infer edges that release at once, and forgetting
            // them changes nothing. (Non-zero: another thread submitted
            // since the drain; its wait clears.)
            let mut st = core.deps.lock();
            if scope.outstanding.load(Ordering::Acquire) == 0 {
                st.tracker.clear();
                st.nodes.clear();
            }
        }
        let failure = scope.failure.lock().take();
        // Reset the latch only after the slot is drained: every task of the
        // failed phase has finished (outstanding hit zero), so nothing can
        // re-latch between these two lines for the *old* phase.
        scope.cancelled.store(false, Ordering::SeqCst);
        match failure {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // Tasks can still be in flight (a `Scope` dropped without
        // waiting); drain the GLOBAL count before stopping the workers so
        // no task body is abandoned in a queue.
        {
            let mut guard = self.shared.done_lock.lock();
            while self.shared.outstanding.load(Ordering::Acquire) != 0 {
                self.shared
                    .done_cv
                    .wait_for(&mut guard, std::time::Duration::from_secs(1));
            }
        }
        self.shared.stop.store(true, Ordering::Release);
        {
            let _g = self.shared.idle_lock.lock();
            self.shared.idle_cv.notify_all();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// An isolated dependency and failure/cancellation domain over the shared
/// pool, opened by [`Runtime::scope`] / [`Runtime::priority_scope`].
///
/// A long-lived runtime multiplexing independent submissions (the serve
/// daemon's concurrent solve requests) gives each its own scope: tasks of
/// every scope interleave freely on the same workers, but a typed failure,
/// panic, or [`cancel`](Scope::cancel) latches only the owning scope —
/// its queued bodies are skipped, its [`wait`](Scope::wait) reports the
/// first failure, and every other scope is untouched. After a successful
/// `wait` the scope is reusable for another phase.
///
/// [`DataKey`]s are names *within* a scope: dependencies are inferred
/// among this scope's tasks only, so two scopes may declare the same key
/// — on different data — and impose no order on each other, and two
/// submitters never wait on one lock. Dropping the scope drops its
/// dependency bookkeeping, tasks still in flight or not; they finish on
/// the pool and free themselves.
pub struct Scope<'rt> {
    rt: &'rt Runtime,
    core: ScopeCore,
}

impl<'rt> Scope<'rt> {
    /// Begin building a task in this scope.
    pub fn task(&self, name: &'static str) -> TaskBuilder<'_> {
        TaskBuilder {
            rt: self.rt,
            scope: &self.core,
            name,
            accesses: Vec::new(),
            high: false,
            fork: false,
        }
    }

    /// Block until every task of this scope has finished or been skipped,
    /// returning the scope's first failure (typed error, panic, or
    /// [`Cancelled`](FailureKind::Cancelled)), then reset the scope for
    /// reuse. Only this scope's tasks are observed.
    pub fn wait(&self) -> Result<(), RuntimeError> {
        self.rt.wait_scope(&self.core)
    }

    /// Latch this scope's cancellation: bodies of its not-yet-started
    /// tasks are skipped (already-running bodies complete), and `wait`
    /// reports [`FailureKind::Cancelled`] unless a real failure latched
    /// first. Idempotent; other scopes are unaffected.
    pub fn cancel(&self) {
        self.core.state.cancel();
    }

    /// An owner-independent handle that can cancel this scope from another
    /// thread (e.g. a server's control connection while an executor thread
    /// owns the `Scope` and blocks in [`wait`](Scope::wait)).
    pub fn cancel_handle(&self) -> CancelHandle {
        CancelHandle {
            state: self.core.state.clone(),
        }
    }

    /// True once a failure or cancel has latched this scope's current phase.
    pub fn is_cancelled(&self) -> bool {
        self.core.state.cancelled.load(Ordering::SeqCst)
    }

    /// Scope id (unique per runtime; tags this scope's trace records).
    pub fn id(&self) -> usize {
        self.core.state.id
    }

    /// The runtime this scope submits into.
    pub fn runtime(&self) -> &'rt Runtime {
        self.rt
    }
}

impl Drop for Scope<'_> {
    fn drop(&mut self) {
        // Non-blocking: if the scope is already quiescent, report a failure
        // nobody waited for (deliberate cancellation is not noise-worthy).
        // In-flight tasks stay owned by the pool and are drained by
        // `Runtime::drop`'s global drain.
        let state = &self.core.state;
        if state.outstanding.load(Ordering::Acquire) == 0 {
            if let Some(err) = state.failure.lock().take() {
                if !err.is_cancelled() {
                    eprintln!("dcst-runtime: scope dropped with unobserved task failure: {err}");
                }
            }
        }
    }
}

/// Cancels a [`Scope`] from outside its owning thread; see
/// [`Scope::cancel_handle`]. Clones share the same scope.
#[derive(Clone)]
pub struct CancelHandle {
    state: Arc<ScopeState>,
}

impl CancelHandle {
    /// Latch the scope's cancellation (same semantics as [`Scope::cancel`]).
    pub fn cancel(&self) {
        self.state.cancel();
    }

    /// True once a failure or cancel has latched the scope.
    pub fn is_cancelled(&self) -> bool {
        self.state.cancelled.load(Ordering::SeqCst)
    }
}

/// Builder for one task: declare accesses, then [`spawn`](Self::spawn).
pub struct TaskBuilder<'s> {
    rt: &'s Runtime,
    scope: &'s ScopeCore,
    name: &'static str,
    accesses: Vec<Access>,
    high: bool,
    fork: bool,
}

impl TaskBuilder<'_> {
    /// Mark this task as critical-path: when ready it enters the priority
    /// lane and is scheduled ahead of any queued normal-priority task.
    pub fn high_priority(mut self) -> Self {
        self.high = true;
        self
    }

    /// Let an [inline](Runtime::inline) runtime hand this task to its fork
    /// workers instead of running it on the submitter. The tasks forked
    /// between two inline tasks run concurrently with no ordering among
    /// them, so they must be mutually independent (one GATHERV group);
    /// they are joined before the next inline task runs. No effect on a
    /// pool runtime, which already runs every task on its workers.
    pub fn fork(mut self) -> Self {
        self.fork = true;
        self
    }

    /// Declare an `INPUT` access.
    pub fn read(mut self, key: DataKey) -> Self {
        self.accesses.push(Access {
            key,
            mode: AccessMode::Read,
        });
        self
    }

    /// Declare an `OUTPUT` access.
    pub fn write(mut self, key: DataKey) -> Self {
        self.accesses.push(Access {
            key,
            mode: AccessMode::Write,
        });
        self
    }

    /// Declare an `INOUT` access.
    pub fn read_write(mut self, key: DataKey) -> Self {
        self.accesses.push(Access {
            key,
            mode: AccessMode::ReadWrite,
        });
        self
    }

    /// Declare a `GATHERV` access (commuting disjoint writer).
    pub fn gatherv(mut self, key: DataKey) -> Self {
        self.accesses.push(Access {
            key,
            mode: AccessMode::GatherV,
        });
        self
    }

    /// Submit the task. It runs as soon as its dependencies are satisfied.
    pub fn spawn(self, f: impl FnOnce() + Send + 'static) {
        self.rt.submit_task(
            self.scope,
            self.name,
            self.accesses,
            self.high,
            self.fork,
            Box::new(move || {
                f();
                Ok(())
            }),
        );
    }

    /// Submit a fallible task. An `Err` return is recorded as the owning
    /// scope's failure (first one wins), latches that scope's cancellation
    /// so its not-yet-started bodies are skipped, and is surfaced — typed —
    /// by the scope's wait with this task's name attached.
    pub fn spawn_try<E>(self, f: impl FnOnce() -> Result<(), E> + Send + 'static)
    where
        E: std::error::Error + Send + Sync + 'static,
    {
        self.rt.submit_task(
            self.scope,
            self.name,
            self.accesses,
            self.high,
            self.fork,
            Box::new(move || f().map_err(|e| Box::new(e) as BoxError)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    // Test bookkeeping only, never a pool primitive; the model checker
    // does not need to instrument it. xtask-lint: allow(pool-sync)
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_a_single_task() {
        let rt = Runtime::new(2);
        let scope = rt.scope();
        let hit = Arc::new(AtomicBool::new(false));
        let h = hit.clone();
        scope
            .task("t")
            .spawn(move || h.store(true, Ordering::SeqCst));
        scope.wait().unwrap();
        assert!(hit.load(Ordering::SeqCst));
    }

    #[test]
    fn respects_write_read_ordering() {
        // A long chain through one key must execute in submission order.
        let rt = Runtime::new(4);
        let scope = rt.scope();
        let k = DataKey::new(0, 0);
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..64usize {
            let log = log.clone();
            scope
                .task("chain")
                .read_write(k)
                .spawn(move || log.lock().push(i));
        }
        scope.wait().unwrap();
        let got = log.lock().clone();
        assert_eq!(got, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn independent_tasks_can_overlap() {
        // Two tasks on different keys, each waiting for the other to start:
        // deadlocks unless they run concurrently.
        let rt = Runtime::new(2);
        let scope = rt.scope();
        let a = Arc::new(AtomicBool::new(false));
        let b = Arc::new(AtomicBool::new(false));
        let (a1, b1) = (a.clone(), b.clone());
        scope.task("x").write(DataKey::new(0, 1)).spawn(move || {
            a1.store(true, Ordering::SeqCst);
            while !b1.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
        });
        let (a2, b2) = (a, b);
        scope.task("y").write(DataKey::new(0, 2)).spawn(move || {
            b2.store(true, Ordering::SeqCst);
            while !a2.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
        });
        scope.wait().unwrap();
    }

    #[test]
    fn gatherv_fanout_joins_correctly() {
        let rt = Runtime::new(3);
        let scope = rt.scope();
        let k = DataKey::new(1, 0);
        let sum = Arc::new(AtomicU64::new(0));
        for i in 1..=10u64 {
            let sum = sum.clone();
            scope.task("part").gatherv(k).spawn(move || {
                sum.fetch_add(i, Ordering::SeqCst);
            });
        }
        let observed = Arc::new(AtomicU64::new(0));
        let (s, o) = (sum.clone(), observed.clone());
        scope.task("join").read_write(k).spawn(move || {
            o.store(s.load(Ordering::SeqCst), Ordering::SeqCst);
        });
        scope.wait().unwrap();
        assert_eq!(observed.load(Ordering::SeqCst), 55);
    }

    #[test]
    fn panic_is_reported_not_propagated() {
        let rt = Runtime::new(2);
        let scope = rt.scope();
        scope.task("boom").spawn(|| panic!("injected failure"));
        let err = scope.wait().unwrap_err();
        assert_eq!(err.task, "boom");
        assert!(err.is_panic());
        assert!(err.message().contains("injected failure"));
        // The scope is reusable afterwards.
        scope.task("ok").spawn(|| {});
        scope.wait().unwrap();
    }

    #[test]
    fn spawn_try_error_is_typed_and_downcastable() {
        let rt = Runtime::new(2);
        let scope = rt.scope();
        scope
            .task("flaky")
            .spawn_try(|| Err::<(), _>(std::io::Error::other("disk on fire")));
        let err = scope.wait().unwrap_err();
        assert_eq!(err.task, "flaky");
        assert!(!err.is_panic());
        assert!(err.to_string().contains("failed: disk on fire"));
        let (task, io) = err.downcast::<std::io::Error>().expect("typed recovery");
        assert_eq!(task, "flaky");
        assert_eq!(io.to_string(), "disk on fire");
        // Reusable after a typed failure too.
        scope.task("ok").spawn(|| {});
        scope.wait().unwrap();
    }

    #[test]
    fn failure_cancels_not_yet_started_successors() {
        // Single worker: the chain behind the failing task is fully ordered,
        // so every successor body must be skipped once the failure latches.
        let rt = Runtime::new(1);
        let scope = rt.scope();
        let k = DataKey::new(0, 7);
        scope
            .task("fail")
            .read_write(k)
            .spawn_try(|| Err::<(), _>(std::io::Error::other("first")));
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let ran = ran.clone();
            scope.task("after").read_write(k).spawn(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }
        let err = scope.wait().unwrap_err();
        assert_eq!(err.task, "fail");
        assert_eq!(
            ran.load(Ordering::SeqCst),
            0,
            "no task body may start after cancellation latches"
        );
        // The latch is cleared by wait(): the next phase runs normally.
        let hit = Arc::new(AtomicBool::new(false));
        let h = hit.clone();
        scope
            .task("next-phase")
            .spawn(move || h.store(true, Ordering::SeqCst));
        scope.wait().unwrap();
        assert!(hit.load(Ordering::SeqCst));
    }

    #[test]
    fn first_failure_wins_over_later_ones() {
        // One worker serializes the chain; the first submitted failure is
        // the one reported, later failing bodies are skipped entirely.
        let rt = Runtime::new(1);
        let scope = rt.scope();
        let k = DataKey::new(0, 8);
        scope
            .task("first")
            .read_write(k)
            .spawn_try(|| Err::<(), _>(std::io::Error::other("one")));
        scope
            .task("second")
            .read_write(k)
            .spawn_try(|| Err::<(), _>(std::io::Error::other("two")));
        let err = scope.wait().unwrap_err();
        assert_eq!(err.task, "first");
        assert_eq!(err.message(), "one");
    }

    #[test]
    fn wait_is_reusable_across_phases() {
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
    fn trace_records_every_task() {
        let rt = Runtime::new(2);
        let scope = rt.scope();
        rt.enable_tracing();
        for _ in 0..5 {
            scope.task("traced").spawn(|| {});
        }
        scope.wait().unwrap();
        let trace = rt.take_trace();
        assert_eq!(trace.records.len(), 5);
        assert!(trace
            .records
            .iter()
            .all(|r| r.name == "traced" && r.end_us >= r.start_us));
    }

    #[test]
    fn priority_tasks_overtake_queued_work() {
        // One worker, held busy by a gate task while panel tasks queue up
        // in the injector; a high-priority join submitted last must still
        // run before every queued panel task.
        let rt = Runtime::new(1);
        let scope = rt.scope();
        let started = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let log: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        {
            let (s, r, log) = (started.clone(), release.clone(), log.clone());
            scope.task("gate").spawn(move || {
                s.store(true, Ordering::SeqCst);
                while !r.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                log.lock().push("gate");
            });
        }
        // Ensure the worker is inside the gate (so the panels below stay
        // in the injector rather than being batched into its local deque).
        while !started.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }
        for _ in 0..8 {
            let log = log.clone();
            scope.task("panel").spawn(move || log.lock().push("panel"));
        }
        let l = log.clone();
        scope
            .task("join")
            .high_priority()
            .spawn(move || l.lock().push("join"));
        release.store(true, Ordering::SeqCst);
        scope.wait().unwrap();
        let got = log.lock().clone();
        assert_eq!(got.len(), 10);
        assert_eq!(got[0], "gate");
        assert_eq!(
            got[1], "join",
            "priority task must overtake queued panels: {got:?}"
        );
    }

    #[test]
    fn abandoned_scope_leaves_nothing_behind() {
        // A scope dropped with its chain still queued behind a gate: the
        // dependency domain goes with the handle, and the nodes free
        // themselves as they finish — no table is left holding them.
        let rt = Runtime::new(1);
        let started = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
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
        let scope = rt.scope();
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..4 {
            let ran = ran.clone();
            scope
                .task("queued")
                .read_write(DataKey::new(0, 0))
                .spawn(move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                });
        }
        let nodes: Vec<_> = {
            let st = scope.core.deps.lock();
            st.nodes.iter().map(Arc::downgrade).collect()
        };
        assert_eq!(nodes.len(), 4);
        drop(scope);
        assert_eq!(ran.load(Ordering::SeqCst), 0, "the gate holds the worker");
        assert!(nodes.iter().all(|n| n.upgrade().is_some()));
        release.store(true, Ordering::SeqCst);
        // No `wait`: nothing may need a wait to be reclaimed. The
        // worker drops its own handle on a node just after counting it
        // finished, hence a poll rather than one look.
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while rt.shared.outstanding.load(Ordering::Acquire) != 0
            || nodes.iter().any(|n| n.upgrade().is_some())
        {
            assert!(Instant::now() < deadline, "abandoned scope's nodes leaked");
            std::thread::yield_now();
        }
        assert_eq!(ran.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn logical_clock_never_violates_dependencies() {
        // Random DAG via random key accesses; a logical clock per key checks
        // that any reader observes the value the last writer published.
        use rand::prelude::*;
        use rand_chacha::ChaCha8Rng;
        let rt = Runtime::new(4);
        let scope = rt.scope();
        let mut rng = ChaCha8Rng::seed_from_u64(2024);
        let nkeys = 6usize;
        let cells: Vec<Arc<AtomicU64>> = (0..nkeys).map(|_| Arc::new(AtomicU64::new(0))).collect();
        let mut expected = vec![0u64; nkeys];
        let violations = Arc::new(AtomicUsize::new(0));
        for t in 0..300u64 {
            let ki = rng.gen_range(0..nkeys);
            let key = DataKey::new(9, ki as u64);
            let cell = cells[ki].clone();
            if rng.gen_bool(0.5) {
                // Writer: bump the clock to a known value.
                let newv = t + 1;
                let oldv = expected[ki];
                let viol = violations.clone();
                scope.task("w").read_write(key).spawn(move || {
                    if cell.load(Ordering::SeqCst) != oldv {
                        viol.fetch_add(1, Ordering::SeqCst);
                    }
                    cell.store(newv, Ordering::SeqCst);
                });
                expected[ki] = newv;
            } else {
                let want = expected[ki];
                let viol = violations.clone();
                scope.task("r").read(key).spawn(move || {
                    if cell.load(Ordering::SeqCst) != want {
                        viol.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        }
        scope.wait().unwrap();
        assert_eq!(violations.load(Ordering::SeqCst), 0);
    }
}
