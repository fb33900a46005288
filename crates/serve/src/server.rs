//! The daemon: accept loop, per-connection protocol threads, admission
//! control, and per-request solve jobs on one shared runtime.
//!
//! Threading model (hand-rolled, no async runtime):
//!
//! * one accept thread;
//! * one reader thread per connection, which parses request lines,
//!   answers the cheap verbs (`ping`, `metrics`, `cancel`, `shutdown`)
//!   inline, and refuses a request that cannot run (bad spec, order over
//!   `max_n`, trace without `--trace-requests`) before admitting it;
//! * one short-lived job thread per admitted `solve`/`batch` — one job
//!   body for both — which builds each problem, opens a scope per problem,
//!   registers their cancel handles, submits each problem's task graph,
//!   waits, and writes the tagged response — so the reader keeps
//!   servicing `cancel` verbs while solves are in flight.
//!
//! Where a request's graph runs is decided once, at job start. A request
//! that is alone, or that leaves the pool a worker to spare, submits into
//! the shared [`Runtime`]'s workers. When the daemon is busy — at least
//! as many requests in flight as the pool has workers, and more than
//! one — an untraced, normal-priority request whose problems are all of
//! order at most [`INLINE_MAX_N`] solves on its own job thread under a
//! job-local inline runtime: the `SequentialDc` schedule of the same
//! graph, with the same bits, and no task handoff to a pool whose workers
//! all have a request already.
//!
//! What each problem computes is decided once too, by [`solved_mode`]: the
//! library computes eigenvectors only when the reply carries them or the
//! check needs them, so a `"full"` problem without either — a `batch`
//! member among them — runs the values-only solve, which has no n×n
//! update, V or workspace.
//!
//! Responses are therefore interleaved in completion order, each tagged
//! with the request's `id`. Admission is a compare-and-swap on the
//! in-flight count plus a read of the pool's ready-queue depth gauge;
//! over either limit the request is shed with a typed `busy` error and
//! *nothing* is submitted to the runtime.

use crate::protocol::{
    self, dc_error_code, error_response, ok_line, MatrixSpec, Request, SolveRequest, WireError,
};
use dcst_core::{DcError, DcOptions, DcStats, Eigen, PendingSolve, SolveMode, TaskFlowDc};
use dcst_runtime::{CancelHandle, Runtime, Scope};
use dcst_tridiag::SymTridiag;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// Daemon tuning. `Default` suits the test harness: loopback, ephemeral
/// port, and an in-flight bound matched to a small pool.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; `127.0.0.1:0` picks an ephemeral port.
    pub addr: String,
    /// Worker threads of the shared runtime. A busy daemon also solves on
    /// its job threads, so this sizes the pool, not the daemon's CPU use.
    pub threads: usize,
    /// Admission bound on concurrently admitted `solve`/`batch` requests;
    /// the `cur >= max` request is shed with `busy`.
    pub max_inflight: usize,
    /// Admission bound on the pool's ready-queue depth gauge
    /// ([`Runtime::ready_queue_depth`]); a request arriving over it is shed
    /// with `busy`.
    pub max_ready_depth: u64,
    /// Largest accepted matrix order; larger specs are shed with
    /// `oversized` before any O(n²) allocation.
    pub max_n: usize,
    /// Largest accepted request line in bytes; longer lines are drained
    /// and answered with `oversized`.
    pub max_line: usize,
    /// Record every request's tasks and attach a Chrome trace to
    /// responses that ask for one (`"trace": true`). Without it such a
    /// request is answered `bad-request` and never admitted.
    pub trace_requests: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: dcst_runtime::cpu_count(),
            max_inflight: 8,
            max_ready_depth: 1 << 14,
            max_n: 8192,
            max_line: 4 << 20,
            trace_requests: false,
        }
    }
}

/// The largest problem order a busy daemon solves on a job thread. Up to
/// here (the `serve_mix` orders, 128–512) the pool graph's task handoffs
/// were measured to cost more than the graph overlaps. Above it a
/// sequential solve can take nearly twice the pool's time (`dense_t4_n2000`
/// at two workers: `seq_p50_ms` 203 against `op_p50_ms` 112), so a larger
/// problem keeps the pool even when the daemon is busy.
const INLINE_MAX_N: usize = 512;

/// Per-request cancellation bookkeeping, keyed `(connection, request id)`.
/// `Queued` covers the window between admission (reader thread) and the
/// job opening its scopes (job thread): a cancel landing in that window is
/// recorded and latches the scopes before anything is submitted.
enum JobState {
    Queued { cancel_requested: bool },
    Running(Vec<CancelHandle>),
}

struct Inner {
    cfg: ServerConfig,
    rt: Runtime,
    /// What every request solves with but its `mode`: the library's
    /// defaults on the pool's threads.
    opts: DcOptions,
    inflight: AtomicUsize,
    accepted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    cancelled: AtomicU64,
    /// Requests solved on their job thread rather than on the pool.
    inline: AtomicU64,
    /// Problems solved without eigenvectors: every `"values"` problem and
    /// every one [`solved_mode`] sends to the values-only solve, counted
    /// when submitted.
    vectorless: AtomicU64,
    /// Tasks those requests ran, so `tasks_executed` counts every task
    /// the daemon ran wherever it ran.
    inline_tasks: AtomicU64,
    /// Nanoseconds the job threads spent in [`MatrixSpec::build`].
    build_ns: AtomicU64,
    jobs: Mutex<HashMap<(u64, u64), JobState>>,
    shutdown: AtomicBool,
}

impl Inner {
    /// Admission control: reserve an in-flight slot or shed with `busy`.
    fn try_admit(&self) -> Result<(), WireError> {
        let mut cur = self.inflight.load(Ordering::SeqCst);
        loop {
            if cur >= self.cfg.max_inflight {
                self.shed.fetch_add(1, Ordering::Relaxed);
                return Err(WireError::new(
                    "busy",
                    format!(
                        "{cur} request(s) in flight (limit {})",
                        self.cfg.max_inflight
                    ),
                ));
            }
            match self.inflight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        let depth = self.rt.ready_queue_depth();
        if depth > self.cfg.max_ready_depth {
            self.inflight.fetch_sub(1, Ordering::SeqCst);
            self.shed.fetch_add(1, Ordering::Relaxed);
            return Err(WireError::new(
                "busy",
                format!(
                    "ready-queue depth {depth} over high-water {}",
                    self.cfg.max_ready_depth
                ),
            ));
        }
        self.accepted.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Swap a job's `Queued` placeholder for its live cancel handles.
    /// Returns true when a cancel already arrived for it.
    fn activate_job(&self, key: (u64, u64), handles: Vec<CancelHandle>) -> bool {
        let mut jobs = self.jobs.lock().unwrap();
        let pre_cancelled = matches!(
            jobs.get(&key),
            Some(JobState::Queued {
                cancel_requested: true
            })
        );
        jobs.insert(key, JobState::Running(handles));
        pre_cancelled
    }

    /// `cancel` verb: flip a queued job's flag or fire the running job's
    /// handles. Returns whether the id named a live job.
    fn cancel_job(&self, key: (u64, u64)) -> bool {
        let mut jobs = self.jobs.lock().unwrap();
        match jobs.get_mut(&key) {
            Some(JobState::Queued { cancel_requested }) => {
                *cancel_requested = true;
                true
            }
            Some(JobState::Running(handles)) => {
                for h in handles {
                    h.cancel();
                }
                true
            }
            None => false,
        }
    }

    /// Free a job's admission slot and table entry.
    fn release_job(&self, key: (u64, u64)) {
        self.jobs.lock().unwrap().remove(&key);
        self.inflight.fetch_sub(1, Ordering::SeqCst);
    }

    /// Retire a finished job.
    fn finish_job(&self, key: (u64, u64)) {
        self.release_job(key);
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    /// Whether an admitted request solves on its own job thread: it is
    /// untraced (a trace asks for the shared schedule) and of normal
    /// priority (a high-priority request asks for every worker ahead of
    /// normal work), no problem of it is above [`INLINE_MAX_N`], it is not
    /// alone, and the requests in flight — itself included — are at least
    /// as many as the pool's workers, so each can have a core. A lone
    /// request always gets the pool, which keeps one large solve parallel.
    fn solves_inline(&self, req: &SolveRequest) -> bool {
        !req.trace
            && !req.priority
            && req.problems.iter().all(|p| p.matrix.n() <= INLINE_MAX_N)
            && self.inflight.load(Ordering::SeqCst) >= self.cfg.threads.max(2)
    }

    /// Materialize a request's matrix on the job thread, adding the time
    /// to the `build_us` rung.
    fn build_matrix(&self, spec: &MatrixSpec) -> SymTridiag {
        let t0 = Instant::now();
        let built = spec.build();
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.build_ns.fetch_add(ns, Ordering::Relaxed);
        built
    }

    fn metrics_response(&self, out: &mut String) {
        let rm = self.rt.runtime_metrics();
        let kernel: Vec<String> = dcst_matrix::metrics::snapshot()
            .iter()
            .map(|(k, v)| format!("\"{}\":{v}", protocol::escape(k)))
            .collect();
        let _ = write!(
            out,
            "{{\"ok\":true,\"metrics\":{{\
             \"workers\":{},\"tasks_executed\":{},\"priority_hits\":{},\
             \"parks\":{},\"max_queue_depth\":{},\
             \"ready_depth\":{},\"inflight\":{},\"accepted\":{},\
             \"completed\":{},\"shed\":{},\"cancelled\":{},\"inline\":{},\
             \"vectorless\":{},\"build_us\":{},\"kernel\":{{{}}}}}}}",
            rm.workers.len(),
            rm.tasks_executed() + self.inline_tasks.load(Ordering::Relaxed),
            rm.priority_hits(),
            rm.parks(),
            rm.max_queue_depth,
            self.rt.ready_queue_depth(),
            self.inflight.load(Ordering::SeqCst),
            self.accepted.load(Ordering::Relaxed),
            self.completed.load(Ordering::Relaxed),
            self.shed.load(Ordering::Relaxed),
            self.cancelled.load(Ordering::Relaxed),
            self.inline.load(Ordering::Relaxed),
            self.vectorless.load(Ordering::Relaxed),
            self.build_ns.load(Ordering::Relaxed) / 1000,
            kernel.join(",")
        );
    }
}

/// A running daemon. Dropping (or [`Server::join`] after
/// [`Server::shutdown`]) stops the accept loop; in-flight jobs complete
/// on the shared runtime before it is torn down.
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving. Returns once the listener is live; the
    /// bound address (with the resolved ephemeral port) is
    /// [`Server::addr`].
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let rt = Runtime::new(cfg.threads);
        if cfg.trace_requests {
            rt.enable_tracing();
        }
        let inner = Arc::new(Inner {
            opts: DcOptions {
                threads: cfg.threads,
                ..DcOptions::default()
            },
            cfg,
            rt,
            inflight: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            inline: AtomicU64::new(0),
            vectorless: AtomicU64::new(0),
            inline_tasks: AtomicU64::new(0),
            build_ns: AtomicU64::new(0),
            jobs: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
        });
        let accept_inner = inner.clone();
        let accept = thread::spawn(move || accept_loop(listener, accept_inner));
        Ok(Server {
            inner,
            addr,
            accept: Some(accept),
        })
    }

    /// The bound address (resolved ephemeral port included).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the accept loop to stop (idempotent). Live connections finish
    /// their current requests; new connections are refused.
    pub fn shutdown(&self) {
        if !self.inner.shutdown.swap(true, Ordering::SeqCst) {
            // Poke the blocking accept() so it observes the flag.
            let _ = TcpStream::connect(self.addr);
        }
    }

    /// Block until the accept loop exits (after [`Server::shutdown`] or a
    /// client's `shutdown` verb).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: TcpListener, inner: Arc<Inner>) {
    let mut conn_id = 0u64;
    for stream in listener.incoming() {
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Interactive request/response protocol: never trade latency for
        // segment coalescing.
        let _ = stream.set_nodelay(true);
        conn_id += 1;
        let conn_inner = inner.clone();
        // A connection the OS gives no reader thread is dropped with the
        // refused closure, which closes it; the loop keeps accepting.
        let _ = thread::Builder::new().spawn(move || handle_conn(stream, conn_inner, conn_id));
    }
}

/// Serialize response writes from the reader and all job threads of one
/// connection.
type SharedWriter = Arc<Mutex<TcpStream>>;

/// Write one reply line: `reply` appends the envelope to the buffer, which
/// goes to the socket as it is, newline included.
fn write_line(writer: &SharedWriter, reply: impl FnOnce(&mut String)) {
    let mut buf = String::new();
    reply(&mut buf);
    // One write_all per response: a separate trailing-newline write makes
    // a tiny second TCP segment that Nagle holds back until the previous
    // segment is ACKed — on an otherwise idle connection that is a
    // ~40 ms delayed-ACK stall per response.
    buf.push('\n');
    // A vanished client is not a server error: drop the response.
    let mut w = writer.lock().unwrap();
    let _ = w.write_all(buf.as_bytes());
    let _ = w.flush();
}

/// Read one `\n`-terminated request line of at most `max` bytes.
/// `Ok(None)` is EOF; `Ok(Some(false))` means the line blew the cap and
/// was drained so the stream stays line-synchronized.
fn read_request_line(
    reader: &mut BufReader<TcpStream>,
    max: usize,
    buf: &mut String,
) -> std::io::Result<Option<bool>> {
    buf.clear();
    let n = (&mut *reader).take(max as u64 + 1).read_line(buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.ends_with('\n') || buf.len() <= max {
        return Ok(Some(true));
    }
    // Cap blown mid-line: discard up to the next newline.
    let mut scratch = String::new();
    loop {
        scratch.clear();
        let n = (&mut *reader).take(1 << 16).read_line(&mut scratch)?;
        if n == 0 || scratch.ends_with('\n') {
            return Ok(Some(false));
        }
    }
}

fn handle_conn(stream: TcpStream, inner: Arc<Inner>, conn: u64) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let writer: SharedWriter = Arc::new(Mutex::new(stream));
    let mut line = String::new();
    loop {
        match read_request_line(&mut reader, inner.cfg.max_line, &mut line) {
            Err(_) | Ok(None) => break,
            Ok(Some(false)) => {
                let e = WireError::new(
                    "oversized",
                    format!("request line over {} bytes", inner.cfg.max_line),
                );
                write_line(&writer, |out| error_response(out, None, &e));
                continue;
            }
            Ok(Some(true)) => {}
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let (id, req) = protocol::parse_request(trimmed);
        match req {
            Err(e) => write_line(&writer, |out| error_response(out, id, &e)),
            Ok(Request::Ping) => write_line(&writer, |out| {
                ok_line(out, id, |out| out.push_str("\"pong\":true"))
            }),
            Ok(Request::Metrics) => write_line(&writer, |out| inner.metrics_response(out)),
            Ok(Request::Shutdown) => {
                write_line(&writer, |out| {
                    ok_line(out, id, |out| out.push_str("\"shutdown\":true"))
                });
                inner.shutdown.store(true, Ordering::SeqCst);
                // Poke accept() awake so it observes the flag; an
                // accepted socket's local address IS the listener's.
                if let Ok(addr) = writer.lock().unwrap().local_addr() {
                    let _ = TcpStream::connect(addr);
                }
            }
            Ok(Request::Cancel { id }) => {
                let hit = inner.cancel_job((conn, id));
                write_line(&writer, |out| {
                    ok_line(out, Some(id), |out| {
                        let _ = write!(out, "\"cancelled\":{hit}");
                    })
                });
            }
            Ok(Request::Solve(req)) => {
                let id = req.id;
                match runnable(&inner.cfg, &req).and_then(|()| admit(&inner, conn, id)) {
                    Err(e) => write_line(&writer, |out| error_response(out, Some(id), &e)),
                    Ok(()) => spawn_job(&inner, &writer, (conn, id), move |inner, out| {
                        solve_job(inner, conn, &req, out)
                    }),
                }
            }
        }
    }
    // Client gone: cancel whatever it left in flight so abandoned work
    // frees its admission slots promptly.
    let keys: Vec<(u64, u64)> = inner
        .jobs
        .lock()
        .unwrap()
        .keys()
        .filter(|(c, _)| *c == conn)
        .copied()
        .collect();
    for key in keys {
        inner.cancel_job(key);
    }
}

/// Largest order of a problem that returns vectors on which a request may
/// ask for `"check": true`. The orthogonality check is O(n³) serial work
/// on the job thread after the solve (53.6 s at n = 4000 through the CLI),
/// which `cancel` cannot stop and which holds the request's admission slot
/// throughout. A values-only problem has no vectors to check.
const MAX_CHECK_N: usize = 1024;

/// The checks a request passes before admission, beyond the parser's: a
/// trace only from a server that records every request's tasks, no
/// matrix over `max_n` (refused before any O(n²) allocation), and no
/// `check` of vectors over [`MAX_CHECK_N`]. A request refused here is
/// never counted `accepted`.
fn runnable(cfg: &ServerConfig, req: &SolveRequest) -> Result<(), WireError> {
    if req.trace && !cfg.trace_requests {
        return Err(WireError::bad(
            "\"trace\": true needs a server started with --trace-requests",
        ));
    }
    if let Some(n) = req
        .problems
        .iter()
        .map(|p| p.matrix.n())
        .find(|&n| n > cfg.max_n)
    {
        return Err(WireError::new(
            "oversized",
            format!("matrix order {n} over the server limit {}", cfg.max_n),
        ));
    }
    let checked = req
        .problems
        .iter()
        .filter(|p| req.check && p.mode != SolveMode::ValuesOnly);
    if let Some(n) = checked.map(|p| p.matrix.n()).find(|&n| n > MAX_CHECK_N) {
        return Err(WireError::new(
            "oversized",
            format!("\"check\": true on matrix order {n} over the check limit {MAX_CHECK_N}"),
        ));
    }
    Ok(())
}

/// Reserve an admission slot and seed the job table. A duplicate live id
/// on the same connection is a bad request (responses would be
/// indistinguishable).
fn admit(inner: &Arc<Inner>, conn: u64, id: u64) -> Result<(), WireError> {
    let mut jobs = inner.jobs.lock().unwrap();
    if jobs.contains_key(&(conn, id)) {
        return Err(WireError::bad(format!(
            "request id {id} is still in flight on this connection"
        )));
    }
    inner.try_admit()?;
    jobs.insert(
        (conn, id),
        JobState::Queued {
            cancel_requested: false,
        },
    );
    Ok(())
}

/// Run an admitted job's body and retire the job whatever the body did: a
/// panic inside it becomes a typed `internal` response, so the client gets
/// an answer and the admission slot and job-table entry are always freed.
fn run_job(
    inner: &Arc<Inner>,
    key: (u64, u64),
    body: impl FnOnce(&Arc<Inner>, &mut String),
    out: &mut String,
) {
    if let Err(panic) = catch_unwind(AssertUnwindSafe(|| body(inner, out))) {
        let what = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("no message");
        let e = WireError::new("internal", format!("the job panicked: {what}"));
        out.clear();
        error_response(out, Some(key.1), &e);
    }
    inner.finish_job(key);
}

/// The job thread of one admitted `solve`/`batch` request.
fn spawn_job(
    inner: &Arc<Inner>,
    writer: &SharedWriter,
    key: (u64, u64),
    body: impl FnOnce(&Arc<Inner>, &mut String) + Send + 'static,
) {
    let (job_inner, job_writer) = (inner.clone(), writer.clone());
    let spawned = thread::Builder::new()
        .spawn(move || write_line(&job_writer, |out| run_job(&job_inner, key, body, out)));
    if let Err(e) = spawned {
        write_line(writer, |out| refuse_unstarted(inner, key, &e, out));
    }
}

/// Retire an admitted job the OS gave no thread: it frees its slot and
/// table entry, is not counted `completed`, and is answered `busy`
/// (counted `shed`) with its id, so the client can retry.
fn refuse_unstarted(inner: &Inner, key: (u64, u64), err: &std::io::Error, out: &mut String) {
    inner.release_job(key);
    inner.shed.fetch_add(1, Ordering::Relaxed);
    let e = WireError::new("busy", format!("no thread for the job: {err}"));
    error_response(out, Some(key.1), &e);
}

/// The mode the library solves a problem in: eigenvectors only when the
/// reply carries them (`"vectors":true`) or the check needs them, so a
/// `"full"` problem without either runs the values-only solve. Every other
/// mode runs as sent.
fn solved_mode(mode: SolveMode, vectors: bool, check: bool) -> SolveMode {
    match mode {
        SolveMode::Full if !vectors && !check => SolveMode::ValuesOnly,
        mode => mode,
    }
}

/// Append one problem's success payload.
fn result_body(
    out: &mut String,
    t: &SymTridiag,
    eig: &Eigen,
    stats: &DcStats,
    vectors: bool,
    check: bool,
) {
    let _ = write!(
        out,
        "\"n\":{},\"k\":{},\"deflation\":",
        t.n(),
        eig.values.len()
    );
    protocol::push_num(out, stats.overall_deflation());
    out.push_str(",\"values\":");
    protocol::push_arr(out, &eig.values);
    if check && eig.vectors.cols() > 0 && eig.vectors.cols() == eig.values.len() {
        let orth = dcst_matrix::orthogonality_error(&eig.vectors);
        let res = dcst_matrix::residual_error(
            t.n(),
            |x, y| t.matvec(x, y),
            &eig.values,
            &eig.vectors,
            t.max_norm(),
        );
        out.push_str(",\"orth\":");
        protocol::push_num(out, orth);
        out.push_str(",\"residual\":");
        protocol::push_num(out, res);
    }
    if vectors {
        // Column-major, matching Matrix's storage.
        out.push_str(",\"vectors\":");
        protocol::push_arr(out, eig.vectors.as_slice());
    }
}

/// The one job body of `solve` and `batch`: build every problem, pick each
/// problem's mode ([`solved_mode`]), open one scope per problem on the
/// runtime [`Inner::solves_inline`] picks (the shared pool, or a job-local
/// inline runtime), register every scope's
/// cancel handle, submit each problem before waiting on any (so a batch's
/// panels share the pool's ready queue), then wait on each problem in
/// order and append its envelope. The handles are live before the first
/// submission because an inline submission returns only after its solve:
/// a `cancel` then latches the scope and the rest of its bodies are
/// skipped. A `solve` reply is its problem's envelope; a `batch` reply
/// lists the untagged envelopes under `"results"`, so one item's error
/// leaves its siblings' results intact. A cancelled request counts once,
/// however many of its problems it stopped.
fn solve_job(inner: &Arc<Inner>, conn: u64, req: &SolveRequest, out: &mut String) {
    let mats: Vec<SymTridiag> = req
        .problems
        .iter()
        .map(|p| inner.build_matrix(&p.matrix))
        .collect();
    let modes: Vec<SolveMode> = req
        .problems
        .iter()
        .map(|p| solved_mode(p.mode, req.vectors, req.check))
        .collect();
    let vectorless = modes.iter().filter(|&&m| m == SolveMode::ValuesOnly);
    inner
        .vectorless
        .fetch_add(vectorless.count() as u64, Ordering::Relaxed);
    let local = inner.solves_inline(req).then(|| Runtime::inline(0));
    let rt = local.as_ref().unwrap_or(&inner.rt);
    // A `"priority":"high"` request rides the priority injector lane with
    // every one of its tasks.
    let scopes: Vec<Scope<'_>> = req
        .problems
        .iter()
        .map(|_| {
            if req.priority {
                rt.priority_scope()
            } else {
                rt.scope()
            }
        })
        .collect();
    let handles = scopes.iter().map(Scope::cancel_handle).collect();
    if inner.activate_job((conn, req.id), handles) {
        scopes.iter().for_each(Scope::cancel);
    }
    // Each solver is a temporary, dropped at submit: the graph then holds
    // the only handle on its spare-V slot, so V is freed when the result is
    // collected rather than kept through the response.
    let pendings: Vec<Result<PendingSolve<'_>, DcError>> = modes
        .iter()
        .zip(&mats)
        .zip(scopes)
        .map(|((&mode, t), scope)| {
            let opts = DcOptions { mode, ..inner.opts };
            TaskFlowDc::new(opts).submit(t, scope)
        })
        .collect();
    let mut cancelled = false;
    let envelopes = |out: &mut String, id: Option<u64>| {
        for (i, (pending, t)) in pendings.into_iter().zip(&mats).enumerate() {
            if i > 0 {
                out.push(',');
            }
            match pending.and_then(|p| finish_pending(inner, p, req.trace)) {
                Ok((eig, stats, trace)) => ok_line(out, id, |out| {
                    result_body(out, t, &eig, &stats, req.vectors, req.check);
                    if let Some(tj) = trace {
                        let _ = write!(out, ",\"trace\":\"{}\"", protocol::escape(&tj));
                    }
                }),
                Err(e) => {
                    cancelled |= matches!(e, DcError::Cancelled);
                    let e = WireError::new(dc_error_code(&e), e.to_string());
                    error_response(out, id, &e);
                }
            }
        }
    };
    if req.batch {
        ok_line(out, Some(req.id), |out| {
            out.push_str("\"results\":[");
            envelopes(out, None);
            out.push(']');
        });
    } else {
        envelopes(out, Some(req.id));
    }
    if cancelled {
        inner.cancelled.fetch_add(1, Ordering::Relaxed);
    }
    if let Some(local) = local {
        let tasks = local.runtime_metrics().tasks_executed();
        inner.inline_tasks.fetch_add(tasks, Ordering::Relaxed);
        inner.inline.fetch_add(1, Ordering::Relaxed);
    }
}

/// Wait on a pending solve, harvesting its scope trace (when the server
/// records traces) whether it succeeded or not — an unharvested scope
/// would leak records into the shared trace buffer forever. The trace is
/// the scope's own runtime's: an inline runtime records none, and its
/// scope ids are not the pool's.
fn finish_pending(
    inner: &Arc<Inner>,
    pending: PendingSolve<'_>,
    want_trace: bool,
) -> Result<(Eigen, DcStats, Option<String>), DcError> {
    let waited = pending.scope().wait();
    let trace_json = if inner.cfg.trace_requests {
        let tr = pending.scope().runtime().take_scope_trace(pending.scope());
        want_trace.then(|| tr.to_chrome_json())
    } else {
        None
    };
    waited?;
    let (eig, stats) = pending.wait()?;
    Ok((eig, stats, trace_json))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcst_runtime::jsonv;

    #[test]
    fn a_panicking_job_answers_internal_and_is_retired() {
        let server = Server::start(ServerConfig::default()).expect("bind loopback");
        let inner = &server.inner;
        let before = inner.inflight.load(Ordering::SeqCst);
        admit(inner, 1, 7).unwrap();
        assert_eq!(inner.inflight.load(Ordering::SeqCst), before + 1);
        let mut resp = String::from("{\"id\":7,\"ok\":true,");
        run_job(inner, (1, 7), |_, _| panic!("boom"), &mut resp);
        let doc = jsonv::parse(&resp).unwrap();
        assert_eq!(doc.get("id").and_then(|v| v.as_num()), Some(7.0));
        let err = doc.get("error").unwrap();
        assert_eq!(err.get("code").and_then(|v| v.as_str()), Some("internal"));
        assert!(err
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("boom"));
        assert_eq!(inner.inflight.load(Ordering::SeqCst), before);
        assert!(!inner.jobs.lock().unwrap().contains_key(&(1, 7)));
    }

    #[test]
    fn a_job_without_a_thread_answers_busy_and_is_released() {
        let server = Server::start(ServerConfig::default()).expect("bind loopback");
        let inner = &server.inner;
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let (completed, shed) = (count(&inner.completed), count(&inner.shed));
        admit(inner, 1, 9).unwrap();
        let refused = std::io::Error::new(std::io::ErrorKind::WouldBlock, "no threads left");
        let mut resp = String::new();
        refuse_unstarted(inner, (1, 9), &refused, &mut resp);
        let doc = jsonv::parse(&resp).unwrap();
        assert_eq!(doc.get("id").and_then(|v| v.as_num()), Some(9.0));
        let err = doc.get("error").unwrap();
        assert_eq!(err.get("code").and_then(|v| v.as_str()), Some("busy"));
        assert!(err
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("no threads left"));
        assert_eq!(inner.inflight.load(Ordering::SeqCst), 0);
        assert!(!inner.jobs.lock().unwrap().contains_key(&(1, 9)));
        assert_eq!(count(&inner.completed), completed);
        assert_eq!(count(&inner.shed), shed + 1);
        // The slot is back: as many admissions as the limit still succeed.
        for id in 0..inner.cfg.max_inflight as u64 {
            admit(inner, 2, id).unwrap();
        }
    }
}
