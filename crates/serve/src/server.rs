//! The daemon: accept loop, per-connection protocol threads, admission
//! control, and per-request solve jobs on one shared runtime.
//!
//! Threading model (hand-rolled, no async runtime):
//!
//! * one accept thread;
//! * one reader thread per connection, which parses request lines and
//!   answers the cheap verbs (`ping`, `metrics`, `cancel`, `shutdown`)
//!   inline;
//! * one short-lived job thread per admitted `solve`/`batch`, which
//!   submits the task graph into its own scope of the shared
//!   [`Runtime`], waits, and writes the tagged response — so the reader
//!   keeps servicing `cancel` verbs while solves are in flight.
//!
//! Responses are therefore interleaved in completion order, each tagged
//! with the request's `id`. Admission is a compare-and-swap on the
//! in-flight count plus a read of the pool's ready-queue depth gauge;
//! over either limit the request is shed with a typed `busy` error and
//! *nothing* is submitted to the runtime.

use crate::protocol::{
    self, dc_error_code, error_response, MatrixSpec, Problem, Request, WireError,
};
use dcst_core::{DcError, DcOptions, DcStats, Eigen, PendingSolve, TaskFlowDc};
use dcst_runtime::{CancelHandle, Runtime, Scope};
use dcst_tridiag::SymTridiag;
use std::collections::HashMap;
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
    /// Worker threads of the shared runtime.
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
    /// Solver tuning shared by every request (`mode` and `threads` are
    /// overridden per request / by the pool).
    pub opts: DcOptions,
    /// Record every request's tasks and attach a Chrome trace to
    /// responses that ask for one (`"trace": true`). Without it such a
    /// request is answered `bad-request` and never admitted.
    pub trace_requests: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            max_inflight: 8,
            max_ready_depth: 1 << 14,
            max_n: 8192,
            max_line: 4 << 20,
            opts: DcOptions::default(),
            trace_requests: false,
        }
    }
}

/// Per-request cancellation bookkeeping, keyed `(connection, request id)`.
/// `Queued` covers the window between admission (reader thread) and
/// submission (job thread): a cancel landing in that window is recorded
/// and honored the moment the graph is submitted.
enum JobState {
    Queued { cancel_requested: bool },
    Running(Vec<CancelHandle>),
}

struct Inner {
    cfg: ServerConfig,
    rt: Runtime,
    inflight: AtomicUsize,
    accepted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    cancelled: AtomicU64,
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

    /// Retire a finished job: free its admission slot and table entry.
    fn finish_job(&self, key: (u64, u64)) {
        self.jobs.lock().unwrap().remove(&key);
        self.inflight.fetch_sub(1, Ordering::SeqCst);
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    /// Materialize a request's matrix on the job thread, adding the time
    /// to the `build_us` rung.
    fn build_matrix(&self, spec: &MatrixSpec) -> Result<SymTridiag, WireError> {
        let t0 = Instant::now();
        let built = spec.build();
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.build_ns.fetch_add(ns, Ordering::Relaxed);
        built
    }

    fn metrics_response(&self) -> String {
        let rm = self.rt.runtime_metrics();
        let kernel: Vec<String> = dcst_matrix::metrics::snapshot()
            .iter()
            .map(|(k, v)| format!("\"{}\":{v}", protocol::escape(k)))
            .collect();
        format!(
            "{{\"ok\":true,\"metrics\":{{\
             \"workers\":{},\"tasks_executed\":{},\"steals_succeeded\":{},\
             \"priority_hits\":{},\"parks\":{},\"max_queue_depth\":{},\
             \"ready_depth\":{},\"inflight\":{},\"accepted\":{},\
             \"completed\":{},\"shed\":{},\"cancelled\":{},\
             \"build_us\":{},\"kernel\":{{{}}}}}}}",
            rm.workers.len(),
            rm.tasks_executed(),
            rm.steals_succeeded(),
            rm.priority_hits(),
            rm.parks(),
            rm.max_queue_depth,
            self.rt.ready_queue_depth(),
            self.inflight.load(Ordering::SeqCst),
            self.accepted.load(Ordering::Relaxed),
            self.completed.load(Ordering::Relaxed),
            self.shed.load(Ordering::Relaxed),
            self.cancelled.load(Ordering::Relaxed),
            self.build_ns.load(Ordering::Relaxed) / 1000,
            kernel.join(",")
        )
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
            cfg,
            rt,
            inflight: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
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
        thread::spawn(move || handle_conn(stream, conn_inner, conn_id));
    }
}

/// Serialize response writes from the reader and all job threads of one
/// connection.
type SharedWriter = Arc<Mutex<TcpStream>>;

fn write_line(writer: &SharedWriter, line: &str) {
    // One write_all per response: a separate trailing-newline write makes
    // a tiny second TCP segment that Nagle holds back until the previous
    // segment is ACKed — on an otherwise idle connection that is a
    // ~40 ms delayed-ACK stall per response.
    let mut buf = String::with_capacity(line.len() + 1);
    buf.push_str(line);
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
                write_line(
                    &writer,
                    &error_response(
                        None,
                        &WireError::new(
                            "oversized",
                            format!("request line over {} bytes", inner.cfg.max_line),
                        ),
                    ),
                );
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
            Err(e) => write_line(&writer, &error_response(id, &e)),
            Ok(Request::Ping) => write_line(&writer, &ok_line(id, "\"pong\":true")),
            Ok(Request::Metrics) => write_line(&writer, &inner.metrics_response()),
            Ok(Request::Shutdown) => {
                write_line(&writer, &ok_line(id, "\"shutdown\":true"));
                inner.shutdown.store(true, Ordering::SeqCst);
                // Poke accept() awake so it observes the flag; an
                // accepted socket's local address IS the listener's.
                if let Ok(addr) = writer.lock().unwrap().local_addr() {
                    let _ = TcpStream::connect(addr);
                }
            }
            Ok(Request::Cancel { id }) => {
                let hit = inner.cancel_job((conn, id));
                write_line(
                    &writer,
                    &format!("{{\"id\":{id},\"ok\":true,\"cancelled\":{hit}}}"),
                );
            }
            Ok(Request::Solve {
                id,
                problem,
                priority,
                vectors,
                check,
                trace,
            }) => {
                // Refused before admission: only a server that records
                // every request's tasks has a trace to attach.
                if trace && !inner.cfg.trace_requests {
                    let e = WireError::bad(
                        "\"trace\": true needs a server started with --trace-requests",
                    );
                    write_line(&writer, &error_response(Some(id), &e));
                    continue;
                }
                if let Err(e) = admit(&inner, conn, id) {
                    write_line(&writer, &error_response(Some(id), &e));
                    continue;
                }
                spawn_job(&inner, &writer, (conn, id), move |inner| {
                    solve_response(inner, conn, id, &problem, priority, vectors, check, trace)
                });
            }
            Ok(Request::Batch {
                id,
                problems,
                priority,
                check,
            }) => {
                if let Err(e) = admit(&inner, conn, id) {
                    write_line(&writer, &error_response(Some(id), &e));
                    continue;
                }
                spawn_job(&inner, &writer, (conn, id), move |inner| {
                    batch_response(inner, conn, id, &problems, priority, check)
                });
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

/// Reserve an admission slot and seed the job table. A duplicate live id
/// on the same connection is a bad request (responses would be
/// indistinguishable).
fn admit(inner: &Arc<Inner>, conn: u64, id: u64) -> Result<(), WireError> {
    {
        let jobs = inner.jobs.lock().unwrap();
        if jobs.contains_key(&(conn, id)) {
            return Err(WireError::bad(format!(
                "request id {id} is still in flight on this connection"
            )));
        }
    }
    inner.try_admit()?;
    inner.jobs.lock().unwrap().insert(
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
    body: impl FnOnce(&Arc<Inner>) -> String,
) -> String {
    let resp = catch_unwind(AssertUnwindSafe(|| body(inner))).unwrap_or_else(|panic| {
        let what = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("no message");
        let e = WireError::new("internal", format!("the job panicked: {what}"));
        error_response(Some(key.1), &e)
    });
    inner.finish_job(key);
    resp
}

/// The job thread of one admitted `solve`/`batch` request.
fn spawn_job(
    inner: &Arc<Inner>,
    writer: &SharedWriter,
    key: (u64, u64),
    body: impl FnOnce(&Arc<Inner>) -> String + Send + 'static,
) {
    let (inner, writer) = (inner.clone(), writer.clone());
    thread::spawn(move || write_line(&writer, &run_job(&inner, key, body)));
}

fn ok_line(id: Option<u64>, body: &str) -> String {
    match id {
        Some(id) => format!("{{\"id\":{id},\"ok\":true,{body}}}"),
        None => format!("{{\"ok\":true,{body}}}"),
    }
}

fn dc_error_response(id: u64, e: &DcError) -> String {
    error_response(Some(id), &WireError::new(dc_error_code(e), e.to_string()))
}

/// One problem's success payload (shared by `solve` and `batch` items).
fn result_body(t: &SymTridiag, eig: &Eigen, stats: &DcStats, vectors: bool, check: bool) -> String {
    let mut body = format!(
        "\"n\":{},\"k\":{},\"deflation\":{},\"values\":{}",
        t.n(),
        eig.values.len(),
        protocol::num(stats.overall_deflation()),
        protocol::num_arr(&eig.values)
    );
    if check && eig.vectors.cols() > 0 && eig.vectors.cols() == eig.values.len() {
        let orth = dcst_matrix::orthogonality_error(&eig.vectors);
        let res = dcst_matrix::residual_error(
            t.n(),
            |x, y| t.matvec(x, y),
            &eig.values,
            &eig.vectors,
            t.max_norm(),
        );
        body.push_str(&format!(
            ",\"orth\":{},\"residual\":{}",
            protocol::num(orth),
            protocol::num(res)
        ));
    }
    if vectors {
        // Column-major, matching Matrix's storage.
        body.push_str(&format!(
            ",\"vectors\":{}",
            protocol::num_arr(eig.vectors.as_slice())
        ));
    }
    body
}

/// Build, submit, wait, and serialize one solve. The job's cancel
/// handles go live between submission and wait, so a `cancel` verb
/// observed by the reader thread lands on this scope's latch.
#[allow(clippy::too_many_arguments)]
fn solve_response(
    inner: &Arc<Inner>,
    conn: u64,
    id: u64,
    problem: &Problem,
    priority: bool,
    vectors: bool,
    check: bool,
    trace: bool,
) -> String {
    if problem.matrix.n() > inner.cfg.max_n {
        return error_response(
            Some(id),
            &WireError::new(
                "oversized",
                format!(
                    "matrix order {} over the server limit {}",
                    problem.matrix.n(),
                    inner.cfg.max_n
                ),
            ),
        );
    }
    let t = match inner.build_matrix(&problem.matrix) {
        Ok(t) => t,
        Err(e) => return error_response(Some(id), &e),
    };
    let opts = DcOptions {
        mode: problem.mode,
        threads: inner.cfg.threads,
        ..inner.cfg.opts
    };
    // The solver is a temporary, dropped at submit: the graph then holds
    // the only handle on its spare-V slot, so V is freed when the result is
    // collected rather than kept through the response.
    let pending = match TaskFlowDc::new(opts).submit(&t, request_scope(&inner.rt, priority)) {
        Ok(p) => p,
        Err(e) => return dc_error_response(id, &e),
    };
    if inner.activate_job((conn, id), vec![pending.cancel_handle()]) {
        pending.cancel();
    }
    match finish_pending(inner, pending, trace) {
        Ok((eig, stats, trace_json)) => {
            let mut body = result_body(&t, &eig, &stats, vectors, check);
            if let Some(tj) = trace_json {
                body.push_str(&format!(",\"trace\":\"{}\"", protocol::escape(&tj)));
            }
            ok_line(Some(id), &body)
        }
        Err(e) => {
            if matches!(e, DcError::Cancelled) {
                inner.cancelled.fetch_add(1, Ordering::Relaxed);
            }
            dc_error_response(id, &e)
        }
    }
}

/// A request's scope on the shared pool: a `"priority":"high"` request
/// rides the priority injector lane with every one of its tasks.
fn request_scope(rt: &Runtime, priority: bool) -> Scope<'_> {
    if priority {
        rt.priority_scope()
    } else {
        rt.scope()
    }
}

/// Wait on a pending solve, harvesting its scope trace (when the server
/// records traces) whether it succeeded or not — an unharvested scope
/// would leak records into the shared trace buffer forever.
fn finish_pending(
    inner: &Arc<Inner>,
    pending: PendingSolve<'_>,
    want_trace: bool,
) -> Result<(Eigen, DcStats, Option<String>), DcError> {
    let waited = pending.scope().wait();
    let trace_json = if inner.cfg.trace_requests {
        let tr = inner.rt.take_scope_trace(pending.scope());
        want_trace.then(|| tr.to_chrome_json())
    } else {
        None
    };
    waited?;
    let (eig, stats) = pending.wait()?;
    Ok((eig, stats, trace_json))
}

/// The fused batch path: submit every problem's graph before waiting on
/// any, so their panels share the pool's ready queue; all scopes are
/// registered for cancellation as one job.
fn batch_response(
    inner: &Arc<Inner>,
    conn: u64,
    id: u64,
    problems: &[Problem],
    priority: bool,
    check: bool,
) -> String {
    for p in problems {
        if p.matrix.n() > inner.cfg.max_n {
            return error_response(
                Some(id),
                &WireError::new(
                    "oversized",
                    format!(
                        "matrix order {} over the server limit {}",
                        p.matrix.n(),
                        inner.cfg.max_n
                    ),
                ),
            );
        }
    }
    let mut mats = Vec::with_capacity(problems.len());
    for p in problems {
        match inner.build_matrix(&p.matrix) {
            Ok(t) => mats.push(t),
            Err(e) => return error_response(Some(id), &e),
        }
    }
    // Submit everything, then register the whole fan of cancel handles.
    let mut pendings: Vec<Result<PendingSolve<'_>, DcError>> = Vec::with_capacity(mats.len());
    for (p, t) in problems.iter().zip(&mats) {
        let solver = TaskFlowDc::new(DcOptions {
            mode: p.mode,
            threads: inner.cfg.threads,
            ..inner.cfg.opts
        });
        pendings.push(solver.submit(t, request_scope(&inner.rt, priority)));
    }
    let handles: Vec<CancelHandle> = pendings
        .iter()
        .filter_map(|p| p.as_ref().ok().map(|p| p.cancel_handle()))
        .collect();
    if inner.activate_job((conn, id), handles) {
        for p in pendings.iter().flatten() {
            p.cancel();
        }
    }
    let mut results = Vec::with_capacity(pendings.len());
    let mut any_cancelled = false;
    for (p, t) in pendings.into_iter().zip(&mats) {
        let outcome =
            p.and_then(|p| finish_pending(inner, p, false).map(|(eig, stats, _)| (eig, stats)));
        results.push(match outcome {
            Ok((eig, stats)) => format!(
                "{{\"ok\":true,{}}}",
                result_body(t, &eig, &stats, false, check)
            ),
            Err(e) => {
                any_cancelled |= matches!(e, DcError::Cancelled);
                format!(
                    "{{\"ok\":false,\"error\":{{\"code\":\"{}\",\"message\":\"{}\"}}}}",
                    dc_error_code(&e),
                    protocol::escape(&e.to_string())
                )
            }
        });
    }
    if any_cancelled {
        inner.cancelled.fetch_add(1, Ordering::Relaxed);
    }
    ok_line(Some(id), &format!("\"results\":[{}]", results.join(",")))
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
        let resp = run_job(inner, (1, 7), |_| panic!("boom"));
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
}
