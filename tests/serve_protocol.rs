//! Concurrency harness for the `dcst serve` daemon (in-process).
//!
//! Drives a real TCP [`Server`] with concurrent clients issuing a mix of
//! solves, cancels, malformed requests, and oversized payloads, and
//! asserts the service-layer contracts: every error is typed, a shed or
//! cancelled request never poisons its neighbours, admission capacity is
//! returned when a request is cancelled, and the in-flight gauge drains
//! to zero. In a debug build the shadow tracker validates every task's
//! declared accesses while the harness hammers the shared runtime.

use dcst::core::{DcOptions, SequentialDc, SolveMode, TaskFlowDc};
use dcst::runtime::jsonv::{self, Json};
use dcst::serve::{Client, Server, ServerConfig};
use dcst::tridiag::MatrixType;
use std::thread;
use std::time::{Duration, Instant};

fn server(threads: usize, max_inflight: usize) -> Server {
    Server::start(ServerConfig {
        threads,
        max_inflight,
        ..ServerConfig::default()
    })
    .expect("bind loopback")
}

fn obj_bool(doc: &Json, key: &str) -> Option<bool> {
    match doc.get(key) {
        Some(Json::Bool(b)) => Some(*b),
        _ => None,
    }
}

fn error_code(doc: &Json) -> Option<String> {
    doc.get("error")?.get("code")?.as_str().map(str::to_string)
}

fn req_id(doc: &Json) -> Option<u64> {
    doc.get("id")?.as_num().map(|x| x as u64)
}

fn solve_line(id: u64, ty: usize, n: usize, seed: u64, extra: &str) -> String {
    format!(r#"{{"op":"solve","id":{id},"matrix":{{"type":{ty},"n":{n},"seed":{seed}}}{extra}}}"#)
}

/// The members that give a blocker solve of order `n` eigenvector work: the
/// `serve_mix` pruned subset `[0, n/8]` with `"vectors":true`. Without
/// vectors or a check the daemon would solve it values-only, in a fraction
/// of the time a test needs it in flight.
fn vector_work(n: usize) -> String {
    format!(r#","mode":{{"subset":[0,{}]}},"vectors":true"#, n / 8)
}

/// The library mode of [`vector_work`]'s solve.
fn vector_work_mode(n: usize) -> SolveMode {
    SolveMode::Subset { il: 0, iu: n / 8 }
}

/// Six clients hammer one daemon with a mixed workload; every response
/// must be well-formed, correctly tagged, and (for solves) gate-passing.
#[test]
fn concurrent_clients_mixed_workload() {
    let server = server(2, 16);
    let addr = server.addr();
    let workers: Vec<_> = (0..6)
        .map(|c| {
            thread::spawn(move || {
                let mut cl = Client::connect(addr).unwrap();
                // Ping.
                let doc = cl.call(r#"{"op":"ping","id":1}"#).unwrap();
                assert_eq!(obj_bool(&doc, "pong"), Some(true));
                // A full solve with the server-side gate check.
                let n = 32 + 8 * c;
                let doc = cl
                    .call(&solve_line(
                        2,
                        1 + (c % 5),
                        n,
                        c as u64 + 1,
                        r#","check":true"#,
                    ))
                    .unwrap();
                assert_eq!(obj_bool(&doc, "ok"), Some(true), "client {c}: {doc:?}");
                assert_eq!(doc.get("values").unwrap().as_arr().unwrap().len(), n);
                let orth = doc.get("orth").unwrap().as_num().unwrap();
                let res = doc.get("residual").unwrap().as_num().unwrap();
                let gate = 50.0 * n as f64 * f64::EPSILON;
                assert!(
                    orth < gate && res < gate,
                    "client {c}: orth {orth} res {res}"
                );
                // Typed error for a malformed request, connection intact.
                let doc = cl.call(r#"{"op":"solve","id":3}"#).unwrap();
                assert_eq!(error_code(&doc).as_deref(), Some("bad-request"));
                // Values-only and subset modes.
                let doc = cl
                    .call(&solve_line(4, 4, 48, 9, r#","mode":"values""#))
                    .unwrap();
                assert_eq!(obj_bool(&doc, "ok"), Some(true));
                let doc = cl
                    .call(&solve_line(
                        5,
                        4,
                        48,
                        9,
                        r#","mode":{"subset":[3,7]},"check":true"#,
                    ))
                    .unwrap();
                assert_eq!(obj_bool(&doc, "ok"), Some(true));
                assert_eq!(doc.get("k").unwrap().as_num().unwrap() as usize, 5);
                // High priority rides the injector lane end to end.
                let doc = cl
                    .call(&solve_line(6, 2, 40, 3, r#","priority":"high""#))
                    .unwrap();
                assert_eq!(obj_bool(&doc, "ok"), Some(true));
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    // The in-flight gauge drains to zero once every client is done.
    let mut cl = Client::connect(addr).unwrap();
    let doc = cl.call(r#"{"op":"metrics"}"#).unwrap();
    let m = doc.get("metrics").unwrap();
    assert_eq!(m.get("inflight").unwrap().as_num().unwrap(), 0.0);
    assert!(m.get("completed").unwrap().as_num().unwrap() >= 6.0 * 4.0);
}

/// Oversized request lines and oversized matrices are both shed with a
/// typed error, and the connection stays line-synchronized afterwards.
#[test]
fn oversized_inputs_are_typed_and_resynced() {
    let server = Server::start(ServerConfig {
        threads: 1,
        max_line: 4096,
        max_n: 64,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut cl = Client::connect(server.addr()).unwrap();
    // A line over the cap: typed `oversized`, then the stream recovers.
    let giant = format!(r#"{{"op":"solve","id":1,"pad":"{}"}}"#, "x".repeat(8192));
    let doc = cl.call(&giant).unwrap();
    assert_eq!(error_code(&doc).as_deref(), Some("oversized"));
    // A matrix over the server's order limit: shed before any allocation.
    let doc = cl.call(&solve_line(2, 4, 4096, 1, "")).unwrap();
    assert_eq!(error_code(&doc).as_deref(), Some("oversized"));
    // The connection still solves fine.
    let doc = cl.call(&solve_line(3, 4, 32, 1, "")).unwrap();
    assert_eq!(obj_bool(&doc, "ok"), Some(true));
}

/// The admission-control story, pipelined on one connection so the
/// ordering is deterministic: request A fills the only slot, B is shed
/// with typed `busy`, cancelling A frees the slot, and C is admitted.
#[test]
fn cancellation_frees_admission_capacity() {
    let server = server(2, 1);
    let addr = server.addr();
    let mut cl = Client::connect(addr).unwrap();
    // A: big enough that it is still mid-flight when the cancel lands.
    cl.send(&solve_line(10, 4, 700, 1, &vector_work(700)))
        .unwrap();
    // B: same connection, so the reader admits A first — B must shed.
    cl.send(&solve_line(11, 4, 16, 1, "")).unwrap();
    let doc = cl.recv().unwrap().expect("busy response");
    assert_eq!(req_id(&doc), Some(11));
    assert_eq!(error_code(&doc).as_deref(), Some("busy"));
    // Cancel A; its response must be a typed `cancelled` error (the
    // solve is far too large to have finished already).
    let doc = cl.call(r#"{"op":"cancel","id":10}"#).unwrap();
    assert_eq!(obj_bool(&doc, "cancelled"), Some(true));
    let doc = cl.recv().unwrap().expect("A's response");
    assert_eq!(req_id(&doc), Some(10));
    assert_eq!(error_code(&doc).as_deref(), Some("cancelled"));
    // Capacity is back: C is admitted and completes.
    let doc = cl
        .call(&solve_line(12, 4, 48, 1, r#","check":true"#))
        .unwrap();
    assert_eq!(req_id(&doc), Some(12));
    assert_eq!(obj_bool(&doc, "ok"), Some(true), "{doc:?}");
    // And the daemon counted the shed + cancel.
    let doc = cl.call(r#"{"op":"metrics"}"#).unwrap();
    let m = doc.get("metrics").unwrap();
    assert!(m.get("shed").unwrap().as_num().unwrap() >= 1.0);
    assert!(m.get("cancelled").unwrap().as_num().unwrap() >= 1.0);
    assert_eq!(m.get("inflight").unwrap().as_num().unwrap(), 0.0);
}

/// The other half of admission control: the pool's ready-queue depth.
/// With the high-water mark at 0, any backlog on the one worker sheds the
/// next request with a typed `busy` naming the depth, while the solve that
/// built the backlog completes untouched.
#[test]
fn ready_depth_backlog_sheds_with_typed_busy() {
    let server = Server::start(ServerConfig {
        threads: 1,
        max_inflight: 8,
        max_ready_depth: 0,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let mut a = Client::connect(server.addr()).unwrap();
    let mut b = Client::connect(server.addr()).unwrap();
    let metric = |cl: &mut Client, key: &str| {
        let doc = cl.call(r#"{"op":"metrics"}"#).unwrap();
        doc.get("metrics")
            .unwrap()
            .get(key)
            .unwrap()
            .as_num()
            .unwrap()
    };
    let shed_before = metric(&mut b, "shed");
    // A: one worker cannot keep up with the submitter, so ready tasks pile up.
    a.send(&solve_line(1, 4, 1500, 1, &vector_work(1500)))
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    let busy = loop {
        assert!(Instant::now() < deadline, "no ready-depth shed within 60 s");
        if metric(&mut b, "ready_depth") > 0.0 {
            // The gauge can touch 0 between the poll and the admission
            // check (a serial spine task running alone); such a solve is
            // admitted and simply completes — poll again.
            let doc = b.call(&solve_line(2, 4, 16, 1, "")).unwrap();
            if obj_bool(&doc, "ok") != Some(true) {
                break doc;
            }
        }
    };
    assert_eq!(req_id(&busy), Some(2));
    assert_eq!(error_code(&busy).as_deref(), Some("busy"));
    let msg = busy.get("error").unwrap().get("message").unwrap();
    assert!(
        msg.as_str().unwrap().contains("ready-queue depth"),
        "{busy:?}"
    );
    assert_eq!(metric(&mut b, "shed"), shed_before + 1.0);
    let doc = a.recv().unwrap().expect("A's response");
    assert_eq!(req_id(&doc), Some(1));
    assert_eq!(obj_bool(&doc, "ok"), Some(true), "{doc:?}");
    assert_eq!(metric(&mut b, "inflight"), 0.0);
}

/// A duplicate in-flight id on one connection is rejected (responses
/// would be indistinguishable), and cancel on an unknown id reports
/// `cancelled: false` instead of an error.
#[test]
fn duplicate_and_unknown_ids() {
    let server = server(2, 8);
    let mut cl = Client::connect(server.addr()).unwrap();
    cl.send(&solve_line(7, 4, 600, 1, &vector_work(600)))
        .unwrap();
    let doc = cl.call(&solve_line(7, 4, 16, 1, "")).unwrap();
    assert_eq!(error_code(&doc).as_deref(), Some("bad-request"));
    let doc = cl.call(r#"{"op":"cancel","id":99}"#).unwrap();
    assert_eq!(obj_bool(&doc, "cancelled"), Some(false));
    let doc = cl.call(r#"{"op":"cancel","id":7}"#).unwrap();
    assert_eq!(obj_bool(&doc, "cancelled"), Some(true));
    // Drain request 7's (cancelled or completed) response.
    let doc = cl.recv().unwrap().expect("7's response");
    assert_eq!(req_id(&doc), Some(7));
}

/// A client that vanishes mid-solve must not leak its admission slot:
/// the disconnect sweep cancels its jobs and capacity returns.
#[test]
fn disconnect_releases_capacity() {
    let server = server(2, 1);
    let addr = server.addr();
    {
        let mut cl = Client::connect(addr).unwrap();
        cl.send(&solve_line(1, 4, 700, 1, &vector_work(700)))
            .unwrap();
        // Drop the connection with the solve still in flight.
    }
    // A fresh client gets the slot back (poll briefly: the disconnect
    // sweep races the cancel latch draining the abandoned graph).
    let mut cl = Client::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let doc = cl.call(&solve_line(2, 4, 24, 1, "")).unwrap();
        if obj_bool(&doc, "ok") == Some(true) {
            break;
        }
        assert_eq!(error_code(&doc).as_deref(), Some("busy"));
        assert!(Instant::now() < deadline, "slot never came back");
        thread::sleep(Duration::from_millis(50));
    }
}

/// A generated spec of order 0 is a typed `bad-request` — as a `solve`
/// and as a `batch` member — and holds no admission slot afterwards: more
/// of them than `max_inflight`, then a normal solve is still admitted.
#[test]
fn zero_order_specs_are_typed_and_hold_no_slot() {
    let server = server(2, 2);
    let addr = server.addr();
    // A daemon that stops answering must fail the test, not hang it.
    let (done, finished) = std::sync::mpsc::channel();
    thread::spawn(move || {
        let mut cl = Client::connect(addr).unwrap();
        for id in 1..=4u64 {
            let line = if id % 2 == 1 {
                solve_line(id, 4, 0, 1, "")
            } else {
                format!(
                    r#"{{"op":"batch","id":{id},"problems":[{{"matrix":{{"type":4,"n":16}}}},{{"matrix":{{"type":4,"n":0}}}}]}}"#
                )
            };
            let doc = cl.call(&line).unwrap();
            assert_eq!(req_id(&doc), Some(id));
            assert_eq!(error_code(&doc).as_deref(), Some("bad-request"), "{doc:?}");
        }
        let doc = cl.call(r#"{"op":"metrics"}"#).unwrap();
        let m = doc.get("metrics").unwrap();
        assert_eq!(m.get("inflight").unwrap().as_num().unwrap(), 0.0);
        let doc = cl.call(&solve_line(5, 4, 16, 1, "")).unwrap();
        assert_eq!(obj_bool(&doc, "ok"), Some(true), "{doc:?}");
        done.send(()).unwrap();
    });
    finished
        .recv_timeout(Duration::from_secs(60))
        .expect("the daemon stopped answering, or an assertion above failed");
}

/// Every request that cannot run is answered with its typed error on the
/// reader, before admission: an order over `max_n` (in a `solve` or in
/// any `batch` member), a zero order, a type outside 1..=15, an inline
/// `d`/`e` length mismatch, `"trace": true` to a server that records
/// no traces, `"check": true` on a problem over n = 1024 that returns
/// vectors, and `"vectors": true` on a `"values"` solve, which has none to
/// return. None of them is counted `accepted` or holds a slot.
#[test]
fn a_request_that_cannot_run_is_never_admitted() {
    let server = Server::start(ServerConfig {
        threads: 2,
        max_inflight: 2,
        max_n: 2048,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let mut cl = Client::connect(server.addr()).unwrap();
    let gauges = |cl: &mut Client| {
        let doc = cl.call(r#"{"op":"metrics"}"#).unwrap();
        let m = doc.get("metrics").unwrap().clone();
        let get = |key| m.get(key).and_then(Json::as_num).expect(key);
        (get("accepted"), get("inflight"))
    };
    let before = gauges(&mut cl);
    for (id, line, code) in [
        (1, solve_line(1, 4, 2049, 1, ""), "oversized"),
        (2, solve_line(2, 4, 0, 1, ""), "bad-request"),
        (3, solve_line(3, 16, 8, 1, ""), "bad-request"),
        (
            4,
            r#"{"op":"solve","id":4,"matrix":{"d":[1,2],"e":[1,1,1]}}"#.to_string(),
            "bad-request",
        ),
        (
            5,
            r#"{"op":"batch","id":5,"problems":[{"matrix":{"type":4,"n":16}},{"matrix":{"type":4,"n":2049}}]}"#
                .to_string(),
            "oversized",
        ),
        (6, solve_line(6, 4, 16, 1, r#","trace":true"#), "bad-request"),
        (
            8,
            r#"{"op":"solve","id":8,"matrix":{"d":[1e999,1],"e":[0.5]}}"#.to_string(),
            "nonfinite",
        ),
        (
            9,
            r#"{"op":"batch","id":9,"problems":[{"matrix":{"type":4,"n":16}},{"matrix":{"d":[1,2],"e":[1e999]}}]}"#
                .to_string(),
            "nonfinite",
        ),
        // Checking vectors is O(n³) serial work after the solve, which
        // cancel cannot stop: refused over n = 1024, in any item.
        (10, solve_line(10, 4, 1025, 1, r#","check":true"#), "oversized"),
        (
            11,
            r#"{"op":"batch","id":11,"check":true,"problems":[{"matrix":{"type":4,"n":1025},"mode":"values"},{"matrix":{"type":4,"n":1025},"mode":{"subset":[0,511]}}]}"#
                .to_string(),
            "oversized",
        ),
        (
            13,
            solve_line(13, 4, 16, 1, r#","mode":"values","vectors":true"#),
            "bad-request",
        ),
    ] {
        let doc = cl.call(&line).unwrap();
        assert_eq!(req_id(&doc), Some(id), "{line}");
        assert_eq!(error_code(&doc).as_deref(), Some(code), "{line}: {doc:?}");
        assert_eq!(gauges(&mut cl), before, "{line} moved accepted or inflight");
    }
    // The daemon still runs what it can.
    let doc = cl.call(&solve_line(7, 4, 64, 1, "")).unwrap();
    assert_eq!(obj_bool(&doc, "ok"), Some(true), "{doc:?}");
    assert_eq!(gauges(&mut cl), (before.0 + 1.0, 0.0));
    // A values-only problem has no vectors to check, whatever its order.
    let doc = cl
        .call(&solve_line(
            12,
            4,
            1025,
            1,
            r#","mode":"values","check":true"#,
        ))
        .unwrap();
    assert_eq!(obj_bool(&doc, "ok"), Some(true), "{doc:?}");
    assert_eq!(gauges(&mut cl), (before.0 + 2.0, 0.0));
}

/// A reply computes only what it carries: the `metrics` verb's
/// `vectorless` counts every problem solved without eigenvectors — each
/// `"values"` problem, and each `"full"` problem whose reply has neither
/// vectors nor a check. A subset runs as sent.
#[test]
fn a_reply_computes_only_what_it_carries() {
    let server = server(2, 8);
    let mut cl = Client::connect(server.addr()).unwrap();
    let batch = |id: u64, check: bool, modes: &[&str]| {
        let problems: Vec<String> = modes
            .iter()
            .map(|m| format!(r#"{{"matrix":{{"type":4,"n":128}},"mode":{m}}}"#))
            .collect();
        format!(
            r#"{{"op":"batch","id":{id},"check":{check},"problems":[{}]}}"#,
            problems.join(",")
        )
    };
    // Each reply's value counts, one a problem.
    let counts = |doc: &Json| -> Vec<usize> {
        let one = |r: &Json| {
            let k = r.get("k").and_then(Json::as_num).expect("k") as usize;
            assert_eq!(r.get("values").and_then(Json::as_arr).unwrap().len(), k);
            k
        };
        match doc.get("results").and_then(Json::as_arr) {
            Some(results) => results.iter().map(one).collect(),
            None => vec![one(doc)],
        }
    };
    let mut vectorless = 0.0;
    for (line, without_vectors, want) in [
        (solve_line(1, 4, 128, 1, ""), 1.0, vec![128]),
        (
            solve_line(2, 4, 128, 1, r#","mode":"values""#),
            1.0,
            vec![128],
        ),
        (
            solve_line(3, 4, 128, 1, r#","mode":{"subset":[0,16]}"#),
            0.0,
            vec![17],
        ),
        (
            solve_line(4, 4, 128, 1, r#","vectors":true"#),
            0.0,
            vec![128],
        ),
        (solve_line(5, 4, 128, 1, r#","check":true"#), 0.0, vec![128]),
        (
            batch(6, false, &[r#""full""#, r#""values""#, r#""full""#]),
            3.0,
            vec![128; 3],
        ),
        (
            batch(7, true, &[r#""full""#, r#""values""#]),
            1.0,
            vec![128; 2],
        ),
    ] {
        let doc = cl.call(&line).unwrap();
        assert_eq!(counts(&doc), want, "{line}: {doc:?}");
        vectorless += without_vectors;
        assert_eq!(metric(&mut cl, "vectorless"), vectorless, "{line}");
    }
}

/// The submission ids of the `X` (task) events in a response's trace.
fn traced_task_ids(doc: &Json) -> Vec<u64> {
    let text = doc
        .get("trace")
        .and_then(Json::as_str)
        .expect("trace field");
    let trace = jsonv::parse(text).expect("the trace parses");
    trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array")
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .map(|e| e.get("args").unwrap().get("id").unwrap().as_num().unwrap() as u64)
        .collect()
}

/// Per-request traces on one shared pool: two traced solves of different
/// orders, in flight at once, each get exactly their own solve's tasks (the
/// values-only graph: the replies carry no vectors); a
/// later traced solve finds nothing left behind in the shared buffer; and
/// a server that records no traces refuses `"trace": true` before
/// admission instead of answering `ok` without one.
#[test]
fn traced_requests_carry_only_their_own_tasks() {
    let cfg = ServerConfig {
        threads: 2,
        max_inflight: 8,
        trace_requests: true,
        ..ServerConfig::default()
    };
    // The graph's task count depends on n and the options, not the matrix.
    let opts = DcOptions {
        threads: cfg.threads,
        mode: SolveMode::ValuesOnly,
        ..DcOptions::default()
    };
    let tasks = |n: usize| {
        let t = MatrixType::Type4.generate(n, 1);
        let (_, _, trace, _) = TaskFlowDc::new(opts).solve_observed(&t).unwrap();
        trace.records.len()
    };
    let traced = Server::start(cfg).expect("bind loopback");
    let mut cl = Client::connect(traced.addr()).unwrap();
    // Pipelined on one connection, so both jobs share the pool at once.
    cl.send(&solve_line(1, 4, 300, 1, r#","trace":true"#))
        .unwrap();
    cl.send(&solve_line(2, 4, 160, 1, r#","trace":true"#))
        .unwrap();
    let mut docs = [cl.recv().unwrap().unwrap(), cl.recv().unwrap().unwrap()];
    docs.sort_by_key(req_id);
    for (doc, id) in docs.iter().zip([1, 2]) {
        assert_eq!(req_id(doc), Some(id));
        assert_eq!(obj_bool(doc, "ok"), Some(true), "{doc:?}");
    }
    let (a, b) = (traced_task_ids(&docs[0]), traced_task_ids(&docs[1]));
    assert_eq!(a.len(), tasks(300));
    assert_eq!(b.len(), tasks(160));
    assert!(
        a.iter().all(|id| !b.contains(id)),
        "a task of one request in the other's trace"
    );
    // Task ids rise across the runtime: anything left over from the first
    // two requests would show as a lower id or an extra event here.
    let doc = cl
        .call(&solve_line(3, 4, 100, 1, r#","trace":true"#))
        .unwrap();
    let c = traced_task_ids(&doc);
    assert_eq!(c.len(), tasks(100));
    let last = a.iter().chain(&b).max().unwrap();
    assert!(
        c.iter().all(|id| id > last),
        "records leaked into request 3"
    );

    let plain = server(2, 1);
    let mut cl = Client::connect(plain.addr()).unwrap();
    for id in 4..6 {
        let doc = cl
            .call(&solve_line(id, 4, 32, 1, r#","trace":true"#))
            .unwrap();
        assert_eq!(req_id(&doc), Some(id));
        assert_eq!(error_code(&doc).as_deref(), Some("bad-request"), "{doc:?}");
        let msg = doc.get("error").unwrap().get("message").unwrap();
        assert!(
            msg.as_str().unwrap().contains("--trace-requests"),
            "{doc:?}"
        );
    }
    // Refused, not admitted: the one slot is free for an untraced solve.
    let doc = cl.call(&solve_line(6, 4, 32, 1, "")).unwrap();
    assert_eq!(obj_bool(&doc, "ok"), Some(true), "{doc:?}");
    assert!(doc.get("trace").is_none());
}

/// The `metrics` verb's `build_us` is the job threads' time in matrix
/// generation: a spec'd solve and a spec'd batch raise it, a `ping` does
/// not.
#[test]
fn build_us_counts_matrix_generation() {
    let server = server(2, 2);
    let mut cl = Client::connect(server.addr()).unwrap();
    let build_us = |cl: &mut Client| {
        let doc = cl.call(r#"{"op":"metrics"}"#).unwrap();
        let m = doc.get("metrics").unwrap();
        m.get("build_us").and_then(Json::as_num).expect("build_us")
    };
    assert_eq!(build_us(&mut cl), 0.0);
    let doc = cl.call(r#"{"op":"ping","id":1}"#).unwrap();
    assert_eq!(obj_bool(&doc, "pong"), Some(true));
    assert_eq!(build_us(&mut cl), 0.0, "a ping generates no matrix");

    let doc = cl
        .call(&solve_line(2, 6, 400, 1, r#","mode":"values""#))
        .unwrap();
    assert_eq!(obj_bool(&doc, "ok"), Some(true), "{doc:?}");
    let after_solve = build_us(&mut cl);
    assert!(after_solve > 0.0, "a spec'd solve raises build_us");

    let doc = cl
        .call(r#"{"op":"batch","id":3,"problems":[{"matrix":{"type":4,"n":400},"mode":"values"}]}"#)
        .unwrap();
    assert_eq!(obj_bool(&doc, "ok"), Some(true), "{doc:?}");
    assert!(
        build_us(&mut cl) > after_solve,
        "a spec'd batch raises build_us"
    );
}

/// The `metrics` verb's field `key`.
fn metric(cl: &mut Client, key: &str) -> f64 {
    let doc = cl.call(r#"{"op":"metrics"}"#).unwrap();
    let m = doc.get("metrics").expect("metrics object");
    m.get(key).and_then(Json::as_num).expect(key)
}

/// Order of the solve that keeps the daemon busy while a second request
/// arrives. The rule tests assume it is still in flight when the second
/// request's job starts, which is about a millisecond after its first
/// task is seen: a type-4 solve of this order with [`vector_work`] at two
/// workers takes about 1 s in a debug build and 25 ms in a release build
/// (its values-only solve, about 0.2 s and 7 ms). Each test checks the
/// assumption, by the second request's `inline` count or by
/// `inflight` after its reply.
const LONG_N: usize = 1000;

/// The daemon's largest order for a solve on a job thread
/// (`server.rs` `INLINE_MAX_N`).
const INLINE_MAX_N: usize = 512;

/// Send a long solve of order `n` (with [`vector_work`] and `extra`
/// members) as request 1 on `a`, alone on a fresh daemon, and return once
/// its tasks run on the pool: its job has chosen the pool, and it is in
/// flight while the next request is admitted.
fn occupy_the_pool(a: &mut Client, probe: &mut Client, n: usize, extra: &str) {
    assert_eq!(metric(probe, "tasks_executed"), 0.0);
    let members = format!("{}{extra}", vector_work(n));
    a.send(&solve_line(1, 4, n, 1, &members)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    while metric(probe, "tasks_executed") == 0.0 {
        assert!(
            Instant::now() < deadline,
            "request 1 never reached the pool"
        );
        thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(metric(probe, "inflight"), 1.0);
}

/// A busy daemon solves the next request on its job thread — as many
/// requests in flight as the pool has workers — and the reply is the
/// library's `TaskFlowDc` bit for bit, values and vectors. The request is
/// counted `inline`, and `tasks_executed` counts its tasks beside the
/// pool's: each request's graph is the library's in the mode the daemon
/// ran it in.
#[test]
fn a_busy_daemon_solves_on_the_job_thread_with_the_same_bits() {
    let server = server(2, 8);
    let (mut a, mut b) = (
        Client::connect(server.addr()).unwrap(),
        Client::connect(server.addr()).unwrap(),
    );
    let opts = DcOptions {
        threads: 2,
        ..DcOptions::default()
    };
    let tasks = |t: &dcst::tridiag::SymTridiag, mode| {
        let opts = DcOptions { mode, ..opts };
        let (_, _, trace, _) = TaskFlowDc::new(opts).solve_observed(t).unwrap();
        trace.records.len() as f64
    };
    occupy_the_pool(&mut a, &mut b, LONG_N, "");
    let doc = b
        .call(&solve_line(2, 10, 300, 3, r#","vectors":true"#))
        .unwrap();
    assert_eq!(obj_bool(&doc, "ok"), Some(true), "{doc:?}");
    assert_eq!(metric(&mut b, "inline"), 1.0);
    let t = MatrixType::Type10.generate(300, 3);
    let (eig, _) = TaskFlowDc::new(opts).solve_with_stats(&t).unwrap();
    let wire_bits = |key: &str| -> Vec<u64> {
        let arr = doc.get(key).and_then(Json::as_arr).expect(key);
        arr.iter().map(|v| v.as_num().unwrap().to_bits()).collect()
    };
    let bits = |xs: &[f64]| -> Vec<u64> { xs.iter().map(|x| x.to_bits()).collect() };
    assert_eq!(wire_bits("values"), bits(&eig.values));
    assert_eq!(wire_bits("vectors"), bits(eig.vectors.as_slice()));
    let doc = a.recv().unwrap().expect("request 1's reply");
    assert_eq!(req_id(&doc), Some(1));
    assert_eq!(obj_bool(&doc, "ok"), Some(true), "{doc:?}");
    // Request 1 stayed on the pool; every task of both requests is counted.
    assert_eq!(metric(&mut b, "inline"), 1.0);
    let long = MatrixType::Type4.generate(LONG_N, 1);
    assert_eq!(
        metric(&mut b, "tasks_executed"),
        tasks(&long, vector_work_mode(LONG_N)) + tasks(&t, SolveMode::Full)
    );
    assert_eq!(metric(&mut b, "inflight"), 0.0);
}

/// A request solving on its job thread stays cancellable mid-solve: the
/// cancel latches its scopes, the inline runtime skips the rest of its
/// graphs, and the batch's last problem answers `cancelled` well before
/// the batch could have run to its end. The slots drain to zero.
#[test]
fn a_job_thread_solve_is_cancelled_mid_solve() {
    let server = server(2, 8);
    let addr = server.addr();
    let (mut a, mut b) = (
        Client::connect(addr).unwrap(),
        Client::connect(addr).unwrap(),
    );
    let mut probe = Client::connect(addr).unwrap();
    // Sixteen problems at the inline limit, one generated and fifteen
    // inline copies of it: once the first is built (`build_us` moves) the
    // copies take microseconds, so the cancel lands in the solves.
    // The batch carries no vectors, so the daemon solves it values-only.
    let t = MatrixType::Type4.generate(INLINE_MAX_N, 2);
    let started = Instant::now();
    SequentialDc::new(DcOptions {
        mode: SolveMode::ValuesOnly,
        ..DcOptions::default()
    })
    .solve_with_stats(&t)
    .unwrap();
    let one_solve = started.elapsed();
    let nums = |xs: &[f64]| -> String {
        let strs: Vec<String> = xs.iter().map(|x| format!("{x:?}")).collect();
        strs.join(",")
    };
    let copy = format!(
        r#"{{"matrix":{{"d":[{}],"e":[{}]}}}}"#,
        nums(&t.d),
        nums(&t.e)
    );
    let mut problems = vec![format!(
        r#"{{"matrix":{{"type":4,"n":{INLINE_MAX_N},"seed":2}}}}"#
    )];
    problems.extend(std::iter::repeat_n(copy, 15));
    occupy_the_pool(&mut a, &mut probe, LONG_N, "");
    let built = metric(&mut probe, "build_us");
    b.send(&format!(
        r#"{{"op":"batch","id":2,"problems":[{}]}}"#,
        problems.join(",")
    ))
    .unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    while metric(&mut probe, "build_us") == built {
        assert!(Instant::now() < deadline, "request 2 never started");
        thread::sleep(Duration::from_millis(1));
    }
    let cancelled_at = Instant::now();
    b.send(r#"{"op":"cancel","id":2}"#).unwrap();
    // The acknowledgement and the reply, in whichever order they come.
    let mut docs = [b.recv().unwrap().unwrap(), b.recv().unwrap().unwrap()];
    let answered_in = cancelled_at.elapsed();
    docs.sort_by_key(|d| d.get("results").is_some());
    let [ack, reply] = docs;
    assert_eq!(obj_bool(&ack, "cancelled"), Some(true), "{ack:?}");
    assert_eq!(req_id(&reply), Some(2));
    let results = reply.get("results").and_then(Json::as_arr).unwrap();
    assert_eq!(
        error_code(results.last().unwrap()).as_deref(),
        Some("cancelled"),
        "{reply:?}"
    );
    // Half the batch's sequential work: a batch that ran to its end
    // before honouring the cancel would take about twice this.
    assert!(
        answered_in < one_solve * 8,
        "request 2 ran past its cancel: {answered_in:?} against {one_solve:?} a problem"
    );
    assert_eq!(metric(&mut probe, "inline"), 1.0);
    assert_eq!(metric(&mut probe, "cancelled"), 1.0);
    // Request 1 is not needed any more either; it may have finished.
    a.send(r#"{"op":"cancel","id":1}"#).unwrap();
    let replies = [a.recv().unwrap().unwrap(), a.recv().unwrap().unwrap()];
    let first = replies.iter().find(|d| d.get("cancelled").is_none());
    assert_eq!(req_id(first.unwrap()), Some(1));
    let stopped = error_code(first.unwrap()).as_deref() == Some("cancelled");
    assert_eq!(metric(&mut probe, "inflight"), 0.0);
    assert_eq!(metric(&mut probe, "cancelled"), 1.0 + f64::from(stopped));
}

/// On a daemon that records traces, an untraced request solved on its job
/// thread harvests its trace from its own runtime, not the pool's: the
/// traced request in flight beside it still carries every one of its
/// tasks.
#[test]
fn a_job_thread_solve_leaves_the_pool_traces_alone() {
    let cfg = ServerConfig {
        threads: 2,
        max_inflight: 8,
        trace_requests: true,
        ..ServerConfig::default()
    };
    let opts = DcOptions {
        threads: cfg.threads,
        mode: vector_work_mode(LONG_N),
        ..DcOptions::default()
    };
    let server = Server::start(cfg).expect("bind loopback");
    let (mut a, mut b) = (
        Client::connect(server.addr()).unwrap(),
        Client::connect(server.addr()).unwrap(),
    );
    occupy_the_pool(&mut a, &mut b, LONG_N, r#","trace":true"#);
    let doc = b.call(&solve_line(2, 4, 64, 1, "")).unwrap();
    assert_eq!(obj_bool(&doc, "ok"), Some(true), "{doc:?}");
    assert!(doc.get("trace").is_none());
    assert_eq!(metric(&mut b, "inline"), 1.0);
    let doc = a.recv().unwrap().expect("request 1's reply");
    assert_eq!(obj_bool(&doc, "ok"), Some(true), "{doc:?}");
    let t = MatrixType::Type4.generate(LONG_N, 1);
    let (_, _, trace, _) = TaskFlowDc::new(opts).solve_observed(&t).unwrap();
    assert_eq!(traced_task_ids(&doc).len(), trace.records.len());
    assert_eq!(metric(&mut b, "vectorless"), 1.0);
}

/// A busy daemon still hands the pool a request with a problem above the
/// inline limit, and a high-priority request: the first would take up to
/// twice as long on one thread, the second asks for every worker ahead of
/// normal work.
#[test]
fn a_busy_daemon_keeps_large_and_high_priority_requests_on_the_pool() {
    let server = server(2, 8);
    let (mut a, mut b) = (
        Client::connect(server.addr()).unwrap(),
        Client::connect(server.addr()).unwrap(),
    );
    // Two requests must run beside request 1 here, not one: it is given
    // three times the time (≈ 80 ms in a release build) and cancelled
    // once they are answered.
    occupy_the_pool(&mut a, &mut b, 2 * LONG_N, "");
    let large = solve_line(2, 6, INLINE_MAX_N + 1, 2, r#","mode":"values""#);
    let urgent = solve_line(3, 4, 64, 3, r#","priority":"high""#);
    for (id, line) in [(2, large), (3, urgent)] {
        let doc = b.call(&line).unwrap();
        assert_eq!(req_id(&doc), Some(id));
        assert_eq!(obj_bool(&doc, "ok"), Some(true), "{doc:?}");
    }
    // Request 1 is still running, so the daemon was busy throughout.
    assert_eq!(metric(&mut b, "inflight"), 1.0, "request 1 ended early");
    assert_eq!(metric(&mut b, "inline"), 0.0);
    a.send(r#"{"op":"cancel","id":1}"#).unwrap();
    let replies = [a.recv().unwrap().unwrap(), a.recv().unwrap().unwrap()];
    assert!(replies.iter().all(|d| req_id(d) == Some(1)));
    assert_eq!(metric(&mut b, "inflight"), 0.0);
}

/// A request alone in the daemon gets the pool, not its job thread.
#[test]
fn a_lone_request_solves_on_the_pool() {
    let server = server(2, 8);
    let mut cl = Client::connect(server.addr()).unwrap();
    for (id, line) in [
        (1, solve_line(1, 4, 200, 1, "")),
        (
            2,
            r#"{"op":"batch","id":2,"problems":[{"matrix":{"type":4,"n":64}},{"matrix":{"type":6,"n":96},"mode":"values"}]}"#
                .to_string(),
        ),
    ] {
        let doc = cl.call(&line).unwrap();
        assert_eq!(req_id(&doc), Some(id));
        assert_eq!(obj_bool(&doc, "ok"), Some(true), "{doc:?}");
    }
    assert_eq!(metric(&mut cl, "inline"), 0.0);
    assert!(metric(&mut cl, "tasks_executed") > 0.0);
}
