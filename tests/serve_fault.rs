//! Fault injection under service load: kernel failpoint sites firing
//! inside the daemon's shared runtime while several requests are in flight.
//!
//! The property being proven is the service-layer half of the failure
//! model: a kernel fault is attributed to exactly the request whose task
//! faulted (typed `numerical` error), every other in-flight request
//! completes with gate-passing results, the pool stays usable afterwards,
//! and the admission gauge returns to zero.

use dcst::matrix::failpoints::{self as fp, Site, Trigger};
use dcst::runtime::jsonv::Json;
use dcst::serve::{Client, Server, ServerConfig};

fn solve_line(id: u64, n: usize) -> String {
    format!(r#"{{"op":"solve","id":{id},"matrix":{{"type":4,"n":{n},"seed":{id}}},"check":true}}"#)
}

fn error_code(doc: &Json) -> Option<String> {
    doc.get("error")?.get("code")?.as_str().map(str::to_string)
}

fn is_ok(doc: &Json) -> bool {
    matches!(doc.get("ok"), Some(Json::Bool(true)))
}

fn assert_gates(doc: &Json, n: usize) {
    let gate = 50.0 * n as f64 * f64::EPSILON;
    let orth = doc.get("orth").unwrap().as_num().unwrap();
    let res = doc.get("residual").unwrap().as_num().unwrap();
    assert!(orth < gate && res < gate, "orth {orth} res {res}");
}

fn drain(cl: &mut Client, count: usize) -> Vec<(u64, Json)> {
    (0..count)
        .map(|_| {
            let doc = cl.recv().unwrap().expect("response");
            let id = doc.get("id").unwrap().as_num().unwrap() as u64;
            (id, doc)
        })
        .collect()
}

/// Arm one kernel site to fire exactly once while M = 4 solves are in
/// flight: exactly one request fails typed, the rest pass their gates,
/// and the daemon keeps serving.
#[test]
fn one_armed_site_fails_exactly_one_of_many() {
    for site in [Site::Steqr, Site::Laed4] {
        let armed = fp::exclusive(site, Trigger::AtHit(1));
        let server = Server::start(ServerConfig {
            threads: 2,
            max_inflight: 8,
            ..ServerConfig::default()
        })
        .unwrap();
        let mut cl = Client::connect(server.addr()).unwrap();
        let ns: Vec<(u64, usize)> = (0..4).map(|i| (i, 64 + 8 * i as usize)).collect();
        for (id, n) in &ns {
            cl.send(&solve_line(*id, *n)).unwrap();
        }
        let responses = drain(&mut cl, ns.len());
        let failed: Vec<&(u64, Json)> = responses.iter().filter(|(_, d)| !is_ok(d)).collect();
        assert_eq!(
            failed.len(),
            1,
            "site {site:?}: exactly one request must fail, got {responses:?}"
        );
        assert_eq!(
            error_code(&failed[0].1).as_deref(),
            Some("numerical"),
            "site {site:?}: fault must surface as a typed numerical error"
        );
        assert_eq!(
            fp::fired(site),
            1,
            "site {site:?} must have fired exactly once"
        );
        for (id, doc) in &responses {
            if is_ok(doc) {
                let n = ns.iter().find(|(i, _)| i == id).unwrap().1;
                assert_gates(doc, n);
            }
        }
        drop(armed);
        // The pool survived the fault: a fresh request on the same shared
        // runtime completes, and the admission gauge is back to zero.
        // (Quiet, so the other test's armed site cannot land in it.)
        let _quiet = fp::quiet();
        let doc = cl.call(&solve_line(100, 56)).unwrap();
        assert!(is_ok(&doc), "pool unusable after fault: {doc:?}");
        assert_gates(&doc, 56);
        let doc = cl.call(r#"{"op":"metrics"}"#).unwrap();
        let m = doc.get("metrics").unwrap();
        assert_eq!(m.get("inflight").unwrap().as_num().unwrap(), 0.0);
    }
}

/// The same attribution property through the fused batch path: one item
/// of a batch fails typed, its siblings complete gate-passing, and the
/// batch envelope itself stays `ok`.
#[test]
fn batch_isolates_an_injected_item_fault() {
    let armed = fp::exclusive(Site::Steqr, Trigger::AtHit(1));
    let server = Server::start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut cl = Client::connect(server.addr()).unwrap();
    let ns = [64usize, 72, 80];
    let problems: Vec<String> = ns
        .iter()
        .map(|n| format!(r#"{{"matrix":{{"type":4,"n":{n},"seed":7}}}}"#))
        .collect();
    let doc = cl
        .call(&format!(
            r#"{{"op":"batch","id":1,"problems":[{}],"check":true}}"#,
            problems.join(",")
        ))
        .unwrap();
    assert!(is_ok(&doc), "batch envelope must be ok: {doc:?}");
    let results = doc.get("results").unwrap().as_arr().unwrap().to_vec();
    assert_eq!(results.len(), ns.len());
    let failed: Vec<&Json> = results.iter().filter(|r| !is_ok(r)).collect();
    assert_eq!(
        failed.len(),
        1,
        "exactly one batch item must fail: {results:?}"
    );
    assert_eq!(error_code(failed[0]).as_deref(), Some("numerical"));
    for (r, n) in results.iter().zip(&ns) {
        if is_ok(r) {
            assert_gates(r, *n);
        }
    }
    drop(armed);
    let _quiet = fp::quiet();
    let doc = cl.call(&solve_line(2, 48)).unwrap();
    assert!(is_ok(&doc));
}
