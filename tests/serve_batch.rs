//! Batching oracle: the daemon's fused `batch` verb must be numerically
//! indistinguishable from solving each problem alone.
//!
//! The protocol serializes floats through `jsonv` bit-exactly (a
//! dcst-serve unit test pins that), so the oracle can demand *bit*
//! equality of eigenvalue arrays — not approximate agreement — between
//! a fused batch of k random problems and k solo solves, across both
//! priority classes (normal and high ride different injector lanes, so
//! this also pins scheduling-independence of the results). Eigenvector
//! quality rides along via the server-side `check` gates. The oracle runs
//! twice: checked, where every problem but a `"values"` one computes its
//! eigenvectors, and unchecked, where the daemon computes none.

use dcst::prelude::*;
use dcst::runtime::jsonv::Json;
use dcst::serve::{Client, Server, ServerConfig};
use proptest::prelude::*;

/// One random problem of the oracle's universe.
#[derive(Clone, Debug)]
struct Prob {
    ty: usize,
    n: usize,
    seed: u64,
    values_only: bool,
}

fn arb_prob() -> impl Strategy<Value = Prob> {
    (1usize..=5, 8usize..96, 1u64..1000, 0u64..2).prop_map(|(ty, n, seed, vo)| Prob {
        ty,
        n,
        seed,
        values_only: vo == 1,
    })
}

fn problem_json(p: &Prob) -> String {
    let mode = if p.values_only { "values" } else { "full" };
    format!(
        r#"{{"matrix":{{"type":{},"n":{},"seed":{}}},"mode":"{mode}"}}"#,
        p.ty, p.n, p.seed
    )
}

fn value_bits(result: &Json) -> Vec<u64> {
    result
        .get("values")
        .expect("values")
        .as_arr()
        .expect("array")
        .iter()
        .map(|v| v.as_num().expect("number").to_bits())
        .collect()
}

fn assert_gates(result: &Json, p: &Prob, check: bool) {
    if p.values_only || !check {
        return;
    }
    let gate = 50.0 * p.n as f64 * f64::EPSILON;
    let orth = result.get("orth").expect("orth").as_num().unwrap();
    let res = result.get("residual").expect("residual").as_num().unwrap();
    assert!(
        orth < gate && res < gate,
        "gates failed for {p:?}: orth {orth} res {res}"
    );
}

fn solo_results(cl: &mut Client, probs: &[Prob], priority: &str, check: bool) -> Vec<Json> {
    probs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mode = if p.values_only { "values" } else { "full" };
            let line = format!(
                r#"{{"op":"solve","id":{},"matrix":{{"type":{},"n":{},"seed":{}}},"mode":"{mode}","priority":"{priority}","check":{check}}}"#,
                100 + i,
                p.ty,
                p.n,
                p.seed
            );
            let doc = cl.call(&line).unwrap();
            assert_eq!(
                doc.get("ok").and_then(|o| match o {
                    Json::Bool(b) => Some(*b),
                    _ => None,
                }),
                Some(true),
                "solo solve failed: {doc:?}"
            );
            doc
        })
        .collect()
}

fn batch_results(cl: &mut Client, probs: &[Prob], priority: &str, check: bool) -> Vec<Json> {
    let problems: Vec<String> = probs.iter().map(problem_json).collect();
    let line = format!(
        r#"{{"op":"batch","id":1,"problems":[{}],"priority":"{priority}","check":{check}}}"#,
        problems.join(",")
    );
    let doc = cl.call(&line).unwrap();
    let results = doc
        .get("results")
        .expect("results")
        .as_arr()
        .expect("array")
        .to_vec();
    assert_eq!(results.len(), probs.len());
    for r in &results {
        assert!(
            matches!(r.get("ok"), Some(Json::Bool(true))),
            "batch item failed: {r:?}"
        );
    }
    results
}

/// Solo solves, fused batches at both priorities, then high-priority solos
/// of `probs` on one daemon, all with `"check":check`: every eigenvalue
/// array must equal the first solo's bit for bit, and checked eigenvectors
/// must pass the gates.
fn batch_agrees_with_solo(probs: &[Prob], check: bool) -> Result<(), TestCaseError> {
    let server = Server::start(ServerConfig {
        threads: 2,
        max_inflight: 8,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut cl = Client::connect(server.addr()).unwrap();
    let solo = solo_results(&mut cl, probs, "normal", check);
    let oracle: Vec<Vec<u64>> = solo.iter().map(value_bits).collect();
    for (doc, p) in solo.iter().zip(probs) {
        assert_gates(doc, p, check);
    }
    for priority in ["normal", "high"] {
        let batch = batch_results(&mut cl, probs, priority, check);
        for ((r, bits), p) in batch.iter().zip(&oracle).zip(probs) {
            prop_assert_eq!(
                &value_bits(r),
                bits,
                "batch[{}] diverged from solo",
                priority
            );
            assert_gates(r, p, check);
        }
    }
    let solo_high = solo_results(&mut cl, probs, "high", check);
    for (doc, bits) in solo_high.iter().zip(&oracle) {
        prop_assert_eq!(&value_bits(doc), bits, "high-priority solo diverged");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Fused batches of random problems return bit-identical eigenvalues
    /// and gate-passing eigenvectors vs solo solves, in every
    /// priority-class ordering (solo-normal, solo-high, batch-normal,
    /// batch-high).
    #[test]
    fn fused_batch_is_bit_identical_to_solo(probs in proptest::collection::vec(arb_prob(), 1..4)) {
        batch_agrees_with_solo(&probs, true)?;
    }

    /// The same oracle without `check`: no reply carries vectors, so the
    /// daemon solves every problem, solo or batched, without them, and the
    /// four orderings still agree bit for bit.
    #[test]
    fn unchecked_batch_is_bit_identical_to_solo(probs in proptest::collection::vec(arb_prob(), 1..4)) {
        batch_agrees_with_solo(&probs, false)?;
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// The `metrics` verb's field `key`.
fn metric(cl: &mut Client, key: &str) -> f64 {
    let doc = cl.call(r#"{"op":"metrics"}"#).unwrap();
    let m = doc.get("metrics").expect("metrics object");
    m.get(key).and_then(Json::as_num).expect(key)
}

/// Pin the protocol results to the in-process library solver: the values
/// and vectors crossing the wire are the very f64s `TaskFlowDc` produced
/// with default options on as many threads as the daemon's pool, in the
/// mode the daemon solves each reply in. A `"full"` reply without vectors
/// or a check is the values-only solve's, and is counted `vectorless`; a
/// reply with vectors or a check is the solve of the mode as sent.
#[test]
fn server_values_are_bitwise_the_library_values() {
    let server = Server::start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let t = MatrixType::from_index(4).unwrap().generate(80, 42);
    let library = |mode| {
        let opts = DcOptions {
            threads: 2,
            mode,
            ..DcOptions::default()
        };
        TaskFlowDc::new(opts).solve(&t).unwrap()
    };
    let mut cl = Client::connect(server.addr()).unwrap();
    let mut solve = |id: u64, extra: &str| {
        let doc = cl
            .call(&format!(
                r#"{{"op":"solve","id":{id},"matrix":{{"type":4,"n":80,"seed":42}}{extra}}}"#
            ))
            .unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{extra}: {doc:?}");
        doc
    };
    let k = |doc: &Json| doc.get("k").and_then(Json::as_num).expect("k") as usize;

    let values_only = library(SolveMode::ValuesOnly);
    for (id, extra) in [(1, ""), (2, r#","mode":"full""#)] {
        let doc = solve(id, extra);
        assert_eq!(value_bits(&doc), bits(&values_only.values), "{extra}");
        assert_eq!(k(&doc), 80, "{extra}");
        assert!(doc.get("vectors").is_none(), "{extra}");
    }
    let full = library(SolveMode::Full);
    let doc = solve(3, r#","check":true"#);
    assert_eq!(value_bits(&doc), bits(&full.values), "check");
    assert!(doc.get("orth").is_some() && doc.get("vectors").is_none());
    for (id, wire_mode, mode) in [
        (4, r#""full""#, SolveMode::Full),
        (
            5,
            r#"{"subset":[10,29]}"#,
            SolveMode::Subset { il: 10, iu: 29 },
        ),
    ] {
        let doc = solve(id, &format!(r#","mode":{wire_mode},"vectors":true"#));
        let eig = library(mode);
        assert_eq!(value_bits(&doc), bits(&eig.values), "{wire_mode}");
        assert_eq!(k(&doc), eig.values.len(), "{wire_mode}");
        let wire: Vec<u64> = doc
            .get("vectors")
            .and_then(Json::as_arr)
            .expect("vectors array")
            .iter()
            .map(|v| v.as_num().expect("number").to_bits())
            .collect();
        assert_eq!(wire.len(), 80 * eig.values.len(), "{wire_mode}");
        assert_eq!(wire, bits(eig.vectors.as_slice()), "{wire_mode}");
    }
    // Requests 1 and 2 ran without eigenvectors; 3–5 computed theirs.
    assert_eq!(metric(&mut cl, "vectorless"), 2.0);
}
