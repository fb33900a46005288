//! Root-merge replay: the top merge of the D&C tree re-executed by the
//! harness through public functions only, one span per call into a layer.
//!
//! `T` is scaled, torn at `n/2` (Cuppen's rank-one tear), both halves are
//! solved with `SequentialDc`, and the merge runs as the solver's own
//! drivers run it: `deflate` → `solve_secular_root` × k →
//! `local_w_products` and `reduce_w` → `assemble_vectors` → the two update
//! products through `gemm` and again through `gemm_par`. The glue between
//! those calls (embedding the halves, Givens rotations, slot permutation,
//! copy-back, final sort) is the harness's own code and stays in the parent
//! span's self time — the replay's unexplained residue. The replayed
//! eigenvalues must match the solver's, or the run fails.

use crate::spans::Spans;
use dcst_core::{DcError, DcOptions, SequentialDc, TridiagEigensolver};
use dcst_matrix::{gemm, gemm_par, merge_perm};
use dcst_secular::{
    assemble_vectors, deflate, local_w_products, reduce_w, solve_secular_root, DeflationInput,
    SlotType,
};
use dcst_tridiag::SymTridiag;

/// What the replay measured. Times in ms; rates are 0 when the step did
/// no work (a fully deflated merge has no roots and no update product).
#[derive(Clone, Debug, Default)]
pub struct Replay {
    /// Eigenvalues of `T` as the replay computes them, ascending.
    pub values: Vec<f64>,
    /// Secular problem size of the root merge.
    pub k: usize,
    pub deflate_ms: f64,
    pub roots_ns_per_root: f64,
    pub local_w_ms: f64,
    pub assemble_ms: f64,
    pub gemm_gflops_1t: f64,
    pub gemm_gflops_par: f64,
    /// Self time of the `replay` span over its duration.
    pub residue_frac: f64,
}

#[derive(Debug)]
pub enum ReplayError {
    Child(DcError),
    Secular(dcst_secular::SecularError),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Child(e) => write!(f, "replay child solve failed: {e}"),
            ReplayError::Secular(e) => write!(f, "replay secular root failed: {e}"),
        }
    }
}

/// Replay the root merge of `t`. With `with_vectors` false (values-only
/// workloads, whose solves never assemble or multiply) the replay stops
/// after the Gu–Eisenstat products.
pub fn replay(
    t: &SymTridiag,
    threads: usize,
    with_vectors: bool,
    spans: &mut Spans,
) -> Result<Replay, ReplayError> {
    let n = t.n();
    let mut out = Replay::default();
    if n < 2 {
        out.values = t.d.clone();
        return Ok(out);
    }
    let parent = spans.enter("replay");

    // Scale to unit max-norm and tear at n1 (dlaed0 style).
    let orgnrm = t.max_norm();
    let scale = if orgnrm > 0.0 { 1.0 / orgnrm } else { 1.0 };
    let mut d: Vec<f64> = t.d.iter().map(|x| x * scale).collect();
    let e: Vec<f64> = t.e.iter().map(|x| x * scale).collect();
    let n1 = n / 2;
    let n2 = n - n1;
    let beta = e[n1 - 1];
    d[n1 - 1] -= beta.abs();
    d[n1] -= beta.abs();

    let seq = SequentialDc::new(DcOptions {
        threads: 1,
        ..DcOptions::default()
    });
    let halves = [
        SymTridiag::new(d[..n1].to_vec(), e[..n1 - 1].to_vec()),
        SymTridiag::new(d[n1..].to_vec(), e[n1..].to_vec()),
    ];
    let mut children = Vec::with_capacity(2);
    for half in &halves {
        let (res, _) = spans.time("core.child_solve", || seq.solve(half));
        children.push(res.map_err(ReplayError::Child)?);
    }

    // Embed the children as diag(V1, V2); their eigenvalues are ascending,
    // so each child's sorting permutation is the identity.
    let mut v = vec![0.0f64; n * n];
    for j in 0..n1 {
        v[j * n..j * n + n1].copy_from_slice(children[0].vectors.col(j));
    }
    for j in 0..n2 {
        v[(n1 + j) * n + n1..(n1 + j + 1) * n].copy_from_slice(children[1].vectors.col(j));
    }
    let dd: Vec<f64> = children[0]
        .values
        .iter()
        .chain(&children[1].values)
        .copied()
        .collect();
    drop(children);
    // z: last row of V1 and first row of V2, scaled to unit norm.
    let s = std::f64::consts::FRAC_1_SQRT_2;
    let z: Vec<f64> = (0..n)
        .map(|j| s * v[j * n + if j < n1 { n1 - 1 } else { n1 }])
        .collect();
    let idxq: Vec<usize> = (0..n).collect();

    let (defl, id) = spans.time("secular.deflate", || {
        deflate(&DeflationInput {
            d: &dd,
            z: &z,
            beta,
            n1,
            idxq: &idxq,
        })
    });
    out.deflate_ms = spans.dur_ms(id);
    let k = defl.k;
    out.k = k;

    // Givens rotations on the physical columns (drot convention), then
    // gather the columns into slot order.
    for r in &defl.givens {
        for i in 0..n {
            let (a, b) = (v[r.col_a * n + i], v[r.col_b * n + i]);
            v[r.col_a * n + i] = r.c * a + r.s * b;
            v[r.col_b * n + i] = -r.s * a + r.c * b;
        }
    }
    let mut ws = vec![0.0f64; n * n];
    for slot in 0..n {
        let (r0, r1) = match defl.slot_type[slot] {
            SlotType::Top => (0, n1),
            SlotType::Bottom => (n1, n),
            SlotType::Full | SlotType::Deflated => (0, n),
        };
        let src = defl.perm[slot];
        ws[slot * n + r0..slot * n + r1].copy_from_slice(&v[src * n + r0..src * n + r1]);
    }

    let mut lam = vec![0.0f64; k];
    if k > 0 {
        let mut x = vec![0.0f64; k * k];
        let (res, id) = spans.time("secular.roots", || {
            for (j, col) in x.chunks_exact_mut(k).enumerate() {
                lam[j] = solve_secular_root(j, &defl.dlamda, &defl.w, defl.rho, col)?;
            }
            Ok(())
        });
        res.map_err(ReplayError::Secular)?;
        out.roots_ns_per_root = spans.dur_ms(id) * 1e6 / k as f64;

        let (zhat, id) = spans.time("secular.local_w", || {
            let partial = local_w_products(&defl.dlamda, &x, k, 0, 0..k);
            reduce_w(&defl.w, &[partial])
        });
        out.local_w_ms = spans.dur_ms(id);

        if with_vectors {
            let (_, id) = spans.time("secular.assemble", || {
                assemble_vectors(&zhat, &mut x, k, 0, 0..k, &defl.sec_to_slot)
            });
            out.assemble_ms = spans.dur_ms(id);

            // The update: top rows from [Top | Full] slots, bottom rows
            // from [Full | Bottom] slots, once single-threaded and once
            // through the parallel GEMM.
            let [c1, c2, c3, _] = defl.ctot;
            let flops = 2.0 * (n1 * k * (c1 + c2) + n2 * k * (c2 + c3)) as f64;
            let update = |par: bool, out_v: &mut [f64]| {
                let product =
                    |m, kk, a: &[f64], b: &[f64], c: &mut [f64]| match (par, m > 0 && kk > 0) {
                        (_, false) => (),
                        (true, _) => gemm_par(threads, m, k, kk, 1.0, a, n, b, k, 0.0, c, n),
                        (false, _) => gemm(m, k, kk, 1.0, a, n, b, k, 0.0, c, n),
                    };
                product(n1, c1 + c2, &ws, &x, out_v);
                product(n2, c2 + c3, &ws[c1 * n + n1..], &x[c1..], &mut out_v[n1..]);
            };
            let (_, id) = spans.time("matrix.gemm_1t", || update(false, &mut v));
            out.gemm_gflops_1t = rate(flops, spans.dur_ms(id));
            let (_, id) = spans.time("matrix.gemm_par", || update(true, &mut v));
            out.gemm_gflops_par = rate(flops, spans.dur_ms(id));
        }
    }
    if with_vectors && k < n {
        v[k * n..].copy_from_slice(&ws[k * n..]);
    }

    // New diagonal: secular roots then deflated values; merge the two
    // ascending runs and scale back.
    let merged: Vec<f64> = lam.iter().chain(&defl.d_deflated).copied().collect();
    out.values = merge_perm(&merged, k)
        .into_iter()
        .map(|i| merged[i] * orgnrm)
        .collect();

    spans.exit(parent);
    out.residue_frac = spans.self_time_us(parent) / spans.get(parent).dur_us();
    Ok(out)
}

fn rate(flops: f64, ms: f64) -> f64 {
    if flops == 0.0 || ms <= 0.0 {
        0.0
    } else {
        flops / (ms * 1e-3) / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcst_tridiag::gen::MatrixType;

    fn reference(t: &SymTridiag) -> Vec<f64> {
        SequentialDc::new(DcOptions {
            threads: 1,
            ..DcOptions::default()
        })
        .solve(t)
        .unwrap()
        .values
    }

    #[test]
    fn replay_reproduces_the_solver_eigenvalues() {
        // Low deflation (4), full deflation (2), random (6), Toeplitz (10).
        for ty in [4usize, 2, 6, 10] {
            let t = MatrixType::from_index(ty).unwrap().generate(150, 7);
            let mut spans = Spans::new("test");
            let r = replay(&t, 2, true, &mut spans).unwrap();
            let diff = crate::check::max_abs_diff(&r.values, &reference(&t));
            assert!(
                diff <= crate::check::value_tol(&t),
                "type {ty}: off by {diff:e}"
            );
            assert!(r.residue_frac >= 0.0 && r.residue_frac <= 1.0);
            if ty == 4 {
                assert!(r.k > 100 && r.gemm_gflops_1t > 0.0 && r.gemm_gflops_par > 0.0);
            }
        }
    }

    #[test]
    fn values_only_replay_skips_the_vector_steps() {
        let t = MatrixType::from_index(6).unwrap().generate(120, 3);
        let mut spans = Spans::new("test");
        let r = replay(&t, 2, false, &mut spans).unwrap();
        assert!(
            crate::check::max_abs_diff(&r.values, &reference(&t)) <= crate::check::value_tol(&t)
        );
        assert_eq!((r.assemble_ms, r.gemm_gflops_1t), (0.0, 0.0));
        assert!(r.roots_ns_per_root > 0.0);
        assert!(spans.all().iter().all(|s| s.name != "matrix.gemm_1t"));
    }
}
