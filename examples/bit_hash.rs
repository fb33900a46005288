//! Bit hash of the D&C solvers' output: the probe behind "this change
//! leaves the arithmetic alone".
//!
//! ```text
//! cargo run --release --example bit_hash > h.txt
//! ```
//!
//! One line per `MatrixType::ALL` × n ∈ {200, 777} × {full, subset, values,
//! fallback} (seed 3, default options; `subset` is `il: n/4, iu: n/2`, which
//! runs the merge graph, and `fallback` is `il: 0, iu: n/32 − 1`, which the
//! solvers route to MRRR), then one `structured` line per type at n = 777 (a
//! full solve under `UpdatePolicy::ForceStructured`, so every merge from
//! k = 16 up compresses its tiles across the panel tasks and reads Q in
//! place or gathered): eight FNV-1a hashes over `to_bits` of
//! `Eigen::values` then `Eigen::vectors`, one per discipline × `threads` ∈
//! {1, 2}. The eight hashes of a line must be equal — the disciplines are
//! bit-identical — and the process exits 1 if any line's differ. Two
//! commits with the same arithmetic print `cmp`-identical output; run it at
//! the default SIMD level and under `DCST_FORCE_SCALAR=1` (the two levels
//! differ from each other: FMA vs mul+add). The example reads that variable
//! itself (`0` or `1`) and pins the level through `set_simd_level`, as the
//! `dcst` CLI does.

use dcst::prelude::*;

fn fnv1a(eig: &Eigen) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in eig.values.iter().chain(eig.vectors.as_slice()) {
        for byte in x.to_bits().to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

type Solve = fn(DcOptions, &SymTridiag) -> Eigen;

/// The line's eight hashes, printed; whether they disagree.
fn hash_line(label: &str, t: &SymTridiag, mode: SolveMode) -> bool {
    let hashes: Vec<u64> = DISCIPLINES
        .iter()
        .flat_map(|solve| {
            [1, 2].map(|threads| {
                let opts = DcOptions {
                    threads,
                    mode,
                    ..DcOptions::default()
                };
                fnv1a(&solve(opts, t))
            })
        })
        .collect();
    let hex: Vec<String> = hashes.iter().map(|h| format!("{h:016x}")).collect();
    println!("{label} {}", hex.join(" "));
    hashes.iter().any(|&h| h != hashes[0])
}

const DISCIPLINES: [Solve; 4] = [
    |o, t| SequentialDc::new(o).solve(t).unwrap(),
    |o, t| ForkJoinDc::new(o).solve(t).unwrap(),
    |o, t| LevelParallelDc::new(o).solve(t).unwrap(),
    |o, t| TaskFlowDc::new(o).solve(t).unwrap(),
];

fn main() {
    match std::env::var("DCST_FORCE_SCALAR").as_deref() {
        Err(_) | Ok("0") => {}
        Ok("1") => assert!(dcst::matrix::set_simd_level(
            dcst::matrix::SimdLevel::Scalar
        )),
        Ok(v) => {
            eprintln!("bit_hash: DCST_FORCE_SCALAR='{v}': want 0 or 1");
            std::process::exit(2);
        }
    }
    let mut diverged = false;
    for ty in MatrixType::ALL {
        for n in [200usize, 777] {
            let t = ty.generate(n, 3);
            let modes = [
                ("full", SolveMode::Full),
                (
                    "subset",
                    SolveMode::Subset {
                        il: n / 4,
                        iu: n / 2,
                    },
                ),
                ("values", SolveMode::ValuesOnly),
                (
                    "fallback",
                    SolveMode::Subset {
                        il: 0,
                        iu: n / 32 - 1,
                    },
                ),
            ];
            for (label, mode) in modes {
                diverged |= hash_line(&format!("{ty:?} n={n} {label}"), &t, mode);
            }
        }
    }
    dcst::matrix::set_update_policy(dcst::matrix::UpdatePolicy::ForceStructured);
    for ty in MatrixType::ALL {
        let n = 777;
        let t = ty.generate(n, 3);
        diverged |= hash_line(&format!("{ty:?} n={n} structured"), &t, SolveMode::Full);
    }
    if diverged {
        eprintln!("bit_hash: the disciplines disagree on at least one line");
        std::process::exit(1);
    }
}
