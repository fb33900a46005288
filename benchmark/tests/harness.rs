//! The benchmark's own test: the same workload, replay and span code the
//! real runs use, at toy scale (n = 128, 2 rounds, 20 requests), plus the
//! `BENCHMARK.json` contract and the command line.

use dcst_benchmark::provenance::Provenance;
use dcst_benchmark::report::RunRecord;
use dcst_benchmark::spans::Spans;
use dcst_benchmark::{report, run_workload, serve_mix, solver, Passes, Scale, Spec};
use dcst_runtime::jsonv::{self, Json};
use std::process::Command;
use std::sync::{Mutex, MutexGuard};

#[global_allocator]
static ALLOC: dcst_benchmark::alloc::CountingAlloc = dcst_benchmark::alloc::CountingAlloc;

fn name_ok(s: &str, max: usize) -> bool {
    !s.is_empty()
        && s.len() <= max
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The kernel counters and the allocation meter are process-wide, so
/// tests that run a workload take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn turn() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn toy(workload: &str) -> (RunRecord, Spans) {
    let _turn = turn();
    run_workload(workload, 11, &Scale::toy(), Passes::Both)
        .unwrap_or_else(|e| panic!("{workload}: {e}"))
}

/// The result line parses, has exactly the contract's keys, and carries
/// every metric of the section with the unit `BENCHMARK.json` gives it.
fn assert_result_line(record: &RunRecord, spec: &Spec, passes: Passes) {
    let line = record.result_line(spec, passes);
    let doc = jsonv::parse(&line).expect("result line is valid JSON");
    let Json::Obj(members) = &doc else {
        panic!("result line is not an object")
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    assert!(doc.get("attempted").unwrap().as_num().unwrap() >= 1.0);
    let defs = if passes == Passes::Layers {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("metrics is not an object")
    };
    assert_eq!(metrics.len(), defs.len());
    for def in defs {
        let m = doc
            .get("metrics")
            .unwrap()
            .get(&def.name)
            .unwrap_or_else(|| panic!("{} missing from the result line", def.name));
        assert_eq!(m.get("unit").unwrap().as_str(), Some(def.unit.as_str()));
        assert!(m.get("value").unwrap().as_num().unwrap().is_finite());
    }
}

#[test]
fn every_workload_reports_every_metric_and_checks_pass() {
    let spec = Spec::embedded();
    for (workload, _) in &spec.workloads {
        let (record, _) = toy(workload);
        assert_eq!(
            (record.failed, &record.failures),
            (0, &vec![]),
            "{workload} failed its own checks"
        );
        record.validate(&spec, Passes::Both).unwrap();
        assert_result_line(&record, &spec, Passes::EndToEnd);
        assert_result_line(&record, &spec, Passes::Layers);
        // The human table prints every metric by name with its unit.
        let human = record.human(&spec);
        for def in spec.end_to_end.iter().chain(&spec.per_layer) {
            let row = human
                .lines()
                .find(|l| l.split_whitespace().next() == Some(def.name.as_str()))
                .unwrap_or_else(|| panic!("{workload}: {} not printed", def.name));
            assert_eq!(row.split_whitespace().nth(2), Some(def.unit.as_str()));
        }
        // End-to-end metrics are never zero.
        for m in &record.end_to_end {
            assert!(m.value > 0.0, "{workload}: {} = {}", m.name, m.value);
        }
        // The record line round-trips through the reader compare uses.
        let line = record.to_json(&spec, &Provenance::collect());
        let back = report::read_records(&line).unwrap();
        assert_eq!(&back[0].workload, workload);
        assert_eq!(back[0].end_to_end.len(), spec.end_to_end.len());
    }
}

#[test]
fn the_workloads_discriminate_even_at_toy_scale() {
    let value = |r: &RunRecord, name: &str| {
        r.per_layer
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .value
    };
    let (dense, _) = toy("dense_t4_n2000");
    assert!(value(&dense, "matrix.gemm_flops") > 0.0);
    assert!(value(&dense, "secular.k_root") > 100.0);
    assert_eq!(value(&dense, "serve.accepted"), 0.0);
    let (deflate, _) = toy("deflate_t2_n4000");
    assert!(value(&deflate, "secular.deflation_ratio") > 0.9);
    assert!(value(&deflate, "matrix.gemm_flops") < 0.01 * value(&dense, "matrix.gemm_flops"));
    let (values, _) = toy("values_t6_n4000");
    assert_eq!(value(&values, "matrix.gemm_flops"), 0.0);
    assert!(value(&values, "core.row_update_busy_ms") > 0.0);
    assert_eq!(value(&values, "matrix.update_busy_ms"), 0.0);
    let (serve, _) = toy("serve_mix");
    // 2 clients × 20 requests, all admitted, none shed.
    assert_eq!(value(&serve, "serve.accepted"), 40.0);
    assert_eq!(value(&serve, "serve.completed"), 40.0);
    assert_eq!(value(&serve, "serve.shed"), 0.0);
    assert!(value(&serve, "serve.class_p50_ms.subset_mrrr") > 0.0);
    assert!(value(&serve, "qriter.leaf_busy_ms") > 0.0);
}

#[test]
fn spans_nest_and_the_chrome_trace_parses() {
    for workload in ["dense_t4_n2000", "serve_mix"] {
        let (_, spans) = toy(workload);
        let all = spans.all();
        assert!(all.iter().any(|s| s.name == "replay"));
        assert!(all.iter().any(|s| s.name == "secular.roots"));
        // Task records of a traced solve hang under a harness span.
        assert!(all.iter().any(|s| s.lane > 0 && s.name == "STEDC"));
        for s in all {
            assert!(s.end_us >= s.start_us, "{} ends before it starts", s.name);
            if let Some(p) = s.parent {
                let p = &all[p];
                assert!(
                    s.start_us >= p.start_us && s.end_us <= p.end_us,
                    "{} [{}, {}] escapes its parent {} [{}, {}]",
                    s.name,
                    s.start_us,
                    s.end_us,
                    p.name,
                    p.start_us,
                    p.end_us
                );
            }
        }
        let doc = jsonv::parse(&spans.to_chrome_json()).expect("chrome trace is valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let complete = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"));
        assert_eq!(complete.count(), all.len());
        assert!(events
            .iter()
            .all(|e| e.get("cat").is_none_or(|c| c.as_str() == Some(workload))));
    }
}

#[test]
fn a_corrupted_output_is_counted_as_failed() {
    let _turn = turn();
    let scale = Scale::toy();
    // A wrong eigenvector (full mode) and a wrong eigenvalue (values mode).
    for w in &solver::SOLVER_WORKLOADS {
        let mut spans = Spans::new(w.name);
        let record = solver::run(w, 5, &scale, Passes::EndToEnd, true, &mut spans).unwrap();
        assert!(record.failed > 0 && !record.correct(), "{}", w.name);
        assert!(record.failed_frac() > 0.0);
        let line = record.result_line(&Spec::embedded(), Passes::EndToEnd);
        let doc = jsonv::parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
    }
    // A wrong eigenvalue in a daemon response.
    let mut spans = Spans::new("serve_mix");
    let record = serve_mix::run(5, &scale, Passes::EndToEnd, true, &mut spans).unwrap();
    assert!(record.failed > 0 && record.failed_frac() > 0.0);
    assert!(record.failures[0].contains("differs from SequentialDc"));
}

#[test]
fn the_request_mix_is_the_same_multiset_for_every_seed() {
    let scale = Scale::for_seconds(20, 20);
    let kinds = |seed: u64| {
        let mut k: Vec<(usize, usize, &str)> = serve_mix::sequence(&scale, seed, 0, 1)
            .iter()
            .map(|r| (r.n, r.ty, r.class.name()))
            .collect();
        k.sort_unstable();
        k
    };
    let (a, b) = (kinds(1), kinds(2));
    assert_eq!(a.len(), 320);
    assert_eq!(a, b);
    // 60 % full, 20 % values, 10 % subset, 5 % MRRR subset, 5 % batch.
    let share = |class: &str| a.iter().filter(|k| k.2 == class).count();
    assert_eq!(
        [
            share("full"),
            share("values"),
            share("subset"),
            share("subset_mrrr"),
            share("batch")
        ],
        [192, 64, 32, 16, 16]
    );
    // Different seeds order the deck differently; the same seed does not.
    let order = |seed| -> Vec<String> {
        serve_mix::sequence(&scale, seed, 0, 1)
            .iter()
            .map(|r| r.line(0))
            .collect()
    };
    assert_ne!(order(1), order(2));
    assert_eq!(order(1), order(1));
    // Every line is one the daemon's parser accepts.
    for line in order(3) {
        assert!(
            dcst_serve::protocol::parse_request(&line).1.is_ok(),
            "{line}"
        );
    }
}

#[test]
fn benchmark_json_meets_the_contract() {
    let text = dcst_benchmark::BENCHMARK_JSON;
    assert!(text.len() <= 64 * 1024);
    let doc = jsonv::parse(text).unwrap();
    let Json::Obj(members) = &doc else { panic!() };
    let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let strings = |key: &str| -> Vec<String> {
        doc.get(key)
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap().to_string())
            .collect()
    };
    let command = strings("command");
    assert!(command.len() <= 32 && command.iter().all(|s| s.len() <= 200));
    assert!(command
        .iter()
        .all(|s| !s.starts_with('/') && !s.contains("..")));
    assert_eq!(strings("paths"), ["benchmark"]);
    // The command names no repository path outside `paths`.
    assert!(command
        .iter()
        .filter(|s| s.contains('/'))
        .all(|s| s.starts_with("benchmark/")));

    let spec = Spec::embedded();
    assert!((1..=60).contains(&spec.run_seconds));
    assert!((2..=8).contains(&spec.workloads.len()));
    assert!((1..=16).contains(&spec.end_to_end.len()));
    assert!((1..=128).contains(&spec.per_layer.len()));
    let mut seen = std::collections::BTreeSet::new();
    for (name, why) in &spec.workloads {
        assert!(name_ok(name, 64), "{name}");
        assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why");
        assert!(seen.insert(name.clone()), "{name} used twice");
    }
    for m in spec.end_to_end.iter().chain(&spec.per_layer) {
        assert!(name_ok(&m.name, 64), "{}", m.name);
        assert!(seen.insert(m.name.clone()), "{} used twice", m.name);
        assert!(
            !m.unit.is_empty()
                && m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{}: unit {}",
            m.name,
            m.unit
        );
    }
    for m in &spec.end_to_end {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
    }
    let setup = spec
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .unwrap();
    assert_eq!(
        (setup.unit.as_str(), setup.better),
        ("s", dcst_benchmark::Better::Lower)
    );
    let widest = spec
        .end_to_end
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(widest), "setup_s takes the largest bound");
}

fn bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_dcst-bench"))
        .args(args)
        .output()
        .expect("run dcst-bench")
}

#[test]
fn command_line_usage_errors_exit_2() {
    for args in [
        &[][..],
        &["frobnicate"],
        &["run", "--seed", "1"],
        &["run", "--workload", "dense_t4_n2000"],
        &["run", "--workload", "nope", "--seed", "1"],
        &["run", "--workload", "serve_mix", "--seed", "x"],
        &[
            "run",
            "--workload",
            "serve_mix",
            "--seed",
            "1",
            "--trace",
            "2",
        ],
        &["run", "--workload", "serve_mix", "--seed"],
        &["compare", "only-one"],
    ] {
        // A debug build refuses `run` with the same code before parsing.
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn run_refuses_a_debug_build_and_measures_a_release_one() {
    let out = bench(&[
        "run",
        "--workload",
        "values_t6_n4000",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    if cfg!(debug_assertions) {
        assert_eq!(out.status.code(), Some(2));
        assert!(String::from_utf8_lossy(&out.stderr).contains("debug assertions"));
        return;
    }
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("# dcst-bench run  rev="));
    let doc = jsonv::parse(stdout.lines().last().unwrap()).expect("last line is the result");
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    assert!(doc.get("metrics").unwrap().get("setup_s").is_some());
}

#[test]
fn compare_reads_record_files_and_exits_1_on_worse() {
    let spec = Spec::embedded();
    let prov = Provenance::collect();
    let (record, _) = toy("dense_t4_n2000");
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("compare");
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, scale_latency: f64| {
        let mut r = record.clone();
        for m in &mut r.end_to_end {
            if m.name.ends_with("_ms") {
                m.value *= scale_latency;
                m.spread = None;
            }
        }
        let path = dir.join(name);
        std::fs::write(&path, format!("{}\n", r.to_json(&spec, &prov))).unwrap();
        path.to_str().unwrap().to_string()
    };
    let (a, same, slow) = (
        write("a.jsonl", 1.0),
        write("same.jsonl", 1.0),
        write("slow.jsonl", 2.0),
    );
    let ok = bench(&["compare", &a, &same]);
    assert_eq!(ok.status.code(), Some(0));
    let table = String::from_utf8(ok.stdout).unwrap();
    assert!(
        table.contains("op_p50_ms") && table.contains("within") && table.contains("failed_frac")
    );
    let bad = bench(&["compare", &a, &slow]);
    assert_eq!(bad.status.code(), Some(1));
    assert!(String::from_utf8(bad.stdout).unwrap().contains("worse"));
    assert_eq!(
        bench(&["compare", &a, "/nonexistent/b.jsonl"])
            .status
            .code(),
        Some(1)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
