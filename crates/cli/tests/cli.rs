//! End-to-end tests of the `dcst` binary.

use std::process::Command;

fn dcst() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dcst"))
}

fn tempfile(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dcst-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn generate_info_solve_pipeline() {
    let path = tempfile("pipeline.txt");
    let out = dcst()
        .args([
            "generate",
            "--type",
            "10",
            "--n",
            "64",
            "--out",
            path.to_str().unwrap(),
        ])
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = dcst()
        .args(["info", "--in", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("n               = 64"), "{text}");
    assert!(text.contains("max-norm        = 2.0"), "{text}");

    let out = dcst()
        .args([
            "solve",
            "--in",
            path.to_str().unwrap(),
            "--check",
            "--threads",
            "2",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let values: Vec<f64> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| l.parse().unwrap())
        .collect();
    assert_eq!(values.len(), 64);
    // (1,2,1) Toeplitz spectrum.
    for (k, &v) in values.iter().enumerate() {
        let want = 2.0 - 2.0 * ((k + 1) as f64 * std::f64::consts::PI / 65.0).cos();
        assert!((v - want).abs() < 1e-12, "{v} vs {want}");
    }
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("orthogonality"), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn solvers_agree_through_the_cli() {
    let path = tempfile("agree.txt");
    dcst()
        .args([
            "generate",
            "--type",
            "6",
            "--n",
            "48",
            "--seed",
            "3",
            "--out",
            path.to_str().unwrap(),
        ])
        .status()
        .unwrap();
    let mut all: Vec<Vec<f64>> = Vec::new();
    for solver in ["taskflow", "seq", "forkjoin", "levelpar", "mrrr", "qr"] {
        let out = dcst()
            .args(["solve", "--in", path.to_str().unwrap(), "--solver", solver])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{solver}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        all.push(
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .map(|l| l.parse().unwrap())
                .collect(),
        );
    }
    for other in &all[1..] {
        assert_eq!(other.len(), all[0].len());
        for (a, b) in all[0].iter().zip(other) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn mrrr_subset_through_the_cli() {
    let path = tempfile("subset.txt");
    dcst()
        .args([
            "generate",
            "--type",
            "4",
            "--n",
            "60",
            "--out",
            path.to_str().unwrap(),
        ])
        .status()
        .unwrap();
    let out = dcst()
        .args([
            "solve",
            "--in",
            path.to_str().unwrap(),
            "--solver",
            "mrrr",
            "--subset",
            "5:9",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let count = String::from_utf8_lossy(&out.stdout).lines().count();
    assert!(
        count >= 5,
        "at least the requested 5 eigenvalues, got {count}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn trace_writes_svg() {
    let svg = tempfile("trace.svg");
    let out = dcst()
        .args([
            "trace",
            "--type",
            "2",
            "--n",
            "128",
            "--svg",
            svg.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = std::fs::read_to_string(&svg).unwrap();
    assert!(body.starts_with("<svg"));
    assert!(body.contains("STEDC"));
    let _ = std::fs::remove_file(&svg);
}

#[test]
fn non_finite_input_is_an_input_error() {
    // NaN parses as a valid f64 token, so this reaches the solvers and must
    // be rejected as bad *input* (exit 1), not a numerical failure (exit 3).
    let path = tempfile("nan-input.txt");
    std::fs::write(&path, "3\n1.0 NaN 2.0\n0.5 0.5\n").unwrap();
    for solver in ["taskflow", "seq", "forkjoin", "levelpar", "mrrr", "qr"] {
        let out = dcst()
            .args(["solve", "--in", path.to_str().unwrap(), "--solver", solver])
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(1),
            "{solver}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn order_zero_input_solves_to_nothing() {
    let path = tempfile("order-zero.txt");
    std::fs::write(&path, "0\n").unwrap();
    for solver in ["taskflow", "seq", "forkjoin", "levelpar", "mrrr", "qr"] {
        for extra in [&[][..], &["--values-only"][..]] {
            let out = dcst()
                .args(["solve", "--in", path.to_str().unwrap(), "--solver", solver])
                .args(extra)
                .output()
                .unwrap();
            assert!(
                out.status.success(),
                "{solver} {extra:?}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(out.stdout.is_empty(), "{solver} {extra:?}: no eigenvalues");
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// A numerical failure (solver gave up on well-formed input) must exit with
/// code 3, distinct from input errors. Genuinely non-convergent inputs are
/// nearly impossible to construct now that the kernels carry rescue paths,
/// so a failpoint stands in: `DCST_FAIL=steqr:1` makes the first leaf
/// solve report `NoConvergence` exactly as a stuck QR iteration would, and
/// `laed4:1` does the same to the first secular root of a values-only solve.
#[test]
fn numerical_failure_is_exit_code_3() {
    let path = tempfile("nonconv.txt");
    dcst()
        .args([
            "generate",
            "--type",
            "4",
            "--n",
            "64",
            "--out",
            path.to_str().unwrap(),
        ])
        .status()
        .unwrap();
    for solver in ["taskflow", "seq", "forkjoin", "levelpar", "qr"] {
        let out = dcst()
            .env("DCST_FAIL", "steqr:1")
            .args(["solve", "--in", path.to_str().unwrap(), "--solver", solver])
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{solver}: {err}");
        assert!(err.contains("converge"), "{solver}: {err}");
    }
    for solver in ["taskflow", "seq"] {
        let out = dcst()
            .env("DCST_FAIL", "laed4:1")
            .args(["solve", "--in", path.to_str().unwrap(), "--values-only"])
            .args(["--solver", solver])
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{solver} --values-only: {err}");
    }
    // Without the env var the same build and input solve cleanly.
    let out = dcst()
        .args(["solve", "--in", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let _ = std::fs::remove_file(&path);
}

/// A malformed `DCST_FAIL` is a usage error reported before any solve
/// starts: exit 2 with the spec named, never a panic on a pool worker.
#[test]
fn bad_failpoint_spec_is_a_usage_error() {
    let path = tempfile("badspec.txt");
    dcst()
        .args(["generate", "--type", "4", "--n", "64"])
        .args(["--out", path.to_str().unwrap()])
        .status()
        .unwrap();
    for spec in ["bogus", "nosuch:1", "steqr:0", "laed4:x"] {
        let out = dcst()
            .env("DCST_FAIL", spec)
            .args(["solve", "--in", path.to_str().unwrap(), "--threads", "2"])
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{spec}: {err}");
        assert!(err.contains(spec), "{spec}: {err}");
        assert!(!err.contains("panicked"), "{spec}: {err}");
    }
    let _ = std::fs::remove_file(&path);
}

const KNOBS: [&str; 3] = [
    "DCST_FORCE_SCALAR",
    "DCST_FORCE_DENSE",
    "DCST_FORCE_STRUCTURED",
];

/// `dcst solve --metrics` on `path` with exactly the given kernel knobs set.
fn solve_with_knobs(path: &std::path::Path, knobs: &[(&str, &str)]) -> std::process::Output {
    let mut cmd = dcst();
    for name in KNOBS {
        cmd.env_remove(name);
    }
    cmd.envs(knobs.iter().copied())
        .args(["solve", "--in", path.to_str().unwrap(), "--threads", "2"])
        .arg("--metrics")
        .output()
        .unwrap()
}

/// The CLI maps each kernel knob onto the library's setters, and
/// `--metrics` shows the level and policy the solve ran under.
#[test]
fn kernel_knobs_show_on_the_metrics_line() {
    let path = tempfile("knobs.txt");
    dcst()
        .args(["generate", "--type", "4", "--n", "256"])
        .args(["--out", path.to_str().unwrap()])
        .status()
        .unwrap();
    let cases: [(&[(&str, &str)], &str); 5] = [
        (&[], "update policy = Auto"),
        (&[("DCST_FORCE_SCALAR", "1")], "simd level = Scalar, "),
        (&[("DCST_FORCE_SCALAR", "0")], "update policy = Auto"),
        (&[("DCST_FORCE_DENSE", "1")], "update policy = ForceDense"),
        (
            &[("DCST_FORCE_STRUCTURED", "1")],
            "update policy = ForceStructured",
        ),
    ];
    for (knobs, want) in cases {
        let out = solve_with_knobs(&path, knobs);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{knobs:?}: {err}");
        let line = err
            .lines()
            .find(|l| l.starts_with("simd level = "))
            .unwrap_or_else(|| panic!("{knobs:?}: no knob line in {err}"));
        assert!(line.contains(want), "{knobs:?}: {line}");
        let structured: u64 = err
            .lines()
            .find_map(|l| l.strip_prefix("update.structured_merges = "))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{knobs:?}: no structured_merges in {err}"));
        // At n = 256 every merge is below the auto threshold, so only the
        // forced policy structures one.
        let forced = knobs.contains(&("DCST_FORCE_STRUCTURED", "1"));
        assert_eq!(structured > 0, forced, "{knobs:?}: {structured} structured");
    }
    let _ = std::fs::remove_file(&path);
}

/// Each knob is `0` or `1`: any other value — `false` included, which
/// once pinned the dense path — and both update knobs at once are usage
/// errors that name the variable.
#[test]
fn malformed_kernel_knobs_exit_2_naming_the_variable() {
    let path = tempfile("badknobs.txt");
    dcst()
        .args(["generate", "--type", "4", "--n", "64"])
        .args(["--out", path.to_str().unwrap()])
        .status()
        .unwrap();
    let cases: [(&[(&str, &str)], &str); 5] = [
        (&[("DCST_FORCE_DENSE", "false")], "DCST_FORCE_DENSE"),
        (&[("DCST_FORCE_SCALAR", "yes")], "DCST_FORCE_SCALAR"),
        (&[("DCST_FORCE_STRUCTURED", "2")], "DCST_FORCE_STRUCTURED"),
        (&[("DCST_FORCE_SCALAR", "")], "DCST_FORCE_SCALAR"),
        (
            &[("DCST_FORCE_DENSE", "1"), ("DCST_FORCE_STRUCTURED", "1")],
            "DCST_FORCE_STRUCTURED",
        ),
    ];
    for (knobs, name) in cases {
        let out = solve_with_knobs(&path, knobs);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{knobs:?}: {err}");
        assert!(err.contains(name), "{knobs:?}: {err}");
        assert!(!err.contains("panicked"), "{knobs:?}: {err}");
    }
    let _ = std::fs::remove_file(&path);
}

/// The acceptance run for the observability layer: a taskflow solve at
/// n = 1024 with `DCST_TRACE` set must emit a Chrome trace-event file whose
/// "X" (complete) events match the `tasks executed = N` counter reported on
/// stderr, with worker-lane metadata and dependency flow events present.
#[test]
fn chrome_trace_reconciles_with_runtime_metrics() {
    let input = tempfile("chrome-1024.txt");
    let trace = tempfile("chrome-1024.trace.json");
    dcst()
        .args([
            "generate",
            "--type",
            "4",
            "--n",
            "1024",
            "--seed",
            "11",
            "--out",
            input.to_str().unwrap(),
        ])
        .status()
        .unwrap();
    let out = dcst()
        .env("DCST_TRACE", trace.to_str().unwrap())
        .args([
            "solve",
            "--in",
            input.to_str().unwrap(),
            "--solver",
            "taskflow",
            "--threads",
            "2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    let executed: usize = err
        .lines()
        .find_map(|l| l.strip_prefix("tasks executed = "))
        .expect("stderr reports the executed-task counter")
        .trim()
        .parse()
        .unwrap();
    assert!(executed > 0);

    let body = std::fs::read_to_string(&trace).unwrap();
    let doc = dcst_runtime::jsonv::parse(&body).expect("trace file is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    let ph = |e: &dcst_runtime::jsonv::Json| {
        e.get("ph")
            .and_then(|p| p.as_str())
            .unwrap_or("")
            .to_string()
    };
    let complete: Vec<_> = events.iter().filter(|e| ph(e) == "X").collect();
    assert_eq!(
        complete.len(),
        executed,
        "every executed task has exactly one complete event"
    );
    // Worker lanes: one thread_name metadata event per worker thread,
    // plus one scheduler-counter metadata event per lane and one
    // pool-level entry (DCST_TRACE exports carry the counters along).
    let meta_named = |name: &str| {
        events
            .iter()
            .filter(|e| ph(e) == "M" && e.get("name").and_then(|n| n.as_str()) == Some(name))
            .count()
    };
    assert_eq!(
        meta_named("thread_name"),
        2,
        "one worker-lane metadata event per thread"
    );
    assert_eq!(
        meta_named("dcst_sched_counters"),
        2,
        "one scheduler-counter metadata event per lane"
    );
    assert_eq!(
        meta_named("dcst_sched_pool"),
        1,
        "pool-level metadata event"
    );
    // Dependency edges export as paired flow events.
    let starts = events.iter().filter(|e| ph(e) == "s").count();
    let finishes = events.iter().filter(|e| ph(e) == "f").count();
    assert!(starts > 0, "flow events present");
    assert_eq!(starts, finishes, "flow starts pair with flow finishes");
    // Task names from the D&C merge phase appear on the complete events.
    let names: Vec<_> = complete
        .iter()
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()).map(str::to_string))
        .collect();
    assert!(names.iter().any(|n| n == "LAED4"), "{names:?}");
    assert!(names.iter().any(|n| n == "UpdateVect"), "{names:?}");
    let _ = std::fs::remove_file(&input);
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn metrics_flag_reports_solver_and_runtime_counters() {
    let path = tempfile("metrics.txt");
    dcst()
        .args([
            "generate",
            "--type",
            "4",
            "--n",
            "200",
            "--out",
            path.to_str().unwrap(),
        ])
        .status()
        .unwrap();
    let out = dcst()
        .args([
            "solve",
            "--in",
            path.to_str().unwrap(),
            "--solver",
            "taskflow",
            "--threads",
            "2",
            "--metrics",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("overall deflation"), "{err}");
    assert!(err.contains("gemm.flops = "), "{err}");
    assert!(err.contains("secular iters per root = "), "{err}");
    assert!(
        err.contains("certified without a closing sweep = "),
        "{err}"
    );
    assert!(err.contains("secular.certified = "), "{err}");
    // Runtime counter table follows the kernel counters for taskflow runs.
    assert!(err.contains("max ready-queue depth"), "{err}");
    // Real work must be visible in the report.
    assert!(!err.contains("secular.root_solves = 0"), "{err}");

    // Every D&C variant runs the one task graph, so --metrics reports the
    // same deflation statistics and executed-task counter for all of them.
    let out = dcst()
        .args([
            "solve",
            "--in",
            path.to_str().unwrap(),
            "--solver",
            "seq",
            "--metrics",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("overall deflation"), "{err}");
    assert!(err.contains("tasks executed = "), "{err}");

    // The kernel counters do not depend on the solver: QR reports its
    // sweeps, with no deflation line and no scheduler table.
    let out = dcst()
        .args([
            "solve",
            "--in",
            path.to_str().unwrap(),
            "--solver",
            "qr",
            "--metrics",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("steqr.sweeps = "), "{err}");
    assert!(!err.contains("steqr.sweeps = 0"), "{err}");
    assert!(!err.contains("overall deflation"), "{err}");
    assert!(!err.contains("max ready-queue depth"), "{err}");
    let _ = std::fs::remove_file(&path);
}

/// The summary line names the threads the solver ran on: `seq` runs the
/// graph inline and QR has no runtime, so both say one thread whatever
/// `--threads` asks for; `taskflow` uses what it asks for.
#[test]
fn summary_reports_the_threads_the_solver_ran_on() {
    let path = tempfile("threads.txt");
    dcst()
        .args([
            "generate",
            "--type",
            "6",
            "--n",
            "300",
            "--out",
            path.to_str().unwrap(),
        ])
        .status()
        .unwrap();
    for (solver, want) in [
        ("seq", "(1 thread)"),
        ("qr", "(1 thread)"),
        ("taskflow", "(2 threads)"),
    ] {
        let out = dcst()
            .args(["solve", "--in", path.to_str().unwrap(), "--solver", solver])
            .args(["--threads", "2", "--values-only", "--metrics"])
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{solver}: {err}");
        assert!(err.contains(want), "{solver}: {err}");
    }
    let _ = std::fs::remove_file(&path);
}

/// `DCST_TRACE` is honoured by the inline driver too: `--solver seq` writes
/// a parseable Chrome trace with one complete event per executed task, all
/// on the calling thread's single lane, and no dependency flow events (the
/// inline discipline tracks none).
#[test]
fn chrome_trace_for_the_sequential_solver() {
    let input = tempfile("chrome-seq.txt");
    let trace = tempfile("chrome-seq.trace.json");
    dcst()
        .args([
            "generate",
            "--type",
            "4",
            "--n",
            "300",
            "--seed",
            "11",
            "--out",
            input.to_str().unwrap(),
        ])
        .status()
        .unwrap();
    let out = dcst()
        .env("DCST_TRACE", trace.to_str().unwrap())
        .args(["solve", "--in", input.to_str().unwrap(), "--solver", "seq"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    let executed: usize = err
        .lines()
        .find_map(|l| l.strip_prefix("tasks executed = "))
        .expect("stderr reports the executed-task counter")
        .trim()
        .parse()
        .unwrap();
    let body = std::fs::read_to_string(&trace).unwrap();
    let doc = dcst_runtime::jsonv::parse(&body).expect("trace file is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    fn ph(e: &dcst_runtime::jsonv::Json) -> &str {
        e.get("ph").and_then(|p| p.as_str()).unwrap_or("")
    }
    let complete: Vec<_> = events.iter().filter(|e| ph(e) == "X").collect();
    assert!(executed > 0);
    assert_eq!(complete.len(), executed);
    let lanes = events
        .iter()
        .filter(|e| ph(e) == "M" && e.get("name").and_then(|n| n.as_str()) == Some("thread_name"))
        .count();
    assert_eq!(lanes, 1, "the calling thread is the only lane");
    assert!(events.iter().all(|e| ph(e) != "s" && ph(e) != "f"));
    // By prefix: a rank-structured update (always, under
    // DCST_FORCE_STRUCTURED=1) is traced as `UpdateVectStructured`.
    for kernel in ["STEDC", "LAED4", "UpdateVect"] {
        assert!(
            complete.iter().any(|e| e
                .get("name")
                .and_then(|n| n.as_str())
                .is_some_and(|n| n.starts_with(kernel))),
            "missing {kernel}"
        );
    }
    let _ = std::fs::remove_file(&input);
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn trace_subcommand_writes_chrome_json() {
    let chrome = tempfile("trace.chrome.json");
    let out = dcst()
        .args([
            "trace",
            "--type",
            "2",
            "--n",
            "128",
            "--chrome",
            chrome.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = std::fs::read_to_string(&chrome).unwrap();
    let doc = dcst_runtime::jsonv::parse(&body).expect("valid JSON");
    assert!(doc.get("traceEvents").is_some());
    assert!(body.contains("STEDC"));
    let _ = std::fs::remove_file(&chrome);
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = dcst().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = dcst()
        .args(["solve", "--in", "/nonexistent/file"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let out = dcst().args(["generate", "--type", "99"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = dcst()
        .args(["solve", "--in", "/dev/null"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "empty input rejected");
}

/// Malformed or out-of-range `--subset` specs are usage errors (exit 2)
/// for every solver — never a silent `(0,0)` default, never a panic.
#[test]
fn bad_subset_specs_exit_2_for_every_solver() {
    let path = tempfile("badsubset.txt");
    dcst()
        .args([
            "generate",
            "--type",
            "4",
            "--n",
            "32",
            "--out",
            path.to_str().unwrap(),
        ])
        .status()
        .unwrap();
    for solver in ["taskflow", "seq", "forkjoin", "levelpar", "mrrr", "qr"] {
        for spec in ["foo:bar", "5", "3:2", "0:32", "40:50", ":", "1:x", "-1:4"] {
            let out = dcst()
                .args([
                    "solve",
                    "--in",
                    path.to_str().unwrap(),
                    "--solver",
                    solver,
                    "--subset",
                    spec,
                ])
                .output()
                .unwrap();
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(2),
                "{solver} --subset {spec}: {err}"
            );
            assert!(err.contains("--subset"), "{solver} {spec}: {err}");
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// Present-but-unparsable numeric flags (and a matrix order of 0) exit 2
/// and name the flag, on every subcommand that accepts them.
#[test]
fn unparsable_numeric_flags_exit_2_naming_the_flag() {
    let path = tempfile("badflags.txt");
    dcst()
        .args([
            "generate",
            "--type",
            "4",
            "--n",
            "24",
            "--out",
            path.to_str().unwrap(),
        ])
        .status()
        .unwrap();
    let cases: Vec<(Vec<&str>, &str)> = vec![
        (vec!["generate", "--n", "10O0"], "--n"),
        (vec!["generate", "--n", "0"], "--n"),
        (vec!["generate", "--type", "four"], "--type"),
        (vec!["generate", "--n", "64", "--seed", "x"], "--seed"),
        (
            vec!["solve", "--in", path.to_str().unwrap(), "--threads", "two"],
            "--threads",
        ),
        (vec!["trace", "--n", "1e3"], "--n"),
        (vec!["trace", "--n", "0"], "--n"),
        (vec!["trace", "--type", "nan"], "--type"),
    ];
    for (argv, flag) in cases {
        let out = dcst().args(&argv).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {err}");
        assert!(err.contains(flag), "{argv:?} names {flag}: {err}");
    }
    // A trailing valueless flag is also a usage error.
    let out = dcst()
        .args(["solve", "--in", path.to_str().unwrap(), "--threads"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let _ = std::fs::remove_file(&path);
}

/// An unwritable `DCST_TRACE` path is an I/O error (exit 1 with a message),
/// not a panic — the solve itself succeeded, the report must say why the
/// artifact did not.
#[test]
fn unwritable_trace_destination_exits_1() {
    let path = tempfile("tracefail.txt");
    dcst()
        .args([
            "generate",
            "--type",
            "4",
            "--n",
            "64",
            "--out",
            path.to_str().unwrap(),
        ])
        .status()
        .unwrap();
    let out = dcst()
        .env("DCST_TRACE", "/nonexistent-dir/trace.json")
        .args([
            "solve",
            "--in",
            path.to_str().unwrap(),
            "--solver",
            "taskflow",
        ])
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("cannot write"), "{err}");
    assert!(!err.contains("panicked"), "{err}");

    // Same for the trace subcommand's artifact flags.
    for flag in ["--svg", "--json", "--chrome"] {
        let out = dcst()
            .args(["trace", "--n", "96", flag, "/nonexistent-dir/out"])
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: {err}");
        assert!(err.contains("cannot write"), "{flag}: {err}");
        assert!(!err.contains("panicked"), "{flag}: {err}");
    }
    let _ = std::fs::remove_file(&path);
}

/// `--values-only` agrees with the full solve on every solver and reports
/// zero vector columns.
#[test]
fn values_only_agrees_across_solvers() {
    let path = tempfile("valsonly.txt");
    dcst()
        .args([
            "generate",
            "--type",
            "6",
            "--n",
            "48",
            "--seed",
            "9",
            "--out",
            path.to_str().unwrap(),
        ])
        .status()
        .unwrap();
    let full = dcst()
        .args(["solve", "--in", path.to_str().unwrap(), "--solver", "seq"])
        .output()
        .unwrap();
    let oracle: Vec<f64> = String::from_utf8_lossy(&full.stdout)
        .lines()
        .map(|l| l.parse().unwrap())
        .collect();
    for solver in ["taskflow", "seq", "forkjoin", "levelpar", "mrrr", "qr"] {
        let out = dcst()
            .args([
                "solve",
                "--in",
                path.to_str().unwrap(),
                "--solver",
                solver,
                "--values-only",
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{solver}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("0 vector column(s)"), "{solver}: {err}");
        let vals: Vec<f64> = String::from_utf8_lossy(&out.stdout)
            .lines()
            .map(|l| l.parse().unwrap())
            .collect();
        assert_eq!(vals.len(), oracle.len(), "{solver}");
        for (a, b) in vals.iter().zip(&oracle) {
            assert!((a - b).abs() < 1e-9, "{solver}: {a} vs {b}");
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// `--subset il:iu` returns exactly iu−il+1 values (the oracle's slice)
/// and as many vector columns, on every solver; `--check` passes on the
/// n×k slice.
#[test]
fn subset_agrees_across_solvers() {
    let path = tempfile("subsetall.txt");
    dcst()
        .args([
            "generate",
            "--type",
            "4",
            "--n",
            "48",
            "--seed",
            "5",
            "--out",
            path.to_str().unwrap(),
        ])
        .status()
        .unwrap();
    let full = dcst()
        .args(["solve", "--in", path.to_str().unwrap(), "--solver", "seq"])
        .output()
        .unwrap();
    let oracle: Vec<f64> = String::from_utf8_lossy(&full.stdout)
        .lines()
        .map(|l| l.parse().unwrap())
        .collect();
    // A wide range (D&C pruned root) and a narrow one (MRRR fallback).
    for (il, iu) in [(8usize, 39usize), (20, 23)] {
        for solver in ["taskflow", "seq", "forkjoin", "levelpar", "mrrr", "qr"] {
            let out = dcst()
                .args([
                    "solve",
                    "--in",
                    path.to_str().unwrap(),
                    "--solver",
                    solver,
                    "--subset",
                    &format!("{il}:{iu}"),
                    "--check",
                ])
                .output()
                .unwrap();
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{solver} {il}:{iu}: {err}");
            assert!(
                err.contains(&format!("{} vector column(s)", iu - il + 1)),
                "{solver} {il}:{iu}: {err}"
            );
            assert!(err.contains("residual"), "{solver} {il}:{iu}: {err}");
            let vals: Vec<f64> = String::from_utf8_lossy(&out.stdout)
                .lines()
                .map(|l| l.parse().unwrap())
                .collect();
            assert_eq!(vals.len(), iu - il + 1, "{solver} {il}:{iu}");
            for (a, b) in vals.iter().zip(&oracle[il..=iu]) {
                assert!((a - b).abs() < 1e-9, "{solver} {il}:{iu}: {a} vs {b}");
            }
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// The daemon lifecycle through the binary alone: `serve` prints its
/// readiness line, `request` exercises ping/solve/typed-error exit
/// codes, and the `shutdown` verb terminates the process.
#[test]
fn serve_and_request_round_trip() {
    use std::io::{BufRead, BufReader};

    let mut server = dcst()
        .args(["serve", "--threads", "2", "--max-inflight", "4"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn dcst serve");
    let mut ready = String::new();
    BufReader::new(server.stdout.take().unwrap())
        .read_line(&mut ready)
        .unwrap();
    let addr = ready
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("bad readiness line: {ready:?}"))
        .to_string();

    let request = |json: &str| {
        dcst()
            .args(["request", "--addr", &addr, "--json", json])
            .output()
            .expect("run dcst request")
    };

    let out = request(r#"{"op":"ping","id":1}"#);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"pong\":true"));

    let out = request(r#"{"op":"solve","id":2,"matrix":{"type":4,"n":48,"seed":3},"check":true}"#);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let body = String::from_utf8_lossy(&out.stdout);
    assert!(
        body.contains("\"ok\":true") && body.contains("\"values\":["),
        "{body}"
    );

    // A typed (non-busy) protocol error exits 3.
    let out = request(r#"{"op":"frobnicate"}"#);
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stdout).contains("unknown-op"));

    let out = request(r#"{"op":"shutdown"}"#);
    assert!(out.status.success());
    let status = server.wait().expect("serve exits after shutdown verb");
    assert!(status.success());
}
