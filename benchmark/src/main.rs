//! `dcst-bench`: the repository's one benchmark.
//!
//! ```text
//! dcst-bench run --workload <name|all> --seed <u64> [--seconds N] [--trace 0|1] [--out FILE]
//! dcst-bench compare A.jsonl B.jsonl
//! ```
//!
//! `run` prints a provenance header and every metric by name with its
//! unit, checks the outputs, and ends with one JSON result line. Without
//! `--trace` it makes both passes (end-to-end, then traced layers);
//! `--trace 0` makes only the first, `--trace 1` only the second. A traced
//! run writes `<target dir>/bench/<workload>.trace.json`. `--out` appends
//! one record line per workload to FILE, the input of `compare`.
//!
//! Exit codes: 0 ok; 1 a check failed, a run could not complete, or
//! `compare` found a `worse`; 2 usage error or a debug build.

use dcst_benchmark::provenance::Provenance;
use dcst_benchmark::{compare, report, run_workload, Passes, Scale, Spec};
use std::io::Write;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: dcst_benchmark::alloc::CountingAlloc = dcst_benchmark::alloc::CountingAlloc;

const USAGE: &str = "usage:
  dcst-bench run --workload <name|all> --seed <u64> [--seconds N] [--trace 0|1] [--out FILE]
  dcst-bench compare A.jsonl B.jsonl";

fn usage(why: &str) -> ExitCode {
    eprintln!("dcst-bench: {why}\n{USAGE}");
    ExitCode::from(2)
}

/// `--key value` lookup; `Err` names a flag that is present without a value.
fn flag<'a>(args: &'a [String], key: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == key) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("{key} needs a value")),
    }
}

fn run(args: &[String]) -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("dcst-bench: built with debug assertions; measure release builds only");
        return ExitCode::from(2);
    }
    let spec = Spec::embedded();
    let parsed = (|| -> Result<_, String> {
        let workload = flag(args, "--workload")?.ok_or("--workload is required")?;
        let seed: u64 = flag(args, "--seed")?
            .ok_or("--seed is required")?
            .parse()
            .map_err(|_| "--seed wants an unsigned integer")?;
        let seconds: u64 = match flag(args, "--seconds")? {
            Some(v) => v.parse().map_err(|_| "--seconds wants a whole number")?,
            None => spec.run_seconds,
        };
        let passes = match flag(args, "--trace")? {
            None => Passes::Both,
            Some("0") => Passes::EndToEnd,
            Some("1") => Passes::Layers,
            Some(_) => return Err("--trace wants 0 or 1".to_string()),
        };
        let names: Vec<String> = if workload == "all" {
            spec.workloads.iter().map(|(n, _)| n.clone()).collect()
        } else if spec.has_workload(workload) {
            vec![workload.to_string()]
        } else {
            return Err(format!("unknown workload '{workload}'"));
        };
        Ok((names, seed, seconds, passes, flag(args, "--out")?))
    })();
    let (names, seed, seconds, passes, out_path) = match parsed {
        Ok(p) => p,
        Err(e) => return usage(&e),
    };

    let scale = Scale::for_seconds(seconds, spec.run_seconds);
    let prov = Provenance::collect();
    println!("# dcst-bench run  {}", prov.header());
    println!(
        "# T={} seed={seed} seconds={seconds} (nominal {}) passes={passes:?}",
        scale.threads, spec.run_seconds
    );
    let trace_dir = std::path::PathBuf::from(
        std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()),
    )
    .join("bench");

    let mut all_correct = true;
    for name in &names {
        let (record, spans) = match run_workload(name, seed, &scale, passes) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("dcst-bench: {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = record.validate(&spec, passes) {
            eprintln!("dcst-bench: {name}: {e}");
            return ExitCode::FAILURE;
        }
        print!("{}", record.human(&spec));
        if passes.layers() {
            let path = trace_dir.join(format!("{name}.trace.json"));
            let written = std::fs::create_dir_all(&trace_dir)
                .and_then(|()| std::fs::write(&path, spans.to_chrome_json()));
            match written {
                Ok(()) => println!("trace: {} spans -> {}", spans.all().len(), path.display()),
                Err(e) => {
                    eprintln!("dcst-bench: cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        if let Some(path) = out_path {
            let appended = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| writeln!(f, "{}", record.to_json(&spec, &prov)));
            if let Err(e) = appended {
                eprintln!("dcst-bench: cannot append to {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        all_correct &= record.correct();
        println!("{}", record.result_line(&spec, passes));
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("dcst-bench: output checks failed (see FAILED lines above)");
        ExitCode::FAILURE
    }
}

fn compare_cmd(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        return usage("compare wants exactly two record files");
    };
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| report::read_records(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (ra, rb) = match (read(a), read(b)) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("dcst-bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rows = compare::compare(&Spec::embedded(), &ra, &rb);
    print!("{}", compare::render(&rows));
    if rows.is_empty() {
        eprintln!("dcst-bench: the two files share no workload");
        return ExitCode::FAILURE;
    }
    if rows.iter().any(|r| r.verdict == compare::Verdict::Worse) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "compare" => compare_cmd(rest),
        Some((cmd, _)) => usage(&format!("unknown command '{cmd}'")),
        None => usage("no command"),
    }
}
