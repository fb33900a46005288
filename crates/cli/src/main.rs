//! `dcst` — command-line front end for the workspace.
//!
//! ```text
//! dcst generate --type 4 --n 1000 --seed 7 --out t.txt
//! dcst info     --in t.txt
//! dcst solve    --in t.txt [--solver taskflow|seq|forkjoin|levelpar|mrrr|qr]
//!               [--values-only] [--subset il:iu] [--threads k] [--check]
//!               [--metrics]
//! dcst trace    --type 4 --n 1000 --svg trace.svg [--chrome trace.json]
//! dcst serve    [--addr 127.0.0.1:0] [--threads K] [--max-inflight M]
//!               [--max-n N] [--trace-requests]
//! dcst request  --addr HOST:PORT [--json '{"op":"ping"}']
//! ```
//!
//! `--values-only` computes eigenvalues without accumulating eigenvectors;
//! `--subset il:iu` computes all eigenvalues but only the eigenvectors with
//! (0-based, ascending) indices `il..=iu`. Both are accepted by every
//! solver. With `DCST_TRACE=out.json` in the environment, `solve` with any
//! D&C solver (`taskflow`, `seq`, `forkjoin`, `levelpar`) additionally
//! writes the run as a Chrome trace-event file (loadable in
//! `chrome://tracing` / Perfetto).
//!
//! `serve` runs the eigensolver-as-a-service daemon (line-delimited JSON
//! over TCP on one shared runtime; see `DESIGN.md` "Service layer") and
//! prints `listening on ADDR` once the socket is bound. `request` is a
//! one-shot client: it sends the `--json` line (or one line read from
//! stdin) and prints the server's response verbatim, exiting 0 on
//! success, 4 when the server shed the request as `busy`, and 3 on any
//! other typed error.
//!
//! `DCST_FAIL=site:N[+],…` arms the kernels' fault-injection sites (see
//! `dcst_matrix::failpoints`) for every command, `solve` and `serve`
//! alike; a malformed spec is a usage error. So do the three process-wide
//! kernel knobs, each `0` or `1`: `DCST_FORCE_SCALAR=1` pins every
//! dispatched kernel to the scalar bodies, `DCST_FORCE_DENSE=1` pins the
//! dense eigenvector update and `DCST_FORCE_STRUCTURED=1` the
//! rank-structured one. Any other value, or both update knobs set, is a
//! usage error. The library reads no environment; these map onto
//! `dcst_matrix::set_simd_level` / `set_update_policy`.

use dcst_core::{
    DcError, DcOptions, DcStats, ForkJoinDc, LevelParallelDc, SequentialDc, SolveMode, TaskFlowDc,
};
use dcst_matrix::{SimdLevel, UpdatePolicy};
use dcst_mrrr::{bisect_range, MrrrError, MrrrSolver};
use dcst_qriter::QrError;
use dcst_runtime::{Runtime, RuntimeMetrics, Trace};
use dcst_serve::{Client, Server, ServerConfig};
use dcst_tridiag::gen::MatrixType;
use dcst_tridiag::io::{read_tridiag, write_tridiag};
use dcst_tridiag::SymTridiag;
use std::io::{BufRead, BufReader, Write};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    raw: Vec<String>,
}

impl Args {
    fn value(&self, name: &str) -> Option<&str> {
        self.raw
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.raw.get(i + 1))
            .map(|s| s.as_str())
    }
    fn flag(&self, name: &str) -> bool {
        self.raw.iter().any(|a| a == name)
    }
    /// The flag's value as a usize, `default` when absent. A flag that is
    /// present but missing or unparsable is a usage error naming the flag
    /// — silently substituting the default would mask typos like
    /// `--n 10O0`.
    fn usize_flag(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.value(name) {
            None => {
                if self.flag(name) {
                    Err(format!("{name} needs a value"))
                } else {
                    Ok(default)
                }
            }
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name} wants a non-negative integer, got '{v}'")),
        }
    }
    /// `--type K --n N` of a generated Table III matrix (defaults: type 4,
    /// n = 1000); a type outside 1..=15 or an order of 0 is a usage error.
    fn generated_spec(&self) -> Result<(MatrixType, usize), String> {
        let ty =
            MatrixType::from_index(self.usize_flag("--type", 4)?).ok_or("--type must be 1..=15")?;
        match self.usize_flag("--n", 1000)? {
            0 => Err("--n must be at least 1".to_string()),
            n => Ok((ty, n)),
        }
    }
}

/// `il:iu` → a validated 0-based inclusive index range for a matrix of
/// order `n`. Rejects (instead of defaulting) anything unparsable.
fn parse_subset(spec: &str, n: usize) -> Result<(usize, usize), String> {
    let (a, b) = spec
        .split_once(':')
        .ok_or_else(|| format!("--subset wants il:iu, got '{spec}'"))?;
    let il: usize = a
        .parse()
        .map_err(|_| format!("--subset wants integer il:iu, got '{spec}'"))?;
    let iu: usize = b
        .parse()
        .map_err(|_| format!("--subset wants integer il:iu, got '{spec}'"))?;
    if il > iu || iu >= n {
        return Err(format!(
            "--subset {il}:{iu} out of range for a matrix of order {n} (need il <= iu < n, 0-based)"
        ));
    }
    Ok((il, iu))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  dcst generate --type K --n N [--seed S] [--out FILE]\n  \
         dcst info --in FILE\n  \
         dcst solve --in FILE [--solver taskflow|seq|forkjoin|levelpar|mrrr|qr] \
         [--values-only] [--subset il:iu] [--threads K] [--check] [--metrics]\n  \
         dcst trace [--type K] [--n N] [--svg FILE] [--chrome FILE]\n  \
         dcst serve [--addr A] [--threads K] [--max-inflight M] [--max-n N] [--trace-requests]\n  \
         dcst request --addr HOST:PORT [--json LINE]\n\
         env: DCST_TRACE=FILE with a D&C 'solve' writes a Chrome trace-event file\n     \
         DCST_FAIL=site:N[+],... arms the kernels' fault-injection sites\n     \
         DCST_FORCE_SCALAR=1 pins the scalar kernels; DCST_FORCE_DENSE=1 or\n     \
         DCST_FORCE_STRUCTURED=1 pins the eigenvector-update path (each 0 or 1)"
    );
    ExitCode::from(EXIT_USAGE)
}

// Exit codes: 0 = success, 1 = input error (unreadable/unparsable file, a
// matrix with NaN/Inf entries, or an unwritable output path), 2 = usage
// error (bad flags, out-of-range subset), 3 = numerical failure (a solver
// gave up on a well-formed input). Scripts driving the benchmark suite
// rely on 1-vs-3 to tell bad data from convergence problems. `request`
// adds 4 = the daemon shed the request with a typed `busy` error, so load
// drivers can retry on 4 and give up on 3.
const EXIT_INPUT: u8 = 1;
const EXIT_USAGE: u8 = 2;
const EXIT_NUMERICAL: u8 = 3;
const EXIT_BUSY: u8 = 4;

fn fail<E: std::fmt::Display>(e: E, code: u8) -> ExitCode {
    eprintln!("error: {e}");
    ExitCode::from(code)
}

fn dc_code(e: &DcError) -> u8 {
    match e {
        DcError::NonFinite | DcError::Leaf(QrError::NonFinite) => EXIT_INPUT,
        DcError::InvalidRange { .. } => EXIT_USAGE,
        DcError::Subset(inner) => mrrr_code(inner),
        _ => EXIT_NUMERICAL,
    }
}

fn qr_code(e: &QrError) -> u8 {
    match e {
        QrError::NonFinite => EXIT_INPUT,
        QrError::NoConvergence { .. } => EXIT_NUMERICAL,
    }
}

fn mrrr_code(e: &MrrrError) -> u8 {
    match e {
        MrrrError::NonFinite => EXIT_INPUT,
        MrrrError::InvalidRange { .. } => EXIT_USAGE,
        MrrrError::ClusterFailure { .. } => EXIT_NUMERICAL,
    }
}

fn load(args: &Args) -> Result<SymTridiag, String> {
    let path = args.value("--in").ok_or("missing --in FILE")?;
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    read_tridiag(BufReader::new(file)).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// Write a generated artifact (trace SVG, Chrome events); an
/// unwritable path is an input-class error, never a panic.
fn write_artifact(path: &str, contents: String, what: &str) -> Result<(), ExitCode> {
    std::fs::write(path, contents)
        .map_err(|e| fail(format!("cannot write {path}: {e}"), EXIT_INPUT))?;
    eprintln!("{what} -> {path}");
    Ok(())
}

/// This process's minor page faults so far, all threads, from
/// `/proc/self/stat` (Linux); `None` where that file is not there.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // After the parenthesised command name, the state is the first field
    // and minflt the eighth (fields 3 and 10 in proc(5)).
    let fields = stat.rsplit_once(')')?.1;
    fields.split_whitespace().nth(7)?.parse().ok()
}

/// Apply `DCST_FORCE_SCALAR`, `DCST_FORCE_DENSE` and
/// `DCST_FORCE_STRUCTURED` (see the module docs). Each is unset, `0` or
/// `1`; the error names the offending variable.
fn apply_knobs() -> Result<(), String> {
    let knob = |name: &str| match std::env::var_os(name) {
        None => Ok(false),
        Some(v) if v == "0" => Ok(false),
        Some(v) if v == "1" => Ok(true),
        Some(v) => Err(format!("{name}='{}': want 0 or 1", v.to_string_lossy())),
    };
    let scalar = knob("DCST_FORCE_SCALAR")?;
    let dense = knob("DCST_FORCE_DENSE")?;
    let structured = knob("DCST_FORCE_STRUCTURED")?;
    if dense && structured {
        return Err(
            "DCST_FORCE_DENSE=1 and DCST_FORCE_STRUCTURED=1 pin opposite update paths".to_string(),
        );
    }
    if scalar {
        assert!(
            dcst_matrix::set_simd_level(SimdLevel::Scalar),
            "every CPU runs the scalar kernels"
        );
    }
    if dense {
        dcst_matrix::set_update_policy(UpdatePolicy::ForceDense);
    } else if structured {
        dcst_matrix::set_update_policy(UpdatePolicy::ForceStructured);
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        return usage();
    }
    if let Ok(spec) = std::env::var("DCST_FAIL") {
        if let Err(e) = dcst_matrix::failpoints::arm_spec(&spec) {
            return fail(format!("DCST_FAIL='{spec}': {e}"), EXIT_USAGE);
        }
    }
    if let Err(e) = apply_knobs() {
        return fail(e, EXIT_USAGE);
    }
    let cmd = argv.remove(0);
    let args = Args { raw: argv };
    let threads = match args.usize_flag("--threads", dcst_runtime::cpu_count()) {
        Ok(v) => v,
        Err(e) => return fail(e, EXIT_USAGE),
    };

    match cmd.as_str() {
        "generate" => {
            let (ty, n) = match args.generated_spec() {
                Ok(v) => v,
                Err(e) => return fail(e, EXIT_USAGE),
            };
            let seed = match args.usize_flag("--seed", 1) {
                Ok(v) => v as u64,
                Err(e) => return fail(e, EXIT_USAGE),
            };
            let t = ty.generate(n, seed);
            match args.value("--out") {
                Some(path) => {
                    let f = match std::fs::File::create(path) {
                        Ok(f) => f,
                        Err(e) => return fail(format!("cannot create {path}: {e}"), EXIT_INPUT),
                    };
                    if let Err(e) = write_tridiag(std::io::BufWriter::new(f), &t) {
                        return fail(format!("cannot write {path}: {e}"), EXIT_INPUT);
                    }
                    eprintln!("wrote type-{} matrix (n = {n}) to {path}", ty.index());
                }
                None => {
                    if let Err(e) = write_tridiag(std::io::stdout().lock(), &t) {
                        return fail(format!("cannot write to stdout: {e}"), EXIT_INPUT);
                    }
                }
            }
            ExitCode::SUCCESS
        }
        "info" => {
            let t = match load(&args) {
                Ok(t) => t,
                Err(e) => return fail(e, EXIT_INPUT),
            };
            let (gl, gu) = t.gershgorin_bounds();
            let splits = (0..t.n().saturating_sub(1))
                .filter(|&i| {
                    t.e[i].abs()
                        <= f64::EPSILON * (t.d[i].abs() * t.d[i + 1].abs()).sqrt()
                            + f64::MIN_POSITIVE
                })
                .count();
            println!("n               = {}", t.n());
            println!("max-norm        = {:.6e}", t.max_norm());
            println!("gershgorin      = [{gl:.6e}, {gu:.6e}]");
            println!("irreducible blocks = {}", splits + 1);
            println!("eigenvalues < 0 = {}", dcst_tridiag::sturm_count(&t, 0.0));
            ExitCode::SUCCESS
        }
        "solve" => {
            let t = match load(&args) {
                Ok(t) => t,
                Err(e) => return fail(e, EXIT_INPUT),
            };
            let solver_name = args.value("--solver").unwrap_or("taskflow");
            let values_only = args.flag("--values-only");
            // Every solver validates --subset against the matrix order
            // before any numerical work, so malformed ranges exit 2
            // uniformly.
            let subset = match args.value("--subset") {
                Some(spec) => match parse_subset(spec, t.n()) {
                    Ok(r) => Some(r),
                    Err(e) => return fail(e, EXIT_USAGE),
                },
                None => None,
            };
            let mode = match (values_only, subset) {
                (true, Some(_)) => {
                    // Values restricted to the subset: no vectors at all.
                    SolveMode::ValuesOnly
                }
                (true, None) => SolveMode::ValuesOnly,
                (false, Some((il, iu))) => SolveMode::Subset { il, iu },
                (false, None) => SolveMode::Full,
            };
            let opts = DcOptions {
                threads,
                mode,
                ..DcOptions::default()
            };
            let trace_path = std::env::var("DCST_TRACE").ok();
            // --metrics brackets the solve with kernel-counter snapshots.
            let counters_before = args.flag("--metrics").then(dcst_matrix::metrics::snapshot);
            let faults_before = counters_before.as_ref().and_then(|_| minor_faults());
            let mut dc_stats: Option<DcStats> = None;
            let mut observed: Option<(Trace, RuntimeMetrics)> = None;
            let start = Instant::now();
            let (values, vectors) = match solver_name {
                "mrrr" => {
                    let rt = Runtime::new(threads);
                    let solver = MrrrSolver::new(&rt);
                    let result = match (values_only, subset) {
                        (true, range) => {
                            // Bisection gives the Θ(n·k) values-only
                            // path directly.
                            let range = range.map_or(0..t.n(), |(il, iu)| il..iu + 1);
                            bisect_range(&t, range, &rt)
                                .map(|vals| (vals, dcst_matrix::Matrix::zeros(t.n(), 0)))
                        }
                        (false, Some((il, iu))) => solver.solve_range_exact(&t, il, iu),
                        (false, None) => solver.solve(&t),
                    };
                    match result {
                        Ok(r) => r,
                        Err(e) => return fail(&e, mrrr_code(&e)),
                    }
                }
                "qr" => {
                    let result = if values_only {
                        dcst_qriter::eigenvalues(&t)
                            .map(|vals| (vals, dcst_matrix::Matrix::zeros(t.n(), 0)))
                    } else {
                        dcst_qriter::steqr(&t).map(|(vals, vecs)| match subset {
                            // QR has no subset shortcut; slice the full
                            // factorization to the requested columns.
                            Some((il, iu)) => {
                                let n = t.n();
                                let k = iu - il + 1;
                                let mut sub = vec![0.0f64; n * k];
                                for (c, p) in (il..=iu).enumerate() {
                                    sub[c * n..(c + 1) * n].copy_from_slice(vecs.col(p));
                                }
                                (
                                    vals[il..=iu].to_vec(),
                                    dcst_matrix::Matrix::from_vec(n, k, sub),
                                )
                            }
                            None => (vals, vecs),
                        })
                    };
                    let (vals, vecs) = match result {
                        Ok(r) => r,
                        Err(e) => return fail(&e, qr_code(&e)),
                    };
                    // --values-only --subset: slice the values.
                    match (values_only, subset) {
                        (true, Some((il, iu))) => (vals[il..=iu].to_vec(), vecs),
                        _ => (vals, vecs),
                    }
                }
                name => {
                    // The D&C variants are scheduling disciplines over one
                    // task graph, so whichever is picked the same call
                    // returns the deflation statistics behind --metrics and
                    // the trace + scheduler counters behind DCST_TRACE.
                    let result = match name {
                        "taskflow" => TaskFlowDc::new(opts).solve_observed(&t),
                        "seq" => SequentialDc::new(opts).solve_observed(&t),
                        "forkjoin" => ForkJoinDc::new(opts).solve_observed(&t),
                        "levelpar" => LevelParallelDc::new(opts).solve_observed(&t),
                        other => return fail(format!("unknown solver '{other}'"), EXIT_USAGE),
                    };
                    let eig = match result {
                        Ok((eig, stats, trace, rm)) => {
                            dc_stats = Some(stats);
                            observed = (trace_path.is_some() || counters_before.is_some())
                                .then_some((trace, rm));
                            eig
                        }
                        Err(e) => return fail(&e, dc_code(&e)),
                    };
                    // --values-only --subset: the D&C values path returns
                    // the full spectrum; slice to the request.
                    match (values_only, subset) {
                        (true, Some((il, iu))) => (eig.values[il..=iu].to_vec(), eig.vectors),
                        _ => (eig.values, eig.vectors),
                    }
                }
            };
            let secs = start.elapsed().as_secs_f64();
            let faults = faults_before.and_then(|before| Some(minor_faults()? - before));
            // `seq` runs the graph inline on the calling thread, and QR has
            // no runtime: neither uses `--threads`.
            let ran_on = match solver_name {
                "seq" | "qr" => 1,
                _ => threads,
            };
            eprintln!(
                "{solver_name}: {} eigenvalue(s), {} vector column(s) in {:.3}s ({ran_on} thread{})",
                values.len(),
                vectors.cols(),
                secs,
                if ran_on == 1 { "" } else { "s" }
            );
            if let Some((trace, rm)) = &observed {
                if let Some(path) = trace_path.as_deref() {
                    // Scheduler counters ride along as per-lane metadata so
                    // the trace viewer shows the contention story too.
                    if let Err(code) = write_artifact(
                        path,
                        trace.to_chrome_json_with_metrics(Some(rm)),
                        "chrome trace",
                    ) {
                        return code;
                    }
                    eprintln!(
                        "  ({} records, {} edges)",
                        trace.records.len(),
                        trace.edges.len()
                    );
                }
                // Parseable reconciliation line: the trace records every
                // retired task, so this always equals the record count.
                eprintln!("tasks executed = {}", rm.tasks_executed());
            }
            if let Some(before) = counters_before {
                eprintln!(
                    "simd level = {:?}, update policy = {:?}",
                    dcst_matrix::simd_level(),
                    dcst_matrix::update_policy()
                );
                // First touches of fresh pages: the cost a solver's reused
                // working matrix saves, invisible in the kernel counters.
                if let Some(faults) = faults {
                    eprintln!("minor page faults = {faults}");
                }
                // Deflation statistics and the scheduler table exist for the
                // D&C disciplines only; the kernel counters move under every
                // solver (QR shows its sweeps in `steqr.*`).
                if let Some(stats) = &dc_stats {
                    eprintln!(
                        "merges: {} (total n {}), overall deflation {:.1}%",
                        stats.merges.len(),
                        stats.merges.iter().map(|m| m.n).sum::<usize>(),
                        100.0 * stats.overall_deflation()
                    );
                }
                let delta = dcst_matrix::metrics::snapshot().delta(&before);
                for (name, v) in delta.iter() {
                    eprintln!("{name} = {v}");
                }
                let roots = delta.get("secular.root_solves");
                if roots > 0 {
                    let per_root = delta.get("secular.iters") as f64 / roots as f64;
                    let certified = delta.get("secular.certified") as f64 / roots as f64;
                    eprintln!(
                        "secular iters per root = {per_root:.2}, certified without a closing \
                         sweep = {:.1}%",
                        100.0 * certified
                    );
                }
                if let Some((_, rm)) = &observed {
                    eprintln!("{}", rm.report());
                }
            }
            // Residual/orthogonality checks hold for any n×k slice of the
            // eigenbasis (k = cols), not only the full square factorization.
            if args.flag("--check")
                && vectors.cols() == values.len()
                && vectors.rows() == t.n()
                && vectors.cols() > 0
            {
                let orth = dcst_matrix::orthogonality_error(&vectors);
                let res = dcst_matrix::residual_error(
                    t.n(),
                    |x, y| t.matvec(x, y),
                    &values,
                    &vectors,
                    t.max_norm(),
                );
                eprintln!("orthogonality = {orth:.3e}   residual = {res:.3e}");
            }
            let mut out = String::with_capacity(values.len() * 24);
            for v in &values {
                out.push_str(&format!("{v:.17e}\n"));
            }
            print!("{out}");
            ExitCode::SUCCESS
        }
        "trace" => {
            if args.flag("--json") {
                return fail(
                    "trace has no --json export; --chrome FILE writes the machine-readable trace",
                    EXIT_USAGE,
                );
            }
            let (ty, n) = match args.generated_spec() {
                Ok(v) => v,
                Err(e) => return fail(e, EXIT_USAGE),
            };
            let t = ty.generate(n, 1);
            let solver = TaskFlowDc::new(DcOptions {
                threads,
                ..DcOptions::default()
            });
            let (_, stats, trace, _) = match solver.solve_observed(&t) {
                Ok(r) => r,
                Err(e) => return fail(&e, dc_code(&e)),
            };
            eprintln!(
                "n = {n}, type {}: makespan {:.1} ms, idle {:.1}%, deflation {:.0}%",
                ty.index(),
                trace.makespan_us() as f64 / 1e3,
                100.0 * trace.idle_fraction(),
                100.0 * stats.overall_deflation()
            );
            if let Some(path) = args.value("--svg") {
                if let Err(code) = write_artifact(path, trace.to_svg(1200, 24), "svg timeline") {
                    return code;
                }
            }
            if let Some(path) = args.value("--chrome") {
                if let Err(code) = write_artifact(path, trace.to_chrome_json(), "chrome trace") {
                    return code;
                }
            }
            if args.value("--svg").is_none() && args.value("--chrome").is_none() {
                println!("{}", trace.ascii_timeline(100));
            }
            ExitCode::SUCCESS
        }
        "serve" => {
            let max_inflight = match args.usize_flag("--max-inflight", 8) {
                Ok(v) => v,
                Err(e) => return fail(e, EXIT_USAGE),
            };
            let max_n = match args.usize_flag("--max-n", 8192) {
                Ok(v) => v,
                Err(e) => return fail(e, EXIT_USAGE),
            };
            let cfg = ServerConfig {
                addr: args.value("--addr").unwrap_or("127.0.0.1:0").to_string(),
                threads,
                max_inflight,
                max_n,
                trace_requests: args.flag("--trace-requests"),
                ..ServerConfig::default()
            };
            let server = match Server::start(cfg) {
                Ok(s) => s,
                Err(e) => return fail(format!("cannot bind: {e}"), EXIT_INPUT),
            };
            // Parseable readiness line on stdout (scripts wait for it);
            // stdout is block-buffered when piped, so flush explicitly.
            println!("listening on {}", server.addr());
            let _ = std::io::stdout().flush();
            // Blocks until a client sends the `shutdown` verb.
            server.join();
            ExitCode::SUCCESS
        }
        "request" => {
            let Some(addr) = args.value("--addr") else {
                return fail("missing --addr HOST:PORT", EXIT_USAGE);
            };
            let line = match args.value("--json") {
                Some(l) => l.to_string(),
                None => {
                    let mut buf = String::new();
                    if let Err(e) = std::io::stdin().lock().read_line(&mut buf) {
                        return fail(format!("cannot read stdin: {e}"), EXIT_INPUT);
                    }
                    buf.trim().to_string()
                }
            };
            let mut client = match Client::connect(addr) {
                Ok(c) => c,
                Err(e) => return fail(format!("cannot connect to {addr}: {e}"), EXIT_INPUT),
            };
            if let Err(e) = client.send(&line) {
                return fail(format!("cannot send request: {e}"), EXIT_INPUT);
            }
            let raw = match client.recv_raw() {
                Ok(Some(r)) => r,
                Ok(None) => return fail("server closed the connection", EXIT_INPUT),
                Err(e) => return fail(format!("cannot read response: {e}"), EXIT_INPUT),
            };
            println!("{raw}");
            // Exit code mirrors the typed error taxonomy: scripts retry
            // on busy (4) and treat anything else as final.
            match dcst_runtime::jsonv::parse(&raw) {
                Ok(doc) => {
                    let ok = matches!(doc.get("ok"), Some(dcst_runtime::jsonv::Json::Bool(true)));
                    if ok {
                        ExitCode::SUCCESS
                    } else {
                        let code = doc
                            .get("error")
                            .and_then(|e| e.get("code"))
                            .and_then(|c| c.as_str())
                            .unwrap_or("internal");
                        ExitCode::from(if code == "busy" {
                            EXIT_BUSY
                        } else {
                            EXIT_NUMERICAL
                        })
                    }
                }
                Err(e) => fail(format!("malformed response: {e}"), EXIT_INPUT),
            }
        }
        _ => usage(),
    }
}
