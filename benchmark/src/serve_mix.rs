//! The `serve_mix` workload: an in-process `dcst serve` daemon on
//! loopback, `T` closed-loop clients (callers that wait for each reply)
//! sending a seeded, fixed request mix.
//!
//! The mix is a *deck*: one request of every (order, type, class slot)
//! combination, shuffled. A client's sequence is several independently
//! shuffled decks, so every seed sends the same multiset of requests —
//! only their order and the random-spectrum seeds differ — and medians of
//! the mix do not wander with the draw.

use crate::layers::TracedRun;
use crate::report::{MetricValue, RunRecord};
use crate::solver::{self, ms_since, opts, LayerInput, Tally};
use crate::spans::Spans;
use crate::stats::{self, Summary};
use crate::{alloc, check, Passes, Rng, Scale, Spec};
use dcst_core::{DcStats, Eigen, SequentialDc, SolveMode, TaskFlowDc, TridiagEigensolver};
use dcst_runtime::jsonv::{self, Json};
use dcst_runtime::Runtime;
use dcst_serve::{protocol, Client, Server, ServerConfig};
use dcst_tridiag::gen::MatrixType;
use dcst_tridiag::SymTridiag;
use std::net::SocketAddr;
use std::time::Instant;

/// Request classes and their share of every 20 requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Full solve, eigenvalues returned (12 of 20).
    Full,
    /// `"mode":"values"` (4 of 20).
    Values,
    /// Subset `[0, n/8]` with `"vectors":true`: root-merge pruning (2 of 20).
    Subset,
    /// Subset `[0, n/32 − 1]`: small enough to take the MRRR
    /// `solve_range_exact` fallback (1 of 20).
    SubsetMrrr,
    /// `batch` of four full solves (1 of 20).
    Batch,
}

pub const CLASSES: [Class; 5] = [
    Class::Full,
    Class::Values,
    Class::Subset,
    Class::SubsetMrrr,
    Class::Batch,
];

/// Class of each of the 20 slots a (order, type) pair contributes.
const SLOTS: [Class; 20] = {
    let mut s = [Class::Full; 20];
    s[12] = Class::Values;
    s[13] = Class::Values;
    s[14] = Class::Values;
    s[15] = Class::Values;
    s[16] = Class::Subset;
    s[17] = Class::Subset;
    s[18] = Class::SubsetMrrr;
    s[19] = Class::Batch;
    s
};

const BATCH: u64 = 4;

/// Times each verified problem is solved in process (see `run_with`).
const VERIFY_PASSES: usize = 2;

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Full => "full",
            Class::Values => "values",
            Class::Subset => "subset",
            Class::SubsetMrrr => "subset_mrrr",
            Class::Batch => "batch",
        }
    }
}

/// One request of the mix.
#[derive(Clone, Debug)]
pub struct Req {
    pub class: Class,
    pub ty: usize,
    pub n: usize,
    pub seed: u64,
}

impl Req {
    pub fn mode(&self) -> SolveMode {
        match self.class {
            Class::Full | Class::Batch => SolveMode::Full,
            Class::Values => SolveMode::ValuesOnly,
            Class::Subset => SolveMode::Subset {
                il: 0,
                iu: self.n / 8,
            },
            Class::SubsetMrrr => SolveMode::Subset {
                il: 0,
                iu: (self.n / 32).max(1) - 1,
            },
        }
    }

    /// Matrix seeds of the problems this request carries.
    pub fn seeds(&self) -> Vec<u64> {
        match self.class {
            Class::Batch => (0..BATCH).map(|i| self.seed + i).collect(),
            _ => vec![self.seed],
        }
    }

    /// Eigenvalues each problem's response must carry.
    pub fn expected_values(&self) -> usize {
        match self.mode() {
            SolveMode::Subset { il, iu } => iu - il + 1,
            _ => self.n,
        }
    }

    pub fn matrix(&self, seed: u64) -> SymTridiag {
        MatrixType::from_index(self.ty)
            .expect("the mix names Table III types")
            .generate(self.n, seed)
    }

    /// The request line (no newline).
    pub fn line(&self, id: u64) -> String {
        let matrix = |seed: u64| {
            format!(
                "\"matrix\":{{\"type\":{},\"n\":{},\"seed\":{seed}}}",
                self.ty, self.n
            )
        };
        let solve = |extra: &str| {
            format!(
                "{{\"op\":\"solve\",\"id\":{id},{}{extra}}}",
                matrix(self.seed)
            )
        };
        match self.mode() {
            _ if self.class == Class::Batch => {
                let problems: Vec<String> = self
                    .seeds()
                    .into_iter()
                    .map(|s| format!("{{{}}}", matrix(s)))
                    .collect();
                format!(
                    "{{\"op\":\"batch\",\"id\":{id},\"problems\":[{}]}}",
                    problems.join(",")
                )
            }
            SolveMode::Full => solve(""),
            SolveMode::ValuesOnly => solve(",\"mode\":\"values\""),
            SolveMode::Subset { il, iu } => solve(&format!(
                ",\"mode\":{{\"subset\":[{il},{iu}]}}{}",
                if self.class == Class::Subset {
                    ",\"vectors\":true"
                } else {
                    ""
                }
            )),
        }
    }
}

/// Matrix seed of every type-2 MRRR-subset request. Type 2 has an
/// (n−1)-fold eigenvalue; for about 1 generator seed in 5000 (2 of 10240
/// tried, both n = 128) `solve_range_exact` fails to resolve the part of
/// that cluster inside `[0, n/32 − 1]` and the daemon answers `numerical`.
/// A benchmark's workloads must not contain operations that fail, so this
/// one request kind always asks for the same, verified, matrix.
pub const TYPE2_MRRR_SEED: u64 = 1;

/// The deck in its fixed order: every (order, type, slot) combination.
fn deck_unshuffled(scale: &Scale, rng: &mut Rng) -> Vec<Req> {
    let mut reqs = Vec::new();
    for &n in &scale.serve_sizes {
        for &ty in &scale.serve_types {
            for class in SLOTS {
                // Below 2^53 so the seed survives the wire's f64 numbers.
                let drawn = rng.below(1 << 40);
                let pinned = ty == 2 && class == Class::SubsetMrrr;
                reqs.push(Req {
                    class,
                    ty,
                    n,
                    seed: if pinned { TYPE2_MRRR_SEED } else { drawn },
                });
            }
        }
    }
    reqs
}

/// One shuffled pass over every (order, type, slot) combination.
pub fn deck(scale: &Scale, rng: &mut Rng) -> Vec<Req> {
    let mut reqs = deck_unshuffled(scale, rng);
    rng.shuffle(&mut reqs);
    reqs
}

/// The warm-up requests of a set-up: one full solve of every (order, type)
/// pair, in fixed order, so set-up does the same work for every seed.
pub fn warm_up(scale: &Scale, seed: u64) -> Vec<Req> {
    deck_unshuffled(scale, &mut Rng::new(seed))
        .into_iter()
        .step_by(SLOTS.len())
        .collect()
}

/// Client `client`'s request sequence: `decks` shuffled decks.
pub fn sequence(scale: &Scale, seed: u64, client: usize, decks: usize) -> Vec<Req> {
    let mut rng = Rng::new(seed.wrapping_mul(0x1_0000_01b3) ^ (client as u64 + 1));
    (0..decks.max(1))
        .flat_map(|_| deck(scale, &mut rng))
        .collect()
}

/// One completed request of the load phase.
struct Sample {
    class: Class,
    ms: f64,
    bytes: usize,
    /// Why the response was rejected, if it was.
    error: Option<String>,
    /// Eigenvalues per problem, kept for the requests verified afterwards.
    values: Option<Vec<Vec<f64>>>,
}

fn is_ok(doc: &Json) -> bool {
    matches!(doc.get("ok"), Some(Json::Bool(true)))
}

fn values_of(doc: &Json) -> Option<Vec<f64>> {
    doc.get("values")?
        .as_arr()?
        .iter()
        .map(Json::as_num)
        .collect()
}

/// Check a response's shape: ok, value count, order. Returns the values
/// per problem.
fn validate(req: &Req, doc: &Json) -> Result<Vec<Vec<f64>>, String> {
    if !is_ok(doc) {
        let code = doc
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .unwrap_or("malformed");
        return Err(format!("{} request refused: {code}", req.class.name()));
    }
    let per_problem: Vec<&Json> = match req.class {
        Class::Batch => {
            let results = doc
                .get("results")
                .and_then(Json::as_arr)
                .ok_or("batch response without results")?;
            if results.len() != BATCH as usize || !results.iter().all(is_ok) {
                return Err("batch response with a failed or missing problem".to_string());
            }
            results.iter().collect()
        }
        _ => vec![doc],
    };
    per_problem
        .into_iter()
        .map(|p| {
            let values = values_of(p).ok_or("response without numeric values")?;
            if values.len() != req.expected_values() {
                return Err(format!(
                    "{} response carries {} values, expected {}",
                    req.class.name(),
                    values.len(),
                    req.expected_values()
                ));
            }
            if !check::ascending(&values) {
                return Err(format!(
                    "{} response values not ascending",
                    req.class.name()
                ));
            }
            Ok(values)
        })
        .collect()
}

/// Send `reqs` one at a time over `client`, timing send → response line
/// parsed. Values of the first `keep` responses are kept for verification.
fn closed_loop(client: &mut Client, reqs: &[Req], first_id: u64, keep: usize) -> Vec<Sample> {
    let mut out = Vec::with_capacity(reqs.len());
    for (i, req) in reqs.iter().enumerate() {
        let line = req.line(first_id + i as u64);
        let start = Instant::now();
        let reply = client
            .send(&line)
            .and_then(|()| client.recv_raw())
            .map_err(|e| format!("connection error: {e}"))
            .and_then(|raw| raw.ok_or_else(|| "server closed the connection".to_string()))
            .and_then(|raw| {
                jsonv::parse(&raw)
                    .map(|doc| (raw.len(), doc))
                    .map_err(|e| format!("malformed response: {e}"))
            });
        let ms = ms_since(start);
        let (bytes, checked) = match reply {
            Ok((bytes, doc)) => (bytes, validate(req, &doc)),
            Err(e) => (0, Err(e)),
        };
        let (values, error) = match checked {
            Ok(v) => ((i < keep).then_some(v), None),
            Err(e) => (None, Some(e)),
        };
        out.push(Sample {
            class: req.class,
            ms,
            bytes,
            error,
            values,
        });
    }
    out
}

/// Counters of the `metrics` verb the load phase is bracketed with.
const VERB_COUNTERS: [&str; 5] = [
    "accepted",
    "completed",
    "shed",
    "tasks_executed",
    "max_queue_depth",
];

fn verb_counters(addr: SocketAddr) -> Result<Vec<f64>, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("metrics connect: {e}"))?;
    let doc = client
        .call(r#"{"op":"metrics"}"#)
        .map_err(|e| format!("metrics verb: {e}"))?;
    let m = doc
        .get("metrics")
        .ok_or("metrics verb without a metrics object")?;
    VERB_COUNTERS
        .iter()
        .map(|k| {
            m.get(k)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("metrics verb without \"{k}\""))
        })
        .collect()
}

/// One set-up: start a daemon, connect the clients, send each a few
/// warm-up requests. Returns its wall time with what it built.
fn set_up(
    scale: &Scale,
    clients: usize,
    warm_up: &[Req],
    spans: &mut Spans,
) -> Result<(f64, Server, Vec<Client>), String> {
    let start = Instant::now();
    let (server, _) = spans.time("serve.start", || {
        Server::start(ServerConfig {
            threads: scale.threads,
            ..ServerConfig::default()
        })
    });
    let server = server.map_err(|e| format!("server start: {e}"))?;
    let mut connected = Vec::with_capacity(clients);
    let warm = spans.enter("warmup");
    for _ in 0..clients {
        let mut client =
            Client::connect(server.addr()).map_err(|e| format!("client connect: {e}"))?;
        if let Some(e) = closed_loop(&mut client, warm_up, 0, 0)
            .into_iter()
            .find_map(|s| s.error)
        {
            return Err(format!("warm-up request failed: {e}"));
        }
        connected.push(client);
    }
    spans.exit(warm);
    Ok((start.elapsed().as_secs_f64(), server, connected))
}

/// Solve one request's problems in-process on `rt`, as the daemon does
/// (generate, submit, wait; a batch submits all before waiting on any).
fn solve_in_process(
    req: &Req,
    rt: &Runtime,
    threads: usize,
) -> Result<Vec<(Eigen, DcStats)>, String> {
    let ts: Vec<SymTridiag> = req.seeds().into_iter().map(|s| req.matrix(s)).collect();
    TaskFlowDc::new(opts(threads, req.mode()))
        .solve_batch_on(&ts, rt)
        .into_iter()
        .map(|r| r.map_err(|e| format!("in-process {} solve failed: {e}", req.class.name())))
        .collect()
}

/// Run `reqs` sequentially on a fresh `threads`-worker runtime, traced or
/// not; the whole deck is one [`TracedRun`].
fn deck_in_process(reqs: &[Req], threads: usize, traced: bool) -> Result<TracedRun, String> {
    let rt = Runtime::new(threads);
    if traced {
        rt.enable_tracing();
    }
    let before = dcst_matrix::metrics::snapshot();
    let start = Instant::now();
    let mut merges = Vec::new();
    for req in reqs {
        for (_, stats) in solve_in_process(req, &rt, threads)? {
            merges.extend(stats.merges);
        }
    }
    Ok(TracedRun {
        wall_ms: ms_since(start),
        trace: rt.take_trace(),
        runtime: rt.runtime_metrics(),
        counters: dcst_matrix::metrics::snapshot().delta(&before),
        merges,
    })
}

/// The `serve.*` metrics of a workload no request touches: all zero.
pub fn not_applicable(spec: &Spec) -> Vec<MetricValue> {
    spec.per_layer
        .iter()
        .filter(|d| d.name.starts_with("serve."))
        .map(|d| MetricValue::new(&d.name, 0.0).note("not applicable: no daemon in this workload"))
        .collect()
}

/// Run the workload. `corrupt` damages the kept responses before they are
/// verified: the test-suite's proof that a wrong answer is counted.
pub fn run(
    seed: u64,
    scale: &Scale,
    passes: Passes,
    corrupt: bool,
    spans: &mut Spans,
) -> Result<RunRecord, String> {
    let threads = scale.threads;
    let decks = if passes.end_to_end() {
        scale.serve_decks
    } else {
        scale.serve_layer_decks
    };
    let seqs: Vec<Vec<Req>> = (0..threads)
        .map(|c| sequence(scale, seed, c, decks))
        .collect();
    let deck_len = seqs[0].len() / decks.max(1);
    let mut tally = Tally::default();

    // Set-up, several times; the last daemon serves the load.
    let setup_span = spans.enter("setup");
    let warm_up = warm_up(scale, seed);
    let mut setup_all = Vec::new();
    let mut live = None;
    for _ in 0..scale.setups.max(1) {
        drop(live.take());
        let (secs, server, clients) = set_up(scale, threads, &warm_up, spans)?;
        setup_all.push(secs);
        live = Some((server, clients));
    }
    spans.exit(setup_span);
    let (server, mut clients) = live.expect("at least one set-up ran");
    let addr = server.addr();

    // Load: every client runs its sequence, closed loop, concurrently.
    let before = verb_counters(addr)?;
    let load_span = spans.enter("load");
    let load_start = Instant::now();
    let (load_alloc, per_client) = alloc::measure(|| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(&seqs)
                .enumerate()
                .map(|(c, (client, seq))| {
                    let keep = if c == 0 { deck_len } else { 0 };
                    scope.spawn(move || closed_loop(client, seq, 1_000_000 * (c as u64 + 1), keep))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("load client thread"))
                .collect::<Vec<Vec<Sample>>>()
        })
    });
    let load_s = load_start.elapsed().as_secs_f64();
    spans.exit(load_span);
    let after = verb_counters(addr)?;

    let samples: Vec<&Sample> = per_client.iter().flatten().collect();
    let mut ok = 0usize;
    for s in &samples {
        tally.attempt();
        match &s.error {
            None => ok += 1,
            Some(e) => tally.fail(e.clone()),
        }
    }
    let lat = Summary::of(&samples.iter().map(|s| s.ms).collect::<Vec<_>>());

    // Verify client 0's first deck — one request of every kind — against
    // in-process sequential solves; their times are `seq_p50_ms`. Each
    // problem is solved `VERIFY_PASSES` times, a whole deck per pass, so
    // the samples span seconds: this box's speed wanders by ±15 % from
    // one second to the next, and a one-second window inherits all of it.
    let verify_span = spans.enter("verify");
    let seq_solver = |mode| SequentialDc::new(opts(1, mode));
    let mut seq_ms = Vec::new();
    for pass in 0..VERIFY_PASSES {
        for (req, sample) in seqs[0].iter().zip(&per_client[0]) {
            let Some(values) = &sample.values else {
                continue;
            };
            for (problem_seed, got) in req.seeds().into_iter().zip(values) {
                let t = req.matrix(problem_seed);
                let start = Instant::now();
                let reference = seq_solver(req.mode()).solve(&t);
                seq_ms.push(ms_since(start));
                if pass > 0 {
                    continue;
                }
                tally.attempt();
                let mut got = got.clone();
                if corrupt {
                    got[0] -= 1e-3 * t.max_norm();
                }
                match reference {
                    Err(e) => tally.fail(format!("reference solve failed: {e}")),
                    Ok(reference) => {
                        let diff = check::max_abs_diff(&got, &reference.values);
                        if check::over(diff, check::value_tol(&t)) {
                            tally.fail(format!(
                                "{} response differs from SequentialDc by {diff:e} (type {} n {})",
                                req.class.name(),
                                req.ty,
                                req.n
                            ));
                        }
                    }
                }
            }
        }
    }
    spans.exit(verify_span);
    if seq_ms.is_empty() {
        return Err("no response could be verified: every kept request failed".to_string());
    }
    let seq = Summary::of(&seq_ms);

    // Allocation high-water of each request of one deck, sent alone: the
    // median is what a typical request costs. (The high-water of a whole
    // pass depends on which temporaries of a batch happen to overlap, and
    // wanders by 20 % between identical runs.)
    let mut peak_mb = Vec::with_capacity(deck_len);
    for (i, req) in seqs[0][..deck_len].iter().enumerate() {
        let (used, sample) = alloc::measure(|| {
            closed_loop(
                &mut clients[0],
                std::slice::from_ref(req),
                9_000_000 + i as u64,
                0,
            )
        });
        peak_mb.push(used.peak_mb());
        tally.attempt();
        if let Some(e) = sample.into_iter().find_map(|s| s.error) {
            tally.fail(e);
        }
    }
    let peak = Summary::of(&peak_mb);

    let mut record = RunRecord {
        workload: "serve_mix".to_string(),
        seed,
        threads,
        counts: format!(
            "clients={threads} requests_per_client={} decks={decks}x{deck_len} setups={} warmup={} verify_solves={}",
            seqs[0].len(),
            scale.setups,
            warm_up.len(),
            seq.n
        ),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
    };
    if passes.end_to_end() {
        record.end_to_end = vec![
            MetricValue::new("setup_s", stats::median(&setup_all))
                .note("daemon start + connect + warm-up requests, median of the set-ups"),
            MetricValue::new("op_p50_ms", lat.median)
                .spread(&lat)
                .note("request round trip, send → response line parsed"),
            MetricValue::new("op_tail_ms", lat.tail.value).note(format!(
                "p{:.1} of {} requests, {} beyond",
                100.0 * lat.tail.percentile,
                lat.n,
                lat.tail.beyond
            )),
            MetricValue::new("seq_p50_ms", seq.median)
                .spread(&seq)
                .note("SequentialDc::solve of one request of every kind, in process, two passes"),
            MetricValue::new("ops_per_s", ok as f64 / load_s)
                .note(format!("{ok} ok requests over the load phase")),
            MetricValue::new("peak_alloc_mb", peak.median)
                .spread(&peak)
                .note("median per-request high-water, one deck sent alone"),
        ];
    }

    if passes.layers() {
        let mut layer = Vec::new();

        // serve.*: the wire and the daemon.
        let client = &mut clients[0];
        let mut ping_us = Vec::with_capacity(scale.pings);
        for _ in 0..scale.pings.max(1) {
            let start = Instant::now();
            let pong = client
                .call(r#"{"op":"ping"}"#)
                .map_err(|e| format!("ping: {e}"))?;
            ping_us.push(start.elapsed().as_secs_f64() * 1e6);
            if !is_ok(&pong) {
                return Err("ping refused".to_string());
            }
        }
        let lines: Vec<String> = seqs[0][..deck_len]
            .iter()
            .enumerate()
            .map(|(i, r)| r.line(i as u64))
            .collect();
        let (parsed, id) = spans.time("serve.parse", || {
            lines
                .iter()
                .filter(|l| protocol::parse_request(l).1.is_ok())
                .count()
        });
        if parsed != lines.len() {
            return Err("the daemon's parser rejects a request line of the mix".to_string());
        }
        let parse_us = spans.dur_ms(id) * 1e3 / lines.len() as f64;
        let payload: Vec<f64> = (0..4096).map(|i| 1.0 / (i as f64 + 3.0)).collect();
        let (bytes, id) = spans.time("serve.num_arr", || {
            (0..50)
                .map(|_| protocol::num_arr(&payload).len())
                .sum::<usize>()
        });
        std::hint::black_box(bytes);
        let num_arr_ns = spans.dur_ms(id) * 1e6 / (50.0 * payload.len() as f64);

        // The same requests with no wire: T threads, one deck each, one
        // shared runtime.
        let rt = Runtime::new(threads);
        let (inproc, _) = spans.time("serve.in_process", || {
            std::thread::scope(|scope| {
                let handles: Vec<_> = seqs
                    .iter()
                    .map(|seq| {
                        let rt = &rt;
                        scope.spawn(move || {
                            seq[..deck_len]
                                .iter()
                                .map(|req| {
                                    let start = Instant::now();
                                    solve_in_process(req, rt, threads).map(|_| ms_since(start))
                                })
                                .collect::<Result<Vec<f64>, String>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("in-process client thread"))
                    .collect::<Result<Vec<Vec<f64>>, String>>()
            })
        });
        let inproc_p50 = stats::median(&inproc?.concat());
        drop(rt);

        let class_p50 = |class: Class| {
            let ms: Vec<f64> = samples
                .iter()
                .filter(|s| s.class == class)
                .map(|s| s.ms)
                .collect();
            stats::median(&ms)
        };
        let total_bytes: usize = samples.iter().map(|s| s.bytes).sum();
        let mut serve = vec![
            MetricValue::new("serve.ping_rtt_us", stats::median(&ping_us))
                .note(format!("median of {} pings", ping_us.len())),
            MetricValue::new("serve.parse_us_per_req", parse_us),
            MetricValue::new("serve.num_arr_ns_per_value", num_arr_ns),
            MetricValue::new("serve.inproc_p50_ms", inproc_p50)
                .note("same requests through TaskFlowDc on one shared Runtime, no wire"),
            MetricValue::new("serve.wire_overhead_ms", lat.median - inproc_p50)
                .note("request p50 − in-process p50: the unexplained remainder"),
            MetricValue::new(
                "serve.resp_bytes_per_req",
                total_bytes as f64 / samples.len() as f64,
            ),
            MetricValue::new("serve.load_peak_alloc_mb", load_alloc.peak_mb())
                .note("high-water over the whole load phase"),
        ];
        serve.extend(
            CLASSES.iter().map(|&c| {
                MetricValue::new(&format!("serve.class_p50_ms.{}", c.name()), class_p50(c))
            }),
        );
        serve.extend(
            VERB_COUNTERS
                .iter()
                .zip(before.iter().zip(&after))
                .map(|(name, (b, a))| MetricValue::new(&format!("serve.{name}"), a - b)),
        );

        // T/C: one deck in process, untraced then traced at T and at 1.
        let one_deck = &seqs[0][..deck_len];
        let span = spans.enter("traced_deck");
        let untraced = deck_in_process(one_deck, threads, false)?;
        let (par, id) = spans.time("deck_traced", || deck_in_process(one_deck, threads, true));
        let par = par?;
        spans.add_tasks(id, &par.trace);
        let one = deck_in_process(one_deck, 1, true)?;
        spans.exit(span);
        let calib: Vec<f64> = (0..8)
            .map(|_| crate::machine::calib_ms(scale.calib_iters))
            .collect();
        let (machine, peak_fma_gflops) = solver::machine_metrics(scale, &calib);
        layer.extend(machine);
        layer.extend(solver::fold_metrics(&[par], &[one], untraced.wall_ms)?);

        // X: the mix's largest low-deflation member stands for it.
        let n = scale.serve_sizes.iter().copied().max().unwrap_or(128);
        let (t, id) = spans.time("tridiag.generate", || MatrixType::Type4.generate(n, seed));
        let generate_ms = spans.dur_ms(id);
        let taskflow = TaskFlowDc::new(opts(threads, SolveMode::Full));
        let seq_full = seq_solver(SolveMode::Full);
        let (mut tf_ms, mut sq_ms) = (Vec::new(), Vec::new());
        let mut probe = None;
        for _ in 0..scale.comparator_reps.max(1) {
            let start = Instant::now();
            let a = taskflow
                .solve(&t)
                .map_err(|e| format!("probe solve: {e}"))?;
            tf_ms.push(ms_since(start));
            let start = Instant::now();
            seq_full
                .solve(&t)
                .map_err(|e| format!("probe solve: {e}"))?;
            sq_ms.push(ms_since(start));
            probe = Some(a);
        }
        let probe = probe.expect("at least one probe solve ran");
        let (gates, failures) = check::check_full(
            &t,
            &probe.values,
            &probe.vectors,
            check::ORTH_COLUMNS,
            seed,
            threads,
        );
        tally.attempt();
        for f in failures {
            tally.fail(format!("probe solve: {f}"));
        }
        let (alloc_use, _) = alloc::measure(|| taskflow.solve(&t).map(drop));
        let input = LayerInput {
            t: &t,
            mode: SolveMode::Full,
            reference: &probe.values,
            taskflow_p50_ms: stats::median(&tf_ms),
            seq_p50_ms: stats::median(&sq_ms),
            peak_fma_gflops,
        };
        layer.extend(solver::probe_metrics(&input, scale, spans)?);
        layer.extend([
            MetricValue::new("core.orth_neps", gates.orth_neps),
            MetricValue::new("core.resid_neps", gates.resid_neps),
            MetricValue::new("core.alloc_calls", alloc_use.calls as f64),
            MetricValue::new("tridiag.generate_ms", generate_ms),
        ]);
        layer.extend(serve);
        record.per_layer = layer;
    }

    drop(clients);
    drop(server);
    record.attempted = tally.attempted;
    record.failed = tally.failed;
    record.failures = tally.failures;
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_pinned_type2_mrrr_matrix_solves_at_every_order_of_the_mix() {
        let scale = Scale::for_seconds(20, 20);
        for &n in &scale.serve_sizes {
            let req = Req {
                class: Class::SubsetMrrr,
                ty: 2,
                n,
                seed: TYPE2_MRRR_SEED,
            };
            let t = req.matrix(req.seed);
            let eig = SequentialDc::new(opts(1, req.mode()))
                .solve(&t)
                .unwrap_or_else(|e| panic!("n = {n}: {e}"));
            assert_eq!(eig.values.len(), req.expected_values());
        }
        let deck = deck(&scale, &mut Rng::new(5));
        assert!(deck
            .iter()
            .filter(|r| r.ty == 2 && r.class == Class::SubsetMrrr)
            .all(|r| r.seed == TYPE2_MRRR_SEED));
    }

    #[test]
    fn warm_up_is_one_full_solve_per_order_and_type_whatever_the_seed() {
        let scale = Scale::for_seconds(20, 20);
        let kinds = |seed| -> Vec<(usize, usize)> {
            warm_up(&scale, seed).iter().map(|r| (r.n, r.ty)).collect()
        };
        assert_eq!(kinds(1).len(), 16);
        assert_eq!(kinds(1), kinds(2));
        assert!(warm_up(&scale, 1).iter().all(|r| r.class == Class::Full));
    }

    #[test]
    fn subset_ranges_fall_on_either_side_of_the_mrrr_threshold() {
        for n in [128usize, 256, 512] {
            let req = |class| Req {
                class,
                ty: 4,
                n,
                seed: 0,
            };
            // The daemon's solver hands a subset to MRRR when 16·k ≤ n.
            assert!(16 * req(Class::SubsetMrrr).expected_values() <= n);
            assert!(16 * req(Class::Subset).expected_values() > n);
        }
    }

    #[test]
    fn validate_rejects_refusals_short_and_unordered_answers() {
        let req = Req {
            class: Class::Values,
            ty: 4,
            n: 3,
            seed: 0,
        };
        let parse = |s: &str| jsonv::parse(s).unwrap();
        assert!(validate(&req, &parse(r#"{"ok":true,"values":[1,2,3]}"#)).is_ok());
        let refused = parse(r#"{"ok":false,"error":{"code":"busy","message":"x"}}"#);
        assert!(validate(&req, &refused).unwrap_err().contains("busy"));
        assert!(validate(&req, &parse(r#"{"ok":true,"values":[1,2]}"#)).is_err());
        assert!(validate(&req, &parse(r#"{"ok":true,"values":[1,3,2]}"#)).is_err());
    }
}
