//! The repository's one benchmark (`dcst-bench run`): four workloads, six
//! end-to-end metrics and a per-layer ladder, recorded in the root
//! `BENCHMARK.json`. See this package's `README.md`.
//!
//! Every layer is measured from outside: by timing calls into its public
//! functions and by folding the `Trace` / `DcStats` / counter values those
//! functions already return. Nothing here is called by the solver.

pub mod alloc;
pub mod check;
pub mod compare;
pub mod layers;
pub mod machine;
pub mod provenance;
pub mod replay;
pub mod report;
pub mod serve_mix;
pub mod solver;
pub mod spans;
pub mod stats;

use dcst_runtime::jsonv::{self, Json};

/// The benchmark definition, embedded at build time: the single source of
/// workload names, metric names, units, directions and bounds.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Clone, Debug)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// `BENCHMARK.json`, parsed.
#[derive(Clone, Debug)]
pub struct Spec {
    pub run_seconds: u64,
    /// `(name, why)`.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Spec {
    /// The embedded definition. Panics when it is malformed: that is a
    /// broken build, not a runtime condition.
    pub fn embedded() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("embedded BENCHMARK.json is well-formed")
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = jsonv::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let arr = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: missing array \"{key}\""))
        };
        let text_of = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without string \"{key}\""))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            arr(key)?
                .iter()
                .map(|m| {
                    Ok(MetricDef {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        better: match text_of(m, "better")?.as_str() {
                            "lower" => Better::Lower,
                            "higher" => Better::Higher,
                            other => return Err(format!("BENCHMARK.json: better = \"{other}\"")),
                        },
                        bound: m.get("bound").and_then(Json::as_num),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_num)
                .ok_or("BENCHMARK.json: missing run_seconds")? as u64,
            workloads: arr("workloads")?
                .iter()
                .map(|w| Ok((text_of(w, "name")?, text_of(w, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    pub fn has_workload(&self, name: &str) -> bool {
        self.workloads.iter().any(|(n, _)| n == name)
    }
}

/// Splitmix64: the harness's only source of randomness, so the same
/// `--seed` gives the same inputs on every machine.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound` > 0; the modulo bias is irrelevant
    /// at the bounds used here).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Which passes a run makes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Passes {
    /// Tracing off: the end-to-end metrics (`--trace 0`).
    EndToEnd,
    /// Traced: the per-layer metrics (`--trace 1`).
    Layers,
    /// Both, in one process over identical inputs (no `--trace`).
    Both,
}

impl Passes {
    pub fn end_to_end(self) -> bool {
        self != Passes::Layers
    }
    pub fn layers(self) -> bool {
        self != Passes::EndToEnd
    }
}

/// Every count the workloads use. All work is fixed by these counts, never
/// time-boxed, so both sides of a comparison do identical work; `--seconds`
/// only selects the counts (see [`Scale::for_seconds`]).
#[derive(Clone, Debug)]
pub struct Scale {
    /// `T`: worker threads of the parallel paths and closed-loop clients.
    pub threads: usize,
    /// Matrix order of `dense_t4`, `deflate_t2`, `values_t6`.
    pub solver_n: [usize; 3],
    /// Timed rounds of the end-to-end pass, per solver workload.
    pub rounds: [usize; 3],
    /// Untraced rounds the layer pass runs when it has no end-to-end pass
    /// to borrow medians from.
    pub layer_rounds: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Traced solves per thread count.
    pub traced_reps: usize,
    /// Solves per comparator (1-thread task-flow, forced-dense, fork-join,
    /// level-parallel).
    pub comparator_reps: usize,
    /// Matrix orders of the serve mix (repeats weight a size).
    pub serve_sizes: Vec<usize>,
    /// Matrix types of the serve mix.
    pub serve_types: Vec<usize>,
    /// Passes over the request deck per client, end-to-end pass.
    pub serve_decks: usize,
    /// Same, for the load phase of a layers-only run.
    pub serve_layer_decks: usize,
    pub pings: usize,
    /// Rounds of the FMA probe's register loop.
    pub fma_iters: u64,
    /// Bytes per stream-triad array; `None` sizes it from the machine.
    pub triad_bytes: Option<u64>,
    /// Iterations of the per-round calibration chain.
    pub calib_iters: u64,
    /// Depth of the scheduler storm's binary task tree.
    pub storm_depth: u32,
}

impl Scale {
    /// The benchmark's counts at `seconds` of nominal measuring time,
    /// `nominal` being `run_seconds` of `BENCHMARK.json`. At
    /// `seconds == nominal` these are the counts the README tables quote;
    /// other values scale rounds and request decks proportionally (never
    /// below two rounds or one deck).
    pub fn for_seconds(seconds: u64, nominal: u64) -> Scale {
        let f = seconds.max(1) as f64 / nominal.max(1) as f64;
        let scaled = |base: usize, floor: usize| ((base as f64 * f).ceil() as usize).max(floor);
        Scale {
            threads: dcst_bench::max_threads(),
            solver_n: [2000, 4000, 4000],
            rounds: [scaled(40, 2), scaled(30, 2), scaled(40, 2)],
            layer_rounds: scaled(8, 2),
            setups: 3,
            traced_reps: 5,
            comparator_reps: 5,
            serve_sizes: vec![128, 256, 256, 512],
            serve_types: vec![2, 4, 6, 10],
            serve_decks: scaled(8, 1),
            serve_layer_decks: scaled(2, 1),
            pings: 200,
            fma_iters: 20_000_000,
            triad_bytes: None,
            calib_iters: 4_000_000,
            storm_depth: 12,
        }
    }

    /// Toy counts for the test-suite: same code, seconds not minutes.
    pub fn toy() -> Scale {
        Scale {
            threads: 2,
            solver_n: [128, 128, 128],
            rounds: [2, 2, 2],
            layer_rounds: 2,
            setups: 1,
            traced_reps: 1,
            comparator_reps: 1,
            serve_sizes: vec![128],
            serve_types: vec![4],
            serve_decks: 1,
            serve_layer_decks: 1,
            pings: 5,
            fma_iters: 10_000,
            triad_bytes: Some(1 << 20),
            calib_iters: 10_000,
            storm_depth: 4,
        }
    }
}

/// Run one workload, by its `BENCHMARK.json` name. `Err` is a harness-level failure (unknown workload, a
/// metric missing from `BENCHMARK.json`, less than 98 % of busy time
/// attributed, a replay that disagrees); failed operations are *counted*
/// in the record instead.
pub fn run_workload(
    name: &str,
    seed: u64,
    scale: &Scale,
    passes: Passes,
) -> Result<(report::RunRecord, spans::Spans), String> {
    let mut spans = spans::Spans::new(name);
    let record = match solver::SOLVER_WORKLOADS.iter().find(|w| w.name == name) {
        Some(w) => solver::run(w, seed, scale, passes, false, &mut spans)?,
        None if name == "serve_mix" => serve_mix::run(seed, scale, passes, false, &mut spans)?,
        None => return Err(format!("unknown workload '{name}'")),
    };
    Ok((record, spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_spec_names_the_workloads_and_bounds() {
        let spec = Spec::embedded();
        let mut runnable: Vec<&str> = solver::SOLVER_WORKLOADS.iter().map(|w| w.name).collect();
        runnable.push("serve_mix");
        let names: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, runnable);
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn rng_is_reproducible_and_shuffles_a_permutation() {
        let (mut a, mut b) = (Rng::new(9), Rng::new(9));
        assert_eq!(a.next_u64(), b.next_u64());
        let mut v: Vec<u32> = (0..50).collect();
        a.shuffle(&mut v);
        assert_ne!(v, (0..50).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn seconds_scale_the_counts_but_never_to_nothing() {
        let nominal = Scale::for_seconds(20, 20);
        assert_eq!(nominal.rounds, [40, 30, 40]);
        assert_eq!(nominal.serve_decks, 8);
        let tiny = Scale::for_seconds(1, 20);
        assert_eq!(tiny.rounds, [2, 2, 2]);
        assert_eq!(tiny.serve_decks, 1);
    }
}
