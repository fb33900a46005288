//! `dcst-bench compare A B`: per (workload, end-to-end metric) verdict of
//! record file `B` (the change) against `A` (the parent).
//!
//! Each side's value is the median over its runs; its spread is the
//! distance between the quartiles of those runs as a share of the median
//! (the range when a side has fewer than four runs, and a single run's own
//! sample quartiles when that is all there is). The bound comes from
//! `BENCHMARK.json`. Verdicts follow the choosing-metrics rule:
//!
//! * `worse` — the change's median is worse than the parent's by more than
//!   the bound, and either the spread is within the bound or every run of
//!   the change is worse than every run of the parent; also any increase
//!   of the failed fraction;
//! * `unresolved` — the spread is wider than the bound, so "no worse"
//!   cannot be shown (unless every run of the change beats every run of
//!   the parent, which is `better`);
//! * `better` — every run of the change beats every run of the parent and
//!   the medians differ by more than the spread;
//! * `within` — otherwise.

use crate::report::ReadRecord;
use crate::stats::{median_sorted, quartiles_sorted, sorted};
use crate::{Better, Spec};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's runs of one metric.
#[derive(Clone, Debug, Default)]
pub struct Side {
    pub values: Vec<f64>,
    /// A lone run's own sample quartiles, if it carried them.
    pub own_quartiles: Option<(f64, f64)>,
}

impl Side {
    pub fn median(&self) -> f64 {
        median_sorted(&sorted(&self.values))
    }

    /// Spread as a share of the median (0 when nothing measures it).
    pub fn spread(&self) -> f64 {
        let s = sorted(&self.values);
        let width = match s.len() {
            0 => 0.0,
            1 => self.own_quartiles.map_or(0.0, |(q1, q3)| q3 - q1),
            2 | 3 => s[s.len() - 1] - s[0],
            _ => {
                let (q1, q3) = quartiles_sorted(&s);
                q3 - q1
            }
        };
        let m = median_sorted(&s);
        if m == 0.0 {
            0.0
        } else {
            (width / m).abs()
        }
    }
}

/// Verdict for one metric: `a` the parent's runs, `b` the change's.
pub fn judge(a: &Side, b: &Side, better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (a.median(), b.median());
    // Signed so that positive means the change is worse.
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let all =
        |f: &dyn Fn(f64, f64) -> bool| b.values.iter().all(|&x| a.values.iter().all(|&y| f(x, y)));
    let all_better = all(&|x, y| beats(x, y));
    let all_worse = all(&|x, y| beats(y, x));
    let spread = a.spread().max(b.spread());
    let noisy = spread > bound;
    if worse_by > bound && (!noisy || all_worse) {
        Verdict::Worse
    } else if all_better && -worse_by > spread {
        Verdict::Better
    } else if noisy {
        Verdict::Unresolved
    } else {
        Verdict::Within
    }
}

/// One printed row.
#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

fn side(records: &[ReadRecord], workload: &str, metric: &str) -> Side {
    let mut side = Side::default();
    for r in records.iter().filter(|r| r.workload == workload) {
        if let Some((_, m)) = r.end_to_end.iter().find(|(n, _)| n == metric) {
            side.values.push(m.value);
            side.own_quartiles = m.quartiles;
        }
    }
    side
}

/// Compare two record sets over every workload and end-to-end metric the
/// spec names and both sides measured, plus the failed fraction.
pub fn compare(spec: &Spec, a: &[ReadRecord], b: &[ReadRecord]) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, _) in &spec.workloads {
        for def in &spec.end_to_end {
            let (sa, sb) = (side(a, workload, &def.name), side(b, workload, &def.name));
            if sa.values.is_empty() || sb.values.is_empty() {
                continue;
            }
            let bound = def.bound.unwrap_or(0.0);
            rows.push(Row {
                workload: workload.clone(),
                metric: def.name.clone(),
                a: sa.median(),
                b: sb.median(),
                spread: sa.spread().max(sb.spread()),
                bound,
                verdict: judge(&sa, &sb, def.better, bound),
            });
        }
        let frac = |records: &[ReadRecord]| {
            let of: Vec<&ReadRecord> = records.iter().filter(|r| r.workload == *workload).collect();
            let attempted: f64 = of.iter().map(|r| r.attempted).sum();
            (!of.is_empty()).then(|| of.iter().map(|r| r.failed).sum::<f64>() / attempted.max(1.0))
        };
        if let (Some(fa), Some(fb)) = (frac(a), frac(b)) {
            rows.push(Row {
                workload: workload.clone(),
                metric: "failed_frac".to_string(),
                a: fa,
                b: fb,
                spread: 0.0,
                bound: 0.0,
                // Any increase is a regression.
                verdict: if fb > fa {
                    Verdict::Worse
                } else if fb < fa {
                    Verdict::Better
                } else {
                    Verdict::Within
                },
            });
        }
    }
    rows
}

/// The table `compare` prints.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<18} {:<14} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict\n",
        "workload", "metric", "A median", "B median", "change", "spread", "bound"
    );
    for r in rows {
        let change = if r.a == 0.0 { 0.0 } else { (r.b - r.a) / r.a };
        out.push_str(&format!(
            "{:<18} {:<14} {:>14.6} {:>14.6} {:>+7.1}% {:>7.1}% {:>6.0}%  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            100.0 * change,
            100.0 * r.spread,
            100.0 * r.bound,
            r.verdict.name()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(values: &[f64]) -> Side {
        Side {
            values: values.to_vec(),
            own_quartiles: None,
        }
    }

    #[test]
    fn quiet_runs_resolve_to_within_worse_or_better() {
        let a = side(&[100.0, 101.0, 99.0, 100.5]);
        assert_eq!(
            judge(
                &a,
                &side(&[103.0, 104.0, 102.0, 103.5]),
                Better::Lower,
                0.10
            ),
            Verdict::Within
        );
        assert_eq!(
            judge(
                &a,
                &side(&[120.0, 121.0, 119.0, 120.5]),
                Better::Lower,
                0.10
            ),
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &side(&[80.0, 81.0, 79.0, 80.5]), Better::Lower, 0.10),
            Verdict::Better
        );
        // For a higher-is-better metric the same numbers flip.
        assert_eq!(
            judge(&a, &side(&[80.0, 81.0, 79.0, 80.5]), Better::Higher, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            judge(
                &a,
                &side(&[120.0, 121.0, 119.0, 120.5]),
                Better::Higher,
                0.10
            ),
            Verdict::Better
        );
    }

    #[test]
    fn noisy_runs_are_unresolved_unless_every_run_agrees() {
        let a = side(&[100.0, 130.0, 90.0, 115.0]);
        // Overlapping and noisy: cannot be called unchanged.
        assert_eq!(
            judge(&a, &side(&[105.0, 125.0, 95.0, 118.0]), Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Noisy, but every run of the change is worse than every parent run.
        assert_eq!(
            judge(
                &a,
                &side(&[150.0, 180.0, 140.0, 165.0]),
                Better::Lower,
                0.10
            ),
            Verdict::Worse
        );
        // Noisy, but every run of the change beats every parent run.
        assert_eq!(
            judge(&a, &side(&[50.0, 60.0, 45.0, 55.0]), Better::Lower, 0.10),
            Verdict::Better
        );
    }

    #[test]
    fn small_sets_fall_back_to_range_and_own_quartiles() {
        assert!((side(&[100.0, 110.0]).spread() - 10.0 / 105.0).abs() < 1e-12);
        let lone = Side {
            values: vec![100.0],
            own_quartiles: Some((95.0, 107.0)),
        };
        assert!((lone.spread() - 0.12).abs() < 1e-12);
        assert_eq!(side(&[100.0]).spread(), 0.0);
    }

    #[test]
    fn failed_fraction_increase_is_worse() {
        let spec = Spec::embedded();
        let rec = |failed: f64| ReadRecord {
            workload: "serve_mix".to_string(),
            attempted: 100.0,
            failed,
            end_to_end: vec![],
        };
        let rows = compare(&spec, &[rec(0.0)], &[rec(1.0)]);
        assert_eq!(rows.len(), 1);
        assert_eq!(
            (rows[0].metric.as_str(), rows[0].verdict),
            ("failed_frac", Verdict::Worse)
        );
        assert!(render(&rows).contains("worse"));
    }
}
