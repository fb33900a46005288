//! The one place sample statistics are computed: median, quartiles, and
//! the tail rule ("the highest percentile with at least ten samples beyond
//! it"), each carried with its sample count.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default *exclusive* method), so a spread computed here equals the one a
//! reader computes from the printed values with the standard library.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;
/// No tail is reported above this percentile, however many samples exist.
pub const TAIL_CAP: f64 = 0.99;

/// Ascending copy of `values` (total order, NaN last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of an ascending slice; NaN when empty.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    median_sorted(&sorted(values))
}

/// `(q1, q3)` of an ascending slice by the exclusive method: the quantile
/// at probability `p` sits at position `(n + 1)·p` (1-based), linearly
/// interpolated, extrapolating from the end pair when it falls outside.
/// One sample gives `(x, x)`; none gives NaN.
pub fn quartiles_sorted(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n == 0 {
        return (f64::NAN, f64::NAN);
    }
    if n == 1 {
        return (sorted[0], sorted[0]);
    }
    let at = |i: usize| {
        // j = floor(i·(n+1)/4) clamped to [1, n-1]; delta = i·(n+1) − 4j.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (4 * j) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// The tail of a sample by the "ten beyond" rule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample reported as the tail.
    pub value: f64,
    /// Share of samples at or below `value`, in `[0, 1]`.
    pub percentile: f64,
    /// Samples strictly beyond `value`'s position.
    pub beyond: usize,
}

/// Highest percentile (capped at [`TAIL_CAP`]) that still has at least
/// [`TAIL_BEYOND`] samples beyond it. With fewer than `TAIL_BEYOND + 1`
/// samples no such percentile exists and the median stands in (its
/// `beyond` then says how little supports it).
pub fn tail_sorted(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    if n == 0 {
        return Tail {
            value: f64::NAN,
            percentile: f64::NAN,
            beyond: 0,
        };
    }
    if n <= TAIL_BEYOND {
        return Tail {
            value: median_sorted(sorted),
            percentile: 0.5,
            beyond: n / 2,
        };
    }
    // 1-based rank of the reported sample: at most n − TAIL_BEYOND, and at
    // most ceil(cap·n).
    let by_rule = n - TAIL_BEYOND;
    let by_cap = ((TAIL_CAP * n as f64).ceil() as usize).max(1);
    let rank = by_rule.min(by_cap);
    Tail {
        value: sorted[rank - 1],
        percentile: rank as f64 / n as f64,
        beyond: n - rank,
    }
}

/// Median, quartiles and tail of one sample, with its count.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub tail: Tail,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values);
        let (q1, q3) = quartiles_sorted(&s);
        Summary {
            n: s.len(),
            median: median_sorted(&s),
            q1,
            q3,
            tail: tail_sorted(&s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_sorted(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: extrapolated.
        assert_eq!(quartiles_sorted(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(
            quartiles_sorted(&[10.0, 20.0, 40.0, 80.0, 160.0]),
            (15.0, 120.0)
        );
        assert_eq!(quartiles_sorted(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 40 samples: rank 30 is the highest with 10 beyond → p75.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail_sorted(&v);
        assert_eq!((t.value, t.beyond), (30.0, 10));
        assert!((t.percentile - 0.75).abs() < 1e-15);
        // 11 samples: only the smallest has ten beyond it.
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail_sorted(&v).value, 1.0);
    }

    #[test]
    fn tail_is_capped_at_p99() {
        // 8000 samples: the rule alone would give p99.875; the cap holds
        // it at p99 with 80 beyond.
        let v: Vec<f64> = (1..=8000).map(f64::from).collect();
        let t = tail_sorted(&v);
        assert_eq!((t.value, t.beyond), (7920.0, 80));
        assert!((t.percentile - 0.99).abs() < 1e-15);
    }

    #[test]
    fn tail_falls_back_to_median_when_too_few() {
        let t = tail_sorted(&sorted(&[5.0, 1.0, 9.0]));
        assert_eq!((t.value, t.percentile, t.beyond), (5.0, 0.5, 1));
        assert!(tail_sorted(&[]).value.is_nan());
    }

    #[test]
    fn summary_carries_the_count() {
        let s = Summary::of(&[2.0, 4.0, 6.0]);
        assert_eq!((s.n, s.median, s.q1, s.q3), (3, 4.0, 2.0, 6.0));
    }
}
