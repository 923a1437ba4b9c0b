//! Order statistics used by every reported number.
//!
//! Two interpolation rules live here on purpose. [`percentile`] is the
//! inclusive linear rule (`p = 0` is the minimum, `p = 1` the maximum) used
//! inside one run over its passes. [`quartiles_exclusive`] reproduces
//! Python's `statistics.quantiles(values, n=4)`, which is what the
//! acceptance procedure applies across runs, so `repeat` reports the same
//! spread the driver will compute.

/// Sorted copy of `values` (total order; NaN sorts last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Inclusive linear-interpolated percentile of an already sorted slice.
/// `p` is clamped to `[0, 1]`; an empty slice yields 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default *exclusive* method) computes them. Needs two values.
pub fn quartiles_exclusive(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        // Python: j = i*(n+1)//4 clamped to [1, n-1]; delta = i*(n+1) - j*4.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Distance between the exclusive quartiles as a share of the median: the
/// run-to-run spread the acceptance procedure bounds.
pub fn iqr_share(values: &[f64]) -> f64 {
    match quartiles_exclusive(values) {
        Some((q1, q2, q3)) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

/// Summary of one per-pass series: what a run prints beside its headline.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub p90: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values);
        Summary {
            n: s.len(),
            min: percentile(&s, 0.0),
            p25: percentile(&s, 0.25),
            p50: percentile(&s, 0.5),
            p75: percentile(&s, 0.75),
            p90: percentile(&s, 0.9),
            max: percentile(&s, 1.0),
        }
    }

    /// Interquartile range as a share of the median.
    pub fn iqr_share(&self) -> f64 {
        if self.p50 == 0.0 {
            0.0
        } else {
            (self.p75 - self.p25) / self.p50.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_inclusive_and_interpolates() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 5.0);
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert!((percentile(&s, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn exclusive_quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles_exclusive(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q2 - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let (q1, q2, q3) = quartiles_exclusive(&[3.0, 1.0, 4.0, 1.0, 5.0]).unwrap();
        assert_eq!((q1, q2, q3), (1.0, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles_exclusive(&[1.0, 2.0]).unwrap(), (0.75, 1.5, 2.25));
        assert!(quartiles_exclusive(&[1.0]).is_none());
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn summary_orders_its_fields() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.n, s.min, s.p50, s.max), (5, 1.0, 3.0, 5.0));
        assert!(s.min <= s.p25 && s.p25 <= s.p50 && s.p50 <= s.p75 && s.p75 <= s.p90);
        assert!((s.iqr_share() - 2.0 / 3.0).abs() < 1e-12);
    }
}
