//! Median, quartiles and spread of a handful of samples.
//!
//! A run has five to a dozen timed repeats, so nothing beyond the quartiles
//! is reported: no higher percentile would have ten samples beyond it.

/// Summary of one metric's samples. A run is known by the median of its
/// repeats.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// How well the median is pinned down: the distance between the first
    /// and the third quartile as a share of the median. A metric whose
    /// spread is wider than its bound is reported as unresolved.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `p`-quantile of `sorted` by the rule of Python's
/// `statistics.quantiles(method="exclusive")`: position `p * (n + 1)`,
/// counted from one, interpolated linearly and clamped to the sample range.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let pos = p * (n as f64 + 1.0);
    let lo = (pos.floor() as usize).clamp(1, n.max(2) - 1).min(n);
    let hi = (lo + 1).min(n);
    let frac = (pos - lo as f64).clamp(0.0, 1.0);
    sorted[lo - 1] + (sorted[hi - 1] - sorted[lo - 1]) * frac
}

/// Median and quartiles of `samples`; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some(Summary {
        n: s.len(),
        median: quantile(&s, 0.5),
        q1: quantile(&s, 0.25),
        q3: quantile(&s, 0.75),
    })
}

/// Median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(0.0, |s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // With two samples Python extrapolates beyond them ([7.5, 15, 22.5]);
        // the benchmark clamps to the samples instead.
        let s = summarize(&[10.0, 20.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (10.0, 15.0, 20.0));
    }

    #[test]
    fn spread_is_interquartile_range_over_median() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!((s.median, s.q1, s.q3), (3.0, 1.5, 4.5));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        let flat = summarize(&[2.0; 6]).unwrap();
        assert_eq!(flat.spread(), 0.0);
    }
}
