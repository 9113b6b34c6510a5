//! Summary statistics: mean and percentile summaries.

/// A percentile summary over a batch of observations.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    sorted: Vec<f64>,
}

impl Summary {
    /// Builds a summary from observations (order irrelevant).
    pub fn from(values: impl IntoIterator<Item = f64>) -> Summary {
        let mut sorted: Vec<f64> = values.into_iter().collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in summary"));
        Summary { sorted }
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Percentile in `[0, 100]` by nearest-rank with interpolation.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = p / 100.0 * (self.sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        if lo == hi {
            self.sorted[lo]
        } else {
            let frac = rank - lo as f64;
            self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
        }
    }

    /// Median (p50).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_stats_are_zero() {
        let s = Summary::from([]);
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.percentile(50.0), 0.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let s = Summary::from([0.0, 10.0]);
        assert_eq!(s.percentile(0.0), 0.0);
        assert_eq!(s.percentile(50.0), 5.0);
        assert_eq!(s.percentile(100.0), 10.0);
        assert_eq!(s.median(), 5.0);
    }

    #[test]
    fn single_value_summary() {
        let s = Summary::from([7.0]);
        assert_eq!(s.median(), 7.0);
        assert_eq!(s.mean(), 7.0);
    }

    proptest! {
        #[test]
        fn percentile_is_monotone(mut xs in proptest::collection::vec(-1e6f64..1e6, 1..100),
                                  p1 in 0.0f64..100.0, p2 in 0.0f64..100.0) {
            xs.iter_mut().for_each(|x| *x = x.round());
            let s = Summary::from(xs);
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            prop_assert!(s.percentile(lo) <= s.percentile(hi) + 1e-9);
        }

        #[test]
        fn mean_within_min_max(xs in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
            let s = Summary::from(xs);
            prop_assert!(s.mean() >= s.percentile(0.0) - 1e-9);
            prop_assert!(s.mean() <= s.percentile(100.0) + 1e-9);
        }
    }
}
