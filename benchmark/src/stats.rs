//! Medians and quartiles over small sample sets.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is how the benchmark's
//! run-to-run spread is judged: `(q3 - q1) / median`.

use sfs_trace::json::obj;
use sfs_trace::Json;

/// The samples of one timed quantity over a run's repetitions.
#[derive(Debug, Clone, PartialEq)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    /// The median (0.0 for an empty set).
    pub fn median(&self) -> f64 {
        quartiles(&self.0).1
    }

    /// `(q3 − q1) / median`, the spread `compare` holds against a bound.
    pub fn spread(&self) -> f64 {
        let (q1, med, q3) = quartiles(&self.0);
        if med == 0.0 {
            0.0
        } else {
            (q3 - q1) / med.abs()
        }
    }

    /// `{median, q1, q3, n, samples}` as result files carry it.
    pub fn to_json(&self) -> Json {
        let (q1, med, q3) = quartiles(&self.0);
        obj(vec![
            ("median", Json::Num(med)),
            ("q1", Json::Num(q1)),
            ("q3", Json::Num(q3)),
            ("n", Json::Int(self.0.len() as i128)),
            (
                "samples",
                Json::Arr(self.0.iter().map(|&x| Json::Num(x)).collect()),
            ),
        ])
    }

    /// Reads back [`Samples::to_json`].
    pub fn from_json(v: &Json) -> Option<Samples> {
        let arr = v.get("samples")?.as_arr()?;
        arr.iter()
            .map(Json::as_f64)
            .collect::<Option<Vec<f64>>>()
            .map(Samples)
    }
}

/// `(q1, median, q3)` of `values`. One value is its own quartiles; an
/// empty slice gives zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        n => {
            let cut = |i: usize| {
                let m = n + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                // May exceed 4 (or go negative) at the clamped ends:
                // Python extrapolates there, and so do we.
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([5,1,9,3,7,2,8], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(
            quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]),
            (2.0, 5.0, 8.0)
        );
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Samples((1..=10).map(f64::from).collect());
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Samples(vec![4.0]).spread(), 0.0);
    }

    #[test]
    fn samples_round_trip_through_json() {
        let s = Samples(vec![0.125, 3.5, 2.0]);
        let text = s.to_json().to_string();
        let back = Samples::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
    }
}
