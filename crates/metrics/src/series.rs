//! Time series: ordered `(x, y)` samples with the reductions the
//! experiment harnesses need (interpolation, unit scaling).

/// An ordered series of `(x, y)` samples. `x` is typically seconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    name: String,
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Creates an empty series with a display name.
    pub fn new(name: impl Into<String>) -> TimeSeries {
        TimeSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// The series' display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample; `x` must be non-decreasing.
    ///
    /// # Panics
    ///
    /// Panics if `x` is smaller than the previous sample's `x`.
    pub fn push(&mut self, x: f64, y: f64) {
        if let Some(&(last_x, _)) = self.points.last() {
            assert!(x >= last_x, "samples must be pushed in x order");
        }
        self.points.push((x, y));
    }

    /// The samples.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Linear interpolation of y at `x`; clamps outside the domain.
    pub fn at(&self, x: f64) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        if x <= self.points[0].0 {
            return self.points[0].1;
        }
        if x >= self.points[self.points.len() - 1].0 {
            return self.points[self.points.len() - 1].1;
        }
        let idx = self
            .points
            .partition_point(|&(px, _)| px <= x)
            .min(self.points.len() - 1);
        let (x0, y0) = self.points[idx - 1];
        let (x1, y1) = self.points[idx];
        if x1 == x0 {
            y0
        } else {
            y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        }
    }

    /// Scales every y value by `k` (unit conversions).
    pub fn scaled(&self, k: f64) -> TimeSeries {
        let mut out = TimeSeries::new(self.name.clone());
        for &(x, y) in &self.points {
            out.push(x, y * k);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(pts: &[(f64, f64)]) -> TimeSeries {
        let mut t = TimeSeries::new("t");
        for &(x, y) in pts {
            t.push(x, y);
        }
        t
    }

    #[test]
    fn push_and_inspect() {
        let t = s(&[(0.0, 0.0), (1.0, 2.0), (2.0, 6.0)]);
        assert_eq!(t.name(), "t");
        assert_eq!(t.points(), &[(0.0, 0.0), (1.0, 2.0), (2.0, 6.0)]);
    }

    #[test]
    #[should_panic(expected = "x order")]
    fn out_of_order_push_panics() {
        let mut t = TimeSeries::new("t");
        t.push(1.0, 0.0);
        t.push(0.5, 0.0);
    }

    #[test]
    fn interpolation() {
        let t = s(&[(0.0, 0.0), (2.0, 4.0)]);
        assert_eq!(t.at(1.0), 2.0);
        assert_eq!(t.at(-1.0), 0.0); // clamped
        assert_eq!(t.at(5.0), 4.0); // clamped
    }

    #[test]
    fn scaling() {
        let t = s(&[(0.0, 1.0), (1.0, 2.0)]).scaled(10.0);
        assert_eq!(t.points(), &[(0.0, 10.0), (1.0, 20.0)]);
    }
}
