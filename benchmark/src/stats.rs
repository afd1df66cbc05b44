//! Order statistics over a run's per-rep samples.

/// Sorted samples of one measurement.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

/// Percentiles a tail may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

impl Samples {
    pub fn new(mut xs: Vec<f64>) -> Self {
        xs.sort_by(f64::total_cmp);
        Samples(xs)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The median (mean of the middle pair for an even count); 0 when empty.
    pub fn median(&self) -> f64 {
        let n = self.0.len();
        match n {
            0 => 0.0,
            _ if n % 2 == 1 => self.0[n / 2],
            _ => (self.0[n / 2 - 1] + self.0[n / 2]) / 2.0,
        }
    }

    /// First and third quartiles, by the method of Python's
    /// `statistics.quantiles(xs, n=4)`; both equal the value for one sample.
    pub fn quartiles(&self) -> (f64, f64) {
        let xs = &self.0;
        let n = xs.len();
        if n < 2 {
            let x = xs.first().copied().unwrap_or(0.0);
            return (x, x);
        }
        let cut = |i: usize| {
            let m = i * (n + 1);
            let j = (m / 4).clamp(1, n - 1);
            // Negative or above 4 where the clamp extrapolates, as in Python.
            let delta = m as f64 - 4.0 * j as f64;
            (xs[j - 1] * (4.0 - delta) + xs[j] * delta) / 4.0
        };
        (cut(1), cut(3))
    }

    /// The highest reportable percentile with at least ten samples beyond
    /// it: `(percentile, value, samples beyond)`; `None` below 20 samples.
    pub fn tail(&self) -> Option<(f64, f64, usize)> {
        let n = self.0.len();
        TAIL_PERCENTILES.iter().find_map(|&p| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            let beyond = n.saturating_sub(rank);
            (rank >= 1 && beyond >= 10).then(|| (p, self.0[rank - 1], beyond))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s = Samples::new((1..=10).map(f64::from).collect());
        assert_eq!(s.quartiles(), (2.75, 8.25));
        assert_eq!(s.median(), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Samples::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(s.quartiles(), (1.0, 3.0));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(Samples::new(vec![7.0, 5.0]).quartiles(), (4.5, 7.5));
        assert_eq!(Samples::new(vec![4.0]).quartiles(), (4.0, 4.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let s = Samples::new((1..=1000).map(f64::from).collect());
        assert_eq!(s.tail(), Some((99.0, 990.0, 10)));
        let s = Samples::new((1..=40).map(f64::from).collect());
        assert_eq!(s.tail(), Some((50.0, 20.0, 20)));
        assert_eq!(Samples::new(vec![1.0; 12]).tail(), None);
    }
}
