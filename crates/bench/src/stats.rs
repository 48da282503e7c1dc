//! Trial aggregation: Figure 4 averages 100 random test cases per
//! point; this is the accumulator those loops use.

/// Streaming aggregate of f64 samples: count, mean, min, max, and
/// (population) standard deviation via Welford's algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct Aggregate {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Aggregate {
    /// Empty aggregate.
    pub fn new() -> Self {
        Aggregate {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty aggregate).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            (self.m2 / self.n as f64).sqrt()
        }
    }

    /// Smallest sample seen.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample seen.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another aggregate into this one (parallel trials).
    pub fn merge(&mut self, other: &Aggregate) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        self.m2 += other.m2 + delta * delta * self.n as f64 * other.n as f64 / n as f64;
        self.mean = mean;
        self.n = n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_bounds() {
        let mut a = Aggregate::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            a.push(x);
        }
        assert_eq!(a.count(), 4);
        assert!((a.mean() - 2.5).abs() < 1e-12);
        assert_eq!(a.min(), 1.0);
        assert_eq!(a.max(), 4.0);
        // Population stddev of 1..4 = sqrt(1.25).
        assert!((a.stddev() - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..50).map(|i| (i * i % 13) as f64).collect();
        let mut whole = Aggregate::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = Aggregate::new();
        let mut right = Aggregate::new();
        for &x in &xs[..20] {
            left.push(x);
        }
        for &x in &xs[20..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.stddev() - whole.stddev()).abs() < 1e-9);
    }

    #[test]
    fn empty_aggregate_is_harmless() {
        let mut a = Aggregate::new();
        assert_eq!(a.mean(), 0.0);
        assert_eq!(a.stddev(), 0.0);
        let b = Aggregate::new();
        a.merge(&b);
        assert_eq!(a.count(), 0);
    }
}
