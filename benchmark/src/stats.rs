//! Order statistics over timing samples.

/// What a run reports for a metric: the value, and the median and
/// quartiles of the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarizes repeated timings of one thing; the value is their
    /// [`fast_decile`]. Quartiles are as Python's
    /// `statistics.quantiles(xs, n=4)` gives them (the "exclusive"
    /// method: position `k·(n+1)/4`, linear interpolation), so a spread
    /// computed here equals the one the driver computes over its runs.
    ///
    /// # Panics
    /// On an empty sample set or a NaN sample.
    pub fn of_times(samples: &[f64]) -> Summary {
        let xs = sorted(samples);
        Summary {
            value: nearest_rank(&xs, 10),
            n: xs.len(),
            q1: quantile(&xs, 1),
            median: quantile(&xs, 2),
            q3: quantile(&xs, 3),
        }
    }

    /// A value measured once: no spread.
    pub fn single(v: f64) -> Summary {
        Summary {
            value: v,
            n: 1,
            q1: v,
            median: v,
            q3: v,
        }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `k`-th quartile of sorted `xs`, in Python's integer arithmetic.
/// Like Python it extrapolates past the extremes on two samples.
fn quantile(xs: &[f64], k: usize) -> f64 {
    let n = xs.len();
    if n == 1 {
        return xs[0];
    }
    let j = (k * (n + 1) / 4).clamp(1, n - 1);
    let delta = (k * (n + 1)) as f64 - (j * 4) as f64;
    (xs[j - 1] * (4.0 - delta) + xs[j] * delta) / 4.0
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "no samples");
    let mut xs = samples.to_vec();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    xs
}

fn nearest_rank(xs: &[f64], q: usize) -> f64 {
    xs[(q * xs.len()).div_ceil(100).clamp(1, xs.len()) - 1]
}

/// The `q`-th percentile by nearest rank.
pub fn percentile(samples: &[f64], q: usize) -> f64 {
    nearest_rank(&sorted(samples), q)
}

/// The time reported for repeated timings of one thing: their 10th
/// percentile by nearest rank, which is the fastest of up to ten.
///
/// Not the median, because the noise of a shared host only ever adds
/// time, in bursts of seconds to minutes. On the host this benchmark
/// was written on, back-to-back 15 s runs of unchanged code moved the
/// median of their iterations by 9 % (`serve-sim`) and 18 %
/// (`live-coarse`) of itself, inter-quartile, and the fastest decile by
/// 6 % and 8 %. A slower program is slower in its fast iterations too,
/// so the low quantile still shows a regression; the median and
/// quartiles are printed beside it.
pub fn fast_decile(samples: &[f64]) -> f64 {
    percentile(samples, 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reported_time_is_the_fastest_decile() {
        let xs: Vec<f64> = (1..=95).rev().map(f64::from).collect();
        assert_eq!(fast_decile(&xs), 10.0);
        assert_eq!(Summary::of_times(&xs).value, 10.0);
        // Up to ten samples, the fastest one.
        assert_eq!(fast_decile(&[5.0, 3.0, 4.0]), 3.0);
        assert_eq!(fast_decile(&xs[..10]), 86.0);
        assert_eq!(fast_decile(&xs[..11]), 86.0);
    }

    #[test]
    fn odd_count_median_is_the_middle_sample() {
        let s = Summary::of_times(&[5.0, 1.0, 3.0]);
        assert_eq!(s.median, 3.0);
        assert_eq!((s.q1, s.q3), (1.0, 5.0));
    }

    #[test]
    fn even_count_median_interpolates() {
        assert_eq!(Summary::of_times(&[4.0, 1.0, 3.0, 2.0]).median, 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of_times(&xs);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Summary::of_times(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        let s = Summary::of_times(&[3.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.5, 2.0, 3.5));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of_times(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        assert_eq!(s.spread(), (12.0 - 1.5) / 4.0);
        assert_eq!(Summary::single(7.0).spread(), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 95), 19.0);
        assert_eq!(percentile(&xs, 100), 20.0);
        assert_eq!(percentile(&[3.0], 95), 3.0);
    }
}
