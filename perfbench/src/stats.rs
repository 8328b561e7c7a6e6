//! Order statistics over one run's samples.

/// The `q`-quantile of ascending `sorted` by the nearest-rank rule: the
/// smallest sample with at least `q · n` samples at or below it. No
/// interpolation, so the value is always one that was measured.
///
/// # Panics
/// If `sorted` is empty or `q` is outside `(0, 1]`.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "a quantile of no samples");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the `q`-quantile's rank — how many the
/// quantile rests on from above.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Median of `values` (the mean of the middle two for an even count).
///
/// # Panics
/// If `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n > 0, "a median of no values");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// `values` in ascending order (`+∞` last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// One run's client-side latencies in seconds, ascending. A request that
/// failed or was refused is `+∞`, so it counts against every percentile.
#[derive(Clone, Debug)]
pub struct Latencies {
    sorted: Vec<f64>,
}

impl Latencies {
    /// Sorts the samples; `None` entries are failed requests.
    pub fn new(samples: impl IntoIterator<Item = Option<f64>>) -> Latencies {
        let raw: Vec<f64> = samples.into_iter().map(|s| s.unwrap_or(f64::INFINITY)).collect();
        Latencies { sorted: sorted(&raw) }
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The exact nearest-rank `q`-quantile, in seconds.
    pub fn quantile(&self, q: f64) -> f64 {
        nearest_rank(&self.sorted, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_measured_samples() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.5), 50.0);
        assert_eq!(nearest_rank(&s, 0.99), 99.0);
        assert_eq!(nearest_rank(&s, 1.0), 100.0);
        assert_eq!(nearest_rank(&[7.0], 0.01), 7.0);
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(beyond(1000, 0.99), 10);
    }

    #[test]
    fn failed_requests_count_as_infinite_latency() {
        let mut samples: Vec<Option<f64>> = (1..=99).map(|i| Some(f64::from(i))).collect();
        samples.push(None);
        let l = Latencies::new(samples);
        assert_eq!(l.len(), 100);
        assert_eq!(l.quantile(0.99), 99.0);
        assert_eq!(l.quantile(1.0), f64::INFINITY);
        // Two failures push p99 to +∞: the failure is a missed latency.
        let mut two: Vec<Option<f64>> = (1..=98).map(|i| Some(f64::from(i))).collect();
        two.extend([None, None]);
        assert_eq!(Latencies::new(two).quantile(0.99), f64::INFINITY);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
