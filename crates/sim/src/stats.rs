//! Small statistics helpers: empirical quantiles for tail-latency
//! reporting.

/// Summary quantiles of an empirical distribution (job delays, queue
/// lengths, …).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Quantiles {
    /// Number of samples summarized.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Quantiles {
    /// Computes the summary from unsorted samples. Returns all-zero for an
    /// empty slice.
    pub fn from_samples(values: &[f64]) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        Self::from_order_statistics(sorted.len(), |k| sorted[k])
    }

    /// Computes the summary of whole-number samples given as a histogram:
    /// `counts[v]` samples equal `v`. Bit-identical to
    /// [`from_samples`](Self::from_samples) over the same samples.
    pub fn from_histogram(counts: &[u64]) -> Self {
        let total: u64 = counts.iter().sum();
        // The k-th smallest sample (0-based) is the first value whose
        // cumulative count exceeds k.
        let order_statistic = |k: usize| {
            let mut seen = 0u64;
            for (value, &count) in counts.iter().enumerate() {
                seen += count;
                if seen > k as u64 {
                    return value as f64;
                }
            }
            unreachable!("order statistic {k} beyond {total} samples")
        };
        Self::from_order_statistics(total as usize, order_statistic)
    }

    /// The summary of `n` samples whose k-th smallest is `sorted(k)`.
    fn from_order_statistics(n: usize, sorted: impl Fn(usize) -> f64) -> Self {
        if n == 0 {
            return Self::default();
        }
        Self {
            count: n,
            p50: quantile_of(n, &sorted, 0.50),
            p90: quantile_of(n, &sorted, 0.90),
            p95: quantile_of(n, &sorted, 0.95),
            p99: quantile_of(n, &sorted, 0.99),
            max: sorted(n - 1),
        }
    }
}

/// The `q`-quantile of an ascending-sorted slice, with linear interpolation
/// between order statistics (the common "type 7" estimator).
///
/// # Panics
/// Panics if `values` is empty or `q ∉ [0, 1]`.
pub fn quantile_sorted(values: &[f64], q: f64) -> f64 {
    quantile_of(values.len(), |k| values[k], q)
}

/// [`quantile_sorted`] over `n` samples whose k-th smallest is `sorted(k)`.
fn quantile_of(n: usize, sorted: impl Fn(usize) -> f64, q: f64) -> f64 {
    assert!(n > 0, "quantile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile must lie in [0, 1]");
    if n == 1 {
        return sorted(0);
    }
    let position = q * (n - 1) as f64;
    let lo = position.floor() as usize;
    let hi = position.ceil() as usize;
    let frac = position - lo as f64;
    sorted(lo) * (1.0 - frac) + sorted(hi) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_sample() {
        let values: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let q = Quantiles::from_samples(&values);
        assert_eq!(q.count, 100);
        assert!((q.p50 - 50.5).abs() < 1e-12);
        assert!((q.p90 - 90.1).abs() < 1e-9);
        assert!((q.p99 - 99.01).abs() < 1e-9);
        assert_eq!(q.max, 100.0);
    }

    #[test]
    fn empty_sample_is_zero() {
        let q = Quantiles::from_samples(&[]);
        assert_eq!(q.count, 0);
        assert_eq!(q.max, 0.0);
    }

    #[test]
    fn single_sample() {
        let q = Quantiles::from_samples(&[7.0]);
        assert_eq!(q.p50, 7.0);
        assert_eq!(q.max, 7.0);
    }

    #[test]
    fn interpolation_between_order_statistics() {
        assert_eq!(quantile_sorted(&[0.0, 10.0], 0.25), 2.5);
        assert_eq!(quantile_sorted(&[0.0, 10.0], 0.5), 5.0);
        assert_eq!(quantile_sorted(&[1.0, 2.0, 3.0], 1.0), 3.0);
        assert_eq!(quantile_sorted(&[1.0, 2.0, 3.0], 0.0), 1.0);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let q = Quantiles::from_samples(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(q.p50, 3.0);
        assert_eq!(q.max, 5.0);
    }

    #[test]
    fn histogram_matches_samples_bit_for_bit() {
        let counts: [u64; 8] = [0, 5, 0, 3, 1, 0, 7, 2];
        let samples: Vec<f64> = counts
            .iter()
            .enumerate()
            .flat_map(|(v, &c)| std::iter::repeat(v as f64).take(c as usize))
            .collect();
        assert_eq!(
            Quantiles::from_histogram(&counts),
            Quantiles::from_samples(&samples)
        );
        assert_eq!(Quantiles::from_histogram(&[0, 0]), Quantiles::default());
        assert_eq!(Quantiles::from_histogram(&[]), Quantiles::default());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_rejects_empty() {
        let _ = quantile_sorted(&[], 0.5);
    }
}
