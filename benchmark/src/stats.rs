//! Order statistics and process measurements.

/// Quantile `q ∈ [0, 1]` of `values` by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Which way a figure improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Rates.
    Higher,
    /// Times.
    Lower,
}

/// The best of per-window figures: the highest rate, the lowest time. A
/// run is cut into windows of identical work; on a shared machine whose
/// cores slow down for seconds to minutes at a time when co-tenants wake,
/// the best window measures the program rather than its neighbours, and
/// it is the same statistic on every commit.
pub fn best(windows: &[f64], better: Better) -> f64 {
    let fold = match better {
        Better::Higher => f64::max,
        Better::Lower => f64::min,
    };
    windows.iter().copied().reduce(fold).unwrap_or(0.0)
}

/// Samples a p99 needs: ten beyond it.
const P99_SAMPLES: usize = 1000;

/// Latency percentiles of a run cut into windows of identical work,
/// taken in its best window, the one with the lowest median (see
/// [`best`]). The p99 falls back to every window's samples when the best
/// window holds fewer than ten samples beyond it. Returns `(p50, p99,
/// samples behind the p50, samples behind the p99)`.
pub fn latency_percentiles(windows: &[Vec<f64>]) -> (f64, f64, usize, usize) {
    let Some(fastest) = windows
        .iter()
        .min_by(|a, b| median(a).total_cmp(&median(b)))
    else {
        return (0.0, 0.0, 0, 0);
    };
    let tail = if fastest.len() >= P99_SAMPLES {
        fastest.clone()
    } else {
        windows.iter().flatten().copied().collect()
    };
    (
        median(fastest),
        quantile(&tail, 0.99),
        fastest.len(),
        tail.len(),
    )
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one),
/// in MB; `None` where `/proc` is unavailable.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
        assert_eq!(quantile(&[5.0], 0.99), 5.0);
        let w = [2.0, 1.0, 5.0, 4.0];
        assert_eq!(best(&w, Better::Higher), 5.0);
        assert_eq!(best(&w, Better::Lower), 1.0);
        let windows = [vec![9.0, 9.0], vec![1.0], vec![5.0], vec![7.0, 3.0]];
        assert_eq!(latency_percentiles(&windows), (1.0, 9.0, 1, 6));
    }
}
