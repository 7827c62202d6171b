//! Summary statistics: exact percentiles of recorded samples, and deltas
//! of the program's own counters and log2 histograms over a window.

use clare_trace::{HistogramSnapshot, MetricsSnapshot};

/// Nearest-rank percentile (`q` in `0..=1`) of `values`; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Counter delta between two snapshots.
pub fn counter(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> u64 {
    let get = |s: &MetricsSnapshot| s.counter(name).unwrap_or(0);
    get(after).saturating_sub(get(before))
}

/// Histogram delta between two snapshots.
pub fn histogram(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    name: &str,
) -> HistogramSnapshot {
    let empty = HistogramSnapshot::default();
    let b = before.histogram(name).unwrap_or(&empty);
    let a = after.histogram(name).unwrap_or(&empty);
    HistogramSnapshot {
        count: a.count.saturating_sub(b.count),
        sum: a.sum.saturating_sub(b.sum),
        buckets: a
            .buckets
            .iter()
            .enumerate()
            .map(|(i, &n)| n.saturating_sub(b.buckets.get(i).copied().unwrap_or(0)))
            .collect(),
    }
}

/// Quantile of a log2 histogram, interpolated linearly by rank inside the
/// bucket that holds it. `HistogramSnapshot::quantile` returns the
/// bucket's midpoint, which cannot resolve a change smaller than 2x.
pub fn histogram_quantile(h: &HistogramSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * h.count as f64).ceil().max(1.0);
    let mut seen = 0.0;
    for (i, &n) in h.buckets.iter().enumerate() {
        let n = n as f64;
        if n > 0.0 && seen + n >= rank {
            let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
            let hi = (1u64 << (i + 1)) as f64;
            return lo + (hi - lo) * (rank - seen) / n;
        }
        seen += n;
    }
    h.mean() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn interpolated_histogram_quantile_stays_in_bucket() {
        // Four values in [1024, 2048).
        let mut buckets = vec![0; 20];
        buckets[10] = 4;
        let h = HistogramSnapshot {
            count: 4,
            sum: 6000,
            buckets,
        };
        let p50 = histogram_quantile(&h, 0.5);
        assert!((1024.0..2048.0).contains(&p50), "{p50}");
        assert!(histogram_quantile(&h, 0.99) > p50);
    }
}
