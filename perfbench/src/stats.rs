//! Order statistics over per-operation samples.

/// The nearest-rank `pct`-th percentile of `values` (any order).
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (nearest-rank 50th percentile).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Samples strictly above the nearest-rank `pct`-th percentile.
pub fn samples_above(n: usize, pct: f64) -> usize {
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n)
}

/// The tail latency at the workload's fixed percentile `pct`. When the
/// run was too short for 10 samples to lie above it, the highest
/// percentile that still has 10 above is used instead; the percentile
/// actually reported is returned next to the value.
pub fn tail(values: &[f64], pct: f64) -> (f64, f64) {
    let n = values.len();
    let pct = if samples_above(n, pct) >= 10 || n <= 10 {
        pct
    } else {
        100.0 * (n - 10) as f64 / n as f64
    };
    (percentile(values, pct), pct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_above() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v, 90.0), (90.0, 90.0));
        // p95 of 100 samples has only 5 above: fall back to p90.
        let (value, pct) = tail(&v, 95.0);
        assert_eq!((value, pct), (90.0, 90.0));
        assert_eq!(samples_above(100, pct), 10);
    }
}
