//! Order statistics used by every workload: medians of repeated timings and
//! nearest-rank percentiles of per-operation latencies.

/// Median of `values` (mean of the middle pair for an even count); 0 for an
/// empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in `(0, 1]`) of `values`: the smallest
/// sample with at least a `q` share of the sample at or below it. The same
/// rule `virgo-serve` uses for its latency percentiles. 0 for an empty
/// sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let sample: Vec<f64> = (1..=48).map(f64::from).collect();
        assert_eq!(percentile(&sample, 0.50), 24.0);
        assert_eq!(percentile(&sample, 0.75), 36.0);
        assert_eq!(percentile(&sample, 1.0), 48.0);
        // Order of the input does not matter.
        let reversed: Vec<f64> = sample.iter().rev().copied().collect();
        assert_eq!(percentile(&reversed, 0.75), 36.0);
        assert_eq!(percentile(&[5.0], 0.01), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
