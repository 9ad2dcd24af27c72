//! Order statistics over latency samples and repetition values.

/// Sorts `values` and returns the nearest-rank `p`-quantile
/// (`0 < p <= 1`); 0 for an empty slice.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile_sorted(values, p)
}

/// Nearest-rank quantile of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median: the mean of the two middle values for an even count.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Run-to-run spread of a metric's repetitions: `(max − min) / median`.
pub fn spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    let m = median(&mut v);
    if m == 0.0 {
        return 0.0;
    }
    (v[v.len() - 1] - v[0]) / m
}

/// Samples strictly beyond the nearest-rank `p`-quantile of `n`
/// samples — a tail percentile is only reported with at least ten.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub((p * n as f64).ceil() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(percentile(&mut [7.0], 0.9), 7.0);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread(&[10.0, 12.0, 11.0]), 2.0 / 11.0);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(200, 0.99), 2);
        assert_eq!(samples_beyond(0, 0.99), 0);
    }
}
