//! Order statistics over timing samples.

/// The `q`-quantile (`0.0..=1.0`) of `samples` by the nearest-rank rule:
/// the smallest sample with at least `q` of all samples at or below it.
/// Returns `None` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// The median of `samples` (the mean of the two middle values for an
/// even count). Returns `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), Some(50.0));
        assert_eq!(quantile(&s, 0.9), Some(90.0));
        assert_eq!(quantile(&s, 1.0), Some(100.0));
        assert_eq!(quantile(&s, 0.0), Some(1.0));
    }
}
