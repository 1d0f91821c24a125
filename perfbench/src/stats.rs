//! Order statistics over timing samples.

/// Median of `values` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The tail of a sample: the highest percentile that still has at least
/// `beyond` samples above it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample value at that percentile.
    pub value: f64,
    /// The percentile, in percent (share of samples at or below `value`).
    pub percentile: f64,
    /// Number of samples the tail was taken from.
    pub samples: usize,
}

/// The highest percentile of `values` with at least `beyond` samples above
/// it. With `beyond` or fewer samples no such percentile exists and the
/// minimum is returned as the 0th percentile, so a short run never
/// reports an optimistic tail.
pub fn tail(values: &[f64], beyond: usize) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= beyond {
        return Tail {
            value: v.first().copied().unwrap_or(0.0),
            percentile: 0.0,
            samples: n,
        };
    }
    let rank = n - beyond; // 1-based rank of the reported sample
    Tail {
        value: v[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_the_requested_samples_above_it() {
        let values: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&values, 10);
        assert_eq!(t.value, 30.0);
        assert_eq!(t.percentile, 75.0);
        assert_eq!(t.samples, 40);
        assert_eq!(values.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn short_samples_fall_back_to_the_minimum() {
        let t = tail(&[5.0, 4.0], 10);
        assert_eq!(t.value, 4.0);
        assert_eq!(t.percentile, 0.0);
    }
}
