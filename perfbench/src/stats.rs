//! Order statistics with the tail rule every latency in the report obeys:
//! a percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it, otherwise the highest percentile the sample supports.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending-sorted, non-empty sample:
/// the value at rank `ceil(q · n)`.
///
/// # Panics
///
/// Panics on an empty sample or `q` outside `(0, 1]`.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(q > 0.0 && q <= 1.0, "percentile rank out of range: {q}");
    sorted[rank(sorted.len(), q) - 1]
}

/// The 1-based nearest rank `ceil(q · n)`, at least 1.
fn rank(n: usize, q: f64) -> usize {
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let r = (q * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `q`-percentile of `n` samples.
#[must_use]
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// A tail percentile chosen by the tail rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported, as a fraction (`0.99` = p99).
    pub q: f64,
    /// Its value.
    pub value: f64,
    /// Samples behind it.
    pub samples: usize,
}

/// The `target` percentile when at least [`MIN_BEYOND`] samples lie beyond
/// it, otherwise the highest percentile that keeps [`MIN_BEYOND`] beyond
/// (rank `n − MIN_BEYOND`). With `n ≤ MIN_BEYOND` no percentile qualifies
/// and the maximum is reported with `q = 1`.
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn tail(sorted: &[f64], target: f64) -> Tail {
    let n = sorted.len();
    assert!(n > 0, "tail of an empty sample");
    #[allow(clippy::cast_precision_loss)]
    let q = if beyond(n, target) >= MIN_BEYOND {
        target
    } else if n > MIN_BEYOND {
        (n - MIN_BEYOND) as f64 / n as f64
    } else {
        1.0
    };
    Tail {
        q,
        value: percentile(sorted, q),
        samples: n,
    }
}

/// Median (nearest rank) of an unsorted sample.
///
/// # Panics
///
/// Panics on an empty sample or a NaN.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// An ascending copy of `values`.
///
/// # Panics
///
/// Panics on a NaN.
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    v
}

/// Arithmetic mean; 0 for an empty sample.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        #[allow(clippy::cast_precision_loss)]
        let n = values.len() as f64;
        values.iter().sum::<f64>() / n
    }
}

/// `num / den`, 0 when `den` is 0.
#[must_use]
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        #[allow(clippy::cast_precision_loss)]
        let r = num as f64 / den as f64;
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        #[allow(clippy::cast_precision_loss)]
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990, with exactly 10 beyond.
        assert_eq!(beyond(1000, 0.99), 10);
        let t = tail(&ramp(1000), 0.99);
        assert_eq!(t.q, 0.99);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.samples, 1000);
        // 999 samples: p99 is rank 990 with only 9 beyond, so the rule
        // falls back to rank 989, the highest with 10 beyond.
        assert_eq!(beyond(999, 0.99), 9);
        let t = tail(&ramp(999), 0.99);
        assert!(t.q < 0.99);
        assert_eq!(t.value, 989.0);
        assert_eq!(beyond(999, t.q), MIN_BEYOND);
    }

    #[test]
    fn fallback_always_keeps_ten_beyond() {
        for n in 11..2500 {
            let t = tail(&ramp(n), 0.99);
            assert!(beyond(n, t.q) >= MIN_BEYOND, "n = {n}");
            assert!(t.q <= 0.99);
            if n >= 1000 {
                assert_eq!(t.q, 0.99, "n = {n}");
            }
        }
    }

    #[test]
    fn tiny_samples_report_the_maximum() {
        let t = tail(&ramp(10), 0.99);
        assert_eq!(t.q, 1.0);
        assert_eq!(t.value, 10.0);
    }
}
