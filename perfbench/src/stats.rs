//! Order statistics with their sample counts.
//!
//! Percentiles use the nearest-rank definition: the q-th percentile of
//! n samples is the smallest sample with at least q% of all samples at
//! or below it, i.e. the sample at 1-based rank `ceil(q/100 * n)`. It
//! is always an observed value, and the number of samples strictly
//! beyond it is `n - rank` — the count the report prints beside every
//! percentile so a tail read from too few samples is visible.

/// Percentiles read from fewer samples beyond them than this are
/// flagged in the report.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the q-th percentile among `n` samples.
pub fn nearest_rank_index(n: usize, q: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    let rank = ((q / 100.0) * n as f64).ceil() as usize;
    rank.clamp(1, n)
}

/// A percentile read from a sample, with what it rests on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    /// The percentile's value.
    pub value: f64,
    /// Samples the percentile was read from.
    pub samples: usize,
    /// Samples strictly beyond the percentile.
    pub beyond: usize,
}

impl Pct {
    /// True when fewer than [`MIN_BEYOND`] samples lie beyond it.
    pub fn thin(&self) -> bool {
        self.beyond < MIN_BEYOND
    }
}

/// Nearest-rank q-th percentile of `xs` (any order; `f64::INFINITY`
/// stands for a failed operation and sorts last). `None` when empty.
pub fn percentile(xs: &[f64], q: f64) -> Option<Pct> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = nearest_rank_index(sorted.len(), q);
    Some(Pct {
        value: sorted[rank - 1],
        samples: sorted.len(),
        beyond: sorted.len() - rank,
    })
}

/// Median as the mean of the two middle samples (used for repeated
/// measurements of one quantity, where an interpolated centre is the
/// conventional summary). `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        // 1..=100: the q-th percentile is exactly q.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        for q in [1.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(percentile(&xs, q).unwrap().value, q);
        }
        // Small samples: p50 of 4 is the 2nd value, p99 the max.
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 50.0).unwrap().value, 2.0);
        assert_eq!(percentile(&xs, 99.0).unwrap().value, 4.0);
        assert_eq!(percentile(&xs, 0.0).unwrap().value, 1.0);
        assert_eq!(percentile(&[7.0], 99.0).unwrap().value, 7.0);
        assert!(percentile(&[], 50.0).is_none());
    }

    #[test]
    fn beyond_counts_and_thin_flag() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&xs, 99.0).unwrap();
        assert_eq!((p99.value, p99.samples, p99.beyond), (990.0, 1000, 10));
        assert!(!p99.thin());
        let p99 = percentile(&xs[..999], 99.0).unwrap();
        assert_eq!(p99.beyond, 9);
        assert!(p99.thin());
    }

    #[test]
    fn failures_sort_past_every_latency() {
        let xs = [5.0, f64::INFINITY, 1.0, 2.0];
        assert_eq!(percentile(&xs, 99.0).unwrap().value, f64::INFINITY);
        assert_eq!(percentile(&xs, 50.0).unwrap().value, 2.0);
    }

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
