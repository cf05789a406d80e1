//! Percentiles, the tail-selection rule, and the median-of-rounds
//! aggregation every reported timing goes through.

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice.
///
/// # Panics
/// Panics on an empty slice: a metric with no samples is a benchmark
/// bug, not a value to report.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Nearest rank (1-based) of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // multiply before dividing: 90 * 100 / 100 is exact, 0.9 * 100 is not
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// Median of unsorted values (the lower middle one for even counts, so
/// the result is always a value that was measured).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Whether `n` samples leave at least ten beyond percentile `p` — the
/// condition for quoting that percentile at all.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= 10
}

/// The highest of p99/p95/p90/p75 that `n` samples support, if any.
pub fn highest_supported_tail(n: usize) -> Option<u32> {
    [99u32, 95, 90, 75].into_iter().find(|&p| supports(n, f64::from(p)))
}

/// One reported number: the median of the per-round values with the
/// spread of the rounds and the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reported {
    /// Median of the round values (or the pooled percentile, see
    /// [`percentile_of_rounds`]).
    pub value: f64,
    /// Smallest round value.
    pub min: f64,
    /// Largest round value.
    pub max: f64,
    /// Samples behind the number, all rounds together.
    pub samples: usize,
}

/// Median, min and max of one value per round.
pub fn of_rounds(round_values: &[f64], samples: usize) -> Reported {
    let s = sorted(round_values);
    Reported { value: percentile(&s, 50.0), min: s[0], max: s[s.len() - 1], samples }
}

/// Percentile `p` of per-round sample sets. When every round supports
/// the percentile (ten samples beyond it) the value is the median of
/// the per-round percentiles; otherwise single rounds cannot carry it
/// and it is taken once over the pooled samples of all rounds. Min and
/// max are always those of the per-round percentiles.
pub fn percentile_of_rounds(rounds: &[&[f64]], p: f64) -> Reported {
    let per_round: Vec<f64> =
        rounds.iter().filter(|r| !r.is_empty()).map(|r| percentile(&sorted(r), p)).collect();
    let samples = rounds.iter().map(|r| r.len()).sum();
    let mut rep = of_rounds(&per_round, samples);
    if !rounds.iter().all(|r| supports(r.len(), p)) {
        let pooled: Vec<f64> = rounds.iter().copied().flatten().copied().collect();
        rep.value = percentile(&sorted(&pooled), p);
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn median_is_a_measured_value() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert!(supports(100, 90.0));
        assert!(!supports(99, 90.0));
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert_eq!(highest_supported_tail(1000), Some(99));
        assert_eq!(highest_supported_tail(999), Some(95));
        assert_eq!(highest_supported_tail(150), Some(90));
        assert_eq!(highest_supported_tail(40), Some(75));
        assert_eq!(highest_supported_tail(39), None);
    }

    #[test]
    fn rounds_report_their_median_and_spread() {
        let r = of_rounds(&[3.0, 9.0, 1.0, 4.0, 5.0], 42);
        assert_eq!(r, Reported { value: 4.0, min: 1.0, max: 9.0, samples: 42 });
    }

    #[test]
    fn supported_percentiles_are_taken_per_round() {
        // 100 samples per round support p90: median of 90, 190, 290
        let rounds: Vec<Vec<f64>> =
            (0..3).map(|r| (1..=100).map(|i| f64::from(r * 100 + i)).collect()).collect();
        let rounds: Vec<&[f64]> = rounds.iter().map(Vec::as_slice).collect();
        let rep = percentile_of_rounds(&rounds, 90.0);
        assert_eq!((rep.value, rep.min, rep.max, rep.samples), (190.0, 90.0, 290.0, 300));
    }

    #[test]
    fn unsupported_percentiles_pool_the_rounds() {
        // 5 samples per round cannot carry p90: pooled 15 samples,
        // nearest rank ceil(13.5) = 14th of 1..=15
        let rounds: Vec<Vec<f64>> =
            (0..3).map(|r| (1..=5).map(|i| f64::from(r * 5 + i)).collect()).collect();
        let rounds: Vec<&[f64]> = rounds.iter().map(Vec::as_slice).collect();
        let rep = percentile_of_rounds(&rounds, 90.0);
        assert_eq!(rep.value, 14.0);
        assert_eq!((rep.min, rep.max, rep.samples), (5.0, 15.0, 15));
    }
}
