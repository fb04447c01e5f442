//! Order statistics for the round samples.

/// Median of `samples` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice so a metric never prints NaN.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The smallest sample: a round's cost with the least interference from the
/// host. On the shared two-core box the workloads were sized on, rounds run
/// in phases of several seconds at 1×, 1.3× and 1.6× this value whatever the
/// program does, so medians move with the share of slow phases in a run.
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_PERCENTILES: [u32; 3] = [99, 95, 90];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_PERCENTILES`] that `n` samples support
/// with at least [`MIN_BEYOND`] samples beyond it, or `None` when even the
/// lowest has too few.
pub fn supported_tail(n: usize) -> Option<u32> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|&p| n * (100 - p as usize) / 100 >= MIN_BEYOND)
}

/// A tail statistic and how it was chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The reported value.
    pub value: f64,
    /// The percentile it sits at; `None` means too few samples, and `value`
    /// is the maximum.
    pub percentile: Option<u32>,
}

/// The value at percentile `p` when `samples` support it (see
/// [`supported_tail`]), otherwise the maximum. `fl.round_p90_s` is
/// `tail_at(samples, 90)`.
pub fn tail_at(samples: &[f64], p: u32) -> Tail {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let max = sorted.last().copied().unwrap_or(0.0);
    match supported_tail(n) {
        Some(best) if best >= p => Tail {
            // Nearest-rank: the smallest value with p % of samples at or below it.
            value: sorted[(n * p as usize).div_ceil(100).max(1) - 1],
            percentile: Some(p),
        },
        _ => Tail {
            value: max,
            percentile: None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(fastest(&[3.0, 1.0, 2.0]), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(90));
        assert_eq!(supported_tail(199), Some(90));
        assert_eq!(supported_tail(200), Some(95));
        assert_eq!(supported_tail(1000), Some(99));
    }

    #[test]
    fn tail_falls_back_to_max_and_says_so() {
        let few: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(
            tail_at(&few, 90),
            Tail {
                value: 50.0,
                percentile: None
            }
        );
        let enough: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!(
            tail_at(&enough, 90),
            Tail {
                value: 108.0,
                percentile: Some(90)
            }
        );
        // 120 samples leave 6 beyond p95: not reportable, so the maximum.
        assert_eq!(tail_at(&enough, 95).percentile, None);
        assert_eq!(tail_at(&[], 90).value, 0.0);
    }
}
