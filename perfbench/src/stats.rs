//! Order statistics for timing samples.

/// The median of `samples` (mean of the two middle values for an even
/// count); `0.0` for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in percent, `0 < p <= 100`) of `samples`;
/// `0.0` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples (the
/// epsilon absorbs binary rounding of values such as `99.9`).
fn rank(n: usize, p: f64) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil() as usize
}

/// The percentiles a tail may be reported at, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0];

/// A tail percentile together with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, in percent.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// Samples of `n` that lie beyond the nearest-rank `p`-th percentile.
fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest candidate percentile with at least ten samples beyond it,
/// or `None` when even the 75th percentile has fewer.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    TAIL_CANDIDATES
        .iter()
        .find(|&&p| beyond(n, p) >= 10)
        .map(|&p| Tail {
            percentile: p,
            value: percentile(samples, p),
            beyond: beyond(n, p),
            samples: n,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled order: the statistics must not rely on sorted input.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = ramp(1000);
        assert_eq!(percentile(&xs, 50.0), 500.0);
        assert_eq!(percentile(&xs, 99.0), 990.0);
        assert_eq!(percentile(&xs, 100.0), 1000.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99.9 leaves 1 beyond, p99 leaves exactly 10.
        let t = tail(&ramp(1000)).expect("enough samples");
        assert_eq!((t.percentile, t.beyond, t.samples), (99.0, 10, 1000));
        assert_eq!(t.value, 990.0);
        // 999 samples: p99 leaves 9 beyond, so the tail drops to p95.
        let t = tail(&ramp(999)).expect("enough samples");
        assert_eq!((t.percentile, t.beyond), (95.0, 49));
        // 10_000 samples reach p99.9.
        assert_eq!(tail(&ramp(10_000)).map(|t| t.percentile), Some(99.9));
        // 100 samples: p90 leaves 10.
        assert_eq!(tail(&ramp(100)).map(|t| t.percentile), Some(90.0));
        // 39 samples: p75 leaves 9, so no tail is reported.
        assert_eq!(tail(&ramp(39)), None);
        assert_eq!(tail(&ramp(40)).map(|t| t.beyond), Some(10));
    }
}
