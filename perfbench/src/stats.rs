//! The one percentile helper every timing goes through.

/// Percentile ladder, in permille, from which the reported tail is chosen.
const LADDER: [u32; 6] = [500, 750, 900, 950, 990, 999];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A timing summarized as its median plus the highest percentile of
/// [`LADDER`] that has at least [`MIN_BEYOND`] samples beyond it.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile, in permille (500 when only the median is
    /// supported, 0 when there are too few samples even for that).
    pub tail_permille: u32,
    /// The value at `tail_permille`.
    pub tail: f64,
}

/// Nearest-rank quantile of `q` permille over `samples` (sorted or not).
/// Returns NaN on an empty slice.
pub fn quantile(samples: &[f64], q_permille: u32) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), q_permille).saturating_sub(1)]
}

/// Median of `samples` (NaN when empty).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 500)
}

/// Mean of `samples` (NaN when empty).
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// 1-based nearest rank of the `q_permille` quantile among `n` samples.
fn rank(n: usize, q_permille: u32) -> usize {
    (n * q_permille as usize).div_ceil(1000).max(1)
}

/// Summarizes `samples` by the rule in the module docs.
pub fn summarize(samples: &[f64]) -> Summary {
    let n = samples.len();
    let tail_permille = LADDER
        .iter()
        .copied()
        .rev()
        .find(|&q| n >= MIN_BEYOND && n - rank(n, q) >= MIN_BEYOND)
        .unwrap_or(0);
    let tail = if tail_permille == 0 { f64::NAN } else { quantile(samples, tail_permille) };
    Summary { n, p50: median(samples), tail_permille, tail }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p50 {:.4}", self.p50)?;
        if self.tail_permille > 500 {
            write!(f, " p{} {:.4}", self.tail_permille as f64 / 10.0, self.tail)?;
        }
        write!(f, " (n={})", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_percentile_tracks_sample_count() {
        assert_eq!(summarize(&ramp(20)).tail_permille, 500);
        assert_eq!(summarize(&ramp(200)).tail_permille, 950);
        assert_eq!(summarize(&ramp(1000)).tail_permille, 990);
        assert_eq!(summarize(&ramp(9)).tail_permille, 0);
    }

    #[test]
    fn values_are_nearest_rank() {
        let s = summarize(&ramp(200));
        assert_eq!((s.n, s.p50, s.tail), (200, 100.0, 190.0));
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 500), 2.0);
        assert!(median(&[]).is_nan());
    }
}
