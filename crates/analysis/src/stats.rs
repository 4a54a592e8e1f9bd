//! Summary statistics for latency samples.

use std::fmt;

/// Summary statistics of a sample of `f64` observations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 5th percentile.
    pub p05: f64,
    /// 95th percentile.
    pub p95: f64,
}

impl Summary {
    /// Computes summary statistics over `samples`.
    ///
    /// Returns `None` for an empty sample.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let variance = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / count as f64;
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not contain NaN"));
        Some(Summary {
            count,
            mean,
            std_dev: variance.sqrt(),
            min: sorted[0],
            max: sorted[count - 1],
            median: percentile_of_sorted(&sorted, 50.0),
            p05: percentile_of_sorted(&sorted, 5.0),
            p95: percentile_of_sorted(&sorted, 95.0),
        })
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} sd={:.1} min={:.0} p05={:.0} median={:.0} p95={:.0} max={:.0}",
            self.count,
            self.mean,
            self.std_dev,
            self.min,
            self.p05,
            self.median,
            self.p95,
            self.max
        )
    }
}

/// Linear-interpolated percentile of an already-sorted slice.
///
/// `pct` is in `[0, 100]`.
///
/// # Panics
///
/// Panics if `sorted` is empty or `pct` is outside `[0, 100]`.
pub fn percentile_of_sorted(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!(
        (0.0..=100.0).contains(&pct),
        "percentile {pct} out of range"
    );
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = pct / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Percentile of an unsorted slice (convenience wrapper).
///
/// # Panics
///
/// Panics if `samples` is empty, contains NaN, or `pct` is out of range.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not contain NaN"));
    percentile_of_sorted(&sorted, pct)
}

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_has_no_summary() {
        assert!(Summary::of(&[]).is_none());
        assert!(mean(&[]).is_none());
    }

    #[test]
    fn summary_of_constant_sample() {
        let s = Summary::of(&[5.0; 10]).unwrap();
        assert_eq!(s.count, 10);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, 5.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 5.0);
    }

    #[test]
    fn summary_of_known_values() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let sorted = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile_of_sorted(&sorted, 0.0), 10.0);
        assert_eq!(percentile_of_sorted(&sorted, 100.0), 40.0);
        assert_eq!(percentile_of_sorted(&sorted, 50.0), 25.0);
        assert_eq!(percentile(&[40.0, 10.0, 30.0, 20.0], 50.0), 25.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_of_empty_panics() {
        let _ = percentile_of_sorted(&[], 50.0);
    }

    #[test]
    fn display_contains_count() {
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert!(s.to_string().contains("n=2"));
    }
}
