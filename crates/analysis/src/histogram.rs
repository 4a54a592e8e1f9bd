//! Histograms and empirical cumulative distribution functions.
//!
//! The paper's Figure 4 plots the CDF of replacement-set access latencies for
//! each dirty-line count `d = 0..8`; [`Cdf`] is the exact representation the
//! `repro fig4` command writes out.

/// A fixed-width-bin histogram over `f64` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bin_width: f64,
    counts: Vec<u64>,
    /// Every recorded sample, those outside `[lo, hi)` included.
    total: u64,
}

impl Histogram {
    /// Creates a histogram covering `[lo, hi)` with `bins` equal-width bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Histogram {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            bin_width: (hi - lo) / bins as f64,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Adds one observation; one outside `[lo, hi)` counts toward
    /// [`Histogram::total`] but lands in no bin.
    pub fn record(&mut self, value: f64) {
        self.total += 1;
        if (self.lo..self.hi).contains(&value) {
            let bin = ((value - self.lo) / self.bin_width) as usize;
            let bin = bin.min(self.counts.len() - 1);
            self.counts[bin] += 1;
        }
    }

    /// Total number of observations (including under/overflow).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The lower edge of bin `i`.
    pub fn bin_lo(&self, i: usize) -> f64 {
        self.lo + i as f64 * self.bin_width
    }
}

/// One point of an empirical CDF: `fraction` of the samples are `<= value`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdfPoint {
    /// The latency value (x axis of the paper's Figure 4).
    pub value: f64,
    /// Cumulative fraction in `[0, 1]` (y axis).
    pub fraction: f64,
}

/// An empirical cumulative distribution function.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Cdf {
    /// The CDF samples in ascending `value` order.
    pub points: Vec<CdfPoint>,
}

impl Cdf {
    /// Builds an exact empirical CDF directly from samples (one point per
    /// distinct value).
    pub fn from_samples(samples: &[f64]) -> Cdf {
        if samples.is_empty() {
            return Cdf::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not contain NaN"));
        let n = sorted.len() as f64;
        let mut points: Vec<CdfPoint> = Vec::new();
        for (i, &v) in sorted.iter().enumerate() {
            let fraction = (i + 1) as f64 / n;
            match points.last_mut() {
                Some(last) if last.value == v => last.fraction = fraction,
                _ => points.push(CdfPoint { value: v, fraction }),
            }
        }
        Cdf { points }
    }

    /// Evaluates the CDF at `value` (step interpolation).
    pub fn at(&self, value: f64) -> f64 {
        let mut fraction = 0.0;
        for p in &self.points {
            if p.value <= value {
                fraction = p.fraction;
            } else {
                break;
            }
        }
        fraction
    }

    /// The smallest value at which the CDF reaches `fraction` (inverse CDF).
    pub fn quantile(&self, fraction: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.fraction >= fraction)
            .map(|p| p.value)
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the CDF has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_counts_land_in_the_right_bins() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for value in [0.5, 1.5, 2.5, 9.9, -1.0, 10.0, 11.0] {
            h.record(value);
        }
        assert_eq!(h.total(), 7);
        assert_eq!(h.counts(), &[2, 1, 0, 0, 1]);
        assert_eq!(h.bin_lo(0), 0.0);
        assert!((h.bin_lo(1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_cdf_is_monotonic_and_reaches_one_without_overflow() {
        let mut h = Histogram::new(0.0, 100.0, 10);
        for i in 0..100 {
            h.record(i as f64);
        }
        // The bins' cumulative fraction never falls and, with no sample out
        // of range, reaches one at the last bin.
        let mut cumulative = 0;
        let mut prev = 0.0;
        for &count in h.counts() {
            cumulative += count;
            let fraction = cumulative as f64 / h.total() as f64;
            assert!(fraction >= prev);
            prev = fraction;
        }
        assert!((prev - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exact_cdf_from_samples() {
        let cdf = Cdf::from_samples(&[100.0, 110.0, 110.0, 120.0]);
        assert_eq!(cdf.len(), 3);
        assert!((cdf.at(100.0) - 0.25).abs() < 1e-12);
        assert!((cdf.at(110.0) - 0.75).abs() < 1e-12);
        assert!((cdf.at(99.0) - 0.0).abs() < 1e-12);
        assert!((cdf.at(200.0) - 1.0).abs() < 1e-12);
        assert_eq!(cdf.quantile(0.5), Some(110.0));
        assert_eq!(cdf.quantile(1.0), Some(120.0));
        assert!(!cdf.is_empty());
    }

    #[test]
    fn empty_cdf_behaves() {
        let cdf = Cdf::from_samples(&[]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.at(5.0), 0.0);
        assert_eq!(cdf.quantile(0.5), None);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn inverted_range_panics() {
        let _ = Histogram::new(1.0, 0.0, 4);
    }
}
