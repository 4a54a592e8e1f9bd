//! Latency-threshold calibration.
//!
//! The WB receiver turns a measured replacement latency into a symbol with a
//! [`MultiLevelThreshold`]: the latency is quantised into one of `k` levels,
//! each corresponding to a different dirty-line count `d`.  A binary encoding
//! has two levels, and its one boundary separates "no dirty line" from "at
//! least one dirty line" (the dotted line in the paper's Figures 5 and 7).
//! A [`BinaryThreshold`] decides one bit in whichever direction calibration
//! found, for the attacks whose classes may be inverted (a defense, a victim
//! that cleans a dirty prime).
//!
//! Calibration is supervised: the receiver first observes training latencies
//! for each symbol (the paper's fixed 16-bit preamble plays this role during
//! live transmission) and places decision boundaries halfway between the
//! class means.

/// A binary latency threshold: values strictly above the threshold are
/// classified as "1" (dirty line present).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinaryThreshold {
    threshold: f64,
    /// Mean latency observed for symbol 0 during calibration.
    pub mean_zero: f64,
    /// Mean latency observed for symbol 1 during calibration.
    pub mean_one: f64,
}

impl BinaryThreshold {
    /// Places the threshold halfway between the mean latencies of the two
    /// calibration classes.
    ///
    /// Empty classes fall back to a mean of zero, which keeps the function
    /// total; calibration with empty classes is a caller bug but should not
    /// bring down a long experiment run.
    pub fn calibrate(zeros: &[f64], ones: &[f64]) -> BinaryThreshold {
        let mean = |s: &[f64]| {
            if s.is_empty() {
                0.0
            } else {
                s.iter().sum::<f64>() / s.len() as f64
            }
        };
        let mean_zero = mean(zeros);
        let mean_one = mean(ones);
        BinaryThreshold {
            threshold: (mean_zero + mean_one) / 2.0,
            mean_zero,
            mean_one,
        }
    }

    /// The decision boundary.
    pub fn value(&self) -> f64 {
        self.threshold
    }

    /// Classifies a latency: `true` = symbol 1 (dirty line present).
    pub fn classify(&self, latency: f64) -> bool {
        latency > self.threshold
    }

    /// Classifies a value in the direction calibration found: when ones
    /// were at least as slow as zeros (WB, Prime+Probe, the LRU channel) a
    /// value strictly above the threshold is a 1; otherwise (a dirty prime
    /// the victim cleaned, a defense that inverts the classes) a value at or
    /// below it is.
    pub fn classify_directed(&self, value: f64) -> bool {
        if self.mean_one >= self.mean_zero {
            value > self.threshold
        } else {
            value <= self.threshold
        }
    }

    /// The separation between the calibrated class means, in the same unit as
    /// the samples (cycles).  Larger separation means a more robust channel;
    /// the paper reports roughly 10 cycles per dirty line.
    pub fn separation(&self) -> f64 {
        self.mean_one - self.mean_zero
    }
}

/// A `k`-level quantiser for multi-bit symbols.
///
/// Level `i` corresponds to the `i`-th calibration class (in the order the
/// classes were supplied, conventionally increasing dirty-line count).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiLevelThreshold {
    /// Mean latency of each class, ascending.
    means: Vec<f64>,
    /// Decision boundaries between consecutive classes (length = classes - 1).
    boundaries: Vec<f64>,
}

impl MultiLevelThreshold {
    /// Calibrates from one latency sample set per symbol level.
    ///
    /// Returns `None` if fewer than two classes are provided, any class is
    /// empty, or the class means do not strictly increase: the boundaries
    /// are meaningful only between classes in increasing-latency order, and
    /// two classes with one mean cannot be told apart.
    pub fn calibrate(classes: &[Vec<f64>]) -> Option<MultiLevelThreshold> {
        if classes.len() < 2 || classes.iter().any(|c| c.is_empty()) {
            return None;
        }
        let means: Vec<f64> = classes
            .iter()
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .collect();
        if !means.windows(2).all(|pair| pair[0] < pair[1]) {
            return None;
        }
        let boundaries = means
            .windows(2)
            .map(|pair| (pair[0] + pair[1]) / 2.0)
            .collect();
        Some(MultiLevelThreshold { means, boundaries })
    }

    /// Number of symbol levels.
    pub fn levels(&self) -> usize {
        self.means.len()
    }

    /// The calibrated per-level mean latencies.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// The decision boundaries.
    pub fn boundaries(&self) -> &[f64] {
        &self.boundaries
    }

    /// Classifies a latency into a symbol level index in `0..levels()`.
    pub fn classify(&self, latency: f64) -> usize {
        self.boundaries
            .iter()
            .position(|&b| latency <= b)
            .unwrap_or(self.means.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_threshold_sits_between_class_means() {
        let t = BinaryThreshold::calibrate(&[100.0, 104.0], &[120.0, 124.0]);
        assert!((t.value() - 112.0).abs() < 1e-12);
        assert!((t.separation() - 20.0).abs() < 1e-12);
        assert!(!t.classify(110.0));
        assert!(t.classify(113.0));
    }

    #[test]
    fn classify_bit_follows_the_channel_direction() {
        // Ones slower (WB / Prime+Probe direction).
        let slower = BinaryThreshold::calibrate(&[100.0], &[200.0]);
        assert!(slower.classify_directed(190.0));
        assert!(!slower.classify_directed(110.0));
        // Ones faster (a victim's load evicting a dirty prime).
        let faster = BinaryThreshold::calibrate(&[200.0], &[100.0]);
        assert!(faster.classify_directed(110.0));
        assert!(!faster.classify_directed(190.0));
        // A value on the threshold is a 0 when ones are slower and a 1 when
        // they are faster; equal means count as slower.
        assert!(!slower.classify_directed(150.0));
        assert!(faster.classify_directed(150.0));
        let equal = BinaryThreshold::calibrate(&[120.0], &[120.0]);
        assert!(!equal.classify_directed(120.0));
        assert!(equal.classify_directed(121.0));
    }

    #[test]
    fn empty_calibration_class_is_total() {
        let t = BinaryThreshold::calibrate(&[], &[10.0]);
        assert!((t.value() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn multi_level_classifies_into_nearest_class() {
        let classes = vec![
            vec![100.0, 102.0],
            vec![130.0, 132.0],
            vec![150.0, 152.0],
            vec![180.0, 184.0],
        ];
        let q = MultiLevelThreshold::calibrate(&classes).unwrap();
        assert_eq!(q.levels(), 4);
        assert_eq!(q.boundaries().len(), 3);
        assert_eq!(q.classify(90.0), 0);
        assert_eq!(q.classify(101.0), 0);
        assert_eq!(q.classify(133.0), 1);
        assert_eq!(q.classify(149.0), 2);
        assert_eq!(q.classify(200.0), 3);
    }

    #[test]
    fn multi_level_requires_two_sorted_nonempty_classes() {
        assert!(MultiLevelThreshold::calibrate(&[vec![1.0]]).is_none());
        assert!(MultiLevelThreshold::calibrate(&[vec![1.0], vec![]]).is_none());
        // Out-of-order class means are rejected rather than silently reordered.
        assert!(MultiLevelThreshold::calibrate(&[vec![10.0], vec![5.0]]).is_none());
        // So are classes with one mean, and a NaN sample.
        assert!(MultiLevelThreshold::calibrate(&[vec![4.0, 6.0], vec![5.0]]).is_none());
        assert!(MultiLevelThreshold::calibrate(&[vec![f64::NAN], vec![5.0]]).is_none());
    }

    #[test]
    fn means_accessor_round_trips() {
        let q = MultiLevelThreshold::calibrate(&[vec![1.0, 3.0], vec![7.0, 9.0]]).unwrap();
        assert_eq!(q.means(), &[2.0, 8.0]);
        assert_eq!(q.boundaries(), &[5.0]);
    }
}
