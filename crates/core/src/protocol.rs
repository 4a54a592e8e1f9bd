//! Framing, preamble alignment and latency decoding (Algorithm 3's data
//! plane).
//!
//! The paper's evaluation transmits 128-bit frames whose first 16 bits are a
//! fixed pattern the receiver uses to align its sample stream (Figures 5 and
//! 7 show those 16 bits enlarged).  The decoder maps each measured
//! replacement latency to a symbol via the calibrated thresholds, unpacks
//! symbols into bits, finds the preamble and scores the remainder with the
//! edit distance.

use crate::encoding::SymbolEncoding;
use crate::error::Error;
use analysis::edit_distance::{scored_breakdown, ErrorBreakdown};
use analysis::threshold::MultiLevelThreshold;
use rand::Rng;

/// Number of fixed alignment bits at the start of every frame.
pub const PREAMBLE_BITS: usize = 16;

/// The fixed 16-bit preamble (the bit pattern visible in the magnified part
/// of the paper's Figure 5: `0000 1010 1111 0101`).
pub fn preamble() -> Vec<bool> {
    [0u8, 0, 0, 0, 1, 0, 1, 0, 1, 1, 1, 1, 0, 1, 0, 1]
        .iter()
        .map(|&b| b == 1)
        .collect()
}

/// A transmission frame: the fixed preamble followed by payload bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    bits: Vec<bool>,
}

impl Frame {
    /// Builds a frame from payload bits (the preamble is prepended).
    pub fn from_payload(payload: &[bool]) -> Frame {
        let mut bits = preamble();
        bits.extend_from_slice(payload);
        Frame { bits }
    }

    /// Builds a frame of `total_bits` total length whose payload (after the
    /// 16 fixed bits) is random — the paper's "128-bit random sequence whose
    /// first 16 bits are set to a fixed value".
    ///
    /// # Panics
    ///
    /// Panics if `total_bits < PREAMBLE_BITS`.
    pub fn random<R: Rng + ?Sized>(total_bits: usize, rng: &mut R) -> Frame {
        assert!(
            total_bits >= PREAMBLE_BITS,
            "frames must be at least {PREAMBLE_BITS} bits"
        );
        let payload: Vec<bool> = (0..total_bits - PREAMBLE_BITS).map(|_| rng.gen()).collect();
        Frame::from_payload(&payload)
    }

    /// Checks that frames of `total_bits` bits hold the preamble, so that
    /// [`Frame::random`] accepts them.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for `bits_per_frame` when
    /// `total_bits < PREAMBLE_BITS`.
    pub(crate) fn check_length(total_bits: usize) -> Result<(), Error> {
        if total_bits < PREAMBLE_BITS {
            return Err(Error::InvalidConfig {
                field: "bits_per_frame",
                reason: format!("frames must be at least {PREAMBLE_BITS} bits, got {total_bits}"),
            });
        }
        Ok(())
    }

    /// All bits of the frame (preamble included).
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// The payload bits (preamble excluded).
    pub fn payload(&self) -> &[bool] {
        &self.bits[PREAMBLE_BITS..]
    }

    /// Frame length in bits.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the frame carries no bits (never true for constructed frames).
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }
}

/// The calibrated latency-to-symbol decoder: one quantiser for every
/// encoding, a binary one having two levels.
#[derive(Debug, Clone, PartialEq)]
pub struct Decoder {
    encoding: SymbolEncoding,
    quantiser: MultiLevelThreshold,
}

impl Decoder {
    /// Builds a decoder from per-symbol calibration latency classes
    /// (`classes[i]` holds training latencies for symbol value `i`, in
    /// increasing dirty-line order).
    ///
    /// # Errors
    ///
    /// Returns [`Error::CalibrationFailed`] if the classes cannot be
    /// separated (wrong count, empty class, class means that do not
    /// strictly increase).
    pub fn from_calibration(
        encoding: SymbolEncoding,
        classes: &[Vec<f64>],
    ) -> Result<Decoder, Error> {
        if classes.len() != encoding.num_symbols() {
            return Err(Error::CalibrationFailed {
                reason: format!(
                    "expected {} calibration classes, got {}",
                    encoding.num_symbols(),
                    classes.len()
                ),
            });
        }
        let quantiser =
            MultiLevelThreshold::calibrate(classes).ok_or_else(|| Error::CalibrationFailed {
                reason: "calibration classes are empty or their means do not strictly increase"
                    .into(),
            })?;
        Ok(Decoder {
            encoding,
            quantiser,
        })
    }

    /// The encoding this decoder expects.
    pub fn encoding(&self) -> &SymbolEncoding {
        &self.encoding
    }

    /// The binary decision threshold, when this is a binary decoder.
    pub fn binary_threshold(&self) -> Option<f64> {
        match (&self.encoding, self.quantiser.boundaries()) {
            (SymbolEncoding::Binary { .. }, &[threshold]) => Some(threshold),
            _ => None,
        }
    }

    /// Classifies one measured latency into a symbol value.
    pub fn classify(&self, latency: u64) -> usize {
        self.quantiser.classify(latency as f64)
    }

    /// Decodes a latency series into symbols.
    pub fn symbols(&self, latencies: &[u64]) -> Vec<usize> {
        latencies.iter().map(|&l| self.classify(l)).collect()
    }

    /// Decodes a latency series into bits.
    pub fn bits(&self, latencies: &[u64]) -> Vec<bool> {
        self.encoding.symbols_to_bits(&self.symbols(latencies))
    }
}

/// Result of aligning a decoded bit stream against the transmitted frame and
/// scoring it.
#[derive(Debug, Clone, PartialEq)]
pub struct AlignmentResult {
    /// Offset (in bits) into the decoded stream where the frame was found.
    pub offset: usize,
    /// The decoded bits used for scoring (starting at `offset`, up to the
    /// frame length).
    pub aligned_bits: Vec<bool>,
    /// Edit distance between sent and aligned-received bits.
    pub edit_distance: usize,
    /// Edit distance divided by the number of sent bits.
    pub bit_error_rate: f64,
    /// Per-error-type breakdown (flips / insertions / losses).
    pub breakdown: ErrorBreakdown,
}

/// Aligns `decoded` to `sent` by sliding the 16-bit preamble over the first
/// `max_shift` positions of the decoded stream and picking the offset with
/// the smallest Hamming distance, then scores the aligned window with the
/// edit distance.
pub fn align_and_score(sent: &[bool], decoded: &[bool], max_shift: usize) -> AlignmentResult {
    let pre = &sent[..PREAMBLE_BITS.min(sent.len())];
    let mut best_offset = 0usize;
    let mut best_mismatch = usize::MAX;
    let last_start = decoded.len().saturating_sub(pre.len()).min(max_shift);
    for offset in 0..=last_start {
        let window = &decoded[offset..offset + pre.len().min(decoded.len() - offset)];
        let mismatch = pre
            .iter()
            .zip(window.iter())
            .filter(|(a, b)| a != b)
            .count()
            + pre.len().saturating_sub(window.len());
        if mismatch < best_mismatch {
            best_mismatch = mismatch;
            best_offset = offset;
        }
    }
    let end = (best_offset + sent.len()).min(decoded.len());
    let aligned: Vec<bool> = decoded[best_offset..end].to_vec();
    let (distance, breakdown) = scored_breakdown(sent, &aligned);
    AlignmentResult {
        offset: best_offset,
        bit_error_rate: if sent.is_empty() {
            0.0
        } else {
            distance as f64 / sent.len() as f64
        },
        edit_distance: distance,
        aligned_bits: aligned,
        breakdown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn preamble_is_16_bits_with_both_values() {
        let p = preamble();
        assert_eq!(p.len(), PREAMBLE_BITS);
        assert!(p.iter().any(|&b| b));
        assert!(p.iter().any(|&b| !b));
    }

    #[test]
    fn random_frames_start_with_the_preamble() {
        let mut rng = StdRng::seed_from_u64(3);
        let frame = Frame::random(128, &mut rng);
        assert_eq!(frame.len(), 128);
        assert!(!frame.is_empty());
        assert_eq!(&frame.bits()[..16], preamble().as_slice());
        assert_eq!(frame.payload().len(), 112);
        let frame2 = Frame::random(128, &mut rng);
        assert_ne!(frame.payload(), frame2.payload(), "payloads are random");
    }

    #[test]
    fn binary_decoder_classifies_latencies() {
        let encoding = SymbolEncoding::binary(1).unwrap();
        let classes = vec![vec![130.0, 134.0, 132.0], vec![145.0, 147.0, 143.0]];
        let decoder = Decoder::from_calibration(encoding, &classes).unwrap();
        assert_eq!(decoder.classify(131), 0);
        assert_eq!(decoder.classify(146), 1);
        assert_eq!(decoder.symbols(&[131, 146, 130]), vec![0, 1, 0]);
        assert_eq!(decoder.bits(&[131, 146]), vec![false, true]);
        // Halfway between the class means, 132 and 145.
        assert_eq!(decoder.binary_threshold(), Some(138.5));
        assert_eq!(decoder.classify(138), 0);
        assert_eq!(decoder.classify(139), 1);
        assert_eq!(decoder.encoding().bits_per_symbol(), 1);
    }

    #[test]
    fn multibit_decoder_classifies_into_four_levels() {
        let encoding = SymbolEncoding::paper_two_bit();
        let classes = vec![
            vec![130.0, 132.0],
            vec![163.0, 165.0],
            vec![185.0, 187.0],
            vec![218.0, 220.0],
        ];
        let decoder = Decoder::from_calibration(encoding, &classes).unwrap();
        assert_eq!(decoder.classify(131), 0);
        assert_eq!(decoder.classify(166), 1);
        assert_eq!(decoder.classify(190), 2);
        assert_eq!(decoder.classify(240), 3);
        assert_eq!(decoder.bits(&[131, 240]), vec![false, false, true, true]);
        assert!(decoder.binary_threshold().is_none());
    }

    #[test]
    fn calibration_errors_are_reported() {
        let encoding = SymbolEncoding::binary(1).unwrap();
        assert!(Decoder::from_calibration(encoding.clone(), &[vec![1.0]]).is_err());
        assert!(Decoder::from_calibration(encoding.clone(), &[vec![], vec![1.0]]).is_err());
        // Identical or inverted binary classes cannot be told apart.
        for classes in [[vec![7.0], vec![7.0]], [vec![9.0], vec![8.0]]] {
            let error = Decoder::from_calibration(encoding.clone(), &classes).unwrap_err();
            assert!(matches!(error, Error::CalibrationFailed { .. }), "{error}");
        }
        let multibit = SymbolEncoding::paper_two_bit();
        // Non-monotonic class means are rejected.
        let classes = vec![vec![10.0], vec![5.0], vec![20.0], vec![30.0]];
        assert!(Decoder::from_calibration(multibit, &classes).is_err());
    }

    #[test]
    fn alignment_recovers_a_shifted_stream() {
        let mut rng = StdRng::seed_from_u64(5);
        let frame = Frame::random(64, &mut rng);
        // The decoded stream has two junk bits before the frame starts.
        let mut decoded = vec![true, true];
        decoded.extend_from_slice(frame.bits());
        let result = align_and_score(frame.bits(), &decoded, 8);
        assert_eq!(result.offset, 2);
        assert_eq!(result.edit_distance, 0);
        assert_eq!(result.bit_error_rate, 0.0);
    }

    #[test]
    fn alignment_scores_flips_and_truncation() {
        let mut rng = StdRng::seed_from_u64(6);
        let frame = Frame::random(64, &mut rng);
        let mut decoded = frame.bits().to_vec();
        decoded[20] = !decoded[20];
        decoded[40] = !decoded[40];
        decoded.truncate(60); // 4 bits lost
        let result = align_and_score(frame.bits(), &decoded, 8);
        assert_eq!(result.offset, 0);
        assert_eq!(result.edit_distance, 6);
        assert!((result.bit_error_rate - 6.0 / 64.0).abs() < 1e-12);
        assert_eq!(result.breakdown.total(), 6);
        assert!(result.breakdown.losses >= 4);
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn tiny_frames_are_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = Frame::random(8, &mut rng);
    }
}
