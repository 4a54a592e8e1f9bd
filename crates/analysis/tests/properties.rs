//! Property-based tests for the analysis primitives (the bit scorer against
//! the full-matrix oracle, edit-distance metric axioms, CDF monotonicity,
//! threshold correctness).

use analysis::edit_distance::{
    bit_error_rate, bits_to_bytes, bytes_to_bits, error_breakdown, scored_breakdown, ErrorBreakdown,
};
use analysis::histogram::Cdf;
use analysis::stats::Summary;
use analysis::threshold::BinaryThreshold;
use proptest::prelude::*;

/// The reference scorer: it fills every cell of the `(n + 1) * (m + 1)`
/// Wagner–Fischer dynamic program and backtracks with the canonical
/// tie-break (diagonal, then loss, then insertion). The bit-parallel
/// [`scored_breakdown`] must return exactly what this does.
fn full_matrix_breakdown(sent: &[bool], received: &[bool]) -> (usize, ErrorBreakdown) {
    let n = sent.len();
    let m = received.len();
    let width = m + 1;
    let mut dp = vec![0usize; (n + 1) * width];
    for i in 0..=n {
        dp[i * width] = i;
    }
    for (j, cell) in dp[..width].iter_mut().enumerate() {
        *cell = j;
    }
    for i in 1..=n {
        for j in 1..=m {
            let substitution = usize::from(sent[i - 1] != received[j - 1]);
            dp[i * width + j] = (dp[(i - 1) * width + j - 1] + substitution)
                .min(dp[(i - 1) * width + j] + 1)
                .min(dp[i * width + j - 1] + 1);
        }
    }
    let mut breakdown = ErrorBreakdown::default();
    let (mut i, mut j) = (n, m);
    while i > 0 || j > 0 {
        if i > 0 && j > 0 {
            let substitution = usize::from(sent[i - 1] != received[j - 1]);
            if dp[i * width + j] == dp[(i - 1) * width + j - 1] + substitution {
                breakdown.flips += substitution;
                i -= 1;
                j -= 1;
                continue;
            }
        }
        if i > 0 && dp[i * width + j] == dp[(i - 1) * width + j] + 1 {
            breakdown.losses += 1;
            i -= 1;
        } else {
            breakdown.insertions += 1;
            j -= 1;
        }
    }
    (dp[n * width + m], breakdown)
}

/// One channel error applied to a frame: `kind` 0 flips, 1 inserts and 2
/// drops the bit at `position` (taken modulo the current length).
fn apply_edits(sent: &[bool], edits: &[(u8, usize, bool)]) -> Vec<bool> {
    let mut received = sent.to_vec();
    for &(kind, position, bit) in edits {
        let at = position % (received.len() + 1);
        match kind {
            0 if at < received.len() => received[at] = !received[at],
            1 => received.insert(at, bit),
            2 if at < received.len() => {
                received.remove(at);
            }
            _ => {}
        }
    }
    received
}

/// The scorer's distance, for the metric axioms.
fn distance(a: &[bool], b: &[bool]) -> usize {
    scored_breakdown(a, b).0
}

/// `len` pseudo-random bits drawn from `seed`.
fn pseudo_random_bits(len: usize, seed: u64) -> Vec<bool> {
    (0..len as u64)
        .map(|i| {
            let z = ((seed << 32) | i).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            (z ^ (z >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9) >> 63 == 1
        })
        .collect()
}

/// Frame-sized received streams shifted by `shift` bits against a random
/// 128-bit frame: an optimal alignment `shift` cells off the diagonal.
fn shifted_pair(seed: u64, shift: usize) -> (Vec<bool>, Vec<bool>) {
    let bits: Vec<bool> = (0..128 + shift as u64)
        .map(|i| (seed ^ i).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 63 == 1)
        .collect();
    (bits[..128].to_vec(), bits[shift..].to_vec())
}

// The two tests below keep the names they had when a banded scorer ran a
// first pass of width 4 and widened it on demand; the inputs are the ones
// that exercised the widening, now checked against the full matrix.

#[test]
fn banded_scoring_reruns_when_the_first_band_is_too_narrow() {
    // The optimal alignment runs `shift` cells off the diagonal.
    for seed in 0..16 {
        for shift in [5, 8, 17, 40] {
            let (sent, received) = shifted_pair(seed, shift);
            let (distance, breakdown) = scored_breakdown(&sent, &received);
            assert!(distance > 4, "seed {seed} shift {shift}");
            assert_eq!(
                (distance, breakdown),
                full_matrix_breakdown(&sent, &received),
                "seed {seed} shift {shift}"
            );
        }
    }
    // A 40-bit stream received 6 bits late.
    let bits = pseudo_random_bits(46, 3);
    let (sent, received) = (&bits[..40], &bits[6..]);
    let (distance, breakdown) = scored_breakdown(sent, received);
    assert!(distance > 4);
    assert_eq!(breakdown.total(), distance);
    assert_eq!((distance, breakdown), full_matrix_breakdown(sent, received));
}

#[test]
fn banded_scoring_handles_lengths_far_apart() {
    // |n - m| > 4: the alignment needs at least that many losses or
    // insertions.
    for seed in 0..16 {
        let (sent, received) = shifted_pair(seed, 9);
        for cut in [5, 9, 30, 127] {
            let short = &received[..128 - cut];
            assert_eq!(
                scored_breakdown(&sent, short),
                full_matrix_breakdown(&sent, short),
                "seed {seed} cut {cut}"
            );
            assert_eq!(
                scored_breakdown(short, &sent),
                full_matrix_breakdown(short, &sent),
                "seed {seed} cut {cut}"
            );
        }
    }
    // A received prefix 10 bits short: exactly 10 losses, and read the
    // other way round exactly 10 insertions.
    let sent = pseudo_random_bits(40, 5);
    let received = &sent[..30];
    let lost = ErrorBreakdown {
        flips: 0,
        insertions: 0,
        losses: 10,
    };
    assert_eq!(scored_breakdown(&sent, received), (10, lost));
    assert_eq!(
        scored_breakdown(&sent, received),
        full_matrix_breakdown(&sent, received)
    );
    let (distance, breakdown) = scored_breakdown(received, &sent);
    assert_eq!((distance, breakdown.insertions), (10, 10));
    assert_eq!(
        (distance, breakdown),
        full_matrix_breakdown(received, &sent)
    );
}

#[test]
fn scoring_matches_the_full_matrix_at_word_boundary_lengths() {
    // Lengths on either side of every 64-bit word boundary up to four
    // words, on both sides: unrelated streams, and a received stream that
    // is a noisy copy of the sent one.
    const LENGTHS: [usize; 14] = [
        0, 1, 63, 64, 65, 127, 128, 129, 191, 192, 193, 255, 256, 257,
    ];
    for (a, &n) in LENGTHS.iter().enumerate() {
        for (b, &m) in LENGTHS.iter().enumerate() {
            let sent = pseudo_random_bits(n, (a * 16 + b) as u64);
            let unrelated = pseudo_random_bits(m, (a * 16 + b + 256) as u64);
            let mut copy: Vec<bool> = sent.iter().copied().cycle().take(m).collect();
            if copy.len() < m {
                copy = unrelated.clone();
            }
            for (k, bit) in copy.iter_mut().enumerate() {
                *bit ^= k % 11 == 3;
            }
            for received in [&unrelated, &copy] {
                assert_eq!(
                    scored_breakdown(&sent, received),
                    full_matrix_breakdown(&sent, received),
                    "n {n} m {m}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The edit distance is a metric: identity, symmetry and the triangle
    /// inequality hold on bit sequences.
    #[test]
    fn edit_distance_is_a_metric(
        a in proptest::collection::vec(any::<bool>(), 0..48),
        b in proptest::collection::vec(any::<bool>(), 0..48),
        c in proptest::collection::vec(any::<bool>(), 0..48),
    ) {
        prop_assert_eq!(distance(&a, &a), 0);
        prop_assert_eq!(distance(&a, &b), distance(&b, &a));
        prop_assert!(distance(&a, &c) <= distance(&a, &b) + distance(&b, &c));
        // Bounded by the longer length and at least the length difference.
        let d = distance(&a, &b);
        prop_assert!(d <= a.len().max(b.len()));
        prop_assert!(d >= a.len().abs_diff(b.len()));
    }

    /// The per-type breakdown always sums to the edit distance, and every
    /// bit outside a loss or an insertion lies on the alignment's diagonal.
    #[test]
    fn breakdown_total_equals_distance(
        a in proptest::collection::vec(any::<bool>(), 0..40),
        b in proptest::collection::vec(any::<bool>(), 0..40),
    ) {
        let breakdown = error_breakdown(&a, &b);
        prop_assert_eq!(breakdown.total(), distance(&a, &b));
        prop_assert_eq!(a.len() - breakdown.losses, b.len() - breakdown.insertions);
    }

    /// The scorer equals the full matrix on independent strings of any
    /// lengths up to three words, empty sides and lengths far apart included.
    #[test]
    fn scoring_matches_the_full_matrix(
        sent in proptest::collection::vec(any::<bool>(), 0..161),
        received in proptest::collection::vec(any::<bool>(), 0..161),
    ) {
        prop_assert_eq!(scored_breakdown(&sent, &received), full_matrix_breakdown(&sent, &received));
    }

    /// The scorer equals the full matrix on 128-bit frames with up to 12
    /// flips, insertions and losses.
    #[test]
    fn scoring_matches_the_full_matrix_on_noisy_frames(
        sent in proptest::collection::vec(any::<bool>(), 128..129),
        edits in proptest::collection::vec((0u8..3, 0usize..256, any::<bool>()), 0..13),
    ) {
        let received = apply_edits(&sent, &edits);
        let (distance, breakdown) = scored_breakdown(&sent, &received);
        prop_assert!(distance <= edits.len());
        prop_assert_eq!((distance, breakdown), full_matrix_breakdown(&sent, &received));
    }

    /// The scorer equals the full matrix on near-random 128-bit pairs.
    #[test]
    fn scoring_matches_the_full_matrix_on_random_frames(
        sent in proptest::collection::vec(any::<bool>(), 128..129),
        received in proptest::collection::vec(any::<bool>(), 120..137),
    ) {
        prop_assert_eq!(scored_breakdown(&sent, &received), full_matrix_breakdown(&sent, &received));
    }

    /// The scorer equals the full matrix on 256-bit frames (four words) with
    /// up to 40 flips, insertions and losses.
    #[test]
    fn scoring_matches_the_full_matrix_on_noisy_256_bit_frames(
        sent in proptest::collection::vec(any::<bool>(), 256..257),
        edits in proptest::collection::vec((0u8..3, 0usize..512, any::<bool>()), 0..41),
    ) {
        let received = apply_edits(&sent, &edits);
        let (distance, breakdown) = scored_breakdown(&sent, &received);
        prop_assert!(distance <= edits.len());
        prop_assert_eq!((distance, breakdown), full_matrix_breakdown(&sent, &received));
    }

    /// The scorer equals the full matrix on near-random 256-bit pairs.
    #[test]
    fn scoring_matches_the_full_matrix_on_random_256_bit_frames(
        sent in proptest::collection::vec(any::<bool>(), 256..257),
        received in proptest::collection::vec(any::<bool>(), 240..273),
    ) {
        prop_assert_eq!(scored_breakdown(&sent, &received), full_matrix_breakdown(&sent, &received));
    }

    /// Bit error rate is normalised to the sent length and bounded.
    #[test]
    fn bit_error_rate_is_bounded(
        sent in proptest::collection::vec(any::<bool>(), 1..64),
        received in proptest::collection::vec(any::<bool>(), 0..64),
    ) {
        let ber = bit_error_rate(&sent, &received);
        prop_assert!(ber >= 0.0);
        // Worst case: every sent bit lost plus extra insertions.
        prop_assert!(ber <= (sent.len().max(received.len()) as f64) / sent.len() as f64);
    }

    /// Bytes -> bits -> bytes round-trips exactly.
    #[test]
    fn byte_bit_round_trip(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let bits = bytes_to_bits(&bytes);
        prop_assert_eq!(bits.len(), bytes.len() * 8);
        prop_assert_eq!(bits_to_bytes(&bits), bytes);
    }

    /// Empirical CDFs are monotone, bounded by [0, 1] and end at 1.
    #[test]
    fn cdf_is_monotone(samples in proptest::collection::vec(0.0f64..1e6, 1..200)) {
        let cdf = Cdf::from_samples(&samples);
        let mut previous = 0.0;
        for point in &cdf.points {
            prop_assert!(point.fraction >= previous - 1e-12);
            prop_assert!(point.fraction <= 1.0 + 1e-12);
            previous = point.fraction;
        }
        prop_assert!((previous - 1.0).abs() < 1e-9);
        // The CDF evaluated at the maximum sample is 1.
        let max = samples.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!((cdf.at(max) - 1.0).abs() < 1e-9);
    }

    /// Summary statistics respect min <= percentiles <= max and the mean lies
    /// within [min, max].
    #[test]
    fn summary_orderings(samples in proptest::collection::vec(-1e6f64..1e6, 1..300)) {
        let s = Summary::of(&samples).unwrap();
        prop_assert!(s.min <= s.p05 + 1e-9);
        prop_assert!(s.p05 <= s.median + 1e-9);
        prop_assert!(s.median <= s.p95 + 1e-9);
        prop_assert!(s.p95 <= s.max + 1e-9);
        prop_assert!(s.mean >= s.min - 1e-9 && s.mean <= s.max + 1e-9);
        prop_assert!(s.std_dev >= 0.0);
    }

    /// A threshold calibrated on two separated clusters classifies both
    /// training clusters perfectly.
    #[test]
    fn calibrated_threshold_separates_disjoint_clusters(
        zeros in proptest::collection::vec(0.0f64..100.0, 1..50),
        ones_offset in 150.0f64..1000.0,
        ones_count in 1usize..50,
    ) {
        let ones: Vec<f64> = (0..ones_count).map(|i| ones_offset + i as f64).collect();
        let threshold = BinaryThreshold::calibrate(&zeros, &ones);
        for &z in &zeros {
            prop_assert!(!threshold.classify(z));
        }
        for &o in &ones {
            prop_assert!(threshold.classify(o));
        }
        prop_assert!(threshold.separation() > 0.0);
    }
}
