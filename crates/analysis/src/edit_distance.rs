//! Wagner–Fischer edit distance and bit-error rates.
//!
//! The paper evaluates its covert channels with the edit distance between the
//! transmitted and received bit sequences (Sec. V): this accounts for all
//! three error types — bit flips (substitutions), bit insertions and bit
//! losses (deletions) — that arise when the sender and receiver periods drift
//! apart.

/// Computes the Wagner–Fischer (Levenshtein) edit distance between two
/// sequences, counting substitutions, insertions and deletions each as one
/// edit.
///
/// Memory usage is `O(min(|a|, |b|))`.
pub fn edit_distance<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    // Keep the shorter sequence as the row to minimise memory.
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return long.len();
    }
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut current = vec![0usize; short.len() + 1];
    for (i, long_item) in long.iter().enumerate() {
        current[0] = i + 1;
        for (j, short_item) in short.iter().enumerate() {
            let substitution_cost = usize::from(long_item != short_item);
            current[j + 1] = (prev[j] + substitution_cost)
                .min(prev[j + 1] + 1)
                .min(current[j] + 1);
        }
        std::mem::swap(&mut prev, &mut current);
    }
    prev[short.len()]
}

/// The bit error rate of a transmission, defined as the edit distance between
/// the sent and received sequences divided by the number of sent bits
/// (the paper's metric).
///
/// Returns `0.0` when `sent` is empty.
pub fn bit_error_rate(sent: &[bool], received: &[bool]) -> f64 {
    if sent.is_empty() {
        return 0.0;
    }
    edit_distance(sent, received) as f64 / sent.len() as f64
}

/// A per-error-type breakdown obtained from the optimal alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ErrorBreakdown {
    /// Substitutions (bit flips).
    pub flips: usize,
    /// Insertions (spurious bits decoded by the receiver).
    pub insertions: usize,
    /// Deletions (bits the receiver never saw).
    pub losses: usize,
}

impl ErrorBreakdown {
    /// Total number of edits.
    pub fn total(&self) -> usize {
        self.flips + self.insertions + self.losses
    }
}

/// Computes the edit distance together with a breakdown into the paper's
/// three error classes (flip / insertion / loss), by backtracking over the
/// dynamic-programming cells that an optimal alignment can reach.
///
/// Equivalent to `scored_breakdown(sent, received).1`; see
/// [`scored_breakdown`] for the cost and the tie-break that fixes the
/// breakdown when several optimal alignments exist.
pub fn error_breakdown(sent: &[bool], received: &[bool]) -> ErrorBreakdown {
    scored_breakdown(sent, received).1
}

/// The first pass's minimum band half-width: frames that arrive with at most
/// this many edits are scored in one pass.
const FIRST_BAND: usize = 4;

/// The value of a cell outside the band. Half of `u32::MAX`, so adding one
/// edit cannot wrap.
const OUTSIDE: u32 = u32::MAX / 2;

/// Computes the Wagner–Fischer distance *and* its per-error-type breakdown:
/// the corner cell of the dynamic program is the distance, and a backtrack
/// from it classifies the optimal alignment's edits. Equivalent to calling
/// [`edit_distance`] and [`error_breakdown`] separately.
///
/// The program is banded (Ukkonen): with `n = |sent|` and `m = |received|`,
/// a pass fills only the cells `(i, j)` with `|i - j| <= k`. An alignment of
/// cost `d` never leaves the band `|i - j| <= d`, so a band with `k >= d`
/// holds every cell of every optimal alignment at its exact value. The
/// first pass uses `k = max(|n - m|, 4)`. If its corner `c` is at most `k`,
/// `c` is the distance. Otherwise `c` is the cost of a real alignment, so the
/// distance is at most `c`, and one more pass with `k = min(c, max(n, m))`
/// is exact. A pass costs `O((n + 1) * (2k + 3))` in time and in `u32` cells
/// of memory, so a frame that arrives with few edits costs one pass over a
/// few KB instead of the full `(n + 1) * (m + 1)` matrix, and any other
/// frame at most one more pass.
///
/// The backtrack prefers diagonal moves, then losses, then insertions. Every
/// cell it visits lies on an optimal alignment, hence inside the band, and
/// the cells outside the band only read larger than their full-matrix
/// values, so no tie appears that the full matrix lacks: the breakdown is the
/// one the full matrix gives.
///
/// Lengths must fit in a `u32` with room to spare (below 2^31).
pub fn scored_breakdown(sent: &[bool], received: &[bool]) -> (usize, ErrorBreakdown) {
    let (n, m) = (sent.len(), received.len());
    let longer = n.max(m);
    let mut band = Band::fill(sent, received, n.abs_diff(m).max(FIRST_BAND).min(longer));
    let corner = band.at(n, m) as usize;
    if corner > band.k {
        band = Band::fill(sent, received, corner.min(longer));
    }
    let distance = band.at(n, m);
    // Backtrack, preferring diagonal moves, then deletions, then insertions —
    // the tie-break order that defines the canonical breakdown.
    let mut breakdown = ErrorBreakdown::default();
    let (mut i, mut j) = (n, m);
    while i > 0 || j > 0 {
        let here = band.at(i, j);
        if i > 0 && j > 0 {
            let substitution = u32::from(sent[i - 1] != received[j - 1]);
            if here == band.at(i - 1, j - 1) + substitution {
                if substitution == 1 {
                    breakdown.flips += 1;
                }
                i -= 1;
                j -= 1;
                continue;
            }
        }
        if i > 0 && here == band.at(i - 1, j) + 1 {
            // A sent bit that never arrived.
            breakdown.losses += 1;
            i -= 1;
        } else {
            // A received bit that was never sent.
            breakdown.insertions += 1;
            j -= 1;
        }
    }
    (distance as usize, breakdown)
}

/// The cells `(i, j)` with `|i - j| <= k` of the edit-distance program, one
/// row per sent bit. Row `i` holds columns `i - k - 1 ..= i + k + 1` at
/// offsets `0 ..= 2k + 2`; the two end offsets are guard cells that stay
/// [`OUTSIDE`], so the fill loop reads its neighbours without bound tests.
struct Band {
    k: usize,
    width: usize,
    cells: Vec<u32>,
}

impl Band {
    /// Fills the band of half-width `k`, which must be at least
    /// `|sent| - |received|` in magnitude so that the corner lies inside it.
    fn fill(sent: &[bool], received: &[bool], k: usize) -> Band {
        let (n, m) = (sent.len(), received.len());
        let width = 2 * k + 3;
        let mut cells = vec![OUTSIDE; (n + 1) * width];
        for (j, cell) in cells[k + 1..].iter_mut().take(m.min(k) + 1).enumerate() {
            *cell = j as u32;
        }
        for i in 1..=n {
            let sent_bit = sent[i - 1];
            let (above, row) = cells[(i - 1) * width..(i + 1) * width].split_at_mut(width);
            if i <= k {
                row[k + 1 - i] = i as u32;
            }
            // Columns `first ..= last` of row `i`, at offsets `start ..` (the
            // offset of column `j` is `j + k + 1 - i`); received bit `j - 1`
            // scores column `j`.
            let first = i.saturating_sub(k).max(1);
            let last = (i + k).min(m);
            if first > last {
                // `received` is empty: row `i` has only column 0.
                continue;
            }
            let start = first + k + 1 - i;
            let received = &received[first - 1..last];
            let above = &above[start..=start + received.len()];
            let (left, row) = row[start - 1..start + received.len()].split_at_mut(1);
            let mut left = left[0];
            for ((cell, pair), &received_bit) in row.iter_mut().zip(above.windows(2)).zip(received)
            {
                let substitution = u32::from(sent_bit != received_bit);
                left = (pair[0] + substitution).min(pair[1] + 1).min(left + 1);
                *cell = left;
            }
        }
        Band { k, width, cells }
    }

    /// The value of cell `(i, j)`: exact inside the band when the band is
    /// wide enough, and [`OUTSIDE`] beyond it.
    fn at(&self, i: usize, j: usize) -> u32 {
        if i.abs_diff(j) > self.k {
            OUTSIDE
        } else {
            self.cells[i * self.width + j + self.k + 1 - i]
        }
    }
}

/// Converts a byte slice into its bit sequence (MSB first), the format used
/// by the protocol layer for payloads.
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<bool> {
    bytes
        .iter()
        .flat_map(|byte| (0..8).rev().map(move |bit| (byte >> bit) & 1 == 1))
        .collect()
}

/// Converts a bit sequence (MSB first) back into bytes, zero-padding the last
/// partial byte.
pub fn bits_to_bytes(bits: &[bool]) -> Vec<u8> {
    bits.chunks(8)
        .map(|chunk| {
            chunk
                .iter()
                .enumerate()
                .fold(0u8, |acc, (i, &bit)| acc | (u8::from(bit) << (7 - i)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sequences_have_zero_distance() {
        let bits = [true, false, true];
        assert_eq!(edit_distance(&bits, &bits), 0);
        assert_eq!(bit_error_rate(&bits, &bits), 0.0);
    }

    #[test]
    fn classic_string_example() {
        let kitten: Vec<char> = "kitten".chars().collect();
        let sitting: Vec<char> = "sitting".chars().collect();
        assert_eq!(edit_distance(&kitten, &sitting), 3);
        // Symmetry.
        assert_eq!(edit_distance(&sitting, &kitten), 3);
    }

    #[test]
    fn empty_cases() {
        let bits = [true, true, false];
        assert_eq!(edit_distance::<bool>(&[], &[]), 0);
        assert_eq!(edit_distance(&bits, &[]), 3);
        assert_eq!(edit_distance(&[], &bits), 3);
        assert_eq!(bit_error_rate(&[], &bits), 0.0);
    }

    #[test]
    fn single_flip_insertion_and_loss() {
        let sent = [true, false, true, true];
        let flipped = [true, true, true, true];
        let inserted = [true, false, false, true, true];
        let lost = [true, true, true];
        assert_eq!(edit_distance(&sent, &flipped), 1);
        assert_eq!(edit_distance(&sent, &inserted), 1);
        assert_eq!(edit_distance(&sent, &lost), 1);
        assert!((bit_error_rate(&sent, &flipped) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn breakdown_identifies_error_types() {
        let sent = [true, false, true, true, false];
        // One flip at position 1, one loss at the end.
        let received = [true, true, true, true];
        let breakdown = error_breakdown(&sent, &received);
        assert_eq!(breakdown.total(), edit_distance(&sent, &received));
        assert_eq!(breakdown.flips, 1);
        assert_eq!(breakdown.losses, 1);
        assert_eq!(breakdown.insertions, 0);

        // Pure insertion.
        let received = [true, false, true, false, true, false];
        let breakdown = error_breakdown(&sent, &received);
        assert_eq!(breakdown.total(), edit_distance(&sent, &received));
        assert!(breakdown.insertions >= 1);
    }

    #[test]
    fn byte_bit_round_trip() {
        let bytes = [0xAB, 0x00, 0xFF, 0x42];
        let bits = bytes_to_bits(&bytes);
        assert_eq!(bits.len(), 32);
        assert_eq!(bits_to_bytes(&bits), bytes.to_vec());
        // MSB first: 0xAB = 1010_1011.
        assert_eq!(
            &bits[..8],
            &[true, false, true, false, true, false, true, true]
        );
        // Partial byte padding.
        assert_eq!(bits_to_bytes(&[true, true]), vec![0b1100_0000]);
    }

    #[test]
    fn fused_scoring_matches_the_separate_passes() {
        // Deterministic pseudo-random bit pairs covering flips, insertions
        // and losses at assorted lengths (including empty sides and frames
        // longer than 128 bits).
        for seed in 0u64..40 {
            let n = (seed * 37 % 211) as usize;
            let m = (seed * 53 % 199) as usize;
            let sent: Vec<bool> = (0..n)
                .map(|i| (seed + i as u64) * 2_654_435_761 % 5 < 2)
                .collect();
            let received: Vec<bool> = (0..m).map(|i| (seed + i as u64) * 40_503 % 7 < 3).collect();
            let (distance, breakdown) = scored_breakdown(&sent, &received);
            assert_eq!(distance, edit_distance(&sent, &received), "seed {seed}");
            assert_eq!(breakdown, error_breakdown(&sent, &received), "seed {seed}");
            assert_eq!(breakdown.total(), distance, "seed {seed}");
        }
    }

    fn pseudo_random_bits(len: usize, seed: u64) -> Vec<bool> {
        (0..len as u64)
            .map(|i| {
                let z = ((seed << 32) | i).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                (z ^ (z >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9) >> 63 == 1
            })
            .collect()
    }

    #[test]
    fn second_pass_recovers_alignments_outside_the_first_band() {
        // A received stream shifted by 6 bits against the sent one: the
        // optimal alignment runs 6 cells off the diagonal, outside the first
        // band, so the first corner is not the distance.
        let bits = pseudo_random_bits(46, 3);
        let (sent, received) = (&bits[..40], &bits[6..]);
        let (distance, breakdown) = scored_breakdown(sent, received);
        assert_eq!(distance, edit_distance(sent, received));
        assert!(distance > FIRST_BAND);
        assert_eq!(breakdown.total(), distance);
        let first = Band::fill(sent, received, FIRST_BAND);
        assert!(
            first.at(40, 40) as usize > distance,
            "first pass is inexact"
        );
    }

    #[test]
    fn first_band_widens_to_the_length_difference() {
        // A received prefix 10 bits short: exactly 10 losses, scored in
        // one pass whose band is 10 wide.
        let sent = pseudo_random_bits(40, 5);
        let received = &sent[..30];
        let (distance, breakdown) = scored_breakdown(&sent, received);
        assert_eq!(distance, 10);
        assert_eq!(
            breakdown,
            ErrorBreakdown {
                flips: 0,
                insertions: 0,
                losses: 10
            }
        );
        let (distance, breakdown) = scored_breakdown(received, &sent);
        assert_eq!((distance, breakdown.insertions), (10, 10));
    }

    #[test]
    fn distance_is_bounded_by_longer_length() {
        let a = [true; 16];
        let b = [false; 9];
        let d = edit_distance(&a, &b);
        assert!(d <= 16);
        assert!(d >= 16 - 9);
    }
}
