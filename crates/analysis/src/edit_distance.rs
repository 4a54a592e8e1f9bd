//! Edit distance and bit-error rates of bit streams.
//!
//! The paper evaluates its covert channels with the edit distance between the
//! transmitted and received bit sequences (Sec. V): this accounts for all
//! three error types — bit flips (substitutions), bit insertions and bit
//! losses (deletions) — that arise when the sender and receiver periods drift
//! apart. [`scored_breakdown`] computes the distance with Myers' bit-parallel
//! algorithm and splits it into the three types by a traceback over the
//! exact dynamic program.

/// The bit error rate of a transmission, defined as the edit distance between
/// the sent and received sequences divided by the number of sent bits
/// (the paper's metric).
///
/// Returns `0.0` when `sent` is empty.
pub fn bit_error_rate(sent: &[bool], received: &[bool]) -> f64 {
    if sent.is_empty() {
        return 0.0;
    }
    scored_breakdown(sent, received).0 as f64 / sent.len() as f64
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

/// Computes the edit distance *and* its per-error-type breakdown: the
/// corner `D[n][m]` of the dynamic program is the distance, and a traceback
/// from it classifies the optimal alignment's edits. Here `D[i][j]` is the
/// distance between the first `i` sent and the first `j` received bits,
/// `n = |sent|` and `m = |received|`.
///
/// The program is filled column by column with Myers' bit-parallel
/// algorithm (J. ACM 1999) in Hyyrö's block form: a column of `n` rows is
/// packed into `ceil(n / 64)` words and computed from the previous one and
/// the received bit's match mask in a few word operations per word. The
/// horizontal delta at each word's top row carries down from the word above,
/// and row 0 gains one per column because `D[0][j] = j`. Each column is kept
/// as its vertical and horizontal deltas, four bit vectors:
/// `4 * (m + 1) * ceil(n / 64)` words, 8 KB for a 128-bit frame.
///
/// Every cell is then exact, so the breakdown is the full matrix's by
/// construction. The traceback prefers diagonal moves, then losses, then
/// insertions — the tie-break that fixes the breakdown when several optimal
/// alignments exist. It carries the current cell's value and reads its
/// neighbours' through the deltas, one bit test each.
pub fn scored_breakdown(sent: &[bool], received: &[bool]) -> (usize, ErrorBreakdown) {
    let (n, m) = (sent.len(), received.len());
    let columns = Columns::fill(sent, received);
    let distance = columns.corner(n, m);
    let mut breakdown = ErrorBreakdown::default();
    // `here` is `D[i][j]`.
    let (mut i, mut j, mut here) = (n, m, distance);
    while i > 0 && j > 0 {
        let left = here - columns.horizontal(i, j);
        let diagonal = left - columns.vertical(i, j - 1);
        let substitution = isize::from(sent[i - 1] != received[j - 1]);
        if here == diagonal + substitution {
            breakdown.flips += substitution as usize;
            (i, j, here) = (i - 1, j - 1, diagonal);
        } else if columns.vertical(i, j) == 1 {
            // A sent bit that never arrived.
            breakdown.losses += 1;
            (i, here) = (i - 1, here - 1);
        } else {
            // A received bit that was never sent.
            breakdown.insertions += 1;
            (j, here) = (j - 1, left);
        }
    }
    // On the program's edges only losses (column 0) or insertions (row 0)
    // remain.
    breakdown.losses += i;
    breakdown.insertions += j;
    (distance as usize, breakdown)
}

/// The columns of the edit-distance program as deltas between neighbouring
/// cells: word `w` of column `j` is `[Pv, Mv, Ph, Mh]` at
/// `deltas[4 * (j * words + w)..]`. At row `i = 64w + r + 1`, bit `r` of
/// `Pv` (`Mv`) is set when `D[i][j] - D[i - 1][j]` is +1 (-1), and bit `r`
/// of `Ph` (`Mh`) when `D[i][j] - D[i][j - 1]` is. Bits past the last sent
/// bit are padding that no read reaches: every operation carries towards
/// higher rows only.
struct Columns {
    words: usize,
    deltas: Vec<u64>,
}

impl Columns {
    fn fill(sent: &[bool], received: &[bool]) -> Columns {
        let words = sent.len().div_ceil(64);
        // Bit `i` of word `i / 64` of match mask `b` (at `b * words`) is set
        // where sent bit `i` equals `b`.
        let mut matches = vec![0u64; 2 * words];
        for (i, &bit) in sent.iter().enumerate() {
            matches[usize::from(bit) * words + i / 64] |= 1 << (i % 64);
        }
        let mut deltas = vec![0u64; 4 * words * (received.len() + 1)];
        // Column 0: `D[i][0] = i`, every vertical delta +1 (and no
        // horizontal ones).
        for word in deltas[..4 * words].chunks_exact_mut(4) {
            word[0] = !0;
        }
        for (j, &bit) in received.iter().enumerate() {
            let eqs = &matches[usize::from(bit) * words..][..words];
            let (previous, current) = deltas[4 * words * j..].split_at_mut(4 * words);
            // The horizontal delta into the word's top row: +1 at row 0.
            let (mut carry_plus, mut carry_minus) = (1u64, 0u64);
            for ((above, word), &eq) in previous
                .chunks_exact(4)
                .zip(current.chunks_exact_mut(4))
                .zip(eqs)
            {
                let (pv, mv) = (above[0], above[1]);
                let xv = eq | mv;
                let eq = eq | carry_minus;
                let xh = ((eq & pv).wrapping_add(pv) ^ pv) | eq;
                let ph = mv | !(xh | pv);
                let mh = pv & xh;
                let ph_below = (ph << 1) | carry_plus;
                let mh_below = (mh << 1) | carry_minus;
                word.copy_from_slice(&[mh_below | !(xv | ph_below), ph_below & xv, ph, mh]);
                (carry_plus, carry_minus) = (ph >> 63, mh >> 63);
            }
        }
        Columns { words, deltas }
    }

    /// `D[n][m]`: `m` plus the vertical deltas of column `m`.
    fn corner(&self, n: usize, m: usize) -> isize {
        let column = &self.deltas[4 * self.words * m..];
        let mut value = m as isize;
        for (w, word) in column.chunks_exact(4).enumerate() {
            let low = if n >= 64 * (w + 1) {
                !0
            } else {
                (1 << (n % 64)) - 1
            };
            value += (word[0] & low).count_ones() as isize - (word[1] & low).count_ones() as isize;
        }
        value
    }

    /// `D[i][j] - D[i - 1][j]` for `i >= 1`: +1, 0 or -1.
    fn vertical(&self, i: usize, j: usize) -> isize {
        self.delta(i, j, 0)
    }

    /// `D[i][j] - D[i][j - 1]` for `i, j >= 1`: +1, 0 or -1.
    fn horizontal(&self, i: usize, j: usize) -> isize {
        self.delta(i, j, 2)
    }

    fn delta(&self, i: usize, j: usize, plus: usize) -> isize {
        let at = 4 * (self.words * j + (i - 1) / 64) + plus;
        let bit = (i - 1) % 64;
        ((self.deltas[at] >> bit) & 1) as isize - ((self.deltas[at + 1] >> bit) & 1) as isize
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

    fn distance(sent: &[bool], received: &[bool]) -> usize {
        scored_breakdown(sent, received).0
    }

    #[test]
    fn identical_sequences_have_zero_distance() {
        let bits = [true, false, true];
        assert_eq!(distance(&bits, &bits), 0);
        assert_eq!(bit_error_rate(&bits, &bits), 0.0);
    }

    #[test]
    fn classic_string_example() {
        // Levenshtein's kitten -> sitting (3 letter edits), scored as the
        // channel sees text, as ASCII bits. The full matrix gives 11 edits:
        // the extra byte's 8 bits are insertions, plus 3 flips.
        let kitten = bytes_to_bits(b"kitten");
        let sitting = bytes_to_bits(b"sitting");
        let edits = ErrorBreakdown {
            flips: 3,
            insertions: 8,
            losses: 0,
        };
        assert_eq!(scored_breakdown(&kitten, &sitting), (11, edits));
        // Symmetry.
        assert_eq!(distance(&sitting, &kitten), 11);
    }

    #[test]
    fn empty_cases() {
        let bits = [true, true, false];
        assert_eq!(distance(&[], &[]), 0);
        assert_eq!(distance(&bits, &[]), 3);
        assert_eq!(distance(&[], &bits), 3);
        assert_eq!(bit_error_rate(&[], &bits), 0.0);
        assert_eq!(error_breakdown(&bits, &[]).losses, 3);
        assert_eq!(error_breakdown(&[], &bits).insertions, 3);
    }

    #[test]
    fn single_flip_insertion_and_loss() {
        let sent = [true, false, true, true];
        let flipped = [true, true, true, true];
        let inserted = [true, false, false, true, true];
        let lost = [true, true, true];
        assert_eq!(distance(&sent, &flipped), 1);
        assert_eq!(distance(&sent, &inserted), 1);
        assert_eq!(distance(&sent, &lost), 1);
        assert!((bit_error_rate(&sent, &flipped) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn breakdown_identifies_error_types() {
        let sent = [true, false, true, true, false];
        // One flip at position 1, one loss at the end.
        let received = [true, true, true, true];
        let breakdown = error_breakdown(&sent, &received);
        assert_eq!(breakdown.total(), distance(&sent, &received));
        assert_eq!(breakdown.flips, 1);
        assert_eq!(breakdown.losses, 1);
        assert_eq!(breakdown.insertions, 0);

        // Pure insertion.
        let received = [true, false, true, false, true, false];
        let breakdown = error_breakdown(&sent, &received);
        assert_eq!(breakdown.total(), distance(&sent, &received));
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
        // of several words).
        for seed in 0u64..40 {
            let n = (seed * 37 % 211) as usize;
            let m = (seed * 53 % 199) as usize;
            let sent: Vec<bool> = (0..n)
                .map(|i| (seed + i as u64) * 2_654_435_761 % 5 < 2)
                .collect();
            let received: Vec<bool> = (0..m).map(|i| (seed + i as u64) * 40_503 % 7 < 3).collect();
            let (distance, breakdown) = scored_breakdown(&sent, &received);
            assert_eq!(breakdown, error_breakdown(&sent, &received), "seed {seed}");
            assert_eq!(breakdown.total(), distance, "seed {seed}");
            // Every bit outside a loss or an insertion is on the diagonal.
            assert_eq!(
                n - breakdown.losses,
                m - breakdown.insertions,
                "seed {seed}"
            );
            if n > 0 {
                let ber = bit_error_rate(&sent, &received);
                assert_eq!(ber, distance as f64 / n as f64, "seed {seed}");
            }
        }
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

    #[test]
    fn second_pass_recovers_alignments_outside_the_first_band() {
        // A received stream shifted by 6 bits against the sent one: the
        // optimal alignment runs 6 cells off the diagonal, outside any band
        // of 4 around it. The whole program is filled, so the scorer finds
        // it; the full-matrix oracle in `tests/properties.rs` checks the
        // same input cell for cell.
        let bits = pseudo_random_bits(46, 3);
        let (sent, received) = (&bits[..40], &bits[6..]);
        let (distance, breakdown) = scored_breakdown(sent, received);
        assert_eq!(distance, 12);
        assert_eq!(breakdown.total(), distance);
        // Equal lengths: every loss is matched by an insertion.
        assert_eq!(breakdown.losses, breakdown.insertions);
    }

    #[test]
    fn first_band_widens_to_the_length_difference() {
        // A received prefix 10 bits short: exactly 10 losses, and read the
        // other way round exactly 10 insertions.
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
        let d = distance(&a, &b);
        assert!(d <= 16);
        assert!(d >= 16 - 9);
    }
}
