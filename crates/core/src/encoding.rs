//! Symbol encodings: how many dirty cache lines encode which bit pattern.
//!
//! The sender modulates the number of dirty lines in the target set
//! (Algorithm 1 of the paper):
//!
//! * **binary symbols** — `d = 0` dirty lines sends `0`, `d = d₂` dirty lines
//!   sends `1`; any `d₂ ∈ 1..=W` works and larger values enlarge the latency
//!   gap at the cost of more sender stores;
//! * **multi-bit symbols** — an 8-way set can hold 0–8 dirty lines, i.e. nine
//!   distinguishable states, so up to three bits per symbol are possible.
//!   The paper encodes two bits per symbol with the well-separated counts
//!   `d ∈ {0, 3, 5, 8}` to keep levels distinguishable under noise.

use crate::error::Error;
use std::fmt;

/// A symbol encoding for the WB channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymbolEncoding {
    /// One bit per symbol: `0 ↦ 0` dirty lines, `1 ↦ dirty_lines`.
    Binary {
        /// Number of dirty lines used to transmit a `1` (the paper's `d`).
        dirty_lines: usize,
    },
    /// `log2(levels.len())` bits per symbol; symbol `i` is encoded by
    /// `levels[i]` dirty lines.
    MultiBit {
        /// Strictly increasing dirty-line counts, one per symbol value.
        levels: Vec<usize>,
    },
}

impl SymbolEncoding {
    /// Associativity of the paper's L1 target cache (8-way).
    pub const MAX_DIRTY_LINES: usize = 8;

    /// Binary encoding with `d` dirty lines for symbol `1`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidEncoding`] unless `1 <= d <= 8`.
    pub fn binary(d: usize) -> Result<SymbolEncoding, Error> {
        let encoding = SymbolEncoding::Binary { dirty_lines: d };
        encoding.validate()?;
        Ok(encoding)
    }

    /// The paper's two-bit encoding: `d ∈ {0, 3, 5, 8}` for symbols
    /// `00, 01, 10, 11`.
    pub fn paper_two_bit() -> SymbolEncoding {
        SymbolEncoding::MultiBit {
            levels: vec![0, 3, 5, 8],
        }
    }

    /// A custom multi-bit encoding from explicit dirty-line levels.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidEncoding`] unless the levels are strictly
    /// increasing, start within `0..=8`, and their count is a power of two of
    /// at least 2 (so every symbol carries a whole number of bits).
    pub fn multi_bit(levels: Vec<usize>) -> Result<SymbolEncoding, Error> {
        let encoding = SymbolEncoding::MultiBit { levels };
        encoding.validate()?;
        Ok(encoding)
    }

    /// Checks the rules [`SymbolEncoding::binary`] and
    /// [`SymbolEncoding::multi_bit`] enforce, for an encoding built from the
    /// public variants directly.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidEncoding`] for a binary `dirty_lines` outside
    /// `1..=8`, or for multi-bit levels that are not a power-of-two count of
    /// at least 2 strictly increasing values up to 8.
    pub fn validate(&self) -> Result<(), Error> {
        match self {
            SymbolEncoding::Binary { dirty_lines: d } => {
                if *d == 0 || *d > Self::MAX_DIRTY_LINES {
                    return Err(Error::InvalidEncoding {
                        reason: format!("binary d must be in 1..=8, got {d}"),
                    });
                }
            }
            SymbolEncoding::MultiBit { levels } => {
                if levels.len() < 2 || !levels.len().is_power_of_two() {
                    return Err(Error::InvalidEncoding {
                        reason: format!(
                            "multi-bit encodings need a power-of-two number of levels >= 2, got {}",
                            levels.len()
                        ),
                    });
                }
                if levels.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(Error::InvalidEncoding {
                        reason: "dirty-line levels must be strictly increasing".into(),
                    });
                }
                if levels[levels.len() - 1] > Self::MAX_DIRTY_LINES {
                    return Err(Error::InvalidEncoding {
                        reason: format!(
                            "dirty-line levels must not exceed the associativity ({})",
                            Self::MAX_DIRTY_LINES
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// Number of payload bits carried by one symbol.
    pub fn bits_per_symbol(&self) -> usize {
        match self {
            SymbolEncoding::Binary { .. } => 1,
            SymbolEncoding::MultiBit { levels } => levels.len().trailing_zeros() as usize,
        }
    }

    /// Number of distinct symbol values.
    pub fn num_symbols(&self) -> usize {
        match self {
            SymbolEncoding::Binary { .. } => 2,
            SymbolEncoding::MultiBit { levels } => levels.len(),
        }
    }

    /// The dirty-line count that encodes symbol value `symbol`.
    ///
    /// # Panics
    ///
    /// Panics if `symbol >= self.num_symbols()`.
    pub fn dirty_lines_for(&self, symbol: usize) -> usize {
        match self {
            SymbolEncoding::Binary { dirty_lines } => match symbol {
                0 => 0,
                1 => *dirty_lines,
                _ => panic!("binary symbols are 0 or 1, got {symbol}"),
            },
            SymbolEncoding::MultiBit { levels } => levels[symbol],
        }
    }

    /// The dirty-line counts of all symbols, in symbol order.
    pub fn levels(&self) -> Vec<usize> {
        (0..self.num_symbols())
            .map(|s| self.dirty_lines_for(s))
            .collect()
    }

    /// Packs a bit string into symbol values (MSB-first within each symbol).
    ///
    /// The final symbol is zero-padded if `bits` is not a multiple of
    /// [`SymbolEncoding::bits_per_symbol`].
    pub fn bits_to_symbols(&self, bits: &[bool]) -> Vec<usize> {
        let k = self.bits_per_symbol();
        bits.chunks(k)
            .map(|chunk| {
                let mut v = 0usize;
                for i in 0..k {
                    v <<= 1;
                    if *chunk.get(i).unwrap_or(&false) {
                        v |= 1;
                    }
                }
                v
            })
            .collect()
    }

    /// Unpacks symbol values back into bits (MSB-first within each symbol).
    pub fn symbols_to_bits(&self, symbols: &[usize]) -> Vec<bool> {
        let k = self.bits_per_symbol();
        symbols
            .iter()
            .flat_map(|&s| (0..k).rev().map(move |i| (s >> i) & 1 == 1))
            .collect()
    }
}

impl fmt::Display for SymbolEncoding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymbolEncoding::Binary { dirty_lines } => write!(f, "binary(d={dirty_lines})"),
            SymbolEncoding::MultiBit { levels } => write!(f, "multi-bit(levels={levels:?})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_encodings_cover_the_paper_range() {
        for d in 1..=8 {
            let e = SymbolEncoding::binary(d).unwrap();
            assert_eq!(e.bits_per_symbol(), 1);
            assert_eq!(e.num_symbols(), 2);
            assert_eq!(e.dirty_lines_for(0), 0);
            assert_eq!(e.dirty_lines_for(1), d);
        }
        assert!(SymbolEncoding::binary(0).is_err());
        assert!(SymbolEncoding::binary(9).is_err());
    }

    #[test]
    fn paper_two_bit_levels_match_section_v() {
        let e = SymbolEncoding::paper_two_bit();
        assert_eq!(e.bits_per_symbol(), 2);
        assert_eq!(e.num_symbols(), 4);
        assert_eq!(e.levels(), vec![0, 3, 5, 8]);
    }

    #[test]
    fn multi_bit_validation() {
        assert!(SymbolEncoding::multi_bit(vec![0, 4]).is_ok());
        assert!(SymbolEncoding::multi_bit(vec![0, 1, 2, 3, 4, 5, 6, 7]).is_ok());
        assert!(SymbolEncoding::multi_bit(vec![0]).is_err(), "single level");
        assert!(
            SymbolEncoding::multi_bit(vec![0, 3, 5]).is_err(),
            "3 levels is not a power of two"
        );
        assert!(
            SymbolEncoding::multi_bit(vec![3, 3, 5, 8]).is_err(),
            "not strictly increasing"
        );
        assert!(
            SymbolEncoding::multi_bit(vec![0, 3, 5, 9]).is_err(),
            "exceeds associativity"
        );
    }

    #[test]
    fn bit_symbol_round_trip_binary() {
        let e = SymbolEncoding::binary(1).unwrap();
        let bits = vec![true, false, true, true, false];
        let symbols = e.bits_to_symbols(&bits);
        assert_eq!(symbols, vec![1, 0, 1, 1, 0]);
        assert_eq!(e.symbols_to_bits(&symbols), bits);
    }

    #[test]
    fn bit_symbol_round_trip_two_bit() {
        let e = SymbolEncoding::paper_two_bit();
        let bits = vec![false, false, true, false, true, true, false, true];
        let symbols = e.bits_to_symbols(&bits);
        assert_eq!(symbols, vec![0b00, 0b10, 0b11, 0b01]);
        assert_eq!(e.symbols_to_bits(&symbols), bits);
    }

    #[test]
    fn odd_bit_counts_are_zero_padded() {
        let e = SymbolEncoding::paper_two_bit();
        let symbols = e.bits_to_symbols(&[true]);
        assert_eq!(symbols, vec![0b10]);
        assert_eq!(e.symbols_to_bits(&symbols).len(), 2);
    }

    #[test]
    #[should_panic(expected = "binary symbols are 0 or 1")]
    fn out_of_range_symbol_panics() {
        let _ = SymbolEncoding::binary(1).unwrap().dirty_lines_for(2);
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(
            SymbolEncoding::binary(4).unwrap().to_string(),
            "binary(d=4)"
        );
        assert!(SymbolEncoding::paper_two_bit()
            .to_string()
            .contains("[0, 3, 5, 8]"));
    }
}
