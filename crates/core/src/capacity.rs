//! Transmission-rate arithmetic.
//!
//! The paper quotes channel bandwidths in kbps at the clock of its Xeon
//! E5-2650 ([`CLOCK_GHZ`]): the sender emits one symbol every `Ts` cycles,
//! so `rate = bits_per_symbol * clock / Ts`.  For example `Ts = 1600` cycles
//! and binary symbols give 1375 kbps, and `Ts = 1000` with two-bit symbols
//! gives 4400 kbps — the numbers quoted in Section V.

use sim_core::machine::CLOCK_GHZ;

/// The sending/sampling periods evaluated by the paper (Sec. V), in cycles.
pub const PAPER_PERIODS: [u64; 6] = [800, 1_000, 1_600, 2_200, 5_500, 11_000];

/// Transmission rate in kilobits per second for one symbol every
/// `period_cycles` cycles at [`CLOCK_GHZ`].
///
/// Returns 0 when `period_cycles` is zero.
pub fn rate_kbps(bits_per_symbol: usize, period_cycles: u64) -> f64 {
    if period_cycles == 0 {
        return 0.0;
    }
    bits_per_symbol as f64 * CLOCK_GHZ * 1e6 / period_cycles as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rate_examples_hold() {
        // Sec. V: Ts = 1600 cycles -> 1375 kbps with binary symbols.
        assert!((rate_kbps(1, 1_600) - 1_375.0).abs() < 1e-9);
        // Ts = 800 -> 2750 kbps (the paper rounds to "2700 kbps").
        assert!((rate_kbps(1, 800) - 2_750.0).abs() < 1e-9);
        // Ts = 5500 -> 400 kbps (Figure 5 caption).
        assert!((rate_kbps(1, 5_500) - 400.0).abs() < 1e-9);
        // Two-bit symbols at Ts = 1000 -> 4400 kbps; at Ts = 4000 -> 1100 kbps
        // (Figure 7 caption).
        assert!((rate_kbps(2, 1_000) - 4_400.0).abs() < 1e-9);
        assert!((rate_kbps(2, 4_000) - 1_100.0).abs() < 1e-9);
        assert_eq!(rate_kbps(1, 0), 0.0);
    }

    #[test]
    fn paper_periods_are_sorted_ascending() {
        let mut sorted = PAPER_PERIODS;
        sorted.sort_unstable();
        assert_eq!(sorted, PAPER_PERIODS);
    }
}
