//! The LRU-state channel of Xiong & Szefer (HPCA 2020).
//!
//! This is the closest prior work: a contention-based channel without shared
//! memory that encodes a bit in the *LRU metadata* of a target set rather
//! than in its dirty bits.  The paper's Figure 8(a) walks through the exact
//! access pattern reproduced here and shows why a single noisy cache line
//! breaks it, while the WB channel shrugs it off; Section VII additionally
//! compares the two senders' cache-load footprints (Table VI).

use crate::common::{transmit_periods, BaselineReport, NoiseSpec, Periods, RECEIVER, SENDER};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_cache::policy::PolicyKind;
use sim_cache::trace::TraceOp;
use sim_core::machine::{Machine, MachineConfig};
use sim_core::memlayout::SetLines;
use sim_core::process::{AddressSpace, ProcessId};
use wb_channel::Error;

/// How many times the sender re-touches its line while encoding a `1` (the
/// LRU sender must keep modulating during the whole period, which is what
/// makes it noisier than the WB sender in Table VI).
const MODULATIONS_PER_ONE: usize = 4;

/// The LRU covert channel on one L1 set (the no-shared-memory variant), under
/// true-LRU replacement, its natural setting.
#[derive(Debug)]
pub struct LruChannel {
    seed: u64,
}

impl LruChannel {
    /// Creates the channel.
    pub fn new(seed: u64) -> LruChannel {
        LruChannel { seed }
    }

    /// Human-readable channel name.
    pub fn name(&self) -> &'static str {
        "LRU channel"
    }

    /// Transmits `bits`, with one noisy access per period drawn from `noise`
    /// when given.
    ///
    /// # Errors
    ///
    /// Returns configuration errors from the underlying simulator.
    pub fn transmit(
        &self,
        bits: &[bool],
        noise: Option<NoiseSpec>,
    ) -> Result<BaselineReport, Error> {
        let mut machine =
            Machine::new(MachineConfig::xeon_e5_2650(PolicyKind::TrueLru, self.seed))?;
        let geometry = machine.l1_geometry();
        let target_set = 19usize;
        let w = geometry.associativity;
        // Receiver lines 0..7 and the sender's "line 8" (its own address).
        let receiver_lines = SetLines::build(
            AddressSpace::new(ProcessId(RECEIVER)),
            geometry,
            target_set,
            w,
            0,
        );
        let sender_line = SetLines::build(
            AddressSpace::new(ProcessId(SENDER)),
            geometry,
            target_set,
            1,
            0,
        );
        let reads = |range: std::ops::Range<usize>| -> Vec<TraceOp> {
            range
                .map(|i| TraceOp::read(receiver_lines.line(i)))
                .collect()
        };

        // Warm all lines.
        machine.run_trace(RECEIVER, &reads(0..w));
        machine.run_trace(SENDER, &[TraceOp::read(sender_line.line(0))]);

        // Step 1 (Figure 8a): the receiver accesses lines 0-3.
        let first_half = reads(0..w / 2);
        // Step 4: the receiver accesses lines 4-7 and times line 0.
        let second_half = reads(w / 2..w);
        let periods = Periods {
            name: self.name(),
            machine,
            rng: StdRng::seed_from_u64(self.seed ^ 0x14c4),
            target_set,
            // Step 2: the sender repeatedly accesses its own line to send a 1.
            encode: vec![TraceOp::read(sender_line.line(0)); MODULATIONS_PER_ONE],
        };
        Ok(transmit_periods(
            periods,
            bits,
            noise,
            |machine, _| {
                machine.run_trace(RECEIVER, &first_half);
            },
            |machine, _| {
                machine.run_trace(RECEIVER, &second_half);
                machine
                    .measured_chase(RECEIVER, &[receiver_lines.line(0)])
                    .0
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn payload(seed: u64, len: usize) -> Vec<bool> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen()).collect()
    }

    #[test]
    fn lru_channel_transmits_under_true_lru() {
        let bits = payload(8, 96);
        let report = LruChannel::new(8).transmit(&bits, None).unwrap();
        assert!(
            report.bit_error_rate < 0.05,
            "LRU channel BER {}",
            report.bit_error_rate
        );
    }

    #[test]
    fn a_single_noisy_line_breaks_the_lru_channel() {
        // Figure 8(a): with one noisy line per period, accessing line 0
        // always misses, so zeros are decoded as ones.
        let bits = payload(9, 96);
        let clean = LruChannel::new(9).transmit(&bits, None).unwrap();
        let noisy = LruChannel::new(9)
            .transmit(&bits, Some(NoiseSpec::every_period()))
            .unwrap();
        assert!(
            noisy.bit_error_rate > 0.2,
            "noise should break the LRU channel, BER {}",
            noisy.bit_error_rate
        );
        assert!(noisy.bit_error_rate > clean.bit_error_rate + 0.1);
    }

    #[test]
    fn lru_sender_touches_the_cache_more_than_once_per_one_bit() {
        let bits = vec![true, false, true, true];
        let report = LruChannel::new(10).transmit(&bits, None).unwrap();
        assert_eq!(report.sender_accesses, 3 * MODULATIONS_PER_ONE as u64);
    }
}
