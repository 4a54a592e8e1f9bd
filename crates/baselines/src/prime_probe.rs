//! Prime+Probe: the classic contention-based Hit+Miss channel.
//!
//! The receiver fills ("primes") the target set with its own lines; the
//! sender evicts some of them by touching its own lines in the same set; the
//! receiver then re-accesses ("probes") its lines and infers the bit from the
//! probe latency.  Unlike the WB channel, both the prime and the probe touch
//! the whole set every period, and a single noisy cache line already causes
//! probe misses (Sec. VI).

use crate::common::{transmit_periods, BaselineReport, NoiseSpec, Periods, RECEIVER, SENDER};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sim_cache::addr::PhysAddr;
use sim_cache::policy::PolicyKind;
use sim_cache::trace::TraceOp;
use sim_core::machine::{Machine, MachineConfig};
use sim_core::memlayout::SetLines;
use sim_core::process::{AddressSpace, ProcessId};
use wb_channel::Error;

/// Lines the sender touches to transmit a `1`.
const SENDER_LINES_PER_ONE: usize = 2;

/// The Prime+Probe covert channel on one L1 set.
#[derive(Debug)]
pub struct PrimeProbe {
    policy: PolicyKind,
    seed: u64,
}

impl PrimeProbe {
    /// Creates the channel with the paper-typical configuration: Tree-PLRU,
    /// and a sender that touches two lines per `1`.
    pub fn new(seed: u64) -> PrimeProbe {
        PrimeProbe {
            policy: PolicyKind::TreePlru,
            seed,
        }
    }

    /// Uses a specific L1 replacement policy (e.g. [`PolicyKind::Random`] to
    /// reproduce the paper's observation that random replacement breaks
    /// Prime+Probe priming).
    #[must_use]
    pub fn with_policy(mut self, policy: PolicyKind) -> PrimeProbe {
        self.policy = policy;
        self
    }

    /// Human-readable channel name.
    pub fn name(&self) -> &'static str {
        "Prime+Probe"
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
        let mut machine = Machine::new(MachineConfig::xeon_e5_2650(self.policy, self.seed))?;
        let geometry = machine.l1_geometry();
        let target_set = 11usize;
        let prime_lines = SetLines::build(
            AddressSpace::new(ProcessId(RECEIVER)),
            geometry,
            target_set,
            geometry.associativity,
            0,
        );
        let sender_lines = SetLines::build(
            AddressSpace::new(ProcessId(SENDER)),
            geometry,
            target_set,
            geometry.associativity,
            0,
        );

        // Warm everything (one batched trace).
        let warm: Vec<TraceOp> = prime_lines
            .lines()
            .iter()
            .chain(sender_lines.lines())
            .map(|&l| TraceOp::read(l))
            .collect();
        machine.run_trace(RECEIVER, &warm);

        let periods = Periods {
            name: self.name(),
            machine,
            rng: StdRng::seed_from_u64(self.seed ^ 0x9a9a),
            target_set,
            encode: (0..SENDER_LINES_PER_ONE)
                .map(|i| TraceOp::read(sender_lines.line(i)))
                .collect(),
        };
        // The prime's reads and the probe's order are shuffled in buffers
        // reused across periods, from the lines in tag order each time, so
        // the draws and orders are those of a shuffled copy of the lines.
        let mut prime: Vec<TraceOp> = Vec::with_capacity(prime_lines.len());
        let mut probe: Vec<PhysAddr> = Vec::with_capacity(prime_lines.len());
        Ok(transmit_periods(
            periods,
            bits,
            noise,
            |machine, rng| {
                prime.clear();
                prime.extend(prime_lines.lines().iter().map(|&line| TraceOp::read(line)));
                prime.shuffle(rng);
                machine.run_trace(RECEIVER, &prime);
            },
            |machine, rng| {
                probe.clear();
                probe.extend_from_slice(prime_lines.lines());
                probe.shuffle(rng);
                machine.measured_chase(RECEIVER, &probe).0
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
    fn prime_probe_transmits_without_shared_memory() {
        let bits = payload(5, 96);
        let report = PrimeProbe::new(5).transmit(&bits, None).unwrap();
        assert!(
            report.bit_error_rate < 0.08,
            "Prime+Probe BER {}",
            report.bit_error_rate
        );
    }

    #[test]
    fn noisy_cache_lines_degrade_prime_probe() {
        // Figure 8 / Sec. VI: contention-based Hit+Miss channels are fragile
        // against noisy cache lines, unlike the WB channel.
        let bits = payload(6, 96);
        let clean = PrimeProbe::new(6).transmit(&bits, None).unwrap();
        let noisy = PrimeProbe::new(6)
            .transmit(&bits, Some(NoiseSpec::every_period()))
            .unwrap();
        assert!(
            noisy.bit_error_rate > clean.bit_error_rate + 0.05,
            "noise should hurt Prime+Probe: clean {} noisy {}",
            clean.bit_error_rate,
            noisy.bit_error_rate
        );
    }

    #[test]
    fn random_replacement_hurts_prime_probe_priming() {
        // Sec. VI-A: with a random replacement policy the receiver cannot
        // reliably fill the set during the prime phase.
        let bits = payload(7, 96);
        let plru = PrimeProbe::new(7).transmit(&bits, None).unwrap();
        let random = PrimeProbe::new(7)
            .with_policy(PolicyKind::Random)
            .transmit(&bits, None)
            .unwrap();
        assert!(
            random.bit_error_rate >= plru.bit_error_rate,
            "random replacement should not improve Prime+Probe (plru {} random {})",
            plru.bit_error_rate,
            random.bit_error_rate
        );
    }
}
