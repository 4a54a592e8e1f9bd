//! Side-channel attacks built on the WB primitive (Section IX, Figure 9).
//!
//! When a victim's memory accesses depend on a secret, the covert-channel
//! receiver machinery turns into a side channel.  The paper describes three
//! scenarios:
//!
//! 1. **Dirty-branch gadget** (Figure 9a): the secret decides whether the
//!    victim *modifies* line 0 (set *m*) or merely accesses line 1.  The
//!    attacker infers the secret from the latency of replacing set *m* —
//!    this works even when both lines live in the same set, where
//!    Prime+Probe and the LRU channel fail.
//! 2. **Clean-branch gadget** (Figure 9b): the victim only *reads* one of two
//!    lines (e.g. a read-only key).  The attacker pre-fills set *m* with `W`
//!    dirty lines; a secret-dependent read evicts one of them, which the
//!    attacker detects as a *lower* replacement latency.
//! 3. **Victim-timing attack**: the attacker pre-fills set *m* with dirty
//!    lines and set *n* with clean lines and measures the *victim's*
//!    execution time; the paper notes this variant needs each branch to load
//!    two lines serially before the difference is observable.
//!
//! The attacker's probe of set *m* is the covert channel's measured sweep: a
//! [`ChannelLayout`] of two replacement sets, warmed in prime order and
//! walked in the shuffled, alternating [`Sweeps`] order (drawn from
//! `seed ^ 0x51de`).

use crate::error::Error;
use crate::{RECEIVER_DOMAIN, REPLACEMENT_SIZE, SENDER_DOMAIN};
use analysis::threshold::BinaryThreshold;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_cache::line::DomainId;
use sim_cache::trace::TraceOp;
use sim_core::machine::{Machine, MachineConfig};
use sim_core::memlayout::{ChannelLayout, SetLines, Sweeps};
use sim_core::process::{AddressSpace, ProcessId};

/// The attacker plays the covert channel's receiver.
const ATTACKER_DOMAIN: DomainId = RECEIVER_DOMAIN;
/// The victim's stores take the covert channel sender's place.
const VICTIM_DOMAIN: DomainId = SENDER_DOMAIN;

/// The L1 set holding the victim's line 0 (the paper's set *m*).
pub const SET_M: usize = 12;
/// The L1 set holding the victim's line 1 (the paper's set *n*).
pub const SET_N: usize = 44;

/// The three attack scenarios of Section IX.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Figure 9(a): secret-dependent *store*; attacker probes set *m*.
    DirtyBranch,
    /// Figure 9(b): secret-dependent *load*; attacker pre-dirties set *m*.
    CleanBranchProbe,
    /// Figure 9(b) + timing the victim instead of probing the cache.
    VictimTiming,
}

impl Scenario {
    /// All scenarios, in paper order.
    pub const ALL: [Scenario; 3] = [
        Scenario::DirtyBranch,
        Scenario::CleanBranchProbe,
        Scenario::VictimTiming,
    ];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Scenario::DirtyBranch => "secret-dependent store (Fig. 9a)",
            Scenario::CleanBranchProbe => "secret-dependent load, dirty prime (Fig. 9b)",
            Scenario::VictimTiming => "victim execution timing",
        }
    }
}

/// Trials with known secrets, alternating 1 and 0, that [`run_scenario`]
/// runs to place the decision threshold before scoring.
pub const CALIBRATION_TRIALS: usize = 64;

/// Configuration of a side-channel experiment on sets [`SET_M`] and
/// [`SET_N`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SideChannelConfig {
    /// Machine to attack.
    pub machine: MachineConfig,
    /// Number of secret bits recovered per experiment (at least one).
    pub trials: usize,
    /// RNG seed (secrets and measurement order).
    pub seed: u64,
}

impl Default for SideChannelConfig {
    fn default() -> Self {
        SideChannelConfig {
            machine: MachineConfig::xeon_e5_2650(sim_cache::policy::PolicyKind::TreePlru, 17),
            trials: 200,
            seed: 17,
        }
    }
}

/// Result of one side-channel experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SideChannelResult {
    /// Which scenario was run.
    pub scenario: Scenario,
    /// Fraction of secret bits recovered correctly.
    pub accuracy: f64,
    /// Number of scored trials.
    pub trials: usize,
    /// The calibrated decision threshold (latency in cycles).
    pub threshold: f64,
}

/// The attacker's and victim's memory layouts for the two sets involved.
struct Setup {
    machine: Machine,
    /// Prebuilt traces for the bulk phases, replayed through the batch
    /// engine every trial.
    dirty_prime_trace: Vec<TraceOp>,
    clean_prime_trace: Vec<TraceOp>,
    /// Two disjoint probe (replacement) sets for set *m*, used alternately so
    /// consecutive probes never self-hit in the L1 (Algorithm 2's A/B trick).
    probe_m: ChannelLayout,
    /// Lines the attacker dirties to prime set *m* (scenarios 2 and 3).
    prime_m: SetLines,
    /// Lines the attacker uses to prime set *n* with clean lines.
    prime_n: SetLines,
    victim_line0: SetLines,
    victim_line1: SetLines,
    sweeps: Sweeps,
}

impl Setup {
    fn new(config: &SideChannelConfig) -> Result<Setup, Error> {
        let machine = Machine::new(config.machine)?;
        let geometry = machine.l1_geometry();
        if SET_M.max(SET_N) >= geometry.num_sets {
            return Err(Error::InvalidConfig {
                field: "hierarchy",
                reason: format!(
                    "the attack uses L1 sets {SET_M} and {SET_N}, but the L1 has {} sets",
                    geometry.num_sets
                ),
            });
        }
        let attacker = AddressSpace::new(ProcessId(ATTACKER_DOMAIN));
        let victim = AddressSpace::new(ProcessId(VICTIM_DOMAIN));
        let prime_m = SetLines::build(attacker, geometry, SET_M, geometry.associativity, 3_000);
        let prime_n = SetLines::build(attacker, geometry, SET_N, geometry.associativity, 3_000);
        Ok(Setup {
            probe_m: ChannelLayout::build(attacker, geometry, SET_M, 0, REPLACEMENT_SIZE),
            dirty_prime_trace: prime_m.lines().iter().map(|&l| TraceOp::write(l)).collect(),
            clean_prime_trace: prime_n.lines().iter().map(|&l| TraceOp::read(l)).collect(),
            prime_m,
            prime_n,
            // Two victim lines per set so the timing variant can load two
            // lines serially per branch, as the paper requires.
            victim_line0: SetLines::build(victim, geometry, SET_M, 2, 0),
            victim_line1: SetLines::build(victim, geometry, SET_N, 2, 0),
            sweeps: Sweeps::new(config.seed ^ 0x51de),
            machine,
        })
    }

    fn warm(&mut self) {
        // The two parties' address spaces are disjoint: one batched trace
        // per domain, same access order as the per-access loops had.
        let attacker_warm: Vec<TraceOp> = self
            .probe_m
            .prime_lines()
            .chain(self.prime_m.lines().iter().copied())
            .chain(self.prime_n.lines().iter().copied())
            .map(TraceOp::read)
            .collect();
        let victim_warm: Vec<TraceOp> = self
            .victim_line0
            .lines()
            .iter()
            .chain(self.victim_line1.lines())
            .map(|&l| TraceOp::read(l))
            .collect();
        self.machine.run_trace(ATTACKER_DOMAIN, &attacker_warm);
        self.machine.run_trace(VICTIM_DOMAIN, &victim_warm);
    }

    /// Attacker sweep of set *m* (measured), alternating the two disjoint
    /// probe sets.
    fn probe_m(&mut self) -> u64 {
        let order = self.sweeps.next_order(&self.probe_m);
        self.machine.measured_chase(ATTACKER_DOMAIN, order).0
    }

    /// Attacker fills set *m* with `W` dirty lines (Prime-with-stores).
    fn dirty_prime_m(&mut self) {
        let trace = std::mem::take(&mut self.dirty_prime_trace);
        self.machine.run_trace(ATTACKER_DOMAIN, &trace);
        self.dirty_prime_trace = trace;
    }

    /// Attacker fills set *n* with `W` clean lines.
    fn clean_prime_n(&mut self) {
        let trace = std::mem::take(&mut self.clean_prime_trace);
        self.machine.run_trace(ATTACKER_DOMAIN, &trace);
        self.clean_prime_trace = trace;
    }

    /// The victim of Figure 9(a): store to line 0 when the secret is set,
    /// load line 1 otherwise.
    fn victim_dirty_branch(&mut self, secret: bool) {
        let op = if secret {
            TraceOp::write(self.victim_line0.line(0))
        } else {
            TraceOp::read(self.victim_line1.line(0))
        };
        self.machine.run_trace(VICTIM_DOMAIN, &[op]);
    }

    /// The victim of Figure 9(b): load line 0 or line 1 depending on the
    /// secret.  Returns the victim's execution time in cycles (used by the
    /// timing variant); each branch loads two lines serially, the condition
    /// the paper identifies as necessary for the timing attack.
    fn victim_clean_branch(&mut self, secret: bool) -> u64 {
        let lines = if secret {
            [self.victim_line0.line(0), self.victim_line0.line(1)]
        } else {
            [self.victim_line1.line(0), self.victim_line1.line(1)]
        };
        let ops = [TraceOp::read(lines[0]), TraceOp::read(lines[1])];
        self.machine.run_trace(VICTIM_DOMAIN, &ops).cycles
    }
}

/// Runs one scenario: first [`CALIBRATION_TRIALS`] with known secrets to
/// place the decision threshold, then `trials` scored recoveries of random
/// secret bits.
///
/// # Errors
///
/// Returns configuration errors, among them [`Error::InvalidConfig`] for
/// zero `trials`; the attack itself always produces a result (possibly with
/// chance-level accuracy under a defense).
pub fn run_scenario(
    config: &SideChannelConfig,
    scenario: Scenario,
) -> Result<SideChannelResult, Error> {
    if config.trials == 0 {
        return Err(Error::InvalidConfig {
            field: "trials",
            reason: "at least one scored trial is needed".to_owned(),
        });
    }
    let mut setup = Setup::new(config)?;
    setup.warm();
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xfeed);

    // One experiment iteration: returns the attacker's observable for a given
    // secret value.
    let observe = |setup: &mut Setup, secret: bool| -> u64 {
        match scenario {
            Scenario::DirtyBranch => {
                // Initialise set m with clean lines (an unmeasured sweep),
                // let the victim run, then measure the replacement latency.
                setup.probe_m();
                setup.victim_dirty_branch(secret);
                setup.probe_m()
            }
            Scenario::CleanBranchProbe => {
                setup.dirty_prime_m();
                setup.victim_clean_branch(secret);
                setup.probe_m()
            }
            Scenario::VictimTiming => {
                setup.dirty_prime_m();
                setup.clean_prime_n();
                setup.victim_clean_branch(secret)
            }
        }
    };

    // Calibration with known secrets.
    let mut zeros = Vec::new();
    let mut ones = Vec::new();
    for i in 0..CALIBRATION_TRIALS {
        let secret = i % 2 == 0;
        let observed = observe(&mut setup, secret) as f64;
        if secret {
            ones.push(observed);
        } else {
            zeros.push(observed);
        }
    }
    // In scenario 2 a secret of 1 *lowers* the latency (a dirty line was
    // already evicted by the victim), so the comparison direction flips.
    let threshold = BinaryThreshold::calibrate(&zeros, &ones);

    // Scored trials with random secrets.
    let mut correct = 0usize;
    for _ in 0..config.trials {
        let secret = rng.gen_bool(0.5);
        let observed = observe(&mut setup, secret) as f64;
        if threshold.classify_directed(observed) == secret {
            correct += 1;
        }
    }

    Ok(SideChannelResult {
        scenario,
        accuracy: correct as f64 / config.trials as f64,
        trials: config.trials,
        threshold: threshold.value(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_cache::policy::PolicyKind;

    fn quiet_config() -> SideChannelConfig {
        SideChannelConfig {
            machine: MachineConfig::ideal(PolicyKind::TreePlru, 23),
            trials: 120,
            seed: 23,
        }
    }

    #[test]
    fn dirty_branch_gadget_leaks_the_secret_reliably() {
        let result = run_scenario(&quiet_config(), Scenario::DirtyBranch).unwrap();
        assert!(
            result.accuracy > 0.95,
            "scenario 1 should recover secrets nearly perfectly, got {}",
            result.accuracy
        );
    }

    #[test]
    fn clean_branch_probe_leaks_the_secret() {
        let result = run_scenario(&quiet_config(), Scenario::CleanBranchProbe).unwrap();
        assert!(
            result.accuracy > 0.9,
            "scenario 2 accuracy too low: {}",
            result.accuracy
        );
    }

    #[test]
    fn victim_timing_leaks_with_two_serial_loads() {
        let result = run_scenario(&quiet_config(), Scenario::VictimTiming).unwrap();
        assert!(
            result.accuracy > 0.8,
            "scenario 3 accuracy too low: {}",
            result.accuracy
        );
    }

    #[test]
    fn run_all_covers_every_scenario() {
        for scenario in Scenario::ALL {
            let result = run_scenario(&quiet_config(), scenario).unwrap();
            assert_eq!(result.scenario, scenario);
            assert!(!scenario.label().is_empty());
        }
    }

    /// A hand-built L1 with too few sets for set m (16 sets), or for set n
    /// alone (32 sets), is an error for every scenario.
    #[test]
    fn invalid_set_configuration_is_rejected() {
        use sim_cache::config::{CacheConfig, CacheLevel};

        for size_bytes in [4 * 1024, 8 * 1024] {
            let mut config = quiet_config();
            config.machine.hierarchy.l1d = CacheConfig::builder(CacheLevel::L1D)
                .size_bytes(size_bytes)
                .associativity(4)
                .replacement(PolicyKind::TreePlru)
                .build()
                .unwrap();
            for scenario in Scenario::ALL {
                let result = run_scenario(&config, scenario);
                assert!(
                    matches!(
                        result,
                        Err(Error::InvalidConfig {
                            field: "hierarchy",
                            ..
                        })
                    ),
                    "{size_bytes} B, {scenario:?}: {result:?}"
                );
            }
        }
    }

    #[test]
    fn too_few_trials_are_rejected() {
        let none = SideChannelConfig {
            trials: 0,
            ..quiet_config()
        };
        let result = run_scenario(&none, Scenario::VictimTiming);
        assert!(
            matches!(
                result,
                Err(Error::InvalidConfig {
                    field: "trials",
                    ..
                })
            ),
            "{result:?}"
        );
        let one = SideChannelConfig {
            trials: 1,
            ..quiet_config()
        };
        assert!(run_scenario(&one, Scenario::VictimTiming).is_ok());
    }

    #[test]
    fn an_unusable_tsc_or_interrupt_model_is_rejected() {
        let mut tsc = quiet_config();
        tsc.machine.tsc.jitter = u64::MAX;
        let mut interrupts = quiet_config();
        interrupts.machine.interrupts.duration = u64::MAX;
        interrupts.machine.interrupts.duration_jitter = 1;
        for (config, field) in [(tsc, "tsc"), (interrupts, "interrupts")] {
            match run_scenario(&config, Scenario::DirtyBranch) {
                Err(Error::InvalidConfig { field: named, .. }) => assert_eq!(named, field),
                other => panic!("{field}: expected InvalidConfig, got {other:?}"),
            }
        }
    }
}
