//! The defense catalogue of Section VIII.
//!
//! Each [`Defense`] describes one mitigation the paper discusses, how it is
//! realised on the simulator, and the paper's verdict on whether it stops the
//! WB channel.  [`Defense::apply_to_machine_config`] and
//! [`Defense::apply_to_machine`] install it; the evaluation harness in
//! [`crate::evaluate`] then measures what is left of the channel.

use sim_cache::hierarchy::RandomFillConfig;
use sim_cache::policy::PolicyKind;
use sim_cache::waymask::WayMask;
use sim_core::machine::{Machine, MachineConfig};
use sim_core::tsc::TscConfig;
use wb_channel::{Error, RECEIVER_DOMAIN, REPLACEMENT_SIZE, SENDER_DOMAIN};

/// A defense against the WB channel.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Defense {
    /// No defense (baseline).
    None,
    /// Write-through L1: no dirty bits, no write-back latency difference.
    WriteThroughL1,
    /// Pseudo-random replacement (the paper shows this does *not* stop the
    /// channel).
    RandomReplacement,
    /// Random-fill cache (Liu & Lee) with the given fill window in lines.
    RandomFill {
        /// Half-width of the fill neighbourhood, in cache lines.
        window: u64,
    },
    /// NoMo-style static way partitioning: each hardware thread gets half of
    /// the ways of every set.
    NoMoPartitioning,
    /// DAWG-style way partitioning by protection domain (modelled identically
    /// to NoMo at the L1: disjoint way masks per domain).
    Dawg,
    /// PLcache: the protected process's lines are locked and cannot be
    /// evicted by other processes.
    PlCacheLocking,
    /// Prefetch-guard: the defense injects prefetched lines into the attacked
    /// set after suspicious activity (ineffective against WB, per the paper).
    PrefetchGuard {
        /// Number of guard lines injected per sampling period.
        degree: usize,
    },
    /// Fuzzy time: the time-stamp counter is quantised and jittered.
    FuzzyTime {
        /// Counter granularity in cycles.
        granularity: u64,
        /// Additional uniform jitter in cycles.
        jitter: u64,
    },
}

impl Defense {
    /// Every defense evaluated by the `repro defenses` experiment.
    pub const ALL: [Defense; 9] = [
        Defense::None,
        Defense::WriteThroughL1,
        Defense::RandomReplacement,
        Defense::RandomFill { window: 64 },
        Defense::NoMoPartitioning,
        Defense::Dawg,
        Defense::PlCacheLocking,
        Defense::PrefetchGuard { degree: 2 },
        Defense::FuzzyTime {
            granularity: 64,
            jitter: 32,
        },
    ];

    /// Human-readable name used in result tables.
    pub fn label(&self) -> String {
        match self {
            Defense::None => "no defense".to_owned(),
            Defense::WriteThroughL1 => "write-through L1".to_owned(),
            Defense::RandomReplacement => "random replacement".to_owned(),
            Defense::RandomFill { window } => format!("random-fill cache (±{window} lines)"),
            Defense::NoMoPartitioning => "NoMo way partitioning".to_owned(),
            Defense::Dawg => "DAWG way partitioning".to_owned(),
            Defense::PlCacheLocking => "PLcache line locking".to_owned(),
            Defense::PrefetchGuard { degree } => format!("Prefetch-guard (degree {degree})"),
            Defense::FuzzyTime {
                granularity,
                jitter,
            } => format!("fuzzy time (gran {granularity}, jitter {jitter})"),
        }
    }

    /// The verdict Section VIII of the paper reaches for this defense.
    pub fn paper_expectation(&self) -> &'static str {
        match self {
            Defense::None => "channel works (baseline)",
            Defense::WriteThroughL1 => "mitigates, but large performance cost",
            Defense::RandomReplacement => "does NOT mitigate (Sec. VI-A)",
            Defense::RandomFill { .. } => "mitigates when the window is large enough",
            Defense::NoMoPartitioning | Defense::Dawg => "mitigates via eviction isolation",
            Defense::PlCacheLocking => "mitigates (locked dirty lines cannot be replaced)",
            Defense::PrefetchGuard { .. } => "does NOT mitigate (noise lines are not enough)",
            Defense::FuzzyTime { .. } => "weakens the channel; attacker can build other clocks",
        }
    }

    /// Whether the paper expects this defense to stop the WB channel.
    pub fn expected_to_mitigate(&self) -> bool {
        matches!(
            self,
            Defense::WriteThroughL1
                | Defense::RandomFill { .. }
                | Defense::NoMoPartitioning
                | Defense::Dawg
                | Defense::PlCacheLocking
                | Defense::FuzzyTime { .. }
        )
    }

    /// Applies the configuration-level part of the defense.
    pub fn apply_to_machine_config(&self, config: &mut MachineConfig) {
        match self {
            Defense::WriteThroughL1 => {
                config.hierarchy = sim_cache::hierarchy::HierarchyConfig::write_through_l1(
                    config.hierarchy.l1d.replacement,
                    config.seed,
                );
            }
            Defense::RandomReplacement => {
                config.hierarchy.l1d.replacement = PolicyKind::Random;
            }
            Defense::RandomFill { window } => {
                config.hierarchy.l1_random_fill = Some(RandomFillConfig { window: *window });
            }
            Defense::FuzzyTime {
                granularity,
                jitter,
            } => {
                config.tsc = TscConfig::fuzzy(*granularity, *jitter);
            }
            _ => {}
        }
    }

    /// Applies the runtime part of the defense to a freshly built machine
    /// (way partitions).  Line locking and guard prefetches are applied by
    /// the evaluation loop because they react to the protected process's
    /// accesses.
    ///
    /// # Errors
    ///
    /// Propagates partitioning errors.
    pub fn apply_to_machine(&self, machine: &mut Machine) -> Result<(), Error> {
        match self {
            Defense::NoMoPartitioning | Defense::Dawg => {
                let ways = machine.l1_geometry().associativity;
                let half = ways / 2;
                machine
                    .hierarchy_mut()
                    .l1_mut()
                    .set_partition(RECEIVER_DOMAIN, WayMask::range(0, half))?;
                machine
                    .hierarchy_mut()
                    .l1_mut()
                    .set_partition(SENDER_DOMAIN, WayMask::range(half, ways))?;
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// The replacement-set size a realistic attacker uses against this
    /// defense: [`REPLACEMENT_SIZE`] unless the defense calls for more.
    ///
    /// Section VI-A's answer to pseudo-random replacement is precisely to
    /// enlarge the receiver's replacement set: at `L = 10` a dirty line
    /// survives each sweep with probability `((W-d)/W)^L ≈ 26%` (Table V),
    /// which puts the verdict on the mitigation threshold, while `L = 12`
    /// restores a stable channel.  Every other defense leaves the size at
    /// [`REPLACEMENT_SIZE`].
    pub fn attacker_replacement_size(&self) -> usize {
        match self {
            Defense::RandomReplacement => 12,
            _ => REPLACEMENT_SIZE,
        }
    }

    /// Whether the evaluation loop must lock the protected process's dirty
    /// lines after each encoding step (PLcache).
    pub fn locks_protected_lines(&self) -> bool {
        matches!(self, Defense::PlCacheLocking)
    }

    /// Number of guard lines to prefetch into the target set per period.
    pub fn guard_prefetch_degree(&self) -> usize {
        match self {
            Defense::PrefetchGuard { degree } => *degree,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_cache::config::WritePolicy;

    #[test]
    fn labels_and_expectations_are_defined_for_all_defenses() {
        for defense in Defense::ALL {
            assert!(!defense.label().is_empty());
            assert!(!defense.paper_expectation().is_empty());
        }
    }

    #[test]
    fn config_level_defenses_modify_the_machine_config() {
        let mut config = MachineConfig::xeon_e5_2650(PolicyKind::TreePlru, 1);
        Defense::WriteThroughL1.apply_to_machine_config(&mut config);
        assert_eq!(config.hierarchy.l1d.write_policy, WritePolicy::WriteThrough);

        let mut config = MachineConfig::xeon_e5_2650(PolicyKind::TreePlru, 1);
        Defense::RandomReplacement.apply_to_machine_config(&mut config);
        assert_eq!(config.hierarchy.l1d.replacement, PolicyKind::Random);

        let mut config = MachineConfig::xeon_e5_2650(PolicyKind::TreePlru, 1);
        Defense::RandomFill { window: 32 }.apply_to_machine_config(&mut config);
        assert!(config.hierarchy.l1_random_fill.is_some());

        let mut config = MachineConfig::xeon_e5_2650(PolicyKind::TreePlru, 1);
        Defense::FuzzyTime {
            granularity: 64,
            jitter: 8,
        }
        .apply_to_machine_config(&mut config);
        assert_eq!(config.tsc.granularity, 64);
    }

    #[test]
    fn partitioning_defense_restricts_both_domains() {
        let mut machine =
            Machine::new(MachineConfig::xeon_e5_2650(PolicyKind::TreePlru, 2)).unwrap();
        Defense::NoMoPartitioning
            .apply_to_machine(&mut machine)
            .unwrap();
        let receiver_mask = machine.hierarchy().l1().partition_of(RECEIVER_DOMAIN);
        let sender_mask = machine.hierarchy().l1().partition_of(SENDER_DOMAIN);
        assert_eq!(receiver_mask.count(), 4);
        assert_eq!(sender_mask.count(), 4);
        assert!(receiver_mask.and(sender_mask).is_empty());
    }

    #[test]
    fn runtime_flags_match_the_defense_kind() {
        assert!(Defense::PlCacheLocking.locks_protected_lines());
        assert!(!Defense::None.locks_protected_lines());
        assert_eq!(
            Defense::PrefetchGuard { degree: 3 }.guard_prefetch_degree(),
            3
        );
        assert_eq!(Defense::None.guard_prefetch_degree(), 0);
    }

    #[test]
    fn expectations_match_the_paper() {
        assert!(!Defense::RandomReplacement.expected_to_mitigate());
        assert!(!Defense::PrefetchGuard { degree: 2 }.expected_to_mitigate());
        assert!(Defense::WriteThroughL1.expected_to_mitigate());
        assert!(Defense::PlCacheLocking.expected_to_mitigate());
    }
}
