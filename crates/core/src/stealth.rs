//! Stealthiness metrics (Tables VI and VII).
//!
//! The paper argues the WB channel is hard to detect because the sender's
//! cache footprint is tiny: each bit is modulated with at most a handful of
//! stores, and most of the time both parties sit in busy-wait loops.  The
//! evidence is perf-counter based, and here the counters are the sender
//! program's [`TraceSummary`] from the session executor:
//!
//! * **Table VI** — cache loads per millisecond of the sender process at
//!   `Ts = 11 000` cycles, compared with the LRU-channel sender (the LRU
//!   side of the comparison lives in the `baselines` crate).
//! * **Table VII** — the sender's L1/L2/LLC miss rates while the channel
//!   runs, compared with a sender sharing the core with a benign `g++`
//!   workload and with the sender running alone.

use crate::encoding::SymbolEncoding;
use crate::error::Error;
use crate::receiver::WbReceiver;
use crate::sender::WbSender;
use crate::{PartyLines, RECEIVER_DOMAIN, REPLACEMENT_SIZE, SENDER_DOMAIN, TARGET_SET};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_cache::trace::TraceSummary;
use sim_core::machine::{Machine, MachineConfig, CLOCK_GHZ};
use sim_core::memlayout::SetLines;
use sim_core::process::{AddressSpace, ProcessId};
use sim_core::workload::CompilerWorkload;

const COMPANION_DOMAIN: u16 = 4;
/// The unrelated L1 set holding the sender's spin-loop footprint.
const SPIN_SET: usize = (TARGET_SET + 17) % 64;

/// Who shares the physical core with the WB sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SenderCompanion {
    /// The WB receiver (the covert channel is running) — the "WB" column.
    WbReceiver,
    /// A benign compiler-like workload — the "Sender & g++" column.
    CompilerWorkload,
    /// Nothing: the sender runs alone — the "Sender only" column.
    None,
}

/// Per-level cache load rates (Table VI).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadProfile {
    /// L1 data-cache loads per millisecond.
    pub l1_per_ms: f64,
    /// L2 references per millisecond.
    pub l2_per_ms: f64,
    /// LLC references per millisecond.
    pub llc_per_ms: f64,
    /// Sum over the three levels.
    pub total_per_ms: f64,
}

/// Per-level miss rates of the sender process (Table VII).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissRateProfile {
    /// L1 data-cache miss rate in `[0, 1]`.
    pub l1d: f64,
    /// L2 miss rate in `[0, 1]`.
    pub l2: f64,
    /// LLC miss rate in `[0, 1]`.
    pub llc: f64,
}

/// Raw output of one stealth run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StealthRun {
    /// The sender program's access counts.
    pub sender: TraceSummary,
    /// Wall-clock duration of the measurement window, in cycles.
    pub elapsed_cycles: u64,
}

impl StealthRun {
    /// References that reached the LLC, i.e. missed the L2.
    fn llc_references(&self) -> u64 {
        self.sender.llc_hits + self.sender.memory_accesses
    }

    /// The Table VI row for this run: L1 loads, L2 references (L1 misses)
    /// and LLC references per millisecond of the measurement window at
    /// [`CLOCK_GHZ`].
    pub fn load_profile(&self) -> LoadProfile {
        let per_ms = |loads: u64| {
            if self.elapsed_cycles == 0 {
                return 0.0;
            }
            loads as f64 / (self.elapsed_cycles as f64 / (CLOCK_GHZ * 1e6))
        };
        let (l1, l2, llc) = (
            self.sender.reads,
            self.sender.l1_misses(),
            self.llc_references(),
        );
        LoadProfile {
            l1_per_ms: per_ms(l1),
            l2_per_ms: per_ms(l2),
            llc_per_ms: per_ms(llc),
            total_per_ms: per_ms(l1 + l2 + llc),
        }
    }

    /// The Table VII row for this run.
    pub fn miss_rates(&self) -> MissRateProfile {
        let llc_references = self.llc_references();
        MissRateProfile {
            l1d: ratio(self.sender.l1_misses(), self.sender.accesses()),
            l2: ratio(llc_references, self.sender.l1_misses()),
            llc: ratio(self.sender.memory_accesses, llc_references),
        }
    }
}

/// `num / den`, or 0.0 when nothing was counted.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs the WB sender for `duration_cycles` alongside the chosen companion
/// and returns its access counts.
///
/// The sender transmits a random bit stream with the given encoding at one
/// symbol per `period_cycles`, exactly as in the channel evaluation.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] when the L1 has too few sets for the
/// target and spin-loop sets, or too few ways for the encoding's largest
/// dirty-line count, and propagates machine-configuration errors.
pub fn sender_profile(
    machine_config: MachineConfig,
    encoding: &SymbolEncoding,
    period_cycles: u64,
    duration_cycles: u64,
    companion: SenderCompanion,
    seed: u64,
) -> Result<StealthRun, Error> {
    let mut machine = Machine::new(machine_config)?;
    let geometry = machine.l1_geometry();
    if geometry.num_sets <= SPIN_SET {
        return Err(Error::InvalidConfig {
            field: "machine_config",
            reason: format!(
                "the stealth run uses L1 sets {TARGET_SET} and {SPIN_SET}, but the L1 has {} sets",
                geometry.num_sets
            ),
        });
    }
    let max_level = encoding.levels().into_iter().max().unwrap_or(0);
    if max_level > geometry.associativity {
        return Err(Error::InvalidConfig {
            field: "encoding",
            reason: format!(
                "the encoding dirties up to {max_level} lines, but the L1 target set has {} ways",
                geometry.associativity
            ),
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);

    // Sender: a random symbol stream long enough to outlast the window.
    let symbol_count = (duration_cycles / period_cycles.max(1) + 2) as usize;
    let symbols: Vec<usize> = (0..symbol_count)
        .map(|_| rng.gen_range(0..encoding.num_symbols()))
        .collect();
    let parties = PartyLines::build(geometry, REPLACEMENT_SIZE);
    // The real sender process keeps touching its loop variables and stack
    // while busy-waiting; model that as a small hot footprint in an unrelated
    // set so the perf-counter denominators (Table VII) are meaningful.
    let spin_lines = SetLines::build(
        AddressSpace::new(ProcessId(SENDER_DOMAIN)),
        geometry,
        SPIN_SET,
        4,
        5_000,
    );
    let sender = WbSender::new(
        SENDER_DOMAIN,
        parties.sender,
        encoding.clone(),
        symbols,
        period_cycles,
    )
    .with_spin_footprint(spin_lines, 24);

    // The sender (and the WB receiver, when present) run as compiled trace
    // programs on the session executor; the compiler-like workload runs
    // beside them as a co-runner, its unbounded stream refilled chunk by
    // chunk.  The sender is always the first hardware thread.
    let start = machine.now();
    let mut programs = vec![sender.compile()];
    let report = match companion {
        SenderCompanion::WbReceiver => {
            let receiver = WbReceiver::new(
                RECEIVER_DOMAIN,
                parties.receiver,
                period_cycles,
                symbol_count,
                seed ^ 0xaaaa,
            );
            programs.push(receiver.compile());
            machine.run_session(&programs, &mut [], duration_cycles)
        }
        SenderCompanion::CompilerWorkload => {
            let workload = CompilerWorkload::new(
                AddressSpace::new(ProcessId(COMPANION_DOMAIN)),
                COMPANION_DOMAIN,
                seed ^ 0xbbbb,
            );
            machine.run_session(&programs, &mut [workload], duration_cycles)
        }
        SenderCompanion::None => machine.run_session(&programs, &mut [], duration_cycles),
    };

    Ok(StealthRun {
        sender: report.programs[0].summary,
        elapsed_cycles: machine.now() - start,
    })
}

/// Convenience wrapper producing the three Table VII columns for one
/// encoding.
///
/// # Errors
///
/// Propagates errors from [`sender_profile`].
pub fn table_vii_rows(
    machine_config: MachineConfig,
    encoding: &SymbolEncoding,
    period_cycles: u64,
    duration_cycles: u64,
    seed: u64,
) -> Result<[(SenderCompanion, MissRateProfile); 3], Error> {
    let wb = sender_profile(
        machine_config,
        encoding,
        period_cycles,
        duration_cycles,
        SenderCompanion::WbReceiver,
        seed,
    )?
    .miss_rates();
    let gpp = sender_profile(
        machine_config,
        encoding,
        period_cycles,
        duration_cycles,
        SenderCompanion::CompilerWorkload,
        seed,
    )?
    .miss_rates();
    let alone = sender_profile(
        machine_config,
        encoding,
        period_cycles,
        duration_cycles,
        SenderCompanion::None,
        seed,
    )?
    .miss_rates();
    Ok([
        (SenderCompanion::WbReceiver, wb),
        (SenderCompanion::CompilerWorkload, gpp),
        (SenderCompanion::None, alone),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_cache::policy::PolicyKind;
    use sim_core::sched::InterruptConfig;

    fn machine_config() -> MachineConfig {
        MachineConfig::ideal(PolicyKind::TreePlru, 9)
    }

    const TS: u64 = 11_000;
    const WINDOW: u64 = 4_000_000;

    /// One millisecond at the 2.2 GHz clock.
    const MS: u64 = 2_200_000;

    /// The Table VI and VII numbers of a run over a hand-built sender
    /// summary: `([l1, l2, llc, total] loads/ms, [l1d, l2, llc] miss rates)`.
    fn profiles(sender: TraceSummary, elapsed_cycles: u64) -> ([f64; 4], [f64; 3]) {
        let run = StealthRun {
            sender,
            elapsed_cycles,
        };
        let (l, m) = (run.load_profile(), run.miss_rates());
        (
            [l.l1_per_ms, l.l2_per_ms, l.llc_per_ms, l.total_per_ms],
            [m.l1d, m.l2, m.llc],
        )
    }

    #[test]
    fn l1_hits_reach_no_outer_level() {
        let hits = TraceSummary {
            reads: 10,
            l1_hits: 10,
            ..TraceSummary::default()
        };
        // No L2 or LLC references: those miss rates are 0.0, not NaN.
        assert_eq!(profiles(hits, MS), ([10.0, 0.0, 0.0, 10.0], [0.0; 3]));
    }

    #[test]
    fn memory_accesses_count_at_every_level() {
        let miss = TraceSummary {
            reads: 1,
            read_misses: 1,
            memory_accesses: 1,
            ..TraceSummary::default()
        };
        assert_eq!(profiles(miss, MS), ([1.0, 1.0, 1.0, 3.0], [1.0; 3]));
    }

    #[test]
    fn l1_miss_rate_covers_loads_and_stores() {
        // Two stores, one an L2 hit: no loads, but both count in the L1 miss
        // rate and the missing one references the L2.
        let stores = TraceSummary {
            writes: 2,
            write_misses: 1,
            l1_hits: 1,
            l2_hits: 1,
            ..TraceSummary::default()
        };
        assert_eq!(
            profiles(stores, MS),
            ([0.0, 1.0, 0.0, 1.0], [0.5, 0.0, 0.0])
        );
    }

    #[test]
    fn flushes_and_prefetches_are_not_loads() {
        use sim_cache::outcome::{AccessKind, AccessOutcome, HitLevel};

        let mut sender = TraceSummary::default();
        for (kind, hit) in [
            (AccessKind::Flush, HitLevel::Memory),
            (AccessKind::Prefetch, HitLevel::L1D),
        ] {
            sender.absorb(&AccessOutcome {
                kind,
                hit,
                cycles: 30,
                l1_filled: false,
                l1_evicted: None,
                l1_victim_dirty: false,
                writebacks: 0,
            });
        }
        assert_eq!(profiles(sender, MS), ([0.0; 4], [0.0; 3]));
    }

    #[test]
    fn loads_per_ms_use_the_whole_window() {
        // 1 000 loads and 100 stores; 40 L1 misses, of which 20 missed the
        // L2 and 5 of those the LLC.
        let sender = TraceSummary {
            reads: 1_000,
            writes: 100,
            read_misses: 30,
            write_misses: 10,
            l1_hits: 1_060,
            l2_hits: 20,
            llc_hits: 15,
            memory_accesses: 5,
            ..TraceSummary::default()
        };
        let rates = [40.0 / 1_100.0, 0.5, 0.25];
        assert_eq!(
            profiles(sender, MS),
            ([1_000.0, 40.0, 20.0, 1_060.0], rates)
        );
        // Half the window doubles every load rate; an empty one gives 0.
        assert_eq!(
            profiles(sender, MS / 2),
            ([2_000.0, 80.0, 40.0, 2_120.0], rates)
        );
        assert_eq!(profiles(sender, 0), ([0.0; 4], rates));
    }

    #[test]
    fn sender_footprint_is_small_when_the_channel_runs() {
        let encoding = SymbolEncoding::binary(1).unwrap();
        let run = sender_profile(
            machine_config(),
            &encoding,
            TS,
            WINDOW,
            SenderCompanion::WbReceiver,
            1,
        )
        .unwrap();
        let loads = run.load_profile();
        // The sender performs at most one store plus its small spin-loop
        // footprint per period, so its load rate stays modest (the paper's
        // absolute Table VI values also count the busy-wait loop; what
        // matters downstream is that the WB sender loads less than the
        // LRU-channel sender, which the bench harness checks).
        assert!(loads.l1_per_ms < 10_000.0, "l1/ms = {}", loads.l1_per_ms);
        assert!(loads.total_per_ms >= loads.l1_per_ms);
        assert!(run.elapsed_cycles > 0);
    }

    #[test]
    fn wb_sender_l1_miss_rate_exceeds_its_solo_run() {
        // Table VII: the receiver keeps evicting the sender's lines to the
        // L2, so the sender's L1 miss rate with the channel running is higher
        // than when it runs alone.
        let encoding = SymbolEncoding::binary(1).unwrap();
        let rows = table_vii_rows(machine_config(), &encoding, TS, WINDOW, 3).unwrap();
        let wb = rows[0].1;
        let alone = rows[2].1;
        assert!(
            wb.l1d >= alone.l1d,
            "channel run {} should not have a lower L1 miss rate than solo {}",
            wb.l1d,
            alone.l1d
        );
        assert!(
            wb.l1d < 0.25,
            "the sender's overall L1 miss rate stays small: {}",
            wb.l1d
        );
    }

    #[test]
    fn multibit_sender_misses_more_than_binary_sender() {
        // Table VII: multi-bit encoding modulates more lines per symbol, so
        // the sender's L1 miss rate is higher than for binary encoding.
        let binary = SymbolEncoding::binary(1).unwrap();
        let multibit = SymbolEncoding::paper_two_bit();
        let b = sender_profile(
            machine_config(),
            &binary,
            TS,
            WINDOW,
            SenderCompanion::WbReceiver,
            5,
        )
        .unwrap();
        let m = sender_profile(
            machine_config(),
            &multibit,
            TS,
            WINDOW,
            SenderCompanion::WbReceiver,
            5,
        )
        .unwrap();
        assert!(
            m.sender.writes > b.sender.writes,
            "multi-bit encoding stores more lines"
        );
    }

    #[test]
    fn gpp_companion_perturbs_the_sender_more_than_running_alone() {
        // The paper's stealth argument (Table VII): a benign co-runner such
        // as g++ causes cache contention of the same order as the WB
        // receiver, so the sender's miss-rate profile does not stand out.
        let encoding = SymbolEncoding::binary(1).unwrap();
        let rows = table_vii_rows(machine_config(), &encoding, TS, WINDOW, 7).unwrap();
        let gpp = rows[1].1;
        let alone = rows[2].1;
        assert!(
            gpp.l1d >= alone.l1d,
            "g++ contention ({}) should not reduce the solo miss rate ({})",
            gpp.l1d,
            alone.l1d
        );
        assert!(
            gpp.l1d < 0.5,
            "the sender remains mostly L1-resident: {}",
            gpp.l1d
        );
    }

    #[test]
    fn rejects_layouts_the_sender_cannot_use() {
        use sim_cache::config::{CacheConfig, CacheLevel};

        // A 16 KiB 4-way L1 cannot hold binary(8)'s eight dirty lines.
        let mut small = machine_config();
        small.hierarchy.l1d = CacheConfig::builder(CacheLevel::L1D)
            .size_bytes(16 * 1024)
            .associativity(4)
            .replacement(PolicyKind::TreePlru)
            .build()
            .unwrap();
        let encoding = SymbolEncoding::binary(8).unwrap();
        let error =
            sender_profile(small, &encoding, TS, 100_000, SenderCompanion::None, 1).unwrap_err();
        assert!(
            matches!(
                error,
                Error::InvalidConfig {
                    field: "encoding",
                    ..
                }
            ),
            "{error}"
        );
        // binary(4) fits the four ways.
        let fits = SymbolEncoding::binary(4).unwrap();
        assert!(sender_profile(small, &fits, TS, 100_000, SenderCompanion::None, 1).is_ok());
        // An L1 without the spin-loop set is rejected too.
        let mut few_sets = machine_config();
        few_sets.hierarchy.l1d = CacheConfig::builder(CacheLevel::L1D)
            .size_bytes(8 * 1024)
            .associativity(4)
            .replacement(PolicyKind::TreePlru)
            .build()
            .unwrap();
        let error =
            sender_profile(few_sets, &fits, TS, 100_000, SenderCompanion::None, 1).unwrap_err();
        assert!(
            matches!(
                error,
                Error::InvalidConfig {
                    field: "machine_config",
                    ..
                }
            ),
            "{error}"
        );
    }

    /// Requires `InvalidConfig` naming `field` from a run on `config`, whose
    /// `field` the models cannot compute with; the window is long enough
    /// for the first interrupt to fire.
    fn rejects_unusable(config: MachineConfig, field: &str) {
        let encoding = SymbolEncoding::binary(1).unwrap();
        let result = sender_profile(
            config,
            &encoding,
            TS,
            WINDOW,
            SenderCompanion::WbReceiver,
            1,
        );
        match result {
            Err(Error::InvalidConfig { field: named, .. }) => assert_eq!(named, field),
            other => panic!("{field}: expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn rejects_a_tsc_jitter_above_i64_max() {
        let mut config = machine_config();
        config.tsc.jitter = u64::MAX;
        rejects_unusable(config, "tsc");
    }

    #[test]
    fn rejects_an_interrupt_duration_past_u64_max() {
        let mut config = machine_config();
        config.interrupts = InterruptConfig {
            duration: u64::MAX,
            duration_jitter: 1,
            ..InterruptConfig::pinned_quiet()
        };
        rejects_unusable(config, "interrupts");
    }
}
