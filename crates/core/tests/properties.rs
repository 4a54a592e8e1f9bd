//! Property-based tests for the WB channel's encoding, framing and
//! capacity invariants.

use proptest::prelude::*;
use sim_cache::addr::{CacheGeometry, PhysAddr};
use sim_cache::config::{CacheConfig, CacheLevel, WritePolicy};
use sim_cache::hierarchy::{
    CacheHierarchy, HierarchyConfig, HierarchyPreset, InclusionPolicy, RandomFillConfig,
    WritebackRouting,
};
use sim_cache::policy::PolicyKind;
use sim_cache::trace::TraceOp;
use sim_core::machine::{Machine, MachineConfig};
use sim_core::sched::InterruptConfig;
use sim_core::session::TraceProgram;
use sim_core::tsc::TscConfig;
use wb_channel::channel::{ChannelConfig, NoiseConfig};
use wb_channel::encoding::SymbolEncoding;
use wb_channel::eviction::analytic_dirty_eviction_probability;
use wb_channel::protocol::{align_and_score, preamble, Frame, PREAMBLE_BITS};
use wb_channel::session::{compile_frame, ChannelSession};
use wb_channel::side_channel::{run_scenario, Scenario, SideChannelConfig};

fn arbitrary_encoding() -> impl Strategy<Value = SymbolEncoding> {
    prop_oneof![
        (1usize..=8).prop_map(|d| SymbolEncoding::binary(d).unwrap()),
        Just(SymbolEncoding::paper_two_bit()),
        Just(SymbolEncoding::multi_bit(vec![0, 2, 4, 6]).unwrap()),
        Just(SymbolEncoding::multi_bit(vec![1, 8]).unwrap()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Bits -> symbols -> bits round-trips (up to zero padding of the final
    /// symbol) for every encoding.
    #[test]
    fn encoding_round_trip(encoding in arbitrary_encoding(),
                           bits in proptest::collection::vec(any::<bool>(), 0..96)) {
        let symbols = encoding.bits_to_symbols(&bits);
        for &s in &symbols {
            prop_assert!(s < encoding.num_symbols());
            prop_assert!(encoding.dirty_lines_for(s) <= SymbolEncoding::MAX_DIRTY_LINES);
        }
        let back = encoding.symbols_to_bits(&symbols);
        prop_assert!(back.len() >= bits.len());
        prop_assert_eq!(&back[..bits.len()], bits.as_slice());
        // Padding bits are all zero.
        prop_assert!(back[bits.len()..].iter().all(|&b| !b));
    }

    /// The dirty-line level is strictly monotone in the symbol value, which is
    /// what makes the multi-level latency decoder well-defined.
    #[test]
    fn dirty_levels_are_monotone(encoding in arbitrary_encoding()) {
        let levels = encoding.levels();
        prop_assert!(levels.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(levels.len(), encoding.num_symbols());
        prop_assert_eq!(1 << encoding.bits_per_symbol(), encoding.num_symbols());
    }

    /// The analytic Table V probability is a probability, monotone in both d
    /// and L.
    #[test]
    fn analytic_probability_is_monotone(d in 0usize..=8, l in 1usize..32) {
        let p = analytic_dirty_eviction_probability(8, d, l);
        prop_assert!((0.0..=1.0).contains(&p));
        if d < 8 {
            prop_assert!(analytic_dirty_eviction_probability(8, d + 1, l) >= p);
        }
        prop_assert!(analytic_dirty_eviction_probability(8, d, l + 1) >= p);
    }

    /// Frames always start with the fixed preamble, and a perfectly received
    /// frame aligns at the offset where it was embedded with zero errors.
    #[test]
    fn frame_alignment_recovers_known_offsets(
        payload in proptest::collection::vec(any::<bool>(), 16..80),
        junk in proptest::collection::vec(any::<bool>(), 0..4),
    ) {
        let frame = Frame::from_payload(&payload);
        let expected_preamble = preamble();
        prop_assert_eq!(&frame.bits()[..PREAMBLE_BITS], expected_preamble.as_slice());
        prop_assert_eq!(frame.payload(), payload.as_slice());
        let mut stream = junk.clone();
        stream.extend_from_slice(frame.bits());
        let result = align_and_score(frame.bits(), &stream, 8);
        // The preamble may coincidentally match inside the junk prefix, but
        // the score at the true offset is exact, so the best score is 0..=junk.
        prop_assert!(result.edit_distance <= junk.len());
        prop_assert!(result.bit_error_rate <= junk.len() as f64 / frame.len() as f64);
    }

    /// The scored bit error rate never exceeds 1 + (extra received length /
    /// sent length) and is zero for identical streams.
    #[test]
    fn alignment_score_bounds(bits in proptest::collection::vec(any::<bool>(), 16..64)) {
        let frame = Frame::from_payload(&bits);
        let perfect = align_and_score(frame.bits(), frame.bits(), 4);
        prop_assert_eq!(perfect.edit_distance, 0);
        let empty: Vec<bool> = Vec::new();
        let lost = align_and_score(frame.bits(), &empty, 4);
        prop_assert_eq!(lost.edit_distance, frame.len());
        prop_assert!((lost.bit_error_rate - 1.0).abs() < 1e-12);
    }
}

/// An encoding: in one case of four a hand-built one, mostly invalid
/// (binary with `d` of 0 or 9 to 11, or up to five multi-bit levels in any
/// order), otherwise a valid one from [`arbitrary_encoding`].
fn channel_encoding() -> impl Strategy<Value = SymbolEncoding> {
    let hand_built = prop_oneof![
        (0usize..4).prop_map(|i| SymbolEncoding::Binary {
            dirty_lines: [0, 9, 10, 11][i]
        }),
        proptest::collection::vec(0usize..12, 0..5)
            .prop_map(|levels| SymbolEncoding::MultiBit { levels }),
    ];
    prop_oneof![
        hand_built,
        arbitrary_encoding(),
        arbitrary_encoding(),
        arbitrary_encoding()
    ]
}

/// A noisy neighbour: in one case of four one that `check` rejects (a zero
/// interval, no lines, or a store fraction of -0.5, 1.5 or NaN), in one of
/// three none, otherwise a valid one.
fn channel_noise() -> impl Strategy<Value = Option<NoiseConfig>> {
    (0usize..12, 1u64..3_000, 1usize..5, 0.0f64..1.0).prop_map(
        |(shape, interval, lines, store_fraction)| {
            let (interval, lines, store_fraction) = match shape {
                0 => (0, lines, store_fraction),
                1 => (interval, 0, store_fraction),
                2 => (interval, lines, [-0.5, 1.5, f64::NAN][lines % 3]),
                3..=6 => return None,
                _ => (interval, lines, store_fraction),
            };
            Some(NoiseConfig {
                interval,
                lines,
                store_fraction,
            })
        },
    )
}

/// An optional hierarchy override: one of the presets with a 16- or 8-way
/// LLC, or a 4-way L1 that the builder must refuse.
fn hierarchy_override() -> impl Strategy<Value = Option<HierarchyConfig>> {
    (0usize..6, 0usize..6, 0usize..2).prop_map(|(choice, policy, llc)| {
        let policy = POLICIES[policy];
        match choice {
            0..=3 => Some(
                HierarchyPreset::ALL[choice]
                    .config(policy, [16, 8][llc], 0)
                    .expect("preset hierarchies build"),
            ),
            4 => {
                let mut hierarchy = HierarchyConfig::xeon_e5_2650(policy, 0);
                hierarchy.l1d = CacheConfig::builder(CacheLevel::L1D)
                    .size_bytes(16 * 1024)
                    .associativity(4)
                    .replacement(policy)
                    .build()
                    .expect("a 4-way L1 builds");
                Some(hierarchy)
            }
            _ => None,
        }
    })
}

/// One cache level to put in place of a preset's: `None` (five times in
/// eight) keeps the preset's level, as does a drawn geometry the builder
/// refuses; otherwise a builder-made level of up to 64 KiB and 16 ways, or a
/// hand-built one whose public geometry fields need not agree.
fn arbitrary_level(level: CacheLevel) -> impl Strategy<Value = Option<CacheConfig>> {
    (
        (0u32..17, 0usize..17, 0u32..8),
        0usize..6,
        any::<bool>(),
        0u8..8,
        0usize..9,
    )
        .prop_map(
            move |((size_log, ways, line_log), policy, write_through, shape, sets)| {
                let (size, line) = (1usize << size_log, 1usize << line_log);
                let write_policy = if write_through {
                    WritePolicy::WriteThrough
                } else {
                    WritePolicy::WriteBack
                };
                match shape {
                    0..=4 => None,
                    5 | 6 => CacheConfig::builder(level)
                        .size_bytes(size)
                        .associativity(ways)
                        .line_size(line)
                        .write_policy(write_policy)
                        .replacement(POLICIES[policy])
                        .build()
                        .ok(),
                    _ => Some(CacheConfig {
                        level,
                        geometry: CacheGeometry {
                            size_bytes: size,
                            associativity: ways,
                            line_size: line,
                            num_sets: sets,
                        },
                        write_policy,
                        replacement: POLICIES[policy],
                    }),
                }
            },
        )
}

/// Any hierarchy: a [`hierarchy_override`] shape (or the default) with each
/// level possibly replaced by an [`arbitrary_level`], any inclusion and
/// write-back routing, and an optional random-fill L1 (a window of any size
/// in one case of four).
fn arbitrary_hierarchy() -> impl Strategy<Value = HierarchyConfig> {
    (
        hierarchy_override(),
        (
            arbitrary_level(CacheLevel::L1D),
            arbitrary_level(CacheLevel::L2),
            arbitrary_level(CacheLevel::L3),
        ),
        (0usize..3, any::<bool>()),
        (any::<bool>(), any::<u64>(), 0u64..64),
        0u64..1_000,
    )
        .prop_map(
            |(base, (l1d, l2, llc), (inclusion, poc), (random_fill, wide, narrow), seed)| {
                let mut hierarchy = base.unwrap_or_default();
                hierarchy.l1d = l1d.unwrap_or(hierarchy.l1d);
                hierarchy.l2 = l2.unwrap_or(hierarchy.l2);
                hierarchy.llc = llc.unwrap_or(hierarchy.llc);
                hierarchy.inclusion = [
                    InclusionPolicy::Inclusive,
                    InclusionPolicy::NonInclusive,
                    InclusionPolicy::Exclusive,
                ][inclusion];
                if poc {
                    hierarchy.writeback = WritebackRouting::PointOfCoherency;
                }
                if random_fill {
                    let window = if seed % 4 == 0 { wide } else { narrow };
                    hierarchy.l1_random_fill = Some(RandomFillConfig { window });
                }
                hierarchy.seed = seed;
                hierarchy
            },
        )
}

const POLICIES: [PolicyKind; 6] = [
    PolicyKind::TrueLru,
    PolicyKind::TreePlru,
    PolicyKind::Random,
    PolicyKind::IntelLike,
    PolicyKind::Nru,
    PolicyKind::Srrip,
];

/// A cycle count: in one case of three an edge value (0, 1, `paper`,
/// `i64::MAX`, `u64::MAX - 1` or `u64::MAX`), otherwise one from `ordinary`.
fn edge_or(paper: u64, ordinary: std::ops::Range<u64>) -> impl Strategy<Value = u64> {
    let edges = [0, 1, paper, i64::MAX as u64, u64::MAX - 1, u64::MAX];
    prop_oneof![
        (0usize..6).prop_map(move |i| edges[i]),
        ordinary.clone(),
        ordinary
    ]
}

/// A measurement-noise profile with each field from [`edge_or`] around the
/// paper's.
fn edge_tsc() -> impl Strategy<Value = TscConfig> {
    (edge_or(24, 0..64), edge_or(1, 0..4), edge_or(3, 0..8)).prop_map(
        |(overhead, granularity, jitter)| TscConfig {
            overhead,
            granularity,
            jitter,
        },
    )
}

/// An interruption profile with each field from [`edge_or`] around the
/// quiet pinned core's, its ordinary values short enough to fire in a
/// frame.
fn edge_interrupts() -> impl Strategy<Value = InterruptConfig> {
    (
        edge_or(550_000, 1_000..600_000),
        edge_or(150_000, 0..150_000),
        edge_or(6_000, 0..6_000),
        edge_or(3_000, 0..3_000),
    )
        .prop_map(
            |(period, period_jitter, duration, duration_jitter)| InterruptConfig {
                period,
                period_jitter,
                duration,
                duration_jitter,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bad channel configurations are errors, never panics.  Every draw is
    /// made twice, through the builder and as a hand-built struct:
    /// `ChannelConfig::check` agrees with `build`, a config they accept
    /// compiles and transmits a frame, and `ChannelSession::new` returns
    /// the error they report on one they reject.
    #[test]
    fn builder_accepted_configs_compile_and_never_panic(
        encoding in channel_encoding(),
        (period, policy, tsc, interrupts) in (edge_or(5_500, 1..6_000), 0usize..24, edge_tsc(), edge_interrupts()),
        noise in channel_noise(),
        hierarchy in hierarchy_override(),
        calibration_samples in 0usize..8,
        seed in 0u64..1_000,
        payload in proptest::collection::vec(any::<bool>(), 0..48),
    ) {
        // Policies 6 and up (three cases of four) follow the override, if
        // there is one.
        let policy = match hierarchy {
            Some(hierarchy) if policy >= 6 => hierarchy.l1d.replacement,
            _ => POLICIES[policy % 6],
        };
        let hand_built = ChannelConfig {
            encoding,
            period_cycles: period,
            policy,
            interrupts,
            tsc,
            noise,
            hierarchy,
            calibration_samples,
            seed,
        };
        let mut builder = ChannelConfig::builder();
        builder
            .encoding(hand_built.encoding.clone())
            .period_cycles(period)
            .interrupts(interrupts)
            .tsc(tsc)
            .calibration_samples(calibration_samples)
            .seed(seed);
        if let Some(noise) = hand_built.noise {
            builder.noise(noise);
        }
        if let Some(hierarchy) = hierarchy {
            builder.hierarchy(hierarchy);
        }
        // Last, so the builder holds exactly the hand-built config.
        builder.policy(policy);
        let built = builder.build();
        prop_assert_eq!(&built, &hand_built.check().map(|()| hand_built.clone()));
        match built {
            Ok(config) => {
                let compiled = compile_frame(&config, &payload);
                prop_assert!(!compiled.programs.is_empty());
                // The programs see the hierarchy only through the L1
                // geometry, which `check` keeps equal to the default
                // machine's: an override compiles exactly what the default
                // machine does.
                let default_machine = ChannelConfig { hierarchy: None, ..config.clone() };
                let plain = compile_frame(&default_machine, &payload);
                prop_assert!(compiled.programs == plain.programs);
                prop_assert_eq!(compiled.limit, plain.limit);
                if let Ok(mut session) = ChannelSession::new(config) {
                    let report = session.transmit_bits(&payload);
                    prop_assert!(report.is_ok(), "{:?}", report);
                }
            }
            Err(error) => {
                prop_assert_eq!(ChannelSession::new(hand_built).unwrap_err(), error);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Bad machines are errors, never panics.  On any hierarchy and TSC and
    /// interrupt edge values, `Machine::new` fails exactly when
    /// `MachineConfig::check` or the hierarchy does, with `check`'s error
    /// first; a machine it builds runs loads, stores, a timed chase and a
    /// one-program session, whose turns poll the interrupt model.
    #[test]
    fn machine_new_never_panics_on_any_hierarchy(
        hierarchy in arbitrary_hierarchy(),
        (tsc, interrupts) in (edge_tsc(), edge_interrupts()),
        addrs in proptest::collection::vec((any::<u64>(), any::<bool>()), 0..48),
        wait in 0u64..1_000_000,
    ) {
        let config = MachineConfig { hierarchy, tsc, interrupts, seed: 5 };
        let built = Machine::new(config);
        match config.check() {
            Err(error) => prop_assert_eq!(built.err(), Some(error)),
            Ok(()) => prop_assert_eq!(built.is_ok(), CacheHierarchy::new(hierarchy).is_ok()),
        }
        if let Ok(mut machine) = Machine::new(config) {
            let ops: Vec<TraceOp> = addrs
                .iter()
                .map(|&(addr, store)| {
                    let addr = PhysAddr(addr);
                    if store { TraceOp::write(addr) } else { TraceOp::read(addr) }
                })
                .collect();
            machine.run_trace(1, &ops);
            let chase: Vec<PhysAddr> = addrs.iter().map(|&(addr, _)| PhysAddr(addr)).collect();
            machine.measured_chase(2, &chase);
            let mut program = TraceProgram::new("probe", 3);
            program.ops(ops).chase(&chase).wait_rel(wait).chase(&chase);
            let report = machine.run_session(&[program], &mut [], 2 * wait + 100_000);
            prop_assert_eq!(report.programs.len(), 1);
        }
    }
}

/// Scored trials for the side channel: valid in seven cases of eight, so
/// most cases reach the attack, and zero (rejected) in the eighth.
fn trial_counts() -> impl Strategy<Value = usize> {
    (0usize..8, 1usize..16).prop_map(|(choice, trials)| if choice == 0 { 0 } else { trials })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bad side-channel configurations are errors, never panics:
    /// `run_scenario` returns `Ok` or `Err` on any hierarchy and scored
    /// trial count, for every scenario.
    #[test]
    fn side_channel_never_panics_on_any_config(
        hierarchy in arbitrary_hierarchy(),
        trials in trial_counts(),
        scenario in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let config = SideChannelConfig {
            machine: MachineConfig { hierarchy, ..MachineConfig::xeon_e5_2650(PolicyKind::TreePlru, seed) },
            trials,
            seed,
        };
        if let Ok(result) = run_scenario(&config, Scenario::ALL[scenario]) {
            prop_assert_eq!(result.trials, trials);
            prop_assert!((0.0..=1.0).contains(&result.accuracy));
        }
    }
}
