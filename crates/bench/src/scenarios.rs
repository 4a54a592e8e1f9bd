//! The registered scenarios: every table and figure of the paper's
//! evaluation, decomposed into independently runnable sweep points.
//!
//! Each scenario follows the same pattern:
//!
//! * a `*_points` function reports how many sweep points the scenario has at
//!   a given [`Scale`] (sizes come from the central [`runner::scale::Sizes`]
//!   table, nothing is hardcoded per experiment any more);
//! * a `*_point` function runs **one** point — one eviction-set size, one
//!   transmission period, one defense, one gadget — with the pre-derived
//!   seed in its [`PointCtx`];
//! * a `*_assemble` function folds the point outputs, in point order, into
//!   the final output tables.
//!
//! The split is what lets [`runner::execute`] fan the whole grid out across
//! cores while keeping every cell bit-identical at any thread count.

use analysis::table::{fixed, percent, percent2, Table};
use baselines::comparison::{
    classification_table, loads_per_ms_estimate, noise_robustness_comparison, wb_comparison_config,
};
use baselines::lru_channel::LruChannel;
use defenses::evaluate::DIRTY_LINES;
use defenses::{evaluate_defense_majority, Defense, EvaluationConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use runner::scale::Scale;
use runner::scenario::{PointCtx, PointOutput, Scenario};
use runner::Registry;
use sim_cache::hierarchy::HierarchyPreset;
use sim_cache::policy::PolicyKind;
use sim_core::machine::MachineConfig;
use wb_channel::calibration::{access_latency_classes, latency_cdfs, CalibrationConfig};
use wb_channel::capacity::{rate_kbps, PAPER_PERIODS};
use wb_channel::channel::ChannelConfig;
use wb_channel::encoding::SymbolEncoding;
use wb_channel::eviction::{table_ii, table_v};
use wb_channel::protocol::PREAMBLE_BITS;
use wb_channel::session::ChannelSession;
use wb_channel::side_channel::{self, SideChannelConfig};
use wb_channel::stealth::{sender_profile, table_vii_rows, SenderCompanion};
use wb_channel::Error;

/// The master root seed `repro run` defaults to (reproducible runs).
pub const SEED: u64 = 2022;

fn err(error: Error) -> String {
    error.to_string()
}

/// Attaches a channel session's cumulative simulated-work counters — totals
/// plus the per-phase cycle attribution feeding the manifest's phase columns
/// — to a point output (the session-backed scenarios all report them the
/// same way).
fn with_sim_usage(mut output: PointOutput, channel: &ChannelSession) -> PointOutput {
    use sim_core::telemetry::Phase;
    let usage = channel.sim_usage();
    output.sim_cycles = usage.cycles();
    output.sim_accesses = usage.accesses();
    for (phase, cycles) in usage.phase_cycles.iter() {
        output.phase_cycles[phase.index()] = cycles;
    }
    output.phase_cycles[Phase::Calibrate.index()] += channel.calibration_cycles();
    output
}

/// The default machine's channel config for `encoding` at `period` cycles.
fn channel_config(
    encoding: SymbolEncoding,
    period: u64,
    seed: u64,
) -> Result<ChannelConfig, String> {
    ChannelConfig::builder()
        .encoding(encoding)
        .period_cycles(period)
        .seed(seed)
        .build()
        .map_err(err)
}

fn assemble_rows(title: &str, headers: &[&str], outputs: &[PointOutput]) -> Table {
    let mut table = Table::new(title, headers);
    table.extend_rows(outputs.iter().flat_map(|o| o.rows.iter().cloned()));
    table
}

// ---------------------------------------------------------------- Table I

fn one_point(_: Scale) -> usize {
    1
}

fn table1_point(_: &PointCtx) -> Result<PointOutput, String> {
    let rows = classification_table()
        .into_iter()
        .map(|row| {
            vec![
                row.channel,
                row.class,
                row.basis,
                if row.needs_shared_memory { "yes" } else { "no" }.to_owned(),
                if row.needs_clflush { "yes" } else { "no" }.to_owned(),
            ]
        })
        .collect();
    Ok(PointOutput {
        rows,
        ..PointOutput::default()
    })
}

fn table1_assemble(_: Scale, outputs: &[PointOutput]) -> Vec<(String, Table)> {
    vec![(
        "table1".to_owned(),
        assemble_rows(
            "Table I: classification of cache covert channels",
            &["channel", "class", "basis", "shared memory?", "clflush?"],
            outputs,
        ),
    )]
}

/// Table I: the covert-channel classification (baselines comparison).
pub const TABLE1: Scenario = Scenario {
    id: "table1",
    paper_ref: "Table I",
    section: "Sec. II",
    summary: "classification of cache covert channels (baselines comparison)",
    points: one_point,
    run_point: table1_point,
    assemble: table1_assemble,
};

// ---------------------------------------------------------------- Table II

const TABLE2_SIZES: [usize; 3] = [8, 9, 10];

fn table2_points(_: Scale) -> usize {
    TABLE2_SIZES.len()
}

fn table2_point(ctx: &PointCtx) -> Result<PointOutput, String> {
    let n = TABLE2_SIZES[ctx.index];
    let trials = ctx.scale.sizes().trials;
    let rows = table_ii(&PolicyKind::TABLE_II, &[n], trials, ctx.seed).map_err(err)?;
    let cell = |policy: PolicyKind| {
        rows.iter()
            .find(|r| r.policy == policy)
            .map(|r| percent(r.probability))
            .unwrap_or_default()
    };
    Ok(PointOutput::row([
        n.to_string(),
        cell(PolicyKind::TrueLru),
        cell(PolicyKind::TreePlru),
        cell(PolicyKind::IntelLike),
    ]))
}

fn table2_assemble(_: Scale, outputs: &[PointOutput]) -> Vec<(String, Table)> {
    vec![(
        "table2".to_owned(),
        assemble_rows(
            "Table II: probability of line 0 being evicted after N fills",
            &["N", "LRU", "Tree-PLRU", "Intel-like (approx.)"],
            outputs,
        ),
    )]
}

/// Table II: probability of line 0 being evicted after N fills.
pub const TABLE2: Scenario = Scenario {
    id: "table2",
    paper_ref: "Table II",
    section: "Sec. IV-B",
    summary: "eviction-set sizing: P(line 0 evicted) per policy and N",
    points: table2_points,
    run_point: table2_point,
    assemble: table2_assemble,
};

// ---------------------------------------------------------------- Table IV

fn table4_point(ctx: &PointCtx) -> Result<PointOutput, String> {
    let mut config = CalibrationConfig::new(PolicyKind::TreePlru, ctx.seed);
    config.machine = MachineConfig::ideal(PolicyKind::TreePlru, ctx.seed);
    config.samples_per_level = ctx.scale.sizes().samples;
    let classes = access_latency_classes(&config).map_err(err)?;
    Ok(PointOutput {
        rows: vec![
            vec![
                "L1D hit".to_owned(),
                "4-5".to_owned(),
                fixed(classes.l1_hit.mean, 1),
            ],
            vec![
                "L2 hit + replacing a clean line".to_owned(),
                "10-12".to_owned(),
                fixed(classes.l2_hit_clean_victim.mean, 1),
            ],
            vec![
                "L2 hit + replacing a dirty line".to_owned(),
                "22-23".to_owned(),
                fixed(classes.l2_hit_dirty_victim.mean, 1),
            ],
        ],
        ..PointOutput::default()
    })
}

fn table4_assemble(_: Scale, outputs: &[PointOutput]) -> Vec<(String, Table)> {
    vec![(
        "table4".to_owned(),
        assemble_rows(
            "Table IV: latency of cache accesses (cycles)",
            &["access class", "paper", "measured (mean)"],
            outputs,
        ),
    )]
}

/// Table IV: latency of the three cache-access classes.
pub const TABLE4: Scenario = Scenario {
    id: "table4",
    paper_ref: "Table IV",
    section: "Sec. IV-C",
    summary: "access-latency classes: L1 hit vs clean vs dirty victim",
    points: one_point,
    run_point: table4_point,
    assemble: table4_assemble,
};

// ---------------------------------------------------------------- Figure 4

fn fig4_points(_: Scale) -> usize {
    9 // d = 0..=8
}

fn fig4_point(ctx: &PointCtx) -> Result<PointOutput, String> {
    let d = ctx.index;
    let mut config = CalibrationConfig::new(PolicyKind::TreePlru, ctx.seed);
    config.samples_per_level = ctx.scale.sizes().samples;
    let cdfs = latency_cdfs(&config, &[d]).map_err(err)?;
    let (_, cdf) = cdfs
        .into_iter()
        .next()
        .ok_or("latency_cdfs returned no CDF")?;
    let q = |f: f64| cdf.quantile(f).map(|v| fixed(v, 0)).unwrap_or_default();
    let raw = cdf
        .points
        .iter()
        .map(|point| {
            vec![
                d.to_string(),
                format!("{:.0}", point.value),
                format!("{:.4}", point.fraction),
            ]
        })
        .collect();
    Ok(PointOutput {
        rows: vec![vec![d.to_string(), q(0.25), q(0.5), q(0.75), q(0.95)]],
        values: Vec::new(),
        aux: vec![("fig4_cdf_points".to_owned(), raw)],
        ..PointOutput::default()
    })
}

fn fig4_assemble(_: Scale, outputs: &[PointOutput]) -> Vec<(String, Table)> {
    let main = assemble_rows(
        "Figure 4: replacement-set access latency vs dirty-line count",
        &["d", "p25 (cycles)", "median", "p75", "p95"],
        outputs,
    );
    let mut raw = Table::new("Figure 4 raw CDFs", &["d", "latency", "fraction"]);
    for output in outputs {
        for (stem, rows) in &output.aux {
            // The only aux stream fig4 points emit; a second stem would need
            // its own output table, not a silent merge into this one.
            assert_eq!(stem, "fig4_cdf_points", "unexpected aux stem {stem:?}");
            raw.extend_rows(rows.iter().cloned());
        }
    }
    vec![
        ("fig4".to_owned(), main),
        ("fig4_cdf_points".to_owned(), raw),
    ]
}

/// Figure 4: CDF of replacement-set access latency for d = 0..=8.
pub const FIG4: Scenario = Scenario {
    id: "fig4",
    paper_ref: "Figure 4",
    section: "Sec. IV-C",
    summary: "latency CDFs of the replacement sweep per dirty-line count",
    points: fig4_points,
    run_point: fig4_point,
    assemble: fig4_assemble,
};

// ---------------------------------------------------- Figures 5 & 7 (traces)

fn traces_points(_: Scale) -> usize {
    4 // binary d = 1/4/8 plus the two-bit configuration
}

/// Point `ctx.index` of Figures 5 & 7: its table label and channel config.
fn traces_config(ctx: &PointCtx) -> Result<(String, ChannelConfig), String> {
    let (label, encoding, period) = match ctx.index {
        0..=2 => {
            let d = [1, 4, 8][ctx.index];
            let label = format!("Figure 5, binary d={d} @ Ts=5500");
            (label, SymbolEncoding::binary(d).map_err(err)?, 5_500)
        }
        _ => (
            "Figure 7, two-bit symbols (d in {0,3,5,8}) @ Ts=4000".to_owned(),
            SymbolEncoding::paper_two_bit(),
            4_000,
        ),
    };
    Ok((label, channel_config(encoding, period, ctx.seed)?))
}

fn traces_point(ctx: &PointCtx) -> Result<PointOutput, String> {
    let (label, config) = traces_config(ctx)?;
    // One 128-symbol frame: the payload fills what the preamble leaves.
    let payload_bits = 128 * config.encoding.bits_per_symbol() - PREAMBLE_BITS;
    let mut channel = ChannelSession::new(config).map_err(err)?;
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xbeef);
    let payload: Vec<bool> = (0..payload_bits).map(|_| rng.gen()).collect();
    let report = channel.transmit_bits(&payload).map_err(err)?;
    Ok(with_sim_usage(
        PointOutput::row([
            label,
            fixed(report.rate_kbps, 0),
            report.edit_distance.to_string(),
            percent2(report.bit_error_rate()),
        ]),
        &channel,
    ))
}

fn traces_assemble(_: Scale, outputs: &[PointOutput]) -> Vec<(String, Table)> {
    vec![(
        "fig5_fig7".to_owned(),
        assemble_rows(
            "Figures 5 & 7: example transmissions (128-bit frames, first 16 bits fixed)",
            &[
                "configuration",
                "rate (kbps)",
                "edit distance",
                "bit error rate",
            ],
            outputs,
        ),
    )]
}

/// Figures 5 and 7: example received traces at 400 kbps and 1100 kbps.
pub const FIG5_7: Scenario = Scenario {
    id: "fig5-7",
    paper_ref: "Figures 5 & 7",
    section: "Sec. V",
    summary: "example transmissions: binary d=1/4/8 and two-bit symbols",
    points: traces_points,
    run_point: traces_point,
    assemble: traces_assemble,
};

// ---------------------------------------------------------------- Figure 6

fn fig6_points(scale: Scale) -> usize {
    // One point per (d, period) cell plus the two-bit period sweep.
    (scale.sizes().error_rate_dirty_counts.len() + 1) * PAPER_PERIODS.len()
}

/// Point `ctx.index` of Figure 6: its encoding label and channel config.
fn fig6_config(ctx: &PointCtx) -> Result<(String, ChannelConfig), String> {
    let ds = ctx.scale.sizes().error_rate_dirty_counts;
    // Periods are swept slowest-first, as in the paper's Figure 6.
    let period_of = |i: usize| PAPER_PERIODS[PAPER_PERIODS.len() - 1 - i];
    let binary_cells = ds.len() * PAPER_PERIODS.len();
    let (label, encoding, period) = if ctx.index < binary_cells {
        let d = ds[ctx.index / PAPER_PERIODS.len()];
        (
            format!("binary d={d}"),
            SymbolEncoding::binary(d).map_err(err)?,
            period_of(ctx.index % PAPER_PERIODS.len()),
        )
    } else {
        (
            "two-bit {0,3,5,8}".to_owned(),
            SymbolEncoding::paper_two_bit(),
            period_of(ctx.index - binary_cells),
        )
    };
    Ok((label, channel_config(encoding, period, ctx.seed)?))
}

fn fig6_point(ctx: &PointCtx) -> Result<PointOutput, String> {
    let (label, config) = fig6_config(ctx)?;
    let period = config.period_cycles;
    let bits = config.encoding.bits_per_symbol();
    // The two-bit sweep sends half as many frames, each of twice the bits.
    let frames = ctx.scale.sizes().frames;
    let frames = if bits == 1 { frames } else { frames.max(2) / 2 };
    let mut channel = ChannelSession::new(config).map_err(err)?;
    let report = channel.evaluate(frames, 128 * bits).map_err(err)?;
    Ok(with_sim_usage(
        PointOutput::row([
            label,
            period.to_string(),
            fixed(report.rate_kbps, 0),
            percent2(report.mean_bit_error_rate),
        ]),
        &channel,
    ))
}

fn fig6_assemble(_: Scale, outputs: &[PointOutput]) -> Vec<(String, Table)> {
    vec![(
        "fig6".to_owned(),
        assemble_rows(
            "Figure 6: bit error rate vs transmission rate (binary symbols) and the two-bit sweep",
            &["encoding", "Ts=Tr (cycles)", "rate (kbps)", "mean BER"],
            outputs,
        ),
    )]
}

/// Figure 6 + the multi-bit sweep of Section V: BER vs transmission rate.
pub const FIG6: Scenario = Scenario {
    id: "fig6",
    paper_ref: "Figure 6",
    section: "Sec. V",
    summary: "bit error rate across the (dirty count x period) rate grid",
    points: fig6_points,
    run_point: fig6_point,
    assemble: fig6_assemble,
};

// ---------------------------------------------------------------- Table V

const TABLE5_DS: [usize; 2] = [2, 3];
const TABLE5_LS: [usize; 6] = [8, 9, 10, 11, 12, 13];

fn table5_points(_: Scale) -> usize {
    TABLE5_DS.len() * TABLE5_LS.len()
}

fn table5_point(ctx: &PointCtx) -> Result<PointOutput, String> {
    let d = TABLE5_DS[ctx.index / TABLE5_LS.len()];
    let l = TABLE5_LS[ctx.index % TABLE5_LS.len()];
    let trials = ctx.scale.sizes().trials;
    let rows = table_v(&[d], &[l], trials, ctx.seed).map_err(err)?;
    let row = rows.first().ok_or("table_v returned no row")?;
    Ok(PointOutput::row([
        row.dirty_lines.to_string(),
        row.replacement_set_size.to_string(),
        percent(row.measured),
        percent(row.analytic),
    ]))
}

fn table5_assemble(_: Scale, outputs: &[PointOutput]) -> Vec<(String, Table)> {
    vec![(
        "table5".to_owned(),
        assemble_rows(
            "Table V: probability that at least one dirty line is replaced (random replacement)",
            &["d", "L", "measured", "analytic 1-((W-d)/W)^L"],
            outputs,
        ),
    )]
}

/// Table V: dirty-line eviction probability under random replacement.
pub const TABLE5: Scenario = Scenario {
    id: "table5",
    paper_ref: "Table V",
    section: "Sec. VI-A",
    summary: "dirty-eviction probability under random replacement vs analytic",
    points: table5_points,
    run_point: table5_point,
    assemble: table5_assemble,
};

// ---------------------------------------------------------------- Table VI

/// Transmission period of the stealth profiles (Tables VI and VII).
const STEALTH_PERIOD: u64 = 11_000;
/// Spin-loop footprint granted to the LRU-channel sender for parity.
const LRU_SPIN_PER_BIT: f64 = 24.0;

fn table6_points(_: Scale) -> usize {
    2 // point 0: WB sender profile; point 1: LRU-channel sender estimate
}

fn table6_point(ctx: &PointCtx) -> Result<PointOutput, String> {
    let window = ctx.scale.sizes().sender_window;
    if ctx.index == 0 {
        let machine = MachineConfig::xeon_e5_2650(PolicyKind::TreePlru, ctx.seed);
        let wb = sender_profile(
            machine,
            &SymbolEncoding::binary(1).map_err(err)?,
            STEALTH_PERIOD,
            window,
            SenderCompanion::WbReceiver,
            ctx.seed,
        )
        .map_err(err)?;
        let loads = wb.load_profile();
        Ok(PointOutput {
            values: vec![loads.l1_per_ms, loads.l2_per_ms, loads.total_per_ms],
            ..PointOutput::default()
        })
    } else {
        // LRU-channel sender: accesses per bit measured from a baseline run,
        // converted to per-ms at the same Ts (plus the same spin footprint
        // the WB sender was given).
        let mut rng = StdRng::seed_from_u64(ctx.seed);
        let bits: Vec<bool> = (0..256).map(|_| rng.gen()).collect();
        let report = LruChannel::new(ctx.seed)
            .transmit(&bits, None)
            .map_err(err)?;
        let accesses_per_bit = report.sender_accesses as f64 / bits.len() as f64;
        let l1_per_ms = loads_per_ms_estimate(accesses_per_bit + LRU_SPIN_PER_BIT, STEALTH_PERIOD);
        Ok(PointOutput {
            values: vec![l1_per_ms],
            ..PointOutput::default()
        })
    }
}

fn table6_assemble(_: Scale, outputs: &[PointOutput]) -> Vec<(String, Table)> {
    let mut table = Table::new(
        "Table VI: sender cache loads per millisecond (Ts = 11000)",
        &["level", "WB sender", "LRU-channel sender"],
    );
    let (Some(wb), Some(lru)) = (outputs.first(), outputs.get(1)) else {
        return vec![("table6".to_owned(), table)];
    };
    let (wb_l1, wb_l2, wb_total) = (wb.values[0], wb.values[1], wb.values[2]);
    let lru_l1 = lru.values[0];
    table.push_row(["L1".to_owned(), fixed(wb_l1, 1), fixed(lru_l1, 1)]);
    table.push_row(["L2".to_owned(), fixed(wb_l2, 1), fixed(lru_l1 * 0.01, 1)]);
    table.push_row([
        "Total".to_owned(),
        fixed(wb_total, 1),
        fixed(lru_l1 * 1.01, 1),
    ]);
    table.push_row([
        "WB / LRU ratio (paper: 59.8%)".to_owned(),
        percent(wb_total / (lru_l1 * 1.01)),
        "100%".to_owned(),
    ]);
    vec![("table6".to_owned(), table)]
}

/// Table VI: sender cache loads per millisecond, WB vs LRU channel.
pub const TABLE6: Scenario = Scenario {
    id: "table6",
    paper_ref: "Table VI",
    section: "Sec. VII",
    summary: "stealth: sender load footprint, WB channel vs LRU channel",
    points: table6_points,
    run_point: table6_point,
    assemble: table6_assemble,
};

// ---------------------------------------------------------------- Table VII

fn table7_points(_: Scale) -> usize {
    2 // one point per encoding (binary, multi-bit)
}

fn table7_point(ctx: &PointCtx) -> Result<PointOutput, String> {
    let (label, encoding) = match ctx.index {
        0 => ("binary", SymbolEncoding::binary(1).map_err(err)?),
        _ => ("multi-bit", SymbolEncoding::paper_two_bit()),
    };
    let window = ctx.scale.sizes().sender_window;
    let machine = MachineConfig::xeon_e5_2650(PolicyKind::TreePlru, ctx.seed);
    let rows = table_vii_rows(machine, &encoding, STEALTH_PERIOD, window, ctx.seed).map_err(err)?;
    let rows = rows
        .into_iter()
        .map(|(companion, rates)| {
            let companion_label = match companion {
                SenderCompanion::WbReceiver => "WB channel",
                SenderCompanion::CompilerWorkload => "sender & g++",
                SenderCompanion::None => "sender only",
            };
            vec![
                label.to_owned(),
                companion_label.to_owned(),
                percent2(rates.l1d),
                percent2(rates.l2),
                percent2(rates.llc),
            ]
        })
        .collect();
    Ok(PointOutput {
        rows,
        ..PointOutput::default()
    })
}

fn table7_assemble(_: Scale, outputs: &[PointOutput]) -> Vec<(String, Table)> {
    vec![(
        "table7".to_owned(),
        assemble_rows(
            "Table VII: cache miss rates of the sender process",
            &["encoding", "companion", "L1D", "L2", "LLC"],
            outputs,
        ),
    )]
}

/// Table VII: sender cache miss rates (binary and multi-bit encodings).
pub const TABLE7: Scenario = Scenario {
    id: "table7",
    paper_ref: "Table VII",
    section: "Sec. VII",
    summary: "stealth: sender miss rates per encoding and companion",
    points: table7_points,
    run_point: table7_point,
    assemble: table7_assemble,
};

// ---------------------------------------------------------------- Figure 8

fn fig8_point(ctx: &PointCtx) -> Result<PointOutput, String> {
    let bits = ctx.scale.sizes().comparison_bits;
    let rows = noise_robustness_comparison(bits, ctx.seed)
        .map_err(err)?
        .into_iter()
        .map(|row| {
            vec![
                row.channel,
                percent2(row.ber_clean),
                percent2(row.ber_noisy),
            ]
        })
        .collect();
    Ok(PointOutput {
        rows,
        ..PointOutput::default()
    })
}

/// The WB channel's two Figure 8 configs, clean and noisy, as
/// [`noise_robustness_comparison`] transmits them.
fn fig8_configs(ctx: &PointCtx) -> Result<Vec<(String, ChannelConfig)>, String> {
    let config = |noisy| wb_comparison_config(noisy, ctx.seed).map_err(err);
    Ok(vec![
        ("WB clean".to_owned(), config(false)?),
        ("WB noisy".to_owned(), config(true)?),
    ])
}

fn fig8_assemble(_: Scale, outputs: &[PointOutput]) -> Vec<(String, Table)> {
    vec![(
        "fig8".to_owned(),
        assemble_rows(
            "Figure 8: effect of a noisy cache line on LRU, Prime+Probe and WB channels",
            &[
                "channel",
                "BER without noise",
                "BER with one noisy line/period",
            ],
            outputs,
        ),
    )]
}

/// Figure 8: noise robustness of the LRU channel, Prime+Probe and the WB
/// channel.
pub const FIG8: Scenario = Scenario {
    id: "fig8",
    paper_ref: "Figure 8",
    section: "Sec. VI",
    summary: "noise robustness: WB channel vs LRU and Prime+Probe baselines",
    points: one_point,
    run_point: fig8_point,
    assemble: fig8_assemble,
};

// ---------------------------------------------------------------- bandwidth

const BANDWIDTH_POINTS: [(usize, u64); 3] = [
    // (binary dirty count, period); 0 encodes the two-bit configuration.
    (1, 1_600),
    (8, 800),
    (0, 1_000),
];

fn bandwidth_points(_: Scale) -> usize {
    BANDWIDTH_POINTS.len()
}

/// Point `ctx.index` of the bandwidth summary: its encoding label and
/// channel config.
fn bandwidth_config(ctx: &PointCtx) -> Result<(String, ChannelConfig), String> {
    let (d, period) = BANDWIDTH_POINTS[ctx.index];
    let encoding = if d == 0 {
        SymbolEncoding::paper_two_bit()
    } else {
        SymbolEncoding::binary(d).map_err(err)?
    };
    let label = encoding.to_string();
    Ok((label, channel_config(encoding, period, ctx.seed)?))
}

fn bandwidth_point(ctx: &PointCtx) -> Result<PointOutput, String> {
    let (label, config) = bandwidth_config(ctx)?;
    let period = config.period_cycles;
    let bits = config.encoding.bits_per_symbol();
    let mut channel = ChannelSession::new(config).map_err(err)?;
    let report = channel
        .evaluate(ctx.scale.sizes().frames, 128 * bits)
        .map_err(err)?;
    Ok(with_sim_usage(
        PointOutput::row([
            label,
            period.to_string(),
            fixed(rate_kbps(bits, period), 0),
            percent2(report.mean_bit_error_rate),
            if report.mean_bit_error_rate < 0.05 {
                "yes"
            } else {
                "no"
            }
            .to_owned(),
        ]),
        &channel,
    ))
}

fn bandwidth_assemble(_: Scale, outputs: &[PointOutput]) -> Vec<(String, Table)> {
    vec![(
        "bandwidth".to_owned(),
        assemble_rows(
            "Peak-bandwidth summary (abstract: 1300-4400 kbps with low BER)",
            &[
                "encoding",
                "Ts (cycles)",
                "rate (kbps)",
                "mean BER",
                "usable (<5% BER)?",
            ],
            outputs,
        ),
    )]
}

/// The headline bandwidth summary quoted in the abstract (1300–4400 kbps).
pub const BANDWIDTH: Scenario = Scenario {
    id: "bandwidth",
    paper_ref: "Abstract",
    section: "Sec. V",
    summary: "peak-bandwidth summary at the paper's headline rates",
    points: bandwidth_points,
    run_point: bandwidth_point,
    assemble: bandwidth_assemble,
};

// ---------------------------------------------------------------- defenses

fn defenses_points(_: Scale) -> usize {
    Defense::ALL.len()
}

fn defenses_point(ctx: &PointCtx) -> Result<PointOutput, String> {
    let defense = Defense::ALL[ctx.index];
    let config = EvaluationConfig {
        samples: ctx.scale.sizes().defense_samples,
        seed: ctx.seed,
    };
    // Majority verdict over derived seeds: single-seed verdicts are
    // borderline for random replacement at L = 10 by design (Sec. VI-A),
    // which used to force a pinned calibration seed on this scenario.
    let row = evaluate_defense_majority(defense, &config).map_err(err)?;
    Ok(PointOutput::row([
        row.label,
        fixed(row.mean_clean, 1),
        fixed(row.mean_dirty, 1),
        percent(row.accuracy),
        if row.mitigated { "yes" } else { "no" }.to_owned(),
        row.paper_expectation,
    ]))
}

fn defenses_assemble(_: Scale, outputs: &[PointOutput]) -> Vec<(String, Table)> {
    vec![(
        "defenses".to_owned(),
        assemble_rows(
            &format!(
                "Section VIII: defense evaluation (receiver accuracy distinguishing d=0 from d={DIRTY_LINES})"
            ),
            &[
                "defense",
                "mean clean (cy)",
                "mean dirty (cy)",
                "accuracy",
                "mitigated?",
                "paper expectation",
            ],
            outputs,
        ),
    )]
}

/// Section VIII: defense evaluation.
pub const DEFENSES: Scenario = Scenario {
    id: "defenses",
    paper_ref: "Sec. VIII",
    section: "Sec. VIII",
    summary: "defense ablations with a derived-seed majority verdict",
    points: defenses_points,
    run_point: defenses_point,
    assemble: defenses_assemble,
};

// ------------------------------------------------------------- side channel

fn sidechannel_points(_: Scale) -> usize {
    side_channel::Scenario::ALL.len()
}

fn sidechannel_point(ctx: &PointCtx) -> Result<PointOutput, String> {
    let gadget = side_channel::Scenario::ALL[ctx.index];
    let config = SideChannelConfig {
        trials: ctx.scale.sizes().side_channel_trials,
        seed: ctx.seed,
        ..SideChannelConfig::default()
    };
    let row = side_channel::run_scenario(&config, gadget).map_err(err)?;
    Ok(PointOutput::row([
        row.scenario.label().to_owned(),
        row.trials.to_string(),
        percent(row.accuracy),
    ]))
}

fn sidechannel_assemble(_: Scale, outputs: &[PointOutput]) -> Vec<(String, Table)> {
    vec![(
        "sidechannel".to_owned(),
        assemble_rows(
            "Section IX: secret-recovery accuracy of the three side-channel scenarios",
            &["scenario", "trials", "accuracy"],
            outputs,
        ),
    )]
}

/// Section IX: side-channel gadget attacks.
pub const SIDECHANNEL: Scenario = Scenario {
    id: "sidechannel",
    paper_ref: "Sec. IX",
    section: "Sec. IX",
    summary: "secret recovery through the three dirty-state gadgets",
    points: sidechannel_points,
    run_point: sidechannel_point,
    assemble: sidechannel_assemble,
};

// --------------------------------------------------------- hierarchy matrix

/// L1 replacement policies swept by the hierarchy matrix (the policies the
/// paper discusses for commercial parts, Sec. VI-A).
pub const MATRIX_POLICIES: [PolicyKind; 5] = [
    PolicyKind::TreePlru,
    PolicyKind::Srrip,
    PolicyKind::Nru,
    PolicyKind::Random,
    PolicyKind::IntelLike,
];

/// LLC associativities swept by the hierarchy matrix (16 is the paper's
/// scaled LLC; 8 halves the ways at the same capacity).
pub const MATRIX_LLC_ASSOC: [usize; 2] = [16, 8];

/// Decomposes a matrix point index into `(preset, llc_ways, l1_policy)`.
///
/// Policy varies fastest, then associativity, then preset — the same order
/// the assembled grid lists its rows in.
pub fn matrix_axes(index: usize) -> (HierarchyPreset, usize, PolicyKind) {
    let policy = MATRIX_POLICIES[index % MATRIX_POLICIES.len()];
    let rest = index / MATRIX_POLICIES.len();
    let assoc = MATRIX_LLC_ASSOC[rest % MATRIX_LLC_ASSOC.len()];
    let preset = HierarchyPreset::ALL[rest / MATRIX_LLC_ASSOC.len()];
    (preset, assoc, policy)
}

fn hierarchy_matrix_points(_: Scale) -> usize {
    HierarchyPreset::ALL.len() * MATRIX_LLC_ASSOC.len() * MATRIX_POLICIES.len()
}

/// Point `ctx.index` of the hierarchy matrix: its `preset/llcN/policy`
/// label and channel config.
fn hierarchy_matrix_config(ctx: &PointCtx) -> Result<(String, ChannelConfig), String> {
    let (preset, llc_ways, policy) = matrix_axes(ctx.index);
    let hierarchy = preset
        .config(policy, llc_ways, ctx.seed)
        .map_err(|e| e.to_string())?;
    // The grid isolates the *mechanism* across hierarchy shapes, so it runs
    // on the quiet machine (no OS interrupts, ideal rdtscp) — BER here is
    // pure cache behaviour, the Table IV analogue per preset.
    let config = ChannelConfig::builder()
        .encoding(SymbolEncoding::binary(1).map_err(err)?)
        .period_cycles(5_500)
        .interrupts(sim_core::sched::InterruptConfig::none())
        .tsc(sim_core::tsc::TscConfig::ideal())
        .hierarchy(hierarchy)
        .seed(ctx.seed)
        .build()
        .map_err(err)?;
    let label = format!("{}/llc{llc_ways}/{}", preset.label(), policy.label());
    Ok((label, config))
}

fn hierarchy_matrix_point(ctx: &PointCtx) -> Result<PointOutput, String> {
    let (preset, llc_ways, policy) = matrix_axes(ctx.index);
    let (_, config) = hierarchy_matrix_config(ctx)?;
    let rate = rate_kbps(1, config.period_cycles);
    let mut channel = ChannelSession::new(config).map_err(err)?;
    let report = channel
        .evaluate(ctx.scale.sizes().frames, 128)
        .map_err(err)?;
    let ber = report.mean_bit_error_rate;
    let mut output = PointOutput::row([
        preset.label().to_owned(),
        format!("{:?}", preset.inclusion()).to_lowercase(),
        llc_ways.to_string(),
        policy.label().to_owned(),
        fixed(rate, 0),
        percent2(ber),
        if ber == 0.0 { "yes" } else { "no" }.to_owned(),
    ]);
    output.values = vec![ber];
    Ok(with_sim_usage(output, &channel))
}

fn hierarchy_matrix_assemble(_: Scale, outputs: &[PointOutput]) -> Vec<(String, Table)> {
    vec![(
        "hierarchy_matrix".to_owned(),
        assemble_rows(
            "Hierarchy-diversity matrix: quiet-machine BER per preset x LLC ways x L1 policy",
            &[
                "preset",
                "inclusion",
                "LLC ways",
                "L1 policy",
                "rate (kbps)",
                "mean BER",
                "BER == 0?",
            ],
            outputs,
        ),
    )]
}

/// The commercial-processor hierarchy sweep: a Table-4-style BER grid per
/// preset, proving where the dirty-state signal survives.
pub const HIERARCHY_MATRIX: Scenario = Scenario {
    id: "hierarchy-matrix",
    paper_ref: "Table IV",
    section: "Sec. IV",
    summary: "quiet-machine BER grid across inclusion/latency presets and L1 policies",
    points: hierarchy_matrix_points,
    run_point: hierarchy_matrix_point,
    assemble: hierarchy_matrix_assemble,
};

// ---------------------------------------------------------------- registry

/// The labelled channel configs point `ctx.index` of scenario `id` transmits
/// with, or `None` for a scenario that never opens a [`ChannelSession`].
///
/// `repro check` and `repro trace` read scenario points through this one
/// lookup, so they compile and trace exactly what `repro run` sends.
pub(crate) fn channel_configs(
    id: &str,
    ctx: &PointCtx,
) -> Option<Result<Vec<(String, ChannelConfig)>, String>> {
    let one = |config: fn(&PointCtx) -> Result<(String, ChannelConfig), String>| {
        config(ctx).map(|point| vec![point])
    };
    Some(match id {
        "fig5-7" => one(traces_config),
        "fig6" => one(fig6_config),
        "fig8" => fig8_configs(ctx),
        "bandwidth" => one(bandwidth_config),
        "hierarchy-matrix" => one(hierarchy_matrix_config),
        _ => return None,
    })
}

/// All scenarios, in the paper's narrative order.
pub const ALL_SCENARIOS: [Scenario; 14] = [
    TABLE1,
    TABLE2,
    TABLE4,
    FIG4,
    FIG5_7,
    FIG6,
    TABLE5,
    TABLE6,
    TABLE7,
    FIG8,
    BANDWIDTH,
    DEFENSES,
    SIDECHANNEL,
    HIERARCHY_MATRIX,
];

/// Builds the registry of every experiment in the evaluation.
pub fn registry() -> Registry {
    let mut registry = Registry::new();
    for scenario in ALL_SCENARIOS {
        registry.register(scenario);
    }
    registry
}
