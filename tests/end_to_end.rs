//! Cross-crate integration tests: the full pipeline from the cache simulator
//! through the WB channel to the analysis layer, exercised the way the paper's
//! evaluation uses it.

use dirty_cache_repro::sim_cache::policy::PolicyKind;
use dirty_cache_repro::sim_core::machine::MachineConfig;
use dirty_cache_repro::sim_core::sched::InterruptConfig;
use dirty_cache_repro::sim_core::tsc::TscConfig;
use dirty_cache_repro::wb_channel::calibration::{access_latency_classes, CalibrationConfig};
use dirty_cache_repro::wb_channel::channel::{ChannelConfig, NoiseConfig};
use dirty_cache_repro::wb_channel::encoding::SymbolEncoding;
use dirty_cache_repro::wb_channel::eviction::{analytic_dirty_eviction_probability, table_ii};
use dirty_cache_repro::wb_channel::session::ChannelSession;

#[test]
fn covert_channel_delivers_a_byte_string_exactly_on_a_quiet_machine() {
    let config = ChannelConfig::builder()
        .encoding(SymbolEncoding::binary(2).unwrap())
        .period_cycles(5_500)
        .interrupts(InterruptConfig::none())
        .tsc(TscConfig::ideal())
        .calibration_samples(60)
        .seed(101)
        .build()
        .unwrap();
    let mut channel = ChannelSession::new(config).unwrap();
    let payload = analysis::edit_distance::bytes_to_bits(b"HPCA-2022");
    let report = channel.transmit_bits(&payload).unwrap();
    assert_eq!(report.edit_distance, 0, "latencies: {:?}", report.latencies);
    let recovered: Vec<bool> = report
        .received_bits
        .iter()
        .skip(16)
        .copied()
        .take(payload.len())
        .collect();
    assert_eq!(
        analysis::edit_distance::bits_to_bytes(&recovered),
        b"HPCA-2022"
    );
}

#[test]
fn realistic_machine_reaches_paper_bandwidths_with_low_error() {
    // 1375 kbps (Ts = 1600) with binary symbols must stay below 5% BER, as in
    // Figure 6 of the paper.
    let config = ChannelConfig::builder()
        .encoding(SymbolEncoding::binary(4).unwrap())
        .period_cycles(1_600)
        .seed(77)
        .build()
        .unwrap();
    let mut channel = ChannelSession::new(config).unwrap();
    let report = channel.evaluate(5, 128).unwrap();
    assert!((report.rate_kbps - 1_375.0).abs() < 1.0);
    assert!(
        report.mean_bit_error_rate < 0.05,
        "BER {} at 1375 kbps exceeds the paper's 5% bound",
        report.mean_bit_error_rate
    );
}

#[test]
fn multi_bit_encoding_reaches_4400_kbps() {
    let config = ChannelConfig::builder()
        .encoding(SymbolEncoding::paper_two_bit())
        .period_cycles(1_000)
        .seed(78)
        .build()
        .unwrap();
    let mut channel = ChannelSession::new(config).unwrap();
    let report = channel.evaluate(4, 256).unwrap();
    assert!((report.rate_kbps - 4_400.0).abs() < 1.0);
    assert!(
        report.mean_bit_error_rate < 0.12,
        "two-bit BER {} too high at 4400 kbps",
        report.mean_bit_error_rate
    );
}

#[test]
fn noisy_cache_lines_do_not_break_the_wb_channel_end_to_end() {
    let mut builder = ChannelConfig::builder();
    builder
        .encoding(SymbolEncoding::binary(1).unwrap())
        .period_cycles(5_500)
        .noise(NoiseConfig::single_clean_line(2_000))
        .seed(79);
    let mut channel = ChannelSession::new(builder.build().unwrap()).unwrap();
    let report = channel.evaluate(3, 128).unwrap();
    assert!(
        report.mean_bit_error_rate < 0.1,
        "WB channel should shrug off clean noise lines, BER {}",
        report.mean_bit_error_rate
    );
}

#[test]
fn table_ii_and_table_iv_reproduce_the_papers_shape() {
    // Table II: LRU needs 8, Tree-PLRU 9, Intel-like 10 fills for certainty.
    let rows = table_ii(&PolicyKind::TABLE_II, &[8, 9, 10], 300, 5).unwrap();
    let get = |policy: PolicyKind, n: usize| {
        rows.iter()
            .find(|r| r.policy == policy && r.replacement_set_size == n)
            .unwrap()
            .probability
    };
    assert_eq!(get(PolicyKind::TrueLru, 8), 1.0);
    // Tree-PLRU: 8 fills are not guaranteed in general (gem5 measures 94.3%);
    // from the warm states this experiment produces they mostly succeed, and
    // 9 fills are always enough.
    assert!(get(PolicyKind::TreePlru, 8) >= 0.9);
    assert_eq!(get(PolicyKind::TreePlru, 9), 1.0);
    assert!(get(PolicyKind::IntelLike, 8) < 1.0);
    assert!(get(PolicyKind::IntelLike, 8) <= get(PolicyKind::IntelLike, 9) + 1e-9);
    assert_eq!(get(PolicyKind::IntelLike, 10), 1.0);

    // Table IV: the three latency classes.
    let mut config = CalibrationConfig::new(PolicyKind::TreePlru, 5);
    config.machine = MachineConfig::ideal(PolicyKind::TreePlru, 5);
    config.samples_per_level = 50;
    let classes = access_latency_classes(&config).unwrap();
    assert!(classes.l1_hit.mean < classes.l2_hit_clean_victim.mean);
    assert!(classes.l2_hit_dirty_victim.mean > classes.l2_hit_clean_victim.mean + 8.0);

    // Table V analytic check quoted in Sec. VI-A.
    assert!((analytic_dirty_eviction_probability(8, 3, 10) - 0.991).abs() < 0.002);
}
