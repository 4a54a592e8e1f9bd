//! Root smoke test: the exact quiet-machine contract the `wb_channel`
//! crate-level doctest promises (error-free transmission with interrupts
//! disabled and an ideal TSC) must hold through the meta-crate re-exports.
//!
//! If this test starts failing, the quickstart doctest in
//! `crates/core/src/lib.rs` is broken too — fix the channel, not the test.

use dirty_cache_repro::sim_core::sched::InterruptConfig;
use dirty_cache_repro::sim_core::tsc::TscConfig;
use dirty_cache_repro::wb_channel::{ChannelConfig, ChannelSession, SymbolEncoding};

fn quiet_channel(seed: u64) -> ChannelSession {
    let config = ChannelConfig::builder()
        .encoding(SymbolEncoding::binary(1).expect("binary(1) is a valid encoding"))
        .period_cycles(5_500) // 400 kbps at the paper's 2.2 GHz clock.
        .interrupts(InterruptConfig::none())
        .tsc(TscConfig::ideal())
        .calibration_samples(40)
        .seed(seed)
        .build()
        .expect("quiet-machine config is valid");
    ChannelSession::new(config).expect("session construction succeeds")
}

#[test]
fn quiet_machine_transmits_error_free() {
    let mut channel = quiet_channel(7);
    let secret = [true, false, true, true, false, false, true, false];
    let report = channel
        .transmit_bits(&secret)
        .expect("transmission succeeds");
    assert_eq!(
        report.bit_error_rate(),
        0.0,
        "doctest contract: a quiet machine decodes every bit (edit distance {})",
        report.edit_distance
    );
}

#[test]
fn quiet_machine_is_deterministic_across_seeds() {
    // Error-free decoding must not depend on one lucky seed.
    for seed in [1, 7, 42, 1234] {
        let mut channel = quiet_channel(seed);
        let secret: Vec<bool> = (0..32).map(|i| i % 5 == 0 || i % 3 == 1).collect();
        let report = channel
            .transmit_bits(&secret)
            .expect("transmission succeeds");
        assert_eq!(
            report.bit_error_rate(),
            0.0,
            "seed {seed}: edit distance {}",
            report.edit_distance
        );
    }
}
