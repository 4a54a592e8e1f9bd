//! The lane transmit path's equivalence contract: a `k`-lane
//! [`LaneChannelSession`] is bit-identical, lane by lane, to `k` serial
//! [`ChannelSession`]s fed the same frames in the same order.

use wb_channel::channel::{ChannelConfig, NoiseConfig};
use wb_channel::encoding::SymbolEncoding;
use wb_channel::lanes::{lane_compatible, LaneChannelSession};
use wb_channel::protocol::{Frame, PREAMBLE_BITS};
use wb_channel::session::ChannelSession;
use wb_channel::Error;

fn config(seed: u64, period: u64) -> ChannelConfig {
    ChannelConfig::builder()
        .encoding(SymbolEncoding::binary(2).unwrap())
        .period_cycles(period)
        .calibration_samples(40)
        .seed(seed)
        .build()
        .unwrap()
}

/// Seed-varied lanes (the common sweep shape: same config, different seeds).
#[test]
fn lanes_match_serial_sessions_frame_by_frame() {
    let configs: Vec<ChannelConfig> = (20..24).map(|seed| config(seed, 5_500)).collect();
    let payload: Vec<bool> = (0..48).map(|i| (i * 7) % 5 < 2).collect();

    let mut lanes = LaneChannelSession::new(&configs).unwrap();
    assert_eq!(lanes.lane_count(), configs.len());
    let mut serial: Vec<ChannelSession> = configs
        .iter()
        .map(|c| ChannelSession::new(c.clone()).unwrap())
        .collect();

    for (lane, session) in serial.iter().enumerate() {
        assert_eq!(
            lanes.decoder(lane),
            session.decoder(),
            "calibration diverged on lane {lane}"
        );
    }

    for _round in 0..2 {
        let frames: Vec<Frame> = (0..configs.len())
            .map(|_| Frame::from_payload(&payload))
            .collect();
        let batched = lanes.transmit_frames(&frames).unwrap();
        for (lane, session) in serial.iter_mut().enumerate() {
            let expected = session.transmit_frame(&frames[lane]).unwrap();
            assert_eq!(batched[lane], expected, "report diverged on lane {lane}");
        }
    }
    for (lane, session) in serial.iter().enumerate() {
        assert_eq!(
            lanes.sim_usage(lane),
            session.sim_usage(),
            "sim usage diverged on lane {lane}"
        );
    }
}

/// Config-varied lanes: different periods and a noisy lane still batch
/// correctly (run-time divergence is handled by the live mask), as long as
/// every lane remains an independent machine.
#[test]
fn heterogeneous_lane_configs_still_match_serial() {
    let mut noisy = config(31, 6_500);
    noisy.noise = Some(NoiseConfig {
        interval: 1_500,
        lines: 2,
        store_fraction: 0.4,
    });
    let configs = vec![config(30, 5_500), noisy];
    let payload: Vec<bool> = (0..32).map(|i| i % 3 == 0).collect();

    let mut lanes = LaneChannelSession::new(&configs).unwrap();
    let frames: Vec<Frame> = (0..configs.len())
        .map(|_| Frame::from_payload(&payload))
        .collect();
    let batched = lanes.transmit_frames(&frames).unwrap();
    for (lane, cfg) in configs.iter().enumerate() {
        let mut session = ChannelSession::new(cfg.clone()).unwrap();
        let expected = session.transmit_frame(&frames[lane]).unwrap();
        assert_eq!(batched[lane], expected, "report diverged on lane {lane}");
    }
}

/// The batched `evaluate` draws each lane's payload stream exactly like the
/// serial session, so evaluation reports agree byte for byte.
#[test]
fn batched_evaluate_matches_serial_evaluate() {
    let configs: Vec<ChannelConfig> = (40..42).map(|seed| config(seed, 5_500)).collect();
    let mut lanes = LaneChannelSession::new(&configs).unwrap();
    let batched = lanes.evaluate(2, 24).unwrap();
    for (lane, cfg) in configs.iter().enumerate() {
        let mut session = ChannelSession::new(cfg.clone()).unwrap();
        let expected = session.evaluate(2, 24).unwrap();
        assert_eq!(
            batched[lane], expected,
            "evaluation diverged on lane {lane}"
        );
    }
}

/// A frame width shorter than the preamble is an error on any lane, returned
/// before a frame is sent.
#[test]
fn batched_evaluate_rejects_frames_shorter_than_the_preamble() {
    let configs: Vec<ChannelConfig> = (44..46).map(|seed| config(seed, 5_500)).collect();
    let mut lanes = LaneChannelSession::new(&configs).unwrap();
    for widths in [[8, 8], [24, PREAMBLE_BITS - 1]] {
        let error = lanes.evaluate_lanes(2, &widths).unwrap_err();
        assert!(
            matches!(
                error,
                Error::InvalidConfig {
                    field: "bits_per_frame",
                    ..
                }
            ),
            "{error}"
        );
    }
    assert!(lanes.evaluate(1, 0).is_err());
}

/// Seed-varied sweep points compile to lane-compatible shapes; changing the
/// symbol count (payload width) breaks the shape, and the static check says
/// so before any batch runs.
#[test]
fn lane_compatibility_gates_config_groups() {
    let payload: Vec<bool> = (0..32).map(|i| i % 2 == 0).collect();
    let group: Vec<ChannelConfig> = (50..54).map(|seed| config(seed, 5_500)).collect();
    assert_eq!(lane_compatible(&group, &payload), Vec::new());

    // A different encoding compiles a different number of symbol bursts.
    let mut odd = config(55, 5_500);
    odd.encoding = SymbolEncoding::paper_two_bit();
    let mixed = vec![config(54, 5_500), odd];
    let diags = lane_compatible(&mixed, &payload);
    assert!(
        diags.iter().any(|d| d.rule == "lane-shape"),
        "expected a lane-shape finding, got {diags:?}"
    );
}
