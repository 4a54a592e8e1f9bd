//! Integration tests spanning the defenses, baselines and WB-channel crates.

use dirty_cache_repro::baselines::{classification_table, LruChannel, NoiseSpec, PrimeProbe};
use dirty_cache_repro::defenses::{evaluate_defense_majority, Defense, EvaluationConfig};

#[test]
fn defenses_match_the_papers_verdicts_end_to_end() {
    let config = EvaluationConfig {
        samples: 60,
        ..EvaluationConfig::default()
    };
    // The channel works undefended, survives random replacement and
    // Prefetch-guard, and dies under write-through and partitioning.
    //
    // Verdicts are derived-seed majorities (`evaluate_defense_majority`), and
    // the evaluation models the paper's adaptive attacker — against
    // pseudo-random replacement the receiver enlarges its replacement set to
    // the Sec. VI-A operating point (L = 12) on its own, so no per-case
    // configuration tweaks are needed any more.
    let cases = [
        (Defense::None, false),
        (Defense::RandomReplacement, false),
        (Defense::PrefetchGuard { degree: 2 }, false),
        (Defense::WriteThroughL1, true),
        (Defense::NoMoPartitioning, true),
        (Defense::PlCacheLocking, true),
    ];
    for (defense, expect_mitigated) in cases {
        let result = evaluate_defense_majority(defense, &config).unwrap();
        assert_eq!(
            result.mitigated, expect_mitigated,
            "{}: accuracy {}",
            result.label, result.accuracy
        );
    }
}

#[test]
fn every_baseline_channel_transmits_and_respects_its_requirements() {
    let bits: Vec<bool> = (0..64).map(|i| i % 3 != 0).collect();
    let reports = [
        PrimeProbe::new(4).transmit(&bits, None).unwrap(),
        LruChannel::new(5).transmit(&bits, None).unwrap(),
    ];
    for report in reports {
        assert!(
            report.bit_error_rate < 0.15,
            "{} BER {}",
            report.channel,
            report.bit_error_rate
        );
    }
    let table = classification_table();
    // The WB channel is the only Miss+Miss entry and needs no shared memory.
    let wb = table.iter().find(|r| r.class == "Miss+Miss").unwrap();
    assert!(wb.channel.contains("WB"));
    assert!(!wb.needs_shared_memory && !wb.needs_clflush);
}

#[test]
fn noise_hurts_the_lru_channel_far_more_than_prime_probe_is_hurt_by_policy() {
    let bits: Vec<bool> = (0..64).map(|i| i % 2 == 0).collect();
    let clean = LruChannel::new(9).transmit(&bits, None).unwrap();
    let noisy = LruChannel::new(9)
        .transmit(&bits, Some(NoiseSpec::every_period()))
        .unwrap();
    assert!(noisy.bit_error_rate > clean.bit_error_rate);
    assert!(noisy.bit_error_rate > 0.15);
}
