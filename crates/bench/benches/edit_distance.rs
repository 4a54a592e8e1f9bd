//! Criterion bench: Wagner-Fischer edit distance on frame-sized bit
//! sequences — the post-processing cost of the paper's error metric.
//!
//! `scored_breakdown` rows score one 128-bit frame in each of the channel's
//! error regimes, so that both passes of its banded program are timed: clean
//! and noisy frames fit the first band, heavy and near-random frames take the
//! second pass.

// `criterion_group!` expands to undocumented public glue; benches are
// not documented API.
#![allow(missing_docs)]

use analysis::edit_distance::{edit_distance, scored_breakdown};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bit_pattern(len: usize, seed: u64) -> Vec<bool> {
    (0..len)
        .map(|i| (i as u64).wrapping_mul(seed) % 7 < 3)
        .collect()
}

/// A deterministic stream of pseudo-random words (SplitMix64).
fn words(seed: u64) -> impl Iterator<Item = u64> {
    let mut state = seed;
    std::iter::repeat_with(move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    })
}

fn random_bits(len: usize, seed: u64) -> Vec<bool> {
    words(seed).take(len).map(|w| w >> 63 == 1).collect()
}

/// `sent` after `edits` channel errors at pseudo-random positions, cycling
/// through a flip, an insertion and a loss.
fn with_edits(sent: &[bool], edits: usize, seed: u64) -> Vec<bool> {
    let mut received = sent.to_vec();
    for (edit, word) in words(seed).take(edits).enumerate() {
        let at = (word % received.len() as u64) as usize;
        match edit % 3 {
            0 => received[at] = !received[at],
            1 => received.insert(at, word & 1 == 1),
            _ => {
                received.remove(at);
            }
        }
    }
    received
}

fn bench_edit_distance(c: &mut Criterion) {
    let mut group = c.benchmark_group("edit_distance");
    group.sample_size(30);
    for len in [128usize, 256, 1024] {
        let sent = bit_pattern(len, 11);
        let mut received = sent.clone();
        for i in (0..len).step_by(17) {
            received[i] = !received[i];
        }
        received.truncate(len - len / 50 - 1);
        group.bench_with_input(BenchmarkId::new("distance", len), &len, |b, _| {
            b.iter(|| black_box(edit_distance(&sent, &received)));
        });
    }
    group.finish();
}

fn bench_scored_breakdown(c: &mut Criterion) {
    let mut group = c.benchmark_group("scored_breakdown");
    group.sample_size(30);
    let sent = random_bits(128, 1);
    // Edit counts near the channel's mean edit distances: clean frames
    // (~2.4), noisy frames (~11) and heavy ones (~28); near-random frames
    // share nothing with the sent frame (distance ~40).
    let regimes = [
        ("clean", with_edits(&sent, 2, 2)),
        ("noisy", with_edits(&sent, 11, 3)),
        ("heavy", with_edits(&sent, 28, 4)),
        ("near-random", random_bits(128, 5)),
    ];
    for (regime, received) in &regimes {
        group.bench_with_input(BenchmarkId::new(*regime, 128), received, |b, received| {
            b.iter(|| black_box(scored_breakdown(&sent, received)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_edit_distance, bench_scored_breakdown);
criterion_main!(benches);
