//! Golden outcome digests: the refactor contract for the demand path.
//!
//! `golden_outcomes.txt` next to this file holds one line per hierarchy
//! shape, `<preset> <policy> <l1 variant> 0x<FNV-1a digest>`, crossing every
//! [`HierarchyPreset`], every [`PolicyKind`] (as the L1 policy) and three L1
//! variants: plain, random fill and write-through. Each
//! shape runs one fixed trace of colliding reads, writes, flushes and
//! prefetches, then a batched chase and a batched mixed trace; every
//! [`AccessOutcome`] field, every [`TraceSummary`] field and the final level
//! contents (valid and dirty line counts of every level in each colliding
//! set) are folded into the digest.
//!
//! `run_trace` and the per-access calls share one demand path, so comparing
//! the two cannot see a change inside it. These digests can: any change to a
//! cycle count, a victim, a write-back count or a line left behind moves
//! one. On a mismatch the test prints the whole actual file, so an
//! intentional change can be pasted over `golden_outcomes.txt` (and
//! explained).

use sim_cache::hierarchy::RandomFillConfig;
use sim_cache::prelude::*;

const GOLDEN: &str = include_str!("golden_outcomes.txt");

const POLICIES: [PolicyKind; 6] = [
    PolicyKind::TrueLru,
    PolicyKind::TreePlru,
    PolicyKind::Random,
    PolicyKind::IntelLike,
    PolicyKind::Nru,
    PolicyKind::Srrip,
];

/// The L1 variants: the plain Table III L1 plus the two L1 mechanisms the
/// defenses table turns on.
const VARIANTS: [&str; 3] = ["plain", "random-fill", "write-through"];

/// The colliding sets the trace spreads over (the same index at every level).
const SETS: u64 = 6;

/// FNV-1a over 64-bit words, byte by byte.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn outcome(&mut self, o: &AccessOutcome) {
        self.word(match o.kind {
            AccessKind::Read => 0,
            AccessKind::Write => 1,
            AccessKind::Flush => 2,
            AccessKind::Prefetch => 3,
        });
        self.word(match o.hit {
            HitLevel::L1D => 0,
            HitLevel::L2 => 1,
            HitLevel::L3 => 2,
            HitLevel::Memory => 3,
        });
        self.word(o.cycles);
        self.word(u64::from(o.l1_filled));
        match o.l1_evicted {
            Some(line) => {
                self.word(1);
                self.word(line.value());
            }
            None => self.word(0),
        }
        self.word(u64::from(o.l1_victim_dirty));
        self.word(u64::from(o.writebacks));
    }

    fn summary(&mut self, s: &TraceSummary) {
        for value in [
            s.ops,
            s.cycles,
            s.reads,
            s.writes,
            s.flushes,
            s.read_misses,
            s.write_misses,
            s.l1_hits,
            s.l2_hits,
            s.llc_hits,
            s.memory_accesses,
            s.writebacks,
            s.dirty_victims,
        ] {
            self.word(value);
        }
    }

    /// The end state: every level's valid and dirty line counts in each of
    /// the colliding sets the trace touches.
    fn levels(&mut self, h: &CacheHierarchy) {
        for cache in [h.l1(), h.l2(), h.llc()] {
            for set in 0..SETS as usize {
                self.word(cache.valid_count_in_set(set) as u64);
                self.word(cache.dirty_count_in_set(set) as u64);
            }
        }
    }
}

/// SplitMix64: the fixed trace generator.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// A line whose L1, L2 and LLC set indices all equal `set`: the 128 KiB tag
/// stride is a multiple of every level's set span, so ~40 tags over a
/// 16-way LLC set force LLC evictions and every spill chain.
fn colliding(set: u64, tag: u64) -> PhysAddr {
    PhysAddr(set * 64 + tag * 131_072)
}

fn config(preset: HierarchyPreset, policy: PolicyKind, variant: &str) -> HierarchyConfig {
    let mut config = preset
        .config(policy, 16, 2022)
        .expect("16-way LLC is valid");
    match variant {
        "plain" => {}
        "random-fill" => config.l1_random_fill = Some(RandomFillConfig { window: 4 }),
        "write-through" => config.l1d.write_policy = WritePolicy::WriteThrough,
        other => unreachable!("unknown variant {other}"),
    }
    config
}

/// Runs the fixed trace on one hierarchy shape and digests everything it
/// observed.
fn digest(config: HierarchyConfig) -> u64 {
    let mut h = CacheHierarchy::new(config).expect("valid hierarchy");
    // Domain 2 is confined to half the L1 ways, so restricted victim
    // selection is on the trace too.
    h.l1_mut()
        .set_partition(2, WayMask::range(0, 4))
        .expect("non-empty partition");
    let mut stream = Stream(0x005e_ed0f_901d);
    let mut d = Digest::new();

    for _ in 0..1200 {
        let addr = colliding(stream.below(SETS), stream.below(40));
        let ctx = AccessContext::for_domain(stream.below(3) as u16);
        let outcome = match stream.below(10) {
            0..=3 => h.read(addr, ctx),
            4..=6 => h.write(addr, ctx),
            7 => h.flush(addr),
            _ => h.prefetch_into_l1(addr, ctx),
        };
        d.outcome(&outcome);
    }

    // The batch loops: a receiver-style chase over one set, twice, and a
    // mixed trace.
    let chase: Vec<PhysAddr> = (0..12).map(|tag| colliding(3, 100 + tag)).collect();
    for _ in 0..2 {
        d.summary(&h.run_read_trace(&chase, AccessContext::for_domain(0)));
    }
    let ops: Vec<TraceOp> = (0..400)
        .map(|_| {
            let addr = colliding(stream.below(SETS), stream.below(40));
            match stream.below(5) {
                0 | 1 => TraceOp::read(addr),
                2 | 3 => TraceOp::write(addr),
                _ => TraceOp::flush(addr),
            }
        })
        .collect();
    d.summary(&h.run_trace(&ops, AccessContext::for_domain(1)));

    d.levels(&h);
    d.0
}

/// The golden file as the current code would write it.
fn actual_digests() -> String {
    let mut file = String::new();
    for preset in HierarchyPreset::ALL {
        for policy in POLICIES {
            for variant in VARIANTS {
                let value = digest(config(preset, policy, variant));
                file.push_str(&format!(
                    "{} {} {variant} {value:#018x}\n",
                    preset.label(),
                    policy.label()
                ));
            }
        }
    }
    file
}

#[test]
fn hierarchy_outcomes_match_the_golden_digests() {
    let actual = actual_digests();
    let expected: Vec<&str> = GOLDEN.lines().collect();
    let got: Vec<&str> = actual.lines().collect();
    for (line, (want, have)) in expected.iter().zip(&got).enumerate() {
        assert_eq!(
            want,
            have,
            "golden_outcomes.txt line {} differs; the actual file is:\n{actual}",
            line + 1
        );
    }
    assert_eq!(
        expected.len(),
        got.len(),
        "golden_outcomes.txt has {} lines, the test wrote {}; the actual file is:\n{actual}",
        expected.len(),
        got.len()
    );
}
