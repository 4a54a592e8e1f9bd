//! Golden digests: the refactor contract for the whole registry.
//!
//! `GOLDEN_quick.txt` at the repository root holds one line per registry
//! output table, `<stem> 0x<FNV-1a of Table::to_csv()>`, for `repro run all
//! --quick` at the default seed. A change that moves any simulated result
//! moves a digest and fails this test; the failure prints the whole actual
//! file so an intentional change can be regenerated (and explained) by
//! pasting it over `GOLDEN_quick.txt`.

use bench::{registry, Scale, SEED};
use runner::seed::fnv1a;
use runner::{execute, RunConfig};

const GOLDEN: &str = include_str!("../../../GOLDEN_quick.txt");

/// The golden file as the current code would write it.
fn actual_digests() -> String {
    let registry = registry();
    let selected = registry.select(&["all".to_owned()]).expect("all matches");
    let config = RunConfig {
        scale: Scale::Quick,
        threads: 2,
        root_seed: SEED,
        progress: false,
    };
    let mut file = String::new();
    for run in execute(&selected, &config) {
        assert!(run.error.is_none(), "{} failed: {:?}", run.id, run.error);
        for (stem, table) in &run.tables {
            file.push_str(&format!("{stem} {:#018x}\n", fnv1a(&table.to_csv())));
        }
    }
    file
}

#[test]
fn quick_registry_tables_match_the_golden_digests() {
    let actual = actual_digests();
    let expected: Vec<&str> = GOLDEN.lines().collect();
    let got: Vec<&str> = actual.lines().collect();
    for (line, (want, have)) in expected.iter().zip(&got).enumerate() {
        assert_eq!(
            want,
            have,
            "GOLDEN_quick.txt line {} differs; the actual file is:\n{actual}",
            line + 1
        );
    }
    assert_eq!(
        expected.len(),
        got.len(),
        "GOLDEN_quick.txt has {} lines, the registry wrote {}; the actual file is:\n{actual}",
        expected.len(),
        got.len()
    );
}
