//! Differential property suite for the `hierarchy-matrix` scenario.
//!
//! The paper demonstrates the WB channel on one machine (the Xeon E5-2650,
//! Table IV) and argues in Sec. VI that the mechanism — the dirty/clean
//! write-back latency gap — is a property of write-back caching itself, not
//! of one hierarchy.  The matrix scenario sweeps the mechanism across
//! inclusion policies, write-back routings, latency presets, LLC
//! associativities and L1 replacement policies; this suite pins the
//! *differential* claim behind it:
//!
//! - wherever the mechanism applies, the channel decodes error-free on the
//!   quiet machine (BER == 0), whatever the hierarchy shape; and
//! - wherever it does not, the degradation is in a documented direction,
//!   asserted by the [`DEGRADATIONS`] table below rather than silently
//!   tolerated.

use bench::scenarios::{matrix_axes, HIERARCHY_MATRIX, MATRIX_LLC_ASSOC, MATRIX_POLICIES};
use bench::{Scale, SEED};
use runner::scenario::PointCtx;
use sim_cache::prelude::{HierarchyPreset, PolicyKind};

/// One documented degradation: a matrix axis value for which the quiet-machine
/// channel is *expected* not to decode cleanly, with the BER band it must land
/// in and the paper's explanation.
struct Degradation {
    /// The L1 policy this entry covers (the only axis that degrades today).
    policy: PolicyKind,
    /// Inclusive BER band the degraded points must fall into.
    ber_band: (f64, f64),
    /// Why the degradation is expected — the documented direction.
    rationale: &'static str,
}

/// Every expected departure from BER == 0 on the quiet machine.
///
/// Pseudo-random replacement is the paper's own caveat: the transmitter
/// cannot deterministically prime all eight ways and the receiver's L = 10
/// sweep is only probabilistically complete, so bits flip at a rate well
/// away from both 0 (it never decodes cleanly) and 0.5 (the signal does not
/// vanish either) — see Sec. VI-A and the Table V discussion.  Measured
/// quick-scale values across all presets sit at 22.9–27.9%.
const DEGRADATIONS: &[Degradation] = &[Degradation {
    policy: PolicyKind::Random,
    ber_band: (0.05, 0.45),
    rationale: "pseudo-random replacement defeats deterministic priming/sweeping (Sec. VI-A)",
}];

fn degradation_for(policy: PolicyKind) -> Option<&'static Degradation> {
    DEGRADATIONS.iter().find(|d| d.policy == policy)
}

fn run_matrix_point(index: usize) -> (f64, Vec<String>) {
    let ctx = PointCtx {
        scale: Scale::Quick,
        seed: HIERARCHY_MATRIX.point_seed(SEED, index),
        index,
    };
    let output = (HIERARCHY_MATRIX.run_point)(&ctx).expect("matrix point runs");
    assert_eq!(output.values.len(), 1, "one BER value per point");
    assert_eq!(output.rows.len(), 1, "one grid row per point");
    (output.values[0], output.rows.into_iter().next().unwrap())
}

/// The tentpole differential property: every point of the preset × LLC-ways ×
/// policy grid either decodes error-free on the quiet machine or falls inside
/// the BER band of its documented degradation.
#[test]
fn every_matrix_point_decodes_or_degrades_as_documented() {
    let points = (HIERARCHY_MATRIX.points)(Scale::Quick);
    assert_eq!(
        points,
        HierarchyPreset::ALL.len() * MATRIX_LLC_ASSOC.len() * MATRIX_POLICIES.len(),
        "the grid covers the whole axis product"
    );
    for index in 0..points {
        let (preset, llc_ways, policy) = matrix_axes(index);
        let (ber, row) = run_matrix_point(index);
        let cell = format!(
            "point {index}: {} x {llc_ways}-way LLC x {}",
            preset.label(),
            policy.label()
        );
        match degradation_for(policy) {
            None => {
                assert_eq!(ber, 0.0, "{cell}: mechanism applies, must decode cleanly");
                assert_eq!(row[6], "yes", "{cell}: grid row must say it decodes");
            }
            Some(degradation) => {
                let (lo, hi) = degradation.ber_band;
                assert!(
                    ber >= lo && ber <= hi,
                    "{cell}: BER {ber:.4} outside the documented band \
                     [{lo}, {hi}] ({})",
                    degradation.rationale
                );
                assert_eq!(row[6], "no", "{cell}: grid row must flag the degradation");
            }
        }
    }
}

/// The point-index decomposition enumerates each axis combination exactly
/// once, in the documented order (policy fastest, then LLC ways, then
/// preset), and the emitted rows carry the axes they were computed from.
#[test]
fn matrix_axes_enumerate_the_grid_without_repeats() {
    let points = (HIERARCHY_MATRIX.points)(Scale::Quick);
    let mut seen = std::collections::HashSet::new();
    for index in 0..points {
        let (preset, llc_ways, policy) = matrix_axes(index);
        assert!(
            seen.insert((preset.label(), llc_ways, format!("{policy:?}"))),
            "axis combination repeated at point {index}"
        );
    }
    assert_eq!(seen.len(), points);
    // Spot-check the documented ordering at the fast-axis boundaries.
    assert_eq!(matrix_axes(0).2, MATRIX_POLICIES[0]);
    assert_eq!(matrix_axes(MATRIX_POLICIES.len()).1, MATRIX_LLC_ASSOC[1]);
    assert_eq!(
        matrix_axes(MATRIX_POLICIES.len() * MATRIX_LLC_ASSOC.len()).0,
        HierarchyPreset::ALL[1]
    );
}

/// Within one preset the degraded points stay strictly worse than the clean
/// ones — the differential signal the grid exists to show: BER separates the
/// policies the mechanism covers from the one it does not, on *every*
/// hierarchy shape.
#[test]
fn degraded_points_are_strictly_separated_from_clean_ones_per_preset() {
    let points = (HIERARCHY_MATRIX.points)(Scale::Quick);
    for preset in HierarchyPreset::ALL {
        let mut clean_max = 0.0f64;
        let mut degraded_min = f64::INFINITY;
        for index in 0..points {
            let (point_preset, _, policy) = matrix_axes(index);
            if point_preset != preset {
                continue;
            }
            let (ber, _) = run_matrix_point(index);
            if degradation_for(policy).is_some() {
                degraded_min = degraded_min.min(ber);
            } else {
                clean_max = clean_max.max(ber);
            }
        }
        assert!(
            degraded_min > clean_max,
            "{}: degraded minimum {degraded_min:.4} does not dominate \
             clean maximum {clean_max:.4}",
            preset.label()
        );
    }
}
