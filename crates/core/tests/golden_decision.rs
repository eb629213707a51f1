//! A pinned learned-preference decision.
//!
//! The qNEI prepare pass (outcome posteriors, preference posterior) is
//! required to be bit-identical to the plain per-point arithmetic it
//! replaces. This test pins one seeded 3-camera × 2-server decision with
//! a learned preference: the chosen configurations, the bits of the
//! true benefit and the bits of every observation the BO loop made. The
//! constants were recorded before the cached prepare pass existed, so
//! any drift in the posterior arithmetic shows up here as a changed bit.

use eva_bo::{AcqKind, BoConfig};
use eva_stats::rng::seeded;
use eva_workload::Scenario;
use pamo_core::{Pamo, PamoConfig, PreferenceSource, TruePreference};

fn config() -> PamoConfig {
    PamoConfig {
        bo: BoConfig {
            n_init: 4,
            batch: 2,
            mc_samples: 16,
            max_iters: 5,
            delta: 1e-9,
            kind: AcqKind::QNei,
        },
        pool_size: 25,
        profiling_per_camera: 25,
        profile_noise: 0.02,
        n_comparisons: 8,
        elicit_candidates: 20,
        preference: PreferenceSource::Learned,
    }
}

/// `(resolution, fps)` of each camera in the pinned decision.
const CONFIGS: [(f64, f64); 3] = [(600.0, 10.0); 3];
/// Bits of the pinned decision's true benefit.
const TRUE_BENEFIT_BITS: u64 = 0xbff6_2ef6_d2ab_8d93;
/// Bits of every observed value, in evaluation order.
const OBSERVATION_BITS: [u64; 14] = [
    0xbfbd_a76d_11d7_e3c0,
    0xbfc8_66f3_266c_c7f0,
    0xbfcb_f3dd_75e5_9ee0,
    0x3f9f_6953_1928_7100,
    0xbfcb_30f4_5e7d_9950,
    0xbf9a_f32f_ef00_2800,
    0xbfa7_7dd7_bbe4_f400,
    0x3fc5_f896_47b7_2be0,
    0x3f8c_8152_41d3_d700,
    0x3fc9_8dd3_6fb4_2f30,
    0xbfc9_ad3e_42af_3d50,
    0xbfd6_4511_c246_7900,
    0xbfc2_00c6_9c81_5b80,
    0x3fc5_0cfe_3a99_4bb0,
];

#[test]
fn learned_decision_matches_pinned_values() {
    let sc = Scenario::uniform(3, 2, 20e6, 47);
    let pref = TruePreference::new(&sc, [1.5, 2.0, 0.5, 1.0, 1.0]);
    let pamo = Pamo::new(config());
    // Two decisions on one scheduler: the second runs warm-started.
    let _ = pamo
        .decide(&sc, &pref, &mut seeded(21))
        .expect("first decision");
    let d = pamo
        .decide(&sc, &pref, &mut seeded(22))
        .expect("second decision");

    let configs: Vec<(f64, f64)> = d.configs.iter().map(|c| (c.resolution, c.fps)).collect();
    let obs: Vec<u64> = d.bo.observations.iter().map(|(_, v)| v.to_bits()).collect();
    assert_eq!(configs, CONFIGS.to_vec());
    assert_eq!(d.true_benefit.to_bits(), TRUE_BENEFIT_BITS);
    assert_eq!(obs, OBSERVATION_BITS.to_vec());
}
