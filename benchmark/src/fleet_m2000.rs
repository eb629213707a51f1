//! `fleet_m2000`: 2000 cameras on 200 servers with the oracle
//! preference, a closed loop of drifting epochs.
//!
//! Uses the `fig7_scale` PaMO settings. `bo_search` dominates the
//! decision; the workload exercises batched posteriors, pool building,
//! the sparse auction, sharded grouping and memory, and bypasses
//! `prefgp` and `serve`.

use eva_bo::{AcqKind, BoConfig};
use eva_stats::rng::{child_seed, seeded};
use eva_workload::{DriftingScenario, Scenario, N_OBJECTIVES};
use pamo_core::{normalized_benefit, Pamo, PamoConfig, PreferenceSource, TruePreference};
use rand::rngs::StdRng;

use crate::stats::{mean, Digest};
use crate::trace::Probe;
use crate::{
    decide_mean, digest_decision, feasible_evals, Bench, Check, LayerExtras, Metric, Ops, Params,
    Summary,
};

const DRIFT_PER_EPOCH: f64 = 0.05;
/// The fleet is `fig7_scale`'s fixed M = 2000 deployment; the run seed
/// draws everything that happens to it.
const DEPLOYMENT_SEED: u64 = 4200 + 2000;
const WEIGHTS: [f64; N_OBJECTIVES] = [1.0; N_OBJECTIVES];

/// The `fig7_scale` decision settings.
fn scale_config() -> PamoConfig {
    PamoConfig {
        bo: BoConfig {
            n_init: 4,
            batch: 2,
            mc_samples: 16,
            max_iters: 3,
            delta: 0.02,
            kind: AcqKind::QNei,
        },
        pool_size: 12,
        profiling_per_camera: 20,
        profile_noise: 0.02,
        n_comparisons: 0,
        elicit_candidates: 0,
        preference: PreferenceSource::Oracle,
    }
}

/// The closed loop's state.
pub struct FleetM2000 {
    drifting: DriftingScenario,
    rng: StdRng,
    pamo: Pamo,
    warm_epochs: usize,
    benefit: Vec<f64>,
    feasible: (u64, u64),
    ops: Ops,
    digest: Digest,
}

impl FleetM2000 {
    /// One epoch: decide and drift. Returns the wall seconds of the
    /// decision.
    fn epoch(&mut self, probe: Probe<'_>, warm: bool) -> f64 {
        let scenario = self.drifting.snapshot();
        let pref = TruePreference::new(&scenario, WEIGHTS);
        let (decision, secs) = probe.call("pamo.decide_surviving", || {
            self.pamo
                .decide_surviving_recorded(&scenario, &pref, None, &mut self.rng, probe.rec())
        });
        self.ops.attempted += 1;
        match decision {
            Ok(d) if d.true_benefit.is_finite() => {
                if warm {
                    let f = feasible_evals(&d.bo);
                    self.feasible.0 += f.0;
                    self.feasible.1 += f.1;
                }
                self.benefit.push(normalized_benefit(
                    d.true_benefit,
                    0.0,
                    pref.min_reference(),
                ));
                digest_decision(&mut self.digest, &d.configs, d.true_benefit);
            }
            _ => self.ops.failed += 1,
        }
        self.drifting.advance(&mut self.rng);
        secs
    }
}

impl Bench for FleetM2000 {
    fn bootstrap(p: &Params, probe: Probe<'_>) -> Self {
        let (cameras, servers, warm_epochs) = if p.tiny { (40, 4, 1) } else { (2000, 200, 3) };
        let base = Scenario::standard(cameras, servers, &mut seeded(DEPLOYMENT_SEED));
        let mut me = FleetM2000 {
            drifting: DriftingScenario::new(&base, DRIFT_PER_EPOCH),
            rng: seeded(child_seed(p.seed, 2)),
            pamo: Pamo::new(scale_config()),
            warm_epochs,
            benefit: Vec::new(),
            feasible: (0, 0),
            ops: Ops::default(),
            digest: Digest::default(),
        };
        let _ = me.epoch(probe, false);
        me
    }

    fn prefix_units(&self) -> usize {
        self.warm_epochs
    }

    fn unit(&mut self, probe: Probe<'_>) -> f64 {
        self.epoch(probe, true)
    }

    fn digest(&self) -> u64 {
        self.digest.value()
    }

    fn ops(&self) -> Ops {
        self.ops
    }

    fn summary(&self, unit_s: &[f64]) -> Summary {
        let benefit_u = mean(&self.benefit);
        Summary {
            op_s: unit_s.to_vec(),
            quality: (benefit_u, self.benefit.len()),
            detail: vec![
                decide_mean(unit_s),
                Metric::new("benefit_u", "U", benefit_u, self.benefit.len()),
            ],
        }
    }

    fn checks(&self) -> Vec<Check> {
        Vec::new()
    }

    fn layer_extras(&self) -> LayerExtras {
        LayerExtras {
            feasible: self.feasible,
            ..LayerExtras::default()
        }
    }
}
