//! `des_replay`: a fixed set of deployed plans replayed in the DES over
//! long horizons, three ways:
//!
//! * per-camera Markov `LinkModel` traces,
//! * three-link `LinkBundle`s under `BondPolicy::EarliestDelivery`,
//! * fixed uplinks with a `FaultPlan` (crashes, frame loss, retry).
//!
//! Set-up computes the plans (PaMO+ decisions on the drifting Fig. 6
//! cluster) and is timed as `setup_s`. Each replay cycle replays every
//! plan in every mode once, over link traces and faults drawn afresh
//! from the run seed. Without this workload `sim`, `net`, `bond` and
//! `fault` would never carry most of a workload's work; it also guards
//! each DES entry point against a slowdown when they are folded into
//! one.

use eva_bo::{AcqKind, BoConfig};
use eva_bond::{BondPolicy, BondedLink, LinkBundle};
use eva_fault::{FaultPlan, RetryPolicy};
use eva_net::LinkModel;
use eva_sched::Assignment;
use eva_sim::{
    simulate_scenario_faulted_recorded, simulate_scenario_with_deadline_recorded, PhasePolicy,
    ScenarioSimReport,
};
use eva_stats::rng::{child_seed, seeded};
use eva_workload::{DriftingScenario, Scenario, VideoConfig};
use pamo_core::{Pamo, PamoConfig, PreferenceSource, TruePreference};

use crate::stats::{median, Digest};
use crate::trace::Probe;
use crate::{ratio, Bench, Check, Metric, Ops, Params, Summary};

const UPLINK_BPS: f64 = 20e6;
const DRIFT_PER_EPOCH: f64 = 0.05;
/// The plans are fixed: decided on the paper's Fig. 6 cluster from this
/// seed. The run seed draws what the replays meet: the link traces, the
/// bundle members' states and the faults.
const DEPLOYMENT_SEED: u64 = 2024;
/// Per-frame end-to-end deadline of every replay.
const DEADLINE_S: f64 = 0.5;
/// Replay cycles a run covers: one draw of link traces and faults is a
/// noisy sample, so the quality guard pools several.
const CYCLES: usize = 20;

/// The three ways a plan is replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Markov,
    Bonded,
    Faulted,
}

const MODES: [Mode; 3] = [Mode::Markov, Mode::Bonded, Mode::Faulted];

/// The DES entry points a replay goes through.
type Replay = fn(
    &Scenario,
    &[VideoConfig],
    &Assignment,
    PhasePolicy,
    f64,
    f64,
    &dyn eva_obs::Recorder,
) -> ScenarioSimReport;

fn plan_config() -> PamoConfig {
    PamoConfig {
        bo: BoConfig {
            n_init: 4,
            batch: 2,
            mc_samples: 16,
            max_iters: 3,
            delta: 0.02,
            kind: AcqKind::QNei,
        },
        pool_size: 20,
        profiling_per_camera: 20,
        profile_noise: 0.02,
        n_comparisons: 0,
        elicit_candidates: 0,
        preference: PreferenceSource::Oracle,
    }
}

/// One deployed plan.
struct Plan {
    scenario: Scenario,
    configs: Vec<VideoConfig>,
    assignment: Assignment,
}

fn bundle(seed: u64) -> LinkBundle {
    LinkBundle::new(vec![
        BondedLink::new(
            LinkModel::gilbert_elliott(12e6, 4e6, 3.0, 1.0, child_seed(seed, 1)),
            0.030,
        ),
        BondedLink::new(
            LinkModel::gilbert_elliott(8e6, 3e6, 3.0, 1.0, child_seed(seed, 2)),
            0.080,
        ),
        BondedLink::new(LinkModel::constant(5e6), 0.200),
    ])
}

/// The plan's scenario with `mode`'s uplinks drawn from `seed`.
fn replay_scenario(plan: &Plan, mode: Mode, seed: u64) -> Scenario {
    let cameras = plan.scenario.n_videos();
    let sc = plan.scenario.clone();
    match mode {
        Mode::Markov => sc.with_link_models(
            (0..cameras as u64)
                .map(|i| {
                    LinkModel::three_state([24e6, 12e6, 4e6], [8.0, 3.0, 1.5], child_seed(seed, i))
                })
                .collect(),
        ),
        Mode::Bonded => sc.with_link_bundles(
            (0..cameras as u64)
                .map(|i| bundle(child_seed(seed, i)))
                .collect(),
            BondPolicy::EarliestDelivery,
        ),
        Mode::Faulted => sc.with_fault_plan(
            FaultPlan::none(plan.scenario.n_servers(), cameras)
                .with_server_crashes(120.0, 10.0, child_seed(seed, 1))
                .with_frame_loss(0.02, child_seed(seed, 2))
                .with_retry(RetryPolicy::standard()),
        ),
    }
}

/// The workload's state.
pub struct DesReplay {
    seed: u64,
    plans: Vec<Plan>,
    horizon_s: f64,
    cycles: usize,
    next: usize,
    /// Frames simulated (delivered and dropped) by each replay so far.
    unit_frames: Vec<u64>,
    /// (misses + dropped, frames + dropped) over the replays so far.
    miss: (u64, u64),
    empty_replays: usize,
    nonfinite_replays: usize,
    ops: Ops,
    digest: Digest,
}

impl DesReplay {
    fn replays_per_cycle(&self) -> usize {
        self.plans.len() * MODES.len()
    }
}

impl Bench for DesReplay {
    fn bootstrap(p: &Params, probe: Probe<'_>) -> Self {
        let (cameras, servers, n_plans, horizon_s, cycles) = if p.tiny {
            (3, 2, 1, 5.0, 1)
        } else {
            (8, 5, 6, 120.0, CYCLES)
        };
        let base = Scenario::uniform(cameras, servers, UPLINK_BPS, DEPLOYMENT_SEED);
        let mut drifting = DriftingScenario::new(&base, DRIFT_PER_EPOCH);
        let mut rng = seeded(DEPLOYMENT_SEED);
        let pamo = Pamo::new(plan_config());
        let mut plans = Vec::with_capacity(n_plans);
        let mut ops = Ops::default();
        for _ in 0..n_plans {
            let scenario = drifting.snapshot();
            let pref = TruePreference::uniform(&scenario);
            let decided = probe.call("pamo.decide_surviving", || {
                pamo.decide_surviving_recorded(&scenario, &pref, None, &mut rng, probe.rec())
            });
            ops.attempted += 1;
            drifting.advance(&mut rng);
            let Ok(d) = decided.0 else {
                ops.failed += 1;
                continue;
            };
            let Ok(assignment) = scenario.schedule(&d.configs) else {
                ops.failed += 1;
                continue;
            };
            plans.push(Plan {
                scenario,
                configs: d.configs,
                assignment,
            });
        }
        DesReplay {
            seed: p.seed,
            plans,
            horizon_s,
            cycles,
            next: 0,
            unit_frames: Vec::new(),
            miss: (0, 0),
            empty_replays: 0,
            nonfinite_replays: 0,
            ops,
            digest: Digest::default(),
        }
    }

    fn prefix_units(&self) -> usize {
        self.cycles * self.replays_per_cycle()
    }

    fn unit(&mut self, probe: Probe<'_>) -> f64 {
        let i = self.next % self.replays_per_cycle();
        let (plan, mode) = (&self.plans[i / MODES.len()], MODES[i % MODES.len()]);
        let scenario = replay_scenario(plan, mode, child_seed(self.seed, self.next as u64));
        let (name, replay): (&str, Replay) = if mode == Mode::Faulted {
            (
                "sim.simulate_scenario_faulted",
                simulate_scenario_faulted_recorded,
            )
        } else {
            (
                "sim.simulate_scenario_with_deadline",
                simulate_scenario_with_deadline_recorded,
            )
        };
        let (sim, secs) = probe.call(name, || {
            replay(
                &scenario,
                &plan.configs,
                &plan.assignment,
                PhasePolicy::ZeroJitter,
                self.horizon_s,
                DEADLINE_S,
                probe.rec(),
            )
        });
        let streams = &sim.report.streams;
        let delivered: u64 = streams.iter().map(|s| s.frames).sum();
        let dropped: u64 = streams.iter().map(|s| s.dropped).sum();
        let misses: u64 = streams.iter().map(|s| s.deadline_misses).sum();
        self.ops.attempted += 1;
        if delivered == 0 {
            self.empty_replays += 1;
            self.ops.failed += 1;
        }
        if !sim.measured_mean_latency_s.is_finite() {
            self.nonfinite_replays += 1;
            self.ops.failed += 1;
        }
        self.unit_frames.push(delivered + dropped);
        self.miss.0 += misses + dropped;
        self.miss.1 += delivered + dropped;
        for w in [delivered, dropped, misses] {
            self.digest.word(w);
        }
        self.digest.float(sim.measured_mean_latency_s);
        self.next += 1;
        secs
    }

    fn digest(&self) -> u64 {
        self.digest.value()
    }

    fn ops(&self) -> Ops {
        self.ops
    }

    fn summary(&self, unit_s: &[f64]) -> Summary {
        let per_cycle = self.replays_per_cycle().max(1);
        let cycle_fps: Vec<f64> = self
            .unit_frames
            .chunks(per_cycle)
            .zip(unit_s.chunks(per_cycle))
            .map(|(frames, secs)| frames.iter().sum::<u64>() as f64 / secs.iter().sum::<f64>())
            .collect();
        let (missed, frames) = self.miss;
        let miss_frac = ratio(missed, frames);
        Summary {
            op_s: unit_s.to_vec(),
            // The share of frames delivered within their deadline.
            quality: (1.0 - miss_frac, frames as usize),
            detail: vec![
                Metric::new("frames_per_s", "1/s", median(&cycle_fps), cycle_fps.len()),
                Metric::new("frame_miss_frac", "ratio", miss_frac, frames as usize),
            ],
        }
    }

    fn checks(&self) -> Vec<Check> {
        vec![Check::new(
            "des_replay: every plan deployed and every replay delivered frames",
            !self.plans.is_empty()
                && self.ops.failed == 0
                && self.empty_replays == 0
                && self.nonfinite_replays == 0,
            format!(
                "{} plans, {} replays, {} empty, {} non-finite latency",
                self.plans.len(),
                self.next,
                self.empty_replays,
                self.nonfinite_replays
            ),
        )]
    }
}
