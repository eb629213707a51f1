//! `serve_storm`: a budgeted `ServingSession` under composed chaos.
//!
//! An MMPP churn storm, crash bursts, uplink collapse and control-plane
//! stragglers, with the decision budget enforced. The arrival trace is
//! generated up front in simulated time and replayed unpaced, one step
//! in flight: each step starts when the previous one returns. Every
//! event step runs an `eva-serve` admission probe or a `Rescheduler` row
//! repair over `sched`; every epoch boundary reuses the decision path at
//! whatever rung the budget allows.
//!
//! A run covers [`SESSIONS`] sessions, each on its own derived seed.

use std::collections::HashMap;

use eva_fault::process::secs_to_ticks;
use eva_fault::{ChaosSpec, ChurnStorm, ControlStragglers, CrashBursts, LinkCollapse};
use eva_obs::{BudgetPolicy, DecisionRung};
use eva_serve::{AdmissionConfig, ArrivalModel, ChurnAction, ChurnConfig, ChurnTrace};
use eva_stats::rng::child_seed;
use eva_workload::{Scenario, N_OBJECTIVES};
use pamo_core::{OverloadConfig, PamoConfig, PreferenceSource, ServingConfig, ServingSession};

use crate::stats::{quantile, Digest};
use crate::trace::Probe;
use crate::{
    decide_mean, digest_decision, ratio, Bench, Check, LayerExtras, Metric, Ops, Params, Summary,
};

const DRIFT_PER_EPOCH: f64 = 0.05;
const UPLINK_BPS: f64 = 20e6;
const WEIGHTS: [f64; N_OBJECTIVES] = [1.0, 3.0, 1.0, 1.0, 1.0];
const EPOCH_S: f64 = 20.0;
/// The base deployment is fixed; the run seed draws the storms, crashes,
/// collapses, stragglers and the decisions' random streams.
const DEPLOYMENT_SEED: u64 = 2024;
/// Sessions a run covers: one storm is a noisy draw, so the guards pool
/// several.
const SESSIONS: u64 = 12;
/// Fleet size the decision budget is sized for (base cameras plus the
/// tenants a storm keeps live).
const BUDGET_CAMERAS: u64 = 12;

/// What one session step does, predicted from the session's inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    /// Epoch boundary: shedding, deferred churn and the epoch decision.
    Boundary(usize),
    /// One timeline event at `time_s`.
    Event {
        time_s: f64,
        kind: &'static str,
        tenant: Option<u64>,
    },
    /// Window close: deadline verdict and content drift.
    Close,
    /// End-of-horizon flush.
    Flush,
}

struct Size {
    cameras: usize,
    servers: usize,
    epochs: usize,
    config: PamoConfig,
}

fn size(tiny: bool) -> Size {
    let config = PamoConfig {
        bo: eva_bo::BoConfig {
            n_init: 4,
            batch: 2,
            mc_samples: 16,
            max_iters: if tiny { 1 } else { 2 },
            delta: 0.02,
            kind: eva_bo::AcqKind::QNei,
        },
        pool_size: if tiny { 10 } else { 20 },
        profiling_per_camera: if tiny { 10 } else { 20 },
        profile_noise: 0.02,
        n_comparisons: 0,
        elicit_candidates: 0,
        preference: PreferenceSource::Oracle,
    };
    if tiny {
        Size {
            cameras: 3,
            servers: 2,
            epochs: 3,
            config,
        }
    } else {
        Size {
            cameras: 4,
            servers: 6,
            epochs: 40,
            config,
        }
    }
}

/// Every input of one session, derived from the run seed and the
/// session index.
struct SessionInputs {
    base: Scenario,
    serving: ServingConfig,
    overload: OverloadConfig,
    config: PamoConfig,
    seed: u64,
}

fn session_inputs(p: &Params, index: u64) -> SessionInputs {
    let s = size(p.tiny);
    let seed = child_seed(p.seed, 100 + index);
    let chaos = ChaosSpec {
        seed: child_seed(seed, 1),
        churn_storm: Some(ChurnStorm {
            calm_rate_hz: 0.1,
            storm_rate_hz: 1.0,
            mean_dwell_s: [12.0, 8.0],
            mean_hold_s: 25.0,
        }),
        crash_bursts: Some(CrashBursts {
            mttf_s: 240.0,
            mttr_s: 20.0,
        }),
        link_collapse: Some(LinkCollapse {
            factor: 0.6,
            mean_normal_s: 60.0,
            mean_collapsed_s: 15.0,
        }),
        stragglers: Some(ControlStragglers {
            factor: 3.0,
            mean_normal_s: 60.0,
            mean_slow_s: 20.0,
        }),
    };
    let storm = chaos.churn_storm.expect("the spec above has a storm");
    let serving = ServingConfig {
        epoch_s: EPOCH_S,
        n_epochs: s.epochs,
        event_driven: true,
        arrivals: ArrivalModel::Mmpp {
            rate_hz: [storm.calm_rate_hz, storm.storm_rate_hz],
            mean_dwell_s: storm.mean_dwell_s,
        },
        mean_hold_s: storm.mean_hold_s,
        churn_seed: chaos.churn_seed(),
        // Room for every waiter and no age limit. Under `ext_overload`'s
        // shape (queue of 8, age limit 30 s, high water 4) this storm
        // rejects or sheds 12-15 % of arrivals, and a refused arrival is
        // a failed operation and an infinite reaction time. So the
        // storm backs tenants up in the queue, but none is refused.
        admission: AdmissionConfig {
            queue_capacity: 4096,
            ..AdmissionConfig::default()
        },
        ..ServingConfig::default()
    };
    // The `ext_overload` budget shape for a fleet of about BUDGET_CAMERAS:
    // a window affords a full decision plus event work for most of the
    // storm; a control straggler leaves little beyond the decision.
    let fit_lump = 2 * BUDGET_CAMERAS;
    let full_floor = fit_lump + 200;
    let window_units = 5 * full_floor;
    let unit_time_s = 2.0 / fit_lump as f64;
    let overload = OverloadConfig::budgeted(
        chaos,
        BudgetPolicy {
            window_units,
            full_floor,
            repair_floor: 100,
            unit_time_s,
            // A window meets its deadline when it spends at most nine
            // tenths of its budget's modeled time, so heavier decisions
            // or repairs show up as misses.
            deadline_s: window_units as f64 * unit_time_s * 0.9,
        },
    );
    SessionInputs {
        base: Scenario::uniform(s.cameras, s.servers, UPLINK_BPS, DEPLOYMENT_SEED),
        serving,
        overload,
        config: s.config,
        seed: child_seed(seed, 3),
    }
}

/// The session's step sequence, rebuilt from the same inputs the
/// session builds its timeline from: per epoch a boundary, the events
/// inside the window and a close; then a flush.
fn predict_steps(inp: &SessionInputs) -> Vec<Step> {
    let serving = &inp.serving;
    let horizon_s = serving.horizon_s();
    let trace = ChurnTrace::generate(&ChurnConfig {
        model: serving.arrivals,
        mean_hold_s: serving.mean_hold_s,
        horizon_s,
        seed: serving.churn_seed,
    });
    let mut timeline: Vec<Step> = trace
        .events()
        .iter()
        .map(|e| Step::Event {
            time_s: e.time_s,
            kind: match e.action {
                ChurnAction::Arrive => "arrival",
                ChurnAction::Depart => "departure",
            },
            tenant: Some(e.tenant),
        })
        .collect();
    let plan = inp
        .overload
        .chaos
        .fault_plan(inp.base.n_servers(), inp.base.n_videos());
    if !plan.is_zero() {
        let ticks = secs_to_ticks(horizon_s).max(1) + 1;
        for trace in plan.server_availability(ticks) {
            for (i, &tick) in trace.toggles().iter().enumerate() {
                let t = tick as f64 / eva_sched::TICKS_PER_SEC as f64;
                if t < horizon_s {
                    timeline.push(Step::Event {
                        time_s: t,
                        kind: if i % 2 == 1 { "restore" } else { "failure" },
                        tenant: None,
                    });
                }
            }
        }
    }
    let time_of = |s: &Step| match s {
        Step::Event { time_s, .. } => *time_s,
        _ => 0.0,
    };
    timeline.sort_by(|a, b| time_of(a).total_cmp(&time_of(b)));
    let mut steps = Vec::with_capacity(timeline.len() + 2 * serving.n_epochs + 1);
    let mut next = 0;
    for e in 0..serving.n_epochs {
        steps.push(Step::Boundary(e));
        let t1 = (e + 1) as f64 * serving.epoch_s;
        while next < timeline.len() && time_of(&timeline[next]) < t1 {
            steps.push(timeline[next]);
            next += 1;
        }
        steps.push(Step::Close);
    }
    steps.push(Step::Flush);
    steps
}

/// What a unit's time is a sample of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// An epoch-boundary step: a `decide_ms_mean` sample.
    Boundary,
    /// A handled event step: a reaction sample.
    React,
    /// A refused arrival's step: a reaction sample of +inf.
    Refused,
    /// An ignored event, a window close or the flush.
    Other,
}

/// Quality guards summed over the sessions.
#[derive(Debug, Default)]
struct Guard {
    sessions: u64,
    value_integral: f64,
    server_seconds: f64,
    accepted: u64,
    arrivals: u64,
    deadline_hits: u64,
    windows: u64,
    queued_peak: usize,
    budget_spent: u64,
}

/// The workload's state.
pub struct ServeStorm {
    params: Params,
    sessions_per_run: u64,
    index: u64,
    session: ServingSession,
    steps: Vec<Step>,
    next: usize,
    /// Unit index and step of each event step of the running session,
    /// whose roles are known when the session finishes.
    event_units: Vec<(usize, Step)>,
    /// Steps of the sessions after their bootstraps.
    prefix: usize,
    /// The role of each unit so far.
    roles: Vec<Role>,
    guard: Guard,
    sessions_done: usize,
    overruns: u64,
    step_mismatch: Option<String>,
    ops: Ops,
    digest: Digest,
}

impl ServeStorm {
    fn open(p: &Params, index: u64) -> (ServingSession, Vec<Step>) {
        let inp = session_inputs(p, index);
        let steps = predict_steps(&inp);
        let session = ServingSession::new(
            &inp.base,
            DRIFT_PER_EPOCH,
            &inp.config,
            WEIGHTS,
            &inp.serving,
            &inp.overload,
            inp.seed,
        );
        (session, steps)
    }

    /// Score a finished session: reaction samples, guards, ops, digest.
    fn close_session(&mut self) {
        let run = self.session.finish();
        if self.next != self.steps.len() && self.step_mismatch.is_none() {
            self.step_mismatch = Some(format!(
                "session {} ended after {} steps, {} predicted",
                self.index,
                self.next,
                self.steps.len()
            ));
        }
        // Each event step's own serve event: same time, same kind.
        let mut primary: HashMap<(u64, &str), &str> = HashMap::new();
        // Each tenant's last admission outcome.
        let mut last_arrival: HashMap<u64, &str> = HashMap::new();
        for ev in &run.events {
            primary
                .entry((ev.time_s.to_bits(), ev.kind))
                .or_insert(ev.outcome);
            if ev.kind == "arrival" {
                if let Some(t) = ev.tenant {
                    last_arrival.insert(t, ev.outcome);
                }
            }
        }
        let refused = |o: &str| o == "rejected" || o == "shed";
        for &(index, step) in &self.event_units {
            let Step::Event {
                time_s,
                kind,
                tenant,
            } = step
            else {
                continue;
            };
            if primary.get(&(time_s.to_bits(), kind)) == Some(&"ignored") {
                continue;
            }
            let was_refused = kind == "arrival"
                && tenant
                    .and_then(|t| last_arrival.get(&t))
                    .is_some_and(|o| refused(o));
            self.roles[index] = if was_refused {
                Role::Refused
            } else {
                Role::React
            };
        }
        self.event_units.clear();

        let arrivals = self
            .steps
            .iter()
            .filter(|s| {
                matches!(
                    s,
                    Step::Event {
                        kind: "arrival",
                        ..
                    }
                )
            })
            .count() as u64;
        let refused_arrivals = last_arrival.values().filter(|o| refused(o)).count() as u64;
        let failed_decisions = run
            .epochs
            .iter()
            .filter(|e| e.rung == DecisionRung::Full && e.degraded)
            .count() as u64;
        self.ops.attempted += arrivals + run.epochs.len() as u64;
        self.ops.failed += refused_arrivals + failed_decisions;
        self.overruns += run.budget_overruns;

        for e in &run.epochs {
            digest_decision(&mut self.digest, &e.configs, e.online_benefit);
            self.digest.text(e.rung.as_str());
        }
        for ev in &run.events {
            self.digest.float(ev.time_s);
            self.digest.text(ev.kind);
            self.digest.text(ev.outcome);
        }
        self.digest.float(run.value_integral);
        let g = &mut self.guard;
        g.sessions += 1;
        g.value_integral += run.value_integral;
        g.server_seconds += run.horizon_s * run.n_servers as f64;
        g.accepted += run.accepted;
        g.arrivals += arrivals;
        g.deadline_hits += run.deadline_hits;
        g.windows += run.deadline_hits + run.deadline_misses;
        g.queued_peak = g.queued_peak.max(run.queued_peak);
        g.budget_spent += run.budget_spent;
        self.sessions_done += 1;
    }
}

impl Bench for ServeStorm {
    fn bootstrap(p: &Params, probe: Probe<'_>) -> Self {
        let sessions_per_run = if p.tiny { 1 } else { SESSIONS };
        // A session's step 0 is its cold bootstrap decision: set-up, not
        // a unit.
        let prefix = (0..sessions_per_run)
            .map(|k| predict_steps(&session_inputs(p, k)).len() - 1)
            .sum::<usize>();
        let (mut session, steps) = ServeStorm::open(p, 0);
        probe.call("serving_session.step", || session.step(probe.rec()));
        ServeStorm {
            params: *p,
            sessions_per_run,
            index: 0,
            session,
            steps,
            next: 1,
            event_units: Vec::new(),
            prefix,
            roles: Vec::new(),
            guard: Guard::default(),
            sessions_done: 0,
            overruns: 0,
            step_mismatch: None,
            ops: Ops::default(),
            digest: Digest::default(),
        }
    }

    fn prefix_units(&self) -> usize {
        self.prefix
    }

    fn prepare(&mut self) {
        if self.session.is_done() {
            self.index += 1;
            (self.session, self.steps) = ServeStorm::open(&self.params, self.index);
            self.session.step(Probe::untraced().rec());
            self.next = 1;
        }
    }

    fn unit(&mut self, probe: Probe<'_>) -> f64 {
        let step = self.steps.get(self.next).copied();
        let session = &mut self.session;
        let (_, secs) = probe.call("serving_session.step", || session.step(probe.rec()));
        self.next += 1;
        let index = self.roles.len();
        self.roles.push(match step {
            Some(Step::Boundary(_)) => Role::Boundary,
            _ => Role::Other,
        });
        if let Some(s @ Step::Event { .. }) = step {
            self.event_units.push((index, s));
        }
        if self.session.is_done() {
            self.close_session();
        }
        secs
    }

    fn digest(&self) -> u64 {
        self.digest.value()
    }

    fn ops(&self) -> Ops {
        self.ops
    }

    fn summary(&self, unit_s: &[f64]) -> Summary {
        let g = &self.guard;
        let (mut boundary, mut react) = (Vec::new(), Vec::new());
        for (&role, &secs) in self.roles.iter().zip(unit_s) {
            match role {
                Role::Boundary => boundary.push(secs),
                Role::React => react.push(secs),
                // A refused arrival misses any latency limit.
                Role::Refused => react.push(f64::INFINITY),
                Role::Other => {}
            }
        }
        let value_per_server = g.value_integral / g.server_seconds;
        let sessions = g.sessions as usize;
        Summary {
            quality: (value_per_server, sessions),
            detail: vec![
                decide_mean(&boundary),
                Metric::new(
                    "react_ms_p50",
                    "ms",
                    quantile(&react, 0.5) * 1e3,
                    react.len(),
                ),
                Metric::new(
                    "react_ms_p99",
                    "ms",
                    quantile(&react, 0.99) * 1e3,
                    react.len(),
                ),
                Metric::new("value_per_server", "U/server", value_per_server, sessions),
                Metric::new(
                    "admitted_frac",
                    "ratio",
                    ratio(g.accepted, g.arrivals),
                    g.arrivals as usize,
                ),
                Metric::new(
                    "deadline_hit_frac",
                    "ratio",
                    ratio(g.deadline_hits, g.windows),
                    g.windows as usize,
                ),
            ],
            // The operation is the reaction to an event.
            op_s: react,
        }
    }

    fn checks(&self) -> Vec<Check> {
        vec![
            Check::new(
                "serve_storm: no decision budget overrun",
                self.overruns == 0,
                format!(
                    "{} overruns over {} sessions",
                    self.overruns, self.sessions_done
                ),
            ),
            Check::new(
                "serve_storm: sessions take the predicted steps",
                self.guard.sessions == self.sessions_per_run && self.step_mismatch.is_none(),
                self.step_mismatch
                    .clone()
                    .unwrap_or_else(|| format!("{} sessions complete", self.sessions_done)),
            ),
        ]
    }

    fn layer_extras(&self) -> LayerExtras {
        LayerExtras {
            queued_peak: self.guard.queued_peak,
            budget_units: self.guard.budget_spent,
            ..LayerExtras::default()
        }
    }
}
