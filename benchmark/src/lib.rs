//! The PaMO benchmark: four workloads driven through the program's
//! public entry points, an untraced run for the end-to-end metrics and
//! a traced run for the per-layer metrics. See `README.md` beside this
//! crate for why each workload exists and what each metric predicts.

pub mod des_replay;
pub mod fleet_m2000;
pub mod paper_online;
pub mod reference;
pub mod serve_storm;
pub mod stats;
pub mod trace;

use std::time::Instant;

use trace::{Layers, Probe, TraceRecorder};

/// Rounds of cold bootstraps timed for `setup_s`, spread over the run:
/// one cold start alone is too noisy on a shared host.
pub const SETUP_ROUNDS: usize = 11;

/// Seeds of the cold bootstraps a set-up round times, the same for every
/// run seed. A cold start's cost depends on its seed's draw (at paper
/// scale from 0.09 to 0.34 s over seeds 1-16), so set-up timed on
/// run-seed draws would rank seeds, not the program.
pub const SETUP_SEEDS: [u64; 3] = [1, 2, 3];

/// Most runs of the reference kernel per run of the prefix, spread
/// evenly over its units.
pub const REFERENCE_RUNS: usize = 512;

/// The reference kernel's time in the fast phases of the host the
/// benchmark was tuned on. `setup_s` is reported at this kernel speed:
/// its seconds are wall seconds scaled by this over the kernel's
/// measured time, so that the host's slow phases, which stretch a cold
/// start by up to 70 %, do not read as a slower program.
pub const REFERENCE_NOMINAL_S: f64 = 0.0004;

/// A seed never used while the benchmark was tuned; confirm claims on it.
pub const HELD_OUT_SEED: u64 = 7919;

/// Worker threads the program runs on. The vendored `rayon` is a
/// sequential stand-in, so every "parallel" path runs on the calling
/// thread; real parallelism would change this figure.
pub const THREADS: usize = 1;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper scale, learned preference, closed-loop drifting epochs.
    PaperOnline,
    /// 2000 cameras on 200 servers, oracle preference.
    FleetM2000,
    /// Budgeted serving session under composed chaos, unpaced replay.
    ServeStorm,
    /// Deployed plans replayed in the DES over dynamic, bonded and
    /// faulty uplinks.
    DesReplay,
}

impl Workload {
    /// All workloads, in the order the documentation lists them.
    pub const ALL: [Workload; 4] = [
        Workload::PaperOnline,
        Workload::FleetM2000,
        Workload::ServeStorm,
        Workload::DesReplay,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperOnline => "paper_online",
            Workload::FleetM2000 => "fleet_m2000",
            Workload::ServeStorm => "serve_storm",
            Workload::DesReplay => "des_replay",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Inputs of one run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Wall seconds the untraced run measures for: it runs the fixed
    /// prefix once, and again as often as fits.
    pub seconds: f64,
    /// Shrink every workload to a smoke size (the benchmark's tests).
    pub tiny: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// Samples behind the value.
    pub samples: usize,
}

impl Metric {
    /// Build a metric.
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        Metric {
            name,
            unit,
            value,
            samples,
        }
    }
}

/// A named correctness check and its verdict.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The observed values behind the verdict.
    pub detail: String,
}

impl Check {
    /// Build a check.
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Self {
        Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        }
    }
}

/// Operations attempted and failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl std::ops::AddAssign for Ops {
    fn add_assign(&mut self, rhs: Ops) {
        self.attempted += rhs.attempted;
        self.failed += rhs.failed;
    }
}

/// A workload in the shape the harness drives: a cold bootstrap to the
/// first deployed plan, then repeated units of steady-state work.
pub trait Bench: Sized {
    /// Build the inputs from the seed and run to the first deployed
    /// plan. Timed as set-up.
    fn bootstrap(p: &Params, probe: Probe<'_>) -> Self;

    /// Open the next deployment or session when the running one is
    /// done, cold start included. The harness calls it before each unit,
    /// untraced and outside the unit's timing, so every unit is steady
    /// state.
    fn prepare(&mut self) {}

    /// Units a run of the workload performs: every metric covers
    /// exactly this prefix, so the work repeats exactly for a seed.
    fn prefix_units(&self) -> usize;

    /// One unit of steady-state work (an epoch, a serving step, a
    /// replay). Returns the wall seconds of the call the end-to-end
    /// metrics time: the decision, the step or the replay.
    fn unit(&mut self, probe: Probe<'_>) -> f64;

    /// Digest of every decision so far (configurations and the bits of
    /// their benefits).
    fn digest(&self) -> u64;

    /// Operations attempted and failed so far.
    fn ops(&self) -> Ops;

    /// What the prefix amounts to, given each unit's time.
    fn summary(&self, unit_s: &[f64]) -> Summary;

    /// Correctness checks over everything run so far.
    fn checks(&self) -> Vec<Check>;

    /// Figures of a traced run that the trace itself does not hold.
    fn layer_extras(&self) -> LayerExtras {
        LayerExtras::default()
    }
}

/// What a workload's prefix amounts to.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Wall seconds of each of the workload's operations (a warm
    /// decision, an event reaction, a replay): the units `op_ms_mean`
    /// averages over.
    pub op_s: Vec<f64>,
    /// The workload's quality guard, deterministic for a seed, and the
    /// samples behind it.
    pub quality: (f64, usize),
    /// The workload's own end-to-end figures. They are printed with
    /// their sample counts but left out of the result line, which holds
    /// only the metrics every workload reports.
    pub detail: Vec<Metric>,
}

/// Per-layer figures that only a workload's own state holds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerExtras {
    /// (feasible objective evaluations, all objective evaluations) of
    /// the traced decisions, where the decisions expose them.
    pub feasible: (u64, u64),
    /// Largest retry-queue depth of the serving sessions.
    pub queued_peak: usize,
    /// Decision-budget units the serving sessions spent.
    pub budget_units: u64,
}

/// The result of one benchmark invocation.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The metrics of the requested mode: those `BENCHMARK.json`
    /// declares for it, the same for every workload.
    pub metrics: Vec<Metric>,
    /// The workload's own end-to-end figures (untraced mode only).
    pub detail: Vec<Metric>,
    /// Operations attempted and failed.
    pub ops: Ops,
    /// Correctness checks; the run is correct when all hold and every
    /// metric is finite.
    pub checks: Vec<Check>,
    /// Span table of the traced run (kind, count, total ms, self ms).
    pub span_table: Vec<(String, u64, f64, f64)>,
}

impl Outcome {
    /// Whether every check holds and every metric is finite.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok) && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result as one line of JSON: `correct`, `attempted`, `failed`
    /// and `metrics` (name to value and unit).
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.ops.attempted,
            self.ops.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit of the measurement (Rust prints the
/// shortest string that reads back to the same `f64`); `null` when not
/// finite.
pub fn json_number(x: f64) -> String {
    if !x.is_finite() {
        return "null".into();
    }
    let s = format!("{x}");
    if s.contains(['.', 'e']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Run one workload in the untraced (`traced = false`) or traced mode.
pub fn run(w: Workload, p: &Params, traced: bool) -> Outcome {
    match w {
        Workload::PaperOnline => run_bench::<paper_online::PaperOnline>(p, traced),
        Workload::FleetM2000 => run_bench::<fleet_m2000::FleetM2000>(p, traced),
        Workload::ServeStorm => run_bench::<serve_storm::ServeStorm>(p, traced),
        Workload::DesReplay => run_bench::<des_replay::DesReplay>(p, traced),
    }
}

fn run_bench<B: Bench>(p: &Params, traced: bool) -> Outcome {
    if traced {
        run_traced::<B>(p)
    } else {
        run_untraced::<B>(p)
    }
}

/// Each set-up seed's fastest cold bootstrap over the set-up rounds so
/// far, and the fastest run of the reference kernel timed just before
/// it.
#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    bootstrap_s: [f64; SETUP_SEEDS.len()],
    reference_s: [f64; SETUP_SEEDS.len()],
}

impl SetupTimes {
    fn new() -> Self {
        SetupTimes {
            bootstrap_s: [f64::INFINITY; SETUP_SEEDS.len()],
            reference_s: [f64::INFINITY; SETUP_SEEDS.len()],
        }
    }

    /// One set-up round: the reference kernel and then a cold bootstrap
    /// on each of [`SETUP_SEEDS`]. Each bootstrap is dropped outside its
    /// timing and before the next one starts.
    fn round<B: Bench>(&mut self, p: &Params) {
        for (i, seed) in SETUP_SEEDS.into_iter().enumerate() {
            self.reference_s[i] = self.reference_s[i].min(reference::time_once());
            let t0 = Instant::now();
            let bench = B::bootstrap(&Params { seed, ..*p }, Probe::untraced());
            self.bootstrap_s[i] = self.bootstrap_s[i].min(t0.elapsed().as_secs_f64());
            drop(bench);
        }
    }

    /// Mean wall seconds of a cold bootstrap.
    fn wall_s(&self) -> f64 {
        stats::mean(&self.bootstrap_s)
    }

    /// Mean seconds of a cold bootstrap at the kernel's nominal speed.
    fn nominal_s(&self) -> f64 {
        self.wall_s() / stats::mean(&self.reference_s) * REFERENCE_NOMINAL_S
    }
}

/// Untraced: run the workload's prefix from a fresh bootstrap on the run
/// seed, and again while another run is expected to end within the time
/// budget. Each unit's time is its fastest over the runs; every run must
/// make the same decisions. `op_cost` divides the operations' mean time
/// by the reference kernel's, timed between units and reduced the same
/// way, so that a phase of the host that slows both cancels out.
///
/// `setup_s` is the mean over the set-up seeds of each one's fastest
/// cold bootstrap over [`SETUP_ROUNDS`] rounds, spread evenly over the
/// time budget between units (the rounds left when the runs end early
/// follow them), as a unit's time is its fastest over the runs; it is
/// scaled to [`REFERENCE_NOMINAL_S`] by the kernel timed before each
/// bootstrap and reduced the same way. The median round would not do: in a slow phase of the host
/// most rounds are slow, and on identical set-up work it moved by up to
/// 60 % from one run to the next, the fastest by under 15 %.
fn run_untraced<B: Bench>(p: &Params) -> Outcome {
    let probe = Probe::untraced();
    let t0 = Instant::now();
    let mut setup = SetupTimes::new();
    let mut setup_rounds = 0;
    let mut fastest: Vec<f64> = Vec::new();
    let mut digests = Vec::new();
    let mut ops = Ops::default();
    // The reference kernel runs before every `stride`-th unit; each of
    // those runs keeps its fastest time over the runs of the prefix, as
    // the units do.
    let mut reference_s: Vec<f64> = Vec::new();
    // Each run is dropped before the next starts, so peak memory is one
    // run's.
    let setup_every_s = p.seconds / SETUP_ROUNDS as f64;
    let mut next_setup_s = 0.0;
    let bench = loop {
        let mut bench = B::bootstrap(p, probe);
        let units = bench.prefix_units();
        let stride = units.div_ceil(REFERENCE_RUNS).max(1);
        fastest.resize(units, f64::INFINITY);
        reference_s.resize(units.div_ceil(stride), f64::INFINITY);
        for (i, t) in fastest.iter_mut().enumerate() {
            if setup_rounds < SETUP_ROUNDS && t0.elapsed().as_secs_f64() >= next_setup_s {
                setup.round::<B>(p);
                setup_rounds += 1;
                next_setup_s += setup_every_s;
            }
            bench.prepare();
            if i % stride == 0 {
                let r = &mut reference_s[i / stride];
                *r = r.min(reference::time_once());
            }
            *t = t.min(bench.unit(probe));
        }
        digests.push(bench.digest());
        ops += bench.ops();
        let (runs, spent) = (digests.len(), t0.elapsed().as_secs_f64());
        if spent + spent / runs as f64 > p.seconds {
            break bench;
        }
    };
    let summary = bench.summary(&fastest);
    let mut checks = bench.checks();
    drop(bench);
    for _ in setup_rounds..SETUP_ROUNDS {
        setup.round::<B>(p);
    }
    let (quality, quality_samples) = summary.quality;
    let op_s = stats::mean(&summary.op_s);
    let ref_s = stats::mean(&reference_s);
    let mut detail = summary.detail;
    detail.push(Metric::new(
        "setup_wall_s",
        "s",
        setup.wall_s(),
        SETUP_ROUNDS * SETUP_SEEDS.len(),
    ));
    detail.push(Metric::new(
        "op_ms_mean",
        "ms",
        op_s * 1e3,
        summary.op_s.len(),
    ));
    detail.push(Metric::new(
        "reference_ms",
        "ms",
        ref_s * 1e3,
        reference_s.len(),
    ));
    let metrics = vec![
        Metric::new(
            "setup_s",
            "s",
            setup.nominal_s(),
            SETUP_ROUNDS * SETUP_SEEDS.len(),
        ),
        Metric::new("op_cost", "ref", op_s / ref_s, summary.op_s.len()),
        Metric::new("peak_rss_mb", "MB", stats::peak_rss_mb(), 1),
        Metric::new("quality", "score", quality, quality_samples),
    ];
    checks.push(Check::new(
        "every run of the prefix made the same decisions",
        digests.iter().all(|&d| d == digests[0]),
        format!("{} runs, digests {digests:016x?}", digests.len()),
    ));
    Outcome {
        metrics,
        detail,
        ops,
        checks,
        span_table: Vec::new(),
    }
}

/// Run one unit and return the wall seconds spent inside it.
fn time_unit<B: Bench>(bench: &mut B, probe: Probe<'_>) -> f64 {
    bench.prepare();
    let t0 = Instant::now();
    let _ = bench.unit(probe);
    t0.elapsed().as_secs_f64()
}

/// Traced: run the prefix untraced and traced side by side, from
/// identical bootstraps, one unit of each in turn so that both meet the
/// same phases of the host. The digests must agree (tracing changes no
/// decision), and the wall-time ratio of the two is the tracing
/// overhead. Bootstraps, the first and those [`Bench::prepare`] runs,
/// stay untraced: they are set-up, not steady state.
fn run_traced<B: Bench>(p: &Params) -> Outcome {
    let plain_probe = Probe::untraced();
    let trace = TraceRecorder::default();
    let mut plain = B::bootstrap(p, plain_probe);
    let mut traced = B::bootstrap(p, plain_probe);
    let units = plain.prefix_units();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    for _ in 0..units {
        plain_s += time_unit(&mut plain, plain_probe);
        traced_s += time_unit(&mut traced, Probe::traced(&trace));
    }

    let layers = trace.layers();
    let mut metrics = layer_metrics(&trace, &layers, units, &traced.layer_extras());
    metrics.push(Metric::new(
        "obs.trace_overhead_pct",
        "%",
        (traced_s / plain_s - 1.0) * 100.0,
        units,
    ));
    let mut checks = Vec::new();
    for (arm, b) in [("untraced", &plain), ("traced", &traced)] {
        checks.extend(b.checks().into_iter().map(|mut c| {
            c.name = format!("{arm}: {}", c.name);
            c
        }));
    }
    checks.push(Check::new(
        "traced and untraced decisions are bit-identical",
        plain.digest() == traced.digest(),
        format!("digest {:016x} vs {:016x}", plain.digest(), traced.digest()),
    ));
    let mut ops = plain.ops();
    ops += traced.ops();
    let span_table = layers
        .iter()
        .map(|(kind, t)| {
            (
                kind.to_string(),
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
            )
        })
        .collect();
    Outcome {
        metrics,
        detail: Vec::new(),
        ops,
        checks,
        span_table,
    }
}

/// Milliseconds per unit from a nanosecond total.
pub fn ms_per_unit(ns: u64, units: usize) -> f64 {
    ns as f64 / 1e6 / units.max(1) as f64
}

/// A count per unit.
pub fn per_unit(count: u64, units: usize) -> f64 {
    count as f64 / units.max(1) as f64
}

/// `num / den`, 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Every per-layer metric, per unit of work, whatever the workload: a
/// layer the workload does not run reads 0 (a count of 0 means the
/// layer did no work; a ratio over nothing reads 0 with 0 samples).
pub fn layer_metrics(
    trace: &TraceRecorder,
    layers: &Layers,
    units: usize,
    extras: &LayerExtras,
) -> Vec<Metric> {
    let mut m = decision_layers(trace, layers, units, extras.feasible);
    m.extend(sim_layers(trace, layers, units));
    m.extend(bond_layers(trace, layers, units));
    m.extend(serve_layers(trace, layers, units, extras));
    m
}

/// Per-layer metrics of the decision path (`gp`, `core`, `bo`,
/// `sched`), per unit of work. `feasible` is (feasible objective
/// evaluations, all objective evaluations) read off the decisions.
fn decision_layers(
    trace: &TraceRecorder,
    layers: &Layers,
    units: usize,
    feasible: (u64, u64),
) -> Vec<Metric> {
    use eva_obs::Phase;
    let n = units;
    let decide = layers.phase(Phase::Decide);
    let fits = trace.counter("gp.fits");
    let (feasible_ok, feasible_all) = feasible;
    vec![
        Metric::new(
            "gp.fit_ms",
            "ms",
            ms_per_unit(layers.phase(Phase::GpFit).total_ns, n),
            n,
        ),
        Metric::new(
            "core.outcome_fit_self_ms",
            "ms",
            ms_per_unit(layers.phase(Phase::OutcomeFit).self_ns, n),
            n,
        ),
        Metric::new("gp.fits", "count", per_unit(fits, n), n),
        Metric::new(
            "gp.warm_start_frac",
            "ratio",
            ratio(trace.counter("gp.fit.warm_starts"), fits),
            fits as usize,
        ),
        Metric::new(
            "gp.solver_evals",
            "count",
            trace.observed("gp.fit.solver_evals").sum / n.max(1) as f64,
            n,
        ),
        Metric::new(
            "gp.cholesky_dim_max",
            "count",
            trace.observed("gp.cholesky.dim").max,
            fits as usize,
        ),
        Metric::new(
            "core.pref_model_ms",
            "ms",
            ms_per_unit(layers.phase(Phase::PrefModel).total_ns, n),
            n,
        ),
        Metric::new(
            "core.comparisons_used",
            "count",
            trace.observed("core.comparisons_used").sum / n.max(1) as f64,
            n,
        ),
        Metric::new(
            "bo.search_self_ms",
            "ms",
            ms_per_unit(layers.phase(Phase::BoSearch).self_ns, n),
            n,
        ),
        Metric::new(
            "core.objective_evals",
            "count",
            per_unit(trace.counter("core.objective_evals"), n),
            n,
        ),
        Metric::new(
            "bo.observations",
            "count",
            trace.observed("core.bo_observations").sum / n.max(1) as f64,
            n,
        ),
        Metric::new(
            "sched.grouping_ms",
            "ms",
            ms_per_unit(layers.phase(Phase::Grouping).total_ns, n),
            n,
        ),
        Metric::new(
            "sched.assignment_ms",
            "ms",
            ms_per_unit(layers.phase(Phase::Assignment).total_ns, n),
            n,
        ),
        Metric::new(
            "sched.assignments",
            "count",
            per_unit(trace.counter("sched.assignments"), n),
            n,
        ),
        Metric::new(
            "sched.hungarian_solves",
            "count",
            per_unit(trace.counter("sched.hungarian_solves"), n),
            n,
        ),
        Metric::new(
            "sched.auction_solves",
            "count",
            per_unit(trace.counter("sched.auction_solves"), n),
            n,
        ),
        Metric::new(
            "sched.auction_fallbacks",
            "count",
            per_unit(trace.counter("sched.auction_fallbacks"), n),
            n,
        ),
        Metric::new(
            "core.decide_unattributed_pct",
            "%",
            100.0 * ratio(decide.self_ns, decide.total_ns),
            decide.count as usize,
        ),
        Metric::new(
            "core.feasible_eval_frac",
            "ratio",
            ratio(feasible_ok, feasible_all),
            feasible_all as usize,
        ),
    ]
}

/// Per-layer metrics of the discrete-event simulator, per unit.
fn sim_layers(trace: &TraceRecorder, layers: &Layers, units: usize) -> Vec<Metric> {
    let n = units;
    vec![
        Metric::new(
            "sim.des_ms",
            "ms",
            ms_per_unit(layers.phase(eva_obs::Phase::Des).total_ns, n),
            n,
        ),
        Metric::new(
            "sim.frames",
            "count",
            per_unit(trace.counter("des.frames"), n),
            n,
        ),
        Metric::new(
            "sim.events",
            "count",
            per_unit(trace.counter("des.events"), n),
            n,
        ),
        Metric::new(
            "sim.retries",
            "count",
            per_unit(trace.counter("des.retries"), n),
            n,
        ),
        Metric::new(
            "sim.dropped",
            "count",
            per_unit(trace.counter("des.dropped"), n),
            n,
        ),
        Metric::new(
            "sim.max_queue_len",
            "count",
            trace.observed("des.max_queue_len").max,
            n,
        ),
    ]
}

/// Per-layer metrics of bonded-uplink striping, per unit.
fn bond_layers(trace: &TraceRecorder, layers: &Layers, units: usize) -> Vec<Metric> {
    let n = units;
    vec![
        Metric::new(
            "bond.stripe_ms",
            "ms",
            ms_per_unit(layers.phase(eva_obs::Phase::BondStripe).total_ns, n),
            n,
        ),
        Metric::new(
            "bond.packets",
            "count",
            per_unit(trace.counter("bond.packets"), n),
            n,
        ),
        Metric::new(
            "bond.hol_wait_s",
            "s",
            trace.observed("bond.hol_wait_s").sum / n.max(1) as f64,
            n,
        ),
        Metric::new(
            "bond.max_reorder_depth",
            "count",
            trace.observed("bond.max_reorder_depth").max,
            n,
        ),
    ]
}

/// Per-layer metrics of admission and repair in `eva-serve`, per unit.
fn serve_layers(
    trace: &TraceRecorder,
    layers: &Layers,
    units: usize,
    extras: &LayerExtras,
) -> Vec<Metric> {
    use eva_obs::Phase;
    let n = units;
    let inc = trace.counter("serve.replan_incremental");
    let full = trace.counter("serve.replan_full");
    let coalesced = trace.counter("serve.replan_coalesced");
    vec![
        Metric::new(
            "serve.admission_ms",
            "ms",
            ms_per_unit(layers.phase(Phase::Admission).total_ns, n),
            n,
        ),
        Metric::new(
            "serve.admission_probes",
            "count",
            per_unit(trace.counter("serve.admission_probes"), n),
            n,
        ),
        Metric::new(
            "serve.replan_ms",
            "ms",
            ms_per_unit(layers.phase(Phase::Replan).total_ns, n),
            n,
        ),
        Metric::new("serve.replans_incremental", "count", per_unit(inc, n), n),
        Metric::new("serve.replans_full", "count", per_unit(full, n), n),
        Metric::new(
            "serve.replans_coalesced",
            "count",
            per_unit(coalesced, n),
            n,
        ),
        Metric::new(
            "serve.incremental_frac",
            "ratio",
            ratio(inc, inc + full + coalesced),
            (inc + full + coalesced) as usize,
        ),
        Metric::new(
            "serve.shed",
            "count",
            per_unit(trace.counter("serve.shed"), n),
            n,
        ),
        Metric::new("serve.queued_peak", "count", extras.queued_peak as f64, 1),
        Metric::new(
            "serve.budget_units",
            "count",
            per_unit(extras.budget_units, n),
            n,
        ),
    ]
}

/// Mean of a warm-decision sample in milliseconds, as a metric.
pub fn decide_mean(samples_s: &[f64]) -> Metric {
    Metric::new(
        "decide_ms_mean",
        "ms",
        stats::mean(samples_s) * 1e3,
        samples_s.len(),
    )
}

/// Fold a decision (configurations and benefit bits) into a digest.
pub fn digest_decision(d: &mut stats::Digest, configs: &[eva_workload::VideoConfig], benefit: f64) {
    for c in configs {
        d.float(c.resolution);
        d.float(c.fps);
    }
    d.float(benefit);
}

/// Objective evaluations of a decision that were feasible, and all of
/// them (the BO observation log holds one entry per evaluation).
pub fn feasible_evals(bo: &eva_bo::BoResult) -> (u64, u64) {
    let feasible = bo
        .observations
        .iter()
        .filter(|(_, y)| *y > pamo_core::composite::INFEASIBLE_BENEFIT)
        .count();
    (feasible as u64, bo.observations.len() as u64)
}
