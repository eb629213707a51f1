//! The traced run's recorder: spans with their nesting, plus the
//! program's counters and histograms.
//!
//! The program reports a span only when it closes, as a phase and a
//! duration ([`Recorder::record_span`]). The recorder stamps the close
//! time and rebuilds the start as close time minus duration. Spans
//! close in post-order on one thread, so the nesting follows from the
//! close order: a closing span adopts every earlier parentless span
//! that started inside it. A layer's self time is its duration minus
//! the durations of its direct children.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use eva_obs::{NoopRecorder, Phase, Recorder};

/// Slack for the start times rebuilt from close time minus duration:
/// the program reads the clock for the duration a few nanoseconds
/// before the recorder stamps the close.
const START_SLACK_NS: u64 = 200;

/// What a span measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A phase span emitted by the program.
    Phase(Phase),
    /// The benchmark's own timing of a call into a layer's public
    /// function.
    Call(&'static str),
}

impl SpanKind {
    /// Display name: the phase name, or the called function.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Phase(p) => p.as_str(),
            SpanKind::Call(name) => name,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct SpanRec {
    kind: SpanKind,
    start_ns: u64,
    end_ns: u64,
}

/// Aggregate of one histogram the program observes into.
#[derive(Debug, Clone, Copy, Default)]
pub struct ObsAgg {
    /// Number of observations.
    pub count: u64,
    /// Sum of the observed values.
    pub sum: f64,
    /// Largest observed value.
    pub max: f64,
}

#[derive(Default)]
struct TraceData {
    spans: Vec<SpanRec>,
    counters: BTreeMap<&'static str, u64>,
    observed: BTreeMap<&'static str, ObsAgg>,
}

/// In-memory recorder of the traced run.
pub struct TraceRecorder {
    origin: Instant,
    data: Mutex<TraceData>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder {
            origin: Instant::now(),
            data: Mutex::new(TraceData::default()),
        }
    }
}

impl TraceRecorder {
    fn lock(&self) -> std::sync::MutexGuard<'_, TraceData> {
        self.data
            .lock()
            .expect("trace recorder lock poisoned by a panicking workload")
    }

    fn push(&self, kind: SpanKind, nanos: u64) {
        let end_ns = u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.lock().spans.push(SpanRec {
            kind,
            start_ns: end_ns.saturating_sub(nanos),
            end_ns,
        });
    }

    /// Value of a program counter (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Aggregate of a program histogram (all zero when never observed).
    pub fn observed(&self, name: &str) -> ObsAgg {
        self.lock().observed.get(name).copied().unwrap_or_default()
    }

    /// Per-kind span totals with the nesting rebuilt.
    pub fn layers(&self) -> Layers {
        let data = self.lock();
        let spans = &data.spans;
        let mut child_ns = vec![0u64; spans.len()];
        // Closed spans that have no parent yet, in close order.
        let mut open: Vec<usize> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            while let Some(&top) = open.last() {
                if spans[top].start_ns + START_SLACK_NS < s.start_ns {
                    break;
                }
                child_ns[i] += spans[top].end_ns - spans[top].start_ns;
                open.pop();
            }
            open.push(i);
        }
        let mut by_kind: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, &children) in spans.iter().zip(&child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = by_kind.entry(s.kind.name()).or_default();
            e.count += 1;
            e.total_ns += total;
            e.self_ns += total.saturating_sub(children);
        }
        Layers { by_kind }
    }
}

impl Recorder for TraceRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record_span(&self, phase: Phase, nanos: u64) {
        self.push(SpanKind::Phase(phase), nanos);
    }

    fn add(&self, name: &'static str, delta: u64) {
        *self.lock().counters.entry(name).or_default() += delta;
    }

    fn observe(&self, name: &'static str, value: f64) {
        let mut data = self.lock();
        let agg = data.observed.entry(name).or_default();
        agg.count += 1;
        agg.sum += value;
        agg.max = if agg.count == 1 {
            value
        } else {
            agg.max.max(value)
        };
    }
}

/// Time totals of one span kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration not covered by direct child spans.
    pub self_ns: u64,
}

/// Span totals by kind name, from [`TraceRecorder::layers`].
#[derive(Debug, Clone, Default)]
pub struct Layers {
    by_kind: BTreeMap<&'static str, LayerTime>,
}

impl Layers {
    /// Totals of one kind (zero when it never ran).
    pub fn get(&self, kind: SpanKind) -> LayerTime {
        self.by_kind.get(kind.name()).copied().unwrap_or_default()
    }

    /// Totals of one program phase.
    pub fn phase(&self, phase: Phase) -> LayerTime {
        self.get(SpanKind::Phase(phase))
    }

    /// Every kind seen, by name, for the human-readable table.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, LayerTime)> + '_ {
        self.by_kind.iter().map(|(k, v)| (*k, *v))
    }
}

static NOOP: NoopRecorder = NoopRecorder;

/// What a workload hands the program, and how it times its own calls.
#[derive(Clone, Copy)]
pub struct Probe<'a> {
    trace: Option<&'a TraceRecorder>,
}

impl<'a> Probe<'a> {
    /// The untraced run: the program gets the no-op recorder.
    pub fn untraced() -> Self {
        Probe { trace: None }
    }

    /// The traced run.
    pub fn traced(trace: &'a TraceRecorder) -> Self {
        Probe { trace: Some(trace) }
    }

    /// The recorder to pass into the program's `*_recorded` entry points.
    pub fn rec(&self) -> &'a dyn Recorder {
        match self.trace {
            Some(t) => t,
            None => &NOOP,
        }
    }

    /// Run and time `f`, a call into one layer's public function; when
    /// traced, the call becomes a span that the program's spans nest in.
    /// Returns the result and the wall time in seconds.
    pub fn call<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = Instant::now();
        let out = f();
        let elapsed = t0.elapsed();
        if let Some(t) = self.trace {
            t.push(
                SpanKind::Call(name),
                u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
            );
        }
        (out, elapsed.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_obs::span;

    fn spin(micros: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(micros) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nesting_is_rebuilt_from_close_order() {
        let rec = TraceRecorder::default();
        let probe = Probe::traced(&rec);
        probe.call("outer", || {
            let _d = span(&rec, Phase::Decide);
            {
                let _f = span(&rec, Phase::OutcomeFit);
                for _ in 0..2 {
                    let _g = span(&rec, Phase::GpFit);
                    spin(300);
                }
                spin(300);
            }
            spin(300);
        });
        let layers = rec.layers();
        let gp = layers.phase(Phase::GpFit);
        let fit = layers.phase(Phase::OutcomeFit);
        let decide = layers.phase(Phase::Decide);
        let outer = layers.get(SpanKind::Call("outer"));
        assert_eq!(gp.count, 2);
        assert_eq!(gp.self_ns, gp.total_ns, "leaf spans are all self time");
        assert_eq!(fit.self_ns, fit.total_ns - gp.total_ns);
        assert_eq!(decide.self_ns, decide.total_ns - fit.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - decide.total_ns);
        assert!(fit.self_ns >= 250_000, "fit self {}", fit.self_ns);
        assert!(decide.self_ns >= 250_000, "decide self {}", decide.self_ns);
    }

    #[test]
    fn siblings_are_not_adopted() {
        let rec = TraceRecorder::default();
        {
            let _a = span(&rec, Phase::Grouping);
            spin(200);
        }
        spin(50);
        {
            let _b = span(&rec, Phase::Assignment);
            spin(200);
        }
        let layers = rec.layers();
        let b = layers.phase(Phase::Assignment);
        assert_eq!(b.self_ns, b.total_ns);
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        let rec = TraceRecorder::default();
        rec.add("gp.fits", 2);
        rec.add("gp.fits", 3);
        rec.observe("gp.cholesky.dim", 4.0);
        rec.observe("gp.cholesky.dim", 9.0);
        assert_eq!(rec.counter("gp.fits"), 5);
        assert_eq!(rec.counter("missing"), 0);
        let dim = rec.observed("gp.cholesky.dim");
        assert_eq!((dim.count, dim.sum, dim.max), (2, 13.0, 9.0));
    }
}
