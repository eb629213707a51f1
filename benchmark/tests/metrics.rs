//! Every workload at a smoke size, untraced and traced: each emits
//! exactly the metrics `BENCHMARK.json` declares for the mode, finite and
//! in the declared unit, and its result line parses.

use std::collections::{BTreeMap, BTreeSet};

use pamo_benchmark::{run, Outcome, Params, Workload};

fn benchmark_json() -> serde_json::Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `name -> unit` of one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> BTreeMap<String, String> {
    benchmark_json()
        .get(list)
        .and_then(|l| l.as_array())
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {list}"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(|v| v.as_str())
                    .unwrap_or_else(|| panic!("{list} entry lacks {k}"))
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn tiny(seed: u64) -> Params {
    Params {
        seed,
        seconds: 0.0,
        tiny: true,
    }
}

/// The outcome emits exactly the metrics of `units`, each finite and in
/// its declared unit, and the run is correct with nothing failed.
fn assert_emits(w: Workload, out: &Outcome, units: &BTreeMap<String, String>) {
    let names: BTreeSet<&str> = out.metrics.iter().map(|m| m.name).collect();
    let want: BTreeSet<&str> = units.keys().map(String::as_str).collect();
    assert_eq!(names, want, "{}: metric set", w.name());
    assert_eq!(
        names.len(),
        out.metrics.len(),
        "{}: duplicate metric",
        w.name()
    );
    for m in &out.metrics {
        assert!(
            m.value.is_finite(),
            "{}: {} = {}",
            w.name(),
            m.name,
            m.value
        );
        assert_eq!(
            units.get(m.name).map(String::as_str),
            Some(m.unit),
            "{}: unit of {}",
            w.name(),
            m.name
        );
    }
    let failed: Vec<_> = out.checks.iter().filter(|c| !c.ok).collect();
    assert!(failed.is_empty(), "{}: failed checks {failed:?}", w.name());
    assert!(out.correct(), "{}: not correct", w.name());
    assert!(out.ops.attempted >= 1, "{}: nothing attempted", w.name());
    assert_eq!(out.ops.failed, 0, "{}: operations failed", w.name());

    let line = serde_json::from_str(&out.result_json()).expect("result line parses");
    let obj = line.as_object().expect("result line is an object");
    let keys: BTreeSet<&str> = obj.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        BTreeSet::from(["attempted", "correct", "failed", "metrics"])
    );
    assert_eq!(obj.get("correct").and_then(|v| v.as_bool()), Some(true));
    let metrics = obj
        .get("metrics")
        .and_then(|v| v.as_object())
        .expect("metrics object");
    for m in &out.metrics {
        let entry = metrics.get(m.name).expect("metric in the result line");
        assert_eq!(entry.get("value").and_then(|v| v.as_f64()), Some(m.value));
        assert_eq!(entry.get("unit").and_then(|v| v.as_str()), Some(m.unit));
    }
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let e2e_units = declared("end_to_end");
    let layer_units = declared("per_layer");
    for w in Workload::ALL {
        let untraced = run(w, &tiny(3), false);
        assert_emits(w, &untraced, &e2e_units);
        for m in &untraced.metrics {
            assert!(m.value > 0.0, "{}: {} = {}", w.name(), m.name, m.value);
        }
        assert!(!untraced.detail.is_empty(), "{}: no detail", w.name());

        let traced = run(w, &tiny(3), true);
        assert_emits(w, &traced, &layer_units);
    }
}

#[test]
fn quality_repeats_exactly_for_a_seed() {
    for w in Workload::ALL {
        let a = run(w, &tiny(11), false);
        let b = run(w, &tiny(11), false);
        let bits = |o: &Outcome, name: &str| {
            o.metrics
                .iter()
                .chain(&o.detail)
                .find(|m| m.name == name)
                .map(|m| m.value.to_bits())
        };
        for name in [
            "quality",
            "benefit_u",
            "value_per_server",
            "admitted_frac",
            "frame_miss_frac",
        ] {
            assert_eq!(bits(&a, name), bits(&b, name), "{}: {name}", w.name());
        }
    }
}

#[test]
fn every_driven_workload_exists() {
    let doc = benchmark_json();
    let workloads = doc
        .get("workloads")
        .and_then(|l| l.as_array())
        .expect("BENCHMARK.json lists workloads");
    assert!(!workloads.is_empty());
    for w in workloads {
        let name = w
            .get("name")
            .and_then(|v| v.as_str())
            .expect("workload name");
        assert!(Workload::parse(name).is_some(), "unknown workload {name}");
    }
}
