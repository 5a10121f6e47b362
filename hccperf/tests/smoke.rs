//! Tiny-size smoke runs of every workload: each named metric of
//! `BENCHMARK.json` is emitted with its unit, the checks pass, and a
//! corrupted reference digest fails the run.

use hcc_types::json::Json;
use hccperf::{Outcome, Params, Size, Workload, END_TO_END, PER_LAYER};

fn params(workload: Workload, trace: bool, reference: Option<u64>) -> Params {
    Params {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        size: Size::TINY,
        reference,
        out_dir: None,
        program: env!("CARGO_BIN_EXE_hccperf").into(),
    }
}

fn tiny(workload: Workload, trace: bool, reference: Option<u64>) -> Outcome {
    hccperf::run(&params(workload, trace, reference))
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn emitted(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let as_owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), as_owned(&END_TO_END));
    assert_eq!(declared("per_layer"), as_owned(&PER_LAYER));
    for workload in Workload::ALL {
        for trace in [false, true] {
            let out = tiny(workload, trace, None);
            assert!(out.correct, "{}: {:?}", workload.name(), out.problems);
            assert!(out.attempted > 0);
            assert_eq!(out.failed, 0);
            let key = if trace { "per_layer" } else { "end_to_end" };
            assert_eq!(emitted(&out), declared(key), "{}", workload.name());
            assert!(out.metrics.iter().all(|m| m.value.is_finite()));
            if !trace {
                assert!(out.metrics.iter().all(|m| m.value > 0.0), "{out:?}");
            }
            let line = Json::parse(&out.to_json().to_string()).expect("result parses");
            for k in ["correct", "attempted", "failed", "metrics"] {
                assert!(line.get(k).is_some(), "{k}");
            }
        }
    }
}

#[test]
fn a_corrupted_reference_digest_fails_the_check() {
    let first = tiny(Workload::ServeCalm, false, None);
    assert!(first.correct, "{:?}", first.problems);
    let same = tiny(Workload::ServeCalm, false, Some(first.digest));
    assert!(same.correct, "{:?}", same.problems);
    let corrupted = tiny(Workload::ServeCalm, false, Some(first.digest ^ 1));
    assert!(!corrupted.correct);
    assert!(corrupted.problems.iter().any(|p| p.contains("reference")));
}

#[test]
fn a_set_up_process_that_cannot_start_fails_the_run() {
    let out = hccperf::run(&Params {
        program: "no-such-hccperf-binary".into(),
        ..params(Workload::ServeCalm, false, None)
    });
    assert!(!out.correct);
    assert!(out.problems.iter().any(|p| p.contains("set-up process")));
}

#[test]
fn counts_repeat_and_planes_stay_off_on_serve_calm() {
    let layer = |out: &Outcome, name: &str| {
        out.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .expect("metric present")
    };
    let a = tiny(Workload::ServeCalm, true, None);
    let b = tiny(Workload::ServeCalm, true, None);
    let requests = Size::TINY.serve_requests as f64;
    assert_eq!(layer(&a, "engine.hits"), 2.0 * requests);
    for name in [
        "watch.s",
        "watch.windows",
        "flight.s",
        "flight.exemplars",
        "storm.s",
    ] {
        assert_eq!(layer(&a, name), 0.0, "{name}");
    }
    for name in [
        "engine.hits",
        "engine.misses",
        "cluster.settled",
        "render.bytes",
    ] {
        assert_eq!(layer(&a, name), layer(&b, name), "{name}");
    }
    let chaos = tiny(Workload::ChaosForensics, true, None);
    assert_eq!(layer(&chaos, "engine.hits"), 0.0);
    assert!(layer(&chaos, "flight.exemplars") > 0.0);
}
