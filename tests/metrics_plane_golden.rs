//! Golden snapshot of the per-scenario metrics plane.
//!
//! Every standard app runs in both modes with metrics on (the
//! `obs_report` population). Each instrument gets one line in
//! `tests/golden/metrics_plane.txt`: its name, its kind, its total
//! (change-points for a gauge, the summed total for a counter) and the
//! FNV-1a digest of its JSON rendering in every snapshot, concatenated in
//! scenario order. The digest pins every gauge step, so a change to how
//! an instrument gets its data must reproduce the exact series, not just
//! its integral.
//!
//! The same file pins the size of a trace event: the timeline is the
//! largest allocation of a simulation, and the metrics plane must not
//! buy its inputs with a wider event.
//!
//! To bless a deliberate change:
//! `HCC_BLESS=1 cargo test --test metrics_plane_golden`.

use std::path::PathBuf;

use hcc_bench::engine::ExperimentEngine;
use hcc_bench::figures;
use hcc_types::hash::Fnv64;
use hcc_types::json::{Json, ToJson};
use hcc_types::CcMode;
use hcc_workloads::{suites, Scenario};

fn obs_scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();
    for spec in suites::all() {
        for cc in CcMode::ALL {
            out.push(Scenario::standard(
                spec.name,
                figures::cfg(cc).with_metrics(true),
            ));
        }
    }
    out
}

/// One instrument's running entry: `(name, kind, total, digest)`.
type Entry = (String, &'static str, u64, Fnv64);

fn render() -> String {
    let batch = obs_scenarios();
    let mut entries: Vec<Entry> = Vec::new();
    for result in ExperimentEngine::new(2).run_all(&batch) {
        let set = result
            .expect_run()
            .metrics
            .as_ref()
            .expect("metrics enabled");
        let json = set.to_json();
        for (key, kind) in [("counters", "counter"), ("gauges", "gauge")] {
            for item in json.get(key).and_then(Json::as_array).unwrap_or(&[]) {
                let name = item.get("name").and_then(Json::as_str).unwrap();
                let total = match kind {
                    "counter" => item.get("total").and_then(Json::as_u64).unwrap(),
                    _ => item.get("samples").and_then(Json::as_array).unwrap().len() as u64,
                };
                let idx = match entries.iter().position(|e| e.0 == name) {
                    Some(i) => i,
                    None => {
                        entries.push((name.to_string(), kind, 0, Fnv64::new()));
                        entries.len() - 1
                    }
                };
                let entry = &mut entries[idx];
                entry.2 += total;
                entry.3.write_str(&item.to_string());
            }
        }
    }
    let mut text = format!("{} scenarios, {} instruments\n", batch.len(), entries.len());
    for (name, kind, total, digest) in &entries {
        text.push_str(&format!("{name} {kind} {total} {:016x}\n", digest.finish()));
    }
    text
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/metrics_plane.txt")
}

#[test]
fn metrics_plane_matches_golden_snapshot() {
    let text = render();
    let path = golden_path();
    if std::env::var_os("HCC_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); bless with HCC_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        text, golden,
        "metrics plane drifted from the golden snapshot; \
         if intentional, re-bless with HCC_BLESS=1"
    );
}

#[test]
fn trace_event_stays_56_bytes() {
    assert_eq!(std::mem::size_of::<hcc_trace::TraceEvent>(), 56);
}
