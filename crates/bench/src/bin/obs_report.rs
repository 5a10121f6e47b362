//! Observability report: per-scenario queue depths from the virtual-time
//! metrics plane, with the saturated resource flagged per row.
//!
//! Runs every standard app in both modes with metrics forced on (the
//! simulated traces are identical to the obs-off runs — the plane only
//! observes), prints peak and time-weighted mean depth for the principal
//! queues, and names the queue whose integrated waiting time dominates.
//!
//! Every snapshot is round-tripped through the in-repo JSON parser as a
//! self-check; `--json <path>` / `--prom <path>` additionally write the
//! machine-readable exports (all snapshots as JSON; the worst scenario's
//! Prometheus text page).
//!
//! `--serve` / `--chaos` additionally drive a small serving or chaos
//! soak and report its `serving.queue_depth` snapshot per cell, so soak
//! metrics flow through the same self-check, drift audit, and exports
//! as the per-scenario planes. Any gauge whose final change-point is
//! nonzero earns a `WARN ... drift` line: a queue that never drained
//! back to zero usually means a release was never recorded.

use hcc_bench::chaos::ChaosConfig;
use hcc_bench::cli::{self, Cli};
use hcc_bench::serving::ServingConfig;
use hcc_bench::{chaos, engine, figures, report, serving};
use hcc_trace::metrics::{to_prometheus, MetricsSet};
use hcc_types::json::{Json, ToJson};
use hcc_types::{CcMode, RecoveryPolicy, SimDuration, SimTime, StormProfile};
use hcc_workloads::{suites, Scenario};

const CLI: Cli = Cli {
    bin: "obs_report",
    usage: "usage: obs_report [--serve] [--chaos] [--json <path>] [--prom <path>]",
};

/// Queue-style gauges (unit: items waiting) ranked when flagging the
/// saturated resource. Occupancy gauges in other units (bounce bytes)
/// are reported but never ranked against these.
const QUEUES: [&str; 7] = [
    "gpu.cp.queue",
    "gpu.compute.queue",
    "gpu.copy-h2d.queue",
    "gpu.copy-d2h.queue",
    "gpu.copy-d2d.queue",
    "tee.crypto.queue",
    "uvm.migration_backlog",
];

fn scenarios() -> Vec<Scenario> {
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

/// The queue with the largest integrated waiting time, with that
/// integral — `None` when every queue stayed empty.
fn saturated(set: &MetricsSet) -> Option<(&'static str, SimDuration)> {
    QUEUES
        .iter()
        .filter_map(|&name| Some((name, set.gauge_integral(name)?)))
        .filter(|(_, wait)| !wait.is_zero())
        .max_by_key(|&(_, wait)| wait)
}

/// Audit a snapshot for end-of-run drift: a gauge whose final
/// change-point is nonzero never drained back to its baseline. Prints
/// one WARN line per drifting gauge and returns how many fired.
fn warn_drift(label: &str, set: &MetricsSet) -> usize {
    let mut fired = 0;
    for s in &set.gauges {
        let v = s.final_value();
        if v != 0 {
            println!(
                "WARN {label}: gauge {} drifted: final value {v} != 0",
                s.name
            );
            fired += 1;
        }
    }
    fired
}

/// Soak snapshots taken by `--serve` / `--chaos`: one labelled metrics
/// set per (scheduler|policy, cc-mode) cell, with the cell's virtual
/// end time for mean-depth normalisation.
fn soak_snapshots(serve: bool, storm: bool) -> Vec<(String, SimTime, MetricsSet)> {
    let mut out = Vec::new();
    if serve {
        let cfg = ServingConfig {
            requests: 2_000,
            gpus: 2,
            ..ServingConfig::default()
        };
        let rep = serving::run(&cfg, engine::global());
        for run in &rep.runs {
            for mode in &run.modes {
                out.push((
                    format!("serve:{}/{}", run.scheduler, mode.cc),
                    mode.end,
                    mode.metrics.clone(),
                ));
            }
        }
    }
    if storm {
        let cfg = ChaosConfig {
            requests: 1_000,
            days: 1,
            gpus: 2,
            profiles: vec![StormProfile::crypto_burst()],
            policies: vec![RecoveryPolicy::Abort],
            ..ChaosConfig::default()
        };
        let rep = chaos::run(&cfg, engine::global());
        for prof in &rep.profiles {
            for cell in &prof.cells {
                out.push((
                    format!("chaos:{}/{}", prof.profile.name, cell.policy),
                    cell.mode.end,
                    cell.mode.metrics.clone(),
                ));
            }
        }
    }
    out
}

fn main() {
    let mut json_path: Option<String> = None;
    let mut prom_path: Option<String> = None;
    let mut serve_soak = false;
    let mut chaos_soak = false;
    let mut args = CLI.args();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json_path = Some(CLI.value(&arg, args.next())),
            "--prom" => prom_path = Some(CLI.value(&arg, args.next())),
            "--serve" => serve_soak = true,
            "--chaos" => chaos_soak = true,
            _ => CLI.bad(&arg, "unknown flag"),
        }
    }

    report::section("observability — queue depth & saturation per scenario");
    println!(
        "{:<16} {:>4} {:>7} {:>9} {:>7} {:>9} {:>7} {:>9}  {}",
        "app",
        "mode",
        "ring.pk",
        "ring.mean",
        "cmp.pk",
        "cmp.mean",
        "uvm.pk",
        "uvm.mean",
        "saturated"
    );

    let batch = scenarios();
    let results = engine::global().run_all(&batch);

    let mut total_samples = 0usize;
    let mut flagged = 0usize;
    let mut drift = 0usize;
    let mut json_rows: Vec<Json> = Vec::new();
    // The scenario whose saturated queue waited longest overall — its
    // Prometheus page is the most interesting one to export.
    let mut worst: Option<(String, SimDuration, MetricsSet)> = None;

    for (scenario, result) in batch.iter().zip(&results) {
        let run = match result.run() {
            Ok(run) => run,
            Err(f) => {
                println!("!! {f}");
                continue;
            }
        };
        let set = run
            .metrics
            .as_ref()
            .expect("metrics-enabled scenario carries a snapshot");

        // Self-check: the snapshot must survive the in-repo JSON parser.
        let reparsed = Json::parse(&set.to_json_string()).expect("snapshot JSON parses");
        assert!(
            reparsed.get("gauges").is_some(),
            "snapshot JSON lost its gauges"
        );

        let span = run.timeline.span();
        let depth = |name: &str| {
            set.gauge_series(name)
                .map(|s| (s.peak(), s.mean_over(span)))
                .unwrap_or((0, 0.0))
        };
        let (ring_pk, ring_mean) = depth("gpu.ring.occupancy");
        let (cmp_pk, cmp_mean) = depth("gpu.compute.queue");
        let (uvm_pk, uvm_mean) = depth("uvm.outstanding_faults");

        let hot = saturated(set);
        let hot_label = match hot {
            Some((name, wait)) => {
                flagged += 1;
                format!("{name} (waited {wait})")
            }
            None => "-".to_string(),
        };
        total_samples += set.total_samples();

        println!(
            "{:<16} {:>4} {:>7} {:>9.3} {:>7} {:>9.3} {:>7} {:>9.3}  {}",
            scenario.app_name(),
            scenario.cc().to_string(),
            ring_pk,
            ring_mean,
            cmp_pk,
            cmp_mean,
            uvm_pk,
            uvm_mean,
            hot_label
        );
        drift += warn_drift(&result.label, set);

        if let Some((_, wait)) = hot {
            let replace = worst.as_ref().is_none_or(|(_, w, _)| wait > *w);
            if replace {
                worst = Some((result.label.clone(), wait, set.clone()));
            }
        }
        json_rows.push(Json::Obj(vec![
            (
                "app".to_string(),
                Json::Str(scenario.app_name().to_string()),
            ),
            ("cc".to_string(), Json::Str(scenario.cc().to_string())),
            (
                "saturated".to_string(),
                match hot {
                    Some((name, _)) => Json::Str(name.to_string()),
                    None => Json::Null,
                },
            ),
            ("metrics".to_string(), set.to_json()),
        ]));
    }

    let soaks = soak_snapshots(serve_soak, chaos_soak);
    if !soaks.is_empty() {
        report::section("observability — soak snapshots (serving.queue_depth)");
        println!(
            "{:<28} {:>10} {:>7} {:>9}  {}",
            "soak", "end", "q.pk", "q.mean", "saturated"
        );
        for (label, end, set) in &soaks {
            let reparsed = Json::parse(&set.to_json_string()).expect("snapshot JSON parses");
            assert!(
                reparsed.get("gauges").is_some(),
                "soak snapshot JSON lost its gauges"
            );
            let span = end.saturating_since(SimTime::ZERO);
            let (q_pk, q_mean) = set
                .gauge_series("serving.queue_depth")
                .map(|s| (s.peak(), s.mean_over(span)))
                .unwrap_or((0, 0.0));
            let hot = set
                .gauge_integral("serving.queue_depth")
                .filter(|wait| !wait.is_zero())
                .map(|wait| format!("serving.queue_depth (waited {wait})"))
                .unwrap_or_else(|| "-".to_string());
            println!(
                "{label:<28} {:>10} {q_pk:>7} {q_mean:>9.3}  {hot}",
                end.to_string()
            );
            drift += warn_drift(label, set);
            total_samples += set.total_samples();
            json_rows.push(Json::Obj(vec![
                ("soak".to_string(), Json::Str(label.clone())),
                ("metrics".to_string(), set.to_json()),
            ]));
        }
    }

    println!(
        "\nsnapshots: {} scenarios, {} samples, {} saturated (json round-trip OK)",
        results.len(),
        total_samples,
        flagged
    );
    println!(
        "gauge drift audit: {} snapshots, {} drift warnings",
        results.len() + soaks.len(),
        drift
    );
    if let Some((label, wait, _)) = &worst {
        println!("hottest scenario: {label} (saturated queue waited {wait})");
    }

    if let Some(path) = json_path {
        cli::write_or_die(&path, &Json::Arr(json_rows).to_string());
    }
    if let Some(path) = prom_path {
        let page = match &worst {
            Some((_, _, set)) => to_prometheus(set),
            None => String::new(),
        };
        cli::write_or_die(&path, &page);
    }

    engine::emit_stats();
}
