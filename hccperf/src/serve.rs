//! `serve-calm`: `serving::run` with the default config (Poisson arrivals
//! at 30% utilization, 4 GPUs, 2 tenants, fifo / priority / batching ×
//! CC off / on) and every observability plane off.
//!
//! It is the planes-off side of every observability change, and today
//! most of its time is the engine's per-request cache round trip.

use hcc_bench::engine::{EngineStats, ExperimentEngine};
use hcc_bench::serving::{self, arrival, cluster, report, ServingConfig, ServingReport};
use hcc_trace::{FlightRecorder, RollupCollector};
use hcc_types::hash::Fnv64;
use hcc_types::{CcMode, SimDuration};
use hcc_workloads::Scenario;

use crate::spans::{stage, Spans};
use crate::{apps_of, lap, text_digest, Bench, Layers, Size, Tally};

/// Digest of the rendered report at [`crate::DEFAULT_SEED`] and
/// [`Size::BENCH`].
pub const REFERENCE: u64 = 0x0bd7_f7ff_5144_622b;

/// The serving workload's inputs.
#[derive(Debug)]
pub struct Serve {
    cfg: ServingConfig,
}

/// One pass's report and its rendering.
#[derive(Debug)]
pub struct Pass {
    report: ServingReport,
    text: String,
}

impl Serve {
    /// The distinct shape scenarios `serving::run` prefetches: every app
    /// CC-off, then every app CC-on.
    fn prefetch(&self) -> Vec<Scenario> {
        let apps = apps_of(&self.cfg.tenants);
        CcMode::ALL
            .iter()
            .flat_map(|&cc| {
                apps.iter()
                    .map(move |&app| Scenario::standard(app, self.cfg.shape_cfg(cc)))
            })
            .collect()
    }
}

impl Bench for Serve {
    type Pass = Pass;

    fn setup(seed: u64, size: Size) -> Self {
        Serve {
            cfg: ServingConfig {
                seed,
                requests: size.serve_requests,
                ..ServingConfig::default()
            },
        }
    }

    fn fingerprint(&self) -> u64 {
        let c = &self.cfg;
        let mut h = Fnv64::new();
        h.write_str("serve-calm");
        h.write_u64(c.seed);
        h.write_u64(c.requests);
        h.write_u64(c.gpus as u64);
        h.write_f64(c.target_util);
        h.write_u64(c.max_batch as u64);
        h.write_str(&format!(
            "{:?} {:?} {:?}",
            c.arrival, c.schedulers, c.tenants
        ));
        h.write_bool(c.watch.is_some() || c.flight.is_some());
        for cc in CcMode::ALL {
            h.write_u64(c.shape_cfg(cc).content_hash());
        }
        h.finish()
    }

    fn pass(&self, engine: &ExperimentEngine, mut spans: Option<&mut Spans>) -> Pass {
        let report = stage(&mut spans, "serving::run", || {
            serving::run(&self.cfg, engine)
        });
        let text = stage(&mut spans, "render", || report.render());
        Pass { report, text }
    }

    fn digest(&self, pass: &Pass) -> u64 {
        text_digest(&pass.text)
    }

    fn check(&self, pass: &Pass, stats: &EngineStats) -> Vec<String> {
        let mut problems = Vec::new();
        let rep = &pass.report;
        if !rep.conserved() {
            problems.push("serve-calm: a request was lost or settled twice".to_string());
        }
        if !rep.slo_holds() {
            problems.push("serve-calm: a CC-on p99 is not above its CC-off p99".to_string());
        }
        for run in &rep.runs {
            for mode in &run.modes {
                for t in &mode.tenants {
                    if t.latency_total != t.wait_total + t.service_total {
                        problems.push(format!(
                            "serve-calm: {} {} {}: latency != wait + service",
                            run.scheduler, mode.cc, t.name
                        ));
                    }
                }
            }
        }
        if stats.failed_scenarios != 0 {
            problems.push(format!(
                "serve-calm: {} engine scenarios failed",
                stats.failed_scenarios
            ));
        }
        problems
    }

    fn tally(&self, pass: &Pass, stats: &EngineStats, engine: &ExperimentEngine) -> Tally {
        let (mut cells, mut rejected) = (0, 0);
        for mode in pass.report.runs.iter().flat_map(|r| &r.modes) {
            cells += mode.completed() + mode.rejected();
            rejected += mode.rejected();
        }
        // The prefetch population is exactly what the pass simulated; on
        // this engine it is all cache hits.
        let events = engine
            .run_all(&self.prefetch())
            .iter()
            .filter_map(|r| r.run().ok())
            .map(|r| r.timeline.len() as u64)
            .sum();
        Tally {
            cells,
            events,
            ops: stats.scenarios_run + cells,
            modelled_fails: stats.failed_scenarios + rejected,
            unexpected: stats.failed_scenarios,
        }
    }

    fn layers(&self, pass: &Pass, spans: &mut Spans, pass_span: usize) -> Layers {
        let cfg = &self.cfg;
        let apps = apps_of(&cfg.tenants);
        // Shape table and offered-load rates exactly as `serving::run`
        // derives them, from a side engine (untimed input preparation).
        let shapes = ExperimentEngine::new(crate::ENGINE_THREADS).run_all(&self.prefetch());
        let service_of = |cc: CcMode, app: &str| -> Result<SimDuration, String> {
            let base = if cc.is_on() { apps.len() } else { 0 };
            let i = apps.iter().position(|&a| a == app).expect("app in table");
            match shapes[base + i].run() {
                Ok(r) => Ok(SimDuration::from_nanos(r.end.as_nanos())),
                Err(f) => Err(f.error),
            }
        };
        let weight_sum: u64 = cfg.tenants.iter().map(|t| u64::from(t.load_weight)).sum();
        let rates: Vec<f64> = cfg
            .tenants
            .iter()
            .map(|tenant| {
                let (mut ns, mut weight) = (0.0f64, 0.0f64);
                for class in &tenant.mix {
                    if let Ok(p) = service_of(CcMode::Off, class.app) {
                        ns += p.as_nanos() as f64 * f64::from(class.weight);
                        weight += f64::from(class.weight);
                    }
                }
                let mean_secs = if weight > 0.0 {
                    ns / weight / 1e9
                } else {
                    1e-3
                };
                let share = f64::from(tenant.load_weight) / weight_sum as f64;
                cfg.target_util * cfg.gpus as f64 * share / mean_secs
            })
            .collect();

        let (mut arrival_s, mut cluster_s, mut report_s) = (0.0, 0.0, 0.0);
        let requests = lap(spans, &mut arrival_s, "arrival::generate", || {
            arrival::generate(&cfg.tenants, &rates, cfg.arrival, cfg.requests, cfg.seed)
        });
        let service: Vec<Vec<Result<SimDuration, String>>> = CcMode::ALL
            .iter()
            .map(|&cc| {
                requests
                    .iter()
                    .map(|r| service_of(cc, cfg.tenants[r.tenant].mix[r.class].app))
                    .collect()
            })
            .collect();
        for &kind in &cfg.schedulers {
            for (mi, &cc) in CcMode::ALL.iter().enumerate() {
                let raw = lap(spans, &mut cluster_s, "cluster::simulate", || {
                    cluster::simulate(
                        &requests,
                        &service[mi],
                        &cfg.tenants,
                        cc,
                        cfg.gpus,
                        kind,
                        cfg.max_batch,
                        &cfg.tdx,
                        &mut RollupCollector::new(),
                        &mut FlightRecorder::new(),
                    )
                });
                let mode = lap(spans, &mut report_s, "report::mode_run", || {
                    report::mode_run(cc, cfg.gpus, &cfg.tenants, &requests, &service[mi], raw)
                });
                std::hint::black_box(mode);
            }
        }

        let modes = pass.report.runs.iter().flat_map(|r| &r.modes);
        let settled: u64 = modes.clone().map(|m| m.completed()).sum();
        let rejected: u64 = modes.clone().map(|m| m.rejected()).sum();
        let cold_starts: u64 = modes.map(|m| m.cold_starts).sum();
        let cells = (settled + rejected).max(1) as f64;
        vec![
            ("arrival.s", arrival_s),
            ("arrival.requests", requests.len() as f64),
            ("cluster.s", cluster_s),
            ("cluster.ns_per_req", cluster_s * 1e9 / cells),
            ("cluster.settled", settled as f64),
            ("cluster.rejected", rejected as f64),
            ("cluster.cold_starts", cold_starts as f64),
            ("report.s", report_s),
            ("render.s", spans.sum_within(pass_span, "render")),
            ("render.bytes", pass.text.len() as f64),
        ]
    }
}
