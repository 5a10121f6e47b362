//! `chaos-forensics`: `chaos::run` with the default 2 storms × 3 policies
//! × 2 replicas and both the watch and flight planes on.
//!
//! Its soak length scales with the request count so the offered load
//! stays at the default config's ~30% (fixed days would slide the soak
//! into overload). It has no engine cache hits; its time is the six
//! cluster runs and the observability planes riding them.

use std::cell::OnceCell;
use std::sync::Arc;

use hcc_bench::chaos::{self, ChaosConfig, ChaosReport};
use hcc_bench::engine::{EngineStats, ExperimentEngine, ScenarioResult};
use hcc_bench::serving::{arrival, cluster, report};
use hcc_bench::watch::{self, BlameView, SoakView, StormContext, WatchConfig};
use hcc_runtime::{LeakAudit, SimConfig};
use hcc_trace::flight::ShapeDecomp;
use hcc_trace::{critpath, Attribution, FlightConfig, FlightRecorder, RollupCollector};
use hcc_types::hash::Fnv64;
use hcc_types::{CcMode, Planes, SimDuration, SimTime, StormIntensity, StormSchedule};
use hcc_workloads::Scenario;

use crate::spans::{stage, Spans};
use crate::{apps_of, lap, text_digest, Bench, Layers, Size, Tally};

/// Digest of the rendered report at [`crate::DEFAULT_SEED`] and
/// [`Size::BENCH`].
pub const REFERENCE: u64 = 0xd4b2_bb5f_a97a_5d83;

/// Requests per cell of the default config, and its soak length: the
/// ratio that keeps the default ~30% load.
const DEFAULT_REQUESTS: u64 = 20_000;
const DEFAULT_DAYS: u64 = 30;

/// The stormy intensities, in the order `chaos::run` lays out a cell's
/// shape table.
const STORMY: [StormIntensity; 2] = [StormIntensity::Rising, StormIntensity::Peak];

/// The chaos workload's inputs.
#[derive(Debug)]
pub struct Chaos {
    cfg: ChaosConfig,
    tables: OnceCell<Tables>,
}

/// One pass's report and its rendering.
#[derive(Debug)]
pub struct Pass {
    report: ChaosReport,
    text: String,
}

/// Simulated shapes for the layer timings. `chaos::run` derives its
/// storm and plan seeds through a private mix, so these are same-size
/// stand-ins: the same apps, profiles, intensities, policies and
/// replicas under seeds of this benchmark's own.
#[derive(Debug)]
struct Tables {
    calm: Vec<Arc<ScenarioResult>>,
    /// Per profile, per policy: the cell's storm shapes, laid out
    /// `(app × intensity) × replica` like `chaos::run`'s.
    cells: Vec<Vec<Vec<Arc<ScenarioResult>>>>,
}

fn derive(parts: &[u64]) -> u64 {
    let mut h = Fnv64::new();
    for &p in parts {
        h.write_u64(p);
    }
    h.finish()
}

impl Chaos {
    fn storm_seed(&self, profile: usize) -> u64 {
        derive(&[self.cfg.seed, self.cfg.profiles[profile].fingerprint()])
    }

    fn calm_scenarios(&self) -> Vec<Scenario> {
        let calm = SimConfig::new(CcMode::On).with_seed(self.cfg.shape_seed);
        apps_of(&self.cfg.tenants)
            .into_iter()
            .map(|app| Scenario::standard(app, calm.clone()))
            .collect()
    }

    fn tables(&self) -> &Tables {
        self.tables.get_or_init(|| {
            let cfg = &self.cfg;
            let engine = ExperimentEngine::new(crate::ENGINE_THREADS);
            let apps = apps_of(&cfg.tenants);
            let cells = (0..cfg.profiles.len())
                .map(|pi| {
                    let profile = &cfg.profiles[pi];
                    let storm_seed = self.storm_seed(pi);
                    cfg.policies
                        .iter()
                        .map(|policy| {
                            let mut scenarios = Vec::new();
                            for &app in &apps {
                                for (si, &intensity) in STORMY.iter().enumerate() {
                                    for k in 0..u64::from(cfg.replicas) {
                                        let plan = profile
                                            .plan(intensity, derive(&[storm_seed, si as u64, k]));
                                        let shape_cfg = SimConfig::new(CcMode::On)
                                            .with_seed(cfg.shape_seed)
                                            .with_fault_plan(plan)
                                            .with_recovery(policy.clone());
                                        scenarios.push(Scenario::standard(app, shape_cfg));
                                    }
                                }
                            }
                            engine.run_all(&scenarios)
                        })
                        .collect()
                })
                .collect();
            Tables {
                calm: engine.run_all(&self.calm_scenarios()),
                cells,
            }
        })
    }
}

fn service(entry: &ScenarioResult) -> Result<SimDuration, String> {
    match entry.run() {
        Ok(r) => Ok(SimDuration::from_nanos(r.end.as_nanos())),
        Err(f) => Err(f.error),
    }
}

fn attribution(entry: &ScenarioResult) -> Attribution {
    match entry.run() {
        Ok(r) => critpath::extract(&r.timeline, &r.causal).attribution(),
        Err(_) => Attribution::default(),
    }
}

impl Bench for Chaos {
    type Pass = Pass;

    fn setup(seed: u64, size: Size) -> Self {
        let requests = size.chaos_requests;
        Chaos {
            cfg: ChaosConfig {
                seed,
                requests,
                days: (requests * DEFAULT_DAYS / DEFAULT_REQUESTS).max(1),
                watch: Some(WatchConfig::default()),
                flight: Some(FlightConfig::default()),
                ..ChaosConfig::default()
            },
            tables: OnceCell::new(),
        }
    }

    fn fingerprint(&self) -> u64 {
        let c = &self.cfg;
        let mut h = Fnv64::new();
        h.write_str("chaos-forensics");
        for v in [
            c.seed,
            c.requests,
            c.days,
            c.gpus as u64,
            u64::from(c.episodes_per_day),
            u64::from(c.replicas),
            c.max_batch as u64,
        ] {
            h.write_u64(v);
        }
        for p in &c.profiles {
            h.write_u64(p.fingerprint());
        }
        h.write_str(&format!(
            "{:?} {:?} {:?} {:?} {:?} {:?} {:?}",
            c.policies, c.arrival, c.scheduler, c.tenants, c.budgets, c.watch, c.flight
        ));
        h.write_u64(
            SimConfig::new(CcMode::On)
                .with_seed(c.shape_seed)
                .content_hash(),
        );
        h.finish()
    }

    fn pass(&self, engine: &ExperimentEngine, mut spans: Option<&mut Spans>) -> Pass {
        let report = stage(&mut spans, "chaos::run", || chaos::run(&self.cfg, engine));
        let text = stage(&mut spans, "render", || report.render());
        Pass { report, text }
    }

    fn digest(&self, pass: &Pass) -> u64 {
        text_digest(&pass.text)
    }

    fn check(&self, pass: &Pass, stats: &EngineStats) -> Vec<String> {
        let mut problems = Vec::new();
        let rep = &pass.report;
        if !rep.healthy() {
            problems.push(format!(
                "chaos-forensics: unhealthy: {}",
                rep.first_violation().unwrap_or("an invariant failed")
            ));
        }
        if !rep.latency_identity() {
            problems.push("chaos-forensics: latency != wait + service".to_string());
        }
        for cell in rep.cells() {
            match (&cell.watch, &cell.flight) {
                (Some(_), Some(flight)) if flight.identity_holds() => {}
                (Some(_), Some(_)) => problems.push(format!(
                    "chaos-forensics: {}: a flight exemplar's spans do not partition its latency",
                    cell.policy
                )),
                _ => problems.push(format!(
                    "chaos-forensics: {}: a plane produced no report",
                    cell.policy
                )),
            }
        }
        // Aborting shapes are modelled (the Abort policy rejects their
        // requests); any other engine failure is not.
        let aborted: u64 = rep.cells().map(|c| c.aborted_shapes as u64).sum();
        if stats.failed_scenarios != aborted {
            problems.push(format!(
                "chaos-forensics: {} engine failures, {aborted} modelled aborts",
                stats.failed_scenarios
            ));
        }
        problems
    }

    fn tally(&self, pass: &Pass, stats: &EngineStats, engine: &ExperimentEngine) -> Tally {
        let rep = &pass.report;
        let (mut cells, mut rejected, mut aborted, mut audited) = (0, 0, 0, 0);
        for cell in rep.cells() {
            cells += cell.mode.completed() + cell.mode.rejected();
            rejected += cell.mode.rejected();
            aborted += cell.aborted_shapes as u64;
            audited += cell.audit.events as u64;
        }
        // Each cell's audit absorbs the shared calm shapes and its own
        // storm shapes; the calm shapes were simulated once. The calm
        // population is exactly the pass's, so on this engine it hits.
        let calm: u64 = engine
            .run_all(&self.calm_scenarios())
            .iter()
            .filter_map(|r| r.run().ok())
            .map(|r| r.timeline.len() as u64)
            .sum();
        let n_cells = rep.cells().count() as u64;
        Tally {
            cells,
            events: audited.saturating_sub(calm * n_cells.saturating_sub(1)),
            ops: stats.scenarios_run + cells,
            modelled_fails: stats.failed_scenarios + rejected,
            unexpected: stats.failed_scenarios.saturating_sub(aborted),
        }
    }

    fn layers(&self, pass: &Pass, spans: &mut Spans, pass_span: usize) -> Layers {
        let cfg = &self.cfg;
        let tables = self.tables();
        let apps = apps_of(&cfg.tenants);
        let horizon = cfg.horizon();
        let replicas = cfg.replicas as usize;
        let slot_of = |app: usize, stormy: usize, replica: usize| {
            (app * STORMY.len() + stormy) * replicas + replica
        };
        let flight_planes = Planes::NONE.set(Planes::FLIGHT, true);
        let flight_cfg = cfg.flight.unwrap_or_default();
        let watch_cfg = cfg.watch.unwrap_or_default();
        let tenant_names: Vec<String> = cfg.tenants.iter().map(|t| t.name.to_string()).collect();

        let (mut arrival_s, mut storm_s, mut audit_s) = (0.0, 0.0, 0.0);
        let (mut cluster_s, mut off_s, mut report_s) = (0.0, 0.0, 0.0);
        let (mut crit_s, mut watch_s, mut flight_s) = (0.0, 0.0, 0.0);

        let weight_sum: u64 = cfg.tenants.iter().map(|t| u64::from(t.load_weight)).sum();
        let rates: Vec<f64> = cfg
            .tenants
            .iter()
            .map(|t| {
                let share = f64::from(t.load_weight) / weight_sum as f64;
                cfg.requests as f64 * share / horizon.as_secs_f64().max(1e-9)
            })
            .collect();
        let requests = lap(spans, &mut arrival_s, "arrival::generate", || {
            arrival::generate(
                &cfg.tenants,
                &rates,
                cfg.arrival,
                cfg.requests,
                derive(&[cfg.seed, 0xA881]),
            )
        });
        let app_of: Vec<usize> = requests
            .iter()
            .map(|r| {
                let app = cfg.tenants[r.tenant].mix[r.class].app;
                apps.iter().position(|&a| a == app).expect("app in table")
            })
            .collect();

        for (pi, profile) in cfg.profiles.iter().enumerate() {
            let schedule = lap(spans, &mut storm_s, "StormSchedule::generate", || {
                StormSchedule::generate(self.storm_seed(pi), horizon, cfg.episodes())
            });
            let assignment: Vec<(StormIntensity, usize)> = requests
                .iter()
                .map(|r| {
                    (
                        schedule.intensity_at(r.arrival),
                        (r.seq % u64::from(cfg.replicas)) as usize,
                    )
                })
                .collect();
            for storm in &tables.cells[pi] {
                let shapes: Vec<&ScenarioResult> =
                    tables.calm.iter().chain(storm).map(|e| &**e).collect();
                lap(spans, &mut audit_s, "LeakAudit::check", || {
                    let mut cell = LeakAudit::default();
                    for r in shapes.iter().filter_map(|e| e.run().ok()) {
                        std::hint::black_box(r.audit.check().is_ok());
                        cell.absorb(&r.audit);
                    }
                    std::hint::black_box(cell.check().is_ok());
                });
                let shape_of: Vec<u32> = assignment
                    .iter()
                    .enumerate()
                    .map(|(ri, &(intensity, replica))| {
                        (match intensity {
                            StormIntensity::Calm => app_of[ri],
                            StormIntensity::Rising => apps.len() + slot_of(app_of[ri], 0, replica),
                            StormIntensity::Peak => apps.len() + slot_of(app_of[ri], 1, replica),
                        }) as u32
                    })
                    .collect();
                let svc: Vec<Result<SimDuration, String>> = shape_of
                    .iter()
                    .map(|&s| service(shapes[s as usize]))
                    .collect();
                let simulate = |rollup: &mut RollupCollector, flight: &mut FlightRecorder| {
                    cluster::simulate(
                        &requests,
                        &svc,
                        &cfg.tenants,
                        CcMode::On,
                        cfg.gpus,
                        cfg.scheduler,
                        cfg.max_batch,
                        &cfg.tdx,
                        rollup,
                        flight,
                    )
                };
                let off = lap(spans, &mut off_s, "cluster::simulate[planes-off]", || {
                    simulate(&mut RollupCollector::new(), &mut FlightRecorder::new())
                });
                drop(off);
                let mut rollup = RollupCollector::enabled();
                let mut recorder = FlightRecorder::for_planes(flight_planes, flight_cfg);
                let raw = lap(spans, &mut cluster_s, "cluster::simulate", || {
                    simulate(&mut rollup, &mut recorder)
                });
                let mode = lap(spans, &mut report_s, "report::mode_run", || {
                    report::mode_run(CcMode::On, cfg.gpus, &cfg.tenants, &requests, &svc, raw)
                });
                // `chaos::run` extracts every shape's critical path twice:
                // once for the watch blame table, once for the flight
                // decompositions.
                let attrs: Vec<Attribution> = lap(spans, &mut crit_s, "critpath::extract", || {
                    shapes.iter().map(|e| attribution(e)).collect()
                });
                let decomps: Vec<ShapeDecomp> =
                    lap(spans, &mut crit_s, "critpath::extract", || {
                        shapes
                            .iter()
                            .map(|e| match e.run() {
                                Ok(r) => ShapeDecomp {
                                    total: SimDuration::from_nanos(r.end.as_nanos()),
                                    attr: attribution(e),
                                    faults: r.fault,
                                },
                                Err(_) => ShapeDecomp::default(),
                            })
                            .collect()
                    });
                let report = lap(spans, &mut watch_s, "watch::observe", || {
                    let samples = rollup.into_sorted();
                    watch::observe(
                        &watch_cfg,
                        &SoakView {
                            tenant_names: &tenant_names,
                            budgets: &cfg.budgets,
                            samples: &samples,
                            horizon: (SimTime::ZERO + horizon).max(mode.end),
                            queue: mode.metrics.gauge_series("serving.queue_depth"),
                            storm: Some(StormContext {
                                profile: profile.name,
                                schedule: &schedule,
                            }),
                            blame: Some(BlameView {
                                shape_of: &shape_of,
                                attrs: &attrs,
                            }),
                        },
                    )
                });
                let log = lap(spans, &mut flight_s, "FlightRecorder::resolve", || {
                    recorder.resolve(&shape_of, &decomps)
                });
                std::hint::black_box((report, log));
            }
        }

        let rep = &pass.report;
        let settled: u64 = rep.cells().map(|c| c.mode.completed()).sum();
        let rejected: u64 = rep.cells().map(|c| c.mode.rejected()).sum();
        let cells = (settled + rejected).max(1) as f64;
        let count = |f: &dyn Fn(&hcc_bench::chaos::PolicyCell) -> usize| -> f64 {
            rep.cells().map(f).sum::<usize>() as f64
        };
        vec![
            ("arrival.s", arrival_s),
            ("arrival.requests", requests.len() as f64),
            ("storm.s", storm_s),
            ("audit.s", audit_s),
            ("cluster.s", cluster_s),
            ("cluster.ns_per_req", cluster_s * 1e9 / cells),
            ("cluster.settled", settled as f64),
            ("cluster.rejected", rejected as f64),
            (
                "cluster.cold_starts",
                rep.cells().map(|c| c.mode.cold_starts).sum::<u64>() as f64,
            ),
            ("cluster.planes_s", cluster_s - off_s),
            ("report.s", report_s),
            ("trace.critpath_us", crit_s * 1e6),
            ("watch.s", watch_s),
            (
                "watch.windows",
                count(&|c| c.watch.as_ref().map_or(0, |w| w.windows.len())),
            ),
            (
                "watch.alerts",
                count(&|c| c.watch.as_ref().map_or(0, |w| w.alerts() as usize)),
            ),
            ("flight.s", flight_s),
            (
                "flight.exemplars",
                count(&|c| c.flight.as_ref().map_or(0, |f| f.samples.len())),
            ),
            ("render.s", spans.sum_within(pass_span, "render")),
            ("render.bytes", pass.text.len() as f64),
        ]
    }
}
