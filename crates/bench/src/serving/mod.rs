//! Multi-tenant confidential serving simulator (DESIGN.md §4, serving
//! layer).
//!
//! The figure harnesses answer "how much slower is one app under CC?";
//! this module answers the operator's question: *what does that overhead
//! do to a serving cluster's tail latency?* A seeded open-loop arrival
//! process ([`arrival`]) drives 10⁵–10⁶ virtual-time requests from
//! per-tenant app mixes into a pluggable scheduler ([`scheduler`]) over a
//! cluster of N simulated CC GPUs ([`cluster`]), each with its own
//! per-tenant TD sessions (`hcc_tee::SessionPool`). The same trace runs
//! CC-on and CC-off, so the report ([`report`]) shows exactly how the
//! paper's per-request overheads compound into p99/p999 queueing pain.
//!
//! Request *shapes* are memoized: every request of a (tenant, class)
//! rides its app's `Scenario`, so the [`ExperimentEngine`] simulates each
//! distinct app once per mode, up front, and every request then reads
//! its service from that per-app table by index. No request goes back
//! through the engine, which is what keeps million-request sweeps
//! tractable: the engine's `scenarios_run` is exactly
//! `2 × distinct_shapes` whatever the request count.
//!
//! Each (scheduler, mode) run is one [`crate::soak`] cell: the cluster
//! loop writes only per-request outcomes, and the queue and device
//! gauges, the watchtower's rollups and the flight recorder's exemplars
//! are all derived from those outcomes after the loop.
//!
//! Everything is virtual-time deterministic: one seed fixes the arrival
//! trace, the scheduler decisions, and every latency in the report, and
//! the rendered text is byte-identical across `HCC_ENGINE_THREADS`.

pub mod arrival;
pub mod cluster;
pub mod report;
pub mod scheduler;

use hcc_runtime::SimConfig;
use hcc_types::calib::TdxCalib;
use hcc_types::{CcMode, FaultPlan, RecoveryPolicy, SimTime};
use hcc_workloads::{default_tenants, Scenario, TenantSpec};

use crate::engine::ExperimentEngine;
use crate::soak::{ShapeTable, SoakCell, WatchPlane};

pub use arrival::{ArrivalKind, ArrivalProcess, Request};
pub use report::{ModeRun, SchedulerRun, ServingReport, TenantStats};
pub use scheduler::SchedulerKind;

/// Default arrival seed (distinct from the shape seed so the two streams
/// never alias).
pub const DEFAULT_SEED: u64 = 0xCC_5E21;

/// Default seed baked into every shape scenario's `SimConfig`.
pub const DEFAULT_SHAPE_SEED: u64 = 0x5E21_2026;

/// Full configuration of one serving experiment.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Arrival-stream seed.
    pub seed: u64,
    /// Total requests across all tenants.
    pub requests: u64,
    /// Cluster width.
    pub gpus: usize,
    /// Tenant population.
    pub tenants: Vec<TenantSpec>,
    /// Arrival process.
    pub arrival: ArrivalKind,
    /// Schedulers to run (each sees the identical trace).
    pub schedulers: Vec<SchedulerKind>,
    /// Offered load as a fraction of CC-off cluster capacity: per-tenant
    /// rates are sized so the CC-off run sits near this utilization (the
    /// CC-on run then shows what the overhead does at the *same* load).
    pub target_util: f64,
    /// Continuous-batching cap.
    pub max_batch: usize,
    /// Seed baked into every shape scenario's config.
    pub shape_seed: u64,
    /// Optional fault plan applied to every shape scenario.
    pub fault: Option<FaultPlan>,
    /// Recovery policy accompanying `fault`.
    pub recovery: Option<RecoveryPolicy>,
    /// TDX calibration for the per-device session pools.
    pub tdx: TdxCalib,
    /// SLO watchtower: when set, the CC-on run of every scheduler
    /// derives completion rollups from its outcomes and the report
    /// carries a windowed burn-rate/incident timeline. `None` (the
    /// default) keeps the rollup plane off and the rendered report
    /// byte-identical to a watch-free build.
    pub watch: Option<crate::watch::WatchConfig>,
    /// Request flight recorder: when set, the CC-on run of every
    /// scheduler samples per-request span trees (tail exemplars plus a
    /// seeded uniform reservoir per tumbling window) and the report
    /// carries the resolved [`hcc_trace::FlightLog`], both derived from
    /// the run's outcomes. `None` (the default) keeps the flight plane
    /// off; the rendered report is byte-identical either way.
    pub flight: Option<hcc_trace::FlightConfig>,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            seed: DEFAULT_SEED,
            requests: 10_000,
            gpus: 4,
            tenants: default_tenants(2),
            arrival: ArrivalKind::Poisson,
            schedulers: SchedulerKind::ALL.to_vec(),
            target_util: 0.3,
            max_batch: 8,
            shape_seed: DEFAULT_SHAPE_SEED,
            fault: None,
            recovery: None,
            tdx: TdxCalib::default(),
            watch: None,
            flight: None,
        }
    }
}

impl ServingConfig {
    /// The `SimConfig` every shape scenario runs under in `cc` mode.
    pub fn shape_cfg(&self, cc: CcMode) -> SimConfig {
        let mut cfg = SimConfig::new(cc).with_seed(self.shape_seed);
        if let Some(plan) = &self.fault {
            cfg = cfg.with_fault_plan(plan.clone());
        }
        if let Some(policy) = &self.recovery {
            cfg = cfg.with_recovery(policy.clone());
        }
        cfg
    }
}

/// The distinct apps a tenant population requests, in first-seen
/// (tenant, class) order, and each class's index into them: the shape
/// table both soaks key their per-app simulations by.
pub struct AppTable {
    /// Distinct apps, first-seen order.
    pub apps: Vec<&'static str>,
    /// `slots[tenant][class]` indexes `apps`.
    slots: Vec<Vec<u32>>,
}

impl AppTable {
    /// Builds the table for `tenants`.
    pub fn new(tenants: &[TenantSpec]) -> Self {
        let mut apps: Vec<&'static str> = Vec::new();
        let mut slots = Vec::with_capacity(tenants.len());
        for tenant in tenants {
            let mut row = Vec::with_capacity(tenant.mix.len());
            for class in &tenant.mix {
                let slot = match apps.iter().position(|&a| a == class.app) {
                    Some(i) => i,
                    None => {
                        apps.push(class.app);
                        apps.len() - 1
                    }
                };
                row.push(slot as u32);
            }
            slots.push(row);
        }
        AppTable { apps, slots }
    }

    /// Index into `apps` of `tenant`'s `class`.
    pub fn slot(&self, tenant: usize, class: usize) -> usize {
        self.slots[tenant][class] as usize
    }

    /// Each request's index into `apps`.
    pub fn per_request(&self, requests: &[Request]) -> Vec<u32> {
        requests
            .iter()
            .map(|r| self.slots[r.tenant][r.class])
            .collect()
    }
}

/// Runs the full serving experiment: generates the trace, simulates
/// every distinct shape once per mode through the memoizing engine,
/// and drains the identical trace through each configured scheduler
/// CC-off and CC-on, one [`SoakCell`] each, every request riding its
/// app's shape.
pub fn run(cfg: &ServingConfig, engine: &ExperimentEngine) -> ServingReport {
    assert!(!cfg.tenants.is_empty(), "serving needs at least one tenant");
    assert!(
        !cfg.schedulers.is_empty(),
        "serving needs at least one scheduler"
    );

    // Distinct shape working set: one scenario per app per mode.
    let table = AppTable::new(&cfg.tenants);
    let apps = &table.apps;
    let prefetch: Vec<Scenario> = CcMode::ALL
        .iter()
        .flat_map(|&cc| {
            apps.iter()
                .map(move |&app| Scenario::standard(app, cfg.shape_cfg(cc)))
        })
        .collect();
    // Parallel fan-out: every distinct shape simulates once, up front.
    let prefetched = engine.run_all(&prefetch);
    let (off_entries, on_entries) = prefetched.split_at(apps.len());
    // Per-mode shape tables indexed by app: `shapes[mode]`. Only the
    // CC-on run is observed, so only its shapes are decomposed, and only
    // when a plane is on.
    let mut shapes = [
        ShapeTable::new(false),
        ShapeTable::new(cfg.watch.is_some() || cfg.flight.is_some()),
    ];
    shapes[0].extend(off_entries);
    shapes[1].extend(on_entries);

    // Offered load: size per-tenant rates off the CC-off mean service so
    // the baseline cluster sits near `target_util`.
    let weight_sum: u64 = cfg.tenants.iter().map(|t| u64::from(t.load_weight)).sum();
    let rates: Vec<f64> = cfg
        .tenants
        .iter()
        .enumerate()
        .map(|(ti, tenant)| {
            let mut weighted_ns = 0.0f64;
            let mut weight = 0.0f64;
            for (ci, class) in tenant.mix.iter().enumerate() {
                if let Ok(p) = &shapes[0].service[table.slot(ti, ci)] {
                    weighted_ns += p.as_nanos() as f64 * f64::from(class.weight);
                    weight += f64::from(class.weight);
                }
            }
            let mean_secs = if weight > 0.0 {
                weighted_ns / weight / 1e9
            } else {
                1e-3 // every shape failed: nominal 1 ms placeholder
            };
            let share = f64::from(tenant.load_weight) / weight_sum as f64;
            cfg.target_util * cfg.gpus as f64 * share / mean_secs
        })
        .collect();

    let requests = arrival::generate(&cfg.tenants, &rates, cfg.arrival, cfg.requests, cfg.seed);
    let shape_of = table.per_request(&requests);
    // The watchtower judges serving soaks against the chaos lab's
    // default budgets.
    let budgets = crate::chaos::default_budgets(&cfg.tenants);

    let runs = cfg
        .schedulers
        .iter()
        .map(|&kind| {
            let [off, on] = [CcMode::Off, CcMode::On].map(|cc| {
                let observed = cc.is_on();
                SoakCell {
                    requests: &requests,
                    tenants: &cfg.tenants,
                    shape_of: &shape_of,
                    shapes: &shapes[usize::from(observed)],
                    cc,
                    gpus: cfg.gpus,
                    scheduler: kind,
                    max_batch: cfg.max_batch,
                    tdx: &cfg.tdx,
                    watch: cfg.watch.as_ref().filter(|_| observed).map(|w| WatchPlane {
                        cfg: w,
                        budgets: &budgets,
                        horizon: SimTime::ZERO,
                        storm: None,
                    }),
                    flight: cfg.flight.filter(|_| observed),
                }
                .run()
            });
            SchedulerRun {
                scheduler: kind,
                modes: [off.mode, on.mode],
                watch: on.watch,
                flight: on.flight,
            }
        })
        .collect();

    ServingReport {
        seed: cfg.seed,
        requests: cfg.requests,
        gpus: cfg.gpus,
        arrival: cfg.arrival,
        tenant_names: cfg.tenants.iter().map(|t| t.name.to_string()).collect(),
        distinct_shapes: apps.len(),
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ServingConfig {
        ServingConfig {
            requests: 200,
            gpus: 2,
            ..ServingConfig::default()
        }
    }

    #[test]
    fn end_to_end_run_conserves_and_orders_modes() {
        let engine = ExperimentEngine::new(2);
        let rep = run(&small(), &engine);
        assert!(rep.conserved());
        assert!(rep.slo_holds());
        assert_eq!(rep.runs.len(), 3);
        for r in &rep.runs {
            assert!(r.on().busy > r.off().busy, "{}", r.scheduler);
            assert!(r.on().cold_starts > 0);
            assert_eq!(r.off().cold_starts, 0);
        }
        let text = rep.render();
        assert!(text.contains("=== scheduler: fifo ==="));
        assert!(text.contains("=== scheduler: batching ==="));
        assert!(text.contains("slo cc-on p99 > cc-off p99"));
    }

    #[test]
    fn engine_work_is_per_shape_not_per_request() {
        let engine = ExperimentEngine::new(2);
        let rep = run(&small(), &engine);
        let shapes = 2 * rep.distinct_shapes as u64;
        let stats = engine.stats();
        // 2 modes x distinct apps simulate; no request goes back through
        // the engine.
        assert_eq!(stats.scenarios_run, shapes);
        assert_eq!(stats.cache_hits, 0);
        // A rerun, at any request count, costs one hit per shape.
        let bigger = ServingConfig {
            requests: 2_000,
            ..small()
        };
        run(&bigger, &engine);
        let stats = engine.stats();
        assert_eq!(stats.scenarios_run, shapes);
        assert_eq!(stats.cache_hits, shapes);
    }

    #[test]
    fn reports_are_deterministic_and_thread_invariant() {
        let a = run(&small(), &ExperimentEngine::new(1));
        let b = run(&small(), &ExperimentEngine::new(2));
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn json_export_round_trips() {
        use hcc_types::json::{Json, ToJson};
        let rep = run(&small(), &ExperimentEngine::new(2));
        let doc = Json::parse(&rep.to_json_string()).expect("report JSON parses");
        assert_eq!(doc.get("requests").and_then(Json::as_u64), Some(200));
        assert_eq!(doc.get("conserved"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("slo_holds"), Some(&Json::Bool(true)));
        let Some(Json::Arr(scheds)) = doc.get("schedulers") else {
            panic!("schedulers missing");
        };
        assert_eq!(scheds.len(), 3);
    }
}
