//! Chaos lab: seeded fault storms composed with the serving cluster's
//! event loop over virtual-time soak runs (DESIGN.md §4, chaos harness).
//!
//! The fault layer answers "what does one injected fault cost one run?";
//! this module answers the operator's question: *when correlated fault
//! storms sweep a confidential cluster for days, which recovery policy
//! keeps the SLOs?* A [`hcc_types::StormSchedule`] tiles the horizon with
//! calm / rising / peak windows for each [`hcc_types::StormProfile`]
//! (bounce-pool exhaustion waves, crypto-queue saturation bursts, UVM
//! thrash episodes, ring-doorbell flaps), and every request's arrival
//! instant selects the fault plan its shape simulation runs under. The
//! same trace and the same calendar then run head-to-head under
//! `RecoveryPolicy::{Retry, Degrade, Abort}`, so the per-tenant p99/p999
//! and rejected-request verdicts differ *only* by policy.
//!
//! Shapes are memoized exactly as in [`crate::serving`]: the working set
//! is `apps × {rising, peak} × replicas` fault scenarios per cell plus
//! one shared calm scenario per app, simulated and resolved once per run,
//! so a 10⁵–10⁶ request soak costs a few hundred simulations. Each cell
//! is one [`crate::soak`] cell, so its gauges, rollups and flight
//! exemplars are derived from the cluster's outcomes after the loop.
//! On top of the SLO verdicts, the lab audits soak-scale resource
//! conservation: every surviving shape's [`LeakAudit`] must balance,
//! session pools and depth gauges must drain to zero, and per-shape
//! trace growth must stay bounded.
//!
//! Everything is virtual-time deterministic: one seed fixes the storm
//! calendars, the fault plans, the arrival trace, and every verdict, and
//! the rendered report is byte-identical across `HCC_ENGINE_THREADS`.

pub mod report;

use hcc_runtime::{LeakAudit, SimConfig};
use hcc_trace::Series;
use hcc_types::calib::TdxCalib;
use hcc_types::{
    ByteSize, CcMode, LatencyBudget, RecoveryPolicy, SimDuration, SimTime, StormIntensity,
    StormProfile, StormSchedule,
};
use hcc_workloads::{default_tenants, Scenario, TenantSpec};

use crate::engine::ExperimentEngine;
use crate::serving::{arrival, AppTable, ArrivalKind, SchedulerKind};
use crate::soak::{CellRun, ShapeTable, SoakCell, WatchPlane};
use crate::watch::StormContext;

pub use report::{
    ChaosReport, FaultLedger, PolicyCell, ProfileReport, TenantVerdict, TimeToRecover,
};

/// Default master seed.
pub const DEFAULT_SEED: u64 = 0xC4A0_55ED;

/// Default seed baked into every shape scenario's `SimConfig` (distinct
/// from the serving lab's so the two goldens never alias).
pub const DEFAULT_SHAPE_SEED: u64 = 0x57A8_2026;

/// One compressed virtual day: the diurnal arrival period, so "days" in
/// the chaos lab line up with the arrival process's day/night cycle.
pub const DAY: SimDuration = SimDuration::secs(60);

/// Bounded-growth ceiling for a single shape simulation's trace arena.
/// A standard-suite run records a few hundred to a few thousand events;
/// anything past this is runaway growth, not a bigger workload.
pub const SHAPE_EVENT_BOUND: usize = 1 << 20;

/// Full configuration of one chaos-lab run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master seed: storm calendars, fault-plan seeds, and the arrival
    /// trace all derive from it through decorrelated mixes.
    pub seed: u64,
    /// Requests in the shared trace; every (profile, policy) cell
    /// replays all of them.
    pub requests: u64,
    /// Soak length in virtual days ([`DAY`] each).
    pub days: u64,
    /// Cluster width.
    pub gpus: usize,
    /// Tenant population.
    pub tenants: Vec<TenantSpec>,
    /// Per-tenant SLO budgets, aligned with `tenants`.
    pub budgets: Vec<LatencyBudget>,
    /// Storm profiles to sweep.
    pub profiles: Vec<StormProfile>,
    /// Recovery policies compared head-to-head inside each profile.
    pub policies: Vec<RecoveryPolicy>,
    /// Storm episodes per virtual day.
    pub episodes_per_day: u32,
    /// Decorrelated fault-plan replicas per (profile, intensity): more
    /// replicas sample more storm outcomes per window at the cost of
    /// more simulations.
    pub replicas: u32,
    /// Arrival process for the shared trace.
    pub arrival: ArrivalKind,
    /// Scheduler used by every cell.
    pub scheduler: SchedulerKind,
    /// Continuous-batching cap.
    pub max_batch: usize,
    /// Seed baked into every shape scenario's config.
    pub shape_seed: u64,
    /// TDX calibration for the per-device session pools.
    pub tdx: TdxCalib,
    /// SLO watchtower: when set, every cell derives completion rollups
    /// from its outcomes and carries a windowed burn-rate/incident
    /// timeline correlated against the cell's storm calendar. `None`
    /// (the default) keeps the rollup plane disabled and the rendered
    /// report byte-identical to a watch-free build.
    pub watch: Option<crate::watch::WatchConfig>,
    /// Request flight recorder: when set, every cell samples per-request
    /// span trees (tail exemplars plus a seeded uniform reservoir per
    /// tumbling window), the cell's leak audit enforces the exemplar
    /// store's `windows × budget` memory bound over the full soak, and
    /// the cell carries the resolved [`hcc_trace::FlightLog`]. `None`
    /// (the default) keeps the flight plane disabled and the rendered
    /// report byte-identical to a flight-free build.
    pub flight: Option<hcc_trace::FlightConfig>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        let tenants = default_tenants(2);
        let budgets = default_budgets(&tenants);
        ChaosConfig {
            seed: DEFAULT_SEED,
            requests: 20_000,
            days: 30,
            gpus: 4,
            tenants,
            budgets,
            profiles: vec![StormProfile::bounce_squall(), StormProfile::uvm_thrash()],
            policies: vec![
                RecoveryPolicy::default_retry(),
                RecoveryPolicy::Degrade {
                    min_chunk: ByteSize::kib(64),
                },
                RecoveryPolicy::Abort,
            ],
            episodes_per_day: 6,
            replicas: 2,
            arrival: ArrivalKind::Diurnal,
            scheduler: SchedulerKind::Fifo,
            max_batch: 8,
            shape_seed: DEFAULT_SHAPE_SEED,
            tdx: TdxCalib::default(),
            watch: None,
            flight: None,
        }
    }
}

impl ChaosConfig {
    /// The storm-calendar horizon: `days` × [`DAY`].
    #[must_use]
    pub fn horizon(&self) -> SimDuration {
        SimDuration::from_nanos(DAY.as_nanos().saturating_mul(self.days))
    }

    /// Storm episodes per calendar.
    #[must_use]
    pub fn episodes(&self) -> u32 {
        u32::try_from(u64::from(self.episodes_per_day).saturating_mul(self.days))
            .unwrap_or(u32::MAX)
    }
}

/// Default per-tenant SLO contracts, calibrated against the default
/// one-day, 20 k-request soak: Retry and Degrade hold them through every
/// built-in storm, while Abort's mass rejections blow the `rej-ppm`
/// clause — so the default report always carries both PASS and FAIL
/// verdicts.
#[must_use]
pub fn default_budgets(tenants: &[TenantSpec]) -> Vec<LatencyBudget> {
    tenants
        .iter()
        .map(|t| match t.name {
            // The front-end tenant's mix is heavier (GEMM prefill), so
            // its absolute tail budget is looser but its rejection
            // allowance is the tightest.
            "chat" => LatencyBudget {
                p99: SimDuration::millis(300),
                p999: SimDuration::millis(400),
                max_reject_ppm: 60_000,
            },
            // Throughput tenants run shorter solvers and tolerate a
            // slightly higher rejection rate, not mass rejection.
            _ => LatencyBudget {
                p99: SimDuration::millis(250),
                p999: SimDuration::millis(350),
                max_reject_ppm: 80_000,
            },
        })
        .collect()
}

/// Decorrelating seed mix (distinct from both the injector's and the
/// storm calendar's internal constants).
fn mix(seed: u64, salt: u64) -> u64 {
    (seed ^ salt.rotate_left(31)).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x2545_F491_4F6C_DD1D
}

/// Salt separating the arrival stream from storm-calendar seeds.
const ARRIVAL_SALT: u64 = 0xA55A_11E5;

/// Runs the full chaos lab: one shared arrival trace, one storm calendar
/// per profile, one cluster run per (profile, policy) cell.
pub fn run(cfg: &ChaosConfig, engine: &ExperimentEngine) -> ChaosReport {
    assert!(!cfg.tenants.is_empty(), "chaos needs at least one tenant");
    assert_eq!(
        cfg.tenants.len(),
        cfg.budgets.len(),
        "one budget per tenant"
    );
    assert!(!cfg.profiles.is_empty(), "chaos needs at least one storm");
    assert!(!cfg.policies.is_empty(), "chaos needs at least one policy");
    assert!(cfg.replicas >= 1, "chaos needs at least one plan replica");

    let horizon = cfg.horizon();
    let horizon_secs = horizon.as_secs_f64().max(1e-9);

    // Shared trace: per-tenant rates sized so the whole request budget
    // spreads across the soak horizon (load_weight fixes each tenant's
    // share). Squeezing the same requests into fewer days raises load.
    let weight_sum: u64 = cfg.tenants.iter().map(|t| u64::from(t.load_weight)).sum();
    let rates: Vec<f64> = cfg
        .tenants
        .iter()
        .map(|t| {
            let share = f64::from(t.load_weight) / weight_sum as f64;
            cfg.requests as f64 * share / horizon_secs
        })
        .collect();
    let requests = arrival::generate(
        &cfg.tenants,
        &rates,
        cfg.arrival,
        cfg.requests,
        mix(cfg.seed, ARRIVAL_SALT),
    );

    // Distinct shape working set: one app per (tenant, class), stable
    // order.
    let table = AppTable::new(&cfg.tenants);
    let apps = &table.apps;
    let app_of = table.per_request(&requests);

    // Calm shapes are storm- and policy-independent (an empty fault plan
    // never consults the recovery policy), so one scenario per app is
    // simulated and resolved once, shared by every cell.
    let calm_cfg = SimConfig::new(CcMode::On).with_seed(cfg.shape_seed);
    let calm_scen: Vec<Scenario> = apps
        .iter()
        .map(|&app| Scenario::standard(app, calm_cfg.clone()))
        .collect();
    let calm_entries = engine.run_all(&calm_scen);
    let mut calm_shapes = ShapeTable::new(cfg.watch.is_some() || cfg.flight.is_some());
    calm_shapes.extend(&calm_entries);

    // Stormy intensities, in escalation order: index 0 = rising, 1 = peak.
    const STORMY: [StormIntensity; 2] = [StormIntensity::Rising, StormIntensity::Peak];
    let replicas = cfg.replicas as usize;
    let slot_of = |app: usize, stormy: usize, replica: usize| -> usize {
        (app * STORMY.len() + stormy) * replicas + replica
    };

    let mut profiles_out = Vec::with_capacity(cfg.profiles.len());
    for profile in &cfg.profiles {
        let storm_seed = mix(cfg.seed, profile.fingerprint());
        let schedule = StormSchedule::generate(storm_seed, horizon, cfg.episodes());
        let peak_ends = schedule.peak_ends();

        // Per-request shape: the intensity in force at the arrival
        // instant picks the calm table or a deterministic stormy plan
        // replica. One index into every cell's shape table (calm apps
        // first, then the storm slots) serves the service column, the
        // fault ledger, the blame view and the flight recorder alike.
        let mut arrivals = [0u64; StormIntensity::COUNT];
        let shape_of: Vec<u32> = requests
            .iter()
            .zip(&app_of)
            .map(|(r, &app)| {
                let intensity = schedule.intensity_at(r.arrival);
                arrivals[intensity.index()] += 1;
                let replica = (r.seq % cfg.replicas as u64) as usize;
                let app = app as usize;
                (match intensity {
                    StormIntensity::Calm => app,
                    StormIntensity::Rising => apps.len() + slot_of(app, 0, replica),
                    StormIntensity::Peak => apps.len() + slot_of(app, 1, replica),
                }) as u32
            })
            .collect();
        // Requests riding each shape: a shape's deterministic outcome
        // classifies all of them at once in the fault ledger.
        let mut riders = vec![0u64; apps.len() * (1 + STORMY.len() * replicas)];
        for &s in &shape_of {
            riders[s as usize] += 1;
        }

        let mut cells = Vec::with_capacity(cfg.policies.len());
        for policy in &cfg.policies {
            // The cell's fault-shape table. Plan seeds depend on the
            // storm and the (intensity, replica) slot but *not* on the
            // policy: every policy faces the same storm draws and
            // differs only in how it recovers.
            let mut scenarios = Vec::with_capacity(apps.len() * STORMY.len() * replicas);
            for &app in apps {
                for (si, &intensity) in STORMY.iter().enumerate() {
                    for k in 0..replicas {
                        let plan_seed = mix(storm_seed, ((si as u64 + 1) << 32) | k as u64);
                        let shape_cfg = SimConfig::new(CcMode::On)
                            .with_seed(cfg.shape_seed)
                            .with_fault_plan(profile.plan(intensity, plan_seed))
                            .with_recovery(policy.clone());
                        scenarios.push(Scenario::standard(app, shape_cfg));
                    }
                }
            }
            let entries = engine.run_all(&scenarios);
            let mut shapes = calm_shapes.clone();
            shapes.extend(&entries);

            // Soak-scale leak audit over every simulated shape in the
            // cell (calm + stormy), and the fault ledger of the requests
            // riding them.
            let mut audit = LeakAudit::default();
            let mut ledger = FaultLedger::default();
            let mut violations: Vec<String> = Vec::new();
            let mut max_shape_events = 0usize;
            let mut aborted_shapes = 0usize;
            for (entry, &n) in calm_entries.iter().chain(&entries).zip(&riders) {
                let Ok(r) = entry.run() else {
                    aborted_shapes += 1;
                    ledger.rejected += n;
                    continue;
                };
                if let Err(e) = r.audit.check() {
                    violations.push(format!("shape {}: {e}", entry.label));
                }
                if r.audit.events > SHAPE_EVENT_BOUND {
                    violations.push(format!(
                        "shape {}: {} trace events exceed the {} growth bound",
                        entry.label, r.audit.events, SHAPE_EVENT_BOUND
                    ));
                }
                max_shape_events = max_shape_events.max(r.audit.events);
                audit.absorb(&r.audit);
                let class = if r.fault.degraded > 0 {
                    &mut ledger.degraded
                } else if r.fault.recovered > 0 {
                    &mut ledger.recovered
                } else {
                    &mut ledger.clean
                };
                *class += n;
            }

            // The cluster run: identical trace, identical calendar —
            // only the recovery policy differs between cells. The
            // watchtower correlates against this profile's calendar and
            // blames the critical paths of the shapes requests rode.
            let CellRun {
                mode,
                watch,
                flight,
                sessions_established,
                sessions_closed,
            } = SoakCell {
                requests: &requests,
                tenants: &cfg.tenants,
                shape_of: &shape_of,
                shapes: &shapes,
                cc: CcMode::On,
                gpus: cfg.gpus,
                scheduler: cfg.scheduler,
                max_batch: cfg.max_batch,
                tdx: &cfg.tdx,
                watch: cfg.watch.as_ref().map(|w| WatchPlane {
                    cfg: w,
                    budgets: &cfg.budgets,
                    horizon: SimTime::ZERO + horizon,
                    storm: Some(StormContext {
                        profile: profile.name,
                        schedule: &schedule,
                    }),
                }),
                flight: cfg.flight,
            }
            .run();

            // Fold the flight store's accounting into the cell audit:
            // the exemplar store may never outgrow its
            // `windows × (worst + reservoir)` bound over the full soak.
            if let Some(f) = &flight {
                audit.flight_kept = f.kept_entries;
                audit.flight_windows = f.windows;
            }
            audit.flight_window_budget = cfg.flight.map_or(0, |f| f.per_window_budget());
            if let Err(e) = audit.check() {
                violations.push(format!("cell aggregate: {e}"));
            }

            let ttr = time_to_recover(mode.metrics.gauge_series("serving.queue_depth"), &peak_ends);

            let verdicts = mode
                .tenants
                .iter()
                .zip(&cfg.budgets)
                .map(|(t, &budget)| {
                    let total = t.completed + t.rejected;
                    let reject_ppm = if total > 0 {
                        t.rejected.saturating_mul(1_000_000) / total
                    } else {
                        0
                    };
                    TenantVerdict {
                        name: t.name.clone(),
                        budget,
                        completed: t.completed,
                        rejected: t.rejected,
                        p99: t.latency.quantile(0.99),
                        p999: t.latency.quantile(0.999),
                        reject_ppm,
                    }
                })
                .collect();

            cells.push(PolicyCell {
                policy: policy.clone(),
                mode,
                ledger,
                // The absorbed shape audits carry each shape's fault
                // counters.
                sim_faults: audit.fault,
                audit,
                shapes: shapes.service.len(),
                aborted_shapes,
                max_shape_events,
                sessions_established,
                sessions_closed,
                ttr,
                verdicts,
                violations,
                watch,
                flight,
            });
        }

        profiles_out.push(ProfileReport {
            profile: profile.clone(),
            schedule_fingerprint: schedule.fingerprint(),
            coverage: schedule.coverage(),
            arrivals,
            cells,
        });
    }

    ChaosReport {
        seed: cfg.seed,
        days: cfg.days,
        horizon,
        requests_per_cell: cfg.requests,
        gpus: cfg.gpus,
        arrival: cfg.arrival,
        scheduler: cfg.scheduler,
        episodes: cfg.episodes(),
        replicas: cfg.replicas,
        tenant_names: cfg.tenants.iter().map(|t| t.name.to_string()).collect(),
        budgets: cfg.budgets.clone(),
        profiles: profiles_out,
    }
}

/// Measures how long after each peak window's end the cluster queue
/// drained back to zero. A peak counts as `drained` when the queue was
/// already empty at the window's end (drain time zero) or a later gauge
/// change-point reaches zero; peaks whose backlog never returns to zero
/// before the run ends are left out of the mean/max.
fn time_to_recover(queue: Option<&Series>, peak_ends: &[SimTime]) -> TimeToRecover {
    let mut out = TimeToRecover {
        peaks: peak_ends.len(),
        ..TimeToRecover::default()
    };
    let Some(series) = queue else {
        // No gauge means no queueing ever happened: every peak drained
        // instantly.
        out.drained = out.peaks;
        return out;
    };
    let mut sum = 0u64;
    let mut max = 0u64;
    for &t in peak_ends {
        // Gauge samples are (time, value-after-time) change-points in
        // nondecreasing time order.
        let idx = series.samples.partition_point(|&(st, _)| st <= t);
        let value_at = if idx == 0 {
            0
        } else {
            series.samples[idx - 1].1
        };
        let recovered_at = if value_at == 0 {
            Some(t)
        } else {
            series.samples[idx..]
                .iter()
                .find(|&&(_, v)| v == 0)
                .map(|&(st, _)| st)
        };
        if let Some(r) = recovered_at {
            let d = r.saturating_since(t).as_nanos();
            out.drained += 1;
            sum += d;
            max = max.max(d);
        }
    }
    if out.drained > 0 {
        out.mean = SimDuration::from_nanos(sum / out.drained as u64);
        out.max = SimDuration::from_nanos(max);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ChaosConfig {
        ChaosConfig {
            requests: 400,
            days: 2,
            gpus: 2,
            profiles: vec![StormProfile::bounce_squall()],
            replicas: 1,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn end_to_end_run_is_healthy_and_conserves() {
        let engine = ExperimentEngine::new(2);
        let rep = run(&small(), &engine);
        assert!(rep.healthy(), "{:?}", rep.first_violation());
        assert!(rep.latency_identity());
        assert!(rep.conserved());
        assert!(rep.fault_conserved());
        assert!(rep.sessions_ok());
        assert!(rep.gauges_drained());
        assert_eq!(rep.profiles.len(), 1);
        assert_eq!(rep.profiles[0].cells.len(), 3);
        assert_eq!(rep.total_requests(), 3 * 400);
        // Identical storm, identical trace: the abort cell rejects at
        // least as many requests as the retry cell.
        let retry = &rep.profiles[0].cells[0];
        let abort = &rep.profiles[0].cells[2];
        assert!(abort.ledger.rejected >= retry.ledger.rejected);
    }

    #[test]
    fn reports_are_deterministic_and_thread_invariant() {
        let a = run(&small(), &ExperimentEngine::new(1));
        let b = run(&small(), &ExperimentEngine::new(4));
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn storm_assignment_reacts_to_the_seed() {
        let engine = ExperimentEngine::new(2);
        let a = run(&small(), &engine);
        let reseeded = ChaosConfig {
            seed: DEFAULT_SEED + 1,
            ..small()
        };
        let b = run(&reseeded, &engine);
        assert_ne!(
            a.profiles[0].schedule_fingerprint,
            b.profiles[0].schedule_fingerprint
        );
        assert_ne!(a.render(), b.render());
    }

    #[test]
    fn json_export_round_trips() {
        use hcc_types::json::{Json, ToJson};
        let rep = run(&small(), &ExperimentEngine::new(2));
        let doc = Json::parse(&rep.to_json_string()).expect("chaos JSON parses");
        assert_eq!(
            doc.get("requests_per_cell").and_then(Json::as_u64),
            Some(400)
        );
        assert_eq!(doc.get("healthy"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("leak_free"), Some(&Json::Bool(true)));
        let Some(Json::Arr(profiles)) = doc.get("profiles") else {
            panic!("profiles missing");
        };
        assert_eq!(profiles.len(), 1);
    }

    #[test]
    fn time_to_recover_reads_gauge_changepoints() {
        let series = Series {
            name: "q".to_string(),
            samples: vec![
                (SimTime::from_nanos(10), 3),
                (SimTime::from_nanos(50), 0),
                (SimTime::from_nanos(80), 2),
                (SimTime::from_nanos(120), 0),
            ],
        };
        let peaks = [
            SimTime::from_nanos(20),  // backlog 3, drains at 50 → ttr 30
            SimTime::from_nanos(60),  // already drained → ttr 0
            SimTime::from_nanos(100), // backlog 2, drains at 120 → ttr 20
        ];
        let ttr = time_to_recover(Some(&series), &peaks);
        assert_eq!(ttr.peaks, 3);
        assert_eq!(ttr.drained, 3);
        assert_eq!(ttr.max, SimDuration::from_nanos(30));
        assert_eq!(ttr.mean, SimDuration::from_nanos(50 / 3));
    }
}
