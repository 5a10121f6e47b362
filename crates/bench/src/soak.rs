//! The soak core: one request trace riding a per-shape table through one
//! cluster run, with every observability plane derived from the run's
//! outcomes afterwards (DESIGN.md §4, "Serving layer").
//!
//! [`crate::serving::run`] (one cell per scheduler × CC mode) and
//! [`crate::chaos::run`] (one cell per storm profile × recovery policy)
//! are thin drivers over [`SoakCell::run`]. They differ only in how
//! requests map to shapes (calm per app for serving, storm intensity ×
//! replica for chaos) and in what chaos layers on top: its fault ledger,
//! leak audit, time-to-recover and verdicts.

use std::sync::Arc;

use hcc_trace::flight::ShapeDecomp;
use hcc_trace::{critpath, FlightConfig, FlightLog, FlightRecorder, RollupCollector};
use hcc_types::calib::TdxCalib;
use hcc_types::{CcMode, LatencyBudget, Planes, SimDuration, SimTime};
use hcc_workloads::TenantSpec;

use crate::engine::ScenarioResult;
use crate::serving::report::{mode_run, ModeRun};
use crate::serving::{cluster, Request, SchedulerKind};
use crate::watch::{self, BlameView, SoakView, StormContext, WatchConfig, WatchReport};

/// Every simulated shape a soak's requests ride, each resolved once.
#[derive(Debug, Clone, Default)]
pub struct ShapeTable {
    /// Each shape's solo service time, or the error it fails with.
    pub service: Vec<Result<SimDuration, String>>,
    /// Each shape's flight and blame decomposition: `None` unless a
    /// watch or flight plane observes the soak.
    pub decomps: Option<Vec<ShapeDecomp>>,
}

impl ShapeTable {
    /// An empty table that decomposes the shapes it resolves iff
    /// `decompose`.
    pub fn new(decompose: bool) -> Self {
        ShapeTable {
            service: Vec::new(),
            decomps: decompose.then(Vec::new),
        }
    }

    /// Resolves simulated shapes onto the end of the table, extracting
    /// each one's critical path at most once.
    pub fn extend(&mut self, entries: &[Arc<ScenarioResult>]) {
        for entry in entries {
            let run = entry.run();
            self.service.push(match &run {
                Ok(r) => Ok(SimDuration::from_nanos(r.end.as_nanos())),
                Err(f) => Err(f.error.clone()),
            });
            if let Some(decomps) = &mut self.decomps {
                decomps.push(match run {
                    Ok(r) => ShapeDecomp {
                        total: SimDuration::from_nanos(r.end.as_nanos()),
                        attr: critpath::extract(&r.timeline, &r.causal).attribution(),
                        faults: r.fault,
                    },
                    Err(_) => ShapeDecomp::default(),
                });
            }
        }
    }
}

/// How the watchtower observes a cell.
#[derive(Debug, Clone, Copy)]
pub struct WatchPlane<'a> {
    /// Window and alert knobs.
    pub cfg: &'a WatchConfig,
    /// Per-tenant SLO budgets, aligned with the cell's tenants.
    pub budgets: &'a [LatencyBudget],
    /// The storm-calendar horizon (`ZERO` without a calendar); windows
    /// run to the makespan when that is later.
    pub horizon: SimTime,
    /// Storm calendar, when the soak ran under one.
    pub storm: Option<StormContext<'a>>,
}

/// One cluster run of a soak and the planes that observe it.
#[derive(Debug, Clone, Copy)]
pub struct SoakCell<'a> {
    /// The shared arrival trace.
    pub requests: &'a [Request],
    /// Tenant population.
    pub tenants: &'a [TenantSpec],
    /// Each request's index into `shapes`.
    pub shape_of: &'a [u32],
    /// The shapes requests ride.
    pub shapes: &'a ShapeTable,
    /// Mode the cluster's session pools run in.
    pub cc: CcMode,
    /// Cluster width.
    pub gpus: usize,
    /// Queue discipline.
    pub scheduler: SchedulerKind,
    /// Continuous-batching cap.
    pub max_batch: usize,
    /// TDX calibration for the per-device session pools.
    pub tdx: &'a TdxCalib,
    /// Watchtower settings; `None` keeps the rollup plane off.
    pub watch: Option<WatchPlane<'a>>,
    /// Flight sampler settings; `None` keeps the flight plane off.
    pub flight: Option<FlightConfig>,
}

/// What one soak cell produced.
#[derive(Debug)]
pub struct CellRun {
    /// The tenant-resolved cluster run.
    pub mode: ModeRun,
    /// Watchtower report, exemplars linked when the flight plane ran.
    pub watch: Option<WatchReport>,
    /// Resolved exemplar log. Its `windows` and `kept_entries` are the
    /// exemplar store's accounting for the leak audit.
    pub flight: Option<FlightLog>,
    /// Sessions established across every device pool.
    pub sessions_established: u64,
    /// Sessions the end-of-run drain closed.
    pub sessions_closed: u64,
}

impl SoakCell<'_> {
    /// Drains the trace through the cluster, then derives the rollup,
    /// watch report and flight log from its outcomes.
    pub fn run(&self) -> CellRun {
        let service: Vec<Result<SimDuration, String>> = self
            .shape_of
            .iter()
            .map(|&s| self.shapes.service[s as usize].clone())
            .collect();
        let mut rollup = match self.watch {
            Some(_) => RollupCollector::enabled(),
            None => RollupCollector::new(),
        };
        let mut recorder = FlightRecorder::for_planes(
            Planes::NONE.set(Planes::FLIGHT, self.flight.is_some()),
            self.flight.unwrap_or_default(),
        );
        let raw = cluster::simulate(
            self.requests,
            &service,
            self.tenants,
            self.cc,
            self.gpus,
            self.scheduler,
            self.max_batch,
            self.tdx,
            &mut rollup,
            &mut recorder,
        );
        let (sessions_established, sessions_closed) =
            (raw.sessions_established, raw.sessions_closed);
        let mode = mode_run(
            self.cc,
            self.gpus,
            self.tenants,
            self.requests,
            &service,
            raw,
        );

        let decomps = self.shapes.decomps.as_deref();
        let mut watch = self.watch.map(|plane| {
            let tenant_names: Vec<String> =
                self.tenants.iter().map(|t| t.name.to_string()).collect();
            let attrs: Option<Vec<_>> = decomps.map(|d| d.iter().map(|d| d.attr).collect());
            watch::observe(
                plane.cfg,
                &SoakView {
                    tenant_names: &tenant_names,
                    budgets: plane.budgets,
                    samples: &rollup.into_sorted(),
                    horizon: plane.horizon.max(mode.end),
                    queue: mode.metrics.gauge_series("serving.queue_depth"),
                    storm: plane.storm,
                    blame: attrs.as_ref().map(|attrs| BlameView {
                        shape_of: self.shape_of,
                        attrs,
                    }),
                },
            )
        });
        let flight = self
            .flight
            .map(|_| recorder.resolve(self.shape_of, decomps.unwrap_or_default()));
        if let (Some(w), Some(f)) = (watch.as_mut(), flight.as_ref()) {
            w.link_exemplars(f);
        }

        CellRun {
            mode,
            watch,
            flight,
            sessions_established,
            sessions_closed,
        }
    }
}
