//! Aggregation and rendering of serving-cluster results.
//!
//! A [`ServingReport`] holds, per scheduler and per CC mode, the
//! per-tenant latency/wait CDFs and the cluster-level utilization and
//! throughput figures — all measured on the virtual clock, so the text
//! rendering is byte-identical across engine thread counts. The trailer
//! lines state the two invariants CI greps for: request conservation and
//! the CC-on vs CC-off p99 SLO ordering.

use hcc_tee::TdCounters;
use hcc_trace::{Cdf, MetricsSet};
use hcc_types::json::{Json, ToJson};
use hcc_types::{CcMode, SimDuration, SimTime};
use hcc_workloads::TenantSpec;

use super::arrival::{ArrivalKind, Request};
use super::cluster::ClusterRun;
use super::scheduler::SchedulerKind;

/// One tenant's aggregate over one (scheduler, mode) run.
#[derive(Debug)]
pub struct TenantStats {
    /// Tenant label.
    pub name: String,
    /// Requests that completed on a device.
    pub completed: u64,
    /// Requests rejected because their shape fails deterministically.
    pub rejected: u64,
    /// End-to-end latency CDF (arrival → completion), completed only.
    pub latency: Cdf,
    /// Queueing-wait CDF (arrival → dispatch), completed only.
    pub wait: Cdf,
    /// Σ (completion − arrival) over completed requests, in nanoseconds.
    /// The five totals are `u128`: a soak of millions of requests over
    /// virtual days sums past `u64::MAX` nanoseconds.
    pub latency_total: u128,
    /// Σ (dispatch − arrival) over completed requests, in nanoseconds.
    pub wait_total: u128,
    /// Σ (completion − dispatch) over completed requests, in nanoseconds.
    pub service_total: u128,
    /// Σ solo shape time of completed requests, in nanoseconds.
    pub shape_total: u128,
    /// Σ admission charges (SPDM setup + doorbells) of completed
    /// requests, in nanoseconds.
    pub admission_total: u128,
}

/// One CC mode's cluster run under one scheduler.
#[derive(Debug)]
pub struct ModeRun {
    /// Which mode ran.
    pub cc: CcMode,
    /// Per-tenant aggregates, in population order.
    pub tenants: Vec<TenantStats>,
    /// Virtual makespan.
    pub end: SimTime,
    /// Total device-busy virtual time across GPUs.
    pub busy: SimDuration,
    /// Cluster width.
    pub gpus: usize,
    /// Device batches executed.
    pub batches: u64,
    /// Cold-start (SPDM) admissions.
    pub cold_starts: u64,
    /// TD transition counters summed over every device/tenant context.
    pub td: TdCounters,
    /// Queue-depth and per-GPU occupancy gauges plus run counters.
    pub metrics: MetricsSet,
}

impl ModeRun {
    /// Mean device utilization over the makespan, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        let span = self.end.as_secs_f64() * self.gpus as f64;
        if span <= 0.0 {
            return 0.0;
        }
        (self.busy.as_secs_f64() / span).min(1.0)
    }

    /// Completed requests per virtual second.
    pub fn throughput(&self) -> f64 {
        let secs = self.end.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.completed() as f64 / secs
    }

    /// Completed requests across all tenants.
    pub fn completed(&self) -> u64 {
        self.tenants.iter().map(|t| t.completed).sum()
    }

    /// Rejected requests across all tenants.
    pub fn rejected(&self) -> u64 {
        self.tenants.iter().map(|t| t.rejected).sum()
    }
}

/// Both modes of one scheduler over the shared trace.
#[derive(Debug)]
pub struct SchedulerRun {
    /// The discipline.
    pub scheduler: SchedulerKind,
    /// CC-off then CC-on, in [`CcMode::ALL`] order.
    pub modes: [ModeRun; 2],
    /// SLO watchtower over the CC-on run (`None` unless the config
    /// enabled the watch plane).
    pub watch: Option<crate::watch::WatchReport>,
    /// Flight-recorder exemplar log over the CC-on run (`None` unless
    /// the config enabled the flight plane). Never feeds `render()`:
    /// the text report stays byte-identical to a flight-free build.
    pub flight: Option<hcc_trace::FlightLog>,
}

impl SchedulerRun {
    /// The CC-off run.
    pub fn off(&self) -> &ModeRun {
        &self.modes[0]
    }

    /// The CC-on run.
    pub fn on(&self) -> &ModeRun {
        &self.modes[1]
    }
}

/// The complete serving experiment: every scheduler, both modes.
#[derive(Debug)]
pub struct ServingReport {
    /// Arrival-stream seed.
    pub seed: u64,
    /// Total requests generated (the admitted count for every run).
    pub requests: u64,
    /// Cluster width.
    pub gpus: usize,
    /// Arrival process.
    pub arrival: ArrivalKind,
    /// Tenant labels, in population order.
    pub tenant_names: Vec<String>,
    /// Distinct shape scenarios per mode (the engine's working set).
    pub distinct_shapes: usize,
    /// One entry per requested scheduler.
    pub runs: Vec<SchedulerRun>,
}

/// Builds one tenant-resolved [`ModeRun`] from a raw cluster run.
pub fn mode_run(
    cc: CcMode,
    gpus: usize,
    tenants: &[TenantSpec],
    requests: &[Request],
    service: &[Result<SimDuration, String>],
    run: ClusterRun,
) -> ModeRun {
    let mut latency: Vec<Vec<SimDuration>> = vec![Vec::new(); tenants.len()];
    let mut wait: Vec<Vec<SimDuration>> = vec![Vec::new(); tenants.len()];
    let mut rejected = vec![0u64; tenants.len()];
    let mut latency_total = vec![0u128; tenants.len()];
    let mut wait_total = vec![0u128; tenants.len()];
    let mut service_total = vec![0u128; tenants.len()];
    let mut shape_total = vec![0u128; tenants.len()];
    let mut admission_total = vec![0u128; tenants.len()];
    let ns = |d: SimDuration| u128::from(d.as_nanos());

    for ((req, outcome), shape) in requests.iter().zip(&run.outcomes).zip(service) {
        let t = req.tenant;
        if outcome.rejected {
            rejected[t] += 1;
            continue;
        }
        let l = outcome.completion.saturating_since(req.arrival);
        let w = outcome.dispatch.saturating_since(req.arrival);
        let s = outcome.completion.saturating_since(outcome.dispatch);
        latency[t].push(l);
        wait[t].push(w);
        latency_total[t] += ns(l);
        wait_total[t] += ns(w);
        service_total[t] += ns(s);
        shape_total[t] += ns(*shape.as_ref().expect("completed requests have a shape"));
        admission_total[t] += ns(outcome.admission);
    }

    let tenants = tenants
        .iter()
        .enumerate()
        .map(|(t, spec)| TenantStats {
            name: spec.name.to_string(),
            completed: latency[t].len() as u64,
            rejected: rejected[t],
            latency: Cdf::from_durations(std::mem::take(&mut latency[t])),
            wait: Cdf::from_durations(std::mem::take(&mut wait[t])),
            latency_total: latency_total[t],
            wait_total: wait_total[t],
            service_total: service_total[t],
            shape_total: shape_total[t],
            admission_total: admission_total[t],
        })
        .collect();

    ModeRun {
        cc,
        tenants,
        end: run.end,
        busy: run.busy,
        gpus,
        batches: run.batches,
        cold_starts: run.cold_starts,
        td: run.td,
        metrics: run.metrics,
    }
}

impl ServingReport {
    /// Conservation invariant: in every run, every admitted request
    /// either completed or was rejected — exactly once, none lost.
    pub fn conserved(&self) -> bool {
        self.runs.iter().all(|r| {
            r.modes
                .iter()
                .all(|m| m.completed() + m.rejected() == self.requests)
        })
    }

    /// SLO ordering: CC-on p99 latency strictly above CC-off p99 for
    /// every tenant under every scheduler (tenants with no completions
    /// are vacuously fine — they have nothing to order).
    pub fn slo_holds(&self) -> bool {
        self.runs.iter().all(|r| {
            r.off()
                .tenants
                .iter()
                .zip(&r.on().tenants)
                .all(|(off, on)| {
                    off.latency.is_empty()
                        || on.latency.is_empty()
                        || on.latency.quantile(0.99) > off.latency.quantile(0.99)
                })
        })
    }

    /// Renders the full text report (virtual-time figures only).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "=== serving: multi-tenant CC cluster ===");
        let _ = writeln!(
            out,
            "requests {} | gpus {} | tenants {} | arrival {} | seed {:#x} | shapes {}",
            self.requests,
            self.gpus,
            self.tenant_names.join(","),
            self.arrival,
            self.seed,
            self.distinct_shapes
        );
        for run in &self.runs {
            let _ = writeln!(out, "\n=== scheduler: {} ===", run.scheduler);
            let _ = writeln!(
                out,
                "{:<10} {:>5} {:>8} {:>5} {:>10} {:>10} {:>10} {:>10} {:>10}",
                "tenant", "mode", "n", "err", "mean", "p50", "p99", "p999", "wait-p50"
            );
            for mode in &run.modes {
                for t in &mode.tenants {
                    let _ = writeln!(
                        out,
                        "{:<10} {:>5} {:>8} {:>5} {:>10} {:>10} {:>10} {:>10} {:>10}",
                        t.name,
                        mode.cc.to_string(),
                        t.completed,
                        t.rejected,
                        t.latency.mean().to_string(),
                        t.latency.quantile(0.5).to_string(),
                        t.latency.quantile(0.99).to_string(),
                        t.latency.quantile(0.999).to_string(),
                        t.wait.quantile(0.5).to_string(),
                    );
                }
            }
            for mode in &run.modes {
                let _ = writeln!(
                    out,
                    "cluster    {:>5}  util {:>3.0}%  throughput {:>9.1} req/s  \
                     makespan {:>9}  batches {:>6}  cold {:>3}  hypercalls {}",
                    mode.cc.to_string(),
                    mode.utilization() * 100.0,
                    mode.throughput(),
                    mode.end.saturating_since(SimTime::ZERO).to_string(),
                    mode.batches,
                    mode.cold_starts,
                    mode.td.hypercalls,
                );
            }
            let slowdowns: Vec<String> = run
                .off()
                .tenants
                .iter()
                .zip(&run.on().tenants)
                .map(|(off, on)| {
                    format!(
                        "{} {}",
                        off.name,
                        crate::report::ratio(
                            on.latency.quantile(0.99) / off.latency.quantile(0.99)
                        )
                    )
                })
                .collect();
            let _ = writeln!(out, "p99 slowdown (cc/base): {}", slowdowns.join("  "));
            if let Some(watch) = &run.watch {
                let _ = writeln!(out, "\n--- watch: {} cc-on ---", run.scheduler);
                out.push_str(&watch.render());
            }
        }
        let _ = writeln!(
            out,
            "\nconservation: admitted == completed + rejected (all runs): {}",
            self.conserved()
        );
        let _ = writeln!(
            out,
            "slo cc-on p99 > cc-off p99 (all tenants, all schedulers): {}",
            self.slo_holds()
        );
        out
    }
}

/// A nanosecond total as a JSON integer, or as a float once it no longer
/// fits in `u64`.
fn ns_json(ns: u128) -> Json {
    u64::try_from(ns).map_or(Json::F64(ns as f64), Json::U64)
}

impl ToJson for TenantStats {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("tenant".to_string(), Json::Str(self.name.clone())),
            ("completed".to_string(), Json::U64(self.completed)),
            ("rejected".to_string(), Json::U64(self.rejected)),
            ("latency".to_string(), self.latency.to_json()),
            ("wait".to_string(), self.wait.to_json()),
            ("service_total_ns".to_string(), ns_json(self.service_total)),
            (
                "admission_total_ns".to_string(),
                ns_json(self.admission_total),
            ),
        ])
    }
}

impl ToJson for ModeRun {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("mode".to_string(), self.cc.to_json()),
            (
                "end_ns".to_string(),
                Json::U64(self.end.saturating_since(SimTime::ZERO).as_nanos()),
            ),
            ("busy_ns".to_string(), Json::U64(self.busy.as_nanos())),
            (
                "utilization_pct".to_string(),
                Json::U64((self.utilization() * 100.0).round() as u64),
            ),
            (
                "throughput_rps".to_string(),
                Json::U64(self.throughput().round() as u64),
            ),
            ("batches".to_string(), Json::U64(self.batches)),
            ("cold_starts".to_string(), Json::U64(self.cold_starts)),
            ("hypercalls".to_string(), Json::U64(self.td.hypercalls)),
            (
                "tenants".to_string(),
                Json::Arr(self.tenants.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

impl ToJson for ServingReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("seed".to_string(), Json::U64(self.seed)),
            ("requests".to_string(), Json::U64(self.requests)),
            ("gpus".to_string(), Json::U64(self.gpus as u64)),
            ("arrival".to_string(), Json::Str(self.arrival.to_string())),
            (
                "distinct_shapes".to_string(),
                Json::U64(self.distinct_shapes as u64),
            ),
            ("conserved".to_string(), Json::Bool(self.conserved())),
            ("slo_holds".to_string(), Json::Bool(self.slo_holds())),
            (
                "schedulers".to_string(),
                Json::Arr(
                    self.runs
                        .iter()
                        .map(|r| {
                            let mut fields = vec![
                                ("scheduler".to_string(), Json::Str(r.scheduler.to_string())),
                                (
                                    "modes".to_string(),
                                    Json::Arr(r.modes.iter().map(ToJson::to_json).collect()),
                                ),
                            ];
                            if let Some(watch) = &r.watch {
                                fields.push(("watch".to_string(), watch.to_json()));
                            }
                            if let Some(flight) = &r.flight {
                                fields.push(("flight".to_string(), flight.to_json()));
                            }
                            Json::Obj(fields)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::cluster::Outcome;

    /// Three requests whose latencies each take half the nanosecond
    /// clock: the per-tenant sums pass `u64::MAX` and stay exact.
    #[test]
    fn tenant_totals_hold_soak_scale_sums() {
        let half = u64::MAX / 2;
        let wait = SimDuration::from_nanos(half / 4);
        let requests: Vec<Request> = (0..3)
            .map(|seq| Request {
                seq,
                tenant: 0,
                class: 0,
                arrival: SimTime::ZERO,
            })
            .collect();
        let outcome = Outcome {
            dispatch: SimTime::ZERO + wait,
            completion: SimTime::from_nanos(half),
            admission: SimDuration::from_nanos(7),
            spdm: SimDuration::ZERO,
            cold: false,
            batch: 1,
            gpu: 0,
            rejected: false,
        };
        let run = ClusterRun {
            outcomes: vec![outcome; 3],
            end: SimTime::from_nanos(half),
            busy: SimDuration::ZERO,
            batches: 3,
            cold_starts: 0,
            sessions_established: 0,
            sessions_closed: 0,
            td: TdCounters::default(),
            metrics: MetricsSet::new(),
        };
        let shape = SimDuration::from_nanos(half - half / 4 - 7);
        let service = vec![Ok(shape); 3];
        let tenants = hcc_workloads::default_tenants(1);
        let mode = mode_run(CcMode::On, 1, &tenants, &requests, &service, run);
        let t = &mode.tenants[0];
        assert_eq!(t.latency_total, 3 * u128::from(half));
        assert!(t.latency_total > u128::from(u64::MAX));
        assert_eq!(t.latency_total, t.wait_total + t.service_total);
        assert_eq!(t.service_total, t.shape_total + t.admission_total);
        assert_eq!(t.admission_total, 21);
    }
}
