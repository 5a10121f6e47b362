//! Property-based contracts over the multi-tenant serving simulator:
//! the determinism and conservation invariants the serving tentpole
//! (DESIGN.md §4) promises, checked with the in-repo `hcc-check`
//! harness. Every property pins its seed so CI failures replay
//! bit-for-bit (`HCC_CHECK_SEED=<seed>` overrides).

use hcc_bench::engine::ExperimentEngine;
use hcc_bench::serving::{self, arrival, cluster, AppTable};
use hcc_bench::serving::{ArrivalKind, SchedulerKind, ServingConfig};
use hcc_bench::soak::ShapeTable;
use hcc_check::strategy::{f64s, u64s};
use hcc_check::{ensure, ensure_eq, forall, Config};
use hcc_runtime::SimConfig;
use hcc_trace::{FlightRecorder, RollupCollector};
use hcc_types::calib::TdxCalib;
use hcc_types::json::ToJson;
use hcc_types::rng::Xoshiro256;
use hcc_types::{CcMode, FaultPlan, RecoveryPolicy, SimDuration, SimTime};
use hcc_workloads::{default_tenants, Scenario};

/// Replaying a seed reproduces the arrival trace bit for bit — every
/// seq rank, tenant, class pick, and nanosecond — for every process
/// kind, while a perturbed seed yields a different trace.
#[test]
fn arrival_traces_replay_bit_for_bit_per_seed() {
    forall!(
        Config::new(0x5E21_0001).with_cases(16),
        (seed, kind_pick, r0, r1) in (
            u64s(0..u64::MAX),
            u64s(0..3),
            f64s(5.0..80.0),
            f64s(5.0..80.0)
        ) => {
            let kind = ArrivalKind::ALL[kind_pick as usize];
            let tenants = default_tenants(2);
            let a = arrival::generate(&tenants, &[r0, r1], kind, 400, seed);
            let b = arrival::generate(&tenants, &[r0, r1], kind, 400, seed);
            ensure_eq!(a.len(), 400);
            ensure!(a == b, "{kind}: replay diverged under seed {seed:#x}");
            let c = arrival::generate(
                &tenants,
                &[r0, r1],
                kind,
                400,
                seed ^ 0x9E37_79B9_7F4A_7C15,
            );
            ensure!(a != c, "{kind}: trace ignored the seed");
        }
    );
}

/// The Poisson process hits its configured rate: over 5000 draws the
/// mean inter-arrival gap lands within 8% of `1/rate` (the sample mean
/// of n exponentials has relative sd `1/sqrt(n)` ≈ 1.4%, so this bound
/// is ~5σ — and the pinned seed makes the test deterministic anyway).
#[test]
fn poisson_inter_arrival_mean_tracks_the_rate() {
    forall!(
        Config::new(0x5E21_0002).with_cases(12),
        (seed, rate) in (u64s(0..u64::MAX), f64s(2.0..200.0)) => {
            let mut proc = arrival::ArrivalProcess::new(
                ArrivalKind::Poisson,
                rate,
                Xoshiro256::seed_from_u64(seed),
            );
            let n = 5000u64;
            let mut last = SimTime::ZERO;
            for _ in 0..n {
                last = proc.next_arrival();
            }
            let mean_gap = last.as_secs_f64() / n as f64;
            let expected = 1.0 / rate;
            ensure!(
                (mean_gap - expected).abs() / expected < 0.08,
                "rate {rate:.2}: mean inter-arrival {mean_gap:.6} vs expected {expected:.6}"
            );
        }
    );
}

/// Conservation under fault injection: whatever the fault plan does to
/// the request shapes (deterministic failures become rejections), every
/// admitted request settles exactly once — completed or rejected, none
/// lost, under every scheduler in both modes.
#[test]
fn conservation_survives_fault_driven_rejections() {
    let engine = ExperimentEngine::new(2);
    forall!(
        Config::new(0x5E21_0003).with_cases(6),
        (plan_seed, rate, kind_pick, gpus) in (
            u64s(0..u64::MAX),
            f64s(0.1..0.9),
            u64s(0..3),
            u64s(1..4)
        ) => {
            let cfg = ServingConfig {
                requests: 160,
                gpus: gpus as usize,
                arrival: ArrivalKind::ALL[kind_pick as usize],
                fault: Some(FaultPlan::uniform(plan_seed, rate)),
                recovery: Some(RecoveryPolicy::Abort),
                ..ServingConfig::default()
            };
            let rep = serving::run(&cfg, &engine);
            ensure!(rep.conserved(), "conservation broke under plan {plan_seed:#x}");
            for run in &rep.runs {
                for mode in &run.modes {
                    ensure_eq!(mode.completed() + mode.rejected(), 160);
                }
            }
        }
    );
}

/// Every outcome names the GPU its batch ran on, which makes placement
/// and the derived gauges checkable: admitted requests land on a real
/// GPU, a GPU never runs two batches at once, the queue drains and
/// integrates to exactly the summed waits, and the per-GPU depths
/// integrate to exactly the summed services. This holds under every
/// scheduler, at any load, with abort plans rejecting whole shapes.
#[test]
fn outcomes_place_batches_and_gauges_integrate_exactly() {
    let engine = ExperimentEngine::new(2);
    forall!(
        Config::new(0x5E21_0004).with_cases(12),
        ((n, gpus, tenant_count), (kind_pick, max_batch, util), (plan_seed, abort_mask)) in (
            (u64s(1..600), u64s(1..5), u64s(1..5)),
            (u64s(0..3), u64s(1..9), f64s(0.2..1.5)),
            (u64s(0..u64::MAX), u64s(0..1 << 10))
        ) => {
            let tenants = default_tenants(tenant_count as usize);
            let kind = SchedulerKind::ALL[kind_pick as usize];
            let table = AppTable::new(&tenants);
            // App `i` runs under a dense abort plan when bit `i` of
            // `abort_mask` is set, so every one of its requests rejects.
            let scenarios: Vec<Scenario> = table
                .apps
                .iter()
                .enumerate()
                .map(|(i, &app)| {
                    let mut cfg = SimConfig::new(CcMode::On);
                    if abort_mask >> i & 1 == 1 {
                        cfg = cfg
                            .with_fault_plan(FaultPlan::uniform(plan_seed, 0.5))
                            .with_recovery(RecoveryPolicy::Abort);
                    }
                    Scenario::standard(app, cfg)
                })
                .collect();
            let mut shapes = ShapeTable::new(false);
            shapes.extend(&engine.run_all(&scenarios));

            // Offered load `util` of the cluster, against the mean
            // surviving shape (1 ms when every shape aborts).
            let ok: Vec<u64> = shapes.service.iter().flatten().map(|d| d.as_nanos()).collect();
            let mean_s = if ok.is_empty() {
                1e-3
            } else {
                ok.iter().sum::<u64>() as f64 / ok.len() as f64 / 1e9
            };
            let rate_per_tenant = util * gpus as f64 / mean_s / tenants.len() as f64;
            let requests = arrival::generate(
                &tenants,
                &vec![rate_per_tenant; tenants.len()],
                ArrivalKind::Bursty,
                n,
                plan_seed,
            );
            let service: Vec<Result<SimDuration, String>> = table
                .per_request(&requests)
                .iter()
                .map(|&s| shapes.service[s as usize].clone())
                .collect();
            let run = cluster::simulate(
                &requests,
                &service,
                &tenants,
                CcMode::On,
                gpus as usize,
                kind,
                max_batch as usize,
                &TdxCalib::default(),
                &mut RollupCollector::new(),
                &mut FlightRecorder::new(),
            );

            let mut waits = SimDuration::ZERO;
            let mut services = SimDuration::ZERO;
            let mut spans = Vec::new();
            for (req, o) in requests.iter().zip(&run.outcomes) {
                waits += o.dispatch.saturating_since(req.arrival);
                if o.rejected {
                    continue;
                }
                ensure!(u64::from(o.gpu) < gpus, "{kind}: gpu {} of {gpus}", o.gpu);
                services += o.completion.saturating_since(o.dispatch);
                spans.push((o.gpu, o.dispatch, o.completion, o.batch));
            }
            // A batch is the requests sharing a (gpu, dispatch): they
            // share a completion, and there are exactly `batch` of them.
            spans.sort_unstable();
            for batch in spans.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
                let (gpu, dispatch, completion, size) = batch[0];
                ensure!(
                    batch.iter().all(|s| s.2 == completion && s.3 as usize == batch.len()),
                    "{kind}: gpu {gpu} batch at {dispatch} has {} members, sizes {size}",
                    batch.len()
                );
            }
            for w in spans.windows(2) {
                if w[0].0 == w[1].0 && w[0].1 != w[1].1 {
                    ensure!(
                        w[1].1 >= w[0].2,
                        "{kind}: gpu {} starts a batch at {} before {} ends",
                        w[0].0,
                        w[1].1,
                        w[0].2
                    );
                }
            }

            let queue = run
                .metrics
                .gauge_series("serving.queue_depth")
                .expect("queue gauge");
            ensure_eq!(queue.final_value(), 0);
            ensure_eq!(queue.integral(), waits);
            let mut depth = SimDuration::ZERO;
            for g in 0..gpus {
                let series = run
                    .metrics
                    .gauge_series(&format!("serving.gpu{g}.depth"))
                    .expect("gpu gauge");
                ensure_eq!(series.final_value(), 0);
                depth += series.integral();
            }
            ensure_eq!(depth, services);
        }
    );
}

/// With an aggressive abort-on-fault plan the CC path actually sheds
/// load — rejections are exercised, not just vacuously conserved — and
/// the report still renders with both trailer invariants intact.
#[test]
fn aggressive_fault_plans_reject_without_losing_requests() {
    let engine = ExperimentEngine::new(2);
    let cfg = ServingConfig {
        requests: 300,
        gpus: 2,
        fault: Some(FaultPlan::uniform(0xFA_17, 0.95)),
        recovery: Some(RecoveryPolicy::Abort),
        ..ServingConfig::default()
    };
    let rep = serving::run(&cfg, &engine);
    assert!(rep.conserved());
    let rejected: u64 = rep
        .runs
        .iter()
        .flat_map(|r| r.modes.iter())
        .map(|m| m.rejected())
        .sum();
    assert!(rejected > 0, "a 95% fault rate must reject something");
    let text = rep.render();
    assert!(text.contains("conservation: admitted == completed + rejected (all runs): true"));
}

/// Engine worker-pool width is invisible in the serving report: a
/// 1-thread and a 4-thread engine produce byte-identical text and JSON
/// for the full multi-scheduler run.
#[test]
fn serving_report_is_invariant_to_engine_thread_count() {
    let cfg = ServingConfig {
        requests: 1_500,
        gpus: 3,
        schedulers: SchedulerKind::ALL.to_vec(),
        ..ServingConfig::default()
    };
    let narrow = serving::run(&cfg, &ExperimentEngine::new(1));
    let wide = serving::run(&cfg, &ExperimentEngine::new(4));
    assert_eq!(
        narrow.render(),
        wide.render(),
        "report text must not depend on HCC_ENGINE_THREADS"
    );
    assert_eq!(narrow.to_json_string(), wide.to_json_string());
}
