//! The discrete-event cluster simulation: N confidential GPUs draining
//! one scheduler's queue over virtual time.
//!
//! The loop is single-threaded and advances a virtual clock through a
//! merged event stream (arrivals from the open-loop trace, completions
//! from a binary heap), so a run is a pure function of its inputs — the
//! engine's worker-thread count can never reorder it. Completions at a
//! given instant are processed before arrivals at the same instant, and
//! dispatch happens after all state changes at that instant, onto the
//! lowest-numbered idle GPU first.
//!
//! Each GPU owns a [`SessionPool`]: a tenant's first request on a device
//! pays the full SPDM handshake (CC-on), and every request pays the
//! submit/complete doorbell pair — so CC-on admission costs ride the
//! same TD cost oracle as the rest of the lab.

use std::collections::{BTreeSet, BinaryHeap};

use hcc_tee::{SessionPool, TdCounters};
use hcc_trace::flight::{FlightRecorder, FlightSkeleton};
use hcc_trace::rollup::CompletionSample;
use hcc_trace::{MetricsSet, RollupCollector, Series};
use hcc_types::calib::TdxCalib;
use hcc_types::{CcMode, SimDuration, SimTime};
use hcc_workloads::TenantSpec;

use super::arrival::Request;
use super::scheduler::{SchedQueue, SchedulerKind};

/// Marginal cost of each additional request coalesced into a device
/// batch, as a fraction of the shape's solo service time: a batch of `k`
/// runs for `P * (1 + SLOPE * (k - 1))` plus its admission charges.
const BATCH_MARGIN: f64 = 0.35;

/// What happened to one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// When the scheduler handed the request to a device (or rejected it).
    pub dispatch: SimTime,
    /// When its batch finished (equals `dispatch` for rejections).
    pub completion: SimTime,
    /// Admission charge (session setup + doorbells) folded into the
    /// batch's service on this request's behalf; zero for rejections.
    pub admission: SimDuration,
    /// SPDM session-establishment share of `admission` (zero on session
    /// reuse and for rejections); the remainder is the doorbell pair.
    pub spdm: SimDuration,
    /// Whether admission was a cold start (paid the SPDM handshake).
    pub cold: bool,
    /// Size of the device batch the request rode in.
    pub batch: u32,
    /// GPU the batch ran on (0 for rejections).
    pub gpu: u32,
    /// Whether the request was rejected because its shape scenario fails
    /// deterministically (e.g. an aborted fault-injection run).
    pub rejected: bool,
}

impl Outcome {
    /// The rollup plane's view of request `i`: settled at its completion
    /// (its dispatch, for rejections).
    pub fn sample(&self, i: usize, req: &Request) -> CompletionSample {
        CompletionSample {
            req: i as u32,
            tenant: req.tenant as u32,
            at: self.completion,
            latency: self.completion.saturating_since(req.arrival),
            rejected: self.rejected,
        }
    }

    /// The flight plane's view of request `i`: its *own* SPDM/doorbell
    /// admission split (co-batched members' admissions surface later as
    /// the batch-margin span).
    pub fn skeleton(&self, i: usize, req: &Request) -> FlightSkeleton {
        FlightSkeleton {
            req: i as u32,
            tenant: req.tenant as u32,
            gpu: self.gpu,
            batch: self.batch,
            arrival: req.arrival,
            dispatch: self.dispatch,
            settle: self.completion,
            spdm: self.spdm,
            doorbell: self.admission - self.spdm,
            cold: self.cold,
            rejected: self.rejected,
        }
    }
}

/// One (scheduler, mode) cluster run over the shared request trace.
#[derive(Debug)]
pub struct ClusterRun {
    /// Per-request outcomes, aligned with the request slice.
    pub outcomes: Vec<Outcome>,
    /// Virtual time of the last event (the makespan).
    pub end: SimTime,
    /// Total device-busy virtual time, summed across GPUs.
    pub busy: SimDuration,
    /// Device batches actually executed.
    pub batches: u64,
    /// Cold-start admissions (first request of a tenant on a device).
    pub cold_starts: u64,
    /// Sessions established across every device pool (equals
    /// `cold_starts`: each cold admission attests exactly one session).
    pub sessions_established: u64,
    /// Sessions torn down by the end-of-run drain. Leak-audit identity:
    /// equals `sessions_established`, and no pool reports an established
    /// session afterwards.
    pub sessions_closed: u64,
    /// TD transition counters summed over every (device, tenant) context.
    pub td: TdCounters,
    /// Queue-depth and per-GPU occupancy gauges.
    pub metrics: MetricsSet,
}

/// Simulates one scheduler draining the trace on `gpus` devices.
///
/// `service` carries each request's memoized shape outcome: the solo
/// device time of its scenario, or the error a deterministic failure
/// produced (those requests are rejected at dispatch, never losing
/// conservation: every admitted request either completes or rejects
/// exactly once).
///
/// The event loop writes only the per-request [`Outcome`]s. Everything
/// observed about the run is derived from `(Request, Outcome)` after the
/// loop: the queue-depth and per-GPU depth gauges always, and, when the
/// caller enabled them, one [`CompletionSample`] per request into
/// `rollup` and one [`FlightSkeleton`] per request into `flight`
/// ([`Outcome::sample`], [`Outcome::skeleton`]).
pub fn simulate(
    requests: &[Request],
    service: &[Result<SimDuration, String>],
    tenants: &[TenantSpec],
    cc: CcMode,
    gpus: usize,
    kind: SchedulerKind,
    max_batch: usize,
    tdx: &TdxCalib,
    rollup: &mut RollupCollector,
    flight: &mut FlightRecorder,
) -> ClusterRun {
    assert_eq!(requests.len(), service.len());
    assert!(gpus > 0, "a cluster needs at least one GPU");

    let placeholder = Outcome {
        dispatch: SimTime::ZERO,
        completion: SimTime::ZERO,
        admission: SimDuration::ZERO,
        spdm: SimDuration::ZERO,
        cold: false,
        batch: 0,
        gpu: 0,
        rejected: false,
    };
    let mut outcomes = vec![placeholder; requests.len()];
    let mut settled = vec![false; requests.len()];

    let mut queue = SchedQueue::new(kind, tenants, max_batch, requests.len());
    let mut idle: BTreeSet<usize> = (0..gpus).collect();
    // Min-heap of (completion time, gpu); one in-flight batch per GPU.
    let mut completions: BinaryHeap<std::cmp::Reverse<(SimTime, usize)>> = BinaryHeap::new();
    let mut pools: Vec<SessionPool> = (0..gpus)
        .map(|_| SessionPool::new(cc, tdx.clone()))
        .collect();

    let mut busy = SimDuration::ZERO;
    let mut batches = 0u64;
    let mut cold_starts = 0u64;
    let mut next_arrival = 0usize;
    let mut now = SimTime::ZERO;

    loop {
        // Dispatch everything we can at the current instant.
        while !idle.is_empty() {
            let Some(batch) = queue.next_batch(requests) else {
                break;
            };
            let shape = match &service[batch[0]] {
                Ok(p) => *p,
                Err(_) => {
                    // The whole batch shares the failing shape: reject it
                    // without occupying a device.
                    for &i in &batch {
                        debug_assert!(!settled[i]);
                        settled[i] = true;
                        outcomes[i] = Outcome {
                            dispatch: now,
                            completion: now,
                            batch: batch.len() as u32,
                            rejected: true,
                            ..placeholder
                        };
                    }
                    continue;
                }
            };
            let gpu = *idle.iter().next().expect("idle set is non-empty");
            idle.remove(&gpu);
            let mut admission_sum = SimDuration::ZERO;
            for &i in &batch {
                let adm = pools[gpu].admit(requests[i].tenant as u64);
                cold_starts += u64::from(adm.cold);
                admission_sum += adm.total();
                outcomes[i].admission = adm.total();
                outcomes[i].spdm = adm.flight_split().0;
                outcomes[i].cold = adm.cold;
            }
            let extra = shape.scale(BATCH_MARGIN * (batch.len() - 1) as f64);
            let service_time = shape + extra + admission_sum;
            let done = now + service_time;
            busy += service_time;
            batches += 1;
            for &i in &batch {
                debug_assert!(!settled[i]);
                settled[i] = true;
                outcomes[i].dispatch = now;
                outcomes[i].completion = done;
                outcomes[i].batch = batch.len() as u32;
                outcomes[i].gpu = gpu as u32;
            }
            completions.push(std::cmp::Reverse((done, gpu)));
        }

        // Advance to the next event.
        let arrival = (next_arrival < requests.len()).then(|| requests[next_arrival].arrival);
        let completion = completions.peek().map(|std::cmp::Reverse((t, _))| *t);
        now = match (arrival, completion) {
            (Some(a), Some(c)) => a.min(c),
            (Some(a), None) => a,
            (None, Some(c)) => c,
            (None, None) => break,
        };
        // Completions first: a device freed at `t` can serve a request
        // arriving at `t`.
        while completions
            .peek()
            .is_some_and(|std::cmp::Reverse((t, _))| *t == now)
        {
            let std::cmp::Reverse((_, gpu)) = completions.pop().expect("peeked");
            idle.insert(gpu);
        }
        while next_arrival < requests.len() && requests[next_arrival].arrival == now {
            queue.push(next_arrival, &requests[next_arrival]);
            next_arrival += 1;
        }
    }
    debug_assert!(queue.is_empty(), "dispatch drains the queue before exit");
    debug_assert!(settled.iter().all(|&s| s), "every request settles once");

    let mut td = TdCounters::default();
    let mut sessions_established = 0u64;
    let mut sessions_closed = 0u64;
    for pool in &mut pools {
        let c = pool.counters();
        td.hypercalls += c.hypercalls;
        td.seamcalls += c.seamcalls;
        td.pages_converted += c.pages_converted;
        td.transition_time += c.transition_time;
        // End-of-run drain: every established session must close exactly
        // once, and the pool must report none live afterwards.
        sessions_established += pool.established() as u64;
        sessions_closed += pool.close_all();
        pool.leak_check().expect("session pool drained");
    }

    // The planes are projections of the finished outcomes.
    if rollup.is_enabled() || flight.is_enabled() {
        for (i, (o, req)) in outcomes.iter().zip(requests).enumerate() {
            rollup.record(o.sample(i, req));
            flight.record(o.skeleton(i, req));
        }
    }

    let mut metrics = MetricsSet::new();
    metrics.push_counter("serving.requests", requests.len() as u64);
    metrics.push_counter("serving.batches", batches);
    metrics.push_counter("serving.cold_starts", cold_starts);
    // The gauges are projections too, each staged as time-ordered steps
    // in one reused buffer. Every request queues over [arrival,
    // dispatch): arrivals come in time order, dispatches are sorted.
    let mut steps: Vec<(SimTime, i64)> = Vec::new();
    let waiting = || {
        requests
            .iter()
            .zip(&outcomes)
            .filter(|(req, o)| req.arrival < o.dispatch)
    };
    let mut dispatches: Vec<SimTime> = waiting().map(|(_, o)| o.dispatch).collect();
    dispatches.sort_unstable();
    let mut falls = dispatches.into_iter().peekable();
    for (req, _) in waiting() {
        while let Some(d) = falls.next_if(|&d| d <= req.arrival) {
            steps.push((d, -1));
        }
        steps.push((req.arrival, 1));
    }
    steps.extend(falls.map(|d| (d, -1)));
    metrics.push_series(Series::from_sorted_steps(
        "serving.queue_depth",
        steps.drain(..),
    ));
    // Every admitted request occupies its GPU over [dispatch,
    // completion). A GPU runs one batch at a time, so a batch is exactly
    // the requests sharing a dispatch there.
    let mut spans: Vec<Vec<(SimTime, SimTime)>> = vec![Vec::new(); gpus];
    for o in outcomes.iter().filter(|o| !o.rejected) {
        spans[o.gpu as usize].push((o.dispatch, o.completion));
    }
    for (g, mut spans) in spans.into_iter().enumerate() {
        spans.sort_unstable_by_key(|&(dispatch, _)| dispatch);
        for batch in spans.chunk_by(|a, b| a.0 == b.0) {
            let (from, to) = batch[0];
            steps.push((from, batch.len() as i64));
            steps.push((to, -(batch.len() as i64)));
        }
        let name = format!("serving.gpu{g}.depth");
        metrics.push_series(Series::from_sorted_steps(&name, steps.drain(..)));
    }

    ClusterRun {
        outcomes,
        end: now,
        busy,
        batches,
        cold_starts,
        sessions_established,
        sessions_closed,
        td,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_workloads::default_tenants;

    fn trace(gaps_us: &[(u64, usize, usize)]) -> Vec<Request> {
        let mut t = SimTime::ZERO;
        gaps_us
            .iter()
            .enumerate()
            .map(|(i, &(gap, tenant, class))| {
                t += SimDuration::micros(gap);
                Request {
                    seq: i as u64,
                    tenant,
                    class,
                    arrival: t,
                }
            })
            .collect()
    }

    fn flat_service(n: usize, us: u64) -> Vec<Result<SimDuration, String>> {
        vec![Ok(SimDuration::micros(us)); n]
    }

    /// Two default tenants on `gpus` devices, batches of up to 8.
    fn run_on(
        reqs: &[Request],
        service: &[Result<SimDuration, String>],
        cc: CcMode,
        gpus: usize,
        kind: SchedulerKind,
    ) -> ClusterRun {
        let tenants = default_tenants(2);
        let (mut rollup, mut flight) = (RollupCollector::new(), FlightRecorder::new());
        simulate(
            reqs,
            service,
            &tenants,
            cc,
            gpus,
            kind,
            8,
            &TdxCalib::default(),
            &mut rollup,
            &mut flight,
        )
    }

    #[test]
    fn single_gpu_fifo_is_work_conserving() {
        let reqs = trace(&[(0, 0, 0), (0, 0, 0), (0, 1, 0)]);
        let svc = flat_service(3, 100);
        let run = run_on(&reqs, &svc, CcMode::Off, 1, SchedulerKind::Fifo);
        // All three ran back to back on one device.
        assert_eq!(run.batches, 3);
        assert_eq!(run.busy, run.end.saturating_since(SimTime::ZERO));
        for (i, o) in run.outcomes.iter().enumerate() {
            assert!(!o.rejected, "request {i}");
            assert_eq!(o.batch, 1);
            // FIFO identity: service = shape + admission, exactly.
            assert_eq!(
                o.completion.saturating_since(o.dispatch),
                SimDuration::micros(100) + o.admission
            );
        }
        // Later requests wait on earlier ones.
        assert!(run.outcomes[1].dispatch >= run.outcomes[0].completion);
    }

    #[test]
    fn failing_shapes_are_rejected_exactly_once() {
        let reqs = trace(&[(0, 0, 0), (5, 0, 1), (5, 1, 0)]);
        let mut service = flat_service(3, 50);
        service[1] = Err("boom".to_string());
        let run = run_on(&reqs, &service, CcMode::On, 2, SchedulerKind::Fifo);
        let rejected: Vec<bool> = run.outcomes.iter().map(|o| o.rejected).collect();
        assert_eq!(rejected, vec![false, true, false]);
        assert_eq!(run.outcomes[1].dispatch, run.outcomes[1].completion);
        assert_eq!(run.batches, 2, "rejected request never occupies a device");
    }

    #[test]
    fn cc_on_charges_cold_starts_per_tenant_per_device() {
        // Two tenants, one device each admission lands on (2 GPUs, 4 reqs
        // arriving far apart so each runs alone).
        let reqs = trace(&[(0, 0, 0), (100_000, 1, 0), (100_000, 0, 0), (100_000, 1, 0)]);
        let svc = flat_service(4, 50);
        let run = run_on(&reqs, &svc, CcMode::On, 1, SchedulerKind::Fifo);
        assert_eq!(run.cold_starts, 2, "one handshake per tenant on the device");
        assert!(run.outcomes[0].admission > run.outcomes[2].admission);
        assert!(run.td.hypercalls >= 2 * 16 + 4 * 2);
        let off = run_on(&reqs, &svc, CcMode::Off, 1, SchedulerKind::Fifo);
        assert_eq!(off.cold_starts, 0);
        assert!(off.busy < run.busy, "CC-on admission costs device time");
    }

    #[test]
    fn batching_amortizes_service() {
        // Four same-shape batchable chat requests arriving together.
        let reqs = trace(&[(0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)]);
        let svc = flat_service(4, 1000);
        let fifo = run_on(&reqs, &svc, CcMode::Off, 1, SchedulerKind::Fifo);
        let cb = run_on(&reqs, &svc, CcMode::Off, 1, SchedulerKind::Batching);
        assert_eq!(cb.batches, 1);
        assert_eq!(cb.outcomes[0].batch, 4);
        assert!(
            cb.end < fifo.end,
            "one batch of 4 beats 4 serial dispatches ({} vs {})",
            cb.end.as_micros_f64(),
            fifo.end.as_micros_f64()
        );
    }

    #[test]
    fn gauges_track_queue_and_device_occupancy() {
        let reqs = trace(&[(0, 0, 0), (0, 0, 2), (0, 1, 0)]);
        let svc = flat_service(3, 200);
        let run = run_on(&reqs, &svc, CcMode::Off, 1, SchedulerKind::Fifo);
        let depth = run.metrics.gauge_series("serving.queue_depth").unwrap();
        assert_eq!(depth.peak(), 2, "two requests queued behind the first");
        assert_eq!(depth.final_value(), 0);
        let gpu0 = run.metrics.gauge_series("serving.gpu0.depth").unwrap();
        assert_eq!(gpu0.peak(), 1);
        assert_eq!(run.metrics.counter_total("serving.batches"), Some(3));
    }
}
