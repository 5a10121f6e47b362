//! Request flight recorder: typed per-request span trees with
//! tail-exemplar sampling for million-request soaks.
//!
//! The rollup plane ([`crate::rollup`]) can say *which window* went bad
//! and the critical path ([`crate::critpath`]) *which resource class* a
//! shape spends its time on; this module answers the question an
//! operator actually asks — *which request was slow, and where inside
//! it did the virtual time go*. Each sampled request carries an ordered
//! span tree (queue wait → SPDM handshake → doorbell pair → per-phase
//! service decomposition → batch margin) under the same enforced
//! identity as the critical path: **child spans partition
//! `settle − arrival` exactly**, integer nanoseconds, no gaps, no
//! overlaps ([`FlightSample::identity_holds`]).
//!
//! Storing 10⁵–10⁶ full trees is unaffordable, so recording is a
//! per-tumbling-window exemplar sampler with a hard memory bound:
//! every window keeps its `worst` tail requests (latency descending,
//! request index as the unique tie-break) plus a `reservoir`-sized
//! seeded uniform sample (the requests with the smallest
//! `mix(seed, window, req)` — a bottom-k sketch, which is exactly a
//! uniform sample that needs no insertion-order state). Both keeps are
//! "extreme k under a total order with a unique tie-break", so the
//! sampler is insertion-order independent and therefore byte-identical
//! at any `HCC_ENGINE_THREADS`.
//!
//! Determinism contract (shared with the metrics and rollup planes):
//! virtual-time only, order-independent, and derived from outcomes —
//! the serving cluster loop writes only its per-request outcomes, and
//! skeletons are projected from them after the loop, only when the
//! recorder is enabled, so a disabled plane costs nothing. Enablement
//! is gated through the existing [`Planes`] mask via
//! [`FlightRecorder::for_planes`] ([`Planes::FLIGHT`]).

use std::collections::BTreeMap;

use hcc_types::json::{Json, ToJson};
use hcc_types::{env_u64, FaultCounts, Planes, SimDuration, SimTime};

use crate::critpath::{Attribution, ResourceClass};

/// Sampler tuning: tumbling-window width and per-window keep counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightConfig {
    /// Tumbling-window width (requests are windowed by settle instant).
    pub window: SimDuration,
    /// Tail exemplars kept per window (the window's worst latencies).
    pub worst: usize,
    /// Seeded-reservoir uniform exemplars kept per window.
    pub reservoir: usize,
    /// Seed of the reservoir's bottom-k hash.
    pub seed: u64,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            window: SimDuration::secs(5),
            worst: 4,
            reservoir: 4,
            seed: 0xF11A_2026,
        }
    }
}

impl FlightConfig {
    /// Applies `HCC_FLIGHT_WINDOW_MS`, `HCC_FLIGHT_WORST`,
    /// `HCC_FLIGHT_RESERVOIR`, and `HCC_FLIGHT_SEED` overrides.
    #[must_use]
    pub fn from_env(self) -> Self {
        self.with_overrides(env_u64)
    }

    /// Applies the overrides `var` yields, each clamped into its knob's
    /// range; the window is clamped before it is scaled to nanoseconds,
    /// so no value can overflow the virtual clock.
    fn with_overrides(mut self, var: impl Fn(&str) -> Option<u64>) -> Self {
        if let Some(ms) = var("HCC_FLIGHT_WINDOW_MS") {
            self.window = SimDuration::millis(ms.clamp(1, u64::MAX / 1_000_000));
        }
        if let Some(k) = var("HCC_FLIGHT_WORST") {
            self.worst = k.min(1024) as usize;
        }
        if let Some(r) = var("HCC_FLIGHT_RESERVOIR") {
            self.reservoir = r.min(1024) as usize;
        }
        if let Some(s) = var("HCC_FLIGHT_SEED") {
            self.seed = s;
        }
        self
    }

    /// Hard per-window entry bound the sampler may never exceed (the
    /// figure `LeakAudit` checks against a full soak).
    pub fn per_window_budget(&self) -> u64 {
        (self.worst + self.reservoir) as u64
    }
}

/// splitmix64-style finalizer over `(seed, window, req)` — the
/// reservoir's total order. Identical triples hash identically on every
/// thread count, which is the whole sampling contract.
fn mix(seed: u64, window: u64, req: u32) -> u64 {
    let mut z = seed
        ^ window.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (u64::from(req) | 1 << 63).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The compact per-request record projected from a settled request's
/// cluster outcome — everything needed to rebuild the span tree later
/// except the service-shape decomposition, which is resolved once per
/// distinct shape (not per request) by [`FlightRecorder::resolve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightSkeleton {
    /// Index of the request in the driving soak's arrival order.
    pub req: u32,
    /// Tenant index (into the soak's tenant table).
    pub tenant: u32,
    /// GPU the request was served on (0 for rejections).
    pub gpu: u32,
    /// Size of the batch the request was served in (0 for rejections).
    pub batch: u32,
    /// Arrival instant.
    pub arrival: SimTime,
    /// Dispatch instant (equals `settle` for rejections).
    pub dispatch: SimTime,
    /// Settle instant (completion or rejection).
    pub settle: SimTime,
    /// This request's own SPDM session-establishment time (zero on
    /// session reuse).
    pub spdm: SimDuration,
    /// This request's own doorbell hypercall pair (submit + complete).
    pub doorbell: SimDuration,
    /// Whether admission was a cold start.
    pub cold: bool,
    /// Whether admission control turned the request away.
    pub rejected: bool,
}

impl FlightSkeleton {
    /// End-to-end latency (arrival → settle).
    pub fn latency(&self) -> SimDuration {
        self.settle.saturating_since(self.arrival)
    }
}

/// One window's keeps: the tail exemplars and the uniform reservoir.
/// Both vectors are maintained sorted under their total order and
/// truncated to the configured bound, so contents depend only on the
/// *set* of records, never their order.
#[derive(Debug, Clone, Default)]
struct WindowSampler {
    /// `(latency desc, req asc)`, at most `cfg.worst` entries.
    worst: Vec<FlightSkeleton>,
    /// `(mix hash asc, req asc)`, at most `cfg.reservoir` entries.
    pool: Vec<(u64, FlightSkeleton)>,
}

impl WindowSampler {
    fn insert(&mut self, s: FlightSkeleton, window: u64, cfg: &FlightConfig) {
        if cfg.worst > 0 {
            let key = (std::cmp::Reverse(s.latency()), s.req);
            let pos = self
                .worst
                .partition_point(|o| (std::cmp::Reverse(o.latency()), o.req) < key);
            if pos < cfg.worst {
                self.worst.insert(pos, s);
                self.worst.truncate(cfg.worst);
            }
        }
        if cfg.reservoir > 0 {
            let h = mix(cfg.seed, window, s.req);
            let key = (h, s.req);
            let pos = self.pool.partition_point(|&(oh, ref o)| (oh, o.req) < key);
            if pos < cfg.reservoir {
                self.pool.insert(pos, (h, s));
                self.pool.truncate(cfg.reservoir);
            }
        }
    }

    fn entries(&self) -> u64 {
        (self.worst.len() + self.pool.len()) as u64
    }
}

/// Thread-invariant per-request recorder. Disabled by default; a soak
/// fills an enabled one from its finished outcomes, never from inside
/// the event loop.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    enabled: bool,
    cfg: FlightConfig,
    windows: BTreeMap<u64, WindowSampler>,
    recorded: u64,
}

impl FlightRecorder {
    /// A disabled (no-op) recorder — the default state.
    pub fn new() -> Self {
        FlightRecorder::default()
    }

    /// An enabled recorder with no samples.
    pub fn enabled(cfg: FlightConfig) -> Self {
        FlightRecorder {
            enabled: true,
            cfg,
            windows: BTreeMap::new(),
            recorded: 0,
        }
    }

    /// Gates enablement through the [`Planes`] mask: enabled only when
    /// `planes` contains [`Planes::FLIGHT`].
    pub fn for_planes(planes: Planes, cfg: FlightConfig) -> Self {
        if planes.contains(Planes::FLIGHT) {
            FlightRecorder::enabled(cfg)
        } else {
            FlightRecorder::new()
        }
    }

    /// Whether this recorder records.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one settled request (no-op while disabled).
    pub fn record(&mut self, s: FlightSkeleton) {
        if !self.enabled {
            return;
        }
        self.recorded += 1;
        let w = s.settle.as_nanos() / self.cfg.window.as_nanos().max(1);
        let cfg = self.cfg;
        self.windows.entry(w).or_default().insert(s, w, &cfg);
    }

    /// Total requests seen (kept or not).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Distinct windows holding at least one exemplar.
    pub fn window_count(&self) -> u64 {
        self.windows.len() as u64
    }

    /// Total kept sampler entries across all windows (before the
    /// worst∩reservoir dedup that `resolve` performs) — the figure the
    /// `kept ≤ windows × budget` memory bound is checked against.
    pub fn kept_entries(&self) -> u64 {
        self.windows.values().map(WindowSampler::entries).sum()
    }

    /// Resolves the kept skeletons into full span trees. `shape_of`
    /// maps a request index to its service-shape slot and `shapes`
    /// carries one decomposition per slot; requests the tables cannot
    /// resolve get an undecomposed service span (identity still holds).
    pub fn resolve(self, shape_of: &[u32], shapes: &[ShapeDecomp]) -> FlightLog {
        let mut samples: Vec<FlightSample> = Vec::new();
        let windows = self.windows.len() as u64;
        let mut kept_entries = 0u64;
        for (&w, sampler) in &self.windows {
            kept_entries += sampler.entries();
            let mut members: Vec<(FlightSkeleton, bool, bool)> =
                sampler.worst.iter().map(|&s| (s, true, false)).collect();
            for &(_, s) in &sampler.pool {
                if let Some(m) = members.iter_mut().find(|m| m.0.req == s.req) {
                    m.2 = true;
                } else {
                    members.push((s, false, true));
                }
            }
            members.sort_by_key(|m| m.0.req);
            for (skel, tail, uniform) in members {
                let decomp = shape_of
                    .get(skel.req as usize)
                    .and_then(|&si| shapes.get(si as usize))
                    .copied()
                    .unwrap_or_default();
                samples.push(FlightSample::build(skel, w, tail, uniform, &decomp));
            }
        }
        FlightLog {
            cfg: self.cfg,
            recorded: self.recorded,
            windows,
            kept_entries,
            samples,
        }
    }
}

/// Per-shape service decomposition: how one distinct service shape's
/// virtual time splits across resource classes (from the shape's
/// critical path) plus its recovery counters. Built once per shape, not
/// per request.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShapeDecomp {
    /// The shape's total service duration (what the cluster charged).
    pub total: SimDuration,
    /// Critical-path attribution of the shape's trace.
    pub attr: Attribution,
    /// Fault-recovery counters of the shape's trace.
    pub faults: FaultCounts,
}

/// The type of one span in a request's tree, in waterfall order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Arrival → dispatch (scheduler queue).
    QueueWait,
    /// SPDM session establishment (cold admissions only).
    SpdmHandshake,
    /// Doorbell hypercall pair (submit + complete), every admission.
    Doorbell,
    /// Service time attributed to one resource class by the shape's
    /// critical path (crypto staging, bounce reserve, copies, kernel,
    /// hypercalls, UVM, host driver).
    Service(ResourceClass),
    /// Service time the shape's critical path does not cover (or the
    /// whole service span when no decomposition is available).
    ServiceOther,
    /// Batch formation: co-batched members' admissions plus the batch
    /// service margin.
    BatchMargin,
}

impl SpanKind {
    /// Stable snake_case name (render rows, JSON).
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::QueueWait => "queue_wait",
            SpanKind::SpdmHandshake => "spdm_handshake",
            SpanKind::Doorbell => "doorbell",
            SpanKind::Service(ResourceClass::HostDriver) => "svc_host_driver",
            SpanKind::Service(ResourceClass::Crypto) => "svc_crypto",
            SpanKind::Service(ResourceClass::BouncePool) => "svc_bounce_pool",
            SpanKind::Service(ResourceClass::RingCp) => "svc_ring_cp",
            SpanKind::Service(ResourceClass::CopyEngine) => "svc_copy_engine",
            SpanKind::Service(ResourceClass::ComputeEngine) => "svc_compute",
            SpanKind::Service(ResourceClass::Uvm) => "svc_uvm",
            SpanKind::ServiceOther => "svc_other",
            SpanKind::BatchMargin => "batch_margin",
        }
    }
}

impl ToJson for SpanKind {
    fn to_json(&self) -> Json {
        Json::Str(self.name().to_string())
    }
}

/// One resolved exemplar: the skeleton plus its ordered span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightSample {
    /// The compact record the cluster loop emitted.
    pub skeleton: FlightSkeleton,
    /// Tumbling-window ordinal (settle ns / window width).
    pub window: u64,
    /// Kept as one of the window's tail exemplars.
    pub tail: bool,
    /// Kept by the window's uniform reservoir.
    pub uniform: bool,
    /// Ordered spans; their durations sum to `settle − arrival` exactly.
    pub spans: Vec<(SpanKind, SimDuration)>,
    /// Recovery counters of the request's service shape.
    pub faults: FaultCounts,
}

impl FlightSample {
    fn build(
        skel: FlightSkeleton,
        window: u64,
        tail: bool,
        uniform: bool,
        decomp: &ShapeDecomp,
    ) -> FlightSample {
        let mut spans: Vec<(SpanKind, SimDuration)> = Vec::new();
        if skel.rejected {
            spans.push((
                SpanKind::QueueWait,
                skel.settle.saturating_since(skel.arrival),
            ));
        } else {
            spans.push((
                SpanKind::QueueWait,
                skel.dispatch.saturating_since(skel.arrival),
            ));
            spans.push((SpanKind::SpdmHandshake, skel.spdm));
            spans.push((SpanKind::Doorbell, skel.doorbell));
            let shape = decomp.total;
            let attr_total = decomp.attr.total();
            if !attr_total.is_zero() && attr_total <= shape {
                for (r, t) in decomp.attr.iter() {
                    if !t.is_zero() {
                        spans.push((SpanKind::Service(r), t));
                    }
                }
                let other = shape - attr_total;
                if !other.is_zero() {
                    spans.push((SpanKind::ServiceOther, other));
                }
            } else {
                spans.push((SpanKind::ServiceOther, shape));
            }
            let service = skel.settle.saturating_since(skel.dispatch);
            let margin = service.saturating_sub(skel.spdm + skel.doorbell + shape);
            spans.push((SpanKind::BatchMargin, margin));
        }
        FlightSample {
            skeleton: skel,
            window,
            tail,
            uniform,
            spans,
            faults: decomp.faults,
        }
    }

    /// Request index shorthand.
    pub fn req(&self) -> u32 {
        self.skeleton.req
    }

    /// End-to-end latency shorthand.
    pub fn latency(&self) -> SimDuration {
        self.skeleton.latency()
    }

    /// Total duration of spans of `kind` (zero when absent).
    pub fn span_duration(&self, kind: SpanKind) -> SimDuration {
        self.spans
            .iter()
            .filter(|&&(k, _)| k == kind)
            .map(|&(_, d)| d)
            .sum()
    }

    /// The enforced per-request identity: spans partition
    /// `settle − arrival` exactly.
    pub fn identity_holds(&self) -> bool {
        let sum: SimDuration = self.spans.iter().map(|&(_, d)| d).sum();
        self.skeleton.arrival <= self.skeleton.settle
            && self.skeleton.dispatch <= self.skeleton.settle
            && sum == self.skeleton.settle - self.skeleton.arrival
    }
}

impl ToJson for FlightSample {
    fn to_json(&self) -> Json {
        let s = &self.skeleton;
        Json::Obj(vec![
            ("req".to_string(), Json::U64(u64::from(s.req))),
            ("tenant".to_string(), Json::U64(u64::from(s.tenant))),
            ("gpu".to_string(), Json::U64(u64::from(s.gpu))),
            ("batch".to_string(), Json::U64(u64::from(s.batch))),
            ("window".to_string(), Json::U64(self.window)),
            ("tail".to_string(), Json::Bool(self.tail)),
            ("uniform".to_string(), Json::Bool(self.uniform)),
            ("cold".to_string(), Json::Bool(s.cold)),
            ("rejected".to_string(), Json::Bool(s.rejected)),
            ("arrival_ns".to_string(), Json::U64(s.arrival.as_nanos())),
            ("settle_ns".to_string(), Json::U64(s.settle.as_nanos())),
            (
                "latency_ns".to_string(),
                Json::U64(self.latency().as_nanos()),
            ),
            (
                "spans".to_string(),
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|&(k, d)| {
                            Json::Obj(vec![
                                ("kind".to_string(), k.to_json()),
                                ("ns".to_string(), Json::U64(d.as_nanos())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// The resolved flight log of one soak: every kept exemplar in
/// canonical `(window, req)` order plus the sampler's accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightLog {
    /// Sampler configuration the log was recorded under.
    pub cfg: FlightConfig,
    /// Total requests the recorder saw.
    pub recorded: u64,
    /// Distinct windows holding at least one exemplar.
    pub windows: u64,
    /// Total kept sampler entries (before worst∩reservoir dedup).
    pub kept_entries: u64,
    /// Resolved exemplars, sorted by `(window, req)`.
    pub samples: Vec<FlightSample>,
}

impl FlightLog {
    /// The exemplar for request `req`, if it was kept.
    pub fn find(&self, req: u32) -> Option<&FlightSample> {
        self.samples.iter().find(|s| s.skeleton.req == req)
    }

    /// Whether every sample satisfies the span-partition identity.
    pub fn identity_holds(&self) -> bool {
        self.samples.iter().all(FlightSample::identity_holds)
    }

    /// The sampler's hard memory bound: `windows × (worst + reservoir)`.
    pub fn entry_bound(&self) -> u64 {
        self.windows * self.cfg.per_window_budget()
    }

    /// Estimated peak bytes of the exemplar store: kept skeletons plus
    /// the resolved span vectors.
    pub fn estimated_bytes(&self) -> u64 {
        let skeletons = self.kept_entries * std::mem::size_of::<FlightSkeleton>() as u64;
        let spans: u64 = self
            .samples
            .iter()
            .map(|s| (s.spans.len() * std::mem::size_of::<(SpanKind, SimDuration)>()) as u64)
            .sum();
        skeletons + spans
    }

    /// The tumbling window holding instant `t`.
    pub fn window_of(&self, t: SimTime) -> u64 {
        t.as_nanos() / self.cfg.window.as_nanos().max(1)
    }

    /// The window's p50 exemplar: the median-latency member of the
    /// window's uniform reservoir (falling back to all of the window's
    /// exemplars when the reservoir is empty) — the baseline a tail
    /// waterfall is rendered against. A documented approximation: the
    /// true window median lives in the full population the sampler
    /// deliberately does not keep.
    pub fn p50_exemplar(&self, window: u64) -> Option<&FlightSample> {
        let pick = |uniform_only: bool| {
            let mut members: Vec<&FlightSample> = self
                .samples
                .iter()
                .filter(|s| s.window == window && (!uniform_only || s.uniform))
                .collect();
            members.sort_by_key(|s| (s.latency(), s.skeleton.req));
            let mid = members.len().checked_sub(1)? / 2;
            members.get(mid).copied()
        };
        pick(true).or_else(|| pick(false))
    }

    /// Every kept exemplar as a `(request id, latency, settle)` triple
    /// in request-id order — the feed for the OpenMetrics exemplar
    /// export ([`crate::metrics::to_prometheus_with_exemplars`]).
    pub fn exemplar_points(&self) -> Vec<(u32, SimDuration, SimTime)> {
        self.samples
            .iter()
            .map(|s| (s.skeleton.req, s.latency(), s.skeleton.settle))
            .collect()
    }

    /// Exemplar request ids settling inside `[start, end)`, worst
    /// first; `tenant` narrows to one tenant when given.
    pub fn exemplars_between(&self, tenant: Option<u32>, start: SimTime, end: SimTime) -> Vec<u32> {
        let mut hits: Vec<&FlightSample> = self
            .samples
            .iter()
            .filter(|s| start <= s.skeleton.settle && s.skeleton.settle < end)
            .filter(|s| tenant.map_or(true, |t| s.skeleton.tenant == t))
            .collect();
        hits.sort_by_key(|s| (std::cmp::Reverse(s.latency()), s.skeleton.req));
        hits.into_iter().map(|s| s.skeleton.req).collect()
    }

    /// Renders one request's span waterfall, optionally with a per-span
    /// delta column against a baseline exemplar (typically the window's
    /// p50). Deterministic text: virtual-time figures only.
    pub fn render_waterfall(
        &self,
        sample: &FlightSample,
        baseline: Option<&FlightSample>,
    ) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let skel = &sample.skeleton;
        let total = sample.latency();
        let _ = writeln!(
            out,
            "request #{} | tenant {} | gpu {} | batch {} | window w{:04} | {}{}",
            skel.req,
            skel.tenant,
            skel.gpu,
            skel.batch,
            sample.window,
            if skel.cold {
                "cold spdm"
            } else {
                "warm session"
            },
            if skel.rejected { " | REJECTED" } else { "" },
        );
        let _ = writeln!(
            out,
            "  arrival {} | dispatch {} | settle {} | latency {}",
            skel.arrival, skel.dispatch, skel.settle, total
        );
        let f = &sample.faults;
        if f.injected + f.retries + f.recovered + f.degraded + f.aborted > 0 {
            let _ = writeln!(
                out,
                "  recovery: injected {} | retries {} | recovered {} | degraded {} | aborted {}",
                f.injected, f.retries, f.recovered, f.degraded, f.aborted
            );
        }
        let delta_head = baseline.map(|b| format!("vs p50 #{}", b.skeleton.req));
        match &delta_head {
            Some(h) => {
                let _ = writeln!(
                    out,
                    "  {:<16} {:>12} {:>12} {:>7}  {:>14}",
                    "span", "start", "duration", "share", h
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "  {:<16} {:>12} {:>12} {:>7}",
                    "span", "start", "duration", "share"
                );
            }
        }
        let mut cursor = SimDuration::ZERO;
        for &(kind, d) in &sample.spans {
            let share_milli = if total.is_zero() {
                0
            } else {
                d.as_nanos().saturating_mul(1000) / total.as_nanos()
            };
            let share = format!("{}.{}%", share_milli / 10, share_milli % 10);
            let start = format!("+{cursor}");
            match baseline {
                Some(b) => {
                    let bd = b.span_duration(kind);
                    let delta = if d >= bd {
                        format!("+{}", d - bd)
                    } else {
                        format!("-{}", bd - d)
                    };
                    let _ = writeln!(
                        out,
                        "  {:<16} {:>12} {:>12} {:>7}  {:>14}",
                        kind.name(),
                        start,
                        d.to_string(),
                        share,
                        delta
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "  {:<16} {:>12} {:>12} {:>7}",
                        kind.name(),
                        start,
                        d.to_string(),
                        share
                    );
                }
            }
            cursor += d;
        }
        let identity = if sample.identity_holds() {
            "OK"
        } else {
            "VIOLATED"
        };
        let _ = writeln!(
            out,
            "  {:<16} {:>12} {:>12}  span-identity {}",
            "total",
            "",
            total.to_string(),
            identity
        );
        out
    }
}

impl ToJson for FlightLog {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "window_ns".to_string(),
                Json::U64(self.cfg.window.as_nanos()),
            ),
            ("worst".to_string(), Json::U64(self.cfg.worst as u64)),
            (
                "reservoir".to_string(),
                Json::U64(self.cfg.reservoir as u64),
            ),
            ("recorded".to_string(), Json::U64(self.recorded)),
            ("windows".to_string(), Json::U64(self.windows)),
            ("kept_entries".to_string(), Json::U64(self.kept_entries)),
            (
                "estimated_bytes".to_string(),
                Json::U64(self.estimated_bytes()),
            ),
            (
                "samples".to_string(),
                Json::Arr(self.samples.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::micros(us)
    }

    fn skel(req: u32, arrival_us: u64, dispatch_us: u64, settle_us: u64) -> FlightSkeleton {
        FlightSkeleton {
            req,
            tenant: req % 2,
            gpu: 0,
            batch: 2,
            arrival: t(arrival_us),
            dispatch: t(dispatch_us),
            settle: t(settle_us),
            spdm: SimDuration::micros(3),
            doorbell: SimDuration::micros(1),
            cold: true,
            rejected: false,
        }
    }

    #[test]
    fn env_window_width_clamps_before_scaling_to_nanoseconds() {
        // 2^58 ms overflows the nanosecond clock 2^18-fold.
        for ms in [288_230_376_151_711_744, u64::MAX] {
            let cfg = FlightConfig::default()
                .with_overrides(|var| (var == "HCC_FLIGHT_WINDOW_MS").then_some(ms));
            assert_eq!(cfg.window, SimDuration::millis(u64::MAX / 1_000_000));
        }
        let floor = FlightConfig::default().with_overrides(|_| Some(0));
        assert_eq!(floor.window, SimDuration::millis(1));
        assert_eq!((floor.worst, floor.reservoir, floor.seed), (0, 0, 0));
        let cap = FlightConfig::default().with_overrides(|_| Some(u64::MAX));
        assert_eq!((cap.worst, cap.reservoir), (1024, 1024));
        assert_eq!(
            FlightConfig::default().with_overrides(|_| None),
            FlightConfig::default()
        );
    }

    fn decomp_for(shape_us: u64) -> ShapeDecomp {
        let mut attr = Attribution::default();
        attr.add(ResourceClass::Crypto, SimDuration::micros(shape_us / 2));
        attr.add(
            ResourceClass::ComputeEngine,
            SimDuration::micros(shape_us / 4),
        );
        ShapeDecomp {
            total: SimDuration::micros(shape_us),
            attr,
            faults: FaultCounts::default(),
        }
    }

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let mut r = FlightRecorder::new();
        assert!(!r.is_enabled());
        r.record(skel(0, 0, 10, 100));
        assert_eq!(r.recorded(), 0);
        assert_eq!(r.kept_entries(), 0);
        let log = r.resolve(&[], &[]);
        assert!(log.samples.is_empty());
        assert!(log.identity_holds());
    }

    #[test]
    fn planes_mask_gates_enablement() {
        let cfg = FlightConfig::default();
        assert!(!FlightRecorder::for_planes(Planes::ALL, cfg).is_enabled());
        assert!(FlightRecorder::for_planes(Planes::ALL | Planes::FLIGHT, cfg).is_enabled());
    }

    #[test]
    fn span_identity_partitions_latency_exactly() {
        let mut r = FlightRecorder::enabled(FlightConfig::default());
        // dispatch-arrival=10, spdm=3, doorbell=1, shape=40 (attr 20+10,
        // other 10), margin = 90-3-1-40 = 46.
        r.record(skel(7, 0, 10, 100));
        let log = r.resolve(&[0; 8], &[decomp_for(40)]);
        let s = log.find(7).expect("kept");
        assert!(s.identity_holds());
        assert_eq!(s.latency(), SimDuration::micros(100));
        assert_eq!(
            s.span_duration(SpanKind::QueueWait),
            SimDuration::micros(10)
        );
        assert_eq!(
            s.span_duration(SpanKind::Service(ResourceClass::Crypto)),
            SimDuration::micros(20)
        );
        assert_eq!(
            s.span_duration(SpanKind::ServiceOther),
            SimDuration::micros(10)
        );
        assert_eq!(
            s.span_duration(SpanKind::BatchMargin),
            SimDuration::micros(46)
        );
        assert!(log.identity_holds());
    }

    #[test]
    fn rejection_is_a_single_queue_wait_span() {
        let mut r = FlightRecorder::enabled(FlightConfig::default());
        let mut s = skel(3, 5, 5, 5);
        s.rejected = true;
        s.spdm = SimDuration::ZERO;
        s.doorbell = SimDuration::ZERO;
        r.record(s);
        let log = r.resolve(&[], &[]);
        let kept = log.find(3).expect("kept");
        assert_eq!(kept.spans.len(), 1);
        assert_eq!(kept.spans[0].0.name(), "queue_wait");
        assert!(kept.identity_holds());
    }

    #[test]
    fn unresolvable_shape_collapses_to_service_other() {
        let mut r = FlightRecorder::enabled(FlightConfig::default());
        r.record(skel(9, 0, 10, 100));
        // No shape tables at all: service decomposes to a zero `other`
        // span and the margin absorbs the rest — identity still exact.
        let log = r.resolve(&[], &[]);
        let s = log.find(9).expect("kept");
        assert!(s.identity_holds());
        assert_eq!(
            s.span_duration(SpanKind::BatchMargin),
            SimDuration::micros(86)
        );
    }

    #[test]
    fn oversized_attribution_falls_back_without_breaking_identity() {
        let mut attr = Attribution::default();
        attr.add(ResourceClass::Crypto, SimDuration::micros(500));
        let d = ShapeDecomp {
            total: SimDuration::micros(40),
            attr,
            faults: FaultCounts::default(),
        };
        let mut r = FlightRecorder::enabled(FlightConfig::default());
        r.record(skel(1, 0, 10, 100));
        let log = r.resolve(&[0, 0], &[d]);
        let s = log.find(1).expect("kept");
        assert!(s.identity_holds());
        assert_eq!(
            s.span_duration(SpanKind::ServiceOther),
            SimDuration::micros(40)
        );
    }

    #[test]
    fn sampler_is_insertion_order_independent_and_bounded() {
        let cfg = FlightConfig {
            window: SimDuration::millis(1),
            worst: 2,
            reservoir: 3,
            seed: 42,
        };
        let skels: Vec<FlightSkeleton> = (0..200u32)
            .map(|i| skel(i, 0, 10, 20 + u64::from(i % 37) * 13))
            .collect();
        let mut fwd = FlightRecorder::enabled(cfg);
        let mut rev = FlightRecorder::enabled(cfg);
        for s in &skels {
            fwd.record(*s);
        }
        for s in skels.iter().rev() {
            rev.record(*s);
        }
        assert_eq!(fwd.kept_entries(), rev.kept_entries());
        let a = fwd.resolve(&[], &[]);
        let b = rev.resolve(&[], &[]);
        assert_eq!(a, b);
        assert!(a.kept_entries <= a.entry_bound());
        assert!(a.windows >= 1);
        assert_eq!(a.recorded, 200);
    }

    #[test]
    fn worst_keep_is_the_true_tail() {
        let cfg = FlightConfig {
            window: SimDuration::secs(1),
            worst: 2,
            reservoir: 0,
            seed: 1,
        };
        let mut r = FlightRecorder::enabled(cfg);
        for i in 0..50u32 {
            r.record(skel(i, 0, 10, 20 + u64::from(i)));
        }
        let log = r.resolve(&[], &[]);
        let kept: Vec<u32> = log.samples.iter().map(FlightSample::req).collect();
        assert_eq!(kept, vec![48, 49], "the two worst latencies, req order");
        assert!(log.samples.iter().all(|s| s.tail && !s.uniform));
    }

    #[test]
    fn overlapping_keeps_are_deduped_with_both_flags() {
        let cfg = FlightConfig {
            window: SimDuration::secs(1),
            worst: 8,
            reservoir: 8,
            seed: 1,
        };
        let mut r = FlightRecorder::enabled(cfg);
        for i in 0..4u32 {
            r.record(skel(i, 0, 10, 20 + u64::from(i)));
        }
        let log = r.resolve(&[], &[]);
        // Few enough records that every one is kept by both samplers.
        assert_eq!(log.samples.len(), 4);
        assert!(log.samples.iter().all(|s| s.tail && s.uniform));
        assert_eq!(log.kept_entries, 8);
    }

    #[test]
    fn reservoir_replays_under_its_seed_and_differs_across_seeds() {
        let base = FlightConfig {
            window: SimDuration::millis(1),
            worst: 0,
            reservoir: 4,
            seed: 0xAB,
        };
        let run = |seed: u64| {
            let mut r = FlightRecorder::enabled(FlightConfig { seed, ..base });
            for i in 0..300u32 {
                r.record(skel(i, 0, 10, 500));
            }
            let log = r.resolve(&[], &[]);
            log.samples
                .iter()
                .map(FlightSample::req)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(0xAB), run(0xAB), "same seed, same reservoir");
        assert_ne!(run(0xAB), run(0xCD), "different seed, different sample");
    }

    #[test]
    fn p50_exemplar_is_the_reservoir_median() {
        let cfg = FlightConfig {
            window: SimDuration::secs(1),
            worst: 1,
            reservoir: 16,
            seed: 7,
        };
        let mut r = FlightRecorder::enabled(cfg);
        for i in 0..10u32 {
            r.record(skel(i, 0, 10, 20 + u64::from(i) * 10));
        }
        let log = r.resolve(&[], &[]);
        let p50 = log.p50_exemplar(0).expect("non-empty window");
        assert!(p50.uniform);
        // 10 uniform members sorted by latency: median index (10-1)/2 = 4.
        assert_eq!(p50.req(), 4);
        assert!(log.p50_exemplar(99).is_none());
    }

    #[test]
    fn exemplars_between_filters_and_ranks() {
        let cfg = FlightConfig {
            window: SimDuration::millis(1),
            worst: 4,
            reservoir: 4,
            seed: 7,
        };
        let mut r = FlightRecorder::enabled(cfg);
        for i in 0..8u32 {
            r.record(skel(i, 0, 10, 100 + u64::from(i) * 100));
        }
        let log = r.resolve(&[], &[]);
        let all = log.exemplars_between(None, SimTime::ZERO, t(1_000));
        assert!(!all.is_empty());
        for pair in all.windows(2) {
            let (a, b) = (log.find(pair[0]).unwrap(), log.find(pair[1]).unwrap());
            assert!(a.latency() >= b.latency(), "worst first");
        }
        let t0 = log.exemplars_between(Some(0), SimTime::ZERO, t(1_000));
        assert!(t0.iter().all(|&req| req % 2 == 0));
        assert!(log.exemplars_between(None, t(2_000), t(3_000)).is_empty());
    }

    #[test]
    fn waterfall_renders_every_span_and_the_identity_trailer() {
        let mut r = FlightRecorder::enabled(FlightConfig::default());
        r.record(skel(7, 0, 10, 100));
        r.record(skel(8, 0, 12, 60));
        let log = r.resolve(&[0; 9], &[decomp_for(40)]);
        let s = log.find(7).unwrap();
        let base = log.find(8).unwrap();
        let text = log.render_waterfall(s, Some(base));
        assert!(text.contains("request #7"));
        assert!(text.contains("queue_wait"));
        assert!(text.contains("svc_crypto"));
        assert!(text.contains("batch_margin"));
        assert!(text.contains("span-identity OK"));
        assert!(text.contains("vs p50 #8"));
        let solo = log.render_waterfall(s, None);
        assert!(!solo.contains("vs p50"));
    }

    #[test]
    fn env_overrides_parse() {
        // Exercises only the pure parsing helpers (no env mutation —
        // tests run in parallel).
        let cfg = FlightConfig::default();
        assert_eq!(cfg.per_window_budget(), 8);
        assert_eq!(mix(1, 2, 3), mix(1, 2, 3));
        assert_ne!(mix(1, 2, 3), mix(1, 2, 4));
        assert_ne!(mix(1, 2, 3), mix(2, 2, 3));
    }

    #[test]
    fn estimated_bytes_tracks_keeps() {
        let mut r = FlightRecorder::enabled(FlightConfig::default());
        r.record(skel(0, 0, 10, 100));
        let log = r.resolve(&[], &[]);
        assert!(log.estimated_bytes() > 0);
        let empty = FlightRecorder::new().resolve(&[], &[]);
        assert_eq!(empty.estimated_bytes(), 0);
    }
}
