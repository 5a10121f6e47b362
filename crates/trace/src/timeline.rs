//! Timeline container and metric extraction: from raw events to the
//! paper's KLO / LQT / KQT / KET / T_mem / T_other quantities.

use hcc_types::{ByteSize, CopyKind, MemSpace, SimDuration, SimTime};

use crate::causal::EventId;
use crate::event::{EventKind, KernelId, TraceEvent};

/// An ordered collection of trace events for one application run.
///
/// Events may be pushed out of order (different engines finish at
/// different times); extraction sorts internally where needed.
///
/// Internally this is an *arena*: an append-only, id-stable contiguous
/// store that folds every aggregate the extraction API needs into running
/// state at push time. `span()`/`end()` read two words, `mem_metrics()`
/// copies a struct, and `launch_metrics()` joins pre-split launch/kernel
/// record lists — none of them re-walk the event array. All aggregates are
/// integer-nanosecond sums or min/max folds, so maintaining them
/// incrementally is *exact*, not approximate: every accessor returns
/// byte-identical results to a full scan of `events()`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timeline {
    events: Vec<TraceEvent>,
    /// Earliest `start` seen (`None` while empty).
    min_start: Option<SimTime>,
    /// Latest `end` seen.
    max_end: SimTime,
    /// Running memory-path totals (order-independent integer sums).
    mem: MemMetrics,
    /// Launch records in push order; `LaunchMetrics` sorts a copy.
    launches: Vec<LaunchRecord>,
    /// Kernel records in push order with `kqt` unresolved (zero); the
    /// correlation join fills it at extraction time.
    kernels: Vec<KernelRecord>,
    /// `Sync` spans in push order, for the sync/kernel overlap fold.
    sync_spans: Vec<(SimTime, SimTime)>,
    /// `Kernel` spans in push order, ditto.
    kernel_spans: Vec<(SimTime, SimTime)>,
}

impl Timeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Creates an empty timeline with room for `n` events before the
    /// arena reallocates.
    pub fn with_capacity(n: usize) -> Self {
        Timeline {
            events: Vec::with_capacity(n),
            ..Timeline::default()
        }
    }

    /// Reserves room for at least `n` more events, of which `launches`
    /// are expected to be launch/kernel pairs, so a caller that can
    /// estimate a program's shape up front (e.g. the workload runner)
    /// avoids arena and record-list regrowth memcpys mid-run.
    pub fn reserve(&mut self, n: usize, launches: usize) {
        self.events.reserve(n);
        self.launches.reserve(launches);
        self.kernels.reserve(launches);
        self.kernel_spans.reserve(launches);
        self.sync_spans.reserve(launches);
    }

    /// Appends an event, returning its id for causal-edge linking.
    #[inline]
    pub fn push(&mut self, event: TraceEvent) -> EventId {
        self.fold(&event);
        self.events.push(event);
        EventId(self.events.len() - 1)
    }

    /// Folds one event into the running aggregates.
    fn fold(&mut self, e: &TraceEvent) {
        self.min_start = Some(match self.min_start {
            Some(s) => s.min(e.start),
            None => e.start,
        });
        self.max_end = self.max_end.max(e.end);
        let m = &mut self.mem;
        match &e.kind {
            EventKind::Launch {
                kernel,
                queue_wait,
                first,
            } => {
                self.launches.push(LaunchRecord {
                    kernel: *kernel,
                    start: e.start,
                    klo: e.duration(),
                    lqt: *queue_wait,
                    first: *first,
                    correlation: e.correlation,
                });
            }
            EventKind::Kernel { kernel, uvm } => {
                self.kernels.push(KernelRecord {
                    kernel: *kernel,
                    start: e.start,
                    ket: e.duration(),
                    kqt: SimDuration::ZERO,
                    uvm: *uvm,
                    correlation: e.correlation,
                });
                self.kernel_spans.push((e.start, e.end));
            }
            EventKind::Memcpy {
                kind,
                bytes,
                managed,
                ..
            } => {
                let slot = match kind {
                    CopyKind::H2D => &mut m.h2d,
                    CopyKind::D2H => &mut m.d2h,
                    CopyKind::D2D => &mut m.d2d,
                };
                *slot += e.duration();
                m.copy_bytes += *bytes;
                if *managed {
                    m.managed_copy += e.duration();
                }
            }
            EventKind::Alloc { space, .. } => match space {
                MemSpace::Host => m.hmalloc += e.duration(),
                MemSpace::Device => m.dmalloc += e.duration(),
                MemSpace::Managed => m.managed_alloc += e.duration(),
            },
            EventKind::Free { space, .. } => match space {
                MemSpace::Managed => m.managed_free += e.duration(),
                _ => m.free += e.duration(),
            },
            EventKind::Sync => {
                m.sync += e.duration();
                self.sync_spans.push((e.start, e.end));
            }
            EventKind::Crypto { bytes, .. } => {
                m.crypto += e.duration();
                m.crypto_bytes += *bytes;
            }
            EventKind::Hypercall { .. } => {
                m.hypercalls += 1;
                m.hypercall_time += e.duration();
            }
            EventKind::UvmFault { pages, bytes, .. } => {
                m.uvm_fault += e.duration();
                m.uvm_pages += pages;
                m.uvm_bytes += *bytes;
            }
            EventKind::FaultInjected { attempts, .. } => {
                m.faults_injected += u64::from(*attempts);
                m.fault_time += e.duration();
            }
            EventKind::Retry { .. } => {
                m.fault_retries += 1;
                m.fault_time += e.duration();
            }
            EventKind::Degraded { .. } => {
                m.fault_degrades += 1;
                m.fault_time += e.duration();
            }
            // Reservation windows are nested inside their copy's span,
            // which `copy_total` already counts.
            EventKind::BounceReserve { .. } => {}
        }
    }

    /// All events, in insertion order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The event behind an id handed out by [`Timeline::push`].
    pub fn get(&self, id: EventId) -> Option<&TraceEvent> {
        self.events.get(id.0)
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Wall-clock span from the earliest start to the latest end. This is
    /// the paper's end-to-end `P` for a full application trace.
    pub fn span(&self) -> SimDuration {
        match self.min_start {
            Some(s) => self.max_end - s,
            None => SimDuration::ZERO,
        }
    }

    /// Earliest event start (`None` while empty).
    pub fn start(&self) -> Option<SimTime> {
        self.min_start
    }

    /// Latest event end (completion time).
    pub fn end(&self) -> SimTime {
        self.max_end
    }

    /// Extracts the per-launch / per-kernel metric records.
    ///
    /// The KQT join runs over the pre-split record lists with an
    /// FNV-keyed map (correlation ids are simulator-assigned small
    /// integers, so SipHash buys nothing), in one pass per list.
    pub fn launch_metrics(&self) -> LaunchMetrics {
        let mut kernels = self.kernels.clone();
        // The runtime allocates correlation ids monotonically and pushes
        // a launch before its kernel, so both record lists arrive sorted
        // by correlation and the KQT join is a linear merge. A
        // duplicated correlation resolves to the *last* launch, exactly
        // as the scan-based extraction did; out-of-order records (e.g. a
        // hand-built timeline) fall back to the FNV map.
        let sorted = self
            .launches
            .windows(2)
            .all(|w| w[0].correlation <= w[1].correlation)
            && kernels
                .windows(2)
                .all(|w| w[0].correlation <= w[1].correlation);
        if sorted {
            let mut j = 0usize;
            for k in &mut kernels {
                while j < self.launches.len() && self.launches[j].correlation < k.correlation {
                    j += 1;
                }
                let mut hit = None;
                let mut jj = j;
                while jj < self.launches.len() && self.launches[jj].correlation == k.correlation {
                    hit = Some(jj);
                    jj += 1;
                }
                k.kqt = match hit {
                    Some(i) => {
                        let l = &self.launches[i];
                        k.start.saturating_since(l.start + l.klo)
                    }
                    None => SimDuration::ZERO,
                };
            }
        } else {
            let mut launch_end: hcc_types::hash::FnvHashMap<u64, SimTime> =
                hcc_types::hash::FnvHashMap::with_capacity_and_hasher(
                    self.launches.len(),
                    hcc_types::hash::FnvBuildHasher,
                );
            for l in &self.launches {
                launch_end.insert(l.correlation, l.start + l.klo);
            }
            for k in &mut kernels {
                k.kqt = launch_end
                    .get(&k.correlation)
                    .map(|le| k.start.saturating_since(*le))
                    .unwrap_or(SimDuration::ZERO);
            }
        }
        let mut launches = self.launches.clone();
        launches.sort_by_key(|l| l.start);
        kernels.sort_by_key(|k| k.start);
        LaunchMetrics { launches, kernels }
    }

    /// Extracts memory-path metrics (Fig. 5/6 inputs).
    pub fn mem_metrics(&self) -> MemMetrics {
        self.mem
    }

    /// Aggregates the four phases of the Fig. 3 performance model, plus
    /// the observed end-to-end span.
    ///
    /// Per the paper, synchronization that chronologically overlaps
    /// kernel execution belongs to part C; only the *exposed* remainder
    /// counts toward `T_other`.
    pub fn phase_totals(&self) -> PhaseTotals {
        let lm = self.launch_metrics();
        let mm = self.mem_metrics();
        let exposed_sync = mm.sync.saturating_sub(self.sync_kernel_overlap());
        PhaseTotals {
            t_mem: mm.copy_total(),
            t_launch: lm.total_klo() + lm.total_lqt(),
            t_kernel: lm.total_ket() + lm.total_kqt(),
            t_other: mm.management_total() + exposed_sync,
            t_fault: mm.fault_time,
            span: self.span(),
        }
    }

    /// Total time during which `Sync` events overlap `Kernel` events,
    /// summed over every (sync, kernel) span pair.
    ///
    /// The naive pairwise scan is O(|sync|·|kernel|) — quadratic for
    /// sync-per-iteration apps where both lists grow with the launch
    /// count. This computes the *identical* integer total by sorting
    /// kernel starts and ends once and resolving each sync span `(ss,
    /// se)` with four binary searches over prefix sums:
    ///
    /// ```text
    /// Σ max(0, min(se, ke) − max(ss, ks))
    ///   = [ Σ_{ke > ss} min(se, ke) − |{ks ≥ se}|·se ]
    ///   − [ Σ_{ks < se} max(ss, ks) − |{ke ≤ ss}|·ss ]
    /// ```
    ///
    /// Pairs with `ks ≥ se` contribute `min = se` to the left bracket
    /// and pairs with `ke ≤ ss` contribute `max = ss` to the right, so
    /// both non-overlapping families cancel exactly; every surviving
    /// pair's term is its nonnegative overlap. Integer addition is
    /// order-independent, so the result matches the pairwise sum bit
    /// for bit.
    fn sync_kernel_overlap(&self) -> SimDuration {
        if self.sync_spans.is_empty() || self.kernel_spans.is_empty() {
            return SimDuration::ZERO;
        }
        let mut starts: Vec<u64> = self.kernel_spans.iter().map(|s| s.0.as_nanos()).collect();
        let mut ends: Vec<u64> = self.kernel_spans.iter().map(|s| s.1.as_nanos()).collect();
        starts.sort_unstable();
        ends.sort_unstable();
        fn prefix(v: &[u64]) -> Vec<u128> {
            let mut p = Vec::with_capacity(v.len() + 1);
            let mut acc = 0u128;
            p.push(acc);
            for &x in v {
                acc += u128::from(x);
                p.push(acc);
            }
            p
        }
        let pstarts = prefix(&starts);
        let pends = prefix(&ends);
        let n = starts.len();
        let mut total = 0i128;
        for &(ss, se) in &self.sync_spans {
            let (ss, se) = (ss.as_nanos(), se.as_nanos());
            if se <= ss {
                continue; // zero-length sync overlaps nothing
            }
            // ends[..a] have ke ≤ ss; ends[a..b] lie in (ss, se).
            let a = ends.partition_point(|&e| e <= ss);
            let b = ends.partition_point(|&e| e < se);
            // starts[..d] have ks ≤ ss; starts[..c] have ks < se.
            let d = starts.partition_point(|&s| s <= ss);
            let c = starts.partition_point(|&s| s < se);
            let sum_min = (pends[b] - pends[a]) as i128 + (n - b) as i128 * se as i128
                - (n - c) as i128 * se as i128;
            let sum_max = (d as i128 - a as i128) * ss as i128 + (pstarts[c] - pstarts[d]) as i128;
            total += sum_min - sum_max;
        }
        SimDuration::from_nanos(total as u64)
    }
}

impl FromIterator<TraceEvent> for Timeline {
    fn from_iter<I: IntoIterator<Item = TraceEvent>>(iter: I) -> Self {
        let mut tl = Timeline::new();
        tl.extend(iter);
        tl
    }
}

impl Extend<TraceEvent> for Timeline {
    fn extend<I: IntoIterator<Item = TraceEvent>>(&mut self, iter: I) {
        let iter = iter.into_iter();
        self.events.reserve(iter.size_hint().0);
        for event in iter {
            self.push(event);
        }
    }
}

/// One launch operation's metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchRecord {
    /// Kernel function launched.
    pub kernel: KernelId,
    /// When the driver work began (after any LQT).
    pub start: SimTime,
    /// Kernel launch overhead — the driver-side span.
    pub klo: SimDuration,
    /// Launch queuing time spent blocked before `start`.
    pub lqt: SimDuration,
    /// First launch of this kernel function?
    pub first: bool,
    /// Correlation id to the kernel execution.
    pub correlation: u64,
}

/// One kernel execution's metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelRecord {
    /// Kernel function executed.
    pub kernel: KernelId,
    /// Execution start.
    pub start: SimTime,
    /// Kernel execution time.
    pub ket: SimDuration,
    /// Kernel queuing time (launch end → execution start).
    pub kqt: SimDuration,
    /// Whether the kernel used managed memory.
    pub uvm: bool,
    /// Correlation id back to the launch.
    pub correlation: u64,
}

/// Launch/kernel metric collection for a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LaunchMetrics {
    /// Launch records ordered by start time.
    pub launches: Vec<LaunchRecord>,
    /// Kernel records ordered by start time.
    pub kernels: Vec<KernelRecord>,
}

impl LaunchMetrics {
    /// Sum of all KLO spans.
    pub fn total_klo(&self) -> SimDuration {
        self.launches.iter().map(|l| l.klo).sum()
    }

    /// Sum of all LQT waits.
    pub fn total_lqt(&self) -> SimDuration {
        self.launches.iter().map(|l| l.lqt).sum()
    }

    /// Sum of all KET spans.
    pub fn total_ket(&self) -> SimDuration {
        self.kernels.iter().map(|k| k.ket).sum()
    }

    /// Sum of all KQT waits.
    pub fn total_kqt(&self) -> SimDuration {
        self.kernels.iter().map(|k| k.kqt).sum()
    }

    /// All KLO samples (for CDFs).
    pub fn klos(&self) -> Vec<SimDuration> {
        self.launches.iter().map(|l| l.klo).collect()
    }

    /// All KET samples (for CDFs).
    pub fn kets(&self) -> Vec<SimDuration> {
        self.kernels.iter().map(|k| k.ket).collect()
    }

    /// Number of launches.
    pub fn launch_count(&self) -> usize {
        self.launches.len()
    }

    /// Kernel-to-Launch Ratio: `ΣKET / Σ(KLO + LQT)` (Observation 6).
    /// Returns `f64::INFINITY` when there were no launches.
    pub fn klr(&self) -> f64 {
        self.total_ket() / (self.total_klo() + self.total_lqt())
    }

    /// Per-kernel-function statistics: `(kernel, launches, KLO summary,
    /// KET summary)` sorted by kernel id — the grouping behind Fig. 12a's
    /// per-kernel launch trains.
    pub fn by_kernel(
        &self,
    ) -> Vec<(
        KernelId,
        usize,
        Option<crate::Summary>,
        Option<crate::Summary>,
    )> {
        let mut kernels: Vec<KernelId> = self.launches.iter().map(|l| l.kernel).collect();
        kernels.sort_unstable();
        kernels.dedup();
        kernels
            .into_iter()
            .map(|k| {
                let klos: Vec<SimDuration> = self
                    .launches
                    .iter()
                    .filter(|l| l.kernel == k)
                    .map(|l| l.klo)
                    .collect();
                let kets: Vec<SimDuration> = self
                    .kernels
                    .iter()
                    .filter(|r| r.kernel == k)
                    .map(|r| r.ket)
                    .collect();
                (
                    k,
                    klos.len(),
                    crate::Summary::of(&klos),
                    crate::Summary::of(&kets),
                )
            })
            .collect()
    }
}

/// Memory-path metric collection (Fig. 5/6 inputs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemMetrics {
    /// Total host→device copy time.
    pub h2d: SimDuration,
    /// Total device→host copy time.
    pub d2h: SimDuration,
    /// Total device→device copy time (includes CC "managed" demotions).
    pub d2d: SimDuration,
    /// Portion of copy time Nsight would label "Managed".
    pub managed_copy: SimDuration,
    /// Total bytes copied.
    pub copy_bytes: ByteSize,
    /// Total `cudaMalloc` time.
    pub dmalloc: SimDuration,
    /// Total `cudaMallocHost` time.
    pub hmalloc: SimDuration,
    /// Total `cudaMallocManaged` time.
    pub managed_alloc: SimDuration,
    /// Total non-managed free time.
    pub free: SimDuration,
    /// Total managed free time.
    pub managed_free: SimDuration,
    /// Total synchronization time.
    pub sync: SimDuration,
    /// Total CPU crypto time (CC only).
    pub crypto: SimDuration,
    /// Total bytes encrypted/decrypted.
    pub crypto_bytes: ByteSize,
    /// Count of hypercall transitions.
    pub hypercalls: u64,
    /// Total time inside hypercall transitions.
    pub hypercall_time: SimDuration,
    /// Total UVM fault-service time.
    pub uvm_fault: SimDuration,
    /// UVM pages migrated.
    pub uvm_pages: u64,
    /// UVM bytes migrated.
    pub uvm_bytes: ByteSize,
    /// Injected fault attempts (initial failures plus failed retries).
    pub faults_injected: u64,
    /// Recovery retries taken.
    pub fault_retries: u64,
    /// Degrade-to-smaller-chunks recoveries taken.
    pub fault_degrades: u64,
    /// Total recovery time (`T_fault`): the summed spans of
    /// `FaultInjected`, `Retry`, and `Degraded` events. Zero when the
    /// fault plan is empty.
    pub fault_time: SimDuration,
}

impl MemMetrics {
    /// Total explicit copy time across directions (T_mem's main term).
    pub fn copy_total(&self) -> SimDuration {
        self.h2d + self.d2h + self.d2d
    }

    /// Total allocation + deallocation time (T_other's main term).
    pub fn management_total(&self) -> SimDuration {
        self.dmalloc + self.hmalloc + self.managed_alloc + self.free + self.managed_free
    }
}

/// The four phases of the Fig. 3 model as measured from a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Part A: data transfer (`T_mem`).
    pub t_mem: SimDuration,
    /// Part B: `Σ(KLO + LQT)`.
    pub t_launch: SimDuration,
    /// Part C: `Σ(KET + KQT)`.
    pub t_kernel: SimDuration,
    /// Part D: alloc/free/sync (`T_other`).
    pub t_other: SimDuration,
    /// Fault-recovery attribution (`T_fault`): time spent in injected-fault
    /// recovery (backoffs, re-done staging/crypto, degraded setup). This is
    /// an *overlay*, not a fifth serial phase — recovery happens inside the
    /// host spans it interrupts (a retried staging chunk lengthens the
    /// `Memcpy` span that contains it), mirroring how exposed sync overlaps
    /// kernel execution. Zero whenever the fault plan is empty.
    pub t_fault: SimDuration,
    /// Observed end-to-end span `P`.
    pub span: SimDuration,
}

impl PhaseTotals {
    /// Serial (no-overlap) sum of the four phases — the model's `P` when
    /// `α = β = 0`. `T_fault` is excluded: it is attribution *within* the
    /// four phases, not additional serial time.
    pub fn serial_sum(&self) -> SimDuration {
        self.t_mem + self.t_launch + self.t_kernel + self.t_other
    }
}

hcc_types::impl_to_json!(PhaseTotals {
    t_mem,
    t_launch,
    t_kernel,
    t_other,
    t_fault,
    span
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::StreamId;
    use hcc_types::HostMemKind;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1_000)
    }

    fn sample_timeline() -> Timeline {
        let mut tl = Timeline::new();
        // Launch 1: 10–16us (KLO 6us, LQT 2us), kernel 18–118us (KQT 2us).
        tl.push(
            TraceEvent::new(
                EventKind::Launch {
                    kernel: KernelId(0),
                    queue_wait: SimDuration::micros(2),
                    first: true,
                },
                t(10),
                t(16),
            )
            .with_correlation(1),
        );
        tl.push(
            TraceEvent::new(
                EventKind::Kernel {
                    kernel: KernelId(0),
                    uvm: false,
                },
                t(18),
                t(118),
            )
            .with_correlation(1)
            .on_stream(StreamId(0)),
        );
        // A 1 MiB H2D copy, 120–150us.
        tl.push(TraceEvent::new(
            EventKind::Memcpy {
                kind: CopyKind::H2D,
                bytes: ByteSize::mib(1),
                mem: HostMemKind::Pageable,
                managed: false,
            },
            t(120),
            t(150),
        ));
        // Alloc 0–10us; free 150–160us; sync 160–161us.
        tl.push(TraceEvent::new(
            EventKind::Alloc {
                space: MemSpace::Device,
                bytes: ByteSize::mib(1),
            },
            t(0),
            t(10),
        ));
        tl.push(TraceEvent::new(
            EventKind::Free {
                space: MemSpace::Device,
                bytes: ByteSize::mib(1),
            },
            t(150),
            t(160),
        ));
        tl.push(TraceEvent::new(EventKind::Sync, t(160), t(161)));
        tl
    }

    #[test]
    fn span_covers_first_to_last() {
        let tl = sample_timeline();
        assert_eq!(tl.span(), SimDuration::micros(161));
        assert_eq!(tl.end(), t(161));
        assert!(Timeline::new().span().is_zero());
    }

    #[test]
    fn launch_metrics_extraction() {
        let lm = sample_timeline().launch_metrics();
        assert_eq!(lm.launch_count(), 1);
        assert_eq!(lm.launches[0].klo, SimDuration::micros(6));
        assert_eq!(lm.launches[0].lqt, SimDuration::micros(2));
        assert!(lm.launches[0].first);
        assert_eq!(lm.kernels[0].ket, SimDuration::micros(100));
        assert_eq!(lm.kernels[0].kqt, SimDuration::micros(2));
        let klr = lm.klr();
        assert!((klr - 100.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn klr_infinite_without_launches() {
        let mut tl = Timeline::new();
        tl.push(
            TraceEvent::new(
                EventKind::Kernel {
                    kernel: KernelId(1),
                    uvm: false,
                },
                t(0),
                t(5),
            )
            .with_correlation(7),
        );
        let lm = tl.launch_metrics();
        assert_eq!(lm.klr(), f64::INFINITY);
        // Kernel without matching launch gets zero KQT.
        assert_eq!(lm.kernels[0].kqt, SimDuration::ZERO);
    }

    #[test]
    fn mem_metrics_extraction() {
        let mm = sample_timeline().mem_metrics();
        assert_eq!(mm.h2d, SimDuration::micros(30));
        assert_eq!(mm.copy_total(), SimDuration::micros(30));
        assert_eq!(mm.copy_bytes, ByteSize::mib(1));
        assert_eq!(mm.dmalloc, SimDuration::micros(10));
        assert_eq!(mm.free, SimDuration::micros(10));
        assert_eq!(mm.management_total(), SimDuration::micros(20));
        assert_eq!(mm.sync, SimDuration::micros(1));
    }

    #[test]
    fn phase_totals_sum() {
        let pt = sample_timeline().phase_totals();
        assert_eq!(pt.t_mem, SimDuration::micros(30));
        assert_eq!(pt.t_launch, SimDuration::micros(8));
        assert_eq!(pt.t_kernel, SimDuration::micros(102));
        assert_eq!(pt.t_other, SimDuration::micros(21));
        assert_eq!(pt.serial_sum(), SimDuration::micros(161));
    }

    #[test]
    fn records_sorted_by_start_even_if_pushed_out_of_order() {
        let mut tl = Timeline::new();
        tl.push(
            TraceEvent::new(
                EventKind::Launch {
                    kernel: KernelId(2),
                    queue_wait: SimDuration::ZERO,
                    first: false,
                },
                t(50),
                t(55),
            )
            .with_correlation(2),
        );
        tl.push(
            TraceEvent::new(
                EventKind::Launch {
                    kernel: KernelId(1),
                    queue_wait: SimDuration::ZERO,
                    first: true,
                },
                t(10),
                t(15),
            )
            .with_correlation(1),
        );
        let lm = tl.launch_metrics();
        assert_eq!(lm.launches[0].kernel, KernelId(1));
        assert_eq!(lm.launches[1].kernel, KernelId(2));
    }

    #[test]
    fn running_min_max_survive_out_of_order_pushes() {
        // The arena maintains span bounds incrementally; pushing spans in
        // descending, interleaved, and nested orders must always agree
        // with a full scan of the stored events.
        let spans = [(40u64, 45u64), (10, 90), (0, 5), (50, 55), (2, 3)];
        let mut tl = Timeline::new();
        for (i, &(s, e)) in spans.iter().enumerate() {
            tl.push(TraceEvent::new(EventKind::Sync, t(s), t(e)));
            let scan_min = tl.events().iter().map(|e| e.start).min().unwrap();
            let scan_max = tl.events().iter().map(|e| e.end).max().unwrap();
            assert_eq!(tl.end(), scan_max, "after push {i}");
            assert_eq!(tl.span(), scan_max - scan_min, "after push {i}");
        }
        assert_eq!(tl.span(), SimDuration::micros(90));
        assert_eq!(tl.end(), t(90));
    }

    #[test]
    fn collect_and_extend() {
        let tl: Timeline = sample_timeline().events().to_vec().into_iter().collect();
        let mut tl2 = Timeline::new();
        tl2.extend(tl.events().iter().cloned());
        assert_eq!(tl.len(), tl2.len());
        assert!(!tl.is_empty());
    }
}
