//! Critical-path extraction and per-resource attribution.
//!
//! Walks the trace backwards from the last event, at every instant
//! charging the wall clock to the *innermost* active span (an AES-GCM
//! slot nested in a blocking-copy umbrella beats the umbrella; a kernel
//! beats the host sync that waits on it), and attributing uncovered
//! intervals — places where the virtual clock advanced without an event,
//! like the KQT window between a doorbell and execution — by the event
//! they precede, with the causal edges confirming the handoff. Every
//! critical nanosecond lands in exactly one [`ResourceClass`], so the
//! identity `Σ segments == observed span P` holds by construction.
//!
//! [`extract`] is one forward sweep over the sorted span boundaries with
//! a lazy max-heap of active spans; causal links are counted from one
//! sorted `(to, from)` edge index. Over `E` events and edges together it
//! costs O(E log E), causal links included.

use std::collections::BinaryHeap;

use hcc_types::json::{Json, ToJson};
use hcc_types::{FaultSite, SimDuration, SimTime};

use crate::causal::{CausalGraph, EventId};
use crate::event::{EventKind, TraceEvent};
use crate::timeline::Timeline;

/// The hardware/software resource a critical nanosecond is blamed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ResourceClass {
    /// Host driver work: launches, allocations, syncs, hypercalls.
    HostDriver,
    /// CPU AES-GCM staging (and GCM-integrity recovery).
    Crypto,
    /// Bounce-buffer (swiotlb) reservation and conversion.
    BouncePool,
    /// Channel ring / command processor / dispatch (LQT + KQT legs).
    RingCp,
    /// Copy-engine transfers.
    CopyEngine,
    /// Compute-engine execution (KET).
    ComputeEngine,
    /// UVM far-fault servicing and migration.
    Uvm,
}

impl ResourceClass {
    /// Every class, in display order.
    pub const ALL: [ResourceClass; 7] = [
        ResourceClass::HostDriver,
        ResourceClass::Crypto,
        ResourceClass::BouncePool,
        ResourceClass::RingCp,
        ResourceClass::CopyEngine,
        ResourceClass::ComputeEngine,
        ResourceClass::Uvm,
    ];

    /// Number of classes.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case name (JSON keys).
    pub fn name(&self) -> &'static str {
        match self {
            ResourceClass::HostDriver => "host_driver",
            ResourceClass::Crypto => "crypto",
            ResourceClass::BouncePool => "bounce_pool",
            ResourceClass::RingCp => "ring_cp",
            ResourceClass::CopyEngine => "copy_engine",
            ResourceClass::ComputeEngine => "compute_engine",
            ResourceClass::Uvm => "uvm",
        }
    }

    /// Short column label for tables.
    pub fn short(&self) -> &'static str {
        match self {
            ResourceClass::HostDriver => "host",
            ResourceClass::Crypto => "crypto",
            ResourceClass::BouncePool => "bounce",
            ResourceClass::RingCp => "ring",
            ResourceClass::CopyEngine => "copy",
            ResourceClass::ComputeEngine => "compute",
            ResourceClass::Uvm => "uvm",
        }
    }

    fn index(self) -> usize {
        Self::ALL.iter().position(|&r| r == self).unwrap()
    }
}

impl std::fmt::Display for ResourceClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl ToJson for ResourceClass {
    fn to_json(&self) -> Json {
        Json::Str(self.name().to_string())
    }
}

/// Which resource an event's span occupies.
pub fn resource_of(kind: &EventKind) -> ResourceClass {
    match kind {
        EventKind::Launch { .. }
        | EventKind::Alloc { .. }
        | EventKind::Free { .. }
        | EventKind::Sync
        | EventKind::Hypercall { .. } => ResourceClass::HostDriver,
        EventKind::Kernel { .. } => ResourceClass::ComputeEngine,
        EventKind::Memcpy { .. } => ResourceClass::CopyEngine,
        EventKind::Crypto { .. } => ResourceClass::Crypto,
        EventKind::BounceReserve { .. } => ResourceClass::BouncePool,
        EventKind::UvmFault { .. } => ResourceClass::Uvm,
        EventKind::FaultInjected { site, .. }
        | EventKind::Retry { site, .. }
        | EventKind::Degraded { site } => site_resource(*site),
    }
}

fn site_resource(site: FaultSite) -> ResourceClass {
    match site {
        FaultSite::GcmTagH2D | FaultSite::GcmTagD2H => ResourceClass::Crypto,
        FaultSite::BounceExhausted => ResourceClass::BouncePool,
        FaultSite::RingDoorbell => ResourceClass::RingCp,
        FaultSite::UvmMigration => ResourceClass::Uvm,
    }
}

/// Nesting priority: when spans overlap, the higher-priority one is the
/// *exposed* occupant of the instant. Recovery spans expose their fault
/// site; UVM service exposes inside its kernel; device engines hide
/// overlapped host work (the α/β overlap of the paper's Fig. 3 model);
/// nested staging (crypto, bounce, hypercalls) beats its blocking-copy
/// umbrella; a host sync never hides what it waits on.
fn priority(kind: &EventKind) -> u8 {
    match kind {
        EventKind::FaultInjected { .. } | EventKind::Retry { .. } | EventKind::Degraded { .. } => 6,
        EventKind::UvmFault { .. } => 5,
        EventKind::Kernel { .. } => 4,
        EventKind::Crypto { .. }
        | EventKind::BounceReserve { .. }
        | EventKind::Hypercall { .. } => 3,
        EventKind::Memcpy { .. } => 2,
        EventKind::Launch { .. } | EventKind::Alloc { .. } | EventKind::Free { .. } => 1,
        EventKind::Sync => 0,
    }
}

/// One maximal critical-path interval charged to a single resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Interval start.
    pub start: SimTime,
    /// Interval end.
    pub end: SimTime,
    /// Resource the interval is charged to.
    pub resource: ResourceClass,
    /// Event occupying the interval (`None` for attributed gaps).
    pub event: Option<EventId>,
}

impl Segment {
    /// Interval length.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// Per-resource critical time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Attribution {
    totals: [SimDuration; ResourceClass::COUNT],
}

impl Attribution {
    /// Critical time charged to `r`.
    pub fn get(&self, r: ResourceClass) -> SimDuration {
        self.totals[r.index()]
    }

    /// Charges `d` more critical time to `r` — how consumers outside the
    /// extractor (the flight recorder's shape decompositions, tests)
    /// assemble an attribution by hand.
    pub fn add(&mut self, r: ResourceClass, d: SimDuration) {
        self.totals[r.index()] += d;
    }

    /// Sum over every class (equals the observed span by the identity).
    pub fn total(&self) -> SimDuration {
        self.totals.iter().copied().sum()
    }

    /// `(class, time)` pairs in display order.
    pub fn iter(&self) -> impl Iterator<Item = (ResourceClass, SimDuration)> + '_ {
        ResourceClass::ALL.iter().map(|&r| (r, self.get(r)))
    }
}

impl ToJson for Attribution {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(r, t)| (r.name().to_string(), t.to_json()))
                .collect(),
        )
    }
}

/// The extracted critical path of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CritPath {
    segments: Vec<Segment>,
    first: SimTime,
    last: SimTime,
    causal_links: usize,
}

impl CritPath {
    /// Segments in chronological order (they partition `[first, last]`).
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Trace start.
    pub fn first(&self) -> SimTime {
        self.first
    }

    /// Trace end.
    pub fn last(&self) -> SimTime {
        self.last
    }

    /// The observed span `P = last - first`.
    pub fn span(&self) -> SimDuration {
        self.last - self.first
    }

    /// Per-resource attribution of every critical nanosecond.
    pub fn attribution(&self) -> Attribution {
        let mut a = Attribution::default();
        for s in &self.segments {
            a.totals[s.resource.index()] += s.duration();
        }
        a
    }

    /// Distinct events on the path, in chronological order.
    pub fn events_on_path(&self) -> Vec<EventId> {
        let mut out: Vec<EventId> = Vec::new();
        for s in &self.segments {
            if let Some(id) = s.event {
                if out.last() != Some(&id) {
                    out.push(id);
                }
            }
        }
        out
    }

    /// How many consecutive path hops are confirmed by a recorded causal
    /// edge (zero when collection was disabled).
    pub fn causal_links(&self) -> usize {
        self.causal_links
    }

    /// Verifies the enforced identity: segments are time-monotonic,
    /// gap-free, and sum exactly to the observed span.
    pub fn identity_holds(&self) -> bool {
        let mut cursor = self.first;
        for s in &self.segments {
            if s.start != cursor || s.end < s.start {
                return false;
            }
            cursor = s.end;
        }
        cursor == self.last
            && self.attribution().total() == self.span()
            && self
                .segments
                .iter()
                .map(Segment::duration)
                .sum::<SimDuration>()
                == self.span()
    }
}

/// Extracts the critical path of `timeline`, consulting `graph` for the
/// typed handoffs between path events.
pub fn extract(timeline: &Timeline, graph: &CausalGraph) -> CritPath {
    let events = timeline.events();
    let (first, last) = match timeline.start() {
        Some(first) => (first, timeline.end()),
        None => (SimTime::ZERO, SimTime::ZERO),
    };
    if first == last {
        return CritPath {
            segments: Vec::new(),
            first,
            last,
            causal_links: 0,
        };
    }

    // Positive-width events in start order; zero-width markers never
    // occupy time.
    let mut order: Vec<(SimTime, usize)> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.end > e.start)
        .map(|(i, e)| (e.start, i))
        .collect();
    order.sort_unstable();
    let mut ends: Vec<SimTime> = order.iter().map(|&(_, i)| events[i].end).collect();
    ends.sort_unstable();

    // Elementary intervals between consecutive span boundaries: the sorted
    // starts merged with the sorted ends, all inside `[first, last]`.
    let mut bounds: Vec<SimTime> = Vec::with_capacity(order.len() * 2 + 2);
    bounds.push(first);
    let (mut s, mut e) = (0usize, 0usize);
    while s < order.len() || e < ends.len() {
        let t = if e == ends.len() || (s < order.len() && order[s].0 <= ends[e]) {
            s += 1;
            order[s - 1].0
        } else {
            e += 1;
            ends[e - 1]
        };
        if bounds.last() != Some(&t) {
            bounds.push(t);
        }
    }
    if bounds.last() != Some(&last) {
        bounds.push(last);
    }

    // Backward-walk equivalent, computed as a sweep: at each elementary
    // interval the innermost active event (max priority, then latest
    // start, then latest push) owns the critical time. A lazy max-heap
    // keeps the sweep O(E log E). An uncovered interval is charged by the
    // event it precedes — the next covered interval's owner — so it waits
    // in `gaps` until that owner is known; a trailing gap has none.
    let mut heap: BinaryHeap<(u8, SimTime, usize)> = BinaryHeap::new();
    let mut next = 0usize;
    let mut gaps: Vec<(SimTime, SimTime)> = Vec::new();
    let mut segments: Vec<Segment> = Vec::new();
    for w in bounds.windows(2) {
        let (a, b) = (w[0], w[1]);
        while next < order.len() && order[next].0 <= a {
            let i = order[next].1;
            heap.push((priority(&events[i].kind), events[i].start, i));
            next += 1;
        }
        while heap.peek().is_some_and(|&(_, _, i)| events[i].end <= a) {
            heap.pop();
        }
        let Some(&(_, _, i)) = heap.peek() else {
            gaps.push((a, b));
            continue;
        };
        for (ga, gb) in gaps.drain(..) {
            attribute_gap(events, ga, gb, Some(i), &mut segments);
        }
        push_merged(
            &mut segments,
            Segment {
                start: a,
                end: b,
                resource: resource_of(&events[i].kind),
                event: Some(EventId(i)),
            },
        );
    }
    for (ga, gb) in gaps {
        attribute_gap(events, ga, gb, None, &mut segments);
    }

    let mut path = CritPath {
        segments,
        first,
        last,
        causal_links: 0,
    };
    path.causal_links = count_links(&path.events_on_path(), graph);
    path
}

/// Counts path hops the causal DAG explains: consecutive path events
/// linked by a recorded edge, looked up in one sorted `(to, from)` index
/// rather than by scanning every edge per hop.
fn count_links(path: &[EventId], graph: &CausalGraph) -> usize {
    if path.len() < 2 || graph.is_empty() {
        return 0;
    }
    let mut index: Vec<(EventId, EventId)> = graph.edges().iter().map(|e| (e.to, e.from)).collect();
    index.sort_unstable();
    path.windows(2)
        .filter(|hop| index.binary_search(&(hop[1], hop[0])).is_ok())
        .count()
}

/// Charges an uncovered interval `[a, b)` by what it waited for.
fn attribute_gap(
    events: &[TraceEvent],
    a: SimTime,
    b: SimTime,
    succ: Option<usize>,
    segments: &mut Vec<Segment>,
) {
    let Some(s) = succ else {
        // Trailing host time after the last span.
        push_merged(
            segments,
            Segment {
                start: a,
                end: b,
                resource: ResourceClass::HostDriver,
                event: None,
            },
        );
        return;
    };
    match &events[s].kind {
        // The doorbell→execution window: CP service + dispatch (KQT).
        EventKind::Kernel { .. } | EventKind::Memcpy { .. } => push_merged(
            segments,
            Segment {
                start: a,
                end: b,
                resource: ResourceClass::RingCp,
                event: None,
            },
        ),
        // Pre-launch stall: up to `queue_wait` of it is ring backpressure
        // (LQT); any remainder is host-side issue gap.
        EventKind::Launch { queue_wait, .. } => {
            let gap = b - a;
            if gap <= *queue_wait {
                push_merged(
                    segments,
                    Segment {
                        start: a,
                        end: b,
                        resource: ResourceClass::RingCp,
                        event: None,
                    },
                );
            } else {
                let split = b - *queue_wait;
                push_merged(
                    segments,
                    Segment {
                        start: a,
                        end: split,
                        resource: ResourceClass::HostDriver,
                        event: None,
                    },
                );
                if !queue_wait.is_zero() {
                    push_merged(
                        segments,
                        Segment {
                            start: split,
                            end: b,
                            resource: ResourceClass::RingCp,
                            event: None,
                        },
                    );
                }
            }
        }
        // Waiting for a crypto-engine slot.
        EventKind::Crypto { .. } => push_merged(
            segments,
            Segment {
                start: a,
                end: b,
                resource: ResourceClass::Crypto,
                event: None,
            },
        ),
        EventKind::BounceReserve { .. } => push_merged(
            segments,
            Segment {
                start: a,
                end: b,
                resource: ResourceClass::BouncePool,
                event: None,
            },
        ),
        _ => push_merged(
            segments,
            Segment {
                start: a,
                end: b,
                resource: ResourceClass::HostDriver,
                event: None,
            },
        ),
    }
}

fn push_merged(segments: &mut Vec<Segment>, seg: Segment) {
    if seg.end == seg.start {
        return;
    }
    if let Some(prev) = segments.last_mut() {
        if prev.end == seg.start && prev.resource == seg.resource && prev.event == seg.event {
            prev.end = seg.end;
            return;
        }
    }
    segments.push(seg);
}

hcc_types::impl_to_json!(Segment {
    start,
    end,
    resource,
    event
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causal::{CausalEdge, EdgeKind};
    use crate::event::{HypercallReason, KernelId};
    use hcc_check::strategy::{u16s, u64s, u8s, vecs};
    use hcc_check::{ensure_eq, forall, Config};
    use hcc_types::{ByteSize, CopyKind, HostMemKind, MemSpace};

    /// The two-pass extraction [`extract`] replaced: a sweep that records
    /// every elementary interval, then a second walk that searches forward
    /// for each gap's successor, with causal links counted by scanning
    /// every edge per hop. Kept as the oracle the one-pass sweep must
    /// match exactly.
    fn extract_reference(timeline: &Timeline, graph: &CausalGraph) -> CritPath {
        let events = timeline.events();
        let first = events.iter().map(|e| e.start).min();
        let last = events.iter().map(|e| e.end).max();
        let (Some(first), Some(last)) = (first, last) else {
            return CritPath {
                segments: Vec::new(),
                first: SimTime::ZERO,
                last: SimTime::ZERO,
                causal_links: 0,
            };
        };
        if first == last {
            return CritPath {
                segments: Vec::new(),
                first,
                last,
                causal_links: 0,
            };
        }
        let mut order: Vec<usize> = (0..events.len())
            .filter(|&i| events[i].end > events[i].start)
            .collect();
        order.sort_by_key(|&i| events[i].start);
        let mut bounds: Vec<SimTime> = vec![first, last];
        for &i in &order {
            bounds.push(events[i].start);
            bounds.push(events[i].end);
        }
        bounds.sort_unstable();
        bounds.dedup();

        let mut heap: BinaryHeap<(u8, SimTime, usize)> = BinaryHeap::new();
        let mut next = 0usize;
        let mut raw: Vec<(SimTime, SimTime, Option<usize>)> = Vec::new();
        for w in bounds.windows(2) {
            let (a, b) = (w[0], w[1]);
            while next < order.len() && events[order[next]].start <= a {
                let i = order[next];
                heap.push((priority(&events[i].kind), events[i].start, i));
                next += 1;
            }
            while let Some(&(_, _, i)) = heap.peek() {
                if events[i].end <= a {
                    heap.pop();
                } else {
                    break;
                }
            }
            raw.push((a, b, heap.peek().map(|&(_, _, i)| i)));
        }

        let mut segments: Vec<Segment> = Vec::new();
        for (idx, &(a, b, cover)) in raw.iter().enumerate() {
            match cover {
                Some(i) => push_merged(
                    &mut segments,
                    Segment {
                        start: a,
                        end: b,
                        resource: resource_of(&events[i].kind),
                        event: Some(EventId(i)),
                    },
                ),
                None => {
                    let succ = raw[idx + 1..].iter().find_map(|&(_, _, c)| c);
                    attribute_gap(events, a, b, succ, &mut segments);
                }
            }
        }
        let mut path = CritPath {
            segments,
            first,
            last,
            causal_links: 0,
        };
        path.causal_links = path
            .events_on_path()
            .windows(2)
            .filter(|hop| graph.predecessors(hop[1]).any(|e| e.from == hop[0]))
            .count();
        path
    }

    /// One event per raw `(start, len, kind, extra)` tuple. Starts sit on
    /// a coarse 1 µs grid so equal starts and shared boundaries are
    /// common; `len == 0` gives zero-width markers; `kind` walks every
    /// nesting priority; `extra` is a launch's `queue_wait`, drawn on the
    /// same scale as the gaps so it lands on both sides of them.
    fn random_event((start, len, kind, extra): (u64, u64, u8, u64)) -> TraceEvent {
        let bytes = ByteSize::kib(4);
        let site = FaultSite::BounceExhausted;
        let kind = match kind {
            0 => EventKind::Sync,
            1 => EventKind::Launch {
                kernel: KernelId(0),
                queue_wait: SimDuration::micros(extra),
                first: false,
            },
            2 => EventKind::Alloc {
                space: MemSpace::Device,
                bytes,
            },
            3 => EventKind::Free {
                space: MemSpace::Host,
                bytes,
            },
            4 => EventKind::Memcpy {
                kind: CopyKind::H2D,
                bytes,
                mem: HostMemKind::Pageable,
                managed: false,
                submitted: SimTime::ZERO,
            },
            5 => EventKind::Crypto {
                bytes,
                encrypt: true,
                wait: SimDuration::ZERO,
            },
            6 => EventKind::BounceReserve {
                bytes,
                converted: false,
            },
            7 => EventKind::Hypercall {
                reason: HypercallReason::DmaMap,
            },
            8 => EventKind::Kernel {
                kernel: KernelId(0),
                uvm: false,
                wait: SimDuration::ZERO,
            },
            9 => EventKind::UvmFault {
                kernel: KernelId(0),
                pages: 1,
                bytes,
            },
            10 => EventKind::FaultInjected { site, attempts: 1 },
            11 => EventKind::Retry { site, attempt: 1 },
            _ => EventKind::Degraded { site },
        };
        TraceEvent::new(kind, t(start), t(start + len))
    }

    /// Builds the timeline and a causal graph whose raw `(from, to)`
    /// pairs are folded onto the event ids (self-loops dropped), so the
    /// edges often land on real path hops.
    fn random_case(raw: &[(u64, u64, u8, u64)], edges: &[(u16, u16)]) -> (Timeline, CausalGraph) {
        let tl: Timeline = raw.iter().copied().map(random_event).collect();
        let mut g = CausalGraph::new(true);
        if !tl.is_empty() {
            for &(a, b) in edges {
                let (a, b) = (usize::from(a) % tl.len(), usize::from(b) % tl.len());
                if a != b {
                    g.push(CausalEdge::new(
                        EventId(a.min(b)),
                        EventId(a.max(b)),
                        EdgeKind::StreamOrder,
                    ));
                }
            }
        }
        (tl, g)
    }

    #[test]
    fn one_pass_sweep_matches_the_reference() {
        let events = vecs((u64s(0..40), u64s(0..12), u8s(0..13), u64s(0..12)), 0..24);
        let edges = vecs((u16s(0..64), u16s(0..64)), 0..48);
        forall!(
            Config::new(0x7ACE_00C9).with_cases(512),
            (raw, raw_edges) in (events, edges) =>
        {
            let (tl, g) = random_case(&raw, &raw_edges);
            let fast = extract(&tl, &g);
            let slow = extract_reference(&tl, &g);
            ensure_eq!(fast.segments(), slow.segments());
            ensure_eq!(fast.first(), slow.first());
            ensure_eq!(fast.last(), slow.last());
            ensure_eq!(fast.causal_links(), slow.causal_links());
        });
    }

    #[test]
    fn one_pass_sweep_matches_the_reference_on_degenerate_timelines() {
        let g = CausalGraph::new(true);
        // Empty; one zero-width marker; several markers at one instant.
        let cases: [&[(u64, u64, u8, u64)]; 3] = [
            &[],
            &[(5, 0, 10, 0)],
            &[(5, 0, 10, 0), (5, 0, 1, 3), (5, 0, 8, 0)],
        ];
        for raw in cases {
            let (tl, _) = random_case(raw, &[]);
            assert_eq!(extract(&tl, &g), extract_reference(&tl, &g));
            assert!(extract(&tl, &g).segments().is_empty());
        }
    }

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::micros(us)
    }

    fn launch(kernel: u32, qw_us: u64, start: u64, end: u64) -> TraceEvent {
        TraceEvent::new(
            EventKind::Launch {
                kernel: KernelId(kernel),
                queue_wait: SimDuration::micros(qw_us),
                first: false,
            },
            t(start),
            t(end),
        )
    }

    fn kernel(id: u32, start: u64, end: u64) -> TraceEvent {
        TraceEvent::new(
            EventKind::Kernel {
                kernel: KernelId(id),
                uvm: false,
                wait: SimDuration::ZERO,
            },
            t(start),
            t(end),
        )
    }

    #[test]
    fn empty_timeline_is_trivially_consistent() {
        let p = extract(&Timeline::new(), &CausalGraph::new(true));
        assert!(p.segments().is_empty());
        assert!(p.identity_holds());
        assert_eq!(p.span(), SimDuration::ZERO);
    }

    #[test]
    fn gap_between_launch_and_kernel_is_ring_cp() {
        let mut tl = Timeline::new();
        tl.push(launch(0, 0, 0, 10));
        tl.push(kernel(0, 14, 30)); // 4 µs KQT gap
        let p = extract(&tl, &CausalGraph::new(true));
        assert!(p.identity_holds());
        let a = p.attribution();
        assert_eq!(a.get(ResourceClass::HostDriver), SimDuration::micros(10));
        assert_eq!(a.get(ResourceClass::RingCp), SimDuration::micros(4));
        assert_eq!(a.get(ResourceClass::ComputeEngine), SimDuration::micros(16));
        assert_eq!(a.total(), p.span());
    }

    #[test]
    fn nested_spans_expose_the_innermost() {
        let mut tl = Timeline::new();
        // Blocking-copy umbrella [0, 100] with a crypto slot [10, 40] and
        // a bounce reservation [40, 55] nested inside.
        tl.push(TraceEvent::new(
            EventKind::Memcpy {
                kind: CopyKind::H2D,
                bytes: ByteSize::mib(1),
                mem: HostMemKind::Pageable,
                managed: false,
                submitted: SimTime::ZERO,
            },
            t(0),
            t(100),
        ));
        tl.push(TraceEvent::new(
            EventKind::Crypto {
                bytes: ByteSize::mib(1),
                encrypt: true,
                wait: SimDuration::ZERO,
            },
            t(10),
            t(40),
        ));
        tl.push(TraceEvent::new(
            EventKind::BounceReserve {
                bytes: ByteSize::mib(1),
                converted: true,
            },
            t(40),
            t(55),
        ));
        let p = extract(&tl, &CausalGraph::new(true));
        assert!(p.identity_holds());
        let a = p.attribution();
        assert_eq!(a.get(ResourceClass::Crypto), SimDuration::micros(30));
        assert_eq!(a.get(ResourceClass::BouncePool), SimDuration::micros(15));
        assert_eq!(a.get(ResourceClass::CopyEngine), SimDuration::micros(55));
        assert_eq!(a.total(), SimDuration::micros(100));
    }

    #[test]
    fn kernel_hides_the_sync_that_waits_on_it() {
        let mut tl = Timeline::new();
        tl.push(kernel(0, 0, 50));
        tl.push(TraceEvent::new(EventKind::Sync, t(5), t(50)));
        let p = extract(&tl, &CausalGraph::new(true));
        assert!(p.identity_holds());
        let a = p.attribution();
        assert_eq!(a.get(ResourceClass::ComputeEngine), SimDuration::micros(50));
        assert_eq!(a.get(ResourceClass::HostDriver), SimDuration::ZERO);
    }

    #[test]
    fn launch_gap_splits_queue_wait_from_host_gap() {
        let mut tl = Timeline::new();
        tl.push(kernel(0, 0, 10));
        // 20 µs of nothing, then a launch whose LQT was 6 µs: the last
        // 6 µs of the gap are ring backpressure, the first 14 host issue.
        tl.push(launch(1, 6, 30, 35));
        let p = extract(&tl, &CausalGraph::new(true));
        assert!(p.identity_holds());
        let a = p.attribution();
        assert_eq!(a.get(ResourceClass::HostDriver), SimDuration::micros(19));
        assert_eq!(a.get(ResourceClass::RingCp), SimDuration::micros(6));
    }

    #[test]
    fn zero_width_markers_extend_nothing_but_span_everything() {
        let mut tl = Timeline::new();
        tl.push(kernel(0, 0, 10));
        // A zero-width fault marker past the last span stretches the
        // observed span; the stretch is host time.
        tl.push(TraceEvent::new(
            EventKind::FaultInjected {
                site: FaultSite::RingDoorbell,
                attempts: 1,
            },
            t(12),
            t(12),
        ));
        let p = extract(&tl, &CausalGraph::new(true));
        assert!(p.identity_holds());
        assert_eq!(p.span(), SimDuration::micros(12));
        assert_eq!(
            p.attribution().get(ResourceClass::HostDriver),
            SimDuration::micros(2)
        );
    }

    #[test]
    fn retry_spans_charge_their_fault_site() {
        let mut tl = Timeline::new();
        tl.push(TraceEvent::new(
            EventKind::Memcpy {
                kind: CopyKind::H2D,
                bytes: ByteSize::mib(1),
                mem: HostMemKind::Pageable,
                managed: false,
                submitted: SimTime::ZERO,
            },
            t(0),
            t(60),
        ));
        tl.push(TraceEvent::new(
            EventKind::Retry {
                site: FaultSite::BounceExhausted,
                attempt: 1,
            },
            t(5),
            t(20),
        ));
        let p = extract(&tl, &CausalGraph::new(true));
        let a = p.attribution();
        assert_eq!(a.get(ResourceClass::BouncePool), SimDuration::micros(15));
        assert_eq!(a.get(ResourceClass::CopyEngine), SimDuration::micros(45));
    }

    #[test]
    fn uvm_fault_exposes_inside_its_kernel() {
        let mut tl = Timeline::new();
        tl.push(kernel(0, 0, 100));
        tl.push(TraceEvent::new(
            EventKind::UvmFault {
                kernel: KernelId(0),
                pages: 64,
                bytes: ByteSize::kib(256),
            },
            t(0),
            t(30),
        ));
        let p = extract(&tl, &CausalGraph::new(true));
        assert!(p.identity_holds());
        let a = p.attribution();
        assert_eq!(a.get(ResourceClass::Uvm), SimDuration::micros(30));
        assert_eq!(a.get(ResourceClass::ComputeEngine), SimDuration::micros(70));
    }

    #[test]
    fn causal_edges_confirm_path_hops() {
        let mut tl = Timeline::new();
        let l = tl.push(launch(0, 0, 0, 10));
        let k = tl.push(kernel(0, 14, 30));
        let mut g = CausalGraph::new(true);
        g.push(CausalEdge::new(l, k, EdgeKind::LaunchToExec).with_wait(SimDuration::micros(4)));
        let p = extract(&tl, &g);
        assert_eq!(p.events_on_path(), vec![l, k]);
        assert_eq!(p.causal_links(), 1);
        // Without edges the path is identical but unconfirmed.
        let bare = extract(&tl, &CausalGraph::new(true));
        assert_eq!(bare.causal_links(), 0);
        assert_eq!(bare.segments(), p.segments());
    }
}
