//! Engine primitives for the discrete-event GPU model: serial resources
//! (copy engines, the command processor's service loop) and multi-slot
//! resources (the compute engine's concurrent kernel slots).

use hcc_types::{SimDuration, SimTime};

/// A serially-occupied resource with an availability horizon.
///
/// Scheduling an operation at `ready` starts it at
/// `max(ready, next_free)` — the core discipline of the whole simulator.
///
/// ```
/// use hcc_gpu::Resource;
/// use hcc_types::{SimDuration, SimTime};
///
/// let mut ce = Resource::new("h2d");
/// let a = ce.schedule(SimTime::ZERO, SimDuration::micros(10));
/// let b = ce.schedule(SimTime::ZERO, SimDuration::micros(5));
/// assert_eq!(b.start, a.end); // serialized
/// ```
#[derive(Debug, Clone)]
pub struct Resource {
    name: &'static str,
    next_free: SimTime,
    busy: SimDuration,
    waited: SimDuration,
    ops: u64,
}

/// A scheduled occupancy interval on a resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Operation start (after any queueing).
    pub start: SimTime,
    /// Operation end.
    pub end: SimTime,
    /// Time spent waiting for the resource before `start`.
    pub wait: SimDuration,
}

impl Resource {
    /// Creates an idle resource.
    pub fn new(name: &'static str) -> Self {
        Resource {
            name,
            next_free: SimTime::ZERO,
            busy: SimDuration::ZERO,
            waited: SimDuration::ZERO,
            ops: 0,
        }
    }

    /// Resource label (for reports).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Earliest time a new operation could start.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Total busy time accumulated.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Total time operations waited for the resource before starting.
    pub fn wait_time(&self) -> SimDuration {
        self.waited
    }

    /// Number of operations serviced.
    pub fn op_count(&self) -> u64 {
        self.ops
    }

    /// Schedules an operation that becomes ready at `ready` and occupies
    /// the resource for `service`. Returns the realized interval.
    pub fn schedule(&mut self, ready: SimTime, service: SimDuration) -> Slot {
        let start = ready.max(self.next_free);
        let end = start + service;
        self.next_free = end;
        let wait = start.saturating_since(ready);
        self.busy += service;
        self.waited += wait;
        self.ops += 1;
        Slot { start, end, wait }
    }

    /// Utilization over `[SimTime::ZERO, horizon]`, in `[0, 1]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        (self.busy.as_nanos() as f64 / horizon.as_nanos() as f64).min(1.0)
    }
}

/// A resource with `n` interchangeable slots (concurrent kernel execution
/// on the compute engine).
#[derive(Debug, Clone)]
pub struct MultiSlot {
    name: &'static str,
    slots: Vec<SimTime>,
    busy: SimDuration,
    waited: SimDuration,
    ops: u64,
}

impl MultiSlot {
    /// Creates a multi-slot resource.
    ///
    /// # Panics
    /// Panics if `slots` is zero.
    pub fn new(name: &'static str, slots: usize) -> Self {
        assert!(slots > 0, "need at least one slot");
        MultiSlot {
            name,
            slots: vec![SimTime::ZERO; slots],
            busy: SimDuration::ZERO,
            waited: SimDuration::ZERO,
            ops: 0,
        }
    }

    /// Resource label.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of slots.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Total busy time across slots.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Total time operations waited for a free slot before starting.
    pub fn wait_time(&self) -> SimDuration {
        self.waited
    }

    /// Number of operations serviced.
    pub fn op_count(&self) -> u64 {
        self.ops
    }

    /// Schedules on the earliest-free slot.
    pub fn schedule(&mut self, ready: SimTime, service: SimDuration) -> Slot {
        // Manual first-minimum scan: same slot choice as
        // `min_by_key` (first of equals wins), but branch-predictable
        // and vectorizable for the 16-slot compute engine.
        let mut idx = 0;
        for (i, t) in self.slots.iter().enumerate().skip(1) {
            if *t < self.slots[idx] {
                idx = i;
            }
        }
        let start = ready.max(self.slots[idx]);
        let end = start + service;
        self.slots[idx] = end;
        let wait = start.saturating_since(ready);
        self.busy += service;
        self.waited += wait;
        self.ops += 1;
        Slot { start, end, wait }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::micros(v)
    }

    fn at(v: u64) -> SimTime {
        SimTime::from_nanos(v * 1_000)
    }

    #[test]
    fn serial_resource_queues() {
        let mut r = Resource::new("ce");
        let a = r.schedule(at(0), us(10));
        assert_eq!(a.start, at(0));
        assert_eq!(a.end, at(10));
        assert!(a.wait.is_zero());
        let b = r.schedule(at(2), us(5));
        assert_eq!(b.start, at(10));
        assert_eq!(b.wait, us(8));
        assert_eq!(r.busy_time(), us(15));
        assert_eq!(r.op_count(), 2);
        assert_eq!(r.name(), "ce");
    }

    #[test]
    fn idle_gaps_are_respected() {
        let mut r = Resource::new("ce");
        r.schedule(at(0), us(5));
        let late = r.schedule(at(100), us(5));
        assert_eq!(late.start, at(100));
        assert!(late.wait.is_zero());
    }

    #[test]
    fn utilization_bounds() {
        let mut r = Resource::new("ce");
        r.schedule(at(0), us(50));
        assert!((r.utilization(at(100)) - 0.5).abs() < 1e-9);
        assert_eq!(r.utilization(SimTime::ZERO), 0.0);
        assert_eq!(r.utilization(at(10)), 1.0); // clamped
    }

    #[test]
    fn multislot_runs_concurrently_up_to_capacity() {
        let mut m = MultiSlot::new("compute", 2);
        let a = m.schedule(at(0), us(10));
        let b = m.schedule(at(0), us(10));
        let c = m.schedule(at(0), us(10));
        assert_eq!(a.start, at(0));
        assert_eq!(b.start, at(0)); // second slot
        assert_eq!(c.start, at(10)); // queues behind the earliest
        assert_eq!(c.wait, us(10));
        assert_eq!(m.slot_count(), 2);
        assert_eq!(m.op_count(), 3);
        assert_eq!(m.busy_time(), us(30));
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_rejected() {
        let _ = MultiSlot::new("bad", 0);
    }
}
