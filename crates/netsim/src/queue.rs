//! The event-queue core of the packet engine: the scheduled-event type and
//! the binary heap the engine pops it from.
//!
//! The engine pops events in ascending `(time, flow, hop)` order. The order
//! is total — [`f64::total_cmp`] on the timestamp, then flow, then hop — so
//! the pop sequence is a function of the pushed event *set* alone, which is
//! what makes every [`crate::monitor::SimReport`] reproducible bit for bit.
//! The staged engine keeps at most one in-transit event per link in the
//! queue, so it runs at small occupancy, where the unboxed
//! `BinaryHeap<Event>` is cache-friendly and O(log n) per operation.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled packet-at-link event. Lives directly in the queue (plain
/// `Copy` key, no boxing); ordered by `(time, flow, hop)` with earliest
/// first, which both drives the simulation clock and makes tie-breaking
/// deterministic.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Time the packet arrives at the head of this hop.
    pub time: f64,
    /// Flow (demand) index.
    pub flow: u32,
    /// Position within the flow's route.
    pub hop: u32,
    /// Time the packet originally entered the network.
    pub sent_at: f64,
    /// Accumulated queueing delay so far.
    pub queue_delay: f64,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Event {}

impl Ord for Event {
    /// Reversed comparison so `BinaryHeap` (a max-heap) pops the earliest
    /// event; ties broken by flow then hop index.
    fn cmp(&self, other: &Self) -> Ordering {
        // Exactly `f64::total_cmp` on the times. The float comparisons decide
        // every pair of distinct times and leave `total_cmp` the equal and
        // NaN cases. Calling `total_cmp` outright ran the perfbench
        // `us_backbone_sim` workload (heap occupancy ~12k) 15–20% slower on
        // a 2-core x86-64 machine.
        let (a, b) = (other.time, self.time);
        let by_time = if a < b {
            Ordering::Less
        } else if a > b {
            Ordering::Greater
        } else {
            a.total_cmp(&b)
        };
        by_time
            .then_with(|| other.flow.cmp(&self.flow))
            .then_with(|| other.hop.cmp(&self.hop))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Aggregate occupancy statistics of one or more event queues, for the
/// benchmark harness. Deliberately *not* part of [`crate::SimReport`]: they
/// measure how the engine did its work (hop collapsing changes them), not
/// the model's result.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueueStats {
    /// Total events pushed.
    pub pushes: u64,
    /// Sum of the queue length observed after each push (mean occupancy =
    /// `occupancy_sum / pushes`).
    pub occupancy_sum: u64,
    /// Peak queue length.
    pub peak_occupancy: u64,
}

impl QueueStats {
    /// Fold another queue's stats into this one (pushes sum, peaks max).
    pub fn merge(&mut self, other: &QueueStats) {
        self.pushes += other.pushes;
        self.occupancy_sum += other.occupancy_sum;
        self.peak_occupancy = self.peak_occupancy.max(other.peak_occupancy);
    }

    /// Mean queue length observed at push time (0 when nothing was pushed).
    pub fn mean_occupancy(&self) -> f64 {
        if self.pushes == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.pushes as f64
        }
    }
}

/// The engine-facing event queue: a binary heap plus occupancy accounting.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    stats: QueueStats,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule an event.
    #[inline(always)]
    pub fn push(&mut self, e: Event) {
        self.heap.push(e);
        let len = self.heap.len() as u64;
        self.stats.pushes += 1;
        self.stats.occupancy_sum += len;
        if len > self.stats.peak_occupancy {
            self.stats.peak_occupancy = len;
        }
    }

    /// Remove and return the earliest event by `(time, flow, hop)`.
    #[inline(always)]
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// The earliest event without removing it.
    #[inline]
    pub fn peek(&self) -> Option<Event> {
        self.heap.peek().copied()
    }

    /// Number of scheduled events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are scheduled.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop every scheduled event (occupancy stats are kept — they account
    /// the queue's whole lifetime across components).
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Lifetime occupancy statistics.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: f64, flow: u32, hop: u32) -> Event {
        Event {
            time,
            flow,
            hop,
            sent_at: time,
            queue_delay: 0.0,
        }
    }

    #[test]
    fn pops_in_time_flow_hop_order() {
        let mut q = EventQueue::new();
        q.push(ev(3.0, 0, 0));
        q.push(ev(1.0, 2, 1));
        q.push(ev(1.0, 1, 5));
        q.push(ev(2.0, 0, 0));
        q.push(ev(1.0, 1, 2));
        let order: Vec<(f64, u32, u32)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time, e.flow, e.hop))
            .collect();
        assert_eq!(
            order,
            vec![
                (1.0, 1, 2),
                (1.0, 1, 5),
                (1.0, 2, 1),
                (2.0, 0, 0),
                (3.0, 0, 0)
            ]
        );
    }

    #[test]
    fn time_order_is_total_cmp() {
        let times = [
            f64::NEG_INFINITY,
            -1.0,
            -0.0,
            0.0,
            1e-300,
            1.0,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for &a in &times {
            for &b in &times {
                // Reversed: the max-heap pops the earliest time first.
                assert_eq!(ev(a, 0, 0).cmp(&ev(b, 0, 0)), b.total_cmp(&a), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn clear_resets_and_queue_is_reusable() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.push(ev(i as f64, i, 0));
        }
        q.clear();
        assert!(q.is_empty());
        q.push(ev(0.5, 7, 1));
        assert_eq!(q.pop().map(|e| e.flow), Some(7));
        assert!(q.pop().is_none());
    }

    #[test]
    fn stats_track_pushes_and_peak() {
        let mut q = EventQueue::new();
        for i in 0..10u32 {
            q.push(ev(i as f64, i, 0));
        }
        q.pop();
        let s = q.stats();
        assert_eq!(s.pushes, 10);
        assert_eq!(s.peak_occupancy, 10);
        assert!(s.mean_occupancy() > 0.0);
    }
}
