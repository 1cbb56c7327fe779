//! The FlowMonitor equivalent: delay, loss and utilisation statistics.
//!
//! The paper uses ns-3's FlowMonitor to measure delay and loss rate and adds
//! a custom module for link-level utilisation (§5). This module accumulates
//! the same statistics during a simulation run and summarises them into the
//! quantities the figures plot — plus *per-flow* delay means, which is what
//! lets the application models (§7) consume simulated per-pair RTTs instead
//! of propagation-only latency.
//!
//! The sharded engine merges per-component partial monitors in a fixed
//! (component-index) order, so the aggregated statistics are bit-identical
//! regardless of how many workers ran the components.

use serde::{Deserialize, Serialize};

/// Accumulator for scalar samples (delay, queue occupancy, …).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SampleStats {
    values: Vec<f64>,
}

impl SampleStats {
    /// Record a sample.
    pub fn record(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Record a batch of samples, preserving their order (the sharded
    /// engine's merge step).
    pub fn record_many(&mut self, values: &[f64]) {
        self.values.extend_from_slice(values);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// Mean of the samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Maximum sample (0 if empty).
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) using nearest-rank on sorted samples.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q));
        if self.values.is_empty() {
            return 0.0;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx]
    }

    /// Median (50th percentile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// The simulation-wide monitor.
#[derive(Debug, Clone, Default)]
pub struct FlowMonitor {
    /// End-to-end one-way delays of delivered packets, in seconds.
    pub delays: SampleStats,
    /// Per-packet total queueing delay, in seconds.
    pub queue_delays: SampleStats,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets dropped.
    pub dropped: u64,
    /// Summed one-way delay of delivered packets, per flow (seconds).
    pub flow_delay_sum: Vec<f64>,
    /// Packets delivered, per flow.
    pub flow_delivered: Vec<u64>,
    /// Packets dropped, per flow.
    pub flow_dropped: Vec<u64>,
}

impl FlowMonitor {
    /// A monitor tracking `num_flows` flows.
    pub fn new(num_flows: usize) -> Self {
        Self {
            flow_delay_sum: vec![0.0; num_flows],
            flow_delivered: vec![0; num_flows],
            flow_dropped: vec![0; num_flows],
            ..Self::default()
        }
    }

    /// Record a delivered packet of flow `flow`.
    pub fn record_delivery(&mut self, flow: usize, delay_s: f64, queue_delay_s: f64) {
        self.delays.record(delay_s);
        self.queue_delays.record(queue_delay_s);
        self.delivered += 1;
        self.flow_delay_sum[flow] += delay_s;
        self.flow_delivered[flow] += 1;
    }

    /// Record a dropped packet of flow `flow`.
    pub fn record_drop(&mut self, flow: usize) {
        self.dropped += 1;
        self.flow_dropped[flow] += 1;
    }

    /// Fold one flow's pre-aggregated tallies into the monitor — the sharded
    /// engine's merge step (each flow lives in exactly one component, so the
    /// sums arrive whole). Keeps the per-flow/total bookkeeping invariants in
    /// one place with [`Self::record_delivery`] / [`Self::record_drop`].
    pub fn absorb_flow(&mut self, flow: usize, delay_sum_s: f64, delivered: u64, dropped: u64) {
        self.flow_delay_sum[flow] += delay_sum_s;
        self.flow_delivered[flow] += delivered;
        self.flow_dropped[flow] += dropped;
        self.delivered += delivered;
        self.dropped += dropped;
    }

    /// Loss rate over all offered packets.
    pub fn loss_rate(&self) -> f64 {
        let total = self.delivered + self.dropped;
        if total == 0 {
            0.0
        } else {
            self.dropped as f64 / total as f64
        }
    }

    /// Summarise into a report.
    pub fn report(&self, link_utilizations: Vec<f64>) -> SimReport {
        let flow_mean_delay_ms = self
            .flow_delay_sum
            .iter()
            .zip(&self.flow_delivered)
            .map(|(&sum, &n)| if n > 0 { sum / n as f64 * 1e3 } else { 0.0 })
            .collect();
        SimReport {
            mean_delay_ms: self.delays.mean() * 1e3,
            p95_delay_ms: self.delays.quantile(0.95) * 1e3,
            mean_queue_delay_ms: self.queue_delays.mean() * 1e3,
            loss_rate: self.loss_rate(),
            delivered: self.delivered,
            dropped: self.dropped,
            flow_mean_delay_ms,
            flow_delivered: self.flow_delivered.clone(),
            flow_dropped: self.flow_dropped.clone(),
            mean_link_utilization: if link_utilizations.is_empty() {
                0.0
            } else {
                link_utilizations.iter().sum::<f64>() / link_utilizations.len() as f64
            },
            max_link_utilization: link_utilizations.iter().copied().fold(0.0, f64::max),
            link_utilizations,
            background: None,
            per_class: None,
        }
    }
}

/// Aggregate statistics of the background traffic class in a hybrid run —
/// what the fluid model produced instead of per-packet samples. Foreground
/// statistics stay exact and per-flow in the rest of [`SimReport`]; the
/// background class only matters in aggregate (its throughput, and the queue
/// it induced), so that is all the fluid model reports.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BackgroundStats {
    /// Background flows modelled as fluid.
    pub flows: usize,
    /// Bits offered by background flows over the simulated duration.
    pub offered_bits: f64,
    /// Bits delivered to background destinations (fluid integral).
    pub delivered_bits: f64,
    /// Bits dropped at capped buffers (fluid integral).
    pub dropped_bits: f64,
    /// Aggregate delivered background throughput, bits/s.
    pub mean_throughput_bps: f64,
    /// Time-averaged total fluid backlog across links, bytes.
    pub mean_backlog_bytes: f64,
    /// Peak total fluid backlog across links, bytes.
    pub peak_backlog_bytes: f64,
    /// Rate-change events the fluid solver processed.
    pub rate_events: u64,
    /// Packet events a pure packet run of the background class would have
    /// processed (one per hop plus delivery, per packet) — the work the
    /// fluid model avoided.
    pub packet_equivalent_events: f64,
    /// `true` when the fluid solver's safety valve stopped the trajectory
    /// early (rate-event cap hit, or a non-finite breakpoint) — every
    /// statistic above then under-counts the tail of the run. Previously
    /// the valve fired silently; the hybrid parity suite asserts this stays
    /// unset on well-formed inputs.
    pub truncated: bool,
    /// Simulated seconds the valve cut off: `duration − t_stop`, clamped at
    /// 0 (0 when not truncated, or when the valve fired during the
    /// post-duration drain of residual backlog).
    pub truncated_horizon_s: f64,
}

/// Packet-level statistics of one traffic class
/// ([`crate::routing::TrafficClass`]) — the per-class view of a classified
/// run that the queue disciplines ([`crate::network::QueueDiscipline`]) and
/// the economics loop read. Delay statistics cover the class's *delivered*
/// packets; background entries are all zero in hybrid runs, where the
/// background class is fluid (see [`BackgroundStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ClassReport {
    /// Packets delivered.
    pub delivered: u64,
    /// Packets dropped.
    pub dropped: u64,
    /// Mean one-way delay, milliseconds.
    pub mean_delay_ms: f64,
    /// 99th-percentile one-way delay, milliseconds.
    pub p99_delay_ms: f64,
    /// Mean total queueing delay per packet, milliseconds.
    pub mean_queue_delay_ms: f64,
    /// 99th-percentile total queueing delay per packet, milliseconds.
    pub p99_queue_delay_ms: f64,
}

impl ClassReport {
    /// Summarise one class's delivery samples plus its delivered/dropped
    /// tallies. Sample vectors arrive in canonical (pop-order) sequence, so
    /// the derived statistics are bit-identical across worker counts.
    pub fn from_samples(
        delays: &SampleStats,
        queue_delays: &SampleStats,
        delivered: u64,
        dropped: u64,
    ) -> Self {
        Self {
            delivered,
            dropped,
            mean_delay_ms: delays.mean() * 1e3,
            p99_delay_ms: delays.quantile(0.99) * 1e3,
            mean_queue_delay_ms: queue_delays.mean() * 1e3,
            p99_queue_delay_ms: queue_delays.quantile(0.99) * 1e3,
        }
    }
}

/// The per-class breakdown of a classified run ([`SimReport::per_class`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PerClassReport {
    /// The latency-sensitive foreground class.
    pub foreground: ClassReport,
    /// The bulk background class (packet-simulated; zero under the hybrid
    /// engine, whose background statistics live in [`SimReport::background`]).
    pub background: ClassReport,
}

/// Summary of a simulation run — the numbers the paper's Figs. 5, 6 and 11
/// plot, plus per-flow delay means for the application models.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Mean one-way packet delay in milliseconds.
    pub mean_delay_ms: f64,
    /// 95th-percentile one-way delay in milliseconds.
    pub p95_delay_ms: f64,
    /// Mean total queueing delay per packet in milliseconds.
    pub mean_queue_delay_ms: f64,
    /// Fraction of offered packets lost.
    pub loss_rate: f64,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets dropped.
    pub dropped: u64,
    /// Mean one-way delay per flow, milliseconds (0 for flows that delivered
    /// nothing).
    pub flow_mean_delay_ms: Vec<f64>,
    /// Packets delivered per flow.
    pub flow_delivered: Vec<u64>,
    /// Packets dropped per flow.
    pub flow_dropped: Vec<u64>,
    /// Mean utilisation across links.
    pub mean_link_utilization: f64,
    /// Maximum utilisation across links.
    pub max_link_utilization: f64,
    /// Per-link utilisation.
    pub link_utilizations: Vec<f64>,
    /// Aggregate background-class statistics — `Some` only when a hybrid run
    /// actually modelled background flows as fluid, so reports from
    /// all-foreground runs stay exactly equal to pure packet reports.
    pub background: Option<BackgroundStats>,
    /// Per-class packet statistics — `Some` only when the demand set carries
    /// background-tagged demands, so unclassified runs keep their historical
    /// reports unchanged field for field.
    pub per_class: Option<PerClassReport>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_stats_basics() {
        let mut s = SampleStats::default();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.median(), 0.0);
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            s.record(v);
        }
        assert_eq!(s.count(), 5);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.max(), 5.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 5.0);
    }

    #[test]
    fn quantile_is_order_insensitive() {
        let mut a = SampleStats::default();
        let mut b = SampleStats::default();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            a.record(v);
        }
        b.record_many(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(a.quantile(0.95), b.quantile(0.95));
    }

    #[test]
    fn loss_rate_and_report() {
        let mut m = FlowMonitor::new(2);
        for i in 0..90 {
            m.record_delivery(i % 2, 0.010 + i as f64 * 1e-5, 1e-4);
        }
        for _ in 0..10 {
            m.record_drop(1);
        }
        assert!((m.loss_rate() - 0.1).abs() < 1e-12);
        let report = m.report(vec![0.5, 0.7]);
        assert_eq!(report.delivered, 90);
        assert_eq!(report.dropped, 10);
        assert!(report.mean_delay_ms > 10.0 && report.mean_delay_ms < 11.0);
        assert!((report.mean_link_utilization - 0.6).abs() < 1e-12);
        assert!((report.max_link_utilization - 0.7).abs() < 1e-12);
        // Per-flow accounting: 45 packets each, drops all on flow 1.
        assert_eq!(report.flow_delivered, vec![45, 45]);
        assert_eq!(report.flow_dropped, vec![0, 10]);
        assert!(report.flow_mean_delay_ms[0] > 10.0);
    }

    #[test]
    fn empty_monitor_reports_zeroes() {
        let m = FlowMonitor::new(1);
        assert_eq!(m.loss_rate(), 0.0);
        let r = m.report(Vec::new());
        assert_eq!(r.mean_delay_ms, 0.0);
        assert_eq!(r.max_link_utilization, 0.0);
        assert_eq!(r.flow_mean_delay_ms, vec![0.0]);
    }

    #[test]
    #[should_panic]
    fn quantile_rejects_out_of_range() {
        SampleStats::default().quantile(1.5);
    }
}
