//! The event-driven UDP simulation engine.
//!
//! Packets are source-routed: each flow's route (a sequence of link ids) is
//! computed up front by [`crate::routing`] into a flat [`PathStore`]-backed
//! table, and the engine replays every packet's journey hop by hop through
//! the FIFO link model of [`crate::network`]. Events are plain `Copy`
//! structs ordered by `(time, flow, hop)` directly in the binary-heap event
//! queue ([`crate::queue`]) — no per-event allocation, no indirection.
//!
//! # Sharded execution
//!
//! Two flows can only interact by queueing at a shared link, so the demand
//! set decomposes into *components* — groups of flows connected through
//! shared links — that are completely independent simulations. The engine
//! partitions them (union-find over each route's links), and persistent
//! worker threads ([`SimConfig::workers`]) drain the components from a
//! shared queue, each worker owning private [`LinkStates`] arrays over the
//! shared link table. This wins when the demand set splits into many
//! components; a single heavy component runs serially on one worker.
//!
//! Per-component results are merged in component order, so the produced
//! [`SimReport`] is **bit-identical for every worker count** — `workers: 1`
//! is the pinned serial reference, `workers: 0` picks the machine's
//! parallelism. This is the same persistent-worker pattern as the design
//! engine's `ShardPool`: threads are spawned once per run and handed
//! stable state, not re-fanned per event batch.
//!
//! # Hybrid execution
//!
//! With [`SimConfig::background`] set to [`BackgroundModel::Fluid`], demands
//! tagged [`TrafficClass::Background`] leave the packet engine entirely:
//! they are solved once, up front, by the flow-level fluid model of
//! [`crate::fluid`], and the packet engine simulates only the foreground
//! flows — each packet waiting behind the fluid backlog occupying its link
//! at arrival time. Because the fluid solution is computed immutably before
//! dispatch, the hybrid report is still bit-identical across every worker
//! count.
//!
//! Two further event-count levers ride on the hot loop itself:
//! hop-collapsing ([`SimConfig::hop_collapse`]) delivers a packet across
//! consecutive idle hops — long conduit paths especially — in one event by
//! processing a freshly produced event inline whenever it provably would be
//! the very next pop, which elides the queue round trip without changing
//! the event order (bit-identical by construction); and sole-feeder chain
//! draining: after a link's pipeline head pops, its remaining in-transit
//! departures are advanced inline — front to back, without touching the
//! global queue — for as long as each front provably is the next arrival
//! at its sole-fed downstream link (all transit into that link comes off
//! this one, and no pending emission enters it earlier). Per-link state
//! depends only on per-link arrival order, so both levers are exact.
//!
//! [`PathStore`]: cisp_graph::PathStore
//! [`TrafficClass::Background`]: crate::routing::TrafficClass::Background

use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::thread;

use serde::{Deserialize, Serialize};

use crate::flows::{ArrivalProcess, EmissionSchedule, FlowSpec};
use crate::fluid::{self, BackgroundModel, FluidOutcome};
use crate::monitor::{ClassReport, FlowMonitor, PerClassReport, SampleStats, SimReport};
use crate::network::{DirtyLinks, LinkState, LinkStates, Network, QueueDiscipline, Transmit};
use crate::queue::{Event, EventQueue, QueueStats};
use crate::routing::{compute_routes, Demand, RoutingScheme, RoutingTable};

/// Configuration of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Simulated duration in seconds (paper: 1 s).
    pub duration_s: f64,
    /// Packet size in bytes (paper: 500 B).
    pub packet_bytes: f64,
    /// Packet arrival process.
    pub arrivals: ArrivalProcess,
    /// Routing scheme.
    pub routing: RoutingScheme,
    /// RNG seed for arrival processes.
    pub seed: u64,
    /// Worker threads for sharded execution: 0 = the machine's available
    /// parallelism, 1 = serial. Results are bit-identical for every value.
    pub workers: usize,
    /// How background-class demands execute: packet-level like everything
    /// else (the default), or as flow-level fluid queues that foreground
    /// packets ride on (the hybrid engine, [`crate::fluid`]). Composes with
    /// every worker count; with no background demands the report is
    /// bit-identical either way.
    pub background: BackgroundModel,
    /// Deliver packets across consecutive idle hops in one event by
    /// processing a freshly produced event inline when it provably would be
    /// the very next pop. Bit-identical to the uncollapsed path by
    /// construction; `false` only exists so tests can assert that.
    pub hop_collapse: bool,
    /// Per-link queue discipline between the traffic classes
    /// ([`crate::network::QueueDiscipline`]). `Fifo` (the default) is the
    /// historical single-virtual-clock model and reproduces pre-discipline
    /// reports bit-identically; `StrictPriority` and `WeightedFair` change
    /// how foreground packets share each link with background service —
    /// including the fluid backlog in hybrid runs. On a demand set with no
    /// background class every discipline degrades to `Fifo` exactly.
    pub discipline: QueueDiscipline,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            duration_s: 1.0,
            packet_bytes: 500.0,
            arrivals: ArrivalProcess::ConstantBitRate,
            routing: RoutingScheme::ShortestPath,
            seed: 1,
            workers: 0,
            background: BackgroundModel::Packet,
            hop_collapse: true,
            discipline: QueueDiscipline::Fifo,
        }
    }
}

/// Per-flow tallies of one component run, aligned with the component's flow
/// list.
#[derive(Debug, Clone, Copy, Default)]
struct FlowStat {
    delay_sum: f64,
    delivered: u64,
    dropped: u64,
}

/// Per-class delivery samples of one component, split out of the merged
/// delivery stream *during* the canonical-order merge — so each class's
/// sample vector is the classwise subsequence of the global pop order and
/// per-class statistics inherit the bit-identity contract. Collected only
/// for classified demand sets (`EngineContext::classify`).
#[derive(Default)]
struct ClassSamples {
    fg_delays: Vec<f64>,
    fg_queue_delays: Vec<f64>,
    bg_delays: Vec<f64>,
    bg_queue_delays: Vec<f64>,
}

impl ClassSamples {
    #[inline]
    fn record(&mut self, demands: &[Demand], e: &Event) {
        let (delays, queue_delays) = if demands[e.flow as usize].is_background() {
            (&mut self.bg_delays, &mut self.bg_queue_delays)
        } else {
            (&mut self.fg_delays, &mut self.fg_queue_delays)
        };
        delays.push(e.time - e.sent_at);
        queue_delays.push(e.queue_delay);
    }
}

/// Everything one component's simulation produced, merged (in component
/// order) into the global monitor and network state after all components
/// finish. Every component yields exactly one outcome: zero-flow demand
/// sets produce zero components, never empty components.
struct ComponentOutcome {
    delays: Vec<f64>,
    queue_delays: Vec<f64>,
    flow_stats: Vec<FlowStat>,
    links: Vec<(u32, LinkState)>,
    /// Per-class delivery samples (`Some` iff the run is classified).
    class_samples: Option<ClassSamples>,
}

/// A worker's reusable scratch: private link-state arrays over the shared
/// link table, the event queue, the dirty-link tracker used to harvest and
/// recycle only the links the worker actually touched, and the per-link
/// in-transit pipelines backing the staged queue.
///
/// Staging invariant: arrivals coming off one link are strictly ordered in
/// time (FIFO finish times plus a constant propagation), so the queue holds
/// at most the *earliest* in-transit event per link — the pipeline's head —
/// and the rest wait in that link's `transit` queue. Every pending event is
/// `>=` its pipeline head, so the queue minimum is still the global minimum
/// and the pop sequence is exactly the unstaged one; the queue just stays
/// at O(links + flows) instead of O(packets in flight).
///
/// When a head pops, the chain drain (`Simulation::drain_chain`) advances
/// the pipeline: qualifying fronts are processed inline, and the first
/// non-qualifying front becomes the new head in the queue. While the drain
/// is in flight, `head_in_heap` for the drained link is *stale-true* — the
/// pipeline's events are outside the queue — which is exactly what makes
/// `stage` keep appending behind them; the drain re-establishes the
/// invariant before the next pop.
struct WorkerState {
    states: LinkStates,
    dirty: DirtyLinks,
    queue: EventQueue,
    transit: Vec<VecDeque<Event>>,
    head_in_heap: Vec<bool>,
    /// Earliest pending emission entering each link (`+∞` when no flow
    /// starting at the link has a packet left). This is the transit-feeder
    /// chain's emission guard: a packet may cross a link inline only if it
    /// arrives strictly before every pending emission injected there.
    /// Component-local; reset to `+∞` after each component.
    emission_at: Vec<f64>,
    /// Flow index → position in the current component's flow list, filled
    /// in each component's prologue. Replaces a `binary_search` over the
    /// component's flows on every delivery, drop, and emission refill.
    /// Entries for flows outside the current component are stale, but a
    /// component only ever looks up its own flows.
    flow_pos: Vec<u32>,
    /// Per-final-link delivery streams (serial engine). A link's finish
    /// times strictly increase, so recording each delivery into its final
    /// link's stream keeps every stream sorted by `(time, flow)`; stream 0
    /// collects zero-hop deliveries (recorded in pop order, likewise
    /// sorted). The component epilogue k-way merges the streams instead of
    /// sorting one flat vector. The pool is recycled across components.
    streams: Vec<Vec<Event>>,
    /// How many entries of `streams` the current component uses (≥ 1).
    active_streams: usize,
    /// Link index → its stream in `streams`, `u32::MAX` when unassigned.
    /// Lazily assigned at a link's first delivery; component-local.
    stream_of: Vec<u32>,
    /// Links assigned a stream this component, for `stream_of` reset.
    stream_links: Vec<u32>,
}

impl WorkerState {
    fn new(num_links: usize) -> Self {
        Self {
            states: LinkStates::new(num_links),
            dirty: DirtyLinks::new(num_links),
            queue: EventQueue::new(),
            transit: vec![VecDeque::new(); num_links],
            head_in_heap: vec![false; num_links],
            emission_at: vec![f64::INFINITY; num_links],
            flow_pos: Vec::new(),
            streams: vec![Vec::new()],
            active_streams: 1,
            stream_of: vec![u32::MAX; num_links],
            stream_links: Vec::new(),
        }
    }

    /// The delivery stream for `link`, assigning one on first use.
    #[inline]
    fn stream_for(&mut self, link: usize) -> &mut Vec<Event> {
        let mut sid = self.stream_of[link] as usize;
        if sid == u32::MAX as usize {
            sid = self.active_streams;
            self.stream_of[link] = sid as u32;
            self.stream_links.push(link as u32);
            self.active_streams += 1;
            if self.streams.len() == sid {
                self.streams.push(Vec::new());
            }
        }
        &mut self.streams[sid]
    }

    /// Enqueue an event produced by a transmit on `link`: into the queue if
    /// it is the pipeline's head, behind the head otherwise.
    #[inline]
    fn stage(&mut self, link: usize, next: Event) {
        if self.head_in_heap[link] {
            self.transit[link].push_back(next);
        } else {
            self.head_in_heap[link] = true;
            self.queue.push(next);
        }
    }
}

/// No route crosses into this link from another link.
const FEEDER_NONE: u32 = u32::MAX;
/// Packets cross into this link from several predecessors, so its arrival
/// order needs the event heap.
const FEEDER_MANY: u32 = u32::MAX - 1;

/// For every link, the *only* link packets can cross in from — or a
/// sentinel. Emissions injected at a route's first hop are tracked
/// separately (see `WorkerState::emission_at`), so a route starting at a
/// link does not disqualify it here.
///
/// Consecutive conduit segments typically qualify: all transit into the
/// downstream segment comes off the upstream one. When
/// `transit_feeder[m] == l`, link `m`'s transit arrivals are exactly link
/// `l`'s departures toward it (a subsequence of `l`'s strictly increasing
/// finish times), which licenses the hop-collapsing chain: a packet coming
/// off `l` may cross `m` inline — without waiting for its turn in the event
/// heap — provided no earlier departure of `l` is still pending and no
/// pending emission enters `m` first, because per-link state depends only
/// on per-link arrival order.
fn transit_feeders(routes: &RoutingTable, num_links: usize) -> Vec<u32> {
    let mut feeder = vec![FEEDER_NONE; num_links];
    for k in 0..routes.len() {
        let route = routes.route(k);
        for pair in route.windows(2) {
            let (prev, l) = (pair[0], pair[1] as usize);
            if feeder[l] == FEEDER_NONE {
                feeder[l] = prev;
            } else if feeder[l] != prev {
                feeder[l] = FEEDER_MANY;
            }
        }
    }
    feeder
}

/// The earliest pending emission in one first-link starter group — a
/// contiguous run of the sorted `starters` list (see [`starter_groups`]).
/// `pending` holds each flow's next emission time (`+∞` = exhausted).
#[inline]
fn emission_min(group: &[(u32, u32)], pending: &[f64]) -> f64 {
    let mut min = f64::INFINITY;
    for &(_, pos) in group {
        min = min.min(pending[pos as usize]);
    }
    min
}

/// For each flow position, the `[lo, hi)` run of `starters` (sorted by
/// first link) that shares the flow's first link. Precomputed once per
/// component so the per-emission guard update scans its own group directly
/// instead of binary-searching `starters` on every hop-0 pop. Flows
/// without a starter entry keep the empty `(0, 0)` range.
fn starter_groups(starters: &[(u32, u32)], num_flows: usize) -> Vec<(u32, u32)> {
    let mut group = vec![(0u32, 0u32); num_flows];
    let mut i = 0;
    while i < starters.len() {
        let l = starters[i].0;
        let mut j = i + 1;
        while j < starters.len() && starters[j].0 == l {
            j += 1;
        }
        for k in i..j {
            group[starters[k].1 as usize] = (i as u32, j as u32);
        }
        i = j;
    }
    group
}

/// The immutable inputs every engine entry point reads: the network and
/// routed demand set, the run configuration, the fluid solution foreground
/// packets ride on (hybrid runs, `None` under pure packet execution), and
/// the per-link sole-transit-feeder table ([`transit_feeders`]) backing the
/// collapsing chain.
#[derive(Clone, Copy)]
struct EngineContext<'a> {
    network: &'a Network,
    routes: &'a RoutingTable,
    demands: &'a [Demand],
    config: &'a SimConfig,
    fluid: Option<&'a FluidOutcome>,
    feeders: &'a [u32],
    /// Any demand is background-tagged: collect per-class delivery samples
    /// and publish [`SimReport::per_class`]. Computed once per run so
    /// unclassified runs pay nothing.
    classify: bool,
}

/// A complete simulation: network, demands, routes and configuration.
pub struct Simulation {
    network: Network,
    demands: Vec<Demand>,
    routes: RoutingTable,
    config: SimConfig,
    last_queue_stats: QueueStats,
}

impl Simulation {
    /// Build a simulation: routes are computed for the demands under the
    /// configured scheme.
    pub fn new(network: Network, demands: Vec<Demand>, config: SimConfig) -> Self {
        let routes = compute_routes(&network, &demands, config.routing);
        Self::with_routes(network, demands, routes, config)
    }

    /// Build a simulation over externally computed routes (e.g. routes that
    /// avoid failed links, from
    /// [`crate::routing::compute_routes_avoiding`]).
    pub fn with_routes(
        network: Network,
        demands: Vec<Demand>,
        routes: RoutingTable,
        config: SimConfig,
    ) -> Self {
        assert_eq!(routes.len(), demands.len(), "one route per demand");
        Self {
            network,
            demands,
            routes,
            config,
            last_queue_stats: QueueStats::default(),
        }
    }

    /// Event-queue occupancy statistics aggregated across every worker of
    /// the most recent [`run`](Self::run) (all zeroes before the first
    /// run). Deliberately *not* part of the [`SimReport`]: they measure how
    /// the engine did its work (hop collapsing changes them), not the
    /// model's result.
    pub fn queue_stats(&self) -> QueueStats {
        self.last_queue_stats
    }

    /// The computed routing table.
    pub fn routes(&self) -> &RoutingTable {
        &self.routes
    }

    /// The network (lets callers inspect link state after a run).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The demand set.
    pub fn demands(&self) -> &[Demand] {
        &self.demands
    }

    /// Number of link-disjoint components the active flows decompose into —
    /// the component engine's parallelism grain.
    pub fn num_components(&self) -> usize {
        self.partition_flows().len()
    }

    /// Mean propagation-only latency across demands, weighted by demand rate.
    /// This is the zero-load baseline the queueing delays add to.
    pub fn weighted_propagation_ms(&self) -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for (k, d) in self.demands.iter().enumerate() {
            if !self.routes.route(k).is_empty() {
                num += d.amount_bps * self.routes.route_latency_s(&self.network, k);
                den += d.amount_bps;
            }
        }
        if den > 0.0 {
            num / den * 1e3
        } else {
            0.0
        }
    }

    /// Group the active flows (non-empty route, positive rate) into
    /// link-disjoint components via union-find over each route's links.
    /// Component order follows the first demand of each component, so the
    /// decomposition is deterministic. Under the hybrid engine
    /// ([`BackgroundModel::Fluid`]) background demands belong to the fluid
    /// solver, not the packet engine, so they are excluded here — an
    /// all-background demand set packet-simulates zero components.
    fn partition_flows(&self) -> Vec<Vec<u32>> {
        let fluid_active = self.config.background == BackgroundModel::Fluid;
        let skip = |d: &Demand| d.amount_bps <= 0.0 || (fluid_active && d.is_background());
        let num_links = self.network.num_links();
        let mut parent: Vec<u32> = (0..num_links as u32).collect();
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                // Path halving.
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        for (k, d) in self.demands.iter().enumerate() {
            if skip(d) {
                continue;
            }
            let route = self.routes.route(k);
            if route.is_empty() {
                continue;
            }
            let root = find(&mut parent, route[0]);
            for &l in &route[1..] {
                let r = find(&mut parent, l);
                parent[r as usize] = root;
            }
        }
        let mut comp_of_root: Vec<usize> = vec![usize::MAX; num_links];
        let mut comps: Vec<Vec<u32>> = Vec::new();
        for (k, d) in self.demands.iter().enumerate() {
            if skip(d) || self.routes.route(k).is_empty() {
                continue;
            }
            let root = find(&mut parent, self.routes.route(k)[0]) as usize;
            let idx = if comp_of_root[root] == usize::MAX {
                comp_of_root[root] = comps.len();
                comps.push(Vec::new());
                comps.len() - 1
            } else {
                comp_of_root[root]
            };
            comps[idx].push(k as u32);
        }
        comps
    }

    /// Start `flow`'s lazy emission schedule: push its first emission into
    /// the worker's queue and return the schedule that produces the rest,
    /// plus the pushed emission time (`+∞` if the flow emits nothing).
    /// The queue holds one pending emission per flow; each popped emission
    /// schedules its successor (strictly later, so it is pushed before it
    /// could ever pop). The event *set* is exactly the eagerly-scheduled
    /// one, and the strict `(time, flow, hop)` event order makes the pop
    /// sequence a function of the set alone — bit-identical runs on a queue
    /// of O(flows + packets in flight) instead of O(total packets).
    fn schedule_flow(
        demands: &[Demand],
        config: &SimConfig,
        w: &mut WorkerState,
        flow_index: u32,
    ) -> (EmissionSchedule, f64) {
        let demand = demands[flow_index as usize];
        let flow = FlowSpec {
            src: demand.src,
            dst: demand.dst,
            rate_bps: demand.amount_bps,
            packet_bytes: config.packet_bytes,
        };
        let mut schedule =
            EmissionSchedule::new(&flow, flow_index as usize, config.arrivals, config.seed);
        let mut pending = f64::INFINITY;
        if let Some(t) = schedule.next_emission(config.duration_s) {
            pending = t;
            w.queue.push(Event {
                time: t,
                flow: flow_index,
                hop: 0,
                sent_at: t,
                queue_delay: 0.0,
            });
        }
        (schedule, pending)
    }

    /// Refill one flow's emission after its current emission event popped:
    /// emissions are generated lazily, one outstanding per flow. Returns
    /// the new pending emission time (`+∞` once the flow is exhausted).
    #[inline]
    fn refill_emission(
        schedule: &mut EmissionSchedule,
        config: &SimConfig,
        w: &mut WorkerState,
        flow_index: u32,
    ) -> f64 {
        if let Some(t) = schedule.next_emission(config.duration_s) {
            w.queue.push(Event {
                time: t,
                flow: flow_index,
                hop: 0,
                sent_at: t,
                queue_delay: 0.0,
            });
            t
        } else {
            f64::INFINITY
        }
    }

    /// Simulate one component's flows against the worker's private link
    /// state. All scoring of time and tie-breaks happens inside the
    /// component, so the outcome does not depend on which worker runs it.
    fn run_component(
        ctx: &EngineContext<'_>,
        w: &mut WorkerState,
        flows: &[u32],
    ) -> ComponentOutcome {
        let EngineContext {
            routes,
            demands,
            config,
            ..
        } = *ctx;
        // Track the links this component dirties (for extraction + reset).
        for &f in flows {
            for &l in routes.route(f as usize) {
                w.dirty.mark(l as usize);
            }
        }

        // Seed each flow's first emission; the rest are generated lazily.
        // `starters`/`pending` back the chain's emission guard: for every
        // link, the earliest emission still to enter it (`w.emission_at`).
        w.queue.clear();
        if w.flow_pos.len() < demands.len() {
            w.flow_pos.resize(demands.len(), 0);
        }
        let mut schedules: Vec<EmissionSchedule> = Vec::with_capacity(flows.len());
        let mut pending: Vec<f64> = Vec::with_capacity(flows.len());
        let mut starters: Vec<(u32, u32)> = Vec::with_capacity(flows.len());
        for (pos, &f) in flows.iter().enumerate() {
            w.flow_pos[f as usize] = pos as u32;
            let (schedule, t) = Self::schedule_flow(demands, config, w, f);
            schedules.push(schedule);
            pending.push(t);
            if let Some(&first) = routes.route(f as usize).first() {
                starters.push((first, pos as u32));
                let e = &mut w.emission_at[first as usize];
                *e = e.min(t);
            }
        }
        starters.sort_unstable();
        let groups = starter_groups(&starters, flows.len());

        // Process events in timestamp order. Deliveries never touch link
        // state, so they skip the heap entirely: the final transmit records
        // each one into its final link's stream (every stream is sorted by
        // construction — a link's finish times strictly increase) and the
        // k-way merge below restores the serial pop order — `(time, flow)`
        // is unique across deliveries (a flow delivers over one link), so
        // the merged sequence *is* the heap's `(time, flow, hop)` order.
        let expected: f64 = flows
            .iter()
            .map(|&f| demands[f as usize].amount_bps * config.duration_s)
            .sum::<f64>()
            / (config.packet_bytes * 8.0);
        let mut flow_stats = vec![FlowStat::default(); flows.len()];
        while let Some(popped) = w.queue.pop() {
            // A hop ≥ 1 pop is a pipeline head leaving the queue: its
            // crossed link's remaining departures stay outside the queue
            // while the event (and the chain drain below) processes, so the
            // collapse guards treat that pipeline as part of the frontier
            // (`drain_src`).
            let drain_src = if popped.hop == 0 {
                let pos = w.flow_pos[popped.flow as usize] as usize;
                pending[pos] = Self::refill_emission(&mut schedules[pos], config, w, popped.flow);
                // The emission guard is only ever *read* for links fed by a
                // sole transit feeder, so skip its upkeep everywhere else
                // (on a pure mesh this is every emission).
                if let Some(&first) = routes.route(popped.flow as usize).first() {
                    if ctx.feeders[first as usize] < FEEDER_MANY {
                        let (lo, hi) = groups[pos];
                        w.emission_at[first as usize] =
                            emission_min(&starters[lo as usize..hi as usize], &pending);
                    }
                }
                usize::MAX
            } else {
                routes.route(popped.flow as usize)[popped.hop as usize - 1] as usize
            };
            Self::process_event(ctx, w, &mut flow_stats, popped, drain_src);
            if drain_src != usize::MAX {
                Self::drain_chain(ctx, w, &mut flow_stats, drain_src);
            }
        }

        // Restore the serial pop order by merging the per-link streams.
        let mut delays = Vec::with_capacity(expected as usize + flows.len());
        let mut queue_delays = Vec::with_capacity(expected as usize + flows.len());
        let mut class_samples = ctx.classify.then(ClassSamples::default);
        Self::merge_delivery_streams(
            w,
            &mut delays,
            &mut queue_delays,
            demands,
            &mut class_samples,
        );

        // Extract the dirtied link states and recycle the worker arrays
        // (the emission-guard entries too — `w` serves the next component).
        for &(first, _) in &starters {
            w.emission_at[first as usize] = f64::INFINITY;
        }
        let touched_links = w.dirty.drain_snapshots(&mut w.states);

        ComponentOutcome {
            delays,
            queue_delays,
            flow_stats,
            links: touched_links,
            class_samples,
        }
    }

    /// Merge the component's per-link delivery streams — each sorted by
    /// `(time, flow)`, keys unique across streams — into canonically
    /// ordered delay samples, then recycle the stream pool for the next
    /// component. A single live stream (every 1-hop mesh component) copies
    /// straight through; otherwise a small head-heap merges k streams in
    /// O(n log k) — cheaper than sorting the flat vector, and exactly the
    /// order that sort produced.
    fn merge_delivery_streams(
        w: &mut WorkerState,
        delays: &mut Vec<f64>,
        queue_delays: &mut Vec<f64>,
        demands: &[Demand],
        class_samples: &mut Option<ClassSamples>,
    ) {
        {
            let streams = &w.streams[..w.active_streams];
            let mut live = streams.iter().filter(|s| !s.is_empty());
            let first = live.next();
            let second = live.next();
            match (first, second) {
                (None, _) => {}
                (Some(only), None) => {
                    delays.extend(only.iter().map(|e| e.time - e.sent_at));
                    queue_delays.extend(only.iter().map(|e| e.queue_delay));
                    if let Some(cs) = class_samples.as_mut() {
                        for e in only {
                            cs.record(demands, e);
                        }
                    }
                }
                _ => {
                    // Max-heap over reversed `Event` order pops the earliest
                    // `(time, flow)` head; keys are unique across streams,
                    // so the stream-id tiebreak never decides.
                    let mut cursors = vec![0usize; streams.len()];
                    let mut heads: BinaryHeap<(Event, u32)> =
                        BinaryHeap::with_capacity(streams.len());
                    for (sid, stream) in streams.iter().enumerate() {
                        if let Some(&head) = stream.first() {
                            heads.push((head, sid as u32));
                        }
                    }
                    while let Some((e, sid)) = heads.pop() {
                        delays.push(e.time - e.sent_at);
                        queue_delays.push(e.queue_delay);
                        if let Some(cs) = class_samples.as_mut() {
                            cs.record(demands, &e);
                        }
                        let s = sid as usize;
                        cursors[s] += 1;
                        if let Some(&nxt) = streams[s].get(cursors[s]) {
                            heads.push((nxt, sid));
                        }
                    }
                }
            }
        }
        for stream in &mut w.streams[..w.active_streams] {
            stream.clear();
        }
        for &l in &w.stream_links {
            w.stream_of[l as usize] = u32::MAX;
        }
        w.stream_links.clear();
        w.active_streams = 1;
    }

    /// Advance one event through its hops against the worker's private
    /// state, inlining provably-next hops (the collapse guards), until the
    /// packet is delivered, dropped, or parked in a pipeline/queue.
    ///
    /// `drain_src` names the link whose transit pipeline is currently held
    /// *outside* the queue (the popped head's crossed link, through the
    /// chain drain that follows; `usize::MAX` otherwise). Its pending
    /// events are invisible to `queue.peek()`, so the plain collapse guard
    /// must additionally prove `next` precedes that pipeline's front —
    /// every other pipeline keeps its head in the queue, which `peek`
    /// already bounds.
    #[inline(always)]
    fn process_event(
        ctx: &EngineContext<'_>,
        w: &mut WorkerState,
        flow_stats: &mut [FlowStat],
        popped: Event,
        drain_src: usize,
    ) {
        let EngineContext {
            network,
            routes,
            demands,
            config,
            fluid,
            feeders,
            ..
        } = *ctx;
        let links = network.links();
        let hop_collapse = config.hop_collapse;
        // One event is one flow crossing hops, so its class is loop-invariant.
        let background = demands[popped.flow as usize].is_background();
        let mut ev = popped;
        loop {
            let route = routes.route(ev.flow as usize);
            if ev.hop as usize >= route.len() {
                // Zero-hop flow (src == dst): the emission itself is the
                // delivery.
                let pos = w.flow_pos[ev.flow as usize] as usize;
                flow_stats[pos].delay_sum += ev.time - ev.sent_at;
                flow_stats[pos].delivered += 1;
                w.streams[0].push(ev);
                return;
            }
            let link = route[ev.hop as usize] as usize;
            let fluid_backlog = fluid.map_or(0.0, |f| f.backlog_bytes(link, ev.time));
            match w.states.transmit_classed(
                &links[link],
                link,
                ev.time,
                config.packet_bytes,
                fluid_backlog,
                background,
                config.discipline,
            ) {
                Transmit::Delivered {
                    arrival,
                    queue_delay,
                } => {
                    let next = Event {
                        time: arrival,
                        flow: ev.flow,
                        hop: ev.hop + 1,
                        sent_at: ev.sent_at,
                        queue_delay: ev.queue_delay + queue_delay,
                    };
                    let next_hop = next.hop as usize;
                    if next_hop >= route.len() {
                        // Final hop: record the delivery now instead of
                        // round-tripping it through the queue.
                        let pos = w.flow_pos[next.flow as usize] as usize;
                        flow_stats[pos].delay_sum += next.time - next.sent_at;
                        flow_stats[pos].delivered += 1;
                        w.stream_for(link).push(next);
                        return;
                    }
                    if hop_collapse {
                        // Transit-feeder chain: all transit into the
                        // upcoming link comes off `link` alone, no
                        // earlier departure of `link` is still pending
                        // (the pipeline is empty), and this packet
                        // arrives strictly before any emission enters
                        // the link — so it is provably the link's next
                        // arrival. Cross it inline; per-link state
                        // depends only on per-link arrival order, so
                        // the report is unchanged.
                        let upcoming = route[next_hop] as usize;
                        if feeders[upcoming] == link as u32
                            && next.time < w.emission_at[upcoming]
                            && !w.head_in_heap[link]
                        {
                            ev = next;
                            continue;
                        }
                        // Hop collapse: when `next` strictly precedes the
                        // entire pending frontier — the queue, plus the
                        // drained pipeline the queue cannot see — it would
                        // be the very next pop, so process it inline; the
                        // event sequence is exactly the serial one and the
                        // queue round trip is elided. Idle multi-segment
                        // conduit paths collapse to one event per packet.
                        if w.queue.peek().is_none_or(|top| next > top)
                            && (drain_src == usize::MAX
                                || w.transit[drain_src].front().is_none_or(|f| next > *f))
                        {
                            ev = next;
                            continue;
                        }
                    }
                    w.stage(link, next);
                }
                Transmit::Dropped => {
                    let pos = w.flow_pos[ev.flow as usize] as usize;
                    flow_stats[pos].dropped += 1;
                }
            }
            return;
        }
    }

    /// After `src`'s pipeline head popped and processed, advance the
    /// sole-feeder transit chain: while the pipeline's front provably is
    /// the next arrival at its downstream link — that link's transit comes
    /// off `src` alone, the front is `src`'s earliest remaining departure
    /// (pipeline FIFO = departure-time order), and it arrives strictly
    /// before any pending emission enters the link — process it inline
    /// without a queue round trip. The first front that cannot be proven
    /// next becomes the pipeline's new head in the queue; an emptied
    /// pipeline clears `head_in_heap`. This is what lets a steady-state
    /// conduit stream (many packets in flight per segment) advance one
    /// whole pipeline per queue pop instead of one packet.
    fn drain_chain(
        ctx: &EngineContext<'_>,
        w: &mut WorkerState,
        flow_stats: &mut [FlowStat],
        src: usize,
    ) {
        loop {
            let Some(&front) = w.transit[src].front() else {
                w.head_in_heap[src] = false;
                return;
            };
            let m = ctx.routes.route(front.flow as usize)[front.hop as usize] as usize;
            if ctx.config.hop_collapse
                && ctx.feeders[m] == src as u32
                && front.time < w.emission_at[m]
            {
                w.transit[src].pop_front();
                Self::process_event(ctx, w, flow_stats, front, src);
            } else {
                w.transit[src].pop_front();
                w.queue.push(front);
                return;
            }
        }
    }

    /// Component-sharded execution: persistent workers drain the component
    /// queue (`workers <= 1` runs inline).
    fn run_components(
        ctx: &EngineContext<'_>,
        comps: &[Vec<u32>],
        workers: usize,
    ) -> (Vec<Option<ComponentOutcome>>, QueueStats) {
        let num_links = ctx.network.num_links();
        let mut outcomes: Vec<Option<ComponentOutcome>> = (0..comps.len()).map(|_| None).collect();
        let mut queue_stats = QueueStats::default();
        if workers <= 1 {
            let mut w = WorkerState::new(num_links);
            for (i, comp) in comps.iter().enumerate() {
                outcomes[i] = Some(Self::run_component(ctx, &mut w, comp));
            }
            queue_stats.merge(&w.queue.stats());
        } else {
            // Persistent workers drain the component queue; assignment order
            // is irrelevant because components are independent and merged by
            // index below.
            let next = AtomicUsize::new(0);
            let per_worker: Vec<(Vec<(usize, ComponentOutcome)>, QueueStats)> =
                thread::scope(|scope| {
                    let handles: Vec<_> = (0..workers)
                        .map(|_| {
                            let next = &next;
                            scope.spawn(move || {
                                let mut w = WorkerState::new(num_links);
                                let mut done = Vec::new();
                                loop {
                                    let i = next.fetch_add(1, AtomicOrdering::Relaxed);
                                    if i >= comps.len() {
                                        break;
                                    }
                                    done.push((i, Self::run_component(ctx, &mut w, &comps[i])));
                                }
                                (done, w.queue.stats())
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("simulation worker panicked"))
                        .collect()
                });
            for (chunk, stats) in per_worker {
                queue_stats.merge(&stats);
                for (i, outcome) in chunk {
                    outcomes[i] = Some(outcome);
                }
            }
        }
        (outcomes, queue_stats)
    }

    /// Run the simulation and produce a report.
    ///
    /// The report — including float-for-float every statistic — is identical
    /// for every [`SimConfig::workers`] value, a pure performance knob.
    pub fn run(&mut self) -> SimReport {
        self.network.reset();
        // Hybrid runs solve the background class first — once, immutably —
        // so every worker reads the same fluid backlogs and the
        // bit-identity contract extends to hybrid reports.
        let fluid_solution = if self.config.background == BackgroundModel::Fluid {
            Some(fluid::solve(
                &self.network,
                &self.routes,
                &self.demands,
                &self.config,
            ))
        } else {
            None
        };
        let fluid = fluid_solution.as_ref();
        let comps = self.partition_flows();
        let feeders = transit_feeders(&self.routes, self.network.num_links());
        let requested = if self.config.workers == 0 {
            thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            self.config.workers
        };

        let classify = crate::routing::any_background(&self.demands);
        let ctx = EngineContext {
            network: &self.network,
            routes: &self.routes,
            demands: &self.demands,
            config: &self.config,
            fluid,
            feeders: &feeders,
            classify,
        };
        let workers = requested.clamp(1, comps.len().max(1));
        let (outcomes, queue_stats) = Self::run_components(&ctx, &comps, workers);
        self.last_queue_stats = queue_stats;

        // Merge in component order — the step that fixes the statistics'
        // sample order independent of worker count. Zero-flow demand sets
        // (e.g. every demand unroutable after weather failures) produce
        // *zero components*, not components without outcomes — the loop
        // body simply never runs and the report is all zeroes (pinned by
        // `unroutable_demands_yield_an_empty_report_in_every_mode`) — so a
        // missing outcome here is an engine bug and must fail fast.
        let mut monitor = FlowMonitor::new(self.demands.len());
        // Per-class sample accumulators, concatenated in the same component
        // order as the global monitor — each class's vector stays the
        // classwise subsequence of the canonical sample order.
        let mut fg_delays = SampleStats::default();
        let mut fg_queue_delays = SampleStats::default();
        let mut bg_delays = SampleStats::default();
        let mut bg_queue_delays = SampleStats::default();
        for (comp, outcome) in comps.iter().zip(outcomes) {
            let o = outcome.expect("every simulated component produces an outcome");
            monitor.delays.record_many(&o.delays);
            monitor.queue_delays.record_many(&o.queue_delays);
            if let Some(cs) = &o.class_samples {
                fg_delays.record_many(&cs.fg_delays);
                fg_queue_delays.record_many(&cs.fg_queue_delays);
                bg_delays.record_many(&cs.bg_delays);
                bg_queue_delays.record_many(&cs.bg_queue_delays);
            }
            for (pos, &f) in comp.iter().enumerate() {
                let stat = o.flow_stats[pos];
                monitor.absorb_flow(f as usize, stat.delay_sum, stat.delivered, stat.dropped);
            }
            for (l, state) in &o.links {
                self.network.states_mut().restore(*l as usize, state);
            }
        }

        // Credit the fluid bytes each link carried before utilisations are
        // computed: background load is visible in `link_utilizations` (what
        // the weather layer's most-loaded-conduit analysis reads) exactly
        // as packet-simulated background load would be.
        if let Some(f) = fluid_solution.as_ref() {
            for &(l, bytes) in f.link_bytes() {
                self.network.states_mut().bytes_sent[l as usize] += bytes;
            }
        }

        let utilizations: Vec<f64> = (0..self.network.num_links())
            .map(|l| self.network.utilization(l, self.config.duration_s))
            .collect();
        let mut report = monitor.report(utilizations);
        if classify {
            // Delivered/dropped tallies split by the per-flow vectors and
            // the class mask. Under the hybrid engine background flows never
            // enter the packet engine, so the background entry is all zeroes
            // there — its statistics live in `report.background`.
            let (mut fg_delivered, mut fg_dropped) = (0u64, 0u64);
            let (mut bg_delivered, mut bg_dropped) = (0u64, 0u64);
            for (k, d) in self.demands.iter().enumerate() {
                if d.is_background() {
                    bg_delivered += monitor.flow_delivered[k];
                    bg_dropped += monitor.flow_dropped[k];
                } else {
                    fg_delivered += monitor.flow_delivered[k];
                    fg_dropped += monitor.flow_dropped[k];
                }
            }
            report.per_class = Some(PerClassReport {
                foreground: ClassReport::from_samples(
                    &fg_delays,
                    &fg_queue_delays,
                    fg_delivered,
                    fg_dropped,
                ),
                background: ClassReport::from_samples(
                    &bg_delays,
                    &bg_queue_delays,
                    bg_delivered,
                    bg_dropped,
                ),
            });
        }
        if let Some(f) = fluid_solution {
            if f.num_flows() > 0 {
                report.background = Some(f.stats());
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::LinkSpec;
    use crate::routing::compute_routes_avoiding;

    /// A single bottleneck link 0 → 1: 10 Mbps, 10 ms propagation.
    fn single_link_net(buffer_bytes: f64) -> Network {
        let mut net = Network::new(2);
        net.add_link(LinkSpec {
            from: 0,
            to: 1,
            rate_bps: 10e6,
            propagation_s: 0.010,
            buffer_bytes,
        });
        net
    }

    fn run_at_load(load: f64, buffer: f64, arrivals: ArrivalProcess) -> SimReport {
        let net = single_link_net(buffer);
        let demands = vec![Demand::new(0, 1, 10e6 * load)];
        let mut sim = Simulation::new(
            net,
            demands,
            SimConfig {
                duration_s: 2.0,
                arrivals,
                ..SimConfig::default()
            },
        );
        sim.run()
    }

    #[test]
    fn light_load_delay_is_propagation_plus_serialization() {
        let report = run_at_load(0.2, 1e6, ArrivalProcess::ConstantBitRate);
        // 10 ms propagation + 0.4 ms serialisation of 500 B at 10 Mbps.
        assert!(
            (report.mean_delay_ms - 10.4).abs() < 0.05,
            "{}",
            report.mean_delay_ms
        );
        assert_eq!(report.loss_rate, 0.0);
        assert!((report.mean_link_utilization - 0.2).abs() < 0.02);
        // The sole flow's mean delay is the global mean.
        assert!((report.flow_mean_delay_ms[0] - report.mean_delay_ms).abs() < 1e-9);
    }

    #[test]
    fn overload_causes_loss_with_finite_buffer() {
        let report = run_at_load(1.5, 20_000.0, ArrivalProcess::ConstantBitRate);
        assert!(report.loss_rate > 0.2, "loss {}", report.loss_rate);
        // Link saturates.
        assert!(report.max_link_utilization > 0.95);
        assert_eq!(report.flow_dropped[0], report.dropped);
    }

    #[test]
    fn poisson_at_moderate_load_has_small_queueing() {
        let report = run_at_load(0.5, 1e9, ArrivalProcess::Poisson);
        // M/D/1 mean wait at ρ=0.5 is ρ·S/(2(1−ρ)) = 0.5·0.4ms/1 = 0.2 ms.
        assert!(report.mean_queue_delay_ms > 0.05);
        assert!(
            report.mean_queue_delay_ms < 0.6,
            "{}",
            report.mean_queue_delay_ms
        );
        assert_eq!(report.loss_rate, 0.0);
    }

    #[test]
    fn queueing_grows_with_load() {
        let low = run_at_load(0.3, 1e9, ArrivalProcess::Poisson);
        let high = run_at_load(0.9, 1e9, ArrivalProcess::Poisson);
        assert!(high.mean_queue_delay_ms > low.mean_queue_delay_ms);
    }

    #[test]
    fn multihop_delays_add_up() {
        // 0 → 1 → 2, each hop 5 ms.
        let mut net = Network::new(3);
        for (a, b) in [(0, 1), (1, 2)] {
            net.add_link(LinkSpec {
                from: a,
                to: b,
                rate_bps: 1e9,
                propagation_s: 0.005,
                buffer_bytes: 1e9,
            });
        }
        let demands = vec![Demand::new(0, 2, 1e6)];
        let mut sim = Simulation::new(net, demands, SimConfig::default());
        let report = sim.run();
        assert!(
            (report.mean_delay_ms - 10.0).abs() < 0.1,
            "{}",
            report.mean_delay_ms
        );
        assert!((sim.weighted_propagation_ms() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn cross_traffic_interferes_at_shared_link() {
        // Flows 0→2 and 1→2 share the 2→3 bottleneck.
        let mut net = Network::new(4);
        for (a, b, rate) in [(0, 2, 1e9), (1, 2, 1e9), (2, 3, 10e6)] {
            net.add_link(LinkSpec {
                from: a,
                to: b,
                rate_bps: rate,
                propagation_s: 0.001,
                buffer_bytes: 30_000.0,
            });
        }
        let demands = vec![Demand::new(0, 3, 8e6), Demand::new(1, 3, 8e6)];
        let mut sim = Simulation::new(net, demands, SimConfig::default());
        let report = sim.run();
        // Combined 16 Mbps into a 10 Mbps link: significant loss.
        assert!(report.loss_rate > 0.2, "loss {}", report.loss_rate);
    }

    #[test]
    fn simulation_is_deterministic() {
        let a = run_at_load(0.8, 50_000.0, ArrivalProcess::Poisson);
        let b = run_at_load(0.8, 50_000.0, ArrivalProcess::Poisson);
        assert_eq!(a, b, "same seed must give a bit-identical report");
    }

    #[test]
    fn zero_rate_demand_produces_no_packets() {
        let net = single_link_net(1e6);
        let demands = vec![Demand::new(0, 1, 0.0)];
        let mut sim = Simulation::new(net, demands, SimConfig::default());
        let report = sim.run();
        assert_eq!(report.delivered + report.dropped, 0);
    }

    /// Many disjoint bottleneck pairs plus one shared-link pair: several
    /// independent components.
    fn multi_component_inputs(pairs: usize) -> (Network, Vec<Demand>) {
        let mut net = Network::new(2 * pairs);
        let mut demands = Vec::new();
        for p in 0..pairs {
            net.add_link(LinkSpec {
                from: 2 * p,
                to: 2 * p + 1,
                rate_bps: 10e6,
                propagation_s: 0.002 + p as f64 * 1e-4,
                buffer_bytes: 30_000.0,
            });
            demands.push(Demand::new(2 * p, 2 * p + 1, 8e6));
        }
        (net, demands)
    }

    /// One congested single-component mesh: a one-way ring with crossing
    /// multi-hop flows, so every route shares links with others — component
    /// sharding degenerates to serial here.
    fn single_component_mesh(nodes: usize) -> (Network, Vec<Demand>) {
        let mut net = Network::new(nodes);
        for i in 0..nodes {
            net.add_link(LinkSpec {
                from: i,
                to: (i + 1) % nodes,
                rate_bps: 12e6,
                propagation_s: 0.001 + (i as f64) * 3e-4,
                buffer_bytes: 25_000.0,
            });
        }
        let mut demands = Vec::new();
        for i in 0..nodes {
            demands.push(Demand::new(i, (i + nodes / 2) % nodes, 3e6));
        }
        (net, demands)
    }

    #[test]
    fn sharded_run_is_bit_identical_to_serial() {
        for arrivals in [ArrivalProcess::ConstantBitRate, ArrivalProcess::Poisson] {
            let (net, demands) = multi_component_inputs(6);
            let config = |workers| SimConfig {
                duration_s: 0.5,
                arrivals,
                seed: 9,
                workers,
                ..SimConfig::default()
            };
            let serial = Simulation::new(net.clone(), demands.clone(), config(1)).run();
            let sharded = Simulation::new(net.clone(), demands.clone(), config(4)).run();
            let auto = Simulation::new(net, demands, config(0)).run();
            assert_eq!(serial, sharded, "{arrivals:?}");
            assert_eq!(serial, auto, "{arrivals:?}");
            assert!(serial.delivered > 0);
        }
    }

    #[test]
    fn unroutable_demands_yield_an_empty_report_in_every_mode() {
        // Every link disabled (total weather failure): all demands become
        // unroutable, the flow partition is empty (zero components, not
        // components without flows), and serial and sharded runs must
        // produce a clean all-zero report.
        let (net, demands) = multi_component_inputs(3);
        let disabled = vec![true; net.num_links()];
        for workers in [1usize, 2] {
            let config = SimConfig {
                duration_s: 0.1,
                workers,
                ..SimConfig::default()
            };
            let routes = compute_routes_avoiding(&net, &demands, config.routing, &disabled);
            let mut sim = Simulation::with_routes(net.clone(), demands.clone(), routes, config);
            assert_eq!(sim.num_components(), 0);
            let report = sim.run();
            assert_eq!(report.delivered + report.dropped, 0, "workers {workers}");
            assert_eq!(report.mean_delay_ms, 0.0);
            assert_eq!(report.flow_delivered, vec![0; demands.len()]);
            assert_eq!(report.flow_dropped, vec![0; demands.len()]);
            assert_eq!(report.max_link_utilization, 0.0);
        }
    }

    #[test]
    fn hop_collapse_is_bit_identical_to_the_uncollapsed_path() {
        // A long idle chain is the collapse's best case; the congested mesh
        // and the multi-component set exercise it under queueing, serial and
        // sharded. The reports must match float for float.
        let mut chain = Network::new(8);
        for i in 0..7 {
            chain.add_link(LinkSpec {
                from: i,
                to: i + 1,
                rate_bps: 1e9,
                propagation_s: 0.002,
                buffer_bytes: 1e9,
            });
        }
        let chain_demands = vec![Demand::new(0, 7, 2e6)];
        let cases = [
            (chain, chain_demands),
            single_component_mesh(8),
            multi_component_inputs(5),
        ];
        for (net, demands) in cases {
            for workers in [1usize, 2] {
                let config = |hop_collapse| SimConfig {
                    duration_s: 0.2,
                    workers,
                    hop_collapse,
                    ..SimConfig::default()
                };
                let collapsed = Simulation::new(net.clone(), demands.clone(), config(true)).run();
                let plain = Simulation::new(net.clone(), demands.clone(), config(false)).run();
                assert_eq!(collapsed, plain, "workers {workers}");
                assert!(collapsed.delivered > 0);
            }
        }
    }

    #[test]
    fn chain_drain_is_bit_identical_under_many_packets_in_flight() {
        // A conduit-like chain whose propagation far exceeds the
        // inter-packet gap: ~80 packets in flight per segment keep every
        // pipeline non-empty, which is exactly the regime the sole-feeder
        // chain drain targets. The mid-chain entrant exercises the
        // emission guard against a draining upstream pipeline. Collapse
        // on/off must agree float for float.
        let mut net = Network::new(6);
        for i in 0..5 {
            net.add_link(LinkSpec {
                from: i,
                to: i + 1,
                rate_bps: 100e6,
                propagation_s: 0.004,
                buffer_bytes: 1e9,
            });
        }
        let demands = vec![Demand::new(0, 5, 60e6), Demand::new(2, 4, 20e6)];
        let run = |hop_collapse| {
            Simulation::new(
                net.clone(),
                demands.clone(),
                SimConfig {
                    duration_s: 0.3,
                    hop_collapse,
                    ..SimConfig::default()
                },
            )
            .run()
        };
        let collapsed = run(true);
        assert!(collapsed.delivered > 0);
        assert_eq!(collapsed, run(false));
    }

    #[test]
    fn queue_stats_accumulate_and_match_across_worker_counts() {
        // Every component starts on an empty queue, so summed pushes and
        // occupancies and the peak do not depend on which worker ran it.
        for (net, demands) in [single_component_mesh(8), multi_component_inputs(5)] {
            let mut reference = None;
            for workers in [1usize, 2, 4] {
                let mut sim = Simulation::new(
                    net.clone(),
                    demands.clone(),
                    SimConfig {
                        duration_s: 0.2,
                        workers,
                        ..SimConfig::default()
                    },
                );
                assert_eq!(sim.queue_stats(), QueueStats::default());
                let report = sim.run();
                assert!(report.delivered > 0);
                let stats = sim.queue_stats();
                assert!(stats.pushes > 0);
                assert!(stats.peak_occupancy > 0);
                assert!(stats.mean_occupancy() > 0.0);
                match reference {
                    None => reference = Some(stats),
                    Some(r) => assert_eq!(r, stats, "workers {workers}"),
                }
            }
        }
    }

    #[test]
    fn hybrid_without_background_demands_is_bit_identical_to_pure_packet() {
        let (net, demands) = single_component_mesh(8);
        let config = |background| SimConfig {
            duration_s: 0.2,
            seed: 3,
            workers: 1,
            background,
            ..SimConfig::default()
        };
        let packet = Simulation::new(
            net.clone(),
            demands.clone(),
            config(BackgroundModel::Packet),
        )
        .run();
        let hybrid = Simulation::new(net, demands, config(BackgroundModel::Fluid)).run();
        assert_eq!(packet, hybrid);
        assert!(hybrid.background.is_none());
    }

    #[test]
    fn hybrid_report_is_bit_identical_across_modes_and_workers() {
        let (net, mut demands) = single_component_mesh(8);
        // Tag half the demands background.
        for d in demands.iter_mut().skip(4) {
            d.class = crate::routing::TrafficClass::Background;
        }
        let config = |workers| SimConfig {
            duration_s: 0.2,
            seed: 3,
            workers,
            background: BackgroundModel::Fluid,
            ..SimConfig::default()
        };
        let serial = Simulation::new(net.clone(), demands.clone(), config(1)).run();
        assert!(serial.background.is_some());
        for workers in [2usize, 4] {
            let report = Simulation::new(net.clone(), demands.clone(), config(workers)).run();
            assert_eq!(serial, report, "workers {workers}");
        }
    }

    #[test]
    fn hybrid_offloads_background_packets_and_reports_class_stats() {
        // 6 Mbps foreground + 8 Mbps background share the 10 Mbps link:
        // overloaded in aggregate. Hybrid simulates only the foreground
        // packets; the background appears as fluid stats and as queueing
        // delay on the foreground. The buffer is large enough that the
        // fluid backlog (peak 4 Mbps × 0.5 s ÷ 8 = 250 kB) never fills it,
        // so no class loses packets to drops.
        let net = single_link_net(500_000.0);
        let demands = vec![Demand::new(0, 1, 6e6), Demand::background(0, 1, 8e6)];
        let config = |background| SimConfig {
            duration_s: 0.5,
            background,
            ..SimConfig::default()
        };
        let hybrid =
            Simulation::new(net.clone(), demands.clone(), config(BackgroundModel::Fluid)).run();
        let packet = Simulation::new(net, demands, config(BackgroundModel::Packet)).run();

        // The background flow emitted no packets in hybrid...
        assert_eq!(hybrid.flow_delivered[1] + hybrid.flow_dropped[1], 0);
        // ...but did in pure packet.
        assert!(packet.flow_delivered[1] > 0);
        // Hybrid processed far fewer packet events.
        let hybrid_packets = hybrid.delivered + hybrid.dropped;
        let packet_packets = packet.delivered + packet.dropped;
        assert!(
            hybrid_packets * 2 < packet_packets,
            "{hybrid_packets} vs {packet_packets}"
        );
        // The fluid stats account for the background class.
        let bg = hybrid.background.expect("hybrid must report class stats");
        assert_eq!(bg.flows, 1);
        assert!((bg.offered_bits - 8e6 * 0.5).abs() < 1.0);
        assert!(bg.delivered_bits > 0.0);
        assert!(bg.peak_backlog_bytes > 0.0);
        assert!(bg.packet_equivalent_events > 100.0);
        // The background queue delays foreground packets: mean queueing is
        // well above the foreground-only level but bounded by the peak
        // backlog drain time (250 kB at 10 Mbps = 200 ms).
        assert!(hybrid.mean_queue_delay_ms > 0.0);
        assert!(hybrid.mean_queue_delay_ms <= 200.0 + 1e-9);
        // Background load is visible in link utilisation: the link is
        // saturated in aggregate even though only foreground packets flow.
        assert!(
            hybrid.max_link_utilization > 0.9,
            "{}",
            hybrid.max_link_utilization
        );
    }

    #[test]
    fn hybrid_leaves_foreground_flows_off_background_routes_untouched() {
        // Disjoint pairs: tagging one pair background must leave every
        // other pair's per-flow statistics bit-identical to pure packet.
        let (net, mut demands) = multi_component_inputs(4);
        demands[2].class = crate::routing::TrafficClass::Background;
        let config = |background| SimConfig {
            duration_s: 0.3,
            background,
            ..SimConfig::default()
        };
        let packet = Simulation::new(
            net.clone(),
            demands.clone(),
            config(BackgroundModel::Packet),
        )
        .run();
        let hybrid = Simulation::new(net, demands, config(BackgroundModel::Fluid)).run();
        for k in [0usize, 1, 3] {
            assert_eq!(packet.flow_mean_delay_ms[k], hybrid.flow_mean_delay_ms[k]);
            assert_eq!(packet.flow_delivered[k], hybrid.flow_delivered[k]);
            assert_eq!(packet.flow_dropped[k], hybrid.flow_dropped[k]);
        }
        assert_eq!(hybrid.flow_delivered[2], 0);
        assert!(hybrid.background.is_some());
    }

    #[test]
    fn components_split_disjoint_flows() {
        let (net, demands) = multi_component_inputs(4);
        let sim = Simulation::new(net, demands, SimConfig::default());
        let comps = sim.partition_flows();
        assert_eq!(comps.len(), 4);
        for (i, comp) in comps.iter().enumerate() {
            assert_eq!(comp, &vec![i as u32]);
        }
    }

    #[test]
    fn flows_sharing_a_link_stay_in_one_component() {
        let mut net = Network::new(4);
        for (a, b, rate) in [(0, 2, 1e9), (1, 2, 1e9), (2, 3, 10e6)] {
            net.add_link(LinkSpec {
                from: a,
                to: b,
                rate_bps: rate,
                propagation_s: 0.001,
                buffer_bytes: 30_000.0,
            });
        }
        let demands = vec![Demand::new(0, 3, 4e6), Demand::new(1, 3, 4e6)];
        let sim = Simulation::new(net, demands, SimConfig::default());
        let comps = sim.partition_flows();
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0], vec![0, 1]);
    }
}
