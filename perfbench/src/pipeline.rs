//! The three workloads, each runnable two ways over the same inputs:
//!
//! * untraced, through the public entry points a user calls
//!   (`Scenario::build`, `Scenario::design`, `storm_queueing_analysis`, ...);
//! * traced, stage by stage, with a span around every layer call.
//!
//! The traced run executes both and checks that they agree, so the trace
//! measures the same program the end-to-end figures time.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::hash::{Hash, Hasher};

use cisp_apps::gaming::{frame_time_distribution, FrameTimeStats, GameModel};
use cisp_apps::web::{replay, PageCorpus, ReplayScenario, WebReplayReport};
use cisp_core::augment::{augment_for_throughput, AugmentConfig};
use cisp_core::cost::CostModel;
use cisp_core::design::{DesignInput, DesignOutcome, Designer};
use cisp_core::evaluate::{
    lower, lower_classified, pair_rtts, EvaluateConfig, LoweredNetwork, PairRtt,
};
use cisp_core::hops::HopFeasibility;
use cisp_core::links::{CandidateLink, LinkBuilder};
use cisp_core::scenario::{population_product_traffic, Scenario, ScenarioConfig, TerrainKind};
use cisp_data::cities::{europe_population_centers, us_population_centers, City, Region};
use cisp_data::fiber::FiberNetwork;
use cisp_data::towers::TowerRegistry;
use cisp_netsim::flows::ArrivalProcess;
use cisp_netsim::fluid;
use cisp_netsim::routing::compute_routes;
use cisp_netsim::sim::{SimConfig, Simulation};
use cisp_netsim::{BackgroundModel, QueueStats, SimReport};
use cisp_terrain::clutter::ClutterModel;
use cisp_terrain::TerrainModel;
use cisp_weather::failures::{link_failures, FailureConfig};
use cisp_weather::reroute::{weather_year_analysis, WeatherYearReport};
use cisp_weather::simulate::{
    conduit_cut_analysis_on, most_loaded_conduits, ConduitCutOutcome, ConduitCutReport,
    IntervalQueueing, QueueingWeatherReport,
};
use cisp_weather::storm_queueing_analysis;
use cisp_weather::storms::{StormField, StormYear, StormYearConfig};

use crate::trace::Tracer;

/// Outcome of a check: `Err` carries what failed.
pub type Check = Result<(), String>;

/// Per-layer counters gathered by a traced run, keyed by metric name.
pub type Counters = BTreeMap<&'static str, f64>;

/// Aggregate throughput the design is provisioned and priced for, Gbps.
const PROVISION_GBPS: f64 = 100.0;

/// `SimConfig::workers` every workload runs with: one thread per core, the
/// default.
pub const SIM_WORKERS: usize = 0;

/// The seed the figures use, and the scenario seed of the two simulation
/// workloads.
pub const DEFAULT_SEED: u64 = 42;
/// A seed no figure uses; the checks must pass here too.
pub const HELD_OUT_SEED: u64 = 20_261_017;

/// Problem size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's full US scenario (119 sites, ~12.5k towers).
    Paper,
    /// `ScenarioConfig::tiny_test`-sized, for the benchmark's own tests.
    Tiny,
}

/// Everything a workload's inputs are made from.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub scale: Scale,
    pub seed: u64,
}

impl Params {
    pub fn scenario_config(&self) -> ScenarioConfig {
        match self.scale {
            Scale::Paper => ScenarioConfig::us_paper(self.seed),
            Scale::Tiny => ScenarioConfig {
                seed: self.seed,
                ..ScenarioConfig::tiny_test()
            },
        }
    }

    fn budget_towers(&self) -> f64 {
        match self.scale {
            Scale::Paper => 3_000.0,
            Scale::Tiny => 100.0,
        }
    }

    /// The same problem size built from the figures' scenario. The
    /// simulation workloads run on it, so their topology, components and
    /// event counts do not change with `--seed`; the seed draws their
    /// traffic and storms instead.
    fn figure_scenario(&self) -> Params {
        Params {
            seed: DEFAULT_SEED,
            ..*self
        }
    }

    /// The backbone simulation: 100 Gbps design point, half of it offered
    /// as packet foreground with Poisson arrivals drawn from the seed, plus
    /// a fluid background class.
    fn backbone_config(&self) -> (EvaluateConfig, f64) {
        let duration_s = match self.scale {
            Scale::Paper => 0.05,
            Scale::Tiny => 0.02,
        };
        let config = EvaluateConfig {
            design_aggregate_gbps: 100.0,
            load_fraction: 0.5,
            sim: SimConfig {
                duration_s,
                arrivals: ArrivalProcess::Poisson,
                seed: self.seed,
                workers: SIM_WORKERS,
                background: BackgroundModel::Fluid,
                ..SimConfig::default()
            },
            ..EvaluateConfig::default()
        };
        (config, 40.0)
    }

    /// The light design point the storm replay and the conduit cuts run at.
    fn replay_config(&self) -> EvaluateConfig {
        EvaluateConfig {
            design_aggregate_gbps: 10.0,
            load_fraction: 0.5,
            sim: SimConfig {
                duration_s: 0.01,
                seed: self.seed,
                workers: SIM_WORKERS,
                ..SimConfig::default()
            },
            ..EvaluateConfig::default()
        }
    }

    fn year_days(&self) -> usize {
        match self.scale {
            Scale::Paper => 365,
            Scale::Tiny => 60,
        }
    }

    /// Day range of the year replayed through the packet engine (summer
    /// storms, where failures are frequent).
    fn storm_days(&self) -> std::ops::Range<usize> {
        match self.scale {
            Scale::Paper => 150..270,
            Scale::Tiny => 20..40,
        }
    }

    /// Conduits cut, one at a time: the most-loaded ones, as many as carry
    /// traffic up to this count.
    fn cuts(&self) -> usize {
        match self.scale {
            Scale::Paper => 20,
            Scale::Tiny => 4,
        }
    }

    /// At the default seed and paper scale the design is pinned:
    /// `(candidates, selected links, mean stretch)`.
    fn golden(&self) -> Option<(usize, usize, f64)> {
        (self.scale == Scale::Paper && self.seed == DEFAULT_SEED).then_some((6_990, 335, 1.127667))
    }
}

/// Hash of a value's `Debug` text: equal digests mean equal values, floats
/// bit for bit (`Debug` prints the shortest text that reads back exactly).
fn digest<T: Debug + ?Sized>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    format!("{value:?}").hash(&mut h);
    h.finish()
}

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Check {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

// ---------------------------------------------------------------------------
// Design layers, stage by stage (mirrors `Scenario::build`).
// ---------------------------------------------------------------------------

/// The synthetic datasets a scenario is built from.
struct Datasets {
    cities: Vec<City>,
    terrain: TerrainModel,
    clutter: ClutterModel,
    towers: TowerRegistry,
    fiber: FiberNetwork,
}

/// Synthesise the datasets exactly as `Scenario::build` does.
fn synthesize(config: &ScenarioConfig) -> Datasets {
    let mut cities = match config.region {
        Region::UnitedStates => us_population_centers(),
        Region::Europe => europe_population_centers(),
    };
    if let Some((min_lat, max_lat, min_lon, max_lon)) = config.site_bbox {
        cities.retain(|c| {
            c.location.lat_deg >= min_lat
                && c.location.lat_deg <= max_lat
                && c.location.lon_deg >= min_lon
                && c.location.lon_deg <= max_lon
        });
    }
    if let Some(max) = config.max_sites {
        cities.truncate(max);
    }
    let bbox = config
        .site_bbox
        .unwrap_or_else(|| config.region.bounding_box());
    let terrain = match (config.terrain, config.region) {
        (TerrainKind::Flat, _) => TerrainModel::flat(),
        (TerrainKind::Regional, Region::UnitedStates) => TerrainModel::united_states(config.seed),
        (TerrainKind::Regional, Region::Europe) => TerrainModel::europe(config.seed),
    };
    let clutter = match config.terrain {
        TerrainKind::Flat => ClutterModel::none(),
        TerrainKind::Regional => ClutterModel::with_seed(config.seed),
    };
    let towers = TowerRegistry::synthesize(config.seed, bbox, &cities, &config.towers);
    let fiber = FiberNetwork::synthesize(config.seed, &cities, &config.fiber);
    Datasets {
        cities,
        terrain,
        clutter,
        towers,
        fiber,
    }
}

/// Hop sweep, site attachment and candidate search, one span each.
fn staged_design_input(
    config: &ScenarioConfig,
    data: &Datasets,
    t: &mut Tracer,
    counters: &mut Counters,
) -> DesignInput {
    assert!(
        config.prune_candidates,
        "the benchmark runs the pruned pool"
    );
    let sites: Vec<_> = data.cities.iter().map(|c| c.location).collect();
    let hops = t.leaf("hops.sweep", || {
        HopFeasibility::new(&data.towers, &data.terrain, &data.clutter, config.hops)
            .all_feasible_hops_with(config.pool_workers)
    });
    let builder = t.leaf("links.attach", || {
        LinkBuilder::new(&sites, &data.towers, &hops, config.links)
    });
    let (traffic, fiber_km, candidates) = t.leaf("links.candidates", || {
        let traffic = population_product_traffic(&data.cities);
        let fiber_km = data.fiber.latency_equivalent_matrix();
        let (links, _, _) = builder.pruned_candidate_links_profiled(&fiber_km, config.pool_workers);
        (traffic, fiber_km, links)
    });
    counters.insert("data.towers", data.towers.len() as f64);
    counters.insert("hops.feasible", hops.len() as f64);
    counters.insert("links.candidates", candidates.len() as f64);
    counters.insert(
        "links.zero_attached",
        builder.attachment_report().zero_attached().len() as f64,
    );
    DesignInput {
        sites,
        traffic,
        fiber_km,
        candidates,
    }
}

fn record_design(outcome: &DesignOutcome, counters: &mut Counters) {
    counters.insert("design.selected", outcome.selected.len() as f64);
    counters.insert("design.towers_used", outcome.total_towers as f64);
}

/// The checks every design must pass. At the default seed and paper scale
/// the pool and the link count are pinned, and so is the cISP design's
/// stretch (`pinned_stretch`).
fn check_design(
    params: &Params,
    candidates: usize,
    outcome: &DesignOutcome,
    pinned_stretch: bool,
) -> Check {
    ensure(candidates > 0, || "empty candidate pool".into())?;
    ensure(outcome.mean_stretch >= 1.0, || {
        format!("mean stretch {} < 1", outcome.mean_stretch)
    })?;
    ensure(
        outcome.total_towers as f64 <= params.budget_towers(),
        || {
            format!(
                "{} towers used over a budget of {}",
                outcome.total_towers,
                params.budget_towers()
            )
        },
    )?;
    if let Some((pool, links, stretch)) = params.golden() {
        ensure(
            candidates == pool
                && outcome.selected.len() == links
                && (!pinned_stretch || (outcome.mean_stretch - stretch).abs() < 5e-7),
            || {
                format!(
                    "seed {DEFAULT_SEED} should give {pool} candidates and {links} links (cISP stretch {stretch}); got {candidates}, {}, stretch {}",
                    outcome.selected.len(),
                    outcome.mean_stretch
                )
            },
        )?;
    }
    Ok(())
}

fn same(what: &str, a: u64, b: u64) -> Check {
    ensure(a == b, || {
        format!("{what}: stage-by-stage result differs from the entry point's")
    })
}

// ---------------------------------------------------------------------------
// Simulation helpers, stage by stage.
// ---------------------------------------------------------------------------

/// `lowered.simulation()` with the route computation in its own span.
fn staged_simulation(lowered: &LoweredNetwork, t: &mut Tracer) -> Simulation {
    let routes = t.leaf("routing.route", || {
        compute_routes(
            &lowered.network,
            &lowered.demands,
            lowered.config.sim.routing,
        )
    });
    Simulation::with_routes(
        lowered.network.clone(),
        lowered.demands.clone(),
        routes,
        lowered.config.sim,
    )
}

/// Packet-engine counters summed over the runs of a traced rep.
#[derive(Default)]
struct RunCounters {
    components: Option<usize>,
    events: u64,
    delivered: u64,
    dropped: u64,
    queue: QueueStats,
}

impl RunCounters {
    fn run(&mut self, sim: &mut Simulation, t: &mut Tracer) -> SimReport {
        let report = t.leaf("netsim.run", || sim.run());
        let forwarded: u64 = sim.network().states().packets_forwarded.iter().sum();
        self.events += forwarded + report.dropped + report.delivered;
        self.delivered += report.delivered;
        self.dropped += report.dropped;
        self.queue.merge(&sim.queue_stats());
        report
    }

    fn record(&self, counters: &mut Counters) {
        counters.insert("netsim.events", self.events as f64);
        counters.insert(
            "netsim.components",
            self.components.unwrap_or_default() as f64,
        );
        counters.insert("netsim.delivered", self.delivered as f64);
        counters.insert("netsim.dropped", self.dropped as f64);
        counters.insert("queue.pushes", self.queue.pushes as f64);
        counters.insert("queue.mean_occupancy", self.queue.mean_occupancy());
        counters.insert("queue.peak_occupancy", self.queue.peak_occupancy as f64);
    }
}

// ---------------------------------------------------------------------------
// The workloads.
// ---------------------------------------------------------------------------

/// What one rep computed. The run loop stops the rep's timer before it checks
/// and digests the outputs, so neither is part of the measured time.
pub trait RepOutput {
    /// Check the outputs; on success, a digest of everything the rep
    /// computed. The run loop checks that every rep's digest is the same.
    fn check(&self) -> Result<u64, String>;
}

pub type Output = Box<dyn RepOutput>;

/// One benchmark workload. The run loop calls `setup` (and, when tracing,
/// `setup_traced`), then `rep` repeatedly (and, when tracing, `rep_traced`
/// once between two `rep`s).
pub trait Workload {
    /// Untraced preparation through the public entry points.
    fn setup(&mut self) -> Check;
    /// Set-ups per untraced run; the median time is reported.
    fn setup_reps(&self) -> usize {
        1
    }
    /// The same preparation stage by stage under spans, checked against
    /// the untraced one.
    fn setup_traced(&mut self, t: &mut Tracer, counters: &mut Counters) -> Check;
    /// One untraced rep of the timed part, through the public entry points.
    fn rep(&mut self) -> Output;
    /// One rep of the timed part stage by stage, under a root span named
    /// [`Workload::root`].
    fn rep_traced(&mut self, t: &mut Tracer, counters: &mut Counters) -> Result<Output, String>;
    /// Name of the timed part's root span.
    fn root(&self) -> &'static str;
    /// Spans below the root that group layer spans without being a layer.
    fn phases(&self) -> &'static [&'static str] {
        &[]
    }
    /// Mean stretch of the design this workload runs on.
    fn mean_stretch(&self) -> f64;
    /// Seed of the scenario this workload builds.
    fn scenario_seed(&self) -> u64;
}

pub fn workload(name: &str, params: Params) -> Option<Box<dyn Workload>> {
    match name {
        "us_design" => Some(Box::new(UsDesign::new(params))),
        "us_backbone_sim" => Some(Box::new(BackboneSim {
            base: Backbone::new(params),
        })),
        "us_weather_replay" => Some(Box::new(WeatherReplay::new(params))),
        _ => None,
    }
}

/// `us_design`: ScenarioConfig → built scenario → cISP design → provisioned
/// and priced network.
struct UsDesign {
    params: Params,
    config: ScenarioConfig,
    towers: usize,
    stretch: f64,
}

struct DesignOutput {
    params: Params,
    candidates: Vec<CandidateLink>,
    outcome: DesignOutcome,
    cost_per_gb: f64,
}

impl RepOutput for DesignOutput {
    fn check(&self) -> Result<u64, String> {
        check_design(&self.params, self.candidates.len(), &self.outcome, true)?;
        ensure(
            self.cost_per_gb.is_finite() && self.cost_per_gb > 0.0,
            || format!("cost per GB {}", self.cost_per_gb),
        )?;
        Ok(digest(&(
            digest(&self.candidates),
            &self.outcome.selected,
            self.outcome.mean_stretch,
            self.outcome.total_towers,
            self.cost_per_gb,
        )))
    }
}

impl UsDesign {
    fn new(params: Params) -> Self {
        Self {
            params,
            config: params.scenario_config(),
            towers: 0,
            stretch: f64::NAN,
        }
    }
}

impl Workload for UsDesign {
    fn setup(&mut self) -> Check {
        let data = synthesize(&self.config);
        self.towers = data.towers.len();
        ensure(data.cities.len() >= 2 && self.towers > 0, || {
            "degenerate datasets".into()
        })
    }

    /// Set-up only synthesises datasets (milliseconds), so it is repeated
    /// for a steady median. Its speed drifts by about half from one second
    /// to the next on a shared host, so the reps span about 2 s rather
    /// than one drift state. The simulation workloads build the full
    /// scenario in set-up (~13 s) and set up once.
    fn setup_reps(&self) -> usize {
        300
    }

    fn setup_traced(&mut self, t: &mut Tracer, counters: &mut Counters) -> Check {
        let data = t.span("setup", |t| {
            t.leaf("data.synth", || synthesize(&self.config))
        });
        counters.insert("data.towers", data.towers.len() as f64);
        ensure(data.towers.len() == self.towers, || {
            "datasets differ between set-ups".into()
        })
    }

    fn rep(&mut self) -> Output {
        let scenario = Scenario::build(&self.config);
        let outcome = scenario.design(self.params.budget_towers());
        let provisioned = scenario.provision(&outcome, PROVISION_GBPS, &CostModel::default());
        self.stretch = outcome.mean_stretch;
        Box::new(DesignOutput {
            params: self.params,
            candidates: scenario.design_input().candidates.clone(),
            outcome,
            cost_per_gb: provisioned.cost_per_gb,
        })
    }

    fn rep_traced(&mut self, t: &mut Tracer, counters: &mut Counters) -> Result<Output, String> {
        let config = self.config.clone();
        let params = self.params;
        let (input, outcome, cost_per_gb) = t.span("design", |t| {
            let data = t.leaf("data.synth", || synthesize(&config));
            let input = staged_design_input(&config, &data, t, counters);
            let outcome = t.leaf("design.cisp", || {
                Designer::with_config(&input, config.design).cisp(params.budget_towers())
            });
            let cost_per_gb = t.leaf("augment.provision", || {
                let augmentation = augment_for_throughput(
                    &outcome.topology,
                    PROVISION_GBPS,
                    &AugmentConfig::default(),
                );
                let inventory = augmentation.inventory(&outcome.topology);
                CostModel::default().cost_per_gb(&inventory, PROVISION_GBPS)
            });
            (input, outcome, cost_per_gb)
        });
        record_design(&outcome, counters);
        counters.insert("cost.per_gb", cost_per_gb);
        Ok(Box::new(DesignOutput {
            params,
            candidates: input.candidates,
            outcome,
            cost_per_gb,
        }))
    }

    fn root(&self) -> &'static str {
        "design"
    }

    fn mean_stretch(&self) -> f64 {
        self.stretch
    }

    fn scenario_seed(&self) -> u64 {
        self.params.seed
    }
}

/// Shared set-up of the two simulation workloads: the figures' scenario,
/// built, and its greedy design at the tower budget.
struct Backbone {
    /// The run's parameters; the seed draws traffic and storms.
    params: Params,
    /// The parameters the scenario is built from.
    design_params: Params,
    config: ScenarioConfig,
    scenario: Option<Scenario>,
    outcome: Option<DesignOutcome>,
}

impl Backbone {
    fn new(params: Params) -> Self {
        let design_params = params.figure_scenario();
        Self {
            params,
            design_params,
            config: design_params.scenario_config(),
            scenario: None,
            outcome: None,
        }
    }

    fn setup(&mut self) -> Check {
        let scenario = Scenario::build(&self.config);
        let outcome = scenario.design_greedy(self.design_params.budget_towers());
        let (scenario, outcome) = (self.scenario.insert(scenario), self.outcome.insert(outcome));
        check_design(
            &self.design_params,
            scenario.design_input().candidates.len(),
            outcome,
            false,
        )
    }

    fn setup_traced(&mut self, t: &mut Tracer, counters: &mut Counters) -> Check {
        let config = self.config.clone();
        let budget = self.design_params.budget_towers();
        let (input, outcome) = t.span("setup", |t| {
            let data = t.leaf("data.synth", || synthesize(&config));
            let input = staged_design_input(&config, &data, t, counters);
            let outcome = t.leaf("design.greedy", || {
                Designer::with_config(&input, config.design).greedy(budget)
            });
            (input, outcome)
        });
        record_design(&outcome, counters);
        check_design(&self.design_params, input.candidates.len(), &outcome, false)?;
        let (scenario, expected) = self.parts();
        same(
            "candidate pool",
            digest(&input.candidates),
            digest(&scenario.design_input().candidates),
        )?;
        same(
            "greedy design",
            digest(&(&outcome.selected, outcome.mean_stretch)),
            digest(&(&expected.selected, expected.mean_stretch)),
        )
    }

    fn parts(&self) -> (&Scenario, &DesignOutcome) {
        (
            self.scenario.as_ref().expect("set up"),
            self.outcome.as_ref().expect("set up"),
        )
    }

    fn mean_stretch(&self) -> f64 {
        self.outcome.as_ref().map_or(f64::NAN, |o| o.mean_stretch)
    }
}

/// `us_backbone_sim`: conduit grounding → classified lowering → routing →
/// hybrid simulation → per-pair RTTs → application models.
struct BackboneSim {
    base: Backbone,
}

/// The application models fed with simulated RTTs. The backbone carries the
/// intra-region leg; the game server sits across the conventional Internet
/// at 3× that RTT (the paper's cISP : Internet latency ratio).
fn gaming(rtts: &[PairRtt]) -> FrameTimeStats {
    let samples: Vec<f64> = rtts.iter().map(|p| p.simulated_rtt_ms * 3.0).collect();
    frame_time_distribution(&GameModel::default(), &samples)
}

fn web(rtts: &[PairRtt], seed: u64) -> (WebReplayReport, WebReplayReport) {
    let rtt_s: Vec<f64> = rtts
        .iter()
        .map(|p| p.simulated_rtt_ms * 3.0 / 1e3)
        .collect();
    let corpus = PageCorpus::generate_with_rtts(80, seed, &rtt_s);
    (
        replay(&corpus, ReplayScenario::Baseline),
        replay(&corpus, ReplayScenario::Cisp { factor: 1.0 / 3.0 }),
    )
}

struct BackboneOutput {
    report: SimReport,
    rtts: Vec<PairRtt>,
    game: FrameTimeStats,
    web: (WebReplayReport, WebReplayReport),
}

impl RepOutput for BackboneOutput {
    fn check(&self) -> Result<u64, String> {
        let report = &self.report;
        let bg = report
            .background
            .ok_or("the hybrid run reported no background class")?;
        ensure(!bg.truncated, || {
            format!(
                "the fluid solver truncated {} s of the horizon",
                bg.truncated_horizon_s
            )
        })?;
        ensure(report.delivered > 0, || "no packets delivered".into())?;
        ensure(report.dropped == 0, || {
            format!(
                "{} packets dropped at a load the design is provisioned for",
                report.dropped
            )
        })?;
        ensure(
            self.rtts
                .iter()
                .all(|p| p.simulated_rtt_ms.is_finite() && p.simulated_rtt_ms > 0.0),
            || "non-finite or zero pair RTT".into(),
        )?;
        Ok(digest(&(
            digest(report),
            digest(&self.rtts),
            self.game,
            &self.web,
        )))
    }
}

impl Workload for BackboneSim {
    fn setup(&mut self) -> Check {
        self.base.setup()
    }

    fn setup_traced(&mut self, t: &mut Tracer, counters: &mut Counters) -> Check {
        self.base.setup_traced(t, counters)
    }

    fn rep(&mut self) -> Output {
        let (scenario, outcome) = self.base.parts();
        let (config, bg_gbps) = self.base.params.backbone_config();
        let traffic = &scenario.design_input().traffic;
        let conduit = scenario.conduit_backed_topology(outcome);
        let lowered = lower_classified(&conduit, traffic, traffic, bg_gbps, &config);
        let report = lowered.simulation().run();
        let rtts = pair_rtts(&lowered, &report, &conduit);
        let game = gaming(&rtts);
        let web = web(&rtts, self.base.params.seed);
        Box::new(BackboneOutput {
            report,
            rtts,
            game,
            web,
        })
    }

    fn rep_traced(&mut self, t: &mut Tracer, counters: &mut Counters) -> Result<Output, String> {
        let (scenario, outcome) = self.base.parts();
        let (config, bg_gbps) = self.base.params.backbone_config();
        let seed = self.base.params.seed;
        let traffic = &scenario.design_input().traffic;
        let mut runs = RunCounters::default();
        let (lowered, sim, output) = t.span("sim", |t| {
            let conduit = t.leaf("topology.conduit", || {
                scenario.conduit_backed_topology(outcome)
            });
            let lowered = t.leaf("evaluate.lower", || {
                lower_classified(&conduit, traffic, traffic, bg_gbps, &config)
            });
            let mut sim = staged_simulation(&lowered, t);
            let report = runs.run(&mut sim, t);
            let rtts = t.leaf("evaluate.pair_rtts", || {
                pair_rtts(&lowered, &report, &conduit)
            });
            let game = t.leaf("apps.gaming", || gaming(&rtts));
            let web = t.leaf("apps.web", || web(&rtts, seed));
            let output = BackboneOutput {
                report,
                rtts,
                game,
                web,
            };
            (lowered, sim, output)
        });
        // A standalone solve of the run's background class, outside the
        // root span: the run solves it internally, where it cannot be timed
        // on its own.
        let solved = t.leaf("fluid.solve", || {
            fluid::solve(sim.network(), sim.routes(), sim.demands(), &config.sim)
        });
        runs.components = Some(sim.num_components());
        runs.record(counters);
        counters.insert("evaluate.links", lowered.network.num_links() as f64);
        counters.insert("evaluate.demands", lowered.demands.len() as f64);
        counters.insert("fluid.flows", solved.num_flows() as f64);
        counters.insert(
            "fluid.packet_events_avoided",
            solved.stats().packet_equivalent_events,
        );
        ensure(Some(solved.stats()) == output.report.background, || {
            "standalone fluid solve differs from the run's".into()
        })?;
        Ok(Box::new(output))
    }

    fn root(&self) -> &'static str {
        "sim"
    }

    fn mean_stretch(&self) -> f64 {
        self.base.mean_stretch()
    }

    fn scenario_seed(&self) -> u64 {
        self.base.design_params.seed
    }
}

/// `us_weather_replay`: a year of storms over the design's geometry, a
/// storm season replayed through the packet engine, and single conduit
/// cuts.
struct WeatherReplay {
    base: Backbone,
    year: Option<StormYear>,
}

struct WeatherOutput {
    params: Params,
    year: WeatherYearReport,
    storm: QueueingWeatherReport,
    cuts: ConduitCutReport,
}

impl RepOutput for WeatherOutput {
    fn check(&self) -> Result<u64, String> {
        let days = self.params.year_days();
        ensure(self.year.intervals == days, || {
            format!(
                "weather year covered {} of {days} days",
                self.year.intervals
            )
        })?;
        ensure(self.storm.fair.mean_delay_ms > 0.0, || {
            "storm replay baseline delivered nothing".into()
        })?;
        ensure(
            !self.cuts.cuts.is_empty() && self.cuts.baseline.delivered > 0,
            || "no loaded conduit to cut".into(),
        )?;
        Ok(digest(&(
            digest(&self.year),
            digest(&self.storm),
            digest(&self.cuts),
        )))
    }
}

impl WeatherReplay {
    fn new(params: Params) -> Self {
        Self {
            base: Backbone::new(params),
            year: None,
        }
    }

    fn storm_fields(&self) -> &[StormField] {
        &self.year.as_ref().expect("set up").fields()[self.base.params.storm_days()]
    }
}

impl Workload for WeatherReplay {
    fn setup(&mut self) -> Check {
        let params = self.base.params;
        self.year = Some(StormYear::generate(
            params.seed,
            &StormYearConfig {
                days: params.year_days(),
                ..StormYearConfig::us_default()
            },
        ));
        self.base.setup()
    }

    fn setup_traced(&mut self, t: &mut Tracer, counters: &mut Counters) -> Check {
        self.base.setup_traced(t, counters)
    }

    fn rep(&mut self) -> Output {
        let params = self.base.params;
        let (scenario, outcome) = self.base.parts();
        let topology = &outcome.topology;
        let traffic = &scenario.design_input().traffic;
        let failure = FailureConfig::default();
        let replay_config = params.replay_config();

        let year = weather_year_analysis(topology, self.year.as_ref().unwrap(), &failure);
        let storm = storm_queueing_analysis(
            topology,
            traffic,
            self.storm_fields(),
            &failure,
            &replay_config,
        );
        let conduit = scenario.conduit_backed_topology(outcome);
        let lowered = lower(&conduit, traffic, &replay_config);
        let fair = lowered.simulation().run();
        let cut_sets: Vec<Vec<usize>> = most_loaded_conduits(&lowered, &fair)
            .into_iter()
            .take(params.cuts())
            .map(|s| vec![s])
            .collect();
        let cuts = conduit_cut_analysis_on(&lowered, &cut_sets);
        Box::new(WeatherOutput {
            params,
            year,
            storm,
            cuts,
        })
    }

    fn rep_traced(&mut self, t: &mut Tracer, counters: &mut Counters) -> Result<Output, String> {
        let params = self.base.params;
        let (scenario, outcome) = self.base.parts();
        let topology = &outcome.topology;
        let traffic = &scenario.design_input().traffic;
        let failure = FailureConfig::default();
        let replay_config = params.replay_config();
        let year_fields = self.year.as_ref().unwrap();
        let storm_fields = self.storm_fields();
        let mut runs = RunCounters::default();
        let mut reroutes = 0usize;

        let output = t.span("weather", |t| {
            let year = t.leaf("weather.year", || {
                weather_year_analysis(topology, year_fields, &failure)
            });
            let storm = t.span("weather.storm", |t| {
                // `storm_queueing_analysis`, stage by stage.
                let lowered = t.leaf("evaluate.lower", || {
                    lower(topology, traffic, &replay_config)
                });
                let mut sim = staged_simulation(&lowered, t);
                let fair_report = runs.run(&mut sim, t);
                runs.components = Some(sim.num_components());
                let fair = interval(&fair_report, 0);
                let mut intervals = Vec::with_capacity(storm_fields.len());
                let mut memo: Option<(Vec<usize>, IntervalQueueing)> = None;
                for field in storm_fields {
                    let failed = t.leaf("weather.failures", || {
                        link_failures(topology, field, &failure)
                    });
                    if failed.is_empty() {
                        intervals.push(fair.clone());
                        continue;
                    }
                    if let Some((memo_failed, memo_interval)) = &memo {
                        if memo_failed == &failed {
                            intervals.push(memo_interval.clone());
                            continue;
                        }
                    }
                    let mut sim = t.leaf("routing.reroute", || lowered.simulation_without(&failed));
                    reroutes += 1;
                    let report = runs.run(&mut sim, t);
                    let outcome = interval(&report, failed.len());
                    intervals.push(outcome.clone());
                    memo = Some((failed, outcome));
                }
                QueueingWeatherReport { fair, intervals }
            });
            let cuts = t.span("weather.cut", |t| {
                let conduit = t.leaf("topology.conduit", || {
                    scenario.conduit_backed_topology(outcome)
                });
                let lowered = t.leaf("evaluate.lower", || {
                    lower(&conduit, traffic, &replay_config)
                });
                let mut sim = staged_simulation(&lowered, t);
                let fair = runs.run(&mut sim, t);
                let cut_sets: Vec<Vec<usize>> = most_loaded_conduits(&lowered, &fair)
                    .into_iter()
                    .take(params.cuts())
                    .map(|s| vec![s])
                    .collect();
                // `conduit_cut_analysis_on`, stage by stage.
                let mut sim = staged_simulation(&lowered, t);
                let baseline = cut_outcome(&mut sim, 0, &mut runs, t);
                let cuts = cut_sets
                    .iter()
                    .map(|cut| {
                        let mut sim = t.leaf("routing.reroute", || {
                            lowered.simulation_without_conduits(cut)
                        });
                        reroutes += 1;
                        cut_outcome(&mut sim, cut.len(), &mut runs, t)
                    })
                    .collect();
                ConduitCutReport { baseline, cuts }
            });
            WeatherOutput {
                params,
                year,
                storm,
                cuts,
            }
        });
        runs.record(counters);
        counters.insert("routing.reroutes", reroutes as f64);
        counters.insert("weather.intervals", output.year.intervals as f64);
        counters.insert("weather.mean_failed_links", output.year.mean_failed_links);
        counters.insert("weather.cuts", output.cuts.cuts.len() as f64);
        Ok(Box::new(output))
    }

    fn root(&self) -> &'static str {
        "weather"
    }

    fn phases(&self) -> &'static [&'static str] {
        &["weather.storm", "weather.cut"]
    }

    fn mean_stretch(&self) -> f64 {
        self.base.mean_stretch()
    }

    fn scenario_seed(&self) -> u64 {
        self.base.design_params.seed
    }
}

/// `IntervalQueueing` of one storm interval's report.
fn interval(report: &SimReport, failed_links: usize) -> IntervalQueueing {
    IntervalQueueing {
        failed_links,
        mean_delay_ms: report.mean_delay_ms,
        p95_delay_ms: report.p95_delay_ms,
        mean_queue_delay_ms: report.mean_queue_delay_ms,
        loss_rate: report.loss_rate,
    }
}

/// `ConduitCutOutcome` of one cut scenario's simulation.
fn cut_outcome(
    sim: &mut Simulation,
    cut_segments: usize,
    runs: &mut RunCounters,
    t: &mut Tracer,
) -> ConduitCutOutcome {
    let unroutable = sim
        .demands()
        .iter()
        .enumerate()
        .filter(|&(k, d)| d.src != d.dst && sim.routes().route(k).is_empty())
        .count();
    let report = runs.run(sim, t);
    ConduitCutOutcome {
        cut_segments,
        unroutable_demands: unroutable,
        mean_delay_ms: report.mean_delay_ms,
        p95_delay_ms: report.p95_delay_ms,
        mean_queue_delay_ms: report.mean_queue_delay_ms,
        loss_rate: report.loss_rate,
        delivered: report.delivered,
    }
}
