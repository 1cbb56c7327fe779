//! The full cISP evaluation chain in one run: design → conduit grounding →
//! traffic → packet simulation → application outcomes.
//!
//! Designs the miniature US backbone, re-grounds it in the physical fiber
//! conduit graph (bit-identical effective distances, O(segments) instead of
//! O(n²) fiber links once lowered), lowers it (with its population-product
//! traffic matrix) into the site-level packet network, replays the traffic
//! through the sharded discrete-event engine — verifying that serial and
//! component-sharded execution produce bit-identical reports on the
//! conduit-lowered network — and then feeds the *simulated*
//! per-pair RTT distribution (propagation + serialization + queueing) into
//! the paper's §7 application models: thin-client gaming frame times and
//! web page-load replays.
//!
//! Run with: `cargo run --release --example end_to_end_backbone`

use cisp::apps::gaming::{frame_time_distribution, GameModel, PLAYABLE_FRAME_MS};
use cisp::apps::web::{replay, PageCorpus, ReplayScenario};
use cisp::core::evaluate::{lower, pair_rtts, EvaluateConfig};
use cisp::core::scenario::{population_product_traffic, Scenario, ScenarioConfig};
use cisp::netsim::sim::SimConfig;

fn main() {
    println!("== step 1: design ==");
    let scenario = Scenario::build(&ScenarioConfig::tiny_test());
    let outcome = scenario.design(300.0);
    println!(
        "  {} sites, {} MW links, mean stretch {:.3} (fiber-only {:.3})",
        scenario.cities().len(),
        outcome.topology.mw_links().len(),
        outcome.mean_stretch,
        scenario.design_input().empty_topology().mean_stretch()
    );

    println!("\n== step 2: conduit grounding + traffic + lowering ==");
    let conduit_topo = scenario.conduit_backed_topology(&outcome);
    assert_eq!(
        conduit_topo.effective_matrix(),
        outcome.topology.effective_matrix(),
        "conduit-backed topology must be bit-identical to the designed one"
    );
    let traffic = population_product_traffic(scenario.cities());
    let config = EvaluateConfig {
        design_aggregate_gbps: 4.0,
        load_fraction: 0.6,
        sim: SimConfig {
            duration_s: 0.2,
            ..SimConfig::default()
        },
        ..EvaluateConfig::default()
    };
    let mesh_lowered = lower(&outcome.topology, &traffic, &config);
    let lowered = lower(&conduit_topo, &traffic, &config);
    assert!(
        lowered.network.num_links() < mesh_lowered.network.num_links(),
        "conduit lowering must beat the O(n²) pair mesh"
    );
    println!(
        "  conduit-backed: {} directed links ({} microwave, {} conduit segments) vs {} for the per-pair fiber mesh",
        lowered.network.num_links(),
        2 * lowered.mw_link_ids.len(),
        conduit_topo.conduits().unwrap().num_segments(),
        mesh_lowered.network.num_links(),
    );
    println!(
        "  {} demands offering {:.2} Gbps",
        lowered.demands.len(),
        lowered.demands.iter().map(|d| d.amount_bps).sum::<f64>() / 1e9
    );

    println!("\n== step 3: sharded packet simulation ==");
    let mut serial_sim = lowered.simulation();
    let serial = {
        let mut sim_config = config.sim;
        sim_config.workers = 1;
        let mut sim = cisp::netsim::sim::Simulation::new(
            lowered.network.clone(),
            lowered.demands.clone(),
            sim_config,
        );
        sim.run()
    };
    let report = serial_sim.run(); // workers = 0: machine parallelism
    assert_eq!(
        serial, report,
        "sharded and serial simulation must be bit-identical"
    );
    println!("  serial and component-sharded reports are bit-identical");
    println!(
        "  {} packets delivered, loss {:.4} %, mean delay {:.3} ms (p95 {:.3} ms), mean queueing {:.4} ms",
        report.delivered,
        report.loss_rate * 100.0,
        report.mean_delay_ms,
        report.p95_delay_ms,
        report.mean_queue_delay_ms
    );

    let rtts = pair_rtts(&lowered, &report, &conduit_topo);
    let mut worst = rtts.clone();
    worst.sort_by(|a, b| b.simulated_rtt_ms.partial_cmp(&a.simulated_rtt_ms).unwrap());
    println!("\n  slowest simulated pairs (RTT vs zero-load propagation):");
    for p in worst.iter().take(4) {
        println!(
            "    {:<14} ↔ {:<14} {:.3} ms (propagation {:.3} ms)",
            scenario.cities()[p.site_a].name,
            scenario.cities()[p.site_b].name,
            p.simulated_rtt_ms,
            p.propagation_rtt_ms
        );
    }

    println!("\n== step 4: application outcomes from simulated RTTs ==");
    // The designed backbone carries intra-region traffic; model the gaming
    // server sitting across the conventional Internet at 3× the simulated
    // backbone RTT (the paper's cISP : Internet latency ratio).
    let rtt_samples: Vec<f64> = rtts.iter().map(|p| p.simulated_rtt_ms * 3.0).collect();
    let game = frame_time_distribution(&GameModel::default(), &rtt_samples);
    println!(
        "  gaming (thin client): mean frame {:.1} ms -> {:.1} ms with the low-latency augmentation",
        game.mean_conventional_ms, game.mean_augmented_ms
    );
    println!(
        "  worst pair {:.1} ms -> {:.1} ms; {:.0} % of pairs newly under the {PLAYABLE_FRAME_MS:.0} ms threshold",
        game.worst_conventional_ms,
        game.worst_augmented_ms,
        game.newly_playable_fraction * 100.0
    );

    let rtt_seconds: Vec<f64> = rtt_samples.iter().map(|ms| ms / 1e3).collect();
    let corpus = PageCorpus::generate_with_rtts(80, 42, &rtt_seconds);
    let baseline = replay(&corpus, ReplayScenario::Baseline);
    let cisp_replay = replay(&corpus, ReplayScenario::Cisp { factor: 1.0 / 3.0 });
    let selective = replay(&corpus, ReplayScenario::CispSelective { factor: 1.0 / 3.0 });
    println!(
        "  web (80 pages on simulated RTTs): median PLT {:.0} ms baseline, {:.0} ms on cISP ({:.0} % faster), {:.0} ms selective",
        baseline.median_plt_ms(),
        cisp_replay.median_plt_ms(),
        (1.0 - cisp_replay.median_plt_ms() / baseline.median_plt_ms()) * 100.0,
        selective.median_plt_ms()
    );
    println!(
        "  median object load {:.0} ms -> {:.0} ms",
        baseline.median_object_ms(),
        cisp_replay.median_object_ms()
    );
}
