//! Integration pins for the conduit-grounded fiber layer: the conduit-backed
//! topology is bit-compatible with the matrix-backed design path, the
//! conduit lowering scales as O(segments) rather than O(n²) pair-mesh
//! links, every worker count stays bit-identical on the conduit-lowered
//! network, and an uncongested conduit-lowered run reproduces the
//! mesh-lowered per-pair RTTs up to per-hop serialization.

use cisp::core::evaluate::{lower, pair_rtts, EvaluateConfig};
use cisp::core::scenario::{population_product_traffic, Scenario, ScenarioConfig};
use cisp::netsim::sim::{SimConfig, Simulation};
use cisp::weather::simulate::{conduit_cut_analysis_on, most_loaded_conduits};

/// Worker counts under test: `CISP_TEST_WORKERS` (comma-separated) or the
/// default `1,2,4` — the same convention as `tests/sim_pipeline_parity.rs`.
fn test_worker_counts() -> Vec<usize> {
    std::env::var("CISP_TEST_WORKERS")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&w| w > 0)
                .collect::<Vec<usize>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4])
}

fn eval_config() -> EvaluateConfig {
    EvaluateConfig {
        design_aggregate_gbps: 4.0,
        load_fraction: 0.6,
        sim: SimConfig {
            duration_s: 0.05,
            ..SimConfig::default()
        },
        ..EvaluateConfig::default()
    }
}

#[test]
fn complete_conduit_graph_reproduces_the_matrix_backed_constructor() {
    use cisp::core::topology::{FiberLink, FiberNetwork, HybridTopology};
    use cisp::geo::{geodesic, GeoPoint};

    // Any metric fiber matrix can be realised as a complete conduit graph
    // whose segments carry the per-pair route lengths directly; the
    // conduit-backed constructor must then reproduce the matrix-backed
    // one bit for bit (the direct segment always wins Dijkstra under the
    // triangle inequality, so no re-summation happens).
    let sites: Vec<GeoPoint> = vec![
        GeoPoint::new(41.9, -87.6),
        GeoPoint::new(39.1, -94.6),
        GeoPoint::new(32.8, -96.8),
        GeoPoint::new(39.7, -105.0),
        GeoPoint::new(35.2, -101.8),
    ];
    let n = sites.len();
    // Physical route lengths at ~1.27× geodesic (strictly metric), and the
    // latency-equivalent matrix derived from them the same way the conduit
    // constructor derives it (route × 1.5), so bitwise parity is exact.
    let route_km: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| geodesic::distance_km(sites[i], sites[j]) * 1.2667)
                .collect()
        })
        .collect();
    let fiber_matrix: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..n).map(|j| route_km[i][j] * 1.5).collect())
        .collect();
    let mut segments = Vec::new();
    for (i, row) in route_km.iter().enumerate() {
        for (j, &km) in row.iter().enumerate().skip(i + 1) {
            segments.push(FiberLink {
                a: i,
                b: j,
                route_km: km,
            });
        }
    }
    let fiber = FiberNetwork::from_parts(sites.clone(), segments);
    let traffic = vec![vec![1.0; n]; n];
    let conduit = HybridTopology::with_conduits(sites.clone(), traffic.clone(), &fiber);
    let matrix = HybridTopology::new(sites, traffic, fiber_matrix);
    assert_eq!(conduit.fiber_matrix(), matrix.fiber_matrix());
    assert_eq!(conduit.effective_matrix(), matrix.effective_matrix());
    // Every pair's stored route is the single direct segment.
    let layer = conduit.conduits().unwrap();
    for i in 0..n {
        for j in (i + 1)..n {
            assert_eq!(layer.hops(i, j).len(), 1, "pair ({i}, {j})");
        }
    }
}

#[test]
fn conduit_lowering_is_o_segments_not_o_n_squared() {
    let scenario = Scenario::build(&ScenarioConfig::tiny_test());
    let outcome = scenario.design(300.0);
    let conduit_topo = scenario.conduit_backed_topology(&outcome);
    let traffic = population_product_traffic(scenario.cities());
    let config = eval_config();

    let mesh = lower(&outcome.topology, &traffic, &config);
    let conduit = lower(&conduit_topo, &traffic, &config);
    let n = scenario.cities().len();
    let mw = outcome.topology.mw_links().len();
    let segments = scenario.fiber().links().len();

    // The mesh lowering carries one bidirectional link per site pair; the
    // conduit lowering one per physical segment — the scaling win.
    assert_eq!(mesh.network.num_links(), 2 * (mw + n * (n - 1) / 2));
    assert_eq!(conduit.network.num_links(), 2 * (mw + segments));
    assert!(
        conduit.network.num_links() < mesh.network.num_links(),
        "conduit lowering ({} links) must beat the pair mesh ({} links)",
        conduit.network.num_links(),
        mesh.network.num_links()
    );
    assert!(
        conduit.network.num_links() < n * n,
        "lowered link count must stay below the n² pair mesh"
    );
    // Same demand set either way.
    assert_eq!(mesh.demands.len(), conduit.demands.len());
    assert_eq!(mesh.demand_pairs, conduit.demand_pairs);
}

#[test]
fn exec_modes_stay_bit_identical_on_the_conduit_lowered_backbone() {
    let scenario = Scenario::build(&ScenarioConfig::tiny_test());
    let outcome = scenario.design(300.0);
    let conduit_topo = scenario.conduit_backed_topology(&outcome);
    let traffic = population_product_traffic(scenario.cities());
    let config = eval_config();
    let lowered = lower(&conduit_topo, &traffic, &config);

    let serial = {
        let mut cfg = config.sim;
        cfg.workers = 1;
        Simulation::new(lowered.network.clone(), lowered.demands.clone(), cfg).run()
    };
    assert!(serial.delivered > 0);
    for workers in test_worker_counts() {
        let mut cfg = config.sim;
        cfg.workers = workers;
        let report = Simulation::new(lowered.network.clone(), lowered.demands.clone(), cfg).run();
        assert_eq!(serial, report, "workers {workers}");
    }
}

#[test]
fn uncongested_conduit_rtts_match_the_mesh_lowering() {
    let scenario = Scenario::build(&ScenarioConfig::tiny_test());
    let outcome = scenario.design(300.0);
    let conduit_topo = scenario.conduit_backed_topology(&outcome);
    let traffic = population_product_traffic(scenario.cities());
    // Nearly unloaded: queueing is serialization-scale noise, so the two
    // lowerings differ only in how many fiber hops a fallback crosses.
    let config = EvaluateConfig {
        load_fraction: 0.02,
        ..eval_config()
    };

    let mesh = lower(&outcome.topology, &traffic, &config);
    let conduit = lower(&conduit_topo, &traffic, &config);
    let mesh_rtts = pair_rtts(&mesh, &mesh.simulation().run(), &outcome.topology);
    let conduit_rtts = pair_rtts(&conduit, &conduit.simulation().run(), &conduit_topo);
    assert_eq!(mesh_rtts.len(), conduit_rtts.len());

    for (m, c) in mesh_rtts.iter().zip(&conduit_rtts) {
        assert_eq!((m.site_a, m.site_b), (c.site_a, c.site_b));
        // Propagation RTTs come from the same (bit-identical) effective
        // matrix: exact equality.
        assert_eq!(m.propagation_rtt_ms, c.propagation_rtt_ms);
        // Simulated RTTs re-sum the distance hop by hop (summation ulps)
        // and pay one ~10 ns serialization per extra conduit hop; 0.01 ms
        // covers both against RTTs tens of ms long.
        assert!(
            (m.simulated_rtt_ms - c.simulated_rtt_ms).abs() < 0.01,
            "pair ({}, {}): mesh {} vs conduit {}",
            m.site_a,
            m.site_b,
            m.simulated_rtt_ms,
            c.simulated_rtt_ms
        );
    }
    assert!(conduit_rtts.iter().any(|p| p.delivered > 0));
}

#[test]
fn conduit_cuts_on_the_designed_backbone_degrade_delivery() {
    let scenario = Scenario::build(&ScenarioConfig::tiny_test());
    // A sparse MW spine: under a tight tower budget only the hottest pairs
    // get microwave, so the remaining traffic genuinely rides the conduits
    // (at 300 towers the spine absorbs every route and no conduit loads).
    let outcome = scenario.design(80.0);
    let conduit_topo = scenario.conduit_backed_topology(&outcome);
    let traffic = population_product_traffic(scenario.cities());
    // Keep fiber capacity in demand range so rerouted fallback traffic is
    // felt, as on a real constrained conduit system.
    let config = EvaluateConfig {
        fiber_rate_bps: 2e9,
        ..eval_config()
    };
    let lowered = lower(&conduit_topo, &traffic, &config);
    let baseline = lowered.simulation().run();
    let ranked = most_loaded_conduits(&lowered, &baseline);
    assert!(!ranked.is_empty());
    let report = conduit_cut_analysis_on(
        &lowered,
        &[vec![ranked[0]], ranked.iter().copied().take(3).collect()],
    );
    for cut in &report.cuts {
        assert!(
            cut.mean_delay_ms > report.baseline.mean_delay_ms
                || cut.loss_rate > report.baseline.loss_rate,
            "cut of {} loaded segment(s) must strictly degrade delivery",
            cut.cut_segments
        );
    }
}
