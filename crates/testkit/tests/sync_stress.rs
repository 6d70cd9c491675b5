//! Synchronization-stress differential suite: hand-assembled images whose
//! instruction mix is dominated by FIFO send/receive and attribute-buffer
//! handoffs — exactly the traffic where the tile scheduler's ready
//! lists, cross-tile horizon, and condition-indexed wake-ups operate.
//! Every case pins **bit-identical** outputs *and* [`RunStats`] across
//! [`SimEngine::Reference`] and [`SimEngine::Compiled`], standalone and
//! — where the external horizon interacts with the cross-tile horizon —
//! under [`ClusterSim`] and [`PipelineSim`].

use proptest::prelude::*;
use puma_core::config::NodeConfig;
use puma_core::fixed::Fixed;
use puma_sim::{ClusterSim, NodeSim, PipelineRequest, PipelineSim, RunStats, SimEngine, SimMode};
use puma_testkit::harness::{seeded_values, small_node_config};
use puma_testkit::modelgen::{fanout_image, lattice_images, pingpong_ring_image};
use puma_xbar::NoiseModel;
use std::collections::HashMap;

fn cfg() -> NodeConfig {
    small_node_config(16)
}

/// Runs one single-node image under `engine`, returning every output and
/// the run statistics.
fn run_node(
    image: &puma_isa::MachineImage,
    inputs: &[(&str, Vec<f32>)],
    mode: SimMode,
    engine: SimEngine,
) -> (HashMap<String, Vec<Fixed>>, RunStats) {
    let mut sim = NodeSim::new(cfg(), image, mode, &NoiseModel::noiseless()).expect("sim builds");
    sim.set_engine(engine);
    for (name, values) in inputs {
        sim.write_input(name, values).expect("input binds");
    }
    sim.run().expect("image is deadlock-free by construction");
    let outputs = sim
        .output_names()
        .iter()
        .map(|n| (n.to_string(), sim.read_output_fixed(n).expect("output binds")))
        .collect();
    (outputs, sim.stats().clone())
}

/// Asserts both engines agree bit-for-bit on a single-node image, in
/// both simulation modes, and returns the functional outputs.
fn assert_node_engines_agree(
    image: &puma_isa::MachineImage,
    inputs: &[(&str, Vec<f32>)],
) -> HashMap<String, Vec<Fixed>> {
    let mut functional_out = HashMap::new();
    for mode in [SimMode::Functional, SimMode::Timing] {
        let (ref_out, ref_stats) = run_node(image, inputs, mode, SimEngine::Reference);
        let engine = SimEngine::Compiled;
        let (out, stats) = run_node(image, inputs, mode, engine);
        assert_eq!(ref_out, out, "{mode:?} {engine:?}: outputs diverged");
        assert_eq!(ref_stats, stats, "{mode:?} {engine:?}: RunStats diverged");
        if mode == SimMode::Functional {
            functional_out = ref_out;
        }
    }
    functional_out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// FIFO ping-pong chains: a token ring of tile control units. The
    /// token must come back bit-identical, with identical stats, on both
    /// engines.
    #[test]
    fn ring_engines_agree(
        tiles in 2usize..6,
        rounds in 1usize..6,
        width in 1usize..8,
        seed in 0u64..1000,
    ) {
        let image = pingpong_ring_image(tiles, rounds, width);
        let token = seeded_values(width, seed);
        let out = assert_node_engines_agree(&image, &[("token", token.clone())]);
        let got: Vec<f32> = out["token"].iter().copied().map(Fixed::to_f32).collect();
        for (g, w) in got.iter().zip(token.iter()) {
            // The ring only moves words; one Q4.12 quantization applies.
            prop_assert!((g - w).abs() < 0.001, "token corrupted: {g} vs {w}");
        }
    }

    /// Multi-consumer attribute-buffer fan-out: producer stores with
    /// count = N, N consumers consume-read and accumulate. Exercises
    /// multi-waiter wake-ups (including failed retries re-parking) and
    /// writer blocking on unconsumed words.
    #[test]
    fn fanout_engines_agree(
        consumers in 1usize..4,
        rounds in 1usize..6,
        width in 1usize..6,
        double_buffer in any::<bool>(),
    ) {
        let image = fanout_image(consumers, rounds, width, double_buffer);
        let out = assert_node_engines_agree(&image, &[]);
        // All consumers read the same rand stream, so the sums agree.
        for c in 1..consumers {
            prop_assert_eq!(&out["acc0"], &out[&format!("acc{c}")]);
        }
    }

    /// Cross-tile producer/consumer lattices on one node: NoC relays
    /// chained through per-tile handoffs.
    #[test]
    fn lattice_engines_agree(
        tiles in 2usize..7,
        rounds in 1usize..5,
        width in 1usize..6,
    ) {
        let image = lattice_images(tiles, rounds, width, 1).remove(0);
        assert_node_engines_agree(&image, &[]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The same lattice sharded across cluster nodes: inter-node packets
    /// replace NoC hops, so the conservative *external* horizon interacts
    /// with the per-tile horizons. Cluster runs must agree across engines
    /// and stay bit-identical to the single-node run.
    #[test]
    fn sharded_lattice_engines_agree(
        shards in 2usize..5,
        per_node in 1usize..3,
        rounds in 1usize..4,
        width in 1usize..5,
    ) {
        let tiles = shards * per_node;
        let single = lattice_images(tiles, rounds, width, 1).remove(0);
        let (single_out, _) = run_node(&single, &[], SimMode::Functional, SimEngine::default());

        let images = lattice_images(tiles, rounds, width, shards);
        let run_cluster = |mode: SimMode, engine: SimEngine| {
            let mut cluster = ClusterSim::new(cfg(), &images, mode, &NoiseModel::noiseless())
                .expect("cluster builds");
            cluster.set_engine(engine);
            cluster.run().expect("lattice is deadlock-free");
            let out: HashMap<String, Vec<Fixed>> = cluster
                .output_names()
                .iter()
                .map(|n| (n.to_string(), cluster.read_output_fixed(n).expect("output binds")))
                .collect();
            (out, cluster.stats().clone())
        };
        for mode in [SimMode::Functional, SimMode::Timing] {
            let (ref_out, ref_stats) = run_cluster(mode, SimEngine::Reference);
            let engine = SimEngine::Compiled;
            let (out, stats) = run_cluster(mode, engine);
            prop_assert_eq!(&ref_out, &out, "{:?} {:?}: cluster outputs diverged", mode, engine);
            prop_assert_eq!(
                &ref_stats, &stats,
                "{:?} {:?}: cluster RunStats diverged", mode, engine
            );
            if shards > 1 {
                prop_assert!(ref_stats.internode_words > 0, "shards must talk over the link");
            }
            if mode == SimMode::Functional {
                prop_assert_eq!(
                    &ref_out, &single_out,
                    "sharding must not change results"
                );
            }
        }
    }

    /// The sharded lattice served as a *pipeline* with several requests in
    /// flight: external horizons, per-request segments, and held packets
    /// all interact with per-tile horizons. The full report — outputs,
    /// start/finish cycles, per-stage occupancy, overlap — must agree
    /// across engines.
    #[test]
    fn pipelined_lattice_engines_agree(
        shards in 2usize..4,
        rounds in 1usize..4,
        width in 1usize..5,
        requests in 2usize..5,
    ) {
        let images = lattice_images(shards, rounds, width, shards);
        let pipeline_requests: Vec<PipelineRequest> = (0..requests)
            .map(|i| PipelineRequest { arrival: (i as u64) * 50, writes: Vec::new() })
            .collect();
        let serve = |engine: SimEngine| {
            let mut sim =
                PipelineSim::new(cfg(), &images, SimMode::Functional, &NoiseModel::noiseless())
                    .expect("pipeline builds");
            sim.set_engine(engine);
            sim.serve(&[], &pipeline_requests, None).expect("pipeline serves")
        };
        let reference = serve(SimEngine::Reference);
        let engine = SimEngine::Compiled;
        let other = serve(engine);
        prop_assert_eq!(reference.shed, other.shed);
        prop_assert_eq!(reference.max_concurrent, other.max_concurrent);
        prop_assert_eq!(reference.makespan, other.makespan);
        prop_assert_eq!(
            &reference.stages, &other.stages,
            "{:?}: stage occupancy diverged", engine
        );
        prop_assert_eq!(reference.results.len(), other.results.len());
        for (i, (a, b)) in reference.results.iter().zip(other.results.iter()).enumerate() {
            prop_assert_eq!(a.admitted, b.admitted, "request {} admission diverged", i);
            prop_assert_eq!(a.start, b.start, "request {} start diverged", i);
            prop_assert_eq!(a.finish, b.finish, "request {} finish diverged", i);
            prop_assert_eq!(&a.outputs, &b.outputs, "request {} outputs diverged", i);
            prop_assert_eq!(&a.stats, &b.stats, "request {} stats diverged", i);
        }
    }
}
