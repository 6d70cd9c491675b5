//! Overlap-differential suite: several agents of one tile synchronizing
//! over the attribute buffer, through **disjoint** and through
//! **partially overlapping** word ranges. Fuzzed disjoint-range
//! producer/consumer pair images must stay **bit-identical** — outputs
//! *and* [`RunStats`] — across [`SimEngine::Reference`] and
//! [`SimEngine::Compiled`], and so must the partially-overlapping
//! ping-pong adversary (where running one agent past the other's turn
//! would reorder a store past an unconsumed word). Each shape also runs
//! under [`ClusterSim`] and [`PipelineSim`], where the external horizon
//! stacks on top of the cross-tile horizon.

use proptest::prelude::*;
use puma_core::config::NodeConfig;
use puma_core::fixed::Fixed;
use puma_sim::{ClusterSim, NodeSim, PipelineRequest, PipelineSim, RunStats, SimEngine, SimMode};
use puma_testkit::harness::small_node_config;
use puma_testkit::modelgen::{disjoint_pairs_image, disjoint_shard_images, overlap_pingpong_image};
use puma_xbar::NoiseModel;
use std::collections::HashMap;

/// Test config with enough cores per tile for the widest pair image
/// (3 pairs + the shard chain's extra core).
fn cfg() -> NodeConfig {
    let mut cfg = small_node_config(16);
    cfg.tile.cores_per_tile = 8;
    cfg
}

/// Runs one single-node image under `engine`, returning every output and
/// the run statistics.
fn run_node(
    image: &puma_isa::MachineImage,
    mode: SimMode,
    engine: SimEngine,
) -> (HashMap<String, Vec<Fixed>>, RunStats) {
    let mut sim = NodeSim::new(cfg(), image, mode, &NoiseModel::noiseless()).expect("sim builds");
    sim.set_engine(engine);
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
fn assert_node_engines_agree(image: &puma_isa::MachineImage) -> HashMap<String, Vec<Fixed>> {
    let mut functional_out = HashMap::new();
    for mode in [SimMode::Functional, SimMode::Timing] {
        let (ref_out, ref_stats) = run_node(image, mode, SimEngine::Reference);
        let engine = SimEngine::Compiled;
        let (out, stats) = run_node(image, mode, engine);
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

    /// Fuzzed disjoint-range pair images: every pair is its own conflict
    /// group, so the compiled engine may slide one pair's instructions
    /// past another pair's pending same-tile deliveries — and must still
    /// be bit-identical to the reference interleaving.
    #[test]
    fn disjoint_pairs_engines_agree(
        tiles in 1usize..5,
        pairs in 1usize..4,
        rounds in 1usize..6,
        width in 1usize..7,
    ) {
        let image = disjoint_pairs_image(tiles, pairs, rounds, width);
        let out = assert_node_engines_agree(&image);
        prop_assert_eq!(out.len(), tiles * pairs);
    }

    /// The partially-overlapping ping-pong adversary: the reply range
    /// reuses the upper half of the produced range, so the cores must
    /// take strict turns. The attribute protocol forces a unique
    /// schedule, so all engines must agree exactly.
    #[test]
    fn overlapping_pingpong_engines_agree(
        tiles in 1usize..5,
        rounds in 1usize..6,
        width in 2usize..9,
    ) {
        let image = overlap_pingpong_image(tiles, rounds, width);
        let out = assert_node_engines_agree(&image);
        // Strict alternation: the pong accumulator sums the raw rand
        // vectors, the ping accumulator sums the echoed replies — the
        // reply is the loaded data itself, so the sums agree.
        for t in 0..tiles {
            prop_assert_eq!(&out[&format!("t{t}ping")], &out[&format!("t{t}pong")]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Disjoint pairs sharded across cluster nodes and coupled by a
    /// cross-node token chain: the conservative external horizon stacks
    /// on the cross-tile horizon. Cluster runs must agree
    /// across engines in both modes.
    #[test]
    fn sharded_pairs_engines_agree(
        nodes in 2usize..5,
        pairs in 1usize..4,
        rounds in 1usize..4,
        width in 1usize..5,
    ) {
        let images = disjoint_shard_images(nodes, pairs, rounds, width);
        let run_cluster = |mode: SimMode, engine: SimEngine| {
            let mut cluster = ClusterSim::new(cfg(), &images, mode, &NoiseModel::noiseless())
                .expect("cluster builds");
            cluster.set_engine(engine);
            cluster.run().expect("chain is deadlock-free");
            let out: HashMap<String, Vec<Fixed>> = cluster
                .output_names()
                .iter()
                .map(|n| (n.to_string(), cluster.read_output_fixed(n).expect("output binds")))
                .collect();
            (out, cluster.stats().clone())
        };
        for mode in [SimMode::Functional, SimMode::Timing] {
            let (ref_out, ref_stats) = run_cluster(mode, SimEngine::Reference);
            prop_assert!(ref_stats.internode_words > 0, "chain must talk over the link");
            prop_assert_eq!(ref_out.len(), nodes * pairs + 1);
            let engine = SimEngine::Compiled;
            let (out, stats) = run_cluster(mode, engine);
            prop_assert_eq!(&ref_out, &out, "{:?} {:?}: cluster outputs diverged", mode, engine);
            prop_assert_eq!(
                &ref_stats, &stats,
                "{:?} {:?}: cluster RunStats diverged", mode, engine
            );
        }
    }

    /// The sharded pair/chain images served as a pipeline with several
    /// requests in flight: per-request segments and held packets interact
    /// with the tile scheduler. The full report must agree across
    /// engines.
    #[test]
    fn pipelined_pairs_engines_agree(
        nodes in 2usize..4,
        pairs in 1usize..3,
        rounds in 1usize..4,
        width in 1usize..5,
        requests in 2usize..5,
    ) {
        let images = disjoint_shard_images(nodes, pairs, rounds, width);
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
