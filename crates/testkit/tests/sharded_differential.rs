//! Sharded differential suite: a model compiled with
//! `Partitioning::Sharded` and executed across 2 or 4 `NodeSim`s under
//! `ClusterSim` must produce **bit-identical** outputs to the single-node
//! run. Sharding is a pure renumbering of the compiled image — every core
//! executes exactly the instruction stream it would on one big node — so
//! any divergence is a shard-rewrite or cluster-scheduler bug, never
//! tolerance noise.
//!
//! The suite also pins the conservation law `NoC words + interconnect
//! words (sharded) = NoC words (single-node)` — every cross-tile transfer
//! rides exactly one of the two networks — exactly equal energy and busy
//! cycles in every component but those two networks, and that
//! timing-mode sharded runs account nonzero inter-node transfer cycles
//! and energy.

use proptest::prelude::*;
use puma_compiler::CompilerOptions;
use puma_sim::{EnergyComponent, SimEngine, SimMode};
use puma_testkit::harness::{default_engine, run_sharded, run_with_engine, small_node_config};
use puma_testkit::modelgen;

/// Runs `case` on one node and sharded across `nodes`, asserting exact
/// output equality plus the counter conservation laws.
fn assert_sharded_matches_single(case: &modelgen::ModelCase, nodes: usize, mode: SimMode) {
    // dim-8 crossbars spread even the small fuzzed models over many tiles,
    // so 2- and 4-node shards all receive real work.
    let cfg = small_node_config(8);
    let options = CompilerOptions::default();
    let engine = default_engine();
    let (single_out, single_stats) =
        run_with_engine(&case.model, &cfg, &options, &case.inputs, mode, engine)
            .expect("single-node run");
    let (sharded_out, sharded_stats) =
        run_sharded(&case.model, &cfg, &options, &case.inputs, nodes, mode, engine)
            .expect("sharded run");
    assert_eq!(single_out, sharded_out, "{nodes}-node outputs must be bit-identical");
    // Same programs, same work: only the transport of cross-tile edges
    // differs (NoC on one node, NoC + interconnect sharded).
    assert_eq!(single_stats.total_instructions(), sharded_stats.total_instructions());
    assert_eq!(single_stats.mvmu_activations, sharded_stats.mvmu_activations);
    assert_eq!(single_stats.shared_memory_words, sharded_stats.shared_memory_words);
    assert_eq!(
        single_stats.network_words,
        sharded_stats.network_words + sharded_stats.internode_words,
        "every cross-tile word rides exactly one network"
    );
    // Energy is exact integer attojoules, so every component the shard
    // boundary does not move sums to exactly the same value.
    for c in EnergyComponent::ALL {
        if matches!(c, EnergyComponent::Network | EnergyComponent::Interconnect) {
            continue;
        }
        assert_eq!(
            single_stats.energy.component_nj(c),
            sharded_stats.energy.component_nj(c),
            "{nodes}-node {c:?} energy"
        );
        assert_eq!(
            single_stats.energy.component_busy(c),
            sharded_stats.energy.component_busy(c),
            "{nodes}-node {c:?} busy cycles"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fuzzed MLPs sharded across 2 nodes ≡ single node.
    #[test]
    fn two_node_mlp_matches_single_node(case in modelgen::mlp_case()) {
        assert_sharded_matches_single(&case, 2, SimMode::Functional);
    }

    /// Fuzzed MLPs sharded across 4 nodes ≡ single node.
    #[test]
    fn four_node_mlp_matches_single_node(case in modelgen::mlp_case()) {
        assert_sharded_matches_single(&case, 4, SimMode::Functional);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Fuzzed unrolled LSTM stacks sharded across 2 and 4 nodes ≡ single
    /// node (recurrent weight reuse sends data back and forth across the
    /// shard boundary, the hardest traffic pattern).
    #[test]
    fn sharded_lstms_match_single_node(case in modelgen::lstm_case()) {
        assert_sharded_matches_single(&case, 2, SimMode::Functional);
        assert_sharded_matches_single(&case, 4, SimMode::Functional);
    }

    /// All engines agree on the same sharded cluster run — neither the
    /// run-ahead external-horizon gating nor the compiled pre-decode may
    /// change semantics.
    #[test]
    fn cluster_engines_agree(case in modelgen::mlp_case()) {
        let cfg = small_node_config(8);
        let options = CompilerOptions::default();
        let (ref_out, ref_stats) = run_sharded(
            &case.model, &cfg, &options, &case.inputs, 2,
            SimMode::Functional, SimEngine::Reference,
        ).expect("reference cluster run");
        let engine = SimEngine::Compiled;
        let (out, stats) = run_sharded(
            &case.model, &cfg, &options, &case.inputs, 2,
            SimMode::Functional, engine,
        ).expect("optimized-engine cluster run");
        prop_assert_eq!(
            &ref_out, &out,
            "{:?}: cluster outputs must be bit-identical", engine
        );
        prop_assert_eq!(
            &ref_stats, &stats,
            "{:?}: cluster RunStats must be bit-identical", engine
        );
    }
}

/// The fixed zoo corpus (Table 5 families) sharded across 2 and 4 nodes,
/// functional and timing mode.
#[test]
fn zoo_corpus_shards_bit_identically() {
    for case in modelgen::simulable_zoo_cases(37) {
        for nodes in [2usize, 4] {
            for mode in [SimMode::Functional, SimMode::Timing] {
                assert_sharded_matches_single(&case, nodes, mode);
            }
        }
    }
}

/// Timing-mode sharded runs must account the interconnect: nonzero
/// transfer words, busy cycles, and energy, and a completion time that
/// exceeds the single-node run (the link is slower than the NoC).
#[test]
fn timing_mode_accounts_internode_transfers() {
    let case = &modelgen::simulable_zoo_cases(11)[0]; // MLP-64-150-150-14
    let cfg = small_node_config(8);
    let options = CompilerOptions::default();
    let engine = default_engine();
    let (_, single) =
        run_with_engine(&case.model, &cfg, &options, &case.inputs, SimMode::Timing, engine)
            .expect("single-node timing run");
    let (_, sharded) =
        run_sharded(&case.model, &cfg, &options, &case.inputs, 2, SimMode::Timing, engine)
            .expect("sharded timing run");
    assert!(sharded.internode_words > 0, "the shard boundary must carry traffic");
    assert!(sharded.energy.component_nj(EnergyComponent::Interconnect) > 0.0);
    assert!(sharded.energy.component_busy(EnergyComponent::Interconnect) > 0);
    assert!(
        sharded.cycles > single.cycles,
        "chip-to-chip latency must show up in the critical path ({} vs {})",
        sharded.cycles,
        single.cycles
    );
}
