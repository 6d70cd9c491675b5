//! Engine-differential suite: the compiled execution engine must be
//! **bit-identical** to the reference per-instruction event loop — same
//! outputs, same cycle counts, same per-component energy, same blocked
//! cycles — on fuzzed models from every Table 5 family. Its run-ahead
//! scheduler only reorders *when* core-local instructions execute
//! relative to the event queue (and its pre-decoded programs only change
//! how they are fetched), never *what* they compute or when
//! synchronization happens, so any divergence here is a scheduler or
//! segment-builder bug, not tolerance noise.

use proptest::prelude::*;
use puma_core::config::NodeConfig;
use puma_nn::cnn::build_cnn;
use puma_sim::{NodeSim, RunStats, SimEngine, SimMode};
use puma_testkit::harness::{run_with_engine, seeded_values, small_node_config};
use puma_testkit::modelgen;
use puma_xbar::NoiseModel;

/// Runs one model case under both engines in `mode` and asserts
/// exact equality of outputs and statistics.
fn assert_engines_agree(case: &modelgen::ModelCase, mode: SimMode) {
    let cfg = small_node_config(32);
    let options = puma_compiler::CompilerOptions::default();
    let (ref_out, ref_stats) =
        run_with_engine(&case.model, &cfg, &options, &case.inputs, mode, SimEngine::Reference)
            .expect("reference engine runs");
    let engine = SimEngine::Compiled;
    let (out, stats) = run_with_engine(&case.model, &cfg, &options, &case.inputs, mode, engine)
        .expect("optimized engine runs");
    assert_eq!(ref_out, out, "{engine:?}: outputs must be bit-identical");
    assert_eq!(ref_stats, stats, "{engine:?}: RunStats must be bit-identical");
    assert!(ref_stats.cycles > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fuzzed MLPs: compiled ≡ reference, functionally and in stats.
    #[test]
    fn compiled_matches_reference_on_mlps(case in modelgen::mlp_case()) {
        assert_engines_agree(&case, SimMode::Functional);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Fuzzed unrolled LSTM stacks: compiled ≡ reference.
    #[test]
    fn compiled_matches_reference_on_lstms(case in modelgen::lstm_case()) {
        assert_engines_agree(&case, SimMode::Functional);
    }

    /// Timing mode takes different store/receive paths (probe payloads);
    /// the engines must still agree cycle-for-cycle.
    #[test]
    fn compiled_matches_reference_in_timing_mode(case in modelgen::mlp_case()) {
        assert_engines_agree(&case, SimMode::Timing);
    }

    /// Fuzzed LeNet-class CNNs through the control-flow code generator:
    /// heavy branch/indexed-addressing loops, the worst case for a
    /// run-ahead scheduler.
    #[test]
    fn compiled_matches_reference_on_cnns(spec in modelgen::cnn_spec(), seed in 0u64..500) {
        let cfg = NodeConfig::default();
        let cnn = build_cnn(&spec, &cfg, true, seed).unwrap();
        let (c, h, w) = cnn.input_shape;
        let image: Vec<f32> = seeded_values(c * h * w, seed);
        let run = |engine: SimEngine| -> (Vec<f32>, RunStats) {
            let mut sim =
                NodeSim::new(cfg, &cnn.image, SimMode::Functional, &NoiseModel::noiseless())
                    .unwrap();
            sim.set_engine(engine);
            sim.write_input(&cnn.input_name, &image).unwrap();
            sim.run().unwrap();
            (sim.read_output(&cnn.output_name).unwrap(), sim.stats().clone())
        };
        let (ref_logits, ref_stats) = run(SimEngine::Reference);
        let engine = SimEngine::Compiled;
        let (logits, stats) = run(engine);
        prop_assert_eq!(&ref_logits, &logits, "{:?}: CNN logits must be bit-identical", engine);
        prop_assert_eq!(&ref_stats, &stats, "{:?}: CNN RunStats must be bit-identical", engine);
    }
}

/// The fixed zoo corpus (multi-tile MLP/LSTM/RNN images with real
/// send/receive traffic) agrees across engines in both modes.
#[test]
fn engines_agree_on_zoo_corpus() {
    for case in modelgen::simulable_zoo_cases(23) {
        for mode in [SimMode::Functional, SimMode::Timing] {
            let cfg = NodeConfig::default();
            let options = puma_compiler::CompilerOptions::default();
            let (ref_out, ref_stats) = run_with_engine(
                &case.model,
                &cfg,
                &options,
                &case.inputs,
                mode,
                SimEngine::Reference,
            )
            .unwrap_or_else(|e| panic!("{} reference run failed: {e:?}", case.model.name()));
            let engine = SimEngine::Compiled;
            let (out, stats) =
                run_with_engine(&case.model, &cfg, &options, &case.inputs, mode, engine)
                    .unwrap_or_else(|e| {
                        panic!("{} {engine:?} run failed: {e:?}", case.model.name())
                    });
            assert_eq!(ref_out, out, "{} {mode:?} {engine:?}: outputs diverged", case.model.name());
            assert_eq!(
                ref_stats,
                stats,
                "{} {mode:?} {engine:?}: stats diverged",
                case.model.name()
            );
            assert!(ref_stats.blocked_cycles > 0 || ref_stats.network_words == 0);
        }
    }
}
