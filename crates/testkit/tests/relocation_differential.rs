//! Relocation differential suite: loading a compiled image at any tile
//! base must be **bit-identical** to loading it at base 0 — same
//! outputs, same cycle counts, same per-component energy. Relocation
//! ([`puma_compiler::relocate_image`]) is a pure renumbering: event
//! priorities shift uniformly (preserving every same-cycle tie-break),
//! per-core RNG streams are seeded by tile-*local* core index, crossbar
//! noise is keyed by slice position inside the model, and the prepended
//! idle tiles never prime — so any divergence here is a renumbering bug,
//! not tolerance noise.
//!
//! The suite honours `PUMA_ENGINE`, so CI's two-engine matrix pins the
//! invariant under the reference and compiled engines.

use proptest::prelude::*;
use puma_compiler::relocate_image;
use puma_core::config::NodeConfig;
use puma_nn::cnn::build_cnn;
use puma_sim::{NodeSim, SimMode};
use puma_testkit::harness::{default_engine, run_relocated, seeded_values, small_node_config};
use puma_testkit::modelgen;
use puma_xbar::NoiseModel;

/// Runs one model case at tile base 0 and at `base` under the suite
/// engine and asserts exact equality of outputs and statistics.
fn assert_relocation_invariant(
    case: &modelgen::ModelCase,
    cfg: &NodeConfig,
    base: usize,
    mode: SimMode,
) {
    let options = puma_compiler::CompilerOptions::default();
    let engine = default_engine();
    // Both legs run on the *same machine*: widen the fabric once so the
    // relocated footprint fits, instead of letting each leg grow its own
    // tile count (mesh geometry derives from capacity).
    let compiled = puma_compiler::compile(&case.model, cfg, &options).expect("compile");
    let mut cfg = *cfg;
    cfg.tiles_per_node = cfg.tiles_per_node.max(compiled.stats.tiles_used + base);
    let cfg = &cfg;
    let (out0, stats0) = run_relocated(&case.model, cfg, &options, &case.inputs, 0, mode, engine)
        .expect("base-0 run");
    let (out, stats) = run_relocated(&case.model, cfg, &options, &case.inputs, base, mode, engine)
        .expect("relocated run");
    assert_eq!(out0, out, "outputs must be bit-identical at base {base}");
    assert_eq!(stats0, stats, "RunStats must be bit-identical at base {base}");
    assert!(stats0.cycles > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fuzzed MLPs: relocate(base) ∘ run ≡ run at base 0.
    #[test]
    fn relocated_mlps_match_base0(case in modelgen::mlp_case(), base in 1usize..12) {
        assert_relocation_invariant(&case, &small_node_config(32), base, SimMode::Functional);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Fuzzed unrolled LSTM stacks survive relocation bit-exactly.
    #[test]
    fn relocated_lstms_match_base0(case in modelgen::lstm_case(), base in 1usize..8) {
        assert_relocation_invariant(&case, &small_node_config(32), base, SimMode::Functional);
    }

    /// Timing mode charges through different store/receive paths; the
    /// relocated run must still agree cycle-for-cycle.
    #[test]
    fn relocated_mlps_match_base0_in_timing_mode(
        case in modelgen::mlp_case(),
        base in 1usize..8,
    ) {
        assert_relocation_invariant(&case, &small_node_config(32), base, SimMode::Timing);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Fuzzed LeNet-class CNNs compile through the control-flow code
    /// generator (branch-heavy loops, indexed addressing); their images
    /// relocate bit-exactly too.
    #[test]
    fn relocated_cnns_match_base0(spec in modelgen::cnn_spec(), seed in 0u64..500) {
        let cfg = NodeConfig::default();
        let cnn = build_cnn(&spec, &cfg, true, seed).unwrap();
        let (c, h, w) = cnn.input_shape;
        let image_in: Vec<f32> = seeded_values(c * h * w, seed);
        let engine = default_engine();
        let base = 3 + (seed as usize % 5);
        // One machine for both legs: size the fabric for the farthest base
        // up front so mesh geometry matches between the runs.
        let mut cfg = cfg;
        cfg.tiles_per_node = cfg.tiles_per_node.max(cnn.image.tiles.len() + base);
        let run = |base: usize| {
            let relocated = relocate_image(&cnn.image, base).unwrap();
            let mut sim =
                NodeSim::new(cfg, &relocated, SimMode::Functional, &NoiseModel::noiseless())
                    .unwrap();
            sim.set_engine(engine);
            sim.write_input(&cnn.input_name, &image_in).unwrap();
            sim.run().unwrap();
            (sim.read_output(&cnn.output_name).unwrap(), sim.stats().clone())
        };
        let (logits0, stats0) = run(0);
        let (logits, stats) = run(base);
        prop_assert_eq!(logits0, logits, "CNN outputs must be bit-identical at base {}", base);
        prop_assert_eq!(stats0, stats, "CNN RunStats must be bit-identical at base {}", base);
    }
}

/// The Table 5 zoo entries (MLP / LSTM / RNN families) relocate
/// bit-exactly at several bases.
#[test]
fn relocated_zoo_models_match_base0() {
    let cfg = NodeConfig::default();
    for (case, base) in modelgen::simulable_zoo_cases(7).iter().zip([3usize, 9, 17]) {
        assert_relocation_invariant(case, &cfg, base, SimMode::Functional);
    }
}
