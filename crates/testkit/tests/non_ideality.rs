//! Non-ideality determinism suite.
//!
//! Two contracts from the analog non-ideality layer:
//!
//! 1. **Disabled ≡ absent**: an ideal [`NonIdealityConfig`] (all knobs
//!    zero, any seed) is bit-identical — outputs *and* [`RunStats`] — to
//!    the config-absent default, under both engines. The simulator
//!    routes ideal configs through the untouched exact MVM path, so this
//!    pins that the layer cannot perturb the existing differential
//!    suites.
//! 2. **Replay**: a fixed `(config, seed)` pair replays bit-exactly
//!    across runs and across engines. Perturbations are counter-based
//!    hashes of `(seed, site, cell, time index)`, and the per-MVM time
//!    index is engine-identical, so the noisy path inherits the
//!    two-engine bit-identity of the ideal one.

use proptest::prelude::*;
use puma_core::config::{MvmuConfig, NonIdealityConfig};
use puma_sim::{SimEngine, SimMode};
use puma_testkit::harness::{run_with_engine, small_node_config};
use puma_testkit::modelgen;

const ENGINES: [SimEngine; 2] = [SimEngine::Reference, SimEngine::Compiled];

/// A representative degraded config: every knob active plus a narrowed
/// ADC, magnitudes small enough that the zoo models still execute.
fn degraded_config() -> NonIdealityConfig {
    NonIdealityConfig {
        read_sigma: 0.05,
        drift_nu: 0.02,
        drift_t0_cycles: 10_000,
        ir_drop_alpha: 0.01,
        seed: 2019,
    }
}

/// The ideal config (with a decoy seed) must be bit-identical to the
/// absent config on every engine, and attribute zero degraded MVMs.
#[test]
fn ideal_config_is_bit_identical_to_absent_on_every_engine() {
    let options = puma_compiler::CompilerOptions::default();
    let absent = small_node_config(16);
    let mut ideal = absent;
    // A nonzero seed with all knobs zero is still ideal; it must not
    // switch code paths.
    ideal.non_ideality = NonIdealityConfig { seed: 0xDEAD_BEEF, ..NonIdealityConfig::ideal() };
    for case in modelgen::simulable_zoo_cases(31) {
        for engine in ENGINES {
            let (out_a, stats_a) = run_with_engine(
                &case.model,
                &absent,
                &options,
                &case.inputs,
                SimMode::Functional,
                engine,
            )
            .expect("absent-config run");
            let (out_b, stats_b) = run_with_engine(
                &case.model,
                &ideal,
                &options,
                &case.inputs,
                SimMode::Functional,
                engine,
            )
            .expect("ideal-config run");
            assert_eq!(out_a, out_b, "{} {engine:?}: outputs diverged", case.model.name());
            assert_eq!(stats_a, stats_b, "{} {engine:?}: stats diverged", case.model.name());
            assert_eq!(stats_a.degraded_mvm_activations, 0, "ideal path must attribute none");
        }
    }
}

/// A degraded config produces bit-identical outputs and stats across
/// both engines, replays bit-exactly, and attributes every MVM.
#[test]
fn degraded_config_is_engine_invariant_and_replays() {
    let options = puma_compiler::CompilerOptions::default();
    let mut cfg = small_node_config(16);
    cfg.non_ideality = degraded_config();
    cfg.tile.core.mvmu.adc_bits_override = Some(12);
    for case in modelgen::simulable_zoo_cases(47) {
        let (ref_out, ref_stats) = run_with_engine(
            &case.model,
            &cfg,
            &options,
            &case.inputs,
            SimMode::Functional,
            SimEngine::Reference,
        )
        .expect("reference degraded run");
        assert!(ref_stats.mvmu_activations > 0);
        assert_eq!(
            ref_stats.degraded_mvm_activations, ref_stats.mvmu_activations,
            "every functional MVM must be attributed to the degraded path"
        );
        for engine in ENGINES {
            for _rerun in 0..2 {
                let (out, stats) = run_with_engine(
                    &case.model,
                    &cfg,
                    &options,
                    &case.inputs,
                    SimMode::Functional,
                    engine,
                )
                .expect("degraded run");
                assert_eq!(ref_out, out, "{} {engine:?}: outputs diverged", case.model.name());
                assert_eq!(ref_stats, stats, "{} {engine:?}: stats diverged", case.model.name());
            }
        }
    }
}

/// Reseeding the non-ideality config changes functional outputs (the
/// noise is real) without touching timing statistics (cycles and energy
/// come from the timing model, which the degraded path never alters).
#[test]
fn reseeding_changes_outputs_but_not_timing() {
    let options = puma_compiler::CompilerOptions::default();
    let mut cfg = small_node_config(16);
    cfg.non_ideality = NonIdealityConfig { read_sigma: 0.3, seed: 1, ..NonIdealityConfig::ideal() };
    let case = &modelgen::simulable_zoo_cases(7)[0];
    let (out_a, stats_a) = run_with_engine(
        &case.model,
        &cfg,
        &options,
        &case.inputs,
        SimMode::Functional,
        SimEngine::Compiled,
    )
    .expect("seed-1 run");
    cfg.non_ideality.seed = 2;
    let (out_b, stats_b) = run_with_engine(
        &case.model,
        &cfg,
        &options,
        &case.inputs,
        SimMode::Functional,
        SimEngine::Compiled,
    )
    .expect("seed-2 run");
    assert_ne!(out_a, out_b, "independent seeds must realize different noise");
    assert_eq!(stats_a.cycles, stats_b.cycles, "noise must not move simulated time");
    assert_eq!(stats_a.energy, stats_b.energy, "noise must not move modeled energy");
}

/// Timing mode never materializes weights, so non-ideality (a functional
/// perturbation) must leave timing runs untouched on every engine.
#[test]
fn timing_mode_ignores_non_ideality() {
    let options = puma_compiler::CompilerOptions::default();
    let absent = small_node_config(16);
    let mut noisy = absent;
    noisy.non_ideality = degraded_config();
    let case = &modelgen::simulable_zoo_cases(7)[0];
    for engine in ENGINES {
        let (_, stats_a) =
            run_with_engine(&case.model, &absent, &options, &case.inputs, SimMode::Timing, engine)
                .expect("absent timing run");
        let (_, stats_b) =
            run_with_engine(&case.model, &noisy, &options, &case.inputs, SimMode::Timing, engine)
                .expect("noisy timing run");
        assert_eq!(stats_a, stats_b, "{engine:?}: timing must ignore non-ideality");
        assert_eq!(stats_b.degraded_mvm_activations, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Fuzzed MLPs: ideal ≡ absent and degraded replay, across engines.
    #[test]
    fn fuzzed_mlps_uphold_both_contracts(case in modelgen::mlp_case(), seed in 1u64..1000) {
        let options = puma_compiler::CompilerOptions::default();
        let absent = small_node_config(32);
        let mut ideal = absent;
        ideal.non_ideality = NonIdealityConfig { seed, ..NonIdealityConfig::ideal() };
        let mut noisy = absent;
        noisy.non_ideality =
            NonIdealityConfig { read_sigma: 0.1, seed, ..NonIdealityConfig::ideal() };
        noisy.tile.core.mvmu =
            MvmuConfig { adc_bits_override: Some(13), ..noisy.tile.core.mvmu };
        let mut noisy_runs = Vec::new();
        for engine in ENGINES {
            let run = |cfg| run_with_engine(
                &case.model, cfg, &options, &case.inputs, SimMode::Functional, engine,
            ).expect("functional run");
            prop_assert_eq!(run(&absent), run(&ideal), "{:?}: ideal must equal absent", engine);
            noisy_runs.push(run(&noisy));
            prop_assert_eq!(&noisy_runs[0], &run(&noisy), "{:?}: degraded replay", engine);
        }
        prop_assert_eq!(&noisy_runs[0], &noisy_runs[1], "compiled degraded leg diverged");
    }
}
