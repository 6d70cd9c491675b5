//! Compile-and-run glue shared by the differential suites.
//!
//! Mirrors what `puma::runtime::ModelRunner` does, but lives below the
//! facade crate so every workspace member (and the facade's own tests) can
//! depend on it without a dependency cycle.

use puma_compiler::graph::Model;
use puma_compiler::{compile, fit_config, relocate_image, CompilerOptions, Partitioning};
use puma_core::config::{CoreConfig, MvmuConfig, NodeConfig, TileConfig};
use puma_core::error::{PumaError, Result};
use puma_sim::{ClusterSim, NodeSim, RunStats, SimEngine, SimMode};
use puma_xbar::NoiseModel;
use std::collections::HashMap;

/// The suite-wide default execution engine: `PUMA_ENGINE=reference` or
/// `PUMA_ENGINE=compiled` overrides [`SimEngine::default`], so CI can run
/// the whole differential surface under either engine (the two-engine
/// matrix) without code changes.
///
/// # Panics
///
/// Panics on an unrecognized `PUMA_ENGINE` value — a typo in the CI
/// matrix must fail loudly, not silently collapse the legs onto the
/// default engine.
pub fn default_engine() -> SimEngine {
    engine_named(std::env::var("PUMA_ENGINE").ok().as_deref())
}

/// [`default_engine`]'s parse of a `PUMA_ENGINE` value (`None` = unset).
fn engine_named(name: Option<&str>) -> SimEngine {
    match name {
        None => SimEngine::default(),
        Some("reference") => SimEngine::Reference,
        Some("compiled") => SimEngine::Compiled,
        Some(other) => panic!("unrecognized PUMA_ENGINE {other:?} (use reference|compiled)"),
    }
}

/// The fault kinds every fault-matrix suite knows about, in the order
/// the smoke legs run them.
pub const ALL_FAULT_KINDS: [&str; 4] = ["stuck", "dead_column", "tile_death", "packet"];

/// The fault kinds selected for the fault-matrix suites via
/// `PUMA_FAULTS` — a comma-separated subset of
/// `stuck,dead_column,tile_death,packet`; unset selects all of them, so
/// local `cargo test` always covers the full matrix.
///
/// # Panics
///
/// Panics on an unrecognized kind — a typo in the CI matrix must fail
/// loudly, not silently skip a fault leg.
pub fn fault_kinds() -> Vec<&'static str> {
    match std::env::var("PUMA_FAULTS") {
        Err(_) => ALL_FAULT_KINDS.to_vec(),
        Ok(list) => list
            .split(',')
            .map(str::trim)
            .filter(|k| !k.is_empty())
            .map(|k| {
                ALL_FAULT_KINDS.iter().copied().find(|a| *a == k).unwrap_or_else(|| {
                    panic!(
                        "unrecognized PUMA_FAULTS kind {k:?} \
                         (use stuck|dead_column|tile_death|packet)"
                    )
                })
            })
            .collect(),
    }
}

/// True when `kind` is selected by [`fault_kinds`] — fault-matrix tests
/// call this to skip kinds excluded from the current `PUMA_FAULTS` leg.
#[must_use]
pub fn fault_kind_enabled(kind: &str) -> bool {
    fault_kinds().contains(&kind)
}

/// A compact node configuration for fast simulation in tests: `dim`-sized
/// crossbars, 2 MVMUs × 4 cores × 16 tiles.
pub fn small_node_config(dim: usize) -> NodeConfig {
    let mvmu = MvmuConfig { dim, ..MvmuConfig::default() };
    NodeConfig {
        tile: TileConfig {
            core: CoreConfig {
                mvmu,
                mvmus_per_core: 2,
                vfu_lanes: 4,
                instruction_memory_bytes: 32 * 1024,
                register_file_words: 256.max(4 * dim),
            },
            cores_per_tile: 4,
            ..TileConfig::default()
        },
        tiles_per_node: 16,
        ..NodeConfig::default()
    }
}

/// Compiles `model` with `options`, loads it into a functional-mode
/// noiseless simulator, runs one inference, and returns outputs by name.
///
/// # Errors
///
/// Propagates compile and simulator faults; reports missing or misshaped
/// inputs as [`PumaError::Execution`]/[`PumaError::ShapeMismatch`].
pub fn run_functional_with_options(
    model: &Model,
    cfg: &NodeConfig,
    options: &CompilerOptions,
    inputs: &[(String, Vec<f32>)],
) -> Result<HashMap<String, Vec<f32>>> {
    run_with_engine(model, cfg, options, inputs, SimMode::Functional, default_engine())
        .map(|(outputs, _)| outputs)
}

/// Compiles `model` and runs one inference on a chosen [`SimMode`] and
/// [`SimEngine`], returning the outputs **and** the run statistics — the
/// entry point of the engine-differential suites, which pin `RunStats`
/// equality between [`SimEngine::Reference`] and [`SimEngine::Compiled`].
///
/// # Errors
///
/// Propagates compile and simulator faults; reports missing or misshaped
/// inputs as [`PumaError::Execution`]/[`PumaError::ShapeMismatch`].
pub fn run_with_engine(
    model: &Model,
    cfg: &NodeConfig,
    options: &CompilerOptions,
    inputs: &[(String, Vec<f32>)],
    mode: SimMode,
    engine: SimEngine,
) -> Result<(HashMap<String, Vec<f32>>, RunStats)> {
    let compiled = compile(model, cfg, options)?;
    let cfg = fit_config(cfg, &compiled);
    let mut sim = NodeSim::new(cfg, &compiled.image, mode, &NoiseModel::noiseless())?;
    sim.set_engine(engine);
    write_model_inputs(&compiled, inputs, &mut |name, values| sim.write_input(name, values))?;
    sim.run()?;
    let out = read_model_outputs(&compiled, &|name| sim.read_output(name))?;
    Ok((out, sim.stats().clone()))
}

/// Writes the compiled model's constant data and chunked logical inputs
/// through `write` — the one copy of the host-side input contract
/// (missing-input and shape errors included) shared by the single-node
/// and cluster paths. Multi-tenant callers pass a closure that prefixes
/// each binding name with the tenant (the `{tenant}:{binding}` contract
/// of `puma_compiler::compose_fabric`).
///
/// # Errors
///
/// [`PumaError::Execution`] for a missing logical input,
/// [`PumaError::ShapeMismatch`] for a wrong-width one, plus whatever
/// `write` itself reports.
pub fn write_model_inputs(
    compiled: &puma_compiler::CompiledModel,
    inputs: &[(String, Vec<f32>)],
    write: &mut dyn FnMut(&str, &[f32]) -> Result<()>,
) -> Result<()> {
    for (binding, values) in &compiled.const_data {
        write(&binding.name, values)?;
    }
    for io in &compiled.inputs {
        let (_, data) = inputs
            .iter()
            .find(|(n, _)| *n == io.name)
            .ok_or_else(|| PumaError::Execution { what: format!("missing input {:?}", io.name) })?;
        if data.len() != io.width {
            return Err(PumaError::ShapeMismatch { expected: io.width, actual: data.len() });
        }
        let mut offset = 0;
        for (chunk, &w) in io.chunks.iter().zip(io.chunk_widths.iter()) {
            write(chunk, &data[offset..offset + w])?;
            offset += w;
        }
    }
    Ok(())
}

/// Reassembles the compiled model's logical outputs from their chunks
/// through `read` (counterpart of [`write_model_inputs`]).
///
/// # Errors
///
/// Propagates whatever `read` reports for a chunk.
pub fn read_model_outputs(
    compiled: &puma_compiler::CompiledModel,
    read: &dyn Fn(&str) -> Result<Vec<f32>>,
) -> Result<HashMap<String, Vec<f32>>> {
    let mut out = HashMap::new();
    for io in &compiled.outputs {
        let mut data = Vec::with_capacity(io.width);
        for chunk in &io.chunks {
            data.extend(read(chunk)?);
        }
        out.insert(io.name.clone(), data);
    }
    Ok(out)
}

/// Compiles `model`, relocates its image to tile base `base`
/// ([`puma_compiler::relocate_image`]), widens the node's tile capacity
/// to hold it, and runs one inference — the entry point of the
/// relocation differential suite, which pins outputs **and**
/// [`RunStats`] bit-identical to the base-0 run (relocation is a pure
/// renumbering, and the prepended idle tiles contribute zero events,
/// cycles, and energy). `base == 0` is the plain single-node run.
///
/// # Errors
///
/// Propagates compile, relocation, and simulator faults; reports missing
/// or misshaped inputs as
/// [`PumaError::Execution`]/[`PumaError::ShapeMismatch`].
pub fn run_relocated(
    model: &Model,
    cfg: &NodeConfig,
    options: &CompilerOptions,
    inputs: &[(String, Vec<f32>)],
    base: usize,
    mode: SimMode,
    engine: SimEngine,
) -> Result<(HashMap<String, Vec<f32>>, RunStats)> {
    let compiled = compile(model, cfg, options)?;
    let mut cfg = fit_config(cfg, &compiled);
    // Capacity widening only; the simulator's behavior and statistics
    // never depend on unoccupied tile capacity.
    cfg.tiles_per_node = cfg.tiles_per_node.max(compiled.stats.tiles_used + base);
    let image = relocate_image(&compiled.image, base)?;
    let mut sim = NodeSim::new(cfg, &image, mode, &NoiseModel::noiseless())?;
    sim.set_engine(engine);
    write_model_inputs(&compiled, inputs, &mut |name, values| sim.write_input(name, values))?;
    sim.run()?;
    let out = read_model_outputs(&compiled, &|name| sim.read_output(name))?;
    Ok((out, sim.stats().clone()))
}

/// Compiles `model` sharded across `nodes` simulated nodes
/// ([`Partitioning::Sharded`]), runs one inference on a
/// [`puma_sim::ClusterSim`], and returns outputs and aggregate cluster
/// statistics — the entry point of the sharded differential suites, which
/// pin bit-identical outputs against the single-node run.
///
/// # Errors
///
/// Propagates compile, shard, and simulator faults; reports missing or
/// misshaped inputs as [`PumaError::Execution`]/[`PumaError::ShapeMismatch`].
pub fn run_sharded(
    model: &Model,
    cfg: &NodeConfig,
    options: &CompilerOptions,
    inputs: &[(String, Vec<f32>)],
    nodes: usize,
    mode: SimMode,
    engine: SimEngine,
) -> Result<(HashMap<String, Vec<f32>>, RunStats)> {
    let options = CompilerOptions { partitioning: Partitioning::Sharded { nodes }, ..*options };
    let compiled = compile(model, cfg, &options)?;
    let cfg = fit_config(cfg, &compiled);
    let images = compiled.shard()?;
    let mut sim = ClusterSim::new(cfg, &images, mode, &NoiseModel::noiseless())?;
    sim.set_engine(engine);
    write_model_inputs(&compiled, inputs, &mut |name, values| sim.write_input(name, values))?;
    sim.run()?;
    let out = read_model_outputs(&compiled, &|name| sim.read_output(name))?;
    Ok((out, sim.stats().clone()))
}

/// [`run_functional_with_options`] with default compiler options.
///
/// # Errors
///
/// See [`run_functional_with_options`].
pub fn run_functional(
    model: &Model,
    cfg: &NodeConfig,
    inputs: &[(String, Vec<f32>)],
) -> Result<HashMap<String, Vec<f32>>> {
    run_functional_with_options(model, cfg, &CompilerOptions::default(), inputs)
}

/// Evaluates the model's host-side f32 reference semantics on `inputs`.
///
/// # Errors
///
/// Propagates reference-evaluator failures (unknown inputs, bad shapes).
pub fn reference_outputs(
    model: &Model,
    inputs: &[(String, Vec<f32>)],
) -> Result<HashMap<String, Vec<f32>>> {
    let map: HashMap<String, Vec<f32>> = inputs.iter().cloned().collect();
    model.evaluate_reference(&map)
}

/// Asserts two output maps agree within `tolerance` on every element.
///
/// # Errors
///
/// Returns a human-readable description of the first divergence (missing
/// output, width mismatch, or out-of-tolerance element).
pub fn compare_outputs(
    got: &HashMap<String, Vec<f32>>,
    want: &HashMap<String, Vec<f32>>,
    tolerance: f32,
) -> std::result::Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("output count mismatch: got {}, want {}", got.len(), want.len()));
    }
    for (name, want_vals) in want {
        let got_vals = got.get(name).ok_or_else(|| format!("missing output {name:?}"))?;
        if got_vals.len() != want_vals.len() {
            return Err(format!(
                "output {name:?} width mismatch: got {}, want {}",
                got_vals.len(),
                want_vals.len()
            ));
        }
        for (i, (g, w)) in got_vals.iter().zip(want_vals.iter()).enumerate() {
            if (g - w).abs() > tolerance {
                return Err(format!(
                    "output {name:?}[{i}]: simulated {g} vs reference {w} (|Δ| = {} > {tolerance})",
                    (g - w).abs()
                ));
            }
        }
    }
    Ok(())
}

/// Deterministic pseudo-random fill in `[-0.5, 0.5)` for test inputs —
/// keeps generated cases reproducible from a single integer seed.
pub fn seeded_values(width: usize, seed: u64) -> Vec<f32> {
    (0..width)
        .map(|i| {
            let mut h = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 33;
            h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            h ^= h >> 33;
            (h % 1024) as f32 / 1024.0 - 0.5
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_values_are_deterministic_and_bounded() {
        let a = seeded_values(64, 7);
        let b = seeded_values(64, 7);
        assert_eq!(a, b);
        assert!(a.iter().all(|v| (-0.5..0.5).contains(v)));
        assert_ne!(a, seeded_values(64, 8));
    }

    #[test]
    fn compare_outputs_reports_divergence() {
        let mut got = HashMap::new();
        let mut want = HashMap::new();
        got.insert("z".to_string(), vec![0.1, 0.2]);
        want.insert("z".to_string(), vec![0.1, 0.5]);
        let err = compare_outputs(&got, &want, 0.05).unwrap_err();
        assert!(err.contains("z"), "{err}");
        assert!(compare_outputs(&got, &got.clone(), 0.0).is_ok());
    }

    #[test]
    fn engine_names_are_reference_and_compiled() {
        assert_eq!(engine_named(None), SimEngine::Compiled);
        assert_eq!(engine_named(Some("reference")), SimEngine::Reference);
        assert_eq!(engine_named(Some("compiled")), SimEngine::Compiled);
    }

    #[test]
    #[should_panic(expected = "unrecognized PUMA_ENGINE \"runahead\" (use reference|compiled)")]
    fn retired_engine_name_panics() {
        engine_named(Some("runahead"));
    }
}
