//! Shared helpers for the experiment binaries that regenerate every table
//! and figure of the paper's evaluation (see EXPERIMENTS.md for the index).
//!
//! # Gated vs. info-only bench keys
//!
//! Every metric the bench binaries emit into `BENCH_sim_throughput.json`
//! falls into one of two classes, and `compare_bench` (the CI perf gate)
//! treats them very differently:
//!
//! - **Gated** keys are deterministic properties of the compiler and
//!   simulator — instruction counts, simulated cycles, modeled energy,
//!   simulated-clock latency percentiles, shed/completed counts. They are
//!   identical on any host, so the gate fails **closed** on them: a gated
//!   key missing from the candidate or from the blessed baseline is a
//!   hard failure, never a silent skip.
//! - **Info-only** keys are either host-dependent (wall-clock throughput,
//!   engine speedup ratios — enforced only with `--wall` on dedicated
//!   hardware) or *measurements the section exists to publish* (the
//!   degraded rows of the `noise_frontier` section, which move whenever
//!   the noise model is deliberately refined). They print as `info` /
//!   `info (frontier)` in the gate's table and never fail CI.
//!
//! A section may mix the two per **row** rather than per metric: the
//! noise frontier gates only its `ideal` anchor row (σ = 0, derived ADC
//! width — the same code path every other timing measurement uses) and
//! labels everything else `info (frontier)`. When adding a bench section,
//! pick the class per key deliberately and document it in the emitting
//! binary — defaulting a nondeterministic key to gated flakes CI, and
//! defaulting a deterministic key to info silently disables regression
//! coverage.

#![warn(missing_docs)]

pub mod json;

use puma_compiler::{compile, fit_config, CompiledModel, CompilerOptions};
use puma_core::config::NodeConfig;
use puma_core::error::Result;
use puma_nn::zoo;
use puma_nn::WeightFactory;
use puma_sim::{ClusterSim, NodeSim, RunStats, SchedStats, SimEngine, SimMode};
use puma_xbar::NoiseModel;

/// Prints an aligned text table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        let line: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", line.join("  "));
    };
    fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    println!("  {}", "-".repeat(total));
    for row in rows {
        fmt_row(row);
    }
}

/// Formats a ratio like the paper's tables ("0.66x", "2446x").
pub fn fmt_ratio(r: f64) -> String {
    if r >= 100.0 {
        format!("{r:.0}x")
    } else if r >= 10.0 {
        format!("{r:.1}x")
    } else {
        format!("{r:.2}x")
    }
}

/// Compiles a (non-CNN) zoo workload into a machine image with the given
/// options, reducing LSTM sequence lengths to keep simulation tractable
/// (documented in EXPERIMENTS.md; latency/energy scale linearly in steps).
///
/// # Errors
///
/// Propagates compilation failures.
pub fn compile_workload(
    name: &str,
    cfg: &NodeConfig,
    options: &CompilerOptions,
    seq_override: Option<usize>,
) -> Result<Option<CompiledModel>> {
    let spec = zoo::spec(name);
    let mut weights = if options.materialize_weights {
        WeightFactory::materialized(7)
    } else {
        WeightFactory::shape_only(7)
    };
    let Some(model) = zoo::build_graph_model(&spec, &mut weights, seq_override)? else {
        return Ok(None);
    };
    Ok(Some(compile(&model, cfg, options)?))
}

/// Runs a compiled model in timing mode with zeroed inputs; returns stats.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run_timing(compiled: &CompiledModel, cfg: &NodeConfig) -> Result<RunStats> {
    run_timing_with_engine(compiled, cfg, SimEngine::default())
}

/// [`run_timing`] on an explicit execution engine.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run_timing_with_engine(
    compiled: &CompiledModel,
    cfg: &NodeConfig,
    engine: SimEngine,
) -> Result<RunStats> {
    let mut session = TimingSession::new(compiled, cfg, engine)?;
    Ok(session.run()?.clone())
}

/// The snapshot key of a session's constants and zero inputs.
const SESSION_SNAPSHOT: &str = "session";

/// A reusable timing-mode simulation session: the simulator is built once
/// (crossbar configuration is write-once, §3.2.5) and the workload is
/// replayed per [`TimingSession::run`] call after a state reset — so
/// throughput measurements time simulation, not construction. This is the
/// measurement core of the `bench_sim_throughput` binary, which compares
/// the compiled engine against the reference per-instruction event loop.
#[derive(Debug)]
pub struct TimingSession {
    sim: NodeSim,
    const_data: Vec<(String, Vec<f32>)>,
    input_chunks: Vec<(String, usize)>,
}

impl TimingSession {
    /// Builds a timing-mode simulator for `compiled` on `engine`.
    ///
    /// # Errors
    ///
    /// Propagates simulator-construction failures.
    pub fn new(compiled: &CompiledModel, cfg: &NodeConfig, engine: SimEngine) -> Result<Self> {
        let cfg = fit_config(cfg, compiled);
        let mut sim =
            NodeSim::new(cfg, &compiled.image, SimMode::Timing, &NoiseModel::noiseless())?;
        sim.set_engine(engine);
        let const_data =
            compiled.const_data.iter().map(|(b, v)| (b.name.clone(), v.clone())).collect();
        let input_chunks = compiled
            .inputs
            .iter()
            .flat_map(|io| io.chunks.iter().cloned().zip(io.chunk_widths.iter().copied()))
            .collect();
        Ok(TimingSession { sim, const_data, input_chunks })
    }

    /// Resets machine state and re-runs: the first run writes the
    /// constants and zero inputs and snapshots the result, later runs
    /// restore the snapshot (identical [`RunStats`]).
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn run(&mut self) -> Result<&RunStats> {
        self.sim.reset();
        if !self.sim.restore_snapshot(SESSION_SNAPSHOT) {
            for (name, values) in &self.const_data {
                self.sim.write_input(name, values)?;
            }
            for (chunk, w) in &self.input_chunks {
                self.sim.write_input(chunk, &vec![0.0; *w])?;
            }
            self.sim.save_snapshot(SESSION_SNAPSHOT);
        }
        self.sim.run()?;
        Ok(self.sim.stats())
    }

    /// Scheduler-queue pops (tile entries) of the last
    /// [`TimingSession::run`] (see [`NodeSim::queue_events`]) — the
    /// scheduler-overhead residue the bench reports per executed
    /// instruction.
    pub fn queue_events(&self) -> u64 {
        self.sim.queue_events()
    }

    /// Every scheduler counter of the last [`TimingSession::run`] (see
    /// [`NodeSim::sched_stats`]).
    pub fn sched_stats(&self) -> SchedStats {
        self.sim.sched_stats()
    }

    /// Approximate per-replica mutable state bytes of the underlying
    /// simulator (see [`NodeSim::state_bytes`]).
    pub fn state_bytes(&self) -> usize {
        self.sim.state_bytes()
    }

    /// Opts this session's simulator into per-segment execution counting
    /// (see [`NodeSim::enable_segment_profiling`]) — the programmatic
    /// equivalent of `PUMA_PROFILE=1`, used by `profile_hot_segments`.
    pub fn enable_segment_profiling(&mut self) {
        self.sim.enable_segment_profiling();
    }

    /// The ranked hot-segment table of the last profiled run (see
    /// [`NodeSim::segment_profile_table`]).
    pub fn segment_profile_table(&self) -> Vec<String> {
        self.sim.segment_profile_table()
    }
}

/// A reusable timing-mode session over a *sharded* compiled model: the
/// per-node images run under [`ClusterSim`], replayed per
/// [`ClusterTimingSession::run`] — the measurement core of the sharded
/// scaling scenario in `bench_sim_throughput`.
#[derive(Debug)]
pub struct ClusterTimingSession {
    sim: ClusterSim,
    const_data: Vec<(String, Vec<f32>)>,
    input_chunks: Vec<(String, usize)>,
}

impl ClusterTimingSession {
    /// Shards `compiled` and builds one timing-mode cluster on `engine`.
    ///
    /// # Errors
    ///
    /// Propagates shard and simulator-construction failures.
    pub fn new(compiled: &CompiledModel, cfg: &NodeConfig, engine: SimEngine) -> Result<Self> {
        let cfg = fit_config(cfg, compiled);
        let images = compiled.shard()?;
        let mut sim = ClusterSim::new(cfg, &images, SimMode::Timing, &NoiseModel::noiseless())?;
        sim.set_engine(engine);
        let const_data =
            compiled.const_data.iter().map(|(b, v)| (b.name.clone(), v.clone())).collect();
        let input_chunks = compiled
            .inputs
            .iter()
            .flat_map(|io| io.chunks.iter().cloned().zip(io.chunk_widths.iter().copied()))
            .collect();
        Ok(ClusterTimingSession { sim, const_data, input_chunks })
    }

    /// Number of nodes in the cluster.
    pub fn node_count(&self) -> usize {
        self.sim.node_count()
    }

    /// Resets cluster state and re-runs, restoring the first run's writes
    /// from a snapshot as [`TimingSession::run`] does.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn run(&mut self) -> Result<&RunStats> {
        self.sim.reset();
        if !self.sim.restore_snapshot(SESSION_SNAPSHOT) {
            for (name, values) in &self.const_data {
                self.sim.write_input(name, values)?;
            }
            for (chunk, w) in &self.input_chunks {
                self.sim.write_input(chunk, &vec![0.0; *w])?;
            }
            self.sim.save_snapshot(SESSION_SNAPSHOT);
        }
        self.sim.run()?;
        Ok(self.sim.stats())
    }

    /// Scheduler-queue pops of the last run, summed over nodes (see
    /// [`ClusterSim::queue_events`]).
    pub fn queue_events(&self) -> u64 {
        self.sim.queue_events()
    }

    /// Approximate per-replica mutable state bytes, summed over nodes
    /// (see [`ClusterSim::state_bytes`]).
    pub fn state_bytes(&self) -> usize {
        self.sim.state_bytes()
    }
}

/// The reduced sequence length used when simulating LSTM workloads
/// (full length 50 scales linearly; see EXPERIMENTS.md).
pub fn sim_seq_len(name: &str) -> Option<usize> {
    match name {
        "NMTL3" | "NMTL5" => Some(2),
        "BigLSTM" | "LSTM-2048" => Some(1),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_formatting() {
        assert_eq!(fmt_ratio(2446.0), "2446x");
        assert_eq!(fmt_ratio(66.4), "66.4x");
        assert_eq!(fmt_ratio(0.24), "0.24x");
    }

    #[test]
    fn mlp_workload_compiles_and_runs() {
        let cfg = NodeConfig::default();
        let compiled =
            compile_workload("MLP-64-150-150-14", &cfg, &CompilerOptions::default(), None)
                .unwrap()
                .unwrap();
        let stats = run_timing(&compiled, &cfg).unwrap();
        assert!(stats.cycles > 0);
        assert!(stats.energy.total_nj() > 0.0);
    }
}
