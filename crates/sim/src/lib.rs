//! PUMAsim: functional, timing, and energy simulator for the PUMA node.
//!
//! The module layout follows the microarchitecture of the paper:
//!
//! - [`machine`] — the node-level discrete-event engine: cores (3-stage
//!   in-order pipelines, Fig. 1), tiles (Fig. 5), and the on-chip network;
//! - [`memory`] — tile shared memory with the valid/count attribute buffer
//!   (inter-core synchronization, Fig. 6);
//! - [`cluster`] / [`pipeline`] — multi-node co-simulation of sharded
//!   models: one request at a time ([`ClusterSim`]) or a pipelined request
//!   stream with different requests resident on different nodes
//!   ([`PipelineSim`]);
//! - [`compiled`] — programs pre-decoded at image load into dense
//!   micro-op segments with precomputed per-op costs ([`SimEngine::Compiled`]);
//! - [`fifo`] — the receive buffer (N FIFOs × M entries, §4.2);
//! - [`regfile`] — XbarIn/XbarOut/general register banks;
//! - [`lut`] — ROM-embedded RAM transcendental lookups (§3.4.1);
//! - [`stats`] — per-component energy/latency accounting.
//!
//! # Examples
//!
//! Running a hand-assembled program on one core:
//!
//! ```
//! use puma_core::config::{CoreConfig, MvmuConfig, NodeConfig, TileConfig};
//! use puma_core::ids::{CoreId, TileId};
//! use puma_core::tensor::Matrix;
//! use puma_isa::{asm, IoBinding, MachineImage, Program};
//! use puma_sim::{NodeSim, SimMode};
//! use puma_xbar::NoiseModel;
//!
//! # fn main() -> puma_core::Result<()> {
//! let mvmu = MvmuConfig { dim: 16, ..MvmuConfig::default() };
//! let core = CoreConfig { mvmu, mvmus_per_core: 2, register_file_words: 64,
//!     ..CoreConfig::default() };
//! let tile = TileConfig { core, cores_per_tile: 2, ..TileConfig::default() };
//! let cfg = NodeConfig { tile, tiles_per_node: 1, ..NodeConfig::default() };
//!
//! let mut image = MachineImage::new(1, 2, 2);
//! image.core_mut(TileId::new(0), CoreId::new(0)).program = Program::from_instructions(
//!     asm::assemble("load xi0 @0 16\nmvm 1 0 0\nstore @16 xo0 1 16\nhalt\n")?,
//! );
//! image.core_mut(TileId::new(0), CoreId::new(0)).mvmu_weights[0] =
//!     Some(Matrix::from_fn(16, 16, |r, c| ((r == c) as u8) as f32).quantize());
//! image.inputs.push(IoBinding { name: "x".into(), tile: TileId::new(0), addr: 0, width: 16, count: 1 });
//! image.outputs.push(IoBinding { name: "y".into(), tile: TileId::new(0), addr: 16, width: 16, count: 1 });
//!
//! let mut sim = NodeSim::new(cfg, &image, SimMode::Functional, &NoiseModel::noiseless())?;
//! sim.write_input("x", &[0.25; 16])?;
//! sim.run()?;
//! assert_eq!(sim.read_output("y")?, vec![0.25; 16]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cluster;
pub mod compiled;
mod equeue;
pub mod fifo;
pub mod lanes;
pub mod lut;
pub mod machine;
pub mod memory;
pub mod pipeline;
pub mod regfile;
pub mod stats;

pub use cluster::ClusterSim;
pub use machine::{
    NodeSim, OutboundPacket, PacketOrigin, ResidentModel, SchedStats, SimEngine, SimMode,
};
pub use pipeline::{
    max_concurrent, PipelineReport, PipelineRequest, PipelineResult, PipelineSim, StageStats,
};
pub use stats::{EnergyComponent, EnergyStats, RunStats};
