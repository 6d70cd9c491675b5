//! Hardware configuration of a PUMA node.
//!
//! Defaults follow Table 3 of the paper ("PUMA Tile at 1GHz on 32nm
//! Technology node"): 128×128 MVMUs with 2-bit cells, 2 MVMUs per core,
//! 8 cores per tile, 138 tiles per node, 64 KB eDRAM shared memory, a
//! 16-FIFO receive buffer, and a 4 KB core / 8 KB tile instruction memory.
//!
//! Every knob swept by the paper's design-space exploration (Fig. 12) is a
//! field here, so the DSE experiment simply builds variant configs.

use crate::error::{PumaError, Result};
use serde::{Deserialize, Serialize};

/// Configuration of a single matrix-vector multiplication unit (MVMU).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MvmuConfig {
    /// Crossbar dimension (rows = cols). Paper default: 128.
    pub dim: usize,
    /// Bits stored per memristor device. Paper default: 2 (conservative;
    /// laboratory devices reach 6).
    pub bits_per_cell: u32,
    /// Total weight precision in bits. Paper default: 16, realized by
    /// combining `weight_bits / bits_per_cell` crossbars via bit slicing.
    pub weight_bits: u32,
    /// DAC resolution in bits (input is streamed `dac_bits` per step).
    pub dac_bits: u32,
    /// Overrides the derived ADC resolution ([`MvmuConfig::derived_adc_bits`]).
    /// `None` — the default — sizes the converter for a full-precision
    /// column read. `Some(b)` pins it at `b` bits instead: the hardware
    /// model scales ADC power by ~4× per bit either way (§7.6), and on the
    /// functional non-ideality path a narrowed ADC quantizes MVM outputs
    /// to `2^(16 − b)`-raw-bit steps — the width axis of the
    /// accuracy-vs-energy frontier.
    #[serde(default)]
    pub adc_bits_override: Option<u32>,
}

impl MvmuConfig {
    /// Number of physical crossbar slices needed for one logical MVMU
    /// (§3.2.1: eight 2-bit crossbars realize a 16-bit MVM).
    pub fn slices(&self) -> u32 {
        self.weight_bits.div_ceil(self.bits_per_cell)
    }

    /// ADC resolution required to capture a full column dot product of
    /// `dac_bits`-wide inputs against `bits_per_cell`-wide weights:
    /// `log2(dim) + dac_bits + bits_per_cell` bits (ISAAC-style analysis).
    pub fn derived_adc_bits(&self) -> u32 {
        (self.dim as f64).log2().ceil() as u32 + self.dac_bits + self.bits_per_cell
    }

    /// The effective ADC resolution: [`MvmuConfig::adc_bits_override`] if
    /// set, otherwise the full-precision [`MvmuConfig::derived_adc_bits`].
    /// Every consumer — the hardware power model, the bit-serial
    /// pipeline's full-scale clamp, the degraded-path output quantizer —
    /// reads this one accessor, so an override moves the accuracy and the
    /// energy axis together.
    pub fn adc_bits(&self) -> u32 {
        self.adc_bits_override.unwrap_or_else(|| self.derived_adc_bits())
    }

    /// Multiply-accumulate operations performed by one full-precision MVM.
    pub fn macs_per_mvm(&self) -> u64 {
        (self.dim * self.dim) as u64
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::InvalidConfig`] if any field is zero or the
    /// precision split is impossible.
    pub fn validate(&self) -> Result<()> {
        if self.dim == 0 || !self.dim.is_power_of_two() {
            return Err(PumaError::InvalidConfig {
                what: format!("MVMU dimension {} must be a nonzero power of two", self.dim),
            });
        }
        if self.bits_per_cell == 0 || self.bits_per_cell > 6 {
            return Err(PumaError::InvalidConfig {
                what: format!(
                    "bits per cell {} outside the realizable 1-6 range (§3.2.1)",
                    self.bits_per_cell
                ),
            });
        }
        if self.weight_bits == 0 || self.dac_bits == 0 {
            return Err(PumaError::InvalidConfig {
                what: "weight and DAC precision must be nonzero".to_string(),
            });
        }
        if let Some(bits) = self.adc_bits_override {
            if bits == 0 || bits > 24 {
                return Err(PumaError::InvalidConfig {
                    what: format!("ADC override {bits} bits outside the realizable 1-24 range"),
                });
            }
        }
        Ok(())
    }
}

impl Default for MvmuConfig {
    fn default() -> Self {
        MvmuConfig {
            dim: 128,
            bits_per_cell: 2,
            weight_bits: 16,
            dac_bits: 1,
            adc_bits_override: None,
        }
    }
}

/// Analog non-ideality knobs for the functional MVM path.
///
/// The default (all-zero) config is *ideal*: functional MVMs keep the
/// exact integer kernel, so the two-engine differential suites stay
/// pinned. Any nonzero knob routes them through the `f64` analog path of
/// `puma_xbar` (an [`MvmuConfig::adc_bits_override`] quantizes the
/// outputs of either path), which is deterministic by construction:
/// every perturbation is a counter-based hash of
/// `(seed, site, cell, time index)` — no stateful RNG is advanced by
/// execution order — so a fixed `(config, seed)` pair replays bit-exactly
/// across runs, engines, worker counts, and co-tenants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NonIdealityConfig {
    /// Read-side conductance noise: relative sigma per conductance level,
    /// same scale as the write-noise sigma in `puma_xbar`. Resampled per
    /// MVM time index (cycle-to-cycle noise), unlike write noise which is
    /// frozen at programming time.
    #[serde(default)]
    pub read_sigma: f64,
    /// Conductance drift magnitude: the fraction of its conductance a
    /// cell loses as simulated time saturates (`g(t) = g0 · (1 − ν·u·τ)`
    /// with `τ = t/(t + T0)` and `u` a per-cell factor in `[0.5, 1.5)`).
    #[serde(default)]
    pub drift_nu: f64,
    /// Drift half-saturation time `T0` in simulated cycles: at `t = T0`
    /// a cell has lost half of its asymptotic drift.
    #[serde(default = "NonIdealityConfig::default_drift_t0")]
    pub drift_t0_cycles: u64,
    /// First-order IR-drop coefficient: the far column of a fully-driven
    /// crossbar loses an `ir_drop_alpha` fraction of its analog current;
    /// attenuation scales with input activity and column distance.
    #[serde(default)]
    pub ir_drop_alpha: f64,
    /// Seed for every counter-based perturbation hash. Changing it yields
    /// an independent noise realization; replaying it replays bit-exactly.
    #[serde(default)]
    pub seed: u64,
}

impl NonIdealityConfig {
    fn default_drift_t0() -> u64 {
        1_000_000
    }

    /// The ideal configuration: no read noise, no drift, no IR drop.
    pub fn ideal() -> Self {
        NonIdealityConfig {
            read_sigma: 0.0,
            drift_nu: 0.0,
            drift_t0_cycles: Self::default_drift_t0(),
            ir_drop_alpha: 0.0,
            seed: 0,
        }
    }

    /// True when every perturbation is off — the simulator then takes the
    /// exact integer path regardless of `seed`.
    pub fn is_ideal(&self) -> bool {
        self.read_sigma == 0.0 && self.drift_nu == 0.0 && self.ir_drop_alpha == 0.0
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::InvalidConfig`] for negative or non-finite
    /// magnitudes, or a zero drift timescale with drift enabled.
    pub fn validate(&self) -> Result<()> {
        for (name, v) in [
            ("read_sigma", self.read_sigma),
            ("drift_nu", self.drift_nu),
            ("ir_drop_alpha", self.ir_drop_alpha),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(PumaError::InvalidConfig {
                    what: format!("non-ideality {name} {v} must be finite and non-negative"),
                });
            }
        }
        if self.drift_nu > 0.0 && self.drift_t0_cycles == 0 {
            return Err(PumaError::InvalidConfig {
                what: "drift_t0_cycles must be nonzero when drift is enabled".to_string(),
            });
        }
        Ok(())
    }
}

impl Default for NonIdealityConfig {
    fn default() -> Self {
        NonIdealityConfig::ideal()
    }
}

/// Hard death of one tile at a virtual cycle: every agent of the tile
/// halts at instructions issued at or after `at_cycle`, and packets
/// delivered to the tile from then on are dropped. Requests blocked on
/// the dead tile surface as typed faults
/// (`PumaError::FaultedTile`) instead of silent deadlocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileDeath {
    /// Node the dying tile belongs to (0 for single-node simulations).
    #[serde(default)]
    pub node: u16,
    /// Tile index within the node.
    #[serde(default)]
    pub tile: u32,
    /// Virtual cycle at which the tile dies.
    #[serde(default)]
    pub at_cycle: u64,
}

/// Deterministic fault-injection plan, spanning every layer of the
/// stack: stuck-at crossbar cells and dead columns (xbar), hard tile
/// death at a virtual cycle (machine), and interconnect packet
/// drop/duplicate/delay (cluster).
///
/// The default (empty) plan is *inert*: the simulator takes the exact
/// code path untouched, bit-identical to a plan-absent config, so the
/// two-engine differential suites stay pinned. Every injected fault
/// is a counter-based hash of `(seed, site, cell/packet, time)` — the
/// same RNG contract as [`NonIdealityConfig`] — so a fixed
/// `(FaultPlan, seed)` replays bit-exactly across runs, engines,
/// host-thread counts, serving workers, and placements (crossbar fault
/// sites are keyed resident-relative).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Fraction of crossbar cells stuck at a random conductance
    /// (persistent manufacturing defects; drawn per `(site, cell)`,
    /// independent of time).
    #[serde(default)]
    pub stuck_cell_rate: f64,
    /// Fraction of crossbar columns whose ADC/peripheral is dead: the
    /// column's analog current reads as zero (drawn per `(site, column)`).
    #[serde(default)]
    pub dead_column_rate: f64,
    /// Hard tile death at a virtual cycle (`None` = no death).
    #[serde(default)]
    pub tile_death: Option<TileDeath>,
    /// Fraction of internode packets silently dropped in flight.
    #[serde(default)]
    pub packet_loss_rate: f64,
    /// Fraction of internode packets delivered twice.
    #[serde(default)]
    pub packet_duplicate_rate: f64,
    /// Fraction of internode packets delayed by
    /// [`FaultPlan::packet_delay_cycles`] extra cycles.
    #[serde(default)]
    pub packet_delay_rate: f64,
    /// Extra latency a delayed packet suffers, in cycles.
    #[serde(default = "FaultPlan::default_packet_delay")]
    pub packet_delay_cycles: u64,
    /// Seed for every counter-based fault hash. Changing it yields an
    /// independent fault realization; replaying it replays bit-exactly.
    #[serde(default)]
    pub seed: u64,
}

impl FaultPlan {
    fn default_packet_delay() -> u64 {
        64
    }

    /// The empty plan: no faults anywhere.
    pub fn none() -> Self {
        FaultPlan {
            stuck_cell_rate: 0.0,
            dead_column_rate: 0.0,
            tile_death: None,
            packet_loss_rate: 0.0,
            packet_duplicate_rate: 0.0,
            packet_delay_rate: 0.0,
            packet_delay_cycles: Self::default_packet_delay(),
            seed: 0,
        }
    }

    /// True when no fault is active — the simulator then takes the
    /// exact code path regardless of `seed`.
    pub fn is_empty(&self) -> bool {
        !self.has_cell_faults() && self.tile_death.is_none() && !self.has_packet_faults()
    }

    /// True when any crossbar-cell fault is active (routes functional
    /// MVMs through the faulted analog path).
    pub fn has_cell_faults(&self) -> bool {
        self.stuck_cell_rate > 0.0 || self.dead_column_rate > 0.0
    }

    /// True when any interconnect packet fault is active.
    pub fn has_packet_faults(&self) -> bool {
        self.packet_loss_rate > 0.0
            || self.packet_duplicate_rate > 0.0
            || self.packet_delay_rate > 0.0
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::InvalidConfig`] for rates outside `[0, 1]`,
    /// or a zero packet delay with delay faults enabled.
    pub fn validate(&self) -> Result<()> {
        for (name, v) in [
            ("stuck_cell_rate", self.stuck_cell_rate),
            ("dead_column_rate", self.dead_column_rate),
            ("packet_loss_rate", self.packet_loss_rate),
            ("packet_duplicate_rate", self.packet_duplicate_rate),
            ("packet_delay_rate", self.packet_delay_rate),
        ] {
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return Err(PumaError::InvalidConfig {
                    what: format!("fault rate {name} {v} must be a probability in [0, 1]"),
                });
            }
        }
        if self.packet_delay_rate > 0.0 && self.packet_delay_cycles == 0 {
            return Err(PumaError::InvalidConfig {
                what: "packet_delay_cycles must be nonzero when packet delay is enabled"
                    .to_string(),
            });
        }
        Ok(())
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Configuration of a PUMA core (Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CoreConfig {
    /// MVMU parameters.
    pub mvmu: MvmuConfig,
    /// Number of MVMUs per core. Paper default: 2.
    pub mvmus_per_core: usize,
    /// Vector functional unit lanes (temporal SIMD width). Table 3 lists
    /// width 1; the DSE (Fig. 12) finds the sweet spot at 4 lanes.
    pub vfu_lanes: usize,
    /// Core instruction memory capacity in bytes. Paper default: 4 KB.
    pub instruction_memory_bytes: usize,
    /// General-purpose register file size in 16-bit words. The paper sizes
    /// it as `2 × dim × mvmus_per_core` (§3.4.2); [`CoreConfig::default`]
    /// follows that rule (2 × 128 × 2 = 512 words = 1 KB, matching Table 3).
    pub register_file_words: usize,
}

impl CoreConfig {
    /// XbarIn register words: one input vector slot per MVMU.
    pub fn xbar_in_words(&self) -> usize {
        self.mvmu.dim * self.mvmus_per_core
    }

    /// XbarOut register words: one output vector slot per MVMU.
    pub fn xbar_out_words(&self) -> usize {
        self.mvmu.dim * self.mvmus_per_core
    }

    /// The paper's register-file sizing rule (§3.4.2):
    /// `2 × crossbar dimension × crossbars per core`.
    pub fn paper_register_file_words(dim: usize, mvmus_per_core: usize) -> usize {
        2 * dim * mvmus_per_core
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::InvalidConfig`] if any structural parameter is
    /// zero, then defers to [`MvmuConfig::validate`].
    pub fn validate(&self) -> Result<()> {
        self.mvmu.validate()?;
        if self.mvmus_per_core == 0 {
            return Err(PumaError::InvalidConfig {
                what: "a core needs at least one MVMU".to_string(),
            });
        }
        if self.vfu_lanes == 0 {
            return Err(PumaError::InvalidConfig {
                what: "VFU must have at least one lane".to_string(),
            });
        }
        if self.register_file_words == 0 || self.instruction_memory_bytes == 0 {
            return Err(PumaError::InvalidConfig {
                what: "register file and instruction memory must be nonzero".to_string(),
            });
        }
        Ok(())
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        let mvmu = MvmuConfig::default();
        CoreConfig {
            mvmu,
            mvmus_per_core: 2,
            vfu_lanes: 1,
            instruction_memory_bytes: 4 * 1024,
            register_file_words: CoreConfig::paper_register_file_words(mvmu.dim, 2),
        }
    }
}

/// Configuration of a PUMA tile (Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TileConfig {
    /// Per-core parameters.
    pub core: CoreConfig,
    /// Number of cores per tile. Paper default: 8.
    pub cores_per_tile: usize,
    /// Shared (eDRAM) data memory capacity in bytes. Paper default: 64 KB.
    pub shared_memory_bytes: usize,
    /// Tile instruction memory in bytes. Paper default: 8 KB.
    pub instruction_memory_bytes: usize,
    /// Number of receive-buffer FIFOs. Paper default: 16.
    pub receive_fifos: usize,
    /// Depth of each receive FIFO in entries. Paper default: 2.
    pub receive_fifo_depth: usize,
    /// Shared-memory bus width in bits. Paper default: 384.
    pub memory_bus_bits: usize,
    /// Attribute-memory entries (valid/count pairs). Paper default: 32 K.
    pub attribute_entries: usize,
}

impl TileConfig {
    /// Shared-memory capacity in 16-bit words.
    pub fn shared_memory_words(&self) -> usize {
        self.shared_memory_bytes / 2
    }

    /// Words the memory bus moves per cycle.
    pub fn bus_words_per_cycle(&self) -> usize {
        (self.memory_bus_bits / 16).max(1)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::InvalidConfig`] for zero-sized resources, then
    /// defers to [`CoreConfig::validate`].
    pub fn validate(&self) -> Result<()> {
        self.core.validate()?;
        if self.cores_per_tile == 0 {
            return Err(PumaError::InvalidConfig {
                what: "a tile needs at least one core".to_string(),
            });
        }
        if self.shared_memory_bytes == 0 || self.receive_fifos == 0 || self.receive_fifo_depth == 0
        {
            return Err(PumaError::InvalidConfig {
                what: "tile memories and FIFOs must be nonzero".to_string(),
            });
        }
        Ok(())
    }
}

impl Default for TileConfig {
    fn default() -> Self {
        TileConfig {
            core: CoreConfig::default(),
            cores_per_tile: 8,
            shared_memory_bytes: 64 * 1024,
            instruction_memory_bytes: 8 * 1024,
            receive_fifos: 16,
            receive_fifo_depth: 2,
            memory_bus_bits: 384,
            attribute_entries: 32 * 1024,
        }
    }
}

/// Configuration of a PUMA node (one chip).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeConfig {
    /// Per-tile parameters.
    pub tile: TileConfig,
    /// Number of tiles per node. Paper default: 138.
    pub tiles_per_node: usize,
    /// Clock frequency in MHz. Paper default: 1000 (1 GHz).
    pub clock_mhz: u64,
    /// On-chip network flit size in bits. Paper default: 32.
    pub noc_flit_bits: usize,
    /// On-chip network latency per hop, in cycles.
    pub noc_hop_cycles: u64,
    /// Off-chip link bandwidth in GB/s. Paper default: 6.4 (HyperTransport).
    pub offchip_gb_per_s: f64,
    /// Analog non-ideality model applied on the functional MVM path
    /// (read noise, drift, IR drop). [`NonIdealityConfig::ideal`] — the
    /// default — leaves the exact integer path untouched.
    #[serde(default)]
    pub non_ideality: NonIdealityConfig,
    /// Deterministic fault-injection plan. [`FaultPlan::none`] — the
    /// default — leaves every layer's exact code path untouched.
    #[serde(default)]
    pub faults: FaultPlan,
}

impl NodeConfig {
    /// Total cores in the node.
    pub fn total_cores(&self) -> usize {
        self.tiles_per_node * self.tile.cores_per_tile
    }

    /// Total logical MVMUs in the node.
    pub fn total_mvmus(&self) -> usize {
        self.total_cores() * self.tile.core.mvmus_per_core
    }

    /// Weight storage capacity in bytes (every MVMU stores a
    /// `dim × dim` matrix of 16-bit weights).
    ///
    /// With Table 3 defaults this is ~69 MB, matching §1's "A 90mm² PUMA
    /// node can store ML models with up to 69MB of weight data".
    pub fn weight_capacity_bytes(&self) -> u64 {
        let per_mvmu = (self.tile.core.mvmu.dim * self.tile.core.mvmu.dim) as u64
            * (self.tile.core.mvmu.weight_bits as u64)
            / 8;
        self.total_mvmus() as u64 * per_mvmu
    }

    /// Mesh side length used by the NoC distance model: the smallest square
    /// that holds all tiles.
    pub fn mesh_side(&self) -> usize {
        (self.tiles_per_node as f64).sqrt().ceil() as usize
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::InvalidConfig`] for zero-sized resources, then
    /// defers to [`TileConfig::validate`].
    pub fn validate(&self) -> Result<()> {
        self.tile.validate()?;
        if self.tiles_per_node == 0 {
            return Err(PumaError::InvalidConfig {
                what: "a node needs at least one tile".to_string(),
            });
        }
        if self.clock_mhz == 0 {
            return Err(PumaError::InvalidConfig {
                what: "clock frequency must be nonzero".to_string(),
            });
        }
        self.non_ideality.validate()?;
        self.faults.validate()?;
        Ok(())
    }
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            tile: TileConfig::default(),
            tiles_per_node: 138,
            clock_mhz: 1000,
            noc_flit_bits: 32,
            noc_hop_cycles: 4,
            offchip_gb_per_s: 6.4,
            non_ideality: NonIdealityConfig::ideal(),
            faults: FaultPlan::none(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table3() {
        let node = NodeConfig::default();
        assert_eq!(node.tile.core.mvmu.dim, 128);
        assert_eq!(node.tile.core.mvmus_per_core, 2);
        assert_eq!(node.tile.cores_per_tile, 8);
        assert_eq!(node.tiles_per_node, 138);
        assert_eq!(node.tile.shared_memory_bytes, 64 * 1024);
        assert_eq!(node.tile.receive_fifos, 16);
        assert_eq!(node.tile.receive_fifo_depth, 2);
        assert_eq!(node.clock_mhz, 1000);
        assert!(node.validate().is_ok());
    }

    #[test]
    fn default_register_file_is_1kb() {
        // Table 3: register file capacity 1 KB = 512 sixteen-bit words.
        assert_eq!(CoreConfig::default().register_file_words, 512);
    }

    #[test]
    fn sixteen_bit_weights_need_eight_two_bit_slices() {
        assert_eq!(MvmuConfig::default().slices(), 8);
    }

    #[test]
    fn adc_resolution_grows_with_dimension() {
        let small = MvmuConfig { dim: 64, ..MvmuConfig::default() };
        let big = MvmuConfig { dim: 256, ..MvmuConfig::default() };
        assert!(big.adc_bits() > small.adc_bits());
    }

    #[test]
    fn node_stores_about_69_megabytes() {
        let node = NodeConfig::default();
        let mb = node.weight_capacity_bytes() as f64 / (1024.0 * 1024.0);
        assert!((mb - 69.0).abs() < 1.0, "capacity {mb} MB should be ~69 MB");
    }

    #[test]
    fn total_mvmus_counts_hierarchy() {
        let node = NodeConfig::default();
        assert_eq!(node.total_cores(), 138 * 8);
        assert_eq!(node.total_mvmus(), 138 * 8 * 2);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        // dim = 100 is not a power of two.
        let mut m = MvmuConfig { dim: 100, ..MvmuConfig::default() };
        assert!(m.validate().is_err());
        m.dim = 0;
        assert!(m.validate().is_err());

        let c = CoreConfig { mvmus_per_core: 0, ..CoreConfig::default() };
        assert!(c.validate().is_err());

        let t = TileConfig { receive_fifos: 0, ..TileConfig::default() };
        assert!(t.validate().is_err());

        let n = NodeConfig { tiles_per_node: 0, ..NodeConfig::default() };
        assert!(n.validate().is_err());
    }

    #[test]
    fn bits_per_cell_limited_to_lab_range() {
        let mut m = MvmuConfig { bits_per_cell: 7, ..MvmuConfig::default() };
        assert!(m.validate().is_err());
        m.bits_per_cell = 6;
        assert!(m.validate().is_ok());
    }

    #[test]
    fn bus_moves_24_words_per_cycle() {
        assert_eq!(TileConfig::default().bus_words_per_cycle(), 24);
    }

    #[test]
    fn mesh_side_covers_tiles() {
        let node = NodeConfig::default();
        let side = node.mesh_side();
        assert!(side * side >= node.tiles_per_node);
    }

    #[test]
    fn adc_override_trumps_derived_width() {
        let m = MvmuConfig::default();
        assert_eq!(m.adc_bits(), m.derived_adc_bits());
        let narrowed = MvmuConfig { adc_bits_override: Some(6), ..m };
        assert_eq!(narrowed.adc_bits(), 6);
        assert_eq!(narrowed.derived_adc_bits(), m.derived_adc_bits());
        assert!(narrowed.validate().is_ok());
        assert!(MvmuConfig { adc_bits_override: Some(0), ..m }.validate().is_err());
        assert!(MvmuConfig { adc_bits_override: Some(25), ..m }.validate().is_err());
    }

    #[test]
    fn default_non_ideality_is_ideal() {
        let ni = NonIdealityConfig::default();
        assert!(ni.is_ideal());
        assert_eq!(ni, NonIdealityConfig::ideal());
        assert!(ni.validate().is_ok());
        // A bare seed change keeps the config ideal: no knob is active.
        assert!(NonIdealityConfig { seed: 42, ..ni }.is_ideal());
        assert!(!NonIdealityConfig { read_sigma: 0.1, ..ni }.is_ideal());
        assert!(!NonIdealityConfig { drift_nu: 0.05, ..ni }.is_ideal());
        assert!(!NonIdealityConfig { ir_drop_alpha: 0.02, ..ni }.is_ideal());
    }

    #[test]
    fn default_fault_plan_is_empty() {
        let f = FaultPlan::default();
        assert!(f.is_empty());
        assert!(!f.has_cell_faults() && !f.has_packet_faults());
        assert_eq!(f, FaultPlan::none());
        assert!(f.validate().is_ok());
        // A bare seed change keeps the plan empty: no fault is active.
        assert!(FaultPlan { seed: 7, ..f }.is_empty());
        assert!(FaultPlan { stuck_cell_rate: 0.01, ..f }.has_cell_faults());
        assert!(FaultPlan { dead_column_rate: 0.01, ..f }.has_cell_faults());
        assert!(FaultPlan { packet_loss_rate: 0.01, ..f }.has_packet_faults());
        let death = TileDeath { node: 0, tile: 1, at_cycle: 100 };
        assert!(!FaultPlan { tile_death: Some(death), ..f }.is_empty());
    }

    #[test]
    fn fault_plan_validation_rejects_bad_knobs() {
        let f = FaultPlan::none();
        assert!(FaultPlan { stuck_cell_rate: -0.1, ..f }.validate().is_err());
        assert!(FaultPlan { dead_column_rate: 1.5, ..f }.validate().is_err());
        assert!(FaultPlan { packet_loss_rate: f64::NAN, ..f }.validate().is_err());
        assert!(FaultPlan { packet_delay_rate: 0.1, packet_delay_cycles: 0, ..f }
            .validate()
            .is_err());
        assert!(FaultPlan { packet_delay_rate: 0.1, ..f }.validate().is_ok());
        // NodeConfig::validate covers the fault plan.
        let node = NodeConfig {
            faults: FaultPlan { packet_duplicate_rate: 2.0, ..f },
            ..NodeConfig::default()
        };
        assert!(node.validate().is_err());
    }

    #[test]
    fn non_ideality_validation_rejects_bad_knobs() {
        let ni = NonIdealityConfig::ideal();
        assert!(NonIdealityConfig { read_sigma: -0.1, ..ni }.validate().is_err());
        assert!(NonIdealityConfig { drift_nu: f64::NAN, ..ni }.validate().is_err());
        assert!(NonIdealityConfig { drift_nu: 0.1, drift_t0_cycles: 0, ..ni }.validate().is_err());
        assert!(NonIdealityConfig { drift_nu: 0.1, ..ni }.validate().is_ok());
        // NodeConfig::validate covers the non-ideality block.
        let node = NodeConfig {
            non_ideality: NonIdealityConfig { ir_drop_alpha: -1.0, ..ni },
            ..NodeConfig::default()
        };
        assert!(node.validate().is_err());
    }
}
