//! Pre-decoded micro-op programs for [`SimEngine::Compiled`].
//!
//! Serving replays the same compiled models millions of times; paying
//! `fetch` → 13-arm decode → operand resolution → an area/power-model
//! walk per executed instruction, per request, forever is pure
//! interpreter tax. This module compiles each core/tile-control program
//! **once** (on the first compiled run; every fork shares the build) into
//! a pc-indexed array of `MicroOp`s with every static decision hoisted
//! out of the hot loop:
//!
//! - **Decode** happens here, never at execution time: each pc maps to a
//!   micro-op whose variant already encodes the dispatch.
//! - **Operand resolution** is validated here. A scalar op whose register
//!   operands are provably in bounds for the configured bank sizes
//!   compiles to an infallible fast variant. An attribute-buffer
//!   `load`/`store` or a FIFO `send`/`receive` whose register range,
//!   index register and target tile are provable compiles to a typed
//!   synchronizing op (`Load`, `Store`, `Send`, `Recv`) carrying its
//!   resolved static operands. Only the Fig. 6 attribute handshake, the
//!   FIFO state and the checks that depend on run-time values remain:
//!   the memory range, a negative or overflowing index, the FIFO id, and
//!   whether a `send` leaves this node. Both engines run that part
//!   through one transition helper per instruction in [`crate::machine`],
//!   so a typed op faults and blocks exactly as the interpreter does.
//! - **Everything else** — an operand the build cannot prove, a
//!   functional-mode vector or matrix payload — compiles to
//!   `MicroOp::Interp` and executes through the interpreter, faulting
//!   (or computing) exactly as the reference engine would, if and only
//!   if it is actually reached.
//! - **Timing and energy** are precomputed per op into a dense parallel
//!   `OpCost` array: latency, energy, energy component, instruction
//!   category, and MVMU activations, so no typed op or pure-charge op
//!   touches the `TimingModel` (whose accessors re-walk the area/power
//!   model on every call). Energy is whole attojoules, quantized here from
//!   the same f64 expression the interpreter rounds, so both engines add
//!   the same integers and their [`RunStats`] are bit-identical by
//!   construction.
//! - **Segments**: maximal straight-line runs of pure-charge ops (ops
//!   with no observable effect beyond time and energy — timing-mode
//!   vector/matrix instructions) are charged in one dense walk with a
//!   single up-front cycle-cap precheck (each charge op's `seg_check`).
//!
//! Segment boundaries fall exactly at the synchronization points the
//! scheduler already knows — the typed synchronizing ops and the
//! interpreter's blocking instructions — and at control flow and anything
//! register-visible. A synchronizing op, typed or not, waits for its
//! tile's turn before it runs. The scheduler itself (tile ready lists,
//! the cross-tile horizon, wakes) is described in the [`crate::machine`]
//! module docs, next to the segment-safety invariant.
//!
//! [`SimEngine::Compiled`]: crate::SimEngine::Compiled
//! [`RunStats`]: crate::RunStats

use crate::machine::SimMode;
use crate::regfile::CoreRegisters;
use crate::stats::{nj_to_aj, EnergyComponent};
use puma_core::config::NodeConfig;
use puma_core::timing::TimingModel;
use puma_isa::{BranchCond, Instruction, MemAddr, Program, RegRef, ScalarOp};

/// Sentinel for [`OpCost::comp`]: the op charges no component energy of
/// its own (jump/halt — fetch/decode is still charged per op).
pub(crate) const NO_CHARGE: u8 = u8::MAX;

/// The precomputed static cost of one instruction: everything the
/// execution engine needs to account an op without consulting the timing
/// model. 16 bytes, walked densely during segment charging.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpCost {
    /// Energy charged to `comp` in attojoules (precomputed from the timing
    /// model).
    pub(crate) aj: u64,
    /// Instruction latency in cycles (equals the busy cycles charged).
    pub(crate) latency: u32,
    /// [`EnergyComponent::index`] to charge, or [`NO_CHARGE`].
    pub(crate) comp: u8,
    /// [`puma_isa::InstructionCategory::index`] for the dynamic count.
    pub(crate) cat: u8,
    /// MVMU activations (nonzero only for MVM ops).
    pub(crate) mvmu: u8,
}

// Pins the size the segment walk's density depends on.
const _: () = assert!(std::mem::size_of::<OpCost>() == 16);

impl OpCost {
    fn uncharged(cat: u8, latency: u32) -> Self {
        OpCost { aj: 0, latency, comp: NO_CHARGE, cat, mvmu: 0 }
    }
}

/// One pre-decoded instruction. Fast variants carry fully resolved,
/// bounds-validated operands; everything else falls back to
/// [`MicroOp::Interp`] with the original instruction.
#[derive(Debug, Clone, Copy)]
pub(crate) enum MicroOp {
    /// A pure-charge op (timing-mode MVM / vector ALU / copy): no state
    /// beyond time and energy. `seg_end` is the pc one past the last op
    /// of the maximal pure-charge run this op begins or continues, so a
    /// whole segment is charged in one dense walk over [`OpCost`]s.
    Charge {
        /// End (exclusive pc) of the enclosing pure-charge segment.
        seg_end: u32,
        /// The summed latency of the segment ops from this pc through
        /// `seg_end` *excluding the last op* — i.e. the start-time offset
        /// of the segment's last op, saturated at `u32::MAX`. Bulk
        /// charging is safe against the cycle cap iff `t + seg_check <=
        /// max_cycles` (every op in the suffix then *starts* at or under
        /// the cap, which is exactly the per-instruction check the other
        /// engine applies); otherwise the engine degrades to per-op
        /// stepping so the cap fault lands on the same deterministic
        /// instruction. Saturating only ever sends a run to that exact
        /// fallback. Kept in the op itself: resuming an agent then reads
        /// one cold cache line, not two.
        seg_check: u32,
    },
    /// `set` with a bounds-validated destination.
    Set {
        /// Destination register.
        dest: RegRef,
        /// Immediate raw bits.
        imm: i16,
    },
    /// Scalar integer ALU op with bounds-validated operands.
    AluInt {
        /// The scalar operation.
        op: ScalarOp,
        /// Destination register.
        dest: RegRef,
        /// First source register.
        src1: RegRef,
        /// Second source register.
        src2: RegRef,
    },
    /// Conditional branch with bounds-validated operands and a resolved
    /// target pc.
    Branch {
        /// Branch condition.
        cond: BranchCond,
        /// First compare operand.
        src1: RegRef,
        /// Second compare operand.
        src2: RegRef,
        /// Taken-branch target pc.
        target: u32,
    },
    /// Unconditional jump to a resolved target pc.
    Jump {
        /// Target pc.
        target: u32,
    },
    /// End of stream.
    Halt,
    /// A core's attribute-buffer `load` into a register range proven in
    /// bounds. A register-indexed address keeps its index register,
    /// proven readable; its sign and the `base + index` sum are checked
    /// at run time.
    Load {
        /// Destination base register.
        dest: RegRef,
        /// Source address.
        addr: MemAddr,
        /// Vector width in words.
        width: u16,
    },
    /// A core's attribute-buffer `store` from a register range proven in
    /// bounds (address as for [`MicroOp::Load`]).
    Store {
        /// Source base register.
        src: RegRef,
        /// Destination address.
        addr: MemAddr,
        /// Consumer count of the written words.
        count: u16,
        /// Vector width in words.
        width: u16,
    },
    /// A tile control unit's `send` from an absolute address to a tile
    /// of this image. Whether `node` is the executing node is decided at
    /// run time: builds are shared across forks and may precede
    /// `join_cluster`. A node-local send runs as this op; any other goes
    /// through the interpreter, which charges the chip-to-chip link.
    Send {
        /// Source address in the sending tile's shared memory.
        base: u32,
        /// NoC transit from the send to the packet's landing, in cycles.
        transit: u32,
        /// Destination receive FIFO.
        fifo: u8,
        /// Destination tile.
        target: u16,
        /// Destination node.
        node: u16,
        /// Vector width in words.
        width: u16,
    },
    /// A tile control unit's `receive` into an absolute address.
    Recv {
        /// Destination address in this tile's shared memory.
        base: u32,
        /// Source receive FIFO (checked at run time, as the interpreter
        /// checks it).
        fifo: u8,
        /// Consumer count of the written words.
        count: u16,
        /// Vector width in words.
        width: u16,
    },
    /// Interpreter fallback: functional-mode vector and matrix payloads,
    /// and any instruction whose operands the build could not prove — a
    /// register outside its bank, an indexed `send`/`receive`, a `send`
    /// to a tile this image lacks, an instruction invalid on its agent. It
    /// faults, with the interpreter's exact message, only if executed.
    Interp {
        /// The original instruction, dispatched to the interpreter.
        instr: Instruction,
        /// Hoisted [`Instruction::may_block`] for the horizon check.
        may_block: bool,
    },
}

// Pins the op size: a resuming agent reads its op from one cache line.
const _: () = assert!(std::mem::size_of::<MicroOp>() == 24);

/// One agent's pre-decoded program: pc-indexed micro-ops with parallel
/// static costs; a pure-charge op carries its segment suffix sum (a
/// branch back into the middle of a pure-charge run bulk-charges the
/// remaining suffix).
#[derive(Debug)]
pub(crate) struct CompiledProgram {
    /// Micro-op per pc (same length as the source program).
    pub(crate) ops: Vec<MicroOp>,
    /// Static cost per pc.
    pub(crate) costs: Vec<OpCost>,
}

/// A machine image compiled to micro-op segments: one
/// `CompiledProgram` per core and per tile control unit. Read-only
/// after construction and deliberately free of run state, so every fork
/// of a simulator shares one build behind an [`std::sync::Arc`].
#[derive(Debug)]
pub(crate) struct CompiledImage {
    tiles: Vec<CompiledTile>,
}

#[derive(Debug)]
struct CompiledTile {
    cores: Vec<CompiledProgram>,
    ctl: CompiledProgram,
}

impl CompiledImage {
    /// Compiles every program of a loaded image. `tiles` yields, per
    /// tile, the core programs in core order plus the tile-control
    /// program — the iteration order [`NodeSim`](crate::NodeSim) owns.
    pub(crate) fn build<'a>(
        cfg: &NodeConfig,
        timing: &TimingModel,
        mode: SimMode,
        tiles: impl ExactSizeIterator<Item = (Vec<&'a Program>, &'a Program)>,
    ) -> Self {
        let builder = Builder {
            mvmus_per_core: cfg.tile.core.mvmus_per_core,
            tiles: tiles.len(),
            // A scratch register file sized exactly like every core's:
            // an operand the probe can read is an operand no execution
            // can fault on (read and write share the bank bounds).
            probe: CoreRegisters::new(&cfg.tile.core),
            timing,
            mode,
        };
        CompiledImage {
            tiles: tiles
                .enumerate()
                .map(|(t, (cores, ctl))| CompiledTile {
                    cores: cores.iter().map(|p| builder.program(p, t, false)).collect(),
                    ctl: builder.program(ctl, t, true),
                })
                .collect(),
        }
    }

    /// The compiled program of one agent (`core == None` for the tile
    /// control unit).
    pub(crate) fn program(&self, tile: usize, core: Option<usize>) -> &CompiledProgram {
        let t = &self.tiles[tile];
        match core {
            Some(c) => &t.cores[c],
            None => &t.ctl,
        }
    }
}

struct Builder<'a> {
    mvmus_per_core: usize,
    /// Tiles in the image: the targets a node-local `send` may address.
    tiles: usize,
    probe: CoreRegisters,
    timing: &'a TimingModel,
    mode: SimMode,
}

impl Builder<'_> {
    /// Compiles the program of one agent of tile `tile`.
    fn program(&self, program: &Program, tile: usize, is_ctl: bool) -> CompiledProgram {
        let n = program.instructions.len();
        let mut ops = Vec::with_capacity(n);
        let mut costs = Vec::with_capacity(n);
        for &instr in &program.instructions {
            let cat = instr.category().index() as u8;
            let (op, cost) = self.lower(instr, tile, is_ctl, cat).unwrap_or((
                MicroOp::Interp { instr, may_block: instr.may_block() },
                OpCost::uncharged(cat, 0),
            ));
            ops.push(op);
            costs.push(cost);
        }
        // Resolve segment extents and suffix check sums in one backward
        // scan: a pure-charge run [a, e) gives every member pc its shared
        // `seg_end = e` and the start-time offset of the run's last op
        // (0 for the last op itself, growing by each latency walking
        // backward).
        let mut run: Option<(u32, u32)> = None;
        for pc in (0..n).rev() {
            if let MicroOp::Charge { seg_end, seg_check } = &mut ops[pc] {
                let (end, check) = match run {
                    Some((end, next)) => (end, next.saturating_add(costs[pc].latency)),
                    None => (pc as u32 + 1, 0),
                };
                *seg_end = end;
                *seg_check = check;
                run = Some((end, check));
            } else {
                run = None;
            }
        }
        CompiledProgram { ops, costs }
    }

    fn reg_ok(&self, reg: RegRef) -> bool {
        self.probe.read(reg).is_ok()
    }

    /// Whether the `width` registers from `base` lie in their bank (the
    /// last one readable; a zero width is left to the interpreter).
    fn range_ok(&self, base: RegRef, width: u16) -> bool {
        width > 0
            && base
                .index
                .checked_add(width - 1)
                .is_some_and(|index| self.reg_ok(RegRef { index, ..base }))
    }

    /// Whether a core's memory operand resolves without a register fault.
    fn addr_ok(&self, addr: MemAddr) -> bool {
        addr.index.is_none_or(|reg| self.reg_ok(reg))
    }

    /// The micro-op and static cost of one instruction of tile `tile`, or
    /// `None` when it must run through the interpreter.
    fn lower(
        &self,
        instr: Instruction,
        tile: usize,
        is_ctl: bool,
        cat: u8,
    ) -> Option<(MicroOp, OpCost)> {
        let timing = self.timing;
        if is_ctl {
            // Tile control units run send/receive/control-flow only;
            // anything else faults there with the canonical message, and
            // so does an indexed address (no registers).
            return match instr {
                Instruction::Jump { pc } => {
                    Some((MicroOp::Jump { target: pc }, OpCost::uncharged(cat, 1)))
                }
                Instruction::Halt => Some((MicroOp::Halt, OpCost::uncharged(cat, 0))),
                Instruction::Send {
                    addr: MemAddr { base, index: None },
                    fifo,
                    target,
                    node,
                    width,
                } if usize::from(target) < self.tiles => {
                    let (w, to) = (usize::from(width), usize::from(target));
                    let transit = u32::try_from(timing.send_cycles(w, tile, to)).ok()?;
                    let cost = self.cost(
                        timing.receive_cycles(w),
                        timing.send_energy_nj(w, tile, to),
                        EnergyComponent::Network,
                        cat,
                        0,
                    )?;
                    Some((MicroOp::Send { base, transit, fifo, target, node, width }, cost))
                }
                Instruction::Receive {
                    addr: MemAddr { base, index: None },
                    fifo,
                    count,
                    width,
                } => {
                    let w = usize::from(width);
                    let cost = self.cost(
                        timing.receive_cycles(w),
                        timing.shared_memory_energy_nj(w),
                        EnergyComponent::SharedMemory,
                        cat,
                        0,
                    )?;
                    Some((MicroOp::Recv { base, fifo, count, width }, cost))
                }
                _ => None,
            };
        }
        match instr {
            Instruction::Set { dest, imm } if self.reg_ok(dest) => {
                Some((MicroOp::Set { dest, imm }, self.sfu_cost(cat)))
            }
            Instruction::AluInt { op, dest, src1, src2 }
                if self.reg_ok(dest) && self.reg_ok(src1) && self.reg_ok(src2) =>
            {
                Some((MicroOp::AluInt { op, dest, src1, src2 }, self.sfu_cost(cat)))
            }
            Instruction::Branch { cond, src1, src2, pc }
                if self.reg_ok(src1) && self.reg_ok(src2) =>
            {
                Some((MicroOp::Branch { cond, src1, src2, target: pc }, self.sfu_cost(cat)))
            }
            Instruction::Jump { pc } => {
                Some((MicroOp::Jump { target: pc }, OpCost::uncharged(cat, 1)))
            }
            Instruction::Halt => Some((MicroOp::Halt, OpCost::uncharged(cat, 0))),
            Instruction::Load { dest, addr, width }
                if self.addr_ok(addr) && self.range_ok(dest, width) =>
            {
                Some((MicroOp::Load { dest, addr, width }, self.shared_memory_cost(width, cat)?))
            }
            Instruction::Store { addr, src, count, width }
                if self.addr_ok(addr) && self.range_ok(src, width) =>
            {
                let cost = self.shared_memory_cost(width, cat)?;
                Some((MicroOp::Store { src, addr, count, width }, cost))
            }
            // Timing mode skips vector/matrix payloads, leaving these ops
            // pure time-and-energy: fully precomputable.
            Instruction::Mvm { mask, .. }
                if self.mode == SimMode::Timing && mask.iter().all(|u| u < self.mvmus_per_core) =>
            {
                self.charge_op(
                    timing.mvm_latency(),
                    timing.mvm_energy_nj() * mask.count() as f64,
                    EnergyComponent::Mvmu,
                    cat,
                    mask.count() as u8,
                )
            }
            Instruction::Alu { op, width, .. } if self.mode == SimMode::Timing => {
                let w = width as usize;
                let (latency, nj, comp) = if op.is_transcendental() {
                    (
                        timing.transcendental_cycles(w),
                        timing.transcendental_energy_nj(w),
                        EnergyComponent::RegisterFile,
                    )
                } else {
                    (timing.vfu_cycles(w), timing.vfu_energy_nj(w), EnergyComponent::Vfu)
                };
                self.charge_op(latency, nj, comp, cat, 0)
            }
            Instruction::AluImm { width, .. } if self.mode == SimMode::Timing => {
                let w = width as usize;
                self.charge_op(
                    timing.vfu_cycles(w),
                    timing.vfu_energy_nj(w),
                    EnergyComponent::Vfu,
                    cat,
                    0,
                )
            }
            Instruction::Copy { width, .. } if self.mode == SimMode::Timing => {
                let w = width as usize;
                self.charge_op(
                    timing.copy_cycles(w),
                    timing.copy_energy_nj(w),
                    EnergyComponent::RegisterFile,
                    cat,
                    0,
                )
            }
            _ => None,
        }
    }

    fn sfu_cost(&self, cat: u8) -> OpCost {
        OpCost {
            aj: nj_to_aj(self.timing.sfu_energy_nj()),
            latency: self.timing.sfu_cycles() as u32,
            comp: EnergyComponent::Sfu.index() as u8,
            cat,
            mvmu: 0,
        }
    }

    /// The cost of a `load` or `store` of `width` words.
    fn shared_memory_cost(&self, width: u16, cat: u8) -> Option<OpCost> {
        let w = usize::from(width);
        self.cost(
            self.timing.shared_memory_cycles(w),
            self.timing.shared_memory_energy_nj(w),
            EnergyComponent::SharedMemory,
            cat,
            0,
        )
    }

    /// A pure-charge op of the given cost.
    fn charge_op(
        &self,
        latency: u64,
        nj: f64,
        comp: EnergyComponent,
        cat: u8,
        mvmu: u8,
    ) -> Option<(MicroOp, OpCost)> {
        let cost = self.cost(latency, nj, comp, cat, mvmu)?;
        Some((MicroOp::Charge { seg_end: 0, seg_check: 0 }, cost))
    }

    /// An op's cost with its energy rounded to whole attojoules, or `None`
    /// when its latency overflows `u32` (an absurd configuration), which
    /// leaves the op to the interpreter's exact arithmetic.
    fn cost(
        &self,
        latency: u64,
        nj: f64,
        comp: EnergyComponent,
        cat: u8,
        mvmu: u8,
    ) -> Option<OpCost> {
        let latency = u32::try_from(latency).ok()?;
        Some(OpCost { aj: nj_to_aj(nj), latency, comp: comp.index() as u8, cat, mvmu })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeSim, SimEngine};
    use puma_core::config::{CoreConfig, MvmuConfig, TileConfig};
    use puma_core::error::PumaError;
    use puma_core::ids::{CoreId, TileId};
    use puma_core::timing::InterconnectConfig;
    use puma_isa::asm::assemble;
    use puma_isa::MachineImage;
    use puma_xbar::NoiseModel;

    /// Two tiles of two cores, 256 general registers per core.
    fn config() -> NodeConfig {
        NodeConfig {
            tile: TileConfig {
                core: CoreConfig {
                    mvmu: MvmuConfig { dim: 16, ..MvmuConfig::default() },
                    mvmus_per_core: 2,
                    vfu_lanes: 4,
                    instruction_memory_bytes: 4096,
                    register_file_words: 256,
                },
                cores_per_tile: 2,
                shared_memory_bytes: 4096,
                ..TileConfig::default()
            },
            tiles_per_node: 2,
            ..NodeConfig::default()
        }
    }

    /// An image with core 0 and the control unit of each tile programmed
    /// (`[(core 0, control unit)]`, one entry per tile).
    fn image(cfg: &NodeConfig, programs: [(&str, &str); 2]) -> MachineImage {
        let mut img = MachineImage::new(2, cfg.tile.cores_per_tile, cfg.tile.core.mvmus_per_core);
        for (t, (core, ctl)) in programs.into_iter().enumerate() {
            let program = |src: &str| Program::from_instructions(assemble(src).unwrap());
            img.core_mut(TileId::new(t), CoreId::new(0)).program = program(core);
            img.tiles[t].program = program(ctl);
        }
        img
    }

    fn build(cfg: &NodeConfig, img: &MachineImage, mode: SimMode) -> CompiledImage {
        let timing = TimingModel::new(*cfg);
        let tiles =
            img.tiles.iter().map(|t| (t.cores.iter().map(|c| &c.program).collect(), &t.program));
        CompiledImage::build(cfg, &timing, mode, tiles)
    }

    /// Every op of one agent, with its source instruction.
    fn lowered<'a>(
        built: &'a CompiledImage,
        img: &'a MachineImage,
        tile: usize,
        core: Option<usize>,
    ) -> impl Iterator<Item = (Instruction, MicroOp, OpCost)> + 'a {
        let program = match core {
            Some(c) => &img.tiles[tile].cores[c].program,
            None => &img.tiles[tile].program,
        };
        let compiled = built.program(tile, core);
        program
            .instructions
            .iter()
            .zip(compiled.ops.iter().zip(&compiled.costs))
            .map(|(&i, (&op, &cost))| (i, op, cost))
    }

    #[test]
    fn synchronizing_instructions_lower_to_typed_ops() {
        let cfg = config();
        let img = image(
            &cfg,
            [
                (
                    "set r1 2\nstore @0 r0 1 4\nstore @8+r1 r0 1 4\nload r8 @16 4\n\
                     load r8 @16+r1 4\nhalt\n",
                    "send @0 f1 t1 4\nsend @8 f2 t1 4 n1\nrecv @32 f3 1 4\nhalt\n",
                ),
                ("halt\n", "recv @0 f1 1 4\nsend @0 f3 t0 4\nhalt\n"),
            ],
        );
        let timing = TimingModel::new(cfg);
        for mode in [SimMode::Functional, SimMode::Timing] {
            let built = build(&cfg, &img, mode);
            let agents = [(0, Some(0)), (0, None), (1, Some(0)), (1, None)];
            let mut typed = 0;
            for (tile, core) in agents {
                for (instr, op, cost) in lowered(&built, &img, tile, core) {
                    if !instr.may_block() {
                        continue;
                    }
                    typed += 1;
                    let w = 4;
                    let shared = nj_to_aj(timing.shared_memory_energy_nj(w));
                    match op {
                        MicroOp::Load { .. } | MicroOp::Store { .. } => {
                            assert_eq!(cost.latency as u64, timing.shared_memory_cycles(w));
                            assert_eq!(cost.aj, shared);
                        }
                        MicroOp::Send { transit, .. } => {
                            let to = 1 - tile;
                            assert_eq!(u64::from(transit), timing.send_cycles(w, tile, to));
                            assert_eq!(cost.latency as u64, timing.receive_cycles(w));
                            assert_eq!(cost.aj, nj_to_aj(timing.send_energy_nj(w, tile, to)));
                        }
                        MicroOp::Recv { .. } => {
                            assert_eq!(cost.latency as u64, timing.receive_cycles(w));
                            assert_eq!(cost.aj, shared);
                        }
                        other => panic!("{instr:?} lowered to {other:?} in {mode:?}"),
                    }
                    assert_eq!(usize::from(cost.cat), instr.category().index());
                }
            }
            assert_eq!(typed, 9, "every load, store, send and receive is typed");
        }
    }

    #[test]
    fn unprovable_operands_stay_interpreted() {
        let cfg = config();
        let img = image(
            &cfg,
            [
                ("load r4 @0+r9999 1\nstore @0 r250 1 16\nsend @0 f1 t1 1\nhalt\n", "halt\n"),
                ("halt\n", "send @0+r1 f1 t0 1\nsend @0 f1 t9 1\nrecv @0+r1 f1 1 1\nhalt\n"),
            ],
        );
        let built = build(&cfg, &img, SimMode::Timing);
        for (tile, core) in [(0, Some(0)), (1, None)] {
            for (instr, op, _) in lowered(&built, &img, tile, core) {
                if instr.may_block() {
                    assert!(matches!(op, MicroOp::Interp { .. }), "{instr:?} lowered to {op:?}");
                }
            }
        }
    }

    #[test]
    fn index_register_outside_the_bank_faults_like_the_interpreter() {
        let cfg = config();
        let img =
            image(&cfg, [("set r1 1\nload r4 @0+r9999 1\nhalt\n", "halt\n"), ("halt\n", "halt\n")]);
        for mode in [SimMode::Functional, SimMode::Timing] {
            let built = build(&cfg, &img, mode);
            let ops: Vec<MicroOp> =
                lowered(&built, &img, 0, Some(0)).map(|(_, op, _)| op).collect();
            assert!(matches!(ops[1], MicroOp::Interp { .. }));
            let fault = |engine: SimEngine| {
                let mut sim = NodeSim::new(cfg, &img, mode, &NoiseModel::noiseless()).unwrap();
                sim.set_engine(engine);
                match sim.run() {
                    Err(PumaError::Execution { what }) => what,
                    other => panic!("{engine:?} in {mode:?}: expected a fault, got {other:?}"),
                }
            };
            let reference = fault(SimEngine::Reference);
            assert!(reference.contains("register read out of range: r9999"), "{reference}");
            assert_eq!(fault(SimEngine::Compiled), reference);
        }
    }

    #[test]
    fn a_send_leaves_the_node_by_the_node_id_at_run_time() {
        // Built while standalone (node 0), where `n0` is this node; the
        // simulator then joins a cluster as node 1, where it is not.
        let cfg = config();
        let img = image(
            &cfg,
            [
                ("store @0 r0 1 4\nhalt\n", "send @0 f1 t1 4 n0\nhalt\n"),
                ("halt\n", "recv @0 f1 1 4\nhalt\n"),
            ],
        );
        let joined = |engine: SimEngine| {
            let mut sim =
                NodeSim::new(cfg, &img, SimMode::Timing, &NoiseModel::noiseless()).unwrap();
            sim.set_engine(engine);
            sim.run().unwrap();
            assert_eq!(sim.stats().network_words, 4);
            sim.join_cluster(1, 2, InterconnectConfig::default());
            sim.reset();
            let stalled = sim.run();
            assert!(matches!(stalled, Err(PumaError::Deadlock { .. })), "{engine:?}: {stalled:?}");
            assert_eq!(sim.stats().internode_words, 4, "{engine:?}");
            let outbox = sim.take_outbox();
            assert_eq!(outbox.len(), 1, "{engine:?}");
            assert_eq!((outbox[0].node, outbox[0].tile, outbox[0].fifo), (0, 1, 1));
            // The link's cost and transfer time, not the NoC's.
            (sim.stats().clone(), outbox[0].arrive_at)
        };
        assert_eq!(joined(SimEngine::Compiled), joined(SimEngine::Reference));
    }
}
