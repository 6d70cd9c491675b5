//! Pre-decoded micro-op programs for [`SimEngine::Compiled`].
//!
//! Serving replays the same compiled models millions of times; paying
//! `fetch` → 13-arm decode → operand resolution → an area/power-model
//! walk per executed instruction, per request, forever is pure
//! interpreter tax. This module compiles each core/tile-control program
//! **once** (in [`NodeSim::new`]; every fork shares the build) into a
//! pc-indexed array of `MicroOp`s with every static decision hoisted out
//! of the hot loop:
//!
//! - **Decode** happens here, never at execution time: each pc maps to a
//!   micro-op whose variant already encodes the dispatch.
//! - **Operand resolution** is validated here: a scalar op whose register
//!   operands are provably in bounds for the configured bank sizes
//!   compiles to an infallible fast variant; anything that *could* fault
//!   (or needs data the timing model skips) compiles to
//!   `MicroOp::Interp` and executes through the interpreter — faulting
//!   (or computing) exactly as the reference engine would, if and only if
//!   it is actually reached.
//! - **Timing and energy** are precomputed per op into a dense parallel
//!   `OpCost` array: latency, energy, energy component, instruction
//!   category, and MVMU activations, so execution touches no
//!   `TimingModel` (whose accessors re-walk the area/power model on
//!   every call).
//! - **Segments**: maximal straight-line runs of pure-charge ops (ops
//!   with no observable effect beyond time and energy — timing-mode
//!   vector/matrix instructions) are charged in one dense walk with a
//!   single up-front cycle-cap precheck (each charge op's `seg_check`).
//!   Energy is whole attojoules, quantized here from the same f64
//!   expression the interpreter rounds, so both engines add the same
//!   integers and their [`RunStats`] are bit-identical by construction.
//!
//! Segment boundaries fall exactly at the synchronization points the
//! scheduler already knows: attribute-buffer load/store, FIFO
//! send/receive, control flow, and anything register-visible. The
//! scheduler itself (tile ready lists, the cross-tile horizon, wakes) is
//! described in the [`crate::machine`] module docs, next to the
//! segment-safety invariant.
//!
//! [`SimEngine::Compiled`]: crate::SimEngine::Compiled
//! [`NodeSim::new`]: crate::NodeSim::new
//! [`RunStats`]: crate::RunStats

use crate::machine::SimMode;
use crate::regfile::CoreRegisters;
use crate::stats::{nj_to_aj, EnergyComponent};
use puma_core::config::NodeConfig;
use puma_core::timing::TimingModel;
use puma_isa::{BranchCond, Instruction, Program, RegRef, ScalarOp};

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
    /// Interpreter fallback: blocking/synchronizing instructions,
    /// functional-mode data paths, and any op whose operands could not
    /// be proven in bounds at compile time (it faults — with the
    /// interpreter's exact message — only if actually executed).
    Interp {
        /// The original instruction, dispatched to the interpreter.
        instr: Instruction,
        /// Hoisted [`Instruction::may_block`] for the horizon check.
        may_block: bool,
    },
}

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
        tiles: impl Iterator<Item = (Vec<&'a Program>, &'a Program)>,
    ) -> Self {
        let builder = Builder {
            mvmus_per_core: cfg.tile.core.mvmus_per_core,
            // A scratch register file sized exactly like every core's:
            // an operand the probe can read is an operand no execution
            // can fault on (read and write share the bank bounds).
            probe: CoreRegisters::new(&cfg.tile.core),
            timing,
            mode,
        };
        CompiledImage {
            tiles: tiles
                .map(|(cores, ctl)| CompiledTile {
                    cores: cores.iter().map(|p| builder.program(p, false)).collect(),
                    ctl: builder.program(ctl, true),
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
    probe: CoreRegisters,
    timing: &'a TimingModel,
    mode: SimMode,
}

impl Builder<'_> {
    fn program(&self, program: &Program, is_ctl: bool) -> CompiledProgram {
        let n = program.instructions.len();
        let mut ops = Vec::with_capacity(n);
        let mut costs = Vec::with_capacity(n);
        for &instr in &program.instructions {
            let (op, cost) = self.compile_op(instr, is_ctl);
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

    fn compile_op(&self, instr: Instruction, is_ctl: bool) -> (MicroOp, OpCost) {
        let cat = instr.category().index() as u8;
        let interp = |instr: Instruction| {
            (MicroOp::Interp { instr, may_block: instr.may_block() }, OpCost::uncharged(cat, 0))
        };
        if is_ctl {
            // Tile control units run send/receive/control-flow only;
            // send/receive synchronize (interpreter), anything else
            // faults there with the canonical message.
            return match instr {
                Instruction::Jump { pc } => {
                    (MicroOp::Jump { target: pc }, OpCost::uncharged(cat, 1))
                }
                Instruction::Halt => (MicroOp::Halt, OpCost::uncharged(cat, 0)),
                other => interp(other),
            };
        }
        match instr {
            Instruction::Set { dest, imm } if self.reg_ok(dest) => {
                (MicroOp::Set { dest, imm }, self.sfu_cost(cat))
            }
            Instruction::AluInt { op, dest, src1, src2 }
                if self.reg_ok(dest) && self.reg_ok(src1) && self.reg_ok(src2) =>
            {
                (MicroOp::AluInt { op, dest, src1, src2 }, self.sfu_cost(cat))
            }
            Instruction::Branch { cond, src1, src2, pc }
                if self.reg_ok(src1) && self.reg_ok(src2) =>
            {
                (MicroOp::Branch { cond, src1, src2, target: pc }, self.sfu_cost(cat))
            }
            Instruction::Jump { pc } => (MicroOp::Jump { target: pc }, OpCost::uncharged(cat, 1)),
            Instruction::Halt => (MicroOp::Halt, OpCost::uncharged(cat, 0)),
            // Timing mode skips vector/matrix payloads, leaving these ops
            // pure time-and-energy: fully precomputable.
            Instruction::Mvm { mask, .. }
                if self.mode == SimMode::Timing && mask.iter().all(|u| u < self.mvmus_per_core) =>
            {
                self.charge_op(
                    self.timing.mvm_latency(),
                    self.timing.mvm_energy_nj() * mask.count() as f64,
                    EnergyComponent::Mvmu,
                    cat,
                    mask.count() as u8,
                    instr,
                )
            }
            Instruction::Alu { op, width, .. } if self.mode == SimMode::Timing => {
                let w = width as usize;
                let (latency, nj, comp) = if op.is_transcendental() {
                    (
                        self.timing.transcendental_cycles(w),
                        self.timing.transcendental_energy_nj(w),
                        EnergyComponent::RegisterFile,
                    )
                } else {
                    (self.timing.vfu_cycles(w), self.timing.vfu_energy_nj(w), EnergyComponent::Vfu)
                };
                self.charge_op(latency, nj, comp, cat, 0, instr)
            }
            Instruction::AluImm { width, .. } if self.mode == SimMode::Timing => {
                let w = width as usize;
                self.charge_op(
                    self.timing.vfu_cycles(w),
                    self.timing.vfu_energy_nj(w),
                    EnergyComponent::Vfu,
                    cat,
                    0,
                    instr,
                )
            }
            Instruction::Copy { width, .. } if self.mode == SimMode::Timing => {
                let w = width as usize;
                self.charge_op(
                    self.timing.copy_cycles(w),
                    self.timing.copy_energy_nj(w),
                    EnergyComponent::RegisterFile,
                    cat,
                    0,
                    instr,
                )
            }
            other => interp(other),
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

    fn charge_op(
        &self,
        latency: u64,
        nj: f64,
        comp: EnergyComponent,
        cat: u8,
        mvmu: u8,
        instr: Instruction,
    ) -> (MicroOp, OpCost) {
        let Ok(latency) = u32::try_from(latency) else {
            // A single-op latency overflowing u32 (absurd configuration):
            // keep the interpreter's exact arithmetic.
            return (
                MicroOp::Interp { instr, may_block: instr.may_block() },
                OpCost::uncharged(cat, 0),
            );
        };
        (
            MicroOp::Charge { seg_end: 0, seg_check: 0 },
            OpCost { aj: nj_to_aj(nj), latency, comp: comp.index() as u8, cat, mvmu },
        )
    }
}
