//! PUMAsim: the node-level discrete-event simulator.
//!
//! Every core and every tile control unit is an *agent* executing its
//! instruction stream in program order. Agents advance through an event
//! queue kept per tile (see the scheduler section below); blocking
//! instructions (load/store on the attribute buffer,
//! receive on an empty FIFO, send into a full FIFO) park the agent on its
//! tile's blocked list until a state change wakes it. The simulator
//! detects deadlock — a nonempty blocked set with an empty event queue —
//! which is exactly the failure mode the compiler's global linearization
//! exists to prevent (§5.3.3, Fig. 10).
//!
//! Two modes:
//!
//! - [`SimMode::Functional`] — full data computation: crossbar MVMs through
//!   [`puma_xbar::AnalogMvmu`], vector ops in Q4.12, transcendental LUTs.
//! - [`SimMode::Timing`] — identical timing, energy, and synchronization
//!   behaviour, but vector/matrix payloads are not computed (scalar and
//!   control-flow instructions still execute so loops behave). This is
//!   what makes node-scale models tractable to simulate.
//!
//! Two execution engines with bit-identical semantics (see
//! [`SimEngine`]): the reference per-instruction event loop, the oracle;
//! and the default compiled engine, which runs pre-decoded micro-op
//! segments tile by tile — straight-line runs of core-local instructions
//! execute inside one event, and a tile's events run back to back while
//! no other tile can reach it.
//!
//! # Lanes
//!
//! A simulator forked with [`NodeSim::fork_lanes`] serves `K` requests in
//! one run, one per *lane*. The data plane is lane-major — `K` copies of
//! every register word ([`RegArena`]) and shared-memory word
//! ([`MemArena`]), allocated zeroed so a lane never written costs no
//! resident memory — and everything else runs once:
//!
//! - **Shared:** the program counters, the attribute buffer (`valid`
//!   and `count`), FIFO occupancy, the scheduler queue,
//!   timing, energy, [`RunStats`] and the instruction counts. Timing never
//!   depends on data, so a `K`-lane run takes exactly the cycles and
//!   energy of each request's solo run.
//! - **Per lane:** vector and immediate ALU ops, `AluInt`, `Shl`/`Shr`
//!   shift amounts, `Copy`, MVMs (the lane loop sits inside the unit
//!   loop, so lanes after the first find the unit's weights in cache),
//!   loads, stores, and functional packet payloads (`K × width` words,
//!   lane after lane). Host inputs are written per lane; constants once
//!   for all lanes.
//! - **Written to every lane:** `Set`, and `Rand`, which draws once per
//!   word — each lane sees the stream a solo run, reseeded at reset,
//!   would draw.
//! - **Read from lane 0:** branch operands, index registers and
//!   `Subsample` strides. The lane certificate guarantees every lane holds
//!   the same value there (debug builds check it).
//! - **Unchanged:** non-ideality perturbations keep their `(site, time
//!   index)` keys, identical in every lane because timing is shared; a
//!   run that fails fails every lane, as each request's solo run would.
//!
//! [`NodeSim::fork_lanes`] forks more than one lane only for a standalone
//! [`SimMode::Functional`] node whose image passes the certificate
//! ([`crate::lanes::certified`], checked per core program): no `Branch`
//! operand, index register or `Subsample` stride may be written —
//! directly or through an `AluInt` chain — by a `Load`, `Alu`, `AluImm`,
//! `Copy` or `Mvm`. Packet faults, whose decisions hash the payload,
//! apply only to inter-node sends, which a standalone node never makes.
//!
//! # The scheduler: tiles, and the cross-tile horizon
//!
//! PUMA's cores synchronize only through their tile's attribute buffer
//! and receive FIFOs, and tiles talk to each other only over the NoC (or
//! the chip-to-chip link). The scheduler follows that structure: every
//! queued event targets exactly one tile (an agent's next instruction, or
//! a packet delivery), each tile keeps its events in a small ready list
//! sorted by the reference order `(time, priority, seq)`, and the global
//! queue holds one entry per tile, keyed by the tile's next event
//! (the `equeue` module).
//!
//! - The **reference engine** pops the earliest tile and runs one event
//!   — one instruction or one delivery — which is exactly one flat event
//!   heap in `(time, priority, seq)` order.
//! - The **compiled engine** pops the earliest tile and runs its events
//!   back to back, in list order, while the tile's *cross-tile horizon*
//!   clears; an agent event runs the agent's whole straight-line stretch
//!   of instructions (below). When the tile's next event fails the
//!   horizon, the tile goes back into the global queue under that event.
//!
//! Events of one tile run in exact reference order by construction: the
//! list is that order, and every event that can affect the tile lands in
//! it. An agent running ahead stops at each synchronization instruction
//! (attribute-buffer load/store, FIFO send/receive) until it is its turn:
//! it first runs, in place, every event of its tile that sorts before
//! the instruction, waiting suspended in its own frame, or — when an
//! agent suspended further out must go first, or the horizon below does
//! not clear — the instruction is deferred into the list under its own
//! key. Only instructions that touch no shared state run past the tile's
//! other events.
//!
//! The cross-tile horizon is what other tiles and nodes could still do to
//! tile `T` at or before time `t`:
//!
//! 1. **Cross-tile interference travels only by NoC packet.** A delivery
//!    into `T` is scheduled by a static `send` executing on a sender tile
//!    `U` no earlier than `U`'s next event, and lands at least the
//!    cheapest static transit `D` later (`senders_to`); a chain of two or
//!    more sends costs at least `min_indirect` beyond the globally
//!    earliest queued event. Every transit is at least one cycle, so a
//!    chain starting at `T` itself cannot land by `t`.
//! 2. **Inter-node packets** bypass the NoC; the co-simulation core
//!    ([`crate::cluster`]) publishes the earliest global cycle one could
//!    still arrive at via [`NodeSim::set_external_horizon`], and the tile
//!    may only run strictly below it.
//!
//! The first event of a tile entry needs no check: it is the global
//! minimum. Every event that will ever target `T` therefore lands in `T`'s
//! list before `T` runs past its time, so the compiled engine computes
//! exactly what the reference event loop does. Any new stepping-API
//! feature (a new event kind, a new cross-tile effect, a zero-latency
//! message path) must preserve this or widen `NodeSim::tile_clear`.
//!
//! # Compiled segments: the segment-boundary safety invariant
//!
//! The compiled engine replaces the per-instruction fetch/decode/cost
//! path with pre-decoded micro-ops (see [`crate::compiled`]). Its
//! bulk-charged *segments* must uphold two boundary rules, checked
//! against the same invariants:
//!
//! 1. **A segment never crosses a synchronization point.** Only
//!    pure-charge ops — no register, memory, FIFO, or control-flow
//!    effect — are bulk-charged. Every instruction that can observe or
//!    mutate shared tile state — a typed `Load`/`Store`/`Send`/`Recv`
//!    micro-op, or an interpreted instruction that
//!    [`may block`](Instruction::may_block) — ends the segment, waits for
//!    its tile's turn (order and horizon), and then runs its Fig. 6 or
//!    FIFO transition through the same helper the reference engine
//!    calls. A segment is therefore invisible to every other agent, and
//!    charging it in one step is indistinguishable from per-instruction
//!    execution.
//! 2. **A segment never crosses the cycle cap.** Bulk charging is gated
//!    on `t + seg_check ≤ max_cycles` (`seg_check` being the start-time
//!    offset of the segment's last op); past that, execution degrades to
//!    per-op stepping with the per-instruction cap check, so a runaway
//!    program faults at the same deterministic instruction on both
//!    engines.

use crate::cluster::stall_verdict;
use crate::compiled::{CompiledImage, MicroOp, OpCost, NO_CHARGE};
use crate::equeue::{
    agent_priority, DeliverEvent, Event, EventKind, TileQueue, PRIO_DELIVER, PRIO_SHIFT, PRIO_WAKE,
};
use crate::fifo::{FifoArena, Packet};
use crate::lanes::Lanes;
use crate::lut::RomLut;
use crate::memory::{MemArena, MemImage, MemOutcome};
use crate::regfile::RegArena;
use crate::stats::{nj_to_aj, EnergyComponent, RunStats};
use puma_core::config::NodeConfig;
use puma_core::error::{PumaError, Result};
use puma_core::fixed::Fixed;
use puma_core::timing::{InterconnectConfig, TimingModel};
use puma_isa::{AluImmOp, AluOp, Instruction, MachineImage, MemAddr, Program, RegRef, ScalarOp};
use puma_xbar::noise::{keyed_hash, mix64, unit_from};
use puma_xbar::{AnalogMvmu, NoiseModel, Perturbation};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Simulation fidelity level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimMode {
    /// Compute all data values (bit-accurate inference results).
    Functional,
    /// Skip vector/matrix data; keep timing, energy, and synchronization.
    Timing,
}

/// Default safety cap on simulated cycles.
pub const DEFAULT_MAX_CYCLES: u64 = 20_000_000_000;

/// A named model resident on a contiguous tile range of a simulated
/// node. Residency is pure metadata over an already-composed fabric
/// image (see `puma_compiler::relocate::compose_fabric`): it attributes
/// fault/deadlock reports to the owning tenant and scopes per-model
/// runs ([`NodeSim::run_resident`]) so one fabric yields exact
/// per-model [`RunStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResidentModel {
    /// Tenant name (matches the `"{name}:"` I/O binding prefix the
    /// fabric composer emits).
    pub name: String,
    /// First tile of the resident's allocation.
    pub base: usize,
    /// Number of tiles allocated.
    pub tiles: usize,
}

impl ResidentModel {
    /// True if `tile` belongs to this resident's allocation.
    pub fn owns(&self, tile: usize) -> bool {
        tile >= self.base && tile < self.base + self.tiles
    }
}

/// Execution-engine selection for [`NodeSim::run`].
///
/// Both engines implement *identical* semantics — same cycle counts, same
/// energy, same synchronization and deadlock behaviour (the testkit
/// differential suite pins [`RunStats`] equality on fuzzed models). They
/// differ only in how much work goes through the event queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimEngine {
    /// The original per-instruction event loop: every executed instruction
    /// is one queue round-trip. Kept as the differential oracle and for
    /// event-level debugging.
    Reference,
    /// Compiled tile-granular execution (default): a tile's events run
    /// back to back while no other tile can reach it, and an agent event
    /// executes a whole straight-line run of instructions, accumulating
    /// time locally, up to its next synchronization point (module docs,
    /// the scheduler). Each program is compiled once, on the first
    /// compiled run, into dense micro-ops with decode, operand
    /// resolution, and per-op timing/energy hoisted out of the hot loop,
    /// and maximal pure-charge runs accounted as whole segments (see
    /// [`crate::compiled`] and the module docs' segment-boundary
    /// invariant). Forks share the build.
    #[default]
    Compiled,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct AgentId {
    pub(crate) tile: u32,
    /// Core index, or `u32::MAX` for the tile control unit.
    pub(crate) core: u32,
}

const TILE_CTL: u32 = u32::MAX;

/// Hash-domain tags for interconnect packet faults — companions to the
/// xbar-layer stuck-cell/dead-column tags in `puma_xbar::mvmu`, keyed
/// into the same counter-mode `(seed, parts)` RNG contract.
const TAG_PKT_DROP: u64 = 0x5044_524F; // "PDRO"
const TAG_PKT_DUP: u64 = 0x5044_5550; // "PDUP"
const TAG_PKT_DELAY: u64 = 0x5044_4C59; // "PDLY"

impl AgentId {
    fn is_tile_ctl(self) -> bool {
        self.core == TILE_CTL
    }
}

/// One core's control state. The register file itself lives in the
/// node-level [`RegArena`] at the precomputed `reg_slot`; programmed
/// crossbars are `Arc`-shared across replicas (immutable after
/// configuration, §3.2.5), so this struct holds only what is mutable
/// per run.
#[derive(Debug)]
struct CoreState {
    pc: u32,
    /// This core's register-file slot in the node's [`RegArena`].
    reg_slot: u32,
    mvmus: Vec<Option<Arc<AnalogMvmu>>>,
    program: Arc<Program>,
    halted: bool,
    rng: u32,
}

/// One tile's control state. The attribute-buffer shared memory and the
/// receive FIFOs live in the node-level [`MemArena`] and [`FifoArena`]
/// at this tile's index (see the arena-layout invariant in
/// docs/ARCHITECTURE.md).
#[derive(Debug)]
struct TileState {
    cores: Vec<CoreState>,
    tile_pc: u32,
    tile_program: Arc<Program>,
    tile_halted: bool,
}

/// Outcome of executing one instruction.
enum Step {
    /// Completed; advance `pc` to `next_pc` and re-schedule after `latency`.
    Advance { next_pc: u32, latency: u64 },
    /// Could not proceed; park the agent until the tile state changes.
    Blocked(WaitCond),
    /// The stream terminated.
    Halted,
}

/// What a completed synchronizing instruction charges: its latency as
/// busy cycles, and its energy in whole attojoules. The
/// reference engine computes it per execution from the timing model; the
/// compiled engine reads it from the micro-op build's [`OpCost`], which
/// rounded the same f64 expression.
#[derive(Debug, Clone, Copy)]
struct Charge {
    cycles: u64,
    aj: u64,
}

/// Where a `send` puts its packet: the destination node, tile and FIFO,
/// and the cycles from the send to the landing — the NoC transit for a
/// node-local send, the link transfer time otherwise.
#[derive(Debug, Clone, Copy)]
struct Route {
    node: u16,
    tile: u16,
    fifo: u8,
    transit: u64,
}

/// The step of a synchronizing instruction at `pc` whose transition
/// blocked on `blocked`, or completed paying `charge`.
fn sync_step(blocked: Option<WaitCond>, pc: u32, charge: Charge) -> Step {
    match blocked {
        Some(cond) => Step::Blocked(cond),
        None => Step::Advance { next_pc: pc + 1, latency: charge.cycles },
    }
}

/// Why a blocked agent is parked: the precise state transition that can
/// make its instruction succeed. The compiled engine wakes an agent only
/// when a matching transition happens (spurious retries are pure event
/// overhead — they dominated the seed's event count); the reference
/// engine preserves the seed behaviour of retrying every parked agent on
/// any tile change. Total `blocked_cycles` are identical either way: each
/// wake adds `now - since` and a failed retry re-parks at `now`, so the
/// per-agent sum telescopes to `success_time - first_block_time`
/// regardless of how many intermediate retries happen.
///
/// **Wake-order contract (both engines):** when one [`TileChange`] wakes
/// several parked agents, they wake — and their retries pop from the
/// event queue — in *park order* (FIFO: the agent that blocked first
/// retries first). A woken agent whose retry fails re-parks at the back
/// of the line. See [`NodeSim::apply_wakes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WaitCond {
    /// Waiting for this shared-memory word to become valid (a reader).
    MemValid(u32),
    /// Waiting for this shared-memory word to be consumed (a writer).
    MemInvalid(u32),
    /// Waiting for a packet to land in this receive FIFO.
    FifoPacket(u8),
}

impl WaitCond {
    /// Human-readable description of the transition being waited for,
    /// used by [`NodeSim::blocked_summary`] to make deadlock and serving
    /// timeout reports actionable.
    fn describe(self) -> String {
        match self {
            WaitCond::MemValid(a) => format!("word @{a} to become valid"),
            WaitCond::MemInvalid(a) => format!("word @{a} to be consumed"),
            WaitCond::FifoPacket(f) => format!("fifo f{f}"),
        }
    }

    /// The wait condition matching a memory block reason.
    fn for_mem_block(block: crate::memory::MemBlock) -> WaitCond {
        match block {
            crate::memory::MemBlock::NotValid { addr } => WaitCond::MemValid(addr),
            crate::memory::MemBlock::StillValid { addr } => WaitCond::MemInvalid(addr),
        }
    }

    /// True if `change` can satisfy this wait.
    fn wakes_on(self, change: TileChange) -> bool {
        match (self, change) {
            (WaitCond::MemValid(a), TileChange::ValidRange { start, len }) => {
                a >= start && a - start < len
            }
            (WaitCond::MemInvalid(a), TileChange::InvalidRange { start, len }) => {
                a >= start && a - start < len
            }
            (WaitCond::FifoPacket(f), TileChange::FifoPush(g)) => f == g,
            _ => false,
        }
    }
}

/// A state transition on a tile that may unblock parked agents. Every
/// generation-bumping operation records one of these; they drive both the
/// reference engine's wake-all and the compiled engine's targeted wakes.
#[derive(Debug, Clone, Copy)]
enum TileChange {
    /// Words `[start, start + len)` became valid (a write landed).
    ValidRange { start: u32, len: u32 },
    /// Words `[start, start + len)` may have been consumed (a read
    /// committed; conservative — counts may not have reached zero).
    InvalidRange { start: u32, len: u32 },
    /// A packet was admitted into this FIFO.
    FifoPush(u8),
}

/// One tile's parked agents, in FIFO park order (insertion order):
/// tuples of `(agent, blocked-since cycle, wait condition)`, the
/// condition being the index key wake-ups match against. A flat ordered
/// list beats keyed maps here — a tile can park at most its agent count
/// (cores + control unit, single digits), wake-up must preserve park
/// order anyway, and a B-tree variant measured ~30% slower end to end
/// on sync-bound workloads (parks/wakes are the hot path).
#[derive(Debug, Default)]
struct ParkedSet {
    entries: Vec<(AgentId, u64, WaitCond)>,
}

impl ParkedSet {
    fn park(&mut self, agent: AgentId, since: u64, cond: WaitCond) {
        self.entries.push((agent, since, cond));
    }
    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
    fn len(&self) -> usize {
        self.entries.len()
    }
    fn clear(&mut self) {
        self.entries.clear();
    }
    fn drain_all(&mut self, out: &mut Vec<(AgentId, u64)>) {
        out.extend(self.entries.drain(..).map(|(a, s, _)| (a, s)));
    }
    /// Moves every agent some change in `changes` can wake to `out`, in
    /// park order (as the reference engine's wake-all retries them).
    fn take_matching(&mut self, changes: &[TileChange], out: &mut Vec<(AgentId, u64)>) {
        self.entries.retain(|&(a, s, cond)| {
            let wake = changes.iter().any(|&c| cond.wakes_on(c));
            if wake {
                out.push((a, s));
            }
            !wake
        });
    }
    fn iter(&self) -> impl Iterator<Item = &(AgentId, u64, WaitCond)> {
        self.entries.iter()
    }
}

/// A node's host I/O bindings with a name → binding index over each
/// list. Built once per image; replicas share it. When a name is bound
/// more than once the first binding wins, as a front-to-back search
/// would find it.
#[derive(Debug)]
struct IoIndex {
    inputs: Vec<puma_isa::IoBinding>,
    outputs: Vec<puma_isa::IoBinding>,
    input_at: HashMap<String, usize>,
    output_at: HashMap<String, usize>,
}

impl IoIndex {
    fn new(image: &MachineImage) -> Self {
        let index = |bindings: &[puma_isa::IoBinding]| {
            let mut at = HashMap::with_capacity(bindings.len());
            for (i, b) in bindings.iter().enumerate() {
                at.entry(b.name.clone()).or_insert(i);
            }
            at
        };
        IoIndex {
            input_at: index(&image.inputs),
            output_at: index(&image.outputs),
            inputs: image.inputs.clone(),
            outputs: image.outputs.clone(),
        }
    }

    fn input(&self, name: &str) -> Option<&puma_isa::IoBinding> {
        self.input_at.get(name).map(|&i| &self.inputs[i])
    }

    fn output(&self, name: &str) -> Option<&puma_isa::IoBinding> {
        self.output_at.get(name).map(|&i| &self.outputs[i])
    }
}

/// Where and when a packet was sent. Two packets landing in one tile in
/// the same cycle are delivered in origin order — send cycle, then
/// sender node, sender tile and duplicate index — on every engine: the
/// order the engines happen to execute the sends in is not part of the
/// semantics, since the compiled engine runs tiles ahead of one another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketOrigin {
    /// Global cycle the `send` executed at.
    pub sent_at: u64,
    /// Sending node.
    pub node: u16,
    /// Sending tile, local to the sending node.
    pub tile: u32,
    /// 0 for the packet itself, 1 for a fault-injected duplicate.
    pub copy: u8,
}

/// An inter-node packet produced by a `send` to another node: the
/// co-simulation core ([`crate::cluster`]) or another driver of the
/// stepping API collects these via [`NodeSim::take_outbox`] and delivers
/// them after the interconnect delay.
#[derive(Debug)]
pub struct OutboundPacket {
    /// Destination node index.
    pub node: u16,
    /// Destination tile index, local to the destination node.
    pub tile: u16,
    /// Destination receive FIFO.
    pub fifo: u8,
    /// Payload (empty in timing mode).
    pub packet: Packet,
    /// Global cycle at which the packet lands at the destination tile.
    pub arrive_at: u64,
    /// The send that produced the packet: the tie-break among packets
    /// landing in one tile in the same cycle.
    pub origin: PacketOrigin,
}

/// The node simulator.
#[derive(Debug)]
pub struct NodeSim {
    cfg: NodeConfig,
    timing: TimingModel,
    /// Cached `timing.fetch_decode_energy_nj()` in attojoules: one
    /// instruction's fetch/decode, which [`NodeSim::finalize_stats`]
    /// charges per instruction the compiled engine counted, keeping the
    /// area/power model walk out of the hot loop.
    fd_energy_aj: u64,
    mode: SimMode,
    engine: SimEngine,
    /// Data lanes allocated: the most requests one run serves side by
    /// side (module docs, "Lanes"). 1 unless forked with
    /// [`NodeSim::fork_lanes`].
    lanes: usize,
    /// Lanes the current run computes, `1..=lanes` (see
    /// [`NodeSim::reset_lanes`]).
    live: usize,
    /// The lane certificate of the programs, computed on first use and
    /// shared with every fork (the programs are).
    certificate: Arc<OnceLock<bool>>,
    tiles: Vec<TileState>,
    /// All tiles' attribute-buffer shared memories, packed into one
    /// node-level arena (one data plane + one attribute plane,
    /// tile-indexed slots). Event dispatch on NMTL3-class fabrics
    /// (hundreds of tiles) was cache-miss-bound when every tile owned
    /// scattered heap blocks; see the arena-layout invariant in
    /// docs/ARCHITECTURE.md.
    mem: MemArena,
    /// All cores' register files (XbarIn / XbarOut / general banks) in
    /// one node-level slab; each [`CoreState`] holds its precomputed
    /// slot index.
    regs: RegArena,
    /// All tiles' receive FIFO rings *and* their per-channel
    /// backpressure queues (formerly a per-(tile, fifo) `HashMap`) in
    /// one arena.
    pub(crate) fifos: FifoArena,
    lut: RomLut,
    stats: RunStats,
    /// First agent slot of each tile (prefix sums over cores+ctl), plus
    /// the agent count. A core's register-file slot follows from it: the
    /// slots before tile `t` hold `t` control units, which have none.
    agent_offsets: Vec<usize>,
    /// Each tile's agents parked on a synchronization condition, in one
    /// dense array (the wake path checks it after every synchronization
    /// instruction).
    parked: Vec<ParkedSet>,
    /// Per agent slot, the cycle its current instruction first blocked
    /// at (`u64::MAX` while it is not blocked). A parked agent's retries
    /// re-park it at their own cycle — the reference engine retries on
    /// every change, the compiled engine only on matching ones — so this,
    /// not the latest park, is what [`NodeSim::blocked_summary`] reports.
    blocked_from: Vec<u64>,
    /// Dynamic instruction counts by [`InstructionCategory::index`].
    instr_counts: [u64; puma_isa::InstructionCategory::ALL.len()],
    /// Host I/O bindings and their name index, built once per image and
    /// shared by `Arc` with every [`NodeSim::fork_replica`].
    io: Arc<IoIndex>,
    max_cycles: u64,
    seq: u64,
    /// Transitions recorded by the currently executing instruction (or
    /// packet delivery), consumed by [`NodeSim::apply_wakes`].
    changes: Vec<TileChange>,
    /// Scratch for wake batches (reused so waking allocates nothing).
    wake_scratch: Vec<(AgentId, u64)>,
    /// The scheduler queue: per-tile ready lists under one tile heap
    /// (module docs, the scheduler). Owned by the simulator (rather than
    /// the run loop) so a cluster scheduler can interleave events across
    /// nodes via [`NodeSim::step_one`].
    queue: TileQueue,
    /// The static NoC send graph, per target tile: `senders_to[T]` lists
    /// `(U, D)` pairs where some `send` instruction in tile `U`'s control
    /// program addresses tile `T` with minimum transit `D` (self-sends
    /// excluded — they are tile-`T` events, in `T`'s own list). Any
    /// packet delivery into `T` is scheduled by one of these static sends
    /// executing at an event time `s ≥` the sender's next event time
    /// `m_U`, so it lands `≥ m_U + D` — the direct term of the cross-tile
    /// horizon. Recomputed on
    /// [`NodeSim::join_cluster`] (the node id decides which sends are
    /// local).
    senders_to: Vec<Vec<(u32, u64)>>,
    /// Per-target cheapest direct incoming edge (`u64::MAX` when no send
    /// targets the tile) — the fast-path bound of `NodeSim::tile_clear`.
    min_direct: Vec<u64>,
    /// Per-target floor on *multi-hop* delivery cost: the cheapest
    /// last-edge-into-`T` plus the cheapest edge into that edge's source
    /// (`u64::MAX` when unreachable in two hops). A delivery riding a
    /// path of two or more static sends costs at least this beyond the
    /// globally earliest queued event.
    min_indirect: Vec<u64>,
    /// Latest event/instruction timestamp observed this run.
    last_time: u64,
    /// This node's index within a cluster (0 standalone).
    node_id: u16,
    /// Number of nodes in the cluster (1 standalone).
    cluster_nodes: u16,
    /// Chip-to-chip link model for inter-node sends.
    interconnect: InterconnectConfig,
    /// Inter-node packets awaiting pickup by the cluster scheduler.
    outbox: Vec<OutboundPacket>,
    /// External horizon: the earliest global cycle an inter-node packet
    /// could still arrive at. The compiled engine runs a tile's later
    /// events and synchronization instructions only strictly below it.
    horizon: u64,
    /// External stop: no straight-line run goes past it (a pipeline
    /// watchdog's next abort). Both are `u64::MAX` standalone.
    pub(crate) stop: u64,
    /// The pre-decoded micro-op image for [`SimEngine::Compiled`]: built
    /// on the first compiled run of this simulator or any fork of it,
    /// and `Arc`-shared by all of them, so a simulator that only ever
    /// runs [`SimEngine::Reference`] never builds it. Read-only and
    /// preserved across [`NodeSim::reset`] — programs are immutable after
    /// construction, so one build serves every request. `None` only while
    /// `NodeSim::run_tile` borrows it.
    pub(crate) compiled: Option<Arc<OnceLock<CompiledImage>>>,
    /// Snapshots saved by [`NodeSim::save_snapshot`], by key. Survive
    /// [`NodeSim::reset`]; a fork starts without any.
    snapshots: Vec<Snapshot>,
    /// Resident-model registry (sorted by base tile; empty for
    /// single-tenant machines). Machine configuration like the compiled
    /// image: survives [`NodeSim::reset`].
    residents: Vec<ResidentModel>,
    /// Cycle at which the current run's agents were primed. Non-ideality
    /// time indices are taken relative to it, so time-sliced serving
    /// segments and batched requests see request-relative simulated time
    /// and replay bit-exactly regardless of global scheduling.
    run_base: u64,
    /// The read-side MVM perturbation (non-ideality and crossbar-cell
    /// faults), built from the config at construction; each MVM keys it
    /// with its site and time. An empty one selects the exact integer
    /// kernel — the disabled-config and empty-plan bit-identity
    /// contracts of the differential suites.
    mvm_perturbation: Perturbation,
    /// Scratch for the shuffled MVM input (one crossbar's rows), reused
    /// so functional MVMs allocate nothing.
    mvm_input: Vec<Fixed>,
    /// Scratch for a functional vector instruction's result, reused so
    /// vector ops and register copies allocate nothing once it has grown
    /// to the widest vector.
    vec_out: Vec<Fixed>,
    /// The injected tile death this node owns, as `(tile, at_cycle)`
    /// (`None` when the fault plan names no death on this node).
    /// Recomputed on [`NodeSim::join_cluster`]: the node id decides
    /// ownership.
    dead_tile: Option<(u32, u64)>,
    /// True once the injected tile death suppressed an agent dispatch
    /// or a delivery this run (cleared by [`NodeSim::reset`]); drives
    /// the typed [`PumaError::FaultedTile`] quiescence diagnosis.
    death_fired: bool,
    /// The reference key `(time, priority)` of the innermost agent
    /// suspended at a synchronization instruction while earlier events of
    /// its tile run (see `NodeSim::take_turn`); `(u64::MAX, u64::MAX)`
    /// when none is.
    floor: (u64, u64),
    /// Scheduler work since the last [`NodeSim::reset`] — the
    /// scheduler-overhead counterpart of the dynamic instruction count.
    /// Not part of [`RunStats`]: engines deliberately differ here, and
    /// `RunStats` equality is the cross-engine contract.
    sched: SchedStats,
    /// Compiled-segment execution counters, populated when
    /// `PUMA_PROFILE=1` (or [`NodeSim::enable_segment_profiling`]).
    /// Boxed so the disabled case costs one null check in the hot loop.
    profile: Option<Box<SegmentProfile>>,
}

/// A saved start-of-run state (see [`NodeSim::save_snapshot`]): lane 0
/// of the attribute buffers and the statistics the writes before it
/// charged.
#[derive(Debug, Clone)]
struct Snapshot {
    key: String,
    mem: MemImage,
    stats: RunStats,
}

/// Scheduler work of one node since its last reset (see
/// [`NodeSim::sched_stats`]): how often the scheduler entered a tile,
/// dispatched an agent, parked one, and deferred a synchronization
/// instruction. Engine-dependent by design, so it is kept out of
/// [`RunStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Pops of the global tile queue ([`NodeSim::queue_events`]). The
    /// reference engine runs one event per entry; the compiled engine
    /// runs a tile's events back to back.
    pub tile_entries: u64,
    /// Agent events run: one instruction each on the reference engine,
    /// a straight-line run up to the next synchronization point on the
    /// compiled engine.
    pub dispatches: u64,
    /// Instructions that blocked and parked their agent.
    pub parks: u64,
    /// Synchronization instructions the compiled engine deferred into
    /// their tile's list: an agent suspended further out had to go
    /// first, or the cross-tile horizon did not clear.
    pub deferrals: u64,
}

/// Per-segment execution counters for the compiled engine: how many
/// times each pure-charge segment (keyed by tile, core — `u32::MAX` for
/// the tile control unit — and segment start pc) was bulk-executed.
/// Enabled by `PUMA_PROFILE=1` (checked once per process); dumped as a
/// ranked hot-segment table to stderr when the simulator drops. This is
/// the measurement rung for a future native-closure JIT: the table names
/// the segments worth compiling further.
#[derive(Debug, Default)]
struct SegmentProfile {
    counts: std::collections::HashMap<(u32, u32, u32), u64>,
}

/// Whether `PUMA_PROFILE=1` was set when first consulted (cached
/// process-wide; the simulator reads it once per construction).
fn segment_profiling() -> bool {
    static ENABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ENABLED.get_or_init(|| std::env::var_os("PUMA_PROFILE").is_some_and(|v| v == "1"))
}

impl Drop for NodeSim {
    fn drop(&mut self) {
        if let Some(profile) = &self.profile {
            if !profile.counts.is_empty() {
                for line in self.segment_profile_table() {
                    eprintln!("{line}");
                }
            }
        }
    }
}

impl NodeSim {
    /// Builds a simulator from a configuration and a compiled image.
    ///
    /// In [`SimMode::Functional`] the crossbars are programmed from the
    /// image's weight matrices using `noise` (use
    /// [`NoiseModel::noiseless`] for exact inference). In
    /// [`SimMode::Timing`] weights are not materialized.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid, the image fails
    /// validation, or the image does not fit the configuration.
    pub fn new(
        cfg: NodeConfig,
        image: &MachineImage,
        mode: SimMode,
        noise: &NoiseModel,
    ) -> Result<Self> {
        cfg.validate()?;
        image.validate()?;
        if image.tiles.len() > cfg.tiles_per_node {
            return Err(PumaError::ResourceExhausted {
                resource: "tiles".to_string(),
                requested: image.tiles.len(),
                available: cfg.tiles_per_node,
            });
        }
        let mut tiles = Vec::with_capacity(image.tiles.len());
        let mut reg_slots = 0usize;
        for tile_img in &image.tiles {
            if tile_img.cores.len() > cfg.tile.cores_per_tile {
                return Err(PumaError::ResourceExhausted {
                    resource: "cores per tile".to_string(),
                    requested: tile_img.cores.len(),
                    available: cfg.tile.cores_per_tile,
                });
            }
            let mut cores = Vec::with_capacity(tile_img.cores.len());
            for (ci, core_img) in tile_img.cores.iter().enumerate() {
                if core_img.mvmu_weights.len() > cfg.tile.core.mvmus_per_core {
                    return Err(PumaError::ResourceExhausted {
                        resource: "MVMUs per core".to_string(),
                        requested: core_img.mvmu_weights.len(),
                        available: cfg.tile.core.mvmus_per_core,
                    });
                }
                let mut mvmus = Vec::new();
                if mode == SimMode::Functional {
                    for w in &core_img.mvmu_weights {
                        match w {
                            Some(weights) => {
                                let mut unit = AnalogMvmu::new(cfg.tile.core.mvmu)?;
                                unit.program(weights, noise)?;
                                mvmus.push(Some(Arc::new(unit)));
                            }
                            None => mvmus.push(None),
                        }
                    }
                } else {
                    mvmus = vec![None; core_img.mvmu_weights.len()];
                }
                cores.push(CoreState {
                    pc: 0,
                    reg_slot: reg_slots as u32,
                    mvmus,
                    program: Arc::new(core_img.program.clone()),
                    halted: core_img.program.is_empty(),
                    rng: 0x1234_5678 ^ (ci as u32 + 1),
                });
                reg_slots += 1;
            }
            tiles.push(TileState {
                tile_halted: tile_img.program.is_empty(),
                tile_pc: 0,
                tile_program: Arc::new(tile_img.program.clone()),
                cores,
            });
        }
        let mut agent_offsets = Vec::with_capacity(tiles.len() + 1);
        let mut agents = 0usize;
        for tile in &tiles {
            agent_offsets.push(agents);
            agents += tile.cores.len() + 1;
        }
        agent_offsets.push(agents);
        let timing = TimingModel::new(cfg);
        let tile_count = tiles.len();
        let (senders_to, min_direct, min_indirect) = send_graph(&timing, &tiles, 0);
        Ok(NodeSim {
            fd_energy_aj: nj_to_aj(timing.fetch_decode_energy_nj()),
            senders_to,
            min_direct,
            min_indirect,
            mem: MemArena::new(tile_count, cfg.tile.shared_memory_words()),
            regs: RegArena::new(reg_slots, &cfg.tile.core),
            fifos: FifoArena::new(tile_count, cfg.tile.receive_fifos, cfg.tile.receive_fifo_depth),
            timing,
            cfg,
            mode,
            engine: SimEngine::default(),
            lanes: 1,
            live: 1,
            certificate: Arc::default(),
            tiles,
            lut: RomLut::new(),
            stats: RunStats::new(),
            agent_offsets,
            parked: (0..tile_count).map(|_| ParkedSet::default()).collect(),
            blocked_from: vec![u64::MAX; agents],
            instr_counts: [0; puma_isa::InstructionCategory::ALL.len()],
            io: Arc::new(IoIndex::new(image)),
            max_cycles: DEFAULT_MAX_CYCLES,
            seq: 0,
            changes: Vec::new(),
            wake_scratch: Vec::new(),
            queue: TileQueue::new(tile_count),
            last_time: 0,
            node_id: 0,
            cluster_nodes: 1,
            interconnect: InterconnectConfig::default(),
            outbox: Vec::new(),
            horizon: u64::MAX,
            stop: u64::MAX,
            compiled: Some(Arc::default()),
            snapshots: Vec::new(),
            residents: Vec::new(),
            run_base: 0,
            mvm_perturbation: Perturbation {
                ni: cfg.non_ideality,
                faults: cfg.faults,
                ..Perturbation::none()
            },
            mvm_input: vec![Fixed::ZERO; cfg.tile.core.mvmu.dim],
            vec_out: Vec::new(),
            dead_tile: Self::dead_tile_for(&cfg, 0),
            death_fired: false,
            floor: (u64::MAX, u64::MAX),
            sched: SchedStats::default(),
            profile: if segment_profiling() { Some(Box::default()) } else { None },
        })
    }

    /// The tile death the fault plan assigns to node `node_id`, if any.
    fn dead_tile_for(cfg: &NodeConfig, node_id: u16) -> Option<(u32, u64)> {
        cfg.faults.tile_death.filter(|d| d.node == node_id).map(|d| (d.tile, d.at_cycle))
    }

    /// A fresh replica of this simulator for a worker pool: every
    /// immutable artifact — programs, programmed crossbars, the compiled
    /// micro-op image, the resident registry — is `Arc`-shared with the
    /// original, and only the mutable state arenas are allocated anew.
    /// Equivalent to rebuilding from the machine image (the replica
    /// starts reset), minus the image decode and crossbar programming
    /// cost, and at a fraction of the per-replica memory footprint (see
    /// [`NodeSim::state_bytes`]). The replica has this simulator's lane
    /// count.
    pub fn fork_replica(&self) -> NodeSim {
        self.fork_with(self.lanes)
    }

    /// [`NodeSim::fork_replica`] with `lanes` data lanes, so one run
    /// serves `lanes` requests (module docs, "Lanes"). The extra lanes
    /// are allocated zeroed: a lane never written costs no resident
    /// memory.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::InvalidConfig`] for zero lanes, and for more
    /// than one lane unless the simulator is a standalone
    /// [`SimMode::Functional`] node whose image passes
    /// [`NodeSim::lane_certified`].
    pub fn fork_lanes(&self, lanes: usize) -> Result<NodeSim> {
        if lanes == 0
            || (lanes > 1
                && (self.mode != SimMode::Functional
                    || self.cluster_nodes != 1
                    || !self.lane_certified()))
        {
            return Err(PumaError::InvalidConfig {
                what: format!(
                    "{lanes} lanes need a standalone functional node with a lane-certified \
                     image"
                ),
            });
        }
        Ok(self.fork_with(lanes))
    }

    /// Whether every core program passes the lane certificate
    /// ([`crate::lanes::certified`]): no branch, index register or
    /// subsample stride can depend on lane data, so the lanes of a run
    /// always agree on control.
    pub fn lane_certified(&self) -> bool {
        *self.certificate.get_or_init(|| {
            self.tiles
                .iter()
                .flat_map(|t| &t.cores)
                .all(|c| crate::lanes::certified(&c.program, &self.cfg.tile.core))
        })
    }

    /// Data lanes allocated: the most requests one run can serve.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// [`NodeSim::reset`], then computes only the first `live` lanes until
    /// the next call, so a pass with fewer requests than lanes spends
    /// nothing on idle ones.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::InvalidConfig`] unless `1 ≤ live ≤`
    /// [`NodeSim::lanes`].
    pub fn reset_lanes(&mut self, live: usize) -> Result<()> {
        if live == 0 || live > self.lanes {
            return Err(PumaError::InvalidConfig {
                what: format!("{live} live lanes on a {}-lane simulator", self.lanes),
            });
        }
        self.reset();
        self.live = live;
        self.mem.set_lanes(live);
        self.regs.set_lanes(live);
        Ok(())
    }

    fn fork_with(&self, lanes: usize) -> NodeSim {
        let tiles: Vec<TileState> = self
            .tiles
            .iter()
            .map(|tile| TileState {
                cores: tile
                    .cores
                    .iter()
                    .enumerate()
                    .map(|(ci, c)| CoreState {
                        pc: 0,
                        reg_slot: c.reg_slot,
                        mvmus: c.mvmus.clone(),
                        program: Arc::clone(&c.program),
                        halted: c.program.is_empty(),
                        rng: 0x1234_5678 ^ (ci as u32 + 1),
                    })
                    .collect(),
                tile_pc: 0,
                tile_program: Arc::clone(&tile.tile_program),
                tile_halted: tile.tile_program.is_empty(),
            })
            .collect();
        let reg_slots = tiles.iter().map(|t| t.cores.len()).sum::<usize>();
        let tile_count = tiles.len();
        NodeSim {
            cfg: self.cfg,
            timing: self.timing.clone(),
            fd_energy_aj: self.fd_energy_aj,
            mode: self.mode,
            engine: self.engine,
            lanes,
            live: lanes,
            certificate: Arc::clone(&self.certificate),
            mem: MemArena::with_lanes(tile_count, self.cfg.tile.shared_memory_words(), lanes),
            regs: RegArena::with_lanes(reg_slots, &self.cfg.tile.core, lanes),
            fifos: FifoArena::new(
                tile_count,
                self.cfg.tile.receive_fifos,
                self.cfg.tile.receive_fifo_depth,
            ),
            tiles,
            lut: self.lut.clone(),
            stats: RunStats::new(),
            agent_offsets: self.agent_offsets.clone(),
            parked: (0..tile_count).map(|_| ParkedSet::default()).collect(),
            blocked_from: vec![u64::MAX; self.blocked_from.len()],
            instr_counts: [0; puma_isa::InstructionCategory::ALL.len()],
            io: Arc::clone(&self.io),
            max_cycles: self.max_cycles,
            seq: 0,
            changes: Vec::new(),
            wake_scratch: Vec::new(),
            queue: TileQueue::new(tile_count),
            senders_to: self.senders_to.clone(),
            min_direct: self.min_direct.clone(),
            min_indirect: self.min_indirect.clone(),
            last_time: 0,
            node_id: self.node_id,
            cluster_nodes: self.cluster_nodes,
            interconnect: self.interconnect,
            outbox: Vec::new(),
            horizon: u64::MAX,
            stop: u64::MAX,
            compiled: self.compiled.clone(),
            snapshots: Vec::new(),
            residents: self.residents.clone(),
            run_base: 0,
            mvm_perturbation: self.mvm_perturbation,
            mvm_input: vec![Fixed::ZERO; self.cfg.tile.core.mvmu.dim],
            vec_out: Vec::new(),
            dead_tile: self.dead_tile,
            death_fired: false,
            floor: (u64::MAX, u64::MAX),
            sched: SchedStats::default(),
            profile: if segment_profiling() { Some(Box::default()) } else { None },
        }
    }

    /// Approximate bytes of *per-replica mutable state*: the three state
    /// arenas (every data lane included) plus per-agent control state.
    /// Everything `Arc`-shared across replicas — programs, programmed
    /// crossbars, the compiled micro-op image — is excluded: this is the
    /// marginal footprint of one more worker in a serving pool.
    pub fn state_bytes(&self) -> usize {
        self.snapshots.iter().map(|s| s.mem.bytes()).sum::<usize>()
            + self.mem.state_bytes()
            + self.regs.state_bytes()
            + self.fifos.state_bytes()
            + self.tiles.len() * std::mem::size_of::<TileState>()
            + self
                .tiles
                .iter()
                .map(|t| t.cores.len() * std::mem::size_of::<CoreState>())
                .sum::<usize>()
    }

    /// Scheduler-queue pops (tile entries) since the last
    /// [`NodeSim::reset`]. Queue entries are the scheduler overhead the
    /// compiled engine exists to avoid; benchmarks report this per
    /// executed instruction.
    pub fn queue_events(&self) -> u64 {
        self.sched.tile_entries
    }

    /// Every scheduler counter since the last [`NodeSim::reset`].
    pub fn sched_stats(&self) -> SchedStats {
        self.sched
    }

    /// Turns on per-segment execution counting for this instance even
    /// when `PUMA_PROFILE=1` was not set at construction (tests and
    /// benchmarks opt in programmatically).
    pub fn enable_segment_profiling(&mut self) {
        if self.profile.is_none() {
            self.profile = Some(Box::default());
        }
    }

    /// Raw per-segment execution counts keyed by
    /// `(tile, core, segment start pc)` — `core == u32::MAX` is the
    /// tile control unit — sorted executions-descending with ties
    /// broken by segment identity for determinism. Empty when
    /// profiling is off or the compiled engine has not run.
    pub fn segment_profile(&self) -> Vec<((u32, u32, u32), u64)> {
        let mut rows: Vec<_> = self
            .profile
            .as_deref()
            .map(|p| p.counts.iter().map(|(&k, &v)| (k, v)).collect())
            .unwrap_or_default();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows
    }

    /// Ranked hot-segment table: one header plus one line per compiled
    /// segment. Feeds the native-closure JIT decision — the top rows
    /// are the segments worth specializing first.
    pub fn segment_profile_table(&self) -> Vec<String> {
        let rows = self.segment_profile();
        let mut out = Vec::with_capacity(rows.len() + 1);
        out.push(format!(
            "PUMA_PROFILE hot segments (node {}, {} distinct):",
            self.node_id,
            rows.len()
        ));
        for ((tile, core, pc), execs) in rows {
            let agent = if core == u32::MAX {
                format!("tile{tile}/ctl")
            } else {
                format!("tile{tile}/core{core}")
            };
            out.push(format!("  {execs:>12}  {agent:<16} seg@pc {pc}"));
        }
        out
    }

    /// The bound configuration.
    pub fn config(&self) -> &NodeConfig {
        &self.cfg
    }

    /// Statistics of the last [`NodeSim::run`].
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Overrides the runaway-simulation safety cap.
    pub fn set_max_cycles(&mut self, max_cycles: u64) {
        self.max_cycles = max_cycles;
    }

    /// Selects the execution engine (default [`SimEngine::Compiled`]).
    pub fn set_engine(&mut self, engine: SimEngine) {
        self.engine = engine;
    }

    /// The active execution engine.
    pub fn engine(&self) -> SimEngine {
        self.engine
    }

    /// Writes a named input vector into tile shared memory (host injection
    /// over the off-chip link; charged to the off-chip energy budget).
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] if the name is unbound or the
    /// length mismatches the binding.
    pub fn write_input(&mut self, name: &str, values: &[f32]) -> Result<()> {
        let fixed: Vec<Fixed> = values.iter().copied().map(Fixed::from_f32).collect();
        self.write_input_fixed(name, &fixed)
    }

    /// Fixed-point variant of [`NodeSim::write_input`]. Every lane gets
    /// the same values.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] if the name is unbound or the
    /// length mismatches the binding.
    pub fn write_input_fixed(&mut self, name: &str, values: &[Fixed]) -> Result<()> {
        self.poke_input(name, values.len(), Lanes::one(values))
    }

    /// Writes one request's values per live lane into a named input:
    /// lane `l` gets `lanes[l]` (see [`NodeSim::reset_lanes`]). Charged
    /// as one host write, like [`NodeSim::write_input`]: the
    /// lanes share one simulated machine.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] if the name is unbound, a length
    /// mismatches the binding, or the values are not one per live lane.
    pub fn write_input_lanes(&mut self, name: &str, lanes: &[&[f32]]) -> Result<()> {
        if lanes.len() != self.live {
            return Err(PumaError::Execution {
                what: format!("{} input lanes for {} live lanes", lanes.len(), self.live),
            });
        }
        let width = lanes[0].len();
        if let Some(bad) = lanes.iter().find(|l| l.len() != width) {
            return Err(PumaError::ShapeMismatch { expected: width, actual: bad.len() });
        }
        let fixed: Vec<Fixed> =
            lanes.iter().flat_map(|l| l.iter().copied().map(Fixed::from_f32)).collect();
        self.poke_input(name, width, Lanes::packed(&fixed, width, lanes.len()))
    }

    /// The shared body of the input writers: checks the binding, pokes
    /// `values` (`width` words per lane) and charges one off-chip write.
    fn poke_input(&mut self, name: &str, width: usize, values: Lanes<'_>) -> Result<()> {
        let binding = self
            .io
            .input(name)
            .ok_or_else(|| PumaError::Execution { what: format!("no input named {name:?}") })?;
        if width != binding.width {
            return Err(PumaError::ShapeMismatch { expected: binding.width, actual: width });
        }
        if binding.tile.index() >= self.tiles.len() {
            return Err(PumaError::Execution {
                what: format!("input {name:?} bound to missing tile"),
            });
        }
        self.mem.poke(binding.tile.index(), binding.addr, values, binding.count)?;
        let bytes = (width * 2) as u64;
        self.stats.energy.add(
            EnergyComponent::OffChip,
            self.timing.offchip_energy_nj(bytes),
            self.timing.offchip_cycles(bytes),
        );
        Ok(())
    }

    /// Reads a named output vector after a run.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] if the name is unbound.
    pub fn read_output(&self, name: &str) -> Result<Vec<f32>> {
        Ok(self.read_output_fixed(name)?.into_iter().map(Fixed::to_f32).collect())
    }

    /// Fixed-point variant of [`NodeSim::read_output`].
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] if the name is unbound.
    pub fn read_output_fixed(&self, name: &str) -> Result<Vec<Fixed>> {
        Ok(self.output_words(0, name)?.to_vec())
    }

    /// [`NodeSim::read_output`] of one lane.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] if the name is unbound or the
    /// lane is not live.
    pub fn read_output_lane(&self, name: &str, lane: usize) -> Result<Vec<f32>> {
        if lane >= self.live {
            return Err(PumaError::Execution {
                what: format!("lane {lane} of {} live lanes", self.live),
            });
        }
        Ok(self.output_words(lane, name)?.iter().map(|v| v.to_f32()).collect())
    }

    fn output_words(&self, lane: usize, name: &str) -> Result<&[Fixed]> {
        let binding = self
            .io
            .output(name)
            .ok_or_else(|| PumaError::Execution { what: format!("no output named {name:?}") })?;
        if binding.tile.index() >= self.tiles.len() {
            return Err(PumaError::Execution {
                what: format!("output {name:?} bound to missing tile"),
            });
        }
        self.mem.peek(lane, binding.tile.index(), binding.addr, binding.width)
    }

    /// Input binding names.
    pub fn input_names(&self) -> Vec<&str> {
        self.io.inputs.iter().map(|b| b.name.as_str()).collect()
    }

    /// Output binding names.
    pub fn output_names(&self) -> Vec<&str> {
        self.io.outputs.iter().map(|b| b.name.as_str()).collect()
    }

    /// Whether an input binding is named `name` (an O(1) index probe).
    pub fn has_input(&self, name: &str) -> bool {
        self.io.input(name).is_some()
    }

    /// Whether an output binding is named `name` (an O(1) index probe).
    pub fn has_output(&self, name: &str) -> bool {
        self.io.output(name).is_some()
    }

    /// Resets program counters, memory attributes, FIFOs, and statistics so
    /// the image can run again (crossbar weights are preserved — they are
    /// written once at configuration time, §3.2.5).
    pub fn reset(&mut self) {
        self.changes.clear();
        self.queue.clear();
        self.outbox.clear();
        self.last_time = 0;
        self.run_base = 0;
        self.horizon = u64::MAX;
        self.stop = u64::MAX;
        self.sched = SchedStats::default();
        self.death_fired = false;
        let mem = &mut self.mem;
        let fifos = &mut self.fifos;
        let regs = &mut self.regs;
        for (t, tile) in self.tiles.iter_mut().enumerate() {
            // In-place watermark clears: a reused simulator (BatchRunner
            // pool, per-request pipeline segments) must not re-allocate —
            // or even re-touch — every tile's memory per request.
            mem.reset_tile(t);
            fifos.reset_tile(t);
            tile.tile_pc = 0;
            tile.tile_halted = tile.tile_program.is_empty();
            for (ci, core) in tile.cores.iter_mut().enumerate() {
                core.pc = 0;
                core.halted = core.program.is_empty();
                regs.reset_slot(core.reg_slot as usize);
                // Reseed exactly as at construction, so a reused simulator
                // (BatchRunner pool, TimingSession replay) gives every run
                // the same `rand` stream as a fresh one.
                core.rng = 0x1234_5678 ^ (ci as u32 + 1);
            }
        }
        self.stats = RunStats::new();
        self.blocked_from.fill(u64::MAX);
        for parked in &mut self.parked {
            parked.clear();
        }
        self.instr_counts = [0; puma_isa::InstructionCategory::ALL.len()];
        self.seq = 0;
    }

    /// Saves the attribute buffers and the statistics under `key`, so
    /// later runs can start from here with [`NodeSim::restore_snapshot`]
    /// instead of repeating the writes. Take it right after
    /// [`NodeSim::reset_lanes`] (or on a fresh simulator) and the writes
    /// every run starts with — a model's constants — written alike to
    /// every lane: lane 0 is what is saved. A snapshot under the same key
    /// is replaced.
    pub fn save_snapshot(&mut self, key: &str) {
        let snapshot =
            Snapshot { key: key.to_string(), mem: self.mem.save(), stats: self.stats.clone() };
        match self.snapshots.iter_mut().find(|s| s.key == key) {
            Some(old) => *old = snapshot,
            None => self.snapshots.push(snapshot),
        }
    }

    /// On a simulator just reset with [`NodeSim::reset`] or
    /// [`NodeSim::reset_lanes`]: restores the snapshot saved under `key`
    /// into every live lane, with its statistics (the off-chip energy its
    /// writes charged), so the run's [`RunStats`] equal those of
    /// repeating the writes. Only the dirty word ranges are copied.
    /// Returns `false`, changing nothing, when no snapshot is saved under
    /// `key`.
    pub fn restore_snapshot(&mut self, key: &str) -> bool {
        let Some(snapshot) = self.snapshots.iter().find(|s| s.key == key) else {
            return false;
        };
        self.mem.restore(&snapshot.mem);
        self.stats = snapshot.stats.clone();
        true
    }

    /// The slot of an agent in the per-agent arrays (per tile: cores in
    /// index order, then the tile control unit).
    fn agent_slot(&self, agent: AgentId) -> usize {
        let t = agent.tile as usize;
        if agent.is_tile_ctl() {
            self.agent_offsets[t + 1] - 1
        } else {
            self.agent_offsets[t] + agent.core as usize
        }
    }

    /// Adds energy (rounded to whole attojoules) and busy cycles to the
    /// run's accumulator.
    #[inline]
    fn charge(&mut self, component: EnergyComponent, nj: f64, cycles: u64) {
        self.stats.energy.add(component, nj, cycles);
    }

    /// Folds the compiled engine's instruction counts into `stats`. Each
    /// counted instruction pays one fetch/decode, charged here in one
    /// product. Every other charge goes straight into `stats.energy`:
    /// energy is exact integer attojoules, so the totals are identical
    /// across engines and thread counts, whatever order the agents ran in.
    pub(crate) fn finalize_stats(&mut self) {
        let counts = std::mem::take(&mut self.instr_counts);
        let executed: u64 = counts.iter().sum();
        let fd_aj = u128::from(self.fd_energy_aj) * u128::from(executed);
        self.stats.energy.add_aj(EnergyComponent::FetchDecode.index(), fd_aj, executed);
        for (i, &n) in counts.iter().enumerate() {
            if n > 0 {
                let category = puma_isa::InstructionCategory::ALL[i];
                *self.stats.dynamic_instructions.entry(category).or_insert(0) += n;
            }
        }
    }

    /// Runs the machine to completion.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Deadlock`] if every live agent is blocked,
    /// [`PumaError::Execution`] for faults (bad register/memory accesses,
    /// exceeding the cycle cap), or any underlying component error.
    pub fn run(&mut self) -> Result<&RunStats> {
        let outcome = self.run_loop();
        self.finalize_stats();
        outcome?;
        Ok(&self.stats)
    }

    fn run_loop(&mut self) -> Result<()> {
        self.prime()?;
        self.run_primed()
    }

    /// Runs one resident model to completion, leaving every other
    /// tenant's tiles untouched: only the resident's agents are primed,
    /// so the run's [`RunStats`] are exactly that model's — same
    /// outputs, cycles, energy, and instruction counts as the model
    /// would produce alone (disjoint tile ranges never interact; see
    /// the multi-resident isolation suite).
    ///
    /// # Errors
    ///
    /// Like [`NodeSim::run`], plus [`PumaError::InvalidConfig`] for an unknown
    /// resident name.
    pub fn run_resident(&mut self, name: &str) -> Result<&RunStats> {
        let outcome = self.prime_resident(name).and_then(|()| self.run_primed());
        self.finalize_stats();
        outcome?;
        Ok(&self.stats)
    }

    /// The post-prime body of [`NodeSim::run`]: step to quiescence,
    /// diagnose deadlock, seal the cycle count.
    fn run_primed(&mut self) -> Result<()> {
        while self.step_one()? {}
        let blocked = self.blocked_summary();
        if !blocked.is_empty() {
            let what = format!("{} agents blocked: {}", blocked.len(), blocked.join(", "));
            let (deaths, cycle) =
                ([(self.node_id.into(), self.fired_tile_death())], self.last_time);
            return Err(stall_verdict(deaths, what, |what| PumaError::Deadlock { cycle, what }));
        }
        self.seal_cycles();
        Ok(())
    }

    /// The injected tile death, if it has already suppressed work this
    /// run: `(tile, at_cycle)`, for the stall diagnosis.
    pub(crate) fn fired_tile_death(&self) -> Option<(u32, u64)> {
        self.dead_tile.filter(|_| self.death_fired)
    }

    /// True when the injected tile death covers `tile` and has occurred
    /// at or before `now`. Checked at instruction-start and
    /// packet-delivery timestamps, which are engine-invariant.
    #[inline]
    fn tile_dead(&self, tile: u32, now: u64) -> bool {
        matches!(self.dead_tile, Some((dead, at)) if dead == tile && now >= at)
    }

    /// Seeds the event queue with every live agent at cycle 0, discarding
    /// any leftover state from an aborted previous run. Part of the
    /// stepping API: `prime` + a [`NodeSim::step_one`] loop is exactly
    /// what [`NodeSim::run`] does internally, but lets an external
    /// scheduler (e.g. [`crate::ClusterSim`]) interleave this node's
    /// events with other nodes'.
    pub fn prime(&mut self) -> Result<()> {
        self.prime_at(0)
    }

    /// [`NodeSim::prime`] with agents seeded at global cycle `at` — the
    /// entry point for time-sliced execution, where one machine serves a
    /// sequence of requests on a monotonically advancing global clock
    /// (see [`NodeSim::begin_segment`]).
    ///
    /// # Errors
    ///
    /// Fails if `at` already exceeds the cycle cap.
    pub fn prime_at(&mut self, at: u64) -> Result<()> {
        self.prime_tiles(at, 0..self.tiles.len())
    }

    /// [`NodeSim::prime`] restricted to one resident model's tile range:
    /// only the resident's agents are seeded, so the subsequent stepping
    /// run executes that model alone on the shared fabric (see
    /// [`NodeSim::run_resident`]).
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::InvalidConfig`] for an unknown resident name.
    pub fn prime_resident(&mut self, name: &str) -> Result<()> {
        let resident = self.resident(name)?;
        let range = resident.base..resident.base + resident.tiles;
        self.prime_tiles(0, range)
    }

    /// Clears all schedule state without seeding any agent — a cluster
    /// scheduler parks non-owning nodes this way during a scoped
    /// [`ClusterSim::run_resident`](crate::ClusterSim::run_resident).
    pub(crate) fn prime_idle(&mut self) {
        self.prime_tiles(0, 0..0).expect("priming zero agents cannot fail");
    }

    /// The shared body of [`NodeSim::prime_at`]/[`NodeSim::prime_resident`]:
    /// clears every queue/scheduler leftover, then seeds the live agents
    /// of `tiles` at global cycle `at`.
    fn prime_tiles(&mut self, at: u64, tiles: std::ops::Range<usize>) -> Result<()> {
        // The queue may hold leftovers from an aborted run.
        self.queue.clear();
        self.outbox.clear();
        self.last_time = at;
        self.run_base = at;
        for t in tiles {
            for c in 0..self.tiles[t].cores.len() {
                if !self.tiles[t].cores[c].halted {
                    let agent = AgentId { tile: t as u32, core: c as u32 };
                    self.push_agent_event(agent, at)?;
                }
            }
            if !self.tiles[t].tile_halted {
                let agent = AgentId { tile: t as u32, core: TILE_CTL };
                self.push_agent_event(agent, at)?;
            }
        }
        Ok(())
    }

    /// Begins a fresh *execution segment* at global cycle `at`: resets
    /// machine state and statistics exactly like [`NodeSim::reset`]
    /// (crossbar weights persist) but keeps the clock monotonic, priming
    /// every agent at `at` instead of 0. This is what makes request
    /// executions resumable *and* time-sliced: a pipeline scheduler can
    /// retire one request's segment on this node, read its outputs, and
    /// immediately begin the next request's segment at the current global
    /// time while other nodes are still mid-request.
    ///
    /// # Errors
    ///
    /// Fails if `at` already exceeds the cycle cap.
    pub fn begin_segment(&mut self, at: u64) -> Result<()> {
        self.reset();
        self.prime_at(at)
    }

    /// Finalizes and takes the statistics accumulated since the last
    /// [`NodeSim::begin_segment`]/[`NodeSim::reset`], leaving zeroed
    /// accumulators behind. `cycles` is left 0 — a segment's latency is
    /// the scheduler's business (`finish − start`), not the node's.
    pub fn take_segment_stats(&mut self) -> RunStats {
        self.finalize_stats();
        std::mem::take(&mut self.stats)
    }

    /// Timestamp of the next queued event, if any. `None` means the node
    /// is quiescent: halted, blocked, or awaiting external packets.
    pub fn next_event_time(&self) -> Option<u64> {
        self.queue.min_time()
    }

    /// Files an event into its tile's ready list: the single enqueue path
    /// for agents, wakes, and deliveries.
    fn enqueue(&mut self, time: u64, priority: u64, kind: EventKind) {
        self.seq += 1;
        debug_assert!(self.seq < 1 << PRIO_SHIFT, "event sequence exceeds the packed tie-break");
        self.queue.push(Event { time, prio_seq: (priority << PRIO_SHIFT) | self.seq, kind });
    }

    /// Enters the tile with the earliest queued event: the reference
    /// engine runs that one event, the compiled engine runs the tile's
    /// events back to back while its cross-tile horizon clears (module
    /// docs, the scheduler). Returns `Ok(false)` when nothing is queued
    /// (the node is quiescent: halted, blocked, or awaiting inter-node
    /// packets).
    ///
    /// # Errors
    ///
    /// Propagates execution faults and the cycle cap.
    pub fn step_one(&mut self) -> Result<bool> {
        let Some(tile) = self.queue.pop_tile() else {
            return Ok(false);
        };
        self.sched.tile_entries += 1;
        let result = match self.engine {
            SimEngine::Reference => self.dispatch(tile, None),
            SimEngine::Compiled => self.run_tile(tile),
        };
        self.queue.requeue(tile);
        result.map(|()| true)
    }

    /// The compiled engine's tile entry: the first event is the global
    /// minimum and runs unconditionally; each later one runs only if the
    /// tile's cross-tile horizon clears at its time.
    fn run_tile(&mut self, tile: u32) -> Result<()> {
        // Borrow the image for the entry without touching its reference
        // count, which every fork of this simulator shares: take it out
        // of `self` and put it back on every exit.
        let cell = self.compiled.take().expect("the compiled image cell is always present");
        let image = cell.get_or_init(|| {
            CompiledImage::build(
                &self.cfg,
                &self.timing,
                self.mode,
                self.tiles.iter().map(|tile| {
                    (
                        tile.cores.iter().map(|c| &*c.program).collect::<Vec<_>>(),
                        &*tile.tile_program,
                    )
                }),
            )
        });
        let mut result = self.dispatch(tile, Some(image));
        while result.is_ok() {
            match self.queue.peek(tile) {
                Some(next) if self.tile_clear(tile, next.time) => {
                    result = self.dispatch(tile, Some(image));
                }
                _ => break,
            }
        }
        self.compiled = Some(cell);
        result
    }

    /// Runs the taken tile's next event: a delivery, or an agent — one
    /// instruction without an image (the reference engine), its
    /// straight-line run with one.
    fn dispatch(&mut self, tile: u32, image: Option<&CompiledImage>) -> Result<()> {
        let event = self.queue.pop(tile).expect("a queued tile has an event");
        let now = event.time;
        self.last_time = self.last_time.max(now);
        if now > self.max_cycles {
            return Err(self.cycle_cap_error());
        }
        match event.kind {
            EventKind::Deliver(d) => {
                let DeliverEvent { tile, fifo, packet, .. } = *d;
                if self.tile_dead(tile, now) {
                    // Deliveries addressed to a dead tile are dropped on
                    // the floor: its receive buffers are powered off.
                    // Senders blocked on the lost acknowledgement park
                    // forever and surface as a FaultedTile diagnosis.
                    self.death_fired = true;
                    return Ok(());
                }
                // An out-of-range fifo faults here — at delivery time —
                // with the canonical message, exactly as the old push
                // into the ring would have.
                self.fifos.pending_push(tile as usize, fifo, packet)?;
                self.drain_fifo(tile, fifo, now)?;
            }
            EventKind::AgentReady(agent) if self.tile_dead(agent.tile, now) => {
                // Instruction dispatches on a dead tile are suppressed:
                // the agent halts where it stood. Every engine applies
                // this check at instruction-start timestamps (here for
                // the reference engine; at the compiled loop top
                // otherwise), so death is engine-invariant.
                self.set_halted(agent);
                self.death_fired = true;
                self.stats.dead_tile_halts += 1;
            }
            EventKind::AgentReady(agent) => {
                self.sched.dispatches += 1;
                match image {
                    Some(image) => self.run_compiled(image, agent, now)?,
                    None => match self.step_agent(agent, now)? {
                        Step::Advance { next_pc, latency } => {
                            self.set_pc(agent, next_pc);
                            self.push_agent_event(agent, now + latency)?;
                        }
                        Step::Blocked(cond) => self.park(agent, now, cond),
                        Step::Halted => self.set_halted(agent),
                    },
                }
            }
        }
        Ok(())
    }

    /// Human-readable descriptions of every blocked agent, each naming
    /// the tile, the agent, and the exact state transition it is parked
    /// on (a FIFO awaiting a packet, or a shared-memory word awaiting
    /// production/consumption) — so a serving timeout or cluster deadlock
    /// report pinpoints the stalled synchronization, not just the agent.
    /// Empty when the node finished cleanly.
    pub fn blocked_summary(&self) -> Vec<String> {
        self.tiles
            .iter()
            .enumerate()
            .flat_map(|(t, _)| {
                // Report in agent order (cores ascending, control unit
                // last), not park order: the engines re-park retried
                // agents under different wake policies, and deadlock
                // reports must be engine-invariant. The ParkedSet itself
                // stays in park order — that is the wake contract.
                let mut entries: Vec<_> = self.parked[t].iter().collect();
                entries.sort_by_key(|(a, _, _)| a.core);
                entries
                    .into_iter()
                    .map(|&(a, _, cond)| {
                        let since = self.blocked_from[self.agent_slot(a)];
                        let agent = if a.is_tile_ctl() {
                            format!("tile{t}/ctl")
                        } else {
                            format!("tile{t}/core{}", a.core)
                        };
                        let model = self.resident_tag(t);
                        format!(
                            "{agent}{model} waiting on {} (since cycle {since})",
                            cond.describe()
                        )
                    })
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// Registers the resident models of this node's fabric image.
    /// Reports ([`NodeSim::blocked_summary`], execution faults) name the
    /// owning tenant alongside the tile from here on, and
    /// [`NodeSim::run_resident`] can scope runs to one tenant. Survives
    /// [`NodeSim::reset`].
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::InvalidConfig`] if a resident's range exceeds the
    /// fabric, ranges overlap, or names repeat.
    pub fn set_residents(&mut self, mut residents: Vec<ResidentModel>) -> Result<()> {
        residents.sort_by(|a, b| (a.base, &a.name).cmp(&(b.base, &b.name)));
        for (i, r) in residents.iter().enumerate() {
            if r.base + r.tiles > self.tiles.len() {
                return Err(PumaError::InvalidConfig {
                    what: format!(
                        "resident '{}' (tiles {}..{}) exceeds the fabric's {} tiles",
                        r.name,
                        r.base,
                        r.base + r.tiles,
                        self.tiles.len()
                    ),
                });
            }
            if let Some(prev) = i.checked_sub(1).map(|p| &residents[p]) {
                if prev.base + prev.tiles > r.base {
                    return Err(PumaError::InvalidConfig {
                        what: format!("resident '{}' overlaps resident '{}'", prev.name, r.name),
                    });
                }
            }
            if residents[..i].iter().any(|p| p.name == r.name) {
                return Err(PumaError::InvalidConfig {
                    what: format!("duplicate resident name '{}'", r.name),
                });
            }
        }
        self.residents = residents;
        Ok(())
    }

    /// The resident-model registry (sorted by base tile; empty for
    /// single-tenant machines).
    pub fn residents(&self) -> &[ResidentModel] {
        &self.residents
    }

    /// The resident owning `tile`, if any.
    pub fn resident_of(&self, tile: usize) -> Option<&ResidentModel> {
        self.residents.iter().find(|r| r.owns(tile))
    }

    /// Looks up a resident by name.
    fn resident(&self, name: &str) -> Result<ResidentModel> {
        self.residents.iter().find(|r| r.name == name).cloned().ok_or_else(|| {
            PumaError::InvalidConfig { what: format!("no resident model named '{name}'") }
        })
    }

    /// Non-ideality site key base for the MVMUs of `(tile, core)`: a
    /// dense physical index, taken relative to the owning resident's base
    /// tile (absolute when no resident owns the tile). Resident-relative
    /// keying makes a model's noise realization invariant under
    /// relocation and co-tenancy — a tenant drifts identically in a
    /// shared fabric and solo.
    fn mvm_site_base(&self, tile: usize, core: usize) -> u64 {
        let base = self.resident_of(tile).map_or(0, |r| r.base);
        (((tile - base) * self.cfg.tile.cores_per_tile + core) * self.cfg.tile.core.mvmus_per_core)
            as u64
    }

    /// ` (model {name})` when a resident owns `tile`, else empty — the
    /// attribution suffix of fault and blocked reports (single-tenant
    /// messages are unchanged).
    fn resident_tag(&self, tile: usize) -> String {
        match self.resident_of(tile) {
            Some(r) => format!(" (model {})", r.name),
            None => String::new(),
        }
    }

    /// Number of agents currently parked on a synchronization condition
    /// (the allocation-free counterpart of [`NodeSim::blocked_summary`]
    /// for schedulers that poll quiescence per event).
    pub fn blocked_count(&self) -> usize {
        self.parked.iter().map(ParkedSet::len).sum()
    }

    /// Records the last observed timestamp as the run's cycle count.
    pub fn seal_cycles(&mut self) {
        self.stats.cycles = self.last_time;
    }

    /// Joins this simulator to a cluster: its node id, the cluster size
    /// (inter-node send targets are validated against it), and the
    /// chip-to-chip link model.
    pub(crate) fn join_cluster(
        &mut self,
        node_id: u16,
        cluster_nodes: u16,
        interconnect: InterconnectConfig,
    ) {
        self.node_id = node_id;
        self.cluster_nodes = cluster_nodes.max(1);
        self.interconnect = interconnect;
        // The fault plan addresses a tile death to one node of the
        // cluster; re-resolve it now that this node knows its id.
        self.dead_tile = Self::dead_tile_for(&self.cfg, node_id);
        // Which of the image's sends are local NoC traffic depends on
        // the node id; refresh the static send graph.
        let (senders_to, min_direct, min_indirect) = send_graph(&self.timing, &self.tiles, node_id);
        self.senders_to = senders_to;
        self.min_direct = min_direct;
        self.min_indirect = min_indirect;
    }

    /// Sets the external horizon (see the `horizon` field).
    pub fn set_external_horizon(&mut self, horizon: u64) {
        self.horizon = horizon;
    }

    /// Latest event/instruction timestamp observed this run.
    pub fn last_time(&self) -> u64 {
        self.last_time
    }

    /// Drains the inter-node packets produced since the last call.
    pub fn take_outbox(&mut self) -> Vec<OutboundPacket> {
        std::mem::take(&mut self.outbox)
    }

    /// Injects a packet from another node into this node's receive path at
    /// global cycle `time` (it lands in the tile's FIFO like a NoC packet).
    /// `origin` orders it among packets landing in the same tile in the
    /// same cycle.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] for a nonexistent destination tile.
    pub fn deliver_external(
        &mut self,
        tile: u16,
        fifo: u8,
        packet: Packet,
        time: u64,
        origin: PacketOrigin,
    ) -> Result<()> {
        if tile as usize >= self.tiles.len() {
            return Err(PumaError::Execution {
                what: format!(
                    "inter-node packet addressed to nonexistent tile {tile} of node {}",
                    self.node_id
                ),
            });
        }
        self.enqueue(
            time,
            PRIO_DELIVER,
            EventKind::Deliver(Box::new(DeliverEvent { tile: tile as u32, fifo, packet, origin })),
        );
        Ok(())
    }

    /// The current program counter of one agent.
    fn agent_pc(&self, agent: AgentId) -> u32 {
        let tile = &self.tiles[agent.tile as usize];
        if agent.is_tile_ctl() {
            tile.tile_pc
        } else {
            tile.cores[agent.core as usize].pc
        }
    }

    /// Charges one precomputed [`OpCost`]: component energy (if any) and
    /// the dynamic instruction count, whose fetch/decode energy
    /// [`NodeSim::finalize_stats`] charges — the compiled engine's
    /// counterpart of `execute_instr`'s charge + accounting sequence,
    /// adding the same integers.
    #[inline]
    fn charge_cost(&mut self, cost: &OpCost) {
        if cost.comp != NO_CHARGE {
            let cycles = u64::from(cost.latency);
            self.stats.energy.add_aj(cost.comp as usize, cost.aj.into(), cycles);
        }
        self.instr_counts[cost.cat as usize] += 1;
    }

    /// Executes a whole straight-line run of one agent's pre-decoded
    /// micro-ops, accumulating time locally. Each synchronization
    /// instruction (attribute-buffer load/store, FIFO send/receive) waits
    /// for its turn (`NodeSim::take_turn`): it must observe tile state at
    /// its own timestamp, after every earlier event has run, so those
    /// events run first, in place — or, when that is not possible yet,
    /// the instruction is deferred into the tile's list under its own
    /// key. Core-local instructions touch no state another
    /// agent can observe, so executing them back-to-back is
    /// indistinguishable from the reference per-instruction loop — minus
    /// its queue traffic. Per-op timing/energy come from precomputed
    /// [`OpCost`]s, and maximal pure-charge runs are accounted as whole
    /// segments under the segment-boundary invariant (module docs).
    fn run_compiled(&mut self, image: &CompiledImage, agent: AgentId, now: u64) -> Result<()> {
        let prog = image.program(
            agent.tile as usize,
            if agent.is_tile_ctl() { None } else { Some(agent.core as usize) },
        );
        let tile = agent.tile;
        let priority = agent_priority(tile, agent.core);
        let slot = self.agent_slot(agent);
        // The register-file arena slot; `usize::MAX` for the tile
        // control unit, whose compiled stream can never contain a
        // register micro-op (send/receive/jump/halt only).
        let reg_slot = if agent.is_tile_ctl() { usize::MAX } else { slot - tile as usize };
        debug_assert!(
            agent.is_tile_ctl()
                || reg_slot
                    == self.tiles[tile as usize].cores[agent.core as usize].reg_slot as usize
        );
        let mut t = now;
        let mut first = true;
        let limit = self.max_cycles.min(self.stop);
        loop {
            // The other engines' per-instruction cap check (module docs,
            // rule 2); past the stop, the run resumes later as an event.
            if t > limit {
                if t > self.max_cycles {
                    return Err(self.cycle_cap_error());
                }
                self.enqueue(t, priority, EventKind::AgentReady(agent));
                return Ok(());
            }
            if self.tile_dead(tile, t) {
                // Same dead-tile halt as the reference engine, at the same
                // instruction-start timestamp, which the reference engine
                // observes as the suppressed dispatch's event time.
                self.last_time = self.last_time.max(t);
                self.set_halted(agent);
                self.death_fired = true;
                self.stats.dead_tile_halts += 1;
                return Ok(());
            }
            let pc = self.agent_pc(agent);
            let Some(op) = prog.ops.get(pc as usize) else {
                // The interpreter's fetch produces the canonical
                // past-end fault (micro-ops cover the whole program).
                self.fetch(agent)?;
                unreachable!("compiled micro-ops cover every valid pc");
            };
            match *op {
                MicroOp::Charge { seg_end, seg_check } => {
                    // Bulk-charge the whole pure-charge suffix when every
                    // op in it starts at or under the cap; otherwise take
                    // one op per loop iteration so the cap check above
                    // faults at the exact instruction the per-op engines
                    // would (boundary rule 2).
                    let start = pc as usize;
                    // Last-op start time of the bulk run; it must clear
                    // both the cycle cap and any injected tile death, or
                    // the per-op fallback re-checks each at the loop top.
                    let horizon = t.saturating_add(u64::from(seg_check));
                    let end = if horizon <= limit
                        && !matches!(self.dead_tile, Some((dead, at)) if dead == tile && horizon >= at)
                    {
                        seg_end as usize
                    } else {
                        start + 1
                    };
                    if let Some(profile) = self.profile.as_deref_mut() {
                        *profile.counts.entry((tile, agent.core, pc)).or_insert(0) += 1;
                    }
                    let mut last_start = t;
                    let mut mvmu_acts = 0u64;
                    let acc = &mut self.stats.energy;
                    for cost in &prog.costs[start..end] {
                        acc.add_aj(cost.comp as usize, cost.aj.into(), u64::from(cost.latency));
                        self.instr_counts[cost.cat as usize] += 1;
                        mvmu_acts += u64::from(cost.mvmu);
                        last_start = t;
                        t += u64::from(cost.latency);
                    }
                    self.stats.mvmu_activations += mvmu_acts;
                    self.last_time = self.last_time.max(last_start);
                    self.set_pc(agent, end as u32);
                }
                MicroOp::Set { dest, imm } => {
                    self.last_time = self.last_time.max(t);
                    self.regs
                        .write_all(reg_slot, dest, Fixed::from_bits(imm))
                        .expect("bounds proven at compile time");
                    let cost = prog.costs[pc as usize];
                    self.charge_cost(&cost);
                    t += u64::from(cost.latency);
                    self.set_pc(agent, pc + 1);
                }
                MicroOp::AluInt { op, dest, src1, src2 } => {
                    self.last_time = self.last_time.max(t);
                    alu_int(&mut self.regs, reg_slot, op, dest, src1, src2)
                        .expect("bounds proven at compile time");
                    let cost = prog.costs[pc as usize];
                    self.charge_cost(&cost);
                    t += u64::from(cost.latency);
                    self.set_pc(agent, pc + 1);
                }
                MicroOp::Branch { cond, src1, src2, target } => {
                    self.last_time = self.last_time.max(t);
                    let a = self
                        .regs
                        .read_uniform(reg_slot, src1)
                        .expect("bounds proven at compile time")
                        .to_bits();
                    let b = self
                        .regs
                        .read_uniform(reg_slot, src2)
                        .expect("bounds proven at compile time")
                        .to_bits();
                    let next = if cond.eval(a, b) { target } else { pc + 1 };
                    let cost = prog.costs[pc as usize];
                    self.charge_cost(&cost);
                    t += u64::from(cost.latency);
                    self.set_pc(agent, next);
                }
                MicroOp::Jump { target } => {
                    self.last_time = self.last_time.max(t);
                    let cost = prog.costs[pc as usize];
                    self.charge_cost(&cost);
                    t += u64::from(cost.latency);
                    self.set_pc(agent, target);
                }
                MicroOp::Halt => {
                    self.last_time = self.last_time.max(t);
                    // Halt counts as an executed instruction and pays
                    // fetch/decode, exactly as `execute_instr` accounts
                    // a `Step::Halted` outcome.
                    let cost = prog.costs[pc as usize];
                    self.charge_cost(&cost);
                    self.set_halted(agent);
                    return Ok(());
                }
                op => {
                    let may_block = !matches!(op, MicroOp::Interp { may_block: false, .. });
                    if !first && may_block && !self.take_turn(image, tile, (t, priority))? {
                        // A synchronization point whose tile could still
                        // change before it: defer it into the tile's list.
                        self.sched.deferrals += 1;
                        self.enqueue(t, priority, EventKind::AgentReady(agent));
                        return Ok(());
                    }
                    self.last_time = self.last_time.max(t);
                    match self.step_sync(op, &prog.costs[pc as usize], agent, pc, t)? {
                        Step::Advance { next_pc, latency } => {
                            self.set_pc(agent, next_pc);
                            t += latency;
                        }
                        Step::Blocked(cond) => {
                            self.park(agent, t, cond);
                            return Ok(());
                        }
                        Step::Halted => {
                            self.set_halted(agent);
                            return Ok(());
                        }
                    }
                }
            }
            first = false;
        }
    }

    /// Runs one micro-op that may touch its tile's shared state at `t`: a
    /// typed `Load`/`Store`/`Send`/`Recv` through its transition helper
    /// with the precomputed `cost`, or an interpreter fallback (including
    /// a `Send` leaving this node, whose link cost the build does not
    /// know). A typed op then does `execute_instr`'s post-step
    /// bookkeeping, in its order, whether it blocked or completed.
    fn step_sync(
        &mut self,
        op: MicroOp,
        cost: &OpCost,
        agent: AgentId,
        pc: u32,
        t: u64,
    ) -> Result<Step> {
        let charge = Charge { cycles: u64::from(cost.latency), aj: cost.aj };
        let blocked = match op {
            MicroOp::Load { dest, addr, width } => {
                let a = self.effective_addr(agent, addr)?;
                self.load_words(agent, a, dest, width, charge)?
            }
            MicroOp::Store { src, addr, count, width } => {
                let a = self.effective_addr(agent, addr)?;
                self.store_words(agent, a, src, count, width, charge)?
            }
            MicroOp::Send { base, transit, fifo, target, node, width } if node == self.node_id => {
                let to = Route { node, tile: target, fifo, transit: u64::from(transit) };
                self.send_words(agent, base, width, to, charge, t)?
            }
            MicroOp::Send { base, fifo, target, node, width, .. } => {
                let addr = MemAddr::absolute(base);
                let instr = Instruction::Send { addr, fifo, target, node, width };
                return self.execute_instr(agent, instr, pc, t);
            }
            MicroOp::Recv { base, fifo, count, width } => {
                self.receive_packet(agent, base, fifo, count, width, charge, t)?
            }
            MicroOp::Interp { instr, .. } => return self.execute_instr(agent, instr, pc, t),
            _ => unreachable!("run_compiled executes core-local micro-ops itself"),
        };
        self.apply_wakes(agent.tile as usize, t);
        if blocked.is_none() {
            let slot = self.agent_slot(agent);
            self.blocked_from[slot] = u64::MAX;
            self.instr_counts[cost.cat as usize] += 1;
        }
        Ok(sync_step(blocked, pc, charge))
    }

    /// Schedules an agent wake-up, clamping the event time against the
    /// cycle cap: a single instruction whose latency lands past the cap
    /// fails deterministically at schedule time instead of sailing past it.
    fn push_agent_event(&mut self, agent: AgentId, time: u64) -> Result<()> {
        if time > self.max_cycles {
            return Err(self.cycle_cap_error());
        }
        self.enqueue(time, agent_priority(agent.tile, agent.core), EventKind::AgentReady(agent));
        Ok(())
    }

    fn cycle_cap_error(&self) -> PumaError {
        PumaError::Execution {
            what: format!("exceeded cycle cap {} (runaway program?)", self.max_cycles),
        }
    }

    /// Brings an agent of the taken tile `tile` up to a synchronization
    /// instruction with reference key `key = (time, scheduled priority)`:
    /// runs, in place, every event of the tile that sorts before it, and
    /// returns whether the instruction may now run. `false` — an agent
    /// suspended further out must go first, or the cross-tile horizon
    /// does not clear — means it must be deferred into the tile's list.
    ///
    /// While the events run, the agent waits suspended in its own frame
    /// (it holds no list entry), so `floor` carries its key down: nested
    /// agents may run synchronization instructions only below it. Agent
    /// priorities are unique and above the delivery and wake classes, so
    /// the class alone decides a same-cycle tie with a queued event.
    fn take_turn(&mut self, image: &CompiledImage, tile: u32, key: (u64, u64)) -> Result<bool> {
        if key > self.floor || !self.tile_clear(tile, key.0) {
            return Ok(false);
        }
        // Clear at `key.0` means clear at every earlier time, until an
        // event pushed into another tile moves the horizon (`epoch`);
        // clearing only ever narrows while a tile runs.
        let cleared = self.queue.epoch();
        while let Some(next) = self.queue.peek(tile) {
            let time = next.time;
            if (time, next.prio_seq >> PRIO_SHIFT) > key {
                break;
            }
            if self.queue.epoch() != cleared && !self.tile_clear(tile, time) {
                return Ok(false);
            }
            let outer = std::mem::replace(&mut self.floor, key);
            let result = self.dispatch(tile, Some(image));
            self.floor = outer;
            result?;
        }
        Ok(self.queue.epoch() == cleared || self.tile_clear(tile, key.0))
    }

    /// True if nothing queued on another tile, or still to arrive from
    /// another node, can change tile `tile`'s state at or before `t`:
    /// the cross-tile horizon of the module docs — the external horizon,
    /// the direct senders' slack, and the multi-hop floor over the
    /// globally earliest event.
    fn tile_clear(&self, tile: u32, t: u64) -> bool {
        if t >= self.horizon {
            return false;
        }
        // The earliest event of every tile but the taken one.
        let Some(m) = self.queue.min_time() else {
            return true;
        };
        // Fast path: if even the cheapest static send beyond the globally
        // earliest event cannot land by `t`, neither the per-sender scan
        // nor the multi-hop floor can veto (`m_U ≥ m` for every sender).
        let to = tile as usize;
        if m.saturating_add(self.min_direct[to].min(self.min_indirect[to])) > t {
            return true;
        }
        // Direct senders: a queued event on static predecessor `U` can
        // deliver into this tile no earlier than `m_U + D`.
        for &(u, d) in &self.senders_to[to] {
            if self.queue.next_time(u).saturating_add(d) <= t {
                return false;
            }
        }
        // Multi-hop paths: at least two static sends beyond the globally
        // earliest queued event.
        m.saturating_add(self.min_indirect[to]) > t
    }

    /// Moves as many pending packets as fit into the receive FIFO, in
    /// arrival order (per-channel ordering under backpressure).
    fn drain_fifo(&mut self, tile: u32, fifo: u8, now: u64) -> Result<()> {
        // The arena moves packets from the per-channel pending queue
        // into the ring without cloning payloads. One `FifoPush` change
        // per drain suffices: `take_matching` removes every waiter on
        // the fifo in one pass regardless of how many packets landed.
        if self.fifos.deliver_pending(tile as usize, fifo) > 0 {
            self.changes.push(TileChange::FifoPush(fifo));
        }
        self.apply_wakes(tile as usize, now);
        Ok(())
    }

    /// Applies the transitions recorded by the current instruction or
    /// delivery: the reference engine retries every parked agent on any
    /// change (seed behaviour); the compiled engine wakes only agents
    /// whose wait condition matches one of the transitions — a keyed
    /// [`ParkedSet`] lookup, not a scan.
    ///
    /// **Wake order is FIFO park order in both engines**: agents woken by
    /// one transition re-enter the queue oldest-parked-first, and all
    /// wake events share one priority class ([`PRIO_WAKE`]) so their
    /// same-cycle retries pop in exactly that order. An agent whose retry
    /// fails re-parks at the back. This is the fairness contract the
    /// attribute-buffer protocol tests pin.
    #[inline]
    fn apply_wakes(&mut self, tile: usize, now: u64) {
        if self.changes.is_empty() {
            return;
        }
        if self.parked[tile].is_empty() {
            // Nobody to wake on this tile.
            self.changes.clear();
            return;
        }
        self.wake(tile, now);
    }

    /// [`NodeSim::apply_wakes`] with parked agents to consider.
    fn wake(&mut self, tile: usize, now: u64) {
        let mut woken = std::mem::take(&mut self.wake_scratch);
        woken.clear();
        match self.engine {
            SimEngine::Reference => {
                self.changes.clear();
                self.parked[tile].drain_all(&mut woken);
            }
            SimEngine::Compiled => {
                self.parked[tile].take_matching(&self.changes, &mut woken);
                self.changes.clear();
            }
        }
        for (agent, since) in woken.drain(..) {
            self.stats.blocked_cycles += now.saturating_sub(since);
            self.enqueue(now, PRIO_WAKE, EventKind::AgentReady(agent));
        }
        self.wake_scratch = woken;
    }

    /// Parks a blocked agent on its tile (see `blocked_from`).
    fn park(&mut self, agent: AgentId, now: u64, cond: WaitCond) {
        self.sched.parks += 1;
        let slot = self.agent_slot(agent);
        self.blocked_from[slot] = self.blocked_from[slot].min(now);
        self.parked[agent.tile as usize].park(agent, now, cond);
    }

    fn set_pc(&mut self, agent: AgentId, pc: u32) {
        let tile = &mut self.tiles[agent.tile as usize];
        if agent.is_tile_ctl() {
            tile.tile_pc = pc;
        } else {
            tile.cores[agent.core as usize].pc = pc;
        }
    }

    fn set_halted(&mut self, agent: AgentId) {
        let tile = &mut self.tiles[agent.tile as usize];
        if agent.is_tile_ctl() {
            tile.tile_halted = true;
        } else {
            tile.cores[agent.core as usize].halted = true;
        }
    }

    /// Names the faulting agent and its current program counter —
    /// `node0/tile3/core1 pc 17`, plus ` (model {name})` when a
    /// resident owns the tile — so an execution fault out of a
    /// many-node, many-tenant run pinpoints the exact agent,
    /// instruction, and owning model, the way
    /// [`NodeSim::blocked_summary`] names exact waits.
    fn fault_agent(&self, agent: AgentId) -> String {
        let pc = self.agent_pc(agent);
        let model = self.resident_tag(agent.tile as usize);
        if agent.is_tile_ctl() {
            format!("node{}/tile{}/ctl pc {pc}{model}", self.node_id, agent.tile)
        } else {
            format!("node{}/tile{}/core{} pc {pc}{model}", self.node_id, agent.tile, agent.core)
        }
    }

    fn fetch(&self, agent: AgentId) -> Result<(Instruction, u32)> {
        let tile = &self.tiles[agent.tile as usize];
        let (program, pc) = if agent.is_tile_ctl() {
            (&tile.tile_program, tile.tile_pc)
        } else {
            let core = &tile.cores[agent.core as usize];
            (&core.program, core.pc)
        };
        let instr =
            program.instructions.get(pc as usize).copied().ok_or_else(|| PumaError::Execution {
                what: format!("{}: past end of program", self.fault_agent(agent)),
            })?;
        Ok((instr, pc))
    }

    /// Resolves a memory operand to an absolute word address.
    ///
    /// Indexed addressing treats the index register's **raw bits as an
    /// unsigned element offset** (`0..=32767`), not as a Q4.12 value: a
    /// register set to integer 1 addresses the next word, not word 4096.
    /// A negative index and a base+offset sum overflowing 32 bits are
    /// execution faults (see [`puma_isa::MemAddr`] for the contract).
    fn effective_addr(&self, agent: AgentId, addr: MemAddr) -> Result<u32> {
        let offset = match addr.index {
            None => 0,
            Some(reg) => {
                if agent.is_tile_ctl() {
                    return Err(PumaError::Execution {
                        what: format!(
                            "{}: tile control unit has no registers for indexed addressing",
                            self.fault_agent(agent)
                        ),
                    });
                }
                let core = &self.tiles[agent.tile as usize].cores[agent.core as usize];
                let bits = self.regs.read_uniform(core.reg_slot as usize, reg)?.to_bits();
                if bits < 0 {
                    return Err(PumaError::Execution {
                        what: format!(
                            "{}: negative index {bits} in {addr} (index registers hold \
                             raw-bit integer word offsets; see puma-isa MemAddr)",
                            self.fault_agent(agent)
                        ),
                    });
                }
                bits as u32
            }
        };
        addr.base.checked_add(offset).ok_or_else(|| PumaError::Execution {
            what: format!(
                "{}: indexed address {addr} + offset {offset} overflows the address space",
                self.fault_agent(agent)
            ),
        })
    }

    /// The charge of a `load` or `store` of `width` words.
    fn shared_memory_charge(&self, width: u16) -> Charge {
        let w = width as usize;
        let nj = self.timing.shared_memory_energy_nj(w);
        Charge { cycles: self.timing.shared_memory_cycles(w), aj: nj_to_aj(nj) }
    }

    /// Adds a completed instruction's charge to the run's accumulator.
    #[inline]
    fn charge_aj(&mut self, component: EnergyComponent, charge: Charge) {
        self.stats.energy.add_aj(component.index(), charge.aj.into(), charge.cycles);
    }

    /// The register-file slot of a core agent.
    fn reg_slot(&self, agent: AgentId) -> usize {
        self.tiles[agent.tile as usize].cores[agent.core as usize].reg_slot as usize
    }

    // The attribute-buffer and FIFO transitions of the four synchronizing
    // instructions (Fig. 6), one helper each, run by both engines once the
    // address is resolved and the charge known. Each returns the condition
    // the instruction blocked on, having changed nothing, or `None` once
    // it completed: the words are consumed or written, the transition is
    // recorded for `apply_wakes`, and the charge is paid.

    /// A core's `load` of `width` words at `a` into `dest`: consume-read
    /// them (into the registers in functional mode).
    fn load_words(
        &mut self,
        agent: AgentId,
        a: u32,
        dest: RegRef,
        width: u16,
        charge: Charge,
    ) -> Result<Option<WaitCond>> {
        let t = agent.tile as usize;
        let w = width as usize;
        if self.mode == SimMode::Functional {
            let slot = self.reg_slot(agent);
            let values = match self.mem.try_read(t, a, w)? {
                MemOutcome::Blocked(b) => return Ok(Some(WaitCond::for_mem_block(b))),
                MemOutcome::Done(v) => v,
            };
            self.regs.write_vec(slot, dest, values)?;
        } else if let MemOutcome::Blocked(b) = self.mem.try_consume(t, a, w)? {
            return Ok(Some(WaitCond::for_mem_block(b)));
        }
        self.changes.push(TileChange::InvalidRange { start: a, len: w as u32 });
        self.charge_aj(EnergyComponent::SharedMemory, charge);
        self.stats.shared_memory_words += w as u64;
        Ok(None)
    }

    /// A core's `store` of `width` words from `src` at `a`, each valid for
    /// `count` consumers (zeros in timing mode).
    fn store_words(
        &mut self,
        agent: AgentId,
        a: u32,
        src: RegRef,
        count: u16,
        width: u16,
        charge: Charge,
    ) -> Result<Option<WaitCond>> {
        let t = agent.tile as usize;
        let w = width as usize;
        let written = if self.mode == SimMode::Functional {
            let values = self.regs.read_vec(self.reg_slot(agent), src, w)?;
            self.mem.try_write(t, a, values, count)?
        } else {
            self.mem.try_write_zeros(t, a, w, count)?
        };
        if let MemOutcome::Blocked(b) = written {
            return Ok(Some(WaitCond::for_mem_block(b)));
        }
        self.changes.push(TileChange::ValidRange { start: a, len: w as u32 });
        self.charge_aj(EnergyComponent::SharedMemory, charge);
        self.stats.shared_memory_words += w as u64;
        Ok(None)
    }

    /// A control unit's `send` of `width` words at `a` along `to`: consume
    /// the words, then queue the packet's delivery (a node-local send) or
    /// post it to the outbox after the link's fault draws (any other).
    fn send_words(
        &mut self,
        agent: AgentId,
        a: u32,
        width: u16,
        to: Route,
        charge: Charge,
        now: u64,
    ) -> Result<Option<WaitCond>> {
        let t = agent.tile as usize;
        let w = width as usize;
        // Timing mode consumes the attributes without materializing the
        // payload (it is never inspected; receives write probe zeros at
        // their own width).
        let words = if self.mode == SimMode::Functional {
            match self.mem.try_read(t, a, w)? {
                MemOutcome::Blocked(b) => return Ok(Some(WaitCond::for_mem_block(b))),
                // One payload carries every lane, lane after lane.
                MemOutcome::Done(lanes) => lanes.iter().flatten().copied().collect(),
            }
        } else {
            match self.mem.try_consume(t, a, w)? {
                MemOutcome::Blocked(b) => return Ok(Some(WaitCond::for_mem_block(b))),
                MemOutcome::Done(()) => Vec::new(),
            }
        };
        self.changes.push(TileChange::InvalidRange { start: a, len: w as u32 });
        let origin = PacketOrigin { sent_at: now, node: self.node_id, tile: agent.tile, copy: 0 };
        let mut arrive_at = now + to.transit;
        if to.node == self.node_id {
            self.charge_aj(EnergyComponent::Network, charge);
            self.stats.network_words += w as u64;
            if arrive_at > self.max_cycles {
                return Err(self.cycle_cap_error());
            }
            let (tile, fifo) = (u32::from(to.tile), to.fifo);
            let packet = Packet { words };
            let deliver = DeliverEvent { tile, fifo, packet, origin };
            self.enqueue(arrive_at, PRIO_DELIVER, EventKind::Deliver(Box::new(deliver)));
            return Ok(None);
        }
        // Inter-node: the co-simulation core picks the packet up from the
        // outbox and delivers it after the full transfer time.
        self.charge_aj(EnergyComponent::Interconnect, charge);
        self.stats.internode_words += w as u64;
        let faults = self.cfg.faults;
        let mut duplicate = false;
        if faults.has_packet_faults() {
            // One counter-mode decision per fault kind, keyed by the
            // packet's engine-invariant identity (endpoints, fifo, send
            // timestamp, payload hash), so faulty runs replay bit-exactly
            // across engines and worker counts.
            let payload = words.iter().fold(0u64, |h, w| mix64(h ^ u64::from(w.to_bits() as u16)));
            let mut key = [
                u64::from(self.node_id),
                u64::from(to.node),
                u64::from(to.tile),
                u64::from(to.fifo),
                now,
                payload,
                0,
            ];
            let mut draw = |tag: u64| {
                key[6] = tag;
                unit_from(keyed_hash(faults.seed, &key))
            };
            if faults.packet_loss_rate > 0.0 && draw(TAG_PKT_DROP) < faults.packet_loss_rate {
                // The link swallowed the packet: the sender still pays
                // serialization, the receiver never sees it.
                self.stats.packets_dropped += 1;
                return Ok(None);
            }
            if faults.packet_duplicate_rate > 0.0
                && draw(TAG_PKT_DUP) < faults.packet_duplicate_rate
            {
                self.stats.packets_duplicated += 1;
                duplicate = true;
            }
            if faults.packet_delay_rate > 0.0 && draw(TAG_PKT_DELAY) < faults.packet_delay_rate {
                self.stats.packets_delayed += 1;
                arrive_at = arrive_at.saturating_add(faults.packet_delay_cycles);
            }
        }
        if arrive_at > self.max_cycles {
            return Err(self.cycle_cap_error());
        }
        let (node, tile, fifo) = (to.node, to.tile, to.fifo);
        if duplicate {
            let packet = Packet { words: words.clone() };
            let origin = PacketOrigin { copy: 1, ..origin };
            self.outbox.push(OutboundPacket { node, tile, fifo, packet, arrive_at, origin });
        }
        let packet = Packet { words };
        self.outbox.push(OutboundPacket { node, tile, fifo, packet, arrive_at, origin });
        Ok(None)
    }

    /// A control unit's `receive` of `width` words from FIFO `fifo` into
    /// `a`, each valid for `count` consumers: pop the packet once the FIFO
    /// has one and every destination word is free, then admit the next
    /// backpressured packet.
    #[allow(clippy::too_many_arguments)] // the instruction's operands, address and charge
    fn receive_packet(
        &mut self,
        agent: AgentId,
        a: u32,
        fifo: u8,
        count: u16,
        width: u16,
        charge: Charge,
        now: u64,
    ) -> Result<Option<WaitCond>> {
        let t = agent.tile as usize;
        let w = width as usize;
        // Check availability without consuming, so a blocked write does
        // not lose the packet.
        let front_len = match self.fifos.front(t, fifo)? {
            None => return Ok(Some(WaitCond::FifoPacket(fifo))),
            Some(p) => p.words.len() / self.live,
        };
        // A width mismatch means two senders sharing a virtualized FIFO
        // interleaved (§4.2: the compiler reuses FIFO ids across program
        // phases). The synchronization protocol is payload-agnostic — the
        // receive writes its own width at its own address — so timing
        // simulation proceeds; the functional simulator rejects it because
        // data would be misrouted.
        if front_len != w && self.mode == SimMode::Functional {
            return Err(PumaError::Execution {
                what: format!(
                    "receive width {width} mismatches packet of {front_len} words \
                     (virtualized-FIFO aliasing; see compiler docs)"
                ),
            });
        }
        // Probe destination writability (dry-run: any valid word blocks
        // the write on that word).
        if let Some(bad) = self.mem.first_valid(t, a, w)? {
            return Ok(Some(WaitCond::MemInvalid(bad)));
        }
        let packet = self.fifos.pop(t, fifo)?.expect("front checked above");
        let written = if self.mode == SimMode::Functional {
            let lanes = Lanes::packed(&packet.words, w, self.live);
            self.mem.try_write(t, a, lanes, count)?
        } else {
            self.mem.try_write_zeros(t, a, w, count)?
        };
        if let MemOutcome::Blocked(_) = written {
            unreachable!("writability probed above");
        }
        self.changes.push(TileChange::ValidRange { start: a, len: w as u32 });
        self.charge_aj(EnergyComponent::SharedMemory, charge);
        // A FIFO slot freed up: admit the next backpressured packet
        // (drain_fifo also applies the wake-ups recorded above).
        self.drain_fifo(agent.tile, fifo, now)?;
        Ok(None)
    }

    fn step_agent(&mut self, agent: AgentId, now: u64) -> Result<Step> {
        let (instr, pc) = self.fetch(agent)?;
        self.execute_instr(agent, instr, pc, now)
    }

    /// Executes one already-fetched instruction, charging fetch/decode
    /// energy and waking blocked peers if the instruction consumed or
    /// produced shared state.
    fn execute_instr(
        &mut self,
        agent: AgentId,
        instr: Instruction,
        pc: u32,
        now: u64,
    ) -> Result<Step> {
        let outcome = if agent.is_tile_ctl() {
            self.step_tile_ctl(agent, instr, now)?
        } else {
            self.step_core(agent, instr, pc, now)?
        };
        // A successful consume/produce on this tile's memory or FIFOs may
        // unblock peers waiting on the attribute buffer; the executed
        // instruction recorded any such transition in `self.changes`
        // (non-blocking instructions record nothing, so this is a cheap
        // emptiness check for them).
        self.apply_wakes(agent.tile as usize, now);
        if matches!(outcome, Step::Advance { .. } | Step::Halted) {
            let slot = self.agent_slot(agent);
            self.blocked_from[slot] = u64::MAX;
            match self.engine {
                // Seed-faithful accounting: the reference engine updates
                // the dynamic-instruction BTreeMap and re-evaluates the
                // fetch/decode power model per executed instruction, as
                // the original event loop did — benchmarking against it
                // therefore measures the real distance from the seed
                // implementation. Results are identical either way: the
                // counts are integers, and the recomputed energy rounds to
                // the hoisted attojoule constant `finalize_stats` charges
                // per counted instruction.
                SimEngine::Reference => {
                    self.stats.count_instruction(instr.category());
                    let fd = self.timing.fetch_decode_energy_nj();
                    self.charge(EnergyComponent::FetchDecode, fd, 1);
                }
                SimEngine::Compiled => self.instr_counts[instr.category().index()] += 1,
            }
        }
        Ok(outcome)
    }

    /// Executes a tile-control instruction (send/receive/control flow).
    fn step_tile_ctl(&mut self, agent: AgentId, instr: Instruction, now: u64) -> Result<Step> {
        let t = agent.tile as usize;
        let pc = self.tiles[t].tile_pc;
        match instr {
            Instruction::Send { addr, fifo, target, node, width } => {
                if node >= self.cluster_nodes {
                    return Err(PumaError::Execution {
                        what: format!(
                            "send to nonexistent node {node} (cluster has {} nodes)",
                            self.cluster_nodes
                        ),
                    });
                }
                let local = node == self.node_id;
                if local && target as usize >= self.tiles.len() {
                    return Err(PumaError::Execution {
                        what: format!("send to nonexistent tile {target}"),
                    });
                }
                let a = self.effective_addr(agent, addr)?;
                let w = width as usize;
                // A node-local packet crosses the NoC; any other crosses the
                // chip-to-chip interconnect, occupying the control unit for
                // the link serialization time.
                let (charge, transit) = if local {
                    let nj = self.timing.send_energy_nj(w, t, target as usize);
                    let cycles = self.timing.receive_cycles(w);
                    (
                        Charge { cycles, aj: nj_to_aj(nj) },
                        self.timing.send_cycles(w, t, target as usize),
                    )
                } else {
                    let nj = self.interconnect.energy_nj(w);
                    let cycles = self.interconnect.occupancy_cycles(w);
                    (Charge { cycles, aj: nj_to_aj(nj) }, self.interconnect.transfer_cycles(w))
                };
                let to = Route { node, tile: target, fifo, transit };
                let blocked = self.send_words(agent, a, width, to, charge, now)?;
                Ok(sync_step(blocked, pc, charge))
            }
            Instruction::Receive { addr, fifo, count, width } => {
                let a = self.effective_addr(agent, addr)?;
                let w = width as usize;
                let nj = self.timing.shared_memory_energy_nj(w);
                let charge = Charge { cycles: self.timing.receive_cycles(w), aj: nj_to_aj(nj) };
                let blocked = self.receive_packet(agent, a, fifo, count, width, charge, now)?;
                Ok(sync_step(blocked, pc, charge))
            }
            Instruction::Jump { pc: target } => Ok(Step::Advance { next_pc: target, latency: 1 }),
            Instruction::Halt => Ok(Step::Halted),
            other => Err(PumaError::Execution {
                what: format!("instruction not valid on tile control unit: {other:?}"),
            }),
        }
    }

    /// Executes one core instruction. `now` is the instruction's
    /// simulated timestamp — identical on both engines (the reference
    /// engine re-queues at `now + latency`; the compiled engine
    /// advances a local clock by the same per-instruction
    /// latencies) — consumed only by the non-ideality path as the MVM
    /// time index.
    fn step_core(&mut self, agent: AgentId, instr: Instruction, pc: u32, now: u64) -> Result<Step> {
        let t = agent.tile as usize;
        let c = agent.core as usize;
        let slot = self.tiles[t].cores[c].reg_slot as usize;
        let functional = self.mode == SimMode::Functional;
        match instr {
            Instruction::Mvm { mask, filter, stride } => {
                let dim = self.cfg.tile.core.mvmu.dim;
                let n_mvmus = self.tiles[t].cores[c].mvmus.len();
                for unit in mask.iter() {
                    if unit >= n_mvmus.max(self.cfg.tile.core.mvmus_per_core) {
                        return Err(PumaError::Execution {
                            what: format!("MVM mask activates missing MVMU {unit}"),
                        });
                    }
                }
                if functional {
                    // Perturbation keys: the site is resident-relative (a
                    // model sees the same noise realization wherever its
                    // tiles land — relocation and co-tenancy purity), the
                    // time index run-relative (segments and batched
                    // requests replay identically).
                    let mut p = self.mvm_perturbation;
                    let site_base = if p.is_empty() {
                        0
                    } else {
                        p.time_index = now - self.run_base;
                        self.mvm_site_base(t, c)
                    };
                    for unit in mask.iter() {
                        let Some(Some(mvmu)) = self.tiles[t].cores[c].mvmus.get(unit) else {
                            return Err(PumaError::Execution {
                                what: format!("MVM on unprogrammed MVMU {unit}"),
                            });
                        };
                        let base = unit * dim;
                        p.site = site_base + unit as u64;
                        // Lanes loop inside the unit loop, so lanes after
                        // the first find the unit's weights in cache.
                        for lane in 0..self.live {
                            shuffle_into(
                                &self.regs.xbar_in(lane, slot)[base..base + dim],
                                filter,
                                stride,
                                &mut self.mvm_input,
                            );
                            mvmu.mvm_into(
                                &self.mvm_input,
                                &p,
                                &mut self.regs.xbar_out_mut(lane, slot)[base..base + dim],
                            )?;
                        }
                    }
                    let n = mask.count() as u64;
                    if !p.ni.is_ideal() || self.cfg.tile.core.mvmu.adc_bits_override.is_some() {
                        self.stats.degraded_mvm_activations += n;
                    }
                    if p.faults.has_cell_faults() {
                        self.stats.faulted_mvm_activations += n;
                    }
                }
                let latency = self.timing.mvm_latency();
                let energy = self.timing.mvm_energy_nj() * mask.count() as f64;
                self.charge(EnergyComponent::Mvmu, energy, latency);
                self.stats.mvmu_activations += mask.count() as u64;
                Ok(Step::Advance { next_pc: pc + 1, latency })
            }
            Instruction::Alu { op, dest, src1, src2, width } => {
                let w = width as usize;
                if functional {
                    self.exec_vector_op(t, c, slot, op, dest, src1, src2, w)?;
                }
                let (latency, energy, component) = if op.is_transcendental() {
                    (
                        self.timing.transcendental_cycles(w),
                        self.timing.transcendental_energy_nj(w),
                        EnergyComponent::RegisterFile,
                    )
                } else {
                    (self.timing.vfu_cycles(w), self.timing.vfu_energy_nj(w), EnergyComponent::Vfu)
                };
                self.charge(component, energy, latency);
                Ok(Step::Advance { next_pc: pc + 1, latency })
            }
            Instruction::AluImm { op, dest, src1, imm, width } => {
                let w = width as usize;
                if functional {
                    let lanes = self.regs.read_vec(slot, src1, w)?;
                    let out = &mut self.vec_out;
                    out.clear();
                    for x in lanes.iter() {
                        // One loop per op, so each compiles to straight-line SIMD.
                        match op {
                            AluImmOp::Add => out.extend(x.iter().map(|&v| v + imm)),
                            AluImmOp::Sub => out.extend(x.iter().map(|&v| v - imm)),
                            AluImmOp::Mul => out.extend(x.iter().map(|&v| v * imm)),
                            AluImmOp::Div => out.extend(x.iter().map(|&v| v / imm)),
                        }
                    }
                    self.regs.write_vec(slot, dest, Lanes::packed(&self.vec_out, w, self.live))?;
                }
                let latency = self.timing.vfu_cycles(w);
                self.charge(EnergyComponent::Vfu, self.timing.vfu_energy_nj(w), latency);
                Ok(Step::Advance { next_pc: pc + 1, latency })
            }
            Instruction::AluInt { op, dest, src1, src2 } => {
                alu_int(&mut self.regs, slot, op, dest, src1, src2)?;
                let latency = self.timing.sfu_cycles();
                self.charge(EnergyComponent::Sfu, self.timing.sfu_energy_nj(), latency);
                Ok(Step::Advance { next_pc: pc + 1, latency })
            }
            Instruction::Set { dest, imm } => {
                self.regs.write_all(slot, dest, Fixed::from_bits(imm))?;
                let latency = self.timing.sfu_cycles();
                self.charge(EnergyComponent::Sfu, self.timing.sfu_energy_nj(), latency);
                Ok(Step::Advance { next_pc: pc + 1, latency })
            }
            Instruction::Copy { dest, src, width } => {
                let w = width as usize;
                if functional {
                    self.vec_out.clear();
                    self.vec_out.extend(self.regs.read_vec(slot, src, w)?.iter().flatten());
                    self.regs.write_vec(slot, dest, Lanes::packed(&self.vec_out, w, self.live))?;
                }
                let latency = self.timing.copy_cycles(w);
                self.charge(EnergyComponent::RegisterFile, self.timing.copy_energy_nj(w), latency);
                Ok(Step::Advance { next_pc: pc + 1, latency })
            }
            Instruction::Load { dest, addr, width } => {
                let a = self.effective_addr(agent, addr)?;
                let charge = self.shared_memory_charge(width);
                let blocked = self.load_words(agent, a, dest, width, charge)?;
                Ok(sync_step(blocked, pc, charge))
            }
            Instruction::Store { addr, src, count, width } => {
                let a = self.effective_addr(agent, addr)?;
                let charge = self.shared_memory_charge(width);
                let blocked = self.store_words(agent, a, src, count, width, charge)?;
                Ok(sync_step(blocked, pc, charge))
            }
            Instruction::Jump { pc: target } => Ok(Step::Advance { next_pc: target, latency: 1 }),
            Instruction::Branch { cond, src1, src2, pc: target } => {
                let a = self.regs.read_uniform(slot, src1)?.to_bits();
                let b = self.regs.read_uniform(slot, src2)?.to_bits();
                let next = if cond.eval(a, b) { target } else { pc + 1 };
                let latency = self.timing.sfu_cycles();
                self.charge(EnergyComponent::Sfu, self.timing.sfu_energy_nj(), latency);
                Ok(Step::Advance { next_pc: next, latency })
            }
            Instruction::Halt => Ok(Step::Halted),
            Instruction::Send { .. } | Instruction::Receive { .. } => Err(PumaError::Execution {
                what: "send/receive execute on the tile control unit, not cores".to_string(),
            }),
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the ALU instruction's operand list
    fn exec_vector_op(
        &mut self,
        t: usize,
        c: usize,
        slot: usize,
        op: AluOp,
        dest: RegRef,
        src1: RegRef,
        src2: RegRef,
        w: usize,
    ) -> Result<()> {
        let a = self.regs.read_vec(slot, src1, w)?;
        let out = &mut self.vec_out;
        out.clear();
        match op {
            AluOp::Not => out.extend(a.iter().flatten().map(|v| Fixed::from_bits(!v.to_bits()))),
            AluOp::Relu => out.extend(a.iter().flatten().map(|v| v.relu())),
            AluOp::Sigmoid | AluOp::Tanh | AluOp::Log | AluOp::Exp => {
                out.extend(a.iter().flatten().map(|&v| self.lut.eval(op, v)))
            }
            AluOp::Rand => {
                // One draw per word, written to every lane: each lane sees
                // the stream a solo run (reseeded at reset) would.
                let core = &mut self.tiles[t].cores[c];
                out.extend((0..w).map(|_| {
                    // xorshift32 per core, deterministic.
                    let mut x = core.rng;
                    x ^= x << 13;
                    x ^= x >> 17;
                    x ^= x << 5;
                    core.rng = x;
                    Fixed::from_bits((x & 0xFFF) as i16)
                }));
                return self.regs.write_vec(slot, dest, Lanes::one(&self.vec_out));
            }
            AluOp::Subsample => {
                let k = self.regs.read_uniform(slot, src2)?.to_bits().max(1) as usize;
                let src = self.regs.read_vec(slot, src1, w * k)?;
                for lane in src.iter() {
                    out.extend(lane.iter().step_by(k).copied().take(w));
                }
            }
            AluOp::Shl | AluOp::Shr => {
                for (lane, x) in a.iter().enumerate() {
                    let k = (self.regs.read(lane, slot, src2)?.to_bits().max(0) as u32).min(15);
                    out.extend(x.iter().map(|v| {
                        Fixed::from_bits(if op == AluOp::Shl {
                            // Saturating arithmetic left shift: like the
                            // rest of the datapath, overflow clamps at the
                            // Q4.12 range instead of silently flipping sign.
                            puma_core::fixed::clamp_i32((v.to_bits() as i32) << k)
                        } else {
                            v.to_bits() >> k
                        })
                    }));
                }
            }
            _ => {
                let b = self.regs.read_vec(slot, src2, w)?;
                for (x, y) in a.iter().zip(b.iter()) {
                    out.extend(x.iter().zip(y).map(|(&x, &y)| match op {
                        AluOp::Add => x + y,
                        AluOp::Sub => x - y,
                        AluOp::Mul => x * y,
                        AluOp::Div => x / y,
                        AluOp::And => Fixed::from_bits(x.to_bits() & y.to_bits()),
                        AluOp::Or => Fixed::from_bits(x.to_bits() | y.to_bits()),
                        AluOp::Min => x.min(y),
                        AluOp::Max => x.max(y),
                        _ => unreachable!("unary ops handled above"),
                    }));
                }
            }
        }
        self.regs.write_vec(slot, dest, Lanes::packed(&self.vec_out, w, self.live))
    }
}

/// Builds the static NoC send graph over the loaded image: for every
/// `send` instruction local to `node_id`, an edge `src → target` weighted
/// by its minimum transit time. Sends execute only on tile control units
/// and their width/target operands are immediate, so this is a complete
/// enumeration of every possible future packet delivery — the exactness
/// basis of the scheduler's cross-tile slack (module docs). Returns
/// `(senders_to, min_direct, min_indirect)`: per-target incoming edges
/// (self-edges excluded), the per-target cheapest direct edge, and the
/// per-target two-hop cost floor.
#[allow(clippy::type_complexity)] // one internal call site
fn send_graph(
    timing: &TimingModel,
    tiles: &[TileState],
    node_id: u16,
) -> (Vec<Vec<(u32, u64)>>, Vec<u64>, Vec<u64>) {
    let mut senders_to: Vec<Vec<(u32, u64)>> = vec![Vec::new(); tiles.len()];
    // Cheapest incoming edge per tile, self-edges included (a self-send
    // is an event in the tile's own list, but an incoming self-edge still
    // bounds multi-hop paths through it).
    let mut min_in_edge = vec![u64::MAX; tiles.len()];
    for (src, tile) in tiles.iter().enumerate() {
        for instr in &tile.tile_program.instructions {
            if let Instruction::Send { target, node, width, .. } = instr {
                if *node == node_id && (*target as usize) < tiles.len() {
                    let dst = *target as usize;
                    let transit = timing.send_cycles(*width as usize, src, dst);
                    min_in_edge[dst] = min_in_edge[dst].min(transit);
                    if src != dst {
                        match senders_to[dst].iter_mut().find(|(u, _)| *u == src as u32) {
                            Some((_, d)) => *d = (*d).min(transit),
                            None => senders_to[dst].push((src as u32, transit)),
                        }
                    }
                }
            }
        }
    }
    let min_direct = (0..tiles.len())
        .map(|t| senders_to[t].iter().map(|&(_, d)| d).min().unwrap_or(u64::MAX))
        .collect();
    let min_indirect = (0..tiles.len())
        .map(|t| {
            senders_to[t]
                .iter()
                .map(|&(u, d)| min_in_edge[u as usize].saturating_add(d))
                .min()
                .unwrap_or(u64::MAX)
        })
        .collect();
    (senders_to, min_direct, min_indirect)
}

/// Executes one scalar integer op in every lane. Scalar ops always
/// execute, in Timing mode too: loop counters and computed addresses
/// must work there. Compare results (Eq/Gt/Ne) are raw-bit integer
/// booleans — bit value 1, not Q4.12 1.0 — matching Branch and the rest
/// of the scalar domain, which operate on raw register bits (the
/// booleans-feed-branches contract; see puma-isa `ScalarOp` docs).
fn alu_int(
    regs: &mut RegArena,
    slot: usize,
    op: ScalarOp,
    dest: RegRef,
    src1: RegRef,
    src2: RegRef,
) -> Result<()> {
    for lane in 0..regs.lanes() {
        let a = regs.read(lane, slot, src1)?.to_bits();
        let b = regs.read(lane, slot, src2)?.to_bits();
        let y: i16 = match op {
            ScalarOp::Add => a.wrapping_add(b),
            ScalarOp::Sub => a.wrapping_sub(b),
            ScalarOp::Eq => (a == b) as i16,
            ScalarOp::Gt => (a > b) as i16,
            ScalarOp::Ne => (a != b) as i16,
        };
        regs.write(lane, slot, dest, Fixed::from_bits(y))?;
    }
    Ok(())
}

/// Writes the MVM input shuffling (§3.2.3) of `raw` into `out`: the first
/// `filter` XbarIn words form a ring that is rotated left by `stride`
/// positions (rows past the filter see zero). Rotating modulo the *active
/// window* lets a sliding window reuse its overlap without physical data
/// movement: the core overwrites only the departed columns and bumps the
/// stride.
fn shuffle_into(raw: &[Fixed], filter: u16, stride: u16, out: &mut [Fixed]) {
    let dim = raw.len();
    let active = if filter == 0 { dim } else { (filter as usize).min(dim) };
    let s = stride as usize % active;
    out[..active - s].copy_from_slice(&raw[s..active]);
    out[active - s..active].copy_from_slice(&raw[..s]);
    out[active..].fill(Fixed::ZERO);
}

#[cfg(test)]
mod tests {
    use super::*;
    use puma_core::config::{CoreConfig, MvmuConfig, NodeConfig, TileConfig};
    use puma_core::ids::{CoreId, TileId};
    use puma_core::tensor::Matrix;
    use puma_isa::asm::assemble;
    use puma_isa::{IoBinding, MachineImage};

    /// A small configuration for unit tests: 16×16 MVMUs, 2 cores/tile.
    fn tiny_config(tiles: usize) -> NodeConfig {
        let mvmu = MvmuConfig { dim: 16, ..MvmuConfig::default() };
        NodeConfig {
            tile: TileConfig {
                core: CoreConfig {
                    mvmu,
                    mvmus_per_core: 2,
                    vfu_lanes: 4,
                    instruction_memory_bytes: 4096,
                    register_file_words: 256,
                },
                cores_per_tile: 2,
                shared_memory_bytes: 4096,
                ..TileConfig::default()
            },
            tiles_per_node: tiles,
            ..NodeConfig::default()
        }
    }

    fn identity_weights(dim: usize, scale: f32) -> puma_core::tensor::FixedMatrix {
        Matrix::from_fn(dim, dim, |r, c| if r == c { scale } else { 0.0 }).quantize()
    }

    fn image_with_core_program(cfg: &NodeConfig, source: &str) -> MachineImage {
        let mut img = MachineImage::new(1, cfg.tile.cores_per_tile, cfg.tile.core.mvmus_per_core);
        img.core_mut(TileId::new(0), CoreId::new(0)).program =
            Program::from_instructions(assemble(source).unwrap());
        img
    }

    #[test]
    fn mvm_and_tanh_pipeline_computes() {
        let cfg = tiny_config(1);
        // load 16 words into XbarIn, run MVM on MVMU 0 (identity*0.5),
        // tanh the result, store.
        let source = "\
load xi0 @0 16
mvm 1 0 0
tanh r0 xo0 16
store @64 r0 1 16
halt
";
        let mut img = image_with_core_program(&cfg, source);
        img.core_mut(TileId::new(0), CoreId::new(0)).mvmu_weights[0] =
            Some(identity_weights(16, 0.5));
        img.inputs.push(IoBinding {
            name: "x".into(),
            tile: TileId::new(0),
            addr: 0,
            width: 16,
            count: 1,
        });
        img.outputs.push(IoBinding {
            name: "y".into(),
            tile: TileId::new(0),
            addr: 64,
            width: 16,
            count: 1,
        });
        let mut sim =
            NodeSim::new(cfg, &img, SimMode::Functional, &NoiseModel::noiseless()).unwrap();
        let x: Vec<f32> = (0..16).map(|i| (i as f32 - 8.0) * 0.3).collect();
        sim.write_input("x", &x).unwrap();
        sim.run().unwrap();
        let y = sim.read_output("y").unwrap();
        for (xi, yi) in x.iter().zip(y.iter()) {
            let expected = (xi * 0.5).tanh();
            assert!((yi - expected).abs() < 0.02, "tanh({xi}*0.5): {yi} vs {expected}");
        }
        assert!(sim.stats().cycles > 0);
        assert_eq!(sim.stats().mvmu_activations, 1);
    }

    #[test]
    fn lane_runs_match_solo_runs() {
        let cfg = tiny_config(1);
        let mut img = image_with_core_program(
            &cfg,
            "load xi0 @0 16\nmvm 1 0 0\ntanh r0 xo0 16\nstore @64 r0 1 16\nhalt\n",
        );
        img.core_mut(TileId::new(0), CoreId::new(0)).mvmu_weights[0] =
            Some(identity_weights(16, 0.5));
        let bind = |name: &str, addr| IoBinding {
            name: name.into(),
            tile: TileId::new(0),
            addr,
            width: 16,
            count: 1,
        };
        img.inputs.push(bind("x", 0));
        img.outputs.push(bind("y", 64));
        let noise = NoiseModel::noiseless();
        let mut solo = NodeSim::new(cfg, &img, SimMode::Functional, &noise).unwrap();
        let inputs: Vec<Vec<f32>> = (0..3)
            .map(|r| (0..16).map(|i| (i as f32 - 8.0) * 0.1 * (r + 1) as f32).collect())
            .collect();
        let solos: Vec<(Vec<f32>, RunStats)> = inputs
            .iter()
            .map(|x| {
                solo.reset();
                solo.write_input("x", x).unwrap();
                solo.run().unwrap();
                (solo.read_output("y").unwrap(), solo.stats().clone())
            })
            .collect();
        let mut lanes = solo.fork_lanes(3).unwrap();
        for live in [2, 3, 1] {
            lanes.reset_lanes(live).unwrap();
            let x: Vec<&[f32]> = inputs[..live].iter().map(Vec::as_slice).collect();
            lanes.write_input_lanes("x", &x).unwrap();
            lanes.run().unwrap();
            for (lane, (y, stats)) in solos[..live].iter().enumerate() {
                assert_eq!(
                    &lanes.read_output_lane("y", lane).unwrap(),
                    y,
                    "{live} live, lane {lane}"
                );
                assert_eq!(lanes.stats(), stats, "every lane's run costs a solo run");
            }
            assert!(lanes.read_output_lane("y", live).is_err(), "lane {live} is idle");
        }
        assert!(lanes.write_input_lanes("x", &[&inputs[0], &inputs[1]]).is_err());
        assert!(lanes.reset_lanes(0).is_err() && lanes.reset_lanes(4).is_err());
        let timing = NodeSim::new(cfg, &img, SimMode::Timing, &noise).unwrap();
        assert!(timing.fork_lanes(2).is_err(), "timing runs carry no lane data");
    }

    #[test]
    fn producer_consumer_cores_synchronize() {
        let cfg = tiny_config(1);
        let mut img = MachineImage::new(1, 2, 2);
        // Core 1 produces after a delay (several scalar ops), core 0
        // blocks on the load until the store lands.
        img.core_mut(TileId::new(0), CoreId::new(0)).program =
            Program::from_instructions(assemble("load r0 @0 4\nstore @16 r0 1 4\nhalt\n").unwrap());
        img.core_mut(TileId::new(0), CoreId::new(1)).program = Program::from_instructions(
            assemble("set r0 7\nset r1 7\niadd r2 r0 r1\nset r4 5\nstore @0 r4 1 4\nhalt\n")
                .unwrap(),
        );
        img.outputs.push(IoBinding {
            name: "out".into(),
            tile: TileId::new(0),
            addr: 16,
            width: 4,
            count: 1,
        });
        let mut sim =
            NodeSim::new(cfg, &img, SimMode::Functional, &NoiseModel::noiseless()).unwrap();
        sim.run().unwrap();
        assert!(sim.stats().blocked_cycles > 0, "consumer must have blocked");
        let out = sim.read_output_fixed("out").unwrap();
        // r4..r7 of producer were [5,0,0,0].
        assert_eq!(out[0].to_bits(), 5);
    }

    #[test]
    fn send_receive_across_tiles() {
        let cfg = tiny_config(2);
        let mut img = MachineImage::new(2, 2, 2);
        // Tile 0: core 0 stores, tile program sends to tile 1 fifo 3.
        img.core_mut(TileId::new(0), CoreId::new(0)).program =
            Program::from_instructions(assemble("set r0 9\nstore @0 r0 1 4\nhalt\n").unwrap());
        img.tiles[0].program =
            Program::from_instructions(assemble("send @0 f3 t1 4\nhalt\n").unwrap());
        // Tile 1: tile program receives, core 0 loads and stores to output.
        img.tiles[1].program =
            Program::from_instructions(assemble("recv @8 f3 1 4\nhalt\n").unwrap());
        img.core_mut(TileId::new(1), CoreId::new(0)).program =
            Program::from_instructions(assemble("load r0 @8 4\nstore @32 r0 1 4\nhalt\n").unwrap());
        img.outputs.push(IoBinding {
            name: "out".into(),
            tile: TileId::new(1),
            addr: 32,
            width: 4,
            count: 1,
        });
        let mut sim =
            NodeSim::new(cfg, &img, SimMode::Functional, &NoiseModel::noiseless()).unwrap();
        sim.run().unwrap();
        assert_eq!(sim.read_output_fixed("out").unwrap()[0].to_bits(), 9);
        assert_eq!(sim.stats().network_words, 4);
    }

    #[test]
    fn deadlock_is_detected() {
        let cfg = tiny_config(1);
        // A single core loads from an address nobody writes.
        let img = image_with_core_program(&cfg, "load r0 @0 4\nhalt\n");
        let mut sim =
            NodeSim::new(cfg, &img, SimMode::Functional, &NoiseModel::noiseless()).unwrap();
        match sim.run() {
            Err(PumaError::Deadlock { .. }) => {}
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn branch_loop_iterates() {
        let cfg = tiny_config(1);
        // r0 counts 0..5 via brn.
        let source = "\
set r0 0
set r1 5
set r2 1
iadd r0 r0 r2
brn lt r0 r1 3
store @0 r0 1 1
halt
";
        let mut img = image_with_core_program(&cfg, source);
        img.outputs.push(IoBinding {
            name: "n".into(),
            tile: TileId::new(0),
            addr: 0,
            width: 1,
            count: 1,
        });
        let mut sim =
            NodeSim::new(cfg, &img, SimMode::Functional, &NoiseModel::noiseless()).unwrap();
        sim.run().unwrap();
        assert_eq!(sim.read_output_fixed("n").unwrap()[0].to_bits(), 5);
        // 3 sets + 5 iadds + 5 brns + store + halt = 15 dynamic instructions.
        assert_eq!(sim.stats().total_instructions(), 15);
    }

    #[test]
    fn timing_mode_matches_functional_cycles() {
        let cfg = tiny_config(1);
        let source = "\
load xi0 @0 16
mvm 1 0 0
tanh r0 xo0 16
store @64 r0 1 16
halt
";
        let mut img = image_with_core_program(&cfg, source);
        img.core_mut(TileId::new(0), CoreId::new(0)).mvmu_weights[0] =
            Some(identity_weights(16, 0.5));
        img.inputs.push(IoBinding {
            name: "x".into(),
            tile: TileId::new(0),
            addr: 0,
            width: 16,
            count: 1,
        });
        let run = |mode: SimMode| {
            let mut sim =
                NodeSim::new(tiny_config(1), &img, mode, &NoiseModel::noiseless()).unwrap();
            sim.write_input("x", &[0.1; 16]).unwrap();
            sim.run().unwrap();
            (sim.stats().cycles, sim.stats().energy.total_nj())
        };
        let (fc, fe) = run(SimMode::Functional);
        let (tc, te) = run(SimMode::Timing);
        assert_eq!(fc, tc, "cycle counts must agree across modes");
        assert!((fe - te).abs() < 1e-6, "energy must agree across modes");
    }

    #[test]
    fn mvm_energy_matches_anchor() {
        let cfg = NodeConfig::default();
        let mut img = MachineImage::new(1, 1, 2);
        img.core_mut(TileId::new(0), CoreId::new(0)).program =
            Program::from_instructions(assemble("mvm 1 0 0\nhalt\n").unwrap());
        img.core_mut(TileId::new(0), CoreId::new(0)).mvmu_weights[0] =
            Some(identity_weights(128, 1.0));
        let mut sim = NodeSim::new(cfg, &img, SimMode::Timing, &NoiseModel::noiseless()).unwrap();
        sim.run().unwrap();
        let mvm_nj = sim.stats().energy.component_nj(EnergyComponent::Mvmu);
        assert!((mvm_nj - 43.97).abs() < 0.2, "MVM energy {mvm_nj} nJ");
        assert_eq!(sim.stats().cycles, 2304);
    }

    #[test]
    fn coalesced_mvm_runs_units_in_parallel() {
        let cfg = tiny_config(1);
        let mut img = MachineImage::new(1, 1, 2);
        img.core_mut(TileId::new(0), CoreId::new(0)).program =
            Program::from_instructions(assemble("mvm 3 0 0\nhalt\n").unwrap());
        img.core_mut(TileId::new(0), CoreId::new(0)).mvmu_weights[0] =
            Some(identity_weights(16, 1.0));
        img.core_mut(TileId::new(0), CoreId::new(0)).mvmu_weights[1] =
            Some(identity_weights(16, 1.0));
        let mut sim = NodeSim::new(cfg, &img, SimMode::Timing, &NoiseModel::noiseless()).unwrap();
        sim.run().unwrap();
        let coalesced_cycles = sim.stats().cycles;
        assert_eq!(sim.stats().mvmu_activations, 2);

        // Sequential MVMs take ~2x the time.
        let mut img2 = MachineImage::new(1, 1, 2);
        img2.core_mut(TileId::new(0), CoreId::new(0)).program =
            Program::from_instructions(assemble("mvm 1 0 0\nmvm 2 0 0\nhalt\n").unwrap());
        img2.core_mut(TileId::new(0), CoreId::new(0)).mvmu_weights[0] =
            Some(identity_weights(16, 1.0));
        img2.core_mut(TileId::new(0), CoreId::new(0)).mvmu_weights[1] =
            Some(identity_weights(16, 1.0));
        let mut sim2 = NodeSim::new(cfg, &img2, SimMode::Timing, &NoiseModel::noiseless()).unwrap();
        sim2.run().unwrap();
        assert!(sim2.stats().cycles > coalesced_cycles + 200);
    }

    #[test]
    fn input_shuffle_rotates_and_filters() {
        let raw: Vec<Fixed> = (0..8).map(|i| Fixed::from_bits(i as i16 + 1)).collect();
        let shuffle = |filter: u16, stride: u16| {
            let mut out = vec![Fixed::from_bits(-1); 8];
            shuffle_into(&raw, filter, stride, &mut out);
            out
        };
        let rotated = shuffle(0, 2);
        assert_eq!(rotated[0].to_bits(), 3);
        assert_eq!(rotated[7].to_bits(), 2);
        let filtered = shuffle(3, 0);
        assert_eq!(filtered[2].to_bits(), 3);
        assert_eq!(filtered[3], Fixed::ZERO);
        // Rotation wraps modulo the active window, not the full register.
        let ring = shuffle(3, 2);
        assert_eq!(ring[0].to_bits(), 3);
        assert_eq!(ring[1].to_bits(), 1);
        assert_eq!(ring[2].to_bits(), 2);
        assert_eq!(ring[3], Fixed::ZERO);
        // The fused copy equals the per-row ring index for every window
        // and stride, overwriting whatever the scratch held.
        for filter in 0..=10u16 {
            for stride in 0..=20u16 {
                let active = if filter == 0 { 8 } else { (filter as usize).min(8) };
                let want: Vec<Fixed> =
                    (0..8)
                        .map(|i| {
                            if i < active {
                                raw[(i + stride as usize) % active]
                            } else {
                                Fixed::ZERO
                            }
                        })
                        .collect();
                assert_eq!(shuffle(filter, stride), want, "filter {filter} stride {stride}");
            }
        }
    }

    #[test]
    fn reset_allows_second_run() {
        let cfg = tiny_config(1);
        let source = "load xi0 @0 16\nmvm 1 0 0\nstore @64 xo0 1 16\nhalt\n";
        let mut img = image_with_core_program(&cfg, source);
        img.core_mut(TileId::new(0), CoreId::new(0)).mvmu_weights[0] =
            Some(identity_weights(16, 1.0));
        img.inputs.push(IoBinding {
            name: "x".into(),
            tile: TileId::new(0),
            addr: 0,
            width: 16,
            count: 1,
        });
        img.outputs.push(IoBinding {
            name: "y".into(),
            tile: TileId::new(0),
            addr: 64,
            width: 16,
            count: 1,
        });
        let mut sim =
            NodeSim::new(cfg, &img, SimMode::Functional, &NoiseModel::noiseless()).unwrap();
        for round in 0..3 {
            sim.reset();
            let x: Vec<f32> = (0..16).map(|i| 0.05 * (i + round) as f32).collect();
            sim.write_input("x", &x).unwrap();
            sim.run().unwrap();
            let y = sim.read_output("y").unwrap();
            for (a, b) in x.iter().zip(y.iter()) {
                assert!((a - b).abs() < 0.001);
            }
        }
    }

    #[test]
    fn reset_reseeds_the_rand_stream() {
        let cfg = tiny_config(1);
        let source = "rand r0 r0 4\nstore @0 r0 1 4\nhalt\n";
        let mut img = image_with_core_program(&cfg, source);
        img.outputs.push(IoBinding {
            name: "r".into(),
            tile: TileId::new(0),
            addr: 0,
            width: 4,
            count: 1,
        });
        let mut sim =
            NodeSim::new(cfg, &img, SimMode::Functional, &NoiseModel::noiseless()).unwrap();
        sim.run().unwrap();
        let first = sim.read_output_fixed("r").unwrap();
        sim.reset();
        sim.run().unwrap();
        assert_eq!(first, sim.read_output_fixed("r").unwrap(), "rand must replay after reset");
    }

    #[test]
    fn unknown_bindings_are_errors() {
        let cfg = tiny_config(1);
        let img = image_with_core_program(&cfg, "halt\n");
        let mut sim =
            NodeSim::new(cfg, &img, SimMode::Functional, &NoiseModel::noiseless()).unwrap();
        assert!(sim.write_input("nope", &[1.0]).is_err());
        assert!(sim.read_output("nope").is_err());
    }

    #[test]
    fn duplicate_binding_names_resolve_to_the_first() {
        let cfg = tiny_config(1);
        let mut img = image_with_core_program(&cfg, "halt\n");
        for addr in [8, 4] {
            let b = IoBinding { name: "v".into(), tile: TileId::new(0), addr, width: 2, count: 1 };
            img.inputs.push(b.clone());
            img.outputs.push(b);
        }
        let sim = NodeSim::new(cfg, &img, SimMode::Functional, &NoiseModel::noiseless()).unwrap();
        for mut sim in [sim.fork_replica(), sim] {
            sim.write_input("v", &[1.0, 2.0]).unwrap();
            assert_eq!(
                sim.mem.peek(0, 0, 8, 2).unwrap(),
                vec![Fixed::from_f32(1.0), Fixed::from_f32(2.0)]
            );
            assert_eq!(sim.read_output("v").unwrap(), vec![1.0, 2.0]);
            assert!(sim.has_input("v") && sim.has_output("v") && !sim.has_input("w"));
        }
    }

    #[test]
    fn oversized_image_rejected() {
        let cfg = tiny_config(1);
        let img = MachineImage::new(2, 2, 2);
        assert!(NodeSim::new(cfg, &img, SimMode::Timing, &NoiseModel::noiseless()).is_err());
    }

    const ALL_ENGINES: [SimEngine; 2] = [SimEngine::Reference, SimEngine::Compiled];

    /// Runs one image under every engine, asserts the stats are
    /// bit-identical, and returns them.
    fn run_all_engines(cfg: &NodeConfig, img: &MachineImage, mode: SimMode) -> RunStats {
        let run = |engine: SimEngine| {
            let mut sim = NodeSim::new(*cfg, img, mode, &NoiseModel::noiseless()).unwrap();
            sim.set_engine(engine);
            sim.run().unwrap();
            sim.stats().clone()
        };
        let reference = run(SimEngine::Reference);
        assert_eq!(reference, run(SimEngine::Compiled), "Compiled diverged from Reference");
        reference
    }

    #[test]
    fn indexed_addressing_uses_raw_integer_offset() {
        let cfg = tiny_config(1);
        // r1 = raw integer 2: store lands at word 4 + 2 = 6, NOT 4 + 8192.
        let source = "\
set r1 2
set r0 9
store @4+r1 r0 1 1
halt
";
        let mut img = image_with_core_program(&cfg, source);
        img.outputs.push(IoBinding {
            name: "w".into(),
            tile: TileId::new(0),
            addr: 6,
            width: 1,
            count: 1,
        });
        let mut sim =
            NodeSim::new(cfg, &img, SimMode::Functional, &NoiseModel::noiseless()).unwrap();
        sim.run().unwrap();
        assert_eq!(sim.read_output_fixed("w").unwrap()[0].to_bits(), 9);
    }

    #[test]
    fn negative_index_is_an_execution_fault() {
        let cfg = tiny_config(1);
        let img = image_with_core_program(&cfg, "set r1 -1\nload r0 @4+r1 1\nhalt\n");
        for engine in ALL_ENGINES {
            let mut sim =
                NodeSim::new(cfg, &img, SimMode::Functional, &NoiseModel::noiseless()).unwrap();
            sim.set_engine(engine);
            match sim.run() {
                Err(PumaError::Execution { what }) => {
                    assert!(what.contains("negative index"), "{what}");
                }
                other => panic!("expected negative-index fault, got {other:?}"),
            }
        }
    }

    #[test]
    fn indexed_address_overflow_is_checked() {
        let cfg = tiny_config(1);
        let mut img = MachineImage::new(1, cfg.tile.cores_per_tile, cfg.tile.core.mvmus_per_core);
        img.core_mut(TileId::new(0), CoreId::new(0)).program = Program::from_instructions(vec![
            Instruction::Set { dest: RegRef::general(1), imm: 2 },
            Instruction::Load {
                dest: RegRef::general(0),
                addr: MemAddr::indexed(u32::MAX - 1, RegRef::general(1)),
                width: 1,
            },
            Instruction::Halt,
        ]);
        let mut sim =
            NodeSim::new(cfg, &img, SimMode::Functional, &NoiseModel::noiseless()).unwrap();
        match sim.run() {
            Err(PumaError::Execution { what }) => assert!(what.contains("overflows"), "{what}"),
            other => panic!("expected overflow fault, got {other:?}"),
        }
    }

    #[test]
    fn scalar_compare_writes_raw_bit_one() {
        let cfg = tiny_config(1);
        // ieq true -> raw 1 (not Q4.12 1.0 = 4096); igt false -> raw 0.
        let source = "\
set r0 7
set r1 7
ieq r2 r0 r1
igt r3 r0 r1
store @0 r2 1 1
store @1 r3 1 1
halt
";
        let mut img = image_with_core_program(&cfg, source);
        img.outputs.push(IoBinding {
            name: "flags".into(),
            tile: TileId::new(0),
            addr: 0,
            width: 2,
            count: 1,
        });
        let mut sim =
            NodeSim::new(cfg, &img, SimMode::Functional, &NoiseModel::noiseless()).unwrap();
        sim.run().unwrap();
        let flags = sim.read_output_fixed("flags").unwrap();
        assert_eq!(flags[0].to_bits(), 1, "true must be raw bit-value 1");
        assert_eq!(flags[1].to_bits(), 0, "false must be raw bit-value 0");
    }

    #[test]
    fn shl_saturates_instead_of_wrapping() {
        let cfg = tiny_config(1);
        // 12288 << 2 = 49152 wraps to a negative i16; it must clamp to
        // i16::MAX instead. Mirrored for the negative operand.
        let source = "\
set r0 12288
set r1 2
set r2 -12288
shl r4 r0 r1 1
shl r5 r2 r1 1
store @0 r4 1 1
store @1 r5 1 1
halt
";
        let mut img = image_with_core_program(&cfg, source);
        img.outputs.push(IoBinding {
            name: "y".into(),
            tile: TileId::new(0),
            addr: 0,
            width: 2,
            count: 1,
        });
        let mut sim =
            NodeSim::new(cfg, &img, SimMode::Functional, &NoiseModel::noiseless()).unwrap();
        sim.run().unwrap();
        let y = sim.read_output_fixed("y").unwrap();
        assert_eq!(y[0].to_bits(), i16::MAX);
        assert_eq!(y[1].to_bits(), i16::MIN);
    }

    #[test]
    fn vector_ops_match_scalar_fixed_arithmetic() {
        type Op = fn(Fixed, Fixed) -> Fixed;
        let cfg = tiny_config(1);
        let binary: [(&str, Op); 8] = [
            ("add", Fixed::saturating_add),
            ("sub", Fixed::saturating_sub),
            ("mul", Fixed::saturating_mul),
            ("div", Fixed::saturating_div),
            ("and", |x, y| Fixed::from_bits(x.to_bits() & y.to_bits())),
            ("or", |x, y| Fixed::from_bits(x.to_bits() | y.to_bits())),
            ("min", Fixed::min),
            ("max", Fixed::max),
        ];
        let imm = Fixed::from_f32(-1.5);
        let immediate: [(&str, Op); 4] = [
            ("addi", Fixed::saturating_add),
            ("subi", Fixed::saturating_sub),
            ("muli", Fixed::saturating_mul),
            ("divi", Fixed::saturating_div),
        ];
        let mut source = String::from("load r0 @0 8\nload r8 @8 8\n");
        for (k, (name, _)) in binary.iter().enumerate() {
            let (r, a) = (16 + 8 * k, 32 + 8 * k);
            source += &format!("{name} r{r} r0 r8 8\nstore @{a} r{r} 1 8\n");
        }
        for (k, (name, _)) in immediate.iter().enumerate() {
            let (r, a) = (80 + 8 * k, 96 + 8 * k);
            source += &format!("{name} r{r} r0 {} 8\nstore @{a} r{r} 1 8\n", imm.to_f32());
        }
        source += "halt\n";
        let mut img = image_with_core_program(&cfg, &source);
        for (name, addr, width) in [("x", 0, 8), ("y", 8, 8)] {
            img.inputs.push(IoBinding {
                name: name.into(),
                tile: TileId::new(0),
                addr,
                width,
                count: 1,
            });
        }
        img.outputs.push(IoBinding {
            name: "out".into(),
            tile: TileId::new(0),
            addr: 32,
            width: 96,
            count: 1,
        });
        let bits = |v: [i16; 8]| v.map(Fixed::from_bits);
        let x = bits([i16::MAX, i16::MIN, 4096, -4096, 1234, -1, 0, 30000]);
        let y = bits([i16::MAX, 1, 0, -4096, -20000, i16::MIN, 7, 30000]);
        let mut sim =
            NodeSim::new(cfg, &img, SimMode::Functional, &NoiseModel::noiseless()).unwrap();
        sim.write_input_fixed("x", &x).unwrap();
        sim.write_input_fixed("y", &y).unwrap();
        sim.run().unwrap();
        let out = sim.read_output_fixed("out").unwrap();
        let lanes = out.chunks(8);
        let expected = binary
            .iter()
            .map(|(name, f)| (*name, x.iter().zip(&y).map(|(&a, &b)| f(a, b)).collect::<Vec<_>>()))
            .chain(
                immediate
                    .iter()
                    .map(|(name, f)| (*name, x.iter().map(|&a| f(a, imm)).collect::<Vec<_>>())),
            );
        for (got, (name, want)) in lanes.zip(expected) {
            assert_eq!(got, want.as_slice(), "{name}");
        }
    }

    #[test]
    fn runaway_loop_hits_cycle_cap_on_every_engine() {
        let cfg = tiny_config(1);
        // The halt is unreachable; it only satisfies image validation.
        let img = image_with_core_program(&cfg, "jmp 0\nhalt\n");
        for engine in ALL_ENGINES {
            let mut sim =
                NodeSim::new(cfg, &img, SimMode::Timing, &NoiseModel::noiseless()).unwrap();
            sim.set_engine(engine);
            sim.set_max_cycles(10_000);
            match sim.run() {
                Err(PumaError::Execution { what }) => {
                    assert!(what.contains("cycle cap"), "{what}");
                }
                other => panic!("{engine:?}: expected cycle-cap fault, got {other:?}"),
            }
        }
    }

    #[test]
    fn forks_share_the_compiled_build_and_runs_leave_its_refcount_alone() {
        let cfg = tiny_config(1);
        let finite = image_with_core_program(&cfg, "set r0 7\nset r1 5\niadd r2 r0 r1\nhalt\n");
        let runaway = image_with_core_program(&cfg, "jmp 0\nhalt\n");
        for (img, capped) in [(&finite, false), (&runaway, true)] {
            let owner =
                NodeSim::new(cfg, img, SimMode::Functional, &NoiseModel::noiseless()).unwrap();
            let image = Arc::clone(owner.compiled.as_ref().unwrap());
            let mut forks = vec![owner.fork_replica(), owner.fork_lanes(4).unwrap()];
            let count = Arc::strong_count(&image);
            for sim in &mut forks {
                assert!(Arc::ptr_eq(sim.compiled.as_ref().unwrap(), &image), "fork rebuilt");
                sim.set_max_cycles(10_000);
                let mut runs = Vec::new();
                for _ in 0..2 {
                    sim.reset();
                    runs.push(sim.run().map(|stats| stats.cycles).map_err(|e| e.to_string()));
                    assert_eq!(Arc::strong_count(&image), count, "capped: {capped}");
                    assert!(Arc::ptr_eq(sim.compiled.as_ref().unwrap(), &image));
                }
                assert_eq!(runs[0].is_err(), capped, "{runs:?}");
                assert_eq!(runs[0], runs[1], "the next run reuses the image");
            }
        }
    }

    #[test]
    fn reference_only_simulators_never_build_the_micro_ops() {
        let cfg = tiny_config(1);
        let img = image_with_core_program(&cfg, "set r0 7\nset r1 5\niadd r2 r0 r1\nhalt\n");
        let mut owner = NodeSim::new(cfg, &img, SimMode::Timing, &NoiseModel::noiseless()).unwrap();
        owner.set_engine(SimEngine::Reference);
        let mut fork = owner.fork_replica();
        owner.run().unwrap();
        fork.run().unwrap();
        let cell = Arc::clone(owner.compiled.as_ref().unwrap());
        assert!(cell.get().is_none(), "a reference run built the micro-ops");
        fork.set_engine(SimEngine::Compiled);
        fork.reset();
        fork.run().unwrap();
        assert!(cell.get().is_some(), "the fork's compiled run builds them for every fork");
        assert!(Arc::ptr_eq(fork.compiled.as_ref().unwrap(), &cell));
    }

    #[test]
    fn snapshot_restore_matches_rewriting_the_constants() {
        let cfg = tiny_config(1);
        let mut img = image_with_core_program(
            &cfg,
            "load r0 @0 4\nload r4 @8 4\nmul r8 r0 r4 4\nstore @16 r8 1 4\nhalt\n",
        );
        let bind = |name: &str, addr| IoBinding {
            name: name.into(),
            tile: TileId::new(0),
            addr,
            width: 4,
            count: 1,
        };
        img.inputs.extend([bind("w", 0), bind("x", 8)]);
        img.outputs.push(bind("y", 16));
        let w = [0.5f32, -0.25, 1.0, 0.125].map(Fixed::from_f32);
        let xs: Vec<Vec<f32>> = (0..3).map(|r| vec![0.1 * (r + 1) as f32; 4]).collect();
        let template = NodeSim::new(cfg, &img, SimMode::Functional, &NoiseModel::noiseless())
            .unwrap()
            .fork_lanes(3)
            .unwrap();
        let pass = |sim: &mut NodeSim, live: usize, snapshot: bool| {
            sim.reset_lanes(live).unwrap();
            if !(snapshot && sim.restore_snapshot("m")) {
                sim.write_input_fixed("w", &w).unwrap();
                if snapshot {
                    sim.save_snapshot("m");
                }
            }
            let lanes: Vec<&[f32]> = xs[..live].iter().map(Vec::as_slice).collect();
            sim.write_input_lanes("x", &lanes).unwrap();
            sim.run().unwrap();
            let outs: Vec<_> = (0..live).map(|l| sim.read_output_lane("y", l).unwrap()).collect();
            (outs, sim.stats().clone())
        };
        let (mut written, mut restored) = (template.fork_replica(), template.fork_replica());
        assert!(!restored.restore_snapshot("m"), "nothing saved yet");
        for live in [2, 3, 1, 3] {
            assert_eq!(pass(&mut written, live, false), pass(&mut restored, live, true), "{live}");
        }
        assert!(restored.state_bytes() > written.state_bytes(), "the snapshot is counted");

        // A cluster snapshots every node: each of two nodes holds a
        // constant and computes its own output.
        let mut img1 = img.clone();
        for b in img1.inputs.iter_mut().chain(&mut img1.outputs) {
            b.name.push('1');
        }
        let cluster = crate::ClusterSim::new(
            cfg,
            &[img, img1],
            SimMode::Functional,
            &NoiseModel::noiseless(),
        )
        .unwrap();
        let cluster_pass = |sim: &mut crate::ClusterSim, x: f32, snapshot: bool| {
            sim.reset();
            if !(snapshot && sim.restore_snapshot("m")) {
                sim.write_input_fixed("w", &w).unwrap();
                sim.write_input_fixed("w1", &w).unwrap();
                if snapshot {
                    sim.save_snapshot("m");
                }
            }
            sim.write_input("x", &[x; 4]).unwrap();
            sim.write_input("x1", &[-x; 4]).unwrap();
            sim.run().unwrap();
            (sim.read_output("y").unwrap(), sim.read_output("y1").unwrap(), sim.stats().clone())
        };
        let (mut written, mut restored) = (cluster.fork_replica(), cluster.fork_replica());
        assert!(!restored.restore_snapshot("m"), "nothing saved yet");
        for x in [0.1, 0.2, 0.3] {
            let want = cluster_pass(&mut written, x, false);
            assert_eq!(want, cluster_pass(&mut restored, x, true), "{x}");
            assert_ne!(want.1, vec![0.0; 4], "node 1 computed its output");
        }
    }

    #[test]
    fn long_latency_instruction_cannot_sail_past_cap() {
        let cfg = tiny_config(1);
        // One MVM (latency ~thousands of cycles) against a tiny cap: the
        // completion event lands past the cap and must fail at schedule
        // time on both engines.
        let img = image_with_core_program(&cfg, "mvm 1 0 0\nhalt\n");
        for engine in ALL_ENGINES {
            let mut sim =
                NodeSim::new(cfg, &img, SimMode::Timing, &NoiseModel::noiseless()).unwrap();
            sim.set_engine(engine);
            sim.set_max_cycles(100);
            match sim.run() {
                Err(PumaError::Execution { what }) => {
                    assert!(what.contains("cycle cap"), "{what}");
                }
                other => panic!("{engine:?}: expected cycle-cap fault, got {other:?}"),
            }
        }
    }

    #[test]
    fn send_landing_past_the_cap_faults_at_the_send() {
        // A packet whose delivery would land past the cap fails when it is
        // sent, like an instruction whose latency does: no event past the
        // cap is ever queued, so the run never observes a later time.
        let cfg = tiny_config(2);
        let mut img = MachineImage::new(2, cfg.tile.cores_per_tile, cfg.tile.core.mvmus_per_core);
        img.tiles[0].program =
            Program::from_instructions(assemble("send @0 f1 t1 4\nhalt\n").unwrap());
        img.tiles[1].program =
            Program::from_instructions(assemble("recv @0 f1 1 4\nhalt\n").unwrap());
        img.inputs.push(IoBinding {
            name: "x".into(),
            tile: TileId::new(0),
            addr: 0,
            width: 4,
            count: 1,
        });
        let timing = TimingModel::new(cfg);
        let cap = timing.send_cycles(4, 0, 1) - 1;
        assert!(cap >= timing.receive_cycles(4), "the sender itself finishes under the cap");
        for engine in ALL_ENGINES {
            let mut sim =
                NodeSim::new(cfg, &img, SimMode::Timing, &NoiseModel::noiseless()).unwrap();
            sim.set_engine(engine);
            sim.set_max_cycles(cap);
            sim.write_input("x", &[0.0; 4]).unwrap();
            match sim.run() {
                Err(PumaError::Execution { what }) => assert!(what.contains("cycle cap"), "{what}"),
                other => panic!("{engine:?}: expected cycle-cap fault, got {other:?}"),
            }
            assert!(sim.last_time() <= cap, "{engine:?} ran to {}", sim.last_time());
        }
    }

    #[test]
    fn engines_agree_on_producer_consumer() {
        let cfg = tiny_config(1);
        let mut img = MachineImage::new(1, 2, 2);
        img.core_mut(TileId::new(0), CoreId::new(0)).program =
            Program::from_instructions(assemble("load r0 @0 4\nstore @16 r0 1 4\nhalt\n").unwrap());
        img.core_mut(TileId::new(0), CoreId::new(1)).program = Program::from_instructions(
            assemble("set r0 7\nset r1 7\niadd r2 r0 r1\nset r4 5\nstore @0 r4 1 4\nhalt\n")
                .unwrap(),
        );
        let reference = run_all_engines(&cfg, &img, SimMode::Functional);
        assert!(reference.blocked_cycles > 0);
    }

    #[test]
    fn engines_agree_on_cross_tile_traffic() {
        let cfg = tiny_config(2);
        let mut img = MachineImage::new(2, 2, 2);
        img.core_mut(TileId::new(0), CoreId::new(0)).program =
            Program::from_instructions(assemble("set r0 9\nstore @0 r0 1 4\nhalt\n").unwrap());
        img.tiles[0].program =
            Program::from_instructions(assemble("send @0 f3 t1 4\nhalt\n").unwrap());
        img.tiles[1].program =
            Program::from_instructions(assemble("recv @8 f3 1 4\nhalt\n").unwrap());
        img.core_mut(TileId::new(1), CoreId::new(0)).program =
            Program::from_instructions(assemble("load r0 @8 4\nstore @32 r0 1 4\nhalt\n").unwrap());
        let reference = run_all_engines(&cfg, &img, SimMode::Functional);
        assert_eq!(reference.network_words, 4);
    }

    #[test]
    fn consumers_wake_in_park_order() {
        // The wake-fairness contract (see `WaitCond`/`apply_wakes`): when
        // one store wakes several agents parked on the same word, they
        // retry in FIFO *park* order — not agent-id order — in both
        // engines. Core 1 parks on word @0 first (its load is its first
        // instruction); core 0 parks second (three sets delay it); the
        // producer then stores with consumer count **1**. Park order says
        // core 1 consumes the word and core 0 re-parks forever, even
        // though core 0 has the lower agent id.
        let mvmu = MvmuConfig { dim: 16, ..MvmuConfig::default() };
        let cfg = NodeConfig {
            tile: TileConfig {
                core: CoreConfig {
                    mvmu,
                    mvmus_per_core: 1,
                    vfu_lanes: 4,
                    instruction_memory_bytes: 4096,
                    register_file_words: 256,
                },
                cores_per_tile: 3,
                shared_memory_bytes: 4096,
                ..TileConfig::default()
            },
            tiles_per_node: 1,
            ..NodeConfig::default()
        };
        let mut img = MachineImage::new(1, 3, 1);
        img.core_mut(TileId::new(0), CoreId::new(0)).program = Program::from_instructions(
            assemble("set r1 0\nset r1 0\nset r1 0\nload r0 @0 1\nstore @9 r0 1 1\nhalt\n")
                .unwrap(),
        );
        img.core_mut(TileId::new(0), CoreId::new(1)).program =
            Program::from_instructions(assemble("load r0 @0 1\nstore @8 r0 1 1\nhalt\n").unwrap());
        img.core_mut(TileId::new(0), CoreId::new(2)).program = Program::from_instructions(
            assemble("set r4 5\nset r4 5\nset r4 5\nset r4 5\nset r4 5\nstore @0 r4 1 1\nhalt\n")
                .unwrap(),
        );
        img.outputs.push(IoBinding {
            name: "winner".into(),
            tile: TileId::new(0),
            addr: 8,
            width: 1,
            count: 1,
        });
        for engine in ALL_ENGINES {
            let mut sim =
                NodeSim::new(cfg, &img, SimMode::Functional, &NoiseModel::noiseless()).unwrap();
            sim.set_engine(engine);
            match sim.run() {
                Err(PumaError::Deadlock { what, .. }) => {
                    assert!(
                        what.contains("tile0/core0"),
                        "{engine:?}: the late parker must starve, got: {what}"
                    );
                    assert!(
                        !what.contains("tile0/core1"),
                        "{engine:?}: the first parker must have been served: {what}"
                    );
                }
                other => panic!("{engine:?}: expected starvation deadlock, got {other:?}"),
            }
            assert_eq!(
                sim.read_output_fixed("winner").unwrap()[0].to_bits(),
                5,
                "{engine:?}: first-parked consumer must win the word"
            );
        }
    }

    #[test]
    fn send_on_core_is_error() {
        let cfg = tiny_config(1);
        let img = image_with_core_program(&cfg, "send @0 f0 t0 4\nhalt\n");
        let mut sim =
            NodeSim::new(cfg, &img, SimMode::Functional, &NoiseModel::noiseless()).unwrap();
        assert!(matches!(sim.run(), Err(PumaError::Execution { .. })));
    }

    #[test]
    fn past_end_fault_names_the_agent_and_pc() {
        let cfg = tiny_config(1);
        let mut img = MachineImage::new(1, cfg.tile.cores_per_tile, cfg.tile.core.mvmus_per_core);
        // Jump over the halt to a trailing instruction, then fall off the
        // end of the program (targets are in range, so this passes image
        // validation but faults at run time).
        img.core_mut(TileId::new(0), CoreId::new(1)).program = Program::from_instructions(vec![
            Instruction::Jump { pc: 2 },
            Instruction::Halt,
            Instruction::Set { dest: RegRef::general(0), imm: 1 },
        ]);
        for engine in ALL_ENGINES {
            let mut sim =
                NodeSim::new(cfg, &img, SimMode::Functional, &NoiseModel::noiseless()).unwrap();
            sim.set_engine(engine);
            match sim.run() {
                Err(PumaError::Execution { what }) => {
                    assert!(
                        what.contains("node0/tile0/core1 pc 3"),
                        "{engine:?}: fault must name the agent and pc, got: {what}"
                    );
                    assert!(what.contains("past end of program"), "{what}");
                }
                other => panic!("{engine:?}: expected past-end fault, got {other:?}"),
            }
        }
    }

    #[test]
    fn segment_runaway_faults_at_the_same_instruction() {
        let cfg = tiny_config(1);
        // A runaway loop whose body is one long pure-charge segment (sets
        // around a multi-thousand-cycle MVM): the compiled engine may
        // bulk-charge the segment only while it fits under the cap, then
        // must degrade to per-instruction stepping so the fault lands on
        // the identical instruction — observable as bit-identical stats
        // at the fault on both engines.
        let img = image_with_core_program(
            &cfg,
            "set r0 1\nset r1 2\nmvm 1 0 0\nset r2 3\nset r3 4\njmp 0\nhalt\n",
        );
        let run = |engine: SimEngine| {
            let mut sim =
                NodeSim::new(cfg, &img, SimMode::Timing, &NoiseModel::noiseless()).unwrap();
            sim.set_engine(engine);
            sim.set_max_cycles(50_000);
            match sim.run() {
                Err(PumaError::Execution { what }) => {
                    assert!(what.contains("cycle cap"), "{what}");
                }
                other => panic!("{engine:?}: expected cycle-cap fault, got {other:?}"),
            }
            sim.stats().clone()
        };
        let reference = run(SimEngine::Reference);
        assert_eq!(reference, run(SimEngine::Compiled), "Compiled diverged at the cycle cap");
    }
}
