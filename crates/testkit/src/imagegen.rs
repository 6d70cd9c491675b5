//! Random small multi-tile machine images, and the engine-differential
//! check the fuzzer runs them through.
//!
//! Compiler-generated models exercise only the synchronization shapes the
//! compiler emits. [`random_image`] draws arbitrary ones from a seed:
//!
//! - producer/consumer handoffs between the cores of one tile through the
//!   attribute buffer, with one or several consumers per word range;
//! - NoC transfers (core store → control-unit send → remote receive →
//!   core load), including **shared FIFOs** that two or more sender tiles
//!   feed in the same rounds, so same-cycle arrivals race for one FIFO,
//!   and **relays** through a third tile's control unit, which waits
//!   parked between the hops (a two-hop path);
//! - direct and register-indexed loads and stores;
//! - counter-bounded loops (a core may run its rounds as a `brn` loop
//!   instead of unrolled);
//! - perturbations that make the image deadlock, fault, or run into the
//!   cycle cap, and optional tile deaths and inter-node packet faults.
//!
//! The image is also cut into contiguous node shards, so the same traffic
//! runs under [`ClusterSim`] with inter-node sends, over a link whose
//! latency is drawn from the seed ([`link_for`]). [`run_case`] runs one
//! image on one engine inside `catch_unwind` and returns everything the
//! engines must agree on; [`engines_agree`] compares the two engines'
//! [`Outcome`]s: no panic, the same `Ok`/`Err` variant, identical outputs
//! and [`RunStats`] on `Ok`, and identical blocked agents on a deadlock.
//! For the pipeline leg, [`random_stream`] draws a request stream,
//! [`serve_case`] serves it under [`PipelineSim`], and [`pipeline_agrees`]
//! checks each request against its [`run_solo`] cluster run.

use puma_core::config::NodeConfig;
use puma_core::config::{FaultPlan, TileDeath};
use puma_core::error::PumaError;
use puma_core::fixed::Fixed;
use puma_core::ids::{CoreId, TileId};
use puma_core::timing::InterconnectConfig;
use puma_isa::{asm, IoBinding, MachineImage, Program};
use puma_sim::{
    ClusterSim, NodeSim, PipelineRequest, PipelineSim, RunStats, SimEngine, SimMode, StageStats,
};
use puma_xbar::NoiseModel;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What the generator steered an image towards. Informational: the
/// differential check holds whatever the outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intent {
    /// Matched rounds of transfers; runs to completion.
    Clean,
    /// An agent waits on a word or FIFO nothing ever fills.
    Deadlock,
    /// An out-of-range address, a register-less indexed send, a negative
    /// or `u32`-overflowing index, or a receive on a missing FIFO.
    Fault,
    /// A cycle cap below the run's length, or a core that never halts.
    CycleCap,
}

/// One generated case: the fabric as one node and cut into node shards.
#[derive(Debug, Clone)]
pub struct FuzzImage {
    /// The seed the case was drawn from.
    pub seed: u64,
    /// What the generator steered towards.
    pub intent: Intent,
    /// The whole fabric as one node's image.
    pub image: MachineImage,
    /// The same fabric cut into contiguous node shards: cross-shard sends
    /// become inter-node sends (tile ids renumbered per shard).
    pub shards: Vec<MachineImage>,
    /// Host inputs, by binding name (each binding lives on one shard).
    pub inputs: Vec<(String, Vec<f32>)>,
    /// The cycle cap to run under.
    pub max_cycles: u64,
    /// A tile death, in whole-fabric tile ids, if any.
    pub tile_death: Option<(u32, u64)>,
    /// Whether inter-node packets are dropped, duplicated and delayed.
    pub packet_faults: bool,
    /// Transfer rounds per agent.
    pub rounds: usize,
}

/// xorshift64, so a case replays from its seed alone.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

/// Words per tile the generator allocates from (well inside the small
/// node's attribute buffer, so an address past it is a deliberate fault).
const MEM_WORDS: u32 = 4096;
/// First accumulator register; slot `s` uses `r{ACC + 4s}`.
const ACC: usize = 16;
/// Loop counter, bound and step registers of a looped core.
const LOOP_REGS: (usize, usize, usize) = (240, 241, 242);
/// Index register of indexed accesses.
const INDEX_REG: usize = 243;

/// One agent's program under construction: per-round body lines, plus
/// prologue and epilogue.
#[derive(Debug, Default, Clone)]
struct Agent {
    pre: Vec<String>,
    /// One entry per round in the unrolled case; the looped case repeats
    /// the body of round 0 (rounds are identical by construction).
    body: Vec<String>,
    /// Second phase of each round (consumes run after produces).
    body_late: Vec<String>,
    /// Third phase: a control unit forwards what it received. Relays only
    /// run from lower to higher tiles, so rounds cannot wait in a cycle.
    relay: Vec<String>,
    post: Vec<String>,
}

struct Gen {
    rng: Rng,
    tiles: usize,
    cores: usize,
    /// `[tile][core]` programs; the control unit is `cores`.
    agents: Vec<Vec<Agent>>,
    next_word: Vec<u32>,
    image_inputs: Vec<IoBinding>,
    image_outputs: Vec<IoBinding>,
    inputs: Vec<(String, Vec<f32>)>,
    slots: Vec<Vec<usize>>,
}

impl Gen {
    fn alloc(&mut self, tile: usize, width: u32) -> u32 {
        let a = self.next_word[tile];
        self.next_word[tile] += width;
        a
    }

    /// A core-side memory operand for `addr`: direct, or (sometimes)
    /// register-indexed with the index set just before.
    fn operand(&mut self, addr: u32, lines: &mut Vec<String>) -> String {
        if addr > 0 && self.rng.chance(30) {
            let off = 1 + self.rng.below(addr.min(64) as usize) as u32;
            lines.push(format!("set r{INDEX_REG} {off}"));
            format!("@{}+r{INDEX_REG}", addr - off)
        } else {
            format!("@{addr}")
        }
    }

    /// A fresh accumulator slot of a consumer core.
    fn slot(&mut self, tile: usize, core: usize) -> usize {
        let s = self.slots[tile][core];
        self.slots[tile][core] += 1;
        s
    }

    /// Core `p` of `tile` produces `width` words at `addr` for `count`
    /// consumers: a fresh `rand` vector scaled by a tile-specific factor
    /// (cores of different tiles share `rand` streams).
    fn produce(&mut self, tile: usize, p: usize, addr: u32, count: usize, width: u32) {
        let mut lines = Vec::new();
        lines.push(format!("rand r0 r0 {width}"));
        lines.push(format!("muli r0 r0 {} {width}", 0.125 * (tile + 1) as f32));
        lines.push(format!("add r0 r0 r200 {width}"));
        let at = self.operand(addr, &mut lines);
        lines.push(format!("store {at} r0 {count} {width}"));
        self.agents[tile][p].body.extend(lines);
    }

    /// Core `c` of `tile` consume-reads `width` words at `addr` into a
    /// fresh accumulator exported as an output.
    fn consume(&mut self, tile: usize, c: usize, addr: u32, width: u32) {
        let s = self.slot(tile, c);
        let acc = ACC + 4 * s;
        let mut lines = Vec::new();
        let at = self.operand(addr, &mut lines);
        lines.push(format!("load r4 {at} {width}"));
        lines.push(format!("add r{acc} r{acc} r4 {width}"));
        self.agents[tile][c].body_late.extend(lines);
        let out = self.alloc(tile, width);
        self.agents[tile][c].post.push(format!("store @{out} r{acc} 1 {width}"));
        self.image_outputs.push(IoBinding {
            name: format!("t{tile}c{c}s{s}"),
            tile: TileId::new(tile),
            addr: out,
            width: width as usize,
            count: 1,
        });
    }

    /// Rounds' worth of one same-tile handoff to one or more consumers.
    fn local_transfer(&mut self) {
        let tile = self.rng.below(self.tiles);
        let width = 1 + self.rng.below(4) as u32;
        let addr = self.alloc(tile, width);
        let p = self.rng.below(self.cores);
        let consumers = 1 + self.rng.below(self.cores);
        self.produce(tile, p, addr, consumers, width);
        for k in 0..consumers {
            let c = (p + 1 + k) % self.cores;
            self.consume(tile, c, addr, width);
        }
    }

    /// NoC transfers from `senders` into one FIFO of `dst`, received in
    /// sender order into separate ranges (so a swapped arrival order
    /// swaps outputs).
    fn fifo_transfer(&mut self, senders: &[usize], dst: usize, fifo: usize) {
        let width = 1 + self.rng.below(4) as u32;
        let ctl = self.cores;
        for &src in senders {
            let p = self.rng.below(self.cores);
            let addr = self.alloc(src, width);
            self.produce(src, p, addr, 1, width);
            self.agents[src][ctl].body.push(format!("send @{addr} f{fifo} t{dst} {width}"));
        }
        for _ in senders {
            let addr = self.alloc(dst, width);
            self.agents[dst][ctl].body_late.push(format!("recv @{addr} f{fifo} 1 {width}"));
            let c = self.rng.below(self.cores);
            self.consume(dst, c, addr, width);
        }
    }
}

impl Gen {
    /// A NoC transfer from `src` relayed by `mid`'s control unit to
    /// `dst > mid`.
    fn relay_transfer(&mut self, src: usize, mid: usize, dst: usize) {
        let width = 1 + self.rng.below(4) as u32;
        let ctl = self.cores;
        let (f1, f2) = (8 + self.rng.below(4), 12 + self.rng.below(3));
        let p = self.rng.below(self.cores);
        let a = self.alloc(src, width);
        self.produce(src, p, a, 1, width);
        self.agents[src][ctl].body.push(format!("send @{a} f{f1} t{mid} {width}"));
        let b = self.alloc(mid, width);
        self.agents[mid][ctl].body_late.push(format!("recv @{b} f{f1} 1 {width}"));
        self.agents[mid][ctl].relay.push(format!("send @{b} f{f2} t{dst} {width}"));
        let c = self.alloc(dst, width);
        self.agents[dst][ctl].body_late.push(format!("recv @{c} f{f2} 1 {width}"));
        let consumer = self.rng.below(self.cores);
        self.consume(dst, consumer, c, width);
    }
}

/// Draws one case from `seed` (see the module docs).
pub fn random_image(seed: u64) -> FuzzImage {
    let mut rng = Rng::new(seed);
    let tiles = [2, 3, 4, 6][rng.below(4)];
    let cores = 1 + rng.below(3);
    let rounds = 1 + rng.below(4);
    let intent = match rng.below(10) {
        0..=5 => Intent::Clean,
        6 => Intent::Deadlock,
        7 => Intent::Fault,
        _ => Intent::CycleCap,
    };
    let mut g = Gen {
        rng,
        tiles,
        cores,
        agents: vec![vec![Agent::default(); cores + 1]; tiles],
        next_word: vec![0; tiles],
        image_inputs: Vec::new(),
        image_outputs: Vec::new(),
        inputs: Vec::new(),
        slots: vec![vec![0; cores]; tiles],
    };
    // Every core starts by consuming a host input, so runs depend on it.
    for t in 0..tiles {
        for c in 0..cores {
            let addr = g.alloc(t, 4);
            let name = format!("in{t}c{c}");
            g.image_inputs.push(IoBinding {
                name: name.clone(),
                tile: TileId::new(t),
                addr,
                width: 4,
                count: 1,
            });
            let values =
                (0..4).map(|i| (g.rng.below(200) as f32 - 100.0) / 256.0 + i as f32 * 0.01);
            g.inputs.push((name, values.collect()));
            g.agents[t][c].pre.push(format!("load r200 @{addr} 4"));
        }
    }
    for _ in 0..1 + g.rng.below(5) {
        match g.rng.below(4) {
            0 => g.local_transfer(),
            3 => {
                let mid = g.rng.below(tiles - 1);
                let dst = mid + 1 + g.rng.below(tiles - mid - 1);
                let src = g.rng.below(tiles);
                g.relay_transfer(src, mid, dst);
            }
            1 => {
                let src = g.rng.below(tiles);
                let dst = g.rng.below(tiles);
                let fifo = g.rng.below(4);
                g.fifo_transfer(&[src], dst, fifo);
            }
            _ => {
                // Two or more sender tiles into one shared FIFO.
                let dst = g.rng.below(tiles);
                let n = 2 + g.rng.below(tiles.min(4) - 1);
                let mut senders: Vec<usize> = (0..tiles).collect();
                for i in 0..senders.len() {
                    let j = i + g.rng.below(senders.len() - i);
                    senders.swap(i, j);
                }
                senders.truncate(n);
                let fifo = 4 + g.rng.below(4);
                g.fifo_transfer(&senders, dst, fifo);
            }
        }
    }
    let mut max_cycles = 2_000_000;
    match intent {
        Intent::Clean => {}
        Intent::Deadlock => {
            // Wait on a word nothing produces, or a FIFO nothing feeds.
            let t = g.rng.below(tiles);
            let addr = g.alloc(t, 1);
            if g.rng.chance(50) {
                let c = g.rng.below(cores);
                g.agents[t][c].post.push(format!("load r4 @{addr} 1"));
            } else {
                g.agents[t][cores].post.push(format!("recv @{addr} f15 1 1"));
            }
        }
        Intent::Fault => {
            let t = g.rng.below(tiles);
            let c = g.rng.below(cores);
            let store = g.rng.chance(50);
            let access = |at: String| {
                if store {
                    format!("store {at} r4 1 1")
                } else {
                    format!("load r4 {at} 1")
                }
            };
            match g.rng.below(5) {
                0 => g.agents[t][c].post.push(format!("load r4 @{} 4", MEM_WORDS * 16)),
                1 => g.agents[t][cores].post.push(format!("send @0+r{INDEX_REG} f3 t0 1")),
                2 => {
                    // A negative index register.
                    let k = 1 + g.rng.below(100);
                    let at = access(format!("@4+r{INDEX_REG}"));
                    g.agents[t][c].post.push(format!("set r{INDEX_REG} -{k}\n{at}"));
                }
                3 => {
                    // An index whose sum with the base overflows `u32`.
                    let k = 1 + g.rng.below(100);
                    let at = access(format!("@{}+r{INDEX_REG}", u32::MAX));
                    g.agents[t][c].post.push(format!("set r{INDEX_REG} {k}\n{at}"));
                }
                _ => {
                    // A FIFO id past the tile's receive FIFOs.
                    let (addr, fifo) = (g.alloc(t, 1), 200 + g.rng.below(56));
                    g.agents[t][cores].post.push(format!("recv @{addr} f{fifo} 1 1"));
                }
            }
        }
        Intent::CycleCap => {
            if g.rng.chance(50) {
                max_cycles = 20 + g.rng.below(400) as u64;
            } else {
                let t = g.rng.below(tiles);
                let c = g.rng.below(cores);
                g.agents[t][c].post.push("iadd r244 r244 r244\njmp -1".to_string());
                max_cycles = 5_000 + g.rng.below(5_000) as u64;
            }
        }
    }
    let tile_death = g.rng.chance(15).then(|| (g.rng.below(tiles) as u32, g.rng.below(600) as u64));
    let packet_faults = g.rng.chance(25);
    let looped: Vec<Vec<bool>> =
        (0..tiles).map(|_| (0..cores).map(|_| rounds > 1 && g.rng.chance(40)).collect()).collect();
    let nodes = if tiles % 2 == 0 { 2 } else { 3 };
    let per_node = tiles / nodes;
    let program = |t: usize, a: usize, whole: bool| -> String {
        let agent = &g.agents[t][a];
        let mut src = String::new();
        let mut lines: Vec<String> = agent.pre.clone();
        let round: Vec<String> =
            agent.body.iter().chain(&agent.body_late).chain(&agent.relay).cloned().collect();
        if a < cores && looped[t][a] {
            let (i, n, one) = LOOP_REGS;
            lines.push(format!("set r{i} 0"));
            lines.push(format!("set r{n} {rounds}"));
            lines.push(format!("set r{one} 1"));
            let top = lines.iter().map(|l| l.lines().count()).sum::<usize>();
            lines.extend(round);
            lines.push(format!("iadd r{i} r{i} r{one}"));
            lines.push(format!("brn lt r{i} r{n} {top}"));
        } else {
            for _ in 0..rounds {
                lines.extend(round.iter().cloned());
            }
        }
        lines.extend(agent.post.iter().cloned());
        lines.push("halt".to_string());
        // Resolve relative `jmp -1` (a self-loop on the line above) and,
        // in a shard, rewrite sends to node-local tile ids.
        for (pc, line) in lines.iter().flat_map(|l| l.lines()).enumerate() {
            let line = if line == "jmp -1" { format!("jmp {}", pc - 1) } else { line.to_string() };
            let line = match (whole, line.strip_prefix("send ")) {
                (false, Some(rest)) => {
                    let parts: Vec<&str> = rest.split(' ').collect();
                    let dst: usize = parts[2][1..].parse().expect("generated target");
                    format!(
                        "send {} {} t{} {} n{}",
                        parts[0],
                        parts[1],
                        dst % per_node,
                        parts[3],
                        dst / per_node
                    )
                }
                _ => line,
            };
            src.push_str(&line);
            src.push('\n');
        }
        src
    };
    let assemble = |src: &str| {
        Program::from_instructions(asm::assemble(src).expect("generated asm assembles"))
    };
    let mut image = MachineImage::new(tiles, cores, 2);
    let mut shards: Vec<MachineImage> =
        (0..nodes).map(|_| MachineImage::new(per_node, cores, 2)).collect();
    for t in 0..tiles {
        let (node, local) = (t / per_node, t % per_node);
        for a in 0..=cores {
            let whole = assemble(&program(t, a, true));
            let shard = assemble(&program(t, a, false));
            if a == cores {
                image.tiles[t].program = whole;
                shards[node].tiles[local].program = shard;
            } else {
                image.core_mut(TileId::new(t), CoreId::new(a)).program = whole;
                shards[node].core_mut(TileId::new(local), CoreId::new(a)).program = shard;
            }
        }
    }
    image.inputs = g.image_inputs.clone();
    image.outputs = g.image_outputs.clone();
    let relocate =
        |b: &IoBinding| IoBinding { tile: TileId::new(b.tile.index() % per_node), ..b.clone() };
    for b in &g.image_inputs {
        shards[b.tile.index() / per_node].inputs.push(relocate(b));
    }
    for b in &g.image_outputs {
        shards[b.tile.index() / per_node].outputs.push(relocate(b));
    }
    FuzzImage {
        seed,
        intent,
        image,
        shards,
        inputs: g.inputs,
        max_cycles,
        tile_death,
        packet_faults,
        rounds,
    }
}

/// How a case is run: the whole fabric on one node, or its shards under
/// a [`ClusterSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One [`NodeSim`].
    Standalone,
    /// The shards, one node each.
    Cluster,
}

/// Everything the engines must agree on after one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The run's result: the error, or `Ok`.
    pub result: std::result::Result<(), PumaError>,
    /// Every output binding's words (empty unless the run succeeded).
    pub outputs: Vec<(String, Vec<Fixed>)>,
    /// The run statistics (only compared on success).
    pub stats: RunStats,
    /// Every node's blocked agents.
    pub blocked: Vec<Vec<String>>,
}

/// Runs `case` on `engine` in `mode` and `topology`. `Err` carries the
/// panic message if the simulator panicked.
///
/// # Errors
///
/// Returns the panic message when building or running panics.
pub fn run_case(
    case: &FuzzImage,
    engine: SimEngine,
    mode: SimMode,
    topology: Topology,
) -> std::result::Result<Outcome, String> {
    catch_unwind(AssertUnwindSafe(|| {
        run_with(case, &case.inputs, engine, mode, topology, link_for(case))
    }))
    .map_err(panic_message)
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".to_string())
}

/// The link a case's shards run over under [`run_case`]: the default
/// one, a short one (1–24 cycles) or a middling one (25–324 cycles), a
/// third of the seeds each, so the co-simulation's horizon terms bind
/// within these small images.
pub fn link_for(case: &FuzzImage) -> InterconnectConfig {
    let mut rng = Rng::new(case.seed.rotate_left(29));
    let mut link = InterconnectConfig::default();
    link.latency_cycles = match rng.below(3) {
        0 => link.latency_cycles,
        1 => 1 + rng.below(24) as u64,
        _ => 25 + rng.below(300) as u64,
    };
    link
}

/// The node configuration `case` runs under in `topology`: the small
/// test node with the case's tile death (renumbered to its shard) and
/// packet faults.
fn case_config(case: &FuzzImage, topology: Topology) -> NodeConfig {
    // 16×16 crossbars, up to 4 cores per tile and 16 tiles.
    let mut cfg = crate::harness::small_node_config(16);
    let per_node = case.image.tiles.len() / case.shards.len();
    let mut faults = FaultPlan::none();
    if let Some((tile, at_cycle)) = case.tile_death {
        faults.tile_death = Some(match topology {
            Topology::Standalone => TileDeath { node: 0, tile, at_cycle },
            Topology::Cluster => TileDeath {
                node: (tile as usize / per_node) as u16,
                tile: tile % per_node as u32,
                at_cycle,
            },
        });
    }
    if case.packet_faults {
        faults.packet_loss_rate = 0.1;
        faults.packet_duplicate_rate = 0.3;
        faults.packet_delay_rate = 0.3;
        faults.packet_delay_cycles = 7;
        faults.seed = case.seed;
    }
    cfg.faults = faults;
    cfg
}

/// One run of `case` with the host writes `inputs`, its shards joined
/// by `link`.
fn run_with(
    case: &FuzzImage,
    inputs: &[(String, Vec<f32>)],
    engine: SimEngine,
    mode: SimMode,
    topology: Topology,
    link: InterconnectConfig,
) -> Outcome {
    let noise = NoiseModel::noiseless();
    let cfg = case_config(case, topology);
    let failed = |e: PumaError| Outcome {
        result: Err(e),
        outputs: Vec::new(),
        stats: RunStats::new(),
        blocked: Vec::new(),
    };
    match topology {
        Topology::Standalone => {
            let mut sim = match NodeSim::new(cfg, &case.image, mode, &noise) {
                Ok(sim) => sim,
                Err(e) => return failed(e),
            };
            sim.set_engine(engine);
            sim.set_max_cycles(case.max_cycles);
            for (name, values) in inputs {
                sim.write_input(name, values).expect("generated inputs bind");
            }
            let result = sim.run().map(|_| ());
            let outputs = match result {
                Ok(()) => sim
                    .output_names()
                    .iter()
                    .map(|n| (n.to_string(), sim.read_output_fixed(n).expect("bound")))
                    .collect(),
                Err(_) => Vec::new(),
            };
            Outcome {
                result,
                outputs,
                stats: sim.stats().clone(),
                blocked: vec![sim.blocked_summary()],
            }
        }
        Topology::Cluster => {
            let mut sim = match ClusterSim::with_interconnect(cfg, &case.shards, mode, &noise, link)
            {
                Ok(sim) => sim,
                Err(e) => return failed(e),
            };
            sim.set_engine(engine);
            sim.set_max_cycles(case.max_cycles);
            for (name, values) in inputs {
                sim.write_input(name, values).expect("generated inputs bind");
            }
            let result = sim.run().map(|_| ());
            let outputs = match result {
                Ok(()) => sim
                    .output_names()
                    .iter()
                    .map(|n| (n.to_string(), sim.read_output_fixed(n).expect("bound")))
                    .collect(),
                Err(_) => Vec::new(),
            };
            let blocked = sim.nodes().iter().map(NodeSim::blocked_summary).collect();
            Outcome { result, outputs, stats: sim.stats().clone(), blocked }
        }
    }
}

/// Compares two engines' outcomes on one case: the same `Ok`/`Err`
/// variant; on `Ok`, identical outputs and [`RunStats`]; on a deadlock
/// or tile-death stall, the identical error and blocked agents.
///
/// # Errors
///
/// Describes the first disagreement.
pub fn engines_agree(reference: &Outcome, other: &Outcome) -> std::result::Result<(), String> {
    match (&reference.result, &other.result) {
        (Ok(()), Ok(())) => {
            if reference.outputs != other.outputs {
                return Err(format!(
                    "outputs differ:\n  reference {:?}\n  other     {:?}",
                    reference.outputs, other.outputs
                ));
            }
            if reference.stats != other.stats {
                return Err(format!(
                    "RunStats differ:\n  reference {:?}\n  other     {:?}",
                    reference.stats, other.stats
                ));
            }
            Ok(())
        }
        (Err(a), Err(b)) if std::mem::discriminant(a) == std::mem::discriminant(b) => {
            let stalled = matches!(a, PumaError::Deadlock { .. } | PumaError::FaultedTile { .. });
            if stalled && (a != b || reference.blocked != other.blocked) {
                return Err(format!(
                    "stalls differ:\n  reference {a}\n  other     {b}\n  blocked {:?} vs {:?}",
                    reference.blocked, other.blocked
                ));
            }
            Ok(())
        }
        (a, b) => Err(format!("results differ: reference {a:?}, other {b:?}")),
    }
}

/// A request stream to serve one case's shards as under [`PipelineSim`],
/// drawn from the case's seed: 2–4 requests, the first arriving at cycle
/// 0 with the case's own inputs, each later one with fresh input values.
#[derive(Debug, Clone)]
pub struct Stream {
    /// The requests, in arrival order.
    pub requests: Vec<PipelineRequest>,
    /// The entry queue's depth (`None` = unbounded).
    pub queue_depth: Option<usize>,
    /// The per-request deadline watchdog, if any.
    pub deadline: Option<u64>,
}

/// Draws the request stream for `case` (see [`Stream`]).
pub fn random_stream(case: &FuzzImage) -> Stream {
    let mut rng = Rng::new(!case.seed);
    let mut requests = Vec::new();
    let mut arrival = 0;
    for i in 0..2 + rng.below(3) {
        let writes = if i == 0 {
            case.inputs.clone()
        } else {
            let mut value = || (rng.below(200) as f32 - 100.0) / 256.0;
            case.inputs
                .iter()
                .map(|(name, v)| (name.clone(), v.iter().map(|_| value()).collect()))
                .collect()
        };
        requests.push(PipelineRequest { arrival, writes });
        arrival += match rng.below(3) {
            0 => 0,
            1 => rng.below(50) as u64,
            _ => rng.below(1500) as u64,
        };
    }
    let queue_depth = [None, Some(0), Some(1), Some(2)][rng.below(4)];
    let deadline = rng.chance(50).then(|| 50 + rng.below(3000) as u64);
    Stream { requests, queue_depth, deadline }
}

/// The solo [`ClusterSim`] run of one request of a stream: the case's
/// shards, joined by `link`, with that request's writes.
///
/// # Errors
///
/// Returns the panic message when building or running panics.
pub fn run_solo(
    case: &FuzzImage,
    request: &PipelineRequest,
    engine: SimEngine,
    mode: SimMode,
    link: InterconnectConfig,
) -> std::result::Result<Outcome, String> {
    catch_unwind(AssertUnwindSafe(|| {
        run_with(case, &request.writes, engine, mode, Topology::Cluster, link)
    }))
    .map_err(panic_message)
}

/// One request's part of a pipeline serve.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    /// Whether the entry queue admitted it.
    pub admitted: bool,
    /// Its outputs, sorted by binding name.
    pub outputs: Vec<(String, Vec<f32>)>,
    /// First segment start.
    pub start: u64,
    /// Last retirement (or the abort cycle).
    pub finish: u64,
    /// Its merged segment statistics.
    pub stats: RunStats,
    /// The deadline watchdog's verdict, if it aborted the request.
    pub error: Option<PumaError>,
}

/// Everything two engines' serves of one stream must agree on.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Per request, in submission order.
    pub requests: Vec<Served>,
    /// Per-stage occupancy.
    pub stages: Vec<StageStats>,
    /// Most completed requests in service at once.
    pub max_concurrent: usize,
    /// Requests shed at admission.
    pub shed: usize,
    /// Last finish.
    pub makespan: u64,
}

/// Serves `stream` through a [`PipelineSim`] over the case's shards,
/// joined by `link`, on `engine` in `mode`, under the case's faults and
/// cycle cap.
///
/// # Errors
///
/// Returns the panic message when building or serving panics.
pub fn serve_case(
    case: &FuzzImage,
    stream: &Stream,
    engine: SimEngine,
    mode: SimMode,
    link: InterconnectConfig,
) -> std::result::Result<std::result::Result<ServeReport, PumaError>, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let (cfg, noise) = (case_config(case, Topology::Cluster), NoiseModel::noiseless());
        let mut sim = PipelineSim::with_interconnect(cfg, &case.shards, mode, &noise, link)?;
        sim.set_engine(engine);
        sim.set_max_cycles(case.max_cycles);
        let report =
            sim.serve_with_deadline(&[], &stream.requests, stream.queue_depth, stream.deadline)?;
        let requests = report
            .results
            .into_iter()
            .map(|r| {
                let mut outputs: Vec<_> = r.outputs.into_iter().collect();
                outputs.sort_by(|a, b| a.0.cmp(&b.0));
                Served {
                    admitted: r.admitted,
                    outputs,
                    start: r.start,
                    finish: r.finish,
                    stats: r.stats,
                    error: r.error,
                }
            })
            .collect();
        Ok(ServeReport {
            requests,
            stages: report.stages,
            max_concurrent: report.max_concurrent,
            shed: report.shed,
            makespan: report.makespan,
        })
    }))
    .map_err(panic_message)
}

/// Checks one engine's serve of `stream` against the solo runs of its
/// requests (`solos[k]` is request `k` run alone from cycle 0):
///
/// - request 0 arrives at cycle 0 and shares every cycle with its solo
///   run, so it must equal it in full: outputs, [`RunStats`], the error
///   kind, and the blocked agents of a stall. A deadline shorter than
///   the solo run must abort it instead;
/// - every later completed request must equal its solo run in outputs,
///   instruction counts and energy. It runs at later global cycles, so
///   this holds only while nothing is keyed by absolute time: no tile
///   death, no packet faults, and no cycle cap short enough to matter.
///   Its segments also start staggered, so outputs (and any failure)
///   are compared only on images without timing races;
/// - a serve that fails must be explained by a failing solo run.
///
/// Returns how many later requests had their outputs compared.
///
/// # Errors
///
/// Describes the first disagreement.
pub fn pipeline_agrees(
    case: &FuzzImage,
    stream: &Stream,
    solos: &[Outcome],
    served: &std::result::Result<ServeReport, PumaError>,
) -> std::result::Result<usize, String> {
    let solo = &solos[0];
    let shift_invariant =
        case.tile_death.is_none() && !case.packet_faults && case.intent != Intent::CycleCap;
    // Staggered segment starts change the relative timing of a request's
    // agents, so which packet or which round's word an agent takes is only
    // fixed when each FIFO is fed by one send and each word produced once.
    let race_free = shift_invariant && case.rounds == 1 && {
        let mut fed = std::collections::HashSet::new();
        case.image.tiles.iter().flat_map(|t| &t.program.instructions).all(|i| match i {
            puma_isa::Instruction::Send { target, fifo, .. } => fed.insert((*target, *fifo)),
            _ => true,
        })
    };
    let report = match (served, &solo.result) {
        (Err(e), Err(s)) => {
            // Request 0 stalls as it did alone; a later request may fail
            // otherwise when it races or cycles are keyed by absolute time.
            if race_free && std::mem::discriminant(e) != std::mem::discriminant(s) {
                return Err(format!("serve failed with {e}, solo run with {s}"));
            }
            return if stalled(s) && stalled(e) {
                names_agents(e, "request0/", &solo.blocked).map(|()| 0)
            } else {
                Ok(0)
            };
        }
        (Err(e), Ok(())) => {
            // A later request may fail where request 0 did not.
            return if !race_free || solos.iter().any(|o| o.result.is_err()) {
                Ok(0)
            } else {
                Err(format!("serve failed with {e}, though every solo run completed"))
            };
        }
        (Ok(report), _) => report,
    };
    let first = &report.requests[0];
    let cut = stream.deadline.is_some_and(|d| solo.stats.cycles > d);
    match (&solo.result, &first.error) {
        (Ok(()), None) => {
            if first.outputs != sorted_f32(&solo.outputs) {
                return Err(format!(
                    "request 0 outputs differ from its solo run:\n  solo     {:?}\n  pipeline {:?}",
                    solo.outputs, first.outputs
                ));
            }
            if first.stats != solo.stats {
                return Err(format!(
                    "request 0 RunStats differ from its solo run:\n  solo     {:?}\n  pipeline {:?}",
                    solo.stats, first.stats
                ));
            }
        }
        (_, Some(e)) if cut => {
            if !matches!(e, PumaError::DeadlineExceeded { .. } | PumaError::FaultedTile { .. }) {
                return Err(format!("request 0 cut by its deadline ended as {e}"));
            }
        }
        (Err(s), Some(e)) if stalled(s) => {
            let same_kind = matches!(
                (s, e),
                (PumaError::Deadlock { .. }, PumaError::DeadlineExceeded { .. })
                    | (PumaError::FaultedTile { .. }, PumaError::FaultedTile { .. })
            );
            if !same_kind {
                return Err(format!("request 0 ended as {e}, its solo run as {s}"));
            }
            names_agents(e, "", &solo.blocked)?;
        }
        (s, e) => {
            return Err(format!(
                "request 0 ended as {e:?} (deadline cut: {cut}), its solo run as {s:?}"
            ))
        }
    }
    if !shift_invariant {
        return Ok(0);
    }
    let mut compared = 0;
    for (k, (served, solo)) in report.requests.iter().zip(solos).enumerate().skip(1) {
        if !served.admitted || served.error.is_some() {
            continue;
        }
        compared += usize::from(race_free);
        let same = match &solo.result {
            Ok(()) => {
                (!race_free || served.outputs == sorted_f32(&solo.outputs))
                    && served.stats.dynamic_instructions == solo.stats.dynamic_instructions
                    && served.stats.energy == solo.stats.energy
            }
            Err(_) => !race_free,
        };
        if !same {
            return Err(format!(
                "request {k} differs from its solo run:\n  solo     {:?} {:?}\n  pipeline {:?} {:?}",
                solo.outputs, solo.stats, served.outputs, served.stats
            ));
        }
    }
    Ok(compared)
}

fn stalled(e: &PumaError) -> bool {
    matches!(e, PumaError::Deadlock { .. } | PumaError::FaultedTile { .. })
}

fn sorted_f32(outputs: &[(String, Vec<Fixed>)]) -> Vec<(String, Vec<f32>)> {
    let mut out: Vec<_> =
        outputs.iter().map(|(n, v)| (n.clone(), v.iter().map(|w| w.to_f32()).collect())).collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Checks that a pipeline stall report lists exactly the solo run's
/// blocked agents, as `node{j}/{tag}{agent}` entries.
fn names_agents(
    e: &PumaError,
    tag: &str,
    blocked: &[Vec<String>],
) -> std::result::Result<(), String> {
    let what = match e {
        PumaError::Deadlock { what, .. }
        | PumaError::FaultedTile { what, .. }
        | PumaError::DeadlineExceeded { what, .. } => what,
        other => return Err(format!("not a stall: {other}")),
    };
    let mut named: Vec<&str> = what
        .split_once(": ")
        .map_or("", |(_, list)| list)
        .split(", ")
        .filter(|entry| entry.contains(" waiting on ") && entry.contains(&format!("/{tag}")))
        .collect();
    let mut want: Vec<String> = blocked
        .iter()
        .enumerate()
        .flat_map(|(j, agents)| agents.iter().map(move |a| format!("node{j}/{tag}{a}")))
        .collect();
    named.sort_unstable();
    want.sort_unstable();
    if named != want {
        return Err(format!("stall names {named:?}, the solo run blocked {want:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_intent_and_shape_is_drawn() {
        let cases: Vec<FuzzImage> = (0..200).map(random_image).collect();
        for intent in [Intent::Clean, Intent::Deadlock, Intent::Fault, Intent::CycleCap] {
            assert!(cases.iter().any(|c| c.intent == intent), "{intent:?} never drawn");
        }
        let has = |pred: &dyn Fn(&puma_isa::Instruction) -> bool| {
            cases.iter().any(|c| {
                c.image.tiles.iter().any(|t| {
                    t.program
                        .instructions
                        .iter()
                        .chain(t.cores.iter().flat_map(|core| core.program.instructions.iter()))
                        .any(pred)
                })
            })
        };
        use puma_isa::Instruction as I;
        assert!(has(&|i| matches!(i, I::Load { addr, .. } if addr.index.is_some())));
        assert!(has(&|i| matches!(i, I::Store { addr, .. } if addr.index.is_some())));
        assert!(has(&|i| matches!(i, I::Branch { .. })));
        assert!(has(&|i| matches!(i, I::Send { node, .. } if *node == 0)));
        // The fault draws that reach the typed synchronizing micro-ops'
        // run-time checks: a negative index register, an indexed address
        // overflowing `u32`, and a receive on a FIFO id out of range.
        assert!(has(&|i| matches!(i, I::Set { dest, imm }
            if usize::from(dest.index) == INDEX_REG && *imm < 0)));
        assert!(has(&|i| matches!(i, I::Load { addr, .. } | I::Store { addr, .. }
            if addr.base == u32::MAX && addr.index.is_some())));
        let fifos = crate::harness::small_node_config(16).tile.receive_fifos;
        assert!(has(&|i| matches!(i, I::Receive { fifo, .. } if usize::from(*fifo) >= fifos)));

        assert!(cases.iter().any(|c| c.shards.iter().any(|s| s.tiles.iter().any(|t| t
            .program
            .instructions
            .iter()
            .any(|i| matches!(i, I::Send { node, .. } if *node > 0))))));
        // Some FIFO is fed by two or more sender tiles.
        assert!(cases.iter().any(|c| {
            let mut feeders =
                std::collections::HashMap::<(u16, u8), std::collections::HashSet<usize>>::new();
            for (src, t) in c.image.tiles.iter().enumerate() {
                for i in &t.program.instructions {
                    if let I::Send { target, fifo, .. } = i {
                        feeders.entry((*target, *fifo)).or_default().insert(src);
                    }
                }
            }
            feeders.values().any(|s| s.len() >= 2)
        }));
    }
}
