//! ClusterSim: N [`NodeSim`]s joined by a chip-to-chip interconnect
//! (§3.1's node scale-out: a model too large for one node's crossbars is
//! sharded across nodes), and the co-simulation core that both
//! [`ClusterSim::run`] and [`crate::PipelineSim`] drive.
//!
//! # The co-simulation rule
//!
//! All nodes share one global clock. Each step does the globally earliest
//! work among the *active* nodes: every node in a cluster run, the stages
//! holding a request in a pipeline serve.
//!
//! - **Tie order.** A delivery goes before a node step at the same cycle
//!   (and before the node's agent events), the lower node index first,
//!   and of two packets landing together the earlier send.
//! - **Horizon.** Packets take at least latency + 1 cycles, so doing the
//!   earliest work first is exact. The compiled engine may run a node
//!   ahead, but runs its synchronization instructions and later events
//!   only below its *external horizon*: the earliest of the next
//!   in-flight arrival, every other active node's next event plus the
//!   link latency, its own next event plus a round trip, and the caller's
//!   floor (a pipeline's scheduled starts plus the latency). A pending
//!   arrival needs no term: a packet reaches a stage only while it holds
//!   the sender's request (it is held until then), no stage holds a
//!   request before its arrival is processed, and from then on the
//!   request's scheduled starts bound it. The caller's *stop* (a
//!   pipeline watchdog's next abort) also ends straight-line runs.
//! - **Held packets.** Each packet a step sends is routed through the
//!   caller, which tags it with its request and may hold it: a pipeline
//!   parks a packet for a stage still on an earlier request, and injects
//!   it when that stage starts the request.
//! - **Diagnosis.** A stall names every blocked agent, labelled as the
//!   caller asks. A tile death fired on a node the caller names makes it
//!   a [`PumaError::FaultedTile`]; otherwise it is the caller's verdict,
//!   [`PumaError::Deadlock`] or a pipeline's
//!   [`PumaError::DeadlineExceeded`]. [`NodeSim::run`] applies the same
//!   tile-death-first rule (`stall_verdict`).

use crate::fifo::Packet;
use crate::machine::{NodeSim, OutboundPacket, PacketOrigin, ResidentModel, SimEngine, SimMode};
use crate::stats::RunStats;
use puma_core::config::NodeConfig;
use puma_core::error::{PumaError, Result};
use puma_core::fixed::Fixed;
use puma_core::timing::InterconnectConfig;
use puma_isa::MachineImage;
use puma_xbar::NoiseModel;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An inter-node packet in flight, tagged with the request it belongs to
/// (a pipeline's admitted-order position; 0 in a cluster run).
#[derive(Debug)]
pub(crate) struct Flight {
    pub(crate) arrive_at: u64,
    /// Global send order, the tie-break on arrival time.
    seq: u64,
    pub(crate) dest_node: usize,
    dest_tile: u16,
    fifo: u8,
    packet: Packet,
    origin: PacketOrigin,
    pub(crate) req: usize,
}

impl Flight {
    /// Injects the packet into its destination `node` at cycle `at`.
    pub(crate) fn deliver(self, node: &mut NodeSim, at: u64) -> Result<()> {
        node.deliver_external(self.dest_tile, self.fifo, self.packet, at, self.origin)
    }
}

impl PartialEq for Flight {
    fn eq(&self, other: &Self) -> bool {
        (self.arrive_at, self.seq) == (other.arrive_at, other.seq)
    }
}
impl Eq for Flight {}
impl PartialOrd for Flight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Flight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.arrive_at, self.seq).cmp(&(other.arrive_at, other.seq))
    }
}

/// The co-simulation core's next work ([`ClusterSim::next_work`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Work {
    /// Deliver the earliest in-flight packet.
    Deliver,
    /// Step this node.
    Step(usize),
}

/// The tile-death-first stall rule: the first fired tile death among
/// `deaths` (node index, [`NodeSim::fired_tile_death`]) makes the stall a
/// [`PumaError::FaultedTile`] naming the dead tile; otherwise it is
/// `otherwise(what)`.
pub(crate) fn stall_verdict(
    deaths: impl IntoIterator<Item = (usize, Option<(u32, u64)>)>,
    what: String,
    otherwise: impl FnOnce(String) -> PumaError,
) -> PumaError {
    match deaths.into_iter().find_map(|(node, death)| death.map(|d| (node, d))) {
        Some((node, (tile, cycle))) => {
            PumaError::FaultedTile { node, tile: tile as usize, cycle, what }
        }
        None => otherwise(what),
    }
}

/// A cluster of node simulators executing one sharded model.
///
/// Per-name host I/O works exactly as on [`NodeSim`]: every binding name
/// is unique across the cluster, and [`ClusterSim::write_input`] /
/// [`ClusterSim::read_output`] route to the node that owns it.
///
/// # Examples
///
/// See `puma_compiler::shard` for producing per-node images and the
/// `puma-testkit` sharded differential suite for end-to-end usage.
#[derive(Debug)]
pub struct ClusterSim {
    pub(crate) nodes: Vec<NodeSim>,
    interconnect: InterconnectConfig,
    pub(crate) in_flight: BinaryHeap<Reverse<Flight>>,
    flight_seq: u64,
    stats: RunStats,
}

impl ClusterSim {
    /// Builds one simulator per image, all sharing `cfg`, joined by the
    /// default interconnect.
    ///
    /// # Errors
    ///
    /// Propagates per-node construction failures; rejects an empty image
    /// list and clusters larger than the 256-node `send` addressing range.
    pub fn new(
        cfg: NodeConfig,
        images: &[MachineImage],
        mode: SimMode,
        noise: &NoiseModel,
    ) -> Result<Self> {
        Self::with_interconnect(cfg, images, mode, noise, InterconnectConfig::default())
    }

    /// [`ClusterSim::new`] with an explicit interconnect model (same
    /// errors).
    pub fn with_interconnect(
        cfg: NodeConfig,
        images: &[MachineImage],
        mode: SimMode,
        noise: &NoiseModel,
        interconnect: InterconnectConfig,
    ) -> Result<Self> {
        if images.is_empty() {
            return Err(PumaError::InvalidConfig {
                what: "a cluster needs at least one node image".to_string(),
            });
        }
        if images.len() > u8::MAX as usize + 1 {
            return Err(PumaError::InvalidConfig {
                what: format!("{} nodes exceed the 256-node send addressing range", images.len()),
            });
        }
        let mut nodes = Vec::with_capacity(images.len());
        for (i, image) in images.iter().enumerate() {
            let mut sim = NodeSim::new(cfg, image, mode, noise)?;
            sim.join_cluster(i as u16, images.len() as u16, interconnect);
            nodes.push(sim);
        }
        Ok(Self::from_nodes(nodes, interconnect))
    }

    fn from_nodes(nodes: Vec<NodeSim>, interconnect: InterconnectConfig) -> Self {
        ClusterSim {
            nodes,
            interconnect,
            in_flight: BinaryHeap::new(),
            flight_seq: 0,
            stats: RunStats::new(),
        }
    }

    /// Number of nodes in the cluster.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The per-node simulators (e.g. for per-node statistics).
    pub fn nodes(&self) -> &[NodeSim] {
        &self.nodes
    }

    /// Selects the execution engine on every node.
    pub fn set_engine(&mut self, engine: SimEngine) {
        for node in &mut self.nodes {
            node.set_engine(engine);
        }
    }

    /// Clones the cluster into a fresh worker replica: every node
    /// [`NodeSim::fork_replica`]-forked, nothing in flight.
    #[must_use]
    pub fn fork_replica(&self) -> ClusterSim {
        Self::from_nodes(self.nodes.iter().map(NodeSim::fork_replica).collect(), self.interconnect)
    }

    /// [`NodeSim::state_bytes`], summed over nodes.
    pub fn state_bytes(&self) -> usize {
        self.nodes.iter().map(NodeSim::state_bytes).sum()
    }

    /// [`NodeSim::queue_events`], summed over nodes.
    pub fn queue_events(&self) -> u64 {
        self.nodes.iter().map(NodeSim::queue_events).sum()
    }

    /// Overrides the runaway-simulation safety cap on every node.
    pub fn set_max_cycles(&mut self, max_cycles: u64) {
        for node in &mut self.nodes {
            node.set_max_cycles(max_cycles);
        }
    }

    /// Aggregate statistics of the last [`ClusterSim::run`]: counters and
    /// energy summed over nodes, `cycles` the global completion time.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Resets every node and drops in-flight packets so the cluster can
    /// run again (crossbar weights persist, as on [`NodeSim::reset`]).
    pub fn reset(&mut self) {
        for node in &mut self.nodes {
            node.reset();
        }
        self.in_flight.clear();
        self.flight_seq = 0;
        self.stats = RunStats::new();
    }

    /// [`NodeSim::save_snapshot`] on every node: take it right after
    /// [`ClusterSim::reset`] and the writes every run starts with.
    pub fn save_snapshot(&mut self, key: &str) {
        for node in &mut self.nodes {
            node.save_snapshot(key);
        }
    }

    /// [`NodeSim::restore_snapshot`] on every node of a cluster just
    /// reset; `false`, changing nothing, when none is saved under `key`.
    pub fn restore_snapshot(&mut self, key: &str) -> bool {
        self.nodes.iter_mut().all(|node| node.restore_snapshot(key))
    }

    /// Writes a named input vector on whichever node owns the binding.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] if no node binds the name; wrong
    /// widths propagate from [`NodeSim::write_input`].
    pub fn write_input(&mut self, name: &str, values: &[f32]) -> Result<()> {
        let fixed: Vec<Fixed> = values.iter().copied().map(Fixed::from_f32).collect();
        self.write_input_fixed(name, &fixed)
    }

    /// Fixed-point variant of [`ClusterSim::write_input`] (same errors).
    pub fn write_input_fixed(&mut self, name: &str, values: &[Fixed]) -> Result<()> {
        self.nodes
            .iter_mut()
            .find(|n| n.has_input(name))
            .ok_or_else(|| PumaError::Execution { what: format!("no node binds input {name:?}") })?
            .write_input_fixed(name, values)
    }

    /// Reads a named output vector from whichever node owns the binding.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] if no node binds the name.
    pub fn read_output(&self, name: &str) -> Result<Vec<f32>> {
        Ok(self.read_output_fixed(name)?.into_iter().map(Fixed::to_f32).collect())
    }

    /// Fixed-point variant of [`ClusterSim::read_output`] (same errors).
    pub fn read_output_fixed(&self, name: &str) -> Result<Vec<Fixed>> {
        self.nodes
            .iter()
            .find(|n| n.has_output(name))
            .ok_or_else(|| PumaError::Execution { what: format!("no node binds output {name:?}") })?
            .read_output_fixed(name)
    }

    /// All input binding names across the cluster.
    pub fn input_names(&self) -> Vec<&str> {
        self.nodes.iter().flat_map(|n| n.input_names()).collect()
    }

    /// All output binding names across the cluster.
    pub fn output_names(&self) -> Vec<&str> {
        self.nodes.iter().flat_map(|n| n.output_names()).collect()
    }

    /// Runs the cluster to global completion.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Deadlock`] if the cluster quiesces with blocked
    /// agents (e.g. a receive whose matching inter-node send never
    /// executes), and propagates per-node execution faults.
    pub fn run(&mut self) -> Result<&RunStats> {
        let primed = self.nodes.iter_mut().try_for_each(NodeSim::prime);
        self.run_primed(primed)
    }

    /// Registers the resident models of one node's fabric image (see
    /// [`NodeSim::set_residents`]); names are unique cluster-wide.
    ///
    /// # Errors
    ///
    /// Propagates [`NodeSim::set_residents`] validation and rejects a
    /// name already resident on another node.
    pub fn set_residents(&mut self, node: usize, residents: Vec<ResidentModel>) -> Result<()> {
        for r in &residents {
            if let Some(other) = self
                .nodes
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != node)
                .find(|(_, n)| n.residents().iter().any(|p| p.name == r.name))
            {
                return Err(PumaError::InvalidConfig {
                    what: format!("resident '{}' already lives on node {}", r.name, other.0),
                });
            }
        }
        self.nodes[node].set_residents(residents)
    }

    /// [`NodeSim::run_resident`] on the node that hosts the model, every
    /// other tenant and node left untouched.
    ///
    /// # Errors
    ///
    /// Like [`ClusterSim::run`], plus [`PumaError::InvalidConfig`] for an
    /// unknown resident name.
    pub fn run_resident(&mut self, name: &str) -> Result<&RunStats> {
        let owner = self
            .nodes
            .iter()
            .position(|n| n.residents().iter().any(|r| r.name == name))
            .ok_or_else(|| PumaError::InvalidConfig {
                what: format!("no resident model named '{name}' on any node"),
            })?;
        let primed = self.nodes.iter_mut().enumerate().try_for_each(|(i, node)| {
            if i == owner {
                node.prime_resident(name)
            } else {
                node.prime_idle();
                Ok(())
            }
        });
        self.run_primed(primed)
    }

    /// Drives the core over the primed nodes, every one active, to global
    /// quiescence, then sums the nodes' statistics; `cycles` is the
    /// global completion time.
    fn run_primed(&mut self, primed: Result<()>) -> Result<&RunStats> {
        let mut outcome = primed;
        while let (Ok(()), Some((_, work))) = (&outcome, self.next_work(|_| true)) {
            outcome =
                self.advance(work, |_| true, u64::MAX, u64::MAX, |_, flight| Ok(Some(flight)));
        }
        let completion = self.nodes.iter().map(NodeSim::last_time).max().unwrap_or(0);
        if outcome.is_ok() && self.nodes.iter().any(|n| n.blocked_count() > 0) {
            // Global quiescence: any blocked agent now can never be woken.
            let what = |b: Vec<_>| {
                format!("cluster quiescent with {} agents blocked: {}", b.len(), b.join(", "))
            };
            let deadlock = |what| PumaError::Deadlock { cycle: completion, what };
            outcome = Err(self.stall(|_| Some(String::new()), |_| true, what, deadlock));
        }
        let mut stats = RunStats::new();
        for node in &mut self.nodes {
            if outcome.is_ok() {
                node.seal_cycles();
            }
            node.finalize_stats();
            stats.merge(node.stats());
        }
        stats.cycles = completion;
        self.stats = stats;
        outcome?;
        Ok(&self.stats)
    }

    /// The link latency the horizon adds to a send (at least one cycle).
    pub(crate) fn link_latency(&self) -> u64 {
        self.interconnect.latency_cycles.max(1)
    }

    /// The earliest work among the in-flight packets and the nodes
    /// `active` selects, at its cycle (module docs, tie order).
    pub(crate) fn next_work(&self, active: impl Fn(usize) -> bool) -> Option<(u64, Work)> {
        let deliver = self.in_flight.peek().map(|Reverse(f)| (f.arrive_at, Work::Deliver));
        let step = self
            .nodes
            .iter()
            .enumerate()
            .filter(|&(i, _)| active(i))
            .filter_map(|(i, n)| n.next_event_time().map(|t| (t, Work::Step(i))))
            .min();
        [deliver, step].into_iter().flatten().min()
    }

    /// Does `work` (module docs): a delivery, or a node step under its
    /// horizon and `stop`, each packet sent routed through
    /// `route(sender, flight)`, which returns it or `None` to hold it.
    pub(crate) fn advance(
        &mut self,
        work: Work,
        active: impl Fn(usize) -> bool,
        floor: u64,
        stop: u64,
        mut route: impl FnMut(usize, Flight) -> Result<Option<Flight>>,
    ) -> Result<()> {
        let i = match work {
            Work::Deliver => {
                let Reverse(flight) = self.in_flight.pop().expect("a packet is in flight");
                let (node, at) = (flight.dest_node, flight.arrive_at);
                return flight.deliver(&mut self.nodes[node], at);
            }
            Work::Step(i) => i,
        };
        let lat = self.link_latency();
        let mut horizon = self.in_flight.peek().map_or(floor, |Reverse(f)| f.arrive_at.min(floor));
        for (j, node) in self.nodes.iter().enumerate() {
            if let Some(t) = node.next_event_time().filter(|_| active(j)) {
                // This node's own sends come back a round trip later.
                horizon = horizon.min(t.saturating_add(if j == i { 2 * lat } else { lat }));
            }
        }
        let node = &mut self.nodes[i];
        node.set_external_horizon(horizon.min(stop.saturating_add(1)));
        node.stop = stop;
        node.step_one()?;
        for out in node.take_outbox() {
            let OutboundPacket { node, tile, fifo, packet, arrive_at, origin } = out;
            self.flight_seq += 1;
            let flight = Flight {
                arrive_at,
                seq: self.flight_seq,
                dest_node: node as usize,
                dest_tile: tile,
                fifo,
                packet,
                origin,
                req: 0,
            };
            if let Some(flight) = route(i, flight)? {
                self.in_flight.push(Reverse(flight));
            }
        }
        Ok(())
    }

    /// Whether a packet is in flight to node `j`.
    pub(crate) fn inbound(&self, j: usize) -> bool {
        self.in_flight.iter().any(|Reverse(f)| f.dest_node == j)
    }

    /// The stall diagnosis (module docs): `what` describes the blocked
    /// agents of the nodes `label` names, as `node{j}/{label}{agent}`.
    pub(crate) fn stall(
        &self,
        label: impl Fn(usize) -> Option<String>,
        deaths: impl Fn(usize) -> bool,
        what: impl FnOnce(Vec<String>) -> String,
        otherwise: impl FnOnce(String) -> PumaError,
    ) -> PumaError {
        let blocked = self
            .nodes
            .iter()
            .enumerate()
            .filter_map(|(j, n)| label(j).map(|l| (j, n, l)))
            .flat_map(|(j, n, l)| {
                n.blocked_summary().into_iter().map(move |s| format!("node{j}/{l}{s}"))
            })
            .collect();
        let fired = self.nodes.iter().enumerate().filter(|&(j, _)| deaths(j));
        stall_verdict(fired.map(|(j, n)| (j, n.fired_tile_death())), what(blocked), otherwise)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puma_core::config::{CoreConfig, MvmuConfig, NodeConfig, TileConfig};
    use puma_core::ids::{CoreId, TileId};
    use puma_isa::asm::assemble;
    use puma_isa::{IoBinding, Program};
    use std::sync::Arc;

    /// A small two-core, two-tile-capable configuration.
    fn tiny_config() -> NodeConfig {
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
            tiles_per_node: 4,
            ..NodeConfig::default()
        }
    }

    fn asm_program(source: &str) -> Program {
        Program::from_instructions(assemble(source).unwrap())
    }

    /// Node 0 stores a value and sends it to node 1; node 1 receives and
    /// exposes it as an output.
    fn two_node_images() -> Vec<MachineImage> {
        let mut n0 = MachineImage::new(1, 2, 2);
        n0.core_mut(TileId::new(0), CoreId::new(0)).program =
            asm_program("set r0 9\nstore @0 r0 1 4\nhalt\n");
        n0.tiles[0].program = asm_program("send @0 f3 t0 4 n1\nhalt\n");
        let mut n1 = MachineImage::new(1, 2, 2);
        n1.tiles[0].program = asm_program("recv @8 f3 1 4\nhalt\n");
        n1.core_mut(TileId::new(0), CoreId::new(0)).program =
            asm_program("load r0 @8 4\nstore @32 r0 1 4\nhalt\n");
        n1.outputs.push(IoBinding {
            name: "out".into(),
            tile: TileId::new(0),
            addr: 32,
            width: 4,
            count: 1,
        });
        vec![n0, n1]
    }

    #[test]
    fn internode_send_delivers_and_is_charged() {
        for engine in [SimEngine::Reference, SimEngine::Compiled] {
            let mut cluster = ClusterSim::new(
                tiny_config(),
                &two_node_images(),
                SimMode::Functional,
                &NoiseModel::noiseless(),
            )
            .unwrap();
            cluster.set_engine(engine);
            cluster.run().unwrap();
            assert_eq!(cluster.read_output_fixed("out").unwrap()[0].to_bits(), 9);
            let stats = cluster.stats();
            assert_eq!(stats.internode_words, 4, "{engine:?}");
            assert!(
                stats.energy.component_nj(crate::stats::EnergyComponent::Interconnect) > 0.0,
                "{engine:?}"
            );
            assert!(
                stats.energy.component_busy(crate::stats::EnergyComponent::Interconnect) > 0,
                "{engine:?}"
            );
            // The link latency shows up in the completion time.
            assert!(stats.cycles > InterconnectConfig::default().latency_cycles, "{engine:?}");
        }
    }

    #[test]
    fn engines_agree_across_nodes() {
        let run = |engine: SimEngine| {
            let mut cluster = ClusterSim::new(
                tiny_config(),
                &two_node_images(),
                SimMode::Functional,
                &NoiseModel::noiseless(),
            )
            .unwrap();
            cluster.set_engine(engine);
            cluster.run().unwrap();
            cluster.stats().clone()
        };
        let reference = run(SimEngine::Reference);
        assert_eq!(reference, run(SimEngine::Compiled));
    }

    #[test]
    fn cluster_forks_share_each_nodes_compiled_build() {
        // A replica forked from a cluster points every node at the
        // original node's micro-op build instead of recompiling, and its
        // runs stay bit-identical.
        let mut first = ClusterSim::new(
            tiny_config(),
            &two_node_images(),
            SimMode::Functional,
            &NoiseModel::noiseless(),
        )
        .unwrap();
        let mut second = first.fork_replica();
        for (a, b) in first.nodes().iter().zip(second.nodes()) {
            let (a, b) = (a.compiled.as_ref().unwrap(), b.compiled.as_ref().unwrap());
            assert!(Arc::ptr_eq(a, b), "a fork must share the build, not recompile");
        }
        first.run().unwrap();
        second.run().unwrap();
        assert_eq!(first.stats(), second.stats());
    }

    #[test]
    fn node_to_self_send_uses_the_noc() {
        // A `send ... n0` executed by node 0 of a cluster is an ordinary
        // intra-node NoC transfer between its own tiles.
        let mut n0 = MachineImage::new(2, 2, 2);
        n0.core_mut(TileId::new(0), CoreId::new(0)).program =
            asm_program("set r0 5\nstore @0 r0 1 2\nhalt\n");
        n0.tiles[0].program = asm_program("send @0 f1 t1 2 n0\nhalt\n");
        n0.tiles[1].program = asm_program("recv @4 f1 1 2\nhalt\n");
        n0.core_mut(TileId::new(1), CoreId::new(0)).program =
            asm_program("load r0 @4 2\nstore @16 r0 1 2\nhalt\n");
        n0.outputs.push(IoBinding {
            name: "y".into(),
            tile: TileId::new(1),
            addr: 16,
            width: 2,
            count: 1,
        });
        let idle = MachineImage::new(1, 2, 2);
        let mut cluster = ClusterSim::new(
            tiny_config(),
            &[n0, idle],
            SimMode::Functional,
            &NoiseModel::noiseless(),
        )
        .unwrap();
        cluster.run().unwrap();
        assert_eq!(cluster.read_output_fixed("y").unwrap()[0].to_bits(), 5);
        let stats = cluster.stats();
        assert_eq!(stats.network_words, 2, "self-send goes over the NoC");
        assert_eq!(stats.internode_words, 0, "no interconnect traffic");
    }

    #[test]
    fn recv_without_sender_is_cluster_deadlock() {
        // Node 1 waits on a FIFO nobody ever sends to: the cluster
        // quiesces and reports a deterministic deadlock naming the agent.
        let mut n1 = MachineImage::new(1, 2, 2);
        n1.tiles[0].program = asm_program("recv @8 f3 1 4\nhalt\n");
        let images = vec![MachineImage::new(1, 2, 2), n1];
        for engine in [SimEngine::Reference, SimEngine::Compiled] {
            let mut cluster = ClusterSim::new(
                tiny_config(),
                &images,
                SimMode::Functional,
                &NoiseModel::noiseless(),
            )
            .unwrap();
            cluster.set_engine(engine);
            match cluster.run() {
                Err(PumaError::Deadlock { what, .. }) => {
                    // The diagnostic must pinpoint the stall: which node,
                    // which tile, which agent, and which FIFO it is
                    // parked on — that is what makes a serving timeout
                    // against a sharded model debuggable.
                    assert!(what.contains("node1/tile0/ctl"), "{engine:?}: {what}");
                    assert!(what.contains("fifo f3"), "{engine:?}: {what}");
                    assert!(what.contains("1 agents blocked"), "{engine:?}: {what}");
                }
                other => panic!("{engine:?}: expected cluster deadlock, got {other:?}"),
            }
        }
    }

    #[test]
    fn internode_width_mismatch_faults_in_functional_mode() {
        // Node 0 sends 4 words; node 1's receive expects 2. Functional
        // mode must reject the misrouted payload like the intra-node case.
        let mut images = two_node_images();
        images[1].tiles[0].program = asm_program("recv @8 f3 1 2\nhalt\n");
        images[1].core_mut(TileId::new(0), CoreId::new(0)).program =
            asm_program("load r0 @8 2\nstore @32 r0 1 2\nhalt\n");
        let mut cluster =
            ClusterSim::new(tiny_config(), &images, SimMode::Functional, &NoiseModel::noiseless())
                .unwrap();
        match cluster.run() {
            Err(PumaError::Execution { what }) => {
                assert!(what.contains("mismatches packet"), "{what}");
            }
            other => panic!("expected width-mismatch fault, got {other:?}"),
        }
    }

    #[test]
    fn send_to_missing_node_faults() {
        let mut n0 = MachineImage::new(1, 2, 2);
        n0.core_mut(TileId::new(0), CoreId::new(0)).program =
            asm_program("set r0 1\nstore @0 r0 1 1\nhalt\n");
        n0.tiles[0].program = asm_program("send @0 f0 t0 1 n7\nhalt\n");
        let mut cluster = ClusterSim::new(
            tiny_config(),
            &[n0, MachineImage::new(1, 2, 2)],
            SimMode::Functional,
            &NoiseModel::noiseless(),
        )
        .unwrap();
        match cluster.run() {
            Err(PumaError::Execution { what }) => {
                assert!(what.contains("nonexistent node"), "{what}");
            }
            other => panic!("expected missing-node fault, got {other:?}"),
        }
    }

    #[test]
    fn send_to_missing_tile_of_other_node_faults() {
        let mut images = two_node_images();
        images[0].tiles[0].program = asm_program("send @0 f3 t3 4 n1\nhalt\n");
        let mut cluster =
            ClusterSim::new(tiny_config(), &images, SimMode::Functional, &NoiseModel::noiseless())
                .unwrap();
        match cluster.run() {
            Err(PumaError::Execution { what }) => {
                assert!(what.contains("nonexistent tile"), "{what}");
            }
            other => panic!("expected missing-tile fault, got {other:?}"),
        }
    }

    #[test]
    fn reset_allows_second_cluster_run() {
        let mut cluster = ClusterSim::new(
            tiny_config(),
            &two_node_images(),
            SimMode::Functional,
            &NoiseModel::noiseless(),
        )
        .unwrap();
        cluster.run().unwrap();
        let first = cluster.stats().clone();
        cluster.reset();
        cluster.run().unwrap();
        assert_eq!(&first, cluster.stats(), "cluster runs must replay identically");
    }

    #[test]
    fn empty_cluster_rejected() {
        assert!(ClusterSim::new(tiny_config(), &[], SimMode::Functional, &NoiseModel::noiseless())
            .is_err());
    }
}
