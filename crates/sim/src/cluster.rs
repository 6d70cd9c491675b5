//! ClusterSim: N [`NodeSim`]s joined by a chip-to-chip interconnect
//! (§3.1's node scale-out — models whose weight footprint exceeds one
//! node's crossbars are sharded across nodes).
//!
//! The cluster runs a conservative co-simulation: all nodes share one
//! global clock, and the scheduler always advances whatever is earliest —
//! an in-flight inter-node packet or the node with the smallest pending
//! event. Nodes only interact through packets whose transfer time is at
//! least one cycle ([`InterconnectConfig::transfer_cycles`]), so executing
//! the globally earliest work first is exact: nothing a later node does
//! can reach back before it.
//!
//! The compiled engine's tile scheduler keeps working inside a
//! cluster. Before stepping a node the scheduler hands it an *external
//! horizon* — the earliest global cycle at which any inter-node packet
//! could still arrive (in-flight arrivals, plus every other node's next
//! event time + link latency). The node may execute synchronization
//! instructions off-queue only strictly below that horizon; at or past
//! it, it re-enters its event queue so the delivery interleaves
//! correctly.

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

/// An inter-node packet in flight on the interconnect.
#[derive(Debug)]
struct Flight {
    arrive_at: u64,
    /// Global send order; ties in arrival time resolve in send order so
    /// the co-simulation is deterministic.
    seq: u64,
    dest_node: u16,
    dest_tile: u16,
    fifo: u8,
    packet: Packet,
    origin: PacketOrigin,
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
    nodes: Vec<NodeSim>,
    interconnect: InterconnectConfig,
    in_flight: BinaryHeap<Reverse<Flight>>,
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

    /// [`ClusterSim::new`] with an explicit interconnect model.
    ///
    /// # Errors
    ///
    /// See [`ClusterSim::new`].
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
        Ok(ClusterSim {
            nodes,
            interconnect,
            in_flight: BinaryHeap::new(),
            flight_seq: 0,
            stats: RunStats::new(),
        })
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

    /// Clones the cluster into a fresh worker replica: every node is
    /// [`NodeSim::fork_replica`]-forked (programs, programmed
    /// crossbars, and compiled images `Arc`-shared; state arenas
    /// fresh), with empty in-flight interconnect traffic.
    #[must_use]
    pub fn fork_replica(&self) -> ClusterSim {
        ClusterSim {
            nodes: self.nodes.iter().map(NodeSim::fork_replica).collect(),
            interconnect: self.interconnect,
            in_flight: BinaryHeap::new(),
            flight_seq: 0,
            stats: RunStats::new(),
        }
    }

    /// The nodes and their interconnect, for [`crate::PipelineSim::from_cluster`].
    pub(crate) fn into_nodes(self) -> (Vec<NodeSim>, InterconnectConfig) {
        (self.nodes, self.interconnect)
    }

    /// Approximate bytes of per-replica mutable state, summed over
    /// nodes (see [`NodeSim::state_bytes`]).
    pub fn state_bytes(&self) -> usize {
        self.nodes.iter().map(NodeSim::state_bytes).sum()
    }

    /// Event-queue pops since the last reset, summed over nodes (see
    /// [`NodeSim::queue_events`]).
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

    fn node_owning_input(&mut self, name: &str) -> Option<&mut NodeSim> {
        self.nodes.iter_mut().find(|n| n.has_input(name))
    }

    /// Writes a named input vector on whichever node owns the binding.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] if no node binds the name; wrong
    /// widths propagate from [`NodeSim::write_input`].
    pub fn write_input(&mut self, name: &str, values: &[f32]) -> Result<()> {
        self.node_owning_input(name)
            .ok_or_else(|| PumaError::Execution { what: format!("no node binds input {name:?}") })?
            .write_input(name, values)
    }

    /// Fixed-point variant of [`ClusterSim::write_input`].
    ///
    /// # Errors
    ///
    /// See [`ClusterSim::write_input`].
    pub fn write_input_fixed(&mut self, name: &str, values: &[Fixed]) -> Result<()> {
        self.node_owning_input(name)
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

    /// Fixed-point variant of [`ClusterSim::read_output`].
    ///
    /// # Errors
    ///
    /// See [`ClusterSim::read_output`].
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
        let outcome = self.run_loop();
        for node in &mut self.nodes {
            node.finalize_stats();
        }
        self.collect_stats();
        outcome?;
        Ok(&self.stats)
    }

    /// Registers the resident models of one node's fabric image (see
    /// [`NodeSim::set_residents`]); resident names must be unique across
    /// the whole cluster so [`ClusterSim::run_resident`] can route by
    /// name.
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

    /// Runs one resident model to completion on the node that hosts it,
    /// leaving every other tenant (and node) untouched — the cluster
    /// counterpart of [`NodeSim::run_resident`]: the returned
    /// [`RunStats`] are exactly that model's.
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
        let mut outcome = Ok(());
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if i == owner {
                outcome = node.prime_resident(name);
                if outcome.is_err() {
                    break;
                }
            } else {
                node.prime_idle();
            }
        }
        if outcome.is_ok() {
            outcome = self.run_primed();
        }
        for node in &mut self.nodes {
            node.finalize_stats();
        }
        self.collect_stats();
        outcome?;
        Ok(&self.stats)
    }

    fn run_loop(&mut self) -> Result<()> {
        for node in &mut self.nodes {
            node.prime()?;
        }
        self.run_primed()
    }

    /// The post-prime body of [`ClusterSim::run`]: conservative co-sim
    /// to global quiescence, deadlock diagnosis, cycle sealing.
    fn run_primed(&mut self) -> Result<()> {
        loop {
            let next_arrival = self.in_flight.peek().map(|Reverse(f)| f.arrive_at);
            let next_node: Option<(u64, usize)> = self
                .nodes
                .iter()
                .enumerate()
                .filter_map(|(i, n)| n.next_event_time().map(|t| (t, i)))
                .min();
            match (next_arrival, next_node) {
                (None, None) => break,
                (Some(arrival), node) if node.is_none_or(|(t, _)| arrival <= t) => {
                    // Deliveries win ties: within a node, packet delivery
                    // events outrank agent events at the same timestamp.
                    let Reverse(flight) = self.in_flight.pop().expect("peeked above");
                    self.nodes[flight.dest_node as usize].deliver_external(
                        flight.dest_tile,
                        flight.fifo,
                        flight.packet,
                        flight.arrive_at,
                        flight.origin,
                    )?;
                }
                (_, Some((_, i))) => {
                    // Conservative lookahead for the compiled engine: no
                    // packet can arrive before any current in-flight
                    // arrival, nor before another node's next event plus
                    // the link latency (transfer time is at least
                    // latency + 1 serialization cycle).
                    let future_send = self
                        .nodes
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != i)
                        .filter_map(|(_, n)| n.next_event_time())
                        .min()
                        .map(|t| t.saturating_add(self.interconnect.latency_cycles.max(1)));
                    let horizon =
                        [next_arrival, future_send].into_iter().flatten().min().unwrap_or(u64::MAX);
                    self.nodes[i].set_external_horizon(horizon);
                    self.nodes[i].step_one()?;
                    for out in self.nodes[i].take_outbox() {
                        let OutboundPacket { node, tile, fifo, packet, arrive_at, origin } = out;
                        self.flight_seq += 1;
                        self.in_flight.push(Reverse(Flight {
                            arrive_at,
                            seq: self.flight_seq,
                            dest_node: node,
                            dest_tile: tile,
                            fifo,
                            packet,
                            origin,
                        }));
                    }
                }
                (Some(_), None) => unreachable!("covered by the delivery arm's guard"),
            }
        }
        // Global quiescence: every queue is empty and nothing is in
        // flight. Any blocked agent now can never be woken.
        let blocked: Vec<String> = self
            .nodes
            .iter()
            .enumerate()
            .flat_map(|(i, n)| n.blocked_summary().into_iter().map(move |s| format!("node{i}/{s}")))
            .collect();
        let completion = self.nodes.iter().map(|n| n.last_time()).max().unwrap_or(0);
        if !blocked.is_empty() {
            let what = format!(
                "cluster quiescent with {} agents blocked: {}",
                blocked.len(),
                blocked.join(", ")
            );
            // An injected tile death that fired anywhere in the cluster
            // converts the stall into a typed fault naming the dead tile.
            for (i, node) in self.nodes.iter().enumerate() {
                if let Some((tile, at)) = node.fired_tile_death() {
                    return Err(PumaError::FaultedTile {
                        node: i,
                        tile: tile as usize,
                        cycle: at,
                        what,
                    });
                }
            }
            return Err(PumaError::Deadlock { cycle: completion, what });
        }
        for node in &mut self.nodes {
            node.seal_cycles();
        }
        Ok(())
    }

    /// Merges per-node statistics: counters and energy sum in node order
    /// (deterministic floating-point totals); `cycles` is the global
    /// completion time (nodes ran concurrently, not back-to-back).
    fn collect_stats(&mut self) {
        let mut stats = RunStats::new();
        for node in &self.nodes {
            stats.merge(node.stats());
        }
        stats.cycles = self.nodes.iter().map(|n| n.last_time()).max().unwrap_or(0);
        self.stats = stats;
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
