//! PipelineSim: *pipeline sharding* over the nodes of one sharded model.
//!
//! [`crate::ClusterSim`] co-simulates N nodes serving **one** request at a
//! time: the whole cluster is occupied for the full latency of each
//! inference. This module keeps the same per-node machines and the same
//! conservative co-simulation invariants, but lets **different requests be
//! simultaneously resident on different nodes** — node 0 starts request
//! r+1 the moment it finishes its shard of request r, while nodes 1..N are
//! still working on r (and possibly r-1). That is the serving-throughput
//! story for models too large for one node: the pipeline's steady-state
//! throughput is set by the slowest *stage*, not by the end-to-end
//! latency.
//!
//! Mechanics:
//!
//! - Each node executes per-request *segments* via
//!   [`NodeSim::begin_segment`]: machine state resets between requests,
//!   but the clock is global and monotonic, so all latencies are measured
//!   on one shared simulated timeline.
//! - Inter-node packets are tagged with the request their sender was
//!   executing. A packet addressed to a node still working on an earlier
//!   request is *held* and injected when the destination node starts that
//!   request — sharded execution is a pure renumbering of the single-node
//!   program, so a request's packets are only ever consumed by the same
//!   request's segments, and outputs stay bit-identical to sequential
//!   execution.
//! - The scheduler always advances the globally earliest work and hands
//!   each node a conservative external horizon (in-flight packets,
//!   other resident nodes' next events, scheduled segment starts, and
//!   pending arrivals, each plus the link latency), exactly generalizing
//!   the [`crate::ClusterSim`] lookahead rule.
//!
//! Admission follows the serving queue model: requests arrive at given
//! cycles (in arrival order), wait in a bounded queue for the *entry
//! stage* (node 0), and are **shed** — rejected without executing — when
//! the queue is full at their arrival.

use crate::cluster::ClusterSim;
use crate::fifo::Packet;
use crate::machine::{NodeSim, PacketOrigin, SimEngine, SimMode};
use crate::stats::RunStats;
use puma_core::config::NodeConfig;
use puma_core::error::{PumaError, Result};
use puma_core::timing::InterconnectConfig;
use puma_isa::MachineImage;
use puma_xbar::NoiseModel;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// One request submitted to [`PipelineSim::serve`].
#[derive(Debug, Clone)]
pub struct PipelineRequest {
    /// Simulated cycle at which the request arrives at the queue.
    pub arrival: u64,
    /// Host writes performed when a node starts this request's segment:
    /// `(input-binding name, values)`, routed to whichever node owns the
    /// binding. Writes shared by every request (model constants) go in
    /// [`PipelineSim::serve`]'s `common_writes` instead, so they are not
    /// duplicated per request.
    pub writes: Vec<(String, Vec<f32>)>,
}

/// Per-request outcome of a pipeline serve.
#[derive(Debug, Clone, Default)]
pub struct PipelineResult {
    /// False when the request was shed at admission (all other fields are
    /// then zero/empty).
    pub admitted: bool,
    /// Output-binding values read when each owning node retired its
    /// segment (keyed by binding name).
    pub outputs: HashMap<String, Vec<f32>>,
    /// Cycle the first node began executing this request.
    pub start: u64,
    /// Cycle the last node retired this request.
    pub finish: u64,
    /// Merged per-node segment statistics (node order, deterministic);
    /// `cycles` is the residency span `finish − start`.
    pub stats: RunStats,
    /// The typed fault that aborted this request, when a deadline
    /// watchdog fired for it ([`PipelineSim::serve_with_deadline`]).
    /// `None` for completed or shed requests.
    pub error: Option<PumaError>,
}

/// Occupancy accounting for one pipeline stage (node).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Requests this stage retired.
    pub requests: u64,
    /// Total cycles a request was resident on this stage (busy or
    /// blocked on synchronization).
    pub occupied_cycles: u64,
    /// Of the occupied cycles, how many an agent spent parked on
    /// synchronization (waiting for packets from neighbouring stages).
    pub blocked_cycles: u64,
    /// Cycle this stage retired its last request.
    pub last_retire: u64,
}

/// Aggregate outcome of one [`PipelineSim::serve`] call.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Per-request outcomes, in submission order.
    pub results: Vec<PipelineResult>,
    /// Per-stage occupancy, indexed by node.
    pub stages: Vec<StageStats>,
    /// Maximum number of distinct requests simultaneously resident across
    /// the stages — `> 1` proves the pipeline actually overlapped
    /// requests.
    pub max_concurrent: usize,
    /// Requests shed at admission.
    pub shed: usize,
    /// Cycle the last admitted request finished (0 if none).
    pub makespan: u64,
}

/// An inter-node packet in flight, tagged with the admitted-order
/// position of the request it belongs to.
#[derive(Debug)]
struct Flight {
    arrive_at: u64,
    seq: u64,
    dest_node: usize,
    dest_tile: u16,
    fifo: u8,
    packet: Packet,
    origin: PacketOrigin,
    req: usize,
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

/// A packet waiting for its destination node to start the request it
/// belongs to.
#[derive(Debug)]
struct HeldPacket {
    arrive_at: u64,
    seq: u64,
    tile: u16,
    fifo: u8,
    packet: Packet,
    origin: PacketOrigin,
}

/// A cluster of node simulators serving a *stream* of requests with
/// pipeline overlap (see the module docs).
///
/// # Examples
///
/// See the `puma-testkit` `serving_differential` suite for end-to-end
/// usage against compiled sharded models.
#[derive(Debug)]
pub struct PipelineSim {
    nodes: Vec<NodeSim>,
    interconnect: InterconnectConfig,
    /// Input-binding name → owning node.
    input_owner: HashMap<String, usize>,
    /// Output-binding names per node.
    output_names: Vec<Vec<String>>,
}

impl PipelineSim {
    /// Builds one simulator per image over the default interconnect
    /// (see [`ClusterSim::new`]).
    ///
    /// # Errors
    ///
    /// See [`ClusterSim::new`].
    pub fn new(
        cfg: NodeConfig,
        images: &[MachineImage],
        mode: SimMode,
        noise: &NoiseModel,
    ) -> Result<Self> {
        Self::with_interconnect(cfg, images, mode, noise, InterconnectConfig::default())
    }

    /// [`PipelineSim::new`] with an explicit interconnect model.
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
        ClusterSim::with_interconnect(cfg, images, mode, noise, interconnect)
            .map(Self::from_cluster)
    }

    /// Serves a cluster's nodes as pipeline stages. The nodes keep
    /// everything they share with the cluster's other forks — programs,
    /// programmed crossbars and the compiled micro-op build — so a
    /// pipeline over [`ClusterSim::fork_replica`] costs no rebuild.
    pub fn from_cluster(cluster: ClusterSim) -> PipelineSim {
        let (nodes, interconnect) = cluster.into_nodes();
        let mut input_owner = HashMap::new();
        let mut output_names = Vec::with_capacity(nodes.len());
        for (i, node) in nodes.iter().enumerate() {
            for name in node.input_names() {
                input_owner.insert(name.to_string(), i);
            }
            output_names.push(node.output_names().iter().map(|s| s.to_string()).collect());
        }
        PipelineSim { nodes, interconnect, input_owner, output_names }
    }

    /// Number of pipeline stages (nodes).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Selects the execution engine on every node.
    pub fn set_engine(&mut self, engine: SimEngine) {
        for node in &mut self.nodes {
            node.set_engine(engine);
        }
    }

    /// Overrides the runaway-simulation safety cap on every node. The cap
    /// is measured on the *global* pipeline clock, shared by all requests
    /// of a serve call.
    pub fn set_max_cycles(&mut self, max_cycles: u64) {
        for node in &mut self.nodes {
            node.set_max_cycles(max_cycles);
        }
    }

    /// Serves a stream of requests through the pipeline and returns
    /// per-request outcomes plus per-stage occupancy.
    ///
    /// `common_writes` are input-binding writes performed at the start of
    /// *every* request's segment before the request's own writes — model
    /// constants, shared across requests so callers need not duplicate
    /// them per request. `requests` must be sorted by non-decreasing
    /// `arrival` (the submission queue is arrival-ordered); `queue_depth`
    /// bounds the entry queue (`None` = unbounded, `Some(0)` = admit only
    /// when the entry stage is idle). Every call starts from a clean
    /// machine state at cycle 0 and is fully deterministic.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::InvalidConfig`] for unsorted arrivals,
    /// [`PumaError::Deadlock`] when the pipeline quiesces with requests
    /// still in flight (the message names each blocked node/tile/agent
    /// and the FIFO or memory word it waits on), and propagates per-node
    /// execution faults.
    pub fn serve(
        &mut self,
        common_writes: &[(String, Vec<f32>)],
        requests: &[PipelineRequest],
        queue_depth: Option<usize>,
    ) -> Result<PipelineReport> {
        self.serve_with_deadline(common_writes, requests, queue_depth, None)
    }

    /// [`PipelineSim::serve`] with a per-request virtual-time deadline
    /// watchdog: an admitted request still unfinished `deadline` cycles
    /// after its arrival is aborted at exactly `arrival + deadline` on
    /// the shared clock. Its stages are reclaimed (free for the next
    /// request from the abort cycle), its in-flight and held packets are
    /// dropped, and its [`PipelineResult::error`] records the typed
    /// fault — [`PumaError::FaultedTile`] when an injected tile death
    /// fired on a stage serving it, [`PumaError::DeadlineExceeded`]
    /// otherwise, each naming the stalled node/tile/agent via the
    /// blocked-agent summary. The serve call itself still succeeds:
    /// watchdog aborts degrade single requests, not the whole stream.
    ///
    /// The abort cycle and the reclaimed stages' free times are virtual
    /// times, so deadline-aborted serves replay bit-identically across
    /// engines (same-cycle progress is processed before the abort).
    ///
    /// # Errors
    ///
    /// See [`PipelineSim::serve`]; with a deadline, a stalled request is
    /// reported per-request instead of failing the serve.
    pub fn serve_with_deadline(
        &mut self,
        common_writes: &[(String, Vec<f32>)],
        requests: &[PipelineRequest],
        queue_depth: Option<usize>,
        deadline: Option<u64>,
    ) -> Result<PipelineReport> {
        if requests.windows(2).any(|w| w[0].arrival > w[1].arrival) {
            return Err(PumaError::InvalidConfig {
                what: "pipeline requests must be sorted by arrival time".to_string(),
            });
        }
        for node in &mut self.nodes {
            node.reset();
        }
        let n_nodes = self.nodes.len();
        let lat = self.interconnect.latency_cycles.max(1);
        let mut state = ServeState::new(requests.len(), n_nodes);

        // What advances next: deliveries outrank segment starts outrank
        // node events outrank arrivals outrank watchdog aborts at equal
        // times, then lower node index — a fixed total order, so the
        // co-simulation replays identically. Node events precede
        // same-cycle arrivals so that a departure at cycle T is visible
        // to a request arriving at T (matching the virtual-time schedule
        // of the replicated pool); aborts come last so a request that
        // finishes exactly at its deadline completes.
        #[derive(PartialEq, Eq, PartialOrd, Ord)]
        enum Action {
            Deliver,
            Start(usize),
            Step(usize),
            Arrive,
            Abort(usize),
        }

        loop {
            let t_deliver = state.flights.peek().map(|Reverse(f)| (f.arrive_at, Action::Deliver));
            let t_start = state
                .start_sched
                .iter()
                .enumerate()
                .filter_map(|(j, s)| s.map(|s| (s, Action::Start(j))))
                .min();
            let t_arrive = requests.get(state.arr_ptr).map(|r| (r.arrival, Action::Arrive));
            let t_step = self
                .nodes
                .iter()
                .enumerate()
                .filter(|&(j, _)| state.resident[j].is_some())
                .filter_map(|(j, n)| n.next_event_time().map(|t| (t, Action::Step(j))))
                .min();
            // Admitted requests are in arrival order, so the first
            // unfinished one carries the earliest deadline.
            let t_abort = deadline.and_then(|d| {
                (0..state.admitted.len()).find(|&k| state.retired_nodes[k] < n_nodes).map(|k| {
                    (requests[state.admitted[k]].arrival.saturating_add(d), Action::Abort(k))
                })
            });
            let Some((_, action)) =
                [t_deliver, t_start, t_arrive, t_step, t_abort].into_iter().flatten().min()
            else {
                break;
            };
            match action {
                Action::Deliver => {
                    let Reverse(flight) = state.flights.pop().expect("peeked above");
                    debug_assert_eq!(state.resident[flight.dest_node], Some(flight.req));
                    self.nodes[flight.dest_node].deliver_external(
                        flight.dest_tile,
                        flight.fifo,
                        flight.packet,
                        flight.arrive_at,
                        flight.origin,
                    )?;
                }
                Action::Start(j) => {
                    let s = state.start_sched[j].take().expect("selected above");
                    let k = state.next_k[j];
                    let r = state.admitted[k];
                    self.nodes[j].begin_segment(s)?;
                    for (name, values) in common_writes.iter().chain(&requests[r].writes) {
                        if self.input_owner.get(name.as_str()) == Some(&j) {
                            self.nodes[j].write_input(name, values)?;
                        }
                    }
                    state.resident[j] = Some(k);
                    state.seg_start[j] = s;
                    if j == 0 {
                        state.entry_started += 1;
                    }
                    state.first_start[k] = state.first_start[k].min(s);
                    if let Some(mut packets) = state.held.remove(&(j, k)) {
                        packets.sort_by_key(|p| (p.arrive_at, p.seq));
                        for p in packets {
                            self.nodes[j].deliver_external(
                                p.tile,
                                p.fifo,
                                p.packet,
                                p.arrive_at.max(s),
                                p.origin,
                            )?;
                        }
                    }
                    let concurrent = state
                        .resident
                        .iter()
                        .flatten()
                        .collect::<std::collections::HashSet<_>>()
                        .len();
                    state.max_concurrent = state.max_concurrent.max(concurrent);
                    // A stage with no work for this request (e.g. an idle
                    // shard) quiesces instantly.
                    self.retire_if_quiescent(j, &mut state, requests)?;
                }
                Action::Arrive => {
                    let r = state.arr_ptr;
                    state.arr_ptr += 1;
                    let t = requests[r].arrival;
                    let waiting = state.admitted.len() - state.entry_started;
                    // The entry worker counts as idle only once its last
                    // segment's span has elapsed (`free_at`): the scheduler may
                    // *process* a retirement early, but the stage is still
                    // busy until its simulated completion time — admission
                    // must not depend on the engine's processing order.
                    let entry_idle = state.resident[0].is_none()
                        && state.start_sched[0].is_none()
                        && state.free_at[0] <= t;
                    let admit = match queue_depth {
                        None => true,
                        Some(depth) => waiting < depth || (waiting == 0 && entry_idle),
                    };
                    if !admit {
                        state.shed += 1;
                        continue;
                    }
                    let k = state.admitted.len();
                    state.admitted.push(r);
                    state.results[r].admitted = true;
                    state.first_start.push(u64::MAX);
                    state.finish.push(0);
                    state.retired_nodes.push(0);
                    state.aborted.push(false);
                    state.seg_stats.push(vec![None; n_nodes]);
                    for j in 0..n_nodes {
                        if state.next_k[j] == k
                            && state.resident[j].is_none()
                            && state.start_sched[j].is_none()
                        {
                            state.start_sched[j] = Some(t.max(state.free_at[j]));
                        }
                    }
                }
                Action::Step(j) => {
                    // Conservative external horizon: the earliest cycle
                    // any external packet could still reach this node —
                    // through an in-flight packet, a send from another
                    // resident node's next event, a segment that is
                    // scheduled to start, or a request that has not even
                    // arrived yet (each send needs ≥ latency + 1 cycles
                    // to land).
                    let mut horizon =
                        state.flights.peek().map_or(u64::MAX, |Reverse(f)| f.arrive_at);
                    for (j2, node) in self.nodes.iter().enumerate() {
                        if j2 != j && state.resident[j2].is_some() {
                            if let Some(t) = node.next_event_time() {
                                horizon = horizon.min(t.saturating_add(lat));
                            }
                        }
                    }
                    for s in state.start_sched.iter().flatten() {
                        horizon = horizon.min(s.saturating_add(lat));
                    }
                    if let Some(req) = requests.get(state.arr_ptr) {
                        horizon = horizon.min(req.arrival.saturating_add(lat));
                    }
                    self.nodes[j].set_external_horizon(horizon);
                    self.nodes[j].step_one()?;
                    let k = state.resident[j].expect("only resident nodes are stepped");
                    for out in self.nodes[j].take_outbox() {
                        let dest = out.node as usize;
                        if state.next_k[dest] > k {
                            return Err(PumaError::Execution {
                                what: format!(
                                    "node{j} sent a packet for request {} to node{dest}, which \
                                     already retired that request (un-received send in the \
                                     sharded program?)",
                                    state.admitted[k]
                                ),
                            });
                        }
                        state.flight_seq += 1;
                        if state.resident[dest] == Some(k) {
                            state.flights.push(Reverse(Flight {
                                arrive_at: out.arrive_at,
                                seq: state.flight_seq,
                                dest_node: dest,
                                dest_tile: out.tile,
                                fifo: out.fifo,
                                packet: out.packet,
                                origin: out.origin,
                                req: k,
                            }));
                        } else {
                            state.held.entry((dest, k)).or_default().push(HeldPacket {
                                arrive_at: out.arrive_at,
                                seq: state.flight_seq,
                                tile: out.tile,
                                fifo: out.fifo,
                                packet: out.packet,
                                origin: out.origin,
                            });
                        }
                    }
                    self.retire_if_quiescent(j, &mut state, requests)?;
                }
                Action::Abort(k) => {
                    let d = deadline.expect("abort scheduled only under a deadline");
                    let r = state.admitted[k];
                    let at = requests[r].arrival.saturating_add(d);
                    // Typed diagnosis: a fired tile death on a stage
                    // serving this request outranks the generic deadline.
                    let stalls: Vec<String> = self
                        .nodes
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| state.resident[j] == Some(k))
                        .flat_map(|(j, n)| {
                            n.blocked_summary().into_iter().map(move |s| format!("node{j}/{s}"))
                        })
                        .collect();
                    let what = if stalls.is_empty() {
                        format!("request {r} still executing at its {d}-cycle deadline")
                    } else {
                        format!(
                            "request {r} stalled at its {d}-cycle deadline: {}",
                            stalls.join(", ")
                        )
                    };
                    let death = self
                        .nodes
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| state.resident[j] == Some(k))
                        .find_map(|(j, n)| {
                            n.fired_tile_death().map(|(tile, cycle)| (j, tile, cycle))
                        });
                    state.results[r].error = Some(match death {
                        Some((node, tile, cycle)) => {
                            PumaError::FaultedTile { node, tile: tile as usize, cycle, what }
                        }
                        None => PumaError::DeadlineExceeded { cycle: at, what },
                    });
                    // Reclaim the request's stages and packets. A stage
                    // it occupied frees at the abort cycle; a stage that
                    // never reached it skips straight past (the entry
                    // stage counts it started for admission accounting).
                    if state.resident[0] != Some(k) && state.next_k[0] <= k {
                        state.entry_started += 1;
                    }
                    state.flights.retain(|Reverse(f)| f.req != k);
                    state.held.retain(|&(_, kk), _| kk != k);
                    for j in 0..n_nodes {
                        if state.next_k[j] == k {
                            state.start_sched[j] = None;
                        }
                        if state.resident[j] == Some(k) {
                            // Discard the partial segment; the machine
                            // itself is wiped by its next begin_segment.
                            let _ = self.nodes[j].take_segment_stats();
                            state.resident[j] = None;
                            state.free_at[j] = state.free_at[j].max(at);
                            state.next_k[j] += 1;
                        } else if state.next_k[j] == k {
                            state.next_k[j] += 1;
                        }
                        if state.resident[j].is_none()
                            && state.start_sched[j].is_none()
                            && state.next_k[j] < state.admitted.len()
                        {
                            let next_arrival = requests[state.admitted[state.next_k[j]]].arrival;
                            // Never before the abort: the watchdog only
                            // frees the stage at the deadline cycle.
                            state.start_sched[j] = Some(state.free_at[j].max(next_arrival).max(at));
                        }
                    }
                    state.aborted[k] = true;
                    state.retired_nodes[k] = n_nodes;
                    state.finish[k] = at;
                    state.results[r].start =
                        if state.first_start[k] == u64::MAX { 0 } else { state.first_start[k] };
                    state.results[r].finish = at;
                }
            }
        }

        // Quiescent. Any admitted request not retired everywhere is a
        // pipeline deadlock; name every stalled synchronization (and any
        // packets still parked, in case nothing is blocked — a defensive
        // diagnostic for malformed programs).
        if state.retired_nodes.iter().any(|&n| n < n_nodes) {
            let mut blocked: Vec<String> = self
                .nodes
                .iter()
                .enumerate()
                .filter(|&(j, _)| state.resident[j].is_some())
                .flat_map(|(j, n)| {
                    let req = state.admitted[state.resident[j].expect("filtered")];
                    n.blocked_summary()
                        .into_iter()
                        .map(move |s| format!("node{j}/request{req}/{s}"))
                })
                .collect();
            let parked: usize = state.held.values().map(Vec::len).sum();
            if parked > 0 {
                blocked.push(format!("{parked} packets held for requests that never started"));
            }
            let cycle = self.nodes.iter().map(NodeSim::last_time).max().unwrap_or(0);
            let what =
                format!("pipeline quiescent with {} stalls: {}", blocked.len(), blocked.join(", "));
            // An injected tile death that fired on any stage converts
            // the stall into a typed fault naming the dead tile.
            for (j, node) in self.nodes.iter().enumerate() {
                if let Some((tile, at)) = node.fired_tile_death() {
                    return Err(PumaError::FaultedTile {
                        node: j,
                        tile: tile as usize,
                        cycle: at,
                        what,
                    });
                }
            }
            return Err(PumaError::Deadlock { cycle, what });
        }

        let makespan = state.finish.iter().copied().max().unwrap_or(0);
        Ok(PipelineReport {
            results: state.results,
            stages: state.stages,
            max_concurrent: state.max_concurrent,
            shed: state.shed,
            makespan,
        })
    }

    /// Retires node `j`'s segment if it has quiesced for its resident
    /// request: no queued events, no blocked agents, and no in-flight
    /// packets still addressed to it. Reads the node's outputs *before*
    /// the machine is reused, folds its segment statistics into the
    /// request, and schedules the node's next segment.
    fn retire_if_quiescent(
        &mut self,
        j: usize,
        state: &mut ServeState,
        requests: &[PipelineRequest],
    ) -> Result<()> {
        let Some(k) = state.resident[j] else { return Ok(()) };
        if self.nodes[j].next_event_time().is_some()
            || self.nodes[j].blocked_count() > 0
            || state.flights.iter().any(|Reverse(f)| f.dest_node == j)
        {
            return Ok(());
        }
        let end = self.nodes[j].last_time();
        let r = state.admitted[k];
        for name in &self.output_names[j] {
            let values = self.nodes[j].read_output(name)?;
            state.results[r].outputs.insert(name.clone(), values);
        }
        let seg = self.nodes[j].take_segment_stats();
        state.stages[j].requests += 1;
        state.stages[j].occupied_cycles += end - state.seg_start[j];
        state.stages[j].blocked_cycles += seg.blocked_cycles;
        state.stages[j].last_retire = end;
        state.seg_stats[k][j] = Some(seg);
        state.resident[j] = None;
        state.free_at[j] = end;
        state.next_k[j] += 1;
        // Skip admitted positions the deadline watchdog aborted: their
        // segments must never start (admission accounting for them was
        // settled at the abort).
        while state.next_k[j] < state.admitted.len() && state.aborted[state.next_k[j]] {
            state.next_k[j] += 1;
        }
        state.retired_nodes[k] += 1;
        state.finish[k] = state.finish[k].max(end);
        if state.retired_nodes[k] == self.nodes.len() {
            let mut stats = RunStats::new();
            for seg in state.seg_stats[k].iter().flatten() {
                stats.merge(seg);
            }
            stats.cycles = state.finish[k] - state.first_start[k];
            state.results[r].start = state.first_start[k];
            state.results[r].finish = state.finish[k];
            state.results[r].stats = stats;
        }
        if state.next_k[j] < state.admitted.len() {
            let next_arrival = requests[state.admitted[state.next_k[j]]].arrival;
            state.start_sched[j] = Some(state.free_at[j].max(next_arrival));
        }
        Ok(())
    }
}

/// Mutable state of one [`PipelineSim::serve`] call, bundled so the
/// serve loop and [`PipelineSim::retire_if_quiescent`] share it without
/// threading a dozen loose parameters.
#[derive(Debug)]
struct ServeState {
    /// Next unprocessed arrival (index into the request slice).
    arr_ptr: usize,
    /// Admitted pos `k` → request index.
    admitted: Vec<usize>,
    /// Admitted requests whose entry-stage (node 0) segment has started.
    entry_started: usize,
    /// Per node: the admitted pos currently resident (`None` = free).
    resident: Vec<Option<usize>>,
    /// Per node: start cycle of the current segment.
    seg_start: Vec<u64>,
    /// Per node: completion cycle of the last retired segment.
    free_at: Vec<u64>,
    /// Per node: the admitted pos it serves next (stages process every
    /// admitted request in admission order).
    next_k: Vec<usize>,
    /// Per node: the scheduled start cycle of its next segment.
    start_sched: Vec<Option<u64>>,
    /// Per admitted pos: earliest segment start across nodes.
    first_start: Vec<u64>,
    /// Per admitted pos: latest retirement across nodes.
    finish: Vec<u64>,
    /// Per admitted pos: nodes that have retired it.
    retired_nodes: Vec<usize>,
    /// Per admitted pos: aborted by the deadline watchdog (stages skip
    /// it when advancing).
    aborted: Vec<bool>,
    /// Per admitted pos: per-node segment statistics.
    seg_stats: Vec<Vec<Option<RunStats>>>,
    /// In-flight inter-node packets (destination resident on the match).
    flights: BinaryHeap<Reverse<Flight>>,
    flight_seq: u64,
    /// Packets parked until `(node, admitted pos)` starts.
    held: HashMap<(usize, usize), Vec<HeldPacket>>,
    /// Per-request outcomes under construction (by request index).
    results: Vec<PipelineResult>,
    /// Per-stage occupancy under construction.
    stages: Vec<StageStats>,
    max_concurrent: usize,
    shed: usize,
}

impl ServeState {
    fn new(n_requests: usize, n_nodes: usize) -> Self {
        ServeState {
            arr_ptr: 0,
            admitted: Vec::new(),
            entry_started: 0,
            resident: vec![None; n_nodes],
            seg_start: vec![0; n_nodes],
            free_at: vec![0; n_nodes],
            next_k: vec![0; n_nodes],
            start_sched: vec![None; n_nodes],
            first_start: Vec::new(),
            finish: Vec::new(),
            retired_nodes: Vec::new(),
            aborted: Vec::new(),
            seg_stats: Vec::new(),
            flights: BinaryHeap::new(),
            flight_seq: 0,
            held: HashMap::new(),
            results: vec![PipelineResult::default(); n_requests],
            stages: vec![StageStats::default(); n_nodes],
            max_concurrent: 0,
            shed: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puma_core::config::{CoreConfig, MvmuConfig, TileConfig};
    use puma_core::ids::{CoreId, TileId};
    use puma_isa::asm::assemble;
    use puma_isa::{IoBinding, Program};

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

    /// Node 0 forwards its input "x" to node 1; node 1 doubles it into
    /// output "y". Node 0's shard is short (one send), node 1's is longer
    /// — the natural pipeline shape.
    fn two_stage_images() -> Vec<MachineImage> {
        let mut n0 = MachineImage::new(1, 2, 2);
        n0.tiles[0].program = asm_program("send @0 f3 t0 4 n1\nhalt\n");
        n0.inputs.push(IoBinding {
            name: "x".into(),
            tile: TileId::new(0),
            addr: 0,
            width: 4,
            count: 1,
        });
        let mut n1 = MachineImage::new(1, 2, 2);
        n1.tiles[0].program = asm_program("recv @8 f3 1 4\nhalt\n");
        n1.core_mut(TileId::new(0), CoreId::new(0)).program =
            asm_program("load r0 @8 4\nadd r4 r0 r0 4\nstore @32 r4 1 4\nhalt\n");
        n1.outputs.push(IoBinding {
            name: "y".into(),
            tile: TileId::new(0),
            addr: 32,
            width: 4,
            count: 1,
        });
        vec![n0, n1]
    }

    fn pipeline(images: &[MachineImage], engine: SimEngine) -> PipelineSim {
        let mut sim =
            PipelineSim::new(tiny_config(), images, SimMode::Functional, &NoiseModel::noiseless())
                .unwrap();
        sim.set_engine(engine);
        sim
    }

    fn request(arrival: u64, x: f32) -> PipelineRequest {
        PipelineRequest { arrival, writes: vec![("x".to_string(), vec![x; 4])] }
    }

    #[test]
    fn pipelined_requests_keep_their_own_data() {
        for engine in [SimEngine::Reference, SimEngine::Compiled] {
            let mut sim = pipeline(&two_stage_images(), engine);
            let requests: Vec<PipelineRequest> =
                (0..5).map(|i| request(0, 0.25 * (i + 1) as f32)).collect();
            let report = sim.serve(&[], &requests, None).unwrap();
            assert_eq!(report.shed, 0, "{engine:?}");
            for (i, result) in report.results.iter().enumerate() {
                assert!(result.admitted);
                let want = 0.5 * (i + 1) as f32;
                let got = &result.outputs["y"];
                assert_eq!(got, &vec![want; 4], "{engine:?}: request {i}");
                assert!(result.finish > result.start, "{engine:?}");
            }
            assert!(
                report.max_concurrent > 1,
                "{engine:?}: stage 0 must overlap with stage 1 ({report:?})"
            );
            assert_eq!(report.stages[0].requests, 5);
            assert_eq!(report.stages[1].requests, 5);
            assert!(report.makespan >= report.results[4].finish);
        }
    }

    #[test]
    fn engines_agree_on_the_pipeline_timeline() {
        let run = |engine: SimEngine| {
            let mut sim = pipeline(&two_stage_images(), engine);
            let requests: Vec<PipelineRequest> =
                (0..4).map(|i| request(100 * i, 0.1 * (i + 1) as f32)).collect();
            let report = sim.serve(&[], &requests, None).unwrap();
            report
                .results
                .iter()
                .map(|r| (r.outputs.clone(), r.start, r.finish, r.stats.clone()))
                .collect::<Vec<_>>()
        };
        let reference = run(SimEngine::Reference);
        assert_eq!(reference, run(SimEngine::Compiled));
    }

    #[test]
    fn serve_replays_identically() {
        let mut sim = pipeline(&two_stage_images(), SimEngine::Compiled);
        let requests: Vec<PipelineRequest> =
            (0..3).map(|i| request(50 * i, 0.2 * (i + 1) as f32)).collect();
        let a = sim.serve(&[], &requests, None).unwrap();
        let b = sim.serve(&[], &requests, None).unwrap();
        for (ra, rb) in a.results.iter().zip(b.results.iter()) {
            assert_eq!(ra.outputs, rb.outputs);
            assert_eq!((ra.start, ra.finish), (rb.start, rb.finish));
            assert_eq!(ra.stats, rb.stats);
        }
        assert_eq!(a.stages, b.stages);
    }

    #[test]
    fn pipelines_from_a_cluster_share_its_compiled_builds() {
        let cluster = ClusterSim::new(
            tiny_config(),
            &two_stage_images(),
            SimMode::Functional,
            &NoiseModel::noiseless(),
        )
        .unwrap();
        let mut sim = PipelineSim::from_cluster(cluster.fork_replica());
        for (a, b) in cluster.nodes().iter().zip(&sim.nodes) {
            let (a, b) = (a.compiled.as_ref().unwrap(), b.compiled.as_ref().unwrap());
            assert!(std::sync::Arc::ptr_eq(a, b), "the pipeline must share the build");
        }
        let requests: Vec<PipelineRequest> =
            (0..3).map(|i| request(50 * i, 0.2 * (i + 1) as f32)).collect();
        let ours = sim.serve(&[], &requests, None).unwrap();
        let theirs =
            pipeline(&two_stage_images(), SimEngine::Compiled).serve(&[], &requests, None).unwrap();
        for (a, b) in ours.results.iter().zip(&theirs.results) {
            assert_eq!(
                (&a.outputs, a.start, a.finish, &a.stats),
                (&b.outputs, b.start, b.finish, &b.stats)
            );
        }
    }

    #[test]
    fn bounded_queue_sheds_at_admission() {
        let mut sim = pipeline(&two_stage_images(), SimEngine::default());
        // All requests arrive at once; with no waiting room only the one
        // that finds the entry stage idle is admitted.
        let requests: Vec<PipelineRequest> =
            (0..4).map(|i| request(0, 0.1 * (i + 1) as f32)).collect();
        let report = sim.serve(&[], &requests, Some(0)).unwrap();
        assert!(report.results[0].admitted);
        assert_eq!(report.shed, 3);
        assert!(!report.results[1].admitted && report.results[1].outputs.is_empty());
        // A depth-2 queue admits the first three.
        let report = sim.serve(&[], &requests, Some(2)).unwrap();
        assert_eq!(report.shed, 1);
        assert_eq!(
            report.results.iter().filter(|r| r.admitted).count(),
            3,
            "one in service + two queued"
        );
    }

    #[test]
    fn pipeline_deadlock_names_the_blocked_synchronization() {
        // Node 1 waits on a FIFO nobody feeds.
        let mut n1 = MachineImage::new(1, 2, 2);
        n1.tiles[0].program = asm_program("recv @8 f3 1 4\nhalt\n");
        let images = vec![MachineImage::new(1, 2, 2), n1];
        let mut sim = pipeline(&images, SimEngine::default());
        let requests = vec![PipelineRequest { arrival: 0, writes: vec![] }];
        match sim.serve(&[], &requests, None) {
            Err(PumaError::Deadlock { what, .. }) => {
                assert!(what.contains("node1/request0/tile0/ctl"), "{what}");
                assert!(what.contains("fifo f3"), "{what}");
            }
            other => panic!("expected pipeline deadlock, got {other:?}"),
        }
    }

    #[test]
    fn unsorted_arrivals_are_rejected() {
        let mut sim = pipeline(&two_stage_images(), SimEngine::default());
        let requests = vec![request(10, 0.1), request(5, 0.2)];
        assert!(matches!(sim.serve(&[], &requests, None), Err(PumaError::InvalidConfig { .. })));
    }

    #[test]
    fn stage_occupancy_accounts_blocking() {
        let mut sim = pipeline(&two_stage_images(), SimEngine::default());
        let requests: Vec<PipelineRequest> =
            (0..3).map(|i| request(0, 0.1 * (i + 1) as f32)).collect();
        let report = sim.serve(&[], &requests, None).unwrap();
        for stage in &report.stages {
            assert!(stage.occupied_cycles > 0);
            assert!(stage.last_retire > 0);
        }
        // Stage 1 spends part of its residency blocked on the recv (the
        // count sums over agents, so it can exceed the wall-clock span).
        assert!(report.stages[1].blocked_cycles > 0);
    }
}
