//! PipelineSim: *pipeline sharding* over the nodes of one sharded model.
//!
//! Where [`ClusterSim`] runs one request at a time across all its nodes,
//! [`PipelineSim`] serves a request *stream* with **different requests
//! resident on different nodes**: node 0 starts request r+1 once it
//! retires its shard of request r, while later stages still work on r, so
//! throughput is set by the slowest *stage*, not the end-to-end latency.
//!
//! The request model: requests arrive at given cycles, in arrival order,
//! and wait in a bounded queue for the *entry stage* (node 0), or are
//! **shed** — rejected without executing — when it is full. Every stage
//! serves the admitted requests in admission order, one *segment* each
//! ([`NodeSim::begin_segment`]: state resets, the clock stays global), and
//! retires it once quiescent, reading its outputs then. An optional
//! deadline watchdog aborts a request still unfinished `deadline` cycles
//! after its arrival and reclaims its stages.
//!
//! The stepping is the co-simulation core of [`crate::cluster`].

use crate::cluster::{ClusterSim, Flight, Work};
use crate::machine::{NodeSim, SimEngine, SimMode};
use crate::stats::RunStats;
use puma_core::config::NodeConfig;
use puma_core::error::{PumaError, Result};
use puma_core::timing::InterconnectConfig;
use puma_isa::MachineImage;
use puma_xbar::NoiseModel;
use std::collections::HashMap;

/// One request submitted to [`PipelineSim::serve`].
#[derive(Debug, Clone)]
pub struct PipelineRequest {
    /// Simulated cycle at which the request arrives at the queue.
    pub arrival: u64,
    /// Host writes performed when a node starts this request's segment:
    /// `(input-binding name, values)`, routed to the node that owns the
    /// binding. Writes every request shares (model constants) go in
    /// [`PipelineSim::serve`]'s `common_writes` instead.
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
    /// Summed per-node segment statistics; `cycles` is the residency span
    /// `finish − start`.
    pub stats: RunStats,
    /// The typed fault of a deadline abort
    /// ([`PipelineSim::serve_with_deadline`]); `None` otherwise.
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
    /// Agent-cycles parked on synchronization while resident (waiting
    /// for packets from neighbouring stages).
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
    /// Most completed requests in service at once, by [`max_concurrent`]
    /// over their `[start, finish)` windows — `> 1` proves the pipeline
    /// overlapped requests.
    pub max_concurrent: usize,
    /// Requests shed at admission.
    pub shed: usize,
    /// Cycle the last admitted request finished (0 if none).
    pub makespan: u64,
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
    cluster: ClusterSim,
}

impl PipelineSim {
    /// Builds one simulator per image over the default interconnect, as
    /// [`ClusterSim::new`] does (same errors).
    pub fn new(
        cfg: NodeConfig,
        images: &[MachineImage],
        mode: SimMode,
        noise: &NoiseModel,
    ) -> Result<Self> {
        Self::with_interconnect(cfg, images, mode, noise, InterconnectConfig::default())
    }

    /// [`PipelineSim::new`] with an explicit interconnect model (same
    /// errors).
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

    /// Serves a cluster's nodes as pipeline stages. A pipeline over
    /// [`ClusterSim::fork_replica`] shares the programs, programmed
    /// crossbars and compiled micro-op build, so it costs no rebuild.
    pub fn from_cluster(cluster: ClusterSim) -> PipelineSim {
        PipelineSim { cluster }
    }

    /// Number of pipeline stages (nodes).
    pub fn node_count(&self) -> usize {
        self.cluster.node_count()
    }

    /// Selects the execution engine on every node.
    pub fn set_engine(&mut self, engine: SimEngine) {
        self.cluster.set_engine(engine);
    }

    /// Overrides the runaway-simulation safety cap on every node, on the
    /// *global* clock all requests of a serve call share.
    pub fn set_max_cycles(&mut self, max_cycles: u64) {
        self.cluster.set_max_cycles(max_cycles);
    }

    /// Serves a stream of requests through the pipeline and returns
    /// per-request outcomes plus per-stage occupancy.
    ///
    /// `common_writes` start *every* request's segment, before its own
    /// writes. `requests` are sorted by arrival; `queue_depth` bounds the
    /// entry queue (`None` = unbounded, `Some(0)` = admit only to an idle
    /// entry stage). Each call starts clean at cycle 0, deterministically.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::InvalidConfig`] for unsorted arrivals,
    /// [`PumaError::Deadlock`] when the pipeline quiesces with requests
    /// still in flight (naming each blocked node/tile/agent and what it
    /// waits on), and propagates per-node execution faults.
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
    /// after its arrival is aborted at exactly `arrival + deadline`, after
    /// every stage's work up to that cycle and before any past it. Its
    /// stages free at the abort cycle, its in-flight and held packets are
    /// dropped, and its [`PipelineResult::error`] is a
    /// [`PumaError::FaultedTile`] when an injected tile death fired on a
    /// stage serving it, else [`PumaError::DeadlineExceeded`], naming the
    /// stalled agents. The serve itself still succeeds, and replays
    /// bit-identically across engines.
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
        self.cluster.reset();
        let n_nodes = self.cluster.node_count();
        let lat = self.cluster.link_latency();
        let mut state = ServeState {
            resident: vec![None; n_nodes],
            seg_start: vec![0; n_nodes],
            free_at: vec![0; n_nodes],
            next_k: vec![0; n_nodes],
            start_sched: vec![None; n_nodes],
            results: vec![PipelineResult::default(); requests.len()],
            stages: vec![StageStats::default(); n_nodes],
            deadline,
            ..ServeState::default()
        };

        // The next action, by (cycle, rank, node): deliveries, segment
        // starts, node steps, arrivals, then aborts. Steps precede
        // same-cycle arrivals, so a departure at T is visible to an arrival
        // at T; aborts come last, so a request finishing at its deadline
        // completes.
        #[derive(PartialEq, Eq, PartialOrd, Ord)]
        enum Action {
            Core(Work),
            Start(usize),
            Arrive,
            Abort(usize),
        }

        loop {
            let t_core = self
                .cluster
                .next_work(|j| state.resident[j].is_some())
                .map(|(t, w)| (t, if w == Work::Deliver { 0 } else { 2 }, Action::Core(w)));
            let t_start = state
                .start_sched
                .iter()
                .enumerate()
                .filter_map(|(j, s)| s.map(|s| (s, 1, Action::Start(j))))
                .min();
            let t_arrive = requests.get(state.arr_ptr).map(|r| (r.arrival, 3, Action::Arrive));
            // Requests finish in admission order, so the first unfinished
            // one has the earliest deadline.
            let t_abort = deadline.and_then(|d| {
                let k = state.admitted.iter().position(|a| a.retired < n_nodes)?;
                Some((
                    requests[state.admitted[k].index].arrival.saturating_add(d),
                    4,
                    Action::Abort(k),
                ))
            });
            let stop = t_abort.as_ref().map_or(u64::MAX, |&(at, _, _)| at);
            let Some((_, _, action)) =
                [t_core, t_start, t_arrive, t_abort].into_iter().flatten().min()
            else {
                break;
            };
            match action {
                Action::Core(work) => {
                    // A scheduled start can send from latency + 1 cycles
                    // after it.
                    let floor = state
                        .start_sched
                        .iter()
                        .flatten()
                        .min()
                        .map_or(u64::MAX, |t| t.saturating_add(lat));
                    let route = |j: usize, mut flight: Flight| {
                        let k = state.resident[j].expect("only resident nodes are stepped");
                        let dest = flight.dest_node;
                        if state.next_k[dest] > k {
                            return Err(PumaError::Execution {
                                what: format!(
                                    "node{j} sent a packet for request {} to node{dest}, which \
                                     already retired that request (un-received send in the \
                                     sharded program?)",
                                    state.admitted[k].index
                                ),
                            });
                        }
                        flight.req = k;
                        if state.resident[dest] == Some(k) {
                            return Ok(Some(flight));
                        }
                        state.held.entry((dest, k)).or_default().push(flight);
                        Ok(None)
                    };
                    let active = |j: usize| state.resident[j].is_some();
                    self.cluster.advance(work, active, floor, stop, route)?;
                    if let Work::Step(j) = work {
                        self.retire_if_quiescent(j, &mut state, requests)?;
                    }
                }
                Action::Start(j) => {
                    let s = state.start_sched[j].take().expect("selected above");
                    let k = state.next_k[j];
                    let r = state.admitted[k].index;
                    let node = &mut self.cluster.nodes[j];
                    node.begin_segment(s)?;
                    for (name, values) in common_writes.iter().chain(&requests[r].writes) {
                        if node.has_input(name) {
                            node.write_input(name, values)?;
                        }
                    }
                    if let Some(mut packets) = state.held.remove(&(j, k)) {
                        packets.sort();
                        for p in packets {
                            let at = p.arrive_at.max(s);
                            p.deliver(node, at)?;
                        }
                    }
                    state.resident[j] = Some(k);
                    state.seg_start[j] = s;
                    if j == 0 {
                        state.entry_started += 1;
                    }
                    state.admitted[k].first_start = state.admitted[k].first_start.min(s);
                    // A stage with no work for this request quiesces at once.
                    self.retire_if_quiescent(j, &mut state, requests)?;
                }
                Action::Arrive => {
                    let r = state.arr_ptr;
                    state.arr_ptr += 1;
                    let t = requests[r].arrival;
                    let waiting = state.admitted.len() - state.entry_started;
                    // The entry stage is idle only once its last segment's
                    // span has elapsed (`free_at`), however early the
                    // engine processed the retirement.
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
                    state.admitted.push(Admitted {
                        index: r,
                        first_start: u64::MAX,
                        segments: vec![None; n_nodes],
                        ..Admitted::default()
                    });
                    state.results[r].admitted = true;
                    for j in 0..n_nodes {
                        if state.next_k[j] == k && state.idle(j) {
                            state.schedule(j, requests, 0);
                        }
                    }
                }
                Action::Abort(k) => {
                    let d = deadline.expect("abort scheduled only under a deadline");
                    let r = state.admitted[k].index;
                    let at = requests[r].arrival.saturating_add(d);
                    let on_k = |j: usize| state.resident[j] == Some(k);
                    let what = |stalls: Vec<String>| match stalls.join(", ") {
                        s if s.is_empty() => {
                            format!("request {r} still executing at its {d}-cycle deadline")
                        }
                        s => format!("request {r} stalled at its {d}-cycle deadline: {s}"),
                    };
                    let exceeded = |what| PumaError::DeadlineExceeded { cycle: at, what };
                    let label = |j: usize| on_k(j).then(String::new);
                    state.results[r].error = Some(self.cluster.stall(label, on_k, what, exceeded));
                    // Reclaim its stages (freed at the abort cycle; the
                    // entry stage counts it started) and its packets.
                    if state.resident[0] != Some(k) && state.next_k[0] <= k {
                        state.entry_started += 1;
                    }
                    self.cluster.in_flight.retain(|f| f.0.req != k);
                    state.held.retain(|&(_, kk), _| kk != k);
                    for j in 0..n_nodes {
                        if state.next_k[j] == k {
                            state.start_sched[j] = None;
                        }
                        if state.resident[j] == Some(k) {
                            // The next begin_segment wipes the machine.
                            let _ = self.cluster.nodes[j].take_segment_stats();
                            state.resident[j] = None;
                            state.free_at[j] = state.free_at[j].max(at);
                            state.next_k[j] += 1;
                        } else if state.next_k[j] == k {
                            state.next_k[j] += 1;
                        }
                        if state.idle(j) {
                            state.schedule(j, requests, at);
                        }
                    }
                    let a = &mut state.admitted[k];
                    (a.aborted, a.retired, a.finish) = (true, n_nodes, at);
                    state.results[r].start =
                        if a.first_start == u64::MAX { 0 } else { a.first_start };
                    state.results[r].finish = at;
                }
            }
        }

        // Quiescent with an admitted request not retired everywhere: a
        // pipeline deadlock (packets still held are named too).
        if state.admitted.iter().any(|a| a.retired < n_nodes) {
            let parked: usize = state.held.values().map(Vec::len).sum();
            let cycle = self.cluster.nodes.iter().map(NodeSim::last_time).max().unwrap_or(0);
            let label = |j: usize| {
                state.resident[j].map(|k| format!("request{}/", state.admitted[k].index))
            };
            let what = |mut stalls: Vec<String>| {
                if parked > 0 {
                    stalls.push(format!("{parked} packets held for requests that never started"));
                }
                format!("pipeline quiescent with {} stalls: {}", stalls.len(), stalls.join(", "))
            };
            let deadlock = |what| PumaError::Deadlock { cycle, what };
            return Err(self.cluster.stall(label, |_| true, what, deadlock));
        }

        let makespan = state.admitted.iter().map(|a| a.finish).max().unwrap_or(0);
        let completed = state.results.iter().filter(|r| r.admitted && r.error.is_none());
        let max_concurrent = max_concurrent(completed.map(|r| (r.start, r.finish)));
        Ok(PipelineReport {
            results: state.results,
            stages: state.stages,
            max_concurrent,
            shed: state.shed,
            makespan,
        })
    }

    /// Retires node `j`'s segment once it is quiescent (no queued events,
    /// no blocked agents, no packet in flight to it): reads its outputs,
    /// folds its statistics into the request, schedules its next segment.
    fn retire_if_quiescent(
        &mut self,
        j: usize,
        state: &mut ServeState,
        requests: &[PipelineRequest],
    ) -> Result<()> {
        let Some(k) = state.resident[j] else { return Ok(()) };
        let node = &self.cluster.nodes[j];
        if node.next_event_time().is_some() || node.blocked_count() > 0 || self.cluster.inbound(j) {
            return Ok(());
        }
        let end = node.last_time();
        let r = state.admitted[k].index;
        // A segment that ran past its request's deadline is the
        // watchdog's to reclaim, as if its last events were still queued.
        if state.deadline.is_some_and(|d| end > requests[r].arrival.saturating_add(d)) {
            return Ok(());
        }
        for name in node.output_names() {
            let values = node.read_output(name)?;
            state.results[r].outputs.insert(name.to_string(), values);
        }
        let seg = self.cluster.nodes[j].take_segment_stats();
        let stage = &mut state.stages[j];
        stage.requests += 1;
        stage.occupied_cycles += end - state.seg_start[j];
        stage.blocked_cycles += seg.blocked_cycles;
        stage.last_retire = end;
        state.resident[j] = None;
        state.free_at[j] = end;
        state.next_k[j] += 1;
        // Requests the watchdog aborted never start.
        while state.admitted.get(state.next_k[j]).is_some_and(|a| a.aborted) {
            state.next_k[j] += 1;
        }
        let a = &mut state.admitted[k];
        a.segments[j] = Some(seg);
        a.retired += 1;
        a.finish = a.finish.max(end);
        if a.retired == self.cluster.node_count() {
            let mut stats = RunStats::new();
            for seg in a.segments.iter().flatten() {
                stats.merge(seg);
            }
            stats.cycles = a.finish - a.first_start;
            let result = &mut state.results[r];
            (result.start, result.finish, result.stats) = (a.first_start, a.finish, stats);
        }
        state.schedule(j, requests, 0);
        Ok(())
    }
}

/// Most requests in service at once, over each one's `[start, finish)`
/// window in virtual time (a window closing at a cycle ends before one
/// opening there).
pub fn max_concurrent(windows: impl IntoIterator<Item = (u64, u64)>) -> usize {
    let mut edges: Vec<(u64, i64)> =
        windows.into_iter().flat_map(|(start, finish)| [(start, 1), (finish, -1)]).collect();
    edges.sort_unstable();
    let (mut open, mut max) = (0i64, 0i64);
    for (_, delta) in edges {
        open += delta;
        max = max.max(open);
    }
    max as usize
}

/// One admitted request's progress through the stages.
#[derive(Debug, Default)]
struct Admitted {
    /// Index into the submitted requests.
    index: usize,
    /// Earliest segment start across stages.
    first_start: u64,
    /// Latest retirement across stages.
    finish: u64,
    /// Stages that have retired it.
    retired: usize,
    /// Aborted by the deadline watchdog.
    aborted: bool,
    /// Per-stage segment statistics.
    segments: Vec<Option<RunStats>>,
}

/// Mutable state of one [`PipelineSim::serve`] call. Per-node vectors
/// are indexed by stage; `k` is an admitted position.
#[derive(Debug, Default)]
struct ServeState {
    /// Next unprocessed arrival (index into the request slice).
    arr_ptr: usize,
    admitted: Vec<Admitted>,
    /// Admitted requests whose entry-stage segment has started.
    entry_started: usize,
    /// The `k` resident on each node (`None` = free).
    resident: Vec<Option<usize>>,
    /// Start cycle of each node's current segment.
    seg_start: Vec<u64>,
    /// Completion cycle of each node's last segment.
    free_at: Vec<u64>,
    /// The `k` each node serves next (admission order).
    next_k: Vec<usize>,
    /// The scheduled start cycle of each node's next segment.
    start_sched: Vec<Option<u64>>,
    /// Packets parked until `(node, k)` starts.
    held: HashMap<(usize, usize), Vec<Flight>>,
    /// Per-request outcomes, by request index.
    results: Vec<PipelineResult>,
    stages: Vec<StageStats>,
    shed: usize,
    deadline: Option<u64>,
}

impl ServeState {
    /// Whether node `j` neither holds a request nor has a start scheduled.
    fn idle(&self, j: usize) -> bool {
        self.resident[j].is_none() && self.start_sched[j].is_none()
    }

    /// Schedules node `j`'s next segment, if it has one, once the node is
    /// free, the request has arrived, and `not_before` has passed.
    fn schedule(&mut self, j: usize, requests: &[PipelineRequest], not_before: u64) {
        if let Some(next) = self.admitted.get(self.next_k[j]) {
            let from = self.free_at[j].max(requests[next.index].arrival);
            self.start_sched[j] = Some(from.max(not_before));
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
        for (a, b) in cluster.nodes().iter().zip(sim.cluster.nodes()) {
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
    fn unreceived_internode_send_fails_the_pipeline_but_not_the_cluster() {
        // Node 0 sends to a node 1 that never receives. Run alone, the
        // cluster completes and leaves the packet in node 1's FIFO; served,
        // node 1 retires its empty segment first and the send is rejected.
        let mut images = two_stage_images();
        images[1] = MachineImage::new(1, 2, 2);
        for engine in [SimEngine::Reference, SimEngine::Compiled] {
            let mut cluster = ClusterSim::new(
                tiny_config(),
                &images,
                SimMode::Functional,
                &NoiseModel::noiseless(),
            )
            .unwrap();
            cluster.set_engine(engine);
            cluster.write_input("x", &[0.5; 4]).unwrap();
            cluster.run().unwrap();
            assert_eq!(cluster.stats().internode_words, 4, "{engine:?}");
            assert_eq!(cluster.nodes()[1].fifos.queued_packets(0), 1, "{engine:?}");
            match pipeline(&images, engine).serve(&[], &[request(0, 0.5)], None) {
                Err(PumaError::Execution { what }) => assert_eq!(
                    what,
                    "node0 sent a packet for request 0 to node1, which already retired that \
                     request (un-received send in the sharded program?)",
                    "{engine:?}"
                ),
                other => panic!("{engine:?}: expected the un-received send fault, got {other:?}"),
            }
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
