//! Host-side glue: compile a model graph, load it into the simulator,
//! write inputs, run, and read back outputs by logical name.
//!
//! Four entry points, from one-shot to sustained traffic:
//!
//! - [`ModelRunner`] — one simulator instance, one inference at a time;
//! - [`ServeRunner`] — the serving stack: a standing pool of simulated
//!   workers fed by an arrival-time-ordered submission queue with bounded
//!   depth (overload is **shed**, not buffered without limit), reporting
//!   per-request latency in deterministic simulated cycles and p50/p95/p99
//!   percentiles. Sharded models can serve **pipelined**: different
//!   requests simultaneously resident on different nodes
//!   ([`puma_sim::PipelineSim`]).
//! - [`BatchRunner`] — a thin wrapper over the serving stack for one-shot
//!   batches: `run_batch` ≡ serve with every arrival at cycle 0 and an
//!   unbounded queue (Fig. 11's batching scenario).
//! - [`TenantServer`] — multi-tenant serving: several catalog models
//!   ([`ModelCatalog`]) placed first-fit onto one fabric's tile capacity
//!   ([`FabricSpec`]), concurrently resident on disjoint tile ranges,
//!   each serving its own request stream with per-model queues, shed,
//!   latency percentiles, and queue-depth-driven replica autoscaling
//!   ([`ScalePolicy`]).
//!
//! All entry points serve models compiled with
//! [`puma_compiler::Partitioning::Sharded`] transparently: the compiled
//! image is split into per-node programs and each worker drives a
//! [`ClusterSim`] instead of a [`NodeSim`] (§3.1 node scale-out).
//!
//! # Determinism
//!
//! Outputs, per-request statistics, latencies, and shed decisions are all
//! functions of the request schedule alone — *never* of the host thread
//! count. Host threads only parallelize the simulation work; the serving
//! timeline is computed on the simulated clock, so percentiles are
//! bit-reproducible and CI-gateable. Multi-tenant serving also lets the
//! schedule gate the simulation: it needs a request's duration only when
//! the request starts, so a request it sheds is never simulated.

use puma_compiler::{
    compile, compose_fabric, fit_config, CompiledModel, CompilerOptions, Resident,
};
use puma_core::config::NodeConfig;
use puma_core::error::{PumaError, Result};
use puma_core::fixed::Fixed;
use puma_core::timing::TrafficPattern;
use puma_isa::MachineImage;
use puma_sim::{
    ClusterSim, NodeSim, PipelineRequest, PipelineSim, ResidentModel, RunStats, SimEngine, SimMode,
    StageStats,
};
use puma_xbar::NoiseModel;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Flattened per-binding host writes for one request (constants + input
/// chunks), as consumed by [`PipelineRequest::writes`].
type RequestWrites = Vec<(String, Vec<f32>)>;

/// Requests one simulator pass of replicated functional serving serves
/// at most, one per data lane (see the "Lanes" section of
/// [`puma_sim::machine`]). Four lanes keep lanes 2–4 of each crossbar's
/// weights in cache and cost about 1 MiB of resident state per MLPL4
/// replica; eight would cost about five.
const LANES: usize = 4;

/// One simulator instance: a single node, or a cluster of nodes executing
/// a sharded model. Presents the uniform write/run/read surface the
/// runners drive.
#[derive(Debug)]
enum SimBackend {
    Node(Box<NodeSim>),
    Cluster(Box<ClusterSim>),
}

impl SimBackend {
    /// Resets for a pass of `live` requests, one per lane (a cluster has
    /// one lane).
    fn reset_lanes(&mut self, live: usize) -> Result<()> {
        match self {
            SimBackend::Node(s) => s.reset_lanes(live),
            SimBackend::Cluster(s) if live == 1 => {
                s.reset();
                Ok(())
            }
            SimBackend::Cluster(_) => Err(PumaError::InvalidConfig {
                what: format!("{live} live lanes on a one-lane cluster"),
            }),
        }
    }

    fn set_engine(&mut self, engine: SimEngine) {
        match self {
            SimBackend::Node(s) => s.set_engine(engine),
            SimBackend::Cluster(s) => s.set_engine(engine),
        }
    }

    fn write_input_fixed(&mut self, name: &str, values: &[Fixed]) -> Result<()> {
        match self {
            SimBackend::Node(s) => s.write_input_fixed(name, values),
            SimBackend::Cluster(s) => s.write_input_fixed(name, values),
        }
    }

    /// Writes one request's chunk per live lane (a cluster has one lane).
    fn write_input_lanes(&mut self, name: &str, lanes: &[&[f32]]) -> Result<()> {
        match (self, lanes) {
            (SimBackend::Node(s), _) => s.write_input_lanes(name, lanes),
            (SimBackend::Cluster(s), [one]) => s.write_input(name, one),
            (SimBackend::Cluster(_), _) => Err(PumaError::Execution {
                what: format!("{} input lanes for a one-lane cluster", lanes.len()),
            }),
        }
    }

    fn read_output_lane(&self, name: &str, lane: usize) -> Result<Vec<f32>> {
        match self {
            SimBackend::Node(s) => s.read_output_lane(name, lane),
            SimBackend::Cluster(s) if lane == 0 => s.read_output(name),
            SimBackend::Cluster(_) => {
                Err(PumaError::Execution { what: format!("lane {lane} of a one-lane cluster") })
            }
        }
    }

    /// Data lanes allocated: the most requests one run can serve.
    fn lanes(&self) -> usize {
        match self {
            SimBackend::Node(s) => s.lanes(),
            SimBackend::Cluster(_) => 1,
        }
    }

    fn run(&mut self) -> Result<&RunStats> {
        match self {
            SimBackend::Node(s) => s.run(),
            SimBackend::Cluster(s) => s.run(),
        }
    }

    /// Runs only the named resident model's tiles to completion (the
    /// multi-tenant request path); every other resident stays idle, so
    /// the run's statistics are attributed to `name` alone.
    fn run_resident(&mut self, name: &str) -> Result<&RunStats> {
        match self {
            SimBackend::Node(s) => s.run_resident(name),
            SimBackend::Cluster(s) => s.run_resident(name),
        }
    }

    /// Registers the resident models of node `node` (tile allocations by
    /// name), enabling [`SimBackend::run_resident`] and model-tagged
    /// fault/deadlock diagnostics.
    fn set_residents(&mut self, node: usize, residents: Vec<ResidentModel>) -> Result<()> {
        match self {
            SimBackend::Node(s) => {
                debug_assert_eq!(node, 0, "single-node backends have one node");
                s.set_residents(residents)
            }
            SimBackend::Cluster(s) => s.set_residents(node, residents),
        }
    }

    fn stats(&self) -> &RunStats {
        match self {
            SimBackend::Node(s) => s.stats(),
            SimBackend::Cluster(s) => s.stats(),
        }
    }

    /// Forks a fresh worker replica with `lanes` data lanes (see
    /// [`NodeSim::fork_lanes`]; a cluster has one lane): programs,
    /// programmed crossbars, and the compiled micro-op build are `Arc`-shared with
    /// the original; only the state arenas and accumulators are allocated
    /// anew. This replaces re-running construction (and crossbar
    /// programming) per worker.
    fn fork_lanes(&self, lanes: usize) -> Result<SimBackend> {
        match self {
            SimBackend::Node(s) => Ok(SimBackend::Node(Box::new(s.fork_lanes(lanes)?))),
            SimBackend::Cluster(s) if lanes == 1 => {
                Ok(SimBackend::Cluster(Box::new(s.fork_replica())))
            }
            SimBackend::Cluster(_) => Err(PumaError::InvalidConfig {
                what: format!("{lanes} lanes for a sharded model, which runs one"),
            }),
        }
    }

    /// Approximate bytes of per-replica mutable state (the marginal
    /// footprint of one more pool worker; shared artifacts excluded).
    fn state_bytes(&self) -> usize {
        match self {
            SimBackend::Node(s) => s.state_bytes(),
            SimBackend::Cluster(s) => s.state_bytes(),
        }
    }

    /// Nodes one request runs on.
    fn node_count(&self) -> usize {
        match self {
            SimBackend::Node(_) => 1,
            SimBackend::Cluster(s) => s.node_count(),
        }
    }
}

/// Builds the simulator matching the compiled model's partitioning: a
/// plain [`NodeSim`] for single-node models, a [`ClusterSim`] over the
/// pre-sharded `images` otherwise.
fn build_backend(
    cfg: &NodeConfig,
    images: &[MachineImage],
    mode: SimMode,
    noise: &NoiseModel,
) -> Result<SimBackend> {
    match images {
        [single] => Ok(SimBackend::Node(Box::new(NodeSim::new(*cfg, single, mode, noise)?))),
        many => Ok(SimBackend::Cluster(Box::new(ClusterSim::new(*cfg, many, mode, noise)?))),
    }
}

/// A model's host I/O, resolved once per runner or deployment: the
/// constants pre-converted to Q4.12 and the binding name of every input
/// and output chunk (`"{model}:{chunk}"` for a tenant on a shared fabric),
/// so the request path neither converts constants nor formats names.
#[derive(Debug)]
struct IoPlan {
    /// Constant writes `(binding, values)`, in the compiler's order.
    consts: Vec<(String, Vec<Fixed>)>,
    /// Chunk binding names of each logical input, in compiler order.
    inputs: Vec<Vec<String>>,
    /// Chunk binding names of each logical output, in compiler order.
    outputs: Vec<Vec<String>>,
}

impl IoPlan {
    /// The plan of `compiled` with every binding name prefixed by `prefix`.
    fn new(compiled: &CompiledModel, prefix: &str) -> Self {
        let bind = |chunks: &[String]| chunks.iter().map(|c| format!("{prefix}{c}")).collect();
        IoPlan {
            consts: compiled
                .const_data
                .iter()
                .map(|(binding, values)| {
                    let fixed = values.iter().copied().map(Fixed::from_f32).collect();
                    (format!("{prefix}{}", binding.name), fixed)
                })
                .collect(),
            inputs: compiled.inputs.iter().map(|io| bind(&io.chunks)).collect(),
            outputs: compiled.outputs.iter().map(|io| bind(&io.chunks)).collect(),
        }
    }
}

/// Validates a request's inputs against the compiled I/O layout (every
/// logical input present, at its declared width) and streams each
/// per-binding chunk, under its planned binding name, to `emit` — the
/// single copy of the host-side input contract shared by direct
/// execution, input validation, and pipeline write preparation.
fn for_each_input_chunk<'a, S: AsRef<str>>(
    compiled: &CompiledModel,
    plan: &'a IoPlan,
    inputs: &'a [(S, Vec<f32>)],
    emit: &mut dyn FnMut(&'a str, &'a [f32]) -> Result<()>,
) -> Result<()> {
    for (io, chunks) in compiled.inputs.iter().zip(&plan.inputs) {
        let (_, data) = inputs
            .iter()
            .find(|(n, _)| n.as_ref() == io.name)
            .ok_or_else(|| PumaError::Execution { what: format!("missing input {:?}", io.name) })?;
        if data.len() != io.width {
            return Err(PumaError::ShapeMismatch { expected: io.width, actual: data.len() });
        }
        let mut offset = 0;
        for (chunk, &w) in chunks.iter().zip(io.chunk_widths.iter()) {
            emit(chunk, &data[offset..offset + w])?;
            offset += w;
        }
    }
    Ok(())
}

/// Runs one pass: request `l` of `requests` in data lane `l`. Validates
/// every request first, writes the constants once for all lanes and each
/// input chunk once per pass, runs the simulator to completion — only the
/// named resident's tiles when `resident` is set — and reads back every
/// lane's logical outputs.
fn run_pass<S: AsRef<str>>(
    sim: &mut SimBackend,
    compiled: &CompiledModel,
    plan: &IoPlan,
    requests: &[&[(S, Vec<f32>)]],
    resident: Option<&str>,
) -> Result<Vec<HashMap<String, Vec<f32>>>> {
    let mut chunks: Vec<Vec<(&str, &[f32])>> = Vec::with_capacity(requests.len());
    for inputs in requests {
        let mut lane = Vec::new();
        for_each_input_chunk(compiled, plan, inputs, &mut |chunk, data| {
            lane.push((chunk, data));
            Ok(())
        })?;
        chunks.push(lane);
    }
    for (binding, values) in &plan.consts {
        sim.write_input_fixed(binding, values)?;
    }
    let mut lanes = Vec::with_capacity(requests.len());
    for (k, &(chunk, _)) in chunks.first().map_or(&[][..], Vec::as_slice).iter().enumerate() {
        lanes.clear();
        lanes.extend(chunks.iter().map(|lane| lane[k].1));
        sim.write_input_lanes(chunk, &lanes)?;
    }
    match resident {
        Some(model) => sim.run_resident(model)?,
        None => sim.run()?,
    };
    (0..requests.len())
        .map(|lane| {
            let mut out = HashMap::with_capacity(compiled.outputs.len());
            for (io, chunks) in compiled.outputs.iter().zip(&plan.outputs) {
                let mut data = Vec::with_capacity(io.width);
                for chunk in chunks {
                    data.extend(sim.read_output_lane(chunk, lane)?);
                }
                out.insert(io.name.clone(), data);
            }
            Ok(out)
        })
        .collect()
}

/// [`run_pass`] on a simulator freshly reset to one live lane per
/// request: one served request per lane, each with the pass's
/// statistics, which every lane shares. A pass that fails fails every
/// lane with the same error: control never depends on lane data, so each
/// request's solo run fails identically.
fn serve_pass(
    sim: &mut SimBackend,
    compiled: &CompiledModel,
    plan: &IoPlan,
    requests: &[&[(String, Vec<f32>)]],
    resident: Option<&str>,
) -> Vec<Result<RequestResult>> {
    let pass = sim
        .reset_lanes(requests.len())
        .and_then(|()| run_pass(sim, compiled, plan, requests, resident));
    match pass {
        Ok(outputs) => outputs
            .into_iter()
            .map(|outputs| Ok(RequestResult { outputs, stats: sim.stats().clone() }))
            .collect(),
        Err(e) => requests.iter().map(|_| Err(e.clone())).collect(),
    }
}

/// Simulates one pass of [`run_pool`]: the jobs of a range, one per lane,
/// returning each job's result in order.
type Pass<'a> = dyn Fn(&mut SimBackend, Range<usize>) -> Vec<Result<RequestResult>> + Sync + 'a;

/// Simulates jobs `0..jobs` across the host-thread pool and returns each
/// job's result (`None` for a job `gate` skipped) plus the host threads
/// used. Threads claim runs of up to `lanes` consecutive jobs in index
/// order from a shared cursor (one `fetch_add` per pass, never a wait),
/// simulate each run as one pass, and check a simulator out of `idle` —
/// building one with `build` on first use — returning it when the cursor
/// runs out. This is the one execution core of replicated and
/// multi-tenant serving.
///
/// With a `gate`, passes are single jobs: a thread skips a claim the
/// schedule has already shed and reports every simulated duration back
/// to it (see [`ScheduleGate`]). Results never depend on the thread
/// count or on which jobs share a pass.
///
/// The spawned thread count is additionally capped at the host's
/// available parallelism: each worker owns a full simulator replica
/// whose working set is tens of megabytes, so oversubscribing physical
/// cores does not just time-slice — every context switch refaults a
/// replica's working set through the cache, and measured batch
/// throughput *fell* with extra threads on small hosts.
fn run_pool(
    idle: &Mutex<Vec<SimBackend>>,
    host_threads: usize,
    jobs: usize,
    lanes: usize,
    build: &(dyn Fn() -> Result<SimBackend> + Sync),
    simulate: &Pass<'_>,
    gate: Option<&ScheduleGate<'_>>,
) -> (Vec<Option<Result<RequestResult>>>, usize) {
    debug_assert!(lanes >= 1 && (gate.is_none() || lanes == 1), "gated passes are single jobs");
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = host_threads.min(jobs).min(parallelism).max(1);
    let cursor = AtomicUsize::new(0);
    let slots: Vec<OnceLock<Result<RequestResult>>> = (0..jobs).map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut sim = idle.lock().unwrap_or_else(PoisonError::into_inner).pop();
                loop {
                    let j = cursor.fetch_add(lanes, Ordering::Relaxed);
                    if j >= jobs {
                        break;
                    }
                    if gate.is_some_and(|g| g.is_shed(j)) {
                        continue;
                    }
                    let pass = j..(j + lanes).min(jobs);
                    let results = match &mut sim {
                        Some(s) => simulate(s, pass.clone()),
                        None => match build() {
                            Ok(mut s) => {
                                let r = simulate(&mut s, pass.clone());
                                sim = Some(s);
                                r
                            }
                            Err(e) => pass.clone().map(|_| Err(e.clone())).collect(),
                        },
                    };
                    for (j, result) in pass.zip(results) {
                        if let Some(g) = gate {
                            // A request that faulted in simulation
                            // occupies its replica for zero cycles: the
                            // fault is reported per request, not
                            // modelled as service.
                            g.record(j, result.as_ref().map_or(0, |ok| ok.stats.cycles));
                        }
                        // Each index is claimed once, so the slot is empty.
                        let _ = slots[j].set(result);
                    }
                }
                if let Some(s) = sim {
                    idle.lock().unwrap_or_else(PoisonError::into_inner).push(s);
                }
            });
        }
    });
    (slots.into_iter().map(OnceLock::into_inner).collect(), threads)
}

/// The result a pool slot must hold, or the typed error naming the
/// missing request.
fn claimed(
    slot: Option<Result<RequestResult>>,
    what: impl FnOnce() -> String,
) -> Result<Result<RequestResult>> {
    slot.ok_or_else(|| PumaError::Execution { what: format!("{} was never simulated", what()) })
}

/// A compiled model bound to a simulator instance.
#[derive(Debug)]
pub struct ModelRunner {
    compiled: CompiledModel,
    plan: IoPlan,
    sim: SimBackend,
    ran: bool,
}

impl ModelRunner {
    /// Compiles and instantiates a model for bit-accurate functional
    /// simulation with noiseless crossbars.
    ///
    /// # Errors
    ///
    /// Propagates compilation and simulator-construction failures.
    pub fn functional(model: &puma_compiler::graph::Model, cfg: &NodeConfig) -> Result<Self> {
        Self::new(
            model,
            cfg,
            &CompilerOptions::default(),
            SimMode::Functional,
            &NoiseModel::noiseless(),
        )
    }

    /// Full-control constructor.
    ///
    /// # Errors
    ///
    /// Propagates compilation and simulator-construction failures.
    pub fn new(
        model: &puma_compiler::graph::Model,
        cfg: &NodeConfig,
        options: &CompilerOptions,
        mode: SimMode,
        noise: &NoiseModel,
    ) -> Result<Self> {
        let compiled = compile(model, cfg, options)?;
        let cfg = fit_config(cfg, &compiled);
        let images = compiled.shard()?;
        let sim = build_backend(&cfg, &images, mode, noise)?;
        let plan = IoPlan::new(&compiled, "");
        Ok(ModelRunner { compiled, plan, sim, ran: false })
    }

    /// The compiled artifact (image, stats, I/O metadata).
    pub fn compiled(&self) -> &CompiledModel {
        &self.compiled
    }

    /// Runs one inference: writes the named inputs, executes to completion,
    /// and returns all outputs by name. Can be called repeatedly (the
    /// machine state is reset between runs; crossbar weights persist).
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] for missing/misshaped inputs and
    /// propagates simulator faults (including deadlock detection).
    pub fn run(&mut self, inputs: &[(&str, Vec<f32>)]) -> Result<HashMap<String, Vec<f32>>> {
        if self.ran {
            self.sim.reset_lanes(1)?;
        }
        self.ran = true;
        let mut outputs = run_pass(&mut self.sim, &self.compiled, &self.plan, &[inputs], None)?;
        Ok(outputs.pop().expect("a one-request pass reads one lane"))
    }

    /// Statistics of the last run.
    pub fn stats(&self) -> &RunStats {
        self.sim.stats()
    }
}

/// One inference request for [`BatchRunner::run_batch`]: named input
/// vectors using the model's logical input names.
#[derive(Debug, Clone, Default)]
pub struct BatchRequest {
    /// Named input vectors, one entry per model input.
    pub inputs: Vec<(String, Vec<f32>)>,
}

impl BatchRequest {
    /// Convenience constructor from `(name, values)` pairs.
    pub fn new(inputs: Vec<(String, Vec<f32>)>) -> Self {
        BatchRequest { inputs }
    }
}

/// One inference request for [`ServeRunner::serve`]: named inputs plus
/// the simulated cycle at which the request arrives at the submission
/// queue.
#[derive(Debug, Clone, Default)]
pub struct ServeRequest {
    /// Arrival time on the simulated clock, in cycles.
    pub arrival: u64,
    /// Named input vectors, one entry per model input.
    pub inputs: Vec<(String, Vec<f32>)>,
}

impl ServeRequest {
    /// Convenience constructor.
    pub fn new(arrival: u64, inputs: Vec<(String, Vec<f32>)>) -> Self {
        ServeRequest { arrival, inputs }
    }
}

/// Outcome of one request inside a batch or serve.
#[derive(Debug, Clone)]
pub struct RequestResult {
    /// Model outputs by logical name.
    pub outputs: HashMap<String, Vec<f32>>,
    /// Simulator statistics for this request alone.
    pub stats: RunStats,
}

/// The typed failure of one served request.
///
/// Watchdog and fault-injection outcomes are first-class variants so
/// callers can tell graceful degradation apart from programming errors:
/// a request that overran its deadline, stalled on an injected tile
/// death, or deadlocked names the virtual cycle (and the blocked
/// node/tile/agents via the simulator's blocked summary) instead of
/// hiding behind a generic simulator error.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RequestError {
    /// The request overran its virtual-time deadline and was aborted by
    /// the serving watchdog ([`ServeRunner::with_deadline`]).
    Deadline {
        /// Virtual cycle the watchdog fired (arrival + deadline).
        cycle: u64,
        /// The overrunning request and any stalled agents.
        what: String,
    },
    /// An injected tile death ([`puma_core::config::FaultPlan`]) stopped
    /// the request's forward progress.
    FaultedTile {
        /// Node the dead tile belongs to.
        node: usize,
        /// Tile that died.
        tile: usize,
        /// Virtual cycle of the death.
        cycle: u64,
        /// The blocked agents, or the exhausted retry budget.
        what: String,
    },
    /// The request deadlocked (every agent blocked, no fault injected).
    Deadlock {
        /// Cycle forward progress stopped.
        cycle: u64,
        /// The blocked agents.
        what: String,
    },
    /// Any other simulator or validation fault.
    Sim(PumaError),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Deadline { cycle, what } => {
                write!(f, "deadline exceeded at cycle {cycle}: {what}")
            }
            RequestError::FaultedTile { node, tile, cycle, what } => {
                write!(f, "faulted tile: node{node}/tile{tile} died at cycle {cycle}: {what}")
            }
            RequestError::Deadlock { cycle, what } => {
                write!(f, "deadlock at cycle {cycle}: {what}")
            }
            RequestError::Sim(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RequestError {}

impl From<PumaError> for RequestError {
    /// Lifts the simulator's typed fault variants into their first-class
    /// request-level forms; everything else is carried as [`Sim`].
    ///
    /// [`Sim`]: RequestError::Sim
    fn from(e: PumaError) -> Self {
        match e {
            PumaError::DeadlineExceeded { cycle, what } => RequestError::Deadline { cycle, what },
            PumaError::FaultedTile { node, tile, cycle, what } => {
                RequestError::FaultedTile { node, tile, cycle, what }
            }
            PumaError::Deadlock { cycle, what } => RequestError::Deadlock { cycle, what },
            other => RequestError::Sim(other),
        }
    }
}

impl From<RequestError> for PumaError {
    /// The inverse lossless mapping, for APIs (like
    /// [`BatchOutcome::results`]) that report per-request faults as
    /// [`PumaError`].
    fn from(e: RequestError) -> Self {
        match e {
            RequestError::Deadline { cycle, what } => PumaError::DeadlineExceeded { cycle, what },
            RequestError::FaultedTile { node, tile, cycle, what } => {
                PumaError::FaultedTile { node, tile, cycle, what }
            }
            RequestError::Deadlock { cycle, what } => PumaError::Deadlock { cycle, what },
            RequestError::Sim(e) => e,
        }
    }
}

/// What happened to one served request.
#[derive(Debug)]
pub enum Disposition {
    /// The request executed to completion.
    Completed {
        /// Outputs and per-request statistics.
        result: RequestResult,
        /// Cycle service began (`start − arrival` is the queueing delay).
        start: u64,
        /// Cycle service finished (`finish − arrival` is the latency).
        finish: u64,
    },
    /// The bounded submission queue was full at arrival: the request was
    /// rejected without executing (the backpressure/shed policy).
    Shed,
    /// The request faulted (bad inputs, simulator fault, deadline abort,
    /// tile death); other requests are unaffected.
    Failed(RequestError),
}

/// Per-request record of a [`ServeRunner::serve`] call.
#[derive(Debug)]
pub struct ServedRequest {
    /// The request's arrival cycle (as submitted).
    pub arrival: u64,
    /// What happened to it.
    pub disposition: Disposition,
}

impl ServedRequest {
    /// Latency in simulated cycles (`finish − arrival`), if completed.
    pub fn latency(&self) -> Option<u64> {
        match self.disposition {
            Disposition::Completed { finish, .. } => Some(finish - self.arrival),
            _ => None,
        }
    }
}

/// Deterministic latency percentiles over the completed requests of one
/// serve, in simulated cycles (nearest-rank method), plus count/mean/max.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencySummary {
    /// Completed requests the summary covers.
    pub count: usize,
    /// Median latency.
    pub p50: u64,
    /// 95th-percentile latency.
    pub p95: u64,
    /// 99th-percentile latency.
    pub p99: u64,
    /// Worst latency.
    pub max: u64,
    /// Mean latency.
    pub mean: f64,
}

impl LatencySummary {
    /// Builds the summary from raw per-request latencies.
    pub fn from_latencies(mut latencies: Vec<u64>) -> Self {
        if latencies.is_empty() {
            return LatencySummary::default();
        }
        latencies.sort_unstable();
        let count = latencies.len();
        let nearest_rank = |p: f64| {
            let rank = ((p / 100.0) * count as f64).ceil() as usize;
            latencies[rank.clamp(1, count) - 1]
        };
        LatencySummary {
            count,
            p50: nearest_rank(50.0),
            p95: nearest_rank(95.0),
            p99: nearest_rank(99.0),
            max: latencies[count - 1],
            // Sum in u128: a long saturating serve (latencies near the
            // cycle cap × millions of requests) overflows a u64 sum and
            // silently wraps the mean.
            mean: latencies.iter().map(|&l| u128::from(l)).sum::<u128>() as f64 / count as f64,
        }
    }
}

/// Results of a [`ServeRunner::serve`] call.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Per-request records, in submission order (independent of which
    /// simulated worker served each request).
    pub results: Vec<ServedRequest>,
    /// Aggregate statistics over the completed requests, merged in
    /// submission order — deterministic for any worker or host-thread
    /// count. `cycles` is serial-equivalent simulated latency (see
    /// [`RunStats::merge`]).
    pub stats: RunStats,
    /// Latency percentiles over the completed requests, in cycles.
    pub latency: LatencySummary,
    /// Requests rejected by the bounded-queue shed policy.
    pub shed: usize,
    /// Requests aborted by the virtual-time deadline watchdog
    /// ([`ServeRunner::with_deadline`]).
    pub timed_out: usize,
    /// Simulated workers in the standing pool (1 pipeline in pipelined
    /// mode).
    pub workers: usize,
    /// Host threads actually used for the simulation work.
    pub host_threads: usize,
    /// Cycle the last completed request finished (0 if none completed).
    pub makespan_cycles: u64,
    /// Maximum number of requests simultaneously in service.
    pub max_concurrent: usize,
    /// Per-stage occupancy when serving pipelined (`None` otherwise).
    pub stages: Option<Vec<StageStats>>,
    /// Host wall-clock time spent serving.
    pub wall_seconds: f64,
}

impl ServeOutcome {
    /// Number of requests that completed successfully.
    pub fn completed(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r.disposition, Disposition::Completed { .. }))
            .count()
    }

    /// Deterministic simulated throughput: completed requests per million
    /// simulated cycles (0.0 when nothing completed).
    pub fn requests_per_megacycle(&self) -> f64 {
        if self.makespan_cycles > 0 {
            self.completed() as f64 * 1e6 / self.makespan_cycles as f64
        } else {
            0.0
        }
    }
}

/// Results of a [`BatchRunner::run_batch`] call.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-request results, in request order (independent of which worker
    /// served each request).
    pub results: Vec<Result<RequestResult>>,
    /// Aggregate statistics over the successful requests, merged in
    /// request order — deterministic for any thread count. `cycles` is
    /// serial-equivalent simulated latency (see [`RunStats::merge`]).
    pub stats: RunStats,
    /// Worker threads actually used.
    pub threads: usize,
    /// Host wall-clock time spent simulating the batch.
    pub wall_seconds: f64,
}

impl BatchOutcome {
    /// Number of requests that completed successfully.
    pub fn ok_count(&self) -> usize {
        self.results.iter().filter(|r| r.is_ok()).count()
    }

    /// Host-side throughput: completed requests per wall-clock second.
    /// Returns 0.0 for a zero wall time (a degenerate measurement must
    /// not leak `inf`/NaN into bench JSON).
    pub fn requests_per_second(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.ok_count() as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Simulation speed: simulated instructions per wall-clock second.
    /// Returns 0.0 for a zero wall time (see
    /// [`BatchOutcome::requests_per_second`]).
    pub fn instructions_per_second(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.stats.total_instructions() as f64 / self.wall_seconds
        } else {
            0.0
        }
    }
}

/// The async serving stack: a compiled model bound to a standing pool of
/// simulated workers fed by an arrival-time-ordered submission queue.
///
/// # Queue model
///
/// Requests arrive at simulated cycles ([`ServeRequest::arrival`], or a
/// [`TrafficPattern`] via [`ServeRunner::serve_pattern`]) and wait FIFO
/// for a free worker. The queue is bounded
/// ([`ServeRunner::with_queue_depth`]): a request that arrives while
/// `depth` requests already wait is **shed** — rejected immediately and
/// counted, never buffered — which is the backpressure policy of a
/// latency-bound serving system. At equal timestamps departures precede
/// arrivals, so a freshly freed worker is visible to a same-cycle
/// arrival.
///
/// Each simulated worker is one full replica of the node (or cluster, for
/// sharded models): crossbars are programmed once per worker and persist
/// across the requests it serves (§3.2.5). Per-request latency is
/// `finish − arrival` on the simulated clock — queueing delay plus
/// service time — and the reported p50/p95/p99 are deterministic for any
/// worker count, host-thread count, and execution engine.
///
/// A functional single-node model whose image passes the lane
/// certificate ([`NodeSim::lane_certified`]) is simulated up to four
/// consecutive requests per replica pass, one per data lane, sharing
/// control, timing and each crossbar's weight reads. Each request's
/// outputs and statistics are those of its solo run, so no result depends
/// on which requests share a pass. The Reference engine runs one request
/// per pass.
///
/// # Pipeline sharding
///
/// For a model compiled with [`puma_compiler::Partitioning::Sharded`],
/// [`ServeRunner::with_pipeline`] replaces the replicated worker pool
/// with a single [`PipelineSim`]: the model's nodes become pipeline
/// stages, and different requests are simultaneously resident on
/// different nodes (node 0 starts request r+1 while node 1 still runs r).
/// Outputs remain bit-identical to sequential execution; the queue bound
/// applies at the entry stage; [`ServeOutcome::stages`] reports per-stage
/// occupancy.
///
/// # Examples
///
/// ```
/// use puma::compiler::graph::Model;
/// use puma::runtime::{BatchRequest, ServeRunner};
/// use puma_core::config::NodeConfig;
/// use puma_core::tensor::Matrix;
/// use puma_core::timing::TrafficPattern;
///
/// # fn main() -> puma_core::Result<()> {
/// let mut m = Model::new("served");
/// let x = m.input("x", 16);
/// let a = m.constant_matrix("A", Matrix::from_fn(16, 16, |r, c| ((r + c) % 3) as f32 * 0.1));
/// let ax = m.mvm(a, x)?;
/// let y = m.tanh(ax);
/// m.output("y", y);
///
/// let runner = ServeRunner::functional(&m, &NodeConfig::default())?
///     .with_workers(2)
///     .with_queue_depth(Some(8));
/// let requests: Vec<BatchRequest> = (0..6)
///     .map(|i| BatchRequest::new(vec![("x".to_string(), vec![0.05 * i as f32; 16])]))
///     .collect();
/// let outcome =
///     runner.serve_pattern(&requests, &TrafficPattern::Uniform { interval: 10_000 })?;
/// assert_eq!(outcome.completed(), 6);
/// assert!(outcome.latency.p50 > 0 && outcome.latency.p99 >= outcome.latency.p50);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ServeRunner {
    compiled: CompiledModel,
    plan: IoPlan,
    engine: SimEngine,
    /// Host threads used to parallelize simulation work.
    host_threads: usize,
    /// Simulated workers in the standing pool.
    workers: usize,
    /// Submission-queue bound (`None` = unbounded, `Some(0)` = admit only
    /// when a worker is idle).
    queue_depth: Option<usize>,
    /// Serve sharded models as a pipeline instead of replicating them.
    pipeline: bool,
    /// Per-request virtual-time deadline watchdog (`None` = disarmed): a
    /// request unfinished `deadline` cycles after its arrival is aborted
    /// at exactly `arrival + deadline` and reported as a typed failure.
    deadline: Option<u64>,
    /// Idle simulators, checked out by host threads for the duration of a
    /// serve call and returned afterwards — construction (and
    /// functional-mode crossbar programming) is paid once per worker
    /// across the runner's lifetime, not once per call.
    pool: Mutex<Vec<SimBackend>>,
    /// The cached pipeline instance (forked from the prototype on first
    /// pipelined serve).
    pipeline_sim: Mutex<Option<PipelineSim>>,
    /// The immutable replica prototype: construction, crossbar
    /// programming and the micro-op build are paid once here; every pool
    /// worker and the pipeline are forked from it (`Arc`-sharing all
    /// three), so growing the pool costs one arena allocation, not a
    /// rebuild.
    prototype: SimBackend,
    /// Whether workers may serve [`LANES`] requests per pass, decided once
    /// at construction: a functional, single-node model whose image
    /// passes the lane certificate ([`NodeSim::lane_certified`]). The
    /// Reference engine, the oracle, still runs one request per pass.
    lane_capable: bool,
}

impl ServeRunner {
    /// Compiles a model for bit-accurate serving with noiseless crossbars.
    ///
    /// # Errors
    ///
    /// Propagates compilation and validation failures.
    pub fn functional(model: &puma_compiler::graph::Model, cfg: &NodeConfig) -> Result<Self> {
        Self::new(
            model,
            cfg,
            &CompilerOptions::default(),
            SimMode::Functional,
            &NoiseModel::noiseless(),
        )
    }

    /// Full-control constructor.
    ///
    /// # Errors
    ///
    /// Propagates compilation failures; simulator construction is also
    /// validated once up front so per-worker construction cannot fail.
    pub fn new(
        model: &puma_compiler::graph::Model,
        cfg: &NodeConfig,
        options: &CompilerOptions,
        mode: SimMode,
        noise: &NoiseModel,
    ) -> Result<Self> {
        Self::from_compiled(compile(model, cfg, options)?, cfg, mode, noise)
    }

    /// Serves an already compiled model: the output of
    /// [`puma_compiler::compile`], or a hand-built [`CompiledModel`]
    /// whose image and I/O layout agree.
    ///
    /// # Errors
    ///
    /// Propagates sharding and simulator-construction failures.
    pub fn from_compiled(
        compiled: CompiledModel,
        cfg: &NodeConfig,
        mode: SimMode,
        noise: &NoiseModel,
    ) -> Result<Self> {
        let cfg = fit_config(cfg, &compiled);
        let images = compiled.shard()?;
        // Validate the exact construction workers fork from (functional
        // mode also programs the crossbars), so per-worker builds cannot
        // fail.
        let prototype = build_backend(&cfg, &images, mode, noise)?;
        let lane_capable = mode == SimMode::Functional
            && matches!(&prototype, SimBackend::Node(node) if node.lane_certified());
        let plan = IoPlan::new(&compiled, "");
        Ok(ServeRunner {
            compiled,
            plan,
            engine: SimEngine::default(),
            host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            workers: 1,
            queue_depth: None,
            pipeline: false,
            deadline: None,
            pool: Mutex::new(Vec::new()),
            pipeline_sim: Mutex::new(None),
            prototype,
            lane_capable,
        })
    }

    /// Sets the simulated worker-pool size. Clamped to at least 1: a
    /// zero-worker pool would leave every queued request waiting forever.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the host-thread count used to parallelize simulation work
    /// (clamped to at least 1; it never affects results). This is an
    /// upper bound: execution additionally caps at the host's available
    /// parallelism, because simulator replicas are memory-heavy and
    /// oversubscribed cores thrash the cache instead of scaling (see
    /// `run_pool`).
    #[must_use]
    pub fn with_host_threads(mut self, threads: usize) -> Self {
        self.host_threads = threads.max(1);
        self
    }

    /// Bounds the submission queue: `None` = unbounded, `Some(d)` = at
    /// most `d` requests waiting (a request arriving beyond that is shed;
    /// `Some(0)` admits only when a worker is idle).
    #[must_use]
    pub fn with_queue_depth(mut self, depth: Option<usize>) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Serves sharded models as a pipeline (see the type docs). Ignored —
    /// with a single pipeline stage — for single-node models.
    #[must_use]
    pub fn with_pipeline(mut self, pipeline: bool) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Arms the per-request deadline watchdog (`None` disarms it): a
    /// request that has not finished `deadline` cycles after its arrival
    /// is aborted at exactly `arrival + deadline` on the virtual clock —
    /// whether still queued or in service — and reported as a typed
    /// [`RequestError::Deadline`] (or [`RequestError::FaultedTile`] when
    /// an injected tile death caused the stall) instead of stalling the
    /// serve. A request finishing exactly at its deadline completes.
    /// Abort decisions are pure functions of the virtual-time schedule,
    /// so they replay bit-exactly across engines, worker counts, and
    /// host threads.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Option<u64>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Selects the simulator execution engine (default
    /// [`SimEngine::Compiled`]).
    #[must_use]
    pub fn with_engine(mut self, engine: SimEngine) -> Self {
        self.engine = engine;
        let lanes = self.lanes();
        let pool = self.pool.get_mut().unwrap_or_else(PoisonError::into_inner);
        pool.retain(|sim| sim.lanes() == lanes);
        for sim in pool {
            sim.set_engine(engine);
        }
        if let Some(p) =
            self.pipeline_sim.get_mut().unwrap_or_else(PoisonError::into_inner).as_mut()
        {
            p.set_engine(engine);
        }
        self
    }

    /// The compiled artifact shared by all workers.
    pub fn compiled(&self) -> &CompiledModel {
        &self.compiled
    }

    /// Simulated worker-pool size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Configured host-thread count.
    pub fn host_threads(&self) -> usize {
        self.host_threads
    }

    /// Number of simulated nodes each request runs on (1 unless the model
    /// was compiled with [`puma_compiler::Partitioning::Sharded`]).
    pub fn nodes_per_request(&self) -> usize {
        self.prototype.node_count()
    }

    /// Approximate bytes of per-replica mutable state — what one more
    /// pool worker costs in memory, every data lane included. Programs,
    /// programmed crossbars, and compiled micro-op images are
    /// `Arc`-shared across replicas and excluded; this is the number that
    /// bounds how many workers fit on a serving host.
    pub fn replica_bytes(&self) -> usize {
        self.prototype
            .fork_lanes(self.lanes())
            .map_or_else(|_| self.prototype.state_bytes(), |replica| replica.state_bytes())
    }

    /// Requests a pool worker serves per pass: [`LANES`] for a
    /// lane-capable model off the Reference engine, else 1.
    fn lanes(&self) -> usize {
        if self.lane_capable && self.engine != SimEngine::Reference {
            LANES
        } else {
            1
        }
    }

    fn build_sim(&self) -> Result<SimBackend> {
        let mut sim = self.prototype.fork_lanes(self.lanes())?;
        sim.set_engine(self.engine);
        Ok(sim)
    }

    /// Serves requests arriving per `pattern` (request `i` arrives at the
    /// pattern's `i`-th arrival time).
    ///
    /// # Errors
    ///
    /// See [`ServeRunner::serve`].
    pub fn serve_pattern(
        &self,
        requests: &[BatchRequest],
        pattern: &TrafficPattern,
    ) -> Result<ServeOutcome> {
        let arrivals = pattern.arrivals(requests.len());
        let inputs: Vec<&[(String, Vec<f32>)]> =
            requests.iter().map(|r| r.inputs.as_slice()).collect();
        self.serve_inner(&arrivals, &inputs)
    }

    /// Serves a stream of requests through the standing worker pool and
    /// returns per-request outcomes, aggregate statistics, and the
    /// deterministic latency summary.
    ///
    /// Individual request faults are reported in the per-request
    /// [`Disposition`] without failing the serve. A request with
    /// malformed inputs (missing name, wrong width) is rejected at
    /// submission — it never occupies a queue slot, in either the
    /// replicated or the pipelined mode.
    ///
    /// # Errors
    ///
    /// Rejects a submission whose arrival times are not non-decreasing
    /// (the queue would otherwise silently reorder it), and propagates
    /// pool-level failures (pipeline construction, pipeline deadlock
    /// with no watchdog armed — which stalls every in-flight request,
    /// not just one).
    pub fn serve(&self, requests: &[ServeRequest]) -> Result<ServeOutcome> {
        let arrivals: Vec<u64> = requests.iter().map(|r| r.arrival).collect();
        let inputs: Vec<&[(String, Vec<f32>)]> =
            requests.iter().map(|r| r.inputs.as_slice()).collect();
        self.serve_inner(&arrivals, &inputs)
    }

    /// The serving core, over borrowed per-request inputs so the public
    /// wrappers ([`ServeRunner::serve`], [`ServeRunner::serve_pattern`],
    /// [`BatchRunner::run_batch`]) never copy input data.
    fn serve_inner(
        &self,
        arrivals: &[u64],
        inputs: &[&[(String, Vec<f32>)]],
    ) -> Result<ServeOutcome> {
        let started = Instant::now();
        // A non-monotone submission is rejected, not silently reordered:
        // arrival order is the FIFO queue order (and, with a watchdog
        // armed, the deadline order), so reordering would change shed
        // and abort decisions behind the caller's back.
        if let Some(i) = (1..arrivals.len()).find(|&i| arrivals[i] < arrivals[i - 1]) {
            return Err(PumaError::InvalidConfig {
                what: format!(
                    "request arrivals must be non-decreasing in submission order: \
                     request {i} arrives at cycle {} before request {} at cycle {}",
                    arrivals[i],
                    i - 1,
                    arrivals[i - 1]
                ),
            });
        }
        // Queue order: arrival time, ties by submission index.
        let mut order: Vec<usize> = (0..arrivals.len()).collect();
        order.sort_by_key(|&i| (arrivals[i], i));
        let mut outcome = if self.pipeline && self.nodes_per_request() > 1 {
            self.serve_pipelined(arrivals, inputs, &order)?
        } else {
            self.serve_replicated(arrivals, inputs, &order)?
        };
        // Aggregate over completed requests in submission order, so the
        // merged floating-point energy totals never depend on scheduling.
        let mut stats = RunStats::new();
        let mut latencies = Vec::new();
        let mut makespan = 0u64;
        for served in &outcome.results {
            if let Disposition::Completed { result, finish, .. } = &served.disposition {
                stats.merge(&result.stats);
                latencies.push(finish - served.arrival);
                makespan = makespan.max(*finish);
            }
        }
        outcome.stats = stats;
        outcome.latency = LatencySummary::from_latencies(latencies);
        outcome.makespan_cycles = makespan;
        outcome.wall_seconds = started.elapsed().as_secs_f64();
        Ok(outcome)
    }

    /// Replicated-worker serving: simulate every valid request
    /// (host-parallel and ungated — replicated serving rarely sheds, so
    /// few simulations are wasted), up to [`LANES`] consecutive requests
    /// per pass, then compute the deterministic virtual-time queue
    /// schedule. Requests with malformed inputs are rejected at
    /// submission, never simulated and excluded from the schedule
    /// (matching the pipelined path), so they never displace a valid
    /// request from the bounded queue.
    fn serve_replicated(
        &self,
        arrivals: &[u64],
        inputs: &[&[(String, Vec<f32>)]],
        order: &[usize],
    ) -> Result<ServeOutcome> {
        let checks: Vec<Result<()>> = inputs.iter().map(|i| self.validate_inputs(i)).collect();
        let valid: Vec<bool> = checks.iter().map(Result::is_ok).collect();
        let schedule_order: Vec<usize> = order.iter().copied().filter(|&i| valid[i]).collect();
        let jobs: Vec<usize> = (0..inputs.len()).filter(|&i| valid[i]).collect();
        let (slots, host_threads) = run_pool(
            &self.pool,
            self.host_threads,
            jobs.len(),
            self.lanes(),
            &|| self.build_sim(),
            &|sim, pass| {
                let requests: Vec<&[(String, Vec<f32>)]> =
                    jobs[pass].iter().map(|&i| inputs[i]).collect();
                serve_pass(sim, &self.compiled, &self.plan, &requests, None)
            },
            None,
        );
        // Per request: its validation error, or what simulating it gave.
        let mut simulated = slots.into_iter();
        let exec = checks
            .into_iter()
            .enumerate()
            .map(|(i, check)| match check {
                Err(e) => Ok(Err(e)),
                Ok(()) => claimed(simulated.next().flatten(), || format!("request {i}")),
            })
            .collect::<Result<Vec<_>>>()?;
        // Requests that validated but faulted in simulation occupy their
        // worker for zero cycles: the fault is reported per-request, not
        // modelled as service time.
        let durations: Vec<u64> =
            exec.iter().map(|r| r.as_ref().map_or(0, |ok| ok.stats.cycles)).collect();
        let schedule = virtual_schedule(
            &schedule_order,
            arrivals,
            &durations,
            self.workers,
            self.queue_depth,
            self.deadline,
        );
        let mut shed = 0usize;
        let mut timed_out = 0usize;
        let mut results = Vec::with_capacity(arrivals.len());
        let max_concurrent = max_overlap(&schedule);
        for (i, (slot, result)) in schedule.into_iter().zip(exec).enumerate() {
            let disposition = match (valid[i], slot, result) {
                (false, _, Err(e)) | (true, ScheduleSlot::Served { .. }, Err(e)) => {
                    Disposition::Failed(e.into())
                }
                (false, _, Ok(_)) => Disposition::Failed(RequestError::Sim(PumaError::Execution {
                    what: format!("internal: request {i} failed validation yet was simulated"),
                })),
                (true, ScheduleSlot::Shed, _) => {
                    shed += 1;
                    Disposition::Shed
                }
                (true, ScheduleSlot::TimedOut { at }, _) => {
                    timed_out += 1;
                    let d = self.deadline.expect("timeouts require an armed watchdog");
                    Disposition::Failed(RequestError::Deadline {
                        cycle: at,
                        what: format!("request {i} overran its {d}-cycle serving deadline"),
                    })
                }
                (true, ScheduleSlot::Served { start, finish }, Ok(result)) => {
                    Disposition::Completed { result, start, finish }
                }
            };
            results.push(ServedRequest { arrival: arrivals[i], disposition });
        }
        Ok(ServeOutcome {
            results,
            stats: RunStats::new(),
            latency: LatencySummary::default(),
            shed,
            timed_out,
            workers: self.workers,
            host_threads,
            makespan_cycles: 0,
            max_concurrent,
            stages: None,
            wall_seconds: 0.0,
        })
    }

    /// Pipelined serving over a sharded model (see the type docs).
    fn serve_pipelined(
        &self,
        arrivals: &[u64],
        inputs: &[&[(String, Vec<f32>)]],
        order: &[usize],
    ) -> Result<ServeOutcome> {
        // Reject malformed requests before they enter the queue, and
        // build the per-request write list (input chunks) the pipeline
        // performs when a node starts the request's segment. The model
        // constants are identical for every request, so they are
        // flattened once and passed as the pipeline's common writes.
        let mut dispositions: Vec<Option<Disposition>> = Vec::with_capacity(inputs.len());
        let mut writes: Vec<Option<RequestWrites>> = Vec::with_capacity(inputs.len());
        for input in inputs {
            let (w, d) = match self.prepare_writes(input) {
                Ok(w) => (Some(w), None),
                Err(e) => (None, Some(Disposition::Failed(e.into()))),
            };
            writes.push(w);
            dispositions.push(d);
        }
        let (queue, pipeline_requests): (Vec<usize>, Vec<PipelineRequest>) = order
            .iter()
            .filter_map(|&i| {
                let writes = writes[i].take()?;
                Some((i, PipelineRequest { arrival: arrivals[i], writes }))
            })
            .unzip();
        let const_writes: RequestWrites = self
            .compiled
            .const_data
            .iter()
            .map(|(binding, values)| (binding.name.clone(), values.clone()))
            .collect();
        let mut sim = self.checkout_pipeline()?;
        let report = sim.serve_with_deadline(
            &const_writes,
            &pipeline_requests,
            self.queue_depth,
            self.deadline,
        );
        *self.pipeline_sim.lock().unwrap_or_else(PoisonError::into_inner) = Some(sim);
        let report = report?;
        let mut shed = 0usize;
        let mut timed_out = 0usize;
        for (i, r) in queue.into_iter().zip(report.results) {
            dispositions[i] = Some(if let Some(err) = r.error {
                // The watchdog aborted this request mid-pipeline; the
                // typed fault (deadline or tile death) is per-request.
                timed_out += 1;
                Disposition::Failed(err.into())
            } else if r.admitted {
                let outputs = self.assemble_outputs(&r.outputs);
                Disposition::Completed {
                    result: RequestResult { outputs, stats: r.stats },
                    start: r.start,
                    finish: r.finish,
                }
            } else {
                shed += 1;
                Disposition::Shed
            });
        }
        let results = dispositions
            .into_iter()
            .enumerate()
            .map(|(i, d)| ServedRequest {
                arrival: arrivals[i],
                disposition: d.unwrap_or_else(|| {
                    Disposition::Failed(RequestError::Sim(PumaError::Execution {
                        what: format!("internal: the pipeline reported no outcome for request {i}"),
                    }))
                }),
            })
            .collect();
        Ok(ServeOutcome {
            results,
            stats: RunStats::new(),
            latency: LatencySummary::default(),
            shed,
            timed_out,
            workers: 1,
            host_threads: 1,
            makespan_cycles: 0,
            max_concurrent: report.max_concurrent,
            stages: Some(report.stages),
            wall_seconds: 0.0,
        })
    }

    /// Takes the cached pipeline instance or forks one from the
    /// prototype cluster.
    fn checkout_pipeline(&self) -> Result<PipelineSim> {
        if let Some(sim) = self.pipeline_sim.lock().unwrap_or_else(PoisonError::into_inner).take() {
            return Ok(sim);
        }
        let SimBackend::Cluster(cluster) = &self.prototype else {
            return Err(PumaError::Execution {
                what: "internal: a pipeline needs a sharded model".to_string(),
            });
        };
        let mut sim = PipelineSim::from_cluster(cluster.fork_replica());
        sim.set_engine(self.engine);
        Ok(sim)
    }

    /// Validates one request's inputs against the compiled I/O layout
    /// (every logical input present, at its declared width) — the same
    /// contract [`run_request`] enforces, via the same code.
    fn validate_inputs(&self, inputs: &[(String, Vec<f32>)]) -> Result<()> {
        for_each_input_chunk(&self.compiled, &self.plan, inputs, &mut |_, _| Ok(()))
    }

    /// Validates one request's inputs against the compiled I/O layout and
    /// flattens them into per-binding chunk writes (constants are shared
    /// across requests and passed to the pipeline separately).
    fn prepare_writes(&self, inputs: &[(String, Vec<f32>)]) -> Result<RequestWrites> {
        let mut writes = RequestWrites::new();
        for_each_input_chunk(&self.compiled, &self.plan, inputs, &mut |chunk, data| {
            writes.push((chunk.to_string(), data.to_vec()));
            Ok(())
        })?;
        Ok(writes)
    }

    /// Reassembles logical outputs from per-binding chunk reads.
    fn assemble_outputs(&self, chunks: &HashMap<String, Vec<f32>>) -> HashMap<String, Vec<f32>> {
        let mut out = HashMap::new();
        for io in &self.compiled.outputs {
            let mut data = Vec::with_capacity(io.width);
            for chunk in &io.chunks {
                data.extend(chunks.get(chunk).map_or(&[][..], Vec::as_slice));
            }
            out.insert(io.name.clone(), data);
        }
        out
    }
}

/// One request's slot in the deterministic virtual-time schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScheduleSlot {
    /// The request was served over `start..finish`.
    Served {
        /// Cycle service began.
        start: u64,
        /// Cycle service finished.
        finish: u64,
    },
    /// The bounded queue rejected the request at arrival (also the slot
    /// of requests excluded from the schedule entirely).
    Shed,
    /// The deadline watchdog aborted the request at `at` (its arrival
    /// plus the deadline) — either mid-service (the worker is reclaimed
    /// at `at`) or still queued (no worker was ever consumed).
    TimedOut {
        /// Cycle the watchdog fired.
        at: u64,
    },
}

/// The deterministic virtual-time queue schedule: given arrival times and
/// service durations, computes each request's slot on a pool of `workers`
/// simulated servers with a FIFO queue bounded by `depth`. Departures
/// precede arrivals at equal timestamps. With a `deadline`, a request
/// whose service would end after `arrival + deadline` is aborted there
/// instead (a request finishing exactly at its deadline completes), and
/// one whose deadline passes while it is still queued expires without
/// ever consuming a worker.
fn virtual_schedule(
    order: &[usize],
    arrivals: &[u64],
    durations: &[u64],
    workers: usize,
    depth: Option<usize>,
    deadline: Option<u64>,
) -> Vec<ScheduleSlot> {
    let workers = workers.max(1);
    let mut schedule: Vec<ScheduleSlot> = vec![ScheduleSlot::Shed; arrivals.len()];
    // (free_at, worker index): deterministic tie-break by index.
    let mut free: BinaryHeap<Reverse<(u64, usize)>> =
        (0..workers).map(|w| Reverse((0, w))).collect();
    let mut waiting: VecDeque<usize> = VecDeque::new();
    // Serves request `i` on `worker` (free at `free_at`), or expires it
    // against the deadline. Returns false when the worker was NOT
    // consumed (the request's deadline passed while it was queued).
    let place = |i: usize,
                 free_at: u64,
                 worker: usize,
                 free: &mut BinaryHeap<Reverse<(u64, usize)>>,
                 schedule: &mut Vec<ScheduleSlot>| {
        let start = free_at.max(arrivals[i]);
        let finish = start + durations[i];
        if let Some(d) = deadline {
            let dl = arrivals[i].saturating_add(d);
            if finish > dl {
                if start >= dl {
                    // Expired in the queue: it never starts.
                    schedule[i] = ScheduleSlot::TimedOut { at: dl };
                    return false;
                }
                // Started but overran: the watchdog aborts it at the
                // deadline and the worker is reclaimed there.
                schedule[i] = ScheduleSlot::TimedOut { at: dl };
                free.push(Reverse((dl, worker)));
                return true;
            }
        }
        schedule[i] = ScheduleSlot::Served { start, finish };
        free.push(Reverse((finish, worker)));
        true
    };
    let start_queued_until = |upto: u64,
                              waiting: &mut VecDeque<usize>,
                              free: &mut BinaryHeap<Reverse<(u64, usize)>>,
                              schedule: &mut Vec<ScheduleSlot>| {
        while let Some(&head) = waiting.front() {
            let Some(&Reverse((free_at, worker))) = free.peek() else { break };
            if free_at > upto {
                break;
            }
            free.pop();
            waiting.pop_front();
            if !place(head, free_at, worker, free, schedule) {
                free.push(Reverse((free_at, worker)));
            }
        }
    };
    for &i in order {
        let t = arrivals[i];
        start_queued_until(t, &mut waiting, &mut free, &mut schedule);
        let idle_worker = free.peek().is_some_and(|&Reverse((f, _))| f <= t);
        if idle_worker && waiting.is_empty() {
            let Reverse((free_at, worker)) = free.pop().expect("peeked above");
            if !place(i, free_at, worker, &mut free, &mut schedule) {
                free.push(Reverse((free_at, worker)));
            }
        } else if depth.is_none_or(|d| waiting.len() < d) {
            waiting.push_back(i);
        }
        // else: shed (schedule[i] stays Shed).
    }
    start_queued_until(u64::MAX, &mut waiting, &mut free, &mut schedule);
    schedule
}

/// Maximum number of simultaneously in-service requests in a schedule
/// (finishes close before starts open at equal timestamps).
fn max_overlap(schedule: &[ScheduleSlot]) -> usize {
    let mut events: Vec<(u64, i32)> = Vec::new();
    for slot in schedule {
        let ScheduleSlot::Served { start, finish } = *slot else { continue };
        events.push((start, 1));
        events.push((finish, -1));
    }
    // Sort by time, closes (−1) before opens (+1).
    events.sort_unstable_by_key(|&(t, delta)| (t, delta));
    let mut current = 0i64;
    let mut max = 0i64;
    for (_, delta) in events {
        current += i64::from(delta);
        max = max.max(current);
    }
    max.max(0) as usize
}

/// Batched inference over worker threads — a thin wrapper over
/// [`ServeRunner`]: a batch is a serve in which every request arrives at
/// cycle 0 and the queue is unbounded, so nothing is ever shed and the
/// outputs are identical to sequential execution for any thread count.
///
/// # Examples
///
/// ```
/// use puma::compiler::graph::Model;
/// use puma::runtime::{BatchRequest, BatchRunner};
/// use puma_core::config::NodeConfig;
/// use puma_core::tensor::Matrix;
///
/// # fn main() -> puma_core::Result<()> {
/// let mut m = Model::new("batched");
/// let x = m.input("x", 16);
/// let a = m.constant_matrix("A", Matrix::from_fn(16, 16, |r, c| ((r + c) % 3) as f32 * 0.1));
/// let ax = m.mvm(a, x)?;
/// let y = m.tanh(ax);
/// m.output("y", y);
///
/// let runner = BatchRunner::functional(&m, &NodeConfig::default())?.with_threads(2);
/// let requests: Vec<BatchRequest> = (0..8)
///     .map(|i| BatchRequest::new(vec![("x".to_string(), vec![0.05 * i as f32; 16])]))
///     .collect();
/// let outcome = runner.run_batch(&requests)?;
/// assert_eq!(outcome.ok_count(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BatchRunner {
    inner: ServeRunner,
}

impl BatchRunner {
    /// Compiles a model for bit-accurate batched functional simulation
    /// with noiseless crossbars, defaulting to all available cores.
    ///
    /// # Errors
    ///
    /// Propagates compilation and validation failures.
    pub fn functional(model: &puma_compiler::graph::Model, cfg: &NodeConfig) -> Result<Self> {
        Ok(BatchRunner { inner: ServeRunner::functional(model, cfg)? })
    }

    /// Full-control constructor.
    ///
    /// # Errors
    ///
    /// Propagates compilation failures; simulator construction is also
    /// validated once up front so per-worker construction cannot fail.
    pub fn new(
        model: &puma_compiler::graph::Model,
        cfg: &NodeConfig,
        options: &CompilerOptions,
        mode: SimMode,
        noise: &NoiseModel,
    ) -> Result<Self> {
        Ok(BatchRunner { inner: ServeRunner::new(model, cfg, options, mode, noise)? })
    }

    /// Sets the worker-thread count. **Clamped to at least 1**: a
    /// zero-thread pool would never pick work off the shared queue and
    /// the batch would stall forever. Like
    /// [`ServeRunner::with_host_threads`], this is an upper bound — runs
    /// use at most the host's available parallelism.
    #[must_use]
    pub fn with_threads(self, threads: usize) -> Self {
        BatchRunner { inner: self.inner.with_host_threads(threads) }
    }

    /// Selects the simulator execution engine (default
    /// [`SimEngine::Compiled`]).
    #[must_use]
    pub fn with_engine(self, engine: SimEngine) -> Self {
        BatchRunner { inner: self.inner.with_engine(engine) }
    }

    /// The compiled artifact shared by all workers.
    pub fn compiled(&self) -> &CompiledModel {
        self.inner.compiled()
    }

    /// Configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.inner.host_threads()
    }

    /// Number of simulated nodes each request runs on (1 unless the model
    /// was compiled with [`puma_compiler::Partitioning::Sharded`]).
    pub fn nodes_per_request(&self) -> usize {
        self.inner.nodes_per_request()
    }

    /// The underlying serving stack (e.g. to serve the same compiled
    /// model under a traffic pattern without recompiling).
    pub fn serving(&self) -> &ServeRunner {
        &self.inner
    }

    /// Serves a batch of requests across the worker pool and returns
    /// per-request outputs plus aggregate statistics — equivalent to
    /// [`ServeRunner::serve`] with every arrival at cycle 0 and an
    /// unbounded queue.
    ///
    /// Individual request faults (bad inputs, deadlock) are reported in
    /// [`BatchOutcome::results`] without failing the batch.
    ///
    /// # Errors
    ///
    /// Currently infallible beyond the per-request results; the `Result`
    /// wrapper reserves room for pool-level failures.
    pub fn run_batch(&self, requests: &[BatchRequest]) -> Result<BatchOutcome> {
        let outcome = self.inner.serve_pattern(requests, &TrafficPattern::Batch)?;
        let results = outcome
            .results
            .into_iter()
            .map(|served| match served.disposition {
                Disposition::Completed { result, .. } => Ok(result),
                Disposition::Failed(err) => Err(err.into()),
                // A batch serve uses an unbounded queue, so nothing
                // should ever shed; degrade to a reported per-request
                // fault instead of aborting the process if a queue
                // policy change breaks that invariant.
                Disposition::Shed => Err(PumaError::Execution {
                    what: "internal: a request was shed from the unbounded batch queue".into(),
                }),
            })
            .collect();
        Ok(BatchOutcome {
            results,
            stats: outcome.stats,
            threads: outcome.host_threads,
            wall_seconds: outcome.wall_seconds,
        })
    }
}

// ---------------------------------------------------------------------------
// Multi-tenant serving: catalog → placement → routing.
// ---------------------------------------------------------------------------

/// Machine capacity, independent of any model: how many nodes the
/// serving fabric has and how many tiles each node offers. Models are
/// *placed onto* this capacity ([`TenantServer::deploy`]); nothing about
/// the fabric is derived from any particular model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricSpec {
    /// Simulated nodes in the fabric.
    pub nodes: usize,
    /// Tile capacity of each node.
    pub tiles_per_node: usize,
}

impl FabricSpec {
    /// Convenience constructor (both dimensions clamped to at least 1).
    pub fn new(nodes: usize, tiles_per_node: usize) -> Self {
        FabricSpec { nodes: nodes.max(1), tiles_per_node: tiles_per_node.max(1) }
    }

    /// Total tile capacity across the fabric.
    pub fn total_tiles(&self) -> usize {
        self.nodes * self.tiles_per_node
    }
}

/// Registry of compiled models available for deployment onto a serving
/// fabric. Registration is compilation-time work; placement
/// ([`TenantServer::deploy`]) is a separate, later decision — the same
/// catalog can back fabrics of different shapes.
#[derive(Debug, Default)]
pub struct ModelCatalog {
    entries: Vec<(String, Arc<CompiledModel>)>,
}

impl ModelCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        ModelCatalog::default()
    }

    /// Registers a compiled model under `name`.
    ///
    /// # Errors
    ///
    /// Rejects duplicate names, names containing `':'` (reserved as the
    /// tenant prefix separator in fabric I/O binding names), and models
    /// compiled with [`puma_compiler::Partitioning::Sharded`] — a
    /// sharded image pins tiles to specific nodes and cannot be
    /// relocated onto a shared fabric.
    pub fn register(&mut self, name: &str, compiled: CompiledModel) -> Result<()> {
        if name.is_empty() || name.contains(':') {
            return Err(PumaError::InvalidConfig {
                what: format!(
                    "invalid catalog model name {name:?}: must be non-empty and ':'-free"
                ),
            });
        }
        if self.get(name).is_some() {
            return Err(PumaError::InvalidConfig {
                what: format!("model '{name}' is already in the catalog"),
            });
        }
        if compiled.node_count() != 1 {
            return Err(PumaError::InvalidConfig {
                what: format!(
                    "model '{name}' is sharded across {} nodes and cannot be relocated; \
                     serve it on a dedicated cluster instead",
                    compiled.node_count()
                ),
            });
        }
        self.entries.push((name.to_string(), Arc::new(compiled)));
        Ok(())
    }

    /// Compiles `model` with `options` and registers it under `name`.
    ///
    /// # Errors
    ///
    /// Propagates compilation failures and [`ModelCatalog::register`]
    /// rejections.
    pub fn register_model(
        &mut self,
        name: &str,
        model: &puma_compiler::graph::Model,
        cfg: &NodeConfig,
        options: &CompilerOptions,
    ) -> Result<()> {
        self.register(name, compile(model, cfg, options)?)
    }

    /// Looks a model up by name.
    pub fn get(&self, name: &str) -> Option<&Arc<CompiledModel>> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, c)| c)
    }

    /// Registered model names, in registration order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _)| n.as_str())
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Queue-depth-driven replica autoscaling policy for one serve.
///
/// Scaling decisions are made on the simulated clock from observed
/// per-model queue depth alone, so replays are bit-exact: a model grows
/// a replica when `scale_up_depth` requests wait in its queue (if tile
/// capacity allows), and an added replica is released as soon as it
/// idles with an empty queue. The initially deployed replica is never
/// released, and a replica serving a request is never a release
/// candidate — scale-down cannot evict in-flight work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalePolicy {
    /// Waiting-queue depth at which a model tries to grow a replica.
    pub scale_up_depth: usize,
    /// Hard cap on simultaneously live replicas per model.
    pub max_replicas: usize,
}

impl Default for ScalePolicy {
    /// No autoscaling: one replica per model, regardless of queue depth.
    fn default() -> Self {
        ScalePolicy { scale_up_depth: usize::MAX, max_replicas: 1 }
    }
}

impl ScalePolicy {
    /// Convenience constructor (both knobs clamped to at least 1).
    pub fn new(scale_up_depth: usize, max_replicas: usize) -> Self {
        ScalePolicy { scale_up_depth: scale_up_depth.max(1), max_replicas: max_replicas.max(1) }
    }
}

/// A model's placement on the fabric: the tile range `[base, base +
/// tiles)` of node `node` holds its relocated image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deployment {
    /// Catalog name of the deployed model.
    pub model: String,
    /// Node the model resides on.
    pub node: usize,
    /// First tile of the allocation.
    pub base: usize,
    /// Tiles allocated.
    pub tiles: usize,
}

/// Direction of one autoscaling or fault-recovery step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDirection {
    /// A replica was added.
    Up,
    /// A replica was released.
    Down,
    /// An injected tile death hit a replica's allocation: the replica
    /// left service and its tiles were quarantined (kept allocated so
    /// nothing is ever re-placed onto the dead tile).
    Quarantine,
    /// A quarantined replica was re-placed onto free tiles (first-fit +
    /// image relocation — bit-identical service, new placement).
    Failover,
}

/// Bounded-retry policy for tenant requests aborted by an injected tile
/// death ([`puma_core::config::FaultPlan::tile_death`]).
///
/// A victim request re-enters its model's queue after a deterministic
/// virtual-time exponential backoff: the retry after attempt `n`
/// (1-based) arrives `backoff_cycles · 2^(n−1)` cycles after the abort.
/// Retries bypass the bounded-queue shed policy — the request was
/// already admitted once. All decisions are pure functions of the
/// virtual clock, so faulty serves replay bit-exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total service attempts per request, including the first (≥ 1).
    pub max_attempts: usize,
    /// Base backoff in cycles, doubled on every further retry.
    pub backoff_cycles: u64,
}

impl Default for RetryPolicy {
    /// One attempt, no retries.
    fn default() -> Self {
        RetryPolicy { max_attempts: 1, backoff_cycles: 0 }
    }
}

impl RetryPolicy {
    /// Convenience constructor (`max_attempts` clamped to at least 1).
    pub fn new(max_attempts: usize, backoff_cycles: u64) -> Self {
        RetryPolicy { max_attempts: max_attempts.max(1), backoff_cycles }
    }
}

/// One autoscaling step of a [`TenantServer::serve`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleEvent {
    /// Simulated cycle of the decision.
    pub cycle: u64,
    /// Model the step applies to.
    pub model: String,
    /// Whether a replica was added or released.
    pub direction: ScaleDirection,
    /// Live replicas of the model after the step.
    pub replicas: usize,
}

/// One model's request stream for [`TenantServer::serve`]: the requests
/// and the arrival pattern that spaces them on the simulated clock.
#[derive(Debug, Clone)]
pub struct TenantStream {
    /// Deployed model the requests target.
    pub model: String,
    /// The requests, in submission order.
    pub requests: Vec<BatchRequest>,
    /// Arrival pattern (request `i` arrives at the pattern's `i`-th
    /// arrival time).
    pub pattern: TrafficPattern,
}

impl TenantStream {
    /// Convenience constructor.
    pub fn new(model: &str, requests: Vec<BatchRequest>, pattern: TrafficPattern) -> Self {
        TenantStream { model: model.to_string(), requests, pattern }
    }
}

/// Per-model results of a [`TenantServer::serve`] call.
#[derive(Debug)]
pub struct TenantModelOutcome {
    /// Catalog name of the model.
    pub model: String,
    /// Per-request records, in submission order.
    pub results: Vec<ServedRequest>,
    /// Aggregate statistics over this model's completed requests, merged
    /// in submission order (see [`RunStats::merge`]). Because a tenant
    /// request runs only the resident's own tiles, these statistics are
    /// attributed to this model exactly — nothing from a co-resident
    /// leaks in.
    pub stats: RunStats,
    /// Latency percentiles over this model's completed requests.
    pub latency: LatencySummary,
    /// This model's requests rejected by the bounded-queue shed policy.
    pub shed: usize,
    /// Requests that completed only after at least one fault retry
    /// (counted inside `completed`, split out so graceful degradation
    /// under an injected tile death is measurable).
    pub retried: usize,
    /// Requests that failed permanently under an injected tile death:
    /// the retry budget ran out, or no live replica remained.
    pub failed: usize,
    /// Most replicas this model had live at once.
    pub peak_replicas: usize,
}

impl TenantModelOutcome {
    /// Number of requests that completed successfully.
    pub fn completed(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r.disposition, Disposition::Completed { .. }))
            .count()
    }
}

/// Results of a [`TenantServer::serve`] call.
#[derive(Debug)]
pub struct TenantOutcome {
    /// Per-model outcomes, in stream order.
    pub models: Vec<TenantModelOutcome>,
    /// Autoscaling steps, in simulated-clock order.
    pub scale_events: Vec<ScaleEvent>,
    /// Cycle the last completed request (of any model) finished.
    pub makespan_cycles: u64,
    /// Host threads actually used for the simulation work.
    pub host_threads: usize,
    /// Requests actually simulated. The schedule gates the host-thread
    /// pool, so a request shed before a thread claims it is never
    /// simulated: on one host thread this is exactly the requests that
    /// were neither shed nor malformed. With more threads a thread may
    /// simulate a request speculatively while the schedule still waits
    /// on another thread's duration, and the schedule may shed it
    /// afterwards — the excess over that floor is the wasted work.
    pub simulated: usize,
    /// Host wall-clock time spent serving.
    pub wall_seconds: f64,
}

impl TenantOutcome {
    /// The outcome of one model's stream, by catalog name.
    pub fn model(&self, name: &str) -> Option<&TenantModelOutcome> {
        self.models.iter().find(|m| m.model == name)
    }
}

/// First-fit tile allocator over the fabric's per-node tile ranges.
#[derive(Debug, Clone)]
struct TilePlanner {
    tiles_per_node: usize,
    /// Per node: allocated `(base, tiles)` ranges, sorted by base.
    allocs: Vec<Vec<(usize, usize)>>,
}

impl TilePlanner {
    fn new(nodes: usize, tiles_per_node: usize) -> Self {
        TilePlanner { tiles_per_node, allocs: vec![Vec::new(); nodes] }
    }

    /// Free gaps of one node, in base order (including the tail gap).
    fn gaps(&self, node: usize) -> Vec<(usize, usize)> {
        let mut gaps = Vec::new();
        let mut cursor = 0;
        for &(base, tiles) in &self.allocs[node] {
            if base > cursor {
                gaps.push((cursor, base - cursor));
            }
            cursor = base + tiles;
        }
        if cursor < self.tiles_per_node {
            gaps.push((cursor, self.tiles_per_node - cursor));
        }
        gaps
    }

    /// The `(node, base)` where [`TilePlanner::first_fit`] would place
    /// `tiles` contiguous tiles: the first gap that fits, scanning nodes
    /// in index order and gaps in base order.
    fn find_fit(&self, tiles: usize) -> Option<(usize, usize)> {
        (0..self.allocs.len()).find_map(|node| {
            self.gaps(node).into_iter().find(|&(_, len)| len >= tiles).map(|(base, _)| (node, base))
        })
    }

    /// Allocates `tiles` contiguous tiles at [`TilePlanner::find_fit`].
    fn first_fit(&mut self, tiles: usize) -> Option<(usize, usize)> {
        let (node, base) = self.find_fit(tiles)?;
        let at = self.allocs[node].partition_point(|&(b, _)| b < base);
        self.allocs[node].insert(at, (base, tiles));
        Some((node, base))
    }

    /// Releases the allocation starting at `base` on `node`.
    fn release(&mut self, node: usize, base: usize) {
        self.allocs[node].retain(|&(b, _)| b != base);
    }

    /// The largest free contiguous range on any node (what an
    /// over-capacity error reports).
    fn largest_free(&self) -> usize {
        (0..self.allocs.len()).flat_map(|n| self.gaps(n)).map(|(_, len)| len).max().unwrap_or(0)
    }
}

/// The multi-tenant serving stack: several models resident on one
/// simulated fabric, each on its own tile allocation.
///
/// Three layers, kept deliberately separate:
///
/// 1. **Catalog** ([`ModelCatalog`]): compiled models, no placement.
/// 2. **Placement** ([`TenantServer::deploy`]): first-fit allocation of
///    each model's tile footprint onto the fabric's per-node capacity
///    ([`FabricSpec`]); admission fails — naming the model and the tile
///    shortfall — when no contiguous free range fits. Deployment
///    relocates the model's image to its allocated base
///    ([`puma_compiler::relocate_image`]) and composes all residents of
///    a node into one fabric image
///    ([`puma_compiler::compose_fabric`]); tiles never overlap by
///    construction.
/// 3. **Routing** ([`TenantServer::serve`]): per-model request streams
///    are merged into one deterministic virtual-time schedule. Each
///    request is tagged with its model, executes only that resident's
///    tiles ([`puma_sim::NodeSim::run_resident`]), and reads its
///    outputs through the tenant-prefixed fabric bindings
///    (`"{model}:{output}"` — assembled back to logical names).
///
/// # Replicas and autoscaling
///
/// A [`ScalePolicy`] lets a backlogged model grow replicas onto free
/// tiles mid-serve and release them when drained. By the relocation
/// invariant a replica computes bit-identically wherever it sits, so
/// the runtime simulates each admitted request once on the model's
/// materialized residency and treats added replicas as placement +
/// scheduling entities: they consume real tile capacity
/// (admission-visible) and add real service slots to the virtual-time
/// schedule, without re-simulating identical work. Scale decisions are
/// pure functions of the simulated clock and queue depths — replays are
/// bit-exact.
///
/// # Determinism
///
/// As with [`ServeRunner`]: outputs, per-model statistics, latencies,
/// shed counts, and scale events depend only on the request schedule,
/// never on host threads.
#[derive(Debug)]
pub struct TenantServer {
    catalog: ModelCatalog,
    fabric: FabricSpec,
    /// The fabric node configuration: tile capacity from the spec,
    /// shared memory widened to the largest catalog requirement.
    cfg: NodeConfig,
    mode: SimMode,
    noise: NoiseModel,
    engine: SimEngine,
    host_threads: usize,
    queue_depth: Option<usize>,
    policy: ScalePolicy,
    retry: RetryPolicy,
    deployments: Vec<Deployment>,
    /// Per deployment (same order): the tenant-prefixed I/O plan.
    plans: Vec<IoPlan>,
    planner: TilePlanner,
    /// Idle fabric simulators (every resident loaded), checked out by
    /// host threads during a serve — same pooling as [`ServeRunner`].
    pool: Mutex<Vec<SimBackend>>,
    /// The fabric prototype every pooled simulator forks from: built on
    /// the first serve after a deploy (construction, crossbar
    /// programming and the micro-op build paid once), cleared with the
    /// pool when the resident set changes.
    prototype: Mutex<Option<SimBackend>>,
}

impl TenantServer {
    /// Creates a fabric for bit-accurate functional serving with
    /// noiseless crossbars.
    ///
    /// # Errors
    ///
    /// See [`TenantServer::new`].
    pub fn functional(catalog: ModelCatalog, fabric: FabricSpec, cfg: &NodeConfig) -> Result<Self> {
        Self::new(catalog, fabric, cfg, SimMode::Functional, &NoiseModel::noiseless())
    }

    /// Full-control constructor. The fabric's node configuration is
    /// `cfg` with `tiles_per_node` taken from the spec and tile shared
    /// memory widened to the largest catalog requirement (capacity
    /// widening never changes numerical behavior).
    ///
    /// # Errors
    ///
    /// Rejects a fabric whose per-node tile capacity exceeds what the
    /// simulator can address.
    pub fn new(
        catalog: ModelCatalog,
        fabric: FabricSpec,
        cfg: &NodeConfig,
        mode: SimMode,
        noise: &NoiseModel,
    ) -> Result<Self> {
        let fabric = FabricSpec::new(fabric.nodes, fabric.tiles_per_node);
        if fabric.tiles_per_node > u16::MAX as usize + 1 {
            return Err(PumaError::InvalidConfig {
                what: format!(
                    "{} tiles per node exceeds the 65536-tile send addressing range",
                    fabric.tiles_per_node
                ),
            });
        }
        let mut cfg = *cfg;
        cfg.tiles_per_node = fabric.tiles_per_node;
        for (_, compiled) in &catalog.entries {
            let needed = compiled.stats.max_shared_mem_bytes();
            if needed > cfg.tile.shared_memory_bytes {
                cfg.tile.shared_memory_bytes = needed.next_multiple_of(1024);
            }
        }
        Ok(TenantServer {
            catalog,
            fabric,
            cfg,
            mode,
            noise: noise.clone(),
            engine: SimEngine::default(),
            host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            queue_depth: None,
            policy: ScalePolicy::default(),
            retry: RetryPolicy::default(),
            deployments: Vec::new(),
            plans: Vec::new(),
            planner: TilePlanner::new(fabric.nodes, fabric.tiles_per_node),
            pool: Mutex::new(Vec::new()),
            prototype: Mutex::new(None),
        })
    }

    /// Selects the simulator execution engine (default
    /// [`SimEngine::Compiled`]).
    #[must_use]
    pub fn with_engine(mut self, engine: SimEngine) -> Self {
        self.engine = engine;
        self.pool.get_mut().unwrap_or_else(PoisonError::into_inner).clear();
        self
    }

    /// Sets the host-thread cap (see [`ServeRunner::with_host_threads`]).
    #[must_use]
    pub fn with_host_threads(mut self, threads: usize) -> Self {
        self.host_threads = threads.max(1);
        self
    }

    /// Bounds each model's waiting queue (`None` = unbounded; see
    /// [`ServeRunner::with_queue_depth`]).
    #[must_use]
    pub fn with_queue_depth(mut self, depth: Option<usize>) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Sets the autoscaling policy (default: no autoscaling).
    #[must_use]
    pub fn with_policy(mut self, policy: ScalePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the fault-retry policy (default: one attempt, no retries).
    #[must_use]
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The model catalog.
    pub fn catalog(&self) -> &ModelCatalog {
        &self.catalog
    }

    /// The fabric capacity spec.
    pub fn fabric(&self) -> FabricSpec {
        self.fabric
    }

    /// The fabric's node configuration (what every resident — and any
    /// solo baseline comparing against the fabric — simulates under).
    pub fn config(&self) -> &NodeConfig {
        &self.cfg
    }

    /// Current placements, in deployment order.
    pub fn deployments(&self) -> &[Deployment] {
        &self.deployments
    }

    /// Free tiles remaining across the fabric.
    pub fn free_tiles(&self) -> usize {
        let used: usize = self.deployments.iter().map(|d| d.tiles).sum();
        self.fabric.total_tiles() - used
    }

    /// Places a catalog model onto the fabric: first-fit over each
    /// node's free tile ranges, in node order. The returned deployment
    /// records the allocation; the fabric images and the simulator pool
    /// are rebuilt lazily on the next serve.
    ///
    /// # Errors
    ///
    /// Rejects unknown and already-deployed models, and — the admission
    /// decision — returns [`PumaError::ResourceExhausted`] naming the
    /// model and the tile shortfall when no contiguous free range fits
    /// its footprint.
    pub fn deploy(&mut self, name: &str) -> Result<&Deployment> {
        let compiled = self.catalog.get(name).ok_or_else(|| PumaError::InvalidConfig {
            what: format!("model '{name}' is not in the catalog"),
        })?;
        if self.deployments.iter().any(|d| d.model == name) {
            return Err(PumaError::InvalidConfig {
                what: format!("model '{name}' is already deployed"),
            });
        }
        let tiles = compiled.stats.tiles_used.max(1);
        let Some((node, base)) = self.planner.first_fit(tiles) else {
            let free = self.planner.largest_free();
            return Err(PumaError::ResourceExhausted {
                resource: format!(
                    "contiguous fabric tiles for model '{name}' (shortfall {})",
                    tiles - free
                ),
                requested: tiles,
                available: free,
            });
        };
        self.plans.push(IoPlan::new(compiled, &format!("{name}:")));
        self.deployments.push(Deployment { model: name.to_string(), node, base, tiles });
        // The resident set changed: the prototype and pooled fabrics
        // are stale.
        self.pool.get_mut().unwrap_or_else(PoisonError::into_inner).clear();
        *self.prototype.get_mut().unwrap_or_else(PoisonError::into_inner) = None;
        Ok(self.deployments.last().expect("just pushed"))
    }

    /// The residents of one node, as the simulator registers them.
    fn residents_of(&self, node: usize) -> Vec<ResidentModel> {
        self.deployments
            .iter()
            .filter(|d| d.node == node)
            .map(|d| ResidentModel { name: d.model.clone(), base: d.base, tiles: d.tiles })
            .collect()
    }

    /// Composes each node's fabric image from its residents' relocated
    /// images.
    fn node_images(&self) -> Result<Vec<MachineImage>> {
        (0..self.fabric.nodes)
            .map(|node| {
                let residents: Vec<Resident<'_>> = self
                    .deployments
                    .iter()
                    .filter(|d| d.node == node)
                    .map(|d| Resident {
                        name: &d.model,
                        image: &self
                            .catalog
                            .get(&d.model)
                            .expect("deployed models stay cataloged")
                            .image,
                        base: d.base,
                    })
                    .collect();
                compose_fabric(&residents)
            })
            .collect()
    }

    /// Builds the fabric prototype: composed per-node images and
    /// resident registration.
    fn build_fabric_sim(&self) -> Result<SimBackend> {
        let images = self.node_images()?;
        // Tile death is modeled at the schedule layer (quarantine +
        // failover + retry, see `TenantScheduler`), not inside the
        // fabric simulators: a request is simulated at most once and
        // scheduling decides which attempt lands where. Cell and
        // packet faults stay in — their site keys are resident-relative,
        // so a replica's faulty outputs are placement-invariant.
        let mut cfg = self.cfg;
        cfg.faults.tile_death = None;
        let mut sim = build_backend(&cfg, &images, self.mode, &self.noise)?;
        for node in 0..images.len() {
            sim.set_residents(node, self.residents_of(node))?;
        }
        Ok(sim)
    }

    /// Forks one pooled fabric simulator from the prototype, building the
    /// prototype first if this is the first serve since a deploy.
    fn fork_fabric_sim(&self) -> Result<SimBackend> {
        let mut prototype = self.prototype.lock().unwrap_or_else(PoisonError::into_inner);
        let prototype = match &mut *prototype {
            Some(built) => built,
            empty => empty.insert(self.build_fabric_sim()?),
        };
        let mut sim = prototype.fork_lanes(1)?;
        sim.set_engine(self.engine);
        Ok(sim)
    }

    /// Serves several models' request streams concurrently on the
    /// shared fabric.
    ///
    /// The streams are merged into one deterministic virtual-time
    /// schedule: per-model FIFO queues bounded by the queue depth
    /// (overload is shed per model), service slots per live replica,
    /// departures before same-cycle arrivals, and queue-depth-driven
    /// scale-up/down per the [`ScalePolicy`]. The schedule needs a
    /// request's service duration only when the request starts, so it
    /// advances as simulations finish and gates the host-thread pool: a
    /// request the schedule has already shed is never simulated (see
    /// [`TenantOutcome::simulated`]). Replica allocations made mid-serve
    /// are transient: the fabric's persistent placements are unchanged
    /// afterwards.
    ///
    /// # Errors
    ///
    /// Rejects streams naming undeployed models and duplicate streams
    /// for one model; per-request faults are reported in the
    /// per-request [`Disposition`] without failing the serve. A schedule
    /// that cannot complete once every admitted request was simulated is
    /// a [`PumaError::Execution`].
    pub fn serve(&self, streams: &[TenantStream]) -> Result<TenantOutcome> {
        let started = Instant::now();
        let mut placed = Vec::with_capacity(streams.len());
        for (i, s) in streams.iter().enumerate() {
            let Some(d) = self.deployments.iter().position(|d| d.model == s.model) else {
                return Err(PumaError::InvalidConfig {
                    what: format!("model '{}' is not deployed on this fabric", s.model),
                });
            };
            if streams[..i].iter().any(|t| t.model == s.model) {
                return Err(PumaError::InvalidConfig {
                    what: format!("duplicate stream for model '{}'", s.model),
                });
            }
            placed.push(d);
        }
        let compiled: Vec<&CompiledModel> = streams
            .iter()
            .map(|s| &**self.catalog.get(&s.model).expect("deployed models stay cataloged"))
            .collect();
        // Malformed requests are rejected at submission and never occupy
        // a queue slot; the rest are scheduled in (arrival, index) order.
        let mut checks: Vec<Vec<Result<()>>> = Vec::with_capacity(streams.len());
        let mut loads: Vec<TenantLoad> = Vec::with_capacity(streams.len());
        for ((s, &d), c) in streams.iter().zip(&placed).zip(&compiled) {
            let check: Vec<Result<()>> = s
                .requests
                .iter()
                .map(|r| for_each_input_chunk(c, &self.plans[d], &r.inputs, &mut |_, _| Ok(())))
                .collect();
            let arrivals = s.pattern.arrivals(s.requests.len());
            let mut order: Vec<usize> = (0..check.len()).filter(|&i| check[i].is_ok()).collect();
            order.sort_by_key(|&i| (arrivals[i], i));
            let at = &self.deployments[d];
            let (tiles, node, base) = (at.tiles, at.node, at.base);
            loads.push(TenantLoad { arrivals, durations: Vec::new(), order, tiles, node, base });
            checks.push(check);
        }
        // An injected tile death is scheduling-visible (quarantine +
        // failover + retry); the fabric simulators never see it.
        let death =
            self.cfg.faults.tile_death.map(|d| (d.at_cycle, usize::from(d.node), d.tile as usize));
        // The planner copy is transient: mid-serve replica allocations
        // must not change the fabric's persistent placements.
        let gate = ScheduleGate::new(TenantScheduler::new(
            &loads,
            self.queue_depth,
            self.policy,
            self.retry,
            death,
            self.planner.clone(),
        ));
        let (slots, host_threads) = run_pool(
            &self.pool,
            self.host_threads,
            gate.claims.len(),
            1,
            &|| self.fork_fabric_sim(),
            &|sim, pass| {
                let (s, r) = gate.claims[pass.start];
                let plan = &self.plans[placed[s]];
                serve_pass(
                    sim,
                    compiled[s],
                    plan,
                    &[&streams[s].requests[r].inputs],
                    Some(&streams[s].model),
                )
            },
            Some(&gate),
        );
        let mut exec: Vec<Vec<Option<Result<RequestResult>>>> =
            streams.iter().map(|s| s.requests.iter().map(|_| None).collect()).collect();
        let mut simulated = 0usize;
        for (slot, &(s, r)) in slots.into_iter().zip(&gate.claims) {
            simulated += usize::from(slot.is_some());
            exec[s][r] = slot;
        }
        let mut scheduler = gate.into_scheduler();
        if let Some((s, r)) = scheduler.advance() {
            return Err(PumaError::Execution {
                what: format!(
                    "the tenant schedule stalled on request {r} of model '{}' after the \
                     pool drained",
                    streams[s].model
                ),
            });
        }
        let (schedule, _) = scheduler.finish();
        // Assemble per-model outcomes in stream order.
        let mut models = Vec::with_capacity(streams.len());
        let mut makespan = 0u64;
        for (si, stream) in streams.iter().enumerate() {
            let load = &loads[si];
            let mut results = Vec::with_capacity(stream.requests.len());
            let mut stats = RunStats::new();
            let mut latencies = Vec::new();
            let mut retried = 0usize;
            let mut failed = 0usize;
            for i in 0..stream.requests.len() {
                let disposition = if let Err(e) = std::mem::replace(&mut checks[si][i], Ok(())) {
                    Disposition::Failed(e.into())
                } else if schedule.failed[si][i] {
                    // Lost to the injected tile death: aborted with the
                    // retry budget exhausted, or no live replica left.
                    failed += 1;
                    let (cycle, node, tile) = death.expect("failures require a tile death");
                    Disposition::Failed(RequestError::FaultedTile {
                        node,
                        tile,
                        cycle,
                        what: format!(
                            "request {i} of model '{}' lost to the tile death \
                             ({} of {} attempts made)",
                            stream.model, schedule.attempts[si][i], self.retry.max_attempts
                        ),
                    })
                } else if let Some((start, finish)) = schedule.windows[si][i] {
                    match claimed(exec[si][i].take(), || {
                        format!("request {i} of model '{}'", stream.model)
                    })? {
                        Err(e) => Disposition::Failed(e.into()),
                        Ok(result) => {
                            stats.merge(&result.stats);
                            latencies.push(finish - load.arrivals[i]);
                            makespan = makespan.max(finish);
                            if schedule.attempts[si][i] > 1 {
                                retried += 1;
                            }
                            Disposition::Completed { result, start, finish }
                        }
                    }
                } else {
                    Disposition::Shed
                };
                results.push(ServedRequest { arrival: load.arrivals[i], disposition });
            }
            models.push(TenantModelOutcome {
                model: stream.model.clone(),
                results,
                stats,
                latency: LatencySummary::from_latencies(latencies),
                shed: schedule.shed[si],
                retried,
                failed,
                peak_replicas: schedule.peak[si],
            });
        }
        let scale_events = schedule
            .events
            .iter()
            .map(|e| ScaleEvent {
                cycle: e.cycle,
                model: streams[e.stream].model.clone(),
                direction: e.kind,
                replicas: e.live,
            })
            .collect();
        Ok(TenantOutcome {
            models,
            scale_events,
            makespan_cycles: makespan,
            host_threads,
            simulated,
            wall_seconds: started.elapsed().as_secs_f64(),
        })
    }
}

/// One model's load for [`TenantScheduler`].
struct TenantLoad {
    /// Arrival cycle of each request (non-decreasing).
    arrivals: Vec<u64>,
    /// Service duration of each request, in cycles, when known upfront;
    /// empty when durations are revealed as simulations finish
    /// ([`TenantScheduler::reveal`]).
    durations: Vec<u64>,
    /// Schedulable request indices in (arrival, index) order (malformed
    /// requests are excluded).
    order: Vec<usize>,
    /// Tiles one replica of the model occupies.
    tiles: usize,
    /// Node of the materialized deployment (replica slot 0).
    node: usize,
    /// First tile of the materialized deployment (replica slot 0).
    base: usize,
}

/// One replica slot of one model in the tenant schedule.
#[derive(Debug, Clone, Copy)]
struct ReplicaSlot {
    /// The transient tile allocation backing a scaled-up or failover
    /// replica (`None` for slot 0, the materialized deployment).
    alloc: Option<(usize, usize)>,
    /// Primary replicas — slot 0 and any failover replacement for it —
    /// are never released by scale-down.
    primary: bool,
    busy: bool,
    removed: bool,
}

/// One autoscaling or fault-recovery step, by stream index (mapped to
/// model names by the caller).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RawScaleEvent {
    cycle: u64,
    stream: usize,
    slot: usize,
    kind: ScaleDirection,
    /// Live replicas of the stream after the step.
    live: usize,
}

/// Output of [`TenantScheduler`].
#[derive(Debug, PartialEq)]
struct TenantSchedule {
    /// Per stream, per request: the `(start, finish)` service window
    /// (`None` = shed or not schedulable).
    windows: Vec<Vec<Option<(u64, u64)>>>,
    /// Per stream, per request: the replica slot that served it (read
    /// by the scheduler unit tests to pin the no-eviction invariant).
    #[allow(dead_code)]
    replica_of: Vec<Vec<Option<usize>>>,
    /// Per stream: requests shed by the bounded queue.
    shed: Vec<usize>,
    /// Per stream: most replicas live at once.
    peak: Vec<usize>,
    /// Autoscaling and fault-recovery steps, in simulated-clock order.
    events: Vec<RawScaleEvent>,
    /// Per stream, per request: service attempts made (0 = never
    /// started; > 1 = completed or failed after fault retries).
    attempts: Vec<Vec<usize>>,
    /// Per stream, per request: permanently lost to the tile death (the
    /// retry budget ran out, or no live replica remained to serve it).
    failed: Vec<Vec<bool>>,
}

/// The kinds of schedule event, in their same-cycle order: departures
/// before the tile death (a request finishing exactly at the death cycle
/// completes), the death before fault retries, and retries before fresh
/// arrivals (an arrival at the death cycle sees the post-death fabric).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum TenantEvent {
    Departure,
    Death,
    Retry,
    Arrival,
}

/// The deterministic merged multi-tenant schedule, computed
/// incrementally: per-model FIFO queues bounded by `depth`, one service
/// slot per live replica, queue-depth-driven scale-up/down against the
/// planner's free tiles, and fault recovery for one injected tile death
/// `(cycle, node, tile)`.
///
/// Event order is total and host-independent: time, then
/// [`TenantEvent`] kind, then stream index, then request index.
/// Scale-up fires on the arrival that makes a model's queue reach
/// [`ScalePolicy::scale_up_depth`] (capacity permitting) and the new
/// replica immediately serves the queue head; scale-down releases a
/// scaled-up replica the moment it departs its last request with an
/// empty queue. Slot 0 — the materialized deployment — is never
/// released, and only the replica that just went idle is ever a release
/// candidate, so scale-down can never evict in-flight work.
///
/// When the death hits a replica's allocation (slot 0's materialized
/// placement or a scaled-up replica's transient one — allocations are
/// disjoint, so at most one slot is hit), that slot is **quarantined**:
/// removed from service with its tiles kept allocated, so nothing is
/// ever re-placed onto the dead tile. Its in-flight request is aborted
/// and retried per `retry` (retries bypass the bounded queue — the
/// request was already admitted once), and a replacement replica is
/// re-placed first-fit onto free tiles (**failover**). With no free
/// capacity and no live replica left, the model's unserved requests
/// fail.
///
/// # Laziness
///
/// A request's service duration matters only when it **starts** (at a
/// departure, an idle-slot arrival, a scale-up, a failover, or a
/// retry); an arrival that is queued or shed needs none. So
/// [`TenantScheduler::advance`] processes events until the next one
/// would start a request whose duration is not yet
/// [revealed](TenantScheduler::reveal), and stops there *before*
/// mutating anything. Revealing durations in any order and advancing
/// therefore yields the same [`TenantSchedule`] as knowing them all
/// upfront, and a request the schedule sheds never needs simulating.
struct TenantScheduler<'a> {
    loads: &'a [TenantLoad],
    depth: Option<usize>,
    policy: ScalePolicy,
    retry: RetryPolicy,
    planner: TilePlanner,
    /// Per stream, per request: the service duration, once known.
    durations: Vec<Vec<Option<u64>>>,
    /// Per stream, per request: shed by the bounded queue on arrival.
    dropped: Vec<Vec<bool>>,
    /// The schedule built so far.
    out: TenantSchedule,
    slots: Vec<Vec<ReplicaSlot>>,
    waiting: Vec<VecDeque<usize>>,
    /// Merged arrivals `(cycle, stream, request)`, consumed in order.
    arrivals: Vec<(u64, usize, usize)>,
    next_arrival: usize,
    /// In-flight departures: `(finish, stream, slot, request)`.
    departures: BinaryHeap<Reverse<(u64, usize, usize, usize)>>,
    /// Fault retries: `(re-arrival cycle, stream, request)`.
    retries: BinaryHeap<Reverse<(u64, usize, usize)>>,
    death: Option<(u64, usize, usize)>,
}

impl<'a> TenantScheduler<'a> {
    /// A schedule at cycle 0 over `loads`, with every duration the loads
    /// carry already revealed.
    fn new(
        loads: &'a [TenantLoad],
        depth: Option<usize>,
        policy: ScalePolicy,
        retry: RetryPolicy,
        death: Option<(u64, usize, usize)>,
        planner: TilePlanner,
    ) -> Self {
        fn per_request<T: Clone>(loads: &[TenantLoad], value: T) -> Vec<Vec<T>> {
            loads.iter().map(|l| vec![value.clone(); l.arrivals.len()]).collect()
        }
        let mut arrivals: Vec<(u64, usize, usize)> = loads
            .iter()
            .enumerate()
            .flat_map(|(s, l)| l.order.iter().map(move |&r| (l.arrivals[r], s, r)))
            .collect();
        arrivals.sort_unstable();
        TenantScheduler {
            loads,
            depth,
            policy,
            retry,
            planner,
            durations: loads
                .iter()
                .map(|l| (0..l.arrivals.len()).map(|r| l.durations.get(r).copied()).collect())
                .collect(),
            dropped: per_request(loads, false),
            out: TenantSchedule {
                windows: per_request(loads, None),
                replica_of: per_request(loads, None),
                shed: vec![0; loads.len()],
                peak: vec![1; loads.len()],
                events: Vec::new(),
                attempts: per_request(loads, 0),
                failed: per_request(loads, false),
            },
            slots: loads
                .iter()
                .map(|_| {
                    vec![ReplicaSlot { alloc: None, primary: true, busy: false, removed: false }]
                })
                .collect(),
            waiting: loads.iter().map(|_| VecDeque::new()).collect(),
            arrivals,
            next_arrival: 0,
            departures: BinaryHeap::new(),
            retries: BinaryHeap::new(),
            death,
        }
    }

    /// Every schedulable request as `(stream, request)`, in merged
    /// arrival order — the order the schedule decides them in.
    fn arrival_order(&self) -> Vec<(usize, usize)> {
        self.arrivals.iter().map(|&(_, s, r)| (s, r)).collect()
    }

    /// Records request `r` of stream `s`'s service duration.
    fn reveal(&mut self, s: usize, r: usize, cycles: u64) {
        self.durations[s][r] = Some(cycles);
    }

    /// Whether request `r` of stream `s` has been shed on arrival.
    fn is_shed(&self, s: usize, r: usize) -> bool {
        self.dropped[s][r]
    }

    /// Processes events until the schedule is complete (`None`) or the
    /// next event would start a request whose duration is unknown
    /// (`Some((stream, request))`, with that event left unprocessed).
    fn advance(&mut self) -> Option<(usize, usize)> {
        while let Some(event) = self.next_event() {
            if let Err(needed) = self.step(event) {
                return Some(needed);
            }
        }
        None
    }

    /// The completed schedule and the planner's final state. Call once
    /// [`TenantScheduler::advance`] returns `None`.
    fn finish(mut self) -> (TenantSchedule, TilePlanner) {
        // A stream left with no live replica (the death consumed its last
        // slot and failover found no capacity) can never serve what is
        // still waiting.
        for s in 0..self.loads.len() {
            if self.slots[s].iter().any(|x| !x.removed) {
                continue;
            }
            for r in self.waiting[s].drain(..) {
                self.out.failed[s][r] = true;
            }
        }
        (self.out, self.planner)
    }

    /// The next event: minimum virtual time, ties by [`TenantEvent`].
    fn next_event(&self) -> Option<TenantEvent> {
        [
            (self.departures.peek().map(|&Reverse((t, ..))| t), TenantEvent::Departure),
            (self.death.map(|(t, ..)| t), TenantEvent::Death),
            (self.retries.peek().map(|&Reverse((t, ..))| t), TenantEvent::Retry),
            (self.arrivals.get(self.next_arrival).map(|&(t, ..)| t), TenantEvent::Arrival),
        ]
        .into_iter()
        .filter_map(|(t, e)| t.map(|t| (t, e)))
        .min()
        .map(|(_, e)| e)
    }

    /// `Err((s, r))` when request `r` of stream `s` is about to start
    /// but its duration is still unknown.
    fn known(&self, s: usize, r: usize) -> std::result::Result<(), (usize, usize)> {
        self.durations[s][r].map(|_| ()).ok_or((s, r))
    }

    fn live(&self, s: usize) -> usize {
        self.slots[s].iter().filter(|x| !x.removed).count()
    }

    /// An idle live replica of stream `s` that may take a request now —
    /// only when nobody is queued ahead.
    fn idle_slot(&self, s: usize) -> Option<usize> {
        self.slots[s]
            .iter()
            .position(|x| !x.busy && !x.removed)
            .filter(|_| self.waiting[s].is_empty())
    }

    /// The live slot `(stream, slot)` whose allocation covers tile `dt`
    /// of node `dn` (allocations are disjoint, so at most one does).
    fn death_victim(&self, dn: usize, dt: usize) -> Option<(usize, usize)> {
        (0..self.loads.len()).find_map(|s| {
            let load = &self.loads[s];
            self.slots[s]
                .iter()
                .position(|slot| {
                    let (node, base) = slot.alloc.unwrap_or((load.node, load.base));
                    !slot.removed && node == dn && dt >= base && dt < base + load.tiles
                })
                .map(|k| (s, k))
        })
    }

    fn start(&mut self, t: u64, s: usize, r: usize, slot: usize) {
        let finish = t + self.durations[s][r].expect("checked before the event mutated anything");
        self.out.windows[s][r] = Some((t, finish));
        self.out.replica_of[s][r] = Some(slot);
        self.slots[s][slot].busy = true;
        self.out.attempts[s][r] += 1;
        self.departures.push(Reverse((finish, s, slot, r)));
    }

    fn push_event(&mut self, cycle: u64, stream: usize, slot: usize, kind: ScaleDirection) {
        let live = self.live(stream);
        self.out.events.push(RawScaleEvent { cycle, stream, slot, kind, live });
    }

    /// Adds a replica slot on `alloc` and returns its index.
    fn add_slot(&mut self, s: usize, alloc: (usize, usize), primary: bool) -> usize {
        self.slots[s].push(ReplicaSlot {
            alloc: Some(alloc),
            primary,
            busy: false,
            removed: false,
        });
        self.out.peak[s] = self.out.peak[s].max(self.live(s));
        self.slots[s].len() - 1
    }

    /// Processes one event, or returns the request it would start whose
    /// duration is unknown — every such check precedes the first
    /// mutation, so a stalled event is left exactly as it was.
    fn step(&mut self, event: TenantEvent) -> std::result::Result<(), (usize, usize)> {
        match event {
            TenantEvent::Departure => {
                let &Reverse((t, s, slot, _)) = self.departures.peek().expect("event peeked");
                let removed = self.slots[s][slot].removed;
                let head = self.waiting[s].front().copied().filter(|_| !removed);
                if let Some(r) = head {
                    self.known(s, r)?;
                }
                self.departures.pop();
                if removed {
                    // A quarantined slot's aborted in-flight request:
                    // the abort and its retry were handled at the death
                    // cycle, and the slot never returns to service.
                    return Ok(());
                }
                self.slots[s][slot].busy = false;
                if let Some(r) = head {
                    self.waiting[s].pop_front();
                    self.start(t, s, r, slot);
                } else if !self.slots[s][slot].primary {
                    // An idle scaled-up replica with an empty queue
                    // drains away; its tiles return to the free pool.
                    // Primary replicas (slot 0 and its failover
                    // replacement) stay resident.
                    let (node, base) =
                        self.slots[s][slot].alloc.expect("scaled-up replicas carry an allocation");
                    self.planner.release(node, base);
                    self.slots[s][slot].removed = true;
                    self.push_event(t, s, slot, ScaleDirection::Down);
                }
            }
            TenantEvent::Death => {
                let (dc, dn, dt) = self.death.expect("event peeked");
                let victim = self.death_victim(dn, dt);
                let failover_head = victim
                    .filter(|&(s, _)| self.planner.find_fit(self.loads[s].tiles).is_some())
                    .and_then(|(s, _)| self.waiting[s].front().map(|&r| (s, r)));
                if let Some((s, r)) = failover_head {
                    self.known(s, r)?;
                }
                self.death = None;
                let Some((s, k)) = victim else { return Ok(()) };
                // Quarantine: the slot leaves service; its tiles stay
                // allocated so nothing is ever re-placed onto the dead
                // tile.
                self.slots[s][k].removed = true;
                self.push_event(dc, s, k, ScaleDirection::Quarantine);
                // Abort the in-flight victim; retry it after the
                // exponential backoff while the budget allows.
                let aborted = self
                    .departures
                    .iter()
                    .find(|&&Reverse((_, ss, kk, _))| ss == s && kk == k)
                    .map(|&Reverse((_, _, _, r))| r);
                if let Some(r) = aborted {
                    self.out.windows[s][r] = None;
                    self.out.replica_of[s][r] = None;
                    let attempts = self.out.attempts[s][r];
                    if attempts < self.retry.max_attempts {
                        let exp = (attempts as u32 - 1).min(63);
                        let delay = self.retry.backoff_cycles.saturating_mul(1u64 << exp);
                        self.retries.push(Reverse((dc.saturating_add(delay), s, r)));
                    } else {
                        self.out.failed[s][r] = true;
                    }
                }
                // Failover: re-place the replica onto free tiles,
                // first-fit like any deployment. The recovered replica
                // immediately serves the queue head.
                if let Some(alloc) = self.planner.first_fit(self.loads[s].tiles) {
                    let slot = self.add_slot(s, alloc, self.slots[s][k].primary);
                    self.push_event(dc, s, slot, ScaleDirection::Failover);
                    if let Some(r) = self.waiting[s].pop_front() {
                        self.start(dc, s, r, slot);
                    }
                }
            }
            TenantEvent::Retry => {
                let &Reverse((t, s, r)) = self.retries.peek().expect("event peeked");
                let idle = self.idle_slot(s);
                if idle.is_some() {
                    self.known(s, r)?;
                }
                self.retries.pop();
                if let Some(slot) = idle {
                    self.start(t, s, r, slot);
                } else if self.live(s) > 0 {
                    // Retries bypass the bounded queue: the request was
                    // already admitted once.
                    self.waiting[s].push_back(r);
                } else {
                    self.out.failed[s][r] = true;
                }
            }
            TenantEvent::Arrival => {
                let (t, s, r) = self.arrivals[self.next_arrival];
                let idle = self.idle_slot(s);
                let queued = idle.is_none() && self.depth.is_none_or(|d| self.waiting[s].len() < d);
                let scale_up = queued
                    && self.waiting[s].len() + 1 >= self.policy.scale_up_depth
                    && self.live(s) < self.policy.max_replicas
                    && self.planner.find_fit(self.loads[s].tiles).is_some();
                if idle.is_some() {
                    self.known(s, r)?;
                } else if scale_up {
                    self.known(s, self.waiting[s].front().copied().unwrap_or(r))?;
                }
                self.next_arrival += 1;
                if let Some(slot) = idle {
                    self.start(t, s, r, slot);
                } else if queued {
                    self.waiting[s].push_back(r);
                    let alloc =
                        if scale_up { self.planner.first_fit(self.loads[s].tiles) } else { None };
                    if let Some(alloc) = alloc {
                        let slot = self.add_slot(s, alloc, false);
                        self.push_event(t, s, slot, ScaleDirection::Up);
                        let head = self.waiting[s].pop_front().expect("pushed above");
                        self.start(t, s, head, slot);
                    }
                } else {
                    self.out.shed[s] += 1;
                    self.dropped[s][r] = true;
                }
            }
        }
        Ok(())
    }
}

/// The tenant pool's admission gate over a [`TenantScheduler`]: pool
/// job `j` is the `j`-th request of the schedule's merged arrival order.
/// A thread skips a job already decided shed and reveals each simulated
/// duration, advancing the schedule as far as the known durations
/// allow. Threads never wait here for a decision: an undecided job —
/// possible only with more than one host thread — is simulated
/// speculatively.
struct ScheduleGate<'a> {
    claims: Vec<(usize, usize)>,
    scheduler: Mutex<TenantScheduler<'a>>,
}

impl<'a> ScheduleGate<'a> {
    fn new(mut scheduler: TenantScheduler<'a>) -> Self {
        scheduler.advance();
        ScheduleGate { claims: scheduler.arrival_order(), scheduler: Mutex::new(scheduler) }
    }

    /// A thread that panics holding the lock re-raises when the pool's
    /// thread scope joins, so a recovered guard never yields a schedule.
    fn lock(&self) -> std::sync::MutexGuard<'_, TenantScheduler<'a>> {
        self.scheduler.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether job `j` was already shed (so it is never simulated).
    fn is_shed(&self, j: usize) -> bool {
        let (s, r) = self.claims[j];
        self.lock().is_shed(s, r)
    }

    /// Reveals job `j`'s simulated duration and advances the schedule.
    fn record(&self, j: usize, cycles: u64) {
        let (s, r) = self.claims[j];
        let mut scheduler = self.lock();
        scheduler.reveal(s, r, cycles);
        scheduler.advance();
    }

    fn into_scheduler(self) -> TenantScheduler<'a> {
        self.scheduler.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_schedule_single_worker_is_fifo() {
        // Three requests, 10-cycle service, arriving every 4 cycles.
        let arrivals = [0, 4, 8];
        let durations = [10, 10, 10];
        let schedule = virtual_schedule(&[0, 1, 2], &arrivals, &durations, 1, None, None);
        assert_eq!(schedule[0], ScheduleSlot::Served { start: 0, finish: 10 });
        assert_eq!(schedule[1], ScheduleSlot::Served { start: 10, finish: 20 });
        assert_eq!(schedule[2], ScheduleSlot::Served { start: 20, finish: 30 });
        assert_eq!(max_overlap(&schedule), 1);
    }

    #[test]
    fn virtual_schedule_extra_workers_run_in_parallel() {
        let arrivals = [0, 0, 0];
        let durations = [10, 10, 10];
        let schedule = virtual_schedule(&[0, 1, 2], &arrivals, &durations, 3, None, None);
        assert!(schedule.iter().all(|w| *w == ScheduleSlot::Served { start: 0, finish: 10 }));
        assert_eq!(max_overlap(&schedule), 3);
    }

    #[test]
    fn virtual_schedule_sheds_beyond_queue_depth() {
        // One worker busy 0..100; depth 1: request 1 queues, 2 and 3 shed.
        let arrivals = [0, 1, 2, 3];
        let durations = [100, 100, 100, 100];
        let schedule = virtual_schedule(&[0, 1, 2, 3], &arrivals, &durations, 1, Some(1), None);
        assert_eq!(schedule[0], ScheduleSlot::Served { start: 0, finish: 100 });
        assert_eq!(schedule[1], ScheduleSlot::Served { start: 100, finish: 200 });
        assert_eq!(schedule[2], ScheduleSlot::Shed);
        assert_eq!(schedule[3], ScheduleSlot::Shed);
    }

    #[test]
    fn virtual_schedule_departure_precedes_same_cycle_arrival() {
        // Worker frees at exactly t=10 when the second request arrives:
        // it must be admitted and start immediately.
        let arrivals = [0, 10];
        let durations = [10, 5];
        let schedule = virtual_schedule(&[0, 1], &arrivals, &durations, 1, Some(0), None);
        assert_eq!(schedule[1], ScheduleSlot::Served { start: 10, finish: 15 });
    }

    #[test]
    fn depth_zero_is_a_loss_system() {
        // No waiting room: the second concurrent request is shed.
        let arrivals = [0, 5];
        let durations = [100, 100];
        let schedule = virtual_schedule(&[0, 1], &arrivals, &durations, 1, Some(0), None);
        assert_eq!(schedule[0], ScheduleSlot::Served { start: 0, finish: 100 });
        assert_eq!(schedule[1], ScheduleSlot::Shed);
    }

    #[test]
    fn virtual_schedule_deadline_aborts_and_reclaims_worker() {
        // Request 0 would run 0..100 but its deadline is 50: the worker
        // is reclaimed at the abort cycle and serves request 1 on time.
        let arrivals = [0, 40];
        let durations = [100, 10];
        let schedule = virtual_schedule(&[0, 1], &arrivals, &durations, 1, None, Some(50));
        assert_eq!(schedule[0], ScheduleSlot::TimedOut { at: 50 });
        assert_eq!(schedule[1], ScheduleSlot::Served { start: 50, finish: 60 });
    }

    #[test]
    fn virtual_schedule_queue_expiry_consumes_no_worker() {
        // One worker, deadline 60. Request 0 finishes in time; request 1
        // starts at 50 and is aborted at its deadline 60; request 2's
        // deadline passes while it is still queued, so it expires
        // without occupying the worker — which is free again for
        // request 3 the moment it arrives.
        let arrivals = [0, 0, 0, 60];
        let durations = [50, 50, 50, 20];
        let schedule = virtual_schedule(&[0, 1, 2, 3], &arrivals, &durations, 1, None, Some(60));
        assert_eq!(schedule[0], ScheduleSlot::Served { start: 0, finish: 50 });
        assert_eq!(schedule[1], ScheduleSlot::TimedOut { at: 60 });
        assert_eq!(schedule[2], ScheduleSlot::TimedOut { at: 60 });
        assert_eq!(schedule[3], ScheduleSlot::Served { start: 60, finish: 80 });
    }

    #[test]
    fn virtual_schedule_finishing_exactly_at_deadline_completes() {
        let arrivals = [0];
        let durations = [50];
        let schedule = virtual_schedule(&[0], &arrivals, &durations, 1, None, Some(50));
        assert_eq!(schedule[0], ScheduleSlot::Served { start: 0, finish: 50 });
    }

    use puma_core::tensor::Matrix;

    /// A one-tile model: `y = tanh(A·x)` over `width` lanes, with `A`
    /// scaled by `scale` so different tenants compute different outputs.
    fn tiny_model(name: &str, width: usize, scale: f32) -> puma_compiler::graph::Model {
        let mut m = puma_compiler::graph::Model::new(name);
        let x = m.input("x", width);
        let a = m.constant_matrix(
            "A",
            Matrix::from_fn(width, width, |r, c| scale * ((r + 2 * c) % 5) as f32 * 0.01),
        );
        let ax = m.mvm(a, x).unwrap();
        let y = m.tanh(ax);
        m.output("y", y);
        m
    }

    fn catalog_with(models: &[(&str, f32)]) -> ModelCatalog {
        let cfg = NodeConfig::default();
        let mut catalog = ModelCatalog::new();
        for &(name, scale) in models {
            catalog
                .register_model(
                    name,
                    &tiny_model(name, 16, scale),
                    &cfg,
                    &CompilerOptions::default(),
                )
                .unwrap();
        }
        catalog
    }

    /// The batch form of [`TenantScheduler`]: every duration known upfront
    /// (from the loads), run to completion against `planner`.
    fn tenant_schedule(
        loads: &[TenantLoad],
        depth: Option<usize>,
        policy: &ScalePolicy,
        retry: &RetryPolicy,
        death: Option<(u64, usize, usize)>,
        planner: &mut TilePlanner,
    ) -> TenantSchedule {
        let mut scheduler =
            TenantScheduler::new(loads, depth, *policy, *retry, death, planner.clone());
        assert_eq!(scheduler.advance(), None, "every duration is known upfront");
        let (schedule, after) = scheduler.finish();
        *planner = after;
        schedule
    }

    fn load(arrivals: Vec<u64>, durations: Vec<u64>, tiles: usize) -> TenantLoad {
        let order: Vec<usize> = (0..arrivals.len()).collect();
        TenantLoad { arrivals, durations, order, tiles, node: 0, base: 0 }
    }

    #[test]
    fn tile_planner_first_fit_fills_gaps_in_order() {
        let mut p = TilePlanner::new(2, 8);
        assert_eq!(p.first_fit(3), Some((0, 0)));
        assert_eq!(p.first_fit(4), Some((0, 3)));
        // 1 tile left on node 0: a 2-tile ask spills to node 1.
        assert_eq!(p.first_fit(2), Some((1, 0)));
        assert_eq!(p.first_fit(1), Some((0, 7)));
        // Releasing the middle allocation reopens its gap for first-fit.
        p.release(0, 3);
        assert_eq!(p.largest_free(), 6);
        assert_eq!(p.first_fit(4), Some((0, 3)));
        assert_eq!(p.first_fit(9), None);
    }

    #[test]
    fn tenant_schedule_single_stream_is_fifo() {
        let loads = [load(vec![0, 4, 8], vec![10, 10, 10], 1)];
        let mut planner = TilePlanner::new(1, 4);
        planner.first_fit(1).unwrap();
        let s = tenant_schedule(
            &loads,
            None,
            &ScalePolicy::default(),
            &RetryPolicy::default(),
            None,
            &mut planner,
        );
        assert_eq!(s.windows[0], vec![Some((0, 10)), Some((10, 20)), Some((20, 30))]);
        assert_eq!(s.shed[0], 0);
        assert_eq!(s.peak[0], 1);
        assert!(s.events.is_empty());
        assert_eq!(s.attempts[0], vec![1, 1, 1]);
        assert!(s.failed[0].iter().all(|f| !f));
    }

    #[test]
    fn tenant_schedule_sheds_beyond_queue_depth() {
        let loads = [load(vec![0, 1, 2, 3], vec![100; 4], 1)];
        let mut planner = TilePlanner::new(1, 1);
        planner.first_fit(1).unwrap();
        let s = tenant_schedule(
            &loads,
            Some(1),
            &ScalePolicy::default(),
            &RetryPolicy::default(),
            None,
            &mut planner,
        );
        assert_eq!(s.windows[0][0], Some((0, 100)));
        assert_eq!(s.windows[0][1], Some((100, 200)));
        assert_eq!(s.windows[0][2], None);
        assert_eq!(s.shed[0], 2);
    }

    #[test]
    fn tenant_schedule_scales_up_at_queue_depth() {
        // One replica busy 0..100; the second waiting request (queue
        // depth 2) triggers a replica that immediately serves the head.
        let loads = [load(vec![0, 1, 2], vec![100; 3], 2)];
        let mut planner = TilePlanner::new(1, 8);
        planner.first_fit(2).unwrap();
        let s = tenant_schedule(
            &loads,
            None,
            &ScalePolicy::new(2, 2),
            &RetryPolicy::default(),
            None,
            &mut planner,
        );
        assert_eq!(s.windows[0][0], Some((0, 100)));
        // Request 1 queued at t=1; request 2's arrival at t=2 makes the
        // queue reach depth 2 → scale up serves request 1 (the head).
        assert_eq!(s.windows[0][1], Some((2, 102)));
        assert_eq!(s.peak[0], 2);
        assert_eq!(
            s.events.first(),
            Some(&RawScaleEvent {
                cycle: 2,
                stream: 0,
                slot: 1,
                kind: ScaleDirection::Up,
                live: 2
            })
        );
        // The scaled-up replica drains away once idle with an empty queue.
        let down =
            s.events.iter().find(|e| e.kind == ScaleDirection::Down).expect("replica released");
        assert_eq!(down.live, 1);
    }

    #[test]
    fn tenant_schedule_scale_up_respects_tile_capacity() {
        // No free tiles: the queue deepens but no replica is added.
        let loads = [load(vec![0, 1, 2, 3], vec![100; 4], 1)];
        let mut planner = TilePlanner::new(1, 1);
        planner.first_fit(1).unwrap();
        let s = tenant_schedule(
            &loads,
            None,
            &ScalePolicy::new(1, 4),
            &RetryPolicy::default(),
            None,
            &mut planner,
        );
        assert!(s.events.is_empty());
        assert_eq!(s.peak[0], 1);
        assert_eq!(s.windows[0][3], Some((300, 400)));
    }

    #[test]
    fn tenant_schedule_tile_death_quarantines_and_fails_over() {
        // One stream deployed on node 0 tiles 0..2; tile 0 dies at
        // cycle 50 while request 0 is in flight. The slot is
        // quarantined (its tiles stay allocated), a failover replica is
        // re-placed onto free tiles, request 1 starts on it at the
        // death cycle, and request 0 retries after one 8-cycle backoff.
        let loads = [load(vec![0, 10], vec![100, 100], 2)];
        let mut planner = TilePlanner::new(1, 8);
        planner.first_fit(2).unwrap();
        let s = tenant_schedule(
            &loads,
            None,
            &ScalePolicy::default(),
            &RetryPolicy::new(2, 8),
            Some((50, 0, 0)),
            &mut planner,
        );
        // Request 1 (queue head at the death) starts on the failover
        // replica immediately; request 0 re-arrives at 50 + 8 and runs
        // after it.
        assert_eq!(s.windows[0][1], Some((50, 150)));
        assert_eq!(s.windows[0][0], Some((150, 250)));
        assert_eq!(s.attempts[0], vec![2, 1]);
        assert!(s.failed[0].iter().all(|f| !f));
        let kinds: Vec<ScaleDirection> = s.events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![ScaleDirection::Quarantine, ScaleDirection::Failover]);
        assert_eq!(s.events[0].live, 0);
        assert_eq!(s.events[1].live, 1);
        // The dead deployment's tiles were never released: 2 tiles
        // quarantined + 2 for the failover replica leave 4 of 8 free.
        assert_eq!(planner.largest_free(), 4);
    }

    #[test]
    fn tenant_schedule_retries_exhaust_to_failure() {
        // No spare tiles: the death removes the only replica, failover
        // finds no capacity, and every unserved request fails. The
        // default retry policy (1 attempt) spends the victim's budget
        // immediately.
        let loads = [load(vec![0, 10, 20], vec![100; 3], 2)];
        let mut planner = TilePlanner::new(1, 2);
        planner.first_fit(2).unwrap();
        let s = tenant_schedule(
            &loads,
            None,
            &ScalePolicy::default(),
            &RetryPolicy::default(),
            Some((50, 0, 1)),
            &mut planner,
        );
        assert_eq!(s.windows[0], vec![None, None, None]);
        assert_eq!(s.failed[0], vec![true, true, true]);
        let kinds: Vec<ScaleDirection> = s.events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![ScaleDirection::Quarantine]);
        assert_eq!(s.shed[0], 0);
    }

    #[test]
    fn tenant_schedule_scale_down_never_evicts_inflight_requests() {
        // A burst that scales up, then a long tail on one replica.
        let loads = [load(vec![0, 0, 0, 0, 200, 400], vec![100; 6], 1)];
        let mut planner = TilePlanner::new(1, 4);
        planner.first_fit(1).unwrap();
        let s = tenant_schedule(
            &loads,
            None,
            &ScalePolicy::new(2, 3),
            &RetryPolicy::default(),
            None,
            &mut planner,
        );
        // Everything completes.
        assert!(s.windows[0].iter().all(Option::is_some));
        // Slot 0 (the materialized deployment) is never released.
        assert!(s.events.iter().filter(|e| e.kind == ScaleDirection::Down).all(|e| e.slot != 0));
        // A released replica has no request in flight at the release
        // cycle: every request it served finished at or before it.
        for e in s.events.iter().filter(|e| e.kind == ScaleDirection::Down) {
            for (r, slot) in s.replica_of[e.stream].iter().enumerate() {
                if *slot == Some(e.slot) {
                    let (start, finish) = s.windows[e.stream][r].unwrap();
                    assert!(
                        finish <= e.cycle || start > e.cycle,
                        "slot {} released at {} with request {} in flight ({}..{})",
                        e.slot,
                        e.cycle,
                        r,
                        start,
                        finish
                    );
                }
            }
        }
        // All transient allocations were returned: only the deployment
        // remains, so three more tiles are still allocatable.
        assert_eq!(planner.largest_free(), 3);
    }

    #[test]
    fn catalog_rejects_duplicates_and_bad_names() {
        let mut catalog = catalog_with(&[("m", 1.0)]);
        let cfg = NodeConfig::default();
        let again = compile(&tiny_model("m", 16, 1.0), &cfg, &CompilerOptions::default()).unwrap();
        assert!(catalog.register("m", again.clone()).is_err());
        assert!(catalog.register("a:b", again.clone()).is_err());
        assert!(catalog.register("", again).is_err());
    }

    #[test]
    fn deploy_places_disjoint_allocations_and_rejects_over_capacity() {
        let catalog = catalog_with(&[("a", 1.0), ("b", 2.0), ("c", 3.0)]);
        let mut server =
            TenantServer::functional(catalog, FabricSpec::new(1, 2), &NodeConfig::default())
                .unwrap();
        server.deploy("a").unwrap();
        server.deploy("b").unwrap();
        // Allocations never overlap.
        for (i, d) in server.deployments().iter().enumerate() {
            for e in &server.deployments()[i + 1..] {
                assert!(
                    d.node != e.node || d.base + d.tiles <= e.base || e.base + e.tiles <= d.base,
                    "overlap: {d:?} vs {e:?}"
                );
            }
        }
        // Over-capacity admission fails, naming the model and shortfall.
        let err = server.deploy("c").unwrap_err().to_string();
        assert!(err.contains("'c'") && err.contains("shortfall 1"), "{err}");
        // Re-deploying an already-resident model is rejected.
        assert!(server.deploy("a").is_err());
        // Unknown models are rejected by name.
        assert!(server.deploy("nope").unwrap_err().to_string().contains("'nope'"));
    }

    #[test]
    fn tenant_server_serves_two_residents_with_solo_identical_outputs() {
        let catalog = catalog_with(&[("left", 1.0), ("right", -2.0)]);
        let cfg = NodeConfig::default();
        let mut server = TenantServer::functional(catalog, FabricSpec::new(1, 4), &cfg).unwrap();
        server.deploy("left").unwrap();
        server.deploy("right").unwrap();
        let requests: Vec<BatchRequest> = (0..3)
            .map(|i| BatchRequest::new(vec![("x".to_string(), vec![0.1 * (i + 1) as f32; 16])]))
            .collect();
        let streams = vec![
            TenantStream::new("left", requests.clone(), TrafficPattern::Uniform { interval: 50 }),
            TenantStream::new("right", requests.clone(), TrafficPattern::Uniform { interval: 70 }),
        ];
        let outcome = server.serve(&streams).unwrap();
        assert_eq!(outcome.models.len(), 2);
        for (name, scale) in [("left", 1.0), ("right", -2.0)] {
            let model = outcome.model(name).unwrap();
            assert_eq!(model.completed(), 3);
            assert_eq!(model.shed, 0);
            assert!(model.latency.p50 > 0);
            assert!(model.stats.cycles > 0);
            // Per-tenant outputs on the shared fabric are bit-identical
            // to the model served alone.
            let mut solo = ModelRunner::functional(&tiny_model(name, 16, scale), &cfg).unwrap();
            for (i, served) in model.results.iter().enumerate() {
                let Disposition::Completed { result, .. } = &served.disposition else {
                    panic!("request {i} did not complete");
                };
                let expect = solo.run(&[("x", vec![0.1 * (i + 1) as f32; 16])]).unwrap();
                assert_eq!(result.outputs["y"], expect["y"], "{name} request {i}");
            }
        }
        // Undeployed model streams are rejected by name.
        let bad =
            server.serve(&[TenantStream::new("ghost", vec![], TrafficPattern::Batch)]).unwrap_err();
        assert!(bad.to_string().contains("'ghost'"));
    }

    #[test]
    fn pipelined_serve_recovers_a_poisoned_pipeline_cache() {
        // Two chained layers sharded over two nodes: a two-stage pipeline.
        let mut m = puma_compiler::graph::Model::new("chain");
        let x = m.input("x", 16);
        let a = m.constant_matrix("A", Matrix::from_fn(16, 16, |r, c| ((r + c) % 7) as f32 * 0.02));
        let h = m.mvm(a, x).unwrap();
        let h = m.tanh(h);
        let b = m.constant_matrix("B", Matrix::from_fn(16, 16, |r, c| ((r * c) % 5) as f32 * 0.03));
        let y = m.mvm(b, h).unwrap();
        let y = m.tanh(y);
        m.output("y", y);
        let options = CompilerOptions {
            partitioning: puma_compiler::Partitioning::Sharded { nodes: 2 },
            ..CompilerOptions::default()
        };
        // One 16×16 MVMU per tile, so each layer's weights take a tile.
        let mut cfg = NodeConfig::default();
        cfg.tile.core.mvmu.dim = 16;
        cfg.tile.core.mvmus_per_core = 1;
        cfg.tile.cores_per_tile = 1;
        let runner =
            ServeRunner::new(&m, &cfg, &options, SimMode::Functional, &NoiseModel::noiseless())
                .unwrap()
                .with_pipeline(true);
        assert_eq!(runner.nodes_per_request(), 2);
        let requests: Vec<ServeRequest> = (0..3u64)
            .map(|i| ServeRequest::new(i * 500, vec![("x".to_string(), vec![0.1 * i as f32; 16])]))
            .collect();
        let outputs = |outcome: &ServeOutcome| -> Vec<Vec<f32>> {
            outcome
                .results
                .iter()
                .map(|r| match &r.disposition {
                    Disposition::Completed { result, .. } => result.outputs["y"].clone(),
                    other => panic!("request not completed: {other:?}"),
                })
                .collect()
        };
        let clean = runner.serve(&requests).unwrap();
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _cache = runner.pipeline_sim.lock();
                panic!("poisoning the pipeline cache");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(runner.pipeline_sim.is_poisoned());
        let recovered = runner.serve(&requests).unwrap();
        assert_eq!(outputs(&recovered), outputs(&clean));
        assert_eq!(recovered.latency, clean.latency);
        assert_eq!(recovered.stages, clean.stages);
    }

    #[test]
    fn latency_summary_nearest_rank() {
        let s = LatencySummary::from_latencies((1..=100).collect());
        assert_eq!(s.p50, 50);
        assert_eq!(s.p95, 95);
        assert_eq!(s.p99, 99);
        assert_eq!(s.max, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert_eq!(LatencySummary::from_latencies(vec![]), LatencySummary::default());
    }

    #[test]
    fn latency_summary_mean_survives_u64_overflow() {
        // Eight latencies near the cycle cap: the u64 sum wraps (8 ×
        // 2^63 > 2^64) and a wrapped mean would come out near zero.
        let lat = u64::MAX / 2;
        let s = LatencySummary::from_latencies(vec![lat; 8]);
        let want = lat as f64;
        assert!(
            (s.mean - want).abs() <= want * 1e-12,
            "mean silently wrapped: {} vs {}",
            s.mean,
            want
        );
        assert_eq!(s.max, lat);
    }

    /// One random tenant scenario for the laziness property: loads with
    /// their true durations, queue depth, policies, tile death, and a
    /// planner with every stream deployed (`None` when they do not fit).
    #[allow(clippy::type_complexity)]
    fn random_scenario(
        rng: &mut proptest::test_runner::TestRng,
    ) -> Option<(
        Vec<TenantLoad>,
        Option<usize>,
        ScalePolicy,
        RetryPolicy,
        Option<(u64, usize, usize)>,
        TilePlanner,
    )> {
        let nodes = 1 + rng.next_index(2);
        let tiles_per_node = 2 + rng.next_index(7);
        let mut planner = TilePlanner::new(nodes, tiles_per_node);
        let mut loads = Vec::new();
        for _ in 0..1 + rng.next_index(3) {
            let tiles = 1 + rng.next_index(2);
            let (node, base) = planner.first_fit(tiles)?;
            let n = rng.next_index(14);
            let mut t = 0u64;
            let mut arrivals = Vec::with_capacity(n);
            let mut durations = Vec::with_capacity(n);
            for _ in 0..n {
                t += rng.next_index(40) as u64;
                arrivals.push(t);
                // A request that faulted in simulation serves 0 cycles.
                durations.push(if rng.next_index(8) == 0 {
                    0
                } else {
                    1 + rng.next_index(80) as u64
                });
            }
            // Malformed requests never enter the schedule.
            let order = (0..n).filter(|_| rng.next_index(10) != 0).collect();
            loads.push(TenantLoad { arrivals, durations, order, tiles, node, base });
        }
        let depth = [None, Some(0), Some(1), Some(2), Some(4)][rng.next_index(5)];
        let policy = if rng.next_index(2) == 0 {
            ScalePolicy::default()
        } else {
            ScalePolicy::new(1 + rng.next_index(3), 1 + rng.next_index(3))
        };
        let retry = RetryPolicy::new(1 + rng.next_index(3), rng.next_index(20) as u64);
        let death = (rng.next_index(2) == 0).then(|| {
            (rng.next_index(300) as u64, rng.next_index(nodes), rng.next_index(tiles_per_node))
        });
        Some((loads, depth, policy, retry, death, planner))
    }

    /// The resumable scheduler's laziness property: whether durations
    /// are revealed only when a start asks for them, or in a random
    /// order regardless of need, the finished schedule (and planner) is
    /// the one computed with every duration known upfront — and the
    /// only durations ever asked for are those of requests that start,
    /// so a shed request never needs simulating.
    #[test]
    fn tenant_scheduler_reveals_in_any_order_to_the_upfront_schedule() {
        let mut rng = proptest::test_runner::TestRng::from_seed(0x7e4a_4747);
        let mut cases = 0;
        while cases < 400 {
            let Some((loads, depth, policy, retry, death, planner)) = random_scenario(&mut rng)
            else {
                continue;
            };
            cases += 1;
            let mut upfront_planner = planner.clone();
            let upfront =
                tenant_schedule(&loads, depth, &policy, &retry, death, &mut upfront_planner);
            let hidden: Vec<TenantLoad> = loads
                .iter()
                .map(|l| TenantLoad {
                    arrivals: l.arrivals.clone(),
                    durations: Vec::new(),
                    order: l.order.clone(),
                    tiles: l.tiles,
                    node: l.node,
                    base: l.base,
                })
                .collect();
            let fresh =
                || TenantScheduler::new(&hidden, depth, policy, retry, death, planner.clone());

            // Lazy: reveal exactly what each stall asks for.
            let mut lazy = fresh();
            let mut asked = Vec::new();
            while let Some((s, r)) = lazy.advance() {
                assert!(!asked.contains(&(s, r)), "case {cases}: asked for ({s}, {r}) twice");
                asked.push((s, r));
                lazy.reveal(s, r, loads[s].durations[r]);
            }
            let (schedule, after) = lazy.finish();
            assert_eq!(schedule, upfront, "case {cases}: lazy reveal changed the schedule");
            assert_eq!(after.allocs, upfront_planner.allocs, "case {cases}");
            for (s, l) in loads.iter().enumerate() {
                for &r in &l.order {
                    let started = upfront.attempts[s][r] > 0;
                    assert_eq!(asked.contains(&(s, r)), started, "case {cases}: ({s}, {r})");
                }
            }

            // Random order: reveal everything one at a time, advancing
            // after each; a shed decision, once made, is final.
            let mut all = fresh().arrival_order();
            for i in (1..all.len()).rev() {
                all.swap(i, rng.next_index(i + 1));
            }
            let mut random = fresh();
            random.advance();
            for &(s, r) in &all {
                random.reveal(s, r, loads[s].durations[r]);
                random.advance();
                for &(s, r) in &all {
                    if random.is_shed(s, r) {
                        assert_eq!(upfront.attempts[s][r], 0, "case {cases}: ({s}, {r})");
                    }
                }
            }
            assert_eq!(random.advance(), None);
            let (schedule, after) = random.finish();
            assert_eq!(schedule, upfront, "case {cases}: random reveal changed the schedule");
            assert_eq!(after.allocs, upfront_planner.allocs, "case {cases}");
        }
    }
}
