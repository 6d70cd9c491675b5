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
//! count. Host threads only parallelize the simulation work; one
//! scheduler decides every start, finish, shed and timeout on the
//! simulated clock, for replicated and multi-tenant serving alike, so
//! percentiles are bit-reproducible and CI-gateable. It needs a request's
//! duration only when the request starts, so multi-tenant serving lets
//! it gate the simulation and never simulates a request it sheds.
//! Replicated serving is ungated on purpose: it rarely sheds, and
//! simulating up to four requests per pass pays more than skipping one.

use puma_compiler::{
    compile, compose_fabric, fit_config, CompiledModel, CompilerOptions, Resident,
};
use puma_core::config::NodeConfig;
use puma_core::error::{PumaError, Result};
use puma_core::fixed::Fixed;
use puma_core::timing::TrafficPattern;
use puma_isa::MachineImage;
use puma_sim::{
    ClusterSim, NodeSim, PipelineRequest, PipelineResult, PipelineSim, ResidentModel, RunStats,
    SimEngine, SimMode, StageStats,
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

    /// Writes `plan`'s constants into a simulator fresh from a reset,
    /// once: the first pass writes them and keeps a snapshot of the
    /// result under `key` (the resident's name on a shared fabric), which
    /// later passes restore instead — only the dirty words are copied,
    /// and the statistics come back with the off-chip energy the writes
    /// charged. A cluster snapshots every node.
    fn write_constants(&mut self, plan: &IoPlan, key: &str) -> Result<()> {
        let restored = match self {
            SimBackend::Node(s) => s.restore_snapshot(key),
            SimBackend::Cluster(s) => s.restore_snapshot(key),
        };
        if restored {
            return Ok(());
        }
        for (binding, values) in &plan.consts {
            match self {
                SimBackend::Node(s) => s.write_input_fixed(binding, values)?,
                SimBackend::Cluster(s) => s.write_input_fixed(binding, values)?,
            }
        }
        match self {
            SimBackend::Node(s) => s.save_snapshot(key),
            SimBackend::Cluster(s) => s.save_snapshot(key),
        }
        Ok(())
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
    sim.write_constants(plan, resident.unwrap_or_default())?;
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
        .map(|lane| gather_outputs(compiled, plan, |chunk| sim.read_output_lane(chunk, lane)))
        .collect()
}

/// Assembles each logical output of `compiled` from its planned chunk
/// bindings, reading each chunk with `read`.
fn gather_outputs(
    compiled: &CompiledModel,
    plan: &IoPlan,
    mut read: impl FnMut(&str) -> Result<Vec<f32>>,
) -> Result<HashMap<String, Vec<f32>>> {
    let mut out = HashMap::with_capacity(compiled.outputs.len());
    for (io, chunks) in compiled.outputs.iter().zip(&plan.outputs) {
        let mut data = Vec::with_capacity(io.width);
        for chunk in chunks {
            data.extend(read(chunk)?);
        }
        out.insert(io.name.clone(), data);
    }
    Ok(out)
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
/// With a `gate`, passes are single jobs and job `j` is the schedule's
/// `j`-th request in merged arrival order: a thread skips a claim the
/// schedule has already shed and records every simulated duration in
/// it, advancing it as far as the known durations allow. Threads never
/// wait for a decision: an undecided job — possible only with more than
/// one host thread — is simulated speculatively. A thread that panics
/// holding the gate re-raises when the thread scope joins, so a
/// recovered lock never yields a schedule. Results never depend on the
/// thread count or on which jobs share a pass.
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
    gate: Option<&Mutex<TenantScheduler<'_>>>,
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
                    if gate.is_some_and(|g| {
                        g.lock().unwrap_or_else(PoisonError::into_inner).is_shed(j)
                    }) {
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
                            let cycles = result.as_ref().map_or(0, |ok| ok.stats.cycles);
                            g.lock().unwrap_or_else(PoisonError::into_inner).record(j, cycles);
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
// Most records are `Completed`, so boxing its result would add one
// allocation per request to shrink only the shed and failed records.
#[allow(clippy::large_enum_variant)]
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
    /// Aggregate statistics over the completed requests — deterministic
    /// for any worker or host-thread count. `cycles` is serial-equivalent
    /// simulated latency (see [`RunStats::merge`]).
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
    /// Most completed requests in service at once, by
    /// [`puma_sim::max_concurrent`] over their `[start, finish)` windows.
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
    /// Aggregate statistics over the successful requests — deterministic
    /// for any thread count. `cycles` is serial-equivalent simulated
    /// latency (see [`RunStats::merge`]).
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
/// arrival. A request whose deadline ([`ServeRunner::with_deadline`])
/// passes while it waits expires without taking a worker, but keeps its
/// queue place — counting toward `depth` — until a worker would start it.
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
        // submission order is the FIFO queue order (and, with a watchdog
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
        let mut outcome = if self.pipeline && self.nodes_per_request() > 1 {
            self.serve_pipelined(arrivals, inputs)?
        } else {
            self.serve_replicated(arrivals, inputs)?
        };
        outcome.wall_seconds = started.elapsed().as_secs_f64();
        Ok(outcome)
    }

    /// Replicated-worker serving: simulate every valid request, ungated,
    /// up to [`LANES`] consecutive requests per pass, then schedule them
    /// as one stream on `workers` primary slots of [`TenantScheduler`].
    /// Requests with malformed inputs are rejected at submission, never
    /// simulated and never queued (matching the pipelined path), so they
    /// never displace a valid request from the bounded queue.
    fn serve_replicated(
        &self,
        arrivals: &[u64],
        inputs: &[&[(String, Vec<f32>)]],
    ) -> Result<ServeOutcome> {
        let checks: Vec<Result<()>> = inputs
            .iter()
            .map(|i| for_each_input_chunk(&self.compiled, &self.plan, i, &mut |_, _| Ok(())))
            .collect();
        let jobs: Vec<usize> = (0..inputs.len()).filter(|&i| checks[i].is_ok()).collect();
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
        let mut exec: Vec<Option<Result<RequestResult>>> = inputs.iter().map(|_| None).collect();
        for (&i, slot) in jobs.iter().zip(slots) {
            exec[i] = slot;
        }
        // A request that faulted in simulation occupies its worker for
        // zero cycles: the fault is reported per request, not modelled
        // as service time.
        let durations = exec
            .iter()
            .map(|r| r.as_ref().and_then(|r| r.as_ref().ok()).map_or(0, |ok| ok.stats.cycles))
            .collect();
        // Arrivals are non-decreasing, so submission order is queue order.
        let load = TenantLoad {
            arrivals: arrivals.to_vec(),
            durations,
            order: jobs,
            replicas: self.workers,
            ..TenantLoad::default()
        };
        let (schedule, _) = TenantScheduler::new(
            std::slice::from_ref(&load),
            self.queue_depth,
            self.deadline,
            ScalePolicy::default(),
            RetryPolicy::default(),
            None,
            TilePlanner::new(0, 0),
        )
        .finish()
        .map_err(|(_, r)| PumaError::Execution {
            what: format!("the serving schedule stalled on request {r}"),
        })?;
        let tally =
            settle_stream(arrivals, checks, &schedule, 0, exec, &|i| format!("request {i}"));
        Ok(tally.into_serve_outcome(self.workers, host_threads, None))
    }

    /// Pipelined serving over a sharded model (see the type docs).
    fn serve_pipelined(
        &self,
        arrivals: &[u64],
        inputs: &[&[(String, Vec<f32>)]],
    ) -> Result<ServeOutcome> {
        // Reject malformed requests before they enter the queue, and
        // build the per-request write list (input chunks) the pipeline
        // performs when a node starts the request's segment. The model
        // constants are identical for every request, so they are
        // flattened once and passed as the pipeline's common writes.
        let mut checks: Vec<Result<()>> = Vec::with_capacity(inputs.len());
        let mut pipeline_requests = Vec::with_capacity(inputs.len());
        for (&arrival, input) in arrivals.iter().zip(inputs) {
            let mut writes = RequestWrites::new();
            let check =
                for_each_input_chunk(&self.compiled, &self.plan, input, &mut |chunk, data| {
                    writes.push((chunk.to_string(), data.to_vec()));
                    Ok(())
                });
            if check.is_ok() {
                pipeline_requests.push(PipelineRequest { arrival, writes });
            }
            checks.push(check);
        }
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
        let mut served = report.results.into_iter();
        let mut tally = Tally::default();
        for (i, check) in checks.into_iter().enumerate() {
            let disposition = match check.map(|()| served.next()) {
                Err(e) => Disposition::Failed(e.into()),
                // The watchdog aborted this request mid-pipeline; the
                // typed fault (deadline or tile death) is per-request.
                Ok(Some(PipelineResult { error: Some(e), .. })) => {
                    tally.timed_out += 1;
                    Disposition::Failed(e.into())
                }
                Ok(Some(r)) if r.admitted => {
                    let outputs = gather_outputs(&self.compiled, &self.plan, |chunk| {
                        Ok(r.outputs.get(chunk).cloned().unwrap_or_default())
                    })?;
                    let result = RequestResult { outputs, stats: r.stats };
                    Disposition::Completed { result, start: r.start, finish: r.finish }
                }
                Ok(Some(_)) => Disposition::Shed,
                Ok(None) => internal(format!("the pipeline reported no outcome for request {i}")),
            };
            tally.push(arrivals[i], disposition);
        }
        Ok(tally.into_serve_outcome(1, 1, Some(report.stages)))
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
}

/// A per-request failure the serving stack reports for a state it never
/// reaches.
fn internal(what: String) -> Disposition {
    Disposition::Failed(RequestError::Sim(PumaError::Execution {
        what: format!("internal: {what}"),
    }))
}

/// One request stream's served records and the totals over them — the
/// one outcome assembly behind [`ServeOutcome`] and
/// [`TenantModelOutcome`]. Records are pushed in submission order.
#[derive(Debug, Default)]
struct Tally {
    results: Vec<ServedRequest>,
    stats: RunStats,
    latencies: Vec<u64>,
    shed: usize,
    timed_out: usize,
    retried: usize,
    failed: usize,
    /// Cycle the last completed request finished (0 if none completed).
    makespan: u64,
}

impl Tally {
    fn push(&mut self, arrival: u64, disposition: Disposition) {
        match &disposition {
            Disposition::Completed { result, finish, .. } => {
                self.stats.merge(&result.stats);
                self.latencies.push(finish - arrival);
                self.makespan = self.makespan.max(*finish);
            }
            Disposition::Shed => self.shed += 1,
            Disposition::Failed(_) => {}
        }
        self.results.push(ServedRequest { arrival, disposition });
    }

    fn into_serve_outcome(
        self,
        workers: usize,
        host_threads: usize,
        stages: Option<Vec<StageStats>>,
    ) -> ServeOutcome {
        let windows = self.results.iter().filter_map(|r| match r.disposition {
            Disposition::Completed { start, finish, .. } => Some((start, finish)),
            _ => None,
        });
        ServeOutcome {
            max_concurrent: puma_sim::max_concurrent(windows),
            results: self.results,
            stats: self.stats,
            latency: LatencySummary::from_latencies(self.latencies),
            shed: self.shed,
            timed_out: self.timed_out,
            workers,
            host_threads,
            makespan_cycles: self.makespan,
            stages,
            wall_seconds: 0.0,
        }
    }
}

/// Settles stream `s` of a finished schedule: each request's disposition
/// comes from its input check, then its [`Verdict`], then — for a served
/// request — what simulating it gave (`exec`). `who(i)` names request
/// `i` in its errors.
fn settle_stream(
    arrivals: &[u64],
    checks: Vec<Result<()>>,
    schedule: &TenantSchedule,
    s: usize,
    exec: Vec<Option<Result<RequestResult>>>,
    who: &dyn Fn(usize) -> String,
) -> Tally {
    let mut tally = Tally { results: Vec::with_capacity(arrivals.len()), ..Tally::default() };
    for (i, (check, exec)) in checks.into_iter().zip(exec).enumerate() {
        let attempts = schedule.attempts[s][i];
        let disposition = match (check, schedule.verdicts[s][i], exec) {
            (Err(e), ..) | (Ok(()), Some(Verdict::Served { .. }), Some(Err(e))) => {
                Disposition::Failed(e.into())
            }
            (Ok(()), Some(Verdict::Served { start, finish }), Some(Ok(result))) => {
                tally.retried += usize::from(attempts > 1);
                Disposition::Completed { result, start, finish }
            }
            (Ok(()), Some(Verdict::Served { .. }), None) => {
                internal(format!("{} was never simulated", who(i)))
            }
            (Ok(()), None, _) => internal(format!("{} was never scheduled", who(i))),
            (Ok(()), Some(Verdict::Shed), _) => Disposition::Shed,
            (Ok(()), Some(Verdict::TimedOut { at, deadline }), _) => {
                tally.timed_out += 1;
                let what = format!("{} overran its {deadline}-cycle serving deadline", who(i));
                Disposition::Failed(RequestError::Deadline { cycle: at, what })
            }
            (Ok(()), Some(Verdict::Lost { cycle, node, tile, budget }), _) => {
                tally.failed += 1;
                let what = format!(
                    "{} lost to the tile death ({attempts} of {budget} attempts made)",
                    who(i)
                );
                Disposition::Failed(RequestError::FaultedTile { node, tile, cycle, what })
            }
            (Ok(()), Some(Verdict::Overflow { start, cycles }), _) => {
                let what = format!(
                    "{} would finish past cycle u64::MAX: {cycles} cycles from {start}",
                    who(i)
                );
                Disposition::Failed(RequestError::Sim(PumaError::Execution { what }))
            }
        };
        tally.push(arrivals[i], disposition);
    }
    tally
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
    /// Aggregate statistics over this model's completed requests (see
    /// [`RunStats::merge`]). Because a tenant
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
            placed
                .push((d, &**self.catalog.get(&s.model).expect("deployed models stay cataloged")));
        }
        // Malformed requests are rejected at submission and never occupy
        // a queue slot; the rest are scheduled in (arrival, index) order.
        let mut checks: Vec<Vec<Result<()>>> = Vec::with_capacity(streams.len());
        let mut loads: Vec<TenantLoad> = Vec::with_capacity(streams.len());
        for (s, &(d, compiled)) in streams.iter().zip(&placed) {
            let check: Vec<Result<()>> = s
                .requests
                .iter()
                .map(|r| {
                    for_each_input_chunk(compiled, &self.plans[d], &r.inputs, &mut |_, _| Ok(()))
                })
                .collect();
            let arrivals = s.pattern.arrivals(s.requests.len());
            let mut order: Vec<usize> = (0..check.len()).filter(|&i| check[i].is_ok()).collect();
            order.sort_by_key(|&i| (arrivals[i], i));
            let Deployment { tiles, node, base, .. } = self.deployments[d];
            loads.push(TenantLoad {
                arrivals,
                durations: Vec::new(),
                order,
                replicas: 1,
                tiles,
                node,
                base,
            });
            checks.push(check);
        }
        // An injected tile death is scheduling-visible (quarantine +
        // failover + retry); the fabric simulators never see it.
        let death =
            self.cfg.faults.tile_death.map(|d| (d.at_cycle, usize::from(d.node), d.tile as usize));
        // The planner copy is transient: mid-serve replica allocations
        // must not change the fabric's persistent placements.
        let mut scheduler = TenantScheduler::new(
            &loads,
            self.queue_depth,
            None,
            self.policy,
            self.retry,
            death,
            self.planner.clone(),
        );
        scheduler.advance();
        let claims = scheduler.arrival_order();
        let gate = Mutex::new(scheduler);
        let (slots, host_threads) = run_pool(
            &self.pool,
            self.host_threads,
            claims.len(),
            1,
            &|| self.fork_fabric_sim(),
            &|sim, pass| {
                let (s, r) = claims[pass.start];
                let (d, compiled) = placed[s];
                serve_pass(
                    sim,
                    compiled,
                    &self.plans[d],
                    &[&streams[s].requests[r].inputs],
                    Some(&streams[s].model),
                )
            },
            Some(&gate),
        );
        let mut exec: Vec<Vec<Option<Result<RequestResult>>>> =
            streams.iter().map(|s| s.requests.iter().map(|_| None).collect()).collect();
        let mut simulated = 0usize;
        for (slot, &(s, r)) in slots.into_iter().zip(&claims) {
            simulated += usize::from(slot.is_some());
            exec[s][r] = slot;
        }
        let (schedule, _) =
            gate.into_inner().unwrap_or_else(PoisonError::into_inner).finish().map_err(
                |(s, r)| PumaError::Execution {
                    what: format!(
                        "the tenant schedule stalled on request {r} of model '{}' after the \
                     pool drained",
                        streams[s].model
                    ),
                },
            )?;
        // Assemble per-model outcomes in stream order.
        let mut models = Vec::with_capacity(streams.len());
        let mut makespan = 0u64;
        for (si, ((stream, checks), exec)) in streams.iter().zip(checks).zip(exec).enumerate() {
            let who = |i| format!("request {i} of model '{}'", stream.model);
            let tally = settle_stream(&loads[si].arrivals, checks, &schedule, si, exec, &who);
            // Every step that adds a replica records the live count after it.
            let events = schedule.events.iter().filter(|e| e.stream == si);
            makespan = makespan.max(tally.makespan);
            models.push(TenantModelOutcome {
                model: stream.model.clone(),
                results: tally.results,
                stats: tally.stats,
                latency: LatencySummary::from_latencies(tally.latencies),
                shed: tally.shed,
                retried: tally.retried,
                failed: tally.failed,
                peak_replicas: events.fold(1, |peak, e| peak.max(e.live)),
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

/// One stream's load for [`TenantScheduler`].
#[derive(Default)]
struct TenantLoad {
    /// Arrival cycle of each request (non-decreasing).
    arrivals: Vec<u64>,
    /// Service duration of each request, in cycles, when known upfront;
    /// empty when durations are recorded as simulations finish
    /// ([`TenantScheduler::record`]).
    durations: Vec<u64>,
    /// Schedulable request indices in (arrival, index) order (malformed
    /// requests are excluded).
    order: Vec<usize>,
    /// Primary replica slots: a tenant's deployment, or a
    /// [`ServeRunner`]'s workers.
    replicas: usize,
    /// Tiles, node and first tile of the deployment the primary slots
    /// run on.
    tiles: usize,
    node: usize,
    base: usize,
}

/// One replica slot of one stream in the schedule.
#[derive(Debug, Clone, Copy)]
struct ReplicaSlot {
    /// The transient allocation of a scaled-up or failover replica.
    alloc: Option<(usize, usize)>,
    /// The initial slots and their failover replacements: never
    /// released by scale-down.
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

/// What the schedule decided for one request, carrying all its
/// disposition reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Shed,
    Served {
        start: u64,
        finish: u64,
    },
    /// The deadline watchdog fired at `at` = arrival + `deadline`.
    TimedOut {
        at: u64,
        deadline: u64,
    },
    /// Lost to the tile death of `tile` on `node` at `cycle`, with a
    /// retry budget of `budget` attempts.
    Lost {
        cycle: u64,
        node: usize,
        tile: usize,
        budget: usize,
    },
    /// `cycles` of service from `start` would finish past `u64::MAX`.
    Overflow {
        start: u64,
        cycles: u64,
    },
}

/// Output of [`TenantScheduler`].
#[derive(Debug, PartialEq)]
struct TenantSchedule {
    /// Per stream, per request: the decision (`None` = not schedulable).
    verdicts: Vec<Vec<Option<Verdict>>>,
    /// Per stream, per request: `(slot, from, until)` of the slot its
    /// last attempt held (read by the tests' overcommit check).
    #[allow(dead_code)]
    held: Vec<Vec<Option<(usize, u64, u64)>>>,
    /// Autoscaling and fault-recovery steps, in simulated-clock order.
    events: Vec<RawScaleEvent>,
    /// Per stream, per request: service attempts made (0 = never
    /// started; > 1 = completed or failed after fault retries).
    attempts: Vec<Vec<usize>>,
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

/// The one serving scheduler, computed incrementally: per-stream FIFO
/// queues bounded by `depth`, one service slot per live replica, an
/// optional per-request deadline, queue-depth-driven scale-up/down
/// against the planner's free tiles, and fault recovery for one injected
/// tile death `(cycle, node, tile)`. [`TenantServer`] runs it with one
/// primary slot per model and no deadline; replicated [`ServeRunner`]
/// serving with one stream, `workers` primary slots, no scaling and no
/// death.
///
/// Event order is total and host-independent: time, then
/// [`TenantEvent`] kind, then stream, then slot (departures) or request
/// index. An arrival takes the lowest idle slot only when nobody waits.
/// Scale-up fires on the arrival that makes a model's queue reach
/// [`ScalePolicy::scale_up_depth`] (capacity permitting), and the new
/// replica immediately serves the queue; a scaled-up replica is released
/// the moment it departs its last request with an empty queue, so
/// scale-down never evicts in-flight work. Primary slots stay.
///
/// Every start goes through [`TenantScheduler::start`]. With a deadline
/// `dl = arrival + deadline`, a start at `t ≥ dl` that would finish
/// after `dl` expires without taking a slot, and the next queue head is
/// tried in the same cycle; any other start that would finish after `dl`
/// is aborted there, freeing its slot at `dl`; finishing exactly at `dl`
/// completes. An expired request keeps its queue place, counting toward
/// `depth`, until a slot would start it. A start whose finish would pass
/// `u64::MAX` fails and takes no slot.
///
/// The death **quarantines** the live slot whose allocation covers the
/// dead tile (allocations are disjoint): it leaves service and keeps its
/// tiles, so nothing is ever re-placed there. Its in-flight request is
/// retried per `retry` (bypassing the queue bound: it was admitted
/// once), and a replacement replica is placed first-fit onto free tiles
/// (**failover**). A model left with no live replica loses its unserved
/// requests.
///
/// # Laziness
///
/// A request's service duration matters only when it **starts**; an
/// arrival that is queued or shed needs none. So
/// [`TenantScheduler::advance`] processes events until the next one
/// would start a request whose duration is not yet
/// [recorded](TenantScheduler::record), and stops there *before*
/// mutating anything. Revealing durations in any order and advancing
/// therefore yields the same [`TenantSchedule`] as knowing them all
/// upfront, and a request the schedule sheds never needs simulating.
struct TenantScheduler<'a> {
    loads: &'a [TenantLoad],
    depth: Option<usize>,
    deadline: Option<u64>,
    policy: ScalePolicy,
    retry: RetryPolicy,
    planner: TilePlanner,
    /// Per stream, per request: the service duration, once known.
    durations: Vec<Vec<Option<u64>>>,
    /// The schedule built so far.
    out: TenantSchedule,
    slots: Vec<Vec<ReplicaSlot>>,
    waiting: Vec<VecDeque<usize>>,
    /// Merged arrivals `(cycle, stream, request)`, consumed in order.
    arrivals: Vec<(u64, usize, usize)>,
    next_arrival: usize,
    /// Slots in service: `(frees at, stream, slot, request)`.
    departures: BinaryHeap<Reverse<(u64, usize, usize, usize)>>,
    /// Fault retries: `(re-arrival cycle, stream, request)`.
    retries: BinaryHeap<Reverse<(u64, usize, usize)>>,
    death: Option<(u64, usize, usize)>,
    death_pending: bool,
}

impl<'a> TenantScheduler<'a> {
    /// A schedule at cycle 0 over `loads`, with every duration the loads
    /// carry already revealed.
    fn new(
        loads: &'a [TenantLoad],
        depth: Option<usize>,
        deadline: Option<u64>,
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
        let primary = ReplicaSlot { alloc: None, primary: true, busy: false, removed: false };
        TenantScheduler {
            loads,
            depth,
            deadline,
            policy,
            retry,
            planner,
            durations: loads
                .iter()
                .map(|l| (0..l.arrivals.len()).map(|r| l.durations.get(r).copied()).collect())
                .collect(),
            out: TenantSchedule {
                verdicts: per_request(loads, None),
                held: per_request(loads, None),
                events: Vec::new(),
                attempts: per_request(loads, 0),
            },
            slots: loads.iter().map(|l| vec![primary; l.replicas]).collect(),
            waiting: loads.iter().map(|_| VecDeque::new()).collect(),
            arrivals,
            next_arrival: 0,
            departures: BinaryHeap::new(),
            retries: BinaryHeap::new(),
            death,
            death_pending: death.is_some(),
        }
    }

    /// Every schedulable request as `(stream, request)`, in merged
    /// arrival order — the order the schedule decides them in.
    fn arrival_order(&self) -> Vec<(usize, usize)> {
        self.arrivals.iter().map(|&(_, s, r)| (s, r)).collect()
    }

    /// Records job `j`'s service duration — job `j` is the `j`-th
    /// request of [`TenantScheduler::arrival_order`] — and advances the
    /// schedule as far as the known durations allow.
    fn record(&mut self, j: usize, cycles: u64) {
        let (_, s, r) = self.arrivals[j];
        self.durations[s][r] = Some(cycles);
        self.advance();
    }

    /// Whether job `j` has been shed on arrival.
    fn is_shed(&self, j: usize) -> bool {
        let (_, s, r) = self.arrivals[j];
        self.out.verdicts[s][r] == Some(Verdict::Shed)
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

    /// Completes the schedule and returns it with the planner's final
    /// state, or `Err((stream, request))` while it still needs that
    /// request's duration.
    fn finish(mut self) -> std::result::Result<(TenantSchedule, TilePlanner), (usize, usize)> {
        if let Some(needed) = self.advance() {
            return Err(needed);
        }
        // A stream left with no live replica (the death consumed its last
        // slot and failover found no capacity) can never serve what is
        // still waiting.
        for s in 0..self.loads.len() {
            if self.live(s) == 0 {
                for r in std::mem::take(&mut self.waiting[s]) {
                    self.lose(s, r);
                }
            }
        }
        Ok((self.out, self.planner))
    }

    /// The next event: minimum virtual time, ties by [`TenantEvent`].
    fn next_event(&self) -> Option<TenantEvent> {
        [
            (self.departures.peek().map(|&Reverse((t, ..))| t), TenantEvent::Departure),
            (self.death.filter(|_| self.death_pending).map(|(t, ..)| t), TenantEvent::Death),
            (self.retries.peek().map(|&Reverse((t, ..))| t), TenantEvent::Retry),
            (self.arrivals.get(self.next_arrival).map(|&(t, ..)| t), TenantEvent::Arrival),
        ]
        .into_iter()
        .filter_map(|(t, e)| t.map(|t| (t, e)))
        .min()
        .map(|(_, e)| e)
    }

    /// What starting `cycles` of service for request `r` of stream `s` at
    /// cycle `t` decides, and the cycle its slot frees again (`None`: it
    /// takes no slot).
    fn decide(&self, t: u64, s: usize, r: usize, cycles: u64) -> (Verdict, Option<u64>) {
        let end = t.checked_add(cycles);
        if let Some(deadline) = self.deadline {
            let at = self.loads[s].arrivals[r].saturating_add(deadline);
            if end.is_none_or(|finish| finish > at) {
                return (Verdict::TimedOut { at, deadline }, (t < at).then_some(at));
            }
        }
        match end {
            Some(finish) => (Verdict::Served { start: t, finish }, Some(finish)),
            None => (Verdict::Overflow { start: t, cycles }, None),
        }
    }

    /// `Err((s, r))` when serving stream `s`'s queue — then `next`, if
    /// given — on a slot freed at `t` would try request `r` before its
    /// duration is known. Heads are tried until one takes the slot.
    fn queue_known(
        &self,
        t: u64,
        s: usize,
        next: Option<usize>,
    ) -> std::result::Result<(), (usize, usize)> {
        for r in self.waiting[s].iter().copied().chain(next) {
            let cycles = self.durations[s][r].ok_or((s, r))?;
            if self.decide(t, s, r, cycles).1.is_some() {
                break;
            }
        }
        Ok(())
    }

    fn live(&self, s: usize) -> usize {
        self.slots[s].iter().filter(|x| !x.removed).count()
    }

    /// An idle live replica of stream `s` that may take a request now.
    /// Nobody is queued ahead of it: a slot falls idle only after serving
    /// the queue dry, and a request queues only while no slot is idle.
    fn idle_slot(&self, s: usize) -> Option<usize> {
        self.slots[s].iter().position(|x| !x.busy && !x.removed)
    }

    /// Starts request `r` of stream `s` on the free `slot` at cycle `t` —
    /// the one place a request starts — and returns whether it took the
    /// slot (see the type docs for the deadline and overflow rules).
    fn start(&mut self, t: u64, s: usize, r: usize, slot: usize) -> bool {
        let cycles = self.durations[s][r].expect("checked before the event mutated anything");
        let (verdict, frees) = self.decide(t, s, r, cycles);
        self.out.verdicts[s][r] = Some(verdict);
        self.out.attempts[s][r] += 1;
        let Some(frees) = frees else { return false };
        self.out.held[s][r] = Some((slot, t, frees));
        self.slots[s][slot].busy = true;
        self.departures.push(Reverse((frees, s, slot, r)));
        true
    }

    /// Starts stream `s`'s queue heads on the free `slot` at `t` until one
    /// takes it; false when the queue ran dry first.
    fn serve_queue(&mut self, t: u64, s: usize, slot: usize) -> bool {
        while let Some(r) = self.waiting[s].pop_front() {
            if self.start(t, s, r, slot) {
                return true;
            }
        }
        false
    }

    /// Records request `r` of stream `s` as lost to the tile death.
    fn lose(&mut self, s: usize, r: usize) {
        let budget = self.retry.max_attempts;
        self.out.verdicts[s][r] =
            self.death.map(|(cycle, node, tile)| Verdict::Lost { cycle, node, tile, budget });
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
        self.slots[s].len() - 1
    }

    /// Processes one event, or returns the request it would start whose
    /// duration is unknown — every such check precedes the first
    /// mutation, so a stalled event is left exactly as it was.
    fn step(&mut self, event: TenantEvent) -> std::result::Result<(), (usize, usize)> {
        match event {
            TenantEvent::Departure => {
                let &Reverse((t, s, slot, _)) = self.departures.peek().expect("event peeked");
                self.queue_known(t, s, None)?;
                self.departures.pop();
                self.slots[s][slot].busy = false;
                if !self.serve_queue(t, s, slot) && !self.slots[s][slot].primary {
                    // An idle scaled-up replica with an empty queue
                    // drains away; its tiles return to the free pool.
                    // Primary replicas stay resident.
                    let (node, base) =
                        self.slots[s][slot].alloc.expect("scaled-up replicas carry an allocation");
                    self.planner.release(node, base);
                    self.slots[s][slot].removed = true;
                    self.push_event(t, s, slot, ScaleDirection::Down);
                }
            }
            TenantEvent::Death => {
                let (dc, dn, dt) = self.death.expect("event peeked");
                // The live slot whose allocation covers the dead tile
                // (allocations are disjoint, so at most one does).
                let victim = (0..self.loads.len()).find_map(|s| {
                    let load = &self.loads[s];
                    let hit = |x: &ReplicaSlot| {
                        let (node, base) = x.alloc.unwrap_or((load.node, load.base));
                        !x.removed && node == dn && dt >= base && dt < base + load.tiles
                    };
                    self.slots[s].iter().position(hit).map(|k| (s, k))
                });
                if let Some((s, _)) =
                    victim.filter(|&(s, _)| self.planner.find_fit(self.loads[s].tiles).is_some())
                {
                    self.queue_known(dc, s, None)?;
                }
                self.death_pending = false;
                let Some((s, k)) = victim else { return Ok(()) };
                // Quarantine: the slot leaves service; its tiles stay
                // allocated so nothing is ever re-placed onto the dead
                // tile.
                self.slots[s][k].removed = true;
                self.push_event(dc, s, k, ScaleDirection::Quarantine);
                // Abort the in-flight victim; retry it after the
                // exponential backoff while the budget allows.
                let mut aborted = None;
                self.departures.retain(|&Reverse((_, ss, kk, r))| {
                    aborted = aborted.or((ss == s && kk == k).then_some(r));
                    ss != s || kk != k
                });
                if let Some(r) = aborted {
                    self.out.verdicts[s][r] = None;
                    self.out.held[s][r] = None;
                    let attempts = self.out.attempts[s][r];
                    if attempts < self.retry.max_attempts {
                        let exp = (attempts as u32 - 1).min(63);
                        let delay = self.retry.backoff_cycles.saturating_mul(1u64 << exp);
                        self.retries.push(Reverse((dc.saturating_add(delay), s, r)));
                    } else {
                        self.lose(s, r);
                    }
                }
                // Failover: re-place the replica onto free tiles,
                // first-fit like any deployment. The recovered replica
                // immediately serves the queue.
                if let Some(alloc) = self.planner.first_fit(self.loads[s].tiles) {
                    let slot = self.add_slot(s, alloc, self.slots[s][k].primary);
                    self.push_event(dc, s, slot, ScaleDirection::Failover);
                    self.serve_queue(dc, s, slot);
                }
            }
            TenantEvent::Retry => {
                let &Reverse((t, s, r)) = self.retries.peek().expect("event peeked");
                let idle = self.idle_slot(s);
                if idle.is_some() {
                    self.queue_known(t, s, Some(r))?;
                }
                self.retries.pop();
                if let Some(slot) = idle {
                    self.start(t, s, r, slot);
                } else if self.live(s) > 0 {
                    // Retries bypass the bounded queue: the request was
                    // already admitted once.
                    self.waiting[s].push_back(r);
                } else {
                    self.lose(s, r);
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
                if idle.is_some() || scale_up {
                    self.queue_known(t, s, Some(r))?;
                }
                self.next_arrival += 1;
                if let Some(slot) = idle {
                    self.start(t, s, r, slot);
                } else if queued {
                    self.waiting[s].push_back(r);
                    if let Some(alloc) =
                        scale_up.then(|| self.planner.first_fit(self.loads[s].tiles)).flatten()
                    {
                        let slot = self.add_slot(s, alloc, false);
                        self.push_event(t, s, slot, ScaleDirection::Up);
                        self.serve_queue(t, s, slot);
                    }
                } else {
                    self.out.verdicts[s][r] = Some(Verdict::Shed);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The replicated form of the scheduler, as [`ServeRunner`] runs it:
    /// one stream of well-formed requests on `workers` primary slots,
    /// every duration known upfront.
    fn replicated_schedule(
        arrivals: &[u64],
        durations: &[u64],
        workers: usize,
        depth: Option<usize>,
        deadline: Option<u64>,
    ) -> Vec<Option<Verdict>> {
        let loads = [TenantLoad {
            arrivals: arrivals.to_vec(),
            durations: durations.to_vec(),
            order: (0..arrivals.len()).collect(),
            replicas: workers,
            tiles: 0,
            node: 0,
            base: 0,
        }];
        let policy = ScalePolicy::default();
        let retry = RetryPolicy::default();
        let planner = TilePlanner::new(0, 0);
        let scheduler = TenantScheduler::new(&loads, depth, deadline, policy, retry, None, planner);
        let (mut schedule, _) = scheduler.finish().expect("every duration is known upfront");
        schedule.verdicts.remove(0)
    }

    fn served(start: u64, finish: u64) -> Option<Verdict> {
        Some(Verdict::Served { start, finish })
    }

    /// [`puma_sim::max_concurrent`] over the served requests of a
    /// schedule.
    fn overlap(schedule: &[Option<Verdict>]) -> usize {
        puma_sim::max_concurrent(schedule.iter().filter_map(|v| match *v {
            Some(Verdict::Served { start, finish }) => Some((start, finish)),
            _ => None,
        }))
    }

    #[test]
    fn replicated_schedule_single_worker_is_fifo() {
        // Three requests, 10-cycle service, arriving every 4 cycles.
        let schedule = replicated_schedule(&[0, 4, 8], &[10, 10, 10], 1, None, None);
        assert_eq!(schedule, vec![served(0, 10), served(10, 20), served(20, 30)]);
        assert_eq!(overlap(&schedule), 1);
    }

    #[test]
    fn replicated_schedule_extra_workers_run_in_parallel() {
        let schedule = replicated_schedule(&[0, 0, 0], &[10, 10, 10], 3, None, None);
        assert!(schedule.iter().all(|w| *w == served(0, 10)));
        assert_eq!(overlap(&schedule), 3);
    }

    #[test]
    fn replicated_schedule_sheds_beyond_queue_depth() {
        // One worker busy 0..100; depth 1: request 1 queues, 2 and 3 shed.
        let schedule = replicated_schedule(&[0, 1, 2, 3], &[100, 100, 100, 100], 1, Some(1), None);
        assert_eq!(schedule[0], served(0, 100));
        assert_eq!(schedule[1], served(100, 200));
        assert_eq!(schedule[2], Some(Verdict::Shed));
        assert_eq!(schedule[3], Some(Verdict::Shed));
    }

    #[test]
    fn replicated_schedule_departure_precedes_same_cycle_arrival() {
        // Worker frees at exactly t=10 when the second request arrives:
        // it must be admitted and start immediately.
        let schedule = replicated_schedule(&[0, 10], &[10, 5], 1, Some(0), None);
        assert_eq!(schedule[1], served(10, 15));
    }

    #[test]
    fn depth_zero_is_a_loss_system() {
        // No waiting room: the second concurrent request is shed.
        let schedule = replicated_schedule(&[0, 5], &[100, 100], 1, Some(0), None);
        assert_eq!(schedule[0], served(0, 100));
        assert_eq!(schedule[1], Some(Verdict::Shed));
    }

    #[test]
    fn replicated_schedule_deadline_aborts_and_reclaims_worker() {
        // Request 0 would run 0..100 but its deadline is 50: the worker
        // is reclaimed at the abort cycle and serves request 1 on time.
        let schedule = replicated_schedule(&[0, 40], &[100, 10], 1, None, Some(50));
        assert_eq!(schedule[0], Some(Verdict::TimedOut { at: 50, deadline: 50 }));
        assert_eq!(schedule[1], served(50, 60));
    }

    #[test]
    fn replicated_schedule_queue_expiry_consumes_no_worker() {
        // One worker, deadline 60. Request 0 finishes in time; request 1
        // starts at 50 and is aborted at its deadline 60; request 2's
        // deadline passes while it is still queued, so it expires
        // without occupying the worker — which is free again for
        // request 3 the moment it arrives.
        let schedule = replicated_schedule(&[0, 0, 0, 60], &[50, 50, 50, 20], 1, None, Some(60));
        assert_eq!(schedule[0], served(0, 50));
        assert_eq!(schedule[1], Some(Verdict::TimedOut { at: 60, deadline: 60 }));
        assert_eq!(schedule[2], Some(Verdict::TimedOut { at: 60, deadline: 60 }));
        assert_eq!(schedule[3], served(60, 80));
    }

    #[test]
    fn replicated_schedule_finishing_exactly_at_deadline_completes() {
        let schedule = replicated_schedule(&[0], &[50], 1, None, Some(50));
        assert_eq!(schedule[0], served(0, 50));
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
        let scheduler =
            TenantScheduler::new(loads, depth, None, *policy, *retry, death, planner.clone());
        let (schedule, after) = scheduler.finish().expect("every duration is known upfront");
        *planner = after;
        schedule
    }

    /// Most replicas stream `s` had live at once, from one at the start.
    fn peak(schedule: &TenantSchedule, s: usize) -> usize {
        schedule.events.iter().filter(|e| e.stream == s).fold(1, |p, e| p.max(e.live))
    }

    fn load(arrivals: Vec<u64>, durations: Vec<u64>, tiles: usize) -> TenantLoad {
        let order: Vec<usize> = (0..arrivals.len()).collect();
        TenantLoad { arrivals, durations, order, replicas: 1, tiles, node: 0, base: 0 }
    }

    /// Stream `s`'s service windows (`None` = not served).
    fn windows(schedule: &TenantSchedule, s: usize) -> Vec<Option<(u64, u64)>> {
        schedule.verdicts[s]
            .iter()
            .map(|v| match *v {
                Some(Verdict::Served { start, finish }) => Some((start, finish)),
                _ => None,
            })
            .collect()
    }

    /// Stream `s`'s requests shed on arrival.
    fn shed(schedule: &TenantSchedule, s: usize) -> usize {
        schedule.verdicts[s].iter().filter(|v| **v == Some(Verdict::Shed)).count()
    }

    /// Per request of stream `s`: lost to the tile death.
    fn lost(schedule: &TenantSchedule, s: usize) -> Vec<bool> {
        schedule.verdicts[s].iter().map(|v| matches!(v, Some(Verdict::Lost { .. }))).collect()
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
        assert_eq!(windows(&s, 0), vec![Some((0, 10)), Some((10, 20)), Some((20, 30))]);
        assert_eq!(shed(&s, 0), 0);
        assert_eq!(peak(&s, 0), 1);
        assert!(s.events.is_empty());
        assert_eq!(s.attempts[0], vec![1, 1, 1]);
        assert!(lost(&s, 0).iter().all(|f| !f));
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
        assert_eq!(windows(&s, 0)[0], Some((0, 100)));
        assert_eq!(windows(&s, 0)[1], Some((100, 200)));
        assert_eq!(windows(&s, 0)[2], None);
        assert_eq!(shed(&s, 0), 2);
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
        assert_eq!(windows(&s, 0)[0], Some((0, 100)));
        // Request 1 queued at t=1; request 2's arrival at t=2 makes the
        // queue reach depth 2 → scale up serves request 1 (the head).
        assert_eq!(windows(&s, 0)[1], Some((2, 102)));
        assert_eq!(peak(&s, 0), 2);
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
        assert_eq!(peak(&s, 0), 1);
        assert_eq!(windows(&s, 0)[3], Some((300, 400)));
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
        assert_eq!(windows(&s, 0)[1], Some((50, 150)));
        assert_eq!(windows(&s, 0)[0], Some((150, 250)));
        assert_eq!(s.attempts[0], vec![2, 1]);
        assert!(lost(&s, 0).iter().all(|f| !f));
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
        assert_eq!(windows(&s, 0), vec![None, None, None]);
        assert_eq!(lost(&s, 0), vec![true, true, true]);
        let kinds: Vec<ScaleDirection> = s.events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![ScaleDirection::Quarantine]);
        assert_eq!(shed(&s, 0), 0);
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
        assert!(windows(&s, 0).iter().all(Option::is_some));
        // Slot 0 (the materialized deployment) is never released.
        assert!(s.events.iter().filter(|e| e.kind == ScaleDirection::Down).all(|e| e.slot != 0));
        // A released replica has no request in flight at the release
        // cycle: every request it served finished at or before it.
        for e in s.events.iter().filter(|e| e.kind == ScaleDirection::Down) {
            for (r, held) in s.held[e.stream].iter().enumerate() {
                if let Some((_, start, finish)) = held.filter(|&(slot, ..)| slot == e.slot) {
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

    /// Every completed request ran forward in time from its arrival.
    fn assert_forward(results: &[ServedRequest]) {
        for (i, r) in results.iter().enumerate() {
            if let Disposition::Completed { start, finish, .. } = r.disposition {
                assert!(r.arrival <= start && start <= finish, "request {i}: {r:?}");
            }
        }
    }

    #[test]
    fn late_arrivals_fail_typed_instead_of_overflowing_the_clock() {
        let cfg = NodeConfig::default();
        let x = vec![("x".to_string(), vec![0.25; 16])];
        let late = [ServeRequest::new(u64::MAX - 10, x.clone())];
        let runner = ServeRunner::functional(&tiny_model("late", 16, 1.0), &cfg).unwrap();
        let outcome = runner.serve(&late).unwrap();
        assert_forward(&outcome.results);
        let Disposition::Failed(e) = &outcome.results[0].disposition else {
            panic!("a finish past u64::MAX must fail: {:?}", outcome.results[0]);
        };
        assert!(e.to_string().contains("past cycle u64::MAX"), "{e}");
        assert_eq!((outcome.completed(), outcome.makespan_cycles, outcome.timed_out), (0, 0, 0));
        // An armed watchdog still fires at the (representable) deadline.
        let outcome = runner.with_deadline(Some(5)).serve(&late).unwrap();
        let Disposition::Failed(RequestError::Deadline { cycle, .. }) =
            outcome.results[0].disposition
        else {
            panic!("expected a deadline abort: {:?}", outcome.results[0]);
        };
        assert_eq!((cycle, outcome.timed_out), (u64::MAX - 5, 1));

        let mut server =
            TenantServer::functional(catalog_with(&[("m", 1.0)]), FabricSpec::new(1, 2), &cfg)
                .unwrap();
        server.deploy("m").unwrap();
        let requests = vec![BatchRequest::new(x); 2];
        let pattern = TrafficPattern::Uniform { interval: u64::MAX };
        let outcome = server.serve(&[TenantStream::new("m", requests, pattern)]).unwrap();
        let model = outcome.model("m").unwrap();
        assert_forward(&model.results);
        assert_eq!(model.completed(), 1);
        assert!(matches!(model.results[1].disposition, Disposition::Failed(_)));
        assert_eq!(outcome.makespan_cycles, model.latency.max);
    }

    #[test]
    fn tenant_schedule_saturated_retry_fails_typed_at_the_clock_limit() {
        // The death aborts request 0 at cycle 50; its retry backoff
        // saturates, so the retry re-arrives at u64::MAX, where 100
        // cycles of service cannot finish: it fails and takes no slot.
        let loads = [load(vec![0], vec![100], 1)];
        let mut planner = TilePlanner::new(1, 4);
        planner.first_fit(1).unwrap();
        let s = tenant_schedule(
            &loads,
            None,
            &ScalePolicy::default(),
            &RetryPolicy::new(2, u64::MAX),
            Some((50, 0, 0)),
            &mut planner,
        );
        assert_eq!(s.verdicts[0][0], Some(Verdict::Overflow { start: u64::MAX, cycles: 100 }));
        assert_eq!(s.attempts[0][0], 2);
        assert_eq!(s.held[0][0], None);
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

    /// One random schedule scenario: loads with their true durations and
    /// every rule a caller can set, with the planner holding each
    /// stream's deployment.
    struct Scenario {
        loads: Vec<TenantLoad>,
        depth: Option<usize>,
        deadline: Option<u64>,
        policy: ScalePolicy,
        retry: RetryPolicy,
        death: Option<(u64, usize, usize)>,
        planner: TilePlanner,
    }

    /// Random arrivals, durations and malformed requests for one stream:
    /// `n` requests, on a coarse grid half the time so departures and
    /// arrivals often share a cycle.
    fn random_load(rng: &mut proptest::test_runner::TestRng, n: usize) -> TenantLoad {
        let grain = [1, 10][rng.next_index(2)];
        let mut t = 0u64;
        let mut arrivals = Vec::with_capacity(n);
        let mut durations = Vec::with_capacity(n);
        for _ in 0..n {
            t += (rng.next_index(40) / grain * grain) as u64;
            arrivals.push(t);
            // A request that faulted in simulation serves 0 cycles.
            durations.push(if rng.next_index(8) == 0 {
                0
            } else {
                ((1 + rng.next_index(80)) / grain * grain).max(1) as u64
            });
        }
        // Malformed requests never enter the schedule.
        let order = (0..n).filter(|_| rng.next_index(10) != 0).collect();
        TenantLoad { arrivals, durations, order, replicas: 1, tiles: 0, node: 0, base: 0 }
    }

    /// A random scenario from one of the two families a caller can
    /// reach: replicated serving (one stream, 1–4 fixed workers, an
    /// optional deadline, no scaling, retries or tile death) or
    /// multi-tenant serving (one primary replica per stream, scaling,
    /// retries and a tile death; `None` when the streams do not fit).
    fn random_scenario(rng: &mut proptest::test_runner::TestRng) -> Option<Scenario> {
        let depth = [None, Some(0), Some(1), Some(2), Some(4)][rng.next_index(5)];
        if rng.next_index(3) == 0 {
            let n = rng.next_index(20);
            let deadline = match rng.next_index(3) {
                0 => None,
                1 => Some(0),
                _ => Some(1 + rng.next_index(120) as u64),
            };
            let replicas = 1 + rng.next_index(4);
            return Some(Scenario {
                loads: vec![TenantLoad { replicas, ..random_load(rng, n) }],
                depth,
                deadline,
                policy: ScalePolicy::default(),
                retry: RetryPolicy::default(),
                death: None,
                planner: TilePlanner::new(0, 0),
            });
        }
        let nodes = 1 + rng.next_index(2);
        let tiles_per_node = 2 + rng.next_index(7);
        let mut planner = TilePlanner::new(nodes, tiles_per_node);
        let mut loads = Vec::new();
        for _ in 0..1 + rng.next_index(3) {
            let tiles = 1 + rng.next_index(2);
            let (node, base) = planner.first_fit(tiles)?;
            let n = rng.next_index(14);
            loads.push(TenantLoad { tiles, node, base, ..random_load(rng, n) });
        }
        let policy = if rng.next_index(2) == 0 {
            ScalePolicy::default()
        } else {
            ScalePolicy::new(1 + rng.next_index(3), 1 + rng.next_index(3))
        };
        let retry = RetryPolicy::new(1 + rng.next_index(3), rng.next_index(20) as u64);
        let death = (rng.next_index(2) == 0).then(|| {
            (rng.next_index(300) as u64, rng.next_index(nodes), rng.next_index(tiles_per_node))
        });
        Some(Scenario { loads, depth, deadline: None, policy, retry, death, planner })
    }

    /// What a schedule decided for one request, in the oracle's terms.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Fate {
        Shed,
        Served(u64, u64),
        TimedOut(u64),
        Lost,
    }

    /// A finished schedule in the oracle's terms: what the oracle
    /// produces and what every scheduler's output is checked in.
    #[derive(Debug, PartialEq)]
    struct Decided {
        /// Per stream, per request: its fate (`None` = never decided).
        fates: Vec<Vec<Option<Fate>>>,
        /// Per stream, per request: service attempts made.
        attempts: Vec<Vec<usize>>,
        /// Per stream, per request: `(slot, from, until)` of the last
        /// attempt that held a slot and was not aborted by the tile death.
        held: Vec<Vec<Option<(usize, u64, u64)>>>,
        events: Vec<RawScaleEvent>,
        /// Per node, per tile: allocated once the schedule finished.
        tiles: Vec<Vec<bool>>,
    }

    /// The planner's allocations as a per-node, per-tile occupancy grid.
    fn tile_grid(planner: &TilePlanner) -> Vec<Vec<bool>> {
        planner
            .allocs
            .iter()
            .map(|allocs| {
                let mut grid = vec![false; planner.tiles_per_node];
                for &(base, tiles) in allocs {
                    grid[base..base + tiles].fill(true);
                }
                grid
            })
            .collect()
    }

    /// One replica slot of the oracle.
    struct NaiveSlot {
        /// Transient `(node, base)` allocation (`None` = the deployment).
        alloc: Option<(usize, usize)>,
        primary: bool,
        live: bool,
        /// `(frees at, request)` while a request holds the slot.
        busy: Option<(u64, usize)>,
    }

    /// The oracle's state: everything in plain vectors.
    struct Naive<'a> {
        sc: &'a Scenario,
        out: Decided,
        slots: Vec<Vec<NaiveSlot>>,
        queues: Vec<Vec<usize>>,
        grid: Vec<Vec<bool>>,
    }

    impl Naive<'_> {
        fn live(&self, s: usize) -> usize {
            self.slots[s].iter().filter(|x| x.live).count()
        }

        fn event(&mut self, cycle: u64, stream: usize, slot: usize, kind: ScaleDirection) {
            let live = self.live(stream);
            self.out.events.push(RawScaleEvent { cycle, stream, slot, kind, live });
        }

        /// Allocates the first `(node, base)` with `want` free tiles in a
        /// row, scanning nodes then bases.
        fn fit(&mut self, want: usize) -> Option<(usize, usize)> {
            for (node, row) in self.grid.iter_mut().enumerate() {
                for base in 0..row.len() {
                    if base + want <= row.len() && row[base..base + want].iter().all(|&u| !u) {
                        row[base..base + want].fill(true);
                        return Some((node, base));
                    }
                }
            }
            None
        }

        fn add(&mut self, s: usize, alloc: (usize, usize), primary: bool) -> usize {
            self.slots[s].push(NaiveSlot { alloc: Some(alloc), primary, live: true, busy: None });
            self.slots[s].len() - 1
        }

        /// The lowest live idle slot, only when nobody waits.
        fn idle(&self, s: usize) -> Option<usize> {
            if !self.queues[s].is_empty() {
                return None;
            }
            self.slots[s].iter().position(|x| x.live && x.busy.is_none())
        }

        /// Starts request `r` on slot `k` at `t`; false when it takes no
        /// slot (its deadline passed while it queued).
        fn start(&mut self, t: u64, s: usize, r: usize, k: usize) -> bool {
            let load = &self.sc.loads[s];
            self.out.attempts[s][r] += 1;
            let finish = t + load.durations[r];
            let mut until = finish;
            let mut fate = Fate::Served(t, finish);
            if let Some(d) = self.sc.deadline {
                let dl = load.arrivals[r] + d;
                if finish > dl {
                    fate = Fate::TimedOut(dl);
                    until = dl;
                }
                if finish > dl && t >= dl {
                    self.out.fates[s][r] = Some(fate);
                    return false;
                }
            }
            let slot = &mut self.slots[s][k];
            assert!(slot.live && slot.busy.is_none(), "oracle overcommitted slot {k}");
            slot.busy = Some((until, r));
            self.out.fates[s][r] = Some(fate);
            self.out.held[s][r] = Some((k, t, until));
            true
        }

        /// Starts queue heads on slot `k` until one takes it.
        fn serve_queue(&mut self, t: u64, s: usize, k: usize) -> bool {
            while !self.queues[s].is_empty() {
                let r = self.queues[s].remove(0);
                if self.start(t, s, r, k) {
                    return true;
                }
            }
            false
        }
    }

    /// A deliberately naive reference scheduler: it steps the clock one
    /// cycle at a time, keeps everything in plain vectors found by
    /// linear scans (no heaps, no laziness), and within a cycle handles
    /// whatever is due in a fixed priority — departures (lowest stream,
    /// then slot), then the tile death, then retries (lowest stream,
    /// then request), then arrivals (lowest stream, then request) — until
    /// nothing is.
    fn oracle(sc: &Scenario) -> Decided {
        let n = sc.loads.len();
        let mut o = Naive {
            sc,
            out: Decided {
                fates: sc.loads.iter().map(|l| vec![None; l.arrivals.len()]).collect(),
                attempts: sc.loads.iter().map(|l| vec![0; l.arrivals.len()]).collect(),
                held: sc.loads.iter().map(|l| vec![None; l.arrivals.len()]).collect(),
                events: Vec::new(),
                tiles: Vec::new(),
            },
            slots: (0..n)
                .map(|s| {
                    (0..sc.loads[s].replicas)
                        .map(|_| NaiveSlot { alloc: None, primary: true, live: true, busy: None })
                        .collect()
                })
                .collect(),
            queues: vec![Vec::new(); n],
            grid: tile_grid(&sc.planner),
        };
        let mut arrivals: Vec<(u64, usize, usize)> = Vec::new();
        for (s, load) in sc.loads.iter().enumerate() {
            arrivals.extend(load.order.iter().map(|&r| (load.arrivals[r], s, r)));
        }
        arrivals.sort_unstable();
        let mut next = 0;
        let mut retries: Vec<(u64, usize, usize)> = Vec::new();
        let mut death = sc.death;
        let mut t = 0u64;
        loop {
            let busy = o.slots.iter().flatten().any(|x| x.busy.is_some());
            if next == arrivals.len() && retries.is_empty() && death.is_none() && !busy {
                break;
            }
            assert!(t < 1_000_000, "the oracle ran away");
            loop {
                let mut departing = None;
                for s in 0..n {
                    for k in 0..o.slots[s].len() {
                        if departing.is_none() && o.slots[s][k].busy.is_some_and(|(u, _)| u == t) {
                            departing = Some((s, k));
                        }
                    }
                }
                if let Some((s, k)) = departing {
                    o.slots[s][k].busy = None;
                    if !o.serve_queue(t, s, k) && !o.slots[s][k].primary {
                        let (node, base) = o.slots[s][k].alloc.expect("scaled-up slots hold tiles");
                        o.grid[node][base..base + sc.loads[s].tiles].fill(false);
                        o.slots[s][k].live = false;
                        o.event(t, s, k, ScaleDirection::Down);
                    }
                    continue;
                }
                if let Some((dc, dn, dt)) = death.filter(|&(dc, ..)| dc == t) {
                    death = None;
                    let mut victim = None;
                    for (s, load) in sc.loads.iter().enumerate() {
                        for (k, slot) in o.slots[s].iter().enumerate() {
                            let (node, base) = slot.alloc.unwrap_or((load.node, load.base));
                            let hit = node == dn && base <= dt && dt < base + load.tiles;
                            if victim.is_none() && slot.live && hit {
                                victim = Some((s, k));
                            }
                        }
                    }
                    let Some((s, k)) = victim else { continue };
                    o.slots[s][k].live = false;
                    o.event(dc, s, k, ScaleDirection::Quarantine);
                    if let Some((_, r)) = o.slots[s][k].busy.take() {
                        o.out.fates[s][r] = None;
                        o.out.held[s][r] = None;
                        let a = o.out.attempts[s][r];
                        if a < sc.retry.max_attempts {
                            retries.push((dc + sc.retry.backoff_cycles * (1 << (a - 1)), s, r));
                        } else {
                            o.out.fates[s][r] = Some(Fate::Lost);
                        }
                    }
                    if let Some(alloc) = o.fit(sc.loads[s].tiles) {
                        let primary = o.slots[s][k].primary;
                        let k = o.add(s, alloc, primary);
                        o.event(dc, s, k, ScaleDirection::Failover);
                        o.serve_queue(dc, s, k);
                    }
                    continue;
                }
                let due = (0..retries.len())
                    .filter(|&i| retries[i].0 == t)
                    .min_by_key(|&i| (retries[i].1, retries[i].2));
                if let Some(i) = due {
                    let (_, s, r) = retries.remove(i);
                    if let Some(k) = o.idle(s) {
                        o.start(t, s, r, k);
                    } else if o.live(s) > 0 {
                        o.queues[s].push(r);
                    } else {
                        o.out.fates[s][r] = Some(Fate::Lost);
                    }
                    continue;
                }
                if next < arrivals.len() && arrivals[next].0 == t {
                    let (_, s, r) = arrivals[next];
                    next += 1;
                    if let Some(k) = o.idle(s) {
                        o.start(t, s, r, k);
                    } else if sc.depth.is_none_or(|d| o.queues[s].len() < d) {
                        o.queues[s].push(r);
                        let deep = o.queues[s].len() >= sc.policy.scale_up_depth
                            && o.live(s) < sc.policy.max_replicas;
                        if let Some(alloc) = deep.then(|| o.fit(sc.loads[s].tiles)).flatten() {
                            let k = o.add(s, alloc, false);
                            o.event(t, s, k, ScaleDirection::Up);
                            o.serve_queue(t, s, k);
                        }
                    } else {
                        o.out.fates[s][r] = Some(Fate::Shed);
                    }
                    continue;
                }
                break;
            }
            t += 1;
        }
        // A stream with no live slot left can never serve its queue.
        for s in 0..n {
            if o.live(s) == 0 {
                for r in std::mem::take(&mut o.queues[s]) {
                    o.out.fates[s][r] = Some(Fate::Lost);
                }
            }
        }
        o.out.tiles = o.grid;
        o.out
    }

    /// The invariants every schedule keeps, checked on `d`:
    /// - every schedulable request gets exactly one fate, the rest none;
    /// - service windows run forward from the arrival;
    /// - no slot is overcommitted: per slot, held windows are disjoint,
    ///   and no more are held at once than slots were ever live;
    /// - queues are FIFO per stream, retries aside: requests served on
    ///   their first attempt start in arrival order;
    /// - a slot freed at `t` is visible to an arrival at `t`: where a
    ///   stream's slots never changed, a request that waited or was shed
    ///   found every slot held over its arrival cycle by requests ahead
    ///   of it, and it was shed exactly when `depth` of those still
    ///   waited.
    fn check_invariants(sc: &Scenario, d: &Decided, what: &str) {
        for (s, load) in sc.loads.iter().enumerate() {
            for r in 0..load.arrivals.len() {
                let schedulable = load.order.contains(&r);
                assert_eq!(d.fates[s][r].is_some(), schedulable, "{what}: fate of ({s}, {r})");
                if let Some(Fate::Served(start, finish)) = d.fates[s][r] {
                    assert!(load.arrivals[r] <= start && start <= finish, "{what}: ({s}, {r})");
                }
            }
            let mut held: Vec<(usize, u64, u64)> = d.held[s].iter().flatten().copied().collect();
            held.sort_unstable();
            for w in held.windows(2) {
                if w[0].0 == w[1].0 {
                    assert!(w[0].2 <= w[1].1, "{what}: stream {s} slot overcommitted: {w:?}");
                }
            }
            let mut edges: Vec<(u64, i64)> =
                held.iter().flat_map(|&(_, from, until)| [(from, 1), (until, -1)]).collect();
            edges.sort_unstable();
            let most_live = d.events.iter().filter(|e| e.stream == s).map(|e| e.live);
            let most_live = most_live.max().unwrap_or(0).max(load.replicas) as i64;
            let mut open = 0i64;
            for (_, delta) in edges {
                open += delta;
                assert!(open <= most_live, "{what}: stream {s} holds more than its slots");
            }
            let mut last = 0u64;
            for &r in &load.order {
                if let (Some(Fate::Served(start, _)), true) = (d.fates[s][r], d.attempts[s][r] <= 1)
                {
                    assert!(start >= last, "{what}: ({s}, {r}) overtook the queue");
                    last = start;
                }
            }
            if d.events.iter().all(|e| e.stream != s) {
                for (k, &r) in load.order.iter().enumerate() {
                    let t = load.arrivals[r];
                    let waited = match d.fates[s][r] {
                        Some(Fate::Shed) => true,
                        Some(Fate::Served(start, _)) => start > t,
                        _ => false,
                    };
                    // Only requests ahead of `r` can hold a slot when it arrives.
                    let holding = load.order[..k].iter().filter(|&&q| {
                        d.held[s][q].is_some_and(|(_, from, until)| from <= t && t < until)
                    });
                    // Requests ahead that still wait once `t`'s departures
                    // are done: a queued one leaves when it starts, or when
                    // its deadline expires it.
                    let queued = load.order[..k].iter().filter(|&&q| {
                        let left = match d.fates[s][q] {
                            Some(Fate::Served(start, _)) => start,
                            Some(Fate::TimedOut(at)) => {
                                d.held[s][q].map_or(at, |(_, from, _)| from)
                            }
                            _ => return false,
                        };
                        left > t
                    });
                    if waited {
                        assert_eq!(
                            holding.count(),
                            load.replicas,
                            "{what}: ({s}, {r}) waited at cycle {t} beside a free slot"
                        );
                        let shed = d.fates[s][r] == Some(Fate::Shed);
                        assert_eq!(
                            shed,
                            sc.depth == Some(queued.count()),
                            "{what}: ({s}, {r}) at cycle {t} broke the queue bound"
                        );
                    }
                }
            }
        }
    }

    /// A schedule in the oracle's terms.
    fn view(schedule: &TenantSchedule, planner: &TilePlanner) -> Decided {
        let fate = |v: &Option<Verdict>| {
            v.map(|v| match v {
                Verdict::Shed => Fate::Shed,
                Verdict::Served { start, finish } => Fate::Served(start, finish),
                Verdict::TimedOut { at, .. } => Fate::TimedOut(at),
                Verdict::Lost { .. } => Fate::Lost,
                Verdict::Overflow { .. } => panic!("a small scenario overflowed"),
            })
        };
        Decided {
            fates: schedule.verdicts.iter().map(|v| v.iter().map(fate).collect()).collect(),
            attempts: schedule.attempts.clone(),
            held: schedule.held.clone(),
            events: schedule.events.clone(),
            tiles: tile_grid(planner),
        }
    }

    /// Runs one scenario through the serving scheduler, every duration
    /// known upfront.
    fn production(sc: &Scenario) -> Decided {
        let scheduler = TenantScheduler::new(
            &sc.loads,
            sc.depth,
            sc.deadline,
            sc.policy,
            sc.retry,
            sc.death,
            sc.planner.clone(),
        );
        let (schedule, planner) = scheduler.finish().expect("every duration is known upfront");
        view(&schedule, &planner)
    }

    /// The serving scheduler against the naive oracle, over random
    /// scenarios from both families: the oracle keeps the invariants, the
    /// scheduler's output keeps them too, and the two agree exactly.
    #[test]
    fn scheduler_matches_the_naive_oracle() {
        let mut rng = proptest::test_runner::TestRng::from_seed(0x0_7ac1e);
        let mut done = 0;
        while done < 4000 {
            let Some(sc) = random_scenario(&mut rng) else { continue };
            done += 1;
            let want = oracle(&sc);
            check_invariants(&sc, &want, &format!("case {done}: oracle"));
            let got = production(&sc);
            check_invariants(&sc, &got, &format!("case {done}: scheduler"));
            assert_eq!(got, want, "case {done}");
        }
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
            let Some(sc) = random_scenario(&mut rng) else { continue };
            let Scenario { loads, depth, deadline, policy, retry, death, planner } = sc;
            cases += 1;
            let (upfront, upfront_planner) = TenantScheduler::new(
                &loads,
                depth,
                deadline,
                policy,
                retry,
                death,
                planner.clone(),
            )
            .finish()
            .expect("every duration is known upfront");
            let hidden: Vec<TenantLoad> = loads
                .iter()
                .map(|l| TenantLoad {
                    arrivals: l.arrivals.clone(),
                    durations: Vec::new(),
                    order: l.order.clone(),
                    replicas: l.replicas,
                    tiles: l.tiles,
                    node: l.node,
                    base: l.base,
                })
                .collect();
            let fresh = || {
                TenantScheduler::new(
                    &hidden,
                    depth,
                    deadline,
                    policy,
                    retry,
                    death,
                    planner.clone(),
                )
            };

            // Lazy: record exactly what each stall asks for.
            let mut lazy = fresh();
            let jobs = lazy.arrival_order();
            let mut asked = Vec::new();
            while let Some((s, r)) = lazy.advance() {
                assert!(!asked.contains(&(s, r)), "case {cases}: asked for ({s}, {r}) twice");
                asked.push((s, r));
                let j = jobs.iter().position(|&job| job == (s, r)).expect("asked for a job");
                lazy.record(j, loads[s].durations[r]);
            }
            let (schedule, after) = lazy.finish().expect("every asked duration was revealed");
            assert_eq!(schedule, upfront, "case {cases}: lazy reveal changed the schedule");
            assert_eq!(after.allocs, upfront_planner.allocs, "case {cases}");
            for (s, l) in loads.iter().enumerate() {
                for &r in &l.order {
                    let started = upfront.attempts[s][r] > 0;
                    assert_eq!(asked.contains(&(s, r)), started, "case {cases}: ({s}, {r})");
                }
            }

            // Random order: record everything one job at a time; a shed
            // decision, once made, is final.
            let mut all: Vec<usize> = (0..jobs.len()).collect();
            for i in (1..all.len()).rev() {
                all.swap(i, rng.next_index(i + 1));
            }
            let mut random = fresh();
            random.advance();
            for &j in &all {
                let (s, r) = jobs[j];
                random.record(j, loads[s].durations[r]);
                for (k, &(s, r)) in jobs.iter().enumerate() {
                    if random.is_shed(k) {
                        assert_eq!(upfront.attempts[s][r], 0, "case {cases}: ({s}, {r})");
                    }
                }
            }
            assert_eq!(random.advance(), None);
            let (schedule, after) = random.finish().expect("every duration was revealed");
            assert_eq!(schedule, upfront, "case {cases}: random reveal changed the schedule");
            assert_eq!(after.allocs, upfront_planner.allocs, "case {cases}");
        }
    }
}
