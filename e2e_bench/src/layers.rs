//! The per-layer run (`--trace 1`): the workload's set-up and requests
//! replayed through each layer's public functions, every call timed from
//! outside in the benchmark's own code.
//!
//! The run has four phases:
//!
//! 1. **Set-up**, one span per call: `nn.build_graph_model`,
//!    `compiler.compile` (+ `compiler.shard`, `compiler.compose_fabric`),
//!    `sim.build` (`NodeSim::new`/`ClusterSim::new`/`PipelineSim::new`
//!    with the default engine; functional mode programs the crossbars
//!    here) and `sim.fork_replica`.
//! 2. **Rounds**, after one untraced warm-up of each step, in pairs until
//!    `--seconds` have passed (at least one pair; the second round of a
//!    pair runs the steps in reverse order):
//!    - every request on one forked replica as the runtime runs it —
//!      `sim.reset`, `sim.write_input` (constants and input chunks),
//!      `sim.run` (`run_resident` for tenants), `sim.read_output` — once
//!      untraced and once traced;
//!    - for the pipelined workload, the whole request set handed to
//!      `PipelineSim::serve_with_deadline` (`sim.pipeline_serve`), which
//!      is what its runtime does;
//!    - the same requests through the public serve call on one host
//!      thread (`runtime.serve`). What the serve costs beyond the untraced
//!      replay is the runtime's own work. Its outputs and statistics must
//!      equal the replay's, bit for bit.
//!
//!    Interleaving the steps exposes them to the same host drift; each
//!    time metric is a median over the rounds.
//! 3. **Timing twin**: the first requests again on a Timing-mode build of
//!    the same images, so `sim.run_us − sim.timing_run_us` is the host
//!    cost of computing MVM payload.
//! 4. **xbar**: `AnalogMvmu::mvm` on a 128×128 block of the workload's
//!    first weight matrix, fed request-derived Q4.12 inputs.

use crate::served::{compare, records, summarize, Check, Fate, Record};
use crate::trace::{coverage, mean_ns, total_ns, Recorder};
use crate::workload::{build_server, generate, Front, Requests, Server, Workload, WEIGHT_SEED};
use crate::Run;
use puma_compiler::{compile, compose_fabric, fit_config, CompiledModel, Resident};
use puma_core::config::NodeConfig;
use puma_core::error::{PumaError, Result};
use puma_core::fixed::Fixed;
use puma_core::tensor::Matrix;
use puma_isa::MachineImage;
use puma_nn::init::WeightRng;
use puma_sim::{
    ClusterSim, NodeSim, PipelineRequest, PipelineSim, ResidentModel, RunStats, SimEngine, SimMode,
};
use puma_xbar::{AnalogMvmu, NoiseModel};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Requests per stream replayed on the Timing-mode twin.
const TWIN_REQUESTS: usize = 64;
/// `AnalogMvmu::mvm` calls per timed batch, and batches.
const MVM_CALLS: usize = 256;
const MVM_BATCHES: usize = 31;
/// Spans after which no further round starts (about 80 MiB of them).
const MAX_SPANS: usize = 1_000_000;

/// The per-layer metrics, with their units, in report order.
pub const PER_LAYER: [(&str, &str); 23] = [
    ("nn.model_s", "s"),
    ("compiler.compile_s", "s"),
    ("compiler.static_instrs", "count"),
    ("compiler.tiles_used", "count"),
    ("sim.build_s", "s"),
    ("sim.fork_s", "s"),
    ("sim.replica_mib", "MiB"),
    ("sim.reset_us", "us"),
    ("sim.write_us", "us"),
    ("sim.run_us", "us"),
    ("sim.read_us", "us"),
    ("sim.instr_per_req", "instr/req"),
    ("sim.run_mips", "Minstr/s"),
    ("sim.queue_events_per_instr", "events/instr"),
    ("sim.timing_run_us", "us"),
    ("sim.replay_s", "s"),
    ("xbar.mvm_per_req", "mvm/req"),
    ("xbar.mvm_ns", "ns"),
    ("xbar.mvm_share_est", "fraction"),
    ("runtime.self_us", "us"),
    ("runtime.wasted_sim_frac", "fraction"),
    ("trace.coverage", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

/// One simulator instance: a node, or the cluster of a sharded model.
#[derive(Debug)]
enum Sim {
    Node(Box<NodeSim>),
    Cluster(Box<ClusterSim>),
}

impl Sim {
    /// Builds the simulator for `images` with the default engine.
    fn build(
        cfg: NodeConfig,
        images: &[MachineImage],
        mode: SimMode,
        residents: Vec<ResidentModel>,
    ) -> Result<Sim> {
        let noise = NoiseModel::noiseless();
        let mut sim = match images {
            [image] => {
                let mut node = NodeSim::new(cfg, image, mode, &noise)?;
                if !residents.is_empty() {
                    node.set_residents(residents)?;
                }
                Sim::Node(Box::new(node))
            }
            many => Sim::Cluster(Box::new(ClusterSim::new(cfg, many, mode, &noise)?)),
        };
        match &mut sim {
            Sim::Node(s) => s.set_engine(SimEngine::default()),
            Sim::Cluster(s) => s.set_engine(SimEngine::default()),
        }
        Ok(sim)
    }

    fn fork(&self) -> Sim {
        match self {
            Sim::Node(s) => Sim::Node(Box::new(s.fork_replica())),
            Sim::Cluster(s) => Sim::Cluster(Box::new(s.fork_replica())),
        }
    }

    fn reset(&mut self) {
        match self {
            Sim::Node(s) => s.reset(),
            Sim::Cluster(s) => s.reset(),
        }
    }

    fn write_input(&mut self, name: &str, values: &[f32]) -> Result<()> {
        match self {
            Sim::Node(s) => s.write_input(name, values),
            Sim::Cluster(s) => s.write_input(name, values),
        }
    }

    fn run(&mut self, resident: Option<&str>) -> Result<&RunStats> {
        match (self, resident) {
            (Sim::Node(s), None) => s.run(),
            (Sim::Node(s), Some(r)) => s.run_resident(r),
            (Sim::Cluster(s), None) => s.run(),
            (Sim::Cluster(s), Some(r)) => s.run_resident(r),
        }
    }

    fn read_output(&self, name: &str) -> Result<Vec<f32>> {
        match self {
            Sim::Node(s) => s.read_output(name),
            Sim::Cluster(s) => s.read_output(name),
        }
    }

    fn stats(&self) -> &RunStats {
        match self {
            Sim::Node(s) => s.stats(),
            Sim::Cluster(s) => s.stats(),
        }
    }

    fn queue_events(&self) -> u64 {
        match self {
            Sim::Node(s) => s.queue_events(),
            Sim::Cluster(s) => s.queue_events(),
        }
    }

    fn state_bytes(&self) -> usize {
        match self {
            Sim::Node(s) => s.state_bytes(),
            Sim::Cluster(s) => s.state_bytes(),
        }
    }
}

/// One input chunk: its binding, and its offset and width in the logical
/// input.
type Chunk = (String, usize, usize);

/// The binding names one stream's requests are written and read through,
/// resolved once so the replay loop formats nothing.
#[derive(Debug)]
struct Plan {
    /// Tenant name for `run_resident` (tenant workloads only).
    resident: Option<String>,
    /// Constant bindings and their values, written before every request.
    consts: Vec<(String, Vec<f32>)>,
    /// Per logical input: its name and its chunks.
    inputs: Vec<(String, Vec<Chunk>)>,
    /// Per logical output: its name and its chunk bindings.
    outputs: Vec<(String, Vec<String>)>,
}

impl Plan {
    fn new(compiled: &CompiledModel, tenant: Option<&str>) -> Plan {
        let bind = |b: &str| tenant.map_or_else(|| b.to_string(), |t| format!("{t}:{b}"));
        Plan {
            resident: tenant.map(str::to_string),
            consts: compiled.const_data.iter().map(|(b, v)| (bind(&b.name), v.clone())).collect(),
            inputs: compiled
                .inputs
                .iter()
                .map(|io| {
                    let mut offset = 0;
                    let chunks = io
                        .chunks
                        .iter()
                        .zip(&io.chunk_widths)
                        .map(|(c, &w)| {
                            offset += w;
                            (bind(c), offset - w, w)
                        })
                        .collect();
                    (io.name.clone(), chunks)
                })
                .collect(),
            outputs: compiled
                .outputs
                .iter()
                .map(|io| (io.name.clone(), io.chunks.iter().map(|c| bind(c)).collect()))
                .collect(),
        }
    }

    /// The logical input `name` of one request.
    fn input<'r>(name: &str, inputs: &'r [(String, Vec<f32>)]) -> Result<&'r [f32]> {
        inputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_slice())
            .ok_or_else(|| PumaError::Execution { what: format!("missing input {name:?}") })
    }

    /// Logical outputs from per-binding chunk values.
    fn assemble(
        &self,
        mut chunk: impl FnMut(&str) -> Result<Vec<f32>>,
    ) -> Result<BTreeMap<String, Vec<f32>>> {
        let mut out = BTreeMap::new();
        for (name, chunks) in &self.outputs {
            let mut data = Vec::new();
            for c in chunks {
                data.extend(chunk(c)?);
            }
            out.insert(name.clone(), data);
        }
        Ok(out)
    }
}

/// Runs one request on `sim`, one span per layer call.
fn replay_request(
    rec: &mut Recorder,
    sim: &mut Sim,
    plan: &Plan,
    inputs: &[(String, Vec<f32>)],
    parent: Option<usize>,
    request: u64,
) -> Result<BTreeMap<String, Vec<f32>>> {
    let id = rec.open("sim.reset", "sim", parent, Some(request));
    sim.reset();
    rec.close(id);
    let id = rec.open("sim.write_input", "sim", parent, Some(request));
    let wrote = (|| -> Result<()> {
        for (name, values) in &plan.consts {
            sim.write_input(name, values)?;
        }
        for (name, chunks) in &plan.inputs {
            let data = Plan::input(name, inputs)?;
            for (binding, offset, width) in chunks {
                sim.write_input(binding, &data[*offset..offset + width])?;
            }
        }
        Ok(())
    })();
    rec.close(id);
    wrote?;
    let id = rec.open("sim.run", "sim", parent, Some(request));
    let ran = sim.run(plan.resident.as_deref()).map(|_| ());
    rec.close(id);
    ran?;
    let id = rec.open("sim.read_output", "sim", parent, Some(request));
    let outputs = plan.assemble(|c| sim.read_output(c));
    rec.close(id);
    outputs
}

/// Deterministic counts summed over the requests of a replay pass.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Counts {
    requests: u64,
    instructions: u64,
    mvm_activations: u64,
    queue_events: u64,
}

/// One pass over every request (streams in order, as the runtime queues
/// its simulation jobs) inside a `bench.replay` span. Returns the counts,
/// the pass's root span, and — when `keep` — a record per request.
fn replay_pass(
    rec: &mut Recorder,
    sim: &mut Sim,
    plans: &[Plan],
    requests: &Requests,
    keep: bool,
) -> Result<(Counts, Option<usize>, Vec<Record>)> {
    let root = rec.open("bench.replay", "bench", None, None);
    let mut counts = Counts::default();
    let mut kept = Vec::new();
    for (s, plan) in plans.iter().enumerate() {
        for i in 0..requests.len(s) {
            let position = counts.requests;
            let req = rec.open("bench.request", "bench", root, Some(position));
            let outputs = replay_request(rec, sim, plan, requests.inputs(s, i), req, position)?;
            let stats = sim.stats();
            counts.requests += 1;
            counts.instructions += stats.total_instructions();
            counts.mvm_activations += stats.mvmu_activations;
            counts.queue_events += sim.queue_events();
            if keep {
                kept.push(Record::ran(s, i, outputs, stats.clone()));
            }
            rec.close(req);
        }
    }
    rec.close(root);
    Ok((counts, root, kept))
}

/// Serves the whole request set on the pipeline, as the pipelined
/// runtime does, and returns per-request records and the serve's wall
/// time in seconds.
fn pipeline_replay(
    rec: &mut Recorder,
    pipe: &mut PipelineSim,
    plan: &Plan,
    requests: &Requests,
    depth: usize,
) -> Result<(Vec<Record>, f64)> {
    let arrivals = requests.arrivals(0);
    let pipeline_requests = (0..requests.len(0))
        .map(|i| {
            let mut writes = Vec::new();
            for (name, chunks) in &plan.inputs {
                let data = Plan::input(name, requests.inputs(0, i))?;
                for (binding, offset, width) in chunks {
                    writes.push((binding.clone(), data[*offset..offset + width].to_vec()));
                }
            }
            Ok(PipelineRequest { arrival: arrivals[i], writes })
        })
        .collect::<Result<Vec<_>>>()?;
    let (report, wall) = rec.time("sim.pipeline_serve", "sim", None, || {
        timed(|| pipe.serve_with_deadline(&plan.consts, &pipeline_requests, Some(depth), None))
    });
    let records = report?
        .results
        .into_iter()
        .enumerate()
        .map(|(index, r)| {
            let (fate, outputs) = if let Some(e) = r.error {
                (Fate::Failed(e.to_string()), BTreeMap::new())
            } else if r.admitted {
                let outputs = plan.assemble(|c| {
                    r.outputs.get(c).cloned().ok_or_else(|| PumaError::Execution {
                        what: format!("pipeline returned no output {c:?}"),
                    })
                })?;
                (Fate::Completed { start: r.start, finish: r.finish }, outputs)
            } else {
                (Fate::Shed, BTreeMap::new())
            };
            Ok(Record { stream: 0, index, fate, outputs, stats: r.stats })
        })
        .collect::<Result<Vec<_>>>()?;
    Ok((records, wall))
}

/// Median of a non-empty sample.
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Host ns per `AnalogMvmu::mvm` call on a full 128×128 crossbar (16,384
/// MACs, 32 KiB of encoded weights): the top-left block of `matrix`, or
/// for shape-only models a seeded block drawn the way the zoo draws
/// weights. Inputs are the first values of each request's first input,
/// repeated to the crossbar width and quantized to Q4.12.
fn mvm_ns(rec: &mut Recorder, matrix: Option<&Matrix>, requests: &Requests) -> Result<f64> {
    let mvmu_cfg = NodeConfig::default().tile.core.mvmu;
    let dim = mvmu_cfg.dim;
    let block = match matrix {
        Some(m) => m.tile(0, 0, dim, dim),
        None => WeightRng::new(WEIGHT_SEED).xavier_matrix(dim, dim),
    };
    let mut mvmu = AnalogMvmu::new(mvmu_cfg)?;
    mvmu.program(&block.quantize(), &NoiseModel::noiseless())?;
    let inputs: Vec<Vec<Fixed>> = (0..requests.len(0).min(TWIN_REQUESTS))
        .map(|i| {
            let v = &requests.inputs(0, i)[0].1;
            (0..dim).map(|k| Fixed::from_f32(v[k % v.len()])).collect()
        })
        .collect();
    let mut per_call = Vec::with_capacity(MVM_BATCHES);
    for _ in 0..MVM_BATCHES {
        let start = Instant::now();
        let id = rec.open("xbar.mvm", "xbar", None, None);
        for call in 0..MVM_CALLS {
            black_box(mvmu.mvm(black_box(&inputs[call % inputs.len()]))?);
        }
        rec.close(id);
        per_call.push(start.elapsed().as_nanos() as f64 / MVM_CALLS as f64);
    }
    Ok(median(per_call))
}

/// What set-up produced: per-stream compiled models and the simulators.
struct Stack {
    compiled: Vec<CompiledModel>,
    /// The images the replica and its twin are built from, and their config.
    images: Vec<MachineImage>,
    cfg: NodeConfig,
    residents: Vec<ResidentModel>,
    /// The forked replica requests are replayed on.
    replica: Sim,
    /// The pipeline, for the pipelined workload.
    pipeline: Option<PipelineSim>,
    /// The first weight matrix's data, if materialized.
    first_matrix: Option<Matrix>,
}

/// Phase 1: set-up, one span per call. `tenant` is the tenant server
/// whose placement the fabric image follows.
fn set_up(rec: &mut Recorder, w: &Workload, tenant: Option<&Server>) -> Result<Stack> {
    let root = rec.open("bench.setup", "bench", None, None);
    let options = w.compiler_options();
    let mut compiled = Vec::new();
    let mut first_matrix = None;
    for s in w.streams {
        let model = rec.time("nn.build_graph_model", "nn", root, || w.build_model(s.model))?;
        if first_matrix.is_none() {
            first_matrix = Some(model.matrices()[0].data.clone());
        }
        let c = rec.time("compiler.compile", "compiler", root, || {
            compile(&model, &NodeConfig::default(), &options)
        })?;
        compiled.push(c);
    }
    let (cfg, images, residents) = match tenant {
        Some(Server::Tenant(server)) => {
            let deployments = server.deployments();
            let residents: Vec<Resident<'_>> = deployments
                .iter()
                .zip(&compiled)
                .map(|(d, c)| Resident { name: &d.model, image: &c.image, base: d.base })
                .collect();
            let fabric = rec
                .time("compiler.compose_fabric", "compiler", root, || compose_fabric(&residents))?;
            let residents = deployments
                .iter()
                .map(|d| ResidentModel { name: d.model.clone(), base: d.base, tiles: d.tiles })
                .collect();
            (*server.config(), vec![fabric], residents)
        }
        _ => {
            let cfg = fit_config(&NodeConfig::default(), &compiled[0]);
            let images = rec.time("compiler.shard", "compiler", root, || compiled[0].shard())?;
            (cfg, images, Vec::new())
        }
    };
    let prototype = rec
        .time("sim.build", "sim", root, || Sim::build(cfg, &images, w.mode(), residents.clone()))?;
    let replica = rec.time("sim.fork_replica", "sim", root, || prototype.fork());
    drop(prototype);
    let pipeline = match w.front {
        Front::Pipelined { .. } => Some(rec.time("sim.build", "sim", root, || {
            PipelineSim::new(cfg, &images, w.mode(), &NoiseModel::noiseless()).map(|mut p| {
                p.set_engine(SimEngine::default());
                p
            })
        })?),
        _ => None,
    };
    rec.close(root);
    Ok(Stack {
        compiled,
        images,
        cfg,
        residents,
        replica,
        pipeline,
        first_matrix: first_matrix.flatten(),
    })
}

/// The steps of one measurement round (see the module docs).
#[derive(Debug, Clone, Copy)]
enum Step {
    Untraced,
    Traced,
    Pipeline,
    Serve,
}

impl Step {
    const ALL: [Step; 4] = [Step::Untraced, Step::Traced, Step::Pipeline, Step::Serve];
    const REVERSED: [Step; 4] = [Step::Serve, Step::Pipeline, Step::Traced, Step::Untraced];
}

/// Runs `f`, returning its result and its wall time in seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Runs the per-layer measurement of `w` on inputs from `seed`: pairs of
/// rounds continue until `seconds` have passed (at least one pair), each
/// stream capped at `cap` requests.
pub fn run(w: &Workload, seed: u64, seconds: f64, cap: usize, rec: &mut Recorder) -> Result<Run> {
    let mut notes = Vec::new();
    // The tenant stack is small; its placement fixes the fabric image.
    let tenant = match w.front {
        Front::Tenant { .. } => Some(build_server(w, 1)?),
        _ => None,
    };
    let mut stack = set_up(rec, w, tenant.as_ref())?;
    let requests = generate(w, seed, cap, |i| &stack.compiled[i]);
    let tenant_name = |i: usize| match w.front {
        Front::Tenant { .. } => Some(w.streams[i].model),
        _ => None,
    };
    let plans: Vec<Plan> =
        stack.compiled.iter().enumerate().map(|(i, c)| Plan::new(c, tenant_name(i))).collect();

    // Phase 2. Warm-ups, untraced: a full replay pass, whose records the
    // serve is checked against, and one-request runs of the pipeline and
    // of the public serve, which build their pooled simulators.
    let mut off = Recorder::new(false);
    let (_, _, mut replayed) = replay_pass(&mut off, &mut stack.replica, &plans, &requests, true)?;
    if let Some(pipe) = &mut stack.pipeline {
        pipeline_replay(&mut off, pipe, &plans[0], &requests.prefix(1), w.queue_depth)?;
    }
    let server = match tenant {
        Some(server) => server,
        None => build_server(w, 1)?,
    };
    server.serve(&requests.prefix(1))?;

    let mut counts = Counts::default();
    let (mut untraced_s, mut traced_s, mut pipeline_s, mut serve_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut covered = Vec::new();
    let mut outcome = None;
    let rounds_from = Instant::now();
    // Rounds come in pairs, the second running the steps in reverse: a
    // step that follows a similar one runs warmer, and the pair cancels
    // that out of the comparisons between steps.
    while serve_s.is_empty()
        || (rounds_from.elapsed().as_secs_f64() < seconds && rec.spans().len() < MAX_SPANS)
    {
        for order in [Step::ALL, Step::REVERSED] {
            for step in order {
                match step {
                    Step::Untraced => {
                        let (pass, wall) = timed(|| {
                            replay_pass(&mut off, &mut stack.replica, &plans, &requests, false)
                        });
                        pass?;
                        untraced_s.push(wall);
                    }
                    Step::Traced => {
                        let (c, root, _) =
                            replay_pass(rec, &mut stack.replica, &plans, &requests, false)?;
                        let root = root.expect("the recorder is on");
                        traced_s.push(rec.spans()[root].duration_ns() as f64 / 1e9);
                        covered.push(coverage(rec.spans(), root));
                        counts = Counts {
                            requests: counts.requests + c.requests,
                            instructions: counts.instructions + c.instructions,
                            mvm_activations: counts.mvm_activations + c.mvm_activations,
                            queue_events: counts.queue_events + c.queue_events,
                        };
                    }
                    Step::Pipeline => {
                        let Some(pipe) = &mut stack.pipeline else { continue };
                        let (records, wall) =
                            pipeline_replay(rec, pipe, &plans[0], &requests, w.queue_depth)?;
                        if pipeline_s.is_empty() {
                            replayed = records;
                        }
                        pipeline_s.push(wall);
                    }
                    Step::Serve => {
                        let (served, wall) = timed(|| {
                            rec.time("runtime.serve", "runtime", None, || server.serve(&requests))
                        });
                        outcome.get_or_insert(served?);
                        serve_s.push(wall);
                    }
                }
            }
        }
    }
    let rounds = serve_s.len();
    let replica_bytes = stack.replica.state_bytes();
    stack.pipeline = None;

    // Phase 3: the Timing-mode twin, on a recorder of its own so its
    // `sim.run` spans stay apart from the replica's.
    let mut twin_rec = Recorder::new(true);
    let mut twin = Sim::build(stack.cfg, &stack.images, SimMode::Timing, stack.residents.clone())?;
    for (s, plan) in plans.iter().enumerate() {
        for i in 0..requests.len(s).min(TWIN_REQUESTS) {
            replay_request(&mut twin_rec, &mut twin, plan, requests.inputs(s, i), None, i as u64)?;
        }
    }
    drop(twin);
    drop(stack.replica);

    // Phase 4: the crossbar.
    let mvm_ns = mvm_ns(rec, stack.first_matrix.as_ref(), &requests)?;

    let outcome = outcome.expect("at least one round");
    let summary = summarize(w, &outcome);
    let served = records(outcome, usize::MAX);
    let pipelined = matches!(w.front, Front::Pipelined { .. });
    let check: Check = compare(&served, &replayed, pipelined, true);
    if check.compared == 0 {
        notes.push("serve and replay: no request to compare".to_string());
    }
    notes.extend(check.mismatches.iter().take(5).map(|m| format!("serve vs replay: {m}")));
    // The simulation work the serve does: the replay pass, or for the
    // pipelined workload the pipeline's own serve.
    let replay_s = median(if pipelined { pipeline_s } else { untraced_s.clone() });
    let serve_s = median(serve_s);
    notes.push(format!(
        "{rounds} rounds: replay {replay_s:.6} s, runtime serve {serve_s:.6} s (medians)"
    ));

    let spans = rec.spans();
    let n = counts.requests.max(1) as f64;
    let run_us = mean_ns(spans, "sim.run") / 1e3;
    let run_s_total = total_ns(spans, "sim.run") as f64 / 1e9;
    let mvm_per_req = counts.mvm_activations as f64 / n;
    let setup_s = |name| total_ns(spans, name) as f64 / 1e9;
    let simulated = if pipelined { summary.attempted - summary.shed } else { summary.attempted };
    let wasted = if pipelined { 0 } else { summary.shed };
    let metrics = vec![
        ("nn.model_s", setup_s("nn.build_graph_model")),
        (
            "compiler.compile_s",
            setup_s("compiler.compile")
                + setup_s("compiler.shard")
                + setup_s("compiler.compose_fabric"),
        ),
        (
            "compiler.static_instrs",
            stack.compiled.iter().map(|c| c.stats.static_instructions).sum::<usize>() as f64,
        ),
        (
            "compiler.tiles_used",
            stack.compiled.iter().map(|c| c.stats.tiles_used).sum::<usize>() as f64,
        ),
        ("sim.build_s", setup_s("sim.build")),
        ("sim.fork_s", setup_s("sim.fork_replica")),
        ("sim.replica_mib", replica_bytes as f64 / (1024.0 * 1024.0)),
        ("sim.reset_us", mean_ns(spans, "sim.reset") / 1e3),
        ("sim.write_us", mean_ns(spans, "sim.write_input") / 1e3),
        ("sim.run_us", run_us),
        ("sim.read_us", mean_ns(spans, "sim.read_output") / 1e3),
        ("sim.instr_per_req", counts.instructions as f64 / n),
        ("sim.run_mips", counts.instructions as f64 / run_s_total.max(1e-12) / 1e6),
        (
            "sim.queue_events_per_instr",
            counts.queue_events as f64 / counts.instructions.max(1) as f64,
        ),
        ("sim.timing_run_us", mean_ns(twin_rec.spans(), "sim.run") / 1e3),
        ("sim.replay_s", replay_s),
        ("xbar.mvm_per_req", mvm_per_req),
        ("xbar.mvm_ns", mvm_ns),
        (
            "xbar.mvm_share_est",
            // Timing mode computes no MVM payload, so no share of the run.
            if w.functional { mvm_ns * mvm_per_req / (run_us * 1e3) } else { 0.0 },
        ),
        ("runtime.self_us", (serve_s - replay_s) / requests.total().max(1) as f64 * 1e6),
        ("runtime.wasted_sim_frac", wasted as f64 / simulated.max(1) as f64),
        ("trace.coverage", median(covered)),
        ("trace.overhead_frac", median(traced_s) / median(untraced_s) - 1.0),
    ];
    debug_assert!(metrics.iter().map(|m| m.0).eq(PER_LAYER.iter().map(|p| p.0)));
    Ok(Run {
        metrics,
        attempted: summary.attempted,
        failed: summary.failed + check.mismatches.len() + usize::from(check.compared == 0),
        notes,
    })
}
