//! The benchmark's workloads: what each one serves, how its serving stack
//! is built through the public API, and how its requests are generated.
//!
//! Everything a workload is made of is a literal here — model, mode,
//! worker count, queue depth, arrival process, request count and latency
//! limit — so no number depends on how fast the code under test is.

use puma::runtime::{
    BatchRequest, FabricSpec, ModelCatalog, ScalePolicy, ServeOutcome, ServeRequest, ServeRunner,
    TenantOutcome, TenantServer, TenantStream,
};
use puma_compiler::graph::Model;
use puma_compiler::{CompiledModel, CompilerOptions, Partitioning};
use puma_core::config::NodeConfig;
use puma_core::error::Result;
use puma_core::timing::TrafficPattern;
use puma_nn::{zoo, WeightFactory};
use puma_sim::SimMode;
use puma_testkit::harness::seeded_values;
use puma_xbar::NoiseModel;

/// The input seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 2019;

/// Seed of the synthetic weights, fixed like the rest of the model.
pub const WEIGHT_SEED: u64 = 7;

/// Host threads a serve may use. The pipelined workload runs on one.
pub const HOST_THREADS: usize = 2;

/// Which serving front end a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Front {
    /// `ServeRunner` with a pool of full replicas.
    Replicated {
        /// Simulated workers in the pool.
        workers: usize,
    },
    /// `ServeRunner` over a sharded model, served as a pipeline.
    Pipelined {
        /// Nodes the model is sharded across (one pipeline stage each).
        nodes: usize,
    },
    /// `TenantServer`: every stream's model resident on one fabric.
    Tenant {
        /// Queue depth at which a model grows a replica.
        scale_up_depth: usize,
        /// Replicas per model the autoscaler may run, and the fabric holds.
        max_replicas: usize,
    },
}

/// One model's request stream.
#[derive(Debug, Clone, Copy)]
pub struct Stream {
    /// Zoo model name.
    pub model: &'static str,
    /// Mean Poisson inter-arrival gap, in simulated cycles.
    pub mean_interarrival: f64,
    /// Seed of the arrival process. Arrivals belong to the workload, not
    /// to `--seed`, so simulated metrics are the same on every seed.
    pub arrival_seed: u64,
    /// Requests per serve.
    pub requests: usize,
    /// Latency limit in simulated cycles, for `slo_attainment`.
    pub slo_cycles: u64,
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// Why the workload exists (mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// Functional simulation with materialized weights, or timing only.
    pub functional: bool,
    /// The serving front end.
    pub front: Front,
    /// Bounded queue depth (per model for the tenant front).
    pub queue_depth: usize,
    /// Request streams, one per model.
    pub streams: &'static [Stream],
}

/// The four workloads. Each loads one layer heavily and the others lightly.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "mlpl4-func",
        why: "xbar-bound: functional MLPL4 spends ~90% of each run computing MVM payload, and \
              crossbar programming dominates set-up",
        functional: true,
        front: Front::Replicated { workers: 2 },
        queue_depth: 8,
        // Service is 51,394 cycles on 2 workers: this gap is ~0.7 of capacity.
        streams: &[Stream {
            model: "MLPL4",
            mean_interarrival: 36_700.0,
            arrival_seed: 11,
            requests: 600,
            slo_cycles: 250_000,
        }],
    },
    Workload {
        name: "nmtl3-timing",
        why: "sim-bound: timing-mode NMTL3 dispatches ~71k instructions per request and computes \
              no MVM payload, the control for any xbar change",
        functional: false,
        front: Front::Replicated { workers: 2 },
        queue_depth: 8,
        // Service is 274,296 cycles on 2 workers: ~0.9 of capacity.
        streams: &[Stream {
            model: "NMTL3",
            mean_interarrival: 152_000.0,
            arrival_seed: 12,
            requests: 220,
            slo_cycles: 1_400_000,
        }],
    },
    Workload {
        name: "nmtl3-pipeline",
        why: "sim-bound another way: NMTL3 sharded over 2 nodes and served as a pipeline, so \
              ClusterSim shards, PipelineSim stepping and the interconnect run on one thread",
        functional: false,
        front: Front::Pipelined { nodes: 2 },
        queue_depth: 8,
        streams: &[Stream {
            model: "NMTL3",
            mean_interarrival: 330_000.0,
            arrival_seed: 13,
            requests: 220,
            slo_cycles: 1_400_000,
        }],
    },
    Workload {
        name: "tenant-overload",
        why: "runtime-bound: two small tenants at ~4x one replica's rate cost 6-33 us of \
              simulation each, so per-request runtime work and autoscaling dominate",
        functional: false,
        front: Front::Tenant { scale_up_depth: 4, max_replicas: 3 },
        queue_depth: 8,
        // Service is 13,855 and 79,435 cycles: each gap is 1/4 of one.
        streams: &[
            Stream {
                model: "MLP-64-150-150-14",
                mean_interarrival: 3_464.0,
                arrival_seed: 14,
                requests: 30_000,
                slo_cycles: 70_000,
            },
            Stream {
                model: "LSTM-26-120-61",
                mean_interarrival: 19_859.0,
                arrival_seed: 15,
                requests: 30_000,
                slo_cycles: 400_000,
            },
        ],
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The simulation mode every stack of this workload runs in.
    pub fn mode(&self) -> SimMode {
        if self.functional {
            SimMode::Functional
        } else {
            SimMode::Timing
        }
    }

    /// Compiler options: default for functional runs, shape-only weights
    /// for timing runs, sharded for the pipeline.
    pub fn compiler_options(&self) -> CompilerOptions {
        let base = if self.functional {
            CompilerOptions::default()
        } else {
            CompilerOptions::timing_only()
        };
        match self.front {
            Front::Pipelined { nodes } => {
                CompilerOptions { partitioning: Partitioning::Sharded { nodes }, ..base }
            }
            _ => base,
        }
    }

    /// Builds one stream's model graph from the zoo (the `nn` layer).
    pub fn build_model(&self, model: &str) -> Result<Model> {
        let mut weights = if self.functional {
            WeightFactory::materialized(WEIGHT_SEED)
        } else {
            WeightFactory::shape_only(WEIGHT_SEED)
        };
        // LSTMs run at the reduced sequence length the repository's
        // benches simulate them with.
        let seq_len = puma_bench::sim_seq_len(model);
        let model = zoo::build_graph_model(&zoo::spec(model), &mut weights, seq_len)?;
        Ok(model.expect("every workload model is a graph model"))
    }
}

/// A workload's serving stack, built through the public runtime API.
#[derive(Debug)]
pub enum Server {
    /// A `ServeRunner` (replicated or pipelined).
    Serve(Box<ServeRunner>),
    /// A `TenantServer` with every stream's model deployed.
    Tenant(Box<TenantServer>),
}

/// Builds the serving stack of `w` with the default engine: model build,
/// compile, runner or catalog + fabric + deployment. `host_threads` caps
/// the threads a serve may use.
pub fn build_server(w: &Workload, host_threads: usize) -> Result<Server> {
    let cfg = NodeConfig::default();
    let options = w.compiler_options();
    match w.front {
        Front::Replicated { workers } => {
            let model = w.build_model(w.streams[0].model)?;
            let runner =
                ServeRunner::new(&model, &cfg, &options, w.mode(), &NoiseModel::noiseless())?
                    .with_workers(workers)
                    .with_host_threads(host_threads)
                    .with_queue_depth(Some(w.queue_depth));
            Ok(Server::Serve(Box::new(runner)))
        }
        Front::Pipelined { .. } => {
            let model = w.build_model(w.streams[0].model)?;
            let runner =
                ServeRunner::new(&model, &cfg, &options, w.mode(), &NoiseModel::noiseless())?
                    .with_pipeline(true)
                    .with_host_threads(1)
                    .with_queue_depth(Some(w.queue_depth));
            Ok(Server::Serve(Box::new(runner)))
        }
        Front::Tenant { scale_up_depth, max_replicas } => {
            let mut catalog = ModelCatalog::new();
            for s in w.streams {
                catalog.register_model(s.model, &w.build_model(s.model)?, &cfg, &options)?;
            }
            // Room for every model's full replica budget on one node.
            let tiles: usize = w
                .streams
                .iter()
                .map(|s| catalog.get(s.model).expect("just registered").stats.tiles_used.max(1))
                .sum();
            let fabric = FabricSpec::new(1, tiles * max_replicas);
            let mut server =
                TenantServer::new(catalog, fabric, &cfg, w.mode(), &NoiseModel::noiseless())?
                    .with_host_threads(host_threads)
                    .with_queue_depth(Some(w.queue_depth))
                    .with_policy(ScalePolicy::new(scale_up_depth, max_replicas));
            for s in w.streams {
                server.deploy(s.model)?;
            }
            Ok(Server::Tenant(Box::new(server)))
        }
    }
}

impl Server {
    /// The compiled model serving stream `stream`.
    pub fn compiled(&self, w: &Workload, stream: usize) -> &CompiledModel {
        match self {
            Server::Serve(runner) => runner.compiled(),
            Server::Tenant(server) => {
                server.catalog().get(w.streams[stream].model).expect("deployed model is cataloged")
            }
        }
    }

    /// Serves `requests` once.
    pub fn serve(&self, requests: &Requests) -> Result<Outcome> {
        match (self, requests) {
            (Server::Serve(runner), Requests::Serve(reqs)) => {
                runner.serve(reqs).map(|o| Outcome::Serve(Box::new(o)))
            }
            (Server::Tenant(server), Requests::Tenant(streams)) => {
                server.serve(streams).map(Outcome::Tenant)
            }
            _ => unreachable!("requests are generated for the server's front end"),
        }
    }

    /// Switches the stack to the Reference engine, the oracle's engine.
    pub fn into_reference(self) -> Server {
        match self {
            Server::Serve(runner) => {
                Server::Serve(Box::new(runner.with_engine(puma_sim::SimEngine::Reference)))
            }
            Server::Tenant(server) => {
                Server::Tenant(Box::new(server.with_engine(puma_sim::SimEngine::Reference)))
            }
        }
    }
}

/// One serve's raw outcome.
#[derive(Debug)]
pub enum Outcome {
    /// From `ServeRunner::serve`.
    Serve(Box<ServeOutcome>),
    /// From `TenantServer::serve`.
    Tenant(TenantOutcome),
}

/// A workload's requests, in the form its front end takes.
#[derive(Debug, Clone)]
pub enum Requests {
    /// For `ServeRunner::serve`: explicit arrivals.
    Serve(Vec<ServeRequest>),
    /// For `TenantServer::serve`: one Poisson stream per model.
    Tenant(Vec<TenantStream>),
}

/// The seed of one input vector: `seed` mixed with the vector's position,
/// so every request of every stream gets distinct values.
fn input_seed(seed: u64, stream: usize, request: usize, input: usize) -> u64 {
    let mut h = seed ^ ((stream as u64) << 56) ^ ((request as u64) << 16) ^ input as u64;
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// Generates the requests of `w` from `seed`: every logical input of the
/// stream's compiled model filled with `seeded_values`, at most `cap`
/// requests per stream. `layout(stream)` gives the compiled model whose
/// input layout the requests follow.
pub fn generate<'a>(
    w: &Workload,
    seed: u64,
    cap: usize,
    layout: impl Fn(usize) -> &'a CompiledModel,
) -> Requests {
    let streams: Vec<(Vec<BatchRequest>, TrafficPattern)> = w
        .streams
        .iter()
        .enumerate()
        .map(|(si, s)| {
            let compiled = layout(si);
            let requests = (0..s.requests.min(cap))
                .map(|ri| {
                    BatchRequest::new(
                        compiled
                            .inputs
                            .iter()
                            .enumerate()
                            .map(|(ii, io)| {
                                let values = seeded_values(io.width, input_seed(seed, si, ri, ii));
                                (io.name.clone(), values)
                            })
                            .collect(),
                    )
                })
                .collect();
            let pattern = TrafficPattern::Poisson {
                mean_interarrival: s.mean_interarrival,
                seed: s.arrival_seed,
            };
            (requests, pattern)
        })
        .collect();
    match w.front {
        Front::Tenant { .. } => Requests::Tenant(
            w.streams
                .iter()
                .zip(streams)
                .map(|(s, (requests, pattern))| TenantStream::new(s.model, requests, pattern))
                .collect(),
        ),
        _ => {
            let (requests, pattern) = streams.into_iter().next().expect("one stream");
            let arrivals = pattern.arrivals(requests.len());
            Requests::Serve(
                requests
                    .into_iter()
                    .zip(arrivals)
                    .map(|(r, arrival)| ServeRequest::new(arrival, r.inputs))
                    .collect(),
            )
        }
    }
}

impl Requests {
    /// Number of streams.
    pub fn streams(&self) -> usize {
        match self {
            Requests::Serve(_) => 1,
            Requests::Tenant(streams) => streams.len(),
        }
    }

    /// Requests in stream `stream`.
    pub fn len(&self, stream: usize) -> usize {
        match self {
            Requests::Serve(reqs) => reqs.len(),
            Requests::Tenant(streams) => streams[stream].requests.len(),
        }
    }

    /// Requests over all streams.
    pub fn total(&self) -> usize {
        (0..self.streams()).map(|s| self.len(s)).sum()
    }

    /// The named inputs of request `index` of stream `stream`.
    pub fn inputs(&self, stream: usize, index: usize) -> &[(String, Vec<f32>)] {
        match self {
            Requests::Serve(reqs) => &reqs[index].inputs,
            Requests::Tenant(streams) => &streams[stream].requests[index].inputs,
        }
    }

    /// Arrival cycles of stream `stream`.
    pub fn arrivals(&self, stream: usize) -> Vec<u64> {
        match self {
            Requests::Serve(reqs) => reqs.iter().map(|r| r.arrival).collect(),
            Requests::Tenant(streams) => {
                let s = &streams[stream];
                s.pattern.arrivals(s.requests.len())
            }
        }
    }

    /// The first `k` requests of every stream. Arrivals of a prefix equal
    /// the full set's, so a replicated or pipelined serve of the prefix
    /// schedules those requests exactly as the full serve did: a FIFO
    /// queue's decisions for a request depend only on earlier arrivals.
    pub fn prefix(&self, k: usize) -> Requests {
        match self {
            Requests::Serve(reqs) => Requests::Serve(reqs[..k.min(reqs.len())].to_vec()),
            Requests::Tenant(streams) => Requests::Tenant(
                streams
                    .iter()
                    .map(|s| {
                        let n = k.min(s.requests.len());
                        TenantStream::new(&s.model, s.requests[..n].to_vec(), s.pattern)
                    })
                    .collect(),
            ),
        }
    }
}
