//! Isolation differential: a fabric hosting several resident zoo models
//! on disjoint tile ranges must serve each model with outputs **and**
//! [`puma_sim::RunStats`] bit-identical to serving that model alone at
//! the same tile base on the same machine. Idle co-tenants never prime,
//! so they contribute zero events, cycles, and energy — any divergence
//! is a tenancy-isolation bug, not noise.
//!
//! The suite honours `PUMA_ENGINE`, so CI's two-engine matrix pins the
//! invariant under the reference and compiled engines.

use std::collections::HashMap;

use puma_compiler::{
    compile, compose_fabric, fit_config, CompiledModel, CompilerOptions, Resident,
};
use puma_core::config::{NodeConfig, NonIdealityConfig};
use puma_sim::{ClusterSim, NodeSim, ResidentModel, RunStats, SimMode};
use puma_testkit::harness::{
    default_engine, read_model_outputs, reference_outputs, write_model_inputs,
};
use puma_testkit::modelgen::{self, ModelCase};
use puma_xbar::NoiseModel;

/// One zoo model compiled for the shared fabric, with its tile range.
struct Tenant {
    name: String,
    case: ModelCase,
    compiled: CompiledModel,
    base: usize,
    tiles: usize,
}

/// Compiles the three simulable zoo models and lays them out at
/// staggered bases (a one-tile gap between neighbours), returning the
/// tenants plus a [`NodeConfig`] wide enough for the whole fabric.
fn zoo_tenants() -> (Vec<Tenant>, NodeConfig) {
    let options = CompilerOptions::default();
    let mut cfg = NodeConfig::default();
    let mut tenants = Vec::new();
    let mut base = 1;
    for (i, case) in modelgen::simulable_zoo_cases(7).into_iter().enumerate() {
        let compiled = compile(&case.model, &cfg, &options).expect("zoo model compiles");
        cfg = fit_config(&cfg, &compiled);
        let tiles = compiled.stats.tiles_used.max(1);
        tenants.push(Tenant { name: format!("zoo{i}"), case, compiled, base, tiles });
        base += tiles + 1;
    }
    cfg.tiles_per_node = cfg.tiles_per_node.max(base);
    (tenants, cfg)
}

fn resident_of(t: &Tenant) -> ResidentModel {
    ResidentModel { name: t.name.clone(), base: t.base, tiles: t.tiles }
}

fn fabric_resident(t: &Tenant) -> Resident<'_> {
    Resident { name: &t.name, image: &t.compiled.image, base: t.base }
}

/// The slice of simulator surface the differential drives — lets one
/// serving routine target [`NodeSim`] and [`ClusterSim`] alike.
trait TenantHost {
    fn reset(&mut self);
    fn write(&mut self, name: &str, values: &[f32]) -> Result<(), puma_core::PumaError>;
    fn run_tenant(&mut self, name: &str) -> Result<RunStats, puma_core::PumaError>;
    fn read(&self, name: &str) -> Result<Vec<f32>, puma_core::PumaError>;
}

impl TenantHost for NodeSim {
    fn reset(&mut self) {
        NodeSim::reset(self);
    }
    fn write(&mut self, name: &str, values: &[f32]) -> Result<(), puma_core::PumaError> {
        self.write_input(name, values)
    }
    fn run_tenant(&mut self, name: &str) -> Result<RunStats, puma_core::PumaError> {
        self.run_resident(name).cloned()
    }
    fn read(&self, name: &str) -> Result<Vec<f32>, puma_core::PumaError> {
        self.read_output(name)
    }
}

impl TenantHost for ClusterSim {
    fn reset(&mut self) {
        ClusterSim::reset(self);
    }
    fn write(&mut self, name: &str, values: &[f32]) -> Result<(), puma_core::PumaError> {
        self.write_input(name, values)
    }
    fn run_tenant(&mut self, name: &str) -> Result<RunStats, puma_core::PumaError> {
        self.run_resident(name).cloned()
    }
    fn read(&self, name: &str) -> Result<Vec<f32>, puma_core::PumaError> {
        self.read_output(name)
    }
}

/// Resets the machine, writes `t`'s inputs under its tenant prefix, runs
/// it to completion, and returns its logical outputs and stats.
fn serve_one(sim: &mut dyn TenantHost, t: &Tenant) -> (HashMap<String, Vec<f32>>, RunStats) {
    let prefix = |name: &str| format!("{}:{}", t.name, name);
    sim.reset();
    write_model_inputs(&t.compiled, &t.case.inputs, &mut |name, values| {
        sim.write(&prefix(name), values)
    })
    .expect("tenant inputs");
    let stats = sim.run_tenant(&t.name).expect("tenant run");
    let out =
        read_model_outputs(&t.compiled, &|name| sim.read(&prefix(name))).expect("tenant outputs");
    (out, stats)
}

/// Serves `t` alone: a fabric holding only this tenant, at the same base
/// and on the same machine config as the shared run.
fn serve_alone(t: &Tenant, cfg: &NodeConfig) -> (HashMap<String, Vec<f32>>, RunStats) {
    let image = compose_fabric(&[fabric_resident(t)]).expect("solo fabric");
    let mut sim =
        NodeSim::new(*cfg, &image, SimMode::Functional, &NoiseModel::noiseless()).unwrap();
    sim.set_engine(default_engine());
    sim.set_residents(vec![resident_of(t)]).unwrap();
    serve_one(&mut sim, t)
}

/// A single `NodeSim` hosting all three zoo models serves each with
/// outputs and stats bit-identical to the solo runs.
#[test]
fn node_serves_residents_identically_to_solo_runs() {
    let (tenants, cfg) = zoo_tenants();
    assert!(tenants.len() >= 2, "need at least two zoo tenants");
    let fabric: Vec<Resident<'_>> = tenants.iter().map(fabric_resident).collect();
    let image = compose_fabric(&fabric).expect("shared fabric");
    let mut sim = NodeSim::new(cfg, &image, SimMode::Functional, &NoiseModel::noiseless()).unwrap();
    sim.set_engine(default_engine());
    sim.set_residents(tenants.iter().map(resident_of).collect()).unwrap();
    for t in &tenants {
        let (solo_out, solo_stats) = serve_alone(t, &cfg);
        let (out, stats) = serve_one(&mut sim, t);
        assert_eq!(solo_out, out, "outputs of '{}' must match its solo run", t.name);
        assert_eq!(solo_stats, stats, "stats of '{}' must match its solo run", t.name);
        assert!(stats.cycles > 0);
        // The model's functional contract still holds on the shared fabric.
        let reference = reference_outputs(&t.case.model, &t.case.inputs).unwrap();
        for (name, want) in &reference {
            let got = &out[name];
            for (g, w) in got.iter().zip(want) {
                assert!((g - w).abs() <= t.case.tolerance, "'{}' output {name} drifted", t.name);
            }
        }
    }
}

/// A two-node `ClusterSim` (one tenant on node 0, two on node 1) serves
/// each resident with outputs and stats bit-identical to serving it
/// alone on a single node — co-tenants and idle peer nodes are invisible.
#[test]
fn cluster_serves_residents_identically_to_solo_runs() {
    let (tenants, cfg) = zoo_tenants();
    assert!(tenants.len() >= 3, "layout below expects three zoo tenants");
    let (first, rest) = tenants.split_at(1);
    let image0 = compose_fabric(&[fabric_resident(&first[0])]).expect("node-0 fabric");
    let image1 = compose_fabric(&rest.iter().map(fabric_resident).collect::<Vec<_>>())
        .expect("node-1 fabric");
    let mut sim =
        ClusterSim::new(cfg, &[image0, image1], SimMode::Functional, &NoiseModel::noiseless())
            .unwrap();
    sim.set_engine(default_engine());
    sim.set_residents(0, first.iter().map(resident_of).collect()).unwrap();
    sim.set_residents(1, rest.iter().map(resident_of).collect()).unwrap();
    for t in &tenants {
        let (solo_out, solo_stats) = serve_alone(t, &cfg);
        let (out, stats) = serve_one(&mut sim, t);
        assert_eq!(solo_out, out, "cluster outputs of '{}' must match its solo run", t.name);
        assert_eq!(solo_stats, stats, "cluster stats of '{}' must match its solo run", t.name);
    }
}

/// Serves `t` alone at tile base **zero** — a different physical
/// placement than the shared fabric's staggered base.
fn serve_alone_at_zero(t: &Tenant, cfg: &NodeConfig) -> (HashMap<String, Vec<f32>>, RunStats) {
    let rebased = Resident { name: &t.name, image: &t.compiled.image, base: 0 };
    let image = compose_fabric(&[rebased]).expect("rebased solo fabric");
    let mut sim =
        NodeSim::new(*cfg, &image, SimMode::Functional, &NoiseModel::noiseless()).unwrap();
    sim.set_engine(default_engine());
    sim.set_residents(vec![ResidentModel { name: t.name.clone(), base: 0, tiles: t.tiles }])
        .unwrap();
    serve_one(&mut sim, t)
}

/// Drift (and read noise) must be a pure function of
/// `(seed, time index, cell)` with the cell keyed *resident-relative*:
/// a tenant interleaved with co-tenants in a shared fabric sees exactly
/// the drifted conductances of its solo run — even solo at a different
/// tile base. Any dependence on absolute tile placement, co-tenant
/// activity, or serving order would break this bit-identity.
#[test]
fn residents_drift_identically_to_solo_runs() {
    let (tenants, mut cfg) = zoo_tenants();
    cfg.non_ideality = NonIdealityConfig {
        read_sigma: 0.05,
        drift_nu: 0.05,
        drift_t0_cycles: 5_000,
        ir_drop_alpha: 0.01,
        seed: 77,
    };
    let fabric: Vec<Resident<'_>> = tenants.iter().map(fabric_resident).collect();
    let image = compose_fabric(&fabric).expect("shared fabric");
    let mut sim = NodeSim::new(cfg, &image, SimMode::Functional, &NoiseModel::noiseless()).unwrap();
    sim.set_engine(default_engine());
    sim.set_residents(tenants.iter().map(resident_of).collect()).unwrap();
    // Interleave: serve every tenant once (warm the fabric), then compare
    // a second interleaved pass against the solo runs.
    for t in &tenants {
        serve_one(&mut sim, t);
    }
    for t in &tenants {
        let (out, stats) = serve_one(&mut sim, t);
        assert!(stats.degraded_mvm_activations > 0, "'{}' must take the degraded path", t.name);
        let (solo_out, solo_stats) = serve_alone(t, &cfg);
        assert_eq!(solo_out, out, "'{}' drift diverged from its solo run", t.name);
        assert_eq!(solo_stats, stats, "'{}' stats diverged from its solo run", t.name);
        let (zero_out, zero_stats) = serve_alone_at_zero(t, &cfg);
        assert_eq!(zero_out, out, "'{}' drift must be placement-invariant", t.name);
        assert_eq!(zero_stats.degraded_mvm_activations, stats.degraded_mvm_activations);
    }
}

use puma::runtime::{
    BatchRequest, Disposition, FabricSpec, ModelCatalog, RequestError, RetryPolicy, ScaleDirection,
    TenantServer, TenantStream,
};
use puma_core::config::{FaultPlan, TileDeath};
use puma_core::tensor::Matrix;
use puma_core::timing::TrafficPattern;

/// A one-tile model `y = tanh(A·x)` over 16 lanes, scaled per tenant.
fn tiny_model(name: &str, scale: f32) -> puma_compiler::graph::Model {
    let mut m = puma_compiler::graph::Model::new(name);
    let x = m.input("x", 16);
    let a = m.constant_matrix(
        "A",
        Matrix::from_fn(16, 16, |r, c| scale * ((r + 2 * c) % 5) as f32 * 0.01),
    );
    let ax = m.mvm(a, x).unwrap();
    let y = m.tanh(ax);
    m.output("y", y);
    m
}

fn tiny_catalog(models: &[(&str, f32)], cfg: &NodeConfig) -> ModelCatalog {
    let mut catalog = ModelCatalog::new();
    for &(name, scale) in models {
        catalog
            .register_model(name, &tiny_model(name, scale), cfg, &CompilerOptions::default())
            .expect("tiny model registers");
    }
    catalog
}

fn tiny_streams(n: usize) -> Vec<TenantStream> {
    let requests: Vec<BatchRequest> = (0..n)
        .map(|i| BatchRequest::new(vec![("x".to_string(), vec![0.1 * (i + 1) as f32; 16])]))
        .collect();
    vec![
        TenantStream::new("victim", requests.clone(), TrafficPattern::Uniform { interval: 50 }),
        TenantStream::new("bystander", requests, TrafficPattern::Uniform { interval: 70 }),
    ]
}

/// An injected tile death under the victim model's deployment: the dead
/// replica is quarantined (its tiles never re-placed), a failover
/// replica is re-placed onto free tiles, the aborted request retries and
/// completes, and subsequent requests keep completing. The *bystander*
/// tenant — and every completed output of the victim — stays
/// bit-identical to the fault-free serve: fault recovery is a pure
/// scheduling event, invisible to surviving tenants.
#[test]
fn tenant_server_fails_over_after_tile_death_with_survivors_untouched() {
    let cfg = NodeConfig::default();
    let mut faulty_cfg = cfg;
    // The victim deploys first, so its materialized replica owns tile 0
    // of node 0; it dies while the first request is in flight.
    faulty_cfg.faults = FaultPlan {
        tile_death: Some(TileDeath { node: 0, tile: 0, at_cycle: 500 }),
        ..FaultPlan::none()
    };
    let streams = tiny_streams(3);
    let serve = |cfg: &NodeConfig| {
        let mut server = TenantServer::functional(
            tiny_catalog(&[("victim", 1.0), ("bystander", -2.0)], cfg),
            FabricSpec::new(1, 8),
            cfg,
        )
        .expect("server");
        server.deploy("victim").expect("victim deploys");
        server.deploy("bystander").expect("bystander deploys");
        server = server.with_retry_policy(RetryPolicy::new(2, 16));
        server.serve(&streams).expect("serve")
    };
    let clean = serve(&cfg);
    let faulted = serve(&faulty_cfg);

    // Recovery: the victim still completes everything; exactly one
    // request needed a fault retry; nothing failed permanently.
    let victim = faulted.model("victim").expect("victim outcome");
    assert_eq!(victim.completed(), 3);
    assert_eq!(victim.retried, 1);
    assert_eq!(victim.failed, 0);
    assert_eq!(victim.shed, 0);
    // The failure and recovery are recorded, in order, against the
    // victim alone.
    let kinds: Vec<(String, ScaleDirection)> =
        faulted.scale_events.iter().map(|e| (e.model.clone(), e.direction)).collect();
    assert_eq!(
        kinds,
        vec![
            ("victim".to_string(), ScaleDirection::Quarantine),
            ("victim".to_string(), ScaleDirection::Failover),
        ]
    );
    assert_eq!(faulted.scale_events[0].cycle, 500);
    assert_eq!(faulted.scale_events[1].cycle, 500);
    assert_eq!(faulted.scale_events[1].replicas, 1);

    // Survivor isolation: the bystander's serve is bit-identical to the
    // fault-free run — outputs, stats, latencies, everything.
    let clean_by = clean.model("bystander").expect("clean bystander");
    let by = faulted.model("bystander").expect("faulted bystander");
    assert_eq!(by.stats, clean_by.stats, "a co-tenant's death must not leak into the survivor");
    assert_eq!(by.latency, clean_by.latency);
    assert_eq!(by.shed, 0);
    assert_eq!(by.retried, 0);
    for (i, (a, b)) in by.results.iter().zip(clean_by.results.iter()).enumerate() {
        let (Disposition::Completed { result: ra, .. }, Disposition::Completed { result: rb, .. }) =
            (&a.disposition, &b.disposition)
        else {
            panic!("bystander request {i} did not complete in both serves");
        };
        assert_eq!(ra.outputs, rb.outputs, "bystander request {i} outputs diverged");
    }
    // The victim's completed outputs — including the retried request —
    // are bit-identical to the fault-free serve: failover re-places the
    // same image, and fault sites are keyed resident-relative.
    let clean_victim = clean.model("victim").expect("clean victim");
    for (i, (a, b)) in victim.results.iter().zip(clean_victim.results.iter()).enumerate() {
        let (Disposition::Completed { result: ra, .. }, Disposition::Completed { result: rb, .. }) =
            (&a.disposition, &b.disposition)
        else {
            panic!("victim request {i} did not complete in both serves");
        };
        assert_eq!(ra.outputs, rb.outputs, "victim request {i} outputs diverged");
    }
}

/// With no spare capacity and no retry budget, the death degrades only
/// the victim: its requests fail with typed
/// [`RequestError::FaultedTile`] dispositions naming the dead tile,
/// while the serve call itself succeeds.
#[test]
fn tenant_server_fails_requests_typed_when_failover_has_no_capacity() {
    let cfg = NodeConfig {
        faults: FaultPlan {
            tile_death: Some(TileDeath { node: 0, tile: 0, at_cycle: 500 }),
            ..FaultPlan::none()
        },
        ..NodeConfig::default()
    };
    let mut server = TenantServer::functional(
        tiny_catalog(&[("victim", 1.0)], &cfg),
        FabricSpec::new(1, 1),
        &cfg,
    )
    .expect("server");
    server.deploy("victim").expect("victim deploys");
    let streams = vec![TenantStream::new(
        "victim",
        (0..3)
            .map(|i| BatchRequest::new(vec![("x".to_string(), vec![0.1 * (i + 1) as f32; 16])]))
            .collect(),
        TrafficPattern::Uniform { interval: 50 },
    )];
    let outcome = server.serve(&streams).expect("the serve call survives the death");
    let victim = outcome.model("victim").expect("victim outcome");
    assert_eq!(victim.completed(), 0);
    assert_eq!(victim.failed, 3);
    for (i, served) in victim.results.iter().enumerate() {
        match &served.disposition {
            Disposition::Failed(RequestError::FaultedTile { node, tile, cycle, .. }) => {
                assert_eq!((*node, *tile, *cycle), (0, 0, 500), "request {i}");
            }
            other => panic!("request {i}: expected a FaultedTile disposition, got {other:?}"),
        }
    }
    // Only the quarantine is recorded: there was nowhere to fail over.
    let kinds: Vec<ScaleDirection> = outcome.scale_events.iter().map(|e| e.direction).collect();
    assert_eq!(kinds, vec![ScaleDirection::Quarantine]);
}

/// Serving order doesn't leak state: running the tenants twice in
/// opposite orders reproduces identical outputs and stats each time.
#[test]
fn serving_order_does_not_perturb_residents() {
    let (tenants, cfg) = zoo_tenants();
    let fabric: Vec<Resident<'_>> = tenants.iter().map(fabric_resident).collect();
    let image = compose_fabric(&fabric).expect("shared fabric");
    let mut sim = NodeSim::new(cfg, &image, SimMode::Functional, &NoiseModel::noiseless()).unwrap();
    sim.set_engine(default_engine());
    sim.set_residents(tenants.iter().map(resident_of).collect()).unwrap();
    let forward: Vec<_> = tenants.iter().map(|t| serve_one(&mut sim, t)).collect();
    let backward: Vec<_> = tenants.iter().rev().map(|t| serve_one(&mut sim, t)).collect();
    for (t, (fwd, bwd)) in tenants.iter().zip(forward.iter().zip(backward.iter().rev())) {
        assert_eq!(fwd, bwd, "'{}' must be order-insensitive", t.name);
    }
}
