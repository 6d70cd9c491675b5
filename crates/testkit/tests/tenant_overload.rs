//! Admission-gated tenant serving under overload: two tiny tenants
//! served at about four times one replica's rate, with a bounded queue
//! and scale-up, so requests are shed and replicas come and go. The
//! schedule gates which requests get simulated, and host threads only
//! change how many simulations run at once — so the whole
//! [`TenantOutcome`] must be identical for every host-thread count and
//! for a Reference-engine serve, and on one host thread exactly the
//! requests that were neither shed nor malformed are simulated.
//!
//! The suite honours `PUMA_ENGINE` for the served legs; the Reference
//! leg is pinned.

use puma::runtime::{
    BatchRequest, Disposition, FabricSpec, ModelCatalog, RetryPolicy, ScaleDirection, ScalePolicy,
    TenantOutcome, TenantServer, TenantStream,
};
use puma_compiler::CompilerOptions;
use puma_core::config::{FaultPlan, NodeConfig, TileDeath};
use puma_core::tensor::Matrix;
use puma_core::timing::TrafficPattern;
use puma_sim::SimEngine;
use puma_testkit::harness::default_engine;

/// Requests per tenant stream.
const REQUESTS: usize = 48;

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

/// Two one-tile tenants on a 6-tile node: room for each to scale to two
/// replicas and for one failover. Queue depth 2; a second replica is
/// added once two requests wait.
fn server(cfg: &NodeConfig, engine: SimEngine, threads: usize, retry: RetryPolicy) -> TenantServer {
    let mut catalog = ModelCatalog::new();
    for (name, scale) in [("left", 1.0), ("right", -2.0)] {
        catalog
            .register_model(name, &tiny_model(name, scale), cfg, &CompilerOptions::default())
            .expect("tiny model registers");
    }
    let mut server = TenantServer::functional(catalog, FabricSpec::new(1, 6), cfg)
        .expect("server")
        .with_engine(engine)
        .with_host_threads(threads)
        .with_queue_depth(Some(2))
        .with_policy(ScalePolicy::new(2, 2))
        .with_retry_policy(retry);
    server.deploy("left").expect("left deploys");
    server.deploy("right").expect("right deploys");
    server
}

/// Both tenants at about 4× one replica's service rate (Poisson, so
/// bursts and lulls both occur). Every 16th request has a misshapen
/// input and is rejected at submission.
fn streams(service_cycles: u64) -> Vec<TenantStream> {
    let requests: Vec<BatchRequest> = (0..REQUESTS)
        .map(|i| {
            let width = if i % 16 == 5 { 15 } else { 16 };
            BatchRequest::new(vec![("x".to_string(), vec![0.03 * (i % 11) as f32 - 0.1; width])])
        })
        .collect();
    let mean = service_cycles as f64 / 4.0;
    vec![
        TenantStream::new(
            "left",
            requests.clone(),
            TrafficPattern::Poisson { mean_interarrival: mean, seed: 3 },
        ),
        TenantStream::new(
            "right",
            requests,
            TrafficPattern::Poisson { mean_interarrival: mean, seed: 4 },
        ),
    ]
}

/// One request's service cycles on an idle fabric.
fn service_cycles(cfg: &NodeConfig) -> u64 {
    let probe = server(cfg, default_engine(), 1, RetryPolicy::default());
    let one = vec![BatchRequest::new(vec![("x".to_string(), vec![0.1; 16])])];
    let outcome =
        probe.serve(&[TenantStream::new("left", one, TrafficPattern::Batch)]).expect("probe");
    outcome.models[0].stats.cycles
}

/// Asserts two outcomes are identical in everything but host-side
/// measurements (`host_threads`, `simulated`, `wall_seconds`).
fn assert_same(a: &TenantOutcome, b: &TenantOutcome, leg: &str) {
    assert_eq!(a.scale_events, b.scale_events, "{leg}: scale events");
    assert_eq!(a.makespan_cycles, b.makespan_cycles, "{leg}: makespan");
    assert_eq!(a.models.len(), b.models.len(), "{leg}: models");
    for (ma, mb) in a.models.iter().zip(&b.models) {
        let m = &ma.model;
        assert_eq!(ma.model, mb.model, "{leg}: model order");
        assert_eq!(ma.stats, mb.stats, "{leg}/{m}: stats");
        assert_eq!(ma.latency, mb.latency, "{leg}/{m}: latency");
        assert_eq!(ma.shed, mb.shed, "{leg}/{m}: shed");
        assert_eq!(ma.retried, mb.retried, "{leg}/{m}: retried");
        assert_eq!(ma.failed, mb.failed, "{leg}/{m}: failed");
        assert_eq!(ma.peak_replicas, mb.peak_replicas, "{leg}/{m}: peak replicas");
        assert_eq!(ma.results.len(), mb.results.len(), "{leg}/{m}: results");
        for (i, (ra, rb)) in ma.results.iter().zip(&mb.results).enumerate() {
            assert_eq!(ra.arrival, rb.arrival, "{leg}/{m} request {i}: arrival");
            match (&ra.disposition, &rb.disposition) {
                (
                    Disposition::Completed { result: xa, start: sa, finish: fa },
                    Disposition::Completed { result: xb, start: sb, finish: fb },
                ) => {
                    assert_eq!((sa, fa), (sb, fb), "{leg}/{m} request {i}: window");
                    assert_eq!(xa.outputs, xb.outputs, "{leg}/{m} request {i}: outputs");
                    assert_eq!(xa.stats, xb.stats, "{leg}/{m} request {i}: stats");
                }
                (Disposition::Shed, Disposition::Shed) => {}
                (Disposition::Failed(ea), Disposition::Failed(eb)) => {
                    assert_eq!(ea, eb, "{leg}/{m} request {i}: failure");
                }
                (da, db) => panic!("{leg}/{m} request {i}: {da:?} vs {db:?}"),
            }
        }
    }
}

/// Serves the overload at 1, 2 and 4 host threads on the default engine
/// and at 2 on the Reference engine, checks every leg against the
/// single-threaded one, and checks the single-threaded simulation count.
fn serve_everywhere(cfg: &NodeConfig, retry: RetryPolicy) -> TenantOutcome {
    let streams = streams(service_cycles(&NodeConfig::default()));
    let serve = |engine, threads| {
        server(cfg, engine, threads, retry).serve(&streams).expect("overloaded serve")
    };
    let single = serve(default_engine(), 1);
    for threads in [2, 4] {
        assert_same(&single, &serve(default_engine(), threads), &format!("{threads} threads"));
    }
    assert_same(&single, &serve(SimEngine::Reference, 2), "reference engine");

    let attempted: usize = single.models.iter().map(|m| m.results.len()).sum();
    let shed: usize = single.models.iter().map(|m| m.shed).sum();
    let mut malformed = 0;
    for m in &single.models {
        for (i, r) in m.results.iter().enumerate().filter(|&(i, _)| i % 16 == 5) {
            assert!(matches!(r.disposition, Disposition::Failed(_)), "{} request {i}", m.model);
            malformed += 1;
        }
    }
    assert_eq!(
        single.simulated,
        attempted - shed - malformed,
        "one host thread simulates exactly the requests neither shed nor malformed"
    );
    single
}

#[test]
fn tenant_overload_outcome_is_independent_of_host_threads() {
    let outcome = serve_everywhere(&NodeConfig::default(), RetryPolicy::default());
    assert!(outcome.models.iter().all(|m| m.shed > 0), "every tenant sheds under overload");
    assert!(
        outcome.scale_events.iter().any(|e| e.direction == ScaleDirection::Up),
        "the overload scales a tenant up"
    );
    assert!(
        outcome.scale_events.iter().any(|e| e.direction == ScaleDirection::Down),
        "a drained replica is released"
    );
}

/// The same overload with `left`'s deployed tile dying mid-serve: the
/// aborted request retries and later requests start on the failover
/// replica, so lazy retry and failover starts are exercised too.
#[test]
fn tenant_overload_with_tile_death_is_independent_of_host_threads() {
    let cfg = NodeConfig {
        faults: FaultPlan {
            tile_death: Some(TileDeath {
                node: 0,
                tile: 0,
                at_cycle: 6 * service_cycles(&NodeConfig::default()) + 1,
            }),
            ..FaultPlan::none()
        },
        ..NodeConfig::default()
    };
    let outcome = serve_everywhere(&cfg, RetryPolicy::new(3, 100));
    let kinds: Vec<ScaleDirection> = outcome.scale_events.iter().map(|e| e.direction).collect();
    assert!(kinds.contains(&ScaleDirection::Quarantine), "the death quarantines a replica");
    assert!(kinds.contains(&ScaleDirection::Failover), "a failover replica is placed");
    let left = outcome.model("left").expect("left outcome");
    assert!(left.retried > 0, "the aborted request retries and completes");
    assert!(left.shed > 0);
}
