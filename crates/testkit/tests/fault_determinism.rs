//! Fault-injection determinism suite: the [`puma_core::config::FaultPlan`]
//! contract has two halves, and both are differential.
//!
//! **Inertness** — an *empty* plan (any seed, any delay constant, but no
//! active fault) must be bit-identical to a plan-absent config: same
//! outputs, same [`puma_sim::RunStats`], on every engine and on every
//! host (standalone node, sharded cluster, pipelined serving).
//!
//! **Replay** — a fixed `(FaultPlan, seed)` with active faults is a
//! pure function of the virtual schedule: bit-exact across the three
//! engines, across serving worker counts, and across host-thread
//! counts. Fault realizations are *injected* nondeterminism, never
//! *host* nondeterminism.
//!
//! The suite honours `PUMA_ENGINE`, so CI's two-engine matrix pins
//! both halves under the reference and compiled engines.

use puma::runtime::{Disposition, ServeRunner};
use puma_compiler::{CompilerOptions, Partitioning};
use puma_core::config::{FaultPlan, NodeConfig};
use puma_core::timing::TrafficPattern;
use puma_sim::{SimEngine, SimMode};
use puma_testkit::harness::{
    default_engine, run_sharded, run_with_engine, seeded_values, small_node_config,
};
use puma_testkit::modelgen;
use puma_xbar::NoiseModel;

const ENGINES: [SimEngine; 2] = [SimEngine::Reference, SimEngine::Compiled];

/// An empty plan that is *not* the default value: nonzero seed and a
/// custom delay constant, but no active fault. Must be indistinguishable
/// from a plan-absent config.
fn empty_but_nondefault_plan() -> FaultPlan {
    FaultPlan { seed: 0xDEAD_BEEF, packet_delay_cycles: 7, ..FaultPlan::none() }
}

fn with_faults(cfg: &NodeConfig, faults: FaultPlan) -> NodeConfig {
    NodeConfig { faults, ..*cfg }
}

/// Standalone node: an empty fault plan is bit-identical to a
/// plan-absent config — outputs *and* `RunStats` — on both engines.
#[test]
fn empty_plan_matches_plan_absent_on_every_engine() {
    let case = &modelgen::simulable_zoo_cases(7)[0];
    let cfg = small_node_config(8);
    let faulty_cfg = with_faults(&cfg, empty_but_nondefault_plan());
    assert!(faulty_cfg.faults.is_empty());
    for engine in ENGINES {
        let options = CompilerOptions::default();
        let absent =
            run_with_engine(&case.model, &cfg, &options, &case.inputs, SimMode::Functional, engine)
                .expect("plan-absent run");
        let empty = run_with_engine(
            &case.model,
            &faulty_cfg,
            &options,
            &case.inputs,
            SimMode::Functional,
            engine,
        )
        .expect("empty-plan run");
        assert_eq!(absent.0, empty.0, "{engine:?}: outputs must be bit-identical");
        assert_eq!(absent.1, empty.1, "{engine:?}: RunStats must be bit-identical");
    }
}

/// Sharded cluster: the empty plan stays inert across the internode
/// interconnect (the packet-fault arm must not perturb anything).
#[test]
fn empty_plan_matches_plan_absent_on_cluster() {
    let case = &modelgen::simulable_zoo_cases(11)[0];
    let cfg = small_node_config(8);
    let options = CompilerOptions::default();
    let engine = default_engine();
    let absent =
        run_sharded(&case.model, &cfg, &options, &case.inputs, 2, SimMode::Functional, engine)
            .expect("plan-absent sharded run");
    let empty = run_sharded(
        &case.model,
        &with_faults(&cfg, empty_but_nondefault_plan()),
        &options,
        &case.inputs,
        2,
        SimMode::Functional,
        engine,
    )
    .expect("empty-plan sharded run");
    assert_eq!(absent.0, empty.0, "sharded outputs must be bit-identical");
    assert_eq!(absent.1, empty.1, "sharded RunStats must be bit-identical");
}

/// Pipelined serving: the empty plan leaves the whole served stream —
/// dispositions, outputs, latencies, aggregate stats — bit-identical.
#[test]
fn empty_plan_matches_plan_absent_on_pipeline_serving() {
    let case = &modelgen::simulable_zoo_cases(41)[0];
    let cfg = small_node_config(8);
    let options = CompilerOptions {
        partitioning: Partitioning::Sharded { nodes: 2 },
        ..CompilerOptions::default()
    };
    let requests: Vec<puma::runtime::BatchRequest> = (0..4)
        .map(|r| {
            puma::runtime::BatchRequest::new(
                case.inputs
                    .iter()
                    .enumerate()
                    .map(|(i, (name, values))| {
                        (name.clone(), seeded_values(values.len(), 900 + 13 * r + i as u64))
                    })
                    .collect(),
            )
        })
        .collect();
    let serve = |cfg: &NodeConfig| {
        let runner = ServeRunner::new(
            &case.model,
            cfg,
            &options,
            SimMode::Functional,
            &NoiseModel::noiseless(),
        )
        .expect("pipelined runner")
        .with_engine(default_engine())
        .with_pipeline(true);
        runner.serve_pattern(&requests, &TrafficPattern::Uniform { interval: 2000 }).expect("serve")
    };
    let absent = serve(&cfg);
    let empty = serve(&with_faults(&cfg, empty_but_nondefault_plan()));
    assert_eq!(absent.latency, empty.latency);
    assert_eq!(absent.stats, empty.stats);
    assert_eq!(absent.shed, empty.shed);
    assert_eq!(absent.timed_out, empty.timed_out);
    assert_eq!(absent.makespan_cycles, empty.makespan_cycles);
    for (i, (a, b)) in absent.results.iter().zip(empty.results.iter()).enumerate() {
        match (&a.disposition, &b.disposition) {
            (
                Disposition::Completed { result: ra, start: sa, finish: fa },
                Disposition::Completed { result: rb, start: sb, finish: fb },
            ) => {
                assert_eq!(ra.outputs, rb.outputs, "request {i} outputs diverged");
                assert_eq!((sa, fa), (sb, fb), "request {i} schedule diverged");
            }
            (a, b) => panic!("request {i}: expected completions, got {a:?} vs {b:?}"),
        }
    }
}

/// Crossbar cell faults (stuck cells + dead columns) replay bit-exactly
/// across both engines: outputs *and* `RunStats` (including the
/// fault counters) agree, and a different seed yields an independent
/// realization.
#[test]
fn cell_faults_replay_bit_exactly_across_engines() {
    let case = &modelgen::simulable_zoo_cases(13)[0];
    let cfg = small_node_config(8);
    let faulty = with_faults(
        &cfg,
        FaultPlan { stuck_cell_rate: 0.10, dead_column_rate: 0.05, seed: 9, ..FaultPlan::none() },
    );
    let options = CompilerOptions::default();
    let runs: Vec<_> = ENGINES
        .iter()
        .map(|&engine| {
            run_with_engine(
                &case.model,
                &faulty,
                &options,
                &case.inputs,
                SimMode::Functional,
                engine,
            )
            .expect("faulty run")
        })
        .collect();
    assert!(runs[0].1.faulted_mvm_activations > 0, "cell faults must actually fire");
    for (run, engine) in runs.iter().zip(ENGINES).skip(1) {
        assert_eq!(runs[0].0, run.0, "{engine:?}: faulty outputs must replay bit-exactly");
        assert_eq!(runs[0].1, run.1, "{engine:?}: faulty RunStats must replay bit-exactly");
    }
    // A different seed is an independent realization of the same rates.
    let reseeded = run_with_engine(
        &case.model,
        &with_faults(&cfg, FaultPlan { seed: 10, ..faulty.faults }),
        &options,
        &case.inputs,
        SimMode::Functional,
        default_engine(),
    )
    .expect("reseeded run");
    assert_ne!(runs[0].0, reseeded.0, "a new seed must draw a new fault realization");
}

/// A faulty serve is a pure function of the virtual schedule: worker
/// count and host-thread count change nothing but wall time.
#[test]
fn faulty_serve_replays_across_worker_and_thread_counts() {
    let case = &modelgen::simulable_zoo_cases(19)[0];
    let cfg = with_faults(
        &small_node_config(8),
        FaultPlan { stuck_cell_rate: 0.08, dead_column_rate: 0.04, seed: 21, ..FaultPlan::none() },
    );
    let requests: Vec<puma::runtime::BatchRequest> = (0..5)
        .map(|r| {
            puma::runtime::BatchRequest::new(
                case.inputs
                    .iter()
                    .enumerate()
                    .map(|(i, (name, values))| {
                        (name.clone(), seeded_values(values.len(), 4400 + 17 * r + i as u64))
                    })
                    .collect(),
            )
        })
        .collect();
    let pattern = TrafficPattern::Uniform { interval: 1500 };
    let outcomes: Vec<_> = [(1usize, 1usize), (2, 3), (5, 2)]
        .iter()
        .map(|&(workers, threads)| {
            ServeRunner::functional(&case.model, &cfg)
                .expect("serve runner")
                .with_engine(default_engine())
                .with_workers(workers)
                .with_host_threads(threads)
                .serve_pattern(&requests, &pattern)
                .expect("faulty serve")
        })
        .collect();
    assert!(outcomes[0].stats.faulted_mvm_activations > 0, "cell faults must actually fire");
    for outcome in &outcomes[1..] {
        assert_eq!(outcomes[0].stats, outcome.stats, "stats must not depend on host parallelism");
        for (i, (a, b)) in outcomes[0].results.iter().zip(outcome.results.iter()).enumerate() {
            match (&a.disposition, &b.disposition) {
                (
                    Disposition::Completed { result: ra, .. },
                    Disposition::Completed { result: rb, .. },
                ) => {
                    assert_eq!(ra.outputs, rb.outputs, "request {i} outputs diverged");
                    assert_eq!(ra.stats, rb.stats, "request {i} stats diverged");
                }
                (a, b) => panic!("request {i}: expected completions, got {a:?} vs {b:?}"),
            }
        }
    }
}

/// Interconnect delay faults on a sharded cluster replay bit-exactly and
/// never corrupt data: outputs match the fault-free run, only timing
/// (and the delay counter) moves.
#[test]
fn packet_delay_faults_replay_and_preserve_outputs() {
    let case = &modelgen::simulable_zoo_cases(23)[0];
    let cfg = small_node_config(8);
    let options = CompilerOptions::default();
    let engine = default_engine();
    let clean =
        run_sharded(&case.model, &cfg, &options, &case.inputs, 2, SimMode::Functional, engine)
            .expect("clean sharded run");
    let delayed_cfg = with_faults(
        &cfg,
        FaultPlan { packet_delay_rate: 1.0, packet_delay_cycles: 64, seed: 5, ..FaultPlan::none() },
    );
    let a = run_sharded(
        &case.model,
        &delayed_cfg,
        &options,
        &case.inputs,
        2,
        SimMode::Functional,
        engine,
    )
    .expect("delayed sharded run");
    let b = run_sharded(
        &case.model,
        &delayed_cfg,
        &options,
        &case.inputs,
        2,
        SimMode::Functional,
        engine,
    )
    .expect("delayed sharded replay");
    assert_eq!(a.0, b.0, "delayed runs must replay bit-exactly");
    assert_eq!(a.1, b.1, "delayed RunStats must replay bit-exactly");
    assert!(a.1.packets_delayed > 0, "delay faults must actually fire");
    assert_eq!(a.0, clean.0, "delays reorder time, never data");
    assert!(a.1.cycles >= clean.1.cycles, "a delayed packet cannot make the run faster");
}
