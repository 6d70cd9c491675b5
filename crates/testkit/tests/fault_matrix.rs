//! Fault-matrix smoke suite: every fault kind of
//! [`puma_core::config::FaultPlan`] fires at least once and surfaces
//! through its designed channel — degraded-but-completed runs with
//! fault counters for crossbar cell faults, typed
//! [`PumaError::FaultedTile`] / [`PumaError::Deadlock`] diagnoses for
//! tile death and packet loss, and watchdog-aborted dispositions on the
//! serving path.
//!
//! Each test is keyed to one fault kind and skips itself when
//! `PUMA_FAULTS` (comma-separated subset of
//! `stuck,dead_column,tile_death,packet`) excludes that kind, so CI can
//! shard the matrix; an unset `PUMA_FAULTS` runs everything. The suite
//! honours `PUMA_ENGINE` like every differential suite.

use puma::runtime::{Disposition, RequestError, ServeRunner};
use puma_compiler::{compile, CompilerOptions, Partitioning};
use puma_core::config::{FaultPlan, NodeConfig, TileDeath};
use puma_core::error::PumaError;
use puma_core::timing::TrafficPattern;
use puma_sim::SimMode;
use puma_testkit::harness::{
    default_engine, fault_kind_enabled, run_sharded, run_with_engine, small_node_config,
};
use puma_testkit::modelgen;
use puma_xbar::NoiseModel;

fn with_faults(cfg: &NodeConfig, faults: FaultPlan) -> NodeConfig {
    NodeConfig { faults, ..*cfg }
}

/// Runs one zoo case clean and with `faults`, returning both outcomes.
#[allow(clippy::type_complexity)]
fn clean_and_faulty(
    case_seed: u64,
    faults: FaultPlan,
) -> (
    (std::collections::HashMap<String, Vec<f32>>, puma_sim::RunStats),
    (std::collections::HashMap<String, Vec<f32>>, puma_sim::RunStats),
) {
    let case = &modelgen::simulable_zoo_cases(case_seed)[0];
    let cfg = small_node_config(8);
    let options = CompilerOptions::default();
    let clean = run_with_engine(
        &case.model,
        &cfg,
        &options,
        &case.inputs,
        SimMode::Functional,
        default_engine(),
    )
    .expect("clean run");
    let faulty = run_with_engine(
        &case.model,
        &with_faults(&cfg, faults),
        &options,
        &case.inputs,
        SimMode::Functional,
        default_engine(),
    )
    .expect("faulty run");
    (clean, faulty)
}

/// Stuck-at crossbar cells: the run completes (graceful degradation),
/// the fault counter fires, and the outputs move off the clean run.
#[test]
fn stuck_cells_degrade_outputs_without_aborting() {
    if !fault_kind_enabled("stuck") {
        return;
    }
    let faults = FaultPlan { stuck_cell_rate: 0.15, seed: 3, ..FaultPlan::none() };
    let (clean, faulty) = clean_and_faulty(31, faults);
    assert!(faulty.1.faulted_mvm_activations > 0, "stuck cells must route MVMs to the faulty path");
    assert_eq!(clean.1.faulted_mvm_activations, 0);
    assert_ne!(clean.0, faulty.0, "a 15% stuck-cell rate must perturb the outputs");
    assert_eq!(
        clean.1.mvmu_activations, faulty.1.mvmu_activations,
        "cell faults perturb values, never the schedule"
    );
}

/// Dead crossbar columns: same contract as stuck cells, independent knob.
#[test]
fn dead_columns_degrade_outputs_without_aborting() {
    if !fault_kind_enabled("dead_column") {
        return;
    }
    let faults = FaultPlan { dead_column_rate: 0.25, seed: 4, ..FaultPlan::none() };
    let (clean, faulty) = clean_and_faulty(37, faults);
    assert!(
        faulty.1.faulted_mvm_activations > 0,
        "dead columns must route MVMs to the faulty path"
    );
    assert_ne!(clean.0, faulty.0, "a 25% dead-column rate must perturb the outputs");
    assert_eq!(clean.1.mvmu_activations, faulty.1.mvmu_activations);
}

/// Hard tile death mid-run: the run aborts with the typed
/// [`PumaError::FaultedTile`] naming the dead tile and death cycle —
/// identically on both engines (the death is keyed to
/// engine-invariant instruction-start timestamps).
#[test]
fn tile_death_surfaces_as_typed_fault_on_every_engine() {
    if !fault_kind_enabled("tile_death") {
        return;
    }
    let case = &modelgen::simulable_zoo_cases(41)[0];
    let cfg = small_node_config(8);
    let options = CompilerOptions::default();
    let compiled = compile(&case.model, &cfg, &options).expect("compiles");
    assert!(compiled.stats.tiles_used >= 2, "the death diagnosis needs a blocked co-tile");
    let dead = TileDeath { node: 0, tile: 0, at_cycle: 100 };
    let faulty = with_faults(&cfg, FaultPlan { tile_death: Some(dead), ..FaultPlan::none() });
    for engine in [puma_sim::SimEngine::Reference, puma_sim::SimEngine::Compiled] {
        let err = run_with_engine(
            &case.model,
            &faulty,
            &options,
            &case.inputs,
            SimMode::Functional,
            engine,
        )
        .expect_err("a dead tile must abort the run");
        match err {
            PumaError::FaultedTile { node, tile, cycle, what } => {
                assert_eq!((node, tile, cycle), (0, 0, 100), "{engine:?}");
                assert!(!what.is_empty(), "{engine:?}: diagnosis must name the blocked agents");
            }
            other => panic!("{engine:?}: expected FaultedTile, got {other}"),
        }
    }
}

/// The serving path turns the same death into per-request typed
/// [`RequestError::FaultedTile`] dispositions instead of failing the
/// whole serve call.
#[test]
fn tile_death_fails_served_requests_with_typed_dispositions() {
    if !fault_kind_enabled("tile_death") {
        return;
    }
    let case = &modelgen::simulable_zoo_cases(41)[0];
    let cfg = with_faults(
        &small_node_config(8),
        FaultPlan {
            tile_death: Some(TileDeath { node: 0, tile: 0, at_cycle: 100 }),
            ..FaultPlan::none()
        },
    );
    let requests: Vec<puma::runtime::BatchRequest> =
        (0..3).map(|_| puma::runtime::BatchRequest::new(case.inputs.clone())).collect();
    let runner = ServeRunner::functional(&case.model, &cfg)
        .expect("serve runner")
        .with_engine(default_engine())
        .with_workers(2);
    let outcome = runner.serve_pattern(&requests, &TrafficPattern::Batch).expect("serve succeeds");
    assert_eq!(outcome.completed(), 0);
    for (i, served) in outcome.results.iter().enumerate() {
        match &served.disposition {
            Disposition::Failed(RequestError::FaultedTile { node, tile, .. }) => {
                assert_eq!((*node, *tile), (0, 0), "request {i}");
            }
            other => panic!("request {i}: expected a FaultedTile disposition, got {other:?}"),
        }
    }
}

/// Total packet loss on the shard boundary starves the receiving node:
/// the run aborts with the typed deadlock diagnosis (there is no tile
/// death to blame), never hangs.
#[test]
fn packet_loss_starves_the_cluster_into_typed_deadlock() {
    if !fault_kind_enabled("packet") {
        return;
    }
    let case = &modelgen::simulable_zoo_cases(41)[0];
    let cfg = with_faults(
        &small_node_config(8),
        FaultPlan { packet_loss_rate: 1.0, seed: 6, ..FaultPlan::none() },
    );
    let err = run_sharded(
        &case.model,
        &cfg,
        &CompilerOptions::default(),
        &case.inputs,
        2,
        SimMode::Functional,
        default_engine(),
    )
    .expect_err("total packet loss must starve the receiver");
    assert!(
        matches!(err, PumaError::Deadlock { .. }),
        "expected a typed deadlock diagnosis, got {err}"
    );
}

/// Duplicated packets are deterministic: two runs of the same seed agree
/// bit-exactly, and the duplicate counter fires.
#[test]
fn packet_duplicates_replay_deterministically() {
    if !fault_kind_enabled("packet") {
        return;
    }
    let case = &modelgen::simulable_zoo_cases(41)[0];
    let cfg = with_faults(
        &small_node_config(8),
        FaultPlan { packet_duplicate_rate: 1.0, seed: 8, ..FaultPlan::none() },
    );
    let options = CompilerOptions::default();
    let run = || {
        run_sharded(
            &case.model,
            &cfg,
            &options,
            &case.inputs,
            2,
            SimMode::Functional,
            default_engine(),
        )
    };
    let (a, b) = (run(), run());
    match (a, b) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a, b, "duplicated-packet runs must replay bit-exactly");
            assert!(a.1.packets_duplicated > 0, "duplicate faults must actually fire");
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "duplicated-packet faults must replay bit-exactly"),
        (a, b) => panic!("duplicate faults must be deterministic: {a:?} vs {b:?}"),
    }
}

/// A tile death inside a pipelined serve: with the watchdog armed the
/// serve call succeeds and the affected requests carry typed
/// [`RequestError::FaultedTile`] dispositions; without it the stalled
/// pipeline fails the serve with the same typed fault.
#[test]
fn pipelined_tile_death_is_survivable_with_a_watchdog() {
    if !fault_kind_enabled("tile_death") {
        return;
    }
    let case = &modelgen::simulable_zoo_cases(41)[0];
    let cfg = with_faults(
        &small_node_config(8),
        FaultPlan {
            tile_death: Some(TileDeath { node: 0, tile: 0, at_cycle: 100 }),
            ..FaultPlan::none()
        },
    );
    let options = CompilerOptions {
        partitioning: Partitioning::Sharded { nodes: 2 },
        ..CompilerOptions::default()
    };
    let requests: Vec<puma::runtime::BatchRequest> =
        (0..3).map(|_| puma::runtime::BatchRequest::new(case.inputs.clone())).collect();
    let runner = || {
        ServeRunner::new(&case.model, &cfg, &options, SimMode::Functional, &NoiseModel::noiseless())
            .expect("pipelined runner")
            .with_engine(default_engine())
            .with_pipeline(true)
    };
    // Watchdog armed: the serve survives; every aborted request names
    // the dead tile.
    let outcome = runner()
        .with_deadline(Some(1_000_000))
        .serve_pattern(&requests, &TrafficPattern::Batch)
        .expect("watchdog keeps the serve alive");
    assert_eq!(outcome.completed(), 0);
    assert_eq!(outcome.timed_out, requests.len());
    for (i, served) in outcome.results.iter().enumerate() {
        match &served.disposition {
            Disposition::Failed(RequestError::FaultedTile { node, tile, .. }) => {
                assert_eq!((*node, *tile), (0, 0), "request {i}");
            }
            other => panic!("request {i}: expected a FaultedTile disposition, got {other:?}"),
        }
    }
    // No watchdog: the stalled pipeline fails the serve with the same
    // typed diagnosis instead of hanging.
    let err = runner()
        .serve_pattern(&requests, &TrafficPattern::Batch)
        .expect_err("an unwatched stalled pipeline must fail typed");
    assert!(matches!(err, PumaError::FaultedTile { .. }), "got {err}");
}
