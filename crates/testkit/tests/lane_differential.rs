//! Lane differential suite: replicated functional serving runs up to
//! four requests per simulator pass, one per data lane, sharing control,
//! timing and energy. Serving must stay invisible: every request's
//! outputs, `RunStats` and disposition are bit-identical to running it
//! alone — a solo `NodeSim` run on the same engine and on
//! `SimEngine::Reference` — and to the Reference-engine serve, which runs
//! one request per pass. Request counts leave partial passes of one to
//! three lanes, malformed requests are mixed in, and the serve runs at
//! 1, 2 and 4 host threads.
//!
//! The second half pins the lane certificate: hand-built images whose
//! control reads lane data are rejected, and still serve exactly as solo
//! runs; a counter loop is accepted and served in lanes.

use proptest::prelude::*;
use puma::runtime::{BatchRequest, Disposition, RequestError, ServeOutcome, ServeRunner};
use puma_compiler::{compile, fit_config, CompileStats, CompiledModel, CompilerOptions, LogicalIo};
use puma_core::config::{FaultPlan, NodeConfig, NonIdealityConfig, TileDeath};
use puma_core::error::Result;
use puma_core::ids::{CoreId, TileId};
use puma_core::timing::TrafficPattern;
use puma_isa::{asm, IoBinding, MachineImage, Program};
use puma_nn::cnn::build_cnn;
use puma_sim::{NodeSim, RunStats, SimEngine, SimMode};
use puma_testkit::harness::{
    read_model_outputs, seeded_values, small_node_config, write_model_inputs,
};
use puma_testkit::modelgen;
use puma_xbar::NoiseModel;
use std::collections::HashMap;

/// The engines that serve in lanes (the Reference engine never does).
const LANE_ENGINES: [SimEngine; 1] = [SimEngine::Compiled];

/// One request run alone on a fresh simulator.
type Solo = Result<(HashMap<String, Vec<f32>>, RunStats)>;

fn solo(
    compiled: &CompiledModel,
    cfg: &NodeConfig,
    engine: SimEngine,
    inputs: &[(String, Vec<f32>)],
) -> Solo {
    let cfg = fit_config(cfg, compiled);
    let mut sim =
        NodeSim::new(cfg, &compiled.image, SimMode::Functional, &NoiseModel::noiseless())?;
    sim.set_engine(engine);
    write_model_inputs(compiled, inputs, &mut |name, values| sim.write_input(name, values))?;
    sim.run()?;
    let outputs = read_model_outputs(compiled, &|name| sim.read_output(name))?;
    Ok((outputs, sim.stats().clone()))
}

fn runner(compiled: &CompiledModel, cfg: &NodeConfig, engine: SimEngine) -> ServeRunner {
    ServeRunner::from_compiled(compiled.clone(), cfg, SimMode::Functional, &NoiseModel::noiseless())
        .expect("the image builds")
        .with_engine(engine)
        .with_workers(2)
}

fn serve(
    compiled: &CompiledModel,
    cfg: &NodeConfig,
    engine: SimEngine,
    threads: usize,
    requests: &[BatchRequest],
) -> ServeOutcome {
    runner(compiled, cfg, engine)
        .with_host_threads(threads)
        .serve_pattern(requests, &TrafficPattern::Batch)
        .expect("the serve runs")
}

/// Whether the image passes the lane certificate.
fn certified(compiled: &CompiledModel, cfg: &NodeConfig) -> bool {
    let cfg = fit_config(cfg, compiled);
    NodeSim::new(cfg, &compiled.image, SimMode::Functional, &NoiseModel::noiseless())
        .expect("the image builds")
        .lane_certified()
}

/// Asserts one served disposition equals what a solo run gave. Across
/// engines only the error's kind must agree: a deadlock diagnosis names
/// when each agent parked, which the engines legitimately report
/// differently.
fn assert_matches_solo(what: &str, served: &Disposition, solo: &Solo, same_engine: bool) {
    match (served, solo) {
        (Disposition::Completed { result, .. }, Ok((outputs, stats))) => {
            assert_eq!(&result.outputs, outputs, "{what}: outputs differ from the solo run");
            assert_eq!(&result.stats, stats, "{what}: RunStats differ from the solo run");
        }
        (Disposition::Failed(err), Err(solo_err)) => {
            let want = RequestError::from(solo_err.clone());
            if same_engine {
                assert_eq!(err, &want, "{what}: errors differ");
            } else {
                let kind = std::mem::discriminant::<RequestError>;
                assert_eq!(kind(err), kind(&want), "{what}: {err} vs {want}");
            }
        }
        (served, solo) => panic!("{what}: served {served:?}, solo run gave {solo:?}"),
    }
}

/// Serves `requests` on every lane engine at 1, 2 and 4 host threads and
/// checks each request against its solo runs (same engine, Reference)
/// and the whole outcome against the Reference-engine serve.
fn assert_lanes_match_solo(compiled: &CompiledModel, cfg: &NodeConfig, requests: &[BatchRequest]) {
    let reference = serve(compiled, cfg, SimEngine::Reference, 2, requests);
    let solo_reference: Vec<Solo> =
        requests.iter().map(|r| solo(compiled, cfg, SimEngine::Reference, &r.inputs)).collect();
    for (i, (served, want)) in reference.results.iter().zip(&solo_reference).enumerate() {
        let what = format!("Reference serve, request {i}");
        assert_matches_solo(&what, &served.disposition, want, true);
    }
    for engine in LANE_ENGINES {
        // A certified image's replicas carry extra lanes; others one.
        let lanes = runner(compiled, cfg, engine).replica_bytes()
            > runner(compiled, cfg, SimEngine::Reference).replica_bytes();
        assert_eq!(lanes, certified(compiled, cfg), "{engine:?}: lanes follow the certificate");
        let solo_same: Vec<Solo> =
            requests.iter().map(|r| solo(compiled, cfg, engine, &r.inputs)).collect();
        for threads in [1, 2, 4] {
            let served = serve(compiled, cfg, engine, threads, requests);
            for (i, r) in served.results.iter().enumerate() {
                let what = format!("{engine:?} at {threads} threads, request {i}");
                assert_matches_solo(&what, &r.disposition, &solo_same[i], true);
                assert_matches_solo(&what, &r.disposition, &solo_reference[i], false);
                let window = |d: &Disposition| match d {
                    Disposition::Completed { start, finish, .. } => Some((*start, *finish)),
                    _ => None,
                };
                let want = &reference.results[i].disposition;
                assert_eq!(window(&r.disposition), window(want), "{what}: schedule differs");
            }
            assert_eq!(served.stats, reference.stats, "{engine:?}: aggregate stats differ");
            assert_eq!(served.latency, reference.latency, "{engine:?}: latencies differ");
        }
    }
}

/// `n` requests with seeded inputs shaped like `inputs`; every third one
/// is malformed (a missing input, or one of the wrong width).
fn requests(inputs: &[(String, Vec<f32>)], n: usize, seed: u64) -> Vec<BatchRequest> {
    (0..n)
        .map(|r| {
            let mut values: Vec<(String, Vec<f32>)> = inputs
                .iter()
                .enumerate()
                .map(|(i, (name, v))| {
                    (name.clone(), seeded_values(v.len(), seed ^ (97 * r + i) as u64))
                })
                .collect();
            match r % 6 {
                2 => values.clear(),
                5 => values[0].1.push(0.5),
                _ => {}
            }
            BatchRequest::new(values)
        })
        .collect()
}

/// One of five fidelity settings: ideal, read noise with drift and IR
/// drop, a narrowed ADC, stuck cells with dead columns, a tile death.
fn with_fidelity(cfg: &NodeConfig, kind: usize) -> NodeConfig {
    let mut cfg = *cfg;
    match kind {
        1 => {
            cfg.non_ideality = NonIdealityConfig {
                read_sigma: 0.05,
                drift_nu: 0.02,
                drift_t0_cycles: 10_000,
                ir_drop_alpha: 0.01,
                seed: 2019,
            }
        }
        2 => cfg.tile.core.mvmu.adc_bits_override = Some(12),
        3 => {
            cfg.faults = FaultPlan {
                stuck_cell_rate: 0.1,
                dead_column_rate: 0.1,
                seed: 5,
                ..FaultPlan::none()
            }
        }
        4 => {
            cfg.faults = FaultPlan {
                tile_death: Some(TileDeath { node: 0, tile: 0, at_cycle: 100 }),
                ..FaultPlan::none()
            }
        }
        _ => {}
    }
    cfg
}

/// A logical input or output bound whole, as one chunk.
fn whole(name: &str, width: usize) -> LogicalIo {
    LogicalIo {
        name: name.to_string(),
        chunks: vec![name.to_string()],
        chunk_widths: vec![width],
        width,
    }
}

/// A compiled CNN as a servable model: one input and one output chunk.
fn cnn_model(
    spec: &puma_nn::spec::WorkloadSpec,
    cfg: &NodeConfig,
    seed: u64,
) -> (CompiledModel, usize) {
    let cnn = build_cnn(spec, cfg, true, seed).expect("the CNN generator maps the spec");
    let (c, h, w) = cnn.input_shape;
    let compiled = CompiledModel {
        inputs: vec![whole(&cnn.input_name, c * h * w)],
        outputs: vec![whole(&cnn.output_name, cnn.output_width)],
        tile_nodes: vec![0; cnn.image.tiles.len()],
        stats: CompileStats { tiles_used: cnn.image.tiles.len(), ..CompileStats::default() },
        const_data: Vec::new(),
        image: cnn.image,
    };
    (compiled, c * h * w)
}

/// A one-core, one-tile image running `source`, with word-addressed
/// logical inputs and one output, each bound whole.
fn hand_built(source: &str, inputs: &[(&str, u32, usize)], output: (u32, usize)) -> CompiledModel {
    let mut image = MachineImage::new(1, 1, 0);
    image.core_mut(TileId::new(0), CoreId::new(0)).program =
        Program::from_instructions(asm::assemble(source).expect("the listing assembles"));
    let bind = |name: &str, addr: u32, width: usize| IoBinding {
        name: name.to_string(),
        tile: TileId::new(0),
        addr,
        width,
        count: 1,
    };
    image.inputs = inputs.iter().map(|&(name, addr, width)| bind(name, addr, width)).collect();
    image.outputs = vec![bind("y", output.0, output.1)];
    CompiledModel {
        image,
        const_data: Vec::new(),
        inputs: inputs.iter().map(|&(name, _, width)| whole(name, width)).collect(),
        outputs: vec![whole("y", output.1)],
        tile_nodes: vec![0],
        stats: CompileStats { tiles_used: 1, ..CompileStats::default() },
    }
}

/// A raw-bit integer as the f32 input that converts to it.
fn raw(bits: i16) -> f32 {
    f32::from(bits) / 4096.0
}

/// A request from `(input, values)` pairs.
fn request(inputs: &[(&str, Vec<f32>)]) -> BatchRequest {
    BatchRequest::new(inputs.iter().map(|(n, v)| (n.to_string(), v.clone())).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Fuzzed MLPs and LSTMs through the graph compiler, under every
    /// fidelity setting.
    #[test]
    fn lanes_match_solo_on_graph_models(
        case in modelgen::any_case(),
        n in 1usize..9,
        fidelity in 0usize..5,
        seed in 0u64..1000,
    ) {
        let cfg = with_fidelity(&small_node_config(16), fidelity);
        let compiled = compile(&case.model, &cfg, &CompilerOptions::default()).unwrap();
        prop_assert!(certified(&compiled, &cfg), "graph-compiled images carry no lane-dependent control");
        assert_lanes_match_solo(&compiled, &cfg, &requests(&case.inputs, n, seed));
    }

    /// Fuzzed LeNet-class CNNs: counter loops with branches and indexed
    /// addressing, all on `Set`/`AluInt` counters, so they serve in lanes.
    #[test]
    fn lanes_match_solo_on_cnns(
        spec in modelgen::cnn_spec(),
        n in 1usize..9,
        fidelity in 0usize..5,
        seed in 0u64..500,
    ) {
        let cfg = with_fidelity(&NodeConfig::default(), fidelity);
        let (compiled, width) = cnn_model(&spec, &cfg, seed);
        prop_assert!(certified(&compiled, &cfg), "CNN loops branch on counters only");
        let inputs = vec![(compiled.inputs[0].name.clone(), vec![0.0; width])];
        assert_lanes_match_solo(&compiled, &cfg, &requests(&inputs, n, seed));
    }
}

/// `rand` draws once per word and writes every lane: each lane sees the
/// stream a solo run draws after its reset.
#[test]
fn rand_streams_match_solo_in_every_lane() {
    let compiled = hand_built(
        "load r0 @0 8\nrand r8 r8 8\nadd r16 r0 r8 8\nrand r8 r8 8\nadd r16 r16 r8 8\n\
         store @16 r16 1 8\nhalt\n",
        &[("x", 0, 8)],
        (16, 8),
    );
    let cfg = small_node_config(16);
    assert!(certified(&compiled, &cfg));
    let inputs = vec![("x".to_string(), vec![0.0; 8])];
    assert_lanes_match_solo(&compiled, &cfg, &requests(&inputs, 7, 11));
}

/// Each image's control reads lane data, so the certificate rejects it
/// (no lane fork is possible), yet it serves exactly as solo runs.
#[test]
fn the_certificate_rejects_lane_dependent_control() {
    let cfg = small_node_config(16);
    let cases: [(&str, CompiledModel, Vec<BatchRequest>); 4] = [
        (
            "a branch on a loaded word",
            hand_built(
                "load r0 @0 1\nset r1 0\nbrn gt r0 r1 5\nset r2 -4096\njmp 6\nset r2 4096\n\
                 store @8 r2 1 1\nhalt\n",
                &[("x", 0, 1)],
                (8, 1),
            ),
            [0.5, -0.5, 0.25, -1.0, 2.0].iter().map(|&v| request(&[("x", vec![v])])).collect(),
        ),
        (
            "a load indexed by a loaded word",
            hand_built(
                "load r0 @0 1\nload r1 @8+r0 1\nstore @16 r1 1 1\nhalt\n",
                &[("x", 0, 1), ("t", 8, 4)],
                (16, 1),
            ),
            (0..5)
                .map(|k| request(&[("x", vec![raw(k % 4)]), ("t", vec![0.1, 0.2, 0.3, 0.4])]))
                .collect(),
        ),
        (
            "a subsample whose stride is loaded",
            hand_built(
                "load r0 @0 1\nload r8 @8 8\nsubsample r32 r8 r0 4\nstore @16 r32 1 4\nhalt\n",
                &[("x", 0, 1), ("d", 8, 8)],
                (16, 4),
            ),
            (0..5)
                .map(|k| request(&[("x", vec![raw(1 + k % 2)]), ("d", seeded_values(8, k as u64))]))
                .collect(),
        ),
        (
            "an integer chain from a loaded word into a branch",
            hand_built(
                "load r0 @0 1\nset r1 1\niadd r2 r0 r1\niadd r3 r2 r1\nset r4 3\n\
                 brn eq r3 r4 8\nset r5 -4096\njmp 9\nset r5 4096\nstore @8 r5 1 1\nhalt\n",
                &[("x", 0, 1)],
                (8, 1),
            ),
            (0..5).map(|k| request(&[("x", vec![raw(k % 3)])])).collect(),
        ),
    ];
    for (what, compiled, requests) in cases {
        assert!(!certified(&compiled, &cfg), "{what}: the certificate must reject it");
        let sim = NodeSim::new(
            fit_config(&cfg, &compiled),
            &compiled.image,
            SimMode::Functional,
            &NoiseModel::noiseless(),
        )
        .unwrap();
        assert!(sim.fork_lanes(4).is_err(), "{what}: an uncertified image must not fork lanes");
        assert_lanes_match_solo(&compiled, &cfg, &requests);
        // The inputs really do steer control apart: solo runs disagree.
        let outputs: Vec<_> = requests
            .iter()
            .map(|r| solo(&compiled, &cfg, SimEngine::Reference, &r.inputs).unwrap().0)
            .collect();
        assert!(outputs.iter().any(|o| *o != outputs[0]), "{what}: the inputs must diverge");
    }
}

/// A loop that branches only on `Set`/`AluInt` counters is certified and
/// serves in lanes, identically to solo runs.
#[test]
fn the_certificate_accepts_counter_loops() {
    let compiled = hand_built(
        "load r8 @0 4\nset r1 0\nset r2 1\nset r3 3\naddi r8 r8 0.5 4\niadd r1 r1 r2\n\
         brn lt r1 r3 4\nstore @8 r8 1 4\nhalt\n",
        &[("x", 0, 4)],
        (8, 4),
    );
    let cfg = small_node_config(16);
    assert!(certified(&compiled, &cfg), "counter loops carry no lane data into control");
    let inputs = vec![("x".to_string(), vec![0.0; 4])];
    assert_lanes_match_solo(&compiled, &cfg, &requests(&inputs, 6, 3));
}
