//! Strategies generating random-but-valid model graphs.
//!
//! Shapes are drawn from scaled-down versions of the Table 5 zoo families
//! (MLP-64-150-150-14, the NMT/BigLSTM LSTM stacks, LeNet-5) so the fuzzed
//! cases exercise the same structures the paper evaluates — multi-chunk
//! tiling, reductions across crossbars, transcendental activations,
//! recurrent weight reuse — while staying small enough to simulate in
//! milliseconds.

use crate::harness::seeded_values;
use proptest::prelude::*;
use puma_compiler::graph::Model;
use puma_nn::layers::{dense, lstm_network, WeightFactory};
use puma_nn::spec::{Activation, LayerSpec, WorkloadClass, WorkloadSpec};
use puma_nn::zoo;

/// A generated graph model together with its inputs and the fixed-point
/// tolerance appropriate for its depth.
#[derive(Debug)]
pub struct ModelCase {
    /// The graph, with all weights materialized.
    pub model: Model,
    /// Named input vectors covering every model input.
    pub inputs: Vec<(String, Vec<f32>)>,
    /// Comparison tolerance (grows with graph depth: every fixed-point
    /// stage contributes up to ~1 ULP of Q4.12 error).
    pub tolerance: f32,
}

/// Layer widths sampled by the MLP family — the Table 5 MLP dimensions
/// (64-150-150-14 and friends) scaled into the fast-sim regime.
const MLP_WIDTHS: [usize; 6] = [8, 14, 26, 32, 48, 64];

/// Strategy: random MLPs — 1-3 dense layers with random activations,
/// widths drawn from `MLP_WIDTHS`.
pub fn mlp_case() -> impl Strategy<Value = ModelCase> {
    (
        prop::sample::select(MLP_WIDTHS.to_vec()),
        prop::collection::vec(
            (
                prop::sample::select(MLP_WIDTHS.to_vec()),
                prop::sample::select(vec![
                    Activation::None,
                    Activation::Relu,
                    Activation::Sigmoid,
                    Activation::Tanh,
                ]),
            ),
            1..4,
        ),
        0u64..1_000_000,
    )
        .prop_map(|(input_width, layers, seed)| {
            let mut model = Model::new("fuzz-mlp");
            let mut weights = WeightFactory::materialized(seed);
            let x = model.input("x", input_width);
            let mut cur = x;
            for (i, (width, act)) in layers.iter().enumerate() {
                cur = dense(&mut model, &mut weights, &format!("fc{i}"), cur, *width, *act)
                    .expect("dense layer widths are consistent by construction");
            }
            model.output("y", cur);
            ModelCase {
                model,
                inputs: vec![("x".to_string(), seeded_values(input_width, seed))],
                tolerance: 0.02 * layers.len() as f32 + 0.01,
            }
        })
}

/// Strategy: random unrolled LSTMs — 1-2 layers, 1-2 time steps, hidden
/// sizes from the scaled-down NMT family, with an optional projection
/// (the BigLSTM structure).
pub fn lstm_case() -> impl Strategy<Value = ModelCase> {
    (
        prop::sample::select(vec![8usize, 16, 26]),
        prop::sample::select(vec![8usize, 16]),
        prop::option::of(prop::sample::select(vec![8usize, 12])),
        1usize..=2,
        1usize..=2,
        0u64..1_000_000,
    )
        .prop_map(|(input_width, hidden, projection, layers, steps, seed)| {
            let mut model = Model::new("fuzz-lstm");
            let mut weights = WeightFactory::materialized(seed);
            let layer_shapes: Vec<(usize, Option<usize>)> =
                (0..layers).map(|_| (hidden, projection)).collect();
            let outs = lstm_network(&mut model, &mut weights, input_width, &layer_shapes, steps)
                .expect("lstm widths are consistent by construction");
            model.output("h_final", *outs.last().expect("steps >= 1"));
            let inputs = (0..steps)
                .map(|t| (format!("x{t}"), seeded_values(input_width, seed ^ t as u64)))
                .collect();
            ModelCase {
                model,
                inputs,
                // Each unrolled step chains ~6 fixed-point stages per layer.
                tolerance: 0.03 * (layers * steps) as f32 + 0.02,
            }
        })
}

/// Strategy: either family, for suites that just want "a valid model".
pub fn any_case() -> impl Strategy<Value = ModelCase> {
    prop_oneof![mlp_case(), lstm_case()]
}

/// Strategy: random LeNet-class CNN workload specs for the looped CNN
/// code generator (`puma_nn::cnn::build_cnn`) — conv → optional pool →
/// dense head, shaped like a shrunken Lenet5 from the zoo.
///
/// These are *specs*, not graphs: CNNs compile through the control-flow
/// code generator rather than the dataflow graph compiler, and their
/// differential reference is `CompiledCnn::reference`. Every spec builds
/// on the default node configuration: the dense head's input fits one
/// core's crossbars.
pub fn cnn_spec() -> impl Strategy<Value = WorkloadSpec> {
    (
        prop::sample::select(vec![7usize, 8, 10, 12]),
        prop::sample::select(vec![2usize, 3, 4]),
        prop::sample::select(vec![3usize, 5]),
        any::<bool>(),
        prop::sample::select(vec![4usize, 6, 10]),
    )
        .prop_map(|(side, conv_out, kernel, pool, fc_out)| {
            let mut layers = vec![LayerSpec::Conv {
                input: 1,
                output: conv_out,
                kernel,
                stride: 1,
                height: side,
                width: side,
            }];
            let (mut h, mut w) = puma_nn::spec::conv_output(side, side, kernel, 1);
            if pool && h >= 4 && h % 2 == 0 && w % 2 == 0 {
                layers.push(LayerSpec::Pool { channels: conv_out, window: 2, height: h, width: w });
                h /= 2;
                w /= 2;
            }
            layers.push(LayerSpec::Fc {
                input: conv_out * h * w,
                output: fc_out,
                act: Activation::None,
            });
            WorkloadSpec {
                name: format!("fuzz-cnn-{side}x{side}-k{kernel}-m{conv_out}"),
                class: WorkloadClass::Cnn,
                layers,
                seq_len: 1,
            }
        })
        .prop_filter("the dense head fits one default core's crossbars", |spec| {
            let core = puma_core::config::NodeConfig::default().tile.core;
            matches!(spec.layers.last(), Some(LayerSpec::Fc { input, .. })
                if input.div_ceil(core.mvmu.dim) <= core.mvmus_per_core)
        })
}

/// The graph-compilable Table 5 / Fig. 4 zoo entries small enough for
/// functional simulation in a test, with their per-model tolerances.
pub fn simulable_zoo_cases(seed: u64) -> Vec<ModelCase> {
    ["MLP-64-150-150-14", "LSTM-26-120-61", "RNN-26-93-61"]
        .iter()
        .map(|name| {
            let spec = zoo::spec(name);
            let mut weights = WeightFactory::materialized(seed);
            let model = zoo::build_graph_model(&spec, &mut weights, Some(2))
                .expect("zoo model builds")
                .expect("non-CNN zoo entries are graph workloads");
            let inputs = model
                .nodes()
                .iter()
                .filter_map(|n| match &n.op {
                    puma_compiler::graph::VecOp::Input { name } => Some((name.clone(), n.width)),
                    _ => None,
                })
                .enumerate()
                .map(|(i, (name, width))| (name, seeded_values(width, seed ^ i as u64)))
                .collect();
            ModelCase { model, inputs, tolerance: 0.15 }
        })
        .collect()
}

// --- Synchronization-stress images -----------------------------------
//
// Hand-assembled machine images whose instruction mix is *dominated* by
// the Fig. 6 attribute-buffer protocol and FIFO send/receive — the
// traffic class where a run-ahead scheduler earns (or loses) its keep.
// They are deadlock-free by construction, produce deterministic outputs
// (payloads bounce host inputs or per-core `rand` streams), and are used
// by the `sync_stress` differential suite and the sync-bound
// `bench_sim_throughput` scenario.

use puma_core::ids::{CoreId, TileId};
use puma_isa::{asm, MachineImage, Program};

fn asm_program(source: &str) -> Program {
    Program::from_instructions(asm::assemble(source).expect("generated asm is valid"))
}

/// A token ring over `tiles` tile control units: the host seeds `width`
/// words at tile 0, and each of `rounds` rounds relays them around the
/// ring over FIFO sends/receives (every hop consumes and re-produces the
/// words through the attribute buffer). Output `token` at tile 0 equals
/// the input after the final wrap-around.
///
/// # Panics
///
/// Panics on fewer than 2 tiles (a ring needs a neighbour).
pub fn pingpong_ring_image(tiles: usize, rounds: usize, width: usize) -> MachineImage {
    assert!(tiles >= 2, "a ring needs at least two tiles");
    let mut img = MachineImage::new(tiles, 1, 1);
    for t in 0..tiles {
        let mut src = String::new();
        for _ in 0..rounds {
            if t == 0 {
                // Tile 0 launches the token, then waits for the wrap.
                src.push_str(&format!("send @0 f0 t1 {width}\n"));
                src.push_str(&format!("recv @0 f1 1 {width}\n"));
            } else {
                let (fifo, next) = if t + 1 == tiles { ("f1", 0) } else { ("f0", t + 1) };
                src.push_str(&format!("recv @0 f0 1 {width}\n"));
                src.push_str(&format!("send @0 {fifo} t{next} {width}\n"));
            }
        }
        src.push_str("halt\n");
        img.tiles[t].program = asm_program(&src);
    }
    img.inputs.push(puma_isa::IoBinding {
        name: "token".into(),
        tile: TileId::new(0),
        addr: 0,
        width,
        count: 1,
    });
    img.outputs.push(puma_isa::IoBinding {
        name: "token".into(),
        tile: TileId::new(0),
        addr: 0,
        width,
        count: 1,
    });
    img
}

/// One producer core fanning out to `consumers` sibling cores through a
/// multi-consumer attribute-buffer word range: each round the producer
/// stores a fresh `rand` vector with consumer count = `consumers`, and
/// every consumer loads (consume-reads) it once and accumulates. With
/// `double_buffer` the round alternates between two address ranges so
/// production overlaps consumption. Outputs `acc0..accN` hold each
/// consumer's accumulated sum.
///
/// # Panics
///
/// Panics on zero consumers or zero rounds.
pub fn fanout_image(
    consumers: usize,
    rounds: usize,
    width: usize,
    double_buffer: bool,
) -> MachineImage {
    assert!(consumers >= 1 && rounds >= 1, "fan-out needs consumers and rounds");
    let buffers = if double_buffer { 2 } else { 1 };
    let mut img = MachineImage::new(1, consumers + 1, 1);
    let addr = |round: usize| (round % buffers) * width;
    let mut src = String::new();
    for r in 0..rounds {
        src.push_str(&format!("rand r0 r0 {width}\n"));
        src.push_str(&format!("store @{} r0 {consumers} {width}\n", addr(r)));
    }
    src.push_str("halt\n");
    img.core_mut(TileId::new(0), CoreId::new(0)).program = asm_program(&src);
    let out_base = 2 * width; // past both buffers
    for c in 0..consumers {
        let mut src = String::new();
        for r in 0..rounds {
            src.push_str(&format!("load r0 @{} {width}\n", addr(r)));
            src.push_str(&format!("add r8 r8 r0 {width}\n"));
        }
        src.push_str(&format!("store @{} r8 1 {width}\n", out_base + c * width));
        src.push_str("halt\n");
        img.core_mut(TileId::new(0), CoreId::new(c + 1)).program = asm_program(&src);
        img.outputs.push(puma_isa::IoBinding {
            name: format!("acc{c}"),
            tile: TileId::new(0),
            addr: (out_base + c * width) as u32,
            width,
            count: 1,
        });
    }
    img
}

/// A producer/consumer lattice: a chain of `tiles` stages where stage 0's
/// core generates `rand` data, every stage's control unit relays over the
/// NoC (or, in the sharded variant, the chip-to-chip interconnect), and
/// every inner stage's core consume-loads, re-produces, and accumulates.
/// The last stage exposes its accumulator as output `sum`.
///
/// With `nodes > 1` the chain is cut into `nodes` contiguous shards of
/// `tiles / nodes` tiles (one image per node, tiles renumbered locally,
/// cross-shard sends carrying explicit node ids) — outputs are
/// bit-identical to the single-node image because per-core `rand`
/// streams depend only on the core index.
///
/// # Panics
///
/// Panics unless `tiles ≥ 2` and `nodes` evenly divides `tiles`.
pub fn lattice_images(
    tiles: usize,
    rounds: usize,
    width: usize,
    nodes: usize,
) -> Vec<MachineImage> {
    assert!(tiles >= 2, "a lattice needs at least two stages");
    assert!(nodes >= 1 && tiles.is_multiple_of(nodes), "nodes must evenly divide tiles");
    let per_node = tiles / nodes;
    let mut images: Vec<MachineImage> =
        (0..nodes).map(|_| MachineImage::new(per_node, 1, 1)).collect();
    for t in 0..tiles {
        let (node, local) = (t / per_node, t % per_node);
        let img = &mut images[node];
        let last = t + 1 == tiles;
        // Control unit: relay the stage's produced words down the chain.
        let mut ctl = String::new();
        for _ in 0..rounds {
            if t > 0 {
                ctl.push_str(&format!("recv @0 f0 1 {width}\n"));
            }
            if !last {
                let (dst_node, dst_local) = ((t + 1) / per_node, (t + 1) % per_node);
                let from = if t == 0 { 0 } else { 2 * width };
                ctl.push_str(&format!("send @{from} f0 t{dst_local} {width} n{dst_node}\n"));
            }
        }
        ctl.push_str("halt\n");
        img.tiles[local].program = asm_program(&ctl);
        // Core: stage 0 produces, inner stages transform + re-produce,
        // the last stage accumulates into the output.
        let mut core = String::new();
        for _ in 0..rounds {
            if t == 0 {
                core.push_str(&format!("rand r0 r0 {width}\n"));
                core.push_str(&format!("store @0 r0 1 {width}\n"));
            } else {
                core.push_str(&format!("load r0 @0 {width}\n"));
                core.push_str(&format!("add r8 r8 r0 {width}\n"));
                if !last {
                    core.push_str(&format!("store @{} r0 1 {width}\n", 2 * width));
                }
            }
        }
        if last {
            core.push_str(&format!("store @{} r8 1 {width}\n", 4 * width));
        }
        core.push_str("halt\n");
        img.core_mut(TileId::new(local), CoreId::new(0)).program = asm_program(&core);
        if last {
            img.outputs.push(puma_isa::IoBinding {
                name: "sum".into(),
                tile: TileId::new(local),
                addr: (4 * width) as u32,
                width,
                count: 1,
            });
        }
    }
    images
}

/// `tiles` independent copies of the [`fanout_image`] pattern, one per
/// tile — the NMTL3-class synchronization regime: many tiles concurrently
/// running producer/consumer handoffs over the attribute buffer, with no
/// cross-tile traffic to couple them. (Contrast with [`lattice_images`],
/// a *serial* token wave where at most a few stages are ever runnable —
/// the run-ahead scheduler's structural worst case.) Outputs
/// `t<tile>acc<consumer>` hold each consumer's accumulated sum.
///
/// # Panics
///
/// Panics on zero tiles/consumers/rounds.
pub fn sync_fabric_image(
    tiles: usize,
    consumers: usize,
    rounds: usize,
    width: usize,
) -> MachineImage {
    assert!(tiles >= 1 && consumers >= 1 && rounds >= 1, "fabric needs tiles/consumers/rounds");
    let mut img = MachineImage::new(tiles, consumers + 1, 1);
    let addr = |round: usize| (round % 2) * width;
    let out_base = 2 * width;
    for t in 0..tiles {
        let mut src = String::new();
        for r in 0..rounds {
            src.push_str(&format!("rand r0 r0 {width}\n"));
            src.push_str(&format!("store @{} r0 {consumers} {width}\n", addr(r)));
        }
        src.push_str("halt\n");
        img.core_mut(TileId::new(t), CoreId::new(0)).program = asm_program(&src);
        for c in 0..consumers {
            let mut src = String::new();
            for r in 0..rounds {
                src.push_str(&format!("load r0 @{} {width}\n", addr(r)));
                src.push_str(&format!("add r8 r8 r0 {width}\n"));
            }
            src.push_str(&format!("store @{} r8 1 {width}\n", out_base + c * width));
            src.push_str("halt\n");
            img.core_mut(TileId::new(t), CoreId::new(c + 1)).program = asm_program(&src);
            img.outputs.push(puma_isa::IoBinding {
                name: format!("t{t}acc{c}"),
                tile: TileId::new(t),
                addr: (out_base + c * width) as u32,
                width,
                count: 1,
            });
        }
    }
    img
}

/// `pairs` independent producer/consumer core pairs per tile, each pair
/// double-buffering through its **own disjoint word range** of the
/// tile's attribute buffer: many agents of one tile synchronizing
/// independently, so the tile scheduler interleaves their turns on the
/// *same tile*. Outputs `t<tile>p<pair>`
/// hold each consumer's accumulated sum.
///
/// # Panics
///
/// Panics on zero tiles/pairs/rounds.
pub fn disjoint_pairs_image(
    tiles: usize,
    pairs: usize,
    rounds: usize,
    width: usize,
) -> MachineImage {
    assert!(tiles >= 1 && pairs >= 1 && rounds >= 1, "pairs image needs tiles/pairs/rounds");
    let mut img = MachineImage::new(tiles, 2 * pairs, 1);
    let out_base = pairs * 2 * width;
    for t in 0..tiles {
        for p in 0..pairs {
            let base = p * 2 * width;
            let addr = |round: usize| base + (round % 2) * width;
            let mut src = String::new();
            for r in 0..rounds {
                src.push_str(&format!("rand r0 r0 {width}\n"));
                src.push_str(&format!("store @{} r0 1 {width}\n", addr(r)));
            }
            src.push_str("halt\n");
            img.core_mut(TileId::new(t), CoreId::new(2 * p)).program = asm_program(&src);
            let mut src = String::new();
            for r in 0..rounds {
                src.push_str(&format!("load r0 @{} {width}\n", addr(r)));
                src.push_str(&format!("add r8 r8 r0 {width}\n"));
            }
            src.push_str(&format!("store @{} r8 1 {width}\n", out_base + p * width));
            src.push_str("halt\n");
            img.core_mut(TileId::new(t), CoreId::new(2 * p + 1)).program = asm_program(&src);
            img.outputs.push(puma_isa::IoBinding {
                name: format!("t{t}p{p}"),
                tile: TileId::new(t),
                addr: (out_base + p * width) as u32,
                width,
                count: 1,
            });
        }
    }
    img
}

/// The adversarial counterpart of [`disjoint_pairs_image`]: two cores per
/// tile strictly alternating over **partially overlapping** word ranges.
/// The ping core produces `[0, width)`; the pong core consumes it and
/// replies on `[width/2, width/2 + width)` — the upper half of the ping
/// range is reused by the reply, so neither core may run a
/// synchronization instruction past the other's turn.
/// Alternation is forced by the attribute protocol itself (each store's
/// precondition only holds after the opposite core's consume), so the
/// schedule — and therefore outputs and stats — is engine-invariant.
/// Outputs `t<tile>ping` / `t<tile>pong` hold the two accumulators.
///
/// # Panics
///
/// Panics on zero tiles/rounds or `width < 2` (a `width/2` shift of a
/// one-word range does not overlap, it coincides — and two consumers
/// racing for the same produced word would be schedule-dependent).
pub fn overlap_pingpong_image(tiles: usize, rounds: usize, width: usize) -> MachineImage {
    assert!(tiles >= 1 && rounds >= 1, "ping-pong image needs tiles/rounds");
    assert!(width >= 2, "partial overlap needs width >= 2");
    let reply = width / 2;
    let out_base = 4 * width;
    let mut img = MachineImage::new(tiles, 2, 1);
    for t in 0..tiles {
        let mut ping = String::new();
        for _ in 0..rounds {
            ping.push_str(&format!("rand r0 r0 {width}\n"));
            ping.push_str(&format!("store @0 r0 1 {width}\n"));
            ping.push_str(&format!("load r0 @{reply} {width}\n"));
            ping.push_str(&format!("add r8 r8 r0 {width}\n"));
        }
        ping.push_str(&format!("store @{out_base} r8 1 {width}\n"));
        ping.push_str("halt\n");
        img.core_mut(TileId::new(t), CoreId::new(0)).program = asm_program(&ping);
        let mut pong = String::new();
        for _ in 0..rounds {
            pong.push_str(&format!("load r0 @0 {width}\n"));
            pong.push_str(&format!("add r8 r8 r0 {width}\n"));
            pong.push_str(&format!("store @{reply} r0 1 {width}\n"));
        }
        pong.push_str(&format!("store @{} r8 1 {width}\n", out_base + width));
        pong.push_str("halt\n");
        img.core_mut(TileId::new(t), CoreId::new(1)).program = asm_program(&pong);
        for (name, slot) in [("ping", 0), ("pong", 1)] {
            img.outputs.push(puma_isa::IoBinding {
                name: format!("t{t}{name}"),
                tile: TileId::new(t),
                addr: (out_base + slot * width) as u32,
                width,
                count: 1,
            });
        }
    }
    img
}

/// [`disjoint_pairs_image`] sharded across `nodes` single-tile nodes and
/// coupled by a cross-node token chain over the tile control units: node
/// 0's extra seeder core produces a fresh token each round, every
/// control unit relays it over the chip-to-chip link (send consumes,
/// receive re-produces at the same address), and the last node's extra
/// core consume-accumulates it. The chain gives [`crate::harness`]-style
/// cluster and pipeline runs real inter-node traffic while the pairs
/// exercise same-tile disjoint ranges. Outputs: `chain` (the token
/// accumulator at the last node) and `n<node>p<pair>` pair accumulators.
///
/// # Panics
///
/// Panics unless `nodes >= 2` and pairs/rounds/width are nonzero.
pub fn disjoint_shard_images(
    nodes: usize,
    pairs: usize,
    rounds: usize,
    width: usize,
) -> Vec<MachineImage> {
    assert!(nodes >= 2, "a chain needs at least two nodes");
    assert!(pairs >= 1 && rounds >= 1 && width >= 1, "shards need pairs/rounds/width");
    let token = pairs * 3 * width; // past the pair buffers and accumulators
    let extra = 2 * pairs; // core index of the seeder / chain accumulator
    let mut images = Vec::with_capacity(nodes);
    for node in 0..nodes {
        let last = node + 1 == nodes;
        let mut img = disjoint_pairs_image(1, pairs, rounds, width);
        for o in &mut img.outputs {
            o.name = o.name.replacen("t0", &format!("n{node}"), 1);
        }
        if node == 0 {
            img.tiles[0].cores.push(puma_isa::CoreImage::new(1));
            let mut src = String::new();
            for _ in 0..rounds {
                src.push_str(&format!("rand r0 r0 {width}\n"));
                src.push_str(&format!("store @{token} r0 1 {width}\n"));
            }
            src.push_str("halt\n");
            img.core_mut(TileId::new(0), CoreId::new(extra)).program = asm_program(&src);
        }
        if last {
            img.tiles[0].cores.push(puma_isa::CoreImage::new(1));
            let mut src = String::new();
            for _ in 0..rounds {
                src.push_str(&format!("load r0 @{token} {width}\n"));
                src.push_str(&format!("add r8 r8 r0 {width}\n"));
            }
            src.push_str(&format!("store @{} r8 1 {width}\n", token + width));
            src.push_str("halt\n");
            img.core_mut(TileId::new(0), CoreId::new(extra)).program = asm_program(&src);
            img.outputs.push(puma_isa::IoBinding {
                name: "chain".into(),
                tile: TileId::new(0),
                addr: (token + width) as u32,
                width,
                count: 1,
            });
        }
        let mut ctl = String::new();
        for _ in 0..rounds {
            if node > 0 {
                ctl.push_str(&format!("recv @{token} f0 1 {width}\n"));
            }
            if !last {
                ctl.push_str(&format!("send @{token} f0 t0 {width} n{}\n", node + 1));
            }
        }
        ctl.push_str("halt\n");
        img.tiles[0].program = asm_program(&ctl);
        images.push(img);
    }
    images
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::test_runner::TestRng;

    #[test]
    fn generated_models_validate() {
        let mut rng = TestRng::from_name("modelgen-validate");
        let s = any_case();
        for _ in 0..16 {
            let case = s.generate(&mut rng);
            case.model.validate().expect("generated model is valid");
            assert!(!case.inputs.is_empty());
        }
    }

    #[test]
    fn cnn_specs_have_consistent_shapes() {
        let mut rng = TestRng::from_name("modelgen-cnn");
        let s = cnn_spec();
        for _ in 0..32 {
            let spec = s.generate(&mut rng);
            assert_eq!(spec.class, WorkloadClass::Cnn);
            assert!(spec.layers.len() >= 2);
            assert!(spec.params() > 0);
            let cfg = puma_core::config::NodeConfig::default();
            assert!(puma_nn::cnn::build_cnn(&spec, &cfg, true, 0).is_ok(), "{}", spec.name);
        }
    }
}
