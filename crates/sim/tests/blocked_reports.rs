//! Regression tests for blocked-agent diagnostics after the arena move:
//! tile state now lives in node-level contiguous arenas indexed by
//! `tile * capacity + addr`, but [`NodeSim::blocked_summary`] and
//! deadlock reports must keep naming the **tile-local** word address and
//! fifo the agent is parked on — never an arena-global offset — and the
//! exact strings must be identical under every execution engine
//! (operators grep serving logs for them, and deadlock reports are part
//! of the engine-invariance contract).

use puma_core::config::{CoreConfig, MvmuConfig, NodeConfig, TileConfig};
use puma_core::ids::{CoreId, TileId};
use puma_core::PumaError;
use puma_isa::asm::assemble;
use puma_isa::{MachineImage, Program};
use puma_sim::{NodeSim, SimEngine, SimMode};
use puma_xbar::NoiseModel;

fn cfg(tiles: usize) -> NodeConfig {
    let mvmu = MvmuConfig { dim: 16, ..MvmuConfig::default() };
    NodeConfig {
        tile: TileConfig {
            core: CoreConfig {
                mvmu,
                mvmus_per_core: 2,
                vfu_lanes: 4,
                instruction_memory_bytes: 8192,
                register_file_words: 256,
            },
            cores_per_tile: 2,
            shared_memory_bytes: 8192,
            ..TileConfig::default()
        },
        tiles_per_node: tiles,
        ..NodeConfig::default()
    }
}

fn program(src: &str) -> Program {
    Program::from_instructions(assemble(src).unwrap())
}

/// Runs `img` under every engine and asserts each run deadlocks with the
/// exact message `want` — the same string on both engines.
fn assert_deadlock_message(img: &MachineImage, tiles: usize, want: &str) {
    for engine in [SimEngine::Reference, SimEngine::Compiled] {
        let mut sim =
            NodeSim::new(cfg(tiles), img, SimMode::Functional, &NoiseModel::noiseless()).unwrap();
        sim.set_engine(engine);
        match sim.run() {
            Err(PumaError::Deadlock { what, .. }) => {
                assert_eq!(what, want, "{engine:?}: deadlock report diverged");
            }
            other => panic!("{engine:?}: expected deadlock, got {other:?}"),
        }
    }
}

/// A reader parked on a word of a *non-zero* tile reports the tile-local
/// address: tile 2's words live at arena offset `2 * capacity + addr`,
/// and a report leaking the arena offset would name a huge bogus word.
#[test]
fn reader_deadlock_names_tile_local_word() {
    let mut img = MachineImage::new(3, 2, 2);
    img.core_mut(TileId::new(2), CoreId::new(0)).program = program("load r0 @5 2\nhalt\n");
    assert_deadlock_message(
        &img,
        3,
        "1 agents blocked: tile2/core0 waiting on word @5 to become valid (since cycle 0)",
    );
}

/// A writer parked on an unconsumed word (store with no consumer, then a
/// second store to the same range) names the exact still-valid word.
#[test]
fn writer_deadlock_names_unconsumed_word() {
    let mut img = MachineImage::new(3, 2, 2);
    img.core_mut(TileId::new(1), CoreId::new(1)).program =
        program("rand r0 r0 2\nstore @7 r0 1 2\nstore @7 r0 1 2\nhalt\n");
    let mut sim =
        NodeSim::new(cfg(3), &img, SimMode::Functional, &NoiseModel::noiseless()).unwrap();
    let since = match sim.run() {
        Err(PumaError::Deadlock { what, .. }) => {
            // Pin everything but the blocked-since cycle (a charge-model
            // constant, asserted engine-invariant below).
            let (head, tail) = what.split_once(" (since cycle ").expect("report names a cycle");
            assert_eq!(head, "1 agents blocked: tile1/core1 waiting on word @7 to be consumed");
            tail.trim_end_matches(')').parse::<u64>().expect("cycle is numeric")
        }
        other => panic!("expected deadlock, got {other:?}"),
    };
    assert_deadlock_message(
        &img,
        3,
        &format!(
            "1 agents blocked: tile1/core1 waiting on word @7 to be consumed (since cycle {since})"
        ),
    );
}

/// A control unit parked on an empty receive FIFO names the fifo index.
#[test]
fn ctl_deadlock_names_fifo() {
    let mut img = MachineImage::new(2, 2, 2);
    img.tiles[1].program = program("recv @0 f3 1 2\nhalt\n");
    assert_deadlock_message(
        &img,
        2,
        "1 agents blocked: tile1/ctl waiting on fifo f3 (since cycle 0)",
    );
}

/// Several agents parked on one tile report in agent order — cores
/// ascending, control unit last — regardless of engine-dependent park
/// interleavings, and each keeps its own exact wait condition.
#[test]
fn multi_agent_summary_is_agent_ordered() {
    let mut img = MachineImage::new(2, 2, 2);
    img.core_mut(TileId::new(0), CoreId::new(0)).program = program("load r0 @12 1\nhalt\n");
    img.core_mut(TileId::new(0), CoreId::new(1)).program = program("load r0 @3 4\nhalt\n");
    img.tiles[0].program = program("recv @8 f5 1 2\nhalt\n");
    assert_deadlock_message(
        &img,
        2,
        "3 agents blocked: \
         tile0/core0 waiting on word @12 to become valid (since cycle 0), \
         tile0/core1 waiting on word @3 to become valid (since cycle 0), \
         tile0/ctl waiting on fifo f5 (since cycle 0)",
    );
}
