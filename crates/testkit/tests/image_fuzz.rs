//! The random-image engine differential: every image
//! [`random_image`] draws runs on both engines, standalone and cut into
//! node shards under `ClusterSim`, in both simulation modes. The engines
//! must agree exactly (see [`engines_agree`]), and neither may panic.
//!
//! The pipeline leg serves each sharded image as a `PipelineSim` stream
//! of 2–4 requests ([`random_stream`]: random arrivals, queue depth and
//! deadline), over the default link and over the image's drawn link. Each request must behave like its solo `ClusterSim` run
//! (see [`pipeline_agrees`]), and the engines must agree on the whole
//! serve.
//!
//! `PUMA_FUZZ_CASES` sets the number of images (default 300). A
//! failure names its seed; `random_image(seed)` rebuilds that image.

use puma_core::error::PumaError;
use puma_core::timing::InterconnectConfig;
use puma_sim::{SimEngine, SimMode};
use puma_testkit::imagegen::{
    engines_agree, link_for, pipeline_agrees, random_image, random_stream, run_case, run_solo,
    serve_case, Outcome, ServeReport, Topology,
};
use std::collections::BTreeMap;

fn case_count() -> u64 {
    std::env::var("PUMA_FUZZ_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(300)
}

fn kind(outcome: &Outcome) -> &'static str {
    match &outcome.result {
        Ok(()) => "ok",
        Err(PumaError::Deadlock { .. }) => "deadlock",
        Err(PumaError::FaultedTile { .. }) => "faulted tile",
        Err(PumaError::Execution { what }) if what.contains("cycle cap") => "cycle cap",
        Err(PumaError::Execution { .. }) => "fault",
        Err(_) => "other error",
    }
}

#[test]
fn random_images_run_identically_on_both_engines() {
    let mut failures = Vec::new();
    let mut tally: BTreeMap<&str, usize> = BTreeMap::new();
    for seed in 0..case_count() {
        let case = random_image(seed);
        for mode in [SimMode::Functional, SimMode::Timing] {
            for topology in [Topology::Standalone, Topology::Cluster] {
                let reference = run_case(&case, SimEngine::Reference, mode, topology);
                let compiled = run_case(&case, SimEngine::Compiled, mode, topology);
                let verdict = match (&reference, &compiled) {
                    (Ok(r), Ok(c)) => {
                        *tally.entry(kind(r)).or_default() += 1;
                        engines_agree(r, c)
                    }
                    _ => Err(format!("panicked: reference {reference:?}, compiled {compiled:?}")),
                };
                if let Err(e) = verdict {
                    failures.push(format!(
                        "seed {seed} {mode:?} {topology:?} ({:?}): {e}",
                        case.intent
                    ));
                }
            }
        }
    }
    eprintln!("image fuzz outcomes: {tally:?}");
    for f in &failures {
        eprintln!("{}", f.lines().next().unwrap_or_default());
    }
    assert!(failures.is_empty(), "{} disagreements; first: {}", failures.len(), failures[0]);
    if case_count() >= 100 {
        for k in ["ok", "deadlock", "fault", "cycle cap", "faulted tile"] {
            assert!(tally.contains_key(k), "no run ended as {k}: {tally:?}");
        }
    }
}

#[test]
fn pipelined_streams_serve_like_their_solo_runs() {
    let mut failures = Vec::new();
    let mut tally: BTreeMap<&str, usize> = BTreeMap::new();
    for seed in 0..case_count() {
        let case = random_image(seed);
        let stream = random_stream(&case);
        // The default link, and the cluster leg's link when it differs.
        let mut links = vec![InterconnectConfig::default()];
        links.extend(Some(link_for(&case)).filter(|l| l.latency_cycles != links[0].latency_cycles));
        let modes = [SimMode::Functional, SimMode::Timing];
        for (mode, link) in modes.into_iter().flat_map(|m| links.iter().map(move |&l| (m, l))) {
            let lat = link.latency_cycles;
            let mut serves = Vec::new();
            for engine in [SimEngine::Reference, SimEngine::Compiled] {
                let solos: Result<Vec<Outcome>, String> = stream
                    .requests
                    .iter()
                    .map(|r| run_solo(&case, r, engine, mode, link))
                    .collect();
                let verdict = solos.and_then(|solos| {
                    let served = serve_case(&case, &stream, engine, mode, link)?;
                    let compared = pipeline_agrees(&case, &stream, &solos, &served)?;
                    Ok((served, compared))
                });
                match verdict {
                    Ok((served, compared)) => {
                        *tally.entry("later outputs compared").or_default() += compared;
                        serves.push(served);
                    }
                    Err(e) => failures.push(format!(
                        "seed {seed} {mode:?} {engine:?} link {lat} ({:?}, depth {:?}, deadline \
                         {:?}): {e}\n  \
                         {stream:?}",
                        case.intent, stream.queue_depth, stream.deadline
                    )),
                }
            }
            if let [a, b] = &serves[..] {
                // One verdict depends on when the compiled engine's
                // run-ahead lets a retirement be processed, not on virtual
                // time: a packet sent to a stage that already retired its
                // request fails the serve. Execution faults compare by
                // kind, as in `engines_agree`.
                let unreceived = |r: &Result<ServeReport, PumaError>| matches!(r, Err(PumaError::Execution { what }) if what.contains("already retired"));
                let same = match (a, b) {
                    (Ok(a), Ok(b)) => a == b,
                    _ if unreceived(a) || unreceived(b) => {
                        *tally.entry("un-received send").or_default() += 1;
                        true
                    }
                    (Err(x @ PumaError::Execution { .. }), Err(y)) => {
                        std::mem::discriminant(x) == std::mem::discriminant(y)
                    }
                    _ => a == b,
                };
                if !same {
                    let diff = match (a, b) {
                        (Ok(a), Ok(b)) => a
                            .requests
                            .iter()
                            .zip(&b.requests)
                            .enumerate()
                            .find(|(_, (x, y))| x != y)
                            .map_or_else(
                                || format!("{:?} vs {:?}", a.stages, b.stages),
                                |(k, (x, y))| format!("request {k}: {x:?} vs {y:?}"),
                            ),
                        _ => format!("{a:?} vs {b:?}"),
                    };
                    failures
                        .push(format!("seed {seed} {mode:?} link {lat}: serves differ: {diff}"));
                }
                match a {
                    Ok(report) => {
                        for r in &report.requests {
                            let k = match (&r.error, r.admitted) {
                                (Some(_), _) => "aborted",
                                (None, true) => "completed",
                                (None, false) => "shed",
                            };
                            *tally.entry(k).or_default() += 1;
                        }
                    }
                    Err(_) => *tally.entry("serve failed").or_default() += 1,
                }
            }
        }
    }
    eprintln!("pipeline fuzz outcomes: {tally:?}");
    for f in &failures {
        eprintln!("{}", f.lines().next().unwrap_or_default());
    }
    assert!(failures.is_empty(), "{} disagreements; first: {}", failures.len(), failures[0]);
    if case_count() >= 100 {
        for k in ["completed", "aborted", "shed", "serve failed", "later outputs compared"] {
            assert!(tally.contains_key(k), "no request ended as {k}: {tally:?}");
        }
    }
}

/// Two to four sender tiles each relay one host vector into the same
/// FIFO of one receiver, after a few filler instructions before and
/// after the load, so packets from different senders often land in the
/// same cycle. The receiver stores each packet into its own output
/// range in arrival order: both engines must deliver same-cycle packets
/// in one order (by origin), not in the order they executed the sends.
#[test]
fn same_cycle_deliveries_from_different_tiles_keep_one_order() {
    use puma_core::ids::{CoreId, TileId};
    use puma_isa::{asm, IoBinding, MachineImage, Program};
    use puma_sim::NodeSim;
    use puma_xbar::NoiseModel;

    let cfg = puma_testkit::harness::small_node_config(16);
    let assemble = |src: &str| Program::from_instructions(asm::assemble(src).unwrap());
    let mut state = 0x1234_5678_9abc_def1u64;
    let mut next = move |n: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % n
    };
    for case in 0..400 {
        let receiver = next(16) as usize;
        let width = 1 + next(4) as usize;
        let mut senders = Vec::new();
        while senders.len() < 2 + next(3) as usize {
            let s = next(16) as usize;
            if s != receiver && !senders.contains(&s) {
                senders.push(s);
            }
        }
        let mut img = MachineImage::new(16, 1, 1);
        let mut inputs = Vec::new();
        for &s in &senders {
            let (k1, k2) = (next(12), next(12));
            let mut core = String::new();
            for _ in 0..k1 {
                core.push_str("add r8 r8 r8 1\n");
            }
            core.push_str(&format!("load r0 @0 {width}\n"));
            for _ in 0..k2 {
                core.push_str("add r8 r8 r8 1\n");
            }
            core.push_str(&format!("store @{width} r0 1 {width}\nhalt\n"));
            img.core_mut(TileId::new(s), CoreId::new(0)).program = assemble(&core);
            img.tiles[s].program =
                assemble(&format!("send @{width} f0 t{receiver} {width}\nhalt\n"));
            let name = format!("x{s}");
            img.inputs.push(IoBinding {
                name: name.clone(),
                tile: TileId::new(s),
                addr: 0,
                width,
                count: 1,
            });
            inputs.push((name, vec![s as f32 / 16.0; width]));
        }
        let mut ctl = String::new();
        for i in 0..senders.len() {
            let addr = 64 + i * width;
            ctl.push_str(&format!("recv @{addr} f0 1 {width}\n"));
            img.outputs.push(IoBinding {
                name: format!("out{i}"),
                tile: TileId::new(receiver),
                addr: addr as u32,
                width,
                count: 1,
            });
        }
        ctl.push_str("halt\n");
        img.tiles[receiver].program = assemble(&ctl);
        let run = |engine| {
            let mut sim =
                NodeSim::new(cfg, &img, SimMode::Functional, &NoiseModel::noiseless()).unwrap();
            sim.set_engine(engine);
            for (name, values) in &inputs {
                sim.write_input(name, values).unwrap();
            }
            sim.run().unwrap();
            let outputs: Vec<Vec<f32>> =
                (0..senders.len()).map(|i| sim.read_output(&format!("out{i}")).unwrap()).collect();
            (outputs, sim.stats().clone())
        };
        let (want, want_stats) = run(SimEngine::Reference);
        let (got, got_stats) = run(SimEngine::Compiled);
        assert_eq!(
            want, got,
            "case {case}: receiver {receiver}, senders {senders:?}, width {width}: arrival order"
        );
        assert_eq!(want_stats, got_stats, "case {case}");
    }
}
