//! Criterion bench: PUMAsim engine throughput and `BatchRunner` scaling.

use criterion::{criterion_group, criterion_main, Criterion};
use puma::runtime::{BatchRequest, BatchRunner};
use puma_bench::{compile_workload, sim_seq_len, TimingSession};
use puma_compiler::CompilerOptions;
use puma_core::config::NodeConfig;
use puma_nn::zoo;
use puma_sim::{SimEngine, SimMode};
use puma_xbar::NoiseModel;

const WORKLOAD: &str = "NMTL3";

fn bench_engines(c: &mut Criterion) {
    let cfg = NodeConfig::default();
    let compiled =
        compile_workload(WORKLOAD, &cfg, &CompilerOptions::timing_only(), sim_seq_len(WORKLOAD))
            .unwrap()
            .unwrap();
    let mut reference = TimingSession::new(&compiled, &cfg, SimEngine::Reference).unwrap();
    c.bench_function("sim_nmtl3_timing_reference", |b| {
        b.iter(|| std::hint::black_box(&mut reference).run().unwrap().cycles)
    });
    let mut compiled = TimingSession::new(&compiled, &cfg, SimEngine::Compiled).unwrap();
    c.bench_function("sim_nmtl3_timing_compiled", |b| {
        b.iter(|| std::hint::black_box(&mut compiled).run().unwrap().cycles)
    });
}

fn bench_batch_runner(c: &mut Criterion) {
    let cfg = NodeConfig::default();
    let spec = zoo::spec(WORKLOAD);
    let mut weights = puma_nn::WeightFactory::shape_only(7);
    let model =
        zoo::build_graph_model(&spec, &mut weights, sim_seq_len(WORKLOAD)).unwrap().unwrap();
    for threads in [1usize, 4] {
        let runner = BatchRunner::new(
            &model,
            &cfg,
            &CompilerOptions::timing_only(),
            SimMode::Timing,
            &NoiseModel::noiseless(),
        )
        .unwrap()
        .with_threads(threads);
        let requests: Vec<BatchRequest> = (0..8)
            .map(|_| {
                BatchRequest::new(
                    runner
                        .compiled()
                        .inputs
                        .iter()
                        .map(|io| (io.name.clone(), vec![0.0; io.width]))
                        .collect(),
                )
            })
            .collect();
        c.bench_function(&format!("batch_nmtl3_8req_{threads}thread"), move |b| {
            b.iter(|| runner.run_batch(std::hint::black_box(&requests)).unwrap())
        });
    }
}

criterion_group!(benches, bench_engines, bench_batch_runner);
criterion_main!(benches);
