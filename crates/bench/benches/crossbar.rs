//! Criterion bench: analog crossbar MVM throughput — the primitive behind
//! every table (one 128x128 MVM = 16384 MACs in 2304 ns on hardware).
//!
//! The warm rows reuse one MVMU whose 32 KiB of weights stay in cache.
//! `mvm_into_128_cold_324` cycles through 324 programmed MVMUs — the
//! per-request MVM count of functional MLPL4, ~10 MiB of weights — so
//! every call streams its weights from memory, as the simulator's
//! in-situ MVMs do.

use criterion::{criterion_group, criterion_main, Criterion};
use puma_core::config::MvmuConfig;
use puma_core::fixed::Fixed;
use puma_core::tensor::Matrix;
use puma_xbar::{AnalogMvmu, NoiseModel, Perturbation};
use std::hint::black_box;

/// Programmed MVMUs the cold-cache row cycles through.
const COLD_UNITS: usize = 324;

fn bench_crossbar(c: &mut Criterion) {
    let cfg = MvmuConfig::default();
    let weights = Matrix::from_fn(128, 128, |r, k| ((r * 7 + k) % 13) as f32 * 0.01 - 0.06);
    let mut mvmu = AnalogMvmu::new(cfg).unwrap();
    mvmu.program(&weights.quantize(), &NoiseModel::noiseless()).unwrap();
    let x: Vec<Fixed> = (0..128).map(|i| Fixed::from_f32((i % 9) as f32 * 0.05 - 0.2)).collect();
    let none = Perturbation::none();
    let mut out = vec![Fixed::ZERO; 128];

    c.bench_function("mvm_into_128_exact", |b| {
        b.iter(|| mvmu.mvm_into(black_box(&x), &none, &mut out).unwrap())
    });
    c.bench_function("mvm_bit_serial_128", |b| b.iter(|| mvmu.mvm_bit_serial(black_box(&x))));

    let mut noisy = AnalogMvmu::new(cfg).unwrap();
    noisy.program(&weights.quantize(), &NoiseModel::new(0.1, 3)).unwrap();
    c.bench_function("mvm_into_128_write_noisy", |b| {
        b.iter(|| noisy.mvm_into(black_box(&x), &none, &mut out).unwrap())
    });

    let units: Vec<AnalogMvmu> = (0..COLD_UNITS)
        .map(|u| {
            let w = Matrix::from_fn(128, 128, |r, k| ((r * 7 + k + u) % 13) as f32 * 0.01 - 0.06);
            let mut unit = AnalogMvmu::new(cfg).unwrap();
            unit.program(&w.quantize(), &NoiseModel::noiseless()).unwrap();
            unit
        })
        .collect();
    let mut next = 0;
    c.bench_function("mvm_into_128_cold_324", |b| {
        b.iter(|| {
            next = (next + 1) % COLD_UNITS;
            units[next].mvm_into(black_box(&x), &none, &mut out).unwrap()
        })
    });
}

criterion_group!(benches, bench_crossbar);
criterion_main!(benches);
