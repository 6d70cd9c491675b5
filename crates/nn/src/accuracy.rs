//! Inference accuracy under crossbar precision and write noise (Fig. 13).
//!
//! A trained MLP's weight matrices are programmed into [`AnalogMvmu`]s at a
//! given bits-per-cell setting with a given write-noise σN, and the test
//! set is classified through the analog path. Sweeping bits ∈ 1..=6 and
//! σN ∈ {0, 0.1, 0.2, 0.3} regenerates the figure.

use crate::data::Dataset;
use crate::train::TrainedMlp;
use puma_core::config::{MvmuConfig, NonIdealityConfig};
use puma_core::error::Result;
use puma_core::fixed::Fixed;
use puma_core::tensor::Matrix;
use puma_xbar::{AnalogMvmu, NoiseModel, Perturbation};

/// An MLP whose two weight matrices live in analog crossbars.
#[derive(Debug, Clone)]
pub struct AnalogMlp {
    layer1: Vec<AnalogMvmu>,
    layer2: Vec<AnalogMvmu>,
    b1: Vec<f32>,
    b2: Vec<f32>,
    hidden: usize,
    classes: usize,
    dim: usize,
    /// Read-side non-ideality applied per inference; the ideal default
    /// keeps [`AnalogMvmu::mvm_into`] on its exact integer kernel.
    ni: NonIdealityConfig,
}

/// Programs matrix `m` into a row of crossbars (one column strip is enough
/// for the small Fig. 13 network; rows are tiled).
fn program_matrix(
    m: &Matrix,
    cfg: &MvmuConfig,
    noise: &NoiseModel,
    salt: u64,
) -> Result<Vec<AnalogMvmu>> {
    let dim = cfg.dim;
    assert!(m.cols() <= dim, "Fig. 13 network is one column strip wide");
    let row_tiles = m.rows().div_ceil(dim);
    let mut units = Vec::with_capacity(row_tiles);
    for t in 0..row_tiles {
        let rows = (m.rows() - t * dim).min(dim);
        let tile = m.tile(t * dim, 0, rows, m.cols()).quantize();
        let mut unit = AnalogMvmu::new(*cfg)?;
        let tile_noise = NoiseModel::new(noise.sigma, noise.seed.wrapping_add(salt + t as u64));
        unit.program(&tile, &tile_noise)?;
        units.push(unit);
    }
    Ok(units)
}

fn analog_mvm(
    units: &[AnalogMvmu],
    x: &[f32],
    dim: usize,
    out: usize,
    ni: &NonIdealityConfig,
    site_base: u64,
    time_index: u64,
) -> Result<Vec<f32>> {
    let mut acc = vec![0.0f32; out];
    let mut chunk = vec![Fixed::ZERO; dim];
    let mut y = vec![Fixed::ZERO; dim];
    for (t, unit) in units.iter().enumerate() {
        for (i, slot) in chunk.iter_mut().enumerate() {
            *slot = x.get(t * dim + i).map_or(Fixed::ZERO, |&v| Fixed::from_f32(v));
        }
        let p = Perturbation {
            ni: *ni,
            site: site_base + t as u64,
            time_index,
            ..Perturbation::none()
        };
        unit.mvm_into(&chunk, &p, &mut y)?;
        for (a, v) in acc.iter_mut().zip(y.iter()) {
            *a += v.to_f32();
        }
    }
    Ok(acc)
}

impl AnalogMlp {
    /// Programs a trained network into crossbars with the given cell
    /// precision and write noise.
    ///
    /// # Errors
    ///
    /// Propagates crossbar configuration/programming failures.
    pub fn program(net: &TrainedMlp, cfg: &MvmuConfig, noise: &NoiseModel) -> Result<Self> {
        AnalogMlp::program_with(net, cfg, noise, &NonIdealityConfig::ideal())
    }

    /// [`AnalogMlp::program`] with read-side non-ideality: every
    /// inference additionally sees `ni`'s read noise, drift, and IR drop
    /// through [`AnalogMvmu::mvm_into`] (plus ADC output quantization
    /// when `cfg` narrows the converter).
    ///
    /// # Errors
    ///
    /// Propagates crossbar configuration/programming failures.
    pub fn program_with(
        net: &TrainedMlp,
        cfg: &MvmuConfig,
        noise: &NoiseModel,
        ni: &NonIdealityConfig,
    ) -> Result<Self> {
        cfg.validate()?;
        ni.validate()?;
        Ok(AnalogMlp {
            layer1: program_matrix(&net.w1, cfg, noise, 0x10)?,
            layer2: program_matrix(&net.w2, cfg, noise, 0x20)?,
            b1: net.b1.clone(),
            b2: net.b2.clone(),
            hidden: net.w1.cols(),
            classes: net.w2.cols(),
            dim: cfg.dim,
            ni: *ni,
        })
    }

    /// Classifies one sample through the analog path.
    ///
    /// # Errors
    ///
    /// Propagates crossbar evaluation failures.
    pub fn predict(&self, x: &[f32]) -> Result<usize> {
        self.predict_at(x, 0)
    }

    /// [`AnalogMlp::predict`] at an explicit non-ideality time index:
    /// read noise is resampled per index (cycle-to-cycle), while write
    /// noise and the per-cell drift factors stay fixed. Layer-1 and
    /// layer-2 crossbars use disjoint site keys (0x100/0x200 strips).
    ///
    /// # Errors
    ///
    /// Propagates crossbar evaluation failures.
    pub fn predict_at(&self, x: &[f32], time_index: u64) -> Result<usize> {
        let h_pre =
            analog_mvm(&self.layer1, x, self.dim, self.hidden, &self.ni, 0x100, time_index)?;
        let h: Vec<f32> =
            h_pre.iter().zip(&self.b1).map(|(v, b)| 1.0 / (1.0 + (-(v + b)).exp())).collect();
        let logits =
            analog_mvm(&self.layer2, &h, self.dim, self.classes, &self.ni, 0x200, time_index)?;
        Ok(logits
            .iter()
            .zip(&self.b2)
            .map(|(v, b)| v + b)
            .enumerate()
            .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite"))
            .map(|(i, _)| i)
            .expect("nonempty"))
    }

    /// Classification accuracy on a dataset. Each sample is classified at
    /// its index as the non-ideality time index, so read noise averages
    /// over realizations while the whole sweep stays deterministic.
    ///
    /// # Errors
    ///
    /// Propagates crossbar evaluation failures.
    pub fn accuracy(&self, data: &Dataset) -> Result<f64> {
        let mut correct = 0usize;
        for (i, (x, &label)) in data.samples.iter().zip(&data.labels).enumerate() {
            if self.predict_at(x, i as u64)? == label {
                correct += 1;
            }
        }
        Ok(correct as f64 / data.len().max(1) as f64)
    }
}

/// One point of the Fig. 13 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyPoint {
    /// Bits per memristor cell.
    pub bits_per_cell: u32,
    /// Write-noise σN.
    pub sigma: f64,
    /// Measured classification accuracy.
    pub accuracy: f64,
}

/// Evaluates accuracy at one (precision, noise) point.
///
/// # Errors
///
/// Propagates crossbar failures.
pub fn accuracy_at(
    net: &TrainedMlp,
    test: &Dataset,
    bits_per_cell: u32,
    sigma: f64,
    seed: u64,
) -> Result<AccuracyPoint> {
    let cfg = MvmuConfig { dim: 128, bits_per_cell, ..MvmuConfig::default() };
    let analog = AnalogMlp::program(net, &cfg, &NoiseModel::new(sigma, seed))?;
    Ok(AccuracyPoint { bits_per_cell, sigma, accuracy: analog.accuracy(test)? })
}

/// Evaluates accuracy at one noise-frontier point: write noise, read-side
/// non-ideality, and whatever ADC width `cfg` carries. Deterministic for
/// a fixed `(cfg, noise, ni)` triple.
///
/// # Errors
///
/// Propagates crossbar failures.
pub fn frontier_accuracy(
    net: &TrainedMlp,
    test: &Dataset,
    cfg: &MvmuConfig,
    noise: &NoiseModel,
    ni: &NonIdealityConfig,
) -> Result<f64> {
    AnalogMlp::program_with(net, cfg, noise, ni)?.accuracy(test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{split, synthetic_clusters};
    use crate::train::{train_mlp, TrainConfig};

    fn setup() -> (TrainedMlp, Dataset) {
        // Overlapping clusters: learnable to ~98% but with thin margins,
        // so weight corruption is visible.
        let data = synthetic_clusters(16, 8, 40, 0.8, 11);
        let (train, test) = split(&data, 0.8);
        (train_mlp(&train, &TrainConfig::default()), test)
    }

    #[test]
    fn noiseless_analog_matches_digital_closely() {
        let (net, test) = setup();
        let digital = net.accuracy(&test);
        let p = accuracy_at(&net, &test, 2, 0.0, 1).unwrap();
        assert!((p.accuracy - digital).abs() < 0.05, "analog {} vs digital {digital}", p.accuracy);
        assert!(p.accuracy > 0.85);
    }

    #[test]
    fn two_bit_cells_tolerate_high_noise() {
        // The paper's conclusion: 2-bit cells work even at σN = 0.3.
        let (net, test) = setup();
        let p = accuracy_at(&net, &test, 2, 0.3, 2).unwrap();
        assert!(p.accuracy > 0.75, "2-bit @ σ=0.3 accuracy {}", p.accuracy);
    }

    #[test]
    fn six_bit_cells_collapse_under_noise() {
        let (net, test) = setup();
        let low = accuracy_at(&net, &test, 6, 0.3, 3).unwrap();
        let clean = accuracy_at(&net, &test, 6, 0.0, 3).unwrap();
        assert!(
            low.accuracy < clean.accuracy - 0.15,
            "6-bit: noisy {} vs clean {}",
            low.accuracy,
            clean.accuracy
        );
    }

    #[test]
    fn noise_degradation_grows_with_bits() {
        let (net, test) = setup();
        let acc2 = accuracy_at(&net, &test, 2, 0.2, 4).unwrap().accuracy;
        let acc6 = accuracy_at(&net, &test, 6, 0.2, 4).unwrap().accuracy;
        assert!(acc2 > acc6, "2-bit {acc2} should beat 6-bit {acc6} at σ=0.2");
    }

    #[test]
    fn frontier_accuracy_replays_bit_exactly() {
        let (net, test) = setup();
        let cfg = MvmuConfig { dim: 128, ..MvmuConfig::default() };
        let noise = NoiseModel::new(0.2, 5);
        let ni = NonIdealityConfig { read_sigma: 0.2, seed: 5, ..NonIdealityConfig::ideal() };
        let a = frontier_accuracy(&net, &test, &cfg, &noise, &ni).unwrap();
        let b = frontier_accuracy(&net, &test, &cfg, &noise, &ni).unwrap();
        assert_eq!(a, b, "fixed (config, seed) must replay bit-exactly");
        // The ideal point reproduces the plain analog path.
        let ideal = frontier_accuracy(
            &net,
            &test,
            &cfg,
            &NoiseModel::noiseless(),
            &NonIdealityConfig::ideal(),
        )
        .unwrap();
        let plain = accuracy_at(&net, &test, 2, 0.0, 1).unwrap().accuracy;
        assert_eq!(ideal, plain);
    }

    #[test]
    fn narrow_adc_degrades_accuracy() {
        let (net, test) = setup();
        let noise = NoiseModel::noiseless();
        let ni = NonIdealityConfig::ideal();
        let full = MvmuConfig { dim: 128, ..MvmuConfig::default() };
        let narrow = MvmuConfig { adc_bits_override: Some(2), ..full };
        let collapsed = MvmuConfig { adc_bits_override: Some(1), ..full };
        let acc_full = frontier_accuracy(&net, &test, &full, &noise, &ni).unwrap();
        let acc_narrow = frontier_accuracy(&net, &test, &narrow, &noise, &ni).unwrap();
        let acc_collapsed = frontier_accuracy(&net, &test, &collapsed, &noise, &ni).unwrap();
        assert!(
            acc_narrow < acc_full - 0.05,
            "2-bit ADC {acc_narrow} should lose accuracy vs full {acc_full}"
        );
        assert!(acc_collapsed < 0.5, "1-bit ADC should collapse, got {acc_collapsed}");
    }
}
