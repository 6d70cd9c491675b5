//! The analog matrix-vector multiplication unit.
//!
//! An [`AnalogMvmu`] is the functional model of Fig. 2: a stack of bit-slice
//! crossbars sharing one DAC array, with ADCs, shift-and-add reduction, and
//! the offset-binary bias correction that maps signed weights onto
//! non-negative conductances.
//!
//! [`AnalogMvmu::mvm_into`] is the one evaluation entry point, and what
//! bends the analog column sums away from the exact product is data, not
//! a choice of function: the write noise programmed into the conductances
//! ([`AnalogMvmu::program`]) and the read-side [`Perturbation`] of each
//! call — read noise, drift and IR drop ([`NonIdealityConfig`]), stuck
//! cells and dead columns ([`FaultPlan`]), keyed by crossbar site and
//! time. When both are empty the exact split-byte integer kernel
//! ([`crate::kernel`]) runs; otherwise the `f64` effective-weight path
//! does. A narrowed ADC ([`MvmuConfig::adc_bits_override`]) quantizes the
//! outputs of either path.
//!
//! Beside it stand [`AnalogMvmu::mvm`], an allocating wrapper without a
//! read-side perturbation, and [`AnalogMvmu::mvm_bit_serial`], the Fig. 2b
//! reference pipeline (16 DAC phases × per-slice analog column sums × ADC
//! quantization with clamping × shift-and-add) that the tests hold the
//! fast paths against. With noiseless programming it is bit-exact with
//! [`FixedMatrix::mvm_exact`].
//!
//! The physical [`CrossbarSlice`]s are built only when write noise is
//! programmed (their noisy conductances define the effective weights) or
//! on demand inside [`AnalogMvmu::mvm_bit_serial`]; a noiseless MVMU
//! stores just its signed weights.

use crate::kernel;
use crate::noise::{keyed_gaussian, keyed_hash, unit_from, NoiseModel};
use crate::slice::{encode_weight, slice_levels, CrossbarSlice};
use puma_core::config::{FaultPlan, MvmuConfig, NonIdealityConfig};
use puma_core::error::{PumaError, Result};
use puma_core::fixed::{narrow_accumulator, Fixed, FRAC_BITS};
use puma_core::tensor::FixedMatrix;
use serde::{Deserialize, Serialize};

/// Offset added to signed weights so conductances are non-negative.
const WEIGHT_OFFSET: i64 = 32768;

/// Columns the `f64` path accumulates side by side (one stack block).
const F64_BLOCK: usize = 64;

/// Hash tags decorrelating the perturbation families drawn from one seed.
const TAG_READ_NOISE: u64 = 0x5245_4144; // "READ"
const TAG_DRIFT: u64 = 0x4452_4654; // "DRFT"
const TAG_STUCK: u64 = 0x5354_554B; // "STUK"
const TAG_STUCK_LEVEL: u64 = 0x534C_564C; // "SLVL"
const TAG_DEAD_COLUMN: u64 = 0x4443_4F4C; // "DCOL"

/// Rounds an ADC output code to the nearest representable step (an ADC of
/// `b < 16` bits resolves Q4.12 outputs in `2^(16−b)`-raw-bit steps).
fn quantize_adc(raw: i16, step: i64) -> i16 {
    if step <= 1 {
        return raw;
    }
    let r = i64::from(raw);
    let half = step / 2;
    let q = if r >= 0 { (r + half) / step * step } else { -((-r + half) / step * step) };
    q.clamp(i64::from(i16::MIN), i64::from(i16::MAX)) as i16
}

/// The read-side perturbation of one analog MVM, passed to
/// [`AnalogMvmu::mvm_into`] as data.
///
/// Deterministic by construction: every perturbation is a counter-based
/// hash of `(seed, site, cell, time_index)` — see [`keyed_gaussian`] — so
/// a fixed value replays bit-exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Perturbation {
    /// Read-side conductance noise (resampled per `time_index`),
    /// saturating conductance drift, and first-order IR drop along the
    /// columns.
    pub ni: NonIdealityConfig,
    /// Crossbar defects: stuck cells read a frozen random conductance (no
    /// drift, no read noise), and a dead column's analog current reads as
    /// zero. Defects are persistent — a hash of `(faults.seed, site,
    /// cell)`, independent of `time_index`. Only the plan's cell faults
    /// act here.
    pub faults: FaultPlan,
    /// The physical crossbar. Callers key it resident-relative so
    /// co-tenants and relocation don't shift a model's realization.
    pub site: u64,
    /// The simulated cycle of the MVM relative to the run's start.
    pub time_index: u64,
}

impl Perturbation {
    /// No read-side perturbation.
    pub fn none() -> Self {
        Perturbation {
            ni: NonIdealityConfig::ideal(),
            faults: FaultPlan::none(),
            site: 0,
            time_index: 0,
        }
    }

    /// True when nothing perturbs the read: an ideal [`NonIdealityConfig`]
    /// and no crossbar-cell faults, whatever the seeds, site and time.
    pub fn is_empty(&self) -> bool {
        self.ni.is_ideal() && !self.faults.has_cell_faults()
    }
}

/// Functional model of one logical MVMU (a stack of bit-slice crossbars).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalogMvmu {
    cfg: MvmuConfig,
    /// Signed Q4.12 weight bits, column-major (`weights[col * dim + row]`),
    /// zero-padded to `dim × dim`.
    weights: Vec<i16>,
    /// The physical slices, least significant first. Built only when
    /// write noise was programmed; empty otherwise.
    slices: Vec<CrossbarSlice>,
    /// Effective real-valued weights reconstructed from the noisy
    /// conductances, row-major (`effective[row * dim + col]`; only
    /// populated when programmed with noise).
    effective: Option<Vec<f64>>,
    /// The noise model used at the last programming.
    noise: NoiseModel,
    /// Logical (unpadded) shape of the stored matrix.
    logical_rows: usize,
    logical_cols: usize,
}

impl AnalogMvmu {
    /// Creates an unprogrammed MVMU (all weights zero).
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::InvalidConfig`] if the configuration is invalid.
    pub fn new(cfg: MvmuConfig) -> Result<Self> {
        cfg.validate()?;
        Ok(AnalogMvmu {
            weights: vec![0; cfg.dim * cfg.dim],
            slices: Vec::new(),
            effective: None,
            noise: NoiseModel::noiseless(),
            logical_rows: cfg.dim,
            logical_cols: cfg.dim,
            cfg,
        })
    }

    /// The configuration this MVMU was built with.
    pub fn config(&self) -> &MvmuConfig {
        &self.cfg
    }

    /// Crossbar dimension.
    pub fn dim(&self) -> usize {
        self.cfg.dim
    }

    /// Logical (unpadded) shape of the programmed matrix.
    pub fn logical_shape(&self) -> (usize, usize) {
        (self.logical_rows, self.logical_cols)
    }

    /// Programs a weight matrix (serial writes at configuration time,
    /// §3.2.5), applying `noise` to every slice. Matrices smaller than
    /// `dim × dim` are zero-padded.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::InvalidShape`] if the matrix exceeds the
    /// crossbar dimensions, or [`PumaError::InvalidConfig`] if the noise
    /// sigma is negative or not finite.
    pub fn program(&mut self, weights: &FixedMatrix, noise: &NoiseModel) -> Result<()> {
        let dim = self.cfg.dim;
        let (rows, cols) = (weights.rows(), weights.cols());
        if rows > dim || cols > dim {
            return Err(PumaError::InvalidShape {
                what: format!("matrix {rows}x{cols} exceeds crossbar {dim}x{dim}"),
            });
        }
        if !noise.sigma.is_finite() || noise.sigma < 0.0 {
            return Err(PumaError::InvalidConfig {
                what: format!("write-noise sigma {} must be finite and non-negative", noise.sigma),
            });
        }
        self.logical_rows = rows;
        self.logical_cols = cols;
        self.weights.fill(0);
        let data = weights.as_slice();
        for row in 0..rows {
            for col in 0..cols {
                self.weights[col * dim + row] = data[row * cols + col].to_bits();
            }
        }
        self.noise = noise.clone();
        if noise.is_noiseless() {
            self.slices = Vec::new();
            self.effective = None;
        } else {
            self.slices = self.ideal_slices()?;
            for slice in &mut self.slices {
                noise.apply(slice);
            }
            self.effective = Some(self.reconstruct_effective());
        }
        Ok(())
    }

    /// The physical slices of the stored weights with ideal conductances,
    /// least significant first.
    fn ideal_slices(&self) -> Result<Vec<CrossbarSlice>> {
        let dim = self.cfg.dim;
        let mut slices = (0..self.cfg.slices())
            .map(|s| CrossbarSlice::new(dim, self.cfg.bits_per_cell, s))
            .collect::<Result<Vec<_>>>()?;
        for row in 0..dim {
            for col in 0..dim {
                let enc = encode_weight(self.weights[col * dim + row]);
                for (slice, level) in slices.iter_mut().zip(slice_levels(enc, &self.cfg)) {
                    slice.write_cell(row, col, level);
                }
            }
        }
        Ok(slices)
    }

    /// Rebuilds the effective real-valued weight matrix from programmed
    /// (noisy) conductances: `w_eff = Σ_s g_s · 2^(b·s) − offset`.
    fn reconstruct_effective(&self) -> Vec<f64> {
        let dim = self.cfg.dim;
        let mut eff = vec![-(WEIGHT_OFFSET as f64); dim * dim];
        for slice in &self.slices {
            let sig = f64::from(slice.significance());
            for (i, e) in eff.iter_mut().enumerate() {
                *e += sig * slice.conductance(i / dim, i % dim);
            }
        }
        eff
    }

    /// The ideal stored weight at `(row, col)` (independent of noise).
    ///
    /// # Panics
    ///
    /// Panics if indices exceed the crossbar dimension.
    pub fn weight(&self, row: usize, col: usize) -> Fixed {
        assert!(row < self.cfg.dim && col < self.cfg.dim, "index out of bounds");
        Fixed::from_bits(self.weights[col * self.cfg.dim + row])
    }

    /// Raw-bit step of the ADC output grid: 1 unless
    /// [`MvmuConfig::adc_bits_override`] narrows the converter below 16 bits.
    fn adc_step(&self) -> i64 {
        match self.cfg.adc_bits_override {
            Some(b) if b < 16 => 1i64 << (16 - b),
            _ => 1,
        }
    }

    /// Computes one MVM into `out` without allocating.
    ///
    /// The split-byte integer kernel ([`crate::kernel`]) runs iff the
    /// perturbation is empty: no write noise was programmed and `p`
    /// [is empty](Perturbation::is_empty). Otherwise the `f64`
    /// effective-weight path runs: each column accumulates
    /// `x_r · w_eff[r][c]` in row-ascending order, where `w_eff` is the
    /// write-noisy weight with `p`'s drift, read noise and stuck cells
    /// applied, and then IR drop attenuates the analog column current and
    /// a dead column reads zero current (the digital offset correction
    /// still subtracts, so it outputs `−offset·Σx`). Either path
    /// quantizes its outputs to the ADC grid when
    /// [`MvmuConfig::adc_bits_override`] narrows the converter.
    ///
    /// On noiseless weights the `f64` path is exact (products stay below
    /// 2³¹ and sums below 2³⁹, within the 53-bit mantissa), so an ideal
    /// perturbation reproduces the integer kernel bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::ShapeMismatch`] unless `input` and `out` are
    /// both `dim` long.
    pub fn mvm_into(&self, input: &[Fixed], p: &Perturbation, out: &mut [Fixed]) -> Result<()> {
        let dim = self.cfg.dim;
        for len in [input.len(), out.len()] {
            if len != dim {
                return Err(PumaError::ShapeMismatch { expected: dim, actual: len });
            }
        }
        if self.effective.is_none() && p.is_empty() {
            kernel::mvm(&self.weights, dim, self.logical_rows, self.logical_cols, input, out);
            let step = self.adc_step();
            if step > 1 {
                for o in out.iter_mut() {
                    *o = Fixed::from_bits(quantize_adc(o.to_bits(), step));
                }
            }
        } else {
            self.mvm_analog(input, p, out);
        }
        Ok(())
    }

    /// Computes the MVM with no read-side perturbation into a new vector
    /// ([`AnalogMvmu::mvm_into`] with [`Perturbation::none`]).
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::ShapeMismatch`] if `input.len() != dim`.
    pub fn mvm(&self, input: &[Fixed]) -> Result<Vec<Fixed>> {
        let mut out = vec![Fixed::ZERO; self.cfg.dim];
        self.mvm_into(input, &Perturbation::none(), &mut out)?;
        Ok(out)
    }

    /// Reference bit-serial pipeline (Fig. 2b): for each of the 16 input
    /// bits, drive the DACs, read per-slice analog column sums, quantize
    /// through the ADC (clamping at its full-scale range), and shift-and-add
    /// into the accumulator; finally apply the offset correction and narrow
    /// to Q4.12.
    ///
    /// Uses programmed (possibly noisy) conductances; a noiseless MVMU
    /// builds its ideal slices for the call.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::ShapeMismatch`] if `input.len() != dim`.
    pub fn mvm_bit_serial(&self, input: &[Fixed]) -> Result<Vec<Fixed>> {
        let dim = self.cfg.dim;
        if input.len() != dim {
            return Err(PumaError::ShapeMismatch { expected: dim, actual: input.len() });
        }
        let built;
        let slices = if self.slices.is_empty() {
            built = self.ideal_slices()?;
            &built
        } else {
            &self.slices
        };
        let adc_max = (1u64 << self.cfg.adc_bits()) - 1;
        let mut acc = vec![0i64; dim];
        let mut bits = vec![false; dim];
        for phase in 0..16u32 {
            for (i, x) in input.iter().enumerate() {
                bits[i] = (x.to_bits() as u16) & (1 << phase) != 0;
            }
            // Two's complement: bit 15 carries negative weight.
            let phase_weight: i64 = if phase == 15 { -(1i64 << 15) } else { 1i64 << phase };
            for slice in slices {
                let sums = slice.column_sums_programmed(&bits);
                let sig = slice.significance() as i64;
                for (col, &current) in sums.iter().enumerate() {
                    // ADC: round to the nearest code, clamp at full scale.
                    let code = current.round().clamp(0.0, adc_max as f64) as i64;
                    acc[col] += phase_weight * sig * code;
                }
            }
        }
        let input_sum: i64 = input.iter().map(|x| x.to_bits() as i64).sum();
        let correction = WEIGHT_OFFSET * input_sum;
        Ok(acc
            .into_iter()
            .map(|a| Fixed::from_bits(narrow_accumulator(a - correction, FRAC_BITS)))
            .collect())
    }

    /// The `f64` effective-weight path of [`AnalogMvmu::mvm_into`].
    fn mvm_analog(&self, input: &[Fixed], p: &Perturbation, out: &mut [Fixed]) {
        let dim = self.cfg.dim;
        let (ni, faults, site, time_index) = (&p.ni, &p.faults, p.site, p.time_index);
        let bits = self.cfg.bits_per_cell;
        // Read noise perturbs every slice independently, so one weight
        // sees a sigma of the per-level sigma times sqrt(Σ_s sig_s²).
        let agg_sig = (0..self.cfg.slices())
            .map(|s| f64::from(1u32 << (bits * s)).powi(2))
            .sum::<f64>()
            .sqrt();
        let sigma_w = NoiseModel::new(ni.read_sigma, 0).level_sigma(bits) * agg_sig;
        let tau = if ni.drift_nu > 0.0 {
            let t = time_index as f64;
            t / (t + ni.drift_t0_cycles as f64)
        } else {
            0.0
        };
        let offset = WEIGHT_OFFSET as f64;
        let (input_sum, abs_sum) = input.iter().fold((0i64, 0i64), |(sum, abs), x| {
            let xb = i64::from(x.to_bits());
            (sum + xb, abs + xb.abs())
        });
        let correction = offset * input_sum as f64;
        let activity = abs_sum as f64 / (dim as f64 * offset);
        let adc_step = self.adc_step();
        // Write noise alone reads the effective-weight sum directly; a
        // read-side perturbation or a narrowed ADC reads the analog column
        // current (offset still encoded) through the peripheral model.
        let analog_column = !p.is_empty() || self.cfg.adc_bits_override.is_some();
        let write_noise_only = if p.is_empty() { self.effective.as_deref() } else { None };
        // Each column sums its rows in ascending order; a block of columns
        // accumulates side by side so the write-noise-only sum vectorizes
        // across columns.
        let mut acc = [0.0f64; F64_BLOCK];
        for c0 in (0..dim).step_by(F64_BLOCK) {
            let acc = &mut acc[..(dim - c0).min(F64_BLOCK)];
            acc.fill(0.0);
            for (row, &x) in input.iter().enumerate() {
                let xb = x.to_bits();
                if xb == 0 {
                    continue;
                }
                let xf = f64::from(xb);
                if let Some(e) = write_noise_only {
                    for (a, &w) in acc.iter_mut().zip(&e[row * dim + c0..]) {
                        *a += xf * w;
                    }
                    continue;
                }
                for (j, a) in acc.iter_mut().enumerate() {
                    let col = c0 + j;
                    // Perturbation keys address cells row-major.
                    let cell = (row * dim + col) as u64;
                    // A stuck cell reads a frozen conductance: drift and
                    // read noise no longer reach it.
                    if faults.stuck_cell_rate > 0.0
                        && unit_from(keyed_hash(faults.seed, &[site, cell, TAG_STUCK]))
                            < faults.stuck_cell_rate
                    {
                        let level =
                            unit_from(keyed_hash(faults.seed, &[site, cell, TAG_STUCK_LEVEL]));
                        *a += xf * (level * 65535.0 - offset);
                        continue;
                    }
                    // Base effective weight: write-noisy when programmed
                    // so, otherwise the ideal weight.
                    let w = match &self.effective {
                        Some(e) => e[row * dim + col],
                        None => f64::from(self.weights[col * dim + row]),
                    };
                    let mut wp = w;
                    if tau > 0.0 {
                        // Conductances decay toward zero, so the signed
                        // weight drifts toward −offset.
                        let u = 0.5 + unit_from(keyed_hash(ni.seed, &[site, cell, TAG_DRIFT]));
                        let m = (1.0 - ni.drift_nu * u * tau).max(0.0);
                        wp = m * (w + offset) - offset;
                    }
                    if sigma_w > 0.0 {
                        wp += sigma_w
                            * keyed_gaussian(ni.seed, &[site, cell, time_index, TAG_READ_NOISE]);
                    }
                    *a += xf * wp;
                }
            }
            for (j, (o, &a)) in out[c0..].iter_mut().zip(acc.iter()).enumerate() {
                let col = c0 + j;
                // A dead column's ADC sees zero analog current; the
                // digital offset correction still subtracts.
                let value = if faults.dead_column_rate > 0.0
                    && unit_from(keyed_hash(faults.seed, &[site, col as u64, TAG_DEAD_COLUMN]))
                        < faults.dead_column_rate
                {
                    -correction
                } else if analog_column {
                    // IR drop attenuates the analog column current (offset
                    // still encoded); the digital offset correction is
                    // exact.
                    let att = if ni.ir_drop_alpha > 0.0 {
                        (1.0 - ni.ir_drop_alpha * activity * (col + 1) as f64 / dim as f64).max(0.0)
                    } else {
                        1.0
                    };
                    att * (a + correction) - correction
                } else {
                    a
                };
                let raw = narrow_accumulator(value.round() as i64, FRAC_BITS);
                *o = Fixed::from_bits(quantize_adc(raw, adc_step));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puma_core::tensor::Matrix;

    fn small_cfg() -> MvmuConfig {
        MvmuConfig { dim: 16, ..MvmuConfig::default() }
    }

    fn test_matrix(rows: usize, cols: usize) -> FixedMatrix {
        Matrix::from_fn(rows, cols, |r, c| {
            0.05 * (r as f32 - 3.0) - 0.07 * (c as f32 - 2.0) + 0.01 * ((r * c) as f32 % 5.0)
        })
        .quantize()
    }

    fn test_input(n: usize) -> Vec<Fixed> {
        (0..n)
            .map(|i| Fixed::from_f32(0.1 * (i as f32 - n as f32 / 2.0) / n as f32 + 0.05))
            .collect()
    }

    /// [`AnalogMvmu::mvm_into`] into a fresh output vector.
    fn run(mvmu: &AnalogMvmu, x: &[Fixed], p: &Perturbation) -> Vec<Fixed> {
        let mut out = vec![Fixed::ZERO; mvmu.dim()];
        mvmu.mvm_into(x, p, &mut out).unwrap();
        out
    }

    /// A read-side perturbation of `ni` at `(site, time_index)`.
    fn degraded(ni: NonIdealityConfig, site: u64, time_index: u64) -> Perturbation {
        Perturbation { ni, site, time_index, ..Perturbation::none() }
    }

    /// A cell-fault perturbation of `faults` at `(site, time_index)`.
    fn faulted(faults: FaultPlan, site: u64, time_index: u64) -> Perturbation {
        Perturbation { faults, site, time_index, ..Perturbation::none() }
    }

    #[test]
    fn exact_path_matches_digital_reference() {
        let m = test_matrix(16, 16);
        let mut mvmu = AnalogMvmu::new(small_cfg()).unwrap();
        mvmu.program(&m, &NoiseModel::noiseless()).unwrap();
        let x = test_input(16);
        assert_eq!(run(&mvmu, &x, &Perturbation::none()), m.mvm_exact(&x).unwrap());
    }

    #[test]
    fn bit_serial_matches_exact_when_noiseless() {
        let m = test_matrix(16, 16);
        let mut mvmu = AnalogMvmu::new(small_cfg()).unwrap();
        mvmu.program(&m, &NoiseModel::noiseless()).unwrap();
        let x = test_input(16);
        assert_eq!(mvmu.mvm_bit_serial(&x).unwrap(), run(&mvmu, &x, &Perturbation::none()));
    }

    #[test]
    fn bit_serial_handles_negative_inputs_and_weights() {
        let m = Matrix::from_fn(8, 8, |r, c| if (r + c) % 2 == 0 { -0.5 } else { 0.25 }).quantize();
        let cfg = MvmuConfig { dim: 8, ..MvmuConfig::default() };
        let mut mvmu = AnalogMvmu::new(cfg).unwrap();
        mvmu.program(&m, &NoiseModel::noiseless()).unwrap();
        let x: Vec<Fixed> =
            (0..8).map(|i| Fixed::from_f32(if i % 2 == 0 { -1.0 } else { 0.5 })).collect();
        assert_eq!(mvmu.mvm_bit_serial(&x).unwrap(), m.mvm_exact(&x).unwrap());
    }

    #[test]
    fn padding_preserves_logical_result() {
        let m = test_matrix(5, 7);
        let mut mvmu = AnalogMvmu::new(small_cfg()).unwrap();
        mvmu.program(&m, &NoiseModel::noiseless()).unwrap();
        assert_eq!(mvmu.logical_shape(), (5, 7));
        let mut x = test_input(5);
        x.resize(16, Fixed::ZERO);
        let y = mvmu.mvm(&x).unwrap();
        let reference = m.mvm_exact(&x[..5]).unwrap();
        assert_eq!(&y[..7], reference.as_slice());
        assert!(y[7..].iter().all(|&v| v == Fixed::ZERO));
    }

    #[test]
    fn oversized_matrix_rejected() {
        let mut mvmu = AnalogMvmu::new(small_cfg()).unwrap();
        assert!(mvmu.program(&test_matrix(17, 4), &NoiseModel::noiseless()).is_err());
    }

    #[test]
    fn invalid_noise_sigma_rejected() {
        let mut mvmu = AnalogMvmu::new(small_cfg()).unwrap();
        for sigma in [-0.1, f64::NAN, f64::INFINITY] {
            let err = mvmu.program(&test_matrix(16, 16), &NoiseModel::new(sigma, 1)).unwrap_err();
            assert!(matches!(err, PumaError::InvalidConfig { .. }), "sigma {sigma}: {err:?}");
        }
    }

    #[test]
    fn wrong_input_length_rejected() {
        let mvmu = AnalogMvmu::new(small_cfg()).unwrap();
        assert!(mvmu.mvm(&test_input(8)).is_err());
        assert!(mvmu.mvm_bit_serial(&test_input(8)).is_err());
        let mut short = vec![Fixed::ZERO; 8];
        assert!(mvmu.mvm_into(&test_input(16), &Perturbation::none(), &mut short).is_err());
    }

    #[test]
    fn weight_readback_roundtrips() {
        let m = test_matrix(16, 16);
        let mut mvmu = AnalogMvmu::new(small_cfg()).unwrap();
        mvmu.program(&m, &NoiseModel::noiseless()).unwrap();
        for r in 0..16 {
            for c in 0..16 {
                assert_eq!(mvmu.weight(r, c), m.get(r, c));
            }
        }
    }

    #[test]
    fn slices_are_built_only_under_write_noise() {
        let mut mvmu = AnalogMvmu::new(small_cfg()).unwrap();
        mvmu.program(&test_matrix(16, 16), &NoiseModel::noiseless()).unwrap();
        assert!(mvmu.slices.is_empty() && mvmu.effective.is_none());
        mvmu.program(&test_matrix(16, 16), &NoiseModel::new(0.1, 7)).unwrap();
        assert_eq!(mvmu.slices.len(), small_cfg().slices() as usize);
        assert!(mvmu.effective.is_some());
        // Reprogramming without noise drops them again.
        mvmu.program(&test_matrix(16, 16), &NoiseModel::noiseless()).unwrap();
        assert!(mvmu.slices.is_empty() && mvmu.effective.is_none());
    }

    #[test]
    fn noisy_paths_agree_closely() {
        let m = test_matrix(16, 16);
        let mut mvmu = AnalogMvmu::new(small_cfg()).unwrap();
        mvmu.program(&m, &NoiseModel::new(0.1, 99)).unwrap();
        let x = test_input(16);
        let fast = run(&mvmu, &x, &Perturbation::none());
        let serial = mvmu.mvm_bit_serial(&x).unwrap();
        for (a, b) in fast.iter().zip(serial.iter()) {
            assert!(
                (a.to_f32() - b.to_f32()).abs() < 0.2,
                "fast {} vs bit-serial {}",
                a.to_f32(),
                b.to_f32()
            );
        }
    }

    #[test]
    fn low_noise_output_stays_near_ideal() {
        let m = test_matrix(16, 16);
        let mut mvmu = AnalogMvmu::new(small_cfg()).unwrap();
        mvmu.program(&m, &NoiseModel::new(0.05, 3)).unwrap();
        let x = test_input(16);
        let noisy = mvmu.mvm(&x).unwrap();
        let ideal = m.mvm_exact(&x).unwrap();
        for (a, b) in noisy.iter().zip(ideal.iter()) {
            assert!((a.to_f32() - b.to_f32()).abs() < 0.1);
        }
    }

    #[test]
    fn integer_kernel_matches_the_f64_path_on_noiseless_weights() {
        // The f64 path is exact on noiseless weights, so the integer
        // kernel (with the ADC quantizer after it) must reproduce it for
        // every converter width.
        let m = test_matrix(16, 16);
        let x = test_input(16);
        for adc in [None, Some(16), Some(8), Some(3)] {
            let mut mvmu =
                AnalogMvmu::new(MvmuConfig { adc_bits_override: adc, ..small_cfg() }).unwrap();
            mvmu.program(&m, &NoiseModel::noiseless()).unwrap();
            let mut via_f64 = vec![Fixed::ZERO; 16];
            mvmu.mvm_analog(&x, &Perturbation::none(), &mut via_f64);
            assert_eq!(run(&mvmu, &x, &Perturbation::none()), via_f64, "ADC override {adc:?}");
        }
    }

    #[test]
    fn degraded_path_with_ideal_config_matches_exact() {
        let m = test_matrix(16, 16);
        let mut mvmu = AnalogMvmu::new(small_cfg()).unwrap();
        mvmu.program(&m, &NoiseModel::noiseless()).unwrap();
        let x = test_input(16);
        let ni = NonIdealityConfig::ideal();
        assert_eq!(run(&mvmu, &x, &degraded(ni, 3, 1000)), m.mvm_exact(&x).unwrap());
        // A wide ADC override changes nothing either (step 1).
        let wide = MvmuConfig { adc_bits_override: Some(16), ..small_cfg() };
        let mut mvmu = AnalogMvmu::new(wide).unwrap();
        mvmu.program(&m, &NoiseModel::noiseless()).unwrap();
        assert_eq!(run(&mvmu, &x, &degraded(ni, 3, 1000)), m.mvm_exact(&x).unwrap());
    }

    #[test]
    fn degraded_path_replays_bit_exactly() {
        let m = test_matrix(16, 16);
        let mut mvmu = AnalogMvmu::new(small_cfg()).unwrap();
        mvmu.program(&m, &NoiseModel::noiseless()).unwrap();
        let x = test_input(16);
        let ni = NonIdealityConfig {
            read_sigma: 0.2,
            drift_nu: 0.1,
            ir_drop_alpha: 0.05,
            seed: 42,
            ..NonIdealityConfig::ideal()
        };
        let a = run(&mvmu, &x, &degraded(ni, 5, 777));
        assert_eq!(a, run(&mvmu, &x, &degraded(ni, 5, 777)), "same key replays");
        assert_ne!(a, run(&mvmu, &x, &degraded(ni, 6, 777)), "site shifts realization");
        assert_ne!(a, run(&mvmu, &x, &degraded(ni, 5, 778)), "read noise is per-cycle");
        let reseeded = NonIdealityConfig { seed: 43, ..ni };
        assert_ne!(a, run(&mvmu, &x, &degraded(reseeded, 5, 777)), "seed reseeds");
    }

    #[test]
    fn drift_is_time_saturating_and_pure() {
        let m = test_matrix(16, 16);
        let mut mvmu = AnalogMvmu::new(small_cfg()).unwrap();
        mvmu.program(&m, &NoiseModel::noiseless()).unwrap();
        let x = test_input(16);
        let ni = NonIdealityConfig {
            drift_nu: 0.2,
            drift_t0_cycles: 1000,
            seed: 9,
            ..NonIdealityConfig::ideal()
        };
        let ideal = run(&mvmu, &x, &Perturbation::none());
        let at0 = run(&mvmu, &x, &degraded(ni, 0, 0));
        assert_eq!(at0, ideal, "no time has passed, no drift");
        let early = run(&mvmu, &x, &degraded(ni, 0, 100));
        let late = run(&mvmu, &x, &degraded(ni, 0, 1_000_000));
        let err = |out: &[Fixed]| {
            out.iter()
                .zip(ideal.iter())
                .map(|(a, b)| (a.to_f32() - b.to_f32()).abs() as f64)
                .sum::<f64>()
        };
        assert!(err(&late) > err(&early), "drift grows with simulated time");
        assert_eq!(late, run(&mvmu, &x, &degraded(ni, 0, 1_000_000)), "pure in time");
    }

    #[test]
    fn ir_drop_attenuates_far_columns_more() {
        // A uniform positive matrix and input: the far column loses more
        // analog current than the near one.
        let m = Matrix::from_fn(16, 16, |_, _| 0.5).quantize();
        let mut mvmu = AnalogMvmu::new(small_cfg()).unwrap();
        mvmu.program(&m, &NoiseModel::noiseless()).unwrap();
        let x: Vec<Fixed> = (0..16).map(|_| Fixed::from_f32(0.5)).collect();
        let ni = NonIdealityConfig { ir_drop_alpha: 0.1, ..NonIdealityConfig::ideal() };
        let out = run(&mvmu, &x, &degraded(ni, 0, 0));
        let ideal = run(&mvmu, &x, &Perturbation::none());
        let drop0 = (ideal[0].to_f32() - out[0].to_f32()).abs();
        let drop_last = (ideal[15].to_f32() - out[15].to_f32()).abs();
        assert!(drop_last > drop0, "far column must sag more: {drop0} vs {drop_last}");
    }

    #[test]
    fn narrow_adc_quantizes_output_steps() {
        let m = test_matrix(16, 16);
        let cfg = MvmuConfig { adc_bits_override: Some(8), ..small_cfg() };
        let mut mvmu = AnalogMvmu::new(cfg).unwrap();
        mvmu.program(&m, &NoiseModel::noiseless()).unwrap();
        let x = test_input(16);
        let out = run(&mvmu, &x, &Perturbation::none());
        let step = 1 << 8;
        for v in &out {
            assert_eq!(i32::from(v.to_bits()) % step, 0, "output {v:?} off the ADC grid");
        }
        // The quantized output still tracks the exact one within a step.
        for (q, e) in out.iter().zip(m.mvm_exact(&x).unwrap()) {
            assert!((i32::from(q.to_bits()) - i32::from(e.to_bits())).abs() <= step / 2);
        }
    }

    #[test]
    fn degraded_path_stacks_on_write_noise() {
        let m = test_matrix(16, 16);
        let mut mvmu = AnalogMvmu::new(small_cfg()).unwrap();
        mvmu.program(&m, &NoiseModel::new(0.1, 99)).unwrap();
        let x = test_input(16);
        // With ideal knobs, any site or time reproduces the plain
        // write-noisy MVM (same effective weights, exact f64 accumulation).
        let ni = NonIdealityConfig::ideal();
        assert_eq!(run(&mvmu, &x, &degraded(ni, 4, 99)), mvmu.mvm(&x).unwrap());
        // A read-side knob moves it.
        let noisy = NonIdealityConfig { read_sigma: 0.3, seed: 1, ..ni };
        assert_ne!(run(&mvmu, &x, &degraded(noisy, 4, 99)), mvmu.mvm(&x).unwrap());
    }

    #[test]
    fn faulted_path_with_empty_plan_matches_degraded() {
        let m = test_matrix(16, 16);
        let mut mvmu = AnalogMvmu::new(small_cfg()).unwrap();
        mvmu.program(&m, &NoiseModel::noiseless()).unwrap();
        let x = test_input(16);
        let plan = FaultPlan::none();
        assert_eq!(
            run(&mvmu, &x, &faulted(plan, 3, 1000)),
            m.mvm_exact(&x).unwrap(),
            "empty plan takes the exact path"
        );
        // A bare seed change keeps the plan inert.
        let seeded = FaultPlan { seed: 99, ..plan };
        assert!(faulted(seeded, 3, 1000).is_empty());
        assert_eq!(run(&mvmu, &x, &faulted(seeded, 3, 1000)), m.mvm_exact(&x).unwrap());
    }

    #[test]
    fn stuck_cells_are_persistent_and_replay() {
        let m = test_matrix(16, 16);
        let mut mvmu = AnalogMvmu::new(small_cfg()).unwrap();
        mvmu.program(&m, &NoiseModel::noiseless()).unwrap();
        let x = test_input(16);
        let plan = FaultPlan { stuck_cell_rate: 0.2, seed: 7, ..FaultPlan::none() };
        let a = run(&mvmu, &x, &faulted(plan, 5, 0));
        assert_ne!(a, m.mvm_exact(&x).unwrap(), "stuck cells corrupt the output");
        assert_eq!(a, run(&mvmu, &x, &faulted(plan, 5, 0)), "same key replays");
        // Defects are frozen in time (unlike read noise) but move with
        // the site and the seed.
        assert_eq!(a, run(&mvmu, &x, &faulted(plan, 5, 12345)), "time-invariant");
        assert_ne!(a, run(&mvmu, &x, &faulted(plan, 6, 0)), "site shifts defects");
        let reseeded = FaultPlan { seed: 8, ..plan };
        assert_ne!(a, run(&mvmu, &x, &faulted(reseeded, 5, 0)), "seed reseeds");
    }

    #[test]
    fn dead_column_reads_negative_offset_correction() {
        let m = test_matrix(16, 16);
        let mut mvmu = AnalogMvmu::new(small_cfg()).unwrap();
        mvmu.program(&m, &NoiseModel::noiseless()).unwrap();
        let x = test_input(16);
        // Rate 1.0: every column is dead, so every output equals the
        // narrowed −offset·Σx regardless of the weights.
        let plan = FaultPlan { dead_column_rate: 1.0, seed: 3, ..FaultPlan::none() };
        let out = run(&mvmu, &x, &faulted(plan, 0, 0));
        let input_sum: i64 = x.iter().map(|v| i64::from(v.to_bits())).sum();
        let want = Fixed::from_bits(narrow_accumulator(-32768 * input_sum, FRAC_BITS));
        assert!(out.iter().all(|&v| v == want), "dead columns read −offset correction");
        // A partial rate kills some columns and leaves the rest exact.
        let partial = FaultPlan { dead_column_rate: 0.3, seed: 3, ..FaultPlan::none() };
        let out = run(&mvmu, &x, &faulted(partial, 0, 0));
        let exact = m.mvm_exact(&x).unwrap();
        let dead = out.iter().zip(&exact).filter(|(a, b)| a != b).count();
        assert!(dead > 0 && dead < 16, "expected a partial kill, got {dead}/16");
    }

    #[test]
    fn high_noise_on_many_bits_corrupts_output() {
        let m = test_matrix(16, 16);
        let cfg = MvmuConfig { dim: 16, bits_per_cell: 6, ..MvmuConfig::default() };
        let mut mvmu = AnalogMvmu::new(cfg).unwrap();
        mvmu.program(&m, &NoiseModel::new(0.3, 3)).unwrap();
        let x = test_input(16);
        let noisy = mvmu.mvm(&x).unwrap();
        let ideal = m.mvm_exact(&x).unwrap();
        let max_err = noisy
            .iter()
            .zip(ideal.iter())
            .map(|(a, b)| (a.to_f32() - b.to_f32()).abs())
            .fold(0.0f32, f32::max);
        assert!(max_err > 0.2, "expected large corruption, got {max_err}");
    }
}
