//! Memristor programming (write) noise.
//!
//! Fig. 13 of the paper evaluates inference accuracy against write-noise
//! levels σN ∈ {0, 0.1, 0.2, 0.3} for 1-6 bits per cell. The physical
//! picture: the conductance range of the device is fixed, so packing more
//! levels into it shrinks the level spacing, and a fixed-magnitude
//! programming error corrupts more significant bits. We normalize σN as
//! the conductance error in units of a mid-scale (4-bit) reference level spacing:
//! a slice with `b` bits per cell sees a level error of
//! `σN × (2^b − 1) / 15` level units. At 2 bits even σN = 0.3 perturbs a
//! cell by ~1.4% of a level ("PUMA with 2-bit memristor performs well even
//! at high noise levels"); at 6 bits the same σN is a third of a level and
//! inference collapses — the Fig. 13 shape.

use crate::slice::CrossbarSlice;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Write-noise model applied when programming crossbar slices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NoiseModel {
    /// Noise level σN as defined in Fig. 13 (in units of the 4-bit
    /// reference level spacing; see the module docs).
    pub sigma: f64,
    /// RNG seed, so experiments are reproducible.
    pub seed: u64,
}

impl NoiseModel {
    /// A noiseless model (σN = 0); programming is exact.
    pub fn noiseless() -> Self {
        NoiseModel { sigma: 0.0, seed: 0 }
    }

    /// A noise model with the given σN and seed.
    pub fn new(sigma: f64, seed: u64) -> Self {
        NoiseModel { sigma, seed }
    }

    /// True if this model perturbs nothing.
    pub fn is_noiseless(&self) -> bool {
        self.sigma == 0.0
    }

    /// Standard deviation of the programmed level, in level units, for a
    /// slice with `bits_per_cell` bits: `σN × (2^b − 1) / 15`.
    pub fn level_sigma(&self, bits_per_cell: u32) -> f64 {
        self.sigma * (((1u32 << bits_per_cell) - 1) as f64) / 15.0
    }

    /// Applies Gaussian programming noise to every cell of a slice.
    /// Deterministic for a given (seed, slice dim, slice index).
    pub fn apply(&self, slice: &mut CrossbarSlice) {
        if self.is_noiseless() {
            return;
        }
        let sigma = self.level_sigma(slice.bits_per_cell());
        let mut rng = StdRng::seed_from_u64(
            self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(slice.slice_index() as u64),
        );
        let dim = slice.dim();
        for row in 0..dim {
            for col in 0..dim {
                let ideal = slice.level(row, col) as f64;
                let noisy = ideal + sigma * gaussian(&mut rng);
                slice.perturb_cell(row, col, noisy);
            }
        }
    }
}

impl Default for NoiseModel {
    fn default() -> Self {
        NoiseModel::noiseless()
    }
}

/// Standard-normal sample via Box–Muller (keeps us off external
/// distributions crates).
fn gaussian(rng: &mut StdRng) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

/// splitmix64 finalizer: the 64-bit mixer behind the counter-based
/// (stateless) RNG of the non-ideality path. Unlike the [`StdRng`] stream
/// above — whose draws depend on *how many* samples preceded them — a
/// counter-based sample is a pure function of its key, so perturbations
/// replay bit-exactly regardless of execution order, engine, or worker
/// count.
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Folds `parts` (e.g. site, cell, time index, tag) into one hash under
/// `seed` by iterated [`mix64`] rounds.
pub fn keyed_hash(seed: u64, parts: &[u64]) -> u64 {
    let mut h = mix64(seed ^ 0x6A09_E667_F3BC_C909);
    for &p in parts {
        h = mix64(h.wrapping_add(p).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
    h
}

/// Uniform sample in `[0, 1)` from the top 53 bits of a hash.
pub fn unit_from(hash: u64) -> f64 {
    (hash >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Standard-normal sample as a pure function of a key: Box–Muller over
/// two decorrelated hashes of it.
pub fn keyed_gaussian(seed: u64, parts: &[u64]) -> f64 {
    let h1 = keyed_hash(seed, parts);
    let h2 = mix64(h1 ^ 0xD6E8_FEB8_6659_FD93);
    let u1 = unit_from(h1).max(f64::MIN_POSITIVE);
    let u2 = unit_from(h2);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn programmed_slice(bits: u32) -> CrossbarSlice {
        let mut s = CrossbarSlice::new(16, bits, 0).unwrap();
        let max = s.max_level();
        for r in 0..16 {
            for c in 0..16 {
                s.write_cell(r, c, ((r * 16 + c) as u16) % (max + 1));
            }
        }
        s
    }

    #[test]
    fn noiseless_model_changes_nothing() {
        let mut s = programmed_slice(2);
        let before = s.clone();
        NoiseModel::noiseless().apply(&mut s);
        assert_eq!(s, before);
    }

    #[test]
    fn noise_perturbs_cells() {
        let mut s = programmed_slice(6);
        NoiseModel::new(0.3, 7).apply(&mut s);
        let mut changed = 0;
        for r in 0..16 {
            for c in 0..16 {
                if (s.conductance(r, c) - s.level(r, c) as f64).abs() > 1e-12 {
                    changed += 1;
                }
            }
        }
        assert!(changed > 150, "only {changed} cells perturbed");
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let mut a = programmed_slice(2);
        let mut b = programmed_slice(2);
        NoiseModel::new(0.2, 42).apply(&mut a);
        NoiseModel::new(0.2, 42).apply(&mut b);
        assert_eq!(a, b);
        let mut c = programmed_slice(2);
        NoiseModel::new(0.2, 43).apply(&mut c);
        assert_ne!(a, c);
    }

    #[test]
    fn level_sigma_grows_with_bits() {
        let m = NoiseModel::new(0.1, 0);
        assert!((m.level_sigma(4) - 0.1).abs() < 1e-12, "4-bit spacing is the reference");
        assert!(m.level_sigma(6) > 20.0 * m.level_sigma(1));
    }

    #[test]
    fn keyed_samples_are_pure_functions_of_their_key() {
        let a = keyed_gaussian(7, &[1, 2, 3]);
        assert_eq!(a, keyed_gaussian(7, &[1, 2, 3]), "same key replays bit-exactly");
        assert_ne!(a, keyed_gaussian(8, &[1, 2, 3]), "seed perturbs the draw");
        assert_ne!(a, keyed_gaussian(7, &[1, 2, 4]), "any key part perturbs the draw");
        let u = unit_from(keyed_hash(7, &[1, 2, 3]));
        assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn keyed_gaussian_is_roughly_standard_normal() {
        let n = 10_000;
        let samples: Vec<f64> = (0..n).map(|i| keyed_gaussian(11, &[i])).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 1.0).abs() < 0.05, "std {}", var.sqrt());
    }

    #[test]
    fn empirical_sigma_matches_model() {
        let mut s = CrossbarSlice::new(64, 4, 0).unwrap();
        let mid = s.max_level() / 2;
        for r in 0..64 {
            for c in 0..64 {
                s.write_cell(r, c, mid);
            }
        }
        let model = NoiseModel::new(0.2, 1);
        model.apply(&mut s);
        let n = 64.0 * 64.0;
        let mean: f64 = (0..64)
            .flat_map(|r| (0..64).map(move |c| (r, c)))
            .map(|(r, c)| s.conductance(r, c))
            .sum::<f64>()
            / n;
        let var: f64 = (0..64)
            .flat_map(|r| (0..64).map(move |c| (r, c)))
            .map(|(r, c)| (s.conductance(r, c) - mean).powi(2))
            .sum::<f64>()
            / n;
        let expected = model.level_sigma(4);
        assert!(
            (var.sqrt() - expected).abs() / expected < 0.15,
            "std {} vs {expected}",
            var.sqrt()
        );
    }
}
