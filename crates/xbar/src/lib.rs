//! Memristor crossbar substrate for PUMA.
//!
//! Implements the analog MVM of §3.2 / Fig. 2 of the paper: bit-slice
//! crossbars ([`mod@slice`]), programming (write) noise ([`noise`]), and the
//! full logical MVMU with DAC streaming, ADC quantization, shift-and-add,
//! and bias correction ([`mvmu`]), evaluated exactly by the split-byte
//! integer kernel ([`kernel`]) when nothing perturbs it.
//!
//! # Examples
//!
//! ```
//! use puma_core::config::MvmuConfig;
//! use puma_core::tensor::Matrix;
//! use puma_core::fixed::Fixed;
//! use puma_xbar::{AnalogMvmu, NoiseModel};
//!
//! # fn main() -> puma_core::Result<()> {
//! let cfg = MvmuConfig { dim: 16, ..MvmuConfig::default() };
//! let weights = Matrix::from_fn(16, 16, |r, c| if r == c { 1.0 } else { 0.0 }).quantize();
//! let mut mvmu = AnalogMvmu::new(cfg)?;
//! mvmu.program(&weights, &NoiseModel::noiseless())?;
//! let x: Vec<Fixed> = (0..16).map(|i| Fixed::from_f32(i as f32 * 0.1)).collect();
//! let y = mvmu.mvm(&x)?; // identity matrix: y == x
//! assert_eq!(y, x);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod kernel;
pub mod mvmu;
pub mod noise;
pub mod slice;

pub use mvmu::{AnalogMvmu, Perturbation};
pub use noise::NoiseModel;
pub use slice::CrossbarSlice;
