//! Property tests on the crossbar substrate: the analog pipeline must be
//! bit-exact with the digital reference when programming is noiseless,
//! regardless of matrix shape, cell precision, or input contents.

use proptest::prelude::*;
use puma_core::config::MvmuConfig;
use puma_core::fixed::Fixed;
use puma_core::tensor::{FixedMatrix, Matrix};
use puma_xbar::kernel;
use puma_xbar::slice::{decode_weight, encode_weight, reconstruct_levels, slice_levels};
use puma_xbar::{AnalogMvmu, NoiseModel, Perturbation};

/// Crossbar sizes the split-byte kernel is checked at through
/// [`AnalogMvmu`] (which takes powers of two): below, at, and past its
/// 256-row exact-`i32` chunk.
const DIMS: [usize; 4] = [16, 128, 256, 512];

/// Crossbar sizes the kernel copies are checked at directly: [`DIMS`] plus
/// sizes that are not a multiple of the 16-row SIMD slice.
const KERNEL_DIMS: [usize; 7] = [8, 16, 24, 100, 128, 256, 512];

/// One copy of the kernel: writes `out`, or returns `false` when the host
/// cannot run it.
type KernelCopy = fn(&[i16], usize, usize, usize, &[Fixed], &mut [Fixed]) -> bool;

/// Every copy of the kernel, by name, narrowest first.
const COPIES: [(&str, KernelCopy); 2] = [
    ("portable", |w, dim, rows, cols, x, out| {
        kernel::mvm_portable(w, dim, rows, cols, x, out);
        true
    }),
    ("avx2", kernel::mvm_avx2),
];

/// Each copy the host runs, by name, with its output (written over a
/// nonzero fill, so a copy that skips an output shows).
fn run_copies(
    weights: &[i16],
    dim: usize,
    rows: usize,
    cols: usize,
    x: &[Fixed],
) -> Vec<(&'static str, Vec<Fixed>)> {
    COPIES
        .iter()
        .filter_map(|&(name, copy)| {
            let mut out = vec![Fixed::from_bits(-1); dim];
            copy(weights, dim, rows, cols, x, &mut out).then_some((name, out))
        })
        .collect()
}

/// Column-major `dim × dim` kernel weights holding the row-major
/// `rows × cols` matrix `w`, with every padding cell set to `pad`.
fn column_major(dim: usize, rows: usize, cols: usize, w: &[i16], pad: i16) -> Vec<i16> {
    let mut weights = vec![pad; dim * dim];
    for r in 0..rows {
        for c in 0..cols {
            weights[c * dim + r] = w[r * cols + c];
        }
    }
    weights
}

/// `n` raw values, or all `fill` when an extreme pattern is selected.
fn raw(n: usize, fill: Option<i16>) -> BoxedStrategy<Vec<i16>> {
    match fill {
        Some(v) => Just(vec![v; n]).boxed(),
        None => prop::collection::vec(any::<i16>(), n..n + 1).boxed(),
    }
}

/// Optionally an all-`i16::MIN` or all-`i16::MAX` pattern.
fn extreme() -> impl Strategy<Value = Option<i16>> {
    prop::sample::select(vec![None, None, Some(i16::MIN), Some(i16::MAX)])
}

/// A crossbar size from `dims`, a logical shape within it (full or
/// padded), raw row-major weights of that shape, and a raw `dim`-long
/// input.
fn mvm_case(
    dims: &[usize],
    padded: bool,
) -> impl Strategy<Value = (usize, usize, usize, Vec<i16>, Vec<i16>)> {
    (prop::sample::select(dims.to_vec()), extreme(), extreme()).prop_flat_map(
        move |(dim, w_fill, x_fill)| {
            let shape = if padded { (1..=dim, 1..=dim).boxed() } else { Just((dim, dim)).boxed() };
            shape.prop_flat_map(move |(rows, cols)| {
                (Just(dim), Just(rows), Just(cols), raw(rows * cols, w_fill), raw(dim, x_fill))
            })
        },
    )
}

fn fixed(bits: &[i16]) -> Vec<Fixed> {
    bits.iter().map(|&b| Fixed::from_bits(b)).collect()
}

fn fixed_matrix(rows: usize, cols: usize, w: &[i16]) -> FixedMatrix {
    let mut m = FixedMatrix::zeros(rows, cols).unwrap();
    for r in 0..rows {
        for c in 0..cols {
            m.set(r, c, Fixed::from_bits(w[r * cols + c]));
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn weight_slicing_roundtrips(enc in any::<u16>(), bits in 1u32..=6) {
        let cfg = MvmuConfig { bits_per_cell: bits, ..MvmuConfig::default() };
        prop_assert_eq!(reconstruct_levels(&slice_levels(enc, &cfg), &cfg), enc);
    }

    #[test]
    fn offset_encoding_roundtrips(w in any::<i16>()) {
        prop_assert_eq!(decode_weight(encode_weight(w)), w);
    }

    #[test]
    fn analog_equals_digital_for_any_weights(
        seed in 0u64..10_000,
        bits in prop::sample::select(vec![1u32, 2, 4]),
    ) {
        let dim = 16usize;
        let cfg = MvmuConfig { dim, bits_per_cell: bits, ..MvmuConfig::default() };
        let m = Matrix::from_fn(dim, dim, |r, c| {
            let h = (r as u64 * 31 + c as u64 * 17) ^ seed;
            ((h % 97) as f32 / 97.0 - 0.5) * 2.0
        })
        .quantize();
        let mut mvmu = AnalogMvmu::new(cfg).unwrap();
        mvmu.program(&m, &NoiseModel::noiseless()).unwrap();
        let x: Vec<Fixed> = (0..dim)
            .map(|i| Fixed::from_f32((((i as u64) ^ seed) % 23) as f32 / 23.0 - 0.5))
            .collect();
        prop_assert_eq!(mvmu.mvm(&x).unwrap(), m.mvm_exact(&x).unwrap());
        prop_assert_eq!(mvmu.mvm_bit_serial(&x).unwrap(), m.mvm_exact(&x).unwrap());
    }

    #[test]
    fn extreme_inputs_do_not_break_the_pipeline(pattern in 0usize..4) {
        let dim = 8usize;
        let cfg = MvmuConfig { dim, ..MvmuConfig::default() };
        let m = Matrix::from_fn(dim, dim, |r, c| if (r + c) % 2 == 0 { 7.9 } else { -7.9 })
            .quantize();
        let mut mvmu = AnalogMvmu::new(cfg).unwrap();
        mvmu.program(&m, &NoiseModel::noiseless()).unwrap();
        let x: Vec<Fixed> = (0..dim)
            .map(|i| match pattern {
                0 => Fixed::MAX,
                1 => Fixed::MIN,
                2 => if i % 2 == 0 { Fixed::MAX } else { Fixed::MIN },
                _ => Fixed::ZERO,
            })
            .collect();
        // Saturates identically on both paths, never panics.
        prop_assert_eq!(mvmu.mvm(&x).unwrap(), m.mvm_exact(&x).unwrap());
        prop_assert_eq!(mvmu.mvm_bit_serial(&x).unwrap(), m.mvm_exact(&x).unwrap());
    }

    #[test]
    fn noise_bias_is_small(sigma in 0.0f64..0.3, seed in 0u64..100) {
        // Write noise is zero-mean: the average output deviation over a
        // full crossbar stays well below the worst-case single deviation.
        let dim = 16usize;
        let cfg = MvmuConfig { dim, ..MvmuConfig::default() };
        let m = Matrix::from_fn(dim, dim, |_, _| 0.25).quantize();
        let mut mvmu = AnalogMvmu::new(cfg).unwrap();
        mvmu.program(&m, &NoiseModel::new(sigma, seed)).unwrap();
        let x: Vec<Fixed> = vec![Fixed::from_f32(0.5); dim];
        let noisy = mvmu.mvm(&x).unwrap();
        let ideal = m.mvm_exact(&x).unwrap();
        let mean_err: f64 = noisy
            .iter()
            .zip(ideal.iter())
            .map(|(a, b)| (a.to_f32() - b.to_f32()) as f64)
            .sum::<f64>()
            / dim as f64;
        prop_assert!(mean_err.abs() < 0.8, "mean err {mean_err}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn split_byte_kernel_is_exact_for_raw_weights((dim, _, _, w, x) in mvm_case(&DIMS, false)) {
        let m = fixed_matrix(dim, dim, &w);
        let mut mvmu = AnalogMvmu::new(MvmuConfig { dim, ..MvmuConfig::default() }).unwrap();
        mvmu.program(&m, &NoiseModel::noiseless()).unwrap();
        let x = fixed(&x);
        let mut out = vec![Fixed::from_bits(-1); dim];
        mvmu.mvm_into(&x, &Perturbation::none(), &mut out).unwrap();
        prop_assert_eq!(out, m.mvm_exact(&x).unwrap());
    }

    #[test]
    fn padded_shapes_read_exact_zeros_past_the_logical_columns(
        (dim, rows, cols, w, x) in mvm_case(&DIMS, true),
    ) {
        let m = fixed_matrix(rows, cols, &w);
        let mut mvmu = AnalogMvmu::new(MvmuConfig { dim, ..MvmuConfig::default() }).unwrap();
        mvmu.program(&m, &NoiseModel::noiseless()).unwrap();
        // Padded input rows carry values too: their weights are zero.
        let x = fixed(&x);
        let mut out = vec![Fixed::from_bits(-1); dim];
        mvmu.mvm_into(&x, &Perturbation::none(), &mut out).unwrap();
        prop_assert_eq!(&out[..cols], m.mvm_exact(&x[..rows]).unwrap().as_slice());
        prop_assert!(out[cols..].iter().all(|&v| v == Fixed::ZERO));
    }

    #[test]
    fn every_kernel_copy_is_exact_for_raw_weights(
        (dim, rows, cols, w, x) in mvm_case(&KERNEL_DIMS, true),
    ) {
        // Zero padding, as programming leaves it: every copy equals the
        // digital reference on the logical shape and reads exact zeros
        // past the logical columns.
        let weights = column_major(dim, rows, cols, &w, 0);
        let x = fixed(&x);
        let mut expected = fixed_matrix(rows, cols, &w).mvm_exact(&x[..rows]).unwrap();
        expected.resize(dim, Fixed::ZERO);
        for (name, out) in run_copies(&weights, dim, rows, cols, &x) {
            prop_assert_eq!(&out, &expected, "{} copy", name);
        }
    }

    #[test]
    fn avx2_kernel_matches_the_portable_kernel(
        (dim, rows, cols, w, x) in mvm_case(&KERNEL_DIMS, true),
    ) {
        // Column-major weights with the padding left nonzero: every copy
        // must skip the same rows and zero the same columns.
        let mut weights = w;
        weights.resize(dim * dim, i16::MIN);
        let x = fixed(&x);
        let mut portable = vec![Fixed::ZERO; dim];
        kernel::mvm_portable(&weights, dim, rows, cols, &x, &mut portable);
        for (name, out) in run_copies(&weights, dim, rows, cols, &x) {
            prop_assert_eq!(&out, &portable, "{} copy", name);
        }
    }

    #[test]
    fn bit_serial_matches_mvm_into_with_lazy_slices(
        (dim, _, _, w, x) in mvm_case(&[4, 8, 16], false),
        bits in prop::sample::select(vec![1u32, 2, 3, 6]),
    ) {
        // Noiseless programming builds no slices: the oracle builds its
        // ideal slices for the call.
        let m = fixed_matrix(dim, dim, &w);
        let cfg = MvmuConfig { dim, bits_per_cell: bits, ..MvmuConfig::default() };
        let mut mvmu = AnalogMvmu::new(cfg).unwrap();
        mvmu.program(&m, &NoiseModel::noiseless()).unwrap();
        let x = fixed(&x);
        prop_assert_eq!(mvmu.mvm_bit_serial(&x).unwrap(), mvmu.mvm(&x).unwrap());
    }
}

/// The sums' extremes: all-`i16::MIN` weights against all-`MIN` and
/// all-`MAX` inputs, over one 256-row chunk and over two.
#[test]
fn every_kernel_copy_is_exact_at_the_extremes() {
    for dim in [256, 512] {
        let w = vec![i16::MIN; dim * dim];
        let m = fixed_matrix(dim, dim, &w);
        for fill in [i16::MIN, i16::MAX] {
            let x = vec![Fixed::from_bits(fill); dim];
            let expected = m.mvm_exact(&x).unwrap();
            for (name, out) in run_copies(&w, dim, dim, dim, &x) {
                assert_eq!(out, expected, "{name} copy, dim {dim}, inputs {fill}");
            }
        }
    }
}

#[test]
fn the_selected_copy_runs_on_this_host() {
    let selected = kernel::selected();
    println!("mvm dispatches to the {selected} kernel copy");
    let runnable: Vec<&str> =
        run_copies(&[0; 256], 16, 16, 16, &[Fixed::ZERO; 16]).into_iter().map(|(n, _)| n).collect();
    // `mvm` runs the AVX2 copy exactly when it is runnable, and
    // `selected` names the copy `mvm` runs.
    let avx2 = runnable.contains(&"avx2");
    assert_eq!(selected, if avx2 { "avx2" } else { "portable" }, "runnable: {runnable:?}");
}
