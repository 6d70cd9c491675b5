//! The split-byte integer MVM kernel: the exact path of
//! [`AnalogMvmu::mvm_into`](crate::AnalogMvmu::mvm_into).
//!
//! The DACs of Fig. 2b stream each input in narrow bit groups and
//! shift-and-add the partial column sums (§3.2.1). This kernel does the
//! same with two 8-bit groups: every Q4.12 input `x` is split into a low
//! byte `lo ∈ [0, 255]` and a signed high byte `hi ∈ [−128, 127]` with
//! `x = 256·hi + lo`, and each column is two dot products against the
//! column's signed weights, combined as `(Σ hi·w << 8) + Σ lo·w` in `i64`
//! and narrowed to Q4.12 once.
//!
//! **No-overflow bound.** Over at most [`CHUNK_ROWS`] = 256 rows,
//! `|Σ lo·w| ≤ 256 · 255 · 2¹⁵ < 2³¹` and `|Σ hi·w| ≤ 256 · 128 · 2¹⁵ = 2³⁰`,
//! so both partial sums are exact in `i32` — which is what lets them map
//! onto SIMD 16-bit multiply-add. Taller crossbars add 256-row chunks in
//! `i64`. The offset-binary bias of the conductance encoding cancels
//! algebraically (`Σ x·(w + 2¹⁵) − 2¹⁵·Σ x = Σ x·w`), so the kernel works
//! on signed weights and needs no correction term; the result equals
//! [`FixedMatrix::mvm_exact`](puma_core::tensor::FixedMatrix::mvm_exact)
//! bit for bit.
//!
//! The kernel is written once as plain iterator code and compiled twice:
//! [`mvm_portable`] for the build target, and [`mvm_avx2`] with AVX2
//! enabled. [`mvm`] picks the AVX2 copy at run time when the host has it.

use puma_core::fixed::{narrow_accumulator, Fixed, FRAC_BITS};

/// Rows summed per exact `i32` partial (see the module docs' bound).
pub const CHUNK_ROWS: usize = 256;

/// Exact MVM against column-major signed weights
/// (`weights[col * dim + row]`): `out[c] = narrow(Σ_{r < rows} input[r] ·
/// w[r][c])` for `c < cols`, and zero for `c ≥ cols`. Rows at or past
/// `rows` are skipped — their weights must be zero for the result to be
/// the full-crossbar MVM. Runs the AVX2 copy when the host supports it.
///
/// # Panics
///
/// Panics unless `weights.len() == dim²`, `input.len() == out.len() ==
/// dim`, and `rows, cols ≤ dim`.
pub fn mvm(
    weights: &[i16],
    dim: usize,
    rows: usize,
    cols: usize,
    input: &[Fixed],
    out: &mut [Fixed],
) {
    if !mvm_avx2(weights, dim, rows, cols, input, out) {
        mvm_portable(weights, dim, rows, cols, input, out);
    }
}

/// [`mvm`] compiled for the build target only (the fallback copy).
///
/// # Panics
///
/// As [`mvm`].
pub fn mvm_portable(
    weights: &[i16],
    dim: usize,
    rows: usize,
    cols: usize,
    input: &[Fixed],
    out: &mut [Fixed],
) {
    split_byte_mvm(weights, dim, rows, cols, input, out);
}

/// [`mvm`] compiled with AVX2 enabled. Returns `false`, leaving `out`
/// untouched, when the host lacks AVX2 (or is not x86-64).
///
/// # Panics
///
/// As [`mvm`].
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub fn mvm_avx2(
    weights: &[i16],
    dim: usize,
    rows: usize,
    cols: usize,
    input: &[Fixed],
    out: &mut [Fixed],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the host supports AVX2, checked just above.
        unsafe { split_byte_mvm_avx2(weights, dim, rows, cols, input, out) };
        return true;
    }
    false
}

/// The kernel body compiled with AVX2 enabled.
///
/// # Safety
///
/// The host CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn split_byte_mvm_avx2(
    weights: &[i16],
    dim: usize,
    rows: usize,
    cols: usize,
    input: &[Fixed],
    out: &mut [Fixed],
) {
    split_byte_mvm(weights, dim, rows, cols, input, out);
}

/// The kernel body, inlined into both compiled copies.
#[inline(always)]
fn split_byte_mvm(
    weights: &[i16],
    dim: usize,
    rows: usize,
    cols: usize,
    input: &[Fixed],
    out: &mut [Fixed],
) {
    assert_eq!(weights.len(), dim * dim, "weights must be dim x dim");
    assert!(input.len() == dim && out.len() == dim, "input and output must be dim long");
    assert!(rows <= dim && cols <= dim, "logical shape exceeds the crossbar");
    let mut lo = [0i16; CHUNK_ROWS];
    let mut hi = [0i16; CHUNK_ROWS];
    let mut acc = [0i64; CHUNK_ROWS];
    out[cols..].fill(Fixed::ZERO);
    for c0 in (0..cols).step_by(CHUNK_ROWS) {
        let acc = &mut acc[..(cols - c0).min(CHUNK_ROWS)];
        acc.fill(0);
        for r0 in (0..rows).step_by(CHUNK_ROWS) {
            let n = (rows - r0).min(CHUNK_ROWS);
            for ((l, h), x) in lo[..n].iter_mut().zip(&mut hi[..n]).zip(&input[r0..r0 + n]) {
                let bits = x.to_bits();
                *l = bits & 0xFF;
                *h = bits >> 8;
            }
            for (j, a) in acc.iter_mut().enumerate() {
                let col = &weights[(c0 + j) * dim + r0..][..n];
                let (sum_lo, sum_hi) = dot2(col, &lo[..n], &hi[..n]);
                *a += (i64::from(sum_hi) << 8) + i64::from(sum_lo);
            }
        }
        for (o, &a) in out[c0..].iter_mut().zip(acc.iter()) {
            *o = Fixed::from_bits(narrow_accumulator(a, FRAC_BITS));
        }
    }
}

/// `(Σ w·lo, Σ w·hi)` — exact in `i32` for at most [`CHUNK_ROWS`] terms.
#[inline(always)]
fn dot2(w: &[i16], lo: &[i16], hi: &[i16]) -> (i32, i32) {
    let mut sum_lo = 0i32;
    let mut sum_hi = 0i32;
    for ((&w, &l), &h) in w.iter().zip(lo).zip(hi) {
        let w = i32::from(w);
        sum_lo += w * i32::from(l);
        sum_hi += w * i32::from(h);
    }
    (sum_lo, sum_hi)
}
