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
//! **No-overflow bounds.** Over at most [`CHUNK_ROWS`] = 256 rows,
//! `|Σ lo·w| ≤ 256 · 255 · 2¹⁵ < 2³¹` and `|Σ hi·w| ≤ 256 · 128 · 2¹⁵ = 2³⁰`,
//! so both column sums are exact in `i32`. Taller crossbars add 256-row
//! chunks in `i64`. The SIMD copy sums adjacent row pairs with a 16-bit
//! multiply-add (`vpmaddwd`), whose one overflow case is two
//! `−2¹⁵ · −2¹⁵` products; neither input half reaches `−2¹⁵`, so each
//! lane's pair stays within `|w·lo + w'·lo'| ≤ 2 · 2¹⁵ · 255` and
//! `|w·hi + w'·hi'| ≤ 2 · 2²²`, and the lane sums are sub-sums of the
//! column bound. The offset-binary bias of the conductance encoding
//! cancels algebraically (`Σ x·(w + 2¹⁵) − 2¹⁵·Σ x = Σ x·w`), so the
//! kernel works on signed weights and needs no correction term; the
//! result equals
//! [`FixedMatrix::mvm_exact`](puma_core::tensor::FixedMatrix::mvm_exact)
//! bit for bit.
//!
//! There are two copies. [`mvm_portable`] is plain iterator code for
//! the build target: the fallback, and the oracle the other is tested
//! against. [`mvm_avx2`] is explicit SIMD: it splits the input once per
//! 256-row chunk and multiply-adds each column's 16-row slices against
//! both halves, four columns per input load. A crossbar size that is not
//! a multiple of 16 runs the portable body compiled with AVX2. [`mvm`]
//! picks the copy at run time; [`selected`] names it.

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

/// The copy [`mvm`] dispatches to on this host: `"avx2"` or
/// `"portable"`.
pub fn selected() -> &'static str {
    if has_avx2() {
        "avx2"
    } else {
        "portable"
    }
}

/// Whether the host runs the AVX2 copy: the one dispatch decision, read
/// by both [`mvm`] (through [`mvm_avx2`]) and [`selected`].
fn has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return true;
    }
    false
}

/// [`mvm`] as plain code for the build target (the fallback copy and
/// the oracle).
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

/// [`mvm`] as explicit AVX2 multiply-add. Returns `false`, leaving `out`
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
    if has_avx2() {
        // SAFETY: the host supports AVX2, checked just above.
        unsafe { simd::mvm_avx2(weights, dim, rows, cols, input, out) };
        return true;
    }
    false
}

/// Panics unless the operands have the shape [`mvm`] documents.
#[inline(always)]
fn check_shape(
    weights: &[i16],
    dim: usize,
    rows: usize,
    cols: usize,
    input: &[Fixed],
    out: &[Fixed],
) {
    assert_eq!(weights.len(), dim * dim, "weights must be dim x dim");
    assert!(input.len() == dim && out.len() == dim, "input and output must be dim long");
    assert!(rows <= dim && cols <= dim, "logical shape exceeds the crossbar");
}

/// Splits `input` into its low and high bytes (module docs).
#[inline(always)]
fn split(input: &[Fixed], lo: &mut [i16], hi: &mut [i16]) {
    for ((l, h), x) in lo.iter_mut().zip(hi.iter_mut()).zip(input) {
        let bits = x.to_bits();
        *l = bits & 0xFF;
        *h = bits >> 8;
    }
}

/// The portable kernel body, also inlined into the AVX2 copy for crossbar
/// sizes its explicit loop does not take.
#[inline(always)]
fn split_byte_mvm(
    weights: &[i16],
    dim: usize,
    rows: usize,
    cols: usize,
    input: &[Fixed],
    out: &mut [Fixed],
) {
    check_shape(weights, dim, rows, cols, input, out);
    let mut lo = [0i16; CHUNK_ROWS];
    let mut hi = [0i16; CHUNK_ROWS];
    let mut acc = [0i64; CHUNK_ROWS];
    out[cols..].fill(Fixed::ZERO);
    for c0 in (0..cols).step_by(CHUNK_ROWS) {
        let acc = &mut acc[..(cols - c0).min(CHUNK_ROWS)];
        acc.fill(0);
        for r0 in (0..rows).step_by(CHUNK_ROWS) {
            let n = (rows - r0).min(CHUNK_ROWS);
            split(&input[r0..r0 + n], &mut lo, &mut hi);
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

/// The explicit SIMD copy.
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::{check_shape, split, split_byte_mvm, CHUNK_ROWS};
    use puma_core::fixed::{narrow_accumulator, Fixed, FRAC_BITS};
    use std::arch::x86_64::*;

    /// Rows per weight slice: one 256-bit vector of `i16`.
    const LANES: usize = 16;

    /// Columns multiplied against each pair of input vectors.
    const COL_BLOCK: usize = 4;

    /// The AVX2 copy.
    ///
    /// # Safety
    ///
    /// The host CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mvm_avx2(
        weights: &[i16],
        dim: usize,
        rows: usize,
        cols: usize,
        input: &[Fixed],
        out: &mut [Fixed],
    ) {
        if !dim.is_multiple_of(LANES) {
            split_byte_mvm(weights, dim, rows, cols, input, out);
            return;
        }
        check_shape(weights, dim, rows, cols, input, out);
        let mut lo = [0i16; CHUNK_ROWS];
        let mut hi = [0i16; CHUNK_ROWS];
        let mut acc = [0i64; CHUNK_ROWS];
        out[cols..].fill(Fixed::ZERO);
        for c0 in (0..cols).step_by(CHUNK_ROWS) {
            let acc = &mut acc[..(cols - c0).min(CHUNK_ROWS)];
            acc.fill(0);
            for r0 in (0..rows).step_by(CHUNK_ROWS) {
                let n = (rows - r0).min(CHUNK_ROWS);
                // Whole slices cover the chunk's rows; the lanes past
                // `rows` get zero halves, so those rows contribute 0.
                // `dim` is a multiple of `LANES`, so a column's last
                // slice ends at or before the column's end.
                let len = n.div_ceil(LANES) * LANES;
                lo[n..len].fill(0);
                hi[n..len].fill(0);
                split(&input[r0..r0 + n], &mut lo, &mut hi);
                let (lo, hi) = (lo[..len].as_chunks().0, hi[..len].as_chunks().0);
                let col = |c: usize| weights[(c0 + c) * dim + r0..][..len].as_chunks().0;
                // A column tail narrower than the block repeats its last
                // column in the spare slots and keeps only its own sums.
                let last = acc.len() - 1;
                for c in (0..acc.len()).step_by(COL_BLOCK) {
                    let cols = [
                        col(c),
                        col((c + 1).min(last)),
                        col((c + 2).min(last)),
                        col((c + 3).min(last)),
                    ];
                    for (a, s) in acc[c..].iter_mut().zip(dot2_avx2(cols, lo, hi)) {
                        *a += s;
                    }
                }
            }
            for (o, &a) in out[c0..].iter_mut().zip(acc.iter()) {
                *o = Fixed::from_bits(narrow_accumulator(a, FRAC_BITS));
            }
        }
    }

    /// `(Σ hi·w << 8) + Σ lo·w` for each of [`COL_BLOCK`] columns, by
    /// 16-bit multiply-add: every input slice pair is loaded once and
    /// used against all the columns. Exact for at most [`CHUNK_ROWS`] rows
    /// (module docs).
    #[target_feature(enable = "avx2")]
    #[inline]
    fn dot2_avx2(
        cols: [&[[i16; LANES]]; COL_BLOCK],
        lo: &[[i16; LANES]],
        hi: &[[i16; LANES]],
    ) -> [i64; COL_BLOCK] {
        // SAFETY (loads): each `[i16; LANES]` is 32 readable bytes.
        let load = |v: &[i16; LANES]| unsafe { _mm256_loadu_si256(v.as_ptr().cast()) };
        let vecs = lo.len();
        assert!(hi.len() == vecs && cols.iter().all(|c| c.len() == vecs));
        let mut sum_lo = [_mm256_setzero_si256(); COL_BLOCK];
        let mut sum_hi = [_mm256_setzero_si256(); COL_BLOCK];
        for v in 0..vecs {
            let (l, h) = (load(&lo[v]), load(&hi[v]));
            for j in 0..COL_BLOCK {
                let w = load(&cols[j][v]);
                sum_lo[j] = _mm256_add_epi32(sum_lo[j], _mm256_madd_epi16(w, l));
                sum_hi[j] = _mm256_add_epi32(sum_hi[j], _mm256_madd_epi16(w, h));
            }
        }
        combine(sum_lo, sum_hi)
    }

    /// `(Σ hi << 8) + Σ lo` in `i64` for each column, from each column's
    /// eight `i32` lane sums. The lane reductions wrap, so they are exact
    /// whenever the column sums fit in `i32` (module docs).
    #[target_feature(enable = "avx2")]
    #[inline]
    fn combine(sum_lo: [__m256i; COL_BLOCK], sum_hi: [__m256i; COL_BLOCK]) -> [i64; COL_BLOCK] {
        let hsum4 = |v: [__m256i; COL_BLOCK]| {
            let s = _mm256_hadd_epi32(_mm256_hadd_epi32(v[0], v[1]), _mm256_hadd_epi32(v[2], v[3]));
            _mm256_cvtepi32_epi64(_mm_add_epi32(
                _mm256_castsi256_si128(s),
                _mm256_extracti128_si256::<1>(s),
            ))
        };
        let sums = _mm256_add_epi64(_mm256_slli_epi64::<8>(hsum4(sum_hi)), hsum4(sum_lo));
        let mut out = [0i64; COL_BLOCK];
        // SAFETY: `out` is 32 writable bytes; the store is unaligned.
        unsafe { _mm256_storeu_si256(out.as_mut_ptr().cast(), sums) };
        out
    }
}
