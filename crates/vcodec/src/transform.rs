//! Integer block transforms and scan orders.
//!
//! Residual blocks are converted to the 2-D spatial-frequency domain with a
//! separable fixed-point DCT-II (Section 2.1 of the paper), quantized, and
//! scanned in zig-zag order so that the high-frequency zeros introduced by
//! quantization cluster at the end of the scan.
//!
//! Forward and inverse transforms are integer-exact and shared by encoder
//! and decoder, so reconstruction is bit-identical on both sides; the pair
//! is not a perfect inverse (fixed-point rounding costs ≤ 2 per sample),
//! which is dwarfed by quantization error in any lossy operating point.

/// Fixed-point scale of the DCT basis: entries are `round(2^12 · value)`.
const SCALE_BITS: i32 = 12;

/// Supported transform sizes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TransformSize {
    /// 4×4 transform (small-detail blocks).
    T4,
    /// 8×8 transform (the workhorse size).
    T8,
}

impl TransformSize {
    /// Edge length in samples (never zero, hence no `is_empty`).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        match self {
            TransformSize::T4 => 4,
            TransformSize::T8 => 8,
        }
    }

    /// Samples per block.
    pub fn area(&self) -> usize {
        self.len() * self.len()
    }
}

/// The 4-point DCT-II basis scaled by 2^12, `B4[k][j]`: frequency `k`
/// at sample `j`. Row `k` is symmetric in `j` for even `k` and
/// antisymmetric for odd `k`, which the kernels below rely on.
const B4: [[i64; 4]; 4] = [
    [2048, 2048, 2048, 2048],
    [2676, 1108, -1108, -2676],
    [2048, -2048, -2048, 2048],
    [1108, -2676, 2676, -1108],
];

/// The 8-point DCT-II basis scaled by 2^12 (same layout and symmetry as
/// [`B4`]; its even rows are the 4-point pattern again).
const B8: [[i64; 8]; 8] = [
    [1448, 1448, 1448, 1448, 1448, 1448, 1448, 1448],
    [2009, 1703, 1138, 400, -400, -1138, -1703, -2009],
    [1892, 784, -784, -1892, -1892, -784, 784, 1892],
    [1703, -400, -2009, -1138, 1138, 2009, 400, -1703],
    [1448, -1448, -1448, 1448, 1448, -1448, -1448, 1448],
    [1138, -2009, 400, 1703, -1703, -400, 2009, -1138],
    [784, -1892, 1892, -784, -784, 1892, -1892, 784],
    [400, -1138, 1703, -2009, 2009, -1703, 1138, -400],
];

#[inline]
fn round_shift(v: i64) -> i32 {
    ((v + (1 << (SCALE_BITS - 1))) >> SCALE_BITS) as i32
}

// The 1-D kernels below compute exactly the sums of the plain matrix
// product `sum_j x[j] * B[k][j]` (forward) and `sum_k y[k] * B[k][j]`
// (inverse): folding mirrored samples before multiplying only regroups
// the integer terms, so every result is identical, with a third of the
// multiplies. Accumulation is `i64` throughout: the decoder feeds
// `idct` whatever a stream dequantizes to, up to `i32::MAX`, and eight
// such terms times a 12-bit basis entry need 46 bits.

#[inline]
fn fwd4(x: [i64; 4]) -> [i32; 4] {
    let (s0, s1, d0, d1) = (x[0] + x[3], x[1] + x[2], x[0] - x[3], x[1] - x[2]);
    [
        round_shift(B4[0][0] * (s0 + s1)),
        round_shift(B4[1][0] * d0 + B4[1][1] * d1),
        round_shift(B4[2][0] * (s0 - s1)),
        round_shift(B4[3][0] * d0 + B4[3][1] * d1),
    ]
}

#[inline]
fn inv4(y: [i64; 4]) -> [i32; 4] {
    let (e0, e1) = (B4[0][0] * (y[0] + y[2]), B4[0][0] * (y[0] - y[2]));
    let (o0, o1) = (B4[1][0] * y[1] + B4[3][0] * y[3], B4[1][1] * y[1] + B4[3][1] * y[3]);
    [round_shift(e0 + o0), round_shift(e1 + o1), round_shift(e1 - o1), round_shift(e0 - o0)]
}

#[inline]
fn fwd8(x: [i64; 8]) -> [i32; 8] {
    let s: [i64; 4] = std::array::from_fn(|j| x[j] + x[7 - j]);
    let d: [i64; 4] = std::array::from_fn(|j| x[j] - x[7 - j]);
    // Even frequencies see the folded sums through the 4-point pattern.
    let (ss0, ss1, sd0, sd1) = (s[0] + s[3], s[1] + s[2], s[0] - s[3], s[1] - s[2]);
    let odd = |k: usize| B8[k][0] * d[0] + B8[k][1] * d[1] + B8[k][2] * d[2] + B8[k][3] * d[3];
    [
        round_shift(B8[0][0] * (ss0 + ss1)),
        round_shift(odd(1)),
        round_shift(B8[2][0] * sd0 + B8[2][1] * sd1),
        round_shift(odd(3)),
        round_shift(B8[4][0] * (ss0 - ss1)),
        round_shift(odd(5)),
        round_shift(B8[6][0] * sd0 + B8[6][1] * sd1),
        round_shift(odd(7)),
    ]
}

#[inline]
fn inv8(y: [i64; 8]) -> [i32; 8] {
    let (a0, a1) = (B8[0][0] * (y[0] + y[4]), B8[0][0] * (y[0] - y[4]));
    let (b0, b1) = (B8[2][0] * y[2] + B8[6][0] * y[6], B8[2][1] * y[2] + B8[6][1] * y[6]);
    let even = [a0 + b0, a1 + b1, a1 - b1, a0 - b0];
    let mut out = [0i32; 8];
    for j in 0..4 {
        let odd = B8[1][j] * y[1] + B8[3][j] * y[3] + B8[5][j] * y[5] + B8[7][j] * y[7];
        out[j] = round_shift(even[j] + odd);
        out[7 - j] = round_shift(even[j] - odd);
    }
    out
}

/// Applies the 1-D kernel `f` to each of the `N` lines of an `N×N` block:
/// line `l` is the samples `src[l * line_step + i * sample_step]`.
#[inline]
fn pass<const N: usize>(
    src: &[i32],
    dst: &mut [i32],
    line_step: usize,
    sample_step: usize,
    f: impl Fn([i64; N]) -> [i32; N],
) {
    for line in 0..N {
        let at = |i: usize| line * line_step + i * sample_step;
        let out = f(std::array::from_fn(|i| i64::from(src[at(i)])));
        for (i, v) in out.into_iter().enumerate() {
            dst[at(i)] = v;
        }
    }
}

/// Forward 8×8 DCT of a residual tile (row-major): rows, then columns,
/// rounding after each pass.
pub(crate) fn fdct8(input: &[i32; 64]) -> [i32; 64] {
    let (mut tmp, mut out) = ([0i32; 64], [0i32; 64]);
    pass::<8>(input, &mut tmp, 8, 1, fwd8);
    pass::<8>(&tmp, &mut out, 1, 8, fwd8);
    out
}

/// Inverse 8×8 DCT: columns, then rows, rounding after each pass. Total
/// on any input (see the accumulation note above); results that exceed
/// `i32` wrap.
pub(crate) fn idct8(coeffs: &[i32; 64]) -> [i32; 64] {
    let (mut tmp, mut out) = ([0i32; 64], [0i32; 64]);
    pass::<8>(coeffs, &mut tmp, 1, 8, inv8);
    pass::<8>(&tmp, &mut out, 8, 1, inv8);
    out
}

/// Forward 4×4 DCT; see [`fdct8`].
fn fdct4(input: &[i32; 16]) -> [i32; 16] {
    let (mut tmp, mut out) = ([0i32; 16], [0i32; 16]);
    pass::<4>(input, &mut tmp, 4, 1, fwd4);
    pass::<4>(&tmp, &mut out, 1, 4, fwd4);
    out
}

/// Inverse 4×4 DCT; see [`idct8`].
fn idct4(coeffs: &[i32; 16]) -> [i32; 16] {
    let (mut tmp, mut out) = ([0i32; 16], [0i32; 16]);
    pass::<4>(coeffs, &mut tmp, 1, 4, inv4);
    pass::<4>(&tmp, &mut out, 4, 1, inv4);
    out
}

/// Forward 2-D DCT of a residual block (row-major, length `n*n`).
///
/// Output coefficients are in transform domain at unit scale (the basis
/// scaling is divided back out), so quantization step sizes are directly
/// comparable across transform sizes.
///
/// # Panics
///
/// Panics if `input.len() != size.area()`.
pub fn fdct(size: TransformSize, input: &[i32]) -> Vec<i32> {
    match size {
        TransformSize::T4 => fdct4(input.try_into().expect("input must be 4x4")).to_vec(),
        TransformSize::T8 => fdct8(input.try_into().expect("input must be 8x8")).to_vec(),
    }
}

/// Inverse 2-D DCT; the reconstruction path shared by encoder and decoder.
///
/// # Panics
///
/// Panics if `coeffs.len() != size.area()`.
pub fn idct(size: TransformSize, coeffs: &[i32]) -> Vec<i32> {
    match size {
        TransformSize::T4 => idct4(coeffs.try_into().expect("coeffs must be 4x4")).to_vec(),
        TransformSize::T8 => idct8(coeffs.try_into().expect("coeffs must be 8x8")).to_vec(),
    }
}

/// Zig-zag scan order for an `n×n` block: index `i` of the scan holds the
/// row-major position of the `i`-th coefficient in frequency order.
///
/// ```
/// use vcodec::transform::zigzag_order;
/// let z = zigzag_order(4);
/// assert_eq!(&z[..6], &[0, 1, 4, 8, 5, 2]);
/// ```
pub fn zigzag_order(n: usize) -> Vec<usize> {
    let mut order = Vec::with_capacity(n * n);
    for s in 0..(2 * n - 1) {
        // Anti-diagonal s, alternating direction.
        let coords: Vec<(usize, usize)> = (0..n)
            .filter_map(|r| {
                let c = s.checked_sub(r)?;
                (c < n).then_some((r, c))
            })
            .collect();
        if s % 2 == 0 {
            // Walk up-right: decreasing row.
            for &(r, c) in coords.iter().rev() {
                order.push(r * n + c);
            }
        } else {
            for &(r, c) in coords.iter() {
                order.push(r * n + c);
            }
        }
    }
    order
}

const ZIGZAG4: [usize; 16] = [0, 1, 4, 8, 5, 2, 3, 6, 9, 12, 13, 10, 7, 11, 14, 15];
#[rustfmt::skip]
const ZIGZAG8: [usize; 64] = [
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
];

/// The zig-zag order for the given transform size ([`zigzag_order`] as a
/// table).
pub fn zigzag(size: TransformSize) -> &'static [usize] {
    match size {
        TransformSize::T4 => &ZIGZAG4,
        TransformSize::T8 => &ZIGZAG8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Oracle: the DCT-II basis computed in floating point and rounded,
    /// which the `B4`/`B8` tables must equal entry for entry.
    fn computed_basis(n: usize) -> Vec<i64> {
        let nf = n as f64;
        let mut m = vec![0i64; n * n];
        for k in 0..n {
            let a = if k == 0 { (1.0 / nf).sqrt() } else { (2.0 / nf).sqrt() };
            for j in 0..n {
                let v = a * (std::f64::consts::PI * (j as f64 + 0.5) * k as f64 / nf).cos();
                m[k * n + j] = (v * f64::from(1 << SCALE_BITS)).round() as i64;
            }
        }
        m
    }

    /// Oracle: the forward transform as two plain matrix products (rows,
    /// then columns), every sum spelled out.
    fn fdct_matrix(n: usize, input: &[i32]) -> Vec<i32> {
        let b = computed_basis(n);
        let mut tmp = vec![0i32; n * n];
        for i in 0..n {
            for k in 0..n {
                let acc: i64 = (0..n).map(|j| i64::from(input[i * n + j]) * b[k * n + j]).sum();
                tmp[i * n + k] = round_shift(acc);
            }
        }
        let mut out = vec![0i32; n * n];
        for k in 0..n {
            for c in 0..n {
                let acc: i64 = (0..n).map(|i| b[k * n + i] * i64::from(tmp[i * n + c])).sum();
                out[k * n + c] = round_shift(acc);
            }
        }
        out
    }

    /// Oracle: the inverse transform as two plain matrix products
    /// (columns, then rows).
    fn idct_matrix(n: usize, coeffs: &[i32]) -> Vec<i32> {
        let b = computed_basis(n);
        let mut tmp = vec![0i32; n * n];
        for j in 0..n {
            for c in 0..n {
                let acc: i64 = (0..n).map(|k| b[k * n + j] * i64::from(coeffs[k * n + c])).sum();
                tmp[j * n + c] = round_shift(acc);
            }
        }
        let mut out = vec![0i32; n * n];
        for i in 0..n {
            for j in 0..n {
                let acc: i64 = (0..n).map(|k| i64::from(tmp[i * n + k]) * b[k * n + j]).sum();
                out[i * n + j] = round_shift(acc);
            }
        }
        out
    }

    /// Dequantized coefficients as a hostile stream can produce them:
    /// mostly ordinary magnitudes, salted with saturated values.
    fn coeff_strategy(n: usize) -> impl Strategy<Value = Vec<i32>> {
        let one = (any::<i32>(), 0u8..6).prop_map(|(v, kind)| match kind {
            0..=3 => v % 40_000,
            4 => v,
            _ => [i32::MAX, i32::MIN, i32::MIN + 1][v.unsigned_abs() as usize % 3],
        });
        prop::collection::vec(one, n * n)
    }

    proptest! {
        #[test]
        fn fdct8_equals_the_matrix_product(input in prop::collection::vec(-255i32..=255, 64)) {
            prop_assert_eq!(fdct(TransformSize::T8, &input), fdct_matrix(8, &input));
        }

        #[test]
        fn fdct4_equals_the_matrix_product(input in prop::collection::vec(-255i32..=255, 16)) {
            prop_assert_eq!(fdct(TransformSize::T4, &input), fdct_matrix(4, &input));
        }

        #[test]
        fn idct8_equals_the_matrix_product_on_any_input(coeffs in coeff_strategy(8)) {
            prop_assert_eq!(idct(TransformSize::T8, &coeffs), idct_matrix(8, &coeffs));
        }

        #[test]
        fn idct4_equals_the_matrix_product_on_any_input(coeffs in coeff_strategy(4)) {
            prop_assert_eq!(idct(TransformSize::T4, &coeffs), idct_matrix(4, &coeffs));
        }
    }

    #[test]
    fn idct_of_saturated_blocks_does_not_overflow() {
        // Every coefficient at either extreme: the widest sums the
        // decoder can be made to form.
        for fill in [i32::MAX, i32::MIN] {
            let all = [fill; 64];
            assert_eq!(idct8(&all).to_vec(), idct_matrix(8, &all));
            let mut alternating = all;
            for v in alternating.iter_mut().step_by(2) {
                *v = fill.wrapping_neg().wrapping_sub(1);
            }
            assert_eq!(idct8(&alternating).to_vec(), idct_matrix(8, &alternating));
        }
    }

    #[test]
    fn basis_tables_equal_the_computed_basis_and_are_mirror_symmetric() {
        assert_eq!(B4.concat(), computed_basis(4));
        assert_eq!(B8.concat(), computed_basis(8));
        for k in 0..8 {
            let sign = if k % 2 == 0 { 1 } else { -1 };
            for j in 0..8 {
                assert_eq!(B8[k][7 - j], sign * B8[k][j], "B8[{k}][{j}]");
                if k < 4 && j < 4 {
                    assert_eq!(B4[k][3 - j], sign * B4[k][j], "B4[{k}][{j}]");
                }
            }
        }
    }

    fn roundtrip_error(size: TransformSize, input: &[i32]) -> i32 {
        let rec = idct(size, &fdct(size, input));
        input.iter().zip(&rec).map(|(&a, &b)| (a - b).abs()).max().unwrap()
    }

    #[test]
    fn dct_of_zeros_is_zero() {
        for size in [TransformSize::T4, TransformSize::T8] {
            let z = vec![0i32; size.area()];
            assert!(fdct(size, &z).iter().all(|&c| c == 0));
            assert!(idct(size, &z).iter().all(|&c| c == 0));
        }
    }

    #[test]
    fn dc_block_concentrates_energy() {
        let input = vec![100i32; 64];
        let coeffs = fdct(TransformSize::T8, &input);
        // DC coefficient = 8 * 100 = n * value for orthonormal DCT.
        assert!((coeffs[0] - 800).abs() <= 2, "DC = {}", coeffs[0]);
        assert!(coeffs[1..].iter().all(|&c| c.abs() <= 2), "AC leakage: {coeffs:?}");
    }

    #[test]
    fn roundtrip_error_is_tiny() {
        // Deterministic pseudo-random residuals in [-255, 255].
        let mut x = 7u64;
        for size in [TransformSize::T4, TransformSize::T8] {
            for _ in 0..50 {
                let input: Vec<i32> = (0..size.area())
                    .map(|_| {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        ((x >> 33) % 511) as i32 - 255
                    })
                    .collect();
                assert!(roundtrip_error(size, &input) <= 2);
            }
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let mut x = 42u64;
        let input: Vec<i32> = (0..64)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((x >> 33) % 511) as i32 - 255
            })
            .collect();
        let coeffs = fdct(TransformSize::T8, &input);
        let e_in: f64 = input.iter().map(|&v| f64::from(v) * f64::from(v)).sum();
        let e_out: f64 = coeffs.iter().map(|&v| f64::from(v) * f64::from(v)).sum();
        let ratio = e_out / e_in;
        assert!((0.97..=1.03).contains(&ratio), "energy ratio {ratio}");
    }

    #[test]
    fn smooth_blocks_have_sparse_spectra() {
        // A horizontal ramp: energy confined to the first row of coefficients.
        let input: Vec<i32> = (0..64).map(|i| (i % 8) * 20).collect();
        let coeffs = fdct(TransformSize::T8, &input);
        let first_row: f64 = coeffs[..8].iter().map(|&v| f64::from(v).abs()).sum();
        let rest: f64 = coeffs[8..].iter().map(|&v| f64::from(v).abs()).sum();
        assert!(first_row > rest * 10.0, "row {first_row}, rest {rest}");
    }

    #[test]
    fn zigzag_is_a_permutation() {
        for n in [4usize, 8] {
            let z = zigzag_order(n);
            let mut seen = vec![false; n * n];
            for &i in &z {
                assert!(!seen[i], "duplicate {i}");
                seen[i] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn zigzag8_prefix_matches_standard_table() {
        let z = zigzag_order(8);
        assert_eq!(&z[..10], &[0, 1, 8, 16, 9, 2, 3, 10, 17, 24]);
        assert_eq!(z[63], 63);
    }

    #[test]
    fn cached_zigzag_matches_computed() {
        assert_eq!(zigzag(TransformSize::T8), &zigzag_order(8)[..]);
        assert_eq!(zigzag(TransformSize::T4), &zigzag_order(4)[..]);
    }
}
