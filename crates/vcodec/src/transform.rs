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

use std::ops::{Add, Sub};

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
const B4: [[i16; 4]; 4] = [
    [2048, 2048, 2048, 2048],
    [2676, 1108, -1108, -2676],
    [2048, -2048, -2048, 2048],
    [1108, -2676, 2676, -1108],
];

/// The 8-point DCT-II basis scaled by 2^12 (same layout and symmetry as
/// [`B4`]; its even rows are the 4-point pattern again).
const B8: [[i16; 8]; 8] = [
    [1448, 1448, 1448, 1448, 1448, 1448, 1448, 1448],
    [2009, 1703, 1138, 400, -400, -1138, -1703, -2009],
    [1892, 784, -784, -1892, -1892, -784, 784, 1892],
    [1703, -400, -2009, -1138, 1138, 2009, 400, -1703],
    [1448, -1448, -1448, 1448, 1448, -1448, -1448, 1448],
    [1138, -2009, 400, 1703, -1703, -400, 2009, -1138],
    [784, -1892, 1892, -784, -784, 1892, -1892, 784],
    [400, -1138, 1703, -2009, 2009, -1703, 1138, -400],
];

/// Inputs in `[-FORWARD_NARROW, FORWARD_NARROW)` transform forward in
/// `i16` multiplicands and `i32` sums. A multiplicand is a sum of at most
/// `N` inputs: at most 8 · 1 024 in the first pass, whose outputs are at
/// most 1 024 · 11 584 / 2^12 = 2 896 (11 584 is the largest row sum of
/// `|B8|`), so at most 8 · 2 896 = 23 168 < 2^15 in the second. Residuals
/// (|r| ≤ 255) are inside.
const FORWARD_NARROW: i32 = 1 << 10;

/// Inputs in `[-INVERSE_NARROW, INVERSE_NARROW)` transform back in `i16`
/// multiplicands and `i32` sums. A multiplicand is one input or the sum
/// of two: at most 8 192 in the first pass, whose outputs are at most
/// 4 096 · 10 822 / 2^12 = 10 822 (the largest column sum of `|B8|`), so
/// at most 21 644 < 2^15 in the second. Every coefficient the encoder
/// dequantizes (at most 2 039 plus half a step) is inside.
const INVERSE_NARROW: i32 = 1 << 12;

/// A sample type the 1-D kernels run on: `i16` inside the narrow ranges
/// above, `i64` on any input (eight `i32::MAX` terms times a 12-bit basis
/// entry need 46 bits).
trait Sample: Copy + Default + Add<Output = Self> + Sub<Output = Self> {
    /// Where products of a sample and a basis entry are summed.
    type Wide: Copy + Add<Output = Self::Wide> + Sub<Output = Self::Wide>;
    fn of(v: i32) -> Self;
    fn times(self, basis: i16) -> Self::Wide;
    /// Divides out the basis scale, rounding half up.
    fn round_shift(sum: Self::Wide) -> i32;
}

impl Sample for i16 {
    type Wide = i32;

    #[inline]
    fn of(v: i32) -> i16 {
        debug_assert!(i16::try_from(v).is_ok(), "{v} is outside the narrow range");
        v as i16
    }

    #[inline]
    fn times(self, basis: i16) -> i32 {
        i32::from(self) * i32::from(basis)
    }

    #[inline]
    fn round_shift(sum: i32) -> i32 {
        (sum + (1 << (SCALE_BITS - 1))) >> SCALE_BITS
    }
}

impl Sample for i64 {
    type Wide = i64;

    #[inline]
    fn of(v: i32) -> i64 {
        i64::from(v)
    }

    #[inline]
    fn times(self, basis: i16) -> i64 {
        self * i64::from(basis)
    }

    #[inline]
    fn round_shift(sum: i64) -> i32 {
        ((sum + (1 << (SCALE_BITS - 1))) >> SCALE_BITS) as i32
    }
}

// The 1-D kernels below compute exactly the sums of the plain matrix
// product `sum_j x[j] * B[k][j]` (forward) and `sum_k y[k] * B[k][j]`
// (inverse): folding mirrored samples before multiplying only regroups
// the integer terms, so every result is identical, with a third of the
// multiplies.

/// A 1-D transform of `N` points.
trait Kernel<const N: usize> {
    fn apply<S: Sample>(x: [S; N]) -> [i32; N];
}

/// The forward DCT-II.
struct Fwd;
/// Its inverse.
struct Inv;

impl Kernel<4> for Fwd {
    #[inline]
    fn apply<S: Sample>(x: [S; 4]) -> [i32; 4] {
        let (s0, s1, d0, d1) = (x[0] + x[3], x[1] + x[2], x[0] - x[3], x[1] - x[2]);
        [
            S::round_shift((s0 + s1).times(B4[0][0])),
            S::round_shift(d0.times(B4[1][0]) + d1.times(B4[1][1])),
            S::round_shift((s0 - s1).times(B4[2][0])),
            S::round_shift(d0.times(B4[3][0]) + d1.times(B4[3][1])),
        ]
    }
}

impl Kernel<4> for Inv {
    #[inline]
    fn apply<S: Sample>(y: [S; 4]) -> [i32; 4] {
        let (e0, e1) = ((y[0] + y[2]).times(B4[0][0]), (y[0] - y[2]).times(B4[0][0]));
        let o0 = y[1].times(B4[1][0]) + y[3].times(B4[3][0]);
        let o1 = y[1].times(B4[1][1]) + y[3].times(B4[3][1]);
        [e0 + o0, e1 + o1, e1 - o1, e0 - o0].map(S::round_shift)
    }
}

impl Kernel<8> for Fwd {
    #[inline]
    fn apply<S: Sample>(x: [S; 8]) -> [i32; 8] {
        let s: [S; 4] = std::array::from_fn(|j| x[j] + x[7 - j]);
        let d: [S; 4] = std::array::from_fn(|j| x[j] - x[7 - j]);
        // Even frequencies see the folded sums through the 4-point pattern.
        let (ss0, ss1, sd0, sd1) = (s[0] + s[3], s[1] + s[2], s[0] - s[3], s[1] - s[2]);
        let odd = |k: usize| {
            (d[0].times(B8[k][0]) + d[1].times(B8[k][1]))
                + (d[2].times(B8[k][2]) + d[3].times(B8[k][3]))
        };
        [
            (ss0 + ss1).times(B8[0][0]),
            odd(1),
            sd0.times(B8[2][0]) + sd1.times(B8[2][1]),
            odd(3),
            (ss0 - ss1).times(B8[4][0]),
            odd(5),
            sd0.times(B8[6][0]) + sd1.times(B8[6][1]),
            odd(7),
        ]
        .map(S::round_shift)
    }
}

impl Kernel<8> for Inv {
    #[inline]
    fn apply<S: Sample>(y: [S; 8]) -> [i32; 8] {
        let (a0, a1) = ((y[0] + y[4]).times(B8[0][0]), (y[0] - y[4]).times(B8[0][0]));
        let b0 = y[2].times(B8[2][0]) + y[6].times(B8[6][0]);
        let b1 = y[2].times(B8[2][1]) + y[6].times(B8[6][1]);
        let even = [a0 + b0, a1 + b1, a1 - b1, a0 - b0];
        let odd: [S::Wide; 4] = std::array::from_fn(|j| {
            (y[1].times(B8[1][j]) + y[3].times(B8[3][j]))
                + (y[5].times(B8[5][j]) + y[7].times(B8[7][j]))
        });
        std::array::from_fn(|i| {
            S::round_shift(if i < 4 { even[i] + odd[i] } else { even[7 - i] - odd[7 - i] })
        })
    }
}

/// One pass over the columns of a block: `K` applied to every column,
/// written as a loop over lanes so that each step of the kernel combines
/// whole rows, the same operation on every lane, which the compiler runs
/// several lanes wide. A pass over rows is this pass on the transpose.
#[inline(always)]
fn columns<K: Kernel<N>, S: Sample, const N: usize>(rows: &[[S; N]; N]) -> [[i32; N]; N] {
    let mut out = [[0; N]; N];
    for lane in 0..N {
        let column = K::apply(std::array::from_fn(|j| rows[j][lane]));
        for (row, v) in out.iter_mut().zip(column) {
            row[lane] = v;
        }
    }
    out
}

#[inline(always)]
fn transpose<T: Copy + Default, const N: usize>(m: &[[T; N]; N]) -> [[T; N]; N] {
    let mut t = [[T::default(); N]; N];
    for (i, row) in m.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            t[j][i] = v;
        }
    }
    t
}

/// A row-major block of `N·N` values as rows of samples.
#[inline(always)]
fn sample_rows<S: Sample, const N: usize>(block: &[i32]) -> [[S; N]; N] {
    let (rows, _) = block.as_chunks::<N>();
    std::array::from_fn(|r| rows[r].map(S::of))
}

/// Forward `N×N` DCT on samples `S`: rows (as columns of the transpose),
/// then columns; rounding after each pass.
#[inline(always)]
fn forward_in<S: Sample, const N: usize>(input: &[i32]) -> [[i32; N]; N]
where
    Fwd: Kernel<N>,
{
    let rows_done = columns::<Fwd, S, N>(&transpose(&sample_rows(input)));
    columns::<Fwd, S, N>(&transpose(&rows_done.map(|row| row.map(S::of))))
}

/// Inverse `N×N` DCT on samples `S`: columns, then rows (as columns of
/// the transpose); rounding after each pass. Results that exceed `i32`
/// wrap (only `i64` samples can form them).
#[inline(always)]
fn inverse_in<S: Sample, const N: usize>(coeffs: &[i32]) -> [[i32; N]; N]
where
    Inv: Kernel<N>,
{
    let columns_done = columns::<Inv, S, N>(&sample_rows(coeffs));
    transpose(&columns::<Inv, S, N>(&transpose(&columns_done.map(|row| row.map(S::of)))))
}

/// Whether every value of `block` lies in `[-half, half)`, for a power of
/// two `half`: an OR over the offset values, which vectorizes, in place
/// of a compare per value.
#[inline(always)]
fn within(block: &[i32], half: i32) -> bool {
    block.iter().fold(0u32, |acc, &v| acc | v.wrapping_add(half) as u32) < 2 * half as u32
}

/// [`forward_in`] on `i16` samples when the block allows it, else `i64`.
#[inline(always)]
fn forward<const N: usize>(input: &[i32]) -> [[i32; N]; N]
where
    Fwd: Kernel<N>,
{
    if within(input, FORWARD_NARROW) {
        forward_in::<i16, N>(input)
    } else {
        forward_in::<i64, N>(input)
    }
}

/// [`inverse_in`] on `i16` samples when the block allows it, else `i64`.
#[inline(always)]
fn inverse<const N: usize>(coeffs: &[i32]) -> [[i32; N]; N]
where
    Inv: Kernel<N>,
{
    if within(coeffs, INVERSE_NARROW) {
        inverse_in::<i16, N>(coeffs)
    } else {
        inverse_in::<i64, N>(coeffs)
    }
}

vframe::isa::multiversion! {
    up_to Avx2;
    /// Forward 8×8 DCT of a residual tile (row-major): rows, then columns,
    /// rounding after each pass.
    pub(crate) fn fdct8(input: &[i32; 64]) -> [i32; 64] {
        let mut out = [0; 64];
        out.copy_from_slice(forward::<8>(input).as_flattened());
        out
    }
}

vframe::isa::multiversion! {
    /// Inverse 8×8 DCT: columns, then rows, rounding after each pass. Total
    /// on any input; results that exceed `i32` wrap.
    pub(crate) fn idct8(coeffs: &[i32; 64]) -> [i32; 64] {
        let mut out = [0; 64];
        out.copy_from_slice(inverse::<8>(coeffs).as_flattened());
        out
    }
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
    assert_eq!(input.len(), size.area(), "input must be {0}x{0}", size.len());
    match size {
        TransformSize::T4 => forward::<4>(input).as_flattened().to_vec(),
        TransformSize::T8 => forward::<8>(input).as_flattened().to_vec(),
    }
}

/// Inverse 2-D DCT; the reconstruction path shared by encoder and decoder.
///
/// # Panics
///
/// Panics if `coeffs.len() != size.area()`.
pub fn idct(size: TransformSize, coeffs: &[i32]) -> Vec<i32> {
    assert_eq!(coeffs.len(), size.area(), "coeffs must be {0}x{0}", size.len());
    match size {
        TransformSize::T4 => inverse::<4>(coeffs).as_flattened().to_vec(),
        TransformSize::T8 => inverse::<8>(coeffs).as_flattened().to_vec(),
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
    use vframe::isa;

    /// `fdct8` of `block` at every rung, checked equal to the baseline's.
    fn fdct8_at_every_rung(block: &[i32]) -> Vec<i32> {
        let tile: &[i32; 64] = block.try_into().expect("an 8x8 block");
        isa::same_at_every_rung("transform::fdct8", || fdct8(tile)).to_vec()
    }

    /// `idct8` of `coeffs` at every rung, checked equal to the baseline's.
    fn idct8_at_every_rung(coeffs: &[i32]) -> Vec<i32> {
        let tile: &[i32; 64] = coeffs.try_into().expect("an 8x8 block");
        isa::same_at_every_rung("transform::idct8", || idct8(tile)).to_vec()
    }

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
                tmp[i * n + k] = i64::round_shift(acc);
            }
        }
        let mut out = vec![0i32; n * n];
        for k in 0..n {
            for c in 0..n {
                let acc: i64 = (0..n).map(|i| b[k * n + i] * i64::from(tmp[i * n + c])).sum();
                out[k * n + c] = i64::round_shift(acc);
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
                tmp[j * n + c] = i64::round_shift(acc);
            }
        }
        let mut out = vec![0i32; n * n];
        for i in 0..n {
            for j in 0..n {
                let acc: i64 = (0..n).map(|k| i64::from(tmp[i * n + k]) * b[k * n + j]).sum();
                out[i * n + j] = i64::round_shift(acc);
            }
        }
        out
    }

    /// Oracle: the transforms as they were before the lane-parallel
    /// passes — one line at a time through a scalar 1-D kernel in `i64`,
    /// the column pass reading and writing with a stride.
    mod strided {
        use super::super::{B4, B8, SCALE_BITS};

        fn round_shift(v: i64) -> i32 {
            ((v + (1 << (SCALE_BITS - 1))) >> SCALE_BITS) as i32
        }

        fn b4(k: usize, j: usize) -> i64 {
            i64::from(B4[k][j])
        }

        fn b8(k: usize, j: usize) -> i64 {
            i64::from(B8[k][j])
        }

        fn fwd4(x: [i64; 4]) -> [i32; 4] {
            let (s0, s1, d0, d1) = (x[0] + x[3], x[1] + x[2], x[0] - x[3], x[1] - x[2]);
            [
                round_shift(b4(0, 0) * (s0 + s1)),
                round_shift(b4(1, 0) * d0 + b4(1, 1) * d1),
                round_shift(b4(2, 0) * (s0 - s1)),
                round_shift(b4(3, 0) * d0 + b4(3, 1) * d1),
            ]
        }

        fn inv4(y: [i64; 4]) -> [i32; 4] {
            let (e0, e1) = (b4(0, 0) * (y[0] + y[2]), b4(0, 0) * (y[0] - y[2]));
            let (o0, o1) = (b4(1, 0) * y[1] + b4(3, 0) * y[3], b4(1, 1) * y[1] + b4(3, 1) * y[3]);
            [round_shift(e0 + o0), round_shift(e1 + o1), round_shift(e1 - o1), round_shift(e0 - o0)]
        }

        fn fwd8(x: [i64; 8]) -> [i32; 8] {
            let s: [i64; 4] = std::array::from_fn(|j| x[j] + x[7 - j]);
            let d: [i64; 4] = std::array::from_fn(|j| x[j] - x[7 - j]);
            let (ss0, ss1, sd0, sd1) = (s[0] + s[3], s[1] + s[2], s[0] - s[3], s[1] - s[2]);
            let odd = |k: usize| (0..4).map(|j| b8(k, j) * d[j]).sum::<i64>();
            [
                round_shift(b8(0, 0) * (ss0 + ss1)),
                round_shift(odd(1)),
                round_shift(b8(2, 0) * sd0 + b8(2, 1) * sd1),
                round_shift(odd(3)),
                round_shift(b8(4, 0) * (ss0 - ss1)),
                round_shift(odd(5)),
                round_shift(b8(6, 0) * sd0 + b8(6, 1) * sd1),
                round_shift(odd(7)),
            ]
        }

        fn inv8(y: [i64; 8]) -> [i32; 8] {
            let (a0, a1) = (b8(0, 0) * (y[0] + y[4]), b8(0, 0) * (y[0] - y[4]));
            let (c0, c1) = (b8(2, 0) * y[2] + b8(6, 0) * y[6], b8(2, 1) * y[2] + b8(6, 1) * y[6]);
            let even = [a0 + c0, a1 + c1, a1 - c1, a0 - c0];
            let mut out = [0i32; 8];
            for j in 0..4 {
                let odd = b8(1, j) * y[1] + b8(3, j) * y[3] + b8(5, j) * y[5] + b8(7, j) * y[7];
                out[j] = round_shift(even[j] + odd);
                out[7 - j] = round_shift(even[j] - odd);
            }
            out
        }

        /// Applies `f` to each of the `N` lines of an `N×N` block: line
        /// `l` is the samples `src[l * line_step + i * sample_step]`.
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

        pub fn fdct(n: usize, input: &[i32]) -> Vec<i32> {
            let (mut tmp, mut out) = (vec![0; n * n], vec![0; n * n]);
            if n == 4 {
                pass::<4>(input, &mut tmp, 4, 1, fwd4);
                pass::<4>(&tmp, &mut out, 1, 4, fwd4);
            } else {
                pass::<8>(input, &mut tmp, 8, 1, fwd8);
                pass::<8>(&tmp, &mut out, 1, 8, fwd8);
            }
            out
        }

        pub fn idct(n: usize, coeffs: &[i32]) -> Vec<i32> {
            let (mut tmp, mut out) = (vec![0; n * n], vec![0; n * n]);
            if n == 4 {
                pass::<4>(coeffs, &mut tmp, 1, 4, inv4);
                pass::<4>(&tmp, &mut out, 4, 1, inv4);
            } else {
                pass::<8>(coeffs, &mut tmp, 1, 8, inv8);
                pass::<8>(&tmp, &mut out, 8, 1, inv8);
            }
            out
        }
    }

    /// Case-count multiplier: the `--release` test run does ten times
    /// what the debug tier-1 run does.
    const SCALE: u32 = if cfg!(debug_assertions) { 1 } else { 10 };

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

    /// Blocks on both sides of a narrow range `[-half, half)` and on its
    /// edges: all inside (salted with both ends), or one value just past
    /// either end.
    fn edge_strategy(n: usize, half: i32) -> impl Strategy<Value = Vec<i32>> {
        let one = (any::<i32>(), 0u8..4).prop_map(move |(v, kind)| match kind {
            0 | 1 => v % half,
            2 => v % 300,
            _ => [half - 1, -half][v.unsigned_abs() as usize % 2],
        });
        (prop::collection::vec(one, n * n), any::<bool>(), 0..n * n).prop_map(
            move |(mut block, past, at)| {
                if past {
                    block[at] = if block[at] < 0 { -half - 1 } else { half };
                }
                block
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64 * SCALE, ..ProptestConfig::default() })]

        #[test]
        fn fdct8_equals_the_matrix_product(input in prop::collection::vec(-255i32..=255, 64)) {
            prop_assert_eq!(fdct(TransformSize::T8, &input), fdct_matrix(8, &input));
            prop_assert_eq!(fdct8_at_every_rung(&input), fdct_matrix(8, &input));
        }

        #[test]
        fn fdct4_equals_the_matrix_product(input in prop::collection::vec(-255i32..=255, 16)) {
            prop_assert_eq!(fdct(TransformSize::T4, &input), fdct_matrix(4, &input));
        }

        #[test]
        fn idct8_equals_the_matrix_product_on_any_input(coeffs in coeff_strategy(8)) {
            prop_assert_eq!(idct(TransformSize::T8, &coeffs), idct_matrix(8, &coeffs));
            prop_assert_eq!(idct8_at_every_rung(&coeffs), idct_matrix(8, &coeffs));
        }

        #[test]
        fn idct4_equals_the_matrix_product_on_any_input(coeffs in coeff_strategy(4)) {
            prop_assert_eq!(idct(TransformSize::T4, &coeffs), idct_matrix(4, &coeffs));
        }

        // The forward transform is public too, and takes any `i32`.
        #[test]
        fn fdct_equals_the_strided_oracle_on_any_input(
            input8 in coeff_strategy(8),
            input4 in coeff_strategy(4),
        ) {
            prop_assert_eq!(fdct(TransformSize::T8, &input8), strided::fdct(8, &input8));
            prop_assert_eq!(fdct(TransformSize::T4, &input4), strided::fdct(4, &input4));
        }

        #[test]
        fn fdct_equals_the_oracles_at_the_edges_of_its_narrow_range(
            block8 in edge_strategy(8, FORWARD_NARROW),
            block4 in edge_strategy(4, FORWARD_NARROW),
        ) {
            for (n, size, block) in [(8, TransformSize::T8, &block8), (4, TransformSize::T4, &block4)] {
                prop_assert_eq!(fdct(size, block), strided::fdct(n, block));
                prop_assert_eq!(fdct(size, block), fdct_matrix(n, block));
            }
            prop_assert_eq!(fdct8_at_every_rung(&block8), fdct_matrix(8, &block8));
        }

        #[test]
        fn idct_equals_the_oracles_at_the_edges_of_its_narrow_range(
            block8 in edge_strategy(8, INVERSE_NARROW),
            block4 in edge_strategy(4, INVERSE_NARROW),
        ) {
            for (n, size, block) in [(8, TransformSize::T8, &block8), (4, TransformSize::T4, &block4)] {
                prop_assert_eq!(idct(size, block), strided::idct(n, block));
                prop_assert_eq!(idct(size, block), idct_matrix(n, block));
            }
            prop_assert_eq!(idct8_at_every_rung(&block8), idct_matrix(8, &block8));
        }

        #[test]
        fn fdct8_of_any_residual_stays_within_the_quantizer_reach(
            input in prop::collection::vec(-255i32..=255, 64),
        ) {
            let peak = fdct(TransformSize::T8, &input).iter().map(|c| c.unsigned_abs()).max();
            prop_assert!(peak.unwrap_or(0) <= RESIDUAL_PEAK, "{:?}", peak);
        }
    }

    /// The largest coefficient magnitude `fdct8` gives a residual in
    /// `[-255, 255]`: the DC term of a flat ±255 tile.
    const RESIDUAL_PEAK: u32 = 2_039;

    #[test]
    fn fdct8_of_every_worst_case_sign_pattern_stays_within_the_quantizer_reach() {
        // |c[k][l]| is largest, up to the two roundings, when each sample is
        // ±255 with the sign of B[k][r] · B[l][c]: try that pattern and its
        // negation for every basis pair, and read every output of each.
        let mut peak = 0;
        for (k, row_basis) in B8.iter().enumerate() {
            for (l, column_basis) in B8.iter().enumerate() {
                for sign in [1, -1] {
                    let tile: Vec<i32> = (0..64)
                        .map(|i| {
                            let pattern = row_basis[i / 8].signum() * column_basis[i % 8].signum();
                            sign * 255 * i32::from(pattern)
                        })
                        .collect();
                    let coeffs = fdct(TransformSize::T8, &tile);
                    assert_eq!(coeffs, fdct_matrix(8, &tile), "pattern ({k}, {l})");
                    peak = peak.max(coeffs.iter().map(|c| c.unsigned_abs()).max().unwrap());
                }
            }
        }
        assert_eq!(peak, RESIDUAL_PEAK);
        const {
            assert!(
                RESIDUAL_PEAK <= crate::quant::REACH,
                "the encoder would leave the fast quantizer"
            )
        };
    }

    /// The 4×4 counterpart of the 8×8 sign-pattern test, so every
    /// [`TransformSize`] is proven inside the quantizer's reach. (The
    /// encoder forms only 8×8 coefficients, through `fdct8`; 4×4 blocks
    /// reach the quantizer only through direct calls.)
    #[test]
    fn fdct4_of_every_worst_case_sign_pattern_stays_within_the_quantizer_reach() {
        let mut peak = 0;
        for row_basis in &B4 {
            for column_basis in &B4 {
                for sign in [1, -1] {
                    let tile: Vec<i32> = (0..16)
                        .map(|i| {
                            let pattern = row_basis[i / 4].signum() * column_basis[i % 4].signum();
                            sign * 255 * i32::from(pattern)
                        })
                        .collect();
                    let coeffs = fdct(TransformSize::T4, &tile);
                    assert_eq!(coeffs, fdct_matrix(4, &tile));
                    peak = peak.max(coeffs.iter().map(|c| c.unsigned_abs()).max().unwrap());
                }
            }
        }
        assert!(peak <= crate::quant::REACH, "4x4 peak {peak}");
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
        let widen = |b: Vec<i16>| b.into_iter().map(i64::from).collect::<Vec<_>>();
        assert_eq!(widen(B4.concat()), computed_basis(4));
        assert_eq!(widen(B8.concat()), computed_basis(8));
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
