//! Pixel-block helpers and distortion kernels.
//!
//! Encoders in `vcodec` operate on square blocks of samples (macroblocks and
//! their subdivisions). This module provides block extraction with edge
//! clamping, block paste, and the two distortion kernels that dominate
//! encoder runtime: SAD (sum of absolute differences, used by motion search)
//! and SATD (sum of absolute Hadamard-transformed differences, used by
//! mode decision at higher effort levels).

use std::ops::{Add, Neg, Sub};

use crate::Plane;

/// Largest block edge the plane-reading kernels accept: their row buffers
/// are stack arrays of this many samples (superblocks are at most 32).
pub const MAX_BLOCK: usize = 64;

/// A square block of samples copied out of a plane, stored row-major as
/// `i16` so residual arithmetic cannot overflow.
///
/// The encoder allocates its blocks once per pass and refills them
/// ([`Block::load`]); nothing in the per-superblock loop creates one.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Block {
    size: usize,
    data: Vec<i16>,
}

impl Block {
    /// Creates a zero block of dimension `size × size`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn zero(size: usize) -> Block {
        assert!(size > 0, "block size must be non-zero");
        Block { size, data: vec![0; size * size] }
    }

    /// Creates a block from row-major samples.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != size * size`.
    pub fn from_data(size: usize, data: Vec<i16>) -> Block {
        assert_eq!(data.len(), size * size, "block data must be size^2 samples");
        Block { size, data }
    }

    /// Copies the `size × size` region of `plane` whose top-left corner is
    /// `(x, y)` into a new block; see [`Block::load`].
    pub fn copy_from(plane: &Plane, x: isize, y: isize, size: usize) -> Block {
        let mut block = Block::zero(size);
        block.load(plane, x, y);
        block
    }

    /// Refills the block with the region of `plane` whose top-left corner
    /// is `(x, y)`; out-of-bounds samples are edge-clamped.
    ///
    /// # Panics
    ///
    /// Panics if the block is larger than [`MAX_BLOCK`].
    pub fn load(&mut self, plane: &Plane, x: isize, y: isize) {
        match self.size {
            8 => load_rows::<8>(&mut self.data, 8, plane, x, y),
            16 => load_rows::<16>(&mut self.data, 16, plane, x, y),
            32 => load_rows::<32>(&mut self.data, 32, plane, x, y),
            n => load_rows::<0>(&mut self.data, n, plane, x, y),
        }
    }

    /// Refills the block with `size` rows of `bytes` whose starts are
    /// `stride` apart, the first at `bytes[0]`: [`Block::load`] from a
    /// byte buffer instead of a plane, with the same constant-width rows.
    ///
    /// # Panics
    ///
    /// Panics if the block is larger than [`MAX_BLOCK`] or `bytes` ends
    /// before the last row does.
    pub fn load_bytes(&mut self, bytes: &[u8], stride: usize) {
        match self.size {
            8 => load_strided::<8>(&mut self.data, 8, bytes, stride),
            16 => load_strided::<16>(&mut self.data, 16, bytes, stride),
            32 => load_strided::<32>(&mut self.data, 32, bytes, stride),
            n => load_strided::<0>(&mut self.data, n, bytes, stride),
        }
    }

    /// The block's samples as bytes, written row-major into the front of
    /// `out`, when every one lies in 0..=255 (the form full-pel search
    /// compares against a plane, [`sad_plane_bytes`]); `None` otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `out` holds fewer than `size²` bytes.
    pub fn pack_bytes<'a>(&self, out: &'a mut [u8]) -> Option<&'a [u8]> {
        if !samples_within(&self.data, 255) {
            return None;
        }
        let out = &mut out[..self.data.len()];
        for (o, &s) in out.iter_mut().zip(&self.data) {
            *o = s as u8;
        }
        Some(out)
    }

    /// Block dimension (blocks are square).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Row-major samples.
    pub fn data(&self) -> &[i16] {
        &self.data
    }

    /// Mutable row-major samples.
    pub fn data_mut(&mut self) -> &mut [i16] {
        &mut self.data
    }

    /// The block's rows, top to bottom.
    pub fn rows(&self) -> std::slice::ChunksExact<'_, i16> {
        self.data.chunks_exact(self.size)
    }

    /// The block's rows, top to bottom, mutably.
    pub fn rows_mut(&mut self) -> std::slice::ChunksExactMut<'_, i16> {
        self.data.chunks_exact_mut(self.size)
    }

    /// Sample at `(x, y)` within the block. Checked on every call: for
    /// callers outside the codec's kernels, which walk [`Block::rows`].
    ///
    /// # Panics
    ///
    /// Panics if the coordinates exceed the block size.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> i16 {
        assert!(x < self.size && y < self.size, "block access out of bounds");
        self.data[y * self.size + x]
    }

    /// Writes a sample at `(x, y)` within the block (checked, like
    /// [`Block::get`]).
    ///
    /// # Panics
    ///
    /// Panics if the coordinates exceed the block size.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, value: i16) {
        assert!(x < self.size && y < self.size, "block access out of bounds");
        self.data[y * self.size + x] = value;
    }

    /// Element-wise difference `self - other` (the *residual block* of
    /// Section 2.1).
    ///
    /// # Panics
    ///
    /// Panics if block sizes differ.
    pub fn residual(&self, other: &Block) -> Block {
        assert_eq!(self.size, other.size, "residual requires equal block sizes");
        let data = self.data.iter().zip(&other.data).map(|(&a, &b)| a - b).collect();
        Block { size: self.size, data }
    }

    /// Element-wise sum `self + other`, saturating into `[0, 255]` —
    /// reconstruction of a predicted block plus decoded residual.
    ///
    /// # Panics
    ///
    /// Panics if block sizes differ.
    pub fn add_clamped(&self, other: &Block) -> Block {
        assert_eq!(self.size, other.size, "add requires equal block sizes");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (i32::from(a) + i32::from(b)).clamp(0, 255) as i16)
            .collect();
        Block { size: self.size, data }
    }

    /// Writes the block into `plane` at `(x, y)`, clamping samples to
    /// `[0, 255]` and clipping at the plane edges.
    pub fn paste_into(&self, plane: &mut Plane, x: usize, y: usize) {
        let cols = self.size.min(plane.width().saturating_sub(x));
        let rows = self.size.min(plane.height().saturating_sub(y));
        if cols == 0 {
            return; // wholly right of the plane
        }
        for (dy, src) in self.rows().take(rows).enumerate() {
            let dst = &mut plane.row_mut(y + dy)[x..x + cols];
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = s.clamp(0, 255) as u8;
            }
        }
    }

    /// Mean absolute sample value — an activity measure used by rate
    /// control to classify block complexity.
    pub fn mean_abs(&self) -> f64 {
        self.data.iter().map(|&s| f64::from(s.unsigned_abs())).sum::<f64>() / self.data.len() as f64
    }
}

/// Whether every sample of `data` lies in `0..=max`, for a `max` one less
/// than a power of two: an OR over all samples, which vectorizes, in
/// place of a per-sample compare.
#[inline]
fn samples_within(data: &[i16], max: u16) -> bool {
    debug_assert!((max as u32 + 1).is_power_of_two());
    data.iter().fold(0u16, |acc, &s| acc | s as u16) <= max
}

crate::isa::multiversion! {
    /// Sum of absolute differences between two equally sized blocks — the inner
    /// loop of motion estimation, "usually the most computationally onerous
    /// step" of encoding (Section 2.1).
    ///
    /// # Panics
    ///
    /// Panics if block sizes differ.
    ///
    /// ```
    /// use vframe::block::{sad, Block};
    /// let a = Block::from_data(2, vec![10, 10, 10, 10]);
    /// let b = Block::from_data(2, vec![11, 9, 10, 14]);
    /// assert_eq!(sad(&a, &b), 6);
    /// ```
    pub fn sad(a: &Block, b: &Block) -> u64 {
        assert_eq!(a.size(), b.size(), "SAD requires equal block sizes");
        a.rows().zip(b.rows()).map(|(ra, rb)| u64::from(row_sad(ra, rb.iter().copied()))).sum()
    }
}

/// SAD of one block row against as many samples of any narrower type.
#[inline]
fn row_sad<T: Into<i32>>(row: &[i16], other: impl Iterator<Item = T>) -> u32 {
    row.iter().zip(other).map(|(&a, b)| (i32::from(a) - b.into()).unsigned_abs()).sum()
}

/// The row width a constant-width kernel body runs at: `N` when it is
/// one of the instantiated widths, the runtime `width` for `N == 0`.
/// Slicing to it gives LLVM a constant trip count, so a row is whole
/// vectors, not the scalar tail of a vector loop unrolled past its end.
#[inline(always)]
pub fn row_width<const N: usize>(width: usize) -> usize {
    debug_assert!(N == 0 || N == width, "row width {width} instantiated as {N}");
    if N == 0 {
        width
    } else {
        N
    }
}

/// One block row widened from `span` at row width `N`, formed in a local
/// array and then copied out: stores to a buffer nothing else points at
/// are what LLVM will vectorize.
#[inline(always)]
fn widen_row<const N: usize>(out: &mut [i16], span: &[u8]) {
    let n = row_width::<N>(out.len());
    let mut wide = [0i16; MAX_BLOCK];
    for (o, &s) in wide[..n].iter_mut().zip(&span[..n]) {
        *o = i16::from(s);
    }
    out.copy_from_slice(&wide[..n]);
}

/// [`Block::load`] at row width `N` (see [`row_width`]).
#[inline(always)]
fn load_rows<const N: usize>(data: &mut [i16], width: usize, plane: &Plane, x: isize, y: isize) {
    let n = row_width::<N>(width);
    let rows = data.chunks_exact_mut(n);
    if let Some(spans) = plane.window(x, y, n, n) {
        rows.zip(spans).for_each(|(out, span)| widen_row::<N>(out, span));
        return;
    }
    let mut buf = [0u8; MAX_BLOCK];
    for (dy, out) in rows.enumerate() {
        widen_row::<N>(out, plane.clamped_span(x, y + dy as isize, &mut buf[..n]));
    }
}

/// [`Block::load_bytes`] at row width `N`.
#[inline(always)]
fn load_strided<const N: usize>(data: &mut [i16], width: usize, bytes: &[u8], stride: usize) {
    let n = row_width::<N>(width);
    for (dy, out) in data.chunks_exact_mut(n).enumerate() {
        widen_row::<N>(out, &bytes[dy * stride..][..n]);
    }
}

/// SAD of two byte rows as `max − min` per sample, summed in `u16`:
/// exact for rows of at most 64 samples (64 · 255 = 16 320). Up to 16
/// samples are one LLVM `psadbw` pattern; a longer row is summed 16 at a
/// time, because as one loop LLVM widened each difference to `u32`.
#[inline(always)]
fn row_sad_bytes(a: &[u8], b: &[u8]) -> u16 {
    #[inline(always)]
    fn sad(a: &[u8], b: &[u8]) -> u16 {
        a.iter().zip(b).map(|(&a, &b)| u16::from(a.max(b) - a.min(b))).sum()
    }
    if a.len() <= 16 {
        return sad(a, b);
    }
    a.chunks(16).zip(b.chunks(16)).map(|(a, b)| sad(a, b)).sum()
}

/// SAD computed directly against a plane region (avoids materializing the
/// candidate block); `(x, y)` may be out of bounds, in which case samples
/// are edge-clamped.
///
/// A block whose samples all lie in 0..=255 is packed to bytes and runs
/// [`sad_plane_bytes`]; any other runs in `i32`.
///
/// # Panics
///
/// Panics if the block is larger than [`MAX_BLOCK`].
pub fn sad_plane(block: &Block, plane: &Plane, x: isize, y: isize) -> u64 {
    let mut bytes = [0u8; MAX_BLOCK * MAX_BLOCK];
    if let Some(bytes) = block.pack_bytes(&mut bytes) {
        return sad_plane_bytes(bytes, block.size(), plane, x, y);
    }
    let mut buf = [0u8; MAX_BLOCK];
    let buf = &mut buf[..block.size()];
    let mut total = 0;
    for (dy, row) in block.rows().enumerate() {
        total +=
            u64::from(row_sad(row, plane.clamped_span(x, y + dy as isize, buf).iter().copied()));
    }
    total
}

/// [`sad_plane`] of a block already packed to bytes ([`Block::pack_bytes`]):
/// `block` holds `size × size` samples, row-major. Every candidate row,
/// inside the plane or clamped at an edge, runs the same byte kernel, at a
/// constant row width for blocks of 8, 16 and 32.
///
/// # Panics
///
/// Panics if `size` is larger than [`MAX_BLOCK`] or `block` holds fewer
/// than `size²` samples.
pub fn sad_plane_bytes(block: &[u8], size: usize, plane: &Plane, x: isize, y: isize) -> u64 {
    match size {
        8 => sad_rows::<8>(block, 8, plane, x, y),
        16 => sad_rows::<16>(block, 16, plane, x, y),
        32 => sad_rows::<32>(block, 32, plane, x, y),
        n => sad_rows::<0>(block, n, plane, x, y),
    }
}

/// [`sad_plane_bytes`] at row width `N` (see [`row_width`]). Out of line,
/// one copy per width, as [`row_sad_bytes`] needs: in one function with
/// the other widths, LLVM summed the 16-wide rows as two 8-sample halves.
#[inline(never)]
fn sad_rows<const N: usize>(block: &[u8], width: usize, plane: &Plane, x: isize, y: isize) -> u64 {
    let n = row_width::<N>(width);
    if let Some(spans) = plane.window(x, y, n, n) {
        return sum_row_sads::<N>(block, width, spans);
    }
    let block = block[..n * n].chunks_exact(n);
    let mut buf = [0u8; MAX_BLOCK];
    let mut total = 0u32;
    for (dy, row) in block.enumerate() {
        total += u32::from(edge_row_sad::<N>(
            row,
            plane.clamped_span(x, y + dy as isize, &mut buf[..n]),
        ));
    }
    u64::from(total)
}

/// The SAD of a packed `width × width` block against `width` byte rows,
/// at row width `N`.
#[inline(always)]
fn sum_row_sads<'a, const N: usize>(
    block: &[u8],
    width: usize,
    spans: impl Iterator<Item = &'a [u8]>,
) -> u64 {
    let n = row_width::<N>(width);
    let rows = block[..n * n].chunks_exact(n).zip(spans);
    u64::from(rows.map(|(row, span)| u32::from(row_sad_bytes(&row[..n], &span[..n]))).sum::<u32>())
}

/// [`sad_plane_bytes`] of a packed block against `size` rows of `other`
/// whose starts are `stride` apart, the first at `other[0]`: a window of
/// a byte buffer rather than of a plane, through the same row kernel.
///
/// # Panics
///
/// Panics if `size` is larger than [`MAX_BLOCK`], `block` holds fewer
/// than `size²` samples or `other` ends before the last row does.
pub fn sad_bytes(block: &[u8], size: usize, other: &[u8], stride: usize) -> u64 {
    match size {
        8 => sad_strided::<8>(block, 8, other, stride),
        16 => sad_strided::<16>(block, 16, other, stride),
        32 => sad_strided::<32>(block, 32, other, stride),
        n => sad_strided::<0>(block, n, other, stride),
    }
}

/// [`sad_bytes`] at row width `N`, out of line per width like [`sad_rows`].
#[inline(never)]
fn sad_strided<const N: usize>(block: &[u8], width: usize, other: &[u8], stride: usize) -> u64 {
    let n = row_width::<N>(width);
    sum_row_sads::<N>(block, width, (0..n).map(|dy| &other[dy * stride..][..n]))
}

/// [`row_sad_bytes`] at row width `N`, out of line for [`sad_rows`]'
/// windows across an edge: inlined into a loop that calls
/// [`Plane::clamped_span`] on every row, LLVM summed each row's bytes one
/// at a time.
#[inline(never)]
fn edge_row_sad<const N: usize>(row: &[u8], span: &[u8]) -> u16 {
    let n = row_width::<N>(row.len());
    row_sad_bytes(&row[..n], &span[..n])
}

crate::isa::multiversion! {
    /// Sum of absolute transformed differences over 4×4 Hadamard sub-blocks —
    /// a frequency-domain distortion measure that better predicts coded cost
    /// than SAD, used by higher effort levels for mode decision.
    ///
    /// # Panics
    ///
    /// Panics if block sizes differ or are not multiples of 4.
    pub fn satd(a: &Block, b: &Block) -> u64 {
        assert_eq!(a.size(), b.size(), "SATD requires equal block sizes");
        assert!(a.size().is_multiple_of(4), "SATD operates on 4x4 sub-blocks");
        // With both blocks in 0..=4095, every |a − b| ≤ 4095 and every value
        // the three butterfly stages form is at most 8 · 4095 = 32 760: `i16`
        // is exact. Outside, `i32` is: 8 · 65 535 per value.
        if samples_within(a.data(), 4095) && samples_within(b.data(), 4095) {
            satd_lanes::<i16>(a, b)
        } else {
            satd_lanes::<i32>(a, b)
        }
    }
}

/// The lane type of [`satd_lanes`]: `i16` inside its exact domain, `i32`
/// on any input.
trait Lane:
    Copy + Default + Ord + Add<Output = Self> + Sub<Output = Self> + Neg<Output = Self>
{
    fn of(sample: i16) -> Self;
    fn magnitude(self) -> u32;
}

impl Lane for i16 {
    #[inline]
    fn of(sample: i16) -> i16 {
        sample
    }

    #[inline]
    fn magnitude(self) -> u32 {
        self.max(-self) as u32
    }
}

impl Lane for i32 {
    #[inline]
    fn of(sample: i16) -> i32 {
        i32::from(sample)
    }

    #[inline]
    fn magnitude(self) -> u32 {
        self.unsigned_abs()
    }
}

/// [`satd`] in lanes of `L`, a band of four rows at a time, eight columns
/// (two sub-blocks) at a time; a block whose size is an odd multiple of
/// four ends each band with four columns padded with four of zeros, which
/// add nothing.
#[inline(always)]
fn satd_lanes<L: Lane>(a: &Block, b: &Block) -> u64 {
    let size = a.size();
    let mut total = 0u64;
    for (band_a, band_b) in a.data().chunks_exact(4 * size).zip(b.data().chunks_exact(4 * size)) {
        fn rows(band: &[i16], size: usize, cx: usize) -> [&[i16; 8]; 4] {
            std::array::from_fn(|k| band[k * size + cx..][..8].try_into().expect("eight columns"))
        }
        let mut cx = 0;
        while cx + 8 <= size {
            total += u64::from(satd_4x8::<L>(rows(band_a, size, cx), rows(band_b, size, cx)));
            cx += 8;
        }
        if cx < size {
            let pad = |band: &[i16]| -> [[i16; 8]; 4] {
                std::array::from_fn(|k| {
                    let mut row = [0; 8];
                    row[..4].copy_from_slice(&band[k * size + cx..][..4]);
                    row
                })
            };
            let (ta, tb) = (pad(band_a), pad(band_b));
            total += u64::from(satd_4x8::<L>(ta.each_ref(), tb.each_ref()));
        }
    }
    total
}

/// SATD of two 4×4 sub-blocks side by side. Each 4×4 Hadamard is three
/// butterfly stages and a fourth whose magnitudes are summed and then
/// halved, and `|x + y| + |x − y| = 2 · max(|x|, |y|)`: so each
/// sub-block's SATD is the sum, over the pairs of the fourth stage, of
/// the larger magnitude of the pair — no fourth stage, no halving, and
/// the same total over any grouping of the pairs.
///
/// The two horizontal stages run inside each row first, writing every
/// row's coefficients in the same lane order; the vertical stages then
/// combine whole rows, lane by lane.
#[inline(always)]
fn satd_4x8<L: Lane>(a: [&[i16; 8]; 4], b: [&[i16; 8]; 4]) -> u32 {
    let mut h = [[L::default(); 8]; 4];
    for k in 0..4 {
        let d: [L; 8] = std::array::from_fn(|x| L::of(a[k][x]) - L::of(b[k][x]));
        let mut s = [L::default(); 4];
        let mut t = [L::default(); 4];
        for j in 0..4 {
            s[j] = d[2 * j] + d[2 * j + 1];
            t[j] = d[2 * j] - d[2 * j + 1];
        }
        for g in 0..2 {
            h[k][g] = s[2 * g] + s[2 * g + 1];
            h[k][2 + g] = s[2 * g] - s[2 * g + 1];
            h[k][4 + g] = t[2 * g] + t[2 * g + 1];
            h[k][6 + g] = t[2 * g] - t[2 * g + 1];
        }
    }
    let [h0, h1, h2, h3] = &h;
    let mut total = 0;
    for x in 0..8 {
        let (s0, s1) = (h0[x] + h2[x], h1[x] + h3[x]);
        let (d0, d1) = (h0[x] - h2[x], h1[x] - h3[x]);
        total += s0.magnitude().max(s1.magnitude()) + d0.magnitude().max(d1.magnitude());
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa;
    use proptest::prelude::*;

    #[test]
    fn copy_and_paste_roundtrip() {
        let mut p = Plane::filled(8, 8, 0);
        for y in 0..8 {
            for x in 0..8 {
                p.set(x, y, (y * 8 + x) as u8);
            }
        }
        let b = Block::copy_from(&p, 2, 2, 4);
        let mut q = Plane::filled(8, 8, 0);
        b.paste_into(&mut q, 2, 2);
        for y in 2..6 {
            for x in 2..6 {
                assert_eq!(q.get(x, y), p.get(x, y));
            }
        }
    }

    #[test]
    fn copy_clamps_at_edges() {
        let p = Plane::filled(4, 4, 9);
        let b = Block::copy_from(&p, -2, -2, 4);
        assert!(b.data().iter().all(|&s| s == 9));
    }

    #[test]
    fn residual_plus_prediction_reconstructs() {
        let a = Block::from_data(2, vec![100, 50, 25, 200]);
        let pred = Block::from_data(2, vec![90, 60, 20, 210]);
        let res = a.residual(&pred);
        let rec = pred.add_clamped(&res);
        assert_eq!(rec, a);
    }

    #[test]
    fn sad_zero_for_identical() {
        let a = Block::from_data(4, (0..16).collect());
        assert_eq!(sad(&a, &a), 0);
        assert_eq!(satd(&a, &a), 0);
    }

    #[test]
    fn sad_plane_matches_block_sad() {
        let mut p = Plane::filled(8, 8, 0);
        for y in 0..8 {
            for x in 0..8 {
                p.set(x, y, ((x * 31 + y * 7) % 256) as u8);
            }
        }
        let blk = Block::copy_from(&p, 1, 1, 4);
        let cand = Block::copy_from(&p, 3, 2, 4);
        assert_eq!(sad_plane(&blk, &p, 3, 2), sad(&blk, &cand));
    }

    /// One 4-point Hadamard butterfly.
    fn hadamard4([a, b, c, d]: [i32; 4]) -> [i32; 4] {
        let (s0, s1, d0, d1) = (a + c, b + d, a - c, b - d);
        [s0 + s1, s0 - s1, d0 + d1, d0 - d1]
    }

    /// Oracle: the `i32` banded SATD the narrow-lane kernel replaced —
    /// vertical butterflies sixteen columns at a time, then horizontal
    /// ones, every sub-block's magnitude sum halved on its own.
    fn satd_banded(a: &Block, b: &Block) -> u64 {
        const LANES: usize = 16;
        let size = a.size();
        let mut total = 0u64;
        for (band_a, band_b) in a.data().chunks_exact(4 * size).zip(b.data().chunks_exact(4 * size))
        {
            for cx in (0..size).step_by(LANES) {
                let w = LANES.min(size - cx);
                let rows_a: [&[i16]; 4] = std::array::from_fn(|k| &band_a[k * size + cx..][..w]);
                let rows_b: [&[i16]; 4] = std::array::from_fn(|k| &band_b[k * size + cx..][..w]);
                let mut v = [[0i32; LANES]; 4];
                for x in 0..w {
                    let d = |k: usize| i32::from(rows_a[k][x]) - i32::from(rows_b[k][x]);
                    let col = hadamard4([d(0), d(1), d(2), d(3)]);
                    for (row, c) in v.iter_mut().zip(col) {
                        row[x] = c;
                    }
                }
                let mut sums = [0u32; LANES / 4];
                for row in &v {
                    for (sum, g) in sums.iter_mut().zip(row.chunks_exact(4)) {
                        let t = hadamard4([g[0], g[1], g[2], g[3]]);
                        *sum += t.iter().map(|c| c.unsigned_abs()).sum::<u32>();
                    }
                }
                total += sums.iter().map(|&sum| u64::from(sum / 2)).sum::<u64>();
            }
        }
        total
    }

    /// Oracle: SATD one checked sample access at a time, sub-block by
    /// sub-block, horizontal pass first — as it was written before the
    /// banded kernel.
    #[allow(clippy::needless_range_loop)] // an oracle is written index by index
    fn satd_per_sample(a: &Block, b: &Block) -> u64 {
        let mut total = 0u64;
        for by in (0..a.size()).step_by(4) {
            for bx in (0..a.size()).step_by(4) {
                let mut m = [[0i32; 4]; 4];
                for (y, row) in m.iter_mut().enumerate() {
                    for (x, cell) in row.iter_mut().enumerate() {
                        *cell = i32::from(a.get(bx + x, by + y)) - i32::from(b.get(bx + x, by + y));
                    }
                    *row = hadamard4(*row);
                }
                let mut sum = 0u64;
                for x in 0..4 {
                    let col = hadamard4([m[0][x], m[1][x], m[2][x], m[3][x]]);
                    sum += col.iter().map(|v| u64::from(v.unsigned_abs())).sum::<u64>();
                }
                total += sum / 2;
            }
        }
        total
    }

    /// Oracle: SAD one checked sample access at a time, in `i32`.
    fn sad_per_sample(a: &Block, b: &Block) -> u64 {
        let mut total = 0u64;
        for y in 0..a.size() {
            for x in 0..a.size() {
                let d = i32::from(a.get(x, y)) - i32::from(b.get(x, y));
                total += u64::from(d.unsigned_abs());
            }
        }
        total
    }

    /// Case-count multiplier: the `--release` test run does ten times
    /// what the debug tier-1 run does.
    const SCALE: u32 = if cfg!(debug_assertions) { 1 } else { 10 };

    /// Block sizes 1..=[`MAX_BLOCK`], half of them the widths the
    /// plane-reading kernels have constant-width bodies for (8, 16, 32).
    fn block_size() -> impl Strategy<Value = usize> {
        (0usize..6, 1usize..=MAX_BLOCK)
            .prop_map(|(pick, any)| [8, 16, 32].get(pick).copied().unwrap_or(any))
    }

    /// Pairs of square blocks of a size drawn from `sizes` (at most
    /// [`MAX_BLOCK`]), with samples from one of the narrow ranges, on or
    /// just past their edges, or anywhere in `i16`.
    fn block_pair(sizes: impl Strategy<Value = usize>) -> impl Strategy<Value = (Block, Block)> {
        (sizes, 0u8..5, prop::collection::vec(any::<i16>(), 2 * MAX_BLOCK * MAX_BLOCK)).prop_map(
            |(size, range, raw)| {
                let sample = |v: i16| match range {
                    0 => v.rem_euclid(256),
                    1 => v.rem_euclid(4096),
                    2 => [0, 255, 256, 4095, 4096, -1][v.unsigned_abs() as usize % 6],
                    3 => v % 300,
                    _ => v,
                };
                let mut it = raw.into_iter().map(sample);
                let mut block = || Block::from_data(size, it.by_ref().take(size * size).collect());
                (block(), block())
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64 * SCALE, ..ProptestConfig::default() })]

        // The whole public domain: inside `i16`'s exact range, on its
        // edges, and any `i16` at all (the `i32` instantiation).
        #[test]
        fn satd_equals_both_oracles_on_any_samples(
            // Multiples of four up to 28: odd ones run the four-column tail.
            pair in block_pair((1usize..=7).prop_map(|edge| edge * 4)),
        ) {
            let (a, b) = pair;
            let want = satd_per_sample(&a, &b);
            prop_assert_eq!(isa::same_at_every_rung("block::satd", || satd(&a, &b)), want);
            prop_assert_eq!(satd_banded(&a, &b), want);
        }

        #[test]
        fn sad_equals_per_sample_sad_on_any_samples(pair in block_pair(1usize..=MAX_BLOCK)) {
            let (a, b) = pair;
            let got = isa::same_at_every_rung("block::sad", || sad(&a, &b));
            prop_assert_eq!(got, sad_per_sample(&a, &b));
        }

        // Every block size, half of them the constant-width ones; samples
        // in bytes, past them, or one sample past 255 in a byte block; the
        // window inside the plane, across each edge and corner, or wholly
        // outside it.
        #[test]
        fn sad_plane_equals_per_sample_sad_on_any_block(
            pair in block_pair(block_size()),
            spike in (any::<bool>(), any::<usize>(), 256i16..=4096),
            data in prop::collection::vec(any::<u8>(), 40 * 36),
            x in -70isize..44,
            y in -70isize..40,
        ) {
            let mut block = pair.0;
            let (spiked, at, value) = spike;
            if spiked {
                let len = block.data().len();
                block.data_mut()[at % len] = value;
            }
            let plane = Plane::from_data(40, 36, data);
            let cand = Block::copy_from(&plane, x, y, block.size());
            let want = sad_per_sample(&block, &cand);
            prop_assert_eq!(sad_plane(&block, &plane, x, y), want);
            let mut bytes = [0u8; MAX_BLOCK * MAX_BLOCK];
            if let Some(bytes) = block.pack_bytes(&mut bytes) {
                prop_assert_eq!(sad_plane_bytes(bytes, block.size(), &plane, x, y), want);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64 * SCALE, ..ProptestConfig::default() })]

        // Every block size, half of them the constant-width ones, rows
        // packed tight or with up to two samples between them.
        #[test]
        fn byte_windows_equal_per_sample_loads_and_sad(
            size in block_size(),
            gap in 0usize..3,
            data in prop::collection::vec(any::<u8>(), (MAX_BLOCK + 2) * MAX_BLOCK),
            block in prop::collection::vec(0i16..=255, MAX_BLOCK * MAX_BLOCK),
        ) {
            let stride = size + gap;
            let mut want = Block::zero(size);
            for dy in 0..size {
                for dx in 0..size {
                    want.set(dx, dy, i16::from(data[dy * stride + dx]));
                }
            }
            let mut got = Block::zero(size);
            got.load_bytes(&data, stride);
            prop_assert_eq!(&got, &want);
            let block = Block::from_data(size, block[..size * size].to_vec());
            let mut bytes = [0u8; MAX_BLOCK * MAX_BLOCK];
            let bytes = block.pack_bytes(&mut bytes).expect("byte samples pack");
            prop_assert_eq!(sad_bytes(bytes, size, &data, stride), sad_per_sample(&block, &want));
        }
    }

    proptest! {
        #[test]
        fn satd_equals_per_sample_satd(
            a in prop::collection::vec(-255i16..=255, 24 * 24),
            b in prop::collection::vec(0i16..=255, 24 * 24),
            size in 1usize..=6,
        ) {
            let size = size * 4;
            let a = Block::from_data(size, a[..size * size].to_vec());
            let b = Block::from_data(size, b[..size * size].to_vec());
            prop_assert_eq!(satd(&a, &b), satd_per_sample(&a, &b));
        }

        // In-plane SAD against the plane equals SAD against the block
        // `get_clamped` would build, wherever the window lies: inside,
        // across any edge or corner, across two opposite edges (blocks
        // wider than the 20×12 plane), or wholly outside.
        #[test]
        fn sad_plane_equals_sad_against_a_clamped_copy(
            size in block_size(),
            data in prop::collection::vec(any::<u8>(), 20 * 12),
            block in prop::collection::vec(0i16..=255, MAX_BLOCK * MAX_BLOCK),
            x in -72isize..28,
            y in -72isize..20,
        ) {
            let plane = Plane::from_data(20, 12, data);
            let block = Block::from_data(size, block[..size * size].to_vec());
            let mut cand = Block::zero(size);
            for dy in 0..size {
                for dx in 0..size {
                    cand.set(dx, dy, i16::from(plane.get_clamped(x + dx as isize, y + dy as isize)));
                }
            }
            prop_assert_eq!(Block::copy_from(&plane, x, y, size), cand.clone());
            prop_assert_eq!(sad_plane(&block, &plane, x, y), sad(&block, &cand));
        }

        #[test]
        fn paste_clips_like_per_sample_paste(
            block in prop::collection::vec(-300i16..=300, 64),
            x in 0usize..30,
            y in 0usize..20,
        ) {
            let block = Block::from_data(8, block);
            let mut got = Plane::filled(20, 12, 9);
            block.paste_into(&mut got, x, y);
            let mut want = Plane::filled(20, 12, 9);
            for dy in 0..8 {
                for dx in 0..8 {
                    if x + dx < 20 && y + dy < 12 {
                        want.set(x + dx, y + dy, block.get(dx, dy).clamp(0, 255) as u8);
                    }
                }
            }
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn satd_penalizes_structured_error_less_than_sad() {
        // A constant (DC-only) difference concentrates into one Hadamard
        // coefficient: SATD < SAD. High-frequency noise spreads across
        // coefficients and is penalized more.
        let a = Block::from_data(4, vec![0; 16]);
        let dc = Block::from_data(4, vec![10; 16]);
        assert!(satd(&a, &dc) < sad(&a, &dc));
    }

    #[test]
    fn mean_abs_activity() {
        let b = Block::from_data(2, vec![-4, 4, -4, 4]);
        assert!((b.mean_abs() - 4.0).abs() < 1e-12);
    }
}
