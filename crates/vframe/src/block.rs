//! Pixel-block helpers and distortion kernels.
//!
//! Encoders in `vcodec` operate on square blocks of samples (macroblocks and
//! their subdivisions). This module provides block extraction with edge
//! clamping, block paste, and the two distortion kernels that dominate
//! encoder runtime: SAD (sum of absolute differences, used by motion search)
//! and SATD (sum of absolute Hadamard-transformed differences, used by
//! mode decision at higher effort levels).

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
        let mut buf = [0u8; MAX_BLOCK];
        for (dy, out) in self.data.chunks_exact_mut(self.size).enumerate() {
            let span = plane.clamped_span(x, y + dy as isize, &mut buf[..self.size]);
            for (o, &s) in out.iter_mut().zip(span) {
                *o = i16::from(s);
            }
        }
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

/// SAD of one block row against as many samples of any narrower type.
#[inline]
fn row_sad<T: Into<i32>>(row: &[i16], other: impl Iterator<Item = T>) -> u32 {
    row.iter().zip(other).map(|(&a, b)| (i32::from(a) - b.into()).unsigned_abs()).sum()
}

/// SAD computed directly against a plane region (avoids materializing the
/// candidate block); `(x, y)` may be out of bounds, in which case samples
/// are edge-clamped.
///
/// # Panics
///
/// Panics if the block is larger than [`MAX_BLOCK`].
pub fn sad_plane(block: &Block, plane: &Plane, x: isize, y: isize) -> u64 {
    let mut buf = [0u8; MAX_BLOCK];
    let mut total = 0u64;
    for (dy, row) in block.rows().enumerate() {
        let span = plane.clamped_span(x, y + dy as isize, &mut buf[..block.size()]);
        total += u64::from(row_sad(row, span.iter().copied()));
    }
    total
}

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
    // Columns transformed together: four sub-blocks' worth.
    const LANES: usize = 16;
    let size = a.size();
    let mut total = 0u64;
    // A band is four rows of both blocks, i.e. one row of sub-blocks.
    for (band_a, band_b) in a.data().chunks_exact(4 * size).zip(b.data().chunks_exact(4 * size)) {
        for cx in (0..size).step_by(LANES) {
            let w = LANES.min(size - cx);
            let rows_a: [&[i16]; 4] = std::array::from_fn(|k| &band_a[k * size + cx..][..w]);
            let rows_b: [&[i16]; 4] = std::array::from_fn(|k| &band_b[k * size + cx..][..w]);
            // Vertical butterflies first: the same operation at every
            // column, so the compiler can run several columns at once.
            // (The transform is separable; either order gives the same
            // coefficients.)
            let mut v = [[0i32; LANES]; 4];
            for x in 0..w {
                let d = |k: usize| i32::from(rows_a[k][x]) - i32::from(rows_b[k][x]);
                let col = hadamard4([d(0), d(1), d(2), d(3)]);
                for (row, c) in v.iter_mut().zip(col) {
                    row[x] = c;
                }
            }
            // Horizontal butterflies and magnitudes, summed per sub-block
            // because each sub-block's sum is halved on its own.
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

/// One 4-point Hadamard butterfly.
#[inline]
fn hadamard4([a, b, c, d]: [i32; 4]) -> [i32; 4] {
    let (s0, s1, d0, d1) = (a + c, b + d, a - c, b - d);
    [s0 + s1, s0 - s1, d0 + d1, d0 - d1]
}

#[cfg(test)]
mod tests {
    use super::*;
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
        // across any edge, or wholly outside.
        #[test]
        fn sad_plane_equals_sad_against_a_clamped_copy(
            data in prop::collection::vec(any::<u8>(), 20 * 12),
            block in prop::collection::vec(0i16..=255, 64),
            x in -24isize..40,
            y in -24isize..32,
        ) {
            let plane = Plane::from_data(20, 12, data);
            let block = Block::from_data(8, block);
            let mut cand = Block::zero(8);
            for dy in 0..8 {
                for dx in 0..8 {
                    cand.set(dx, dy, i16::from(plane.get_clamped(x + dx as isize, y + dy as isize)));
                }
            }
            prop_assert_eq!(Block::copy_from(&plane, x, y, 8), cand.clone());
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
