//! The 8×8 residual tile and the block buffers around it — the working
//! set of the superblock loop, shared by encoder and decoder.
//!
//! Rule: nothing inside the superblock loop allocates. Prediction and
//! source blocks live in a [`Scratch`] made once per pass (or per
//! decode) and are refilled in place; tiles, coefficients and levels are
//! fixed arrays on the stack; planes are read and written a row at a
//! time.

use crate::motion::{average_into, motion_compensate_into, MotionVector};
use crate::quant::dequantize_into;
use crate::transform::idct8;
use vframe::block::Block;
use vframe::{Frame, Plane};

/// Edge of the transform tile.
pub(crate) const TILE: usize = 8;
/// One tile of residuals, coefficients or levels, row-major.
pub(crate) type Tile = [i32; TILE * TILE];

/// Reusable blocks for one superblock size: five superblock-sized, five
/// of half that edge (quadrants and chroma). What each holds is up to
/// the coder using it; contents never carry from one superblock to the
/// next.
pub(crate) struct Scratch {
    /// The source superblock.
    pub orig: Block,
    /// Motion search's interpolated candidate.
    pub cand: Block,
    /// The intra prediction under evaluation.
    pub intra: Block,
    /// Inter predictions: forward (or the only one), backward, and their
    /// average.
    pub pred: Block,
    pub pred_b: Block,
    pub pred_bi: Block,
    /// Half-size: a source quadrant, its search candidate, and a
    /// quadrant or chroma prediction.
    pub qorig: Block,
    pub qcand: Block,
    pub qpred: Block,
    /// Half-size: the two chroma predictions of an inter superblock.
    pub upred: Block,
    pub vpred: Block,
}

impl Scratch {
    pub(crate) fn new(sb: usize) -> Scratch {
        let (full, half) = (|| Block::zero(sb), || Block::zero(sb / 2));
        Scratch {
            orig: full(),
            cand: full(),
            intra: full(),
            pred: full(),
            pred_b: full(),
            pred_bi: full(),
            qorig: half(),
            qcand: half(),
            qpred: half(),
            upred: half(),
            vpred: half(),
        }
    }

    /// Motion-compensates both chroma planes of the superblock at luma
    /// `(x0, y0)` from `reference` into `upred` and `vpred`. Chroma sits
    /// at half the luma position and moves by half the luma vector.
    pub(crate) fn predict_chroma(
        &mut self,
        reference: &Frame,
        x0: usize,
        y0: usize,
        mv: MotionVector,
    ) {
        let cmv = chroma_mv(mv);
        motion_compensate_into(reference.u(), x0 / 2, y0 / 2, cmv, &mut self.upred);
        motion_compensate_into(reference.v(), x0 / 2, y0 / 2, cmv, &mut self.vpred);
    }

    /// Bidirectional [`Scratch::predict_chroma`]: the rounded average of
    /// the forward and backward predictions (`qorig` and `qpred` hold
    /// the two halves on the way).
    pub(crate) fn predict_chroma_bi(
        &mut self,
        (fwd, fmv): (&Frame, MotionVector),
        (bwd, bmv): (&Frame, MotionVector),
        x0: usize,
        y0: usize,
    ) {
        for (f, b, out) in
            [(fwd.u(), bwd.u(), &mut self.upred), (fwd.v(), bwd.v(), &mut self.vpred)]
        {
            motion_compensate_into(f, x0 / 2, y0 / 2, chroma_mv(fmv), &mut self.qorig);
            motion_compensate_into(b, x0 / 2, y0 / 2, chroma_mv(bmv), &mut self.qpred);
            average_into(&self.qorig, &self.qpred, out);
        }
    }
}

fn chroma_mv(mv: MotionVector) -> MotionVector {
    MotionVector::new(mv.x / 2, mv.y / 2)
}

/// The eight samples of `pred`'s row `ty + dy` starting at column `tx`.
#[inline]
fn pred_row(pred: &Block, (tx, ty): (usize, usize), dy: usize) -> &[i16] {
    &pred.data()[(ty + dy) * pred.size() + tx..][..TILE]
}

/// Source minus prediction for the tile at offset `tile` of a region
/// whose top-left corner is `origin` in `src`; source samples past the
/// plane edge are edge-clamped.
pub(crate) fn residual_tile(
    src: &Plane,
    origin: (usize, usize),
    pred: &Block,
    tile: (usize, usize),
) -> Tile {
    let (px, py) = (origin.0 + tile.0, origin.1 + tile.1);
    let mut resid = [0i32; TILE * TILE];
    let mut buf = [0u8; TILE];
    for (dy, out) in resid.chunks_exact_mut(TILE).enumerate() {
        let span = src.clamped_span(px as isize, (py + dy) as isize, &mut buf);
        for ((r, &s), &p) in out.iter_mut().zip(span).zip(pred_row(pred, tile, dy)) {
            *r = i32::from(s) - i32::from(p);
        }
    }
    resid
}

/// Reconstructs the tile at offset `tile` of the region at `origin`:
/// dequantize, inverse-transform, add the prediction, clamp to a sample
/// and write into `recon`, clipped at the plane edges.
///
/// Total on any levels a stream can carry: the inverse transform wraps
/// and the prediction is added saturating, so a hostile block decodes to
/// *some* samples instead of overflowing.
pub(crate) fn reconstruct_tile(
    levels: &Tile,
    qp: u8,
    pred: &Block,
    tile: (usize, usize),
    recon: &mut Plane,
    origin: (usize, usize),
) {
    // Most tiles of an inter frame quantize to nothing, and the inverse
    // transform of nothing is nothing.
    let rec = if levels.iter().all(|&l| l == 0) {
        [0i32; TILE * TILE]
    } else {
        let mut coeffs = [0i32; TILE * TILE];
        dequantize_into(levels, qp, &mut coeffs);
        idct8(&coeffs)
    };
    let (px, py) = (origin.0 + tile.0, origin.1 + tile.1);
    let cols = TILE.min(recon.width().saturating_sub(px));
    let rows = TILE.min(recon.height().saturating_sub(py));
    if cols == 0 {
        return; // wholly right of the plane
    }
    for (dy, rec_row) in rec.chunks_exact(TILE).take(rows).enumerate() {
        let out = &mut recon.row_mut(py + dy)[px..px + cols];
        for ((o, &r), &p) in out.iter_mut().zip(rec_row).zip(pred_row(pred, tile, dy)) {
            *o = r.saturating_add(i32::from(p)).clamp(0, 255) as u8;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::{dequantize, quantize, Deadzone};
    use crate::transform::{fdct, idct, TransformSize};
    use proptest::prelude::*;

    proptest! {
        // Oracle: the same pipeline one sample at a time through
        // `get_clamped`, `Block::get` and `Block::paste_into`, for regions
        // inside, straddling and beyond the plane edges.
        #[test]
        fn tiles_equal_the_per_sample_pipeline(
            src in prop::collection::vec(any::<u8>(), 20 * 12),
            pred in prop::collection::vec(0i16..=255, 256),
            x in 0usize..24,
            y in 0usize..16,
            tile in 0usize..4,
            qp in 0u8..=51,
        ) {
            let src = Plane::from_data(20, 12, src);
            let pred = Block::from_data(16, pred);
            let (tx, ty) = (tile % 2 * 8, tile / 2 * 8);

            let resid = residual_tile(&src, (x, y), &pred, (tx, ty));
            for dy in 0..8 {
                for dx in 0..8 {
                    let s = src.get_clamped((x + tx + dx) as isize, (y + ty + dy) as isize);
                    let want = i32::from(s) - i32::from(pred.get(tx + dx, ty + dy));
                    prop_assert_eq!(resid[dy * 8 + dx], want);
                }
            }

            let levels = quantize(&fdct(TransformSize::T8, &resid), qp, Deadzone::Intra);
            let mut got = Plane::filled(20, 12, 7);
            let tile_levels: Tile = levels.clone().try_into().expect("64 levels");
            reconstruct_tile(&tile_levels, qp, &pred, (tx, ty), &mut got, (x, y));

            let rec = idct(TransformSize::T8, &dequantize(&levels, qp));
            let mut out = Block::zero(8);
            for dy in 0..8 {
                for dx in 0..8 {
                    let v = i32::from(pred.get(tx + dx, ty + dy)) + rec[dy * 8 + dx];
                    out.set(dx, dy, v.clamp(0, 255) as i16);
                }
            }
            let mut want = Plane::filled(20, 12, 7);
            out.paste_into(&mut want, x + tx, y + ty);
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn saturated_levels_reconstruct_without_overflow() {
        let pred = Block::from_data(8, vec![200; 64]);
        for qp in [0u8, 51] {
            for fill in [i32::MAX, i32::MIN] {
                let mut recon = Plane::filled(8, 8, 0);
                reconstruct_tile(&[fill; 64], qp, &pred, (0, 0), &mut recon, (0, 0));
            }
        }
    }
}
