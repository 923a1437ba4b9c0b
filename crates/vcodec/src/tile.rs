//! The 8×8 residual tile and the block buffers around it — the working
//! set of the superblock loop, shared by encoder and decoder.
//!
//! Rule: nothing inside the superblock loop allocates. Prediction and
//! source blocks, and the levels of the regions being coded, live in a
//! [`Scratch`] made once per pass (or per decode) and are refilled in
//! place; tiles and coefficients are fixed arrays on the stack; planes are
//! read and written a row at a time.

use crate::motion::{average_into, motion_compensate_into, MotionVector};
use crate::quant::dequantize_into;
use crate::transform::{idct8, within};
use vframe::block::Block;
use vframe::{Frame, Plane};

/// Edge of the transform tile.
pub(crate) const TILE: usize = 8;
/// One tile of residuals, coefficients or levels, row-major.
pub(crate) type Tile = [i32; TILE * TILE];
/// Most tiles a region holds: a 32×32 superblock's sixteen.
const MAX_TILES: usize = 16;

/// The quantized residual of one region: per-tile levels in raster order
/// and each tile's count of nonzero levels, counted once as the tile is
/// filled and read by everything after (entropy coding, the probe, the
/// skip decision, reconstruction).
pub(crate) struct Levels {
    tiles: [Tile; MAX_TILES],
    nonzero: [usize; MAX_TILES],
    len: usize,
}

impl Levels {
    fn new() -> Levels {
        Levels { tiles: [[0; TILE * TILE]; MAX_TILES], nonzero: [0; MAX_TILES], len: 0 }
    }

    /// Empties the region for refilling.
    pub(crate) fn clear(&mut self) {
        self.len = 0;
    }

    /// Appends a tile that `fill` writes whole.
    pub(crate) fn push(&mut self, fill: impl FnOnce(&mut Tile)) {
        let tile = &mut self.tiles[self.len];
        fill(tile);
        self.nonzero[self.len] = tile.iter().filter(|&&l| l != 0).count();
        self.len += 1;
    }

    /// The tiles in raster order, each with its nonzero count.
    pub(crate) fn tiles(&self) -> impl Iterator<Item = (&Tile, usize)> {
        self.tiles[..self.len].iter().zip(self.nonzero)
    }

    /// Whether any tile has a nonzero level.
    pub(crate) fn any_nonzero(&self) -> bool {
        self.nonzero[..self.len].iter().any(|&n| n > 0)
    }
}

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
    /// Levels of the luma region and the two chroma regions being coded.
    pub levels: [Levels; 3],
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
            levels: [Levels::new(), Levels::new(), Levels::new()],
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
fn pred_row(pred: &Block, (tx, ty): (usize, usize), dy: usize) -> &[i16; TILE] {
    pred.data()[(ty + dy) * pred.size() + tx..][..TILE].try_into().expect("a row of one tile")
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
    let (px, py) = ((origin.0 + tile.0) as isize, (origin.1 + tile.1) as isize);
    let mut resid = [0i32; TILE * TILE];
    let rows = resid.chunks_exact_mut(TILE).enumerate();
    let sub = |(dy, out): (usize, &mut [i32]), src: &[u8]| {
        for ((r, &s), &p) in out.iter_mut().zip(src).zip(pred_row(pred, tile, dy)) {
            *r = i32::from(s) - i32::from(p);
        }
    };
    match src.window(px, py, TILE, TILE) {
        Some(window) => rows.zip(window).for_each(|(row, span)| sub(row, span)),
        None => {
            let mut buf = [0u8; TILE];
            for (dy, out) in rows {
                sub((dy, out), src.clamped_span(px, py + dy as isize, &mut buf));
            }
        }
    }
    resid
}

/// Reconstructs the tile at offset `tile` of the region at `origin`:
/// dequantize, inverse-transform, add the prediction, clamp to a sample
/// and write into `recon`, clipped at the plane edges. `nonzero` is the
/// count of nonzero `levels`; a tile with none reconstructs to its
/// prediction, written without the transform.
///
/// Total on any levels a stream can carry: the inverse transform wraps
/// and the prediction is added saturating, so a hostile block decodes to
/// *some* samples instead of overflowing.
pub(crate) fn reconstruct_tile(
    levels: &Tile,
    nonzero: usize,
    qp: u8,
    pred: &Block,
    tile: (usize, usize),
    recon: &mut Plane,
    origin: (usize, usize),
) {
    debug_assert!(nonzero > 0 || levels.iter().all(|&l| l == 0), "levels counted");
    let at = (origin.0 + tile.0, origin.1 + tile.1);
    if nonzero == 0 {
        add_rows::<i16>(&[0; TILE * TILE], pred, tile, recon, at);
        return;
    }
    let mut coeffs = [0i32; TILE * TILE];
    dequantize_into(levels, qp, &mut coeffs);
    let rec = idct8(&coeffs);
    if within(&rec, 1 << 15) {
        add_rows::<i16>(&rec, pred, tile, recon, at);
    } else {
        add_rows::<i32>(&rec, pred, tile, recon, at);
    }
}

/// The lane [`add_rows`] adds a residual in: `i16` when every residual of
/// the tile fits one, where a saturating add and a clamp are single SSE2
/// instructions on eight lanes; `i32` for what a hostile stream forms.
/// For a residual that fits `i16` the two agree: the `i16` sum saturates
/// only past 32 767 or below −32 768, which clamps to 255 or 0 either way.
trait Lane: Copy {
    fn of(r: i32) -> Self;
    /// `self + p`, saturating, clamped to a sample.
    fn add_clamp(self, p: i16) -> u8;
}

impl Lane for i16 {
    #[inline(always)]
    fn of(r: i32) -> i16 {
        r as i16
    }

    #[inline(always)]
    fn add_clamp(self, p: i16) -> u8 {
        self.saturating_add(p).clamp(0, 255) as u8
    }
}

impl Lane for i32 {
    #[inline(always)]
    fn of(r: i32) -> i32 {
        r
    }

    #[inline(always)]
    fn add_clamp(self, p: i16) -> u8 {
        self.saturating_add(i32::from(p)).clamp(0, 255) as u8
    }
}

/// Adds the residual `rec` to the prediction of the tile at offset `tile`
/// and writes the samples at `at` in `recon`, clipped at the plane edges:
/// each row formed whole in a local array in `L` lanes, then copied out.
#[inline(always)]
fn add_rows<L: Lane>(
    rec: &Tile,
    pred: &Block,
    tile: (usize, usize),
    recon: &mut Plane,
    (px, py): (usize, usize),
) {
    let cols = TILE.min(recon.width().saturating_sub(px));
    let rows = TILE.min(recon.height().saturating_sub(py));
    if cols == 0 {
        return; // wholly right of the plane
    }
    for (dy, rec_row) in rec.chunks_exact(TILE).take(rows).enumerate() {
        let p = pred_row(pred, tile, dy);
        let mut out = [0u8; TILE];
        for ((o, &r), &p) in out.iter_mut().zip(rec_row).zip(p) {
            *o = L::of(r).add_clamp(p);
        }
        let dst = &mut recon.row_mut(py + dy)[px..px + cols];
        if cols == TILE {
            dst.copy_from_slice(&out);
        } else {
            dst.copy_from_slice(&out[..cols]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::{dequantize, quantize, Deadzone};
    use crate::transform::{fdct, idct, TransformSize};
    use proptest::prelude::*;

    /// Oracle for [`reconstruct_tile`]: the public transforms, then one
    /// `i32` sample at a time into a block pasted with clipping.
    fn reconstruct_per_sample(
        levels: &[i32],
        qp: u8,
        pred: &Block,
        (tx, ty): (usize, usize),
        recon: &mut Plane,
        (x, y): (usize, usize),
    ) {
        let rec = idct(TransformSize::T8, &dequantize(levels, qp));
        let mut out = Block::zero(8);
        for dy in 0..8 {
            for dx in 0..8 {
                let v = i32::from(pred.get(tx + dx, ty + dy)).saturating_add(rec[dy * 8 + dx]);
                out.set(dx, dy, v.clamp(0, 255) as i16);
            }
        }
        out.paste_into(recon, x + tx, y + ty);
    }

    proptest! {
        // Oracle: the same pipeline one sample at a time through
        // `get_clamped`, `Block::get` and `Block::paste_into`, for regions
        // inside, straddling and beyond the plane edges. Half the cases
        // reconstruct the tile's own quantized residual; the others draw
        // levels of every magnitude, so the inverse transform's output
        // spans (and wraps across) the whole `i32` range and both lanes of
        // the add run, and half of those keep at most two levels, so tiles
        // with none, one and two nonzero levels come up in every run.
        #[test]
        fn tiles_equal_the_per_sample_pipeline(
            src in prop::collection::vec(any::<u8>(), 20 * 12),
            pred in prop::collection::vec(0i16..=255, 256),
            x in 0usize..24,
            y in 0usize..16,
            tile_qp in (0usize..4, 0u8..=51),
            drawn in (
                any::<bool>(),
                prop::collection::vec(
                    (any::<i32>(), 0u8..4).prop_map(|(v, kind)| match kind {
                        0 => v,
                        1 => v >> (v as u32 % 32),
                        _ => 0,
                    }),
                    64,
                ),
                (0usize..6).prop_map(|k| if k < 3 { k } else { 64 }),
            )
                .prop_map(|(drawn, mut levels, kept)| {
                    levels[kept..].fill(0);
                    drawn.then_some(levels)
                }),
        ) {
            let (tile, qp) = tile_qp;
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

            let levels = drawn
                .unwrap_or_else(|| quantize(&fdct(TransformSize::T8, &resid), qp, Deadzone::Intra));
            let mut got = Plane::filled(20, 12, 7);
            let tile_levels: Tile = levels.clone().try_into().expect("64 levels");
            let nonzero = levels.iter().filter(|&&l| l != 0).count();
            reconstruct_tile(&tile_levels, nonzero, qp, &pred, (tx, ty), &mut got, (x, y));

            let mut want = Plane::filled(20, 12, 7);
            reconstruct_per_sample(&levels, qp, &pred, (tx, ty), &mut want, (x, y));
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn tiles_equal_the_per_sample_pipeline_at_the_edges_of_the_narrow_lane() {
        // DC levels whose flat inverse transform steps across ±32 767, with
        // and without a horizontal ramp that makes one tile straddle the
        // edge: residuals just inside run the `i16` add, where a sum past
        // the edge must saturate, and residuals just outside the `i32` one.
        let pred = Block::from_data(8, (0..64).map(|i| (i * 37 % 256) as i16).collect());
        for sign in [1, -1] {
            for dc in (414_000..424_500).step_by(7) {
                for ramp in [0, 3_000] {
                    let mut levels = [0; TILE * TILE];
                    (levels[0], levels[1]) = (sign * dc, ramp);
                    let mut got = Plane::filled(8, 8, 7);
                    reconstruct_tile(&levels, 2, 0, &pred, (0, 0), &mut got, (0, 0));
                    let mut want = Plane::filled(8, 8, 7);
                    reconstruct_per_sample(&levels, 0, &pred, (0, 0), &mut want, (0, 0));
                    assert_eq!(got, want, "dc {} ramp {ramp}", sign * dc);
                }
            }
        }
    }

    #[test]
    fn saturated_levels_reconstruct_without_overflow() {
        let pred = Block::from_data(8, vec![200; 64]);
        for qp in [0u8, 51] {
            for fill in [i32::MAX, i32::MIN] {
                let mut recon = Plane::filled(8, 8, 0);
                reconstruct_tile(&[fill; 64], 64, qp, &pred, (0, 0), &mut recon, (0, 0));
            }
        }
    }
}
