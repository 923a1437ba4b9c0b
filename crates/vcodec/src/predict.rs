//! Intra prediction.
//!
//! Intra-coded blocks are predicted from already-reconstructed neighbours
//! within the same frame (the row above and the column to the left), then
//! only the prediction residual is transformed and coded. Four modes are
//! implemented; the AVC-class encoder uses DC/H/V, the HEVC- and VP9-class
//! encoders add Planar (one of the "new compression tools" newer codecs
//! introduce — Section 2.1 of the paper).

use vframe::block::{Block, MAX_BLOCK};
use vframe::Plane;

/// Intra prediction modes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IntraMode {
    /// Flat prediction from the mean of the available neighbours.
    Dc,
    /// Each row copies the left neighbour sample.
    Horizontal,
    /// Each column copies the top neighbour sample.
    Vertical,
    /// Bilinear blend of top and left neighbours (HEVC/VP9-class tool).
    Planar,
}

impl IntraMode {
    /// Stable numeric id used in the bitstream.
    pub fn to_id(self) -> u8 {
        match self {
            IntraMode::Dc => 0,
            IntraMode::Horizontal => 1,
            IntraMode::Vertical => 2,
            IntraMode::Planar => 3,
        }
    }

    /// Inverse of [`IntraMode::to_id`]; `None` for unknown ids (corrupt
    /// stream).
    pub fn from_id(id: u8) -> Option<IntraMode> {
        match id {
            0 => Some(IntraMode::Dc),
            1 => Some(IntraMode::Horizontal),
            2 => Some(IntraMode::Vertical),
            3 => Some(IntraMode::Planar),
            _ => None,
        }
    }
}

/// Neighbour samples available to an intra block at `(x, y)`, in fixed
/// arrays of which the first `size` entries are meaningful.
struct Neighbors {
    /// Samples from the row above, or `None` at the top edge.
    top: Option<[i32; MAX_BLOCK]>,
    /// Samples from the column to the left, or `None` at the left edge.
    left: Option<[i32; MAX_BLOCK]>,
    /// Top-right sample for planar extrapolation.
    top_right: i32,
    /// Bottom-left sample for planar extrapolation.
    bottom_left: i32,
}

fn gather_neighbors(recon: &Plane, x: usize, y: usize, size: usize) -> Neighbors {
    fn side(size: usize, sample: impl Fn(usize) -> i32) -> [i32; MAX_BLOCK] {
        std::array::from_fn(|i| if i < size { sample(i) } else { 0 })
    }
    // The row above, through the top-right sample, is one clamped span;
    // at the top edge the clamp lands on row 0, as the planar mode's
    // extrapolation sample always has.
    let mut buf = [0u8; MAX_BLOCK + 1];
    let above = recon.clamped_span(x as isize, y as isize - 1, &mut buf[..size + 1]);
    let top = (y > 0).then(|| side(size, |i| i32::from(above[i])));
    // The column to the left (clamped into the plane: column 0 at the
    // left edge), through the bottom-left sample, with rows clamped at
    // the bottom edge.
    let lx = x.saturating_sub(1).min(recon.width() - 1);
    let beside = |i: usize| i32::from(recon.row((y + i).min(recon.height() - 1))[lx]);
    let left = (x > 0).then(|| side(size, beside));
    Neighbors { top, left, top_right: i32::from(above[size]), bottom_left: beside(size) }
}

/// [`predict_intra`] into a caller-owned block, whose size is the
/// prediction's.
pub(crate) fn predict_intra_into(
    recon: &Plane,
    x: usize,
    y: usize,
    mode: IntraMode,
    out: &mut Block,
) {
    let size = out.size();
    let nb = gather_neighbors(recon, x, y, size);
    let dc = dc_value(&nb, size);
    match mode {
        IntraMode::Dc => out.data_mut().fill(dc as i16),
        IntraMode::Horizontal => {
            let left = nb.left.unwrap_or([dc; MAX_BLOCK]);
            for (row, &l) in out.rows_mut().zip(&left) {
                row.fill(l as i16);
            }
        }
        IntraMode::Vertical => {
            let top = nb.top.unwrap_or([dc; MAX_BLOCK]);
            for row in out.rows_mut() {
                for (v, &t) in row.iter_mut().zip(&top) {
                    *v = t as i16;
                }
            }
        }
        IntraMode::Planar => {
            let top = nb.top.unwrap_or([dc; MAX_BLOCK]);
            let left = nb.left.unwrap_or([dc; MAX_BLOCK]);
            let n = size as i32;
            for ((r, row), &l) in (0i32..).zip(out.rows_mut()).zip(&left) {
                for ((c, v), &t) in (0i32..).zip(row.iter_mut()).zip(&top) {
                    let h = (n - 1 - c) * l + (c + 1) * nb.top_right;
                    let vert = (n - 1 - r) * t + (r + 1) * nb.bottom_left;
                    *v = (((h + vert + n) / (2 * n)) as i16).clamp(0, 255);
                }
            }
        }
    }
}

/// Predicts a `size × size` block at `(x, y)` from reconstructed samples in
/// `recon` using `mode`.
///
/// Unavailable neighbours (picture edges) degrade gracefully: DC falls back
/// to the mid-level 128, directional modes fall back to DC behaviour on the
/// missing side.
///
/// # Panics
///
/// Panics if `size` is zero or larger than [`MAX_BLOCK`].
pub fn predict_intra(recon: &Plane, x: usize, y: usize, size: usize, mode: IntraMode) -> Block {
    let mut out = Block::zero(size);
    predict_intra_into(recon, x, y, mode, &mut out);
    out
}

/// Rounded mean of the available neighbours; mid-level 128 with none.
fn dc_value(nb: &Neighbors, size: usize) -> i32 {
    let sum = |side: &[i32; MAX_BLOCK]| side[..size].iter().sum::<i32>();
    let n = size as i32;
    match (&nb.top, &nb.left) {
        (Some(t), Some(l)) => (sum(t) + sum(l) + n) / (2 * n),
        (Some(side), None) | (None, Some(side)) => (sum(side) + n / 2) / n,
        (None, None) => 128,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn plane_with_gradient() -> Plane {
        let mut p = Plane::filled(16, 16, 0);
        for y in 0..16 {
            for x in 0..16 {
                p.set(x, y, (x * 10 + y) as u8);
            }
        }
        p
    }

    /// Oracle: intra prediction with every neighbour fetched through
    /// `get_clamped` and every sample stored through `Block::set`, as it
    /// was written before the fixed-array kernels.
    #[allow(clippy::needless_range_loop)] // an oracle is written index by index
    fn predict_per_sample(
        recon: &Plane,
        x: usize,
        y: usize,
        size: usize,
        mode: IntraMode,
    ) -> Block {
        let (xi, yi) = (x as isize, y as isize);
        let at = |px: isize, py: isize| i32::from(recon.get_clamped(px, py));
        let top: Option<Vec<i32>> =
            (y > 0).then(|| (0..size as isize).map(|i| at(xi + i, yi - 1)).collect());
        let left: Option<Vec<i32>> =
            (x > 0).then(|| (0..size as isize).map(|i| at(xi - 1, yi + i)).collect());
        let top_right = at(xi + size as isize, yi - 1);
        let bottom_left = at(xi - 1, yi + size as isize);
        let mean = |v: &[i32]| (v.iter().sum::<i32>() + v.len() as i32 / 2) / v.len() as i32;
        let dc = match (&top, &left) {
            (Some(t), Some(l)) => mean(&[t.as_slice(), l.as_slice()].concat()),
            (Some(v), None) | (None, Some(v)) => mean(v),
            (None, None) => 128,
        };
        let top = top.unwrap_or_else(|| vec![dc; size]);
        let left = left.unwrap_or_else(|| vec![dc; size]);
        let n = size as i32;
        let mut out = Block::zero(size);
        for row in 0..size {
            for col in 0..size {
                let (r, c) = (row as i32, col as i32);
                let v = match mode {
                    IntraMode::Dc => dc,
                    IntraMode::Horizontal => left[row],
                    IntraMode::Vertical => top[col],
                    IntraMode::Planar => {
                        let h = (n - 1 - c) * left[row] + (c + 1) * top_right;
                        let v = (n - 1 - r) * top[col] + (r + 1) * bottom_left;
                        ((h + v + n) / (2 * n)).clamp(0, 255)
                    }
                };
                out.set(col, row, v as i16);
            }
        }
        out
    }

    proptest! {
        // Every mode at the top-left corner, along the top and left
        // edges, in the interior, across the right and bottom edges and
        // (as edge superblocks' outer quadrants are) wholly beyond them.
        #[test]
        fn prediction_equals_per_sample_prediction(
            data in prop::collection::vec(any::<u8>(), 20 * 12),
            gx in 0usize..7,
            gy in 0usize..5,
            size in 0usize..3,
        ) {
            let recon = Plane::from_data(20, 12, data);
            let (x, y, size) = (gx * 4, gy * 4, [4, 8, 16][size]);
            for mode in [IntraMode::Dc, IntraMode::Horizontal, IntraMode::Vertical, IntraMode::Planar] {
                prop_assert_eq!(
                    predict_intra(&recon, x, y, size, mode),
                    predict_per_sample(&recon, x, y, size, mode),
                    "{:?} at ({}, {}) size {}", mode, x, y, size
                );
            }
        }
    }

    #[test]
    fn mode_ids_roundtrip() {
        for mode in [IntraMode::Dc, IntraMode::Horizontal, IntraMode::Vertical, IntraMode::Planar] {
            assert_eq!(IntraMode::from_id(mode.to_id()), Some(mode));
        }
        assert_eq!(IntraMode::from_id(9), None);
    }

    #[test]
    fn dc_with_no_neighbors_is_midlevel() {
        let p = Plane::filled(16, 16, 200);
        let b = predict_intra(&p, 0, 0, 8, IntraMode::Dc);
        assert!(b.data().iter().all(|&v| v == 128));
    }

    #[test]
    fn dc_averages_neighbors() {
        let p = plane_with_gradient();
        let b = predict_intra(&p, 8, 8, 4, IntraMode::Dc);
        // Top neighbours: x=8..12 at y=7 -> 87,97,107,117; left: x=7 at
        // y=8..12 -> 78,79,80,81. Mean = (408 + 318)/8 = 90.75 -> 91.
        assert_eq!(b.get(0, 0), 91);
        assert!(b.data().iter().all(|&v| v == 91));
    }

    #[test]
    fn vertical_copies_top_row() {
        let p = plane_with_gradient();
        let b = predict_intra(&p, 4, 8, 4, IntraMode::Vertical);
        for col in 0..4 {
            let expected = i16::from(p.get(4 + col, 7));
            for row in 0..4 {
                assert_eq!(b.get(col, row), expected);
            }
        }
    }

    #[test]
    fn horizontal_copies_left_column() {
        let p = plane_with_gradient();
        let b = predict_intra(&p, 8, 4, 4, IntraMode::Horizontal);
        for row in 0..4 {
            let expected = i16::from(p.get(7, 4 + row));
            for col in 0..4 {
                assert_eq!(b.get(col, row), expected);
            }
        }
    }

    #[test]
    fn planar_predicts_gradients_well() {
        // On a linear gradient, planar should beat DC by a wide margin.
        let p = plane_with_gradient();
        let actual = Block::copy_from(&p, 8, 8, 8);
        let planar = predict_intra(&p, 8, 8, 8, IntraMode::Planar);
        let dc = predict_intra(&p, 8, 8, 8, IntraMode::Dc);
        let err = |pred: &Block| {
            pred.data()
                .iter()
                .zip(actual.data())
                .map(|(&a, &b)| i64::from(a - b).unsigned_abs())
                .sum::<u64>()
        };
        assert!(err(&planar) * 5 < err(&dc) * 4, "planar {} dc {}", err(&planar), err(&dc));
    }

    #[test]
    fn prediction_values_are_valid_samples() {
        let p = plane_with_gradient();
        for mode in [IntraMode::Dc, IntraMode::Horizontal, IntraMode::Vertical, IntraMode::Planar] {
            for &(x, y) in &[(0usize, 0usize), (8, 0), (0, 8), (8, 8)] {
                let b = predict_intra(&p, x, y, 8, mode);
                assert!(b.data().iter().all(|&v| (0..=255).contains(&v)), "{mode:?} at {x},{y}");
            }
        }
    }
}
