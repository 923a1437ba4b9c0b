//! Motion estimation and motion compensation.
//!
//! Motion estimation — finding, for each block, the best-matching region of
//! a reference frame — is "usually the most computationally onerous step"
//! of encoding (Section 2.1 of the paper). The *effort level* knob the
//! paper describes maps directly onto [`SearchParams`]: search algorithm,
//! search range, sub-pixel refinement depth, and the distortion metric used
//! for refinement.

use crate::golomb::se_bits;
use vframe::block::{
    row_width, sad, sad_bytes, sad_plane, sad_plane_bytes, satd, Block, MAX_BLOCK,
};
use vframe::Plane;

/// A motion vector in quarter-pel units.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct MotionVector {
    /// Horizontal displacement, quarter-pel.
    pub x: i16,
    /// Vertical displacement, quarter-pel.
    pub y: i16,
}

impl MotionVector {
    /// The zero vector.
    pub const ZERO: MotionVector = MotionVector { x: 0, y: 0 };

    /// Creates a vector from quarter-pel components.
    pub fn new(x: i16, y: i16) -> MotionVector {
        MotionVector { x, y }
    }

    /// Creates a vector from full-pel components.
    pub fn from_full_pel(x: i16, y: i16) -> MotionVector {
        MotionVector { x: x * 4, y: y * 4 }
    }

    /// Whether both components land on full-pel positions.
    pub fn is_full_pel(&self) -> bool {
        self.x % 4 == 0 && self.y % 4 == 0
    }

    /// Bit cost of coding this vector relative to a predictor, using the
    /// signed Exp-Golomb length (identical for both entropy backends'
    /// purposes of relative comparison).
    pub fn cost_bits(&self, pred: MotionVector) -> u32 {
        se_bits(i64::from(self.x) - i64::from(pred.x))
            + se_bits(i64::from(self.y) - i64::from(pred.y))
    }
}

/// Median-of-three motion vector predictor (left, top, top-right), the
/// standard spatial MV predictor: per component, the upper median of the
/// neighbours that exist (the middle of three, the larger of two, the
/// only one), zero with none.
pub fn median_predictor(
    left: Option<MotionVector>,
    top: Option<MotionVector>,
    top_right: Option<MotionVector>,
) -> MotionVector {
    let mut present = [MotionVector::ZERO; 3];
    let mut n = 0;
    for mv in [left, top, top_right].into_iter().flatten() {
        present[n] = mv;
        n += 1;
    }
    let upper_median = |component: fn(MotionVector) -> i16| {
        let mut v = present.map(component);
        v[..n].sort_unstable();
        v[n / 2]
    };
    MotionVector { x: upper_median(|m| m.x), y: upper_median(|m| m.y) }
}

/// The vectors of one frame's coded superblocks in raster order (`None`
/// for intra), and the spatial predictor read from them. The encoder and
/// the decoder each keep one, so both predict every vector from the same
/// neighbours.
pub(crate) struct MvGrid {
    cols: usize,
    rows: usize,
    mvs: Vec<Option<MotionVector>>,
}

impl MvGrid {
    /// An empty grid of the `sb`-sized superblocks covering a
    /// `width × height` picture.
    pub(crate) fn new(width: usize, height: usize, sb: usize) -> MvGrid {
        let (cols, rows) = (width.div_ceil(sb), height.div_ceil(sb));
        MvGrid { cols, rows, mvs: vec![None; cols * rows] }
    }

    /// Superblock columns and rows.
    pub(crate) fn size(&self) -> (usize, usize) {
        (self.cols, self.rows)
    }

    /// Forgets every vector: a new frame starts.
    pub(crate) fn clear(&mut self) {
        self.mvs.fill(None);
    }

    /// Files superblock `(x, y)`'s vector.
    pub(crate) fn set(&mut self, x: usize, y: usize, mv: Option<MotionVector>) {
        self.mvs[y * self.cols + x] = mv;
    }

    /// The predictor for superblock `(x, y)`: the [`median_predictor`] of
    /// its left, top and top-right neighbours.
    pub(crate) fn predict(&self, x: usize, y: usize) -> MotionVector {
        let at = |dx: isize, dy: isize| {
            let (gx, gy) = (x.checked_add_signed(dx)?, y.checked_add_signed(dy)?);
            (gx < self.cols && gy < self.rows).then(|| self.mvs[gy * self.cols + gx]).flatten()
        };
        median_predictor(at(-1, 0), at(0, -1), at(1, -1))
    }
}

/// [`motion_compensate`] into a caller-owned block, whose size is the
/// prediction's.
pub(crate) fn motion_compensate_into(
    reference: &Plane,
    x: usize,
    y: usize,
    mv: MotionVector,
    out: &mut Block,
) {
    let base_x = (x as isize) * 4 + isize::from(mv.x);
    let base_y = (y as isize) * 4 + isize::from(mv.y);
    let (fx, fy) = (base_x.rem_euclid(4) as u16, base_y.rem_euclid(4) as u16);
    let (ix, iy) = (base_x.div_euclid(4), base_y.div_euclid(4));
    if fx == 0 && fy == 0 {
        out.load(reference, ix, iy);
        return;
    }
    let (n, at, phase) = (out.size(), (ix, iy), (fx, fy));
    match n {
        8 => mc_rows::<8>(reference, at, phase, out.data_mut(), 8),
        16 => mc_rows::<16>(reference, at, phase, out.data_mut(), 16),
        32 => mc_rows::<32>(reference, at, phase, out.data_mut(), 32),
        _ => mc_rows::<0>(reference, at, phase, out.data_mut(), n),
    }
}

/// Bilinear MC of a block `width` wide at the sub-pel phase `(fx, fy)`,
/// at row width `N` (see [`row_width`]). The half-pel phases are the
/// 4-tap body's exact integers in a narrower form: weights 8 and 8 give
/// `(8a + 8b + 8) >> 4 = (a + b + 1) >> 1`, four weights of 4 give
/// `(4(a + b + c + d) + 8) >> 4 = (a + b + c + d + 2) >> 2`.
#[inline(always)]
fn mc_rows<const N: usize>(
    reference: &Plane,
    (ix, iy): (isize, isize),
    (fx, fy): (u16, u16),
    out: &mut [i16],
    width: usize,
) {
    let n = row_width::<N>(width);
    let at = (reference, ix, iy);
    match (fx, fy) {
        (2, 0) => mc_block::<N>(at, out, n, |r0, _, o| average2_row::<N>(r0, &r0[1..], o)),
        (0, 2) => mc_block::<N>(at, out, n, average2_row::<N>),
        (2, 2) => mc_block::<N>(at, out, n, average4_row::<N>),
        _ => {
            let w = [(4 - fx) * (4 - fy), fx * (4 - fy), (4 - fx) * fy, fx * fy];
            mc_block::<N>(at, out, n, |r0, r1, o| bilinear_row::<N>(w, r0, r1, o));
        }
    }
}

/// One block of MC: `row` forms each output row from the two reference
/// rows it straddles, each one sample longer than the block. Out of line,
/// one copy per width and phase: inlined into one function, LLVM left the
/// wider instances' rows scalar.
#[inline(never)]
fn mc_block<const N: usize>(
    (reference, ix, iy): (&Plane, isize, isize),
    out: &mut [i16],
    width: usize,
    row: impl Fn(&[u8], &[u8], &mut [i16]),
) {
    let n = row_width::<N>(width);
    if let Some(mut spans) = reference.window(ix, iy, n + 1, n + 1) {
        let mut r0 = spans.next().expect("a window of n + 1 rows");
        for (o, r1) in out.chunks_exact_mut(n).zip(spans) {
            mc_row::<N>(&row, r0, r1, o);
            r0 = r1;
        }
        return;
    }
    let (mut upper, mut lower) = ([0u8; MAX_BLOCK + 1], [0u8; MAX_BLOCK + 1]);
    for (dy, o) in out.chunks_exact_mut(n).enumerate() {
        let py = iy + dy as isize;
        let r0 = reference.clamped_span(ix, py, &mut upper[..=n]);
        let r1 = reference.clamped_span(ix, py + 1, &mut lower[..=n]);
        mc_row::<N>(&row, r0, r1, o);
    }
}

/// One output row of [`mc_block`], formed in a local array and then
/// copied out: stores to a buffer nothing else points at are what LLVM
/// will vectorize.
#[inline(always)]
fn mc_row<const N: usize>(
    row: &impl Fn(&[u8], &[u8], &mut [i16]),
    r0: &[u8],
    r1: &[u8],
    out: &mut [i16],
) {
    let n = row_width::<N>(out.len());
    let mut wide = [0i16; MAX_BLOCK];
    row(&r0[..=n], &r1[..=n], &mut wide[..n]);
    out.copy_from_slice(&wide[..n]);
}

/// `(a + b + 1) >> 1` per sample (`pavgb`) at row width `N`. Like the
/// other row bodies, it slices every operand to the row width first, so
/// that for `N > 0` LLVM sees one constant trip count.
#[inline(always)]
fn average2_row<const N: usize>(a: &[u8], b: &[u8], out: &mut [i16]) {
    let n = row_width::<N>(out.len());
    for ((o, &a), &b) in out[..n].iter_mut().zip(&a[..n]).zip(&b[..n]) {
        *o = ((u16::from(a) + u16::from(b) + 1) >> 1) as i16;
    }
}

/// `(a + b + c + d + 2) >> 2` over each 2×2 neighbourhood of two rows
/// one sample longer than `out`, at row width `N`.
#[inline(always)]
fn average4_row<const N: usize>(r0: &[u8], r1: &[u8], out: &mut [i16]) {
    let n = row_width::<N>(out.len());
    let taps = r0[..n].iter().zip(&r0[1..=n]).zip(&r1[..n]).zip(&r1[1..=n]);
    for (o, (((&p00, &p01), &p10), &p11)) in out[..n].iter_mut().zip(taps) {
        let sum = u16::from(p00) + u16::from(p01) + u16::from(p10) + u16::from(p11);
        *o = ((sum + 2) >> 2) as i16;
    }
}

/// The 4-tap bilinear body, for the quarter phases. The weights sum to 16
/// and samples are at most 255, so every sum is at most 4 080 (4 088
/// rounded): `u16` lanes are exact on any input. At row width `N`.
#[inline(always)]
fn bilinear_row<const N: usize>(w: [u16; 4], r0: &[u8], r1: &[u8], out: &mut [i16]) {
    let n = row_width::<N>(out.len());
    let taps = r0[..n].iter().zip(&r0[1..=n]).zip(&r1[..n]).zip(&r1[1..=n]);
    for (o, (((&p00, &p01), &p10), &p11)) in out[..n].iter_mut().zip(taps) {
        let sum = w[0] * u16::from(p00)
            + w[1] * u16::from(p01)
            + w[2] * u16::from(p10)
            + w[3] * u16::from(p11);
        *o = ((sum + 8) >> 4) as i16;
    }
}

/// The eight sub-pel candidates around a centre, in the order a search
/// prices them (raster order, centre skipped), in units of the step.
const RING: [(i16, i16); 8] =
    [(-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1)];

/// The distortions of the eight half-pel candidates around the full-pel
/// position `(cx, cy)`, in [`RING`] order: each is what
/// [`motion_compensate_into`] at that vector and then `sad` or `satd`
/// against `block` would give, formed from one neighbourhood instead of
/// eight compensations.
///
/// The neighbourhood is the (n + 2)² integer samples around the block,
/// read through [`Plane::window`] or, across an edge,
/// [`Plane::clamped_span`] — MC's own reads, so the same clamped samples.
/// From them the three half-pel phases are formed once as bytes, with
/// MC's half-pel rounding: H (`(a + b + 1) >> 1` across, n × (n + 1)), V
/// (the same down, (n + 1) × n) and HV (`(a + b + c + d + 2) >> 2`,
/// (n + 1)²). A candidate half a sample left of or above the centre is
/// its phase's window at offset 0 in that direction, one right of or below
/// it the window at offset 1. A block packed to bytes (`packed`) prices
/// SAD as byte rows ([`sad_bytes`]); SATD, or a block that does not pack,
/// widens the window into `scratch` first.
fn half_pel_distortions(
    block: &Block,
    packed: Option<&[u8]>,
    reference: &Plane,
    centre: (isize, isize),
    use_satd: bool,
    scratch: &mut Block,
) -> [u64; 8] {
    let n = block.size();
    half_pel_windows(reference, centre, n, |window, stride| match packed {
        Some(bytes) if !use_satd => sad_bytes(bytes, n, window, stride),
        _ => {
            scratch.load_bytes(window, stride);
            if use_satd {
                satd(block, scratch)
            } else {
                sad(block, scratch)
            }
        }
    })
}

/// `price` of each half-pel candidate's window (its first sample and the
/// row stride) around `centre` for `size × size` blocks, in [`RING`]
/// order.
fn half_pel_windows(
    reference: &Plane,
    centre: (isize, isize),
    size: usize,
    price: impl FnMut(&[u8], usize) -> u64,
) -> [u64; 8] {
    match size {
        8 => half_pel_ring::<8, { 9 * 9 }>(reference, centre, 8, price),
        16 => half_pel_ring::<16, { 17 * 17 }>(reference, centre, 16, price),
        32 => half_pel_ring::<32, { 33 * 33 }>(reference, centre, 32, price),
        n => half_pel_ring::<0, { (MAX_BLOCK + 1) * (MAX_BLOCK + 1) }>(reference, centre, n, price),
    }
}

/// [`half_pel_windows`] at row width `N`, with phase buffers of `L`
/// bytes on the stack (at least (n + 1)²).
#[inline(always)]
fn half_pel_ring<const N: usize, const L: usize>(
    reference: &Plane,
    centre: (isize, isize),
    width: usize,
    mut price: impl FnMut(&[u8], usize) -> u64,
) -> [u64; 8] {
    let n = row_width::<N>(width);
    let stride = n + 1;
    let (mut h, mut v, mut hv) = ([0u8; L], [0u8; L], [0u8; L]);
    half_pel_phases::<N>(reference, centre, n, [&mut h[..], &mut v[..], &mut hv[..]]);
    let offset = |d: i16| usize::from(d > 0);
    RING.map(|(dx, dy)| {
        let window = match (dx, dy) {
            (_, 0) => &h[offset(dx)..],
            (0, _) => &v[offset(dy) * stride..],
            _ => &hv[offset(dy) * stride + offset(dx)..],
        };
        price(window, stride)
    })
}

/// Forms the H, V and HV phases (row stride n + 1) of the neighbourhood
/// of `width × width` blocks at `(cx, cy)` (see [`half_pel_distortions`]),
/// one pair of neighbourhood rows at a time. Out of line, one copy per
/// width, like [`mc_block`].
#[inline(never)]
fn half_pel_phases<const N: usize>(
    reference: &Plane,
    (cx, cy): (isize, isize),
    width: usize,
    [h, v, hv]: [&mut [u8]; 3],
) {
    let n = row_width::<N>(width);
    let stride = n + 1;
    // Row pair r forms V and HV row r; its lower row is H row r's source.
    let mut pair = |r: usize, r0: &[u8], r1: &[u8]| {
        phase_rows::<N>(r0, r1, &mut v[r * stride..][..n], &mut hv[r * stride..][..stride]);
        if r < n {
            across_row::<N>(r1, &mut h[r * stride..][..stride]);
        }
    };
    if let Some(mut spans) = reference.window(cx - 1, cy - 1, n + 2, n + 2) {
        let mut r0 = spans.next().expect("a window of n + 2 rows");
        for (r, r1) in spans.enumerate() {
            pair(r, r0, r1);
            r0 = r1;
        }
        return;
    }
    let (mut upper, mut lower) = ([0u8; MAX_BLOCK + 2], [0u8; MAX_BLOCK + 2]);
    for r in 0..=n {
        let py = cy - 1 + r as isize;
        let r0 = reference.clamped_span(cx - 1, py, &mut upper[..n + 2]);
        let r1 = reference.clamped_span(cx - 1, py + 1, &mut lower[..n + 2]);
        pair(r, r0, r1);
    }
}

/// `(a + b + 1) >> 1` of each sample and its right neighbour, for the
/// n + 1 starts of a neighbourhood row of n + 2 samples: the H phase's row.
/// The first n at row width `N`, in a local array copied out (as in
/// [`mc_row`]), the last on its own.
#[inline(always)]
fn across_row<const N: usize>(r: &[u8], out: &mut [u8]) {
    let n = row_width::<N>(out.len() - 1);
    let r = &r[..n + 2];
    let avg = |a: u8, b: u8| ((u16::from(a) + u16::from(b) + 1) >> 1) as u8;
    let mut row = [0u8; MAX_BLOCK + 1];
    for ((o, &a), &b) in row[..n].iter_mut().zip(&r[..n]).zip(&r[1..=n]) {
        *o = avg(a, b);
    }
    row[n] = avg(r[n], r[n + 1]);
    out.copy_from_slice(&row[..=n]);
}

/// The V row (`(a + b + 1) >> 1` down, n samples from column 1) and the
/// HV row (`(a + b + c + d + 2) >> 2` over each 2×2, n + 1 samples) of
/// two neighbourhood rows of n + 2 samples, as [`across_row`] forms H.
#[inline(always)]
fn phase_rows<const N: usize>(r0: &[u8], r1: &[u8], v: &mut [u8], hv: &mut [u8]) {
    let n = row_width::<N>(v.len());
    let (r0, r1) = (&r0[..n + 2], &r1[..n + 2]);
    let mut row = [0u8; MAX_BLOCK + 1];
    for ((o, &a), &b) in row[..n].iter_mut().zip(&r0[1..=n]).zip(&r1[1..=n]) {
        *o = ((u16::from(a) + u16::from(b) + 1) >> 1) as u8;
    }
    v.copy_from_slice(&row[..n]);
    let quad = |p00: u8, p01: u8, p10: u8, p11: u8| {
        let sum = u16::from(p00) + u16::from(p01) + u16::from(p10) + u16::from(p11);
        ((sum + 2) >> 2) as u8
    };
    let taps = r0[..n].iter().zip(&r0[1..=n]).zip(&r1[..n]).zip(&r1[1..=n]);
    for (o, (((&p00, &p01), &p10), &p11)) in row[..n].iter_mut().zip(taps) {
        *o = quad(p00, p01, p10, p11);
    }
    row[n] = quad(r0[n], r0[n + 1], r1[n], r1[n + 1]);
    hv.copy_from_slice(&row[..=n]);
}

/// Motion-compensated prediction: samples `reference` at the quarter-pel
/// position `(x*4 + mv.x, y*4 + mv.y)` with bilinear interpolation and
/// picture-edge clamping.
///
/// # Panics
///
/// Panics if `size` is zero or larger than [`MAX_BLOCK`].
pub fn motion_compensate(
    reference: &Plane,
    x: usize,
    y: usize,
    size: usize,
    mv: MotionVector,
) -> Block {
    let mut out = Block::zero(size);
    motion_compensate_into(reference, x, y, mv, &mut out);
    out
}

/// Element-wise rounded average of two prediction blocks into `out`
/// (bidirectional MC; encoder and decoder must round alike).
///
/// # Panics
///
/// Panics if the three blocks differ in size.
pub(crate) fn average_into(a: &Block, b: &Block, out: &mut Block) {
    assert!(a.size() == b.size() && a.size() == out.size(), "average requires equal block sizes");
    for ((o, &x), &y) in out.data_mut().iter_mut().zip(a.data()).zip(b.data()) {
        *o = ((i32::from(x) + i32::from(y) + 1) / 2) as i16;
    }
}

/// Full-pel search algorithms, in increasing speed / decreasing coverage
/// order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SearchAlgorithm {
    /// Exhaustive search of the full window — slow, optimal.
    Full,
    /// Large/small diamond pattern descent (x264 "dia"-class).
    Diamond,
    /// Hexagonal pattern descent (x264 "hex"-class).
    Hexagon,
}

/// Sub-pixel refinement depth after full-pel search.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum SubPelDepth {
    /// No refinement (fastest, hardware-encoder-like at low effort).
    None,
    /// Half-pel refinement.
    Half,
    /// Half- then quarter-pel refinement (highest effort).
    Quarter,
}

/// Motion search configuration — the encoder's effort level projected onto
/// motion estimation.
#[derive(Clone, Copy, Debug)]
pub struct SearchParams {
    /// Full-pel algorithm.
    pub algorithm: SearchAlgorithm,
    /// Full-pel search range (± pixels around the predictor); ranges
    /// past 8 190 search 8 190, the widest whose every candidate fits a
    /// quarter-pel [`MotionVector`].
    pub range: u16,
    /// Sub-pel refinement depth.
    pub subpel: SubPelDepth,
    /// Lagrange multiplier converting MV bits into SAD units.
    pub lambda: f64,
    /// Refine sub-pel decisions with SATD instead of SAD (higher effort,
    /// better rate/distortion).
    pub use_satd: bool,
}

/// Counters exposing the amount of work a search performed; feeds both the
/// speed model of `varch` and the encoder's own statistics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SearchStats {
    /// Candidate positions whose distortion was evaluated.
    pub positions: u64,
    /// Total samples compared (SAD/SATD inner-loop work).
    pub samples: u64,
}

/// Result of a motion search.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MotionResult {
    /// The winning vector (quarter-pel).
    pub mv: MotionVector,
    /// Rate-distortion cost (distortion + λ · mv bits).
    pub cost: f64,
    /// Raw distortion of the winning position.
    pub distortion: u64,
}

/// The largest full-pel search range [`search`] honours; a larger
/// [`SearchParams::range`] searches this one.
const MAX_SEARCH_RANGE: u16 = 8_190;

/// Searches `reference` for the best match to `block` (located at `(x, y)`
/// in the current frame), starting from `pred_mv`. Full-pel candidates are
/// compared in place against the reference plane, half-pel ones as windows
/// of one interpolated neighbourhood (`half_pel_distortions`), and
/// quarter-pel ones are interpolated into `scratch`, a block of `block`'s
/// size whose contents are overwritten (SATD also widens half-pel windows
/// into it).
///
/// # Panics
///
/// Panics if `params.range` is zero or `scratch` differs from `block` in
/// size.
#[allow(clippy::too_many_arguments)]
pub fn search(
    block: &Block,
    reference: &Plane,
    x: usize,
    y: usize,
    pred_mv: MotionVector,
    params: &SearchParams,
    scratch: &mut Block,
    stats: &mut SearchStats,
) -> MotionResult {
    assert!(params.range > 0, "search range must be non-zero");
    assert_eq!(block.size(), scratch.size(), "scratch must match the searched block");
    let (n, area) = (block.size(), (block.size() * block.size()) as u64);
    let mut packed = [0u8; MAX_BLOCK * MAX_BLOCK];
    let packed = block.pack_bytes(&mut packed);
    let eval_full = |mv: MotionVector, stats: &mut SearchStats| -> (u64, f64) {
        debug_assert!(mv.is_full_pel());
        let (px, py) = (x as isize + isize::from(mv.x / 4), y as isize + isize::from(mv.y / 4));
        let d = match packed {
            Some(bytes) => sad_plane_bytes(bytes, n, reference, px, py),
            None => sad_plane(block, reference, px, py),
        };
        stats.positions += 1;
        stats.samples += area;
        let cost = d as f64 + params.lambda * f64::from(mv.cost_bits(pred_mv));
        (d, cost)
    };

    // Every candidate is within the range of the full-pel window plus the
    // ±1 polish and the ±2, ±1 sub-pel steps: 4 · 8 190 + 4 + 3 = 32 767,
    // the largest that fits a quarter-pel `i16`.
    let range = params.range.min(MAX_SEARCH_RANGE) as i16;
    // Start at the predictor, clamped to full-pel.
    let start = MotionVector::from_full_pel(
        (pred_mv.x / 4).clamp(-range, range),
        (pred_mv.y / 4).clamp(-range, range),
    );
    let (mut best_mv, mut best_d, mut best_cost) = {
        let (d, c) = eval_full(start, stats);
        (start, d, c)
    };
    // Always consider the zero vector: cheap and frequently optimal.
    if start != MotionVector::ZERO {
        let (d, c) = eval_full(MotionVector::ZERO, stats);
        if c < best_cost {
            best_mv = MotionVector::ZERO;
            best_d = d;
            best_cost = c;
        }
    }

    match params.algorithm {
        SearchAlgorithm::Full => {
            for dy in -range..=range {
                for dx in -range..=range {
                    let mv = MotionVector::from_full_pel(dx, dy);
                    let (d, c) = eval_full(mv, stats);
                    if c < best_cost {
                        best_mv = mv;
                        best_d = d;
                        best_cost = c;
                    }
                }
            }
        }
        SearchAlgorithm::Diamond | SearchAlgorithm::Hexagon => {
            let pattern: &[(i16, i16)] = match params.algorithm {
                SearchAlgorithm::Diamond => &[(0, -2), (2, 0), (0, 2), (-2, 0)],
                _ => &[(-2, -2), (2, -2), (4, 0), (2, 2), (-2, 2), (-4, 0)],
            };
            // Iterative descent with the large pattern.
            let max_iters = range as u32 * 2;
            let mut iters = 0;
            loop {
                let center = best_mv;
                for &(dx, dy) in pattern {
                    let mv = MotionVector::new(
                        center.x.saturating_add(dx * 4).clamp(-range * 4, range * 4),
                        center.y.saturating_add(dy * 4).clamp(-range * 4, range * 4),
                    );
                    if mv == center {
                        continue;
                    }
                    let (d, c) = eval_full(mv, stats);
                    if c < best_cost {
                        best_mv = mv;
                        best_d = d;
                        best_cost = c;
                    }
                }
                iters += 1;
                if best_mv == center || iters >= max_iters {
                    break;
                }
            }
            // Small-diamond polish.
            for &(dx, dy) in &[(0i16, -1i16), (1, 0), (0, 1), (-1, 0)] {
                let mv = MotionVector::new(best_mv.x + dx * 4, best_mv.y + dy * 4);
                let (d, c) = eval_full(mv, stats);
                if c < best_cost {
                    best_mv = mv;
                    best_d = d;
                    best_cost = c;
                }
            }
        }
    }

    // Sub-pel refinement: the half step around the full-pel winner from
    // one neighbourhood, then the quarter step by per-candidate MC (its
    // bilinear quarter weights are not a function of rounded half-pel
    // samples).
    if params.subpel > SubPelDepth::None {
        debug_assert!(best_mv.is_full_pel());
        let centre =
            (x as isize + isize::from(best_mv.x / 4), y as isize + isize::from(best_mv.y / 4));
        let half = half_pel_distortions(block, packed, reference, centre, params.use_satd, scratch);
        let mut ring = |step: i16, distortion: &mut dyn FnMut(MotionVector, usize) -> u64| {
            let center = best_mv;
            for (i, (dx, dy)) in RING.into_iter().enumerate() {
                let mv = MotionVector::new(center.x + dx * step, center.y + dy * step);
                let d = distortion(mv, i);
                stats.positions += 1;
                stats.samples += area;
                let c = d as f64 + params.lambda * f64::from(mv.cost_bits(pred_mv));
                if c < best_cost {
                    best_mv = mv;
                    best_d = d;
                    best_cost = c;
                }
            }
        };
        ring(2, &mut |_, i| half[i]);
        if params.subpel == SubPelDepth::Quarter {
            ring(1, &mut |mv, _| {
                motion_compensate_into(reference, x, y, mv, scratch);
                if params.use_satd {
                    satd(block, scratch)
                } else {
                    sad(block, scratch)
                }
            });
        }
    }

    MotionResult { mv: best_mv, cost: best_cost, distortion: best_d }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::ops::RangeInclusive;

    /// A smoothly textured reference plane: unique matches within the
    /// search range, but a descent-friendly SAD landscape (pattern searches
    /// are *local* optimizers; adversarial textures legitimately trap them).
    fn reference() -> Plane {
        let mut p = Plane::filled(64, 64, 0);
        for y in 0..64 {
            for x in 0..64 {
                let v = 128.0
                    + 70.0 * (x as f64 * 0.3).sin() * (y as f64 * 0.25).cos()
                    + 25.0 * (x as f64 * 0.11 + y as f64 * 0.17).sin();
                p.set(x, y, v.round().clamp(0.0, 255.0) as u8);
            }
        }
        p
    }

    fn default_params(alg: SearchAlgorithm) -> SearchParams {
        SearchParams {
            algorithm: alg,
            range: 8,
            subpel: SubPelDepth::Quarter,
            lambda: 2.0,
            use_satd: false,
        }
    }

    #[test]
    fn mc_at_zero_mv_copies_reference() {
        let r = reference();
        let b = motion_compensate(&r, 8, 8, 8, MotionVector::ZERO);
        assert_eq!(b, Block::copy_from(&r, 8, 8, 8));
    }

    #[test]
    fn mc_full_pel_shift() {
        let r = reference();
        let b = motion_compensate(&r, 8, 8, 8, MotionVector::from_full_pel(3, -2));
        assert_eq!(b, Block::copy_from(&r, 11, 6, 8));
    }

    #[test]
    fn mc_half_pel_interpolates() {
        let mut r = Plane::filled(8, 8, 0);
        r.set(4, 4, 100);
        r.set(5, 4, 200);
        // Half-pel between (4,4) and (5,4): (100+200)/2 = 150.
        let b = motion_compensate(&r, 4, 4, 1, MotionVector::new(2, 0));
        assert_eq!(b.get(0, 0), 150);
    }

    #[test]
    fn full_search_finds_exact_translation() {
        let r = reference();
        // The block at (20, 20) in the "current" frame equals the reference
        // shifted by (+4, +3): full search must find mv = (4*4, 3*4) exactly.
        let block = Block::copy_from(&r, 24, 23, 8);
        let mut stats = SearchStats::default();
        let res = search(
            &block,
            &r,
            20,
            20,
            MotionVector::ZERO,
            &default_params(SearchAlgorithm::Full),
            &mut Block::zero(8),
            &mut stats,
        );
        assert_eq!(res.distortion, 0, "mv {:?}", res.mv);
        assert_eq!(res.mv, MotionVector::from_full_pel(4, 3));
        assert!(stats.positions > 0);
    }

    #[test]
    fn pattern_searches_find_small_translations() {
        let r = reference();
        let block = Block::copy_from(&r, 21, 21, 8);
        for alg in [SearchAlgorithm::Diamond, SearchAlgorithm::Hexagon] {
            let mut stats = SearchStats::default();
            let res = search(
                &block,
                &r,
                20,
                20,
                MotionVector::ZERO,
                &default_params(alg),
                &mut Block::zero(8),
                &mut stats,
            );
            assert_eq!(res.mv, MotionVector::from_full_pel(1, 1), "{alg:?}");
            assert_eq!(res.distortion, 0, "{alg:?}");
        }
    }

    #[test]
    fn pattern_searches_substantially_reduce_distortion() {
        // Larger displacement: local searches may stop in a nearby minimum,
        // but must still do far better than no motion compensation at all.
        let r = reference();
        let block = Block::copy_from(&r, 24, 23, 8);
        let zero_sad = sad(&block, &Block::copy_from(&r, 20, 20, 8));
        for alg in [SearchAlgorithm::Diamond, SearchAlgorithm::Hexagon] {
            let mut stats = SearchStats::default();
            let res = search(
                &block,
                &r,
                20,
                20,
                MotionVector::ZERO,
                &default_params(alg),
                &mut Block::zero(8),
                &mut stats,
            );
            assert!(
                res.distortion * 3 < zero_sad,
                "{alg:?}: {} vs zero-mv {zero_sad}",
                res.distortion
            );
        }
    }

    #[test]
    fn full_search_examines_whole_window() {
        let r = reference();
        let block = Block::copy_from(&r, 16, 16, 8);
        let mut stats = SearchStats::default();
        let mut p = default_params(SearchAlgorithm::Full);
        p.subpel = SubPelDepth::None;
        p.range = 4;
        let _ = search(&block, &r, 16, 16, MotionVector::ZERO, &p, &mut Block::zero(8), &mut stats);
        // (2*4+1)^2 window + start + zero candidates.
        assert!(stats.positions >= 81, "{}", stats.positions);
    }

    #[test]
    fn pattern_search_is_much_cheaper_than_full() {
        let r = reference();
        let block = Block::copy_from(&r, 18, 18, 8);
        let count = |alg| {
            let mut stats = SearchStats::default();
            let mut p = default_params(alg);
            p.range = 16;
            let _ =
                search(&block, &r, 16, 16, MotionVector::ZERO, &p, &mut Block::zero(8), &mut stats);
            stats.positions
        };
        assert!(count(SearchAlgorithm::Diamond) * 5 < count(SearchAlgorithm::Full));
        assert!(count(SearchAlgorithm::Hexagon) * 5 < count(SearchAlgorithm::Full));
    }

    #[test]
    fn lambda_penalizes_distant_vectors() {
        // On a flat plane every position has zero SAD; a high lambda must
        // keep the vector at the predictor.
        let r = Plane::filled(32, 32, 77);
        let block = Block::copy_from(&r, 8, 8, 8);
        let mut stats = SearchStats::default();
        let mut p = default_params(SearchAlgorithm::Full);
        p.lambda = 100.0;
        let res = search(&block, &r, 8, 8, MotionVector::ZERO, &p, &mut Block::zero(8), &mut stats);
        assert_eq!(res.mv, MotionVector::ZERO);
    }

    #[test]
    fn ranges_past_the_widest_search_the_widest() {
        // 8 191 is the first range whose window plus polish and sub-pel
        // steps leaves `i16`, 8 192 the first whose `range * 4` did, and
        // 40 000 (past `i16::MAX`) made the start clamp's bounds cross. A
        // predictor at the far corner drives the search to the window's
        // edge, where every step is largest.
        let r = reference();
        let block = Block::copy_from(&r, 24, 23, 8);
        for alg in [SearchAlgorithm::Diamond, SearchAlgorithm::Hexagon] {
            for pred in [MotionVector::new(i16::MAX, i16::MIN), MotionVector::ZERO] {
                let run = |range| {
                    let mut p = default_params(alg);
                    p.range = range;
                    let mut stats = SearchStats::default();
                    let res = search(&block, &r, 20, 20, pred, &p, &mut Block::zero(8), &mut stats);
                    (res.mv, res.distortion, stats)
                };
                let widest = run(MAX_SEARCH_RANGE);
                for range in [8_191, 8_192, 40_000, u16::MAX] {
                    assert_eq!(run(range), widest, "{alg:?} range {range} from {pred:?}");
                }
            }
        }
    }

    /// Oracle: motion compensation one sample at a time through
    /// `get_clamped`, as it was written before the row-span kernels.
    fn mc_per_sample(
        reference: &Plane,
        x: usize,
        y: usize,
        size: usize,
        mv: MotionVector,
    ) -> Block {
        let base_x = (x as isize) * 4 + isize::from(mv.x);
        let base_y = (y as isize) * 4 + isize::from(mv.y);
        let (fx, fy) = (base_x.rem_euclid(4) as i32, base_y.rem_euclid(4) as i32);
        let (ix, iy) = (base_x.div_euclid(4), base_y.div_euclid(4));
        let mut out = Block::zero(size);
        for dy in 0..size {
            for dx in 0..size {
                let (px, py) = (ix + dx as isize, iy + dy as isize);
                let at = |ox: isize, oy: isize| i32::from(reference.get_clamped(px + ox, py + oy));
                let v = ((4 - fx) * (4 - fy) * at(0, 0)
                    + fx * (4 - fy) * at(1, 0)
                    + (4 - fx) * fy * at(0, 1)
                    + fx * fy * at(1, 1)
                    + 8)
                    >> 4;
                out.set(dx, dy, if fx == 0 && fy == 0 { at(0, 0) as i16 } else { v as i16 });
            }
        }
        out
    }

    /// Oracle: the row-span kernel the `u16` one replaced — `i32` taps,
    /// each read through `windows(2)` of the two spans.
    fn mc_windows(reference: &Plane, x: usize, y: usize, size: usize, mv: MotionVector) -> Block {
        let base_x = (x as isize) * 4 + isize::from(mv.x);
        let base_y = (y as isize) * 4 + isize::from(mv.y);
        let (fx, fy) = (base_x.rem_euclid(4) as i32, base_y.rem_euclid(4) as i32);
        let (ix, iy) = (base_x.div_euclid(4), base_y.div_euclid(4));
        let mut out = Block::zero(size);
        if fx == 0 && fy == 0 {
            out.load(reference, ix, iy);
            return out;
        }
        let (w00, w01, w10, w11) = ((4 - fx) * (4 - fy), fx * (4 - fy), (4 - fx) * fy, fx * fy);
        let span = size + 1;
        let (mut upper, mut lower) = ([0u8; MAX_BLOCK + 1], [0u8; MAX_BLOCK + 1]);
        for (dy, row) in out.rows_mut().enumerate() {
            let py = iy + dy as isize;
            let r0 = reference.clamped_span(ix, py, &mut upper[..span]);
            let r1 = reference.clamped_span(ix, py + 1, &mut lower[..span]);
            for ((v, p0), p1) in row.iter_mut().zip(r0.windows(2)).zip(r1.windows(2)) {
                let sum = w00 * i32::from(p0[0])
                    + w01 * i32::from(p0[1])
                    + w10 * i32::from(p1[0])
                    + w11 * i32::from(p1[1]);
                *v = ((sum + 8) >> 4) as i16;
            }
        }
        out
    }

    /// Case-count multiplier: the `--release` test run does ten times
    /// what the debug tier-1 run does.
    const SCALE: u32 = if cfg!(debug_assertions) { 1 } else { 10 };

    /// Block sizes from `others` half the time, and otherwise one of the
    /// widths MC has constant-width bodies for (8, 16, 32).
    fn block_size(others: RangeInclusive<usize>) -> impl Strategy<Value = usize> {
        (0usize..6, others).prop_map(|(pick, any)| [8, 16, 32].get(pick).copied().unwrap_or(any))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64 * SCALE, ..ProptestConfig::default() })]

        // Every block size the kernel takes, every quarter-pel phase, any
        // sample values (the `u16` sums are exact for all of them), the
        // block anywhere from inside the plane to wholly outside it.
        #[test]
        fn mc_equals_the_i32_windows_kernel_at_every_size(
            data in prop::collection::vec(any::<u8>(), 40 * 30),
            x in 0usize..40,
            y in 0usize..30,
            size in block_size(1..=MAX_BLOCK),
            whole in (-70i16..=40, -70i16..=30),
            flat in any::<bool>(),
        ) {
            let (whole_x, whole_y) = whole;
            // Flat 255 planes give every sum its maximum.
            let data = if flat { vec![255; 40 * 30] } else { data };
            let plane = Plane::from_data(40, 30, data);
            for phase in 0..16i16 {
                let mv = MotionVector::new(whole_x * 4 + phase % 4, whole_y * 4 + phase / 4);
                prop_assert_eq!(
                    motion_compensate(&plane, x, y, size, mv),
                    mc_windows(&plane, x, y, size, mv),
                    "({}, {}) size {} mv {:?}", x, y, size, mv
                );
            }
        }
    }

    /// Oracle: `search` as it was before the half step formed one
    /// neighbourhood — every sub-pel candidate compensated on its own.
    #[allow(clippy::too_many_arguments)]
    fn search_per_candidate_mc(
        block: &Block,
        reference: &Plane,
        x: usize,
        y: usize,
        pred_mv: MotionVector,
        params: &SearchParams,
        scratch: &mut Block,
        stats: &mut SearchStats,
    ) -> MotionResult {
        assert!(params.range > 0, "search range must be non-zero");
        assert_eq!(block.size(), scratch.size(), "scratch must match the searched block");
        let (n, area) = (block.size(), (block.size() * block.size()) as u64);
        let mut packed = [0u8; MAX_BLOCK * MAX_BLOCK];
        let packed = block.pack_bytes(&mut packed);
        let eval_full = |mv: MotionVector, stats: &mut SearchStats| -> (u64, f64) {
            debug_assert!(mv.is_full_pel());
            let (px, py) = (x as isize + isize::from(mv.x / 4), y as isize + isize::from(mv.y / 4));
            let d = match packed {
                Some(bytes) => sad_plane_bytes(bytes, n, reference, px, py),
                None => sad_plane(block, reference, px, py),
            };
            stats.positions += 1;
            stats.samples += area;
            let cost = d as f64 + params.lambda * f64::from(mv.cost_bits(pred_mv));
            (d, cost)
        };

        // Every candidate is within the range of the full-pel window plus the
        // ±1 polish and the ±2, ±1 sub-pel steps: 4 · 8 190 + 4 + 3 = 32 767,
        // the largest that fits a quarter-pel `i16`.
        let range = params.range.min(MAX_SEARCH_RANGE) as i16;
        // Start at the predictor, clamped to full-pel.
        let start = MotionVector::from_full_pel(
            (pred_mv.x / 4).clamp(-range, range),
            (pred_mv.y / 4).clamp(-range, range),
        );
        let (mut best_mv, mut best_d, mut best_cost) = {
            let (d, c) = eval_full(start, stats);
            (start, d, c)
        };
        // Always consider the zero vector: cheap and frequently optimal.
        if start != MotionVector::ZERO {
            let (d, c) = eval_full(MotionVector::ZERO, stats);
            if c < best_cost {
                best_mv = MotionVector::ZERO;
                best_d = d;
                best_cost = c;
            }
        }

        match params.algorithm {
            SearchAlgorithm::Full => {
                for dy in -range..=range {
                    for dx in -range..=range {
                        let mv = MotionVector::from_full_pel(dx, dy);
                        let (d, c) = eval_full(mv, stats);
                        if c < best_cost {
                            best_mv = mv;
                            best_d = d;
                            best_cost = c;
                        }
                    }
                }
            }
            SearchAlgorithm::Diamond | SearchAlgorithm::Hexagon => {
                let pattern: &[(i16, i16)] = match params.algorithm {
                    SearchAlgorithm::Diamond => &[(0, -2), (2, 0), (0, 2), (-2, 0)],
                    _ => &[(-2, -2), (2, -2), (4, 0), (2, 2), (-2, 2), (-4, 0)],
                };
                // Iterative descent with the large pattern.
                let max_iters = range as u32 * 2;
                let mut iters = 0;
                loop {
                    let center = best_mv;
                    for &(dx, dy) in pattern {
                        let mv = MotionVector::new(
                            center.x.saturating_add(dx * 4).clamp(-range * 4, range * 4),
                            center.y.saturating_add(dy * 4).clamp(-range * 4, range * 4),
                        );
                        if mv == center {
                            continue;
                        }
                        let (d, c) = eval_full(mv, stats);
                        if c < best_cost {
                            best_mv = mv;
                            best_d = d;
                            best_cost = c;
                        }
                    }
                    iters += 1;
                    if best_mv == center || iters >= max_iters {
                        break;
                    }
                }
                // Small-diamond polish.
                for &(dx, dy) in &[(0i16, -1i16), (1, 0), (0, 1), (-1, 0)] {
                    let mv = MotionVector::new(best_mv.x + dx * 4, best_mv.y + dy * 4);
                    let (d, c) = eval_full(mv, stats);
                    if c < best_cost {
                        best_mv = mv;
                        best_d = d;
                        best_cost = c;
                    }
                }
            }
        }

        // Sub-pel refinement.
        if params.subpel > SubPelDepth::None {
            let steps: &[i16] = match params.subpel {
                SubPelDepth::Half => &[2],
                SubPelDepth::Quarter => &[2, 1],
                SubPelDepth::None => unreachable!(),
            };
            for &step in steps {
                let center = best_mv;
                for dy in [-step, 0, step] {
                    for dx in [-step, 0, step] {
                        if dx == 0 && dy == 0 {
                            continue;
                        }
                        let mv = MotionVector::new(center.x + dx, center.y + dy);
                        motion_compensate_into(reference, x, y, mv, scratch);
                        let d = if params.use_satd {
                            satd(block, scratch)
                        } else {
                            sad(block, scratch)
                        };
                        stats.positions += 1;
                        stats.samples += area;
                        let c = d as f64 + params.lambda * f64::from(mv.cost_bits(pred_mv));
                        if c < best_cost {
                            best_mv = mv;
                            best_d = d;
                            best_cost = c;
                        }
                    }
                }
            }
        }

        MotionResult { mv: best_mv, cost: best_cost, distortion: best_d }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64 * SCALE, ..ProptestConfig::default() })]

        // Planes from 1×1 up (many smaller than the block), every block
        // size, half of them the constant-width ones, and full-pel
        // centres inside, across each edge and corner, and beyond them.
        #[test]
        fn half_pel_windows_equal_mc_at_each_vector(
            dims in (1usize..=40, 1usize..=30),
            data in prop::collection::vec(any::<u8>(), 40 * 30),
            size in block_size(1..=MAX_BLOCK),
            at in (0usize..40, 0usize..30),
            centre in (-72isize..=48, -72isize..=38),
        ) {
            let ((w, h), (x, y), (cx, cy)) = (dims, at, centre);
            let plane = Plane::from_data(w, h, data[..w * h].to_vec());
            let mut windows = Vec::new();
            half_pel_windows(&plane, centre, size, |window, stride| {
                let mut b = Block::zero(size);
                b.load_bytes(window, stride);
                windows.push(b);
                0
            });
            prop_assert_eq!(windows.len(), 8);
            let full = |c: isize, p: usize| (c - p as isize) as i16 * 4;
            for ((dx, dy), got) in RING.into_iter().zip(windows) {
                let mv = MotionVector::new(full(cx, x) + 2 * dx, full(cy, y) + 2 * dy);
                prop_assert_eq!(
                    got,
                    motion_compensate(&plane, x, y, size, mv),
                    "{}x{} plane, ({}, {}) size {} mv {:?}", w, h, x, y, size, mv
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16 * SCALE, ..ProptestConfig::default() })]

        // Every algorithm, depth and metric on one random case: a source
        // block cut from the plane near its position (one sample past 255
        // in some, which then does not pack to bytes), any λ and
        // predictor, the block anywhere in a plane that may be smaller.
        #[test]
        fn search_equals_the_per_candidate_mc_search(
            dims in (1usize..=48, 1usize..=40),
            data in prop::collection::vec(any::<u8>(), 48 * 40),
            size in (0usize..4).prop_map(|i| [8, 16, 32, 12][i]),
            cut in ((0usize..48, 0usize..40), (-6isize..=6, -6isize..=6)),
            spike in (any::<bool>(), any::<usize>(), 256i16..=4096),
            search_in in ((-80i16..=80, -80i16..=80), 0.0f64..16.0, 1u16..=5),
        ) {
            let ((w, h), ((x, y), shift), (pred, lambda, range)) = (dims, cut, search_in);
            let plane = Plane::from_data(w, h, data[..w * h].to_vec());
            let mut block =
                Block::copy_from(&plane, x as isize + shift.0, y as isize + shift.1, size);
            let (spiked, i, value) = spike;
            if spiked {
                block.data_mut()[i % (size * size)] = value;
            }
            let pred = MotionVector::new(pred.0, pred.1);
            let algorithms = [SearchAlgorithm::Full, SearchAlgorithm::Diamond, SearchAlgorithm::Hexagon];
            for algorithm in algorithms {
                for subpel in [SubPelDepth::None, SubPelDepth::Half, SubPelDepth::Quarter] {
                    for use_satd in [false, true] {
                        let params = SearchParams { algorithm, range, subpel, lambda, use_satd };
                        let run = |f: fn(&Block, &Plane, usize, usize, MotionVector, &SearchParams, &mut Block, &mut SearchStats) -> MotionResult| {
                            let mut stats = SearchStats::default();
                            let res = f(&block, &plane, x, y, pred, &params, &mut Block::zero(size), &mut stats);
                            (res, stats)
                        };
                        prop_assert_eq!(
                            run(search),
                            run(search_per_candidate_mc),
                            "{:?}", params
                        );
                    }
                }
            }
        }
    }

    /// Oracle: the median predictor by collecting and sorting.
    fn median_by_sorting(cands: [Option<MotionVector>; 3]) -> MotionVector {
        let present: Vec<MotionVector> = cands.iter().flatten().copied().collect();
        let mid = |mut v: Vec<i16>| {
            v.sort_unstable();
            v[v.len() / 2]
        };
        match present.len() {
            0 => MotionVector::ZERO,
            _ => MotionVector {
                x: mid(present.iter().map(|m| m.x).collect()),
                y: mid(present.iter().map(|m| m.y).collect()),
            },
        }
    }

    proptest! {
        // Every quarter-pel phase, with the block inside the plane,
        // straddling each edge and corner (both opposite edges at 32),
        // and wholly outside it.
        #[test]
        fn mc_equals_per_sample_clamped_mc(
            data in prop::collection::vec(any::<u8>(), 24 * 20),
            x in 0usize..24,
            y in 0usize..20,
            size in block_size(1..=16),
            whole_x in -40i16..=40,
            whole_y in -40i16..=40,
        ) {
            let plane = Plane::from_data(24, 20, data);
            for phase in 0..16i16 {
                let mv = MotionVector::new(whole_x * 4 + phase % 4, whole_y * 4 + phase / 4);
                prop_assert_eq!(
                    motion_compensate(&plane, x, y, size, mv),
                    mc_per_sample(&plane, x, y, size, mv),
                    "({}, {}) size {} mv {:?}", x, y, size, mv
                );
            }
        }

        #[test]
        fn median_predictor_equals_sorting(
            vals in prop::collection::vec((-64i16..=64, -64i16..=64), 3),
            mask in 0u8..8,
        ) {
            let cand = |i: usize| {
                (mask & (1 << i) != 0).then(|| MotionVector::new(vals[i].0, vals[i].1))
            };
            let cands = [cand(0), cand(1), cand(2)];
            prop_assert_eq!(
                median_predictor(cands[0], cands[1], cands[2]),
                median_by_sorting(cands)
            );
        }
    }

    #[test]
    fn median_predictor_behaviour() {
        let a = MotionVector::new(4, 0);
        let b = MotionVector::new(8, 4);
        let c = MotionVector::new(0, 8);
        assert_eq!(median_predictor(None, None, None), MotionVector::ZERO);
        assert_eq!(median_predictor(Some(a), None, None), a);
        assert_eq!(median_predictor(Some(a), Some(b), Some(c)), MotionVector::new(4, 4));
    }

    #[test]
    fn grid_predicts_from_the_neighbours_inside_the_picture() {
        // 40×20 in 16-sample superblocks: 3 columns, 2 rows.
        let mut grid = MvGrid::new(40, 20, 16);
        assert_eq!(grid.size(), (3, 2));
        let mv = |x, y| MotionVector::new(x, y);
        grid.set(0, 0, Some(mv(4, 0)));
        grid.set(1, 0, Some(mv(8, 4)));
        grid.set(2, 0, Some(mv(0, 8)));
        grid.set(0, 1, Some(mv(-4, -4)));
        assert_eq!(grid.predict(0, 0), MotionVector::ZERO);
        // Left only; top and top-right at the left edge; all three.
        assert_eq!(grid.predict(1, 0), mv(4, 0));
        assert_eq!(grid.predict(0, 1), mv(8, 4));
        assert_eq!(grid.predict(1, 1), mv(0, 4));
        // The right edge has no top-right neighbour.
        assert_eq!(grid.predict(2, 1), median_predictor(None, Some(mv(0, 8)), None));
        grid.clear();
        assert_eq!(grid.predict(1, 1), MotionVector::ZERO);
    }

    #[test]
    fn subpel_improves_or_matches_distortion() {
        let r = reference();
        let block = Block::copy_from(&r, 21, 17, 8);
        let run = |subpel| {
            let mut stats = SearchStats::default();
            let mut p = default_params(SearchAlgorithm::Diamond);
            p.subpel = subpel;
            p.lambda = 0.0;
            search(&block, &r, 20, 16, MotionVector::ZERO, &p, &mut Block::zero(8), &mut stats)
                .distortion
        };
        assert!(run(SubPelDepth::Quarter) <= run(SubPelDepth::None));
    }
}
