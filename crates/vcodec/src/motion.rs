//! Motion estimation and motion compensation.
//!
//! Motion estimation — finding, for each block, the best-matching region of
//! a reference frame — is "usually the most computationally onerous step"
//! of encoding (Section 2.1 of the paper). The *effort level* knob the
//! paper describes maps directly onto [`SearchParams`]: search algorithm,
//! search range, sub-pixel refinement depth, and the distortion metric used
//! for refinement.

use crate::golomb::se_bits;
use vframe::block::{sad, sad_plane, satd, Block, MAX_BLOCK};
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
    let (fx, fy) = (base_x.rem_euclid(4) as i32, base_y.rem_euclid(4) as i32);
    let (ix, iy) = (base_x.div_euclid(4), base_y.div_euclid(4));
    if fx == 0 && fy == 0 {
        out.load(reference, ix, iy);
        return;
    }
    // The weights sum to 16 and samples are at most 255, so every sum is
    // at most 4 080 (4 088 rounded): `u16` lanes are exact on any input.
    let (fx, fy) = (fx as u16, fy as u16);
    let (w00, w01, w10, w11) = ((4 - fx) * (4 - fy), fx * (4 - fy), (4 - fx) * fy, fx * fy);
    let n = out.size();
    let (mut upper, mut lower) = ([0u8; MAX_BLOCK + 1], [0u8; MAX_BLOCK + 1]);
    for (dy, row) in out.rows_mut().enumerate() {
        let py = iy + dy as isize;
        let r0 = reference.clamped_span(ix, py, &mut upper[..=n]);
        let r1 = reference.clamped_span(ix, py + 1, &mut lower[..=n]);
        let taps = r0[..n].iter().zip(&r0[1..]).zip(&r1[..n]).zip(&r1[1..]);
        for (v, (((&p00, &p01), &p10), &p11)) in row.iter_mut().zip(taps) {
            let sum = w00 * u16::from(p00)
                + w01 * u16::from(p01)
                + w10 * u16::from(p10)
                + w11 * u16::from(p11);
            *v = ((sum + 8) >> 4) as i16;
        }
    }
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
    /// Full-pel search range (± pixels around the predictor).
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

/// Searches `reference` for the best match to `block` (located at `(x, y)`
/// in the current frame), starting from `pred_mv`. Full-pel candidates are
/// compared in place against the reference plane; sub-pel candidates are
/// interpolated into `scratch`, a block of `block`'s size whose contents
/// are overwritten.
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
    let area = (block.size() * block.size()) as u64;
    let eval_full = |mv: MotionVector, stats: &mut SearchStats| -> (u64, f64) {
        debug_assert!(mv.is_full_pel());
        let (px, py) = (x as isize + isize::from(mv.x / 4), y as isize + isize::from(mv.y / 4));
        let d = sad_plane(block, reference, px, py);
        stats.positions += 1;
        stats.samples += area;
        let cost = d as f64 + params.lambda * f64::from(mv.cost_bits(pred_mv));
        (d, cost)
    };

    // Start at the predictor, clamped to full-pel.
    let start = MotionVector::from_full_pel(
        (pred_mv.x / 4).clamp(-(params.range as i16), params.range as i16),
        (pred_mv.y / 4).clamp(-(params.range as i16), params.range as i16),
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

    let range = i16::try_from(params.range).unwrap_or(i16::MAX);
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
            let max_iters = u32::from(params.range) * 2;
            let mut iters = 0;
            loop {
                let center = best_mv;
                for &(dx, dy) in pattern {
                    let mv = MotionVector::new(
                        (center.x + dx * 4).clamp(-range * 4, range * 4),
                        (center.y + dy * 4).clamp(-range * 4, range * 4),
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
                    let d =
                        if params.use_satd { satd(block, scratch) } else { sad(block, scratch) };
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
            size in 1usize..=MAX_BLOCK,
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
        // straddling each edge and corner, and wholly outside it.
        #[test]
        fn mc_equals_per_sample_clamped_mc(
            data in prop::collection::vec(any::<u8>(), 24 * 20),
            x in 0usize..24,
            y in 0usize..20,
            size in 1usize..=16,
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
