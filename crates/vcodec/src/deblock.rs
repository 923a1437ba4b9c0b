//! In-loop deblocking filter.
//!
//! Quantizing each block independently creates visible discontinuities at
//! block boundaries; the deblocking filter smooths small edge steps while
//! leaving genuine image edges alone (the H.264 deblocking filter is the
//! paper's example of a "new compression tool", Section 2.1). Running it
//! *in-loop* — on the reconstruction both encoder and decoder use as a
//! reference — also improves prediction of subsequent frames.

use vframe::Plane;

/// Edge-detection threshold: the filter only touches steps smaller than
/// `alpha(qp)`; larger steps are assumed to be real edges.
fn alpha(qp: u8) -> i32 {
    // Grows roughly exponentially with QP, like the H.264 alpha table.
    (2.0 * (f64::from(qp) / 6.0).exp2()).min(255.0) as i32
}

/// Inner-sample smoothness threshold.
fn beta(qp: u8) -> i32 {
    (f64::from(qp) * 0.5).min(18.0) as i32 + 1
}

/// Maximum per-sample correction.
fn tc(qp: u8) -> i32 {
    (f64::from(qp) / 10.0).ceil() as i32 + 1
}

/// The filter's three thresholds at one QP, computed once per plane.
#[derive(Clone, Copy)]
struct Thresholds {
    alpha: i32,
    beta: i32,
    tc: i32,
}

impl Thresholds {
    fn of(qp: u8) -> Thresholds {
        Thresholds { alpha: alpha(qp), beta: beta(qp), tc: tc(qp) }
    }
}

/// Filters one sample quadruple `p1 p0 | q0 q1` straddling a block edge.
/// Returns the adjusted `(p0, q0)` or `None` when the edge must be left
/// untouched.
#[inline(always)]
fn filter_samples(p1: i32, p0: i32, q0: i32, q1: i32, th: Thresholds) -> Option<(i32, i32)> {
    let Thresholds { alpha: a, beta: b, tc: t } = th;
    if (p0 - q0).abs() >= a || (p1 - p0).abs() >= b || (q1 - q0).abs() >= b {
        return None;
    }
    let delta = (((q0 - p0) * 4 + (p1 - q1) + 4) >> 3).clamp(-t, t);
    Some(((p0 + delta).clamp(0, 255), (q0 - delta).clamp(0, 255)))
}

vframe::isa::multiversion! {
    /// Applies the deblocking filter in place to every interior block edge of
    /// `plane`, on a `block` × `block` grid, at strength `qp`.
    ///
    /// Returns `(edges_filtered, edges_examined)` so callers can report filter
    /// activity (the `DeblockFired` branch site).
    ///
    /// # Panics
    ///
    /// Panics if `block` is zero.
    pub fn deblock_plane(plane: &mut Plane, block: usize, qp: u8) -> (u64, u64) {
        assert!(block > 0, "block size must be non-zero");
        let mut fired = 0u64;
        let mut examined = 0u64;
        let (w, h) = (plane.width(), plane.height());
        let th = Thresholds::of(qp);
        // Vertical edges (filter across columns).
        let mut x = block;
        while x < w {
            for y in 0..h {
                let p1 = i32::from(plane.get(x.saturating_sub(2), y));
                let p0 = i32::from(plane.get(x - 1, y));
                let q0 = i32::from(plane.get(x, y));
                let q1 = i32::from(plane.get((x + 1).min(w - 1), y));
                examined += 1;
                if let Some((np0, nq0)) = filter_samples(p1, p0, q0, q1, th) {
                    fired += 1;
                    plane.set(x - 1, y, np0 as u8);
                    plane.set(x, y, nq0 as u8);
                }
            }
            x += block;
        }
        // Horizontal edges (filter across rows).
        let mut y = block;
        while y < h {
            for x in 0..w {
                let p1 = i32::from(plane.get(x, y.saturating_sub(2)));
                let p0 = i32::from(plane.get(x, y - 1));
                let q0 = i32::from(plane.get(x, y));
                let q1 = i32::from(plane.get(x, (y + 1).min(h - 1)));
                examined += 1;
                if let Some((np0, nq0)) = filter_samples(p1, p0, q0, q1, th) {
                    fired += 1;
                    plane.set(x, y - 1, np0 as u8);
                    plane.set(x, y, nq0 as u8);
                }
            }
            y += block;
        }
        (fired, examined)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vframe::isa;

    /// Oracle: the filter as first written, thresholds derived from `qp`
    /// at every sample quadruple and every sample read and written
    /// through `get`/`set`.
    fn deblock_per_sample(plane: &mut Plane, block: usize, qp: u8) -> (u64, u64) {
        let filter = |p1: i32, p0: i32, q0: i32, q1: i32| {
            let (a, b) = (alpha(qp), beta(qp));
            if (p0 - q0).abs() >= a || (p1 - p0).abs() >= b || (q1 - q0).abs() >= b {
                return None;
            }
            let t = tc(qp);
            let delta = (((q0 - p0) * 4 + (p1 - q1) + 4) >> 3).clamp(-t, t);
            Some(((p0 + delta).clamp(0, 255), (q0 - delta).clamp(0, 255)))
        };
        let (mut fired, mut examined) = (0, 0);
        let (w, h) = (plane.width(), plane.height());
        for x in (block..w).step_by(block) {
            for y in 0..h {
                let at = |x: usize| i32::from(plane.get(x, y));
                examined += 1;
                if let Some((p0, q0)) =
                    filter(at(x.saturating_sub(2)), at(x - 1), at(x), at((x + 1).min(w - 1)))
                {
                    fired += 1;
                    plane.set(x - 1, y, p0 as u8);
                    plane.set(x, y, q0 as u8);
                }
            }
        }
        for y in (block..h).step_by(block) {
            for x in 0..w {
                let at = |y: usize| i32::from(plane.get(x, y));
                examined += 1;
                if let Some((p0, q0)) =
                    filter(at(y.saturating_sub(2)), at(y - 1), at(y), at((y + 1).min(h - 1)))
                {
                    fired += 1;
                    plane.set(x, y - 1, p0 as u8);
                    plane.set(x, y, q0 as u8);
                }
            }
        }
        (fired, examined)
    }

    proptest! {
        // Smooth planes with small steps, so that the filter fires on a
        // good share of the edges, at any QP and on either block grid.
        #[test]
        fn deblock_plane_equals_the_per_sample_filter_at_every_rung(
            steps in prop::collection::vec(-12i16..=12, 40 * 30),
            width in 1usize..=40,
            height in 1usize..=30,
            qp in 0u8..=51,
            block in (1usize..=2).prop_map(|k| k * 4),
        ) {
            let mut level = 128i16;
            let data = steps[..width * height]
                .iter()
                .map(|&s| {
                    level = (level + s).clamp(0, 255);
                    level as u8
                })
                .collect();
            let plane = Plane::from_data(width, height, data);
            let got = isa::same_at_every_rung("deblock::deblock_plane", || {
                let mut p = plane.clone();
                let counts = deblock_plane(&mut p, block, qp);
                (p, counts)
            });
            let mut want = plane.clone();
            let counts = deblock_per_sample(&mut want, block, qp);
            prop_assert_eq!(got, (want, counts));
        }
    }

    #[test]
    fn thresholds_grow_with_qp() {
        assert!(alpha(40) > alpha(20));
        assert!(beta(30) >= beta(10));
        assert!(tc(45) >= tc(10));
    }

    #[test]
    fn small_step_is_smoothed() {
        // Two flat half-planes differing by a small step at the 8-boundary.
        let mut p = Plane::filled(16, 8, 100);
        for y in 0..8 {
            for x in 8..16 {
                p.set(x, y, 106);
            }
        }
        let (fired, examined) = deblock_plane(&mut p, 8, 30);
        assert!(fired > 0 && examined >= fired);
        let step = (i32::from(p.get(8, 4)) - i32::from(p.get(7, 4))).abs();
        assert!(step < 6, "boundary step after filtering: {step}");
    }

    #[test]
    fn real_edge_is_preserved() {
        // A hard 100-level edge must not be smoothed (it exceeds alpha).
        let mut p = Plane::filled(16, 8, 60);
        for y in 0..8 {
            for x in 8..16 {
                p.set(x, y, 200);
            }
        }
        let before = p.clone();
        let (fired, _) = deblock_plane(&mut p, 8, 25);
        assert_eq!(fired, 0);
        assert_eq!(p, before);
    }

    #[test]
    fn flat_region_is_untouched() {
        let mut p = Plane::filled(32, 32, 123);
        let before = p.clone();
        let _ = deblock_plane(&mut p, 8, 51);
        assert_eq!(p, before);
    }

    #[test]
    fn higher_qp_filters_more() {
        let make = || {
            let mut p = Plane::filled(16, 8, 100);
            for y in 0..8 {
                for x in 8..16 {
                    p.set(x, y, 120);
                }
            }
            p
        };
        let mut low = make();
        let mut high = make();
        let _ = deblock_plane(&mut low, 8, 5);
        let _ = deblock_plane(&mut high, 8, 45);
        let step = |p: &Plane| (i32::from(p.get(8, 4)) - i32::from(p.get(7, 4))).abs();
        assert!(step(&high) <= step(&low), "high {} low {}", step(&high), step(&low));
    }
}
