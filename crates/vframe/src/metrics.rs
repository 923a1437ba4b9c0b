//! Video quality metrics: MSE, PSNR and SSIM.
//!
//! The paper evaluates fidelity with average YCbCr PSNR (Section 2.3); this
//! module implements that metric exactly (per-plane PSNR averaged with 4:1:1
//! sample-count weights for 4:2:0 video) plus plain per-plane PSNR and a
//! luma SSIM implementation for cross-checking.

use crate::{Frame, Plane, Video};

/// PSNR value (in dB) assigned to numerically identical content, where the
/// true value is +∞. 8-bit video cannot meaningfully exceed this.
pub const PSNR_IDENTICAL_DB: f64 = 100.0;

crate::isa::multiversion! {
    /// Mean squared error between two planes.
    ///
    /// # Panics
    ///
    /// Panics if the planes have different dimensions.
    ///
    /// ```
    /// use vframe::Plane;
    /// use vframe::metrics::mse_plane;
    /// let a = Plane::filled(4, 4, 10);
    /// let b = Plane::filled(4, 4, 13);
    /// assert!((mse_plane(&a, &b) - 9.0).abs() < 1e-12);
    /// ```
    pub fn mse_plane(a: &Plane, b: &Plane) -> f64 {
        assert_eq!(
            (a.width(), a.height()),
            (b.width(), b.height()),
            "MSE requires equally sized planes"
        );
        let sum: u64 = a
            .data()
            .iter()
            .zip(b.data())
            .map(|(&x, &y)| {
                let d = i64::from(x) - i64::from(y);
                (d * d) as u64
            })
            .sum();
        sum as f64 / a.data().len() as f64
    }
}

/// PSNR in dB between two planes: `10·log10(255² / MSE)`.
///
/// Returns [`PSNR_IDENTICAL_DB`] when the planes are identical.
///
/// # Panics
///
/// Panics if the planes have different dimensions.
pub fn psnr_plane(a: &Plane, b: &Plane) -> f64 {
    mse_to_psnr(mse_plane(a, b))
}

/// Converts an MSE value to PSNR in dB, saturating at
/// [`PSNR_IDENTICAL_DB`] for zero error.
pub fn mse_to_psnr(mse: f64) -> f64 {
    if mse <= 0.0 {
        PSNR_IDENTICAL_DB
    } else {
        (10.0 * (255.0f64 * 255.0 / mse).log10()).min(PSNR_IDENTICAL_DB)
    }
}

/// Average YCbCr PSNR of one frame pair — the paper's quality metric.
///
/// For 4:2:0 video the luma plane holds 4× the samples of each chroma
/// plane, so the per-plane PSNRs are combined with weights 4:1:1.
///
/// # Panics
///
/// Panics if the frames have different resolutions.
pub fn psnr_ycbcr(a: &Frame, b: &Frame) -> f64 {
    assert_eq!(a.resolution(), b.resolution(), "PSNR requires equal resolutions");
    let y = psnr_plane(a.y(), b.y());
    let u = psnr_plane(a.u(), b.u());
    let v = psnr_plane(a.v(), b.v());
    (4.0 * y + u + v) / 6.0
}

/// Average YCbCr PSNR over a whole clip (frame PSNRs averaged), the quality
/// number reported by every vbench measurement.
///
/// # Panics
///
/// Panics if the videos differ in frame count or resolution.
pub fn psnr_video(a: &Video, b: &Video) -> f64 {
    assert_eq!(a.len(), b.len(), "videos must have the same frame count");
    let total: f64 = a.iter().zip(b.iter()).map(|(fa, fb)| psnr_ycbcr(fa, fb)).sum();
    total / a.len() as f64
}

/// Incremental clip PSNR for the streaming data path: per-frame
/// [`psnr_ycbcr`] values are banked as frames are coded (in any order —
/// encoders code B frames out of display order) and averaged in display
/// order at the end, so [`PsnrAccumulator::finish`] is bit-identical to
/// [`psnr_video`] over the materialized clips. Only the `f64` per frame is
/// retained; neither clip stays resident.
#[derive(Clone, Debug)]
pub struct PsnrAccumulator {
    per_frame: Vec<Option<f64>>,
}

impl PsnrAccumulator {
    /// Creates an accumulator for a clip of `frames` frames.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero.
    pub fn new(frames: usize) -> PsnrAccumulator {
        assert!(frames > 0, "a clip needs at least one frame");
        PsnrAccumulator { per_frame: vec![None; frames] }
    }

    /// Banks the PSNR of frame `display` (source vs reconstruction).
    ///
    /// # Panics
    ///
    /// Panics if `display` is out of range, was already banked, or the
    /// frames differ in resolution.
    pub fn push(&mut self, display: usize, source: &Frame, recon: &Frame) {
        let slot = &mut self.per_frame[display];
        assert!(slot.is_none(), "frame {display} banked twice");
        *slot = Some(psnr_ycbcr(source, recon));
    }

    /// Frames banked so far.
    pub fn banked(&self) -> usize {
        self.per_frame.iter().filter(|v| v.is_some()).count()
    }

    /// The clip PSNR: the display-order average of the banked per-frame
    /// values, summed in exactly the order [`psnr_video`] sums them.
    ///
    /// # Panics
    ///
    /// Panics if any frame was never banked.
    pub fn finish(&self) -> f64 {
        let total: f64 = self
            .per_frame
            .iter()
            .enumerate()
            .map(|(d, v)| v.unwrap_or_else(|| panic!("frame {d} never banked")))
            .sum();
        total / self.per_frame.len() as f64
    }
}

/// Structural similarity (SSIM) between two luma planes, computed over 8×8
/// windows with the standard `k1 = 0.01`, `k2 = 0.03` constants.
///
/// Returns a value in `[-1, 1]`; 1 means identical. Provided as the
/// "perceptual" alternative the paper discusses (and discards in favour of
/// PSNR) in Section 2.3.
///
/// # Panics
///
/// Panics if the planes differ in size or are smaller than 8×8.
pub fn ssim_luma(a: &Plane, b: &Plane) -> f64 {
    assert_eq!(
        (a.width(), a.height()),
        (b.width(), b.height()),
        "SSIM requires equally sized planes"
    );
    assert!(a.width() >= 8 && a.height() >= 8, "SSIM window is 8x8");
    const C1: f64 = (0.01 * 255.0) * (0.01 * 255.0);
    const C2: f64 = (0.03 * 255.0) * (0.03 * 255.0);
    let mut total = 0.0;
    let mut windows = 0usize;
    let mut wy = 0;
    while wy + 8 <= a.height() {
        let mut wx = 0;
        while wx + 8 <= a.width() {
            let (ma, mb, va, vb, cov) = window_stats(a, b, wx, wy);
            let s = ((2.0 * ma * mb + C1) * (2.0 * cov + C2))
                / ((ma * ma + mb * mb + C1) * (va + vb + C2));
            total += s;
            windows += 1;
            wx += 8;
        }
        wy += 8;
    }
    total / windows as f64
}

fn window_stats(a: &Plane, b: &Plane, wx: usize, wy: usize) -> (f64, f64, f64, f64, f64) {
    let mut sa = 0.0;
    let mut sb = 0.0;
    for y in wy..wy + 8 {
        for x in wx..wx + 8 {
            sa += f64::from(a.get(x, y));
            sb += f64::from(b.get(x, y));
        }
    }
    let n = 64.0;
    let (ma, mb) = (sa / n, sb / n);
    let (mut va, mut vb, mut cov) = (0.0, 0.0, 0.0);
    for y in wy..wy + 8 {
        for x in wx..wx + 8 {
            let da = f64::from(a.get(x, y)) - ma;
            let db = f64::from(b.get(x, y)) - mb;
            va += da * da;
            vb += db * db;
            cov += da * db;
        }
    }
    (ma, mb, va / n, vb / n, cov / n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{isa, Frame, Resolution};
    use proptest::prelude::*;

    /// Oracle: the squared error summed sample by sample.
    fn mse_per_sample(a: &Plane, b: &Plane) -> f64 {
        let mut sum = 0u64;
        for y in 0..a.height() {
            for x in 0..a.width() {
                sum += u64::from(a.get(x, y).abs_diff(b.get(x, y))).pow(2);
            }
        }
        sum as f64 / (a.width() * a.height()) as f64
    }

    proptest! {
        #[test]
        fn mse_plane_equals_the_per_sample_sum_at_every_rung(
            data in prop::collection::vec(any::<u8>(), 2 * 70 * 40),
            width in 1usize..=70,
            height in 1usize..=40,
        ) {
            let n = width * height;
            let a = Plane::from_data(width, height, data[..n].to_vec());
            let b = Plane::from_data(width, height, data[n..2 * n].to_vec());
            let got = isa::same_at_every_rung("metrics::mse_plane", || mse_plane(&a, &b).to_bits());
            prop_assert_eq!(got, mse_per_sample(&a, &b).to_bits());
        }
    }

    #[test]
    fn identical_planes_saturate() {
        let p = Plane::filled(16, 16, 77);
        assert_eq!(psnr_plane(&p, &p), PSNR_IDENTICAL_DB);
        assert_eq!(mse_plane(&p, &p), 0.0);
    }

    #[test]
    fn known_psnr_value() {
        // MSE of 1.0 -> 10*log10(65025) = 48.13 dB.
        let a = Plane::filled(8, 8, 100);
        let b = Plane::filled(8, 8, 101);
        let q = psnr_plane(&a, &b);
        assert!((q - 48.130_803_608_679_34).abs() < 1e-9, "{q}");
    }

    #[test]
    fn psnr_is_symmetric() {
        let a = Plane::from_data(2, 2, vec![0, 50, 100, 150]);
        let b = Plane::from_data(2, 2, vec![10, 40, 110, 140]);
        assert_eq!(psnr_plane(&a, &b), psnr_plane(&b, &a));
    }

    #[test]
    fn ycbcr_weighting_is_4_1_1() {
        let res = Resolution::new(16, 16);
        let a = Frame::filled(res, 100, 100, 100);
        // Distort only chroma: weighted average dampens the chroma error 3x
        // versus an unweighted mean.
        let b = Frame::filled(res, 100, 110, 110);
        let q = psnr_ycbcr(&a, &b);
        let chroma = psnr_plane(a.u(), b.u());
        let expected = (4.0 * PSNR_IDENTICAL_DB + 2.0 * chroma) / 6.0;
        assert!((q - expected).abs() < 1e-12);
    }

    #[test]
    fn ssim_identical_is_one() {
        let p = Plane::filled(16, 16, 42);
        assert!((ssim_luma(&p, &p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ssim_decreases_with_distortion() {
        let base: Vec<u8> = (0..256).map(|i| (i % 251) as u8).collect();
        let a = Plane::from_data(16, 16, base.clone());
        let mild = Plane::from_data(16, 16, base.iter().map(|&s| s.saturating_add(5)).collect());
        let heavy = Plane::from_data(16, 16, base.iter().map(|&s| s.wrapping_mul(3)).collect());
        let s_mild = ssim_luma(&a, &mild);
        let s_heavy = ssim_luma(&a, &heavy);
        assert!(s_mild > s_heavy, "mild {s_mild} vs heavy {s_heavy}");
    }

    #[test]
    fn accumulator_matches_psnr_video_bit_for_bit() {
        let res = Resolution::new(16, 16);
        let a =
            Video::new((0..5u8).map(|t| Frame::filled(res, 40 + 3 * t, 128, 128)).collect(), 30.0);
        let b =
            Video::new((0..5u8).map(|t| Frame::filled(res, 41 + 4 * t, 127, 129)).collect(), 30.0);
        let mut acc = PsnrAccumulator::new(5);
        // Bank out of display order, the way a B-frame encoder codes.
        for d in [0usize, 2, 1, 4, 3] {
            acc.push(d, a.frame(d), b.frame(d));
        }
        assert_eq!(acc.banked(), 5);
        assert_eq!(acc.finish(), psnr_video(&a, &b));
    }

    #[test]
    #[should_panic(expected = "never banked")]
    fn accumulator_rejects_incomplete_finish() {
        let res = Resolution::new(16, 16);
        let f = Frame::filled(res, 10, 128, 128);
        let mut acc = PsnrAccumulator::new(2);
        acc.push(0, &f, &f);
        let _ = acc.finish();
    }

    #[test]
    fn video_psnr_averages_frames() {
        let res = Resolution::new(16, 16);
        let a = Video::new(vec![Frame::filled(res, 50, 128, 128); 3], 30.0);
        let b = Video::new(vec![Frame::filled(res, 52, 128, 128); 3], 30.0);
        let per_frame = psnr_ycbcr(a.frame(0), b.frame(0));
        assert!((psnr_video(&a, &b) - per_frame).abs() < 1e-12);
    }
}
