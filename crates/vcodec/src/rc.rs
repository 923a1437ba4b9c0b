//! Rate control: constant quality, single-pass bitrate, two-pass bitrate.
//!
//! Section 2.2 of the paper: an encoder either sustains a quality level
//! using as many bits as needed (constant rate factor), or fits a target
//! bitrate, optionally using a first pass to learn per-frame complexity so
//! the second pass can "budget fewer bits for simple frames, and more for
//! complex frames".

use crate::quant::{crf_to_qp, qstep, QP_MAX, QP_MIN};

/// Rate-control mode requested by the caller.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum RateControl {
    /// Constant rate factor: sustain quality, spend whatever bits needed.
    ConstQuality {
        /// CRF value on the QP scale; 18 ≈ visually lossless.
        crf: f64,
    },
    /// Target bitrate, single pass (the low-latency Live configuration).
    Bitrate {
        /// Target bits per second.
        bps: u64,
    },
    /// Target bitrate with a first analysis pass (VOD / Popular
    /// configuration).
    TwoPassBitrate {
        /// Target bits per second.
        bps: u64,
    },
}

impl RateControl {
    /// The bitrate target, if any.
    pub fn target_bps(&self) -> Option<u64> {
        match self {
            RateControl::ConstQuality { .. } => None,
            RateControl::Bitrate { bps } | RateControl::TwoPassBitrate { bps } => Some(*bps),
        }
    }
}

/// Frame types the controller differentiates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameKind {
    /// Intra-only (key) frame.
    Intra,
    /// Predicted frame.
    Inter,
}

/// Per-frame complexity record produced by a first pass: the bits the
/// analysis encode spent on each frame at a fixed QP.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FirstPassLog {
    /// QP the analysis pass ran at.
    pub analysis_qp: u8,
    /// Bits each frame took in the analysis pass.
    pub frame_bits: Vec<u64>,
}

/// The stateful per-encode controller. Construct one per encode (or per
/// pass), ask it for each frame's QP, and report bits back after coding.
#[derive(Clone, Debug)]
pub struct RateController {
    mode: Mode,
    fps: f64,
    /// Bits produced so far.
    spent_bits: f64,
    /// Frames coded so far.
    coded_frames: u32,
    last_qp: u8,
}

#[derive(Clone, Debug)]
enum Mode {
    ConstQuality { base_qp: u8 },
    Abr { target_bpf: f64, base_qp: u8 },
    TwoPass { budgets: Vec<f64>, qps: Vec<u8> },
}

/// Keyframes are given a small QP bonus: their quality propagates through
/// the whole GOP via prediction.
const INTRA_QP_BONUS: u8 = 3;

impl RateController {
    /// Builds a controller for constant-quality encoding.
    pub fn const_quality(crf: f64) -> RateController {
        RateController::with_mode(Mode::ConstQuality { base_qp: crf_to_qp(crf) }, 30.0)
    }

    /// Builds a single-pass controller targeting `bps` at `fps` for frames
    /// of `pixels_per_frame` pixels.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero / non-positive.
    pub fn single_pass(bps: u64, fps: f64, pixels_per_frame: u64) -> RateController {
        assert!(bps > 0 && fps > 0.0 && pixels_per_frame > 0, "rate parameters must be positive");
        let target_bpf = bps as f64 / fps;
        let base_qp = initial_qp_guess(target_bpf, pixels_per_frame);
        RateController::with_mode(Mode::Abr { target_bpf, base_qp }, fps)
    }

    /// Builds the second-pass controller from a first-pass log.
    ///
    /// Frame budgets are allocated proportionally to `complexity^0.6`
    /// (compressing the dynamic range, as real two-pass rate control does),
    /// then converted to QPs with the `bits ∝ 1/qstep` model anchored at
    /// the analysis pass.
    ///
    /// # Panics
    ///
    /// Panics if the log is empty or parameters are non-positive.
    pub fn two_pass(bps: u64, fps: f64, log: &FirstPassLog) -> RateController {
        assert!(!log.frame_bits.is_empty(), "first-pass log is empty");
        assert!(bps > 0 && fps > 0.0, "rate parameters must be positive");
        let n = log.frame_bits.len();
        let total_budget = bps as f64 * n as f64 / fps;
        let weights: Vec<f64> =
            log.frame_bits.iter().map(|&b| (b.max(64) as f64).powf(0.6)).collect();
        let wsum: f64 = weights.iter().sum();
        let budgets: Vec<f64> = weights.iter().map(|w| total_budget * w / wsum).collect();
        // Base QP from totals: the constant-quality point that spends the
        // whole budget under the bits(qp) ∝ 1/qstep(qp) model.
        let total_c: f64 = log.frame_bits.iter().map(|&b| b.max(64) as f64).sum();
        let base_qp = qp_for_step(qstep(log.analysis_qp) * total_c / total_budget);
        let qps: Vec<u8> = log
            .frame_bits
            .iter()
            .zip(&budgets)
            .map(|(&c, &b)| {
                // bits(qp) ≈ c · qstep(analysis_qp) / qstep(qp); clamp the
                // per-frame modulation to ±4 QP around the base so a
                // degenerate complexity log (one huge keyframe, trivial P
                // frames) cannot starve the keyframe while gold-plating
                // frames that were already nearly free.
                let ratio = (c.max(64) as f64) * qstep(log.analysis_qp) / b;
                qp_for_step(ratio).clamp(base_qp.saturating_sub(4), (base_qp + 4).min(QP_MAX))
            })
            .collect();
        RateController::with_mode(Mode::TwoPass { budgets, qps }, fps)
    }

    fn with_mode(mode: Mode, fps: f64) -> RateController {
        RateController { mode, fps, spent_bits: 0.0, coded_frames: 0, last_qp: 26 }
    }

    /// QP to use for the next frame.
    pub fn frame_qp(&mut self, kind: FrameKind) -> u8 {
        let qp = match &self.mode {
            Mode::ConstQuality { base_qp } => *base_qp,
            Mode::Abr { target_bpf, base_qp } => {
                // Virtual-buffer feedback: raise QP when over budget.
                let expected = target_bpf * f64::from(self.coded_frames);
                let overshoot =
                    if expected > 0.0 { (self.spent_bits - expected) / target_bpf } else { 0.0 };
                let adj = (overshoot * 1.5).clamp(-12.0, 12.0);
                (f64::from(*base_qp) + adj).round().clamp(f64::from(QP_MIN), f64::from(QP_MAX))
                    as u8
            }
            Mode::TwoPass { qps, .. } => {
                let idx = (self.coded_frames as usize).min(qps.len() - 1);
                // Drift correction: if we're over budget so far, nudge up.
                // No correction before any bits have been planned (frame 0).
                let planned: f64 = self.planned_bits_through(idx);
                let adj = if planned >= 1.0 {
                    let drift = (self.spent_bits / planned).clamp(0.25, 4.0);
                    (drift.log2() * 3.0).clamp(-6.0, 6.0)
                } else {
                    0.0
                };
                (f64::from(qps[idx]) + adj).round().clamp(f64::from(QP_MIN), f64::from(QP_MAX))
                    as u8
            }
        };
        let qp = match kind {
            FrameKind::Intra => qp.saturating_sub(INTRA_QP_BONUS),
            FrameKind::Inter => qp,
        };
        self.last_qp = qp;
        qp
    }

    fn planned_bits_through(&self, idx: usize) -> f64 {
        match &self.mode {
            Mode::TwoPass { budgets, .. } => budgets.iter().take(idx).sum(),
            _ => 0.0,
        }
    }

    /// Reports the bits the just-coded frame actually used.
    pub fn frame_done(&mut self, bits: u64) {
        self.spent_bits += bits as f64;
        self.coded_frames += 1;
    }

    /// Frame rate this controller was configured for.
    pub fn fps(&self) -> f64 {
        self.fps
    }

    /// Total bits reported so far.
    pub fn spent_bits(&self) -> u64 {
        self.spent_bits as u64
    }
}

/// First guess at a QP achieving `target_bits` for a frame of `pixels`
/// pixels, from the empirical model `bits_per_pixel ≈ 1.2 / qstep(qp)`.
fn initial_qp_guess(target_bits: f64, pixels: u64) -> u8 {
    let bpp = target_bits / pixels as f64;
    // qstep = 1.2 / bpp  =>  qp = 6 log2(qstep / 0.625)
    qp_for_step(1.2 / bpp.max(1e-6))
}

/// QP whose step size is closest to `step`.
fn qp_for_step(step: f64) -> u8 {
    let qp = 6.0 * (step / 0.625).max(1e-9).log2();
    qp.round().clamp(f64::from(QP_MIN), f64::from(QP_MAX)) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_quality_is_constant() {
        let mut rc = RateController::const_quality(23.0);
        let q1 = rc.frame_qp(FrameKind::Inter);
        rc.frame_done(100_000);
        let q2 = rc.frame_qp(FrameKind::Inter);
        assert_eq!(q1, 23);
        assert_eq!(q1, q2);
        assert_eq!(rc.frame_qp(FrameKind::Intra), 20);
    }

    #[test]
    fn abr_raises_qp_when_over_budget() {
        let mut rc = RateController::single_pass(1_000_000, 30.0, 1280 * 720);
        let q0 = rc.frame_qp(FrameKind::Inter);
        // Blow the budget 3x for a few frames.
        for _ in 0..5 {
            rc.frame_done(100_000);
        }
        let q1 = rc.frame_qp(FrameKind::Inter);
        assert!(q1 > q0, "QP should rise: {q0} -> {q1}");
    }

    #[test]
    fn abr_lowers_qp_when_under_budget() {
        let mut rc = RateController::single_pass(1_000_000, 30.0, 1280 * 720);
        let q0 = rc.frame_qp(FrameKind::Inter);
        for _ in 0..5 {
            rc.frame_done(1_000);
        }
        let q1 = rc.frame_qp(FrameKind::Inter);
        assert!(q1 < q0, "QP should drop: {q0} -> {q1}");
    }

    #[test]
    fn initial_guess_scales_with_bitrate() {
        let lo = initial_qp_guess(10_000.0, 1280 * 720);
        let hi = initial_qp_guess(1_000_000.0, 1280 * 720);
        assert!(lo > hi, "starved budget -> higher QP ({lo} vs {hi})");
    }

    #[test]
    fn two_pass_gives_complex_frames_more_bits() {
        let log = FirstPassLog { analysis_qp: 30, frame_bits: vec![1_000, 1_000, 50_000, 1_000] };
        let rc = RateController::two_pass(500_000, 30.0, &log);
        match &rc.mode {
            Mode::TwoPass { budgets, qps } => {
                assert!(budgets[2] > budgets[0] * 2.0);
                assert!(qps[2] >= qps[0], "complex frame cannot get a lower QP than trivial one");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn two_pass_budget_sums_to_target() {
        let log = FirstPassLog { analysis_qp: 30, frame_bits: vec![10_000; 30] };
        let rc = RateController::two_pass(2_000_000, 30.0, &log);
        match &rc.mode {
            Mode::TwoPass { budgets, .. } => {
                let total: f64 = budgets.iter().sum();
                // 30 frames at 30fps = 1 second of video = bps budget.
                assert!((total - 2_000_000.0).abs() < 1.0, "total {total}");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn qp_for_step_inverts_qstep() {
        for qp in (QP_MIN..=QP_MAX).step_by(5) {
            assert_eq!(qp_for_step(qstep(qp)), qp);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bitrate_rejected() {
        let _ = RateController::single_pass(0, 30.0, 100);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_first_pass_rejected() {
        let _ = RateController::two_pass(1000, 30.0, &FirstPassLog::default());
    }
}
