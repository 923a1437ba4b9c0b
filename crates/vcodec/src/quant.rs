//! Coefficient quantization — the only lossy step of the codec.
//!
//! Quantization divides each transform coefficient by a step size derived
//! from the quantizer parameter (QP), zeroing the high-frequency components
//! the viewer is least likely to notice (Section 2.1 of the paper). The QP
//! scale follows H.264: the step doubles every 6 QP, spanning QP 0..=51.

use std::sync::OnceLock;

/// Inclusive QP range.
pub const QP_MIN: u8 = 0;
/// Inclusive QP range.
pub const QP_MAX: u8 = 51;

/// Quantization step size for a QP, H.264-style: `0.625 · 2^(qp/6)`.
///
/// ```
/// use vcodec::quant::qstep;
/// assert!((qstep(0) - 0.625).abs() < 1e-9);
/// // Six QP doubles the step.
/// assert!((qstep(30) / qstep(24) - 2.0).abs() < 1e-9);
/// ```
///
/// # Panics
///
/// Panics if `qp > 51`.
pub fn qstep(qp: u8) -> f64 {
    assert!(qp <= QP_MAX, "QP must be 0..=51, got {qp}");
    // One `exp2` per QP per process, not one per coefficient block.
    static STEPS: OnceLock<[f64; QP_MAX as usize + 1]> = OnceLock::new();
    STEPS.get_or_init(|| std::array::from_fn(|qp| 0.625 * (qp as f64 / 6.0).exp2()))
        [usize::from(qp)]
}

/// Deadzone bias applied during quantization. Intra blocks use a plain
/// round-to-nearest; inter residuals use a wider deadzone that discards
/// more marginal coefficients, matching x264's default behaviour.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Deadzone {
    /// Round to nearest (bias 1/2) — intra blocks.
    Intra,
    /// Wider deadzone (bias ≈ 1/3) — inter residuals.
    Inter,
}

impl Deadzone {
    fn bias(&self) -> f64 {
        match self {
            Deadzone::Intra => 0.5,
            Deadzone::Inter => 1.0 / 3.0,
        }
    }
}

/// [`quantize`] into a caller-owned buffer of `coeffs.len()` levels.
pub(crate) fn quantize_into(coeffs: &[i32], qp: u8, deadzone: Deadzone, levels: &mut [i32]) {
    assert_eq!(coeffs.len(), levels.len(), "one level per coefficient");
    let step = qstep(qp);
    let bias = deadzone.bias();
    for (l, &c) in levels.iter_mut().zip(coeffs) {
        // The quotient is non-negative, so the cast's truncation is its
        // floor (and saturates where the floor would not fit).
        let level = (f64::from(c.unsigned_abs()) / step + bias) as i32;
        *l = if c < 0 { -level } else { level };
    }
}

/// Quantizes transform coefficients to levels: each magnitude is divided
/// by the QP's step and rounded down after adding the deadzone bias; the
/// sign carries over. The division stays a division (a reciprocal multiply
/// rounds differently and would change bitstreams).
///
/// # Panics
///
/// Panics if `qp > 51`.
pub fn quantize(coeffs: &[i32], qp: u8, deadzone: Deadzone) -> Vec<i32> {
    let mut levels = vec![0; coeffs.len()];
    quantize_into(coeffs, qp, deadzone, &mut levels);
    levels
}

/// [`dequantize`] into a caller-owned buffer of `levels.len()`
/// coefficients.
pub(crate) fn dequantize_into(levels: &[i32], qp: u8, coeffs: &mut [i32]) {
    assert_eq!(coeffs.len(), levels.len(), "one coefficient per level");
    let step = qstep(qp);
    for (c, &l) in coeffs.iter_mut().zip(levels) {
        // Most levels are zero; `round` is a library call.
        *c = if l == 0 { 0 } else { (f64::from(l) * step).round() as i32 };
    }
}

/// Reconstructs coefficients from quantized levels (the decoder's half of
/// the quantizer). Total on any level: products beyond `i32` saturate.
///
/// # Panics
///
/// Panics if `qp > 51`.
pub fn dequantize(levels: &[i32], qp: u8) -> Vec<i32> {
    let mut coeffs = vec![0; levels.len()];
    dequantize_into(levels, qp, &mut coeffs);
    coeffs
}

/// Maps a constant-rate-factor (CRF) quality target onto a base QP.
///
/// Like x264, CRF values live on the QP scale; CRF 18 is "visually
/// lossless", CRF 23 the default (the paper, Section 4.1, uses CRF 18 to
/// measure entropy). The returned QP is simply the clamped CRF — the rate
/// controller then modulates per-frame QP around it.
pub fn crf_to_qp(crf: f64) -> u8 {
    crf.round().clamp(f64::from(QP_MIN), f64::from(QP_MAX)) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qstep_table_holds_the_formula_bit_for_bit() {
        for qp in QP_MIN..=QP_MAX {
            let formula = 0.625 * (f64::from(qp) / 6.0).exp2();
            assert_eq!(qstep(qp).to_bits(), formula.to_bits(), "qp {qp}");
        }
    }

    #[test]
    fn dequantize_saturates_instead_of_overflowing() {
        let levels = [i32::MAX, i32::MIN, -1, 0];
        assert_eq!(dequantize(&levels, QP_MAX), [i32::MAX, i32::MIN, -226, 0]);
        assert_eq!(dequantize(&levels, QP_MIN), [1_342_177_279, -1_342_177_280, -1, 0]);
    }

    #[test]
    fn qstep_monotonically_increases() {
        let mut prev = 0.0;
        for qp in QP_MIN..=QP_MAX {
            let s = qstep(qp);
            assert!(s > prev, "qstep({qp}) = {s} not > {prev}");
            prev = s;
        }
    }

    #[test]
    fn qstep_doubles_every_six() {
        for qp in 0..=(QP_MAX - 6) {
            let ratio = qstep(qp + 6) / qstep(qp);
            assert!((ratio - 2.0).abs() < 1e-9, "qp {qp}: ratio {ratio}");
        }
    }

    #[test]
    fn quantize_dequantize_error_bounded_by_step() {
        let coeffs: Vec<i32> = (-100..100).map(|i| i * 13).collect();
        for qp in [10u8, 26, 40] {
            let step = qstep(qp);
            let levels = quantize(&coeffs, qp, Deadzone::Intra);
            let rec = dequantize(&levels, qp);
            for (&c, &r) in coeffs.iter().zip(&rec) {
                assert!(
                    (f64::from(c) - f64::from(r)).abs() <= step / 2.0 + 1.0,
                    "qp {qp}: {c} -> {r} (step {step})"
                );
            }
        }
    }

    #[test]
    fn higher_qp_zeroes_more_coefficients() {
        let coeffs: Vec<i32> = (0..64).map(|i| i - 32).collect();
        let zeros =
            |qp: u8| quantize(&coeffs, qp, Deadzone::Inter).iter().filter(|&&l| l == 0).count();
        assert!(zeros(40) > zeros(20));
        assert!(zeros(20) >= zeros(5));
    }

    #[test]
    fn inter_deadzone_is_wider() {
        // A coefficient just below 0.5 steps quantizes to 0 only with the
        // inter deadzone.
        let qp = 30u8;
        let c = (qstep(qp) * 0.45) as i32;
        assert_eq!(quantize(&[c], qp, Deadzone::Intra)[0], 0);
        let c2 = (qstep(qp) * 0.55) as i32;
        assert_eq!(quantize(&[c2], qp, Deadzone::Intra)[0], 1);
        assert_eq!(quantize(&[c2], qp, Deadzone::Inter)[0], 0);
    }

    #[test]
    fn quantize_preserves_sign() {
        let coeffs = [-500, -1, 0, 1, 500];
        let levels = quantize(&coeffs, 20, Deadzone::Intra);
        for (&c, &l) in coeffs.iter().zip(&levels) {
            // A nonzero level always carries the coefficient's sign; tiny
            // coefficients may legitimately quantize to zero.
            assert!(l == 0 || ((c < 0) == (l < 0)), "{c} -> {l}");
        }
        assert!(levels[0] < 0 && levels[4] > 0);
    }

    #[test]
    fn crf_mapping_clamps() {
        assert_eq!(crf_to_qp(18.0), 18);
        assert_eq!(crf_to_qp(-3.0), 0);
        assert_eq!(crf_to_qp(99.0), 51);
    }

    #[test]
    #[should_panic(expected = "QP must be")]
    fn qp_out_of_range_panics() {
        let _ = qstep(52);
    }
}
