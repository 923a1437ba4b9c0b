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

    fn index(&self) -> usize {
        match self {
            Deadzone::Intra => 0,
            Deadzone::Inter => 1,
        }
    }
}

/// Largest coefficient magnitude the multiply-shift quantizer covers. The
/// forward transform of a residual in `[-255, 255]` peaks at 2 039 (its DC
/// term), so every coefficient the encoder forms is inside; larger
/// magnitudes, which only direct callers of [`quantize`] can pass, divide
/// there.
pub(crate) const REACH: u32 = 1 << 11;

/// Fraction bits of the multiply-shift: the largest for which every
/// multiplier fits a `u32` (steps are at least 0.625), so the product is
/// one 32 × 32 → 64-bit multiply, which SSE2 has per lane.
const SHIFT: u32 = 31;

/// The division quantizer `(f64::from(a) / step + bias) as i32` for one
/// (QP, deadzone) as integer arithmetic: `(a·m + b) >> SHIFT`, equal to
/// the division for every magnitude `a ≤ REACH`.
#[derive(Clone, Copy, Debug)]
struct Reciprocal {
    m: u32,
    b: u64,
}

impl Reciprocal {
    /// Finds `(m, b)` for `step` and `bias`. For a candidate `m`, the level
    /// `L` the division gives `a` comes out exactly when `b` lies in
    /// `[L·2^SHIFT − a·m, (L+1)·2^SHIFT − a·m)`; a `b` in the intersection
    /// of those intervals over every `a ≤ REACH` reproduces the division
    /// on the whole range, so finding one is the proof. `None` if no `m`
    /// near `2^SHIFT / step` has one (then that pair always divides).
    fn derive(step: f64, bias: f64) -> Option<Reciprocal> {
        let levels: Vec<i64> = (0..=REACH).map(|a| divide(a, step, bias) as i64).collect();
        let near = (f64::from(1u32 << SHIFT) / step) as i64;
        (near - 1..=near + 2).find_map(|m| {
            let (mut lo, mut hi) = (0i64, i64::MAX);
            for (a, &level) in (0i64..).zip(&levels) {
                lo = lo.max((level << SHIFT) - a * m);
                hi = hi.min(((level + 1) << SHIFT) - a * m);
            }
            (lo < hi).then_some(Reciprocal { m: u32::try_from(m).ok()?, b: lo as u64 })
        })
    }

    /// The pair for `qp` and `deadzone`, derived once per process.
    fn of(qp: u8, deadzone: Deadzone) -> Option<Reciprocal> {
        assert!(qp <= QP_MAX, "QP must be 0..=51, got {qp}");
        static TABLE: OnceLock<[[Option<Reciprocal>; 2]; QP_MAX as usize + 1]> = OnceLock::new();
        let table = TABLE.get_or_init(|| {
            std::array::from_fn(|qp| {
                let step = qstep(qp as u8);
                [Deadzone::Intra, Deadzone::Inter].map(|dz| Reciprocal::derive(step, dz.bias()))
            })
        });
        table[usize::from(qp)][deadzone.index()]
    }
}

/// One magnitude through the division quantizer. The quotient is
/// non-negative, so the cast's truncation is its floor (and saturates
/// where the floor would not fit).
fn divide(a: u32, step: f64, bias: f64) -> i32 {
    (f64::from(a) / step + bias) as i32
}

vframe::isa::multiversion! {
    /// [`quantize`] into a caller-owned buffer of `coeffs.len()` levels,
    /// for coefficients of magnitude at most [`REACH`]: every coefficient
    /// the encoder's forward transform forms from a residual (the
    /// `transform` tests prove it for each size). One multiply-shift loop,
    /// no branch on the input.
    ///
    /// # Panics
    ///
    /// Panics if `qp > 51`, and in debug builds if a magnitude exceeds
    /// [`REACH`].
    pub(crate) fn quantize_into(coeffs: &[i32], qp: u8, deadzone: Deadzone, levels: &mut [i32]) {
        assert_eq!(coeffs.len(), levels.len(), "one level per coefficient");
        debug_assert!(coeffs.iter().all(|c| c.unsigned_abs() <= REACH), "beyond the reach");
        let Reciprocal { m, b } = Reciprocal::of(qp, deadzone)
            .expect("every QP and deadzone has a multiply-shift pair (tested)");
        for (l, &c) in levels.iter_mut().zip(coeffs) {
            let level = ((u64::from(c.unsigned_abs()) * u64::from(m) + b) >> SHIFT) as i32;
            // `sign` is 0 or -1, so this is `±level` without a branch.
            let sign = c >> 31;
            *l = (level ^ sign) - sign;
        }
    }
}

/// Quantizes transform coefficients to levels: each magnitude is divided
/// by the QP's step and rounded down after adding the deadzone bias; the
/// sign carries over. For every magnitude a coefficient of a residual
/// block can have, the division runs as an integer multiply-shift derived
/// from it and proven equal to it magnitude by magnitude; a block with a
/// larger magnitude, which only direct callers can pass, divides.
///
/// # Panics
///
/// Panics if `qp > 51`.
pub fn quantize(coeffs: &[i32], qp: u8, deadzone: Deadzone) -> Vec<i32> {
    let mut levels = vec![0; coeffs.len()];
    let peak = coeffs.iter().map(|c| c.unsigned_abs()).max().unwrap_or(0);
    if peak <= REACH && Reciprocal::of(qp, deadzone).is_some() {
        quantize_into(coeffs, qp, deadzone, &mut levels);
    } else {
        let (step, bias) = (qstep(qp), deadzone.bias());
        for (l, &c) in levels.iter_mut().zip(coeffs) {
            let level = divide(c.unsigned_abs(), step, bias);
            *l = if c < 0 { -level } else { level };
        }
    }
    levels
}

vframe::isa::multiversion! {
    /// [`dequantize`] into a caller-owned buffer of `levels.len()`
    /// coefficients: `(f64::from(l) * qstep(qp)).round() as i32` per level
    /// in one branch-free loop, with no library call and no float-to-integer
    /// conversion, so it vectorizes. The product is under 2^39 in
    /// magnitude; adding [`ROUNDER`] rounds it to nearest, the rounded value
    /// is read from the sum's bits in `i64` lanes, and the dropped fraction
    /// (exact) moves ties away from zero as `round` does. Results past
    /// `i32` saturate as the cast does.
    pub(crate) fn dequantize_into(levels: &[i32], qp: u8, coeffs: &mut [i32]) {
        assert_eq!(coeffs.len(), levels.len(), "one coefficient per level");
        let step = qstep(qp);
        for (c, &l) in coeffs.iter_mut().zip(levels) {
            let x = f64::from(l) * step;
            let sum = x + ROUNDER;
            let frac = x - (sum - ROUNDER);
            let up = i64::from(frac == 0.5 && x > 0.0);
            let down = i64::from(frac == -0.5 && x < 0.0);
            let r = sum.to_bits() as i64 - ROUNDER.to_bits() as i64 + up - down;
            *c = r.clamp(i32::MIN.into(), i32::MAX.into()) as i32;
        }
    }
}

/// `1.5 · 2^52`: adding it to an `f64` under 2^51 in magnitude rounds the
/// value to an integer (to nearest, ties to even), which then sits in the
/// low bits of the sum's mantissa.
const ROUNDER: f64 = 6_755_399_441_055_744.0;

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
    use proptest::prelude::*;
    use vframe::isa;

    /// Case-count multiplier: the `--release` test run does ten times
    /// what the debug tier-1 run does.
    const SCALE: u32 = if cfg!(debug_assertions) { 1 } else { 10 };

    /// Oracle: the quantizer as it was before the multiply-shift, one
    /// `f64` division per coefficient.
    fn quantize_by_division(coeffs: &[i32], qp: u8, deadzone: Deadzone) -> Vec<i32> {
        let step = qstep(qp);
        let bias = deadzone.bias();
        coeffs
            .iter()
            .map(|&c| {
                let level = (f64::from(c.unsigned_abs()) / step + bias) as i32;
                if c < 0 {
                    -level
                } else {
                    level
                }
            })
            .collect()
    }

    const DEADZONES: [Deadzone; 2] = [Deadzone::Intra, Deadzone::Inter];

    #[test]
    fn every_qp_and_deadzone_has_a_multiply_shift_pair() {
        for qp in QP_MIN..=QP_MAX {
            for dz in DEADZONES {
                assert!(Reciprocal::of(qp, dz).is_some(), "qp {qp} {dz:?}: no (m, b) found");
            }
        }
    }

    #[test]
    fn multiply_shift_equals_division_for_every_magnitude_in_reach() {
        // Exhaustive over 52 QPs × 2 deadzones × every magnitude in reach,
        // both signs, one 64-coefficient tile at a time as the encoder
        // calls it, at every rung; then a sample beyond the reach, which
        // `quantize` divides.
        let magnitudes: Vec<i32> = (0..=REACH as i32).collect();
        let beyond: Vec<i32> = (1..=64)
            .map(|k| REACH as i32 + k * k * 517)
            .chain([i32::MAX, i32::MIN, i32::MIN + 1, 1 << 20])
            .collect();
        for qp in QP_MIN..=QP_MAX {
            for dz in DEADZONES {
                for tile in magnitudes.chunks(64) {
                    let negated: Vec<i32> = tile.iter().map(|&c| -c).collect();
                    for coeffs in [tile, &negated] {
                        let levels = isa::same_at_every_rung("quant::quantize_into", || {
                            let mut levels = vec![0; coeffs.len()];
                            quantize_into(coeffs, qp, dz, &mut levels);
                            levels
                        });
                        let want = quantize_by_division(coeffs, qp, dz);
                        assert_eq!(levels, want, "qp {qp} {dz:?} tile from {}", coeffs[0]);
                    }
                }
            }
        }
        for qp in QP_MIN..=QP_MAX {
            for dz in DEADZONES {
                for tile in beyond.chunks(64) {
                    let negated: Vec<i32> = tile.iter().map(|&c| c.wrapping_neg()).collect();
                    for coeffs in [tile, &negated] {
                        assert_eq!(quantize(coeffs, qp, dz), quantize_by_division(coeffs, qp, dz));
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64 * SCALE, ..ProptestConfig::default() })]

        // The whole public domain: mostly coefficient-sized values, salted
        // with magnitudes past the reach that send the tile to division.
        #[test]
        fn quantize_equals_division_on_any_input(
            coeffs in prop::collection::vec(
                (any::<i32>(), 0u8..8).prop_map(|(v, kind)| match kind {
                    0..=5 => v % 2_100,
                    6 => v % 70_000,
                    _ => v,
                }),
                0..=80,
            ),
            qp in 0u8..=51,
            inter in any::<bool>(),
        ) {
            let dz = if inter { Deadzone::Inter } else { Deadzone::Intra };
            prop_assert_eq!(quantize(&coeffs, qp, dz), quantize_by_division(&coeffs, qp, dz));
        }
    }

    #[test]
    fn qstep_table_holds_the_formula_bit_for_bit() {
        for qp in QP_MIN..=QP_MAX {
            let formula = 0.625 * (f64::from(qp) / 6.0).exp2();
            assert_eq!(qstep(qp).to_bits(), formula.to_bits(), "qp {qp}");
        }
    }

    /// Oracle: the dequantizer as it was, one library `round` per level.
    fn dequantize_by_round(levels: &[i32], qp: u8) -> Vec<i32> {
        levels.iter().map(|&l| (f64::from(l) * qstep(qp)).round() as i32).collect()
    }

    /// `dequantize_into` at every rung, checked equal to the `Sse2` one.
    fn dequantize_at_every_rung(levels: &[i32], qp: u8) -> Vec<i32> {
        isa::same_at_every_rung("quant::dequantize_into", || {
            let mut coeffs = vec![0; levels.len()];
            dequantize_into(levels, qp, &mut coeffs);
            coeffs
        })
    }

    #[test]
    fn dequantize_equals_the_rounded_product() {
        // Exhaustive over 52 QPs × every level up to 4 096 in magnitude,
        // both signs (an encoder forms at most 3 277: 2 048 / 0.625 plus
        // the intra bias), one 64-level tile at a time as reconstruction
        // calls it; then, one level per tile, the levels either side of
        // the QP's saturation edge (where the product passes `i32`), the
        // ends of `i32` and a stride across it.
        let narrow: Vec<i32> = (-4_096..=4_096).collect();
        for qp in QP_MIN..=QP_MAX {
            let edge = (f64::from(i32::MAX) / qstep(qp)) as i64;
            let wide: Vec<i32> = (edge - 1..=edge + 1)
                .filter_map(|l| i32::try_from(l).ok())
                .flat_map(|l| [l, -l])
                .chain([i32::MIN, i32::MIN + 1, i32::MAX - 1, i32::MAX])
                .chain((0..=4_096i64).map(|k| i32::try_from(k * 1_048_573 - (1 << 31)).unwrap()))
                .collect();
            for tile in narrow.chunks(64).chain(wide.chunks(1)) {
                let want = dequantize_by_round(tile, qp);
                assert_eq!(
                    dequantize_at_every_rung(tile, qp),
                    want,
                    "qp {qp} tile from {}",
                    tile[0]
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64 * SCALE, ..ProptestConfig::default() })]

        #[test]
        fn dequantize_equals_the_rounded_product_on_any_input(
            levels in prop::collection::vec(
                (any::<i32>(), any::<bool>()).prop_map(|(v, small)| if small { v % 5_000 } else { v }),
                0..=64,
            ),
            qp in 0u8..=51,
        ) {
            prop_assert_eq!(dequantize_at_every_rung(&levels, qp), dequantize_by_round(&levels, qp));
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
