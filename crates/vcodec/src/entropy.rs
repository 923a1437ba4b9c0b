//! Syntax-level entropy coding with two interchangeable backends.
//!
//! The codec codes one syntax (flags, unsigned/signed values, residual
//! coefficient blocks) through either backend:
//!
//! * [`EntropyBackend::Vlc`] — variable-length codes (Exp-Golomb), the
//!   CAVLC-class option: fast, context-free, a few percent worse
//!   compression.
//! * [`EntropyBackend::Arith`] — adaptive binary arithmetic coding, the
//!   CABAC-class option (Section 2.1 of the paper): every bin is coded
//!   under an adaptive context, buying compression at the cost of strictly
//!   sequential, branch-heavy work.
//!
//! Both backends serialize the *same* syntax, so the choice is a pure
//! rate/speed trade-off — exactly the knob the encoder families in
//! [`crate::family`] differentiate on.

use crate::arith::{ArithDecoder, ArithEncoder, Context};
use crate::bitio::{BitReader, BitWriter, ReadBitsError};
use crate::golomb;
use crate::transform::{zigzag, TransformSize};

/// Entropy backend selection.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EntropyBackend {
    /// Exp-Golomb variable-length codes (CAVLC-class).
    Vlc,
    /// Adaptive binary arithmetic coding (CABAC-class) with the given
    /// context adaptation shift (smaller adapts faster).
    Arith {
        /// Context adaptation shift, 1..=7.
        shift: u8,
    },
}

/// Syntax-element classes; each class gets its own adaptive context bank in
/// the arithmetic backend so statistics do not bleed between elements.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CtxClass {
    /// Macroblock/superblock mode decisions.
    Mode,
    /// Motion-vector difference, horizontal.
    MvX,
    /// Motion-vector difference, vertical.
    MvY,
    /// Zero-run lengths in coefficient blocks.
    Run,
    /// Coefficient magnitudes.
    Level,
    /// "Block has any coefficients" flags.
    CodedFlag,
    /// "This was the last coefficient" flags.
    LastFlag,
    /// Generic header flags.
    Flag,
    /// Quantizer deltas.
    QpDelta,
}

const CTX_CLASSES: usize = 9;
/// Truncated-unary prefix length before escaping to bypass Exp-Golomb.
const TU_MAX: u64 = 12;
/// Context positions tracked per class (later bins share the last context).
const CTX_PER_CLASS: usize = 6;

fn class_index(c: CtxClass) -> usize {
    match c {
        CtxClass::Mode => 0,
        CtxClass::MvX => 1,
        CtxClass::MvY => 2,
        CtxClass::Run => 3,
        CtxClass::Level => 4,
        CtxClass::CodedFlag => 5,
        CtxClass::LastFlag => 6,
        CtxClass::Flag => 7,
        CtxClass::QpDelta => 8,
    }
}

#[derive(Clone, Debug)]
struct ContextBank {
    ctxs: Vec<Context>,
}

impl ContextBank {
    fn new(shift: u8) -> ContextBank {
        ContextBank { ctxs: vec![Context::new(shift); CTX_CLASSES * CTX_PER_CLASS] }
    }

    fn at(&mut self, class: CtxClass, pos: usize) -> &mut Context {
        let p = pos.min(CTX_PER_CLASS - 1);
        &mut self.ctxs[class_index(class) * CTX_PER_CLASS + p]
    }
}

enum EncInner {
    Vlc(BitWriter),
    Arith { enc: ArithEncoder, bank: ContextBank },
}

/// Serializes codec syntax through the selected backend.
///
/// ```
/// use vcodec::entropy::{CtxClass, EntropyBackend, EntropyDecoder, EntropyEncoder};
///
/// for backend in [EntropyBackend::Vlc, EntropyBackend::Arith { shift: 4 }] {
///     let mut enc = EntropyEncoder::new(backend);
///     enc.put_uval(CtxClass::Mode, 3);
///     enc.put_sval(CtxClass::MvX, -7);
///     enc.put_flag(CtxClass::Flag, true);
///     let bytes = enc.finish();
///     let mut dec = EntropyDecoder::new(backend, &bytes);
///     assert_eq!(dec.get_uval(CtxClass::Mode).unwrap(), 3);
///     assert_eq!(dec.get_sval(CtxClass::MvX).unwrap(), -7);
///     assert_eq!(dec.get_flag(CtxClass::Flag).unwrap(), true);
/// }
/// ```
pub struct EntropyEncoder {
    inner: EncInner,
    est_bits: f64,
}

impl std::fmt::Debug for EntropyEncoder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EntropyEncoder").field("est_bits", &self.est_bits).finish()
    }
}

impl EntropyEncoder {
    /// Creates an encoder for the given backend.
    pub fn new(backend: EntropyBackend) -> EntropyEncoder {
        let inner = match backend {
            EntropyBackend::Vlc => EncInner::Vlc(BitWriter::new()),
            EntropyBackend::Arith { shift } => {
                EncInner::Arith { enc: ArithEncoder::new(), bank: ContextBank::new(shift) }
            }
        };
        EntropyEncoder { inner, est_bits: 0.0 }
    }

    /// Codes a single flag under `class`'s first context.
    pub fn put_flag(&mut self, class: CtxClass, bit: bool) {
        match &mut self.inner {
            EncInner::Vlc(w) => {
                w.put_bit(bit);
                self.est_bits += 1.0;
            }
            EncInner::Arith { enc, bank } => {
                let ctx = bank.at(class, 0);
                self.est_bits += bin_cost(ctx.prob(), bit);
                enc.encode(ctx, bit);
            }
        }
    }

    /// Codes an unsigned value: Exp-Golomb in the VLC backend; truncated
    /// unary (contexts) + bypass Exp-Golomb escape in the arithmetic one.
    pub fn put_uval(&mut self, class: CtxClass, v: u64) {
        match &mut self.inner {
            EncInner::Vlc(w) => {
                golomb::write_ue(w, v);
                self.est_bits += f64::from(golomb::ue_bits(v));
            }
            EncInner::Arith { enc, bank } => {
                let prefix = v.min(TU_MAX);
                for i in 0..prefix {
                    let ctx = bank.at(class, i as usize);
                    self.est_bits += bin_cost(ctx.prob(), true);
                    enc.encode(ctx, true);
                }
                if prefix < TU_MAX {
                    let ctx = bank.at(class, prefix as usize);
                    self.est_bits += bin_cost(ctx.prob(), false);
                    enc.encode(ctx, false);
                } else {
                    // Escape: remainder in bypass Exp-Golomb.
                    let rem = v - TU_MAX;
                    let bits = golomb_bypass_bits(rem);
                    self.est_bits += f64::from(bits);
                    encode_bypass_golomb(enc, rem);
                }
            }
        }
    }

    /// Codes a signed value using the `0, 1, -1, 2, -2…` mapping.
    pub fn put_sval(&mut self, class: CtxClass, v: i64) {
        let mapped = if v > 0 { (v as u64) * 2 - 1 } else { (-v as u64) * 2 };
        self.put_uval(class, mapped);
    }

    /// Codes `count` raw bits with no modelling (bypass / plain bits).
    pub fn put_raw(&mut self, v: u64, count: u32) {
        self.est_bits += f64::from(count);
        match &mut self.inner {
            EncInner::Vlc(w) => w.put_bits(v, count),
            EncInner::Arith { enc, .. } => enc.encode_bypass(v, count),
        }
    }

    /// Codes one quantized coefficient block (zig-zag, run/level/sign with a
    /// last-coefficient flag), preceded by a coded-block flag.
    ///
    /// # Panics
    ///
    /// Panics if `levels.len() != size.area()`.
    pub fn put_coeff_block(&mut self, size: TransformSize, levels: &[i32]) {
        assert_eq!(levels.len(), size.area(), "level count must match block size");
        let scan = zigzag(size);
        let coded = levels.iter().filter(|&&l| l != 0).count();
        self.put_flag(CtxClass::CodedFlag, coded > 0);
        let mut prev = 0usize;
        let mut remaining = coded;
        for (si, &pos) in scan.iter().enumerate() {
            if remaining == 0 {
                break;
            }
            let level = levels[pos];
            if level == 0 {
                continue;
            }
            remaining -= 1;
            self.put_uval(CtxClass::Run, (si - prev) as u64);
            prev = si + 1;
            self.put_uval(CtxClass::Level, (level.unsigned_abs() - 1).into());
            self.put_raw(u64::from(level < 0), 1);
            self.put_flag(CtxClass::LastFlag, remaining == 0);
        }
    }

    /// Estimated bits emitted so far (exact for VLC; the arithmetic
    /// backend's estimate is the information-theoretic cost under its
    /// context models, accurate to a fraction of a percent). Drives rate
    /// control and RDO bit costs.
    pub fn bits_written(&self) -> u64 {
        self.est_bits.ceil() as u64
    }

    /// Flushes the backend and returns the payload bytes.
    pub fn finish(self) -> Vec<u8> {
        match self.inner {
            EncInner::Vlc(w) => w.finish(),
            EncInner::Arith { enc, .. } => enc.finish(),
        }
    }
}

/// Information cost in bits of coding `bit` with probability-of-zero `prob`.
fn bin_cost(prob: u8, bit: bool) -> f64 {
    let p0 = f64::from(prob) / 256.0;
    let p = if bit { 1.0 - p0 } else { p0 };
    -p.max(1e-6).log2()
}

/// Bits used by the bypass Exp-Golomb escape for `v`.
fn golomb_bypass_bits(v: u64) -> u32 {
    golomb::ue_bits(v)
}

fn encode_bypass_golomb(enc: &mut ArithEncoder, v: u64) {
    let val = v + 1;
    let bits = 64 - val.leading_zeros();
    for _ in 0..bits - 1 {
        enc.encode_bypass(0, 1);
    }
    enc.encode_bypass(val, bits);
}

fn decode_bypass_golomb(dec: &mut ArithDecoder<'_>) -> Result<u64, ReadBitsError> {
    let mut zeros = 0u32;
    while dec.decode_bypass(1) == 0 {
        zeros += 1;
        if zeros > 63 {
            return Err(ReadBitsError);
        }
    }
    let mut v = 1u64;
    for _ in 0..zeros {
        v = (v << 1) | dec.decode_bypass(1);
    }
    Ok(v - 1)
}

enum DecInner<'a> {
    Vlc(BitReader<'a>),
    Arith { dec: ArithDecoder<'a>, bank: ContextBank },
}

/// Deserializes codec syntax; must be constructed with the same backend the
/// encoder used.
pub struct EntropyDecoder<'a> {
    inner: DecInner<'a>,
}

impl std::fmt::Debug for EntropyDecoder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EntropyDecoder").finish()
    }
}

impl<'a> EntropyDecoder<'a> {
    /// Creates a decoder over `bytes` for the given backend.
    pub fn new(backend: EntropyBackend, bytes: &'a [u8]) -> EntropyDecoder<'a> {
        let inner = match backend {
            EntropyBackend::Vlc => DecInner::Vlc(BitReader::new(bytes)),
            EntropyBackend::Arith { shift } => {
                DecInner::Arith { dec: ArithDecoder::new(bytes), bank: ContextBank::new(shift) }
            }
        };
        EntropyDecoder { inner }
    }

    /// Decodes a flag coded by [`EntropyEncoder::put_flag`].
    ///
    /// # Errors
    ///
    /// Returns [`ReadBitsError`] if the VLC stream is exhausted.
    pub fn get_flag(&mut self, class: CtxClass) -> Result<bool, ReadBitsError> {
        match &mut self.inner {
            DecInner::Vlc(r) => r.get_bit(),
            DecInner::Arith { dec, bank } => Ok(dec.decode(bank.at(class, 0))),
        }
    }

    /// Decodes an unsigned value coded by [`EntropyEncoder::put_uval`].
    ///
    /// # Errors
    ///
    /// Returns [`ReadBitsError`] on stream exhaustion or malformed codes.
    pub fn get_uval(&mut self, class: CtxClass) -> Result<u64, ReadBitsError> {
        match &mut self.inner {
            DecInner::Vlc(r) => golomb::read_ue(r),
            DecInner::Arith { dec, bank } => {
                let mut prefix = 0u64;
                while prefix < TU_MAX && dec.decode(bank.at(class, prefix as usize)) {
                    prefix += 1;
                }
                if prefix < TU_MAX {
                    Ok(prefix)
                } else {
                    Ok(TU_MAX + decode_bypass_golomb(dec)?)
                }
            }
        }
    }

    /// Decodes a signed value coded by [`EntropyEncoder::put_sval`].
    ///
    /// # Errors
    ///
    /// Returns [`ReadBitsError`] on stream exhaustion or malformed codes.
    pub fn get_sval(&mut self, class: CtxClass) -> Result<i64, ReadBitsError> {
        let v = self.get_uval(class)?;
        if v % 2 == 1 {
            Ok(v.div_ceil(2) as i64)
        } else {
            Ok(-((v / 2) as i64))
        }
    }

    /// Decodes `count` raw bits.
    ///
    /// # Errors
    ///
    /// Returns [`ReadBitsError`] if the VLC stream is exhausted.
    pub fn get_raw(&mut self, count: u32) -> Result<u64, ReadBitsError> {
        match &mut self.inner {
            DecInner::Vlc(r) => r.get_bits(count),
            DecInner::Arith { dec, .. } => Ok(dec.decode_bypass(count)),
        }
    }

    /// [`EntropyDecoder::get_coeff_block`] into a caller-owned buffer of
    /// `size.area()` levels, every entry written.
    pub(crate) fn get_coeff_block_into(
        &mut self,
        size: TransformSize,
        levels: &mut [i32],
    ) -> Result<(), ReadBitsError> {
        assert_eq!(levels.len(), size.area(), "level count must match block size");
        let scan = zigzag(size);
        levels.fill(0);
        if !self.get_flag(CtxClass::CodedFlag)? {
            return Ok(());
        }
        let mut si = 0usize;
        loop {
            // A hostile run can be anything up to 2^64 - 2.
            let run = usize::try_from(self.get_uval(CtxClass::Run)?).map_err(|_| ReadBitsError)?;
            si = si.checked_add(run).filter(|&si| si < scan.len()).ok_or(ReadBitsError)?;
            let mag = self.get_uval(CtxClass::Level)? + 1;
            let mag = i32::try_from(mag).map_err(|_| ReadBitsError)?;
            let neg = self.get_raw(1)? == 1;
            levels[scan[si]] = if neg { -mag } else { mag };
            si += 1;
            if self.get_flag(CtxClass::LastFlag)? {
                return Ok(());
            }
        }
    }

    /// Decodes a coefficient block coded by
    /// [`EntropyEncoder::put_coeff_block`], returning row-major levels.
    ///
    /// # Errors
    ///
    /// Returns [`ReadBitsError`] on stream exhaustion or if the coded runs
    /// overflow the block (corrupt stream).
    pub fn get_coeff_block(&mut self, size: TransformSize) -> Result<Vec<i32>, ReadBitsError> {
        let mut levels = vec![0i32; size.area()];
        self.get_coeff_block_into(size, &mut levels)?;
        Ok(levels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BACKENDS: [EntropyBackend; 3] = [
        EntropyBackend::Vlc,
        EntropyBackend::Arith { shift: 4 },
        EntropyBackend::Arith { shift: 5 },
    ];

    #[test]
    fn scalar_syntax_roundtrip() {
        for backend in BACKENDS {
            let mut enc = EntropyEncoder::new(backend);
            for v in 0..100u64 {
                enc.put_uval(CtxClass::Run, v);
                enc.put_sval(CtxClass::MvX, 50 - v as i64);
                enc.put_flag(CtxClass::Flag, v % 3 == 0);
                enc.put_raw(v % 16, 4);
            }
            enc.put_uval(CtxClass::Level, 100_000); // escape path
            let bytes = enc.finish();
            let mut dec = EntropyDecoder::new(backend, &bytes);
            for v in 0..100u64 {
                assert_eq!(dec.get_uval(CtxClass::Run).unwrap(), v, "{backend:?}");
                assert_eq!(dec.get_sval(CtxClass::MvX).unwrap(), 50 - v as i64);
                assert_eq!(dec.get_flag(CtxClass::Flag).unwrap(), v % 3 == 0);
                assert_eq!(dec.get_raw(4).unwrap(), v % 16);
            }
            assert_eq!(dec.get_uval(CtxClass::Level).unwrap(), 100_000);
        }
    }

    fn sample_block() -> Vec<i32> {
        let mut levels = vec![0i32; 64];
        levels[0] = 15;
        levels[1] = -3;
        levels[8] = 2;
        levels[17] = -1;
        levels[63] = 1;
        levels
    }

    #[test]
    fn coeff_block_roundtrip() {
        for backend in BACKENDS {
            let mut enc = EntropyEncoder::new(backend);
            enc.put_coeff_block(TransformSize::T8, &sample_block());
            enc.put_coeff_block(TransformSize::T8, &vec![0i32; 64]);
            let mut four = vec![0i32; 16];
            four[5] = -42;
            enc.put_coeff_block(TransformSize::T4, &four);
            let bytes = enc.finish();
            let mut dec = EntropyDecoder::new(backend, &bytes);
            assert_eq!(dec.get_coeff_block(TransformSize::T8).unwrap(), sample_block());
            assert_eq!(dec.get_coeff_block(TransformSize::T8).unwrap(), vec![0i32; 64]);
            assert_eq!(dec.get_coeff_block(TransformSize::T4).unwrap(), four);
        }
    }

    #[test]
    fn arith_beats_vlc_on_sparse_blocks() {
        // Typical quantized residuals: mostly empty blocks with small
        // levels clustered at low frequencies — exactly what adaptive
        // contexts exploit.
        let mut blocks = Vec::new();
        let mut x = 3u64;
        for _ in 0..400 {
            let mut b = vec![0i32; 64];
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let n = (x >> 60) as usize % 4; // 0..3 nonzero coeffs
            for k in 0..n {
                b[k * 2] = 1 + (x >> (20 + k)) as i32 % 3;
            }
            blocks.push(b);
        }
        let measure = |backend| {
            let mut enc = EntropyEncoder::new(backend);
            for b in &blocks {
                enc.put_coeff_block(TransformSize::T8, b);
            }
            enc.finish().len()
        };
        let vlc = measure(EntropyBackend::Vlc);
        let arith = measure(EntropyBackend::Arith { shift: 4 });
        assert!(arith < vlc, "arith {arith} bytes vs vlc {vlc} bytes");
    }

    #[test]
    fn bits_written_tracks_vlc_exactly() {
        let mut enc = EntropyEncoder::new(EntropyBackend::Vlc);
        enc.put_uval(CtxClass::Run, 7); // ue(7) = 7 bits
        enc.put_flag(CtxClass::Flag, true);
        assert_eq!(enc.bits_written(), 8);
    }

    #[test]
    fn bits_written_estimates_arith_closely() {
        let mut enc = EntropyEncoder::new(EntropyBackend::Arith { shift: 4 });
        for i in 0..2000u64 {
            enc.put_uval(CtxClass::Level, i % 5);
        }
        let est = enc.bits_written() as f64;
        let actual = (enc.finish().len() * 8) as f64;
        // The flush adds ~4 bytes; allow 5% + flush slack.
        assert!((est - actual).abs() < actual * 0.05 + 48.0, "est {est} vs actual {actual}");
    }

    #[test]
    fn corrupt_run_is_detected() {
        // Encode a run that overflows the block by hand-crafting with VLC.
        let mut enc = EntropyEncoder::new(EntropyBackend::Vlc);
        enc.put_flag(CtxClass::CodedFlag, true);
        enc.put_uval(CtxClass::Run, 64); // run past end of an 8x8 block
        enc.put_uval(CtxClass::Level, 0);
        enc.put_raw(0, 1);
        enc.put_flag(CtxClass::LastFlag, true);
        let bytes = enc.finish();
        let mut dec = EntropyDecoder::new(EntropyBackend::Vlc, &bytes);
        assert!(dec.get_coeff_block(TransformSize::T8).is_err());
    }

    #[test]
    fn run_that_overflows_the_scan_index_is_an_error() {
        // The second run is the largest value the VLC syntax can carry;
        // added to a non-zero scan position it would wrap `usize`.
        let mut enc = EntropyEncoder::new(EntropyBackend::Vlc);
        enc.put_flag(CtxClass::CodedFlag, true);
        enc.put_uval(CtxClass::Run, 3);
        enc.put_uval(CtxClass::Level, 0);
        enc.put_raw(0, 1);
        enc.put_flag(CtxClass::LastFlag, false);
        enc.put_uval(CtxClass::Run, u64::MAX - 1);
        let bytes = enc.finish();
        let mut dec = EntropyDecoder::new(EntropyBackend::Vlc, &bytes);
        assert!(dec.get_coeff_block(TransformSize::T8).is_err());
    }
}
