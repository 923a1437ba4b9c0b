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
use crate::tile::Tile;
use crate::transform::{zigzag, TransformSize};
use std::sync::OnceLock;

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

/// The arithmetic backend's encoder half: the coder, its context banks
/// and the information cost of every bin coded so far.
struct ArithSink {
    enc: ArithEncoder,
    bank: ContextBank,
    est_bits: f64,
}

impl ArithSink {
    fn flag(&mut self, class: CtxClass, bit: bool) {
        let ctx = self.bank.at(class, 0);
        self.est_bits += bin_cost(ctx.prob(), bit);
        self.enc.encode(ctx, bit);
    }

    /// Truncated unary under `class`'s contexts, then a bypass
    /// Exp-Golomb escape for the remainder past [`TU_MAX`].
    fn uval(&mut self, class: CtxClass, v: u64) {
        let prefix = v.min(TU_MAX);
        for i in 0..prefix {
            let ctx = self.bank.at(class, i as usize);
            self.est_bits += bin_cost(ctx.prob(), true);
            self.enc.encode(ctx, true);
        }
        if prefix < TU_MAX {
            let ctx = self.bank.at(class, prefix as usize);
            self.est_bits += bin_cost(ctx.prob(), false);
            self.enc.encode(ctx, false);
        } else {
            let rem = v - TU_MAX;
            self.est_bits += f64::from(golomb::ue_bits(rem));
            encode_bypass_golomb(&mut self.enc, rem);
        }
    }

    fn raw(&mut self, v: u64, count: u32) {
        self.est_bits += f64::from(count);
        self.enc.encode_bypass(v, count);
    }
}

enum EncInner {
    Vlc(BitWriter),
    Arith(ArithSink),
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
}

impl std::fmt::Debug for EntropyEncoder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EntropyEncoder").field("bits_written", &self.bits_written()).finish()
    }
}

impl EntropyEncoder {
    /// Creates an encoder for the given backend.
    pub fn new(backend: EntropyBackend) -> EntropyEncoder {
        let inner = match backend {
            EntropyBackend::Vlc => EncInner::Vlc(BitWriter::new()),
            EntropyBackend::Arith { shift } => EncInner::Arith(ArithSink {
                enc: ArithEncoder::new(),
                bank: ContextBank::new(shift),
                est_bits: 0.0,
            }),
        };
        EntropyEncoder { inner }
    }

    /// Codes a single flag under `class`'s first context.
    pub fn put_flag(&mut self, class: CtxClass, bit: bool) {
        match &mut self.inner {
            EncInner::Vlc(w) => w.put_bit(bit),
            EncInner::Arith(a) => a.flag(class, bit),
        }
    }

    /// Codes an unsigned value: Exp-Golomb in the VLC backend; truncated
    /// unary (contexts) + bypass Exp-Golomb escape in the arithmetic one.
    ///
    /// # Panics
    ///
    /// Panics if `v == u64::MAX`, which no decoder can read back (see
    /// [`golomb::write_ue`]).
    pub fn put_uval(&mut self, class: CtxClass, v: u64) {
        match &mut self.inner {
            EncInner::Vlc(w) => golomb::write_ue(w, v),
            EncInner::Arith(a) => {
                assert!(v < u64::MAX, "{v} is outside the Exp-Golomb domain (at most 2^64 - 2)");
                a.uval(class, v);
            }
        }
    }

    /// Codes a signed value using the `0, 1, -1, 2, -2…` mapping.
    ///
    /// # Panics
    ///
    /// Panics if `v == i64::MIN` (see [`golomb::write_se`]).
    pub fn put_sval(&mut self, class: CtxClass, v: i64) {
        self.put_uval(class, golomb::se_to_ue(v));
    }

    /// Codes one quantized coefficient block (zig-zag, run/level/sign with a
    /// last-coefficient flag), preceded by a coded-block flag.
    ///
    /// # Panics
    ///
    /// Panics if `levels.len() != size.area()`.
    pub fn put_coeff_block(&mut self, size: TransformSize, levels: &[i32]) {
        assert_eq!(levels.len(), size.area(), "level count must match block size");
        let coded = levels.iter().filter(|&&l| l != 0).count();
        self.put_levels(zigzag(size), levels, coded);
    }

    /// [`EntropyEncoder::put_coeff_block`] of one 8×8 tile whose `nonzero`
    /// levels the caller counted when it quantized them.
    pub(crate) fn put_tile(&mut self, levels: &Tile, nonzero: usize) {
        debug_assert_eq!(nonzero, levels.iter().filter(|&&l| l != 0).count());
        self.put_levels(zigzag(TransformSize::T8), levels, nonzero);
    }

    /// The coefficient syntax, with the backend chosen once per block.
    fn put_levels(&mut self, scan: &[usize], levels: &[i32], coded: usize) {
        match &mut self.inner {
            EncInner::Vlc(w) => {
                w.put_bit(coded > 0);
                for_each_coded(scan, levels, coded, |run, level, last| {
                    put_coeff_vlc(w, run, level, last);
                });
            }
            EncInner::Arith(a) => {
                a.flag(CtxClass::CodedFlag, coded > 0);
                for_each_coded(scan, levels, coded, |run, level, last| {
                    a.uval(CtxClass::Run, run);
                    a.uval(CtxClass::Level, (level.unsigned_abs() - 1).into());
                    a.raw(u64::from(level < 0), 1);
                    a.flag(CtxClass::LastFlag, last);
                });
            }
        }
    }

    /// Bits emitted so far: exact for VLC, which counts what its writer
    /// holds; the arithmetic backend's estimate is the
    /// information-theoretic cost under its context models, accurate to a
    /// fraction of a percent. Drives rate control and RDO bit costs.
    pub fn bits_written(&self) -> u64 {
        match &self.inner {
            EncInner::Vlc(w) => w.bit_len(),
            EncInner::Arith(a) => a.est_bits.ceil() as u64,
        }
    }

    /// Flushes the backend and returns the payload bytes.
    pub fn finish(self) -> Vec<u8> {
        match self.inner {
            EncInner::Vlc(w) => w.finish(),
            EncInner::Arith(a) => a.enc.finish(),
        }
    }
}

/// Calls `code(run, level, last)` for each of the first `coded` nonzero
/// levels in `scan` order: the zeros since the previous one, the level,
/// and whether it is the last.
#[inline(always)]
fn for_each_coded(
    scan: &[usize],
    levels: &[i32],
    coded: usize,
    mut code: impl FnMut(u64, i32, bool),
) {
    let (mut remaining, mut run) = (coded, 0u64);
    for &pos in scan {
        if remaining == 0 {
            break;
        }
        let level = levels[pos];
        if level == 0 {
            run += 1;
            continue;
        }
        remaining -= 1;
        code(run, level, remaining == 0);
        run = 0;
    }
}

/// One coefficient in the VLC syntax — `ue(run)`, `ue(|level| − 1)`, the
/// sign bit, the last flag — as one field when the four fit a word.
/// `ue(v)` is `v + 1` in `2·w − 1` bits, `w` the width of `v + 1`, so
/// the field is the four values shifted together.
#[inline(always)]
fn put_coeff_vlc(w: &mut BitWriter, run: u64, level: i32, last: bool) {
    let (r, m) = (run + 1, u64::from(level.unsigned_abs()));
    let code_len = |v: u64| 2 * (64 - v.leading_zeros()) - 1;
    let (rlen, mlen) = (code_len(r), code_len(m));
    let tail = u64::from(level < 0) << 1 | u64::from(last);
    if rlen + mlen + 2 <= 64 {
        w.put_bits((r << mlen | m) << 2 | tail, rlen + mlen + 2);
    } else {
        // Only a magnitude of 2^25 or more gets here.
        golomb::write_ue(w, run);
        golomb::write_ue(w, m - 1);
        w.put_bits(tail, 2);
    }
}

/// Information cost in bits of coding `bit` with probability-of-zero `prob`.
fn bin_cost(prob: u8, bit: bool) -> f64 {
    // One `log2` per (bit, probability) per process, not one per
    // estimated bin.
    static COSTS: OnceLock<[[f64; 256]; 2]> = OnceLock::new();
    COSTS.get_or_init(|| {
        std::array::from_fn(|bit| {
            std::array::from_fn(|prob| {
                let p0 = prob as f64 / 256.0;
                let p = if bit == 1 { 1.0 - p0 } else { p0 };
                -p.max(1e-6).log2()
            })
        })
    })[usize::from(bit)][usize::from(prob)]
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
                    // A hostile escape can carry up to 2^64 − 2; past the
                    // unsigned domain the sum is no value an encoder wrote.
                    let rem = decode_bypass_golomb(dec)?;
                    TU_MAX.checked_add(rem).filter(|&v| v < u64::MAX).ok_or(ReadBitsError)
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
    /// `size.area()` levels, every entry written; returns how many are
    /// nonzero. Each coded level is nonzero and lands past the previous
    /// one in scan order, so that is the number coded.
    pub(crate) fn get_coeff_block_into(
        &mut self,
        size: TransformSize,
        levels: &mut [i32],
    ) -> Result<usize, ReadBitsError> {
        assert_eq!(levels.len(), size.area(), "level count must match block size");
        let scan = zigzag(size);
        levels.fill(0);
        if !self.get_flag(CtxClass::CodedFlag)? {
            return Ok(0);
        }
        let (mut si, mut coded) = (0usize, 0usize);
        loop {
            // A hostile run can be anything up to 2^64 - 2.
            let run = usize::try_from(self.get_uval(CtxClass::Run)?).map_err(|_| ReadBitsError)?;
            si = si.checked_add(run).filter(|&si| si < scan.len()).ok_or(ReadBitsError)?;
            let mag = self.get_uval(CtxClass::Level)? + 1;
            let mag = i32::try_from(mag).map_err(|_| ReadBitsError)?;
            let neg = self.get_raw(1)? == 1;
            levels[scan[si]] = if neg { -mag } else { mag };
            si += 1;
            coded += 1;
            if self.get_flag(CtxClass::LastFlag)? {
                return Ok(coded);
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
impl EntropyEncoder {
    /// Codes `count` raw bits with no modelling (bypass / plain bits):
    /// the per-element oracle's sign bits, in the tests.
    pub fn put_raw(&mut self, v: u64, count: u32) {
        match &mut self.inner {
            EncInner::Vlc(w) => w.put_bits(v, count),
            EncInner::Arith(a) => a.raw(v, count),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
            let bytes = enc.finish();
            let mut dec = EntropyDecoder::new(backend, &bytes);
            assert_eq!(dec.get_coeff_block(TransformSize::T8).unwrap(), sample_block());
            assert_eq!(dec.get_coeff_block(TransformSize::T8).unwrap(), vec![0i32; 64]);
        }
    }

    /// Oracle: the coefficient syntax one element at a time through the
    /// public calls, as `put_coeff_block` coded it before it chose the
    /// backend once per block.
    fn put_coeff_block_per_element(enc: &mut EntropyEncoder, levels: &[i32]) {
        let coded = levels.iter().filter(|&&l| l != 0).count();
        enc.put_flag(CtxClass::CodedFlag, coded > 0);
        let (mut prev, mut remaining) = (0usize, coded);
        for (si, &pos) in zigzag(TransformSize::T8).iter().enumerate() {
            if remaining == 0 {
                break;
            }
            let level = levels[pos];
            if level == 0 {
                continue;
            }
            remaining -= 1;
            enc.put_uval(CtxClass::Run, (si - prev) as u64);
            prev = si + 1;
            enc.put_uval(CtxClass::Level, (level.unsigned_abs() - 1).into());
            enc.put_raw(u64::from(level < 0), 1);
            enc.put_flag(CtxClass::LastFlag, remaining == 0);
        }
    }

    proptest! {
        // Sparse, medium and dense 8×8 blocks, their levels mostly
        // small, some up to 3 000 and some of any `i32` magnitude (from
        // 2^25 up, a coefficient's fused VLC field passes 64 bits). The
        // bit counts agree after every block and the bytes at the end, so
        // every prefix of the stream agrees too.
        #[test]
        fn coeff_blocks_equal_the_per_element_syntax(
            blocks in prop::collection::vec(
                (0usize..3, prop::collection::vec((any::<i32>(), 0u8..16), 64)),
                1..12,
            ),
        ) {
            let blocks: Vec<Vec<i32>> = blocks
                .into_iter()
                .map(|(density, entries)| {
                    let keep = [1, 4, 16][density];
                    entries
                        .iter()
                        .map(|&(v, kind)| match kind {
                            k if k >= keep => 0,
                            k if k % 4 < 2 => v % 4,
                            k if k % 4 == 2 => v % 3_000,
                            _ => v,
                        })
                        .collect()
                })
                .collect();
            for backend in BACKENDS {
                let (mut got, mut want) = (EntropyEncoder::new(backend), EntropyEncoder::new(backend));
                for levels in &blocks {
                    got.put_coeff_block(TransformSize::T8, levels);
                    put_coeff_block_per_element(&mut want, levels);
                    prop_assert_eq!(got.bits_written(), want.bits_written(), "{:?}", backend);
                }
                prop_assert_eq!(got.finish(), want.finish(), "{:?}", backend);
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside the Exp-Golomb domain")]
    fn vlc_put_uval_rejects_the_value_past_its_domain() {
        EntropyEncoder::new(EntropyBackend::Vlc).put_uval(CtxClass::Run, u64::MAX);
    }

    #[test]
    #[should_panic(expected = "outside the Exp-Golomb domain")]
    fn arith_put_uval_rejects_the_value_past_its_domain() {
        EntropyEncoder::new(EntropyBackend::Arith { shift: 4 }).put_uval(CtxClass::Run, u64::MAX);
    }

    #[test]
    #[should_panic(expected = "outside the signed Exp-Golomb domain")]
    fn vlc_put_sval_rejects_the_value_past_its_domain() {
        EntropyEncoder::new(EntropyBackend::Vlc).put_sval(CtxClass::MvX, i64::MIN);
    }

    #[test]
    #[should_panic(expected = "outside the signed Exp-Golomb domain")]
    fn arith_put_sval_rejects_the_value_past_its_domain() {
        EntropyEncoder::new(EntropyBackend::Arith { shift: 4 }).put_sval(CtxClass::MvX, i64::MIN);
    }

    #[test]
    fn arith_escapes_past_the_unsigned_domain_are_errors() {
        // The bins `put_uval` codes for a value past `TU_MAX`, written by
        // hand so the escape can carry what no encoder writes: a bypass
        // Exp-Golomb remainder `rem` of 64 significant bits.
        let escape = |rem: u64| {
            let mut enc = ArithEncoder::new();
            let mut ctxs = [Context::new(4); CTX_PER_CLASS];
            for i in 0..TU_MAX as usize {
                enc.encode(&mut ctxs[i.min(CTX_PER_CLASS - 1)], true);
            }
            enc.encode_bypass(0, 63);
            enc.encode_bypass(rem.wrapping_add(1), 64);
            enc.finish()
        };
        let get = |bytes: &[u8]| {
            EntropyDecoder::new(EntropyBackend::Arith { shift: 4 }, bytes).get_uval(CtxClass::Run)
        };
        assert_eq!(get(&escape(u64::MAX - 1 - TU_MAX)), Ok(u64::MAX - 1));
        assert_eq!(get(&escape(u64::MAX - TU_MAX)), Err(ReadBitsError));
        assert_eq!(get(&escape(u64::MAX - 1)), Err(ReadBitsError));
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
