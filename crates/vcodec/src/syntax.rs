//! The bitstream syntax: the one writer and the one validating reader of
//! the container header, the frame records and the superblock mode codes.
//!
//! A stream is a 22-byte header followed by one record per coded frame,
//! in coding order. Every multi-byte field is big-endian.
//!
//! | field | bytes | valid |
//! |---|---|---|
//! | magic | 4 | `VBCR` |
//! | version | 1 | 3 |
//! | family | 1 | 0 AVC, 1 HEVC, 2 VP9, 3 AV1 |
//! | entropy backend | 1 | 0 VLC, 1..=7 arithmetic (adaptation shift) |
//! | width, height | 2 + 2 | even, non-zero, at most 2^26 pixels |
//! | fps × 1000 | 4 | > 0 |
//! | frame count | 4 | > 0, at most stream length / 10 |
//! | gop | 2 | > 0 |
//! | flags | 1 | ≤ 1; bit 0 = in-loop deblocking |
//!
//! A frame record is its type (1 byte: 0 P, 1 I, 2 B), its quantizer
//! (1 byte, ≤ [`QP_MAX`]), its display index (4 bytes, below the frame
//! count and unique in the stream), its payload length (4 bytes) and the
//! payload. Each superblock of a payload opens with its mode code
//! ([`SbMode`]), whose value depends on the frame type.

use crate::bitio::BitReader;
use crate::decoder::DecodeError;
use crate::entropy::{CtxClass, EntropyBackend, EntropyDecoder, EntropyEncoder};
use crate::family::CodecFamily;
use crate::predict::IntraMode;
use crate::quant::QP_MAX;
use vframe::{Frame, Resolution};

/// Magic bytes opening every bitstream.
const MAGIC: &[u8; 4] = b"VBCR";
/// Bitstream format version.
const VERSION: u8 = 3;
/// Byte length of the stream header.
const HEADER_LEN: usize = 22;
/// Byte length of a frame record before its payload.
const RECORD_LEN: usize = 10;

/// Coded frame types.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FrameType {
    /// Intra-only key frame.
    Intra,
    /// Forward-predicted frame (a reference).
    Predicted,
    /// Bidirectionally predicted frame (not a reference).
    Bidirectional,
}

impl FrameType {
    fn code(self) -> u8 {
        match self {
            FrameType::Predicted => 0,
            FrameType::Intra => 1,
            FrameType::Bidirectional => 2,
        }
    }

    fn from_code(code: u8) -> Option<FrameType> {
        match code {
            0 => Some(FrameType::Predicted),
            1 => Some(FrameType::Intra),
            2 => Some(FrameType::Bidirectional),
            _ => None,
        }
    }
}

/// The reconstructions later frames read: the newest I/P frames in coding
/// order, each with its display index. The encoder and the decoder each
/// keep one, so both read every frame's references from the same window.
pub(crate) struct Recons {
    /// Whether the older reference stays: only a B frame reads it.
    keep_older: bool,
    older: Option<(usize, Frame)>,
    newest: Option<(usize, Frame)>,
}

impl Recons {
    pub(crate) fn new(keep_older: bool) -> Recons {
        Recons { keep_older, older: None, newest: None }
    }

    /// The forward and backward references of a frame of type `ftype`:
    /// none for I, the newest I/P frame for P, and the older then the
    /// newest for B.
    pub(crate) fn refs(&self, ftype: FrameType) -> (Option<&Frame>, Option<&Frame>) {
        fn frame(slot: &Option<(usize, Frame)>) -> Option<&Frame> {
            slot.as_ref().map(|(_, f)| f)
        }
        match ftype {
            FrameType::Intra => (None, None),
            FrameType::Predicted => (frame(&self.newest), None),
            FrameType::Bidirectional => (frame(&self.older), frame(&self.newest)),
        }
    }

    /// Files the reconstruction of a frame of type `ftype` shown at
    /// `display` and returns the frame that leaves the window: an I/P
    /// frame becomes the newest reference, and a B frame, which no frame
    /// reads, leaves at once.
    pub(crate) fn push(
        &mut self,
        ftype: FrameType,
        display: usize,
        frame: Frame,
    ) -> Option<(usize, Frame)> {
        if ftype == FrameType::Bidirectional {
            return Some((display, frame));
        }
        let demoted = self.newest.replace((display, frame));
        if self.keep_older {
            std::mem::replace(&mut self.older, demoted)
        } else {
            demoted
        }
    }

    /// How many references the window holds.
    pub(crate) fn len(&self) -> usize {
        usize::from(self.older.is_some()) + usize::from(self.newest.is_some())
    }

    /// Empties the window, older reference first.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = (usize, Frame)> {
        self.older.take().into_iter().chain(self.newest.take())
    }
}

/// Stream-level metadata: the container header.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct StreamInfo {
    /// Codec family that produced the stream.
    pub family: CodecFamily,
    /// Entropy backend in use.
    pub backend: EntropyBackend,
    /// Picture size.
    pub resolution: Resolution,
    /// Frame rate.
    pub fps: f64,
    /// Number of coded frames.
    pub frames: u32,
    /// Keyframe interval.
    pub gop: u16,
    /// Whether the stream was coded with the in-loop deblocking filter.
    pub deblock: bool,
}

/// Appends the header describing `info` to `out`.
///
/// # Panics
///
/// Panics if the picture size or `info.fps × 1000` does not fit its
/// field.
pub fn write_header(out: &mut Vec<u8>, info: &StreamInfo) {
    let family: u8 = match info.family {
        CodecFamily::Avc => 0,
        CodecFamily::Hevc => 1,
        CodecFamily::Vp9 => 2,
        CodecFamily::Av1 => 3,
    };
    let backend = match info.backend {
        EntropyBackend::Vlc => 0,
        EntropyBackend::Arith { shift } => shift,
    };
    let dim = |d: u32| u16::try_from(d).expect("picture size fits the header").to_be_bytes();
    let millis = u32::try_from((info.fps * 1000.0).round() as u64).expect("frame rate fits");
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&[VERSION, family, backend]);
    out.extend_from_slice(&dim(info.resolution.width()));
    out.extend_from_slice(&dim(info.resolution.height()));
    out.extend_from_slice(&millis.to_be_bytes());
    out.extend_from_slice(&info.frames.to_be_bytes());
    out.extend_from_slice(&info.gop.to_be_bytes());
    out.push(u8::from(info.deblock));
}

/// Parses and validates the container header.
///
/// # Errors
///
/// Returns a [`DecodeError`] if the header is short or a field is out of
/// its range (see the module table).
pub fn probe_stream(bytes: &[u8]) -> Result<StreamInfo, DecodeError> {
    let mut r = BitReader::new(bytes);
    if r.get_bytes(4)? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = r.get_bits(8)? as u8;
    if version != VERSION {
        return Err(DecodeError::UnsupportedVersion(version));
    }
    let family = match r.get_bits(8)? {
        0 => CodecFamily::Avc,
        1 => CodecFamily::Hevc,
        2 => CodecFamily::Vp9,
        3 => CodecFamily::Av1,
        _ => return Err(DecodeError::InvalidHeader("family")),
    };
    let backend = match r.get_bits(8)? {
        0 => EntropyBackend::Vlc,
        shift @ 1..=7 => EntropyBackend::Arith { shift: shift as u8 },
        _ => return Err(DecodeError::InvalidHeader("entropy backend")),
    };
    let width = r.get_bits(16)? as u32;
    let height = r.get_bits(16)? as u32;
    if width == 0 || height == 0 || !width.is_multiple_of(2) || !height.is_multiple_of(2) {
        return Err(DecodeError::InvalidHeader("resolution"));
    }
    // Allocation guard: a hostile header may declare any 16-bit
    // dimensions, and the decoder allocates full planes before reading a
    // single payload byte. 2^26 pixels (~67M) comfortably covers 8K.
    if u64::from(width) * u64::from(height) > 1 << 26 {
        return Err(DecodeError::InvalidHeader("resolution"));
    }
    let fps = r.get_bits(32)? as f64 / 1000.0;
    if fps <= 0.0 {
        return Err(DecodeError::InvalidHeader("frame rate"));
    }
    let frames = r.get_bits(32)? as u32;
    if frames == 0 {
        return Err(DecodeError::InvalidHeader("frame count"));
    }
    // Allocation guard: every coded frame costs at least a record's
    // fixed bytes, so a declared count the stream cannot physically hold
    // is a lie — reject it before a reader sizes a table from it.
    if u64::from(frames) * RECORD_LEN as u64 > bytes.len() as u64 {
        return Err(DecodeError::InvalidHeader("frame count"));
    }
    let gop = r.get_bits(16)? as u16;
    if gop == 0 {
        return Err(DecodeError::InvalidHeader("gop"));
    }
    let flags = r.get_bits(8)?;
    if flags > 1 {
        return Err(DecodeError::InvalidHeader("flags"));
    }
    Ok(StreamInfo {
        family,
        backend,
        resolution: Resolution::new(width, height),
        fps,
        frames,
        gop,
        deblock: flags == 1,
    })
}

/// One frame record of a stream.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Record<'a> {
    /// The frame's type.
    pub ftype: FrameType,
    /// The frame's quantizer.
    pub qp: u8,
    /// The frame's display index.
    pub display: u32,
    /// Byte offset of the record in the stream.
    pub offset: usize,
    /// The entropy-coded superblocks.
    pub payload: &'a [u8],
}

impl Record<'_> {
    /// Bytes the record takes in the stream, payload included.
    pub fn encoded_len(&self) -> usize {
        RECORD_LEN + self.payload.len()
    }
}

/// Appends one frame record to `out`.
///
/// # Panics
///
/// Panics if the payload is 4 GiB or longer.
pub fn write_record(out: &mut Vec<u8>, ftype: FrameType, qp: u8, display: u32, payload: &[u8]) {
    let len = u32::try_from(payload.len()).expect("payload length fits the record");
    out.extend_from_slice(&[ftype.code(), qp]);
    out.extend_from_slice(&display.to_be_bytes());
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(payload);
}

/// Walks the `info.frames` records that follow the header of `bytes`
/// (`info` is what [`probe_stream`] returned for them), in coding order,
/// without decoding any payload.
///
/// # Errors
///
/// Returns [`DecodeError::Corrupt`] if a record runs past the end of the
/// stream and [`DecodeError::InvalidHeader`] for an unknown frame type, a
/// quantizer above [`QP_MAX`], or a display index that is out of range
/// or repeated.
pub fn records<'a>(bytes: &'a [u8], info: &StreamInfo) -> Result<Vec<Record<'a>>, DecodeError> {
    let frames = info.frames as usize;
    let mut seen = vec![false; frames];
    let mut out = Vec::with_capacity(frames);
    let mut r = BitReader::new(bytes);
    r.get_bytes(HEADER_LEN)?;
    for _ in 0..frames {
        let offset = (r.bit_pos() / 8) as usize;
        let ftype = FrameType::from_code(r.get_bits(8)? as u8)
            .ok_or(DecodeError::InvalidHeader("frame type"))?;
        let qp = r.get_bits(8)? as u8;
        if qp > QP_MAX {
            return Err(DecodeError::InvalidHeader("frame qp"));
        }
        let display = r.get_bits(32)? as u32;
        match seen.get_mut(display as usize) {
            Some(seen @ false) => *seen = true,
            _ => return Err(DecodeError::InvalidHeader("display index")),
        }
        let len = r.get_bits(32)? as usize;
        let payload = r.get_bytes(len)?;
        out.push(Record { ftype, qp, display, offset, payload });
    }
    Ok(out)
}

/// How one superblock is coded: the first symbol of every superblock.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SbMode {
    /// P and B: forward prediction at the predicted vector, no residual.
    Skip,
    /// P and B: forward prediction with a coded vector and residual.
    Forward,
    /// P: a base vector plus one vector per quadrant.
    Split,
    /// B: backward prediction with a coded vector and residual.
    Backward,
    /// B: the average of a forward and a backward prediction.
    Bi,
    /// One intra mode for the whole superblock.
    Intra(IntraMode),
    /// I and P: one intra mode per quadrant.
    IntraSplit,
}

impl SbMode {
    /// The mode's code in a frame of type `frame`, or `None` if that
    /// frame type cannot carry it:
    ///
    /// | frame | skip | forward | split | backward | bi | intra(m) | intra split |
    /// |---|---|---|---|---|---|---|---|
    /// | I | – | – | – | – | – | m | 4 |
    /// | P | 0 | 1 | 2 | – | – | 3+m | 7 |
    /// | B | 0 | 1 | – | 2 | 3 | 4+m | – |
    fn code(self, frame: FrameType) -> Option<u64> {
        use FrameType::{Bidirectional as B, Intra as I, Predicted as P};
        Some(match (frame, self) {
            (P | B, SbMode::Skip) => 0,
            (P | B, SbMode::Forward) => 1,
            (P, SbMode::Split) | (B, SbMode::Backward) => 2,
            (B, SbMode::Bi) => 3,
            (I, SbMode::IntraSplit) => 4,
            (P, SbMode::IntraSplit) => 7,
            (_, SbMode::Intra(m)) => intra_base(frame) + u64::from(m.to_id()),
            _ => return None,
        })
    }

    /// Inverse of [`SbMode::code`].
    fn from_code(frame: FrameType, code: u64) -> Option<SbMode> {
        use FrameType::{Bidirectional as B, Intra as I, Predicted as P};
        Some(match (frame, code) {
            (P | B, 0) => SbMode::Skip,
            (P | B, 1) => SbMode::Forward,
            (P, 2) => SbMode::Split,
            (B, 2) => SbMode::Backward,
            (B, 3) => SbMode::Bi,
            (I, 4) | (P, 7) => SbMode::IntraSplit,
            _ => {
                let id = code.checked_sub(intra_base(frame))?;
                SbMode::Intra(IntraMode::from_id(u8::try_from(id).ok()?)?)
            }
        })
    }
}

/// Code of intra mode 0 in a frame of type `frame`.
fn intra_base(frame: FrameType) -> u64 {
    match frame {
        FrameType::Intra => 0,
        FrameType::Predicted => 3,
        FrameType::Bidirectional => 4,
    }
}

/// Writes a superblock's mode code.
///
/// # Panics
///
/// Panics if a frame of type `frame` cannot carry `mode`.
pub fn put_sb_mode(enc: &mut EntropyEncoder, frame: FrameType, mode: SbMode) {
    let code = mode.code(frame).expect("superblock mode is legal in its frame type");
    enc.put_uval(CtxClass::Mode, code);
}

/// Reads a superblock's mode code.
///
/// # Errors
///
/// Returns [`DecodeError::Corrupt`] for a code a frame of type `frame`
/// does not define.
pub fn get_sb_mode(dec: &mut EntropyDecoder<'_>, frame: FrameType) -> Result<SbMode, DecodeError> {
    let code = dec.get_uval(CtxClass::Mode)?;
    SbMode::from_code(frame, code).ok_or(DecodeError::Corrupt)
}

/// Writes the intra mode of one quadrant of an [`SbMode::IntraSplit`]
/// superblock.
pub fn put_quadrant_mode(enc: &mut EntropyEncoder, mode: IntraMode) {
    enc.put_uval(CtxClass::Mode, u64::from(mode.to_id()));
}

/// Reads the intra mode of one quadrant of an [`SbMode::IntraSplit`]
/// superblock.
///
/// # Errors
///
/// Returns [`DecodeError::Corrupt`] for an unknown mode.
pub fn get_quadrant_mode(dec: &mut EntropyDecoder<'_>) -> Result<IntraMode, DecodeError> {
    let id = dec.get_uval(CtxClass::Mode)?;
    u8::try_from(id).ok().and_then(IntraMode::from_id).ok_or(DecodeError::Corrupt)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FRAMES: [FrameType; 3] =
        [FrameType::Intra, FrameType::Predicted, FrameType::Bidirectional];

    fn every_mode() -> Vec<SbMode> {
        let intra = [IntraMode::Dc, IntraMode::Horizontal, IntraMode::Vertical, IntraMode::Planar];
        [SbMode::Skip, SbMode::Forward, SbMode::Split, SbMode::Backward, SbMode::Bi]
            .into_iter()
            .chain(intra.map(SbMode::Intra))
            .chain([SbMode::IntraSplit])
            .collect()
    }

    #[test]
    fn frame_type_codes_roundtrip() {
        for t in FRAMES {
            assert_eq!(FrameType::from_code(t.code()), Some(t));
        }
        assert_eq!(FrameType::from_code(9), None);
    }

    /// The mode table, column by column: skip, forward, split, backward,
    /// bi, intra DC/H/V/planar, intra split; -1 where the frame type
    /// cannot carry the mode.
    #[test]
    fn mode_codes_match_the_table() {
        let table = [
            (FrameType::Intra, [-1, -1, -1, -1, -1, 0, 1, 2, 3, 4]),
            (FrameType::Predicted, [0, 1, 2, -1, -1, 3, 4, 5, 6, 7]),
            (FrameType::Bidirectional, [0, 1, -1, 2, 3, 4, 5, 6, 7, -1]),
        ];
        for (frame, codes) in table {
            let got: Vec<i64> =
                every_mode().iter().map(|m| m.code(frame).map_or(-1, |c| c as i64)).collect();
            assert_eq!(got, codes, "{frame:?}");
        }
    }

    #[test]
    fn every_code_decodes_to_the_mode_that_writes_it() {
        for frame in FRAMES {
            for code in 0..16 {
                match SbMode::from_code(frame, code) {
                    Some(mode) => assert_eq!(mode.code(frame), Some(code), "{frame:?} {code}"),
                    None => assert!(
                        every_mode().iter().all(|m| m.code(frame) != Some(code)),
                        "{frame:?} {code} is written but not read"
                    ),
                }
            }
        }
    }

    /// The reference rule per frame type, and which frame each `push`
    /// releases, with and without the older reference kept. Frames are
    /// told apart by their luma.
    #[test]
    fn recons_reads_by_frame_type_and_releases_the_oldest() {
        use FrameType::{Bidirectional as B, Intra as I, Predicted as P};
        let frame = |y: u8| Frame::filled(Resolution::new(16, 16), y, 128, 128);
        let luma = |f: Option<&Frame>| f.map(|f| f.y().get(0, 0));
        let refs = |w: &Recons, t: FrameType| {
            let (fwd, bwd) = w.refs(t);
            (luma(fwd), luma(bwd))
        };
        let left = |l: Option<(usize, Frame)>| l.map(|(d, f)| (d, f.y().get(0, 0)));
        for keep_older in [false, true] {
            let mut w = Recons::new(keep_older);
            assert!(FRAMES.iter().all(|&t| refs(&w, t) == (None, None)));
            assert_eq!(left(w.push(I, 0, frame(10))), None);
            let first = left(w.push(P, 2, frame(20)));
            assert_eq!(first, (!keep_older).then_some((0, 10)), "keep_older {keep_older}");
            assert_eq!(w.len(), 1 + usize::from(keep_older));
            assert_eq!(refs(&w, I), (None, None));
            assert_eq!(refs(&w, P), (Some(20), None));
            assert_eq!(refs(&w, B), (keep_older.then_some(10), Some(20)));
            // A B frame is no reference: it leaves at once, the window as
            // it was.
            assert_eq!(left(w.push(B, 1, frame(15))), Some((1, 15)));
            assert_eq!(refs(&w, B), (keep_older.then_some(10), Some(20)));
            let oldest = if keep_older { (0, 10) } else { (2, 20) };
            assert_eq!(left(w.push(P, 4, frame(40))), Some(oldest));
            assert_eq!(refs(&w, B), (keep_older.then_some(20), Some(40)));
            let rest: Vec<_> = w.drain().map(|(d, f)| (d, f.y().get(0, 0))).collect();
            assert_eq!(rest, if keep_older { vec![(2, 20), (4, 40)] } else { vec![(4, 40)] });
            assert!(FRAMES.iter().all(|&t| refs(&w, t) == (None, None)) && w.len() == 0);
        }
    }

    #[test]
    fn header_roundtrips_through_the_writer() {
        let info = StreamInfo {
            family: CodecFamily::Vp9,
            backend: EntropyBackend::Arith { shift: 5 },
            resolution: Resolution::new(72, 44),
            fps: 29.97,
            frames: 3,
            gop: 60,
            deblock: false,
        };
        let mut bytes = Vec::new();
        write_header(&mut bytes, &info);
        assert_eq!(bytes.len(), HEADER_LEN);
        for (i, display) in [0u32, 2, 1].into_iter().enumerate() {
            write_record(&mut bytes, FrameType::Intra, i as u8, display, &[7; 3]);
        }
        assert_eq!(probe_stream(&bytes), Ok(info));
        let recs = records(&bytes, &info).unwrap();
        let offsets: Vec<usize> = recs.iter().map(|r| r.offset).collect();
        assert_eq!(offsets, [HEADER_LEN, HEADER_LEN + 13, HEADER_LEN + 26]);
        assert!(recs.iter().all(|r| r.encoded_len() == 13 && r.payload == [7; 3]));
        assert_eq!(records(&bytes[..bytes.len() - 1], &info), Err(DecodeError::Corrupt));
    }
}
