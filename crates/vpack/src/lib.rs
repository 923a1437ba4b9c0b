//! Bitstream packaging for the vbench reproduction.
//!
//! A video-on-demand service does not serve one monolithic bitstream: it
//! splits each transcode into independently decodable segments that a CDN
//! can cache and a player can fetch adaptively (Section 2.5 of the paper
//! describes the CDN-replicated serving path). This crate provides the
//! packaging layer on top of `vcodec`'s container, which it reads and
//! writes through `vcodec::syntax`, the decoder's own reader, so the
//! packager accepts exactly the frame records the decoder does:
//!
//! * [`index`] — a seek index over a stream (per-frame byte ranges, key
//!   flags) without decoding any payload;
//! * [`segment_at_keyframes`] — split a stream into one segment per GOP,
//!   each a complete, independently decodable bitstream;
//! * [`concatenate`] — reassemble segments into a single stream;
//! * [`crc32`] — the per-segment integrity checksum.
//!
//! # Example
//!
//! ```
//! use vcodec::{encode, CodecFamily, EncoderConfig, Preset, RateControl};
//! use vframe::color::{frame_from_fn, Yuv};
//! use vframe::{Resolution, Video};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let frames = (0..6)
//!     .map(|t| {
//!         frame_from_fn(Resolution::new(32, 32), |x, y| {
//!             Yuv::new(((x + t) * 9 + y) as u8, 128, 128)
//!         })
//!     })
//!     .collect();
//! let video = Video::new(frames, 30.0);
//! let cfg = EncoderConfig::new(
//!     CodecFamily::Avc,
//!     Preset::Fast,
//!     RateControl::ConstQuality { crf: 30.0 },
//! )
//! .with_gop(3);
//! let stream = encode(&video, &cfg).bytes;
//!
//! let segments = vpack::segment_at_keyframes(&stream)?;
//! assert_eq!(segments.len(), 2); // 6 frames, GOP 3
//! // Every segment decodes on its own.
//! for seg in &segments {
//!     let v = vcodec::decode(&seg.bytes)?;
//!     assert_eq!(v.len(), seg.frames as usize);
//! }
//! // And reassembly reproduces the original stream's content.
//! let whole = vpack::concatenate(&segments)?;
//! assert_eq!(vcodec::decode(&whole)?.len(), 6);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// One `unsafe` block in the workspace: the CPU-feature dispatch in
// `crc32`, allowed where it stands.
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

mod crc;

pub use crc::crc32;

use vcodec::syntax::{self, FrameType, Record};
use vcodec::{probe_stream, DecodeError, StreamInfo};

/// Errors from packaging operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PackError {
    /// The input stream failed to parse.
    BadStream(DecodeError),
    /// The stream's frame framing is inconsistent with its header.
    Truncated,
    /// Segments cannot be combined (mismatched headers / no segments).
    Incompatible,
    /// A segment failed its integrity check.
    IntegrityFailure {
        /// Index of the failing segment.
        segment: usize,
    },
}

impl std::fmt::Display for PackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackError::BadStream(e) => write!(f, "unparseable stream: {e}"),
            PackError::Truncated => write!(f, "stream ends mid-frame"),
            PackError::Incompatible => write!(f, "segments are not from compatible streams"),
            PackError::IntegrityFailure { segment } => {
                write!(f, "segment {segment} failed its CRC check")
            }
        }
    }
}

impl std::error::Error for PackError {}

impl From<DecodeError> for PackError {
    fn from(e: DecodeError) -> PackError {
        PackError::BadStream(e)
    }
}

/// One frame's location inside a stream (coding order).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FrameEntry {
    /// Byte offset of the frame record (including its header).
    pub offset: usize,
    /// Total byte length of the record (header + payload).
    pub len: usize,
    /// Display index of the frame.
    pub display: u32,
    /// Whether this is an intra (key) frame — a valid seek point.
    pub intra: bool,
    /// The frame's quantizer.
    pub qp: u8,
}

/// The header and the validated frame records of `stream`, through
/// `vcodec::syntax`, the decoder's own reader.
fn parse(stream: &[u8]) -> Result<(StreamInfo, Vec<Record<'_>>), PackError> {
    let info = probe_stream(stream)?;
    let records = syntax::records(stream, &info).map_err(|e| match e {
        DecodeError::Corrupt => PackError::Truncated,
        e => PackError::BadStream(e),
    })?;
    Ok((info, records))
}

/// Builds a seek index over a stream without touching any payload bytes.
///
/// # Errors
///
/// Returns [`PackError`] if the stream header or a frame record is
/// invalid — exactly the records [`vcodec::decode`] rejects before
/// decoding — or the framing runs past the end of the buffer.
pub fn index(stream: &[u8]) -> Result<Vec<FrameEntry>, PackError> {
    let (_, records) = parse(stream)?;
    let entry = |r: &Record<'_>| FrameEntry {
        offset: r.offset,
        len: r.encoded_len(),
        display: r.display,
        intra: r.ftype == FrameType::Intra,
        qp: r.qp,
    };
    Ok(records.iter().map(entry).collect())
}

/// One independently decodable segment of a stream.
#[derive(Clone, Debug)]
pub struct Segment {
    /// The segment's complete bitstream (own header).
    pub bytes: Vec<u8>,
    /// Display index (in the original stream) of the segment's first frame.
    pub first_display: u32,
    /// Frames in the segment.
    pub frames: u32,
    /// CRC-32 of `bytes`.
    pub crc32: u32,
}

/// Splits a stream into one segment per keyframe-delimited group. Each
/// segment carries a complete header (the stream's, with its own frame
/// count), its records' display indexes rebased to zero, and decodes
/// independently.
///
/// # Errors
///
/// Returns [`PackError`] for malformed streams or a stream that does not
/// begin with a keyframe.
pub fn segment_at_keyframes(stream: &[u8]) -> Result<Vec<Segment>, PackError> {
    let (info, records) = parse(stream)?;
    if records[0].ftype != FrameType::Intra {
        return Err(PackError::Incompatible);
    }
    // Coding-order records between keyframes.
    let groups = records.chunk_by(|_, next| next.ftype != FrameType::Intra);
    let mut segments = Vec::new();
    for group in groups {
        let first_display = group.iter().map(|r| r.display).min().expect("non-empty group");
        let frames = group.len() as u32;
        let mut bytes = Vec::new();
        syntax::write_header(&mut bytes, &StreamInfo { frames, ..info });
        for r in group {
            syntax::write_record(&mut bytes, r.ftype, r.qp, r.display - first_display, r.payload);
        }
        let crc = crc32(&bytes);
        segments.push(Segment { bytes, first_display, frames, crc32: crc });
    }
    Ok(segments)
}

/// Reassembles segments (in order) into one stream.
///
/// # Errors
///
/// Returns [`PackError::IntegrityFailure`] if a segment's CRC no longer
/// matches its bytes, the [`index`] error of a segment that does not
/// parse, and [`PackError::Incompatible`] if the segments' headers differ
/// in more than their frame counts, the list is empty, or the frame total
/// would not fit in 32 bits. Each segment's frame count comes from its
/// own bytes, which the CRC covers, not from [`Segment::frames`].
pub fn concatenate(segments: &[Segment]) -> Result<Vec<u8>, PackError> {
    for (i, seg) in segments.iter().enumerate() {
        if crc32(&seg.bytes) != seg.crc32 {
            return Err(PackError::IntegrityFailure { segment: i });
        }
    }
    let parsed = segments.iter().map(|seg| parse(&seg.bytes)).collect::<Result<Vec<_>, _>>()?;
    let (info, _) = parsed.first().ok_or(PackError::Incompatible)?;
    let mut total = 0u32;
    for (seg, _) in &parsed {
        if (StreamInfo { frames: info.frames, ..*seg }) != *info {
            return Err(PackError::Incompatible);
        }
        total = total.checked_add(seg.frames).ok_or(PackError::Incompatible)?;
    }
    let mut out = Vec::new();
    syntax::write_header(&mut out, &StreamInfo { frames: total, ..*info });
    let mut base = 0;
    for (seg, records) in &parsed {
        for r in records {
            // Below `total`: each display index is below its segment's
            // frame count, and the counts sum to `total`.
            syntax::write_record(&mut out, r.ftype, r.qp, base + r.display, r.payload);
        }
        base += seg.frames;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcodec::{decode, encode, CodecFamily, EncoderConfig, Preset, RateControl};
    use vframe::color::{frame_from_fn, Yuv};
    use vframe::{Resolution, Video};

    fn clip(frames: usize) -> Video {
        let res = Resolution::new(48, 32);
        let fs = (0..frames)
            .map(|t| {
                frame_from_fn(res, |x, y| {
                    Yuv::new(((x * 5 + y * 3 + 4 * t as u32) % 256) as u8, 128, 128)
                })
            })
            .collect();
        Video::new(fs, 30.0)
    }

    fn stream(frames: usize, gop: u32, bframes: bool) -> Vec<u8> {
        let mut cfg = EncoderConfig::new(
            CodecFamily::Avc,
            Preset::Fast,
            RateControl::ConstQuality { crf: 30.0 },
        )
        .with_gop(gop);
        if bframes {
            cfg = cfg.with_bframes();
        }
        encode(&clip(frames), &cfg).bytes
    }

    /// The packager's index reports the same frame kinds, in the same
    /// places, as the codec's own record reader.
    #[test]
    fn index_matches_frame_kinds() {
        let s = stream(7, 3, false);
        let idx = index(&s).unwrap();
        let info = probe_stream(&s).unwrap();
        let records = syntax::records(&s, &info).unwrap();
        assert_eq!(idx.len(), records.len());
        for (e, r) in idx.iter().zip(&records) {
            assert_eq!(e.intra, r.ftype == FrameType::Intra, "display {}", e.display);
            assert_eq!((e.display, e.offset, e.len), (r.display, r.offset, r.encoded_len()));
        }
    }

    #[test]
    fn index_flags_a_keyframe_every_gop() {
        for bframes in [false, true] {
            let s = stream(9, 4, bframes);
            let idx = index(&s).unwrap();
            assert_eq!(idx.len(), 9);
            let mut displays: Vec<u32> = idx.iter().map(|e| e.display).collect();
            displays.sort_unstable();
            assert_eq!(displays, (0..9).collect::<Vec<u32>>(), "b={bframes}");
            for e in &idx {
                assert_eq!(e.intra, e.display % 4 == 0, "b={bframes} display {}", e.display);
            }
            // Records tile the stream after the header exactly.
            for pair in idx.windows(2) {
                assert_eq!(pair[0].offset + pair[0].len, pair[1].offset);
            }
            let last = idx.last().unwrap();
            assert_eq!(last.offset + last.len, s.len());
        }
    }

    /// Writes `value` over `bytes[at..]` of a copy of `s`.
    fn poke(s: &[u8], at: usize, value: &[u8]) -> Vec<u8> {
        let mut bytes = s.to_vec();
        bytes[at..at + value.len()].copy_from_slice(value);
        bytes
    }

    /// The packager and the decoder agree on which frame records are
    /// valid: one bad field in one record fails all three readers with
    /// the same error.
    #[test]
    fn index_segment_and_decode_reject_the_same_records() {
        let s = stream(6, 3, true);
        let idx = index(&s).unwrap();
        decode(&s).unwrap();
        // Record fields: type, qp, display (4 bytes, big-endian), length.
        let at = idx[1].offset;
        for (bytes, what) in [
            (poke(&s, at, &[9]), "frame type"),
            (poke(&s, at + 2, &1000u32.to_be_bytes()), "display index"),
            (poke(&s, at + 2, &idx[0].display.to_be_bytes()), "display index"),
            (poke(&s, at + 1, &[255]), "frame qp"),
        ] {
            let want = DecodeError::InvalidHeader(what);
            assert_eq!(index(&bytes).unwrap_err(), PackError::BadStream(want));
            assert_eq!(segment_at_keyframes(&bytes).unwrap_err(), PackError::BadStream(want));
            assert_eq!(decode(&bytes).unwrap_err(), want);
        }
    }

    #[test]
    fn segments_decode_independently() {
        let s = stream(9, 3, false);
        let segments = segment_at_keyframes(&s).unwrap();
        assert_eq!(segments.len(), 3);
        let original = decode(&s).unwrap();
        let mut display_base = 0usize;
        for seg in &segments {
            let v = decode(&seg.bytes).expect("segment decodes standalone");
            assert_eq!(v.len(), seg.frames as usize);
            for t in 0..v.len() {
                assert_eq!(v.frame(t), original.frame(display_base + t), "frame {t}");
            }
            display_base += v.len();
        }
    }

    #[test]
    fn segments_with_bframes_decode_independently() {
        let s = stream(10, 5, true);
        let segments = segment_at_keyframes(&s).unwrap();
        assert_eq!(segments.len(), 2);
        let original = decode(&s).unwrap();
        let mut base = 0usize;
        for seg in &segments {
            let v = decode(&seg.bytes).expect("B segment decodes standalone");
            for t in 0..v.len() {
                assert_eq!(v.frame(t), original.frame(base + t));
            }
            base += v.len();
        }
    }

    #[test]
    fn concatenation_roundtrips_content() {
        let s = stream(8, 4, true);
        let segments = segment_at_keyframes(&s).unwrap();
        let whole = concatenate(&segments).unwrap();
        let a = decode(&s).unwrap();
        let b = decode(&whole).unwrap();
        assert_eq!(a.len(), b.len());
        for t in 0..a.len() {
            assert_eq!(a.frame(t), b.frame(t), "frame {t}");
        }
    }

    #[test]
    fn tampering_is_detected() {
        let s = stream(6, 3, false);
        let mut segments = segment_at_keyframes(&s).unwrap();
        let n = segments[1].bytes.len();
        segments[1].bytes[n / 2] ^= 0xFF;
        assert_eq!(concatenate(&segments).unwrap_err(), PackError::IntegrityFailure { segment: 1 });
    }

    /// A segment whose CRC is valid but whose display index is out of
    /// range is an error before any rebasing, not an overflow; and the
    /// frame total comes from the segments' bytes, not from their
    /// `frames` fields.
    #[test]
    fn concatenate_rejects_display_indexes_that_overflow() {
        let s = stream(6, 3, false);
        let mut segments = segment_at_keyframes(&s).unwrap();
        assert_eq!(segments.len(), 2);
        for seg in &mut segments {
            seg.frames = u32::MAX;
        }
        let whole = concatenate(&segments).unwrap();
        assert_eq!(decode(&whole).unwrap().len(), 6, "frame count read from the segments");

        let seg = &mut segments[1];
        let display_at = index(&seg.bytes).unwrap()[0].offset + 2;
        seg.bytes = poke(&seg.bytes, display_at, &u32::MAX.to_be_bytes());
        seg.crc32 = crc32(&seg.bytes);
        let bad_display = PackError::BadStream(DecodeError::InvalidHeader("display index"));
        assert_eq!(concatenate(&segments).unwrap_err(), bad_display);
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let s = stream(4, 2, false);
        assert_eq!(index(&s[..s.len() - 3]).unwrap_err(), PackError::Truncated);
    }

    #[test]
    fn empty_segment_list_rejected() {
        assert_eq!(concatenate(&[]).unwrap_err(), PackError::Incompatible);
    }

    #[test]
    fn error_display() {
        assert!(PackError::Truncated.to_string().contains("mid-frame"));
        assert!(PackError::IntegrityFailure { segment: 3 }.to_string().contains('3'));
    }
}
