//! Bitstream packaging for the vbench reproduction.
//!
//! A video-on-demand service does not serve one monolithic bitstream: it
//! splits each transcode into independently decodable segments that a CDN
//! can cache and a player can fetch adaptively (Section 2.5 of the paper
//! describes the CDN-replicated serving path). This crate provides the
//! packaging layer on top of `vcodec`'s container:
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

use vcodec::{probe_stream, DecodeError};

/// Byte length of the container header (`vcodec` bitstream version 2).
const HEADER_LEN: usize = 22;
/// Byte offset of the frame-count field within the header.
const FRAME_COUNT_OFFSET: usize = 15;
/// Byte length of a frame record header (type, qp, display, payload len).
const FRAME_HEADER_LEN: usize = 10;

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

/// Builds a seek index over a stream without touching any payload bytes.
///
/// # Errors
///
/// Returns [`PackError`] if the stream header is invalid or the framing
/// runs past the end of the buffer.
pub fn index(stream: &[u8]) -> Result<Vec<FrameEntry>, PackError> {
    let info = probe_stream(stream)?;
    let mut entries = Vec::with_capacity(info.frames as usize);
    let mut pos = HEADER_LEN;
    for _ in 0..info.frames {
        if pos + FRAME_HEADER_LEN > stream.len() {
            return Err(PackError::Truncated);
        }
        let ftype = stream[pos];
        let qp = stream[pos + 1];
        let display = u32::from_be_bytes(stream[pos + 2..pos + 6].try_into().expect("4 bytes"));
        let payload_len =
            u32::from_be_bytes(stream[pos + 6..pos + 10].try_into().expect("4 bytes")) as usize;
        let len = FRAME_HEADER_LEN + payload_len;
        if pos + len > stream.len() {
            return Err(PackError::Truncated);
        }
        entries.push(FrameEntry { offset: pos, len, display, intra: ftype == 1, qp });
        pos += len;
    }
    Ok(entries)
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
/// segment carries a complete header (frame count patched, display
/// indexes rebased to zero) and decodes independently.
///
/// # Errors
///
/// Returns [`PackError`] for malformed streams or a stream that does not
/// begin with a keyframe.
pub fn segment_at_keyframes(stream: &[u8]) -> Result<Vec<Segment>, PackError> {
    let entries = index(stream)?;
    if entries.is_empty() || !entries[0].intra {
        return Err(PackError::Incompatible);
    }
    // Group coding-order records between keyframes.
    let mut groups: Vec<Vec<&FrameEntry>> = Vec::new();
    for e in &entries {
        if e.intra {
            groups.push(Vec::new());
        }
        groups.last_mut().expect("first frame is intra").push(e);
    }
    let mut segments = Vec::with_capacity(groups.len());
    for group in groups {
        let first_display = group.iter().map(|e| e.display).min().expect("non-empty group");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&stream[..HEADER_LEN]);
        patch_u32(&mut bytes, FRAME_COUNT_OFFSET, group.len() as u32);
        for e in &group {
            let start = bytes.len();
            bytes.extend_from_slice(&stream[e.offset..e.offset + e.len]);
            // Rebase the display index into the segment.
            patch_u32(&mut bytes, start + 2, e.display - first_display);
        }
        let crc = crc32(&bytes);
        segments.push(Segment { bytes, first_display, frames: group.len() as u32, crc32: crc });
    }
    Ok(segments)
}

/// Reassembles segments (in order) into one stream.
///
/// # Errors
///
/// Returns [`PackError::IntegrityFailure`] if a segment's CRC no longer
/// matches its bytes, and [`PackError::Incompatible`] if the segments'
/// headers disagree, the list is empty, or a rebased display index or
/// the frame total would not fit in 32 bits. Each segment's frame count
/// comes from its own bytes, which the CRC covers, not from
/// [`Segment::frames`].
pub fn concatenate(segments: &[Segment]) -> Result<Vec<u8>, PackError> {
    let first = segments.first().ok_or(PackError::Incompatible)?;
    for (i, seg) in segments.iter().enumerate() {
        if crc32(&seg.bytes) != seg.crc32 {
            return Err(PackError::IntegrityFailure { segment: i });
        }
        if seg.bytes.len() < HEADER_LEN
            || seg.bytes[..FRAME_COUNT_OFFSET] != first.bytes[..FRAME_COUNT_OFFSET]
        {
            return Err(PackError::Incompatible);
        }
    }
    let mut out = Vec::new();
    out.extend_from_slice(&first.bytes[..HEADER_LEN]);
    let mut total_frames = 0u32;
    for seg in segments {
        let entries = index(&seg.bytes)?;
        for e in &entries {
            let start = out.len();
            out.extend_from_slice(&seg.bytes[e.offset..e.offset + e.len]);
            let display = e.display.checked_add(total_frames).ok_or(PackError::Incompatible)?;
            patch_u32(&mut out, start + 2, display);
        }
        total_frames = u32::try_from(entries.len())
            .ok()
            .and_then(|n| total_frames.checked_add(n))
            .ok_or(PackError::Incompatible)?;
    }
    patch_u32(&mut out, FRAME_COUNT_OFFSET, total_frames);
    Ok(out)
}

fn patch_u32(buf: &mut [u8], offset: usize, value: u32) {
    buf[offset..offset + 4].copy_from_slice(&value.to_be_bytes());
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

    #[test]
    fn index_matches_frame_kinds() {
        let s = stream(7, 3, false);
        let idx = index(&s).unwrap();
        assert_eq!(idx.len(), 7);
        let kinds = vcodec::frame_kinds(&s).unwrap();
        for e in &idx {
            assert_eq!(e.intra, kinds[e.display as usize], "display {}", e.display);
        }
        // Records tile the stream exactly.
        let mut pos = HEADER_LEN;
        for e in &idx {
            assert_eq!(e.offset, pos);
            pos += e.len;
        }
        assert_eq!(pos, s.len());
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

    /// A segment whose CRC is valid but whose display index cannot be
    /// rebased is an error, not an overflow; and the frame total comes
    /// from the segments' bytes, not from their `frames` fields.
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
        patch_u32(&mut seg.bytes, HEADER_LEN + 2, u32::MAX);
        seg.crc32 = crc32(&seg.bytes);
        assert_eq!(concatenate(&segments).unwrap_err(), PackError::Incompatible);
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
