//! Hostile-input decoder tests: every parsing entry point — `decode`,
//! `probe_stream`, the record walker `syntax::records` — must return a
//! typed [`DecodeError`] on corrupt input. Never a panic, never an
//! unbounded loop, and never an allocation sized from an unvalidated
//! header field.
//!
//! The corruption models here are the two a storage or transport fault
//! actually produces: truncation (a torn write, a cut connection) and
//! bit flips (media rot). `prop.rs` separately covers fully random
//! bytes.

use proptest::prelude::*;
use std::sync::OnceLock;
use vcodec::syntax::{self, FrameType, Record, SbMode, StreamInfo};
use vcodec::DecodeError;
use vframe::color::{frame_from_fn, Yuv};
use vframe::{Resolution, Video};

/// The header and frame records of `bytes`, payloads undecoded.
fn walk(bytes: &[u8]) -> Result<Vec<Record<'_>>, DecodeError> {
    vcodec::probe_stream(bytes).and_then(|info| syntax::records(bytes, &info))
}

/// Frames in the reference stream; see [`valid_stream`].
const STREAM_FRAMES: usize = 6;

/// One valid bitstream, encoded once and shared by every case. B frames
/// and a mid-stream keyframe give the corruption something structural to
/// hit (reference handling, GOP boundaries), not just residual data.
fn valid_stream() -> &'static [u8] {
    static STREAM: OnceLock<Vec<u8>> = OnceLock::new();
    STREAM.get_or_init(|| {
        let res = Resolution::new(48, 32);
        let frames = (0..STREAM_FRAMES)
            .map(|t| {
                frame_from_fn(res, |x, y| {
                    let v = (x * 3 + y * 2 + t as u32 * 7) % 256;
                    Yuv::new(v as u8, ((x + t as u32) % 200) as u8, 128)
                })
            })
            .collect();
        let video = Video::new(frames, 24.0);
        let cfg = vcodec::EncoderConfig::new(
            vcodec::CodecFamily::Avc,
            vcodec::Preset::Fast,
            vcodec::RateControl::ConstQuality { crf: 30.0 },
        )
        .with_gop(4)
        .with_bframes();
        vcodec::encode(&video, &cfg).bytes
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    // A stream cut anywhere loses bytes the frame framing accounts for,
    // so decode must fail — with an error, not a panic or a hang.
    #[test]
    fn truncated_streams_error_never_panic(frac in 0.0f64..1.0) {
        let full = valid_stream();
        let cut = &full[..((full.len() as f64) * frac) as usize];
        prop_assert!(vcodec::decode(cut).is_err());
        let _ = vcodec::probe_stream(cut);
        let _ = walk(cut);
    }

    // A single bit flip anywhere — header fields included — either still
    // decodes (flips in residual data merely change pixels) or fails
    // with a typed error. All three entry points must survive it.
    #[test]
    fn bit_flips_never_panic(frac in 0.0f64..1.0, bit in 0u8..8) {
        let mut bytes = valid_stream().to_vec();
        let i = ((bytes.len() as f64) * frac) as usize % bytes.len();
        bytes[i] ^= 1 << bit;
        let _ = vcodec::decode(&bytes);
        let _ = vcodec::probe_stream(&bytes);
        let _ = walk(&bytes);
    }

    // Heavier damage: a burst of flips, as one bad sector would cause.
    #[test]
    fn burst_corruption_never_panics(start in 0.0f64..1.0, len in 1usize..64, xor in 1u8..=255) {
        let mut bytes = valid_stream().to_vec();
        let s = ((bytes.len() as f64) * start) as usize % bytes.len();
        let e = (s + len).min(bytes.len());
        for b in &mut bytes[s..e] {
            *b ^= xor;
        }
        let _ = vcodec::decode(&bytes);
        let _ = vcodec::probe_stream(&bytes);
        let _ = walk(&bytes);
    }
}

// Container header layout (see `vcodec::syntax`): magic 0..4, version 4,
// family 5, backend 6, width 7..9, height 9..11, fps 11..15,
// frames 15..19, gop 19..21, flags 21. All fields big-endian.

#[test]
fn absurd_frame_count_is_rejected_before_allocation() {
    let mut bytes = valid_stream().to_vec();
    bytes[15..19].copy_from_slice(&u32::MAX.to_be_bytes());
    // A count the stream cannot physically hold must die in the header
    // check — not in a `Vec` sized from the lie.
    assert_eq!(vcodec::probe_stream(&bytes), Err(DecodeError::InvalidHeader("frame count")));
    assert_eq!(vcodec::decode(&bytes).unwrap_err(), DecodeError::InvalidHeader("frame count"));
    assert_eq!(walk(&bytes), Err(DecodeError::InvalidHeader("frame count")));
}

#[test]
fn absurd_resolution_is_rejected_before_allocation() {
    let mut bytes = valid_stream().to_vec();
    bytes[7..9].copy_from_slice(&0xFFFEu16.to_be_bytes());
    bytes[9..11].copy_from_slice(&0xFFFEu16.to_be_bytes());
    // 65534 x 65534 would be a ~4 GiB luma plane allocated before the
    // first payload byte is read.
    assert_eq!(vcodec::probe_stream(&bytes), Err(DecodeError::InvalidHeader("resolution")));
    assert_eq!(vcodec::decode(&bytes).unwrap_err(), DecodeError::InvalidHeader("resolution"));
}

#[test]
fn frame_count_exceeding_stream_length_is_rejected() {
    let mut bytes = valid_stream().to_vec();
    // Plausible-looking but still impossible: one more frame than the
    // remaining bytes can frame.
    let lie = (bytes.len() / 10 + 1) as u32;
    bytes[15..19].copy_from_slice(&lie.to_be_bytes());
    assert_eq!(vcodec::probe_stream(&bytes), Err(DecodeError::InvalidHeader("frame count")));
}

#[test]
fn valid_stream_still_decodes() {
    // The guards must not reject the real thing.
    let v = vcodec::decode(valid_stream()).expect("pristine stream decodes");
    assert_eq!(v.len(), STREAM_FRAMES);
    let info = vcodec::probe_stream(valid_stream()).expect("pristine header probes");
    assert_eq!(info.frames as usize, STREAM_FRAMES);
}

/// A well-formed 16×16 AVC/VLC stream — one intra frame, one predicted
/// frame, one superblock each — whose every residual tile is `levels`
/// at quantizer `qp`. Built by hand because no encoder run produces such
/// levels; a stream may still carry them.
fn stream_with_levels(qp: u8, levels: &[i32; 64]) -> Vec<u8> {
    use vcodec::entropy::{CtxClass, EntropyBackend, EntropyEncoder};
    use vcodec::predict::IntraMode;
    use vcodec::transform::TransformSize;

    let info = StreamInfo {
        family: vcodec::CodecFamily::Avc,
        backend: EntropyBackend::Vlc,
        resolution: Resolution::new(16, 16),
        fps: 24.0,
        frames: 2,
        gop: 60,
        deblock: true,
    };
    let mut bytes = Vec::new();
    syntax::write_header(&mut bytes, &info);
    for (display, ftype) in [(0, FrameType::Intra), (1, FrameType::Predicted)] {
        let mut enc = EntropyEncoder::new(EntropyBackend::Vlc);
        if ftype == FrameType::Intra {
            syntax::put_sb_mode(&mut enc, ftype, SbMode::Intra(IntraMode::Dc));
        } else {
            syntax::put_sb_mode(&mut enc, ftype, SbMode::Forward); // zero MVD
            enc.put_sval(CtxClass::MvX, 0);
            enc.put_sval(CtxClass::MvY, 0);
        }
        for _tile in 0..6 {
            enc.put_coeff_block(TransformSize::T8, levels); // 4 luma, U, V
        }
        syntax::write_record(&mut bytes, ftype, qp, display, &enc.finish());
    }
    bytes
}

/// Bitwise CRC-32 (IEEE), the checksum the pins below are taken with.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

#[test]
fn hand_built_streams_keep_their_bytes() {
    // Captured when `stream_with_levels` wrote every field by hand: the
    // syntax writers must lay the container out byte for byte the same.
    assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    let mut dc_only = [0i32; 64];
    dc_only[0] = i32::MAX;
    let mut small = [0i32; 64];
    small[0] = 3;
    for (qp, levels, len, crc) in [
        (0u8, &dc_only, 141, 0x8f67_f966),
        (51, &[i32::MAX; 64], 6189, 0xc8a3_e84a),
        (26, &small, 54, 0x20e8_7369),
    ] {
        let bytes = stream_with_levels(qp, levels);
        assert_eq!((bytes.len(), crc32(&bytes)), (len, crc), "qp {qp}");
    }
}

#[test]
fn saturated_coefficient_levels_never_panic() {
    // The inverse transform is shared with the encoder, which only ever
    // feeds it small values; the decoder feeds it whatever the stream
    // says. |level| = i32::MAX is the most the syntax can carry.
    let mut dc_only = [0i32; 64];
    dc_only[0] = i32::MAX;
    let all_max = [i32::MAX; 64];
    let all_min = [-i32::MAX; 64];
    let mut alternating = [i32::MAX; 64];
    for l in alternating.iter_mut().step_by(2) {
        *l = -i32::MAX;
    }
    for qp in [0u8, 51] {
        for levels in [&dc_only, &all_max, &all_min, &alternating] {
            let bytes = stream_with_levels(qp, levels);
            match vcodec::decode(&bytes) {
                Ok(video) => assert_eq!(video.len(), 2),
                Err(e) => panic!("the crafted stream is well-formed, got {e}"),
            }
        }
    }
    // And an ordinary level through the same builder decodes, so the
    // cases above are hostile in their levels only.
    let mut small = [0i32; 64];
    small[0] = 3;
    assert!(vcodec::decode(&stream_with_levels(26, &small)).is_ok());
}
