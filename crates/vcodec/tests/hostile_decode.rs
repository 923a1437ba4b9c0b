//! Hostile-input decoder tests: every parsing entry point — `decode`,
//! `probe_stream`, `frame_kinds` — must return a typed [`DecodeError`]
//! on corrupt input. Never a panic, never an unbounded loop, and never
//! an allocation sized from an unvalidated header field.
//!
//! The corruption models here are the two a storage or transport fault
//! actually produces: truncation (a torn write, a cut connection) and
//! bit flips (media rot). `prop.rs` separately covers fully random
//! bytes.

use proptest::prelude::*;
use std::sync::OnceLock;
use vcodec::DecodeError;
use vframe::color::{frame_from_fn, Yuv};
use vframe::{Resolution, Video};

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
        let _ = vcodec::frame_kinds(cut);
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
        let _ = vcodec::frame_kinds(&bytes);
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
        let _ = vcodec::frame_kinds(&bytes);
    }
}

// Container header layout (see the encoder): magic 0..4, version 4,
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
    assert_eq!(vcodec::frame_kinds(&bytes), Err(DecodeError::InvalidHeader("frame count")));
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
    use vcodec::bitio::BitWriter;
    use vcodec::entropy::{CtxClass, EntropyBackend, EntropyEncoder};
    use vcodec::transform::TransformSize;

    let mut w = BitWriter::new();
    w.put_bytes(b"VBCR");
    for (value, bits) in [(3u64, 8), (0, 8), (0, 8), (16, 16), (16, 16), (24_000, 32), (2, 32)] {
        w.put_bits(value, bits); // version, family avc, backend vlc, w, h, fps, frames
    }
    w.put_bits(60, 16); // gop
    w.put_bits(1, 8); // flags: deblock on
    for (display, ftype) in [(0u64, 1u64), (1, 0)] {
        let mut enc = EntropyEncoder::new(EntropyBackend::Vlc);
        if ftype == 1 {
            enc.put_uval(CtxClass::Mode, 0); // intra DC
        } else {
            enc.put_uval(CtxClass::Mode, 1); // inter, zero MVD
            enc.put_sval(CtxClass::MvX, 0);
            enc.put_sval(CtxClass::MvY, 0);
        }
        for _tile in 0..6 {
            enc.put_coeff_block(TransformSize::T8, levels); // 4 luma, U, V
        }
        let payload = enc.finish();
        w.put_bits(ftype, 8);
        w.put_bits(u64::from(qp), 8);
        w.put_bits(display, 32);
        w.put_bits(payload.len() as u64, 32);
        w.put_bytes(&payload);
    }
    w.finish()
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
