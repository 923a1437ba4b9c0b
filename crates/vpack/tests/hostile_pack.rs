//! Hostile-input packaging tests: `index`, `segment_at_keyframes` and
//! `concatenate` of the segments they produce must return a typed
//! [`vpack::PackError`] on corrupt input, never panic, and never accept a
//! stream whose frame records the decoder rejects.
//!
//! The corruption models are the decoder's (`vcodec`'s
//! `tests/hostile_decode.rs`): truncation, single bit flips and bursts.

use proptest::prelude::*;
use std::sync::OnceLock;
use vframe::color::{frame_from_fn, Yuv};
use vframe::{Resolution, Video};

/// A valid 6-frame stream with B frames and a mid-stream keyframe, so
/// the damage can hit GOP boundaries and reordered records.
fn valid_stream() -> &'static [u8] {
    static STREAM: OnceLock<Vec<u8>> = OnceLock::new();
    STREAM.get_or_init(|| {
        let res = Resolution::new(48, 32);
        let frames = (0..6)
            .map(|t| {
                frame_from_fn(res, |x, y| {
                    let v = (x * 3 + y * 2 + t * 7) % 256;
                    Yuv::new(v as u8, ((x + t) % 200) as u8, 128)
                })
            })
            .collect();
        let cfg = vcodec::EncoderConfig::new(
            vcodec::CodecFamily::Avc,
            vcodec::Preset::Fast,
            vcodec::RateControl::ConstQuality { crf: 30.0 },
        )
        .with_gop(4)
        .with_bframes();
        vcodec::encode(&Video::new(frames, 24.0), &cfg).bytes
    })
}

/// Runs every packaging entry point over `bytes`; returns whether the
/// seek index accepted it.
fn package(bytes: &[u8]) -> bool {
    let indexed = vpack::index(bytes).is_ok();
    if let Ok(segments) = vpack::segment_at_keyframes(bytes) {
        assert!(indexed, "segmented a stream the index rejects");
        let _ = vpack::concatenate(&segments);
    }
    if !indexed {
        assert!(vcodec::decode(bytes).is_err(), "the decoder accepts what the index rejects");
    }
    indexed
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    // A cut anywhere drops bytes the last record's length accounts for.
    #[test]
    fn truncated_streams_error_never_panic(frac in 0.0f64..1.0) {
        let full = valid_stream();
        let cut = &full[..((full.len() as f64) * frac) as usize];
        prop_assert!(!package(cut));
    }

    #[test]
    fn bit_flips_never_panic(frac in 0.0f64..1.0, bit in 0u8..8) {
        let mut bytes = valid_stream().to_vec();
        let i = ((bytes.len() as f64) * frac) as usize % bytes.len();
        bytes[i] ^= 1 << bit;
        package(&bytes);
    }

    #[test]
    fn burst_corruption_never_panics(start in 0.0f64..1.0, len in 1usize..64, xor in 1u8..=255) {
        let mut bytes = valid_stream().to_vec();
        let s = ((bytes.len() as f64) * start) as usize % bytes.len();
        let e = (s + len).min(bytes.len());
        for b in &mut bytes[s..e] {
            *b ^= xor;
        }
        package(&bytes);
    }
}

#[test]
fn valid_stream_packages() {
    assert!(package(valid_stream()));
    let segments = vpack::segment_at_keyframes(valid_stream()).unwrap();
    assert_eq!(segments.len(), 2);
    let whole = vpack::concatenate(&segments).unwrap();
    assert_eq!(vcodec::decode(&whole).unwrap().len(), 6);
}
