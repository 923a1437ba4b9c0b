//! The streaming pipeline's contract: pulling frames one at a time
//! through a bounded window is *observationally identical* to handing the
//! encoder a materialized clip — same bitstream bytes, same bitrate, same
//! quality, same bisected operating point — while the number of frames
//! simultaneously resident stays bounded by the window no matter how long
//! the clip is. These tests pin that equivalence across every software
//! family and rate mode, through the engine and through the farm.

use proptest::prelude::*;
use vbench::engine::{transcode, transcode_stream, Engine, RateMode, TranscodeRequest};
use vbench::farm::{transcode_batch, EngineJob, JobSource};
use vbench::resilience::ResilienceConfig;
use vcodec::CodecFamily;
use vcodec::Preset;
use vframe::color::{frame_from_fn, Yuv};
use vframe::source::VideoSource;
use vframe::{Resolution, Video};
use vsynth::{ContentClass, SourceSpec};

fn clip(frames: usize) -> Video {
    let res = Resolution::new(96, 64);
    let fs = (0..frames)
        .map(|t| {
            frame_from_fn(res, |x, y| {
                Yuv::new(((x * 3 + y * 2 + 7 * t as u32) % 256) as u8, 128, 128)
            })
        })
        .collect();
    Video::new(fs, 30.0)
}

/// Runs `req` both ways over the same content and asserts every
/// deterministic field agrees (software speed is wall clock, so it is
/// the one excluded axis).
fn assert_stream_matches_full(v: &Video, req: &TranscodeRequest, label: &str) {
    let full = transcode(v, req).expect("in-memory transcode");
    let mut src = VideoSource::new(v);
    let streamed = transcode_stream(&mut src, req).expect("streaming transcode");
    assert_eq!(streamed.bytes, full.output.bytes, "{label}: bitstream");
    assert_eq!(streamed.chosen_bps, full.chosen_bps, "{label}: operating point");
    assert_eq!(
        streamed.measurement.bitrate_bpps, full.measurement.bitrate_bpps,
        "{label}: bitrate"
    );
    assert_eq!(streamed.measurement.quality_db, full.measurement.quality_db, "{label}: quality");
    assert_eq!(streamed.stats.frames, full.output.stats.frames, "{label}: frame count");
}

#[test]
fn software_matrix_streams_byte_identically() {
    let v = clip(8);
    let rates = [
        RateMode::ConstQuality { crf: 28.0 },
        RateMode::Bitrate { bps: 600_000 },
        RateMode::TwoPassBitrate { bps: 600_000 },
    ];
    for family in [CodecFamily::Avc, CodecFamily::Hevc, CodecFamily::Vp9] {
        for rate in rates {
            for bframes in [false, true] {
                let mut req = TranscodeRequest::software(family, Preset::Fast, rate).with_gop(4);
                if bframes {
                    req = req.with_bframes();
                }
                assert_stream_matches_full(&v, &req, &format!("{family} {rate:?} b={bframes}"));
            }
        }
    }
}

#[test]
fn quality_target_bisection_streams_to_the_same_operating_point() {
    // The bisection re-pulls the source once per probe; every probe's
    // quality readout must match the in-memory probe's bit for bit, so
    // the search settles on the same bitrate and the same final bytes.
    let v = clip(6);
    for family in [CodecFamily::Avc, CodecFamily::Hevc] {
        for bframes in [false, true] {
            let mut req = TranscodeRequest::software(
                family,
                Preset::Fast,
                RateMode::QualityTarget {
                    target_db: 33.0,
                    lo_bps: 50_000,
                    hi_bps: 4_000_000,
                    fallback_bps: Some(500_000),
                },
            );
            if bframes {
                req = req.with_bframes();
            }
            assert_stream_matches_full(&v, &req, &format!("{family} target b={bframes}"));
        }
    }
}

#[test]
fn peak_residency_is_bounded_by_the_window_not_the_clip() {
    // Same request over clips 4x apart in length: the bitstreams differ,
    // but the peak number of resident frames is identical and within the
    // structural window — the whole point of the streaming path.
    for bframes in [false, true] {
        let mut peaks = Vec::new();
        for frames in [16usize, 64] {
            let v = clip(frames);
            let mut req = TranscodeRequest::software(
                CodecFamily::Avc,
                Preset::Fast,
                RateMode::TwoPassBitrate { bps: 500_000 },
            )
            .with_gop(6);
            let mut cfg = vcodec::EncoderConfig::new(
                CodecFamily::Avc,
                Preset::Fast,
                vcodec::RateControl::TwoPassBitrate { bps: 500_000 },
            )
            .with_gop(6);
            if bframes {
                req = req.with_bframes();
                cfg = cfg.with_bframes();
            }
            let window = vcodec::required_window(&cfg);
            let mut src = VideoSource::new(&v);
            let out =
                transcode_stream(&mut src, &req.with_window(window)).expect("streaming transcode");
            assert!(
                out.peak_resident_frames <= window,
                "peak {} exceeds window {window} for {frames}-frame clip (b={bframes})",
                out.peak_resident_frames
            );
            assert!(out.peak_resident_frames < frames, "streaming must beat materializing");
            peaks.push(out.peak_resident_frames);
        }
        assert_eq!(peaks[0], peaks[1], "peak residency must not grow with clip length");
    }
}

#[test]
fn streamed_farm_batch_matches_in_memory_batch() {
    // The same content submitted twice: once as materialized in-memory
    // jobs, once as streaming synthetic sources. Every deterministic
    // field must agree job for job, and the streamed batch must report a
    // bounded peak residency.
    let specs: Vec<SourceSpec> = (0..3)
        .map(|i| {
            SourceSpec::new(Resolution::new(96, 64), 30.0, 12, ContentClass::Animation, 40 + i)
        })
        .collect();
    let request = TranscodeRequest::software(
        CodecFamily::Avc,
        Preset::Fast,
        RateMode::TwoPassBitrate { bps: 500_000 },
    );
    let in_memory: Vec<EngineJob> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| EngineJob::new(format!("j{i}"), s.generate(), request))
        .collect();
    let streamed: Vec<EngineJob> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| EngineJob::streaming(format!("j{i}"), JobSource::Synth(s.clone()), request))
        .collect();
    let full = transcode_batch(&Engine, &in_memory, 2, &ResilienceConfig::default())
        .expect("in-memory batch");
    let lazy = transcode_batch(&Engine, &streamed, 2, &ResilienceConfig::default())
        .expect("streamed batch");
    for (f, l) in full.results.iter().zip(&lazy.results) {
        assert_eq!(f.name, l.name);
        let fo = f.success().expect("in-memory job succeeds");
        let lo = l.success().expect("streamed job succeeds");
        assert_eq!(fo.bytes(), lo.bytes(), "{}", f.name);
        assert_eq!(fo.measurement().bitrate_bpps, lo.measurement().bitrate_bpps, "{}", f.name);
        assert_eq!(fo.measurement().quality_db, lo.measurement().quality_db, "{}", f.name);
        let peak = lo.peak_resident_frames().expect("streamed jobs report residency");
        assert!(peak < 12, "peak {peak} should be far below the 12-frame clip");
    }
    assert_eq!(full.summary.peak_resident_frames, 0, "in-memory batches report no residency");
    let peak = lazy.summary.peak_resident_frames;
    assert!(peak > 0 && peak < 12, "batch peak {peak} must be bounded");
}

// Satellite property: *any* valid software request streams to the same
// bytes and the same measurement as the in-memory path. Cases are kept
// small (tiny frames, short clips) so the whole set runs in debug mode.
proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn any_software_request_streams_identically(
        seed in any::<u32>(),
        family_idx in 0usize..CodecFamily::ALL.len(),
        mode in 0usize..3,
        bframes in any::<bool>(),
        gop in 2u32..8,
        frames in 4usize..9,
    ) {
        let res = Resolution::new(48, 32);
        let fs = (0..frames)
            .map(|t| {
                frame_from_fn(res, |x, y| {
                    let v = (x.wrapping_mul(seed % 97 + 3)
                        + y.wrapping_mul(seed % 31 + 1)
                        + t as u32 * (seed % 13)) % 256;
                    Yuv::new(v as u8, 128, 128)
                })
            })
            .collect();
        let v = Video::new(fs, 30.0);
        let rate = match mode {
            0 => RateMode::ConstQuality { crf: 24.0 + f64::from(seed % 16) },
            1 => RateMode::Bitrate { bps: 200_000 + u64::from(seed % 7) * 100_000 },
            _ => RateMode::TwoPassBitrate { bps: 200_000 + u64::from(seed % 7) * 100_000 },
        };
        let mut req =
            TranscodeRequest::software(CodecFamily::ALL[family_idx], Preset::Fast, rate)
                .with_gop(gop);
        if bframes {
            req = req.with_bframes();
        }
        let full = transcode(&v, &req).expect("in-memory transcode");
        let mut src = VideoSource::new(&v);
        let streamed = transcode_stream(&mut src, &req).expect("streaming transcode");
        prop_assert_eq!(&streamed.bytes, &full.output.bytes);
        prop_assert_eq!(streamed.measurement.bitrate_bpps, full.measurement.bitrate_bpps);
        prop_assert_eq!(streamed.measurement.quality_db, full.measurement.quality_db);
        prop_assert!(streamed.peak_resident_frames <= vcodec::required_window(
            &req_config_for_window(&req)
        ));
    }
}

/// The encoder configuration whose structural window bounds `req`'s
/// streaming residency (rate control never widens the window, so the
/// probe configuration suffices).
fn req_config_for_window(req: &TranscodeRequest) -> vcodec::EncoderConfig {
    let mut cfg = vcodec::EncoderConfig::new(
        CodecFamily::Avc,
        Preset::Fast,
        vcodec::RateControl::ConstQuality { crf: 30.0 },
    )
    .with_gop(req.gop);
    if req.bframes {
        cfg = cfg.with_bframes();
    }
    cfg
}
