//! Reference transcode operations (Section 4.2 of the paper).
//!
//! "Each of these reference transcoding operations is a measuring stick,
//! grounded in real-world video sharing infrastructure." All references
//! run the AVC-class software encoder (the stand-in for ffmpeg+libx264 on
//! the paper's i7-6700K):
//!
//! * **Upload** — single pass, constant quality (CRF 18): preserve the
//!   original, bits are cheap (temporary file).
//! * **Live** — single pass, fixed bitrate, effort *inversely
//!   proportional to resolution* so the reference meets real time.
//! * **VOD / Platform** — two-pass, fixed bitrate, medium effort: the
//!   average archival case.
//! * **Popular** — two-pass, fixed bitrate at the encoder's highest
//!   quality setting.

use crate::engine::{transcode, TranscodeRequest};
use crate::measure::Measurement;
use crate::scenario::Scenario;
use vcodec::{CodecFamily, EncodeOutput, EncoderConfig, Preset, RateControl};
use vframe::{Resolution, Video};

/// CRF used by the Upload reference and by entropy measurement (the
/// paper's "visually lossless" operating point).
pub const UPLOAD_CRF: f64 = 18.0;

/// Target bitrate ladder in bits/pixel/second, as a smooth function of
/// resolution: larger frames stream at proportionally lower per-pixel
/// rates (the standard adaptive-bitrate ladder shape; ~3.7 at 480p down
/// to ~1.8 at 4K).
pub fn target_bpps(kpixels: u32) -> f64 {
    (3.7 * (f64::from(kpixels) / 410.0).powf(-0.25)).max(1.0)
}

/// Target bitrate in bits/second for a clip, from the ladder.
pub fn target_bps(video: &Video) -> u64 {
    target_bps_for(video.resolution())
}

/// [`target_bps`] from the resolution alone — the ladder target never
/// depended on frame content, so streaming callers need not materialize
/// a clip to compute it.
pub fn target_bps_for(resolution: Resolution) -> u64 {
    let bpps = target_bpps(resolution.kpixels());
    (bpps * resolution.pixels() as f64).round() as u64
}

/// The Live reference's effort, inversely proportional to resolution
/// (Section 4.2: "the encoder effort is lower for higher resolution
/// videos to ensure that the latency constraints are met"). Real-time
/// software encoding degrades hard: even 480p runs below the archival
/// presets, and HD and up drop to the minimum-effort search.
pub fn live_preset(kpixels: u32) -> Preset {
    match kpixels {
        0..=500 => Preset::VeryFast,
        _ => Preset::UltraFast,
    }
}

/// The reference encoder configuration for a scenario and clip.
///
/// Uses the clip's own resolution to choose the Live effort tier; when
/// running *scaled-down* replicas of suite videos, use
/// [`reference_config_for`] with the native category resolution so the
/// tier matches the category the clip stands in for.
pub fn reference_config(scenario: Scenario, video: &Video) -> EncoderConfig {
    reference_config_for(scenario, video.resolution(), video.resolution().kpixels())
}

/// The reference encoder configuration from source metadata alone: it
/// depends only on the clip's resolution (bitrate target) and native
/// category (Live effort tier), so streaming callers can build it without
/// materializing any frames. The Live tier follows the *native* category
/// resolution (`native_kpixels`), not the actual, possibly scaled-down,
/// one; the bitrate target follows the actual resolution so reference and
/// candidate stay comparable.
pub fn reference_config_for(
    scenario: Scenario,
    resolution: Resolution,
    native_kpixels: u32,
) -> EncoderConfig {
    let kpix = native_kpixels;
    let bps = target_bps_for(resolution);
    match scenario {
        Scenario::Upload => EncoderConfig::new(
            CodecFamily::Avc,
            Preset::Fast,
            RateControl::ConstQuality { crf: UPLOAD_CRF },
        ),
        Scenario::Live => {
            EncoderConfig::new(CodecFamily::Avc, live_preset(kpix), RateControl::Bitrate { bps })
        }
        Scenario::Vod | Scenario::Platform => EncoderConfig::new(
            CodecFamily::Avc,
            Preset::Medium,
            RateControl::TwoPassBitrate { bps },
        ),
        Scenario::Popular => EncoderConfig::new(
            CodecFamily::Avc,
            Preset::VerySlow,
            RateControl::TwoPassBitrate { bps },
        ),
    }
}

/// The reference transcode as an engine request (always the software
/// AVC-class backend, per Section 4.2), from source metadata alone (see
/// [`reference_config_for`]); streaming batches use it to reproduce
/// in-memory bitstreams.
pub fn reference_request_for(
    scenario: Scenario,
    resolution: Resolution,
    native_kpixels: u32,
) -> TranscodeRequest {
    TranscodeRequest::from_config(&reference_config_for(scenario, resolution, native_kpixels))
}

/// Runs the reference transcode for a scenario through the engine and
/// returns its measurement alongside the raw encode output.
///
/// # Panics
///
/// Panics if the source is degenerate (empty, or so pathological that a
/// measurement axis is invalid) — reference inputs are suite clips, which
/// are never either.
pub fn reference_encode(scenario: Scenario, video: &Video) -> (Measurement, EncodeOutput) {
    reference_encode_with_native(scenario, video, video.resolution().kpixels())
}

/// [`reference_encode`] with a native-resolution hint (see
/// [`reference_config_for`]).
///
/// # Panics
///
/// Panics under the same (degenerate-source) conditions as
/// [`reference_encode`].
pub fn reference_encode_with_native(
    scenario: Scenario,
    video: &Video,
    native_kpixels: u32,
) -> (Measurement, EncodeOutput) {
    let req = reference_request_for(scenario, video.resolution(), native_kpixels);
    let outcome = transcode(video, &req).expect("reference transcode");
    (outcome.measurement, outcome.output)
}

/// Measures a clip's *entropy* in the paper's sense: bits/pixel/second
/// when encoded at visually lossless quality (CRF 18) — Section 4.1.
///
/// # Panics
///
/// Panics if the clip is empty.
pub fn measure_entropy(video: &Video) -> f64 {
    let req = TranscodeRequest::software(
        CodecFamily::Avc,
        Preset::Fast,
        crate::engine::RateMode::ConstQuality { crf: UPLOAD_CRF },
    );
    transcode(video, &req).expect("entropy probe").measurement.bitrate_bpps
}

#[cfg(test)]
mod tests {
    use super::*;
    use vframe::color::{frame_from_fn, Yuv};
    use vframe::Resolution;

    fn clip() -> Video {
        let res = Resolution::new(64, 64);
        let fs = (0..6)
            .map(|t| {
                frame_from_fn(res, |x, y| {
                    Yuv::new(((x * 5 + y * 3 + 7 * t as u32) % 256) as u8, 128, 128)
                })
            })
            .collect();
        Video::new(fs, 30.0)
    }

    #[test]
    fn ladder_decreases_with_resolution() {
        assert!(target_bpps(410) > target_bpps(922));
        assert!(target_bpps(922) > target_bpps(2074));
        assert!(target_bpps(2074) > target_bpps(8294));
        assert!((target_bpps(410) - 3.7).abs() < 1e-9);
    }

    #[test]
    fn live_effort_drops_with_resolution() {
        assert_eq!(live_preset(410), Preset::VeryFast);
        assert_eq!(live_preset(922), Preset::UltraFast);
        assert_eq!(live_preset(8294), Preset::UltraFast);
    }

    #[test]
    fn scenario_configs_match_paper_structure() {
        let v = clip();
        let up = reference_config(Scenario::Upload, &v);
        assert!(matches!(up.rate, RateControl::ConstQuality { .. }));
        let live = reference_config(Scenario::Live, &v);
        assert!(matches!(live.rate, RateControl::Bitrate { .. }));
        let vod = reference_config(Scenario::Vod, &v);
        assert!(matches!(vod.rate, RateControl::TwoPassBitrate { .. }));
        assert_eq!(vod.preset, Preset::Medium);
        let pop = reference_config(Scenario::Popular, &v);
        assert_eq!(pop.preset, Preset::VerySlow);
        // Platform shares the VOD reference.
        let plat = reference_config(Scenario::Platform, &v);
        assert_eq!(plat.preset, vod.preset);
    }

    #[test]
    fn reference_encode_produces_measurement() {
        let v = clip();
        let (m, out) = reference_encode(Scenario::Upload, &v);
        assert!(m.quality_db > 30.0, "upload reference is near-lossless, got {}", m.quality_db);
        assert!(!out.bytes.is_empty());
    }

    #[test]
    fn entropy_orders_content_by_complexity() {
        // A flat clip has much lower entropy than a noisy one.
        let res = Resolution::new(64, 64);
        let flat = Video::new(vec![vframe::Frame::filled(res, 60, 128, 128); 6], 30.0);
        let noisy = clip();
        let e_flat = measure_entropy(&flat);
        let e_noisy = measure_entropy(&noisy);
        assert!(e_noisy > e_flat * 3.0, "noisy {e_noisy} should dwarf flat {e_flat}");
    }
}
