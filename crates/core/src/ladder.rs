//! The adaptive-bitrate transcode ladder (Figure 3 of the paper).
//!
//! "Each upload must be converted to a range of resolutions, formats, and
//! bitrates to suit varied viewer capabilities" (Section 1). This module
//! implements the fan-out: the standard resolution rungs, per-rung bitrate
//! targets from the ladder model in [`crate::reference`], and a parallel
//! driver that produces every rung from one source.

use crate::engine::{Backend, Engine, RateMode, StreamOutcome, TranscodeRequest, Transcoder};
use crate::farm::{transcode_batch, BatchError, EngineJob};
use crate::measure::Measurement;
use crate::reference::target_bps;
use crate::resilience::ResilienceConfig;
use vcodec::{CodecFamily, Preset};
use vframe::scale::resize_video;
use vframe::{Resolution, Video};

/// One rung of the ladder.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LadderRung {
    /// Conventional name ("720p", …).
    pub name: &'static str,
    /// Output resolution.
    pub resolution: Resolution,
}

/// The standard output ladder, largest first.
pub fn standard_ladder() -> Vec<LadderRung> {
    vec![
        LadderRung { name: "2160p", resolution: Resolution::new(3840, 2160) },
        LadderRung { name: "1440p", resolution: Resolution::new(2560, 1440) },
        LadderRung { name: "1080p", resolution: Resolution::new(1920, 1080) },
        LadderRung { name: "720p", resolution: Resolution::new(1280, 720) },
        LadderRung { name: "480p", resolution: Resolution::new(854, 480) },
        LadderRung { name: "360p", resolution: Resolution::new(640, 360) },
        LadderRung { name: "240p", resolution: Resolution::new(426, 240) },
        LadderRung { name: "144p", resolution: Resolution::new(256, 144) },
    ]
}

/// The rungs a source of `native` resolution is transcoded to: everything
/// at or below the source (a service never upscales), scaled by
/// `1/scale` to mirror scaled-down experiment runs.
///
/// # Panics
///
/// Panics if `scale` is zero.
pub fn rungs_for(native: Resolution, scale: u32) -> Vec<LadderRung> {
    assert!(scale > 0, "scale must be non-zero");
    standard_ladder()
        .into_iter()
        .filter(|r| r.resolution.pixels() <= native.pixels() * u64::from(scale) * u64::from(scale))
        .map(|r| LadderRung {
            name: r.name,
            resolution: Resolution::new(
                (r.resolution.width() / scale).max(16) & !1,
                (r.resolution.height() / scale).max(16) & !1,
            ),
        })
        .collect()
}

/// One produced rung.
#[derive(Debug)]
pub struct LadderOutput {
    /// The rung.
    pub rung: LadderRung,
    /// The engine's outcome for the rung: bitstream, stats, and the
    /// measurement against the rung's own scaled source.
    pub output: StreamOutcome,
}

impl LadderOutput {
    /// The rung's measurement (speed/bitrate/quality vs its own scaled
    /// source). Speed is the engine's: measured wall time for software
    /// rungs, the pipeline model's throughput for hardware ones.
    pub fn measurement(&self) -> Measurement {
        self.output.measurement
    }
}

/// Produces every ladder rung at or below the source resolution, encoding
/// rungs in parallel on `workers` threads through the software engine.
/// Each rung is encoded two-pass at its ladder bitrate (the VOD fan-out
/// of Figure 3).
///
/// # Panics
///
/// Panics if `workers` is zero or the source is smaller than the lowest
/// rung at the chosen scale.
pub fn transcode_ladder(
    source: &Video,
    family: CodecFamily,
    preset: Preset,
    scale: u32,
    workers: usize,
) -> Vec<LadderOutput> {
    transcode_ladder_with(&Engine, Backend::Software(family), preset, source, scale, workers)
        .expect("software ladder transcode")
}

/// Backend-generic ladder: produces every rung through `engine` for any
/// [`Backend`]. Software rungs are encoded two-pass at their ladder
/// bitrate; hardware rungs use the ASIC's single-pass mode at the same
/// target (two-pass is not a hardware capability).
///
/// A ladder with holes is useless to a player, so per-rung failures are
/// folded back into an all-or-nothing [`BatchError::JobFailed`] via
/// [`crate::farm::EngineBatchReport::require_complete`].
///
/// # Errors
///
/// [`BatchError::NoWorkers`] when `workers` is zero;
/// [`BatchError::JobFailed`] when any rung's transcode failed.
///
/// # Panics
///
/// Panics if the source is smaller than the lowest rung at the chosen
/// scale.
pub fn transcode_ladder_with(
    engine: &dyn Transcoder,
    backend: Backend,
    preset: Preset,
    source: &Video,
    scale: u32,
    workers: usize,
) -> Result<Vec<LadderOutput>, BatchError> {
    let mut ladder_span = vtrace::span("ladder");
    let rungs: Vec<LadderRung> = rungs_for(source.resolution(), scale)
        .into_iter()
        .filter(|r| r.resolution.pixels() <= source.resolution().pixels())
        .collect();
    assert!(!rungs.is_empty(), "no ladder rung fits the source resolution");
    if ladder_span.id().is_some() {
        ladder_span.record("backend", backend.name());
        ladder_span.record("rungs", rungs.len());
        vtrace::counter("ladder.rungs_encoded", rungs.len() as u64);
    }
    let jobs: Vec<EngineJob> = rungs
        .iter()
        .map(|rung| {
            let video = resize_video(source, rung.resolution);
            let bps = target_bps(&video);
            let rate = backend.adapt(RateMode::TwoPassBitrate { bps });
            EngineJob::new(rung.name, video, TranscodeRequest::new(backend, preset, rate))
        })
        .collect();
    let report = transcode_batch(engine, &jobs, workers, &ResilienceConfig::default())?
        .require_complete()?;
    Ok(rungs
        .into_iter()
        .zip(report.results)
        // Invariant: require_complete() above guarantees every slot holds
        // a success.
        .map(|(rung, result)| LadderOutput {
            rung,
            output: result.outcome.expect("complete ladder"),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vframe::color::{frame_from_fn, Yuv};

    fn source() -> Video {
        // A 240p-class source at "scale 2" semantics: big enough to cover
        // several scaled rungs.
        let res = Resolution::new(426, 240);
        let frames = (0..4)
            .map(|t| {
                frame_from_fn(res, |x, y| Yuv::new(((x * 2 + y + 7 * t) % 256) as u8, 128, 128))
            })
            .collect();
        Video::new(frames, 30.0)
    }

    #[test]
    fn standard_ladder_is_sorted_desc() {
        let l = standard_ladder();
        for pair in l.windows(2) {
            assert!(pair[0].resolution.pixels() > pair[1].resolution.pixels());
        }
        assert_eq!(l[0].name, "2160p");
        assert_eq!(l.last().unwrap().name, "144p");
    }

    #[test]
    fn rungs_never_exceed_native() {
        let rungs = rungs_for(Resolution::new(1280, 720), 1);
        assert!(rungs.iter().all(|r| r.resolution.pixels() <= 1280 * 720));
        assert_eq!(rungs[0].name, "720p");
        assert!(rungs.iter().any(|r| r.name == "144p"));
    }

    #[test]
    fn scaled_rungs_shrink_dimensions() {
        let rungs = rungs_for(Resolution::new(480, 270), 4);
        // At scale 4, the 1080p rung becomes 480x270.
        let r1080 = rungs.iter().find(|r| r.name == "1080p").expect("1080p rung");
        assert_eq!(r1080.resolution, Resolution::new(480, 270));
    }

    #[test]
    fn ladder_produces_decodable_rungs_with_descending_sizes() {
        let out = transcode_ladder(&source(), CodecFamily::Avc, Preset::Fast, 1, 4);
        assert!(out.len() >= 2, "expected at least 240p and 144p, got {}", out.len());
        let mut last_pixels = u64::MAX;
        for rung in &out {
            assert!(rung.rung.resolution.pixels() < last_pixels, "descending order");
            last_pixels = rung.rung.resolution.pixels();
            let decoded = vcodec::decode(&rung.output.bytes).expect("rung decodes");
            assert_eq!(decoded.resolution(), rung.rung.resolution);
            let m = rung.measurement();
            assert!(m.quality_db > 20.0, "{}: {} dB", rung.rung.name, m.quality_db);
        }
        // Smaller rungs cost fewer absolute bytes.
        assert!(
            out.last().unwrap().output.bytes.len() < out[0].output.bytes.len(),
            "ladder should shrink"
        );
    }

    /// A hardware rung's speed is the pipeline model's, not the wall time
    /// of the software codec standing in for the ASIC's bitstream.
    #[test]
    fn hardware_rungs_report_the_modelled_speed() {
        let src = source();
        let vendor = vhw::HwVendor::Nvenc;
        let out =
            transcode_ladder_with(&Engine, Backend::Hardware(vendor), Preset::Fast, &src, 1, 2)
                .expect("hardware ladder");
        assert!(out.len() >= 2);
        for rung in &out {
            let video = resize_video(&src, rung.rung.resolution);
            let request =
                TranscodeRequest::hardware(vendor, RateMode::Bitrate { bps: target_bps(&video) });
            let modelled = Engine.transcode(&video, &request).expect("hardware rung");
            assert_eq!(
                rung.measurement().speed_pps,
                modelled.measurement.speed_pps,
                "{}",
                rung.rung.name
            );
        }
    }

    #[test]
    fn hardware_ladder_runs_single_pass() {
        let out = transcode_ladder_with(
            &Engine,
            Backend::Hardware(vhw::HwVendor::Qsv),
            Preset::Fast,
            &source(),
            1,
            2,
        )
        .expect("hardware ladder");
        assert!(out.len() >= 2);
        for rung in &out {
            let decoded = vcodec::decode(&rung.output.bytes).expect("rung decodes");
            assert_eq!(decoded.resolution(), rung.rung.resolution);
        }
    }
}
