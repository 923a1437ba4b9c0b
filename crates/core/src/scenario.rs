//! The five vbench scoring scenarios (Table 1 of the paper).
//!
//! Each scenario models one stage of a video-sharing pipeline (Section
//! 2.5), eliminates one measurement dimension with a hard QoS constraint,
//! and scores the remaining two as a product:
//!
//! | Scenario | Constraint | Score |
//! |---|---|---|
//! | Upload | B > 0.2 | S × Q |
//! | Live | real-time speed | B × Q |
//! | VOD | Q ≥ 1 or ≥ 50 dB | S × B |
//! | Popular | B, Q ≥ 1 and S ≥ 0.1 | B × Q |
//! | Platform | B = Q = 1 | S |

use crate::measure::{Measurement, Ratios};
use vframe::{Resolution, Video};

/// The five scenarios.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Scenario {
    /// Ingest transcode to the universal format: fast and faithful; size
    /// barely matters (it is a temporary file).
    Upload,
    /// Live streaming: the transcoder must keep up with the output pixel
    /// rate.
    Live,
    /// Video-on-demand archival: never degrade quality; trade speed and
    /// size.
    Vod,
    /// High-effort re-transcode of popular videos: strictly better
    /// compression *and* quality, speed nearly irrelevant.
    Popular,
    /// Same encoder, new platform (compiler/ISA/microarchitecture): only
    /// speed may change.
    Platform,
}

impl Scenario {
    /// All scenarios in the paper's order.
    pub const ALL: [Scenario; 5] =
        [Scenario::Upload, Scenario::Live, Scenario::Vod, Scenario::Popular, Scenario::Platform];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::Upload => "Upload",
            Scenario::Live => "Live",
            Scenario::Vod => "VOD",
            Scenario::Popular => "Popular",
            Scenario::Platform => "Platform",
        }
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Tolerance band for the Platform scenario's `B = Q = 1` equality (the
/// encoder is unchanged; tiny measurement jitter is allowed).
const PLATFORM_TOLERANCE: f64 = 0.01;

/// A scored comparison of one transcode against its reference.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ScenarioScore {
    /// The scenario scored.
    pub scenario: Scenario,
    /// The S/B/Q ratios (always reported, per Section 4.3).
    pub ratios: Ratios,
    /// Whether the scenario's constraint was met.
    pub valid: bool,
    /// The score, when the constraint was met (`None` otherwise — the
    /// paper leaves invalid cells empty and flags them red).
    pub score: Option<f64>,
}

/// Scores `new` against `reference` under `scenario` (Table 1).
///
/// `live_required_pps` is the real-time pixel rate the Live scenario must
/// sustain — `video.resolution().pixels() × fps`; pass the actual clip via
/// [`score_with_video`] to have it derived.
pub fn score(
    scenario: Scenario,
    new: &Measurement,
    reference: &Measurement,
    live_required_pps: f64,
) -> ScenarioScore {
    let r = Ratios::of(new, reference);
    let (valid, value) = match scenario {
        Scenario::Upload => (r.b > 0.2, r.s * r.q),
        Scenario::Live => (new.speed_pps >= live_required_pps, r.b * r.q),
        Scenario::Vod => (r.q >= 1.0 || new.quality_db >= 50.0, r.s * r.b),
        Scenario::Popular => (r.b >= 1.0 && r.q >= 1.0 && r.s >= 0.1, r.b * r.q),
        Scenario::Platform => (
            (r.b - 1.0).abs() <= PLATFORM_TOLERANCE && (r.q - 1.0).abs() <= PLATFORM_TOLERANCE,
            r.s,
        ),
    };
    if vtrace::enabled() {
        vtrace::counter("scenario.cells_scored", 1);
        vtrace::counter(if valid { "scenario.cells_valid" } else { "scenario.cells_invalid" }, 1);
    }
    ScenarioScore { scenario, ratios: r, valid, score: valid.then_some(value) }
}

/// The Live scenario's per-job encode deadline, in seconds, from source
/// metadata alone: the clip's play-out duration, derived from the same
/// real-time pixel rate the scoring constraint uses
/// (`total pixels ÷ (pixels/frame × fps)`). A transcode that takes longer
/// than the clip lasts cannot keep up with a live stream; feed this to
/// [`crate::farm::EngineJob::with_deadline`] to make the farm enforce it.
pub fn live_deadline_secs_for(resolution: Resolution, fps: f64, frames: usize) -> f64 {
    let required_pps = resolution.pixels() as f64 * fps;
    let total_pixels = resolution.pixels() * frames as u64;
    total_pixels as f64 / required_pps.max(1e-9)
}

/// Scores with the Live real-time requirement derived from the clip.
pub fn score_with_video(
    scenario: Scenario,
    video: &Video,
    new: &Measurement,
    reference: &Measurement,
) -> ScenarioScore {
    let required = video.resolution().pixels() as f64 * video.fps();
    score(scenario, new, reference, required)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference() -> Measurement {
        Measurement::new(10e6, 2.0, 40.0)
    }

    #[test]
    fn upload_requires_bounded_bitrate() {
        let reference = reference();
        // 2x speed, same quality, 6x larger output: B = 1/6 < 0.2 -> invalid.
        let bloated = Measurement::new(20e6, 12.0, 40.0);
        let s = score(Scenario::Upload, &bloated, &reference, 0.0);
        assert!(!s.valid);
        assert_eq!(s.score, None);
        // 4x larger is within the allowance; score = S x Q = 2 x 1.
        let ok = Measurement::new(20e6, 8.0, 40.0);
        let s = score(Scenario::Upload, &ok, &reference, 0.0);
        assert!(s.valid);
        assert!((s.score.unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn live_requires_realtime() {
        let reference = reference();
        let new = Measurement::new(5e6, 1.0, 41.0);
        // Requirement 6 Mpix/s: 5 Mpix/s transcoder fails.
        let s = score(Scenario::Live, &new, &reference, 6e6);
        assert!(!s.valid);
        // Requirement 4 Mpix/s: passes; score = B x Q = 2 x 1.025.
        let s = score(Scenario::Live, &new, &reference, 4e6);
        assert!(s.valid);
        assert!((s.score.unwrap() - 2.0 * 1.025).abs() < 1e-9);
    }

    #[test]
    fn vod_quality_gate_has_lossless_escape() {
        let reference = reference();
        // Slightly worse quality, below 50 dB: invalid.
        let worse = Measurement::new(40e6, 2.0, 39.0);
        assert!(!score(Scenario::Vod, &worse, &reference, 0.0).valid);
        // Worse *ratio* but visually lossless (>= 50 dB): valid.
        let hi_ref = Measurement::new(10e6, 2.0, 52.0);
        let lossless = Measurement::new(40e6, 2.0, 51.0);
        let s = score(Scenario::Vod, &lossless, &hi_ref, 0.0);
        assert!(s.valid);
        assert!((s.score.unwrap() - 4.0).abs() < 1e-12); // S x B = 4 x 1
    }

    #[test]
    fn popular_demands_strict_improvement() {
        let reference = reference();
        // Better B but slightly worse Q: invalid.
        let half = Measurement::new(1e6 + 1.0, 1.0, 39.9);
        assert!(!score(Scenario::Popular, &half, &reference, 0.0).valid);
        // Better on both, 5x slower (S = 0.2 >= 0.1): valid, B x Q.
        let good = Measurement::new(2e6, 1.0, 41.0);
        let s = score(Scenario::Popular, &good, &reference, 0.0);
        assert!(s.valid);
        assert!((s.score.unwrap() - 2.0 * 1.025).abs() < 1e-9);
        // 20x slower: speed floor S >= 0.1 violated.
        let slow = Measurement::new(0.4e6, 1.0, 41.0);
        assert!(!score(Scenario::Popular, &slow, &reference, 0.0).valid);
    }

    #[test]
    fn platform_requires_identical_output() {
        let reference = reference();
        let same_output_faster = Measurement::new(15e6, 2.0, 40.0);
        let s = score(Scenario::Platform, &same_output_faster, &reference, 0.0);
        assert!(s.valid);
        assert!((s.score.unwrap() - 1.5).abs() < 1e-12);
        let changed_output = Measurement::new(15e6, 1.5, 40.0);
        assert!(!score(Scenario::Platform, &changed_output, &reference, 0.0).valid);
    }

    #[test]
    fn ratios_reported_even_when_invalid() {
        let reference = reference();
        let bad = Measurement::new(1e6, 100.0, 10.0);
        let s = score(Scenario::Popular, &bad, &reference, 0.0);
        assert!(!s.valid);
        assert!(s.ratios.b < 1.0 && s.ratios.q < 1.0);
    }

    #[test]
    fn live_deadline_is_clip_duration() {
        use vframe::color::{frame_from_fn, Yuv};
        use vframe::Resolution;
        let res = Resolution::new(32, 16);
        let frames = (0..60).map(|_| frame_from_fn(res, |_, _| Yuv::new(0, 128, 128))).collect();
        let v = Video::new(frames, 30.0);
        // 60 frames at 30 fps: the real-time bound is the 2 s play-out.
        assert!((live_deadline_secs_for(v.resolution(), v.fps(), v.len()) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn live_deadline_boundaries_stay_finite() {
        use vframe::Resolution;
        let tiny = Resolution::new(2, 2);
        // A zero-frame clip has nothing to play out: deadline 0, not NaN.
        assert_eq!(live_deadline_secs_for(tiny, 30.0, 0), 0.0);
        // Zero fps would divide by zero; the pixel-rate floor keeps the
        // deadline finite (absurdly long, which is the honest answer).
        let stalled = live_deadline_secs_for(tiny, 0.0, 10);
        assert!(stalled.is_finite() && stalled > 0.0);
        // Zero fps AND zero frames: 0/0 territory, still exactly 0.
        assert_eq!(live_deadline_secs_for(tiny, 0.0, 0), 0.0);
        // Resolution cancels out: the deadline is frames / fps for any
        // frame size, tiny or 8K.
        let small = live_deadline_secs_for(tiny, 24.0, 48);
        assert!((small - 2.0).abs() < 1e-9);
        let huge = live_deadline_secs_for(Resolution::new(7680, 4320), 24.0, 48);
        assert!((huge - small).abs() < 1e-9);
        // Extreme fps: a 240 fps 8K stream still gets frames/fps without
        // precision collapse.
        let fast = live_deadline_secs_for(Resolution::new(7680, 4320), 240.0, 240_000);
        assert!((fast - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn all_scenarios_have_unique_names() {
        let mut names: Vec<_> = Scenario::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
    }
}
