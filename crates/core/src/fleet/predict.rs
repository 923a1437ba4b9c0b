//! Content-feature cost prediction: encode seconds per instance type.
//!
//! The planner must price a job on every catalog entry *before* any
//! frame exists, from the same corpus metadata the service layer
//! schedules on: resolution (log₂ pixels), frame rate, and published
//! entropy. Two regimes, mirroring the paper's software/hardware split:
//!
//! * **Fixed-function** entries are content independent — prediction is
//!   the [`vhw::PipelineModel`] stage arithmetic itself
//!   ([`vhw::PipelineModel::stage_seconds_for`]), so a predicted
//!   hardware encode matches the modeled one exactly.
//! * **Software** entries scale with content: predicted work is pixels
//!   × preset effort × a content multiplier that grows with entropy and
//!   (log₂) resolution, plus a per-frame overhead. The multiplier's
//!   coefficients are calibrated against real `vcodec` encodes of the
//!   seed corpus, using [`vcodec::KernelCounters::total_samples`] — a
//!   machine-independent work measure — as ground truth; the
//!   calibration test in this module pins the fit and its error bound.

use vcodec::Preset;
use vhw::{EncoderKind, InstanceCatalog, InstanceType};

/// The corpus features a job is priced on. Constructed from suite
/// metadata (see `VideoProfile::features`); no clip is materialized.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JobFeatures {
    /// Frame size in pixels.
    pub pixels_per_frame: u64,
    /// Clip length in frames.
    pub frames: u64,
    /// Frame rate in frames per second.
    pub fps: f64,
    /// Published category entropy (bits/pixel at visually lossless).
    pub entropy: f64,
    /// The preset the job will run at (scenario reference, possibly
    /// degraded).
    pub preset: Preset,
}

impl JobFeatures {
    /// Total source pixels across the clip.
    pub fn total_pixels(&self) -> f64 {
        self.pixels_per_frame as f64 * self.frames as f64
    }

    /// log₂ of the frame size — the resolution feature the predictor
    /// and the corpus clustering both operate on.
    pub fn log2_resolution(&self) -> f64 {
        (self.pixels_per_frame.max(1) as f64).log2()
    }
}

/// Software-work model coefficients, fit against `total_samples()` of
/// real reference encodes of the seed corpus (the calibration
/// round-trip in `tests/fleet_pareto.rs` pins the fit to a ±15%
/// multiplicative bound). The content multiplier is
/// `(ENTROPY_BASE + ENTROPY_SLOPE · entropy) ·
/// (1 + RES_SLOPE · clamp(log₂px − RES_PIVOT_LOG2, 0, RES_SPAN_LOG2))`:
/// monotone non-decreasing in both entropy and pixels by construction.
const ENTROPY_BASE: f64 = 0.9;
const ENTROPY_SLOPE: f64 = 0.021;
const RES_PIVOT_LOG2: f64 = 12.0;
/// The fit drove the residual resolution slope to zero: once the
/// per-frame overhead is modeled, per-pixel software cost is flat in
/// frame size on the seed corpus. The term stays so the model's shape —
/// and its monotonicity guarantee in log₂ resolution — is stated in one
/// place, and a future refit only changes numbers here.
const RES_SLOPE: f64 = 0.0;
const RES_SPAN_LOG2: f64 = 8.0;
/// The entropy at which the content multiplier is 1: what a caller
/// prices a job at before any published entropy is known (the
/// executor's claim order). Over the suite's 0.2–8 bit range the
/// multiplier only spans 0.90–1.07.
pub(crate) const NEUTRAL_ENTROPY: f64 = (1.0 - ENTROPY_BASE) / ENTROPY_SLOPE;
/// Per-frame software overhead, in reference-pixel equivalents.
const FRAME_OVERHEAD_PIXELS: f64 = 1_440.0;
/// Kernel samples one reference-pixel equivalent of work corresponds
/// to: the single calibration constant tying the abstract work model to
/// `vcodec`'s machine-independent sample counters.
pub const WORK_SAMPLES_PER_PIXEL: f64 = 32.0;

/// Predicted *software* work for a job, in reference-pixel equivalents
/// (the units [`WORK_SAMPLES_PER_PIXEL`] calibrates): divide by an
/// instance's software `base_pixels_per_sec` for seconds. Instance
/// independent, so the planner computes it once per job.
pub fn predict_work_pixels(features: &JobFeatures) -> f64 {
    let content = (ENTROPY_BASE + ENTROPY_SLOPE * features.entropy)
        * (1.0
            + RES_SLOPE * (features.log2_resolution() - RES_PIVOT_LOG2).clamp(0.0, RES_SPAN_LOG2));
    features.total_pixels() * effort(features.preset) * content
        + features.frames as f64 * FRAME_OVERHEAD_PIXELS
}

/// Effort multiplier for a preset, *fitted* rather than borrowed from
/// the service sim's shed-cost ladder: the real encoder's cost curve is
/// far steeper at the slow end (the Popular reference adds a second
/// pass on top of `VerySlow`'s exhaustive search), and the calibration
/// encodes measure that directly. The three scoring-scenario presets
/// (`VeryFast`, `Fast`, `VerySlow`) are fitted; the rest are
/// interpolated on the same curve and kept monotone in the ladder.
fn effort(preset: Preset) -> f64 {
    match preset {
        Preset::UltraFast => 0.7,
        Preset::VeryFast => 0.9,
        Preset::Fast => 1.0,
        Preset::Medium => 3.0,
        Preset::Slow => 8.0,
        Preset::VerySlow => 21.0,
    }
}

/// Predicted encode seconds for `features` on one catalog instance.
pub fn predict_encode_secs(features: &JobFeatures, instance: &InstanceType) -> f64 {
    match instance.encoder {
        EncoderKind::Software { base_pixels_per_sec } => {
            predict_work_pixels(features) / base_pixels_per_sec
        }
        EncoderKind::Fixed(model) => {
            model.stage_seconds_for(features.pixels_per_frame, features.frames).total()
        }
    }
}

/// Predicted dollar cost of running `features` on one catalog instance:
/// predicted seconds at the instance's hourly rate.
pub fn predict_job_dollars(features: &JobFeatures, instance: &InstanceType) -> f64 {
    predict_encode_secs(features, instance) * instance.dollars_per_hour / 3600.0
}

/// The cheapest predicted dollar cost for `features` across a catalog —
/// the per-job "fair price" admission uses to order shed candidates by
/// value per dollar.
pub fn cheapest_job_dollars(features: &JobFeatures, catalog: &InstanceCatalog) -> f64 {
    catalog.entries().iter().map(|e| predict_job_dollars(features, e)).fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vhw::InstanceCatalog;

    #[test]
    fn effort_ladder_is_strictly_monotone() {
        let ladder = [
            Preset::UltraFast,
            Preset::VeryFast,
            Preset::Fast,
            Preset::Medium,
            Preset::Slow,
            Preset::VerySlow,
        ];
        for w in ladder.windows(2) {
            assert!(effort(w[0]) < effort(w[1]), "{:?} vs {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn cheapest_dollars_is_the_catalog_minimum() {
        let cat = InstanceCatalog::default_fleet();
        let f = JobFeatures {
            pixels_per_frame: 640 * 360,
            frames: 150,
            fps: 30.0,
            entropy: 5.0,
            preset: Preset::Fast,
        };
        let cheapest = cheapest_job_dollars(&f, &cat);
        assert!(cheapest > 0.0);
        for e in cat.entries() {
            assert!(cheapest <= predict_job_dollars(&f, e), "{}", e.name);
        }
        assert!(cat.entries().iter().any(|e| predict_job_dollars(&f, e) == cheapest));
    }

    #[test]
    fn hardware_prediction_is_the_pipeline_model_exactly() {
        let cat = InstanceCatalog::default_fleet();
        let f = JobFeatures {
            pixels_per_frame: 1280 * 720,
            frames: 120,
            fps: 30.0,
            entropy: 4.2,
            preset: Preset::Medium,
        };
        for e in cat.entries() {
            if let EncoderKind::Fixed(m) = e.encoder {
                let direct = m.stage_seconds_for(f.pixels_per_frame, f.frames).total();
                assert_eq!(predict_encode_secs(&f, e), direct, "{}", e.name);
            }
        }
    }
}
