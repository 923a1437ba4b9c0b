//! The vbench video suite (Table 2 of the paper).
//!
//! Fifteen videos, algorithmically selected from a commercial corpus,
//! spanning four resolutions and entropies from 0.2 to 7.7
//! bits/pixel/second. The original clips are YouTube uploads; this
//! reproduction synthesizes each one with a content generator whose class
//! and complexity are calibrated to the video's published category (see
//! DESIGN.md for the substitution argument).

use vcorpus::datasets::vbench_table2;
use vcorpus::VideoCategory;
use vframe::{Resolution, Video};
use vsynth::{Complexity, ContentClass, SourceSpec};

/// One suite entry: the published category plus the synthetic source that
/// stands in for the original clip.
#[derive(Clone, Debug)]
pub struct SuiteVideo {
    /// The paper's video name ("cat", "desktop", …).
    pub name: &'static str,
    /// Published category (resolution / framerate / entropy).
    pub category: VideoCategory,
    /// The synthetic source specification.
    pub spec: SourceSpec,
}

impl SuiteVideo {
    /// Generates the clip (deterministic).
    pub fn generate(&self) -> Video {
        self.spec.generate()
    }
}

/// Generation options for the suite.
///
/// The paper's clips are 5 seconds at native resolution — ideal for a real
/// measurement machine, heavy for CI. `scale` divides both dimensions and
/// `seconds` shortens clips, preserving each video's content class and
/// relative complexity; the *ratios* vbench scores are built on survive
/// scaling, the absolute Mpixels/s numbers do not (EXPERIMENTS.md reports
/// which scale each result used).
#[derive(Clone, Copy, Debug)]
pub struct SuiteOptions {
    /// Clip length in seconds (paper: 5.0).
    pub seconds: f64,
    /// Resolution divisor (1 = native; 4 = quarter dimensions).
    pub scale: u32,
    /// Generation seed.
    pub seed: u64,
}

impl Default for SuiteOptions {
    fn default() -> SuiteOptions {
        SuiteOptions { seconds: 5.0, scale: 1, seed: 0x7bec }
    }
}

impl SuiteOptions {
    /// A configuration small enough for debug-mode tests: quarter-ish
    /// resolution, one second.
    pub fn tiny() -> SuiteOptions {
        SuiteOptions { seconds: 0.4, scale: 8, seed: 0x7bec }
    }

    /// A configuration for release-mode experiments: half resolution,
    /// 2 seconds.
    pub fn experiment() -> SuiteOptions {
        SuiteOptions { seconds: 2.0, scale: 4, seed: 0x7bec }
    }
}

/// Run size (`--scale`): how large the synthesized clips are.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Scale {
    /// Smallest clips; seconds per experiment. Debug-safe.
    #[default]
    Tiny,
    /// Half-size clips; minutes per full table in release mode.
    Experiment,
    /// Paper-scale clips (native resolution, 5 s).
    Full,
}

impl Scale {
    /// Suite options for this scale.
    pub fn options(&self) -> SuiteOptions {
        match self {
            Scale::Tiny => SuiteOptions::tiny(),
            Scale::Experiment => SuiteOptions::experiment(),
            Scale::Full => SuiteOptions::default(),
        }
    }
}

impl std::str::FromStr for Scale {
    type Err = &'static str;

    fn from_str(s: &str) -> Result<Scale, Self::Err> {
        match s {
            "tiny" => Ok(Scale::Tiny),
            "experiment" | "exp" => Ok(Scale::Experiment),
            "full" => Ok(Scale::Full),
            _ => Err("expected tiny|exp|full"),
        }
    }
}

/// The full vbench suite.
#[derive(Clone, Debug)]
pub struct Suite {
    videos: Vec<SuiteVideo>,
}

/// Content class each Table 2 video maps to, by name.
fn class_for(name: &str) -> ContentClass {
    match name {
        "desktop" | "presentation" => ContentClass::ScreenCapture,
        "bike" | "funny" => ContentClass::Animation,
        "cricket" | "house" | "girl" | "landscape" | "chicken" => ContentClass::Natural,
        "game1" | "game2" | "game3" => ContentClass::Gaming,
        "cat" | "holi" | "hall" => ContentClass::Sports,
        _ => ContentClass::Natural,
    }
}

/// Typical entropy (bits/pixel/s) of a class at its default knobs; used to
/// scale complexity toward a target entropy.
fn class_typical_entropy(class: ContentClass) -> f64 {
    match class {
        ContentClass::Slideshow => 0.1,
        ContentClass::ScreenCapture => 0.25,
        ContentClass::Animation => 1.2,
        ContentClass::Natural => 3.5,
        ContentClass::Gaming => 5.5,
        ContentClass::Sports => 8.0,
    }
}

/// Calibrates a class's complexity knobs toward a target entropy using a
/// sub-linear scaling (entropy responds roughly like knobs^1.4).
pub fn complexity_for_entropy(class: ContentClass, target_entropy: f64) -> Complexity {
    let base = class.default_complexity();
    let factor = (target_entropy / class_typical_entropy(class)).powf(0.7);
    base.scaled(factor.clamp(0.3, 2.5))
}

/// Infers a content class from an entropy value alone — used when
/// synthesizing videos for dataset profiles (Netflix/Xiph/SPEC) whose
/// members have no published content class.
pub fn class_for_entropy(entropy: f64) -> ContentClass {
    match entropy {
        e if e < 0.5 => ContentClass::ScreenCapture,
        e if e < 1.5 => ContentClass::Animation,
        e if e < 4.5 => ContentClass::Natural,
        e if e < 7.0 => ContentClass::Gaming,
        _ => ContentClass::Sports,
    }
}

/// Builds a synthetic clip specification for an arbitrary video category —
/// the generator behind dataset-profile studies (e.g. reproducing the
/// Netflix/Xiph bias overlay of Figure 5).
pub fn synthetic_for_category(
    name: &'static str,
    category: &VideoCategory,
    opts: &SuiteOptions,
) -> SuiteVideo {
    let class = class_for_entropy(category.entropy);
    let res = resolution_for(category.kpixels, opts.scale);
    let frames = ((opts.seconds * f64::from(category.fps)).round() as usize).max(2);
    let spec = SourceSpec::new(
        res,
        f64::from(category.fps),
        frames,
        class,
        opts.seed ^ (category.kpixels as u64) << 20 ^ (category.entropy * 10.0) as u64,
    )
    .with_complexity(complexity_for_entropy(class, category.entropy));
    SuiteVideo { name, category: *category, spec }
}

/// Picture dimensions for a kilopixel category at a scale divisor.
fn resolution_for(kpixels: u32, scale: u32) -> Resolution {
    let (w, h) = match kpixels {
        410 => (854u32, 480u32),
        922 => (1280, 720),
        2074 => (1920, 1080),
        8294 => (3840, 2160),
        other => {
            // Generic 16:9 reconstruction for non-ladder categories.
            let pixels = f64::from(other) * 1000.0;
            let w = (pixels * 16.0 / 9.0).sqrt().round() as u32;
            (w, (pixels / f64::from(w.max(1))).round() as u32)
        }
    };
    Resolution::new((w / scale).max(16) & !1, (h / scale).max(16) & !1)
}

impl Suite {
    /// Builds the suite at the given options.
    ///
    /// # Panics
    ///
    /// Panics if the options produce zero-length clips.
    pub fn vbench(opts: &SuiteOptions) -> Suite {
        let videos = vbench_table2()
            .videos
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let class = class_for(v.name);
                let res = resolution_for(v.category.kpixels, opts.scale);
                let frames = ((opts.seconds * f64::from(v.category.fps)).round() as usize).max(2);
                let spec = SourceSpec::new(
                    res,
                    f64::from(v.category.fps),
                    frames,
                    class,
                    opts.seed ^ ((i as u64) << 8),
                )
                .with_complexity(complexity_for_entropy(class, v.category.entropy));
                SuiteVideo { name: v.name, category: v.category, spec }
            })
            .collect();
        Suite { videos }
    }

    /// The suite entries, sorted as in Table 2 (by resolution, then
    /// entropy).
    pub fn videos(&self) -> &[SuiteVideo] {
        &self.videos
    }

    /// Looks up a video by its paper name.
    pub fn by_name(&self, name: &str) -> Option<&SuiteVideo> {
        self.videos.iter().find(|v| v.name == name)
    }

    /// Number of videos (15 for the vbench suite).
    pub fn len(&self) -> usize {
        self.videos.len()
    }

    /// Whether the suite is empty (never, for [`Suite::vbench`]).
    pub fn is_empty(&self) -> bool {
        self.videos.is_empty()
    }

    /// Iterates the entries.
    pub fn iter(&self) -> std::slice::Iter<'_, SuiteVideo> {
        self.videos.iter()
    }
}

impl<'a> IntoIterator for &'a Suite {
    type Item = &'a SuiteVideo;
    type IntoIter = std::slice::Iter<'a, SuiteVideo>;

    fn into_iter(self) -> Self::IntoIter {
        self.videos.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_fifteen_entries() {
        let suite = Suite::vbench(&SuiteOptions::tiny());
        assert_eq!(suite.len(), 15);
        assert!(suite.by_name("desktop").is_some());
        assert!(suite.by_name("nonexistent").is_none());
    }

    #[test]
    fn scale_parsing() {
        assert_eq!("tiny".parse(), Ok(Scale::Tiny));
        assert_eq!("exp".parse(), Ok(Scale::Experiment));
        assert_eq!("experiment".parse(), Ok(Scale::Experiment));
        assert_eq!("full".parse(), Ok(Scale::Full));
        assert!("bogus".parse::<Scale>().is_err());
    }

    #[test]
    fn resolutions_follow_table2_at_native_scale() {
        let suite = Suite::vbench(&SuiteOptions { seconds: 0.1, scale: 1, seed: 1 });
        let cat = suite.by_name("cat").unwrap();
        assert_eq!(cat.spec.resolution, Resolution::new(854, 480));
        let chicken = suite.by_name("chicken").unwrap();
        assert_eq!(chicken.spec.resolution, Resolution::new(3840, 2160));
    }

    #[test]
    fn scaled_resolutions_preserve_ordering() {
        let suite = Suite::vbench(&SuiteOptions::tiny());
        let cat = suite.by_name("cat").unwrap().spec.resolution;
        let chicken = suite.by_name("chicken").unwrap().spec.resolution;
        assert!(chicken.pixels() > cat.pixels());
    }

    #[test]
    fn frame_counts_respect_fps() {
        let suite = Suite::vbench(&SuiteOptions { seconds: 1.0, scale: 8, seed: 1 });
        assert_eq!(suite.by_name("game3").unwrap().spec.frames, 60); // 60 fps
        assert_eq!(suite.by_name("house").unwrap().spec.frames, 24); // 24 fps
    }

    #[test]
    fn low_entropy_videos_get_lower_complexity() {
        let desktop = complexity_for_entropy(ContentClass::ScreenCapture, 0.2);
        let sports = complexity_for_entropy(ContentClass::Sports, 7.7);
        assert!(desktop.motion < sports.motion);
        assert!(desktop.detail < sports.detail);
    }

    #[test]
    fn generation_is_deterministic() {
        let suite = Suite::vbench(&SuiteOptions::tiny());
        let a = suite.by_name("girl").unwrap().generate();
        let b = suite.by_name("girl").unwrap().generate();
        assert_eq!(a.frame(0), b.frame(0));
    }

    #[test]
    fn class_inference_orders_by_entropy() {
        assert_eq!(class_for_entropy(0.2), ContentClass::ScreenCapture);
        assert_eq!(class_for_entropy(1.0), ContentClass::Animation);
        assert_eq!(class_for_entropy(3.0), ContentClass::Natural);
        assert_eq!(class_for_entropy(5.0), ContentClass::Gaming);
        assert_eq!(class_for_entropy(9.0), ContentClass::Sports);
    }

    #[test]
    fn synthetic_for_category_generates() {
        let cat = vcorpus::VideoCategory::new(922, 30, 2.5);
        let sv = synthetic_for_category("probe", &cat, &SuiteOptions::tiny());
        let v = sv.generate();
        assert!(v.len() >= 2);
        assert_eq!(sv.category, cat);
    }

    #[test]
    fn generic_resolution_reconstruction_is_even() {
        let r = resolution_for(1234, 1);
        assert!(r.width().is_multiple_of(2) && r.height().is_multiple_of(2));
        let kpix_err = (f64::from(r.kpixels()) - 1234.0).abs() / 1234.0;
        assert!(kpix_err < 0.1, "kpixels {} vs 1234", r.kpixels());
    }
}
