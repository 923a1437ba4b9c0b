//! Synthetic video sources for the vbench reproduction.
//!
//! The paper's suite is built from real YouTube uploads; those are not
//! redistributable here, so this crate synthesizes clips whose *transcoding
//! behaviour* matches each content category. The paper characterizes a video
//! by exactly three features — resolution, framerate, and entropy
//! (bits/pixel/second at visually lossless quality) — and our generators
//! expose knobs that span the same entropy range the YouTube corpus covers
//! (four orders of magnitude, from slideshows below 0.1 bit/pix/s to
//! high-motion sports above 10).
//!
//! Each [`ContentClass`] mimics one of the content archetypes the paper
//! names (Section 2.5 and Table 2): slideshows, screen captures ("desktop",
//! "presentation"), animation, natural video, gaming, and high-motion
//! sports. A [`SourceSpec`] fully determines a clip — generation is
//! deterministic given the seed.
//!
//! # Example
//!
//! ```
//! use vframe::Resolution;
//! use vsynth::{ContentClass, SourceSpec};
//!
//! let spec = SourceSpec::new(Resolution::new(64, 64), 30.0, 10, ContentClass::Animation, 7);
//! let video = spec.generate();
//! assert_eq!(video.len(), 10);
//! assert_eq!(video.resolution(), Resolution::new(64, 64));
//! // Deterministic: the same spec generates the same pixels.
//! assert_eq!(video.frame(3), spec.generate().frame(3));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod noise;
mod scene;

use noise::NoiseField;
use scene::SceneState;
use vframe::source::FrameSource;
use vframe::{Frame, Resolution, Video};

/// The content archetypes found in a video-sharing corpus (Section 2.5 of
/// the paper: "movies, television programs, music videos, video games, ...
/// animations, slideshows, and screen capture tutorials").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ContentClass {
    /// Still images with rare hard transitions; near-zero entropy.
    Slideshow,
    /// Flat UI regions and text-like detail with occasional scrolling;
    /// very low entropy ("desktop", "presentation" in Table 2).
    ScreenCapture,
    /// Smooth gradients and coherent shape motion; low-to-mid entropy.
    Animation,
    /// Textured backgrounds with steady camera pan; mid entropy
    /// ("house", "landscape", "funny").
    Natural,
    /// Sprite motion over detailed backgrounds with a static HUD; mid-high
    /// entropy ("game1".."game3").
    Gaming,
    /// High global+local motion, frequent scene cuts, sensor noise; the
    /// high-entropy end ("cat", "holi", "hall").
    Sports,
}

impl ContentClass {
    /// All classes, in increasing typical-entropy order.
    pub const ALL: [ContentClass; 6] = [
        ContentClass::Slideshow,
        ContentClass::ScreenCapture,
        ContentClass::Animation,
        ContentClass::Natural,
        ContentClass::Gaming,
        ContentClass::Sports,
    ];

    /// Default complexity knobs that give this class its characteristic
    /// entropy when encoded at visually lossless quality.
    pub fn default_complexity(&self) -> Complexity {
        match self {
            ContentClass::Slideshow => {
                Complexity { detail: 0.25, motion: 0.0, noise: 0.0, cut_period: Some(90) }
            }
            ContentClass::ScreenCapture => {
                Complexity { detail: 0.45, motion: 0.05, noise: 0.0, cut_period: None }
            }
            ContentClass::Animation => {
                Complexity { detail: 0.4, motion: 0.35, noise: 0.0, cut_period: Some(75) }
            }
            ContentClass::Natural => {
                Complexity { detail: 0.6, motion: 0.45, noise: 0.15, cut_period: Some(60) }
            }
            ContentClass::Gaming => {
                Complexity { detail: 0.7, motion: 0.65, noise: 0.1, cut_period: Some(50) }
            }
            ContentClass::Sports => {
                Complexity { detail: 0.85, motion: 0.9, noise: 0.45, cut_period: Some(30) }
            }
        }
    }
}

/// Tunable complexity knobs; all but `cut_period` range over `[0, 1]`.
///
/// Higher values raise the clip's entropy (bits/pixel/second needed at a
/// fixed quality): `detail` adds spatial high-frequency texture, `motion`
/// adds global pan and sprite velocity, `noise` adds per-frame sensor noise
/// (temporally uncorrelated, hence uncompressible), and `cut_period` inserts
/// hard scene changes every N frames.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Complexity {
    /// Spatial texture density in `[0, 1]`.
    pub detail: f64,
    /// Motion magnitude in `[0, 1]`.
    pub motion: f64,
    /// Temporally uncorrelated noise amplitude in `[0, 1]`.
    pub noise: f64,
    /// Frames between hard scene cuts; `None` disables cuts.
    pub cut_period: Option<u32>,
}

impl Complexity {
    /// Validates the knob ranges.
    ///
    /// # Panics
    ///
    /// Panics if any knob is outside `[0, 1]` or `cut_period` is `Some(0)`.
    pub fn validate(&self) {
        for (name, v) in [("detail", self.detail), ("motion", self.motion), ("noise", self.noise)] {
            assert!((0.0..=1.0).contains(&v), "{name} must be in [0,1], got {v}");
        }
        if let Some(p) = self.cut_period {
            assert!(p > 0, "cut_period must be non-zero");
        }
    }

    /// Scales the entropy-driving knobs by `factor`, clamping into range.
    /// `factor > 1` raises entropy, `< 1` lowers it. Used by calibration
    /// loops that match measured entropy to a target.
    pub fn scaled(&self, factor: f64) -> Complexity {
        Complexity {
            detail: (self.detail * factor).clamp(0.0, 1.0),
            motion: (self.motion * factor).clamp(0.0, 1.0),
            noise: (self.noise * factor).clamp(0.0, 1.0),
            cut_period: self.cut_period,
        }
    }
}

/// A fully deterministic description of a synthetic clip.
#[derive(Clone, Debug)]
pub struct SourceSpec {
    /// Picture size.
    pub resolution: Resolution,
    /// Frame rate in frames per second.
    pub fps: f64,
    /// Number of frames to generate.
    pub frames: usize,
    /// Content archetype.
    pub class: ContentClass,
    /// Complexity knobs (defaults to the class preset).
    pub complexity: Complexity,
    /// PRNG seed; two specs differing only in seed produce different clips
    /// with the same statistics.
    pub seed: u64,
}

impl SourceSpec {
    /// Creates a spec with the class's default complexity.
    pub fn new(
        resolution: Resolution,
        fps: f64,
        frames: usize,
        class: ContentClass,
        seed: u64,
    ) -> SourceSpec {
        SourceSpec { resolution, fps, frames, class, complexity: class.default_complexity(), seed }
    }

    /// Replaces the complexity knobs.
    pub fn with_complexity(mut self, complexity: Complexity) -> SourceSpec {
        self.complexity = complexity;
        self
    }

    /// Generates the clip by draining a [`SynthSource`] — the per-frame
    /// streaming path is the single render path; this is merely its
    /// materialized form.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero or the complexity knobs are invalid.
    pub fn generate(&self) -> Video {
        let mut source = self.source();
        let mut frames: Vec<Frame> = Vec::with_capacity(self.frames);
        while let Some(f) = source.next_frame() {
            frames.push(f);
        }
        Video::new(frames, self.fps)
    }

    /// Generates only frame `t` (cheaper than a full clip when probing).
    /// Same render path as [`SourceSpec::generate`] and [`SynthSource`].
    ///
    /// # Panics
    ///
    /// Panics if `t >= frames` or the knobs are invalid.
    pub fn generate_frame(&self, t: u32) -> Frame {
        assert!((t as usize) < self.frames, "frame index out of range");
        self.complexity.validate();
        SceneState::new(self.clone()).render(t)
    }

    /// Opens a streaming [`FrameSource`] over this spec: frames are
    /// rendered one at a time as they are pulled, so nothing but the
    /// consumer's own window stays resident.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero or the complexity knobs are invalid.
    pub fn source(&self) -> SynthSource {
        assert!(self.frames > 0, "at least one frame required");
        self.complexity.validate();
        SynthSource { scene: SceneState::new(self.clone()), next: 0 }
    }

    /// The noise field driving this spec's textures.
    pub(crate) fn noise(&self) -> NoiseField {
        NoiseField::new(self.seed)
    }
}

/// A streaming [`FrameSource`] over a [`SourceSpec`]: each pull renders
/// exactly one frame. Rendering is random-access in `t`; what carries over
/// between pulls is scratch only — the noise evaluators' buffers (about
/// 130 KB at 384 pixels wide, reused so a pull allocates just its three
/// planes) and the current scene's sprite list — and never a pixel, so
/// [`reset`](FrameSource::reset) is free and residency stays one frame.
/// This is the primary render path; [`SourceSpec::generate`] drains it.
#[derive(Clone, Debug)]
pub struct SynthSource {
    scene: SceneState,
    next: u32,
}

impl SynthSource {
    /// The spec this source renders.
    pub fn spec(&self) -> &SourceSpec {
        self.scene.spec()
    }
}

impl FrameSource for SynthSource {
    fn resolution(&self) -> Resolution {
        self.spec().resolution
    }

    fn fps(&self) -> f64 {
        self.spec().fps
    }

    fn len(&self) -> usize {
        self.spec().frames
    }

    fn next_frame(&mut self) -> Option<Frame> {
        if (self.next as usize) >= self.len() {
            return None;
        }
        let f = self.scene.render(self.next);
        self.next += 1;
        Some(f)
    }

    fn reset(&mut self) {
        self.next = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vframe::metrics::psnr_ycbcr;

    fn spec(class: ContentClass) -> SourceSpec {
        SourceSpec::new(Resolution::new(64, 64), 30.0, 12, class, 99)
    }

    #[test]
    fn all_classes_generate() {
        for class in ContentClass::ALL {
            let v = spec(class).generate();
            assert_eq!(v.len(), 12, "{class:?}");
        }
    }

    #[test]
    fn determinism_across_calls() {
        for class in [ContentClass::Natural, ContentClass::Sports] {
            let a = spec(class).generate();
            let b = spec(class).generate();
            for t in 0..a.len() {
                assert_eq!(a.frame(t), b.frame(t), "{class:?} frame {t}");
            }
        }
    }

    #[test]
    fn seeds_change_content() {
        let a = spec(ContentClass::Natural).generate();
        let mut s = spec(ContentClass::Natural);
        s.seed = 100;
        let b = s.generate();
        assert_ne!(a.frame(0), b.frame(0));
    }

    #[test]
    fn slideshow_frames_are_static_between_cuts() {
        let v = spec(ContentClass::Slideshow).generate();
        // Frames 0 and 5 are in the same scene (cut period 90): identical.
        assert_eq!(v.frame(0), v.frame(5));
    }

    #[test]
    fn sports_frames_change_every_frame() {
        let v = spec(ContentClass::Sports).generate();
        assert_ne!(v.frame(0), v.frame(1));
        // And substantially so: inter-frame PSNR is low for high motion.
        let p = psnr_ycbcr(v.frame(0), v.frame(1));
        assert!(p < 40.0, "sports should have large temporal change, got {p} dB");
    }

    #[test]
    fn slideshow_is_temporally_smoother_than_sports() {
        let slide = spec(ContentClass::Slideshow).generate();
        let sports = spec(ContentClass::Sports).generate();
        let p_slide = psnr_ycbcr(slide.frame(0), slide.frame(1));
        let p_sports = psnr_ycbcr(sports.frame(0), sports.frame(1));
        assert!(p_slide > p_sports, "slideshow {p_slide} vs sports {p_sports}");
    }

    #[test]
    fn detail_raises_spatial_variance() {
        let low = spec(ContentClass::Natural)
            .with_complexity(Complexity { detail: 0.1, motion: 0.3, noise: 0.0, cut_period: None })
            .generate();
        let high = spec(ContentClass::Natural)
            .with_complexity(Complexity { detail: 0.9, motion: 0.3, noise: 0.0, cut_period: None })
            .generate();
        assert!(high.frame(0).y().variance() > low.frame(0).y().variance());
    }

    #[test]
    fn streaming_source_matches_full_clip() {
        // `generate()` is now defined by draining the source, so pin the
        // independent per-frame path (`generate_frame`) against sequential
        // pulls, and pin reset-replay determinism.
        let s = spec(ContentClass::Gaming);
        let mut src = s.source();
        assert_eq!(src.len(), s.frames);
        assert_eq!(src.resolution(), s.resolution);
        let pulled: Vec<Frame> = std::iter::from_fn(|| src.next_frame()).collect();
        assert_eq!(pulled.len(), s.frames);
        for (t, f) in pulled.iter().enumerate() {
            assert_eq!(f, &s.generate_frame(t as u32), "frame {t}");
        }
        src.reset();
        let replay: Vec<Frame> = std::iter::from_fn(|| src.next_frame()).collect();
        assert_eq!(pulled, replay, "reset must replay identically");
        let v = s.generate();
        assert_eq!(v.frames(), &pulled[..], "generate() is the drained source");
    }

    #[test]
    fn kept_scratch_never_changes_a_frame() {
        // A source keeps its noise buffers and sprite list between pulls.
        // Whatever was rendered before — the previous frame, a later one,
        // another scene — frame `t` must be the frame a fresh state renders.
        for class in ContentClass::ALL {
            let s = spec(class)
                .with_complexity(Complexity { cut_period: Some(5), ..class.default_complexity() });
            let mut src = s.source();
            let pulled: Vec<Frame> = std::iter::from_fn(|| src.next_frame()).collect();
            src.reset();
            let replay: Vec<Frame> = std::iter::from_fn(|| src.next_frame()).collect();
            assert_eq!(pulled, replay, "{class:?}: reset must replay identically");
            // Shuffled, so cuts are crossed in both directions and frame 0
            // (second time layer skipped) follows frames that used it.
            let mut state = SceneState::new(s.clone());
            for t in [7, 2, 11, 0, 5, 4, 10, 1, 9, 3, 0, 8, 6] {
                let fresh = s.generate_frame(t);
                assert_eq!(pulled[t as usize], fresh, "{class:?} pulled frame {t}");
                assert_eq!(state.render(t), fresh, "{class:?} shuffled frame {t}");
            }
        }
    }

    #[test]
    fn smallest_resolutions_render() {
        // Width 2 leaves chroma one column wide, and one lattice cell
        // covers the whole row.
        for class in ContentClass::ALL {
            for (w, h) in [(2, 2), (2, 64), (64, 2), (4, 4)] {
                let s = SourceSpec::new(Resolution::new(w, h), 30.0, 3, class, 5);
                let v = s.generate();
                assert_eq!(v.len(), 3);
                assert_eq!(v.frame(2), &s.generate_frame(2), "{class:?} {w}x{h}");
            }
        }
    }

    #[test]
    fn a_frame_hashes_a_few_lattice_points_per_pixel() {
        // Work as a count, so the guard holds on any host. Calling the
        // pointwise `fractal` per pixel cost 49 lattice hashes per Sports
        // luma pixel and 41 per Natural one (luma, chroma and the one
        // white-noise hash); by rows it is 2.5 and 1.2.
        for (class, limit) in [(ContentClass::Sports, 4.0), (ContentClass::Natural, 3.0)] {
            let s = SourceSpec::new(Resolution::new(384, 216), 30.0, 8, class, 1);
            let hashes = noise::lattice_hashes_in(|| drop(s.generate_frame(5)));
            let per_pixel = hashes as f64 / s.resolution.pixels() as f64;
            assert!(per_pixel <= limit, "{class:?}: {per_pixel} lattice hashes per luma pixel");
            assert!(per_pixel >= 1.0, "{class:?}: the counter is not counting ({per_pixel})");
        }
    }

    #[test]
    fn scene_cuts_change_content_abruptly() {
        // With cut_period 5, frames 4 and 5 straddle a scene cut: the
        // temporal difference across the cut dwarfs the within-scene one.
        let s = spec(ContentClass::Natural).with_complexity(Complexity {
            detail: 0.5,
            motion: 0.2,
            noise: 0.0,
            cut_period: Some(5),
        });
        let v = s.generate();
        let within = psnr_ycbcr(v.frame(2), v.frame(3));
        let across = psnr_ycbcr(v.frame(4), v.frame(5));
        assert!(
            across < within - 3.0,
            "cut should be abrupt: across {across} dB vs within {within} dB"
        );
    }

    #[test]
    fn gaming_hud_is_static() {
        let v = spec(ContentClass::Gaming).generate();
        // The bottom HUD strip is identical across frames.
        let h = v.resolution().height() as usize;
        let hud_y = h - 2;
        let a = v.frame(0).y();
        let b = v.frame(5).y();
        for x in 0..a.width() {
            assert_eq!(a.get(x, hud_y), b.get(x, hud_y), "HUD differs at x={x}");
        }
    }

    #[test]
    fn noise_knob_decorrelates_frames() {
        let mk = |noise: f64| {
            spec(ContentClass::Natural)
                .with_complexity(Complexity { detail: 0.4, motion: 0.0, noise, cut_period: None })
                .generate()
        };
        let clean = mk(0.0);
        let noisy = mk(0.8);
        let p_clean = psnr_ycbcr(clean.frame(0), clean.frame(1));
        let p_noisy = psnr_ycbcr(noisy.frame(0), noisy.frame(1));
        assert!(p_noisy < p_clean, "noise must hurt temporal correlation");
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn invalid_complexity_rejected() {
        let s = spec(ContentClass::Natural).with_complexity(Complexity {
            detail: 1.5,
            motion: 0.0,
            noise: 0.0,
            cut_period: None,
        });
        let _ = s.generate();
    }
}
