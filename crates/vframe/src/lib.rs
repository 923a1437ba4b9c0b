//! Raw video frame infrastructure for the vbench reproduction.
//!
//! This crate provides the uncompressed-video substrate every other crate in
//! the workspace builds on:
//!
//! * [`Plane`] — a single 8-bit sample plane with row-major storage,
//! * [`Frame`] — a YUV 4:2:0 picture (one luma plane, two half-resolution
//!   chroma planes),
//! * [`Video`] — a sequence of frames with a frame rate,
//! * [`Resolution`] — typed width × height with the kilopixel helpers the
//!   paper's category definition uses,
//! * [`color`] — RGB ↔ YUV (BT.601) conversion and chroma subsampling,
//! * [`metrics`] — MSE, PSNR (per plane and YCbCr-weighted) and SSIM,
//! * [`filter`] — optional denoising pre-filters (spatial + temporal),
//! * [`scale`] — bilinear rescaling (the ABR-ladder fan-out substrate),
//! * [`source`] — pull-based [`FrameSource`] streams for the bounded-memory
//!   data path,
//! * [`block`] — block copy/paste and SAD / SATD distortion kernels used by
//!   the encoders in `vcodec`,
//! * [`isa`] — runtime ISA dispatch: [`multiversion!`] compiles a kernel
//!   once per vector rung and calls the widest this CPU runs.
//!
//! # Example
//!
//! ```
//! use vframe::{Frame, Resolution};
//! use vframe::metrics::psnr_ycbcr;
//!
//! let res = Resolution::new(64, 48);
//! let a = Frame::filled(res, 100, 128, 128);
//! let mut b = a.clone();
//! b.y_mut().fill(104); // distort the luma plane slightly
//! let q = psnr_ycbcr(&a, &b);
//! assert!(q > 30.0 && q < 80.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Every kernel here is safe Rust the compiler vectorizes. The one
// `unsafe` is `isa::multiversion!`'s call into a detected rung, allowed
// on that call alone.
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod block;
pub mod color;
pub mod filter;
pub mod isa;
pub mod metrics;
mod plane;
pub mod scale;
pub mod source;

pub use plane::Plane;
pub use source::{FrameSource, VideoSource};

use std::fmt;

/// A picture size in pixels.
///
/// Both dimensions must be even so that a YUV 4:2:0 [`Frame`] has exact
/// half-resolution chroma planes; [`Resolution::new`] enforces this.
///
/// ```
/// use vframe::Resolution;
/// let hd = Resolution::new(1920, 1080);
/// assert_eq!(hd.kpixels(), 2074);
/// assert_eq!(hd.pixels(), 1920 * 1080);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Resolution {
    width: u32,
    height: u32,
}

impl Resolution {
    /// Creates a resolution.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or odd (YUV 4:2:0 requires even
    /// dimensions).
    pub fn new(width: u32, height: u32) -> Resolution {
        assert!(width > 0 && height > 0, "resolution must be non-zero");
        assert!(
            width.is_multiple_of(2) && height.is_multiple_of(2),
            "resolution must have even dimensions for 4:2:0 chroma, got {width}x{height}"
        );
        Resolution { width, height }
    }

    /// Width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Total pixels per frame.
    pub fn pixels(&self) -> u64 {
        u64::from(self.width) * u64::from(self.height)
    }

    /// Resolution in kilopixels, rounded to the nearest integer — the unit
    /// used by the paper's video *category* definition (width × height /
    /// 1000, rounded).
    pub fn kpixels(&self) -> u32 {
        ((self.pixels() as f64) / 1000.0).round() as u32
    }

    /// 854×480 (480p), the smallest resolution in the vbench suite.
    pub const fn p480() -> Resolution {
        Resolution { width: 854, height: 480 }
    }

    /// 1280×720 (720p).
    pub const fn p720() -> Resolution {
        Resolution { width: 1280, height: 720 }
    }

    /// 1920×1080 (1080p).
    pub const fn p1080() -> Resolution {
        Resolution { width: 1920, height: 1080 }
    }

    /// 3840×2160 (2160p / 4K).
    pub const fn p2160() -> Resolution {
        Resolution { width: 3840, height: 2160 }
    }
}

impl fmt::Display for Resolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.width, self.height)
    }
}

/// A YUV 4:2:0 picture: full-resolution luma (Y) and half-resolution chroma
/// (Cb, Cr — called U and V throughout).
///
/// ```
/// use vframe::{Frame, Resolution};
/// let f = Frame::filled(Resolution::new(16, 16), 90, 120, 130);
/// assert_eq!(f.y().width(), 16);
/// assert_eq!(f.u().width(), 8);
/// assert_eq!(f.v().height(), 8);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Frame {
    resolution: Resolution,
    y: Plane,
    u: Plane,
    v: Plane,
}

impl Frame {
    /// Creates a black frame (Y = 16, U = V = 128, i.e. video-range black).
    pub fn black(resolution: Resolution) -> Frame {
        Frame::filled(resolution, 16, 128, 128)
    }

    /// Creates a frame with each plane filled with a constant sample value.
    pub fn filled(resolution: Resolution, y: u8, u: u8, v: u8) -> Frame {
        let (w, h) = (resolution.width as usize, resolution.height as usize);
        Frame {
            resolution,
            y: Plane::filled(w, h, y),
            u: Plane::filled(w / 2, h / 2, u),
            v: Plane::filled(w / 2, h / 2, v),
        }
    }

    /// Builds a frame from previously constructed planes.
    ///
    /// # Panics
    ///
    /// Panics if the plane dimensions are inconsistent with `resolution`
    /// (luma full size, chroma exactly half size).
    pub fn from_planes(resolution: Resolution, y: Plane, u: Plane, v: Plane) -> Frame {
        let (w, h) = (resolution.width as usize, resolution.height as usize);
        assert_eq!((y.width(), y.height()), (w, h), "luma plane size mismatch");
        assert_eq!((u.width(), u.height()), (w / 2, h / 2), "U plane size mismatch");
        assert_eq!((v.width(), v.height()), (w / 2, h / 2), "V plane size mismatch");
        Frame { resolution, y, u, v }
    }

    /// The frame's resolution.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// The luma plane.
    pub fn y(&self) -> &Plane {
        &self.y
    }

    /// The Cb chroma plane.
    pub fn u(&self) -> &Plane {
        &self.u
    }

    /// The Cr chroma plane.
    pub fn v(&self) -> &Plane {
        &self.v
    }

    /// Mutable access to the luma plane.
    pub fn y_mut(&mut self) -> &mut Plane {
        &mut self.y
    }

    /// Mutable access to the Cb plane.
    pub fn u_mut(&mut self) -> &mut Plane {
        &mut self.u
    }

    /// Mutable access to the Cr plane.
    pub fn v_mut(&mut self) -> &mut Plane {
        &mut self.v
    }

    /// All three planes, luma first.
    pub fn planes(&self) -> [&Plane; 3] {
        [&self.y, &self.u, &self.v]
    }

    /// Raw size of the frame in bytes (Y + U + V samples).
    pub fn raw_bytes(&self) -> usize {
        self.y.data().len() + self.u.data().len() + self.v.data().len()
    }
}

impl fmt::Debug for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Frame")
            .field("resolution", &self.resolution)
            .field("raw_bytes", &self.raw_bytes())
            .finish()
    }
}

/// An uncompressed video clip: an ordered frame sequence plus frame rate.
///
/// ```
/// use vframe::{Frame, Resolution, Video};
/// let res = Resolution::new(32, 32);
/// let frames = vec![Frame::black(res); 10];
/// let v = Video::new(frames, 30.0);
/// assert_eq!(v.len(), 10);
/// assert!((v.duration_secs() - 10.0 / 30.0).abs() < 1e-9);
/// ```
#[derive(Clone, Debug)]
pub struct Video {
    frames: Vec<Frame>,
    fps: f64,
}

impl Video {
    /// Creates a video from frames at the given frame rate.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty, frames disagree on resolution, or `fps`
    /// is not strictly positive and finite.
    pub fn new(frames: Vec<Frame>, fps: f64) -> Video {
        assert!(!frames.is_empty(), "a video needs at least one frame");
        assert!(fps.is_finite() && fps > 0.0, "frame rate must be positive");
        let res = frames[0].resolution();
        assert!(
            frames.iter().all(|f| f.resolution() == res),
            "all frames must share one resolution"
        );
        Video { frames, fps }
    }

    /// Frame rate in frames per second.
    pub fn fps(&self) -> f64 {
        self.fps
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the clip has zero frames. Always `false` for a constructed
    /// [`Video`]; present for API completeness.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The clip's resolution.
    pub fn resolution(&self) -> Resolution {
        self.frames[0].resolution()
    }

    /// Clip duration in seconds.
    pub fn duration_secs(&self) -> f64 {
        self.frames.len() as f64 / self.fps
    }

    /// Borrowed access to frame `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn frame(&self, i: usize) -> &Frame {
        &self.frames[i]
    }

    /// Iterates over the frames in display order.
    pub fn iter(&self) -> std::slice::Iter<'_, Frame> {
        self.frames.iter()
    }

    /// All frames as a slice.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// Consumes the video and returns its frames.
    pub fn into_frames(self) -> Vec<Frame> {
        self.frames
    }

    /// Total raw pixel count across all frames — the numerator of the
    /// paper's *pixels per second* transcoding speed metric.
    pub fn total_pixels(&self) -> u64 {
        self.resolution().pixels() * self.frames.len() as u64
    }
}

impl<'a> IntoIterator for &'a Video {
    type Item = &'a Frame;
    type IntoIter = std::slice::Iter<'a, Frame>;

    fn into_iter(self) -> Self::IntoIter {
        self.frames.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution_kpixels_matches_paper_categories() {
        assert_eq!(Resolution::p480().kpixels(), 410);
        assert_eq!(Resolution::p720().kpixels(), 922);
        assert_eq!(Resolution::p1080().kpixels(), 2074);
        assert_eq!(Resolution::p2160().kpixels(), 8294);
    }

    #[test]
    #[should_panic(expected = "even dimensions")]
    fn odd_resolution_rejected() {
        let _ = Resolution::new(31, 32);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_resolution_rejected() {
        let _ = Resolution::new(0, 2);
    }

    #[test]
    fn frame_chroma_is_half_size() {
        let f = Frame::black(Resolution::new(100, 50));
        assert_eq!(f.y().width(), 100);
        assert_eq!(f.u().width(), 50);
        assert_eq!(f.u().height(), 25);
        assert_eq!(f.raw_bytes(), 100 * 50 + 2 * 50 * 25);
    }

    #[test]
    fn video_duration() {
        let res = Resolution::new(16, 16);
        let v = Video::new(vec![Frame::black(res); 60], 24.0);
        assert!((v.duration_secs() - 2.5).abs() < 1e-12);
        assert_eq!(v.total_pixels(), 60 * 256);
    }

    #[test]
    #[should_panic(expected = "share one resolution")]
    fn mixed_resolution_video_rejected() {
        let a = Frame::black(Resolution::new(16, 16));
        let b = Frame::black(Resolution::new(32, 32));
        let _ = Video::new(vec![a, b], 30.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Resolution::p720().to_string(), "1280x720");
    }
}
