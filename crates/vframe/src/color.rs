//! RGB ↔ YUV color conversion (BT.601 full-range) and chroma subsampling.
//!
//! Video codecs operate in YUV rather than RGB because human vision is more
//! sensitive to luminance than to color (Section 2.1 of the paper); this
//! module provides the conversions the synthetic content generators use to
//! author frames in a perceptually meaningful space.

use crate::{Frame, Plane, Resolution};

/// An 8-bit RGB pixel.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Rgb {
    /// Red component.
    pub r: u8,
    /// Green component.
    pub g: u8,
    /// Blue component.
    pub b: u8,
}

impl Rgb {
    /// Creates an RGB pixel.
    pub const fn new(r: u8, g: u8, b: u8) -> Rgb {
        Rgb { r, g, b }
    }
}

/// An 8-bit YUV (YCbCr) pixel.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Yuv {
    /// Luma.
    pub y: u8,
    /// Blue-difference chroma (Cb).
    pub u: u8,
    /// Red-difference chroma (Cr).
    pub v: u8,
}

impl Yuv {
    /// Creates a YUV pixel.
    pub const fn new(y: u8, u: u8, v: u8) -> Yuv {
        Yuv { y, u, v }
    }
}

/// Converts one RGB pixel to YUV (BT.601, full range).
///
/// ```
/// use vframe::color::{rgb_to_yuv, Rgb};
/// let grey = rgb_to_yuv(Rgb::new(128, 128, 128));
/// assert_eq!(grey.y, 128);
/// assert_eq!(grey.u, 128);
/// assert_eq!(grey.v, 128);
/// ```
pub fn rgb_to_yuv(p: Rgb) -> Yuv {
    let (r, g, b) = (f64::from(p.r), f64::from(p.g), f64::from(p.b));
    let y = 0.299 * r + 0.587 * g + 0.114 * b;
    let u = -0.168_736 * r - 0.331_264 * g + 0.5 * b + 128.0;
    let v = 0.5 * r - 0.418_688 * g - 0.081_312 * b + 128.0;
    Yuv { y: clamp_u8(y), u: clamp_u8(u), v: clamp_u8(v) }
}

/// Converts one YUV pixel back to RGB (BT.601, full range).
///
/// The pair ([`rgb_to_yuv`], [`yuv_to_rgb`]) round-trips to within ±2 per
/// component; the loss comes from 8-bit quantization of the chroma axes.
pub fn yuv_to_rgb(p: Yuv) -> Rgb {
    let y = f64::from(p.y);
    let u = f64::from(p.u) - 128.0;
    let v = f64::from(p.v) - 128.0;
    let r = y + 1.402 * v;
    let g = y - 0.344_136 * u - 0.714_136 * v;
    let b = y + 1.772 * u;
    Rgb { r: clamp_u8(r), g: clamp_u8(g), b: clamp_u8(b) }
}

fn clamp_u8(x: f64) -> u8 {
    x.round().clamp(0.0, 255.0) as u8
}

/// Builds a YUV 4:2:0 [`Frame`] from full-resolution per-pixel YUV values
/// produced by `f(x, y)`; chroma is subsampled by 2×2 box averaging, the
/// same chroma-subsampling step every production transcode performs.
///
/// ```
/// use vframe::color::{frame_from_fn, Yuv};
/// use vframe::Resolution;
/// let f = frame_from_fn(Resolution::new(8, 8), |x, y| {
///     Yuv::new((x * 16) as u8, 128, (y * 16) as u8)
/// });
/// assert_eq!(f.y().get(4, 0), 64);
/// ```
pub fn frame_from_fn<F>(resolution: Resolution, mut f: F) -> Frame
where
    F: FnMut(u32, u32) -> Yuv,
{
    let (w, h) = (resolution.width() as usize, resolution.height() as usize);
    let mut y_plane = Plane::filled(w, h, 0);
    // Full-resolution chroma buffers, averaged down afterwards.
    let mut u_full = vec![0u16; w * h];
    let mut v_full = vec![0u16; w * h];
    for yy in 0..h {
        for xx in 0..w {
            let p = f(xx as u32, yy as u32);
            y_plane.set(xx, yy, p.y);
            u_full[yy * w + xx] = u16::from(p.u);
            v_full[yy * w + xx] = u16::from(p.v);
        }
    }
    let (cw, ch) = (w / 2, h / 2);
    let mut u_plane = Plane::filled(cw, ch, 0);
    let mut v_plane = Plane::filled(cw, ch, 0);
    for cy in 0..ch {
        for cx in 0..cw {
            let (x0, y0) = (cx * 2, cy * 2);
            let sum_u = u_full[y0 * w + x0]
                + u_full[y0 * w + x0 + 1]
                + u_full[(y0 + 1) * w + x0]
                + u_full[(y0 + 1) * w + x0 + 1];
            let sum_v = v_full[y0 * w + x0]
                + v_full[y0 * w + x0 + 1]
                + v_full[(y0 + 1) * w + x0]
                + v_full[(y0 + 1) * w + x0 + 1];
            u_plane.set(cx, cy, ((sum_u + 2) / 4) as u8);
            v_plane.set(cx, cy, ((sum_v + 2) / 4) as u8);
        }
    }
    Frame::from_planes(resolution, y_plane, u_plane, v_plane)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primaries_convert_sensibly() {
        let red = rgb_to_yuv(Rgb::new(255, 0, 0));
        assert!(red.y < 100, "red is dark in luma");
        assert!(red.v > 200, "red has high Cr");
        let white = rgb_to_yuv(Rgb::new(255, 255, 255));
        assert_eq!(white.y, 255);
        assert_eq!(white.u, 128);
        assert_eq!(white.v, 128);
    }

    #[test]
    fn rgb_yuv_roundtrip_close() {
        for &(r, g, b) in &[(0, 0, 0), (255, 255, 255), (10, 200, 60), (250, 3, 128)] {
            let orig = Rgb::new(r, g, b);
            let back = yuv_to_rgb(rgb_to_yuv(orig));
            assert!((i16::from(back.r) - i16::from(orig.r)).abs() <= 2, "{orig:?} -> {back:?}");
            assert!((i16::from(back.g) - i16::from(orig.g)).abs() <= 2, "{orig:?} -> {back:?}");
            assert!((i16::from(back.b) - i16::from(orig.b)).abs() <= 2, "{orig:?} -> {back:?}");
        }
    }

    #[test]
    fn chroma_subsampling_averages() {
        // Alternate U=0 / U=200 in a 2x2 quad: subsampled chroma is the mean.
        let f = frame_from_fn(Resolution::new(2, 2), |x, y| Yuv {
            y: 50,
            u: if (x + y) % 2 == 0 { 0 } else { 200 },
            v: 128,
        });
        assert_eq!(f.u().get(0, 0), 100);
        assert_eq!(f.v().get(0, 0), 128);
    }
}
