//! Frame rendering for the synthetic content classes.
//!
//! A scene is fully determined by `(seed, scene_index)`; a frame by
//! `(scene, local_time)`. Rendering is therefore random-access in time,
//! which keeps [`SourceSpec::generate_frame`](crate::SourceSpec::generate_frame)
//! consistent with whole-clip generation.

use crate::noise::FractalRows;
use crate::{ContentClass, SourceSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vframe::{Frame, Plane};

/// A moving foreground object (disc or rectangle) within one scene.
#[derive(Clone, Copy, Debug)]
struct Sprite {
    x0: f64,
    y0: f64,
    vx: f64,
    vy: f64,
    radius: f64,
    luma: u8,
    cb: u8,
    cr: u8,
    rectangular: bool,
}

impl Sprite {
    /// Sprite centre at local time `t`, bouncing off the frame edges.
    #[inline(always)]
    fn position(&self, t: f64, w: f64, h: f64) -> (f64, f64) {
        (bounce(self.x0 + self.vx * t, w), bounce(self.y0 + self.vy * t, h))
    }
}

/// Reflects `p` into `[0, limit]` (triangle wave), modelling objects that
/// bounce off the picture edges.
#[inline(always)]
fn bounce(p: f64, limit: f64) -> f64 {
    if limit <= 0.0 {
        return 0.0;
    }
    let period = 2.0 * limit;
    let m = p.rem_euclid(period);
    if m <= limit {
        m
    } else {
        period - m
    }
}

/// Renders the frames of one [`SourceSpec`].
///
/// A frame depends on `(spec, t)` alone; what is kept between calls is
/// scratch — the three noise evaluators' buffers and the current scene's
/// sprite list — never a pixel, so frames may be rendered in any order.
#[derive(Clone, Debug)]
pub(crate) struct SceneState {
    spec: SourceSpec,
    luma: FractalRows,
    cb: FractalRows,
    cr: FractalRows,
    /// The scene `sprites` was derived for.
    sprite_scene: Option<u32>,
    sprites: Vec<Sprite>,
}

impl SceneState {
    pub(crate) fn new(spec: SourceSpec) -> SceneState {
        let rows = FractalRows::new(spec.noise());
        SceneState {
            spec,
            luma: rows.clone(),
            cb: rows.clone(),
            cr: rows,
            sprite_scene: None,
            sprites: Vec::new(),
        }
    }

    pub(crate) fn spec(&self) -> &SourceSpec {
        &self.spec
    }

    /// Scene index and frame-within-scene for global frame `t`.
    fn scene_of(&self, t: u32) -> (u32, u32) {
        match self.spec.complexity.cut_period {
            Some(p) => (t / p, t % p),
            None => (0, t),
        }
    }

    /// Makes `self.sprites` the sprites of scene `scene`, deterministically
    /// derived from the seed; a no-op while the scene stays the same.
    fn place_sprites(&mut self, scene: u32) {
        if self.sprite_scene == Some(scene) {
            return;
        }
        self.sprite_scene = Some(scene);
        let class = self.spec.class;
        let count = match class {
            ContentClass::Slideshow => 0,
            ContentClass::ScreenCapture => 1, // a slow "cursor" box
            ContentClass::Animation => 5,
            ContentClass::Natural => 3,
            ContentClass::Gaming => 8,
            ContentClass::Sports => 12,
        };
        let mut rng =
            SmallRng::seed_from_u64(self.spec.seed ^ (u64::from(scene) << 32) ^ 0x5bd1_e995);
        let w = f64::from(self.spec.resolution.width());
        let h = f64::from(self.spec.resolution.height());
        let speed = 1.0 + self.spec.complexity.motion * 0.06 * w.min(h);
        let rect = matches!(class, ContentClass::ScreenCapture | ContentClass::Gaming);
        self.sprites.clear();
        self.sprites.extend((0..count).map(|_| Sprite {
            x0: rng.gen_range(0.0..w),
            y0: rng.gen_range(0.0..h),
            vx: rng.gen_range(-speed..speed),
            vy: rng.gen_range(-speed..speed),
            radius: rng.gen_range(0.03..0.12) * w.min(h),
            luma: rng.gen_range(40..220),
            cb: rng.gen_range(70..190),
            cr: rng.gen_range(70..190),
            rectangular: rect,
        }));
    }

    pub(crate) fn render(&mut self, t: u32) -> Frame {
        render(self, t)
    }
}

vframe::isa::multiversion! {
    /// Frame `t` of `state`'s spec, compiled per ISA rung: the noise rows,
    /// the per-sample finishing and the sprites are inlined into it, so
    /// the whole frame runs at the rung's vector width.
    fn render(state: &mut SceneState, t: u32) -> Frame {
        let (scene, local_t) = state.scene_of(t);
        state.place_sprites(scene);
        let spec = &state.spec;
        let w = spec.resolution.width() as usize;
        let h = spec.resolution.height() as usize;
        let noise = spec.noise();
        let c = spec.complexity;

        // Slideshows freeze the local clock: every frame in a scene is the
        // scene's still image.
        let lt = if spec.class == ContentClass::Slideshow { 0 } else { local_t };
        let ltf = f64::from(lt);

        // Scene-dependent offset decorrelates textures across cuts.
        let scene_off = f64::from(scene) * 977.0;
        // Global camera pan, in texture-space units per frame.
        let pan = c.motion * 3.0;
        let (pan_x, pan_y) = match spec.class {
            ContentClass::ScreenCapture => (0.0, (ltf * c.motion * 2.0).floor()),
            _ => (pan_x_curve(ltf, pan), ltf * pan * 0.23),
        };

        // Spatial frequency rises with the detail knob.
        let octaves = 1 + (c.detail * 5.0).round() as u32;
        let scale = 0.004 + c.detail * 0.05;

        let mut y_plane = Plane::filled(w, h, 0);
        let screencap = spec.class == ContentClass::ScreenCapture;
        let noise_amp = c.noise * 28.0;
        let texture_amp = 40.0 + c.detail * 70.0;
        if !screencap {
            let xs = (0..w).map(|xx| (xx as f64 + pan_x) * scale + scene_off);
            state.luma.restart(xs, ltf * 0.01, octaves, 0.55);
        }

        let finish = |base: f64, xx: usize, yy: usize| {
            let mut luma = base;
            if noise_amp > 0.0 {
                luma += noise.white(xx as i64, yy as i64, i64::from(t)) * noise_amp;
            }
            to_sample(luma)
        };
        for yy in 0..h {
            let row = y_plane.row_mut(yy);
            if screencap {
                for (xx, out) in row.iter_mut().enumerate() {
                    *out = finish(screen_luma(&noise, xx, yy, scene, pan_y as i64), xx, yy);
                }
            } else {
                let texture = state.luma.row((yy as f64 + pan_y) * scale + scene_off);
                for (xx, (out, v)) in row.iter_mut().zip(texture).enumerate() {
                    *out = finish(120.0 + v * texture_amp, xx, yy);
                }
            }
        }

        // Chroma planes: smooth color washes at half resolution.
        let (cw, ch) = (w / 2, h / 2);
        let mut u_plane = Plane::filled(cw, ch, 128);
        let mut v_plane = Plane::filled(cw, ch, 128);
        let chroma_amp = match spec.class {
            ContentClass::ScreenCapture => 8.0,
            ContentClass::Slideshow => 20.0,
            _ => 24.0 + c.detail * 20.0,
        };
        let cscale = scale * 0.7;
        let cxs = (0..cw).map(|cx| ((cx * 2) as f64 + pan_x) * cscale + scene_off);
        state.cb.restart(cxs.clone().map(|x| x + 31.0), ltf * 0.008, 2, 0.5);
        state.cr.restart(cxs.map(|x| x + 67.0), ltf * 0.008, 2, 0.5);
        for cy in 0..ch {
            let y = ((cy * 2) as f64 + pan_y) * cscale + scene_off;
            let washes = state.cb.row(y).iter().zip(state.cr.row(y + 13.0));
            let (u_row, v_row) = (u_plane.row_mut(cy), v_plane.row_mut(cy));
            for ((u, v), (ub, vb)) in u_row.iter_mut().zip(v_row).zip(washes) {
                *u = to_sample(128.0 + ub * chroma_amp);
                *v = to_sample(128.0 + vb * chroma_amp);
            }
        }

        // Foreground sprites.
        let (wf, hf) = (w as f64, h as f64);
        for s in &state.sprites {
            let (cx, cy) = s.position(ltf, wf, hf);
            draw_sprite(&mut y_plane, &mut u_plane, &mut v_plane, s, cx, cy);
        }

        // Gaming HUD: a static high-contrast strip along the bottom edge;
        // identical in every frame of the clip, so trivially inter-predicted.
        if spec.class == ContentClass::Gaming {
            let hud_h = (h / 12).max(4);
            for yy in h.saturating_sub(hud_h)..h {
                for xx in 0..w {
                    let v = if (xx / 6 + yy / 3) % 2 == 0 { 35 } else { 215 };
                    y_plane.set(xx, yy, v);
                }
            }
        }

        Frame::from_planes(spec.resolution, y_plane, u_plane, v_plane)
    }
}

/// Rounds a computed sample value to the nearest 8-bit level.
#[inline(always)]
fn to_sample(v: f64) -> u8 {
    v.round().clamp(0.0, 255.0) as u8
}

/// Smooth, direction-changing horizontal camera pan.
#[inline(always)]
fn pan_x_curve(t: f64, pan: f64) -> f64 {
    t * pan + (t * 0.07).sin() * pan * 6.0
}

/// Text-like screen content: light background, dark "glyph" blocks arranged
/// in lines, plus a window border. `scroll` shifts the text vertically the
/// way a document scroll does (whole rows, no resampling blur).
#[inline(always)]
fn screen_luma(
    noise: &crate::noise::NoiseField,
    x: usize,
    y: usize,
    scene: u32,
    scroll: i64,
) -> f64 {
    let doc_y = y as i64 + scroll;
    let line_h = 18i64;
    let within = doc_y.rem_euclid(line_h);
    // Window chrome: a 3-pixel band along the top and left edges only.
    if x < 3 || y < 3 {
        return 60.0;
    }
    if (6..14).contains(&within) {
        // Glyph band: blocky ink pattern, deterministic per (column-block, line).
        let col_block = (x / 7) as i64;
        let line = doc_y.div_euclid(line_h);
        let ink = noise.white(col_block, line, i64::from(scene)) > -0.2;
        // Line length varies: trailing whitespace on the right.
        let eol = noise.white(line, 7, i64::from(scene)).mul_add(0.25, 0.7);
        let frac = x as f64 / 1000.0;
        if ink && frac < eol {
            return 45.0;
        }
    }
    232.0
}

#[inline(always)]
fn draw_sprite(
    y_plane: &mut Plane,
    u_plane: &mut Plane,
    v_plane: &mut Plane,
    s: &Sprite,
    cx: f64,
    cy: f64,
) {
    let r = s.radius;
    let (w, h) = (y_plane.width() as isize, y_plane.height() as isize);
    let x_min = ((cx - r).floor() as isize).max(0);
    let x_max = ((cx + r).ceil() as isize).min(w - 1);
    let y_min = ((cy - r).floor() as isize).max(0);
    let y_max = ((cy + r).ceil() as isize).min(h - 1);
    for yy in y_min..=y_max {
        for xx in x_min..=x_max {
            let dx = xx as f64 - cx;
            let dy = yy as f64 - cy;
            let inside = if s.rectangular {
                dx.abs() <= r && dy.abs() <= r * 0.7
            } else {
                dx * dx + dy * dy <= r * r
            };
            if inside {
                y_plane.set(xx as usize, yy as usize, s.luma);
                let (cx2, cy2) = (xx as usize / 2, yy as usize / 2);
                if cx2 < u_plane.width() && cy2 < u_plane.height() {
                    u_plane.set(cx2, cy2, s.cb);
                    v_plane.set(cx2, cy2, s.cr);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounce_reflects() {
        assert!((bounce(5.0, 10.0) - 5.0).abs() < 1e-12);
        assert!((bounce(12.0, 10.0) - 8.0).abs() < 1e-12);
        assert!((bounce(-3.0, 10.0) - 3.0).abs() < 1e-12);
        assert!((bounce(25.0, 10.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn bounce_stays_in_range() {
        for i in -100..100 {
            let p = bounce(i as f64 * 1.7, 32.0);
            assert!((0.0..=32.0).contains(&p), "{p}");
        }
    }
}
