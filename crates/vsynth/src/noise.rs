//! Deterministic value noise used to author synthetic textures.
//!
//! The generators need content whose spatial-frequency profile is tunable:
//! low-frequency gradients compress well (low entropy), high-frequency
//! octaves approach incompressible noise (high entropy). This module
//! implements seedable, coordinate-hashed *value noise* with fractal
//! octaves — deterministic for a `(seed, x, y, t)` tuple, so frames can be
//! regenerated without storing them.

/// A seedable 2D+time value-noise field.
///
/// ```
/// use vsynth::noise::NoiseField;
/// let n = NoiseField::new(7);
/// let a = n.fractal(1.5, 2.5, 0.0, 4, 0.5);
/// let b = n.fractal(1.5, 2.5, 0.0, 4, 0.5);
/// assert_eq!(a, b); // deterministic
/// assert!((-1.0..=1.0).contains(&a));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct NoiseField {
    seed: u64,
}

impl NoiseField {
    /// Creates a noise field from a seed.
    pub fn new(seed: u64) -> NoiseField {
        NoiseField { seed }
    }

    /// Hash of an integer lattice point into `[0, 1)`.
    #[inline(always)]
    fn lattice(&self, x: i64, y: i64, t: i64) -> f64 {
        count_lattice_hash();
        let mut h = self.seed ^ 0x9e37_79b9_7f4a_7c15;
        for v in [x as u64, y as u64, t as u64] {
            h ^= v.wrapping_mul(0xff51_afd7_ed55_8ccd);
            h = h.rotate_left(31).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        }
        h ^= h >> 33;
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Smoothly interpolated noise in `[-1, 1]` at continuous coordinates.
    pub fn sample(&self, x: f64, y: f64, t: f64) -> f64 {
        let (x0, y0, t0) = (x.floor(), y.floor(), t.floor());
        let (fx, fy, ft) = (x - x0, y - y0, t - t0);
        let (sx, sy, st) = (smooth(fx), smooth(fy), smooth(ft));
        let (xi, yi, ti) = (x0 as i64, y0 as i64, t0 as i64);
        let mut acc = 0.0;
        for (dt, wt) in [(0, 1.0 - st), (1, st)] {
            if wt == 0.0 {
                continue;
            }
            let c00 = self.lattice(xi, yi, ti + dt);
            let c10 = self.lattice(xi + 1, yi, ti + dt);
            let c01 = self.lattice(xi, yi + 1, ti + dt);
            let c11 = self.lattice(xi + 1, yi + 1, ti + dt);
            let top = c00 + (c10 - c00) * sx;
            let bot = c01 + (c11 - c01) * sx;
            acc += wt * (top + (bot - top) * sy);
        }
        acc * 2.0 - 1.0
    }

    /// Fractal (multi-octave) noise in `[-1, 1]`. `octaves` controls how
    /// much high-frequency energy is present; `persistence` the falloff per
    /// octave.
    ///
    /// # Panics
    ///
    /// Panics if `octaves` is zero.
    pub fn fractal(&self, x: f64, y: f64, t: f64, octaves: u32, persistence: f64) -> f64 {
        assert!(octaves > 0, "at least one octave required");
        let mut amp = 1.0;
        let mut freq = 1.0;
        let mut total = 0.0;
        let mut norm = 0.0;
        for _ in 0..octaves {
            total += amp * self.sample(x * freq, y * freq, t * freq);
            norm += amp;
            amp *= persistence;
            freq *= 2.0;
        }
        (total / norm).clamp(-1.0, 1.0)
    }

    /// White (per-sample, uncorrelated) noise in `[-1, 1]` — maximally
    /// incompressible; used to push content entropy up.
    #[inline(always)]
    pub fn white(&self, x: i64, y: i64, t: i64) -> f64 {
        self.lattice(x, y, t) * 2.0 - 1.0
    }
}

#[inline(always)]
fn smooth(t: f64) -> f64 {
    t * t * (3.0 - 2.0 * t)
}

/// [`NoiseField::fractal`] over the rows of an image, one row per call.
///
/// Along an image row `y` and `t` are constant, the row's `x` arguments are
/// the same for every row, and neighbouring pixels share lattice corners.
/// `sample` interpolates along `x` first, so its `top` and `bot` depend on
/// the column and the lattice row but not on where inside that lattice row
/// the image row falls. So: what `fractal` derives from `x` and `t` is
/// computed once per frame in [`restart`](FractalRows::restart); `top` and
/// `bot` are kept per column and recomputed only when the image row enters
/// a new lattice row — one freshly hashed lattice row per time layer when
/// it is the next one down, since the old `bot` is the new `top`; and
/// [`row`](FractalRows::row) is left with the `y` lerp, the time blend and
/// the octave sum. Every value is produced by the operation `sample` or
/// `fractal` uses, applied to the same `f64`s in the same order, so a row
/// equals the pointwise function bit for bit
/// (`tests::rows_equal_the_pointwise_fractal`).
///
/// The buffers survive `restart`, so a source that keeps one of these per
/// plane allocates nothing per frame once warm.
#[derive(Clone, Debug)]
pub(crate) struct FractalRows {
    noise: NoiseField,
    octaves: Vec<Octave>,
    norm: f64,
    /// One hashed lattice row, while `top`/`bot` are rebuilt from it.
    lattice_row: Vec<f64>,
    /// One octave's `sample` per column, before it joins `out`.
    acc: Vec<f64>,
    out: Vec<f64>,
}

/// One octave's cached state: `sample`'s locals, split by what they depend on.
#[derive(Clone, Debug, Default)]
struct Octave {
    amp: f64,
    freq: f64,
    columns: Columns,
    ti: i64,
    /// `sample`'s two time-layer weights, `1 - st` and `st`. A layer whose
    /// weight is exactly `0.0` is never hashed for nor read, as in `sample`.
    wt: [f64; 2],
    /// The lattice row `top` lies on; `None` until the frame's first `row`.
    yi: Option<i64>,
    layers: [XLerps; 2],
}

/// What `sample` derives from `x`, per column.
#[derive(Clone, Debug, Default)]
struct Columns {
    /// `smooth(fx)`.
    sx: Vec<f64>,
    /// The lattice cell `xi`, counted from `lo`.
    cell: Vec<u32>,
    /// Smallest `xi` of any column.
    lo: i64,
    /// Cells `lo..lo + cells` cover every column's own cell and the next.
    cells: usize,
}

/// Per column, `sample`'s `x` interpolation along lattice rows `yi` (`top`)
/// and `yi + 1` (`bot`) of one time layer.
#[derive(Clone, Debug, Default)]
struct XLerps {
    top: Vec<f64>,
    bot: Vec<f64>,
}

impl FractalRows {
    pub(crate) fn new(noise: NoiseField) -> FractalRows {
        FractalRows {
            noise,
            octaves: Vec::new(),
            norm: 0.0,
            lattice_row: Vec::new(),
            acc: Vec::new(),
            out: Vec::new(),
        }
    }

    /// Points the evaluator at a new frame: `xs` are the `x` arguments of
    /// one row's columns, `t`, `octaves` and `persistence` as for
    /// [`NoiseField::fractal`].
    ///
    /// # Panics
    ///
    /// Panics if `octaves` is zero, or if `xs` is empty or spans 2^32
    /// lattice cells or more.
    pub(crate) fn restart(
        &mut self,
        xs: impl Iterator<Item = f64> + Clone,
        t: f64,
        octaves: u32,
        persistence: f64,
    ) {
        assert!(octaves > 0, "at least one octave required");
        self.octaves.resize_with(octaves as usize, Octave::default);
        let mut amp = 1.0;
        let mut freq = 1.0;
        let mut norm = 0.0;
        for o in &mut self.octaves {
            o.restart(xs.clone(), t, amp, freq);
            norm += amp;
            amp *= persistence;
            freq *= 2.0;
        }
        self.norm = norm;
        let width = self.octaves[0].columns.sx.len();
        self.acc.resize(width, 0.0);
        self.out.resize(width, 0.0);
    }

    /// `fractal(xs[col], y, t, octaves, persistence)` for every column.
    /// Rows may be asked for in any order; the same lattice row again
    /// hashes nothing, the next one down one lattice row per time layer.
    #[inline(always)]
    pub(crate) fn row(&mut self, y: f64) -> &[f64] {
        self.out.fill(0.0);
        for o in &mut self.octaves {
            o.sample_row(&self.noise, y, &mut self.lattice_row, &mut self.acc);
            for (total, s) in self.out.iter_mut().zip(&self.acc) {
                *total += o.amp * s;
            }
        }
        for total in &mut self.out {
            *total = (*total / self.norm).clamp(-1.0, 1.0);
        }
        &self.out
    }
}

impl Octave {
    fn restart(&mut self, xs: impl Iterator<Item = f64> + Clone, t: f64, amp: f64, freq: f64) {
        self.amp = amp;
        self.freq = freq;
        let t = t * freq;
        let t0 = t.floor();
        let st = smooth(t - t0);
        self.ti = t0 as i64;
        self.wt = [1.0 - st, st];
        self.yi = None;
        self.columns.restart(xs.map(|x| x * freq));
        for layer in &mut self.layers {
            layer.top.resize(self.columns.sx.len(), 0.0);
            layer.bot.resize(self.columns.sx.len(), 0.0);
        }
    }

    /// `NoiseField::sample(xs[col] * freq, y * freq, t * freq)` for every
    /// column, into `acc`.
    #[inline(always)]
    fn sample_row(
        &mut self,
        noise: &NoiseField,
        y: f64,
        lattice_row: &mut Vec<f64>,
        acc: &mut [f64],
    ) {
        let y = y * self.freq;
        let y0 = y.floor();
        let sy = smooth(y - y0);
        let yi = y0 as i64;
        let stay = self.yi == Some(yi);
        let shift = self.yi.and_then(|prev| prev.checked_add(1)) == Some(yi);
        self.yi = Some(yi);
        acc.fill(0.0);
        for ((layer, wt), dt) in self.layers.iter_mut().zip(self.wt).zip(0..) {
            if wt == 0.0 {
                continue;
            }
            if !stay {
                let t = self.ti + dt;
                if shift {
                    // The lattice row that was `yi + 1` is `yi` now.
                    std::mem::swap(&mut layer.top, &mut layer.bot);
                } else {
                    self.columns.x_lerps(noise, yi, t, lattice_row, &mut layer.top);
                }
                self.columns.x_lerps(noise, yi + 1, t, lattice_row, &mut layer.bot);
            }
            for ((acc, top), bot) in acc.iter_mut().zip(&layer.top).zip(&layer.bot) {
                *acc += wt * (top + (bot - top) * sy);
            }
        }
        for acc in acc {
            *acc = *acc * 2.0 - 1.0;
        }
    }
}

impl Columns {
    /// `xs` are `sample`'s `x` arguments (already scaled by the octave).
    fn restart(&mut self, xs: impl Iterator<Item = f64> + Clone) {
        let (lo, hi) = xs
            .clone()
            .map(|x| x.floor() as i64)
            .fold((i64::MAX, i64::MIN), |(lo, hi), xi| (lo.min(xi), hi.max(xi)));
        let span = hi.checked_sub(lo).and_then(|span| u32::try_from(span).ok());
        self.lo = lo;
        self.cells = span.expect("a row has a column and spans < 2^32 lattice cells") as usize + 2;
        self.sx.clear();
        self.cell.clear();
        self.sx.reserve(xs.size_hint().0);
        self.cell.reserve(xs.size_hint().0);
        for x in xs {
            let x0 = x.floor();
            self.sx.push(smooth(x - x0));
            self.cell.push((x0 as i64 - lo) as u32);
        }
    }

    /// `sample`'s `c0 + (c1 - c0) * sx` along lattice row `(y, t)`, per
    /// column, into `lerps`.
    #[inline(always)]
    fn x_lerps(
        &self,
        noise: &NoiseField,
        y: i64,
        t: i64,
        lattice_row: &mut Vec<f64>,
        lerps: &mut [f64],
    ) {
        lattice_row.clear();
        lattice_row.extend((self.lo..).take(self.cells).map(|x| noise.lattice(x, y, t)));
        for ((lerp, sx), cell) in lerps.iter_mut().zip(&self.sx).zip(&self.cell) {
            let cell = *cell as usize;
            let (c0, c1) = (lattice_row[cell], lattice_row[cell + 1]);
            *lerp = c0 + (c1 - c0) * sx;
        }
    }
}

#[cfg(not(test))]
fn count_lattice_hash() {}

#[cfg(test)]
fn count_lattice_hash() {
    LATTICE_HASHES.with(|n| n.set(n.get() + 1));
}

#[cfg(test)]
thread_local! {
    /// Lattice points hashed by the current thread: the work a frame costs,
    /// as a count that does not depend on the host's speed.
    static LATTICE_HASHES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Lattice hashes the calling thread performed while running `f`.
#[cfg(test)]
pub(crate) fn lattice_hashes_in(f: impl FnOnce()) -> u64 {
    let before = LATTICE_HASHES.with(std::cell::Cell::get);
    f();
    LATTICE_HASHES.with(std::cell::Cell::get) - before
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One frame's worth of `fractal` arguments: column `c` of row `r` is
    /// the point `((c + pan.0) * scale + off.0, (r + pan.1) * scale + off.1)`.
    #[derive(Clone, Copy, Debug)]
    struct Grid {
        scale: f64,
        pan: (f64, f64),
        off: (f64, f64),
        t: f64,
        octaves: u32,
        persistence: f64,
        width: usize,
        rows: usize,
    }

    impl Grid {
        fn x(&self, col: usize) -> f64 {
            (col as f64 + self.pan.0) * self.scale + self.off.0
        }

        fn y(&self, row: usize) -> f64 {
            (row as f64 + self.pan.1) * self.scale + self.off.1
        }
    }

    /// Restarts `rows` on `g` and checks every row against the pointwise
    /// oracle: top to bottom (lattice rows stay or advance by one), then a
    /// row 1000 units further down (every octave jumps many lattice rows),
    /// then the first row again (a jump backwards).
    fn assert_rows_equal_fractal(noise: &NoiseField, rows: &mut FractalRows, g: Grid) {
        rows.restart((0..g.width).map(|c| g.x(c)), g.t, g.octaves, g.persistence);
        let ys = (0..g.rows).map(|r| g.y(r)).chain([g.y(g.rows) + 1000.0, g.y(0)]);
        for y in ys {
            let got = rows.row(y);
            assert_eq!(got.len(), g.width);
            for (col, got) in got.iter().enumerate() {
                let want = noise.fractal(g.x(col), y, g.t, g.octaves, g.persistence);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "col {col}, y {y}: {got} vs {want}, {g:?}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn rows_equal_the_pointwise_fractal(
            seed in any::<u64>(),
            scale in 0.004f64..0.054,
            offsets in (-300.0f64..300.0, -300.0f64..300.0, -2000.0f64..2000.0, -2000.0f64..2000.0),
            time in (0u8..3, 0.0f64..40.0),
            shape in (1u32..=6, 0.3f64..0.9),
            size in (1usize..=300, 1usize..=64),
        ) {
            // A third of the cases sit on an integer `t` (every octave's
            // second time layer has weight 0.0 and is skipped), a third on
            // a quarter (the higher octaves' only).
            let t = match time.0 {
                0 => time.1,
                1 => time.1.floor(),
                _ => (time.1 * 4.0).floor() / 4.0,
            };
            let g = Grid {
                scale,
                pan: (offsets.0, offsets.1),
                off: (offsets.2, offsets.3),
                t,
                octaves: shape.0,
                persistence: shape.1,
                width: size.0,
                rows: size.1,
            };
            let noise = NoiseField::new(seed);
            let mut rows = FractalRows::new(noise);
            assert_rows_equal_fractal(&noise, &mut rows, g);
            // The same evaluator, restarted on a frame of another shape:
            // kept buffers must not leak into it.
            let other = Grid {
                t: g.t + 0.37,
                octaves: 7 - g.octaves,
                width: g.width / 2 + 1,
                rows: g.rows.min(8),
                ..g
            };
            assert_rows_equal_fractal(&noise, &mut rows, other);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = NoiseField::new(1);
        let b = NoiseField::new(1);
        let c = NoiseField::new(2);
        assert_eq!(a.sample(3.7, 9.1, 0.5), b.sample(3.7, 9.1, 0.5));
        assert_ne!(a.sample(3.7, 9.1, 0.5), c.sample(3.7, 9.1, 0.5));
    }

    #[test]
    fn bounded_output() {
        let n = NoiseField::new(42);
        for i in 0..500 {
            let x = i as f64 * 0.37;
            let v = n.fractal(x, x * 0.61, 0.2, 5, 0.6);
            assert!((-1.0..=1.0).contains(&v), "{v}");
            let w = n.white(i, i * 3, 0);
            assert!((-1.0..=1.0).contains(&w), "{w}");
        }
    }

    #[test]
    fn interpolation_is_continuous() {
        let n = NoiseField::new(5);
        // Small coordinate steps produce small value changes.
        let mut prev = n.sample(0.0, 0.0, 0.0);
        for i in 1..100 {
            let cur = n.sample(i as f64 * 0.01, 0.0, 0.0);
            assert!((cur - prev).abs() < 0.2, "jump at {i}: {prev} -> {cur}");
            prev = cur;
        }
    }

    #[test]
    fn more_octaves_add_high_frequency_energy() {
        let n = NoiseField::new(9);
        // Measure mean absolute step between adjacent samples: fractal noise
        // with more octaves is rougher.
        let roughness = |oct: u32| {
            let mut total = 0.0;
            let mut prev = n.fractal(0.0, 0.0, 0.0, oct, 0.7);
            for i in 1..400 {
                let cur = n.fractal(i as f64 * 0.13, 0.0, 0.0, oct, 0.7);
                total += (cur - prev).abs();
                prev = cur;
            }
            total
        };
        assert!(roughness(6) > roughness(1) * 1.2);
    }
}
