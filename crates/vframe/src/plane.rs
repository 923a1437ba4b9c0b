//! A single 8-bit sample plane.

use std::fmt;

/// One row-major plane of 8-bit samples (luma or one chroma component).
///
/// The plane owns its storage; `width * height` samples, no padding rows.
/// Out-of-bounds reads are served by edge clamping via [`Plane::get_clamped`],
/// which is the extension behaviour motion compensation in `vcodec` relies
/// on (matching the unrestricted-motion-vector edge extension of H.264).
///
/// ```
/// use vframe::Plane;
/// let mut p = Plane::filled(4, 2, 7);
/// p.set(3, 1, 250);
/// assert_eq!(p.get(3, 1), 250);
/// assert_eq!(p.get_clamped(100, -5), p.get(3, 0));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Plane {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl Plane {
    /// Creates a plane filled with `value`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn filled(width: usize, height: usize, value: u8) -> Plane {
        assert!(width > 0 && height > 0, "plane must be non-empty");
        Plane { width, height, data: vec![value; width * height] }
    }

    /// Creates a plane from existing row-major samples.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height` or either dimension is zero.
    pub fn from_data(width: usize, height: usize, data: Vec<u8>) -> Plane {
        assert!(width > 0 && height > 0, "plane must be non-empty");
        assert_eq!(data.len(), width * height, "sample count must match dimensions");
        Plane { width, height, data }
    }

    /// Plane width in samples.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Plane height in samples.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Immutable view of the raw samples, row-major.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Mutable view of the raw samples, row-major.
    pub fn data_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Sample at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> u8 {
        assert!(x < self.width && y < self.height, "plane access out of bounds");
        self.data[y * self.width + x]
    }

    /// Sample at `(x, y)` with coordinates clamped to the plane edges, the
    /// standard picture-boundary extension used by motion compensation.
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize) -> u8 {
        let cx = x.clamp(0, self.width as isize - 1) as usize;
        let cy = y.clamp(0, self.height as isize - 1) as usize;
        self.data[cy * self.width + cx]
    }

    /// `buf.len()` samples of row `y` starting at column `x`, edge-clamped
    /// like [`Plane::get_clamped`]: a borrow of the row itself when the
    /// span lies inside the plane, a clamped copy in `buf` otherwise.
    ///
    /// This is how block kernels read a plane: one row clamp and one
    /// bounds check per row instead of two clamps per sample.
    #[inline]
    pub fn clamped_span<'a>(&'a self, x: isize, y: isize, buf: &'a mut [u8]) -> &'a [u8] {
        let row = self.row(y.clamp(0, self.height as isize - 1) as usize);
        let len = buf.len();
        if x >= 0 && x as usize + len <= self.width {
            return &row[x as usize..x as usize + len];
        }
        clamped_copy(row, x, buf)
    }

    /// Writes `value` at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, value: u8) {
        assert!(x < self.width && y < self.height, "plane access out of bounds");
        self.data[y * self.width + x] = value;
    }

    /// One row of samples.
    ///
    /// # Panics
    ///
    /// Panics if `y` is out of bounds.
    #[inline]
    pub fn row(&self, y: usize) -> &[u8] {
        assert!(y < self.height, "row out of bounds");
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// Mutable access to one row of samples.
    ///
    /// # Panics
    ///
    /// Panics if `y` is out of bounds.
    #[inline]
    pub fn row_mut(&mut self, y: usize) -> &mut [u8] {
        assert!(y < self.height, "row out of bounds");
        &mut self.data[y * self.width..(y + 1) * self.width]
    }

    /// Fills the whole plane with `value`.
    pub fn fill(&mut self, value: u8) {
        self.data.fill(value);
    }

    /// Mean sample value, as `f64`.
    pub fn mean(&self) -> f64 {
        self.data.iter().map(|&s| f64::from(s)).sum::<f64>() / self.data.len() as f64
    }

    /// Sample variance (population), as `f64`. A rough texture indicator used
    /// by the synthetic generators to calibrate entropy.
    pub fn variance(&self) -> f64 {
        let mean = self.mean();
        self.data
            .iter()
            .map(|&s| {
                let d = f64::from(s) - mean;
                d * d
            })
            .sum::<f64>()
            / self.data.len() as f64
    }
}

/// The edge case of [`Plane::clamped_span`], kept out of line so that the
/// in-bounds case inlines into the block kernels: columns left of 0 read
/// column 0 and columns past the last read the last — a fill, a copy of
/// the columns inside, a fill.
fn clamped_copy<'a>(row: &[u8], x: isize, buf: &'a mut [u8]) -> &'a [u8] {
    let len = buf.len() as isize;
    let inside = |col: isize| col.clamp(0, len) as usize;
    let (left, right) = (inside(-x), inside(row.len() as isize - x));
    buf[..left].fill(row[0]);
    if left < right {
        buf[left..right].copy_from_slice(&row[(x + left as isize) as usize..][..right - left]);
    }
    buf[right..].fill(row[row.len() - 1]);
    buf
}

impl fmt::Debug for Plane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Plane").field("width", &self.width).field("height", &self.height).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_get_set() {
        let mut p = Plane::filled(8, 8, 0);
        p.set(7, 7, 42);
        assert_eq!(p.get(7, 7), 42);
        assert_eq!(p.get(0, 0), 0);
    }

    #[test]
    fn clamped_access_extends_edges() {
        let mut p = Plane::filled(4, 4, 0);
        p.set(0, 0, 11);
        p.set(3, 3, 22);
        assert_eq!(p.get_clamped(-10, -10), 11);
        assert_eq!(p.get_clamped(99, 99), 22);
        assert_eq!(p.get_clamped(2, 2), 0);
    }

    proptest::proptest! {
        // Every span position against a 1..=9-wide plane: inside, across
        // either edge or both, and wholly past either edge.
        #[test]
        fn clamped_span_equals_per_sample_clamping(
            width in 1usize..=9,
            data in proptest::collection::vec(proptest::any::<u8>(), 9 * 3),
            x in -20isize..=20,
            y in -4isize..=6,
            len in 0usize..=24,
        ) {
            let plane = Plane::from_data(width, 3, data[..width * 3].to_vec());
            let mut buf = [0u8; 24];
            let span = plane.clamped_span(x, y, &mut buf[..len]).to_vec();
            let want: Vec<u8> = (0..len).map(|i| plane.get_clamped(x + i as isize, y)).collect();
            proptest::prop_assert_eq!(span, want);
        }
    }

    #[test]
    fn rows_are_contiguous() {
        let p = Plane::from_data(3, 2, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(p.row(0), &[1, 2, 3]);
        assert_eq!(p.row(1), &[4, 5, 6]);
    }

    #[test]
    fn mean_and_variance() {
        let p = Plane::from_data(2, 2, vec![0, 0, 10, 10]);
        assert!((p.mean() - 5.0).abs() < 1e-12);
        assert!((p.variance() - 25.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sample count")]
    fn from_data_validates_len() {
        let _ = Plane::from_data(2, 2, vec![0; 5]);
    }
}
