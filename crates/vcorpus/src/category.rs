//! Video categories and the normalized feature space used for clustering.
//!
//! The paper (Section 4.1) reduces a video to three features — resolution,
//! framerate, and entropy — and defines a *category* as the videos sharing
//! a `(Kpixels, fps, entropy-to-one-decimal)` triple. Clustering operates
//! on a transformed space: log₂ resolution and log₂ entropy (so the gaps
//! between standard resolutions, and between entropy regimes, are
//! proportionate), each dimension normalized to `[-1, 1]`.

/// One video category: the unit of corpus accounting.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct VideoCategory {
    /// Resolution in kilopixels per frame (width × height / 1000, rounded).
    pub kpixels: u32,
    /// Frames per second, rounded to an integer.
    pub fps: u32,
    /// Entropy in bits/pixel/second at visually lossless quality, rounded
    /// to one decimal place.
    pub entropy: f64,
}

impl VideoCategory {
    /// Creates a category, rounding entropy to one decimal place as the
    /// paper's category definition requires; entropies below 0.05 land in
    /// the lowest (0.1) bin.
    ///
    /// # Panics
    ///
    /// Panics if any field is non-positive or entropy is not finite.
    pub fn new(kpixels: u32, fps: u32, entropy: f64) -> VideoCategory {
        assert!(kpixels > 0 && fps > 0, "category dimensions must be positive");
        assert!(entropy.is_finite() && entropy > 0.0, "entropy must be positive");
        VideoCategory { kpixels, fps, entropy: ((entropy * 10.0).round() / 10.0).max(0.1) }
    }

    /// The category's position in clustering space: `log2(kpixels)`, `fps`,
    /// `log2(entropy)` (the paper linearizes resolution and entropy with
    /// base-two logarithms before clustering).
    pub fn cluster_features(&self) -> [f64; 3] {
        [f64::from(self.kpixels).log2(), f64::from(self.fps), self.entropy.max(1e-3).log2()]
    }
}

/// A category together with its corpus weight (the paper weights by total
/// transcode time spent on the category).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct WeightedCategory {
    /// The category.
    pub category: VideoCategory,
    /// Non-negative corpus weight.
    pub weight: f64,
}

/// Per-dimension affine normalization of cluster features to `[-1, 1]`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FeatureSpace {
    min: [f64; 3],
    max: [f64; 3],
}

impl FeatureSpace {
    /// Fits the normalization to a set of categories.
    ///
    /// # Panics
    ///
    /// Panics if `cats` is empty.
    pub fn fit(cats: &[WeightedCategory]) -> FeatureSpace {
        assert!(!cats.is_empty(), "cannot fit a feature space to no categories");
        let mut min = [f64::INFINITY; 3];
        let mut max = [f64::NEG_INFINITY; 3];
        for wc in cats {
            let f = wc.category.cluster_features();
            for d in 0..3 {
                min[d] = min[d].min(f[d]);
                max[d] = max[d].max(f[d]);
            }
        }
        FeatureSpace { min, max }
    }

    /// Maps a category into the normalized `[-1, 1]³` cube.
    pub fn normalize(&self, cat: &VideoCategory) -> [f64; 3] {
        let f = cat.cluster_features();
        let mut out = [0.0; 3];
        for d in 0..3 {
            let span = (self.max[d] - self.min[d]).max(1e-9);
            out[d] = 2.0 * (f[d] - self.min[d]) / span - 1.0;
        }
        out
    }

    /// Squared Euclidean distance between two categories in normalized
    /// space.
    pub fn distance2(&self, a: &VideoCategory, b: &VideoCategory) -> f64 {
        let (fa, fb) = (self.normalize(a), self.normalize(b));
        fa.iter().zip(&fb).map(|(x, y)| (x - y) * (x - y)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wc(kpix: u32, fps: u32, e: f64, w: f64) -> WeightedCategory {
        WeightedCategory { category: VideoCategory::new(kpix, fps, e), weight: w }
    }

    #[test]
    fn entropy_rounds_to_one_decimal() {
        let c = VideoCategory::new(922, 30, 3.449);
        assert_eq!(c.entropy, 3.4);
        let c = VideoCategory::new(922, 30, 0.06);
        assert_eq!(c.entropy, 0.1);
    }

    #[test]
    fn log_features_compress_resolution_gaps() {
        // 480p -> 4K is ~20x in pixels but only ~4.3 in log2 space.
        let a = VideoCategory::new(410, 30, 1.0);
        let b = VideoCategory::new(8294, 30, 1.0);
        let gap = b.cluster_features()[0] - a.cluster_features()[0];
        assert!((4.0..4.6).contains(&gap), "gap {gap}");
    }

    #[test]
    fn normalization_hits_unit_cube_corners() {
        let cats = vec![wc(410, 24, 0.1, 1.0), wc(8294, 60, 20.0, 1.0), wc(2074, 30, 2.0, 1.0)];
        let space = FeatureSpace::fit(&cats);
        let lo = space.normalize(&cats[0].category);
        let hi = space.normalize(&cats[1].category);
        for d in 0..3 {
            assert!((lo[d] + 1.0).abs() < 1e-9, "low corner dim {d}: {}", lo[d]);
            assert!((hi[d] - 1.0).abs() < 1e-9, "high corner dim {d}: {}", hi[d]);
        }
        let mid = space.normalize(&cats[2].category);
        for v in mid {
            assert!((-1.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let cats = vec![wc(410, 24, 0.1, 1.0), wc(8294, 60, 20.0, 1.0)];
        let space = FeatureSpace::fit(&cats);
        let (a, b) = (cats[0].category, cats[1].category);
        assert_eq!(space.distance2(&a, &a), 0.0);
        assert!((space.distance2(&a, &b) - space.distance2(&b, &a)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_fps_rejected() {
        let _ = VideoCategory::new(410, 0, 1.0);
    }
}
