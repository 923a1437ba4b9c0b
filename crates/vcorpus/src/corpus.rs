//! A statistical model of a commercial upload corpus.
//!
//! The paper's selection pipeline consumed six months of YouTube transcode
//! logs — data that cannot ship with a reproduction. This module replaces
//! it with a generative model whose marginals match what the paper reports
//! about the corpus: thousands of categories across 40+ resolutions and
//! 200+ entropy values spanning four orders of magnitude (Figure 4), with
//! uploads concentrated in the standard ladder rungs, and watch time
//! following a power law with exponential cutoff [Cha et al. 2009].

use crate::category::{VideoCategory, WeightedCategory};
use rand::rngs::SmallRng;
use rand::{process, Rng, SeedableRng};
use std::collections::BTreeMap;

/// Standard resolution ladder: (kilopixels, upload share).
const RESOLUTION_TIERS: [(u32, f64); 8] = [
    (37, 0.04),   // 256x144
    (102, 0.07),  // 426x240
    (230, 0.16),  // 640x360
    (410, 0.21),  // 854x480
    (922, 0.25),  // 1280x720
    (2074, 0.19), // 1920x1080
    (3686, 0.04), // 2560x1440
    (8294, 0.04), // 3840x2160
];

/// Framerate ladder: (fps, share).
const FPS_TIERS: [(u32, f64); 6] =
    [(15, 0.04), (24, 0.14), (25, 0.12), (30, 0.50), (50, 0.05), (60, 0.15)];

/// Content archetypes: (median entropy bits/pix/s, log-σ, share).
/// Spans the paper's four-order-of-magnitude entropy range, from
/// slideshows (< 0.1) to high-motion sports (> 10).
const CONTENT_MODES: [(f64, f64, f64); 6] = [
    (0.06, 0.8, 0.08), // slideshows / still images
    (0.30, 0.7, 0.10), // screen capture / presentations
    (1.20, 0.6, 0.20), // animation
    (3.50, 0.5, 0.34), // natural video
    (5.50, 0.4, 0.16), // gaming
    (9.50, 0.5, 0.12), // sports / high motion
];

/// The corpus generator.
#[derive(Clone, Copy, Debug, Default)]
pub struct CorpusModel;

impl CorpusModel {
    /// Creates the default model.
    pub fn new() -> CorpusModel {
        CorpusModel
    }

    /// Samples one video's category.
    pub fn sample_video(&self, rng: &mut SmallRng) -> VideoCategory {
        let kpix = pick(rng, RESOLUTION_TIERS.iter().map(|&(v, w)| (v, w)));
        let fps = pick(rng, FPS_TIERS.iter().map(|&(v, w)| (v, w)));
        let (median, sigma, _) =
            CONTENT_MODES[pick(rng, CONTENT_MODES.iter().enumerate().map(|(i, m)| (i, m.2)))];
        // Log-normal around the mode's median.
        let z = process::standard_normal(rng);
        let entropy = (median.ln() + sigma * z).exp().clamp(0.02, 60.0);
        VideoCategory::new(kpix, fps, entropy)
    }

    /// Samples `n` uploads and aggregates them into weighted categories.
    ///
    /// Weights model *transcode time*: proportional to pixels per second
    /// and sub-linearly to content entropy (complex videos take longer at
    /// fixed settings), matching the paper's weighting of categories by
    /// time spent transcoding.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn sample_categories(&self, n: usize, seed: u64) -> Vec<WeightedCategory> {
        assert!(n > 0, "need at least one sample");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut bins: BTreeMap<(u32, u32, u64), f64> = BTreeMap::new();
        for _ in 0..n {
            let cat = self.sample_video(&mut rng);
            let time = transcode_time_weight(&cat);
            *bins
                .entry((cat.kpixels, cat.fps, (cat.entropy * 10.0).round() as u64))
                .or_default() += time;
        }
        bins.into_iter()
            .map(|((kpix, fps, e10), weight)| WeightedCategory {
                category: VideoCategory::new(kpix, fps, e10 as f64 / 10.0),
                weight,
            })
            .collect()
    }
}

/// Relative transcode time of one video in a category.
fn transcode_time_weight(cat: &VideoCategory) -> f64 {
    f64::from(cat.kpixels) * f64::from(cat.fps) / 30.0 * cat.entropy.powf(0.25)
}

fn pick<T: Copy>(rng: &mut SmallRng, items: impl Iterator<Item = (T, f64)>) -> T {
    let items: Vec<(T, f64)> = items.collect();
    let total: f64 = items.iter().map(|(_, w)| w).sum();
    let mut target = rng.gen_range(0.0..total);
    for &(v, w) in &items {
        if target < w {
            return v;
        }
        target -= w;
    }
    items.last().expect("non-empty tier list").0
}

/// Watch-time popularity: a power law with exponential cutoff
/// (Section 2.5 of the paper, after Cha et al.): most watch time
/// concentrates in a few popular videos with a long tail.
#[derive(Clone, Copy, Debug)]
pub struct PopularityModel {
    /// Power-law exponent (≈ 0.8 for user-generated content).
    pub alpha: f64,
    /// Exponential cutoff rank.
    pub cutoff: f64,
}

impl Default for PopularityModel {
    fn default() -> PopularityModel {
        PopularityModel { alpha: 0.8, cutoff: 50_000.0 }
    }
}

impl PopularityModel {
    /// Unnormalized watch weight of the video at `rank` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `rank` is zero.
    pub fn watch_weight(&self, rank: u64) -> f64 {
        assert!(rank > 0, "ranks are 1-based");
        (rank as f64).powf(-self.alpha) * (-(rank as f64) / self.cutoff).exp()
    }

    /// Fraction of total watch time captured by the top `top` of `total`
    /// videos.
    ///
    /// # Panics
    ///
    /// Panics if `top > total` or `total` is zero.
    pub fn top_share(&self, top: u64, total: u64) -> f64 {
        assert!(total > 0 && top <= total, "invalid rank range");
        let head: f64 = (1..=top).map(|r| self.watch_weight(r)).sum();
        let all: f64 = (1..=total).map(|r| self.watch_weight(r)).sum();
        head / all
    }

    /// Builds a rank sampler over a catalog of `catalog` videos: draws
    /// are distributed like the watch-time weights, so popular ranks
    /// dominate exactly as the model predicts.
    ///
    /// # Panics
    ///
    /// Panics if `catalog` is zero.
    pub fn sampler(&self, catalog: u64) -> PopularitySampler {
        PopularitySampler::new(self, catalog)
    }
}

/// A cumulative-weight sampler over catalog ranks `1..=catalog` under
/// [`PopularityModel`]: O(catalog) to build once, O(log catalog) per
/// draw via binary search.
#[derive(Clone, Debug)]
pub struct PopularitySampler {
    cumulative: Vec<f64>,
}

impl PopularitySampler {
    fn new(model: &PopularityModel, catalog: u64) -> PopularitySampler {
        assert!(catalog > 0, "catalog must be non-empty");
        let mut cumulative = Vec::with_capacity(catalog as usize);
        let mut total = 0.0;
        for rank in 1..=catalog {
            total += model.watch_weight(rank);
            cumulative.push(total);
        }
        PopularitySampler { cumulative }
    }

    /// Catalog size the sampler covers.
    pub fn catalog(&self) -> u64 {
        self.cumulative.len() as u64
    }

    /// Draws a 1-based rank: one uniform against the cumulative weights.
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        let total = *self.cumulative.last().expect("catalog is non-empty");
        let target: f64 = rng.gen_range(0.0..total);
        self.cumulative.partition_point(|&c| c <= target) as u64 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_deterministic_per_seed() {
        let m = CorpusModel::new();
        assert_eq!(m.sample_categories(500, 1), m.sample_categories(500, 1));
        assert_ne!(m.sample_categories(500, 1), m.sample_categories(500, 2));
    }

    #[test]
    fn corpus_has_many_categories_with_wide_entropy() {
        let m = CorpusModel::new();
        let cats = m.sample_categories(20_000, 7);
        assert!(cats.len() > 1000, "only {} categories", cats.len());
        let min_e = cats.iter().map(|c| c.category.entropy).fold(f64::INFINITY, f64::min);
        let max_e = cats.iter().map(|c| c.category.entropy).fold(0.0, f64::max);
        // Four orders of magnitude, like Figure 4.
        assert!(min_e <= 0.1, "min entropy {min_e}");
        assert!(max_e >= 10.0, "max entropy {max_e}");
    }

    #[test]
    fn standard_resolutions_dominate() {
        let m = CorpusModel::new();
        let cats = m.sample_categories(10_000, 3);
        let total: f64 = cats.iter().map(|c| c.weight).sum();
        let hd: f64 = cats
            .iter()
            .filter(|c| [410, 922, 2074].contains(&c.category.kpixels))
            .map(|c| c.weight)
            .sum();
        assert!(hd / total > 0.5, "HD tier share {}", hd / total);
    }

    #[test]
    fn weights_grow_with_resolution() {
        // At equal entropy and fps, a 1080p category outweighs a 144p one
        // per upload (transcode time scales with pixels).
        let a = VideoCategory::new(37, 30, 2.0);
        let b = VideoCategory::new(2074, 30, 2.0);
        assert!(transcode_time_weight(&b) > transcode_time_weight(&a) * 20.0);
    }

    #[test]
    fn popularity_is_heavily_skewed() {
        let p = PopularityModel::default();
        // Top 1% of 100k videos captures a large share of watch time.
        let share = p.top_share(1_000, 100_000);
        assert!(share > 0.3, "top-1% share {share}");
        // And the tail is long: the bottom half still matters a little.
        let head_share = p.top_share(50_000, 100_000);
        assert!(head_share < 1.0);
        assert!(p.watch_weight(1) > p.watch_weight(100));
    }

    #[test]
    fn the_sampler_reproduces_the_head_heavy_law() {
        let model = PopularityModel::default();
        let sampler = model.sampler(1000);
        assert_eq!(sampler.catalog(), 1000);
        let mut rng = SmallRng::seed_from_u64(11);
        let draws: Vec<u64> = (0..20_000).map(|_| sampler.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&r| (1..=1000).contains(&r)));
        let head = draws.iter().filter(|&&r| r <= 100).count() as f64 / draws.len() as f64;
        let expected = model.top_share(100, 1000);
        assert!((head - expected).abs() < 0.02, "head share {head} vs model {expected}");
        // Determinism: same seed, same draws.
        let mut again = SmallRng::seed_from_u64(11);
        assert!(draws.iter().take(100).all(|&r| r == sampler.sample(&mut again)));
    }

    #[test]
    #[should_panic(expected = "catalog must be non-empty")]
    fn empty_catalogs_are_rejected() {
        PopularityModel::default().sampler(0);
    }
}
