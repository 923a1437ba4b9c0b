//! Deterministic arrival generation for the service front door.
//!
//! One base Poisson process at unit rate is generated per seed and
//! *time-scaled* by the offered load: arrival `i`'s virtual time is its
//! unit-rate time divided by the load. Two consequences make the
//! saturation study well-behaved:
//!
//! * raising the load replays the *same* arrival sequence compressed in
//!   time (a prefix-stable superset within the window), so shed rates
//!   respond to load monotonically instead of jumping between unrelated
//!   sample paths;
//! * every arrival's attributes (video, popularity rank, heaviness) are
//!   drawn from a per-arrival generator keyed on `(seed, index)` alone,
//!   so they never depend on the load or on each other.
//!
//! Popular arrivals draw a catalog rank from `vcorpus`'s power-law
//! watch-time model and carry its weight as their shed value; Live
//! arrivals carry a deadline derived from the clip's real-time pixel
//! rate ([`crate::scenario::live_deadline_secs_for`] arithmetic via the
//! profile's play-out duration) and are occasionally flagged
//! high-motion, which inflates their service demand.

use rand::rngs::SmallRng;
use rand::{process, Rng, SeedableRng};
use vcorpus::PopularityModel;

use super::{QosClass, ServiceConfig, VideoProfile};
use crate::scenario::Scenario;

/// Virtual microseconds per second.
pub(crate) const US_PER_SEC: f64 = 1_000_000.0;

/// How far past the configured duration arrivals keep coming, to
/// exercise the draining path: the window is open for `duration`, then
/// late arrivals (up to 1.25 × duration) are refused with
/// [`super::AdmissionError::Draining`].
pub(crate) const DRAIN_OVERRUN: f64 = 1.25;

/// Slack multiple a Live segment gets on its play-out duration before
/// its deadline expires: a segment is useful until the stream is about
/// to lap it.
pub(crate) const LIVE_SLACK: f64 = 2.0;

/// Probability a Live segment is high-motion (inflated service demand).
const LIVE_HEAVY_P: f64 = 0.2;

/// Service-demand multiplier for a high-motion Live segment.
pub(crate) const HEAVY_FACTOR: f64 = 1.5;

/// One offered job, fully determined at generation time.
#[derive(Clone, Debug)]
pub struct Arrival {
    /// Sequence number in the base (unit-rate) process.
    pub index: u64,
    /// Virtual arrival time in microseconds.
    pub at_us: u64,
    /// Index into the service's [`VideoProfile`] catalog slice.
    pub video: usize,
    /// Popularity rank (1-based; 0 for classes without popularity).
    pub rank: u64,
    /// Shed value: the power-law watch weight for Popular, 1.0 for
    /// classes where all jobs are equal.
    pub value: f64,
    /// Completion deadline in virtual microseconds (Live only).
    pub deadline_us: Option<u64>,
    /// High-motion segment: service demand × `HEAVY_FACTOR`.
    pub heavy: bool,
}

/// Generates the arrival stream for one service run: unit-rate Poisson
/// times scaled by `config.offered_load`, attributes keyed per index.
/// Deterministic in `(config, profiles.len())`.
pub fn generate_arrivals(config: &ServiceConfig, profiles: &[VideoProfile]) -> Vec<Arrival> {
    assert!(!profiles.is_empty(), "service needs at least one video profile");
    assert!(config.offered_load > 0.0, "offered load must be positive");
    let class = QosClass::of(config.scenario);
    let sampler =
        (class == QosClass::Weighted).then(|| PopularityModel::default().sampler(config.catalog));
    let horizon_secs = config.duration_secs * DRAIN_OVERRUN;
    let mut base_rng = SmallRng::seed_from_u64(config.seed);
    let mut base_t = 0.0f64;
    let mut out = Vec::new();
    for index in 0u64.. {
        // Exponential(1) inter-arrival gap off the shared base-process
        // sampler (one uniform draw; bit-identical to the inline inverse
        // CDF this generator was calibrated with).
        base_t += process::exp_gap(&mut base_rng);
        let t_secs = base_t / config.offered_load;
        if t_secs > horizon_secs {
            break;
        }
        let mut attr_rng = attr_rng(config.seed, index);
        let at_us = (t_secs * US_PER_SEC).round() as u64;
        let (video, rank, value) = match &sampler {
            // Popularity decides both which video is re-transcoded and
            // how much shedding it is worth avoiding.
            Some(s) => {
                let rank = s.sample(&mut attr_rng);
                let video = ((rank - 1) % profiles.len() as u64) as usize;
                (video, rank, PopularityModel::default().watch_weight(rank))
            }
            None => (attr_rng.gen_range(0..profiles.len()), 0, 1.0),
        };
        let (deadline_us, heavy) = match config.scenario {
            Scenario::Live => {
                let deadline =
                    at_us + (profiles[video].play_secs * LIVE_SLACK * US_PER_SEC).round() as u64;
                (Some(deadline), attr_rng.gen_bool(LIVE_HEAVY_P))
            }
            _ => (None, false),
        };
        out.push(Arrival { index, at_us, video, rank, value, deadline_us, heavy });
    }
    out
}

/// The per-arrival attribute generator: keyed on `(seed, index)` alone
/// (the shared [`rand::process::substream`] layout) so attributes are
/// independent of the offered load (which only rescales arrival *times*)
/// and of every other arrival.
fn attr_rng(seed: u64, index: u64) -> SmallRng {
    process::substream(seed, index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::video_profiles;
    use crate::suite::{Suite, SuiteOptions};

    fn profiles(scenario: Scenario) -> Vec<VideoProfile> {
        video_profiles(&Suite::vbench(&SuiteOptions::tiny()), scenario)
    }

    fn config(scenario: Scenario, load: f64) -> ServiceConfig {
        ServiceConfig::new(scenario, load, 10.0)
    }

    #[test]
    fn arrivals_are_deterministic_per_seed() {
        let p = profiles(Scenario::Upload);
        let a = generate_arrivals(&config(Scenario::Upload, 2.0), &p);
        let b = generate_arrivals(&config(Scenario::Upload, 2.0), &p);
        assert!(!a.is_empty());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.at_us, x.video, x.rank, x.heavy), (y.at_us, y.video, y.rank, y.heavy));
        }
    }

    /// Doubling the load compresses the same base sequence: arrival `i`
    /// keeps its attributes and halves its timestamp.
    #[test]
    fn load_rescales_times_but_not_attributes() {
        let p = profiles(Scenario::Popular);
        let slow = generate_arrivals(&config(Scenario::Popular, 1.0), &p);
        let fast = generate_arrivals(&config(Scenario::Popular, 2.0), &p);
        assert!(fast.len() >= slow.len(), "higher load offers at least as many jobs");
        for (s, f) in slow.iter().zip(&fast) {
            assert_eq!((s.video, s.rank), (f.video, f.rank));
            assert!((s.value - f.value).abs() < 1e-12);
            // Rounded independently, so allow 1 us of slack.
            assert!((f.at_us as i64 - (s.at_us / 2) as i64).abs() <= 1);
        }
    }

    #[test]
    fn popular_ranks_follow_the_head_heavy_law() {
        let p = profiles(Scenario::Popular);
        let mut cfg = config(Scenario::Popular, 50.0);
        cfg.duration_secs = 40.0;
        let arrivals = generate_arrivals(&cfg, &p);
        assert!(arrivals.len() > 500);
        let head = arrivals.iter().filter(|a| a.rank <= cfg.catalog / 10).count();
        assert!(
            head * 2 > arrivals.len(),
            "top 10% of the catalog should draw most arrivals, got {head}/{}",
            arrivals.len()
        );
        assert!(arrivals.iter().all(|a| (1..=cfg.catalog).contains(&a.rank)));
        // Value is the watch weight, so ranks order values.
        let w1 = PopularityModel::default().watch_weight(1);
        assert!(arrivals.iter().all(|a| a.value <= w1));
    }

    #[test]
    fn live_arrivals_carry_deadlines_and_heavy_flags() {
        let p = profiles(Scenario::Live);
        let mut cfg = config(Scenario::Live, 20.0);
        cfg.duration_secs = 30.0;
        let arrivals = generate_arrivals(&cfg, &p);
        assert!(arrivals.iter().all(|a| a.deadline_us.is_some()));
        let heavy = arrivals.iter().filter(|a| a.heavy).count();
        assert!(heavy > 0, "some segments are high-motion");
        assert!(heavy * 2 < arrivals.len(), "most are not");
        for a in &arrivals {
            let slack = a.deadline_us.unwrap() - a.at_us;
            let play_us = (p[a.video].play_secs * LIVE_SLACK * US_PER_SEC).round() as u64;
            assert_eq!(slack, play_us);
        }
    }

    #[test]
    fn the_window_includes_the_drain_overrun() {
        let p = profiles(Scenario::Upload);
        let cfg = config(Scenario::Upload, 20.0);
        let arrivals = generate_arrivals(&cfg, &p);
        let duration_us = (cfg.duration_secs * US_PER_SEC) as u64;
        assert!(arrivals.iter().any(|a| a.at_us > duration_us), "late arrivals exercise draining");
        let horizon_us = (cfg.duration_secs * DRAIN_OVERRUN * US_PER_SEC).round() as u64;
        assert!(arrivals.iter().all(|a| a.at_us <= horizon_us + 1));
    }
}
