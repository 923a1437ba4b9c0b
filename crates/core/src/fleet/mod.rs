//! Transcoding-fleet sizing and the cost plane.
//!
//! The paper argues hardware encoders' "higher speed would allow a
//! significant downsizing of the transcoding fleet at a video sharing
//! infrastructure" (Section 5.3), trading compute cost against the
//! storage/network cost of their larger outputs. This module makes that
//! argument computable, in two tiers:
//!
//! * **How many workers** — the closed form [`fleet_size_for`]: the
//!   workers one machine type needs to absorb an offered load at a target
//!   utilization, which `tablegen fleet` applies to measured software and
//!   modelled hardware speeds.
//! * **Which workers at what price** — the cost plane: the
//!   [`vhw::InstanceCatalog`] of heterogeneous instance types, a
//!   content-feature cost [`predict`]or, a dollar-minimizing deadline
//!   [`plan`]ner, and the byte-replayable [`pareto`] cost-QoS frontier
//!   report behind `vbench plan` / `vprof pareto`.

pub mod pareto;
pub mod plan;
pub mod predict;

pub use pareto::{pareto_report, ParetoPoint, ParetoReport, DEADLINE_MULT_GRID, PARETO_VERSION};
pub use plan::{
    plan_fleet, scenario_deadline_slack, uniform_plan, FleetPlan, PlanAssignment, PlanJob,
};
pub use predict::{cheapest_job_dollars, predict_encode_secs, predict_job_dollars, JobFeatures};

/// Closed-form fleet size: the number of workers needed to serve an
/// offered load (pixels/second of uploads) at a target utilization.
///
/// # Panics
///
/// Panics if arguments are non-positive or utilization is not in (0, 1].
pub fn fleet_size_for(
    offered_pixels_per_sec: f64,
    worker_speed_pps: f64,
    target_utilization: f64,
) -> u32 {
    assert!(offered_pixels_per_sec > 0.0 && worker_speed_pps > 0.0, "load must be positive");
    assert!(target_utilization > 0.0 && target_utilization <= 1.0, "utilization must be in (0, 1]");
    (offered_pixels_per_sec / (worker_speed_pps * target_utilization)).ceil() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn faster_workers_shrink_the_fleet() {
        // The paper's hardware argument: a 10x faster worker cuts the
        // fleet 10x at equal utilization.
        let sw = fleet_size_for(1e9, 5e6, 0.7);
        let hw = fleet_size_for(1e9, 50e6, 0.7);
        assert_eq!(sw, 286);
        assert_eq!(hw, 29);
        assert!(sw >= hw * 9);
    }

    #[test]
    #[should_panic(expected = "utilization")]
    fn bad_utilization_rejected() {
        let _ = fleet_size_for(1.0, 1.0, 1.5);
    }

    proptest! {
        /// The sized fleet runs at or under the target utilization, and
        /// is the smallest that does: one worker fewer would exceed it.
        /// Loads span 10⁻³–10⁵ busy workers of 10³–10⁹ pixels/s each;
        /// the bounds allow one part in 10¹² for the rounding of the
        /// division inside `fleet_size_for`.
        #[test]
        fn sized_fleet_is_the_smallest_at_or_under_the_target_utilization(
            speed_exp in 3.0f64..9.0,
            busy_exp in -3.0f64..5.0,
            idle in 0.0f64..0.99,
        ) {
            let speed = 10f64.powf(speed_exp);
            let offered = speed * 10f64.powf(busy_exp);
            let util = 1.0 - idle;
            let n = fleet_size_for(offered, speed, util);
            prop_assert!(n >= 1);
            let at = |workers: u32| offered / (f64::from(workers) * speed);
            prop_assert!(at(n) <= util * (1.0 + 1e-12), "{n} workers run at {} > {util}", at(n));
            if n > 1 {
                prop_assert!(
                    at(n - 1) > util * (1.0 - 1e-12),
                    "{} workers already run at {} <= {util}",
                    n - 1,
                    at(n - 1)
                );
            }
        }
    }
}
