//! Dollar-optimal fleet planning: which instances to buy, and where
//! each job runs, under per-scenario deadlines.
//!
//! The planner answers the cost plane's central question: given a batch
//! of jobs (with predicted encode seconds per catalog entry) and a
//! planning horizon, what mix of instance types completes every job
//! within its deadline for the fewest dollars? The model is the
//! standard two-constraint sizing:
//!
//! * **Latency**: a job is *feasible* on an instance type iff its
//!   predicted encode seconds fit inside the job's deadline — Live
//!   deadlines derive from [`crate::scenario::live_deadline_secs_for`]
//!   via the profile's play-out duration, with the scenario slack of
//!   [`scenario_deadline_slack`].
//! * **Capacity**: each instance type is bought in whole units sized so
//!   its assigned work fits the horizon
//!   (`ceil(busy_secs / horizon_secs)`), priced at the catalog rate for
//!   the full horizon.
//!
//! [`plan_fleet`] runs a small tournament: a greedy cheapest-feasible
//! mixed assignment against every uniform single-type fleet, winner by
//! fewest deadline misses then lowest dollar cost. The homogeneous
//! baseline (catalog entry 0, the old single-speed worker model) is
//! always a candidate, so a cost-aware plan is never more expensive
//! than the baseline at equal-or-lower misses — by construction, and
//! pinned by `tests/fleet_pareto.rs`.

use vhw::InstanceCatalog;

use super::predict::{predict_encode_secs, JobFeatures};
use crate::scenario::Scenario;

/// One job as the planner sees it: features to price it, a completion
/// deadline, and the catalog video it came from.
#[derive(Clone, Copy, Debug)]
pub struct PlanJob {
    /// Cost-prediction features.
    pub features: JobFeatures,
    /// Seconds from dispatch the job must complete within.
    pub deadline_secs: f64,
    /// Index into the service's video-profile slice (ties plan rows
    /// back to suite videos; duplicated freely across jobs).
    pub video: usize,
}

/// Where one job landed.
#[derive(Clone, Copy, Debug)]
pub struct PlanAssignment {
    /// Job index (position in the planned slice).
    pub job: usize,
    /// Catalog index of the chosen instance type.
    pub instance: usize,
    /// Predicted encode seconds there.
    pub predicted_secs: f64,
    /// Whether the prediction fits the job's deadline; infeasible jobs
    /// run on the fastest type and count as deadline misses.
    pub feasible: bool,
}

/// A complete plan: assignments, the fleet to buy, and its price.
#[derive(Clone, Debug)]
pub struct FleetPlan {
    /// Per-job placements, in job order.
    pub assignments: Vec<PlanAssignment>,
    /// Instances bought per catalog entry (parallel to the catalog).
    pub fleet: Vec<u32>,
    /// Renting that fleet for the horizon, in dollars.
    pub dollar_cost: f64,
    /// Jobs whose deadline no catalog entry (under this candidate's
    /// assignment) could meet.
    pub deadline_misses: u64,
    /// The planning horizon the fleet was sized against, in seconds.
    pub horizon_secs: f64,
}

impl FleetPlan {
    /// Deadline misses as a fraction of jobs (0 for an empty plan).
    pub fn miss_rate(&self) -> f64 {
        if self.assignments.is_empty() {
            0.0
        } else {
            self.deadline_misses as f64 / self.assignments.len() as f64
        }
    }
}

/// Deadline slack each service scenario grants on a job's play-out
/// duration. Live uses the arrival layer's real-time slack (a segment
/// is useful until the stream laps it); Popular re-transcodes trend
/// quickly but tolerate a couple of handfuls of play-lengths (sized so
/// the heaviest two-pass reference still fits a software worker at the
/// scenario's own deadline — the homogeneous baseline must be feasible
/// at multiplier 1.0 for the cost-vs-baseline guarantee to bite);
/// Upload is batch work with the loosest window.
///
/// # Panics
///
/// Panics for non-service scenarios (Vod, Platform), which have no
/// arrival process to plan for.
pub fn scenario_deadline_slack(scenario: Scenario) -> f64 {
    match scenario {
        Scenario::Live => crate::service::arrivals::LIVE_SLACK,
        Scenario::Popular => 15.0,
        Scenario::Upload => 30.0,
        other => panic!("{other:?} is not a service scenario"),
    }
}

/// Evaluates one candidate: a chosen catalog entry per job.
fn evaluate(
    jobs: &[PlanJob],
    catalog: &InstanceCatalog,
    choice: &[usize],
    horizon_secs: f64,
) -> FleetPlan {
    let mut busy = vec![0.0f64; catalog.len()];
    let mut assignments = Vec::with_capacity(jobs.len());
    let mut misses = 0u64;
    for (job, (j, &instance)) in jobs.iter().zip(choice.iter().enumerate()) {
        let secs = predict_encode_secs(&job.features, &catalog.entries()[instance]);
        let feasible = secs <= job.deadline_secs;
        if !feasible {
            misses += 1;
        }
        busy[instance] += secs;
        assignments.push(PlanAssignment { job: j, instance, predicted_secs: secs, feasible });
    }
    let mut fleet = vec![0u32; catalog.len()];
    let mut dollar_cost = 0.0;
    for (i, (&b, entry)) in busy.iter().zip(catalog.entries()).enumerate() {
        if b > 0.0 {
            let n = (b / horizon_secs).ceil().max(1.0) as u32;
            fleet[i] = n;
            dollar_cost += f64::from(n) * entry.dollars_per_hour * horizon_secs / 3600.0;
        }
    }
    FleetPlan { assignments, fleet, dollar_cost, deadline_misses: misses, horizon_secs }
}

/// A uniform single-type fleet: every job on catalog entry `instance`.
/// `uniform_plan(jobs, catalog, 0, h)` is the homogeneous baseline the
/// cost-aware winner is always measured against.
pub fn uniform_plan(
    jobs: &[PlanJob],
    catalog: &InstanceCatalog,
    instance: usize,
    horizon_secs: f64,
) -> FleetPlan {
    assert!(instance < catalog.len(), "instance index out of catalog");
    assert!(horizon_secs > 0.0, "horizon must be positive");
    evaluate(jobs, catalog, &vec![instance; jobs.len()], horizon_secs)
}

/// Plans a batch: greedy cheapest-feasible mixed assignment, run as a
/// tournament against every uniform single-type fleet; the winner has
/// the fewest deadline misses, then the lowest dollar cost, then the
/// earliest candidate (greedy first, then catalog order — fully
/// deterministic).
///
/// # Panics
///
/// Panics if `horizon_secs` is not positive.
pub fn plan_fleet(jobs: &[PlanJob], catalog: &InstanceCatalog, horizon_secs: f64) -> FleetPlan {
    assert!(horizon_secs > 0.0, "horizon must be positive");
    // Greedy: per job, the cheapest feasible entry (predicted seconds ×
    // rate); if none is feasible, the fastest entry — the miss is
    // unavoidable, so minimize its lateness.
    let greedy: Vec<usize> = jobs
        .iter()
        .map(|job| {
            let mut best_feasible: Option<(f64, usize)> = None;
            let mut fastest = (f64::INFINITY, 0usize);
            for (i, entry) in catalog.entries().iter().enumerate() {
                let secs = predict_encode_secs(&job.features, entry);
                if secs < fastest.0 {
                    fastest = (secs, i);
                }
                if secs <= job.deadline_secs {
                    let dollars = secs * entry.dollars_per_hour;
                    if best_feasible.is_none_or(|(d, _)| dollars < d) {
                        best_feasible = Some((dollars, i));
                    }
                }
            }
            best_feasible.map_or(fastest.1, |(_, i)| i)
        })
        .collect();
    let mut best = evaluate(jobs, catalog, &greedy, horizon_secs);
    for instance in 0..catalog.len() {
        let candidate = uniform_plan(jobs, catalog, instance, horizon_secs);
        if (candidate.deadline_misses, candidate.dollar_cost)
            < (best.deadline_misses, best.dollar_cost)
        {
            best = candidate;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcodec::Preset;

    fn job(pixels_per_frame: u64, frames: u64, entropy: f64, deadline_secs: f64) -> PlanJob {
        PlanJob {
            features: JobFeatures {
                pixels_per_frame,
                frames,
                fps: 30.0,
                entropy,
                preset: Preset::Medium,
            },
            deadline_secs,
            video: 0,
        }
    }

    #[test]
    fn relaxed_deadlines_buy_the_cheapest_fleet() {
        let catalog = InstanceCatalog::default_fleet();
        let jobs: Vec<PlanJob> = (0..8).map(|_| job(640 * 360, 60, 3.0, 1e9)).collect();
        let plan = plan_fleet(&jobs, &catalog, 3600.0);
        assert_eq!(plan.deadline_misses, 0);
        let baseline = uniform_plan(&jobs, &catalog, 0, 3600.0);
        assert!(plan.dollar_cost <= baseline.dollar_cost, "never beaten by the baseline");
    }

    #[test]
    fn tight_deadlines_force_fast_instances_and_raise_cost() {
        let catalog = InstanceCatalog::default_fleet();
        // Software needs ~minutes for these; fixed-function, a second
        // or so. A 2 s deadline rules the software entries out.
        let relaxed: Vec<PlanJob> = (0..6).map(|_| job(1920 * 1080, 240, 5.0, 1e9)).collect();
        let tight: Vec<PlanJob> = (0..6).map(|_| job(1920 * 1080, 240, 5.0, 2.0)).collect();
        let cheap = plan_fleet(&relaxed, &catalog, 3600.0);
        let fast = plan_fleet(&tight, &catalog, 3600.0);
        assert_eq!(fast.deadline_misses, 0, "accelerators make the deadline");
        assert!(fast
            .assignments
            .iter()
            .all(|a| { catalog.entries()[a.instance].encoder.is_fixed() }));
        assert!(
            fast.dollar_cost >= cheap.dollar_cost,
            "tighter deadlines cannot be cheaper: {} vs {}",
            fast.dollar_cost,
            cheap.dollar_cost
        );
    }

    #[test]
    fn impossible_deadlines_are_counted_not_hidden() {
        let catalog = InstanceCatalog::default_fleet();
        let jobs = vec![job(1920 * 1080, 240, 5.0, 1e-6)];
        let plan = plan_fleet(&jobs, &catalog, 3600.0);
        assert_eq!(plan.deadline_misses, 1);
        assert_eq!(plan.miss_rate(), 1.0);
        assert!(!plan.assignments[0].feasible);
    }

    #[test]
    fn scenario_slacks_order_by_urgency() {
        assert!(
            scenario_deadline_slack(Scenario::Live) < scenario_deadline_slack(Scenario::Popular)
        );
        assert!(
            scenario_deadline_slack(Scenario::Popular) < scenario_deadline_slack(Scenario::Upload)
        );
    }

    #[test]
    #[should_panic(expected = "not a service scenario")]
    fn vod_has_no_deadline_slack() {
        scenario_deadline_slack(Scenario::Vod);
    }
}
