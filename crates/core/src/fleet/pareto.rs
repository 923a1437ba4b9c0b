//! The `PARETO_<scenario>.json` cost-QoS frontier report.
//!
//! One point per deadline multiplier: the cost-aware plan's dollar cost
//! and deadline-miss rate next to the homogeneous baseline's, plus the
//! fleet actually bought. The serializer follows the workspace's stable
//! single-line JSON rules (fixed key order, shortest round-trip floats,
//! trailing newline) because byte-identical output at any `--workers`
//! is an acceptance criterion CI enforces with `cmp`.

use std::collections::BTreeSet;

use vhw::InstanceCatalog;
use vtrace::json;

use super::plan::{plan_fleet, scenario_deadline_slack, uniform_plan, PlanJob};
use crate::engine::Transcoder;
use crate::farm::{transcode_batch, BatchError, EngineJob, JobSource};
use crate::reference::reference_request_for;
use crate::resilience::ResilienceConfig;
use crate::service::arrivals::generate_arrivals;
use crate::service::{EncodeProof, ServiceConfig, VideoProfile};

/// Report format version; bump on any schema change.
pub const PARETO_VERSION: u32 = 1;

/// The deadline multipliers the frontier is swept over: fractions of
/// the scenario deadline, tight enough at the low end to price the
/// cheap software classes out and surface the cost-QoS trade-off.
pub const DEADLINE_MULT_GRID: &[f64] = &[0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0];

/// One frontier point: the planner's outcome at one deadline scale.
#[derive(Clone, Debug, PartialEq)]
pub struct ParetoPoint {
    /// Deadline multiplier this point planned under (1.0 = the
    /// scenario's own deadline).
    pub deadline_mult: f64,
    /// Cost-aware plan: dollars to rent its fleet for the horizon.
    pub dollar_cost: f64,
    /// Cost-aware plan: deadline misses per job.
    pub miss_rate: f64,
    /// Homogeneous baseline (catalog entry 0 only): dollars.
    pub baseline_dollar_cost: f64,
    /// Homogeneous baseline: deadline misses per job.
    pub baseline_miss_rate: f64,
    /// Instances bought per catalog entry (parallel to the report's
    /// `instances` names).
    pub fleet: Vec<u32>,
}

/// The full frontier report for one scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct ParetoReport {
    /// Scenario the frontier was planned for.
    pub scenario: String,
    /// Admission-window length in virtual seconds (also the fleet-sizing
    /// horizon).
    pub duration_secs: f64,
    /// Mean arrival rate, jobs per virtual second.
    pub offered_load: f64,
    /// Arrival-process seed.
    pub seed: u64,
    /// Jobs planned (arrivals inside the admission window).
    pub jobs: u64,
    /// Catalog entry names, in catalog order.
    pub instances: Vec<String>,
    /// Real-encode fingerprint over the planned job set's unique videos,
    /// in video order.
    pub proof: EncodeProof,
    /// Frontier points, in grid order.
    pub points: Vec<ParetoPoint>,
}

impl ParetoReport {
    /// Whether the mult-1.0 point (the scenario's own deadline) had any
    /// job no catalog entry could serve in time.
    pub fn infeasible_at_unit_deadline(&self) -> bool {
        self.points.iter().any(|p| p.deadline_mult == 1.0 && p.miss_rate > 0.0)
    }

    /// Serializes to the stable single-line JSON document (trailing
    /// newline included). Equal reports produce equal bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.points.len() * 160);
        out.push_str(&format!(
            "{{\"kind\":\"pareto\",\"version\":{},\"scenario\":\"{}\",\"duration_secs\":{},\
             \"offered_load\":{},\"seed\":{},\"jobs\":{},\"instances\":[",
            PARETO_VERSION,
            self.scenario,
            json::number(self.duration_secs),
            json::number(self.offered_load),
            self.seed,
            self.jobs,
        ));
        for (i, name) in self.instances.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\""));
        }
        out.push_str(&format!(
            "],\"unique_encodes\":{},\"encode_crc32\":{},\"encoded_bytes\":{},\"points\":[",
            self.proof.unique_encodes, self.proof.encode_crc32, self.proof.encoded_bytes,
        ));
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"deadline_mult\":{},\"dollar_cost\":{},\"miss_rate\":{},\
                 \"baseline_dollar_cost\":{},\"baseline_miss_rate\":{},\"fleet\":[",
                json::number(p.deadline_mult),
                json::number(p.dollar_cost),
                json::number(p.miss_rate),
                json::number(p.baseline_dollar_cost),
                json::number(p.baseline_miss_rate),
            ));
            for (k, n) in p.fleet.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                out.push_str(&n.to_string());
            }
            out.push_str("]}");
        }
        out.push_str("]}\n");
        out
    }
}

/// The planner's job list for one service run: every arrival inside the
/// admission window, priced on the profile's features, with the
/// scenario deadline scaled by `deadline_mult`. Live deadlines derive
/// from the profile's play-out duration — the
/// [`crate::scenario::live_deadline_secs_for`] arithmetic — times the
/// arrival layer's real-time slack.
pub fn plan_jobs(
    config: &ServiceConfig,
    profiles: &[VideoProfile],
    deadline_mult: f64,
) -> Vec<PlanJob> {
    let slack = scenario_deadline_slack(config.scenario);
    let window_us = (config.duration_secs * 1e6).round() as u64;
    generate_arrivals(config, profiles)
        .into_iter()
        .filter(|a| a.at_us <= window_us)
        .map(|a| PlanJob {
            features: profiles[a.video].features(),
            deadline_secs: profiles[a.video].play_secs * slack * deadline_mult,
            video: a.video,
        })
        .collect()
}

/// Sweeps the deadline grid and assembles the frontier report,
/// including the real-encode proof: the planned job set's unique
/// videos, encoded once each through the executor. The virtual planning
/// never depends on `workers`, and the farm's determinism contract makes
/// the proof fingerprint worker-independent too — so the report is
/// byte-identical at any worker count. Emits the mult-1.0 plan's
/// `fleet.dollar_cost` gauge.
///
/// # Errors
///
/// [`BatchError`] when the proof encode batch fails.
pub fn pareto_report(
    config: &ServiceConfig,
    profiles: &[VideoProfile],
    catalog: &InstanceCatalog,
    engine: &dyn Transcoder,
    workers: usize,
) -> Result<ParetoReport, BatchError> {
    let mut points = Vec::with_capacity(DEADLINE_MULT_GRID.len());
    let mut job_count = 0u64;
    for &mult in DEADLINE_MULT_GRID {
        let jobs = plan_jobs(config, profiles, mult);
        job_count = jobs.len() as u64;
        let plan = plan_fleet(&jobs, catalog, config.duration_secs);
        let baseline = uniform_plan(&jobs, catalog, 0, config.duration_secs);
        if mult == 1.0 {
            vtrace::gauge("fleet.dollar_cost", plan.dollar_cost);
        }
        points.push(ParetoPoint {
            deadline_mult: mult,
            dollar_cost: plan.dollar_cost,
            miss_rate: plan.miss_rate(),
            baseline_dollar_cost: baseline.dollar_cost,
            baseline_miss_rate: baseline.miss_rate(),
            fleet: plan.fleet,
        });
    }
    let proof = encode_proof(config, profiles, engine, workers)?;
    Ok(ParetoReport {
        scenario: config.scenario.name().to_ascii_lowercase(),
        duration_secs: config.duration_secs,
        offered_load: config.offered_load,
        seed: config.seed,
        jobs: job_count,
        instances: catalog.entries().iter().map(|e| e.name.to_string()).collect(),
        proof,
        points,
    })
}

/// Encodes each unique video in the planned job set once, at the
/// scenario reference request (one `fleet.placements` count per job) —
/// real encodes behind the plan, fingerprinted in job order with the
/// same fold as the service proof.
fn encode_proof(
    config: &ServiceConfig,
    profiles: &[VideoProfile],
    engine: &dyn Transcoder,
    workers: usize,
) -> Result<EncodeProof, BatchError> {
    // One job per unique video, in video order: at one deadline
    // multiplier every arrival of a video plans identically.
    let videos: BTreeSet<usize> =
        plan_jobs(config, profiles, 1.0).iter().map(|j| j.video).collect();
    let engine_jobs: Vec<EngineJob> = videos
        .iter()
        .map(|&video| {
            let p = &profiles[video];
            let request = reference_request_for(config.scenario, p.spec.resolution, p.kpixels);
            EngineJob::streaming(p.name, JobSource::Synth(p.spec.clone()), request)
        })
        .collect();
    let report = transcode_batch(engine, &engine_jobs, workers, &ResilienceConfig::default())?;
    vtrace::counter("fleet.placements", engine_jobs.len() as u64);
    Ok(EncodeProof::from_report(&report.require_complete()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ParetoReport {
        ParetoReport {
            scenario: "live".to_string(),
            duration_secs: 8.0,
            offered_load: 12.5,
            seed: 0x5eed,
            jobs: 90,
            instances: vec!["x86-sw".to_string(), "x86-qsv".to_string()],
            proof: EncodeProof { unique_encodes: 3, encode_crc32: 0xBEEF, encoded_bytes: 4096 },
            points: vec![
                ParetoPoint {
                    deadline_mult: 0.1,
                    dollar_cost: 0.5,
                    miss_rate: 0.25,
                    baseline_dollar_cost: 0.4,
                    baseline_miss_rate: 1.0,
                    fleet: vec![0, 2],
                },
                ParetoPoint {
                    deadline_mult: 1.0,
                    dollar_cost: 0.25,
                    miss_rate: 0.0,
                    baseline_dollar_cost: 0.4,
                    baseline_miss_rate: 0.0,
                    fleet: vec![1, 1],
                },
            ],
        }
    }

    #[test]
    fn serialization_is_byte_stable() {
        let r = report();
        assert_eq!(r.to_json(), r.to_json());
        assert!(r.to_json().ends_with("]}\n"));
        assert_eq!(r.to_json().lines().count(), 1, "single line");
    }

    #[test]
    fn schema_keys_in_fixed_order() {
        let json = report().to_json();
        assert!(json.starts_with("{\"kind\":\"pareto\",\"version\":1,\"scenario\":\"live\","));
        let d = json.find("\"dollar_cost\"").unwrap();
        let m = json.find("\"miss_rate\"").unwrap();
        let b = json.find("\"baseline_dollar_cost\"").unwrap();
        assert!(d < m && m < b, "point key order is pinned");
        assert!(json.contains("\"instances\":[\"x86-sw\",\"x86-qsv\"]"));
        assert!(json.contains("\"fleet\":[0,2]"));
    }

    #[test]
    fn unit_deadline_feasibility_looks_at_the_right_point() {
        let mut r = report();
        assert!(!r.infeasible_at_unit_deadline());
        r.points[1].miss_rate = 0.5;
        assert!(r.infeasible_at_unit_deadline());
    }
}
