//! The `PARETO_<scenario>.json` cost-QoS frontier report, built by
//! sweeping the planner over a deadline grid.
//!
//! One point per deadline multiplier: the cost-aware plan's dollar cost
//! and deadline-miss rate next to the homogeneous baseline's, plus the
//! fleet actually bought. The document itself — types, writer, reader,
//! and the table `vbench plan` and `vprof pareto` both print — is
//! [`vprof::pareto`]'s; it is re-exported here at its old path.

use std::collections::BTreeSet;

use vhw::InstanceCatalog;
pub use vprof::pareto::{ParetoPoint, ParetoReport, PARETO_VERSION};

use super::plan::{plan_fleet, scenario_deadline_slack, uniform_plan, PlanJob};
use crate::engine::Transcoder;
use crate::farm::{transcode_batch, BatchError, EngineJob, JobSource};
use crate::reference::reference_request_for;
use crate::resilience::ResilienceConfig;
use crate::service::arrivals::generate_arrivals;
use crate::service::{EncodeProof, ServiceConfig, VideoProfile};

/// The deadline multipliers the frontier is swept over: fractions of
/// the scenario deadline, tight enough at the low end to price the
/// cheap software classes out and surface the cost-QoS trade-off.
pub const DEADLINE_MULT_GRID: &[f64] = &[0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0];

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
    Ok(EncodeProof::from(&report.require_complete()?))
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

    /// Key order and every byte of the document, pinned literally: CI
    /// `cmp`s reports across commits and worker counts.
    #[test]
    fn schema_keys_in_fixed_order() {
        let golden = concat!(
            r#"{"kind":"pareto","version":1,"scenario":"live","duration_secs":8.0,"#,
            r#""offered_load":12.5,"seed":24301,"jobs":90,"instances":["x86-sw","x86-qsv"],"#,
            r#""unique_encodes":3,"encode_crc32":48879,"encoded_bytes":4096,"points":["#,
            r#"{"deadline_mult":0.1,"dollar_cost":0.5,"miss_rate":0.25,"#,
            r#""baseline_dollar_cost":0.4,"baseline_miss_rate":1.0,"fleet":[0,2]},"#,
            r#"{"deadline_mult":1.0,"dollar_cost":0.25,"miss_rate":0.0,"#,
            r#""baseline_dollar_cost":0.4,"baseline_miss_rate":0.0,"fleet":[1,1]}]}"#,
            "\n",
        );
        assert_eq!(report().to_json(), golden);
    }

    /// Scenario and instance names are escaped: a `"` or `\` in either
    /// still yields a document that parses back to the same strings, in
    /// both reports that carry a scenario.
    #[test]
    fn reports_escape_scenario_and_instance_names() {
        use crate::service::report::SatReport;
        use vtrace::json;
        let odd = "a\"b\\c";
        let mut pareto = report();
        pareto.scenario = odd.to_string();
        pareto.instances[1] = odd.to_string();
        let sat = SatReport {
            scenario: odd.to_string(),
            capacity: 1,
            queue_depth: 1,
            duration_secs: 1.0,
            seed: 0,
            catalog: 1,
            proof: pareto.proof,
            points: Vec::new(),
        };
        let parsed = |doc: String| json::parse(&doc).unwrap_or_else(|e| panic!("{e}: {doc}"));
        let (pareto, sat) = (parsed(pareto.to_json()), parsed(sat.to_json()));
        for v in [&pareto, &sat] {
            assert_eq!(v.get("scenario").and_then(json::Value::as_str), Some(odd));
        }
        match pareto.get("instances") {
            Some(json::Value::Array(names)) => assert_eq!(names[1].as_str(), Some(odd)),
            other => panic!("instances should be an array, got {other:?}"),
        }
    }

    #[test]
    fn unit_deadline_feasibility_looks_at_the_right_point() {
        let mut r = report();
        assert!(!r.infeasible_at_unit_deadline());
        r.points[1].miss_rate = 0.5;
        assert!(r.infeasible_at_unit_deadline());
    }
}
