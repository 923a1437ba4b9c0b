//! The `SAT_<scenario>.json` saturation report, built from a sweep.
//!
//! The document itself — types, writer, reader, and the table `vbench
//! saturate` and `vprof sat` both print — is [`vprof::sat`]'s; it is
//! re-exported here at its old path. This module only turns the
//! simulator's [`ServicePoint`]s into its rows.

use super::sim::ServicePoint;
use super::{EncodeProof, ServiceConfig};
pub use vprof::sat::{SatPoint, SatReport, SAT_VERSION};

impl From<&ServicePoint> for SatPoint {
    fn from(point: &ServicePoint) -> SatPoint {
        SatPoint {
            offered_load: point.offered_load,
            offered: point.offered,
            admitted: point.admitted,
            completed: point.completed,
            degraded: point.degraded,
            shed: point.shed,
            drained: point.drained,
            deadline_misses: point.deadline_misses,
            queue_peak: point.queue_peak,
            sojourn_p50_us: point.sojourn_p50_us,
            sojourn_p95_us: point.sojourn_p95_us,
            sojourn_p99_us: point.sojourn_p99_us,
            shed_rate: point.shed_rate(),
            admit_rate: point.admit_rate(),
            degrade_rate: point.degrade_rate(),
        }
    }
}

/// Assembles the report from the swept points and the encode proof.
pub fn sat_report(
    config: &ServiceConfig,
    points: &[ServicePoint],
    proof: EncodeProof,
) -> SatReport {
    SatReport {
        scenario: config.scenario.name().to_ascii_lowercase(),
        capacity: config.capacity,
        queue_depth: config.queue_depth,
        duration_secs: config.duration_secs,
        seed: config.seed,
        catalog: config.catalog,
        proof,
        points: points.iter().map(SatPoint::from).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use crate::service::simulate_service;
    use crate::service::video_profiles;
    use crate::suite::{Suite, SuiteOptions};

    fn report() -> SatReport {
        let suite = Suite::vbench(&SuiteOptions::tiny());
        let profiles = video_profiles(&suite, Scenario::Popular);
        let config = ServiceConfig::new(Scenario::Popular, 0.0, 10.0);
        let points: Vec<ServicePoint> = [5.0, 20.0]
            .iter()
            .map(|&load| {
                simulate_service(&ServiceConfig { offered_load: load, ..config }, &profiles)
            })
            .collect();
        let proof = EncodeProof { unique_encodes: 3, encode_crc32: 0xDEAD, encoded_bytes: 999 };
        sat_report(&config, &points, proof)
    }

    #[test]
    fn serialization_is_byte_stable() {
        let r = report();
        assert_eq!(r.to_json(), r.to_json());
        assert_eq!(r, r.clone());
    }

    #[test]
    fn the_document_parses_and_round_trips_key_fields() {
        let r = report();
        let json = r.to_json();
        let doc = vtrace::json::parse(json.trim()).expect("valid JSON");
        assert_eq!(doc.get("kind").and_then(|v| v.as_str()), Some("sat"));
        assert_eq!(doc.get("version").and_then(|v| v.as_u64()), Some(SAT_VERSION as u64));
        assert_eq!(doc.get("scenario").and_then(|v| v.as_str()), Some("popular"));
        assert_eq!(doc.get("unique_encodes").and_then(|v| v.as_u64()), Some(3));
        let points = match doc.get("points") {
            Some(vtrace::json::Value::Array(items)) => items,
            other => panic!("points should be an array, got {other:?}"),
        };
        assert_eq!(points.len(), 2);
        let first = &points[0];
        assert_eq!(first.get("offered").and_then(|v| v.as_u64()), Some(r.points[0].offered));
        assert!(first.get("shed_rate").and_then(|v| v.as_f64()).is_some());
    }

    /// The document's bytes on fixed inputs, pinned literally: CI
    /// `cmp`s reports across commits and worker counts.
    #[test]
    fn sat_bytes_match_the_pinned_document() {
        let point = |offered_load: f64, shed: u64| SatPoint {
            offered_load,
            offered: 40,
            admitted: 40 - shed,
            completed: 38 - shed,
            degraded: 3,
            shed,
            drained: 1,
            deadline_misses: 2,
            queue_peak: 9,
            sojourn_p50_us: 1_500,
            sojourn_p95_us: 90_000,
            sojourn_p99_us: 1_250_000,
            shed_rate: shed as f64 / 40.0,
            admit_rate: (40 - shed) as f64 / 40.0,
            degrade_rate: 0.075,
        };
        let r = SatReport {
            scenario: "live".to_string(),
            capacity: 4,
            queue_depth: 16,
            duration_secs: 10.0,
            seed: 0x5eed,
            catalog: 1000,
            proof: EncodeProof { unique_encodes: 3, encode_crc32: 0xDEAD_BEEF, encoded_bytes: 999 },
            points: vec![point(2.5, 0), point(1e-3, 7)],
        };
        let golden = concat!(
            r#"{"kind":"sat","version":1,"scenario":"live","capacity":4,"queue_depth":16,"#,
            r#""duration_secs":10.0,"seed":24301,"catalog":1000,"unique_encodes":3,"#,
            r#""encode_crc32":3735928559,"encoded_bytes":999,"points":["#,
            r#"{"offered_load":2.5,"offered":40,"admitted":40,"completed":38,"degraded":3,"#,
            r#""shed":0,"drained":1,"deadline_misses":2,"queue_peak":9,"sojourn_p50_us":1500,"#,
            r#""sojourn_p95_us":90000,"sojourn_p99_us":1250000,"shed_rate":0.0,"#,
            r#""admit_rate":1.0,"degrade_rate":0.075},"#,
            r#"{"offered_load":0.001,"offered":40,"admitted":33,"completed":31,"degraded":3,"#,
            r#""shed":7,"drained":1,"deadline_misses":2,"queue_peak":9,"sojourn_p50_us":1500,"#,
            r#""sojourn_p95_us":90000,"sojourn_p99_us":1250000,"shed_rate":0.175,"#,
            r#""admit_rate":0.825,"degrade_rate":0.075}]}"#,
            "\n",
        );
        assert_eq!(r.to_json(), golden);
    }

    #[test]
    fn max_shed_rate_takes_the_sweep_maximum() {
        let r = report();
        let max = r.max_shed_rate();
        assert!(r.points.iter().all(|p| p.shed_rate <= max));
    }
}
