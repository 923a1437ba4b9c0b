//! The `SAT_<scenario>.json` saturation report.
//!
//! The serializer is hand-rolled on purpose: key order is fixed, floats
//! are formatted with Rust's shortest round-trip `{:?}` (the same rule
//! the journal and trace writers use), and no map iteration order or
//! locale can leak in. Byte-identical output across worker counts and
//! machines is an acceptance criterion, not a nicety — CI diffs two
//! independently produced reports with `cmp`.

use super::sim::ServicePoint;
use super::{EncodeProof, ServiceConfig};
use vtrace::json;

/// Report format version; bump on any schema change.
pub const SAT_VERSION: u32 = 1;

/// One row of the saturation study: the virtual-time outcome at one
/// offered load, reduced to rates and quantiles.
#[derive(Clone, Debug, PartialEq)]
pub struct SatPoint {
    /// Mean offered arrival rate, jobs per virtual second.
    pub offered_load: f64,
    /// Arrivals offered inside the admission window.
    pub offered: u64,
    /// Arrivals admitted.
    pub admitted: u64,
    /// Admitted jobs that completed service.
    pub completed: u64,
    /// Jobs dispatched at a degraded preset.
    pub degraded: u64,
    /// Jobs shed (tail drop, low value, or infeasible).
    pub shed: u64,
    /// Late arrivals refused while draining.
    pub drained: u64,
    /// Live completions past their deadline.
    pub deadline_misses: u64,
    /// Queue high-water mark.
    pub queue_peak: usize,
    /// Median sojourn in virtual microseconds.
    pub sojourn_p50_us: u64,
    /// 95th-percentile sojourn.
    pub sojourn_p95_us: u64,
    /// 99th-percentile sojourn.
    pub sojourn_p99_us: u64,
    /// Sheds per offered job.
    pub shed_rate: f64,
    /// Admissions per offered job.
    pub admit_rate: f64,
    /// Degraded dispatches per offered job.
    pub degrade_rate: f64,
}

impl SatPoint {
    fn from_point(point: &ServicePoint) -> SatPoint {
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

/// The full saturation report: configuration echo, encode proof, and
/// one [`SatPoint`] per swept load.
#[derive(Clone, Debug, PartialEq)]
pub struct SatReport {
    /// Scenario the sweep ran under.
    pub scenario: String,
    /// Virtual fleet size.
    pub capacity: usize,
    /// Class-queue bound.
    pub queue_depth: usize,
    /// Admission-window length in virtual seconds.
    pub duration_secs: f64,
    /// Arrival-process seed.
    pub seed: u64,
    /// Popular catalog size.
    pub catalog: u64,
    /// Real-encode fingerprint over the union admitted mix.
    pub proof: EncodeProof,
    /// Sweep rows, in the order the loads were given.
    pub points: Vec<SatPoint>,
}

impl SatReport {
    /// Assembles the report from the swept points and the encode proof.
    pub fn new(config: &ServiceConfig, points: &[ServicePoint], proof: EncodeProof) -> SatReport {
        SatReport {
            scenario: config.scenario.name().to_ascii_lowercase(),
            capacity: config.capacity,
            queue_depth: config.queue_depth,
            duration_secs: config.duration_secs,
            seed: config.seed,
            catalog: config.catalog,
            proof,
            points: points.iter().map(SatPoint::from_point).collect(),
        }
    }

    /// The maximum shed rate across the sweep (the QoS-gate input).
    pub fn max_shed_rate(&self) -> f64 {
        self.points.iter().map(|p| p.shed_rate).fold(0.0, f64::max)
    }

    /// Serializes to the stable single-line JSON document (trailing
    /// newline included). Equal reports produce equal bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.points.len() * 256);
        out.push_str(&format!(
            "{{\"kind\":\"sat\",\"version\":{},\"scenario\":\"{}\",\"capacity\":{},\
             \"queue_depth\":{},\"duration_secs\":{},\"seed\":{},\"catalog\":{},\
             \"unique_encodes\":{},\"encode_crc32\":{},\"encoded_bytes\":{},\"points\":[",
            SAT_VERSION,
            self.scenario,
            self.capacity,
            self.queue_depth,
            json::number(self.duration_secs),
            self.seed,
            self.catalog,
            self.proof.unique_encodes,
            self.proof.encode_crc32,
            self.proof.encoded_bytes,
        ));
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"offered_load\":{},\"offered\":{},\"admitted\":{},\"completed\":{},\
                 \"degraded\":{},\"shed\":{},\"drained\":{},\"deadline_misses\":{},\
                 \"queue_peak\":{},\"sojourn_p50_us\":{},\"sojourn_p95_us\":{},\
                 \"sojourn_p99_us\":{},\"shed_rate\":{},\"admit_rate\":{},\"degrade_rate\":{}}}",
                json::number(p.offered_load),
                p.offered,
                p.admitted,
                p.completed,
                p.degraded,
                p.shed,
                p.drained,
                p.deadline_misses,
                p.queue_peak,
                p.sojourn_p50_us,
                p.sojourn_p95_us,
                p.sojourn_p99_us,
                json::number(p.shed_rate),
                json::number(p.admit_rate),
                json::number(p.degrade_rate),
            ));
        }
        out.push_str("]}\n");
        out
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
        SatReport::new(&config, &points, proof)
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

    #[test]
    fn max_shed_rate_takes_the_sweep_maximum() {
        let r = report();
        let max = r.max_shed_rate();
        assert!(r.points.iter().all(|p| p.shed_rate <= max));
    }
}
