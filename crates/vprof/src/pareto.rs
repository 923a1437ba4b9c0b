//! The `PARETO_<scenario>.json` cost-QoS frontier: written by `vbench
//! plan`, read back and rendered by `vprof pareto`.
//!
//! One point per deadline multiplier: the cost-aware plan's dollar cost
//! and deadline-miss rate next to the homogeneous baseline's, plus the
//! fleet actually bought, and the encode proof tying the plan to real
//! transcodes. The document is written through `json::Object`; key
//! order is call order, floats are shortest round-trip, and a newline
//! ends the single line, because byte-identical output at any
//! `--workers` is an acceptance criterion CI enforces with `cmp`.
//! [`ParetoReport::render`] is the one frontier table both `vbench
//! plan` and `vprof pareto` print.

use vtrace::json::{Keys, Object};

use crate::sat::{read_document, EncodeProof};

/// Report format version; bump on any schema change.
pub const PARETO_VERSION: u32 = 1;

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

impl ParetoPoint {
    /// Dollars saved against the baseline, as a fraction of the
    /// baseline's cost (0 when the baseline is free).
    pub fn savings(&self) -> f64 {
        if self.baseline_dollar_cost > 0.0 {
            1.0 - self.dollar_cost / self.baseline_dollar_cost
        } else {
            0.0
        }
    }
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
    /// Frontier points, in grid order (tightest deadline first).
    pub points: Vec<ParetoPoint>,
}

impl ParetoReport {
    /// Whether the mult-1.0 point (the scenario's own deadline) had any
    /// job no catalog entry could serve in time.
    pub fn infeasible_at_unit_deadline(&self) -> bool {
        self.points.iter().any(|p| p.deadline_mult == 1.0 && p.miss_rate > 0.0)
    }

    /// The tightest deadline multiplier the cost-aware plan served with
    /// zero misses, or `None` if every point missed.
    pub fn feasibility_knee(&self) -> Option<f64> {
        self.points.iter().find(|p| p.miss_rate == 0.0).map(|p| p.deadline_mult)
    }

    /// Serializes to the stable single-line JSON document (trailing
    /// newline included). Equal reports produce equal bytes.
    pub fn to_json(&self) -> String {
        let point = |p: &ParetoPoint| {
            Object::new()
                .field("deadline_mult", p.deadline_mult)
                .field("dollar_cost", p.dollar_cost)
                .field("miss_rate", p.miss_rate)
                .field("baseline_dollar_cost", p.baseline_dollar_cost)
                .field("baseline_miss_rate", p.baseline_miss_rate)
                .field("fleet", &p.fleet)
        };
        let head = Object::new()
            .field("kind", "pareto")
            .field("version", PARETO_VERSION)
            .field("scenario", &self.scenario)
            .field("duration_secs", self.duration_secs)
            .field("offered_load", self.offered_load)
            .field("seed", self.seed)
            .field("jobs", self.jobs)
            .field("instances", &self.instances);
        self.proof
            .write(head)
            .field("points", self.points.iter().map(point).collect::<Vec<_>>())
            .close()
            + "\n"
    }

    /// Parses the document [`ParetoReport::to_json`] writes. Kind and
    /// version are checked, and every key is required, so a truncated
    /// document cannot masquerade as a clean frontier.
    ///
    /// # Errors
    ///
    /// Invalid JSON, another kind or version, or the first missing or
    /// mistyped key.
    pub fn parse(text: &str) -> Result<ParetoReport, String> {
        let doc = read_document(text, "pareto", PARETO_VERSION)?;
        let keys = Keys { what: "PARETO", value: &doc };
        let point = |value| -> Result<ParetoPoint, String> {
            let keys = Keys { what: "PARETO point", value };
            Ok(ParetoPoint {
                deadline_mult: keys.float("deadline_mult")?,
                dollar_cost: keys.float("dollar_cost")?,
                miss_rate: keys.float("miss_rate")?,
                baseline_dollar_cost: keys.float("baseline_dollar_cost")?,
                baseline_miss_rate: keys.float("baseline_miss_rate")?,
                fleet: keys
                    .array("fleet")?
                    .iter()
                    .map(|n| n.as_u64().and_then(|n| n.try_into().ok()))
                    .collect::<Option<_>>()
                    .ok_or("PARETO fleet count is not an integer")?,
            })
        };
        Ok(ParetoReport {
            scenario: keys.text("scenario")?.to_string(),
            duration_secs: keys.float("duration_secs")?,
            offered_load: keys.float("offered_load")?,
            seed: keys.int("seed")?,
            jobs: keys.int("jobs")?,
            instances: keys
                .array("instances")?
                .iter()
                .map(|v| v.as_str().map(str::to_string))
                .collect::<Option<_>>()
                .ok_or("PARETO instance is not a string")?,
            proof: EncodeProof::read(&keys)?,
            points: keys.array("points")?.iter().map(point).collect::<Result<_, String>>()?,
        })
    }

    /// Renders the operator's frontier table: one row per deadline
    /// multiplier with both plans' cost and miss rate, the savings, and
    /// the instance mix bought; a `*` marks rows where the cost-aware
    /// plan still missed deadlines. Deterministic: equal reports render
    /// to equal strings.
    pub fn render(&self) -> String {
        let mut out = format!(
            "cost-QoS frontier: {}  duration {}s  offered-load {}/s  seed {}  jobs {}\n",
            self.scenario, self.duration_secs, self.offered_load, self.seed, self.jobs
        );
        out.push_str(&format!("instance catalog: {}\n", self.instances.join(", ")));
        out.push_str(&format!(
            "{:>6}  {:>12} {:>6}  {:>12} {:>6}  {:>8}  fleet\n",
            "mult", "cost $", "miss%", "base $", "miss%", "savings%"
        ));
        for p in &self.points {
            let marker = if p.miss_rate > 0.0 { '*' } else { ' ' };
            let mix: Vec<String> = p
                .fleet
                .iter()
                .zip(&self.instances)
                .filter(|(&n, _)| n > 0)
                .map(|(n, name)| format!("{n}x{name}"))
                .collect();
            out.push_str(&format!(
                "{:>5.2}{marker}  {:>12.6} {:>6.2}  {:>12.6} {:>6.2}  {:>8.2}  [{}]\n",
                p.deadline_mult,
                p.dollar_cost,
                p.miss_rate * 100.0,
                p.baseline_dollar_cost,
                p.baseline_miss_rate * 100.0,
                p.savings() * 100.0,
                mix.join(" "),
            ));
        }
        match self.feasibility_knee() {
            Some(mult) => out.push_str(&format!(
                "feasibility knee: zero misses from deadline multiplier {mult}\n"
            )),
            None => out.push_str("feasibility knee: none (every point missed deadlines)\n"),
        }
        out + &self.proof.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ParetoReport {
        let point =
            |deadline_mult, dollar_cost, miss_rate, baseline_miss_rate, fleet| ParetoPoint {
                deadline_mult,
                dollar_cost,
                miss_rate,
                baseline_dollar_cost: 0.001,
                baseline_miss_rate,
                fleet,
            };
        ParetoReport {
            scenario: "live".to_string(),
            duration_secs: 8.0,
            offered_load: 4.0,
            seed: 7,
            jobs: 27,
            instances: vec!["x86-sw".to_string(), "x86-qsv".to_string()],
            proof: EncodeProof { unique_encodes: 13, encode_crc32: 57005, encoded_bytes: 999 },
            points: vec![
                point(0.05, 0.002, 0.25, 1.0, vec![0, 2]),
                point(1.0, 0.0008, 0.0, 0.0, vec![1, 0]),
            ],
        }
    }

    /// What the writer writes, the reader takes back unchanged: escaped
    /// scenario and instance names, an empty frontier, the largest seed
    /// the document holds exactly (2^53), and floats that need every
    /// digit.
    #[test]
    fn parse_reads_back_what_to_json_writes() {
        let mut odd = report();
        odd.scenario = "a\"b\\c".to_string();
        odd.instances[1] = "\u{1}é\n".to_string();
        odd.seed = 1 << 53;
        odd.points[0].dollar_cost = 0.1 + 0.2;
        let empty = ParetoReport { points: Vec::new(), ..report() };
        for r in [report(), odd, empty] {
            assert_eq!(ParetoReport::parse(&r.to_json()), Ok(r));
        }
        assert!((report().points[1].savings() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn render_marks_missing_rows_and_is_deterministic() {
        let r = report();
        let table = r.render();
        assert_eq!(table, r.render(), "render must be deterministic");
        assert!(table.contains("0.05*"), "missing row is starred: {table}");
        assert!(table.contains("1.00 "), "clean row is not starred");
        assert!(table.contains("[2xx86-qsv]"), "zero-count entries are elided");
        assert!(table.contains("feasibility knee: zero misses from deadline multiplier 1"));
        assert!(table.contains("13 unique encodes"));
    }

    #[test]
    fn wrong_kind_version_and_truncation_are_parse_errors() {
        assert!(ParetoReport::parse("{\"kind\":\"sat\",\"version\":1}").is_err());
        assert!(ParetoReport::parse("{\"kind\":\"pareto\",\"version\":99}").is_err());
        let json = report().to_json();
        let truncated = json.replace(",\"points\":[", ",\"npoints\":[");
        assert!(ParetoReport::parse(&truncated).is_err(), "missing points must not parse");
        let holed = json.replace("\"miss_rate\":0.25,", "");
        assert!(ParetoReport::parse(&holed).is_err(), "a point missing a field must not parse");
    }

    #[test]
    fn an_all_missing_frontier_reports_no_knee() {
        let mut missing = report();
        missing.points[1].miss_rate = 0.5;
        assert_eq!(missing.feasibility_knee(), None);
        assert!(missing.render().contains("feasibility knee: none"));
    }
}
