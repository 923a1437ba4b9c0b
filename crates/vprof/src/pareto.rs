//! The cost-QoS frontier reader: `PARETO_<scenario>.json` documents
//! written by `vbench plan`, rendered by `vprof pareto`.
//!
//! The document is the cost plane's replayable record of one deadline
//! sweep — per deadline multiplier, the dollar-optimal fleet's price
//! and miss rate against the homogeneous baseline's, with the instance
//! mix actually bought and the encode proof tying the plan to real
//! transcodes. Parsed with the same minimal `vtrace` JSON reader the
//! rest of vprof uses; rendered as the operator's frontier table with
//! savings per point.

use vtrace::json::{self, Value};

/// Schema version this reader understands.
pub const PARETO_DOC_VERSION: u64 = 1;

/// One frontier point: the plan at one deadline multiplier.
#[derive(Clone, Debug, Default)]
pub struct ParetoRow {
    /// Fraction of the scenario deadline this point planned under.
    pub deadline_mult: f64,
    /// Cost-aware fleet: dollars for the horizon.
    pub dollar_cost: f64,
    /// Cost-aware fleet: deadline misses per job.
    pub miss_rate: f64,
    /// Homogeneous baseline: dollars for the horizon.
    pub baseline_dollar_cost: f64,
    /// Homogeneous baseline: deadline misses per job.
    pub baseline_miss_rate: f64,
    /// Instances bought per catalog entry (parallel to the document's
    /// `instances`).
    pub fleet: Vec<u64>,
}

/// A parsed `PARETO_<scenario>.json` document.
#[derive(Clone, Debug, Default)]
pub struct ParetoDoc {
    /// Scenario the frontier was planned for.
    pub scenario: String,
    /// Admission-window length, virtual seconds (also the fleet-sizing
    /// horizon).
    pub duration_secs: f64,
    /// Mean offered arrival rate, jobs per virtual second.
    pub offered_load: f64,
    /// Arrival-process seed.
    pub seed: u64,
    /// Jobs planned.
    pub jobs: u64,
    /// Catalog entry names, in catalog order.
    pub instances: Vec<String>,
    /// Distinct videos really encoded behind the plan.
    pub unique_encodes: u64,
    /// CRC-32 over the per-encode CRCs, in video order.
    pub encode_crc32: u64,
    /// Total encoded payload bytes.
    pub encoded_bytes: u64,
    /// Frontier rows, in file order (tightest deadline first).
    pub points: Vec<ParetoRow>,
}

impl ParetoDoc {
    /// Parses the single-line JSON document. Version and kind are
    /// checked; a missing numeric field is a parse error so a truncated
    /// document cannot masquerade as a clean frontier.
    pub fn parse(text: &str) -> Result<ParetoDoc, String> {
        let doc = json::parse(text.trim()).map_err(|e| format!("bad PARETO JSON: {e}"))?;
        match doc.get("kind").and_then(Value::as_str) {
            Some("pareto") => {}
            other => return Err(format!("not a PARETO document (kind {other:?})")),
        }
        match doc.get("version").and_then(Value::as_u64) {
            Some(PARETO_DOC_VERSION) => {}
            other => return Err(format!("unsupported PARETO version {other:?}")),
        }
        let num = |key: &str| {
            doc.get(key).and_then(Value::as_u64).ok_or_else(|| format!("missing field {key}"))
        };
        let fnum = |key: &str| {
            doc.get(key).and_then(Value::as_f64).ok_or_else(|| format!("missing field {key}"))
        };
        let instances = match doc.get("instances") {
            Some(Value::Array(items)) => items
                .iter()
                .map(|v| v.as_str().map(str::to_string).ok_or("non-string instance name"))
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("missing field instances".to_string()),
        };
        let points = match doc.get("points") {
            Some(Value::Array(items)) => {
                items.iter().map(ParetoRow::parse).collect::<Result<Vec<_>, _>>()?
            }
            _ => return Err("missing field points".to_string()),
        };
        Ok(ParetoDoc {
            scenario: doc
                .get("scenario")
                .and_then(Value::as_str)
                .ok_or("missing field scenario")?
                .to_string(),
            duration_secs: fnum("duration_secs")?,
            offered_load: fnum("offered_load")?,
            seed: num("seed")?,
            jobs: num("jobs")?,
            instances,
            unique_encodes: num("unique_encodes")?,
            encode_crc32: num("encode_crc32")?,
            encoded_bytes: num("encoded_bytes")?,
            points,
        })
    }

    /// The tightest deadline multiplier the cost-aware plan served with
    /// zero misses, or `None` if every point missed.
    pub fn feasibility_knee(&self) -> Option<f64> {
        self.points.iter().find(|p| p.miss_rate == 0.0).map(|p| p.deadline_mult)
    }
}

impl ParetoRow {
    fn parse(v: &Value) -> Result<ParetoRow, String> {
        let fnum = |key: &str| {
            v.get(key).and_then(Value::as_f64).ok_or_else(|| format!("point missing {key}"))
        };
        let fleet = match v.get("fleet") {
            Some(Value::Array(items)) => items
                .iter()
                .map(|n| n.as_u64().ok_or("non-integer fleet count"))
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("point missing fleet".to_string()),
        };
        Ok(ParetoRow {
            deadline_mult: fnum("deadline_mult")?,
            dollar_cost: fnum("dollar_cost")?,
            miss_rate: fnum("miss_rate")?,
            baseline_dollar_cost: fnum("baseline_dollar_cost")?,
            baseline_miss_rate: fnum("baseline_miss_rate")?,
            fleet,
        })
    }

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

/// Renders the operator's frontier table: one row per deadline
/// multiplier with both plans' cost and miss rate, the savings, and the
/// instance mix bought; a `*` marks rows where the cost-aware plan still
/// missed deadlines. Deterministic: equal documents render to equal
/// strings.
pub fn render_pareto(doc: &ParetoDoc) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "cost-QoS frontier: {}  duration {}s  offered-load {}/s  seed {}  jobs {}\n",
        doc.scenario, doc.duration_secs, doc.offered_load, doc.seed, doc.jobs
    ));
    out.push_str(&format!("instance catalog: {}\n", doc.instances.join(", ")));
    out.push_str(&format!(
        "{:>6}  {:>12} {:>6}  {:>12} {:>6}  {:>8}  fleet\n",
        "mult", "cost $", "miss%", "base $", "miss%", "savings%"
    ));
    for p in &doc.points {
        let marker = if p.miss_rate > 0.0 { '*' } else { ' ' };
        let mix: Vec<String> = p
            .fleet
            .iter()
            .zip(&doc.instances)
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
    match doc.feasibility_knee() {
        Some(mult) => out
            .push_str(&format!("feasibility knee: zero misses from deadline multiplier {mult}\n")),
        None => out.push_str("feasibility knee: none (every point missed deadlines)\n"),
    }
    out.push_str(&format!(
        "encode proof: {} unique encodes  crc32 {}  {} bytes\n",
        doc.unique_encodes, doc.encode_crc32, doc.encoded_bytes
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = concat!(
        "{\"kind\":\"pareto\",\"version\":1,\"scenario\":\"live\",\"duration_secs\":8.0,",
        "\"offered_load\":4.0,\"seed\":7,\"jobs\":27,",
        "\"instances\":[\"x86-sw\",\"x86-qsv\"],",
        "\"unique_encodes\":13,\"encode_crc32\":57005,\"encoded_bytes\":999,\"points\":[",
        "{\"deadline_mult\":0.05,\"dollar_cost\":0.002,\"miss_rate\":0.25,",
        "\"baseline_dollar_cost\":0.001,\"baseline_miss_rate\":1.0,\"fleet\":[0,2]},",
        "{\"deadline_mult\":1.0,\"dollar_cost\":0.0008,\"miss_rate\":0.0,",
        "\"baseline_dollar_cost\":0.001,\"baseline_miss_rate\":0.0,\"fleet\":[1,0]}]}\n"
    );

    #[test]
    fn parses_the_sample_document() {
        let doc = ParetoDoc::parse(SAMPLE).expect("parses");
        assert_eq!(doc.scenario, "live");
        assert_eq!(doc.instances, vec!["x86-sw", "x86-qsv"]);
        assert_eq!(doc.points.len(), 2);
        assert_eq!(doc.points[0].fleet, vec![0, 2]);
        assert_eq!(doc.feasibility_knee(), Some(1.0));
        assert!((doc.points[1].savings() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn render_marks_missing_rows_and_is_deterministic() {
        let doc = ParetoDoc::parse(SAMPLE).expect("parses");
        let table = render_pareto(&doc);
        assert_eq!(table, render_pareto(&doc), "render must be deterministic");
        assert!(table.contains("0.05*"), "missing row is starred: {table}");
        assert!(table.contains("1.00 "), "clean row is not starred");
        assert!(table.contains("[2xx86-qsv]"), "zero-count entries are elided");
        assert!(table.contains("feasibility knee: zero misses from deadline multiplier 1"));
        assert!(table.contains("13 unique encodes"));
    }

    #[test]
    fn wrong_kind_version_and_truncation_are_parse_errors() {
        assert!(ParetoDoc::parse("{\"kind\":\"sat\",\"version\":1}").is_err());
        assert!(ParetoDoc::parse("{\"kind\":\"pareto\",\"version\":99}").is_err());
        let truncated = SAMPLE.replace(",\"points\":[", ",\"npoints\":[");
        assert!(ParetoDoc::parse(&truncated).is_err(), "missing points must not parse");
        let holed = SAMPLE.replace("\"miss_rate\":0.25,", "");
        assert!(ParetoDoc::parse(&holed).is_err(), "a point missing a field must not parse");
    }

    #[test]
    fn an_all_missing_frontier_reports_no_knee() {
        let missing = SAMPLE.replace("\"miss_rate\":0.0,", "\"miss_rate\":0.5,");
        let doc = ParetoDoc::parse(&missing).expect("parses");
        assert_eq!(doc.feasibility_knee(), None);
        assert!(render_pareto(&doc).contains("feasibility knee: none"));
    }
}
