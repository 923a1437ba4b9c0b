//! The regression gate behind `vprof compare`: two outputs of the repo
//! benchmark's `all` mode, judged the way the acceptance gate judges them.
//!
//! An `all` run prints, for every workload untraced and then traced, a
//! `==== <workload> trace=<0|1> ====` header, the run's lines for people,
//! and last the run's result object: one JSON line with `correct`,
//! `attempted`, `failed` and `metrics`. Several `all` outputs may be
//! concatenated into one file; a workload's metric is then the median over
//! its sections. Only untraced sections are judged — they carry the
//! end-to-end metrics — but every section must end in a well-formed result
//! line, so a truncated file is a parse error and not a quiet pass.
//!
//! Per workload and end-to-end metric, the new median may be worse than
//! the old one by at most the metric's `bound`, a share of the old median,
//! in the direction its `better` names. Workloads, directions and bounds
//! come from the root `BENCHMARK.json`, embedded at build time, so the
//! gate cannot drift from the benchmark. A section whose `correct` is not
//! true, a rise in the failed share of `attempted`, and a workload or
//! metric missing from the new output are findings too.

use std::collections::BTreeMap;

use vtrace::json::{self, Value};

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name in the result object's `metrics`.
    pub name: String,
    /// Unit, for display.
    pub unit: String,
    /// `better: "higher"` (otherwise `"lower"`).
    pub higher_is_better: bool,
    /// Share of the old median by which the new one may be worse.
    pub bound: f64,
}

/// The benchmark's contract: its workloads and end-to-end metrics.
#[derive(Clone, Debug)]
pub struct Contract {
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// End-to-end metrics, in declaration order.
    pub end_to_end: Vec<Metric>,
}

impl Contract {
    /// Parses a `BENCHMARK.json` document; `None` if a field is missing.
    fn parse(text: &str) -> Option<Contract> {
        let doc = json::parse(text).ok()?;
        let list = |key| match doc.get(key) {
            Some(Value::Array(items)) => Some(items),
            _ => None,
        };
        let text = |v: &Value, key| Some(v.get(key)?.as_str()?.to_string());
        let metric = |m: &Value| {
            Some(Metric {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                higher_is_better: text(m, "better")? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        };
        Some(Contract {
            workloads: list("workloads")?.iter().map(|w| text(w, "name")).collect::<Option<_>>()?,
            end_to_end: list("end_to_end")?.iter().map(metric).collect::<Option<_>>()?,
        })
    }

    /// The contract of this checkout's benchmark (`BENCHMARK.json` at the
    /// repo root, read at build time).
    pub fn embedded() -> Contract {
        Contract::parse(include_str!("../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses (pinned by a unit test)")
    }
}

/// Every untraced section of one workload in one output.
#[derive(Clone, Debug, Default)]
pub struct Sections {
    /// Sections whose result did not say `"correct": true`.
    pub incorrect: usize,
    /// `attempted` summed over the sections.
    pub attempted: u64,
    /// `failed` summed over the sections.
    pub failed: u64,
    /// Numeric metric values by name, one per section that reported it.
    pub metrics: BTreeMap<String, Vec<f64>>,
}

/// Untraced sections by workload: what one output says.
pub type Output = BTreeMap<String, Sections>;

/// Parses one or more concatenated `all` outputs. A result line is any
/// line starting with `{`; it closes the section its header opened.
///
/// # Errors
///
/// A malformed header, a result line outside a section, a section without
/// a result line, a result line that is not JSON — each with its line
/// number — or no untraced section at all.
pub fn parse_output(text: &str) -> Result<Output, String> {
    let mut out = Output::new();
    // The open section: (header line, workload, traced).
    let mut open: Option<(usize, String, bool)> = None;
    let unfinished = |(at, name, _): (usize, String, bool)| {
        Err(format!("line {at}: section {name} has no result line"))
    };
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        if let Some(header) = line.strip_prefix("==== ") {
            if let Some(section) = open {
                return unfinished(section);
            }
            let (name, traced) =
                match header.strip_suffix(" ====").and_then(|h| h.split_once(" trace=")) {
                    Some((name, "0")) => (name, false),
                    Some((name, "1")) => (name, true),
                    _ => return Err(format!("line {n}: malformed section header {line:?}")),
                };
            open = Some((n, name.to_string(), traced));
        } else if line.starts_with('{') {
            let Some((_, name, traced)) = open.take() else {
                return Err(format!("line {n}: result line outside a section"));
            };
            let result = json::parse(line).map_err(|e| format!("line {n}: {e}"))?;
            if traced {
                continue;
            }
            let s = out.entry(name).or_default();
            let count = |key| result.get(key).and_then(Value::as_u64).unwrap_or(0);
            s.incorrect += usize::from(result.get("correct") != Some(&Value::Bool(true)));
            s.attempted += count("attempted");
            s.failed += count("failed");
            if let Some(Value::Object(metrics)) = result.get("metrics") {
                for (metric, m) in metrics {
                    if let Some(v) = m.get("value").and_then(Value::as_f64) {
                        s.metrics.entry(metric.clone()).or_default().push(v);
                    }
                }
            }
        }
    }
    match open {
        Some(section) => unfinished(section),
        None if out.is_empty() => Err("no `==== <workload> trace=0 ====` section".to_string()),
        None => Ok(out),
    }
}

/// Median (mean of the middle two for an even count); `None` when empty.
fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let lo = v.len().checked_sub(1)? / 2;
    Some((v[lo] + v[v.len() / 2]) / 2.0)
}

/// One (workload, metric) before/after row: the medians of each side.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// The metric as the contract declares it.
    pub metric: Metric,
    /// Old median, if the old output has the metric.
    pub old: Option<f64>,
    /// New median, if the new output has the metric.
    pub new: Option<f64>,
}

impl Row {
    /// Signed change of the new median relative to the old one (`±inf`
    /// from an old value of 0); `None` unless both sides have a value.
    fn change(&self) -> Option<f64> {
        let (old, new) = (self.old?, self.new?);
        Some(if new == old { 0.0 } else { (new - old) / old.abs() })
    }

    /// `REGRESSION` when the new median is worse than the old by more
    /// than the bound, `MISSING` when the new output lacks the metric,
    /// `no baseline` when the old one does, else `ok`.
    fn status(&self) -> &'static str {
        let worse = |c: f64| if self.metric.higher_is_better { -c } else { c };
        match (self.new, self.change()) {
            (None, _) => "MISSING",
            (_, None) => "no baseline",
            (_, Some(c)) if worse(c) > self.metric.bound => "REGRESSION",
            _ => "ok",
        }
    }

    /// The row as one Markdown table line.
    fn line(&self) -> String {
        let cell = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.4}"));
        let m = &self.metric;
        format!(
            "| {} | {} ({}, {} is better) | {} | {} | {} | {:.0}% | {} |",
            self.workload,
            m.name,
            m.unit,
            if m.higher_is_better { "higher" } else { "lower" },
            cell(self.old),
            cell(self.new),
            self.change().map_or("-".to_string(), |c| format!("{:+.2}%", c * 100.0)),
            m.bound * 100.0,
            self.status(),
        )
    }
}

/// The outcome of a comparison: every row, and the findings (none means
/// the gate passes).
#[derive(Clone, Debug, Default)]
pub struct Comparison {
    /// One row per (contract workload, end-to-end metric) the new output has.
    pub rows: Vec<Row>,
    /// Regressions and blockers, each `[<workload>]: <what>`.
    pub findings: Vec<String>,
}

/// Judges `new` against `old` under `contract`.
pub fn compare(contract: &Contract, old: &Output, new: &Output) -> Comparison {
    let mut cmp = Comparison::default();
    for workload in &contract.workloads {
        let mut finding = |what: String| cmp.findings.push(format!("[{workload}]: {what}"));
        let Some(n) = new.get(workload) else {
            finding("workload missing from the new output".to_string());
            continue;
        };
        let o = old.get(workload);
        if n.incorrect > 0 {
            finding(format!("{} section(s) not correct", n.incorrect));
        }
        let share = |s: &Sections| s.failed as f64 / s.attempted.max(1) as f64;
        if let Some(from) = o.map(share).filter(|&from| share(n) > from) {
            finding(format!("failed share rose from {from:.4} to {:.4}", share(n)));
        }
        for metric in &contract.end_to_end {
            let side = |s: &Sections| median(s.metrics.get(&metric.name)?);
            let row = Row {
                workload: workload.clone(),
                metric: metric.clone(),
                old: o.and_then(side),
                new: side(n),
            };
            match row.status() {
                "MISSING" => finding(format!("{} missing from the new output", metric.name)),
                "REGRESSION" => finding(format!(
                    "{} {:+.2}% is past its {:.0}% bound",
                    metric.name,
                    row.change().unwrap_or_default() * 100.0,
                    metric.bound * 100.0,
                )),
                _ => {}
            }
            cmp.rows.push(row);
        }
    }
    cmp
}

impl Comparison {
    /// The before/after table, then every finding, or the ok line.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "| workload | metric | old | new | change | bound | |\n|---|---|---|---|---|---|---|\n",
        );
        for row in &self.rows {
            out += &format!("{}\n", row.line());
        }
        if self.findings.is_empty() {
            out.push_str(&format!("ok: no regression in {} row(s)\n", self.rows.len()));
        }
        for f in &self.findings {
            out.push_str(&format!("REGRESSION {f}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One result line with the given end-to-end values.
    fn result(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
        let metrics: Vec<String> = metrics
            .iter()
            .map(|(name, v)| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"x\"}}"))
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }

    /// A two-workload, two-metric contract.
    fn contract() -> Contract {
        let metric = |name: &str, higher_is_better, bound| Metric {
            name: name.to_string(),
            unit: "x".to_string(),
            higher_is_better,
            bound,
        };
        Contract {
            workloads: vec!["a".to_string(), "b".to_string()],
            end_to_end: vec![metric("rate", true, 0.25), metric("bytes", false, 0.1)],
        }
    }

    /// An `all` output over the given (workload, rate, bytes) triples:
    /// every workload untraced, then traced.
    fn sections(workloads: &[(&str, f64, f64)]) -> String {
        let mut out = String::new();
        for trace in [0, 1] {
            for (w, rate, bytes) in workloads {
                out.push_str(&format!("==== {w} trace={trace} ====\npasses: 3 timed\n"));
                out.push_str(&result(true, 10, 0, &[("rate", *rate), ("bytes", *bytes)]));
                out.push('\n');
            }
        }
        out
    }

    /// Both workloads, with the given values on `a` and fixed ones on `b`.
    fn all(rate_a: f64, bytes_a: f64) -> String {
        sections(&[("a", rate_a, bytes_a), ("b", 50.0, 1000.0)])
    }

    fn judge(old: &str, new: &str) -> Comparison {
        let parse = |t: &str| parse_output(t).expect("parses");
        compare(&contract(), &parse(old), &parse(new))
    }

    #[test]
    fn the_embedded_contract_is_the_benchmarks() {
        let c = Contract::embedded();
        assert_eq!(c.workloads, ["vod_batch", "live_stream", "journal_null", "dispatch_null"]);
        let jobs = c.end_to_end.iter().find(|m| m.name == "jobs_per_s").expect("jobs_per_s");
        assert!(jobs.higher_is_better && jobs.bound == 0.25);
        assert!(c.end_to_end.iter().any(|m| m.name == "peak_rss_mb" && !m.higher_is_better));
    }

    #[test]
    fn parser_reads_untraced_sections_and_ignores_traced_ones() {
        let mut text = all(100.0, 500.0);
        // A traced section may carry anything in its metrics.
        text.push_str("==== a trace=1 ====\n");
        text.push_str(&result(false, 1, 1, &[("rate", 0.0)]));
        text.push('\n');
        let parsed = parse_output(&text).expect("parses");
        assert_eq!(parsed.len(), 2);
        let a = &parsed["a"];
        assert_eq!((a.incorrect, a.attempted, a.failed), (0, 10, 0));
        assert_eq!(a.metrics["rate"], [100.0]);
    }

    #[test]
    fn malformed_structure_is_a_parse_error() {
        let orphan = result(true, 1, 0, &[]);
        assert!(parse_output(&orphan).unwrap_err().contains("outside a section"));
        assert!(parse_output("passes: 3\n").is_err(), "no section at all");
        let text = all(100.0, 500.0);
        let truncated = &text[..text.trim_end().rfind('\n').expect("several lines")];
        assert!(parse_output(truncated).unwrap_err().contains("has no result line"));
        let cut = &text[..text.len() - 5];
        assert!(parse_output(cut).is_err(), "a cut result line is not JSON");
        let twice = format!("{text}{orphan}\n");
        assert!(parse_output(&twice).unwrap_err().contains("outside a section"));
        assert!(parse_output("==== a trace=2 ====\n").unwrap_err().contains("header"));
    }

    #[test]
    fn median_over_repeated_sections() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        // Three concatenated `all` runs: the gate reads their median, so
        // one slow run among them is not a regression.
        let new = [all(100.0, 500.0), all(10.0, 500.0), all(104.0, 500.0)].concat();
        let cmp = judge(&all(100.0, 500.0), &new);
        let row = &cmp.rows[0];
        assert_eq!((row.metric.name.as_str(), row.new), ("rate", Some(100.0)));
        assert!(cmp.findings.is_empty(), "{:?}", cmp.findings);
    }

    #[test]
    fn identical_outputs_do_not_regress() {
        let text = all(100.0, 500.0);
        let cmp = judge(&text, &text);
        assert!(cmp.findings.is_empty(), "{:?}", cmp.findings);
        assert_eq!(cmp.rows.len(), 4, "one row per (workload, metric)");
        assert!(cmp.render().contains("ok: no regression in 4 row(s)"));
    }

    #[test]
    fn noise_within_the_bound_passes() {
        // Rate 24 % lower (bound 25 %), bytes 9 % higher (bound 10 %).
        let cmp = judge(&all(100.0, 500.0), &all(76.0, 545.0));
        assert!(cmp.findings.is_empty(), "{:?}", cmp.findings);
    }

    #[test]
    fn slow_enough_new_run_regresses() {
        let cmp = judge(&all(100.0, 500.0), &all(10.0, 500.0));
        assert_eq!(cmp.findings.len(), 1, "{:?}", cmp.findings);
        assert_eq!(&cmp.findings[0][..5], "[a]: ");
        assert!(cmp.findings[0].contains("rate"), "{:?}", cmp.findings);
        let text = cmp.render();
        let row =
            "| a | rate (x, higher is better) | 100.0000 | 10.0000 | -90.00% | 25% | REGRESSION |";
        assert!(text.contains(row), "{text}");
        assert!(text.contains("REGRESSION [a]: rate -90.00% is past its 25% bound"), "{text}");
    }

    #[test]
    fn both_bound_directions_and_an_old_zero() {
        // Lower is better: 11 % more bytes breaks the 10 % bound, and any
        // bytes at all break an old value of 0.
        assert_eq!(judge(&all(100.0, 500.0), &all(100.0, 555.0)).findings.len(), 1);
        assert_eq!(judge(&all(100.0, 0.0), &all(100.0, 1.0)).findings.len(), 1);
        assert!(judge(&all(100.0, 0.0), &all(100.0, 0.0)).findings.is_empty());
        // Higher is better: more is never a regression, from 0 or not.
        assert!(judge(&all(100.0, 500.0), &all(1000.0, 50.0)).findings.is_empty());
        assert!(judge(&all(0.0, 500.0), &all(5.0, 500.0)).findings.is_empty());
        assert!(judge(&all(0.0, 500.0), &all(0.0, 500.0)).findings.is_empty());
    }

    #[test]
    fn missing_workload_is_a_finding() {
        let old = all(100.0, 500.0);
        let new = sections(&[("a", 100.0, 500.0)]);
        let cmp = judge(&old, &new);
        assert_eq!(cmp.findings.len(), 1, "{:?}", cmp.findings);
        assert_eq!(&cmp.findings[0][..5], "[b]: ");
        assert!(cmp.findings[0].contains("missing"));
        // A workload the old output lacks is shown without a judgement.
        let cmp = judge(&new, &old);
        assert!(cmp.findings.is_empty(), "{:?}", cmp.findings);
        assert!(cmp.render().contains("| no baseline |"));
    }

    #[test]
    fn incorrect_results_and_a_rising_failed_share_are_findings() {
        let old = all(100.0, 500.0);
        let wrong = old.replacen("\"correct\": true", "\"correct\": false", 1);
        let cmp = judge(&old, &wrong);
        assert_eq!(cmp.findings.len(), 1, "{:?}", cmp.findings);
        assert!(cmp.findings[0].contains("not correct"));

        let failing = old.replacen("\"failed\": 0", "\"failed\": 2", 1);
        let cmp = judge(&old, &failing);
        assert_eq!(cmp.findings.len(), 1, "{:?}", cmp.findings);
        assert!(cmp.findings[0].contains("failed share rose from 0.0000 to 0.2000"));
        // The same share on both sides is not a rise.
        assert!(judge(&failing, &failing).findings.is_empty());
    }
}
