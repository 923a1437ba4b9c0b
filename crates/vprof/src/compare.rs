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
//!
//! [`compare_pairs`] judges alternating runs instead (parent, change,
//! parent, change, …), each an `all` output or the output of one
//! `--workload` run. Per workload and end-to-end metric it takes the
//! paired ratio change ÷ parent of each pair and reports how many pairs
//! the change won, the median ratio and the sign-test interval of that
//! median: the order statistics `r(k)` and `r(n+1−k)` of the ratios for
//! the largest `k` with `2 · P(Binomial(n, ½) < k) ≤ 5 %`, which holds
//! whatever the ratios' distribution. An interval wholly on the better
//! side of 1 is `better`, wholly on the worse side `worse`, otherwise
//! (and below six pairs, where no interval reaches 95 %) `unresolved`.
//! Only a `worse` whose median ratio is past the metric's bound fails.

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

/// Parses one or more concatenated `all` outputs, or the output of one
/// `--workload` run. A result line is any line starting with `{`; it
/// closes the section its header opened. Outside a section, a run's own
/// `workload: <name> … trace=<0|1>` line opens one (inside an `all`
/// section it repeats the header and is skipped).
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
        } else if let (None, Some(run)) = (&open, line.strip_prefix("workload: ")) {
            let mut words = run.split(' ');
            let name = words.next().unwrap_or_default();
            let traced = match words.find_map(|w| w.strip_prefix("trace=")) {
                Some("0") => false,
                Some("1") => true,
                _ => return Err(format!("line {n}: malformed run line {line:?}")),
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
        None if out.is_empty() => {
            Err("no untraced section (`==== <workload> trace=0 ====` or `workload: … trace=0`)"
                .to_string())
        }
        None => Ok(out),
    }
}

/// `(q1, q3)` as Python's `statistics.quantiles(values, n=4)` (the
/// exclusive method the acceptance procedure uses) computes them; `None`
/// below two values.
fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (n >= 2).then(|| (cut(1), cut(3)))
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

/// Confidence required of a sign-test interval before it decides.
const CONFIDENCE: f64 = 0.95;

/// The sign-test interval's rank for `n` paired ratios: the largest `k`
/// with `2 · P(Binomial(n, ½) < k) ≤ 1 − CONFIDENCE`, and the interval's
/// confidence `1 − 2 · P(Binomial(n, ½) < k)`; `None` below six pairs.
fn sign_rank(n: usize) -> Option<(usize, f64)> {
    let (mut below, mut choose, mut found) = (0.0, 1.0, None);
    for i in 0..n {
        // P(B = i) = C(n, i) / 2^n; `below` is then P(B ≤ i) = P(B < i + 1).
        below += choose * 0.5f64.powi(n as i32);
        if 2.0 * below > 1.0 - CONFIDENCE {
            break;
        }
        found = Some((i + 1, 1.0 - 2.0 * below));
        choose = choose * (n - i) as f64 / (i + 1) as f64;
    }
    found
}

/// What a run of pairs says about one metric.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// The interval lies wholly on the better side of 1.
    Better,
    /// The interval lies wholly on the worse side of 1.
    Worse,
    /// The interval holds 1, or there are too few pairs for one.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One (workload, metric) over paired runs.
#[derive(Clone, Debug)]
pub struct PairedRow {
    /// Workload name.
    pub workload: String,
    /// The metric as the contract declares it.
    pub metric: Metric,
    /// Change ÷ parent for each pair that has the metric on both sides,
    /// ascending.
    pub ratios: Vec<f64>,
    /// Each side's values over those pairs: parent, change.
    pub sides: (Vec<f64>, Vec<f64>),
}

impl PairedRow {
    /// Whether a ratio is on the metric's better side of 1.
    fn better(&self, ratio: f64) -> bool {
        if self.metric.higher_is_better {
            ratio > 1.0
        } else {
            ratio < 1.0
        }
    }

    /// Whether a ratio is on the metric's worse side of 1.
    fn worse(&self, ratio: f64) -> bool {
        ratio != 1.0 && !self.better(ratio)
    }

    /// Pairs the change won.
    pub fn wins(&self) -> usize {
        self.ratios.iter().filter(|&&r| self.better(r)).count()
    }

    /// The sign-test interval of the median ratio and its confidence.
    pub fn interval(&self) -> Option<(f64, f64, f64)> {
        let (k, confidence) = sign_rank(self.ratios.len())?;
        Some((self.ratios[k - 1], self.ratios[self.ratios.len() - k], confidence))
    }

    /// The verdict of the interval.
    pub fn verdict(&self) -> Verdict {
        match self.interval() {
            Some((lo, hi, _)) if self.better(lo) && self.better(hi) => Verdict::Better,
            Some((lo, hi, _)) if self.worse(lo) && self.worse(hi) => Verdict::Worse,
            _ => Verdict::Unresolved,
        }
    }

    /// A resolved `worse` whose median ratio is past the metric's bound.
    pub fn regressed(&self) -> bool {
        let Some(ratio) = median(&self.ratios) else { return false };
        let worse_by = if self.metric.higher_is_better { 1.0 - ratio } else { ratio - 1.0 };
        self.verdict() == Verdict::Worse && worse_by > self.metric.bound
    }

    /// The row as one Markdown table line.
    fn line(&self) -> String {
        let m = &self.metric;
        let ratio = median(&self.ratios)
            .map_or("-".to_string(), |r| format!("{r:.4} ({:+.2}%)", (r - 1.0) * 100.0));
        let interval = self
            .interval()
            .map_or("-".to_string(), |(lo, hi, c)| format!("[{lo:.4}, {hi:.4}] {:.1}%", c * 100.0));
        let (parent, change) = &self.sides;
        let spread =
            quartiles(parent).map_or(String::new(), |(q1, q3)| format!(" [{q1:.4}, {q3:.4}]"));
        let medians = format!(
            "{:.4}{spread} → {:.4}",
            median(parent).unwrap_or_default(),
            median(change).unwrap_or_default()
        );
        let verdict = match self.verdict() {
            v @ Verdict::Worse if self.regressed() => {
                format!("{} past {:.0}%", v.name(), m.bound * 100.0)
            }
            v => v.name().to_string(),
        };
        format!(
            "| {} | {} ({}, {} is better) | {} | {}/{} | {} | {} | {} | {} |",
            self.workload,
            m.name,
            m.unit,
            if m.higher_is_better { "higher" } else { "lower" },
            self.ratios.len(),
            self.wins(),
            self.ratios.len(),
            medians,
            ratio,
            interval,
            verdict,
        )
    }
}

/// The outcome of a paired comparison.
#[derive(Clone, Debug, Default)]
pub struct Paired {
    /// One row per (contract workload, end-to-end metric) some pair has.
    pub rows: Vec<PairedRow>,
    /// Sections whose result did not say `"correct": true`, each
    /// `[<workload>]: …`; shown, not judged.
    pub notes: Vec<String>,
}

/// Judges alternating runs: `pairs[i]` is (parent, change) of pair `i`.
pub fn compare_pairs(contract: &Contract, pairs: &[(Output, Output)]) -> Paired {
    let mut paired = Paired::default();
    for workload in &contract.workloads {
        let incorrect: usize = pairs
            .iter()
            .flat_map(|(old, new)| [old, new])
            .filter_map(|out| out.get(workload))
            .map(|s| s.incorrect)
            .sum();
        if incorrect > 0 {
            paired.notes.push(format!("[{workload}]: {incorrect} section(s) not correct"));
        }
        for metric in &contract.end_to_end {
            let value = |out: &Output| median(out.get(workload)?.metrics.get(&metric.name)?);
            let sides: (Vec<f64>, Vec<f64>) =
                pairs.iter().filter_map(|(old, new)| Some((value(old)?, value(new)?))).unzip();
            if sides.0.is_empty() {
                continue;
            }
            let mut ratios: Vec<f64> = sides
                .0
                .iter()
                .zip(&sides.1)
                .map(|(&old, &new)| if new == old { 1.0 } else { new / old })
                .collect();
            ratios.sort_by(f64::total_cmp);
            paired.rows.push(PairedRow {
                workload: workload.clone(),
                metric: metric.clone(),
                ratios,
                sides,
            });
        }
    }
    paired
}

impl Paired {
    /// Whether any row is a resolved `worse` past its bound.
    pub fn regressed(&self) -> bool {
        self.rows.iter().any(PairedRow::regressed)
    }

    /// The paired table, then the notes.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "| workload | metric | n | wins | parent median [quartiles] → change median \
             | median ratio | sign-test interval | verdict |\n\
             |---|---|---|---|---|---|---|---|\n",
        );
        for row in &self.rows {
            out += &format!("{}\n", row.line());
        }
        for note in &self.notes {
            out += &format!("note {note}\n");
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

    /// Ten pairs whose change side is the parent's `rate` times `effect`
    /// and its pair's `wobble`; bytes are equal in every pair.
    fn pairs(effect: f64, wobble: impl Fn(usize) -> f64) -> Vec<(Output, Output)> {
        (0..10)
            .map(|i| {
                let parent = 100.0 + 7.0 * (i % 4) as f64;
                let parse = |t: String| parse_output(&t).expect("parses");
                (parse(all(parent, 500.0)), parse(all(parent * effect * wobble(i), 500.0)))
            })
            .collect()
    }

    fn row<'a>(paired: &'a Paired, workload: &str, metric: &str) -> &'a PairedRow {
        let hit = paired.rows.iter().find(|r| r.workload == workload && r.metric.name == metric);
        hit.expect("row present")
    }

    #[test]
    fn sign_test_ranks_are_the_binomial_order_statistics() {
        assert_eq!(sign_rank(5), None, "no 95 % interval from five pairs");
        let (k, c) = sign_rank(6).expect("six pairs");
        assert_eq!(k, 1);
        assert!((c - (1.0 - 2.0 / 64.0)).abs() < 1e-12);
        let (k, c) = sign_rank(10).expect("ten pairs");
        assert_eq!(k, 2, "P(B < 2) = 11/1024");
        assert!((c - (1.0 - 22.0 / 1024.0)).abs() < 1e-12);
        assert_eq!(sign_rank(20).map(|(k, _)| k), Some(6), "P(B < 6) = 0.0207");
    }

    #[test]
    fn a_planted_gain_resolves_better() {
        let paired =
            compare_pairs(&contract(), &pairs(1.2, |i| 1.0 + 0.03 * (i % 3) as f64 - 0.03));
        let rate = row(&paired, "a", "rate");
        assert_eq!((rate.ratios.len(), rate.wins()), (10, 10));
        assert_eq!(rate.verdict(), Verdict::Better);
        assert!(!paired.regressed());
        let bytes = row(&paired, "a", "bytes");
        assert_eq!((bytes.wins(), bytes.verdict()), (0, Verdict::Unresolved), "equal bytes");
        let text = paired.render();
        let row =
            "| a | rate (x, higher is better) | 10 | 10/10 | 107.0000 [100.0000, 115.7500] → ";
        assert!(text.contains(row), "{text}");
        assert!(text.contains(" | 1.2000 (+20.00%) | [1.1640, 1.2360] 97.9% | better |"), "{text}");
    }

    #[test]
    fn a_planted_loss_past_the_bound_resolves_worse_and_fails() {
        let paired = compare_pairs(&contract(), &pairs(0.7, |i| 1.0 + 0.01 * (i % 2) as f64));
        let rate = row(&paired, "a", "rate");
        assert_eq!((rate.wins(), rate.verdict()), (0, Verdict::Worse));
        assert!(rate.regressed() && paired.regressed());
        assert!(paired.render().contains("| worse past 25% |"), "{}", paired.render());
        // Worse within the bound resolves but does not fail.
        let paired = compare_pairs(&contract(), &pairs(0.9, |_| 1.0));
        assert_eq!(row(&paired, "a", "rate").verdict(), Verdict::Worse);
        assert!(!paired.regressed());
    }

    #[test]
    fn alternating_noise_stays_unresolved() {
        let paired = compare_pairs(&contract(), &pairs(1.0, |i| [1.15, 0.85][i % 2]));
        let rate = row(&paired, "a", "rate");
        assert_eq!((rate.wins(), rate.verdict()), (5, Verdict::Unresolved));
        assert!(!paired.regressed());
        // Too few pairs never resolve, however large the effect.
        let few = &pairs(2.0, |_| 1.0)[..5];
        assert_eq!(
            row(&compare_pairs(&contract(), few), "a", "rate").verdict(),
            Verdict::Unresolved
        );
    }

    #[test]
    fn one_workload_runs_pair_like_all_runs() {
        let run = |rate: f64| {
            format!(
                "workload: a seed=3 seconds=30 trace=0 workers=2 nproc=2\npasses: 9 timed\n{}\n",
                result(true, 10, 0, &[("rate", rate), ("bytes", 500.0)])
            )
        };
        let parsed = parse_output(&run(120.0)).expect("a one-workload run parses");
        assert_eq!(parsed["a"].metrics["rate"], [120.0]);
        assert!(parse_output("workload: a seed=1\n").unwrap_err().contains("malformed run line"));
        // Inside an `all` section the run line repeats the header.
        let nested = format!("==== a trace=1 ====\n{}", run(1.0));
        assert!(
            parse_output(&format!("{nested}{}", run(5.0))).expect("parses")["a"].metrics["rate"]
                == [5.0]
        );
        let pairs: Vec<_> = (0..6)
            .map(|i| {
                let parse = |t: String| parse_output(&t).expect("parses");
                (parse(run(100.0 + i as f64)), parse(run(130.0 + i as f64)))
            })
            .collect();
        let paired = compare_pairs(&contract(), &pairs);
        assert_eq!(row(&paired, "a", "rate").verdict(), Verdict::Better);
        assert!(paired.rows.iter().all(|r| r.workload == "a"), "workload b has no runs");
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
