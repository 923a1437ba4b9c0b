//! Trace sinks: the machine-readable JSONL event stream and the
//! human-readable span-tree / metrics summary.
//!
//! Both render a [`TraceReport`], the immutable snapshot returned by
//! [`crate::drain`]. Everything here is plain string building — sinks
//! run once at end-of-run, never on the hot path.

use std::collections::BTreeMap;

use crate::json::{Object, ToJson};
use crate::metrics::Log2Histogram;
use crate::stream::{header_line, log_line, span_head};
use crate::{FieldValue, LogLevel};

/// One completed span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Unique id (process-wide, monotonically assigned).
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Static span name (e.g. `"transcode"`).
    pub name: &'static str,
    /// Originating thread (small dense id, not the OS tid).
    pub thread: u64,
    /// Start time in microseconds since the trace epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Typed key/value annotations recorded while the span was open.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl SpanRecord {
    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// One log event.
#[derive(Clone, Debug)]
pub struct LogRecord {
    /// Severity.
    pub level: LogLevel,
    /// Static subsystem tag (e.g. `"vbench"`, `"farm"`).
    pub target: &'static str,
    /// Message text.
    pub message: String,
    /// Event time in microseconds since the trace epoch.
    pub t_us: u64,
}

/// Everything the collector gathered between two [`crate::drain`] calls.
#[derive(Clone, Debug, Default)]
pub struct TraceReport {
    /// Wall-clock time of this process's trace epoch (µs since the Unix
    /// epoch). All span/log timestamps are relative to it, so two
    /// reports from different processes can be rebased onto a shared
    /// timebase: `start_us + (epoch_unix_us - other.epoch_unix_us)`.
    pub epoch_unix_us: u64,
    /// Process id of the emitting process.
    pub pid: u64,
    /// Completed spans in completion order.
    pub spans: Vec<SpanRecord>,
    /// Log events in emission order.
    pub logs: Vec<LogRecord>,
    /// Counter totals by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Last-written gauge values by name.
    pub gauges: BTreeMap<&'static str, f64>,
    /// Histograms by name.
    pub histograms: BTreeMap<&'static str, Log2Histogram>,
}

impl TraceReport {
    /// Whether nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.logs.is_empty()
            && self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
    }

    /// Serializes the report as JSON Lines: one event object per line,
    /// the stream header first. [`crate::stream`] lists each kind's keys
    /// and reads the lines back.
    pub fn to_jsonl(&self) -> String {
        let line = |kind: &str| Object::new().field("kind", kind);
        let spans = self.spans.iter().map(|s| {
            span_head(s.id, s.parent, s.name, s.thread, s.start_us, s.dur_us)
                .field("fields", s.fields.iter().fold(Object::new(), |o, (k, v)| o.field(k, v)))
                .close()
        });
        let logs = self.logs.iter().map(|l| log_line(l.t_us, l.level, l.target, &l.message));
        let named = |kind: &str, name: &str, value: &dyn ToJson| {
            line(kind).field("name", name).field("value", value)
        };
        let counters = self.counters.iter().map(|(name, v)| named("counter", name, v));
        let gauges = self.gauges.iter().map(|(name, v)| named("gauge", name, v));
        let histograms = self.histograms.iter().map(|(name, h)| {
            line("histogram")
                .field("name", name)
                .field("count", h.count())
                .field("sum", h.sum())
                .field("min", h.min())
                .field("max", h.max())
                .field("mean", h.mean())
                .field("p50", h.quantile(0.5))
                .field("p90", h.quantile(0.9))
                .field("p95", h.quantile(0.95))
                .field("p99", h.quantile(0.99))
        });
        let metrics = counters.chain(gauges).chain(histograms).map(Object::close);
        std::iter::once(header_line(self.epoch_unix_us, self.pid, None))
            .chain(spans)
            .chain(logs)
            .chain(metrics)
            .map(|text| text + "\n")
            .collect()
    }

    /// Renders the human-readable end-of-run summary: an aggregated span
    /// tree (spans grouped by name within their parent group) followed by
    /// the metrics tables. Intended for stderr so stdout report output
    /// stays untouched.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str(&format!("── span tree ({} spans) {:─<28}\n", self.spans.len(), ""));
            out.push_str(&format!(
                "{:<44} {:>6} {:>12} {:>12}\n",
                "span", "count", "total", "mean"
            ));
            render_span_tree(&mut out, &self.spans);
        }
        if !self.counters.is_empty() {
            out.push_str("── counters ─────────────────────────────────────\n");
            for (name, value) in &self.counters {
                out.push_str(&format!("{name:<44} {value:>12}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("── gauges ───────────────────────────────────────\n");
            for (name, value) in &self.gauges {
                out.push_str(&format!("{name:<44} {value:>12.4}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("── histograms ───────────────────────────────────\n");
            for (name, h) in &self.histograms {
                out.push_str(&format!(
                    "{name:<32} count {:>7}  mean {:>10.1}  p50 {:>8}  p95 {:>8}  p99 {:>8}  max {:>8}\n",
                    h.count(),
                    h.mean(),
                    h.quantile(0.5),
                    h.quantile(0.95),
                    h.quantile(0.99),
                    h.max(),
                ));
            }
        }
        out
    }
}

/// Aggregated node of the rendered span tree.
#[derive(Default)]
struct TreeNode {
    count: u64,
    total_us: u64,
    children: BTreeMap<&'static str, TreeNode>,
}

fn render_span_tree(out: &mut String, spans: &[SpanRecord]) {
    // Group children under each parent id; spans whose parent was never
    // recorded (still open at drain, or cross-thread roots) are roots.
    let known: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
    let mut by_parent: BTreeMap<Option<u64>, Vec<&SpanRecord>> = BTreeMap::new();
    for s in spans {
        let parent = s.parent.filter(|p| known.contains(p));
        by_parent.entry(parent).or_default().push(s);
    }
    let mut root = TreeNode::default();
    for s in by_parent.get(&None).cloned().unwrap_or_default() {
        accumulate(&mut root, s, &by_parent);
    }
    render_node(out, &root, 0);
}

fn accumulate<'a>(
    parent: &mut TreeNode,
    span: &'a SpanRecord,
    by_parent: &BTreeMap<Option<u64>, Vec<&'a SpanRecord>>,
) {
    let node = parent.children.entry(span.name).or_default();
    node.count += 1;
    node.total_us += span.dur_us;
    for child in by_parent.get(&Some(span.id)).cloned().unwrap_or_default() {
        accumulate(node, child, by_parent);
    }
}

fn render_node(out: &mut String, node: &TreeNode, depth: usize) {
    // Largest total first at each level.
    let mut children: Vec<(&&str, &TreeNode)> = node.children.iter().collect();
    children.sort_by(|a, b| b.1.total_us.cmp(&a.1.total_us).then(a.0.cmp(b.0)));
    for (name, child) in children {
        let label = format!("{:indent$}{name}", "", indent = depth * 2);
        out.push_str(&format!(
            "{label:<44} {:>6} {:>12} {:>12}\n",
            child.count,
            fmt_dur_us(child.total_us),
            fmt_dur_us(child.total_us / child.count.max(1)),
        ));
        render_node(out, child, depth + 1);
    }
}

/// Human duration: µs under 1 ms, ms under 1 s, seconds above.
fn fmt_dur_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us} µs")
    } else if us < 1_000_000 {
        format!("{:.2} ms", us as f64 / 1e3)
    } else {
        format!("{:.3} s", us as f64 / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The JSONL bytes of a hand-built report — all six line kinds, every
    /// `FieldValue` variant, escaping, a non-finite gauge — pinned
    /// literally, so a change to the writer cannot move a byte unseen.
    #[test]
    fn jsonl_bytes_match_the_pinned_stream() {
        let mut histogram = Log2Histogram::default();
        for v in [3, 40, 900] {
            histogram.record(v);
        }
        let report = TraceReport {
            epoch_unix_us: 1_700_000_000_123_456,
            pid: 4242,
            spans: vec![
                SpanRecord {
                    id: 2,
                    parent: Some(1),
                    name: "child",
                    thread: 1,
                    start_us: 10,
                    dur_us: 5,
                    fields: Vec::new(),
                },
                SpanRecord {
                    id: 1,
                    parent: None,
                    name: "root \"q\"",
                    thread: 0,
                    start_us: 0,
                    dur_us: 30,
                    fields: vec![
                        ("frames", FieldValue::U64(120)),
                        ("psnr", FieldValue::F64(41.5)),
                        ("whole", FieldValue::F64(2.0)),
                        ("inf", FieldValue::F64(f64::INFINITY)),
                        ("codec", FieldValue::Str("a\\b\n\"c\"\u{1}é".to_string())),
                        ("hw", FieldValue::Bool(false)),
                    ],
                },
            ],
            logs: vec![LogRecord {
                level: LogLevel::Info,
                target: "vbench",
                message: "path C:\\x\ttab".to_string(),
                t_us: 7,
            }],
            counters: BTreeMap::from([("jobs", 7), ("zero", 0)]),
            gauges: BTreeMap::from([("nan", f64::NAN), ("util", 0.25)]),
            histograms: BTreeMap::from([("wait_us", histogram)]),
        };
        let golden = concat!(
            r#"{"kind":"header","version":1,"epoch_unix_us":1700000000123456,"pid":4242}"#,
            "\n",
            r#"{"kind":"span","id":2,"parent":1,"name":"child","thread":1,"start_us":10,"#,
            r#""dur_us":5,"fields":{}}"#,
            "\n",
            r#"{"kind":"span","id":1,"parent":null,"name":"root \"q\"","thread":0,"#,
            r#""start_us":0,"dur_us":30,"fields":{"frames":120,"psnr":41.5,"whole":2.0,"#,
            r#""inf":null,"codec":"a\\b\n\"c\"\u0001é","hw":false}}"#,
            "\n",
            r#"{"kind":"log","t_us":7,"level":"info","target":"vbench","#,
            r#""message":"path C:\\x\ttab"}"#,
            "\n",
            r#"{"kind":"counter","name":"jobs","value":7}"#,
            "\n",
            r#"{"kind":"counter","name":"zero","value":0}"#,
            "\n",
            r#"{"kind":"gauge","name":"nan","value":null}"#,
            "\n",
            r#"{"kind":"gauge","name":"util","value":0.25}"#,
            "\n",
            r#"{"kind":"histogram","name":"wait_us","count":3,"sum":943,"min":3,"max":900,"#,
            r#""mean":314.3333333333333,"p50":63,"p90":900,"p95":900,"p99":900}"#,
            "\n",
        );
        assert_eq!(report.to_jsonl(), golden);
    }
}
