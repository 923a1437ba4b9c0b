//! Trace sinks: the machine-readable JSONL event stream and the
//! human-readable span-tree / metrics summary.
//!
//! Both render a [`TraceReport`], the immutable snapshot returned by
//! [`crate::drain`]. Everything here is plain string building — sinks
//! run once at end-of-run, never on the hot path.

use std::collections::BTreeMap;

use crate::metrics::Log2Histogram;
use crate::{json, FieldValue, LogLevel};

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

    /// Serializes the report as JSON Lines: one event object per line.
    ///
    /// The first line is always the stream header; event kinds and
    /// their required keys:
    ///
    /// * `header` — `version`, `epoch_unix_us`, `pid`; merged worker
    ///   streams additionally carry `rebased_offset_us`
    /// * `span` — `id`, `parent` (number or null), `name`, `thread`,
    ///   `start_us`, `dur_us`, `fields` (object)
    /// * `log` — `t_us`, `level`, `target`, `message`
    /// * `counter` — `name`, `value`
    /// * `gauge` — `name`, `value` (number or null if non-finite)
    /// * `histogram` — `name`, `count`, `sum`, `min`, `max`, `mean`,
    ///   `p50`, `p90`, `p95`, `p99`
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"kind\":\"header\",\"version\":1,\"epoch_unix_us\":{},\"pid\":{}}}\n",
            self.epoch_unix_us, self.pid,
        ));
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"kind\":\"span\",\"id\":{},\"parent\":{},\"name\":{},\"thread\":{},\
                 \"start_us\":{},\"dur_us\":{},\"fields\":{{",
                s.id,
                match s.parent {
                    Some(p) => p.to_string(),
                    None => "null".to_string(),
                },
                json::string(s.name),
                s.thread,
                s.start_us,
                s.dur_us,
            ));
            for (i, (key, value)) in s.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&json::string(key));
                out.push(':');
                out.push_str(&value.to_json());
            }
            out.push_str("}}\n");
        }
        for l in &self.logs {
            out.push_str(&format!(
                "{{\"kind\":\"log\",\"t_us\":{},\"level\":{},\"target\":{},\"message\":{}}}\n",
                l.t_us,
                json::string(l.level.name()),
                json::string(l.target),
                json::string(&l.message),
            ));
        }
        for (name, value) in &self.counters {
            out.push_str(&format!(
                "{{\"kind\":\"counter\",\"name\":{},\"value\":{}}}\n",
                json::string(name),
                value
            ));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!(
                "{{\"kind\":\"gauge\",\"name\":{},\"value\":{}}}\n",
                json::string(name),
                json::number(*value)
            ));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "{{\"kind\":\"histogram\",\"name\":{},\"count\":{},\"sum\":{},\"min\":{},\
                 \"max\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p95\":{},\"p99\":{}}}\n",
                json::string(name),
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                json::number(h.mean()),
                h.quantile(0.5),
                h.quantile(0.9),
                h.quantile(0.95),
                h.quantile(0.99),
            ));
        }
        out
    }

    /// Writes the JSONL stream to `path`.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
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
