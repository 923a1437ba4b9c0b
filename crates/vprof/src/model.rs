//! The trace model: a vtrace JSONL stream parsed into typed records,
//! with merged multi-process streams split back into per-process
//! segments.
//!
//! A trace file is one or more *segments*, each introduced by a
//! `header` line: the base process first, then (in a dispatcher-merged
//! file) one rebased segment per worker. Every event is attributed to
//! the segment whose header most recently preceded it, which is the
//! only process identity a merged stream carries — span `thread` ids
//! and parent links are process-local, so all cross-event reasoning in
//! the analyses goes through [`Span::segment`] first.

use std::collections::BTreeMap;

use vtrace::json::Value;
use vtrace::stream::{events, Event};
pub use vtrace::stream::{Header, HistStats};

/// One completed span, attributed to its segment.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span id (unique across the merged stream).
    pub id: u64,
    /// Parent span id; resolvable only within the same segment.
    pub parent: Option<u64>,
    /// Span name.
    pub name: String,
    /// Originating thread (process-local dense id).
    pub thread: u64,
    /// Start, µs on the merged timebase.
    pub start_us: u64,
    /// Duration, µs.
    pub dur_us: u64,
    /// Field annotations.
    pub fields: Vec<(String, Value)>,
    /// Index into [`Trace::headers`] of the owning segment.
    pub segment: usize,
}

impl Span {
    /// End time, µs on the merged timebase.
    pub fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }

    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A numeric field as f64.
    pub fn field_f64(&self, key: &str) -> Option<f64> {
        self.field(key).and_then(Value::as_f64)
    }
}

/// A parsed trace: every record the stream carried, segment-attributed.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Stream headers in file order (base first).
    pub headers: Vec<Header>,
    /// All spans in file order.
    pub spans: Vec<Span>,
    /// Counter totals, merged across segments by summing.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries. A merged stream can carry one histogram
    /// line per process for the same name; later lines are folded in
    /// by count/sum addition and min/max widening (quantiles keep the
    /// largest segment's values — a conservative upper bound).
    pub histograms: BTreeMap<String, HistStats>,
}

/// The first line of a trace that [`Event::parse`] rejected.
#[derive(Debug)]
pub struct ModelError {
    /// 1-based line number.
    pub line: usize,
    /// What was wrong with it.
    pub error: String,
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.error)
    }
}

impl std::error::Error for ModelError {}

impl Trace {
    /// Parses a JSONL trace stream, a fold over its [`Event`]s. Strict
    /// on every kind the stream defines — analysis built on a torn line
    /// or a span without its timestamps would silently lie — but
    /// lenient on unknown kinds, so the model keeps working as the
    /// stream grows new record types.
    ///
    /// # Errors
    ///
    /// [`ModelError`] on the first line that is not valid JSON or is a
    /// known kind with a missing or mistyped key.
    pub fn parse(text: &str) -> Result<Trace, ModelError> {
        let mut trace = Trace::default();
        for (line, _, event) in events(text) {
            match event.map_err(|error| ModelError { line, error })? {
                Event::Header(header) => trace.headers.push(header),
                Event::Span(s) => trace.spans.push(Span {
                    id: s.id,
                    parent: s.parent,
                    name: s.name,
                    thread: s.thread,
                    start_us: s.start_us,
                    dur_us: s.dur_us,
                    fields: s.fields,
                    segment: trace.headers.len().saturating_sub(1),
                }),
                Event::Counter { name, value } => *trace.counters.entry(name).or_insert(0) += value,
                Event::Histogram { name, stats } => {
                    let merged = trace.histograms.entry(name).or_default();
                    *merged = merge_histograms(*merged, stats);
                }
                _ => {}
            }
        }
        Ok(trace)
    }

    /// Reads and parses the trace at `path`.
    ///
    /// # Errors
    ///
    /// I/O errors reading the file; [`ModelError`] stringified for
    /// malformed content.
    pub fn load(path: &std::path::Path) -> std::io::Result<Trace> {
        let text = std::fs::read_to_string(path)?;
        Trace::parse(&text).map_err(|e| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{}: {e}", path.display()))
        })
    }

    /// All spans named `name`, in file order.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// The merged stream's overall time range `[min start, max end)`,
    /// µs; `None` for a spanless trace.
    pub fn time_range(&self) -> Option<(u64, u64)> {
        let start = self.spans.iter().map(|s| s.start_us).min()?;
        let end = self.spans.iter().map(Span::end_us).max()?;
        Some((start, end))
    }
}

/// Folds another segment's summary of the same histogram into `a`:
/// counts and sums add, bounds widen, and the mean is re-derived;
/// quantiles take the elementwise max — exact merging needs the buckets,
/// which the stream does not carry, so the merged quantiles are a
/// conservative upper bound.
fn merge_histograms(a: HistStats, b: HistStats) -> HistStats {
    if a.count == 0 || b.count == 0 {
        return if a.count == 0 { b } else { a };
    }
    let (count, sum) = (a.count + b.count, a.sum + b.sum);
    HistStats {
        count,
        sum,
        min: a.min.min(b.min),
        max: a.max.max(b.max),
        mean: sum as f64 / count as f64,
        p50: a.p50.max(b.p50),
        p90: a.p90.max(b.p90),
        p95: a.p95.max(b.p95),
        p99: a.p99.max(b.p99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MERGED: &str = "\
        {\"kind\":\"header\",\"version\":1,\"epoch_unix_us\":100,\"pid\":10}\n\
        {\"kind\":\"span\",\"id\":1,\"parent\":null,\"name\":\"exec.dispatch\",\"thread\":0,\
         \"start_us\":0,\"dur_us\":500,\"fields\":{\"jobs\":2}}\n\
        {\"kind\":\"counter\",\"name\":\"exec.leases_granted\",\"value\":2}\n\
        {\"kind\":\"header\",\"version\":1,\"epoch_unix_us\":150,\"pid\":11,\
         \"rebased_offset_us\":50}\n\
        {\"kind\":\"span\",\"id\":2,\"parent\":null,\"name\":\"transcode\",\"thread\":0,\
         \"start_us\":60,\"dur_us\":100,\"fields\":{\"encode_secs\":0.5}}\n\
        {\"kind\":\"counter\",\"name\":\"exec.leases_granted\",\"value\":3}\n\
        {\"kind\":\"histogram\",\"name\":\"w\",\"count\":2,\"sum\":20,\"min\":5,\"max\":15,\
         \"mean\":10.0,\"p50\":8,\"p90\":15,\"p95\":15,\"p99\":15}\n\
        {\"kind\":\"histogram\",\"name\":\"w\",\"count\":2,\"sum\":60,\"min\":10,\"max\":50,\
         \"mean\":30.0,\"p50\":16,\"p90\":32,\"p95\":64,\"p99\":64}\n";

    #[test]
    fn parses_segments_and_merges_counters() {
        let trace = Trace::parse(MERGED).expect("parses");
        assert_eq!(trace.headers.len(), 2);
        assert_eq!(trace.headers[1].rebased_offset_us, Some(50));
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[0].segment, 0);
        assert_eq!(trace.spans[1].segment, 1);
        assert_eq!(trace.counters["exec.leases_granted"], 5);
        let w = trace.histograms["w"];
        assert_eq!((w.count, w.sum, w.min, w.max), (4, 80, 5, 50));
        assert_eq!(w.mean, 20.0);
        assert_eq!((w.p50, w.p99), (16, 64));
        assert_eq!(trace.time_range(), Some((0, 500)));
    }

    /// A torn line and a known kind with a missing key are errors that
    /// name their line; an unknown kind is skipped.
    #[test]
    fn rejects_malformed_lines() {
        let err = Trace::parse("{\"kind\":\"span\"\n").expect_err("torn line");
        assert_eq!(err.line, 1);
        let no_start = MERGED.replace("\"start_us\":60,", "");
        let err = Trace::parse(&no_start).expect_err("span without start_us");
        assert_eq!(err.line, 5);
        assert!(err.error.contains("\"start_us\""), "{err}");
        let future = MERGED.to_string() + "{\"kind\":\"future\",\"x\":1}\n";
        assert_eq!(Trace::parse(&future).expect("unknown kinds skip").spans.len(), 2);
    }

    /// Every line kind the writer produces loads into the model.
    #[test]
    fn loads_every_kind_the_writer_produces() {
        use vtrace::report::{LogRecord, SpanRecord, TraceReport};
        use vtrace::{FieldValue, LogLevel};
        let mut report = TraceReport { epoch_unix_us: 9, pid: 4, ..TraceReport::default() };
        report.spans.push(SpanRecord {
            id: 1,
            parent: None,
            name: "transcode",
            thread: 0,
            start_us: 3,
            dur_us: 7,
            fields: vec![("encode_secs", FieldValue::F64(0.25))],
        });
        report.logs.push(LogRecord {
            level: LogLevel::Info,
            target: "vbench",
            message: "m".to_string(),
            t_us: 4,
        });
        report.counters.insert("jobs", 2);
        report.gauges.insert("util", 0.5);
        report.histograms.entry("wait_us").or_default().record(12);
        let trace = Trace::parse(&report.to_jsonl()).expect("the writer's stream loads");
        assert_eq!(
            (trace.headers[0].pid, trace.spans[0].field_f64("encode_secs")),
            (4, Some(0.25))
        );
        assert_eq!((trace.counters["jobs"], trace.histograms["wait_us"].max), (2, 12));
    }
}
