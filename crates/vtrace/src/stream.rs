//! The trace stream's format, read back: one typed [`Event`] per JSONL
//! line, the cross-line rules a whole stream obeys ([`check`]), and the
//! merge that appends worker streams onto a dispatcher's ([`merge`]).
//!
//! [`crate::report::TraceReport::to_jsonl`] writes the stream. The line
//! shapes the merge rewrites — `header_line`, `span_head` and
//! `log_line` — live here, so the merge and the writer share one key
//! order. Every reader of the stream goes through [`Event::parse`]:
//! `vtrace-check`, the merge, and `vprof`'s trace model.
//!
//! | kind | required keys |
//! |---|---|
//! | `header` | `version`, `epoch_unix_us`, `pid`; `rebased_offset_us` on a merged worker segment |
//! | `span` | `id`, `parent` (id or null), `name`, `thread`, `start_us`, `dur_us`, `fields` (object) |
//! | `log` | `t_us`, `level` (`debug`, `info` or `error`), `target`, `message` |
//! | `counter` | `name`, `value` (integer) |
//! | `gauge` | `name`, `value` (number, or null if non-finite) |
//! | `histogram` | `name`, `count`, `sum`, `min`, `max`, `mean`, `p50`, `p90`, `p95`, `p99` (numbers) |
//!
//! Header, span, log and counter integers are non-negative and at most
//! 2^53, the range the reader's `f64` numbers hold exactly.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use crate::json::{self, Keys, Object, Value};
use crate::LogLevel;

/// The known line kinds, in the order `vtrace-check` counts them.
pub const KINDS: [&str; 6] = ["header", "span", "log", "counter", "gauge", "histogram"];

/// One line of a trace stream.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A process's identity and timebase; opens a segment.
    Header(Header),
    /// One completed span.
    Span(Span),
    /// One log event.
    Log(Log),
    /// A counter's total.
    Counter {
        /// Counter name.
        name: String,
        /// Total.
        value: u64,
    },
    /// A gauge's last value.
    Gauge {
        /// Gauge name.
        name: String,
        /// Last value; `None` when it was not finite.
        value: Option<f64>,
    },
    /// A histogram's summary.
    Histogram {
        /// Histogram name.
        name: String,
        /// The derived statistics the line carries.
        stats: HistStats,
    },
    /// A line of a kind this reader does not know, named.
    Other(String),
}

/// A `header` line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// Wall-clock time of the process's trace epoch (µs since the Unix
    /// epoch).
    pub epoch_unix_us: u64,
    /// The emitting process's pid.
    pub pid: u64,
    /// The shift added to this segment's timestamps when it was merged
    /// into another stream; `None` on a base stream.
    pub rebased_offset_us: Option<u64>,
}

/// A `span` line.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Span id.
    pub id: u64,
    /// Enclosing span's id, if any.
    pub parent: Option<u64>,
    /// Span name.
    pub name: String,
    /// Originating thread (process-local dense id).
    pub thread: u64,
    /// Start, µs since the trace epoch.
    pub start_us: u64,
    /// Duration, µs.
    pub dur_us: u64,
    /// Field annotations, in line order.
    pub fields: Vec<(String, Value)>,
}

/// A `log` line.
#[derive(Clone, Debug, PartialEq)]
pub struct Log {
    /// Event time, µs since the trace epoch.
    pub t_us: u64,
    /// Severity.
    pub level: LogLevel,
    /// Subsystem tag.
    pub target: String,
    /// Message text.
    pub message: String,
}

/// A `histogram` line's statistics (the stream carries these, not the
/// buckets).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistStats {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub mean: f64,
    pub p50: u64,
    pub p90: u64,
    pub p95: u64,
    pub p99: u64,
}

impl Event {
    /// Parses one line strictly: the line must be a JSON object with a
    /// string `kind`, and a known kind must carry every required key
    /// with its type. A kind this reader does not know parses as
    /// [`Event::Other`], so readers decide whether to skip it.
    ///
    /// # Errors
    ///
    /// A one-line description: invalid JSON, or the first missing or
    /// mistyped key.
    pub fn parse(line: &str) -> Result<Event, String> {
        let value = json::parse(line).map_err(|e| format!("not valid JSON: {e}"))?;
        let Some(kind) = value.get("kind").and_then(Value::as_str) else {
            return Err("missing string \"kind\"".to_string());
        };
        let keys = Keys { what: kind, value: &value };
        let text = |key| keys.text(key).map(str::to_string);
        // Histogram statistics are any non-negative number: the writer's
        // `sum` is a u128.
        let stat = |key| {
            keys.get(key, "a non-negative number", |v| {
                v.as_f64().filter(|n| *n >= 0.0).map(|n| n as u64)
            })
        };
        Ok(match kind {
            "header" => {
                keys.int::<u64>("version")?;
                let rebased_offset_us = match value.get("rebased_offset_us") {
                    None => None,
                    Some(_) => Some(keys.int("rebased_offset_us")?),
                };
                Event::Header(Header {
                    epoch_unix_us: keys.int("epoch_unix_us")?,
                    pid: keys.int("pid")?,
                    rebased_offset_us,
                })
            }
            "span" => Event::Span(Span {
                id: keys.int("id")?,
                parent: keys.get("parent", "an integer or null", |v| {
                    if v.is_null() {
                        Some(None)
                    } else {
                        v.as_u64().map(Some)
                    }
                })?,
                name: text("name")?,
                thread: keys.int("thread")?,
                start_us: keys.int("start_us")?,
                dur_us: keys.int("dur_us")?,
                fields: keys.get("fields", "an object", |v| match v {
                    Value::Object(members) => Some(members.clone()),
                    _ => None,
                })?,
            }),
            "log" => Event::Log(Log {
                t_us: keys.int("t_us")?,
                level: keys.get("level", "debug, info or error", |v| {
                    [LogLevel::Debug, LogLevel::Info, LogLevel::Error]
                        .into_iter()
                        .find(|level| v.as_str() == Some(level.name()))
                })?,
                target: text("target")?,
                message: text("message")?,
            }),
            "counter" => Event::Counter { name: text("name")?, value: keys.int("value")? },
            "gauge" => Event::Gauge {
                name: text("name")?,
                value: keys.get("value", "a number or null", |v| {
                    if v.is_null() {
                        Some(None)
                    } else {
                        v.as_f64().map(Some)
                    }
                })?,
            },
            "histogram" => Event::Histogram {
                name: text("name")?,
                stats: HistStats {
                    count: stat("count")?,
                    sum: stat("sum")?,
                    min: stat("min")?,
                    max: stat("max")?,
                    mean: keys.float("mean")?,
                    p50: stat("p50")?,
                    p90: stat("p90")?,
                    p95: stat("p95")?,
                    p99: stat("p99")?,
                },
            },
            other => Event::Other(other.to_string()),
        })
    }

    /// The line's `kind`.
    pub fn kind(&self) -> &str {
        match self {
            Event::Header(_) => "header",
            Event::Span(_) => "span",
            Event::Log(_) => "log",
            Event::Counter { .. } => "counter",
            Event::Gauge { .. } => "gauge",
            Event::Histogram { .. } => "histogram",
            Event::Other(kind) => kind,
        }
    }
}

/// The non-blank lines of `text`, each with its 1-based line number and
/// parsed.
pub fn events(text: &str) -> impl Iterator<Item = (usize, &str, Result<Event, String>)> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(index, line)| (index + 1, line, Event::parse(line)))
}

/// Checks a whole stream: every line parses as a known kind, and the
/// cross-line rules hold.
///
/// - The first line is a header. A later header carries
///   `rebased_offset_us`: a second base header means two raw streams
///   were concatenated without rebasing.
/// - Span and log timestamps sit at or after the offset of the most
///   recent header; an earlier one means a merge shifted headers but not
///   events.
/// - Span ids are unique, and every non-null parent is a span id in the
///   stream.
///
/// Returns the count of lines per kind, in [`KINDS`] order.
///
/// # Errors
///
/// Every violation, one `line N: …` message each.
pub fn check(text: &str) -> Result<[usize; 6], Vec<String>> {
    let lines: Vec<_> = events(text).map(|(n, _, event)| (n, event)).collect();
    let mut errors = Vec::new();
    let mut ids = HashSet::new();
    for (n, event) in &lines {
        if let Ok(Event::Span(span)) = event {
            if !ids.insert(span.id) {
                errors.push(format!("line {n}: duplicate span id {}", span.id));
            }
        }
    }
    let mut counts = [0; 6];
    let mut offset = 0;
    for (index, (n, event)) in lines.into_iter().enumerate() {
        let mut fail = |message: String| errors.push(format!("line {n}: {message}"));
        let event = match event {
            Ok(event) => event,
            Err(message) => {
                fail(message);
                continue;
            }
        };
        if index == 0 && !matches!(event, Event::Header(_)) {
            fail(format!("stream must begin with a header line, found {:?}", event.kind()));
        }
        let Some(slot) = KINDS.iter().position(|kind| *kind == event.kind()) else {
            fail(format!("unknown kind {:?}", event.kind()));
            continue;
        };
        counts[slot] += 1;
        let stamp = match event {
            Event::Header(Header { rebased_offset_us: Some(rebased), .. }) => {
                offset = rebased;
                None
            }
            Event::Header(_) if counts[0] > 1 => {
                fail("second base header: streams concatenated without rebasing".to_string());
                None
            }
            Event::Span(span) => {
                if let Some(parent) = span.parent.filter(|p| !ids.contains(p)) {
                    fail(format!("span parent {parent} not present in stream"));
                }
                Some(("span start_us", span.start_us))
            }
            Event::Log(log) => Some(("log t_us", log.t_us)),
            _ => None,
        };
        if let Some((what, t)) = stamp.filter(|&(_, t)| t < offset) {
            fail(format!(
                "{what} {t} precedes current stream offset {offset} (non-monotonic merge)"
            ));
        }
    }
    if errors.is_empty() {
        Ok(counts)
    } else {
        Err(errors)
    }
}

/// A trace stream's `header` line, without its newline. A worker stream
/// merged into another's carries `rebased_offset_us`, the shift applied
/// to its timestamps.
pub(crate) fn header_line(epoch_unix_us: u64, pid: u64, rebased_offset_us: Option<u64>) -> String {
    let header = Object::new()
        .field("kind", "header")
        .field("version", 1u32)
        .field("epoch_unix_us", epoch_unix_us)
        .field("pid", pid);
    match rebased_offset_us {
        Some(offset) => header.field("rebased_offset_us", offset),
        None => header,
    }
    .close()
}

/// A `span` line's keys before `fields`, which the writer adds last.
pub(crate) fn span_head(
    id: u64,
    parent: Option<u64>,
    name: &str,
    thread: u64,
    start_us: u64,
    dur_us: u64,
) -> Object {
    Object::new()
        .field("kind", "span")
        .field("id", id)
        .field("parent", parent)
        .field("name", name)
        .field("thread", thread)
        .field("start_us", start_us)
        .field("dur_us", dur_us)
}

/// A `log` line, without its newline.
pub(crate) fn log_line(t_us: u64, level: LogLevel, target: &str, message: &str) -> String {
    Object::new()
        .field("kind", "log")
        .field("t_us", t_us)
        .field("level", level.name())
        .field("target", target)
        .field("message", message)
        .close()
}

/// The text to append to the stream `main` so it also holds `workers`,
/// each rebased onto `main`'s timebase.
///
/// Each worker segment's span ids (and non-null parents) shift past the
/// largest id already merged, and its span `start_us` and log `t_us`
/// shift by the difference between its header's epoch and `main`'s, so
/// events interleave in wall-clock order. Its header is rewritten to
/// carry that shift as `rebased_offset_us`, which is what lets [`check`]
/// verify the merge stayed monotonic. A span's `fields` object is kept
/// byte for byte: the rewritten keys all precede it in the writer's
/// order. Other kinds are copied unchanged. A line that does not parse —
/// the torn tail of a worker killed mid-flush — is dropped, and so is a
/// span whose keys are not in the writer's order.
pub fn merge(main: &str, workers: &[String]) -> String {
    let (mut id_offset, main_epoch) = ids_and_epoch(main);
    let main_epoch = main_epoch.unwrap_or(0);
    let mut out = String::new();
    for text in workers {
        let (local_max, epoch) = ids_and_epoch(text);
        // Workers start after the dispatcher pins its epoch, so the shift
        // is non-negative on any sane clock; saturate rather than corrupt
        // the stream if wall time stepped backwards.
        let rebase = epoch.unwrap_or(main_epoch).saturating_sub(main_epoch);
        for (_, line, event) in events(text) {
            match event {
                Ok(Event::Header(h)) => out += &header_line(h.epoch_unix_us, h.pid, Some(rebase)),
                Ok(Event::Span(s)) => {
                    // The head's text without its closing brace: the
                    // line's prefix up to `,"fields":`.
                    let head = |id, parent, start_us| {
                        let mut text =
                            span_head(id, parent, &s.name, s.thread, start_us, s.dur_us).close();
                        text.pop();
                        text
                    };
                    let Some(rest) = line.strip_prefix(&head(s.id, s.parent, s.start_us)) else {
                        continue;
                    };
                    out += &head(
                        s.id + id_offset,
                        s.parent.map(|p| p + id_offset),
                        s.start_us + rebase,
                    );
                    out += rest;
                }
                Ok(Event::Log(l)) => {
                    out += &log_line(l.t_us + rebase, l.level, &l.target, &l.message);
                }
                Ok(_) => out += line,
                Err(_) => continue,
            }
            out.push('\n');
        }
        id_offset += local_max;
    }
    out
}

/// A stream's largest span id (0 without spans) and its first header's
/// epoch.
fn ids_and_epoch(text: &str) -> (u64, Option<u64>) {
    events(text).fold((0, None), |(max, epoch), (_, _, event)| match event {
        Ok(Event::Span(s)) => (max.max(s.id), epoch),
        Ok(Event::Header(h)) => (max, epoch.or(Some(h.epoch_unix_us))),
        _ => (max, epoch),
    })
}

/// [`merge`] over files: appends the worker trace files onto the flushed
/// trace at `main`. A worker file that does not exist (a worker killed
/// before its trace flush) is skipped.
///
/// # Errors
///
/// Any other failure to read a file or to append to `main`.
pub fn merge_trace_files(main: &Path, workers: &[PathBuf]) -> std::io::Result<()> {
    let mut texts = Vec::with_capacity(workers.len());
    for path in workers {
        match std::fs::read_to_string(path) {
            Ok(text) => texts.push(text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }
    let appended = merge(&std::fs::read_to_string(main)?, &texts);
    if appended.is_empty() {
        return Ok(());
    }
    use std::io::Write;
    std::fs::OpenOptions::new().append(true).open(main)?.write_all(appended.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{LogRecord, SpanRecord, TraceReport};
    use crate::FieldValue;

    const MAIN: &str = concat!(
        r#"{"kind":"header","version":1,"epoch_unix_us":1000,"pid":1}"#,
        "\n",
        r#"{"kind":"span","id":3,"parent":null,"name":"exec.dispatch","thread":0,"#,
        r#""start_us":0,"dur_us":900,"fields":{}}"#,
        "\n",
    );

    /// A report holding every line kind, with a span field of each type
    /// and text that needs escaping.
    fn report() -> TraceReport {
        let mut report = TraceReport { epoch_unix_us: 1_250, pid: 2, ..TraceReport::default() };
        report.spans = vec![
            SpanRecord {
                id: 2,
                parent: Some(1),
                name: "child \"q\"",
                thread: 1,
                start_us: 40,
                dur_us: 5,
                fields: vec![
                    ("frames", FieldValue::U64(120)),
                    ("whole", FieldValue::F64(2.0)),
                    ("codec", FieldValue::Str("a\\b\n".to_string())),
                    ("hw", FieldValue::Bool(false)),
                ],
            },
            SpanRecord {
                id: 1,
                parent: None,
                name: "transcode",
                thread: 0,
                start_us: 40,
                dur_us: 10,
                fields: Vec::new(),
            },
        ];
        report.logs = vec![LogRecord {
            level: LogLevel::Info,
            target: "vbench",
            message: "x".to_string(),
            t_us: 55,
        }];
        report.counters.insert("jobs", 7);
        report.gauges.insert("nan", f64::NAN);
        report.histograms.entry("wait_us").or_default().record(900);
        report
    }

    #[test]
    fn every_line_the_writer_produces_parses_back() {
        let jsonl = report().to_jsonl();
        let events: Vec<Event> = jsonl.lines().map(|l| Event::parse(l).expect(l)).collect();
        let kinds: Vec<&str> = events.iter().map(Event::kind).collect();
        assert_eq!(kinds, ["header", "span", "span", "log", "counter", "gauge", "histogram"]);
        let Event::Span(span) = &events[1] else { unreachable!() };
        assert_eq!((span.id, span.parent, span.name.as_str()), (2, Some(1), "child \"q\""));
        assert_eq!(span.fields[2], ("codec".to_string(), Value::String("a\\b\n".to_string())));
        assert_eq!(events[5], Event::Gauge { name: "nan".to_string(), value: None });
        let Event::Histogram { stats, .. } = &events[6] else { unreachable!() };
        assert_eq!((stats.count, stats.sum, stats.p99), (1, 900, 900));
        assert_eq!(check(&jsonl), Ok([1, 2, 1, 1, 1, 1]));
    }

    #[test]
    fn a_known_kind_with_a_missing_or_mistyped_key_is_an_error() {
        let header = r#"{"kind":"header","version":1,"epoch_unix_us":1,"pid":1}"#;
        assert!(Event::parse(header).is_ok());
        for (line, key) in [
            (r#"{"kind":"header","version":1,"pid":1}"#, "epoch_unix_us"),
            (
                r#"{"kind":"span","id":1,"parent":null,"name":"a","thread":0,"dur_us":1,"fields":{}}"#,
                "start_us",
            ),
            (
                r#"{"kind":"span","id":1,"name":"a","thread":0,"start_us":0,"dur_us":1,"fields":{}}"#,
                "parent",
            ),
            (
                r#"{"kind":"span","id":1,"parent":null,"name":"a","thread":"w0","start_us":0,"dur_us":1,"fields":{}}"#,
                "thread",
            ),
            (
                r#"{"kind":"span","id":1,"parent":null,"name":"a","thread":0,"start_us":0,"dur_us":1}"#,
                "fields",
            ),
            (r#"{"kind":"log","t_us":1,"level":"warn","target":"t","message":"m"}"#, "level"),
            (r#"{"kind":"counter","name":"c","value":-1}"#, "value"),
            (r#"{"kind":"gauge","name":"g","value":"1"}"#, "value"),
        ] {
            let err = Event::parse(line).expect_err(line);
            assert!(err.contains(&format!("\"{key}\"")), "{line}: {err}");
        }
        assert_eq!(Event::parse(r#"{"kind":"future","x":1}"#), Ok(Event::Other("future".into())));
        assert!(Event::parse(r#"{"kind":"span""#).expect_err("torn").starts_with("not valid JSON"));
    }

    /// Merging rebases worker timestamps onto the dispatcher's
    /// timebase: the worker header gains `rebased_offset_us` equal to
    /// the epoch delta, every span `start_us` / log `t_us` shifts by it,
    /// and span ids clear the main stream's largest.
    #[test]
    fn merge_rebases_worker_headers_and_timestamps() {
        let dir = std::env::temp_dir().join(format!("vtrace-merge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let main = dir.join("main.jsonl");
        let worker = dir.join("worker.jsonl");
        std::fs::write(&main, MAIN).expect("write main");
        std::fs::write(
            &worker,
            concat!(
                r#"{"kind":"header","version":1,"epoch_unix_us":1250,"pid":2}"#,
                "\n",
                r#"{"kind":"span","id":1,"parent":null,"name":"transcode","thread":0,"#,
                r#""start_us":40,"dur_us":10,"fields":{}}"#,
                "\n",
                r#"{"kind":"log","t_us":55,"level":"info","target":"vbench","message":"x"}"#,
                "\n",
            ),
        )
        .expect("write worker");
        let missing = dir.join("killed-before-flush.jsonl");

        merge_trace_files(&main, &[worker, missing]).expect("merge");
        let merged = std::fs::read_to_string(&main).expect("read merged");

        // Epoch delta 1250 - 1000 = 250 µs: the header records it and
        // events shift by it. Every byte of the merged stream is pinned.
        let golden = concat!(
            r#"{"kind":"header","version":1,"epoch_unix_us":1000,"pid":1}"#,
            "\n",
            r#"{"kind":"span","id":3,"parent":null,"name":"exec.dispatch","thread":0,"#,
            r#""start_us":0,"dur_us":900,"fields":{}}"#,
            "\n",
            r#"{"kind":"header","version":1,"epoch_unix_us":1250,"pid":2,"rebased_offset_us":250}"#,
            "\n",
            r#"{"kind":"span","id":4,"parent":null,"name":"transcode","thread":0,"#,
            r#""start_us":290,"dur_us":10,"fields":{}}"#,
            "\n",
            r#"{"kind":"log","t_us":305,"level":"info","target":"vbench","message":"x"}"#,
            "\n",
        );
        assert_eq!(merged, golden);
        assert_eq!(check(&merged), Ok([2, 2, 1, 0, 0, 0]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A whole writer-produced stream merges with its span fields kept
    /// byte for byte and its parents shifted with their ids; a torn tail
    /// is dropped.
    #[test]
    fn merge_keeps_span_fields_and_shifts_parents_with_ids() {
        let worker = report().to_jsonl();
        let merged = merge(MAIN, &[worker.clone() + r#"{"kind":"span","id":9,"pa"#]);
        let expected = worker
            .replace(r#""pid":2}"#, r#""pid":2,"rebased_offset_us":250}"#)
            .replace(r#""id":2,"parent":1,"#, r#""id":5,"parent":4,"#)
            .replace(r#""id":1,"parent":null,"#, r#""id":4,"parent":null,"#)
            .replace(r#""start_us":40,"#, r#""start_us":290,"#)
            .replace(r#""t_us":55,"#, r#""t_us":305,"#);
        assert_eq!(merged, expected);
        assert!(merged.contains(r#""fields":{"frames":120,"whole":2.0,"#), "{merged}");
        assert_eq!(check(&(MAIN.to_string() + &merged)).map(|c| c[1]), Ok(3));
    }
}
