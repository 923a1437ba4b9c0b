//! vtrace: dependency-free structured spans, counters, and encode
//! telemetry for the vbench transcode stack.
//!
//! The crate is a deliberately small tracing runtime in the style of the
//! workspace's other offline stand-ins (vrand, vcriterion): no external
//! dependencies, one global collector, and an API surface of free
//! functions so call sites stay one line.
//!
//! Three ideas carry the design:
//!
//! * **Hierarchical timed spans.** [`span`] opens a RAII guard; the
//!   current span per thread is tracked on a thread-local stack, so
//!   nested spans parent automatically and closing is just `Drop`.
//!   Cross-thread parenting (a farm worker under its batch span) is
//!   explicit via [`span_with_parent`].
//! * **Typed metrics.** [`counter`] / [`gauge`] / [`histogram`] write
//!   monotonic totals, last-value samples, and log2-bucketed
//!   distributions (see [`metrics::Log2Histogram`]) keyed by static
//!   names.
//! * **Negligible overhead when disabled.** Every entry point first
//!   checks one relaxed atomic load of the global [`Level`]; at
//!   [`Level::Off`] (the default) no clock is read, no lock is taken,
//!   and no allocation happens.
//!
//! At the end of a run, [`drain`] snapshots everything into a
//! [`report::TraceReport`], which renders either as a human-readable
//! span-tree summary or a machine-readable JSONL event stream.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Instant, SystemTime};

pub mod json;
pub mod metrics;
pub mod report;

use metrics::Log2Histogram;
use report::{LogRecord, SpanRecord, TraceReport};

/// How much the runtime records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Nothing is recorded; every entry point is a single atomic load.
    Off = 0,
    /// Spans, metrics, and info-or-worse log events are recorded.
    Summary = 1,
    /// Everything, including debug log events and sampled per-frame
    /// encoder stage spans.
    Verbose = 2,
}

impl Level {
    /// Parses `"off"`, `"summary"`, or `"verbose"`.
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "off" => Some(Level::Off),
            "summary" => Some(Level::Summary),
            "verbose" => Some(Level::Verbose),
            _ => None,
        }
    }
}

/// Severity of a log event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Recorded at `verbose` only.
    Debug,
    /// Recorded at `summary` and above.
    Info,
    /// Always printed to stderr; recorded whenever tracing is enabled.
    Error,
}

impl LogLevel {
    /// The lowercase name used in the JSONL stream.
    pub fn name(self) -> &'static str {
        match self {
            LogLevel::Debug => "debug",
            LogLevel::Info => "info",
            LogLevel::Error => "error",
        }
    }
}

/// A typed span annotation value.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (frame counts, bits, ids).
    U64(u64),
    /// Float (seconds, dB, ratios).
    F64(f64),
    /// Static or formatted text (backend, codec, preset names).
    Str(String),
    /// Boolean flag.
    Bool(bool),
}

impl FieldValue {
    /// Renders the value as a JSON literal.
    pub fn to_json(&self) -> String {
        match self {
            FieldValue::U64(v) => v.to_string(),
            FieldValue::F64(v) => json::number(*v),
            FieldValue::Str(s) => json::string(s),
            FieldValue::Bool(b) => b.to_string(),
        }
    }

    /// The value as `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            FieldValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `f64` (also widening `U64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            FieldValue::F64(v) => Some(*v),
            FieldValue::U64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            FieldValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> FieldValue {
        FieldValue::U64(v)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> FieldValue {
        FieldValue::U64(u64::from(v))
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> FieldValue {
        FieldValue::F64(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}

/// Global recording level. Relaxed ordering is enough: the level is set
/// once at startup before any instrumented work, and a stale read merely
/// drops or keeps one extra event.
static LEVEL: AtomicU8 = AtomicU8::new(Level::Off as u8);

/// Monotonic clock origin; all event times are µs since this instant.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Wall-clock time of the trace epoch, in microseconds since the Unix
/// epoch. Captured at the same moment as [`EPOCH`] so traces from
/// different processes can be rebased onto one timebase at merge time
/// (the JSONL header records it).
static WALL_EPOCH: OnceLock<u64> = OnceLock::new();

fn capture_epoch() -> &'static Instant {
    WALL_EPOCH.get_or_init(|| {
        SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0)
    });
    EPOCH.get_or_init(Instant::now)
}

/// Wall-clock time of this process's trace epoch (µs since the Unix
/// epoch). Pins the epoch as a side effect if nothing has yet.
pub fn wall_epoch_unix_us() -> u64 {
    capture_epoch();
    *WALL_EPOCH.get().expect("wall epoch pinned by capture_epoch")
}

/// Next span id. Ids are process-wide so parents can be referenced
/// across threads.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Next dense thread id (0 = first thread to trace).
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);

/// Everything recorded since the last [`drain`].
#[derive(Default)]
struct Collector {
    spans: Vec<SpanRecord>,
    logs: Vec<LogRecord>,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Log2Histogram>,
}

static COLLECTOR: Mutex<Collector> = Mutex::new(Collector {
    spans: Vec::new(),
    logs: Vec::new(),
    counters: BTreeMap::new(),
    gauges: BTreeMap::new(),
    histograms: BTreeMap::new(),
});

thread_local! {
    /// Stack of open span ids on this thread; the top is the current
    /// parent for new spans.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// This thread's dense id, assigned on first traced event.
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
}

/// Sets the global recording level. Also pins the trace epoch so the
/// first event does not pay the `OnceLock` initialization race.
pub fn set_level(level: Level) {
    capture_epoch();
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current recording level.
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        0 => Level::Off,
        1 => Level::Summary,
        _ => Level::Verbose,
    }
}

/// Whether anything is being recorded. This is the hot-path gate: one
/// relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    LEVEL.load(Ordering::Relaxed) != Level::Off as u8
}

/// Whether verbose-only instrumentation (per-frame encoder stage
/// sampling, debug logs) should run.
#[inline]
pub fn verbose() -> bool {
    LEVEL.load(Ordering::Relaxed) >= Level::Verbose as u8
}

/// Microseconds since the trace epoch.
fn now_us() -> u64 {
    capture_epoch().elapsed().as_micros() as u64
}

fn lock_collector() -> std::sync::MutexGuard<'static, Collector> {
    // A panic while holding this mutex poisons it; telemetry should
    // never take the process down, so recover the data.
    COLLECTOR.lock().unwrap_or_else(|e| e.into_inner())
}

/// RAII guard for an open span. Created by [`span`] /
/// [`span_with_parent`]; the span closes (and is recorded) when the
/// guard drops. A guard created while tracing is disabled is inert.
pub struct SpanGuard {
    inner: Option<OpenSpan>,
}

struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    thread: u64,
    start: Instant,
    start_us: u64,
    fields: Vec<(&'static str, FieldValue)>,
}

impl SpanGuard {
    /// The span's id, usable as an explicit parent for spans opened on
    /// other threads. `None` when tracing is disabled.
    pub fn id(&self) -> Option<u64> {
        self.inner.as_ref().map(|s| s.id)
    }

    /// Attaches a typed field to the span. No-op on an inert guard.
    pub fn record(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(inner) = self.inner.as_mut() {
            inner.fields.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let dur_us = inner.start.elapsed().as_micros() as u64;
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Pop by id, not position: guards may drop out of order if
            // one is moved out of scope.
            if let Some(pos) = stack.iter().rposition(|&id| id == inner.id) {
                stack.remove(pos);
            }
        });
        lock_collector().spans.push(SpanRecord {
            id: inner.id,
            parent: inner.parent,
            name: inner.name,
            thread: inner.thread,
            start_us: inner.start_us,
            dur_us,
            fields: inner.fields,
        });
    }
}

/// Opens a span parented to the current span on this thread (if any).
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { inner: None };
    }
    let parent = current_span();
    open_span(name, parent)
}

/// Opens a span with an explicit parent id — the cross-thread variant
/// (e.g. a farm worker span under the batch span opened on the main
/// thread). `parent: None` makes a root span.
pub fn span_with_parent(name: &'static str, parent: Option<u64>) -> SpanGuard {
    if !enabled() {
        return SpanGuard { inner: None };
    }
    open_span(name, parent)
}

fn open_span(name: &'static str, parent: Option<u64>) -> SpanGuard {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    SPAN_STACK.with(|stack| stack.borrow_mut().push(id));
    SpanGuard {
        inner: Some(OpenSpan {
            id,
            parent,
            name,
            thread: THREAD_ID.with(|t| *t),
            start: Instant::now(),
            start_us: now_us(),
            fields: Vec::new(),
        }),
    }
}

/// The id of the innermost open span on this thread, if any.
pub fn current_span() -> Option<u64> {
    if !enabled() {
        return None;
    }
    SPAN_STACK.with(|stack| stack.borrow().last().copied())
}

/// Records a pre-timed stage as a completed child span of the current
/// span. Used where the cost of a guard per call would distort the
/// measurement (e.g. encoder inner loops time a stage with a bare
/// `Instant` and report the accumulated total once per frame).
pub fn stage(name: &'static str, dur_secs: f64) {
    if !enabled() {
        return;
    }
    let dur_us = (dur_secs * 1e6).max(0.0) as u64;
    let end_us = now_us();
    lock_collector().spans.push(SpanRecord {
        id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
        parent: SPAN_STACK.with(|stack| stack.borrow().last().copied()),
        name,
        thread: THREAD_ID.with(|t| *t),
        start_us: end_us.saturating_sub(dur_us),
        dur_us,
        fields: Vec::new(),
    });
}

/// Adds `delta` to the named monotonic counter.
pub fn counter(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    *lock_collector().counters.entry(name).or_insert(0) += delta;
}

/// Sets the named gauge to its latest value.
pub fn gauge(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    lock_collector().gauges.insert(name, value);
}

/// Records one sample into the named log2 histogram.
pub fn histogram(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    lock_collector().histograms.entry(name).or_default().record(value);
}

fn log(level: LogLevel, target: &'static str, message: String) {
    if level == LogLevel::Error {
        // Errors always reach the operator, traced or not.
        eprintln!("[error] {target}: {message}");
    }
    let recorded = match level {
        LogLevel::Error => enabled(),
        LogLevel::Info => enabled(),
        LogLevel::Debug => verbose(),
    };
    if !recorded {
        return;
    }
    if level == LogLevel::Info && verbose() {
        eprintln!("[info] {target}: {message}");
    }
    if level == LogLevel::Debug {
        eprintln!("[debug] {target}: {message}");
    }
    let t_us = now_us();
    lock_collector().logs.push(LogRecord { level, target, message, t_us });
}

/// Emits an error event: always printed to stderr, recorded when
/// tracing is enabled.
pub fn error(target: &'static str, message: impl Into<String>) {
    log(LogLevel::Error, target, message.into());
}

/// Emits an info event: recorded at `summary`, also printed to stderr
/// at `verbose`.
pub fn info(target: &'static str, message: impl Into<String>) {
    log(LogLevel::Info, target, message.into());
}

/// Emits a debug event: recorded and printed at `verbose` only.
///
/// The message is built lazily so disabled call sites pay nothing.
pub fn debug(target: &'static str, message: impl FnOnce() -> String) {
    if !verbose() {
        return;
    }
    log(LogLevel::Debug, target, message());
}

/// Snapshots and clears everything recorded so far.
pub fn drain() -> TraceReport {
    let mut collector = lock_collector();
    TraceReport {
        epoch_unix_us: wall_epoch_unix_us(),
        pid: u64::from(std::process::id()),
        spans: std::mem::take(&mut collector.spans),
        logs: std::mem::take(&mut collector.logs),
        counters: std::mem::take(&mut collector.counters),
        gauges: std::mem::take(&mut collector.gauges),
        histograms: std::mem::take(&mut collector.histograms),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The collector and level are process-global; tests that toggle
    /// them must not interleave.
    static TEST_GUARD: Mutex<()> = Mutex::new(());

    fn with_level<R>(level: Level, f: impl FnOnce() -> R) -> R {
        let _guard = TEST_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        set_level(level);
        drain();
        let result = f();
        set_level(Level::Off);
        drain();
        result
    }

    #[test]
    fn disabled_tracing_emits_zero_events() {
        let report = with_level(Level::Off, || {
            let mut s = span("should-not-exist");
            s.record("k", 1u64);
            assert_eq!(s.id(), None);
            drop(s);
            stage("stage", 0.5);
            counter("c", 3);
            gauge("g", 1.0);
            histogram("h", 9);
            info("t", "dropped");
            debug("t", || panic!("must not be built"));
            drain()
        });
        assert!(report.is_empty(), "off level must record nothing");
    }

    #[test]
    fn nested_spans_parent_and_nest_in_time() {
        let report = with_level(Level::Summary, || {
            let mut outer = span("outer");
            outer.record("label", "o");
            let outer_id = outer.id().unwrap();
            {
                let inner = span("inner");
                assert_eq!(current_span(), inner.id());
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            assert_eq!(current_span(), Some(outer_id));
            drop(outer);
            drain()
        });
        assert_eq!(report.spans.len(), 2);
        // Spans land in completion order: inner first.
        let inner = &report.spans[0];
        let outer = &report.spans[1];
        assert_eq!(inner.name, "inner");
        assert_eq!(outer.name, "outer");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        // Timing monotonicity: the child starts no earlier and ends no
        // later than the parent.
        assert!(inner.start_us >= outer.start_us);
        assert!(inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us);
        assert!(inner.dur_us >= 2_000, "slept 2 ms, got {} µs", inner.dur_us);
        assert_eq!(outer.field("label").unwrap().as_str(), Some("o"));
    }

    #[test]
    fn explicit_parent_links_across_threads() {
        let report = with_level(Level::Summary, || {
            let batch = span("batch");
            let batch_id = batch.id();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let worker = span_with_parent("worker", batch_id);
                    let job = span("job");
                    assert_eq!(job.inner.as_ref().unwrap().parent, worker.id());
                });
            });
            drop(batch);
            drain()
        });
        let by_name = |n: &str| report.spans.iter().find(|s| s.name == n).unwrap();
        let batch = by_name("batch");
        let worker = by_name("worker");
        let job = by_name("job");
        assert_eq!(worker.parent, Some(batch.id));
        assert_eq!(job.parent, Some(worker.id));
        assert_ne!(worker.thread, batch.thread);
    }

    #[test]
    fn stage_records_synthesized_child() {
        let report = with_level(Level::Summary, || {
            let frame = span("frame");
            stage("motion", 0.001);
            drop(frame);
            drain()
        });
        let motion = report.spans.iter().find(|s| s.name == "motion").unwrap();
        let frame = report.spans.iter().find(|s| s.name == "frame").unwrap();
        assert_eq!(motion.parent, Some(frame.id));
        assert_eq!(motion.dur_us, 1_000);
    }

    #[test]
    fn metrics_accumulate() {
        let report = with_level(Level::Summary, || {
            counter("jobs", 2);
            counter("jobs", 3);
            gauge("util", 0.25);
            gauge("util", 0.75);
            histogram("wait", 10);
            histogram("wait", 1000);
            drain()
        });
        assert_eq!(report.counters["jobs"], 5);
        assert_eq!(report.gauges["util"], 0.75);
        assert_eq!(report.histograms["wait"].count(), 2);
        assert_eq!(report.histograms["wait"].max(), 1000);
    }

    #[test]
    fn log_levels_gate_recording() {
        let report = with_level(Level::Summary, || {
            info("t", "kept");
            debug("t", || "dropped at summary".to_string());
            drain()
        });
        assert_eq!(report.logs.len(), 1);
        assert_eq!(report.logs[0].level, LogLevel::Info);
        assert_eq!(report.logs[0].message, "kept");

        let report = with_level(Level::Verbose, || {
            debug("t", || "kept at verbose".to_string());
            drain()
        });
        assert_eq!(report.logs.len(), 1);
        assert_eq!(report.logs[0].level, LogLevel::Debug);
    }

    #[test]
    fn jsonl_sink_round_trips_through_parser() {
        let report = with_level(Level::Summary, || {
            let mut s = span("needs \"escaping\"\n\ttab");
            s.record("codec", "h264");
            s.record("frames", 120u64);
            s.record("psnr", 41.5f64);
            s.record("hw", false);
            drop(s);
            info("vbench", "path with \\ backslash and \u{1}");
            counter("c", 7);
            gauge("g", f64::NAN);
            histogram("h", 3);
            drain()
        });
        let jsonl = report.to_jsonl();
        let mut kinds = Vec::new();
        for line in jsonl.lines() {
            let v = json::parse(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
            let kind = v.get("kind").unwrap().as_str().unwrap().to_string();
            match kind.as_str() {
                "span" => {
                    assert_eq!(v.get("name").unwrap().as_str(), Some("needs \"escaping\"\n\ttab"));
                    let fields = v.get("fields").unwrap();
                    assert_eq!(fields.get("codec").unwrap().as_str(), Some("h264"));
                    assert_eq!(fields.get("frames").unwrap().as_u64(), Some(120));
                    assert_eq!(fields.get("psnr").unwrap().as_f64(), Some(41.5));
                    assert_eq!(fields.get("hw").unwrap().as_bool(), Some(false));
                }
                "log" => {
                    assert_eq!(
                        v.get("message").unwrap().as_str(),
                        Some("path with \\ backslash and \u{1}")
                    );
                }
                "gauge" => assert!(v.get("value").unwrap().is_null(), "NaN gauge must be null"),
                "counter" => assert_eq!(v.get("value").unwrap().as_u64(), Some(7)),
                "histogram" => assert_eq!(v.get("count").unwrap().as_u64(), Some(1)),
                "header" => {
                    assert_eq!(v.get("version").unwrap().as_u64(), Some(1));
                    assert!(v.get("epoch_unix_us").unwrap().as_u64().is_some());
                    assert_eq!(v.get("pid").unwrap().as_u64(), Some(u64::from(std::process::id())));
                }
                other => panic!("unexpected kind {other}"),
            }
            kinds.push(kind);
        }
        assert_eq!(kinds.first().map(String::as_str), Some("header"), "header must lead");
        for expected in ["header", "span", "log", "counter", "gauge", "histogram"] {
            assert!(kinds.iter().any(|k| k == expected), "missing {expected}");
        }
    }

    #[test]
    fn summary_renders_span_tree() {
        let report = with_level(Level::Summary, || {
            let outer = span("suite");
            {
                let _inner = span("transcode");
            }
            {
                let _inner = span("transcode");
            }
            drop(outer);
            counter("farm.jobs_completed", 2);
            drain()
        });
        let text = report.summary();
        assert!(text.contains("suite"), "{text}");
        assert!(text.contains("  transcode"), "{text}");
        assert!(text.contains("farm.jobs_completed"), "{text}");
    }
}
