//! Raw events the wrappers record around calls into the library: one per
//! transcoder call and one per durable-IO operation. Spans, self-times and
//! the waterfall are derived from these after the fact (`trace`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::clock;

/// What a recorded interval was.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// One `Transcoder::transcode` / `transcode_stream` call.
    Call,
    Create,
    OpenAppend,
    Append,
    Sync,
    Read,
    Rename,
    DirSync,
}

impl Kind {
    const ALL: [Kind; 8] = [
        Kind::Call,
        Kind::Create,
        Kind::OpenAppend,
        Kind::Append,
        Kind::Sync,
        Kind::Read,
        Kind::Rename,
        Kind::DirSync,
    ];

    /// Span name in the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Call => "engine.call",
            Kind::Create => "exec.io.create",
            Kind::OpenAppend => "exec.io.open_append",
            Kind::Append => "exec.io.append",
            Kind::Sync => "exec.io.sync",
            Kind::Read => "exec.io.read",
            Kind::Rename => "exec.io.rename",
            Kind::DirSync => "exec.io.dir_sync",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn is_io(self) -> bool {
        self != Kind::Call
    }
}

/// One recorded interval on this process's clock.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Event {
    pub kind: Kind,
    /// Dense id of the recording thread.
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// IO: bytes moved. Call: source pixels.
    pub amount: u64,
    /// Call only: the encode seconds the outcome reports (also the key
    /// that ties the call to its job in the batch report).
    pub encode_secs: f64,
    /// Call only: nanoseconds spent pulling frames from the source.
    pub source_ns: u64,
}

/// Event sink shared by the wrappers. Calls are always counted (the
/// verification gate needs "resume made zero calls"); intervals are kept
/// only when tracing.
pub struct Recorder {
    tracing: bool,
    calls: AtomicU64,
    events: Mutex<Vec<Event>>,
}

impl Recorder {
    pub fn new(tracing: bool) -> Recorder {
        Recorder { tracing, calls: AtomicU64::new(0), events: Mutex::new(Vec::new()) }
    }

    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Transcoder calls seen so far.
    pub fn calls(&self) -> u64 {
        // Relaxed: a statistic; readers only look after the batch's
        // worker threads were joined.
        self.calls.load(Ordering::Relaxed)
    }

    pub fn count_call(&self) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Start timestamp for an interval, or 0 when not tracing.
    pub fn start(&self) -> u64 {
        if self.tracing {
            clock::now_ns()
        } else {
            0
        }
    }

    /// Closes an IO interval opened with [`Recorder::start`].
    pub fn io(&self, kind: Kind, start_ns: u64, bytes: u64) {
        if self.tracing {
            self.push(Event {
                kind,
                thread: clock::thread_id(),
                start_ns,
                end_ns: clock::now_ns(),
                amount: bytes,
                encode_secs: 0.0,
                source_ns: 0,
            });
        }
    }

    pub fn push(&self, event: Event) {
        self.events.lock().expect("no recorder user panics while holding the lock").push(event);
    }

    /// Takes every event recorded since the last drain.
    pub fn drain(&self) -> Vec<Event> {
        std::mem::take(
            &mut *self.events.lock().expect("no recorder user panics while holding the lock"),
        )
    }
}
