//! Spans, self-times and the waterfall.
//!
//! The wrappers record raw intervals (`record::Event`); this module lays
//! them out as a span tree — run → pass → batch|resume → lane → job call
//! or gap → io op — computes each span's *self time* (its duration minus
//! what its children cover) and sums self times by span name into the
//! waterfall. A *lane* is one worker's timeline for one phase (a thread of
//! the in-process batch, a worker process of the dispatcher), so the
//! waterfall's rows sum to phase wall × lanes, and whatever part of a lane
//! no named child covers is the explicit `unattributed` row.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use crate::record::{Event, Kind};

/// Name of the per-worker timeline spans the waterfall is summed over.
pub const LANE: &str = "lane";
/// Waterfall row for lane time no named span covers.
pub const UNATTRIBUTED: &str = "bench.unattributed";

/// One span. Times are nanoseconds on the parent process's clock.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub pass: Option<u32>,
    pub job: Option<usize>,
    /// IO spans: bytes moved. Call spans: source pixels.
    pub bytes: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// All spans of a run, in creation order (a parent precedes its children).
#[derive(Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    /// Adds a span and returns its id. The interval is clipped into its
    /// parent's so self-time arithmetic can never go negative on timer
    /// skew.
    pub fn add(
        &mut self,
        parent: Option<u64>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.spans.len() as u64;
        let (mut start_ns, mut end_ns) = (start_ns, end_ns.max(start_ns));
        let mut pass = None;
        if let Some(p) = parent.and_then(|p| self.spans.get(p as usize)) {
            start_ns = start_ns.clamp(p.start_ns, p.end_ns);
            end_ns = end_ns.clamp(start_ns, p.end_ns);
            pass = p.pass;
        }
        self.spans.push(Span { id, parent, name, start_ns, end_ns, pass, job: None, bytes: 0 });
        id
    }

    pub fn span_mut(&mut self, id: u64) -> &mut Span {
        &mut self.spans[id as usize]
    }

    /// Self time of every span, indexed by id: duration minus the union of
    /// its children's intervals.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// The waterfall: self time in seconds summed by span name over every
    /// lane and everything below it, with the lanes' own self time as the
    /// [`UNATTRIBUTED`] row. Returns the rows and the lanes' total seconds
    /// (which the rows sum to).
    pub fn waterfall(&self) -> (BTreeMap<&'static str, f64>, f64) {
        let selfs = self.self_times();
        // A span is in the waterfall when it is a lane or has one above it.
        let mut in_lane = vec![false; self.spans.len()];
        let mut rows: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut total = 0.0;
        for s in &self.spans {
            let i = s.id as usize;
            let is_lane = s.name == LANE;
            in_lane[i] = is_lane || s.parent.is_some_and(|p| in_lane[p as usize]);
            if is_lane {
                total += s.dur_ns() as f64 / 1e9;
            }
            if in_lane[i] {
                let row = if is_lane { UNATTRIBUTED } else { s.name };
                *rows.entry(row).or_insert(0.0) += selfs[i] as f64 / 1e9;
            }
        }
        (rows, total)
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"pass\":{},\"job\":{},\"bytes\":{}}}",
                s.id,
                opt(s.parent),
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.pass.map(u64::from)),
                opt(s.job.map(|j| j as u64)),
                s.bytes,
            )?;
        }
        out.flush()
    }
}

/// Encoder stage seconds of one call, read from the program's own verbose
/// stage spans: motion search, transform+quant, entropy coding, deblock.
pub type Stages = [f64; 4];

/// Span names of the four stages, in [`Stages`] order.
pub const STAGE_NAMES: [&str; 4] =
    ["vcodec.motion_search", "vcodec.transform_quant", "vcodec.entropy_coding", "vcodec.deblock"];

/// Per-call stage seconds keyed by the bits of the call's reported encode
/// seconds (the one value both the program's `transcode` span and the
/// wrapper's call record carry).
pub fn stages_by_call(report: &vtrace::report::TraceReport) -> BTreeMap<u64, Stages> {
    let mut owner: BTreeMap<u64, u64> = BTreeMap::new(); // frame span -> transcode span
    let mut key: BTreeMap<u64, u64> = BTreeMap::new(); // transcode span -> encode_secs bits
    for s in &report.spans {
        match s.name {
            "transcode" => {
                if let Some(secs) = s.field("encode_secs").and_then(vtrace::FieldValue::as_f64) {
                    key.insert(s.id, secs.to_bits());
                }
            }
            "vcodec.frame" => {
                if let Some(p) = s.parent {
                    owner.insert(s.id, p);
                }
            }
            _ => {}
        }
    }
    let mut out: BTreeMap<u64, Stages> = BTreeMap::new();
    for s in &report.spans {
        let Some(stage) = STAGE_NAMES.iter().position(|n| *n == s.name) else { continue };
        let call = s.parent.and_then(|f| owner.get(&f)).and_then(|t| key.get(t));
        if let Some(bits) = call {
            out.entry(*bits).or_insert([0.0; 4])[stage] += s.dur_us as f64 / 1e6;
        }
    }
    out
}

/// What is known about the calls of one pass beyond their intervals, both
/// keyed by the bits of a call's reported encode seconds.
pub struct CallInfo<'a> {
    pub stages: &'a BTreeMap<u64, Stages>,
    pub jobs: &'a BTreeMap<u64, usize>,
}

fn ns(secs: f64) -> u64 {
    (secs.max(0.0) * 1e9) as u64
}

/// Adds a call span under `parent` with its inside laid end to end: frame
/// pulls (`vsynth.next_frame`), then the encode (`vcodec.encode`) holding
/// the four stage spans. The call's own self time is the engine's share;
/// the encode span's is encoder time outside the four stages.
fn add_call(trace: &mut Trace, parent: u64, call: &Event, info: &CallInfo<'_>) {
    let id = trace.add(Some(parent), Kind::Call.name(), call.start_ns, call.end_ns);
    trace.span_mut(id).job = info.jobs.get(&call.encode_secs.to_bits()).copied();
    trace.span_mut(id).bytes = call.amount;
    let mut at = trace.spans[id as usize].start_ns;
    if call.source_ns > 0 {
        trace.add(Some(id), "vsynth.next_frame", at, at + call.source_ns);
        at += call.source_ns;
    }
    let encode = trace.add(Some(id), "vcodec.encode", at, at + ns(call.encode_secs));
    if let Some(stage_secs) = info.stages.get(&call.encode_secs.to_bits()) {
        for (name, secs) in STAGE_NAMES.iter().zip(stage_secs) {
            let end = at + ns(*secs);
            trace.add(Some(encode), name, at, end);
            at = end;
        }
    }
}

/// Adds `events` (IO intervals) that fall inside span `parent` as its
/// children.
fn add_io(trace: &mut Trace, parent: u64, events: &[Event]) {
    let (start, end) = {
        let p = &trace.spans[parent as usize];
        (p.start_ns, p.end_ns)
    };
    for e in events.iter().filter(|e| e.kind.is_io() && e.start_ns >= start && e.start_ns < end) {
        let id = trace.add(Some(parent), e.kind.name(), e.start_ns, e.end_ns);
        trace.span_mut(id).bytes = e.amount;
    }
}

/// What the phases of one pass are called and how their gaps are named.
pub struct PhaseNames {
    /// Span between two calls on a lane (publish of one job, claim of the
    /// next).
    pub gap: &'static str,
    /// Span from lane start to the lane's first call.
    pub lead: &'static str,
}

/// Names for the in-process journaled batch.
pub const LOCAL: PhaseNames = PhaseNames { gap: "journal.record", lead: "journal.open" };
/// Names for its `--resume`: no calls, so the whole phase is the lead.
pub const RESUME: PhaseNames = PhaseNames { gap: "journal.record", lead: "journal.replay" };
/// Names inside a worker process of the dispatcher.
pub const WORKER: PhaseNames = PhaseNames { gap: "exec.ledger", lead: "exec.worker.startup" };

/// Lays one worker's events out under `parent` between `start_ns` and
/// `end_ns`: a lead span up to the first call, the calls, a gap span
/// between consecutive calls and after the last one (up to that worker's
/// last IO operation — its final publish), each gap holding the IO
/// operations inside it. Returns the end of the worker's last activity.
pub fn add_worker_timeline(
    trace: &mut Trace,
    parent: u64,
    names: &PhaseNames,
    start_ns: u64,
    end_ns: u64,
    events: &[Event],
    info: &CallInfo<'_>,
) -> u64 {
    let mut calls: Vec<&Event> = events.iter().filter(|e| e.kind == Kind::Call).collect();
    calls.sort_by_key(|e| e.start_ns);
    let last_io = events.iter().filter(|e| e.kind.is_io()).map(|e| e.end_ns).max();
    let Some(first) = calls.first() else {
        // No call at all (a resume, or a worker that found nothing to do):
        // the lead covers whatever the worker did.
        let busy_until = last_io.unwrap_or(start_ns).clamp(start_ns, end_ns);
        let lead = trace.add(Some(parent), names.lead, start_ns, busy_until);
        add_io(trace, lead, events);
        return busy_until;
    };
    let lead = trace.add(Some(parent), names.lead, start_ns, first.start_ns);
    add_io(trace, lead, events);
    for (i, call) in calls.iter().enumerate() {
        add_call(trace, parent, call, info);
        let gap_end = match calls.get(i + 1) {
            Some(next) => next.start_ns,
            None => last_io.unwrap_or(call.end_ns).clamp(call.end_ns, end_ns),
        };
        let gap = trace.add(Some(parent), names.gap, call.end_ns, gap_end);
        add_io(trace, gap, events);
    }
    let last_call_end = calls.last().map_or(start_ns, |c| c.end_ns);
    last_io.unwrap_or(last_call_end).max(last_call_end).min(end_ns)
}

/// Lays out one in-process phase: one lane per worker thread. The
/// calling thread's IO (journal open, before any worker exists) goes to
/// the first lane's lead; a lane that finished while another still worked
/// gets an `exec.local.idle` span up to the end of the last activity, and
/// what follows that (join, report assembly) stays lane self time.
pub fn add_local_phase(
    trace: &mut Trace,
    phase: u64,
    names: &PhaseNames,
    workers: usize,
    events: &[Event],
    info: &CallInfo<'_>,
) {
    let (start, end) = {
        let p = &trace.spans[phase as usize];
        (p.start_ns, p.end_ns)
    };
    let mut threads: Vec<u64> =
        events.iter().filter(|e| e.kind == Kind::Call).map(|e| e.thread).collect();
    threads.sort_unstable();
    threads.dedup();
    let caller_io: Vec<Event> =
        events.iter().filter(|e| e.kind.is_io() && !threads.contains(&e.thread)).copied().collect();
    let mut lanes = Vec::new();
    for (i, thread) in threads.iter().enumerate() {
        let lane = trace.add(Some(phase), LANE, start, end);
        let mut mine: Vec<Event> = events.iter().filter(|e| e.thread == *thread).copied().collect();
        if i == 0 {
            mine.extend_from_slice(&caller_io);
        }
        // Only the first lane's lead is the journal being opened; the other
        // workers do not exist yet.
        let names = if i == 0 { names } else { &PhaseNames { gap: names.gap, lead: IDLE } };
        let busy_until = add_worker_timeline(trace, lane, names, start, end, &mine, info);
        lanes.push((lane, busy_until));
    }
    for _ in threads.len()..workers.max(1) {
        // A worker that never got a job (or a pass without calls at all).
        let lane = trace.add(Some(phase), LANE, start, end);
        if lanes.is_empty() {
            let lead = trace.add(Some(lane), names.lead, start, end);
            add_io(trace, lead, events);
            lanes.push((lane, end));
        } else {
            lanes.push((lane, start));
        }
    }
    let all_done = lanes.iter().map(|(_, t)| *t).max().unwrap_or(end);
    for (lane, busy_until) in lanes {
        if all_done > busy_until {
            trace.add(Some(lane), IDLE, busy_until, all_done);
        }
    }
}

/// A lane waiting for work that another lane holds.
pub const IDLE: &str = "exec.local.idle";

/// One worker process's own account of a dispatch phase, already shifted
/// onto the parent's clock.
pub struct WorkerSide {
    pub start_ns: u64,
    pub end_ns: u64,
    pub events: Vec<Event>,
}

/// Lays out one dispatcher phase: one lane per worker process — spawn wait
/// (`exec.dispatch.startup`), the process itself (`exec.worker`: start-up,
/// null calls, ledger gaps, exit wait), reap and report assembly
/// (`exec.dispatch.drain`) — plus an `exec.dispatch` span holding the
/// dispatcher's own polling IO, which is not a lane: the waterfall is the
/// workers' time.
pub fn add_dispatch_phase(
    trace: &mut Trace,
    phase: u64,
    sides: &[WorkerSide],
    dispatcher_events: &[Event],
    jobs: &BTreeMap<u64, usize>,
) {
    let (start, end) = {
        let p = &trace.spans[phase as usize];
        (p.start_ns, p.end_ns)
    };
    let dispatcher = trace.add(Some(phase), "exec.dispatch", start, end);
    add_io(trace, dispatcher, dispatcher_events);
    let info = CallInfo { stages: &BTreeMap::new(), jobs };
    for side in sides {
        let lane = trace.add(Some(phase), LANE, start, end);
        trace.add(Some(lane), "exec.dispatch.startup", start, side.start_ns);
        let worker = trace.add(Some(lane), "exec.worker", side.start_ns, side.end_ns);
        let (w_start, w_end) = {
            let w = &trace.spans[worker as usize];
            (w.start_ns, w.end_ns)
        };
        let busy_until =
            add_worker_timeline(trace, worker, &WORKER, w_start, w_end, &side.events, &info);
        trace.add(Some(worker), "exec.worker.exit", busy_until, w_end);
        trace.add(Some(lane), "exec.dispatch.drain", w_end, end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(thread: u64, start: u64, end: u64, encode_secs: f64, source_ns: u64) -> Event {
        Event {
            kind: Kind::Call,
            thread,
            start_ns: start,
            end_ns: end,
            amount: 100,
            encode_secs,
            source_ns,
        }
    }

    fn io(kind: Kind, thread: u64, start: u64, end: u64) -> Event {
        Event {
            kind,
            thread,
            start_ns: start,
            end_ns: end,
            amount: 10,
            encode_secs: 0.0,
            source_ns: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::default();
        let root = t.add(None, "run", 0, 100);
        let a = t.add(Some(root), "a", 10, 40);
        t.add(Some(root), "b", 30, 60); // overlaps `a` by 10
        t.add(Some(a), "c", 15, 20);
        t.add(Some(root), "clipped", 90, 150); // clipped to the parent's end
        let selfs = t.self_times();
        assert_eq!(selfs[root as usize], 100 - 50 - 10);
        assert_eq!(selfs[a as usize], 30 - 5);
        assert_eq!(t.spans[4].end_ns, 100);
    }

    #[test]
    fn waterfall_rows_sum_to_lane_wall() {
        let mut t = Trace::default();
        let run = t.add(None, "run", 0, 10_000);
        let pass = t.add(Some(run), "pass", 1_000, 9_000);
        t.span_mut(pass).pass = Some(3);
        let phase = t.add(Some(pass), "batch", 1_000, 6_000);
        let secs: f64 = 1e-6; // 1000 ns of reported encode time
        let mut stages = BTreeMap::new();
        stages.insert(secs.to_bits(), [2e-7, 3e-7, 1e-7, 0.0]);
        let mut jobs = BTreeMap::new();
        jobs.insert(secs.to_bits(), 7usize);
        let events = vec![
            io(Kind::Create, 0, 1_050, 1_150), // caller thread, before workers exist
            call(1, 1_500, 3_000, secs, 200),
            io(Kind::Append, 1, 3_100, 3_200),
            io(Kind::Sync, 1, 3_200, 3_250),
            call(1, 3_500, 4_000, 0.0, 0),
            io(Kind::Append, 1, 4_050, 4_100),
            call(2, 1_600, 5_000, 0.0, 0),
            io(Kind::Append, 2, 5_100, 5_300),
        ];
        add_local_phase(
            &mut t,
            phase,
            &LOCAL,
            2,
            &events,
            &CallInfo { stages: &stages, jobs: &jobs },
        );

        let (rows, total) = t.waterfall();
        assert!((total - 2.0 * 5_000e-9).abs() < 1e-15, "two lanes of 5000 ns");
        let sum: f64 = rows.values().sum();
        assert!((sum - total).abs() < 1e-12, "rows {rows:?} sum to the lanes' wall");
        // Spot checks: stage rows are exactly what the program reported,
        // the first call's engine share is its wall minus pulls and encode,
        // the caller's create landed in the journal.open lead.
        assert!((rows["vcodec.motion_search"] - 200e-9).abs() < 1e-15);
        assert!((rows["vcodec.encode"] - 400e-9).abs() < 1e-15, "encode time outside stages");
        assert!((rows["vsynth.next_frame"] - 200e-9).abs() < 1e-15);
        assert!((rows["exec.io.create"] - 100e-9).abs() < 1e-15);
        assert!((rows["journal.open"] - 400e-9).abs() < 1e-15, "500 ns lead minus the create");
        // Lane 1 finished its last publish at 4100, lane 2 at 5300: lane 1
        // idles 1200 ns, lane 2's own lead (not yet spawned) is idle too.
        assert!((rows[IDLE] - (1_200e-9 + 600e-9)).abs() < 1e-15);
        // After 5300 nothing is attributed on either lane.
        assert!((rows[UNATTRIBUTED] - 2.0 * 700e-9).abs() < 1e-15);
        let first_call = t.spans.iter().find(|s| s.name == "engine.call").unwrap();
        assert_eq!((first_call.job, first_call.pass), (Some(7), Some(3)));
    }

    #[test]
    fn a_phase_without_calls_is_all_lead() {
        let mut t = Trace::default();
        let phase = t.add(None, "resume", 0, 1_000);
        let events = vec![io(Kind::Read, 0, 100, 300)];
        let none = CallInfo { stages: &BTreeMap::new(), jobs: &BTreeMap::new() };
        add_local_phase(&mut t, phase, &RESUME, 1, &events, &none);
        let (rows, total) = t.waterfall();
        assert!((total - 1_000e-9).abs() < 1e-15);
        assert!((rows["exec.io.read"] - 200e-9).abs() < 1e-15);
        assert!((rows["journal.replay"] - 800e-9).abs() < 1e-15);
        assert!(rows.get(UNATTRIBUTED).copied().unwrap_or(0.0).abs() < 1e-15);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let scratch = crate::scratch::Scratch::create("trace").expect("scratch dir");
        let mut t = Trace::default();
        let root = t.add(None, "run", 0, 10);
        t.add(Some(root), "pass", 1, 9);
        let path = scratch.path().join("t.jsonl");
        t.write_jsonl(&path).expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let v = vtrace::json::parse(line).expect("valid JSON");
            assert!(v.get("name").is_some() && v.get("start_ns").is_some());
        }
    }
}
