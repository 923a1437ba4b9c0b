//! Worker mode: the benchmark binary re-executed by the library's
//! dispatcher as `worker <spec> <journal> --worker-id N --run R`.
//!
//! It attaches to the journal through the library's public
//! `run_worker_with_io` with the null transcoder and the counting IO
//! wrapper, then leaves a *side file* next to the journal — its IO totals
//! and, when tracing, its raw events on its own clock plus the wall-clock
//! epoch that lets the parent shift them onto its timeline.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use vbench::exec::{run_worker_with_io, WorkerOptions};
use vbench::resilience::ResilienceConfig;

use crate::engine::{NullTranscoder, TimedTranscoder};
use crate::io::{CountingIo, IoTotals};
use crate::record::{Event, Kind, Recorder};
use crate::trace::WorkerSide;
use crate::workload::{null_jobs, read_worker_spec};
use crate::{clock, flag, rusage};

/// Side file of worker `id` for `journal`.
pub fn side_path(journal: &Path, id: usize) -> PathBuf {
    let mut name = journal.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".w{id}.side"));
    journal.with_file_name(name)
}

/// Entry point of worker mode; `args` follow the `worker` word. Returns
/// the process exit code.
pub fn main(args: &[String]) -> i32 {
    let start_ns = clock::now_ns();
    let (Some(spec_path), Some(journal)) = (args.first(), args.get(1)) else {
        eprintln!("worker: usage: worker <spec> <journal> --worker-id N --run R");
        return 2;
    };
    let parsed = (flag::<usize>(args, "--worker-id"), flag::<u32>(args, "--run"));
    let (Ok(Some(worker_id)), Ok(Some(run))) = parsed else {
        eprintln!("worker: --worker-id and --run are required");
        return 2;
    };
    let spec = match read_worker_spec(Path::new(spec_path)) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("worker: cannot read spec {spec_path}: {e}");
            return 1;
        }
    };
    let journal = PathBuf::from(journal);
    let recorder = Arc::new(Recorder::new(spec.tracing));
    let io = CountingIo::new(Arc::clone(&recorder));
    let jobs = null_jobs(spec.payloads.len());
    let null = NullTranscoder { payloads: &spec.payloads };
    let engine = TimedTranscoder { inner: &null, recorder: Arc::clone(&recorder) };
    let opts = WorkerOptions { journal: journal.clone(), worker_id, run, threads: 1 };
    if let Err(e) = run_worker_with_io(&engine, &jobs, &ResilienceConfig::default(), &opts, &io) {
        eprintln!("worker {worker_id}: {e}");
        return 1;
    }
    let side =
        render_side(start_ns, clock::now_ns(), io.last_job_ns(), &io.totals(), &recorder.drain());
    if let Err(e) = std::fs::write(side_path(&journal, worker_id), side) {
        eprintln!("worker {worker_id}: cannot write side file: {e}");
        return 1;
    }
    0
}

fn render_side(
    start_ns: u64,
    end_ns: u64,
    last_job_ns: u64,
    totals: &IoTotals,
    events: &[Event],
) -> String {
    let mut out = format!(
        "worker epoch_unix_ns={} start_ns={start_ns} end_ns={end_ns} last_job_ns={last_job_ns} \
         peak_rss_kb={} {}\n",
        clock::epoch_unix_ns(),
        (rusage::peak_rss_mb() * 1e3) as u64,
        totals.fields()
    );
    for e in events {
        out.push_str(&format!(
            "ev {} {} {} {} {} {} {}\n",
            e.kind.name(),
            e.thread,
            e.start_ns,
            e.end_ns,
            e.amount,
            e.encode_secs.to_bits(),
            e.source_ns
        ));
    }
    out
}

/// A worker's side file read back by the parent: IO totals plus its
/// timeline shifted onto the parent's clock.
pub struct Side {
    pub totals: IoTotals,
    /// The worker's own peak resident set, MB.
    pub peak_rss_mb: f64,
    /// When the worker appended its last job record, on the parent's
    /// clock; `None` if it published none.
    pub last_job_ns: Option<u64>,
    pub timeline: WorkerSide,
}

/// Parses a side file. `None` when the header line is missing or
/// malformed (the worker died before writing it).
pub fn parse_side(text: &str, parent_epoch_unix_ns: u64) -> Option<Side> {
    let mut lines = text.lines();
    let header = lines.next()?.strip_prefix("worker ")?;
    let field = |key: &str| -> Option<u64> {
        header.split_whitespace().find_map(|p| p.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
    };
    // Worker time `t` is parent time `t + shift`.
    let shift = field("epoch_unix_ns")? as i128 - parent_epoch_unix_ns as i128;
    let onto_parent = |t: u64| (t as i128 + shift).max(0) as u64;
    let events = lines
        .filter_map(|line| {
            let mut f = line.strip_prefix("ev ")?.split(' ');
            Some(Event {
                kind: Kind::from_name(f.next()?)?,
                thread: f.next()?.parse().ok()?,
                start_ns: onto_parent(f.next()?.parse().ok()?),
                end_ns: onto_parent(f.next()?.parse().ok()?),
                amount: f.next()?.parse().ok()?,
                encode_secs: f64::from_bits(f.next()?.parse().ok()?),
                source_ns: f.next()?.parse().ok()?,
            })
        })
        .collect();
    Some(Side {
        totals: IoTotals::from_fields(header),
        peak_rss_mb: field("peak_rss_kb")? as f64 / 1e3,
        last_job_ns: Some(field("last_job_ns")?).filter(|t| *t > 0).map(onto_parent),
        timeline: WorkerSide {
            start_ns: onto_parent(field("start_ns")?),
            end_ns: onto_parent(field("end_ns")?),
            events,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{APPENDS, READ_BYTES};

    #[test]
    fn side_file_round_trips_and_shifts_onto_the_parent_clock() {
        let totals = IoTotals([0, 1, 5, 600, 2, 9, 12345, 0, 0]);
        let events = [
            Event {
                kind: Kind::Call,
                thread: 1,
                start_ns: 100,
                end_ns: 250,
                amount: 256,
                encode_secs: 3e-9,
                source_ns: 0,
            },
            Event {
                kind: Kind::Append,
                thread: 1,
                start_ns: 260,
                end_ns: 300,
                amount: 50_000,
                encode_secs: 0.0,
                source_ns: 0,
            },
        ];
        let text = render_side(10, 400, 300, &totals, &events);
        // The parent's epoch is 1000 ns earlier than this process's.
        let side = parse_side(&text, clock::epoch_unix_ns() - 1000).expect("parses");
        assert_eq!(side.totals, totals);
        assert!(side.peak_rss_mb > 0.5);
        assert_eq!((side.totals[APPENDS], side.totals[READ_BYTES]), (5, 12345));
        assert_eq!((side.timeline.start_ns, side.timeline.end_ns), (1010, 1400));
        assert_eq!(side.last_job_ns, Some(1300));
        let idle = parse_side(&render_side(10, 400, 0, &totals, &[]), clock::epoch_unix_ns());
        assert_eq!(idle.expect("parses").last_job_ns, None, "a worker that published nothing");
        assert_eq!(side.timeline.events.len(), 2);
        let call = side.timeline.events[0];
        assert_eq!((call.kind, call.start_ns, call.end_ns), (Kind::Call, 1100, 1250));
        assert_eq!(call.encode_secs, 3e-9);
        assert_eq!(side.timeline.events[1].amount, 50_000);
        assert!(parse_side("garbage", 0).is_none());
    }

    #[test]
    fn side_path_sits_next_to_the_journal() {
        let p = side_path(Path::new("/x/out/journal.jsonl"), 3);
        assert_eq!(p, Path::new("/x/out/journal.jsonl.w3.side"));
    }
}
