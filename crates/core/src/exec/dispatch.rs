//! The dispatcher half of the multi-process backend: owns the journal
//! and its ledger, spawns worker processes, monitors liveness, reaps
//! leases, and assembles the batch report from the journal's durable
//! records.
//!
//! [`run_dispatch_with_io`] opens (or resumes) the shared journal through the
//! exact same [`crate::journal`] path as in-process journaled execution
//! — manifest fingerprint validation, corruption quarantine, compaction
//! — starts this run's ledger beside it ([`super::ledger`]: header plus
//! a `done` per replayed job), then spawns `procs` worker processes that
//! lease jobs through the ledger and commit fsync'd job records to the
//! journal.
//!
//! The dispatcher reads the journal whole at most three times: the
//! resume scan inside `open_journal`, once per reap that finds dangling
//! leases, and once at the end to assemble the report. Everything in
//! between — the poll loop, liveness, `--status-out` — folds the ledger,
//! whose size does not depend on the payloads.
//!
//! Worker-loss recovery: the dispatcher polls the ledger and `waitpid`s
//! its children. When a child exits with jobs still leased, each dangling
//! lease is settled against the journal, read *after* the reap so a
//! process provably gone can add nothing to it: a job whose record is
//! already committed gets a `done` on the dead worker's behalf (it died
//! between its commit and its `done`), any other gets an `expire`. A
//! surviving (or respawned) worker re-claims an expired job and
//! re-encodes it; determinism makes the late output byte-identical to
//! what the dead worker would have produced. A live child whose
//! heartbeats stop advancing for too long is killed and recovered the
//! same way.
//!
//! The final report is read back from the journal, not from worker
//! IPC: a record tagged with this invocation's run index is live work,
//! anything else is a replay — the same distinction `--resume` draws.

use std::fs::OpenOptions;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use super::io::{DurableFile, JournalIo};
use super::ledger::{self, replay_ledger};
use super::{status, ChainResult};
use crate::farm::{BatchError, EngineBatchReport, EngineJob};
use crate::journal::record::{self, DoneMark, Record};
use crate::journal::{io_err, manifest_fingerprint, open_journal, JournalConfig, JournalError};
use crate::resilience::ResilienceConfig;
use vtrace::json::{self, Value};

/// Ledger poll cadence for the monitor loop.
const POLL: Duration = Duration::from_millis(20);
/// How long a live child's heartbeats may stall before the dispatcher
/// kills it and reclaims its leases (workers heartbeat every ~100ms).
const HEARTBEAT_STALL: Duration = Duration::from_secs(10);
/// Replacement-worker budget: a batch that keeps losing workers past
/// this is failing environmentally, not transiently.
const MAX_RESPAWNS: usize = 8;

/// How a dispatcher runs a batch across worker processes.
#[derive(Clone, Debug)]
pub struct DispatchOptions {
    /// Worker processes to keep alive (each runs its own thread pool).
    pub procs: usize,
    /// The executable to spawn as workers (normally
    /// `std::env::current_exe()` — `vbench worker`).
    pub worker_exe: PathBuf,
    /// Full worker argv (subcommand, journal path, thread count, and
    /// the job-defining flags); the dispatcher appends `--worker-id`,
    /// `--run`, and per-worker `--trace-out`.
    pub worker_args: Vec<String>,
    /// When set, worker `N` writes its trace to `{base}.w{N}` for the
    /// dispatcher to merge after its own trace is flushed.
    pub worker_trace_base: Option<String>,
    /// The shared journal (and whether to resume it).
    pub journal: JournalConfig,
    /// When set, the dispatcher periodically writes a `status.json`
    /// snapshot here (atomic temp-file rename; see [`super::status`]),
    /// plus a final snapshot when the batch completes.
    pub status_out: Option<PathBuf>,
    /// When set, the *initial wave* of workers (ids `0..procs`) is
    /// launched with `--io-fault-plan <spec>` so their journal IO runs
    /// through the storage-fault layer. Replacement workers always run
    /// clean — the respawn budget bounds fault-driven worker churn, and
    /// the chaos auditor cares that recovery converges, not that faults
    /// repeat forever.
    pub worker_io_fault_spec: Option<String>,
}

/// What a dispatch run produced: the assembled batch report plus the
/// per-worker trace files written (merge them with
/// [`merge_trace_files`] *after* the dispatcher's own trace is
/// flushed).
#[derive(Debug)]
pub struct DispatchReport {
    /// The batch outcome, assembled from the journal's durable records.
    pub report: EngineBatchReport,
    /// Trace files of every worker spawned (including replacements);
    /// entries may not exist on disk when a worker died before its
    /// trace flush.
    pub worker_traces: Vec<PathBuf>,
}

/// One live child and its liveness bookkeeping.
struct WorkerProc {
    id: usize,
    child: Child,
    hb_seen: u64,
    hb_at: Instant,
}

/// Opens (or resumes) the journal and starts this run's ledger beside it
/// — everything a worker needs in place before it is spawned. Returns the
/// run index and the ledger, ready for the dispatcher's own appends. The
/// journal handle is dropped: after the open, only workers write to it.
pub(crate) fn open(
    jobs: &[EngineJob],
    policy: &ResilienceConfig,
    config: &JournalConfig,
    io: &dyn JournalIo,
) -> Result<(u32, Box<dyn DurableFile>), JournalError> {
    let opened = open_journal(config, jobs, policy, io)?;
    let replayed = opened.prefilled.iter().map(|(job, chain)| DoneMark {
        job: *job,
        worker: None,
        ok: chain.outcome.is_ok(),
        attempts: chain.attempts,
    });
    let fingerprint = manifest_fingerprint(jobs, policy);
    let ledger = ledger::create_ledger(
        io,
        &config.path,
        fingerprint,
        jobs.len(),
        opened.run_index,
        replayed,
    )
    .map_err(|e| io_err("start ledger", e))?;
    Ok((opened.run_index, ledger))
}

/// Runs `jobs` across `opts.procs` worker processes coordinating
/// through the ledger beside the shared journal. Blocks until every job
/// has a durable record (reaping, expiring, and replacing lost workers
/// along the way), then assembles the batch report from those records.
/// `io` carries the dispatcher's own journal, ledger and status IO
/// ([`StdIo`](super::StdIo) in production; the seam the chaos auditor
/// faults) — workers do their IO in their own processes.
///
/// # Errors
///
/// [`JournalError::ManifestMismatch`] on a resume of a different
/// batch's journal, [`JournalError::Io`] on filesystem or process
/// failures (including a worker-loss cascade past the respawn budget),
/// [`JournalError::Batch`] for zero processes.
pub fn run_dispatch_with_io(
    jobs: &[EngineJob],
    policy: &ResilienceConfig,
    opts: &DispatchOptions,
    io: &dyn JournalIo,
) -> Result<DispatchReport, JournalError> {
    if opts.procs == 0 {
        return Err(JournalError::Batch(BatchError::NoWorkers));
    }
    let started = Instant::now();
    let (run, mut ledger_file) = open(jobs, policy, &opts.journal, io)?;
    let ledger_path = ledger::ledger_path(&opts.journal.path);
    if let Some(path) = &opts.status_out {
        // Scrub temp files abandoned by a dispatcher that died mid-snapshot.
        super::io::remove_stale_temps(path);
    }

    let mut span = vtrace::span("exec.dispatch");
    let mut workers: Vec<WorkerProc> = Vec::with_capacity(opts.procs);
    let mut worker_traces: Vec<PathBuf> = Vec::new();
    let mut next_id = 0usize;
    let mut respawns = 0usize;
    let mut expired = 0u64;

    // Status snapshots every ~25 polls (~500ms): frequent enough for a
    // live view, cheap enough to never matter next to the encode work.
    const STATUS_EVERY: u32 = 25;
    let mut polls = 0u32;
    let write_status = |text: &str| {
        let Some(path) = &opts.status_out else { return };
        if let Some(snap) = status::snapshot_from_text(text) {
            let now_ms = std::time::SystemTime::now()
                .duration_since(std::time::SystemTime::UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0);
            // Best-effort: a failed snapshot write must not kill the
            // batch the snapshot exists to observe.
            let _ = status::write_atomic_io(
                io,
                path,
                &snap.to_json(now_ms, started.elapsed().as_secs_f64()),
            );
        }
    };

    let result = (|| -> Result<(), JournalError> {
        for _ in 0..opts.procs {
            workers.push(spawn_worker(opts, run, &mut next_id, &mut worker_traces)?);
        }
        loop {
            let text = record::read_text(io, &ledger_path).map_err(|e| io_err("poll ledger", e))?;
            let view = replay_ledger(&text, jobs.len());
            if polls.is_multiple_of(STATUS_EVERY) || view.all_done() {
                write_status(&text);
            }
            polls += 1;
            if view.all_done() {
                return Ok(());
            }

            // Reap exited children first; only then settle their
            // leases, from ledger and journal snapshots taken *after*
            // the reap — a dead process can append nothing further, so
            // those snapshots are guaranteed to contain its every lease
            // and its every committed record.
            let mut dead: Vec<u64> = Vec::new();
            let mut i = 0;
            while i < workers.len() {
                match workers[i].child.try_wait().map_err(|e| io_err("wait for worker", e))? {
                    Some(_status) => {
                        let gone = workers.remove(i);
                        dead.push(u64::from(gone.child.id()));
                    }
                    None => {
                        let seen =
                            view.workers.get(&(workers[i].id as u64)).map_or(0, |w| w.hb_seq);
                        if seen > workers[i].hb_seen {
                            workers[i].hb_seen = seen;
                            workers[i].hb_at = Instant::now();
                        } else if workers[i].hb_at.elapsed() > HEARTBEAT_STALL {
                            // Stuck (alive but silent): kill it; the
                            // next iteration reaps and expires it like
                            // any other dead worker.
                            let _ = workers[i].child.kill();
                        }
                        i += 1;
                    }
                }
            }
            if !dead.is_empty() {
                let text = record::read_text(io, &ledger_path)
                    .map_err(|e| io_err("re-read ledger after reap", e))?;
                let view = replay_ledger(&text, jobs.len());
                let dangling: Vec<_> =
                    dead.iter().flat_map(|pid| view.leases_of_pid(*pid)).collect();
                if !dangling.is_empty() {
                    let journal = record::read_text(io, &opts.journal.path)
                        .map_err(|e| io_err("read journal after reap", e))?;
                    let (done, expire) = ledger::reconcile(&dangling, &journal);
                    let mut settle = |line: String| {
                        record::append_ephemeral(ledger_file.as_mut(), &line)
                            .map_err(|e| io_err("settle a reaped lease", e))
                    };
                    for mark in done {
                        settle(record::done_line(mark))?;
                    }
                    for (job, lease) in expire {
                        settle(record::expire_line(job, lease))?;
                        vtrace::counter("exec.leases_expired", 1);
                        expired += 1;
                    }
                }
            }

            if workers.len() < opts.procs {
                if respawns >= MAX_RESPAWNS {
                    return Err(io_err(
                        "respawn worker",
                        std::io::Error::other(
                            "worker respawn budget exhausted with jobs outstanding",
                        ),
                    ));
                }
                respawns += 1;
                workers.push(spawn_worker(opts, run, &mut next_id, &mut worker_traces)?);
            }
            std::thread::sleep(POLL);
        }
    })();

    // Batch complete: workers observe all-done and exit on their own;
    // collect them so none outlive the dispatcher. On an error, kill
    // them first.
    for mut w in workers.drain(..) {
        if result.is_err() {
            let _ = w.child.kill();
        }
        let _ = w.child.wait();
    }
    result?;

    if span.id().is_some() {
        span.record("jobs", jobs.len());
        span.record("procs", opts.procs);
        span.record("respawns", respawns as u64);
        span.record("leases_expired", expired);
    }
    drop(span);

    // Every job has a `done`, and a `done` follows its record's fsync:
    // this one read of the journal holds a record for every job.
    let text = record::read_text(io, &opts.journal.path)
        .map_err(|e| io_err("read journal for the report", e))?;
    let report = assemble_report(jobs, &text, run, started)?;
    Ok(DispatchReport { report, worker_traces })
}

/// Spawns one worker process, assigning it the next fresh worker id
/// (replacement workers get fresh ids so their leases, heartbeats, and
/// trace files never collide with a dead predecessor's).
fn spawn_worker(
    opts: &DispatchOptions,
    run: u32,
    next_id: &mut usize,
    worker_traces: &mut Vec<PathBuf>,
) -> Result<WorkerProc, JournalError> {
    let id = *next_id;
    *next_id += 1;
    let mut cmd = Command::new(&opts.worker_exe);
    cmd.args(&opts.worker_args)
        .arg("--worker-id")
        .arg(id.to_string())
        .arg("--run")
        .arg(run.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null());
    if let Some(spec) = &opts.worker_io_fault_spec {
        // Initial wave only: replacements for fault-killed workers must
        // run clean or a deterministic fault would re-fire forever.
        if id < opts.procs {
            cmd.arg("--io-fault-plan").arg(spec);
        }
    }
    if let Some(base) = &opts.worker_trace_base {
        let trace = format!("{base}.w{id}");
        cmd.arg("--trace-out").arg(&trace);
        worker_traces.push(PathBuf::from(trace));
    }
    let child = cmd.spawn().map_err(|e| io_err("spawn worker", e))?;
    Ok(WorkerProc { id, child, hb_seen: 0, hb_at: Instant::now() })
}

/// Folds the finished journal's text into an [`EngineBatchReport`]: one
/// verified record per job (last record wins), live records (tagged
/// with this run's index) keeping their attempts and CPU-seconds,
/// everything else counted as replayed.
fn assemble_report(
    jobs: &[EngineJob],
    text: &str,
    run: u32,
    started: Instant,
) -> Result<EngineBatchReport, JournalError> {
    let mut chains: Vec<Option<ChainResult>> = Vec::new();
    chains.resize_with(jobs.len(), || None);
    for rec in record::records(text) {
        let Record::Job(rec) = rec else { continue };
        if let Some(chain) = rec.load(jobs) {
            let live = rec.run == Some(run);
            chains[rec.job] = Some(if live { chain } else { ChainResult::replayed(chain.outcome) });
        }
    }
    let wall_secs = started.elapsed().as_secs_f64().max(1e-9);
    // The ledger said Done for every job; a record that does not
    // verify on read-back is journal damage after commit.
    let chains = jobs
        .iter()
        .zip(chains)
        .map(|(job, chain)| {
            chain.map(|c| (c, false)).ok_or_else(|| {
                io_err(
                    "load job record",
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("job '{}' has no verifiable journal record", job.name),
                    ),
                )
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(EngineBatchReport::from_chains(jobs, chains, 0, wall_secs))
}

/// Appends worker trace files onto the dispatcher's flushed trace,
/// rebasing each onto the dispatcher's timebase: span ids (and
/// non-null parents) are shifted past the maximum id already in the
/// file, and every `start_us`/`t_us` is shifted by the wall-clock
/// difference between the worker's trace epoch and the dispatcher's
/// (read from the streams' header lines), so events interleave in true
/// wall-clock order. The worker's header is replaced with a copy
/// carrying `rebased_offset_us`, which is what lets `vtrace-check`
/// verify the merge stayed monotonic. Missing or empty worker files (a
/// worker killed before its trace flush) are skipped; so is any line
/// that does not parse as JSON.
pub fn merge_trace_files(main: &std::path::Path, workers: &[PathBuf]) -> std::io::Result<()> {
    let main_text = std::fs::read_to_string(main)?;
    let mut offset = max_span_id(&main_text);
    let main_epoch = header_epoch_us(&main_text).unwrap_or(0);
    let mut appended = String::new();
    for path in workers {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        };
        let local_max = max_span_id(&text);
        // Workers are spawned after the dispatcher pins its epoch, so
        // the rebase offset is non-negative on any sane clock; saturate
        // rather than corrupt the stream if wall time stepped backwards.
        let rebase = header_epoch_us(&text).unwrap_or(main_epoch).saturating_sub(main_epoch);
        for line in text.lines() {
            let Ok(parsed) = json::parse(line) else { continue };
            match parsed.get("kind").and_then(Value::as_str) {
                Some("header") => {
                    let epoch =
                        parsed.get("epoch_unix_us").and_then(Value::as_u64).unwrap_or(main_epoch);
                    let pid = parsed.get("pid").and_then(Value::as_u64).unwrap_or(0);
                    appended.push_str(&vtrace::report::header_line(epoch, pid, Some(rebase)));
                }
                Some("span") => {
                    let mut shifted = line.to_string();
                    bump_field(&mut shifted, "id", offset);
                    bump_field(&mut shifted, "parent", offset);
                    bump_field(&mut shifted, "start_us", rebase);
                    appended.push_str(&shifted);
                }
                Some("log") => {
                    let mut shifted = line.to_string();
                    bump_field(&mut shifted, "t_us", rebase);
                    appended.push_str(&shifted);
                }
                _ => appended.push_str(line),
            }
            appended.push('\n');
        }
        offset += local_max;
    }
    if appended.is_empty() {
        return Ok(());
    }
    let mut file = OpenOptions::new().append(true).open(main)?;
    use std::io::Write;
    file.write_all(appended.as_bytes())
}

/// The `epoch_unix_us` of a JSONL trace's header line, if present.
fn header_epoch_us(text: &str) -> Option<u64> {
    text.lines()
        .filter_map(|l| json::parse(l).ok())
        .find(|v| v.get("kind").and_then(Value::as_str) == Some("header"))
        .and_then(|v| v.get("epoch_unix_us").and_then(Value::as_u64))
}

/// The largest span id in a JSONL trace (0 when it has no spans).
fn max_span_id(text: &str) -> u64 {
    text.lines()
        .filter(|l| l.starts_with("{\"kind\":\"span\""))
        .filter_map(|l| json::parse(l).ok())
        .filter_map(|v| v.get("id").and_then(Value::as_u64))
        .max()
        .unwrap_or(0)
}

/// Adds `offset` to the first `"key":<digits>` occurrence in `line`, in
/// place. Leaves the line untouched when the value is not a bare
/// number (e.g. `"parent":null`). Safe on span lines because `id` and
/// `parent` are the leading keys `to_jsonl` emits, before any
/// user-controlled field content.
fn bump_field(line: &mut String, key: &str, offset: u64) {
    let pattern = format!("\"{key}\":");
    let Some(at) = line.find(&pattern) else { return };
    let start = at + pattern.len();
    let end = start
        + line.as_bytes()[start..]
            .iter()
            .position(|b| !b.is_ascii_digit())
            .unwrap_or(line.len() - start);
    if end == start {
        return;
    }
    if let Ok(value) = line[start..end].parse::<u64>() {
        line.replace_range(start..end, &(value + offset).to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::record::testing::{jobs, ok_chain};

    /// The report reads what every other reader reads: a garbage line
    /// (here the U+FFFD a lossy decode leaves behind) between valid
    /// records is skipped, not a hard error on a complete batch.
    #[test]
    fn report_folds_the_journal_text_and_skips_garbage_lines() {
        let jobs = jobs(&["a", "b"]);
        let text = [
            record::manifest_line(7, 2),
            record::run_line(3),
            record::job_line(0, "a", &ok_chain(b"replayed", 2), Some((0, 2))),
            "\u{FFFD}\u{FFFD}{{{not json\n".to_string(),
            record::job_line(1, "b", &ok_chain(b"stale", 1), Some((1, 3))),
            record::job_line(1, "b", &ok_chain(b"live", 2), Some((0, 3))),
        ]
        .concat();
        let report = assemble_report(&jobs, &text, 3, Instant::now()).expect("garbage is skipped");
        let bytes: Vec<&[u8]> =
            report.results.iter().map(|r| r.success().expect("ok").bytes()).collect();
        assert_eq!(bytes, [&b"replayed"[..], b"live"], "last record wins");
        // Only run 3's record is live work; run 2's is a replay.
        assert_eq!((report.results[0].attempts, report.results[1].attempts), (0, 2));
        assert_eq!((report.summary.replayed, report.summary.retries), (1, 1));
        assert_eq!(report.cpu_secs, 2.75, "the live job's transfer + pipeline seconds");

        let missing = text.replace("\"name\":\"b\"", "\"name\":\"z\"");
        let err =
            assemble_report(&jobs, &missing, 3, Instant::now()).expect_err("job b unverifiable");
        assert!(matches!(err, JournalError::Io { .. }), "{err}");
    }

    #[test]
    fn bump_field_shifts_id_and_respects_null_parent() {
        let mut root = r#"{"kind":"span","id":1,"parent":null,"name":"a","fields":{}}"#.to_string();
        bump_field(&mut root, "id", 10);
        bump_field(&mut root, "parent", 10);
        assert_eq!(root, r#"{"kind":"span","id":11,"parent":null,"name":"a","fields":{}}"#);

        let mut child = r#"{"kind":"span","id":2,"parent":1,"name":"b","fields":{}}"#.to_string();
        bump_field(&mut child, "id", 10);
        bump_field(&mut child, "parent", 10);
        assert_eq!(child, r#"{"kind":"span","id":12,"parent":11,"name":"b","fields":{}}"#);
    }

    #[test]
    fn max_span_id_ignores_non_span_lines() {
        let text = "{\"kind\":\"counter\",\"name\":\"x\",\"value\":9}\n\
                    {\"kind\":\"span\",\"id\":4,\"parent\":null,\"name\":\"a\",\"thread\":0,\
                     \"start_us\":0,\"dur_us\":1,\"fields\":{}}\n";
        assert_eq!(max_span_id(text), 4);
    }

    /// Merging rebases worker timestamps onto the dispatcher's
    /// timebase: the worker header gains `rebased_offset_us` equal to
    /// the epoch delta, and every span `start_us` / log `t_us` shifts
    /// by it, alongside the existing span-id bumping.
    #[test]
    fn merge_rebases_worker_headers_and_timestamps() {
        let dir = std::env::temp_dir().join(format!("vbench-merge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let main = dir.join("main.jsonl");
        let worker = dir.join("worker.jsonl");
        std::fs::write(
            &main,
            "{\"kind\":\"header\",\"version\":1,\"epoch_unix_us\":1000,\"pid\":1}\n\
             {\"kind\":\"span\",\"id\":3,\"parent\":null,\"name\":\"exec.dispatch\",\"thread\":0,\
              \"start_us\":0,\"dur_us\":900,\"fields\":{}}\n",
        )
        .expect("write main");
        std::fs::write(
            &worker,
            "{\"kind\":\"header\",\"version\":1,\"epoch_unix_us\":1250,\"pid\":2}\n\
             {\"kind\":\"span\",\"id\":1,\"parent\":null,\"name\":\"transcode\",\"thread\":0,\
              \"start_us\":40,\"dur_us\":10,\"fields\":{}}\n\
             {\"kind\":\"log\",\"level\":\"info\",\"t_us\":55,\"thread\":0,\"msg\":\"x\"}\n",
        )
        .expect("write worker");

        merge_trace_files(&main, std::slice::from_ref(&worker)).expect("merge");
        let merged = std::fs::read_to_string(&main).expect("read merged");

        // Epoch delta 1250 - 1000 = 250 µs: header records it, events
        // shift by it; the worker span id clears the main stream's max.
        assert!(merged.contains("\"rebased_offset_us\":250"), "merged:\n{merged}");
        assert!(merged.contains("\"id\":4,\"parent\":null,\"name\":\"transcode\""), "{merged}");
        assert!(merged.contains("\"start_us\":290"), "worker span not rebased:\n{merged}");
        assert!(merged.contains("\"t_us\":305"), "worker log not rebased:\n{merged}");
        // Every byte of the merged stream, the rewritten worker header
        // included, is pinned.
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
            r#"{"kind":"log","level":"info","t_us":305,"thread":0,"msg":"x"}"#,
            "\n",
        );
        assert_eq!(merged, golden);

        // The result satisfies the monotonicity rule vtrace-check
        // enforces: each segment's events sit at or after its offset.
        let mut offset = 0;
        for line in merged.lines() {
            let v = json::parse(line).expect("merged line parses");
            match v.get("kind").and_then(Value::as_str) {
                Some("header") => {
                    offset = v.get("rebased_offset_us").and_then(Value::as_u64).unwrap_or(0);
                }
                Some("span") => {
                    let start = v.get("start_us").and_then(Value::as_u64).unwrap();
                    assert!(start >= offset, "span before segment offset: {line}");
                }
                Some("log") => {
                    let t = v.get("t_us").and_then(Value::as_u64).unwrap();
                    assert!(t >= offset, "log before segment offset: {line}");
                }
                _ => {}
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
