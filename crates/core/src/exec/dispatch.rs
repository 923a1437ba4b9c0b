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
//! leases, and once at the end to assemble the report. A resume whose
//! scan replayed every job reads it once: no worker can lease a job, so
//! no record can carry this run's index, and the report is the scan's
//! replays. Everything in between — the poll loop, liveness,
//! `--status-out` — folds the ledger, whose size does not depend on the
//! payloads.
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
/// [`vtrace::stream::merge_trace_files`] *after* the dispatcher's own
/// trace is flushed).
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

/// A journal opened for a dispatch: this run's index, its ledger (ready
/// for the dispatcher's own appends), and the chains the resume scan
/// replayed, by job index.
pub(crate) type Opened = (u32, Box<dyn DurableFile>, Vec<(usize, ChainResult)>);

/// Opens (or resumes) the journal and starts this run's ledger beside it
/// — everything a worker needs in place before it is spawned. The
/// journal handle is dropped: after the open, only workers write to it.
pub(crate) fn open(
    jobs: &[EngineJob],
    policy: &ResilienceConfig,
    config: &JournalConfig,
    io: &dyn JournalIo,
) -> Result<Opened, JournalError> {
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
    Ok((opened.run_index, ledger, opened.prefilled))
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
    let (run, mut ledger_file, prefilled) = open(jobs, policy, &opts.journal, io)?;
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

    let report = if prefilled.len() == jobs.len() {
        // The scan replayed every job, so the ledger started all done and
        // no worker leased anything: the journal holds no record of this
        // run, and the scan's chains are what a re-read would fold.
        let chains = prefilled.into_iter().map(|(_, chain)| (chain, false));
        EngineBatchReport::from_chains(jobs, chains, 0, wall_secs(started))
    } else {
        // Every job has a `done`, and a `done` follows its record's
        // fsync: this one read of the journal holds a record for every job.
        let text = record::read_text(io, &opts.journal.path)
            .map_err(|e| io_err("read journal for the report", e))?;
        assemble_report(jobs, &text, run, started)?
    };
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
    Ok(EngineBatchReport::from_chains(jobs, chains, 0, wall_secs(started)))
}

/// The batch's wall seconds so far, never zero.
fn wall_secs(started: Instant) -> f64 {
    started.elapsed().as_secs_f64().max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::StdIo;
    use crate::journal::record::testing::{jobs, ok_chain, TempJournal};
    use std::path::Path;
    use std::sync::Mutex;
    use vfault::FileClass;

    /// A [`JournalIo`] over [`StdIo`] that logs the path and length of
    /// every whole-file read.
    #[derive(Default)]
    struct ReadLog(Mutex<Vec<(PathBuf, usize)>>);

    impl ReadLog {
        /// `(reads, bytes)` of `path`.
        fn of(&self, path: &Path) -> (usize, usize) {
            let log = self.0.lock().unwrap();
            let hits = log.iter().filter(|(p, _)| p == path);
            hits.fold((0, 0), |(reads, bytes), (_, n)| (reads + 1, bytes + n))
        }
    }

    impl JournalIo for ReadLog {
        fn create(&self, class: FileClass, path: &Path) -> std::io::Result<Box<dyn DurableFile>> {
            StdIo.create(class, path)
        }

        fn open_append(
            &self,
            class: FileClass,
            path: &Path,
        ) -> std::io::Result<Box<dyn DurableFile>> {
            StdIo.open_append(class, path)
        }

        fn read(&self, class: FileClass, path: &Path) -> std::io::Result<Vec<u8>> {
            let bytes = StdIo.read(class, path)?;
            self.0.lock().unwrap().push((path.to_path_buf(), bytes.len()));
            Ok(bytes)
        }

        fn rename(&self, class: FileClass, from: &Path, to: &Path) -> std::io::Result<()> {
            StdIo.rename(class, from, to)
        }

        fn sync_parent_dir(&self, path: &Path) -> std::io::Result<()> {
            StdIo.sync_parent_dir(path)
        }
    }

    /// Resuming a dispatch whose every job is committed reads the journal
    /// once, in the resume scan, and reports what a second read would:
    /// every job replayed, with its last record's bytes. Its worker still
    /// spawns and exits (`true` stands in for `vbench worker`, which would
    /// find the ledger all done).
    #[test]
    fn resuming_a_finished_dispatch_reads_the_journal_once() {
        let (jobs, policy) = (jobs(&["a", "b", "c"]), ResilienceConfig::default());
        let temp = TempJournal::new("resume-once");
        let mut text = record::manifest_line(manifest_fingerprint(&jobs, &policy), jobs.len());
        text += &record::run_line(0);
        for (i, job) in jobs.iter().enumerate() {
            let stale = ok_chain(format!("stale {i}").as_bytes(), 1);
            text += &record::job_line(i, &job.name, &stale, Some((0, 0)));
        }
        text += &record::job_line(1, "b", &ok_chain(b"retried", 2), Some((1, 0)));
        std::fs::write(temp.path(), &text).expect("write the finished journal");

        let opts = DispatchOptions {
            procs: 1,
            worker_exe: "true".into(),
            worker_args: Vec::new(),
            worker_trace_base: None,
            journal: JournalConfig::new(temp.path()).with_resume(true),
            status_out: None,
            worker_io_fault_spec: None,
        };
        let io = ReadLog::default();
        let got = run_dispatch_with_io(&jobs, &policy, &opts, &io).expect("resume").report;
        assert_eq!(io.of(temp.path()), (1, text.len()), "journal reads");

        let reread = std::fs::read_to_string(temp.path()).expect("journal");
        assert_eq!(reread, text.clone() + &record::run_line(1), "only the run record is new");
        let want = assemble_report(&jobs, &reread, 1, Instant::now()).expect("re-read report");
        let row = |r: &crate::farm::EngineJobResult| {
            let bytes = r.success().expect("ok").bytes().to_vec();
            (r.name.clone(), bytes, r.attempts)
        };
        let rows = |report: &EngineBatchReport| report.results.iter().map(row).collect::<Vec<_>>();
        assert_eq!(rows(&got), rows(&want));
        assert_eq!(got.results[1].success().expect("ok").bytes(), b"retried", "last record wins");
        assert_eq!((got.summary.replayed, want.summary.replayed), (3, 3));
        assert_eq!((got.cpu_secs, got.summary.retries), (0.0, 0));
    }

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
}
