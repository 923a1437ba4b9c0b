//! The worker half of the multi-process backend: claims jobs through
//! the lease ledger beside the journal, encodes them, commits records.
//!
//! A worker process is one `WorkQueue` participant with
//! `opts.threads` encoding threads. It is handed the journal's path and
//! works with two files: the ledger (`<journal>.ledger`),
//! which it reads and appends coordination records to, and the journal,
//! which it only ever appends job records to — **a worker never reads
//! the journal**, so what a claim costs does not grow with the payloads
//! already committed. Claims are optimistic: pick the first free job in
//! the batch's [`claim_order`], append a lease record for it,
//! re-read the ledger, and keep the job only if that lease is the current
//! holder (first lease in file order wins — see [`super::ledger`]).
//! Publishing revalidates the lease, appends the job record to the
//! journal with a single fsync'd write — the identical commit point the
//! in-process journal driver uses, so a dispatcher crash or `--resume`
//! recovers worker-committed jobs the same way — and then appends a
//! `done` marker to the ledger. A worker that dies between the two leaves
//! its lease dangling; the dispatcher settles it from the journal when it
//! reaps the process.
//!
//! Workers never compact, never expire leases, and never decide a job
//! failed permanently on someone else's behalf — the dispatcher owns
//! lifecycle; a worker that loses its lease mid-encode simply drops its
//! (byte-identical, deterministic) result, exactly like a losing hedge
//! copy in the in-process backend.
//!
//! The scripted [`CrashPoint::WorkerKill`] fault hooks in right after a
//! won claim: if the plan kills this job in this run *and* ours is the
//! first lease the job ever had, the whole process dies on the spot
//! (`std::process::abort`), leaving the lease dangling for the
//! dispatcher to reap — the one-shot first-lease rule keeps the
//! respawned or surviving worker from re-firing it.
//!
//! Every view of the ledger — the pick, the arbitration re-read, the
//! revalidation in publish — reads the whole file and hands it to the one
//! `LedgerFold` the worker's threads share, which parses only the lines
//! appended since its last read.
//!
//! A lock that a panicking thread poisoned does not panic the threads
//! that come after it: the shared fold refolds from empty, the IO-error
//! cell still holds the first error, and a writer whose append panicked
//! midway stops the worker with a typed [`JournalError::Io`] (what that
//! append left on disk is unknown).
//!
//! Telemetry, besides the counters [`super`] lists: `exec.ledger.reads`
//! and `exec.ledger.read_bytes` (every ledger re-read of the claim /
//! publish path), `exec.ledger.lines_folded` (the lines those re-reads
//! parsed) and `exec.leases_lost` (claims whose arbitration re-read
//! showed another holder).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::Thread;
use std::time::Duration;

use super::clock::{Clock, WallClock};
use super::io::{DurableFile, JournalIo};
use super::ledger::{self, LeaseId, LedgerFold, LedgerView};
use super::{claim_order, drain, ChainResult, Ticket, WorkQueue};
use crate::engine::Transcoder;
use crate::farm::EngineJob;
use crate::journal::record::{self, DoneMark, Record};
use crate::journal::{self, JournalError};
use crate::resilience::ResilienceConfig;
use vfault::{CrashPoint, FileClass};

/// Heartbeat cadence (the dispatcher's stall detector allows many of
/// these to go missing before it acts).
const HEARTBEAT_EVERY: Duration = Duration::from_millis(100);

/// How a worker process attaches to its dispatcher's journal.
#[derive(Clone, Debug)]
pub struct WorkerOptions {
    /// The shared journal file. The dispatcher must already have started
    /// this run's ledger beside it; the worker validates the manifest
    /// copy in that ledger.
    pub journal: PathBuf,
    /// This worker's dispatcher-assigned id (tagged into leases,
    /// heartbeats, and job records).
    pub worker_id: usize,
    /// The dispatcher's journal run index — workers tag their records
    /// with it and key scripted faults on it, exactly like the
    /// in-process driver.
    pub run: u32,
    /// Encoding threads in this process.
    pub threads: usize,
}

/// The journal-backed [`WorkQueue`]: lease arbitration over the ledger
/// file, fsync'd job records in the journal as publishes.
struct JournalQueue<'a> {
    io: &'a dyn JournalIo,
    clock: &'a dyn Clock,
    ledger_path: PathBuf,
    /// The ledger as last read, shared by every view of this process.
    fold: Mutex<LedgerFold>,
    /// Lease, heartbeat and done records.
    ledger: Mutex<Box<dyn DurableFile>>,
    /// Job records — append-only here, never read.
    journal: Mutex<Box<dyn DurableFile>>,
    jobs: &'a [EngineJob],
    /// The batch's [`claim_order`]: every worker computes the same one
    /// from the same job list.
    order: Vec<usize>,
    policy: &'a ResilienceConfig,
    worker: u64,
    pid: u64,
    run: u32,
    nonce: AtomicU64,
    hb_seq: AtomicU64,
    completed: AtomicU64,
    io_error: Mutex<Option<std::io::Error>>,
}

impl<'a> JournalQueue<'a> {
    /// Attaches to the ledger beside `opts.journal` after checking its
    /// manifest against this worker's batch, and opens both append
    /// handles.
    fn open(
        jobs: &'a [EngineJob],
        policy: &'a ResilienceConfig,
        opts: &WorkerOptions,
        io: &'a dyn JournalIo,
        clock: &'a dyn Clock,
    ) -> Result<JournalQueue<'a>, JournalError> {
        let fingerprint = journal::manifest_fingerprint(jobs, policy);
        let ledger_path = ledger::ledger_path(&opts.journal);
        let text = record::read_text(io, &ledger_path)
            .map_err(|e| journal::io_err("read ledger for manifest", e))?;
        validate_manifest(&text, fingerprint)?;
        let open = |path: &Path, context| {
            io.open_append(FileClass::Journal, path).map_err(|e| journal::io_err(context, e))
        };
        Ok(JournalQueue {
            io,
            clock,
            fold: Mutex::new(LedgerFold::new(jobs.len())),
            ledger: Mutex::new(open(&ledger_path, "open ledger for append")?),
            journal: Mutex::new(open(&opts.journal, "open journal for append")?),
            ledger_path,
            jobs,
            order: claim_order(jobs),
            policy,
            worker: opts.worker_id as u64,
            pid: u64::from(std::process::id()),
            run: opts.run,
            nonce: AtomicU64::new(0),
            hb_seq: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            io_error: Mutex::new(None),
        })
    }

    /// Drains the batch on `opts.threads` threads plus a heartbeat
    /// thread; returns the first IO error any of them kept.
    fn run(&self, engine: &dyn Transcoder, opts: &WorkerOptions) -> Result<(), JournalError> {
        let mut span = vtrace::span("exec.worker");
        let done = AtomicBool::new(false);
        let threads = std::thread::scope(|scope| {
            let heartbeats = scope.spawn(|| {
                // The first heartbeat does not wait for the stop flag: a
                // drain that ends before this thread first runs still
                // leaves one in the ledger.
                let mut first = true;
                while std::mem::take(&mut first) || !done.load(Ordering::Acquire) {
                    self.heartbeat();
                    // An unpark that lands before this park makes it
                    // return at once, so the stop can never be slept
                    // through.
                    self.clock.wait(HEARTBEAT_EVERY);
                }
            });
            let _stop = StopHeartbeat { done: &done, thread: heartbeats.thread() };
            drain(self, engine, self.jobs, opts.threads, self.policy, self.clock)
        })
        .map_err(JournalError::Batch)?;
        if span.id().is_some() {
            span.record("worker", opts.worker_id);
            span.record("threads", threads);
            span.record("jobs", self.completed.load(Ordering::Relaxed));
        }
        drop(span);
        match self.io_error().take() {
            Some(source) => {
                Err(JournalError::Io { context: "worker journal access".to_string(), source })
            }
            None => Ok(()),
        }
    }

    /// Reads the ledger as its file holds it right now and answers `ask`
    /// from the shared fold brought up to it. The read happens under the
    /// fold's lock, so the fold only ever sees the file grow.
    fn view<R>(&self, ask: impl FnOnce(&LedgerView) -> R) -> Option<R> {
        let mut fold = self.fold.lock().unwrap_or_else(|poisoned| {
            // A thread panicked mid-fold and may have left the view half
            // applied: start over from the file.
            self.fold.clear_poison();
            let mut fold = poisoned.into_inner();
            *fold = LedgerFold::new(self.jobs.len());
            fold
        });
        let text = self.ok(record::read_text(self.io, &self.ledger_path))?;
        vtrace::counter("exec.ledger.reads", 1);
        vtrace::counter("exec.ledger.read_bytes", text.len() as u64);
        Some(ask(fold.update(&text)))
    }

    /// Appends one coordination record to the ledger.
    fn append(&self, line: &str) -> bool {
        self.write(&self.ledger, |file| record::append_ephemeral(file, line))
    }

    /// Runs `op` on the file behind `writer`. A thread that panicked
    /// holding the writer stopped mid-append and left bytes nobody can
    /// account for, so a poisoned writer fails like an IO error: the
    /// worker stops claiming and returns it.
    fn write(
        &self,
        writer: &Mutex<Box<dyn DurableFile>>,
        op: impl FnOnce(&mut dyn DurableFile) -> std::io::Result<()>,
    ) -> bool {
        let wrote = match writer.lock() {
            Ok(mut file) => op(file.as_mut()),
            Err(_) => {
                Err(std::io::Error::other("an append panicked midway; the file tail is unknown"))
            }
        };
        self.ok(wrote).is_some()
    }

    /// Unwraps a journal IO result; the first error is kept for
    /// [`JournalQueue::run`] to return and stops further claims.
    fn ok<T>(&self, result: std::io::Result<T>) -> Option<T> {
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.io_error().get_or_insert(e);
                None
            }
        }
    }

    fn failed(&self) -> bool {
        self.io_error().is_some()
    }

    /// The first IO error. Storing it cannot panic, so a poisoned cell
    /// still holds the truth.
    fn io_error(&self) -> MutexGuard<'_, Option<std::io::Error>> {
        self.io_error.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl WorkQueue for JournalQueue<'_> {
    fn claim(&self) -> Option<Ticket> {
        loop {
            if self.failed() {
                return None;
            }
            let (all_done, free) =
                self.view(|view| (view.all_done(), view.first_free(&self.order)))?;
            if all_done {
                return None;
            }
            let Some(job) = free else {
                // Everything unfinished is leased elsewhere. A holder
                // may still die — its lease comes back via a dispatcher
                // expire — so poll rather than exit.
                self.clock.wait(Duration::from_millis(25));
                continue;
            };
            let id = LeaseId {
                worker: self.worker,
                nonce: self.nonce.fetch_add(1, Ordering::Relaxed),
                pid: self.pid,
            };
            if !self.append(&record::lease_line(job, id)) {
                return None;
            }
            // Re-read to arbitrate: the file's total order decides.
            let (holder, expired, first_lease) =
                self.view(|view| (view.holder(job), view.expired[job], view.first_lease[job]))?;
            if holder != Some(id) {
                // Lost the race (or the job committed meanwhile).
                vtrace::counter("exec.leases_lost", 1);
                continue;
            }
            vtrace::counter("exec.leases_granted", 1);
            if expired {
                // This job came back from a dead worker's lease.
                vtrace::counter("exec.leases_reclaimed", 1);
            }
            if self.policy.fault_plan.decide_crash(job, self.run) == Some(CrashPoint::WorkerKill)
                && first_lease == Some(id)
            {
                // Scripted worker loss: die with the lease dangling,
                // exactly like a SIGKILL between claim and publish.
                std::process::abort();
            }
            return Some(Ticket { job, started: self.clock.now(), lease: Some(id) });
        }
    }

    fn publish(&self, ticket: Ticket, chain: ChainResult) -> bool {
        let job = ticket.job;
        let Some(holder) = self.view(|view| view.holder(job)) else { return false };
        // Revalidate before committing: the job must still be held by
        // the lease this ticket was won with, not a newer one granted
        // after an expiry. If the dispatcher expired ours (it believed
        // this process stuck or dead) the job may be re-leased or even
        // done — drop the result; whoever holds the job now produces
        // byte-identical output.
        if holder != ticket.lease {
            return true;
        }
        let line =
            record::job_line(job, &self.jobs[job].name, &chain, Some((self.worker, self.run)));
        if !self.write(&self.journal, |file| record::commit_job(file, &line, self.clock)) {
            return false;
        }
        vtrace::counter("exec.jobs_completed", 1);
        self.completed.fetch_add(1, Ordering::Relaxed);
        // The record is durable; now tell the ledger's readers. Dying
        // between the two leaves the lease dangling over a committed job,
        // which the dispatcher settles from the journal at the reap.
        let mark = DoneMark {
            job,
            worker: Some(self.worker),
            ok: chain.outcome.is_ok(),
            attempts: chain.attempts,
        };
        self.append(&record::done_line(mark))
    }

    fn heartbeat(&self) {
        let seq = self.hb_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let t_ms = self.clock.unix_ms();
        if self.append(&record::hb_line(self.worker, seq, self.pid, t_ms)) {
            vtrace::counter("exec.heartbeats", 1);
        }
    }
}

/// Sets a heartbeat thread's stop flag and wakes it, on drop: the drain
/// ending by unwinding (a panicking queue or IO layer) must stop the
/// heartbeats exactly like the drain returning, or the scope below would
/// join a thread that never ends while the dispatcher sees a live worker.
struct StopHeartbeat<'a> {
    done: &'a AtomicBool,
    thread: &'a Thread,
}

impl Drop for StopHeartbeat<'_> {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Release);
        self.thread.unpark();
    }
}

/// Runs one worker process against a dispatcher's journal: validates
/// the manifest copy in the ledger, then drains the lease ledger on
/// `opts.threads` threads (plus a heartbeat thread) until every job in
/// the batch has a durable record. Returns once the batch is globally
/// complete — workers do not know or care which process finished which
/// job. All durable IO goes through `io`: [`super::StdIo`] in production, a
/// [`super::FaultedIo`] to subject a live worker to torn writes, EIO,
/// and lying fsyncs (`vbench worker --io-fault-plan`).
///
/// # Errors
///
/// [`JournalError::ManifestMismatch`] when the ledger belongs to a
/// different batch than the jobs this worker was given,
/// [`JournalError::Io`] on filesystem failures, and
/// [`JournalError::Batch`] for zero threads.
pub fn run_worker_with_io(
    engine: &dyn Transcoder,
    jobs: &[EngineJob],
    policy: &ResilienceConfig,
    opts: &WorkerOptions,
    io: &dyn JournalIo,
) -> Result<(), JournalError> {
    JournalQueue::open(jobs, policy, opts, io, &WallClock)?.run(engine, opts)
}

/// Checks the manifest the dispatcher copied into the ledger against
/// this worker's batch fingerprint — the same identity rule `--resume`
/// enforces (same reader: a manifest of another version, or a malformed
/// one, is not a manifest), so a worker can never lease jobs from a
/// ledger its dispatcher did not start for this exact batch.
fn validate_manifest(text: &str, expected: u32) -> Result<(), JournalError> {
    match record::records(text).next() {
        Some(Record::Manifest { fingerprint, .. }) if fingerprint == expected => Ok(()),
        Some(Record::Manifest { fingerprint: found, .. }) => {
            Err(JournalError::ManifestMismatch { expected, found })
        }
        _ => Err(journal::io_err(
            "find manifest",
            std::io::Error::new(
                std::io::ErrorKind::NotFound,
                "ledger has no usable manifest record",
            ),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{TranscodeError, TranscodeOutcome, TranscodeRequest};
    use crate::exec::{dispatch, StdIo};
    use crate::journal::record::testing::{jobs, TempJournal};
    use crate::journal::JournalConfig;
    use std::sync::Arc;

    /// Every operation through the seam: `(op, path, bytes)`.
    type OpLog = Arc<Mutex<Vec<(&'static str, PathBuf, usize)>>>;

    /// A [`JournalIo`] over [`StdIo`] that logs every operation. A read
    /// is logged with its bytes *less heartbeat lines*: when a heartbeat
    /// lands relative to a claim is a race, everything else a one-thread
    /// worker reads is a function of the job list. The read after
    /// `panic_after_reads` earlier ones panics instead.
    #[derive(Default)]
    struct TallyIo {
        log: OpLog,
        panic_after_reads: Option<usize>,
    }

    struct TallyFile(Box<dyn DurableFile>, PathBuf, OpLog);

    impl TallyIo {
        fn note(&self, op: &'static str, path: &Path, bytes: usize) {
            self.log.lock().unwrap().push((op, path.to_path_buf(), bytes));
        }

        /// `(calls, bytes)` of `op`, on `path` or on every path.
        fn total(&self, op: &str, path: Option<&Path>) -> (usize, usize) {
            let log = self.log.lock().unwrap();
            let hits = log.iter().filter(|(o, p, _)| *o == op && path.is_none_or(|q| q == p));
            hits.fold((0, 0), |(calls, bytes), (_, _, n)| (calls + 1, bytes + n))
        }
    }

    impl JournalIo for TallyIo {
        fn create(&self, class: FileClass, path: &Path) -> std::io::Result<Box<dyn DurableFile>> {
            self.note("create", path, 0);
            let file = StdIo.create(class, path)?;
            Ok(Box::new(TallyFile(file, path.to_path_buf(), Arc::clone(&self.log))))
        }

        fn open_append(
            &self,
            class: FileClass,
            path: &Path,
        ) -> std::io::Result<Box<dyn DurableFile>> {
            let file = StdIo.open_append(class, path)?;
            Ok(Box::new(TallyFile(file, path.to_path_buf(), Arc::clone(&self.log))))
        }

        fn read(&self, class: FileClass, path: &Path) -> std::io::Result<Vec<u8>> {
            let earlier = self.total("read", None).0;
            assert!(self.panic_after_reads != Some(earlier), "scripted panic in read {earlier}");
            let bytes = StdIo.read(class, path)?;
            let heartbeats: usize = bytes
                .split_inclusive(|b| *b == b'\n')
                .filter(|line| line.starts_with(b"{\"kind\":\"hb\""))
                .map(<[u8]>::len)
                .sum();
            self.note("read", path, bytes.len() - heartbeats);
            Ok(bytes)
        }

        fn rename(&self, class: FileClass, from: &Path, to: &Path) -> std::io::Result<()> {
            self.note("rename", to, 0);
            StdIo.rename(class, from, to)
        }

        fn sync_parent_dir(&self, path: &Path) -> std::io::Result<()> {
            StdIo.sync_parent_dir(path)
        }
    }

    impl DurableFile for TallyFile {
        fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
            self.2.lock().unwrap().push(("append", self.1.clone(), bytes.len()));
            self.0.append(bytes)
        }

        fn sync(&mut self) -> std::io::Result<()> {
            self.0.sync()
        }
    }

    /// Answers every call with `self.0` bytes of bitstream, doing no
    /// encode work.
    struct Canned(usize);

    impl Transcoder for Canned {
        fn transcode(
            &self,
            src: &vframe::Video,
            _req: &TranscodeRequest,
        ) -> Result<TranscodeOutcome, TranscodeError> {
            let bytes = vec![0xab; self.0];
            let stats = vcodec::EncodeStats {
                bitstream_bytes: bytes.len() as u64,
                frames: 1,
                ..Default::default()
            };
            Ok(TranscodeOutcome {
                output: vcodec::EncodeOutput { bytes, stats, recon: src.clone(), first_pass: None },
                measurement: crate::measure::Measurement::try_new(1.0, 1.0, 40.0)?,
                timings: Default::default(),
                chosen_bps: None,
            })
        }
    }

    const NAMES: [&str; 6] = ["a", "b", "c", "d", "e", "f"];

    /// A dispatch without the processes: the dispatcher's open, then one
    /// single-threaded worker drains the batch in this process through
    /// `io`.
    fn dispatch_in_process(temp: &TempJournal, payload: usize, io: &dyn JournalIo) {
        let (jobs, policy) = (jobs(&NAMES), ResilienceConfig::default());
        drop(
            dispatch::open(&jobs, &policy, &JournalConfig::new(temp.path()), &StdIo).expect("open"),
        );
        let opts =
            WorkerOptions { journal: temp.path().to_path_buf(), worker_id: 0, run: 0, threads: 1 };
        run_worker_with_io(&Canned(payload), &jobs, &policy, &opts, io).expect("worker drains");
    }

    /// The point of the ledger file: a worker never reads the journal,
    /// and what it does read does not depend on how big the payloads are.
    #[test]
    fn a_worker_reads_the_ledger_only_and_the_same_bytes_at_any_payload_size() {
        let mut read_bytes = Vec::new();
        for payload in [1 << 10, 64 << 10] {
            let temp = TempJournal::new("read-amp");
            let io = TallyIo::default();
            dispatch_in_process(&temp, payload, &io);

            assert_eq!(io.total("read", Some(temp.path())), (0, 0), "journal reads");
            let ledger = ledger::ledger_path(temp.path());
            let (reads, bytes) = io.total("read", Some(&ledger));
            // Manifest check, three views per job, the view that finds
            // the batch drained.
            assert_eq!(reads, 1 + 3 * NAMES.len() + 1);
            assert_eq!(io.total("read", None), (reads, bytes), "reads of any other file");
            read_bytes.push(bytes);

            let journal = std::fs::read_to_string(temp.path()).expect("journal");
            assert!(journal.len() > NAMES.len() * payload * 4 / 3, "payloads are in the journal");
            let kinds = |text: &str| -> Vec<String> {
                let kind = |line| match vtrace::json::parse(line).expect("whole lines").get("kind")
                {
                    Some(vtrace::json::Value::String(kind)) => kind.clone(),
                    other => panic!("record without a kind: {other:?}"),
                };
                text.lines().map(kind).collect()
            };
            let mut want = vec!["manifest", "run"];
            want.extend([&"job"; NAMES.len()]);
            assert_eq!(kinds(&journal), want, "the journal holds no coordination record");
            let ledger_kinds = kinds(&std::fs::read_to_string(&ledger).expect("ledger"));
            for (kind, count) in [("manifest", 1), ("run", 1), ("lease", 6), ("done", 6)] {
                assert_eq!(ledger_kinds.iter().filter(|k| *k == kind).count(), count, "{kind}");
            }
            assert!(ledger_kinds.iter().any(|k| k == "hb"));
            assert!(!ledger_kinds.iter().any(|k| k == "job"));
        }
        assert_eq!(read_bytes[0], read_bytes[1], "read bytes at 1 KiB and 64 KiB payloads");
        assert!(read_bytes[0] < 16 << 10, "{} bytes for six jobs", read_bytes[0]);
    }

    /// Each view folds only what was appended since the previous one:
    /// over a 64-job drain — a pick, an arbitration re-read and a
    /// revalidation per job, every one a whole-file read — the worker
    /// parses each ledger line once. A refold per view would parse
    /// thousands.
    #[test]
    fn a_worker_parses_each_ledger_line_once() {
        let names: Vec<String> = (0..64).map(|i| format!("job{i}")).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let (jobs, policy) = (jobs(&names), ResilienceConfig::default());
        let temp = TempJournal::new("fold-once");
        drop(
            dispatch::open(&jobs, &policy, &JournalConfig::new(temp.path()), &StdIo).expect("open"),
        );
        let opts =
            WorkerOptions { journal: temp.path().to_path_buf(), worker_id: 0, run: 0, threads: 1 };
        // One drain thread: the caller's, so its folds count here.
        let io = TallyIo::default();
        let (ran, parsed) =
            ledger::lines_folded(|| run_worker_with_io(&Canned(64), &jobs, &policy, &opts, &io));
        ran.expect("worker drains");

        let ledger = ledger::ledger_path(temp.path());
        assert_eq!(io.total("read", Some(&ledger)).0, 1 + 3 * names.len() + 1, "views");
        let text = std::fs::read_to_string(&ledger).expect("ledger");
        // The last view found every job done, so it read through the
        // last `done`; only heartbeats can have landed after it.
        let last_done = text.rfind("{\"kind\":\"done\"").expect("a done");
        let through_last_done = text[..last_done].lines().count() + 1;
        assert!(
            (through_last_done..=text.lines().count()).contains(&parsed),
            "{parsed} lines parsed, {through_last_done} through the last done, {} in all",
            text.lines().count()
        );
    }

    /// Poisons `lock` the way a thread that panics holding it does.
    fn poison<T>(lock: &Mutex<T>) {
        let held = std::panic::AssertUnwindSafe(|| {
            let _held = lock.lock();
            panic!("scripted panic holding a worker lock");
        });
        assert!(std::panic::catch_unwind(held).is_err());
        assert!(lock.is_poisoned());
    }

    /// Attaches a one-thread worker to a fresh dispatch of [`NAMES`],
    /// lets `prepare` tamper with its queue, drains it, and returns the
    /// outcome with the job lines the journal and the `done` lines the
    /// ledger then hold.
    fn drain_after(
        prepare: impl FnOnce(&JournalQueue),
    ) -> (Result<(), JournalError>, usize, usize) {
        let temp = TempJournal::new("poison");
        let (jobs, policy) = (jobs(&NAMES), ResilienceConfig::default());
        drop(
            dispatch::open(&jobs, &policy, &JournalConfig::new(temp.path()), &StdIo).expect("open"),
        );
        let opts =
            WorkerOptions { journal: temp.path().to_path_buf(), worker_id: 0, run: 0, threads: 1 };
        let queue = JournalQueue::open(&jobs, &policy, &opts, &StdIo, &WallClock).expect("attach");
        prepare(&queue);
        let ran = queue.run(&Canned(64), &opts);
        let count = |path: &Path, kind: &str| {
            let text = std::fs::read_to_string(path).expect("read");
            text.matches(&format!("{{\"kind\":\"{kind}\"")).count()
        };
        (ran, count(temp.path(), "job"), count(&ledger::ledger_path(temp.path()), "done"))
    }

    /// A panic mid-append leaves the ledger's tail unknown: the next
    /// thread to append stops the worker with a typed error instead of
    /// panicking in turn.
    #[test]
    fn a_poisoned_ledger_writer_stops_the_worker_with_a_typed_error() {
        let (ran, records, dones) = drain_after(|queue| poison(&queue.ledger));
        assert!(matches!(ran, Err(JournalError::Io { .. })), "{ran:?}");
        assert_eq!((records, dones), (0, 0), "no lease could be appended, so nothing ran");
    }

    /// The same for the journal: the first publish fails typed, so no
    /// record lands after bytes nobody can account for.
    #[test]
    fn a_poisoned_journal_writer_stops_the_worker_with_a_typed_error() {
        let (ran, records, dones) = drain_after(|queue| poison(&queue.journal));
        match ran {
            Err(JournalError::Io { source, .. }) => {
                assert!(source.to_string().contains("panicked midway"), "{source}")
            }
            other => panic!("expected a typed IO error, got {other:?}"),
        }
        assert_eq!((records, dones), (0, 0));
    }

    /// The IO-error cell only ever stores an error, so a poisoned one
    /// still holds the truth: empty, the worker carries on; holding an
    /// error, the worker stops and returns that error.
    #[test]
    fn a_poisoned_io_cell_keeps_its_error() {
        let (ran, records, dones) = drain_after(|queue| poison(&queue.io_error));
        assert!(ran.is_ok(), "{ran:?}");
        assert_eq!((records, dones), (NAMES.len(), NAMES.len()));

        let (ran, records, _) = drain_after(|queue| {
            queue.ok::<()>(Err(std::io::Error::other("kept across the poison")));
            poison(&queue.io_error);
        });
        match ran {
            Err(JournalError::Io { source, .. }) => {
                assert_eq!(source.to_string(), "kept across the poison")
            }
            other => panic!("expected the kept error, got {other:?}"),
        }
        assert_eq!(records, 0);
    }

    /// A panic mid-fold may leave the shared view half applied: the next
    /// view refolds the file from empty. Here the poisoned fold claims
    /// every job done; trusting it would end the drain with nothing run.
    #[test]
    fn a_poisoned_fold_refolds_from_empty() {
        let (ran, records, dones) = drain_after(|queue| {
            let fp = journal::manifest_fingerprint(queue.jobs, queue.policy);
            let done =
                |job| record::done_line(DoneMark { job, worker: None, ok: true, attempts: 1 });
            let mut forged = record::manifest_line(fp, NAMES.len());
            forged.extend((0..NAMES.len()).map(done));
            // Pad the real ledger past the forged text, so only the
            // poison, not a shorter file, can trigger the refold.
            for seq in 0..forged.len() / 40 {
                assert!(queue.append(&record::hb_line(99, seq as u64, 1, 0)));
            }
            let held = std::panic::AssertUnwindSafe(|| {
                let mut fold = queue.fold.lock().unwrap();
                assert!(fold.update(&forged).all_done());
                panic!("scripted panic mid-fold");
            });
            assert!(std::panic::catch_unwind(held).is_err());
        });
        assert!(ran.is_ok(), "{ran:?}");
        assert_eq!((records, dones), (NAMES.len(), NAMES.len()), "every job ran after the refold");
    }

    /// A cleanly finished dispatch leaves nothing in the journal for a
    /// resume to scrub: no compaction, only the new run record — and the
    /// new run's ledger starts with every job done.
    #[test]
    fn resuming_a_finished_dispatch_rewrites_nothing() {
        let temp = TempJournal::new("no-rewrite");
        dispatch_in_process(&temp, 4 << 10, &StdIo);
        let before = std::fs::read(temp.path()).expect("journal");

        let (jobs, policy) = (jobs(&NAMES), ResilienceConfig::default());
        let io = TallyIo::default();
        let config = JournalConfig::new(temp.path()).with_resume(true);
        let (run, _ledger, _) = dispatch::open(&jobs, &policy, &config, &io).expect("resume");
        assert_eq!(run, 1);

        let ledger = ledger::ledger_path(temp.path());
        assert_eq!(io.total("create", Some(temp.path())).0, 0, "journal re-created");
        assert_eq!(io.total("create", None).0, 1, "only the ledger is created");
        assert_eq!(io.total("rename", None).0, 0, "compaction ran");
        assert_eq!(io.total("read", None), (1, before.len()), "one resume scan");
        let run_line = record::run_line(1);
        assert_eq!(io.total("append", Some(temp.path())), (1, run_line.len()));
        let after = std::fs::read(temp.path()).expect("journal");
        assert_eq!(after, [&before[..], run_line.as_bytes()].concat());

        let view =
            ledger::replay_ledger(&std::fs::read_to_string(&ledger).expect("ledger"), jobs.len());
        assert!(view.all_done(), "every replayed job is seeded done");
        assert!(view.workers.is_empty() && view.retries == 0, "replays belong to no worker");
    }

    /// A drain that ends by unwinding must stop the heartbeat thread too:
    /// otherwise the worker hangs in the scope's join, heartbeating, and
    /// its dispatcher never sees it stall.
    #[test]
    fn a_panicking_drain_does_not_leave_the_worker_heartbeating_forever() {
        let temp = TempJournal::new("hb-hang");
        let path = temp.path().to_path_buf();
        let (finished, outcome) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let (jobs, policy) = (jobs(&NAMES), ResilienceConfig::default());
            drop(dispatch::open(&jobs, &policy, &JournalConfig::new(&path), &StdIo).expect("open"));
            let opts = WorkerOptions { journal: path, worker_id: 0, run: 0, threads: 2 };
            // Read 0 is the manifest check; read 1 is the first claim's,
            // on a drain thread.
            let io = TallyIo { panic_after_reads: Some(1), ..Default::default() };
            let run = std::panic::AssertUnwindSafe(|| {
                run_worker_with_io(&Canned(64), &jobs, &policy, &opts, &io).is_ok()
            });
            let _ = finished.send(std::panic::catch_unwind(run));
        });
        let outcome = outcome
            .recv_timeout(Duration::from_secs(30))
            .expect("the worker returned or propagated the panic");
        assert!(outcome.is_err(), "the drain's panic propagates to the caller");
    }

    /// A worker reads the manifest exactly like `--resume` does.
    #[test]
    fn manifest_check_matches_resume() {
        let good = record::manifest_line(7, 3);
        assert!(validate_manifest(&good, 7).is_ok());
        assert!(matches!(
            validate_manifest(&good, 8),
            Err(JournalError::ManifestMismatch { expected: 8, found: 7 })
        ));
        // Another format version, or no fingerprint, is no manifest at
        // all — not a mismatch against fingerprint 0.
        let future = record::testing::unknown_version(&good);
        let bare = good.replace("\"fingerprint\":7,", "");
        for text in [future, bare, record::run_line(0), String::new()] {
            match validate_manifest(&text, 0) {
                Err(JournalError::Io { source, .. }) => {
                    assert_eq!(source.kind(), std::io::ErrorKind::NotFound, "{text}")
                }
                other => panic!("{text:?} must not validate, got {other:?}"),
            }
        }
        // The first usable manifest decides, wherever it sits.
        let late = [&*record::testing::unknown_version(&good), &*good].concat();
        assert!(validate_manifest(&late, 7).is_ok());
    }
}
