//! The worker half of the multi-process backend: claims jobs through
//! the shared journal's lease ledger, encodes them, commits records.
//!
//! A worker process is one [`WorkQueue`] participant with
//! `opts.threads` encoding threads. Claims are optimistic: append a
//! lease record, re-read, and keep the job only if that lease is the
//! current holder (first lease in file order wins — see
//! [`super::ledger`]). Publishing revalidates the lease and then
//! appends the job record with a single fsync'd write: the identical
//! commit point the in-process journal driver uses, so a dispatcher
//! crash or `--resume` recovers worker-committed jobs the same way.
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

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use super::io::{DurableFile, JournalIo};
use super::ledger::{self, LeaseId};
use super::{drain, ChainResult, Ticket, WorkQueue};
use crate::engine::Transcoder;
use crate::farm::EngineJob;
use crate::journal::record::{self, Record};
use crate::journal::{self, JournalError};
use crate::resilience::ResilienceConfig;
use vfault::{CrashPoint, FileClass};

/// How a worker process attaches to its dispatcher's journal.
#[derive(Clone, Debug)]
pub struct WorkerOptions {
    /// The shared journal file (must already hold the dispatcher's
    /// manifest).
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

/// The journal-backed [`WorkQueue`]: lease arbitration over the shared
/// file, fsync'd job records as publishes.
struct JournalQueue<'a> {
    io: &'a dyn JournalIo,
    path: PathBuf,
    writer: Mutex<Box<dyn DurableFile>>,
    jobs: &'a [EngineJob],
    policy: &'a ResilienceConfig,
    worker: u64,
    pid: u64,
    run: u32,
    nonce: AtomicU64,
    hb_seq: AtomicU64,
    completed: AtomicU64,
    io_error: Mutex<Option<std::io::Error>>,
}

impl JournalQueue<'_> {
    /// The ledger as the journal holds it right now.
    fn view(&self) -> Option<ledger::LedgerView> {
        let text = self.ok(record::read_text(self.io, &self.path))?;
        Some(ledger::replay_ledger(&text, self.jobs.len()))
    }

    fn append(&self, line: &str) -> bool {
        let wrote =
            record::append_ephemeral(self.writer.lock().expect("journal writer").as_mut(), line);
        self.ok(wrote).is_some()
    }

    /// Unwraps a journal IO result; the first error is kept for
    /// [`run_worker_with_io`] to return and stops further claims.
    fn ok<T>(&self, result: std::io::Result<T>) -> Option<T> {
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.io_error.lock().expect("io cell").get_or_insert(e);
                None
            }
        }
    }

    fn failed(&self) -> bool {
        self.io_error.lock().expect("io cell").is_some()
    }
}

impl WorkQueue for JournalQueue<'_> {
    fn claim(&self) -> Option<Ticket> {
        loop {
            if self.failed() {
                return None;
            }
            let view = self.view()?;
            if view.all_done() {
                return None;
            }
            let Some(job) = view.first_free() else {
                // Everything unfinished is leased elsewhere. A holder
                // may still die — its lease comes back via a dispatcher
                // expire — so poll rather than exit.
                std::thread::sleep(Duration::from_millis(25));
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
            let view = self.view()?;
            if view.holder(job) != Some(id) {
                // Lost the race (or the job committed meanwhile).
                continue;
            }
            vtrace::counter("exec.leases_granted", 1);
            if view.expired[job] {
                // This job came back from a dead worker's lease.
                vtrace::counter("exec.leases_reclaimed", 1);
            }
            if self.policy.fault_plan.decide_crash(job, self.run) == Some(CrashPoint::WorkerKill)
                && view.first_lease[job] == Some(id)
            {
                // Scripted worker loss: die with the lease dangling,
                // exactly like a SIGKILL between claim and publish.
                std::process::abort();
            }
            return Some(Ticket { job, started: Instant::now(), lease: Some(id) });
        }
    }

    fn publish(&self, ticket: Ticket, chain: ChainResult) -> bool {
        let job = ticket.job;
        let Some(view) = self.view() else { return false };
        // Revalidate before committing: the job must still be held by
        // the lease this ticket was won with, not a newer one granted
        // after an expiry. If the dispatcher expired ours (it believed
        // this process stuck or dead) the job may be re-leased or even
        // done — drop the result; whoever holds the job now produces
        // byte-identical output.
        if view.holder(job) != ticket.lease {
            return true;
        }
        let line =
            record::job_line(job, &self.jobs[job].name, &chain, Some((self.worker, self.run)));
        let wrote = record::commit_job(self.writer.lock().expect("journal writer").as_mut(), &line);
        if self.ok(wrote).is_none() {
            return false;
        }
        vtrace::counter("exec.jobs_completed", 1);
        self.completed.fetch_add(1, Ordering::Relaxed);
        true
    }

    fn heartbeat(&self) {
        let seq = self.hb_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let t_ms = std::time::SystemTime::now()
            .duration_since(std::time::SystemTime::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        if self.append(&record::hb_line(self.worker, seq, self.pid, t_ms)) {
            vtrace::counter("exec.heartbeats", 1);
        }
    }
}

/// Runs one worker process against a dispatcher's journal: validates
/// the manifest, then drains the lease ledger on `opts.threads` threads
/// (plus a heartbeat thread) until every job in the batch has a durable
/// record. Returns once the batch is globally complete — workers do not
/// know or care which process finished which job. All durable IO goes
/// through `io`: [`super::StdIo`] in production, a
/// [`super::FaultedIo`] to subject a live worker to torn writes, EIO,
/// and lying fsyncs (`vbench worker --io-fault-plan`).
///
/// # Errors
///
/// [`JournalError::ManifestMismatch`] when the journal belongs to a
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
    let fingerprint = journal::manifest_fingerprint(jobs, policy);
    let text = record::read_text(io, &opts.journal)
        .map_err(|e| journal::io_err("read journal for manifest", e))?;
    validate_manifest(&text, fingerprint)?;
    let file = io
        .open_append(FileClass::Journal, &opts.journal)
        .map_err(|e| journal::io_err("open journal for append", e))?;
    let queue = JournalQueue {
        io,
        path: opts.journal.clone(),
        writer: Mutex::new(file),
        jobs,
        policy,
        worker: opts.worker_id as u64,
        pid: u64::from(std::process::id()),
        run: opts.run,
        nonce: AtomicU64::new(0),
        hb_seq: AtomicU64::new(0),
        completed: AtomicU64::new(0),
        io_error: Mutex::new(None),
    };

    let mut span = vtrace::span("exec.worker");
    let done = AtomicBool::new(false);
    let threads = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !done.load(Ordering::Acquire) {
                queue.heartbeat();
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        let threads = drain(&queue, engine, jobs, opts.threads, policy);
        done.store(true, Ordering::Release);
        threads
    })
    .map_err(JournalError::Batch)?;
    if span.id().is_some() {
        span.record("worker", opts.worker_id);
        span.record("threads", threads);
        span.record("jobs", queue.completed.load(Ordering::Relaxed));
    }
    drop(span);

    match queue.io_error.into_inner().expect("io cell") {
        Some(source) => {
            Err(JournalError::Io { context: "worker journal access".to_string(), source })
        }
        None => Ok(()),
    }
}

/// Checks the journal's manifest against this worker's batch
/// fingerprint — the same identity rule `--resume` enforces (same
/// reader: a manifest of another version, or a malformed one, is not a
/// manifest), so a worker can never lease jobs from a journal its
/// dispatcher did not open for this exact batch.
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
                "journal has no usable manifest record",
            ),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let v2 = good.replace("\"version\":1", "\"version\":2");
        let bare = good.replace("\"fingerprint\":7,", "");
        for text in [v2, bare, record::run_line(0), String::new()] {
            match validate_manifest(&text, 0) {
                Err(JournalError::Io { source, .. }) => {
                    assert_eq!(source.kind(), std::io::ErrorKind::NotFound, "{text}")
                }
                other => panic!("{text:?} must not validate, got {other:?}"),
            }
        }
        // The first usable manifest decides, wherever it sits.
        let late = [&*good.replace("\"version\":1", "\"version\":2"), &*good].concat();
        assert!(validate_manifest(&late, 7).is_ok());
    }
}
