//! Crash-consistent durability journal for batch execution.
//!
//! A transcode batch is long-running cloud work: a killed process (OOM,
//! preemption, instance loss) must not forfeit the encodes that already
//! finished. This module wraps the farm scheduler in a write-ahead
//! journal — one JSONL file that records the batch *manifest* (a
//! fingerprint of the jobs, engine requests, and resilience policy,
//! fault plan included) followed by one fsync'd record per completed or
//! failed job, each carrying the [`vpack::crc32`] of its output
//! bitstream. The on-disk format — record kinds, fields, and the rules
//! that make a line a committed record — is owned by `journal::record` and
//! tabulated in DESIGN.md §Durability ("Record format"); this
//! module keeps the commit-point contract and the open/scan/compact
//! lifecycle.
//!
//! On restart with [`JournalConfig::resume`],
//! [`run_batch_journaled_with_io`] replays the journal instead of
//! re-encoding:
//!
//! * a job with a valid record is loaded back with zero attempts — as a
//!   [`crate::engine::StreamOutcome`] carrying the journaled bitstream,
//!   measurement, timings and stats (successes) or as
//!   [`crate::farm::JobError::ReplayedFailure`] (failures). The
//!   bitstream is CRC-verified on load and byte-identical to the
//!   original encode, and zero encode work runs for it;
//! * a torn trailing line (the process died mid-append) or interleaved
//!   garbage is *quarantined*: dropped, counted, and compacted away —
//!   resume never crashes on a corrupt journal, it re-encodes exactly
//!   the jobs whose records did not survive;
//! * a manifest that does not match the offered batch (different jobs,
//!   config, or fault-plan seed) is the typed
//!   [`JournalError::ManifestMismatch`] — never silent reuse of another
//!   batch's outputs.
//!
//! Crash-consistency contract: a job's journal record is its commit
//! point. The record is appended and `fdatasync`'d *before* the job is
//! published to the batch (the in-process queue commits under the
//! job's slot lock), so any journal state a crash can leave behind is
//! either "record durable" (job replays) or "record absent/torn" (job
//! re-encodes). Both resumes converge on the same byte-identical
//! outputs because encodes are deterministic functions of
//! `(source, request, degradation)`.
//!
//! Scripted crashes ([`vfault::CrashPoint`]) make that contract
//! testable in-process at any worker count: the in-process queue
//! consults [`vfault::FaultPlan::decide_crash`] with the journal's *run
//! index* (the count of prior invocations recorded in the file), aborts
//! at the scripted point, and — because resume increments the run index
//! — the same plan does not re-fire on the next run.
//!
//! Multi-process execution ([`crate::exec::dispatch`]) shares this
//! exact file and commit point: worker processes commit the same
//! fsync'd job records, so worker-loss recovery and `--resume` are one
//! code path. Their coordination state — lease / expire / heartbeat /
//! done records — lives in a sibling ledger file
//! ([`crate::exec::ledger`]), never here, so a cleanly finished dispatch
//! journal resumes without a rewrite. A journal written before that
//! split may still hold lease / expire / heartbeat lines: resume scans
//! skip them and compaction scrubs them.
//!
//! Every durable byte goes through the [`crate::exec::io::JournalIo`]
//! seam — appends retried on transient EIO with capped backoff (never
//! a failed fsync; see the fsync-gate rule there), compaction written
//! to a uniquely-named temp, synced, renamed, and dir-synced — so the
//! storage fault layer ([`crate::exec::FaultedIo`]) and the `vbench
//! chaos` auditor can prove this module's recovery claims under torn
//! writes, ENOSPC, lying fsyncs, and power cuts.
//!
//! Telemetry: `journal.records_written`, `journal.records_replayed`,
//! and `journal.records_quarantined` counters, a `journal.io_retries`
//! counter over transient append retries, plus a `journal.fsync_us`
//! histogram over the per-record fsync latency.

use std::borrow::Cow;
use std::ops::Range;
use std::path::{Path, PathBuf};

pub(crate) mod record;

use crate::engine::Transcoder;
use crate::exec::clock::WallClock;
use crate::exec::io::{append_retrying, remove_stale_temps, unique_temp, DurableFile, JournalIo};
use crate::exec::local::run_engine_batch;
use crate::exec::ChainResult;
use crate::farm::{BatchError, EngineBatchReport, EngineJob, JobSource};
use crate::resilience::ResilienceConfig;
use record::Record;
use vfault::{CrashPoint, FileClass};

/// Where the journal lives and whether to replay it.
#[derive(Clone, Debug)]
pub struct JournalConfig {
    /// The JSONL journal file. Created (or truncated) on a fresh run.
    pub path: PathBuf,
    /// Replay an existing journal instead of starting over: completed
    /// jobs load from their records, everything else re-encodes.
    pub resume: bool,
}

impl JournalConfig {
    /// A fresh-run configuration (no resume).
    pub fn new(path: impl Into<PathBuf>) -> JournalConfig {
        JournalConfig { path: path.into(), resume: false }
    }

    /// Sets the resume flag.
    pub fn with_resume(mut self, resume: bool) -> JournalConfig {
        self.resume = resume;
        self
    }
}

/// Why a journaled batch could not produce a report.
#[derive(Debug)]
pub enum JournalError {
    /// The journal file could not be read, written, or synced.
    Io {
        /// What the driver was doing.
        context: String,
        /// The underlying filesystem error.
        source: std::io::Error,
    },
    /// The journal on disk was written by a different batch: its
    /// manifest fingerprint does not match the offered jobs + policy.
    /// Resuming would silently serve another batch's outputs, so this
    /// is fatal; re-run without `--resume` to start over.
    ManifestMismatch {
        /// The fingerprint of the offered batch.
        expected: u32,
        /// The fingerprint recorded in the journal.
        found: u32,
    },
    /// A scripted [`vfault::CrashPoint`] fault aborted the run — the
    /// in-process stand-in for the process dying. The journal is left
    /// exactly as a real crash at that point would leave it; resume
    /// with the same plan to continue.
    Crashed {
        /// The job whose crash fault fired.
        job: usize,
        /// Where in the pipeline it fired.
        point: CrashPoint,
    },
    /// The underlying batch could not run (e.g. zero workers).
    Batch(BatchError),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { context, source } => write!(f, "journal {context}: {source}"),
            JournalError::ManifestMismatch { expected, found } => write!(
                f,
                "journal belongs to a different batch \
                 (manifest fingerprint {found:#010x}, expected {expected:#010x})"
            ),
            JournalError::Crashed { job, point } => {
                write!(f, "simulated crash at {point} of job {job}")
            }
            JournalError::Batch(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io { source, .. } => Some(source),
            JournalError::Batch(e) => Some(e),
            _ => None,
        }
    }
}

/// [`crate::farm::transcode_batch`] with durability: journal every
/// completed job to `journal.path` and, when `journal.resume` is set,
/// replay an existing journal instead of re-encoding. Every append,
/// fsync, and rename goes through `io`: production callers pass
/// [`crate::exec::StdIo`]; `vbench chaos` passes a
/// [`crate::exec::FaultedIo`] so each can fail (or lie) on a scripted,
/// replayable schedule.
///
/// Resume invariant: for any prefix of completed jobs — however the
/// previous run died — the resumed batch's per-job bitstreams are
/// byte-identical (and CRC-equal) to an uninterrupted run's, replayed
/// jobs run zero encode work, and [`crate::BatchSummary::replayed`]
/// counts them.
///
/// # Errors
///
/// [`JournalError::ManifestMismatch`] when resuming a journal written
/// by a different batch; [`JournalError::Io`] on filesystem failures;
/// [`JournalError::Crashed`] when a scripted crash fault fired;
/// [`JournalError::Batch`] for underlying scheduler errors.
pub fn run_batch_journaled_with_io(
    engine: &dyn Transcoder,
    jobs: &[EngineJob],
    workers: usize,
    policy: &ResilienceConfig,
    journal: &JournalConfig,
    io: &dyn JournalIo,
) -> Result<EngineBatchReport, JournalError> {
    let opened = open_journal(journal, jobs, policy, io)?;
    run_engine_batch(engine, jobs, workers, policy, Some(opened), &WallClock)
}

/// The batch's identity: a CRC-32 over a canonical description of every
/// job (name, request, source kind, deadline, source shape) and the
/// full resilience policy (fault plan and seed included). Any
/// difference that could change an output bitstream changes the
/// fingerprint. Worker processes compute it too, to verify they were
/// pointed at the journal their dispatcher opened (same jobs, same
/// policy) before leasing anything.
pub(crate) fn manifest_fingerprint(jobs: &[EngineJob], policy: &ResilienceConfig) -> u32 {
    let mut canonical = String::new();
    for job in jobs {
        canonical.push_str(&format!(
            "{}|{:?}|{}|{:?}|{}|{}\n",
            job.name,
            job.request,
            // This slot once held a per-job streaming flag that was true
            // exactly for synthetic sources: journals written then keep
            // their fingerprint.
            matches!(job.source, JobSource::Synth(_)),
            job.deadline_secs,
            job.source.frames(),
            job.source.total_pixels(),
        ));
    }
    canonical.push_str(&format!("{policy:?}"));
    vpack::crc32(canonical.as_bytes())
}

/// A journal opened (and, on resume, scanned) for one invocation.
/// `pub(crate)`: the multi-process dispatcher opens its shared journal
/// through the exact same path, so resume and worker-loss recovery
/// share one commit-point implementation.
pub(crate) struct OpenedJournal {
    /// Positioned at end-of-file, ready to append job records.
    pub(crate) file: Box<dyn DurableFile>,
    /// Replayed chains to seed the scheduler with.
    pub(crate) prefilled: Vec<(usize, ChainResult)>,
    /// This invocation's run index: the count of *prior* run records,
    /// the key scripted crashes fire on.
    pub(crate) run_index: u32,
}

/// Opens the journal: fresh-initializes it (truncate, manifest, run
/// record) when not resuming or when nothing usable exists, otherwise
/// scans, validates the manifest, quarantines corruption, compacts if
/// needed, and appends this invocation's run record. Counts what the
/// scan replayed and quarantined (`journal.records_replayed` /
/// `journal.records_quarantined`).
pub(crate) fn open_journal(
    config: &JournalConfig,
    jobs: &[EngineJob],
    policy: &ResilienceConfig,
    io: &dyn JournalIo,
) -> Result<OpenedJournal, JournalError> {
    let fingerprint = manifest_fingerprint(jobs, policy);
    // A writer that crashed mid-compaction (or mid-snapshot) leaves a
    // uniquely-named temp sibling behind; scrub them before this run
    // makes its own.
    remove_stale_temps(&config.path);
    let existing = if config.resume {
        match record::read_text(io, &config.path) {
            Ok(text) if !text.is_empty() => Some(text),
            Ok(_) => None,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(io_err("read journal", e)),
        }
    } else {
        None
    };
    let Some(mut text) = existing else {
        let file = init_fresh(&config.path, fingerprint, jobs.len(), io)?;
        return Ok(OpenedJournal { file, prefilled: Vec::new(), run_index: 0 });
    };

    // Cutting lines off lets a large journal's payloads take the place of
    // their text; for a small one it only churns the heap (the repo
    // benchmark's peak resident set: +11 % with a 0.64 MB journal, −8 %
    // with a 6.9 MB one).
    let release = text.len() >= RELEASE_MIN_BYTES;
    let scan = match scan_journal(&mut text, fingerprint, jobs, release)? {
        Some(scan) => scan,
        None => {
            // The compaction needs lines the scan already cut off; the
            // file is unchanged, so read it again and keep every byte.
            text = record::read_text(io, &config.path).map_err(|e| io_err("read journal", e))?;
            scan_journal(&mut text, fingerprint, jobs, false)?
                .expect("a scan that releases nothing runs to the end")
        }
    };
    // Compact whenever anything was dropped — quarantined corruption (an
    // unterminated final line included: it would otherwise merge with
    // the next append), shed telemetry, or coordination records a
    // pre-ledger dispatcher left in the journal — and when the journal is
    // of an earlier format version, so that no journal mixes two: the
    // compaction writes its job records again at this build's version.
    let needs_compact =
        scan.quarantined > 0 || scan.ephemeral > 0 || scan.version < record::JOURNAL_VERSION;
    let mut file = if needs_compact {
        let kept: Vec<Cow<str>> = scan
            .kept
            .iter()
            .map(|line| record::upgrade(&text[line.clone()], scan.version, jobs))
            .collect();
        compact(&config.path, fingerprint, jobs.len(), &kept, io)?
    } else {
        io.open_append(FileClass::Journal, &config.path)
            .map_err(|e| io_err("open journal for append", e))?
    };
    append_synced(file.as_mut(), &record::run_line(scan.prior_runs), "write run record")?;
    if !scan.prefilled.is_empty() {
        vtrace::counter("journal.records_replayed", scan.prefilled.len() as u64);
    }
    if scan.quarantined > 0 {
        vtrace::counter("journal.records_quarantined", scan.quarantined);
    }
    Ok(OpenedJournal { file, prefilled: scan.prefilled, run_index: scan.prior_runs })
}

/// The journal size from which a resume scan cuts folded lines off.
const RELEASE_MIN_BYTES: usize = 1 << 20;

/// What a resume scan recovered from the journal text.
#[derive(Default)]
struct ScanOutcome {
    prefilled: Vec<(usize, ChainResult)>,
    prior_runs: u32,
    /// Lines that are not committed records, plus job records that
    /// failed verification (foreign name, bad CRC).
    quarantined: u64,
    /// Valid but ephemeral records — multi-process coordination kinds
    /// (which belong in a ledger file; only a journal from before the
    /// ledger split holds any) and service shed events (telemetry about
    /// work that was *refused*): never replayed, dropped on compaction,
    /// and *not* corruption.
    ephemeral: u64,
    /// Where the surviving lines (run and job records, manifest
    /// excluded) are in the text, in file order — what a compaction
    /// rewrites.
    kept: Vec<Range<usize>>,
    /// The format version of the journal's manifest (0: none, and then
    /// every line is quarantined).
    version: u64,
}

/// Folds every journal line: validates the manifest, counts run
/// records, loads job records (last record wins for a job index — a
/// quarantined-then-re-encoded job appends a fresh record after its
/// stale one), and quarantines everything else. Never fails on
/// corruption — only on a *valid* manifest that belongs to a different
/// batch. Without a usable manifest nothing is a record, so resume
/// degenerates to a fresh start.
///
/// Lines are folded last first. With `release`, and while nothing met
/// so far has to be compacted away, each line is cut off `text` once
/// folded, so the payloads a resume decodes take the place of the text
/// they came from: a resume holds the text and one record's payload
/// more, not the text and every payload. A journal of an earlier format
/// version is compacted, so nothing of it is cut off. `None`: a line
/// that has to be compacted away turned up after others were cut off,
/// and compaction rewrites those; scan the whole text again without
/// `release`.
fn scan_journal(
    text: &mut String,
    fingerprint: u32,
    jobs: &[EngineJob],
    release: bool,
) -> Result<Option<ScanOutcome>, JournalError> {
    let committed = record::Committed::of(text);
    let mut scan = ScanOutcome::default();
    if let Some(manifest) = committed.manifest {
        if manifest.fingerprint != fingerprint {
            let found = manifest.fingerprint;
            return Err(JournalError::ManifestMismatch { expected: fingerprint, found });
        }
        scan.version = manifest.version;
    }
    let mut chains: Vec<Option<ChainResult>> = Vec::new();
    chains.resize_with(jobs.len(), || None);
    // An unterminated final line, any line before the manifest, and an
    // earlier format version all mean the journal is known to need
    // compaction up front.
    let mut releasing = release
        && committed.end == text.len()
        && matches!(committed.manifest, Some(m) if m.at == 0 && m.version == record::JOURNAL_VERSION);
    let mut released = false;
    if committed.end < text.len() {
        scan.quarantined += 1;
    }
    let mut end = committed.end;
    while end > 0 {
        let at = text[..end - 1].rfind('\n').map_or(0, |i| i + 1);
        let line = at..end - 1;
        end = at;
        match committed.record(at, &text[line.clone()]) {
            None => scan.quarantined += 1,
            Some(Record::Manifest { .. }) => {}
            Some(Record::Run { .. }) => {
                scan.prior_runs += 1;
                scan.kept.push(line);
            }
            Some(Record::Job(rec)) => match rec.load(jobs) {
                Some(chain) => {
                    // The last record of a job is the first one met here.
                    chains[rec.job].get_or_insert_with(|| ChainResult::replayed(chain.outcome));
                    scan.kept.push(line);
                }
                None => scan.quarantined += 1,
            },
            Some(
                Record::Lease { .. }
                | Record::Expire { .. }
                | Record::Hb { .. }
                | Record::Done(_)
                | Record::Shed,
            ) => scan.ephemeral += 1,
        }
        if scan.quarantined > 0 || scan.ephemeral > 0 {
            if released {
                return Ok(None);
            }
            releasing = false;
        }
        if releasing {
            text.truncate(at);
            text.shrink_to_fit();
            released = true;
        }
    }
    scan.kept.reverse();
    scan.prefilled =
        chains.into_iter().enumerate().filter_map(|(job, chain)| Some((job, chain?))).collect();
    Ok(Some(scan))
}

/// Creates (or truncates) the journal and commits the manifest plus the
/// first run record.
fn init_fresh(
    path: &Path,
    fingerprint: u32,
    jobs: usize,
    io: &dyn JournalIo,
) -> Result<Box<dyn DurableFile>, JournalError> {
    let mut file = io.create(FileClass::Journal, path).map_err(|e| io_err("create journal", e))?;
    append_synced(file.as_mut(), &record::manifest_line(fingerprint, jobs), "write manifest")?;
    append_synced(file.as_mut(), &record::run_line(0), "write run record")?;
    Ok(file)
}

/// Rewrites the journal as manifest + surviving lines (atomic via a
/// uniquely-named sibling temp file — synced before the rename — and a
/// parent-directory sync after it), dropping everything quarantined.
fn compact(
    path: &Path,
    fingerprint: u32,
    jobs: usize,
    kept_lines: &[Cow<str>],
    io: &dyn JournalIo,
) -> Result<Box<dyn DurableFile>, JournalError> {
    let tmp = unique_temp(path);
    let mut file =
        io.create(FileClass::Journal, &tmp).map_err(|e| io_err("create compacted journal", e))?;
    let mut contents = record::manifest_line(fingerprint, jobs);
    for line in kept_lines {
        contents.push_str(line);
        contents.push('\n');
    }
    append_synced(file.as_mut(), &contents, "write compacted journal")?;
    drop(file);
    io.rename(FileClass::Journal, &tmp, path)
        .and_then(|_| io.sync_parent_dir(path))
        .map_err(|e| io_err("swap compacted journal", e))?;
    io.open_append(FileClass::Journal, path).map_err(|e| io_err("reopen journal", e))
}

/// Appends `text` and syncs it: the manifest, a run record (one per
/// driver invocation; their count is the crash-fault run index), a
/// compacted copy, shed records. Transient write errors back off on the
/// wall clock.
fn append_synced(file: &mut dyn DurableFile, text: &str, what: &str) -> Result<(), JournalError> {
    append_retrying(file, text.as_bytes(), &WallClock)
        .and_then(|_| file.sync())
        .map_err(|e| io_err(what, e))
}

/// Appends the service's shed events to an existing journal, one fsync
/// for the whole batch. The service never sheds silently: after the
/// encode batch commits, every shed decision lands here as a durable
/// `shed` record alongside the job records it displaced. Shed records
/// are telemetry, not replayable state: resume scans classify them as
/// ephemeral and compaction scrubs them.
///
/// # Errors
///
/// [`JournalError::Io`] when the journal cannot be reopened or written.
pub(crate) fn append_shed_records(
    path: &Path,
    events: &[crate::service::ShedEvent],
    io: &dyn JournalIo,
) -> Result<(), JournalError> {
    if events.is_empty() {
        return Ok(());
    }
    let mut file = io
        .open_append(FileClass::Journal, path)
        .map_err(|e| io_err("reopen journal for shed records", e))?;
    let mut buf = String::with_capacity(events.len() * 96);
    for event in events {
        buf.push_str(&record::shed_line(event));
    }
    append_synced(file.as_mut(), &buf, "write shed records")
}

pub(crate) fn io_err(context: &str, source: std::io::Error) -> JournalError {
    JournalError::Io { context: context.to_string(), source }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::exec::ledger::LeaseId;
    use crate::exec::{FaultedIo, StdIo};
    use crate::farm::JobError;
    use record::testing::{encode_jobs as jobs, ok_chain, TempJournal};

    fn run(
        jobs: &[EngineJob],
        policy: &ResilienceConfig,
        config: &JournalConfig,
    ) -> Result<EngineBatchReport, JournalError> {
        run_batch_journaled_with_io(&Engine, jobs, 2, policy, config, &StdIo)
    }

    /// A journal written before the source kind took the place of the
    /// per-job streaming flag still resumes: the fingerprint of a mixed
    /// in-memory / synthetic batch under a non-default policy is pinned
    /// to the value that flag produced.
    #[test]
    fn manifest_fingerprint_of_a_mixed_batch_is_pinned() {
        let spec = vsynth::SourceSpec::new(
            vframe::Resolution::new(64, 48),
            30.0,
            6,
            vsynth::ContentClass::Natural,
            3,
        );
        let mut jobs = jobs(2);
        jobs.push(
            EngineJob::streaming("synth", JobSource::Synth(spec), record::testing::request())
                .with_deadline(1.5),
        );
        let policy = ResilienceConfig::default()
            .with_max_retries(2)
            .with_fault_plan(vfault::FaultPlan::new().with_panic(1, 1));
        assert_eq!(manifest_fingerprint(&jobs, &policy), 1_051_873_623);
    }

    #[test]
    fn fresh_run_journals_every_job_and_resume_replays_them() {
        let temp = TempJournal::new("fresh");
        let jobs = jobs(3);
        let policy = ResilienceConfig::default();
        let config = JournalConfig::new(temp.path());
        let first = run(&jobs, &policy, &config).expect("fresh run");
        assert_eq!(first.summary.completed, 3);
        assert_eq!(first.summary.replayed, 0);

        let resumed = run(&jobs, &policy, &config.clone().with_resume(true)).expect("resume");
        assert_eq!(resumed.summary.completed, 3);
        assert_eq!(resumed.summary.replayed, 3, "every job replays");
        assert!(resumed.cpu_secs == 0.0, "no encode work on full replay");
        for (a, b) in first.results.iter().zip(&resumed.results) {
            let (a, b) = (a.success().expect("ok"), b.success().expect("ok"));
            assert_eq!(a.bytes(), b.bytes(), "replayed bitstream byte-identical");
        }
    }

    fn shed_events() -> [crate::service::ShedEvent; 2] {
        [
            crate::service::ShedEvent {
                seq: 0,
                at_us: 1_500,
                name: "chicken",
                rank: 812,
                value: 0.004,
                reason: crate::service::ShedReason::LowValue,
            },
            crate::service::ShedEvent {
                seq: 1,
                at_us: 2_750,
                name: "bike",
                rank: 990,
                value: 0.003,
                reason: crate::service::ShedReason::Infeasible,
            },
        ]
    }

    fn sheds(text: &str) -> usize {
        record::records(text).filter(|r| *r == Record::Shed).count()
    }

    #[test]
    fn shed_records_are_durable_telemetry_not_replay_state() {
        let temp = TempJournal::new("shed");
        let jobs = jobs(3);
        let policy = ResilienceConfig::default();
        let config = JournalConfig::new(temp.path());
        run(&jobs, &policy, &config).expect("fresh run");
        append_shed_records(temp.path(), &shed_events(), &StdIo).expect("append sheds");
        let text = std::fs::read_to_string(temp.path()).expect("journal readable");
        assert_eq!(sheds(&text), 2);
        assert!(text.contains("\"rank\":812,") && text.contains("\"reason\":\"low-value\""));

        // Resume replays every job — shed records are ephemeral, never
        // quarantined, and compaction scrubs them.
        let resumed = run(&jobs, &policy, &config.with_resume(true)).expect("resume");
        assert_eq!(resumed.summary.completed, 3);
        assert_eq!(resumed.summary.replayed, 3, "sheds must not disturb replay");
        let compacted = std::fs::read_to_string(temp.path()).expect("journal readable");
        assert_eq!(sheds(&compacted), 0, "compaction scrubs shed records");
    }

    /// The shed append is a durable write like any other: it goes
    /// through the caller's IO layer, so a disk error surfaces typed and
    /// unsynced shed bytes do not survive a power cut.
    #[test]
    fn shed_append_goes_through_the_io_seam() {
        let temp = TempJournal::new("shed-io");
        let fresh = [record::manifest_line(7, 0), record::run_line(0)].concat();
        std::fs::write(temp.path(), &fresh).expect("seed journal");

        // EIO on the append, past the transient-retry budget.
        let spec = "eio=journal@0,eio=journal@1,eio=journal@2,eio=journal@3";
        let io = FaultedIo::new(vfault::IoFaultPlan::parse(spec).expect("plan"));
        let err = append_shed_records(temp.path(), &shed_events(), &io).expect_err("EIO surfaces");
        assert!(matches!(err, JournalError::Io { .. }), "{err}");
        assert_eq!(std::fs::read_to_string(temp.path()).expect("readable"), fresh);

        // A power cut before the shed records' fsync took effect (the
        // fsync lied) leaves none of them behind.
        let io = FaultedIo::new(vfault::IoFaultPlan::parse("lie=journal@0").expect("plan"));
        append_shed_records(temp.path(), &shed_events(), &io).expect("append acknowledged");
        assert_eq!(sheds(&std::fs::read_to_string(temp.path()).expect("readable")), 2);
        io.power_cut().expect("power cut");
        assert_eq!(std::fs::read_to_string(temp.path()).expect("readable"), fresh);
    }

    #[test]
    fn torn_final_line_is_quarantined_not_fatal() {
        let temp = TempJournal::new("torn");
        let jobs = jobs(3);
        let policy = ResilienceConfig::default();
        let config = JournalConfig::new(temp.path());
        run(&jobs, &policy, &config).expect("fresh run");
        // Tear the tail: chop the last record's line in half.
        let text = std::fs::read_to_string(temp.path()).expect("journal readable");
        let full = text.trim_end_matches('\n');
        let keep = full.len() - full.len() / 4;
        std::fs::write(temp.path(), &full.as_bytes()[..keep]).expect("tear journal");

        let resumed =
            run(&jobs, &policy, &config.clone().with_resume(true)).expect("resume survives tear");
        assert_eq!(resumed.summary.completed, 3);
        assert_eq!(resumed.summary.replayed, 2, "torn record re-encodes, others replay");
        // The compacted journal must be clean for a further resume.
        let again = run(&jobs, &policy, &config.with_resume(true)).expect("second resume");
        assert_eq!(again.summary.replayed, 3);
    }

    #[test]
    fn interleaved_garbage_bytes_are_quarantined() {
        let temp = TempJournal::new("garbage");
        let jobs = jobs(2);
        let policy = ResilienceConfig::default();
        let config = JournalConfig::new(temp.path());
        run(&jobs, &policy, &config).expect("fresh run");
        // Splice binary garbage lines between the valid records.
        let text = std::fs::read_to_string(temp.path()).expect("journal readable");
        let mut spliced = Vec::new();
        for line in text.lines() {
            spliced.extend_from_slice(line.as_bytes());
            spliced.push(b'\n');
            spliced.extend_from_slice(b"\x00\xff{{{not json\n");
        }
        std::fs::write(temp.path(), &spliced).expect("splice garbage");

        let resumed =
            run(&jobs, &policy, &config.with_resume(true)).expect("resume survives garbage");
        assert_eq!(resumed.summary.replayed, 2, "valid records still replay");
    }

    #[test]
    fn crc_mismatch_forces_reencode_of_just_that_job() {
        let temp = TempJournal::new("crc");
        let jobs = jobs(3);
        let policy = ResilienceConfig::default();
        let config = JournalConfig::new(temp.path());
        let first = run(&jobs, &policy, &config).expect("fresh run");
        // Change one character of job 1's recorded bitstream to another
        // character of the payload alphabet.
        let text = std::fs::read_to_string(temp.path()).expect("journal readable");
        let tampered: Vec<String> = text
            .lines()
            .map(|line| {
                let mut line = line.to_string();
                if line.contains("\"job\":1,") {
                    let at = line.find("\"bytes\":\"").expect("an ok record") + 9;
                    let swap = if &line[at..=at] == "#" { "$" } else { "#" };
                    line.replace_range(at..=at, swap);
                }
                line
            })
            .collect();
        std::fs::write(temp.path(), tampered.join("\n") + "\n").expect("tamper journal");

        let resumed = run(&jobs, &policy, &config.with_resume(true)).expect("resume");
        assert_eq!(resumed.summary.replayed, 2, "only the untampered jobs replay");
        assert_eq!(resumed.summary.completed, 3);
        // The re-encoded job converges on the original bitstream.
        let (orig, redo) = (&first.results[1], &resumed.results[1]);
        assert!(redo.attempts > 0, "job 1 was re-encoded");
        assert_eq!(
            orig.success().expect("ok").bytes(),
            redo.success().expect("ok").bytes(),
            "re-encode is byte-identical to the original"
        );
    }

    #[test]
    fn manifest_mismatch_is_a_typed_error() {
        let temp = TempJournal::new("manifest");
        let policy = ResilienceConfig::default();
        let config = JournalConfig::new(temp.path());
        run(&jobs(2), &policy, &config).expect("fresh run");
        // Same journal, different batch (an extra job).
        let err = run(&jobs(3), &policy, &config.with_resume(true)).unwrap_err();
        assert!(
            matches!(err, JournalError::ManifestMismatch { expected, found } if expected != found),
            "got {err:?}"
        );
    }

    #[test]
    fn resume_without_existing_journal_is_a_fresh_start() {
        let temp = TempJournal::new("missing");
        let jobs = jobs(2);
        let report = run(
            &jobs,
            &ResilienceConfig::default(),
            &JournalConfig::new(temp.path()).with_resume(true),
        )
        .expect("resume of nothing runs fresh");
        assert_eq!(report.summary.completed, 2);
        assert_eq!(report.summary.replayed, 0);
    }

    #[test]
    fn journaled_failures_replay_as_failures() {
        let temp = TempJournal::new("failure");
        let jobs = jobs(2);
        let policy =
            ResilienceConfig::default().with_fault_plan(vfault::FaultPlan::new().with_permanent(1));
        let config = JournalConfig::new(temp.path());
        let first = run(&jobs, &policy, &config).expect("batch runs with a failed slot");
        assert_eq!(first.summary.failed, 1);

        let resumed = run(&jobs, &policy, &config.with_resume(true)).expect("resume");
        assert_eq!(resumed.summary.replayed, 2, "failures replay too");
        assert!(
            matches!(
                resumed.results[1].error(),
                Some(JobError::ReplayedFailure { message }) if message.contains("permanent")
            ),
            "failure message survives the journal"
        );
    }

    /// The resume scan as `open_journal` runs it — cutting lines off as
    /// it folds them, and again over the whole text when a cut line turns
    /// out to be needed — held to a scan that keeps every byte.
    fn scan(text: &str, fingerprint: u32, jobs: &[EngineJob]) -> Result<ScanOutcome, JournalError> {
        let run = |release| scan_journal(&mut text.to_string(), fingerprint, jobs, release);
        let whole = run(false)?.expect("a scan that releases nothing runs to the end");
        let scan = match run(true)? {
            Some(scan) => scan,
            None => run(false)?.expect("a scan that releases nothing runs to the end"),
        };
        let summary = |s: &ScanOutcome| {
            let prefilled: Vec<_> = s
                .prefilled
                .iter()
                .map(|(job, chain)| (*job, chain.outcome.as_ref().ok().map(|o| o.bytes().to_vec())))
                .collect();
            (prefilled, s.prior_runs, s.quarantined, s.ephemeral)
        };
        assert_eq!(summary(&scan), summary(&whole), "releasing changes only memory");
        if scan.quarantined > 0 || scan.ephemeral > 0 {
            assert_eq!(scan.kept, whole.kept, "a compaction rewrites the same lines");
        }
        Ok(scan)
    }

    /// A journal large enough for the resume scan to cut lines off, with
    /// a bad record below good ones: the good lines are gone from the
    /// text when the scan meets the bad one, so `open_journal` reads the
    /// journal again for the compaction, which keeps them verbatim.
    #[test]
    fn a_large_journal_is_read_again_for_a_compaction() {
        let temp = TempJournal::new("reread");
        let jobs = record::testing::jobs(&["a", "b", "c"]);
        let policy = ResilienceConfig::default();
        let fingerprint = manifest_fingerprint(&jobs, &policy);
        let line = |i: usize| {
            let payload: Vec<u8> = (0..300_000u32).map(|b| (b * (i as u32 + 1)) as u8).collect();
            record::job_line(i, &jobs[i].name, &ok_chain(&payload, 1), None)
        };
        let (manifest, run) = (record::manifest_line(fingerprint, 3), record::run_line(0));
        let (bad, good) = (line(0).replace("\"crc32\":", "\"crc32\":1"), [line(1), line(2)]);
        let text = [manifest.as_str(), &run, &bad, &good[0], &good[1]].concat();
        assert!(text.len() >= RELEASE_MIN_BYTES);
        std::fs::write(temp.path(), &text).expect("seed journal");

        let config = JournalConfig::new(temp.path()).with_resume(true);
        let opened = open_journal(&config, &jobs, &policy, &StdIo).expect("resume");
        let replayed: Vec<usize> = opened.prefilled.iter().map(|(job, _)| *job).collect();
        assert_eq!((replayed, opened.run_index), (vec![1, 2], 1));
        drop(opened);
        let compacted = std::fs::read_to_string(temp.path()).expect("journal readable");
        let want = [manifest.as_str(), &run, &good[0], &good[1], &record::run_line(1)].concat();
        assert!(compacted == want, "the compaction keeps the good lines verbatim");
    }

    /// (c) What a resume scan recovers from each way a journal's lines
    /// can fail to be committed records. The `(replayed, quarantined,
    /// ephemeral)` counts are the ones the scan had before the record
    /// module existed.
    #[test]
    fn scan_counts_for_torn_misplaced_duplicate_and_stale_lines() {
        let jobs = record::testing::jobs(&["a", "b", "c"]);
        let job =
            |i: usize, bytes: &[u8]| record::job_line(i, &jobs[i].name, &ok_chain(bytes, 1), None);
        let (manifest, run) = (record::manifest_line(7, 3), record::run_line(0));
        let id = LeaseId { worker: 7, nonce: 3, pid: 12345 };
        let cat = |parts: &[&str]| parts.concat();
        let stale = cat(&[
            &record::lease_line(1, id),
            &record::hb_line(7, 42, 12345, 99),
            // A heartbeat from before heartbeats carried pid and wall time.
            &record::hb_line(7, 43, 0, 0).replace(",\"pid\":0,\"t_ms\":0", ""),
            &record::expire_line(1, id),
        ]);
        let future = record::testing::unknown_version(&manifest);
        let cases: [(&str, String, (usize, u64, u64)); 8] = [
            (
                "unterminated last line",
                cat(&[&manifest, &run, &job(0, b"x"), &job(1, b"y"), &job(2, b"z")[..24]]),
                (2, 1, 0),
            ),
            (
                "parseable but unterminated last line",
                cat(&[&manifest, &run, &job(0, b"x"), job(1, b"y").trim_end()]),
                (1, 1, 0),
            ),
            (
                "record before the manifest",
                cat(&[&job(0, b"x"), &manifest, &run, &job(1, b"y")]),
                (1, 1, 0),
            ),
            (
                "duplicate job record",
                cat(&[&manifest, &run, &job(0, b"stale"), &job(0, b"fresh")]),
                (1, 0, 0),
            ),
            (
                "stale lease / hb / expire",
                cat(&[&manifest, &run, &job(0, b"x"), &stale]),
                (1, 0, 4),
            ),
            (
                "record of another batch's job",
                cat(&[&manifest, &run, &job(0, b"x").replace("\"name\":\"a\"", "\"name\":\"z\"")]),
                (0, 1, 0),
            ),
            ("manifest of another version", cat(&[&future, &run, &job(0, b"x")]), (0, 3, 0)),
            (
                "bad payload before good records",
                cat(&[
                    &manifest,
                    &run,
                    &job(0, b"x").replace("\"crc32\":", "\"crc32\":1"),
                    &job(1, b"y"),
                ]),
                (1, 1, 0),
            ),
        ];
        for (what, text, want) in cases {
            let scan = scan(&text, 7, &jobs).expect(what);
            let got = (scan.prefilled.len(), scan.quarantined, scan.ephemeral);
            assert_eq!(got, want, "{what}");
            if what == "duplicate job record" {
                let (_, chain) = &scan.prefilled[0];
                assert_eq!(
                    chain.outcome.as_ref().expect("ok").bytes(),
                    b"fresh",
                    "last record wins"
                );
                assert!(chain.was_replayed());
            }
        }
        let err = scan(&manifest, 8, &jobs).err().expect("foreign fingerprint");
        assert!(matches!(err, JournalError::ManifestMismatch { expected: 8, found: 7 }));
    }

    /// The jobs of the cross-commit fixtures, by name.
    const FIXTURE_JOBS: [&str; 5] = ["empty", "big", "b\\c\t\"d\" — ü世😀", "fail", "torn"];

    /// The fixtures' manifest fingerprint.
    const FIXTURE_FINGERPRINT: u32 = 0x5eed_f1c5;

    const FIXTURE_V1: &str = include_str!("../../../tests/fixtures/journal_v1.jsonl");

    const FIXTURE_V2: &str = include_str!("../../../tests/fixtures/journal_v2.jsonl");

    /// The jobs a scan prefilled: each job's payload or failure message.
    fn replayed(prefilled: &[(usize, ChainResult)]) -> Vec<(usize, Result<&[u8], String>)> {
        prefilled
            .iter()
            .map(|(job, chain)| {
                (*job, chain.outcome.as_ref().map(|o| o.bytes()).map_err(|e| e.to_string()))
            })
            .collect()
    }

    /// A cross-commit fixture resumes to what was recorded when it was
    /// captured: the scan counts, payload CRCs and failure message. Both
    /// fixtures hold 0-byte and 48 KiB payloads, a failure message and a
    /// job name full of escapes and multibyte UTF-8, a pre-ledger lease and
    /// heartbeat, and a torn tail.
    fn assert_fixture_resumes(fixture: &str, jobs: &[EngineJob]) {
        let scan = scan(fixture, FIXTURE_FINGERPRINT, jobs).expect("the fixture's own batch");
        let counts = (scan.prefilled.len(), scan.quarantined, scan.ephemeral, scan.prior_runs);
        assert_eq!(counts, (4, 2, 2, 2), "(replayed, quarantined, ephemeral, runs)");
        let recovered: Vec<_> = scan
            .prefilled
            .iter()
            .map(|(job, chain)| match &chain.outcome {
                Ok(o) => (*job, Ok((vpack::crc32(o.bytes()), o.bytes().len()))),
                Err(JobError::ReplayedFailure { message }) => (*job, Err(message.as_str())),
                Err(e) => panic!("job {job} replayed as {e:?}"),
            })
            .collect();
        let failure = "job panicked: line one\nsaid \"no\"\ttab — café ☕";
        assert_eq!(
            recovered,
            [
                (0, Ok((0, 0))),
                (1, Ok((0xb0aa_35f8, 48 * 1024))),
                (2, Ok((0x438c_f06d, 7))),
                (3, Err(failure)),
            ]
        );
    }

    /// Each `ok` job record of `text`, as this build's writer serializes
    /// the chain it loads to, beside the line it was loaded from.
    fn reserialized_ok_records<'a>(text: &'a str, jobs: &[EngineJob]) -> Vec<(String, &'a str)> {
        record::scan(text)
            .filter_map(|entry| {
                let Some(Record::Job(rec)) = entry.record else { return None };
                let chain = rec.load(jobs).expect("a recorded job loads");
                let tag = rec.worker.zip(rec.run);
                let line = record::job_line(rec.job, &jobs[rec.job].name, &chain, tag);
                chain.outcome.is_ok().then_some((line, entry.line))
            })
            .collect()
    }

    /// A version 1 journal written by the record writer of an earlier
    /// commit (its first line names which) resumes to what was recorded
    /// when it was captured, and every `ok` record this build's writer
    /// re-serializes equals its line with only the payload re-encoded
    /// (hex to radix-64). The round-trip proptests pin the reader to the
    /// writer of the same commit; this pins both to bytes already on disk.
    #[test]
    fn a_journal_written_by_an_earlier_commit_resumes_byte_for_byte() {
        let jobs = record::testing::jobs(&FIXTURE_JOBS);
        assert_fixture_resumes(FIXTURE_V1, &jobs);
        let ok_records = reserialized_ok_records(FIXTURE_V1, &jobs);
        for (line, recorded) in &ok_records {
            assert_eq!(*line, format!("{}\n", record::testing::with_payload_reencoded(recorded)));
        }
        assert_eq!(ok_records.len(), 3);
    }

    /// The same five jobs written at format version 2 (the fixture for the
    /// next format change) resume to the same chains, and every `ok`
    /// record re-serializes to its line byte for byte.
    #[test]
    fn a_version_2_journal_resumes_byte_for_byte() {
        let jobs = record::testing::jobs(&FIXTURE_JOBS);
        assert_fixture_resumes(FIXTURE_V2, &jobs);
        let ok_records = reserialized_ok_records(FIXTURE_V2, &jobs);
        for (line, recorded) in &ok_records {
            assert_eq!(*line, format!("{recorded}\n"));
        }
        assert_eq!(ok_records.len(), 3);
    }

    /// The first resume of a version 1 journal rewrites it at this build's
    /// version: the manifest, then the run and job lines the scan kept,
    /// each `ok` record with its payload re-encoded, then the new run
    /// line. A second resume replays the same chains from it with nothing
    /// quarantined and nothing rewritten.
    #[test]
    fn a_resumed_v1_journal_is_rewritten_at_the_current_version() {
        let temp = TempJournal::new("v1");
        let jobs = record::testing::jobs(&FIXTURE_JOBS);
        let policy = ResilienceConfig::default();
        let fingerprint = manifest_fingerprint(&jobs, &policy);
        let v1 = FIXTURE_V1.replace(
            &format!("\"fingerprint\":{FIXTURE_FINGERPRINT},"),
            &format!("\"fingerprint\":{fingerprint},"),
        );
        assert_ne!(v1, FIXTURE_V1);
        std::fs::write(temp.path(), &v1).expect("seed journal");
        let config = JournalConfig::new(temp.path()).with_resume(true);

        let first = open_journal(&config, &jobs, &policy, &StdIo).expect("resume version 1");
        assert_eq!(first.run_index, 2);
        let mut want = record::manifest_line(fingerprint, jobs.len());
        for entry in record::scan(&v1) {
            match entry.record {
                Some(Record::Run { .. }) => want.push_str(entry.line),
                Some(Record::Job(rec)) if rec.ok => {
                    want.push_str(&record::testing::with_payload_reencoded(entry.line))
                }
                Some(Record::Job(_)) => want.push_str(entry.line),
                _ => continue,
            }
            want.push('\n');
        }
        want.push_str(&record::run_line(2));
        let migrated = std::fs::read_to_string(temp.path()).expect("journal readable");
        assert!(migrated == want, "the rewrite keeps every record, payloads re-encoded");

        let again = scan(&migrated, fingerprint, &jobs).expect("the same batch");
        assert_eq!((again.quarantined, again.ephemeral, again.version), (0, 0, 2));
        let second = open_journal(&config, &jobs, &policy, &StdIo).expect("second resume");
        assert_eq!(second.run_index, 3);
        assert_eq!(replayed(&second.prefilled), replayed(&first.prefilled));
        assert_eq!(replayed(&first.prefilled).len(), 4);
        let grown = std::fs::read_to_string(temp.path()).expect("journal readable");
        assert!(grown == migrated + &record::run_line(3), "the second resume only appends");
    }
}
