//! Read-only dispatch monitoring: a [`StatusSnapshot`] derived from
//! the text of a dispatch's ledger file, rendered by `vbench top` and
//! written as `status.json` by the dispatcher's `--status-out`.
//!
//! The ledger beside the journal ([`super::ledger`]) holds everything a
//! monitor shows for a running batch — the manifest copy (`jobs`), a
//! `done` marker per committed job (ok/failed, attempts, the committing
//! worker), and the lease/heartbeat records (who holds what, who is
//! alive). A monitor therefore needs neither worker IPC nor the payload
//! journal: it reads the ledger text that every participant already
//! agrees on and *never writes to it* — `vbench top` opens the file
//! read-only, and the dispatcher writes `status.json` elsewhere via an
//! atomic temp-file rename so machine consumers never observe a torn
//! snapshot. The fold counts a job record like the `done` that stands
//! for it, so [`snapshot_from_text`] accepts journal text as well (the
//! done/failed/retry totals of any journal; no leases or heartbeats).
//!
//! Two render modes split along determinism: [`StatusSnapshot::render`]
//! prints only ledger-derived facts (lease states, heartbeat
//! sequence numbers and wall-stamps, completion counts), so `vbench
//! top --once` output is a pure function of the ledger bytes;
//! wall-clock-relative derivations (heartbeat age, throughput, ETA)
//! need a "now" and live only in [`StatusSnapshot::to_json`] and the
//! refreshing live view, both of which are handed their clock
//! explicitly.

use std::path::Path;

use super::ledger::{replay_ledger, JobState};
use crate::journal::record::{self, Record};
use vtrace::json::Object;

/// Schema version of the `status.json` snapshot.
pub const STATUS_VERSION: u32 = 1;

/// Upper bound accepted for a manifest's `jobs` count when monitoring.
/// Invariant: a snapshot allocates `O(jobs)` ledger state, and `vbench
/// top` must never panic or OOM on a corrupt journal — a count past
/// this bound is treated as "no manifest", not trusted.
const MAX_MANIFEST_JOBS: u64 = 1 << 20;

/// One worker's view in the snapshot.
#[derive(Clone, Debug, Default)]
pub struct WorkerStatus {
    /// Dispatcher-assigned worker id.
    pub worker: u64,
    /// OS process id, when any lease or heartbeat revealed it.
    pub pid: Option<u64>,
    /// Job index currently leased by this worker, if any.
    pub in_flight: Option<usize>,
    /// Latest heartbeat sequence number (0 = never heartbeat).
    pub hb_seq: u64,
    /// Wall-clock time of the latest heartbeat (ms since the Unix
    /// epoch), when heartbeats carry timestamps.
    pub hb_wall_ms: Option<u64>,
    /// Durable job records this worker committed successfully.
    pub completed: u64,
    /// Durable failure records this worker committed.
    pub failed: u64,
}

/// Everything a monitor can derive from one read of the ledger.
#[derive(Clone, Debug, Default)]
pub struct StatusSnapshot {
    /// Total jobs in the batch (from the manifest).
    pub jobs: usize,
    /// Jobs with a durable record (done, whether ok or failed;
    /// replayed ones included).
    pub done: usize,
    /// Jobs whose durable record is a failure.
    pub failed: usize,
    /// Jobs currently leased.
    pub leased: usize,
    /// Retries recorded across durable records (attempts beyond the
    /// first).
    pub retries: u64,
    /// Expire records appended (leases reclaimed from lost workers).
    pub expired_leases: u64,
    /// Per-worker breakdown, ordered by worker id.
    pub workers: Vec<WorkerStatus>,
}

impl StatusSnapshot {
    /// Jobs not yet done and not currently leased.
    pub fn free(&self) -> usize {
        self.jobs.saturating_sub(self.done + self.leased)
    }

    /// Deterministic table render: a pure function of the ledger
    /// bytes, suitable for `vbench top --once` and golden tests. No
    /// clocks — heartbeat *age* belongs to the live view.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "jobs {}  done {}  failed {}  leased {}  free {}  retries {}  expired {}\n",
            self.jobs,
            self.done,
            self.failed,
            self.leased,
            self.free(),
            self.retries,
            self.expired_leases,
        ));
        out.push_str(&format!(
            "{:>6} {:>8} {:>9} {:>8} {:>14} {:>9} {:>7}\n",
            "worker", "pid", "in-flight", "hb-seq", "hb-wall-ms", "completed", "failed"
        ));
        for w in &self.workers {
            out.push_str(&format!(
                "{:>6} {:>8} {:>9} {:>8} {:>14} {:>9} {:>7}\n",
                w.worker,
                w.pid.map_or("-".to_string(), |p| p.to_string()),
                w.in_flight.map_or("idle".to_string(), |j| format!("#{j}")),
                w.hb_seq,
                w.hb_wall_ms.map_or("-".to_string(), |t| t.to_string()),
                w.completed,
                w.failed,
            ));
        }
        out
    }

    /// The `status.json` document: the snapshot plus the clock-relative
    /// derivations (heartbeat age, throughput, ETA), computed against
    /// the caller-supplied `now_ms` / `elapsed_secs` so the document is
    /// testable with a pinned clock.
    pub fn to_json(&self, now_ms: u64, elapsed_secs: f64) -> String {
        let throughput = if elapsed_secs > 0.0 { self.done as f64 / elapsed_secs } else { 0.0 };
        let remaining = self.jobs.saturating_sub(self.done);
        let eta_secs = if throughput > 0.0 { remaining as f64 / throughput } else { -1.0 };
        let worker = |w: &WorkerStatus| {
            Object::new()
                .field("worker", w.worker)
                .field("pid", w.pid)
                .field("in_flight", w.in_flight)
                .field("hb_seq", w.hb_seq)
                .field("hb_age_ms", w.hb_wall_ms.map(|t| now_ms.saturating_sub(t)))
                .field("completed", w.completed)
                .field("failed", w.failed)
        };
        Object::new()
            .field("version", STATUS_VERSION)
            .field("now_ms", now_ms)
            .field("elapsed_secs", elapsed_secs)
            .field("jobs", self.jobs)
            .field("done", self.done)
            .field("failed", self.failed)
            .field("leased", self.leased)
            .field("free", self.free())
            .field("retries", self.retries)
            .field("expired_leases", self.expired_leases)
            .field("throughput_jps", throughput)
            .field("eta_secs", eta_secs)
            .field("workers", self.workers.iter().map(worker).collect::<Vec<_>>())
            .close()
    }
}

/// Derives a snapshot from ledger (or journal) text. Returns `None` when
/// the text has no usable manifest — nothing to monitor yet (or neither
/// kind of file).
pub fn snapshot_from_text(text: &str) -> Option<StatusSnapshot> {
    // Invariant: the manifest's job count sizes the ledger allocation.
    // A corrupt or hostile count must not drive an unbounded `Vec` —
    // cap it at a bound no real batch approaches and treat anything
    // larger like a missing manifest (nothing to monitor).
    let jobs = match record::records(text).next()? {
        Record::Manifest { jobs, .. } if jobs <= MAX_MANIFEST_JOBS => jobs as usize,
        _ => return None,
    };
    let mut view = replay_ledger(text, jobs);
    let mut snap = StatusSnapshot {
        jobs,
        retries: view.retries,
        expired_leases: view.expire_records,
        ..Default::default()
    };
    for (job, state) in view.states.iter().enumerate() {
        match state {
            JobState::Done => snap.done += 1,
            JobState::Leased(id) => {
                snap.leased += 1;
                if let Some(w) = view.workers.get_mut(&id.worker) {
                    w.in_flight = Some(job);
                }
            }
            JobState::Free => {}
        }
    }
    // Failure counts: durable failed records count toward `done` in the
    // lease machine; surface them separately too.
    snap.failed = view.workers.values().map(|w| w.failed as usize).sum();
    snap.workers = view.workers.into_values().collect();
    Some(snap)
}

/// Reads (read-only) the ledger of the dispatch journal at `path` and
/// derives a snapshot. The journal itself is never opened.
///
/// # Errors
///
/// Propagates the read error — `NotFound` when no dispatcher ever
/// started a ledger beside `path`; a readable ledger with no manifest
/// yields `Ok(None)`.
pub fn snapshot_from_journal(path: &Path) -> std::io::Result<Option<StatusSnapshot>> {
    let ledger = super::ledger::ledger_path(path);
    Ok(snapshot_from_text(&record::read_text(&super::io::StdIo, &ledger)?))
}

/// Atomically and *durably* replaces `path` with `content`, through
/// the caller's durable-IO layer ([`super::io::StdIo`] in production; a
/// [`super::io::FaultedIo`] when the chaos auditor proves the
/// fsync-before-rename discipline under power cuts): write a
/// uniquely-named sibling temp file, fsync it, rename it over `path`,
/// then fsync the parent directory. Readers see either the old
/// document or the new one, never a prefix — and after a power cut the
/// renamed-in document still holds its full contents (renaming an
/// unsynced temp is the classic crash-consistency bug: the rename
/// survives the cut, the bytes do not). The per-writer unique temp
/// name means a crashed or concurrent writer can never collide on a
/// fixed `.tmp` sibling; stale temps from crashed writers are scrubbed
/// at dispatcher startup (`io::remove_stale_temps` on its `--status-out`
/// target).
pub fn write_atomic_io(
    io: &dyn super::io::JournalIo,
    path: &Path,
    content: &str,
) -> std::io::Result<()> {
    write_atomic_impl(io, path, content, true)
}

/// The deliberately broken variant: skips the temp-file sync before the
/// rename. Exists only so `vbench chaos --inject-unsynced-rename` can
/// demonstrate that the auditor *catches* the bug this module used to
/// have — it must never be called from production paths.
pub(crate) fn write_atomic_unsynced_io(
    io: &dyn super::io::JournalIo,
    path: &Path,
    content: &str,
) -> std::io::Result<()> {
    write_atomic_impl(io, path, content, false)
}

fn write_atomic_impl(
    io: &dyn super::io::JournalIo,
    path: &Path,
    content: &str,
    sync_contents: bool,
) -> std::io::Result<()> {
    let tmp = super::io::unique_temp(path);
    let result = (|| {
        let mut file = io.create(vfault::FileClass::Status, &tmp)?;
        file.append(content.as_bytes())?;
        if sync_contents {
            file.sync()?;
        }
        drop(file);
        io.rename(vfault::FileClass::Status, &tmp, path)?;
        io.sync_parent_dir(path)
    })();
    if result.is_err() {
        // Never leave a dead temp behind an error path; the unique name
        // guarantees this removal cannot race another writer's temp.
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::exec::io::StdIo;
    use crate::exec::ledger::LeaseId;
    use crate::journal::record::testing::ok_chain;
    use crate::journal::record::{
        done_line, hb_line, job_line, lease_line, manifest_line, run_line, DoneMark,
    };
    use vtrace::json::{self, Value};

    /// Three jobs, two workers: job 0 committed by worker 0 on its
    /// second attempt, job 1 leased by worker 1, job 2 free.
    fn ledger() -> String {
        [
            manifest_line(7, 3),
            run_line(0),
            hb_line(0, 2, 41, 1000),
            hb_line(1, 5, 42, 1200),
            lease_line(0, LeaseId { worker: 0, nonce: 0, pid: 41 }),
            done_line(DoneMark { job: 0, worker: Some(0), ok: true, attempts: 2 }),
            lease_line(1, LeaseId { worker: 1, nonce: 0, pid: 42 }),
        ]
        .concat()
    }

    /// A job record folds exactly like the `done` that stands for it, so
    /// the journal of a batch snapshots to the totals its ledger shows.
    #[test]
    fn a_job_record_counts_like_its_done_marker() {
        let done = done_line(DoneMark { job: 0, worker: Some(0), ok: true, attempts: 2 });
        let job = job_line(0, "a", &ok_chain(b"a", 2), Some((0, 0)));
        let as_journal = ledger().replace(&done, &job);
        assert_ne!(as_journal, ledger());
        assert_eq!(
            snapshot_from_text(&as_journal).expect("has manifest").render(),
            snapshot_from_text(&ledger()).expect("has manifest").render()
        );
    }

    #[test]
    fn snapshot_reads_manifest_ledger_and_records() {
        let snap = snapshot_from_text(&ledger()).expect("has manifest");
        assert_eq!(snap.jobs, 3);
        assert_eq!(snap.done, 1);
        assert_eq!(snap.leased, 1);
        assert_eq!(snap.free(), 1);
        assert_eq!(snap.retries, 1);
        assert_eq!(snap.failed, 0);
        assert_eq!(snap.workers.len(), 2);
        let w0 = &snap.workers[0];
        assert_eq!((w0.worker, w0.pid, w0.completed), (0, Some(41), 1));
        assert_eq!(w0.in_flight, None, "job 0 committed, lease terminal");
        let w1 = &snap.workers[1];
        assert_eq!((w1.worker, w1.hb_seq, w1.in_flight), (1, 5, Some(1)));
        assert_eq!(w1.hb_wall_ms, Some(1200));
    }

    #[test]
    fn render_is_deterministic_and_lists_every_worker() {
        let snap = snapshot_from_text(&ledger()).expect("has manifest");
        let a = snap.render();
        let b = snapshot_from_text(&ledger()).expect("has manifest").render();
        assert_eq!(a, b);
        assert!(a.contains("jobs 3  done 1"), "{a}");
        for needle in ["idle", "#1", "41", "42"] {
            assert!(a.contains(needle), "missing {needle} in:\n{a}");
        }
    }

    #[test]
    fn status_json_parses_and_carries_clock_derivations() {
        let snap = snapshot_from_text(&ledger()).expect("has manifest");
        let doc = snap.to_json(2200, 4.0);
        let v = json::parse(&doc).expect("valid JSON");
        assert_eq!(v.get("version").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("jobs").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("throughput_jps").and_then(Value::as_f64), Some(0.25));
        let workers = match v.get("workers") {
            Some(Value::Array(items)) => items,
            other => panic!("workers must be an array, got {other:?}"),
        };
        assert_eq!(workers.len(), 2);
        assert_eq!(workers[1].get("hb_age_ms").and_then(Value::as_u64), Some(1000));
    }

    /// `status.json` bytes at a pinned clock: a worker with every
    /// `Option` unset beside one with every `Option` set, and no
    /// throughput yet, so `eta_secs` is the `-1` sentinel.
    #[test]
    fn status_json_bytes_match_the_pinned_document() {
        let snap = StatusSnapshot {
            jobs: 3,
            leased: 1,
            retries: 2,
            expired_leases: 1,
            workers: vec![
                WorkerStatus { worker: 0, ..Default::default() },
                WorkerStatus {
                    worker: 1,
                    pid: Some(42),
                    in_flight: Some(2),
                    hb_seq: 5,
                    hb_wall_ms: Some(1200),
                    completed: 1,
                    failed: 1,
                },
            ],
            ..Default::default()
        };
        let golden = concat!(
            r#"{"version":1,"now_ms":2200,"elapsed_secs":4.5,"jobs":3,"done":0,"failed":0,"#,
            r#""leased":1,"free":2,"retries":2,"expired_leases":1,"throughput_jps":0.0,"#,
            r#""eta_secs":-1.0,"workers":["#,
            r#"{"worker":0,"pid":null,"in_flight":null,"hb_seq":0,"hb_age_ms":null,"#,
            r#""completed":0,"failed":0},"#,
            r#"{"worker":1,"pid":42,"in_flight":2,"hb_seq":5,"hb_age_ms":1000,"#,
            r#""completed":1,"failed":1}]}"#,
        );
        assert_eq!(snap.to_json(2200, 4.5), golden);
    }

    #[test]
    fn no_manifest_means_no_snapshot() {
        assert!(snapshot_from_text(&run_line(0)).is_none());
    }

    /// A corrupt manifest advertising an absurd job count must not drive
    /// an unbounded allocation: past the cap it is not a manifest.
    #[test]
    fn insane_manifest_job_counts_are_rejected() {
        for insane in [u64::MAX.to_string(), (MAX_MANIFEST_JOBS + 1).to_string()] {
            let text = manifest_line(7, 4).replace("\"jobs\":4", &format!("\"jobs\":{insane}"));
            assert!(snapshot_from_text(&text).is_none(), "{text}");
        }
        // At the cap the manifest is still trusted.
        let text = manifest_line(7, MAX_MANIFEST_JOBS as usize);
        assert_eq!(snapshot_from_text(&text).expect("sane manifest").jobs, 1 << 20);
    }

    /// Crash garbage can inject invalid UTF-8 into the ledger; the
    /// monitor must skip it like any other unparseable line, not error.
    /// And it looks only at the ledger: no journal exists here at all.
    #[test]
    fn invalid_utf8_ledger_bytes_do_not_fail_the_monitor() {
        let mut path = std::env::temp_dir();
        path.push(format!("vbench-status-utf8-{}.jsonl", std::process::id()));
        let file = crate::exec::ledger::ledger_path(&path);
        let mut bytes = ledger().into_bytes();
        bytes.extend_from_slice(b"\xff\xfe{torn");
        std::fs::write(&file, &bytes).expect("write ledger");
        let snap = snapshot_from_journal(&path)
            .expect("read survives invalid UTF-8")
            .expect("manifest intact");
        assert_eq!((snap.jobs, snap.done), (3, 1));
        let _ = std::fs::remove_file(&file);
    }

    /// Tailing a ledger mid-append: `vbench top` reads while a worker
    /// is between `write` and the trailing newline, so the snapshot must
    /// tolerate a truncated final record — and pick it up once the
    /// append completes.
    #[test]
    fn tailing_mid_append_skips_the_partial_record_then_sees_it() {
        let record = done_line(DoneMark { job: 1, worker: Some(1), ok: true, attempts: 1 });
        let before = snapshot_from_text(&ledger()).expect("has manifest");
        // Every strict prefix of the in-flight append leaves the
        // snapshot exactly where it was.
        for cut in [1, record.len() / 2, record.len() - 1] {
            let mid = format!("{}{}", ledger(), &record[..cut]);
            let snap = snapshot_from_text(&mid).expect("has manifest");
            assert_eq!(snap.done, before.done, "partial record must not count (cut {cut})");
            assert_eq!(snap.leased, before.leased, "partial record must not count (cut {cut})");
        }
        // The completed line takes effect.
        let after = snapshot_from_text(&(ledger() + &record)).expect("has manifest");
        assert_eq!(after.done, before.done + 1);
        assert_eq!(after.workers[1].completed, 1);
        assert_eq!(after.workers[1].in_flight, None, "job 1 committed, lease terminal");
    }

    /// `write_atomic_io` leaves no partially-written `status.json` behind:
    /// the destination is only ever replaced whole.
    #[test]
    fn write_atomic_replaces_whole_documents() {
        let mut path = std::env::temp_dir();
        path.push(format!("vbench-status-atomic-{}.json", std::process::id()));
        write_atomic_io(&StdIo, &path, "{\"version\":1}").expect("first write");
        write_atomic_io(&StdIo, &path, "{\"version\":1,\"jobs\":3}").expect("second write");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"version\":1,\"jobs\":3}");
        assert!(!path.with_extension("tmp").exists(), "temp file must be renamed away");
        crate::exec::io::remove_stale_temps(&path);
        let _ = std::fs::remove_file(&path);
    }

    /// The fsync-before-rename discipline: a document `write_atomic_io`
    /// acknowledged survives a simulated power cut byte-for-byte. The
    /// deliberately unsynced variant (the bug this module used to
    /// have) loses the bytes — which is exactly what `vbench chaos
    /// --inject-unsynced-rename` demonstrates end to end.
    #[test]
    fn write_atomic_contents_survive_a_power_cut() {
        use super::super::io::FaultedIo;
        let dir = std::env::temp_dir();
        let path = dir.join(format!("vbench-status-durable-{}.json", std::process::id()));
        let io = FaultedIo::new(vfault::IoFaultPlan::new());
        write_atomic_io(&io, &path, "{\"version\":1,\"jobs\":3}").expect("write");
        assert!(io.dir_syncs() >= 1, "the replace must sync the parent directory");
        io.power_cut().expect("power cut");
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"version\":1,\"jobs\":3}",
            "acknowledged document survives the cut whole"
        );

        let buggy = dir.join(format!("vbench-status-buggy-{}.json", std::process::id()));
        let io = FaultedIo::new(vfault::IoFaultPlan::new());
        write_atomic_unsynced_io(&io, &buggy, "{\"version\":1}").expect("write");
        io.power_cut().expect("power cut");
        assert_eq!(
            std::fs::read(&buggy).unwrap(),
            b"",
            "renaming an unsynced temp loses the bytes at power cut"
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&buggy);
    }

    /// A faulted replace never leaves the old document torn, and stale
    /// temps from crashed writers are scrubbed on startup.
    #[test]
    fn faulted_replace_keeps_old_document_and_stale_temps_are_scrubbed() {
        use super::super::io::FaultedIo;
        let dir = std::env::temp_dir();
        let path = dir.join(format!("vbench-status-fault-{}.json", std::process::id()));
        write_atomic_io(&StdIo, &path, "old-doc").expect("seed");
        for spec in ["short=status@0", "eio=status@0", "fsync-eio=status@0", "rename-fail=status@0"]
        {
            let io = FaultedIo::new(vfault::IoFaultPlan::parse(spec).expect("plan"));
            assert!(write_atomic_io(&io, &path, "new-doc").is_err(), "{spec} must error");
            assert_eq!(std::fs::read_to_string(&path).unwrap(), "old-doc", "after {spec}");
        }
        // A crashed writer's abandoned temp is scrubbed by startup
        // cleanup without touching the document.
        let stale =
            dir.join(format!("{}.99999-0.tmp", path.file_name().unwrap().to_string_lossy()));
        std::fs::write(&stale, "half-written").expect("plant stale temp");
        crate::exec::io::remove_stale_temps(&path);
        assert!(!stale.exists(), "stale temp scrubbed");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "old-doc");
        let _ = std::fs::remove_file(&path);
    }
}
