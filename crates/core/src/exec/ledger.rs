//! The lease ledger: multi-process work-queue state, folded from the
//! shared journal's records.
//!
//! The journal file doubles as the coordination channel between a
//! dispatcher and its worker processes. Three ephemeral record kinds
//! ride alongside the durable manifest/run/job records (fields and
//! writers: the "Journal record format" table in DESIGN.md §Durability;
//! bytes: [`crate::journal::record`]):
//!
//! * `lease` — a worker claims a job. Appended *optimistically*: two
//!   workers may both append a lease for the same free job, and the
//!   ledger fold arbitrates — **first lease in file order wins**
//!   (O_APPEND gives all writers one total file order to agree on).
//!   The loser re-reads, sees it is not the holder, and moves on.
//! * `expire` — the dispatcher voids the matching lease. Appended only
//!   after the holder's process has been reaped (`waitpid`), so a dead
//!   worker can never publish a record for a job someone else
//!   re-leases: the process was provably gone before the job became
//!   free again.
//! * `hb` — worker liveness, for the dispatcher's stuck-worker
//!   detection and the `vbench top` monitor.
//!
//! None of these are fsync'd and none survive a resume: the journal
//! scan skips them and compaction scrubs them. The fsync'd job record
//! remains the only commit point — a job is Done exactly when its
//! record is in the file, which is the same rule `--resume` uses.
//!
//! Per-job state machine, folded in file order:
//!
//! ```text
//!          lease (first)            job record
//!   Free ───────────────▶ Leased ──────────────▶ Done (terminal)
//!     ▲                     │
//!     └─────────────────────┘
//!       expire (matching holder, after reap)
//! ```

use std::collections::BTreeMap;

use super::status::WorkerStatus;
use crate::journal::record::{self, Record};

/// Who holds (or held) a lease: enough identity to match an expire
/// record to its lease and to find the holder's process.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct LeaseId {
    /// The worker's dispatcher-assigned id.
    pub(crate) worker: u64,
    /// Per-claim nonce, unique within a worker process (so re-leasing
    /// the same job after an expire yields a distinguishable lease).
    pub(crate) nonce: u64,
    /// The worker's OS process id — what the dispatcher signals and
    /// reaps, and what tests kill.
    pub(crate) pid: u64,
}

/// One job's position in the lease state machine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum JobState {
    /// No live lease and no durable record: claimable.
    Free,
    /// Leased by the contained holder; not yet committed.
    Leased(LeaseId),
    /// A durable job record exists. Terminal: later leases and expires
    /// for this job are ignored.
    Done,
}

/// The ledger replayed to a point in time: per-job states plus the
/// liveness facts the dispatcher monitors.
pub(crate) struct LedgerView {
    /// Per-job lease state, indexed by job.
    pub(crate) states: Vec<JobState>,
    /// The first lease ever appended per job — the scripted
    /// worker-kill fault keys on this so a respawned worker does not
    /// re-fire the kill after reclaim.
    pub(crate) first_lease: Vec<Option<LeaseId>>,
    /// Whether any lease on this job was ever expired (reclaim
    /// telemetry).
    pub(crate) expired: Vec<bool>,
    /// What the records reveal about each worker — pid (from leases
    /// and heartbeats), latest heartbeat sequence and wall time, tagged
    /// job records committed — keyed by worker id. The fold leaves
    /// `in_flight` to [`super::status`], which reads it off `states`.
    pub(crate) workers: BTreeMap<u64, WorkerStatus>,
    /// Attempts beyond the first, summed over job records.
    pub(crate) retries: u64,
    /// Expire records in the file, matching a live lease or not.
    pub(crate) expire_records: u64,
}

impl LedgerView {
    /// Whether every job has a durable record.
    pub(crate) fn all_done(&self) -> bool {
        self.states.iter().all(|s| matches!(s, JobState::Done))
    }

    /// The current leaseholder of `job`, if it is leased.
    ///
    /// Invariant: read-only monitors call this with job indices taken
    /// from journal text they do not control, so an out-of-range index
    /// answers `None` (not leased) instead of panicking.
    pub(crate) fn holder(&self, job: usize) -> Option<LeaseId> {
        match self.states.get(job) {
            Some(JobState::Leased(id)) => Some(*id),
            _ => None,
        }
    }

    /// The lowest-indexed claimable job.
    pub(crate) fn first_free(&self) -> Option<usize> {
        self.states.iter().position(|s| matches!(s, JobState::Free))
    }

    /// Outstanding leases held by process `pid` — what the dispatcher
    /// expires after reaping that process.
    pub(crate) fn leases_of_pid(&self, pid: u64) -> Vec<(usize, LeaseId)> {
        self.states
            .iter()
            .enumerate()
            .filter_map(|(job, s)| match s {
                JobState::Leased(id) if id.pid == pid => Some((job, *id)),
                _ => None,
            })
            .collect()
    }
}

/// Folds the journal text into a [`LedgerView`] over `jobs` job
/// indices. Tolerant by construction: lines that are not committed
/// records (torn tails, foreign garbage) and out-of-range indices are
/// skipped — the durable scan in `crate::journal` owns corruption
/// accounting; this fold only needs a consistent coordination view, and
/// every process folding the same bytes gets the same view. Header-only:
/// a job record counts as Done on its header alone, its payload is never
/// decoded here.
pub(crate) fn replay_ledger(text: &str, jobs: usize) -> LedgerView {
    let mut view = LedgerView {
        states: vec![JobState::Free; jobs],
        first_lease: vec![None; jobs],
        expired: vec![false; jobs],
        workers: BTreeMap::new(),
        retries: 0,
        expire_records: 0,
    };
    fn worker(workers: &mut BTreeMap<u64, WorkerStatus>, id: u64) -> &mut WorkerStatus {
        workers.entry(id).or_insert_with(|| WorkerStatus { worker: id, ..Default::default() })
    }
    for record in record::records(text) {
        match record {
            Record::Job(rec) => {
                view.retries += u64::from(rec.attempts.saturating_sub(1));
                if let Some(id) = rec.worker {
                    let w = worker(&mut view.workers, id);
                    *(if rec.ok { &mut w.completed } else { &mut w.failed }) += 1;
                }
                if let Some(state) = view.states.get_mut(rec.job) {
                    *state = JobState::Done;
                }
            }
            Record::Lease { job, id } if job < jobs => {
                worker(&mut view.workers, id.worker).pid = Some(id.pid);
                view.first_lease[job].get_or_insert(id);
                // First lease on a free job wins; a lease raced onto an
                // already-leased or done job is a no-op for its writer.
                if view.states[job] == JobState::Free {
                    view.states[job] = JobState::Leased(id);
                }
            }
            Record::Expire { job, id } => {
                view.expire_records += 1;
                // Only the exact current holder can be expired: an
                // expire that raced with a newer lease must not void it.
                if view.states.get(job) == Some(&JobState::Leased(id)) {
                    view.states[job] = JobState::Free;
                    view.expired[job] = true;
                }
            }
            Record::Hb { worker: id, seq, pid, t_ms } => {
                let w = worker(&mut view.workers, id);
                w.hb_seq = w.hb_seq.max(seq);
                w.hb_wall_ms = w.hb_wall_ms.max(t_ms);
                w.pid = pid.or(w.pid);
            }
            _ => {}
        }
    }
    view
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A corrupt journal can put any index in a record; every view
    /// accessor must shrug, not panic.
    #[test]
    fn out_of_range_indices_are_ignored_everywhere() {
        let id = |worker| LeaseId { worker, nonce: 0, pid: 7 + worker };
        let text = [
            record::manifest_line(7, 2),
            record::lease_line(99, id(0)),
            record::expire_line(99, id(0)),
            record::job_line(42, "x", &record::testing::ok_chain(b"x", 1), None),
            record::lease_line(1, id(1)),
        ]
        .concat();
        let view = replay_ledger(&text, 2);
        assert_eq!(view.states[0], JobState::Free);
        assert!(matches!(view.states[1], JobState::Leased(_)));
        assert_eq!(view.holder(0), None);
        assert!(view.holder(1).is_some());
        assert_eq!(view.holder(99), None, "out-of-range holder query answers None");
        assert_eq!(view.first_free(), Some(0));
        assert_eq!(view.workers.keys().copied().collect::<Vec<_>>(), [1]);
    }
}
