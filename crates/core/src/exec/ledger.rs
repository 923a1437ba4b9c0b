//! The lease ledger: multi-process work-queue state, folded from the
//! records of a control-plane file that sits beside the journal.
//!
//! A dispatch keeps two files. The *journal* is the data plane: manifest,
//! run and fsync'd job records, payloads inline — what `--resume` reads.
//! The *ledger*, `<journal>.ledger` (`ledger_path`), is the control
//! plane: every record a participant needs to decide who runs what, and
//! nothing else. Workers claim, revalidate and heartbeat by re-reading the
//! ledger alone — a few KB — and never read the journal; the dispatcher
//! polls it, and `--status-out` / `vbench top` render it.
//!
//! The dispatcher creates (or truncates) the ledger at the start of every
//! run, before the first spawn (`create_ledger`): a header copying the
//! journal's manifest line and this run's run line, then one `done` per
//! job the resume scan replayed. After that it is append-only, `O_APPEND`,
//! never fsync'd and never resumed from. Four ephemeral record kinds
//! (fields and writers: the "Record format" tables in DESIGN.md
//! §Durability; bytes: `journal::record`):
//!
//! * `lease` — a worker claims a job. Appended *optimistically*: two
//!   workers may both append a lease for the same free job, and the
//!   ledger fold arbitrates — **first lease in file order wins**
//!   (O_APPEND gives all writers one total file order to agree on).
//!   The loser re-reads, sees it is not the holder, and moves on.
//! * `done` — the job's record is committed in the journal. A worker
//!   appends it right after the record's fsync returns; the dispatcher
//!   appends it on a dead worker's behalf when the reap finds the record
//!   already committed (`reconcile`).
//! * `expire` — the dispatcher voids the matching lease. Appended only
//!   after the holder's process has been reaped (`waitpid`) *and* the
//!   journal shows no committed record for the job, so a dead worker can
//!   never publish a record for a job someone else re-leases: the
//!   process was provably gone before the job became free again.
//! * `hb` — worker liveness, for the dispatcher's stuck-worker
//!   detection and the `vbench top` monitor.
//!
//! The fsync'd job record in the journal remains the only commit point —
//! a `done` is a hint that lets readers skip the payload file, and losing
//! one (a worker dying between commit and `done`) is repaired from the
//! journal at the reap. The fold treats a job record and a `done` alike,
//! so journal text folds to the same job states its ledger would.
//!
//! Per-job state machine, folded in file order:
//!
//! ```text
//!          lease (first)           done / job record
//!   Free ───────────────▶ Leased ──────────────▶ Done (terminal)
//!     ▲                     │
//!     └─────────────────────┘
//!       expire (matching holder, after reap)
//! ```
//!
//! Readers that come back to the ledger — a worker's claim, arbitration
//! and revalidation, the dispatcher's poll and its re-read after a reap —
//! keep a `LedgerFold` and hand it the whole file each time; it parses
//! only the lines appended since its last read. The invariant that makes
//! this exact: within a run the ledger is append-only, so a folded prefix
//! never changes, and a file shorter than what was folded is another file
//! (a new run truncated it), which the fold refolds from empty. A claim
//! still reads the whole file, but parses `O(new records)`, not `O(jobs)`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use super::clock::WallClock;
use super::io::{append_retrying, DurableFile, JournalIo};
use super::status::WorkerStatus;
use crate::journal::record::{self, DoneMark, Record};
use vfault::FileClass;

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
    /// A durable job record exists (the fold saw it, or a `done` marker
    /// for it). Terminal: later leases and expires for this job are
    /// ignored.
    Done,
}

/// The ledger replayed to a point in time: per-job states plus the
/// liveness facts the dispatcher monitors.
#[derive(Debug, PartialEq)]
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
    /// and heartbeats), latest heartbeat sequence and wall time, jobs
    /// committed — keyed by worker id. The fold leaves
    /// `in_flight` to [`super::status`], which reads it off `states`.
    pub(crate) workers: BTreeMap<u64, WorkerStatus>,
    /// Attempts beyond the first, summed over committed jobs.
    pub(crate) retries: u64,
    /// Expire records in the file, matching a live lease or not.
    pub(crate) expire_records: u64,
}

impl LedgerView {
    /// The view of a ledger with no records: every job free.
    fn new(jobs: usize) -> LedgerView {
        LedgerView {
            states: vec![JobState::Free; jobs],
            first_lease: vec![None; jobs],
            expired: vec![false; jobs],
            workers: BTreeMap::new(),
            retries: 0,
            expire_records: 0,
        }
    }

    /// Applies one committed record, the next in file order. A job
    /// record folds like the `done` that stands for it; out-of-range
    /// indices are skipped.
    fn fold(&mut self, record: Record) {
        match record {
            Record::Job(rec) => self.commit(rec.mark()),
            Record::Done(mark) => self.commit(mark),
            Record::Lease { job, id } if job < self.states.len() => {
                self.worker(id.worker).pid = Some(id.pid);
                self.first_lease[job].get_or_insert(id);
                // First lease on a free job wins; a lease raced onto an
                // already-leased or done job is a no-op for its writer.
                if self.states[job] == JobState::Free {
                    self.states[job] = JobState::Leased(id);
                }
            }
            Record::Expire { job, id } => {
                self.expire_records += 1;
                // Only the exact current holder can be expired: an
                // expire that raced with a newer lease must not void it.
                if self.states.get(job) == Some(&JobState::Leased(id)) {
                    self.states[job] = JobState::Free;
                    self.expired[job] = true;
                }
            }
            Record::Hb { worker: id, seq, pid, t_ms } => {
                let w = self.worker(id);
                w.hb_seq = w.hb_seq.max(seq);
                w.hb_wall_ms = w.hb_wall_ms.max(t_ms);
                w.pid = pid.or(w.pid);
            }
            _ => {}
        }
    }

    fn commit(&mut self, mark: DoneMark) {
        self.retries += u64::from(mark.attempts.saturating_sub(1));
        if let Some(id) = mark.worker {
            let w = self.worker(id);
            *(if mark.ok { &mut w.completed } else { &mut w.failed }) += 1;
        }
        if let Some(state) = self.states.get_mut(mark.job) {
            *state = JobState::Done;
        }
    }

    fn worker(&mut self, id: u64) -> &mut WorkerStatus {
        self.workers.entry(id).or_insert_with(|| WorkerStatus { worker: id, ..Default::default() })
    }

    /// Whether every job has a durable record.
    pub(crate) fn all_done(&self) -> bool {
        self.states.iter().all(|s| matches!(s, JobState::Done))
    }

    /// The current leaseholder of `job`, if it is leased.
    ///
    /// Invariant: read-only monitors call this with job indices taken
    /// from ledger text they do not control, so an out-of-range index
    /// answers `None` (not leased) instead of panicking.
    pub(crate) fn holder(&self, job: usize) -> Option<LeaseId> {
        match self.states.get(job) {
            Some(JobState::Leased(id)) => Some(*id),
            _ => None,
        }
    }

    /// The first claimable job in `order` (the batch's
    /// [`super::claim_order`]); indices the view does not cover are
    /// not claimable.
    pub(crate) fn first_free(&self, order: &[usize]) -> Option<usize> {
        order.iter().copied().find(|&job| self.states.get(job) == Some(&JobState::Free))
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

/// A [`LedgerView`] kept current across reads of one growing ledger:
/// [`LedgerFold::update`] takes the whole file as read now and parses
/// only the lines past the ones it has already folded.
pub(crate) struct LedgerFold {
    view: LedgerView,
    /// How far the text is folded (just past its last complete line) and
    /// whether the first usable manifest was among it.
    read: record::Committed,
}

thread_local! {
    /// Lines parsed by the ledger folds on this thread, counted in test
    /// builds only (`lines_folded`).
    static LINES_FOLDED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl LedgerFold {
    /// A fold over `jobs` job indices that has read nothing yet.
    pub(crate) fn new(jobs: usize) -> LedgerFold {
        LedgerFold { view: LedgerView::new(jobs), read: record::Committed::default() }
    }

    /// Brings the view up to `text`, the whole file as read now, and
    /// returns it. Within a run the ledger only grows, so the lines
    /// already folded are a prefix of `text` and only those past it are
    /// parsed; a `text` that does not reach that far is a different file
    /// (truncated by a new run), and is refolded from empty. Either way
    /// the view is the fold of all of `text` from empty.
    pub(crate) fn update(&mut self, text: &str) -> &LedgerView {
        if !text.is_char_boundary(self.read.end) {
            *self = LedgerFold::new(self.view.states.len());
        }
        let view = &mut self.view;
        let lines = self.read.extend(text, |record| view.fold(record));
        vtrace::counter("exec.ledger.lines_folded", lines as u64);
        if cfg!(test) {
            LINES_FOLDED.with(|n| n.set(n.get() + lines));
        }
        &self.view
    }

    /// The view as of the last [`LedgerFold::update`].
    pub(crate) fn view(&self) -> &LedgerView {
        &self.view
    }

    /// Whether the text folded so far holds a usable manifest.
    pub(crate) fn has_manifest(&self) -> bool {
        self.read.manifest.is_some()
    }
}

/// Folds ledger text into a [`LedgerView`] over `jobs` job indices: a
/// [`LedgerFold`] used once. Tolerant by construction: lines that are
/// not committed records (torn tails, foreign garbage) and out-of-range
/// indices are skipped — the durable scan in `crate::journal` owns
/// corruption accounting; this fold only needs a consistent coordination
/// view, and every process folding the same bytes gets the same view. A
/// job record folds like the `done` that stands for it (header only, its
/// payload is never decoded here), so journal text is valid input too.
pub(crate) fn replay_ledger(text: &str, jobs: usize) -> LedgerView {
    let mut fold = LedgerFold::new(jobs);
    fold.update(text);
    fold.view
}

/// The ledger file of the journal at `journal`: the same path plus
/// `.ledger`. Derived, never configured — every participant is handed the
/// journal path and finds the ledger from it.
pub(crate) fn ledger_path(journal: &Path) -> PathBuf {
    let mut path = journal.as_os_str().to_os_string();
    path.push(".ledger");
    PathBuf::from(path)
}

/// Starts a run's ledger beside `journal`: creates (or truncates) the
/// file and writes, in one append, the header — the journal's manifest
/// line and this run's run line — plus one `done` per job the resume scan
/// `replayed`. Returns the file reopened in `O_APPEND` mode for the
/// dispatcher's own `expire` / `done` records: the creating handle tracks
/// its own write position, which is wrong the moment workers append
/// concurrently.
pub(crate) fn create_ledger(
    io: &dyn JournalIo,
    journal: &Path,
    fingerprint: u32,
    jobs: usize,
    run: u32,
    replayed: impl Iterator<Item = DoneMark>,
) -> std::io::Result<Box<dyn DurableFile>> {
    let path = ledger_path(journal);
    let mut text = record::manifest_line(fingerprint, jobs) + &record::run_line(run);
    text.extend(replayed.map(record::done_line));
    append_retrying(io.create(FileClass::Journal, &path)?.as_mut(), text.as_bytes(), &WallClock)?;
    io.open_append(FileClass::Journal, &path)
}

/// Decides what the dispatcher appends for the leases a reaped process
/// left `dangling`, given journal text read *after* the reap: the jobs
/// whose record the journal already holds get a `done` (the worker died
/// between its commit and its `done`; expiring that lease would have the
/// job run and commit a second time), the rest get their lease expired.
/// A torn or unparseable record is no record.
pub(crate) fn reconcile(
    dangling: &[(usize, LeaseId)],
    journal_text: &str,
) -> (Vec<DoneMark>, Vec<(usize, LeaseId)>) {
    let committed: BTreeMap<usize, DoneMark> = record::records(journal_text)
        .filter_map(|r| match r {
            Record::Job(rec) => Some((rec.job, rec.mark())),
            _ => None,
        })
        .collect();
    let (mut done, mut expire) = (Vec::new(), Vec::new());
    for &(job, lease) in dangling {
        match committed.get(&job) {
            Some(mark) => done.push(*mark),
            None => expire.push((job, lease)),
        }
    }
    (done, expire)
}

/// Runs `f` and counts the ledger lines the folds on this thread parse
/// meanwhile: what the tests that pin each reader to one parse per line
/// count.
#[cfg(test)]
pub(crate) fn lines_folded<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = LINES_FOLDED.with(|n| n.get());
    let result = f();
    (result, LINES_FOLDED.with(|n| n.get()) - before)
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
        assert_eq!(view.first_free(&[99, 1, 0]), Some(0), "an index past the view is not free");
        assert_eq!(view.workers.keys().copied().collect::<Vec<_>>(), [1]);
    }

    const ID: LeaseId = LeaseId { worker: 1, nonce: 0, pid: 8 };

    fn done(job: usize, worker: Option<u64>, ok: bool, attempts: u32) -> String {
        record::done_line(DoneMark { job, worker, ok, attempts })
    }

    /// `done` is the ledger's stand-in for the job record: it makes the
    /// job Done for good and carries the record's header into the
    /// per-worker and retry totals.
    #[test]
    fn done_marks_fold_like_the_job_records_they_stand_for() {
        let other = LeaseId { worker: 2, nonce: 5, pid: 9 };
        let text = [
            record::manifest_line(7, 3),
            record::run_line(0),
            record::lease_line(0, ID),
            done(0, Some(1), true, 3),
            // A lease raced onto a finished job, and an expire for it:
            // both no-ops.
            record::lease_line(0, other),
            record::expire_line(0, other),
            // A replayed failure the dispatcher seeded: no worker.
            done(2, None, false, 0),
            // A corrupt index.
            done(99, Some(1), true, 1),
        ]
        .concat();
        let view = replay_ledger(&text, 3);
        assert_eq!(view.states, [JobState::Done, JobState::Free, JobState::Done]);
        assert!(!view.all_done());
        assert_eq!(view.first_free(&[0, 1, 2]), Some(1));
        assert_eq!(view.retries, 2, "attempts beyond the first");
        let w1 = &view.workers[&1];
        assert_eq!((w1.completed, w1.failed, w1.pid), (2, 0, Some(8)));
        assert_eq!(view.first_lease[0], Some(ID), "the raced lease did not replace the first");
        assert!(!view.expired[0]);

        // The same ledger with job records where the `done`s were folds
        // to the same job states.
        let chain = record::testing::ok_chain(b"x", 3);
        let as_journal = text
            .replace(&done(0, Some(1), true, 3), &record::job_line(0, "a", &chain, Some((1, 0))));
        assert_eq!(replay_ledger(&as_journal, 3).states, view.states);
    }

    /// A claim takes the first free job *in claim order*, whatever its
    /// index: leased and done jobs are passed over, an expired lease
    /// puts its job back in line at its own position.
    #[test]
    fn first_free_walks_the_claim_order() {
        let other = LeaseId { worker: 2, nonce: 0, pid: 9 };
        let order = [3, 1, 4, 0, 2];
        let mut text = [record::manifest_line(7, 5), record::run_line(0)].concat();
        let mut expect = |line: String, free: Option<usize>| {
            text.push_str(&line);
            assert_eq!(replay_ledger(&text, 5).first_free(&order), free, "after {line}");
        };
        expect(String::new(), Some(3));
        expect(record::lease_line(3, ID), Some(1));
        expect(record::lease_line(1, other), Some(4));
        expect(done(4, Some(1), true, 1), Some(0));
        // The holder of job 1 died: it is free again and ahead of 0.
        expect(record::expire_line(1, other), Some(1));
        expect(done(3, Some(1), true, 1), Some(1));
        expect(record::lease_line(1, ID), Some(0));
        expect(record::lease_line(0, ID), Some(2));
        expect(record::lease_line(2, ID), None);
        assert_eq!(replay_ledger(&text, 5).first_free(&[]), None);
    }

    /// The reap decision: a dangling lease over a committed record is
    /// completed on the dead worker's behalf, any other is expired.
    #[test]
    fn reaped_leases_are_settled_against_the_journal() {
        let jobs = record::testing::jobs(&["a", "b", "c", "d"]);
        let job = |i: usize, worker| {
            let chain = record::testing::ok_chain(b"x", 2);
            record::job_line(i, &jobs[i].name, &chain, Some((worker, 0)))
        };
        let lease = |nonce| LeaseId { worker: 1, nonce, pid: 8 };
        let dangling = [(0, lease(0)), (1, lease(1)), (2, lease(2)), (3, lease(3))];
        let journal = [
            record::manifest_line(7, 4),
            record::run_line(0),
            // Job 0: committed by the dead worker before its `done`.
            job(0, 1),
            // Job 1: nothing. Job 2: garbage where a record might be.
            "{\"kind\":\"job\",\"job\":2,\"name\"\n".to_string(),
            // Job 3: torn — the write never reached its newline.
            job(3, 1).trim_end().to_string(),
        ]
        .concat();
        let (done, expire) = reconcile(&dangling, &journal);
        assert_eq!(done, [DoneMark { job: 0, worker: Some(1), ok: true, attempts: 2 }]);
        assert_eq!(expire, dangling[1..]);
        // Nothing dangling, nothing to do — whatever the journal holds.
        assert_eq!(reconcile(&[], &journal), (vec![], vec![]));
    }

    /// A ledger line of each kind the fold meets, `kind` choosing which:
    /// usable and unusable manifests, runs, leases, expires (matching a
    /// lease or stale), heartbeats, `done`s and job records (both with
    /// indices past the batch), garbage with invalid UTF-8, and a torn
    /// line with no newline, which merges into whatever follows it.
    fn line(kind: u8, job: usize, worker: u64, nonce: u64) -> Vec<u8> {
        let id = LeaseId { worker, nonce, pid: 100 + worker };
        let line = match kind {
            0 => record::manifest_line(7, JOBS),
            1 => record::testing::unknown_version(&record::manifest_line(7, JOBS)),
            2 => record::run_line(nonce as u32),
            3 | 4 => record::lease_line(job, id),
            5 => record::expire_line(job, id),
            6 => record::hb_line(worker, nonce, 100 + worker, 1000 * nonce),
            7 => done(job, Some(worker).filter(|w| *w > 0), nonce > 0, nonce as u32),
            8 => {
                let chain = record::testing::ok_chain(b"x", nonce as u32 + 1);
                record::job_line(job, "a", &chain, Some((worker, 0)))
            }
            9 => return b"{\"kind\":\"done\",\"job\":1,\xff\xfe \xc3\xa9\n".to_vec(),
            _ => return record::lease_line(job, id).trim_end().as_bytes().to_vec(),
        };
        line.into_bytes()
    }

    const JOBS: usize = 4;

    /// The oracle: [`LedgerView::fold`] over the records [`record::scan`]
    /// finds in the whole text, its rules applied without the
    /// incremental reader.
    fn replay_scanned(text: &str) -> LedgerView {
        let mut view = LedgerView::new(JOBS);
        record::records(text).for_each(|r| view.fold(r));
        view
    }

    /// The text a whole-file read of the first `len` bytes returns.
    fn read(bytes: &[u8], len: usize) -> String {
        String::from_utf8_lossy(&bytes[..len]).into_owned()
    }

    const SCALE: u32 = if cfg!(debug_assertions) { 1 } else { 10 };

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig {
            cases: 256 * SCALE,
            ..proptest::ProptestConfig::default()
        })]

        /// The incremental fold is exact: fed a growing file in arbitrary
        /// pieces (cut mid-line, mid-character, before, at and after the
        /// manifest), its view after every piece equals the fold of the
        /// records [`record::scan`] finds in the same text and the
        /// one-shot [`replay_ledger`], and over all the pieces it parses
        /// each line once. A file that then reads shorter is refolded
        /// from empty.
        #[test]
        fn the_fold_of_any_pieces_equals_the_replay_of_their_text(
            items in proptest::collection::vec(
                (0u8..12, 0usize..JOBS + 2, 0u64..3, 0u64..3),
                0..48,
            ),
            cuts in proptest::collection::vec(proptest::any::<usize>(), 0..12),
            shorter in proptest::any::<usize>(),
        ) {
            let bytes: Vec<u8> =
                items.iter().flat_map(|&(kind, job, w, n)| line(kind, job, w, n)).collect();
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
            cuts.sort_unstable();
            cuts.push(bytes.len());
            let mut fold = LedgerFold::new(JOBS);
            let mut parsed = 0;
            for &cut in &cuts {
                let text = read(&bytes, cut);
                parsed += lines_folded(|| {
                    fold.update(&text);
                })
                .1;
                proptest::prop_assert_eq!(fold.view(), &replay_scanned(&text), "cut {}", cut);
                proptest::prop_assert_eq!(fold.view(), &replay_ledger(&text, JOBS), "cut {}", cut);
            }
            let whole = read(&bytes, bytes.len());
            proptest::prop_assert_eq!(parsed, whole.matches('\n').count(), "each line parsed once");

            // Shrink the file under the fold: it must start over.
            let folded = whole.rfind('\n').map_or(0, |i| i + 1);
            if folded > 0 {
                let mut cut = shorter % folded;
                while !whole.is_char_boundary(cut) {
                    cut -= 1;
                }
                let text = &whole[..cut];
                let parsed = lines_folded(|| {
                    fold.update(text);
                })
                .1;
                proptest::prop_assert_eq!(fold.view(), &replay_scanned(text));
                proptest::prop_assert_eq!(parsed, text.matches('\n').count(), "a refold");
            }
        }
    }

    /// A new run truncates the ledger and writes a new header: a fold
    /// that reads the shorter file refolds it rather than keep the old
    /// run's leases.
    #[test]
    fn a_truncated_ledger_is_refolded_from_empty() {
        let header = [record::manifest_line(7, 2), record::run_line(0)].concat();
        let mut fold = LedgerFold::new(2);
        let old = header.clone() + &record::lease_line(0, ID) + &done(1, Some(1), true, 1);
        assert!(matches!(fold.update(&old).states[..], [JobState::Leased(_), JobState::Done]));
        let new = header.replace("\"index\":0", "\"index\":1");
        assert_eq!(fold.update(&new), &replay_ledger(&new, 2));
        assert_eq!(fold.view().states, [JobState::Free; 2]);
        assert!(fold.has_manifest());
    }

    #[test]
    fn the_ledger_sits_beside_its_journal() {
        assert_eq!(
            ledger_path(Path::new("/x/out/batch.jsonl")),
            Path::new("/x/out/batch.jsonl.ledger")
        );
        assert_eq!(ledger_path(Path::new("j")), Path::new("j.ledger"));
    }
}
