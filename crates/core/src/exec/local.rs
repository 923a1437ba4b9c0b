//! The in-process executor backend.
//!
//! [`LocalQueue`] implements the [`WorkQueue`] contract over OS threads
//! in one process: a shared atomic cursor walks the batch's
//! [`claim_order`] (longest predicted work first), and in-memory result
//! slots take chains first-finisher-wins. Everything that is queue policy
//! lives here, not in the loop that drains it:
//!
//! * `claim` stops handing out work once the batch was told to abort,
//!   fires the scripted pre-encode crash of a journaled batch, and —
//!   once the cursor is exhausted — hedges stragglers: a hedge is a
//!   second ticket for an unfinished job, safe because attempt chains
//!   are deterministic. Candidates are scanned in claim order, so the
//!   longest-running primary is considered first. It blocks (polling)
//!   while unfinished jobs might still need a hedge.
//! * `publish` commits the race-winning chain under the job's slot
//!   lock, so a hedge copy can never double-commit. For a journaled
//!   batch the commit appends and fsyncs the job's record *before* the
//!   slot is filled: the record is the commit point.
//!
//! [`run_engine_batch`] is "build the queue, run [`drain`], fold the
//! slots into a report"; [`crate::farm::transcode_batch`] and the
//! journal driver are its two callers.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use super::io::DurableFile;
use super::{claim_order, drain, ChainResult, Ticket, WorkQueue};
use crate::engine::Transcoder;
use crate::farm::{EngineBatchReport, EngineJob};
use crate::journal::{io_err, record, JournalError, OpenedJournal};
use crate::resilience::{HedgePolicy, ResilienceConfig};
use vfault::CrashPoint;

/// Per-job shared state for the in-process queue.
struct JobSlot {
    result: Option<ChainResult>,
    /// When the primary copy started (hedge-eligibility clock).
    started_at: Option<Instant>,
    /// Whether a hedge copy has been claimed for this job.
    hedge_launched: bool,
}

/// Where a journaled batch commits its chains.
struct Sink {
    /// The open journal, positioned at end-of-file.
    file: Mutex<Box<dyn DurableFile>>,
    /// This invocation's run index: the key scripted crashes fire on.
    run_index: u32,
}

/// The in-process [`WorkQueue`]. Claims never expire (an OS thread
/// cannot die without the whole process dying), so tickets carry no
/// lease and `heartbeat` is the default no-op.
pub(crate) struct LocalQueue<'a> {
    jobs: &'a [EngineJob],
    policy: &'a ResilienceConfig,
    /// The batch's [`claim_order`]; `cursor` is a position in it.
    order: Vec<usize>,
    cursor: AtomicUsize,
    slots: Vec<Mutex<JobSlot>>,
    /// Unresolved jobs (claimed-but-unpublished or never claimed).
    remaining: AtomicUsize,
    /// Completed-chain wall times, the hedge threshold's sample.
    chain_secs: Mutex<Vec<f64>>,
    /// Hedge tickets handed out.
    hedges: AtomicU64,
    journal: Option<Sink>,
    /// Why the batch must stop, once it must: the first scripted crash
    /// to fire or journal-append error to surface. In-flight chains
    /// finish their current attempt, no new work starts, and no report
    /// is produced.
    abort: Mutex<Option<JournalError>>,
}

impl<'a> LocalQueue<'a> {
    /// A queue over `jobs`. With a journal, its replayed chains are
    /// seeded into their slots — claims walk past them, and live jobs
    /// keep their original indices, so fault-plan decisions replay
    /// identically whether or not slots were prefilled — and every
    /// winning chain is committed to it.
    pub(crate) fn new(
        jobs: &'a [EngineJob],
        policy: &'a ResilienceConfig,
        journal: Option<OpenedJournal>,
    ) -> LocalQueue<'a> {
        let mut slots: Vec<Mutex<JobSlot>> = (0..jobs.len())
            .map(|_| Mutex::new(JobSlot { result: None, started_at: None, hedge_launched: false }))
            .collect();
        let mut remaining = jobs.len();
        let journal = journal.map(|opened| {
            for (i, chain) in opened.prefilled {
                let slot = slots[i].get_mut().expect("slot lock");
                assert!(slot.result.is_none(), "job {i} prefilled twice");
                slot.result = Some(chain);
                remaining -= 1;
            }
            Sink { file: Mutex::new(opened.file), run_index: opened.run_index }
        });
        LocalQueue {
            jobs,
            policy,
            order: claim_order(jobs),
            cursor: AtomicUsize::new(0),
            slots,
            remaining: AtomicUsize::new(remaining),
            chain_secs: Mutex::new(Vec::new()),
            hedges: AtomicU64::new(0),
            journal,
            abort: Mutex::new(None),
        }
    }

    fn aborted(&self) -> bool {
        self.abort.lock().expect("abort cell").is_some()
    }

    /// Stops the batch; the first reason wins.
    fn abort_with(&self, why: JournalError) {
        self.abort.lock().expect("abort cell").get_or_insert(why);
    }

    /// The scripted crash for `job` in this run, if the batch is
    /// journaled (in-memory batches have no run to crash).
    fn crash_at(&self, job: usize) -> Option<CrashPoint> {
        let sink = self.journal.as_ref()?;
        self.policy.fault_plan.decide_crash(job, sink.run_index)
    }

    /// Makes `job`'s winning chain durable: appends and fsyncs its
    /// record, or dies at the scripted point on the way there. A no-op
    /// without a journal.
    fn commit(&self, job: usize, chain: &ChainResult) -> Result<(), JournalError> {
        let Some(sink) = &self.journal else { return Ok(()) };
        let crash = self.crash_at(job);
        if let Some(point @ CrashPoint::PostEncode) = crash {
            // Died after the encode, before any journal bytes: the work
            // is lost, the journal is clean.
            return Err(JournalError::Crashed { job, point });
        }
        let line = record::job_line(job, &self.jobs[job].name, chain, None);
        let mut file = sink.file.lock().expect("journal writer");
        if let Some(point @ CrashPoint::PreJournalFlush) = crash {
            // Died mid-append: leave a torn (partial, unsynced) line for
            // resume to quarantine. A disk error *during* the simulated
            // crash is a different event than the crash itself — it
            // surfaces as the IO error it is, so it cannot silently
            // change the test's meaning.
            file.append(&line.as_bytes()[..(line.len() - 1) / 2])
                .map_err(|e| io_err("append job record", e))?;
            return Err(JournalError::Crashed { job, point });
        }
        record::commit_job(file.as_mut(), &line).map_err(|e| io_err("append job record", e))
    }

    /// Finds and claims one hedge candidate: an unfinished job whose
    /// primary has been running longer than the policy threshold and
    /// that has no hedge yet. Returns its index, with the claim recorded
    /// so no second hedge launches.
    fn claim_hedge(&self, hedge: &HedgePolicy) -> Option<usize> {
        let threshold = {
            let times = self.chain_secs.lock().expect("chain times lock");
            if times.len() < hedge.min_samples.max(1) {
                return None;
            }
            let mut sorted = times.clone();
            drop(times);
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite chain times"));
            let q = hedge.quantile.clamp(0.0, 1.0);
            let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
            sorted[idx] * hedge.factor
        };
        for &i in &self.order {
            let mut s = self.slots[i].lock().expect("slot lock");
            if s.result.is_none() && !s.hedge_launched {
                if let Some(t0) = s.started_at {
                    if t0.elapsed().as_secs_f64() > threshold {
                        s.hedge_launched = true;
                        return Some(i);
                    }
                }
            }
        }
        None
    }

    /// Folds the drained queue into the batch report — or, when the
    /// batch was stopped early, the reason.
    fn into_report(self, wall_secs: f64) -> Result<EngineBatchReport, JournalError> {
        if let Some(why) = self.abort.into_inner().expect("abort cell") {
            return Err(why);
        }
        let hedges = self.hedges.into_inner();
        // Invariant: without an abort, claims answer drained only after
        // every slot was filled, and the loop joined every thread.
        let chains = self.slots.into_iter().map(|slot| {
            let slot = slot.into_inner().expect("slot lock");
            (slot.result.expect("every job resolved"), slot.hedge_launched)
        });
        Ok(EngineBatchReport::from_chains(self.jobs, chains, hedges, wall_secs))
    }
}

impl WorkQueue for LocalQueue<'_> {
    fn claim(&self) -> Option<Ticket> {
        loop {
            if self.aborted() {
                return None;
            }
            let next = self.cursor.fetch_add(1, Ordering::Relaxed);
            if let Some(&i) = self.order.get(next) {
                let mut slot = self.slots[i].lock().expect("slot lock");
                // Prefilled (replayed) slots are already resolved; the
                // cursor just walks past them.
                if slot.result.is_some() {
                    continue;
                }
                vtrace::counter("exec.leases_granted", 1);
                if let Some(point @ CrashPoint::PreEncode) = self.crash_at(i) {
                    self.abort_with(JournalError::Crashed { job: i, point });
                    return None;
                }
                let started = Instant::now();
                slot.started_at = Some(started);
                return Some(Ticket { job: i, started, lease: None });
            }
            // Every job has a primary: hedge stragglers, or report
            // drained once everything is done.
            if self.remaining.load(Ordering::Acquire) == 0 {
                return None;
            }
            let hedge = self.policy.hedge?;
            match self.claim_hedge(&hedge) {
                Some(job) => {
                    vtrace::counter("farm.hedges", 1);
                    self.hedges.fetch_add(1, Ordering::Relaxed);
                    return Some(Ticket { job, started: Instant::now(), lease: None });
                }
                // No straggler past the threshold yet: let the
                // in-flight primaries advance before rescanning.
                None => std::thread::sleep(Duration::from_micros(200)),
            }
        }
    }

    fn publish(&self, ticket: Ticket, chain: ChainResult) -> bool {
        {
            let mut slot = self.slots[ticket.job].lock().expect("slot lock");
            if slot.result.is_some() {
                // The other copy won the race. Both copies ran the
                // identical deterministic attempt sequence, so nothing
                // is lost.
                vtrace::counter("farm.hedge_losses", 1);
                return true;
            }
            // Commit while the slot lock is held: exactly one copy of a
            // hedged job reaches the journal.
            if let Err(why) = self.commit(ticket.job, &chain) {
                self.abort_with(why);
                return false;
            }
            slot.result = Some(chain);
        }
        vtrace::counter("exec.jobs_completed", 1);
        // The finishing copy's own wall time, hedge copies included.
        let secs = ticket.started.elapsed().as_secs_f64();
        self.chain_secs.lock().expect("chain times lock").push(secs);
        self.remaining.fetch_sub(1, Ordering::AcqRel);
        true
    }
}

/// Runs `jobs` on the in-process backend: builds the queue (seeded from
/// and committing to `journal`, when there is one), drains it on
/// `workers` threads, and folds the slots into the batch report.
///
/// # Errors
///
/// [`JournalError::Batch`] for zero workers; with a journal,
/// [`JournalError::Crashed`] when a scripted crash fired and
/// [`JournalError::Io`] when a record could not be committed. Without a
/// journal only the first can happen.
pub(crate) fn run_engine_batch(
    engine: &dyn Transcoder,
    jobs: &[EngineJob],
    workers: usize,
    policy: &ResilienceConfig,
    journal: Option<OpenedJournal>,
) -> Result<EngineBatchReport, JournalError> {
    let mut batch_span = vtrace::span("farm.batch");
    let started = Instant::now();
    let queue = LocalQueue::new(jobs, policy, journal);
    let threads = drain(&queue, engine, jobs, workers, policy).map_err(JournalError::Batch)?;
    let wall_secs = started.elapsed().as_secs_f64().max(1e-9);
    let report = queue.into_report(wall_secs)?;
    let summary = &report.summary;
    if batch_span.id().is_some() {
        batch_span.record("jobs", jobs.len());
        batch_span.record("workers", threads);
        batch_span.record("failed", summary.failed as u64);
        batch_span.record("retries", summary.retries);
        if summary.peak_resident_frames > 0 {
            vtrace::gauge("farm.peak_resident_frames", summary.peak_resident_frames as f64);
        }
        // The claim order rides on the cost model: how well did it fit?
        for error in report.predict_errors_pct(jobs) {
            vtrace::histogram("fleet.predict_error", error.round() as u64);
        }
        if let Some(ratio) = report.makespan_bound_ratio(threads) {
            vtrace::gauge("farm.makespan_bound_ratio", ratio);
        }
    }
    drop(batch_span);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::StdIo;
    use crate::journal::record::testing::{ok_chain, request, source, TempJournal};
    use crate::journal::record::Record;
    use crate::journal::{open_journal, JournalConfig};

    /// Three jobs whose claim order is not their index order: job 2 is
    /// the biggest, job 0 the smallest.
    fn uneven_jobs() -> Vec<EngineJob> {
        let clip = |frames: usize| vframe::Video::new(source(0).frames()[..frames].to_vec(), 30.0);
        [("small", 2), ("mid", 4), ("big", 6)]
            .into_iter()
            .map(|(name, frames)| EngineJob::new(name, clip(frames), request()))
            .collect()
    }

    /// One thread claims exactly the claim order, minus the slots a
    /// resumed journal prefilled.
    #[test]
    fn a_single_thread_claims_in_claim_order_past_prefilled_slots() {
        let jobs = uneven_jobs();
        assert_eq!(claim_order(&jobs), [2, 1, 0]);
        let policy = ResilienceConfig::default();
        let drain_order = |queue: &LocalQueue| -> Vec<usize> {
            std::iter::from_fn(|| {
                let ticket = queue.claim()?;
                let job = ticket.job;
                assert!(queue.publish(ticket, ok_chain(b"x", 1)));
                Some(job)
            })
            .collect()
        };
        assert_eq!(drain_order(&LocalQueue::new(&jobs, &policy, None)), [2, 1, 0]);

        // The same batch resumed with the middle job already durable.
        let temp = TempJournal::new("claim-order");
        let config = JournalConfig::new(temp.path());
        let first = open_journal(&config, &jobs, &policy, &StdIo).expect("fresh journal");
        let queue = LocalQueue::new(&jobs, &policy, Some(first));
        let mid = Ticket { job: 1, started: Instant::now(), lease: None };
        assert!(queue.publish(mid, ok_chain(b"x", 1)));
        drop(queue);
        let resumed = open_journal(&config.with_resume(true), &jobs, &policy, &StdIo);
        let queue = LocalQueue::new(&jobs, &policy, Some(resumed.expect("resume")));
        assert_eq!(drain_order(&queue), [2, 0]);
    }

    /// (c) A hedge is a second ticket for an unfinished job: both
    /// tickets publish, the job is committed to the journal once, and
    /// the summary counts the hedge.
    #[test]
    fn both_copies_of_a_hedged_job_publish_and_one_commits() {
        // Unequal jobs, so the claim order (biggest first) is not the
        // index order: the first primary out is the straggler.
        let jobs = uneven_jobs();
        let order = claim_order(&jobs);
        let straggler = order[0];
        // Any job still running once two chains have finished is a
        // straggler.
        let policy = ResilienceConfig::default().with_hedge(HedgePolicy {
            quantile: 0.5,
            factor: 0.0,
            min_samples: 2,
        });
        let temp = TempJournal::new("hedge");
        let opened = open_journal(&JournalConfig::new(temp.path()), &jobs, &policy, &StdIo);
        let queue = LocalQueue::new(&jobs, &policy, Some(opened.expect("fresh journal")));

        let tickets: Vec<Ticket> = (0..3).map(|_| queue.claim().expect("a primary")).collect();
        let [primary, a, b] = <[Ticket; 3]>::try_from(tickets).ok().expect("three tickets");
        assert_eq!([primary.job, a.job, b.job], order[..]);
        assert!(queue.publish(a, ok_chain(b"a", 1)));
        assert!(queue.publish(b, ok_chain(b"b", 1)));
        let hedge = queue.claim().expect("the straggler's hedge");
        assert_eq!(hedge.job, straggler);
        assert!(queue.publish(hedge, ok_chain(b"s", 1)), "the hedge copy wins");
        assert!(queue.publish(primary, ok_chain(b"s", 1)), "the losing copy is dropped quietly");
        assert!(queue.claim().is_none(), "drained");

        let report = queue.into_report(1.0).expect("no abort");
        assert_eq!(report.summary.hedges, 1);
        let hedged: Vec<bool> = report.results.iter().map(|r| r.hedged).collect();
        assert_eq!(hedged, [false, false, true], "job {straggler} alone");
        let text = std::fs::read_to_string(temp.path()).expect("journal readable");
        let commits = record::records(&text)
            .filter(|r| matches!(r, Record::Job(rec) if rec.job == straggler))
            .count();
        assert_eq!(commits, 1, "exactly one commit for the hedged job");
    }
}
