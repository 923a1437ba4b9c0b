//! The in-process executor backend: a work-stealing scheduler over OS
//! threads.
//!
//! [`LocalQueue`] implements the [`WorkQueue`] contract with a shared
//! atomic cursor (claim = next unresolved index) and in-memory result
//! slots (publish = first finisher wins). On top of it,
//! [`run_engine_batch`] adds what only makes sense in-process: straggler
//! hedging (a second copy of a slow job — safe because attempt chains
//! are deterministic), supervisor hooks (the journal driver's
//! prefill/commit/abort flow), and the farm's utilization telemetry.
//!
//! Every `transcode_batch*` entry point in [`crate::farm`] and the
//! journal driver run on this backend; its scheduling behavior and
//! trace-event stream are pinned byte-identical to the pre-`exec` farm.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use super::{ChainResult, WorkQueue};
use crate::engine::Transcoder;
use crate::farm::{BatchError, EngineBatchReport, EngineJob, JobError, JobOutcome};
use crate::resilience::{degraded_request, FaultyTranscoder, ResilienceConfig};

/// Post-job supervisor hook: `(job index, winning chain) -> continue?`.
pub(crate) type AfterJobHook<'a> = &'a (dyn Fn(usize, &ChainResult) -> bool + Sync);

/// Supervisor hooks for [`run_engine_batch`]: the mechanism the journal
/// driver uses to persist results as they land and to simulate scripted
/// process crashes without duplicating the scheduler.
///
/// A hook returning `false` aborts the whole batch
/// ([`BatchError::Aborted`]): in-flight chains finish their current
/// attempt, no new work starts, and no report is produced.
#[derive(Default)]
pub(crate) struct BatchHooks<'a> {
    /// Pre-resolved chains, one per `(job index, result)` pair: the
    /// scheduler seeds these slots and never runs those jobs. Live jobs
    /// keep their original indices, so fault-plan decisions replay
    /// identically whether or not slots were prefilled.
    pub(crate) prefilled: Vec<(usize, ChainResult)>,
    /// Runs before a job's first attempt starts (the journal driver's
    /// pre-encode crash point).
    pub(crate) before_job: Option<&'a (dyn Fn(usize) -> bool + Sync)>,
    /// Runs once per job, for the race-winning chain only, while the
    /// job's slot lock is held (so a hedge copy can never double-fire
    /// it). This is where the journal driver appends and fsyncs the
    /// job's record.
    pub(crate) after_job: Option<AfterJobHook<'a>>,
}

/// Runs one job's full attempt chain: first attempt plus retries under
/// the policy, with fault injection, panic isolation, deadline checks,
/// backoff, and deadline-miss degradation. Pure with respect to
/// scheduling: the chain's decisions depend only on
/// `(job index, attempt)` and the outcome contents, so a hedge copy —
/// or a worker in another process — re-running the chain lands on a
/// byte-identical result.
pub(crate) fn run_attempt_chain(
    engine: &dyn Transcoder,
    job_index: usize,
    job: &EngineJob,
    policy: &ResilienceConfig,
) -> ChainResult {
    let deadline = job.deadline_secs.or(policy.job_deadline_secs);
    let mut degraded = 0u32;
    let mut deadline_missed = false;
    let mut attempt = 0u32;
    loop {
        let faulty =
            FaultyTranscoder { inner: engine, plan: &policy.fault_plan, job: job_index, attempt };
        let request = degraded_request(&job.request, degraded);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            if job.stream {
                // A fresh pull stream per attempt: retries re-pull from
                // frame zero, exactly like the in-memory path re-reads
                // the clip.
                let mut source = job.source.open();
                faulty.transcode_stream(source.as_mut(), &request).map(JobOutcome::Streamed)
            } else {
                faulty.transcode(&job.source.materialize(), &request).map(JobOutcome::Full)
            }
        }));
        let failure = match caught {
            Ok(Ok(outcome)) => match deadline {
                Some(limit) if outcome.timings().total() > limit => {
                    deadline_missed = true;
                    vtrace::counter("farm.deadline_misses", 1);
                    Err(JobError::DeadlineExceeded {
                        deadline_secs: limit,
                        encode_secs: outcome.timings().total(),
                    })
                }
                _ => Ok(outcome),
            },
            Ok(Err(e)) => Err(JobError::Transcode(e)),
            Err(payload) => {
                vtrace::counter("farm.panics_caught", 1);
                Err(JobError::Panicked { message: panic_message(payload.as_ref()) })
            }
        };
        match failure {
            Ok(outcome) => {
                return ChainResult {
                    outcome: Ok(outcome),
                    attempts: attempt + 1,
                    degraded,
                    deadline_missed,
                };
            }
            Err(error) => {
                let retryable = match &error {
                    JobError::Transcode(e) => e.is_retryable(),
                    JobError::Panicked { .. } | JobError::DeadlineExceeded { .. } => true,
                    // Never produced by a live chain; replays only come
                    // from prefilled journal slots.
                    JobError::ReplayedFailure { .. } => false,
                };
                if attempt >= policy.max_retries || !retryable {
                    return ChainResult {
                        outcome: Err(error),
                        attempts: attempt + 1,
                        degraded,
                        deadline_missed,
                    };
                }
                if matches!(error, JobError::DeadlineExceeded { .. }) {
                    if policy.degrade_on_deadline_miss {
                        degraded += 1;
                        vtrace::counter("farm.degraded", 1);
                    }
                } else {
                    // Backoff applies to error/panic retries: a deadline
                    // miss already *has* a result, waiting cannot help it.
                    let wait = policy.backoff_secs(attempt + 1);
                    if wait > 0.0 {
                        vtrace::histogram("farm.backoff_wait_us", (wait * 1e6) as u64);
                        std::thread::sleep(std::time::Duration::from_secs_f64(wait));
                    }
                }
                vtrace::counter("farm.retries", 1);
                attempt += 1;
            }
        }
    }
}

/// The panic payload's message, when it carried one.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Per-job shared state for the in-process queue.
pub(crate) struct JobSlot {
    pub(crate) result: Option<ChainResult>,
    /// When the primary copy started (hedge-eligibility clock).
    pub(crate) started_at: Option<Instant>,
    /// Whether a hedge copy has been claimed for this job.
    pub(crate) hedge_launched: bool,
}

/// The in-process [`WorkQueue`]: a shared atomic cursor hands out job
/// indices, in-memory slots take results first-finisher-wins. Claims
/// never expire (an OS thread cannot die without the whole process
/// dying), so there is no lease bookkeeping and `heartbeat` is the
/// default no-op.
pub(crate) struct LocalQueue<'a> {
    cursor: AtomicUsize,
    slots: Vec<Mutex<JobSlot>>,
    remaining: AtomicUsize,
    /// Completed-chain wall times, the hedge threshold's sample.
    chain_secs: Mutex<Vec<f64>>,
    hooks: BatchHooks<'a>,
    abort: AtomicBool,
}

impl<'a> LocalQueue<'a> {
    /// A queue over `jobs` slots, with the hooks' prefilled (replayed)
    /// chains already seeded so claims walk past them.
    pub(crate) fn new(jobs: usize, mut hooks: BatchHooks<'a>) -> LocalQueue<'a> {
        let mut slots: Vec<Mutex<JobSlot>> = (0..jobs)
            .map(|_| Mutex::new(JobSlot { result: None, started_at: None, hedge_launched: false }))
            .collect();
        let mut prefilled_count = 0usize;
        for (i, chain) in hooks.prefilled.drain(..) {
            let slot = slots[i].get_mut().expect("slot lock");
            assert!(slot.result.is_none(), "job {i} prefilled twice");
            slot.result = Some(chain);
            prefilled_count += 1;
        }
        LocalQueue {
            cursor: AtomicUsize::new(0),
            remaining: AtomicUsize::new(jobs - prefilled_count),
            slots,
            chain_secs: Mutex::new(Vec::new()),
            hooks,
            abort: AtomicBool::new(false),
        }
    }

    /// Whether a hook or commit failure demanded a batch abort.
    fn aborted(&self) -> bool {
        self.abort.load(Ordering::Acquire)
    }

    fn request_abort(&self) {
        self.abort.store(true, Ordering::Release);
    }

    /// Unresolved jobs (claimed-but-unpublished or never claimed).
    fn remaining(&self) -> usize {
        self.remaining.load(Ordering::Acquire)
    }

    /// Fires the supervisor's pre-job hook for a claimed index; `false`
    /// aborts the batch.
    fn before_job(&self, job: usize) -> bool {
        match self.hooks.before_job {
            Some(before) => before(job),
            None => true,
        }
    }

    /// Marks the primary copy's start for the hedge-eligibility clock.
    fn mark_started(&self, job: usize, t0: Instant) {
        self.slots[job].lock().expect("slot lock").started_at = Some(t0);
    }

    /// [`WorkQueue::publish`] with the finishing copy's own start time,
    /// so hedge finishers contribute their true chain wall time to the
    /// hedge threshold sample.
    fn publish_timed(&self, job: usize, t0: Instant, chain: ChainResult) -> bool {
        {
            let mut s = self.slots[job].lock().expect("slot lock");
            if s.result.is_some() {
                // The other copy won the race. Both copies ran the
                // identical deterministic attempt sequence, so nothing
                // is lost.
                vtrace::counter("farm.hedge_losses", 1);
                return true;
            }
            if let Some(after) = self.hooks.after_job {
                if !after(job, &chain) {
                    return false;
                }
            }
            s.result = Some(chain);
        }
        vtrace::counter("exec.jobs_completed", 1);
        self.chain_secs.lock().expect("chain times lock").push(t0.elapsed().as_secs_f64());
        self.remaining.fetch_sub(1, Ordering::AcqRel);
        true
    }

    /// Finds and claims one hedge candidate: an unfinished job whose
    /// primary has been running longer than the policy threshold and
    /// that has no hedge yet. Returns its index, with the claim recorded
    /// so no second hedge launches.
    fn claim_hedge(&self, hedge: &crate::resilience::HedgePolicy) -> Option<usize> {
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
        for (i, slot) in self.slots.iter().enumerate() {
            let mut s = slot.lock().expect("slot lock");
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

    /// Consumes the queue into its per-job slots for report assembly.
    fn into_slots(self) -> Vec<JobSlot> {
        self.slots.into_iter().map(|s| s.into_inner().expect("slot lock")).collect()
    }
}

impl WorkQueue for LocalQueue<'_> {
    fn claim(&self) -> Option<usize> {
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.slots.len() {
                return None;
            }
            // Prefilled (replayed) slots are already resolved; the
            // cursor just walks past them.
            if self.slots[i].lock().expect("slot lock").result.is_some() {
                continue;
            }
            vtrace::counter("exec.leases_granted", 1);
            return Some(i);
        }
    }

    fn publish(&self, job: usize, chain: ChainResult) -> bool {
        let t0 = self.slots[job].lock().expect("slot lock").started_at;
        self.publish_timed(job, t0.unwrap_or_else(Instant::now), chain)
    }
}

/// The full scheduler behind `transcode_batch_resilient`, with
/// supervisor hooks: prefilled (replayed) slots, per-job callbacks, and
/// cooperative abort. The journal driver is the only other caller.
pub(crate) fn run_engine_batch(
    engine: &dyn Transcoder,
    jobs: &[EngineJob],
    workers: usize,
    policy: &ResilienceConfig,
    hooks: BatchHooks<'_>,
) -> Result<EngineBatchReport, BatchError> {
    if workers == 0 {
        return Err(BatchError::NoWorkers);
    }
    let spawned = workers.min(jobs.len());
    let mut batch_span = vtrace::span("farm.batch");
    let batch_id = batch_span.id();
    let started = Instant::now();
    let hedges_launched = AtomicU64::new(0);
    let busy_us = AtomicU64::new(0);
    let queue = LocalQueue::new(jobs.len(), hooks);

    std::thread::scope(|scope| {
        for _ in 0..spawned {
            scope.spawn(|| {
                // Parent is passed explicitly: the batch span lives on the
                // main thread's stack, invisible to this thread's.
                let mut worker_span = vtrace::span_with_parent("farm.worker", batch_id);
                let mut jobs_done = 0u64;
                loop {
                    if queue.aborted() {
                        break;
                    }
                    if let Some(i) = queue.claim() {
                        if !queue.before_job(i) {
                            queue.request_abort();
                            break;
                        }
                        if vtrace::enabled() {
                            // Queue wait: how long the job sat between
                            // batch start and this worker picking it up.
                            vtrace::histogram(
                                "farm.queue_wait_us",
                                started.elapsed().as_micros() as u64,
                            );
                            if jobs_done > 0 {
                                // Every grab after a worker's first is a
                                // pull from the shared queue.
                                vtrace::counter("farm.steals", 1);
                            }
                        }
                        let t0 = Instant::now();
                        queue.mark_started(i, t0);
                        let chain = run_attempt_chain(engine, i, &jobs[i], policy);
                        busy_us.fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
                        jobs_done += 1;
                        if !queue.publish_timed(i, t0, chain) {
                            queue.request_abort();
                            break;
                        }
                        continue;
                    }
                    // Primary queue drained: hedge stragglers, or exit
                    // when everything is done.
                    if queue.remaining() == 0 {
                        break;
                    }
                    let Some(hedge) = policy.hedge else { break };
                    match queue.claim_hedge(&hedge) {
                        Some(h) => {
                            vtrace::counter("farm.hedges", 1);
                            hedges_launched.fetch_add(1, Ordering::Relaxed);
                            let t0 = Instant::now();
                            let chain = run_attempt_chain(engine, h, &jobs[h], policy);
                            busy_us.fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
                            if !queue.publish_timed(h, t0, chain) {
                                queue.request_abort();
                                break;
                            }
                        }
                        // No straggler past the threshold yet: let the
                        // in-flight primaries advance before rescanning.
                        None => std::thread::sleep(std::time::Duration::from_micros(200)),
                    }
                }
                if worker_span.id().is_some() {
                    worker_span.record("jobs", jobs_done);
                    vtrace::counter("farm.jobs_completed", jobs_done);
                }
            });
        }
    });

    if queue.aborted() {
        return Err(BatchError::Aborted);
    }
    let wall_secs = started.elapsed().as_secs_f64().max(1e-9);
    // Invariant: the scope joined every worker and `remaining` hit zero
    // only after every slot was filled.
    let chains = queue
        .into_slots()
        .into_iter()
        .map(|slot| (slot.result.expect("every job resolved"), slot.hedge_launched));
    let report = EngineBatchReport::from_chains(
        jobs,
        chains,
        hedges_launched.load(Ordering::Relaxed),
        wall_secs,
    );
    let summary = &report.summary;
    if batch_span.id().is_some() {
        batch_span.record("jobs", jobs.len());
        batch_span.record("workers", spawned);
        batch_span.record("failed", summary.failed as u64);
        batch_span.record("retries", summary.retries);
        if summary.peak_resident_frames > 0 {
            vtrace::gauge("farm.peak_resident_frames", summary.peak_resident_frames as f64);
        }
        let utilization =
            busy_us.load(Ordering::Relaxed) as f64 / 1e6 / (spawned.max(1) as f64 * wall_secs);
        vtrace::gauge("farm.batch_utilization", utilization);
    }
    drop(batch_span);
    Ok(report)
}
