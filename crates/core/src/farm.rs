//! Parallel batch transcoding with real worker threads — now resilient.
//!
//! The paper's reference machine runs ffmpeg on 4 cores / 8 threads;
//! production fleets drain upload queues with many workers per box. This
//! module is the workspace's real (not simulated — see [`crate::fleet`]
//! for the queueing model) parallel driver: a work-stealing batch encoder
//! over OS threads, used to measure aggregate box throughput and to
//! transcode the suite in parallel.
//!
//! It runs on the executor core in [`crate::exec`] (the in-process
//! [`crate::exec::local`] backend, drained by the one executor loop the
//! journal driver and the multi-process workers share):
//!
//! * [`transcode_batch`] drives [`EngineJob`]s through any
//!   [`Transcoder`] — software and hardware requests mix freely in one
//!   batch (this is how Tables 3/4/5 fan out) — under a
//!   [`ResilienceConfig`]: the default is zero-overhead (panic
//!   isolation only); an explicit policy adds retries with capped
//!   exponential backoff, per-job deadlines, straggler hedging, preset
//!   degradation, and deterministic fault injection.
//! * Raw [`vcodec::EncoderConfig`]s join a batch by lifting them with
//!   [`TranscodeRequest::from_config`], which reproduces every knob
//!   bit-for-bit.
//!
//! The engine path never dies wholesale: each attempt runs inside
//! `catch_unwind`, so one poisoned job reports
//! [`JobError::Panicked`] in its slot of the [`EngineBatchReport`]
//! instead of taking the batch down, and every other job's result is
//! byte-identical to an unfaulted run.

use crate::engine::{StreamOutcome, TranscodeError, TranscodeRequest, Transcoder};
use crate::exec::clock::WallClock;
use crate::exec::local::run_engine_batch;
use crate::exec::{predicted_work, ChainResult};
use crate::journal::JournalError;
use crate::resilience::ResilienceConfig;
use vframe::source::{FrameSource, VideoSource};
use vframe::Video;
use vsynth::SourceSpec;

/// Where an engine job's frames come from.
///
/// In-memory jobs carry the whole clip, rendered up front; synthetic
/// jobs carry only the [`SourceSpec`] and render frames on demand, so a
/// batch of them never materializes its inputs at all. Either way the
/// job runs through [`Transcoder::transcode_stream`] over
/// [`JobSource::open`].
#[derive(Clone, Debug)]
pub enum JobSource {
    /// A fully materialized clip.
    InMemory(Video),
    /// A synthetic source rendered frame by frame as the encoder pulls.
    Synth(SourceSpec),
}

impl JobSource {
    /// Total source pixels (frames × pixels per frame).
    pub fn total_pixels(&self) -> u64 {
        match self {
            JobSource::InMemory(v) => v.total_pixels(),
            JobSource::Synth(spec) => spec.resolution.pixels() * spec.frames as u64,
        }
    }

    /// Frame count.
    pub fn frames(&self) -> usize {
        match self {
            JobSource::InMemory(v) => v.len(),
            JobSource::Synth(spec) => spec.frames,
        }
    }

    /// Opens a fresh pull stream over the source.
    pub fn open(&self) -> Box<dyn FrameSource + '_> {
        match self {
            JobSource::InMemory(v) => Box::new(VideoSource::new(v)),
            JobSource::Synth(spec) => Box::new(spec.source()),
        }
    }
}

/// One engine transcode job: a frame source and the request to run it
/// with. The backend lives inside the request, so one batch can span
/// software and hardware rows. Every attempt pulls a fresh stream from
/// the source through [`Transcoder::transcode_stream`].
#[derive(Clone, Debug)]
pub struct EngineJob {
    /// Job label (e.g. the suite video name).
    pub name: String,
    /// Frame source.
    pub source: JobSource,
    /// Transcode request.
    pub request: TranscodeRequest,
    /// Per-job deadline on encode seconds, overriding the batch-wide
    /// [`ResilienceConfig::job_deadline_secs`]. The Live scenario derives
    /// this from the clip's real-time pixel rate
    /// ([`crate::scenario::live_deadline_secs_for`]).
    pub deadline_secs: Option<f64>,
}

impl EngineJob {
    /// An in-memory job with no per-job deadline.
    pub fn new(name: impl Into<String>, video: Video, request: TranscodeRequest) -> EngineJob {
        EngineJob::streaming(name, JobSource::InMemory(video), request)
    }

    /// A job over any source, with no per-job deadline.
    pub fn streaming(
        name: impl Into<String>,
        source: JobSource,
        request: TranscodeRequest,
    ) -> EngineJob {
        EngineJob { name: name.into(), source, request, deadline_secs: None }
    }

    /// Attaches a per-job deadline on encode seconds.
    pub fn with_deadline(mut self, secs: f64) -> EngineJob {
        self.deadline_secs = Some(secs);
        self
    }
}

/// Why one engine job ultimately failed (after exhausting its retry
/// budget).
#[derive(Clone, PartialEq, Debug)]
pub enum JobError {
    /// Every attempt returned a typed transcode error; this is the last
    /// one.
    Transcode(TranscodeError),
    /// The final attempt panicked; the panic was caught and isolated to
    /// this job.
    Panicked {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The final attempt produced a valid outcome, but its encode time
    /// exceeded the job's deadline.
    DeadlineExceeded {
        /// The deadline that applied, in seconds.
        deadline_secs: f64,
        /// The encode seconds the final attempt actually took.
        encode_secs: f64,
    },
    /// The job failed in a *previous* journaled run and the failure was
    /// replayed from the journal instead of re-run (`--resume` replays
    /// outcomes, successful or not; rerunning a failed job would change
    /// the batch's deterministic fault replay).
    ReplayedFailure {
        /// The original failure's message, as journaled.
        message: String,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Transcode(e) => e.fmt(f),
            JobError::Panicked { message } => write!(f, "job panicked: {message}"),
            JobError::DeadlineExceeded { deadline_secs, encode_secs } => {
                write!(f, "deadline {deadline_secs:.3}s exceeded: encode took {encode_secs:.3}s")
            }
            JobError::ReplayedFailure { message } => {
                write!(f, "failed in a previous journaled run: {message}")
            }
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Transcode(e) => Some(e),
            _ => None,
        }
    }
}

/// Why a batch could not run at all. Per-job failures do *not* land
/// here — they live in each job's slot of the [`EngineBatchReport`] —
/// except through [`EngineBatchReport::require_complete`], which converts
/// the first failed job (in job order) into [`BatchError::JobFailed`]
/// for callers that need every job to succeed.
#[derive(Clone, PartialEq, Debug)]
pub enum BatchError {
    /// The batch was asked to run on zero workers.
    NoWorkers,
    /// A job failed (first in job order), surfaced by
    /// [`EngineBatchReport::require_complete`].
    JobFailed {
        /// The failing job's label.
        job: String,
        /// Why it failed.
        error: JobError,
    },
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::NoWorkers => write!(f, "batch needs at least one worker"),
            BatchError::JobFailed { job, error } => write!(f, "job '{job}' failed: {error}"),
        }
    }
}

impl std::error::Error for BatchError {}

/// One finished engine job: its outcome (or why it failed) plus the
/// resilience history that produced it.
#[derive(Debug)]
pub struct EngineJobResult {
    /// Job label.
    pub name: String,
    /// The transcode's outcome, or why the job failed after its retry
    /// budget. A job replayed from a durability journal carries the
    /// journaled bitstream (CRC-verified on load), measurement, timings
    /// and stats — kernel counters zeroed, `peak_resident_frames` 0.
    pub outcome: Result<StreamOutcome, JobError>,
    /// Attempts run (1 = first try succeeded; 0 = replayed from a
    /// journal). Hedge copies do not count: they re-run the same attempt
    /// sequence.
    pub attempts: u32,
    /// Whether a hedge copy was launched for this job.
    pub hedged: bool,
    /// Effort notches shed by deadline-miss degradation (0 = the
    /// requested preset ran).
    pub degraded: u32,
    /// Whether any attempt missed its deadline.
    pub deadline_missed: bool,
}

impl EngineJobResult {
    /// The successful outcome, if the job completed.
    pub fn success(&self) -> Option<&StreamOutcome> {
        self.outcome.as_ref().ok()
    }

    /// The failure, if the job did not complete.
    pub fn error(&self) -> Option<&JobError> {
        self.outcome.as_ref().err()
    }
}

/// Aggregate resilience counters for one batch.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BatchSummary {
    /// Jobs that produced an outcome.
    pub completed: usize,
    /// Jobs that failed after exhausting their retry budget.
    pub failed: usize,
    /// Retry attempts run across the batch (excluding first attempts).
    pub retries: u64,
    /// Hedge copies launched.
    pub hedges: u64,
    /// Attempts whose encode time exceeded their deadline.
    pub deadline_misses: u64,
    /// Jobs that ran with a degraded (downshifted) preset.
    pub degraded: u64,
    /// Panics caught and isolated.
    pub panics: u64,
    /// Jobs whose outcome (success or failure) was replayed from a
    /// durability journal instead of re-run.
    pub replayed: usize,
    /// The largest peak frame residency any job that ran reported (0
    /// when every job replayed): the batch's bounded-memory high-water
    /// mark.
    pub peak_resident_frames: usize,
}

/// Aggregate outcome of an engine batch: per-job results (every job has
/// a slot, failed or not) plus the resilience summary.
#[derive(Debug)]
pub struct EngineBatchReport {
    /// Per-job results, in the order of the input jobs.
    pub results: Vec<EngineJobResult>,
    /// Resilience counters.
    pub summary: BatchSummary,
    /// Wall-clock seconds for the whole batch.
    pub wall_secs: f64,
    /// Aggregate throughput: total source pixels / wall seconds.
    pub aggregate_pps: f64,
    /// Sum of per-job modelled/measured transcode seconds over the jobs
    /// that completed.
    pub cpu_secs: f64,
}

impl EngineBatchReport {
    /// The one report fold every backend ends in: per-job results in job
    /// order plus the summary, from each job's resolved chain and
    /// whether a hedge copy was launched for it. Replayed chains
    /// (zero attempts) count as replayed and contribute no CPU-seconds —
    /// they carry the *original* run's timings, and only work done in
    /// this invocation counts here.
    pub(crate) fn from_chains(
        jobs: &[EngineJob],
        chains: impl IntoIterator<Item = (ChainResult, bool)>,
        hedges: u64,
        wall_secs: f64,
    ) -> EngineBatchReport {
        let mut results = Vec::with_capacity(jobs.len());
        let mut summary = BatchSummary { hedges, ..BatchSummary::default() };
        let mut cpu_secs = 0.0f64;
        for (job, (chain, hedged)) in jobs.iter().zip(chains) {
            match &chain.outcome {
                Ok(outcome) => {
                    summary.completed += 1;
                    summary.peak_resident_frames =
                        summary.peak_resident_frames.max(outcome.peak_resident_frames);
                    if !chain.was_replayed() {
                        cpu_secs += outcome.timings().total();
                    }
                }
                Err(error) => {
                    summary.failed += 1;
                    summary.panics += u64::from(matches!(error, JobError::Panicked { .. }));
                }
            }
            summary.replayed += usize::from(chain.was_replayed());
            summary.retries += u64::from(chain.attempts.saturating_sub(1));
            summary.deadline_misses += u64::from(chain.deadline_missed);
            summary.degraded += u64::from(chain.degraded > 0);
            results.push(EngineJobResult {
                name: job.name.clone(),
                outcome: chain.outcome,
                attempts: chain.attempts,
                hedged,
                degraded: chain.degraded,
                deadline_missed: chain.deadline_missed,
            });
        }
        if summary.failed > 0 {
            vtrace::counter("farm.jobs_failed", summary.failed as u64);
        }
        let total_pixels: u64 = jobs.iter().map(|j| j.source.total_pixels()).sum();
        EngineBatchReport {
            results,
            summary,
            wall_secs,
            aggregate_pps: total_pixels as f64 / wall_secs,
            cpu_secs,
        }
    }

    /// Parallel speedup achieved: transcode-seconds of work divided by
    /// wall-clock seconds (≈ effective busy workers).
    pub fn speedup(&self) -> f64 {
        self.cpu_secs / self.wall_secs.max(1e-9)
    }

    /// `(job index, transcode seconds)` of every job that ran to an
    /// outcome in this invocation (replays carry another run's clock).
    fn ran_secs(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.results.iter().enumerate().filter(|(_, r)| r.attempts > 0).filter_map(|(i, r)| {
            let outcome = r.outcome.as_ref().ok()?;
            Some((i, outcome.timings().total()))
        })
    }

    /// How well the cost model behind [`crate::exec::claim_order`] fits
    /// this batch: per job that ran, `100·|(p̂ᵢ/Σp̂) ÷ (tᵢ/Σt) − 1|` — the
    /// error of the job's predicted *share* of the batch against its
    /// measured share, so no machine-speed constant enters. `jobs` is
    /// the list the batch ran; the result follows job order, skipping
    /// jobs that failed or were replayed.
    pub fn predict_errors_pct(&self, jobs: &[EngineJob]) -> Vec<f64> {
        let fit: Vec<(f64, f64)> =
            self.ran_secs().map(|(i, secs)| (predicted_work(&jobs[i]), secs)).collect();
        let (work, secs) = fit.iter().fold((0.0, 0.0), |(w, s), (p, t)| (w + p, s + t));
        fit.iter().map(|(p, t)| 100.0 * ((p / work) / (t / secs) - 1.0).abs()).collect()
    }

    /// Wall time over the list-scheduling lower bound
    /// `max(longest tᵢ, Σt ÷ threads)` of the jobs that ran: 1.0 is a
    /// schedule no claim order could beat; the excess is lane time
    /// outside the jobs' own transcode seconds (tail idle, queueing, and
    /// the frame pulls). `None` when nothing ran.
    pub fn makespan_bound_ratio(&self, threads: usize) -> Option<f64> {
        let (longest, total) =
            self.ran_secs().fold((0.0f64, 0.0), |(l, s), (_, t)| (l.max(t), s + t));
        let lanes = threads.clamp(1, self.results.len().max(1));
        (total > 0.0).then(|| self.wall_secs / longest.max(total / lanes as f64))
    }

    /// The first failed job in job order, if any.
    pub fn first_failure(&self) -> Option<(&str, &JobError)> {
        self.results.iter().find_map(|r| r.error().map(|e| (r.name.as_str(), e)))
    }

    /// Demands an all-success batch: returns the report unchanged when
    /// every job completed, or [`BatchError::JobFailed`] for the first
    /// failure in job order (the pre-resilience all-or-nothing contract,
    /// for callers like the ladder whose output is meaningless with
    /// holes in it).
    pub fn require_complete(self) -> Result<EngineBatchReport, BatchError> {
        match self.first_failure() {
            None => Ok(self),
            Some((job, error)) => {
                Err(BatchError::JobFailed { job: job.to_string(), error: error.clone() })
            }
        }
    }
}

/// Runs `jobs` through `engine` on `workers` OS threads under `policy`:
/// [`ResilienceConfig::default`] is the zero-overhead policy (no
/// retries, no deadline, no hedging, no faults — panic isolation only);
/// an explicit one adds retries with capped exponential backoff,
/// per-job deadlines, straggler hedging, deadline-miss preset
/// degradation, and deterministic fault injection. Job order is
/// preserved in the results regardless of scheduling; every job gets a
/// slot whether it succeeded or failed.
///
/// Determinism: every per-job field that does not measure wall time —
/// bitstream bytes, chosen bitrate, success/failure status, attempt
/// count, degradation — is a pure function of `(jobs, policy)`,
/// independent of the worker count, because fault decisions key on
/// `(job index, attempt)` and hedge copies re-run the same attempt
/// sequence. The `hedged` flags and [`BatchSummary::hedges`] are the
/// exception: whether a hedge fires depends on observed wall time.
///
/// Jobs are claimed longest predicted work first
/// ([`crate::exec::claim_order`]), never in list order.
///
/// # Errors
///
/// [`BatchError::NoWorkers`] when `workers` is zero. Per-job failures do
/// not error the batch — see [`EngineBatchReport::require_complete`].
pub fn transcode_batch(
    engine: &dyn Transcoder,
    jobs: &[EngineJob],
    workers: usize,
    policy: &ResilienceConfig,
) -> Result<EngineBatchReport, BatchError> {
    run_engine_batch(engine, jobs, workers, policy, None, &WallClock).map_err(|e| match e {
        JournalError::Batch(e) => e,
        other => unreachable!("only a journal can stop a batch early: {other}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, RateMode};
    use crate::journal::record::testing::{request, source};
    use vcodec::{CodecFamily, Preset};
    use vhw::HwVendor;

    fn job(name: &str, seed: u32) -> EngineJob {
        EngineJob::new(name, source(seed), request())
    }

    /// A batch under the default (zero-overhead) policy.
    fn run(jobs: &[EngineJob], workers: usize) -> Result<EngineBatchReport, BatchError> {
        transcode_batch(&Engine, jobs, workers, &ResilienceConfig::default())
    }

    fn bytes_of(report: &EngineBatchReport) -> Vec<&[u8]> {
        report.results.iter().map(|r| r.success().expect("job succeeds").bytes()).collect()
    }

    #[test]
    fn batch_completes_all_jobs_in_order() {
        let jobs: Vec<EngineJob> = (0..7).map(|i| job(&format!("job{i}"), i)).collect();
        let report = run(&jobs, 4).expect("batch runs");
        assert_eq!(report.results.len(), 7);
        for (i, r) in report.results.iter().enumerate() {
            assert_eq!(r.name, format!("job{i}"), "result order preserved");
        }
        assert!(bytes_of(&report).iter().all(|b| !b.is_empty()));
        assert!(report.aggregate_pps > 0.0);
    }

    #[test]
    fn parallel_output_matches_serial_output() {
        // Encoding is deterministic, so thread scheduling must not change
        // a single bit of any stream.
        let jobs: Vec<EngineJob> = (0..4).map(|i| job(&format!("j{i}"), i)).collect();
        let parallel = run(&jobs, 4).expect("parallel batch");
        let serial = run(&jobs, 1).expect("serial batch");
        assert_eq!(bytes_of(&parallel), bytes_of(&serial));
    }

    #[test]
    fn more_workers_do_not_lose_work() {
        let jobs: Vec<EngineJob> = (0..3).map(|i| job(&format!("j{i}"), i)).collect();
        // More workers than jobs is fine.
        let report = run(&jobs, 16).expect("batch runs");
        assert_eq!(report.summary.completed, 3);
        assert!(report.speedup() > 0.0);
    }

    #[test]
    fn empty_batch_yields_empty_report() {
        let report = run(&[], 2).expect("empty batch is fine");
        assert!(report.results.is_empty());
        assert_eq!(report.summary, BatchSummary::default());
    }

    #[test]
    fn zero_workers_is_a_typed_error() {
        let err = run(&[job("j", 0)], 0).unwrap_err();
        assert_eq!(err, BatchError::NoWorkers);
    }

    #[test]
    fn engine_batch_mixes_backends() {
        let jobs = vec![
            EngineJob::new(
                "sw",
                source(0),
                TranscodeRequest::software(
                    CodecFamily::Avc,
                    Preset::Fast,
                    RateMode::ConstQuality { crf: 30.0 },
                ),
            ),
            EngineJob::new(
                "hw",
                source(1),
                TranscodeRequest::hardware(HwVendor::Nvenc, RateMode::Bitrate { bps: 400_000 }),
            ),
        ];
        let report = run(&jobs, 2).expect("batch runs");
        assert_eq!(report.results[0].name, "sw");
        assert_eq!(report.results[1].name, "hw");
        // The hardware job reports modelled stage timings.
        let hw = report.results[1].success().expect("hw job valid");
        assert!(hw.timings().transfer > 0.0);
        assert!(report.speedup() > 0.0);
        assert_eq!(report.summary.completed, 2);
        assert_eq!(report.summary.failed, 0);
    }

    #[test]
    fn engine_batch_surfaces_job_errors_per_slot() {
        let jobs = vec![
            EngineJob::new(
                "bad",
                source(0),
                TranscodeRequest::software(
                    CodecFamily::Avc,
                    Preset::Fast,
                    RateMode::Bitrate { bps: 0 },
                ),
            ),
            EngineJob::new(
                "good",
                source(1),
                TranscodeRequest::software(
                    CodecFamily::Avc,
                    Preset::Fast,
                    RateMode::ConstQuality { crf: 30.0 },
                ),
            ),
        ];
        let report = run(&jobs, 2).expect("batch still runs");
        assert!(report.results[0].error().is_some(), "bad job failed in its slot");
        assert!(report.results[1].success().is_some(), "good job unaffected");
        assert_eq!(report.summary.failed, 1);
        assert_eq!(report.summary.completed, 1);
        // The all-or-nothing view surfaces the first failure.
        let err = report.require_complete().unwrap_err();
        assert!(matches!(err, BatchError::JobFailed { ref job, .. } if job == "bad"));
    }

    #[test]
    fn structural_errors_do_not_burn_retries() {
        // A zero-bitrate request fails identically on every attempt; the
        // chain must fail fast instead of retrying it.
        let jobs = vec![EngineJob::new(
            "bad",
            source(0),
            TranscodeRequest::software(
                CodecFamily::Avc,
                Preset::Fast,
                RateMode::Bitrate { bps: 0 },
            ),
        )];
        let policy = ResilienceConfig::default().with_max_retries(5);
        let report = transcode_batch(&Engine, &jobs, 1, &policy).expect("batch runs");
        assert_eq!(report.results[0].attempts, 1, "non-retryable error fails fast");
        assert_eq!(report.summary.retries, 0);
    }
}
