//! Fault-injection integration tests: the resilient farm under
//! deterministic fault plans.
//!
//! The invariant under test everywhere: fault decisions key on
//! `(job index, attempt)`, never on wall clock or scheduling, so a
//! seeded plan replays bit-exactly at any worker count — and every job a
//! plan does *not* touch produces bytes identical to an uninjected run.

use vbench::engine::{Engine, RateMode, TranscodeRequest};
use vbench::farm::{transcode_batch, EngineBatchReport, EngineJob, JobError};
use vbench::resilience::{HedgePolicy, ResilienceConfig};
use vbench::suite::{Suite, SuiteOptions};
use vcodec::{CodecFamily, Preset};
use vfault::{FaultKind, FaultPlan, RandomFaults};

/// A small mixed batch from the suite: enough jobs to exercise the
/// scheduler, small enough to run in debug mode.
fn jobs() -> Vec<EngineJob> {
    let suite = Suite::vbench(&SuiteOptions::tiny());
    suite
        .iter()
        .take(6)
        .map(|v| {
            EngineJob::new(
                v.name,
                v.generate(),
                TranscodeRequest::software(
                    CodecFamily::Avc,
                    Preset::Fast,
                    RateMode::ConstQuality { crf: 30.0 },
                ),
            )
        })
        .collect()
}

/// One scheduling-invariant fact row per job: name, success, attempts,
/// degradation notches, output bytes.
type Fingerprint = Vec<(String, bool, u32, u32, Option<Vec<u8>>)>;

/// The per-job facts that must be scheduling-invariant: status, bytes,
/// attempt count, degradation. (Wall-clock times and hedge flags are
/// legitimately run-dependent.)
fn fingerprint(report: &EngineBatchReport) -> Fingerprint {
    report
        .results
        .iter()
        .map(|r| {
            (
                r.name.clone(),
                r.outcome.is_ok(),
                r.attempts,
                r.degraded,
                r.outcome.as_ref().ok().map(|o| o.bytes().to_vec()),
            )
        })
        .collect()
}

#[test]
fn acceptance_one_panic_one_transient() {
    // The PR's acceptance scenario: one injected panic (all attempts) and
    // one transient fault in a batch. The batch completes; the panicked
    // job is reported failed; the transient job succeeds on retry; every
    // other job's bytes are identical to an uninjected run.
    let jobs = jobs();
    let clean =
        transcode_batch(&Engine, &jobs, 2, &ResilienceConfig::default()).expect("clean batch");
    let plan = FaultPlan::new().with_panic(1, u32::MAX).with_transient(3, 1);
    let policy = ResilienceConfig::default().with_max_retries(2).with_fault_plan(plan);
    let report = transcode_batch(&Engine, &jobs, 2, &policy).expect("faulted batch");

    assert!(
        matches!(report.results[1].outcome, Err(JobError::Panicked { .. })),
        "job 1 panics on every attempt and must be reported failed"
    );
    assert!(report.results[3].outcome.is_ok(), "transient job recovers on retry");
    assert_eq!(report.results[3].attempts, 2, "one faulted attempt, one retry");
    assert_eq!(report.summary.failed, 1);
    assert_eq!(report.summary.panics, 1);
    assert!(report.summary.retries >= 1);
    for i in [0usize, 2, 4, 5] {
        let clean_bytes = clean.results[i].success().expect("clean job").bytes();
        let faulted_bytes = report.results[i].success().expect("untouched job").bytes();
        assert_eq!(clean_bytes, faulted_bytes, "job {i} must be byte-identical");
    }

    // Same plan, any worker count: identical report.
    for workers in [1usize, 4, 8] {
        let again = transcode_batch(&Engine, &jobs, workers, &policy).expect("replayed batch");
        assert_eq!(fingerprint(&report), fingerprint(&again), "workers={workers}");
    }
}

#[test]
fn seeded_random_plans_replay_across_worker_counts() {
    let jobs = jobs();
    let plan = FaultPlan::new().with_random(42, RandomFaults { rate: 0.5, straggle_secs: 0.02 });
    let policy = ResilienceConfig::default().with_max_retries(3).with_fault_plan(plan);
    let serial = transcode_batch(&Engine, &jobs, 1, &policy).expect("serial");
    for workers in [2usize, 5] {
        let parallel = transcode_batch(&Engine, &jobs, workers, &policy).expect("parallel");
        assert_eq!(fingerprint(&serial), fingerprint(&parallel), "workers={workers}");
    }
    // Different seed, different plan (with a 50% rate, 6 jobs × 4
    // attempts makes a collision across every job astronomically
    // unlikely... but assert only that decisions differ somewhere).
    let other = FaultPlan::new().with_random(43, RandomFaults { rate: 0.5, straggle_secs: 0.02 });
    let decisions = |p: &FaultPlan| -> Vec<_> {
        (0..6)
            .flat_map(|j| (0..4).map(move |a| (j, a)))
            .map(|(j, a)| {
                let d = p.decide(j, a);
                (d.fail.map(|k| k.name()), d.extra_secs.to_bits())
            })
            .collect()
    };
    assert_ne!(
        decisions(&policy.fault_plan),
        decisions(&other),
        "different seeds must give different plans"
    );
}

#[test]
fn transient_faults_recover_within_retry_budget_and_fail_beyond_it() {
    let jobs = jobs();
    // Two faulted attempts need two retries.
    let plan = || FaultPlan::new().with_transient(0, 2);
    let enough = ResilienceConfig::default().with_max_retries(2).with_fault_plan(plan());
    let report = transcode_batch(&Engine, &jobs, 2, &enough).expect("batch");
    assert!(report.results[0].outcome.is_ok());
    assert_eq!(report.results[0].attempts, 3);

    let starved = ResilienceConfig::default().with_max_retries(1).with_fault_plan(plan());
    let report = transcode_batch(&Engine, &jobs, 2, &starved).expect("batch");
    assert!(
        matches!(
            report.results[0].outcome,
            Err(JobError::Transcode(vbench::engine::TranscodeError::Injected(f)))
                if f.kind == FaultKind::Transient
        ),
        "budget exhausted: the last injected error surfaces"
    );
    // Permanent faults never retry, whatever the budget.
    let permanent = ResilienceConfig::default()
        .with_max_retries(5)
        .with_fault_plan(FaultPlan::new().with_permanent(2));
    let report = transcode_batch(&Engine, &jobs, 2, &permanent).expect("batch");
    assert_eq!(report.results[2].attempts, 1, "permanent faults fail fast");
    assert!(report.results[2].outcome.is_err());
}

#[test]
fn hedged_results_are_byte_identical_to_unhedged() {
    let jobs = jobs();
    let plan = FaultPlan::new().with_straggler(1, 5.0);
    let unhedged = ResilienceConfig::default().with_fault_plan(plan.clone());
    let baseline = transcode_batch(&Engine, &jobs, 3, &unhedged).expect("unhedged");
    // An aggressive hedge policy so the straggler (which sleeps a real
    // bounded interval) reliably trips it.
    let hedged_policy =
        unhedged.clone().with_hedge(HedgePolicy { quantile: 0.5, factor: 1.2, min_samples: 2 });
    let hedged = transcode_batch(&Engine, &jobs, 3, &hedged_policy).expect("hedged");
    assert_eq!(
        fingerprint(&baseline),
        fingerprint(&hedged),
        "hedging may only change wall time, never results"
    );
    // The straggler job still carries its injected virtual latency.
    let slow = hedged.results[1].success().expect("straggler completes");
    assert!(slow.timings().total() > 5.0, "virtual latency charged: {}", slow.timings().total());
}

#[test]
fn deadline_misses_degrade_presets_when_asked() {
    let suite = Suite::vbench(&SuiteOptions::tiny());
    let v = suite.iter().next().expect("suite video");
    let jobs = vec![EngineJob::new(
        v.name,
        v.generate(),
        TranscodeRequest::software(
            CodecFamily::Avc,
            Preset::VerySlow,
            RateMode::ConstQuality { crf: 30.0 },
        ),
    )];
    // A straggler makes the first attempt blow any deadline; the retry is
    // fault-free and fast enough.
    let plan = FaultPlan::new().with_transient_straggler(0, 1, 100.0);
    let policy = ResilienceConfig::default()
        .with_max_retries(1)
        .with_job_deadline(50.0)
        .with_degradation()
        .with_fault_plan(plan);
    let report = transcode_batch(&Engine, &jobs, 1, &policy).expect("batch");
    let r = &report.results[0];
    assert!(r.deadline_missed, "attempt 0 exceeded the deadline");
    assert_eq!(r.degraded, 1, "retry downshifted one notch");
    assert!(r.outcome.is_ok(), "degraded retry completed");
    assert_eq!(report.summary.deadline_misses, 1);
    assert_eq!(report.summary.degraded, 1);

    // Without degradation enabled the preset is untouched on retry.
    let plain = ResilienceConfig::default()
        .with_max_retries(1)
        .with_job_deadline(50.0)
        .with_fault_plan(FaultPlan::new().with_transient_straggler(0, 1, 100.0));
    let report = transcode_batch(&Engine, &jobs, 1, &plain).expect("batch");
    assert_eq!(report.results[0].degraded, 0);
    assert!(report.results[0].outcome.is_ok());
}

#[test]
fn live_deadline_derives_from_realtime_pixel_rate() {
    let suite = Suite::vbench(&SuiteOptions::tiny());
    let v = suite.iter().next().expect("suite video");
    let video = v.generate();
    let deadline = vbench::scenario::live_deadline_secs(&video);
    let expected = video.frames().len() as f64 / video.fps();
    assert!((deadline - expected).abs() < 1e-9, "live deadline is the clip duration");
    // Wired through a job: an injected straggler far beyond the clip
    // duration must miss the Live deadline.
    let job = EngineJob::new(
        v.name,
        video,
        TranscodeRequest::software(
            CodecFamily::Avc,
            Preset::Fast,
            RateMode::ConstQuality { crf: 30.0 },
        ),
    )
    .with_deadline(deadline);
    let policy = ResilienceConfig::default()
        .with_fault_plan(FaultPlan::new().with_straggler(0, deadline + 100.0));
    let report = transcode_batch(&Engine, &[job], 1, &policy).expect("batch");
    assert!(
        matches!(report.results[0].outcome, Err(JobError::DeadlineExceeded { .. })),
        "straggling past the clip duration misses the live deadline"
    );
}

#[test]
fn panic_isolation_never_kills_neighbour_jobs() {
    let jobs = jobs();
    // Panic on half the batch, every attempt: the rest must complete.
    let plan =
        FaultPlan::new().with_panic(0, u32::MAX).with_panic(2, u32::MAX).with_panic(4, u32::MAX);
    let policy = ResilienceConfig::default().with_fault_plan(plan);
    let report = transcode_batch(&Engine, &jobs, 3, &policy).expect("batch survives");
    assert_eq!(report.summary.failed, 3);
    assert_eq!(report.summary.completed, 3);
    for i in [1usize, 3, 5] {
        assert!(report.results[i].outcome.is_ok(), "job {i} unaffected by neighbour panics");
    }
    for i in [0usize, 2, 4] {
        assert!(matches!(report.results[i].outcome, Err(JobError::Panicked { .. })));
    }
}
