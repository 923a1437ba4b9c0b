//! Resilience policies for the transcode farm.
//!
//! vbench's scenarios model a production fleet — Upload queues drain
//! under load, Live carries a hard real-time QoS bound — and production
//! fleets lose workers, hit poisoned inputs, and straggle. This module
//! is the policy layer the farm scheduler executes:
//!
//! * [`ResilienceConfig`] — retries with capped exponential backoff,
//!   per-job deadlines, straggler hedging, graceful preset degradation,
//!   and an optional [`FaultPlan`] for deterministic fault injection.
//! * [`FaultyTranscoder`] — wraps any [`Transcoder`] and consults the
//!   plan before each attempt: typed failures, panics, and artificial
//!   straggler latency, all keyed by `(job, attempt)` so runs replay
//!   bit-exactly at any worker count.
//! * [`degrade_preset`] — the one-notch effort downshift applied when a
//!   deadline miss triggers a degrading retry.
//!
//! The scheduler that executes these policies lives in [`crate::farm`];
//! the failure taxonomy is documented in DESIGN.md ("Failure model").

use crate::engine::{
    Backend, StreamOutcome, TranscodeError, TranscodeOutcome, TranscodeRequest, Transcoder,
};
use crate::exec::clock::Clock;
use vcodec::Preset;
use vfault::{FaultKind, FaultPlan, InjectedFault};
use vframe::source::FrameSource;
use vframe::Video;

/// Straggler-hedging policy: when a job's attempt has been running
/// longer than `factor ×` the `quantile` of completed-job times (and at
/// least `min_samples` jobs have completed), an idle worker launches a
/// second copy; the first finisher wins and the loser's result is
/// discarded. Both copies run the same deterministic attempt sequence,
/// so hedged results are byte-identical to unhedged ones.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct HedgePolicy {
    /// Quantile of observed per-job wall times that anchors the
    /// threshold, in `(0, 1]`.
    pub quantile: f64,
    /// Multiplier on the quantile: hedge when `elapsed > factor × q`.
    pub factor: f64,
    /// Minimum completed jobs before any hedge may launch (an empty
    /// sample has no quantile).
    pub min_samples: usize,
}

impl Default for HedgePolicy {
    fn default() -> HedgePolicy {
        HedgePolicy { quantile: 0.9, factor: 2.0, min_samples: 3 }
    }
}

/// The farm's resilience policy. [`ResilienceConfig::default`] is the
/// zero-overhead baseline: no retries, no deadline, no hedging, no
/// faults — but panic isolation is always on (one poisoned job reports
/// failure instead of killing the batch).
#[derive(Clone, PartialEq, Debug)]
pub struct ResilienceConfig {
    /// Retries per job after its first attempt (0 = fail fast).
    pub max_retries: u32,
    /// First retry's backoff wait in seconds; attempt `n` waits
    /// `base × 2ⁿ`, capped at [`ResilienceConfig::backoff_cap_secs`].
    /// 0.0 disables the wait entirely.
    pub backoff_base_secs: f64,
    /// Upper bound on any single backoff wait.
    pub backoff_cap_secs: f64,
    /// Batch-wide per-job deadline on *encode* seconds (the job's
    /// reported stage total, which includes injected straggler latency).
    /// A job's own [`crate::farm::EngineJob::deadline_secs`] overrides
    /// this. Exceeding the deadline counts as a failed attempt.
    pub job_deadline_secs: Option<f64>,
    /// Downshift the preset one effort notch when retrying after a
    /// deadline miss (graceful degradation: a faster encode that ships
    /// beats a perfect one that misses the QoS bound).
    pub degrade_on_deadline_miss: bool,
    /// Straggler hedging, off by default.
    pub hedge: Option<HedgePolicy>,
    /// Deterministic fault injection, empty by default.
    pub fault_plan: FaultPlan,
}

impl Default for ResilienceConfig {
    fn default() -> ResilienceConfig {
        ResilienceConfig {
            max_retries: 0,
            backoff_base_secs: 0.0,
            backoff_cap_secs: 0.2,
            job_deadline_secs: None,
            degrade_on_deadline_miss: false,
            hedge: None,
            fault_plan: FaultPlan::new(),
        }
    }
}

impl ResilienceConfig {
    /// Sets the retry budget.
    pub fn with_max_retries(mut self, retries: u32) -> ResilienceConfig {
        self.max_retries = retries;
        self
    }

    /// Sets the batch-wide per-job deadline.
    pub fn with_job_deadline(mut self, secs: f64) -> ResilienceConfig {
        self.job_deadline_secs = Some(secs);
        self
    }

    /// Enables preset degradation on deadline-miss retries.
    pub fn with_degradation(mut self) -> ResilienceConfig {
        self.degrade_on_deadline_miss = true;
        self
    }

    /// Enables hedging with the given policy.
    pub fn with_hedge(mut self, hedge: HedgePolicy) -> ResilienceConfig {
        self.hedge = Some(hedge);
        self
    }

    /// Installs a fault plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> ResilienceConfig {
        self.fault_plan = plan;
        self
    }

    /// Sets the backoff curve.
    pub fn with_backoff(mut self, base_secs: f64, cap_secs: f64) -> ResilienceConfig {
        self.backoff_base_secs = base_secs;
        self.backoff_cap_secs = cap_secs;
        self
    }

    /// The backoff wait before retry number `retry` (1-based), in
    /// seconds: `base × 2^(retry-1)`, capped.
    pub fn backoff_secs(&self, retry: u32) -> f64 {
        capped_backoff_secs(self.backoff_base_secs, self.backoff_cap_secs, retry)
    }
}

/// The capped exponential backoff curve: the wait before retry number
/// `retry` (1-based) is `base × 2^(retry-1)`, capped at `cap`; a
/// non-positive `base` disables backoff entirely. Shared by the encode
/// retry chain ([`ResilienceConfig::backoff_secs`]) and the journal's
/// transient-IO retry ([`crate::exec::io::append_retrying`]).
pub fn capped_backoff_secs(base: f64, cap: f64, retry: u32) -> f64 {
    if base <= 0.0 {
        return 0.0;
    }
    let exp = retry.saturating_sub(1).min(f64::MAX_EXP as u32 - 1);
    (base * 2f64.powi(exp as i32)).min(cap)
}

/// One effort notch down ("degrade"): the next-*faster* preset, per the
/// graceful-degradation policy — when a deadline was missed, trading
/// compression efficiency for speed is the only move that can still make
/// the QoS bound. Already at [`Preset::UltraFast`] there is nothing left
/// to shed and the preset is returned unchanged.
pub fn degrade_preset(preset: Preset) -> Preset {
    let idx = Preset::ALL.iter().position(|&p| p == preset).unwrap_or(0);
    Preset::ALL[idx.saturating_sub(1)]
}

/// `notches` applications of [`degrade_preset`]: the preset the overload
/// controller actually dispatches at. Saturates at
/// [`Preset::UltraFast`], like the single-notch form.
pub fn degrade_preset_by(preset: Preset, notches: u32) -> Preset {
    (0..notches).fold(preset, |preset, _| degrade_preset(preset))
}

/// The request actually run on `attempt` of a job whose degradation
/// count is `degraded_notches`: hardware requests are returned unchanged
/// (an ASIC's effort is fixed at tape-out); software requests have their
/// preset downshifted one notch per degradation.
pub fn degraded_request(req: &TranscodeRequest, degraded_notches: u32) -> TranscodeRequest {
    let mut out = *req;
    if matches!(req.backend, Backend::Software(_)) {
        out.preset = degrade_preset_by(out.preset, degraded_notches);
    }
    out
}

/// A [`Transcoder`] wrapper that consults a [`FaultPlan`] before
/// delegating. The wrapper is built per `(job, attempt)` so the plan's
/// decisions stay a pure function of that key:
///
/// * a `Transient`/`Permanent` decision returns
///   [`TranscodeError::Injected`] without running the encode;
/// * a `Panic` decision panics (the farm's per-job `catch_unwind`
///   isolates it);
/// * a `Straggler` decision runs the encode, then charges the extra
///   latency to the outcome's pipeline stage and measured speed — and
///   waits a bounded interval on `clock` so clock-driven policies
///   (hedging) can observe the straggle.
pub struct FaultyTranscoder<'a> {
    /// The engine to delegate non-faulted attempts to.
    pub inner: &'a dyn Transcoder,
    /// The plan to consult.
    pub plan: &'a FaultPlan,
    /// Batch index of the job being run.
    pub job: usize,
    /// Attempt number (0 = first try).
    pub attempt: u32,
    /// What the straggle waits on.
    pub clock: &'a dyn Clock,
}

/// Cap on the wait an injected straggler performs. The latency charged
/// to the outcome is uncapped; the wait only exists so hedging has
/// something to observe, and tests must not take minutes.
const MAX_STRAGGLE_WAIT_SECS: f64 = 0.5;

impl FaultyTranscoder<'_> {
    /// Applies the plan's pre-attempt decision: panic, typed failure, or
    /// the bounded straggler wait. Returns the injected latency for the
    /// post-attempt charge.
    fn apply_pre_attempt(&self) -> Result<f64, TranscodeError> {
        let decision = self.plan.decide(self.job, self.attempt);
        match decision.fail {
            Some(FaultKind::Panic) => {
                panic!("injected panic (job {}, attempt {})", self.job, self.attempt)
            }
            Some(kind) => {
                return Err(TranscodeError::Injected(InjectedFault {
                    kind,
                    job: self.job,
                    attempt: self.attempt,
                }));
            }
            None => {}
        }
        if decision.extra_secs > 0.0 {
            let straggle = decision.extra_secs.min(MAX_STRAGGLE_WAIT_SECS);
            self.clock.wait(std::time::Duration::from_secs_f64(straggle));
        }
        Ok(decision.extra_secs)
    }
}

/// Charges an injected straggle to the outcome's pipeline stage and
/// slows the measured speed to match, so deadline checks and fleet math
/// see the same latency the plan injected. No straggle charges nothing.
fn charge_straggle(timings: &mut vhw::StageSeconds, speed_pps: &mut f64, extra_secs: f64) {
    if extra_secs > 0.0 {
        let before = timings.total().max(1e-9);
        timings.pipeline += extra_secs;
        *speed_pps *= before / timings.total();
    }
}

impl Transcoder for FaultyTranscoder<'_> {
    fn transcode(
        &self,
        src: &Video,
        req: &TranscodeRequest,
    ) -> Result<TranscodeOutcome, TranscodeError> {
        let extra_secs = self.apply_pre_attempt()?;
        let mut outcome = self.inner.transcode(src, req)?;
        charge_straggle(&mut outcome.timings, &mut outcome.measurement.speed_pps, extra_secs);
        Ok(outcome)
    }

    fn transcode_stream(
        &self,
        src: &mut dyn FrameSource,
        req: &TranscodeRequest,
    ) -> Result<StreamOutcome, TranscodeError> {
        let extra_secs = self.apply_pre_attempt()?;
        let mut outcome = self.inner.transcode_stream(src, req)?;
        charge_straggle(&mut outcome.timings, &mut outcome.measurement.speed_pps, extra_secs);
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, RateMode};
    use crate::exec::clock::WallClock;
    use vcodec::CodecFamily;
    use vframe::color::{frame_from_fn, Yuv};
    use vframe::Resolution;

    fn clip() -> Video {
        let res = Resolution::new(48, 32);
        let frames = (0..3)
            .map(|t| {
                frame_from_fn(res, |x, y| Yuv::new(((x * 3 + y + 7 * t) % 256) as u8, 128, 128))
            })
            .collect();
        Video::new(frames, 30.0)
    }

    fn request() -> TranscodeRequest {
        TranscodeRequest::software(
            CodecFamily::Avc,
            Preset::Fast,
            RateMode::ConstQuality { crf: 30.0 },
        )
    }

    #[test]
    fn degrade_walks_toward_ultrafast_and_saturates() {
        assert_eq!(degrade_preset(Preset::VerySlow), Preset::Slow);
        assert_eq!(degrade_preset(Preset::Fast), Preset::VeryFast);
        assert_eq!(degrade_preset(Preset::UltraFast), Preset::UltraFast);
    }

    #[test]
    fn degraded_request_leaves_hardware_alone() {
        let hw = TranscodeRequest::hardware(vhw::HwVendor::Nvenc, RateMode::Bitrate { bps: 1_000 });
        assert_eq!(degraded_request(&hw, 3).preset, hw.preset);
        let sw = request();
        assert_eq!(degraded_request(&sw, 2).preset, Preset::UltraFast);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let cfg = ResilienceConfig::default().with_backoff(0.01, 0.05);
        assert_eq!(cfg.backoff_secs(1), 0.01);
        assert_eq!(cfg.backoff_secs(2), 0.02);
        assert_eq!(cfg.backoff_secs(3), 0.04);
        assert_eq!(cfg.backoff_secs(4), 0.05, "capped");
        assert_eq!(ResilienceConfig::default().backoff_secs(5), 0.0, "disabled by default");
    }

    #[test]
    fn faulty_transcoder_injects_typed_errors() {
        let plan = FaultPlan::new().with_transient(0, 1);
        let v = clip();
        let first =
            FaultyTranscoder { inner: &Engine, plan: &plan, job: 0, attempt: 0, clock: &WallClock };
        assert!(matches!(
            first.transcode(&v, &request()),
            Err(TranscodeError::Injected(InjectedFault { kind: FaultKind::Transient, .. }))
        ));
        let second =
            FaultyTranscoder { inner: &Engine, plan: &plan, job: 0, attempt: 1, clock: &WallClock };
        assert!(second.transcode(&v, &request()).is_ok());
    }

    #[test]
    fn faulty_transcoder_passthrough_is_byte_identical() {
        let plan = FaultPlan::new();
        let v = clip();
        let wrapped =
            FaultyTranscoder { inner: &Engine, plan: &plan, job: 5, attempt: 0, clock: &WallClock }
                .transcode(&v, &request())
                .expect("clean attempt");
        let direct = Engine.transcode(&v, &request()).expect("direct");
        assert_eq!(wrapped.output.bytes, direct.output.bytes);
    }

    #[test]
    fn straggler_charges_latency_to_timings_and_speed() {
        let plan = FaultPlan::new().with_straggler(0, 0.05);
        let v = clip();
        let slow =
            FaultyTranscoder { inner: &Engine, plan: &plan, job: 0, attempt: 0, clock: &WallClock }
                .transcode(&v, &request())
                .expect("straggling attempt still succeeds");
        let fast = Engine.transcode(&v, &request()).expect("direct");
        assert_eq!(slow.output.bytes, fast.output.bytes, "bytes unaffected by latency");
        // The injected 0.05 s is charged to the pipeline stage on top of
        // whatever the encode itself measured, so it is a hard floor.
        // (Comparing against the independent fast run's wall-clock total
        // is load-sensitive and flakes under a saturated test machine.)
        assert!(slow.timings.pipeline >= 0.05);
        assert!(slow.timings.total() >= 0.05);
        assert!(slow.measurement.speed_pps < fast.measurement.speed_pps);
    }

    #[test]
    #[should_panic(expected = "injected panic (job 2, attempt 0)")]
    fn injected_panic_panics() {
        let plan = FaultPlan::new().with_panic(2, u32::MAX);
        let v = clip();
        let _ =
            FaultyTranscoder { inner: &Engine, plan: &plan, job: 2, attempt: 0, clock: &WallClock }
                .transcode(&v, &request());
    }
}
