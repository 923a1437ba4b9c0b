//! The admission-controlled transcoding service: a bounded front door
//! over the executor core.
//!
//! Everything below the batch layer runs *closed* workloads: every job
//! is accepted and the farm grinds until done. A production ingest tier
//! is the opposite shape — an open arrival stream whose offered load
//! does not care about capacity — and the paper's three service
//! scenarios (Upload, Popular, Live) are exactly the QoS classes such a
//! tier must keep apart. This module adds that front door:
//!
//! * [`arrivals`] — deterministic arrival generators, seeded through
//!   `vrand`: Poisson arrivals whose popularity (for Popular) comes
//!   from `vcorpus`'s power-law watch-time model and whose deadlines
//!   (for Live) come from [`crate::scenario::live_deadline_secs_for`].
//! * [`queue`] — one bounded FIFO per QoS class. Admission never
//!   blocks: a full queue answers with a typed [`AdmissionError`].
//! * [`sim`] — the virtual-time service loop. Time is integer
//!   microseconds on a [`sim::VirtualClock`]; service demand is a
//!   deterministic model (play-out duration × per-preset effort), so
//!   every admit / degrade / shed decision — and therefore the whole
//!   saturation study — is a pure function of the configuration and
//!   replays bit-exactly at any worker count.
//! * [`report`] — the `SAT_<scenario>.json` document: admit / degrade /
//!   shed rates, queue occupancy, and sojourn-latency quantiles versus
//!   offered load. `vprof::sat` owns its format and its table.
//!
//! The overload controller degrades before it drops: rising queue
//! occupancy first downshifts presets along the resilience layer's
//! degradation ladder ([`crate::resilience::degrade_preset_by`]), which
//! genuinely adds capacity because a faster preset has a smaller
//! service demand; only a full queue sheds, and it sheds lowest-value
//! work — popularity-weighted for Popular, deadline-infeasible-first
//! for Live, tail drop for Upload. No shed is silent: each one is a
//! trace event and (when a journal is configured) a durable `shed`
//! record.
//!
//! Virtual time decides *what* runs; real encodes prove the work. After
//! the simulation, the admitted mix is deduplicated to its unique
//! (video, degradation) pairs and pushed through
//! [`crate::farm::transcode_batch`] on real worker threads.
//! The worker count only changes wall-clock time — the report embeds
//! the deterministic CRC-32 of the produced bitstreams, so a replay at
//! a different `--workers` must be byte-identical end to end.

pub mod arrivals;
pub mod queue;
pub mod report;
pub mod sim;

use std::collections::BTreeSet;

use crate::engine::Transcoder;
use crate::exec::StdIo;
use crate::farm::{transcode_batch, BatchError, EngineBatchReport, EngineJob, JobSource};
use crate::journal::{run_batch_journaled_with_io, JournalConfig, JournalError};
use crate::reference::reference_request_for;
use crate::resilience::{degraded_request, ResilienceConfig};
use crate::scenario::{live_deadline_secs_for, Scenario};
use crate::suite::Suite;
use vcodec::Preset;
use vsynth::SourceSpec;

pub use report::{sat_report, SatPoint, SatReport, SAT_VERSION};
pub use sim::{simulate_service, ServicePoint, ShedEvent, ShedReason};
pub use vprof::sat::EncodeProof;

/// Which quality-of-service contract an arrival stream runs under. Each
/// paper scenario that describes a service (rather than a measurement)
/// maps to one class; the class picks the queue's shed policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QosClass {
    /// Upload ingest: all jobs are equal, a full queue tail-drops the
    /// incoming arrival ([`AdmissionError::QueueFull`]).
    Bulk,
    /// Popular re-transcode: jobs carry a watch-time value from the
    /// power-law popularity model; a full queue sheds the
    /// lowest-value work first.
    Weighted,
    /// Live segments: jobs carry deadlines; a full queue sheds the
    /// deadline-infeasible (least-slack) work first.
    Deadline,
}

impl QosClass {
    /// The class a scenario's arrival stream runs under.
    ///
    /// # Panics
    ///
    /// Panics for Vod/Platform: those scenarios score offline
    /// measurements and have no arrival process to admit.
    pub fn of(scenario: Scenario) -> QosClass {
        match scenario {
            Scenario::Upload => QosClass::Bulk,
            Scenario::Popular => QosClass::Weighted,
            Scenario::Live => QosClass::Deadline,
            other => panic!("{other} is not a service scenario (upload|popular|live)"),
        }
    }
}

/// Why an arrival was refused admission. Typed so callers (and tests)
/// can tell backpressure modes apart instead of pattern-matching
/// strings.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum AdmissionError {
    /// The class queue is full and the policy does not preempt queued
    /// work (Bulk tail drop).
    QueueFull {
        /// The configured queue bound that was hit.
        depth: usize,
    },
    /// The queue is full and the incoming arrival lost the value /
    /// slack comparison against everything already queued — the service
    /// is shedding and this job was the lowest-value work offered.
    Shedding,
    /// The service is past its configured duration and drains: queued
    /// work completes, new arrivals are refused.
    Draining,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::QueueFull { depth } => write!(f, "queue full (depth {depth})"),
            AdmissionError::Shedding => write!(f, "shedding: offered work is lowest-value"),
            AdmissionError::Draining => write!(f, "draining: past service duration"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Configuration of one service run: the arrival model and the virtual
/// fleet it is offered to. Everything here is part of the deterministic
/// model — two runs with equal configs produce identical reports at any
/// worker count.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// The arrival stream's scenario (Upload, Popular, or Live).
    pub scenario: Scenario,
    /// Mean arrival rate in jobs per virtual second.
    pub offered_load: f64,
    /// Virtual seconds the front door accepts arrivals for; after this
    /// the service drains ([`AdmissionError::Draining`]).
    pub duration_secs: f64,
    /// Virtual transcode servers (the modelled fleet size — *not* the
    /// real thread count, which never changes results).
    pub capacity: usize,
    /// Bound of the class queue; admission beyond it degrades to the
    /// shed policy.
    pub queue_depth: usize,
    /// Arrival-process seed.
    pub seed: u64,
    /// Popular catalog size: ranks are drawn from `1..=catalog` under
    /// the power-law model.
    pub catalog: u64,
}

impl ServiceConfig {
    /// A small deterministic default: 2 virtual servers, depth-8 queue,
    /// 1000-video catalog. Offered load and duration still need values.
    pub fn new(scenario: Scenario, offered_load: f64, duration_secs: f64) -> ServiceConfig {
        ServiceConfig {
            scenario,
            offered_load,
            duration_secs,
            capacity: 2,
            queue_depth: 8,
            seed: 0x5eed,
            catalog: 1000,
        }
    }
}

/// One suite video as the service model sees it: enough metadata to
/// derive service demand, deadlines, and the real encode request, with
/// no clip materialized.
#[derive(Clone, Debug)]
pub struct VideoProfile {
    /// Suite video name.
    pub name: &'static str,
    /// The synthetic source (frames render on demand for real encodes).
    pub spec: SourceSpec,
    /// Published category resolution in kilopixels (drives the
    /// reference request's native-resolution hint).
    pub kpixels: u32,
    /// Play-out duration in seconds — the service-demand basis and the
    /// Live deadline, both from the same real-time pixel-rate
    /// arithmetic as the scoring constraint.
    pub play_secs: f64,
    /// Published category entropy (bits/pixel at visually lossless) —
    /// the content-complexity feature the cost predictor consumes.
    pub entropy: f64,
    /// The scenario's reference preset for this video (the undegraded
    /// operating point the overload controller downshifts from).
    pub preset: Preset,
}

impl VideoProfile {
    /// The profile as the cost predictor sees it: resolution, length,
    /// rate, entropy, and the scenario preset.
    pub fn features(&self) -> crate::fleet::JobFeatures {
        crate::fleet::JobFeatures {
            pixels_per_frame: self.spec.resolution.pixels(),
            frames: self.spec.frames as u64,
            fps: self.spec.fps,
            entropy: self.entropy,
            preset: self.preset,
        }
    }
}

/// Builds the service's video catalog from the suite for one scenario.
/// Arrivals index into this slice; tests may truncate it to shrink the
/// encode mix.
pub fn video_profiles(suite: &Suite, scenario: Scenario) -> Vec<VideoProfile> {
    suite
        .iter()
        .map(|v| VideoProfile {
            name: v.name,
            spec: v.spec.clone(),
            kpixels: v.category.kpixels,
            play_secs: live_deadline_secs_for(v.spec.resolution, v.spec.fps, v.spec.frames),
            entropy: v.category.entropy,
            preset: reference_request_for(scenario, v.spec.resolution, v.category.kpixels).preset,
        })
        .collect()
}

/// The offered load at which the modelled fleet saturates: capacity
/// divided by the mean undegraded service demand over the catalog.
/// Deterministic in `(profiles, capacity)`, so sweep grids derived from
/// it replay bit-exactly.
pub fn estimated_saturation_load(profiles: &[VideoProfile], capacity: usize) -> f64 {
    assert!(!profiles.is_empty(), "service needs at least one video profile");
    capacity as f64 / sim::mean_service_secs(profiles, 0).max(1e-9)
}

/// Estimated saturation throughput with the degradation ladder fully
/// spent: the offered load (jobs/second) at which even maximally
/// downshifted presets keep every virtual server busy. Below this the
/// controller can absorb overload by degrading; above it, shedding is
/// steady state and climbs with load. Saturation sweeps extend past
/// this point so their shed column actually moves.
pub fn degraded_saturation_load(profiles: &[VideoProfile], capacity: usize) -> f64 {
    assert!(!profiles.is_empty(), "service needs at least one video profile");
    capacity as f64 / sim::mean_service_secs(profiles, sim::MAX_DEGRADE_NOTCHES).max(1e-9)
}

impl From<&EngineBatchReport> for EncodeProof {
    /// Fingerprints a finished batch: the CRC-32 of every produced
    /// bitstream, folded big-endian in result order into one CRC, plus
    /// the byte total — equal bytes at any worker count, or the report
    /// is not replayable.
    fn from(report: &EngineBatchReport) -> EncodeProof {
        let mut folded = Vec::with_capacity(report.results.len() * 4);
        let mut encoded_bytes = 0u64;
        for outcome in report.results.iter().filter_map(|r| r.success()) {
            folded.extend_from_slice(&vpack::crc32(outcome.bytes()).to_be_bytes());
            encoded_bytes += outcome.bytes().len() as u64;
        }
        EncodeProof {
            unique_encodes: report.results.len(),
            encode_crc32: vpack::crc32(&folded),
            encoded_bytes,
        }
    }
}

/// What a full service run produced: the virtual-time point plus the
/// real-encode proof.
#[derive(Debug)]
pub struct ServiceOutcome {
    /// The simulated admission/scheduling outcome.
    pub point: ServicePoint,
    /// The real-encode fingerprint for the admitted mix.
    pub proof: EncodeProof,
}

/// Errors a service run can surface: the real-encode batch failing, or
/// its durability journal rejecting the run.
#[derive(Debug)]
pub enum ServiceError {
    /// The deduplicated encode batch failed.
    Batch(BatchError),
    /// The journal layer refused or crashed the encode batch.
    Journal(JournalError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Batch(e) => write!(f, "service encode batch: {e}"),
            ServiceError::Journal(e) => write!(f, "service journal: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<BatchError> for ServiceError {
    fn from(e: BatchError) -> ServiceError {
        ServiceError::Batch(e)
    }
}

impl From<JournalError> for ServiceError {
    fn from(e: JournalError) -> ServiceError {
        ServiceError::Journal(e)
    }
}

/// Runs the service once at `config.offered_load`: simulate admission
/// in virtual time, then encode the admitted mix for real (deduplicated
/// to unique (video, notches) pairs) on `workers` OS threads. With a
/// journal, the encode batch is crash-consistent and every shed is
/// appended as a durable `shed` record after the batch commits.
///
/// # Errors
///
/// [`ServiceError`] when the encode batch or its journal fails; the
/// virtual-time simulation itself cannot fail.
pub fn run_service(
    config: &ServiceConfig,
    profiles: &[VideoProfile],
    engine: &dyn Transcoder,
    workers: usize,
    journal: Option<&JournalConfig>,
) -> Result<ServiceOutcome, ServiceError> {
    let point = simulate_service(config, profiles);
    let proof = encode_mix(config, profiles, &point.admitted_mix, engine, workers, journal)?;
    if let Some(journal) = journal {
        crate::journal::append_shed_records(&journal.path, &point.shed_events, &StdIo)?;
    }
    Ok(ServiceOutcome { point, proof })
}

/// Sweeps offered load and assembles the saturation report. Each sweep
/// point is an independent virtual-time run; the real encode pass runs
/// once over the union of every point's admitted mix, so the report
/// cost does not multiply with the grid.
///
/// # Errors
///
/// [`ServiceError`] when the union encode batch or its journal fails.
pub fn run_saturation(
    config: &ServiceConfig,
    loads: &[f64],
    profiles: &[VideoProfile],
    engine: &dyn Transcoder,
    workers: usize,
    journal: Option<&JournalConfig>,
) -> Result<SatReport, ServiceError> {
    let mut points = Vec::with_capacity(loads.len());
    let mut mix: BTreeSet<(usize, u32)> = BTreeSet::new();
    let mut sheds: Vec<ShedEvent> = Vec::new();
    for &load in loads {
        let point_config = ServiceConfig { offered_load: load, ..*config };
        let point = simulate_service(&point_config, profiles);
        mix.extend(point.admitted_mix.iter().copied());
        sheds.extend(point.shed_events.iter().cloned());
        points.push(point);
    }
    let proof = encode_mix(config, profiles, &mix, engine, workers, journal)?;
    if let Some(journal) = journal {
        crate::journal::append_shed_records(&journal.path, &sheds, &StdIo)?;
    }
    Ok(sat_report(config, &points, proof))
}

/// Encodes the deduplicated admitted mix through the executor core.
/// Jobs stream off their synthetic sources (nothing is materialized up
/// front) under the scenario's reference request, downshifted by the
/// overload controller's notches exactly as the virtual model assumed.
fn encode_mix(
    config: &ServiceConfig,
    profiles: &[VideoProfile],
    mix: &BTreeSet<(usize, u32)>,
    engine: &dyn Transcoder,
    workers: usize,
    journal: Option<&JournalConfig>,
) -> Result<EncodeProof, ServiceError> {
    let jobs: Vec<EngineJob> = mix
        .iter()
        .map(|&(video, notches)| {
            let p = &profiles[video];
            let request = reference_request_for(config.scenario, p.spec.resolution, p.kpixels);
            EngineJob::streaming(
                format!("{}+d{notches}", p.name),
                JobSource::Synth(p.spec.clone()),
                degraded_request(&request, notches),
            )
        })
        .collect();
    let policy = ResilienceConfig::default();
    let report = match journal {
        None => transcode_batch(engine, &jobs, workers, &policy)?,
        Some(config) => {
            run_batch_journaled_with_io(engine, &jobs, workers, &policy, config, &StdIo)?
        }
    };
    Ok(EncodeProof::from(&report.require_complete()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::suite::SuiteOptions;

    fn profiles() -> Vec<VideoProfile> {
        let suite = Suite::vbench(&SuiteOptions::tiny());
        let mut p = video_profiles(&suite, Scenario::Popular);
        p.truncate(3);
        p
    }

    #[test]
    fn qos_class_maps_service_scenarios() {
        assert_eq!(QosClass::of(Scenario::Upload), QosClass::Bulk);
        assert_eq!(QosClass::of(Scenario::Popular), QosClass::Weighted);
        assert_eq!(QosClass::of(Scenario::Live), QosClass::Deadline);
    }

    #[test]
    #[should_panic(expected = "not a service scenario")]
    fn vod_has_no_arrival_process() {
        QosClass::of(Scenario::Vod);
    }

    #[test]
    fn saturation_estimate_scales_with_capacity() {
        let p = profiles();
        let one = estimated_saturation_load(&p, 1);
        let four = estimated_saturation_load(&p, 4);
        assert!(one > 0.0);
        assert!((four / one - 4.0).abs() < 1e-9);
    }

    #[test]
    fn run_service_ties_the_sim_to_real_encodes() {
        let p = profiles();
        let mut config = ServiceConfig::new(Scenario::Popular, 1.0, 4.0);
        config.capacity = 1;
        let out = run_service(&config, &p, &Engine, 2, None).expect("service run");
        assert!(out.point.offered > 0);
        assert!(out.proof.unique_encodes > 0);
        assert!(out.proof.encoded_bytes > 0);
        // Same config, different worker count: identical proof.
        let again = run_service(&config, &p, &Engine, 1, None).expect("service rerun");
        assert_eq!(out.proof, again.proof);
    }
}
