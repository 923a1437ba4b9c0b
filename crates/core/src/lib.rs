//! # vbench — Benchmarking Video Transcoding in the Cloud
//!
//! A from-scratch Rust reproduction of the ASPLOS'18 paper *vbench:
//! Benchmarking Video Transcoding in the Cloud* (Lottarini et al.). This
//! crate is the benchmark proper; the substrates live in sibling crates:
//!
//! * [`vcodec`] — a complete hybrid video codec (the libx264 / libx265 /
//!   libvpx-vp9 stand-ins),
//! * [`vsynth`] — deterministic synthetic video sources,
//! * [`vcorpus`] — corpus modelling and the k-means video selection,
//! * [`varch`] — cache / branch / SIMD / Top-Down microarchitecture
//!   simulation,
//! * [`vhw`] — NVENC / QSV hardware-encoder models,
//! * [`vframe`] — raw frames and quality metrics.
//!
//! The benchmark's own pieces:
//!
//! * [`engine`] — the unified transcode engine: one [`Transcoder`] trait
//!   over the software codec families and the hardware encoder models,
//!   with the paper's quality-target bisection built in;
//! * [`exec`] — the executor core: one claim→encode→publish loop over
//!   a work-queue contract, the in-process work-stealing backend, and
//!   the journal-backed multi-process dispatcher/worker backend;
//! * [`farm`] — the in-memory batch entry point over [`exec`], generalized
//!   over any [`Transcoder`], with per-job panic isolation, retries,
//!   deadlines, and straggler hedging;
//! * [`resilience`] — the farm's policy layer: retry/backoff/deadline/
//!   hedge/degradation configuration and the [`vfault`]-driven
//!   fault-injection wrapper;
//! * [`journal`] — the durability layer: a crash-consistent write-ahead
//!   journal of batch execution with CRC-verified replay on resume;
//! * [`chaos`] — the crash-recovery auditor behind `vbench chaos`:
//!   seeded storage-fault + crash trials (via [`vfault::IoFaultPlan`]
//!   and simulated power cuts) that assert the durability layer's
//!   recovery invariants and report violations with reproducing
//!   schedules;
//! * [`service`] — the admission-controlled service front door: bounded
//!   per-QoS-class queues, an overload controller that degrades before
//!   it sheds, and the virtual-time saturation study;
//! * [`fleet`] — the cost plane: fleet sizing simulation, the
//!   content-feature cost predictor over the [`vhw::InstanceCatalog`],
//!   the dollar-minimizing deadline planner, and the byte-replayable
//!   cost-QoS frontier behind `vbench plan` / `vprof pareto`;
//! * [`cli`] — tracing/exit plumbing shared by the workspace binaries;
//! * [`suite`] — the 15-video suite of Table 2, regenerated as calibrated
//!   synthetic clips;
//! * [`measure`] — speed / bitrate / quality measurements and S/B/Q
//!   ratios;
//! * [`scenario`] — the five scoring scenarios of Table 1 with their QoS
//!   constraints;
//! * [`reference`] — the reference transcode operations each scenario
//!   compares against;
//! * [`report`] — per-video result tables (never averaged, per Section
//!   4.3);
//! * [`figures`] — the data-only Figure 1 series.
//!
//! # Quickstart
//!
//! ```
//! use vbench::reference::reference_encode;
//! use vbench::scenario::{score_with_video, Scenario};
//! use vbench::suite::{Suite, SuiteOptions};
//! use vbench::measure::Measurement;
//!
//! // A tiny suite configuration (full scale is for release runs).
//! let suite = Suite::vbench(&SuiteOptions::tiny());
//! let video = suite.by_name("desktop").expect("table 2 video").generate();
//!
//! // Reference VOD transcode...
//! let (reference, _) = reference_encode(Scenario::Vod, &video);
//!
//! // ...against a candidate (here: the HEVC-class encoder, same target).
//! let cfg = vcodec::EncoderConfig::new(
//!     vcodec::CodecFamily::Hevc,
//!     vcodec::Preset::Medium,
//!     vbench::reference::reference_config(Scenario::Vod, &video).rate,
//! );
//! let out = vcodec::encode(&video, &cfg);
//! let candidate = Measurement::from_encode(&video, &out);
//!
//! let result = score_with_video(Scenario::Vod, &video, &candidate, &reference);
//! // Ratios are always reported; the score only if the constraint held.
//! assert!(result.ratios.s > 0.0);
//! ```

#![warn(missing_docs)]

pub mod bdrate;
pub mod chaos;
pub mod cli;
pub mod engine;
pub mod exec;
pub mod farm;
pub mod figures;
pub mod fleet;
pub mod journal;
pub mod ladder;
pub mod measure;
pub mod reference;
pub mod report;
pub mod resilience;
pub mod scenario;
pub mod service;
pub mod suite;

pub use bdrate::{bd_rate, RdPoint};
pub use chaos::{run_chaos, ChaosOptions, ChaosReport, ChaosScenario, TrialPlan, TrialResult};
pub use engine::{
    Backend, Engine, HardwareEngine, RateMode, SoftwareEngine, StreamOutcome, TranscodeError,
    TranscodeOutcome, TranscodeRequest, Transcoder,
};
pub use exec::ChainResult;
pub use farm::{
    transcode_batch, BatchError, BatchSummary, EngineBatchReport, EngineJob, EngineJobResult,
    JobError, JobOutcome, JobSource, ReplayedOutcome,
};
pub use fleet::{
    cheapest_job_dollars, fleet_size_for, fleet_size_for_resilient, pareto_report, plan_fleet,
    predict_encode_secs, predict_job_dollars, scenario_deadline_slack, simulate_fleet,
    simulate_fleet_with_faults, uniform_plan, FaultModel, FleetConfig, FleetPlan, FleetReport,
    JobFeatures, ParetoPoint, ParetoReport, PlanAssignment, PlanJob, UploadWorkload,
};
pub use journal::{run_batch_journaled_with_io, JournalConfig, JournalError};
pub use ladder::{
    standard_ladder, transcode_ladder, transcode_ladder_with, LadderOutput, LadderRung,
};
pub use measure::{Measurement, Ratios};
pub use reference::{reference_config, reference_encode, reference_request, target_bpps};
pub use resilience::{
    degrade_preset, degrade_preset_by, FaultyTranscoder, HedgePolicy, ResilienceConfig,
};
pub use scenario::{score, score_with_video, Scenario, ScenarioScore};
pub use service::{
    degraded_saturation_load, estimated_saturation_load, run_saturation, run_service,
    simulate_service, video_profiles, AdmissionError, EncodeProof, QosClass, SatReport,
    ServiceConfig, ServiceOutcome, ServicePoint, ShedEvent, ShedReason, VideoProfile,
};
pub use suite::{Suite, SuiteOptions, SuiteVideo};
