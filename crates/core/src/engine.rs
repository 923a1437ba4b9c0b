//! The unified transcode engine.
//!
//! Every experiment in the reproduction is, at bottom, "run *some*
//! encoder against *some* rate policy and measure the result". Before
//! this module existed, each table hand-rolled that loop: software
//! encodes called [`vcodec::encode`] directly, hardware rows called the
//! [`vhw`] model, and the bitrate-bisection-to-quality-target methodology
//! of Section 5.3 was duplicated per table. The engine folds all of it
//! behind one object-safe trait:
//!
//! * [`TranscodeRequest`] names the *what*: a [`Backend`] (software codec
//!   family or hardware vendor), an effort preset, a [`RateMode`]
//!   (including the paper's quality-target bisection), and the ablation
//!   knobs the encoder exposes (GOP, B frames, deblocking, entropy
//!   backend).
//! * [`Transcoder::transcode`] executes a request and returns a
//!   [`TranscodeOutcome`]: the bitstream + reconstruction, a ready-made
//!   [`Measurement`], stage timings, and the bitrate the rate policy
//!   settled on.
//! * [`TranscodeError`] replaces the panics of the direct paths with
//!   typed errors (empty sources, zero bitrates, unreachable quality
//!   targets, invalid measurements).
//!
//! [`SoftwareEngine`] and [`HardwareEngine`] are the two backend
//! implementations; [`Engine`] dispatches on the request's backend and is
//! what scenario drivers, the transcode farm, the ABR ladder, and the CLI
//! all consume. The engine reproduces the pre-existing direct paths
//! *exactly* — same encoder configurations, same bisection constants —
//! so every table keeps its values (`tests/engine_equivalence.rs` pins
//! this).

use crate::measure::{source_bpps, stream_bpps, InvalidMeasurement, Measurement};
use vcodec::entropy::EntropyBackend;
use vcodec::{
    CodecFamily, EncodeError, EncodeOutput, EncodeStats, EncoderConfig, Preset, RateControl,
};
use vframe::metrics::psnr_video;
use vframe::source::{collect_video, FrameSource, VideoSource};
use vframe::Video;
use vhw::{bisect_bitrate, HwEncoder, HwVendor, StageSeconds};

/// Bisection probes on the software quality-target path (Table 5's
/// methodology: 8 two-pass probes per clip).
pub const SOFTWARE_BISECT_ITERS: u32 = 8;

/// Which encoder implementation executes a request.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Backend {
    /// The software encoder with the given codec tool-set family
    /// (libx264 / libx265 / libvpx-vp9 / libaom class).
    Software(CodecFamily),
    /// A fixed-function hardware encoder model (NVENC / QSV class).
    Hardware(HwVendor),
}

impl Backend {
    /// Display name ("AVC-class", "NVENC", …).
    pub fn name(&self) -> String {
        match self {
            Backend::Software(family) => family.to_string(),
            Backend::Hardware(vendor) => vendor.name().to_string(),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// Rate-control policy for a request.
///
/// The first three mirror [`vcodec::RateControl`]; `QualityTarget` is the
/// paper's tuning methodology (Section 5.3): bisect the target bitrate
/// until the encode matches a reference quality "by a small margin".
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum RateMode {
    /// Constant rate factor (single pass).
    ConstQuality {
        /// CRF value on the QP scale.
        crf: f64,
    },
    /// Fixed bitrate, single pass.
    Bitrate {
        /// Target bits per second.
        bps: u64,
    },
    /// Fixed bitrate with a first analysis pass. Software only: the
    /// modelled ASICs implement single-pass rate control.
    TwoPassBitrate {
        /// Target bits per second.
        bps: u64,
    },
    /// Bisect the bitrate in `[lo_bps, hi_bps]` until quality reaches
    /// `target_db`. Software probes two-pass encodes
    /// ([`SOFTWARE_BISECT_ITERS`] iterations, Table 5); hardware probes
    /// its single-pass mode (12 iterations, Tables 3/4).
    QualityTarget {
        /// Quality target in dB YCbCr PSNR.
        target_db: f64,
        /// Lower bitrate bound (bits/s).
        lo_bps: u64,
        /// Upper bitrate bound (bits/s).
        hi_bps: u64,
        /// Bitrate to encode at when even `hi_bps` misses the target
        /// (the tables fall back to the ladder rate); `None` surfaces
        /// [`TranscodeError::UnreachableTarget`] instead.
        fallback_bps: Option<u64>,
    },
}

impl RateMode {
    /// Short mode name used in telemetry ("crf", "cbr", "2pass", "qtarget").
    pub fn name(&self) -> &'static str {
        match self {
            RateMode::ConstQuality { .. } => "crf",
            RateMode::Bitrate { .. } => "cbr",
            RateMode::TwoPassBitrate { .. } => "2pass",
            RateMode::QualityTarget { .. } => "qtarget",
        }
    }
}

impl From<RateControl> for RateMode {
    fn from(rate: RateControl) -> RateMode {
        match rate {
            RateControl::ConstQuality { crf } => RateMode::ConstQuality { crf },
            RateControl::Bitrate { bps } => RateMode::Bitrate { bps },
            RateControl::TwoPassBitrate { bps } => RateMode::TwoPassBitrate { bps },
        }
    }
}

/// One transcode to perform: backend, effort, rate policy, and encoder
/// knobs.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TranscodeRequest {
    /// Executing backend.
    pub backend: Backend,
    /// Effort preset. Hardware backends ignore it: an ASIC's tool set is
    /// fixed at tape-out.
    pub preset: Preset,
    /// Rate-control policy.
    pub rate: RateMode,
    /// Keyframe interval in frames.
    pub gop: u32,
    /// Insert one B frame between consecutive references (software only).
    pub bframes: bool,
    /// In-loop deblocking filter (on by default).
    pub deblock: bool,
    /// Entropy-backend override for ablations.
    pub entropy_override: Option<EntropyBackend>,
    /// Resident-frame cap for [`Transcoder::transcode_stream`]: the most
    /// frames (source + reconstruction) the streaming path may hold at
    /// once. `None` accepts the configuration's structural minimum
    /// ([`vcodec::required_window`]); the in-memory [`Transcoder::transcode`]
    /// path ignores it.
    pub stream_window: Option<usize>,
}

impl TranscodeRequest {
    /// A request with the default encoder knobs (GOP 60, no B frames,
    /// deblocking on, family-default entropy backend).
    pub fn new(backend: Backend, preset: Preset, rate: RateMode) -> TranscodeRequest {
        TranscodeRequest {
            backend,
            preset,
            rate,
            gop: 60,
            bframes: false,
            deblock: true,
            entropy_override: None,
            stream_window: None,
        }
    }

    /// A software request.
    pub fn software(family: CodecFamily, preset: Preset, rate: RateMode) -> TranscodeRequest {
        TranscodeRequest::new(Backend::Software(family), preset, rate)
    }

    /// A hardware request (the preset is fixed by the ASIC model).
    pub fn hardware(vendor: HwVendor, rate: RateMode) -> TranscodeRequest {
        TranscodeRequest::new(Backend::Hardware(vendor), Preset::Fast, rate)
    }

    /// A software request reproducing an existing [`EncoderConfig`]
    /// verbatim (every knob carried over).
    pub fn from_config(config: &EncoderConfig) -> TranscodeRequest {
        TranscodeRequest {
            backend: Backend::Software(config.family),
            preset: config.preset,
            rate: config.rate.into(),
            gop: config.gop,
            bframes: config.bframes,
            deblock: config.in_loop_deblock,
            entropy_override: config.entropy_override,
            stream_window: None,
        }
    }

    /// Overrides the keyframe interval.
    pub fn with_gop(mut self, gop: u32) -> TranscodeRequest {
        self.gop = gop;
        self
    }

    /// Enables B frames.
    pub fn with_bframes(mut self) -> TranscodeRequest {
        self.bframes = true;
        self
    }

    /// Disables the in-loop deblocking filter.
    pub fn without_deblock(mut self) -> TranscodeRequest {
        self.deblock = false;
        self
    }

    /// Forces an entropy backend.
    pub fn with_entropy_backend(mut self, backend: EntropyBackend) -> TranscodeRequest {
        self.entropy_override = Some(backend);
        self
    }

    /// Caps the streaming path's resident-frame window (see
    /// [`TranscodeRequest::stream_window`]).
    pub fn with_window(mut self, window: usize) -> TranscodeRequest {
        self.stream_window = Some(window);
        self
    }

    /// The software encoder configuration this request's knobs describe
    /// for `family` under `rate`.
    fn encoder_config(&self, family: CodecFamily, rate: RateControl) -> EncoderConfig {
        let mut cfg = EncoderConfig::new(family, self.preset, rate).with_gop(self.gop);
        if self.bframes {
            cfg = cfg.with_bframes();
        }
        if !self.deblock {
            cfg = cfg.without_deblock();
        }
        if let Some(backend) = self.entropy_override {
            cfg = cfg.with_entropy_backend(backend);
        }
        cfg
    }
}

/// A completed transcode.
#[derive(Clone, Debug)]
pub struct TranscodeOutcome {
    /// Bitstream, reconstruction, and work statistics.
    pub output: EncodeOutput,
    /// The transcode's position in speed / bitrate / quality space.
    /// Software speed is measured wall time; hardware speed is the
    /// pipeline model's throughput.
    pub measurement: Measurement,
    /// Where the wall-clock time goes. Software encodes charge everything
    /// to the pipeline stage; hardware splits submission / PCIe transfer /
    /// pipeline per its model.
    pub timings: StageSeconds,
    /// The bitrate the rate policy operated at: the requested rate for
    /// fixed-bitrate modes, the bisected (or fallback) rate for
    /// [`RateMode::QualityTarget`], `None` for constant quality.
    pub chosen_bps: Option<u64>,
}

/// A completed *streaming* transcode, and the outcome every batch job
/// carries. Unlike [`TranscodeOutcome`] there is no reconstruction clip —
/// the bounded pipeline dropped every frame the moment it stopped being
/// referenceable — so the raw encode fields (bitstream, stats) are
/// carried directly, plus the peak frame residency the encode actually
/// reached.
#[derive(Clone, Debug)]
pub struct StreamOutcome {
    /// The bitstream; byte-identical to the in-memory path's for the
    /// same source content and request.
    pub bytes: Vec<u8>,
    /// Work and timing statistics.
    pub stats: vcodec::EncodeStats,
    /// The transcode's position in speed / bitrate / quality space.
    /// Bitrate and quality are bit-identical to the in-memory path's.
    pub measurement: Measurement,
    /// Where the wall-clock time goes (see [`TranscodeOutcome::timings`]).
    pub timings: StageSeconds,
    /// The bitrate the rate policy operated at (see
    /// [`TranscodeOutcome::chosen_bps`]).
    pub chosen_bps: Option<u64>,
    /// The most frames simultaneously resident at any point in the
    /// request, including bisection probes. Bounded by
    /// [`vcodec::required_window`] on the software streaming path; equal
    /// to the clip length on backends that materialize; 0 for an outcome
    /// loaded back from a journal (nothing was resident in this run).
    pub peak_resident_frames: usize,
}

impl StreamOutcome {
    /// The bitstream.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Stage timings.
    pub fn timings(&self) -> &StageSeconds {
        &self.timings
    }

    /// The transcode's measurement.
    pub fn measurement(&self) -> &Measurement {
        &self.measurement
    }

    /// The bitrate the rate policy operated at, if any.
    pub fn chosen_bps(&self) -> Option<u64> {
        self.chosen_bps
    }
}

/// Why a transcode could not produce a valid outcome.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum TranscodeError {
    /// The underlying encoder rejected its input.
    Encode(EncodeError),
    /// An axis of the resulting measurement was non-positive or
    /// non-finite.
    InvalidMeasurement(InvalidMeasurement),
    /// A [`RateMode::QualityTarget`] without a fallback could not reach
    /// its target within the bitrate bounds.
    UnreachableTarget {
        /// The quality target in dB.
        target_db: f64,
        /// The bitrate ceiling that still missed it (bits/s).
        hi_bps: u64,
    },
    /// The backend does not implement the requested rate mode (e.g.
    /// two-pass rate control on a single-pass ASIC).
    UnsupportedRate {
        /// Backend display name.
        backend: &'static str,
        /// Human-readable mode name.
        mode: &'static str,
    },
    /// A request was routed to an engine for the other backend kind.
    BackendMismatch {
        /// The engine that received the request.
        engine: &'static str,
    },
    /// A fault-injection plan failed this attempt on purpose (see
    /// [`vfault::FaultPlan`] and [`crate::resilience`]).
    Injected(vfault::InjectedFault),
}

impl TranscodeError {
    /// True for failures worth retrying: the transient class. Injected
    /// permanent faults and structurally invalid requests (unsupported
    /// rate modes, backend mismatches, zero bitrates) fail the same way
    /// on every attempt, so retrying them only burns fleet time.
    pub fn is_retryable(&self) -> bool {
        match self {
            TranscodeError::Injected(f) => f.kind != vfault::FaultKind::Permanent,
            TranscodeError::Encode(_)
            | TranscodeError::UnsupportedRate { .. }
            | TranscodeError::BackendMismatch { .. }
            | TranscodeError::UnreachableTarget { .. }
            | TranscodeError::InvalidMeasurement(_) => false,
        }
    }
}

impl std::fmt::Display for TranscodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TranscodeError::Encode(e) => write!(f, "encode failed: {e}"),
            TranscodeError::InvalidMeasurement(e) => write!(f, "invalid measurement: {e}"),
            TranscodeError::UnreachableTarget { target_db, hi_bps } => {
                write!(f, "quality target {target_db:.2} dB unreachable even at {hi_bps} bit/s")
            }
            TranscodeError::UnsupportedRate { backend, mode } => {
                write!(f, "{backend} does not implement {mode} rate control")
            }
            TranscodeError::BackendMismatch { engine } => {
                write!(f, "request routed to the {engine} engine for the wrong backend")
            }
            TranscodeError::Injected(fault) => fault.fmt(f),
        }
    }
}

impl std::error::Error for TranscodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TranscodeError::Encode(e) => Some(e),
            TranscodeError::InvalidMeasurement(e) => Some(e),
            TranscodeError::Injected(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EncodeError> for TranscodeError {
    fn from(e: EncodeError) -> TranscodeError {
        TranscodeError::Encode(e)
    }
}

impl From<InvalidMeasurement> for TranscodeError {
    fn from(e: InvalidMeasurement) -> TranscodeError {
        TranscodeError::InvalidMeasurement(e)
    }
}

/// Anything that can execute a [`TranscodeRequest`]. Object safe and
/// `Sync` so the transcode farm can share one engine across worker
/// threads (`&dyn Transcoder` / `Box<dyn Transcoder>`).
pub trait Transcoder: Sync {
    /// Runs one transcode.
    fn transcode(
        &self,
        src: &Video,
        req: &TranscodeRequest,
    ) -> Result<TranscodeOutcome, TranscodeError>;

    /// Runs one transcode by *pulling* frames from a source instead of
    /// holding the whole clip. Results are byte- and value-identical to
    /// [`Transcoder::transcode`] on the materialized clip; only the
    /// memory profile differs. Every batch job runs through this method.
    ///
    /// The default implementation materializes the source and delegates,
    /// so every [`Transcoder`] supports streaming requests (with
    /// `peak_resident_frames` equal to the clip length). Backends with a
    /// real streaming path — [`SoftwareEngine`] — override it to keep
    /// residency bounded by [`vcodec::required_window`].
    fn transcode_stream(
        &self,
        src: &mut dyn FrameSource,
        req: &TranscodeRequest,
    ) -> Result<StreamOutcome, TranscodeError> {
        let video = collect_video(src);
        let peak = video.len();
        let outcome = self.transcode(&video, req)?;
        Ok(StreamOutcome {
            bytes: outcome.output.bytes,
            stats: outcome.output.stats,
            measurement: outcome.measurement,
            timings: outcome.timings,
            chosen_bps: outcome.chosen_bps,
            peak_resident_frames: peak,
        })
    }
}

/// Opens the per-request telemetry span every leaf engine emits, tagged
/// with the request shape. The closing fields (frames, bits, seconds,
/// PSNR) are recorded by [`finish_span`] on success.
fn open_span(frames: usize, req: &TranscodeRequest) -> vtrace::SpanGuard {
    let mut span = vtrace::span("transcode");
    if span.id().is_some() {
        span.record(
            "backend",
            match req.backend {
                Backend::Software(_) => "software",
                Backend::Hardware(_) => "hardware",
            },
        );
        span.record("codec", req.backend.name());
        span.record("preset", req.preset.to_string());
        span.record("rate_mode", req.rate.name());
        span.record("frames", frames);
        vtrace::counter("engine.requests", 1);
    }
    span
}

/// Records the outcome side of the `transcode` span. `encode_secs` is the
/// request's total stage time ([`StageSeconds::total`]) so that summing
/// span-recorded seconds reproduces the farm's `cpu_secs` exactly.
fn finish_span(
    span: &mut vtrace::SpanGuard,
    stats: &EncodeStats,
    measurement: &Measurement,
    timings: &StageSeconds,
    chosen_bps: Option<u64>,
) {
    span.record("bits", stats.bitstream_bytes * 8);
    span.record("encode_secs", timings.total());
    span.record("psnr_db", measurement.quality_db);
    if let Some(bps) = chosen_bps {
        span.record("chosen_bps", bps);
    }
    vtrace::counter("engine.frames_encoded", stats.frames as u64);
}

/// Software encodes charge all their wall time to the pipeline stage.
fn pipeline_timings(stats: &EncodeStats) -> StageSeconds {
    StageSeconds { submission: 0.0, transfer: 0.0, pipeline: stats.encode_seconds }
}

/// Builds the outcome measurement through the checked constructor so the
/// engine path never panics on degenerate axes.
fn outcome_measurement(
    src: &Video,
    output: &EncodeOutput,
    speed_pps: f64,
) -> Result<Measurement, TranscodeError> {
    Ok(Measurement::try_new(
        speed_pps,
        stream_bpps(src, output.bytes.len()),
        psnr_video(src, &output.recon),
    )?)
}

/// The software backend: runs [`vcodec`] with the requested family,
/// preset, and knobs. Speed is measured wall time, so it is the one
/// nondeterministic axis; bitstream, bitrate, and quality are exactly
/// reproducible.
#[derive(Clone, Copy, Default, Debug)]
pub struct SoftwareEngine;

impl SoftwareEngine {
    /// The rate control a request's final encode runs at, and the
    /// bitrate it operates at — shared by both paths. A
    /// [`RateMode::QualityTarget`] runs Table 5's loop: probe two-pass
    /// encodes until quality matches the reference, fall back to the
    /// ladder rate. Each probe re-pulls `src` through a fresh bounded
    /// encode whose PSNR is bit-identical to `psnr_video` over the
    /// materialized clip, so the bisection never needs the clip resident
    /// and settles on the same bitrate on either path. `probe_peak`
    /// rises to the probes' peak residency.
    fn resolve_rate(
        src: &mut dyn FrameSource,
        req: &TranscodeRequest,
        family: CodecFamily,
        probe_peak: &mut usize,
    ) -> Result<(RateControl, Option<u64>), TranscodeError> {
        if src.is_empty() {
            return Err(EncodeError::EmptySource.into());
        }
        Ok(match req.rate {
            RateMode::ConstQuality { crf } => (RateControl::ConstQuality { crf }, None),
            RateMode::Bitrate { bps } => (RateControl::Bitrate { bps }, Some(bps)),
            RateMode::TwoPassBitrate { bps } => (RateControl::TwoPassBitrate { bps }, Some(bps)),
            RateMode::QualityTarget { target_db, lo_bps, hi_bps, fallback_bps } => {
                let found = bisect_bitrate(lo_bps, hi_bps, target_db, SOFTWARE_BISECT_ITERS, |b| {
                    let cfg = req.encoder_config(family, RateControl::TwoPassBitrate { bps: b });
                    src.reset();
                    let probe = vcodec::encode_stream(src, &cfg, None).expect("valid probe");
                    *probe_peak = (*probe_peak).max(probe.peak_resident_frames);
                    probe.quality_db
                });
                let bps = match found {
                    Some(r) => r.bitrate_bps,
                    None => fallback_bps
                        .ok_or(TranscodeError::UnreachableTarget { target_db, hi_bps })?,
                };
                (RateControl::TwoPassBitrate { bps }, Some(bps))
            }
        })
    }
}

impl Transcoder for SoftwareEngine {
    fn transcode(
        &self,
        src: &Video,
        req: &TranscodeRequest,
    ) -> Result<TranscodeOutcome, TranscodeError> {
        let Backend::Software(family) = req.backend else {
            return Err(TranscodeError::BackendMismatch { engine: "software" });
        };
        let mut span = open_span(src.len(), req);
        let (rate, chosen_bps) =
            SoftwareEngine::resolve_rate(&mut VideoSource::new(src), req, family, &mut 0)?;
        let output = vcodec::try_encode(src, &req.encoder_config(family, rate))?;
        let speed = output.stats.pixels_per_second(src.total_pixels());
        let measurement = outcome_measurement(src, &output, speed)?;
        let timings = pipeline_timings(&output.stats);
        finish_span(&mut span, &output.stats, &measurement, &timings, chosen_bps);
        Ok(TranscodeOutcome { output, measurement, timings, chosen_bps })
    }

    fn transcode_stream(
        &self,
        src: &mut dyn FrameSource,
        req: &TranscodeRequest,
    ) -> Result<StreamOutcome, TranscodeError> {
        let Backend::Software(family) = req.backend else {
            return Err(TranscodeError::BackendMismatch { engine: "software" });
        };
        let mut span = open_span(src.len(), req);
        let window = req.stream_window;
        // Validate the window up front: bisection probes run before the
        // final encode, and their failure mode is a panic, so a
        // structurally undersized window must surface as a typed error
        // first.
        if let Some(w) = window {
            let probe_cfg = req.encoder_config(family, RateControl::ConstQuality { crf: 30.0 });
            let required = vcodec::required_window(&probe_cfg);
            if w < required {
                return Err(EncodeError::WindowTooSmall { required, window: w }.into());
            }
        }
        // Peak residency across every encode the request runs, probes
        // included — the figure the `encode.peak_resident_frames` gauge
        // and the farm summary report.
        let mut peak = 0;
        let (rate, chosen_bps) = SoftwareEngine::resolve_rate(src, req, family, &mut peak)?;
        src.reset();
        let out = vcodec::encode_stream(src, &req.encoder_config(family, rate), window)?;
        let total_pixels = src.resolution().pixels() * src.len() as u64;
        let measurement = Measurement::try_new(
            out.stats.pixels_per_second(total_pixels),
            source_bpps(src.resolution(), src.fps(), src.len(), out.bytes.len()),
            out.quality_db,
        )?;
        let timings = pipeline_timings(&out.stats);
        finish_span(&mut span, &out.stats, &measurement, &timings, chosen_bps);
        let peak_resident_frames = peak.max(out.peak_resident_frames);
        span.record("peak_resident_frames", peak_resident_frames);
        Ok(StreamOutcome {
            bytes: out.bytes,
            stats: out.stats,
            measurement,
            timings,
            chosen_bps,
            peak_resident_frames,
        })
    }
}

/// The hardware backend: runs the [`vhw`] ASIC model for the requested
/// vendor. Fully deterministic, including the modelled speed.
#[derive(Clone, Copy, Default, Debug)]
pub struct HardwareEngine;

impl Transcoder for HardwareEngine {
    fn transcode(
        &self,
        src: &Video,
        req: &TranscodeRequest,
    ) -> Result<TranscodeOutcome, TranscodeError> {
        let Backend::Hardware(vendor) = req.backend else {
            return Err(TranscodeError::BackendMismatch { engine: "hardware" });
        };
        let mut span = open_span(src.len(), req);
        let hw = HwEncoder::new(vendor);
        let (result, chosen_bps) = match req.rate {
            RateMode::ConstQuality { crf } => (hw.encode_quality(src, crf), None),
            RateMode::Bitrate { bps } => (hw.encode_bitrate(src, bps), Some(bps)),
            RateMode::TwoPassBitrate { .. } => {
                return Err(TranscodeError::UnsupportedRate {
                    backend: vendor.name(),
                    mode: "two-pass",
                });
            }
            RateMode::QualityTarget { target_db, lo_bps, hi_bps, fallback_bps } => {
                // Tables 3/4's loop: 12 single-pass probes, fall back to
                // the ladder rate when even max bitrate misses.
                match hw.encode_to_quality_target_with_rate(src, target_db, lo_bps, hi_bps) {
                    Some((result, bps)) => (result, Some(bps)),
                    None => match fallback_bps {
                        Some(bps) => (hw.encode_bitrate(src, bps), Some(bps)),
                        None => {
                            return Err(TranscodeError::UnreachableTarget { target_db, hi_bps })
                        }
                    },
                }
            }
        };
        let measurement = outcome_measurement(src, &result.output, result.speed_pixels_per_sec)?;
        let (output, timings) = (result.output, result.stages);
        finish_span(&mut span, &output.stats, &measurement, &timings, chosen_bps);
        Ok(TranscodeOutcome { output, measurement, timings, chosen_bps })
    }
}

/// The dispatching engine every consumer uses: routes each request to
/// [`SoftwareEngine`] or [`HardwareEngine`] by its backend.
#[derive(Clone, Copy, Default, Debug)]
pub struct Engine;

impl Transcoder for Engine {
    fn transcode(
        &self,
        src: &Video,
        req: &TranscodeRequest,
    ) -> Result<TranscodeOutcome, TranscodeError> {
        let result = match req.backend {
            Backend::Software(_) => SoftwareEngine.transcode(src, req),
            Backend::Hardware(_) => HardwareEngine.transcode(src, req),
        };
        if let Err(e) = &result {
            vtrace::counter("engine.errors", 1);
            vtrace::debug("engine", || format!("transcode failed: {e}"));
        }
        result
    }

    fn transcode_stream(
        &self,
        src: &mut dyn FrameSource,
        req: &TranscodeRequest,
    ) -> Result<StreamOutcome, TranscodeError> {
        let result = match req.backend {
            Backend::Software(_) => SoftwareEngine.transcode_stream(src, req),
            // The ASIC models consume whole clips; the default
            // materializing path keeps them correct under streaming
            // requests.
            Backend::Hardware(_) => HardwareEngine.transcode_stream(src, req),
        };
        if let Err(e) = &result {
            vtrace::counter("engine.errors", 1);
            vtrace::debug("engine", || format!("transcode failed: {e}"));
        }
        result
    }
}

/// Convenience free function: one transcode through the dispatching
/// [`Engine`].
pub fn transcode(src: &Video, req: &TranscodeRequest) -> Result<TranscodeOutcome, TranscodeError> {
    Engine.transcode(src, req)
}

/// Convenience free function: one *streaming* transcode through the
/// dispatching [`Engine`].
pub fn transcode_stream(
    src: &mut dyn FrameSource,
    req: &TranscodeRequest,
) -> Result<StreamOutcome, TranscodeError> {
    Engine.transcode_stream(src, req)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vframe::color::{frame_from_fn, Yuv};
    use vframe::Resolution;

    fn clip(frames: usize) -> Video {
        let res = Resolution::new(64, 64);
        let fs = (0..frames)
            .map(|t| {
                frame_from_fn(res, |x, y| {
                    Yuv::new(((x * 3 + y * 2 + 5 * t as u32) % 256) as u8, 128, 128)
                })
            })
            .collect();
        Video::new(fs, 30.0)
    }

    #[test]
    fn software_request_reproduces_direct_encode() {
        let v = clip(4);
        let cfg = EncoderConfig::new(
            CodecFamily::Hevc,
            Preset::Fast,
            RateControl::ConstQuality { crf: 30.0 },
        );
        let direct = vcodec::encode(&v, &cfg);
        let outcome = transcode(&v, &TranscodeRequest::from_config(&cfg)).expect("valid request");
        assert_eq!(outcome.output.bytes, direct.bytes);
        assert_eq!(outcome.chosen_bps, None);
        assert!(outcome.timings.pipeline > 0.0);
    }

    #[test]
    fn hardware_request_reports_modelled_stages() {
        let v = clip(4);
        let req = TranscodeRequest::hardware(HwVendor::Qsv, RateMode::Bitrate { bps: 400_000 });
        let outcome = transcode(&v, &req).expect("valid request");
        assert!(outcome.timings.submission > 0.0 && outcome.timings.transfer > 0.0);
        assert_eq!(outcome.chosen_bps, Some(400_000));
        assert!(outcome.measurement.speed_pps > 1e6, "hardware is fast");
    }

    #[test]
    fn invalid_request_is_a_typed_error() {
        // A zero-bitrate target used to panic deep inside the rate
        // controller; the engine surfaces it as a typed error instead.
        let req = TranscodeRequest::software(
            CodecFamily::Avc,
            Preset::Fast,
            RateMode::Bitrate { bps: 0 },
        );
        assert_eq!(
            transcode(&clip(3), &req).unwrap_err(),
            TranscodeError::Encode(EncodeError::ZeroBitrate)
        );
    }

    #[test]
    fn hardware_rejects_two_pass() {
        let v = clip(3);
        let req =
            TranscodeRequest::hardware(HwVendor::Nvenc, RateMode::TwoPassBitrate { bps: 400_000 });
        assert!(matches!(
            transcode(&v, &req),
            Err(TranscodeError::UnsupportedRate { backend: "NVENC", .. })
        ));
    }

    #[test]
    fn unreachable_target_without_fallback_errors() {
        let v = clip(3);
        let req = TranscodeRequest::hardware(
            HwVendor::Nvenc,
            RateMode::QualityTarget {
                target_db: 99.0,
                lo_bps: 1_000,
                hi_bps: 50_000,
                fallback_bps: None,
            },
        );
        assert!(matches!(
            transcode(&v, &req),
            Err(TranscodeError::UnreachableTarget { hi_bps: 50_000, .. })
        ));
    }

    #[test]
    fn unreachable_target_with_fallback_encodes_at_fallback() {
        let v = clip(3);
        let req = TranscodeRequest::hardware(
            HwVendor::Nvenc,
            RateMode::QualityTarget {
                target_db: 99.0,
                lo_bps: 1_000,
                hi_bps: 50_000,
                fallback_bps: Some(120_000),
            },
        );
        let outcome = transcode(&v, &req).expect("fallback saves the request");
        assert_eq!(outcome.chosen_bps, Some(120_000));
    }

    #[test]
    fn streaming_software_request_is_byte_identical() {
        let v = clip(8);
        let req = TranscodeRequest::software(
            CodecFamily::Avc,
            Preset::Fast,
            RateMode::TwoPassBitrate { bps: 300_000 },
        )
        .with_gop(4)
        .with_bframes();
        let full = transcode(&v, &req).expect("in-memory transcode");
        let mut src = vframe::source::VideoSource::new(&v);
        let streamed = transcode_stream(&mut src, &req).expect("streaming transcode");
        assert_eq!(streamed.bytes, full.output.bytes);
        assert_eq!(streamed.measurement.bitrate_bpps, full.measurement.bitrate_bpps);
        assert_eq!(streamed.measurement.quality_db, full.measurement.quality_db);
        assert_eq!(streamed.chosen_bps, full.chosen_bps);
        assert!(
            streamed.peak_resident_frames < v.len(),
            "bounded path held {} of {} frames",
            streamed.peak_resident_frames,
            v.len()
        );
    }

    #[test]
    fn streaming_hardware_request_materializes() {
        let v = clip(5);
        let req = TranscodeRequest::hardware(HwVendor::Nvenc, RateMode::Bitrate { bps: 400_000 });
        let full = transcode(&v, &req).expect("in-memory transcode");
        let mut src = vframe::source::VideoSource::new(&v);
        let streamed = transcode_stream(&mut src, &req).expect("streaming transcode");
        assert_eq!(streamed.bytes, full.output.bytes);
        assert_eq!(streamed.peak_resident_frames, v.len(), "ASIC models hold the clip");
    }

    #[test]
    fn stream_window_below_structural_minimum_is_typed() {
        let v = clip(4);
        let req = TranscodeRequest::software(
            CodecFamily::Avc,
            Preset::Fast,
            RateMode::ConstQuality { crf: 30.0 },
        )
        .with_window(2);
        let mut src = vframe::source::VideoSource::new(&v);
        assert_eq!(
            transcode_stream(&mut src, &req).unwrap_err(),
            TranscodeError::Encode(EncodeError::WindowTooSmall { required: 3, window: 2 })
        );
    }

    #[test]
    fn backend_mismatch_is_detected() {
        let v = clip(2);
        let sw = TranscodeRequest::software(
            CodecFamily::Avc,
            Preset::Fast,
            RateMode::ConstQuality { crf: 30.0 },
        );
        assert!(matches!(
            HardwareEngine.transcode(&v, &sw),
            Err(TranscodeError::BackendMismatch { engine: "hardware" })
        ));
    }
}
