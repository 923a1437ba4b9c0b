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
//!   typed errors (empty sources, zero bitrates, GOPs the stream header
//!   cannot hold, unreachable quality targets, invalid measurements).
//!
//! [`Engine`] is the one implementation, and what scenario drivers, the
//! transcode farm, the ABR ladder, and the CLI all consume. Both backends
//! run the same steps: resolve the rate (a quality target bisects with
//! bounded streaming probes), encode, measure. [`Backend`] supplies the
//! three facts that differ: the encoder configuration for a rate (the
//! request's knobs, or the ASIC's fixed tool set), the bitrate mode and
//! bisection budget ([`Backend::adapt`]), and the cost (measured wall
//! time, or the [`vhw`] pipeline model priced from frame size and count).
//! So a hardware request streams within [`vcodec::required_window`] just
//! as a software one does. The engine reproduces the pre-existing direct
//! paths *exactly* — same encoder configurations, same bisection
//! constants — so every table keeps its values
//! (`tests/engine_equivalence.rs` pins this).

use crate::measure::{source_bpps, InvalidMeasurement, Measurement};
use vcodec::entropy::EntropyBackend;
use vcodec::{
    CodecFamily, EncodeError, EncodeOutput, EncodeStats, EncoderConfig, Preset, RateControl,
};
use vframe::metrics::psnr_video;
use vframe::source::{collect_video, FrameSource, VideoSource};
use vframe::{Resolution, Video};
use vhw::{bisect_bitrate, HwEncoder, HwVendor, StageSeconds};

/// Bisection probes on the software quality-target path (Table 5's
/// methodology: 8 two-pass probes per clip).
pub const SOFTWARE_BISECT_ITERS: u32 = 8;

/// Bisection probes on the hardware quality-target path (Tables 3/4:
/// 12 single-pass probes per clip).
const HARDWARE_BISECT_ITERS: u32 = 12;

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

    /// The rate mode this backend runs `rate` as. The modelled ASICs
    /// implement single-pass rate control only, so on hardware a two-pass
    /// bitrate becomes single pass at the same target; every other mode
    /// passes through. Callers that want a backend's best fixed-bitrate
    /// mode (the ladder, the CLI) adapt two-pass; the engine refuses an
    /// unadapted two-pass hardware request.
    pub fn adapt(self, rate: RateMode) -> RateMode {
        match rate {
            RateMode::TwoPassBitrate { bps } => self.bitrate_control(bps).into(),
            _ => rate,
        }
    }

    /// The rate control a fixed bitrate runs at on this backend: two-pass
    /// on software, single pass on the modelled ASICs.
    fn bitrate_control(self, bps: u64) -> RateControl {
        match self {
            Backend::Software(_) => RateControl::TwoPassBitrate { bps },
            Backend::Hardware(_) => RateControl::Bitrate { bps },
        }
    }

    /// Probes per [`RateMode::QualityTarget`] bisection.
    fn bisect_iters(self) -> u32 {
        match self {
            Backend::Software(_) => SOFTWARE_BISECT_ITERS,
            Backend::Hardware(_) => HARDWARE_BISECT_ITERS,
        }
    }

    /// The encoder configuration `req` runs at `rate`: the request's
    /// family, preset and knobs on software; the ASIC's fixed tool set
    /// ([`HwEncoder::tool_config`]) on hardware, which ignores them.
    fn encoder_config(self, req: &TranscodeRequest, rate: RateControl) -> EncoderConfig {
        let family = match self {
            Backend::Software(family) => family,
            Backend::Hardware(vendor) => return HwEncoder::new(vendor).tool_config(rate),
        };
        let mut cfg = EncoderConfig::new(family, req.preset, rate).with_gop(req.gop);
        if req.bframes {
            cfg = cfg.with_bframes();
        }
        if !req.deblock {
            cfg = cfg.without_deblock();
        }
        if let Some(backend) = req.entropy_override {
            cfg = cfg.with_entropy_backend(backend);
        }
        cfg
    }

    /// What an encode of `frames` frames of `pixels_per_frame` pixels
    /// cost: its speed in pixels per second and where the time went.
    /// Software charges its measured wall time to the pipeline stage, so
    /// speed is the one nondeterministic axis; hardware prices the clip
    /// with the vendor's pipeline model from frame size and count alone.
    fn cost(
        self,
        stats: &EncodeStats,
        pixels_per_frame: u64,
        frames: usize,
    ) -> (f64, StageSeconds) {
        let pixels = pixels_per_frame * frames as u64;
        match self {
            Backend::Software(_) => (
                stats.pixels_per_second(pixels),
                StageSeconds { submission: 0.0, transfer: 0.0, pipeline: stats.encode_seconds },
            ),
            Backend::Hardware(vendor) => {
                let stages = HwEncoder::new(vendor)
                    .pipeline()
                    .stage_seconds_for(pixels_per_frame, frames as u64);
                (pixels as f64 / stages.total(), stages)
            }
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
    /// modelled ASICs implement single-pass rate control (see
    /// [`Backend::adapt`]).
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
    /// once, on either backend. `None` accepts the configuration's
    /// structural minimum ([`vcodec::required_window`]); a cap below it
    /// is [`EncodeError::WindowTooSmall`]. The in-memory
    /// [`Transcoder::transcode`] path ignores it.
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
    /// [`vcodec::required_window`] on [`Engine`], software and hardware
    /// alike; equal to the clip length on a [`Transcoder`] that only
    /// implements `transcode` (the trait default materializes); 0 for an
    /// outcome loaded back from a journal (nothing was resident in this
    /// run).
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
    /// A request was routed to a [`Transcoder`] that does not serve its
    /// backend. No workspace engine returns it ([`Engine`] serves both
    /// backends); it stays for single-backend [`Transcoder`] impls.
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
    /// so a [`Transcoder`] that only implements `transcode` (a null
    /// encoder, a test double) still serves streaming requests, with
    /// `peak_resident_frames` equal to the clip length. [`Engine`]
    /// overrides it for both backends, keeping residency bounded by
    /// [`vcodec::required_window`] and honouring
    /// [`TranscodeRequest::stream_window`].
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

/// Opens the per-request telemetry span the engine emits, tagged
/// with the request shape. The closing fields (frames, bits, seconds,
/// PSNR) are recorded by [`finish`] on success.
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

/// Prices and measures a finished encode of a clip (`resolution`, `fps`,
/// `frames`) and records the outcome side of the `transcode` span.
/// `encode_secs` is the request's total stage time
/// ([`StageSeconds::total`]) so that summing span-recorded seconds
/// reproduces the farm's `cpu_secs` exactly.
fn finish(
    span: &mut vtrace::SpanGuard,
    backend: Backend,
    (resolution, fps, frames): (Resolution, f64, usize),
    stats: &EncodeStats,
    quality_db: f64,
    chosen_bps: Option<u64>,
) -> Result<(Measurement, StageSeconds), TranscodeError> {
    let (speed, timings) = backend.cost(stats, resolution.pixels(), frames);
    let bytes = stats.bitstream_bytes as usize;
    let measurement =
        Measurement::try_new(speed, source_bpps(resolution, fps, frames, bytes), quality_db)?;
    span.record("bits", stats.bitstream_bytes * 8);
    span.record("encode_secs", timings.total());
    span.record("psnr_db", measurement.quality_db);
    if let Some(bps) = chosen_bps {
        span.record("chosen_bps", bps);
    }
    vtrace::counter("engine.frames_encoded", stats.frames as u64);
    Ok((measurement, timings))
}

/// Runs one request inside its `transcode` span; a failure is counted
/// and logged once the span has closed.
fn traced<T>(
    frames: usize,
    req: &TranscodeRequest,
    run: impl FnOnce(&mut vtrace::SpanGuard) -> Result<T, TranscodeError>,
) -> Result<T, TranscodeError> {
    let mut span = open_span(frames, req);
    let result = run(&mut span);
    drop(span);
    if let Err(e) = &result {
        vtrace::counter("engine.errors", 1);
        vtrace::debug("engine", || format!("transcode failed: {e}"));
    }
    result
}

/// The rate control a request's final encode runs at, shared by both
/// paths and both backends. A [`RateMode::QualityTarget`] runs the
/// paper's loop (Section 5.3): probe the backend's fixed-bitrate mode
/// until quality matches the reference, fall back to the ladder rate.
/// Each probe re-pulls `src` through a fresh bounded encode whose PSNR is
/// bit-identical to `psnr_video` over the materialized clip, so the
/// bisection never needs the clip resident and settles on the same
/// bitrate on either path. `probe_peak` rises to the probes' peak
/// residency.
fn resolve_rate(
    src: &mut dyn FrameSource,
    req: &TranscodeRequest,
    probe_peak: &mut usize,
) -> Result<RateControl, TranscodeError> {
    if src.is_empty() {
        return Err(EncodeError::EmptySource.into());
    }
    let backend = req.backend;
    // A GOP the header cannot hold fails here, before any probe encodes.
    backend.encoder_config(req, RateControl::ConstQuality { crf: 30.0 }).validate()?;
    Ok(match req.rate {
        RateMode::ConstQuality { crf } => RateControl::ConstQuality { crf },
        RateMode::Bitrate { bps } => RateControl::Bitrate { bps },
        RateMode::TwoPassBitrate { bps } => match backend {
            Backend::Software(_) => RateControl::TwoPassBitrate { bps },
            Backend::Hardware(vendor) => {
                return Err(TranscodeError::UnsupportedRate {
                    backend: vendor.name(),
                    mode: "two-pass",
                })
            }
        },
        RateMode::QualityTarget { target_db, lo_bps, hi_bps, fallback_bps } => {
            let found = bisect_bitrate(lo_bps, hi_bps, target_db, backend.bisect_iters(), |bps| {
                let cfg = backend.encoder_config(req, backend.bitrate_control(bps));
                src.reset();
                let probe = vcodec::encode_stream(src, &cfg, None).expect("valid probe");
                *probe_peak = (*probe_peak).max(probe.peak_resident_frames);
                probe.quality_db
            });
            backend.bitrate_control(match found {
                Some(r) => r.bitrate_bps,
                None => {
                    fallback_bps.ok_or(TranscodeError::UnreachableTarget { target_db, hi_bps })?
                }
            })
        }
    })
}

/// The transcode engine: one implementation of [`Transcoder`] for both
/// backends. Bitstream, bitrate and quality are exactly reproducible on
/// either; speed is measured wall time on software and the pipeline
/// model on hardware.
#[derive(Clone, Copy, Default, Debug)]
pub struct Engine;

impl Transcoder for Engine {
    fn transcode(
        &self,
        src: &Video,
        req: &TranscodeRequest,
    ) -> Result<TranscodeOutcome, TranscodeError> {
        traced(src.len(), req, |span| {
            let rate = resolve_rate(&mut VideoSource::new(src), req, &mut 0)?;
            let output = vcodec::try_encode(src, &req.backend.encoder_config(req, rate))?;
            let chosen_bps = rate.target_bps();
            let clip = (src.resolution(), src.fps(), src.len());
            let quality_db = psnr_video(src, &output.recon);
            let (measurement, timings) =
                finish(span, req.backend, clip, &output.stats, quality_db, chosen_bps)?;
            Ok(TranscodeOutcome { output, measurement, timings, chosen_bps })
        })
    }

    fn transcode_stream(
        &self,
        src: &mut dyn FrameSource,
        req: &TranscodeRequest,
    ) -> Result<StreamOutcome, TranscodeError> {
        traced(src.len(), req, |span| {
            let window = req.stream_window;
            // Validate the window up front: bisection probes run before
            // the final encode, and their failure mode is a panic, so a
            // structurally undersized window must surface as a typed
            // error first.
            if let Some(w) = window {
                let probe_cfg =
                    req.backend.encoder_config(req, RateControl::ConstQuality { crf: 30.0 });
                let required = vcodec::required_window(&probe_cfg);
                if w < required {
                    return Err(EncodeError::WindowTooSmall { required, window: w }.into());
                }
            }
            // Peak residency across every encode the request runs, probes
            // included — the figure the `encode.peak_resident_frames`
            // gauge and the farm summary report.
            let mut peak = 0;
            let rate = resolve_rate(src, req, &mut peak)?;
            src.reset();
            let out = vcodec::encode_stream(src, &req.backend.encoder_config(req, rate), window)?;
            let chosen_bps = rate.target_bps();
            let clip = (src.resolution(), src.fps(), src.len());
            let (measurement, timings) =
                finish(span, req.backend, clip, &out.stats, out.quality_db, chosen_bps)?;
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
        })
    }
}

/// Convenience free function: one transcode through [`Engine`].
pub fn transcode(src: &Video, req: &TranscodeRequest) -> Result<TranscodeOutcome, TranscodeError> {
    Engine.transcode(src, req)
}

/// Convenience free function: one *streaming* transcode through
/// [`Engine`].
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
        // controller, and a CRF that is not a number encoded silently at
        // QP 0; the engine surfaces both as typed errors instead, on
        // either backend and either path, and neither is retried.
        let cases = [
            (RateMode::Bitrate { bps: 0 }, EncodeError::ZeroBitrate),
            (RateMode::ConstQuality { crf: f64::NAN }, EncodeError::InvalidCrf),
            (RateMode::ConstQuality { crf: f64::INFINITY }, EncodeError::InvalidCrf),
        ];
        for (rate, err) in cases {
            for req in [
                TranscodeRequest::software(CodecFamily::Avc, Preset::Fast, rate),
                TranscodeRequest::hardware(HwVendor::Nvenc, rate),
            ] {
                let v = clip(3);
                let want = TranscodeError::Encode(err);
                let got = transcode(&v, &req).unwrap_err();
                assert_eq!(got, want, "{} {rate:?}", req.backend);
                assert!(!got.is_retryable());
                let mut src = VideoSource::new(&v);
                let got = transcode_stream(&mut src, &req).unwrap_err();
                assert_eq!(got, want, "{} {rate:?}", req.backend);
            }
        }
    }

    #[test]
    fn gop_outside_the_header_is_a_typed_error_that_is_not_retried() {
        // A GOP of zero, or one past the header's `u16`, used to panic in
        // the encoder, which a batch retries. A quality target bisects
        // with probe encodes before its final one, so it is checked too.
        let v = clip(3);
        let target = RateMode::QualityTarget {
            target_db: 40.0,
            lo_bps: 50_000,
            hi_bps: 2_000_000,
            fallback_bps: None,
        };
        for gop in [0, 65_536] {
            for rate in [RateMode::ConstQuality { crf: 30.0 }, target] {
                let req =
                    TranscodeRequest::software(CodecFamily::Avc, Preset::Fast, rate).with_gop(gop);
                let want = TranscodeError::Encode(EncodeError::InvalidGop(gop));
                let err = transcode_stream(&mut VideoSource::new(&v), &req).unwrap_err();
                assert_eq!(err, want, "{rate:?}");
                assert!(!err.is_retryable());
                assert_eq!(transcode(&v, &req).unwrap_err(), want, "{rate:?}");
            }
        }
        // Both ends of the range the header holds still encode.
        for gop in [1, 65_535] {
            let rate = RateMode::ConstQuality { crf: 30.0 };
            let req =
                TranscodeRequest::software(CodecFamily::Avc, Preset::Fast, rate).with_gop(gop);
            transcode_stream(&mut VideoSource::new(&v), &req).expect("GOP in range");
        }
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
        let mut src = VideoSource::new(&v);
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
    fn stream_window_below_structural_minimum_is_typed() {
        let v = clip(4);
        let rate = RateMode::ConstQuality { crf: 30.0 };
        for (req, window) in [
            (TranscodeRequest::software(CodecFamily::Avc, Preset::Fast, rate), 2),
            (TranscodeRequest::hardware(HwVendor::Nvenc, rate), 1),
        ] {
            let mut src = VideoSource::new(&v);
            assert_eq!(
                transcode_stream(&mut src, &req.with_window(window)).unwrap_err(),
                TranscodeError::Encode(EncodeError::WindowTooSmall { required: 3, window }),
                "{}",
                req.backend
            );
        }
    }
}
