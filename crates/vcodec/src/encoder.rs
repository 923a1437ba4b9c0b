//! The video encoder.
//!
//! A block-transform hybrid encoder following the template of Section 2.1
//! of the paper: frames are decomposed into superblocks; each is predicted
//! (intra from reconstructed neighbours, or inter via motion estimation
//! against the previous reconstructed frame); the residual is transformed,
//! quantized and entropy-coded; the quantized residual is reconstructed
//! in-loop so encoder and decoder reference identical pixels; a deblocking
//! filter smooths block boundaries.
//!
//! Speed is *measured*, not modelled: effort levels do genuinely different
//! amounts of work (search positions, RDO candidates, entropy method), so
//! the paper's speed/quality/bitrate trade-offs emerge from real
//! computation.

use std::collections::VecDeque;
use std::sync::OnceLock;
use std::time::Instant;

use crate::deblock::deblock_plane;
use crate::entropy::{CtxClass, EntropyEncoder};
use crate::family::{CodecFamily, Preset};
use crate::motion::{
    average_into, motion_compensate_into, search, MotionVector, MvGrid, SearchParams, SearchStats,
};
use crate::predict::{predict_intra_into, IntraMode};
use crate::quant::{quantize_into, Deadzone, QP_MAX};
use crate::rc::{FirstPassLog, FrameKind, RateControl, RateController};
use crate::stats::{BranchSite, EncodeStats, Kernel, KernelCounters, NoProbe, Probe};
use crate::syntax::{self, put_quadrant_mode, put_sb_mode, FrameType, Recons, SbMode, StreamInfo};
use crate::tile::{reconstruct_tile, residual_tile, Levels, Scratch, TILE};
use crate::transform::fdct8;
use vframe::block::{sad, satd, Block};
use vframe::metrics::PsnrAccumulator;
use vframe::source::{FrameSource, VideoSource};
use vframe::{Frame, Plane, Video};

/// Synthetic address-space bases used for probe memory events (the encoder
/// double-buffers reconstruction the way a real one reuses frame buffers).
const ADDR_CUR: u64 = 0x1000_0000;
const ADDR_REF_A: u64 = 0x2000_0000;
const ADDR_REF_B: u64 = 0x3000_0000;
/// Plane offsets within a frame buffer region.
const ADDR_CHROMA_U: u64 = 0x0080_0000;
const ADDR_CHROMA_V: u64 = 0x00c0_0000;

/// Full encoder configuration.
#[derive(Clone, Copy, Debug)]
pub struct EncoderConfig {
    /// Codec tool-set family.
    pub family: CodecFamily,
    /// Effort preset.
    pub preset: Preset,
    /// Rate-control mode.
    pub rate: RateControl,
    /// Keyframe interval in frames.
    pub gop: u32,
    /// In-loop deblocking filter (on by default; the off position exists
    /// for ablation studies of this design choice).
    pub in_loop_deblock: bool,
    /// Entropy backend override for ablations; `None` uses the family's
    /// preset-dependent default.
    pub entropy_override: Option<crate::entropy::EntropyBackend>,
    /// Insert one bidirectional (B) frame between consecutive reference
    /// frames. B frames predict from both temporal directions and are not
    /// themselves used as references.
    pub bframes: bool,
}

impl EncoderConfig {
    /// Creates a configuration with the default GOP of 60 frames.
    pub fn new(family: CodecFamily, preset: Preset, rate: RateControl) -> EncoderConfig {
        EncoderConfig {
            family,
            preset,
            rate,
            gop: 60,
            in_loop_deblock: true,
            entropy_override: None,
            bframes: false,
        }
    }

    /// Overrides the keyframe interval. [`EncoderConfig::validate`]
    /// rejects one of zero or past the header's `u16`.
    pub fn with_gop(mut self, gop: u32) -> EncoderConfig {
        self.gop = gop;
        self
    }

    /// The checks [`try_encode`] and [`encode_stream`] run on a
    /// configuration before any coding.
    ///
    /// # Errors
    ///
    /// [`EncodeError::ZeroBitrate`], [`EncodeError::InvalidCrf`] or
    /// [`EncodeError::InvalidGop`].
    pub fn validate(&self) -> Result<(), EncodeError> {
        if self.rate.target_bps() == Some(0) {
            return Err(EncodeError::ZeroBitrate);
        }
        if let RateControl::ConstQuality { crf } = self.rate {
            if !crf.is_finite() {
                return Err(EncodeError::InvalidCrf);
            }
        }
        if self.gop == 0 || self.gop > u32::from(u16::MAX) {
            return Err(EncodeError::InvalidGop(self.gop));
        }
        Ok(())
    }

    /// Disables the in-loop deblocking filter (ablation knob).
    pub fn without_deblock(mut self) -> EncoderConfig {
        self.in_loop_deblock = false;
        self
    }

    /// Forces an entropy backend regardless of family/preset (ablation
    /// knob; the choice is recorded in the stream header, so decoding
    /// works unchanged).
    pub fn with_entropy_backend(
        mut self,
        backend: crate::entropy::EntropyBackend,
    ) -> EncoderConfig {
        self.entropy_override = Some(backend);
        self
    }

    /// The entropy backend this configuration codes with.
    pub fn entropy_backend(&self) -> crate::entropy::EntropyBackend {
        self.entropy_override.unwrap_or_else(|| self.family.entropy_backend(self.preset))
    }

    /// Enables B frames (IBPBP… structure).
    pub fn with_bframes(mut self) -> EncoderConfig {
        self.bframes = true;
        self
    }
}

/// The coding (bitstream) order for a clip: pairs of `(display_index,
/// frame_type)`. Without B frames this is display order; with them, each
/// B is coded after the reference frame that follows it in display order
/// (the decoder needs both its references first).
pub fn coding_order(frames: usize, gop: u32, bframes: bool) -> Vec<(usize, FrameType)> {
    assert!(gop > 0, "GOP must be non-zero");
    let gop = gop as usize;
    let mut order = Vec::with_capacity(frames);
    if !bframes {
        for d in 0..frames {
            let t = if d % gop == 0 { FrameType::Intra } else { FrameType::Predicted };
            order.push((d, t));
        }
        return order;
    }
    let mut d = 0usize;
    while d < frames {
        if d.is_multiple_of(gop) {
            order.push((d, FrameType::Intra));
            d += 1;
        } else if d + 1 < frames && !(d + 1).is_multiple_of(gop) {
            // P first (it is the B's backward reference), then the B.
            order.push((d + 1, FrameType::Predicted));
            order.push((d, FrameType::Bidirectional));
            d += 2;
        } else {
            order.push((d, FrameType::Predicted));
            d += 1;
        }
    }
    order
}

/// Everything an encode produces.
#[derive(Clone, Debug)]
pub struct EncodeOutput {
    /// The complete bitstream (header + frames).
    pub bytes: Vec<u8>,
    /// Work and timing statistics (all passes).
    pub stats: EncodeStats,
    /// The encoder-side reconstruction; bit-identical to what
    /// [`crate::decoder::decode`] produces, and the video whose PSNR
    /// against the source defines quality.
    pub recon: Video,
    /// First-pass complexity log when two-pass rate control ran.
    pub first_pass: Option<FirstPassLog>,
}

impl EncodeOutput {
    /// Bitrate of the produced stream in bits per second.
    pub fn bitrate_bps(&self, duration_secs: f64) -> f64 {
        (self.bytes.len() as f64 * 8.0) / duration_secs
    }
}

/// Why an encode request was rejected before any coding ran.
///
/// [`encode`] keeps its infallible signature for well-formed inputs (the
/// historical call sites all construct valid requests statically);
/// [`try_encode`] is the checked entry point the `vbench` engine layer
/// routes through, where requests arrive from CLIs and experiment
/// configurations at run time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EncodeError {
    /// The source clip has no frames.
    EmptySource,
    /// A bitrate-targeting mode was asked to hit zero bits per second.
    ZeroBitrate,
    /// A constant-quality mode was given a CRF that is NaN or infinite.
    /// A finite CRF outside the QP range clamps to its nearest end.
    InvalidCrf,
    /// The keyframe interval is zero, or past the `u16` the stream header
    /// stores it in.
    InvalidGop(u32),
    /// A streaming encode was given a resident-frame window smaller than
    /// the configuration's reference/reorder structure needs (see
    /// [`required_window`]).
    WindowTooSmall {
        /// The smallest window this configuration fits in.
        required: usize,
        /// The window that was requested.
        window: usize,
    },
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::EmptySource => f.write_str("source clip has no frames"),
            EncodeError::ZeroBitrate => f.write_str("bitrate target must be non-zero"),
            EncodeError::InvalidCrf => f.write_str("CRF must be a finite number"),
            EncodeError::InvalidGop(gop) => write!(f, "GOP of {gop} frames outside 1..=65535"),
            EncodeError::WindowTooSmall { required, window } => {
                write!(f, "window of {window} frames below the {required} this config needs")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Encodes `video` with `config`, without microarchitectural probing.
///
/// # Panics
///
/// Panics if the GOP is zero or past `u16::MAX`, which [`try_encode`]
/// returns as an error instead.
pub fn encode(video: &Video, config: &EncoderConfig) -> EncodeOutput {
    encode_with_probe(video, config, &mut NoProbe)
}

/// Checked variant of [`encode`]: validates the request and returns a
/// typed [`EncodeError`] instead of panicking deeper in the pipeline.
pub fn try_encode(video: &Video, config: &EncoderConfig) -> Result<EncodeOutput, EncodeError> {
    if video.is_empty() {
        return Err(EncodeError::EmptySource);
    }
    config.validate()?;
    Ok(encode(video, config))
}

/// The smallest resident-frame window a streaming encode with `config`
/// fits in, counting every frame the pipeline holds at once:
///
/// * the display-order pull buffer — 2 frames with B frames (a B is coded
///   after the P that follows it in display order, so its source frame
///   waits one slot), 1 without;
/// * the retained reference reconstructions — current and previous
///   reference with B frames (a B predicts from both), current only
///   without;
/// * the one reconstruction in flight while it is scored and filed.
///
/// GOP length moves keyframes but never widens the reference window, so
/// it does not appear in the bound.
pub fn required_window(config: &EncoderConfig) -> usize {
    if config.bframes {
        5
    } else {
        3
    }
}

/// Everything a bounded-memory streaming encode produces.
///
/// Unlike [`EncodeOutput`] there is no reconstruction clip — recons are
/// dropped the moment they leave the reference window — so quality is
/// reported directly: accumulated per frame during the pass,
/// bit-identical to `psnr_video` over the materialized source and
/// reconstruction (pinned by the workspace's stream-equivalence tests).
#[derive(Clone, Debug)]
pub struct StreamEncodeOutput {
    /// The complete bitstream (header + frames); byte-identical to what
    /// [`encode`] produces for the same content and configuration.
    pub bytes: Vec<u8>,
    /// Work and timing statistics (all passes). `encode_seconds` excludes
    /// time spent waiting on the source (pull wait is the producer's cost,
    /// not the encoder's).
    pub stats: EncodeStats,
    /// Average YCbCr PSNR of the reconstruction against the source, in dB.
    pub quality_db: f64,
    /// The most frames (source + reconstruction) simultaneously resident
    /// at any point across all passes; at most [`required_window`].
    pub peak_resident_frames: usize,
    /// First-pass complexity log when two-pass rate control ran.
    pub first_pass: Option<FirstPassLog>,
}

/// Encodes a [`FrameSource`] with bounded memory: frames are pulled in
/// display order as the coding order needs them, reconstructions are
/// dropped once no longer referenceable, and quality accumulates per
/// frame. The bitstream is byte-identical to [`encode`] over the
/// materialized clip: both run the one driver below.
///
/// Two-pass rate control replays the source (analysis pass, then
/// [`FrameSource::reset`], then the main pass); the peak residency
/// covers both passes.
///
/// `window` is an optional ceiling on resident frames: it never changes
/// the bitstream (the pipeline always runs at its structural minimum,
/// [`required_window`]) but requests below that minimum are rejected.
///
/// # Errors
///
/// [`EncodeError::EmptySource`], an error of
/// [`EncoderConfig::validate`], or [`EncodeError::WindowTooSmall`].
pub fn encode_stream(
    source: &mut dyn FrameSource,
    config: &EncoderConfig,
    window: Option<usize>,
) -> Result<StreamEncodeOutput, EncodeError> {
    if source.is_empty() {
        return Err(EncodeError::EmptySource);
    }
    config.validate()?;
    let required = required_window(config);
    if let Some(w) = window {
        if w < required {
            return Err(EncodeError::WindowTooSmall { required, window: w });
        }
    }
    let mut psnr = PsnrAccumulator::new(source.len());
    let driven = drive(source, config, &mut NoProbe, false, Some(&mut psnr));
    let peak = driven.peak_resident_frames;
    assert!(peak <= required, "residency {peak} exceeded the structural window {required}");
    if vtrace::enabled() {
        vtrace::gauge("encode.peak_resident_frames", peak as f64);
    }
    Ok(StreamEncodeOutput {
        bytes: driven.pass.bytes,
        stats: driven.stats,
        quality_db: psnr.finish(),
        peak_resident_frames: peak,
        first_pass: driven.first_pass,
    })
}

/// Encodes `video` with `config`, streaming trace events into `probe`,
/// and keeps every reconstruction for [`EncodeOutput::recon`].
///
/// Two-pass rate control runs the analysis pass first (at [`Preset::VeryFast`]
/// with a fixed analysis QP, like production pipelines); its time and work
/// are included in the returned statistics, and its log is returned.
pub fn encode_with_probe(
    video: &Video,
    config: &EncoderConfig,
    probe: &mut dyn Probe,
) -> EncodeOutput {
    let driven = drive(&mut VideoSource::new(video), config, probe, true, None);
    EncodeOutput {
        bytes: driven.pass.bytes,
        stats: driven.stats,
        recon: Video::new(driven.pass.recon, video.fps()),
        first_pass: driven.first_pass,
    }
}

/// What [`drive`] produces; each entry point keeps its part of it.
struct Driven {
    /// The main pass.
    pass: PassResult,
    /// Work and timing statistics over both passes.
    stats: EncodeStats,
    /// First-pass complexity log when two-pass rate control ran.
    first_pass: Option<FirstPassLog>,
    /// The most frames resident at once across both passes (a retained
    /// clip is output, not working set, and is not counted).
    peak_resident_frames: usize,
}

/// The one encode driver: rate-controller setup (running the two-pass
/// analysis pass bounded — its reconstruction is thrown away), the main
/// pass, and stats assembly. `retain` keeps the main pass's every
/// reconstruction; `psnr` scores it frame by frame. `encode_seconds`
/// excludes time spent waiting on the source: pull wait is the
/// producer's cost, not the encoder's.
fn drive(
    source: &mut dyn FrameSource,
    config: &EncoderConfig,
    probe: &mut dyn Probe,
    retain: bool,
    psnr: Option<&mut PsnrAccumulator>,
) -> Driven {
    let start = Instant::now();
    let mut kernels = KernelCounters::new();
    let mut peak_resident = 0;
    let mut pull_wait_secs = 0.0f64;
    let frames = source.len();

    let (mut rc, first_pass) = match config.rate {
        RateControl::ConstQuality { crf } => {
            (RateController::const_quality(crf + config.family.crf_qp_offset()), None)
        }
        RateControl::Bitrate { bps } => {
            (RateController::single_pass(bps, source.fps(), source.resolution().pixels()), None)
        }
        RateControl::TwoPassBitrate { bps } => {
            // Analysis pass: fast preset, fixed quality, no probe and no
            // PSNR — only the main pass's reconstruction defines quality.
            let analysis_cfg = EncoderConfig {
                preset: Preset::VeryFast,
                rate: RateControl::ConstQuality { crf: 30.0 },
                ..*config
            };
            let mut analysis_rc = RateController::const_quality(30.0);
            let mut sinks = Sinks { retain: false, psnr: None, peak_resident: &mut peak_resident };
            let pass1 =
                encode_pass(source, &analysis_cfg, &mut analysis_rc, &mut NoProbe, &mut sinks);
            kernels.merge(&pass1.kernels);
            pull_wait_secs += pass1.pull_wait_secs;
            let log = FirstPassLog { analysis_qp: 30, frame_bits: pass1.frame_bits };
            source.reset();
            (RateController::two_pass(bps, source.fps(), &log), Some(log))
        }
    };

    let mut sinks = Sinks { retain, psnr, peak_resident: &mut peak_resident };
    let pass = encode_pass(source, config, &mut rc, probe, &mut sinks);
    kernels.merge(&pass.kernels);
    pull_wait_secs += pass.pull_wait_secs;

    let stats = EncodeStats {
        encode_seconds: (start.elapsed().as_secs_f64() - pull_wait_secs).max(1e-9),
        bitstream_bytes: pass.bytes.len() as u64,
        frames: frames as u32,
        sb_intra: pass.sb_intra,
        sb_inter: pass.sb_inter,
        sb_skip: pass.sb_skip,
        sb_split: pass.sb_split,
        avg_qp: pass.qp_sum / frames as f64,
        kernels,
    };
    Driven { pass, stats, first_pass, peak_resident_frames: peak_resident }
}

/// Result of one encoding pass.
struct PassResult {
    bytes: Vec<u8>,
    /// Every reconstruction in display order when the pass retained
    /// them; empty otherwise.
    recon: Vec<Frame>,
    frame_bits: Vec<u64>,
    kernels: KernelCounters,
    sb_intra: u64,
    sb_inter: u64,
    sb_skip: u64,
    sb_split: u64,
    qp_sum: f64,
    /// Seconds spent waiting on [`FrameSource::next_frame`].
    pull_wait_secs: f64,
}

/// Where one pass's by-products go. Every pass runs the identical coding
/// loop — only frame retention and scoring differ — which is what makes
/// the streaming bitstream byte-identical to the in-memory one by
/// construction.
struct Sinks<'a> {
    /// Keep every reconstruction (the in-memory path's
    /// [`EncodeOutput::recon`]) instead of dropping each once it is no
    /// longer referenceable.
    retain: bool,
    /// Banks per-frame PSNR, when the pass is scored.
    psnr: Option<&'a mut PsnrAccumulator>,
    /// The most frames any pass of one encode held at once.
    peak_resident: &'a mut usize,
}

/// One encoding pass over a [`FrameSource`]: frames are pulled in display
/// order exactly as far ahead as the coding order requires.
fn encode_pass(
    source: &mut dyn FrameSource,
    config: &EncoderConfig,
    rc: &mut RateController,
    probe: &mut dyn Probe,
    sinks: &mut Sinks<'_>,
) -> PassResult {
    let res = source.resolution();
    let fps = source.fps();
    let total = source.len();
    let backend = config.entropy_backend();

    let mut container = Vec::new();
    syntax::write_header(
        &mut container,
        &StreamInfo {
            family: config.family,
            backend,
            resolution: res,
            fps,
            frames: u32::try_from(total).expect("frame count fits the header"),
            gop: u16::try_from(config.gop).expect("GOP fits the header"),
            deblock: config.in_loop_deblock,
        },
    );

    let mut state = FrameEncoder::new(config, res.width() as usize, res.height() as usize);
    let mut scratch = Scratch::new(state.sb);
    // The references stay in `recons` (the older one only when B frames
    // read it). A reconstruction no frame reads again is filed into `clip`
    // by display index when the pass retains one, and dropped otherwise.
    let mut recons = Recons::new(config.bframes);
    let mut clip: Vec<Option<Frame>> = if sinks.retain { vec![None; total] } else { Vec::new() };
    let mut file = |(display, recon): (usize, Frame)| {
        if let Some(slot) = clip.get_mut(display) {
            *slot = Some(recon);
        }
    };
    // Source frames pulled but not yet coded; depth is bounded by the
    // coding-order reorder distance (2 with B frames, 1 without).
    let mut pending: VecDeque<(usize, Frame)> = VecDeque::new();
    let mut next_pull = 0usize;
    let mut frame_bits = Vec::with_capacity(total);
    let mut qp_sum = 0.0;
    let mut pull_wait_secs = 0.0f64;

    let order = coding_order(total, config.gop, config.bframes);
    let mut last_ref_qp = 26u8;

    for (coding_idx, &(display, ftype)) in order.iter().enumerate() {
        // Per-frame telemetry is sampled only under verbose tracing; the
        // span stays open across the frame so the stage children below
        // parent to it.
        let mut frame_span = vtrace::verbose().then(|| vtrace::span("vcodec.frame"));
        let stages_before = state.stages.unwrap_or_default();
        // Pull display-order frames until `display` is available.
        while next_pull <= display {
            let t0 = Instant::now();
            let f = source.next_frame().expect("source ended before its promised length");
            let waited = t0.elapsed().as_secs_f64();
            pull_wait_secs += waited;
            if vtrace::enabled() {
                vtrace::histogram("frame.pull_wait_us", (waited * 1e6) as u64);
            }
            pending.push_back((next_pull, f));
            next_pull += 1;
        }
        let pos = pending.iter().position(|&(d, _)| d == display).expect("frame pulled");
        let (_, frame) = pending.remove(pos).expect("position valid");
        let qp = match ftype {
            FrameType::Intra => rc.frame_qp(FrameKind::Intra),
            FrameType::Predicted => rc.frame_qp(FrameKind::Inter),
            // Disposable B frames ride two QP above the reference they
            // follow — nobody predicts from them, so cheapness is free.
            FrameType::Bidirectional => (last_ref_qp + 2).min(crate::quant::QP_MAX),
        };
        qp_sum += f64::from(qp);
        let (fwd, bwd) = recons.refs(ftype);
        let (payload, recon) =
            state.encode_frame(&frame, fwd, bwd, ftype, qp, coding_idx as u32, &mut scratch, probe);
        let bits = payload.len() as u64 * 8;
        rc.frame_done(bits);
        frame_bits.push(bits);
        syntax::write_record(&mut container, ftype, qp, display as u32, &payload);
        // Held now: the pending source frames, this frame and its
        // reconstruction, and the references it read. This is the most
        // the pass holds at any point of this frame.
        let held = pending.len() + 2 + recons.len();
        *sinks.peak_resident = held.max(*sinks.peak_resident);
        if let Some(acc) = sinks.psnr.as_deref_mut() {
            acc.push(display, &frame, &recon);
        }
        if let Some(left) = recons.push(ftype, display, recon) {
            file(left);
        }
        if let Some(span) = frame_span.as_mut() {
            span.record("display", display);
            span.record(
                "ftype",
                match ftype {
                    FrameType::Intra => "I",
                    FrameType::Predicted => "P",
                    FrameType::Bidirectional => "B",
                },
            );
            span.record("qp", u64::from(qp));
            span.record("bits", bits);
            // Stage deltas accumulated while this frame was coding, as
            // synthesized child spans.
            let after = state.stages.unwrap_or_default();
            vtrace::stage("vcodec.motion_search", after.motion - stages_before.motion);
            vtrace::stage(
                "vcodec.transform_quant",
                after.transform_quant - stages_before.transform_quant,
            );
            vtrace::stage("vcodec.entropy_coding", after.entropy - stages_before.entropy);
            vtrace::stage("vcodec.deblock", after.deblock - stages_before.deblock);
        }
        drop(frame_span);
        if ftype != FrameType::Bidirectional {
            last_ref_qp = qp;
        }
    }

    recons.drain().for_each(file);

    PassResult {
        bytes: container,
        recon: clip.into_iter().map(|f| f.expect("all frames coded")).collect(),
        frame_bits,
        kernels: state.counters,
        sb_intra: state.sb_intra,
        sb_inter: state.sb_inter,
        sb_skip: state.sb_skip,
        sb_split: state.sb_split,
        qp_sum,
        pull_wait_secs,
    }
}

/// Accumulated seconds per coarse encoder stage, sampled only when
/// verbose tracing is on (see [`FrameEncoder::stages`]).
#[derive(Clone, Copy, Default)]
struct StageTimes {
    motion: f64,
    transform_quant: f64,
    entropy: f64,
    deblock: f64,
}

/// Per-pass encoder state.
struct FrameEncoder<'cfg> {
    config: &'cfg EncoderConfig,
    width: usize,
    height: usize,
    sb: usize,
    /// MV of each coded superblock this frame, for spatial prediction.
    mvs: MvGrid,
    counters: KernelCounters,
    sb_intra: u64,
    sb_inter: u64,
    sb_skip: u64,
    sb_split: u64,
    /// Coarse stage timing, active only under verbose tracing (`None`
    /// otherwise, so the hot loops pay one `is_some` check per stage).
    stages: Option<StageTimes>,
}

impl<'cfg> FrameEncoder<'cfg> {
    fn new(config: &'cfg EncoderConfig, width: usize, height: usize) -> FrameEncoder<'cfg> {
        let sb = config.family.superblock_size();
        FrameEncoder {
            config,
            width,
            height,
            sb,
            mvs: MvGrid::new(width, height, sb),
            counters: KernelCounters::new(),
            sb_intra: 0,
            sb_inter: 0,
            sb_skip: 0,
            sb_split: 0,
            stages: vtrace::verbose().then(StageTimes::default),
        }
    }

    /// Starts a stage timer iff stage sampling is active.
    fn stage_start(&self) -> Option<Instant> {
        self.stages.is_some().then(Instant::now)
    }

    /// Banks elapsed time since `t0` into one stage accumulator.
    fn stage_end(&mut self, t0: Option<Instant>, pick: impl FnOnce(&mut StageTimes) -> &mut f64) {
        if let (Some(stages), Some(t0)) = (self.stages.as_mut(), t0) {
            *pick(stages) += t0.elapsed().as_secs_f64();
        }
    }

    /// Rate-distortion lambda at a QP (x264-style exponential schedule),
    /// scaled by the family's RD tuning.
    fn lambda(&self, qp: u8) -> f64 {
        // `0.85 · 2^((qp − 12) / 3)`, floored, once per QP per process: the
        // same operations in the same order, so the same bits.
        static BASE: OnceLock<[f64; QP_MAX as usize + 1]> = OnceLock::new();
        let base = BASE.get_or_init(|| {
            std::array::from_fn(|qp| 0.85 * ((qp as f64 - 12.0) / 3.0).exp2().max(0.1))
        });
        base[usize::from(qp)] * self.config.family.lambda_scale()
    }

    #[allow(clippy::too_many_arguments)]
    fn encode_frame(
        &mut self,
        frame: &Frame,
        reference: Option<&Frame>,
        bwd: Option<&Frame>,
        ftype: FrameType,
        qp: u8,
        frame_idx: u32,
        scratch: &mut Scratch,
        probe: &mut dyn Probe,
    ) -> (Vec<u8>, Frame) {
        let backend = self.config.entropy_backend();
        let mut enc = EntropyEncoder::new(backend);
        self.counters.record(Kernel::FrameSetup, (self.width * self.height) as u64);
        probe.kernel(Kernel::FrameSetup, 64);

        let (ref_base, recon_base) = if frame_idx.is_multiple_of(2) {
            (ADDR_REF_A, ADDR_REF_B)
        } else {
            (ADDR_REF_B, ADDR_REF_A)
        };

        let mut recon_y = Plane::filled(self.width, self.height, 128);
        let mut recon_u = Plane::filled(self.width / 2, self.height / 2, 128);
        let mut recon_v = Plane::filled(self.width / 2, self.height / 2, 128);
        self.mvs.clear();

        let mut params = self.config.preset.search_params(self.config.family);
        params.lambda = self.lambda(qp);

        let (sbs_x, sbs_y) = self.mvs.size();
        for sby in 0..sbs_y {
            for sbx in 0..sbs_x {
                let x0 = sbx * self.sb;
                let y0 = sby * self.sb;
                let ctx = SbContext {
                    frame,
                    ftype,
                    reference,
                    qp,
                    params,
                    x0,
                    y0,
                    sbx,
                    sby,
                    ref_base,
                    recon_base,
                };
                let (ry, ru, rv) = (&mut recon_y, &mut recon_u, &mut recon_v);
                if ftype == FrameType::Intra {
                    self.encode_intra_sb(&mut enc, &ctx, scratch, ry, ru, rv, probe)
                } else {
                    self.encode_inter_sb(&mut enc, &ctx, bwd, scratch, ry, ru, rv, probe)
                }
            }
        }

        // In-loop deblocking (skippable for ablation runs).
        if self.config.in_loop_deblock {
            let t_db = self.stage_start();
            let (fy, ey) = deblock_plane(&mut recon_y, 8, qp);
            let (fu, eu) = deblock_plane(&mut recon_u, 8, qp);
            let (fv, ev) = deblock_plane(&mut recon_v, 8, qp);
            self.stage_end(t_db, |s| &mut s.deblock);
            self.counters.record(Kernel::Deblock, (self.width * self.height) as u64);
            probe.kernel(Kernel::Deblock, ey + eu + ev);
            report_ratio_branches(probe, BranchSite::DeblockFired, fy + fu + fv, ey + eu + ev, 64);
        }

        let payload = enc.finish();
        self.counters.record(Kernel::Entropy, payload.len() as u64);
        let recon = Frame::from_planes(frame.resolution(), recon_y, recon_u, recon_v);
        (payload, recon)
    }

    /// Chooses the best intra mode for a luma region by SATD cost; `pred`
    /// is overwritten with each candidate prediction.
    fn best_intra_mode(
        &mut self,
        orig: &Block,
        pred: &mut Block,
        recon_y: &Plane,
        x0: usize,
        y0: usize,
        lambda: f64,
    ) -> (IntraMode, f64) {
        let all_modes = self.config.family.intra_modes();
        let modes: &[IntraMode] = if self.config.preset.full_intra_search() {
            all_modes
        } else {
            // Cheap subset at fast presets.
            &all_modes[..all_modes.len().min(2)]
        };
        let mut best = (IntraMode::Dc, f64::INFINITY);
        for &mode in modes {
            predict_intra_into(recon_y, x0, y0, mode, pred);
            self.counters.record(Kernel::IntraPred, (orig.size() * orig.size()) as u64);
            let d = satd(orig, pred) as f64;
            let cost = d + lambda * 3.0; // ~3 bits of mode signalling
            if cost < best.1 {
                best = (mode, cost);
            }
        }
        best
    }

    /// Computes the quantized residual of the region of `plane` at
    /// `(x0, y0)` given its prediction, into `levels`.
    #[allow(clippy::too_many_arguments)]
    fn compute_levels(
        &mut self,
        plane: &Plane,
        pred: &Block,
        x0: usize,
        y0: usize,
        qp: u8,
        dz: Deadzone,
        levels: &mut Levels,
    ) {
        let t_tq = self.stage_start();
        let size = pred.size();
        levels.clear();
        for ty in (0..size).step_by(TILE) {
            for tx in (0..size).step_by(TILE) {
                let coeffs = fdct8(&residual_tile(plane, (x0, y0), pred, (tx, ty)));
                self.counters.record(Kernel::Fdct, 64);
                levels.push(|tile| quantize_into(&coeffs, qp, dz, tile));
                self.counters.record(Kernel::Quant, 64);
            }
        }
        self.stage_end(t_tq, |s| &mut s.transform_quant);
    }

    /// Entropy-codes precomputed levels and reconstructs the region into
    /// `recon`.
    #[allow(clippy::too_many_arguments)]
    fn emit_levels(
        &mut self,
        enc: &mut EntropyEncoder,
        recon: &mut Plane,
        pred: &Block,
        x0: usize,
        y0: usize,
        qp: u8,
        levels: &Levels,
        probe: &mut dyn Probe,
    ) {
        let per_row = pred.size() / TILE;
        for (i, (tile, nz)) in levels.tiles().enumerate() {
            let (tx, ty) = (i % per_row * TILE, i / per_row * TILE);
            let bits_before = enc.bits_written();
            let t_en = self.stage_start();
            enc.put_tile(tile, nz);
            self.stage_end(t_en, |s| &mut s.entropy);
            self.counters.record(Kernel::Entropy, enc.bits_written() - bits_before);
            let coded = nz as u64;
            probe.branch(BranchSite::CoeffCoded, coded > 0);
            report_ratio_branches(probe, BranchSite::CoeffNonzero, coded, 64, 16);
            probe.kernel(Kernel::Entropy, 8 + coded * 4);
            reconstruct_tile(tile, nz, qp, pred, (tx, ty), recon, (x0, y0));
            self.counters.record(Kernel::Dequant, 64);
            self.counters.record(Kernel::Idct, 64);
            probe.kernel(Kernel::Idct, 64);
        }
    }

    /// Intra-codes one superblock (luma + chroma) of an I or P frame.
    #[allow(clippy::too_many_arguments)]
    fn encode_intra_sb(
        &mut self,
        enc: &mut EntropyEncoder,
        ctx: &SbContext<'_>,
        s: &mut Scratch,
        recon_y: &mut Plane,
        recon_u: &mut Plane,
        recon_v: &mut Plane,
        probe: &mut dyn Probe,
    ) {
        let SbContext { frame, qp, x0, y0, .. } = *ctx;
        let lambda = self.lambda(qp);
        s.orig.load(frame.y(), x0 as isize, y0 as isize);
        probe_region_rows(probe, ADDR_CUR, self.width, x0, y0, self.sb, false);
        let (mode, whole_cost) =
            self.best_intra_mode(&s.orig, &mut s.intra, recon_y, x0, y0, lambda);
        probe.kernel(Kernel::IntraPred, (self.sb * self.sb) as u64);
        self.counters.record(Kernel::ModeDecision, 16);
        probe.kernel(Kernel::ModeDecision, 16);

        // Split-intra alternative: families with partitioned coding units
        // may predict each quadrant with its own mode, which pays off on
        // sharp-edged content where one prediction per superblock is poor.
        let try_split = self.config.family.supports_split() && self.config.preset.try_split();
        let half = self.sb / 2;
        let quads = [(0, 0), (half, 0), (0, half), (half, half)];
        let split_wins = try_split && {
            let mut split_cost = lambda * 2.0; // split-flag signalling
            for (qx, qy) in quads {
                s.qorig.load(frame.y(), (x0 + qx) as isize, (y0 + qy) as isize);
                let (_, qcost) =
                    self.best_intra_mode(&s.qorig, &mut s.qpred, recon_y, x0 + qx, y0 + qy, lambda);
                split_cost += qcost;
            }
            self.counters.record(Kernel::ModeDecision, 16);
            probe.kernel(Kernel::ModeDecision, 16);
            split_cost < whole_cost
        };
        if try_split {
            probe.branch(BranchSite::SplitTaken, split_wins);
        }
        // Chroma is predicted at half size with the superblock's mode, or
        // the first quadrant's when split.
        let chroma_mode = if split_wins {
            put_sb_mode(enc, ctx.ftype, SbMode::IntraSplit);
            // Quadrants in raster order; each re-chooses its mode against
            // the live reconstruction so the decoder's predictions match.
            let mut first_mode = IntraMode::Dc;
            for (i, (qx, qy)) in quads.into_iter().enumerate() {
                s.qorig.load(frame.y(), (x0 + qx) as isize, (y0 + qy) as isize);
                let (qmode, _) =
                    self.best_intra_mode(&s.qorig, &mut s.qpred, recon_y, x0 + qx, y0 + qy, lambda);
                if i == 0 {
                    first_mode = qmode;
                }
                put_quadrant_mode(enc, qmode);
                predict_intra_into(recon_y, x0 + qx, y0 + qy, qmode, &mut s.qpred);
                let (qx, qy) = (x0 + qx, y0 + qy);
                let lev = &mut s.levels[0];
                self.compute_levels(frame.y(), &s.qpred, qx, qy, qp, Deadzone::Intra, lev);
                self.emit_levels(enc, recon_y, &s.qpred, qx, qy, qp, lev, probe);
            }
            self.sb_split += 1;
            first_mode
        } else {
            put_sb_mode(enc, ctx.ftype, SbMode::Intra(mode));
            predict_intra_into(recon_y, x0, y0, mode, &mut s.intra);
            let lev = &mut s.levels[0];
            self.compute_levels(frame.y(), &s.intra, x0, y0, qp, Deadzone::Intra, lev);
            self.emit_levels(enc, recon_y, &s.intra, x0, y0, qp, lev, probe);
            mode
        };
        probe_region_rows(probe, ctx.recon_base, self.width, x0, y0, self.sb, true);
        let (cx, cy, cs) = (x0 / 2, y0 / 2, self.sb / 2);
        for (src, rec, chroma_off) in
            [(frame.u(), recon_u, ADDR_CHROMA_U), (frame.v(), recon_v, ADDR_CHROMA_V)]
        {
            predict_intra_into(rec, cx, cy, chroma_mode, &mut s.qpred);
            self.counters.record(Kernel::IntraPred, (cs * cs) as u64);
            let lev = &mut s.levels[1];
            self.compute_levels(src, &s.qpred, cx, cy, qp, Deadzone::Intra, lev);
            self.emit_levels(enc, rec, &s.qpred, cx, cy, qp, lev, probe);
            probe_region_rows(probe, ctx.recon_base + chroma_off, self.width / 2, cx, cy, cs, true);
        }
        self.sb_intra += 1;
        self.mvs.set(ctx.sbx, ctx.sby, None);
    }

    /// Inter-codes one superblock of a P frame, or of a B frame when
    /// `bwd_ref` is given, choosing by RD cost among skip, forward, split
    /// and intra on P, and skip, forward, backward, bidirectional and
    /// whole intra on B.
    #[allow(clippy::too_many_arguments)]
    fn encode_inter_sb(
        &mut self,
        enc: &mut EntropyEncoder,
        ctx: &SbContext<'_>,
        bwd_ref: Option<&Frame>,
        s: &mut Scratch,
        recon_y: &mut Plane,
        recon_u: &mut Plane,
        recon_v: &mut Plane,
        probe: &mut dyn Probe,
    ) {
        let SbContext { frame, reference, qp, params, x0, y0, sbx, sby, .. } = *ctx;
        let fwd_ref = reference.expect("inter frame requires a forward reference");
        let lambda = self.lambda(qp);
        s.orig.load(frame.y(), x0 as isize, y0 as isize);
        probe_region_rows(probe, ADDR_CUR, self.width, x0, y0, self.sb, false);
        let pred_mv = self.mvs.predict(sbx, sby);

        // Motion search of every reference, into one set of counters.
        let mut mstats = SearchStats::default();
        let t_mo = self.stage_start();
        let mut search_in = |r: &Frame| {
            search(&s.orig, r.y(), x0, y0, pred_mv, &params, &mut s.cand, &mut mstats).mv
        };
        let fmv = search_in(fwd_ref);
        let bwd = bwd_ref.map(|r| (r, search_in(r)));
        self.stage_end(t_mo, |s| &mut s.motion);
        self.counters.record(Kernel::MotionFullPel, mstats.samples);
        probe.kernel(Kernel::MotionFullPel, mstats.samples);
        // P reports the reference window the search touched, and below the
        // whole-block compensation; B never has (the probe streams of both
        // are pinned).
        if bwd.is_none() {
            let range = params.range as usize;
            let (wx, wy) = (x0.saturating_sub(range), y0.saturating_sub(range));
            probe_region_rows(probe, ctx.ref_base, self.width, wx, wy, self.sb + 2 * range, false);
        }
        let positions = mstats.positions;
        report_ratio_branches(probe, BranchSite::SearchAccept, positions / 6 + 1, positions, 48);

        // Price each candidate: distortion plus λ · (vector bits + mode
        // bits), the mode costing 2 bits on P, 3 on B and 4 bidirectional.
        let distort = |orig: &Block, pred: &Block| -> f64 {
            let d = if params.use_satd { satd(orig, pred) } else { sad(orig, pred) };
            d as f64
        };
        let mode_bits = if bwd.is_some() { 3 } else { 2 };
        motion_compensate_into(fwd_ref.y(), x0, y0, fmv, &mut s.pred);
        let fwd_cost =
            distort(&s.orig, &s.pred) + lambda * f64::from(fmv.cost_bits(pred_mv) + mode_bits);
        let mut best = (SbMode::Forward, fwd_cost);
        if let Some((bwd_ref, bmv)) = bwd {
            motion_compensate_into(bwd_ref.y(), x0, y0, bmv, &mut s.pred_b);
            let cost = distort(&s.orig, &s.pred_b) + lambda * f64::from(bmv.cost_bits(pred_mv) + 3);
            if cost < best.1 {
                best = (SbMode::Backward, cost);
            }
            // Bidirectional average: worth trying from Medium up.
            if self.config.preset.try_split() {
                average_into(&s.pred, &s.pred_b, &mut s.pred_bi);
                let bits = fmv.cost_bits(pred_mv) + bmv.cost_bits(pred_mv) + 4;
                let cost = distort(&s.orig, &s.pred_bi) + lambda * f64::from(bits);
                if cost < best.1 {
                    best = (SbMode::Bi, cost);
                }
            }
        }
        let refs = 1 + u64::from(bwd.is_some());
        let area = (self.sb * self.sb) as u64;
        self.counters.record(Kernel::MotionComp, refs * area);
        if bwd.is_none() {
            probe.kernel(Kernel::MotionComp, area);
        }
        let (intra_mode, intra_cost) =
            self.best_intra_mode(&s.orig, &mut s.intra, recon_y, x0, y0, lambda);
        self.counters.record(Kernel::ModeDecision, 16 + 16 * refs);
        probe.kernel(Kernel::ModeDecision, 16 + 16 * refs);

        // Split (P only): one vector per quadrant, searched from and coded
        // against the whole-block one. It must beat intra outright.
        let half = self.sb / 2;
        let quads = [(0, 0), (half, 0), (0, half), (half, half)];
        let mut qmvs = [MotionVector::ZERO; 4];
        if bwd.is_none() && self.config.family.supports_split() && self.config.preset.try_split() {
            // Partition signalling plus the base vector.
            let mut cost = lambda * f64::from(fmv.cost_bits(pred_mv) + 6);
            for (mv, (qx, qy)) in qmvs.iter_mut().zip(quads) {
                let (qx, qy) = (x0 + qx, y0 + qy);
                s.qorig.load(frame.y(), qx as isize, qy as isize);
                let mut qstats = SearchStats::default();
                let t_mo = self.stage_start();
                let qres =
                    search(&s.qorig, fwd_ref.y(), qx, qy, fmv, &params, &mut s.qcand, &mut qstats);
                self.stage_end(t_mo, |s| &mut s.motion);
                self.counters.record(Kernel::MotionFullPel, qstats.samples);
                probe.kernel(Kernel::MotionFullPel, qstats.samples);
                // Re-measure distortion with the whole-block metric (the
                // search's own cost is SAD, which would bias the choice
                // toward splitting at presets that decide on SATD).
                motion_compensate_into(fwd_ref.y(), qx, qy, qres.mv, &mut s.qpred);
                self.counters.record(Kernel::MotionComp, (half * half) as u64);
                cost += distort(&s.qorig, &s.qpred) + lambda * f64::from(qres.mv.cost_bits(fmv));
                *mv = qres.mv;
            }
            let split_wins = cost < best.1 && cost < intra_cost;
            if split_wins {
                best = (SbMode::Split, cost);
            }
            probe.branch(BranchSite::SplitTaken, split_wins);
        }
        if best.0 != SbMode::Split && intra_cost < best.1 * 0.95 {
            best.0 = SbMode::Intra(intra_mode);
        }
        probe.branch(BranchSite::ModeIsIntra, matches!(best.0, SbMode::Intra(_)));

        let (cx, cy, cs) = (x0 / 2, y0 / 2, self.sb / 2);
        let both = [fmv, bwd.map_or(fmv, |(_, mv)| mv)];
        let (luma_pred, mvs): (&Block, &[MotionVector]) = match best.0 {
            SbMode::Intra(mode) => {
                if bwd.is_none() {
                    // P chooses the intra mode again, perhaps split,
                    // against the same reconstruction.
                    self.encode_intra_sb(enc, ctx, s, recon_y, recon_u, recon_v, probe);
                } else {
                    // B codes the mode it priced, whole.
                    put_sb_mode(enc, ctx.ftype, best.0);
                    predict_intra_into(recon_y, x0, y0, mode, &mut s.intra);
                    let [ylev, clev, _] = &mut s.levels;
                    self.compute_levels(frame.y(), &s.intra, x0, y0, qp, Deadzone::Intra, ylev);
                    self.emit_levels(enc, recon_y, &s.intra, x0, y0, qp, ylev, probe);
                    for (src, rec) in [(frame.u(), &mut *recon_u), (frame.v(), &mut *recon_v)] {
                        predict_intra_into(rec, cx, cy, mode, &mut s.qpred);
                        self.compute_levels(src, &s.qpred, cx, cy, qp, Deadzone::Intra, clev);
                        self.emit_levels(enc, rec, &s.qpred, cx, cy, qp, clev, probe);
                    }
                    self.sb_intra += 1;
                    self.mvs.set(sbx, sby, None);
                }
                probe.branch(BranchSite::SkipTaken, false);
                return;
            }
            SbMode::Split => {
                self.sb_split += 1;
                self.sb_inter += 1;
                put_sb_mode(enc, ctx.ftype, SbMode::Split);
                probe.branch(BranchSite::SkipTaken, false);
                // Base vector first; the quadrants' are coded against it.
                enc.put_sval(CtxClass::MvX, i64::from(fmv.x) - i64::from(pred_mv.x));
                enc.put_sval(CtxClass::MvY, i64::from(fmv.y) - i64::from(pred_mv.y));
                for (mv, (qx, qy)) in qmvs.into_iter().zip(quads) {
                    enc.put_sval(CtxClass::MvX, i64::from(mv.x) - i64::from(fmv.x));
                    enc.put_sval(CtxClass::MvY, i64::from(mv.y) - i64::from(fmv.y));
                    let (qx, qy) = (x0 + qx, y0 + qy);
                    motion_compensate_into(fwd_ref.y(), qx, qy, mv, &mut s.qpred);
                    self.counters.record(Kernel::MotionComp, (half * half) as u64);
                    let lev = &mut s.levels[0];
                    self.compute_levels(frame.y(), &s.qpred, qx, qy, qp, Deadzone::Inter, lev);
                    self.emit_levels(enc, recon_y, &s.qpred, qx, qy, qp, lev, probe);
                }
                // Chroma rides on the base vector.
                s.predict_chroma(fwd_ref, x0, y0, fmv);
                let [_, ulev, vlev] = &mut s.levels;
                for (src, rec, pred, lev) in
                    [(frame.u(), recon_u, &s.upred, ulev), (frame.v(), recon_v, &s.vpred, vlev)]
                {
                    self.counters.record(Kernel::MotionComp, (cs * cs) as u64);
                    self.compute_levels(src, pred, cx, cy, qp, Deadzone::Inter, lev);
                    self.emit_levels(enc, rec, pred, cx, cy, qp, lev, probe);
                }
                self.mvs.set(sbx, sby, Some(qmvs[0]));
                probe_region_rows(probe, ctx.recon_base, self.width, x0, y0, self.sb, true);
                return;
            }
            SbMode::Forward => {
                s.predict_chroma(fwd_ref, x0, y0, fmv);
                (&s.pred, &both[..1])
            }
            SbMode::Backward => {
                let (bwd_ref, bmv) = bwd.expect("backward is priced on B frames only");
                s.predict_chroma(bwd_ref, x0, y0, bmv);
                (&s.pred_b, &both[1..])
            }
            SbMode::Bi => {
                let bwd = bwd.expect("bidirectional is priced on B frames only");
                s.predict_chroma_bi((fwd_ref, fmv), bwd, x0, y0);
                (&s.pred_bi, &both[..])
            }
            SbMode::Skip | SbMode::IntraSplit => unreachable!("never priced"),
        };

        // One tail for every single-prediction mode: levels, then skip
        // (forward at the predicted vector with no residual) or coded.
        self.counters.record(Kernel::MotionComp, 2 * (cs * cs) as u64);
        let [ylev, ulev, vlev] = &mut s.levels;
        self.compute_levels(frame.y(), luma_pred, x0, y0, qp, Deadzone::Inter, ylev);
        self.compute_levels(frame.u(), &s.upred, cx, cy, qp, Deadzone::Inter, ulev);
        self.compute_levels(frame.v(), &s.vpred, cx, cy, qp, Deadzone::Inter, vlev);
        let can_skip = best.0 == SbMode::Forward
            && fmv == pred_mv
            && !s.levels.iter().any(Levels::any_nonzero);
        probe.branch(BranchSite::SkipTaken, can_skip);
        if can_skip {
            self.sb_skip += 1;
            put_sb_mode(enc, ctx.ftype, SbMode::Skip);
            luma_pred.paste_into(recon_y, x0, y0);
            s.upred.paste_into(recon_u, cx, cy);
            s.vpred.paste_into(recon_v, cx, cy);
        } else {
            self.sb_inter += 1;
            put_sb_mode(enc, ctx.ftype, best.0);
            for mv in mvs {
                enc.put_sval(CtxClass::MvX, i64::from(mv.x) - i64::from(pred_mv.x));
                enc.put_sval(CtxClass::MvY, i64::from(mv.y) - i64::from(pred_mv.y));
            }
            let [ylev, ulev, vlev] = &s.levels;
            self.emit_levels(enc, recon_y, luma_pred, x0, y0, qp, ylev, probe);
            self.emit_levels(enc, recon_u, &s.upred, cx, cy, qp, ulev, probe);
            self.emit_levels(enc, recon_v, &s.vpred, cx, cy, qp, vlev, probe);
        }
        probe_region_rows(probe, ctx.recon_base, self.width, x0, y0, self.sb, true);
        self.mvs.set(sbx, sby, Some(mvs[0]));
    }
}

/// Immutable context for coding one superblock.
struct SbContext<'a> {
    frame: &'a Frame,
    ftype: FrameType,
    reference: Option<&'a Frame>,
    qp: u8,
    params: SearchParams,
    x0: usize,
    y0: usize,
    sbx: usize,
    sby: usize,
    ref_base: u64,
    recon_base: u64,
}

/// Emits one memory event per row of a rectangular plane region.
fn probe_region_rows(
    probe: &mut dyn Probe,
    base: u64,
    plane_width: usize,
    x0: usize,
    y0: usize,
    size: usize,
    write: bool,
) {
    if !probe.active() {
        return;
    }
    for row in 0..size {
        let addr = base + ((y0 + row) * plane_width + x0) as u64;
        if write {
            probe.mem_write(addr, size as u64);
        } else {
            probe.mem_read(addr, size as u64);
        }
    }
}

/// Emits up to `cap` branch events whose taken ratio approximates
/// `taken`/`total` while preserving the interleaved pattern a predictor
/// would see.
fn report_ratio_branches(
    probe: &mut dyn Probe,
    site: BranchSite,
    taken: u64,
    total: u64,
    cap: u64,
) {
    if total == 0 || !probe.active() {
        return;
    }
    let events = total.min(cap);
    let taken_events = (taken * events).div_ceil(total.max(1)).min(events);
    if taken_events == 0 {
        for _ in 0..events {
            probe.branch(site, false);
        }
        return;
    }
    let stride = events / taken_events;
    for i in 0..events {
        let is_taken = stride > 0 && i % stride == 0 && i / stride < taken_events;
        probe.branch(site, is_taken);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_video(frames: usize) -> Video {
        // A moving gradient: inter prediction has real work to do.
        let res = vframe::Resolution::new(64, 48);
        let fs: Vec<Frame> = (0..frames)
            .map(|t| {
                vframe::color::frame_from_fn(res, |x, y| {
                    let v = ((x + 2 * t as u32) * 3 + y * 2) % 256;
                    vframe::color::Yuv::new(v as u8, 128, (y * 4 % 255) as u8)
                })
            })
            .collect();
        Video::new(fs, 30.0)
    }

    #[test]
    fn encode_produces_bitstream_and_recon() {
        let v = tiny_video(5);
        let cfg = EncoderConfig::new(
            CodecFamily::Avc,
            Preset::Fast,
            RateControl::ConstQuality { crf: 24.0 },
        );
        let out = encode(&v, &cfg);
        assert!(out.bytes.len() > 16, "bitstream too small");
        assert_eq!(out.recon.len(), 5);
        assert_eq!(out.stats.frames, 5);
        assert!(out.stats.encode_seconds > 0.0);
        // Quality should be decent at CRF 24 on smooth content.
        let q = vframe::metrics::psnr_video(&v, &out.recon);
        assert!(q > 28.0, "PSNR too low: {q}");
    }

    #[test]
    fn lower_crf_gives_higher_quality_and_bitrate() {
        let v = tiny_video(4);
        let run = |crf: f64| {
            let cfg = EncoderConfig::new(
                CodecFamily::Avc,
                Preset::Fast,
                RateControl::ConstQuality { crf },
            );
            let out = encode(&v, &cfg);
            (out.bytes.len(), vframe::metrics::psnr_video(&v, &out.recon))
        };
        let (bytes_hi_q, psnr_hi_q) = run(16.0);
        let (bytes_lo_q, psnr_lo_q) = run(38.0);
        assert!(psnr_hi_q > psnr_lo_q, "{psnr_hi_q} vs {psnr_lo_q}");
        assert!(bytes_hi_q > bytes_lo_q, "{bytes_hi_q} vs {bytes_lo_q}");
    }

    #[test]
    fn all_families_encode() {
        let v = tiny_video(3);
        for family in CodecFamily::ALL {
            let cfg =
                EncoderConfig::new(family, Preset::Medium, RateControl::ConstQuality { crf: 28.0 });
            let out = encode(&v, &cfg);
            assert!(!out.bytes.is_empty(), "{family}");
            let q = vframe::metrics::psnr_video(&v, &out.recon);
            assert!(q > 25.0, "{family}: PSNR {q}");
        }
    }

    #[test]
    fn static_content_mostly_skips() {
        let res = vframe::Resolution::new(64, 64);
        let frame = vframe::color::frame_from_fn(res, |x, y| {
            vframe::color::Yuv::new(((x * y) % 200) as u8, 128, 128)
        });
        let v = Video::new(vec![frame; 6], 30.0);
        let cfg = EncoderConfig::new(
            CodecFamily::Avc,
            Preset::Fast,
            RateControl::ConstQuality { crf: 26.0 },
        );
        let out = encode(&v, &cfg);
        assert!(
            out.stats.sb_skip > out.stats.sb_inter,
            "static content should skip: skip={} inter={}",
            out.stats.sb_skip,
            out.stats.sb_inter
        );
    }

    #[test]
    fn two_pass_returns_log_and_hits_rate_better() {
        let v = tiny_video(8);
        let target = 400_000u64; // bps
        let run = |rate| {
            let cfg = EncoderConfig::new(CodecFamily::Avc, Preset::Fast, rate);
            encode(&v, &cfg)
        };
        let two = run(RateControl::TwoPassBitrate { bps: target });
        assert!(two.first_pass.is_some());
        let single = run(RateControl::Bitrate { bps: target });
        assert!(single.first_pass.is_none());
        let dur = v.duration_secs();
        for out in [&two, &single] {
            let rate = out.bitrate_bps(dur);
            assert!(
                rate < target as f64 * 3.0 && rate > target as f64 / 20.0,
                "bitrate {rate} wildly off target {target}"
            );
        }
    }

    #[test]
    fn higher_effort_is_slower_but_not_worse() {
        let v = tiny_video(5);
        let run = |preset| {
            let cfg = EncoderConfig::new(
                CodecFamily::Vp9,
                preset,
                RateControl::ConstQuality { crf: 30.0 },
            );
            let out = encode(&v, &cfg);
            (out.stats.kernels.total_samples(), out.bytes.len())
        };
        let (work_fast, _) = run(Preset::UltraFast);
        let (work_slow, _) = run(Preset::VerySlow);
        assert!(
            work_slow > work_fast * 2,
            "veryslow should do much more work: {work_slow} vs {work_fast}"
        );
    }

    #[test]
    fn coding_order_without_bframes_is_display_order() {
        let order = coding_order(7, 3, false);
        assert_eq!(
            order,
            vec![
                (0, FrameType::Intra),
                (1, FrameType::Predicted),
                (2, FrameType::Predicted),
                (3, FrameType::Intra),
                (4, FrameType::Predicted),
                (5, FrameType::Predicted),
                (6, FrameType::Intra),
            ]
        );
    }

    #[test]
    fn coding_order_with_bframes_reorders() {
        let order = coding_order(6, 60, true);
        assert_eq!(
            order,
            vec![
                (0, FrameType::Intra),
                (2, FrameType::Predicted),
                (1, FrameType::Bidirectional),
                (4, FrameType::Predicted),
                (3, FrameType::Bidirectional),
                (5, FrameType::Predicted),
            ]
        );
    }

    #[test]
    fn coding_order_respects_gop_boundaries() {
        // No B frame may straddle a keyframe boundary; every display index
        // appears exactly once; each B is preceded in coding order by its
        // two references.
        for (n, gop) in [(8usize, 4u32), (10, 3), (5, 5), (1, 4), (2, 2)] {
            let order = coding_order(n, gop, true);
            assert_eq!(order.len(), n, "n={n} gop={gop}");
            let mut seen = vec![false; n];
            let mut refs_coded: Vec<usize> = Vec::new();
            for &(d, t) in &order {
                assert!(!seen[d], "duplicate display {d}");
                seen[d] = true;
                match t {
                    FrameType::Intra => {
                        assert_eq!(d as u32 % gop, 0, "I frame off GOP boundary");
                        refs_coded.push(d);
                    }
                    FrameType::Predicted => refs_coded.push(d),
                    FrameType::Bidirectional => {
                        assert!(
                            refs_coded.iter().any(|&r| r < d) && refs_coded.iter().any(|&r| r > d),
                            "B at {d} lacks surrounding references"
                        );
                    }
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn stream_encode_is_byte_identical_across_rate_modes() {
        let v = tiny_video(9);
        let configs = [
            EncoderConfig::new(
                CodecFamily::Avc,
                Preset::Fast,
                RateControl::ConstQuality { crf: 26.0 },
            ),
            EncoderConfig::new(
                CodecFamily::Hevc,
                Preset::Fast,
                RateControl::Bitrate { bps: 300_000 },
            )
            .with_gop(4),
            EncoderConfig::new(
                CodecFamily::Vp9,
                Preset::Fast,
                RateControl::TwoPassBitrate { bps: 250_000 },
            )
            .with_bframes(),
        ];
        for cfg in configs {
            let full = encode(&v, &cfg);
            let mut src = VideoSource::new(&v);
            let stream = encode_stream(&mut src, &cfg, None).expect("stream encode");
            assert_eq!(stream.bytes, full.bytes, "{:?}", cfg.rate);
            assert_eq!(
                stream.quality_db,
                vframe::metrics::psnr_video(&v, &full.recon),
                "{:?}",
                cfg.rate
            );
            assert_eq!(stream.stats.frames, full.stats.frames);
            assert_eq!(stream.stats.avg_qp, full.stats.avg_qp);
            assert_eq!(stream.first_pass, full.first_pass);
        }
    }

    #[test]
    fn stream_residency_is_bounded_independent_of_clip_length() {
        for (bframes, expect) in [(false, 3usize), (true, 5)] {
            let mut cfg = EncoderConfig::new(
                CodecFamily::Avc,
                Preset::UltraFast,
                RateControl::ConstQuality { crf: 30.0 },
            )
            .with_gop(4);
            if bframes {
                cfg = cfg.with_bframes();
            }
            assert_eq!(required_window(&cfg), expect);
            let mut peaks = Vec::new();
            for frames in [16usize, 48] {
                let v = tiny_video(frames);
                let mut src = VideoSource::new(&v);
                let out = encode_stream(&mut src, &cfg, Some(expect)).expect("stream encode");
                assert!(
                    out.peak_resident_frames <= expect,
                    "bframes={bframes} frames={frames}: peak {} > {expect}",
                    out.peak_resident_frames
                );
                peaks.push(out.peak_resident_frames);
            }
            // The bound must not grow with clip length.
            assert_eq!(peaks[0], peaks[1], "bframes={bframes}: {peaks:?}");
        }
    }

    #[test]
    fn stream_rejects_window_below_structural_minimum() {
        let v = tiny_video(4);
        let cfg = EncoderConfig::new(
            CodecFamily::Avc,
            Preset::UltraFast,
            RateControl::ConstQuality { crf: 30.0 },
        );
        let mut src = VideoSource::new(&v);
        assert_eq!(
            encode_stream(&mut src, &cfg, Some(2)).unwrap_err(),
            EncodeError::WindowTooSmall { required: 3, window: 2 }
        );
    }

    #[test]
    fn gop_outside_the_header_is_rejected_before_coding() {
        let v = tiny_video(2);
        for gop in [0, u32::from(u16::MAX) + 1] {
            let cfg = EncoderConfig::new(
                CodecFamily::Avc,
                Preset::UltraFast,
                RateControl::ConstQuality { crf: 30.0 },
            )
            .with_gop(gop);
            assert_eq!(try_encode(&v, &cfg).unwrap_err(), EncodeError::InvalidGop(gop));
            let mut src = VideoSource::new(&v);
            assert_eq!(
                encode_stream(&mut src, &cfg, None).unwrap_err(),
                EncodeError::InvalidGop(gop)
            );
        }
    }

    #[test]
    fn ratio_branch_reporter_preserves_ratio() {
        struct Count(u64, u64);
        impl Probe for Count {
            fn branch(&mut self, _s: BranchSite, taken: bool) {
                self.0 += u64::from(taken);
                self.1 += 1;
            }
        }
        let mut c = Count(0, 0);
        report_ratio_branches(&mut c, BranchSite::SearchAccept, 25, 100, 64);
        let ratio = c.0 as f64 / c.1 as f64;
        assert!((ratio - 0.25).abs() < 0.1, "ratio {ratio}");
        assert!(c.1 <= 64);
    }
}
