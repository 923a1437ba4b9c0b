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
use std::time::Instant;

use crate::bitio::BitWriter;
use crate::deblock::deblock_plane;
use crate::entropy::{CtxClass, EntropyEncoder};
use crate::family::{CodecFamily, Preset};
use crate::motion::{
    average_into, median_predictor, motion_compensate_into, search, MotionVector, SearchParams,
    SearchStats,
};
use crate::predict::{predict_intra_into, IntraMode};
use crate::quant::{quantize_into, Deadzone};
use crate::rc::{FirstPassLog, FrameKind, RateControl, RateController};
use crate::stats::{BranchSite, EncodeStats, Kernel, KernelCounters, NoProbe, Probe};
use crate::tile::{reconstruct_tile, residual_tile, Scratch, Tile, TILE};
use crate::transform::{fdct8, TransformSize};
use vframe::block::{sad, satd, Block};
use vframe::metrics::PsnrAccumulator;
use vframe::source::{FrameSource, VideoSource};
use vframe::{Frame, Plane, Video};

/// Magic bytes opening every bitstream.
pub const MAGIC: &[u8; 4] = b"VBCR";
/// Bitstream format version.
pub const VERSION: u8 = 3;

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

    /// Overrides the keyframe interval.
    ///
    /// # Panics
    ///
    /// Panics if `gop` is zero.
    pub fn with_gop(mut self, gop: u32) -> EncoderConfig {
        assert!(gop > 0, "GOP must be non-zero");
        self.gop = gop;
        self
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

/// Coded frame types.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FrameType {
    /// Intra-only key frame.
    Intra,
    /// Forward-predicted frame (a reference).
    Predicted,
    /// Bidirectionally predicted frame (not a reference).
    Bidirectional,
}

impl FrameType {
    /// Stable bitstream code.
    pub fn to_code(self) -> u8 {
        match self {
            FrameType::Predicted => 0,
            FrameType::Intra => 1,
            FrameType::Bidirectional => 2,
        }
    }

    /// Inverse of [`FrameType::to_code`].
    pub fn from_code(code: u8) -> Option<FrameType> {
        match code {
            0 => Some(FrameType::Predicted),
            1 => Some(FrameType::Intra),
            2 => Some(FrameType::Bidirectional),
            _ => None,
        }
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
            EncodeError::WindowTooSmall { required, window } => {
                write!(f, "window of {window} frames below the {required} this config needs")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Encodes `video` with `config`, without microarchitectural probing.
pub fn encode(video: &Video, config: &EncoderConfig) -> EncodeOutput {
    encode_with_probe(video, config, &mut NoProbe)
}

/// Checked variant of [`encode`]: validates the request and returns a
/// typed [`EncodeError`] instead of panicking deeper in the pipeline.
pub fn try_encode(video: &Video, config: &EncoderConfig) -> Result<EncodeOutput, EncodeError> {
    if video.is_empty() {
        return Err(EncodeError::EmptySource);
    }
    if config.rate.target_bps() == Some(0) {
        return Err(EncodeError::ZeroBitrate);
    }
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
/// materialized clip.
///
/// Two-pass rate control replays the source (analysis pass, then
/// [`FrameSource::reset`], then the main pass), exactly mirroring the
/// in-memory path; the peak residency covers both passes.
///
/// `window` is an optional ceiling on resident frames: it never changes
/// the bitstream (the pipeline always runs at its structural minimum,
/// [`required_window`]) but requests below that minimum are rejected.
///
/// # Errors
///
/// [`EncodeError::EmptySource`], [`EncodeError::ZeroBitrate`], or
/// [`EncodeError::WindowTooSmall`].
pub fn encode_stream(
    source: &mut dyn FrameSource,
    config: &EncoderConfig,
    window: Option<usize>,
) -> Result<StreamEncodeOutput, EncodeError> {
    if source.is_empty() {
        return Err(EncodeError::EmptySource);
    }
    if config.rate.target_bps() == Some(0) {
        return Err(EncodeError::ZeroBitrate);
    }
    let required = required_window(config);
    if let Some(w) = window {
        if w < required {
            return Err(EncodeError::WindowTooSmall { required, window: w });
        }
    }

    let start = Instant::now();
    let mut total_kernels = KernelCounters::new();
    let frames_total = source.len();
    let mut residency = Residency::default();
    let mut pull_wait_secs = 0.0f64;
    let mut psnr = PsnrAccumulator::new(frames_total);

    let (mut rc, first_pass) = match config.rate {
        RateControl::ConstQuality { crf } => {
            (RateController::const_quality(crf + config.family.crf_qp_offset()), None)
        }
        RateControl::Bitrate { bps } => {
            (RateController::single_pass(bps, source.fps(), source.resolution().pixels()), None)
        }
        RateControl::TwoPassBitrate { bps } => {
            // Analysis pass: fast preset, fixed quality, no probe — and no
            // PSNR, matching the in-memory path where only the main pass's
            // reconstruction defines quality.
            let analysis_cfg = EncoderConfig {
                preset: Preset::VeryFast,
                rate: RateControl::ConstQuality { crf: 30.0 },
                ..*config
            };
            let mut analysis_rc = RateController::const_quality(30.0);
            let mut mode = PassMode::Bounded {
                psnr: None,
                residency: &mut residency,
                pull_wait_secs: &mut pull_wait_secs,
            };
            let pass1 =
                encode_pass_core(source, &analysis_cfg, &mut analysis_rc, &mut NoProbe, &mut mode);
            total_kernels.merge(&pass1.kernels);
            let log = FirstPassLog { analysis_qp: 30, frame_bits: pass1.frame_bits };
            source.reset();
            (RateController::two_pass(bps, source.fps(), &log), Some(log))
        }
    };

    let pass = {
        let mut mode = PassMode::Bounded {
            psnr: Some(&mut psnr),
            residency: &mut residency,
            pull_wait_secs: &mut pull_wait_secs,
        };
        encode_pass_core(source, config, &mut rc, &mut NoProbe, &mut mode)
    };
    total_kernels.merge(&pass.kernels);

    let peak = residency.peak;
    assert!(peak <= required, "residency {peak} exceeded the structural window {required}");
    if vtrace::enabled() {
        vtrace::gauge("encode.peak_resident_frames", peak as f64);
    }
    let stats = EncodeStats {
        encode_seconds: (start.elapsed().as_secs_f64() - pull_wait_secs).max(1e-9),
        bitstream_bytes: pass.bytes.len() as u64,
        frames: frames_total as u32,
        sb_intra: pass.sb_intra,
        sb_inter: pass.sb_inter,
        sb_skip: pass.sb_skip,
        sb_split: pass.sb_split,
        avg_qp: pass.qp_sum / frames_total as f64,
        kernels: total_kernels,
    };
    Ok(StreamEncodeOutput {
        bytes: pass.bytes,
        stats,
        quality_db: psnr.finish(),
        peak_resident_frames: peak,
        first_pass,
    })
}

/// Encodes `video` with `config`, streaming trace events into `probe`.
///
/// Two-pass rate control runs the analysis pass first (at [`Preset::VeryFast`]
/// with a fixed analysis QP, like production pipelines); its time and work
/// are included in the returned statistics, and its log is returned.
pub fn encode_with_probe(
    video: &Video,
    config: &EncoderConfig,
    probe: &mut dyn Probe,
) -> EncodeOutput {
    let start = Instant::now();
    let mut total_kernels = KernelCounters::new();

    let (mut rc, first_pass) = match config.rate {
        RateControl::ConstQuality { crf } => {
            (RateController::const_quality(crf + config.family.crf_qp_offset()), None)
        }
        RateControl::Bitrate { bps } => {
            (RateController::single_pass(bps, video.fps(), video.resolution().pixels()), None)
        }
        RateControl::TwoPassBitrate { bps } => {
            // Analysis pass: fast preset, fixed quality, no probe.
            let analysis_cfg = EncoderConfig {
                preset: Preset::VeryFast,
                rate: RateControl::ConstQuality { crf: 30.0 },
                ..*config
            };
            let mut analysis_rc = RateController::const_quality(30.0);
            let pass1 = encode_pass(video, &analysis_cfg, &mut analysis_rc, &mut NoProbe);
            total_kernels.merge(&pass1.kernels);
            let log = FirstPassLog { analysis_qp: 30, frame_bits: pass1.frame_bits };
            (RateController::two_pass(bps, video.fps(), &log), Some(log))
        }
    };

    let pass = encode_pass(video, config, &mut rc, probe);
    total_kernels.merge(&pass.kernels);

    let stats = EncodeStats {
        encode_seconds: start.elapsed().as_secs_f64().max(1e-9),
        bitstream_bytes: pass.bytes.len() as u64,
        frames: video.len() as u32,
        sb_intra: pass.sb_intra,
        sb_inter: pass.sb_inter,
        sb_skip: pass.sb_skip,
        sb_split: pass.sb_split,
        avg_qp: pass.qp_sum / video.len() as f64,
        kernels: total_kernels,
    };
    EncodeOutput {
        bytes: pass.bytes,
        stats,
        recon: Video::new(pass.recon, video.fps()),
        first_pass,
    }
}

/// Result of one encoding pass.
struct PassResult {
    bytes: Vec<u8>,
    recon: Vec<Frame>,
    frame_bits: Vec<u64>,
    kernels: KernelCounters,
    sb_intra: u64,
    sb_inter: u64,
    sb_skip: u64,
    sb_split: u64,
    qp_sum: f64,
}

/// Resident-frame accounting for the streaming path: every source frame
/// and reconstruction the pipeline owns counts one, from pull/creation to
/// drop.
#[derive(Clone, Copy, Default, Debug)]
struct Residency {
    current: usize,
    peak: usize,
}

impl Residency {
    fn add(&mut self, n: usize) {
        self.current += n;
        self.peak = self.peak.max(self.current);
    }

    fn sub(&mut self, n: usize) {
        self.current -= n;
    }
}

/// What a pass does with reconstructions. Both modes run the identical
/// coding loop — only frame retention differs — which is what makes the
/// streaming bitstream byte-identical to the in-memory one by
/// construction.
enum PassMode<'a> {
    /// Keep every reconstruction (the in-memory path's
    /// [`EncodeOutput::recon`]).
    Retain,
    /// Bounded memory: drop reconstructions once no longer referenceable,
    /// bank per-frame PSNR into `psnr` (when scoring), and account every
    /// resident frame in `residency`.
    Bounded {
        psnr: Option<&'a mut PsnrAccumulator>,
        residency: &'a mut Residency,
        pull_wait_secs: &'a mut f64,
    },
}

/// The in-memory pass: a [`VideoSource`] pulled through the shared
/// streaming core with full reconstruction retention.
fn encode_pass(
    video: &Video,
    config: &EncoderConfig,
    rc: &mut RateController,
    probe: &mut dyn Probe,
) -> PassResult {
    let mut source = VideoSource::new(video);
    encode_pass_core(&mut source, config, rc, probe, &mut PassMode::Retain)
}

/// Looks up a reference reconstruction in whichever store this pass keeps.
fn ref_frame<'f>(
    retained: &'f [Option<Frame>],
    window: &'f [(usize, Frame)],
    i: usize,
) -> &'f Frame {
    retained
        .get(i)
        .and_then(Option::as_ref)
        .or_else(|| window.iter().find(|(d, _)| *d == i).map(|(_, f)| f))
        .expect("reference frame resident")
}

/// One encoding pass over a [`FrameSource`]: frames are pulled in display
/// order exactly as far ahead as the coding order requires.
fn encode_pass_core(
    source: &mut dyn FrameSource,
    config: &EncoderConfig,
    rc: &mut RateController,
    probe: &mut dyn Probe,
    mode: &mut PassMode<'_>,
) -> PassResult {
    let res = source.resolution();
    let fps = source.fps();
    let total = source.len();
    let backend = config.entropy_backend();

    // Container header.
    let mut container = BitWriter::new();
    container.put_bytes(MAGIC);
    container.put_bits(u64::from(VERSION), 8);
    let family_id = match config.family {
        CodecFamily::Avc => 0u64,
        CodecFamily::Hevc => 1,
        CodecFamily::Vp9 => 2,
        CodecFamily::Av1 => 3,
    };
    container.put_bits(family_id, 8);
    let backend_id = match backend {
        crate::entropy::EntropyBackend::Vlc => 0u64,
        crate::entropy::EntropyBackend::Arith { shift } => u64::from(shift),
    };
    container.put_bits(backend_id, 8);
    container.put_bits(u64::from(res.width()), 16);
    container.put_bits(u64::from(res.height()), 16);
    container.put_bits((fps * 1000.0).round() as u64, 32);
    container.put_bits(total as u64, 32);
    container.put_bits(u64::from(config.gop), 16);
    // Flags byte: bit 0 = in-loop deblocking enabled.
    container.put_bits(u64::from(config.in_loop_deblock), 8);

    let mut state = FrameEncoder::new(config, res.width() as usize, res.height() as usize);
    let mut scratch = Scratch::new(state.sb);
    // Retain mode keeps every reconstruction here; bounded mode keeps at
    // most the two most recent reference recons in `ref_window`.
    let mut retained: Vec<Option<Frame>> =
        if matches!(mode, PassMode::Retain) { vec![None; total] } else { Vec::new() };
    let mut ref_window: Vec<(usize, Frame)> = Vec::new();
    // Source frames pulled but not yet coded; depth is bounded by the
    // coding-order reorder distance (2 with B frames, 1 without).
    let mut pending: VecDeque<(usize, Frame)> = VecDeque::new();
    let mut next_pull = 0usize;
    let mut frame_bits = Vec::with_capacity(total);
    let mut qp_sum = 0.0;

    // Coding order; display indexes of the two most recent reference
    // frames (a B frame predicts forward from `prev_ref` and backward
    // from `cur_ref`).
    let order = coding_order(total, config.gop, config.bframes);
    let mut prev_ref: Option<usize> = None;
    let mut cur_ref: Option<usize> = None;
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
            if let PassMode::Bounded { residency, pull_wait_secs, .. } = mode {
                **pull_wait_secs += waited;
                residency.add(1);
                if vtrace::enabled() {
                    vtrace::histogram("frame.pull_wait_us", (waited * 1e6) as u64);
                }
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
        let (fwd, bwd) = match ftype {
            FrameType::Intra => (None, None),
            FrameType::Predicted => (cur_ref.map(|i| ref_frame(&retained, &ref_window, i)), None),
            FrameType::Bidirectional => (
                prev_ref.map(|i| ref_frame(&retained, &ref_window, i)),
                cur_ref.map(|i| ref_frame(&retained, &ref_window, i)),
            ),
        };
        let (payload, recon) =
            state.encode_frame(&frame, fwd, bwd, ftype, qp, coding_idx as u32, &mut scratch, probe);
        let bits = payload.len() as u64 * 8;
        rc.frame_done(bits);
        frame_bits.push(bits);
        container.put_bits(u64::from(ftype.to_code()), 8);
        container.put_bits(u64::from(qp), 8);
        container.put_bits(display as u64, 32);
        container.put_bits(payload.len() as u64, 32);
        container.put_bytes(&payload);
        match mode {
            PassMode::Retain => retained[display] = Some(recon),
            PassMode::Bounded { psnr, residency, .. } => {
                residency.add(1); // the reconstruction just produced
                if let Some(acc) = psnr.as_deref_mut() {
                    acc.push(display, &frame, &recon);
                }
                drop(frame);
                residency.sub(1);
                if ftype == FrameType::Bidirectional {
                    // B recons are never referenced: drop immediately.
                    drop(recon);
                    residency.sub(1);
                } else {
                    ref_window.push((display, recon));
                }
            }
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
            prev_ref = cur_ref;
            cur_ref = Some(display);
            last_ref_qp = qp;
            if let PassMode::Bounded { residency, .. } = mode {
                // Evict recons that left the reference window: only
                // `cur_ref` stays referenceable (plus `prev_ref` when B
                // frames need a forward reference).
                let before = ref_window.len();
                ref_window.retain(|&(d, _)| {
                    Some(d) == cur_ref || (config.bframes && Some(d) == prev_ref)
                });
                residency.sub(before - ref_window.len());
            }
        }
    }

    // The pass is over: the reference window (and any stray pending
    // frames) drop here, so the residency ledger must release them before
    // a following pass (two-pass main) re-fills the window.
    if let PassMode::Bounded { residency, .. } = mode {
        residency.sub(ref_window.len() + pending.len());
    }

    PassResult {
        bytes: container.finish(),
        recon: retained.into_iter().map(|f| f.expect("all frames coded")).collect(),
        frame_bits,
        kernels: state.counters,
        sb_intra: state.sb_intra,
        sb_inter: state.sb_inter,
        sb_skip: state.sb_skip,
        sb_split: state.sb_split,
        qp_sum,
    }
}

/// Most tiles a region holds: a 32×32 superblock's sixteen.
const MAX_TILES: usize = 16;

/// Quantized residual for one superblock-sized region: per-8×8-tile levels
/// in raster order, the first `len` of a fixed array.
struct SbLevels {
    tiles: [Tile; MAX_TILES],
    len: usize,
    any_nonzero: bool,
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
    /// MV of each coded superblock this frame (None = intra/skip-less),
    /// used for spatial prediction.
    mv_grid: Vec<Option<MotionVector>>,
    sbs_x: usize,
    sbs_y: usize,
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
        let sbs_x = width.div_ceil(sb);
        let sbs_y = height.div_ceil(sb);
        FrameEncoder {
            config,
            width,
            height,
            sb,
            mv_grid: vec![None; sbs_x * sbs_y],
            sbs_x,
            sbs_y,
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
        0.85 * ((f64::from(qp) - 12.0) / 3.0).exp2().max(0.1) * self.config.family.lambda_scale()
    }

    #[allow(clippy::too_many_arguments)]
    fn encode_frame(
        &mut self,
        frame: &Frame,
        reference: Option<&Frame>,
        bwd_reference: Option<&Frame>,
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
        self.mv_grid.fill(None);

        let is_intra_frame = ftype == FrameType::Intra || reference.is_none();
        let is_b_frame =
            ftype == FrameType::Bidirectional && reference.is_some() && bwd_reference.is_some();
        let mut params = self.config.preset.search_params(self.config.family);
        params.lambda = self.lambda(qp);

        for sby in 0..self.sbs_y {
            for sbx in 0..self.sbs_x {
                let x0 = sbx * self.sb;
                let y0 = sby * self.sb;
                let ctx = SbContext {
                    frame,
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
                if is_intra_frame {
                    self.encode_intra_sb(
                        &mut enc,
                        &ctx,
                        scratch,
                        &mut recon_y,
                        &mut recon_u,
                        &mut recon_v,
                        probe,
                        true,
                    );
                } else if is_b_frame {
                    self.encode_b_sb(
                        &mut enc,
                        &ctx,
                        bwd_reference.expect("checked"),
                        scratch,
                        &mut recon_y,
                        &mut recon_u,
                        &mut recon_v,
                        probe,
                    );
                } else {
                    self.encode_inter_sb(
                        &mut enc,
                        &ctx,
                        scratch,
                        &mut recon_y,
                        &mut recon_u,
                        &mut recon_v,
                        probe,
                    );
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
    /// `(x0, y0)` given its prediction.
    fn compute_levels(
        &mut self,
        plane: &Plane,
        pred: &Block,
        x0: usize,
        y0: usize,
        qp: u8,
        dz: Deadzone,
    ) -> SbLevels {
        let t_tq = self.stage_start();
        let size = pred.size();
        let mut levels =
            SbLevels { tiles: [[0; TILE * TILE]; MAX_TILES], len: 0, any_nonzero: false };
        for ty in (0..size).step_by(TILE) {
            for tx in (0..size).step_by(TILE) {
                let coeffs = fdct8(&residual_tile(plane, (x0, y0), pred, (tx, ty)));
                self.counters.record(Kernel::Fdct, 64);
                let tile = &mut levels.tiles[levels.len];
                quantize_into(&coeffs, qp, dz, tile);
                self.counters.record(Kernel::Quant, 64);
                levels.any_nonzero |= tile.iter().any(|&l| l != 0);
                levels.len += 1;
            }
        }
        self.stage_end(t_tq, |s| &mut s.transform_quant);
        levels
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
        levels: &SbLevels,
        probe: &mut dyn Probe,
    ) {
        let per_row = pred.size() / TILE;
        for (i, tile) in levels.tiles[..levels.len].iter().enumerate() {
            let (tx, ty) = (i % per_row * TILE, i / per_row * TILE);
            let bits_before = enc.bits_written();
            let t_en = self.stage_start();
            enc.put_coeff_block(TransformSize::T8, tile);
            self.stage_end(t_en, |s| &mut s.entropy);
            self.counters.record(Kernel::Entropy, enc.bits_written() - bits_before);
            let nz = tile.iter().filter(|&&l| l != 0).count() as u64;
            probe.branch(BranchSite::CoeffCoded, nz > 0);
            report_ratio_branches(probe, BranchSite::CoeffNonzero, nz, 64, 16);
            probe.kernel(Kernel::Entropy, 8 + nz * 4);
            reconstruct_tile(tile, qp, pred, (tx, ty), recon, (x0, y0));
            self.counters.record(Kernel::Dequant, 64);
            self.counters.record(Kernel::Idct, 64);
            probe.kernel(Kernel::Idct, 64);
        }
    }

    /// Intra-codes one superblock (luma + chroma). When `standalone` the
    /// mode value is written as-is (I frames); P frames offset it by 3.
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
        standalone: bool,
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
            enc.put_uval(CtxClass::Mode, if standalone { 4 } else { 7 });
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
                enc.put_uval(CtxClass::Mode, u64::from(qmode.to_id()));
                predict_intra_into(recon_y, x0 + qx, y0 + qy, qmode, &mut s.qpred);
                let qlev =
                    self.compute_levels(frame.y(), &s.qpred, x0 + qx, y0 + qy, qp, Deadzone::Intra);
                self.emit_levels(enc, recon_y, &s.qpred, x0 + qx, y0 + qy, qp, &qlev, probe);
            }
            self.sb_split += 1;
            first_mode
        } else {
            let offset = if standalone { 0 } else { 3 };
            enc.put_uval(CtxClass::Mode, offset + u64::from(mode.to_id()));
            predict_intra_into(recon_y, x0, y0, mode, &mut s.intra);
            let levels = self.compute_levels(frame.y(), &s.intra, x0, y0, qp, Deadzone::Intra);
            self.emit_levels(enc, recon_y, &s.intra, x0, y0, qp, &levels, probe);
            mode
        };
        probe_region_rows(probe, ctx.recon_base, self.width, x0, y0, self.sb, true);
        let (cx, cy, cs) = (x0 / 2, y0 / 2, self.sb / 2);
        for (src, rec, chroma_off) in
            [(frame.u(), recon_u, ADDR_CHROMA_U), (frame.v(), recon_v, ADDR_CHROMA_V)]
        {
            predict_intra_into(rec, cx, cy, chroma_mode, &mut s.qpred);
            self.counters.record(Kernel::IntraPred, (cs * cs) as u64);
            let clev = self.compute_levels(src, &s.qpred, cx, cy, qp, Deadzone::Intra);
            self.emit_levels(enc, rec, &s.qpred, cx, cy, qp, &clev, probe);
            probe_region_rows(probe, ctx.recon_base + chroma_off, self.width / 2, cx, cy, cs, true);
        }
        self.sb_intra += 1;
        self.mv_grid[ctx.sby * self.sbs_x + ctx.sbx] = None;
    }

    /// Spatial motion-vector predictor for superblock `(sbx, sby)`: the
    /// median of its left, top and top-right neighbours' vectors.
    fn predict_mv(&self, sbx: usize, sby: usize) -> MotionVector {
        let grid_at = |dx: isize, dy: isize| -> Option<MotionVector> {
            let gx = sbx as isize + dx;
            let gy = sby as isize + dy;
            if gx < 0 || gy < 0 || gx >= self.sbs_x as isize || gy >= self.sbs_y as isize {
                None
            } else {
                self.mv_grid[gy as usize * self.sbs_x + gx as usize]
            }
        };
        median_predictor(grid_at(-1, 0), grid_at(0, -1), grid_at(1, -1))
    }

    /// Inter-codes one superblock on a P frame: skip / inter / split /
    /// intra, chosen by RD cost.
    #[allow(clippy::too_many_arguments)]
    fn encode_inter_sb(
        &mut self,
        enc: &mut EntropyEncoder,
        ctx: &SbContext<'_>,
        s: &mut Scratch,
        recon_y: &mut Plane,
        recon_u: &mut Plane,
        recon_v: &mut Plane,
        probe: &mut dyn Probe,
    ) {
        let SbContext { frame, reference, qp, params, x0, y0, sbx, sby, .. } = *ctx;
        let reference = reference.expect("P frame requires a reference");
        let lambda = self.lambda(qp);
        s.orig.load(frame.y(), x0 as isize, y0 as isize);
        probe_region_rows(probe, ADDR_CUR, self.width, x0, y0, self.sb, false);
        let pred_mv = self.predict_mv(sbx, sby);

        // Motion search.
        let mut mstats = SearchStats::default();
        let t_mo = self.stage_start();
        let mres =
            search(&s.orig, reference.y(), x0, y0, pred_mv, &params, &mut s.cand, &mut mstats);
        self.stage_end(t_mo, |s| &mut s.motion);
        self.counters.record(Kernel::MotionFullPel, mstats.samples);
        probe.kernel(Kernel::MotionFullPel, mstats.samples);
        // Reference window touched by the search.
        let win = self.sb + 2 * params.range as usize;
        probe_region_rows(
            probe,
            ctx.ref_base,
            self.width,
            x0.saturating_sub(params.range as usize),
            y0.saturating_sub(params.range as usize),
            win,
            false,
        );
        report_ratio_branches(
            probe,
            BranchSite::SearchAccept,
            mstats.positions / 6 + 1,
            mstats.positions,
            48,
        );

        // Intra alternative (if it wins, `encode_intra_sb` chooses the
        // mode again against the same reconstruction).
        let (_, intra_cost) = self.best_intra_mode(&s.orig, &mut s.intra, recon_y, x0, y0, lambda);
        motion_compensate_into(reference.y(), x0, y0, mres.mv, &mut s.pred);
        self.counters.record(Kernel::MotionComp, (self.sb * self.sb) as u64);
        probe.kernel(Kernel::MotionComp, (self.sb * self.sb) as u64);
        let inter_d =
            if params.use_satd { satd(&s.orig, &s.pred) } else { sad(&s.orig, &s.pred) } as f64;
        let inter_cost = inter_d + lambda * f64::from(mres.mv.cost_bits(pred_mv) + 2);
        self.counters.record(Kernel::ModeDecision, 32);
        probe.kernel(Kernel::ModeDecision, 32);

        // Split alternative (quadrant MVs).
        let try_split = self.config.family.supports_split() && self.config.preset.try_split();
        let half = self.sb / 2;
        let quads = [(0, 0), (half, 0), (0, half), (half, half)];
        let mut split: Option<[MotionVector; 4]> = None;
        if try_split {
            let mut mvs = [MotionVector::ZERO; 4];
            // Partition signalling plus the base MV the quadrant MVDs are
            // coded against.
            let mut cost = lambda * f64::from(mres.mv.cost_bits(pred_mv) + 6);
            for (mv, (qx, qy)) in mvs.iter_mut().zip(quads) {
                s.qorig.load(frame.y(), (x0 + qx) as isize, (y0 + qy) as isize);
                let mut qstats = SearchStats::default();
                let t_mo = self.stage_start();
                let qres = search(
                    &s.qorig,
                    reference.y(),
                    x0 + qx,
                    y0 + qy,
                    mres.mv,
                    &params,
                    &mut s.qcand,
                    &mut qstats,
                );
                self.stage_end(t_mo, |s| &mut s.motion);
                self.counters.record(Kernel::MotionFullPel, qstats.samples);
                probe.kernel(Kernel::MotionFullPel, qstats.samples);
                // Re-measure distortion with the same metric the
                // whole-block alternative uses (the search's internal cost
                // is SAD-based, which would bias the comparison toward
                // splitting at presets that decide on SATD).
                motion_compensate_into(reference.y(), x0 + qx, y0 + qy, qres.mv, &mut s.qpred);
                self.counters.record(Kernel::MotionComp, (half * half) as u64);
                let qd = if params.use_satd {
                    satd(&s.qorig, &s.qpred)
                } else {
                    sad(&s.qorig, &s.qpred)
                };
                cost += qd as f64 + lambda * f64::from(qres.mv.cost_bits(mres.mv));
                *mv = qres.mv;
            }
            if cost < inter_cost && cost < intra_cost {
                split = Some(mvs);
            }
            probe.branch(BranchSite::SplitTaken, split.is_some());
        }

        let intra_wins = split.is_none() && intra_cost < inter_cost * 0.95;
        probe.branch(BranchSite::ModeIsIntra, intra_wins);

        if intra_wins {
            self.encode_intra_sb(enc, ctx, s, recon_y, recon_u, recon_v, probe, false);
            probe.branch(BranchSite::SkipTaken, false);
            return;
        }

        let (cx, cy, cs) = (x0 / 2, y0 / 2, self.sb / 2);
        if let Some(mvs) = split {
            self.sb_split += 1;
            self.sb_inter += 1;
            enc.put_uval(CtxClass::Mode, 2);
            probe.branch(BranchSite::SkipTaken, false);
            // Base MV first (quadrant MVDs are coded relative to it).
            enc.put_sval(CtxClass::MvX, i64::from(mres.mv.x) - i64::from(pred_mv.x));
            enc.put_sval(CtxClass::MvY, i64::from(mres.mv.y) - i64::from(pred_mv.y));
            for (mv, (qx, qy)) in mvs.into_iter().zip(quads) {
                enc.put_sval(CtxClass::MvX, i64::from(mv.x) - i64::from(mres.mv.x));
                enc.put_sval(CtxClass::MvY, i64::from(mv.y) - i64::from(mres.mv.y));
                motion_compensate_into(reference.y(), x0 + qx, y0 + qy, mv, &mut s.qpred);
                self.counters.record(Kernel::MotionComp, (half * half) as u64);
                let lev =
                    self.compute_levels(frame.y(), &s.qpred, x0 + qx, y0 + qy, qp, Deadzone::Inter);
                self.emit_levels(enc, recon_y, &s.qpred, x0 + qx, y0 + qy, qp, &lev, probe);
            }
            // Chroma rides on the superblock-level MV.
            s.predict_chroma(reference, x0, y0, mres.mv);
            for (src, rec, pred) in [(frame.u(), recon_u, &s.upred), (frame.v(), recon_v, &s.vpred)]
            {
                self.counters.record(Kernel::MotionComp, (cs * cs) as u64);
                let lev = self.compute_levels(src, pred, cx, cy, qp, Deadzone::Inter);
                self.emit_levels(enc, rec, pred, cx, cy, qp, &lev, probe);
            }
            self.mv_grid[sby * self.sbs_x + sbx] = Some(mvs[0]);
            probe_region_rows(probe, ctx.recon_base, self.width, x0, y0, self.sb, true);
            return;
        }

        // Whole-SB inter: compute residual, then decide skip vs coded.
        let levels = self.compute_levels(frame.y(), &s.pred, x0, y0, qp, Deadzone::Inter);
        s.predict_chroma(reference, x0, y0, mres.mv);
        self.counters.record(Kernel::MotionComp, 2 * (cs * cs) as u64);
        let ulev = self.compute_levels(frame.u(), &s.upred, cx, cy, qp, Deadzone::Inter);
        let vlev = self.compute_levels(frame.v(), &s.vpred, cx, cy, qp, Deadzone::Inter);

        let can_skip =
            mres.mv == pred_mv && !levels.any_nonzero && !ulev.any_nonzero && !vlev.any_nonzero;
        probe.branch(BranchSite::SkipTaken, can_skip);
        if can_skip {
            self.sb_skip += 1;
            enc.put_uval(CtxClass::Mode, 0);
            s.pred.paste_into(recon_y, x0, y0);
            s.upred.paste_into(recon_u, cx, cy);
            s.vpred.paste_into(recon_v, cx, cy);
        } else {
            self.sb_inter += 1;
            enc.put_uval(CtxClass::Mode, 1);
            enc.put_sval(CtxClass::MvX, i64::from(mres.mv.x) - i64::from(pred_mv.x));
            enc.put_sval(CtxClass::MvY, i64::from(mres.mv.y) - i64::from(pred_mv.y));
            self.emit_levels(enc, recon_y, &s.pred, x0, y0, qp, &levels, probe);
            self.emit_levels(enc, recon_u, &s.upred, cx, cy, qp, &ulev, probe);
            self.emit_levels(enc, recon_v, &s.vpred, cx, cy, qp, &vlev, probe);
        }
        probe_region_rows(probe, ctx.recon_base, self.width, x0, y0, self.sb, true);
        self.mv_grid[sby * self.sbs_x + sbx] = Some(mres.mv);
    }

    /// Codes one superblock of a B frame: skip-direct / forward / backward
    /// / bidirectional / intra, chosen by RD cost. Mode syntax (distinct
    /// from P frames): 0 = skip (direct forward from the predictor MV),
    /// 1 = forward (MVD), 2 = backward (MVD), 3 = bi (two MVDs),
    /// 4+ = intra.
    #[allow(clippy::too_many_arguments)]
    fn encode_b_sb(
        &mut self,
        enc: &mut EntropyEncoder,
        ctx: &SbContext<'_>,
        bwd_ref: &Frame,
        s: &mut Scratch,
        recon_y: &mut Plane,
        recon_u: &mut Plane,
        recon_v: &mut Plane,
        probe: &mut dyn Probe,
    ) {
        let SbContext { frame, reference, qp, params, x0, y0, sbx, sby, .. } = *ctx;
        let fwd_ref = reference.expect("B frame requires a forward reference");
        let lambda = self.lambda(qp);
        s.orig.load(frame.y(), x0 as isize, y0 as isize);
        probe_region_rows(probe, ADDR_CUR, self.width, x0, y0, self.sb, false);
        let pred_mv = self.predict_mv(sbx, sby);

        // Search both directions.
        let mut stats_f = SearchStats::default();
        let mut stats_b = SearchStats::default();
        let t_mo = self.stage_start();
        let fres =
            search(&s.orig, fwd_ref.y(), x0, y0, pred_mv, &params, &mut s.cand, &mut stats_f);
        let bres =
            search(&s.orig, bwd_ref.y(), x0, y0, pred_mv, &params, &mut s.cand, &mut stats_b);
        self.stage_end(t_mo, |s| &mut s.motion);
        self.counters.record(Kernel::MotionFullPel, stats_f.samples + stats_b.samples);
        probe.kernel(Kernel::MotionFullPel, stats_f.samples + stats_b.samples);
        report_ratio_branches(
            probe,
            BranchSite::SearchAccept,
            (stats_f.positions + stats_b.positions) / 6 + 1,
            stats_f.positions + stats_b.positions,
            48,
        );

        let distort = |orig: &Block, pred: &Block| -> f64 {
            let d = if params.use_satd { satd(orig, pred) } else { sad(orig, pred) };
            d as f64
        };
        motion_compensate_into(fwd_ref.y(), x0, y0, fres.mv, &mut s.pred);
        motion_compensate_into(bwd_ref.y(), x0, y0, bres.mv, &mut s.pred_b);
        self.counters.record(Kernel::MotionComp, 2 * (self.sb * self.sb) as u64);
        let fwd_cost =
            distort(&s.orig, &s.pred) + lambda * f64::from(fres.mv.cost_bits(pred_mv) + 3);
        let bwd_cost =
            distort(&s.orig, &s.pred_b) + lambda * f64::from(bres.mv.cost_bits(pred_mv) + 3);
        // Bidirectional average: worth trying from Medium up.
        let bi_cost = self.config.preset.try_split().then(|| {
            average_into(&s.pred, &s.pred_b, &mut s.pred_bi);
            distort(&s.orig, &s.pred_bi)
                + lambda * f64::from(fres.mv.cost_bits(pred_mv) + bres.mv.cost_bits(pred_mv) + 4)
        });
        let (intra_mode, intra_cost) =
            self.best_intra_mode(&s.orig, &mut s.intra, recon_y, x0, y0, lambda);
        self.counters.record(Kernel::ModeDecision, 48);
        probe.kernel(Kernel::ModeDecision, 48);

        // Pick the winner.
        #[derive(Clone, Copy)]
        enum BMode {
            Fwd,
            Bwd,
            Bi,
            Intra,
        }
        let mut best = (BMode::Fwd, fwd_cost);
        if bwd_cost < best.1 {
            best = (BMode::Bwd, bwd_cost);
        }
        if let Some(c) = bi_cost {
            if c < best.1 {
                best = (BMode::Bi, c);
            }
        }
        if intra_cost < best.1 * 0.95 {
            best = (BMode::Intra, intra_cost);
        }
        probe.branch(BranchSite::ModeIsIntra, matches!(best.0, BMode::Intra));

        // Build the luma/chroma predictions of the chosen inter mode: the
        // luma one was made for the cost above, chroma follows at half
        // the vector.
        let (cx, cy, cs) = (x0 / 2, y0 / 2, self.sb / 2);
        let both_mvs = [fres.mv, bres.mv];
        let (luma_pred, mode_code, mvs): (&Block, u64, &[MotionVector]) = match best.0 {
            BMode::Intra => {
                enc.put_uval(CtxClass::Mode, 4 + u64::from(intra_mode.to_id()));
                predict_intra_into(recon_y, x0, y0, intra_mode, &mut s.intra);
                let lev = self.compute_levels(frame.y(), &s.intra, x0, y0, qp, Deadzone::Intra);
                self.emit_levels(enc, recon_y, &s.intra, x0, y0, qp, &lev, probe);
                for (src, rec) in [(frame.u(), &mut *recon_u), (frame.v(), &mut *recon_v)] {
                    predict_intra_into(rec, cx, cy, intra_mode, &mut s.qpred);
                    let clev = self.compute_levels(src, &s.qpred, cx, cy, qp, Deadzone::Intra);
                    self.emit_levels(enc, rec, &s.qpred, cx, cy, qp, &clev, probe);
                }
                self.sb_intra += 1;
                self.mv_grid[sby * self.sbs_x + sbx] = None;
                probe.branch(BranchSite::SkipTaken, false);
                return;
            }
            BMode::Fwd => {
                s.predict_chroma(fwd_ref, x0, y0, fres.mv);
                (&s.pred, 1, &both_mvs[..1])
            }
            BMode::Bwd => {
                s.predict_chroma(bwd_ref, x0, y0, bres.mv);
                (&s.pred_b, 2, &both_mvs[1..])
            }
            BMode::Bi => {
                s.predict_chroma_bi((fwd_ref, fres.mv), (bwd_ref, bres.mv), x0, y0);
                (&s.pred_bi, 3, &both_mvs[..])
            }
        };
        self.counters.record(Kernel::MotionComp, 2 * (cs * cs) as u64);

        let levels = self.compute_levels(frame.y(), luma_pred, x0, y0, qp, Deadzone::Inter);
        let ulev = self.compute_levels(frame.u(), &s.upred, cx, cy, qp, Deadzone::Inter);
        let vlev = self.compute_levels(frame.v(), &s.vpred, cx, cy, qp, Deadzone::Inter);

        // Skip-direct: forward prediction at the predictor MV, no residual.
        let can_skip = mode_code == 1
            && mvs[0] == pred_mv
            && !levels.any_nonzero
            && !ulev.any_nonzero
            && !vlev.any_nonzero;
        probe.branch(BranchSite::SkipTaken, can_skip);
        if can_skip {
            self.sb_skip += 1;
            enc.put_uval(CtxClass::Mode, 0);
            luma_pred.paste_into(recon_y, x0, y0);
            s.upred.paste_into(recon_u, cx, cy);
            s.vpred.paste_into(recon_v, cx, cy);
        } else {
            self.sb_inter += 1;
            enc.put_uval(CtxClass::Mode, mode_code);
            for mv in mvs {
                enc.put_sval(CtxClass::MvX, i64::from(mv.x) - i64::from(pred_mv.x));
                enc.put_sval(CtxClass::MvY, i64::from(mv.y) - i64::from(pred_mv.y));
            }
            self.emit_levels(enc, recon_y, luma_pred, x0, y0, qp, &levels, probe);
            self.emit_levels(enc, recon_u, &s.upred, cx, cy, qp, &ulev, probe);
            self.emit_levels(enc, recon_v, &s.vpred, cx, cy, qp, &vlev, probe);
        }
        probe_region_rows(probe, ctx.recon_base, self.width, x0, y0, self.sb, true);
        self.mv_grid[sby * self.sbs_x + sbx] = Some(mvs[0]);
    }
}

/// Immutable context for coding one superblock.
struct SbContext<'a> {
    frame: &'a Frame,
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
    fn frame_type_codes_roundtrip() {
        for t in [FrameType::Intra, FrameType::Predicted, FrameType::Bidirectional] {
            assert_eq!(FrameType::from_code(t.to_code()), Some(t));
        }
        assert_eq!(FrameType::from_code(9), None);
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
