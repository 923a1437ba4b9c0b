//! The video decoder.
//!
//! Decoding "simply follows the interpretation rules for the bitstream"
//! (Section 1 of the paper) — it is deterministic and much cheaper than
//! encoding. The decoder mirrors the encoder's reconstruction path exactly,
//! so its output is bit-identical to the encoder-side reconstruction
//! ([`crate::encoder::EncodeOutput::recon`]); the integration tests assert
//! this.

use crate::bitio::{BitReader, ReadBitsError};
use crate::deblock::deblock_plane;
use crate::encoder::{FrameType, MAGIC, VERSION};
use crate::entropy::{CtxClass, EntropyBackend, EntropyDecoder};
use crate::family::CodecFamily;
use crate::motion::{average_into, median_predictor, motion_compensate_into, MotionVector};
use crate::predict::{predict_intra_into, IntraMode};
use crate::tile::{reconstruct_tile, Scratch, TILE};
use crate::transform::TransformSize;
use vframe::block::Block;
use vframe::{Frame, Plane, Resolution, Video};

/// Errors produced while parsing a bitstream.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// The stream does not start with the container magic.
    BadMagic,
    /// The stream's version is not supported.
    UnsupportedVersion(u8),
    /// A header field holds an invalid value.
    InvalidHeader(&'static str),
    /// A predicted frame names a reference that was never decoded.
    MissingReference,
    /// The stream ended prematurely or a code was malformed.
    Corrupt,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a vbench codec stream"),
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported stream version {v}"),
            DecodeError::InvalidHeader(what) => write!(f, "invalid header field: {what}"),
            DecodeError::MissingReference => {
                write!(f, "predicted frame references an undecoded frame")
            }
            DecodeError::Corrupt => write!(f, "bitstream exhausted or malformed"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<ReadBitsError> for DecodeError {
    fn from(_: ReadBitsError) -> DecodeError {
        DecodeError::Corrupt
    }
}

/// Stream-level metadata parsed from the container header.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct StreamInfo {
    /// Codec family that produced the stream.
    pub family: CodecFamily,
    /// Entropy backend in use.
    pub backend: EntropyBackend,
    /// Picture size.
    pub resolution: Resolution,
    /// Frame rate.
    pub fps: f64,
    /// Number of coded frames.
    pub frames: u32,
    /// Keyframe interval.
    pub gop: u16,
    /// Whether the stream was coded with the in-loop deblocking filter.
    pub deblock: bool,
}

/// Parses only the container header.
///
/// # Errors
///
/// Returns a [`DecodeError`] if the header is malformed.
pub fn probe_stream(bytes: &[u8]) -> Result<StreamInfo, DecodeError> {
    let mut r = BitReader::new(bytes);
    let magic = r.get_bytes(4)?;
    if magic != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = r.get_bits(8)? as u8;
    if version != VERSION {
        return Err(DecodeError::UnsupportedVersion(version));
    }
    let family = match r.get_bits(8)? {
        0 => CodecFamily::Avc,
        1 => CodecFamily::Hevc,
        2 => CodecFamily::Vp9,
        3 => CodecFamily::Av1,
        _ => return Err(DecodeError::InvalidHeader("family")),
    };
    let backend = match r.get_bits(8)? {
        0 => EntropyBackend::Vlc,
        s @ 1..=7 => EntropyBackend::Arith { shift: s as u8 },
        _ => return Err(DecodeError::InvalidHeader("entropy backend")),
    };
    let width = r.get_bits(16)? as u32;
    let height = r.get_bits(16)? as u32;
    if width == 0 || height == 0 || !width.is_multiple_of(2) || !height.is_multiple_of(2) {
        return Err(DecodeError::InvalidHeader("resolution"));
    }
    // Allocation guard: a hostile header may declare any 16-bit
    // dimensions, and the decoder allocates full planes before reading a
    // single payload byte. 2^26 pixels (~67M) comfortably covers 8K.
    if width as u64 * height as u64 > 1 << 26 {
        return Err(DecodeError::InvalidHeader("resolution"));
    }
    let fps = r.get_bits(32)? as f64 / 1000.0;
    if fps <= 0.0 {
        return Err(DecodeError::InvalidHeader("frame rate"));
    }
    let frames = r.get_bits(32)? as u32;
    if frames == 0 {
        return Err(DecodeError::InvalidHeader("frame count"));
    }
    // Allocation guard: every coded frame costs at least 10 framing
    // bytes (type, qp, display index, payload length), so a declared
    // count the stream cannot physically hold is a lie — reject it
    // before `decode`/`frame_kinds` size their tables from it.
    if frames as u64 * 10 > bytes.len() as u64 {
        return Err(DecodeError::InvalidHeader("frame count"));
    }
    let gop = r.get_bits(16)? as u16;
    if gop == 0 {
        return Err(DecodeError::InvalidHeader("gop"));
    }
    let flags = r.get_bits(8)?;
    if flags > 1 {
        return Err(DecodeError::InvalidHeader("flags"));
    }
    Ok(StreamInfo {
        family,
        backend,
        resolution: Resolution::new(width, height),
        fps,
        frames,
        gop,
        deblock: flags & 1 == 1,
    })
}

/// Lists each coded frame's type (`true` = intra/key frame) without
/// decoding payloads — the cheap stream inspection a packager or CDN
/// performs to find seek points.
///
/// # Errors
///
/// Returns a [`DecodeError`] if the header or frame framing is malformed.
pub fn frame_kinds(bytes: &[u8]) -> Result<Vec<bool>, DecodeError> {
    let info = probe_stream(bytes)?;
    let mut r = BitReader::new(bytes);
    let _ = r.get_bytes(4)?;
    let _ = r.get_bits(8 + 8 + 8 + 16 + 16)?;
    let _ = r.get_bits(32 + 32)?;
    let _ = r.get_bits(16 + 8)?;
    let mut kinds = vec![false; info.frames as usize];
    for _ in 0..info.frames {
        let is_intra = r.get_bits(8)? == 1;
        let _qp = r.get_bits(8)?;
        let display = r.get_bits(32)? as usize;
        if display >= kinds.len() {
            return Err(DecodeError::InvalidHeader("display index"));
        }
        kinds[display] = is_intra;
        let payload_len = r.get_bits(32)? as usize;
        let _ = r.get_bytes(payload_len)?;
    }
    Ok(kinds)
}

/// Decodes a complete bitstream into a raw video.
///
/// # Errors
///
/// Returns a [`DecodeError`] if the stream is malformed or truncated.
pub fn decode(bytes: &[u8]) -> Result<Video, DecodeError> {
    let info = probe_stream(bytes)?;
    // Re-walk the header to position after it (probe_stream consumed a copy).
    let mut r = BitReader::new(bytes);
    let _ = r.get_bytes(4)?;
    let _ = r.get_bits(8 + 8 + 8 + 16 + 16)?;
    let _ = r.get_bits(32 + 32)?;
    let _ = r.get_bits(16 + 8)?;

    let width = info.resolution.width() as usize;
    let height = info.resolution.height() as usize;
    let sb = info.family.superblock_size();
    let sbs_x = width.div_ceil(sb);
    let sbs_y = height.div_ceil(sb);

    let mut frames: Vec<Option<Frame>> = vec![None; info.frames as usize];
    let mut scratch = Scratch::new(sb);
    let s = &mut scratch;
    let mut mv_grid: Vec<Option<MotionVector>> = vec![None; sbs_x * sbs_y];
    // Display indexes of the two most recent reference frames, mirroring
    // the encoder: a B frame predicts forward from `prev_ref` and
    // backward from `cur_ref`.
    let mut prev_ref: Option<usize> = None;
    let mut cur_ref: Option<usize> = None;

    for _ in 0..info.frames {
        let ftype = FrameType::from_code(r.get_bits(8)? as u8).ok_or(DecodeError::Corrupt)?;
        let qp = r.get_bits(8)? as u8;
        if qp > crate::quant::QP_MAX {
            return Err(DecodeError::InvalidHeader("frame qp"));
        }
        let display = r.get_bits(32)? as usize;
        if display >= frames.len() || frames[display].is_some() {
            return Err(DecodeError::InvalidHeader("display index"));
        }
        let payload_len = r.get_bits(32)? as usize;
        let payload = r.get_bytes(payload_len)?;
        let mut dec = EntropyDecoder::new(info.backend, payload);

        let mut recon_y = Plane::filled(width, height, 128);
        let mut recon_u = Plane::filled(width / 2, height / 2, 128);
        let mut recon_v = Plane::filled(width / 2, height / 2, 128);
        mv_grid.fill(None);
        let is_intra = ftype == FrameType::Intra;
        let is_b = ftype == FrameType::Bidirectional;
        let fwd_frame = match ftype {
            FrameType::Intra => None,
            FrameType::Predicted => {
                let i = cur_ref.ok_or(DecodeError::InvalidHeader("P frame without reference"))?;
                Some(frames[i].as_ref().ok_or(DecodeError::MissingReference)?)
            }
            FrameType::Bidirectional => {
                let i = prev_ref.ok_or(DecodeError::InvalidHeader("B frame without references"))?;
                Some(frames[i].as_ref().ok_or(DecodeError::MissingReference)?)
            }
        };
        let bwd_frame = if is_b {
            let i = cur_ref.ok_or(DecodeError::InvalidHeader("B frame without references"))?;
            Some(frames[i].as_ref().ok_or(DecodeError::MissingReference)?)
        } else {
            None
        };

        for sby in 0..sbs_y {
            for sbx in 0..sbs_x {
                let x0 = sbx * sb;
                let y0 = sby * sb;
                if is_intra {
                    let mode_id = dec.get_uval(CtxClass::Mode)?;
                    if mode_id == 4 {
                        decode_intra_split_sb(
                            &mut dec,
                            s,
                            x0,
                            y0,
                            sb,
                            qp,
                            &mut recon_y,
                            &mut recon_u,
                            &mut recon_v,
                        )?;
                        mv_grid[sby * sbs_x + sbx] = None;
                        continue;
                    }
                    let mode = IntraMode::from_id(
                        u8::try_from(mode_id).map_err(|_| DecodeError::Corrupt)?,
                    )
                    .ok_or(DecodeError::Corrupt)?;
                    decode_intra_sb(
                        &mut dec,
                        s,
                        mode,
                        x0,
                        y0,
                        qp,
                        &mut recon_y,
                        &mut recon_u,
                        &mut recon_v,
                    )?;
                    mv_grid[sby * sbs_x + sbx] = None;
                    continue;
                }
                let reference = fwd_frame.ok_or(DecodeError::MissingReference)?;
                let grid_at = |dx: isize, dy: isize| -> Option<MotionVector> {
                    let gx = sbx as isize + dx;
                    let gy = sby as isize + dy;
                    if gx < 0 || gy < 0 || gx >= sbs_x as isize || gy >= sbs_y as isize {
                        None
                    } else {
                        mv_grid[gy as usize * sbs_x + gx as usize]
                    }
                };
                let pred_mv = median_predictor(grid_at(-1, 0), grid_at(0, -1), grid_at(1, -1));
                let mode = dec.get_uval(CtxClass::Mode)?;
                if is_b {
                    decode_b_sb(
                        &mut dec,
                        s,
                        mode,
                        pred_mv,
                        reference,
                        bwd_frame.ok_or(DecodeError::MissingReference)?,
                        x0,
                        y0,
                        qp,
                        &mut recon_y,
                        &mut recon_u,
                        &mut recon_v,
                        &mut mv_grid[sby * sbs_x + sbx],
                    )?;
                    continue;
                }
                let (cx, cy) = (x0 / 2, y0 / 2);
                match mode {
                    0 | 1 => {
                        // Skip (predictor MV, no residual) or coded inter.
                        let coded = mode == 1;
                        let mv = if coded {
                            let mvd_x = dec.get_sval(CtxClass::MvX)?;
                            let mvd_y = dec.get_sval(CtxClass::MvY)?;
                            offset_mv(pred_mv, mvd_x, mvd_y)?
                        } else {
                            pred_mv
                        };
                        motion_compensate_into(reference.y(), x0, y0, mv, &mut s.pred);
                        s.predict_chroma(reference, x0, y0, mv);
                        let preds = [&s.pred, &s.upred, &s.vpred];
                        let recon = [&mut recon_y, &mut recon_u, &mut recon_v];
                        finish_inter_sb(&mut dec, coded, preds, x0, y0, qp, recon)?;
                        mv_grid[sby * sbs_x + sbx] = Some(mv);
                    }
                    2 => {
                        // Split: base MV, then four quadrants, then chroma.
                        let base_dx = dec.get_sval(CtxClass::MvX)?;
                        let base_dy = dec.get_sval(CtxClass::MvY)?;
                        let base = offset_mv(pred_mv, base_dx, base_dy)?;
                        let half = sb / 2;
                        let mut first_mv = MotionVector::ZERO;
                        for (i, (qx, qy)) in
                            [(0, 0), (half, 0), (0, half), (half, half)].iter().enumerate()
                        {
                            let dx = dec.get_sval(CtxClass::MvX)?;
                            let dy = dec.get_sval(CtxClass::MvY)?;
                            let mv = offset_mv(base, dx, dy)?;
                            if i == 0 {
                                first_mv = mv;
                            }
                            motion_compensate_into(
                                reference.y(),
                                x0 + qx,
                                y0 + qy,
                                mv,
                                &mut s.qpred,
                            );
                            decode_residual_region(
                                &mut dec,
                                &s.qpred,
                                x0 + qx,
                                y0 + qy,
                                qp,
                                &mut recon_y,
                            )?;
                        }
                        s.predict_chroma(reference, x0, y0, base);
                        decode_residual_region(&mut dec, &s.upred, cx, cy, qp, &mut recon_u)?;
                        decode_residual_region(&mut dec, &s.vpred, cx, cy, qp, &mut recon_v)?;
                        mv_grid[sby * sbs_x + sbx] = Some(first_mv);
                    }
                    m @ 3..=6 => {
                        let mode = IntraMode::from_id((m - 3) as u8).ok_or(DecodeError::Corrupt)?;
                        decode_intra_sb(
                            &mut dec,
                            s,
                            mode,
                            x0,
                            y0,
                            qp,
                            &mut recon_y,
                            &mut recon_u,
                            &mut recon_v,
                        )?;
                        mv_grid[sby * sbs_x + sbx] = None;
                    }
                    7 => {
                        decode_intra_split_sb(
                            &mut dec,
                            s,
                            x0,
                            y0,
                            sb,
                            qp,
                            &mut recon_y,
                            &mut recon_u,
                            &mut recon_v,
                        )?;
                        mv_grid[sby * sbs_x + sbx] = None;
                    }
                    _ => return Err(DecodeError::Corrupt),
                }
            }
        }

        if info.deblock {
            let _ = deblock_plane(&mut recon_y, 8, qp);
            let _ = deblock_plane(&mut recon_u, 8, qp);
            let _ = deblock_plane(&mut recon_v, 8, qp);
        }
        frames[display] = Some(Frame::from_planes(info.resolution, recon_y, recon_u, recon_v));
        if !is_b {
            prev_ref = cur_ref;
            cur_ref = Some(display);
        }
    }

    let frames: Vec<Frame> =
        frames.into_iter().collect::<Option<Vec<Frame>>>().ok_or(DecodeError::Corrupt)?;
    Ok(Video::new(frames, info.fps))
}

fn offset_mv(base: MotionVector, dx: i64, dy: i64) -> Result<MotionVector, DecodeError> {
    let x = i64::from(base.x) + dx;
    let y = i64::from(base.y) + dy;
    let x = i16::try_from(x).map_err(|_| DecodeError::Corrupt)?;
    let y = i16::try_from(y).map_err(|_| DecodeError::Corrupt)?;
    Ok(MotionVector::new(x, y))
}

/// Decodes the residual tiles of one `pred.size()`-sized region and writes
/// the reconstruction into `recon` at `(x0, y0)` — the decoder-side mirror
/// of the encoder's `emit_levels`.
fn decode_residual_region(
    dec: &mut EntropyDecoder<'_>,
    pred: &Block,
    x0: usize,
    y0: usize,
    qp: u8,
    recon: &mut Plane,
) -> Result<(), DecodeError> {
    let mut levels = [0i32; TILE * TILE];
    for ty in (0..pred.size()).step_by(TILE) {
        for tx in (0..pred.size()).step_by(TILE) {
            dec.get_coeff_block_into(TransformSize::T8, &mut levels)?;
            reconstruct_tile(&levels, qp, pred, (tx, ty), recon, (x0, y0));
        }
    }
    Ok(())
}

/// Completes an inter superblock at `(x0, y0)` from its luma, U and V
/// predictions: plus the decoded residual when `coded`, as they are for
/// a skip.
fn finish_inter_sb(
    dec: &mut EntropyDecoder<'_>,
    coded: bool,
    preds: [&Block; 3],
    x0: usize,
    y0: usize,
    qp: u8,
    recon: [&mut Plane; 3],
) -> Result<(), DecodeError> {
    let at = [(x0, y0), (x0 / 2, y0 / 2), (x0 / 2, y0 / 2)];
    for ((pred, recon), (x, y)) in preds.into_iter().zip(recon).zip(at) {
        if coded {
            decode_residual_region(dec, pred, x, y, qp, recon)?;
        } else {
            pred.paste_into(recon, x, y);
        }
    }
    Ok(())
}

/// Decodes a split-intra superblock: four quadrant modes with their
/// residuals in raster order (predictions track the live reconstruction,
/// mirroring the encoder), then chroma predicted with the first
/// quadrant's mode.
#[allow(clippy::too_many_arguments)]
fn decode_intra_split_sb(
    dec: &mut EntropyDecoder<'_>,
    s: &mut Scratch,
    x0: usize,
    y0: usize,
    sb: usize,
    qp: u8,
    recon_y: &mut Plane,
    recon_u: &mut Plane,
    recon_v: &mut Plane,
) -> Result<(), DecodeError> {
    let half = sb / 2;
    let mut first_mode = IntraMode::Dc;
    for (i, (qx, qy)) in [(0, 0), (half, 0), (0, half), (half, half)].iter().enumerate() {
        let id = dec.get_uval(CtxClass::Mode)?;
        let mode = IntraMode::from_id(u8::try_from(id).map_err(|_| DecodeError::Corrupt)?)
            .ok_or(DecodeError::Corrupt)?;
        if i == 0 {
            first_mode = mode;
        }
        predict_intra_into(recon_y, x0 + qx, y0 + qy, mode, &mut s.qpred);
        decode_residual_region(dec, &s.qpred, x0 + qx, y0 + qy, qp, recon_y)?;
    }
    decode_intra_chroma(dec, s, first_mode, x0 / 2, y0 / 2, qp, recon_u, recon_v)
}

/// Decodes the two chroma planes of an intra superblock, both predicted
/// with `mode` at half size.
#[allow(clippy::too_many_arguments)]
fn decode_intra_chroma(
    dec: &mut EntropyDecoder<'_>,
    s: &mut Scratch,
    mode: IntraMode,
    cx: usize,
    cy: usize,
    qp: u8,
    recon_u: &mut Plane,
    recon_v: &mut Plane,
) -> Result<(), DecodeError> {
    for recon in [recon_u, recon_v] {
        predict_intra_into(recon, cx, cy, mode, &mut s.qpred);
        decode_residual_region(dec, &s.qpred, cx, cy, qp, recon)?;
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn decode_intra_sb(
    dec: &mut EntropyDecoder<'_>,
    s: &mut Scratch,
    mode: IntraMode,
    x0: usize,
    y0: usize,
    qp: u8,
    recon_y: &mut Plane,
    recon_u: &mut Plane,
    recon_v: &mut Plane,
) -> Result<(), DecodeError> {
    predict_intra_into(recon_y, x0, y0, mode, &mut s.intra);
    decode_residual_region(dec, &s.intra, x0, y0, qp, recon_y)?;
    decode_intra_chroma(dec, s, mode, x0 / 2, y0 / 2, qp, recon_u, recon_v)
}

/// Decodes one B-frame superblock (the mirror of the encoder's
/// `encode_b_sb`): mode 0 = skip-direct forward, 1 = forward MVD,
/// 2 = backward MVD, 3 = bidirectional (two MVDs), 4+ = intra.
#[allow(clippy::too_many_arguments)]
fn decode_b_sb(
    dec: &mut EntropyDecoder<'_>,
    s: &mut Scratch,
    mode: u64,
    pred_mv: MotionVector,
    fwd: &Frame,
    bwd: &Frame,
    x0: usize,
    y0: usize,
    qp: u8,
    recon_y: &mut Plane,
    recon_u: &mut Plane,
    recon_v: &mut Plane,
    grid_cell: &mut Option<MotionVector>,
) -> Result<(), DecodeError> {
    let read_mv = |dec: &mut EntropyDecoder<'_>| -> Result<MotionVector, DecodeError> {
        let dx = dec.get_sval(CtxClass::MvX)?;
        let dy = dec.get_sval(CtxClass::MvY)?;
        offset_mv(pred_mv, dx, dy)
    };
    let recon = [&mut *recon_y, &mut *recon_u, &mut *recon_v];
    match mode {
        0..=2 => {
            // Skip-direct (forward at the predictor MV, no residual), or
            // one coded direction.
            let mv = if mode == 0 { pred_mv } else { read_mv(dec)? };
            let reference = if mode == 2 { bwd } else { fwd };
            motion_compensate_into(reference.y(), x0, y0, mv, &mut s.pred);
            s.predict_chroma(reference, x0, y0, mv);
            let preds = [&s.pred, &s.upred, &s.vpred];
            finish_inter_sb(dec, mode != 0, preds, x0, y0, qp, recon)?;
            *grid_cell = Some(mv);
        }
        3 => {
            let fmv = read_mv(dec)?;
            let bmv = read_mv(dec)?;
            motion_compensate_into(fwd.y(), x0, y0, fmv, &mut s.pred);
            motion_compensate_into(bwd.y(), x0, y0, bmv, &mut s.pred_b);
            average_into(&s.pred, &s.pred_b, &mut s.pred_bi);
            s.predict_chroma_bi((fwd, fmv), (bwd, bmv), x0, y0);
            let preds = [&s.pred_bi, &s.upred, &s.vpred];
            finish_inter_sb(dec, true, preds, x0, y0, qp, recon)?;
            *grid_cell = Some(fmv);
        }
        m @ 4..=7 => {
            let mode = IntraMode::from_id((m - 4) as u8).ok_or(DecodeError::Corrupt)?;
            let [recon_y, recon_u, recon_v] = recon;
            decode_intra_sb(dec, s, mode, x0, y0, qp, recon_y, recon_u, recon_v)?;
            *grid_cell = None;
        }
        _ => return Err(DecodeError::Corrupt),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{encode, EncoderConfig};
    use crate::family::Preset;
    use crate::rc::RateControl;

    fn tiny_video(frames: usize) -> Video {
        let res = Resolution::new(64, 48);
        let fs: Vec<Frame> = (0..frames)
            .map(|t| {
                vframe::color::frame_from_fn(res, |x, y| {
                    let v = ((x + 3 * t as u32) * 5 + y * 2) % 256;
                    vframe::color::Yuv::new(v as u8, (x % 200) as u8, 128)
                })
            })
            .collect();
        Video::new(fs, 24.0)
    }

    #[test]
    fn decoder_matches_encoder_reconstruction_exactly() {
        let v = tiny_video(6);
        for family in CodecFamily::ALL {
            for preset in [Preset::UltraFast, Preset::Medium, Preset::VerySlow] {
                let cfg =
                    EncoderConfig::new(family, preset, RateControl::ConstQuality { crf: 27.0 })
                        .with_gop(4);
                let out = encode(&v, &cfg);
                let decoded = decode(&out.bytes).expect("decode");
                assert_eq!(decoded.len(), v.len());
                for t in 0..v.len() {
                    assert_eq!(
                        decoded.frame(t),
                        out.recon.frame(t),
                        "{family}/{preset} frame {t} mismatch"
                    );
                }
            }
        }
    }

    #[test]
    fn probe_stream_reports_header() {
        let v = tiny_video(3);
        let cfg = EncoderConfig::new(
            CodecFamily::Hevc,
            Preset::Fast,
            RateControl::ConstQuality { crf: 30.0 },
        );
        let out = encode(&v, &cfg);
        let info = probe_stream(&out.bytes).unwrap();
        assert_eq!(info.family, CodecFamily::Hevc);
        assert_eq!(info.resolution, Resolution::new(64, 48));
        assert_eq!(info.frames, 3);
        assert!((info.fps - 24.0).abs() < 1e-3);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(decode(b"nope").err(), Some(DecodeError::BadMagic));
        assert_eq!(decode(b"").err(), Some(DecodeError::Corrupt));
    }

    #[test]
    fn truncated_stream_rejected() {
        let v = tiny_video(3);
        let cfg = EncoderConfig::new(
            CodecFamily::Avc,
            Preset::Fast,
            RateControl::ConstQuality { crf: 30.0 },
        );
        let out = encode(&v, &cfg);
        let cut = &out.bytes[..out.bytes.len() / 2];
        assert!(decode(cut).is_err());
    }

    #[test]
    fn bframes_roundtrip_exactly() {
        let v = tiny_video(9);
        for family in CodecFamily::ALL {
            let cfg =
                EncoderConfig::new(family, Preset::Medium, RateControl::ConstQuality { crf: 28.0 })
                    .with_gop(6)
                    .with_bframes();
            let out = encode(&v, &cfg);
            let decoded = decode(&out.bytes).expect("B stream decodes");
            assert_eq!(decoded.len(), v.len());
            for t in 0..v.len() {
                assert_eq!(decoded.frame(t), out.recon.frame(t), "{family} frame {t}");
            }
        }
    }

    #[test]
    fn bframes_do_not_hurt_quality_much_and_help_rate() {
        let v = tiny_video(12);
        let run = |b: bool| {
            let mut cfg = EncoderConfig::new(
                CodecFamily::Avc,
                Preset::Medium,
                RateControl::ConstQuality { crf: 30.0 },
            );
            if b {
                cfg = cfg.with_bframes();
            }
            let out = encode(&v, &cfg);
            (out.bytes.len(), vframe::metrics::psnr_video(&v, &out.recon))
        };
        let (bytes_p, q_p) = run(false);
        let (bytes_b, q_b) = run(true);
        // B frames ride +2 QP: smaller stream, slightly lower PSNR.
        assert!(bytes_b < bytes_p + bytes_p / 10, "B stream {bytes_b} vs P {bytes_p}");
        assert!(q_b > q_p - 2.0, "B quality {q_b} vs {q_p}");
    }

    #[test]
    fn frame_kinds_reports_gop_structure() {
        let v = tiny_video(9);
        let cfg = EncoderConfig::new(
            CodecFamily::Avc,
            Preset::Fast,
            RateControl::ConstQuality { crf: 30.0 },
        )
        .with_gop(4);
        let out = encode(&v, &cfg);
        let kinds = frame_kinds(&out.bytes).unwrap();
        assert_eq!(kinds.len(), 9);
        for (i, &intra) in kinds.iter().enumerate() {
            assert_eq!(intra, i % 4 == 0, "frame {i}");
        }
    }

    #[test]
    fn error_display_is_meaningful() {
        assert_eq!(DecodeError::BadMagic.to_string(), "not a vbench codec stream");
        assert!(DecodeError::UnsupportedVersion(9).to_string().contains('9'));
        assert!(DecodeError::MissingReference.to_string().contains("reference"));
    }
}
