//! The video decoder.
//!
//! Decoding "simply follows the interpretation rules for the bitstream"
//! (Section 1 of the paper) — it is deterministic and much cheaper than
//! encoding. The decoder mirrors the encoder's reconstruction path exactly,
//! so its output is bit-identical to the encoder-side reconstruction
//! ([`crate::encoder::EncodeOutput::recon`]); the integration tests assert
//! this.

use crate::bitio::ReadBitsError;
use crate::deblock::deblock_plane;
use crate::entropy::{CtxClass, EntropyDecoder};
use crate::motion::{average_into, motion_compensate_into, MotionVector, MvGrid};
use crate::predict::{predict_intra_into, IntraMode};
use crate::syntax::{
    self, get_quadrant_mode, get_sb_mode, probe_stream, FrameType, Recons, SbMode,
};
use crate::tile::{reconstruct_tile, Scratch, TILE};
use crate::transform::TransformSize;
use vframe::block::Block;
use vframe::{Frame, Plane, Video};

/// Errors produced while parsing a bitstream.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// The stream does not start with the container magic.
    BadMagic,
    /// The stream's version is not supported.
    UnsupportedVersion(u8),
    /// A header field holds an invalid value.
    InvalidHeader(&'static str),
    /// The stream ended prematurely or a code was malformed.
    Corrupt,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a vbench codec stream"),
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported stream version {v}"),
            DecodeError::InvalidHeader(what) => write!(f, "invalid header field: {what}"),
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

/// Decodes a complete bitstream into a raw video.
///
/// # Errors
///
/// Returns a [`DecodeError`] if the stream is malformed or truncated.
pub fn decode(bytes: &[u8]) -> Result<Video, DecodeError> {
    let info = probe_stream(bytes)?;
    let records = syntax::records(bytes, &info)?;

    let width = info.resolution.width() as usize;
    let height = info.resolution.height() as usize;
    let sb = info.family.superblock_size();

    let mut frames: Vec<Option<Frame>> = vec![None; info.frames as usize];
    let mut scratch = Scratch::new(sb);
    let s = &mut scratch;
    let mut mvs = MvGrid::new(width, height, sb);
    let (sbs_x, sbs_y) = mvs.size();
    // Any stream may hold B frames, so the older reference always stays.
    let mut recons = Recons::new(true);

    for rec in &records {
        let (ftype, qp, display) = (rec.ftype, rec.qp, rec.display as usize);
        let mut dec = EntropyDecoder::new(info.backend, rec.payload);

        let mut recon_y = Plane::filled(width, height, 128);
        let mut recon_u = Plane::filled(width / 2, height / 2, 128);
        let mut recon_v = Plane::filled(width / 2, height / 2, 128);
        mvs.clear();
        let (fwd, bwd) = recons.refs(ftype);
        if ftype == FrameType::Predicted && fwd.is_none() {
            return Err(DecodeError::InvalidHeader("P frame without reference"));
        }
        if ftype == FrameType::Bidirectional && (fwd.is_none() || bwd.is_none()) {
            return Err(DecodeError::InvalidHeader("B frame without references"));
        }

        for sby in 0..sbs_y {
            for sbx in 0..sbs_x {
                let x0 = sbx * sb;
                let y0 = sby * sb;
                let pred_mv = mvs.predict(sbx, sby);
                let read_mv = |dec: &mut EntropyDecoder<'_>, base: MotionVector| {
                    let dx = dec.get_sval(CtxClass::MvX)?;
                    let dy = dec.get_sval(CtxClass::MvY)?;
                    offset_mv(base, dx, dy)
                };
                let (cx, cy) = (x0 / 2, y0 / 2);
                let recon = [&mut recon_y, &mut recon_u, &mut recon_v];
                let mv = match (get_sb_mode(&mut dec, ftype)?, fwd, bwd) {
                    (SbMode::Intra(mode), ..) => {
                        let [recon_y, recon_u, recon_v] = recon;
                        decode_intra_sb(&mut dec, s, mode, x0, y0, qp, recon_y, recon_u, recon_v)?;
                        None
                    }
                    (SbMode::IntraSplit, ..) => {
                        let [recon_y, recon_u, recon_v] = recon;
                        decode_intra_split_sb(
                            &mut dec, s, x0, y0, sb, qp, recon_y, recon_u, recon_v,
                        )?;
                        None
                    }
                    // Skip (forward at the predictor MV, no residual), or
                    // one coded direction.
                    (mode @ (SbMode::Skip | SbMode::Forward), Some(reference), _)
                    | (mode @ SbMode::Backward, _, Some(reference)) => {
                        let mv = if mode == SbMode::Skip {
                            pred_mv
                        } else {
                            read_mv(&mut dec, pred_mv)?
                        };
                        motion_compensate_into(reference.y(), x0, y0, mv, &mut s.pred);
                        s.predict_chroma(reference, x0, y0, mv);
                        let preds = [&s.pred, &s.upred, &s.vpred];
                        finish_inter_sb(&mut dec, mode != SbMode::Skip, preds, x0, y0, qp, recon)?;
                        Some(mv)
                    }
                    (SbMode::Bi, Some(fwd), Some(bwd)) => {
                        let fmv = read_mv(&mut dec, pred_mv)?;
                        let bmv = read_mv(&mut dec, pred_mv)?;
                        motion_compensate_into(fwd.y(), x0, y0, fmv, &mut s.pred);
                        motion_compensate_into(bwd.y(), x0, y0, bmv, &mut s.pred_b);
                        average_into(&s.pred, &s.pred_b, &mut s.pred_bi);
                        s.predict_chroma_bi((fwd, fmv), (bwd, bmv), x0, y0);
                        let preds = [&s.pred_bi, &s.upred, &s.vpred];
                        finish_inter_sb(&mut dec, true, preds, x0, y0, qp, recon)?;
                        Some(fmv)
                    }
                    // Base MV, then four quadrants, then chroma.
                    (SbMode::Split, Some(reference), _) => {
                        let base = read_mv(&mut dec, pred_mv)?;
                        let half = sb / 2;
                        let [recon_y, recon_u, recon_v] = recon;
                        let mut first_mv = MotionVector::ZERO;
                        for (i, (qx, qy)) in
                            [(0, 0), (half, 0), (0, half), (half, half)].into_iter().enumerate()
                        {
                            let mv = read_mv(&mut dec, base)?;
                            if i == 0 {
                                first_mv = mv;
                            }
                            let (x, y) = (x0 + qx, y0 + qy);
                            motion_compensate_into(reference.y(), x, y, mv, &mut s.qpred);
                            decode_residual_region(&mut dec, &s.qpred, x, y, qp, recon_y)?;
                        }
                        s.predict_chroma(reference, x0, y0, base);
                        decode_residual_region(&mut dec, &s.upred, cx, cy, qp, recon_u)?;
                        decode_residual_region(&mut dec, &s.vpred, cx, cy, qp, recon_v)?;
                        Some(first_mv)
                    }
                    // Unreached: the mode table gives an I frame no inter
                    // mode, and the check above gives P and B frames
                    // their references.
                    _ => return Err(DecodeError::Corrupt),
                };
                mvs.set(sbx, sby, mv);
            }
        }

        if info.deblock {
            let _ = deblock_plane(&mut recon_y, 8, qp);
            let _ = deblock_plane(&mut recon_u, 8, qp);
            let _ = deblock_plane(&mut recon_v, 8, qp);
        }
        let recon = Frame::from_planes(info.resolution, recon_y, recon_u, recon_v);
        if let Some((display, frame)) = recons.push(ftype, display, recon) {
            frames[display] = Some(frame);
        }
    }
    for (display, frame) in recons.drain() {
        frames[display] = Some(frame);
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
            let nonzero = dec.get_coeff_block_into(TransformSize::T8, &mut levels)?;
            reconstruct_tile(&levels, nonzero, qp, pred, (tx, ty), recon, (x0, y0));
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
        let mode = get_quadrant_mode(dec)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{encode, EncoderConfig};
    use crate::family::{CodecFamily, Preset};
    use crate::rc::RateControl;
    use vframe::Resolution;

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

    /// Also decodes each (B-free) stream with its records' display indexes
    /// reversed, which the encoder never writes: the decoder files every
    /// frame at its record's display index.
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
                let info = probe_stream(&out.bytes).unwrap();
                let records = syntax::records(&out.bytes, &info).unwrap();
                let mut reversed = out.bytes[..records[0].offset].to_vec();
                for r in &records {
                    let display = v.len() as u32 - 1 - r.display;
                    syntax::write_record(&mut reversed, r.ftype, r.qp, display, r.payload);
                }
                let reversed = decode(&reversed).expect("decode reversed");
                assert_eq!(decoded.len(), v.len());
                for t in 0..v.len() {
                    let what = format!("{family}/{preset} frame {t} mismatch");
                    assert_eq!(decoded.frame(t), out.recon.frame(t), "{what}");
                    assert_eq!(reversed.frame(v.len() - 1 - t), out.recon.frame(t), "{what}");
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
        let info = probe_stream(&out.bytes).unwrap();
        let records = syntax::records(&out.bytes, &info).unwrap();
        assert_eq!(records.len(), 9);
        for r in &records {
            assert_eq!(r.ftype == FrameType::Intra, r.display % 4 == 0, "frame {}", r.display);
        }
    }

    #[test]
    fn error_display_is_meaningful() {
        assert_eq!(DecodeError::BadMagic.to_string(), "not a vbench codec stream");
        assert!(DecodeError::UnsupportedVersion(9).to_string().contains('9'));
    }
}
