//! A from-scratch block-transform video codec for the vbench reproduction.
//!
//! This crate is the workspace's stand-in for ffmpeg + libx264 / libx265 /
//! libvpx-vp9: a complete hybrid video codec — encoder *and* decoder —
//! implementing the template the paper describes in Section 2.1:
//!
//! 1. frames decompose into superblocks ([`family::CodecFamily`] sets the
//!    size: 16×16 for the AVC class, 32×32 for HEVC/VP9 classes);
//! 2. each block is predicted, either *intra* from reconstructed
//!    neighbours ([`predict`]) or *inter* by motion estimation against the
//!    previous reconstructed frame ([`motion`]);
//! 3. the residual is transformed ([`transform`]), quantized ([`quant`] —
//!    the only lossy step), and entropy-coded ([`entropy`], with VLC and
//!    adaptive-arithmetic backends standing in for CAVLC and CABAC);
//! 4. an in-loop deblocking filter ([`deblock`]) smooths block edges.
//!
//! Rate control ([`rc`]) offers constant quality (CRF), single-pass
//! bitrate, and two-pass bitrate — the three modes the paper's transcoding
//! scenarios exercise. Effort presets ([`family::Preset`]) widen the
//! encoder's heuristic search exactly as the paper's Section 2.2 describes.
//!
//! The bitstream format — the stream header, the frame records and the
//! superblock mode codes — is written and read in one module, [`syntax`];
//! the encoder, the decoder and the `vpack` packager all go through it.
//!
//! Every encode reports per-kernel work counters and can stream trace
//! events to a [`stats::Probe`], which the `varch` crate turns into the
//! paper's microarchitectural studies.
//!
//! # Example
//!
//! ```
//! use vcodec::{decode, encode, CodecFamily, EncoderConfig, Preset, RateControl};
//! use vframe::color::{frame_from_fn, Yuv};
//! use vframe::{Resolution, Video};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let frames = (0..4)
//!     .map(|t| {
//!         frame_from_fn(Resolution::new(64, 64), |x, y| {
//!             Yuv::new(((x + 2 * t) * 3 + y) as u8, 128, 128)
//!         })
//!     })
//!     .collect();
//! let video = Video::new(frames, 30.0);
//!
//! let config = EncoderConfig::new(
//!     CodecFamily::Avc,
//!     Preset::Fast,
//!     RateControl::ConstQuality { crf: 23.0 },
//! );
//! let out = encode(&video, &config);
//! let decoded = decode(&out.bytes)?;
//! assert_eq!(decoded.frame(0), out.recon.frame(0));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
// Every kernel here is safe Rust the compiler vectorizes. The only
// `unsafe` is what `vframe::isa::multiversion!` expands to: its call into
// a detected rung, allowed on that call alone.
#![deny(unsafe_code)]

pub mod arith;
pub mod bitio;
pub mod deblock;
pub mod decoder;
pub mod encoder;
pub mod entropy;
pub mod family;
pub mod golomb;
pub mod motion;
pub mod predict;
pub mod quant;
pub mod rc;
pub mod stats;
pub mod syntax;
mod tile;
pub mod transform;

pub use decoder::{decode, DecodeError};
pub use encoder::{
    coding_order, encode, encode_stream, encode_with_probe, required_window, try_encode,
    EncodeError, EncodeOutput, EncoderConfig, StreamEncodeOutput,
};
pub use family::{CodecFamily, Preset};
pub use rc::{FirstPassLog, RateControl};
pub use stats::{BranchSite, EncodeStats, Kernel, KernelCounters, NoProbe, Probe};
pub use syntax::{probe_stream, FrameType, StreamInfo};
