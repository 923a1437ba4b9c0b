//! Hardware video-encoder models for the vbench reproduction.
//!
//! The paper evaluates two fixed-function encoders — NVIDIA NVENC (GTX
//! 1060) and Intel Quick Sync Video (i7-6700K) — and finds them much
//! faster than software but unable to match its compression: "hardware
//! transcoders need to be selective about which compression tools to
//! implement, in order to limit area and power" (Section 5.3).
//!
//! The model in this crate splits the two halves of that behaviour:
//!
//! * **Bitrate and quality are real**: a hardware encode runs the actual
//!   `vcodec` encoder with the *restricted tool set* an ASIC implements —
//!   small pattern search, limited sub-pel, no SATD refinement, no
//!   partition RDO. Compression losses therefore emerge mechanistically
//!   from missing tools, exactly the paper's explanation.
//! * **Speed is modelled**: a fixed-function pipeline is content
//!   independent; [`pipeline::PipelineModel`] charges steady-state
//!   throughput plus per-frame and PCIe overheads, giving the
//!   resolution-dependent speedups of Table 3.
//!
//! [`bisect::bisect_bitrate`] reproduces the paper's tuning methodology:
//! lower the target bitrate until quality constraints are met "by a small
//! margin".
//!
//! # Example
//!
//! ```
//! use vframe::color::{frame_from_fn, Yuv};
//! use vframe::{Resolution, Video};
//! use vhw::{HwEncoder, HwVendor};
//!
//! let frames = (0..4)
//!     .map(|t| {
//!         frame_from_fn(Resolution::new(64, 64), |x, y| {
//!             Yuv::new(((x + t) * 5 + y) as u8, 128, 128)
//!         })
//!     })
//!     .collect();
//! let video = Video::new(frames, 30.0);
//! let out = HwEncoder::new(HwVendor::Nvenc).encode_bitrate(&video, 400_000);
//! assert!(out.speed_pixels_per_sec > 1e6, "hardware is fast");
//! assert!(!out.output.bytes.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bisect;
pub mod catalog;
pub mod pipeline;

pub use bisect::{bisect_bitrate, BisectResult};
pub use catalog::{CpuClass, EncoderKind, InstanceCatalog, InstanceType};
pub use pipeline::{PipelineModel, StageSeconds};

use vcodec::{encode, CodecFamily, EncodeOutput, EncoderConfig, Preset, RateControl};
use vframe::metrics::psnr_video;
use vframe::Video;

/// The two hardware encoders the paper measures.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum HwVendor {
    /// NVIDIA NVENC class (discrete GPU block).
    Nvenc,
    /// Intel Quick Sync Video class (integrated GPU block).
    Qsv,
}

impl HwVendor {
    /// Both vendors.
    pub const ALL: [HwVendor; 2] = [HwVendor::Nvenc, HwVendor::Qsv];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            HwVendor::Nvenc => "NVENC",
            HwVendor::Qsv => "QSV",
        }
    }
}

impl std::fmt::Display for HwVendor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Result of a hardware encode: the real restricted-tool bitstream plus
/// the pipeline-modelled speed.
#[derive(Clone, Debug)]
pub struct HwEncodeResult {
    /// The underlying software-encode output (bitstream, reconstruction,
    /// work statistics) produced with the hardware tool set.
    pub output: EncodeOutput,
    /// Modelled hardware throughput in pixels per second.
    pub speed_pixels_per_sec: f64,
    /// Where the modelled wall-clock time goes: submission, PCIe
    /// transfer, and steady-state pipeline seconds.
    pub stages: pipeline::StageSeconds,
}

impl HwEncodeResult {
    /// Bitrate of the produced stream in bits/s.
    pub fn bitrate_bps(&self, duration_secs: f64) -> f64 {
        self.output.bitrate_bps(duration_secs)
    }
}

/// A hardware encoder model. The transcode engine drives its two halves
/// itself — [`HwEncoder::tool_config`] for the bitstream, the
/// [`HwEncoder::pipeline`] model for the time — so it can stream; the
/// `encode_*` methods are the direct path over a materialized clip.
#[derive(Clone, Copy, Debug)]
pub struct HwEncoder {
    vendor: HwVendor,
    pipeline: PipelineModel,
}

impl HwEncoder {
    /// Creates the model for a vendor with its published-shape parameters.
    pub fn new(vendor: HwVendor) -> HwEncoder {
        let pipeline = match vendor {
            // QSV clocks a somewhat faster pipeline in the paper's results
            // (its speed ratios beat NVENC's across Table 3).
            HwVendor::Nvenc => PipelineModel {
                pipeline_pixels_per_sec: 450e6,
                per_frame_overhead_secs: 0.9e-3,
                pcie_bytes_per_sec: 8e9,
            },
            HwVendor::Qsv => PipelineModel {
                pipeline_pixels_per_sec: 600e6,
                per_frame_overhead_secs: 0.7e-3,
                // Integrated: shares the ring bus, no discrete PCIe hop.
                pcie_bytes_per_sec: 16e9,
            },
        };
        HwEncoder { vendor, pipeline }
    }

    /// The vendor this model represents.
    pub fn vendor(&self) -> HwVendor {
        self.vendor
    }

    /// The pipeline speed model.
    pub fn pipeline(&self) -> &PipelineModel {
        &self.pipeline
    }

    /// The restricted tool set this ASIC implements, expressed as an
    /// encoder configuration: AVC-class tools with a mid-size pattern
    /// search, no SATD refinement, no partition RDO, single-pass rate
    /// control only. This sits *between* the software presets: better than
    /// the speed-constrained Live references (hence the hardware wins of
    /// Table 4) but well short of the two-pass Medium/VerySlow VOD and
    /// Popular references (hence B < 1 in Table 3 and zero valid Popular
    /// transcodes). Both vendors implement the same tool set; they differ
    /// in their pipeline model.
    pub fn tool_config(&self, rate: RateControl) -> EncoderConfig {
        EncoderConfig::new(CodecFamily::Avc, Preset::Fast, rate)
    }

    /// Encodes at a fixed single-pass bitrate (the hardware rate-control
    /// mode the paper's experiments use).
    pub fn encode_bitrate(&self, video: &Video, bps: u64) -> HwEncodeResult {
        HwEncodeResult {
            output: encode(video, &self.tool_config(RateControl::Bitrate { bps })),
            speed_pixels_per_sec: self.pipeline.pixels_per_second(video),
            stages: self.pipeline.stage_seconds(video),
        }
    }

    /// The paper's tuning loop: bisect the target bitrate until the encode
    /// meets `target_db` YCbCr PSNR by a small margin. Returns the final
    /// encode at the chosen bitrate, or `None` if the tool set cannot
    /// reach the target within `[lo_bps, hi_bps]`.
    pub fn encode_to_quality_target(
        &self,
        video: &Video,
        target_db: f64,
        lo_bps: u64,
        hi_bps: u64,
    ) -> Option<HwEncodeResult> {
        let found = bisect_bitrate(lo_bps, hi_bps, target_db, 12, |bps| {
            let out = self.encode_bitrate(video, bps);
            psnr_video(video, &out.output.recon)
        })?;
        Some(self.encode_bitrate(video, found.bitrate_bps))
    }
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
    fn hardware_speed_is_content_independent() {
        let hw = HwEncoder::new(HwVendor::Nvenc);
        let a = hw.encode_bitrate(&clip(5), 200_000);
        let b = hw.encode_bitrate(&clip(5), 2_000_000);
        assert_eq!(a.speed_pixels_per_sec, b.speed_pixels_per_sec);
    }

    #[test]
    fn qsv_pipeline_is_faster_than_nvenc() {
        let v = clip(5);
        let n = HwEncoder::new(HwVendor::Nvenc).pipeline().pixels_per_second(&v);
        let q = HwEncoder::new(HwVendor::Qsv).pipeline().pixels_per_second(&v);
        assert!(q > n);
    }

    #[test]
    fn restricted_tools_decode_and_reconstruct() {
        let v = clip(4);
        let out = HwEncoder::new(HwVendor::Qsv).encode_bitrate(&v, 500_000);
        let decoded = vcodec::decode(&out.output.bytes).expect("decodable stream");
        assert_eq!(decoded.frame(2), out.output.recon.frame(2));
    }

    #[test]
    fn bisection_meets_quality_target() {
        let v = clip(4);
        let hw = HwEncoder::new(HwVendor::Nvenc);
        let target = 34.0;
        let res =
            hw.encode_to_quality_target(&v, target, 20_000, 40_000_000).expect("target reachable");
        let q = psnr_video(&v, &res.output.recon);
        assert!(q >= target - 0.1, "achieved {q} < target {target}");
    }

    #[test]
    fn impossible_quality_target_is_reported() {
        let v = clip(3);
        let hw = HwEncoder::new(HwVendor::Nvenc);
        // 99 dB at a starved ceiling cannot be met.
        assert!(hw.encode_to_quality_target(&v, 99.0, 1_000, 50_000).is_none());
    }

    #[test]
    fn vendor_names() {
        assert_eq!(HwVendor::Nvenc.to_string(), "NVENC");
        assert_eq!(HwVendor::Qsv.name(), "QSV");
    }
}
