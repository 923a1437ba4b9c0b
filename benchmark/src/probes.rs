//! Micro-probes: timed calls into the public kernels of each layer, run
//! once per traced run on fixed inputs (not the `--seed`), so a kernel's
//! number means the same thing on every workload and seed.
//!
//! Each probe reports the *fastest* of several batches: interference on
//! this kind of host only ever adds time, so the minimum is the estimate
//! of the code's own cost.

use std::hint::black_box;
use std::time::Instant;

use vcodec::arith::{ArithEncoder, Context};
use vcodec::entropy::{EntropyBackend, EntropyEncoder};
use vcodec::quant::{quantize, Deadzone};
use vcodec::transform::{fdct, idct, TransformSize};
use vcodec::{CodecFamily, EncoderConfig, Preset, RateControl};
use vframe::block::{sad, satd, Block};
use vframe::metrics::psnr_ycbcr;
use vframe::Resolution;
use vsynth::{ContentClass, SourceSpec};

use crate::alloc;

const BATCHES: usize = 7;

/// Seconds of the fastest of [`BATCHES`] runs of `f`.
fn fastest(mut f: impl FnMut()) -> f64 {
    (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Nanoseconds per call of `f`, `iters` calls per batch.
fn ns_per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    fastest(|| {
        for _ in 0..iters {
            f();
        }
    }) * 1e9
        / iters as f64
}

/// A deterministic residual-like block: small values, mostly low
/// frequencies non-zero, as the encoder's transform input looks.
fn sample_block(n: usize, salt: i32) -> Vec<i32> {
    (0..n * n).map(|i| ((i as i32 * 37 + salt * 11) % 41) - 20).collect()
}

/// One number per kernel, named as in `BENCHMARK.json`.
pub fn run() -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();

    // vframe: block distortion kernels and frame PSNR.
    let a = Block::from_data(16, (0..256).map(|i| (i * 7 % 255) as i16).collect());
    let b = Block::from_data(16, (0..256).map(|i| (i * 13 % 251) as i16).collect());
    out.push((
        "vframe.sad16_ns",
        ns_per_call(20_000, || {
            black_box(sad(black_box(&a), black_box(&b)));
        }),
    ));
    out.push((
        "vframe.satd16_ns",
        ns_per_call(5_000, || {
            black_box(satd(black_box(&a), black_box(&b)));
        }),
    ));
    let res = Resolution::new(240, 134);
    let spec = SourceSpec::new(res, 30.0, 10, ContentClass::Natural, 0x5eed);
    let (f0, f1) = (spec.generate_frame(0), spec.generate_frame(1));
    let psnr_secs = fastest(|| {
        for _ in 0..20 {
            black_box(psnr_ycbcr(black_box(&f0), black_box(&f1)));
        }
    });
    out.push(("vframe.psnr_mpix_per_s", 20.0 * res.pixels() as f64 / 1e6 / psnr_secs));

    // vcodec: transform, quantizer, arithmetic coder, coefficient coding.
    let block = sample_block(8, 3);
    let coeffs = fdct(TransformSize::T8, &block);
    let levels = quantize(&coeffs, 28, Deadzone::Inter);
    out.push((
        "vcodec.fdct8_ns",
        ns_per_call(20_000, || {
            black_box(fdct(TransformSize::T8, black_box(&block)));
        }),
    ));
    out.push((
        "vcodec.idct8_ns",
        ns_per_call(20_000, || {
            black_box(idct(TransformSize::T8, black_box(&coeffs)));
        }),
    ));
    out.push((
        "vcodec.quant8_ns",
        ns_per_call(20_000, || {
            black_box(quantize(black_box(&coeffs), 28, Deadzone::Inter));
        }),
    ));
    const BITS: usize = 1 << 16;
    let arith_secs = fastest(|| {
        let mut enc = ArithEncoder::new();
        let mut ctx = Context::new(5);
        for i in 0..BITS {
            enc.encode(&mut ctx, black_box(i % 7 < 2));
        }
        black_box(enc.finish());
    });
    out.push(("vcodec.arith_bit_ns", arith_secs * 1e9 / BITS as f64));
    for (name, backend) in [
        ("vcodec.coeff_block_vlc_ns", EntropyBackend::Vlc),
        ("vcodec.coeff_block_arith_ns", EntropyBackend::Arith { shift: 5 }),
    ] {
        const BLOCKS: usize = 4_000;
        let secs = fastest(|| {
            let mut enc = EntropyEncoder::new(backend);
            for _ in 0..BLOCKS {
                enc.put_coeff_block(TransformSize::T8, black_box(&levels));
            }
            black_box(enc.finish());
        });
        out.push((name, secs * 1e9 / BLOCKS as f64));
    }

    // vcodec end to end on one clip: exact allocation counts of a
    // single-thread encode, then decode speed of what it produced.
    let video = SourceSpec::new(Resolution::new(160, 96), 30.0, 8, ContentClass::Natural, 0x5eed)
        .generate();
    let cfg = EncoderConfig::new(
        CodecFamily::Avc,
        Preset::Medium,
        RateControl::TwoPassBitrate { bps: 400_000 },
    );
    let (encoded, allocs, bytes) = alloc::counted(|| vcodec::encode(&video, &cfg));
    let macroblocks = (160 / 16 * 96 / 16 * video.len()) as f64;
    out.push(("vcodec.allocs_per_mb", allocs as f64 / macroblocks));
    out.push(("vcodec.alloc_bytes_per_mb", bytes as f64 / macroblocks));
    let decode_secs = fastest(|| {
        black_box(vcodec::decode(black_box(&encoded.bytes)).expect("own bitstream decodes"));
    });
    out.push(("vcodec.decode_mpix_per_s", video.total_pixels() as f64 / 1e6 / decode_secs));

    // vpack: the checksum every journal record and replay computes.
    let buf: Vec<u8> = (0..1 << 20).map(|i| (i * 31 % 251) as u8).collect();
    let crc_secs = fastest(|| {
        black_box(vpack::crc32(black_box(&buf)));
    });
    out.push(("vpack.crc32_mib_per_s", 1.0 / crc_secs));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_takes_the_minimum_batch() {
        let mut n = 0u32;
        let secs = fastest(|| {
            n += 1;
            if n == 3 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        });
        assert_eq!(n as usize, BATCHES);
        assert!(secs < 0.02, "the slow batch does not set the result");
    }
}
