//! Static microarchitectural model of the encoder's kernels.
//!
//! Each [`Kernel`] is characterized by the properties that
//! drive the paper's Figures 5–8: instruction-cache footprint (a hot inner
//! loop plus a larger cold region of setup/variant paths), dynamic
//! instruction cost per data sample, how much of that work is
//! vectorizable, and the widest useful SIMD lane count (bounded by block
//! geometry — the paper, Section 5.2: "the width of macroblocks being
//! smaller than the AVX2 vector length").
//!
//! The numbers are calibrated to x264's published profile shape: motion
//! estimation and transforms vectorize heavily; entropy coding and
//! decision logic are strictly sequential and control-dominated ("frame
//! reference search … averages 9% of the time … entropy encoding which
//! averages 10%").

use vcodec::Kernel;

/// Static per-kernel properties.
#[derive(Clone, Copy, Debug)]
pub struct KernelModel {
    /// Bytes of the always-executed hot loop body.
    pub hot_bytes: u64,
    /// Bytes of the cold region (setup, variant paths, unrolled copies).
    pub cold_bytes: u64,
    /// Dynamic instructions per data sample when running scalar code.
    pub scalar_instrs_per_sample: f64,
    /// Fraction of the kernel's work that is vectorizable.
    pub vector_fraction: f64,
    /// Maximum useful SIMD lanes (8-bit elements), bounded by block
    /// geometry.
    pub max_lanes: u32,
}

/// The model for one kernel.
pub fn kernel_model(k: Kernel) -> KernelModel {
    match k {
        Kernel::MotionFullPel => KernelModel {
            hot_bytes: 1_024,
            cold_bytes: 40_960,
            scalar_instrs_per_sample: 3.0,
            vector_fraction: 0.95,
            // AVX2 SAD batches two 16-wide rows per 256-bit op.
            max_lanes: 32,
        },
        Kernel::MotionSubPel => KernelModel {
            hot_bytes: 1_280,
            cold_bytes: 24_576,
            scalar_instrs_per_sample: 4.0,
            vector_fraction: 0.90,
            max_lanes: 16,
        },
        Kernel::MotionComp => KernelModel {
            hot_bytes: 768,
            cold_bytes: 16_384,
            scalar_instrs_per_sample: 2.5,
            vector_fraction: 0.90,
            max_lanes: 16,
        },
        Kernel::IntraPred => KernelModel {
            hot_bytes: 896,
            cold_bytes: 24_576,
            scalar_instrs_per_sample: 2.0,
            vector_fraction: 0.45,
            max_lanes: 8,
        },
        Kernel::Fdct => KernelModel {
            hot_bytes: 512,
            cold_bytes: 8_192,
            scalar_instrs_per_sample: 6.0,
            vector_fraction: 0.90,
            max_lanes: 8,
        },
        Kernel::Idct => KernelModel {
            hot_bytes: 512,
            cold_bytes: 8_192,
            scalar_instrs_per_sample: 6.0,
            vector_fraction: 0.90,
            max_lanes: 8,
        },
        Kernel::Quant => KernelModel {
            hot_bytes: 256,
            cold_bytes: 4_096,
            scalar_instrs_per_sample: 3.0,
            vector_fraction: 0.85,
            max_lanes: 32,
        },
        Kernel::Dequant => KernelModel {
            hot_bytes: 256,
            cold_bytes: 4_096,
            scalar_instrs_per_sample: 2.5,
            vector_fraction: 0.85,
            max_lanes: 32,
        },
        Kernel::Entropy => KernelModel {
            hot_bytes: 1_536,
            cold_bytes: 49_152,
            scalar_instrs_per_sample: 12.0,
            vector_fraction: 0.0,
            max_lanes: 1,
        },
        Kernel::Deblock => KernelModel {
            hot_bytes: 768,
            cold_bytes: 16_384,
            scalar_instrs_per_sample: 1.5,
            vector_fraction: 0.50,
            max_lanes: 8,
        },
        Kernel::ModeDecision => KernelModel {
            hot_bytes: 2_048,
            cold_bytes: 65_536,
            scalar_instrs_per_sample: 20.0,
            vector_fraction: 0.05,
            max_lanes: 1,
        },
        Kernel::FrameSetup => KernelModel {
            hot_bytes: 1_024,
            cold_bytes: 32_768,
            scalar_instrs_per_sample: 8.0,
            vector_fraction: 0.10,
            max_lanes: 1,
        },
    }
}

/// Base address of each kernel's code region in the simulated instruction
/// address space (regions are laid out contiguously with padding).
pub fn kernel_code_base(k: Kernel) -> u64 {
    const CODE_BASE: u64 = 0x40_0000;
    let mut addr = CODE_BASE;
    for other in Kernel::ALL {
        if other == k {
            return addr;
        }
        let m = kernel_model(other);
        addr += (m.hot_bytes + m.cold_bytes).next_multiple_of(4096);
    }
    unreachable!("kernel present in ALL");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_regions_do_not_overlap() {
        let mut regions: Vec<(u64, u64)> = Kernel::ALL
            .iter()
            .map(|&k| {
                let m = kernel_model(k);
                (kernel_code_base(k), m.hot_bytes + m.cold_bytes)
            })
            .collect();
        regions.sort_unstable();
        for pair in regions.windows(2) {
            assert!(pair[0].0 + pair[0].1 <= pair[1].0, "overlap: {pair:?}");
        }
    }

    #[test]
    fn entropy_and_rdo_are_scalar() {
        assert_eq!(kernel_model(Kernel::Entropy).vector_fraction, 0.0);
        assert!(kernel_model(Kernel::ModeDecision).vector_fraction < 0.1);
    }

    #[test]
    fn total_code_footprint_exceeds_l1i() {
        // The paper's icache-pressure mechanism requires the full encoder
        // to be larger than a 32 KiB L1I.
        let total: u64 = Kernel::ALL
            .iter()
            .map(|&k| {
                let m = kernel_model(k);
                m.hot_bytes + m.cold_bytes
            })
            .sum();
        assert!(total > 64 * 1024, "total footprint {total}");
    }

    #[test]
    fn simd_kernels_have_wide_lanes() {
        assert!(kernel_model(Kernel::MotionFullPel).max_lanes >= 16);
        assert!(kernel_model(Kernel::Fdct).max_lanes <= 16, "8x8 rows cap the DCT at 128-bit");
        assert_eq!(kernel_model(Kernel::Entropy).max_lanes, 1);
    }
}
