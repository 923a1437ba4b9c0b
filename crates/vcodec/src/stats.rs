//! Encoder instrumentation: kernel work counters and the trace probe.
//!
//! The microarchitectural studies in the paper (Figures 5–8) require
//! observing *what the encoder actually did* — which kernels ran, how much
//! data they touched, and which way its decision branches went. The encoder
//! reports that through two mechanisms:
//!
//! * [`KernelCounters`] — aggregate per-kernel work counts, always
//!   collected (cheap), used for speed/efficiency reporting and the SIMD
//!   analysis;
//! * [`Probe`] — a streaming event sink receiving kernel entries, branch
//!   outcomes, and memory-region accesses as the encode proceeds; the
//!   `varch` crate implements it with cache and branch-predictor
//!   simulators. The default [`NoProbe`] compiles to nothing.

/// The encoder's computational kernels. Each maps to a code region with a
/// characteristic instruction mix (see `varch`'s kernel model): motion
/// search and transforms vectorize well, entropy coding and decision logic
/// are inherently scalar (Section 5.2 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Kernel {
    /// Full-pel motion search (SAD loops).
    MotionFullPel,
    /// Sub-pel refinement (interpolation + SAD/SATD).
    MotionSubPel,
    /// Motion compensation of the chosen vector.
    MotionComp,
    /// Intra prediction.
    IntraPred,
    /// Forward transform.
    Fdct,
    /// Inverse transform (reconstruction).
    Idct,
    /// Quantization.
    Quant,
    /// Dequantization.
    Dequant,
    /// Entropy coding (bitstream writing).
    Entropy,
    /// In-loop deblocking filter.
    Deblock,
    /// Mode decision / RDO logic.
    ModeDecision,
    /// Per-frame setup and rate control.
    FrameSetup,
}

impl Kernel {
    /// Every kernel, in a stable order (indexes [`KernelCounters`]).
    pub const ALL: [Kernel; 12] = [
        Kernel::MotionFullPel,
        Kernel::MotionSubPel,
        Kernel::MotionComp,
        Kernel::IntraPred,
        Kernel::Fdct,
        Kernel::Idct,
        Kernel::Quant,
        Kernel::Dequant,
        Kernel::Entropy,
        Kernel::Deblock,
        Kernel::ModeDecision,
        Kernel::FrameSetup,
    ];

    /// Stable index of this kernel in [`Kernel::ALL`].
    pub fn index(&self) -> usize {
        Kernel::ALL.iter().position(|k| k == self).expect("kernel listed in ALL")
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::MotionFullPel => "me_fullpel",
            Kernel::MotionSubPel => "me_subpel",
            Kernel::MotionComp => "mc",
            Kernel::IntraPred => "intra",
            Kernel::Fdct => "fdct",
            Kernel::Idct => "idct",
            Kernel::Quant => "quant",
            Kernel::Dequant => "dequant",
            Kernel::Entropy => "entropy",
            Kernel::Deblock => "deblock",
            Kernel::ModeDecision => "rdo",
            Kernel::FrameSetup => "setup",
        }
    }
}

/// Decision-branch sites the encoder exposes to the probe. Their bias (and
/// therefore predictability) depends on content complexity, which is what
/// drives the paper's branch-MPKI-vs-entropy trend (Figure 5).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BranchSite {
    /// "This superblock is coded intra" (P frames).
    ModeIsIntra,
    /// "This superblock is skipped".
    SkipTaken,
    /// "The split partition won the RD comparison".
    SplitTaken,
    /// "This search step improved the best cost".
    SearchAccept,
    /// "This coefficient block has residual data".
    CoeffCoded,
    /// "This quantized coefficient is nonzero".
    CoeffNonzero,
    /// "The deblock filter fired on this edge".
    DeblockFired,
}

impl BranchSite {
    /// Every site, in a stable order.
    pub const ALL: [BranchSite; 7] = [
        BranchSite::ModeIsIntra,
        BranchSite::SkipTaken,
        BranchSite::SplitTaken,
        BranchSite::SearchAccept,
        BranchSite::CoeffCoded,
        BranchSite::CoeffNonzero,
        BranchSite::DeblockFired,
    ];

    /// Stable index of this site.
    pub fn index(&self) -> usize {
        BranchSite::ALL.iter().position(|s| s == self).expect("site listed in ALL")
    }
}

/// Streaming sink for encoder events. All methods default to no-ops so
/// implementors override only what they need.
pub trait Probe {
    /// A kernel processed `samples` data elements.
    fn kernel(&mut self, kernel: Kernel, samples: u64) {
        let _ = (kernel, samples);
    }

    /// A decision branch at `site` resolved to `taken`.
    fn branch(&mut self, site: BranchSite, taken: bool) {
        let _ = (site, taken);
    }

    /// The encoder read a memory region `[addr, addr + bytes)`.
    fn mem_read(&mut self, addr: u64, bytes: u64) {
        let _ = (addr, bytes);
    }

    /// The encoder wrote a memory region `[addr, addr + bytes)`.
    fn mem_write(&mut self, addr: u64, bytes: u64) {
        let _ = (addr, bytes);
    }

    /// Whether this probe observes anything. The encoder skips the loops
    /// that synthesize per-row memory events and ratio-shaped branch
    /// streams when it does not; every event an active probe receives is
    /// unchanged.
    fn active(&self) -> bool {
        true
    }
}

/// The do-nothing probe used when no microarchitectural observation is
/// wanted.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoProbe;

impl Probe for NoProbe {
    fn active(&self) -> bool {
        false
    }
}

/// Aggregate per-kernel work counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KernelCounters {
    invocations: [u64; Kernel::ALL.len()],
    samples: [u64; Kernel::ALL.len()],
}

impl KernelCounters {
    /// Creates zeroed counters.
    pub fn new() -> KernelCounters {
        KernelCounters::default()
    }

    /// Records one invocation of `kernel` over `samples` data elements.
    pub fn record(&mut self, kernel: Kernel, samples: u64) {
        self.invocations[kernel.index()] += 1;
        self.samples[kernel.index()] += samples;
    }

    /// Invocation count for a kernel.
    pub fn invocations(&self, kernel: Kernel) -> u64 {
        self.invocations[kernel.index()]
    }

    /// Total data elements processed by a kernel.
    pub fn samples(&self, kernel: Kernel) -> u64 {
        self.samples[kernel.index()]
    }

    /// Total samples across all kernels (a machine-independent work
    /// measure).
    pub fn total_samples(&self) -> u64 {
        self.samples.iter().sum()
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &KernelCounters) {
        for i in 0..Kernel::ALL.len() {
            self.invocations[i] += other.invocations[i];
            self.samples[i] += other.samples[i];
        }
    }
}

/// Everything the encoder reports about one encode.
#[derive(Clone, Debug, Default)]
pub struct EncodeStats {
    /// Wall-clock seconds spent encoding (all passes).
    pub encode_seconds: f64,
    /// Bytes in the produced bitstream.
    pub bitstream_bytes: u64,
    /// Frames encoded.
    pub frames: u32,
    /// Superblocks coded as intra.
    pub sb_intra: u64,
    /// Superblocks coded as inter (including split).
    pub sb_inter: u64,
    /// Superblocks skipped.
    pub sb_skip: u64,
    /// Superblocks coded with split partitions.
    pub sb_split: u64,
    /// Average QP over all frames.
    pub avg_qp: f64,
    /// Per-kernel work counters.
    pub kernels: KernelCounters,
}

impl EncodeStats {
    /// Pixels per second of encoding throughput — the paper's speed metric
    /// (Section 2.3) — given the clip's total pixel count.
    ///
    /// # Panics
    ///
    /// Panics if no time was recorded.
    pub fn pixels_per_second(&self, total_pixels: u64) -> f64 {
        assert!(self.encode_seconds > 0.0, "encode time was not recorded");
        total_pixels as f64 / self.encode_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_indices_are_dense_and_stable() {
        for (i, k) in Kernel::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        for (i, s) in BranchSite::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn counters_accumulate_and_merge() {
        let mut a = KernelCounters::new();
        a.record(Kernel::Fdct, 64);
        a.record(Kernel::Fdct, 64);
        a.record(Kernel::Entropy, 10);
        assert_eq!(a.invocations(Kernel::Fdct), 2);
        assert_eq!(a.samples(Kernel::Fdct), 128);
        let mut b = KernelCounters::new();
        b.record(Kernel::Fdct, 8);
        b.merge(&a);
        assert_eq!(b.samples(Kernel::Fdct), 136);
        assert_eq!(b.total_samples(), 146);
    }

    #[test]
    fn noprobe_accepts_everything() {
        let mut p = NoProbe;
        p.kernel(Kernel::Quant, 100);
        p.branch(BranchSite::SkipTaken, true);
        p.mem_read(0x1000, 64);
        p.mem_write(0x2000, 64);
    }

    #[test]
    fn pixels_per_second() {
        let stats = EncodeStats { encode_seconds: 2.0, ..EncodeStats::default() };
        assert_eq!(stats.pixels_per_second(4_000_000), 2_000_000.0);
    }

    #[test]
    fn kernel_names_unique() {
        let mut names: Vec<&str> = Kernel::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Kernel::ALL.len());
    }
}
