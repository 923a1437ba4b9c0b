//! Bitstreams pinned across commits.
//!
//! The engine/stream/farm equivalence suites compare two paths of the
//! *same* build, so a kernel change that altered every bitstream would
//! pass them all. This suite pins, for a grid of encoder configurations,
//! the CRC-32 and length of the produced bytes and a digest of the
//! encoder's work counters, as constants captured before any kernel was
//! restructured. A change that claims "same bitstreams, faster" must pass
//! it unmodified; a change that means to alter the bitstream regenerates
//! the table from the failure output and says so.
//!
//! The clip is 72×44 — not a multiple of either superblock size — so
//! every edge-clamped path (block copy, motion compensation and search
//! past the picture boundary, clipped reconstruction writes) runs.

use vcodec::{
    BranchSite, CodecFamily, EncodeStats, EncoderConfig, Kernel, Preset, Probe, RateControl,
};
use vframe::{Resolution, Video};
use vsynth::{ContentClass, SourceSpec};

const CLASSES: [ContentClass; 2] = [ContentClass::ScreenCapture, ContentClass::Sports];
const PRESETS: [Preset; 3] = [Preset::UltraFast, Preset::Medium, Preset::VerySlow];
const RATES: [RateControl; 3] = [
    RateControl::ConstQuality { crf: 27.0 },
    RateControl::Bitrate { bps: 60_000 },
    RateControl::TwoPassBitrate { bps: 60_000 },
];

fn clip(class: ContentClass) -> Video {
    SourceSpec::new(Resolution::new(72, 44), 24.0, 5, class, 0x601d).generate()
}

/// CRC-32 over every deterministic field of the stats: per-kernel
/// invocations and samples in [`Kernel::ALL`] order, the superblock mode
/// counts, the frame count and the average QP's bit pattern.
fn stats_digest(s: &EncodeStats) -> u32 {
    let mut words: Vec<u64> = Vec::new();
    for k in Kernel::ALL {
        words.push(s.kernels.invocations(k));
        words.push(s.kernels.samples(k));
    }
    words.extend([s.sb_intra, s.sb_inter, s.sb_skip, s.sb_split, u64::from(s.frames)]);
    words.push(s.avg_qp.to_bits());
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    vpack::crc32(&bytes)
}

/// `(label, (bitstream crc, bitstream length, stats digest))` for every
/// grid point, in the order of [`GOLDEN`].
fn measure() -> Vec<(String, (u32, usize, u32))> {
    let mut rows = Vec::new();
    for class in CLASSES {
        let video = clip(class);
        for family in CodecFamily::ALL {
            for preset in PRESETS {
                for rate in RATES {
                    for bframes in [false, true] {
                        let mut cfg = EncoderConfig::new(family, preset, rate).with_gop(4);
                        if bframes {
                            cfg = cfg.with_bframes();
                        }
                        let out = vcodec::encode(&video, &cfg);
                        let label = format!("{class:?}/{family}/{preset}/{rate:?}/b={bframes}");
                        rows.push((
                            label,
                            (vpack::crc32(&out.bytes), out.bytes.len(), stats_digest(&out.stats)),
                        ));
                    }
                }
            }
        }
    }
    rows
}

#[test]
fn bitstreams_and_work_counters_match_the_pinned_table() {
    let rows = measure();
    let mismatches: Vec<String> = rows
        .iter()
        .zip(GOLDEN.iter())
        .filter(|((_, got), want)| got != *want)
        .map(|((label, got), want)| format!("{label}: got {got:?}, pinned {want:?}"))
        .collect();
    if rows.len() != GOLDEN.len() || !mismatches.is_empty() {
        let table: String = rows
            .iter()
            .map(|(label, (c, l, s))| format!("    ({c:#010x}, {l}, {s:#010x}), // {label}\n"))
            .collect();
        panic!(
            "{} of {} pinned rows differ ({} measured):\n{}\nmeasured table:\n{table}",
            mismatches.len(),
            GOLDEN.len(),
            rows.len(),
            mismatches.join("\n"),
        );
    }
}

#[test]
fn the_grid_reaches_every_superblock_mode() {
    // The table only pins what the grid exercises: make sure that
    // includes intra, inter, skip and split superblocks, and both
    // entropy backends.
    let mut seen = [0u64; 4];
    let mut backends = std::collections::BTreeSet::new();
    for class in CLASSES {
        let video = clip(class);
        for family in [CodecFamily::Avc, CodecFamily::Hevc] {
            for preset in [Preset::UltraFast, Preset::Medium] {
                let cfg = EncoderConfig::new(family, preset, RATES[0]).with_gop(4).with_bframes();
                backends.insert(format!("{:?}", cfg.entropy_backend()));
                let s = vcodec::encode(&video, &cfg).stats;
                for (slot, n) in
                    seen.iter_mut().zip([s.sb_intra, s.sb_inter, s.sb_skip, s.sb_split])
                {
                    *slot += n;
                }
            }
        }
    }
    assert!(seen.iter().all(|&n| n > 0), "intra/inter/skip/split = {seen:?}");
    assert!(backends.len() >= 2, "{backends:?}");
}

/// The decoder as the encoder's oracle over the same grid. The CRC table
/// above pins the encoder's bytes only; this pins that those bytes mean
/// what the encoder reconstructed, frame for frame in display order,
/// including the B-frame rows, where decode order differs from display
/// order and a reorder bug would hide behind a matching CRC.
#[test]
fn decoding_every_grid_bitstream_reproduces_the_encoder_reconstruction() {
    for class in CLASSES {
        let video = clip(class);
        for family in CodecFamily::ALL {
            for preset in PRESETS {
                for rate in RATES {
                    for bframes in [false, true] {
                        let mut cfg = EncoderConfig::new(family, preset, rate).with_gop(4);
                        if bframes {
                            cfg = cfg.with_bframes();
                        }
                        let label = format!("{class:?}/{family}/{preset}/{rate:?}/b={bframes}");
                        let out = vcodec::encode(&video, &cfg);
                        let decoded = vcodec::decode(&out.bytes)
                            .unwrap_or_else(|e| panic!("{label}: own bitstream rejected: {e}"));
                        assert_eq!(decoded.len(), out.recon.len(), "{label}: frame count");
                        for (i, (got, want)) in
                            decoded.frames().iter().zip(out.recon.frames()).enumerate()
                        {
                            assert!(got == want, "{label}: display frame {i} differs from recon");
                        }
                    }
                }
            }
        }
    }
}

/// Every event a probe can receive, appended as bytes in arrival order.
#[derive(Default)]
struct Recorder(Vec<u8>);

impl Recorder {
    fn push(&mut self, tag: u8, index: usize, value: u64) {
        self.0.push(tag);
        self.0.extend_from_slice(&(index as u64).to_le_bytes());
        self.0.extend_from_slice(&value.to_le_bytes());
    }
}

impl Probe for Recorder {
    fn kernel(&mut self, kernel: Kernel, samples: u64) {
        self.push(0, kernel.index(), samples);
    }

    fn branch(&mut self, site: BranchSite, taken: bool) {
        self.push(1, site.index(), u64::from(taken));
    }

    fn mem_read(&mut self, addr: u64, bytes: u64) {
        self.push(2, addr as usize, bytes);
    }

    fn mem_write(&mut self, addr: u64, bytes: u64) {
        self.push(3, addr as usize, bytes);
    }
}

/// An active probe sees the same event stream, event for event, as it did
/// before the encoder learned to skip synthetic events for `NoProbe`: one
/// Medium and one VerySlow grid point, CRC and length of the recording
/// captured at the parent of that change.
#[test]
fn an_active_probe_receives_the_pinned_event_stream() {
    let cases = [
        (
            ContentClass::Sports,
            EncoderConfig::new(CodecFamily::Avc, Preset::Medium, RATES[0])
                .with_gop(4)
                .with_bframes(),
            (0xd8cc_5d67, 258_757),
        ),
        (
            ContentClass::ScreenCapture,
            EncoderConfig::new(CodecFamily::Hevc, Preset::VerySlow, RATES[1]).with_gop(4),
            (0x248c_762b, 297_534),
        ),
    ];
    for (class, cfg, want) in cases {
        let mut rec = Recorder::default();
        vcodec::encode_with_probe(&clip(class), &cfg, &mut rec);
        let got = (vpack::crc32(&rec.0), rec.0.len());
        assert_eq!(
            got, want,
            "{class:?}/{}/{}: (crc, bytes) of the event stream",
            cfg.family, cfg.preset
        );
    }
}

/// Captured at the parent of the allocation-free kernel rewrite.
#[rustfmt::skip]
const GOLDEN: [(u32, usize, u32); 144] = [
    (0x5d31898e, 2373, 0x679b7d57), // ScreenCapture/avc/ultrafast/ConstQuality { crf: 27.0 }/b=false
    (0x0865357d, 2377, 0x10d2467e), // ScreenCapture/avc/ultrafast/ConstQuality { crf: 27.0 }/b=true
    (0x531edd0f, 4043, 0x8c5d7aeb), // ScreenCapture/avc/ultrafast/Bitrate { bps: 60000 }/b=false
    (0x7ee51d5c, 4030, 0x959bd2a9), // ScreenCapture/avc/ultrafast/Bitrate { bps: 60000 }/b=true
    (0xb30f8547, 1883, 0xe732ca63), // ScreenCapture/avc/ultrafast/TwoPassBitrate { bps: 60000 }/b=false
    (0xc8a0750e, 1893, 0xaa80efe4), // ScreenCapture/avc/ultrafast/TwoPassBitrate { bps: 60000 }/b=true
    (0xf750b757, 2068, 0xecab7343), // ScreenCapture/avc/medium/ConstQuality { crf: 27.0 }/b=false
    (0x91f30f24, 2074, 0xf61c6476), // ScreenCapture/avc/medium/ConstQuality { crf: 27.0 }/b=true
    (0xac0e6dcd, 3980, 0x3469f5b6), // ScreenCapture/avc/medium/Bitrate { bps: 60000 }/b=false
    (0xdc626d93, 3979, 0xcf5047b3), // ScreenCapture/avc/medium/Bitrate { bps: 60000 }/b=true
    (0x72ff72cb, 1675, 0x2bab13ac), // ScreenCapture/avc/medium/TwoPassBitrate { bps: 60000 }/b=false
    (0xe512fffe, 1690, 0xf331e824), // ScreenCapture/avc/medium/TwoPassBitrate { bps: 60000 }/b=true
    (0x8473696a, 2057, 0x2b2114ee), // ScreenCapture/avc/veryslow/ConstQuality { crf: 27.0 }/b=false
    (0x98e94c80, 2058, 0x33e5296f), // ScreenCapture/avc/veryslow/ConstQuality { crf: 27.0 }/b=true
    (0x307e9096, 3945, 0x713fd6f7), // ScreenCapture/avc/veryslow/Bitrate { bps: 60000 }/b=false
    (0xab4a8b3a, 3940, 0xd84d063a), // ScreenCapture/avc/veryslow/Bitrate { bps: 60000 }/b=true
    (0xb74b0580, 1679, 0x6067c316), // ScreenCapture/avc/veryslow/TwoPassBitrate { bps: 60000 }/b=false
    (0x9bab1c0c, 1689, 0x2703f29e), // ScreenCapture/avc/veryslow/TwoPassBitrate { bps: 60000 }/b=true
    (0x2d8b9307, 2296, 0xa4966a49), // ScreenCapture/hevc/ultrafast/ConstQuality { crf: 27.0 }/b=false
    (0x87a544b4, 2286, 0x4d5ca0c7), // ScreenCapture/hevc/ultrafast/ConstQuality { crf: 27.0 }/b=true
    (0x95d16860, 4317, 0xd4058df4), // ScreenCapture/hevc/ultrafast/Bitrate { bps: 60000 }/b=false
    (0x5cec5cd7, 4284, 0x49ba66d5), // ScreenCapture/hevc/ultrafast/Bitrate { bps: 60000 }/b=true
    (0x7172650a, 1933, 0x48c822da), // ScreenCapture/hevc/ultrafast/TwoPassBitrate { bps: 60000 }/b=false
    (0xca152421, 1921, 0xe4426334), // ScreenCapture/hevc/ultrafast/TwoPassBitrate { bps: 60000 }/b=true
    (0x7541a6f4, 2258, 0xdc3d1032), // ScreenCapture/hevc/medium/ConstQuality { crf: 27.0 }/b=false
    (0x03fabed9, 2249, 0x6c837b00), // ScreenCapture/hevc/medium/ConstQuality { crf: 27.0 }/b=true
    (0x59330d29, 4250, 0x0541c3f5), // ScreenCapture/hevc/medium/Bitrate { bps: 60000 }/b=false
    (0x4af65467, 4206, 0x3b9d0d78), // ScreenCapture/hevc/medium/Bitrate { bps: 60000 }/b=true
    (0x2a3579f0, 1895, 0x81ee937e), // ScreenCapture/hevc/medium/TwoPassBitrate { bps: 60000 }/b=false
    (0x4ddf8e1c, 1890, 0x74246dc1), // ScreenCapture/hevc/medium/TwoPassBitrate { bps: 60000 }/b=true
    (0xc5bbe813, 2336, 0x299cba5f), // ScreenCapture/hevc/veryslow/ConstQuality { crf: 27.0 }/b=false
    (0xef41007c, 2321, 0x93adc277), // ScreenCapture/hevc/veryslow/ConstQuality { crf: 27.0 }/b=true
    (0x67e06242, 4285, 0x1a35b25b), // ScreenCapture/hevc/veryslow/Bitrate { bps: 60000 }/b=false
    (0xebd4a875, 4277, 0xbc51b062), // ScreenCapture/hevc/veryslow/Bitrate { bps: 60000 }/b=true
    (0x99a7525a, 1935, 0xf8b468f5), // ScreenCapture/hevc/veryslow/TwoPassBitrate { bps: 60000 }/b=false
    (0x44e5a6d8, 1921, 0x595b809e), // ScreenCapture/hevc/veryslow/TwoPassBitrate { bps: 60000 }/b=true
    (0x2eb7b230, 2219, 0x825bff2c), // ScreenCapture/vp9/ultrafast/ConstQuality { crf: 27.0 }/b=false
    (0x537571e0, 2210, 0x37fa4ae2), // ScreenCapture/vp9/ultrafast/ConstQuality { crf: 27.0 }/b=true
    (0xcdd7feb0, 4095, 0xc5c90b03), // ScreenCapture/vp9/ultrafast/Bitrate { bps: 60000 }/b=false
    (0x13f59ee2, 4053, 0xf84ad7c7), // ScreenCapture/vp9/ultrafast/Bitrate { bps: 60000 }/b=true
    (0xd8e19de6, 1875, 0x97c4a391), // ScreenCapture/vp9/ultrafast/TwoPassBitrate { bps: 60000 }/b=false
    (0x9e7aa977, 1914, 0x25a66c3d), // ScreenCapture/vp9/ultrafast/TwoPassBitrate { bps: 60000 }/b=true
    (0x24c4a5ef, 2184, 0x35da797e), // ScreenCapture/vp9/medium/ConstQuality { crf: 27.0 }/b=false
    (0x293ea077, 2177, 0x44a9a8be), // ScreenCapture/vp9/medium/ConstQuality { crf: 27.0 }/b=true
    (0x26670bbf, 4016, 0x3fb4f8e6), // ScreenCapture/vp9/medium/Bitrate { bps: 60000 }/b=false
    (0x0c466e0b, 3972, 0x253bca8a), // ScreenCapture/vp9/medium/Bitrate { bps: 60000 }/b=true
    (0x9da07b14, 1892, 0x0860a0be), // ScreenCapture/vp9/medium/TwoPassBitrate { bps: 60000 }/b=false
    (0xece21680, 1875, 0x2f680541), // ScreenCapture/vp9/medium/TwoPassBitrate { bps: 60000 }/b=true
    (0xad5efa98, 2260, 0x55d20701), // ScreenCapture/vp9/veryslow/ConstQuality { crf: 27.0 }/b=false
    (0xd6eb5ac9, 2245, 0x43031778), // ScreenCapture/vp9/veryslow/ConstQuality { crf: 27.0 }/b=true
    (0xf5dfd125, 4081, 0x31fad557), // ScreenCapture/vp9/veryslow/Bitrate { bps: 60000 }/b=false
    (0x18ff236e, 4042, 0x3ef39407), // ScreenCapture/vp9/veryslow/Bitrate { bps: 60000 }/b=true
    (0xc0c914c6, 1879, 0x4bc28097), // ScreenCapture/vp9/veryslow/TwoPassBitrate { bps: 60000 }/b=false
    (0x1597fb97, 1914, 0x33972883), // ScreenCapture/vp9/veryslow/TwoPassBitrate { bps: 60000 }/b=true
    (0xdbf50148, 2177, 0x4eccad52), // ScreenCapture/av1/ultrafast/ConstQuality { crf: 27.0 }/b=false
    (0x9ba30ebb, 2167, 0x2cfdb200), // ScreenCapture/av1/ultrafast/ConstQuality { crf: 27.0 }/b=true
    (0x17baa8ff, 4000, 0xa59cf040), // ScreenCapture/av1/ultrafast/Bitrate { bps: 60000 }/b=false
    (0x8bb8edaa, 4237, 0x0205ece9), // ScreenCapture/av1/ultrafast/Bitrate { bps: 60000 }/b=true
    (0x54ac1ed8, 1900, 0xfeaea578), // ScreenCapture/av1/ultrafast/TwoPassBitrate { bps: 60000 }/b=false
    (0x93425e99, 1887, 0x287f1af4), // ScreenCapture/av1/ultrafast/TwoPassBitrate { bps: 60000 }/b=true
    (0xac183b3a, 2145, 0x917023b2), // ScreenCapture/av1/medium/ConstQuality { crf: 27.0 }/b=false
    (0x37b8d362, 2137, 0xf0c196d3), // ScreenCapture/av1/medium/ConstQuality { crf: 27.0 }/b=true
    (0x0d19f254, 3918, 0x789f8158), // ScreenCapture/av1/medium/Bitrate { bps: 60000 }/b=false
    (0xc234556c, 4174, 0xb4585477), // ScreenCapture/av1/medium/Bitrate { bps: 60000 }/b=true
    (0x5da55106, 1885, 0x91d1ad7b), // ScreenCapture/av1/medium/TwoPassBitrate { bps: 60000 }/b=false
    (0x7b3d8823, 1877, 0xc66b3ead), // ScreenCapture/av1/medium/TwoPassBitrate { bps: 60000 }/b=true
    (0x97871021, 2217, 0x550dba25), // ScreenCapture/av1/veryslow/ConstQuality { crf: 27.0 }/b=false
    (0x0b8e31f4, 2203, 0x821110ae), // ScreenCapture/av1/veryslow/ConstQuality { crf: 27.0 }/b=true
    (0xf6651b5c, 4241, 0xa62e2765), // ScreenCapture/av1/veryslow/Bitrate { bps: 60000 }/b=false
    (0xc7d7a2e4, 4204, 0xcb378cca), // ScreenCapture/av1/veryslow/Bitrate { bps: 60000 }/b=true
    (0xc4208fff, 1911, 0x7844f060), // ScreenCapture/av1/veryslow/TwoPassBitrate { bps: 60000 }/b=false
    (0xca5a0981, 1904, 0x40e62893), // ScreenCapture/av1/veryslow/TwoPassBitrate { bps: 60000 }/b=true
    (0x4d810da6, 8181, 0x169ff418), // Sports/avc/ultrafast/ConstQuality { crf: 27.0 }/b=false
    (0x273f3565, 7925, 0x30d4cee8), // Sports/avc/ultrafast/ConstQuality { crf: 27.0 }/b=true
    (0x0a2e2641, 14673, 0xe16bf64f), // Sports/avc/ultrafast/Bitrate { bps: 60000 }/b=false
    (0xe4015a40, 14505, 0xe9756072), // Sports/avc/ultrafast/Bitrate { bps: 60000 }/b=true
    (0x50256e7b, 1392, 0xf7003310), // Sports/avc/ultrafast/TwoPassBitrate { bps: 60000 }/b=false
    (0xa80281f3, 1361, 0xe62e5b35), // Sports/avc/ultrafast/TwoPassBitrate { bps: 60000 }/b=true
    (0xb40688c3, 6488, 0x01f11b94), // Sports/avc/medium/ConstQuality { crf: 27.0 }/b=false
    (0x20524f0d, 6318, 0x1be9bc42), // Sports/avc/medium/ConstQuality { crf: 27.0 }/b=true
    (0xbe2a76dd, 11531, 0x2556db99), // Sports/avc/medium/Bitrate { bps: 60000 }/b=false
    (0x2e271b36, 11263, 0xf821118b), // Sports/avc/medium/Bitrate { bps: 60000 }/b=true
    (0x3e3875e8, 1350, 0x61d8ff51), // Sports/avc/medium/TwoPassBitrate { bps: 60000 }/b=false
    (0xb3ae9cf8, 1379, 0xbd57341d), // Sports/avc/medium/TwoPassBitrate { bps: 60000 }/b=true
    (0xdb393fe6, 6506, 0xb1b4adc3), // Sports/avc/veryslow/ConstQuality { crf: 27.0 }/b=false
    (0xd1019bad, 6323, 0x6ed75214), // Sports/avc/veryslow/ConstQuality { crf: 27.0 }/b=true
    (0x32bf08c1, 11489, 0x4dbe3293), // Sports/avc/veryslow/Bitrate { bps: 60000 }/b=false
    (0xf609fc03, 11246, 0xd8847575), // Sports/avc/veryslow/Bitrate { bps: 60000 }/b=true
    (0x17461ed1, 1370, 0x6dd4ad42), // Sports/avc/veryslow/TwoPassBitrate { bps: 60000 }/b=false
    (0x9bbcb9c2, 1378, 0xf9418bf7), // Sports/avc/veryslow/TwoPassBitrate { bps: 60000 }/b=true
    (0x321b91c0, 7244, 0x897bd0d2), // Sports/hevc/ultrafast/ConstQuality { crf: 27.0 }/b=false
    (0xaa578259, 7135, 0x375633b9), // Sports/hevc/ultrafast/ConstQuality { crf: 27.0 }/b=true
    (0xc9f0740e, 13606, 0x7dadf1e7), // Sports/hevc/ultrafast/Bitrate { bps: 60000 }/b=false
    (0xf99720c0, 13496, 0xcb2cde43), // Sports/hevc/ultrafast/Bitrate { bps: 60000 }/b=true
    (0x1ff3b688, 1482, 0xde316fdd), // Sports/hevc/ultrafast/TwoPassBitrate { bps: 60000 }/b=false
    (0x42725063, 1450, 0x803e4e33), // Sports/hevc/ultrafast/TwoPassBitrate { bps: 60000 }/b=true
    (0x95bd2475, 7242, 0x881dec19), // Sports/hevc/medium/ConstQuality { crf: 27.0 }/b=false
    (0xd9489321, 6903, 0xa321164b), // Sports/hevc/medium/ConstQuality { crf: 27.0 }/b=true
    (0x94aca315, 13479, 0x3ff37d80), // Sports/hevc/medium/Bitrate { bps: 60000 }/b=false
    (0x75a49087, 13251, 0x254587f5), // Sports/hevc/medium/Bitrate { bps: 60000 }/b=true
    (0x1fa32c52, 1463, 0x0f770707), // Sports/hevc/medium/TwoPassBitrate { bps: 60000 }/b=false
    (0x730cff69, 1425, 0xe596ca32), // Sports/hevc/medium/TwoPassBitrate { bps: 60000 }/b=true
    (0x9fcb7f0d, 7081, 0xf55ebbf5), // Sports/hevc/veryslow/ConstQuality { crf: 27.0 }/b=false
    (0x4f09cac8, 6872, 0x2101bb49), // Sports/hevc/veryslow/ConstQuality { crf: 27.0 }/b=true
    (0x05dd1876, 13503, 0x07e52baa), // Sports/hevc/veryslow/Bitrate { bps: 60000 }/b=false
    (0xd0b7c605, 13110, 0x874c00a3), // Sports/hevc/veryslow/Bitrate { bps: 60000 }/b=true
    (0xae497c4a, 1478, 0xf2624e60), // Sports/hevc/veryslow/TwoPassBitrate { bps: 60000 }/b=false
    (0x977fc94e, 1386, 0x51ed96cd), // Sports/hevc/veryslow/TwoPassBitrate { bps: 60000 }/b=true
    (0xbf159633, 7161, 0x2128b4ef), // Sports/vp9/ultrafast/ConstQuality { crf: 27.0 }/b=false
    (0x0a627241, 7059, 0xf088a72b), // Sports/vp9/ultrafast/ConstQuality { crf: 27.0 }/b=true
    (0x179635da, 13353, 0xab9e8d06), // Sports/vp9/ultrafast/Bitrate { bps: 60000 }/b=false
    (0x38d5ceab, 13240, 0x5cdff378), // Sports/vp9/ultrafast/Bitrate { bps: 60000 }/b=true
    (0x04884477, 1441, 0xa061e148), // Sports/vp9/ultrafast/TwoPassBitrate { bps: 60000 }/b=false
    (0x6fcc645e, 1433, 0xfcee0b52), // Sports/vp9/ultrafast/TwoPassBitrate { bps: 60000 }/b=true
    (0xe3aec5f9, 7090, 0x2128a967), // Sports/vp9/medium/ConstQuality { crf: 27.0 }/b=false
    (0xba2049b1, 6868, 0xe32c9f39), // Sports/vp9/medium/ConstQuality { crf: 27.0 }/b=true
    (0xdcd7be98, 13225, 0x61b787fa), // Sports/vp9/medium/Bitrate { bps: 60000 }/b=false
    (0xa3503152, 13018, 0x04eebc4c), // Sports/vp9/medium/Bitrate { bps: 60000 }/b=true
    (0x06d9e3ca, 1434, 0xf1f14aaf), // Sports/vp9/medium/TwoPassBitrate { bps: 60000 }/b=false
    (0x11098aa0, 1401, 0x4f7eec9c), // Sports/vp9/medium/TwoPassBitrate { bps: 60000 }/b=true
    (0x0d3783a1, 6998, 0x460385d9), // Sports/vp9/veryslow/ConstQuality { crf: 27.0 }/b=false
    (0x4b8bdf8f, 6796, 0x9536264c), // Sports/vp9/veryslow/ConstQuality { crf: 27.0 }/b=true
    (0x4583f01b, 13262, 0xfa56933f), // Sports/vp9/veryslow/Bitrate { bps: 60000 }/b=false
    (0xfc01de07, 12847, 0xc473a370), // Sports/vp9/veryslow/Bitrate { bps: 60000 }/b=true
    (0x53d27601, 1476, 0x89b9aa17), // Sports/vp9/veryslow/TwoPassBitrate { bps: 60000 }/b=false
    (0x53d52f99, 1402, 0x97cd4b82), // Sports/vp9/veryslow/TwoPassBitrate { bps: 60000 }/b=true
    (0x523dd966, 7221, 0x75dfe078), // Sports/av1/ultrafast/ConstQuality { crf: 27.0 }/b=false
    (0x96eee8bc, 7119, 0xd7bae424), // Sports/av1/ultrafast/ConstQuality { crf: 27.0 }/b=true
    (0x4705ea56, 13432, 0x596fe32f), // Sports/av1/ultrafast/Bitrate { bps: 60000 }/b=false
    (0x1369abf4, 13318, 0xfd292e0b), // Sports/av1/ultrafast/Bitrate { bps: 60000 }/b=true
    (0xacaec532, 1413, 0xc7e3e440), // Sports/av1/ultrafast/TwoPassBitrate { bps: 60000 }/b=false
    (0x9f7208cb, 1393, 0x791e84b3), // Sports/av1/ultrafast/TwoPassBitrate { bps: 60000 }/b=true
    (0x44d0df52, 7087, 0xda2ddc9b), // Sports/av1/medium/ConstQuality { crf: 27.0 }/b=false
    (0x503718ce, 6872, 0x774a4c14), // Sports/av1/medium/ConstQuality { crf: 27.0 }/b=true
    (0xbf05795d, 13312, 0x7d048328), // Sports/av1/medium/Bitrate { bps: 60000 }/b=false
    (0x6ba72fc7, 13070, 0x6f46d903), // Sports/av1/medium/Bitrate { bps: 60000 }/b=true
    (0xddcce333, 1436, 0x0da12785), // Sports/av1/medium/TwoPassBitrate { bps: 60000 }/b=false
    (0x8b3b84f8, 1377, 0xbf2284e1), // Sports/av1/medium/TwoPassBitrate { bps: 60000 }/b=true
    (0x77fadbea, 7085, 0xebf60eff), // Sports/av1/veryslow/ConstQuality { crf: 27.0 }/b=false
    (0x110a0bbf, 6875, 0x5069c4fd), // Sports/av1/veryslow/ConstQuality { crf: 27.0 }/b=true
    (0xa9c70c40, 13325, 0xcbaac207), // Sports/av1/veryslow/Bitrate { bps: 60000 }/b=false
    (0x23b36df6, 12921, 0xaca1a901), // Sports/av1/veryslow/Bitrate { bps: 60000 }/b=true
    (0xcc18facd, 1460, 0xb906ee3e), // Sports/av1/veryslow/TwoPassBitrate { bps: 60000 }/b=false
    (0x542177a6, 1373, 0x312ab62a), // Sports/av1/veryslow/TwoPassBitrate { bps: 60000 }/b=true
];
