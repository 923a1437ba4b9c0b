//! Whole frames pinned across commits.
//!
//! `tests/bitstream_golden.rs` pins generator output only through a lossy
//! encode, which can hide a flipped pixel. This suite pins the CRC-32 of
//! the raw Y, U and V planes for every content class at three resolutions
//! (a square one, one whose chroma width is odd, and the benchmark's
//! 384×216), at the frames either side of a scene cut and at both ends of
//! the clip, for two seeds. A change that claims "same frames, faster"
//! must pass it unmodified; a change that means to move pixels regenerates
//! the table from the failure output and says so.

use vframe::Resolution;
use vsynth::{ContentClass, SourceSpec};

const RESOLUTIONS: [(u32, u32); 3] = [(64, 64), (86, 48), (384, 216)];
const SEEDS: [u64; 2] = [0x601d, 7];

/// `(label, crc)` for every grid point, in the order of [`GOLDEN`].
fn measure() -> Vec<(String, u32)> {
    let mut rows = Vec::new();
    for class in ContentClass::ALL {
        // `ScreenCapture` never cuts; 60 stands in so it is sampled at the
        // same depth into the clip as the classes that do.
        let cut = class.default_complexity().cut_period.unwrap_or(60);
        let last = cut + 2;
        for (w, h) in RESOLUTIONS {
            for seed in SEEDS {
                let spec =
                    SourceSpec::new(Resolution::new(w, h), 30.0, last as usize + 1, class, seed);
                for t in [0, 1, cut - 1, cut, last] {
                    let f = spec.generate_frame(t);
                    let bytes = [f.y().data(), f.u().data(), f.v().data()].concat();
                    rows.push((
                        format!("{class:?}/{w}x{h}/seed={seed}/t={t}"),
                        vpack::crc32(&bytes),
                    ));
                }
            }
        }
    }
    rows
}

#[test]
fn frames_match_the_pinned_table() {
    let rows = measure();
    let mismatches: Vec<String> = rows
        .iter()
        .zip(GOLDEN.iter())
        .filter(|((_, got), want)| got != *want)
        .map(|((label, got), want)| format!("{label}: got {got:#010x}, pinned {want:#010x}"))
        .collect();
    if rows.len() != GOLDEN.len() || !mismatches.is_empty() {
        let table: String =
            rows.iter().map(|(label, crc)| format!("    {crc:#010x}, // {label}\n")).collect();
        panic!(
            "{} of {} pinned frames differ ({} measured):\n{}\nmeasured table:\n{table}",
            mismatches.len(),
            GOLDEN.len(),
            rows.len(),
            mismatches.join("\n"),
        );
    }
}

/// Captured at d281002, the parent of the row-coherent noise evaluator,
/// before any edit to `vsynth`.
#[rustfmt::skip]
const GOLDEN: [u32; 180] = [
    0xd65912e4, // Slideshow/64x64/seed=24605/t=0
    0xd65912e4, // Slideshow/64x64/seed=24605/t=1
    0xd65912e4, // Slideshow/64x64/seed=24605/t=89
    0x3339922d, // Slideshow/64x64/seed=24605/t=90
    0x3339922d, // Slideshow/64x64/seed=24605/t=92
    0xca30f120, // Slideshow/64x64/seed=7/t=0
    0xca30f120, // Slideshow/64x64/seed=7/t=1
    0xca30f120, // Slideshow/64x64/seed=7/t=89
    0x021fbcb4, // Slideshow/64x64/seed=7/t=90
    0x021fbcb4, // Slideshow/64x64/seed=7/t=92
    0x6ea06fd0, // Slideshow/86x48/seed=24605/t=0
    0x6ea06fd0, // Slideshow/86x48/seed=24605/t=1
    0x6ea06fd0, // Slideshow/86x48/seed=24605/t=89
    0xd14cbebe, // Slideshow/86x48/seed=24605/t=90
    0xd14cbebe, // Slideshow/86x48/seed=24605/t=92
    0x7f7588fe, // Slideshow/86x48/seed=7/t=0
    0x7f7588fe, // Slideshow/86x48/seed=7/t=1
    0x7f7588fe, // Slideshow/86x48/seed=7/t=89
    0xd6d326e8, // Slideshow/86x48/seed=7/t=90
    0xd6d326e8, // Slideshow/86x48/seed=7/t=92
    0x31d4d9da, // Slideshow/384x216/seed=24605/t=0
    0x31d4d9da, // Slideshow/384x216/seed=24605/t=1
    0x31d4d9da, // Slideshow/384x216/seed=24605/t=89
    0xb8226317, // Slideshow/384x216/seed=24605/t=90
    0xb8226317, // Slideshow/384x216/seed=24605/t=92
    0x0b0e174d, // Slideshow/384x216/seed=7/t=0
    0x0b0e174d, // Slideshow/384x216/seed=7/t=1
    0x0b0e174d, // Slideshow/384x216/seed=7/t=89
    0xd7cf3839, // Slideshow/384x216/seed=7/t=90
    0xd7cf3839, // Slideshow/384x216/seed=7/t=92
    0xf6c4b0c2, // ScreenCapture/64x64/seed=24605/t=0
    0xfd18ef9c, // ScreenCapture/64x64/seed=24605/t=1
    0x4174b9fd, // ScreenCapture/64x64/seed=24605/t=59
    0x64eb5939, // ScreenCapture/64x64/seed=24605/t=60
    0xca62dd8b, // ScreenCapture/64x64/seed=24605/t=62
    0xad0d67b5, // ScreenCapture/64x64/seed=7/t=0
    0x57acf333, // ScreenCapture/64x64/seed=7/t=1
    0xbe6678fc, // ScreenCapture/64x64/seed=7/t=59
    0xbabcca81, // ScreenCapture/64x64/seed=7/t=60
    0x3ac9cb80, // ScreenCapture/64x64/seed=7/t=62
    0x7a718c56, // ScreenCapture/86x48/seed=24605/t=0
    0x1cbce5e3, // ScreenCapture/86x48/seed=24605/t=1
    0x0f444222, // ScreenCapture/86x48/seed=24605/t=59
    0x339cbd8c, // ScreenCapture/86x48/seed=24605/t=60
    0x061d0999, // ScreenCapture/86x48/seed=24605/t=62
    0x38092668, // ScreenCapture/86x48/seed=7/t=0
    0x44cef447, // ScreenCapture/86x48/seed=7/t=1
    0x0333be26, // ScreenCapture/86x48/seed=7/t=59
    0x7b38db80, // ScreenCapture/86x48/seed=7/t=60
    0x2b96a7d7, // ScreenCapture/86x48/seed=7/t=62
    0x1384e6e7, // ScreenCapture/384x216/seed=24605/t=0
    0x34f07223, // ScreenCapture/384x216/seed=24605/t=1
    0x845096cb, // ScreenCapture/384x216/seed=24605/t=59
    0xcf4625c8, // ScreenCapture/384x216/seed=24605/t=60
    0x664bc7a6, // ScreenCapture/384x216/seed=24605/t=62
    0x35ed405b, // ScreenCapture/384x216/seed=7/t=0
    0x44bcf278, // ScreenCapture/384x216/seed=7/t=1
    0xfbb123cb, // ScreenCapture/384x216/seed=7/t=59
    0x71b6178e, // ScreenCapture/384x216/seed=7/t=60
    0xe73c2e42, // ScreenCapture/384x216/seed=7/t=62
    0x2d4d2e4e, // Animation/64x64/seed=24605/t=0
    0x1d4ec680, // Animation/64x64/seed=24605/t=1
    0x053e60f8, // Animation/64x64/seed=24605/t=74
    0x4799cd73, // Animation/64x64/seed=24605/t=75
    0xfbaaca7d, // Animation/64x64/seed=24605/t=77
    0x91ba8774, // Animation/64x64/seed=7/t=0
    0x503f8e09, // Animation/64x64/seed=7/t=1
    0xdb0862bd, // Animation/64x64/seed=7/t=74
    0xe25f1a5c, // Animation/64x64/seed=7/t=75
    0x43b8cc52, // Animation/64x64/seed=7/t=77
    0xcf8e5586, // Animation/86x48/seed=24605/t=0
    0xab3b69ad, // Animation/86x48/seed=24605/t=1
    0x32f14f3d, // Animation/86x48/seed=24605/t=74
    0x4c6062c4, // Animation/86x48/seed=24605/t=75
    0x4240653c, // Animation/86x48/seed=24605/t=77
    0x22de8917, // Animation/86x48/seed=7/t=0
    0x484fceb4, // Animation/86x48/seed=7/t=1
    0x9d5b3ef6, // Animation/86x48/seed=7/t=74
    0x38bdb53c, // Animation/86x48/seed=7/t=75
    0x19668057, // Animation/86x48/seed=7/t=77
    0x94cf0c61, // Animation/384x216/seed=24605/t=0
    0x3defe593, // Animation/384x216/seed=24605/t=1
    0xd6087ee4, // Animation/384x216/seed=24605/t=74
    0x598d35ba, // Animation/384x216/seed=24605/t=75
    0xb6f9375a, // Animation/384x216/seed=24605/t=77
    0xc3f0d86d, // Animation/384x216/seed=7/t=0
    0x6e0de10b, // Animation/384x216/seed=7/t=1
    0x1dee5971, // Animation/384x216/seed=7/t=74
    0xf1723d9c, // Animation/384x216/seed=7/t=75
    0xef966be1, // Animation/384x216/seed=7/t=77
    0x33f5e7da, // Natural/64x64/seed=24605/t=0
    0xb78d7dbf, // Natural/64x64/seed=24605/t=1
    0x03b6bdf1, // Natural/64x64/seed=24605/t=59
    0xae7e3940, // Natural/64x64/seed=24605/t=60
    0x642a33f5, // Natural/64x64/seed=24605/t=62
    0x3f367284, // Natural/64x64/seed=7/t=0
    0x586c2b55, // Natural/64x64/seed=7/t=1
    0x840889c2, // Natural/64x64/seed=7/t=59
    0x22cf8020, // Natural/64x64/seed=7/t=60
    0x0fba904e, // Natural/64x64/seed=7/t=62
    0x58b7caee, // Natural/86x48/seed=24605/t=0
    0x8d3f1b0e, // Natural/86x48/seed=24605/t=1
    0x02c45921, // Natural/86x48/seed=24605/t=59
    0xd64dd718, // Natural/86x48/seed=24605/t=60
    0xc14f65ec, // Natural/86x48/seed=24605/t=62
    0x32c05043, // Natural/86x48/seed=7/t=0
    0x19b5eeaa, // Natural/86x48/seed=7/t=1
    0xa2d006a0, // Natural/86x48/seed=7/t=59
    0x122da3b8, // Natural/86x48/seed=7/t=60
    0x48dc6413, // Natural/86x48/seed=7/t=62
    0x6cec7baf, // Natural/384x216/seed=24605/t=0
    0x87aa8efc, // Natural/384x216/seed=24605/t=1
    0x912079a3, // Natural/384x216/seed=24605/t=59
    0x0cc5a30e, // Natural/384x216/seed=24605/t=60
    0xdfcdd8d8, // Natural/384x216/seed=24605/t=62
    0x125e40f8, // Natural/384x216/seed=7/t=0
    0xe8e51ef8, // Natural/384x216/seed=7/t=1
    0x37a4eb34, // Natural/384x216/seed=7/t=59
    0x52b5984f, // Natural/384x216/seed=7/t=60
    0x7d5108d2, // Natural/384x216/seed=7/t=62
    0xa817f3c8, // Gaming/64x64/seed=24605/t=0
    0x6a42457b, // Gaming/64x64/seed=24605/t=1
    0x4af2ac36, // Gaming/64x64/seed=24605/t=49
    0x5e517007, // Gaming/64x64/seed=24605/t=50
    0xf2b09585, // Gaming/64x64/seed=24605/t=52
    0xfaae9d2f, // Gaming/64x64/seed=7/t=0
    0x1d2ecdea, // Gaming/64x64/seed=7/t=1
    0x05cacbc3, // Gaming/64x64/seed=7/t=49
    0xd54fee80, // Gaming/64x64/seed=7/t=50
    0x7d647a08, // Gaming/64x64/seed=7/t=52
    0x26ddc59c, // Gaming/86x48/seed=24605/t=0
    0xf8dc30b3, // Gaming/86x48/seed=24605/t=1
    0x4a047376, // Gaming/86x48/seed=24605/t=49
    0x7318a726, // Gaming/86x48/seed=24605/t=50
    0x9e9d905e, // Gaming/86x48/seed=24605/t=52
    0x2659eac4, // Gaming/86x48/seed=7/t=0
    0x061feeb7, // Gaming/86x48/seed=7/t=1
    0x29e2eabb, // Gaming/86x48/seed=7/t=49
    0x5516dd4e, // Gaming/86x48/seed=7/t=50
    0x2a5ed844, // Gaming/86x48/seed=7/t=52
    0x39b78105, // Gaming/384x216/seed=24605/t=0
    0x53476bb3, // Gaming/384x216/seed=24605/t=1
    0x8df17b3b, // Gaming/384x216/seed=24605/t=49
    0xe85e53b1, // Gaming/384x216/seed=24605/t=50
    0x62866409, // Gaming/384x216/seed=24605/t=52
    0x31e0d50b, // Gaming/384x216/seed=7/t=0
    0xc2c95f94, // Gaming/384x216/seed=7/t=1
    0x2c20a0fe, // Gaming/384x216/seed=7/t=49
    0xaedfa36f, // Gaming/384x216/seed=7/t=50
    0xb543d9df, // Gaming/384x216/seed=7/t=52
    0xa08853d0, // Sports/64x64/seed=24605/t=0
    0x89ec8379, // Sports/64x64/seed=24605/t=1
    0xe363ee96, // Sports/64x64/seed=24605/t=29
    0xf7314cd2, // Sports/64x64/seed=24605/t=30
    0x5580fee6, // Sports/64x64/seed=24605/t=32
    0x5d783551, // Sports/64x64/seed=7/t=0
    0x1b49ccd4, // Sports/64x64/seed=7/t=1
    0xd3d0b8e1, // Sports/64x64/seed=7/t=29
    0x6b9ad826, // Sports/64x64/seed=7/t=30
    0xee099dbc, // Sports/64x64/seed=7/t=32
    0x96bc8d80, // Sports/86x48/seed=24605/t=0
    0x00ffbb8f, // Sports/86x48/seed=24605/t=1
    0x33d41137, // Sports/86x48/seed=24605/t=29
    0xd8d61f66, // Sports/86x48/seed=24605/t=30
    0x5749fb22, // Sports/86x48/seed=24605/t=32
    0x4efcd097, // Sports/86x48/seed=7/t=0
    0x014c66e9, // Sports/86x48/seed=7/t=1
    0x4450195b, // Sports/86x48/seed=7/t=29
    0xe2dfb7b5, // Sports/86x48/seed=7/t=30
    0x008d45c4, // Sports/86x48/seed=7/t=32
    0x47b05a88, // Sports/384x216/seed=24605/t=0
    0xb1d56620, // Sports/384x216/seed=24605/t=1
    0x27257e5f, // Sports/384x216/seed=24605/t=29
    0x6fb8f93b, // Sports/384x216/seed=24605/t=30
    0x6b41e744, // Sports/384x216/seed=24605/t=32
    0x0ee4c97d, // Sports/384x216/seed=7/t=0
    0xc41da74a, // Sports/384x216/seed=7/t=1
    0xc27113ef, // Sports/384x216/seed=7/t=29
    0x302b30c5, // Sports/384x216/seed=7/t=30
    0x12bc9ca0, // Sports/384x216/seed=7/t=32
];
