//! Every ISA rung renders the same frames.
//!
//! Frame synthesis is compiled once per `vframe::isa::Rung` and runs at
//! the widest this CPU supports, so `frame_golden.rs` pins only that
//! rung's output. This suite renders the same grid — every content class,
//! the three resolutions, both seeds, the frames either side of a scene
//! cut and both ends of the clip — at every rung the CPU supports and
//! checks each whole frame against the SSE2 baseline's, byte for byte.
//! A rung the CPU lacks is reported as skipped on stderr.

use vframe::{isa, Resolution};
use vsynth::{ContentClass, SourceSpec};

const RESOLUTIONS: [(u32, u32); 3] = [(64, 64), (86, 48), (384, 216)];
const SEEDS: [u64; 2] = [0x601d, 7];

#[test]
fn every_rung_renders_the_golden_grid_like_the_baseline() {
    let mut frames = 0;
    for class in ContentClass::ALL {
        let cut = class.default_complexity().cut_period.unwrap_or(60);
        let last = cut + 2;
        for (w, h) in RESOLUTIONS {
            for seed in SEEDS {
                let spec =
                    SourceSpec::new(Resolution::new(w, h), 30.0, last as usize + 1, class, seed);
                for t in [0, 1, cut - 1, cut, last] {
                    isa::same_at_every_rung("vsynth render", || spec.generate_frame(t));
                    frames += 1;
                }
            }
        }
    }
    assert_eq!(frames, 180);
}
