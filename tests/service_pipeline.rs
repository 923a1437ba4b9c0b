//! Service-level integration: the full Figure-3 pipeline across crates —
//! upload → ladder fan-out (parallel) → packaging → integrity-checked
//! serving — on debug-friendly clip sizes.

use vbench::engine::{Engine, RateMode, TranscodeRequest};
use vbench::farm::{transcode_batch, EngineJob};
use vbench::ladder::transcode_ladder;
use vbench::resilience::ResilienceConfig;
use vbench::suite::{Suite, SuiteOptions};
use vcodec::{CodecFamily, EncoderConfig, Preset, RateControl};

#[test]
fn ladder_fanout_rungs_are_decodable_and_ordered() {
    let suite = Suite::vbench(&SuiteOptions::tiny());
    let video = suite.by_name("funny").unwrap().generate();
    let rungs = transcode_ladder(&video, CodecFamily::Avc, Preset::Fast, 8, 4);
    assert!(rungs.len() >= 2, "a 1080p-class source covers multiple rungs");
    let mut last = u64::MAX;
    for r in &rungs {
        assert!(r.rung.resolution.pixels() < last);
        last = r.rung.resolution.pixels();
        let decoded = vcodec::decode(&r.output.bytes).expect("rung decodes");
        assert_eq!(decoded.resolution(), r.rung.resolution);
    }
}

#[test]
fn ladder_rungs_survive_packaging() {
    let suite = Suite::vbench(&SuiteOptions::tiny());
    let video = suite.by_name("bike").unwrap().generate();
    let rungs = transcode_ladder(&video, CodecFamily::Avc, Preset::Fast, 8, 2);
    for r in &rungs {
        let segments = vpack::segment_at_keyframes(&r.output.bytes).expect("segmentable");
        let whole = vpack::concatenate(&segments).expect("reassemblable");
        let a = vcodec::decode(&r.output.bytes).unwrap();
        let b = vcodec::decode(&whole).unwrap();
        for t in 0..a.len() {
            assert_eq!(a.frame(t), b.frame(t), "{} frame {t}", r.rung.name);
        }
    }
}

#[test]
fn parallel_batch_of_suite_videos_is_deterministic() {
    let suite = Suite::vbench(&SuiteOptions::tiny());
    let jobs: Vec<EngineJob> = ["desktop", "cricket", "cat"]
        .iter()
        .map(|name| {
            EngineJob::new(
                *name,
                suite.by_name(name).unwrap().generate(),
                TranscodeRequest::software(
                    CodecFamily::Avc,
                    Preset::Fast,
                    RateMode::ConstQuality { crf: 30.0 },
                ),
            )
        })
        .collect();
    let a =
        transcode_batch(&Engine, &jobs, 3, &ResilienceConfig::default()).expect("parallel batch");
    let b = transcode_batch(&Engine, &jobs, 1, &ResilienceConfig::default()).expect("serial batch");
    for (x, y) in a.results.iter().zip(&b.results) {
        let (xo, yo) = (x.success().expect("job succeeds"), y.success().expect("job succeeds"));
        assert_eq!(xo.bytes(), yo.bytes(), "{}", x.name);
    }
    assert!(a.aggregate_pps > 0.0);
}

#[test]
fn bframe_streams_pass_through_the_whole_pipeline() {
    let suite = Suite::vbench(&SuiteOptions::tiny());
    let video = suite.by_name("girl").unwrap().generate();
    let cfg = EncoderConfig::new(
        CodecFamily::Hevc,
        Preset::Medium,
        RateControl::ConstQuality { crf: 30.0 },
    )
    .with_gop(6)
    .with_bframes();
    let out = vcodec::encode(&video, &cfg);
    // Inspect, segment, reassemble, decode — all layers B-frame aware.
    let info = vcodec::probe_stream(&out.bytes).unwrap();
    assert_eq!(info.frames as usize, video.len());
    let index = vpack::index(&out.bytes).unwrap();
    assert!(index.iter().any(|e| e.display == 0 && e.intra), "stream starts with a keyframe");
    let segments = vpack::segment_at_keyframes(&out.bytes).unwrap();
    let whole = vpack::concatenate(&segments).unwrap();
    let decoded = vcodec::decode(&whole).unwrap();
    for t in 0..video.len() {
        assert_eq!(decoded.frame(t), out.recon.frame(t), "frame {t}");
    }
}

#[test]
fn fleet_model_agrees_with_measured_worker_speed() {
    // Wire the queueing model to a real measured encode speed: at the
    // sized fleet, simulated utilization must sit near the target.
    let suite = Suite::vbench(&SuiteOptions::tiny());
    let video = suite.by_name("desktop").unwrap().generate();
    let cfg =
        EncoderConfig::new(CodecFamily::Avc, Preset::Fast, RateControl::ConstQuality { crf: 30.0 });
    let out = vcodec::encode(&video, &cfg);
    let worker_pps = out.stats.pixels_per_second(video.total_pixels());
    let offered = worker_pps * 3.0; // needs ~3 busy workers
    let workers = vbench::fleet::fleet_size_for(offered, worker_pps, 0.75);
    let report = vbench::fleet::simulate_fleet(
        &vbench::fleet::FleetConfig { workers, worker_speed_pps: worker_pps },
        &vbench::fleet::UploadWorkload {
            arrivals_per_sec: offered / video.total_pixels() as f64,
            mean_pixels: video.total_pixels() as f64,
            sigma: 0.3,
        },
        2_000.0,
        5,
    );
    assert!(
        (report.utilization - 0.75).abs() < 0.15,
        "sized for 75%, simulated {}",
        report.utilization
    );
}
