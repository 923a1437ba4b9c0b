//! The farm's contract after the engine refactor: fanning a batch out
//! over any number of workers changes wall-clock time only. Results come
//! back in job order, and every deterministic field — bitstream bytes,
//! bitrate, quality, chosen operating point — is bit-identical between a
//! serial run and a maximally parallel one, with software and hardware
//! jobs mixed in one batch.

use vbench::engine::{Engine, RateMode, TranscodeRequest};
use vbench::farm::{transcode_batch, EngineJob};
use vbench::resilience::ResilienceConfig;
use vcodec::{CodecFamily, EncoderConfig, Preset, RateControl};
use vframe::color::{frame_from_fn, Yuv};
use vframe::{Resolution, Video};
use vhw::HwVendor;

fn source(seed: u32, frames: usize) -> Video {
    let res = Resolution::new(80, 48);
    let fs = (0..frames)
        .map(|t| {
            frame_from_fn(res, |x, y| {
                Yuv::new(((x * (2 + seed) + y * 3 + 5 * t as u32) % 256) as u8, 128, 128)
            })
        })
        .collect();
    Video::new(fs, 30.0)
}

/// A mixed batch covering both backends and the interesting rate modes.
fn mixed_jobs() -> Vec<EngineJob> {
    let mut jobs = Vec::new();
    for (i, family) in
        [CodecFamily::Avc, CodecFamily::Hevc, CodecFamily::Vp9].into_iter().enumerate()
    {
        jobs.push(EngineJob::new(
            format!("sw{i}"),
            source(i as u32, 5),
            TranscodeRequest::software(family, Preset::Fast, RateMode::ConstQuality { crf: 30.0 }),
        ));
    }
    for (i, vendor) in HwVendor::ALL.into_iter().enumerate() {
        jobs.push(EngineJob::new(
            format!("hw{i}"),
            source(10 + i as u32, 5),
            TranscodeRequest::hardware(vendor, RateMode::Bitrate { bps: 400_000 }),
        ));
    }
    // One quality-target job per backend: the bisection must settle on
    // the same operating point regardless of scheduling.
    jobs.push(EngineJob::new(
        "sw-target",
        source(20, 4),
        TranscodeRequest::software(CodecFamily::Avc, Preset::Fast, {
            RateMode::QualityTarget {
                target_db: 33.0,
                lo_bps: 50_000,
                hi_bps: 4_000_000,
                fallback_bps: Some(500_000),
            }
        }),
    ));
    jobs.push(EngineJob::new(
        "hw-target",
        source(21, 4),
        TranscodeRequest::hardware(
            HwVendor::Nvenc,
            RateMode::QualityTarget {
                target_db: 33.0,
                lo_bps: 50_000,
                hi_bps: 4_000_000,
                fallback_bps: Some(500_000),
            },
        ),
    ));
    jobs
}

#[test]
fn one_worker_and_many_workers_agree_bit_for_bit() {
    let jobs = mixed_jobs();
    let serial =
        transcode_batch(&Engine, &jobs, 1, &ResilienceConfig::default()).expect("serial batch");
    let parallel =
        transcode_batch(&Engine, &jobs, 8, &ResilienceConfig::default()).expect("parallel batch");
    assert_eq!(serial.results.len(), jobs.len());
    assert_eq!(parallel.results.len(), jobs.len());
    for ((job, s), p) in jobs.iter().zip(&serial.results).zip(&parallel.results) {
        // Stable ordering: results line up with the input jobs.
        assert_eq!(s.name, job.name);
        assert_eq!(p.name, job.name);
        // Identical outputs, independent of scheduling.
        let so = s.success().expect("serial job succeeds");
        let po = p.success().expect("parallel job succeeds");
        assert_eq!(so.bytes(), po.bytes(), "{}", job.name);
        assert_eq!(so.chosen_bps(), po.chosen_bps(), "{}", job.name);
        assert_eq!(so.measurement().bitrate_bpps, po.measurement().bitrate_bpps, "{}", job.name);
        assert_eq!(so.measurement().quality_db, po.measurement().quality_db, "{}", job.name);
    }
}

#[test]
fn engine_farm_matches_direct_software_encodes() {
    // A raw encoder config lifted into an engine request and fanned out
    // by the farm must produce the bitstream a direct encode produces.
    let configs: Vec<(String, Video, EncoderConfig)> = (0..4)
        .map(|i| {
            (
                format!("j{i}"),
                source(i, 5),
                EncoderConfig::new(
                    CodecFamily::Avc,
                    Preset::Fast,
                    RateControl::ConstQuality { crf: 30.0 },
                ),
            )
        })
        .collect();
    let engine_jobs: Vec<EngineJob> = configs
        .iter()
        .map(|(name, video, config)| {
            EngineJob::new(name.clone(), video.clone(), TranscodeRequest::from_config(config))
        })
        .collect();
    let engine = transcode_batch(&Engine, &engine_jobs, 4, &ResilienceConfig::default())
        .expect("engine batch");
    for ((name, video, config), e) in configs.iter().zip(&engine.results) {
        assert_eq!(name, &e.name);
        let eo = e.success().expect("engine job succeeds");
        assert_eq!(vcodec::encode(video, config).bytes.as_slice(), eo.bytes(), "{name}");
    }
}

#[test]
fn worker_count_does_not_change_table_values() {
    // The acceptance shape for Tables 3/4/5: per-job deterministic fields
    // survive any fan-out width, including more workers than jobs.
    let jobs = mixed_jobs();
    let a = transcode_batch(&Engine, &jobs, 3, &ResilienceConfig::default()).expect("batch");
    let b = transcode_batch(&Engine, &jobs, 32, &ResilienceConfig::default()).expect("batch");
    for (x, y) in a.results.iter().zip(&b.results) {
        let xo = x.success().expect("job succeeds");
        let yo = y.success().expect("job succeeds");
        assert_eq!(xo.bytes(), yo.bytes(), "{}", x.name);
    }
}
