//! The four workloads and their set-up: everything that happens before the
//! first timed pass (input synthesis, input checksums, job construction,
//! canned payloads, the worker spec file).

use std::path::{Path, PathBuf};
use std::time::Instant;

use vbench::engine::{RateMode, TranscodeRequest};
use vbench::farm::{EngineJob, JobSource};
use vbench::reference::reference_request_for;
use vbench::scenario::Scenario;
use vbench::suite::{Suite, SuiteOptions};
use vcodec::{CodecFamily, Preset};
use vframe::source::FrameSource;
use vframe::{Frame, Resolution};
use vrand::rngs::SmallRng;
use vrand::{Rng, SeedableRng};
use vsynth::{ContentClass, SourceSpec};

use crate::engine::null_source;

/// One benchmark workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    VodBatch,
    LiveStream,
    JournalNull,
    DispatchNull,
}

/// Jobs per pass of `journal_null`; also the size of the canned-payload
/// pool both null workloads cut from.
pub const NULL_POOL: usize = 128;
/// Jobs per pass of `dispatch_null`: the same 4–48 KiB ladder in fewer
/// steps, because the ledger's replay-the-whole-journal-per-claim cost is
/// quadratic in jobs and a pass must stay short enough to repeat ≥30 times
/// even when the host is in its slow regime.
pub const DISPATCH_JOBS: usize = 24;
/// Smallest and largest canned bitstream: the range the two encode
/// workloads actually produce.
const PAYLOAD_MIN: usize = 4 * 1024;
const PAYLOAD_MAX: usize = 48 * 1024;

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::VodBatch, Workload::LiveStream, Workload::JournalNull, Workload::DispatchNull];

    pub fn name(self) -> &'static str {
        match self {
            Workload::VodBatch => "vod_batch",
            Workload::LiveStream => "live_stream",
            Workload::JournalNull => "journal_null",
            Workload::DispatchNull => "dispatch_null",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One sentence on why the workload exists; mirrored in
    /// `BENCHMARK.json` (a unit test keeps the two equal).
    pub fn why(self) -> &'static str {
        match self {
            Workload::VodBatch => {
                "15 Table-2 clips, in-memory, VOD reference (AVC Medium two-pass): motion search \
                 and transform dominate, journal and executor are under 5% of wall"
            }
            Workload::LiveStream => {
                "same clips streamed from vsynth with the Live reference (fast tier, one pass): \
                 transform/entropy and frame synthesis weigh more, residency stays bounded"
            }
            Workload::JournalNull => {
                "128 canned 4-48 KiB bitstreams through the journaled batch with a null encoder, \
                 1 worker: journal write and replay do all the work, encode does none"
            }
            Workload::DispatchNull => {
                "24 canned bitstreams through the dispatcher and 2 worker processes with a null \
                 encoder: lease ledger, process spawn and polling, which journal_null bypasses"
            }
        }
    }

    /// Whether the null transcoder runs instead of the real engine.
    pub fn is_null(self) -> bool {
        matches!(self, Workload::JournalNull | Workload::DispatchNull)
    }

    /// Workers (threads, or processes for `dispatch_null`) on a box with
    /// `nproc` CPUs. `journal_null` is single-worker by design.
    pub fn workers(self, nproc: usize) -> usize {
        match self {
            Workload::JournalNull => 1,
            _ => nproc.clamp(1, 2),
        }
    }

    /// Decoded-quality floor the verification gate applies (dB); the
    /// reference requests sit well above it on every clip and seed tried.
    pub fn psnr_floor_db(self) -> f64 {
        match self {
            Workload::VodBatch => 24.0,
            Workload::LiveStream => 30.0,
            _ => 0.0,
        }
    }
}

/// Everything one set-up produces.
pub struct Prepared {
    pub jobs: Vec<EngineJob>,
    /// Canned bitstreams in job order (null workloads; empty otherwise).
    pub payloads: Vec<Vec<u8>>,
    /// Checksum over every input byte, folded frame by frame.
    pub input_crc: u32,
    /// Pixels synthesized and the seconds `vsynth` took to render them.
    pub pixels_generated: u64,
    pub gen_secs: f64,
    /// Worker argv for `dispatch_null` (`worker <spec file> <journal>`).
    pub worker_args: Vec<String>,
}

impl Prepared {
    /// Source megapixels per job, averaged over the job list (fixed per
    /// workload: `jobs_per_s × mpix_per_job` is the paper's Mpixel/s).
    pub fn mpix_per_job(&self) -> f64 {
        let pixels: u64 = self.jobs.iter().map(|j| j.source.total_pixels()).sum();
        pixels as f64 / 1e6 / self.jobs.len().max(1) as f64
    }
}

fn fold_crc(acc: u32, bytes: &[u8]) -> u32 {
    let mut buf = [0u8; 8];
    buf[..4].copy_from_slice(&acc.to_le_bytes());
    buf[4..].copy_from_slice(&vpack::crc32(bytes).to_le_bytes());
    vpack::crc32(&buf)
}

fn fold_frame(acc: u32, frame: &Frame) -> u32 {
    frame.planes().iter().fold(acc, |acc, plane| fold_crc(acc, plane.data()))
}

/// The suite both encode workloads use: the 15 Table-2 clips at 1/10 scale
/// and 0.3 s, content seeded from `seed`. Job order is the suite's own
/// (what `vbench batch` runs): shuffling it would move the two-worker tail
/// and put seed-to-seed spread into `jobs_per_s`.
fn suite(seed: u64) -> Suite {
    let seed = vrand::process::substream_seed(0x7bec, seed);
    Suite::vbench(&SuiteOptions { seconds: 0.3, scale: 10, seed })
}

fn prepare_encode(workload: Workload, seed: u64) -> Prepared {
    let mut p = Prepared {
        jobs: Vec::new(),
        payloads: Vec::new(),
        input_crc: 0,
        pixels_generated: 0,
        gen_secs: 0.0,
        worker_args: Vec::new(),
    };
    for entry in suite(seed).videos() {
        let spec = entry.spec.clone();
        let native = entry.category.kpixels;
        p.pixels_generated += spec.resolution.pixels() * spec.frames as u64;
        let job = if workload == Workload::VodBatch {
            let t0 = Instant::now();
            let video = spec.generate();
            p.gen_secs += t0.elapsed().as_secs_f64();
            p.input_crc = video.frames().iter().fold(p.input_crc, fold_frame);
            let request = reference_request_for(Scenario::Vod, spec.resolution, native);
            EngineJob::new(entry.name, video, request)
        } else {
            // Streamed jobs never materialize their clip; the set-up still
            // renders every frame once to checksum the input it will get.
            let mut source = spec.source();
            loop {
                let t0 = Instant::now();
                let frame = source.next_frame();
                p.gen_secs += t0.elapsed().as_secs_f64();
                match frame {
                    Some(frame) => p.input_crc = fold_frame(p.input_crc, &frame),
                    None => break,
                }
            }
            // No per-job deadline: host noise must not be able to fail a job.
            let request = reference_request_for(Scenario::Live, spec.resolution, native);
            EngineJob::streaming(entry.name, JobSource::Synth(spec), request)
        };
        p.jobs.push(job);
    }
    p
}

/// Payload sizes in job order: an even ladder from 4 to 48 KiB, shuffled
/// once and for all. The seed moves the bytes, not the sizes or their order:
/// the ledger re-reads the whole journal on every claim, so which job is
/// large decides how many bytes a `dispatch_null` pass reads (±10 % between
/// orders) and how long it takes, and that would be seed-to-seed spread in
/// `storage_read_bytes_per_job` and `jobs_per_s` that no change caused.
pub fn payload_sizes(count: usize) -> Vec<usize> {
    let last = count.saturating_sub(1).max(1);
    let mut sizes: Vec<usize> =
        (0..count).map(|i| PAYLOAD_MIN + i * (PAYLOAD_MAX - PAYLOAD_MIN) / last).collect();
    let mut rng = SmallRng::seed_from_u64(0x5eed);
    for i in (1..sizes.len()).rev() {
        sizes.swap(i, rng.gen_range(0..=i));
    }
    sizes
}

/// Consecutive slices of `bytes`, one per size; `bytes` must hold their sum.
fn cut(bytes: &[u8], sizes: &[usize]) -> Vec<Vec<u8>> {
    let mut at = 0usize;
    sizes
        .iter()
        .map(|&size| {
            let piece = bytes[at..at + size].to_vec();
            at += size;
            piece
        })
        .collect()
}

/// Cuts `sizes` canned bitstreams out of freshly synthesized frames, so a
/// null workload's set-up is real `vsynth` + `vpack` work, seeded like the
/// clips are. Both null workloads render the whole pool (the full ladder's
/// bytes) and cut what they need from its front, so their set-ups cost the
/// same. Returns the payloads, the pixels rendered and the seconds spent
/// rendering.
fn synth_payloads(sizes: &[usize], seed: u64) -> (Vec<Vec<u8>>, u64, f64) {
    let resolution = Resolution::new(256, 144);
    let bytes_per_frame = (resolution.pixels() * 3 / 2) as usize;
    let pool_bytes = NULL_POOL * (PAYLOAD_MIN + PAYLOAD_MAX) / 2;
    let frames = pool_bytes.div_ceil(bytes_per_frame);
    let spec = SourceSpec::new(
        resolution,
        30.0,
        frames,
        ContentClass::Natural,
        vrand::process::substream_seed(seed, 2),
    );
    let mut pool: Vec<u8> = Vec::with_capacity(frames * bytes_per_frame);
    let mut gen_secs = 0.0;
    let mut source = spec.source();
    loop {
        let t0 = Instant::now();
        let frame = source.next_frame();
        gen_secs += t0.elapsed().as_secs_f64();
        let Some(frame) = frame else { break };
        for plane in frame.planes() {
            pool.extend_from_slice(plane.data());
        }
    }
    (cut(&pool, sizes), resolution.pixels() * frames as u64, gen_secs)
}

/// Builds the null job list for already-made payloads: job `i` is a
/// one-frame marker clip ([`null_source`]) under a request no engine will
/// ever execute.
pub fn null_jobs(count: usize) -> Vec<EngineJob> {
    let request = TranscodeRequest::software(
        CodecFamily::Avc,
        Preset::Medium,
        RateMode::ConstQuality { crf: 30.0 },
    );
    (0..count)
        .map(|i| EngineJob::new(format!("null{i:03}"), null_source(i as u32), request))
        .collect()
}

/// The journal every pass of a run truncates and rewrites.
pub fn journal_path(scratch: &Path) -> PathBuf {
    scratch.join("journal.jsonl")
}

const SPEC_FILE: &str = "worker.spec";
const PAYLOAD_FILE: &str = "payloads.bin";

fn prepare_null(
    workload: Workload,
    seed: u64,
    tracing: bool,
    scratch: &Path,
) -> std::io::Result<Prepared> {
    let count = if workload == Workload::DispatchNull { DISPATCH_JOBS } else { NULL_POOL };
    let sizes = payload_sizes(count);
    let (payloads, pixels_generated, gen_secs) = synth_payloads(&sizes, seed);
    let input_crc = payloads.iter().fold(0, |acc, p| fold_crc(acc, p));
    let mut worker_args = Vec::new();
    if workload == Workload::DispatchNull {
        // Workers read the payloads back instead of re-synthesizing them:
        // their start-up is part of every timed pass.
        let spec_path = scratch.join(SPEC_FILE);
        std::fs::write(scratch.join(PAYLOAD_FILE), payloads.concat())?;
        let sizes: Vec<String> = sizes.iter().map(usize::to_string).collect();
        std::fs::write(
            &spec_path,
            format!("trace={}\nsizes={}\n", u8::from(tracing), sizes.join(",")),
        )?;
        worker_args = vec![
            "worker".to_string(),
            spec_path.to_string_lossy().into_owned(),
            journal_path(scratch).to_string_lossy().into_owned(),
        ];
    }
    Ok(Prepared {
        jobs: null_jobs(count),
        payloads,
        input_crc,
        pixels_generated,
        gen_secs,
        worker_args,
    })
}

/// One complete set-up of `workload` for `seed`.
pub fn prepare(
    workload: Workload,
    seed: u64,
    tracing: bool,
    scratch: &Path,
) -> std::io::Result<Prepared> {
    if workload.is_null() {
        prepare_null(workload, seed, tracing, scratch)
    } else {
        Ok(prepare_encode(workload, seed))
    }
}

/// What a worker process reads back from the spec file its dispatcher's
/// set-up wrote next to the journal.
pub struct WorkerSpec {
    pub tracing: bool,
    pub payloads: Vec<Vec<u8>>,
}

/// Parses the worker spec file and loads the payload blob beside it.
pub fn read_worker_spec(spec_path: &Path) -> std::io::Result<WorkerSpec> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let text = std::fs::read_to_string(spec_path)?;
    let field = |key: &str| {
        text.lines().find_map(|l| l.strip_prefix(key)?.strip_prefix('=')).ok_or_else(|| bad(key))
    };
    let tracing = field("trace")? == "1";
    let sizes: Vec<usize> = field("sizes")?
        .split(',')
        .map(|s| s.parse().map_err(|_| bad("sizes")))
        .collect::<Result<_, _>>()?;
    let dir: PathBuf = spec_path.parent().map(Path::to_path_buf).unwrap_or_default();
    let blob = std::fs::read(dir.join(PAYLOAD_FILE))?;
    if sizes.iter().sum::<usize>() != blob.len() {
        return Err(bad("payload blob does not match the spec's sizes"));
    }
    Ok(WorkerSpec { tracing, payloads: cut(&blob, &sizes) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::Scratch;

    #[test]
    fn payload_sizes_are_a_fixed_shuffled_ladder() {
        let a = payload_sizes(NULL_POOL);
        assert_eq!(a, payload_sizes(NULL_POOL));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_ne!(a, sorted, "shuffled, so large records do not all come last");
        assert_eq!((sorted[0], sorted[NULL_POOL - 1]), (PAYLOAD_MIN, PAYLOAD_MAX));
        let d = payload_sizes(DISPATCH_JOBS);
        assert_eq!(d.len(), DISPATCH_JOBS);
        assert_eq!(d.iter().min(), Some(&PAYLOAD_MIN));
        assert_eq!(d.iter().max(), Some(&PAYLOAD_MAX));
    }

    #[test]
    fn null_setup_is_deterministic_per_seed_and_round_trips_through_the_spec_file() {
        let scratch = Scratch::create("setup").expect("scratch dir");
        let a = prepare(Workload::DispatchNull, 5, true, scratch.path()).expect("set-up");
        let b = prepare(Workload::DispatchNull, 5, true, scratch.path()).expect("set-up");
        let c = prepare(Workload::DispatchNull, 6, true, scratch.path()).expect("set-up");
        assert_eq!(a.payloads, b.payloads);
        assert_eq!(a.input_crc, b.input_crc);
        assert_ne!(a.input_crc, c.input_crc, "another seed, other bytes");
        let lens = |p: &Prepared| p.payloads.iter().map(Vec::len).collect::<Vec<_>>();
        assert_eq!(lens(&a), lens(&c), "but the same sizes in the same order");
        assert_eq!(a.jobs.len(), DISPATCH_JOBS);
        assert!(a.pixels_generated > 0 && a.gen_secs > 0.0);
        // The spec file on disk is `c`'s (written last).
        let spec = read_worker_spec(Path::new(&c.worker_args[1])).expect("spec");
        assert!(spec.tracing);
        assert_eq!(spec.payloads, c.payloads);
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
