//! Experiment drivers: one function per paper table/figure.
//!
//! Every function regenerates the corresponding artifact's *rows*; the
//! `tablegen` binary prints them, the Criterion benches time representative
//! slices, and EXPERIMENTS.md records a full run. Absolute numbers depend
//! on the machine and the chosen [`Scale`]; the shapes are the
//! reproduction targets.
//!
//! Every encode routes through the unified transcode engine
//! ([`vbench::engine`]); Tables 3/4/5 additionally fan their rows out
//! across worker threads via the transcode farm. The one deliberate
//! exception is the microarchitecture studies (Figures 5–8), which attach
//! a simulator probe to the encoder and therefore call
//! [`vcodec::encode_with_probe`] directly — the probe is a tracing
//! concern below the engine's surface.

use varch::{cycle_breakdown, isa_ladder, IsaTier, MachineConfig, UarchReport, UarchSim};
use vbench::engine::{transcode, Engine, RateMode, TranscodeError, TranscodeRequest};
use vbench::exec::StdIo;
use vbench::farm::{transcode_batch, BatchError, EngineBatchReport, EngineJob};
use vbench::fleet::{predict_encode_secs, JobFeatures};
use vbench::journal::{run_batch_journaled_with_io, JournalConfig, JournalError};
use vbench::measure::Measurement;
use vbench::reference::{
    reference_config, reference_encode_with_native, reference_request_with_native, target_bps,
};
use vbench::report::{fmt_ratio, TextTable};
use vbench::resilience::ResilienceConfig;
use vbench::scenario::{score_with_video, Scenario, ScenarioScore};
use vbench::suite::{Suite, SuiteOptions, SuiteVideo};
use vcodec::{encode_with_probe, CodecFamily, Preset};
use vcorpus::corpus::CorpusModel;
use vcorpus::coverage::coverage_fraction;
use vcorpus::datasets;
use vcorpus::selection::{select_suite, SelectionConfig};
use vcorpus::VideoCategory;
use vframe::metrics::psnr_video;
use vhw::{HwVendor, InstanceCatalog};

/// Why an experiment driver could not produce its rows.
#[derive(Clone, PartialEq, Debug)]
pub enum ExperimentError {
    /// A `--videos` name does not exist in the suite.
    UnknownVideo(String),
    /// The transcode farm failed the run (zero workers, or a job failed
    /// after exhausting its retry budget).
    Batch(BatchError),
    /// A serial (reference or timed) transcode failed.
    Transcode(TranscodeError),
    /// The durability journal could not be used (IO failure or manifest
    /// mismatch). Carries the rendered message.
    Journal(String),
    /// A scripted crash fault fired mid-batch: the journaled work
    /// survives, so rerunning with `--resume` completes the batch.
    /// Distinct from [`ExperimentError::Journal`] so drivers can map it
    /// to the simulated-crash exit code.
    SimulatedCrash(String),
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::UnknownVideo(name) => write!(f, "no suite video '{name}'"),
            ExperimentError::Batch(e) => e.fmt(f),
            ExperimentError::Transcode(e) => e.fmt(f),
            ExperimentError::Journal(msg) => f.write_str(msg),
            ExperimentError::SimulatedCrash(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<BatchError> for ExperimentError {
    fn from(e: BatchError) -> ExperimentError {
        ExperimentError::Batch(e)
    }
}

impl From<TranscodeError> for ExperimentError {
    fn from(e: TranscodeError) -> ExperimentError {
        ExperimentError::Transcode(e)
    }
}

impl From<JournalError> for ExperimentError {
    fn from(e: JournalError) -> ExperimentError {
        match e {
            JournalError::Batch(e) => ExperimentError::Batch(e),
            crash @ JournalError::Crashed { .. } => {
                ExperimentError::SimulatedCrash(crash.to_string())
            }
            other => ExperimentError::Journal(other.to_string()),
        }
    }
}

/// Run size: how large the synthesized clips are.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Smallest clips; seconds per experiment. Debug-safe.
    Tiny,
    /// Half-size clips; minutes per full table in release mode.
    Experiment,
    /// Paper-scale clips (native resolution, 5 s).
    Full,
}

impl Scale {
    /// Suite options for this scale.
    pub fn options(&self) -> SuiteOptions {
        match self {
            Scale::Tiny => SuiteOptions::tiny(),
            Scale::Experiment => SuiteOptions::experiment(),
            Scale::Full => SuiteOptions::default(),
        }
    }

    /// Parses a scale name.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "tiny" => Some(Scale::Tiny),
            "experiment" | "exp" => Some(Scale::Experiment),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }
}

/// Builds the suite at a scale.
pub fn suite(scale: Scale) -> Suite {
    Suite::vbench(&scale.options())
}

/// Simulated machine matched to the scale: scaled-down frames need a
/// scaled-down LLC to preserve the capacity-pressure ratios of the
/// paper's full-size measurement (a standard scaled-simulation practice;
/// L1 caches keep their true sizes since block working sets are
/// scale-invariant).
pub fn machine_for(scale: Scale) -> MachineConfig {
    let llc_bytes = match scale {
        Scale::Tiny => 64 * 1024,
        Scale::Experiment => 512 * 1024,
        Scale::Full => 8 * 1024 * 1024,
    };
    MachineConfig { llc_bytes, ..MachineConfig::default() }
}

// ---------------------------------------------------------------- Figure 1

/// Figure 1: upload growth vs CPU growth, normalized to 2007.
pub fn fig1_table() -> TextTable {
    let mut t = TextTable::new(["year", "uploads (hrs/min)", "upload growth", "SPECrate growth"]);
    for (year, up, spec) in vbench::figures::normalized_growth() {
        let raw =
            vbench::figures::GROWTH_SERIES.iter().find(|p| p.year == year).expect("year in series");
        t.push_row([
            year.to_string(),
            format!("{:.0}", raw.upload_hours_per_min),
            format!("{up:.1}x"),
            format!("{spec:.1}x"),
        ]);
    }
    t
}

// ---------------------------------------------------------------- Figure 2

/// Figure 2: PSNR and speed vs bitrate for the three encoder families on
/// one HD animation clip, plus BD-rate of each newer family against the
/// AVC-class anchor.
pub fn fig2_rd_curves(scale: Scale) -> TextTable {
    let s = suite(scale);
    let video = s.by_name("funny").expect("funny is the HD animation clip").generate();
    let pixels_per_frame = video.resolution().pixels() as f64;
    let mut t = TextTable::new(["family", "target bit/pix/s", "actual", "PSNR dB", "Mpix/s"]);
    let mut curves: Vec<(CodecFamily, Vec<vbench::RdPoint>)> = Vec::new();
    for family in CodecFamily::ALL {
        let mut curve = Vec::new();
        for bpps in [0.3, 1.0, 2.0, 4.0, 8.0] {
            let bps = (bpps * pixels_per_frame) as u64;
            let req = TranscodeRequest::software(family, Preset::Medium, RateMode::Bitrate { bps });
            let m = transcode(&video, &req).expect("rd point").measurement;
            curve.push(vbench::RdPoint::new(m.bitrate_bpps, m.quality_db));
            t.push_row([
                family.to_string(),
                format!("{bpps:.1}"),
                format!("{:.2}", m.bitrate_bpps),
                format!("{:.2}", m.quality_db),
                format!("{:.2}", m.speed_mpps()),
            ]);
        }
        curves.push((family, curve));
    }
    // BD-rate summary rows against the AVC-class anchor.
    let anchor = curves[0].1.clone();
    for (family, curve) in curves.iter().skip(1) {
        let bd = vbench::bd_rate(&anchor, curve);
        t.push_row([
            format!("{family} BD-rate"),
            String::new(),
            String::new(),
            String::new(),
            format!("{bd:+.1}%"),
        ]);
    }
    t
}

// ---------------------------------------------------------------- Figure 4

/// Figure 4: coverage of the corpus by each dataset (the scatter,
/// quantified as weight-within-radius).
pub fn fig4_coverage() -> TextTable {
    let corpus = CorpusModel::new().sample_categories(30_000, 2017);
    let radius = 0.35;
    let mut t = TextTable::new(["dataset", "videos", "min entropy", "max entropy", "coverage"]);
    for profile in datasets::all_profiles() {
        let pts: Vec<VideoCategory> = profile.videos.iter().map(|v| v.category).collect();
        let min_e = pts.iter().map(|c| c.entropy).fold(f64::INFINITY, f64::min);
        let max_e = pts.iter().map(|c| c.entropy).fold(0.0, f64::max);
        t.push_row([
            profile.name.to_string(),
            pts.len().to_string(),
            format!("{min_e:.1}"),
            format!("{max_e:.1}"),
            format!("{:.1}%", 100.0 * coverage_fraction(&pts, &corpus, radius)),
        ]);
    }
    t
}

/// Table 2 companion: the k-means selection pipeline run on the synthetic
/// corpus (the derived suite the methodology produces).
pub fn tab2_derived_selection() -> TextTable {
    let corpus = CorpusModel::new().sample_categories(30_000, 2017);
    let selected = select_suite(&corpus, &SelectionConfig::default());
    let mut t = TextTable::new(["kpixels", "fps", "entropy", "share"]);
    for s in &selected {
        t.push_row([
            s.category.kpixels.to_string(),
            s.category.fps.to_string(),
            format!("{:.1}", s.category.entropy),
            format!("{:.1}%", 100.0 * s.share),
        ]);
    }
    t
}

// ------------------------------------------------------------ Figures 5–8

/// One microarchitecture run: a suite video encoded under the VOD
/// reference with the simulator attached.
#[derive(Clone, Debug)]
pub struct UarchRow {
    /// Video name.
    pub name: &'static str,
    /// Published entropy.
    pub entropy: f64,
    /// Simulator report.
    pub report: UarchReport,
}

/// Runs the simulator over the named suite videos (all 15 if `names` is
/// `None`).
///
/// # Errors
///
/// [`ExperimentError::UnknownVideo`] when a name is not in the suite.
pub fn uarch_rows(scale: Scale, names: Option<&[&str]>) -> Result<Vec<UarchRow>, ExperimentError> {
    let s = suite(scale);
    let videos: Vec<&SuiteVideo> = match names {
        Some(list) => list
            .iter()
            .map(|n| s.by_name(n).ok_or_else(|| ExperimentError::UnknownVideo(n.to_string())))
            .collect::<Result<_, _>>()?,
        None => s.iter().collect(),
    };
    Ok(videos
        .into_iter()
        .map(|entry| {
            let video = entry.generate();
            let cfg = reference_config(Scenario::Vod, &video);
            let mut sim = UarchSim::new(machine_for(scale));
            let _ = encode_with_probe(&video, &cfg, &mut sim);
            UarchRow { name: entry.name, entropy: entry.category.entropy, report: sim.report() }
        })
        .collect())
}

/// Figure 5: I$ / branch / LLC MPKI vs entropy.
pub fn fig5_table(rows: &[UarchRow]) -> TextTable {
    let mut t =
        TextTable::new(["video", "entropy", "I$ MPKI", "branch MPKI", "LLC MPKI", "L1D MPKI"]);
    let mut sorted: Vec<&UarchRow> = rows.iter().collect();
    sorted.sort_by(|a, b| a.entropy.partial_cmp(&b.entropy).expect("finite"));
    for r in sorted {
        t.push_row([
            r.name.to_string(),
            format!("{:.1}", r.entropy),
            format!("{:.2}", r.report.icache_mpki),
            format!("{:.2}", r.report.branch_mpki),
            format!("{:.2}", r.report.llc_mpki),
            format!("{:.2}", r.report.l1d_mpki),
        ]);
    }
    t
}

/// Figure 6: Top-Down breakdown per video.
pub fn fig6_table(rows: &[UarchRow]) -> TextTable {
    let mut t = TextTable::new(["video", "FE", "BAD", "BE/Mem", "BE/Core", "RET"]);
    for r in rows {
        let td = r.report.topdown;
        t.push_row([
            r.name.to_string(),
            format!("{:.1}%", 100.0 * td.frontend),
            format!("{:.1}%", 100.0 * td.bad_speculation),
            format!("{:.1}%", 100.0 * td.backend_memory),
            format!("{:.1}%", 100.0 * td.backend_core),
            format!("{:.1}%", 100.0 * td.retiring),
        ]);
    }
    t
}

/// Figure 7: scalar vs AVX2 cycle fraction vs entropy.
pub fn fig7_table(rows: &[UarchRow]) -> TextTable {
    let mut t = TextTable::new(["video", "entropy", "scalar", "vec128", "avx2"]);
    let mut sorted: Vec<&UarchRow> = rows.iter().collect();
    sorted.sort_by(|a, b| a.entropy.partial_cmp(&b.entropy).expect("finite"));
    for r in sorted {
        let b = cycle_breakdown(&r.report.counters, IsaTier::Avx2);
        t.push_row([
            r.name.to_string(),
            format!("{:.1}", r.entropy),
            format!("{:.1}%", 100.0 * b.scalar_fraction()),
            format!("{:.1}%", 100.0 * (1.0 - b.scalar_fraction() - b.vec256_fraction())),
            format!("{:.1}%", 100.0 * b.vec256_fraction()),
        ]);
    }
    t
}

/// Figure 8: the ISA ladder, cycles normalized to the AVX2 build,
/// aggregated over the given runs.
pub fn fig8_table(rows: &[UarchRow]) -> TextTable {
    let mut total = vcodec::KernelCounters::new();
    for r in rows {
        total.merge(&r.report.counters);
    }
    let ladder = isa_ladder(&total);
    let avx2_total =
        ladder.iter().find(|(t, _)| *t == IsaTier::Avx2).expect("avx2 in ladder").1.total();
    let mut t = TextTable::new(["ISA", "cycles vs AVX2", "scalar", "vec128", "vec256"]);
    for (tier, b) in &ladder {
        t.push_row([
            tier.name().to_string(),
            format!("{:.2}x", b.total() / avx2_total),
            format!("{:.1}%", 100.0 * b.scalar / b.total()),
            format!("{:.1}%", 100.0 * b.vec128 / b.total()),
            format!("{:.1}%", 100.0 * b.vec256 / b.total()),
        ]);
    }
    t
}

/// Figure 5's bias demonstration: run the same microarchitecture study
/// over synthetic stand-ins for each public dataset and report the
/// *trend slope* of each metric against log2(entropy). The paper's claim:
/// datasets lacking low-entropy videos (Netflix, Xiph) show distorted or
/// missing trends.
pub fn fig5_bias_table(scale: Scale, per_dataset: usize) -> TextTable {
    let opts = scale.options();
    let mut t = TextTable::new([
        "dataset",
        "videos",
        "entropy span",
        "I$ slope",
        "LLC slope",
        "branch slope",
    ]);
    for profile in datasets::all_profiles() {
        let videos: Vec<_> = profile.videos.iter().take(per_dataset).collect();
        let mut points: Vec<(f64, f64, f64, f64)> = Vec::new();
        for dv in &videos {
            let sv = vbench::suite::synthetic_for_category(dv.name, &dv.category, &opts);
            let video = sv.generate();
            let cfg = reference_config(Scenario::Vod, &video);
            let mut sim = UarchSim::new(machine_for(scale));
            let _ = encode_with_probe(&video, &cfg, &mut sim);
            let r = sim.report();
            points.push((dv.category.entropy.log2(), r.icache_mpki, r.llc_mpki, r.branch_mpki));
        }
        let span = {
            let min = points.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
            let max = points.iter().map(|p| p.0).fold(f64::NEG_INFINITY, f64::max);
            max - min
        };
        t.push_row([
            profile.name.to_string(),
            points.len().to_string(),
            format!("{span:.1} oct"),
            format!("{:+.3}", slope(points.iter().map(|p| (p.0, p.1)))),
            format!("{:+.3}", slope(points.iter().map(|p| (p.0, p.2)))),
            format!("{:+.3}", slope(points.iter().map(|p| (p.0, p.3)))),
        ]);
    }
    t
}

/// Least-squares slope of y against x; 0 for degenerate inputs.
fn slope(points: impl Iterator<Item = (f64, f64)>) -> f64 {
    let pts: Vec<(f64, f64)> = points.collect();
    let n = pts.len() as f64;
    if pts.len() < 2 {
        return 0.0;
    }
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        0.0
    } else {
        (n * sxy - sx * sy) / denom
    }
}

/// Ablation study: the contribution of the in-loop deblocking filter and
/// the arithmetic entropy backend, on one mid-entropy suite video.
pub fn ablation_table(scale: Scale) -> TextTable {
    let s = suite(scale);
    let video = s.by_name("cricket").expect("table 2 video").generate();
    let base = TranscodeRequest::software(
        CodecFamily::Avc,
        Preset::Medium,
        RateMode::ConstQuality { crf: 30.0 },
    );
    let variants: [(&str, TranscodeRequest); 3] = [
        ("baseline (deblock, arith)", base),
        ("no deblocking filter", base.without_deblock()),
        ("VLC entropy backend", base.with_entropy_backend(vcodec::entropy::EntropyBackend::Vlc)),
    ];
    let mut t = TextTable::new(["variant", "bytes", "PSNR dB", "note"]);
    let mut baseline: Option<(usize, f64)> = None;
    for (name, req) in variants {
        let out = transcode(&video, &req).expect("ablation variant").output;
        let q = psnr_video(&video, &out.recon);
        let note = match baseline {
            None => {
                baseline = Some((out.bytes.len(), q));
                String::new()
            }
            Some((b_bytes, b_q)) => format!(
                "{:+.1}% bits, {:+.2} dB",
                100.0 * (out.bytes.len() as f64 / b_bytes as f64 - 1.0),
                q - b_q
            ),
        };
        t.push_row([name.to_string(), out.bytes.len().to_string(), format!("{q:.2}"), note]);
    }
    // B frames: bidirectional prediction, one B between references.
    {
        let out = transcode(&video, &base.with_bframes()).expect("bframes variant").output;
        let q = psnr_video(&video, &out.recon);
        let (b_bytes, b_q) = baseline.expect("baseline ran first");
        t.push_row([
            "B frames (IBPBP)".to_string(),
            out.bytes.len().to_string(),
            format!("{q:.2}"),
            format!(
                "{:+.1}% bits, {:+.2} dB",
                100.0 * (out.bytes.len() as f64 / b_bytes as f64 - 1.0),
                q - b_q
            ),
        ]);
    }
    // Denoise pre-filter (Section 2.1's optional tool): encode the
    // filtered clip, but measure PSNR against the *original* source.
    let denoised = vframe::filter::denoise_video(&video, 0.7, 0.5);
    let out = transcode(&denoised, &base).expect("denoise variant").output;
    let q = psnr_video(&video, &out.recon);
    let (b_bytes, b_q) = baseline.expect("baseline ran first");
    t.push_row([
        "denoise pre-filter (0.7/0.5)".to_string(),
        out.bytes.len().to_string(),
        format!("{q:.2}"),
        format!(
            "{:+.1}% bits, {:+.2} dB",
            100.0 * (out.bytes.len() as f64 / b_bytes as f64 - 1.0),
            q - b_q
        ),
    ]);
    t
}

/// Fleet-sizing study (Section 5.3's "significant downsizing of the
/// transcoding fleet"): size a fleet for a Figure-1-scale upload load
/// (500 hours of 1080p30 video per minute) and price it in dollars. Two
/// measured anchor rows — real software throughput of the reference
/// transcode and the modelled QSV-class hardware run, with the
/// egress-side price of the hardware's extra bitrate — followed by one
/// row per [`vhw::InstanceCatalog`] entry sized from the cost plane's
/// content-feature predictor, so the sizing and the dollar column come
/// from the same model `vbench plan` schedules with.
pub fn fleet_table(scale: Scale) -> TextTable {
    let s = suite(scale);
    let entry = s.by_name("girl").expect("table 2 video");
    let video = entry.generate();
    // Software VOD worker: measured throughput of the reference transcode.
    let (sw, _) = reference_encode_with_native(Scenario::Vod, &video, entry.category.kpixels);
    // Hardware worker: modelled pipeline speed, and its bitrate at the
    // software reference quality.
    let bps = target_bps(&video);
    let hw_req = TranscodeRequest::hardware(
        HwVendor::Qsv,
        RateMode::QualityTarget {
            target_db: sw.quality_db,
            lo_bps: bps / 8,
            hi_bps: bps * 8,
            fallback_bps: Some(bps),
        },
    );
    let hw_run = transcode(&video, &hw_req).expect("hardware worker").measurement;
    let hw_speed = hw_run.speed_pps;
    let hw_bpps = hw_run.bitrate_bpps;

    // Figure-1-scale offered load: 500 hours/min of 1080p30 uploads.
    let offered = 500.0 * 60.0 * 1920.0 * 1080.0 * 30.0;
    let util = 0.7;
    let catalog = InstanceCatalog::default_fleet();
    let sw_rate = catalog.baseline().dollars_per_hour;
    let hw_rate =
        catalog.by_name("x86-qsv").expect("x86-qsv in the default fleet").dollars_per_hour;
    let sw_fleet = vbench::fleet::fleet_size_for(offered, sw.speed_pps, util);
    let hw_fleet = vbench::fleet::fleet_size_for(offered, hw_speed, util);

    let mut t =
        TextTable::new(["worker", "speed Mpix/s", "fleet size", "fleet $/h", "relative egress"]);
    t.push_row([
        "software (VOD ref, measured)".to_string(),
        format!("{:.2}", sw.speed_mpps()),
        sw_fleet.to_string(),
        format!("{:.0}", f64::from(sw_fleet) * sw_rate),
        "1.00x".to_string(),
    ]);
    t.push_row([
        "hardware (QSV-class, measured)".to_string(),
        format!("{:.2}", hw_speed / 1e6),
        hw_fleet.to_string(),
        format!("{:.0}", f64::from(hw_fleet) * hw_rate),
        format!("{:.2}x", hw_bpps / sw.bitrate_bpps),
    ]);
    // Catalog rows: each instance type sized from the predictor on the
    // same representative upload (Fast preset — the Upload reference),
    // priced at its catalog rate. Egress is a measurement, not a model
    // output, so predicted rows leave it blank.
    let features = JobFeatures {
        pixels_per_frame: entry.spec.resolution.pixels(),
        frames: entry.spec.frames as u64,
        fps: entry.spec.fps,
        entropy: entry.category.entropy,
        preset: Preset::Fast,
    };
    for e in catalog.entries() {
        let speed = features.total_pixels() / predict_encode_secs(&features, e);
        let fleet = vbench::fleet::fleet_size_for(offered, speed, util);
        t.push_row([
            format!("{} (predicted)", e.name),
            format!("{:.2}", speed / 1e6),
            fleet.to_string(),
            format!("{:.0}", f64::from(fleet) * e.dollars_per_hour),
            "-".to_string(),
        ]);
    }
    t
}

// ----------------------------------------------------------- Tables 1 & 2

/// Table 1: the scoring functions (static).
pub fn tab1_table() -> TextTable {
    let mut t = TextTable::new(["scenario", "constraint", "score"]);
    t.push_row(["Upload", "B > 0.2", "S x Q"]);
    t.push_row(["Live", "S_new >= output Mpixel/s", "B x Q"]);
    t.push_row(["VOD", "Q >= 1 or Q_new >= 50 dB", "S x B"]);
    t.push_row(["Popular", "B, Q >= 1 and S >= 0.1", "B x Q"]);
    t.push_row(["Platform", "B = Q = 1", "S"]);
    t
}

/// Table 2: the suite, with each synthetic clip's *measured* entropy next
/// to the published value.
pub fn tab2_table(scale: Scale) -> TextTable {
    let s = suite(scale);
    let mut t =
        TextTable::new(["resolution", "name", "published entropy", "measured entropy", "class"]);
    for v in &s {
        let video = v.generate();
        let measured = vbench::reference::measure_entropy(&video);
        t.push_row([
            format!("{} kpix", v.category.kpixels),
            v.name.to_string(),
            format!("{:.1}", v.category.entropy),
            format!("{measured:.1}"),
            format!("{:?}", v.spec.class),
        ]);
    }
    t
}

// ---------------------------------------------------------- Tables 3/4/5

/// One hardware-scenario result row.
#[derive(Clone, Debug)]
pub struct HwRow {
    /// Video name.
    pub name: &'static str,
    /// Vendor.
    pub vendor: HwVendor,
    /// Score result (ratios always populated).
    pub score: ScenarioScore,
}

/// Table 3: NVENC/QSV under the VOD scenario — bitrate bisected until the
/// hardware matches the reference quality, per the paper's methodology.
/// Hardware rows fan out across `workers` farm threads (their speed is
/// modelled, so the worker count never changes a value) under the given
/// resilience policy; the timed software references run serially.
///
/// # Errors
///
/// See [`ExperimentError`].
pub fn tab3_rows(
    scale: Scale,
    names: Option<&[&str]>,
    workers: usize,
    policy: &ResilienceConfig,
    journal: Option<&JournalConfig>,
) -> Result<Vec<HwRow>, ExperimentError> {
    hw_scenario_rows(scale, names, Scenario::Vod, workers, policy, journal)
}

/// Table 4: NVENC/QSV under the Live scenario at reference quality.
/// Hardware rows fan out across `workers` farm threads under the given
/// resilience policy; the timed software references run serially.
///
/// # Errors
///
/// See [`ExperimentError`].
pub fn tab4_rows(
    scale: Scale,
    names: Option<&[&str]>,
    workers: usize,
    policy: &ResilienceConfig,
    journal: Option<&JournalConfig>,
) -> Result<Vec<HwRow>, ExperimentError> {
    hw_scenario_rows(scale, names, Scenario::Live, workers, policy, journal)
}

/// Resolves `names` against the suite (all 15 videos when `None`) and
/// generates each clip once.
fn generated_videos(
    s: &Suite,
    names: Option<&[&str]>,
) -> Result<Vec<(&'static str, u32, vframe::Video)>, ExperimentError> {
    let videos: Vec<&SuiteVideo> = match names {
        Some(list) => list
            .iter()
            .map(|n| s.by_name(n).ok_or_else(|| ExperimentError::UnknownVideo(n.to_string())))
            .collect::<Result<_, _>>()?,
        None => s.iter().collect(),
    };
    Ok(videos.into_iter().map(|e| (e.name, e.category.kpixels, e.generate())).collect())
}

/// Runs the scenario references for every clip and returns their
/// measurements, in clip order.
///
/// References run serially on purpose: their measured wall-clock speed is
/// the denominator of every S ratio, so they must not contend with each
/// other for cores (farming timed encodes past the core count would
/// inflate every speed ratio in the table).
fn reference_measurements(
    clips: &[(&'static str, u32, vframe::Video)],
    scenario: Scenario,
) -> Result<Vec<Measurement>, ExperimentError> {
    clips
        .iter()
        .map(|(_, kpixels, video)| {
            Ok(transcode(video, &reference_request_with_native(scenario, video, *kpixels))?
                .measurement)
        })
        .collect()
}

/// Farms one experiment batch, journaled when a [`JournalConfig`] is
/// given (the `tablegen --journal` path) and plain otherwise.
fn farm_batch(
    jobs: &[EngineJob],
    workers: usize,
    policy: &ResilienceConfig,
    journal: Option<&JournalConfig>,
) -> Result<EngineBatchReport, ExperimentError> {
    match journal {
        None => Ok(transcode_batch(&Engine, jobs, workers, policy)?),
        Some(config) => {
            Ok(run_batch_journaled_with_io(&Engine, jobs, workers, policy, config, &StdIo)?)
        }
    }
}

fn hw_scenario_rows(
    scale: Scale,
    names: Option<&[&str]>,
    scenario: Scenario,
    workers: usize,
    policy: &ResilienceConfig,
    journal: Option<&JournalConfig>,
) -> Result<Vec<HwRow>, ExperimentError> {
    let s = suite(scale);
    let clips = generated_videos(&s, names)?;
    let references = reference_measurements(&clips, scenario)?;
    // The paper's tuning: lower the bitrate until quality matches the
    // reference by a small margin; fall back to the ladder target when
    // even max bitrate cannot match. One farm job per (video, vendor) —
    // hardware speed is modelled, not timed, so these rows are
    // worker-count-invariant.
    let jobs: Vec<EngineJob> = clips
        .iter()
        .zip(&references)
        .flat_map(|((name, _, video), reference)| {
            let bps = target_bps(video);
            HwVendor::ALL.map(|vendor| {
                EngineJob::new(
                    format!("{name}/{vendor}"),
                    video.clone(),
                    TranscodeRequest::hardware(
                        vendor,
                        RateMode::QualityTarget {
                            target_db: reference.quality_db,
                            lo_bps: bps / 8,
                            hi_bps: bps * 8,
                            fallback_bps: Some(bps),
                        },
                    ),
                )
            })
        })
        .collect();
    let report = farm_batch(&jobs, workers, policy, journal)?.require_complete()?;
    let mut rows = Vec::with_capacity(jobs.len());
    for (((name, _, video), reference), pair) in
        clips.iter().zip(&references).zip(report.results.chunks(HwVendor::ALL.len()))
    {
        for (vendor, result) in HwVendor::ALL.iter().zip(pair) {
            // Invariant: require_complete() above guarantees success.
            let outcome = result.outcome.as_ref().expect("complete batch");
            let score = score_with_video(scenario, video, outcome.measurement(), reference);
            rows.push(HwRow { name, vendor: *vendor, score });
        }
    }
    Ok(rows)
}

/// Renders Table 3 (S, B, VOD score per vendor).
pub fn tab3_table(rows: &[HwRow]) -> TextTable {
    let mut t = TextTable::new(["video", "vendor", "S", "B", "VOD score"]);
    for r in rows {
        t.push_row([
            r.name.to_string(),
            r.vendor.name().to_string(),
            fmt_ratio(r.score.ratios.s),
            fmt_ratio(r.score.ratios.b),
            vbench::report::fmt_score(&r.score),
        ]);
    }
    t
}

/// Renders Table 4 (Q, B, Live score per vendor).
pub fn tab4_table(rows: &[HwRow]) -> TextTable {
    let mut t = TextTable::new(["video", "vendor", "Q", "B", "Live score"]);
    for r in rows {
        t.push_row([
            r.name.to_string(),
            r.vendor.name().to_string(),
            fmt_ratio(r.score.ratios.q),
            fmt_ratio(r.score.ratios.b),
            vbench::report::fmt_score(&r.score),
        ]);
    }
    t
}

/// Figure 9: the VOD (S vs B) and Live (B vs Q) scatters, from the same
/// runs as Tables 3 and 4.
pub fn fig9_table(vod: &[HwRow], live: &[HwRow]) -> TextTable {
    let mut t = TextTable::new(["scenario", "video", "vendor", "x", "y", "gain?"]);
    for r in vod {
        t.push_row([
            "VOD (x=B, y=S)".to_string(),
            r.name.to_string(),
            r.vendor.name().to_string(),
            fmt_ratio(r.score.ratios.b),
            fmt_ratio(r.score.ratios.s),
            if r.score.ratios.s > 1.0 { "speed" } else { "-" }.to_string(),
        ]);
    }
    for r in live {
        t.push_row([
            "Live (x=B, y=Q)".to_string(),
            r.name.to_string(),
            r.vendor.name().to_string(),
            fmt_ratio(r.score.ratios.b),
            fmt_ratio(r.score.ratios.q),
            if r.score.ratios.b >= 1.0 && r.score.ratios.q >= 1.0 { "win" } else { "-" }
                .to_string(),
        ]);
    }
    t
}

/// One next-generation-software result row (Table 5).
#[derive(Clone, Debug)]
pub struct SwRow {
    /// Video name.
    pub name: &'static str,
    /// Encoder family.
    pub family: CodecFamily,
    /// Score result.
    pub score: ScenarioScore,
}

/// The next-generation software families Table 5 measures.
const TAB5_FAMILIES: [CodecFamily; 2] = [CodecFamily::Vp9, CodecFamily::Hevc];

/// Table 5: libvpx-vp9- and libx265-class encoders on the Popular
/// scenario — maximum effort, bitrate bisected to reference quality.
/// The bisection probes fan out across `workers` farm threads under the
/// given resilience policy; every *timed* encode (references and the
/// chosen operating points) runs serially so the S ratios are
/// contention-free at any worker count.
///
/// # Errors
///
/// See [`ExperimentError`].
pub fn tab5_rows(
    scale: Scale,
    names: Option<&[&str]>,
    workers: usize,
    policy: &ResilienceConfig,
    journal: Option<&JournalConfig>,
) -> Result<Vec<SwRow>, ExperimentError> {
    let s = suite(scale);
    let clips = generated_videos(&s, names)?;
    let references = reference_measurements(&clips, Scenario::Popular)?;
    // Bisect each family's bitrate down to iso-quality with the
    // reference; the ladder target is the fallback. One farm job per
    // (video, family) — the farm absorbs the expensive bisection probes;
    // the timed measurement is re-taken serially below.
    let jobs: Vec<EngineJob> = clips
        .iter()
        .zip(&references)
        .flat_map(|((name, _, video), reference)| {
            let bps = target_bps(video);
            TAB5_FAMILIES.map(|family| {
                EngineJob::new(
                    format!("{name}/{family}"),
                    video.clone(),
                    TranscodeRequest::software(
                        family,
                        Preset::VerySlow,
                        RateMode::QualityTarget {
                            target_db: reference.quality_db,
                            lo_bps: bps / 8,
                            hi_bps: bps * 4,
                            fallback_bps: Some(bps),
                        },
                    ),
                )
            })
        })
        .collect();
    let report = farm_batch(&jobs, workers, policy, journal)?.require_complete()?;
    let mut rows = Vec::with_capacity(jobs.len());
    for (((name, _, video), reference), pair) in
        clips.iter().zip(&references).zip(report.results.chunks(TAB5_FAMILIES.len()))
    {
        for (family, result) in TAB5_FAMILIES.iter().zip(pair) {
            // Software speed is wall-clock, and the farmed encode above
            // may have shared cores with other jobs; re-encode the chosen
            // operating point serially so the S ratio is measured the way
            // the reference was. Bytes must not change — only the timing.
            // Invariant: require_complete() above guarantees success, and
            // a QualityTarget run always records its bisected bitrate.
            let outcome = result.outcome.as_ref().expect("complete batch");
            let chosen = outcome.chosen_bps().expect("bisected bitrate");
            let timed = transcode(
                video,
                &TranscodeRequest::software(
                    *family,
                    Preset::VerySlow,
                    RateMode::TwoPassBitrate { bps: chosen },
                ),
            )?;
            assert_eq!(
                timed.output.bytes.as_slice(),
                outcome.bytes(),
                "serial re-encode diverged from farmed encode"
            );
            let score = score_with_video(Scenario::Popular, video, &timed.measurement, reference);
            rows.push(SwRow { name, family: *family, score });
        }
    }
    Ok(rows)
}

/// Renders Table 5 (Q, B, Popular score per family).
pub fn tab5_table(rows: &[SwRow]) -> TextTable {
    let mut t = TextTable::new(["video", "family", "Q", "B", "S", "Popular score"]);
    for r in rows {
        t.push_row([
            r.name.to_string(),
            r.family.to_string(),
            fmt_ratio(r.score.ratios.q),
            fmt_ratio(r.score.ratios.b),
            fmt_ratio(r.score.ratios.s),
            vbench::report::fmt_score(&r.score),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("tiny"), Some(Scale::Tiny));
        assert_eq!(Scale::parse("exp"), Some(Scale::Experiment));
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("bogus"), None);
    }

    #[test]
    fn static_tables_render() {
        assert_eq!(tab1_table().len(), 5);
        assert_eq!(fig1_table().len(), 11);
    }

    #[test]
    fn fig4_has_all_datasets() {
        let t = fig4_coverage();
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn uarch_rows_cover_requested_videos() {
        let rows = uarch_rows(Scale::Tiny, Some(&["desktop", "hall"])).expect("known videos");
        assert_eq!(rows.len(), 2);
        assert!(fig5_table(&rows).len() == 2);
        assert!(fig6_table(&rows).len() == 2);
        assert!(fig7_table(&rows).len() == 2);
        assert_eq!(fig8_table(&rows).len(), 7); // one row per ISA tier
    }

    #[test]
    fn hw_rows_produce_both_vendors() {
        let rows = tab4_rows(Scale::Tiny, Some(&["girl"]), 2, &ResilienceConfig::default(), None)
            .expect("known video");
        assert_eq!(rows.len(), 2);
        let t = tab4_table(&rows);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn sw_rows_produce_both_families() {
        let rows = tab5_rows(Scale::Tiny, Some(&["girl"]), 2, &ResilienceConfig::default(), None)
            .expect("known video");
        assert_eq!(rows.len(), 2);
        assert_eq!(tab5_table(&rows).len(), 2);
    }

    #[test]
    fn unknown_videos_are_typed_errors() {
        assert_eq!(
            uarch_rows(Scale::Tiny, Some(&["nope"])).unwrap_err(),
            ExperimentError::UnknownVideo("nope".to_string())
        );
        assert_eq!(
            tab4_rows(Scale::Tiny, Some(&["nope"]), 2, &ResilienceConfig::default(), None)
                .unwrap_err(),
            ExperimentError::UnknownVideo("nope".to_string())
        );
    }

    #[test]
    fn hw_rows_survive_transient_faults_with_retries() {
        // Inject a transient fault into the first farm job; with one
        // retry the table must come out identical to a clean run.
        let clean = tab4_rows(Scale::Tiny, Some(&["girl"]), 2, &ResilienceConfig::default(), None)
            .expect("clean run");
        let policy = ResilienceConfig::default()
            .with_max_retries(1)
            .with_fault_plan(vfault::FaultPlan::new().with_transient(0, 1));
        let faulted =
            tab4_rows(Scale::Tiny, Some(&["girl"]), 2, &policy, None).expect("retried run");
        assert_eq!(clean.len(), faulted.len());
        for (c, f) in clean.iter().zip(&faulted) {
            assert_eq!(c.score.ratios.b, f.score.ratios.b, "{}", c.name);
            assert_eq!(c.score.ratios.q, f.score.ratios.q, "{}", c.name);
        }
    }
}
