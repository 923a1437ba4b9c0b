//! The vbench command-line tool.
//!
//! Every encode runs through the unified transcode engine; the
//! `--backend` flag selects the software codec (default) or one of the
//! hardware encoder models.
//!
//! ```text
//! vbench suite   [--scale tiny|exp|full]
//! vbench entropy --video <name> [--scale ...]
//! vbench score   --scenario upload|live|vod|popular|platform
//!                --video <name> --family avc|hevc|vp9
//!                --preset ultrafast..veryslow
//!                [--backend software|nvenc|qsv] [--scale ...]
//! vbench transcode --video <name> --family <f> --preset <p>
//!                  [--crf N | --bitrate BPS] [--bframes]
//!                  [--stream] [--window FRAMES]
//!                  [--backend software|nvenc|qsv] --out <file>
//! vbench inspect --in <file>
//! vbench batch   [--workers N] [--backend software|nvenc|qsv] [--scale ...]
//!                [--videos a,b,c] [--stream] [--window FRAMES]
//!                [--max-retries N] [--job-deadline SECS] [--degrade]
//!                [--hedge] [--fault-plan SPEC]
//!                [--journal PATH [--resume]] [--out-dir DIR]
//! vbench dispatch --journal PATH [--procs M] [--workers K-per-proc]
//!                 [--resume] [--status-out FILE] [... the batch flags ...]
//! vbench worker  --journal PATH --worker-id N --run R [--workers K]
//!                [... the batch flags ...]
//! vbench top     --journal PATH [--once] [--interval-ms N]
//! vbench chaos   [--trials N] [--seed S] [--topology batch|dispatch]
//!                [--procs M] [--workers K] [--dir DIR] [--out FILE]
//!                [--videos a,b,c] [--scale ...] [--backend ...]
//!                [--inject-unsynced-rename]
//! vbench bench   [--name NAME] [--runs N] [--out FILE]
//!                [--workers K] [--scale ...]
//! vbench serve   --scenario upload|popular|live --offered-load L
//!                --duration SECS [--capacity N] [--queue-depth Q]
//!                [--seed S] [--catalog C] [--workers K]
//!                [--journal PATH] [--max-shed-rate PCT] [--scale ...]
//! vbench saturate --scenario upload|popular|live --duration SECS
//!                 [--loads l1,l2,...] [--capacity N] [--queue-depth Q]
//!                 [--seed S] [--catalog C] [--workers K] [--out FILE]
//!                 [--journal PATH] [--max-shed-rate PCT] [--scale ...]
//! vbench plan    --scenario upload|popular|live --offered-load L
//!                --duration SECS [--seed S] [--catalog C]
//!                [--workers K] [--out FILE] [--scale ...]
//! ```
//!
//! `--workers 0` (or omitting the flag) auto-detects the worker count
//! from the machine's available parallelism; the resolved count is
//! reported in the batch summary line.
//!
//! `dispatch` runs the batch across `--procs` worker *processes* (each
//! with `--workers` encoding threads). Results go to the shared
//! `--journal` file, which ends up holding manifest, run and job records
//! only; the processes coordinate through lease, heartbeat and done
//! records in a ledger file the dispatcher starts afresh beside it on
//! every run, `<journal>.ledger`. The dispatcher reaps dead workers,
//! expires their leases so survivors reclaim the jobs, and respawns
//! replacements; outputs stay byte-identical to a single-process run at
//! any topology. `worker` is the child-process side — spawned by
//! `dispatch`, not normally run by hand; it is handed the journal's path
//! and finds the ledger from it.
//!
//! `top` monitors a running dispatch *read-only*: given the same
//! `--journal` path it tails that journal's ledger file — never the
//! journal — and renders per-worker state (in-flight job, heartbeat,
//! completion counts). `--once` prints a single deterministic snapshot —
//! a pure function of the ledger bytes, no clocks — and exits; without it the view refreshes every
//! `--interval-ms` (default 500) until the batch completes, adding the
//! clock-derived throughput and ETA lines. The dispatcher's
//! `--status-out FILE` writes the same snapshot as a machine-readable
//! `status.json` (atomic rename, schema in DESIGN.md) every ~500ms.
//!
//! `bench` runs a pinned workload (the suite at `--scale`, in-process)
//! `--runs` times and writes `BENCH_<name>.json`: schema-versioned
//! per-scenario encode-time/throughput/quality stats plus an
//! environment fingerprint, the input format of `vprof compare`.
//!
//! `--stream` runs the bounded-memory pull pipeline: frames are rendered
//! off the synthetic source as the encoder asks for them and dropped as
//! soon as they stop being referenceable, so clips are never resident.
//! Output is byte-identical to the in-memory path; `--window` caps the
//! resident-frame budget (it must be at least the configuration's
//! structural minimum), and the peak actually reached is reported through
//! the tracing gauges (`encode.peak_resident_frames`,
//! `farm.peak_resident_frames`), never on stdout.
//!
//! The batch resilience flags map onto
//! [`vbench::resilience::ResilienceConfig`]: `--fault-plan` takes a
//! comma-separated [`vfault::FaultPlan`] spec such as
//! `transient=0,panic=3,straggle=1:0.2,seed=7` (see `vfault` docs for
//! the grammar), `--degrade` downshifts the preset one notch when a
//! retry follows a `--job-deadline` miss, and `--hedge` enables
//! straggler hedging with the default policy. A batch with failed jobs
//! prints every per-job status and exits 1.
//!
//! `--journal PATH` makes the batch durable: every completed job is
//! appended to a crash-consistent JSONL journal (fsync per record, with
//! the bitstream's CRC-32). After a crash — real or injected via a
//! `crash=JOB@POINT` fault-plan term — rerunning the same command with
//! `--resume` replays the journaled jobs (CRC-verified, byte-identical,
//! zero re-encode) and finishes only the missing ones. `--out-dir DIR`
//! writes each completed job's bitstream to `DIR/<video>.vbs`, and
//! `--videos` restricts the batch to the named suite clips.
//!
//! `--io-fault-plan SPEC` (on `batch` with `--journal`, `dispatch`, and
//! `worker`) routes the journal's durable IO through the storage-fault
//! layer: a seeded [`vfault::IoFaultPlan`] spec such as
//! `short=journal@2,lie=journal@0` injects torn writes, write/fsync
//! EIO, ENOSPC, lying fsyncs, and rename failures keyed on (file class,
//! op index), so a failing schedule replays bit-exactly. On `dispatch`
//! the spec arms the *initial wave* of workers; replacements run clean.
//!
//! `chaos` is the storage-fault auditor built on that layer: `--trials`
//! seeded trials of the batch (`--topology batch`, with simulated power
//! cuts) or dispatch (`--topology dispatch`, with scripted worker
//! kills) backend under randomized crash + IO-fault schedules, each
//! recovered with clean resumes and checked against the durability
//! invariants (no fsync-acknowledged record lost, zero replay
//! re-encodes, exactly one durable record per job, outputs
//! byte-identical to an uninterrupted run, status snapshots
//! all-or-nothing). The schema-versioned `CHAOS_<topology>.json` report
//! carries every trial's reproducing fault schedule; any violation
//! exits 6. `--inject-unsynced-rename` deliberately reintroduces the
//! classic rename-before-fsync snapshot bug to demonstrate the auditor
//! catches it. Chaos always runs a fixed clean resilience policy —
//! retry/hedge/deadline flags are not part of the audited surface.
//!
//! Every command additionally accepts the telemetry flags:
//!
//! ```text
//! --log-level off|summary|verbose   recording level (default off)
//! --trace-out <path>                write the JSONL event stream here
//!                                   (implies at least --log-level summary)
//! ```
//!
//! Tracing writes only to stderr and the `--trace-out` file; report
//! output on stdout is byte-identical with tracing on or off.
//!
//! `serve` runs the admission-controlled service once at a fixed
//! offered load; `saturate` sweeps offered load (defaulting to a grid
//! around the estimated saturation point) and writes the
//! `SAT_<scenario>.json` report rendered by `vprof sat`. Both simulate
//! admission/scheduling in deterministic virtual time and then encode
//! the admitted (video, degradation) mix for real — `--workers` only
//! changes wall-clock time, never a byte of stdout or of the report.
//! With `--journal PATH` the encode batch is crash-consistent and every
//! shed lands as a durable `shed` record. `--max-shed-rate PCT` is a
//! QoS gate: a run whose shed rate exceeds it exits 4.
//!
//! `plan` is the cost plane's front door: it prices the scenario's
//! arrival stream on every instance type in the [`vhw::InstanceCatalog`]
//! (content-feature cost prediction, calibrated against real encodes),
//! plans a dollar-minimal fleet per deadline multiplier, and writes the
//! `PARETO_<scenario>.json` cost-QoS frontier rendered by `vprof
//! pareto` — byte-identical at any `--workers`, with a real-encode
//! fingerprint over the planned job set as proof.
//!
//! Exit codes: 0 success, 1 transcode/IO failure, 2 usage error,
//! 3 simulated crash (a scripted crash fault fired — the journal is
//! left exactly as a real mid-run death would leave it), 4 QoS gate
//! (`--max-shed-rate` exceeded), 5 infeasible plan (`vbench plan` found
//! a job no catalog instance finishes inside the scenario deadline),
//! 6 chaos invariant violation (`vbench chaos` caught a recovery bug;
//! the report carries the reproducing seeds). The full table shared by
//! every workspace binary lives in [`vbench::cli`].

use std::collections::HashMap;

use vbench::chaos::{run_chaos, ChaosOptions, ChaosScenario};
use vbench::cli;
use vbench::engine::{transcode, Backend, Engine, RateMode, TranscodeRequest};
use vbench::exec::{
    merge_trace_files, run_dispatch_with_io, run_worker_with_io, snapshot_from_journal,
    write_atomic_io, DispatchOptions, FaultedIo, JournalIo, StdIo, WorkerOptions,
};
use vbench::farm::{transcode_batch, EngineBatchReport, EngineJob, JobSource};
use vbench::fleet::pareto_report;
use vbench::journal::{run_batch_journaled_with_io, JournalConfig, JournalError};
use vbench::reference::{reference_encode_with_native, reference_request_for, target_bps_for};
use vbench::report::{fmt_ratio, fmt_score, TextTable};
use vbench::resilience::{HedgePolicy, ResilienceConfig};
use vbench::scenario::{score_with_video, Scenario};
use vbench::service::{
    degraded_saturation_load, estimated_saturation_load, run_saturation, run_service,
    video_profiles, SatPoint, ServiceConfig, ServiceError, ServiceOutcome,
};
use vbench::suite::{Suite, SuiteOptions};
use vcodec::{CodecFamily, Preset};
use vhw::{HwVendor, InstanceCatalog};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
    };
    let flags = parse_flags(&args[1..]);
    init_tracing(&flags);
    let opts = match flags.get("scale").map(String::as_str) {
        None | Some("tiny") => SuiteOptions::tiny(),
        Some("exp") | Some("experiment") => SuiteOptions::experiment(),
        Some("full") => SuiteOptions::default(),
        Some(other) => die(&format!("unknown scale '{other}'")),
    };
    match cmd.as_str() {
        "suite" => cmd_suite(&opts),
        "entropy" => cmd_entropy(&opts, &flags),
        "score" => cmd_score(&opts, &flags),
        "transcode" => cmd_transcode(&opts, &flags),
        "inspect" => cmd_inspect(&flags),
        "batch" => cmd_batch(&opts, &flags),
        "dispatch" => cmd_dispatch(&opts, &flags),
        "worker" => cmd_worker(&opts, &flags),
        "top" => cmd_top(&flags),
        "chaos" => cmd_chaos(&opts, &flags),
        "bench" => cmd_bench(&opts, &flags),
        "serve" => cmd_serve(&opts, &flags),
        "saturate" => cmd_saturate(&opts, &flags),
        "plan" => cmd_plan(&opts, &flags),
        other => die(&format!("unknown command '{other}'")),
    }
    finish_tracing();
}

/// Configures vtrace from `--log-level` / `--trace-out` via the shared
/// [`cli`] plumbing. Requesting a trace file with the level still off
/// lifts it to `summary` — an empty trace would defeat the point of
/// asking for one.
fn init_tracing(flags: &HashMap<String, String>) {
    cli::init_tracing(
        "vbench",
        flags.get("log-level").map(String::as_str),
        flags.get("trace-out").cloned(),
    );
}

/// Flushes the trace through the shared [`cli`] plumbing.
fn finish_tracing() {
    cli::finish_tracing("vbench");
}

fn usage() -> ! {
    eprintln!(
        "usage: vbench <suite|entropy|score|transcode|inspect|batch|dispatch|worker|top|chaos\
         |bench|serve|saturate|plan> [flags]\n\
         see crates/core/src/bin/vbench.rs for the flag reference"
    );
    std::process::exit(cli::EXIT_USAGE);
}

/// Usage error: bad command line. Exit 2, before any work ran.
fn die(msg: &str) -> ! {
    cli::die("vbench", msg)
}

/// Runtime error: a transcode or I/O operation failed. Logged through
/// vtrace (always reaches stderr), the trace is still flushed, exit 1 —
/// distinct from usage errors so scripts can tell them apart.
fn fail(msg: &str) -> ! {
    cli::fail("vbench", msg)
}

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let Some(name) = args[i].strip_prefix("--") else {
            die(&format!("expected a --flag, got '{}'", args[i]));
        };
        // Boolean flags take no value.
        if matches!(
            name,
            "bframes"
                | "hedge"
                | "degrade"
                | "stream"
                | "resume"
                | "once"
                | "inject-unsynced-rename"
        ) {
            map.insert(name.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        let value = args.get(i + 1).unwrap_or_else(|| die(&format!("--{name} needs a value")));
        map.insert(name.to_string(), value.clone());
        i += 2;
    }
    map
}

fn required<'a>(flags: &'a HashMap<String, String>, name: &str) -> &'a str {
    flags.get(name).map(String::as_str).unwrap_or_else(|| die(&format!("--{name} is required")))
}

/// The `--window` resident-frame cap, if given (requires `--stream`).
fn stream_window(flags: &HashMap<String, String>) -> Option<usize> {
    let window = flags.get("window").map(|w| {
        let n: usize = w.parse().unwrap_or_else(|_| die("--window must be a frame count"));
        if n == 0 {
            die("--window must be positive");
        }
        n
    });
    if window.is_some() && !flags.contains_key("stream") {
        die("--window requires --stream");
    }
    window
}

fn parse_family(s: &str) -> CodecFamily {
    match s {
        "avc" => CodecFamily::Avc,
        "hevc" => CodecFamily::Hevc,
        "vp9" => CodecFamily::Vp9,
        "av1" => CodecFamily::Av1,
        other => die(&format!("unknown family '{other}' (avc|hevc|vp9|av1)")),
    }
}

fn parse_preset(s: &str) -> Preset {
    match s {
        "ultrafast" => Preset::UltraFast,
        "veryfast" => Preset::VeryFast,
        "fast" => Preset::Fast,
        "medium" => Preset::Medium,
        "slow" => Preset::Slow,
        "veryslow" => Preset::VerySlow,
        other => die(&format!("unknown preset '{other}'")),
    }
}

/// The hardware vendor selected by `--backend`, or `None` for software.
fn hw_vendor(flags: &HashMap<String, String>) -> Option<HwVendor> {
    match flags.get("backend").map(String::as_str) {
        None | Some("software") | Some("sw") => None,
        Some("nvenc") => Some(HwVendor::Nvenc),
        Some("qsv") => Some(HwVendor::Qsv),
        Some(other) => die(&format!("unknown backend '{other}' (software|nvenc|qsv)")),
    }
}

fn backend_for(flags: &HashMap<String, String>, family: CodecFamily) -> Backend {
    match hw_vendor(flags) {
        None => Backend::Software(family),
        Some(vendor) => Backend::Hardware(vendor),
    }
}

/// Hardware rate control is single pass; a two-pass request routed to an
/// ASIC runs its single-pass mode at the same target.
fn adapt_rate(backend: Backend, rate: RateMode) -> RateMode {
    match (backend, rate) {
        (Backend::Hardware(_), RateMode::TwoPassBitrate { bps }) => RateMode::Bitrate { bps },
        _ => rate,
    }
}

fn parse_scenario(s: &str) -> Scenario {
    match s {
        "upload" => Scenario::Upload,
        "live" => Scenario::Live,
        "vod" => Scenario::Vod,
        "popular" => Scenario::Popular,
        "platform" => Scenario::Platform,
        other => die(&format!("unknown scenario '{other}'")),
    }
}

fn cmd_suite(opts: &SuiteOptions) {
    let suite = Suite::vbench(opts);
    let mut t = TextTable::new(["name", "resolution", "fps", "published entropy", "class"]);
    for v in &suite {
        t.push_row([
            v.name.to_string(),
            v.spec.resolution.to_string(),
            v.category.fps.to_string(),
            format!("{:.1}", v.category.entropy),
            format!("{:?}", v.spec.class),
        ]);
    }
    print!("{t}");
}

fn cmd_entropy(opts: &SuiteOptions, flags: &HashMap<String, String>) {
    let suite = Suite::vbench(opts);
    let name = required(flags, "video");
    let entry = suite.by_name(name).unwrap_or_else(|| die(&format!("no suite video '{name}'")));
    let video = entry.generate();
    let e = vbench::reference::measure_entropy(&video);
    println!(
        "{name}: measured {e:.2} bit/pix/s at CRF 18 (published category: {:.1})",
        entry.category.entropy
    );
}

fn cmd_score(opts: &SuiteOptions, flags: &HashMap<String, String>) {
    let suite = Suite::vbench(opts);
    let name = required(flags, "video");
    let entry = suite.by_name(name).unwrap_or_else(|| die(&format!("no suite video '{name}'")));
    let scenario = parse_scenario(required(flags, "scenario"));
    let family = parse_family(required(flags, "family"));
    let preset = parse_preset(required(flags, "preset"));
    let video = entry.generate();
    let (reference, _) = reference_encode_with_native(scenario, &video, entry.category.kpixels);
    let backend = backend_for(flags, family);
    let rate =
        adapt_rate(backend, vbench::reference::reference_config(scenario, &video).rate.into());
    let req = TranscodeRequest::new(backend, preset, rate);
    let outcome = transcode(&video, &req).unwrap_or_else(|e| fail(&e.to_string()));
    let s = score_with_video(scenario, &video, &outcome.measurement, &reference);
    let mut t = TextTable::new(["video", "scenario", "S", "B", "Q", "valid", "score"]);
    t.push_row([
        name.to_string(),
        scenario.to_string(),
        fmt_ratio(s.ratios.s),
        fmt_ratio(s.ratios.b),
        fmt_ratio(s.ratios.q),
        s.valid.to_string(),
        fmt_score(&s),
    ]);
    print!("{t}");
}

fn cmd_transcode(opts: &SuiteOptions, flags: &HashMap<String, String>) {
    let suite = Suite::vbench(opts);
    let name = required(flags, "video");
    let entry = suite.by_name(name).unwrap_or_else(|| die(&format!("no suite video '{name}'")));
    let family = parse_family(required(flags, "family"));
    let preset = parse_preset(required(flags, "preset"));
    let backend = backend_for(flags, family);
    let rate = match (flags.get("crf"), flags.get("bitrate")) {
        (Some(crf), None) => RateMode::ConstQuality {
            crf: crf.parse().unwrap_or_else(|_| die("--crf must be a number")),
        },
        (None, Some(bps)) => adapt_rate(
            backend,
            RateMode::TwoPassBitrate {
                bps: bps.parse().unwrap_or_else(|_| die("--bitrate must be an integer")),
            },
        ),
        _ => die("exactly one of --crf or --bitrate is required"),
    };
    let mut req = TranscodeRequest::new(backend, preset, rate);
    if flags.contains_key("bframes") {
        req = req.with_bframes();
    }
    let window = stream_window(flags);
    if let Some(w) = window {
        req = req.with_window(w);
    }
    // Streaming pulls frames straight off the synthetic source — the
    // clip is never materialized — and prints the identical report line
    // (bitstream, bitrate, and quality are byte-/bit-identical; only the
    // wall-clock speed figure can vary, as it does run to run anyway).
    let (bytes, m) = if flags.contains_key("stream") {
        let mut source = entry.spec.source();
        let outcome = vbench::engine::transcode_stream(&mut source, &req)
            .unwrap_or_else(|e| fail(&e.to_string()));
        (outcome.bytes, outcome.measurement)
    } else {
        let video = entry.generate();
        let outcome = transcode(&video, &req).unwrap_or_else(|e| fail(&e.to_string()));
        (outcome.output.bytes, outcome.measurement)
    };
    let path = required(flags, "out");
    std::fs::write(path, &bytes).unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
    println!(
        "{name} -> {path} via {backend}: {} bytes, {:.3} bit/pix/s, {:.2} dB, {:.2} Mpix/s",
        bytes.len(),
        m.bitrate_bpps,
        m.quality_db,
        m.speed_mpps()
    );
}

fn cmd_inspect(flags: &HashMap<String, String>) {
    let path = required(flags, "in");
    let bytes = std::fs::read(path).unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
    let info = vcodec::probe_stream(&bytes).unwrap_or_else(|e| fail(&format!("{e}")));
    println!(
        "{path}: {} {} @ {:.3} fps, {} frames, gop {}, backend {:?}, deblock {}",
        info.family, info.resolution, info.fps, info.frames, info.gop, info.backend, info.deblock
    );
    let index = vpack::index(&bytes).unwrap_or_else(|e| fail(&format!("{e}")));
    let keys = index.iter().filter(|e| e.intra).count();
    println!("{} frame records, {keys} keyframes, crc32 {:08x}", index.len(), vpack::crc32(&bytes));
}

/// Builds the batch resilience policy from the CLI flags.
fn resilience_from_flags(flags: &HashMap<String, String>) -> ResilienceConfig {
    let mut cfg = ResilienceConfig::default();
    if let Some(r) = flags.get("max-retries") {
        cfg = cfg.with_max_retries(
            r.parse().unwrap_or_else(|_| die("--max-retries must be an integer")),
        );
    }
    if let Some(d) = flags.get("job-deadline") {
        let secs: f64 = d.parse().unwrap_or_else(|_| die("--job-deadline must be seconds"));
        if secs <= 0.0 {
            die("--job-deadline must be positive");
        }
        cfg = cfg.with_job_deadline(secs);
    }
    if flags.contains_key("degrade") {
        cfg = cfg.with_degradation();
    }
    if flags.contains_key("hedge") {
        cfg = cfg.with_hedge(HedgePolicy::default());
    }
    if let Some(spec) = flags.get("fault-plan") {
        let plan = vfault::FaultPlan::parse(spec).unwrap_or_else(|e| die(&e.to_string()));
        cfg = cfg.with_fault_plan(plan);
    }
    cfg
}

/// Resolves a worker-count flag: `0` or omitted auto-detects from the
/// machine's available parallelism.
fn resolve_workers(flags: &HashMap<String, String>) -> usize {
    let requested: usize = flags
        .get("workers")
        .map(|w| w.parse().unwrap_or_else(|_| die("--workers must be an integer")))
        .unwrap_or(0);
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(4)
    }
}

/// The `--journal`/`--resume` pair, validated.
fn journal_from_flags(flags: &HashMap<String, String>) -> Option<JournalConfig> {
    let journal = flags
        .get("journal")
        .map(|path| JournalConfig::new(path).with_resume(flags.contains_key("resume")));
    if flags.contains_key("resume") && journal.is_none() {
        die("--resume requires --journal");
    }
    journal
}

/// Builds the engine job list from the suite and the job-defining flags
/// (`--videos`, `--backend`, `--stream`, `--window`).
/// Deterministic in the flags: a dispatcher and its worker processes
/// build byte-identical batches from the same argv, which the journal's
/// manifest fingerprint then enforces.
fn build_batch_jobs(opts: &SuiteOptions, flags: &HashMap<String, String>) -> Vec<EngineJob> {
    let suite = Suite::vbench(opts);
    let vendor = hw_vendor(flags);
    let stream = flags.contains_key("stream");
    let window = stream_window(flags);
    let videos: Option<Vec<&str>> = flags.get("videos").map(|v| {
        let names: Vec<&str> = v.split(',').collect();
        for name in &names {
            if suite.by_name(name).is_none() {
                die(&format!("no suite video '{name}' (see `vbench suite`)"));
            }
        }
        names
    });
    suite
        .iter()
        .filter(|v| videos.as_ref().is_none_or(|names| names.contains(&v.name)))
        .map(|v| {
            // Software drains the queue with the VOD reference; hardware
            // runs its single-pass mode at the same ladder target. Both
            // requests derive from source metadata alone, so streaming
            // jobs never materialize their clips.
            let mut request = match vendor {
                None => reference_request_for(Scenario::Vod, v.spec.resolution, v.category.kpixels),
                Some(vendor) => TranscodeRequest::hardware(
                    vendor,
                    RateMode::Bitrate { bps: target_bps_for(v.spec.resolution) },
                ),
            };
            if let Some(w) = window {
                request = request.with_window(w);
            }
            if stream {
                EngineJob::streaming(v.name, JobSource::Synth(v.spec.clone()), request)
            } else {
                EngineJob::new(v.name, v.generate(), request)
            }
        })
        .collect()
}

/// Writes per-job bitstreams to `--out-dir` (if given), prints the
/// per-job table and the summary lines, and returns the failed-job
/// count for the caller's exit decision.
fn report_batch(
    report: &EngineBatchReport,
    jobs: &[EngineJob],
    workers: usize,
    flags: &HashMap<String, String>,
) -> usize {
    if let Some(dir) = flags.get("out-dir") {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| fail(&format!("create {dir}: {e}")));
        for r in &report.results {
            if let Ok(outcome) = &r.outcome {
                let path = format!("{dir}/{}.vbs", r.name);
                std::fs::write(&path, outcome.bytes())
                    .unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
            }
        }
    }
    let mut t = TextTable::new(["video", "status", "attempts", "bytes", "Mpix/s"]);
    for r in &report.results {
        let (status, bytes, mpps) = match &r.outcome {
            Ok(o) => (
                "ok".to_string(),
                o.bytes().len().to_string(),
                format!("{:.2}", o.measurement().speed_mpps()),
            ),
            Err(e) => (format!("FAILED: {e}"), "-".to_string(), "-".to_string()),
        };
        t.push_row([r.name.clone(), status, r.attempts.to_string(), bytes, mpps]);
    }
    print!("{t}");
    let s = &report.summary;
    // How the cost model behind the claim order fit this batch, and how
    // close the schedule came to its bound (nothing to say on a pure
    // replay).
    let fit = report.makespan_bound_ratio(workers).map_or(String::new(), |ratio| {
        let mut errors = report.predict_errors_pct(jobs);
        errors.sort_by(f64::total_cmp);
        format!(
            ", predict error p50 {:.0}% max {:.0}%, wall/bound {ratio:.2}",
            errors[errors.len() / 2],
            errors[errors.len() - 1],
        )
    });
    println!(
        "\n{} jobs on {} workers: {:.2} s wall, {:.1} Mpix/s aggregate, speedup {:.2}x{fit}",
        report.results.len(),
        workers,
        report.wall_secs,
        report.aggregate_pps / 1e6,
        report.speedup()
    );
    println!(
        "resilience: {} completed, {} failed, {} retries, {} hedges, {} deadline misses, \
         {} degraded, {} replayed",
        s.completed, s.failed, s.retries, s.hedges, s.deadline_misses, s.degraded, s.replayed
    );
    s.failed
}

/// The durable-IO layer this process's journal writes go through,
/// picked once: plain [`StdIo`], or with `--io-fault-plan SPEC` the
/// storage-fault layer over the parsed plan (usage error on bad
/// grammar).
fn journal_io_from_flags(flags: &HashMap<String, String>) -> Box<dyn JournalIo> {
    match flags.get("io-fault-plan") {
        None => Box::new(StdIo),
        Some(spec) => {
            let plan = vfault::IoFaultPlan::parse(spec).unwrap_or_else(|e| die(&e.to_string()));
            Box::new(FaultedIo::new(plan))
        }
    }
}

fn cmd_batch(opts: &SuiteOptions, flags: &HashMap<String, String>) {
    let workers = resolve_workers(flags);
    let policy = resilience_from_flags(flags);
    let journal = journal_from_flags(flags);
    if flags.contains_key("io-fault-plan") && journal.is_none() {
        die("--io-fault-plan requires --journal (it faults durable IO)");
    }
    let io = journal_io_from_flags(flags);
    let jobs = build_batch_jobs(opts, flags);
    let report = match &journal {
        None => transcode_batch(&Engine, &jobs, workers, &policy)
            .unwrap_or_else(|e| fail(&e.to_string())),
        Some(config) => {
            match run_batch_journaled_with_io(&Engine, &jobs, workers, &policy, config, &*io) {
                Ok(report) => report,
                // A scripted crash fault fired: the process "died" with
                // the journal exactly as a real crash would leave it.
                // Exit 3 so harnesses can tell a simulated crash from a
                // failure.
                Err(e @ JournalError::Crashed { .. }) => {
                    vtrace::error("vbench", e.to_string());
                    finish_tracing();
                    std::process::exit(3);
                }
                Err(e) => fail(&e.to_string()),
            }
        }
    };
    let failed = report_batch(&report, &jobs, workers, flags);
    if failed > 0 {
        fail(&format!("{failed} job(s) failed after exhausting retries"));
    }
}

/// The job-defining and policy flags a dispatcher forwards verbatim to
/// its worker processes, so every process builds the identical batch
/// (enforced by the journal's manifest fingerprint). `log-level` rides
/// along too: per-frame stage spans only exist in worker traces if the
/// workers record at the dispatcher's verbosity.
const FORWARDED_VALUE_FLAGS: [&str; 8] = [
    "scale",
    "videos",
    "backend",
    "window",
    "max-retries",
    "job-deadline",
    "fault-plan",
    "log-level",
];
const FORWARDED_BOOL_FLAGS: [&str; 3] = ["stream", "degrade", "hedge"];

fn cmd_dispatch(opts: &SuiteOptions, flags: &HashMap<String, String>) {
    let procs: usize = flags
        .get("procs")
        .map(|p| p.parse().unwrap_or_else(|_| die("--procs must be an integer")))
        .unwrap_or(2);
    if procs == 0 {
        die("--procs must be positive");
    }
    let threads = resolve_workers(flags);
    let policy = resilience_from_flags(flags);
    let Some(journal) = journal_from_flags(flags) else {
        die("dispatch requires --journal (the shared results file; its ledger sits beside it)");
    };
    let jobs = build_batch_jobs(opts, flags);
    let worker_exe =
        std::env::current_exe().unwrap_or_else(|e| fail(&format!("find own exe: {e}")));
    let mut worker_args: Vec<String> = vec![
        "worker".to_string(),
        "--journal".to_string(),
        journal.path.display().to_string(),
        "--workers".to_string(),
        threads.to_string(),
    ];
    for key in FORWARDED_VALUE_FLAGS {
        if let Some(value) = flags.get(key) {
            worker_args.push(format!("--{key}"));
            worker_args.push(value.clone());
        }
    }
    for key in FORWARDED_BOOL_FLAGS {
        if flags.contains_key(key) {
            worker_args.push(format!("--{key}"));
        }
    }
    let trace_out = flags.get("trace-out").cloned();
    let dispatch_opts = DispatchOptions {
        procs,
        worker_exe,
        worker_args,
        worker_trace_base: trace_out.clone(),
        journal,
        status_out: flags.get("status-out").map(std::path::PathBuf::from),
        worker_io_fault_spec: flags.get("io-fault-plan").cloned(),
    };
    // The dispatcher's own IO is never faulted: `--io-fault-plan` arms
    // the workers (see `worker_io_fault_spec`).
    let outcome = run_dispatch_with_io(&jobs, &policy, &dispatch_opts, &StdIo)
        .unwrap_or_else(|e| fail(&e.to_string()));
    let failed = report_batch(&outcome.report, &jobs, procs * threads, flags);
    // Epilogue without `fail()`: flush this process's trace first, then
    // splice the worker traces onto it — a second drain would truncate
    // the merged file, so exit explicitly instead of returning to main.
    finish_tracing();
    if let Some(base) = &trace_out {
        if let Err(e) = merge_trace_files(std::path::Path::new(base), &outcome.worker_traces) {
            eprintln!("[error] vbench: merge worker traces into {base}: {e}");
            std::process::exit(1);
        }
    }
    if failed > 0 {
        eprintln!("vbench: {failed} job(s) failed after exhausting retries");
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn cmd_worker(opts: &SuiteOptions, flags: &HashMap<String, String>) {
    let threads = resolve_workers(flags);
    let journal = required(flags, "journal");
    let worker_id: usize = required(flags, "worker-id")
        .parse()
        .unwrap_or_else(|_| die("--worker-id must be an integer"));
    let run: u32 =
        required(flags, "run").parse().unwrap_or_else(|_| die("--run must be an integer"));
    let policy = resilience_from_flags(flags);
    let jobs = build_batch_jobs(opts, flags);
    let worker_opts =
        WorkerOptions { journal: std::path::PathBuf::from(journal), worker_id, run, threads };
    let io = journal_io_from_flags(flags);
    run_worker_with_io(&Engine, &jobs, &policy, &worker_opts, &*io)
        .unwrap_or_else(|e| fail(&e.to_string()));
}

/// The storage-fault auditor: seeded crash + IO-fault trials against
/// the batch or dispatch backend, recovery-invariant checks, and a
/// `CHAOS_<topology>.json` report with reproducing schedules. Any
/// violation exits 6 ([`cli::EXIT_CHAOS`]).
fn cmd_chaos(opts: &SuiteOptions, flags: &HashMap<String, String>) {
    let trials: u32 = flags
        .get("trials")
        .map(|t| t.parse().unwrap_or_else(|_| die("--trials must be an integer")))
        .unwrap_or(10);
    if trials == 0 {
        die("--trials must be positive");
    }
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().unwrap_or_else(|_| die("--seed must be an integer")))
        .unwrap_or(0);
    let scenario = match flags.get("topology").map(String::as_str) {
        None | Some("batch") => ChaosScenario::Batch,
        Some("dispatch") => ChaosScenario::Dispatch,
        Some(other) => die(&format!("unknown topology '{other}' (batch|dispatch)")),
    };
    let procs: usize = flags
        .get("procs")
        .map(|p| p.parse().unwrap_or_else(|_| die("--procs must be an integer")))
        .unwrap_or(2);
    if procs == 0 {
        die("--procs must be positive");
    }
    // Trials run the batch several times each; default to a small job
    // set unless the caller picked their own clips.
    let mut flags = flags.clone();
    flags.entry("videos".to_string()).or_insert_with(|| "desktop,cat,girl".to_string());
    // Chaos audits the durability layer under a fixed clean policy;
    // resilience flags would skew the exact encode accounting (I2).
    for policy_flag in ["max-retries", "job-deadline", "degrade", "hedge", "fault-plan"] {
        if flags.contains_key(policy_flag) {
            die(&format!("--{policy_flag} is not a chaos flag (trials use a clean policy)"));
        }
    }
    let jobs = build_batch_jobs(opts, &flags);
    let dir = flags.get("dir").map(std::path::PathBuf::from).unwrap_or_else(|| {
        std::env::temp_dir().join(format!("vbench-chaos-{}", std::process::id()))
    });
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| fail(&format!("create chaos dir {}: {e}", dir.display())));

    let mut chaos = ChaosOptions::batch(&dir);
    chaos.trials = trials;
    chaos.seed = seed;
    chaos.scenario = scenario;
    chaos.workers = resolve_workers(&flags);
    chaos.procs = procs;
    chaos.inject_unsynced_rename = flags.contains_key("inject-unsynced-rename");
    chaos.out = flags.get("out").map(std::path::PathBuf::from);
    if scenario == ChaosScenario::Dispatch {
        chaos.worker_exe =
            Some(std::env::current_exe().unwrap_or_else(|e| fail(&format!("find own exe: {e}"))));
        // Job-defining flags only: workers must rebuild exactly `jobs`
        // under the same clean policy (plus the per-trial crash plan
        // the auditor appends itself).
        for key in ["scale", "videos", "backend", "window"] {
            if let Some(value) = flags.get(key) {
                chaos.worker_forward_args.push(format!("--{key}"));
                chaos.worker_forward_args.push(value.clone());
            }
        }
        if flags.contains_key("stream") {
            chaos.worker_forward_args.push("--stream".to_string());
        }
    }

    let report = run_chaos(&Engine, &jobs, &chaos).unwrap_or_else(|e| fail(&e.to_string()));
    let out = chaos
        .out
        .clone()
        .unwrap_or_else(|| std::path::PathBuf::from(format!("CHAOS_{}.json", scenario.name())));
    report
        .write(&out)
        .unwrap_or_else(|e| fail(&format!("write chaos report {}: {e}", out.display())));
    let violations = report.violations();
    println!(
        "chaos {}: {} trials (seed {}), {} jobs, {} violations -> {}",
        scenario.name(),
        report.trials.len(),
        seed,
        jobs.len(),
        violations,
        out.display()
    );
    for trial in report.trials.iter().filter(|t| !t.violations.is_empty()) {
        for violation in &trial.violations {
            println!(
                "  trial {} (crash '{}', io '{}'): {violation}",
                trial.plan.trial, trial.plan.crash_spec, trial.plan.io_spec
            );
        }
    }
    if violations > 0 {
        cli::fail_chaos(
            "vbench",
            &format!("{violations} recovery-invariant violation(s); see {}", out.display()),
        );
    }
}

/// Live dispatch monitor. Strictly read-only: the only file operation is
/// a whole-file read of the journal's ledger, so a monitor can never
/// perturb the batch it is watching.
fn cmd_top(flags: &HashMap<String, String>) {
    let journal = std::path::PathBuf::from(required(flags, "journal"));
    let snapshot = |journal: &std::path::Path| match snapshot_from_journal(journal) {
        Ok(snap) => snap,
        Err(e) => fail(&format!("read the ledger of {}: {e}", journal.display())),
    };
    if flags.contains_key("once") {
        let Some(snap) = snapshot(&journal) else {
            fail(&format!("{}: no manifest in its ledger (not a dispatch?)", journal.display()));
        };
        print!("{}", snap.render());
        return;
    }
    let interval = std::time::Duration::from_millis(
        flags
            .get("interval-ms")
            .map(|v| v.parse().unwrap_or_else(|_| die("--interval-ms must be an integer")))
            .unwrap_or(500),
    );
    let started = std::time::Instant::now();
    loop {
        if let Some(snap) = snapshot(&journal) {
            let elapsed = started.elapsed().as_secs_f64();
            let throughput = if elapsed > 0.0 { snap.done as f64 / elapsed } else { 0.0 };
            let remaining = snap.jobs.saturating_sub(snap.done);
            // ANSI home+clear keeps the view in place on a terminal and
            // degrades to plain sequential blocks when piped.
            print!("\x1b[H\x1b[2J{}", snap.render());
            if throughput > 0.0 {
                println!(
                    "elapsed {elapsed:.1} s  throughput {throughput:.2} jobs/s  \
                     eta {:.1} s",
                    remaining as f64 / throughput
                );
            } else {
                println!("elapsed {elapsed:.1} s  throughput -  eta -");
            }
            if snap.jobs > 0 && snap.done == snap.jobs {
                return;
            }
        }
        std::thread::sleep(interval);
    }
}

/// Pinned perf workload: runs the suite batch in-process `--runs`
/// times and writes a `BENCH_<name>.json` perf-trajectory document
/// (see `vprof::bench` for the schema and comparison semantics).
fn cmd_bench(opts: &SuiteOptions, flags: &HashMap<String, String>) {
    let name = flags.get("name").cloned().unwrap_or_else(|| "tiny".to_string());
    let runs: u32 = flags
        .get("runs")
        .map(|r| r.parse().unwrap_or_else(|_| die("--runs must be an integer")))
        .unwrap_or(3);
    if runs == 0 {
        die("--runs must be positive");
    }
    let workers = resolve_workers(flags);
    let policy = ResilienceConfig::default();
    // Per-scenario samples: [encode_secs, speed_pps, quality_db,
    // bitrate_bpps] per run.
    let mut samples: std::collections::BTreeMap<String, Vec<[f64; 4]>> = Default::default();
    for _ in 0..runs {
        let jobs = build_batch_jobs(opts, flags);
        let report = transcode_batch(&Engine, &jobs, workers, &policy)
            .unwrap_or_else(|e| fail(&e.to_string()));
        for r in &report.results {
            match &r.outcome {
                Ok(o) => samples.entry(r.name.clone()).or_default().push([
                    o.stats().encode_seconds,
                    o.measurement().speed_pps,
                    o.measurement().quality_db,
                    o.measurement().bitrate_bpps,
                ]),
                Err(e) => fail(&format!("bench job '{}' failed: {e}", r.name)),
            }
        }
    }
    let stats_of = |rows: &[[f64; 4]], col: usize| {
        let column: Vec<f64> = rows.iter().map(|r| r[col]).collect();
        vprof::Stats::from_samples(&column).unwrap_or_default()
    };
    let mut doc = vprof::BenchDoc {
        name: name.clone(),
        runs,
        env: vprof::EnvFingerprint::current(),
        scenarios: Default::default(),
    };
    for (video, rows) in &samples {
        doc.scenarios.insert(
            video.clone(),
            vprof::ScenarioStats {
                encode_secs: stats_of(rows, 0),
                speed_pps: stats_of(rows, 1),
                quality_db: stats_of(rows, 2),
                bitrate_bpps: stats_of(rows, 3),
            },
        );
    }
    let out = flags.get("out").cloned().unwrap_or_else(|| format!("BENCH_{name}.json"));
    std::fs::write(&out, doc.to_json()).unwrap_or_else(|e| fail(&format!("write {out}: {e}")));
    println!(
        "bench '{name}': {} scenario(s) x {runs} run(s) on {workers} workers -> {out}",
        doc.scenarios.len()
    );
}

/// Service scenarios: the three paper scenarios that describe an
/// arrival stream. Vod/Platform score offline measurements and have no
/// front door.
fn parse_service_scenario(s: &str) -> Scenario {
    match s {
        "upload" => Scenario::Upload,
        "popular" => Scenario::Popular,
        "live" => Scenario::Live,
        other => die(&format!("unknown service scenario '{other}' (upload|popular|live)")),
    }
}

/// The shared serve/saturate model flags: `--scenario` and `--duration`
/// (required), `--capacity`, `--queue-depth`, `--seed`, `--catalog`
/// (defaulted). All of these are part of the deterministic model;
/// `--workers` deliberately is not.
fn service_config_from_flags(flags: &HashMap<String, String>, offered_load: f64) -> ServiceConfig {
    let scenario = parse_service_scenario(required(flags, "scenario"));
    let duration: f64 = required(flags, "duration")
        .parse()
        .ok()
        .filter(|&d| d > 0.0)
        .unwrap_or_else(|| die("--duration takes positive virtual seconds"));
    let mut config = ServiceConfig::new(scenario, offered_load, duration);
    if let Some(raw) = flags.get("capacity") {
        config.capacity = raw
            .parse()
            .ok()
            .filter(|&c| c > 0)
            .unwrap_or_else(|| die("--capacity takes a positive server count"));
    }
    if let Some(raw) = flags.get("queue-depth") {
        config.queue_depth = raw
            .parse()
            .ok()
            .filter(|&d| d > 0)
            .unwrap_or_else(|| die("--queue-depth takes a positive bound"));
    }
    if let Some(raw) = flags.get("seed") {
        config.seed = raw.parse().unwrap_or_else(|_| die("--seed takes an integer"));
    }
    if let Some(raw) = flags.get("catalog") {
        config.catalog = raw
            .parse()
            .ok()
            .filter(|&c| c > 0)
            .unwrap_or_else(|| die("--catalog takes a positive video count"));
    }
    config
}

/// Service failure handler: a scripted crash inside the journaled
/// encode batch exits 3 like `batch` does; everything else is a runtime
/// failure.
fn fail_service(e: ServiceError) -> ! {
    if let ServiceError::Journal(je @ JournalError::Crashed { .. }) = &e {
        vtrace::error("vbench", je.to_string());
        finish_tracing();
        std::process::exit(cli::EXIT_CRASH);
    }
    fail(&e.to_string())
}

/// `--max-shed-rate PCT`: the QoS gate. When the observed shed rate
/// exceeds the threshold the run still completes (reports written,
/// trace flushed) but exits 4, so CI can tell "over budget" from
/// "broken".
fn gate_shed_rate(flags: &HashMap<String, String>, shed_rate: f64) {
    if let Some(raw) = flags.get("max-shed-rate") {
        let pct: f64 = raw
            .parse()
            .ok()
            .filter(|&p| p >= 0.0)
            .unwrap_or_else(|| die("--max-shed-rate takes a percentage"));
        let actual = shed_rate * 100.0;
        if actual > pct {
            cli::fail_gate(
                "vbench",
                &format!("shed rate {actual:.2}% exceeds --max-shed-rate {pct}%"),
            );
        }
    }
}

/// One deterministic stdout line per saturation point. Everything here
/// is virtual-time derived, so the output is byte-identical at any
/// worker count — CI diffs it.
fn print_sat_point(p: &SatPoint) {
    println!(
        "load {:>9.3}  offered {:>5}  admitted {:>5}  completed {:>5}  degraded {:>5}  \
         shed {:>5}  drained {:>4}  misses {:>4}  qpeak {:>3}  \
         sojourn p50/p95/p99 us {}/{}/{}",
        p.offered_load,
        p.offered,
        p.admitted,
        p.completed,
        p.degraded,
        p.shed,
        p.drained,
        p.deadline_misses,
        p.queue_peak,
        p.sojourn_p50_us,
        p.sojourn_p95_us,
        p.sojourn_p99_us,
    );
}

/// One admission-controlled service run at a fixed offered load.
fn cmd_serve(opts: &SuiteOptions, flags: &HashMap<String, String>) {
    let offered: f64 = required(flags, "offered-load")
        .parse()
        .ok()
        .filter(|&l| l > 0.0)
        .unwrap_or_else(|| die("--offered-load takes positive jobs per virtual second"));
    let config = service_config_from_flags(flags, offered);
    let profiles = video_profiles(&Suite::vbench(opts), config.scenario);
    let workers = resolve_workers(flags);
    let journal = journal_from_flags(flags);
    let ServiceOutcome { point, proof } =
        run_service(&config, &profiles, &Engine, workers, journal.as_ref())
            .unwrap_or_else(|e| fail_service(e));
    println!(
        "serve {}: capacity {}  queue-depth {}  duration {}s  seed {}  catalog {}",
        required(flags, "scenario"),
        config.capacity,
        config.queue_depth,
        config.duration_secs,
        config.seed,
        config.catalog,
    );
    let report = vbench::service::SatReport::new(&config, std::slice::from_ref(&point), proof);
    print_sat_point(&report.points[0]);
    println!(
        "encodes {}  crc32 {}  bytes {}",
        proof.unique_encodes, proof.encode_crc32, proof.encoded_bytes
    );
    gate_shed_rate(flags, point.shed_rate());
}

/// The saturation study: sweep offered load, write `SAT_<scenario>.json`
/// (atomic rename), print the deterministic per-point table.
fn cmd_saturate(opts: &SuiteOptions, flags: &HashMap<String, String>) {
    let config = service_config_from_flags(flags, 0.0);
    let profiles = video_profiles(&Suite::vbench(opts), config.scenario);
    let loads: Vec<f64> = match flags.get("loads") {
        Some(csv) => csv
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .ok()
                    .filter(|&l: &f64| l > 0.0)
                    .unwrap_or_else(|| die("--loads takes comma-separated positive rates"))
            })
            .collect(),
        // Default grid: from comfortably below the undegraded saturation
        // load (zero sheds expected) up past the *fully-degraded* one —
        // the controller absorbs everything in between by downshifting
        // presets, so only the top points actually shed.
        None => {
            let sat = estimated_saturation_load(&profiles, config.capacity);
            let sat_deg = degraded_saturation_load(&profiles, config.capacity);
            [0.25, 0.5, 0.75, 1.0]
                .iter()
                .map(|m| m * sat)
                .chain([1.25, 1.75, 2.5].iter().map(|m| m * sat_deg))
                .collect()
        }
    };
    if loads.is_empty() {
        die("--loads needs at least one rate");
    }
    let workers = resolve_workers(flags);
    let journal = journal_from_flags(flags);
    let report = run_saturation(&config, &loads, &profiles, &Engine, workers, journal.as_ref())
        .unwrap_or_else(|e| fail_service(e));
    let out = flags.get("out").cloned().unwrap_or_else(|| format!("SAT_{}.json", report.scenario));
    write_atomic_io(&StdIo, std::path::Path::new(&out), &report.to_json())
        .unwrap_or_else(|e| fail(&format!("write {out}: {e}")));
    println!(
        "saturate {}: capacity {}  queue-depth {}  duration {}s  seed {}  catalog {}",
        report.scenario,
        report.capacity,
        report.queue_depth,
        report.duration_secs,
        report.seed,
        report.catalog,
    );
    for p in &report.points {
        print_sat_point(p);
    }
    println!(
        "encodes {}  crc32 {}  bytes {}  -> {out}",
        report.proof.unique_encodes, report.proof.encode_crc32, report.proof.encoded_bytes
    );
    gate_shed_rate(flags, report.max_shed_rate());
}

/// The cost plane: sweep the deadline-multiplier grid, plan a
/// dollar-optimal fleet per point, write `PARETO_<scenario>.json`
/// (atomic rename), print the deterministic frontier table. `--workers`
/// only parallelizes the proof encodes — the report is byte-identical
/// at any worker count (CI `cmp`s it). Exits 5 when the mult-1.0 plan
/// has a job no catalog instance can finish inside the scenario
/// deadline; the report is still written first.
fn cmd_plan(opts: &SuiteOptions, flags: &HashMap<String, String>) {
    let offered: f64 = required(flags, "offered-load")
        .parse()
        .ok()
        .filter(|&l| l > 0.0)
        .unwrap_or_else(|| die("--offered-load takes positive jobs per virtual second"));
    let config = service_config_from_flags(flags, offered);
    let profiles = video_profiles(&Suite::vbench(opts), config.scenario);
    let catalog = InstanceCatalog::default_fleet();
    let workers = resolve_workers(flags);
    let report = pareto_report(&config, &profiles, &catalog, &Engine, workers)
        .unwrap_or_else(|e| fail(&e.to_string()));
    let out =
        flags.get("out").cloned().unwrap_or_else(|| format!("PARETO_{}.json", report.scenario));
    write_atomic_io(&StdIo, std::path::Path::new(&out), &report.to_json())
        .unwrap_or_else(|e| fail(&format!("write {out}: {e}")));
    println!(
        "plan {}: duration {}s  offered-load {}  seed {}  jobs {}  instances {}",
        report.scenario,
        report.duration_secs,
        report.offered_load,
        report.seed,
        report.jobs,
        report.instances.join(","),
    );
    for p in &report.points {
        let fleet: Vec<String> = p
            .fleet
            .iter()
            .zip(&report.instances)
            .filter(|(&n, _)| n > 0)
            .map(|(n, name)| format!("{n}x{name}"))
            .collect();
        println!(
            "mult {:>5.2}  cost ${:<9.4} miss {:>5.3}  baseline ${:<9.4} miss {:>5.3}  \
             fleet [{}]",
            p.deadline_mult,
            p.dollar_cost,
            p.miss_rate,
            p.baseline_dollar_cost,
            p.baseline_miss_rate,
            fleet.join(" "),
        );
    }
    println!(
        "encodes {}  crc32 {}  bytes {}  -> {out}",
        report.proof.unique_encodes, report.proof.encode_crc32, report.proof.encoded_bytes
    );
    if report.infeasible_at_unit_deadline() {
        cli::fail_infeasible(
            "vbench",
            &format!(
                "{}: a job fits no catalog instance inside the scenario deadline",
                report.scenario
            ),
        );
    }
}
