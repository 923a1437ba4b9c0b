//! The vbench command-line tool.
//!
//! Every encode runs through the unified transcode engine; the
//! `--backend` flag selects the software codec (default) or one of the
//! hardware encoder models.
//!
//! Each command's flags are declared once, in [`vbench::cli::VBENCH`];
//! running `vbench` with no arguments prints the usage generated from that
//! table, and a flag outside a command's table is a usage error (exit 2).
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
//! `--stream` renders frames off the synthetic source as the encoder asks
//! for them instead of rendering each clip up front. Every `batch` job
//! runs the bounded-memory pull pipeline either way — frames are dropped
//! as soon as they stop being referenceable — so on `batch` the flag
//! only decides whether clips are materialized first; on `transcode` it
//! chooses that pipeline over the in-memory encode. Output is
//! byte-identical either way; `--window` caps the resident-frame budget
//! (it must be at least the configuration's structural minimum), and the
//! peak actually reached is reported through the tracing gauges
//! (`encode.peak_resident_frames`, `farm.peak_resident_frames`), never
//! on stdout.
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
//! Every command additionally accepts the telemetry flags: `--log-level
//! off|summary|verbose` (recording level, default off) and `--trace-out
//! PATH` (the JSONL event stream; implies at least `--log-level summary`).
//!
//! Tracing writes only to stderr and the `--trace-out` file; report
//! output on stdout is byte-identical with tracing on or off.
//!
//! `serve` runs the admission-controlled service once at a fixed
//! offered load; `saturate` sweeps offered load (defaulting to a grid
//! around the estimated saturation point) and writes the
//! `SAT_<scenario>.json` report. Both print the report's table, the one
//! `vprof sat` renders from the file. Both simulate
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
//! `PARETO_<scenario>.json` cost-QoS frontier — byte-identical at any
//! `--workers`, with a real-encode fingerprint over the planned job set
//! as proof — and prints the frontier table `vprof pareto` renders.
//!
//! Exit codes: 0 success, 1 transcode/IO failure, 2 usage error,
//! 3 simulated crash (a scripted crash fault fired — the journal is
//! left exactly as a real mid-run death would leave it), 4 QoS gate
//! (`--max-shed-rate` exceeded), 5 infeasible plan (`vbench plan` found
//! a job no catalog instance finishes inside the scenario deadline),
//! 6 chaos invariant violation (`vbench chaos` caught a recovery bug;
//! the report carries the reproducing seeds). The full table shared by
//! every workspace binary lives in [`vbench::cli`].

use vbench::chaos::{run_chaos, ChaosOptions, ChaosScenario};
use vbench::cli::{self, Flags};
use vbench::engine::{transcode, Backend, Engine, RateMode, TranscodeRequest};
use vbench::exec::{
    run_dispatch_with_io, run_worker_with_io, snapshot_from_journal, write_atomic_io,
    DispatchOptions, FaultedIo, JournalIo, LedgerWatch, StatusSnapshot, StdIo, WorkerOptions,
};
use vbench::farm::{transcode_batch, EngineBatchReport, EngineJob, JobSource};
use vbench::fleet::pareto_report;
use vbench::journal::{run_batch_journaled_with_io, JournalConfig, JournalError};
use vbench::reference::{reference_encode_with_native, reference_request_for, target_bps_for};
use vbench::report::{fmt_ratio, fmt_score, TextTable};
use vbench::scenario::{score_with_video, Scenario};
use vbench::service::{
    degraded_saturation_load, estimated_saturation_load, run_saturation, run_service, sat_report,
    video_profiles, ServiceConfig, ServiceError, ServiceOutcome,
};
use vbench::suite::{Scale, Suite, SuiteOptions, SuiteVideo};
use vcodec::{CodecFamily, Preset};
use vhw::{HwVendor, InstanceCatalog};
use vtrace::stream::merge_trace_files;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map_or("", String::as_str);
    let Some(command) = cli::VBENCH.iter().find(|c| c.name == name) else {
        if !name.is_empty() {
            eprintln!("vbench: unknown command '{name}'");
        }
        cli::usage("vbench", cli::VBENCH);
    };
    let flags = Flags::parse(format!("vbench {name}"), command, &args[1..]);
    cli::init_tracing(&flags);
    vtrace::info("vbench", format!("isa rung {}", vframe::isa::detected()));
    let opts = flags.get::<Scale>("scale").unwrap_or_default().options();
    match name {
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
        "serve" => cmd_serve(&opts, &flags),
        "saturate" => cmd_saturate(&opts, &flags),
        "plan" => cmd_plan(&opts, &flags),
        other => unreachable!("cli::VBENCH lists '{other}' but main has no handler"),
    }
    cli::finish_tracing("vbench");
}

/// Runtime error: a transcode or I/O operation failed. Logged through
/// vtrace (always reaches stderr), the trace is still flushed, exit 1 —
/// distinct from usage errors so scripts can tell them apart.
fn fail(msg: &str) -> ! {
    cli::fail("vbench", cli::EXIT_RUNTIME, msg)
}

/// The suite entry named by the required `--video`.
fn suite_video<'a>(suite: &'a Suite, flags: &Flags) -> &'a SuiteVideo {
    let name = flags.required("video");
    suite.by_name(name).unwrap_or_else(|| flags.die(&format!("no suite video '{name}'")))
}

/// The `--window` resident-frame cap, if given (requires `--stream`).
fn stream_window(flags: &Flags) -> Option<usize> {
    let window = flags.positive("window");
    if window.is_some() && !flags.switch("stream") {
        flags.die("--window requires --stream");
    }
    window
}

/// The hardware vendor selected by `--backend`, or `None` for software.
fn hw_vendor(flags: &Flags) -> Option<HwVendor> {
    match flags.value("backend") {
        None | Some("software" | "sw") => None,
        Some(_) => flags.choice("backend", &HwVendor::ALL),
    }
}

/// The required `--family` and `--preset`, and the `--backend` that
/// encodes them.
fn encoder(flags: &Flags) -> (Preset, Backend) {
    let family =
        flags.choice("family", &CodecFamily::ALL).unwrap_or_else(|| flags.missing("family"));
    let preset = flags.choice("preset", &Preset::ALL).unwrap_or_else(|| flags.missing("preset"));
    (preset, hw_vendor(flags).map_or(Backend::Software(family), Backend::Hardware))
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

fn cmd_entropy(opts: &SuiteOptions, flags: &Flags) {
    let suite = Suite::vbench(opts);
    let entry = suite_video(&suite, flags);
    let video = entry.generate();
    let e = vbench::reference::measure_entropy(&video);
    println!(
        "{}: measured {e:.2} bit/pix/s at CRF 18 (published category: {:.1})",
        entry.name, entry.category.entropy
    );
}

fn cmd_score(opts: &SuiteOptions, flags: &Flags) {
    let suite = Suite::vbench(opts);
    let entry = suite_video(&suite, flags);
    let scenario =
        flags.choice("scenario", &Scenario::ALL).unwrap_or_else(|| flags.missing("scenario"));
    let (preset, backend) = encoder(flags);
    let video = entry.generate();
    let (reference, _) = reference_encode_with_native(scenario, &video, entry.category.kpixels);
    let rate = backend.adapt(vbench::reference::reference_config(scenario, &video).rate.into());
    let req = TranscodeRequest::new(backend, preset, rate);
    let outcome = transcode(&video, &req).unwrap_or_else(|e| fail(&e.to_string()));
    let s = score_with_video(scenario, &video, &outcome.measurement, &reference);
    let mut t = TextTable::new(["video", "scenario", "S", "B", "Q", "valid", "score"]);
    t.push_row([
        entry.name.to_string(),
        scenario.to_string(),
        fmt_ratio(s.ratios.s),
        fmt_ratio(s.ratios.b),
        fmt_ratio(s.ratios.q),
        s.valid.to_string(),
        fmt_score(&s),
    ]);
    print!("{t}");
}

fn cmd_transcode(opts: &SuiteOptions, flags: &Flags) {
    let suite = Suite::vbench(opts);
    let entry = suite_video(&suite, flags);
    let (preset, backend) = encoder(flags);
    let rate = match (flags.get("crf"), flags.get("bitrate")) {
        (Some(crf), None) => RateMode::ConstQuality { crf },
        (None, Some(bps)) => backend.adapt(RateMode::TwoPassBitrate { bps }),
        _ => flags.die("exactly one of --crf or --bitrate is required"),
    };
    let mut req = TranscodeRequest::new(backend, preset, rate);
    if flags.switch("bframes") {
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
    let (bytes, m) = if flags.switch("stream") {
        let mut source = entry.spec.source();
        let outcome = vbench::engine::transcode_stream(&mut source, &req)
            .unwrap_or_else(|e| fail(&e.to_string()));
        (outcome.bytes, outcome.measurement)
    } else {
        let video = entry.generate();
        let outcome = transcode(&video, &req).unwrap_or_else(|e| fail(&e.to_string()));
        (outcome.output.bytes, outcome.measurement)
    };
    let path = flags.required("out");
    std::fs::write(path, &bytes).unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
    println!(
        "{} -> {path} via {backend}: {} bytes, {:.3} bit/pix/s, {:.2} dB, {:.2} Mpix/s",
        entry.name,
        bytes.len(),
        m.bitrate_bpps,
        m.quality_db,
        m.speed_mpps()
    );
}

fn cmd_inspect(flags: &Flags) {
    let path = flags.required("in");
    let bytes = std::fs::read(path).unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
    let info = vcodec::probe_stream(&bytes).unwrap_or_else(|e| fail(&format!("{e}")));
    let index = vpack::index(&bytes).unwrap_or_else(|e| fail(&format!("{e}")));
    println!(
        "{path}: {} {} @ {:.3} fps, {} frames, gop {}, backend {:?}, deblock {}",
        info.family, info.resolution, info.fps, info.frames, info.gop, info.backend, info.deblock
    );
    let keys = index.iter().filter(|e| e.intra).count();
    println!("{} frame records, {keys} keyframes, crc32 {:08x}", index.len(), vpack::crc32(&bytes));
}

/// The `--journal`/`--resume` pair, validated.
fn journal_from_flags(flags: &Flags) -> Option<JournalConfig> {
    let resume = flags.switch("resume");
    let journal = flags.value("journal").map(|path| JournalConfig::new(path).with_resume(resume));
    if resume && journal.is_none() {
        flags.die("--resume requires --journal");
    }
    journal
}

/// Builds the engine job list from the suite and the job-defining flags
/// ([`cli::JOB`]). Deterministic in the flags: a dispatcher and its
/// worker processes build byte-identical batches from the same argv,
/// which the journal's manifest fingerprint then enforces.
fn build_batch_jobs(opts: &SuiteOptions, flags: &Flags) -> Vec<EngineJob> {
    let suite = Suite::vbench(opts);
    let vendor = hw_vendor(flags);
    let stream = flags.switch("stream");
    let window = stream_window(flags);
    let videos: Option<Vec<&str>> = flags.value("videos").map(|v| {
        let names: Vec<&str> = v.split(',').collect();
        for name in &names {
            if suite.by_name(name).is_none() {
                flags.die(&format!("no suite video '{name}' (see `vbench suite`)"));
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
    flags: &Flags,
) -> usize {
    if let Some(dir) = flags.value("out-dir") {
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
fn journal_io_from_flags(flags: &Flags) -> Box<dyn JournalIo> {
    match flags.value("io-fault-plan") {
        None => Box::new(StdIo),
        Some(spec) => {
            let plan =
                vfault::IoFaultPlan::parse(spec).unwrap_or_else(|e| flags.die(&e.to_string()));
            Box::new(FaultedIo::new(plan))
        }
    }
}

fn cmd_batch(opts: &SuiteOptions, flags: &Flags) {
    let workers = cli::resolve_workers(flags);
    let policy = cli::resilience_from_flags(flags);
    let journal = journal_from_flags(flags);
    if flags.value("io-fault-plan").is_some() && journal.is_none() {
        flags.die("--io-fault-plan requires --journal (it faults durable IO)");
    }
    let io = journal_io_from_flags(flags);
    let jobs = build_batch_jobs(opts, flags);
    let report = match &journal {
        None => transcode_batch(&Engine, &jobs, workers, &policy)
            .unwrap_or_else(|e| fail(&e.to_string())),
        Some(config) => run_batch_journaled_with_io(&Engine, &jobs, workers, &policy, config, &*io)
            .unwrap_or_else(|e| {
                // A scripted crash fault fired: the process "died" with
                // the journal exactly as a real crash would leave it.
                // Exit 3 so harnesses can tell a simulated crash from a
                // failure.
                let crashed = matches!(e, JournalError::Crashed { .. });
                let code = if crashed { cli::EXIT_CRASH } else { cli::EXIT_RUNTIME };
                cli::fail("vbench", code, &e.to_string())
            }),
    };
    let failed = report_batch(&report, &jobs, workers, flags);
    if failed > 0 {
        fail(&format!("{failed} job(s) failed after exhausting retries"));
    }
}

fn cmd_dispatch(opts: &SuiteOptions, flags: &Flags) {
    let procs = flags.positive("procs").unwrap_or(2);
    let threads = cli::resolve_workers(flags);
    let policy = cli::resilience_from_flags(flags);
    let Some(journal) = journal_from_flags(flags) else {
        flags.die(
            "dispatch requires --journal (the shared results file; its ledger sits beside it)",
        );
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
    // The job-defining and policy flags go to every worker verbatim, so
    // each process builds the identical batch (enforced by the journal's
    // manifest fingerprint). `log-level` rides along too: per-frame stage
    // spans only exist in worker traces if the workers record at the
    // dispatcher's verbosity.
    worker_args.extend(flags.forward(&[cli::SCALE, cli::JOB, cli::POLICY, "--log-level"]));
    let trace_out = flags.value("trace-out").map(str::to_string);
    let dispatch_opts = DispatchOptions {
        procs,
        worker_exe,
        worker_args,
        worker_trace_base: trace_out.clone(),
        journal,
        status_out: flags.value("status-out").map(std::path::PathBuf::from),
        worker_io_fault_spec: flags.value("io-fault-plan").map(str::to_string),
    };
    // The dispatcher's own IO is never faulted: `--io-fault-plan` arms
    // the workers (see `worker_io_fault_spec`).
    let outcome = run_dispatch_with_io(&jobs, &policy, &dispatch_opts, &StdIo)
        .unwrap_or_else(|e| fail(&e.to_string()));
    let failed = report_batch(&outcome.report, &jobs, procs * threads, flags);
    // Epilogue without `fail()`: flush this process's trace first, then
    // splice the worker traces onto it — a second drain would truncate
    // the merged file, so exit explicitly instead of returning to main.
    cli::finish_tracing("vbench");
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

fn cmd_worker(opts: &SuiteOptions, flags: &Flags) {
    let threads = cli::resolve_workers(flags);
    let journal = flags.required("journal");
    let worker_id = flags.get("worker-id").unwrap_or_else(|| flags.missing("worker-id"));
    let run = flags.get("run").unwrap_or_else(|| flags.missing("run"));
    let policy = cli::resilience_from_flags(flags);
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
/// violation exits 6 ([`cli::EXIT_CHAOS`]). Its table has no policy
/// flags: trials run a fixed clean policy.
fn cmd_chaos(opts: &SuiteOptions, flags: &Flags) {
    let trials = flags.positive("trials").unwrap_or(10);
    let seed = flags.get("seed").unwrap_or(0);
    let scenario = match flags.value("topology") {
        None | Some("batch") => ChaosScenario::Batch,
        Some("dispatch") => ChaosScenario::Dispatch,
        Some(other) => flags.die(&format!("unknown topology '{other}' (batch|dispatch)")),
    };
    let procs = flags.positive("procs").unwrap_or(2);
    // Trials run the batch several times each; default to a small job
    // set unless the caller picked their own clips.
    let mut flags = flags.clone();
    flags.set_default("videos", "desktop,cat,girl");
    let jobs = build_batch_jobs(opts, &flags);
    let dir = flags.value("dir").map(std::path::PathBuf::from).unwrap_or_else(|| {
        std::env::temp_dir().join(format!("vbench-chaos-{}", std::process::id()))
    });
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| fail(&format!("create chaos dir {}: {e}", dir.display())));

    let mut chaos = ChaosOptions::batch(&dir);
    chaos.trials = trials;
    chaos.seed = seed;
    chaos.scenario = scenario;
    chaos.workers = cli::resolve_workers(&flags);
    chaos.procs = procs;
    chaos.inject_unsynced_rename = flags.switch("inject-unsynced-rename");
    chaos.out = flags.value("out").map(std::path::PathBuf::from);
    if scenario == ChaosScenario::Dispatch {
        chaos.worker_exe =
            Some(std::env::current_exe().unwrap_or_else(|e| fail(&format!("find own exe: {e}"))));
        // Job-defining flags only: workers must rebuild exactly `jobs`
        // under the same clean policy (plus the per-trial crash plan
        // the auditor appends itself).
        chaos.worker_forward_args = flags.forward(&[cli::SCALE, cli::JOB]);
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
        cli::fail(
            "vbench",
            cli::EXIT_CHAOS,
            &format!("{violations} recovery-invariant violation(s); see {}", out.display()),
        );
    }
}

/// Live dispatch monitor. Strictly read-only: the only file operation is
/// a whole-file read of the journal's ledger, so a monitor can never
/// perturb the batch it is watching. Each refresh parses only the ledger
/// lines appended since the previous one.
fn cmd_top(flags: &Flags) {
    let journal = std::path::PathBuf::from(flags.required("journal"));
    let read = |snap: std::io::Result<Option<StatusSnapshot>>| {
        snap.unwrap_or_else(|e| fail(&format!("read the ledger of {}: {e}", journal.display())))
    };
    if flags.switch("once") {
        let Some(snap) = read(snapshot_from_journal(&journal)) else {
            fail(&format!("{}: no manifest in its ledger (not a dispatch?)", journal.display()));
        };
        print!("{}", snap.render());
        return;
    }
    let interval = std::time::Duration::from_millis(flags.get("interval-ms").unwrap_or(500));
    let started = std::time::Instant::now();
    let mut watch = LedgerWatch::new(&journal);
    loop {
        if let Some(snap) = read(watch.snapshot()) {
            let elapsed = started.elapsed().as_secs_f64();
            // ANSI home+clear keeps the view in place on a terminal and
            // degrades to plain sequential blocks when piped.
            print!("\x1b[H\x1b[2J{}", snap.render());
            match snap.progress(elapsed) {
                (throughput, Some(eta)) => println!(
                    "elapsed {elapsed:.1} s  throughput {throughput:.2} jobs/s  eta {eta:.1} s"
                ),
                (_, None) => println!("elapsed {elapsed:.1} s  throughput -  eta -"),
            }
            // A zero-job batch is done from the start.
            if snap.done == snap.jobs {
                return;
            }
        }
        std::thread::sleep(interval);
    }
}

/// Service scenarios: the three paper scenarios that describe an
/// arrival stream. Vod/Platform score offline measurements and have no
/// front door.
const SERVICE_SCENARIOS: [Scenario; 3] = [Scenario::Upload, Scenario::Popular, Scenario::Live];

/// The shared serve/saturate/plan model flags ([`cli::SERVICE`]):
/// `--scenario` and `--duration` (required), `--capacity`,
/// `--queue-depth`, `--seed`, `--catalog` (defaulted). All of these are
/// part of the deterministic model; `--workers` deliberately is not. A
/// seed above 2^53 is refused: the SAT and PARETO documents carry it as
/// a JSON number, which holds integers exactly only up to there.
fn service_config_from_flags(flags: &Flags, offered_load: f64) -> ServiceConfig {
    let scenario =
        flags.choice("scenario", &SERVICE_SCENARIOS).unwrap_or_else(|| flags.missing("scenario"));
    let duration = flags.positive("duration").unwrap_or_else(|| flags.missing("duration"));
    let mut config = ServiceConfig::new(scenario, offered_load, duration);
    config.capacity = flags.positive("capacity").unwrap_or(config.capacity);
    config.queue_depth = flags.positive("queue-depth").unwrap_or(config.queue_depth);
    config.seed = flags.get("seed").unwrap_or(config.seed);
    if config.seed > 1 << 53 {
        flags.die("--seed must be at most 2^53 = 9007199254740992");
    }
    config.catalog = flags.positive("catalog").unwrap_or(config.catalog);
    config
}

/// Service failure handler: a scripted crash inside the journaled
/// encode batch exits 3 like `batch` does; everything else is a runtime
/// failure.
fn fail_service(e: ServiceError) -> ! {
    let crashed = matches!(e, ServiceError::Journal(JournalError::Crashed { .. }));
    cli::fail("vbench", if crashed { cli::EXIT_CRASH } else { cli::EXIT_RUNTIME }, &e.to_string())
}

/// `--max-shed-rate PCT`: the QoS gate. When the observed shed rate
/// exceeds the threshold the run still completes (reports written,
/// trace flushed) but exits 4, so CI can tell "over budget" from
/// "broken".
fn gate_shed_rate(flags: &Flags, shed_rate: f64) {
    if let Some(pct) = flags.get::<f64>("max-shed-rate") {
        if pct.is_nan() || pct < 0.0 {
            flags.die("--max-shed-rate takes a percentage");
        }
        let actual = shed_rate * 100.0;
        if actual > pct {
            cli::fail(
                "vbench",
                cli::EXIT_GATE,
                &format!("shed rate {actual:.2}% exceeds --max-shed-rate {pct}%"),
            );
        }
    }
}

/// One admission-controlled service run at a fixed offered load.
fn cmd_serve(opts: &SuiteOptions, flags: &Flags) {
    let offered = flags.positive("offered-load").unwrap_or_else(|| flags.missing("offered-load"));
    let config = service_config_from_flags(flags, offered);
    let profiles = video_profiles(&Suite::vbench(opts), config.scenario);
    let workers = cli::resolve_workers(flags);
    let journal = journal_from_flags(flags);
    let ServiceOutcome { point, proof } =
        run_service(&config, &profiles, &Engine, workers, journal.as_ref())
            .unwrap_or_else(|e| fail_service(e));
    print!("{}", sat_report(&config, std::slice::from_ref(&point), proof).render());
    gate_shed_rate(flags, point.shed_rate());
}

/// The saturation study: sweep offered load, write `SAT_<scenario>.json`
/// (atomic rename), print the table `vprof sat` renders from it and the
/// path written.
fn cmd_saturate(opts: &SuiteOptions, flags: &Flags) {
    let config = service_config_from_flags(flags, 0.0);
    let profiles = video_profiles(&Suite::vbench(opts), config.scenario);
    let loads: Vec<f64> = match flags.value("loads") {
        Some(csv) => {
            csv.split(',')
                .map(|s| {
                    s.trim().parse().ok().filter(|&l: &f64| l > 0.0).unwrap_or_else(|| {
                        flags.die("--loads takes comma-separated positive rates")
                    })
                })
                .collect()
        }
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
        flags.die("--loads needs at least one rate");
    }
    let workers = cli::resolve_workers(flags);
    let journal = journal_from_flags(flags);
    let report = run_saturation(&config, &loads, &profiles, &Engine, workers, journal.as_ref())
        .unwrap_or_else(|e| fail_service(e));
    let out =
        flags.value("out").map_or_else(|| format!("SAT_{}.json", report.scenario), str::to_string);
    write_atomic_io(&StdIo, std::path::Path::new(&out), &report.to_json())
        .unwrap_or_else(|e| fail(&format!("write {out}: {e}")));
    println!("{}-> {out}", report.render());
    gate_shed_rate(flags, report.max_shed_rate());
}

/// The cost plane: sweep the deadline-multiplier grid, plan a
/// dollar-optimal fleet per point, write `PARETO_<scenario>.json`
/// (atomic rename), print the frontier table `vprof pareto` renders from
/// it and the path written. `--workers`
/// only parallelizes the proof encodes — the report is byte-identical
/// at any worker count (CI `cmp`s it). Exits 5 when the mult-1.0 plan
/// has a job no catalog instance can finish inside the scenario
/// deadline; the report is still written first.
fn cmd_plan(opts: &SuiteOptions, flags: &Flags) {
    let offered = flags.positive("offered-load").unwrap_or_else(|| flags.missing("offered-load"));
    let config = service_config_from_flags(flags, offered);
    let profiles = video_profiles(&Suite::vbench(opts), config.scenario);
    let catalog = InstanceCatalog::default_fleet();
    let workers = cli::resolve_workers(flags);
    let report = pareto_report(&config, &profiles, &catalog, &Engine, workers)
        .unwrap_or_else(|e| fail(&e.to_string()));
    let out = flags
        .value("out")
        .map_or_else(|| format!("PARETO_{}.json", report.scenario), str::to_string);
    write_atomic_io(&StdIo, std::path::Path::new(&out), &report.to_json())
        .unwrap_or_else(|e| fail(&format!("write {out}: {e}")));
    println!("{}-> {out}", report.render());
    if report.infeasible_at_unit_deadline() {
        cli::fail(
            "vbench",
            cli::EXIT_INFEASIBLE,
            &format!(
                "{}: a job fits no catalog instance inside the scenario deadline",
                report.scenario
            ),
        );
    }
}
