//! One run of one workload: set-up ×5, a discarded warm-up pass, timed
//! passes for `--seconds`, verification, metrics.
//!
//! A *pass* is a journaled batch of the workload's fixed job list into a
//! fresh journal followed by a `--resume` of that journal. The load is a
//! closed loop with one generator: the next pass starts when the previous
//! one has been checked.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use vbench::engine::{Engine, Transcoder};
use vbench::exec::{run_dispatch_with_io, DispatchOptions, JournalIo, StdIo};
use vbench::farm::{EngineBatchReport, JobSource};
use vbench::journal::{run_batch_journaled_with_io, JournalConfig};
use vbench::resilience::ResilienceConfig;
use vfault::FileClass;
use vframe::metrics::psnr_video;

use crate::engine::{NullTranscoder, TimedTranscoder};
use crate::io::{CountingIo, IoTotals, APPENDS, APPEND_BYTES, READS, READ_BYTES, SYNCS};
use crate::record::{Event, Recorder};
use crate::report::Values;
use crate::scan::{scan, JournalScan};
use crate::scratch::{out_dir, Scratch};
use crate::stats::{median, percentile, sorted, Summary};
use crate::trace::{self, Trace, WorkerSide, IDLE, UNATTRIBUTED};
use crate::worker::{parse_side, side_path};
use crate::workload::{journal_path, prepare, Prepared, Workload};
use crate::{alloc, clock, probes, rusage};

/// Set-ups per run, spread over it; `setup_s` is the fastest of them.
const SETUPS: usize = 5;

/// What to run.
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One set-up, one timed pass: a smoke test, NOT COMPARABLE.
    pub quick: bool,
}

/// What a run measured.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

/// One phase (batch or resume) of one pass.
#[derive(Default)]
struct Phase {
    start_ns: u64,
    end_ns: u64,
    /// Dispatch only: when the last job record of the phase was appended
    /// by a worker process.
    last_job_ns: Option<u64>,
    /// IO through the seam in this phase, all processes.
    io: IoTotals,
    /// Bytes the dispatcher itself read (its polling).
    dispatcher_read_bytes: u64,
    cpu_secs: f64,
    /// Largest peak resident set any worker process of the phase reported.
    worker_rss_mb: f64,
    events: Vec<Event>,
    sides: Vec<WorkerSide>,
}

impl Phase {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    /// Seconds until the phase's jobs were done. In-process the call
    /// returns right then. A dispatch goes on to notice on its next poll,
    /// wait for every worker's heartbeat thread (a 100 ms sleep, so the
    /// call's wall lands on a 100 ms grid) and re-read the journal; its jobs
    /// were done when the last job record was appended.
    fn work_secs(&self) -> f64 {
        let done = self.last_job_ns.unwrap_or(self.end_ns).clamp(self.start_ns, self.end_ns);
        (done - self.start_ns) as f64 / 1e9
    }
}

struct Pass {
    traced: bool,
    batch: Phase,
    resume: Phase,
    journal: JournalScan,
    resume_calls: u64,
    failed_jobs: u64,
    /// Encode seconds reported per job (ties recorded calls to jobs).
    job_secs: Vec<f64>,
    /// Quality the encoder reported per job.
    job_db: Vec<f64>,
    stages: BTreeMap<u64, trace::Stages>,
}

struct Harness<'a> {
    cfg: &'a Config,
    workers: usize,
    prepared: &'a Prepared,
    journal: PathBuf,
    worker_exe: PathBuf,
    policy: ResilienceConfig,
    /// Expected bitstream per job: the canned payloads, or for the encode
    /// workloads what the warm-up pass produced.
    reference: Vec<Vec<u8>>,
    problems: Vec<String>,
}

impl Harness<'_> {
    fn problem(&mut self, what: String) {
        if self.problems.len() < 8 {
            println!("PROBLEM: {what}");
        }
        self.problems.push(what);
    }

    fn expected(&self, job: usize) -> Option<&[u8]> {
        let from =
            if self.cfg.workload.is_null() { &self.prepared.payloads } else { &self.reference };
        from.get(job).map(Vec::as_slice)
    }

    /// Runs the batch (or, with `resume`, the replay) once through the
    /// library's public entry points, wrapped from outside.
    fn phase(
        &self,
        engine: &dyn Transcoder,
        io: &CountingIo,
        recorder: &Recorder,
        resume: bool,
    ) -> Result<(Phase, EngineBatchReport), String> {
        let jobs = &self.prepared.jobs;
        let config = JournalConfig::new(&self.journal).with_resume(resume);
        let io_before = io.totals();
        let cpu_before = rusage::cpu_secs_total();
        let start_ns = clock::now_ns();
        let report = if self.cfg.workload == Workload::DispatchNull {
            let opts = DispatchOptions {
                procs: self.workers,
                worker_exe: self.worker_exe.clone(),
                worker_args: self.prepared.worker_args.clone(),
                worker_trace_base: None,
                journal: config,
                status_out: None,
                worker_io_fault_spec: None,
            };
            run_dispatch_with_io(jobs, &self.policy, &opts, io).map(|d| d.report)
        } else {
            run_batch_journaled_with_io(engine, jobs, self.workers, &self.policy, &config, io)
        };
        let end_ns = clock::now_ns();
        let report = report
            .map_err(|e| format!("{} failed: {e}", if resume { "resume" } else { "batch" }))?;
        let own_io = io.totals().since(&io_before);
        let mut phase = Phase {
            start_ns,
            end_ns,
            last_job_ns: None,
            io: own_io,
            dispatcher_read_bytes: own_io[READ_BYTES],
            cpu_secs: rusage::cpu_secs_total() - cpu_before,
            worker_rss_mb: 0.0,
            events: recorder.drain(),
            sides: Vec::new(),
        };
        if self.cfg.workload == Workload::DispatchNull {
            // Workers leave their counters (and events) beside the journal;
            // ids restart at 0 on every dispatch, so collect them now.
            for id in 0..self.workers {
                let path = side_path(&self.journal, id);
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("worker {id} left no side file: {e}"))?;
                let side = parse_side(&text, clock::epoch_unix_ns())
                    .ok_or_else(|| format!("worker {id} side file is malformed"))?;
                phase.io = phase.io.plus(&side.totals);
                phase.worker_rss_mb = phase.worker_rss_mb.max(side.peak_rss_mb);
                phase.last_job_ns = phase.last_job_ns.max(side.last_job_ns);
                phase.sides.push(side.timeline);
                let _ = std::fs::remove_file(&path);
            }
        }
        Ok((phase, report))
    }

    /// One pass. `traced` turns the wrappers' spans and the program's own
    /// verbose stage spans on.
    fn pass(&mut self, traced: bool) -> Result<Pass, String> {
        let jobs = self.prepared.jobs.len();
        let recorder = Arc::new(Recorder::new(traced));
        let io = CountingIo::new(Arc::clone(&recorder));
        let null = NullTranscoder { payloads: &self.prepared.payloads };
        let inner: &dyn Transcoder = if self.cfg.workload.is_null() { &null } else { &Engine };
        let engine = TimedTranscoder { inner, recorder: Arc::clone(&recorder) };
        if traced {
            vtrace::set_level(vtrace::Level::Verbose);
        }
        let batch = self.phase(&engine, &io, &recorder, false);
        // What the batch left on disk, before the resume compacts it.
        let journal_text = std::fs::read_to_string(&self.journal).unwrap_or_default();
        let calls_before_resume = recorder.calls();
        let resume = batch.and_then(|b| Ok((b, self.phase(&engine, &io, &recorder, true)?)));
        let mut stages = BTreeMap::new();
        if traced {
            vtrace::set_level(vtrace::Level::Off);
            stages = trace::stages_by_call(&vtrace::drain());
        }
        let ((batch, report), (resume, resumed)) = resume?;

        // Every job completed, with the expected bytes; the resume replayed
        // every job, made no transcoder call, and returned the same bytes.
        let mut failed_jobs = 0u64;
        let mut job_secs = vec![0.0; jobs];
        let mut job_db = vec![f64::NAN; jobs];
        for (i, (first, replay)) in report.results.iter().zip(&resumed.results).enumerate() {
            let bytes = first.success().map(|o| o.bytes());
            // No reference exists yet in an encode workload's warm-up pass.
            let fresh_ok = bytes.is_some() && self.expected(i).is_none_or(|e| Some(e) == bytes);
            let replay_ok = bytes.is_some() && replay.success().map(|o| o.bytes()) == bytes;
            if !fresh_ok || !replay_ok {
                failed_jobs += 1;
                self.problem(format!(
                    "job {i} ({}): fresh {} / replay {}",
                    first.name,
                    if fresh_ok { "ok" } else { "missing or different bytes" },
                    if replay_ok { "ok" } else { "missing or different bytes" }
                ));
            }
            if let Some(o) = first.success() {
                job_secs[i] = o.timings().total();
                job_db[i] = o.measurement().quality_db;
            }
        }
        if report.results.len() != jobs || resumed.results.len() != jobs {
            self.problem(format!("report holds {} of {jobs} jobs", report.results.len()));
            failed_jobs = jobs as u64;
        }
        let resume_calls = recorder.calls() - calls_before_resume;
        if resumed.summary.replayed != jobs || resume_calls != 0 {
            self.problem(format!(
                "resume replayed {} of {jobs} jobs and made {resume_calls} transcoder calls",
                resumed.summary.replayed
            ));
            failed_jobs = failed_jobs.max(1);
        }
        let journal = scan(&journal_text, jobs);
        if journal.job_records.iter().any(|n| *n != 1) {
            self.problem("journal does not hold exactly one job record per job".to_string());
            failed_jobs = failed_jobs.max(1);
        }
        if self.reference.is_empty() && !self.cfg.workload.is_null() {
            // The warm-up pass of an encode workload defines the reference.
            self.reference = report
                .results
                .iter()
                .map(|r| r.success().map(|o| o.bytes().to_vec()).unwrap_or_default())
                .collect();
        }
        Ok(Pass {
            traced,
            batch,
            resume,
            journal,
            resume_calls,
            failed_jobs,
            job_secs,
            job_db,
            stages,
        })
    }
}

/// Decodes every encode-workload bitstream and checks its quality: the
/// decoder must accept it, the decoded PSNR must equal what the encoder
/// reported, and sit above the workload's floor. Returns the mean PSNR and
/// bits per pixel (exact, seed-determined).
fn verify_bitstreams(h: &mut Harness<'_>, reported_db: &[f64]) -> (f64, f64) {
    let (mut db_sum, mut bits, mut pixels) = (0.0, 0u64, 0u64);
    let floor = h.cfg.workload.psnr_floor_db();
    for i in 0..h.prepared.jobs.len() {
        let job = &h.prepared.jobs[i];
        let bytes = h.reference.get(i).cloned().unwrap_or_default();
        bits += bytes.len() as u64 * 8;
        pixels += job.source.total_pixels();
        let source = match &job.source {
            JobSource::InMemory(video) => std::borrow::Cow::Borrowed(video),
            JobSource::Synth(spec) => std::borrow::Cow::Owned(spec.generate()),
        };
        match vcodec::decode(&bytes) {
            Ok(decoded) if decoded.len() == source.len() => {
                let db = psnr_video(&source, &decoded);
                db_sum += db;
                let reported = reported_db.get(i).copied().unwrap_or(f64::NAN);
                if (db - reported).abs() > 1e-6 || db < floor {
                    h.problem(format!(
                        "job {i} ({}): decoded {db:.4} dB, encoder reported {reported:.4} dB, floor {floor} dB",
                        job.name
                    ));
                }
            }
            Ok(decoded) => {
                h.problem(format!("job {i}: decoded {} of {} frames", decoded.len(), source.len()))
            }
            Err(e) => h.problem(format!("job {i} ({}): bitstream does not decode: {e}", job.name)),
        }
    }
    (db_sum / h.prepared.jobs.len().max(1) as f64, bits as f64 / pixels.max(1) as f64)
}

/// Median microseconds of an append + real `fdatasync` of a typical record
/// on the checkout's disk: informational, the one number here that
/// measures the host instead of the program.
fn fsync_probe_us(scratch: &Scratch) -> f64 {
    let path = scratch.path().join("fsync.probe");
    let Ok(mut file) = StdIo.create(FileClass::Journal, &path) else { return 0.0 };
    let record = vec![b'x'; 52 * 1024];
    let mut us = Vec::new();
    for _ in 0..24 {
        if file.append(&record).is_err() {
            break;
        }
        let t0 = Instant::now();
        if file.sync().is_err() {
            break;
        }
        us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    drop(file);
    let _ = std::fs::remove_file(&path);
    median(&us)
}

fn print_summary(name: &str, unit: &str, s: &Summary) {
    println!(
        "bench.{name}: n={} min={:.4} p25={:.4} median={:.4} p75={:.4} p90={:.4} max={:.4} {unit}",
        s.n, s.min, s.p25, s.p50, s.p75, s.p90, s.max
    );
}

/// Runs the workload and prints everything but the result line.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = cfg.workload.workers(nproc);
    let scratch = Scratch::create(cfg.workload.name()).map_err(|e| format!("scratch dir: {e}"))?;
    println!(
        "workload: {} seed={} seconds={} trace={} workers={workers} nproc={nproc}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    println!("why: {}", cfg.workload.why());
    println!(
        "scratch_fs: checkout disk at {} (not tmpfs: the run stays inside its checkout; \
         fdatasync is counted but elided in timed passes)",
        scratch.path().display()
    );
    if cfg.quick {
        println!("NOT COMPARABLE: --quick runs one set-up and one timed pass");
    }

    // Set-up is an end-to-end metric, so it runs several times: once here,
    // then again between timed passes at each quarter of the run, which
    // samples the host's fast and slow spells instead of five back-to-back
    // readings of whichever one the run started in.
    let timed_setup = || -> Result<(f64, Prepared), String> {
        let t0 = Instant::now();
        let p = prepare(cfg.workload, cfg.seed, cfg.trace, scratch.path())
            .map_err(|e| format!("set-up: {e}"))?;
        Ok((t0.elapsed().as_secs_f64(), p))
    };
    let (first_setup_secs, prepared) = timed_setup()?;
    let mut setup_secs = vec![first_setup_secs];
    let mut crcs = vec![prepared.input_crc];
    let jobs = prepared.jobs.len();
    println!(
        "jobs: {jobs} per pass, {:.6} Mpixel per job, input crc {:#010x}",
        prepared.mpix_per_job(),
        prepared.input_crc
    );

    let mut h = Harness {
        cfg,
        workers,
        prepared: &prepared,
        journal: journal_path(scratch.path()),
        worker_exe: std::env::current_exe().map_err(|e| format!("own path: {e}"))?,
        policy: ResilienceConfig::default(),
        reference: Vec::new(),
        problems: Vec::new(),
    };
    // Warm-up (discarded), then timed passes. A traced run alternates
    // untraced and traced passes so both see the same host conditions.
    let warm = h.pass(false)?;
    if warm.failed_jobs > 0 {
        h.problem("warm-up pass failed".to_string());
    }
    let mut passes: Vec<Pass> = Vec::new();
    let t_start = Instant::now();
    loop {
        let traced = cfg.trace && passes.len() % 2 == 1;
        passes.push(h.pass(traced)?);
        let elapsed = t_start.elapsed().as_secs_f64();
        if !cfg.quick && elapsed >= cfg.seconds * setup_secs.len() as f64 / (SETUPS - 1) as f64 {
            let (secs, again) = timed_setup()?;
            setup_secs.push(secs);
            crcs.push(again.input_crc);
        }
        let enough = if cfg.trace { passes.len() >= 2 } else { !passes.is_empty() };
        if enough && (cfg.quick || elapsed >= cfg.seconds) {
            break;
        }
    }
    let peak_rss_mb = passes
        .iter()
        .map(|p| p.batch.worker_rss_mb.max(p.resume.worker_rss_mb))
        .fold(rusage::peak_rss_mb(), f64::max);
    // Allocations are counted in one extra, untimed pass of a traced run:
    // two threads bumping one shared counter would tax (by about a tenth on
    // `vod_batch`) the passes whose time is reported.
    let counted_allocs = if cfg.trace {
        let (counted, allocs, _) = alloc::counted(|| h.pass(false));
        counted?;
        allocs
    } else {
        0
    };
    if crcs.iter().any(|c| *c != crcs[0]) {
        h.problem(format!("input checksums differ across set-ups: {crcs:x?}"));
    }

    // ---- end-to-end metrics, from the untraced passes ----
    let per_job = |f: &dyn Fn(&Pass) -> f64, traced: bool| -> Vec<f64> {
        passes.iter().filter(|p| p.traced == traced).map(f).collect()
    };
    let jobs_f = jobs as f64;
    let batch_rate = per_job(&|p| jobs_f / p.batch.work_secs(), false);
    let resume_rate = per_job(&|p| jobs_f / p.resume.secs(), false);
    let batch_summary = Summary::of(&batch_rate);
    let resume_summary = Summary::of(&resume_rate);
    let stored: Vec<f64> = passes.iter().map(|p| p.journal.durable_bytes as f64 / jobs_f).collect();
    let read: Vec<f64> = passes
        .iter()
        .map(|p| (p.batch.io[READ_BYTES] + p.resume.io[READ_BYTES]) as f64 / jobs_f)
        .collect();
    let setup_summary = Summary::of(&setup_secs);
    let mut values = Values::default();
    values.set("jobs_per_s", batch_summary.p90);
    values.set("resume_jobs_per_s", resume_summary.p90);
    values.set("stored_bytes_per_job", median(&stored));
    values.set("storage_read_bytes_per_job", median(&read));
    values.set("peak_rss_mb", peak_rss_mb);
    values.set("setup_s", setup_summary.min);
    println!("passes: {} timed ({} untraced)", passes.len(), batch_rate.len());
    let series = |v: &[f64]| v.iter().map(|r| format!("{r:.2}")).collect::<Vec<_>>().join(" ");
    println!("bench.pass_jobs_per_s: {}", series(&batch_rate));
    println!("bench.pass_resume_jobs_per_s: {}", series(&resume_rate));
    if cfg.trace {
        println!(
            "bench.pass_jobs_per_s_traced: {}",
            series(&per_job(&|p| jobs_f / p.batch.work_secs(), true))
        );
    }
    print_summary("jobs_per_s", "1/s", &batch_summary);
    print_summary("resume_jobs_per_s", "1/s", &resume_summary);
    print_summary("setup_s", "s", &setup_summary);
    print_summary("stored_bytes_per_job", "B", &Summary::of(&stored));
    print_summary("storage_read_bytes_per_job", "B", &Summary::of(&read));

    // ---- verification gate ----
    let attempted = passes.len() as u64 * jobs as u64 * 2;
    let failed: u64 = passes.iter().map(|p| p.failed_jobs).sum();
    let (psnr_db, bits_per_pixel) = if cfg.workload.is_null() {
        let bits: usize = prepared.payloads.iter().map(|p| p.len() * 8).sum();
        let pixels: u64 = prepared.jobs.iter().map(|j| j.source.total_pixels()).sum();
        (40.0, bits as f64 / pixels.max(1) as f64)
    } else {
        verify_bitstreams(&mut h, &warm.job_db)
    };
    let correct = h.problems.is_empty() && failed == 0;
    println!("attempted: {attempted} failed: {failed} correct: {correct}");

    if cfg.trace {
        per_layer(cfg, &h, &passes, &scratch, &mut values, psnr_db, bits_per_pixel)?;
        values.set("proc.allocs_per_job", counted_allocs as f64 / jobs_f);
        values.set("bench.pass_iqr_share", batch_summary.iqr_share());
        values.set("bench.passes", passes.len() as f64);
        values.set("bench.jobs_per_s_median", batch_summary.p50);
        values.set("bench.resume_jobs_per_s_median", resume_summary.p50);
        values.set("bench.setup_s_median", setup_summary.p50);
        values.set(
            "vsynth.gen_mpix_per_s",
            prepared.pixels_generated as f64 / 1e6 / prepared.gen_secs.max(1e-9),
        );
    }
    Ok(Outcome { correct, attempted, failed, values })
}

/// Everything the traced passes add: the trace file, the waterfall, the
/// per-layer metrics.
fn per_layer(
    cfg: &Config,
    h: &Harness<'_>,
    passes: &[Pass],
    scratch: &Scratch,
    values: &mut Values,
    psnr_db: f64,
    bits_per_pixel: f64,
) -> Result<(), String> {
    let jobs = h.prepared.jobs.len();
    let dispatch = cfg.workload == Workload::DispatchNull;
    let mut t = Trace::default();
    let run_span = t.add(None, "run", 0, u64::MAX);
    for (n, p) in passes.iter().enumerate().filter(|(_, p)| p.traced) {
        let pass = t.add(Some(run_span), "pass", p.batch.start_ns, p.resume.end_ns);
        t.span_mut(pass).pass = Some(n as u32);
        let jobs_by_secs: BTreeMap<u64, usize> =
            p.job_secs.iter().enumerate().map(|(i, s)| (s.to_bits(), i)).collect();
        for (phase, name, names, lanes) in [
            (&p.batch, "batch", &trace::LOCAL, h.workers),
            (&p.resume, "resume", &trace::RESUME, 1),
        ] {
            let id = t.add(Some(pass), name, phase.start_ns, phase.end_ns);
            if dispatch {
                trace::add_dispatch_phase(&mut t, id, &phase.sides, &phase.events, &jobs_by_secs);
            } else {
                let info = trace::CallInfo { stages: &p.stages, jobs: &jobs_by_secs };
                trace::add_local_phase(&mut t, id, names, lanes, &phase.events, &info);
            }
        }
    }
    t.span_mut(run_span).end_ns = clock::now_ns();
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let path = out.join(format!("trace_{}.jsonl", cfg.workload.name()));
    t.write_jsonl(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("trace: {} spans in {}", t.spans.len(), path.display());

    // The waterfall: layer self-times over the traced passes' lanes.
    let (rows, total) = t.waterfall();
    let total = total.max(1e-12);
    println!(
        "waterfall ({} traced passes, {total:.4} lane-seconds = phase wall x lanes):",
        passes.iter().filter(|p| p.traced).count()
    );
    let mut ordered: Vec<(&&str, &f64)> = rows.iter().collect();
    ordered.sort_by(|a, b| b.1.total_cmp(a.1));
    for (name, secs) in ordered {
        println!("  {name:<28} {secs:>10.4} s {:>7.2} %", 100.0 * secs / total);
    }
    let row = |name: &str| rows.get(name).copied().unwrap_or(0.0);
    let share_of = |pick: &dyn Fn(&str) -> bool| {
        rows.iter().filter(|(n, _)| pick(n)).map(|(_, s)| *s).sum::<f64>() / total
    };
    let encode_layers = share_of(&|n| {
        n.starts_with("engine.") || n.starts_with("vcodec.") || n.starts_with("vsynth.")
    });
    let journal_exec =
        share_of(&|n| (n.starts_with("journal.") || n.starts_with("exec.")) && n != IDLE);
    values.set("bench.unattributed_share", row(UNATTRIBUTED) / total);
    values.set("bench.encode_layers_share", encode_layers);
    values.set("bench.journal_exec_share", journal_exec);

    let durs = |name: &str| -> Vec<f64> {
        t.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e9).collect()
    };
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let pct = |v: &[f64], p: f64| percentile(&sorted(v), p);
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let traced_jobs = (traced.len() * jobs).max(1) as f64;

    // vcodec: stage shares of the summed encode seconds.
    let encode_secs = sum(&durs("vcodec.encode")).max(1e-12);
    for (metric, stage) in [
        ("vcodec.motion_share", "vcodec.motion_search"),
        ("vcodec.transform_quant_share", "vcodec.transform_quant"),
        ("vcodec.entropy_share", "vcodec.entropy_coding"),
        ("vcodec.deblock_share", "vcodec.deblock"),
        ("vcodec.other_share", "vcodec.encode"),
    ] {
        values.set(metric, if cfg.workload.is_null() { 0.0 } else { row(stage) / encode_secs });
    }

    // engine: the calls themselves.
    let calls = durs("engine.call");
    let call_secs = sum(&calls).max(1e-12);
    let call_pixels: u64 =
        t.spans.iter().filter(|s| s.name == "engine.call").map(|s| s.bytes).sum();
    values.set("engine.call_ms_p50", pct(&calls, 0.5) * 1e3);
    values.set("engine.call_ms_p90", pct(&calls, 0.9) * 1e3);
    values.set("engine.mpix_per_s", call_pixels as f64 / 1e6 / call_secs);
    values.set("engine.overhead_share", row("engine.call") / call_secs);
    values.set("engine.psnr_db", psnr_db);
    values.set("engine.bits_per_pixel", bits_per_pixel);

    // exec.local: how busy the in-process workers were.
    let batch_lane_secs: f64 =
        traced.iter().map(|p| p.batch.secs() * h.workers as f64).sum::<f64>().max(1e-12);
    if !dispatch {
        values.set("exec.local.utilization", call_secs / batch_lane_secs);
        values.set("exec.local.gap_us_p50", pct(&durs("journal.record"), 0.5) * 1e6);
        values.set("exec.local.tail_idle_share", row(IDLE) / batch_lane_secs);
        values.set("journal.record_us_per_job", row("journal.record") * 1e6 / traced_jobs);
    }

    // journal: what is stored, and what a replay costs.
    let payload_bytes: usize = (0..jobs).filter_map(|i| h.expected(i)).map(<[u8]>::len).sum();
    let durable =
        median(&passes.iter().map(|p| p.journal.durable_bytes as f64).collect::<Vec<_>>());
    values.set("journal.payload_ratio", durable / payload_bytes.max(1) as f64);
    values.set(
        "journal.resume_us_per_job",
        traced.iter().map(|p| p.resume.secs()).sum::<f64>() * 1e6 / traced_jobs,
    );
    values
        .set("journal.resume_reencodes", passes.iter().map(|p| p.resume_calls).sum::<u64>() as f64);
    values.set("journal.fsync_us_p50_disk", fsync_probe_us(scratch));

    // exec.io: operations through the seam, all processes.
    let io =
        traced.iter().fold(IoTotals::default(), |acc, p| acc.plus(&p.batch.io).plus(&p.resume.io));
    values.set("exec.io.appends_per_job", io[APPENDS] as f64 / traced_jobs);
    values.set("exec.io.syncs_per_job", io[SYNCS] as f64 / traced_jobs);
    values.set("exec.io.read_calls_per_job", io[READS] as f64 / traced_jobs);
    values.set("exec.io.read_bytes_per_job", io[READ_BYTES] as f64 / traced_jobs);
    values.set("exec.io.write_bytes_per_job", io[APPEND_BYTES] as f64 / traced_jobs);
    values.set("exec.io.append_us_p50", pct(&durs("exec.io.append"), 0.5) * 1e6);
    values.set("exec.io.sync_us_p50", pct(&durs("exec.io.sync"), 0.5) * 1e6);

    // exec.worker / exec.dispatch: the multi-process path.
    if dispatch {
        let gaps = durs("exec.ledger");
        values.set("exec.worker.gap_ms_p50", pct(&gaps, 0.5) * 1e3);
        values.set("exec.worker.gap_ms_p90", pct(&gaps, 0.9) * 1e3);
        let leases: u64 = passes.iter().map(|p| p.journal.leases).sum();
        let all_jobs = (passes.len() * jobs) as f64;
        values
            .set("exec.worker.lost_leases_per_job", (leases as f64 - all_jobs).max(0.0) / all_jobs);
        values.set("exec.dispatch.startup_ms", pct(&durs("exec.dispatch.startup"), 0.5) * 1e3);
        values.set("exec.dispatch.drain_ms", pct(&durs("exec.dispatch.drain"), 0.5) * 1e3);
        // What `jobs_per_s` leaves out here: the whole call, and the wait
        // for the heartbeat thread that puts it on a 100 ms grid.
        let call_secs: Vec<f64> = passes.iter().map(|p| p.batch.secs()).collect();
        values.set("exec.dispatch.call_ms_p50", median(&call_secs) * 1e3);
        values.set("exec.worker.exit_ms_p50", pct(&durs("exec.worker.exit"), 0.5) * 1e3);
        let polled: u64 = passes.iter().map(|p| p.batch.dispatcher_read_bytes).sum();
        let batch_secs: f64 = passes.iter().map(|p| p.batch.secs()).sum();
        values.set("exec.dispatch.poll_read_bytes_per_s", polled as f64 / batch_secs.max(1e-12));
    }
    let text = std::fs::read_to_string(&h.journal).unwrap_or_default();
    let snapshot_secs = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(vbench::exec::snapshot_from_text(std::hint::black_box(&text)));
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    values.set("exec.status.snapshot_ms", snapshot_secs * 1e3);

    // proc: CPU and allocations of the batch phases.
    let cpu: f64 = passes.iter().map(|p| p.batch.cpu_secs).sum();
    let all_batch_secs: f64 = passes.iter().map(|p| p.batch.secs()).sum();
    values.set("proc.cpu_ms_per_job", cpu * 1e3 / (passes.len() * jobs).max(1) as f64);
    values.set("proc.parallel_efficiency", cpu / (all_batch_secs * h.workers as f64).max(1e-12));

    // bench: what tracing itself cost. Passes alternate untraced/traced, so
    // every traced pass has untraced neighbours that ran under nearly the
    // same host conditions; the median of those neighbour ratios is far
    // steadier than a ratio of two order statistics.
    let ratios: Vec<f64> = passes
        .windows(2)
        .filter(|w| w[0].traced != w[1].traced)
        .map(|w| {
            let (t, u) = if w[0].traced { (&w[0], &w[1]) } else { (&w[1], &w[0]) };
            t.batch.work_secs() / u.batch.work_secs()
        })
        .collect();
    values.set("bench.trace_overhead_share", median(&ratios) - 1.0);

    for (name, value) in probes::run() {
        values.set(name, value);
    }
    Ok(())
}
