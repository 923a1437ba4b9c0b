//! The chaos crash-recovery auditor behind `vbench chaos`: seeded
//! storage-fault + crash trials that *prove* the durability layer's
//! recovery invariants instead of hoping for them.
//!
//! Every claim the journal stack makes — "a job's fsync'd record is its
//! commit point", "resume replays instead of re-encoding", "readers
//! never see a torn status snapshot" — is a claim about behavior under
//! failure. This module manufactures those failures on a bit-exact,
//! replayable schedule and checks the claims after every one:
//!
//! 1. Each trial derives a schedule from `(seed, trial index)`: zero or
//!    more scripted crashes ([`vfault::FaultPlan`]) plus zero or more
//!    storage faults ([`vfault::IoFaultPlan`] — short writes, EIO,
//!    ENOSPC, lying fsyncs, rename failures).
//! 2. The faulted run executes against a [`crate::exec::FaultedIo`],
//!    which tracks the byte prefix of every file an *honest* fsync
//!    covered. After the run dies (or finishes), a simulated power cut
//!    truncates each file to that durable prefix.
//! 3. Clean resumes (`--resume`, real IO) then recover the batch, and
//!    the auditor asserts the recovery invariants below. Violations are
//!    collected — never panicked — and written to a schema-versioned
//!    `CHAOS_<scenario>.json` report carrying each trial's fault
//!    schedule, so any red trial is reproducible from its spec strings
//!    alone.
//!
//! The invariants (numbered as reported):
//!
//! * **I1 — durable records are never lost.** Every job record that was
//!   honestly fsync'd before the power cut is still present — byte
//!   identical — after every subsequent resume (compaction may drop
//!   corruption, never commits).
//! * **I2 — replay does zero encode work.** On the final (successful)
//!   resume, encode invocations equal exactly `jobs − replayed`: a job
//!   with a durable record is never re-encoded.
//! * **I3 — exactly one durable record per job.** The final journal
//!   holds precisely one valid, CRC-verified record per job: no holes,
//!   no duplicate commits from lease races or respawned workers.
//! * **I4 — outputs are byte-identical to an uninterrupted run.**
//!   Per-job bitstreams from the recovered batch equal a clean
//!   baseline's, however many crashes and faults the trial injected.
//! * **I5 — status snapshots are all-or-nothing.** A marker document
//!   written through [`crate::exec::write_atomic_io`]'s discipline is,
//!   after the power cut, either absent or byte-exact — never a torn or
//!   empty file. (`--inject-unsynced-rename` deliberately reintroduces
//!   the classic rename-before-fsync bug to demonstrate the auditor
//!   catches it.)
//!
//! Two scenarios cover both execution backends: [`ChaosScenario::Batch`]
//! drives the in-process journal driver under the full fault menu plus
//! power cuts; [`ChaosScenario::Dispatch`] drives the multi-process
//! dispatcher with scripted worker kills and per-worker storage faults
//! (`vbench worker --io-fault-plan`), then audits the shared journal
//! with an in-process resume.
//!
//! Trials use a fixed clean resilience policy (no retries, hedging, or
//! deadlines): the auditor measures the *durability* layer, and exact
//! encode-count accounting (I2) requires that no policy feature re-runs
//! healthy jobs. Scenario kind restrictions that are correctness-driven
//! (not convenience) are documented on [`TrialPlan`].

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::engine::{
    StreamOutcome, TranscodeError, TranscodeOutcome, TranscodeRequest, Transcoder,
};
use crate::exec::status;
use crate::exec::{run_dispatch_with_io, DispatchOptions, FaultedIo, StdIo};
use crate::farm::{transcode_batch, EngineBatchReport, EngineJob};
use crate::journal::record::{self, Record};
use crate::journal::{run_batch_journaled_with_io, JournalConfig, JournalError};
use crate::resilience::ResilienceConfig;
use vfault::{FaultPlan, IoFaultPlan};
use vframe::{FrameSource, Video};
use vtrace::json::Object;

/// Resume attempts allowed per trial before the auditor declares the
/// batch non-convergent. A schedule can crash at most once per run
/// index (runs 0..=1 carry scripted crashes) and a lying fsync can lose
/// one run record once per index, so convergence needs at most four
/// attempts; the slack is deliberate.
const MAX_RESUMES: u32 = 6;

/// Which execution backend a chaos run audits.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChaosScenario {
    /// The in-process journal driver (`vbench batch --journal`):
    /// scripted crashes, the full storage-fault menu, and power cuts.
    Batch,
    /// The multi-process dispatcher (`vbench dispatch`): scripted
    /// worker kills plus per-worker storage faults, audited by an
    /// in-process `--resume` of the shared journal.
    Dispatch,
}

impl ChaosScenario {
    /// The scenario's name, as used in report file names and JSON.
    pub fn name(self) -> &'static str {
        match self {
            ChaosScenario::Batch => "batch",
            ChaosScenario::Dispatch => "dispatch",
        }
    }
}

/// How `vbench chaos` runs its trials.
#[derive(Clone, Debug)]
pub struct ChaosOptions {
    /// Trials to run (each with an independent derived schedule).
    pub trials: u32,
    /// Master seed; trial `i`'s schedule derives from `(seed, i)`.
    pub seed: u64,
    /// Which backend to audit.
    pub scenario: ChaosScenario,
    /// Scratch directory for per-trial journals and marker files (must
    /// exist and be writable).
    pub dir: PathBuf,
    /// In-process batch workers (both the faulted runs and the audits).
    pub workers: usize,
    /// Worker processes per dispatch trial.
    pub procs: usize,
    /// The executable to spawn as dispatch workers (normally
    /// `std::env::current_exe()`); required for the dispatch scenario.
    pub worker_exe: Option<PathBuf>,
    /// Job-defining argv fragments appended to each worker's command
    /// line (after `worker --journal <path> --workers <n>`); must make
    /// the workers build exactly `jobs` or the manifest fingerprint
    /// check rejects them.
    pub worker_forward_args: Vec<String>,
    /// Deliberately reintroduce the rename-before-fsync bug in the
    /// marker write so the auditor's I5 check can be demonstrated to
    /// catch it. Never affects production paths.
    pub inject_unsynced_rename: bool,
    /// Report destination; defaults to `CHAOS_<scenario>.json` in the
    /// current directory.
    pub out: Option<PathBuf>,
}

impl ChaosOptions {
    /// A batch-scenario configuration with the given scratch directory.
    pub fn batch(dir: impl Into<PathBuf>) -> ChaosOptions {
        ChaosOptions {
            trials: 10,
            seed: 0,
            scenario: ChaosScenario::Batch,
            dir: dir.into(),
            workers: 2,
            procs: 2,
            worker_exe: None,
            worker_forward_args: Vec::new(),
            inject_unsynced_rename: false,
            out: None,
        }
    }
}

/// One trial's derived fault schedule — the reproducer. Feeding the
/// same spec strings back through [`vfault::FaultPlan::parse`] /
/// [`vfault::IoFaultPlan::parse`] replays the trial bit-exactly.
///
/// Kind restrictions, by scenario:
///
/// * Batch trials draw from the full menu: crashes at pre-encode /
///   post-encode / pre-journal-flush on runs 0–1, journal faults of
///   every kind, and status faults of every kind except `lie` (no
///   software survives a lying fsync of its snapshot; the journal-side
///   invariants are defined against *honest* durability, which is why
///   `lie` stays in the journal menu).
/// * Dispatch trials use `worker-kill` crashes plus worker journal
///   faults restricted to `eio` and `fsync-eio` — the kinds that write
///   no bytes. A torn append (`short`, `enospc`) in a *shared* O_APPEND
///   journal merges with the next writer's record and destroys it; that
///   is a real hazard line-based journals accept (recovery converges by
///   quarantine + re-encode), but it makes "no acked record lost"
///   unfalsifiable, so the auditor does not script it multi-writer.
#[derive(Clone, Debug)]
pub struct TrialPlan {
    /// Trial index.
    pub trial: u32,
    /// The trial's derived seed (for logs; the specs are authoritative).
    pub seed: u64,
    /// `crash=` spec string, empty when the trial scripts no crashes.
    pub crash_spec: String,
    /// Storage-fault spec string, empty when the trial scripts none.
    pub io_spec: String,
}

/// One audited trial's outcome.
#[derive(Clone, Debug)]
pub struct TrialResult {
    /// The schedule that produced it.
    pub plan: TrialPlan,
    /// Clean resume attempts the recovery needed (0 = the faulted run
    /// itself completed and the first audit pass replayed it).
    pub resumes: u32,
    /// Jobs replayed from durable records on the final audit pass.
    pub replayed_final: usize,
    /// Encode invocations the final audit pass performed.
    pub encodes_final: u64,
    /// Storage faults the trial actually injected.
    pub faults_injected: u64,
    /// Invariant violations found (empty = the trial is green).
    pub violations: Vec<String>,
}

/// A full chaos run: every trial's schedule and verdict.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Which backend was audited.
    pub scenario: ChaosScenario,
    /// The master seed the schedules derive from.
    pub seed: u64,
    /// Per-trial outcomes, in trial order.
    pub trials: Vec<TrialResult>,
}

impl ChaosReport {
    /// Total invariant violations across all trials.
    pub fn violations(&self) -> usize {
        self.trials.iter().map(|t| t.violations.len()).sum()
    }

    /// The schema-versioned JSON report (`vbench.chaos.v1`), one line.
    /// Top-level `"violations"` is the grep-friendly gate:
    /// `"violations":0` means every invariant held in every trial.
    pub fn to_json(&self) -> String {
        let trial = |t: &TrialResult| {
            Object::new()
                .field("trial", t.plan.trial)
                .field("seed", t.plan.seed)
                .field("crash_plan", &t.plan.crash_spec)
                .field("io_plan", &t.plan.io_spec)
                .field("resumes", t.resumes)
                .field("replayed_final", t.replayed_final)
                .field("encodes_final", t.encodes_final)
                .field("faults_injected", t.faults_injected)
                .field("violations", &t.violations)
        };
        Object::new()
            .field("schema", "vbench.chaos.v1")
            .field("scenario", self.scenario.name())
            .field("seed", self.seed)
            .field("trials", self.trials.len())
            .field("violations", self.violations())
            .field("trial_results", self.trials.iter().map(trial).collect::<Vec<_>>())
            .close()
            + "\n"
    }

    /// Writes the JSON report atomically (through the same
    /// fsync-before-rename discipline the auditor verifies).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        crate::exec::write_atomic_io(&StdIo, path, &self.to_json())
    }
}

/// splitmix64: the standard 64-bit mixer — every trial's schedule is a
/// pure function of `(seed, trial)`, so a red trial reproduces from the
/// report alone.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A tiny deterministic generator over splitmix64 (no external RNG
/// crates; no wall-clock anywhere in schedule derivation).
struct Rng(u64);

impl Rng {
    fn new(seed: u64, trial: u32) -> Rng {
        Rng(splitmix64(seed ^ splitmix64(u64::from(trial).wrapping_add(1))))
    }

    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    /// Uniform in `0..n` (n > 0).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// Derives a batch-scenario schedule: 0–2 crashes (pre-encode,
/// post-encode, pre-journal-flush; runs 0–1), 0–3 journal storage
/// faults (full menu), and — unless the injected-bug demo is running —
/// at most one status fault (`lie` excluded; see [`TrialPlan`]).
fn batch_trial_plan(
    rng: &mut Rng,
    trial: u32,
    seed: u64,
    jobs: usize,
    marker_bug: bool,
) -> TrialPlan {
    const POINTS: [&str; 3] = ["pre-encode", "post-encode", "pre-journal-flush"];
    const JOURNAL_KINDS: [&str; 5] = ["short", "eio", "enospc", "fsync-eio", "lie"];
    const STATUS_KINDS: [&str; 4] = ["short", "eio", "fsync-eio", "rename-fail"];

    let mut crash = Vec::new();
    let mut crashed: Vec<(u64, u64)> = Vec::new();
    for _ in 0..rng.below(3) {
        let (job, run) = (rng.below(jobs as u64), rng.below(2));
        if crashed.contains(&(job, run)) {
            continue;
        }
        crashed.push((job, run));
        crash.push(format!("crash={job}@{}@{run}", rng.pick(&POINTS)));
    }

    let mut io = Vec::new();
    let mut used: Vec<(String, u64)> = Vec::new();
    for _ in 0..rng.below(4) {
        let kind = rng.pick(&JOURNAL_KINDS).to_string();
        // Early op indices: a 3-job batch performs roughly a dozen ops
        // per (class, op) stream; later indices would script nothing.
        let index = rng.below(8);
        if used.contains(&(kind.clone(), index)) {
            continue;
        }
        used.push((kind.clone(), index));
        io.push(format!("{kind}=journal@{index}"));
    }
    if !marker_bug && rng.below(2) == 1 {
        // The marker is one create/append/sync/rename sequence, so only
        // index 0 of each status stream can fire.
        io.push(format!("{}=status@0", rng.pick(&STATUS_KINDS)));
    }

    TrialPlan { trial, seed, crash_spec: crash.join(","), io_spec: io.join(",") }
}

/// Derives a dispatch-scenario schedule: 0–2 worker kills (run 0) and
/// 0–2 worker storage faults from the multi-writer-safe kinds (see
/// [`TrialPlan`] for why `short`/`enospc` are batch-only).
fn dispatch_trial_plan(rng: &mut Rng, trial: u32, seed: u64, jobs: usize) -> TrialPlan {
    const WORKER_KINDS: [&str; 2] = ["eio", "fsync-eio"];

    let mut crash = Vec::new();
    let mut killed: Vec<u64> = Vec::new();
    for _ in 0..rng.below(3) {
        let job = rng.below(jobs as u64);
        if killed.contains(&job) {
            continue;
        }
        killed.push(job);
        crash.push(format!("crash={job}@worker-kill@0"));
    }

    let mut io = Vec::new();
    let mut used: Vec<(String, u64)> = Vec::new();
    for _ in 0..rng.below(3) {
        let kind = rng.pick(&WORKER_KINDS).to_string();
        let index = rng.below(6);
        if used.contains(&(kind.clone(), index)) {
            continue;
        }
        used.push((kind.clone(), index));
        io.push(format!("{kind}=journal@{index}"));
    }

    TrialPlan { trial, seed, crash_spec: crash.join(","), io_spec: io.join(",") }
}

/// A [`Transcoder`] shim that counts encode invocations — how the
/// auditor proves replay did *zero* encode work (I2) instead of
/// trusting the report's own bookkeeping.
struct CountingEngine<'a> {
    inner: &'a dyn Transcoder,
    calls: AtomicU64,
}

impl<'a> CountingEngine<'a> {
    fn new(inner: &'a dyn Transcoder) -> CountingEngine<'a> {
        CountingEngine { inner, calls: AtomicU64::new(0) }
    }

    fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl Transcoder for CountingEngine<'_> {
    fn transcode(
        &self,
        src: &Video,
        req: &TranscodeRequest,
    ) -> Result<TranscodeOutcome, TranscodeError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.transcode(src, req)
    }

    fn transcode_stream(
        &self,
        src: &mut dyn FrameSource,
        req: &TranscodeRequest,
    ) -> Result<StreamOutcome, TranscodeError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.transcode_stream(src, req)
    }
}

/// The valid (committed, CRC-verified, name-matched) job records in
/// `text`, as raw lines keyed by job index. A job with several valid
/// records maps to all of them — I3 demands the count be exactly one at
/// the end.
fn valid_records(text: &str, jobs: &[EngineJob]) -> BTreeMap<usize, Vec<String>> {
    let mut map: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for entry in record::scan(text) {
        if let Some(Record::Job(rec)) = &entry.record {
            if rec.load(jobs).is_some() {
                map.entry(rec.job).or_default().push(entry.line.to_string());
            }
        }
    }
    map
}

/// Reads the journal (empty when absent — a power cut can erase a file
/// whose creation was never made durable).
fn journal_text(path: &Path) -> String {
    record::read_text(&StdIo, path).unwrap_or_default()
}

/// Checks I1 between two snapshots: every record durable at `before`
/// must still be present — byte-identical — in `after`.
fn check_durable_kept(
    before: &BTreeMap<usize, Vec<String>>,
    after: &BTreeMap<usize, Vec<String>>,
    stage: &str,
    violations: &mut Vec<String>,
) {
    for (job, lines) in before {
        let kept = after.get(job).map(Vec::as_slice).unwrap_or(&[]);
        for line in lines {
            if !kept.contains(line) {
                violations
                    .push(format!("I1: durable record for job {job} lost or rewritten {stage}"));
            }
        }
    }
}

/// Checks I4: every successful job's final bytes equal the clean
/// baseline's.
fn check_byte_identity(
    report: &EngineBatchReport,
    baseline: &EngineBatchReport,
    violations: &mut Vec<String>,
) {
    for (job, (got, want)) in report.results.iter().zip(&baseline.results).enumerate() {
        match (got.success(), want.success()) {
            (Some(got), Some(want)) => {
                if got.bytes() != want.bytes() {
                    violations.push(format!(
                        "I4: job {job} bytes differ from the uninterrupted baseline"
                    ));
                }
            }
            (None, None) => {}
            _ => violations
                .push(format!("I4: job {job} success/failure status differs from the baseline")),
        }
    }
}

/// Checks I3 on the final journal: exactly one valid record per job.
fn check_one_record_per_job(
    records: &BTreeMap<usize, Vec<String>>,
    jobs: usize,
    violations: &mut Vec<String>,
) {
    for job in 0..jobs {
        match records.get(&job).map(Vec::len).unwrap_or(0) {
            1 => {}
            0 => violations.push(format!("I3: job {job} has no durable record")),
            n => violations.push(format!("I3: job {job} has {n} durable records")),
        }
    }
}

/// Drives clean resumes until the batch completes, checking I1 after
/// every attempt and I2/I4 on the final one. Returns `(resumes,
/// replayed_final, encodes_final)`.
#[allow(clippy::too_many_arguments)]
fn audit_recovery(
    counting: &CountingEngine<'_>,
    jobs: &[EngineJob],
    policy: &ResilienceConfig,
    journal_path: &Path,
    workers: usize,
    baseline: &EngineBatchReport,
    mut durable: BTreeMap<usize, Vec<String>>,
    violations: &mut Vec<String>,
) -> (u32, usize, u64) {
    let config = JournalConfig::new(journal_path).with_resume(true);
    for attempt in 1..=MAX_RESUMES {
        let before = counting.calls();
        let outcome = run_batch_journaled_with_io(counting, jobs, workers, policy, &config, &StdIo);
        let encodes = counting.calls() - before;
        let now = valid_records(&journal_text(journal_path), jobs);
        check_durable_kept(&durable, &now, &format!("after resume {attempt}"), violations);
        durable = now;
        match outcome {
            Ok(report) => {
                let replayed = report.summary.replayed;
                let expected = (jobs.len() - replayed) as u64;
                if encodes != expected {
                    violations.push(format!(
                        "I2: final resume ran {encodes} encodes, expected {expected} \
                         ({replayed} replayed of {} jobs)",
                        jobs.len()
                    ));
                }
                check_one_record_per_job(&durable, jobs.len(), violations);
                check_byte_identity(&report, baseline, violations);
                return (attempt, replayed, encodes);
            }
            Err(JournalError::Crashed { .. }) => {
                // A scripted crash re-fired on this run index; the next
                // resume advances past it.
                vtrace::counter("chaos.resume_crashes", 1);
            }
            Err(e) => {
                violations.push(format!("recovery: resume {attempt} failed on clean storage: {e}"));
                return (attempt, 0, encodes);
            }
        }
    }
    violations.push(format!("recovery: batch did not converge within {MAX_RESUMES} resumes"));
    (MAX_RESUMES, 0, 0)
}

/// Runs one batch-scenario trial: faulted run, power cut, marker check,
/// recovery audit.
fn run_batch_trial(
    counting: &CountingEngine<'_>,
    jobs: &[EngineJob],
    opts: &ChaosOptions,
    baseline: &EngineBatchReport,
    plan: TrialPlan,
) -> TrialResult {
    let journal_path = opts.dir.join(format!("chaos_batch_{}.journal", plan.trial));
    let marker_path = opts.dir.join(format!("chaos_batch_{}.marker.json", plan.trial));
    let _ = std::fs::remove_file(&journal_path);
    let _ = std::fs::remove_file(&marker_path);

    let mut violations = Vec::new();
    let io_plan = if plan.io_spec.is_empty() {
        IoFaultPlan::new()
    } else {
        IoFaultPlan::parse(&plan.io_spec).expect("derived io spec round-trips")
    };
    let mut policy = ResilienceConfig::default();
    if !plan.crash_spec.is_empty() {
        policy.fault_plan =
            FaultPlan::parse(&plan.crash_spec).expect("derived crash spec round-trips");
    }

    let faulted = FaultedIo::new(io_plan);
    // The status-snapshot half of the audit: one marker document written
    // through the atomic-replace discipline (or, for the bug demo, the
    // broken variant), checked for all-or-nothing survival after the cut.
    let marker = Object::new().field("chaos_marker", true).field("trial", plan.trial);
    let marker_content = marker.field("seed", plan.seed).close() + "\n";
    let marker_wrote = if opts.inject_unsynced_rename {
        status::write_atomic_unsynced_io(&faulted, &marker_path, &marker_content)
    } else {
        status::write_atomic_io(&faulted, &marker_path, &marker_content)
    };

    // The faulted run. Any outcome is legitimate here — completion, a
    // scripted crash, or a typed IO abort — the invariants constrain
    // what recovery finds afterwards, not how the run died.
    let config = JournalConfig::new(&journal_path);
    match run_batch_journaled_with_io(counting, jobs, opts.workers, &policy, &config, &faulted) {
        Ok(_) | Err(JournalError::Crashed { .. }) | Err(JournalError::Io { .. }) => {}
        Err(e) => violations.push(format!("faulted run died atypically: {e}")),
    }

    faulted.power_cut().expect("power cut truncates scratch files");
    let faults_injected = faulted.faults_injected();

    // I5: the marker is all-or-nothing across the cut.
    match std::fs::read(&marker_path) {
        Err(_) => {
            // Absent is fine — but only when the write itself failed.
            if marker_wrote.is_ok() {
                violations.push(
                    "I5: marker write acknowledged but the document is absent after the power cut"
                        .to_string(),
                );
            }
        }
        Ok(bytes) => {
            if bytes != marker_content.as_bytes() {
                violations.push(format!(
                    "I5: marker is torn after the power cut ({} of {} bytes survive)",
                    bytes.len(),
                    marker_content.len()
                ));
            }
        }
    }

    let durable = valid_records(&journal_text(&journal_path), jobs);
    let (resumes, replayed_final, encodes_final) = audit_recovery(
        counting,
        jobs,
        &policy,
        &journal_path,
        opts.workers,
        baseline,
        durable,
        &mut violations,
    );
    TrialResult { plan, resumes, replayed_final, encodes_final, faults_injected, violations }
}

/// Runs one dispatch-scenario trial: multi-process run under worker
/// kills and worker storage faults, then an in-process recovery audit
/// of the shared journal.
fn run_dispatch_trial(
    counting: &CountingEngine<'_>,
    jobs: &[EngineJob],
    opts: &ChaosOptions,
    baseline: &EngineBatchReport,
    plan: TrialPlan,
) -> TrialResult {
    let journal_path = opts.dir.join(format!("chaos_dispatch_{}.journal", plan.trial));
    let _ = std::fs::remove_file(&journal_path);

    let mut violations = Vec::new();
    let mut policy = ResilienceConfig::default();
    if !plan.crash_spec.is_empty() {
        policy.fault_plan =
            FaultPlan::parse(&plan.crash_spec).expect("derived crash spec round-trips");
    }
    let worker_exe = opts.worker_exe.clone().expect("dispatch scenario needs a worker exe");
    let mut worker_args = vec![
        "worker".to_string(),
        "--journal".to_string(),
        journal_path.display().to_string(),
        "--workers".to_string(),
        "1".to_string(),
    ];
    worker_args.extend(opts.worker_forward_args.iter().cloned());
    if !plan.crash_spec.is_empty() {
        // Workers parse the same spec string, so their policy Debug —
        // hence the manifest fingerprint — matches the dispatcher's
        // byte for byte.
        worker_args.push("--fault-plan".to_string());
        worker_args.push(plan.crash_spec.clone());
    }
    let dispatch = DispatchOptions {
        procs: opts.procs,
        worker_exe,
        worker_args,
        worker_trace_base: None,
        journal: JournalConfig::new(&journal_path),
        status_out: None,
        worker_io_fault_spec: (!plan.io_spec.is_empty()).then(|| plan.io_spec.clone()),
    };

    // Worker kills and worker IO aborts are scripted; the dispatcher is
    // expected to reap, expire, respawn, and still converge.
    match run_dispatch_with_io(jobs, &policy, &dispatch, &StdIo) {
        Ok(_) => {}
        Err(e) => violations.push(format!("dispatch did not converge under faults: {e}")),
    }

    let durable = valid_records(&journal_text(&journal_path), jobs);
    let (resumes, replayed_final, encodes_final) = audit_recovery(
        counting,
        jobs,
        &policy,
        &journal_path,
        opts.workers,
        baseline,
        durable,
        &mut violations,
    );
    if replayed_final != jobs.len() {
        violations.push(format!(
            "recovery: dispatch left only {replayed_final} of {} jobs replayable",
            jobs.len()
        ));
    }
    TrialResult { plan, resumes, replayed_final, encodes_final, faults_injected: 0, violations }
}

/// Runs a full chaos audit: a clean baseline, then `opts.trials` seeded
/// fault trials, each checked against the recovery invariants. The
/// returned report is complete even when trials are red — callers gate
/// on [`ChaosReport::violations`] (the `vbench` CLI exits
/// [`crate::cli::EXIT_CHAOS`]).
///
/// # Errors
///
/// [`JournalError::Batch`] when the clean baseline itself cannot run
/// (e.g. zero workers). Trial-level failures are never errors — they
/// are findings, reported as violations.
pub fn run_chaos(
    engine: &dyn Transcoder,
    jobs: &[EngineJob],
    opts: &ChaosOptions,
) -> Result<ChaosReport, JournalError> {
    let mut span = vtrace::span("chaos.run");
    // The uninterrupted reference: what every trial's recovered outputs
    // must be byte-identical to (I4).
    let baseline = transcode_batch(engine, jobs, opts.workers, &ResilienceConfig::default())
        .map_err(JournalError::Batch)?;
    let counting = CountingEngine::new(engine);

    let mut trials = Vec::with_capacity(opts.trials as usize);
    for trial in 0..opts.trials {
        let mut rng = Rng::new(opts.seed, trial);
        let seed = splitmix64(opts.seed ^ u64::from(trial));
        let result = match opts.scenario {
            ChaosScenario::Batch => {
                let plan = batch_trial_plan(
                    &mut rng,
                    trial,
                    seed,
                    jobs.len(),
                    opts.inject_unsynced_rename,
                );
                run_batch_trial(&counting, jobs, opts, &baseline, plan)
            }
            ChaosScenario::Dispatch => {
                let plan = dispatch_trial_plan(&mut rng, trial, seed, jobs.len());
                run_dispatch_trial(&counting, jobs, opts, &baseline, plan)
            }
        };
        vtrace::counter("chaos.trials", 1);
        vtrace::counter("chaos.violations", result.violations.len() as u64);
        vtrace::counter("chaos.faults_injected", result.faults_injected);
        trials.push(result);
    }

    let report = ChaosReport { scenario: opts.scenario, seed: opts.seed, trials };
    if span.id().is_some() {
        span.record("scenario", opts.scenario.name());
        span.record("trials", report.trials.len());
        span.record("violations", report.violations());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::journal::record::testing::encode_jobs as jobs;
    use std::sync::atomic::AtomicUsize;
    use vtrace::json;

    /// A per-test scratch directory, removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            static SEQ: AtomicUsize = AtomicUsize::new(0);
            let n = SEQ.fetch_add(1, Ordering::Relaxed);
            let path =
                std::env::temp_dir().join(format!("vbench-chaos-{tag}-{}-{n}", std::process::id()));
            let _ = std::fs::remove_dir_all(&path);
            std::fs::create_dir_all(&path).expect("scratch dir");
            TempDir(path)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn schedules_are_deterministic_in_seed_and_trial() {
        for trial in 0..8 {
            let a = batch_trial_plan(&mut Rng::new(7, trial), trial, 0, 3, false);
            let b = batch_trial_plan(&mut Rng::new(7, trial), trial, 0, 3, false);
            assert_eq!(a.crash_spec, b.crash_spec);
            assert_eq!(a.io_spec, b.io_spec);
            let c = dispatch_trial_plan(&mut Rng::new(7, trial), trial, 0, 3);
            let d = dispatch_trial_plan(&mut Rng::new(7, trial), trial, 0, 3);
            assert_eq!(c.crash_spec, d.crash_spec);
            assert_eq!(c.io_spec, d.io_spec);
        }
        // Derived specs must round-trip through the plan parsers.
        for trial in 0..16 {
            let plan = batch_trial_plan(&mut Rng::new(3, trial), trial, 0, 3, false);
            if !plan.crash_spec.is_empty() {
                FaultPlan::parse(&plan.crash_spec).expect("crash spec parses");
            }
            if !plan.io_spec.is_empty() {
                IoFaultPlan::parse(&plan.io_spec).expect("io spec parses");
            }
        }
    }

    #[test]
    fn batch_chaos_holds_every_invariant_on_healthy_code() {
        let dir = TempDir::new("green");
        let jobs = jobs(3);
        let mut opts = ChaosOptions::batch(dir.path());
        opts.trials = 8;
        opts.seed = 7;
        let report = run_chaos(&Engine, &jobs, &opts).expect("chaos runs");
        let red: Vec<_> = report.trials.iter().filter(|t| !t.violations.is_empty()).collect();
        assert!(red.is_empty(), "healthy code must be green, got: {red:?}");
        assert_eq!(report.violations(), 0);
        // At least one trial must have actually injected something, or
        // the audit is vacuous.
        assert!(
            report
                .trials
                .iter()
                .any(|t| !t.plan.crash_spec.is_empty() || !t.plan.io_spec.is_empty()),
            "no trial scripted any fault"
        );
        let json = report.to_json();
        assert!(json.contains("\"schema\":\"vbench.chaos.v1\""));
        assert!(json.contains("\"violations\":0"));
    }

    #[test]
    fn reintroduced_unsynced_rename_bug_is_caught_with_a_reproducing_seed() {
        let dir = TempDir::new("bug");
        let jobs = jobs(2);
        let mut opts = ChaosOptions::batch(dir.path());
        opts.trials = 3;
        opts.seed = 11;
        opts.inject_unsynced_rename = true;
        let report = run_chaos(&Engine, &jobs, &opts).expect("chaos runs");
        assert!(report.violations() > 0, "the rename-before-fsync bug must be caught");
        let caught = report
            .trials
            .iter()
            .find(|t| t.violations.iter().any(|v| v.starts_with("I5")))
            .expect("an I5 violation names the marker");
        // The report carries the reproducing schedule for the red trial.
        let json = report.to_json();
        assert!(json.contains(&format!("\"trial\":{}", caught.plan.trial)));
        assert!(json.contains("I5"));
    }

    /// Satellite: ENOSPC mid-record. The append hits disk-full, the run
    /// aborts with a typed IO error, and a resume on the cleaned volume
    /// replays every fsync'd record with zero re-encodes.
    #[test]
    fn enospc_mid_record_aborts_typed_and_resume_replays_without_reencoding() {
        let dir = TempDir::new("enospc");
        let path = dir.path().join("batch.journal");
        let jobs = jobs(3);
        let policy = ResilienceConfig::default();
        // Journal write ops: manifest(0), run record(1), then one per
        // job record — index 3 tears the second job record mid-line.
        let io = FaultedIo::new(IoFaultPlan::parse("enospc=journal@3").expect("plan"));
        let counting = CountingEngine::new(&Engine);
        let err = run_batch_journaled_with_io(
            &counting,
            &jobs,
            1,
            &policy,
            &JournalConfig::new(&path),
            &io,
        )
        .expect_err("disk-full aborts the batch");
        match &err {
            JournalError::Io { source, .. } => {
                assert_eq!(source.kind(), std::io::ErrorKind::StorageFull)
            }
            other => panic!("expected a typed IO abort, got {other}"),
        }
        // The "cleaned volume": faults are gone, the torn tail stays.
        let durable = valid_records(&journal_text(&path), &jobs);
        assert_eq!(durable.len(), 1, "one record was fsync-acknowledged before ENOSPC");
        let before = counting.calls();
        let resumed = run_batch_journaled_with_io(
            &counting,
            &jobs,
            1,
            &policy,
            &JournalConfig::new(&path).with_resume(true),
            &StdIo,
        )
        .expect("resume completes");
        assert_eq!(resumed.summary.replayed, 1, "the acked record replays");
        assert_eq!(counting.calls() - before, 2, "only the two unrecorded jobs re-encode");
        let finals = valid_records(&journal_text(&path), &jobs);
        assert!(finals.values().all(|v| v.len() == 1), "exactly one record per job");
        assert_eq!(finals.len(), 3);
    }

    #[test]
    fn report_json_escapes_specs_and_counts_violations() {
        let report = ChaosReport {
            scenario: ChaosScenario::Dispatch,
            seed: 9,
            trials: vec![
                TrialResult {
                    plan: TrialPlan {
                        trial: 0,
                        seed: 1,
                        crash_spec: "crash=0@worker-kill@0".to_string(),
                        io_spec: String::new(),
                    },
                    resumes: 1,
                    replayed_final: 3,
                    encodes_final: 0,
                    faults_injected: 0,
                    violations: vec![
                        "I3: job 1 has \"2\" durable records".to_string(),
                        "I4: job 2 \\ differs".to_string(),
                    ],
                },
                TrialResult {
                    plan: TrialPlan {
                        trial: 1,
                        seed: 17,
                        crash_spec: String::new(),
                        io_spec: "eio=journal@2".to_string(),
                    },
                    resumes: 0,
                    replayed_final: 2,
                    encodes_final: 1,
                    faults_injected: 1,
                    violations: Vec::new(),
                },
            ],
        };
        let json = report.to_json();
        let golden = concat!(
            r#"{"schema":"vbench.chaos.v1","scenario":"dispatch","seed":9,"trials":2,"#,
            r#""violations":2,"trial_results":["#,
            r#"{"trial":0,"seed":1,"crash_plan":"crash=0@worker-kill@0","io_plan":"","#,
            r#""resumes":1,"replayed_final":3,"encodes_final":0,"faults_injected":0,"#,
            r#""violations":["I3: job 1 has \"2\" durable records","I4: job 2 \\ differs"]},"#,
            r#"{"trial":1,"seed":17,"crash_plan":"","io_plan":"eio=journal@2","#,
            r#""resumes":0,"replayed_final":2,"encodes_final":1,"faults_injected":1,"#,
            r#""violations":[]}]}"#,
            "\n",
        );
        assert_eq!(json, golden);
        // The document as the indented writer laid it out: the compact
        // one must carry exactly the same values.
        let indented = concat!(
            "{\n",
            "  \"schema\": \"vbench.chaos.v1\",\n",
            "  \"scenario\": \"dispatch\",\n",
            "  \"seed\": 9,\n",
            "  \"trials\": 2,\n",
            "  \"violations\": 2,\n",
            "  \"trial_results\": [\n",
            r#"    {"trial": 0, "seed": 1, "crash_plan": "crash=0@worker-kill@0", "io_plan": "", "#,
            r#""resumes": 1, "replayed_final": 3, "encodes_final": 0, "faults_injected": 0, "#,
            r#""violations": ["I3: job 1 has \"2\" durable records", "I4: job 2 \\ differs"]},"#,
            "\n",
            r#"    {"trial": 1, "seed": 17, "crash_plan": "", "io_plan": "eio=journal@2", "#,
            r#""resumes": 0, "replayed_final": 2, "encodes_final": 1, "faults_injected": 1, "#,
            r#""violations": []}"#,
            "\n  ]\n}\n",
        );
        assert_eq!(
            json::parse(&json).expect("report is valid JSON"),
            json::parse(indented).unwrap()
        );
    }
}
