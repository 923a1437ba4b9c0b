//! Deterministic fault injection for the transcode farm.
//!
//! Production transcoding fleets do not get to assume every encode
//! succeeds: workers crash, jobs hit poisoned inputs, machines straggle
//! (Li & Salehi's heterogeneous-cloud study shows deadline misses and
//! machine variability dominating real deployments). This crate makes
//! those failures *injectable and replayable* so the farm's resilience
//! layer — retries, panic isolation, deadlines, hedging — is testable
//! instead of aspirational.
//!
//! A [`FaultPlan`] decides, for every `(job index, attempt number)` pair,
//! whether that attempt fails with a typed error, panics, or runs with
//! artificial straggler latency. Decisions are a pure function of the
//! plan and the `(job, attempt)` key — never of wall-clock time, thread
//! identity, or execution order — so a plan replays bit-exactly at any
//! worker count. Random plans derive a per-job generator from the seed
//! via the same xoshiro256++/SplitMix64 substrate ([`rand`], the
//! workspace's `vrand` stand-in) the rest of the workspace uses.
//!
//! ```
//! use vfault::{FaultKind, FaultPlan};
//!
//! let plan = FaultPlan::new()
//!     .with_transient(1, 1)      // job 1: fail its first attempt
//!     .with_panic(3, u32::MAX)   // job 3: panic on every attempt
//!     .with_straggler(4, 0.25);  // job 4: +250 ms of latency
//! assert_eq!(plan.decide(1, 0).fail, Some(FaultKind::Transient));
//! assert_eq!(plan.decide(1, 1).fail, None); // retry succeeds
//! assert_eq!(plan.decide(2, 0).fail, None); // untouched job
//! ```

#![warn(missing_docs)]

mod io;

pub use io::{FileClass, IoFaultKind, IoFaultPlan, IoOp};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The kinds of failure a plan can inject.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FaultKind {
    /// Fails a bounded number of leading attempts, then succeeds — the
    /// "try again and it works" class (OOM kill, lost lease, preemption).
    Transient,
    /// Fails every attempt — a poisoned input no retry can save.
    Permanent,
    /// Panics mid-encode instead of returning an error — the class that
    /// used to take the whole batch down.
    Panic,
    /// Succeeds, but with artificial extra latency — a straggling
    /// machine, the hedging layer's prey.
    Straggler,
}

impl FaultKind {
    /// Display name ("transient", "permanent", "panic", "straggler").
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Transient => "transient",
            FaultKind::Permanent => "permanent",
            FaultKind::Panic => "panic",
            FaultKind::Straggler => "straggler",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A typed injected failure: which fault fired, on which job and attempt.
/// This is what the engine's `TranscodeError::Injected` carries.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct InjectedFault {
    /// The kind of fault that fired.
    pub kind: FaultKind,
    /// The job it fired on (batch index).
    pub job: usize,
    /// The attempt it fired on (0 = first try).
    pub attempt: u32,
}

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected {} fault (job {}, attempt {})", self.kind, self.job, self.attempt)
    }
}

impl std::error::Error for InjectedFault {}

/// What the plan tells the executor to do for one `(job, attempt)`.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Decision {
    /// Fail this attempt with the given fault. [`FaultKind::Panic`] means
    /// the executor should panic rather than return an error.
    pub fail: Option<FaultKind>,
    /// Artificial straggler latency to charge to this attempt, in
    /// seconds (0.0 = none).
    pub extra_secs: f64,
}

/// Where in the durable batch driver's per-job pipeline a scripted
/// [`FaultPlan`] crash aborts execution.
///
/// Crash faults model the failure journaling exists for: the whole
/// process dying mid-batch. They are consulted only by journaled batch
/// execution (`vbench::journal`) — the plain farm scheduler ignores them
/// — and each point pins a distinct durability window:
///
/// * `PreEncode` dies before the job ran at all (nothing of it is
///   durable);
/// * `PostEncode` dies after the encode but before its journal record
///   was written (the work is lost, the journal is clean);
/// * `PreJournalFlush` dies mid-append, after part of the record's bytes
///   reached the file but before the fsync — the torn-line case resume
///   must quarantine.
/// * `WorkerKill` is worker-scoped rather than driver-scoped: a
///   multi-process worker (`vbench worker`) consults it right after
///   winning its *first* lease on the job and kills its whole process,
///   SIGKILL-style — the case a dispatcher must recover from by
///   expiring the dead worker's lease so a survivor re-encodes the job.
///   The first-lease rule keeps the fault one-shot: the re-lease after
///   reclaim (or by a respawned worker) does not re-fire it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CrashPoint {
    /// Abort before the job's first attempt runs.
    PreEncode,
    /// Abort after the job's attempt chain finished, before any journal
    /// bytes for it were written.
    PostEncode,
    /// Abort mid-append: a torn (partial, unsynced) journal line is left
    /// behind.
    PreJournalFlush,
    /// Kill the whole worker process on its first lease of the job
    /// (multi-process execution only; the in-process driver ignores it).
    WorkerKill,
}

impl CrashPoint {
    /// Display name ("pre-encode", "post-encode", "pre-journal-flush",
    /// "worker-kill").
    pub fn name(&self) -> &'static str {
        match self {
            CrashPoint::PreEncode => "pre-encode",
            CrashPoint::PostEncode => "post-encode",
            CrashPoint::PreJournalFlush => "pre-journal-flush",
            CrashPoint::WorkerKill => "worker-kill",
        }
    }

    /// Parses a display name back into a point.
    pub fn parse(s: &str) -> Option<CrashPoint> {
        match s {
            "pre-encode" => Some(CrashPoint::PreEncode),
            "post-encode" => Some(CrashPoint::PostEncode),
            "pre-journal-flush" => Some(CrashPoint::PreJournalFlush),
            "worker-kill" => Some(CrashPoint::WorkerKill),
            _ => None,
        }
    }
}

impl std::fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One job's scripted fault.
#[derive(Clone, Copy, PartialEq, Debug)]
struct JobFault {
    job: usize,
    kind: FaultKind,
    /// Attempts `0..attempts` are affected (`u32::MAX` = every attempt).
    attempts: u32,
    /// Straggler latency in seconds (only meaningful for `Straggler`).
    extra_secs: f64,
}

/// One scripted process crash, fired by the journaled batch driver.
#[derive(Clone, Copy, PartialEq, Debug)]
struct CrashFault {
    job: usize,
    point: CrashPoint,
    /// Which journal run the crash fires on (0 = the first execution; a
    /// resumed run increments the count, so a crash never re-fires on
    /// resume unless scripted for that run).
    run: u32,
}

/// Knobs for seeded random fault generation.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RandomFaults {
    /// Probability that a given job is faulted at all.
    pub rate: f64,
    /// Straggler latency drawn for straggler faults, in seconds.
    pub straggle_secs: f64,
}

impl Default for RandomFaults {
    fn default() -> RandomFaults {
        RandomFaults { rate: 0.1, straggle_secs: 0.25 }
    }
}

/// A deterministic fault-injection plan.
///
/// Combines explicitly scripted per-job faults with an optional seeded
/// random layer. Random faults are always *recoverable* (a transient
/// failure, a first-attempt panic, or a straggler) so a plan paired with
/// `max_retries >= 1` always completes; permanent faults must be
/// scripted explicitly.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct FaultPlan {
    faults: Vec<JobFault>,
    crashes: Vec<CrashFault>,
    seed: u64,
    random: Option<RandomFaults>,
}

impl FaultPlan {
    /// An empty plan: every decision is a no-op.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty() && self.crashes.is_empty() && self.random.is_none()
    }

    /// Scripts a transient fault: job `job` fails its first `attempts`
    /// attempts, then succeeds.
    pub fn with_transient(mut self, job: usize, attempts: u32) -> FaultPlan {
        self.faults.push(JobFault { job, kind: FaultKind::Transient, attempts, extra_secs: 0.0 });
        self
    }

    /// Scripts a permanent fault: job `job` fails every attempt.
    pub fn with_permanent(mut self, job: usize) -> FaultPlan {
        self.faults.push(JobFault {
            job,
            kind: FaultKind::Permanent,
            attempts: u32::MAX,
            extra_secs: 0.0,
        });
        self
    }

    /// Scripts a panic: job `job` panics on its first `attempts` attempts
    /// (`u32::MAX` = every attempt).
    pub fn with_panic(mut self, job: usize, attempts: u32) -> FaultPlan {
        self.faults.push(JobFault { job, kind: FaultKind::Panic, attempts, extra_secs: 0.0 });
        self
    }

    /// Scripts a straggler: every attempt of job `job` carries
    /// `extra_secs` of artificial latency.
    pub fn with_straggler(self, job: usize, extra_secs: f64) -> FaultPlan {
        self.with_transient_straggler(job, u32::MAX, extra_secs)
    }

    /// Scripts a straggler that clears: only the first `attempts`
    /// attempts of job `job` carry the extra latency — a retry (e.g.
    /// after a deadline miss) runs at full speed.
    pub fn with_transient_straggler(
        mut self,
        job: usize,
        attempts: u32,
        extra_secs: f64,
    ) -> FaultPlan {
        self.faults.push(JobFault { job, kind: FaultKind::Straggler, attempts, extra_secs });
        self
    }

    /// Scripts a process crash on the *first* journaled run: the batch
    /// driver aborts at `point` of job `job`. Resume (the second run)
    /// does not re-fire it. Only journaled execution
    /// (`vbench::journal::run_batch_journaled_with_io`) consults crash
    /// faults; the plain farm scheduler ignores them.
    pub fn with_crash(self, job: usize, point: CrashPoint) -> FaultPlan {
        self.with_crash_on_run(job, point, 0)
    }

    /// Scripts a process crash on journal run number `run` (0 = first
    /// execution, 1 = first resume, …), for multi-crash scenarios.
    pub fn with_crash_on_run(mut self, job: usize, point: CrashPoint, run: u32) -> FaultPlan {
        self.crashes.push(CrashFault { job, point, run });
        self
    }

    /// The crash the journaled driver must simulate at `job` during run
    /// `run`, if any. Pure: depends only on the plan and the key, like
    /// [`FaultPlan::decide`].
    pub fn decide_crash(&self, job: usize, run: u32) -> Option<CrashPoint> {
        self.crashes.iter().find(|c| c.job == job && c.run == run).map(|c| c.point)
    }

    /// Adds a seeded random layer: each job is independently faulted with
    /// `random.rate` probability, drawing uniformly among a transient
    /// first-attempt failure, a first-attempt panic, and a straggler.
    pub fn with_random(mut self, seed: u64, random: RandomFaults) -> FaultPlan {
        self.seed = seed;
        self.random = Some(random);
        self
    }

    /// The decision for `(job, attempt)`. Pure: depends only on the plan
    /// and the key, so any scheduler replays it identically.
    pub fn decide(&self, job: usize, attempt: u32) -> Decision {
        let mut decision = Decision::default();
        for f in self.faults.iter().filter(|f| f.job == job) {
            apply(&mut decision, f, attempt);
        }
        if let Some(random) = self.random {
            if let Some(f) = self.random_fault(job, random) {
                apply(&mut decision, &f, attempt);
            }
        }
        decision
    }

    /// The random layer's fault for `job`, derived from the seed alone.
    fn random_fault(&self, job: usize, random: RandomFaults) -> Option<JobFault> {
        // Mix the job index into the seed (SplitMix64's constant) so each
        // job gets an independent, order-free stream.
        let mixed = self.seed ^ (job as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17);
        let mut rng = SmallRng::seed_from_u64(mixed);
        let roll: f64 = rng.gen_range(0.0..1.0);
        if roll >= random.rate {
            return None;
        }
        // Recoverable kinds only: a seeded plan plus one retry always
        // completes (permanent faults must be scripted).
        let kind = match rng.gen_range(0..3u32) {
            0 => FaultKind::Transient,
            1 => FaultKind::Panic,
            _ => FaultKind::Straggler,
        };
        Some(match kind {
            FaultKind::Straggler => {
                JobFault { job, kind, attempts: u32::MAX, extra_secs: random.straggle_secs }
            }
            _ => JobFault { job, kind, attempts: 1, extra_secs: 0.0 },
        })
    }

    /// Parses a plan from its CLI spec: comma-separated terms.
    ///
    /// | term | meaning |
    /// |---|---|
    /// | `transient=J` or `transient=JxN` | job J fails its first 1 (or N) attempts |
    /// | `permanent=J` | job J fails every attempt |
    /// | `panic=J` or `panic=JxN` | job J panics on every (or the first N) attempts |
    /// | `straggle=J:SECS` | job J runs with SECS extra latency |
    /// | `crash=J@POINT` or `crash=J@POINT@R` | journaled run R (default 0) aborts at POINT of job J (`pre-encode`, `post-encode`, `pre-journal-flush`) |
    /// | `crash=J@worker-kill` or `crash=J@worker-kill@R` | multi-process run R kills the worker process holding the first lease on job J |
    /// | `seed=N` | seed for the random layer |
    /// | `rate=F` | enable the random layer: fault each job with probability F |
    /// | `straggle-secs=F` | random-layer straggler latency (default 0.25) |
    pub fn parse(spec: &str) -> Result<FaultPlan, PlanParseError> {
        let mut plan = FaultPlan::new();
        let mut seed = 0u64;
        let mut rate: Option<f64> = None;
        let mut straggle_secs = RandomFaults::default().straggle_secs;
        for term in spec_terms(spec) {
            let (term, key, value) = term?;
            let bad = || PlanParseError { term: term.to_string() };
            match key {
                "transient" => {
                    let (job, attempts) = parse_job_attempts(value, 1).ok_or_else(bad)?;
                    plan = plan.with_transient(job, attempts);
                }
                "permanent" => plan = plan.with_permanent(value.parse().map_err(|_| bad())?),
                "panic" => {
                    let (job, attempts) = parse_job_attempts(value, u32::MAX).ok_or_else(bad)?;
                    plan = plan.with_panic(job, attempts);
                }
                "straggle" => {
                    let (job, secs) = value.split_once(':').ok_or_else(bad)?;
                    plan = plan.with_straggler(
                        job.parse().map_err(|_| bad())?,
                        secs.parse().map_err(|_| bad())?,
                    );
                }
                "crash" => {
                    let (job, rest) = value.split_once('@').ok_or_else(bad)?;
                    let (point, run) = match rest.split_once('@') {
                        None => (rest, 0u32),
                        Some((point, run)) => (point, run.parse().map_err(|_| bad())?),
                    };
                    plan = plan.with_crash_on_run(
                        job.parse().map_err(|_| bad())?,
                        CrashPoint::parse(point).ok_or_else(bad)?,
                        run,
                    );
                }
                "seed" => seed = value.parse().map_err(|_| bad())?,
                "rate" => rate = Some(value.parse().map_err(|_| bad())?),
                "straggle-secs" => straggle_secs = value.parse().map_err(|_| bad())?,
                _ => return Err(bad()),
            }
        }
        if let Some(rate) = rate {
            plan = plan.with_random(seed, RandomFaults { rate, straggle_secs });
        }
        Ok(plan)
    }
}

/// Folds one scripted fault into a decision if it covers `attempt`.
fn apply(decision: &mut Decision, f: &JobFault, attempt: u32) {
    match f.kind {
        FaultKind::Straggler if attempt < f.attempts => decision.extra_secs += f.extra_secs,
        FaultKind::Straggler => {}
        // Panic outranks a plain failure: it is the harsher outcome.
        _ if attempt < f.attempts && decision.fail != Some(FaultKind::Panic) => {
            decision.fail = Some(f.kind);
        }
        _ => {}
    }
}

/// Parses `"J"` or `"JxN"` into (job, attempts).
fn parse_job_attempts(value: &str, default_attempts: u32) -> Option<(usize, u32)> {
    match value.split_once('x') {
        None => Some((value.parse().ok()?, default_attempts)),
        Some((job, attempts)) => Some((job.parse().ok()?, attempts.parse().ok()?)),
    }
}

/// The one splitter behind both plan grammars ([`FaultPlan::parse`],
/// [`IoFaultPlan::parse`]): a spec is comma-separated `key=value` terms,
/// blanks skipped. Yields `(term, key, value)` — each grammar is a
/// `match key` over it — or the error for a term with no `=`.
pub(crate) fn spec_terms(
    spec: &str,
) -> impl Iterator<Item = Result<(&str, &str, &str), PlanParseError>> {
    spec.split(',').map(str::trim).filter(|term| !term.is_empty()).map(|term| {
        let (key, value) =
            term.split_once('=').ok_or_else(|| PlanParseError { term: term.to_string() })?;
        Ok((term, key, value))
    })
}

/// A fault-plan spec term that could not be parsed.
#[derive(Clone, PartialEq, Debug)]
pub struct PlanParseError {
    /// The offending term.
    pub term: String,
}

impl std::fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad fault-plan term '{}'", self.term)
    }
}

impl std::error::Error for PlanParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_a_no_op() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        for job in 0..8 {
            for attempt in 0..3 {
                assert_eq!(plan.decide(job, attempt), Decision::default());
            }
        }
    }

    #[test]
    fn transient_fault_clears_after_its_attempts() {
        let plan = FaultPlan::new().with_transient(2, 2);
        assert_eq!(plan.decide(2, 0).fail, Some(FaultKind::Transient));
        assert_eq!(plan.decide(2, 1).fail, Some(FaultKind::Transient));
        assert_eq!(plan.decide(2, 2).fail, None);
        assert_eq!(plan.decide(3, 0).fail, None);
    }

    #[test]
    fn permanent_fault_never_clears() {
        let plan = FaultPlan::new().with_permanent(0);
        assert_eq!(plan.decide(0, 0).fail, Some(FaultKind::Permanent));
        assert_eq!(plan.decide(0, 1_000).fail, Some(FaultKind::Permanent));
    }

    #[test]
    fn straggler_adds_latency_without_failing() {
        let plan = FaultPlan::new().with_straggler(1, 0.5);
        let d = plan.decide(1, 0);
        assert_eq!(d.fail, None);
        assert!((d.extra_secs - 0.5).abs() < 1e-12);
        // Latency persists across retries of the same job.
        assert!((plan.decide(1, 3).extra_secs - 0.5).abs() < 1e-12);
    }

    #[test]
    fn transient_straggler_clears_after_its_attempts() {
        let plan = FaultPlan::new().with_transient_straggler(0, 1, 0.5);
        assert!(plan.decide(0, 0).extra_secs > 0.0);
        assert_eq!(plan.decide(0, 1).extra_secs, 0.0, "retry runs at full speed");
    }

    #[test]
    fn panic_outranks_plain_failure() {
        let plan = FaultPlan::new().with_transient(0, 1).with_panic(0, 1);
        assert_eq!(plan.decide(0, 0).fail, Some(FaultKind::Panic));
        let reversed = FaultPlan::new().with_panic(0, 1).with_transient(0, 1);
        assert_eq!(reversed.decide(0, 0).fail, Some(FaultKind::Panic));
    }

    #[test]
    fn random_plan_is_deterministic_and_order_free() {
        let plan =
            FaultPlan::new().with_random(42, RandomFaults { rate: 0.5, ..Default::default() });
        let forward: Vec<Decision> = (0..64).map(|j| plan.decide(j, 0)).collect();
        let backward: Vec<Decision> = (0..64).rev().map(|j| plan.decide(j, 0)).collect();
        let reversed: Vec<Decision> = backward.into_iter().rev().collect();
        assert_eq!(forward, reversed, "decisions must not depend on query order");
        // Roughly half the jobs should be faulted at rate 0.5.
        let faulted = forward.iter().filter(|d| d.fail.is_some() || d.extra_secs > 0.0).count();
        assert!((16..=48).contains(&faulted), "faulted {faulted}/64 at rate 0.5");
    }

    #[test]
    fn random_plans_differ_across_seeds() {
        let faults = RandomFaults { rate: 0.5, ..Default::default() };
        let a: Vec<Decision> =
            (0..64).map(|j| FaultPlan::new().with_random(1, faults).decide(j, 0)).collect();
        let b: Vec<Decision> =
            (0..64).map(|j| FaultPlan::new().with_random(2, faults).decide(j, 0)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn random_faults_are_recoverable() {
        // Every random fault either clears by attempt 1 or never fails at
        // all — the contract that lets a seeded plan finish under retry.
        let plan =
            FaultPlan::new().with_random(7, RandomFaults { rate: 1.0, ..Default::default() });
        for job in 0..128 {
            let later = plan.decide(job, 1);
            assert_eq!(later.fail, None, "job {job} still failing on attempt 1");
        }
    }

    #[test]
    fn crash_fires_only_on_its_scripted_run() {
        let plan = FaultPlan::new().with_crash(2, CrashPoint::PostEncode);
        assert!(!plan.is_empty());
        assert_eq!(plan.decide_crash(2, 0), Some(CrashPoint::PostEncode));
        assert_eq!(plan.decide_crash(2, 1), None, "resume must not re-crash");
        assert_eq!(plan.decide_crash(1, 0), None, "untouched job");
        // Crashes never leak into the plain per-attempt decision.
        assert_eq!(plan.decide(2, 0), Decision::default());
    }

    #[test]
    fn crash_on_run_targets_a_later_run() {
        let plan = FaultPlan::new().with_crash(0, CrashPoint::PreEncode).with_crash_on_run(
            1,
            CrashPoint::PreJournalFlush,
            1,
        );
        assert_eq!(plan.decide_crash(0, 0), Some(CrashPoint::PreEncode));
        assert_eq!(plan.decide_crash(1, 0), None);
        assert_eq!(plan.decide_crash(1, 1), Some(CrashPoint::PreJournalFlush));
        assert_eq!(plan.decide_crash(1, 2), None);
    }

    #[test]
    fn crash_point_names_round_trip() {
        for point in [
            CrashPoint::PreEncode,
            CrashPoint::PostEncode,
            CrashPoint::PreJournalFlush,
            CrashPoint::WorkerKill,
        ] {
            assert_eq!(CrashPoint::parse(point.name()), Some(point));
        }
        assert_eq!(CrashPoint::parse("mid-encode"), None);
    }

    #[test]
    fn parse_supports_crash_terms() {
        let plan = FaultPlan::parse("crash=3@post-encode, crash=3@pre-encode@1").expect("valid");
        assert_eq!(plan.decide_crash(3, 0), Some(CrashPoint::PostEncode));
        assert_eq!(plan.decide_crash(3, 1), Some(CrashPoint::PreEncode));
        let kill = FaultPlan::parse("crash=1@worker-kill").expect("worker-scoped kill parses");
        assert_eq!(kill.decide_crash(1, 0), Some(CrashPoint::WorkerKill));
        assert_eq!(kill.decide_crash(1, 1), None, "kill is keyed to run 0");
        for bad in ["crash=3", "crash=3@nowhere", "crash=x@pre-encode", "crash=3@pre-encode@x"] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn parse_round_trips_the_readme_example() {
        let plan = FaultPlan::parse("transient=1, panic=3x1, straggle=4:0.25").expect("valid spec");
        assert_eq!(plan.decide(1, 0).fail, Some(FaultKind::Transient));
        assert_eq!(plan.decide(1, 1).fail, None);
        assert_eq!(plan.decide(3, 0).fail, Some(FaultKind::Panic));
        assert_eq!(plan.decide(3, 1).fail, None);
        assert!(plan.decide(4, 0).extra_secs > 0.0);
    }

    #[test]
    fn parse_supports_the_random_layer() {
        let plan = FaultPlan::parse("seed=9,rate=1.0,straggle-secs=0.1").expect("valid spec");
        assert!(!plan.is_empty());
        let faulted = (0..32).filter(|&j| plan.decide(j, 0) != Decision::default()).count();
        assert_eq!(faulted, 32, "rate=1.0 faults every job");
    }

    #[test]
    fn parse_rejects_malformed_terms() {
        for bad in ["bogus=1", "transient=", "straggle=1", "panic=x", "rate=lots", "transient"] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn empty_spec_parses_to_empty_plan() {
        assert!(FaultPlan::parse("").expect("empty spec").is_empty());
        assert!(FaultPlan::parse(" , ").expect("whitespace spec").is_empty());
    }
}
