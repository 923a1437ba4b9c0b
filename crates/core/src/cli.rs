//! Tracing and exit plumbing shared by the workspace binaries.
//!
//! `vbench` and `tablegen` grew identical copies of the trace-flush and
//! exit helpers; this module is the single home for both, so the exit
//! contract cannot drift between tools. The convention, shared by every
//! binary:
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | success |
//! | 1    | runtime failure (transcode, I/O, batch) — trace still flushed |
//! | 2    | usage error — before any work ran |
//! | 3    | simulated crash (scripted `crash=` fault fired; journal intact) |
//! | 4    | gate fired: `vprof compare` found a benchmark metric past |
//! |      | its `BENCHMARK.json` bound, or a service run whose shed |
//! |      | rate exceeded `--max-shed-rate` |
//! | 5    | infeasible plan: `vbench plan` found a job no catalog |
//! |      | instance can finish inside the scenario deadline |
//! | 6    | chaos invariant violation: `vbench chaos` caught a |
//! |      | recovery bug (report written with the reproducing seeds) |
//!
//! Telemetry only ever goes to stderr and the `--trace-out` file;
//! stdout belongs to report output and stays byte-identical with
//! tracing on or off.

use std::sync::OnceLock;

/// Exit code for success.
pub const EXIT_OK: i32 = 0;
/// Exit code for a runtime failure (transcode, I/O, batch).
pub const EXIT_RUNTIME: i32 = 1;
/// Exit code for a usage error (bad command line; no work ran).
pub const EXIT_USAGE: i32 = 2;
/// Exit code for a simulated crash (scripted `crash=` fault fired).
pub const EXIT_CRASH: i32 = 3;
/// Exit code for a failed quality gate (perf regression found, or a
/// service shed rate above `--max-shed-rate`).
pub const EXIT_GATE: i32 = 4;
/// Exit code for an infeasible fleet plan: at the scenario's own
/// deadline, some job fits no catalog instance.
pub const EXIT_INFEASIBLE: i32 = 5;
/// Exit code for a chaos-audit invariant violation: `vbench chaos`
/// found a trial where recovery broke a durability guarantee.
pub const EXIT_CHAOS: i32 = 6;

/// The `--trace-out` destination, stashed at init so the error path
/// ([`fail`]) can flush the trace too.
static TRACE_OUT: OnceLock<Option<String>> = OnceLock::new();

/// Initialises tracing from the standard telemetry flags: `level_flag`
/// is the raw `--log-level` value (unset = off), `trace_out` the
/// `--trace-out` path. A trace destination implies at least `summary`
/// level. Dies with a usage error on an unknown level.
///
/// Invariant: each binary's `main` calls this exactly once, before any
/// command runs.
pub fn init_tracing(tool: &'static str, level_flag: Option<&str>, trace_out: Option<String>) {
    let mut level = match level_flag {
        None => vtrace::Level::Off,
        Some(s) => vtrace::Level::parse(s).unwrap_or_else(|| {
            die(tool, &format!("unknown log level '{s}' (off|summary|verbose)"))
        }),
    };
    if trace_out.is_some() && level == vtrace::Level::Off {
        level = vtrace::Level::Summary;
    }
    vtrace::set_level(level);
    TRACE_OUT.set(trace_out).expect("tracing initialised once");
}

/// Drains the trace: JSONL to `--trace-out` (if one was given to
/// [`init_tracing`]) and the human-readable span-tree / metrics summary
/// to stderr. Stdout is never touched, so report output stays
/// byte-identical with tracing on or off.
pub fn finish_tracing(tool: &'static str) {
    if !vtrace::enabled() {
        return;
    }
    let report = vtrace::drain();
    if let Some(Some(path)) = TRACE_OUT.get() {
        if let Err(e) = report.write_jsonl(path) {
            eprintln!("[error] {tool}: write trace {path}: {e}");
            std::process::exit(EXIT_RUNTIME);
        }
    }
    eprint!("{}", report.summary());
}

/// Usage error: bad command line. Exit [`EXIT_USAGE`], before any work
/// ran — nothing to flush.
pub fn die(tool: &'static str, msg: &str) -> ! {
    eprintln!("{tool}: {msg}");
    std::process::exit(EXIT_USAGE);
}

/// Runtime failure: a transcode, I/O, or batch operation failed. Logged
/// through vtrace (always reaches stderr) and the trace — including the
/// `--trace-out` JSONL — is still flushed before exit [`EXIT_RUNTIME`],
/// so a failed run leaves the same telemetry artifacts a successful one
/// would. Distinct from usage errors so scripts and CI can tell them
/// apart.
pub fn fail(tool: &'static str, msg: &str) -> ! {
    vtrace::error(tool, msg);
    finish_tracing(tool);
    std::process::exit(EXIT_RUNTIME);
}

/// Quality-gate failure: the run completed and its artifacts are valid,
/// but a gate tripped (service shed rate above `--max-shed-rate`).
/// Flushes the trace and exits [`EXIT_GATE`] — distinct from runtime
/// failures so CI can treat "worked, but over budget" specially.
pub fn fail_gate(tool: &'static str, msg: &str) -> ! {
    vtrace::error(tool, msg);
    finish_tracing(tool);
    std::process::exit(EXIT_GATE);
}

/// Infeasible-plan failure: the planner ran to completion and wrote its
/// report, but at the scenario's own deadline (multiplier 1.0) some job
/// fits no catalog instance. Flushes the trace and exits
/// [`EXIT_INFEASIBLE`] — the report is still valid and replayable, so
/// CI can both archive it and flag the capacity gap.
pub fn fail_infeasible(tool: &'static str, msg: &str) -> ! {
    vtrace::error(tool, msg);
    finish_tracing(tool);
    std::process::exit(EXIT_INFEASIBLE);
}

/// Chaos-audit failure: the fault-injection trials completed and the
/// `CHAOS_*.json` report (with each trial's reproducing fault schedule)
/// was written, but at least one recovery invariant was violated.
/// Flushes the trace and exits [`EXIT_CHAOS`] — distinct from runtime
/// failures because the run itself worked; it is the *recovery
/// guarantee* that is broken.
pub fn fail_chaos(tool: &'static str, msg: &str) -> ! {
    vtrace::error(tool, msg);
    finish_tracing(tool);
    std::process::exit(EXIT_CHAOS);
}
