//! Observability integration: one dispatched batch, profiled three ways.
//!
//! A single `vbench dispatch --trace-out --status-out --log-level
//! verbose` run produces a merged trace, a journal, and a status
//! snapshot; this suite reconciles the `vprof` view of those artifacts
//! against the batch's own ground truth:
//!
//! - the trace's `exec.jobs_completed` counter equals the job count and
//!   every job has a `transcode` span (the analyzer sees all the work);
//! - verbose per-stage spans sum to no more than the encode time they
//!   decompose (Table-5-style attribution cannot invent time);
//! - the folded-stack export is syntactically valid inferno input;
//! - `vbench top --once` renders every worker from the journal without
//!   writing a single byte to it (monitoring is read-only, pinned by a
//!   before/after byte compare).

use std::path::{Path, PathBuf};
use std::process::Command;

use vtrace::json::{self, Value};

const EXE: &str = env!("CARGO_BIN_EXE_vbench");
const VIDEOS: &str = "house,cat";
const JOBS: u64 = 2;

/// A scratch directory in the temp dir, unique per test.
fn temp_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("vbench-obs-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).expect("create temp dir");
    p
}

/// Runs one dispatched batch with the full observability surface on and
/// returns `(journal, trace, status)` paths.
fn run_observed_dispatch(dir: &Path) -> (PathBuf, PathBuf, PathBuf) {
    let journal = dir.join("journal.jsonl");
    let trace = dir.join("trace.jsonl");
    let status = dir.join("status.json");
    let out = Command::new(EXE)
        .args(["dispatch", "--videos", VIDEOS, "--procs", "2", "--workers", "1"])
        .args(["--journal", &journal.display().to_string()])
        .args(["--trace-out", &trace.display().to_string()])
        .args(["--status-out", &status.display().to_string()])
        .args(["--log-level", "verbose"])
        .args(["--out-dir", &dir.join("out").display().to_string()])
        .output()
        .expect("run dispatch");
    assert!(
        out.status.success(),
        "observed dispatch failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    (journal, trace, status)
}

#[test]
fn vprof_report_reconciles_with_the_batch_and_top_is_read_only() {
    let dir = temp_dir("reconcile");
    let (journal, trace_path, status_path) = run_observed_dispatch(&dir);

    let trace = vprof::Trace::load(&trace_path).expect("trace parses");

    // Counter reconciliation: the merged trace must account for every
    // published job exactly once, and each job carries a transcode span.
    assert_eq!(
        trace.counters.get("exec.jobs_completed").copied(),
        Some(JOBS),
        "exec.jobs_completed must equal the job count; counters: {:?}",
        trace.counters
    );
    let transcodes = trace.spans_named("transcode").count() as u64;
    assert!(transcodes >= JOBS, "expected >= {JOBS} transcode spans, got {transcodes}");

    // Stage attribution: verbose stage spans decompose encode time, so
    // their sum can never exceed the encode seconds they break down.
    let sb = vprof::stage_breakdown(&trace);
    assert_eq!(sb.transcodes, transcodes);
    assert!(sb.encode_secs > 0.0, "transcode spans must carry encode_secs");
    assert!(!sb.stage_us.is_empty(), "verbose run must emit per-stage spans");
    assert!(
        sb.stage_secs_total() <= sb.encode_secs,
        "stage seconds {:.6} exceed encode seconds {:.6}",
        sb.stage_secs_total(),
        sb.encode_secs
    );

    // The critical path ends at real work, not the coordinator umbrella.
    let path = vprof::critical_path(&trace);
    assert!(!path.is_empty(), "critical path must be non-empty");
    assert_eq!(path.last().unwrap().name, "transcode", "path: {path:?}");

    // Folded-stack export: every line is `frame(;frame)* <count>` with a
    // per-process root frame, ready for inferno.
    let folded = vprof::folded_stacks(&trace);
    assert!(!folded.is_empty(), "flame export must be non-empty");
    for line in folded.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("folded line has a count");
        assert!(count.parse::<u64>().is_ok(), "bad count in {line:?}");
        assert!(!stack.is_empty() && !stack.contains(' '), "bad stack in {line:?}");
        assert!(stack.starts_with("pid"), "stack must be rooted at a process: {line:?}");
    }

    // The report renders every section from this real trace.
    let report = vprof::render_report(&trace);
    for needle in ["critical path", "stage attribution", "utilization", "exec.jobs_completed"] {
        assert!(report.contains(needle), "report missing {needle:?}:\n{report}");
    }

    // `top --once` prints every worker's state and never writes to the
    // journal: byte-identical before and after is the read-only pin.
    let journal_before = std::fs::read(&journal).expect("journal readable");
    let top = Command::new(EXE)
        .args(["top", "--journal", &journal.display().to_string(), "--once"])
        .output()
        .expect("run top");
    assert!(top.status.success(), "top --once failed: {top:?}");
    let journal_after = std::fs::read(&journal).expect("journal readable");
    assert_eq!(journal_before, journal_after, "top --once must not write to the journal");
    let view = String::from_utf8_lossy(&top.stdout);
    assert!(view.contains(&format!("jobs {JOBS}  done {JOBS}")), "unexpected header:\n{view}");
    for worker in ["\n     0 ", "\n     1 "] {
        assert!(view.contains(worker), "worker row missing in:\n{view}");
    }

    // The dispatcher's final status snapshot is valid JSON and agrees
    // with the journal-derived view.
    let status = std::fs::read_to_string(&status_path).expect("status.json written");
    let doc = json::parse(&status).expect("status.json is valid JSON");
    assert_eq!(doc.get("jobs").and_then(Value::as_u64), Some(JOBS));
    assert_eq!(doc.get("done").and_then(Value::as_u64), Some(JOBS));
    match doc.get("workers") {
        Some(Value::Array(workers)) => assert_eq!(workers.len(), 2, "two worker rows"),
        other => panic!("workers must be an array, got {other:?}"),
    }

    // The merged trace passes the stream validator (headers rebased,
    // timestamps monotonic per segment). `vtrace-check` lives in the
    // vtrace package, so no CARGO_BIN_EXE_* var points at it from here;
    // a workspace-wide `cargo test` builds it next to `vbench`.
    let check_exe =
        Path::new(EXE).with_file_name(format!("vtrace-check{}", std::env::consts::EXE_SUFFIX));
    if check_exe.exists() {
        let check = Command::new(&check_exe).arg(&trace_path).output().expect("run vtrace-check");
        assert!(
            check.status.success(),
            "vtrace-check rejected the merged trace:\n{}",
            String::from_utf8_lossy(&check.stderr)
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// `vbench top` on the ledger of a zero-job batch exits at once: every
/// one of its zero jobs is done. Run under a timeout, so a refresh loop
/// that waits for a first job fails the test instead of hanging it.
#[test]
fn top_exits_on_a_zero_job_ledger() {
    let dir = temp_dir("top-zero");
    let journal = dir.join("journal.jsonl");
    std::fs::write(
        dir.join("journal.jsonl.ledger"),
        "{\"kind\":\"manifest\",\"version\":1,\"fingerprint\":7,\"jobs\":0}\n\
         {\"kind\":\"run\",\"index\":0}\n",
    )
    .expect("write ledger");
    let mut top = Command::new(EXE)
        .args(["top", "--journal", &journal.display().to_string(), "--interval-ms", "10"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("run top");
    let give_up = std::time::Instant::now() + std::time::Duration::from_secs(20);
    let status = loop {
        if let Some(status) = top.try_wait().expect("poll top") {
            break status;
        }
        if std::time::Instant::now() > give_up {
            let _ = top.kill();
            let _ = top.wait();
            panic!("vbench top still running on a zero-job ledger after 20 s");
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    let out = top.wait_with_output().expect("top output");
    assert!(status.success(), "top exited {status}");
    let view = String::from_utf8_lossy(&out.stdout);
    assert!(view.contains("jobs 0  done 0"), "unexpected view:\n{view}");
    let _ = std::fs::remove_dir_all(&dir);
}
