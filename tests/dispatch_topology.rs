//! Multi-process dispatch integration tests: the topology matrix.
//!
//! The invariant under test: a `vbench dispatch` batch produces
//! bitstreams byte-identical to a single-process `vbench batch` run at
//! *any* `(processes × workers-per-process)` topology — including when
//! a worker process dies mid-batch (scripted `worker-kill` fault or a
//! real SIGKILL) and its leased job is reclaimed by a survivor. The
//! journal must end with exactly one job record per job: a dead
//! worker's lease is expired only after the process is reaped, so zero
//! duplicate published records is structural, not probabilistic.
//!
//! Two files per dispatch: `<journal>` holds manifest, run and job
//! records and nothing else; the leases, expires, heartbeats and done
//! markers the participants coordinate through are in
//! `<journal>.ledger`.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use vtrace::json::{self, Value};

const EXE: &str = env!("CARGO_BIN_EXE_vbench");
const VIDEOS: &str = "desktop,cat,girl";

/// A scratch directory in the temp dir, unique per test.
fn temp_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("vbench-dispatch-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).expect("create temp dir");
    p
}

/// Runs `vbench batch` into `out_dir` and asserts success.
fn run_batch(dir: &Path, out_dir: &str, extra: &[&str]) {
    let out = Command::new(EXE)
        .args(["batch", "--videos", VIDEOS, "--workers", "2"])
        .args(["--out-dir", &format!("{}/{out_dir}", dir.display())])
        .args(extra)
        .output()
        .expect("run batch");
    assert!(out.status.success(), "batch failed: {out:?}");
}

/// Runs `vbench dispatch` at the given topology into `out_dir` and
/// asserts success.
fn run_dispatch(dir: &Path, out_dir: &str, procs: usize, workers: usize, extra: &[&str]) {
    let journal = format!("{}/{out_dir}.jsonl", dir.display());
    let out = Command::new(EXE)
        .args(["dispatch", "--videos", VIDEOS, "--journal", &journal])
        .args(["--procs", &procs.to_string(), "--workers", &workers.to_string()])
        .args(["--out-dir", &format!("{}/{out_dir}", dir.display())])
        .args(extra)
        .output()
        .expect("run dispatch");
    assert!(
        out.status.success(),
        "dispatch --procs {procs} --workers {workers} failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
}

/// Asserts every per-video output in `got` is byte-identical to `want`.
fn assert_outputs_identical(dir: &Path, want: &str, got: &str, ctx: &str) {
    for name in VIDEOS.split(',') {
        let base =
            std::fs::read(format!("{}/{want}/{name}.vbs", dir.display())).expect("baseline output");
        let other =
            std::fs::read(format!("{}/{got}/{name}.vbs", dir.display())).expect("topology output");
        assert_eq!(base, other, "{ctx}: {name}.vbs differs from single-process run");
    }
}

/// The ledger file of a dispatch journal.
fn ledger_of(journal: &str) -> String {
    format!("{journal}.ledger")
}

/// The parsed records of a ledger (or journal) file, torn lines skipped.
fn records(path: &str) -> Vec<Value> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    text.lines().filter_map(|l| json::parse(l).ok()).collect()
}

/// Whether `record` is of `kind` and carries `key: value`.
fn is(record: &Value, kind: &str, key: &str, value: u64) -> bool {
    record.get("kind").and_then(Value::as_str) == Some(kind)
        && record.get(key).and_then(Value::as_u64) == Some(value)
}

/// Asserts the journal holds exactly one job record per job index —
/// worker loss must never yield a duplicate published record — and no
/// coordination record at all.
fn assert_one_record_per_job(journal: &str, jobs: usize, ctx: &str) {
    let text = std::fs::read_to_string(journal).expect("journal readable");
    let mut counts = vec![0usize; jobs];
    for line in text.lines() {
        let parsed = json::parse(line).unwrap_or_else(|e| panic!("{ctx}: bad line {line:?}: {e}"));
        let kind = parsed.get("kind").and_then(Value::as_str).expect("record kind");
        assert!(
            matches!(kind, "manifest" | "run" | "job"),
            "{ctx}: {kind:?} record in the journal"
        );
        if kind == "job" {
            let job = parsed.get("job").and_then(Value::as_u64).expect("job index") as usize;
            counts[job] += 1;
        }
    }
    assert_eq!(counts, vec![1; jobs], "{ctx}: duplicate or missing job records");
}

#[test]
fn topology_matrix_is_byte_identical() {
    let dir = temp_dir("matrix");
    run_batch(&dir, "base", &[]);
    // One process, three threads — the lease ledger with no process
    // boundary crossings beyond the dispatcher itself.
    run_dispatch(&dir, "p1w3", 1, 3, &[]);
    assert_outputs_identical(&dir, "base", "p1w3", "1 proc x 3 workers");
    assert_one_record_per_job(&format!("{}/p1w3.jsonl", dir.display()), 3, "1x3");
    // Three processes, one thread each — every job crosses a process
    // boundary.
    run_dispatch(&dir, "p3w1", 3, 1, &[]);
    assert_outputs_identical(&dir, "base", "p3w1", "3 procs x 1 worker");
    assert_one_record_per_job(&format!("{}/p3w1.jsonl", dir.display()), 3, "3x1");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scripted_worker_kill_is_reclaimed_and_byte_identical() {
    let dir = temp_dir("scripted-kill");
    run_batch(&dir, "base", &[]);
    // The first worker to lease job 1 aborts its whole process at the
    // claim point. The dispatcher must reap it, expire the lease, and a
    // survivor (or respawn) must re-encode the job — the first-lease
    // rule keeps the kill one-shot.
    run_dispatch(&dir, "killed", 2, 1, &["--fault-plan", "crash=1@worker-kill"]);
    assert_outputs_identical(&dir, "base", "killed", "scripted worker kill");
    let journal = format!("{}/killed.jsonl", dir.display());
    assert_one_record_per_job(&journal, 3, "scripted kill");
    let ledger = records(&ledger_of(&journal));
    assert!(
        ledger.iter().any(|r| is(r, "expire", "job", 1)),
        "the killed worker's lease on job 1 must have been expired:\n{ledger:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGKILLs a real worker process mid-encode (while it holds a lease on
/// a straggling job) and proves the dispatcher reaps it, expires the
/// lease, and the batch still completes byte-identical with exactly one
/// record per job.
#[test]
fn sigkilled_worker_lease_is_reclaimed_by_a_survivor() {
    let dir = temp_dir("sigkill");
    run_batch(&dir, "base", &[]);

    // Job 2 straggles (real sleep, capped at 0.5 s by the resilience
    // layer) — the window in which its leaseholder gets SIGKILLed.
    let plan = "straggle=2:30";
    let journal = format!("{}/sk.jsonl", dir.display());
    let mut child = Command::new(EXE)
        .args(["dispatch", "--videos", VIDEOS, "--journal", &journal])
        .args(["--procs", "2", "--workers", "1", "--fault-plan", plan])
        .args(["--out-dir", &format!("{}/sk", dir.display())])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dispatch");

    // Wait until some worker holds a lease on job 2 (in the ledger) with
    // no job record for it yet (in the journal), then SIGKILL that worker
    // by the pid in its lease.
    let deadline = Instant::now() + Duration::from_secs(60);
    let victim = loop {
        let committed = records(&journal).iter().any(|r| is(r, "job", "job", 2));
        assert!(!committed, "job 2 committed before the kill window opened");
        let ledger = records(&ledger_of(&journal));
        let lease = ledger.iter().find(|r| is(r, "lease", "job", 2));
        if let Some(pid) = lease.and_then(|r| r.get("pid").and_then(Value::as_u64)) {
            break pid;
        }
        if let Some(status) = child.try_wait().expect("poll dispatch") {
            panic!("dispatch exited before the kill: {status:?}\n{ledger:?}");
        }
        assert!(Instant::now() < deadline, "no lease on job 2 within 60 s:\n{ledger:?}");
        std::thread::sleep(Duration::from_millis(2));
    };
    let killed = Command::new("kill")
        .args(["-9", &victim.to_string()])
        .status()
        .expect("run kill")
        .success();
    assert!(killed, "kill -9 {victim} failed");

    let status = child.wait().expect("dispatch completes");
    assert!(status.success(), "dispatch failed after worker SIGKILL: {status:?}");

    assert_outputs_identical(&dir, "base", "sk", "real SIGKILL");
    assert_one_record_per_job(&journal, 3, "real SIGKILL");
    let ledger = records(&ledger_of(&journal));
    assert!(
        ledger.iter().any(|r| is(r, "expire", "pid", victim)),
        "the SIGKILLed worker's lease must have been expired after the reap:\n{ledger:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
