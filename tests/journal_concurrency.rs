//! Journal append safety under concurrent writers.
//!
//! The multi-process backend has N worker processes all appending job
//! records to one journal file, and those workers plus the dispatcher
//! all appending coordination records to the ledger file beside it. Two
//! guarantees under test:
//!
//! * **No intra-record interleaving.** Every record is written as one
//!   `write(2)` of a whole newline-terminated line to an `O_APPEND`
//!   descriptor, so concurrent appenders interleave records, never
//!   bytes within a record: every line in the final journal parses.
//! * **Compaction keeps a competing writer's valid tail.** When a
//!   resume scan quarantines garbage, valid job records appearing
//!   *after* the garbage (another process's appends landed beyond the
//!   corruption) must survive the rewrite, not be truncated with it.

use std::process::Command;

use vbench::engine::{Engine, RateMode, TranscodeRequest};
use vbench::exec::StdIo;
use vbench::farm::EngineJob;
use vbench::resilience::ResilienceConfig;
use vbench::suite::{Suite, SuiteOptions};
use vbench::{run_batch_journaled_with_io, JournalConfig};
use vcodec::{CodecFamily, Preset};
use vtrace::json::{self, Value};

const EXE: &str = env!("CARGO_BIN_EXE_vbench");

fn temp_path(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("vbench-jconc-{}-{tag}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn jobs(n: usize) -> Vec<EngineJob> {
    let suite = Suite::vbench(&SuiteOptions::tiny());
    suite
        .iter()
        .take(n)
        .map(|v| {
            EngineJob::new(
                v.name,
                v.generate(),
                TranscodeRequest::software(
                    CodecFamily::Avc,
                    Preset::Fast,
                    RateMode::ConstQuality { crf: 30.0 },
                ),
            )
        })
        .collect()
}

/// The record kinds of every line of `path`, asserting each line parses.
fn kinds(path: &std::path::Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).expect("file readable");
    let kind = |line| {
        let parsed = json::parse(line)
            .unwrap_or_else(|e| panic!("interleaved/torn line {line:?} in {path:?}: {e}"));
        parsed.get("kind").and_then(Value::as_str).expect("record kind").to_string()
    };
    text.lines().map(kind).collect()
}

/// Drives real concurrent appenders — a dispatcher plus two worker
/// processes, writing fsync'd job records into the journal and leases,
/// heartbeats, expires and done markers into its ledger — then asserts
/// no record in either file was torn by another writer: every single
/// line parses, and every parsed kind is one that file may hold.
#[test]
fn concurrent_process_appends_never_interleave_within_a_record() {
    let journal = temp_path("interleave");
    let journal_str = journal.to_str().expect("utf8 path").to_string();
    let out = Command::new(EXE)
        .args(["dispatch", "--videos", "desktop,cat,girl,bike,holi"])
        .args(["--journal", &journal_str, "--procs", "2", "--workers", "2"])
        .output()
        .expect("run dispatch");
    assert!(out.status.success(), "dispatch failed: {out:?}");

    let in_journal = kinds(&journal);
    let stray = in_journal.iter().find(|k| !matches!(k.as_str(), "manifest" | "run" | "job"));
    assert_eq!(stray, None, "the journal holds durable kinds only");
    assert_eq!(in_journal.iter().filter(|k| *k == "job").count(), 5, "one record per job");

    let ledger = std::path::PathBuf::from(format!("{journal_str}.ledger"));
    let in_ledger = kinds(&ledger);
    let stray = in_ledger
        .iter()
        .find(|k| !matches!(k.as_str(), "manifest" | "run" | "lease" | "expire" | "hb" | "done"));
    assert_eq!(stray, None, "the ledger holds coordination kinds only");
    for kind in ["lease", "done"] {
        let n = in_ledger.iter().filter(|k| *k == kind).count();
        assert!(n >= 5, "{n} {kind} records for 5 jobs");
    }
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&ledger);
}

/// Splices garbage *between* valid job records — modelling one writer's
/// torn line landing before a competing writer's later, valid appends —
/// and proves the resume scan quarantines only the garbage: the valid
/// tail replays, and the compacted journal retains it.
#[test]
fn compaction_keeps_a_competing_writers_valid_tail() {
    let journal = temp_path("tail");
    let jobs = jobs(3);
    let policy = ResilienceConfig::default();
    run_batch_journaled_with_io(&Engine, &jobs, 2, &policy, &JournalConfig::new(&journal), &StdIo)
        .expect("fresh run");

    // Rebuild the file with garbage after the FIRST job record: the
    // remaining records form the competing writer's valid tail.
    let text = std::fs::read_to_string(&journal).expect("journal readable");
    let mut rebuilt = String::new();
    let mut jobs_seen = 0;
    for line in text.lines() {
        rebuilt.push_str(line);
        rebuilt.push('\n');
        if line.contains("\"kind\":\"job\"") {
            jobs_seen += 1;
            if jobs_seen == 1 {
                rebuilt.push_str("{\"kind\":\"job\",\"job\":9,\"torn mid-app");
                rebuilt.push('\n');
            }
        }
    }
    assert_eq!(jobs_seen, 3, "expected three job records in the fresh journal");
    std::fs::write(&journal, &rebuilt).expect("splice garbage");

    let resumed = run_batch_journaled_with_io(
        &Engine,
        &jobs,
        2,
        &policy,
        &JournalConfig::new(&journal).with_resume(true),
        &StdIo,
    )
    .expect("resume survives spliced garbage");
    assert_eq!(
        resumed.summary.replayed, 3,
        "every valid record replays — including the two beyond the garbage"
    );

    // The compaction that resume performed must have kept the tail
    // records and scrubbed the garbage.
    let compacted = std::fs::read_to_string(&journal).expect("compacted journal");
    let kept = compacted.lines().filter(|l| l.contains("\"kind\":\"job\"")).count();
    assert_eq!(kept, 3, "compaction dropped a competing writer's valid records");
    assert!(!compacted.contains("torn mid-app"), "garbage survived compaction");
    let _ = std::fs::remove_file(&journal);
}

/// Ephemeral coordination records (lease / expire / heartbeat) left in
/// a journal by a multi-process run from before the ledger file existed
/// are not corruption: a resume replays every job,
/// reports zero quarantined lines, and compaction scrubs the ephemera.
#[test]
fn stale_coordination_records_are_scrubbed_not_quarantined() {
    let journal = temp_path("ephemeral");
    let jobs = jobs(2);
    let policy = ResilienceConfig::default();
    run_batch_journaled_with_io(&Engine, &jobs, 2, &policy, &JournalConfig::new(&journal), &StdIo)
        .expect("fresh run");

    // Simulate a dead dispatcher's leftovers: stale leases and
    // heartbeats appended after the batch finished.
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(&journal).expect("open journal");
        f.write_all(b"{\"kind\":\"lease\",\"job\":0,\"worker\":7,\"nonce\":3,\"pid\":12345}\n")
            .expect("append lease");
        f.write_all(b"{\"kind\":\"hb\",\"worker\":7,\"seq\":42}\n").expect("append hb");
    }

    let resumed = run_batch_journaled_with_io(
        &Engine,
        &jobs,
        2,
        &policy,
        &JournalConfig::new(&journal).with_resume(true),
        &StdIo,
    )
    .expect("resume over stale coordination records");
    assert_eq!(resumed.summary.replayed, 2, "ephemera must not block replay");

    let compacted = std::fs::read_to_string(&journal).expect("compacted journal");
    assert!(
        !compacted.contains("\"kind\":\"lease\"") && !compacted.contains("\"kind\":\"hb\""),
        "stale coordination records must be scrubbed on resume:\n{compacted}"
    );
    let _ = std::fs::remove_file(&journal);
}
