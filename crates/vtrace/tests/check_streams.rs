//! vtrace-check stream contract: headers, rebasing, monotonicity.
//!
//! The validator is the merge safety net: `vbench dispatch` rebases
//! every worker trace onto the dispatcher's timebase before
//! concatenating, and these tests pin that a stream assembled any other
//! way — two raw traces catted together, or events stamped before their
//! segment's offset — is rejected rather than silently analyzed on a
//! broken timeline.

use std::path::PathBuf;
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_vtrace-check");

/// Writes `lines` to a unique temp file and runs `vtrace-check` on it,
/// returning `(exit_code, stderr)`.
fn check(tag: &str, lines: &[&str]) -> (i32, String) {
    let mut path = std::env::temp_dir();
    path.push(format!("vtrace-check-{}-{tag}.jsonl", std::process::id()));
    std::fs::write(&path, lines.join("\n") + "\n").expect("write stream");
    let out = Command::new(EXE).arg(&path).output().expect("run vtrace-check");
    let _ = std::fs::remove_file(&path);
    (out.status.code().expect("exit code"), String::from_utf8_lossy(&out.stderr).into_owned())
}

const BASE_HEADER: &str = r#"{"kind":"header","version":1,"epoch_unix_us":1000,"pid":1}"#;

fn span(id: u64, start_us: u64) -> String {
    format!(
        "{{\"kind\":\"span\",\"id\":{id},\"parent\":null,\"name\":\"transcode\",\
         \"thread\":0,\"start_us\":{start_us},\"dur_us\":5,\"fields\":{{}}}}"
    )
}

#[test]
fn accepts_a_properly_rebased_merged_stream() {
    let worker_header =
        r#"{"kind":"header","version":1,"epoch_unix_us":1500,"pid":2,"rebased_offset_us":500}"#;
    let (code, err) =
        check("rebased", &[BASE_HEADER, &span(1, 10), worker_header, &span(2, 510), &span(3, 700)]);
    assert_eq!(code, 0, "valid rebased stream rejected:\n{err}");
}

#[test]
fn rejects_concatenated_base_headers() {
    // `cat a.jsonl b.jsonl` — the second stream still starts at its own
    // t=0, so its header has no rebased offset.
    let (code, err) = check("cat", &[BASE_HEADER, &span(1, 10), BASE_HEADER, &span(2, 3)]);
    assert_eq!(code, 1, "concatenated streams must be rejected");
    assert!(err.contains("without rebasing"), "stderr:\n{err}");
}

#[test]
fn rejects_timestamps_before_the_segment_offset() {
    let worker_header =
        r#"{"kind":"header","version":1,"epoch_unix_us":1500,"pid":2,"rebased_offset_us":500}"#;
    // A span stamped before the worker segment's offset means the
    // merge shifted headers but not events.
    let (code, err) = check("stale", &[BASE_HEADER, worker_header, &span(1, 20)]);
    assert_eq!(code, 1, "pre-offset timestamp must be rejected");
    assert!(err.contains("non-monotonic merge"), "stderr:\n{err}");
}

#[test]
fn rejects_streams_that_do_not_start_with_a_header() {
    let (code, err) = check("headerless", &[&span(1, 10)]);
    assert_eq!(code, 1, "headerless stream must be rejected");
    assert!(err.contains("header"), "stderr:\n{err}");
}

#[test]
fn rejects_histograms_missing_p95() {
    let old_hist = r#"{"kind":"histogram","name":"farm.queue_wait_us","count":1,"sum":2,"min":2,"max":2,"mean":2,"p50":2,"p90":2,"p99":2}"#;
    let (code, err) = check("nop95", &[BASE_HEADER, old_hist]);
    assert_eq!(code, 1, "histogram without p95 must be rejected");
    assert!(err.contains("p95"), "stderr:\n{err}");
}

/// A stream cut inside a multi-byte character (a writer killed
/// mid-flush) is an invalid stream (1), not an unreadable file (2).
#[test]
fn a_stream_torn_inside_a_character_is_invalid() {
    let mut path = std::env::temp_dir();
    path.push(format!("vtrace-check-{}-torn-utf8.jsonl", std::process::id()));
    let log = r#"{"kind":"log","t_us":1,"level":"info","target":"t","message":"caf"#;
    let mut bytes = format!("{BASE_HEADER}\n{log}").into_bytes();
    bytes.push("é".as_bytes()[0]);
    std::fs::write(&path, bytes).expect("write stream");
    let out = Command::new(EXE).arg(&path).output().expect("run vtrace-check");
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn usage_and_unreadable_files_exit_2() {
    let out = Command::new(EXE).output().expect("run vtrace-check");
    assert_eq!(out.status.code(), Some(2));
    let missing = PathBuf::from("/nonexistent/trace.jsonl");
    let out = Command::new(EXE).arg(&missing).output().expect("run vtrace-check");
    assert_eq!(out.status.code(), Some(2));
}
