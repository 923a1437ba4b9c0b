//! vprof CLI contract: exit codes and output shapes.
//!
//! CI scripts branch on these codes — 0 ok, 1 I/O or parse failure,
//! 2 usage error, 4 regression — so they are pinned here against
//! handcrafted traces and benchmark outputs, with no encoder in the loop.

use std::path::PathBuf;
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_vprof");

/// A scratch directory in the temp dir, unique per test.
fn temp_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("vprof-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).expect("create temp dir");
    p
}

/// A minimal but complete single-process trace in the writer's shape:
/// coordinator span, transcode with a stage child, one counter, one
/// histogram.
const TRACE: &str = concat!(
    r#"{"kind":"header","version":1,"epoch_unix_us":1000,"pid":7}"#,
    "\n",
    r#"{"kind":"span","id":3,"parent":2,"name":"vcodec.motion_search","thread":1,"#,
    r#""start_us":12,"dur_us":40,"fields":{}}"#,
    "\n",
    r#"{"kind":"span","id":2,"parent":1,"name":"transcode","thread":1,"start_us":10,"#,
    r#""dur_us":80,"fields":{"encode_secs":1.25}}"#,
    "\n",
    r#"{"kind":"span","id":1,"parent":null,"name":"farm.batch","thread":0,"start_us":0,"#,
    r#""dur_us":100,"fields":{}}"#,
    "\n",
    r#"{"kind":"counter","name":"exec.jobs_completed","value":1}"#,
    "\n",
    r#"{"kind":"histogram","name":"farm.queue_wait_us","count":2,"sum":30,"min":10,"#,
    r#""max":20,"mean":15.0,"p50":10,"p90":20,"p95":20,"p99":20}"#,
    "\n",
);

/// A `vbench-benchmark all` stdout: the four workloads untraced, then
/// traced, each section ending in its result line. `journal_null`'s
/// `jobs_per_s` is a parameter so tests can fabricate a regression.
fn all_output(journal_jobs_per_s: f64) -> String {
    let mut out = String::new();
    for trace in [0, 1] {
        for workload in ["vod_batch", "live_stream", "journal_null", "dispatch_null"] {
            let jobs = if workload == "journal_null" { journal_jobs_per_s } else { 150.0 };
            let metrics = if trace == 0 {
                format!(
                    "\"jobs_per_s\": {{\"value\": {jobs:?}, \"unit\": \"1/s\"}}, \
                     \"resume_jobs_per_s\": {{\"value\": 900.0, \"unit\": \"1/s\"}}, \
                     \"stored_bytes_per_job\": {{\"value\": 4096.0, \"unit\": \"B\"}}, \
                     \"storage_read_bytes_per_job\": {{\"value\": 8192.0, \"unit\": \"B\"}}, \
                     \"peak_rss_mb\": {{\"value\": 14.4, \"unit\": \"MB\"}}, \
                     \"setup_s\": {{\"value\": 0.12, \"unit\": \"s\"}}"
                )
            } else {
                "\"bench.passes\": {\"value\": 40.0, \"unit\": \"count\"}".to_string()
            };
            out.push_str(&format!(
                "==== {workload} trace={trace} ====\npasses: 40 timed (40 untraced)\n\
                 jobs_per_s = {jobs} 1/s\n\
                 {{\"correct\": true, \"attempted\": 24, \"failed\": 0, \"metrics\": {{{metrics}}}}}\n"
            ));
        }
    }
    out
}

fn run(args: &[&str]) -> std::process::Output {
    Command::new(EXE).args(args).output().expect("run vprof")
}

#[test]
fn report_and_flame_succeed_on_a_valid_trace() {
    let dir = temp_dir("valid");
    let trace = dir.join("trace.jsonl");
    std::fs::write(&trace, TRACE).expect("write trace");
    let trace = trace.display().to_string();

    let report = run(&["report", &trace]);
    assert_eq!(report.status.code(), Some(0), "{report:?}");
    let text = String::from_utf8_lossy(&report.stdout);
    assert!(text.contains("transcode"), "report:\n{text}");
    assert!(text.contains("vcodec.motion_search"), "report:\n{text}");
    assert!(text.contains("1 transcode span(s), 1.250 s encode time"), "report:\n{text}");

    let flame = run(&["flame", &trace]);
    assert_eq!(flame.status.code(), Some(0), "{flame:?}");
    let folded = String::from_utf8_lossy(&flame.stdout);
    assert!(
        folded.lines().any(|l| l.starts_with("pid7;farm.batch;transcode;vcodec.motion_search ")),
        "folded output:\n{folded}"
    );

    // --out writes the same folded text to a file instead of stdout.
    let out = dir.join("flame.folded");
    let flame = run(&["flame", &trace, "--out", &out.display().to_string()]);
    assert_eq!(flame.status.code(), Some(0), "{flame:?}");
    assert_eq!(std::fs::read_to_string(&out).expect("flame file").as_str(), folded);

    // A span without its start is a broken trace, not a zero: exit 1.
    std::fs::write(&trace, TRACE.replace(r#""start_us":10,"#, "")).expect("write trace");
    let broken = run(&["report", &trace]);
    assert_eq!(broken.status.code(), Some(1), "{broken:?}");
    assert!(String::from_utf8_lossy(&broken.stderr).contains("line 3: span \"start_us\""));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compare_distinguishes_clean_regressed_and_broken_inputs() {
    let dir = temp_dir("compare");
    let write = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write benchmark output");
        path.display().to_string()
    };
    let base = all_output(12_000.0);
    let old = write("old.out", &base);
    let compare = |new: &str| run(&["compare", &old, new]);

    // A run against itself, and one inside the 25 % bound: exit 0, with
    // one before/after row per (workload, metric).
    let same = compare(&old);
    assert_eq!(same.status.code(), Some(0), "{same:?}");
    let text = String::from_utf8_lossy(&same.stdout);
    assert!(text.contains("ok: no regression in 24 row(s)"), "{text}");
    assert_eq!(text.lines().filter(|l| l.starts_with("| ") && l.ends_with(" ok |")).count(), 24);
    let noisy = compare(&write("noisy.out", &all_output(9_500.0)));
    assert_eq!(noisy.status.code(), Some(0), "{noisy:?}");

    // 10x slower on one workload: exit 4, and the workload is named.
    let slow = compare(&write("slow.out", &all_output(1_200.0)));
    assert_eq!(slow.status.code(), Some(4), "{slow:?}");
    let text = String::from_utf8_lossy(&slow.stdout);
    assert!(text.contains("REGRESSION [journal_null]: jobs_per_s"), "{text}");
    assert!(!text.contains("REGRESSION [vod_batch]"), "{text}");

    // A wrong result is a regression whatever the speed.
    let wrong = base.replacen("\"correct\": true", "\"correct\": false", 1);
    let wrong = compare(&write("wrong.out", &wrong));
    assert_eq!(wrong.status.code(), Some(4), "{wrong:?}");
    assert!(String::from_utf8_lossy(&wrong.stdout).contains("REGRESSION [vod_batch]"));

    // Broken input is a failure (1), not a regression (4): a truncated
    // output, and a result line with no section header.
    let truncated = &base[..base.trim_end().rfind('\n').expect("many lines")];
    let truncated = compare(&write("truncated.out", truncated));
    assert_eq!(truncated.status.code(), Some(1), "{truncated:?}");
    let headless = base.lines().filter(|l| !l.starts_with("====")).collect::<Vec<_>>().join("\n");
    let headless = compare(&write("headless.out", &headless));
    assert_eq!(headless.status.code(), Some(1), "{headless:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn usage_and_io_errors_have_distinct_exit_codes() {
    // No subcommand / unknown subcommand / wrong arity: usage (2).
    assert_eq!(run(&[]).status.code(), Some(2));
    assert_eq!(run(&["prof"]).status.code(), Some(2));
    assert_eq!(run(&["report"]).status.code(), Some(2));
    assert_eq!(run(&["compare", "only-one.out"]).status.code(), Some(2));
    assert_eq!(run(&["compare", "a", "b", "c"]).status.code(), Some(2));
    assert_eq!(run(&["compare", "a", "--threshold-pct"]).status.code(), Some(2));

    // Missing files: I/O failure (1).
    assert_eq!(run(&["report", "/nonexistent/trace.jsonl"]).status.code(), Some(1));
    assert_eq!(run(&["flame", "/nonexistent/trace.jsonl"]).status.code(), Some(1));
    assert_eq!(
        run(&["compare", "/nonexistent/a.out", "/nonexistent/b.out"]).status.code(),
        Some(1)
    );
}
