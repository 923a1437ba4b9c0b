//! End-to-end telemetry integration.
//!
//! A traced run must produce a JSONL stream that agrees with the printed
//! report, must not perturb stdout by a single byte, and the CLI must
//! keep usage errors (exit 2) distinct from runtime failures (exit 1).

use std::process::{Command, Stdio};

use vbench::engine::{Backend, Engine, RateMode, TranscodeRequest};
use vbench::farm::{transcode_batch, EngineJob};
use vbench::resilience::ResilienceConfig;
use vcodec::{CodecFamily, Preset};
use vframe::color::{frame_from_fn, Yuv};
use vframe::{Resolution, Video};
use vtrace::json;

fn vbench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vbench"))
}

/// Parses the batch report table on stdout into `(name, bytes)` rows.
/// Columns: video, status, attempts, bytes, Mpix/s.
fn table_rows(stdout: &str) -> Vec<(String, u64)> {
    stdout
        .lines()
        .skip(2) // header + rule
        .take_while(|l| !l.trim().is_empty())
        .map(|l| {
            let mut cols = l.split_whitespace();
            let name = cols.next().expect("video column").to_string();
            let status = cols.next().expect("status column");
            assert_eq!(status, "ok", "job {name} failed in an uninjected batch");
            let _attempts = cols.next().expect("attempts column");
            let bytes = cols.next().expect("bytes column").parse().expect("byte count");
            (name, bytes)
        })
        .collect()
}

#[test]
fn traced_batch_emits_valid_jsonl_matching_the_report() {
    let trace_path =
        std::env::temp_dir().join(format!("vbench-trace-{}.jsonl", std::process::id()));
    let trace_path = trace_path.to_str().expect("utf-8 temp path").to_string();

    // Run the traced and untraced batches concurrently; the suite and
    // engine are deterministic, so their reports must agree.
    let traced = vbench()
        .args(["batch", "--scale", "tiny", "--workers", "4", "--trace-out", &trace_path])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn traced vbench batch");
    let plain = vbench()
        .args(["batch", "--scale", "tiny", "--workers", "4"])
        .output()
        .expect("run untraced vbench batch");
    let traced = traced.wait_with_output().expect("traced vbench batch");
    assert!(traced.status.success(), "traced batch failed: {traced:?}");
    assert!(plain.status.success(), "untraced batch failed");

    // Tracing must not change stdout by a single byte. (The wall-clock
    // summary line differs run to run, so compare only the table.)
    let traced_stdout = String::from_utf8(traced.stdout).expect("utf-8 stdout");
    let plain_stdout = String::from_utf8(plain.stdout).expect("utf-8 stdout");
    let rows = table_rows(&traced_stdout);
    assert_eq!(rows, table_rows(&plain_stdout), "tracing changed the report table");
    assert!(!rows.is_empty(), "batch printed no rows:\n{traced_stdout}");

    // The trace file is one valid JSON object per line.
    let jsonl = std::fs::read_to_string(&trace_path).expect("read trace file");
    std::fs::remove_file(&trace_path).ok();
    let events: Vec<json::Value> = jsonl
        .lines()
        .map(|l| json::parse(l).unwrap_or_else(|e| panic!("invalid JSONL line {l:?}: {e}")))
        .collect();
    assert!(!events.is_empty(), "trace file is empty");

    let spans: Vec<&json::Value> = events
        .iter()
        .filter(|e| e.get("kind").and_then(json::Value::as_str) == Some("span"))
        .collect();
    let named = |n: &str| {
        spans
            .iter()
            .filter(|s| s.get("name").and_then(json::Value::as_str) == Some(n))
            .copied()
            .collect::<Vec<_>>()
    };

    // Every batch job produced exactly one transcode span, and the span's
    // recorded output size agrees with the printed byte count.
    let transcodes = named("transcode");
    assert_eq!(transcodes.len(), rows.len(), "one transcode span per job");
    let mut span_bits: Vec<u64> = transcodes
        .iter()
        .map(|s| {
            let fields = s.get("fields").expect("span fields");
            for key in ["backend", "codec", "preset", "rate_mode"] {
                assert!(fields.get(key).and_then(json::Value::as_str).is_some(), "missing {key}");
            }
            assert!(fields.get("frames").and_then(json::Value::as_u64).unwrap() > 0);
            assert!(fields.get("encode_secs").and_then(json::Value::as_f64).unwrap() > 0.0);
            assert!(fields.get("psnr_db").and_then(json::Value::as_f64).unwrap() > 0.0);
            fields.get("bits").and_then(json::Value::as_u64).expect("bits field")
        })
        .collect();
    let mut report_bits: Vec<u64> = rows.iter().map(|(_, bytes)| bytes * 8).collect();
    span_bits.sort_unstable();
    report_bits.sort_unstable();
    assert_eq!(span_bits, report_bits, "span bits disagree with the printed table");

    // The farm recorded the batch shape, and every transcode nests under
    // a worker which nests under the batch.
    let batch = named("farm.batch");
    assert_eq!(batch.len(), 1);
    let fields = batch[0].get("fields").expect("batch fields");
    assert_eq!(fields.get("jobs").and_then(json::Value::as_u64), Some(rows.len() as u64));
    assert_eq!(fields.get("workers").and_then(json::Value::as_u64), Some(4));
    let batch_id = batch[0].get("id").and_then(json::Value::as_u64).expect("batch id");
    let worker_ids: Vec<u64> = named("farm.worker")
        .iter()
        .map(|w| w.get("id").and_then(json::Value::as_u64).unwrap())
        .collect();
    for w in named("farm.worker") {
        assert_eq!(w.get("parent").and_then(json::Value::as_u64), Some(batch_id));
    }
    for t in &transcodes {
        let parent = t.get("parent").and_then(json::Value::as_u64).expect("transcode parent");
        assert!(worker_ids.contains(&parent), "transcode not under a worker");
    }

    // Counters made it into the stream.
    let counter = |name: &str| {
        events
            .iter()
            .find(|e| {
                e.get("kind").and_then(json::Value::as_str) == Some("counter")
                    && e.get("name").and_then(json::Value::as_str) == Some(name)
            })
            .and_then(|e| e.get("value"))
            .and_then(json::Value::as_u64)
    };
    assert_eq!(counter("engine.requests"), Some(rows.len() as u64));
    assert_eq!(counter("farm.jobs_completed"), Some(rows.len() as u64));
    // The executor core's telemetry reconciles with the batch summary:
    // in an uninjected in-process batch every job is claimed exactly
    // once and published exactly once.
    assert_eq!(counter("exec.leases_granted"), Some(rows.len() as u64));
    assert_eq!(counter("exec.jobs_completed"), Some(rows.len() as u64));
}

fn small_video(seed: u32) -> Video {
    let res = Resolution::new(64, 36);
    let frames = (0..6)
        .map(|t| {
            frame_from_fn(res, |x, y| {
                Yuv::new(((x * 3 + y * 2 + 11 * t + seed) % 256) as u8, 128, 128)
            })
        })
        .collect();
    Video::new(frames, 30.0)
}

/// In-process: the per-request `encode_secs` recorded on transcode spans
/// must sum to the farm's reported CPU seconds (they are the same
/// timings, so the 5% tolerance is generous), and per-job fields must
/// match the returned measurements. This is the only test that touches
/// the in-process tracing globals.
#[test]
fn span_fields_agree_with_batch_outcomes() {
    vtrace::set_level(vtrace::Level::Summary);
    let _ = vtrace::drain();

    let jobs: Vec<EngineJob> = [
        ("crf", RateMode::ConstQuality { crf: 30.0 }),
        ("cbr", RateMode::Bitrate { bps: 200_000 }),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (name, rate))| {
        EngineJob::new(
            name,
            small_video(i as u32 * 37),
            TranscodeRequest::new(Backend::Software(CodecFamily::Avc), Preset::UltraFast, rate),
        )
    })
    .collect();
    let report =
        transcode_batch(&Engine, &jobs, 2, &ResilienceConfig::default()).expect("batch transcode");

    let trace = vtrace::drain();
    vtrace::set_level(vtrace::Level::Off);

    let transcodes: Vec<_> = trace.spans.iter().filter(|s| s.name == "transcode").collect();
    assert_eq!(transcodes.len(), report.results.len());

    let span_cpu: f64 = transcodes
        .iter()
        .map(|s| s.field("encode_secs").and_then(vtrace::FieldValue::as_f64).expect("encode_secs"))
        .sum();
    let tolerance = (report.cpu_secs * 0.05).max(1e-6);
    assert!(
        (span_cpu - report.cpu_secs).abs() <= tolerance,
        "span encode_secs sum {span_cpu} vs batch cpu_secs {}",
        report.cpu_secs
    );

    for result in &report.results {
        let outcome = result.success().expect("batch job succeeds");
        let bits = outcome.bytes().len() as u64 * 8;
        let span = transcodes
            .iter()
            .find(|s| s.field("bits").and_then(vtrace::FieldValue::as_u64) == Some(bits))
            .unwrap_or_else(|| panic!("no span with bits={bits}"));
        assert_eq!(
            span.field("frames").and_then(vtrace::FieldValue::as_u64),
            Some(u64::from(outcome.stats().frames)),
        );
        let psnr = span.field("psnr_db").and_then(vtrace::FieldValue::as_f64).expect("psnr_db");
        assert!((psnr - outcome.measurement().quality_db).abs() < 1e-9);
    }
}

#[test]
fn exit_codes_distinguish_usage_from_runtime_errors() {
    // Usage errors exit 2 before any work runs.
    let unknown_cmd = vbench().arg("frobnicate").output().expect("run vbench");
    assert_eq!(unknown_cmd.status.code(), Some(2));
    let bad_level = vbench().args(["suite", "--log-level", "loud"]).output().expect("run vbench");
    assert_eq!(bad_level.status.code(), Some(2));

    // Runtime failures exit 1 (and report through the error log).
    let missing_input = vbench()
        .args(["inspect", "--in", "/nonexistent/vbench-no-such-file"])
        .output()
        .expect("run vbench");
    assert_eq!(missing_input.status.code(), Some(1));
    let stderr = String::from_utf8(missing_input.stderr).expect("utf-8 stderr");
    assert!(stderr.contains("[error]"), "runtime failure not logged: {stderr}");
}
