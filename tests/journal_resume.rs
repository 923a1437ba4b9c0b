//! Durability integration tests: the journaled batch driver under
//! crashes, simulated and real.
//!
//! The resume invariant under test everywhere: for any crash plan and
//! any worker count, `--resume` produces bitstreams byte-identical (and
//! CRC-equal) to an uninterrupted run's, jobs with a durable journal
//! record replay with *zero* encode work, and only the jobs whose
//! records did not survive re-encode.
//!
//! The first half exercises scripted [`vfault::CrashPoint`] faults
//! in-process; the last test SIGKILLs an actual `vbench batch` child
//! mid-run and proves the resumed process converges on the same bytes.

use std::sync::atomic::{AtomicUsize, Ordering};

use vbench::engine::{Engine, RateMode, TranscodeError, TranscodeRequest, Transcoder};
use vbench::exec::{claim_order, StdIo};
use vbench::farm::EngineJob;
use vbench::resilience::ResilienceConfig;
use vbench::suite::{Suite, SuiteOptions};
use vbench::{run_batch_journaled_with_io, JournalConfig, JournalError};
use vcodec::{CodecFamily, Preset};
use vfault::{CrashPoint, FaultPlan};

/// A small batch from the tiny suite, the same shape the fault-injection
/// tests use.
fn jobs() -> Vec<EngineJob> {
    let suite = Suite::vbench(&SuiteOptions::tiny());
    suite
        .iter()
        .take(5)
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

/// Counts every encode the engine actually runs, so tests can prove a
/// replayed job cost zero encode work.
#[derive(Default)]
struct CountingEngine {
    calls: AtomicUsize,
}

impl CountingEngine {
    fn calls(&self) -> usize {
        self.calls.load(Ordering::SeqCst)
    }
}

impl Transcoder for CountingEngine {
    fn transcode(
        &self,
        src: &vframe::Video,
        req: &TranscodeRequest,
    ) -> Result<vbench::TranscodeOutcome, TranscodeError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        Engine.transcode(src, req)
    }
}

/// A journal path in the target temp dir, unique per test.
fn temp_journal(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("vbench-journal-{}-{tag}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn crash_resume_is_byte_identical_at_any_worker_count() {
    let jobs = jobs();
    let baseline = vbench::transcode_batch(&Engine, &jobs, 2, &ResilienceConfig::default())
        .expect("uninterrupted baseline");

    let points = [
        (CrashPoint::PreEncode, 2usize),
        (CrashPoint::PostEncode, 1),
        (CrashPoint::PreJournalFlush, 3),
    ];
    for (point, crash_job) in points {
        for workers in [1usize, 3] {
            let path = temp_journal(&format!("{point}-{crash_job}-w{workers}"));
            let policy = ResilienceConfig::default()
                .with_fault_plan(FaultPlan::new().with_crash(crash_job, point));

            let err = run_batch_journaled_with_io(
                &Engine,
                &jobs,
                workers,
                &policy,
                &JournalConfig::new(&path),
                &StdIo,
            )
            .expect_err("scripted crash must abort the batch");
            assert!(
                matches!(err, JournalError::Crashed { job, point: p } if job == crash_job && p == point),
                "wrong crash surfaced: {err} ({point}, workers={workers})"
            );

            // Resume with the SAME plan: the crash is keyed to run 0 and
            // must not re-fire on run 1.
            let engine = CountingEngine::default();
            let report = run_batch_journaled_with_io(
                &engine,
                &jobs,
                workers,
                &policy,
                &JournalConfig::new(&path).with_resume(true),
                &StdIo,
            )
            .expect("resume completes");

            let ctx = format!("{point} job {crash_job}, workers={workers}");
            assert_eq!(report.summary.completed, jobs.len(), "{ctx}");
            assert_eq!(report.summary.failed, 0, "{ctx}");
            // Zero re-encodes of journaled jobs: the engine ran exactly
            // once per job that did NOT replay.
            assert_eq!(
                engine.calls(),
                jobs.len() - report.summary.replayed,
                "{ctx}: replayed jobs must cost no encode work"
            );
            for (i, (r, b)) in report.results.iter().zip(&baseline.results).enumerate() {
                let resumed = r.success().expect("resumed job ok");
                let base = b.success().expect("baseline job ok");
                assert_eq!(resumed.bytes(), base.bytes(), "{ctx}: job {i} bytes");
                if r.attempts == 0 {
                    // A replay carries the journaled outcome: none of its
                    // frames was resident in this run.
                    assert_eq!(resumed.peak_resident_frames, 0, "{ctx}: job {i} replayed");
                }
            }
            let _ = std::fs::remove_file(&path);
        }
    }
}

#[test]
fn single_worker_crashes_replay_exactly_the_completed_prefix() {
    // One worker runs the jobs one at a time in claim order, so the
    // journal at each crash point holds exactly a prefix of that order —
    // pin it.
    let jobs = jobs();
    let order = claim_order(&jobs);
    assert_ne!(order, (0..jobs.len()).collect::<Vec<_>>(), "these clips differ in size");
    let cases = [
        // Crash before the third claim encodes: the first two claims
        // are durable.
        (CrashPoint::PreEncode, 2usize),
        // Crash after the second claim encoded but before its record:
        // only the first is durable — the encode is lost, exactly as a
        // real kill between encode and append would lose it.
        (CrashPoint::PostEncode, 1),
        // Crash mid-append of the fourth claim's record: the torn line
        // must be quarantined, leaving the first three durable.
        (CrashPoint::PreJournalFlush, 3),
    ];
    for (point, expect_replayed) in cases {
        let path = temp_journal(&format!("prefix-{point}"));
        let policy = ResilienceConfig::default()
            .with_fault_plan(FaultPlan::new().with_crash(order[expect_replayed], point));
        run_batch_journaled_with_io(&Engine, &jobs, 1, &policy, &JournalConfig::new(&path), &StdIo)
            .expect_err("crash");
        if point == CrashPoint::PreJournalFlush {
            let bytes = std::fs::read(&path).expect("journal readable");
            assert_ne!(bytes.last(), Some(&b'\n'), "{point}: journal must end torn");
        }
        let engine = CountingEngine::default();
        let report = run_batch_journaled_with_io(
            &engine,
            &jobs,
            1,
            &policy,
            &JournalConfig::new(&path).with_resume(true),
            &StdIo,
        )
        .expect("resume");
        assert_eq!(report.summary.replayed, expect_replayed, "{point}");
        assert!(report.summary.replayed > 0, "{point}: resume must replay work");
        let mut replayed: Vec<usize> =
            (0..jobs.len()).filter(|&i| report.results[i].attempts == 0).collect();
        replayed.sort_by_key(|job| order.iter().position(|o| o == job));
        assert_eq!(replayed, order[..expect_replayed], "{point}: a prefix of the claim order");
        assert_eq!(engine.calls(), jobs.len() - expect_replayed, "{point}");
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn resumed_journal_survives_a_second_resume() {
    // A resumed run rewrites (compacts) a damaged journal; the result
    // must itself be a valid journal: a second resume replays everything.
    let jobs = jobs();
    let path = temp_journal("twice");
    let policy = ResilienceConfig::default()
        .with_fault_plan(FaultPlan::new().with_crash(2, CrashPoint::PreJournalFlush));
    run_batch_journaled_with_io(&Engine, &jobs, 1, &policy, &JournalConfig::new(&path), &StdIo)
        .expect_err("crash");
    run_batch_journaled_with_io(
        &Engine,
        &jobs,
        1,
        &policy,
        &JournalConfig::new(&path).with_resume(true),
        &StdIo,
    )
    .expect("first resume");
    let engine = CountingEngine::default();
    let report = run_batch_journaled_with_io(
        &engine,
        &jobs,
        2,
        &policy,
        &JournalConfig::new(&path).with_resume(true),
        &StdIo,
    )
    .expect("second resume");
    assert_eq!(report.summary.replayed, jobs.len(), "everything is durable now");
    assert_eq!(engine.calls(), 0, "a fully-journaled batch runs zero encodes");
    let _ = std::fs::remove_file(&path);
}

/// SIGKILLs a real `vbench batch` child once its journal holds at least
/// one durable job record, appends garbage to simulate a torn tail, then
/// resumes and proves the outputs are byte-identical to an uninterrupted
/// run's.
#[test]
fn sigkill_mid_batch_then_resume_completes_byte_identical() {
    use std::process::{Command, Stdio};

    let exe = env!("CARGO_BIN_EXE_vbench");
    let mut dir = std::env::temp_dir();
    dir.push(format!("vbench-sigkill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let dir = dir.to_str().expect("utf8 temp dir").to_string();

    let videos = "desktop,cat,girl";
    // The last job (index 2) straggles, holding the batch open long
    // enough for the kill to land mid-run. Straggle only adds latency —
    // bytes are unaffected — so the baseline can skip the plan.
    let plan = "straggle=2:5";
    let journal = format!("{dir}/journal.jsonl");

    let baseline = Command::new(exe)
        .args(["batch", "--videos", videos, "--workers", "2"])
        .args(["--out-dir", &format!("{dir}/out-base")])
        .output()
        .expect("baseline run");
    assert!(baseline.status.success(), "baseline failed: {baseline:?}");

    let mut child = Command::new(exe)
        .args(["batch", "--videos", videos, "--workers", "2"])
        .args(["--journal", &journal, "--fault-plan", plan])
        .args(["--out-dir", &format!("{dir}/out-interrupted")])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn batch");

    // Wait for one complete (newline-terminated) job record, then kill.
    // Records are fsync'd before the job publishes, so a record we can
    // see is durable.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let txt = std::fs::read_to_string(&journal).unwrap_or_default();
        if txt.split_inclusive('\n').any(|l| l.ends_with('\n') && l.contains("\"kind\":\"job\"")) {
            break;
        }
        if let Some(status) = child.try_wait().expect("poll child") {
            panic!("child exited before kill: {status:?}; journal:\n{txt}");
        }
        assert!(std::time::Instant::now() < deadline, "no job record within 60 s:\n{txt}");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    child.kill().expect("SIGKILL");
    let _ = child.wait();

    // A real kill can tear a write; make sure resume handles one even if
    // this kill didn't: append half a record with no newline.
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(&journal).expect("open journal");
        f.write_all(b"{\"kind\":\"job\",\"job\":9,\"st").expect("append torn tail");
    }

    let resumed = Command::new(exe)
        .args(["batch", "--videos", videos, "--workers", "2"])
        .args(["--journal", &journal, "--resume", "--fault-plan", plan])
        .args(["--out-dir", &format!("{dir}/out-resumed")])
        .output()
        .expect("resume run");
    assert!(
        resumed.status.success(),
        "resume failed: {}\n{}",
        String::from_utf8_lossy(&resumed.stdout),
        String::from_utf8_lossy(&resumed.stderr),
    );
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    let replayed: usize = stdout
        .lines()
        .find(|l| l.contains("replayed"))
        .and_then(|l| l.split_whitespace().rev().nth(1).map(str::to_string))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no replayed count in stdout:\n{stdout}"));
    assert!(replayed >= 1, "the record observed before the kill must replay:\n{stdout}");

    for name in videos.split(',') {
        let base = std::fs::read(format!("{dir}/out-base/{name}.vbs")).expect("baseline output");
        let res = std::fs::read(format!("{dir}/out-resumed/{name}.vbs")).expect("resumed output");
        assert_eq!(base, res, "{name}: resumed bytes differ from uninterrupted run");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
