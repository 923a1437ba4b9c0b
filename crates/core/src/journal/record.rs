//! The on-disk record format of the journal and of its sibling lease
//! ledger — the one module that knows it.
//!
//! Both files are JSONL: one `{"kind":…}` object per line. A *journal*
//! holds the durable kinds (`manifest`, `run`, `job`, plus `shed`
//! telemetry); a dispatch's *ledger* (`<journal>.ledger`, see
//! [`crate::exec::ledger`]) opens with a copy of the manifest and run
//! lines and then holds only the ephemeral coordination kinds (`lease`,
//! `expire`, `hb`, `done`). A journal written before the split may still
//! carry `lease` / `expire` / `hb` lines; the reader recognises them so a
//! resume can scrub them, and nothing writes them there any more.
//! DESIGN.md §Durability has the table of kinds, fields, who writes and
//! who folds each one. Everything that turns a record into bytes or
//! bytes into a record lives here:
//!
//! * [`scan`] — the line iterator every reader folds over. It decides
//!   *once* which lines are committed records: an unterminated final
//!   line never is (its write, hence its fsync, did not complete — even
//!   if it happens to parse), nothing before the first usable manifest
//!   is (it cannot be trusted to belong to this batch), and a manifest
//!   of another [`JOURNAL_VERSION`] or with missing fields is not usable.
//!   [`Committed`] holds those rules for a reader that visits the lines
//!   in another order (the resume scan folds them last first).
//! * [`Record`] — the typed record. A [`JobRecord`] parses only its
//!   header (job, status, attempts, provenance tags); the payload is
//!   hex-decoded and CRC-verified by [`JobRecord::load`], which the
//!   ledger and status folds never call.
//! * the eight `*_line` writers, each returning one newline-terminated
//!   line for a single-write append, and the two ways a line reaches
//!   disk: [`commit_job`] (append + fsync — the commit point) and
//!   [`append_ephemeral`] (ledger records, never fsync'd).

use std::path::Path;
use std::time::Instant;

use crate::engine::StreamOutcome;
use crate::exec::io::{append_retrying, DurableFile, JournalIo};
use crate::exec::ledger::LeaseId;
use crate::exec::ChainResult;
use crate::farm::{EngineJob, JobError};
use crate::measure::Measurement;
use vcodec::EncodeStats;
use vfault::FileClass;
use vhw::StageSeconds;
use vtrace::json::{self, Value};

/// The journal file format version this build writes and accepts.
const JOURNAL_VERSION: u64 = 1;

/// One committed journal record.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Record {
    /// The batch identity; always the first record [`scan`] yields.
    Manifest {
        /// CRC-32 over the canonical job list and resilience policy.
        fingerprint: u32,
        /// Jobs in the batch.
        jobs: u64,
    },
    /// One driver invocation; the count of these is the run index
    /// scripted crashes key on.
    Run {
        /// The run index the invocation wrote.
        index: u32,
    },
    /// A finished job — the durable commit point.
    Job(JobRecord),
    /// Worker `id` claims `job` (ephemeral).
    Lease {
        /// The claimed job.
        job: usize,
        /// Who claims it.
        id: LeaseId,
    },
    /// The dispatcher voids exactly the lease `id` on `job` (ephemeral).
    Expire {
        /// The job whose lease is voided.
        job: usize,
        /// The lease being voided.
        id: LeaseId,
    },
    /// Worker liveness (ephemeral).
    Hb {
        /// The worker's dispatcher-assigned id.
        worker: u64,
        /// Heartbeat sequence number.
        seq: u64,
        /// The worker's OS process id.
        pid: Option<u64>,
        /// Wall-clock milliseconds since the Unix epoch.
        t_ms: Option<u64>,
    },
    /// `job`'s record is committed in the journal (ephemeral): what a
    /// ledger holds in place of the job record itself.
    Done(DoneMark),
    /// A service shed event (ephemeral telemetry; no reader needs its
    /// fields).
    Shed,
}

/// What the lease ledger needs to know about a committed job record —
/// the record's header without its payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct DoneMark {
    /// The job's index in the batch manifest.
    pub(crate) job: usize,
    /// The worker that committed the record; `None` for a record
    /// replayed from an earlier run (or written in-process).
    pub(crate) worker: Option<u64>,
    /// Whether the record is a success.
    pub(crate) ok: bool,
    /// Attempts the recording run made (0 = replayed).
    pub(crate) attempts: u32,
}

/// A job record's header, plus the parsed line its payload loads from.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct JobRecord {
    /// The job's index in the batch manifest.
    pub(crate) job: usize,
    /// Attempts the recording run made.
    pub(crate) attempts: u32,
    /// Whether the record is a success (`status: ok`) or a failure.
    pub(crate) ok: bool,
    /// The worker that wrote it (multi-process records only).
    pub(crate) worker: Option<u64>,
    /// The run index that wrote it (multi-process records only).
    pub(crate) run: Option<u32>,
    fields: Value,
}

impl JobRecord {
    /// The ledger's view of this record.
    pub(crate) fn mark(&self) -> DoneMark {
        DoneMark { job: self.job, worker: self.worker, ok: self.ok, attempts: self.attempts }
    }

    /// Verifies the record against the batch and loads its chain: the
    /// journaled outcome (bitstream hex-decoded and CRC-checked) with
    /// the recording run's resilience history. `None` = quarantine it.
    pub(crate) fn load(&self, jobs: &[EngineJob]) -> Option<ChainResult> {
        let record = &self.fields;
        let f = |key: &str| record.get(key).and_then(Value::as_f64);
        let u = |key: &str| record.get(key).and_then(Value::as_u64);
        if record.get("name").and_then(Value::as_str)? != jobs.get(self.job)?.name {
            return None;
        }
        let degraded = u32::try_from(u("degraded")?).ok()?;
        let deadline_missed = matches!(record.get("deadline_missed"), Some(Value::Bool(true)));
        let outcome = if self.ok {
            let crc = u32::try_from(u("crc32")?).ok()?;
            let bytes = hex_decode(record.get("bytes").and_then(Value::as_str)?.as_bytes())?;
            if vpack::crc32(&bytes) != crc {
                // The recorded stream does not match its checksum: the
                // record lies, so the job must re-encode.
                return None;
            }
            let measurement = Measurement {
                speed_pps: f("speed_pps")?,
                bitrate_bpps: f("bitrate_bpps")?,
                quality_db: f("quality_db")?,
            };
            let timings = StageSeconds {
                submission: f("submission")?,
                transfer: f("transfer")?,
                pipeline: f("pipeline")?,
            };
            let chosen_bps = match record.get("chosen_bps") {
                None | Some(Value::Null) => None,
                Some(v) => Some(v.as_u64()?),
            };
            let stats = EncodeStats {
                encode_seconds: f("encode_seconds")?,
                bitstream_bytes: u("bitstream_bytes")?,
                frames: u32::try_from(u("frames")?).ok()?,
                sb_intra: u("sb_intra")?,
                sb_inter: u("sb_inter")?,
                sb_skip: u("sb_skip")?,
                sb_split: u("sb_split")?,
                avg_qp: f("avg_qp")?,
                kernels: Default::default(),
            };
            Ok(StreamOutcome {
                bytes,
                stats,
                measurement,
                timings,
                chosen_bps,
                peak_resident_frames: 0,
            })
        } else {
            let message = record.get("message").and_then(Value::as_str)?.to_string();
            Err(JobError::ReplayedFailure { message })
        };
        Some(ChainResult { outcome, attempts: self.attempts, degraded, deadline_missed })
    }
}

/// One physical journal line: the raw text (what compaction rewrites
/// and the chaos auditor compares byte for byte) and the committed
/// record it holds, if it holds one.
pub(crate) struct Entry<'a> {
    /// The line, without its newline.
    pub(crate) line: &'a str,
    /// `None` = not a committed record: quarantine it.
    pub(crate) record: Option<Record>,
}

/// Walks every line of a journal's text, in file order. See the module
/// doc for the rules that make a line a committed record.
pub(crate) fn scan(text: &str) -> impl Iterator<Item = Entry<'_>> {
    let committed = Committed::of(text);
    let (body, torn) = text.split_at(committed.end);
    let mut at = 0;
    body.split_terminator('\n')
        .map(move |line| {
            let record = committed.record(at, line);
            at += line.len() + 1;
            Entry { line, record }
        })
        .chain((!torn.is_empty()).then_some(Entry { line: torn, record: None }))
}

/// [`scan`]'s rules for one journal text, for a reader that visits its
/// lines in another order (the resume scan walks them last line first).
pub(crate) struct Committed {
    /// Bytes up to and including the last newline; what follows is an
    /// unterminated final line, never a record.
    pub(crate) end: usize,
    /// Byte offset and fingerprint of the first usable manifest line.
    pub(crate) manifest: Option<(usize, u32)>,
}

impl Committed {
    pub(crate) fn of(text: &str) -> Committed {
        let end = text.rfind('\n').map_or(0, |i| i + 1);
        let mut at = 0;
        let manifest = text[..end].split_terminator('\n').find_map(|line| {
            let start = at;
            at += line.len() + 1;
            match parse(line)? {
                Record::Manifest { fingerprint, .. } => Some((start, fingerprint)),
                _ => None,
            }
        });
        Committed { end, manifest }
    }

    /// The committed record the line starting at byte offset `at` holds:
    /// nothing before the first usable manifest is one, and no later
    /// manifest is.
    pub(crate) fn record(&self, at: usize, line: &str) -> Option<Record> {
        let (manifest, _) = self.manifest?;
        if at < manifest {
            return None;
        }
        parse(line).filter(|r| at == manifest || !matches!(r, Record::Manifest { .. }))
    }
}

/// The committed records of [`scan`], for folds that skip corruption
/// instead of counting it.
pub(crate) fn records(text: &str) -> impl Iterator<Item = Record> + '_ {
    scan(text).filter_map(|entry| entry.record)
}

/// Parses one line as a well-formed record of a known kind.
fn parse(line: &str) -> Option<Record> {
    let v = json::parse(line).ok()?;
    let u = |key: &str| v.get(key).and_then(Value::as_u64);
    let u32_of = |key: &str| u(key).and_then(|n| u32::try_from(n).ok());
    let lease = || {
        Some((
            u("job")? as usize,
            LeaseId { worker: u("worker")?, nonce: u("nonce")?, pid: u("pid")? },
        ))
    };
    Some(match v.get("kind").and_then(Value::as_str)? {
        "manifest" if u("version")? == JOURNAL_VERSION => {
            Record::Manifest { fingerprint: u32_of("fingerprint")?, jobs: u("jobs")? }
        }
        "run" => Record::Run { index: u32_of("index")? },
        "job" => {
            let ok = match v.get("status").and_then(Value::as_str)? {
                "ok" => true,
                "failed" => false,
                _ => return None,
            };
            let (job, attempts) = (u("job")? as usize, u32_of("attempts")?);
            let (worker, run) = (u("worker"), u32_of("run"));
            Record::Job(JobRecord { job, attempts, ok, worker, run, fields: v })
        }
        "lease" => lease().map(|(job, id)| Record::Lease { job, id })?,
        "expire" => lease().map(|(job, id)| Record::Expire { job, id })?,
        "hb" => Record::Hb { worker: u("worker")?, seq: u("seq")?, pid: u("pid"), t_ms: u("t_ms") },
        "done" => Record::Done(DoneMark {
            job: u("job")? as usize,
            worker: u("worker"),
            ok: v.get("ok").and_then(Value::as_bool)?,
            attempts: u32_of("attempts")?,
        }),
        "shed" => Record::Shed,
        _ => return None,
    })
}

/// Reads a journal through the IO seam. Corruption can inject
/// arbitrary bytes; decode lossily so a bad region garbles its own
/// line rather than failing the whole read.
pub(crate) fn read_text(io: &dyn JournalIo, path: &Path) -> std::io::Result<String> {
    let bytes = io.read(FileClass::Journal, path)?;
    Ok(String::from_utf8(bytes)
        .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned()))
}

/// The commit point: appends one job record line in a single write and
/// fsyncs it. One write per record means concurrent appenders —
/// multi-process workers share the journal in O_APPEND mode — can
/// interleave *records*, never bytes within one. Transient write errors
/// retry with capped backoff; a sync error never does (the bytes it
/// failed on are unaccounted for).
pub(crate) fn commit_job(file: &mut dyn DurableFile, line: &str) -> std::io::Result<()> {
    let t0 = Instant::now();
    append_retrying(file, line.as_bytes())?;
    file.sync()?;
    vtrace::histogram("journal.fsync_us", t0.elapsed().as_micros() as u64);
    vtrace::counter("journal.records_written", 1);
    Ok(())
}

/// Appends one ledger record line in a single write, without an fsync —
/// losing a lease, expire, heartbeat or done marker in a crash is
/// harmless, every dispatch starts its ledger afresh.
pub(crate) fn append_ephemeral(file: &mut dyn DurableFile, line: &str) -> std::io::Result<()> {
    debug_assert!(line.ends_with('\n') && line.matches('\n').count() == 1);
    file.append(line.as_bytes())
}

pub(crate) fn manifest_line(fingerprint: u32, jobs: usize) -> String {
    format!(
        "{{\"kind\":\"manifest\",\"version\":{JOURNAL_VERSION},\
         \"fingerprint\":{fingerprint},\"jobs\":{jobs}}}\n"
    )
}

pub(crate) fn run_line(index: u32) -> String {
    format!("{{\"kind\":\"run\",\"index\":{index}}}\n")
}

/// Serializes one finished chain as a job record. Multi-process workers
/// pass `tag = (worker, run)`: the dispatcher uses `run` to tell live
/// results from replays, `worker` feeds the per-worker breakdown.
pub(crate) fn job_line(
    job: usize,
    name: &str,
    chain: &ChainResult,
    tag: Option<(u64, u32)>,
) -> String {
    let mut line = format!(
        "{{\"kind\":\"job\",\"job\":{job},\"name\":{},\"attempts\":{},\
         \"degraded\":{},\"deadline_missed\":{}",
        json::string(name),
        chain.attempts,
        chain.degraded,
        chain.deadline_missed,
    );
    match &chain.outcome {
        Ok(outcome) => {
            let m = outcome.measurement();
            let t = outcome.timings();
            let s = &outcome.stats;
            let crc = vpack::crc32(outcome.bytes());
            line.push_str(&format!(
                ",\"status\":\"ok\",\"crc32\":{crc},\"speed_pps\":{},\"bitrate_bpps\":{},\
                 \"quality_db\":{},\"submission\":{},\"transfer\":{},\"pipeline\":{}",
                json::number(m.speed_pps),
                json::number(m.bitrate_bpps),
                json::number(m.quality_db),
                json::number(t.submission),
                json::number(t.transfer),
                json::number(t.pipeline),
            ));
            line.push_str(&match outcome.chosen_bps() {
                Some(bps) => format!(",\"chosen_bps\":{bps}"),
                None => ",\"chosen_bps\":null".to_string(),
            });
            line.push_str(&format!(
                ",\"encode_seconds\":{},\"bitstream_bytes\":{},\"frames\":{},\"sb_intra\":{},\
                 \"sb_inter\":{},\"sb_skip\":{},\"sb_split\":{},\"avg_qp\":{},\"bytes\":\"",
                json::number(s.encode_seconds),
                s.bitstream_bytes,
                s.frames,
                s.sb_intra,
                s.sb_inter,
                s.sb_skip,
                s.sb_split,
                json::number(s.avg_qp),
            ));
            // Hex digits never need JSON escaping, so they are written
            // straight into the line. Room for the closing quote, the
            // worker tag and `}\n` too: the line grows once.
            let payload = outcome.bytes();
            let mut bytes = std::mem::take(&mut line).into_bytes();
            bytes.reserve(2 * payload.len() + 64);
            hex_encode_into(&mut bytes, payload);
            bytes.push(b'"');
            line = String::from_utf8(bytes).expect("a JSON line and hex digits");
        }
        Err(error) => {
            line.push_str(&format!(
                ",\"status\":\"failed\",\"message\":{}",
                json::string(&error.to_string())
            ));
        }
    }
    if let Some((worker, run)) = tag {
        line.push_str(&format!(",\"worker\":{worker},\"run\":{run}"));
    }
    line.push_str("}\n");
    line
}

pub(crate) fn lease_line(job: usize, id: LeaseId) -> String {
    format!(
        "{{\"kind\":\"lease\",\"job\":{job},\"worker\":{},\"nonce\":{},\"pid\":{}}}\n",
        id.worker, id.nonce, id.pid
    )
}

pub(crate) fn expire_line(job: usize, id: LeaseId) -> String {
    format!(
        "{{\"kind\":\"expire\",\"job\":{job},\"worker\":{},\"nonce\":{},\"pid\":{}}}\n",
        id.worker, id.nonce, id.pid
    )
}

pub(crate) fn hb_line(worker: u64, seq: u64, pid: u64, t_ms: u64) -> String {
    format!("{{\"kind\":\"hb\",\"worker\":{worker},\"seq\":{seq},\"pid\":{pid},\"t_ms\":{t_ms}}}\n")
}

pub(crate) fn done_line(mark: DoneMark) -> String {
    let worker = mark.worker.map_or(String::new(), |w| format!("\"worker\":{w},"));
    format!(
        "{{\"kind\":\"done\",\"job\":{},{worker}\"ok\":{},\"attempts\":{}}}\n",
        mark.job, mark.ok, mark.attempts
    )
}

pub(crate) fn shed_line(event: &crate::service::ShedEvent) -> String {
    format!(
        "{{\"kind\":\"shed\",\"seq\":{},\"at_us\":{},\"name\":{},\"rank\":{},\
         \"value\":{},\"reason\":{}}}\n",
        event.seq,
        event.at_us,
        json::string(event.name),
        event.rank,
        json::number(event.value),
        json::string(event.reason.tag()),
    )
}

// The payload's hex codec. The alphabet is lowercase only: an uppercase
// digit is not a digit, so a record carrying one is quarantined. Both
// directions work on fixed blocks of payload bytes with branch-free
// nibble arithmetic, which LLVM vectorizes at the x86-64 baseline (SSE2).

/// Payload bytes per block: 64 digits, four SSE2 registers.
const BLOCK: usize = 32;

/// The digit of nibble `n` (< 16): `0`–`9`, then `a`–`f`.
fn digit(n: u8) -> u8 {
    n + b'0' + u8::from(n > 9) * (b'a' - b'0' - 10)
}

/// Whether `c` is one of the `len` bytes from `lo` on: one signed
/// compare after a bias, since SSE2 has no unsigned byte compare.
fn in_range(c: u8, lo: u8, len: u8) -> bool {
    (c.wrapping_add(0x80 - lo) as i8) < (0x80 + len) as i8
}

/// Whether `c` is a digit of the alphabet.
fn is_digit(c: u8) -> bool {
    in_range(c, b'0', 10) || in_range(c, b'a', 6)
}

/// The value of digit `c`: its low nibble, plus 9 for a letter (bit 6).
/// Meaningless for a byte that is not a digit.
fn value(c: u8) -> u8 {
    (c & 0xF) + 9 * ((c >> 6) & 1)
}

/// Writes the digits of `bytes` to `digits`, twice as long.
fn encode_block(bytes: &[u8], digits: &mut [u8]) {
    for (pair, &b) in digits.chunks_exact_mut(2).zip(bytes) {
        pair.copy_from_slice(&[digit(b >> 4), digit(b & 0xF)]);
    }
}

/// Writes the bytes the digit pairs of `digits` spell to `bytes`, half as
/// long, and returns whether all of `digits` are digits.
fn decode_block(digits: &[u8], bytes: &mut [u8]) -> bool {
    let mut values = [0u8; 2 * BLOCK];
    let mut valid = true;
    for (v, &c) in values.iter_mut().zip(digits) {
        *v = value(c);
        valid &= is_digit(c);
    }
    for (b, pair) in bytes.iter_mut().zip(values.chunks_exact(2)) {
        // Both values of a pair in one 16-bit lane.
        let w = u16::from_le_bytes([pair[0], pair[1]]);
        *b = (w << 4 | w >> 8) as u8;
    }
    valid
}

/// Appends the digits of `bytes` to `out`.
fn hex_encode_into(out: &mut Vec<u8>, bytes: &[u8]) {
    let mut blocks = bytes.chunks_exact(BLOCK);
    let mut digits = [0u8; 2 * BLOCK];
    for block in &mut blocks {
        encode_block(block, &mut digits);
        out.extend_from_slice(&digits);
    }
    let tail = blocks.remainder();
    encode_block(tail, &mut digits);
    out.extend_from_slice(&digits[..2 * tail.len()]);
}

fn hex_decode(hex: &[u8]) -> Option<Vec<u8>> {
    if !hex.len().is_multiple_of(2) {
        return None;
    }
    // A power-of-two capacity: half the class of the hex string it came
    // from, so payloads fill the holes freed parse strings leave. Exact
    // sizes fragmented the heap (EXPERIMENTS.md "Journal codec").
    let mut out = Vec::with_capacity((hex.len() / 2).next_power_of_two());
    let mut blocks = hex.chunks_exact(2 * BLOCK);
    let mut bytes = [0u8; BLOCK];
    for block in &mut blocks {
        if !decode_block(block, &mut bytes) {
            return None;
        }
        out.extend_from_slice(&bytes);
    }
    let tail = &mut bytes[..blocks.remainder().len() / 2];
    if !decode_block(blocks.remainder(), tail) {
        return None;
    }
    out.extend_from_slice(tail);
    Some(out)
}

/// Builders for tests across the crate that need real journal text.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use crate::engine::{RateMode, TranscodeRequest};
    use vcodec::{CodecFamily, Preset};
    use vframe::color::{frame_from_fn, Yuv};
    use vframe::{Resolution, Video};

    /// A successful chain whose outcome is the replay of `bytes`.
    pub(crate) fn ok_chain(bytes: &[u8], attempts: u32) -> ChainResult {
        let outcome = StreamOutcome {
            bytes: bytes.to_vec(),
            measurement: Measurement { speed_pps: 1.5e6, bitrate_bpps: 0.125, quality_db: 41.75 },
            timings: StageSeconds { submission: 0.0, transfer: 0.25, pipeline: 2.5 },
            chosen_bps: None,
            stats: EncodeStats {
                encode_seconds: 2.5,
                bitstream_bytes: bytes.len() as u64,
                frames: 6,
                sb_intra: 1,
                sb_inter: 2,
                sb_skip: 3,
                sb_split: 4,
                avg_qp: 30.0,
                kernels: Default::default(),
            },
            peak_resident_frames: 0,
        };
        ChainResult { outcome: Ok(outcome), attempts, degraded: 0, deadline_missed: false }
    }

    /// A chain that failed with `message`.
    pub(crate) fn failed_chain(message: &str, attempts: u32) -> ChainResult {
        let error = JobError::Panicked { message: message.to_string() };
        ChainResult { outcome: Err(error), attempts, degraded: 0, deadline_missed: false }
    }

    /// A per-test scratch journal path; the journal and its ledger are
    /// removed on drop.
    pub(crate) struct TempJournal(std::path::PathBuf);

    impl TempJournal {
        pub(crate) fn new(tag: &str) -> TempJournal {
            use std::sync::atomic::{AtomicUsize, Ordering};
            static SEQ: AtomicUsize = AtomicUsize::new(0);
            let n = SEQ.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir()
                .join(format!("vbench-journal-{tag}-{}-{n}.jsonl", std::process::id()));
            let _ = std::fs::remove_file(&path);
            TempJournal(path)
        }

        pub(crate) fn path(&self) -> &std::path::Path {
            &self.0
        }
    }

    impl Drop for TempJournal {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
            let _ = std::fs::remove_file(crate::exec::ledger::ledger_path(&self.0));
        }
    }

    /// The request every test job runs: AVC fast, constant quality.
    pub(crate) fn request() -> TranscodeRequest {
        TranscodeRequest::software(
            CodecFamily::Avc,
            Preset::Fast,
            RateMode::ConstQuality { crf: 30.0 },
        )
    }

    /// One-frame jobs with the given names: enough batch for a record's
    /// name to verify against.
    pub(crate) fn jobs(names: &[&str]) -> Vec<EngineJob> {
        let frame =
            frame_from_fn(Resolution::new(16, 16), |x, y| Yuv::new((x + y) as u8, 128, 128));
        names
            .iter()
            .map(|name| EngineJob::new(*name, Video::new(vec![frame.clone()], 30.0), request()))
            .collect()
    }

    /// A six-frame 64×48 clip whose content depends on `seed`: small
    /// enough to encode in milliseconds, distinct per seed.
    pub(crate) fn source(seed: u32) -> Video {
        let res = Resolution::new(64, 48);
        let frames = (0..6)
            .map(|t| {
                frame_from_fn(res, |x, y| {
                    Yuv::new(((x * (3 + seed) + y * 2 + 5 * t) % 256) as u8, 128, 128)
                })
            })
            .collect();
        Video::new(frames, 30.0)
    }

    /// `n` real encode jobs, `job0..`, job `i` over [`source`]`(i)`.
    pub(crate) fn encode_jobs(n: u32) -> Vec<EngineJob> {
        (0..n).map(|i| EngineJob::new(format!("job{i}"), source(i), request())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{failed_chain, jobs, ok_chain};
    use super::*;
    use crate::service::{ShedEvent, ShedReason};
    use proptest::prelude::*;

    const ID: LeaseId = LeaseId { worker: 3, nonce: 9, pid: 4242 };

    /// (a) The bytes on disk, one literal line per record kind. These are
    /// what the commit before the record module existed wrote; a change
    /// here is a format change and needs a `JOURNAL_VERSION` bump.
    #[test]
    fn golden_bytes_per_record_kind() {
        assert_eq!(
            manifest_line(0xdead_beef, 15),
            "{\"kind\":\"manifest\",\"version\":1,\"fingerprint\":3735928559,\"jobs\":15}\n"
        );
        assert_eq!(run_line(2), "{\"kind\":\"run\",\"index\":2}\n");
        assert_eq!(
            lease_line(5, ID),
            "{\"kind\":\"lease\",\"job\":5,\"worker\":3,\"nonce\":9,\"pid\":4242}\n"
        );
        assert_eq!(
            expire_line(5, ID),
            "{\"kind\":\"expire\",\"job\":5,\"worker\":3,\"nonce\":9,\"pid\":4242}\n"
        );
        assert_eq!(
            hb_line(3, 17, 4242, 1_700_000_000_123),
            "{\"kind\":\"hb\",\"worker\":3,\"seq\":17,\"pid\":4242,\"t_ms\":1700000000123}\n"
        );
        let done = DoneMark { job: 5, worker: Some(3), ok: true, attempts: 2 };
        assert_eq!(
            done_line(done),
            "{\"kind\":\"done\",\"job\":5,\"worker\":3,\"ok\":true,\"attempts\":2}\n"
        );
        assert_eq!(
            done_line(DoneMark { worker: None, ok: false, attempts: 0, ..done }),
            "{\"kind\":\"done\",\"job\":5,\"ok\":false,\"attempts\":0}\n"
        );
        let shed = ShedEvent {
            seq: 1,
            at_us: 2_750,
            name: "bike",
            rank: 990,
            value: 0.003,
            reason: ShedReason::Infeasible,
        };
        assert_eq!(
            shed_line(&shed),
            "{\"kind\":\"shed\",\"seq\":1,\"at_us\":2750,\"name\":\"bike\",\"rank\":990,\
             \"value\":0.003,\"reason\":\"infeasible\"}\n"
        );

        let mut ok = ok_chain(&[0x00, 0x7f, 0xff, 0x10], 2);
        ok.degraded = 1;
        ok.deadline_missed = true;
        const OK: &str = "{\"kind\":\"job\",\"job\":4,\"name\":\"a \\\"quoted\\\" name\",\
             \"attempts\":2,\"degraded\":1,\"deadline_missed\":true,\"status\":\"ok\",\
             \"crc32\":4034534759,\"speed_pps\":1500000.0,\"bitrate_bpps\":0.125,\
             \"quality_db\":41.75,\"submission\":0.0,\"transfer\":0.25,\"pipeline\":2.5,\
             \"chosen_bps\":null,\"encode_seconds\":2.5,\"bitstream_bytes\":4,\"frames\":6,\
             \"sb_intra\":1,\"sb_inter\":2,\"sb_skip\":3,\"sb_split\":4,\"avg_qp\":30.0,\
             \"bytes\":\"007fff10\"";
        assert_eq!(job_line(4, "a \"quoted\" name", &ok, None), format!("{OK}}}\n"));
        assert_eq!(
            job_line(4, "a \"quoted\" name", &ok, Some((1, 0))),
            format!("{OK},\"worker\":1,\"run\":0}}\n")
        );
        if let Ok(o) = &mut ok.outcome {
            o.chosen_bps = Some(400_000);
        }
        assert!(job_line(4, "x", &ok, None).contains(",\"chosen_bps\":400000,"));

        const FAILED: &str = "{\"kind\":\"job\",\"job\":0,\"name\":\"cat\",\"attempts\":3,\
             \"degraded\":0,\"deadline_missed\":false,\"status\":\"failed\",\
             \"message\":\"job panicked: boom\\n\"";
        let failed = failed_chain("boom\n", 3);
        assert_eq!(job_line(0, "cat", &failed, None), format!("{FAILED}}}\n"));
        assert_eq!(
            job_line(0, "cat", &failed, Some((12, 7))),
            format!("{FAILED},\"worker\":12,\"run\":7}}\n")
        );
    }

    /// Every strict prefix of `line`, appended to a manifest, leaves the
    /// manifest as the only committed record.
    fn assert_no_prefix_commits(line: &str) {
        let manifest = manifest_line(1, 8);
        for cut in (0..line.len()).filter(|&c| line.is_char_boundary(c)) {
            let text = format!("{manifest}{}", &line[..cut]);
            assert_eq!(records(&text).count(), 1, "prefix {cut} of {line:?} committed");
        }
    }

    /// The only record of a one-line journal body.
    fn parsed(line: &str) -> Record {
        let text = format!("{}{line}", manifest_line(1, 8));
        let mut body = records(&text).skip(1);
        let record = body.next().unwrap_or_else(|| panic!("{line:?} is a committed record"));
        assert!(body.next().is_none());
        record
    }

    proptest! {
        /// (b) `Record → line → Record` is the identity for the kinds
        /// readers fold fields of, and no strict prefix ever commits.
        #[test]
        fn coordination_records_round_trip(
            job in 0usize..1 << 20,
            worker in 0u64..1 << 40,
            nonce in 0u64..1 << 40,
            pid in 0u64..1 << 32,
            seq in 0u64..1 << 40,
            index in any::<u32>(),
        ) {
            let id = LeaseId { worker, nonce, pid };
            let mark = DoneMark {
                job,
                worker: (nonce % 2 == 0).then_some(worker),
                ok: seq % 2 == 0,
                attempts: index % 9,
            };
            let cases = [
                (done_line(mark), Record::Done(mark)),
                (lease_line(job, id), Record::Lease { job, id }),
                (expire_line(job, id), Record::Expire { job, id }),
                (
                    hb_line(worker, seq, pid, nonce),
                    Record::Hb { worker, seq, pid: Some(pid), t_ms: Some(nonce) },
                ),
                (run_line(index), Record::Run { index }),
            ];
            for (line, record) in cases {
                prop_assert_eq!(parsed(&line), record);
                assert_no_prefix_commits(&line);
            }
            let manifest = manifest_line(index, job);
            prop_assert_eq!(
                records(&manifest).next(),
                Some(Record::Manifest { fingerprint: index, jobs: job as u64 })
            );
            prop_assert_eq!(records(manifest.trim_end()).count(), 0);
        }

        /// (b) for job records: the header parses back to what was
        /// written, the loaded chain re-serializes to the identical
        /// line, and no strict prefix ever commits.
        #[test]
        fn job_records_round_trip(
            bytes in proptest::collection::vec(any::<u8>(), 0..48),
            floats in proptest::collection::vec(-1.0e12f64..1.0e12, 8),
            history in (1u32..9, 0u32..4, 0u8..16),
            chosen_bps in 0u64..1 << 40,
            tag in (0u64..64, 0u32..8),
        ) {
            let (attempts, degraded, flags) = history;
            let jobs = jobs(&["a", "b\\c\t\"d\""]);
            let mut chain = ok_chain(&bytes, attempts);
            if let Ok(o) = &mut chain.outcome {
                o.measurement = Measurement {
                    speed_pps: floats[0],
                    bitrate_bpps: floats[1],
                    quality_db: floats[2],
                };
                o.timings =
                    StageSeconds { submission: floats[3], transfer: floats[4], pipeline: floats[5] };
                o.stats.encode_seconds = floats[6];
                o.stats.avg_qp = floats[7];
                o.chosen_bps = (flags & 1 != 0).then_some(chosen_bps);
            }
            if flags & 2 != 0 {
                chain = failed_chain("line one\nline \"two\"", attempts);
            }
            chain.degraded = degraded;
            chain.deadline_missed = flags & 4 != 0;
            let tag = (flags & 8 != 0).then_some(tag);

            let line = job_line(1, &jobs[1].name, &chain, tag);
            let Record::Job(rec) = parsed(&line) else { panic!("{line:?} is a job record") };
            prop_assert_eq!(
                (rec.job, rec.attempts, rec.ok, rec.worker, rec.run),
                (1, attempts, chain.outcome.is_ok(), tag.map(|t| t.0), tag.map(|t| t.1))
            );
            prop_assert_eq!(parsed(&done_line(rec.mark())), Record::Done(rec.mark()));
            let loaded = rec.load(&jobs).expect("a written record verifies");
            prop_assert_eq!((loaded.degraded, loaded.deadline_missed), (degraded, flags & 4 != 0));
            if let Err(e) = &mut chain.outcome {
                // A failure reloads as its message, not its original type.
                prop_assert_eq!(
                    loaded.outcome.as_ref().err(),
                    Some(&JobError::ReplayedFailure { message: e.to_string() })
                );
            } else {
                prop_assert_eq!(job_line(1, &jobs[1].name, &loaded, tag), line.clone());
            }
            prop_assert!(rec.load(&jobs[..1]).is_none(), "job index out of range");
            assert_no_prefix_commits(&line);
        }
    }

    /// The payload alphabet.
    const HEX: &[u8; 16] = b"0123456789abcdef";

    /// [`hex_encode_into`] into a fresh string.
    fn hex_encode(bytes: &[u8]) -> String {
        let mut out = Vec::new();
        hex_encode_into(&mut out, bytes);
        String::from_utf8(out).expect("hex digits are ASCII")
    }

    /// The per-`char` encoder the block encoder replaced: its oracle.
    fn hex_encode_reference(bytes: &[u8]) -> String {
        let mut out = String::with_capacity(bytes.len() * 2);
        for b in bytes {
            out.push(HEX[(b >> 4) as usize] as char);
            out.push(HEX[(b & 0xf) as usize] as char);
        }
        out
    }

    /// The per-`char` decoder the block decoder replaced: its oracle.
    fn hex_decode_reference(s: &[u8]) -> Option<Vec<u8>> {
        if !s.len().is_multiple_of(2) {
            return None;
        }
        let digit = |c: u8| -> Option<u8> {
            match c {
                b'0'..=b'9' => Some(c - b'0'),
                b'a'..=b'f' => Some(c - b'a' + 10),
                _ => None,
            }
        };
        s.chunks(2).map(|pair| Some(digit(pair[0])? << 4 | digit(pair[1])?)).collect()
    }

    /// One digit of a three-block-plus-tail payload replaced, at every
    /// position, by each of the characters next to the alphabet's ranges,
    /// uppercase digits, and bytes that are not ASCII: the decoder
    /// rejects exactly what the per-`char` oracle rejects, and decodes
    /// the same bytes where both accept.
    #[test]
    fn hex_decoder_rejects_exactly_the_non_digits() {
        let payload: Vec<u8> = (0..3 * BLOCK as u32 + 5).map(|i| (i * 73 + 11) as u8).collect();
        let hex = hex_encode(&payload).into_bytes();
        assert_eq!(hex_decode(&hex), Some(payload));
        let strays = [b'A', b'F', b'g', b'/', b':', b'`', 0x80, 0xFF];
        for at in 0..hex.len() {
            for c in strays.into_iter().chain(*b"09af") {
                let mut text = hex.clone();
                text[at] = c;
                let want = hex_decode_reference(&text);
                assert_eq!(want.is_none(), strays.contains(&c));
                assert_eq!(hex_decode(&text), want, "{:?} at {at}", c as char);
            }
        }
    }

    /// Decode agrees with the oracle on arbitrary ASCII — mostly valid
    /// digits with uppercase, out-of-alphabet and odd-length cases mixed
    /// in — returning `None` exactly where it does; encode agrees with
    /// its oracle and round-trips.
    #[test]
    fn hex_codec_matches_the_reference_codec() {
        use rand::rngs::SmallRng;
        use rand::{Rng, RngCore, SeedableRng};
        let scale = if cfg!(debug_assertions) { 1 } else { 10 };
        let mut rng = SmallRng::seed_from_u64(0x4e8c_0dec);
        let (mut some, mut none) = (0, 0);
        for _ in 0..4000 * scale {
            let len = rng.gen_range(0..5 * 2 * BLOCK);
            let mut text: Vec<u8> = (0..len).map(|_| HEX[rng.gen_range(0..16usize)]).collect();
            for _ in 0..rng.gen_range(0..3usize) {
                if len > 0 {
                    let stray = match rng.gen_range(0..4u32) {
                        0 => b"ABCDEF"[rng.gen_range(0..6usize)],
                        1 => b"gG/:`@"[rng.gen_range(0..6usize)],
                        _ => rng.gen_range(0..0x80u8),
                    };
                    text[rng.gen_range(0..len)] = stray;
                }
            }
            let decoded = hex_decode(&text);
            assert_eq!(
                decoded,
                hex_decode_reference(&text),
                "{:?}",
                String::from_utf8_lossy(&text)
            );
            if decoded.is_some() {
                some += 1
            } else {
                none += 1
            }

            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let hex = hex_encode(&bytes);
            assert_eq!(hex, hex_encode_reference(&bytes));
            assert_eq!(hex_decode(hex.as_bytes()), Some(bytes));
        }
        assert!(some > 400 * scale && none > 400 * scale, "{some} decoded, {none} rejected");
    }

    #[test]
    fn tampered_payloads_keep_their_header_but_do_not_load() {
        let jobs = jobs(&["a"]);
        let line = job_line(0, "a", &ok_chain(&[1, 2, 3, 4], 1), None);
        for tampered in [
            line.replace("\"bytes\":\"01", "\"bytes\":\"f1"),
            line.replace("\"name\":\"a\"", "\"name\":\"b\""),
            line.replace("\"quality_db\":41.75,", ""),
        ] {
            assert_ne!(tampered, line);
            let Record::Job(rec) = parsed(&tampered) else { panic!("header still parses") };
            assert!(rec.ok && rec.job == 0);
            assert!(rec.load(&jobs).is_none(), "{tampered}");
        }
    }

    #[test]
    fn only_the_first_usable_manifest_opens_the_journal() {
        let v2 = manifest_line(7, 3).replace("\"version\":1", "\"version\":2");
        let no_fingerprint = "{\"kind\":\"manifest\",\"version\":1,\"jobs\":3}\n";
        let cat = |parts: &[&str]| parts.concat();
        let text = cat(&[&v2, no_fingerprint, &run_line(0), &manifest_line(7, 3), &run_line(1)]);
        let got: Vec<Record> = records(&text).collect();
        assert_eq!(got, [Record::Manifest { fingerprint: 7, jobs: 3 }, Record::Run { index: 1 }]);
        // A second manifest is not a record; neither is an unknown kind.
        let text = cat(&[&manifest_line(7, 3), &manifest_line(8, 3), "{\"kind\":\"future\"}\n"]);
        assert_eq!(records(&text).count(), 1);
        assert_eq!(scan(&text).count(), 3);
    }
}
