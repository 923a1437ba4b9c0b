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
//!   of a version past [`JOURNAL_VERSION`] or with missing fields is not
//!   usable.
//!   [`Committed`] holds those rules for a reader that visits the lines
//!   in another order (the resume scan folds them last first), or that
//!   reads a growing file again and again ([`Committed::extend`], the
//!   lease ledger's incremental fold).
//! * [`Record`] — the typed record. A [`JobRecord`] parses only its
//!   header (job, status, attempts, provenance tags); the payload is
//!   decoded (radix-64 under a version 2 manifest, hex under a version 1
//!   one) and CRC-verified by [`JobRecord::load`], which the ledger and
//!   status folds never call. [`upgrade`] rewrites a record of an earlier
//!   version as this build writes it.
//! * the eight `*_line` writers, each building its record through
//!   [`vtrace::json::Object`] (a job's payload is radix-64-encoded straight
//!   into the line) and returning one newline-terminated line for a
//!   single-write append, and the two ways a line reaches disk:
//!   [`commit_job`] (append + fsync — the commit point) and
//!   [`append_ephemeral`] (ledger records, never fsync'd).

use std::borrow::Cow;
use std::path::Path;

use crate::engine::StreamOutcome;
use crate::exec::clock::Clock;
use crate::exec::io::{append_retrying, DurableFile, JournalIo};
use crate::exec::ledger::LeaseId;
use crate::exec::ChainResult;
use crate::farm::{EngineJob, JobError};
use crate::measure::Measurement;
use vcodec::EncodeStats;
use vfault::FileClass;
use vhw::StageSeconds;
use vtrace::json::{self, Object, ToJson, Value};

/// The journal file format version this build writes. It reads every
/// version from 1 on: a version 1 journal carries its payloads in hex, and
/// the first resume of one rewrites it at this version
/// (`journal::open_journal`).
pub(crate) const JOURNAL_VERSION: u64 = 2;

/// One committed journal record.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Record {
    /// The batch identity; always the first record [`scan`] yields.
    Manifest {
        /// CRC-32 over the canonical job list and resilience policy.
        fingerprint: u32,
        /// Jobs in the batch.
        jobs: u64,
        /// The format version the journal's records are written in.
        version: u64,
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
    /// The format version of the journal it was read from, which decides
    /// how its payload decodes.
    version: u64,
    fields: Value,
}

impl JobRecord {
    /// The ledger's view of this record.
    pub(crate) fn mark(&self) -> DoneMark {
        DoneMark { job: self.job, worker: self.worker, ok: self.ok, attempts: self.attempts }
    }

    /// Verifies the record against the batch and loads its chain: the
    /// journaled outcome (bitstream decoded and CRC-checked) with the
    /// recording run's resilience history. `None` = quarantine it.
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
            let field = record.get("bytes").and_then(Value::as_str)?.as_bytes();
            let bytes = if self.version == 1 { hex_decode(field) } else { radix_decode(field) }?;
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
/// lines in another order (the resume scan walks them last line first)
/// or that reads the same growing file again and again
/// ([`Committed::extend`]). `Default` is the rules before any text.
#[derive(Default)]
pub(crate) struct Committed {
    /// Bytes up to and including the last newline; what follows is an
    /// unterminated final line, never a record.
    pub(crate) end: usize,
    /// The first usable manifest line.
    pub(crate) manifest: Option<ManifestAt>,
}

/// Where a journal's first usable manifest line is, and what it says.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ManifestAt {
    /// Byte offset of the line.
    pub(crate) at: usize,
    /// The batch fingerprint it records.
    pub(crate) fingerprint: u32,
    /// The format version the records after it are written in.
    pub(crate) version: u64,
}

impl ManifestAt {
    /// `record`, the manifest line starting at byte offset `at`, if it is
    /// one.
    fn of(at: usize, record: &Record) -> Option<ManifestAt> {
        match *record {
            Record::Manifest { fingerprint, version, .. } => {
                Some(ManifestAt { at, fingerprint, version })
            }
            _ => None,
        }
    }
}

impl Committed {
    pub(crate) fn of(text: &str) -> Committed {
        let end = text.rfind('\n').map_or(0, |i| i + 1);
        let mut at = 0;
        let manifest = text[..end].split_terminator('\n').find_map(|line| {
            let start = at;
            at += line.len() + 1;
            ManifestAt::of(start, &parse(line, JOURNAL_VERSION)?)
        });
        Committed { end, manifest }
    }

    /// The committed record the line starting at byte offset `at` holds:
    /// nothing before the first usable manifest is one, and no later
    /// manifest is.
    pub(crate) fn record(&self, at: usize, line: &str) -> Option<Record> {
        let manifest = self.manifest?;
        if at < manifest.at {
            return None;
        }
        parse(line, manifest.version)
            .filter(|r| at == manifest.at || !matches!(r, Record::Manifest { .. }))
    }

    /// Extends these rules over the lines `text` completes past
    /// [`Committed::end`], handing each committed record among them to
    /// `fold` in file order, and returns how many lines it parsed. `text`
    /// is the whole file as read now and must extend the text these rules
    /// already cover: a file read again only grows, so each of its lines
    /// is parsed once, however often it is read. The rules are
    /// [`scan`]'s: an unterminated tail waits for its newline, nothing
    /// before the first usable manifest is a record, no later manifest is.
    pub(crate) fn extend(&mut self, text: &str, mut fold: impl FnMut(Record)) -> usize {
        let new = &text[self.end..];
        let complete = new.rfind('\n').map_or(0, |i| i + 1);
        let (mut at, mut lines) = (self.end, 0);
        for line in new[..complete].split_terminator('\n') {
            let start = at;
            at += line.len() + 1;
            lines += 1;
            let version = self.manifest.map_or(JOURNAL_VERSION, |m| m.version);
            let Some(record) = parse(line, version) else { continue };
            match (self.manifest, &record) {
                (None, Record::Manifest { .. }) => self.manifest = ManifestAt::of(start, &record),
                (None, _) | (Some(_), Record::Manifest { .. }) => continue,
                (Some(_), _) => {}
            }
            fold(record);
        }
        self.end += complete;
        lines
    }
}

/// The committed records of [`scan`], for folds that skip corruption
/// instead of counting it.
pub(crate) fn records(text: &str) -> impl Iterator<Item = Record> + '_ {
    scan(text).filter_map(|entry| entry.record)
}

/// Parses one line as a well-formed record of a known kind, in a journal
/// whose manifest says `version` (which only a job record's payload
/// depends on).
fn parse(line: &str, version: u64) -> Option<Record> {
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
        "manifest" => {
            let version = u("version").filter(|v| (1..=JOURNAL_VERSION).contains(v))?;
            Record::Manifest { fingerprint: u32_of("fingerprint")?, jobs: u("jobs")?, version }
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
            Record::Job(JobRecord { job, attempts, ok, worker, run, version, fields: v })
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
pub(crate) fn commit_job(
    file: &mut dyn DurableFile,
    line: &str,
    clock: &dyn Clock,
) -> std::io::Result<()> {
    append_retrying(file, line.as_bytes(), clock)?;
    let t0 = clock.now();
    file.sync()?;
    vtrace::histogram("journal.fsync_us", (clock.now() - t0).as_micros() as u64);
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

/// `record`'s text as one journal line.
fn to_line(record: Object) -> String {
    let mut line = record.close();
    line.push('\n');
    line
}

pub(crate) fn manifest_line(fingerprint: u32, jobs: usize) -> String {
    to_line(
        Object::new()
            .field("kind", "manifest")
            .field("version", JOURNAL_VERSION)
            .field("fingerprint", fingerprint)
            .field("jobs", jobs),
    )
}

pub(crate) fn run_line(index: u32) -> String {
    to_line(Object::new().field("kind", "run").field("index", index))
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
    let record = Object::new()
        .field("kind", "job")
        .field("job", job)
        .field("name", name)
        .field("attempts", chain.attempts)
        .field("degraded", chain.degraded)
        .field("deadline_missed", chain.deadline_missed);
    let record = match &chain.outcome {
        Ok(outcome) => {
            let m = outcome.measurement();
            let t = outcome.timings();
            let s = &outcome.stats;
            record
                .field("status", "ok")
                .field("crc32", vpack::crc32(outcome.bytes()))
                .field("speed_pps", m.speed_pps)
                .field("bitrate_bpps", m.bitrate_bpps)
                .field("quality_db", m.quality_db)
                .field("submission", t.submission)
                .field("transfer", t.transfer)
                .field("pipeline", t.pipeline)
                .field("chosen_bps", outcome.chosen_bps())
                .field("encode_seconds", s.encode_seconds)
                .field("bitstream_bytes", s.bitstream_bytes)
                .field("frames", s.frames)
                .field("sb_intra", s.sb_intra)
                .field("sb_inter", s.sb_inter)
                .field("sb_skip", s.sb_skip)
                .field("sb_split", s.sb_split)
                .field("avg_qp", s.avg_qp)
                .field("bytes", Payload(outcome.bytes()))
        }
        Err(error) => record.field("status", "failed").field("message", error.to_string()),
    };
    to_line(match tag {
        Some((worker, run)) => record.field("worker", worker).field("run", run),
        None => record,
    })
}

/// A job's bitstream as its record's `bytes` string: the radix-64
/// characters (version 2), which never need JSON escaping.
struct Payload<'a>(&'a [u8]);

impl ToJson for Payload<'_> {
    /// Encodes straight into the line. Room for the closing quote, the
    /// worker tag and `}\n` too: the line grows once.
    fn write_json(&self, out: &mut String) {
        let mut bytes = std::mem::take(out).into_bytes();
        bytes.reserve(radix_len(self.0.len()) + 64);
        bytes.push(b'"');
        radix_encode_into(&mut bytes, self.0);
        bytes.push(b'"');
        *out = String::from_utf8(bytes).expect("JSON text and ASCII characters");
    }
}

/// A lease or expire record: `kind` on `job` for lease `id`.
fn lease_record(kind: &str, job: usize, id: LeaseId) -> String {
    to_line(
        Object::new()
            .field("kind", kind)
            .field("job", job)
            .field("worker", id.worker)
            .field("nonce", id.nonce)
            .field("pid", id.pid),
    )
}

pub(crate) fn lease_line(job: usize, id: LeaseId) -> String {
    lease_record("lease", job, id)
}

pub(crate) fn expire_line(job: usize, id: LeaseId) -> String {
    lease_record("expire", job, id)
}

pub(crate) fn hb_line(worker: u64, seq: u64, pid: u64, t_ms: u64) -> String {
    to_line(
        Object::new()
            .field("kind", "hb")
            .field("worker", worker)
            .field("seq", seq)
            .field("pid", pid)
            .field("t_ms", t_ms),
    )
}

pub(crate) fn done_line(mark: DoneMark) -> String {
    let record = Object::new().field("kind", "done").field("job", mark.job);
    let record = match mark.worker {
        Some(worker) => record.field("worker", worker),
        None => record,
    };
    to_line(record.field("ok", mark.ok).field("attempts", mark.attempts))
}

pub(crate) fn shed_line(event: &crate::service::ShedEvent) -> String {
    to_line(
        Object::new()
            .field("kind", "shed")
            .field("seq", event.seq)
            .field("at_us", event.at_us)
            .field("name", event.name)
            .field("rank", event.rank)
            .field("value", event.value)
            .field("reason", event.reason.tag()),
    )
}

/// `line`, a committed record of a journal whose manifest says `version`,
/// as this build writes it. An `ok` job record of an earlier version is
/// loaded and written again, so its payload is in this version's
/// encoding; every other line is kept as it is (no other kind changed
/// between versions). A job record that does not load comes back as it
/// is; a compaction never keeps one.
pub(crate) fn upgrade<'a>(line: &'a str, version: u64, jobs: &[EngineJob]) -> Cow<'a, str> {
    if version == JOURNAL_VERSION {
        return Cow::Borrowed(line);
    }
    let loaded = match parse(line, version) {
        Some(Record::Job(rec)) if rec.ok => rec.load(jobs).map(|chain| (rec, chain)),
        _ => None,
    };
    let Some((rec, chain)) = loaded else { return Cow::Borrowed(line) };
    let mut line = job_line(rec.job, &jobs[rec.job].name, &chain, rec.worker.zip(rec.run));
    line.pop();
    Cow::Owned(line)
}

// The payload's radix-64 codec (version 2). A block of 48 payload bytes
// is 64 characters: first the low six bits of each byte, in order, then
// 16 characters, the i-th holding the top two bits of bytes i, i + 16
// and i + 32 (as its bits 0-1, 2-3 and 4-5). A final block of t < 48
// bytes is t low-bit characters and then ⌈t/3⌉ top-bit characters, the
// i-th holding the top bits of bytes i, i + ⌈t/3⌉ and i + 2⌈t/3⌉ (bits
// of bytes past the payload are 0 when written and ignored when read).
// The alphabet is the 64 ASCII bytes from `#` (35) to `c` (99) without
// `\` (92), so no character needs JSON escaping. Both directions work on
// whole blocks with branch-free arithmetic per character, which LLVM
// vectorizes at the x86-64 baseline (SSE2); a final block goes through
// the same code padded to a whole one.

/// Payload bytes per block.
const BLOCK: usize = 48;

/// Top-bit characters per block: one per three payload bytes.
const LANES: usize = BLOCK / 3;

/// Characters per block.
const CHARS: usize = BLOCK + LANES;

/// The character of six-bit value `v`: `#` on, stepping over `\`.
fn radix_char(v: u8) -> u8 {
    v + b'#' + u8::from(v >= b'\\' - b'#')
}

/// The six-bit value of character `c`. Meaningless for a byte outside the
/// alphabet.
fn radix_value(c: u8) -> u8 {
    c.wrapping_sub(b'#') - u8::from(c > b'\\')
}

/// Whether `c` is a character of the alphabet.
fn is_radix_char(c: u8) -> bool {
    in_range(c, b'#', b'\\' - b'#') || in_range(c, b'\\' + 1, b'c' - b'\\')
}

/// The length of the field [`radix_encode_into`] writes for `n` bytes.
fn radix_len(n: usize) -> usize {
    let tail = n % BLOCK;
    n / BLOCK * CHARS + tail + tail.div_ceil(3)
}

/// Writes the characters of one block of bytes whose top-bit characters
/// each gather three bytes `lanes` apart (≤ [`LANES`]): [`LANES`] for a
/// whole block, ⌈t/3⌉ for a final block of t bytes padded with zeros.
/// `chars` holds the low-bit characters first and the top-bit ones from
/// [`BLOCK`] on. Always inlined, so that the whole-block loop sees
/// `lanes` as a constant: out of line, both directions read 1.4–1.8×
/// more time per payload byte.
#[inline(always)]
fn radix_block(bytes: &[u8; BLOCK], lanes: usize, chars: &mut [u8; CHARS]) {
    let (low, top) = chars.split_at_mut(BLOCK);
    for (c, &b) in low.iter_mut().zip(bytes) {
        *c = radix_char(b & 0x3F);
    }
    let (x, rest) = bytes.split_at(lanes);
    let (y, z) = rest.split_at(lanes);
    for (((c, &x), &y), &z) in top.iter_mut().zip(x).zip(y).zip(z) {
        *c = radix_char(x >> 6 | (y >> 6) << 2 | (z >> 6) << 4);
    }
}

/// The inverse of [`radix_block`]: writes the bytes `chars` spells to
/// `bytes` and returns whether all of `chars` are in the alphabet.
#[inline(always)]
fn unradix_block(chars: &[u8; CHARS], lanes: usize, bytes: &mut [u8; BLOCK]) -> bool {
    let mut values = [0u8; CHARS];
    let mut valid = true;
    for (v, &c) in values.iter_mut().zip(chars) {
        *v = radix_value(c);
        valid &= is_radix_char(c);
    }
    let (low, top) = values.split_at(BLOCK);
    bytes.copy_from_slice(low);
    let (x, rest) = bytes.split_at_mut(lanes);
    let (y, z) = rest.split_at_mut(lanes);
    for (((&t, x), y), z) in top.iter().zip(x).zip(y).zip(z) {
        *x |= t << 6;
        *y |= (t >> 2) << 6;
        *z |= (t >> 4) << 6;
    }
    valid
}

/// Appends the characters of `bytes` to `out`.
fn radix_encode_into(out: &mut Vec<u8>, bytes: &[u8]) {
    let (blocks, tail) = bytes.as_chunks::<BLOCK>();
    let mut chars = [0u8; CHARS];
    for block in blocks {
        radix_block(block, LANES, &mut chars);
        out.extend_from_slice(&chars);
    }
    let lanes = tail.len().div_ceil(3);
    let mut padded = [0u8; BLOCK];
    padded[..tail.len()].copy_from_slice(tail);
    radix_block(&padded, lanes, &mut chars);
    out.extend_from_slice(&chars[..tail.len()]);
    out.extend_from_slice(&chars[BLOCK..BLOCK + lanes]);
}

/// The bytes `field` spells, or `None` if a character is outside the
/// alphabet or no payload length gives a field this long (a final block
/// of 4k + 1 characters).
fn radix_decode(field: &[u8]) -> Option<Vec<u8>> {
    let (blocks, tail) = field.as_chunks::<CHARS>();
    if tail.len() % 4 == 1 {
        return None;
    }
    let lanes = tail.len().div_ceil(4);
    let tail_bytes = tail.len() - lanes;
    // A power-of-two capacity, like the parse string's: exact sizes
    // fragmented the heap (EXPERIMENTS.md "Journal codec").
    let mut out = Vec::with_capacity((blocks.len() * BLOCK + tail_bytes).next_power_of_two());
    let mut bytes = [0u8; BLOCK];
    for block in blocks {
        if !unradix_block(block, LANES, &mut bytes) {
            return None;
        }
        out.extend_from_slice(&bytes);
    }
    let mut padded = [b'#'; CHARS];
    padded[..tail_bytes].copy_from_slice(&tail[..tail_bytes]);
    padded[BLOCK..BLOCK + lanes].copy_from_slice(&tail[tail_bytes..]);
    if !unradix_block(&padded, lanes, &mut bytes) {
        return None;
    }
    out.extend_from_slice(&bytes[..tail_bytes]);
    Some(out)
}

// The version 1 payload codec: hex, read only. The alphabet is lowercase
// only: an uppercase digit is not a digit, so a record carrying one is
// quarantined. The decoder works on fixed blocks of digits with
// branch-free nibble arithmetic, which LLVM vectorizes at SSE2.

/// Payload bytes per block of hex digits.
const HEX_BLOCK: usize = 32;

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

/// Writes the bytes the digit pairs of `digits` spell to `bytes`, half as
/// long, and returns whether all of `digits` are digits.
fn decode_block(digits: &[u8], bytes: &mut [u8]) -> bool {
    let mut values = [0u8; 2 * HEX_BLOCK];
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

fn hex_decode(hex: &[u8]) -> Option<Vec<u8>> {
    if !hex.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity((hex.len() / 2).next_power_of_two());
    let mut blocks = hex.chunks_exact(2 * HEX_BLOCK);
    let mut bytes = [0u8; HEX_BLOCK];
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

    /// `manifest`, a line [`manifest_line`] wrote, at a format version
    /// this build does not read.
    pub(crate) fn unknown_version(manifest: &str) -> String {
        let now = format!("\"version\":{JOURNAL_VERSION}");
        assert!(manifest.contains(&now), "{manifest:?}");
        manifest.replace(&now, &format!("\"version\":{}", JOURNAL_VERSION + 1))
    }

    /// `line`, a version 1 `ok` job record, with its payload written in
    /// this version's encoding and every other byte as it was.
    pub(crate) fn with_payload_reencoded(line: &str) -> String {
        let (head, rest) = line.split_once("\"bytes\":\"").expect("an ok job record");
        let (hex, tail) = rest.split_once('"').expect("a whole payload field");
        let mut field = Vec::new();
        radix_encode_into(&mut field, &hex_decode(hex.as_bytes()).expect("hex digits"));
        format!("{head}\"bytes\":\"{}\"{tail}", String::from_utf8(field).expect("ASCII"))
    }

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
    /// what the commit before the record module existed wrote, but for the
    /// manifest's version and the job payload's characters (version 2); a
    /// change here is a format change and needs a `JOURNAL_VERSION` bump.
    #[test]
    fn golden_bytes_per_record_kind() {
        assert_eq!(
            manifest_line(0xdead_beef, 15),
            "{\"kind\":\"manifest\",\"version\":2,\"fingerprint\":3735928559,\"jobs\":15}\n"
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
             \"bytes\":\"#cc3/$\"";
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
                Some(Record::Manifest {
                    fingerprint: index,
                    jobs: job as u64,
                    version: JOURNAL_VERSION
                })
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

    /// The radix-64 alphabet, spelled out: `#` to `c` without `\`.
    fn alphabet() -> Vec<u8> {
        (b'#'..=b'c').filter(|&c| c != b'\\').collect()
    }

    /// The layout spelled out, one byte at a time: each group of up to 48
    /// bytes is its n bytes' low six bits, in order, then ⌈n/3⌉ characters,
    /// the i-th holding the top two bits of bytes i, i + ⌈n/3⌉ and
    /// i + 2⌈n/3⌉ (0 for a byte past the group) as bits 0-1, 2-3 and 4-5.
    fn radix_encode_reference(bytes: &[u8]) -> Vec<u8> {
        let abc = alphabet();
        let mut out = Vec::new();
        for group in bytes.chunks(48) {
            let lanes = group.len().div_ceil(3);
            let top = |j: usize| group.get(j).map_or(0, |b| b >> 6);
            for b in group {
                out.push(abc[usize::from(b & 0x3F)]);
            }
            for i in 0..lanes {
                out.push(abc[usize::from(top(i) | top(i + lanes) << 2 | top(i + 2 * lanes) << 4)]);
            }
        }
        out
    }

    /// The inverse of [`radix_encode_reference`]: `None` for a character
    /// outside the alphabet, or a group of 64 characters or fewer that no
    /// group of bytes is written as.
    fn radix_decode_reference(field: &[u8]) -> Option<Vec<u8>> {
        let mut values = [None; 256];
        for (v, &c) in alphabet().iter().enumerate() {
            values[usize::from(c)] = Some(v as u8);
        }
        let mut out = Vec::new();
        for group in field.chunks(64) {
            let n = (1..=48usize).find(|n| n + n.div_ceil(3) == group.len())?;
            let lanes = n.div_ceil(3);
            let (low, top) = group.split_at(n);
            let mut bytes: Vec<u8> =
                low.iter().map(|&c| values[usize::from(c)]).collect::<Option<_>>()?;
            for (i, &c) in top.iter().enumerate() {
                let t = values[usize::from(c)]?;
                for (k, j) in [i, i + lanes, i + 2 * lanes].into_iter().enumerate() {
                    if let Some(b) = bytes.get_mut(j) {
                        *b |= (t >> (2 * k) & 3) << 6;
                    }
                }
            }
            out.extend(bytes);
        }
        Some(out)
    }

    /// [`radix_encode_into`] into a fresh buffer.
    fn radix_encode(bytes: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        radix_encode_into(&mut out, bytes);
        assert_eq!(out.len(), radix_len(bytes.len()));
        out
    }

    /// The block codec agrees with the per-byte one, both ways.
    fn assert_matches_reference(bytes: &[u8]) {
        let field = radix_encode(bytes);
        assert_eq!(field, radix_encode_reference(bytes), "{} bytes", bytes.len());
        assert_eq!(radix_decode_reference(&field).as_deref(), Some(bytes));
        assert_eq!(radix_decode(&field).as_deref(), Some(bytes), "{} bytes", bytes.len());
    }

    proptest! {
        /// Every payload length up to three blocks and a two-byte tail:
        /// every whole-block count and every tail length.
        #[test]
        fn radix_codec_matches_the_reference_at_every_length(
            pool in proptest::collection::vec(any::<u8>(), 3 * BLOCK + 2),
        ) {
            for len in 0..=pool.len() {
                assert_matches_reference(&pool[..len]);
            }
        }

        /// Random payloads up to 64 KiB.
        #[test]
        fn radix_codec_matches_the_reference_on_random_payloads(
            bytes in proptest::collection::vec(any::<u8>(), 0..=64 * 1024),
        ) {
            assert_matches_reference(&bytes);
        }
    }

    /// One character of a three-block-plus-tail payload replaced, at every
    /// position (the tail's low- and top-bit characters included), by each
    /// of the bytes next to the alphabet's two ranges, the quote, the
    /// backslash the alphabet skips, and bytes that are not ASCII: the
    /// decoder rejects exactly what the per-byte oracle rejects, and
    /// decodes the same bytes where both accept. Then every length of a
    /// valid field: exactly those whose final block is 4k + 1 characters
    /// are rejected.
    #[test]
    fn radix_decoder_rejects_exactly_the_non_alphabet_and_impossible_lengths() {
        let payload: Vec<u8> = (0..3 * BLOCK as u32 + 5).map(|i| (i * 73 + 11) as u8).collect();
        let field = radix_encode(&payload);
        assert_eq!(radix_decode(&field), Some(payload));
        let strays = [b'"', b'\\', b'd', b'!', 0x00, 0x7F, 0x80, 0xFF];
        for at in 0..field.len() {
            for c in strays.into_iter().chain(*b"#[]c") {
                let mut text = field.clone();
                text[at] = c;
                let want = radix_decode_reference(&text);
                assert_eq!(want.is_none(), strays.contains(&c));
                assert_eq!(radix_decode(&text), want, "{:?} at {at}", c as char);
            }
        }
        let field = radix_encode(&(0..4 * BLOCK as u32 - 1).map(|i| i as u8).collect::<Vec<_>>());
        for len in 0..=field.len() {
            let want = radix_decode_reference(&field[..len]);
            assert_eq!(want.is_none(), len % CHARS % 4 == 1, "{len} characters");
            assert_eq!(radix_decode(&field[..len]), want, "{len} characters");
        }
    }

    /// The hex alphabet of version 1 payloads.
    const HEX: &[u8; 16] = b"0123456789abcdef";

    /// The per-`char` encoder that wrote version 1 payloads.
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
        let payload: Vec<u8> = (0..3 * HEX_BLOCK as u32 + 5).map(|i| (i * 73 + 11) as u8).collect();
        let hex = hex_encode_reference(&payload).into_bytes();
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
    /// in — returning `None` exactly where it does, and decodes what the
    /// version 1 encoder wrote.
    #[test]
    fn hex_codec_matches_the_reference_codec() {
        use rand::rngs::SmallRng;
        use rand::{Rng, RngCore, SeedableRng};
        let scale = if cfg!(debug_assertions) { 1 } else { 10 };
        let mut rng = SmallRng::seed_from_u64(0x4e8c_0dec);
        let (mut some, mut none) = (0, 0);
        for _ in 0..4000 * scale {
            let len = rng.gen_range(0..5 * 2 * HEX_BLOCK);
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
            assert_eq!(hex_decode(hex_encode_reference(&bytes).as_bytes()), Some(bytes));
        }
        assert!(some > 400 * scale && none > 400 * scale, "{some} decoded, {none} rejected");
    }

    #[test]
    fn tampered_payloads_keep_their_header_but_do_not_load() {
        let jobs = jobs(&["a"]);
        let line = job_line(0, "a", &ok_chain(&[1, 2, 3, 4], 1), None);
        for tampered in [
            line.replace("\"bytes\":\"$", "\"bytes\":\"%"),
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
        let future = testing::unknown_version(&manifest_line(7, 3));
        let no_fingerprint = "{\"kind\":\"manifest\",\"version\":1,\"jobs\":3}\n";
        let cat = |parts: &[&str]| parts.concat();
        let text =
            cat(&[&future, no_fingerprint, &run_line(0), &manifest_line(7, 3), &run_line(1)]);
        let got: Vec<Record> = records(&text).collect();
        let manifest = Record::Manifest { fingerprint: 7, jobs: 3, version: JOURNAL_VERSION };
        assert_eq!(got, [manifest, Record::Run { index: 1 }]);
        // A version 1 manifest is usable, and says so.
        let v1 =
            manifest_line(7, 3).replace(&format!("\"version\":{JOURNAL_VERSION}"), "\"version\":1");
        assert!(matches!(records(&v1).next(), Some(Record::Manifest { version: 1, .. })));
        // A second manifest is not a record; neither is an unknown kind.
        let text = cat(&[&manifest_line(7, 3), &manifest_line(8, 3), "{\"kind\":\"future\"}\n"]);
        assert_eq!(records(&text).count(), 1);
        assert_eq!(scan(&text).count(), 3);
    }
}
