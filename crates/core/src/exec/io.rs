//! The durable-IO seam: every byte the journal, lease ledger, and
//! status snapshots put on disk goes through a [`JournalIo`].
//!
//! The durability stack's correctness claims — "a job's fsync'd record
//! is its commit point", "readers never observe a torn snapshot" — are
//! claims about *storage behavior under failure*, and raw `std::fs`
//! calls cannot be made to fail on demand. This module routes all
//! durable IO through two small traits:
//!
//! * [`JournalIo`] — opens, reads, and renames durable files, each
//!   tagged with its [`FileClass`] (journal / status / output);
//! * [`DurableFile`] — an open handle supporting `append` and `sync`.
//!
//! [`StdIo`] is the production implementation (real `write(2)` +
//! `fdatasync(2)` + `rename(2)`). [`FaultedIo`] wraps it with a
//! [`vfault::IoFaultPlan`]: short writes, write/fsync EIO, ENOSPC,
//! fsync *lies*, and rename failures, each keyed on `(file class,
//! op index)` so a fault schedule replays bit-exactly. `FaultedIo`
//! additionally tracks, per file, how many bytes the last *honest*
//! sync covered — [`FaultedIo::power_cut`] truncates every tracked
//! file to that durable prefix, simulating power loss with a lying or
//! failed write cache. That is what lets `vbench chaos` assert the
//! recovery invariants ("no fsync-acknowledged record lost") instead
//! of merely hoping for them.
//!
//! Transient-write retry rides here too: [`append_retrying`] retries
//! an append a bounded number of times with capped backoff when the
//! error looks transient (EIO-class), counting `journal.io_retries`.
//! Failed *syncs* are never retried: after a failed fsync the kernel
//! may have dropped the dirty pages, so a later Ok proves nothing
//! about the earlier bytes (the post-fsync-gate rule) — sync errors
//! abort the typed way instead.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use super::clock::Clock;
use crate::resilience::capped_backoff_secs;
use vfault::{FileClass, IoFaultKind, IoFaultPlan, IoOp};

/// Append retries allowed per record on transient write errors.
const MAX_APPEND_RETRIES: u32 = 3;
/// Backoff curve for append retries (base doubles per retry, capped).
const APPEND_BACKOFF_BASE_SECS: f64 = 0.005;
const APPEND_BACKOFF_CAP_SECS: f64 = 0.05;

/// An open durable file: appends and syncs, nothing else. Positioned
/// writes never happen in the durability stack — the journal is
/// append-only and atomic snapshots write whole temp files.
pub trait DurableFile: Send {
    /// Appends `bytes` at the end of the file (one `write` call — with
    /// the file in `O_APPEND` mode a whole-record append lands
    /// atomically, so concurrent appenders interleave records, never
    /// bytes).
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Syncs appended bytes to stable storage (`fdatasync`-class). An
    /// error here means *nothing since the last successful sync can be
    /// trusted* — callers must not retry and believe a later Ok.
    fn sync(&mut self) -> io::Result<()>;
}

/// The durable-IO operations the journal, ledger, and status layers
/// are built from. One implementation is real ([`StdIo`]); the other
/// injects scripted storage faults ([`FaultedIo`]).
pub trait JournalIo: Send + Sync {
    /// Creates (or truncates) a durable file of the given class.
    fn create(&self, class: FileClass, path: &Path) -> io::Result<Box<dyn DurableFile>>;

    /// Opens an existing file of the given class for appending.
    fn open_append(&self, class: FileClass, path: &Path) -> io::Result<Box<dyn DurableFile>>;

    /// Reads a durable file's full contents (what a resume scan or
    /// lease arbitration sees — page cache included, durable or not).
    fn read(&self, class: FileClass, path: &Path) -> io::Result<Vec<u8>>;

    /// Atomically replaces `to` with `from` (both of the given class).
    fn rename(&self, class: FileClass, from: &Path, to: &Path) -> io::Result<()>;

    /// Syncs the directory containing `path`, making preceding renames
    /// and creates in it durable. Not part of the faultable op stream:
    /// fault schedules key on file writes, syncs, and renames.
    fn sync_parent_dir(&self, path: &Path) -> io::Result<()>;
}

/// The production [`JournalIo`]: real filesystem calls, real syncs.
pub struct StdIo;

impl JournalIo for StdIo {
    fn create(&self, _class: FileClass, path: &Path) -> io::Result<Box<dyn DurableFile>> {
        Ok(Box::new(StdFile(File::create(path)?)))
    }

    fn open_append(&self, _class: FileClass, path: &Path) -> io::Result<Box<dyn DurableFile>> {
        Ok(Box::new(StdFile(OpenOptions::new().append(true).open(path)?)))
    }

    fn read(&self, _class: FileClass, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn rename(&self, _class: FileClass, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn sync_parent_dir(&self, path: &Path) -> io::Result<()> {
        let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
        let dir = parent.map_or_else(|| Path::new(".").to_path_buf(), Path::to_path_buf);
        File::open(dir)?.sync_all()
    }
}

struct StdFile(File);

impl DurableFile for StdFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.0.write_all(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
}

/// Per-file durability bookkeeping inside a [`FaultedIo`].
#[derive(Clone, Copy, Default)]
struct FileTrack {
    /// Bytes written through this layer (page-cache length).
    len: u64,
    /// Bytes covered by the last *honest* sync — what survives
    /// [`FaultedIo::power_cut`].
    durable_len: u64,
}

/// Shared mutable state of a [`FaultedIo`]: op counters (the fault
/// keys) and per-path durability tracking.
#[derive(Default)]
struct FaultedState {
    /// Monotonic op counters per `(class, op)` stream.
    counters: HashMap<(FileClass, IoOp), u64>,
    /// Durability tracking per path currently on disk.
    files: HashMap<PathBuf, FileTrack>,
    /// Faults injected so far (for reports and tests).
    injected: u64,
    /// Directory syncs requested (the fixed `write_atomic_io` must issue
    /// one per replace; tests assert it).
    dir_syncs: u64,
}

impl FaultedState {
    /// The next fault decision for one op on `class`, advancing that
    /// stream's counter.
    fn decide(&mut self, plan: &IoFaultPlan, class: FileClass, op: IoOp) -> Option<IoFaultKind> {
        let counter = self.counters.entry((class, op)).or_insert(0);
        let index = *counter;
        *counter += 1;
        let fault = plan.decide(class, op, index);
        self.injected += u64::from(fault.is_some());
        fault
    }
}

/// A [`JournalIo`] that injects the faults a seeded
/// [`vfault::IoFaultPlan`] scripts, while tracking which byte prefix
/// of every file an honest sync actually covered.
///
/// Writes really happen (so concurrent readers see them, like page
/// cache); syncs are *simulated* — an honest sync advances the file's
/// durable length, a lying one does not, and no real `fdatasync` runs
/// (chaos trials stay fast). [`FaultedIo::power_cut`] then truncates
/// every tracked file to its durable prefix: exactly the state a power
/// loss leaves when unsynced cache contents vanish.
pub struct FaultedIo {
    plan: IoFaultPlan,
    state: Arc<Mutex<FaultedState>>,
}

impl FaultedIo {
    /// A fault layer driven by `plan`.
    pub fn new(plan: IoFaultPlan) -> FaultedIo {
        FaultedIo { plan, state: Arc::new(Mutex::new(FaultedState::default())) }
    }

    /// Simulates power loss: every file written through this layer is
    /// truncated to the prefix its last honest sync covered. Files that
    /// were renamed keep the tracking of their source (rename moves
    /// bytes, not durability).
    pub fn power_cut(&self) -> io::Result<()> {
        let state = self.state.lock().expect("faulted io state");
        for (path, track) in &state.files {
            match OpenOptions::new().write(true).open(path) {
                Ok(file) => file.set_len(track.durable_len)?,
                // A tracked file later removed outside this layer has
                // nothing left to lose.
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.state.lock().expect("faulted io state").injected
    }

    /// Directory syncs issued so far (one per atomic replace when the
    /// caller follows the fsync-before-rename discipline).
    pub fn dir_syncs(&self) -> u64 {
        self.state.lock().expect("faulted io state").dir_syncs
    }

    fn decide(&self, class: FileClass, op: IoOp) -> Option<IoFaultKind> {
        self.state.lock().expect("faulted io state").decide(&self.plan, class, op)
    }

    /// A handle on `file` whose ops this layer faults and tracks.
    fn handle(&self, file: File, class: FileClass, path: &Path) -> Box<dyn DurableFile> {
        let (state, plan) = (Arc::clone(&self.state), self.plan.clone());
        Box::new(FaultedFile { file, class, path: path.to_path_buf(), state, plan })
    }

    fn track_open(&self, path: &Path, len: u64) {
        // Bytes already on disk at open are assumed durable: this layer
        // audits the IO of the run it is armed for, not history.
        let mut state = self.state.lock().expect("faulted io state");
        state.files.insert(path.to_path_buf(), FileTrack { len, durable_len: len });
    }
}

impl JournalIo for FaultedIo {
    fn create(&self, class: FileClass, path: &Path) -> io::Result<Box<dyn DurableFile>> {
        let file = File::create(path)?;
        self.track_open(path, 0);
        Ok(self.handle(file, class, path))
    }

    fn open_append(&self, class: FileClass, path: &Path) -> io::Result<Box<dyn DurableFile>> {
        let file = OpenOptions::new().append(true).open(path)?;
        let len = file.metadata()?.len();
        let mut state = self.state.lock().expect("faulted io state");
        // Keep existing tracking (the file may hold unsynced bytes from
        // an earlier handle of this same layer); only a first encounter
        // assumes the on-disk bytes durable.
        state.files.entry(path.to_path_buf()).or_insert(FileTrack { len, durable_len: len });
        drop(state);
        Ok(self.handle(file, class, path))
    }

    fn read(&self, _class: FileClass, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn rename(&self, class: FileClass, from: &Path, to: &Path) -> io::Result<()> {
        if self.decide(class, IoOp::Rename) == Some(IoFaultKind::RenameFail) {
            return Err(io::Error::other("injected rename failure"));
        }
        std::fs::rename(from, to)?;
        let mut state = self.state.lock().expect("faulted io state");
        if let Some(track) = state.files.remove(from) {
            state.files.insert(to.to_path_buf(), track);
        }
        Ok(())
    }

    fn sync_parent_dir(&self, _path: &Path) -> io::Result<()> {
        self.state.lock().expect("faulted io state").dir_syncs += 1;
        Ok(())
    }
}

/// One open handle of a [`FaultedIo`].
struct FaultedFile {
    file: File,
    class: FileClass,
    path: PathBuf,
    state: Arc<Mutex<FaultedState>>,
    plan: IoFaultPlan,
}

impl FaultedFile {
    fn decide(&self, op: IoOp) -> Option<IoFaultKind> {
        self.state.lock().expect("faulted io state").decide(&self.plan, self.class, op)
    }

    fn grow(&self, by: u64) {
        let mut state = self.state.lock().expect("faulted io state");
        state.files.entry(self.path.clone()).or_default().len += by;
    }
}

impl DurableFile for FaultedFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        match self.decide(IoOp::Write) {
            None => {
                self.file.write_all(bytes)?;
                self.grow(bytes.len() as u64);
                Ok(())
            }
            Some(IoFaultKind::ShortWrite) => {
                // A torn record: a prefix lands, the write errors.
                let torn = &bytes[..bytes.len() / 2];
                self.file.write_all(torn)?;
                self.grow(torn.len() as u64);
                Err(io::Error::new(io::ErrorKind::WriteZero, "injected short write"))
            }
            Some(IoFaultKind::WriteEio) => {
                // Transient EIO: nothing reached the file, retry-safe.
                Err(io::Error::other("injected write EIO"))
            }
            Some(IoFaultKind::Enospc) => {
                let torn = &bytes[..bytes.len() / 2];
                self.file.write_all(torn)?;
                self.grow(torn.len() as u64);
                Err(io::Error::new(io::ErrorKind::StorageFull, "injected ENOSPC"))
            }
            // Fsync/rename kinds cannot be scheduled on the write
            // stream (`IoFaultKind::op` binds them elsewhere).
            Some(other) => unreachable!("{other} scheduled on a write op"),
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        match self.decide(IoOp::Fsync) {
            None => {
                // Honest (simulated) sync: everything written so far on
                // this path becomes durable. No real fdatasync — the
                // durability model is the tracking, and trials stay
                // fast.
                let mut state = self.state.lock().expect("faulted io state");
                let track = state.files.entry(self.path.clone()).or_default();
                track.durable_len = track.len;
                Ok(())
            }
            Some(IoFaultKind::FsyncEio) => Err(io::Error::other("injected fsync EIO")),
            // The lie: report success, make nothing durable.
            Some(IoFaultKind::FsyncLie) => Ok(()),
            Some(other) => unreachable!("{other} scheduled on a fsync op"),
        }
    }
}

/// A temp-file sibling of `path` unique to this writer: the name
/// carries the pid and a process-global sequence number, so a crashed
/// or concurrent writer can never collide on a fixed `.tmp` name.
/// Always matched by [`remove_stale_temps`].
pub(crate) fn unique_temp(path: &Path) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let name = path.file_name().map(|n| n.to_string_lossy()).unwrap_or_default();
    path.with_file_name(format!("{name}.{}-{seq}.tmp", std::process::id()))
}

/// Removes leftover [`unique_temp`] siblings of `path` — temps a
/// crashed writer abandoned. Best-effort by design: a temp that cannot
/// be listed or removed only wastes disk, it can never be confused for
/// the real document (readers only ever open `path` itself).
pub(crate) fn remove_stale_temps(path: &Path) {
    let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else { return };
    let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
    let dir = parent.unwrap_or_else(|| Path::new("."));
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let prefix = format!("{name}.");
    for entry in entries.flatten() {
        let file = entry.file_name();
        let file = file.to_string_lossy();
        if file.starts_with(&prefix) && file.ends_with(".tmp") {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// Whether a failed append is worth retrying: EIO-class transients
/// (`Other`, `Interrupted`). Short writes (`WriteZero`) left partial
/// bytes behind and disk-full (`StorageFull`) will not clear on its
/// own — both abort the typed way.
fn transient_write_error(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::Other | io::ErrorKind::Interrupted)
}

/// Appends `bytes`, retrying transient write errors up to
/// `MAX_APPEND_RETRIES` times with capped exponential backoff (the
/// same curve the resilience layer uses for encode retries), waited on
/// `clock`. Counts each retry on the `journal.io_retries` vtrace
/// counter. Permanent errors — and every sync error, per the
/// module-level fsync-gate rule — propagate to the caller's typed abort
/// path.
pub fn append_retrying(
    file: &mut dyn DurableFile,
    bytes: &[u8],
    clock: &dyn Clock,
) -> io::Result<()> {
    let mut retry = 0u32;
    loop {
        match file.append(bytes) {
            Ok(()) => return Ok(()),
            Err(e) if retry < MAX_APPEND_RETRIES && transient_write_error(&e) => {
                retry += 1;
                vtrace::counter("journal.io_retries", 1);
                let backoff =
                    capped_backoff_secs(APPEND_BACKOFF_BASE_SECS, APPEND_BACKOFF_CAP_SECS, retry);
                clock.wait(std::time::Duration::from_secs_f64(backoff));
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::clock::WallClock;
    use vfault::IoFaultPlan;

    fn scratch(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("vbench-io-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn std_io_round_trips() {
        let path = scratch("std");
        let io = StdIo;
        let mut file = io.create(FileClass::Journal, &path).expect("create");
        file.append(b"hello\n").expect("append");
        file.sync().expect("sync");
        drop(file);
        let mut file = io.open_append(FileClass::Journal, &path).expect("open");
        file.append(b"world\n").expect("append");
        drop(file);
        assert_eq!(io.read(FileClass::Journal, &path).expect("read"), b"hello\nworld\n");
        io.sync_parent_dir(&path).expect("dir sync");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn power_cut_without_faults_keeps_synced_bytes_only() {
        let path = scratch("cut");
        let io = FaultedIo::new(IoFaultPlan::new());
        let mut file = io.create(FileClass::Journal, &path).expect("create");
        file.append(b"synced\n").expect("append");
        file.sync().expect("sync");
        file.append(b"unsynced\n").expect("append");
        drop(file);
        // Before the cut, readers see everything (page-cache view).
        assert_eq!(io.read(FileClass::Journal, &path).expect("read"), b"synced\nunsynced\n");
        io.power_cut().expect("power cut");
        assert_eq!(std::fs::read(&path).expect("read"), b"synced\n", "unsynced tail dropped");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fsync_lie_drops_acknowledged_bytes_at_power_cut() {
        let path = scratch("lie");
        let plan = IoFaultPlan::parse("lie=journal@0").expect("plan");
        let io = FaultedIo::new(plan);
        let mut file = io.create(FileClass::Journal, &path).expect("create");
        file.append(b"record-a\n").expect("append");
        file.sync().expect("the lie reports Ok");
        file.append(b"record-b\n").expect("append");
        file.sync().expect("honest second sync");
        drop(file);
        io.power_cut().expect("power cut");
        // The honest sync covered *everything* written before it —
        // including bytes a lie previously claimed durable.
        assert_eq!(std::fs::read(&path).expect("read"), b"record-a\nrecord-b\n");

        // Same schedule, but cut before any honest sync: the
        // acknowledged record vanishes entirely.
        let path2 = scratch("lie2");
        let io = FaultedIo::new(IoFaultPlan::parse("lie=journal@0").expect("plan"));
        let mut file = io.create(FileClass::Journal, &path2).expect("create");
        file.append(b"record-a\n").expect("append");
        file.sync().expect("the lie reports Ok");
        drop(file);
        io.power_cut().expect("power cut");
        assert_eq!(std::fs::read(&path2).expect("read"), b"", "lied-about bytes are gone");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&path2);
    }

    #[test]
    fn short_write_leaves_a_torn_prefix() {
        let path = scratch("short");
        let io = FaultedIo::new(IoFaultPlan::parse("short=journal@0").expect("plan"));
        let mut file = io.create(FileClass::Journal, &path).expect("create");
        let err = file.append(b"0123456789").expect_err("short write errors");
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert_eq!(std::fs::read(&path).expect("read"), b"01234", "half the record landed");
        assert_eq!(io.faults_injected(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn write_eio_writes_nothing_and_enospc_is_storage_full() {
        let path = scratch("eio");
        let io =
            FaultedIo::new(IoFaultPlan::parse("eio=journal@0,enospc=journal@1").expect("plan"));
        let mut file = io.create(FileClass::Journal, &path).expect("create");
        let eio = file.append(b"abcd").expect_err("EIO errors");
        assert_eq!(eio.kind(), io::ErrorKind::Other);
        assert_eq!(std::fs::read(&path).expect("read"), b"", "EIO wrote nothing");
        let full = file.append(b"abcd").expect_err("ENOSPC errors");
        assert_eq!(full.kind(), io::ErrorKind::StorageFull);
        assert_eq!(std::fs::read(&path).expect("read"), b"ab", "ENOSPC tore mid-record");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rename_fault_leaves_target_untouched_and_rename_moves_durability() {
        let dir = std::env::temp_dir();
        let from = dir.join(format!("vbench-io-ren-from-{}", std::process::id()));
        let to = dir.join(format!("vbench-io-ren-to-{}", std::process::id()));
        std::fs::write(&to, b"old").expect("seed target");
        let io = FaultedIo::new(IoFaultPlan::parse("rename-fail=status@0").expect("plan"));
        let mut file = io.create(FileClass::Status, &from).expect("create");
        file.append(b"new-doc").expect("append");
        file.sync().expect("sync");
        drop(file);
        let err = io.rename(FileClass::Status, &from, &to).expect_err("first rename faulted");
        assert!(err.to_string().contains("injected rename failure"));
        assert_eq!(std::fs::read(&to).expect("read"), b"old", "target untouched");
        // Second rename (op index 1) is clean; durability tracking
        // follows the bytes to the new name.
        io.rename(FileClass::Status, &from, &to).expect("second rename clean");
        io.power_cut().expect("power cut");
        assert_eq!(std::fs::read(&to).expect("read"), b"new-doc", "synced bytes survive");
        let _ = std::fs::remove_file(&to);
    }

    #[test]
    fn append_retrying_recovers_transient_eio_but_not_enospc() {
        let path = scratch("retry");
        let io = FaultedIo::new(IoFaultPlan::parse("eio=journal@0,eio=journal@1").expect("plan"));
        let mut file = io.create(FileClass::Journal, &path).expect("create");
        append_retrying(file.as_mut(), b"record\n", &WallClock).expect("retries past two EIOs");
        assert_eq!(std::fs::read(&path).expect("read"), b"record\n");

        let path2 = scratch("retry2");
        let io = FaultedIo::new(IoFaultPlan::parse("enospc=journal@0").expect("plan"));
        let mut file = io.create(FileClass::Journal, &path2).expect("create");
        let err = append_retrying(file.as_mut(), b"record\n", &WallClock)
            .expect_err("ENOSPC is permanent");
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);

        // Four EIOs in a row exhaust the budget (3 retries).
        let path3 = scratch("retry3");
        let io = FaultedIo::new(
            IoFaultPlan::parse("eio=journal@0,eio=journal@1,eio=journal@2,eio=journal@3")
                .expect("plan"),
        );
        let mut file = io.create(FileClass::Journal, &path3).expect("create");
        assert!(
            append_retrying(file.as_mut(), b"record\n", &WallClock).is_err(),
            "budget exhausted"
        );
        for p in [&path, &path2, &path3] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn op_counters_are_shared_across_handles_of_a_class() {
        let a = scratch("ctr-a");
        let b = scratch("ctr-b");
        let io = FaultedIo::new(IoFaultPlan::parse("eio=journal@1").expect("plan"));
        let mut fa = io.create(FileClass::Journal, &a).expect("create a");
        let mut fb = io.create(FileClass::Journal, &b).expect("create b");
        fa.append(b"x").expect("op 0 clean");
        assert!(fb.append(b"y").is_err(), "op 1 faulted, even on another handle");
        let _ = std::fs::remove_file(&a);
        let _ = std::fs::remove_file(&b);
    }

    /// On a virtual clock three transient EIOs back off exactly 5 + 10 +
    /// 20 ms of it before the fourth write lands.
    #[test]
    fn append_backoff_advances_the_clock_by_its_capped_curve() {
        let path = scratch("retry-clock");
        let plan = IoFaultPlan::parse("eio=journal@0,eio=journal@1,eio=journal@2").expect("plan");
        let mut file = FaultedIo::new(plan).create(FileClass::Journal, &path).expect("create");
        let clock = crate::exec::clock::VirtualClock::default();
        append_retrying(file.as_mut(), b"record\n", &clock).expect("the fourth write lands");
        assert_eq!(clock.now_us(), 35_000);
        assert_eq!(std::fs::read(&path).expect("read"), b"record\n");
        let _ = std::fs::remove_file(&path);
    }
}
