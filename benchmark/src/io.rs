//! Counting/timing `JournalIo` wrapper over the library's `StdIo`.
//!
//! Every durable byte the journal, the lease ledger and the dispatcher
//! move goes through the library's `JournalIo` seam, so wrapping it from
//! outside counts operations and bytes exactly and, when tracing, times
//! each one. Syncs are *elided* (counted, not issued): the runs measure the
//! program, not the host's virtual disk, whose `fdatasync` would otherwise
//! be most of a null job's cost. The real-disk figure is probed once per
//! traced run, straight on `StdIo` (`journal.fsync_us_p50_disk`).

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use vbench::exec::{DurableFile, JournalIo, StdIo};
use vfault::FileClass;

use crate::clock;
use crate::record::{Kind, Recorder};

/// Index of each total in [`IoTotals`], and its name in a worker's side
/// file.
pub const CREATES: usize = 0;
pub const OPENS: usize = 1;
pub const APPENDS: usize = 2;
pub const APPEND_BYTES: usize = 3;
pub const SYNCS: usize = 4;
pub const READS: usize = 5;
pub const READ_BYTES: usize = 6;
pub const RENAMES: usize = 7;
pub const DIR_SYNCS: usize = 8;
const NAMES: [&str; 9] = [
    "creates",
    "opens",
    "appends",
    "append_bytes",
    "syncs",
    "reads",
    "read_bytes",
    "renames",
    "dir_syncs",
];

/// Operation and byte totals through the seam, indexed by the constants
/// above.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoTotals(pub [u64; 9]);

impl std::ops::Index<usize> for IoTotals {
    type Output = u64;
    fn index(&self, i: usize) -> &u64 {
        &self.0[i]
    }
}

impl IoTotals {
    /// Field-wise `self - earlier`.
    pub fn since(&self, earlier: &IoTotals) -> IoTotals {
        IoTotals(std::array::from_fn(|i| self.0[i] - earlier.0[i]))
    }

    /// Field-wise sum.
    pub fn plus(&self, other: &IoTotals) -> IoTotals {
        IoTotals(std::array::from_fn(|i| self.0[i] + other.0[i]))
    }

    /// `name=value` pairs for a worker's side file.
    pub fn fields(&self) -> String {
        let pairs: Vec<String> =
            NAMES.iter().zip(self.0).map(|(name, v)| format!("{name}={v}")).collect();
        pairs.join(" ")
    }

    /// Inverse of [`IoTotals::fields`]; unknown or malformed pairs are
    /// ignored.
    pub fn from_fields(text: &str) -> IoTotals {
        let mut t = IoTotals::default();
        for pair in text.split_whitespace() {
            let Some((name, value)) = pair.split_once('=') else { continue };
            if let (Some(i), Ok(v)) = (NAMES.iter().position(|n| *n == name), value.parse()) {
                t.0[i] = v;
            }
        }
        t
    }
}

/// Relaxed atomics throughout: statistics that publish no other data.
#[derive(Default)]
struct Counters {
    totals: [AtomicU64; 9],
    /// When the latest `job` record was appended (this process's clock);
    /// 0 before the first.
    last_job_ns: AtomicU64,
}

impl Counters {
    fn add(&self, i: usize, by: u64) {
        self.totals[i].fetch_add(by, Ordering::Relaxed);
    }
}

/// How every writer in the library starts a job record.
const JOB_RECORD: &[u8] = b"{\"kind\":\"job\"";

/// The counting wrapper. Cheap to share by reference across the batch's
/// threads; files it opens keep counting after it is borrowed elsewhere.
pub struct CountingIo {
    inner: StdIo,
    counters: Arc<Counters>,
    recorder: Arc<Recorder>,
}

impl CountingIo {
    pub fn new(recorder: Arc<Recorder>) -> CountingIo {
        CountingIo { inner: StdIo, counters: Arc::new(Counters::default()), recorder }
    }

    /// Totals so far.
    pub fn totals(&self) -> IoTotals {
        IoTotals(std::array::from_fn(|i| self.counters.totals[i].load(Ordering::Relaxed)))
    }

    /// When the latest `job` record went through the seam, on this
    /// process's clock; 0 if none did. A dispatch's useful work ends here:
    /// what follows is the workers' exit wait, not job throughput.
    pub fn last_job_ns(&self) -> u64 {
        self.counters.last_job_ns.load(Ordering::Relaxed)
    }

    fn wrap(&self, file: Box<dyn DurableFile>) -> Box<dyn DurableFile> {
        Box::new(CountingFile {
            inner: file,
            counters: Arc::clone(&self.counters),
            recorder: Arc::clone(&self.recorder),
        })
    }
}

impl JournalIo for CountingIo {
    fn create(&self, class: FileClass, path: &Path) -> io::Result<Box<dyn DurableFile>> {
        let t0 = self.recorder.start();
        let file = self.inner.create(class, path)?;
        self.counters.add(CREATES, 1);
        self.recorder.io(Kind::Create, t0, 0);
        Ok(self.wrap(file))
    }

    fn open_append(&self, class: FileClass, path: &Path) -> io::Result<Box<dyn DurableFile>> {
        let t0 = self.recorder.start();
        let file = self.inner.open_append(class, path)?;
        self.counters.add(OPENS, 1);
        self.recorder.io(Kind::OpenAppend, t0, 0);
        Ok(self.wrap(file))
    }

    fn read(&self, class: FileClass, path: &Path) -> io::Result<Vec<u8>> {
        let t0 = self.recorder.start();
        let bytes = self.inner.read(class, path)?;
        self.counters.add(READS, 1);
        self.counters.add(READ_BYTES, bytes.len() as u64);
        self.recorder.io(Kind::Read, t0, bytes.len() as u64);
        Ok(bytes)
    }

    fn rename(&self, class: FileClass, from: &Path, to: &Path) -> io::Result<()> {
        let t0 = self.recorder.start();
        self.inner.rename(class, from, to)?;
        self.counters.add(RENAMES, 1);
        self.recorder.io(Kind::Rename, t0, 0);
        Ok(())
    }

    /// Counted, not issued: what a memory-backed filesystem does.
    fn sync_parent_dir(&self, _path: &Path) -> io::Result<()> {
        let t0 = self.recorder.start();
        self.counters.add(DIR_SYNCS, 1);
        self.recorder.io(Kind::DirSync, t0, 0);
        Ok(())
    }
}

struct CountingFile {
    inner: Box<dyn DurableFile>,
    counters: Arc<Counters>,
    recorder: Arc<Recorder>,
}

impl DurableFile for CountingFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let t0 = self.recorder.start();
        self.inner.append(bytes)?;
        self.counters.add(APPENDS, 1);
        self.counters.add(APPEND_BYTES, bytes.len() as u64);
        if bytes.starts_with(JOB_RECORD) {
            self.counters.last_job_ns.fetch_max(clock::now_ns(), Ordering::Relaxed);
        }
        self.recorder.io(Kind::Append, t0, bytes.len() as u64);
        Ok(())
    }

    /// Counted, not issued.
    fn sync(&mut self) -> io::Result<()> {
        let t0 = self.recorder.start();
        self.counters.add(SYNCS, 1);
        self.recorder.io(Kind::Sync, t0, 0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::Scratch;

    #[test]
    fn counts_every_operation_and_byte() {
        let scratch = Scratch::create("io-count").expect("scratch dir");
        let path = scratch.path().join("j.jsonl");
        let recorder = Arc::new(Recorder::new(true));
        let io = CountingIo::new(Arc::clone(&recorder));

        let mut f = io.create(FileClass::Journal, &path).expect("create");
        f.append(b"hello\n").expect("append");
        f.sync().expect("sync");
        drop(f);
        let mut f = io.open_append(FileClass::Journal, &path).expect("open");
        f.append(b"world!\n").expect("append");
        f.sync().expect("sync");
        drop(f);
        let back = io.read(FileClass::Journal, &path).expect("read");
        assert_eq!(back, b"hello\nworld!\n");
        let moved = scratch.path().join("k.jsonl");
        io.rename(FileClass::Journal, &path, &moved).expect("rename");
        io.sync_parent_dir(&moved).expect("dir sync");

        // creates, opens, appends, append_bytes, syncs, reads, read_bytes,
        // renames, dir_syncs
        assert_eq!(io.totals(), IoTotals([1, 1, 2, 13, 2, 1, 13, 1, 1]));
        // Tracing recorded one interval per operation, each well-formed.
        let events = recorder.drain();
        assert_eq!(events.len(), 9);
        assert!(events.iter().all(|e| e.kind.is_io() && e.end_ns >= e.start_ns));
        assert_eq!(
            events.iter().filter(|e| e.kind == Kind::Append).map(|e| e.amount).sum::<u64>(),
            13
        );
    }

    #[test]
    fn totals_round_trip_through_side_file_fields() {
        let t = IoTotals([1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(IoTotals::from_fields(&t.fields()), t);
        assert_eq!(t.plus(&t).since(&t), t);
        assert_eq!(IoTotals::from_fields("junk reads=x syncs=2")[SYNCS], 2);
    }

    #[test]
    fn untraced_wrapper_records_no_intervals() {
        let scratch = Scratch::create("io-untraced").expect("scratch dir");
        let recorder = Arc::new(Recorder::new(false));
        let io = CountingIo::new(Arc::clone(&recorder));
        let mut f = io.create(FileClass::Journal, &scratch.path().join("j")).expect("create");
        f.append(b"x").expect("append");
        f.sync().expect("sync");
        assert_eq!(io.totals()[SYNCS], 1);
        assert!(recorder.drain().is_empty());
        // Only a job record moves the last-job mark, traced or not.
        assert_eq!(io.last_job_ns(), 0);
        let before = clock::now_ns();
        f.append(b"{\"kind\":\"job\",\"job\":0}\n").expect("append");
        let marked = io.last_job_ns();
        assert!(marked >= before && marked <= clock::now_ns());
        f.append(b"{\"kind\":\"hb\",\"worker\":0}\n").expect("append");
        assert_eq!(io.last_job_ns(), marked);
    }
}
