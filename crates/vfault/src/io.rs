//! Deterministic storage-fault injection: the IO-level sibling of
//! [`FaultPlan`](crate::FaultPlan).
//!
//! Where a `FaultPlan` decides what happens to an *encode attempt*, an
//! [`IoFaultPlan`] decides what happens to a *durable IO operation* —
//! the appends, fsyncs, and renames the write-ahead journal and status
//! snapshots are built from. Each fault is keyed on `(file class,
//! op index)`, where the index counts operations of that kind on that
//! class since the plan was armed, so a schedule replays bit-exactly:
//! the same execution issues the same op stream and hits the same
//! faults, independent of wall-clock time or thread identity.
//!
//! The taxonomy mirrors what real disks and filesystems do to
//! checkpoint stacks:
//!
//! * **short write** — a write persists only a prefix (torn record);
//! * **write EIO** — a write fails cleanly, nothing reaches the file;
//! * **ENOSPC** — the volume fills mid-write: a prefix lands, then
//!   disk-full;
//! * **fsync EIO** — the sync fails and nothing new became durable
//!   (and, per the post-fsync-gate consensus, the caller must *not*
//!   retry the fsync and trust a later Ok);
//! * **fsync lie** — the sync reports Ok but made nothing durable
//!   (lying hardware / write-cache loss): bytes past the last *honest*
//!   sync are dropped at simulated power-cut;
//! * **rename failure** — the atomic-replace rename itself fails.
//!
//! ```
//! use vfault::{FileClass, IoFaultKind, IoFaultPlan, IoOp};
//!
//! let plan = IoFaultPlan::parse("short=journal@2, lie=journal@0").unwrap();
//! assert_eq!(plan.decide(FileClass::Journal, IoOp::Write, 2), Some(IoFaultKind::ShortWrite));
//! assert_eq!(plan.decide(FileClass::Journal, IoOp::Fsync, 0), Some(IoFaultKind::FsyncLie));
//! assert_eq!(plan.decide(FileClass::Journal, IoOp::Write, 3), None);
//! ```

use crate::{keyed_roll, spec_terms, PlanParseError};
use rand::Rng;

/// Which durable file a storage fault targets.
///
/// Faults are scoped by *role*, not by path: every journal (and its
/// compaction temp) is `Journal`, every atomic status/report snapshot is
/// `Status`, and encoded artifacts are `Output`. Paths vary per run and
/// per worker; roles are stable, which is what makes a schedule
/// replayable from its spec alone.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FileClass {
    /// The write-ahead journal and its lease ledger (one shared file).
    Journal,
    /// Atomic whole-document snapshots: `--status-out`, chaos reports.
    Status,
    /// Encoded output artifacts.
    Output,
}

impl FileClass {
    /// Display name ("journal", "status", "output").
    pub fn name(&self) -> &'static str {
        match self {
            FileClass::Journal => "journal",
            FileClass::Status => "status",
            FileClass::Output => "output",
        }
    }

    /// Parses a display name back into a class.
    pub fn parse(s: &str) -> Option<FileClass> {
        match s {
            "journal" => Some(FileClass::Journal),
            "status" => Some(FileClass::Status),
            "output" => Some(FileClass::Output),
            _ => None,
        }
    }

    fn id(&self) -> u64 {
        match self {
            FileClass::Journal => 0,
            FileClass::Status => 1,
            FileClass::Output => 2,
        }
    }
}

impl std::fmt::Display for FileClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The durable-IO operation a fault keys on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IoOp {
    /// An append of one record's bytes.
    Write,
    /// A sync of appended bytes to stable storage.
    Fsync,
    /// An atomic-replace rename (temp file over the real document).
    Rename,
}

impl IoOp {
    /// Display name ("write", "fsync", "rename").
    pub fn name(&self) -> &'static str {
        match self {
            IoOp::Write => "write",
            IoOp::Fsync => "fsync",
            IoOp::Rename => "rename",
        }
    }

    fn id(&self) -> u64 {
        match self {
            IoOp::Write => 0,
            IoOp::Fsync => 1,
            IoOp::Rename => 2,
        }
    }
}

impl std::fmt::Display for IoOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The kinds of storage fault a plan can inject. Each kind fires on
/// exactly one [`IoOp`] (see [`IoFaultKind::op`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IoFaultKind {
    /// The write persists only a prefix of the record, then errors — the
    /// torn-record case the journal's CRC + quarantine must absorb.
    ShortWrite,
    /// The write fails with EIO and nothing reaches the file — the
    /// transient class an append retry may recover from.
    WriteEio,
    /// The write lands a prefix, then the volume is full (`ENOSPC`) — a
    /// permanent error no retry can save.
    Enospc,
    /// The fsync fails with EIO; nothing new became durable. The caller
    /// must treat every byte since the last successful sync as lost.
    FsyncEio,
    /// The fsync *lies*: it reports Ok but made nothing durable. Bytes
    /// past the last honest sync are dropped at simulated power-cut.
    FsyncLie,
    /// The atomic-replace rename fails; the target document is untouched.
    RenameFail,
}

impl IoFaultKind {
    /// The operation this fault fires on.
    pub fn op(&self) -> IoOp {
        match self {
            IoFaultKind::ShortWrite | IoFaultKind::WriteEio | IoFaultKind::Enospc => IoOp::Write,
            IoFaultKind::FsyncEio | IoFaultKind::FsyncLie => IoOp::Fsync,
            IoFaultKind::RenameFail => IoOp::Rename,
        }
    }

    /// Display name, doubling as the spec-grammar key ("short", "eio",
    /// "enospc", "fsync-eio", "lie", "rename-fail").
    pub fn name(&self) -> &'static str {
        match self {
            IoFaultKind::ShortWrite => "short",
            IoFaultKind::WriteEio => "eio",
            IoFaultKind::Enospc => "enospc",
            IoFaultKind::FsyncEio => "fsync-eio",
            IoFaultKind::FsyncLie => "lie",
            IoFaultKind::RenameFail => "rename-fail",
        }
    }

    /// Parses a display name back into a kind.
    pub fn parse(s: &str) -> Option<IoFaultKind> {
        match s {
            "short" => Some(IoFaultKind::ShortWrite),
            "eio" => Some(IoFaultKind::WriteEio),
            "enospc" => Some(IoFaultKind::Enospc),
            "fsync-eio" => Some(IoFaultKind::FsyncEio),
            "lie" => Some(IoFaultKind::FsyncLie),
            "rename-fail" => Some(IoFaultKind::RenameFail),
            _ => None,
        }
    }
}

impl std::fmt::Display for IoFaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One scripted storage fault: `kind` fires on op number `index` of its
/// op stream on files of `class`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct IoFault {
    kind: IoFaultKind,
    class: FileClass,
    index: u64,
}

/// A deterministic storage-fault plan.
///
/// Combines explicitly scripted faults with an optional seeded random
/// layer. Decisions are a pure function of the plan and the
/// `(class, op, index)` key — see [`IoFaultKind`] for the fault
/// taxonomy and [`IoFaultPlan::parse`] for the spec grammar.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct IoFaultPlan {
    faults: Vec<IoFault>,
    seed: u64,
    rate: Option<f64>,
}

impl IoFaultPlan {
    /// An empty plan: every decision is a no-op.
    pub fn new() -> IoFaultPlan {
        IoFaultPlan::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty() && self.rate.is_none()
    }

    /// Scripts one fault: `kind` fires on op `index` of `class`.
    pub fn with_fault(mut self, kind: IoFaultKind, class: FileClass, index: u64) -> IoFaultPlan {
        self.faults.push(IoFault { kind, class, index });
        self
    }

    /// Adds a seeded random layer: each `(class, op, index)` key is
    /// independently faulted with probability `rate`, drawing uniformly
    /// among the kinds valid for that op.
    pub fn with_random(mut self, seed: u64, rate: f64) -> IoFaultPlan {
        self.seed = seed;
        self.rate = Some(rate);
        self
    }

    /// The fault to inject on op number `index` of the `(class, op)`
    /// stream, if any. Pure: depends only on the plan and the key, so a
    /// schedule replays bit-exactly. Scripted faults outrank the random
    /// layer.
    pub fn decide(&self, class: FileClass, op: IoOp, index: u64) -> Option<IoFaultKind> {
        if let Some(f) =
            self.faults.iter().find(|f| f.class == class && f.index == index && f.kind.op() == op)
        {
            return Some(f.kind);
        }
        let rate = self.rate?;
        let key = class.id() ^ op.id().rotate_left(8) ^ index.rotate_left(16);
        let mut rng = keyed_roll(self.seed, key, rate)?;
        Some(match op {
            IoOp::Write => match rng.gen_range(0..3u32) {
                0 => IoFaultKind::ShortWrite,
                1 => IoFaultKind::WriteEio,
                _ => IoFaultKind::Enospc,
            },
            IoOp::Fsync => match rng.gen_range(0..2u32) {
                0 => IoFaultKind::FsyncEio,
                _ => IoFaultKind::FsyncLie,
            },
            IoOp::Rename => IoFaultKind::RenameFail,
        })
    }

    /// Parses a plan from its CLI spec: comma-separated terms, the
    /// storage-level sibling of [`FaultPlan::parse`](crate::FaultPlan::parse).
    ///
    /// | term | meaning |
    /// |---|---|
    /// | `short=CLASS@N` | write op N on CLASS persists a torn prefix |
    /// | `eio=CLASS@N` | write op N on CLASS fails with EIO (nothing written) |
    /// | `enospc=CLASS@N` | write op N on CLASS hits disk-full mid-record |
    /// | `fsync-eio=CLASS@N` | fsync op N on CLASS fails (nothing became durable) |
    /// | `lie=CLASS@N` | fsync op N on CLASS reports Ok but syncs nothing |
    /// | `rename-fail=CLASS@N` | rename op N on CLASS fails |
    /// | `seed=N` | seed for the random layer |
    /// | `rate=F` | enable the random layer: fault each op with probability F |
    ///
    /// `CLASS` is `journal`, `status`, or `output`.
    pub fn parse(spec: &str) -> Result<IoFaultPlan, PlanParseError> {
        let mut plan = IoFaultPlan::new();
        let mut seed = 0u64;
        let mut rate: Option<f64> = None;
        for term in spec_terms(spec) {
            let (term, key, value) = term?;
            let bad = || PlanParseError { term: term.to_string() };
            match key {
                "seed" => seed = value.parse().map_err(|_| bad())?,
                "rate" => rate = Some(value.parse().map_err(|_| bad())?),
                _ => {
                    let kind = IoFaultKind::parse(key).ok_or_else(bad)?;
                    let (class, index) = value.split_once('@').ok_or_else(bad)?;
                    plan = plan.with_fault(
                        kind,
                        FileClass::parse(class).ok_or_else(bad)?,
                        index.parse().map_err(|_| bad())?,
                    );
                }
            }
        }
        if let Some(rate) = rate {
            plan = plan.with_random(seed, rate);
        }
        Ok(plan)
    }

    /// Serializes the plan back into the spec grammar [`parse`]
    /// understands: the tests' round-trip oracle for the parser.
    ///
    /// [`parse`]: IoFaultPlan::parse
    #[cfg(test)]
    pub fn to_spec(&self) -> String {
        let mut terms: Vec<String> =
            self.faults.iter().map(|f| format!("{}={}@{}", f.kind, f.class, f.index)).collect();
        if let Some(rate) = self.rate {
            terms.push(format!("seed={}", self.seed));
            terms.push(format!("rate={rate}"));
        }
        terms.join(",")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_a_no_op() {
        let plan = IoFaultPlan::new();
        assert!(plan.is_empty());
        for class in [FileClass::Journal, FileClass::Status, FileClass::Output] {
            for op in [IoOp::Write, IoOp::Fsync, IoOp::Rename] {
                for index in 0..4 {
                    assert_eq!(plan.decide(class, op, index), None);
                }
            }
        }
    }

    #[test]
    fn scripted_faults_key_on_class_and_index() {
        let plan = IoFaultPlan::new()
            .with_fault(IoFaultKind::ShortWrite, FileClass::Journal, 2)
            .with_fault(IoFaultKind::RenameFail, FileClass::Status, 0);
        assert_eq!(plan.decide(FileClass::Journal, IoOp::Write, 2), Some(IoFaultKind::ShortWrite));
        assert_eq!(plan.decide(FileClass::Journal, IoOp::Write, 1), None, "wrong index");
        assert_eq!(plan.decide(FileClass::Status, IoOp::Write, 2), None, "wrong class");
        assert_eq!(plan.decide(FileClass::Journal, IoOp::Fsync, 2), None, "wrong op");
        assert_eq!(plan.decide(FileClass::Status, IoOp::Rename, 0), Some(IoFaultKind::RenameFail));
    }

    #[test]
    fn fault_kinds_bind_to_their_ops() {
        for (kind, op) in [
            (IoFaultKind::ShortWrite, IoOp::Write),
            (IoFaultKind::WriteEio, IoOp::Write),
            (IoFaultKind::Enospc, IoOp::Write),
            (IoFaultKind::FsyncEio, IoOp::Fsync),
            (IoFaultKind::FsyncLie, IoOp::Fsync),
            (IoFaultKind::RenameFail, IoOp::Rename),
        ] {
            assert_eq!(kind.op(), op);
        }
    }

    #[test]
    fn random_layer_is_deterministic_and_order_free() {
        let plan = IoFaultPlan::new().with_random(42, 0.5);
        let forward: Vec<_> =
            (0..64).map(|i| plan.decide(FileClass::Journal, IoOp::Write, i)).collect();
        let backward: Vec<_> =
            (0..64).rev().map(|i| plan.decide(FileClass::Journal, IoOp::Write, i)).collect();
        let reversed: Vec<_> = backward.into_iter().rev().collect();
        assert_eq!(forward, reversed, "decisions must not depend on query order");
        let faulted = forward.iter().filter(|d| d.is_some()).count();
        assert!((16..=48).contains(&faulted), "faulted {faulted}/64 at rate 0.5");
        // Random faults respect the op they fire on.
        for i in 0..64 {
            if let Some(kind) = plan.decide(FileClass::Status, IoOp::Fsync, i) {
                assert_eq!(kind.op(), IoOp::Fsync);
            }
        }
    }

    #[test]
    fn random_layers_differ_across_seeds() {
        let a: Vec<_> = (0..64)
            .map(|i| {
                IoFaultPlan::new().with_random(1, 0.5).decide(FileClass::Journal, IoOp::Write, i)
            })
            .collect();
        let b: Vec<_> = (0..64)
            .map(|i| {
                IoFaultPlan::new().with_random(2, 0.5).decide(FileClass::Journal, IoOp::Write, i)
            })
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn scripted_faults_outrank_the_random_layer() {
        let plan = IoFaultPlan::new()
            .with_fault(IoFaultKind::Enospc, FileClass::Journal, 0)
            .with_random(7, 1.0);
        assert_eq!(plan.decide(FileClass::Journal, IoOp::Write, 0), Some(IoFaultKind::Enospc));
    }

    #[test]
    fn spec_round_trips() {
        let spec = "short=journal@2,eio=journal@5,enospc=status@1,fsync-eio=journal@0,\
                    lie=journal@3,rename-fail=status@0";
        let plan = IoFaultPlan::parse(spec).expect("valid spec");
        assert_eq!(IoFaultPlan::parse(&plan.to_spec()).expect("round trip"), plan);
        let random = IoFaultPlan::parse("seed=9,rate=0.25").expect("valid spec");
        assert!(!random.is_empty());
        assert_eq!(IoFaultPlan::parse(&random.to_spec()).expect("round trip"), random);
        assert_eq!(IoFaultPlan::parse("").expect("empty").to_spec(), "");
    }

    #[test]
    fn parse_rejects_malformed_terms() {
        for bad in [
            "short=journal",
            "short=tape@1",
            "short=journal@x",
            "bogus=journal@1",
            "rate=lots",
            "short",
        ] {
            assert!(IoFaultPlan::parse(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn names_round_trip() {
        for kind in [
            IoFaultKind::ShortWrite,
            IoFaultKind::WriteEio,
            IoFaultKind::Enospc,
            IoFaultKind::FsyncEio,
            IoFaultKind::FsyncLie,
            IoFaultKind::RenameFail,
        ] {
            assert_eq!(IoFaultKind::parse(kind.name()), Some(kind));
        }
        for class in [FileClass::Journal, FileClass::Status, FileClass::Output] {
            assert_eq!(FileClass::parse(class.name()), Some(class));
        }
        assert_eq!(IoFaultKind::parse("torn"), None);
        assert_eq!(FileClass::parse("tape"), None);
    }
}
