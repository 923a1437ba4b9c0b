//! One time base per process, plus the wall-clock offset that lets worker
//! processes' events be laid on the parent's timeline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

static EPOCH: OnceLock<(Instant, u64)> = OnceLock::new();

fn epoch() -> &'static (Instant, u64) {
    EPOCH.get_or_init(|| {
        let unix_ns =
            SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_nanos() as u64).unwrap_or(0);
        (Instant::now(), unix_ns)
    })
}

/// Pins the epoch; call first thing in `main`.
pub fn init() {
    epoch();
}

/// Monotonic nanoseconds since this process's epoch.
pub fn now_ns() -> u64 {
    epoch().0.elapsed().as_nanos() as u64
}

/// Wall-clock nanoseconds (Unix) at this process's epoch. A worker's event
/// at `t` ns happened at `t + worker_epoch - parent_epoch` on the parent's
/// clock.
pub fn epoch_unix_ns() -> u64 {
    epoch().1
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Small dense id of the calling thread (0 = first thread that asked).
pub fn thread_id() -> u64 {
    THREAD.with(|t| *t)
}
