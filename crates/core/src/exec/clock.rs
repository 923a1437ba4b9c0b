//! The executor's one time source.
//!
//! Every timestamp and every wait in `exec/`, the resilience layer and
//! the service simulator goes through a [`Clock`]: claim instants and
//! the hedge threshold, the drain's queue-wait and busy timers, the
//! chain and append backoffs, the injected straggle, the worker's poll,
//! heartbeat wait and heartbeat stamp, and the dispatcher's poll,
//! heartbeat-stall timer, status stamps and report wall time. There are
//! two clocks:
//!
//! * [`WallClock`] — what every public entry point runs on: a bare
//!   [`Instant::now`] read, the system clock's Unix milliseconds, and a
//!   [`std::thread::park_timeout`] wait, so an `unpark` of the waiting
//!   thread ends the wait early (how a worker stops its heartbeat
//!   thread at once).
//! * [`VirtualClock`] — integer microseconds that never go backwards. A
//!   wait returns at once with the clock `timeout` later, so a test can
//!   run ten seconds of heartbeat silence, or a backoff curve, in no
//!   real time at all. The service simulator's event loop runs on it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime};

/// A source of time and of waits, shared by every thread of a batch.
pub trait Clock: Sync {
    /// Monotonic now.
    fn now(&self) -> Instant;

    /// Milliseconds since the Unix epoch: the stamp heartbeats and
    /// status snapshots carry.
    fn unix_ms(&self) -> u64;

    /// Waits `timeout`. On the wall clock an `unpark` of the calling
    /// thread ends the wait early; the virtual clock advances by
    /// `timeout` and returns at once.
    fn wait(&self, timeout: Duration);
}

/// The real clock: no lock and no shared write on any path.
pub struct WallClock;

impl Clock for WallClock {
    fn now(&self) -> Instant {
        Instant::now()
    }

    fn unix_ms(&self) -> u64 {
        SystemTime::now().duration_since(SystemTime::UNIX_EPOCH).map_or(0, |d| d.as_millis() as u64)
    }

    fn wait(&self, timeout: Duration) {
        std::thread::park_timeout(timeout);
    }
}

/// Monotonic virtual time in integer microseconds, starting at zero (the
/// Unix epoch, for [`Clock::unix_ms`]).
#[derive(Debug, Default)]
pub struct VirtualClock {
    now_us: AtomicU64,
}

impl VirtualClock {
    /// Current virtual time.
    pub fn now_us(&self) -> u64 {
        self.now_us.load(Ordering::Acquire)
    }

    /// Advances to `t_us`.
    ///
    /// # Panics
    ///
    /// Panics if time would move backwards — the event loop feeds this
    /// clock in sorted order by construction, so a violation is a
    /// scheduling bug, not a recoverable condition.
    pub fn advance_to(&mut self, t_us: u64) {
        // Invariant: events are processed in nondecreasing time order;
        // a backwards step means the completion heap and the arrival
        // stream disagree about ordering.
        let now_us = self.now_us.get_mut();
        assert!(t_us >= *now_us, "virtual clock moved backwards: {now_us} -> {t_us}");
        *now_us = t_us;
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Instant {
        // The instant that stands for virtual time zero, for every
        // virtual clock: only differences between readings mean anything.
        static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        *ORIGIN.get_or_init(Instant::now) + Duration::from_micros(self.now_us())
    }

    fn unix_ms(&self) -> u64 {
        self.now_us() / 1000
    }

    fn wait(&self, timeout: Duration) {
        self.now_us.fetch_add(timeout.as_micros() as u64, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A wait advances virtual time by exactly the timeout, truncated to
    /// whole microseconds, and every reading agrees with it.
    #[test]
    fn a_virtual_wait_advances_every_reading() {
        let clock = VirtualClock::default();
        let t0 = clock.now();
        clock.wait(Duration::from_millis(1500));
        clock.wait(Duration::from_nanos(2999));
        assert_eq!(clock.now_us(), 1_500_002);
        assert_eq!(clock.now() - t0, Duration::from_micros(1_500_002));
        assert_eq!(clock.unix_ms(), 1500);
    }

    /// The backoff curves are `f64` seconds: the ones the executor uses
    /// convert to whole microseconds without a rounding step.
    #[test]
    fn backoff_seconds_convert_exactly() {
        for (secs, us) in [(0.005, 5_000), (0.01, 10_000), (0.02, 20_000), (0.5, 500_000)] {
            let clock = VirtualClock::default();
            clock.wait(Duration::from_secs_f64(secs));
            assert_eq!(clock.now_us(), us, "{secs} s");
        }
    }
}
