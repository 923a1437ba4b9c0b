//! Counting `#[global_allocator]`: allocations and bytes requested, seen
//! from outside the program.
//!
//! Counting is gated: while the gate is closed every allocation costs one
//! relaxed load of a read-mostly flag on top of the system allocator, so
//! the untraced run's throughput is not taxed by two threads bouncing a
//! shared counter line. [`counted`] opens the gate around one closure: the
//! single-thread encode probe and one extra, untimed pass of a traced run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The system allocator plus two gated counters.
pub struct CountingAlloc;

// Relaxed everywhere: these are statistics that publish no other data.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory
// being handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`/`layout` describe a live block of this allocator,
        // which is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` describe a live block of this allocator,
        // which is `System` underneath.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(allocations, bytes requested)` counted so far while the gate was open.
fn snapshot() -> (u64, u64) {
    (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

/// Runs `f` with the gate open and returns its result with the
/// `(allocations, bytes)` it made. The gate's previous state is restored.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let was = COUNTING.swap(true, Ordering::Relaxed);
    let (a0, b0) = snapshot();
    let out = f();
    let (a1, b1) = snapshot();
    COUNTING.store(was, Ordering::Relaxed);
    (out, a1 - a0, b1 - b0)
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test only: the gate and counters are process-global and cargo
    // runs tests of a binary on parallel threads.
    #[test]
    fn counts_only_while_the_gate_is_open() {
        let (v, allocs, bytes) = counted(|| {
            let v: Vec<u8> = Vec::with_capacity(4096);
            std::hint::black_box(v)
        });
        assert_eq!(v.capacity(), 4096);
        assert!(allocs >= 1, "the Vec allocation was counted");
        assert!(bytes >= 4096, "its bytes were counted");
        // Other tests may allocate concurrently while the gate is open, so
        // only the lower bounds above are exact; closed-gate silence is
        // checked through the flag itself.
        assert!(!COUNTING.load(Ordering::Relaxed), "gate restored");
    }
}
