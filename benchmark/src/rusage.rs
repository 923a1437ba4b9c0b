//! CPU seconds (`getrusage(2)`) and peak resident set (`VmHWM`) of this
//! process and of the children it has reaped.
//!
//! Peak RSS is *not* taken from `ru_maxrss`: that figure survives `exec`, so
//! a binary started by `cargo run` would report cargo's resident set, not
//! its own. `VmHWM` in `/proc/self/status` belongs to the current image.

/// CPU time and peak resident set of one `getrusage` scope.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Usage {
    /// User + system CPU seconds.
    pub cpu_secs: f64,
    /// Peak resident set size in MB (10^6 bytes).
    pub max_rss_mb: f64,
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark declares `struct rusage` for 64-bit Linux only");

mod sys {
    /// `struct timeval` on 64-bit Linux.
    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    pub struct Timeval {
        pub sec: i64,
        pub usec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    pub struct Rusage {
        pub utime: Timeval,
        pub stime: Timeval,
        /// `ru_maxrss` first (kilobytes), then the thirteen counters this
        /// benchmark does not read.
        pub longs: [i64; 14],
    }

    extern "C" {
        pub fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }

    pub const RUSAGE_SELF: i32 = 0;
    pub const RUSAGE_CHILDREN: i32 = -1;
}

fn read(who: i32) -> Usage {
    let mut ru = sys::Rusage::default();
    // SAFETY: `ru` is a valid, writable `struct rusage` with the 64-bit
    // Linux layout declared above (144 bytes: 2 timevals + 14 longs), and
    // `who` is one of the two constants the call defines.
    let rc = unsafe { sys::getrusage(who, &mut ru) };
    if rc != 0 {
        return Usage::default();
    }
    let secs = |t: sys::Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Usage {
        cpu_secs: secs(ru.utime) + secs(ru.stime),
        max_rss_mb: ru.longs[0] as f64 * 1024.0 / 1e6,
    }
}

/// This process, all threads.
pub fn own() -> Usage {
    read(sys::RUSAGE_SELF)
}

/// Every child this process has waited for (worker processes).
pub fn children() -> Usage {
    read(sys::RUSAGE_CHILDREN)
}

/// CPU seconds of this process plus its reaped children.
pub fn cpu_secs_total() -> f64 {
    own().cpu_secs + children().cpu_secs
}

/// Peak resident set of this process image in MB (10^6 bytes), from the
/// `VmHWM` line of `/proc/self/status`; falls back to `ru_maxrss` where
/// that file cannot be read.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_mb(&status).unwrap_or_else(|| own().max_rss_mb)
}

fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_usage_is_positive_and_monotonic() {
        let a = own();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i) * i);
        }
        std::hint::black_box(x);
        let b = own();
        assert!(a.max_rss_mb > 0.5, "a running process has a resident set");
        assert!(b.cpu_secs >= a.cpu_secs);
        assert!(b.max_rss_mb >= a.max_rss_mb);
        assert!(peak_rss_mb() > 0.5);
        assert_eq!(
            parse_vm_hwm_mb("Name:\tx\nVmHWM:\t   12345 kB\nVmRSS:\t 1 kB\n"),
            Some(12.64128)
        );
        assert_eq!(parse_vm_hwm_mb("VmRSS: 1 kB"), None);
    }
}
