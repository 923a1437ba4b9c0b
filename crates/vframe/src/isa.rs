//! Runtime ISA dispatch: one kernel body compiled once per vector rung,
//! with the rung picked by the CPU the process runs on.
//!
//! The workspace builds for the x86-64 baseline, whose widest vectors are
//! SSE2's 128 bits. [`multiversion!`] takes a function body and compiles
//! it three times — at that baseline, under the x86-64-v3 feature set
//! (AVX2) and under x86-64-v4 (AVX-512) — behind a wrapper that calls the
//! instantiation for [`active`]. The body is the same Rust, so every rung
//! performs the same integer and `f64` operations on the same values; the
//! baseline is the oracle the others are tested against bit for bit.
//! LLVM never contracts `a * b + c` into a fused multiply-add on its own,
//! so enabling `fma` changes no rounding.
//!
//! This module is the one place the workspace's dispatch `unsafe` lives:
//! a rung's instantiation may only run on a CPU with its features, and
//! the macro's dispatch calls it only when [`detected`] found them.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

/// A rung of the x86-64 vector ladder a [`multiversion!`] body is
/// compiled for.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Rung {
    /// The x86-64 baseline (128-bit SSE2), and the only rung on other
    /// architectures: the oracle.
    Sse2,
    /// x86-64-v3: AVX2 with BMI1/2, F16C, FMA, LZCNT and MOVBE.
    Avx2,
    /// x86-64-v4: v3 plus AVX-512 F, BW, CD, DQ and VL.
    Avx512,
}

impl Rung {
    /// Every rung, narrowest first.
    pub const ALL: [Rung; 3] = [Rung::Sse2, Rung::Avx2, Rung::Avx512];

    /// Lower-case name, as logged and printed beside measured speeds.
    pub fn name(self) -> &'static str {
        match self {
            Rung::Sse2 => "sse2",
            Rung::Avx2 => "avx2",
            Rung::Avx512 => "avx512",
        }
    }

    /// Whether this CPU can run the rung's instantiations.
    pub fn supported(self) -> bool {
        self <= detected()
    }

    fn from_u8(v: u8) -> Option<Rung> {
        Rung::ALL.get(usize::from(v)).copied()
    }
}

impl fmt::Display for Rung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Marks a cell that holds no rung yet.
const UNSET: u8 = u8::MAX;

/// The widest rung whose every feature this CPU reports, detected once
/// per process.
pub fn detected() -> Rung {
    // Relaxed: the byte publishes nothing else, and threads that race to
    // detect store the same value.
    static DETECTED: AtomicU8 = AtomicU8::new(UNSET);
    if let Some(rung) = Rung::from_u8(DETECTED.load(Ordering::Relaxed)) {
        return rung;
    }
    let rung = detect();
    DETECTED.store(rung as u8, Ordering::Relaxed);
    rung
}

/// The features each rung's instantiation enables, checked one by one.
/// Keep in step with the `enable` strings in [`multiversion!`].
#[cfg(target_arch = "x86_64")]
fn detect() -> Rung {
    use std::arch::is_x86_feature_detected as has;
    let v3 = has!("avx2")
        && has!("bmi1")
        && has!("bmi2")
        && has!("f16c")
        && has!("fma")
        && has!("lzcnt")
        && has!("movbe")
        && has!("popcnt");
    let v4 = has!("avx512f")
        && has!("avx512bw")
        && has!("avx512cd")
        && has!("avx512dq")
        && has!("avx512vl");
    match (v3, v4) {
        (true, true) => Rung::Avx512,
        (true, false) => Rung::Avx2,
        _ => Rung::Sse2,
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> Rung {
    Rung::Sse2
}

thread_local! {
    /// The rung this thread's dispatched calls take: [`detected`] unless a
    /// [`pinned`] call has lowered it.
    static ACTIVE: Cell<u8> = const { Cell::new(UNSET) };
}

/// The rung [`multiversion!`] wrappers dispatch to on this thread. Never
/// wider than [`detected`].
#[inline]
pub fn active() -> Rung {
    ACTIVE.with(|active| {
        Rung::from_u8(active.get()).unwrap_or_else(|| {
            let rung = detected();
            active.set(rung as u8);
            rung
        })
    })
}

/// Runs `f` with every dispatched call on this thread taking `rung`,
/// then restores the thread's previous rung. `None`, with `f` not run,
/// if this CPU lacks `rung`: nothing can run an instantiation wider than
/// [`detected`]. This is how the oracle tests compare rungs through the
/// public API; a process that never calls it runs at [`detected`].
pub fn pinned<R>(rung: Rung, f: impl FnOnce() -> R) -> Option<R> {
    if !rung.supported() {
        return None;
    }
    struct Restore(Rung);
    impl Drop for Restore {
        fn drop(&mut self) {
            ACTIVE.with(|active| active.set(self.0 as u8));
        }
    }
    let _restore = Restore(active());
    ACTIVE.with(|active| active.set(rung as u8));
    Some(f())
}

/// `f()` at [`Rung::Sse2`], after checking that every other rung this CPU
/// supports returns the same; for oracle tests, which then compare the
/// result with their own scalar oracle. A rung the CPU lacks is reported
/// once per `what` as an `isa: <what> skips <rung>` line written straight
/// to stderr, past the test harness's capture, so it shows in the test
/// output instead of passing silently.
///
/// # Panics
///
/// Panics if some rung's result differs from the baseline's.
pub fn same_at_every_rung<R: PartialEq + fmt::Debug>(what: &str, mut f: impl FnMut() -> R) -> R {
    let baseline = pinned(Rung::Sse2, &mut f).expect("the baseline runs everywhere");
    for rung in [Rung::Avx2, Rung::Avx512] {
        match pinned(rung, &mut f) {
            Some(got) => assert!(got == baseline, "{what} at {rung}: {got:?}, sse2: {baseline:?}"),
            None => report_skip(what, rung),
        }
    }
    baseline
}

fn report_skip(what: &str, rung: Rung) {
    use std::io::Write;
    use std::sync::Mutex;
    static REPORTED: Mutex<Vec<(String, Rung)>> = Mutex::new(Vec::new());
    let mut reported = REPORTED.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    if !reported.iter().any(|(w, r)| w == what && *r == rung) {
        reported.push((what.to_string(), rung));
        let line = format!("isa: {what} skips {rung}: this CPU lacks it\n");
        let _ = std::io::stderr().write_all(line.as_bytes());
    }
}

/// Defines a function whose body is compiled once per [`Rung`] and
/// dispatched on [`active`]:
///
/// ```
/// vframe::isa::multiversion! {
///     /// Sum of squares.
///     pub fn energy(xs: &[i32]) -> i64 {
///         xs.iter().map(|&x| i64::from(x) * i64::from(x)).sum()
///     }
/// }
/// assert_eq!(energy(&[3, 4]), 25);
/// ```
///
/// `up_to Avx2;` before the function caps the ladder for a kernel the
/// wider rung measured slower on. The function takes plain `name: Type`
/// arguments: no `self`, no generics. What the body calls is compiled
/// into the rung only where LLVM inlines it, so mark helpers
/// `#[inline]` or `#[inline(always)]`.
#[macro_export]
macro_rules! multiversion {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? $body:block
    ) => {
        $crate::multiversion! {
            up_to Avx512;
            $(#[$attr])* $vis fn $name($($arg: $ty),*) $(-> $ret)? $body
        }
    };
    (
        up_to $top:ident;
        $(#[$attr:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? $body:block
    ) => {
        $(#[$attr])*
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            #[inline(always)]
            fn baseline($($arg: $ty),*) $(-> $ret)? $body

            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2,bmi1,bmi2,f16c,fma,lzcnt,movbe,popcnt")]
                fn avx2($($arg: $ty),*) $(-> $ret)? {
                    baseline($($arg),*)
                }
                #[target_feature(enable = "avx2,bmi1,bmi2,f16c,fma,lzcnt,movbe,popcnt,avx512f,avx512bw,avx512cd,avx512dq,avx512vl")]
                fn avx512($($arg: $ty),*) $(-> $ret)? {
                    baseline($($arg),*)
                }
                match $crate::isa::active().min($crate::isa::Rung::$top) {
                    $crate::isa::Rung::Sse2 => {}
                    // SAFETY: `active` is never wider than `detected`, which
                    // returns Avx2 only if `is_x86_feature_detected!` reported
                    // every feature `avx2` enables on this CPU.
                    #[allow(unsafe_code)]
                    $crate::isa::Rung::Avx2 => return unsafe { avx2($($arg),*) },
                    // SAFETY: as above; Avx512 also needs every feature
                    // `avx512` enables detected.
                    #[allow(unsafe_code)]
                    $crate::isa::Rung::Avx512 => return unsafe { avx512($($arg),*) },
                }
            }
            baseline($($arg),*)
        }
    };
}

pub use crate::multiversion;

#[cfg(test)]
mod tests {
    use super::*;

    multiversion! {
        fn dot(a: &[i16], b: &[i16]) -> i64 {
            a.iter().zip(b).map(|(&x, &y)| i64::from(x) * i64::from(y)).sum()
        }
    }

    multiversion! {
        up_to Avx2;
        fn capped(xs: &[u32]) -> u32 {
            xs.iter().fold(0, |acc, &x| acc.rotate_left(5) ^ x)
        }
    }

    /// Prints the rung this CPU dispatches to; CI runs it with
    /// `--nocapture` so a green run says which rungs its goldens covered.
    #[test]
    fn report_detected_rung() {
        let supported: Vec<&str> =
            Rung::ALL.into_iter().filter(|r| r.supported()).map(Rung::name).collect();
        println!("isa: detected {} (runs {})", detected(), supported.join(", "));
        assert!(Rung::Sse2.supported());
        assert_eq!(active(), detected());
    }

    #[test]
    fn pinned_lowers_this_thread_only_and_restores() {
        let outer = active();
        let inner = pinned(Rung::Sse2, || {
            let other = std::thread::spawn(active).join().expect("no panic");
            assert_eq!(other, detected(), "another thread keeps its rung");
            active()
        });
        assert_eq!(inner, Some(Rung::Sse2));
        assert_eq!(active(), outer);
        for rung in Rung::ALL {
            assert_eq!(pinned(rung, active).is_some(), rung <= detected(), "{rung}");
        }
    }

    #[test]
    fn a_rung_that_differs_from_the_baseline_fails() {
        if !Rung::Avx2.supported() {
            report_skip("isa::same_at_every_rung", Rung::Avx2);
            return;
        }
        let caught = std::panic::catch_unwind(|| same_at_every_rung("isa::active", active));
        assert!(caught.is_err(), "a result that depends on the rung must fail the check");
    }

    #[test]
    fn every_rung_computes_the_baseline() {
        let a: Vec<i16> = (0..1000).map(|i| (i * 37 % 511 - 255) as i16).collect();
        let b: Vec<i16> = (0..1000).map(|i| (i * 91 % 4095) as i16).collect();
        let oracle: i64 = (0..1000).map(|i| i64::from(a[i]) * i64::from(b[i])).sum();
        assert_eq!(same_at_every_rung("isa::dot", || dot(&a, &b)), oracle);
        let xs: Vec<u32> = (0..300u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        same_at_every_rung("isa::capped", || capped(&xs));
    }
}
