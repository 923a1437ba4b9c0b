//! Scratch space for journals and side files, inside the checkout.
//!
//! The benchmark reads and writes only under `benchmark/out/` of the
//! checkout it was built in (never `/dev/shm` or the system temp dir), so
//! a sandboxed driver sees no stray files. Syncs are elided in the timed
//! passes (see `io`), which is what keeps the host disk out of the numbers.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// `benchmark/out` of the checkout this binary was built from.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A per-use scratch directory, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `benchmark/out/scratch/<tag>-<pid>-<n>/`.
    pub fn create(tag: &str) -> std::io::Result<Scratch> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir().join("scratch").join(format!("{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a leftover scratch directory only wastes disk.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
