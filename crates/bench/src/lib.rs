//! Paper-experiment drivers for the vbench reproduction.
//!
//! [`experiments`] holds one driver per paper table/figure and the
//! `tablegen` binary prints them. See EXPERIMENTS.md at the workspace root
//! for a recorded full run and the paper-vs-measured comparison. The
//! repo's own speed is measured by `benchmark/`, not here.

#![warn(missing_docs)]

pub mod experiments;

pub use vbench::suite::Scale;
