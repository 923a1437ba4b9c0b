//! vprof: trace analytics and a perf-regression harness for vbench.
//!
//! Answers the three questions raw `--trace-out` JSONL cannot: *where
//! did the time go* ([`analysis`] — critical path, Table-5-style
//! per-stage attribution, wait quantiles, per-process utilization, and
//! [`flame`] folded-stack export), *what is the farm doing right now*
//! (consumed by `vbench top`, which reads the journal directly), and
//! *did this change make us slower* ([`compare`] — two outputs of the
//! repo benchmark judged against the bounds in its `BENCHMARK.json`).
//!
//! Dependency-free by design: the only dependency is `vtrace`, reused
//! for its minimal JSON parser, so this crate stays usable in the same
//! offline environments the rest of the workspace targets. The library
//! never prints — every analysis returns data or renders to `String` —
//! and the `vprof` binary is a thin argv shell over it.

pub mod analysis;
pub mod compare;
pub mod flame;
pub mod model;
pub mod pareto;
pub mod sat;

pub use analysis::{
    critical_path, render_report, stage_breakdown, utilization, wait_breakdown, StageBreakdown,
};
pub use flame::folded_stacks;
pub use model::{HistStats, Span, Trace};
pub use pareto::{render_pareto, ParetoDoc, ParetoRow};
pub use sat::{render_sat, SatDoc, SatRow};
