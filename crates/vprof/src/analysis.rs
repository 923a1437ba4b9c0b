//! Trace analyses: critical path, per-stage time attribution, wait
//! breakdowns, and the per-process utilization timeline.
//!
//! Everything here is a pure function of a parsed [`Trace`] — the
//! analyses return data and render to `String`s; nothing prints, so
//! the library composes into tests and other tools.
//!
//! **Critical path.** The batch's wall clock is bounded by whatever
//! chain of work finished last. On the merged, rebased timebase that
//! chain is found by taking the latest-ending *leaf* span and walking
//! its parent links (within its process segment) back to a root: each
//! hop is annotated with how much of the bound it accounts for. This
//! is the classic longest-path reading of a fork/join trace collapsed
//! to the one path that actually mattered.
//!
//! **Stage attribution.** Verbose traces carry one span per encode
//! stage per frame (`vcodec.motion_search`, `vcodec.transform_quant`,
//! `vcodec.entropy_coding`, `vcodec.deblock`); summing their durations
//! reproduces the paper's Table-5-style per-stage breakdown. Summary
//! traces have no stage spans, so attribution degrades to the
//! `transcode` spans' `encode_secs` totals.

use std::collections::BTreeMap;

use crate::model::{HistStats, Span, Trace};

/// The encoder stage span names, in pipeline order.
pub const STAGE_SPANS: [&str; 4] =
    ["vcodec.motion_search", "vcodec.transform_quant", "vcodec.entropy_coding", "vcodec.deblock"];

/// The wait/latency histograms worth breaking down, in render order.
const WAIT_HISTOGRAMS: [&str; 4] =
    ["farm.queue_wait_us", "farm.backoff_wait_us", "journal.fsync_us", "frame.pull_wait_us"];

/// One hop of the critical path, leaf-ward.
#[derive(Clone, Debug)]
pub struct PathHop {
    /// Span name.
    pub name: String,
    /// Owning process pid (0 when the trace has no headers).
    pub pid: u64,
    /// Start on the merged timebase, µs.
    pub start_us: u64,
    /// Duration, µs.
    pub dur_us: u64,
}

/// Per-stage attribution totals.
#[derive(Clone, Debug, Default)]
pub struct StageBreakdown {
    /// Summed duration per stage span name, µs.
    pub stage_us: BTreeMap<String, u64>,
    /// Stage span counts (one per frame per stage in verbose traces).
    pub stage_counts: BTreeMap<String, u64>,
    /// Total `encode_secs` across `transcode` spans.
    pub encode_secs: f64,
    /// Number of `transcode` spans.
    pub transcodes: u64,
}

impl StageBreakdown {
    /// Sum of all stage durations, in seconds.
    pub fn stage_secs_total(&self) -> f64 {
        self.stage_us.values().sum::<u64>() as f64 / 1e6
    }
}

/// One process's utilization over the batch.
#[derive(Clone, Debug)]
pub struct ProcessUtilization {
    /// The process pid (from its segment header).
    pub pid: u64,
    /// Busy fraction per timeline bucket, 0.0..=1.0.
    pub buckets: Vec<f64>,
    /// Overall busy fraction across the trace's time range.
    pub busy: f64,
}

/// The coordinator spans that wrap work rather than being work.
const COORDINATOR_SPANS: [&str; 4] = ["exec.dispatch", "exec.worker", "farm.batch", "farm.worker"];

/// Computes the critical path: the chain of spans ending at whatever
/// *work* finished last, root first. The leaf is the latest-ending
/// `transcode` span when any exist (a batch's wall clock is bounded by
/// its last encode, not by the coordinator span that merely waits for
/// it), otherwise the latest-ending span overall. Parent links are
/// walked within the leaf's process segment; since encode threads root
/// their spans independently, the walk then prepends the tightest
/// coordinator span whose interval contains the chain — the
/// worker/dispatcher that was blocked on this work. Empty for a
/// spanless trace.
pub fn critical_path(trace: &Trace) -> Vec<PathHop> {
    let last_transcode = trace.spans_named("transcode").max_by_key(|s| (s.end_us(), s.id));
    let Some(leaf) =
        last_transcode.or_else(|| trace.spans.iter().max_by_key(|s| (s.end_us(), s.id)))
    else {
        return Vec::new();
    };
    // Parent links only resolve within the leaf's segment; build the
    // id→span map once over that segment.
    let by_id: BTreeMap<u64, &Span> =
        trace.spans.iter().filter(|s| s.segment == leaf.segment).map(|s| (s.id, s)).collect();
    let mut chain = vec![leaf];
    let mut cursor = leaf;
    while let Some(parent) = cursor.parent.and_then(|p| by_id.get(&p)) {
        chain.push(parent);
        cursor = parent;
    }
    let root = *chain.last().expect("chain is non-empty");
    if !COORDINATOR_SPANS.contains(&root.name.as_str()) {
        // The chain roots at a bare work span (cross-thread spans don't
        // parent-link); attribute it to the tightest enclosing
        // coordinator by time containment.
        let container = trace
            .spans
            .iter()
            .filter(|s| {
                s.segment == leaf.segment
                    && COORDINATOR_SPANS.contains(&s.name.as_str())
                    && s.start_us <= root.start_us
                    && s.end_us() >= root.end_us()
            })
            .min_by_key(|s| (s.dur_us, s.id));
        if let Some(container) = container {
            chain.push(container);
        }
    }
    chain.reverse();
    let pid = trace.headers.get(leaf.segment).map_or(0, |h| h.pid);
    chain
        .into_iter()
        .map(|s| PathHop { name: s.name.clone(), pid, start_us: s.start_us, dur_us: s.dur_us })
        .collect()
}

/// Computes the per-stage attribution (see module docs).
pub fn stage_breakdown(trace: &Trace) -> StageBreakdown {
    let mut out = StageBreakdown::default();
    for span in &trace.spans {
        if STAGE_SPANS.contains(&span.name.as_str()) {
            *out.stage_us.entry(span.name.clone()).or_insert(0) += span.dur_us;
            *out.stage_counts.entry(span.name.clone()).or_insert(0) += 1;
        } else if span.name == "transcode" {
            out.transcodes += 1;
            out.encode_secs += span.field_f64("encode_secs").unwrap_or(0.0);
        }
    }
    out
}

/// The wait histograms present in the trace, in render order.
pub fn wait_breakdown(trace: &Trace) -> Vec<(String, HistStats)> {
    WAIT_HISTOGRAMS
        .iter()
        .filter_map(|name| trace.histograms.get(*name).map(|h| (name.to_string(), *h)))
        .collect()
}

/// Per-process utilization over `buckets` timeline buckets: the busy
/// fraction is the overlap of the process's `transcode` spans with
/// each bucket (overlapping spans on different threads saturate at
/// 100% rather than double-count).
pub fn utilization(trace: &Trace, buckets: usize) -> Vec<ProcessUtilization> {
    let Some((t0, t1)) = trace.time_range() else { return Vec::new() };
    let width = (t1 - t0).max(1);
    let buckets = buckets.max(1);
    let mut out = Vec::new();
    let segments = trace.headers.len().max(1);
    for segment in 0..segments {
        // Busy intervals: transcode spans of this process, merged.
        let mut intervals: Vec<(u64, u64)> = trace
            .spans
            .iter()
            .filter(|s| s.segment == segment && s.name == "transcode")
            .map(|s| (s.start_us, s.end_us()))
            .collect();
        if intervals.is_empty() {
            continue;
        }
        intervals.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::new();
        for (start, end) in intervals {
            match merged.last_mut() {
                Some((_, last_end)) if start <= *last_end => *last_end = (*last_end).max(end),
                _ => merged.push((start, end)),
            }
        }
        let overlap = |lo: u64, hi: u64| -> u64 {
            merged.iter().map(|&(s, e)| e.min(hi).saturating_sub(s.max(lo))).sum()
        };
        let bucket_fracs: Vec<f64> = (0..buckets)
            .map(|i| {
                let lo = t0 + width * i as u64 / buckets as u64;
                let hi = t0 + width * (i as u64 + 1) / buckets as u64;
                if hi <= lo {
                    return 0.0;
                }
                overlap(lo, hi) as f64 / (hi - lo) as f64
            })
            .collect();
        out.push(ProcessUtilization {
            pid: trace.headers.get(segment).map_or(0, |h| h.pid),
            busy: overlap(t0, t1) as f64 / width as f64,
            buckets: bucket_fracs,
        });
    }
    out
}

/// Renders the full human-readable report: overview, critical path,
/// stage attribution, waits, utilization.
pub fn render_report(trace: &Trace) -> String {
    let mut out = String::new();
    let (t0, t1) = trace.time_range().unwrap_or((0, 0));
    out.push_str(&format!(
        "trace: {} process(es), {} spans, wall {:.3} s\n",
        trace.headers.len().max(1),
        trace.spans.len(),
        (t1 - t0) as f64 / 1e6,
    ));
    for key in ["exec.jobs_completed", "exec.leases_granted", "exec.leases_expired"] {
        if let Some(v) = trace.counters.get(key) {
            out.push_str(&format!("  {key} = {v}\n"));
        }
    }

    let path = critical_path(trace);
    if !path.is_empty() {
        out.push_str("\n── critical path (latest-ending chain) ──────────\n");
        for hop in &path {
            out.push_str(&format!(
                "  {:<28} pid {:<8} start {:>10} µs  dur {:>10} µs\n",
                hop.name, hop.pid, hop.start_us, hop.dur_us
            ));
        }
    }

    let stages = stage_breakdown(trace);
    out.push_str("\n── stage attribution ────────────────────────────\n");
    out.push_str(&format!(
        "  {} transcode span(s), {:.3} s encode time\n",
        stages.transcodes, stages.encode_secs
    ));
    if stages.stage_us.is_empty() {
        out.push_str("  (no per-stage spans — record with --log-level verbose)\n");
    } else {
        let total = stages.stage_secs_total().max(1e-12);
        for name in STAGE_SPANS {
            let Some(us) = stages.stage_us.get(name) else { continue };
            let secs = *us as f64 / 1e6;
            out.push_str(&format!(
                "  {:<24} {:>10.3} s  {:>5.1}%  ({} spans)\n",
                name,
                secs,
                100.0 * secs / total,
                stages.stage_counts.get(name).copied().unwrap_or(0),
            ));
        }
    }

    let waits = wait_breakdown(trace);
    if !waits.is_empty() {
        out.push_str("\n── waits & latencies (µs) ───────────────────────\n");
        for (name, h) in &waits {
            out.push_str(&format!(
                "  {:<24} count {:>7}  mean {:>9.1}  p50 {:>7}  p95 {:>7}  p99 {:>7}  max {:>7}\n",
                name, h.count, h.mean, h.p50, h.p95, h.p99, h.max
            ));
        }
    }

    let util = utilization(trace, 40);
    if !util.is_empty() {
        out.push_str("\n── per-process utilization (transcode busy) ─────\n");
        for u in &util {
            let bar: String = u
                .buckets
                .iter()
                .map(|f| match (f * 4.0).round() as u32 {
                    0 => ' ',
                    1 => '░',
                    2 => '▒',
                    3 => '▓',
                    _ => '█',
                })
                .collect();
            out.push_str(&format!("  pid {:<8} |{bar}| {:>5.1}%\n", u.pid, u.busy * 100.0));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> Trace {
        let text = "\
            {\"kind\":\"header\",\"version\":1,\"epoch_unix_us\":0,\"pid\":1}\n\
            {\"kind\":\"span\",\"id\":3,\"parent\":1,\"name\":\"vcodec.motion_search\",\
             \"thread\":0,\"start_us\":10,\"dur_us\":30,\"fields\":{}}\n\
            {\"kind\":\"span\",\"id\":4,\"parent\":1,\"name\":\"vcodec.deblock\",\
             \"thread\":0,\"start_us\":40,\"dur_us\":10,\"fields\":{}}\n\
            {\"kind\":\"span\",\"id\":1,\"parent\":2,\"name\":\"transcode\",\"thread\":0,\
             \"start_us\":0,\"dur_us\":100,\"fields\":{\"encode_secs\":0.0001}}\n\
            {\"kind\":\"span\",\"id\":2,\"parent\":null,\"name\":\"farm.batch\",\"thread\":0,\
             \"start_us\":0,\"dur_us\":120,\"fields\":{}}\n";
        Trace::parse(text).expect("parses")
    }

    #[test]
    fn critical_path_prefers_last_transcode() {
        let path = critical_path(&trace());
        let names: Vec<&str> = path.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(names, ["farm.batch", "transcode"]);
    }

    #[test]
    fn critical_path_attaches_unparented_work_to_its_coordinator() {
        // transcode roots itself (cross-thread, no parent link) but the
        // worker span's interval contains it.
        let text = "\
            {\"kind\":\"header\",\"version\":1,\"epoch_unix_us\":0,\"pid\":7}\n\
            {\"kind\":\"span\",\"id\":2,\"parent\":null,\"name\":\"transcode\",\"thread\":1,\
             \"start_us\":20,\"dur_us\":60,\"fields\":{}}\n\
            {\"kind\":\"span\",\"id\":1,\"parent\":null,\"name\":\"exec.worker\",\"thread\":0,\
             \"start_us\":0,\"dur_us\":100,\"fields\":{}}\n";
        let path = critical_path(&Trace::parse(text).expect("parses"));
        let names: Vec<&str> = path.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(names, ["exec.worker", "transcode"]);
    }

    #[test]
    fn critical_path_through_parents() {
        let text = "\
            {\"kind\":\"header\",\"version\":1,\"epoch_unix_us\":0,\"pid\":1}\n\
            {\"kind\":\"span\",\"id\":2,\"parent\":1,\"name\":\"transcode\",\"thread\":0,\
             \"start_us\":50,\"dur_us\":100,\"fields\":{}}\n\
            {\"kind\":\"span\",\"id\":1,\"parent\":null,\"name\":\"farm.batch\",\"thread\":0,\
             \"start_us\":0,\"dur_us\":120,\"fields\":{}}\n";
        let path = critical_path(&Trace::parse(text).expect("parses"));
        let names: Vec<&str> = path.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(names, ["farm.batch", "transcode"]);
    }

    #[test]
    fn stage_breakdown_sums_stage_spans() {
        let b = stage_breakdown(&trace());
        assert_eq!(b.stage_us["vcodec.motion_search"], 30);
        assert_eq!(b.stage_us["vcodec.deblock"], 10);
        assert_eq!(b.transcodes, 1);
        assert!((b.encode_secs - 0.0001).abs() < 1e-12);
        assert!(b.stage_secs_total() <= b.encode_secs + 1e-12);
    }

    #[test]
    fn utilization_reports_busy_fraction() {
        let util = utilization(&trace(), 4);
        assert_eq!(util.len(), 1);
        // transcode covers 100 of 120 µs.
        assert!((util[0].busy - 100.0 / 120.0).abs() < 1e-9, "{}", util[0].busy);
        assert_eq!(util[0].buckets.len(), 4);
    }

    #[test]
    fn report_renders_every_section() {
        let text = render_report(&trace());
        for needle in ["critical path", "stage attribution", "transcode span(s)"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }
}
