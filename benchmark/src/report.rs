//! The metric catalogue (names, units, direction, bounds — mirrored in
//! `BENCHMARK.json`, a unit test keeps the two equal) and the result line.

/// One metric definition.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// End-to-end metrics with the share of the parent's median by which each
/// may worsen. Same names on every workload.
pub const END_TO_END: [(Def, f64); 6] = [
    (def("jobs_per_s", "1/s", "higher"), 0.25),
    (def("resume_jobs_per_s", "1/s", "higher"), 0.25),
    (def("stored_bytes_per_job", "B", "lower"), 0.1),
    (def("storage_read_bytes_per_job", "B", "lower"), 0.1),
    (def("peak_rss_mb", "MB", "lower"), 0.15),
    (def("setup_s", "s", "lower"), 0.25),
];

/// Per-layer metrics of the traced run; layer = module name. No bounds.
pub const PER_LAYER: [Def; 61] = [
    def("vsynth.gen_mpix_per_s", "Mpix/s", "higher"),
    def("vframe.sad16_ns", "ns", "lower"),
    def("vframe.satd16_ns", "ns", "lower"),
    def("vframe.psnr_mpix_per_s", "Mpix/s", "higher"),
    def("vcodec.motion_share", "share", "lower"),
    def("vcodec.transform_quant_share", "share", "lower"),
    def("vcodec.entropy_share", "share", "lower"),
    def("vcodec.deblock_share", "share", "lower"),
    def("vcodec.other_share", "share", "lower"),
    def("vcodec.fdct8_ns", "ns", "lower"),
    def("vcodec.idct8_ns", "ns", "lower"),
    def("vcodec.quant8_ns", "ns", "lower"),
    def("vcodec.arith_bit_ns", "ns", "lower"),
    def("vcodec.coeff_block_vlc_ns", "ns", "lower"),
    def("vcodec.coeff_block_arith_ns", "ns", "lower"),
    def("vcodec.allocs_per_mb", "count", "lower"),
    def("vcodec.alloc_bytes_per_mb", "B", "lower"),
    def("vcodec.decode_mpix_per_s", "Mpix/s", "higher"),
    def("vpack.crc32_mib_per_s", "MiB/s", "higher"),
    def("engine.call_ms_p50", "ms", "lower"),
    def("engine.call_ms_p90", "ms", "lower"),
    def("engine.mpix_per_s", "Mpix/s", "higher"),
    def("engine.overhead_share", "share", "lower"),
    def("engine.psnr_db", "dB", "higher"),
    def("engine.bits_per_pixel", "bit", "lower"),
    def("exec.local.utilization", "share", "higher"),
    def("exec.local.gap_us_p50", "us", "lower"),
    def("exec.local.tail_idle_share", "share", "lower"),
    def("journal.record_us_per_job", "us", "lower"),
    def("journal.payload_ratio", "ratio", "lower"),
    def("journal.resume_us_per_job", "us", "lower"),
    def("journal.resume_reencodes", "count", "lower"),
    def("journal.fsync_us_p50_disk", "us", "lower"),
    def("exec.io.appends_per_job", "count", "lower"),
    def("exec.io.syncs_per_job", "count", "lower"),
    def("exec.io.read_calls_per_job", "count", "lower"),
    def("exec.io.read_bytes_per_job", "B", "lower"),
    def("exec.io.write_bytes_per_job", "B", "lower"),
    def("exec.io.append_us_p50", "us", "lower"),
    def("exec.io.sync_us_p50", "us", "lower"),
    def("exec.worker.gap_ms_p50", "ms", "lower"),
    def("exec.worker.gap_ms_p90", "ms", "lower"),
    def("exec.worker.lost_leases_per_job", "count", "lower"),
    def("exec.dispatch.startup_ms", "ms", "lower"),
    def("exec.dispatch.drain_ms", "ms", "lower"),
    def("exec.dispatch.call_ms_p50", "ms", "lower"),
    def("exec.worker.exit_ms_p50", "ms", "lower"),
    def("exec.dispatch.poll_read_bytes_per_s", "B/s", "lower"),
    def("exec.status.snapshot_ms", "ms", "lower"),
    def("proc.cpu_ms_per_job", "ms", "lower"),
    def("proc.parallel_efficiency", "share", "higher"),
    def("proc.allocs_per_job", "count", "lower"),
    def("bench.trace_overhead_share", "share", "lower"),
    def("bench.unattributed_share", "share", "lower"),
    def("bench.encode_layers_share", "share", "lower"),
    def("bench.journal_exec_share", "share", "lower"),
    def("bench.pass_iqr_share", "share", "lower"),
    def("bench.passes", "count", "higher"),
    def("bench.jobs_per_s_median", "1/s", "higher"),
    def("bench.resume_jobs_per_s_median", "1/s", "higher"),
    def("bench.setup_s_median", "s", "lower"),
];

/// Values measured by one run, by metric name.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// JSON number with all the digits the value has; non-finite values (which
/// the result line cannot carry) become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`, the metrics being every entry of
/// `defs` in catalogue order (0 for a metric the workload does not
/// exercise).
pub fn result_line<'a>(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: impl Iterator<Item = &'a Def>,
    values: &Values,
) -> String {
    let metrics: Vec<String> = defs
        .map(|d| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(values.get(d.name).unwrap_or(0.0)),
                d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use vtrace::json::{parse, Value};

    #[test]
    fn result_line_is_valid_json_with_exactly_the_contract_keys() {
        let mut values = Values::default();
        values.set("jobs_per_s", 12.345678901234);
        values.set("setup_s", 0.61);
        values.set("jobs_per_s", 13.5); // overwrite, not duplicate
        let line = result_line(true, 450, 0, END_TO_END.iter().map(|(d, _)| d), &values);
        let v = parse(&line).expect("valid JSON");
        assert!(matches!(v.get("correct"), Some(Value::Bool(true))));
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(450));
        assert_eq!(v.get("failed").and_then(Value::as_u64), Some(0));
        let metrics = v.get("metrics").expect("metrics object");
        for (d, _) in &END_TO_END {
            let m = metrics.get(d.name).unwrap_or_else(|| panic!("{} present", d.name));
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(d.unit));
            assert!(m.get("value").and_then(Value::as_f64).is_some());
        }
        let got = metrics.get("jobs_per_s").and_then(|m| m.get("value")).and_then(Value::as_f64);
        assert_eq!(got, Some(13.5));
        assert!(!line.contains('\n'));
        assert_eq!(json_number(f64::NAN), "0.0");
    }

    /// `BENCHMARK.json` at the repo root is the contract the driver reads;
    /// the catalogue above is what the binary prints. They must agree.
    #[test]
    fn benchmark_json_mirrors_the_catalogue() {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let array = |key: &str| match doc.get(key) {
            Some(Value::Array(items)) => items.clone(),
            other => panic!("{key} is an array, got {other:?}"),
        };
        let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).map(str::to_string);

        let e2e = array("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (item, (d, bound)) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(item, "name").as_deref(), Some(d.name));
            assert_eq!(text(item, "unit").as_deref(), Some(d.unit));
            assert_eq!(text(item, "better").as_deref(), Some(d.better));
            assert_eq!(item.get("bound").and_then(Value::as_f64), Some(*bound), "{}", d.name);
            assert!(*bound <= 0.25);
        }
        let layers = array("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (item, d) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text(item, "name").as_deref(), Some(d.name));
            assert_eq!(text(item, "unit").as_deref(), Some(d.unit));
            assert_eq!(text(item, "better").as_deref(), Some(d.better));
        }
        let workloads = array("workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (item, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(text(item, "name").as_deref(), Some(w.name()));
            assert_eq!(text(item, "why").as_deref(), Some(w.why()));
        }
        // Names are unique across both lists and fit the contract's limits.
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|(d, _)| d.name)
            .chain(PER_LAYER.iter().map(|d| d.name))
            .collect();
        assert!(names.iter().all(|n| n.len() <= 64));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
