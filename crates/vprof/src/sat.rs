//! The `SAT_<scenario>.json` saturation study: written by `vbench
//! saturate`, read back and rendered by `vprof sat`.
//!
//! The document is the service layer's replayable record of one load
//! sweep — admit/degrade/shed rates, queue occupancy, and sojourn-time
//! quantiles per offered load, plus the encode proof tying the virtual
//! sweep to real transcodes. It is written through `json::Object`: key
//! order is call order, floats are shortest round-trip, and no map
//! iteration order or locale can leak in. Byte-identical output across
//! worker counts and machines is an acceptance criterion, not a nicety —
//! CI diffs two independently produced reports with `cmp`. The reader
//! takes back exactly what the writer wrote, and [`SatReport::render`]
//! is the one table both `vbench saturate` and `vprof sat` print.

use vtrace::json::{self, Keys, Object, Value};

/// Report format version; bump on any schema change.
pub const SAT_VERSION: u32 = 1;

/// Deterministic proof that real transcodes backed a service run or a
/// plan: the deduplicated job mix, encoded once each, fingerprinted.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EncodeProof {
    /// Unique jobs encoded.
    pub unique_encodes: usize,
    /// CRC-32 over the per-job bitstream CRCs, in mix order — identical
    /// at any worker count by the farm's determinism contract.
    pub encode_crc32: u32,
    /// Total bitstream bytes produced.
    pub encoded_bytes: u64,
}

impl EncodeProof {
    /// The proof's three keys, appended to a document.
    pub(crate) fn write(self, doc: Object) -> Object {
        doc.field("unique_encodes", self.unique_encodes)
            .field("encode_crc32", self.encode_crc32)
            .field("encoded_bytes", self.encoded_bytes)
    }

    pub(crate) fn read(keys: &Keys) -> Result<EncodeProof, String> {
        Ok(EncodeProof {
            unique_encodes: keys.int("unique_encodes")?,
            encode_crc32: keys.int("encode_crc32")?,
            encoded_bytes: keys.int("encoded_bytes")?,
        })
    }

    /// The rendered tables' last line.
    pub(crate) fn render(self) -> String {
        format!(
            "encode proof: {} unique encodes  crc32 {}  {} bytes\n",
            self.unique_encodes, self.encode_crc32, self.encoded_bytes
        )
    }
}

/// Parses a single-line document and checks its `kind` and `version`.
pub(crate) fn read_document(text: &str, kind: &str, version: u32) -> Result<Value, String> {
    let name = kind.to_ascii_uppercase();
    let doc = json::parse(text.trim()).map_err(|e| format!("bad {name} JSON: {e}"))?;
    match doc.get("kind").and_then(Value::as_str) {
        Some(k) if k == kind => {}
        other => return Err(format!("not a {name} document (kind {other:?})")),
    }
    match doc.get("version").and_then(Value::as_u64) {
        Some(v) if v == u64::from(version) => Ok(doc),
        other => Err(format!("unsupported {name} version {other:?}")),
    }
}

/// One row of the saturation study: the virtual-time outcome at one
/// offered load, reduced to rates and quantiles.
#[derive(Clone, Debug, PartialEq)]
pub struct SatPoint {
    /// Mean offered arrival rate, jobs per virtual second.
    pub offered_load: f64,
    /// Arrivals offered inside the admission window.
    pub offered: u64,
    /// Arrivals admitted.
    pub admitted: u64,
    /// Admitted jobs that completed service.
    pub completed: u64,
    /// Jobs dispatched at a degraded preset.
    pub degraded: u64,
    /// Jobs shed (tail drop, low value, or infeasible).
    pub shed: u64,
    /// Late arrivals refused while draining.
    pub drained: u64,
    /// Live completions past their deadline.
    pub deadline_misses: u64,
    /// Queue high-water mark.
    pub queue_peak: usize,
    /// Median sojourn in virtual microseconds.
    pub sojourn_p50_us: u64,
    /// 95th-percentile sojourn.
    pub sojourn_p95_us: u64,
    /// 99th-percentile sojourn.
    pub sojourn_p99_us: u64,
    /// Sheds per offered job.
    pub shed_rate: f64,
    /// Admissions per offered job.
    pub admit_rate: f64,
    /// Degraded dispatches per offered job.
    pub degrade_rate: f64,
}

/// The full saturation report: configuration echo, encode proof, and
/// one [`SatPoint`] per swept load.
#[derive(Clone, Debug, PartialEq)]
pub struct SatReport {
    /// Scenario the sweep ran under.
    pub scenario: String,
    /// Virtual fleet size.
    pub capacity: usize,
    /// Class-queue bound.
    pub queue_depth: usize,
    /// Admission-window length in virtual seconds.
    pub duration_secs: f64,
    /// Arrival-process seed.
    pub seed: u64,
    /// Popular catalog size.
    pub catalog: u64,
    /// Real-encode fingerprint over the union admitted mix.
    pub proof: EncodeProof,
    /// Sweep rows, in the order the loads were given.
    pub points: Vec<SatPoint>,
}

impl SatReport {
    /// The maximum shed rate across the sweep (the QoS-gate input).
    pub fn max_shed_rate(&self) -> f64 {
        self.points.iter().map(|p| p.shed_rate).fold(0.0, f64::max)
    }

    /// The first swept load at which anything was shed — the measured
    /// saturation onset — or `None` if the whole sweep stayed clean.
    pub fn saturation_onset(&self) -> Option<f64> {
        self.points.iter().find(|p| p.shed > 0).map(|p| p.offered_load)
    }

    /// Serializes to the stable single-line JSON document (trailing
    /// newline included). Equal reports produce equal bytes.
    pub fn to_json(&self) -> String {
        let point = |p: &SatPoint| {
            Object::new()
                .field("offered_load", p.offered_load)
                .field("offered", p.offered)
                .field("admitted", p.admitted)
                .field("completed", p.completed)
                .field("degraded", p.degraded)
                .field("shed", p.shed)
                .field("drained", p.drained)
                .field("deadline_misses", p.deadline_misses)
                .field("queue_peak", p.queue_peak)
                .field("sojourn_p50_us", p.sojourn_p50_us)
                .field("sojourn_p95_us", p.sojourn_p95_us)
                .field("sojourn_p99_us", p.sojourn_p99_us)
                .field("shed_rate", p.shed_rate)
                .field("admit_rate", p.admit_rate)
                .field("degrade_rate", p.degrade_rate)
        };
        let head = Object::new()
            .field("kind", "sat")
            .field("version", SAT_VERSION)
            .field("scenario", &self.scenario)
            .field("capacity", self.capacity)
            .field("queue_depth", self.queue_depth)
            .field("duration_secs", self.duration_secs)
            .field("seed", self.seed)
            .field("catalog", self.catalog);
        self.proof
            .write(head)
            .field("points", self.points.iter().map(point).collect::<Vec<_>>())
            .close()
            + "\n"
    }

    /// Parses the document [`SatReport::to_json`] writes. Kind and
    /// version are checked, and every key is required, so a truncated
    /// document cannot masquerade as a quiet sweep.
    ///
    /// # Errors
    ///
    /// Invalid JSON, another kind or version, or the first missing or
    /// mistyped key.
    pub fn parse(text: &str) -> Result<SatReport, String> {
        let doc = read_document(text, "sat", SAT_VERSION)?;
        let keys = Keys { what: "SAT", value: &doc };
        let point = |value| -> Result<SatPoint, String> {
            let keys = Keys { what: "SAT point", value };
            Ok(SatPoint {
                offered_load: keys.float("offered_load")?,
                offered: keys.int("offered")?,
                admitted: keys.int("admitted")?,
                completed: keys.int("completed")?,
                degraded: keys.int("degraded")?,
                shed: keys.int("shed")?,
                drained: keys.int("drained")?,
                deadline_misses: keys.int("deadline_misses")?,
                queue_peak: keys.int("queue_peak")?,
                sojourn_p50_us: keys.int("sojourn_p50_us")?,
                sojourn_p95_us: keys.int("sojourn_p95_us")?,
                sojourn_p99_us: keys.int("sojourn_p99_us")?,
                shed_rate: keys.float("shed_rate")?,
                admit_rate: keys.float("admit_rate")?,
                degrade_rate: keys.float("degrade_rate")?,
            })
        };
        Ok(SatReport {
            scenario: keys.text("scenario")?.to_string(),
            capacity: keys.int("capacity")?,
            queue_depth: keys.int("queue_depth")?,
            duration_secs: keys.float("duration_secs")?,
            seed: keys.int("seed")?,
            catalog: keys.int("catalog")?,
            proof: EncodeProof::read(&keys)?,
            points: keys.array("points")?.iter().map(point).collect::<Result<_, String>>()?,
        })
    }

    /// Renders the operator's table: one row per swept load with rates as
    /// percentages, a `*` marking rows that shed (at or past saturation),
    /// and the encode proof in the footer. Everything in it is
    /// virtual-time derived or a deterministic fingerprint, so equal
    /// reports render to equal strings at any worker count.
    pub fn render(&self) -> String {
        let mut out = format!(
            "saturation study: {}  capacity {}  queue-depth {}  duration {}s  seed {}  catalog {}\n",
            self.scenario,
            self.capacity,
            self.queue_depth,
            self.duration_secs,
            self.seed,
            self.catalog
        );
        out.push_str(&format!(
            "{:>10}  {:>7} {:>8} {:>9} {:>8} {:>6} {:>7} {:>6} {:>6}  {:>7} {:>7} {:>7}  {:>24}\n",
            "load/s",
            "offered",
            "admitted",
            "completed",
            "degraded",
            "shed",
            "drained",
            "misses",
            "qpeak",
            "admit%",
            "degr%",
            "shed%",
            "sojourn p50/p95/p99 (us)"
        ));
        for p in &self.points {
            let marker = if p.shed > 0 { '*' } else { ' ' };
            out.push_str(&format!(
                "{:>9.3}{marker}  {:>7} {:>8} {:>9} {:>8} {:>6} {:>7} {:>6} {:>6}  {:>7.2} {:>7.2} \
                 {:>7.2}  {:>24}\n",
                p.offered_load,
                p.offered,
                p.admitted,
                p.completed,
                p.degraded,
                p.shed,
                p.drained,
                p.deadline_misses,
                p.queue_peak,
                p.admit_rate * 100.0,
                p.degrade_rate * 100.0,
                p.shed_rate * 100.0,
                format!("{}/{}/{}", p.sojourn_p50_us, p.sojourn_p95_us, p.sojourn_p99_us),
            ));
        }
        match self.saturation_onset() {
            Some(load) => {
                out.push_str(&format!("saturation onset: first sheds at load {load}/s\n"))
            }
            None => out.push_str("saturation onset: none (no sheds across the sweep)\n"),
        }
        out + &self.proof.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(offered_load: f64, shed: u64) -> SatPoint {
        SatPoint {
            offered_load,
            offered: 48,
            admitted: 48 - shed,
            completed: 40,
            degraded: 3,
            shed,
            drained: 2,
            deadline_misses: 0,
            queue_peak: 8,
            sojourn_p50_us: 100,
            sojourn_p95_us: 200,
            sojourn_p99_us: 300,
            shed_rate: shed as f64 / 48.0,
            admit_rate: (48 - shed) as f64 / 48.0,
            degrade_rate: 0.1 + 0.2,
        }
    }

    fn report() -> SatReport {
        SatReport {
            scenario: "popular".to_string(),
            capacity: 2,
            queue_depth: 8,
            duration_secs: 10.0,
            seed: 7,
            catalog: 1000,
            proof: EncodeProof { unique_encodes: 3, encode_crc32: 57005, encoded_bytes: 999 },
            points: vec![point(5.0, 0), point(50.0, 8)],
        }
    }

    /// What the writer writes, the reader takes back unchanged: escaped
    /// scenario names, an empty sweep, the largest seed the document
    /// holds exactly (2^53), and floats that need every digit.
    #[test]
    fn parse_reads_back_what_to_json_writes() {
        let mut odd = report();
        odd.scenario = "a\"b\\c".to_string();
        odd.seed = 1 << 53;
        odd.duration_secs = 1.0 / 3.0;
        let empty = SatReport { points: Vec::new(), ..report() };
        for r in [report(), odd, empty] {
            assert_eq!(SatReport::parse(&r.to_json()), Ok(r));
        }
    }

    #[test]
    fn render_marks_the_shedding_rows_and_is_deterministic() {
        let r = report();
        let table = r.render();
        assert_eq!(table, r.render(), "render must be deterministic");
        assert!(table.contains("50.000*"), "shedding row is starred: {table}");
        assert!(table.contains("5.000 "), "clean row is not starred");
        assert!(table.contains("saturation onset: first sheds at load 50/s"));
        assert!(table.contains("3 unique encodes"));
    }

    #[test]
    fn wrong_kind_version_and_truncation_are_parse_errors() {
        assert!(SatReport::parse("{\"kind\":\"bench\",\"version\":1}").is_err());
        assert!(SatReport::parse("{\"kind\":\"sat\",\"version\":99}").is_err());
        let json = report().to_json();
        let truncated = json.replace(",\"points\":[", ",\"npoints\":[");
        assert!(SatReport::parse(&truncated).is_err(), "missing points must not parse");
        let holed = json.replace("\"shed\":8,", "");
        assert!(SatReport::parse(&holed).is_err(), "a point missing a field must not parse");
        let past = json.replace("\"seed\":7,", "\"seed\":9007199254740994,");
        assert!(SatReport::parse(&past).expect_err("seed").contains("\"seed\""));
    }

    #[test]
    fn a_clean_sweep_reports_no_onset() {
        let mut clean = report();
        clean.points[1].shed = 0;
        assert_eq!(clean.saturation_onset(), None);
        assert!(clean.render().contains("saturation onset: none"));
    }
}
