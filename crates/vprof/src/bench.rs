//! The perf-trajectory schema: `BENCH_<name>.json` documents written
//! by `vbench bench`, compared by `vprof compare`.
//!
//! A document is schema-versioned and self-describing: per-scenario
//! mean/min/max stats over N runs plus an environment fingerprint, so
//! a comparison can tell "slower code" from "different machine".
//!
//! ```json
//! {"version":1,"name":"tiny","runs":3,
//!  "env":{"os":"linux","arch":"x86_64","cpus":8},
//!  "scenarios":[
//!    {"name":"house",
//!     "encode_secs":{"mean":0.012,"min":0.011,"max":0.013},
//!     "speed_pps":{"mean":9.1e6,"min":8.8e6,"max":9.4e6},
//!     "quality_db":{"mean":41.2,"min":41.2,"max":41.2},
//!     "bitrate_bpps":{"mean":0.11,"min":0.11,"max":0.11}}]}
//! ```
//!
//! **Noise-aware thresholds.** Wall-clock metrics jitter run to run,
//! so the regression test compares the *best* new observation against
//! the old mean inflated by both a relative margin and the old run's
//! own observed spread: `new.min > old.mean·(1+pct/100) + (old.max −
//! old.min)` flags an encode-time regression. A genuinely slower build
//! clears that bar on every run; a noisy scheduler blip does not.
//! Quality is deterministic in this codebase, so it gets an absolute
//! dB threshold with no spread allowance.

use std::collections::BTreeMap;

use vtrace::json::{self, Value};

/// Schema version of the BENCH document.
pub const BENCH_VERSION: u32 = 1;

/// Mean/min/max over a metric's per-run samples.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Stats {
    pub mean: f64,
    pub min: f64,
    pub max: f64,
}

impl Stats {
    /// Stats over one metric's samples; `None` when empty.
    pub fn from_samples(samples: &[f64]) -> Option<Stats> {
        let first = *samples.first()?;
        let mut s = Stats { mean: 0.0, min: first, max: first };
        for &v in samples {
            s.mean += v;
            s.min = s.min.min(v);
            s.max = s.max.max(v);
        }
        s.mean /= samples.len() as f64;
        Some(s)
    }

    /// Observed spread, the noise allowance in comparisons.
    pub fn spread(&self) -> f64 {
        self.max - self.min
    }
}

/// One scenario's metrics.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScenarioStats {
    /// Encode seconds per run (lower is better).
    pub encode_secs: Stats,
    /// Pixel throughput per run (higher is better).
    pub speed_pps: Stats,
    /// Quality in dB (higher is better; deterministic).
    pub quality_db: Stats,
    /// Bits per pixel per second (informational).
    pub bitrate_bpps: Stats,
}

/// The machine the document was measured on.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EnvFingerprint {
    pub os: String,
    pub arch: String,
    pub cpus: u64,
}

impl EnvFingerprint {
    /// The current process's environment.
    pub fn current() -> EnvFingerprint {
        EnvFingerprint {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cpus: std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(1),
        }
    }
}

/// A full BENCH document.
#[derive(Clone, Debug, Default)]
pub struct BenchDoc {
    /// Workload name (the `<name>` in `BENCH_<name>.json`).
    pub name: String,
    /// Runs each scenario was measured over.
    pub runs: u32,
    /// Where it was measured.
    pub env: EnvFingerprint,
    /// Per-scenario stats, keyed by scenario name.
    pub scenarios: BTreeMap<String, ScenarioStats>,
}

/// One confirmed regression (or comparison blocker).
#[derive(Clone, Debug)]
pub struct Finding {
    /// Scenario the finding is about (empty for document-level).
    pub scenario: String,
    /// Human-readable description.
    pub detail: String,
}

/// Comparison thresholds.
#[derive(Clone, Copy, Debug)]
pub struct CompareOptions {
    /// Relative margin (percent) on top of the old mean for wall-clock
    /// metrics.
    pub threshold_pct: f64,
    /// Absolute quality-drop threshold in dB.
    pub quality_db: f64,
}

impl Default for CompareOptions {
    fn default() -> CompareOptions {
        CompareOptions { threshold_pct: 25.0, quality_db: 0.25 }
    }
}

impl BenchDoc {
    /// Serializes the document (one line, schema above).
    pub fn to_json(&self) -> String {
        let stats = |s: &Stats| {
            format!(
                "{{\"mean\":{},\"min\":{},\"max\":{}}}",
                json::number(s.mean),
                json::number(s.min),
                json::number(s.max)
            )
        };
        let mut out = format!(
            "{{\"version\":{BENCH_VERSION},\"name\":{},\"runs\":{},\
             \"env\":{{\"os\":{},\"arch\":{},\"cpus\":{}}},\"scenarios\":[",
            json::string(&self.name),
            self.runs,
            json::string(&self.env.os),
            json::string(&self.env.arch),
            self.env.cpus,
        );
        for (i, (name, s)) in self.scenarios.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"encode_secs\":{},\"speed_pps\":{},\"quality_db\":{},\
                 \"bitrate_bpps\":{}}}",
                json::string(name),
                stats(&s.encode_secs),
                stats(&s.speed_pps),
                stats(&s.quality_db),
                stats(&s.bitrate_bpps),
            ));
        }
        out.push_str("]}");
        out
    }

    /// Parses a BENCH document.
    ///
    /// # Errors
    ///
    /// A description of the first structural problem (bad JSON, wrong
    /// version, missing keys).
    pub fn parse(text: &str) -> Result<BenchDoc, String> {
        let v = json::parse(text.trim()).map_err(|e| e.to_string())?;
        let version = v.get("version").and_then(Value::as_u64).ok_or("missing version")?;
        if version != u64::from(BENCH_VERSION) {
            return Err(format!("unsupported BENCH version {version} (expected {BENCH_VERSION})"));
        }
        let stats = |obj: &Value, key: &str| -> Result<Stats, String> {
            let s = obj.get(key).ok_or_else(|| format!("scenario missing {key}"))?;
            let f = |k: &str| {
                s.get(k).and_then(Value::as_f64).ok_or_else(|| format!("{key}.{k} not numeric"))
            };
            Ok(Stats { mean: f("mean")?, min: f("min")?, max: f("max")? })
        };
        let mut doc = BenchDoc {
            name: v.get("name").and_then(Value::as_str).unwrap_or_default().to_string(),
            runs: v.get("runs").and_then(Value::as_u64).unwrap_or(0) as u32,
            env: EnvFingerprint {
                os: v
                    .get("env")
                    .and_then(|e| e.get("os"))
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string(),
                arch: v
                    .get("env")
                    .and_then(|e| e.get("arch"))
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string(),
                cpus: v.get("env").and_then(|e| e.get("cpus")).and_then(Value::as_u64).unwrap_or(0),
            },
            scenarios: BTreeMap::new(),
        };
        let Some(Value::Array(scenarios)) = v.get("scenarios") else {
            return Err("missing scenarios array".to_string());
        };
        for s in scenarios {
            let name =
                s.get("name").and_then(Value::as_str).ok_or("scenario missing name")?.to_string();
            doc.scenarios.insert(
                name,
                ScenarioStats {
                    encode_secs: stats(s, "encode_secs")?,
                    speed_pps: stats(s, "speed_pps")?,
                    quality_db: stats(s, "quality_db")?,
                    bitrate_bpps: stats(s, "bitrate_bpps")?,
                },
            );
        }
        Ok(doc)
    }
}

/// Compares `new` against `old`. An empty result means no regression.
/// Scenarios present only in `old` are findings (coverage loss);
/// scenarios only in `new` are not (new coverage is fine).
pub fn compare(old: &BenchDoc, new: &BenchDoc, opts: &CompareOptions) -> Vec<Finding> {
    let mut findings = Vec::new();
    let margin = 1.0 + opts.threshold_pct / 100.0;
    for (name, o) in &old.scenarios {
        let Some(n) = new.scenarios.get(name) else {
            findings.push(Finding {
                scenario: name.clone(),
                detail: "scenario missing from the new document".to_string(),
            });
            continue;
        };
        let time_limit = o.encode_secs.mean * margin + o.encode_secs.spread();
        if n.encode_secs.min > time_limit {
            findings.push(Finding {
                scenario: name.clone(),
                detail: format!(
                    "encode time regressed: best new run {:.6}s exceeds limit {:.6}s \
                     (old mean {:.6}s +{:.0}% + spread {:.6}s)",
                    n.encode_secs.min,
                    time_limit,
                    o.encode_secs.mean,
                    opts.threshold_pct,
                    o.encode_secs.spread(),
                ),
            });
        }
        let speed_floor = o.speed_pps.mean / margin - o.speed_pps.spread();
        if n.speed_pps.max < speed_floor {
            findings.push(Finding {
                scenario: name.clone(),
                detail: format!(
                    "throughput regressed: best new run {:.0} pix/s under floor {:.0} pix/s",
                    n.speed_pps.max, speed_floor,
                ),
            });
        }
        if n.quality_db.mean < o.quality_db.mean - opts.quality_db {
            findings.push(Finding {
                scenario: name.clone(),
                detail: format!(
                    "quality regressed: {:.3} dB vs {:.3} dB (threshold {:.3} dB)",
                    n.quality_db.mean, o.quality_db.mean, opts.quality_db,
                ),
            });
        }
    }
    findings
}

/// Renders a comparison outcome for humans: every finding, or the ok
/// line with the scenario count.
pub fn render_compare(old: &BenchDoc, new: &BenchDoc, findings: &[Finding]) -> String {
    let mut out = String::new();
    if old.env != new.env {
        out.push_str(&format!(
            "note: environments differ (old {}/{}/{} cpus, new {}/{}/{} cpus)\n",
            old.env.os, old.env.arch, old.env.cpus, new.env.os, new.env.arch, new.env.cpus
        ));
    }
    if findings.is_empty() {
        out.push_str(&format!(
            "ok: no regression across {} scenario(s)\n",
            old.scenarios.len().min(new.scenarios.len())
        ));
    } else {
        for f in findings {
            out.push_str(&format!("REGRESSION [{}]: {}\n", f.scenario, f.detail));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(encode_mean: f64, spread: f64) -> BenchDoc {
        let mut doc = BenchDoc {
            name: "tiny".to_string(),
            runs: 2,
            env: EnvFingerprint::current(),
            scenarios: BTreeMap::new(),
        };
        doc.scenarios.insert(
            "house".to_string(),
            ScenarioStats {
                encode_secs: Stats {
                    mean: encode_mean,
                    min: encode_mean - spread / 2.0,
                    max: encode_mean + spread / 2.0,
                },
                speed_pps: Stats { mean: 1e6, min: 0.9e6, max: 1.1e6 },
                quality_db: Stats { mean: 40.0, min: 40.0, max: 40.0 },
                bitrate_bpps: Stats { mean: 0.1, min: 0.1, max: 0.1 },
            },
        );
        doc
    }

    #[test]
    fn document_round_trips() {
        let doc = doc(0.01, 0.002);
        let parsed = BenchDoc::parse(&doc.to_json()).expect("parses");
        assert_eq!(parsed.name, "tiny");
        assert_eq!(parsed.runs, 2);
        assert_eq!(parsed.env, doc.env);
        let s = parsed.scenarios["house"];
        assert_eq!(s.encode_secs, doc.scenarios["house"].encode_secs);
        assert_eq!(s.quality_db.mean, 40.0);
    }

    #[test]
    fn identical_docs_do_not_regress() {
        let a = doc(0.01, 0.002);
        assert!(compare(&a, &a, &CompareOptions::default()).is_empty());
    }

    #[test]
    fn slow_enough_new_run_regresses() {
        let old = doc(0.01, 0.002);
        // 10x slower clears mean*1.25 + spread on every run.
        let new = doc(0.1, 0.002);
        let findings = compare(&old, &new, &CompareOptions::default());
        assert!(
            findings.iter().any(|f| f.detail.contains("encode time regressed")),
            "{findings:?}"
        );
    }

    #[test]
    fn noise_within_spread_passes() {
        let old = doc(0.010, 0.004);
        let new = doc(0.013, 0.004); // min 0.011 < 0.010*1.25 + 0.004
        assert!(compare(&old, &new, &CompareOptions::default()).is_empty());
    }

    #[test]
    fn missing_scenario_is_a_finding() {
        let old = doc(0.01, 0.0);
        let mut new = doc(0.01, 0.0);
        new.scenarios.clear();
        let findings = compare(&old, &new, &CompareOptions::default());
        assert_eq!(findings.len(), 1);
        assert!(findings[0].detail.contains("missing"));
    }

    #[test]
    fn version_mismatch_rejected() {
        let err = BenchDoc::parse("{\"version\":99,\"scenarios\":[]}").expect_err("wrong version");
        assert!(err.contains("version"), "{err}");
    }
}
