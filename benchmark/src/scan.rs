//! Reads a finished journal's text from outside: how many of its bytes are
//! durable, how many claims were appended, how many job records each job
//! has.

/// What one journal holds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JournalScan {
    /// Bytes of every line (newline included) except the ephemeral
    /// coordination records `lease`, `expire` and `hb`: what a resume has
    /// to keep, and what `stored_bytes_per_job` reports. The digits of a job
    /// record's wall-clock values ([`CLOCK_KEYS`]) are left out: they are
    /// the only bytes of a record that differ between two runs of the same
    /// inputs, and without them the count repeats exactly.
    pub durable_bytes: u64,
    /// Bytes of the ephemeral records.
    pub ephemeral_bytes: u64,
    /// `lease` records: claims attempted (useful claims = jobs).
    pub leases: u64,
    /// `job` records per job index.
    pub job_records: Vec<u32>,
}

/// The `"job":N` index of a job record line.
fn job_index(line: &str) -> Option<usize> {
    let rest = &line[line.find("\"job\":")? + 6..];
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    rest[..digits].parse().ok()
}

/// Job-record fields whose value is a measured time (or a speed derived
/// from one).
const CLOCK_KEYS: [&str; 5] =
    ["\"speed_pps\":", "\"submission\":", "\"transfer\":", "\"pipeline\":", "\"encode_seconds\":"];

/// Bytes the values of [`CLOCK_KEYS`] take in a job record line.
fn clock_value_bytes(line: &str) -> usize {
    CLOCK_KEYS
        .iter()
        .filter_map(|key| {
            let value = &line[line.find(key)? + key.len()..];
            Some(value.find([',', '}']).unwrap_or(value.len()))
        })
        .sum()
}

/// Scans journal text for a batch of `jobs` jobs. Records are recognised by
/// the `{"kind":"…"` prefix every writer in the library emits.
pub fn scan(text: &str, jobs: usize) -> JournalScan {
    let mut out = JournalScan { job_records: vec![0; jobs], ..JournalScan::default() };
    for line in text.split_inclusive('\n') {
        let kind = line.strip_prefix("{\"kind\":\"").and_then(|r| r.split('"').next());
        match kind {
            Some("lease" | "expire" | "hb") => {
                out.ephemeral_bytes += line.len() as u64;
                out.leases += u64::from(kind == Some("lease"));
            }
            _ => {
                out.durable_bytes += line.len() as u64;
                if kind == Some("job") {
                    out.durable_bytes -= clock_value_bytes(line) as u64;
                    if let Some(slot) = job_index(line).and_then(|i| out.job_records.get_mut(i)) {
                        *slot += 1;
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durable_bytes_ignore_lease_expire_and_heartbeat_lines() {
        let manifest = "{\"kind\":\"manifest\",\"version\":1,\"fingerprint\":7,\"jobs\":2}\n";
        let run = "{\"kind\":\"run\",\"index\":0}\n";
        let lease0 = "{\"kind\":\"lease\",\"job\":0,\"worker\":0,\"nonce\":0,\"pid\":9}\n";
        let lease0b = "{\"kind\":\"lease\",\"job\":0,\"worker\":1,\"nonce\":0,\"pid\":10}\n";
        let hb = "{\"kind\":\"hb\",\"worker\":0,\"seq\":1,\"pid\":9,\"t_ms\":5}\n";
        let job0 = "{\"kind\":\"job\",\"job\":0,\"name\":\"null000\",\"bytes\":\"00ff\"}\n";
        let expire = "{\"kind\":\"expire\",\"job\":1,\"worker\":0,\"nonce\":1,\"pid\":9}\n";
        let lease1 = "{\"kind\":\"lease\",\"job\":1,\"worker\":1,\"nonce\":1,\"pid\":10}\n";
        let job1 = "{\"kind\":\"job\",\"job\":1,\"name\":\"null001\",\"bytes\":\"aa\"}\n";
        let text = [manifest, run, lease0, lease0b, hb, job0, expire, lease1, job1].concat();

        let s = scan(&text, 2);
        let durable = manifest.len() + run.len() + job0.len() + job1.len();
        assert_eq!(s.durable_bytes, durable as u64);
        assert_eq!(s.durable_bytes + s.ephemeral_bytes, text.len() as u64);
        assert_eq!(s.leases, 3);
        assert_eq!(s.job_records, vec![1, 1]);
    }

    #[test]
    fn wall_clock_digits_of_a_job_record_are_not_stored_bytes() {
        let record = |secs: &str, pps: &str| {
            format!(
                "{{\"kind\":\"job\",\"job\":0,\"name\":\"a\",\"status\":\"ok\",\"crc32\":7,\
                 \"speed_pps\":{pps},\"bitrate_bpps\":0.25,\"quality_db\":40.5,\"submission\":0,\
                 \"transfer\":0,\"pipeline\":{secs},\"chosen_bps\":null,\"encode_seconds\":{secs},\
                 \"bitstream_bytes\":2,\"frames\":1,\"avg_qp\":30.5,\"bytes\":\"00ff\"}}\n"
            )
        };
        let (fast, slow) = (record("0.012", "1e6"), record("0.0123456789", "987654.321"));
        assert_ne!(fast.len(), slow.len());
        assert_eq!(clock_value_bytes(&fast), 3 + 1 + 1 + 5 + 5);
        assert_eq!(scan(&fast, 1).durable_bytes, scan(&slow, 1).durable_bytes);
        assert_eq!(scan(&fast, 1).durable_bytes, (fast.len() - 15) as u64);
    }

    #[test]
    fn duplicate_and_out_of_range_job_records_are_visible() {
        let job = "{\"kind\":\"job\",\"job\":1,\"name\":\"x\"}\n";
        let stray = "{\"kind\":\"job\",\"job\":9,\"name\":\"x\"}\n";
        let s = scan(&[job, job, stray].concat(), 2);
        assert_eq!(s.job_records, vec![0, 2]);
        // An unterminated tail still counts its bytes as durable text.
        assert_eq!(scan("{\"kind\":\"run\"", 0).durable_bytes, 13);
    }
}
