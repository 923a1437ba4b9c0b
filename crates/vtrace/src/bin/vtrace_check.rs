//! vtrace-check: validates a vtrace JSONL event stream.
//!
//! Usage: `vtrace-check <trace.jsonl>`
//!
//! The rules are [`vtrace::stream::check`]'s: every line is a known kind
//! with its required keys, the stream opens with a header, later headers
//! are rebased worker headers, timestamps never precede their segment's
//! offset, and span parents resolve. The file is decoded lossily, so a
//! stream torn inside a multi-byte character is an invalid stream, not
//! an unreadable file. Exit codes: 0 valid, 1 invalid stream (details on
//! stderr), 2 usage error or unreadable file.

use std::process::ExitCode;

use vtrace::stream::{check, KINDS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [path] = args.as_slice() else {
        eprintln!("usage: vtrace-check <trace.jsonl>");
        return ExitCode::from(2);
    };
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) => {
            eprintln!("vtrace-check: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    match check(&String::from_utf8_lossy(&bytes)) {
        Ok(counts) => {
            let counts: Vec<String> =
                KINDS.iter().zip(counts).map(|(kind, n)| format!("{n} {kind}s")).collect();
            println!("vtrace-check: {path} OK ({})", counts.join(", "));
            ExitCode::SUCCESS
        }
        Err(errors) => {
            for error in &errors {
                eprintln!("{error}");
            }
            eprintln!("vtrace-check: {} error(s) in {path}", errors.len());
            ExitCode::from(1)
        }
    }
}
