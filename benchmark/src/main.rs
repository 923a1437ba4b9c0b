//! The repo benchmark: four workloads, six end-to-end metrics, outside-in
//! layer probes. See `benchmark/README.md`.
//!
//! ```text
//! vbench-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! vbench-benchmark all [--seed <n>] [--seconds <s>] [--quick]
//! vbench-benchmark repeat [--runs <n>] [--seconds <s>]
//! ```
//!
//! The last line of standard output of a `--workload` run is the result
//! object the driver reads.

mod alloc;
mod clock;
mod engine;
mod io;
mod probes;
mod record;
mod repeat;
mod report;
mod run;
mod rusage;
mod scan;
mod scratch;
mod stats;
mod trace;
mod worker;
mod workload;

use report::{result_line, END_TO_END, PER_LAYER};
use workload::Workload;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Seconds one run measures when `--seconds` is not given; the value in
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 30.0;

const USAGE: &str = "usage: vbench-benchmark --workload <vod_batch|live_stream|journal_null|\
dispatch_null> [--seed N] [--seconds S] [--trace 0|1] [--quick]\n       vbench-benchmark all \
[--seed N] [--seconds S] [--quick]\n       vbench-benchmark repeat [--runs N] [--seconds S]";

/// Value of `--name` in `args`, parsed; `Err` names the bad flag.
pub fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => match args.get(i + 1).map(|v| v.parse::<T>()) {
            Some(Ok(v)) => Ok(Some(v)),
            _ => Err(format!("{name} needs a valid value")),
        },
    }
}

fn run_workload(args: &[String]) -> Result<i32, String> {
    let name: String = flag(args, "--workload")?.ok_or("--workload is required")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload '{name}'"))?;
    let seconds = flag(args, "--seconds")?.unwrap_or(DEFAULT_SECONDS);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let cfg = run::Config {
        workload,
        seed: flag(args, "--seed")?.unwrap_or(1),
        seconds,
        trace: flag::<u8>(args, "--trace")?.unwrap_or(0) != 0,
        quick: args.iter().any(|a| a == "--quick"),
    };
    let outcome = run::run(&cfg)?;
    let defs: Vec<&report::Def> = if cfg.trace {
        PER_LAYER.iter().collect()
    } else {
        END_TO_END.iter().map(|(d, _)| d).collect()
    };
    for d in &defs {
        println!("{} = {} {}", d.name, outcome.values.get(d.name).unwrap_or(0.0), d.unit);
    }
    let line = result_line(
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        defs.into_iter(),
        &outcome.values,
    );
    println!("{line}");
    Ok(0)
}

fn main() {
    clock::init();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("worker") => Ok(worker::main(&args[1..])),
        Some("all") => repeat::all(&args[1..]),
        Some("repeat") => repeat::repeat(&args[1..]),
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            Ok(if args.is_empty() { 2 } else { 0 })
        }
        Some(_) => run_workload(&args),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(message) => {
            eprintln!("vbench-benchmark: {message}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}
