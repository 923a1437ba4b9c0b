//! The vprof command-line tool.
//!
//! ```text
//! vprof report  <trace.jsonl>                 analyze a vtrace stream
//! vprof flame   <trace.jsonl> [--out FILE]    folded-stack flamegraph export
//! vprof compare <old.out> <new.out>           benchmark regression gate
//! vprof sat     <SAT.json>                    render a saturation study
//! vprof pareto  <PARETO.json>                 render a cost-QoS frontier
//! ```
//!
//! `compare` reads two stdouts of `vbench-benchmark all` (each may be
//! several runs concatenated) and judges them with the bounds of the
//! `BENCHMARK.json` it was built with; see [`vprof::compare`].
//!
//! Exit codes: 0 ok, 1 I/O or parse failure, 2 usage error,
//! 4 regression detected (`compare` only) — distinct from failure so
//! CI can tell "the gate fired" from "the gate broke".

use std::path::Path;
use std::process::ExitCode;

use vprof::compare::{compare, parse_output, Contract};
use vprof::{folded_stacks, render_pareto, render_report, render_sat, ParetoDoc, SatDoc, Trace};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("report") => cmd_report(&args[1..]),
        Some("flame") => cmd_flame(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("sat") => cmd_sat(&args[1..]),
        Some("pareto") => cmd_pareto(&args[1..]),
        _ => usage(),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: vprof report <trace.jsonl>\n\
         \x20      vprof flame <trace.jsonl> [--out FILE]\n\
         \x20      vprof compare <old.out> <new.out>\n\
         \x20      vprof sat <SAT.json>\n\
         \x20      vprof pareto <PARETO.json>"
    );
    ExitCode::from(2)
}

fn cmd_report(args: &[String]) -> ExitCode {
    let [path] = args else { return usage() };
    match Trace::load(Path::new(path)) {
        Ok(trace) => {
            print!("{}", render_report(&trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("vprof: {e}");
            ExitCode::from(1)
        }
    }
}

fn cmd_sat(args: &[String]) -> ExitCode {
    let [path] = args else { return usage() };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("vprof: read {path}: {e}");
            return ExitCode::from(1);
        }
    };
    match SatDoc::parse(&text) {
        Ok(doc) => {
            print!("{}", render_sat(&doc));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("vprof: {path}: {e}");
            ExitCode::from(1)
        }
    }
}

fn cmd_pareto(args: &[String]) -> ExitCode {
    let [path] = args else { return usage() };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("vprof: read {path}: {e}");
            return ExitCode::from(1);
        }
    };
    match ParetoDoc::parse(&text) {
        Ok(doc) => {
            print!("{}", render_pareto(&doc));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("vprof: {path}: {e}");
            ExitCode::from(1)
        }
    }
}

fn cmd_flame(args: &[String]) -> ExitCode {
    let (path, out) = match args {
        [path] => (path, None),
        [path, flag, out] if flag == "--out" => (path, Some(out)),
        _ => return usage(),
    };
    let trace = match Trace::load(Path::new(path)) {
        Ok(trace) => trace,
        Err(e) => {
            eprintln!("vprof: {e}");
            return ExitCode::from(1);
        }
    };
    let folded = folded_stacks(&trace);
    match out {
        None => {
            print!("{folded}");
            ExitCode::SUCCESS
        }
        Some(out) => match std::fs::write(out, folded) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("vprof: write {out}: {e}");
                ExitCode::from(1)
            }
        },
    }
}

fn cmd_compare(args: &[String]) -> ExitCode {
    let [old_path, new_path] = args else { return usage() };
    if args.iter().any(|a| a.starts_with("--")) {
        return usage();
    }
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        parse_output(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (old, new) = match (load(old_path), load(new_path)) {
        (Ok(old), Ok(new)) => (old, new),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("vprof: {e}");
            return ExitCode::from(1);
        }
    };
    let outcome = compare(&Contract::embedded(), &old, &new);
    print!("{}", outcome.render());
    if outcome.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(4)
    }
}
