//! The vprof command-line tool.
//!
//! ```text
//! vprof report  <trace.jsonl>                 analyze a vtrace stream
//! vprof flame   <trace.jsonl> [--out FILE]    folded-stack flamegraph export
//! vprof compare <old.out> <new.out>           benchmark regression gate
//! vprof compare --pairs <old.out> <new.out>…  paired runs, sign test
//! vprof sat     <SAT.json>                    render a saturation study
//! vprof pareto  <PARETO.json>                 render a cost-QoS frontier
//! ```
//!
//! `compare` reads two stdouts of `vbench-benchmark all` (each may be
//! several runs concatenated) and judges them with the bounds of the
//! `BENCHMARK.json` it was built with; see [`vprof::compare`]. With
//! `--pairs` it reads alternating parent and change runs (each an `all`
//! output or one `--workload` run; parent first) and judges each metric
//! by the sign test over the pairs' ratios.
//!
//! Exit codes: 0 ok, 1 I/O or parse failure, 2 usage error,
//! 4 regression detected (`compare` only; with `--pairs`, a resolved
//! `worse` past the metric's bound) — distinct from failure so CI can
//! tell "the gate fired" from "the gate broke".

use std::path::Path;
use std::process::ExitCode;

use vprof::compare::{compare, compare_pairs, parse_output, Contract, Output};
use vprof::{folded_stacks, render_report, ParetoReport, SatReport, Trace};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("report") => cmd_report(&args[1..]),
        Some("flame") => cmd_flame(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("sat") => cmd_render(&args[1..], SatReport::parse, SatReport::render),
        Some("pareto") => cmd_render(&args[1..], ParetoReport::parse, ParetoReport::render),
        _ => usage(),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: vprof report <trace.jsonl>\n\
         \x20      vprof flame <trace.jsonl> [--out FILE]\n\
         \x20      vprof compare <old.out> <new.out>\n\
         \x20      vprof compare --pairs <old.out> <new.out> [<old.out> <new.out>]...\n\
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

/// `sat` / `pareto`: parse a study document and print its table.
fn cmd_render<T>(
    args: &[String],
    parse: fn(&str) -> Result<T, String>,
    render: fn(&T) -> String,
) -> ExitCode {
    let [path] = args else { return usage() };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("vprof: read {path}: {e}");
            return ExitCode::from(1);
        }
    };
    match parse(&text) {
        Ok(doc) => {
            print!("{}", render(&doc));
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
    let (paired, paths) = match args {
        [flag, paths @ ..] if flag == "--pairs" => (true, paths),
        paths => (false, paths),
    };
    let shape_ok = if paired { paths.len().is_multiple_of(2) } else { paths.len() == 2 };
    if paths.is_empty() || !shape_ok || paths.iter().any(|a| a.starts_with("--")) {
        return usage();
    }
    let load = |path: &String| -> Result<Output, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        parse_output(&text).map_err(|e| format!("{path}: {e}"))
    };
    let outputs = match paths.iter().map(load).collect::<Result<Vec<_>, _>>() {
        Ok(outputs) => outputs,
        Err(e) => {
            eprintln!("vprof: {e}");
            return ExitCode::from(1);
        }
    };
    let regressed = if paired {
        let mut outputs = outputs.into_iter();
        let pairs: Vec<_> =
            std::iter::from_fn(|| Some((outputs.next()?, outputs.next()?))).collect();
        let outcome = compare_pairs(&Contract::embedded(), &pairs);
        print!("{}", outcome.render());
        outcome.regressed()
    } else {
        let outcome = compare(&Contract::embedded(), &outputs[0], &outputs[1]);
        print!("{}", outcome.render());
        !outcome.findings.is_empty()
    };
    if regressed {
        ExitCode::from(4)
    } else {
        ExitCode::SUCCESS
    }
}
