//! Tooling around single runs: `all` (every workload untraced then traced)
//! and `repeat` (the repeatability harness behind `repeat.sh`).
//!
//! Each run is a child process of this binary, so peak RSS and set-up are
//! per run exactly as the driver will see them.

use std::process::{Command, Stdio};

use vtrace::json::{parse, Value};

use crate::report::END_TO_END;
use crate::stats::{iqr_share, median};
use crate::workload::Workload;
use crate::{flag, DEFAULT_SECONDS};

fn child(workload: Workload, seed: u64, seconds: f64, trace: bool, quick: bool) -> Command {
    let exe = std::env::current_exe().expect("a running binary has a path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    }
    cmd
}

/// `all`: every workload untraced, then traced, printing every metric by
/// name with unit, pass count and quartiles (the children's own output).
pub fn all(args: &[String]) -> Result<i32, String> {
    let seed = flag(args, "--seed")?.unwrap_or(1);
    let seconds = flag(args, "--seconds")?.unwrap_or(DEFAULT_SECONDS);
    let quick = args.iter().any(|a| a == "--quick");
    let mut worst = 0;
    for trace in [false, true] {
        for workload in Workload::ALL {
            println!("==== {} trace={} ====", workload.name(), u8::from(trace));
            let status = child(workload, seed, seconds, trace, quick)
                .status()
                .map_err(|e| format!("cannot run {}: {e}", workload.name()))?;
            worst = worst.max(status.code().unwrap_or(1));
        }
    }
    Ok(worst)
}

/// The end-to-end metric values of one untraced run, in catalogue order.
fn one_run(workload: Workload, seed: u64, seconds: f64) -> Result<Vec<f64>, String> {
    let out = child(workload, seed, seconds, false, false)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", workload.name()))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or_default();
    let doc = parse(last).map_err(|_| format!("{}: no result line", workload.name()))?;
    if !out.status.success() || doc.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!("{} seed {seed}: run failed or incorrect: {last}", workload.name()));
    }
    END_TO_END
        .iter()
        .map(|(d, _)| {
            doc.get("metrics")
                .and_then(|m| m.get(d.name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{}: result line lacks {}", workload.name(), d.name))
        })
        .collect()
}

/// `repeat`: every workload as two interleaved sets (A B A B …) of
/// `--runs` runs, run `k` of either set on seed `k` — the acceptance
/// procedure in miniature. Per metric it prints both set medians, how far
/// B is from A, each set's run-to-run spread (exclusive-quartile IQR over
/// the median) and the bound; any difference or spread past the bound is a
/// breach and makes the exit code 1 (`setup_s` is exempt from the spread
/// check, as in the acceptance procedure).
pub fn repeat(args: &[String]) -> Result<i32, String> {
    let runs: usize = flag(args, "--runs")?.unwrap_or(5);
    if runs < 2 {
        return Err("--runs must be at least 2".to_string());
    }
    let seconds = flag(args, "--seconds")?.unwrap_or(DEFAULT_SECONDS);
    let mut breaches = 0;
    println!(
        "| workload | metric | median A | median B | B vs A | spread A | spread B | bound | |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    for workload in Workload::ALL {
        let mut sets: [Vec<Vec<f64>>; 2] = [Vec::new(), Vec::new()];
        for k in 0..runs {
            for set in &mut sets {
                set.push(one_run(workload, k as u64 + 1, seconds)?);
            }
        }
        for (m, (def, bound)) in END_TO_END.iter().enumerate() {
            let column = |set: &[Vec<f64>]| -> Vec<f64> { set.iter().map(|run| run[m]).collect() };
            let (a, b) = (column(&sets[0]), column(&sets[1]));
            let (ma, mb) = (median(&a), median(&b));
            let diff = (mb - ma) / ma.abs().max(1e-300);
            let (sa, sb) = (iqr_share(&a), iqr_share(&b));
            let spread_checked = def.name != "setup_s";
            let breach = diff.abs() > *bound || (spread_checked && (sa > *bound || sb > *bound));
            breaches += usize::from(breach);
            println!(
                "| {} | {} ({}, {} is better) | {ma:.4} | {mb:.4} | {:+.2}% | {:.2}% | {:.2}% | {:.0}% | {} |",
                workload.name(),
                def.name,
                def.unit,
                def.better,
                diff * 100.0,
                sa * 100.0,
                sb * 100.0,
                bound * 100.0,
                if breach { "BREACH" } else { "ok" }
            );
        }
    }
    println!("\n{breaches} breach(es) over {runs} runs per set, {seconds} s per run");
    Ok(i32::from(breaches > 0))
}
