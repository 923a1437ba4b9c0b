//! Regenerates every table and figure of the paper.
//!
//! Its flags are declared in [`vbench::cli::TABLEGEN`]: running
//! `tablegen` with no arguments prints the usage generated from that
//! table, and any other flag is a usage error (exit 2). `tablegen all`
//! runs every experiment in turn.
//!
//! `--fault-plan` injects deterministic faults into the farmed table
//! runs (spec grammar in the `vfault` docs, e.g.
//! `transient=0,seed=7`); `--max-retries` and `--job-deadline` set the
//! farm's resilience policy. A table whose batch still fails after
//! retries exits 1.
//!
//! `--journal DIR` makes the farmed tables (3/4/5 and fig9) durable:
//! each batch writes a crash-consistent journal under `DIR` (one file
//! per table, e.g. `DIR/tab3.jsonl`). With `--resume`, completed jobs
//! recorded by a previous interrupted run are CRC-verified and replayed
//! instead of re-encoded. A scripted `crash=` fault plan exits 3, the
//! simulated-crash code.
//!
//! Experiments: `fig1 fig2 fig4 fig5 fig5b fig6 fig7 fig8 fig9 tab1 tab2
//! tab2d tab3 tab4 tab5 abl fleet`. (`tab2d` is the derived-selection companion
//! of Table 2; `fig5b` is the dataset-bias overlay; `abl` the design
//! ablations.) Default scale is `tiny`; use `--scale exp` in release mode
//! for the numbers recorded in EXPERIMENTS.md. Tables 3/4/5 fan their
//! per-row transcodes out on `--workers` farm threads (`0` or omitted
//! auto-detects from the machine's available parallelism).
//! Wall-clock-timed encodes (scenario references, Table 5's chosen
//! operating points) always run serially so measured speed is free of
//! core contention — the worker count never changes a value.
//!
//! Telemetry goes to stderr and the `--trace-out` file only; table
//! output on stdout is byte-identical with tracing on or off. Exit
//! codes: 0 success, 1 runtime failure, 2 usage error, 3 simulated
//! crash (a scripted `crash=` fault fired; the journal holds the
//! completed work).

use bench::experiments as ex;
use bench::Scale;
use vbench::cli::{self, Flags};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(what) = args.first().map(String::as_str) else {
        cli::usage("tablegen", &[cli::TABLEGEN]);
    };
    let flags = Flags::parse("tablegen".to_string(), &cli::TABLEGEN, &args[1..]);
    cli::init_tracing(&flags);
    let scale = flags.get::<Scale>("scale").unwrap_or_default();
    let workers = cli::resolve_workers(&flags);
    let policy = cli::resilience_from_flags(&flags);
    let videos: Option<Vec<&str>> = flags.value("videos").map(|v| v.split(',').collect());
    // Reject unknown names up front, before minutes of work run: a typo
    // in --videos is a usage error, not a mid-run panic.
    if let Some(v) = &videos {
        let s = ex::suite(scale);
        for name in v {
            if s.by_name(name).is_none() {
                flags.die(&format!("no suite video '{name}' (see `tablegen tab2`)"));
            }
        }
    }
    let names = videos.as_deref();

    let journal_dir = flags.value("journal");
    let resume = flags.switch("resume");
    if resume && journal_dir.is_none() {
        flags.die("--resume requires --journal");
    }
    if let Some(dir) = journal_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            flags.die(&format!("create journal dir {dir}: {e}"));
        }
    }
    // One journal file per farmed table: a journal is scoped to a single
    // batch manifest, so tables must not share one.
    let table_journal = |table: &str| {
        journal_dir.map(|dir| {
            vbench::JournalConfig::new(format!("{dir}/{table}.jsonl")).with_resume(resume)
        })
    };

    let all = what == "all";
    let mut ran = false;
    let mut section = |id: &str, title: &str, body: &mut dyn FnMut() -> String| {
        if all || what == id {
            let mut span = vtrace::span("tablegen.section");
            if span.id().is_some() {
                span.record("id", id);
            }
            println!("== {id}: {title} ==");
            println!("{}", body());
            ran = true;
        }
    };

    section("fig1", "upload growth vs CPU growth", &mut || ex::fig1_table().to_string());
    section("fig2", "rate-distortion-speed curves", &mut || ex::fig2_rd_curves(scale).to_string());
    section("fig4", "dataset coverage of the corpus", &mut || ex::fig4_coverage().to_string());
    section("tab1", "scoring functions", &mut || ex::tab1_table().to_string());
    section("tab2", "the vbench suite (published vs measured entropy)", &mut || {
        ex::tab2_table(scale).to_string()
    });
    section("tab2d", "suite derived by k-means from the synthetic corpus", &mut || {
        ex::tab2_derived_selection().to_string()
    });
    section("fig5b", "dataset bias in microarchitecture trends", &mut || {
        ex::fig5_bias_table(scale, 9).to_string()
    });
    section("abl", "ablations: deblocking filter, entropy backend", &mut || {
        ex::ablation_table(scale).to_string()
    });
    section("fleet", "fleet sizing and dollar cost across the instance catalog", &mut || {
        ex::fleet_table(scale).to_string()
    });

    // Figures 5-8 share one set of simulator runs.
    if all || ["fig5", "fig6", "fig7", "fig8"].contains(&what) {
        let rows = ex::uarch_rows(scale, names).unwrap_or_else(|e| fail(&e.to_string()));
        let mut usection = |id: &str, title: &str, table: vbench::report::TextTable| {
            if all || what == id {
                let mut span = vtrace::span("tablegen.section");
                if span.id().is_some() {
                    span.record("id", id);
                }
                println!("== {id}: {title} ==");
                println!("{table}");
                ran = true;
            }
        };
        usection("fig5", "cache/branch MPKI vs entropy", ex::fig5_table(&rows));
        usection("fig6", "Top-Down breakdown", ex::fig6_table(&rows));
        usection("fig7", "scalar vs AVX2 fraction", ex::fig7_table(&rows));
        usection("fig8", "ISA ladder", ex::fig8_table(&rows));
    }

    // Tables 3/4 and Figure 9 share the hardware runs.
    if all || ["tab3", "fig9"].contains(&what) {
        let vod = ex::tab3_rows(scale, names, workers, &policy, table_journal("tab3").as_ref())
            .unwrap_or_else(|e| fail_batch(e));
        if all || what == "tab3" {
            println!("== tab3: NVENC/QSV on VOD ==");
            println!("{}", ex::tab3_table(&vod));
            ran = true;
        }
        if all || what == "fig9" {
            let live =
                ex::tab4_rows(scale, names, workers, &policy, table_journal("fig9-live").as_ref())
                    .unwrap_or_else(|e| fail_batch(e));
            println!("== fig9: hardware scatter (VOD and Live) ==");
            println!("{}", ex::fig9_table(&vod, &live));
            ran = true;
        }
    }
    if all || what == "tab4" {
        let live = ex::tab4_rows(scale, names, workers, &policy, table_journal("tab4").as_ref())
            .unwrap_or_else(|e| fail_batch(e));
        println!("== tab4: NVENC/QSV on Live ==");
        println!("{}", ex::tab4_table(&live));
        ran = true;
    }
    if all || what == "tab5" {
        let rows = ex::tab5_rows(scale, names, workers, &policy, table_journal("tab5").as_ref())
            .unwrap_or_else(|e| fail_batch(e));
        println!("== tab5: next-generation software on Popular ==");
        println!("{}", ex::tab5_table(&rows));
        ran = true;
    }

    if !ran {
        flags.die(&format!("unknown experiment '{what}'"));
    }

    cli::finish_tracing("tablegen");
}

/// Runtime failure (a transcode or batch failed): trace flushed, exit 1
/// — distinct from usage errors so scripts and CI can tell them apart.
fn fail(msg: &str) -> ! {
    cli::fail("tablegen", cli::EXIT_RUNTIME, msg)
}

/// Failure handler for the farmed (journalable) tables: a scripted
/// crash fault exits 3 — the work already journaled survives and
/// `--resume` completes it — everything else is an ordinary runtime
/// failure.
fn fail_batch(e: ex::ExperimentError) -> ! {
    let crashed = matches!(e, ex::ExperimentError::SimulatedCrash(_));
    cli::fail("tablegen", if crashed { cli::EXIT_CRASH } else { cli::EXIT_RUNTIME }, &e.to_string())
}
