//! The command-line layer shared by the workspace binaries: flag tables,
//! parsing, typed getters, the generated usage text, and the tracing and
//! exit plumbing.
//!
//! Every command declares the flags it reads as a static [`Command`]
//! table, built from the flag groups below; [`TELEMETRY`] is part of
//! every table. [`Flags::parse`] turns each of these into a usage error
//! (exit 2) naming the flag and the command: an unknown flag, a flag the
//! command does not read, a value flag with no value, and a repeated
//! flag. A misspelled flag therefore stops the run instead of being
//! ignored. The getters, the shared builders ([`resilience_from_flags`],
//! [`resolve_workers`]), the dispatcher's forwarding ([`Flags::forward`])
//! and [`usage`] all read the same table.
//!
//! The exit convention, shared by every binary:
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | success |
//! | 1    | runtime failure (transcode, I/O, batch) — trace still flushed |
//! | 2    | usage error — before any work ran |
//! | 3    | simulated crash (scripted `crash=` fault fired; journal intact) |
//! | 4    | gate fired: `vprof compare` found a benchmark metric past |
//! |      | its `BENCHMARK.json` bound, or a service run whose shed |
//! |      | rate exceeded `--max-shed-rate` |
//! | 5    | infeasible plan: `vbench plan` found a job no catalog |
//! |      | instance can finish inside the scenario deadline |
//! | 6    | chaos invariant violation: `vbench chaos` caught a |
//! |      | recovery bug (report written with the reproducing seeds) |
//!
//! Telemetry only ever goes to stderr and the `--trace-out` file;
//! stdout belongs to report output and stays byte-identical with
//! tracing on or off.

use std::fmt;
use std::str::FromStr;
use std::sync::OnceLock;

use crate::resilience::{HedgePolicy, ResilienceConfig};

/// Exit code for success.
pub const EXIT_OK: i32 = 0;
/// Exit code for a runtime failure (transcode, I/O, batch).
pub const EXIT_RUNTIME: i32 = 1;
/// Exit code for a usage error (bad command line; no work ran).
pub const EXIT_USAGE: i32 = 2;
/// Exit code for a simulated crash (scripted `crash=` fault fired).
pub const EXIT_CRASH: i32 = 3;
/// Exit code for a failed quality gate (perf regression found, or a
/// service shed rate above `--max-shed-rate`).
pub const EXIT_GATE: i32 = 4;
/// Exit code for an infeasible fleet plan: at the scenario's own
/// deadline, some job fits no catalog instance.
pub const EXIT_INFEASIBLE: i32 = 5;
/// Exit code for a chaos-audit invariant violation: `vbench chaos`
/// found a trial where recovery broke a durability guarantee.
pub const EXIT_CHAOS: i32 = 6;

/// One entry of a command's table: `--name`, and for a value flag the
/// word that stands for its value in the usage text.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Flag {
    /// The name, without the leading `--`.
    name: &'static str,
    /// `None` for a switch, which takes no value.
    hint: Option<&'static str>,
}

/// The entries of a flag spec: `--name HINT` is a value flag, a `--name`
/// followed by another `--name` (or nothing) is a switch.
fn entries(spec: &'static str) -> impl Iterator<Item = Flag> {
    let mut words = spec.split_whitespace().peekable();
    std::iter::from_fn(move || {
        let name = words.next()?.trim_start_matches("--");
        Some(Flag { name, hint: words.next_if(|w| !w.starts_with("--")) })
    })
}

/// Recording level and JSONL trace destination (which implies at least
/// `summary`). Every command reads these.
pub const TELEMETRY: &str = "--log-level off|summary|verbose --trace-out PATH";
/// The suite size ([`crate::suite::Scale`]).
pub const SCALE: &str = "--scale tiny|exp|full";
/// What a batch encodes: which clips, on which backend, streamed or not.
pub const JOB: &str = "--videos a,b,c --backend software|nvenc|qsv --stream --window FRAMES";
/// The batch resilience policy ([`resilience_from_flags`]).
pub const POLICY: &str = "--max-retries N --job-deadline SECS --degrade --hedge --fault-plan SPEC";
/// The deterministic service model of `serve`, `saturate` and `plan`.
pub const SERVICE: &str = "--scenario upload|popular|live --duration SECS --capacity N \
                           --queue-depth Q --seed S --catalog C";
const ENCODE: &str = "--video NAME --family avc|hevc|vp9|av1 --preset ultrafast..veryslow";
const BACKEND: &str = "--backend software|nvenc|qsv";
const TRANSCODE: &str = "--crf N --bitrate BPS --bframes --stream --window FRAMES --out FILE";
const BATCH: &str = "--workers N --journal PATH --resume --out-dir DIR --io-fault-plan SPEC";
const WORKER: &str = "--journal PATH --worker-id N --run R --workers N --io-fault-plan SPEC";
const CHAOS: &str = "--trials N --seed S --topology batch|dispatch --procs M --workers N \
                     --dir DIR --out FILE --inject-unsynced-rename";
const SERVE: &str = "--workers N --journal PATH --resume --max-shed-rate PCT";
const TABLES: &str = "--videos a,b,c --workers N --max-retries N --job-deadline SECS \
                      --fault-plan SPEC --journal DIR --resume";

/// A command and the flag specs it reads ([`TELEMETRY`] is implied).
#[derive(Clone, Copy, Debug)]
pub struct Command {
    /// The subcommand (`batch`), or the positional synopsis of a binary
    /// without subcommands (`<experiment|all>`).
    pub name: &'static str,
    /// Flag groups and the command's own flags; their union is
    /// everything it accepts.
    flags: &'static [&'static str],
}

impl Command {
    fn flags(&self) -> impl Iterator<Item = Flag> {
        self.flags.iter().chain([&TELEMETRY]).flat_map(|spec| entries(spec))
    }

    /// The table entry for `--name`, if this command reads it.
    fn find(&self, name: &str) -> Option<Flag> {
        self.flags().find(|f| f.name == name)
    }
}

/// The `vbench` subcommands.
pub const VBENCH: &[Command] = &[
    Command { name: "suite", flags: &[SCALE] },
    Command { name: "entropy", flags: &[SCALE, "--video NAME"] },
    Command {
        name: "score",
        flags: &[SCALE, ENCODE, BACKEND, "--scenario upload|live|vod|popular|platform"],
    },
    Command { name: "transcode", flags: &[SCALE, ENCODE, BACKEND, TRANSCODE] },
    Command { name: "inspect", flags: &["--in FILE"] },
    Command { name: "batch", flags: &[SCALE, JOB, POLICY, BATCH] },
    Command {
        name: "dispatch",
        flags: &[SCALE, JOB, POLICY, BATCH, "--procs M --status-out FILE"],
    },
    // The child side of `dispatch`: it must accept every argv the
    // dispatcher (`exec::dispatch`) and the chaos auditor build.
    Command { name: "worker", flags: &[SCALE, JOB, POLICY, WORKER] },
    Command { name: "top", flags: &["--journal PATH --once --interval-ms N"] },
    // No policy group: trials run a fixed clean policy, so retry, hedge
    // and deadline flags would skew the exact encode accounting (I2).
    Command { name: "chaos", flags: &[SCALE, JOB, CHAOS] },
    Command { name: "serve", flags: &[SCALE, SERVICE, SERVE, "--offered-load L"] },
    Command { name: "saturate", flags: &[SCALE, SERVICE, SERVE, "--loads L1,L2,.. --out FILE"] },
    Command { name: "plan", flags: &[SCALE, SERVICE, "--offered-load L --workers N --out FILE"] },
];

/// `tablegen`'s one command line. Its `--journal` is a directory (one
/// journal per farmed table), not a file.
pub const TABLEGEN: Command = Command { name: "<experiment|all>", flags: &[SCALE, TABLES] };

/// Prints the usage text, which is the tables, to stderr and exits
/// [`EXIT_USAGE`].
pub fn usage(tool: &str, commands: &[Command]) -> ! {
    let width = commands.iter().map(|c| tool.len() + c.name.len() + 1).max().unwrap_or(0);
    let mut text = String::from("usage:\n");
    for command in commands {
        let mut head = format!("{tool} {}", command.name);
        for spec in command.flags {
            text += &format!("  {head:<width$}  {spec}\n");
            head.clear();
        }
    }
    eprintln!("{text}every command also takes {TELEMETRY}");
    std::process::exit(EXIT_USAGE);
}

/// One command line, parsed against its command's table.
#[derive(Clone, Debug)]
pub struct Flags {
    /// `vbench batch`, `tablegen`: how usage errors name the command.
    label: String,
    command: &'static Command,
    /// Names and values in argv order; `None` for a switch.
    values: Vec<(&'static str, Option<String>)>,
}

impl Flags {
    /// Parses `args` (the flags after the command) against `command`'s
    /// table, exiting [`EXIT_USAGE`] on anything it does not accept.
    /// `label` names the command in error messages.
    pub fn parse(label: String, command: &'static Command, args: &[String]) -> Flags {
        let mut flags = Flags { label, command, values: Vec::new() };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let Some(name) = arg.strip_prefix("--") else {
                flags.die(&format!("expected a --flag, got '{arg}'"));
            };
            let Some(flag) = command.find(name) else {
                flags.die(&format!("unknown flag --{name}"));
            };
            if flags.switch(name) {
                flags.die(&format!("--{name} is given twice"));
            }
            let value = match flag.hint {
                None => None,
                Some(_) => match args.next() {
                    Some(value) if !value.starts_with("--") => Some(value.clone()),
                    _ => flags.die(&format!("--{name} needs a value")),
                },
            };
            flags.values.push((flag.name, value));
        }
        flags
    }

    /// Usage error: names the command, exits [`EXIT_USAGE`] — before any
    /// work ran, so there is nothing to flush.
    pub fn die(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}", self.label);
        std::process::exit(EXIT_USAGE);
    }

    /// Usage error for a required flag that is absent.
    pub fn missing(&self, name: &str) -> ! {
        self.die(&format!("--{name} is required"))
    }

    /// The raw value of `--name`, if given. A flag outside the command's
    /// table is never given, so shared builders read only what the
    /// command declares.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values.iter().find(|(n, _)| *n == name).and_then(|(_, v)| v.as_deref())
    }

    /// The raw value of a required `--name`.
    pub fn required(&self, name: &str) -> &str {
        self.value(name).unwrap_or_else(|| self.missing(name))
    }

    /// Whether the switch `--name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.values.iter().any(|(n, _)| *n == name)
    }

    /// `--name` parsed as a `T`; a value that does not parse is a usage
    /// error.
    pub fn get<T: FromStr>(&self, name: &str) -> Option<T>
    where
        T::Err: fmt::Display,
    {
        self.value(name)
            .map(|v| v.parse().unwrap_or_else(|e| self.die(&format!("--{name} '{v}': {e}"))))
    }

    /// [`Flags::get`], and the value must be above zero.
    pub fn positive<T: FromStr + PartialOrd + Default>(&self, name: &str) -> Option<T>
    where
        T::Err: fmt::Display,
    {
        let value: T = self.get(name)?;
        if value.partial_cmp(&T::default()) != Some(std::cmp::Ordering::Greater) {
            self.die(&format!("--{name} must be positive"));
        }
        Some(value)
    }

    /// The member of `all` whose `Display` matches `--name`, ignoring
    /// case.
    pub fn choice<T: Copy + fmt::Display>(&self, name: &str, all: &[T]) -> Option<T> {
        let v = self.value(name)?;
        let found = all.iter().copied().find(|c| c.to_string().eq_ignore_ascii_case(v));
        found.or_else(|| {
            let names: Vec<String> = all.iter().map(|c| c.to_string().to_lowercase()).collect();
            self.die(&format!("unknown --{name} '{v}' ({})", names.join("|")))
        })
    }

    /// Gives the value flag `--name` a value when the command line did
    /// not; [`Flags::forward`] passes it on like a typed one.
    pub fn set_default(&mut self, name: &str, value: &str) {
        if let (None, Some(flag)) = (self.value(name), self.command.find(name)) {
            self.values.push((flag.name, Some(value.to_string())));
        }
    }

    /// The given flags that belong to `groups`, as argv in command-line
    /// order: what a parent hands its worker processes so they rebuild
    /// its batch.
    pub fn forward(&self, groups: &[&'static str]) -> Vec<String> {
        let mut args = Vec::new();
        for (name, value) in &self.values {
            if groups.iter().flat_map(|spec| entries(spec)).any(|f| f.name == *name) {
                args.push(format!("--{name}"));
                args.extend(value.clone());
            }
        }
        args
    }
}

/// Builds the batch resilience policy from the [`POLICY`] flags the
/// command reads.
pub fn resilience_from_flags(flags: &Flags) -> ResilienceConfig {
    let mut cfg = ResilienceConfig::default();
    if let Some(retries) = flags.get("max-retries") {
        cfg = cfg.with_max_retries(retries);
    }
    if let Some(secs) = flags.positive("job-deadline") {
        cfg = cfg.with_job_deadline(secs);
    }
    if flags.switch("degrade") {
        cfg = cfg.with_degradation();
    }
    if flags.switch("hedge") {
        cfg = cfg.with_hedge(HedgePolicy::default());
    }
    if let Some(spec) = flags.value("fault-plan") {
        let plan = vfault::FaultPlan::parse(spec).unwrap_or_else(|e| flags.die(&e.to_string()));
        cfg = cfg.with_fault_plan(plan);
    }
    cfg
}

/// `--workers`: `0` or omitted auto-detects from the machine's available
/// parallelism.
pub fn resolve_workers(flags: &Flags) -> usize {
    match flags.get("workers") {
        Some(n) if n > 0 => n,
        _ => std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(4),
    }
}

/// The `--trace-out` destination, stashed at init so the error path
/// ([`fail`]) can flush the trace too.
static TRACE_OUT: OnceLock<Option<String>> = OnceLock::new();

/// Initialises tracing from the [`TELEMETRY`] flags. A trace destination
/// implies at least `summary` level — an empty trace would defeat the
/// point of asking for one. An unknown level is a usage error.
///
/// Invariant: each binary's `main` calls this exactly once, before any
/// command runs.
pub fn init_tracing(flags: &Flags) {
    let mut level = match flags.value("log-level") {
        None => vtrace::Level::Off,
        Some(s) => vtrace::Level::parse(s).unwrap_or_else(|| {
            flags.die(&format!("unknown log level '{s}' (off|summary|verbose)"))
        }),
    };
    let trace_out = flags.value("trace-out").map(str::to_string);
    if trace_out.is_some() && level == vtrace::Level::Off {
        level = vtrace::Level::Summary;
    }
    vtrace::set_level(level);
    TRACE_OUT.set(trace_out).expect("tracing initialised once");
}

/// Drains the trace: JSONL to `--trace-out` (if one was given to
/// [`init_tracing`]) and the human-readable span-tree / metrics summary
/// to stderr. Stdout is never touched, so report output stays
/// byte-identical with tracing on or off.
pub fn finish_tracing(tool: &'static str) {
    if !vtrace::enabled() {
        return;
    }
    let report = vtrace::drain();
    if let Some(Some(path)) = TRACE_OUT.get() {
        if let Err(e) = std::fs::write(path, report.to_jsonl()) {
            eprintln!("[error] {tool}: write trace {path}: {e}");
            std::process::exit(EXIT_RUNTIME);
        }
    }
    eprint!("{}", report.summary());
}

/// Ends a run that got past parsing with exit `code` (one of
/// [`EXIT_RUNTIME`], [`EXIT_CRASH`], [`EXIT_GATE`], [`EXIT_INFEASIBLE`],
/// [`EXIT_CHAOS`]): logs `msg` through vtrace (always reaches stderr)
/// and flushes the trace first, so a failed run leaves the same
/// telemetry artifacts a successful one would.
pub fn fail(tool: &'static str, code: i32, msg: &str) -> ! {
    vtrace::error(tool, msg);
    finish_tracing(tool);
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use vcodec::{CodecFamily, Preset};

    fn parse(command: &'static Command, args: &[&str]) -> Flags {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Flags::parse(command.name.to_string(), command, &args)
    }

    fn vbench(name: &str) -> &'static Command {
        VBENCH.iter().find(|c| c.name == name).expect("a vbench command")
    }

    #[test]
    fn getters_read_the_parsed_table() {
        let flags = parse(
            vbench("batch"),
            &["--workers", "3", "--stream", "--window", "4", "--fault-plan", "seed=7"],
        );
        assert_eq!(resolve_workers(&flags), 3);
        assert!(flags.switch("stream"));
        assert!(!flags.switch("hedge"));
        assert_eq!(flags.positive::<usize>("window"), Some(4));
        assert_eq!(flags.value("fault-plan"), Some("seed=7"));
        assert_eq!(flags.get::<u32>("max-retries"), None);
    }

    #[test]
    fn choice_matches_display_ignoring_case() {
        let flags = parse(vbench("score"), &["--scenario", "vod", "--family", "HEVC"]);
        assert_eq!(flags.choice("scenario", &Scenario::ALL), Some(Scenario::Vod));
        assert_eq!(flags.choice("family", &CodecFamily::ALL), Some(CodecFamily::Hevc));
        assert_eq!(flags.choice("preset", &Preset::ALL), None);
    }

    #[test]
    fn forwarding_keeps_only_the_named_groups_in_argv_order() {
        let mut flags = parse(
            vbench("dispatch"),
            &["--procs", "2", "--hedge", "--scale", "tiny", "--log-level", "summary"],
        );
        flags.set_default("videos", "desktop,cat");
        flags.set_default("scale", "full");
        assert_eq!(
            flags.forward(&[SCALE, JOB, POLICY, "--log-level"]),
            ["--hedge", "--scale", "tiny", "--log-level", "summary", "--videos", "desktop,cat"]
        );
        assert_eq!(flags.forward(&[SCALE]), ["--scale", "tiny"]);
    }

    #[test]
    fn the_worker_table_accepts_what_dispatch_and_chaos_append() {
        let worker = vbench("worker");
        for name in ["journal", "workers", "worker-id", "run", "io-fault-plan", "trace-out"] {
            assert!(worker.find(name).is_some(), "--{name}");
        }
        for group in [SCALE, JOB, POLICY, TELEMETRY] {
            assert!(entries(group).all(|f| worker.find(f.name) == Some(f)), "{group}");
        }
    }

    /// Each spec is a run of `--name [HINT]`, no command lists a flag
    /// twice, and a name is a switch in every table or in none.
    #[test]
    fn the_tables_are_well_formed() {
        let mut switches: Vec<(&str, bool)> = Vec::new();
        for command in VBENCH.iter().chain([&TABLEGEN]) {
            assert!(command.flags.iter().all(|spec| spec.starts_with("--")), "{}", command.name);
            let flags: Vec<Flag> = command.flags().collect();
            for (i, f) in flags.iter().enumerate() {
                let twice = flags[..i].iter().any(|g| g.name == f.name);
                assert!(!twice, "{}: --{} twice", command.name, f.name);
                match switches.iter().find(|(name, _)| *name == f.name) {
                    Some(&(_, switch)) => assert_eq!(switch, f.hint.is_none(), "--{}", f.name),
                    None => switches.push((f.name, f.hint.is_none())),
                }
            }
        }
    }

    /// Every `vbench <cmd> --flag` written in the docs, the verify skill
    /// and CI must be in `<cmd>`'s table, so a documented command line
    /// cannot drift into a usage error.
    #[test]
    fn every_documented_invocation_uses_its_commands_flags() {
        let docs = [
            ("README.md", include_str!("../../../README.md")),
            ("DESIGN.md", include_str!("../../../DESIGN.md")),
            ("EXPERIMENTS.md", include_str!("../../../EXPERIMENTS.md")),
            ("SKILL.md", include_str!("../../../.claude/skills/verify/SKILL.md")),
            ("ci.yml", include_str!("../../../.github/workflows/ci.yml")),
        ];
        let mut checked = 0;
        for (doc, text) in docs {
            let text = text.replace("\\\n", " ");
            for line in text.lines() {
                for (at, _) in line.match_indices("vbench ") {
                    let mut words = line[at + "vbench ".len()..].split_whitespace();
                    let Some(word) = words.next() else { continue };
                    let name = word.trim_end_matches(|c: char| !c.is_ascii_alphabetic());
                    let Some(command) = VBENCH.iter().find(|c| c.name == name) else { continue };
                    if name.len() != word.len() {
                        continue; // the span ends right after the command name
                    }
                    for word in words {
                        if word.starts_with(['|', '>', ';', '&', '#', ')']) {
                            break;
                        }
                        let (word, ends) =
                            word.split_once('`').map_or((word, false), |(w, _)| (w, true));
                        if let Some(flag) = word.strip_prefix("--") {
                            assert!(
                                command.find(flag).is_some(),
                                "{doc}: `vbench {name}` does not take --{flag}: {line}"
                            );
                            checked += 1;
                        }
                        if ends {
                            break;
                        }
                    }
                }
            }
        }
        assert!(checked > 100, "only {checked} documented flags found");
    }
}
