//! `repro` — regenerates the paper's tables and figures in parallel.
//!
//! ```text
//! Usage:
//!   repro list [--quick|--full]
//!   repro run <id|glob>... [--quick|--full] [--threads N] [--out DIR]
//!                          [--seed SEED] [--no-progress] [--verbose]
//!   repro serve [--addr HOST:PORT] [--threads N] [--cache-dir DIR]
//!               [--workers K] [--seed SEED]
//! ```
//!
//! `list` prints the scenario registry: stable id, paper cross-reference,
//! and sweep width at the selected scale. `run` selects scenarios by exact
//! id, glob (`'table*'`, `'fig?'`) or the keyword `all`, fans their sweep
//! points out across `--threads` workers (default: all cores), prints each
//! result table, writes Markdown/CSV/JSON copies under the output directory
//! (default `results/`), and records the run in `results/manifest.json`.
//! `serve` keeps the whole registry resident behind the experiment service
//! (job queue + result cache + metrics; see `crates/service`).
//!
//! Results are bit-identical at any `--threads` value: every point's seed is
//! derived from `(--seed, scenario id, point index)` before execution.

use analysis::table::Table;
use bench::Scale;
use runner::manifest::write_manifest;
use runner::pool::default_threads;
use runner::{execute, RunConfig};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

// One seed grammar for the whole system: the CLI accepts exactly what the
// service's job specs accept, so the same seed string always lands on the
// same cache key.
use service::job::parse_seed;

/// Set once the stdout reader hangs up (`repro ... | head`); later emits
/// become no-ops so a closed pipe never aborts a `run` mid-way — the result
/// files and manifest are the product and must still be written.
static STDOUT_GONE: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Prints a line to stdout without panicking when the reader hangs up
/// (`println!` would abort with a broken-pipe panic: Rust clears the default
/// `SIGPIPE` disposition, and `unsafe_code` is denied workspace-wide so it
/// cannot be restored). On a closed pipe, stdout echo is suppressed for the
/// rest of the process; any other stdout error is fatal.
fn emit(text: &dyn std::fmt::Display) {
    use std::sync::atomic::Ordering;
    if STDOUT_GONE.load(Ordering::Relaxed) {
        return;
    }
    let mut stdout = std::io::stdout().lock();
    if let Err(error) = writeln!(stdout, "{text}") {
        if error.kind() == std::io::ErrorKind::BrokenPipe {
            STDOUT_GONE.store(true, Ordering::Relaxed);
            return;
        }
        eprintln!("error: could not write to stdout: {error}");
        std::process::exit(1);
    }
}

const USAGE: &str = "usage:\n  repro list [--quick|--full]\n  repro run <id|glob>... \
    [--quick|--full] [--threads N] [--out DIR] [--seed SEED] [--no-progress]\n           \
    [--verbose]\n  \
    repro check [<id|glob>...] [--verbose]\n  \
    repro trace <id|glob>... [--quick|--full] [--out DIR]\n  \
    repro lint [DIR]\n  \
    repro bench-sim [--quick|--full] [--out DIR] [--baseline PATH] [--max-regress PCT]\n  \
    repro serve [--addr HOST:PORT] [--threads N] [--cache-dir DIR] [--workers K]\n              \
    [--seed SEED]\n\
    \nscenario ids (see `repro list`): table1 table2 table4 table5 table6 table7\n\
    fig4 fig5-7 fig6 fig8 bandwidth defenses sidechannel hierarchy-matrix; globs\n\
    like 'table*' and the keyword `all` also work\n\
    \ncheck statically verifies the compiled trace programs of every point of\n\
    every selected scenario, as run --full builds them, without executing a\n\
    simulated cycle; --verbose prints per-scenario program stats (steps, ops,\n\
    chases, anchors) and phase span coverage. lint runs the workspace determinism linter (crates/lint)\n\
    over DIR (default: the workspace root), printing one JSON finding per\n\
    line; both exit non-zero on any finding\n\
    \ntrace runs point 0 of each selected scenario with cycle-domain\n\
    telemetry enabled and writes, per scenario: a Perfetto-loadable\n\
    TRACE_<id>_trace.json, a TRACE_<id>_events.ndjson event stream, and\n\
    per-phase cycle, per-frame BER and chase-latency tables under --out\n\
    \nbench-sim measures cache-hierarchy throughput (accesses/sec) on a set of\n\
    canonical traces (incl. the telemetry-overhead row wb-channel-traced),\n\
    writes BENCH_sim.{md,csv,json} under --out, and exits non-zero when a\n\
    trace regresses more than --max-regress percent (default 30) below the\n\
    --baseline table, or when wb-frame falls more than 3% (the null-sink\n\
    telemetry gate)\n\
    \nserve starts the resident experiment service (default addr 127.0.0.1:7878;\n\
    --addr with port 0 picks an ephemeral port and prints it): POST /jobs queues\n\
    scenario runs, results are cached by (scenario, scale, seed) under\n\
    --cache-dir, GET /metrics exposes request/queue/cache/pool counters, and\n\
    POST /shutdown drains in-flight jobs before exiting";

/// Argument error: usage on stderr, exit 2. An explicit `--help` instead
/// prints to stdout and exits 0 (see `main`).
fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Which positional arguments a subcommand takes: scenario ids and globs,
/// or `lint`'s directory.
enum Positionals {
    /// None at all.
    None,
    /// Any number, including none.
    Optional,
    /// One or more.
    AtLeastOne,
    /// None or one.
    AtMostOne,
}

/// One subcommand: the flags it accepts, the positionals it takes and the
/// function that runs it.
struct Subcommand {
    name: &'static str,
    flags: &'static [&'static str],
    positionals: Positionals,
    main: fn(Options) -> ExitCode,
}

/// Every subcommand of `repro`. Any flag outside a subcommand's row is a
/// usage error naming the flag, never silently ignored. `--quick`/`--full`
/// apply to neither `check` (the gate is compile-only) nor `serve` (scale is
/// a property of each POSTed job).
const SUBCOMMANDS: [Subcommand; 7] = [
    Subcommand {
        name: "list",
        flags: &["--quick", "--full"],
        positionals: Positionals::None,
        main: list,
    },
    Subcommand {
        name: "run",
        flags: &[
            "--quick",
            "--full",
            "--threads",
            "--out",
            "--seed",
            "--no-progress",
            "--verbose",
        ],
        positionals: Positionals::AtLeastOne,
        main: run,
    },
    Subcommand {
        name: "check",
        flags: &["--verbose"],
        positionals: Positionals::Optional,
        main: check,
    },
    Subcommand {
        name: "trace",
        flags: &["--quick", "--full", "--out"],
        positionals: Positionals::AtLeastOne,
        main: trace,
    },
    Subcommand {
        name: "lint",
        flags: &[],
        positionals: Positionals::AtMostOne,
        main: lint_workspace,
    },
    Subcommand {
        name: "bench-sim",
        flags: &["--quick", "--full", "--out", "--baseline", "--max-regress"],
        positionals: Positionals::None,
        main: bench_sim,
    },
    Subcommand {
        name: "serve",
        flags: &["--addr", "--threads", "--cache-dir", "--workers", "--seed"],
        positionals: Positionals::None,
        main: serve,
    },
];

/// A parsed command line: the positionals and every option, each at its
/// default unless a flag set it.
#[derive(Debug, PartialEq)]
struct Options {
    positionals: Vec<String>,
    scale: Scale,
    out_dir: PathBuf,
    threads: usize,
    root_seed: u64,
    progress: bool,
    verbose: bool,
    baseline: Option<PathBuf>,
    max_regress: f64,
    addr: String,
    cache_dir: Option<PathBuf>,
    workers: usize,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            positionals: Vec::new(),
            scale: Scale::Quick,
            out_dir: PathBuf::from("results"),
            threads: default_threads(),
            root_seed: bench::SEED,
            progress: true,
            verbose: false,
            baseline: None,
            max_regress: 0.30,
            addr: "127.0.0.1:7878".to_owned(),
            cache_dir: None,
            workers: 2,
        }
    }
}

/// What a command line asks for.
enum Command {
    Help,
    Run(&'static Subcommand, Options),
}

/// Parses the arguments after the program name: every flag first, in any
/// order, then the subcommand's row of [`SUBCOMMANDS`], checked once.
///
/// # Errors
///
/// Returns the message for a usage error: a missing or unknown subcommand,
/// an unknown flag, a missing or malformed flag value, a flag the
/// subcommand does not take, or positionals it does not take.
fn parse(args: &[String]) -> Result<Command, String> {
    let Some((name, rest)) = args.split_first() else {
        return Err("missing subcommand".to_owned());
    };
    if name == "--help" || name == "-h" {
        return Ok(Command::Help);
    }
    let mut options = Options::default();
    let mut flags = Vec::new();
    let mut rest = rest.iter();
    while let Some(arg) = rest.next() {
        // A flag's value must not itself look like a flag: `--out
        // --no-progress` should be the usage error it almost certainly is,
        // not a directory literally named "--no-progress".
        let mut value = || {
            rest.next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => return Ok(Command::Help),
            "--quick" => options.scale = Scale::Quick,
            "--full" => options.scale = Scale::Full,
            "--no-progress" => options.progress = false,
            "--verbose" => options.verbose = true,
            "--threads" => options.threads = at_least_one(arg, value()?)?,
            "--workers" => options.workers = at_least_one(arg, value()?)?,
            "--seed" => {
                options.root_seed = parse_seed(value()?)
                    .ok_or_else(|| format!("{arg} takes a decimal or 0x-hex u64"))?;
            }
            "--max-regress" => {
                options.max_regress = match value()?.parse::<f64>() {
                    Ok(pct) if (0.0..=100.0).contains(&pct) => pct / 100.0,
                    _ => return Err(format!("{arg} takes a percentage from 0 to 100")),
                };
            }
            "--out" => options.out_dir = PathBuf::from(value()?),
            "--baseline" => options.baseline = Some(PathBuf::from(value()?)),
            "--cache-dir" => options.cache_dir = Some(PathBuf::from(value()?)),
            "--addr" => options.addr = value()?.clone(),
            flag if flag.starts_with("--") => return Err(format!("unknown flag: {flag}")),
            positional => {
                options.positionals.push(positional.to_owned());
                continue;
            }
        }
        flags.push(arg.as_str());
    }
    let subcommand = SUBCOMMANDS
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown subcommand: {name}"))?;
    if let Some(flag) = flags.iter().find(|f| !subcommand.flags.contains(f)) {
        return Err(not_taken(flag, subcommand.name));
    }
    let count = options.positionals.len();
    let (fits, takes) = match subcommand.positionals {
        Positionals::None => (count == 0, "no arguments"),
        Positionals::Optional => (true, ""),
        Positionals::AtLeastOne => (count >= 1, "at least one scenario id or glob"),
        Positionals::AtMostOne => (count <= 1, "at most one directory"),
    };
    if !fits {
        return Err(format!("`repro {name}` takes {takes}"));
    }
    Ok(Command::Run(subcommand, options))
}

/// A count flag's value: a whole number of at least 1.
fn at_least_one(flag: &str, value: &str) -> Result<usize, String> {
    match value.parse() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("{flag} takes a whole number of at least 1")),
    }
}

/// The message for a flag that `repro <subcommand>` does not take, naming
/// the subcommands that do.
fn not_taken(flag: &str, subcommand: &str) -> String {
    match (flag, subcommand) {
        ("--quick" | "--full", "check") => {
            format!("{flag} does not apply to `repro check`: the gate is compile-only")
        }
        // Silently defaulting every job to quick while the operator believes
        // the *server* runs at full scale would be worse than refusing.
        ("--quick" | "--full", "serve") => format!(
            "{flag} does not apply to `repro serve`; set \"scale\" per job in the POST /jobs body"
        ),
        _ => {
            let takers: Vec<String> = SUBCOMMANDS
                .iter()
                .filter(|s| s.flags.contains(&flag))
                .map(|s| format!("`repro {}`", s.name))
                .collect();
            format!(
                "{flag} does not apply to `repro {subcommand}`, only to {}",
                takers.join(", ")
            )
        }
    }
}

fn main() -> ExitCode {
    // Not `std::env::args`, which panics on an argument that is not UTF-8.
    let args: Result<Vec<String>, _> = std::env::args_os()
        .skip(1)
        .map(std::ffi::OsString::into_string)
        .collect();
    let command = args
        .map_err(|arg| format!("argument is not valid UTF-8: {}", arg.to_string_lossy()))
        .and_then(|args| parse(&args));
    match command {
        Ok(Command::Help) => {
            emit(&USAGE);
            ExitCode::SUCCESS
        }
        Ok(Command::Run(subcommand, options)) => (subcommand.main)(options),
        Err(message) => {
            eprintln!("{message}");
            usage();
        }
    }
}

/// `repro list`: the registry grouped by paper section, one sub-table per
/// section, with each scenario's sweep-axis arity (points at the selected
/// scale) — so the size of a sweep like `hierarchy-matrix` is visible before
/// running it.
fn list(options: Options) -> ExitCode {
    let registry = bench::registry();
    let scale = options.scale;
    let scenarios = registry.scenarios();
    let mut sections: Vec<&str> = Vec::new();
    for scenario in scenarios {
        if !sections.contains(&scenario.section) {
            sections.push(scenario.section);
        }
    }
    emit(&format_args!(
        "Registered scenarios: {} across {} sections, {} points at --{} scale\n",
        scenarios.len(),
        sections.len(),
        scenarios.iter().map(|s| (s.points)(scale)).sum::<usize>(),
        scale.label(),
    ));
    for section in sections {
        let group: Vec<_> = scenarios.iter().filter(|s| s.section == section).collect();
        let mut table = Table::new(
            format!(
                "{section} ({} scenario{}, {} point{})",
                group.len(),
                if group.len() == 1 { "" } else { "s" },
                group.iter().map(|s| (s.points)(scale)).sum::<usize>(),
                if group.iter().map(|s| (s.points)(scale)).sum::<usize>() == 1 {
                    ""
                } else {
                    "s"
                },
            ),
            &["id", "paper ref", "points", "summary"],
        );
        for scenario in group {
            table.push_row([
                scenario.id.to_owned(),
                scenario.paper_ref.to_owned(),
                (scenario.points)(scale).to_string(),
                scenario.summary.to_owned(),
            ]);
        }
        emit(&table);
    }
    ExitCode::SUCCESS
}

/// `repro run`: the selected scenarios, their tables and the manifest.
fn run(options: Options) -> ExitCode {
    let registry = bench::registry();
    // A pattern that matches nothing is an error — a typo must not
    // "succeed" by writing an empty manifest.
    let selected = match registry.select(&options.positionals) {
        Ok(selected) => selected,
        Err(error) => {
            eprintln!("error: {error}");
            return ExitCode::FAILURE;
        }
    };
    let config = RunConfig {
        scale: options.scale,
        threads: options.threads,
        root_seed: options.root_seed,
        progress: options.progress,
    };
    let pool_before = runner::pool::stats();
    let mut runs = execute(&selected, &config);
    let mut failed = false;
    for run in &mut runs {
        if let Some(error) = &run.error {
            eprintln!("scenario {} failed: {error}", run.id);
            failed = true;
        }
        // The manifest derives its status and outputs columns from
        // `error` and `tables`; downstream tooling trusts both, so a
        // failed write must set the error AND drop the phantom stem.
        let mut unwritten = Vec::new();
        for (stem, table) in &run.tables {
            if let Err(error) = write(table, &options.out_dir, stem) {
                eprintln!("scenario {}: {error}", run.id);
                failed = true;
                unwritten.push(stem.clone());
                if run.error.is_none() {
                    run.error = Some(error);
                }
            }
        }
        run.tables.retain(|(stem, _)| !unwritten.contains(stem));
    }
    match write_manifest(&runs, &options.out_dir) {
        Ok(path) => emit(&format_args!("manifest -> {}", path.display())),
        Err(error) => {
            eprintln!("error: could not write manifest: {error}");
            failed = true;
        }
    }
    if options.verbose {
        let pool = runner::pool::stats().since(&pool_before);
        emit(&format_args!(
            "pool: tasks queued={} completed={} panicked={} peak queue depth={}",
            pool.tasks_queued, pool.tasks_completed, pool.tasks_panicked, pool.peak_queue_depth,
        ));
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `repro check`: the static gate over the selected scenarios' compiled
/// trace programs.
fn check(options: Options) -> ExitCode {
    let registry = bench::registry();
    let report = match bench::check::run_check(&registry, &options.positionals) {
        Ok(report) => report,
        Err(error) => {
            eprintln!("error: {error}");
            return ExitCode::FAILURE;
        }
    };
    if options.verbose {
        for check in &report.scenarios {
            emit(&format_args!(
                "check {:<16} {:>2} config{}, {:>3} programs; \
                 steps={} ops={} chases={} anchors={} phase coverage={}/{}",
                check.id,
                check.configs,
                if check.configs == 1 { " " } else { "s" },
                check.programs,
                check.stats.steps,
                check.stats.ops,
                check.stats.chases,
                check.stats.anchors,
                check.attributed_steps,
                check.total_steps,
            ));
        }
    }
    let findings: Vec<&String> = report.findings().collect();
    emit(&format_args!(
        "check: {} scenario{}, {} configs, {} programs verified, {} finding{}",
        report.scenarios.len(),
        if report.scenarios.len() == 1 { "" } else { "s" },
        report.configs(),
        report.programs(),
        findings.len(),
        if findings.len() == 1 { "" } else { "s" },
    ));
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        for finding in findings {
            eprintln!("check finding: {finding}");
        }
        ExitCode::FAILURE
    }
}

/// `repro trace`: each selected scenario's operating point with cycle-domain
/// telemetry, written as trace, event-stream and table artifacts.
fn trace(options: Options) -> ExitCode {
    let registry = bench::registry();
    let frames = match options.scale {
        Scale::Quick => bench::trace::QUICK_FRAMES,
        Scale::Full => bench::trace::FULL_FRAMES,
    };
    let artifacts = match bench::trace::run_trace(&registry, &options.positionals, frames) {
        Ok(artifacts) => artifacts,
        Err(error) => {
            eprintln!("error: {error}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = false;
    for artifact in &artifacts {
        // Raw artifacts first (trace JSON + NDJSON event stream),
        // like `write` they must not be lost to a closed stdout.
        if let Err(error) = std::fs::create_dir_all(&options.out_dir) {
            eprintln!(
                "error: could not create {}: {error}",
                options.out_dir.display()
            );
            return ExitCode::FAILURE;
        }
        let trace_path = options
            .out_dir
            .join(format!("TRACE_{}_trace.json", artifact.id));
        let ndjson_path = options
            .out_dir
            .join(format!("TRACE_{}_events.ndjson", artifact.id));
        let stem = format!("TRACE_{}_events", artifact.id);
        for (path, contents) in [
            (&trace_path, &artifact.chrome_json),
            (&ndjson_path, &artifact.event_stream.to_ndjson(&stem)),
        ] {
            if let Err(error) = std::fs::write(path, contents) {
                eprintln!("error: could not write {}: {error}", path.display());
                failed = true;
            }
        }
        for (suffix, table) in [
            ("phases", &artifact.phases),
            ("frames", &artifact.timeline),
            ("latency", &artifact.latency),
        ] {
            let stem = format!("TRACE_{}_{suffix}", artifact.id);
            if let Err(error) = write(table, &options.out_dir, &stem) {
                eprintln!("error: {error}");
                failed = true;
            }
        }
        emit(&format_args!(
            "trace {} [{}]: {} frames, {} events -> {} (load in Perfetto: ui.perfetto.dev)",
            artifact.id,
            artifact.config_label,
            artifact.frames,
            artifact.events.len(),
            trace_path.display(),
        ));
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `repro lint`: the workspace determinism linter over the given directory
/// or the workspace root.
fn lint_workspace(options: Options) -> ExitCode {
    let root = options
        .positionals
        .first()
        .map(PathBuf::from)
        .unwrap_or_else(default_lint_root);
    let report = match lint::lint_workspace(&root) {
        Ok(report) => report,
        Err(error) => {
            eprintln!("error: could not lint {}: {error}", root.display());
            return ExitCode::FAILURE;
        }
    };
    // One machine-readable JSON finding per line, like the service's
    // NDJSON endpoints.
    for finding in &report.findings {
        emit(&finding.to_json());
    }
    if report.findings.is_empty() {
        emit(&format_args!(
            "lint: clean ({} files scanned under {})",
            report.files,
            root.display()
        ));
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "lint: {} finding{} in {} files scanned",
            report.findings.len(),
            if report.findings.len() == 1 { "" } else { "s" },
            report.files,
        );
        ExitCode::FAILURE
    }
}

/// `repro bench-sim`: cache-hierarchy throughput on the canonical traces,
/// gated against `--baseline` when one is given.
fn bench_sim(options: Options) -> ExitCode {
    let results = bench::bench_sim::run(options.scale == Scale::Full);
    let table = bench::bench_sim::results_table(&results);
    if let Err(error) = write(&table, &options.out_dir, "BENCH_sim") {
        eprintln!("error: {error}");
        return ExitCode::FAILURE;
    }
    let Some(baseline_path) = options.baseline else {
        return ExitCode::SUCCESS;
    };
    let parsed = std::fs::read_to_string(&baseline_path)
        .map_err(|e| e.to_string())
        .and_then(|json| Table::from_json(&json));
    let baseline_table = match parsed {
        Ok(table) => table,
        Err(error) => {
            eprintln!(
                "error: could not read baseline {}: {error}",
                baseline_path.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let mut failures =
        bench::bench_sim::regressions(&results, &baseline_table, options.max_regress);
    // The null-sink telemetry gate is always tighter than the
    // general gate: wb-frame must stay within 3% of its baseline.
    failures.extend(bench::bench_sim::null_sink_regressions(
        &results,
        &baseline_table,
    ));
    // The sink-on gate compares rows of the same run, so it holds
    // regardless of absolute host speed.
    failures.extend(bench::bench_sim::traced_overhead_regressions(&results));
    if failures.is_empty() {
        emit(&format_args!(
            "bench-sim: within {:.0}% of {} (null-sink gate: wb-frame within {:.0}%, \
             sink-on gate: wb-channel-traced within {:.0}% of wb-channel)",
            options.max_regress * 100.0,
            baseline_path.display(),
            bench::bench_sim::NULL_SINK_MAX_REGRESS * 100.0,
            bench::bench_sim::TRACED_OVERHEAD_MAX * 100.0,
        ));
        ExitCode::SUCCESS
    } else {
        failures.dedup();
        for failure in failures {
            eprintln!("bench-sim regression: {failure}");
        }
        ExitCode::FAILURE
    }
}

/// `repro serve`: the resident experiment service.
fn serve(options: Options) -> ExitCode {
    let registry = bench::registry();
    let config = service::ServerConfig {
        addr: options.addr.clone(),
        job_workers: options.workers,
        max_job_threads: options.threads,
        cache_dir: options.cache_dir,
        default_seed: options.root_seed,
        ..service::ServerConfig::default()
    };
    let server = match service::Server::bind(registry, config) {
        Ok(server) => server,
        Err(error) => {
            eprintln!("error: could not bind {}: {error}", options.addr);
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        // Printed on stdout (line-buffered, so visible immediately
        // even when redirected): with `--addr ...:0` this line is
        // how callers learn the ephemeral port.
        Ok(local) => emit(&format_args!("[repro] serving on http://{local}")),
        Err(error) => {
            eprintln!("error: bound socket has no address: {error}");
            return ExitCode::FAILURE;
        }
    }
    match server.serve() {
        Ok(()) => {
            emit(&"[repro] shutdown complete; all jobs drained");
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("error: server failed: {error}");
            ExitCode::FAILURE
        }
    }
}

/// Writes the table's three formats, then echoes it to stdout — files first,
/// so a closed stdout pipe can never cost an artifact. On write failure
/// returns the error so the caller can fail the run and record it in the
/// manifest.
fn write(table: &Table, out_dir: &Path, stem: &str) -> Result<(), String> {
    let path = out_dir.join(stem);
    let result = table.write_all_formats(&path);
    emit(table);
    match result {
        Err(error) => Err(format!("could not write {}: {error}", path.display())),
        Ok(()) => {
            emit(&format_args!("  -> {}.{{md,csv,json}}\n", path.display()));
            Ok(())
        }
    }
}

/// The directory `repro lint` scans when none is given: the workspace root
/// this binary was compiled from, falling back to the current directory when
/// the binary has been moved to another machine.
fn default_lint_root() -> PathBuf {
    let compiled_from = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    if compiled_from.join("Cargo.toml").exists() {
        return compiled_from.canonicalize().unwrap_or(compiled_from);
    }
    PathBuf::from(".")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The subcommand and options a command line parses to.
    fn parsed(line: &str) -> Result<(&'static str, Options), String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        match parse(&args)? {
            Command::Run(subcommand, options) => Ok((subcommand.name, options)),
            Command::Help => Err("help".to_owned()),
        }
    }

    fn positionals(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| (*w).to_owned()).collect()
    }

    #[test]
    fn benchmark_and_ci_invocations_parse_to_their_values() {
        let cases = [
            (
                "run all --full --threads 1 --no-progress --seed 2022 --out bench-out",
                "run",
                Options {
                    positionals: positionals(&["all"]),
                    scale: Scale::Full,
                    threads: 1,
                    progress: false,
                    root_seed: 2022,
                    out_dir: PathBuf::from("bench-out"),
                    ..Options::default()
                },
            ),
            ("list", "list", Options::default()),
            (
                "run all --quick --threads 2 --out results-ci",
                "run",
                Options {
                    positionals: positionals(&["all"]),
                    threads: 2,
                    out_dir: PathBuf::from("results-ci"),
                    ..Options::default()
                },
            ),
            (
                "check all --verbose",
                "check",
                Options {
                    positionals: positionals(&["all"]),
                    verbose: true,
                    ..Options::default()
                },
            ),
            ("lint", "lint", Options::default()),
            (
                "trace fig5-7 --quick --out trace-ci",
                "trace",
                Options {
                    positionals: positionals(&["fig5-7"]),
                    out_dir: PathBuf::from("trace-ci"),
                    ..Options::default()
                },
            ),
            (
                "serve --addr 127.0.0.1:0 --cache-dir cache-ci --workers 1 --threads 2",
                "serve",
                Options {
                    addr: "127.0.0.1:0".to_owned(),
                    cache_dir: Some(PathBuf::from("cache-ci")),
                    workers: 1,
                    threads: 2,
                    ..Options::default()
                },
            ),
            (
                "bench-sim --quick --out bench-ci --baseline BENCH_baseline.json --max-regress 30",
                "bench-sim",
                Options {
                    out_dir: PathBuf::from("bench-ci"),
                    baseline: Some(PathBuf::from("BENCH_baseline.json")),
                    max_regress: 0.30,
                    ..Options::default()
                },
            ),
        ];
        for (line, name, options) in cases {
            assert_eq!(parsed(line), Ok((name, options)), "{line}");
        }
    }

    #[test]
    fn a_repeated_flag_keeps_its_last_value() {
        let (_, options) = parsed("run table1 --quick --full --seed 0x10 --seed 5").unwrap();
        assert_eq!(options.scale, Scale::Full);
        assert_eq!(options.root_seed, 5);
        assert_eq!(parsed("run --help --bogus").unwrap_err(), "help");
    }

    #[test]
    fn usage_errors_name_what_is_wrong() {
        for (line, message) in [
            ("list --out x", "--out does not apply to `repro list`"),
            ("lint --verbose", "--verbose does not apply to `repro lint`"),
            (
                "check --full",
                "--full does not apply to `repro check`: the gate is compile-only",
            ),
            (
                "serve --quick",
                "set \"scale\" per job in the POST /jobs body",
            ),
            ("run table1 --threads 0", "--threads takes a whole number"),
            ("run table1 --out --no-progress", "--out needs a value"),
            ("run", "`repro run` takes at least one scenario id or glob"),
            ("lint a b", "`repro lint` takes at most one directory"),
            ("frobnicate", "unknown subcommand: frobnicate"),
            ("list --frobnicate", "unknown flag: --frobnicate"),
        ] {
            let error = parsed(line).unwrap_err();
            assert!(error.contains(message), "{line}: {error}");
        }
        // The message says which subcommands do take the flag.
        assert_eq!(
            parsed("bench-sim --seed 1").unwrap_err(),
            "--seed does not apply to `repro bench-sim`, only to `repro run`, `repro serve`"
        );
    }
}
