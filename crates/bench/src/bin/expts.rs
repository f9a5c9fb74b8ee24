//! `expts` — regenerate the paper's tables and figures from the command
//! line, and run the bench suites.
//!
//! ```text
//! expts                  # usage: every mode, experiment and scenario
//! expts all              # run every experiment (slow; fig15/21 sweep full grids)
//! expts fig16 alg1       # run a selection
//! expts <mode> [args]    # run one bench suite, e.g. `expts --fleet --quick`
//! ```
//!
//! Each bench mode in [`MODES`] maps one flag to a suite in
//! `llama_bench` that returns a [`Report`]. Every mode then takes the
//! same path: print the report's summary, write its artifacts (JSON;
//! `--matrix` adds markdown and CSV, `--trace` the JSONL event log,
//! `--bench-all` writes every `BENCH_PR*.json`) and exit non-zero when
//! any bound in the report fails — the CI smokes. `--quick` trims the
//! sample budget for fast smoke runs. Default outputs land under
//! `target/` (untracked); the committed references are the
//! `BENCH_PR*.json` files at the repository root.

use std::env;
use std::process::ExitCode;

use llama_bench::matrix::{MatrixAxes, POLICIES};
use llama_bench::report::Report;
use llama_bench::{chaos, joint, matrix, perf, scenario, trace, SEED};

/// One bench mode: its flag, its arguments, and what it runs.
struct Mode {
    flag: &'static str,
    /// Argument syntax, for the usage text.
    args: &'static str,
    /// What the mode does, for the usage text.
    about: &'static str,
    /// Fewest and most positional arguments.
    positionals: (usize, usize),
    /// Switches the mode accepts besides its own flag.
    switches: &'static [&'static str],
    /// Options that take a value.
    options: &'static [&'static str],
    run: Run,
}

/// What a mode runs.
enum Run {
    /// A timing suite (see [`bench()`]).
    Bench {
        run: fn(bool) -> Report,
        out: &'static str,
        reference: &'static str,
    },
    /// A gated suite: its reports and the files to write.
    Suite(fn(&Opts) -> Result<Vec<Artifact>, String>),
    /// An ungated text report, printed only.
    Text(fn(&Opts) -> Result<String, String>),
}

/// A report plus the `(path, body)` files written for it.
struct Artifact {
    report: Report,
    files: Vec<(String, String)>,
}

impl Artifact {
    /// The report as one JSON file.
    fn json(path: String, report: Report) -> Self {
        let body = report.to_json();
        Self {
            report,
            files: vec![(path, body)],
        }
    }
}

/// A mode's parsed arguments.
#[derive(Default)]
struct Opts<'a> {
    positionals: Vec<&'a str>,
    switches: Vec<&'a str>,
    options: Vec<(&'a str, &'a str)>,
}

impl Opts<'_> {
    fn quick(&self) -> bool {
        self.switches.contains(&"--quick")
    }

    /// Positional `i`, or `default`.
    fn arg(&self, i: usize, default: &str) -> String {
        self.positionals
            .get(i)
            .copied()
            .unwrap_or(default)
            .to_string()
    }
}

const QUICK: &[&str] = &["--quick"];
const MATRIX_AXES: &[&str] = &[
    "--rooms",
    "--policy",
    "--fleets",
    "--devices",
    "--threads",
    "--shards",
];

/// A timing-suite mode: `<flag> [path] [--quick]`, running `run` and
/// writing its JSON to the path (default `out`); `reference` names the
/// committed run at the repository root that `--bench-all` regenerates.
const fn bench(
    flag: &'static str,
    about: &'static str,
    run: fn(bool) -> Report,
    out: &'static str,
    reference: &'static str,
) -> Mode {
    Mode {
        flag,
        args: "[path] [--quick]",
        about,
        positionals: (0, 1),
        switches: QUICK,
        options: &[],
        run: Run::Bench {
            run,
            out,
            reference,
        },
    }
}

/// Every bench mode. When several flags are given, the first listed
/// here wins (so `--chaos <room> --joint` is the chaos sweep with its
/// joint smoke, not the joint suite).
const MODES: [Mode; 13] = [
    Mode {
        flag: "--trace-overhead",
        args: "[room] [path]",
        about: "gate ring-recorder overhead vs the null recorder",
        positionals: (0, 2),
        switches: &[],
        options: &[],
        run: Run::Suite(overhead),
    },
    Mode {
        flag: "--trace",
        args: "<room> [path]",
        about: "capture a deterministic JSONL event log of a room",
        positionals: (1, 2),
        switches: &[],
        options: &[],
        run: Run::Suite(trace),
    },
    Mode {
        flag: "--scenario",
        args: "<name> [path]",
        about: "simulate a room from the scenario zoo",
        positionals: (1, 2),
        switches: &[],
        options: &[],
        run: Run::Suite(scenario),
    },
    Mode {
        flag: "--chaos",
        args: "[room] [path] [--joint]",
        about: "sweep fault rates over a room (plus the joint smoke)",
        positionals: (0, 2),
        switches: &["--joint"],
        options: &[],
        run: Run::Suite(chaos),
    },
    Mode {
        flag: "--matrix",
        args: "[base] [--quick] [--rooms a,b] [--policy a,b] [--fleets a,b] [--devices a,b] \
               [--threads a,b] [--shards a,b]",
        about: "run the serving cross product, write <base>.{md,csv,json}",
        positionals: (0, 1),
        switches: QUICK,
        options: MATRIX_AXES,
        run: Run::Suite(matrix),
    },
    bench(
        "--sharded",
        "SoA grid, arena ticks and thread scaling",
        perf::run_sharded,
        "target/sharded-report.json",
        "BENCH_PR8.json",
    ),
    bench(
        "--joint",
        "joint vs independent multi-surface serving on the zoo",
        joint::run_joint,
        "target/joint-report.json",
        "BENCH_PR9.json",
    ),
    Mode {
        flag: "--bench-all",
        args: "[dir] [--quick]",
        about: "regenerate every BENCH_PR*.json in one run",
        positionals: (0, 1),
        switches: QUICK,
        options: &[],
        run: Run::Suite(bench_all),
    },
    bench(
        "--mobility",
        "mobility simulator, warm vs cold",
        perf::run_mobility,
        "target/mobility-report.json",
        "BENCH_PR5.json",
    ),
    Mode {
        flag: "--calibrate-fig20",
        args: "[samples]",
        about: "sweep link calibration knobs vs the paper's 10 dB gap",
        positionals: (0, 1),
        switches: &[],
        options: &[],
        run: Run::Text(calibrate),
    },
    bench(
        "--panels",
        "panel array + many-fleet server",
        perf::run_panels,
        "target/panel-report.json",
        "BENCH_PR4.json",
    ),
    bench(
        "--fleet",
        "fleet engine, shared plan vs naive loop",
        perf::run_fleet,
        "target/fleet-report.json",
        "BENCH_PR3.json",
    ),
    bench(
        "--bench-json",
        "batched surface-response engine vs naive",
        perf::run,
        "target/bench-report.json",
        "BENCH_PR2.json",
    ),
];

fn bench_all(o: &Opts) -> Result<Vec<Artifact>, String> {
    let dir = o.arg(0, ".");
    let mut benches: Vec<_> = MODES
        .iter()
        .filter_map(|mode| match mode.run {
            Run::Bench { run, reference, .. } => Some((reference, run)),
            _ => None,
        })
        .collect();
    benches.sort_by_key(|&(reference, _)| reference);
    Ok(benches
        .into_iter()
        .map(|(reference, run)| Artifact::json(format!("{dir}/{reference}"), run(o.quick())))
        .collect())
}

fn scenario(o: &Opts) -> Result<Vec<Artifact>, String> {
    let name = o.positionals[0];
    let path = o.arg(1, &format!("target/scenario-{name}.json"));
    Ok(vec![Artifact::json(path, scenario::run(name, SEED)?)])
}

fn chaos(o: &Opts) -> Result<Vec<Artifact>, String> {
    let room = o.arg(0, "office-floor");
    let path = o.arg(1, &format!("target/chaos-{room}.json"));
    let joint = o.switches.contains(&"--joint");
    Ok(vec![Artifact::json(path, chaos::run(&room, SEED, joint)?)])
}

fn trace(o: &Opts) -> Result<Vec<Artifact>, String> {
    let room = o.positionals[0];
    let path = o.arg(1, &format!("target/trace-{room}.jsonl"));
    let (report, jsonl) = trace::run(room, SEED)?;
    let header = format!("{}.json", path.trim_end_matches(".jsonl"));
    let body = report.to_json();
    Ok(vec![Artifact {
        report,
        files: vec![(path, jsonl), (header, body)],
    }])
}

fn overhead(o: &Opts) -> Result<Vec<Artifact>, String> {
    let room = o.arg(0, "office-floor");
    let path = o.arg(1, &format!("target/trace-overhead-{room}.json"));
    Ok(vec![Artifact::json(
        path,
        trace::run_overhead(&room, SEED, 3)?,
    )])
}

fn matrix(o: &Opts) -> Result<Vec<Artifact>, String> {
    let mut axes = MatrixAxes::default_axes();
    for &(flag, raw) in &o.options {
        match flag {
            "--rooms" => {
                axes.rooms = MatrixAxes::parse_names(flag, raw, &MatrixAxes::known_rooms())?
            }
            "--policy" => axes.policies = MatrixAxes::parse_names(flag, raw, &POLICIES)?,
            "--fleets" => axes.fleets = MatrixAxes::parse_list(flag, raw)?,
            "--devices" => axes.devices = MatrixAxes::parse_list(flag, raw)?,
            "--threads" => axes.threads = MatrixAxes::parse_list(flag, raw)?,
            _ => axes.shards = MatrixAxes::parse_list(flag, raw)?,
        }
    }
    let base = o.arg(0, "target/matrix");
    let report = matrix::run(axes, o.quick())?;
    let files = vec![
        (format!("{base}.md"), report.to_markdown()),
        (format!("{base}.csv"), report.to_csv()),
        (format!("{base}.json"), report.to_json()),
    ];
    Ok(vec![Artifact { report, files }])
}

fn calibrate(o: &Opts) -> Result<String, String> {
    let samples = match o.positionals.first() {
        None => 480,
        Some(n) => match n.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => return Err("--calibrate-fig20 takes an optional positive sample count".into()),
        },
    };
    Ok(llama_bench::calibrate::report(SEED, samples))
}

/// Splits `args` into `mode`'s positionals, switches and options,
/// rejecting anything else.
fn parse<'a>(mode: &Mode, args: &'a [String]) -> Result<Opts<'a>, String> {
    let mut opts = Opts::default();
    let mut args = args.iter().map(String::as_str);
    while let Some(arg) = args.next() {
        if arg == mode.flag {
            continue;
        } else if mode.options.contains(&arg) {
            let value = args
                .next()
                .ok_or_else(|| format!("{arg} needs a comma-separated list"))?;
            opts.options.push((arg, value));
        } else if mode.switches.contains(&arg) {
            opts.switches.push(arg);
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag {arg} in {} mode", mode.flag));
        } else if llama_bench::ALL_IDS.contains(&arg) || arg == "all" {
            return Err(format!(
                "experiment ids cannot be combined with {}; got {arg}",
                mode.flag
            ));
        } else {
            opts.positionals.push(arg);
        }
    }
    let (fewest, most) = mode.positionals;
    if !(fewest..=most).contains(&opts.positionals.len()) {
        return Err(format!("usage: expts {} {}", mode.flag, mode.args));
    }
    Ok(opts)
}

/// Prints each report's summary, writes its files, and fails when any
/// report's bounds do not all hold.
fn finish(artifacts: Vec<Artifact>) -> ExitCode {
    let mut pass = true;
    for Artifact { report, files } in artifacts {
        print!("{}", report.summary());
        for (path, body) in files {
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {path}");
        }
        for failure in report.failures() {
            eprintln!("error: {} gate failed: {failure}", report.suite);
        }
        pass &= report.passes();
    }
    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: expts <id>... | all | <mode>");
        for mode in &MODES {
            eprintln!("  {} {}\n      {}", mode.flag, mode.args, mode.about);
        }
        eprintln!("experiments: {}", llama_bench::ALL_IDS.join(", "));
        eprintln!("scenarios: {}", llama_core::rooms::SCENARIOS.join(", "));
        return ExitCode::SUCCESS;
    }

    if let Some(mode) = MODES.iter().find(|m| args.iter().any(|a| a == m.flag)) {
        let outcome = parse(mode, &args).and_then(|opts| match mode.run {
            Run::Bench { run, out, .. } => Ok(finish(vec![Artifact::json(
                opts.arg(0, out),
                run(opts.quick()),
            )])),
            Run::Suite(run) => run(&opts).map(finish),
            Run::Text(run) => run(&opts).map(|text| {
                print!("{text}");
                ExitCode::SUCCESS
            }),
        });
        return outcome.unwrap_or_else(|e| {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        });
    }

    let ids: Vec<&str> = if args.len() == 1 && args[0] == "all" {
        llama_bench::ALL_IDS.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    let mut failed = false;
    for id in ids {
        match llama_bench::run(id) {
            Ok(report) => {
                println!("{report}");
            }
            Err(e) => {
                eprintln!("error: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
