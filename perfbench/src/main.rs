//! `bench` — runs one benchmark workload and prints its metrics.
//!
//! ```text
//! bench run --workload W [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]
//! bench run --smoke
//! ```
//!
//! Run it from the repository root. The last line of standard output is
//! the result: `{"correct", "attempted", "failed", "metrics"}`, with the
//! end-to-end metrics, or with `--trace 1` the per-layer metrics of a
//! separate traced pass whose spans go to `--spans` (default
//! `perfbench/target/spans-<workload>.json`). The line before it carries
//! the host fingerprint and the run's details. `--smoke` runs every
//! workload at a tiny size and exits non-zero if any output is wrong.

use std::path::PathBuf;
use std::process::ExitCode;

use tmi_perfbench::{host, run, Options, Workload, FULL, SMOKE};

const USAGE: &str =
    "usage: bench run --workload <paper_quick|repair_full|synth_private|synth_contended> \
[--seed N] [--seconds S] [--trace 0|1] [--spans PATH]\n       bench run --smoke";

enum Command {
    Run(Options),
    Smoke,
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    if it.next().map(String::as_str) != Some("run") {
        return Err("expected the `run` command".to_string());
    }
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut spans = None;
    let mut smoke = false;
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(bad)?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if smoke {
        return Ok(Command::Smoke);
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run(Options {
        workload,
        seed,
        seconds,
        trace,
        sizes: FULL,
        root: PathBuf::from("."),
        spans_path: spans.unwrap_or_else(|| {
            PathBuf::from(format!("perfbench/target/spans-{}.json", workload.name()))
        }),
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let set = host::tmi_env_vars();
    if !set.is_empty() {
        eprintln!(
            "bench: refusing to run with {} set: the simulator reads these as defaults, \
             so the run would not measure the benchmarked configuration",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let runs: Vec<Options> = match command {
        Command::Run(opts) => vec![opts],
        Command::Smoke => Workload::ALL
            .into_iter()
            .map(|workload| Options {
                workload,
                seed: 1,
                seconds: 0.0,
                trace: false,
                sizes: SMOKE,
                root: PathBuf::from("."),
                spans_path: PathBuf::new(),
            })
            .collect(),
    };
    let smoke = runs.len() > 1;
    let mut all_correct = true;
    for opts in &runs {
        match run(opts) {
            Ok(report) => {
                all_correct &= report.failures.is_empty();
                println!("{}", report.detail_json());
                println!("{}", report.result_json());
            }
            Err(e) => {
                eprintln!("bench: {} failed to run: {e}", opts.workload.name());
                return ExitCode::from(1);
            }
        }
    }
    if smoke && !all_correct {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
