//! Diagnostic probe: times suite workloads under a configurable spec and
//! prints one line per run with what the detector saw and what repair
//! did.
//!
//! Accepts the shared [`JobSpec`] flag set (`--runtime`, `--scale`,
//! `--threads`, `--seed`, ...). With `--workload` it probes that one
//! workload; without, it sweeps the whole suite under the given spec. A
//! bare number is accepted as the scale (default 0.03). A workload that
//! is not in the suite, litmus jobs included, exits 2 with the usage line
//! before anything runs.
//!
//! Detector visibility on one repair cell, for example:
//!
//! ```text
//! probe --workload shptr-relaxed --runtime tmi-protect --threads 4 \
//!       --tick-interval 400000 --scale 0.5 --misaligned
//! ```
use std::time::Instant;

use tmi_bench::spec::work_scale;
use tmi_bench::{Executor, JobSpec};

/// Prints `msg` and the usage line, and exits 2.
fn refuse(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: probe [SCALE] {}", JobSpec::cli_usage());
    std::process::exit(2);
}

fn main() {
    let mut spec = JobSpec::new("");
    spec.scale = 0.03;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if let Ok(scale) = arg.parse::<f64>() {
            spec.scale = work_scale("SCALE", scale).unwrap_or_else(|e| refuse(&e));
            continue;
        }
        match spec.apply_cli_arg(&arg, &mut || args.next()) {
            Ok(true) => {}
            Ok(false) => refuse(&format!("unknown argument {arg:?}")),
            Err(e) => refuse(&e),
        }
    }
    // Refuse what the harness cannot build before anything runs.
    if !spec.workload.is_empty() && tmi_workloads::by_name(&spec.workload).is_none() {
        if spec.is_litmus() {
            refuse(&format!(
                "probe runs suite workloads, and {} is a litmus job: run litmus jobs \
                 with fuzz_consistency, or with tmi_client against tmi_serve",
                spec.workload
            ));
        }
        refuse(&format!("unknown workload {:?}", spec.workload));
    }

    let exec = Executor::from_env();
    let names: Vec<String> = if spec.workload.is_empty() {
        tmi_workloads::SUITE.iter().map(|s| s.to_string()).collect()
    } else {
        vec![spec.workload.clone()]
    };
    for name in names {
        let one = JobSpec {
            workload: name.clone(),
            ..spec.clone()
        };
        let t0 = Instant::now();
        let job = exec.run(vec![one]).remove(0);
        match &job.outcome {
            Ok(r) => println!(
                "{name:15} host={:6.2}s ops={:9} cycles={:12} hitm={:9} ok={} \
                 perf_events={} perf_records={} repaired={} commits={} \
                 converted_at={:?} halt={:?}",
                t0.elapsed().as_secs_f64(),
                r.ops,
                r.cycles,
                r.hitm_events,
                r.ok(),
                r.perf_events,
                r.perf_records,
                r.repaired,
                r.commits,
                r.converted_at,
                r.halt
            ),
            Err(e) => println!("{name:15} FAILED: {e}"),
        }
    }
}
