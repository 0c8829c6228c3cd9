//! Differential consistency fuzz campaign over the TMI repair path.
//!
//! Generates seeded litmus programs ([`tmi_oracle::Litmus`]), runs each
//! through the full repair stack and replays the recorded schedule
//! through the sequentially consistent oracle, reporting any divergence
//! with a minimized program listing and the seed that reproduces it.
//!
//! ```text
//! fuzz_consistency [--seeds N] [--start N] [--ablate-code-centric]
//!                  [--transistency] [--enumerate N] [--ablate-shootdown]
//!                  [--workers N] [--faults SEED] [--trace out.json]
//! ```
//!
//! Exit status is 0 when the campaign matches its mode — zero
//! divergences with code-centric consistency on, at least one with the
//! `--ablate-code-centric` ablation (the Figs. 11–12 failure modes must
//! reproduce) — and 1 otherwise.
//!
//! `--transistency` fuzzes VM operations × consistency: each seed's
//! litmus program interleaves `mprotect`, COW breaks, forced T2P
//! conversions, twin commits and TLB shootdowns with the load/store
//! vocabulary. `--enumerate N` adds a bounded DPOR-lite sweep — up to N
//! deterministic VM-op placements per seed over a small base program.
//! `--ablate-shootdown` drops precise per-PTE TLB shootdowns in the
//! simulated kernel; the campaign must then find divergences (stale
//! translations serving dead frames), or the transistency fuzzer has no
//! teeth.
//!
//! `--faults SEED` runs every checked program under a seeded fault
//! schedule (fork vetoes, out-of-frames, transient mprotect faults, PEBS
//! drops, twin-allocation failures); the per-program fault seed is
//! derived from `(SEED, program seed)`, so any failure reproduces from
//! those two numbers alone. Repair may retry, degrade, roll back or
//! revert — the campaign must still find zero divergences, and (for
//! campaigns large enough to matter) every fault point must fire with
//! retry, rollback and efficacy-revert each exercised at least once.
//!
//! `--trace out.json` re-checks the campaign's first program (plain or
//! transistency, under the campaign's ablations and fault seed) with
//! telemetry tracing enabled after the campaign and writes the Chrome
//! `trace_event` timeline of that repaired run to `out.json` (stderr note
//! only; the campaign report on stdout is unchanged).
//!
//! `--seeds` must be at least 1: a campaign that checks nothing proves
//! nothing. The range `[--start, --start + --seeds)` must end within
//! `u64`: a range that wrapped past `u64::MAX` would check seed 0 again.

use tmi_bench::fuzz::{run_campaign, trace_first_seed, FuzzConfig};

const USAGE: &str = "usage: fuzz_consistency [--seeds N] [--start N] \
                     [--ablate-code-centric] [--transistency] [--enumerate N] \
                     [--ablate-shootdown] [--workers N] [--faults SEED] \
                     [--trace out.json]";

fn main() {
    let mut cfg = FuzzConfig::default();
    let mut trace_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut num = |name: &str| -> u64 {
            args.next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or_else(|| {
                    eprintln!("{name} expects a number");
                    std::process::exit(2);
                })
        };
        match arg.as_str() {
            "--seeds" => cfg.seeds = num("--seeds"),
            "--start" => cfg.start_seed = num("--start"),
            "--workers" => cfg.workers = Some(num("--workers") as usize),
            "--ablate-code-centric" => cfg.check.code_centric = false,
            "--transistency" => cfg.transistency = true,
            "--enumerate" => cfg.enumerate = num("--enumerate"),
            "--ablate-shootdown" => cfg.check.ablate_shootdown = true,
            "--faults" => cfg.check.faults = Some(num("--faults")),
            "--trace" => match args.next() {
                Some(p) => trace_path = Some(p),
                None => {
                    eprintln!("--trace requires an output path");
                    std::process::exit(2);
                }
            },
            _ => {
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }
    if cfg.seeds == 0 {
        eprintln!("--seeds must be at least 1\n{USAGE}");
        std::process::exit(2);
    }
    if cfg.end_seed().is_none() {
        eprintln!("--start + --seeds must not pass u64::MAX\n{USAGE}");
        std::process::exit(2);
    }
    if cfg.check.faults.is_some() && cfg.check.ablated() {
        eprintln!(
            "--faults asserts zero divergence and cannot combine with an \
             ablation (which expects divergences)"
        );
        std::process::exit(2);
    }
    if (cfg.check.ablate_shootdown || cfg.enumerate > 0) && !cfg.transistency {
        eprintln!("--ablate-shootdown and --enumerate require --transistency");
        std::process::exit(2);
    }

    let result = run_campaign(&cfg);
    print!("{}", result.render());

    if let Some(out) = trace_path {
        let (report, trace) = trace_first_seed(&cfg);
        if let Err(e) = std::fs::write(&out, trace) {
            eprintln!("failed to write {out}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "wrote Chrome trace of seed {} to {out} ({} steps, {}; open in \
             chrome://tracing or ui.perfetto.dev)",
            cfg.start_seed,
            report.steps,
            if report.clean() { "clean" } else { "DIVERGED" },
        );
    }

    let coverage_ok = result.faults.as_ref().is_none_or(|f| f.coverage_ok());
    std::process::exit(if result.ok() && coverage_ok { 0 } else { 1 });
}
