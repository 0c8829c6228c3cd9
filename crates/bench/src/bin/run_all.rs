//! Regenerates the paper's evaluation in one process: the sections of
//! [`figures::SECTIONS`] render in table order on one shared
//! [`Executor`], so the (workload × runtime) cells fan out over a worker
//! pool and repeated cells — most prominently the pthreads baselines that
//! several figures normalize against — are simulated once.
//!
//! ```text
//! run_all [--quick] [--trace out.json] [SECTION ...] [SCALE]
//! ```
//!
//! With no SECTION every section renders at its full scale. `--quick`
//! renders the sections that have a quick scale, at that scale: the
//! smoke run `scripts/check.sh` compares with
//! `tests/golden/run_all_quick.txt`. Each SECTION is a banner name
//! (`fig9`, `table3`, ...) and narrows the run to the named sections,
//! which still render in table order. An unknown name exits 2, and so
//! does a section without a quick scale (`fig11`, `sweep_threads`,
//! `table1`) under `--quick`.
//!
//! SCALE replaces the scale of every selected section; `fig3` and `fig12`
//! have a fixed size and ignore it. (Before the section table, a bare
//! SCALE reached only fig4, fig7, fig8 and fig10.) `run_all fig9 0.5`
//! prints the Fig. 9 table at half the default work. A SCALE that is not
//! a finite number greater than 0 (`inf`, `nan`, `0`, `-1`) exits 2, and
//! so does a second SCALE.
//!
//! `TMI_BENCH_JOBS=N` bounds the pool; the printed report is
//! byte-identical for every pool size. A machine-readable per-job timing
//! log (with each cell's metrics-registry snapshot) is written to
//! `BENCH_harness.json` at the end.
//!
//! `--trace out.json` additionally runs one traced `tmi-protect` repair
//! episode (histogramfs, which repairs via T2P conversion rather than
//! allocator repad) and writes its Chrome `trace_event` timeline to
//! `out.json` — load it at `chrome://tracing`
//! or <https://ui.perfetto.dev>. The trace run is separate from the
//! figure cells, so the printed report is unaffected.

use tmi_bench::figures::{self, Section, SECTIONS};
use tmi_bench::spec::work_scale;
use tmi_bench::{Executor, JobSpec, RuntimeKind};

/// What one invocation renders.
#[derive(Debug)]
struct Plan {
    quick: bool,
    trace: Option<String>,
    /// The selected sections in table order, each with its scale.
    sections: Vec<(&'static Section, f64)>,
}

fn usage() -> String {
    let names: Vec<&str> = SECTIONS.iter().map(|s| s.name).collect();
    format!(
        "usage: run_all [--quick] [--trace out.json] [SECTION ...] [SCALE]\n\
         sections: {}",
        names.join(" ")
    )
}

/// Parses the arguments after the program name. An `Err` holds the
/// message to print before exiting 2.
fn parse(args: impl IntoIterator<Item = String>) -> Result<Plan, String> {
    let mut quick = false;
    let mut trace = None;
    let mut scale = None;
    let mut named = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--quick" {
            quick = true;
        } else if arg == "--trace" {
            trace = Some(args.next().ok_or("--trace requires an output path")?);
        } else if let Ok(s) = arg.parse::<f64>() {
            if scale.is_some() {
                return Err(format!(
                    "only one SCALE may be given, got a second: {arg:?}\n{}",
                    usage()
                ));
            }
            scale = Some(work_scale("SCALE", s).map_err(|e| format!("{e}\n{}", usage()))?);
        } else if let Some(section) = figures::section(&arg) {
            named.push(section.name);
        } else {
            return Err(format!("unknown section {arg:?}\n{}", usage()));
        }
    }
    let mut sections = Vec::new();
    for section in &SECTIONS {
        if !named.is_empty() && !named.contains(&section.name) {
            continue;
        }
        let default = match (quick, section.quick) {
            (false, _) => section.full,
            (true, Some(q)) => q,
            (true, None) if named.is_empty() => continue,
            (true, None) => {
                return Err(format!(
                    "{} has no quick scale; drop --quick to render it",
                    section.name
                ))
            }
        };
        sections.push((section, scale.unwrap_or(default)));
    }
    Ok(Plan {
        quick,
        trace,
        sections,
    })
}

fn main() {
    let plan = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    let exec = Executor::from_env();
    for (section, scale) in &plan.sections {
        println!("\n================================================================");
        println!("== {}", section.name);
        println!("================================================================\n");
        print!("{}", (section.render)(&exec, *scale));
    }

    let path = std::path::Path::new("BENCH_harness.json");
    match exec.write_json(path) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
    }

    // The traced run prints only to stderr so that stdout stays
    // byte-identical to the golden report whether or not --trace is given.
    if let Some(out) = plan.trace {
        let (r, trace) = JobSpec::repair("histogramfs")
            .runtime(RuntimeKind::TmiProtect)
            .scale(if plan.quick { 0.25 } else { 1.0 })
            .misaligned()
            .run_traced();
        if let Err(e) = std::fs::write(&out, trace) {
            eprintln!("failed to write {out}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "wrote Chrome trace to {out} (histogramfs under tmi-protect, repaired={}, \
             {} commits; open in chrome://tracing or ui.perfetto.dev)",
            r.repaired, r.commits
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Plan, String> {
        parse(line.split_whitespace().map(String::from))
    }

    fn picked(plan: &Plan) -> Vec<(&'static str, f64)> {
        plan.sections.iter().map(|&(s, x)| (s.name, x)).collect()
    }

    #[test]
    fn unknown_section_is_a_usage_error() {
        let err = parse_line("fig99").unwrap_err();
        assert!(err.contains("\"fig99\""), "{err}");
        for s in &SECTIONS {
            assert!(err.contains(s.name), "usage must list {}: {err}", s.name);
        }
    }

    #[test]
    fn quick_rejects_a_section_without_a_quick_scale() {
        for name in ["fig11", "sweep_threads", "table1"] {
            let err = parse_line(&format!("--quick {name}")).unwrap_err();
            assert!(err.contains("no quick scale"), "{err}");
        }
        assert!(parse_line("--trace").is_err());
    }

    #[test]
    fn a_section_and_scale_select_one_section_at_that_scale() {
        assert_eq!(picked(&parse_line("fig9 0.5").unwrap()), [("fig9", 0.5)]);
        assert_eq!(
            picked(&parse_line("table3 fig4 --quick").unwrap()),
            [("fig4", 0.05), ("table3", 0.25)]
        );
    }

    #[test]
    fn scale_must_be_finite_and_positive() {
        for bad in ["inf", "-inf", "nan", "NaN", "0", "-1", "1e400"] {
            let err = parse_line(&format!("fig4 {bad}")).unwrap_err();
            assert!(
                err.contains("SCALE must be a finite number greater than 0"),
                "{bad}: {err}"
            );
            assert!(err.contains("usage: run_all"), "{bad}: {err}");
        }
        assert_eq!(picked(&parse_line("fig4 0.05").unwrap()), [("fig4", 0.05)]);
    }

    #[test]
    fn a_second_scale_is_a_usage_error() {
        let err = parse_line("fig4 0.5 0.05").unwrap_err();
        assert!(err.contains("only one SCALE"), "{err}");
        assert!(err.contains("usage: run_all"), "{err}");
    }

    #[test]
    fn no_section_selects_every_section_of_the_mode() {
        let full = parse_line("").unwrap();
        assert!(!full.quick && full.trace.is_none());
        assert_eq!(full.sections.len(), SECTIONS.len());
        assert!(full.sections.iter().all(|&(s, x)| x == s.full));

        let quick = parse_line("--quick --trace t.json").unwrap();
        assert_eq!(quick.trace.as_deref(), Some("t.json"));
        assert_eq!(quick.sections.len(), 9);
        assert!(quick.sections.iter().all(|&(s, x)| Some(x) == s.quick));

        let scaled = parse_line("0.1").unwrap();
        assert!(scaled.sections.iter().all(|&(_, x)| x == 0.1));
    }
}
