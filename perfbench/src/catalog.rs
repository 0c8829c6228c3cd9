//! The catalog workloads: the paper's own experiment cells, run through
//! `figures` and `Executor` exactly as the `run_all` binary runs them.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use tmi_bench::exec::JobRecord;
use tmi_bench::{figures, Executor, Experiment, JobSpec, RunResult, RuntimeKind};

use crate::spans::{SpanId, Spans};
use crate::stats::geomean;
use crate::{Layers, Pass};

/// The sections of `run_all --quick`, in report order.
pub const QUICK_SECTIONS: [&str; 9] = [
    "fig3",
    "fig4",
    "fig7",
    "fig8",
    "fig9",
    "table3",
    "fig10",
    "fig12",
    "ablate_ptsb_everywhere",
];

/// The paper's Fig. 9 result: TMI reaches 88% of the manual fix's speedup.
const PAPER_MANUAL_FRACTION_PCT: f64 = 88.0;

/// Renders one `run_all --quick` section, with the scales `run_all`
/// passes in quick mode.
///
/// # Panics
///
/// Panics on a name outside [`QUICK_SECTIONS`].
fn render(section: &str, exec: &Executor) -> String {
    match section {
        "fig3" => figures::fig3(),
        "fig4" => figures::fig4(exec, 0.05),
        "fig7" => figures::fig7(exec, 0.05),
        "fig8" => figures::fig8(exec, 0.05),
        "fig9" => figures::fig9(exec, 0.25),
        "table3" => figures::table3(exec, 0.25),
        "fig10" => figures::fig10(exec, 0.05),
        "fig12" => figures::fig12(exec),
        "ablate_ptsb_everywhere" => figures::ablate_ptsb_everywhere(exec, 0.25),
        other => panic!("{other} is not a run_all --quick section"),
    }
}

/// One pass of `paper_quick`: renders `sections` on a fresh executor and
/// compares each with its golden body.
pub fn quick_pass(
    golden: &[(String, String)],
    sections: &[&'static str],
    workers: usize,
    spans: Option<(&Spans, SpanId)>,
) -> Pass {
    let t0 = Instant::now();
    let exec = Executor::new(workers);
    let mut failures = Vec::new();
    let mut section_s = Vec::new();
    let mut fig9_text = None;
    for &name in sections {
        let start = Instant::now();
        let rendered = catch_unwind(AssertUnwindSafe(|| render(name, &exec)));
        let end = Instant::now();
        if let Some((log, parent)) = spans {
            log.record(log.id(), "figures", name, start, end, 0, Some(parent));
        }
        section_s.push((name, (end - start).as_secs_f64()));
        let want = golden.iter().find(|(n, _)| n == name).map(|(_, b)| b);
        match rendered {
            Ok(text) if Some(&text) == want => {
                if name == "fig9" {
                    fig9_text = Some(text);
                }
            }
            Ok(_) => failures.push(format!("section {name} differs from the golden report")),
            Err(_) => failures.push(format!("section {name} panicked")),
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let log = exec.job_log();
    let mut pass = cells_pass(&log, &vec![false; log.len()], workers, wall_s);
    pass.attempted += sections.len() as u64;
    pass.failures.extend(failures);
    for (name, s) in section_s {
        pass.layers
            .set(&format!("figures.{name}_share"), s / wall_s);
    }
    if let Some(pct) = fig9_text.as_deref().and_then(fig9_manual_fraction_pct) {
        pass.layers
            .set("core.paper_gap_pp", (pct - PAPER_MANUAL_FRACTION_PCT).abs());
    }
    pass
}

/// The whole-percent "TMI fraction of manual speedup" Fig. 9 prints.
fn fig9_manual_fraction_pct(text: &str) -> Option<f64> {
    let rest = text.split("TMI fraction of manual speedup: ").nth(1)?;
    rest.split('%').next()?.trim().parse().ok()
}

/// One cell of the Fig. 9 set.
#[derive(Clone, Debug)]
pub struct RepairCell {
    /// Workload name.
    pub workload: &'static str,
    /// Supervising runtime.
    pub runtime: RuntimeKind,
    /// The manual source fix (the `manual` bars).
    pub fixed: bool,
}

/// The Fig. 9 cell set: every repair workload under buggy pthreads, the
/// manual fix, Sheriff where it is compatible, LASER and TMI, in an order
/// permuted by `seed`.
///
/// The seed shuffles each workload's cells among themselves; the
/// workloads follow suite order. Results must not depend on the order at
/// all, and the host time of a cell does depend on which cell runs beside
/// it: keeping the workloads in place keeps the heavy cells overlapping
/// alike for every seed, so the seed does not move the cell-time tail or
/// the peak memory by itself.
pub fn repair_cells(seed: u64) -> Vec<RepairCell> {
    let mut rng = crate::synth::Rng::new(seed);
    let mut cells = Vec::new();
    for workload in tmi_workloads::REPAIR_SUITE {
        let first = cells.len();
        let sheriff = tmi_workloads::by_name(workload)
            .expect("repair workloads are in the catalog")
            .spec()
            .sheriff_compatible;
        let runtimes = [
            (RuntimeKind::Pthreads, false),
            (RuntimeKind::Pthreads, true),
            (RuntimeKind::SheriffProtect, false),
            (RuntimeKind::Laser, false),
            (RuntimeKind::TmiProtect, false),
        ];
        for (runtime, fixed) in runtimes {
            if runtime != RuntimeKind::SheriffProtect || sheriff {
                cells.push(RepairCell {
                    workload,
                    runtime,
                    fixed,
                });
            }
        }
        let group = &mut cells[first..];
        for i in (1..group.len()).rev() {
            group.swap(i, rng.below(i as u64 + 1) as usize);
        }
    }
    cells
}

/// The executor job for one repair cell, configured as Fig. 9 does.
pub fn repair_spec(cell: &RepairCell, scale: f64) -> JobSpec {
    let e = Experiment::repair(cell.workload).scale(scale);
    if cell.fixed {
        e.fixed().spec()
    } else {
        e.runtime(cell.runtime).misaligned().spec()
    }
}

/// One pass of `repair_full`: the whole cell set as one executor batch.
pub fn repair_pass(
    cells: &[RepairCell],
    specs: &[JobSpec],
    workers: usize,
    spans: Option<(&Spans, SpanId)>,
) -> Pass {
    let t0 = Instant::now();
    let exec = Executor::new(workers);
    let results = exec.run(specs.to_vec());
    let end = Instant::now();
    if let Some((log, parent)) = spans {
        log.record(log.id(), "exec", "Executor::run", t0, end, 0, Some(parent));
    }
    let wall_s = (end - t0).as_secs_f64();
    let log = exec.job_log();
    let fixed: Vec<bool> = log.iter().map(|r| cells[r.index].fixed).collect();
    let mut pass = cells_pass(&log, &fixed, workers, wall_s);
    for (cell, r) in cells.iter().zip(&results) {
        if !r.ok() {
            pass.failures.push(format!(
                "{} under {} did not complete and verify",
                cell.workload,
                cell.runtime.label()
            ));
        }
    }
    let outcome = |rt: RuntimeKind, fixed: bool, w: &str| {
        cells
            .iter()
            .zip(&results)
            .find(|(c, _)| c.workload == w && c.runtime == rt && c.fixed == fixed)
            .and_then(|(_, r)| r.outcome.as_ref().ok())
    };
    let fractions: Option<Vec<f64>> = tmi_workloads::REPAIR_SUITE
        .iter()
        .map(|w| {
            let base = outcome(RuntimeKind::Pthreads, false, w)?;
            let manual = outcome(RuntimeKind::Pthreads, true, w)?;
            let tmi = outcome(RuntimeKind::TmiProtect, false, w)?;
            let speedup = |r: &RunResult| base.cycles as f64 / r.cycles as f64;
            Some(speedup(tmi) / speedup(manual))
        })
        .collect();
    if let Some(f) = fractions {
        let mean_pct = f.iter().sum::<f64>() / f.len() as f64 * 100.0;
        pass.layers.set(
            "core.paper_gap_pp",
            (mean_pct - PAPER_MANUAL_FRACTION_PCT).abs(),
        );
    }
    pass
}

/// The executor, harness, runtime and simulator numbers of one pass,
/// from the executor's job log. `fixed[i]` says whether log record `i`
/// ran the manual fix, which tells apart the two pthreads cells of a
/// repair workload.
fn cells_pass(log: &[JobRecord], fixed: &[bool], workers: usize, wall_s: f64) -> Pass {
    let computed: Vec<&JobRecord> = log.iter().filter(|r| r.status != "cached").collect();
    let ok: Vec<(usize, &JobRecord)> = log
        .iter()
        .enumerate()
        .filter(|(_, r)| r.status == "ok")
        .collect();
    let hits = log.len() - computed.len();
    let busy: f64 = computed.iter().map(|r| r.host_seconds).sum();
    let mut layers = Layers::new();
    layers.set("exec.cells", computed.len() as f64);
    layers.set("exec.cache_hits", hits as f64);
    layers.set("exec.hit_ratio", ratio(hits as f64, log.len() as f64));
    layers.set("exec.busy_s", busy);
    layers.set("exec.idle_s", (workers as f64 * wall_s - busy).max(0.0));
    layers.set("exec.util", ratio(busy, workers as f64 * wall_s));

    for label in crate::HARNESS_LABELS {
        let cells: Vec<&JobRecord> = ok
            .iter()
            .map(|&(_, r)| r)
            .filter(|r| r.runtime == label)
            .collect();
        let host: f64 = cells.iter().map(|r| r.host_seconds).sum();
        let accesses: u64 = cells
            .iter()
            .map(|r| r.metrics.u64("machine.accesses"))
            .sum();
        layers.set(&format!("harness.{label}.cells"), cells.len() as f64);
        layers.set(&format!("harness.{label}.host_share"), ratio(host, busy));
        layers.set(
            &format!("harness.{label}.maccesses_per_s"),
            ratio(accesses as f64, host) / 1e6,
        );
    }

    // Host cost of each runtime against its pthreads twin: the same
    // workload, thread count and scale without a runtime. The earliest
    // computed twin wins, preferring the cell's own batch, which in a
    // Fig. 9 batch is the buggy (not the manually fixed) baseline.
    let twin = |i: usize, r: &JobRecord| {
        ok.iter()
            .filter(|&&(j, t)| {
                t.runtime == "pthreads"
                    && t.workload == r.workload
                    && t.threads == r.threads
                    && t.scale == r.scale
                    && fixed[j] == fixed[i]
            })
            .min_by_key(|&&(_, t)| (t.batch != r.batch, t.batch, t.index))
            .map(|&(_, t)| t.host_seconds)
    };
    let host_ratio = |runtimes: &[&str]| {
        let ratios: Vec<f64> = ok
            .iter()
            .filter(|(_, r)| runtimes.contains(&r.runtime))
            .filter_map(|&(i, r)| twin(i, r).map(|base| ratio(r.host_seconds, base)))
            .collect();
        geomean(&ratios)
    };
    layers.set("core.protect_host_ratio", host_ratio(&["tmi-protect"]));
    layers.set("core.detect_host_ratio", host_ratio(&["tmi-detect"]));
    layers.set(
        "baselines.sheriff_host_ratio",
        host_ratio(&["sheriff-detect", "sheriff-protect"]),
    );
    layers.set("baselines.laser_host_ratio", host_ratio(&["laser"]));

    let missing = layers.sum_counters(ok.iter().map(|&(_, r)| &r.metrics));

    Pass {
        wall_s,
        trace_basis_s: wall_s,
        setup_s: Vec::new(),
        cells: ok
            .iter()
            .map(|(_, r)| (r.host_seconds, r.metrics.u64("machine.accesses")))
            .collect(),
        attempted: computed.len() as u64,
        failures: computed
            .iter()
            .filter(|r| r.status == "failed")
            .map(|r| format!("{} under {} panicked", r.workload, r.runtime))
            .collect(),
        missing_counters: missing,
        layers,
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_fraction_parses_from_the_golden_text() {
        let text = "TMI mean speedup: 2.71x\nTMI fraction of manual speedup: 85%   (paper: 88%)\n";
        assert_eq!(fig9_manual_fraction_pct(text), Some(85.0));
        assert_eq!(fig9_manual_fraction_pct("nothing here"), None);
    }

    #[test]
    fn repair_cells_cover_fig9_in_a_seeded_order() {
        let a = repair_cells(1);
        let sheriff = tmi_workloads::REPAIR_SUITE
            .iter()
            .filter(|w| tmi_workloads::by_name(w).unwrap().spec().sheriff_compatible)
            .count();
        assert_eq!(a.len(), 4 * tmi_workloads::REPAIR_SUITE.len() + sheriff);
        let key = |v: &[RepairCell]| {
            v.iter()
                .map(|c| (c.workload, c.runtime.label(), c.fixed))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&a), key(&repair_cells(1)));
        assert_ne!(key(&a), key(&repair_cells(2)));
        let mut sorted_a = key(&a);
        let mut sorted_b = key(&repair_cells(2));
        sorted_a.sort();
        sorted_b.sort();
        assert_eq!(sorted_a, sorted_b, "the seed only permutes");
    }
}
