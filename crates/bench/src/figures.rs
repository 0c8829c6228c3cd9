//! Rendered reproductions of every table and figure of the paper's
//! evaluation (§4).
//!
//! Each section but [`fig3`] submits its (workload × runtime) matrix to
//! an [`Executor`] as one batch, and each returns the finished report as
//! a `String`. A section names each cell by its [`JobSpec`], once to submit
//! it and again to read its result, the same key the executor's memo
//! uses. [`SECTIONS`] lists the sections in report order with the scales
//! they render at; the `run_all` binary walks that table on one shared
//! executor, so repeated cells (most prominently the pthreads baselines)
//! are simulated once.
//!
//! Determinism contract: a figure's string depends only on its inputs,
//! never on the executor's pool size — a batch's results come back in
//! submission order and every simulation is deterministic. A cell whose
//! simulation panicked renders as `failed` instead of aborting the whole
//! figure, except where the old binaries asserted success (baselines),
//! where the panic message is propagated.

use std::fmt::Write as _;

use tmi_machine::LatencyModel;

use crate::exec::{Executor, JobResult};
use crate::report::{geomean, mb, mean, pct, ratio, Table};
use crate::{JobSpec, RunResult, RuntimeKind};

/// One section of the evaluation report, as `run_all` renders it.
#[derive(Clone, Copy, Debug)]
pub struct Section {
    /// The banner name; `run_all` also takes it as an argument.
    pub name: &'static str,
    /// The scale of `run_all --quick`, or `None` if the quick run leaves
    /// the section out.
    pub quick: Option<f64>,
    /// The scale of a full run.
    pub full: f64,
    /// Renders the section at a scale. `fig3` and `fig12` have a fixed
    /// size and ignore it.
    pub render: fn(&Executor, f64) -> String,
}

/// Every section of the report, in the order `run_all` prints them.
pub static SECTIONS: [Section; 12] = [
    Section {
        name: "fig3",
        quick: Some(1.0),
        full: 1.0,
        render: |_, _| fig3(),
    },
    Section {
        name: "fig4",
        quick: Some(0.05),
        full: 1.0,
        render: fig4,
    },
    Section {
        name: "fig7",
        quick: Some(0.05),
        full: 1.0,
        render: fig7,
    },
    Section {
        name: "fig8",
        quick: Some(0.05),
        full: 1.0,
        render: fig8,
    },
    Section {
        name: "fig9",
        quick: Some(0.25),
        full: 2.0,
        render: fig9,
    },
    Section {
        name: "table3",
        quick: Some(0.25),
        full: 2.0,
        render: table3,
    },
    Section {
        name: "fig10",
        quick: Some(0.05),
        full: 1.0,
        render: fig10,
    },
    Section {
        name: "fig11",
        quick: None,
        full: 1.0,
        render: fig11,
    },
    Section {
        name: "fig12",
        quick: Some(1.0),
        full: 1.0,
        render: |exec, _| fig12(exec),
    },
    Section {
        name: "ablate_ptsb_everywhere",
        quick: Some(0.25),
        full: 2.0,
        render: ablate_ptsb_everywhere,
    },
    Section {
        name: "sweep_threads",
        quick: None,
        full: 1.0,
        render: |exec, scale| sweep_threads(exec, "lreg", scale),
    },
    Section {
        name: "table1",
        quick: None,
        full: 0.5,
        render: table1,
    },
];

/// The section with banner `name`.
pub fn section(name: &str) -> Option<&'static Section> {
    SECTIONS.iter().find(|s| s.name == name)
}

/// One section's batch of cells, looked up by spec.
struct Cells(Vec<(JobSpec, JobResult)>);

impl Cells {
    /// Runs `specs` on `exec` as one batch. A spec listed more than once
    /// is submitted once, where it first appears, so sections can share
    /// baselines without two identical jobs racing within the batch.
    fn run(exec: &Executor, specs: impl IntoIterator<Item = JobSpec>) -> Cells {
        let mut batch: Vec<JobSpec> = Vec::new();
        for spec in specs {
            if !batch.contains(&spec) {
                batch.push(spec);
            }
        }
        let results = exec.run(batch.clone());
        Cells(batch.into_iter().zip(results).collect())
    }

    /// The result of `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `spec` was not in the batch — a bug in the section.
    fn get(&self, spec: &JobSpec) -> &JobResult {
        match self.0.iter().find(|(s, _)| s == spec) {
            Some((_, r)) => r,
            None => panic!("cell {} was not submitted", spec.to_json()),
        }
    }

    /// The run of `spec`, unless its simulation panicked.
    fn completed(&self, spec: &JobSpec) -> Option<&RunResult> {
        self.get(spec).outcome.as_ref().ok()
    }

    /// The run of `spec`, which must have completed and verified.
    fn verified(&self, spec: &JobSpec) -> &RunResult {
        let r = self.get(spec).result();
        assert!(r.ok(), "{}: {:?}", spec.to_json(), r.verified);
        r
    }

    /// `spec`'s cell as text: `value` of its run if the run verified,
    /// `broken` if it completed with a wrong result, `failed` if it
    /// panicked.
    fn text(&self, spec: &JobSpec, value: impl FnOnce(&RunResult) -> String) -> String {
        match self.completed(spec) {
            Some(r) if r.ok() => value(r),
            Some(_) => "broken".into(),
            None => "failed".into(),
        }
    }
}

/// A section's text: the title, the table, then the notes, with a blank
/// line between each.
fn layout(title: &str, table: &Table, notes: &str) -> String {
    format!("{title}\n\n{}\n{notes}\n", table.render())
}

/// Whether Sheriff runs the suite workload `name` at all.
fn sheriff_compatible(name: &str) -> bool {
    tmi_workloads::by_name(name)
        .expect("a suite workload")
        .spec()
        .sheriff_compatible
}

/// Fig. 3 — the AMBSA word-tearing litmus.
///
/// Unlike the other figures this one drives a two-thread litmus engine
/// directly (no workload suite, so no [`Executor`]): two threads store
/// `0xAB00` and `0x00CD` to the same aligned 2-byte location. Aligned
/// multi-byte store atomicity means the final value is one of the two
/// stored values natively; a guard-less PTSB merges at byte granularity
/// and fabricates `0xABCD`.
pub fn fig3() -> String {
    use tmi_baselines::{SheriffConfig, SheriffRuntime};
    use tmi_sim::NullRuntime;

    let rows = [
        ("native (pthreads)", ambsa::litmus(NullRuntime, |_| {}).0),
        // Sheriff: whole-heap PTSB, no consistency guard → word tearing.
        (
            "sheriff-protect",
            ambsa::litmus(
                SheriffRuntime::new(SheriffConfig::protect(), ambsa::LAYOUT),
                |_| {},
            )
            .0,
        ),
        // TMI with code-centric consistency and x's page PTSB-armed by a
        // pre-triggered repair: asm-region stores are routed to shared
        // memory, so AMBSA holds even with the page armed.
        ("tmi-protect", ambsa::tmi_protect().0),
    ];
    let mut table = Table::new(&["execution", "final x", "AMBSA"]);
    for (execution, x) in rows {
        let ambsa = if x == 0xAB00 || x == 0x00CD {
            "preserved".to_string()
        } else {
            format!("VIOLATED (x = {x:#06x}, written by no thread)")
        };
        table.row(vec![execution.into(), format!("{x:#06x}"), ambsa]);
    }
    layout(
        "Fig. 3: the AMBSA word-tearing litmus",
        &table,
        "The merge interleaving (Fig. 2/3): each thread's diff sees only its one\n\
         changed byte, so both bytes land in shared memory: 0xABCD.\n\
         (tmi-sim's twin-store unit tests exercise the same tearing deterministically:\n\
         crates/core/src/twins.rs::word_tearing_is_reproducible_at_byte_granularity)",
    )
}

/// The two-thread litmus engine behind [`fig3`].
mod ambsa {
    use tmi::{AppLayout, TmiConfig, TmiRuntime};
    use tmi_machine::{VAddr, Width, FRAME_SIZE};
    use tmi_program::{InstrKind, Op, SequenceProgram};
    use tmi_sim::{Engine, EngineConfig, RuntimeHooks};

    /// The litmus's process layout, for runtimes built against one.
    pub(super) const LAYOUT: AppLayout = AppLayout {
        app_start: VAddr::new(0x10_0000),
        app_len: 16 * FRAME_SIZE,
        internal_start: VAddr::new(0x80_0000),
        internal_len: 4 * FRAME_SIZE,
        huge_pages: false,
    };
    /// The contended location, 2-byte aligned.
    const X: VAddr = LAYOUT.app_start.offset(0x100);

    /// Runs the litmus under `runtime`, each store inside an inline-asm
    /// region. `arm` runs once both threads exist, before the first
    /// instruction. Returns the final value of `x` and the finished
    /// engine.
    pub(super) fn litmus<R: RuntimeHooks>(
        runtime: R,
        arm: impl FnOnce(&mut Engine<R>),
    ) -> (u64, Engine<R>) {
        let mut e = Engine::new(EngineConfig::with_cores(2), runtime);
        let aspace = LAYOUT.install(&mut e);

        let st = e
            .core_mut()
            .code
            .asm_instr("litmus::store_x", InstrKind::Store, Width::W2);
        for value in [0xAB00u64, 0x00CD] {
            let ops = vec![
                Op::AsmEnter,
                Op::Store {
                    pc: st,
                    addr: X,
                    width: Width::W2,
                    value,
                },
                Op::AsmExit,
            ];
            e.add_thread(Box::new(SequenceProgram::new(ops)));
        }
        arm(&mut e);
        let r = e.run();
        assert!(r.completed(), "litmus must complete: {:?}", r.halt);
        let pa = e.core_mut().kernel.object_paddr(aspace, X).unwrap();
        let value = e.core_mut().kernel.physmem().read(pa, Width::W2);
        (value, e)
    }

    /// Fig. 3's `tmi-protect` row: full TMI with `x`'s page armed up
    /// front through [`TmiRuntime::force_repair`], as the differential
    /// oracle's fixture arms its data pages. Two stores are far too few to
    /// trigger repair by sampling.
    pub(super) fn tmi_protect() -> (u64, Engine<TmiRuntime>) {
        litmus(TmiRuntime::new(TmiConfig::protect(), LAYOUT), |e| {
            let (rt, core) = e.runtime_and_core();
            rt.force_repair(core, &[X.vpn()]);
        })
    }
}

/// Fig. 4 — runtime and HITM records vs perf sampling period on leveldb.
pub fn fig4(exec: &Executor, scale: f64) -> String {
    const PERIODS: [u64; 6] = [1, 5, 10, 50, 100, 1000];
    let cell = |period| {
        JobSpec::new("leveldb")
            .runtime(RuntimeKind::TmiDetect)
            .scale(scale)
            .period(period)
    };
    let cells = Cells::run(exec, PERIODS.map(cell));

    let mut table = Table::new(&[
        "period",
        "runtime (ms sim)",
        "HITM records",
        "scaled estimate",
    ]);
    let mut total_events = 0;
    for period in PERIODS {
        let r = cells.verified(&cell(period));
        total_events = r.perf_events;
        table.row(vec![
            period.to_string(),
            format!("{:.2}", r.seconds * 1e3),
            r.perf_records.to_string(),
            format!("{:.0}", r.perf_records as f64 * period as f64),
        ]);
    }
    layout(
        &format!(
            "Fig. 4: runtime and HITM records vs perf sampling period (leveldb, scale {scale})"
        ),
        &table,
        &format!(
            "Total HITM events generated by the hardware: {total_events}\n\
             (paper: runtime inflates at small periods; record counts fall roughly as 1/period,\n\
             so TMI scales each record by the period to estimate true event counts, §3.1)"
        ),
    )
}

/// Fig. 7 — detection overhead across the suite, normalized to pthreads.
pub fn fig7(exec: &Executor, scale: f64) -> String {
    let cell = |name, rt| JobSpec::new(name).runtime(rt).scale(scale);
    let sheriff = |name| sheriff_compatible(name).then(|| cell(name, RuntimeKind::SheriffDetect));
    let cells = Cells::run(
        exec,
        tmi_workloads::SUITE.iter().flat_map(|&name| {
            [
                Some(cell(name, RuntimeKind::Pthreads)),
                sheriff(name),
                Some(cell(name, RuntimeKind::TmiAlloc)),
                Some(cell(name, RuntimeKind::TmiDetect)),
            ]
            .into_iter()
            .flatten()
        }),
    );

    let mut table = Table::new(&["workload", "sheriff-detect", "tmi-alloc", "tmi-detect"]);
    let mut detect_over = Vec::new();
    for name in tmi_workloads::SUITE {
        let base = cells.verified(&cell(name, RuntimeKind::Pthreads)).cycles as f64;
        let norm = |r: &RunResult| format!("{:.2}", r.cycles as f64 / base);
        let detect = cells.verified(&cell(name, RuntimeKind::TmiDetect));
        detect_over.push(detect.cycles as f64 / base);
        table.row(vec![
            name.into(),
            sheriff(name).map_or("x".into(), |s| cells.text(&s, norm)),
            cells
                .completed(&cell(name, RuntimeKind::TmiAlloc))
                .map_or("failed".into(), norm),
            norm(detect),
        ]);
    }
    let sheriff_compat = tmi_workloads::SUITE
        .iter()
        .filter(|name| sheriff_compatible(name))
        .count();
    layout(
        &format!("Fig. 7: detection overhead, normalized to pthreads (8 threads, scale {scale})"),
        &table,
        &format!(
            "tmi-detect mean overhead: {:+.1}%   (paper: +2% mean, +17% max)\n\
             tmi-detect max overhead:  {:+.1}%\n\
             sheriff-compatible workloads: {sheriff_compat} of {}   (paper: 11 of 35)",
            (mean(&detect_over) - 1.0) * 100.0,
            (detect_over.iter().cloned().fold(f64::MIN, f64::max) - 1.0) * 100.0,
            tmi_workloads::SUITE.len()
        ),
    )
}

/// Fig. 8 — peak memory usage, pthreads vs TMI-full.
pub fn fig8(exec: &Executor, scale: f64) -> String {
    let cell = |name, rt| JobSpec::new(name).runtime(rt).scale(scale);
    let runtimes = [RuntimeKind::Pthreads, RuntimeKind::TmiProtect];
    let cells = Cells::run(
        exec,
        tmi_workloads::SUITE
            .iter()
            .flat_map(|&name| runtimes.map(|rt| cell(name, rt))),
    );

    let mut table = Table::new(&["workload", "pthreads MB", "TMI-full MB", "overhead MB"]);
    let mut ratios = Vec::new();
    for name in tmi_workloads::SUITE {
        let [base, tmi] = runtimes.map(|rt| cells.completed(&cell(name, rt)));
        let [pthreads, tmi, over] = match (base, tmi) {
            (Some(base), Some(tmi)) => {
                if base.memory_bytes > 32 << 20 {
                    ratios.push(tmi.memory_bytes as f64 / base.memory_bytes as f64);
                }
                let over = tmi.memory_bytes.saturating_sub(base.memory_bytes);
                [base.memory_bytes, tmi.memory_bytes, over].map(mb)
            }
            _ => ["failed"; 3].map(String::from),
        };
        table.row(vec![name.into(), pthreads, tmi, over]);
    }
    let mut notes = String::from(
        "Small-footprint workloads carry a fixed ~90 MB of perf buffers and detector\n\
         structures (paper: \"about 90MB of memory overhead\"); for larger workloads the\n\
         relative overhead is modest (paper: 19% beyond the small-memory cases).",
    );
    if !ratios.is_empty() {
        let gm = geomean(&ratios);
        let _ = write!(
            notes,
            "\ngeomean TMI/pthreads over larger workloads: {gm:.2}x"
        );
    }
    layout(
        &format!("Fig. 8: peak memory usage in MB (8 threads, scale {scale})"),
        &table,
        &notes,
    )
}

/// Fig. 9 — repair speedups over the buggy pthreads baseline.
pub fn fig9(exec: &Executor, scale: f64) -> String {
    let cell = |name, rt| JobSpec::repair(name).runtime(rt).scale(scale).misaligned();
    let manual = |name| JobSpec::repair(name).scale(scale).fixed();
    let sheriff = |name| sheriff_compatible(name).then(|| cell(name, RuntimeKind::SheriffProtect));
    let cells = Cells::run(
        exec,
        tmi_workloads::REPAIR_SUITE.iter().flat_map(|&name| {
            [
                Some(cell(name, RuntimeKind::Pthreads)),
                Some(manual(name)),
                sheriff(name),
                Some(cell(name, RuntimeKind::Laser)),
                Some(cell(name, RuntimeKind::TmiProtect)),
            ]
            .into_iter()
            .flatten()
        }),
    );

    let mut table = Table::new(&[
        "workload",
        "manual",
        "sheriff-protect",
        "LASER",
        "TMI-protect",
    ]);
    let mut tmi_speedups = Vec::new();
    let mut manual_fracs = Vec::new();
    for name in tmi_workloads::REPAIR_SUITE {
        let base = cells.verified(&cell(name, RuntimeKind::Pthreads)).cycles as f64;
        let speedup = |r: &RunResult| {
            if r.ok() {
                base / r.cycles as f64
            } else {
                f64::NAN
            }
        };
        let speedup_of = |spec| cells.completed(&spec).map(speedup);
        let s_manual = speedup_of(manual(name));
        let s_tmi = speedup_of(cell(name, RuntimeKind::TmiProtect));
        if let (Some(s_manual), Some(s_tmi)) = (s_manual, s_tmi) {
            tmi_speedups.push(s_tmi);
            manual_fracs.push(s_tmi / s_manual);
        }
        let text = |s: Option<f64>| s.map_or("failed".into(), ratio);
        table.row(vec![
            name.into(),
            text(s_manual),
            sheriff(name).map_or("incompatible".into(), |s| {
                cells.text(&s, |r| ratio(speedup(r)))
            }),
            text(speedup_of(cell(name, RuntimeKind::Laser))),
            text(s_tmi),
        ]);
    }
    layout(
        &format!("Fig. 9: repair speedups over pthreads (4 threads, scale {scale})"),
        &table,
        &format!(
            "TMI mean speedup: {:.2}x   (paper: 5.2x mean across the repaired programs)\n\
             TMI fraction of manual speedup: {:.0}%   (paper: 88%)",
            mean(&tmi_speedups),
            mean(&manual_fracs) * 100.0
        ),
    )
}

/// Table 3 — repair characterization: detection latency, T2P cost,
/// commit rate.
pub fn table3(exec: &Executor, scale: f64) -> String {
    let cell = |name| {
        JobSpec::repair(name)
            .runtime(RuntimeKind::TmiProtect)
            .scale(scale)
            .misaligned()
    };
    let cells = Cells::run(exec, tmi_workloads::REPAIR_SUITE.map(cell));

    let cycles_per_ms = LatencyModel::CLOCK_HZ as f64 / 1e3;
    let mut table = Table::new(&["app", "unrepaired (ms sim)", "T2P (us)", "commits/s"]);
    for name in tmi_workloads::REPAIR_SUITE {
        let r = cells.verified(&cell(name));
        table.row(vec![
            name.into(),
            match r.converted_at {
                Some(c) => format!("{:.2}", c as f64 / cycles_per_ms),
                None => "no T2P (allocator/lock repair)".into(),
            },
            format!("{:.0}", r.t2p_micros()),
            format!("{:.2}", r.commits_per_sec()),
        ]);
    }
    layout(
        &format!("Table 3: TMI repair characterization (4 threads, scale {scale})"),
        &table,
        "(paper: detection within 1-2 s of its 1 Hz analysis — here scaled to the\n\
         simulator's tick; T2P under 200 us for all applications; commit rates span\n\
         0.38-34 per second across the suite)",
    )
}

/// Fig. 10 — 4 KiB vs 2 MiB huge pages for the shared app memory.
pub fn fig10(exec: &Executor, scale: f64) -> String {
    let cell = |name| {
        JobSpec::new(name)
            .runtime(RuntimeKind::TmiDetect)
            .scale(scale)
    };
    let cells = Cells::run(
        exec,
        tmi_workloads::SUITE
            .iter()
            .flat_map(|&name| [cell(name), cell(name).huge_pages()]),
    );

    let mut table = Table::new(&["workload", "4KB faults", "2MB faults", "4KB overhead"]);
    let mut overheads = Vec::new();
    for name in tmi_workloads::SUITE {
        let small = cells.verified(&cell(name));
        let huge = cells.verified(&cell(name).huge_pages());
        let over = small.cycles as f64 / huge.cycles as f64 - 1.0;
        overheads.push(over);
        table.row(vec![
            name.into(),
            small.faults.to_string(),
            huge.faults.to_string(),
            pct(over),
        ]);
    }
    layout(
        "Fig. 10: 4 KiB vs 2 MiB huge pages for the shared file-backed app memory",
        &table,
        &format!(
            "mean 4KB overhead vs huge pages: {}   (paper: huge pages a 6% overall win,\n\
             dominated by canneal/reverse/fft/fmm/ocean-ncp/radix class workloads)",
            pct(mean(&overheads))
        ),
    )
}

/// The table of Figs. 11 and 12: one row per runtime, with its label and
/// the two columns `outcome` renders from the run of `cell(runtime)`, or
/// `failed` twice if the cell panicked.
fn outcomes(
    exec: &Executor,
    header: [&str; 3],
    runtimes: &[RuntimeKind],
    cell: impl Fn(RuntimeKind) -> JobSpec,
    outcome: impl Fn(&RunResult) -> [String; 2],
) -> Table {
    let cells = Cells::run(exec, runtimes.iter().map(|&rt| cell(rt)));
    let mut table = Table::new(&header);
    for &rt in runtimes {
        let [a, b] = cells
            .completed(&cell(rt))
            .map_or(["failed"; 2].map(String::from), &outcome);
        table.row(vec![rt.label().into(), a, b]);
    }
    table
}

/// Fig. 11 — canneal's atomic element swaps under different runtimes.
pub fn fig11(exec: &Executor, scale: f64) -> String {
    let table = outcomes(
        exec,
        ["runtime", "completed", "result"],
        &[
            RuntimeKind::Pthreads,
            RuntimeKind::TmiProtect,
            RuntimeKind::SheriffProtect,
            RuntimeKind::SheriffDetect,
        ],
        |rt| {
            JobSpec::repair("canneal")
                .runtime(rt)
                .scale(scale)
                .max_ops(30_000_000) // bound broken runs
        },
        |r| {
            [
                format!("{:?}", r.halt),
                match &r.verified {
                    Ok(()) => "correct (all elements present exactly once)".into(),
                    Err(e) => format!("CORRUPTED: {e}"),
                },
            ]
        },
    );
    layout(
        &format!("Fig. 11: canneal's atomic swaps under different runtimes (scale {scale})"),
        &table,
        "(paper: Sheriff corrupts canneal because its PTSB has no consistency guard;\n\
         TMI routes the atomic/assembly swap code to shared memory and stays correct)",
    )
}

/// Fig. 12 — cholesky's volatile-flag synchronization under different
/// runtimes.
pub fn fig12(exec: &Executor) -> String {
    let table = outcomes(
        exec,
        ["runtime", "outcome", "flag visible"],
        &[
            RuntimeKind::Pthreads,
            RuntimeKind::TmiDetect,
            RuntimeKind::TmiProtect,
            RuntimeKind::SheriffProtect,
            RuntimeKind::SheriffDetect,
        ],
        |rt| JobSpec::repair("cholesky").runtime(rt).max_ops(8_000_000), // bound the hang
        |r| {
            [
                match r.halt {
                    tmi_sim::Halt::Completed => "completed".into(),
                    tmi_sim::Halt::Hang => "HANGS (stale private flag)".into(),
                    tmi_sim::Halt::Fault(ref e) => format!("fault: {e}"),
                },
                match &r.verified {
                    Ok(()) => "yes".into(),
                    Err(e) => e.clone(),
                },
            ]
        },
    );
    layout(
        "Fig. 12: cholesky's volatile-flag synchronization under different runtimes",
        &table,
        "(paper: Sheriff hangs on cholesky; TMI performs detection on all of these\n\
         benchmarks without causing incorrect results, §4.5)",
    )
}

/// §4.3 ablation — targeted page protection vs PTSB-everywhere.
pub fn ablate_ptsb_everywhere(exec: &Executor, scale: f64) -> String {
    const WORKLOADS: [&str; 5] = [
        "histogram",
        "histogramfs",
        "lreg",
        "stringmatch",
        "shptr-relaxed",
    ];
    const RUNTIMES: [RuntimeKind; 3] = [
        RuntimeKind::Pthreads,
        RuntimeKind::TmiProtect,
        RuntimeKind::TmiPtsbEverywhere,
    ];
    let cell = |name, rt| JobSpec::repair(name).runtime(rt).scale(scale).misaligned();
    let cells = Cells::run(
        exec,
        WORKLOADS
            .iter()
            .flat_map(|&name| RUNTIMES.map(|rt| cell(name, rt))),
    );

    let mut table = Table::new(&["workload", "TMI (targeted)", "PTSB-everywhere"]);
    for name in WORKLOADS {
        let [base, targeted, everywhere] =
            RUNTIMES.map(|rt| cells.verified(&cell(name, rt)).cycles);
        let speedup = |cycles| ratio(base as f64 / cycles as f64);
        table.row(vec![name.into(), speedup(targeted), speedup(everywhere)]);
    }
    layout(
        &format!("PTSB-everywhere ablation: speedup over pthreads (4 threads, scale {scale})"),
        &table,
        "(paper: indiscriminate PTSB use turns histogram's 1.29x speedup into a 0.74x\n\
         slowdown and halves histogramfs's benefit — motivating targeted repair, §4.3)",
    )
}

/// Extension sweep — false-sharing penalty and repair quality vs thread
/// count.
pub fn sweep_threads(exec: &Executor, name: &str, scale: f64) -> String {
    const THREADS: [usize; 4] = [2, 4, 8, 16];
    let cell = |threads, rt| {
        JobSpec::repair(name)
            .runtime(rt)
            .scale(scale)
            .misaligned()
            .threads(threads)
    };
    let manual = |threads| JobSpec::repair(name).scale(scale).fixed().threads(threads);
    let cells = Cells::run(
        exec,
        THREADS.iter().flat_map(|&threads| {
            [
                cell(threads, RuntimeKind::Pthreads),
                manual(threads),
                cell(threads, RuntimeKind::TmiProtect),
            ]
        }),
    );

    let mut table = Table::new(&[
        "threads",
        "FS slowdown (buggy/fixed)",
        "TMI speedup",
        "TMI % of manual",
    ]);
    for threads in THREADS {
        let base = cells.verified(&cell(threads, RuntimeKind::Pthreads)).cycles as f64;
        let speedup = |spec| base / cells.verified(&spec).cycles as f64;
        let s_manual = speedup(manual(threads));
        let s_tmi = speedup(cell(threads, RuntimeKind::TmiProtect));
        table.row(vec![
            threads.to_string(),
            ratio(s_manual),
            ratio(s_tmi),
            format!("{:.0}%", 100.0 * s_tmi / s_manual),
        ]);
    }
    layout(
        &format!("Thread-count sweep on {name} (scale {scale})"),
        &table,
        "(extension: more sharers per line → more invalidation traffic per write →\n \
         larger false-sharing penalty; TMI's repair tracks the manual fix throughout)",
    )
}

/// Table 1 — the requirements matrix, every cell measured.
pub fn table1(exec: &Executor, scale: f64) -> String {
    const QUIET: [&str; 5] = [
        "blackscholes",
        "swaptions",
        "matrix",
        "pca",
        "streamcluster",
    ];
    const DETECTORS: [RuntimeKind; 4] = [
        RuntimeKind::SheriffDetect,
        RuntimeKind::Plastic,
        RuntimeKind::Laser,
        RuntimeKind::TmiDetect,
    ];
    const PROTECTORS: [RuntimeKind; 4] = [
        RuntimeKind::SheriffProtect,
        RuntimeKind::Plastic,
        RuntimeKind::Laser,
        RuntimeKind::TmiProtect,
    ];
    let runs = |rt, name: &str| {
        sheriff_compatible(name)
            || !matches!(rt, RuntimeKind::SheriffDetect | RuntimeKind::SheriffProtect)
    };
    // compatible (suite coverage): every workload the system claims to
    // run, bounded against livelock.
    let compat = |rt, name| {
        JobSpec::new(name)
            .runtime(rt)
            .scale(scale)
            .max_ops(40_000_000)
    };
    // memory consistency: canneal (atomics) + cholesky (racy flag).
    let consistency = |rt| {
        [
            JobSpec::repair("canneal")
                .runtime(rt)
                .scale(0.5)
                .max_ops(20_000_000),
            JobSpec::repair("cholesky").runtime(rt).max_ops(6_000_000),
        ]
    };
    // overhead w/o contention: fixed stop-the-world costs amortize over
    // realistic run lengths, so measure at full benchmark scale; % of
    // manual speedup: the fig9 metric, at fig9's scale.
    let big = scale.max(2.0);
    let quiet = |rt, name| JobSpec::new(name).runtime(rt).scale(big);
    let repair = |rt, name| JobSpec::repair(name).runtime(rt).scale(big).misaligned();
    let manual = |name| JobSpec::repair(name).scale(big).fixed();
    let repaired = |rt, name| repair(rt, name).max_ops(60_000_000);

    let mut specs = Vec::new();
    for rt in DETECTORS {
        let names = tmi_workloads::SUITE.iter().filter(|&&name| runs(rt, name));
        specs.extend(names.map(|&name| compat(rt, name)));
    }
    specs.extend(PROTECTORS.iter().flat_map(|&rt| consistency(rt)));
    for rt in DETECTORS {
        specs.extend(
            QUIET
                .iter()
                .flat_map(|&name| [quiet(RuntimeKind::Pthreads, name), quiet(rt, name)]),
        );
    }
    for rt in PROTECTORS {
        let names = tmi_workloads::REPAIR_SUITE
            .iter()
            .filter(|&&name| runs(rt, name));
        specs.extend(names.flat_map(|&name| {
            [
                repair(RuntimeKind::Pthreads, name),
                manual(name),
                repaired(rt, name),
            ]
        }));
    }
    let cells = Cells::run(exec, specs);

    let mut table = Table::new(&["requirement", "Sheriff", "Plastic", "LASER", "TMI"]);
    let mut row =
        |requirement: &str, runtimes: [RuntimeKind; 4], value: &dyn Fn(RuntimeKind) -> String| {
            let mut line = vec![requirement.to_string()];
            line.extend(runtimes.map(value));
            table.row(line);
        };
    row("compatible (suite coverage)", DETECTORS, &|rt| {
        let suite = tmi_workloads::SUITE;
        let ok = suite
            .iter()
            .filter(|&&name| runs(rt, name) && cells.get(&compat(rt, name)).ok())
            .count();
        format!("{ok}/{}", suite.len())
    });
    row("memory consistency preserved", PROTECTORS, &|rt| {
        if consistency(rt).iter().all(|spec| cells.get(spec).ok()) {
            "yes".into()
        } else {
            "NO".into()
        }
    });
    row("overhead w/o contention", DETECTORS, &|rt| {
        let overs: Vec<f64> = QUIET
            .iter()
            .filter_map(|&name| {
                let base = cells.completed(&quiet(RuntimeKind::Pthreads, name))?;
                let r = cells.completed(&quiet(rt, name))?;
                (r.ok() && base.ok()).then(|| r.cycles as f64 / base.cycles as f64 - 1.0)
            })
            .collect();
        format!("{:+.0}%", mean(&overs) * 100.0)
    });
    row("% of manual speedup", PROTECTORS, &|rt| {
        let fracs: Vec<f64> = tmi_workloads::REPAIR_SUITE
            .iter()
            .filter(|&&name| runs(rt, name))
            .filter_map(|&name| {
                let r = cells.completed(&repaired(rt, name)).filter(|r| r.ok())?;
                let base = cells.get(&repair(RuntimeKind::Pthreads, name)).result();
                let manual = cells.get(&manual(name)).result();
                let manual_speedup = base.cycles as f64 / manual.cycles as f64;
                Some(base.cycles as f64 / r.cycles as f64 / manual_speedup)
            })
            .collect();
        let skipped = tmi_workloads::REPAIR_SUITE.len() - fracs.len();
        let f = mean(&fracs) * 100.0;
        if skipped > 0 {
            format!("{f:.0}% ({skipped} n/a)")
        } else {
            format!("{f:.0}%")
        }
    });
    layout(
        &format!("Table 1: requirements matrix, measured from this reproduction (scale {scale})"),
        &table,
        "(paper: Sheriff 27% overhead / 92% of manual / consistency broken;\n\
         Plastic 6% / ~30%; LASER 2% / 24%; TMI 2% / 88%)",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_tmi_row_runs_with_xs_page_armed() {
        let (x, engine) = ambsa::tmi_protect();
        assert!(x == 0xAB00 || x == 0x00CD, "AMBSA holds: x = {x:#06x}");
        let m = engine.metrics("tmi");
        assert!(
            m.u64("tmi.repair.protected_pages") >= 1,
            "the PTSB must be armed on x's page"
        );
        assert_eq!(m.u64("tmi.repair.converted"), 1);
    }

    #[test]
    fn cells_submit_a_repeated_spec_once() {
        let exec = Executor::new(2);
        let copies = [
            JobSpec::new("histogram").scale(0.03),
            JobSpec::new("histogram").scale(0.03),
        ];
        let cells = Cells::run(&exec, copies.clone());
        assert_eq!(exec.job_log().len(), 1, "one job for both copies");
        for spec in &copies {
            assert!(cells.get(spec).ok());
        }
    }

    #[test]
    fn sections_are_unique_and_quick_rows_match_the_golden_banners() {
        for (i, s) in SECTIONS.iter().enumerate() {
            assert!(
                SECTIONS[..i].iter().all(|t| t.name != s.name),
                "section {} is listed twice",
                s.name
            );
        }
        let golden = include_str!("../../../tests/golden/run_all_quick.txt");
        let banners: Vec<&str> = golden
            .lines()
            .filter_map(|l| l.strip_prefix("== "))
            .collect();
        let quick: Vec<&str> = SECTIONS
            .iter()
            .filter(|s| s.quick.is_some())
            .map(|s| s.name)
            .collect();
        assert_eq!(quick, banners);
    }
}
