//! # tmi-perfbench — end-to-end and per-layer host-time benchmark
//!
//! One run measures one workload in one process on at most `nproc` host
//! threads and prints every metric as JSON. The benchmark measures the
//! simulator only from outside, by timing the public calls it makes into
//! each layer (`figures`, `Executor`, `Engine`, `Kernel`, `Machine`,
//! `ThreadProgram`).
//!
//! | workload | drives | why |
//! |---|---|---|
//! | `paper_quick` | the nine `run_all --quick` sections via `figures` | the headline number: executor fan-out and memo cache over every runtime |
//! | `repair_full` | the Fig. 9 cells at scale 1.0 as one `Executor` batch | the runtime layers (detection, T2P, PTSB commits, perf sampling, baselines); carries the fidelity gap |
//! | `synth_private` | generated private traffic on `Engine` directly | the machine's hit/fill path, OS translation and the engine's private-op path; no runtime, no executor |
//! | `synth_contended` | the same generator on falsely shared lines plus a shared counter | the HITM/invalidation path and serial replay instead of private hits |
//!
//! See `perfbench/README.md` for the metrics and what each should move.

mod catalog;
mod golden;
pub mod host;
mod spans;
mod stats;
pub mod synth;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use tmi_telemetry::json;
use tmi_telemetry::MetricsSnapshot;

use crate::spans::{SpanId, Spans};
use crate::stats::median;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The `run_all --quick` sections, checked against the golden report.
    PaperQuick,
    /// The Fig. 9 cell set at scale 1.0.
    RepairFull,
    /// Synthetic private traffic on the engine.
    SynthPrivate,
    /// Synthetic false sharing and true sharing on the engine.
    SynthContended,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperQuick,
        Workload::RepairFull,
        Workload::SynthPrivate,
        Workload::SynthContended,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperQuick => "paper_quick",
            Workload::RepairFull => "repair_full",
            Workload::SynthPrivate => "synth_private",
            Workload::SynthContended => "synth_contended",
        }
    }

    /// The inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The end-to-end metrics every run without `--trace` prints: name and
/// unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_maccesses_per_s", "M/s"),
    ("cell_p50_ms", "ms"),
    ("cell_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The runtimes the catalog workloads run, by report label.
const HARNESS_LABELS: [&str; 8] = [
    "pthreads",
    "tmi-alloc",
    "tmi-detect",
    "tmi-protect",
    "tmi-ptsb-everywhere",
    "sheriff-detect",
    "sheriff-protect",
    "laser",
];

/// Per-layer counts summed over a pass's cells: the layer metric and the
/// registry counter behind it.
const COUNTER_SUMS: [(&str, &str); 12] = [
    ("core.records_taken", "tmi.perf.records_taken"),
    ("core.commits", "tmi.repair.commits"),
    ("core.bytes_merged", "tmi.repair.bytes_merged"),
    ("machine.accesses", "machine.accesses"),
    ("machine.local_hits", "machine.local_hits"),
    ("machine.hitm_events", "machine.hitm_events"),
    ("machine.invalidations", "machine.invalidations"),
    ("machine.dram_accesses", "machine.dram_accesses"),
    ("os.total_demand_faults", "os.total_demand_faults"),
    ("os.cow_breaks", "os.cow_breaks"),
    ("os.tlb_hits", "os.tlb.hits"),
    ("os.tlb_misses", "os.tlb.misses"),
];

/// Per-layer metrics only the traced pass measures.
const TRACE_ONLY: [&str; 6] = [
    "sim.self_share",
    "machine.access_share",
    "os.translate_share",
    "os.fault_share",
    "program.next_calls",
    "program.next_share",
];

/// Every per-layer metric a `--trace 1` run prints: name and unit. A
/// metric that does not apply to a workload (a runtime the workload never
/// runs, a section it never renders) reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit| v.push((name, unit));
    for (name, unit) in [
        ("exec.cells", "count"),
        ("exec.cache_hits", "count"),
        ("exec.hit_ratio", "frac"),
        ("exec.busy_s", "s"),
        ("exec.idle_s", "s"),
        ("exec.util", "frac"),
    ] {
        add(name.to_string(), unit);
    }
    for section in catalog::QUICK_SECTIONS {
        add(format!("figures.{section}_share"), "frac");
    }
    for label in HARNESS_LABELS {
        add(format!("harness.{label}.cells"), "count");
        add(format!("harness.{label}.host_share"), "frac");
        add(format!("harness.{label}.maccesses_per_s"), "M/s");
    }
    for (name, unit) in [
        ("core.protect_host_ratio", "ratio"),
        ("core.detect_host_ratio", "ratio"),
        ("core.records_taken", "count"),
        ("core.commits", "count"),
        ("core.bytes_merged", "bytes"),
        ("core.paper_gap_pp", "pp"),
        ("baselines.sheriff_host_ratio", "ratio"),
        ("baselines.laser_host_ratio", "ratio"),
        ("sim.mops_per_s", "M/s"),
        ("sim.self_share", "frac"),
        ("machine.accesses", "count"),
        ("machine.local_hits", "count"),
        ("machine.hitm_events", "count"),
        ("machine.invalidations", "count"),
        ("machine.dram_accesses", "count"),
        ("machine.access_share", "frac"),
        ("os.total_demand_faults", "count"),
        ("os.cow_breaks", "count"),
        ("os.tlb_hits", "count"),
        ("os.tlb_misses", "count"),
        ("os.translate_share", "frac"),
        ("os.fault_share", "frac"),
        ("program.next_calls", "count"),
        ("program.next_share", "frac"),
        ("trace.overhead_frac", "frac"),
    ] {
        add(name.to_string(), unit);
    }
    v
}

/// Per-layer values of one pass, by metric name.
#[derive(Clone, Debug, Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    /// No values yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets one metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// One metric, 0 if unset.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Sums each [`COUNTER_SUMS`] counter over `snapshots` and returns the
    /// counters no snapshot registered.
    fn sum_counters<'a>(
        &mut self,
        snapshots: impl Iterator<Item = &'a MetricsSnapshot> + Clone,
    ) -> Vec<String> {
        let mut missing = Vec::new();
        for (layer, counter) in COUNTER_SUMS {
            let values: Vec<f64> = snapshots
                .clone()
                .filter_map(|s| s.get(counter))
                .map(|v| v.as_f64())
                .collect();
            if values.is_empty() {
                missing.push(counter.to_string());
            } else {
                self.set(layer, values.iter().sum());
            }
        }
        missing
    }

    /// The per-metric median over `passes`.
    fn median_of(passes: &[&Layers]) -> Layers {
        let mut names: Vec<&String> = passes.iter().flat_map(|l| l.0.keys()).collect();
        names.sort();
        names.dedup();
        Layers(
            names
                .into_iter()
                .map(|n| {
                    let values: Vec<f64> = passes.iter().map(|l| l.get(n)).collect();
                    (n.clone(), median(&values))
                })
                .collect(),
        )
    }
}

/// One pass over a workload's cells.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Host seconds of the pass.
    pub wall_s: f64,
    /// The host seconds the tracing overhead is measured on: the pass wall
    /// on catalog workloads, the cells' summed host time on synthetic ones
    /// (whose traced pass also replays schedules after the cells).
    pub trace_basis_s: f64,
    /// Set-up seconds of each cell, where cells set up individually.
    pub setup_s: Vec<f64>,
    /// Host seconds and simulated machine accesses of each computed cell.
    pub cells: Vec<(f64, u64)>,
    /// Checked units: cells, plus compared sections.
    pub attempted: u64,
    /// One message per failed unit.
    pub failures: Vec<String>,
    /// Registry counters no cell registered.
    pub missing_counters: Vec<String>,
    /// The pass's per-layer values.
    pub layers: Layers,
}

/// How big each workload is.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// `run_all --quick` sections `paper_quick` renders.
    pub sections: &'static [&'static str],
    /// Work scale of the `repair_full` cells.
    pub repair_scale: f64,
    /// Cells per synthetic pass.
    pub synth_cells: usize,
    /// Ops per simulated thread of a synthetic cell.
    pub synth_ops: u64,
}

/// The measured sizes.
pub const FULL: Sizes = Sizes {
    sections: &catalog::QUICK_SECTIONS,
    repair_scale: 1.0,
    synth_cells: 40,
    synth_ops: 100_000,
};

/// `--smoke`: every workload at a size that runs in seconds.
pub const SMOKE: Sizes = Sizes {
    sections: &["fig3", "fig4"],
    repair_scale: 0.02,
    synth_cells: 4,
    synth_ops: 2_000,
};

/// How often a catalog run times its set-up while the passes run.
const SETUP_SAMPLE_EVERY: std::time::Duration = std::time::Duration::from_millis(100);
/// Back-to-back set-ups per sample.
const SETUP_BATCH: usize = 20;

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the workload's inputs.
    pub seed: u64,
    /// Host seconds to measure for; at least one pass always runs.
    pub seconds: f64,
    /// Also run a traced pass and report the per-layer metrics.
    pub trace: bool,
    /// Workload sizes.
    pub sizes: Sizes,
    /// The repository checkout the benchmark runs in.
    pub root: PathBuf,
    /// Where the traced pass writes its Chrome trace.
    pub spans_path: PathBuf,
}

/// One finished run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Checked units.
    pub attempted: u64,
    /// One message per failed unit.
    pub failures: Vec<String>,
    /// Printed metrics: name, unit, value.
    pub metrics: Vec<(String, &'static str, f64)>,
    /// Extra facts about the run as JSON object members.
    pub detail: Vec<(&'static str, String)>,
}

impl Report {
    /// Failed units.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Failed units over attempted ones.
    pub fn failed_frac(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::string(name),
                    json::fmt_f64(*value),
                    json::string(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failed(),
            metrics.join(", ")
        )
    }

    /// The detail line printed before the result line.
    pub fn detail_json(&self) -> String {
        let members: Vec<String> = self
            .detail
            .iter()
            .map(|(k, v)| format!("{}: {v}", json::string(k)))
            .collect();
        format!("{{\"detail\": {{{}}}}}", members.join(", "))
    }
}

type PassFn<'a> = Box<dyn FnMut(Option<(&Arc<Spans>, SpanId)>) -> Pass + 'a>;
type SetupFn<'a> = Box<dyn Fn() + Sync + 'a>;

/// Runs `body` while another thread times `setup` every
/// [`SETUP_SAMPLE_EVERY`], and returns the samples with `body`'s result.
/// Each sample is the mean of [`SETUP_BATCH`] back-to-back set-ups.
///
/// A catalog set-up takes microseconds, so one timing of it describes the
/// host at that instant: how fast a shared host's cores run changes
/// within fractions of a second and between minutes, and a lone set-up
/// after a pause is mostly cold caches. Warm batches spread over the whole
/// run describe the set-up's own work, averaged over the same stretch of
/// host time as the run's other metrics. The sampler costs well under 1%
/// of one core.
fn sample_setup_during<R>(setup: Option<&SetupFn>, body: impl FnOnce() -> R) -> (Vec<f64>, R) {
    let Some(setup) = setup else {
        return (Vec::new(), body());
    };
    let (stop, stopped) = std::sync::mpsc::channel::<()>();
    std::thread::scope(|scope| {
        let sampler = scope.spawn(move || {
            let mut samples = Vec::new();
            loop {
                let t0 = Instant::now();
                for _ in 0..SETUP_BATCH {
                    setup();
                }
                samples.push(t0.elapsed().as_secs_f64() / SETUP_BATCH as f64);
                if !matches!(
                    stopped.recv_timeout(SETUP_SAMPLE_EVERY),
                    Err(std::sync::mpsc::RecvTimeoutError::Timeout)
                ) {
                    break samples;
                }
            }
        });
        let result = body();
        // An error means the sampler already ended; the join reports why.
        let _ = stop.send(());
        let samples = sampler.join().expect("set-up sampler panicked");
        (samples, result)
    })
}

/// Reads and splits the golden report, and sizes the executor the passes
/// use: everything `paper_quick` needs before its first section.
fn quick_setup(root: &Path, workers: usize) -> Result<Vec<(String, String)>, String> {
    let path = root.join(golden::GOLDEN_PATH);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    drop(tmi_bench::Executor::new(workers));
    golden::split_sections(&text)
}

/// Runs one workload: set-up, untraced passes for `seconds` (half of it
/// when a traced pass follows), then the traced pass if asked for.
pub fn run(opts: &Options) -> Result<Report, String> {
    let workers = host::nproc();
    let sizes = opts.sizes;
    let repair_setup = || {
        let cells = catalog::repair_cells(opts.seed);
        let specs: Vec<_> = cells
            .iter()
            .map(|c| catalog::repair_spec(c, sizes.repair_scale))
            .collect();
        drop(tmi_bench::Executor::new(workers));
        (cells, specs)
    };
    let (setup, mut pass): (Option<SetupFn>, PassFn) = match opts.workload {
        Workload::PaperQuick => {
            let golden = quick_setup(&opts.root, workers)?;
            let pass = move |sp: Option<(&Arc<Spans>, SpanId)>| {
                let sp = sp.map(|(s, id)| (&**s, id));
                catalog::quick_pass(&golden, sizes.sections, workers, sp)
            };
            let setup = || {
                std::hint::black_box(quick_setup(&opts.root, workers).ok());
            };
            (Some(Box::new(setup)), Box::new(pass))
        }
        Workload::RepairFull => {
            let (cells, specs) = repair_setup();
            let pass = move |sp: Option<(&Arc<Spans>, SpanId)>| {
                let sp = sp.map(|(s, id)| (&**s, id));
                catalog::repair_pass(&cells, &specs, workers, sp)
            };
            let setup = || {
                std::hint::black_box(repair_setup());
            };
            (Some(Box::new(setup)), Box::new(pass))
        }
        Workload::SynthPrivate | Workload::SynthContended => {
            let kind = if opts.workload == Workload::SynthPrivate {
                synth::SynthKind::Private
            } else {
                synth::SynthKind::Contended
            };
            let specs = synth::cell_specs(kind, opts.seed, sizes.synth_cells, sizes.synth_ops);
            let timer_ns = synth::timer_overhead_ns();
            let pass = move |sp: Option<(&Arc<Spans>, SpanId)>| {
                synth::synth_pass(&specs, workers, sp, timer_ns)
            };
            (None, Box::new(pass))
        }
    };
    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let (mut setup_samples, passes) = sample_setup_during(setup.as_ref(), || {
        let t0 = Instant::now();
        let mut passes: Vec<Pass> = Vec::new();
        loop {
            passes.push(pass(None));
            let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
            if t0.elapsed().as_secs_f64() + median(&walls) > budget {
                break passes;
            }
        }
    });
    setup_samples.extend(passes.iter().flat_map(|p| p.setup_s.iter().copied()));
    let setup_s = median(&setup_samples);

    let spans = opts.trace.then(|| Arc::new(Spans::new()));
    let traced = spans.as_ref().map(|log| {
        let id = log.id();
        let start = Instant::now();
        let p = pass(Some((log, id)));
        let name = format!("{} traced pass", opts.workload.name());
        log.record(id, "bench", name, start, Instant::now(), 0, None);
        p
    });

    let mut failures: Vec<String> = passes
        .iter()
        .chain(&traced)
        .flat_map(|p| p.failures.iter().cloned())
        .collect();
    let attempted = passes.iter().chain(&traced).map(|p| p.attempted).sum();

    let total_host: f64 = passes
        .iter()
        .flat_map(|p| p.cells.iter().map(|c| c.0))
        .sum();
    let accesses: u64 = passes
        .iter()
        .flat_map(|p| p.cells.iter().map(|c| c.1))
        .sum();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let cells = cell_medians(&passes);
    let (tail_pct, tail) =
        stats::tail(&cells).unwrap_or_else(|| (100, cells.iter().copied().fold(0.0, f64::max)));

    let mut detail = vec![
        ("workload", json::string(opts.workload.name())),
        ("seed", opts.seed.to_string()),
        ("fingerprint", host::fingerprint_json(&opts.root)),
        ("workers", workers.to_string()),
        ("passes", passes.len().to_string()),
        (
            "pass_wall_s",
            json_list(walls.iter().map(|w| json::fmt_f64(*w))),
        ),
        ("cells", cells.len().to_string()),
        ("tail_percentile", tail_pct.to_string()),
    ];

    let metrics = match (&traced, &spans) {
        (Some(tp), Some(log)) => {
            let untraced: Vec<&Layers> = passes.iter().map(|p| &p.layers).collect();
            let mut layers = Layers::median_of(&untraced);
            for name in TRACE_ONLY {
                layers.set(name, tp.layers.get(name));
            }
            let basis: Vec<f64> = passes.iter().map(|p| p.trace_basis_s).collect();
            layers.set(
                "trace.overhead_frac",
                tp.trace_basis_s / median(&basis) - 1.0,
            );
            match log.check() {
                Ok(n) => detail.push(("span_events", n.to_string())),
                Err(e) => failures.push(format!("span trace is invalid: {e}")),
            }
            let doc = log.to_chrome_json();
            if let Some(dir) = opts.spans_path.parent() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            }
            std::fs::write(&opts.spans_path, doc)
                .map_err(|e| format!("cannot write {}: {e}", opts.spans_path.display()))?;
            detail.push((
                "spans",
                json::string(&opts.spans_path.display().to_string()),
            ));
            let mut missing: Vec<String> = passes
                .iter()
                .flat_map(|p| p.missing_counters.iter().cloned())
                .collect();
            missing.sort();
            missing.dedup();
            detail.push((
                "missing_counters",
                json_list(missing.iter().map(|m| json::string(m))),
            ));
            let known = per_layer();
            for name in layers.0.keys() {
                assert!(
                    known.iter().any(|(k, _)| k == name),
                    "per-layer metric {name} is not declared in per_layer()"
                );
            }
            known
                .into_iter()
                .map(|(name, unit)| {
                    let v = layers.get(&name);
                    (name, unit, finite(v))
                })
                .collect()
        }
        _ => {
            let values = [
                median(&walls),
                setup_s,
                if total_host > 0.0 {
                    accesses as f64 / total_host / 1e6
                } else {
                    0.0
                },
                median(&cells) * 1e3,
                tail * 1e3,
                host::peak_rss_mb(),
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), v)| (name.to_string(), unit, finite(v)))
                .collect()
        }
    };

    let mut report = Report {
        attempted,
        failures,
        metrics,
        detail,
    };
    let failed_frac = json::fmt_f64(report.failed_frac());
    let first = json_list(report.failures.iter().take(5).map(|f| json::string(f)));
    report.detail.push(("failed_frac", failed_frac));
    report.detail.push(("failures", first));
    Ok(report)
}

/// Each computed cell's median host seconds over the passes. Passes run
/// the same cells in the same order, so cell `i` of every pass is the same
/// cell; a transient slowdown of the host then moves one of a cell's
/// samples, not the cell's median. Passes of unequal length (a cell that
/// panicked in one of them) are pooled instead.
fn cell_medians(passes: &[Pass]) -> Vec<f64> {
    let n = passes.first().map_or(0, |p| p.cells.len());
    if passes.iter().all(|p| p.cells.len() == n) {
        (0..n)
            .map(|i| median(&passes.iter().map(|p| p.cells[i].0).collect::<Vec<_>>()))
            .collect()
    } else {
        passes
            .iter()
            .flat_map(|p| p.cells.iter().map(|c| c.0))
            .collect()
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn json_list(items: impl Iterator<Item = String>) -> String {
    format!("[{}]", items.collect::<Vec<_>>().join(", "))
}
