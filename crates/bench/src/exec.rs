//! Deterministic parallel experiment execution.
//!
//! Every figure and table regenerates from a (workload × runtime ×
//! config) matrix, and each cell is an independent, deterministic,
//! single-threaded simulation ([`crate::harness`]). That makes the matrix
//! embarrassingly parallel — this module fans it out over a scoped worker
//! pool while keeping every report **byte-identical to a serial run**:
//!
//! * Jobs are drained from a shared queue but results are collected **by
//!   submission index**, never by completion order.
//! * Each simulation is deterministic, so a cell's [`RunResult`] does not
//!   depend on which worker ran it or what ran concurrently.
//! * A panicking cell is caught per-job ([`std::panic::catch_unwind`]) and
//!   reported as a failed [`JobResult`] instead of killing the suite.
//!
//! The pool is sized from [`std::thread::available_parallelism`], and the
//! `TMI_BENCH_JOBS` environment variable overrides it (`TMI_BENCH_JOBS=1`
//! forces serial execution; the output must not change).
//!
//! Completed jobs are memoized by their canonical [`JobSpec::to_json`]
//! form, so e.g. the pthreads baselines that several figures share are
//! computed once per `run_all` instead of once per figure. Memoization is
//! sound because runs are deterministic: a cache hit returns exactly the
//! bytes a rerun would.
//!
//! [`Experiment`] is the builder for one cell and the public entry point
//! to the harness; [`ExperimentSet`] batches cells for parallel
//! execution. The executor also keeps a per-job timing log which
//! [`Executor::write_json`] emits as `BENCH_harness.json`.

use std::collections::HashMap;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tmi_machine::LatencyModel;
use tmi_telemetry::json::{fmt_f64, string};
use tmi_telemetry::{chrome, MetricsSnapshot, Tracer};

use crate::harness::{self, RunConfig, RunResult, RuntimeKind};
pub use crate::spec::JobSpec;

/// Fans `f(0..n)` out over a scoped pool of `workers` threads and returns
/// the results **in index order**, independent of completion order.
///
/// This is the deterministic work-stealing core shared by
/// [`Executor::run`] and the fuzz campaign driver
/// ([`crate::fuzz::run_campaign`]): indices are drained from a shared
/// counter, each result lands in its submission slot, and as long as `f`
/// is a pure function of its index the returned vector is identical for
/// any pool size (`workers = 1` is a serial run).
///
/// # Panics
///
/// Propagates a panic from `f` (the scope unwinds); callers that need
/// per-item isolation wrap `f` in [`std::panic::catch_unwind`] as
/// [`Executor::run`] does.
pub fn pool_map<T, F>(workers: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = workers.min(n).max(1);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = f(i);
                *slots[i].lock().unwrap() = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("worker filled every slot")
        })
        .collect()
}

/// Returns the heap a finished batch freed to the OS.
///
/// Every pool worker allocates a whole simulated machine per cell, and
/// glibc keeps a worker's freed arena memory instead of unmapping it. A
/// process that runs batch after batch (a benchmark looping over the
/// figures) then grows its resident set with every batch although its
/// live heap stays flat. `malloc_trim(0)` hands the free pages back once
/// per batch, which costs far less than one cell.
fn release_freed_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: `malloc_trim` only releases memory glibc's allocator
        // already holds as free; it is thread-safe and touches no live
        // allocation.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// The outcome of one executed cell.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The cell that ran.
    pub spec: JobSpec,
    /// Submission index within its batch (results are returned in this
    /// order regardless of completion order).
    pub index: usize,
    /// The measured run, or the panic message if the cell failed.
    pub outcome: Result<RunResult, String>,
    /// Host wall-clock seconds this cell took (0 for memoized hits).
    pub host_seconds: f64,
    /// Whether the result came from the executor's memo cache.
    pub from_cache: bool,
}

impl JobResult {
    /// True if the cell ran to completion and verified.
    pub fn ok(&self) -> bool {
        matches!(&self.outcome, Ok(r) if r.ok())
    }

    /// The run result.
    ///
    /// # Panics
    ///
    /// Panics with the cell's panic message if the cell failed; use
    /// [`JobResult::outcome`] to handle failures.
    pub fn result(&self) -> &RunResult {
        match &self.outcome {
            Ok(r) => r,
            Err(e) => panic!(
                "job {} ({} under {}) failed: {e}",
                self.index,
                self.spec.workload,
                self.spec.cfg.runtime.label()
            ),
        }
    }
}

/// One line of the executor's timing log (the `BENCH_harness.json`
/// cells).
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// Batch sequence number (each [`Executor::run`] call is one batch).
    pub batch: usize,
    /// Submission index within the batch.
    pub index: usize,
    /// Workload name.
    pub workload: String,
    /// Runtime label.
    pub runtime: &'static str,
    /// Worker threads simulated.
    pub threads: usize,
    /// Work scale.
    pub scale: f64,
    /// `"ok"`, `"failed"`, or `"cached"`.
    pub status: &'static str,
    /// Host wall-clock seconds for this cell.
    pub host_seconds: f64,
    /// Simulated cycles (0 if the cell failed).
    pub sim_cycles: u64,
    /// Simulated seconds (0 if the cell failed).
    pub sim_seconds: f64,
    /// The cell's metrics-registry snapshot (empty if the cell failed).
    pub metrics: MetricsSnapshot,
}

/// The deterministic parallel job executor.
///
/// Cheap to create; share one across figures (as `run_all` does) to get
/// cross-figure memoization of repeated cells.
pub struct Executor {
    workers: usize,
    /// Memo cache keyed on [`JobSpec::to_json`], the same identity the
    /// service's result cache, journal and spill use.
    cache: Mutex<HashMap<String, RunResult>>,
    log: Mutex<Vec<JobRecord>>,
    batches: AtomicUsize,
    created: Instant,
}

impl Executor {
    /// An executor with an explicit worker count (clamped to ≥ 1).
    pub fn new(workers: usize) -> Self {
        Executor {
            workers: workers.max(1),
            cache: Mutex::new(HashMap::new()),
            log: Mutex::new(Vec::new()),
            batches: AtomicUsize::new(0),
            created: Instant::now(),
        }
    }

    /// An executor sized from `TMI_BENCH_JOBS` if set, else
    /// [`std::thread::available_parallelism`].
    pub fn from_env() -> Self {
        let workers = std::env::var("TMI_BENCH_JOBS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        Executor::new(workers)
    }

    /// The pool size jobs fan out over.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs a batch of cells, fanning out over the worker pool, and
    /// returns results **in submission order**. With identical specs the
    /// returned vector is byte-identical for any pool size.
    pub fn run(&self, specs: Vec<JobSpec>) -> Vec<JobResult> {
        let batch = self.batches.fetch_add(1, Ordering::Relaxed);
        let results = pool_map(self.workers, specs.len(), |i| {
            self.run_one(batch, i, &specs[i])
        });
        release_freed_heap();
        results
    }

    fn run_one(&self, batch: usize, index: usize, spec: &JobSpec) -> JobResult {
        let key = spec.to_json();
        if let Some(hit) = self.cache.lock().unwrap().get(&key).cloned() {
            self.record(batch, index, spec, "cached", 0.0, Some(&hit));
            return JobResult {
                spec: spec.clone(),
                index,
                outcome: Ok(hit),
                host_seconds: 0.0,
                from_cache: true,
            };
        }
        let t0 = Instant::now();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            harness::execute_spec(spec, &Tracer::disabled())
        }));
        let host_seconds = t0.elapsed().as_secs_f64();
        let outcome = match caught {
            Ok(r) => Ok(r),
            Err(payload) => Err(panic_message(payload.as_ref())),
        };
        match &outcome {
            Ok(r) => {
                self.cache.lock().unwrap().insert(key, r.clone());
                self.record(batch, index, spec, "ok", host_seconds, Some(r));
            }
            Err(_) => self.record(batch, index, spec, "failed", host_seconds, None),
        }
        JobResult {
            spec: spec.clone(),
            index,
            outcome,
            host_seconds,
            from_cache: false,
        }
    }

    fn record(
        &self,
        batch: usize,
        index: usize,
        spec: &JobSpec,
        status: &'static str,
        host_seconds: f64,
        result: Option<&RunResult>,
    ) {
        self.log.lock().unwrap().push(JobRecord {
            batch,
            index,
            workload: spec.workload.clone(),
            runtime: spec.cfg.runtime.label(),
            threads: spec.cfg.threads,
            scale: spec.cfg.scale,
            status,
            host_seconds,
            sim_cycles: result.map_or(0, |r| r.cycles),
            sim_seconds: result.map_or(0.0, |r| r.seconds),
            metrics: result.map(|r| r.metrics.clone()).unwrap_or_default(),
        });
    }

    /// The per-job timing log so far, ordered by (batch, submission
    /// index) so the structure is stable across pool sizes.
    pub fn job_log(&self) -> Vec<JobRecord> {
        let mut log = self.log.lock().unwrap().clone();
        log.sort_by_key(|r| (r.batch, r.index, r.status == "cached"));
        log
    }

    /// Serializes the timing log as the `BENCH_harness.json` document.
    ///
    /// Schema (`tmi-bench-harness/2`; `/2` added the per-cell `metrics`
    /// member, the flat metrics-registry snapshot of the run):
    ///
    /// ```json
    /// {
    ///   "schema": "tmi-bench-harness/2",
    ///   "pool_workers": 8,
    ///   "jobs": 123,
    ///   "cache_hits": 17,
    ///   "wall_seconds": 42.0,
    ///   "cells": [
    ///     {"batch": 0, "index": 0, "workload": "histogram",
    ///      "runtime": "pthreads", "threads": 8, "scale": 1.0,
    ///      "status": "ok", "host_seconds": 0.81,
    ///      "sim_cycles": 3400000, "sim_seconds": 0.001,
    ///      "metrics": {"machine.accesses": 100, "os.minor_faults": 5}}
    ///   ]
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        let log = self.job_log();
        let cache_hits = log.iter().filter(|r| r.status == "cached").count();
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"tmi-bench-harness/2\",\n");
        out.push_str(&format!("  \"pool_workers\": {},\n", self.workers));
        out.push_str(&format!("  \"jobs\": {},\n", log.len()));
        out.push_str(&format!("  \"cache_hits\": {cache_hits},\n"));
        out.push_str(&format!(
            "  \"wall_seconds\": {:.3},\n",
            self.created.elapsed().as_secs_f64()
        ));
        out.push_str("  \"cells\": [\n");
        for (i, r) in log.iter().enumerate() {
            let sep = if i + 1 == log.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"batch\": {}, \"index\": {}, \"workload\": {}, \
                 \"runtime\": {}, \"threads\": {}, \"scale\": {}, \
                 \"status\": {}, \"host_seconds\": {:.6}, \
                 \"sim_cycles\": {}, \"sim_seconds\": {:.9}, \
                 \"metrics\": {}}}{sep}\n",
                r.batch,
                r.index,
                string(&r.workload),
                string(r.runtime),
                r.threads,
                fmt_f64(r.scale),
                string(r.status),
                r.host_seconds,
                r.sim_cycles,
                r.sim_seconds,
                r.metrics.to_json(""),
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes [`Executor::to_json`] to `path`.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic (non-string payload)".to_string()
    }
}

/// Builder for one experiment cell — the canonical way to run the
/// harness:
///
/// ```
/// use tmi_bench::{Experiment, RuntimeKind};
///
/// let r = Experiment::new("histogram")
///     .runtime(RuntimeKind::TmiProtect)
///     .threads(4)
///     .scale(0.05)
///     .run();
/// assert!(r.ok());
/// ```
#[derive(Clone, Debug)]
pub struct Experiment {
    spec: JobSpec,
}

impl Experiment {
    /// An experiment on `workload` with the detection-machine defaults
    /// (pthreads, 8 threads, benchmark scale); see [`RunConfig::new`].
    pub fn new(workload: impl Into<String>) -> Self {
        Experiment {
            spec: JobSpec::new(workload),
        }
    }

    /// An experiment with the §4.1 repair-experiment defaults (4 threads,
    /// fast detection tick); see [`RunConfig::repair`].
    pub fn repair(workload: impl Into<String>) -> Self {
        Experiment {
            spec: JobSpec {
                cfg: RunConfig::repair(RuntimeKind::Pthreads),
                ..JobSpec::new(workload)
            },
        }
    }

    /// Sets the supervising runtime.
    pub fn runtime(mut self, rt: RuntimeKind) -> Self {
        self.spec.cfg.runtime = rt;
        self
    }

    /// Sets the worker-thread (= core) count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.spec.cfg.threads = threads;
        self
    }

    /// Sets the work scale (1.0 = benchmark size).
    pub fn scale(mut self, scale: f64) -> Self {
        self.spec.cfg.scale = scale;
        self
    }

    /// Applies the manual source fix (the `manual` bars of Fig. 9).
    pub fn fixed(mut self) -> Self {
        self.spec.cfg.fixed = true;
        self
    }

    /// Forces the misaligned allocation that exposes allocator-sensitive
    /// false sharing (§4.3).
    pub fn misaligned(mut self) -> Self {
        self.spec.cfg.misaligned = true;
        self
    }

    /// Maps application memory with 2 MiB huge pages (§4.4).
    pub fn huge_pages(mut self) -> Self {
        self.spec.cfg.huge_pages = true;
        self
    }

    /// Sets the perf sampling period (Fig. 4 sweeps this).
    pub fn period(mut self, period: u64) -> Self {
        self.spec.cfg.period = period;
        self
    }

    /// Sets the detection-tick interval in cycles.
    pub fn tick_interval(mut self, cycles: u64) -> Self {
        self.spec.cfg.tick_interval = cycles;
        self
    }

    /// Sets the livelock backstop in dynamic ops.
    pub fn max_ops(mut self, ops: u64) -> Self {
        self.spec.cfg.max_ops = ops;
        self
    }

    /// Runs the cell under the seeded fault schedule
    /// ([`tmi_faultpoint::FaultPlan::from_seed`]); `0` (the default)
    /// disables injection. The seed is part of the cell's identity:
    /// executors memoize and the service caches per `(workload, config,
    /// seed)`.
    pub fn fault_seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Lowers the builder into a queueable cell.
    pub fn spec(self) -> JobSpec {
        self.spec
    }

    /// Runs this cell synchronously on the current thread.
    ///
    /// # Panics
    ///
    /// Panics on unknown workload names, like the harness.
    pub fn run(self) -> RunResult {
        harness::execute_spec(&self.spec, &Tracer::disabled())
    }

    /// Runs under `tmi-detect` and also returns the perf-c2c-style
    /// contention report plus the Cheetah-style predicted manual-fix
    /// speedup (the runtime is forced to [`RuntimeKind::TmiDetect`]).
    pub fn run_detect_report(self) -> (RunResult, tmi::ContentionReport, f64) {
        harness::execute_detect_report(&self.spec.workload, &self.spec.cfg)
    }

    /// Runs this cell with telemetry tracing enabled and returns the
    /// result plus the Chrome `trace_event` JSON document — load it at
    /// `chrome://tracing` or <https://ui.perfetto.dev>. The trace embeds
    /// the run's metrics snapshot and per-phase cycle profile under
    /// `otherData`.
    pub fn run_traced(self) -> (RunResult, String) {
        let tracer = Tracer::enabled();
        let r = harness::execute_spec(&self.spec, &tracer);
        let trace = chrome::export_trace(
            &tracer.take_events(),
            &r.phases,
            LatencyModel::CLOCK_HZ,
            Some(&r.metrics),
        );
        (r, trace)
    }
}

/// An ordered batch of experiments destined for parallel execution.
///
/// ```
/// use tmi_bench::{Executor, Experiment, ExperimentSet, RuntimeKind};
///
/// let mut set = ExperimentSet::new();
/// let base = set.push(Experiment::new("histogram").scale(0.05));
/// let tmi = set.push(
///     Experiment::new("histogram")
///         .runtime(RuntimeKind::TmiProtect)
///         .scale(0.05),
/// );
/// let results = set.run_on(&Executor::new(2));
/// assert!(results[base].ok() && results[tmi].ok());
/// ```
#[derive(Default)]
pub struct ExperimentSet {
    specs: Vec<JobSpec>,
}

impl ExperimentSet {
    /// An empty batch.
    pub fn new() -> Self {
        ExperimentSet::default()
    }

    /// Queues one experiment and returns its submission index — the
    /// position of its result in the vector `run_on` returns.
    ///
    /// Identical cells are submitted once: pushing an experiment equal to
    /// one already queued returns the earlier index instead of queueing a
    /// duplicate, so figures can share baselines without re-running them
    /// (and without two identical jobs racing within one batch).
    pub fn push(&mut self, e: Experiment) -> usize {
        let spec = e.spec();
        if let Some(i) = self.specs.iter().position(|s| *s == spec) {
            return i;
        }
        self.specs.push(spec);
        self.specs.len() - 1
    }

    /// Number of queued cells.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Runs the batch on an existing executor (sharing its memo cache).
    pub fn run_on(self, exec: &Executor) -> Vec<JobResult> {
        exec.run(self.specs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_builder_composes() {
        // The §4.1 repair preset: 4 threads and a faster detection tick.
        let preset = Experiment::repair("lreg").spec().cfg;
        assert_eq!(preset.threads, 4);
        assert!(preset.tick_interval < Experiment::new("lreg").spec().cfg.tick_interval);

        let e = Experiment::repair("lreg")
            .runtime(RuntimeKind::TmiProtect)
            .threads(2)
            .scale(0.25)
            .fixed()
            .misaligned()
            .huge_pages()
            .period(10)
            .tick_interval(123)
            .max_ops(456);
        let spec = e.spec();
        assert_eq!(spec.workload, "lreg");
        assert_eq!(spec.cfg.runtime, RuntimeKind::TmiProtect);
        assert_eq!(spec.cfg.threads, 2);
        assert_eq!(spec.cfg.scale, 0.25);
        assert!(spec.cfg.fixed && spec.cfg.misaligned && spec.cfg.huge_pages);
        assert_eq!(spec.cfg.period, 10);
        assert_eq!(spec.cfg.tick_interval, 123);
        assert_eq!(spec.cfg.max_ops, 456);
    }

    #[test]
    fn pool_sizing_respects_explicit_count() {
        assert_eq!(Executor::new(0).workers(), 1);
        assert_eq!(Executor::new(7).workers(), 7);
    }
}
