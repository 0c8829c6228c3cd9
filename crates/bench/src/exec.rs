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
//! A cell is a [`JobSpec`] and a batch is a `Vec<JobSpec>` passed to
//! [`Executor::run`], which runs every spec it is given, repeats
//! included. The executor also keeps a per-job timing log which
//! [`Executor::write_json`] emits as `BENCH_harness.json`.

use std::collections::HashMap;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tmi_telemetry::json::{fmt_f64, string};
use tmi_telemetry::{MetricsSnapshot, Tracer};

use crate::harness::{self, RunResult};
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

/// The outcome of one executed cell. The executor's [`JobRecord`] log
/// keeps the rest: the cell's spec fields, host time and cache status.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The measured run, or, if the cell panicked, a message naming the
    /// cell and quoting the panic.
    pub outcome: Result<RunResult, String>,
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
    /// Panics with the failure message if the cell failed; use
    /// [`JobResult::outcome`] to handle failures.
    pub fn result(&self) -> &RunResult {
        match &self.outcome {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
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
            return JobResult { outcome: Ok(hit) };
        }
        let t0 = Instant::now();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            harness::execute_spec(spec, &Tracer::disabled())
        }));
        let host_seconds = t0.elapsed().as_secs_f64();
        let outcome = match caught {
            Ok(r) => {
                self.cache.lock().unwrap().insert(key, r.clone());
                self.record(batch, index, spec, "ok", host_seconds, Some(&r));
                Ok(r)
            }
            Err(payload) => {
                self.record(batch, index, spec, "failed", host_seconds, None);
                Err(format!(
                    "job {index} ({} under {}) failed: {}",
                    spec.workload,
                    spec.runtime.label(),
                    panic_message(payload.as_ref())
                ))
            }
        };
        JobResult { outcome }
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
            runtime: spec.runtime.label(),
            threads: spec.threads,
            scale: spec.scale,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_sizing_respects_explicit_count() {
        assert_eq!(Executor::new(0).workers(), 1);
        assert_eq!(Executor::new(7).workers(), 7);
    }
}
