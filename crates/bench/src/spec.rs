//! The shared job-specification vocabulary.
//!
//! [`JobSpec`] is the one description of a cell of the experiment matrix
//! (§4.1: one workload under one runtime and configuration). Figures and
//! tests build it with its builder methods and run it
//! ([`JobSpec::run`]), the [`crate::Executor`] memoizes on it, the fuzz
//! driver ([`crate::fuzz::check_spec`]) consumes it for litmus jobs, and
//! the `tmi-service` wire protocol serializes it as the request body. One
//! vocabulary end to end means a job submitted over the socket, replayed
//! from a CLI flag set, or built in a test is *the same job* — same
//! memoization key, same deterministic result bytes.
//!
//! Two codecs live here so every entry point agrees on spelling:
//!
//! * **JSON** ([`JobSpec::to_json`] / [`JobSpec::from_json`]) — the wire
//!   form, built on the workspace's hand-rolled [`tmi_telemetry::json`]
//!   (offline-build clean, no serde).
//! * **CLI** ([`JobSpec::apply_cli_arg`] / [`JobSpec::cli_usage`]) — the
//!   flag set shared by `tmi_client`, `probe` and friends, replacing the
//!   per-bin ad-hoc parsers.

use tmi_machine::{LatencyModel, MAX_CORES};
use tmi_telemetry::json::{self, Json};
use tmi_telemetry::{chrome, Tracer};

use crate::harness::{self, RunResult, RuntimeKind};

/// One cell of the experiment matrix: a workload under a runtime and
/// configuration, plus the fault-schedule seed that completes a job's
/// identity.
///
/// `workload` is either a suite workload name (`tmi_workloads::SUITE`) or
/// a pseudo-workload: `litmus:<seed>` runs the seeded litmus program
/// through the differential oracle instead of the harness (the job shape
/// schedule-exploration clients submit), and `litmus+vm:<seed>` runs the
/// seed's *transistency* program (VM operations interleaved with the
/// consistency vocabulary) the same way.
///
/// ```
/// use tmi_bench::{JobSpec, RuntimeKind};
///
/// let r = JobSpec::new("histogram")
///     .runtime(RuntimeKind::TmiProtect)
///     .threads(4)
///     .scale(0.05)
///     .run();
/// assert!(r.ok());
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct JobSpec {
    /// Workload name (see `tmi_workloads::SUITE`), `litmus:<seed>`, or
    /// `litmus+vm:<seed>`.
    pub workload: String,
    /// The runtime supervising the run.
    pub runtime: RuntimeKind,
    /// Worker threads (= cores).
    pub threads: usize,
    /// Work scale (1.0 = benchmark size).
    pub scale: f64,
    /// Apply the manual source fix.
    pub fixed: bool,
    /// Force misaligned allocation (repair experiments, §4.3).
    pub misaligned: bool,
    /// Map application memory with 2 MiB huge pages (§4.4).
    pub huge_pages: bool,
    /// perf sampling period (Fig. 4 sweeps this).
    pub period: u64,
    /// Detection-tick interval in cycles.
    pub tick_interval: u64,
    /// Livelock backstop in dynamic ops.
    pub max_ops: u64,
    /// Fault-schedule seed. `0` disables injection; any other value runs
    /// the job under the seeded [`tmi_faultpoint::FaultPlan`] (for litmus
    /// jobs, the campaign base seed that
    /// [`tmi_oracle::derive_fault_seed`] mixes per program). Part of the
    /// memoization key: the same `(workload, config, seed)` always
    /// returns the same bytes.
    pub seed: u64,
}

impl JobSpec {
    /// A spec on `workload` with the detection-machine defaults: pthreads,
    /// 8 threads, benchmark scale, period 100, 0.5 ms ticks, no faults.
    pub fn new(workload: impl Into<String>) -> Self {
        JobSpec {
            workload: workload.into(),
            runtime: RuntimeKind::Pthreads,
            threads: 8,
            scale: 1.0,
            fixed: false,
            misaligned: false,
            huge_pages: false,
            period: 100,
            tick_interval: 1_700_000,
            max_ops: 80_000_000,
            seed: 0,
        }
    }

    /// A spec with the 4-thread configuration of the repair experiments
    /// (§4.1), with a faster detection tick so that detection latency
    /// occupies the same small fraction of these shorter runs as the
    /// paper's 1 Hz analysis does of its minute-long ones.
    pub fn repair(workload: impl Into<String>) -> Self {
        JobSpec {
            threads: 4,
            tick_interval: 400_000,
            ..JobSpec::new(workload)
        }
    }

    /// A litmus-check job on the given program seed under full TMI
    /// repair — the unit of work of the differential fuzz campaign and
    /// of schedule-exploration service clients.
    pub fn litmus(program_seed: u64) -> Self {
        JobSpec::repair(format!("litmus:{program_seed}")).runtime(RuntimeKind::TmiProtect)
    }

    /// A *transistency* litmus-check job: the seeded VM-op program
    /// ([`tmi_oracle::Litmus::generate_vm`] — `mprotect`, COW breaks, T2P
    /// conversions, twin commits, TLB shootdowns interleaved with the
    /// consistency vocabulary) through the differential oracle.
    pub fn litmus_vm(program_seed: u64) -> Self {
        JobSpec {
            workload: format!("litmus+vm:{program_seed}"),
            ..JobSpec::litmus(program_seed)
        }
    }

    /// Sets the supervising runtime.
    pub fn runtime(mut self, rt: RuntimeKind) -> Self {
        self.runtime = rt;
        self
    }

    /// Sets the worker-thread (= core) count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the work scale (1.0 = benchmark size).
    pub fn scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Applies the manual source fix (the `manual` bars of Fig. 9).
    pub fn fixed(mut self) -> Self {
        self.fixed = true;
        self
    }

    /// Forces the misaligned allocation that exposes allocator-sensitive
    /// false sharing (§4.3).
    pub fn misaligned(mut self) -> Self {
        self.misaligned = true;
        self
    }

    /// Maps application memory with 2 MiB huge pages (§4.4).
    pub fn huge_pages(mut self) -> Self {
        self.huge_pages = true;
        self
    }

    /// Sets the perf sampling period (Fig. 4 sweeps this).
    pub fn period(mut self, period: u64) -> Self {
        self.period = period;
        self
    }

    /// Sets the detection-tick interval in cycles.
    pub fn tick_interval(mut self, cycles: u64) -> Self {
        self.tick_interval = cycles;
        self
    }

    /// Sets the livelock backstop in dynamic ops.
    pub fn max_ops(mut self, ops: u64) -> Self {
        self.max_ops = ops;
        self
    }

    /// Returns the spec unchanged; it ends a builder chain written
    /// against the [`crate::Experiment`] name.
    pub fn spec(self) -> Self {
        self
    }

    /// Runs this cell synchronously on the current thread.
    ///
    /// # Panics
    ///
    /// Panics on unknown workload names, like the harness.
    pub fn run(&self) -> RunResult {
        harness::execute_spec(self, &Tracer::disabled())
    }

    /// Runs under `tmi-detect` and also returns the perf-c2c-style
    /// contention report plus the Cheetah-style predicted manual-fix
    /// speedup (the runtime is forced to [`RuntimeKind::TmiDetect`]).
    pub fn run_detect_report(&self) -> (RunResult, tmi::ContentionReport, f64) {
        harness::execute_detect_report(self)
    }

    /// Runs this cell with telemetry tracing enabled and returns the
    /// result plus the Chrome `trace_event` JSON document — load it at
    /// `chrome://tracing` or <https://ui.perfetto.dev>. The trace embeds
    /// the run's metrics snapshot and per-phase cycle profile under
    /// `otherData`.
    pub fn run_traced(&self) -> (RunResult, String) {
        let tracer = Tracer::enabled();
        let r = harness::execute_spec(self, &tracer);
        let trace = chrome::export_trace(
            &tracer.take_events(),
            &r.phases,
            LatencyModel::CLOCK_HZ,
            Some(&r.metrics),
        );
        (r, trace)
    }

    /// The litmus program seed, if this is a plain litmus job.
    pub fn litmus_seed(&self) -> Option<u64> {
        self.workload.strip_prefix("litmus:")?.parse().ok()
    }

    /// The litmus program seed, if this is a transistency (VM-op) litmus
    /// job.
    pub fn litmus_vm_seed(&self) -> Option<u64> {
        self.workload.strip_prefix("litmus+vm:")?.parse().ok()
    }

    /// True if this job runs through the differential oracle rather than
    /// the workload harness.
    pub fn is_litmus(&self) -> bool {
        self.litmus_seed().is_some() || self.litmus_vm_seed().is_some()
    }

    /// Renders the canonical wire form: a JSON object with every field
    /// spelled out in stable order. Byte-stable for equal specs, so it
    /// doubles as a cache key.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workload\": {}, \"runtime\": {}, \"threads\": {}, \
             \"scale\": {}, \"fixed\": {}, \"misaligned\": {}, \
             \"huge_pages\": {}, \"period\": {}, \"tick_interval\": {}, \
             \"max_ops\": {}, \"seed\": {}}}",
            json::string(&self.workload),
            json::string(self.runtime.label()),
            self.threads,
            json::fmt_f64(self.scale),
            self.fixed,
            self.misaligned,
            self.huge_pages,
            self.period,
            self.tick_interval,
            self.max_ops,
            self.seed,
        )
    }

    /// Decodes the wire form. Only `workload` is required; every other
    /// member defaults from [`JobSpec::new`] under the requested (or
    /// pthreads) runtime, so minimal requests stay minimal.
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        let obj = v.as_obj().ok_or("job spec must be a JSON object")?;
        let workload = v
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("job spec needs a string \"workload\"")?;
        let runtime = match v.get("runtime") {
            None => RuntimeKind::Pthreads,
            Some(r) => {
                let label = r.as_str().ok_or("\"runtime\" must be a string label")?;
                RuntimeKind::from_label(label)
                    .ok_or_else(|| format!("unknown runtime {label:?}"))?
            }
        };
        let mut spec = JobSpec::new(workload).runtime(runtime);
        let num = |key: &str| -> Result<Option<f64>, String> {
            match obj.get(key) {
                None => Ok(None),
                Some(j) => j
                    .as_f64()
                    .map(Some)
                    .ok_or_else(|| format!("\"{key}\" must be a number")),
            }
        };
        let flag = |key: &str| -> Result<Option<bool>, String> {
            match obj.get(key) {
                None => Ok(None),
                Some(Json::Bool(b)) => Ok(Some(*b)),
                Some(_) => Err(format!("\"{key}\" must be a boolean")),
            }
        };
        if let Some(t) = num("threads")? {
            spec.threads = thread_count("\"threads\"", t)?;
        }
        if let Some(s) = num("scale")? {
            spec.scale = work_scale("\"scale\"", s)?;
        }
        let count = |key: &str, min: u64| -> Result<Option<u64>, String> {
            let Some(v) = num(key)? else { return Ok(None) };
            if v.fract() == 0.0 && v >= min as f64 && v <= MAX_COUNT as f64 {
                Ok(Some(v as u64))
            } else {
                Err(count_error(&format!("\"{key}\""), min, v))
            }
        };
        if let Some(p) = count("period", 1)? {
            spec.period = p;
        }
        if let Some(t) = count("tick_interval", 1)? {
            spec.tick_interval = t;
        }
        if let Some(m) = count("max_ops", 0)? {
            spec.max_ops = m;
        }
        spec.fixed = flag("fixed")?.unwrap_or(false);
        spec.misaligned = flag("misaligned")?.unwrap_or(false);
        spec.huge_pages = flag("huge_pages")?.unwrap_or(false);
        // Unknown members are ignored, which keeps documents persisted by
        // older builds (journals and cache spills that still carry the
        // retired shard-count, fast-path and trace members) decodable.
        spec.seed = count("seed", 0)?.unwrap_or(0);
        Ok(spec)
    }

    /// Parses one CLI argument against this spec, pulling flag values
    /// from `next`. Returns `Ok(true)` if consumed, `Ok(false)` if the
    /// argument is not a spec flag (the caller's to handle).
    pub fn apply_cli_arg(
        &mut self,
        arg: &str,
        next: &mut dyn FnMut() -> Option<String>,
    ) -> Result<bool, String> {
        let mut value = |name: &str| next().ok_or_else(|| format!("{name} expects a value"));
        let parse_u64 = |name: &str, v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{name} expects a number, got {v:?}"))
        };
        let count = |name: &str, v: String, min: u64| match v.parse::<u64>() {
            Ok(n) if (min..=MAX_COUNT).contains(&n) => Ok(n),
            _ => Err(count_error(name, min, v)),
        };
        match arg {
            "--workload" => self.workload = value("--workload")?,
            "--runtime" => {
                let label = value("--runtime")?;
                self.runtime = RuntimeKind::from_label(&label)
                    .ok_or_else(|| format!("unknown runtime {label:?}"))?;
            }
            "--threads" => {
                let t = parse_u64("--threads", value("--threads")?)?;
                self.threads = thread_count("--threads", t as f64)?;
            }
            "--scale" => {
                let v = value("--scale")?;
                let s = v
                    .parse::<f64>()
                    .map_err(|_| format!("--scale expects a number, got {v:?}"))?;
                self.scale = work_scale("--scale", s)?;
            }
            "--period" => self.period = count("--period", value("--period")?, 1)?,
            "--tick-interval" => {
                self.tick_interval = count("--tick-interval", value("--tick-interval")?, 1)?
            }
            "--max-ops" => self.max_ops = count("--max-ops", value("--max-ops")?, 0)?,
            "--seed" => self.seed = count("--seed", value("--seed")?, 0)?,
            "--fixed" => self.fixed = true,
            "--misaligned" => self.misaligned = true,
            "--huge-pages" => self.huge_pages = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The usage string for the shared CLI flags, for bins to append to
    /// their own usage lines.
    pub fn cli_usage() -> &'static str {
        "--workload NAME|litmus:<seed>|litmus+vm:<seed> [--runtime LABEL] [--threads N] \
         [--scale F] [--period N] [--tick-interval N] [--max-ops N] \
         [--seed N] [--fixed] [--misaligned] [--huge-pages]"
    }
}

/// Validates a requested thread count. Every thread gets its own simulated
/// core and the machine's sharer bitmap has one bit per core, so the count
/// must be an integer in `1..=MAX_CORES`; anything else is refused here,
/// before a machine is ever sized from it.
fn thread_count(name: &str, t: f64) -> Result<usize, String> {
    if t.fract() == 0.0 && (1.0..=MAX_CORES as f64).contains(&t) {
        Ok(t as usize)
    } else {
        Err(format!(
            "{name} must be an integer in 1..={MAX_CORES}, got {t}"
        ))
    }
}

/// The largest count (`period`, `tick_interval`, `max_ops`, `seed`) the
/// codecs accept: 2^53 - 1, the largest whole number the JSON codec
/// carries exactly (its numbers are `f64`). A larger seed would reach the
/// service as a different job than the one submitted.
const MAX_COUNT: u64 = (1 << 53) - 1;

/// The error for a count member (`period`, `tick_interval`, `max_ops`,
/// `seed`) that is not a whole number from `min` to [`MAX_COUNT`]. The
/// sampling period and the detection tick need at least 1: a zero tick
/// would never end the engine's tick catch-up loop.
fn count_error(name: &str, min: u64, got: impl std::fmt::Display) -> String {
    format!("{name} must be a whole number in {min}..={MAX_COUNT}, got {got}")
}

/// Validates a requested work scale. Workloads size their iteration
/// counts and arrays from it, so it must be a finite number greater than
/// 0; NaN, infinities, zero and negatives are refused before any
/// workload is built.
pub fn work_scale(name: &str, s: f64) -> Result<f64, String> {
    if s.is_finite() && s > 0.0 {
        Ok(s)
    } else {
        Err(format!(
            "{name} must be a finite number greater than 0, got {s}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn builder_composes() {
        // The §4.1 repair preset: 4 threads and a faster detection tick.
        let preset = JobSpec::repair("lreg");
        assert_eq!(preset.threads, 4);
        assert!(preset.tick_interval < JobSpec::new("lreg").tick_interval);

        let spec = JobSpec::repair("lreg")
            .runtime(RuntimeKind::TmiProtect)
            .threads(2)
            .scale(0.25)
            .fixed()
            .misaligned()
            .huge_pages()
            .period(10)
            .tick_interval(123)
            .max_ops(456);
        assert_eq!(spec.workload, "lreg");
        assert_eq!(spec.runtime, RuntimeKind::TmiProtect);
        assert_eq!(spec.threads, 2);
        assert_eq!(spec.scale, 0.25);
        assert!(spec.fixed && spec.misaligned && spec.huge_pages);
        assert_eq!(spec.period, 10);
        assert_eq!(spec.tick_interval, 123);
        assert_eq!(spec.max_ops, 456);
    }

    #[test]
    fn json_round_trip_preserves_every_field() {
        let spec = JobSpec {
            seed: 42,
            ..JobSpec::repair("histogramfs")
                .runtime(RuntimeKind::TmiProtect)
                .scale(0.25)
                .misaligned()
                .period(10)
        };
        let doc = spec.to_json();
        let parsed = JobSpec::from_json(&json::parse(&doc).unwrap()).unwrap();
        assert_eq!(parsed, spec);
        // The canonical form is byte-stable: encode → decode → encode.
        assert_eq!(parsed.to_json(), doc);
    }

    #[test]
    fn minimal_request_defaults_like_job_spec_new() {
        let v = json::parse(r#"{"workload": "histogram"}"#).unwrap();
        let spec = JobSpec::from_json(&v).unwrap();
        assert_eq!(spec, JobSpec::new("histogram"));
        assert_eq!(spec.runtime, RuntimeKind::Pthreads);
    }

    #[test]
    fn decode_ignores_the_retired_shard_count_member() {
        // Journals and cache spills written before the host shard count,
        // the fast-path toggles and the trace flag left the job identity
        // still carry them; such a document must decode to the same spec
        // as one without the members.
        let without = json::parse(r#"{"workload": "lreg", "threads": 4}"#).unwrap();
        for with in [
            r#"{"workload": "lreg", "threads": 4, "sim_threads": 8}"#,
            r#"{"workload": "lreg", "threads": 4, "fastpath_tlb": false, "fastpath_dir": false}"#,
            r#"{"workload": "lreg", "threads": 4, "trace": true}"#,
        ] {
            assert_eq!(
                JobSpec::from_json(&json::parse(with).unwrap()).unwrap(),
                JobSpec::from_json(&without).unwrap(),
                "{with}"
            );
        }
    }

    #[test]
    fn decode_rejects_unknown_runtime_and_bad_types() {
        let bad_rt = json::parse(r#"{"workload": "x", "runtime": "gpu"}"#).unwrap();
        assert!(JobSpec::from_json(&bad_rt).unwrap_err().contains("gpu"));
        let bad_threads = json::parse(r#"{"workload": "x", "threads": "four"}"#).unwrap();
        assert!(JobSpec::from_json(&bad_threads).is_err());
        // Thread counts outside the machine's 1..=64 cores (or not whole)
        // are refused with the range, before any machine is sized.
        for t in ["0", "65", "1e9", "2.5"] {
            let doc = format!(r#"{{"workload": "x", "threads": {t}}}"#);
            let err = JobSpec::from_json(&json::parse(&doc).unwrap()).unwrap_err();
            assert!(err.contains("1..=64"), "threads {t}: {err}");
        }
        // Scales that are not finite and positive are refused with the
        // requirement. 1e400 overflows to infinity, which the canonical
        // form would re-encode as null.
        for s in ["0", "-1", "1e400", "-1e400"] {
            let doc = format!(r#"{{"workload": "x", "scale": {s}}}"#);
            let err = JobSpec::from_json(&json::parse(&doc).unwrap()).unwrap_err();
            assert!(
                err.contains("finite number greater than 0"),
                "scale {s}: {err}"
            );
        }
        // Counts are whole numbers, never cast: a zero tick would hang the
        // engine, and `"seed": -3` must not silently become seed 0.
        for (key, v, min) in [
            ("period", "0", 1),
            ("tick_interval", "0", 1),
            ("tick_interval", "-1", 1),
            ("tick_interval", "0.5", 1),
            ("max_ops", "-1", 0),
            ("max_ops", "2.5", 0),
            ("seed", "-3", 0),
            ("seed", "1e400", 0),
            // 2^53 and 2^53 + 1: past what the f64 number path carries
            // exactly (2^53 + 1 parses as 2^53).
            ("period", "9007199254740992", 1),
            ("tick_interval", "9007199254740993", 1),
            ("max_ops", "9007199254740992", 0),
            ("seed", "9007199254740992", 0),
            ("seed", "9007199254740993", 0),
        ] {
            let doc = format!(r#"{{"workload": "x", "{key}": {v}}}"#);
            let err = JobSpec::from_json(&json::parse(&doc).unwrap()).unwrap_err();
            assert!(
                err.contains(&format!(
                    "\"{key}\" must be a whole number in {min}..={MAX_COUNT}"
                )),
                "{key} {v}: {err}"
            );
        }
        let doc = r#"{"workload": "x", "period": 1, "tick_interval": 1, "max_ops": 0, "seed": 0}"#;
        assert!(JobSpec::from_json(&json::parse(doc).unwrap()).is_ok());
        let no_workload = json::parse(r#"{"threads": 4}"#).unwrap();
        assert!(JobSpec::from_json(&no_workload).is_err());
    }

    #[test]
    fn litmus_jobs_parse_their_seed() {
        let spec = JobSpec::litmus(97);
        assert_eq!(spec.litmus_seed(), Some(97));
        assert!(spec.is_litmus());
        assert!(!JobSpec::new("histogram").is_litmus());
        assert!(!JobSpec::new("litmus:notanumber").is_litmus());
    }

    #[test]
    fn transistency_jobs_parse_their_seed_and_stay_disjoint() {
        let spec = JobSpec::litmus_vm(31);
        assert_eq!(spec.workload, "litmus+vm:31");
        assert_eq!(spec.litmus_vm_seed(), Some(31));
        assert_eq!(spec.litmus_seed(), None, "vm jobs are not plain litmus");
        assert!(spec.is_litmus());
        assert_eq!(
            JobSpec {
                workload: "litmus:31".into(),
                ..spec.clone()
            },
            JobSpec::litmus(31)
        );
        assert_eq!(JobSpec::litmus(31).litmus_vm_seed(), None);
        // The pseudo-workload survives the wire codec like any other name.
        let parsed = JobSpec::from_json(&json::parse(&spec.to_json()).unwrap()).unwrap();
        assert_eq!(parsed.litmus_vm_seed(), Some(31));
    }

    fn spec_strategy() -> impl Strategy<Value = JobSpec> {
        let workload = prop_oneof![
            Just("histogram".to_string()),
            Just("lreg".to_string()),
            (0u64..10_000).prop_map(|s| format!("litmus:{s}")),
            (0u64..10_000).prop_map(|s| format!("litmus+vm:{s}")),
        ];
        let runtime = (0usize..RuntimeKind::ALL.len()).prop_map(|i| RuntimeKind::ALL[i]);
        // Small counts, or any the codecs accept.
        let count = |min: u64| prop_oneof![min..1_000, min..MAX_COUNT + 1];
        (
            (workload, runtime, 1usize..MAX_CORES + 1, 1u32..64),
            (any::<bool>(), any::<bool>(), any::<bool>(), count(1)),
            (count(1), count(0), count(0)),
        )
            .prop_map(
                |(
                    (workload, runtime, threads, scale16),
                    (fixed, misaligned, huge_pages, period),
                    (tick_interval, max_ops, seed),
                )| {
                    let mut spec = JobSpec::new(workload).runtime(runtime);
                    spec.threads = threads;
                    // Sixteenths are exact in f64 and print/parse exactly.
                    spec.scale = f64::from(scale16) / 16.0;
                    spec.fixed = fixed;
                    spec.misaligned = misaligned;
                    spec.huge_pages = huge_pages;
                    spec.period = period;
                    spec.tick_interval = tick_interval;
                    spec.max_ops = max_ops;
                    spec.seed = seed;
                    spec
                },
            )
    }

    proptest! {
        /// JSON codec: decode(encode(spec)) == spec for every reachable
        /// spec, and the canonical form is byte-stable (it doubles as the
        /// executor's memoization key).
        #[test]
        fn json_codec_round_trips(spec in spec_strategy()) {
            let doc = spec.to_json();
            let parsed = JobSpec::from_json(&json::parse(&doc).unwrap()).unwrap();
            prop_assert_eq!(&parsed, &spec);
            prop_assert_eq!(parsed.to_json(), doc);
        }

        /// CLI codec: rendering a spec to its flag vector and re-applying
        /// the flags to a default spec reproduces it exactly.
        #[test]
        fn cli_codec_round_trips(spec in spec_strategy()) {
            let mut args = vec![
                "--workload".to_string(), spec.workload.clone(),
                "--runtime".to_string(), spec.runtime.label().to_string(),
                "--threads".to_string(), spec.threads.to_string(),
                "--scale".to_string(), format!("{}", spec.scale),
                "--period".to_string(), spec.period.to_string(),
                "--tick-interval".to_string(), spec.tick_interval.to_string(),
                "--max-ops".to_string(), spec.max_ops.to_string(),
                "--seed".to_string(), spec.seed.to_string(),
            ];
            if spec.fixed { args.push("--fixed".into()); }
            if spec.misaligned { args.push("--misaligned".into()); }
            if spec.huge_pages { args.push("--huge-pages".into()); }
            let mut rebuilt = JobSpec::new("placeholder");
            let mut it = args.into_iter();
            while let Some(arg) = it.next() {
                prop_assert!(
                    rebuilt.apply_cli_arg(&arg, &mut || it.next()).unwrap(),
                    "flag {} not consumed", arg
                );
            }
            prop_assert_eq!(rebuilt, spec);
        }
    }

    #[test]
    fn the_largest_counts_round_trip_exactly_through_both_codecs() {
        let mut spec = JobSpec::new("histogram");
        for flag in ["--period", "--tick-interval", "--max-ops", "--seed"] {
            assert!(spec
                .apply_cli_arg(flag, &mut || Some("9007199254740991".to_string()))
                .unwrap());
        }
        let counts = (spec.period, spec.tick_interval, spec.max_ops, spec.seed);
        assert_eq!(counts, (MAX_COUNT, MAX_COUNT, MAX_COUNT, MAX_COUNT));
        let doc = spec.to_json();
        assert!(doc.contains("\"seed\": 9007199254740991"), "{doc}");
        assert_eq!(
            JobSpec::from_json(&json::parse(&doc).unwrap()).unwrap(),
            spec
        );
    }

    #[test]
    fn cli_flags_compose_with_caller_flags() {
        let args = [
            "--workload",
            "lreg",
            "--runtime",
            "tmi-protect",
            "--threads",
            "2",
            "--scale",
            "0.5",
            "--seed",
            "7",
            "--misaligned",
            "--not-ours",
        ];
        let mut spec = JobSpec::new("histogram");
        let mut it = args.iter().map(|s| s.to_string());
        let mut leftover = Vec::new();
        while let Some(arg) = it.next() {
            if !spec.apply_cli_arg(&arg, &mut || it.next()).unwrap() {
                leftover.push(arg);
            }
        }
        assert_eq!(spec.workload, "lreg");
        assert_eq!(spec.runtime, RuntimeKind::TmiProtect);
        assert_eq!(spec.threads, 2);
        assert_eq!(spec.scale, 0.5);
        assert_eq!(spec.seed, 7);
        assert!(spec.misaligned);
        assert_eq!(leftover, ["--not-ours"]);
    }

    #[test]
    fn cli_scale_must_be_finite_and_positive() {
        for s in ["inf", "-inf", "NaN", "0", "-1", "1e400"] {
            let mut spec = JobSpec::new("histogram");
            let err = spec
                .apply_cli_arg("--scale", &mut || Some(s.to_string()))
                .unwrap_err();
            assert!(
                err.contains("--scale must be a finite number greater than 0"),
                "--scale {s}: {err}"
            );
            assert_eq!(spec.scale, 1.0, "a refused scale leaves the spec alone");
        }
        let mut spec = JobSpec::new("histogram");
        assert!(spec
            .apply_cli_arg("--scale", &mut || Some("0.05".to_string()))
            .unwrap());
        assert_eq!(spec.scale, 0.05);
    }

    #[test]
    fn cli_threads_must_fit_the_machine() {
        for t in ["0", "65", "1000000000"] {
            let mut spec = JobSpec::new("histogram");
            let err = spec
                .apply_cli_arg("--threads", &mut || Some(t.to_string()))
                .unwrap_err();
            assert!(err.contains("1..=64"), "--threads {t}: {err}");
        }
        let mut spec = JobSpec::new("histogram");
        assert!(spec
            .apply_cli_arg("--threads", &mut || Some("64".to_string()))
            .unwrap());
        assert_eq!(spec.threads, 64);
    }

    #[test]
    fn cli_counts_must_be_whole_numbers_in_range() {
        for (flag, v, min) in [
            ("--period", "0", 1),
            ("--tick-interval", "0", 1),
            ("--tick-interval", "-1", 1),
            ("--max-ops", "2.5", 0),
            ("--seed", "-3", 0),
            ("--period", "9007199254740992", 1),
            ("--tick-interval", "9007199254740993", 1),
            ("--max-ops", "9007199254740992", 0),
            ("--seed", "9007199254740992", 0),
            ("--seed", "9007199254740993", 0),
        ] {
            let mut spec = JobSpec::new("histogram");
            let err = spec
                .apply_cli_arg(flag, &mut || Some(v.to_string()))
                .unwrap_err();
            assert!(
                err.contains(&format!(
                    "{flag} must be a whole number in {min}..={MAX_COUNT}"
                )),
                "{flag} {v}: {err}"
            );
            assert_eq!(spec, JobSpec::new("histogram"), "{flag} {v}");
        }
        let mut spec = JobSpec::new("histogram");
        for (flag, v) in [
            ("--tick-interval", "1"),
            ("--max-ops", "0"),
            ("--seed", "0"),
        ] {
            assert!(spec
                .apply_cli_arg(flag, &mut || Some(v.to_string()))
                .unwrap());
        }
        assert_eq!((spec.tick_interval, spec.max_ops, spec.seed), (1, 0, 0));
    }
}
