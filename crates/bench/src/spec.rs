//! The shared job-specification vocabulary.
//!
//! [`JobSpec`] is the one config type every way of running a simulation
//! speaks: the [`crate::Experiment`] builder lowers into it, the
//! [`crate::Executor`] memoizes on it, the fuzz driver
//! ([`crate::fuzz::check_spec`]) consumes it for litmus jobs, and the
//! `tmi-service` wire protocol serializes it as the request body. One
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

use tmi_machine::MAX_CORES;
use tmi_telemetry::json::{self, Json};

use crate::harness::{RunConfig, RuntimeKind};

/// One cell of the experiment matrix: a workload under a configuration,
/// plus the fault-schedule seed that completes a job's identity.
///
/// `workload` is either a suite workload name (`tmi_workloads::SUITE`) or
/// a pseudo-workload: `litmus:<seed>` runs the seeded litmus program
/// through the differential oracle instead of the harness (the job shape
/// schedule-exploration clients submit), and `litmus+vm:<seed>` runs the
/// seed's *transistency* program (VM operations interleaved with the
/// consistency vocabulary) the same way.
#[derive(Clone, PartialEq, Debug)]
pub struct JobSpec {
    /// Workload name (see `tmi_workloads::SUITE`), `litmus:<seed>`, or
    /// `litmus+vm:<seed>`.
    pub workload: String,
    /// Full run configuration.
    pub cfg: RunConfig,
    /// Fault-schedule seed. `0` disables injection; any other value runs
    /// the job under the seeded [`tmi_faultpoint::FaultPlan`] (for litmus
    /// jobs, the campaign base seed that
    /// [`tmi_oracle::derive_fault_seed`] mixes per program). Part of the
    /// memoization key: the same `(workload, config, seed)` always
    /// returns the same bytes.
    pub seed: u64,
}

impl JobSpec {
    /// A spec on `workload` with the detection-machine defaults
    /// ([`RunConfig::new`], pthreads, no faults).
    pub fn new(workload: impl Into<String>) -> Self {
        JobSpec {
            workload: workload.into(),
            cfg: RunConfig::new(RuntimeKind::Pthreads),
            seed: 0,
        }
    }

    /// A litmus-check job on the given program seed under full TMI
    /// repair — the unit of work of the differential fuzz campaign and
    /// of schedule-exploration service clients.
    pub fn litmus(program_seed: u64) -> Self {
        JobSpec {
            workload: format!("litmus:{program_seed}"),
            cfg: RunConfig::repair(RuntimeKind::TmiProtect),
            seed: 0,
        }
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
        let c = &self.cfg;
        format!(
            "{{\"workload\": {}, \"runtime\": {}, \"threads\": {}, \
             \"scale\": {}, \"fixed\": {}, \"misaligned\": {}, \
             \"huge_pages\": {}, \"period\": {}, \"tick_interval\": {}, \
             \"max_ops\": {}, \"seed\": {}}}",
            json::string(&self.workload),
            json::string(c.runtime.label()),
            c.threads,
            json::fmt_f64(c.scale),
            c.fixed,
            c.misaligned,
            c.huge_pages,
            c.period,
            c.tick_interval,
            c.max_ops,
            self.seed,
        )
    }

    /// Decodes the wire form. Only `workload` is required; every other
    /// member defaults from [`RunConfig::new`] under the requested (or
    /// pthreads) runtime, so minimal requests stay minimal.
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        let obj = v.as_obj().ok_or("job spec must be a JSON object")?;
        let workload = v
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("job spec needs a string \"workload\"")?
            .to_string();
        let runtime = match v.get("runtime") {
            None => RuntimeKind::Pthreads,
            Some(r) => {
                let label = r.as_str().ok_or("\"runtime\" must be a string label")?;
                RuntimeKind::from_label(label)
                    .ok_or_else(|| format!("unknown runtime {label:?}"))?
            }
        };
        let mut cfg = RunConfig::new(runtime);
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
            cfg.threads = thread_count("\"threads\"", t)?;
        }
        if let Some(s) = num("scale")? {
            cfg.scale = s;
        }
        if let Some(p) = num("period")? {
            cfg.period = p as u64;
        }
        if let Some(t) = num("tick_interval")? {
            cfg.tick_interval = t as u64;
        }
        if let Some(m) = num("max_ops")? {
            cfg.max_ops = m as u64;
        }
        cfg.fixed = flag("fixed")?.unwrap_or(false);
        cfg.misaligned = flag("misaligned")?.unwrap_or(false);
        cfg.huge_pages = flag("huge_pages")?.unwrap_or(false);
        // Unknown members are ignored, which keeps documents persisted by
        // older builds (journals and cache spills that still carry the
        // retired shard-count, fast-path and trace members) decodable.
        Ok(JobSpec {
            workload,
            cfg,
            seed: num("seed")?.map(|s| s as u64).unwrap_or(0),
        })
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
        match arg {
            "--workload" => self.workload = value("--workload")?,
            "--runtime" => {
                let label = value("--runtime")?;
                self.cfg.runtime = RuntimeKind::from_label(&label)
                    .ok_or_else(|| format!("unknown runtime {label:?}"))?;
            }
            "--threads" => {
                let t = parse_u64("--threads", value("--threads")?)?;
                self.cfg.threads = thread_count("--threads", t as f64)?;
            }
            "--scale" => {
                let v = value("--scale")?;
                self.cfg.scale = v
                    .parse::<f64>()
                    .map_err(|_| format!("--scale expects a number, got {v:?}"))?;
            }
            "--period" => self.cfg.period = parse_u64("--period", value("--period")?)?,
            "--tick-interval" => {
                self.cfg.tick_interval = parse_u64("--tick-interval", value("--tick-interval")?)?
            }
            "--max-ops" => self.cfg.max_ops = parse_u64("--max-ops", value("--max-ops")?)?,
            "--seed" => self.seed = parse_u64("--seed", value("--seed")?)?,
            "--fixed" => self.cfg.fixed = true,
            "--misaligned" => self.cfg.misaligned = true,
            "--huge-pages" => self.cfg.huge_pages = true,
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn json_round_trip_preserves_every_field() {
        let mut spec = JobSpec::new("histogramfs");
        spec.cfg = RunConfig::repair(RuntimeKind::TmiProtect)
            .scale(0.25)
            .misaligned()
            .period(10);
        spec.seed = 42;
        let doc = spec.to_json();
        let parsed = JobSpec::from_json(&json::parse(&doc).unwrap()).unwrap();
        assert_eq!(parsed, spec);
        // The canonical form is byte-stable: encode → decode → encode.
        assert_eq!(parsed.to_json(), doc);
    }

    #[test]
    fn minimal_request_defaults_like_run_config_new() {
        let v = json::parse(r#"{"workload": "histogram"}"#).unwrap();
        let spec = JobSpec::from_json(&v).unwrap();
        assert_eq!(spec, JobSpec::new("histogram"));
        assert_eq!(spec.cfg, RunConfig::new(RuntimeKind::Pthreads));
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
        assert_eq!(spec.cfg, JobSpec::litmus(31).cfg);
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
        (
            (workload, runtime, 1usize..MAX_CORES + 1, 1u32..64),
            (any::<bool>(), any::<bool>(), any::<bool>(), 1u64..1000),
            // Seeds stay below 2^32: the JSON codec routes numbers through
            // f64, which is exact only up to 2^53.
            (1u64..10_000_000, 1u64..100_000_000, 0u64..1 << 32),
        )
            .prop_map(
                |(
                    (workload, runtime, threads, scale16),
                    (fixed, misaligned, huge_pages, period),
                    (tick_interval, max_ops, seed),
                )| {
                    let mut cfg = RunConfig::new(runtime);
                    cfg.threads = threads;
                    // Sixteenths are exact in f64 and print/parse exactly.
                    cfg.scale = f64::from(scale16) / 16.0;
                    cfg.fixed = fixed;
                    cfg.misaligned = misaligned;
                    cfg.huge_pages = huge_pages;
                    cfg.period = period;
                    cfg.tick_interval = tick_interval;
                    cfg.max_ops = max_ops;
                    JobSpec {
                        workload,
                        cfg,
                        seed,
                    }
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
                "--runtime".to_string(), spec.cfg.runtime.label().to_string(),
                "--threads".to_string(), spec.cfg.threads.to_string(),
                "--scale".to_string(), format!("{}", spec.cfg.scale),
                "--period".to_string(), spec.cfg.period.to_string(),
                "--tick-interval".to_string(), spec.cfg.tick_interval.to_string(),
                "--max-ops".to_string(), spec.cfg.max_ops.to_string(),
                "--seed".to_string(), spec.seed.to_string(),
            ];
            if spec.cfg.fixed { args.push("--fixed".into()); }
            if spec.cfg.misaligned { args.push("--misaligned".into()); }
            if spec.cfg.huge_pages { args.push("--huge-pages".into()); }
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
        assert_eq!(spec.cfg.runtime, RuntimeKind::TmiProtect);
        assert_eq!(spec.cfg.threads, 2);
        assert_eq!(spec.cfg.scale, 0.5);
        assert_eq!(spec.seed, 7);
        assert!(spec.cfg.misaligned);
        assert_eq!(leftover, ["--not-ours"]);
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
        assert_eq!(spec.cfg.threads, 64);
    }
}
