#![warn(missing_docs)]

//! # tmi-bench — experiment harness for every table and figure
//!
//! Every table and figure of the paper's evaluation (§4) is a section of
//! [`figures::SECTIONS`], regenerated from the simulation with the same
//! rows and series the paper reports. The crate has three binaries:
//!
//! | binary | does |
//! |--------|------|
//! | `run_all` | renders the sections in-process, all of them or `run_all <section> [scale]`, and writes `BENCH_harness.json` |
//! | `probe` | times one workload, or the suite, under any [`JobSpec`] flag set |
//! | `fuzz_consistency` | differential litmus fuzz of the repair path vs the SC oracle ([`tmi_oracle`]) |
//!
//! The sections are:
//!
//! | section | reproduces |
//! |---------|------------|
//! | `fig3`   | Fig. 3 — AMBSA word-tearing litmus |
//! | `fig4`   | Fig. 4 — runtime & HITM records vs perf period |
//! | `fig7`   | Fig. 7 — detection overhead across the suite |
//! | `fig8`   | Fig. 8 — memory overhead across the suite |
//! | `fig9`   | Fig. 9 — repair speedups vs manual/Sheriff/LASER |
//! | `table3` | Table 3 — repair characterization |
//! | `fig10`  | Fig. 10 — 4 KiB vs 2 MiB huge pages |
//! | `fig11`  | Fig. 11 — canneal corruption without code-centric consistency |
//! | `fig12`  | Fig. 12 — cholesky hang without code-centric consistency |
//! | `ablate_ptsb_everywhere` | §4.3 — targeted repair vs PTSB-everywhere |
//! | `sweep_threads` | extension: FS penalty & repair quality vs thread count on lreg |
//! | `table1` | Table 1 — requirements matrix |
//!
//! A cell of the experiment matrix is one [`JobSpec`]: build it with its
//! builder methods and [`JobSpec::run`] it, or pass a batch of them to
//! [`Executor::run`] ([`exec`]) for deterministic parallel execution.
//! [`figures`] holds the rendering behind each section, which looks its
//! cells up by spec, and [`harness`] is the machine-assembly layer
//! underneath.

pub mod exec;
pub mod figures;
pub mod fuzz;
pub mod harness;
pub mod report;
pub mod spec;

pub use harness::{RunResult, RuntimeKind};

pub use exec::{pool_map, Executor, JobResult};
pub use fuzz::{check_spec, run_campaign, CampaignResult, FuzzConfig};
pub use spec::JobSpec;

/// The former name of the cell builder, kept for the standalone
/// `perfbench` package; workspace code names [`JobSpec`].
pub type Experiment = JobSpec;
