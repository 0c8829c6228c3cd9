#![warn(missing_docs)]

//! # tmi-baselines — the comparison systems of the TMI evaluation
//!
//! Reimplementations of the prior false-sharing-repair systems TMI is
//! compared against in Table 1 and Figs. 7 & 9:
//!
//! * [`SheriffRuntime`] — threads-as-processes from startup with a
//!   whole-heap page-twinning store buffer and **no** consistency guard
//!   (so the canneal/cholesky failures of Figs. 11–12 actually occur);
//! * [`LaserRuntime`] — HITM detection identical to TMI, repair via a
//!   TSO-preserving software store buffer (low repair benefit, declines
//!   sync-heavy programs);
//! * [`PlasticRuntime`] — a model of Plastic's reported behaviour
//!   (hypervisor byte-remapping + DBI); Plastic's source was never
//!   released, so this baseline reproduces its published characteristics
//!   rather than its implementation.
//!
//! The *manual fix* baseline is not a runtime: workloads expose `fixed`
//! variants with padded/aligned layouts (see `tmi-workloads`).

pub mod laser;
pub mod plastic;
pub mod sheriff;

pub use laser::{LaserRuntime, LaserStats};
pub use plastic::{PlasticRuntime, PlasticStats};
pub use sheriff::{SheriffConfig, SheriffRuntime};
