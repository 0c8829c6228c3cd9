//! The differential fuzz campaign driver (`fuzz_consistency` binary).
//!
//! Checks a contiguous seed range of [`tmi_oracle`] litmus programs —
//! each one executed through the full TMI repair path and replayed
//! through the sequentially consistent oracle — fanning the seeds out
//! over the deterministic [`crate::exec::pool_map`] pool. Results are
//! aggregated in seed order, so the campaign report is byte-identical
//! for any worker count.
//!
//! Two campaign modes mirror the paper's evaluation:
//!
//! * **code-centric ON** (default) — the shipping configuration; every
//!   seed must check clean (§3.4 correctness argument).
//! * **`--ablate-code-centric`** — atomics and asm regions lose their
//!   shared-object routing, so the campaign *must* find divergences
//!   (stale atomic reads, lost RMW updates, torn words — the Figs. 11–12
//!   failure modes). A clean ablated campaign means the fuzzer lost its
//!   teeth.
//!
//! `--transistency` switches both modes to VM-op litmus programs
//! (`mprotect`, COW breaks, T2P conversions, twin commits, TLB
//! shootdowns interleaved with loads and stores), `--enumerate N` adds
//! the bounded DPOR-lite sweep over deterministic VM-op placements, and
//! `--ablate-shootdown` is the transistency counterpart of the
//! code-centric ablation: precise per-PTE shootdowns stop landing, stale
//! translations survive, and the campaign must find divergences.

use tmi::GovernorState;
use tmi_faultpoint::{FaultPoint, FaultStats};
use tmi_oracle::{
    check_litmus, check_seed, check_transistency_seed, check_transistency_variants, trace_litmus,
    CheckConfig, CheckReport, Coverage, Litmus,
};

use crate::exec::pool_map;
use crate::harness::RuntimeKind;
use crate::spec::JobSpec;

/// A campaign keeps full reports for at most this many divergent seeds.
const MAX_REPORTS: usize = 5;

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Number of consecutive seeds to check.
    pub seeds: u64,
    /// First seed of the range.
    pub start_seed: u64,
    /// The checker configuration every seed runs under: code-centric
    /// consistency on or off (`--ablate-code-centric`, the
    /// divergence-expecting ablation), the base fault seed (`--faults`;
    /// repair may retry, degrade, abort or revert, and the campaign must
    /// still find zero divergences), and the shootdown ablation
    /// (`--ablate-shootdown`, which requires
    /// [`FuzzConfig::transistency`]; a [`JobSpec`] cannot express it, so a
    /// service client cannot request a broken kernel).
    pub check: CheckConfig,
    /// Worker threads (`None` = [`std::thread::available_parallelism`]).
    pub workers: Option<usize>,
    /// Transistency mode: check each seed's *VM-op* litmus program
    /// ([`tmi_oracle::Litmus::generate_vm`] — `mprotect`, COW breaks, T2P
    /// conversions, twin commits, TLB shootdowns interleaved with the
    /// consistency vocabulary) instead of the plain one.
    pub transistency: bool,
    /// Bounded schedule enumeration (DPOR-lite): additionally check up to
    /// this many deterministic VM-op *placements* of each seed's small
    /// base program ([`tmi_oracle::Litmus::vm_variants`]). `0` disables;
    /// requires [`FuzzConfig::transistency`].
    pub enumerate: u64,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seeds: 1000,
            start_seed: 0,
            check: CheckConfig::default(),
            workers: None,
            transistency: false,
            enumerate: 0,
        }
    }
}

/// Fault-campaign aggregates across every checked seed.
#[derive(Clone, Debug, Default)]
pub struct CampaignFaults {
    /// Per-point roll/fire counts summed over all runs.
    pub stats: FaultStats,
    /// Governor retries of transiently-failed operations.
    pub retries: u64,
    /// Operations that succeeded after at least one retry.
    pub recoveries: u64,
    /// Full rollbacks after persistent conversion failure.
    pub rollbacks: u64,
    /// Pages degraded to shared mode after persistent per-page failure.
    pub degraded: u64,
    /// Efficacy-monitor reverts.
    pub reverts: u64,
    /// Runs ending with the governor in `Aborted` state.
    pub aborted_runs: u64,
    /// Runs ending with the governor in `Reverted` state.
    pub reverted_runs: u64,
}

impl CampaignFaults {
    /// True if the campaign exercised the whole governor: every
    /// simulator-level fault point fired at least once, and retry,
    /// rollback and efficacy-revert each happened in at least one run.
    /// (The service points — worker kill, queue full, cache drop — belong
    /// to `tmi-service`'s own chaos campaign, not the litmus matrix.)
    pub fn coverage_ok(&self) -> bool {
        FaultPoint::SIM.iter().all(|&p| self.stats.get(p).fired > 0)
            && self.retries > 0
            && self.recoveries > 0
            && self.rollbacks > 0
            && self.reverts > 0
    }

    /// Simulator fault points that never fired.
    fn unfired(&self) -> Vec<&'static str> {
        FaultPoint::SIM
            .iter()
            .filter(|&&p| self.stats.get(p).fired == 0)
            .map(|p| p.name())
            .collect()
    }
}

/// Aggregated campaign outcome.
#[derive(Clone, Debug)]
pub struct CampaignResult {
    /// The configuration that ran.
    pub cfg: FuzzConfig,
    /// Programs checked: one per seed, plus every enumerated VM-op
    /// variant in `--enumerate` mode.
    pub checked: u64,
    /// Seeds with at least one divergence, in seed order.
    pub divergent_seeds: Vec<u64>,
    /// Total trace steps executed across all repaired runs.
    pub total_steps: u64,
    /// Static coverage summed over every checked program.
    pub coverage: Coverage,
    /// Full reports for the first five divergent seeds.
    pub reports: Vec<CheckReport>,
    /// Fault-campaign aggregates (present iff the campaign's
    /// [`CheckConfig::faults`] is set).
    pub faults: Option<CampaignFaults>,
}

impl CampaignResult {
    /// True if the campaign outcome matches its mode: clean under the
    /// shipping configuration, divergent under either ablation.
    pub fn ok(&self) -> bool {
        if self.cfg.check.ablated() {
            !self.divergent_seeds.is_empty()
        } else {
            self.divergent_seeds.is_empty()
        }
    }

    /// Renders the campaign summary (plus full reports for the first
    /// divergent seeds).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut mode = String::from(if self.cfg.check.code_centric {
            "code-centric on"
        } else {
            "code-centric OFF (ablation)"
        });
        if self.cfg.check.ablate_shootdown {
            mode.push_str(", TLB shootdowns OFF (ablation)");
        }
        let kind = if self.cfg.transistency {
            "transistency seeds"
        } else {
            "seeds"
        };
        let mut s = String::new();
        let _ = writeln!(
            s,
            "fuzz_consistency: {} {kind} [{}, {}) under {mode}",
            self.cfg.seeds,
            self.cfg.start_seed,
            self.cfg.start_seed + self.cfg.seeds
        );
        if self.cfg.enumerate > 0 {
            let _ = writeln!(
                s,
                "  schedule enumeration: up to {} VM-op placements per seed; \
                 {} programs checked",
                self.cfg.enumerate, self.checked
            );
        }
        let _ = writeln!(
            s,
            "  trace steps: {} total; coverage: {}",
            self.total_steps, self.coverage
        );
        let _ = writeln!(
            s,
            "  divergent seeds: {} / {}",
            self.divergent_seeds.len(),
            self.checked
        );
        if !self.divergent_seeds.is_empty() {
            let shown: Vec<String> = self
                .divergent_seeds
                .iter()
                .take(32)
                .map(|s| s.to_string())
                .collect();
            let _ = writeln!(
                s,
                "    [{}{}]",
                shown.join(", "),
                if self.divergent_seeds.len() > 32 {
                    ", ..."
                } else {
                    ""
                }
            );
        }
        if let (Some(f), Some(base)) = (&self.faults, self.cfg.check.faults) {
            let _ = writeln!(s, "  fault campaign (base seed {base}): {}", f.stats);
            let _ = writeln!(
                s,
                "    governor: retries={} recoveries={} rollbacks={} degraded={} \
                 reverts={} aborted-runs={} reverted-runs={}",
                f.retries,
                f.recoveries,
                f.rollbacks,
                f.degraded,
                f.reverts,
                f.aborted_runs,
                f.reverted_runs
            );
            let _ = writeln!(
                s,
                "    fault coverage: {}",
                if f.coverage_ok() {
                    "OK (every point fired; retry, rollback and efficacy-revert all exercised)"
                        .to_string()
                } else {
                    format!(
                        "INCOMPLETE (unfired points: [{}]; retries={} recoveries={} \
                         rollbacks={} reverts={})",
                        f.unfired().join(", "),
                        f.retries,
                        f.recoveries,
                        f.rollbacks,
                        f.reverts
                    )
                }
            );
        }
        for r in &self.reports {
            let _ = writeln!(s, "---");
            s.push_str(&r.render());
        }
        let ablated = self.cfg.check.ablated();
        let verdict = if self.ok() {
            if ablated {
                "OK (ablation diverges as the paper predicts)"
            } else {
                "OK (repaired runs are indistinguishable from the oracle)"
            }
        } else if ablated {
            "FAIL (ablated campaign found no divergence — fuzzer has no teeth)"
        } else {
            "FAIL (repair path diverged from the sequential oracle)"
        };
        let _ = writeln!(s, "verdict: {verdict}");
        s
    }
}

/// Checks one litmus job through the differential oracle — the litmus
/// half of the shared-[`JobSpec`] vocabulary. The spec's workload must be
/// `litmus:<seed>`; its runtime selects the campaign mode
/// ([`RuntimeKind::TmiNoCodeCentric`] = the code-centric ablation, any
/// other TMI runtime = the shipping configuration); its fault-schedule
/// seed, if nonzero, is the campaign base seed mixed per program via
/// `tmi_oracle::derive_fault_seed`. This is the entry point `tmi-service`
/// routes litmus jobs through, so a job submitted over the wire checks
/// exactly like a campaign seed.
pub fn check_spec(spec: &JobSpec) -> Result<CheckReport, String> {
    let check = CheckConfig {
        code_centric: spec.runtime != RuntimeKind::TmiNoCodeCentric,
        faults: (spec.seed != 0).then_some(spec.seed),
        ..CheckConfig::default()
    };
    if let Some(seed) = spec.litmus_vm_seed() {
        Ok(check_transistency_seed(seed, &check))
    } else if let Some(seed) = spec.litmus_seed() {
        Ok(check_seed(seed, &check))
    } else {
        Err(format!("not a litmus job: {:?}", spec.workload))
    }
}

/// The litmus program a campaign checks for `seed`: the transistency
/// program in `--transistency` mode, the plain one otherwise.
fn campaign_program(cfg: &FuzzConfig, seed: u64) -> Litmus {
    if cfg.transistency {
        Litmus::generate_vm(seed)
    } else {
        Litmus::generate(seed)
    }
}

/// Re-checks the campaign's first program under the campaign's checker
/// configuration with telemetry tracing on, and returns its report and
/// Chrome `trace_event` JSON (the `fuzz_consistency --trace` output).
pub fn trace_first_seed(cfg: &FuzzConfig) -> (CheckReport, String) {
    trace_litmus(&campaign_program(cfg, cfg.start_seed), &cfg.check)
}

/// Runs the campaign: checks every seed in the range in parallel, plus
/// its enumerated VM-op variants, and aggregates in seed order.
pub fn run_campaign(cfg: &FuzzConfig) -> CampaignResult {
    let workers = cfg.workers.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    let check = &cfg.check;
    let n = usize::try_from(cfg.seeds).expect("seed count fits usize");
    let results = pool_map(workers, n, |i| {
        let seed = cfg.start_seed + i as u64;
        let mut reports = vec![check_litmus(&campaign_program(cfg, seed), check)];
        if cfg.enumerate > 0 {
            reports.extend(check_transistency_variants(
                seed,
                cfg.enumerate as usize,
                check,
            ));
        }
        reports
    });

    let mut out = CampaignResult {
        cfg: cfg.clone(),
        checked: 0,
        divergent_seeds: Vec::new(),
        total_steps: 0,
        coverage: Coverage::default(),
        reports: Vec::new(),
        faults: cfg.check.faults.map(|_| CampaignFaults::default()),
    };
    for r in results.into_iter().flatten() {
        out.checked += 1;
        out.total_steps += r.steps as u64;
        out.coverage.add(&r.coverage);
        if let (Some(agg), Some(fs)) = (&mut out.faults, &r.faults) {
            agg.stats.add(&fs.stats);
            agg.retries += fs.governor.retries;
            agg.recoveries += fs.governor.transient_recoveries;
            agg.rollbacks += fs.governor.rollbacks;
            agg.degraded += fs.governor.pages_degraded;
            agg.reverts += fs.governor.efficacy_reverts;
            match fs.state {
                GovernorState::Aborted => agg.aborted_runs += 1,
                GovernorState::Reverted => agg.reverted_runs += 1,
                _ => {}
            }
        }
        if !r.clean() {
            // Enumerated variants share their seed; record each seed once.
            if out.divergent_seeds.last() != Some(&r.seed) {
                out.divergent_seeds.push(r.seed);
            }
            if out.reports.len() < MAX_REPORTS {
                out.reports.push(r);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ablate_code_centric() -> CheckConfig {
        CheckConfig {
            code_centric: false,
            ..CheckConfig::default()
        }
    }

    fn faults(base: u64) -> CheckConfig {
        CheckConfig {
            faults: Some(base),
            ..CheckConfig::default()
        }
    }

    #[test]
    fn small_clean_campaign_passes() {
        let cfg = FuzzConfig {
            seeds: 8,
            start_seed: 0,
            workers: Some(2),
            ..FuzzConfig::default()
        };
        let r = run_campaign(&cfg);
        assert!(r.ok(), "{}", r.render());
        assert_eq!(r.checked, 8);
        assert!(r.total_steps > 0);
    }

    #[test]
    fn campaign_report_is_worker_count_invariant() {
        let base = FuzzConfig {
            seeds: 6,
            start_seed: 100,
            check: ablate_code_centric(),
            ..FuzzConfig::default()
        };
        let serial = run_campaign(&FuzzConfig {
            workers: Some(1),
            ..base.clone()
        });
        let parallel = run_campaign(&FuzzConfig {
            workers: Some(4),
            ..base
        });
        assert_eq!(serial.render(), parallel.render());
    }

    #[test]
    fn fault_campaign_stays_clean_and_aggregates_governor_stats() {
        let cfg = FuzzConfig {
            seeds: 12,
            start_seed: 0,
            workers: Some(4),
            check: faults(7),
            ..FuzzConfig::default()
        };
        let r = run_campaign(&cfg);
        assert!(r.ok(), "fault campaign must stay clean:\n{}", r.render());
        let f = r.faults.as_ref().expect("fault aggregates present");
        let rolls: u64 = FaultPoint::ALL.iter().map(|&p| f.stats.get(p).rolls).sum();
        assert!(rolls > 0, "fault points must have been rolled");
        assert!(r.render().contains("fault campaign (base seed 7)"));
        assert!(r.render().contains("fault coverage:"));
    }

    #[test]
    fn check_spec_matches_direct_check_seed() {
        let via_spec = check_spec(&JobSpec::litmus(3)).unwrap();
        let direct = check_seed(3, &CheckConfig::default());
        assert_eq!(via_spec.render(), direct.render());
        let faulted = JobSpec {
            seed: 7,
            ..JobSpec::litmus(3)
        };
        assert_eq!(
            check_spec(&faulted).unwrap().render(),
            check_seed(3, &faults(7)).render()
        );
        assert!(check_spec(&JobSpec::new("histogram")).is_err());
    }

    #[test]
    fn zero_fault_seed_still_injects_faults() {
        let cfg = FuzzConfig {
            seeds: 16,
            start_seed: 0,
            workers: Some(2),
            check: faults(0),
            ..FuzzConfig::default()
        };
        let r = run_campaign(&cfg);
        assert!(r.ok(), "fault campaign must stay clean:\n{}", r.render());
        let f = r.faults.as_ref().expect("fault aggregates present");
        for p in FaultPoint::SIM {
            assert!(f.stats.get(p).fired > 0, "{} never fired", p.name());
        }
    }

    #[test]
    fn transistency_campaign_checks_clean_and_enumerates() {
        let cfg = FuzzConfig {
            seeds: 4,
            start_seed: 0,
            transistency: true,
            enumerate: 4,
            workers: Some(2),
            ..FuzzConfig::default()
        };
        let r = run_campaign(&cfg);
        assert!(
            r.ok(),
            "transistency campaign must stay clean:\n{}",
            r.render()
        );
        assert!(
            r.checked > cfg.seeds,
            "enumeration must add variant programs ({} checked)",
            r.checked
        );
        assert!(r.coverage.vm_ops() > 0, "campaign must execute VM ops");
        assert!(r.render().contains("transistency seeds"));
        assert!(r.render().contains("schedule enumeration"));
    }

    #[test]
    fn shootdown_ablated_campaign_finds_divergences() {
        let cfg = FuzzConfig {
            seeds: 24,
            start_seed: 0,
            transistency: true,
            check: CheckConfig {
                ablate_shootdown: true,
                ..CheckConfig::default()
            },
            workers: Some(4),
            ..FuzzConfig::default()
        };
        let r = run_campaign(&cfg);
        assert!(r.ok(), "shootdown ablation must diverge:\n{}", r.render());
        assert!(!r.reports.is_empty());
        assert!(r.render().contains("TLB shootdowns OFF"));
        let report = &r.reports[0];
        assert!(report.render().contains("--ablate-shootdown"));
    }

    #[test]
    fn transistency_spec_routes_through_check_spec() {
        let via_spec = check_spec(&JobSpec::litmus_vm(3)).unwrap();
        let direct = check_transistency_seed(3, &CheckConfig::default());
        assert_eq!(via_spec.render(), direct.render());
    }

    #[test]
    fn ablated_campaign_finds_divergences() {
        let cfg = FuzzConfig {
            seeds: 24,
            start_seed: 0,
            check: ablate_code_centric(),
            workers: Some(4),
            ..FuzzConfig::default()
        };
        let r = run_campaign(&cfg);
        assert!(r.ok(), "ablation must diverge:\n{}", r.render());
        assert!(!r.reports.is_empty());
    }
}
