//! The Sheriff baseline (Liu & Berger, OOPSLA '11), as characterized in
//! §2.2 and §4 of the TMI paper.
//!
//! Sheriff runs every thread as a process *from startup* and page-protects
//! **all** application memory, committing page diffs at every
//! synchronization operation. That gives excellent repair (its PTSB starts
//! preventing false sharing before the first access) at the price of:
//!
//! * overhead on programs *without* false sharing (27 % average in
//!   Table 1) — every written page pays twinning and per-sync diffs;
//! * **no memory-consistency guard**: atomics and inline assembly run
//!   through the PTSB, so canneal's atomic swaps corrupt data (Fig. 11)
//!   and cholesky's flag synchronization hangs (Fig. 12);
//! * compatibility failures on large workloads (it works on 11 of the 35,
//!   Fig. 7) — modeled by the `sheriff_compatible` flag in workload specs,
//!   which the harness consults before running.
//!
//! Sheriff's own synchronization objects are process-shared and
//! full-line-sized, so lock-array false sharing (spinlockpool) is fixed as
//! a side effect of interposition.

use tmi::{AppLayout, RepairManager, LOCK_INDIRECT_CYCLES};
use tmi_machine::{VAddr, Vpn};
use tmi_os::{FaultResolution, Tid};
use tmi_sim::{AccessInfo, EngineCtl, PreAccess, RuntimeHooks, SyncEvent};

/// Extra cycles per committed page in detect mode (sampled diff
/// analysis).
const DETECT_ANALYSIS_PER_PAGE: u64 = 900;

/// Sheriff configuration. Conversion and commit costs are TMI's (the
/// [`RepairManager`] constants).
#[derive(Clone, Copy, Debug, Default)]
pub struct SheriffConfig {
    /// `sheriff-detect` adds per-commit diff-analysis bookkeeping on top of
    /// `sheriff-protect`.
    pub detect_mode: bool,
}

impl SheriffConfig {
    /// The `sheriff-protect` tool configuration.
    pub fn protect() -> Self {
        Self::default()
    }
}

impl tmi_telemetry::MetricSource for SheriffRuntime {
    fn metrics(&self, out: &mut tmi_telemetry::MetricSink) {
        out.u64("repaired", u64::from(self.repair.active()));
        out.source("repair", &self.repair);
        out.source("locks", &self.locks);
    }
}

/// The Sheriff runtime.
#[derive(Debug)]
pub struct SheriffRuntime {
    config: SheriffConfig,
    layout: AppLayout,
    repair: RepairManager,
    locks: tmi::LockRedirector,
}

impl SheriffRuntime {
    /// Creates a Sheriff runtime over the given layout.
    pub fn new(config: SheriffConfig, layout: AppLayout) -> Self {
        let mut locks = tmi::LockRedirector::new(
            VAddr::new(layout.internal_start.raw() + tmi_machine::LINE_SIZE),
            layout.internal_len / 4,
        );
        // Sheriff's process-shared locks are its own full-line objects.
        locks.repad();
        SheriffRuntime {
            config,
            layout,
            repair: RepairManager::new(),
            locks,
        }
    }

    /// Repair statistics (commits, protected pages).
    pub fn repair(&self) -> &RepairManager {
        &self.repair
    }

    /// Installs a telemetry tracer on the underlying repair manager.
    pub fn set_tracer(&mut self, tracer: tmi_telemetry::Tracer) {
        self.repair.set_tracer(tracer);
    }

    fn commit(&mut self, ctl: &mut dyn EngineCtl, tid: Tid) -> u64 {
        let before_pages = self.repair.stats().committed_pages;
        let mut cycles = self.repair.commit_thread(ctl, tid, &self.layout);
        if self.config.detect_mode {
            let pages = self.repair.stats().committed_pages - before_pages;
            cycles += pages * DETECT_ANALYSIS_PER_PAGE;
        }
        cycles
    }
}

impl RuntimeHooks for SheriffRuntime {
    fn on_start(&mut self, ctl: &mut dyn EngineCtl) {
        // Threads-as-processes from the very beginning, whole-heap PTSB.
        let pages: Vec<Vpn> = self.layout.all_app_pages().collect();
        self.repair.trigger(ctl, &self.layout, &pages);
    }

    fn pre_access(&mut self, _ctl: &mut dyn EngineCtl, _tid: Tid, _acc: &AccessInfo) -> PreAccess {
        // No code-centric consistency: atomics and assembly go through the
        // PTSB like everything else ([24] §2.2 — the semantic flaw).
        PreAccess::default()
    }

    fn on_fault(&mut self, ctl: &mut dyn EngineCtl, tid: Tid, res: &FaultResolution) {
        if let FaultResolution::CowBroken { vpn, pages, .. } = *res {
            self.repair.on_cow(ctl, tid, vpn, pages, &self.layout);
        }
    }

    fn on_sync(&mut self, ctl: &mut dyn EngineCtl, tid: Tid, _ev: SyncEvent) -> u64 {
        self.commit(ctl, tid)
    }

    fn map_lock(&mut self, _ctl: &mut dyn EngineCtl, _tid: Tid, lock: VAddr) -> (VAddr, u64) {
        (self.locks.redirect(lock), LOCK_INDIRECT_CYCLES)
    }
}
