//! The TMI runtime: the composition of detector, repair manager, lock
//! redirector and consistency policy behind the [`tmi_sim::RuntimeHooks`]
//! interface.

use std::collections::BTreeSet;

use tmi_faultpoint::FaultInjector;
use tmi_machine::{AccessOutcome, VAddr, Vpn};
use tmi_os::{FaultResolution, Kernel, OsError, Tid};
use tmi_perf::PerfMonitor;
use tmi_program::VmOp;
use tmi_sim::{AccessInfo, EngineCtl, PreAccess, RegionEvent, RuntimeHooks, SyncEvent};
use tmi_telemetry::{MetricSink, MetricSource, Phase, PhaseProfile, Tracer};

use crate::config::TmiConfig;
use crate::consistency;
use crate::detect::{DetectionLoop, FalseSharingDetector, SharingKind, SharingReport};
use crate::layout::AppLayout;
use crate::locks::{LockRedirector, LOCK_INDIRECT_CYCLES};
use crate::memstats::MemoryBreakdown;
use crate::repair::{retry_backoff, RepairManager, REPAIR_RETRY_LIMIT, STOP_WORLD_CYCLES};

/// Fixed detector memory overhead in bytes: disassembly tables and
/// dynamic tracking structures. With a 1.5 MiB PEBS buffer for each of
/// 8 threads it makes Fig. 8's 84.0 MB floor (the paper reports about
/// 90 MB).
const DETECTOR_FIXED_BYTES: u64 = 72 * 1024 * 1024;

/// Summary counters exposed after a run.
#[derive(Clone, Debug, Default)]
pub struct TmiStats {
    /// Distinct lines ever reported as falsely shared.
    pub fs_lines: BTreeSet<u64>,
    /// Distinct lines ever reported as truly shared.
    pub ts_lines: BTreeSet<u64>,
    /// Cycle of the first threshold-crossing false-sharing report.
    pub first_detection_cycle: Option<u64>,
    /// Lock re-padding repairs performed.
    pub lock_repads: u64,
    /// Detection-thread analysis passes.
    pub ticks: u64,
}

impl MetricSource for TmiStats {
    fn metrics(&self, out: &mut MetricSink) {
        out.u64("fs_lines", self.fs_lines.len() as u64);
        out.u64("ts_lines", self.ts_lines.len() as u64);
        out.u64("detected", u64::from(self.first_detection_cycle.is_some()));
        out.u64(
            "first_detection_cycle",
            self.first_detection_cycle.unwrap_or(0),
        );
        out.u64("lock_repads", self.lock_repads);
        out.u64("ticks", self.ticks);
    }
}

/// The TMI runtime system (the paper's primary contribution).
///
/// Construct with a [`TmiConfig`] (detect-only or protect) and the
/// [`AppLayout`] describing where the application's shared-object memory
/// lives, then hand it to [`tmi_sim::Engine::new`].
#[derive(Debug)]
pub struct TmiRuntime {
    config: TmiConfig,
    layout: AppLayout,
    detection: DetectionLoop,
    repair: RepairManager,
    locks: LockRedirector,
    stats: TmiStats,
    /// Commit cycles already seen by the efficacy monitor at the last tick.
    last_commit_cycles: u64,
    /// True while an engine-level fault retry is outstanding, so the next
    /// completed access can be credited as a transient recovery.
    engine_retry_pending: bool,
    /// Cycles the runtime itself charged (detection, lock re-padding,
    /// fault retries) per repair phase; the repair manager keeps the rest.
    phases: PhaseProfile,
    /// Telemetry event bus; disabled (a no-op) unless a run opts in.
    tracer: Tracer,
}

impl TmiRuntime {
    /// Creates a runtime for the given configuration and layout.
    pub fn new(config: TmiConfig, layout: AppLayout) -> Self {
        let (lock_start, lock_len) = layout.lock_area();
        TmiRuntime {
            detection: DetectionLoop::new(config.perf, layout),
            repair: RepairManager::new(),
            locks: LockRedirector::new(lock_start, lock_len),
            stats: TmiStats::default(),
            last_commit_cycles: 0,
            engine_retry_pending: false,
            phases: PhaseProfile::new(),
            tracer: Tracer::disabled(),
            config,
            layout,
        }
    }

    /// Installs a telemetry tracer, shared with the repair manager so the
    /// whole repair pipeline (detect → fork → twin → commit) lands in one
    /// event stream. Tracing is purely observational: it never charges
    /// simulated cycles.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.repair.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Installs a fault injector on the runtime's own fault points (PEBS
    /// sample drops, twin-snapshot allocation). The kernel's injector is
    /// installed separately via [`Kernel::set_fault_injector`]; pass the
    /// same (cloned) injector for one shared fault schedule and stats.
    pub fn set_fault_injector(&mut self, faults: FaultInjector) {
        self.detection.set_fault_injector(faults.clone());
        self.repair.set_fault_injector(faults);
    }

    /// Summary statistics.
    pub fn stats(&self) -> &TmiStats {
        &self.stats
    }

    /// The repair manager (T2P and commit statistics, Table 3).
    pub fn repair(&self) -> &RepairManager {
        &self.repair
    }

    /// The detector (line profiles and record counts).
    pub fn detector(&self) -> &FalseSharingDetector {
        self.detection.detector()
    }

    /// The perf monitor (records/events, Fig. 4).
    pub fn perf(&self) -> &PerfMonitor {
        self.detection.perf()
    }

    /// Whether repair has been activated during the run.
    pub fn repaired(&self) -> bool {
        self.repair.active() || self.stats.lock_repads > 0
    }

    /// Memory breakdown for Fig. 8. `app_bytes` is the peak physical
    /// memory of the application (from the kernel).
    pub fn memory(&self, kernel: &Kernel) -> MemoryBreakdown {
        MemoryBreakdown {
            app_bytes: kernel.physmem().peak_allocated_frames() as u64 * tmi_machine::FRAME_SIZE,
            perf_bytes: self.perf().buffer_bytes(),
            detector_bytes: self.detector().table_bytes() + DETECTOR_FIXED_BYTES,
            twin_bytes: self.repair.twins().peak_bytes(),
            lock_bytes: self.locks.bytes_used(),
        }
    }

    /// The per-phase cycle attribution of the run so far: the runtime's
    /// own charges plus the repair manager's.
    pub fn phases(&self) -> PhaseProfile {
        let mut total = self.phases;
        for (phase, cycles) in self.repair.phases().iter() {
            total.add(phase, cycles);
        }
        total
    }

    /// Arms the PTSB on `pages` immediately, converting threads to
    /// processes on the first call — exactly what a detector threshold
    /// crossing would do, minus the sampling warm-up.
    ///
    /// This is the entry point for the differential consistency oracle
    /// (`tmi-oracle`) and for litmus tests: fuzzed programs are far too
    /// short to accumulate HITM samples, so the checker arms the pages
    /// under test up front and the run exercises the full repaired path
    /// (COW faults, twins, commits, code-centric routing) from the first
    /// instruction.
    pub fn force_repair(&mut self, ctl: &mut dyn EngineCtl, pages: &[Vpn]) {
        self.repair.trigger(ctl, &self.layout, pages);
    }

    fn flush_cost(&mut self, ctl: &mut dyn EngineCtl, tid: Tid) -> u64 {
        if !self.repair.active() {
            return 0;
        }
        self.repair.commit_thread(ctl, tid, &self.layout)
    }

    fn handle_reports(&mut self, ctl: &mut dyn EngineCtl, reports: &[SharingReport], now: u64) {
        let mut app_pages: Vec<Vpn> = Vec::new();
        let mut lock_region_fs = false;
        for r in reports {
            match r.kind {
                SharingKind::FalseSharing => {
                    self.tracer.instant(
                        "tmi.detect.fs_line",
                        "detect",
                        tmi_telemetry::GLOBAL_TID,
                        now,
                        &[("line", r.vline)],
                    );
                    self.stats.fs_lines.insert(r.vline);
                    self.stats.first_detection_cycle.get_or_insert(now);
                    if self.layout.internal_line(r.vline) {
                        lock_region_fs = true;
                    } else if self.layout.app_line(r.vline) {
                        app_pages.push(self.layout.line_page(r.vline));
                    }
                }
                SharingKind::TrueSharing => {
                    self.tracer.instant(
                        "tmi.detect.ts_line",
                        "detect",
                        tmi_telemetry::GLOBAL_TID,
                        now,
                        &[("line", r.vline)],
                    );
                    self.stats.ts_lines.insert(r.vline);
                }
                SharingKind::Private => {}
            }
        }
        if !self.config.repair_enabled {
            return;
        }
        if lock_region_fs && !self.locks.padded() {
            // Stop the world briefly and re-pad the shared lock objects.
            self.locks.repad();
            self.stats.lock_repads += 1;
            ctl.add_cycles_all(STOP_WORLD_CYCLES);
            self.tracer.instant(
                "tmi.repair.lock_repad",
                "repair",
                tmi_telemetry::GLOBAL_TID,
                now,
                &[],
            );
            self.phases.add(Phase::Arm, STOP_WORLD_CYCLES);
        }
        if !app_pages.is_empty() {
            let pages: Vec<Vpn> = if self.config.targeted {
                app_pages
            } else {
                self.layout.all_app_pages().collect()
            };
            self.repair.trigger(ctl, &self.layout, &pages);
        }
    }
}

impl MetricSource for TmiRuntime {
    fn metrics(&self, out: &mut MetricSink) {
        self.stats.metrics(out);
        out.u64("repaired", u64::from(self.repaired()));
        out.source("repair", &self.repair);
        self.detection.metrics(out);
        out.source("locks", &self.locks);
        out.source("phase", &self.phases());
    }
}

impl RuntimeHooks for TmiRuntime {
    fn on_start(&mut self, ctl: &mut dyn EngineCtl) {
        self.detection.start(ctl);
    }

    fn pre_access(&mut self, ctl: &mut dyn EngineCtl, tid: Tid, acc: &AccessInfo) -> PreAccess {
        if !self.repair.active() {
            // Compatible-by-default: before repair, the callbacks are NOPs
            // and accesses run at native speed.
            return PreAccess::default();
        }
        let d = consistency::access_decision(self.config.code_centric, acc);
        let mut extra = 0;
        if d.flush {
            extra += self.flush_cost(ctl, tid);
        }
        PreAccess {
            extra_cycles: extra,
            route: consistency::route_of(d),
        }
    }

    fn post_access(
        &mut self,
        _ctl: &mut dyn EngineCtl,
        tid: Tid,
        acc: &AccessInfo,
        outcome: &AccessOutcome,
    ) -> u64 {
        if self.engine_retry_pending {
            // The access completed, so the transiently-failed fault that
            // preceded it has healed.
            self.engine_retry_pending = false;
            self.repair.note_recovery();
        }
        let capture_cycles = self.detection.capture(tid, acc, outcome);
        self.phases.add(Phase::Detect, capture_cycles);
        capture_cycles
    }

    fn on_fault(&mut self, ctl: &mut dyn EngineCtl, tid: Tid, res: &FaultResolution) {
        if let FaultResolution::CowBroken { vpn, pages, .. } = *res {
            self.repair.on_cow(ctl, tid, vpn, pages, &self.layout);
        }
    }

    fn on_fault_error(
        &mut self,
        ctl: &mut dyn EngineCtl,
        tid: Tid,
        addr: VAddr,
        err: &OsError,
        attempt: u32,
    ) -> Option<u64> {
        if !err.is_transient() {
            return None;
        }
        if attempt <= REPAIR_RETRY_LIMIT {
            self.repair.note_retry();
            self.engine_retry_pending = true;
            let backoff = retry_backoff(attempt);
            self.tracer.instant(
                "tmi.fault.retry",
                "fault",
                u64::from(tid.0),
                ctl.now(),
                &[("attempt", u64::from(attempt))],
            );
            self.phases.add(Phase::FaultHandling, backoff);
            return Some(backoff);
        }
        // Retry budget exhausted. If the failure is on a PTSB-armed page
        // (e.g. no frame for the private copy), give that page back to
        // shared memory and let the access run unbuffered — repair
        // degrades, the program does not die.
        let vpn = addr.vpn();
        if self.repair.is_protected(vpn) {
            self.repair.degrade_page(ctl, &self.layout, vpn);
            self.engine_retry_pending = true;
            let backoff = retry_backoff(attempt);
            self.phases.add(Phase::FaultHandling, backoff);
            return Some(backoff);
        }
        None
    }

    fn on_sync(&mut self, ctl: &mut dyn EngineCtl, tid: Tid, _ev: SyncEvent) -> u64 {
        self.flush_cost(ctl, tid)
    }

    /// Explicit VM operations — the transistency litmus vocabulary. Each
    /// arm drives the same governor/kernel entry point the organic path
    /// uses (detector trigger, COW fault, sync-point commit), just at a
    /// program-chosen instant, so fuzzed schedules can force repair
    /// transitions mid-run that sampling would take millions of cycles to
    /// reach. Outcome codes depend only on PTE/governor state — never on
    /// TLB contents — keeping them invariant under the TLB test seam.
    fn on_vm_op(&mut self, ctl: &mut dyn EngineCtl, tid: Tid, op: VmOp, addr: VAddr) -> u64 {
        let vpn = addr.vpn();
        match op {
            VmOp::T2p => {
                // Start (or extend) a repair episode on this page, exactly
                // as a detector threshold crossing would.
                self.repair.trigger(ctl, &self.layout, &[vpn]);
                u64::from(self.repair.is_protected(vpn))
            }
            VmOp::Mprotect => {
                if !self.repair.active() {
                    // No episode to arm pages under; a bare mprotect with
                    // no governor is not part of TMI's repertoire.
                    return 0;
                }
                self.repair.trigger(ctl, &self.layout, &[vpn]);
                u64::from(self.repair.is_protected(vpn))
            }
            VmOp::CowBreak => {
                // Take the write-fault path on the page as if a store had
                // hit the armed mapping. On an unarmed page this resolves
                // Spurious (or demand-pages) — outcome 0.
                let res = {
                    let k = ctl.kernel();
                    let aspace = k.thread_aspace(tid);
                    k.handle_fault(aspace, addr, true)
                };
                match res {
                    Ok(FaultResolution::CowBroken { vpn, pages, .. }) => {
                        self.repair.on_cow(ctl, tid, vpn, pages, &self.layout);
                        1
                    }
                    // Transient kernel failures (injected out-of-frames)
                    // make the forced break a no-op rather than a retry
                    // loop: the litmus program observes outcome 0.
                    Ok(_) | Err(_) => 0,
                }
            }
            VmOp::TwinCommit => {
                if !self.repair.active() {
                    return 0;
                }
                let cycles = self.repair.commit_thread(ctl, tid, &self.layout);
                ctl.add_cycles(tid, cycles);
                1
            }
            VmOp::Shootdown => {
                let k = ctl.kernel();
                let aspace = k.thread_aspace(tid);
                k.shootdown_page(aspace, vpn);
                // Constant outcome: whether the IPI actually lands is
                // accelerator state, invisible by design.
                1
            }
        }
    }

    fn on_region(&mut self, ctl: &mut dyn EngineCtl, tid: Tid, ev: RegionEvent) -> u64 {
        if consistency::region_flush(self.config.code_centric, ev) {
            self.flush_cost(ctl, tid)
        } else {
            0
        }
    }

    fn map_lock(&mut self, _ctl: &mut dyn EngineCtl, _tid: Tid, lock: VAddr) -> (VAddr, u64) {
        (self.locks.redirect(lock), LOCK_INDIRECT_CYCLES)
    }

    fn on_tick(&mut self, ctl: &mut dyn EngineCtl, now: u64) {
        self.stats.ticks += 1;
        let window = self
            .detection
            .tick(ctl, now, self.config.fs_threshold_per_sec);
        self.tracer.instant(
            "tmi.detect.tick",
            "detect",
            tmi_telemetry::GLOBAL_TID,
            now,
            &[
                ("records", window.records as u64),
                ("reports", window.reports.len() as u64),
            ],
        );
        self.handle_reports(ctl, &window.reports, now);

        // Repair-efficacy monitor: if the fraction of this window spent in
        // PTSB commits exceeds the threshold, repair costs more than the
        // false sharing it cures — revert it. Disabled by default
        // (threshold = +inf).
        if self.repair.active() && self.config.efficacy_revert_threshold.is_finite() {
            let commit_delta = self
                .repair
                .stats()
                .commit_cycles
                .saturating_sub(self.last_commit_cycles);
            if commit_delta as f64 / window.cycles as f64 > self.config.efficacy_revert_threshold {
                self.repair.revert(ctl, &self.layout);
            }
        }
        // Post-revert value, so the revert's own flush cannot re-trigger.
        self.last_commit_cycles = self.repair.stats().commit_cycles;
    }
}
