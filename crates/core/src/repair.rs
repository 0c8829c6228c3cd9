//! The repair manager: thread-to-process conversion and targeted page
//! protection (§3.2, §3.3), hardened into a self-healing governor.
//!
//! Every kernel call on the repair path can fail — `fork` vetoed, out of
//! frames, a transient `mprotect` fault — and the governor's job is to keep
//! the *application* correct regardless. Its invariant is simple:
//!
//! 1. An **extra or early** PTSB commit is always safe (the litmus programs
//!    are data-race-free at page granularity, so publishing buffered bytes
//!    sooner only narrows the window in which they are private).
//! 2. **Losing** a buffered byte is never safe.
//!
//! So every failure path first flushes what is buffered and only then gives
//! pages back to shared memory. Transient failures get bounded
//! retry-with-backoff in simulated cycles; persistent failures degrade a
//! single page ([`RepairManager::degrade_page`]) or dismantle repair
//! entirely — rollback on fork exhaustion ([`GovernorState::Aborted`]) and
//! efficacy-driven revert ([`GovernorState::Reverted`]). The rollback
//! machinery itself ([`tmi_os::Kernel::unprotect_page`],
//! [`tmi_os::Kernel::rejoin_thread`]) deliberately carries no fault points:
//! the governor must always be able to hand memory back.

use std::collections::BTreeSet;

use tmi_faultpoint::{FaultInjector, FaultPoint};
use tmi_machine::addr::FRAMES_PER_HUGE_PAGE;
use tmi_machine::Vpn;
use tmi_os::{AsId, OsError, Pid, Tid};
use tmi_sim::EngineCtl;
use tmi_telemetry::{MetricSink, MetricSource, Phase, PhaseProfile, Tracer, GLOBAL_TID};

use crate::config::TmiConfig;
use crate::layout::AppLayout;
use crate::twins::TwinStore;

/// Lifecycle of the repair governor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GovernorState {
    /// Never triggered.
    #[default]
    Inactive,
    /// Threads are processes, pages may be armed.
    Active,
    /// Repair was rolled back after persistent fork/COW failure; the run
    /// continues in shared-memory mode and repair will not re-trigger.
    Aborted,
    /// Repair was undone by the efficacy monitor (commit overhead exceeded
    /// the configured threshold); the run continues in shared-memory mode.
    Reverted,
}

/// Repair bookkeeping for Table 3 and the EXPERIMENTS report.
#[derive(Clone, Debug, Default)]
pub struct RepairStats {
    /// Cycle at which threads were converted to processes (detection
    /// latency: the "Unrepaired" column of Table 3).
    pub converted_at_cycle: Option<u64>,
    /// Total cycles charged for the stop-the-world conversion (the T2P
    /// column of Table 3).
    pub t2p_cycles: u64,
    /// Number of repair rounds (each may add pages).
    pub repair_rounds: u64,
    /// PTSB commit events (the Commits/s column of Table 3 divides this by
    /// runtime).
    pub commits: u64,
    /// Pages committed across all commits.
    pub committed_pages: u64,
    /// Cycles spent in commits.
    pub commit_cycles: u64,
    /// Bytes merged into shared memory.
    pub bytes_merged: u64,
    /// Retries of transiently-failed repair-path operations (fork, COW
    /// arming, twin snapshots, engine-level fault handling).
    pub retries: u64,
    /// Operations that succeeded after at least one retry.
    pub transient_recoveries: u64,
    /// Full rollbacks after persistent conversion failure (`RepairAborted`).
    pub rollbacks: u64,
    /// Pages given back to shared memory because arming, twinning or
    /// re-arming them failed persistently.
    pub pages_degraded: u64,
    /// Full reverts driven by the repair-efficacy monitor.
    pub efficacy_reverts: u64,
}

impl MetricSource for RepairStats {
    fn metrics(&self, out: &mut MetricSink) {
        out.u64("converted", u64::from(self.converted_at_cycle.is_some()));
        out.u64("converted_at_cycle", self.converted_at_cycle.unwrap_or(0));
        out.u64("t2p_cycles", self.t2p_cycles);
        out.u64("repair_rounds", self.repair_rounds);
        out.u64("commits", self.commits);
        out.u64("committed_pages", self.committed_pages);
        out.u64("commit_cycles", self.commit_cycles);
        out.u64("bytes_merged", self.bytes_merged);
        out.u64("retries", self.retries);
        out.u64("transient_recoveries", self.transient_recoveries);
        out.u64("rollbacks", self.rollbacks);
        out.u64("pages_degraded", self.pages_degraded);
        out.u64("efficacy_reverts", self.efficacy_reverts);
    }
}

/// Converts threads into processes on demand and arms the PTSB on exactly
/// the pages the detector incriminated.
#[derive(Debug, Default)]
pub struct RepairManager {
    state: GovernorState,
    protected: BTreeSet<Vpn>,
    twins: TwinStore,
    stats: RepairStats,
    /// `(tid, original pid)` for every thread we isolated, so rollback and
    /// revert can rejoin them.
    converted: Vec<(Tid, Pid)>,
    faults: Option<FaultInjector>,
    /// Cycles this manager charged, per repair phase.
    phases: PhaseProfile,
    /// Telemetry event bus; disabled (a no-op) unless a run opts in.
    tracer: Tracer,
}

impl MetricSource for RepairManager {
    fn metrics(&self, out: &mut MetricSink) {
        self.stats.metrics(out);
        out.u64("governor_state", self.state as u64);
        out.u64("protected_pages", self.protected.len() as u64);
        out.u64("twin_current_bytes", self.twins.current_bytes());
        out.u64("twin_peak_bytes", self.twins.peak_bytes());
    }
}

impl RepairManager {
    /// Creates an inactive manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a fault injector driving the twin-snapshot fault point.
    pub fn set_fault_injector(&mut self, faults: FaultInjector) {
        self.faults = Some(faults);
    }

    /// Installs a telemetry tracer (usually a clone of the runtime's, via
    /// [`crate::TmiRuntime::set_tracer`]).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Governor lifecycle state.
    pub fn state(&self) -> GovernorState {
        self.state
    }

    /// True while repair is in force (threads are processes).
    pub fn active(&self) -> bool {
        self.state == GovernorState::Active
    }

    /// True if `vpn` is PTSB-armed.
    pub fn is_protected(&self, vpn: Vpn) -> bool {
        self.protected.contains(&vpn)
    }

    /// Number of protected pages.
    pub fn protected_pages(&self) -> usize {
        self.protected.len()
    }

    /// Repair statistics.
    pub fn stats(&self) -> &RepairStats {
        &self.stats
    }

    /// The twin store (for memory accounting).
    pub fn twins(&self) -> &TwinStore {
        &self.twins
    }

    /// Cycles charged so far to arming, fault handling, commits and
    /// merges.
    pub fn phases(&self) -> PhaseProfile {
        self.phases
    }

    /// Triggers (or extends) repair: on the first call, stops the world
    /// and converts every application thread into a process via injected
    /// `fork()` (§3.2); then arms copy-on-write protection for `pages` in
    /// every process (§3.3). Pages in huge-page mappings are expanded to
    /// whole 2 MiB chunks.
    ///
    /// Transient conversion/arming failures are retried with backoff; a
    /// persistent conversion failure rolls the whole repair back
    /// ([`GovernorState::Aborted`]) and a persistent arming failure leaves
    /// just that page in shared mode. After an abort or revert the governor
    /// stays down: re-triggering is a no-op.
    pub fn trigger(
        &mut self,
        ctl: &mut dyn EngineCtl,
        cfg: &TmiConfig,
        layout: &AppLayout,
        pages: &[Vpn],
    ) {
        if matches!(self.state, GovernorState::Aborted | GovernorState::Reverted) {
            return;
        }
        let tids: Vec<Tid> = ctl.tids();
        if self.state == GovernorState::Inactive {
            self.state = GovernorState::Active;
            self.stats.converted_at_cycle = Some(ctl.now());
            self.tracer.instant(
                "tmi.repair.trigger",
                "repair",
                GLOBAL_TID,
                ctl.now(),
                &[("pages", pages.len() as u64)],
            );
            for &tid in &tids {
                if self.convert_retrying(ctl, tid, cfg).is_err() {
                    // Persistent fork veto: the paper's ptrace-inject
                    // failure analogue. Put every already-isolated thread
                    // back and run on in shared-memory mode.
                    self.rollback(ctl, cfg, layout);
                    return;
                }
                self.tracer.instant(
                    "tmi.repair.fork",
                    "repair",
                    u64::from(tid.0),
                    ctl.now(),
                    &[],
                );
            }
            let cost = cfg.stop_world_cycles + cfg.t2p_cycles_per_thread * tids.len() as u64;
            self.stats.t2p_cycles = cost;
            ctl.add_cycles_all(cost);
            self.tracer.span(
                "tmi.repair.t2p",
                "repair",
                GLOBAL_TID,
                ctl.now(),
                cost,
                &[("threads", tids.len() as u64)],
            );
            self.phases.add(Phase::Arm, cost);
        }
        self.stats.repair_rounds += 1;

        let mut targets: BTreeSet<Vpn> = BTreeSet::new();
        for &vpn in pages {
            if layout.huge_pages {
                let base = vpn.huge_base();
                for i in 0..FRAMES_PER_HUGE_PAGE {
                    targets.insert(Vpn(base.0 + i));
                }
            } else {
                targets.insert(vpn);
            }
        }
        for vpn in targets {
            if self.protected.contains(&vpn) {
                continue;
            }
            let mut armed: Vec<AsId> = Vec::new();
            let mut failed = false;
            for &tid in &tids {
                let aspace = ctl.kernel().thread_aspace(tid);
                if armed.contains(&aspace) {
                    continue;
                }
                match self.protect_retrying(ctl, tid, aspace, vpn, cfg) {
                    Ok(()) => armed.push(aspace),
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
            if failed {
                // A page armed in some processes but not all would buffer
                // writes asymmetrically; give it back everywhere instead.
                for aspace in armed {
                    let _ = ctl.kernel().unprotect_page(aspace, vpn);
                }
                self.stats.pages_degraded += 1;
                self.tracer.instant(
                    "tmi.repair.degrade_page",
                    "repair",
                    GLOBAL_TID,
                    ctl.now(),
                    &[("vpn", vpn.0)],
                );
            } else {
                self.protected.insert(vpn);
                self.tracer.instant(
                    "tmi.repair.arm_page",
                    "repair",
                    GLOBAL_TID,
                    ctl.now(),
                    &[("vpn", vpn.0)],
                );
            }
        }
    }

    /// Records the twin for a page that just COW-broke, if we armed it.
    /// `first` and `pages` come from the fault resolution (512 for a huge
    /// break).
    ///
    /// A twin snapshot is an allocation and can fail (injected); on
    /// persistent failure the page is degraded to shared mode, which is
    /// safe because the just-broken private copy is still byte-identical
    /// to shared memory — nothing has been buffered yet.
    pub fn on_cow(
        &mut self,
        ctl: &mut dyn EngineCtl,
        tid: Tid,
        first: Vpn,
        pages: u64,
        cfg: &TmiConfig,
        layout: &AppLayout,
    ) {
        let aspace = ctl.kernel().thread_aspace(tid);
        for i in 0..pages {
            let vpn = Vpn(first.0 + i);
            if !self.protected.contains(&vpn) {
                continue;
            }
            let mut attempt = 0u32;
            loop {
                let fail = self
                    .faults
                    .as_ref()
                    .is_some_and(|f| f.should_fail(FaultPoint::TwinAlloc));
                if !fail {
                    self.twins.snapshot(ctl.kernel(), aspace, vpn);
                    self.tracer.instant(
                        "tmi.repair.twin",
                        "repair",
                        u64::from(tid.0),
                        ctl.now(),
                        &[("vpn", vpn.0)],
                    );
                    if attempt > 0 {
                        self.stats.transient_recoveries += 1;
                    }
                    break;
                }
                if attempt < cfg.repair_retry_limit {
                    attempt += 1;
                    self.stats.retries += 1;
                    let backoff = cfg.retry_backoff(attempt);
                    ctl.add_cycles(tid, backoff);
                    self.phases.add(Phase::FaultHandling, backoff);
                } else {
                    self.degrade_page(ctl, cfg, layout, vpn);
                    break;
                }
            }
        }
    }

    /// Converts one thread, retrying transient failures with backoff.
    /// Records the original pid so rollback/revert can rejoin.
    fn convert_retrying(
        &mut self,
        ctl: &mut dyn EngineCtl,
        tid: Tid,
        cfg: &TmiConfig,
    ) -> Result<(), OsError> {
        let old_pid = ctl.kernel().thread(tid).pid;
        let mut attempt = 0u32;
        loop {
            match ctl.kernel().convert_thread_to_process(tid) {
                Ok(_) => {
                    self.converted.push((tid, old_pid));
                    if attempt > 0 {
                        self.stats.transient_recoveries += 1;
                    }
                    return Ok(());
                }
                // The root process keeps its (unscheduled) main thread, so
                // every worker can convert; a sole-thread error means the
                // workload had one thread and conversion is moot.
                Err(OsError::AlreadyConverted { .. }) => return Ok(()),
                Err(e) if e.is_transient() && attempt < cfg.repair_retry_limit => {
                    attempt += 1;
                    self.stats.retries += 1;
                    let backoff = cfg.retry_backoff(attempt);
                    ctl.add_cycles(tid, backoff);
                    self.phases.add(Phase::Arm, backoff);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Arms COW protection for one page in one address space, retrying
    /// transient failures with backoff (charged to `tid`).
    fn protect_retrying(
        &mut self,
        ctl: &mut dyn EngineCtl,
        tid: Tid,
        aspace: AsId,
        vpn: Vpn,
        cfg: &TmiConfig,
    ) -> Result<(), OsError> {
        let mut attempt = 0u32;
        loop {
            match ctl.kernel().protect_page_cow(aspace, vpn) {
                Ok(()) => {
                    if attempt > 0 {
                        self.stats.transient_recoveries += 1;
                    }
                    return Ok(());
                }
                Err(e) if e.is_transient() && attempt < cfg.repair_retry_limit => {
                    attempt += 1;
                    self.stats.retries += 1;
                    let backoff = cfg.retry_backoff(attempt);
                    ctl.add_cycles(tid, backoff);
                    self.phases.add(Phase::Arm, backoff);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Gives one page back to shared memory in every process: commits its
    /// dirty twins first (losing a buffered byte is never safe), then
    /// unprotects it everywhere and forgets it. Used when arming,
    /// twinning or re-arming the page fails persistently.
    pub fn degrade_page(
        &mut self,
        ctl: &mut dyn EngineCtl,
        cfg: &TmiConfig,
        layout: &AppLayout,
        vpn: Vpn,
    ) {
        if !self.protected.remove(&vpn) {
            return;
        }
        self.tracer.instant(
            "tmi.repair.degrade_page",
            "repair",
            GLOBAL_TID,
            ctl.now(),
            &[("vpn", vpn.0)],
        );
        let tids = ctl.tids();
        let mut seen: Vec<AsId> = Vec::new();
        for &tid in &tids {
            let aspace = ctl.kernel().thread_aspace(tid);
            if seen.contains(&aspace) {
                continue;
            }
            seen.push(aspace);
            if self.twins.has_twin(aspace, vpn) {
                match self.twins.commit_page(
                    ctl.kernel(),
                    aspace,
                    vpn,
                    &cfg.commit,
                    layout.huge_pages,
                ) {
                    Ok(pc) => {
                        self.stats.committed_pages += 1;
                        self.stats.bytes_merged += pc.bytes_merged;
                        self.stats.commit_cycles += pc.cycles;
                        ctl.add_cycles(tid, pc.cycles);
                        self.phases.add(Phase::Merge, pc.cycles);
                    }
                    Err(_) => {
                        // Twin without a private frame: nothing buffered.
                        self.twins.discard_page(aspace, vpn);
                    }
                }
            }
            // Fault-point-free: the governor can always hand pages back.
            let _ = ctl.kernel().unprotect_page(aspace, vpn);
        }
        self.stats.pages_degraded += 1;
    }

    /// Undoes repair entirely: flushes every buffered page, unprotects
    /// everything, rejoins isolated threads into their original processes.
    fn dismantle(&mut self, ctl: &mut dyn EngineCtl, cfg: &TmiConfig, layout: &AppLayout) {
        let tids = ctl.tids();
        // Flush first — an early commit is always safe, a lost byte never.
        for &tid in &tids {
            let cycles = self.commit_thread(ctl, tid, cfg, layout);
            ctl.add_cycles(tid, cycles);
        }
        let mut aspaces: Vec<AsId> = Vec::new();
        for &tid in &tids {
            let a = ctl.kernel().thread_aspace(tid);
            if !aspaces.contains(&a) {
                aspaces.push(a);
            }
        }
        for &vpn in &std::mem::take(&mut self.protected) {
            for &a in &aspaces {
                let _ = ctl.kernel().unprotect_page(a, vpn);
            }
        }
        // Safety net: no twin may survive the flush above.
        for &a in &aspaces {
            self.twins.discard_aspace(a);
        }
        for (tid, pid) in std::mem::take(&mut self.converted) {
            let _ = ctl.kernel().rejoin_thread(tid, pid);
        }
    }

    /// Rolls repair back after a persistent conversion failure.
    fn rollback(&mut self, ctl: &mut dyn EngineCtl, cfg: &TmiConfig, layout: &AppLayout) {
        self.dismantle(ctl, cfg, layout);
        self.state = GovernorState::Aborted;
        self.stats.rollbacks += 1;
        ctl.add_cycles_all(cfg.stop_world_cycles);
        self.tracer
            .instant("tmi.repair.rollback", "repair", GLOBAL_TID, ctl.now(), &[]);
        self.phases.add(Phase::Merge, cfg.stop_world_cycles);
    }

    /// Reverts an active repair because its commit overhead exceeded the
    /// efficacy threshold. No-op unless the governor is
    /// [`GovernorState::Active`].
    pub fn revert(&mut self, ctl: &mut dyn EngineCtl, cfg: &TmiConfig, layout: &AppLayout) {
        if self.state != GovernorState::Active {
            return;
        }
        self.dismantle(ctl, cfg, layout);
        self.state = GovernorState::Reverted;
        self.stats.efficacy_reverts += 1;
        ctl.add_cycles_all(cfg.stop_world_cycles);
        self.tracer
            .instant("tmi.repair.revert", "repair", GLOBAL_TID, ctl.now(), &[]);
        self.phases.add(Phase::Merge, cfg.stop_world_cycles);
    }

    /// Accounts one engine-level retry of a transiently-failed fault
    /// (charged by the engine via the backoff return of `on_fault_error`).
    pub fn note_retry(&mut self) {
        self.stats.retries += 1;
    }

    /// Accounts an engine-level fault that succeeded after retrying.
    pub fn note_recovery(&mut self) {
        self.stats.transient_recoveries += 1;
    }

    /// True if `tid`'s process has buffered (uncommitted) pages.
    pub fn has_dirty(&self, ctl: &mut dyn EngineCtl, tid: Tid) -> bool {
        let aspace = ctl.kernel().thread_aspace(tid);
        self.twins.has_dirty(aspace)
    }

    /// Commits every dirty page of `tid`'s process: the PTSB flush at a
    /// synchronization operation. Returns the cycles it cost.
    pub fn commit_thread(
        &mut self,
        ctl: &mut dyn EngineCtl,
        tid: Tid,
        cfg: &TmiConfig,
        layout: &AppLayout,
    ) -> u64 {
        let aspace = ctl.kernel().thread_aspace(tid);
        let dirty = self.twins.dirty_pages(aspace);
        if dirty.is_empty() {
            return 0;
        }
        let commit_start = ctl.now();
        let mut pages_this_commit = 0u64;
        let mut cycles = 0;
        let mut degrade: Vec<Vpn> = Vec::new();
        for vpn in dirty {
            match self
                .twins
                .commit_page(ctl.kernel(), aspace, vpn, &cfg.commit, layout.huge_pages)
            {
                Ok(pc) => {
                    cycles += pc.cycles;
                    self.stats.bytes_merged += pc.bytes_merged;
                    self.stats.committed_pages += 1;
                    pages_this_commit += 1;
                    if !pc.rearmed {
                        // The merge landed but the re-protect faulted;
                        // retry the arming, degrading the page if the
                        // failure is persistent.
                        if self.protect_retrying(ctl, tid, aspace, vpn, cfg).is_err() {
                            degrade.push(vpn);
                        }
                    }
                }
                Err(_) => {
                    // Twin without a private frame cannot arise from the
                    // engine's fault path; drop it rather than buffer it
                    // forever.
                    self.twins.discard_page(aspace, vpn);
                }
            }
        }
        for vpn in degrade {
            self.degrade_page(ctl, cfg, layout, vpn);
        }
        self.stats.commits += 1;
        self.stats.commit_cycles += cycles;
        self.tracer.span(
            "tmi.repair.commit",
            "repair",
            u64::from(tid.0),
            commit_start,
            cycles,
            &[("pages", pages_this_commit)],
        );
        self.phases.add(Phase::Commit, cycles);
        cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmi_machine::{VAddr, Width, FRAME_SIZE};
    use tmi_os::{Kernel, MapRequest, ObjId};
    use tmi_program::CodeRegistry;

    /// A minimal EngineCtl for unit-testing the manager without a full
    /// engine.
    struct FakeCtl {
        kernel: Kernel,
        tids: Vec<Tid>,
        code: CodeRegistry,
        cycles_added: u64,
    }

    impl EngineCtl for FakeCtl {
        fn kernel(&mut self) -> &mut Kernel {
            &mut self.kernel
        }
        fn tids(&self) -> Vec<Tid> {
            self.tids.clone()
        }
        fn add_cycles(&mut self, _tid: Tid, cycles: u64) {
            self.cycles_added += cycles;
        }
        fn add_cycles_all(&mut self, cycles: u64) {
            self.cycles_added += cycles;
        }
        fn now(&self) -> u64 {
            12345
        }
        fn code(&self) -> &CodeRegistry {
            &self.code
        }
    }

    fn setup(threads: usize) -> (FakeCtl, AppLayout) {
        let mut kernel = Kernel::new();
        let obj = kernel.create_object(16 * FRAME_SIZE);
        let internal = kernel.create_object(FRAME_SIZE);
        let aspace = kernel.create_aspace();
        let base = VAddr::new(0x10000);
        kernel
            .map(aspace, MapRequest::object(base, 16 * FRAME_SIZE, obj, 0))
            .unwrap();
        kernel
            .map(
                aspace,
                MapRequest::object(VAddr::new(0x80_0000), FRAME_SIZE, internal, 0),
            )
            .unwrap();
        let (pid, _main) = kernel.create_process(aspace);
        let tids: Vec<Tid> = (0..threads).map(|_| kernel.spawn_thread(pid)).collect();
        let layout = AppLayout {
            app_obj: obj,
            app_start: base,
            app_len: 16 * FRAME_SIZE,
            internal_obj: ObjId(1),
            internal_start: VAddr::new(0x80_0000),
            internal_len: FRAME_SIZE,
            huge_pages: false,
        };
        (
            FakeCtl {
                kernel,
                tids,
                code: CodeRegistry::new(),
                cycles_added: 0,
            },
            layout,
        )
    }

    #[test]
    fn trigger_converts_threads_and_protects_pages() {
        let (mut ctl, layout) = setup(2);
        let cfg = TmiConfig::default();
        let mut rm = RepairManager::new();
        let hot = VAddr::new(0x10000).vpn();
        rm.trigger(&mut ctl, &cfg, &layout, &[hot]);

        assert!(rm.active());
        assert!(rm.is_protected(hot));
        assert_eq!(ctl.kernel.stats().conversions, 2);
        assert!(ctl.cycles_added >= cfg.t2p_cycles_per_thread * 2);
        // Both processes have the page armed.
        let tids = ctl.tids();
        for tid in tids {
            let a = ctl.kernel.thread_aspace(tid);
            assert!(ctl.kernel.translate(a, hot.base(), true).is_err());
        }
        assert_eq!(rm.stats().converted_at_cycle, Some(12345));
    }

    #[test]
    fn second_trigger_only_adds_pages() {
        let (mut ctl, layout) = setup(2);
        let cfg = TmiConfig::default();
        let mut rm = RepairManager::new();
        rm.trigger(&mut ctl, &cfg, &layout, &[VAddr::new(0x10000).vpn()]);
        let conversions = ctl.kernel.stats().conversions;
        rm.trigger(&mut ctl, &cfg, &layout, &[VAddr::new(0x11000).vpn()]);
        assert_eq!(ctl.kernel.stats().conversions, conversions, "no re-convert");
        assert_eq!(rm.protected_pages(), 2);
        assert_eq!(rm.stats().repair_rounds, 2);
    }

    #[test]
    fn cow_snapshot_and_commit_roundtrip() {
        let (mut ctl, layout) = setup(2);
        let cfg = TmiConfig::default();
        let mut rm = RepairManager::new();
        let base = VAddr::new(0x10000);
        ctl.kernel
            .force_write(ctl.tids[0].into_aspace(&ctl.kernel), base, Width::W8, 1)
            .unwrap();
        rm.trigger(&mut ctl, &cfg, &layout, &[base.vpn()]);

        let t0 = ctl.tids[0];
        let a0 = ctl.kernel.thread_aspace(t0);
        // Simulate the engine's fault path: break COW, notify, write.
        ctl.kernel.handle_fault(a0, base, true).unwrap();
        rm.on_cow(&mut ctl, t0, base.vpn(), 1, &cfg, &layout);
        assert!(rm.has_dirty(&mut ctl, t0));
        ctl.kernel.force_write(a0, base, Width::W8, 42).unwrap();

        let cycles = rm.commit_thread(&mut ctl, t0, &cfg, &layout);
        assert!(cycles > 0);
        assert!(!rm.has_dirty(&mut ctl, t0));
        assert_eq!(rm.stats().commits, 1);
        assert!(rm.stats().bytes_merged >= 1);
        // The other process sees the committed value through shared memory.
        let t1 = ctl.tids[1];
        let a1 = ctl.kernel.thread_aspace(t1);
        assert_eq!(ctl.kernel.force_read(a1, base, Width::W8).unwrap(), 42);
    }

    #[test]
    fn commit_without_dirty_pages_is_free() {
        let (mut ctl, layout) = setup(1);
        let cfg = TmiConfig::default();
        let mut rm = RepairManager::new();
        let t0 = ctl.tids[0];
        assert_eq!(rm.commit_thread(&mut ctl, t0, &cfg, &layout), 0);
        assert_eq!(rm.stats().commits, 0);
    }

    // ------------------------------------------------------------------
    // Governor state machine under scripted fault schedules.
    // ------------------------------------------------------------------

    use crate::runtime::TmiRuntime;
    use tmi_faultpoint::{FaultPlan, PointPlan};
    use tmi_sim::{RuntimeHooks, SyncEvent};

    /// Installs one scripted injector on both the kernel (fork, mprotect,
    /// frame-alloc points) and the manager (twin-snapshot point).
    fn inject(ctl: &mut FakeCtl, rm: &mut RepairManager, plan: FaultPlan) -> FaultInjector {
        let inj = FaultInjector::new(plan);
        ctl.kernel.set_fault_injector(inj.clone());
        rm.set_fault_injector(inj.clone());
        inj
    }

    #[test]
    fn fork_transient_failure_retries_then_succeeds() {
        let (mut ctl, layout) = setup(2);
        let cfg = TmiConfig::default();
        let mut rm = RepairManager::new();
        // Fork roll 1 (thread 0) succeeds, roll 2 (thread 1) fails once,
        // roll 3 (thread 1's retry) succeeds.
        let inj = inject(
            &mut ctl,
            &mut rm,
            FaultPlan::quiet().with(FaultPoint::Fork, PointPlan::transient(2, 1)),
        );
        rm.trigger(&mut ctl, &cfg, &layout, &[VAddr::new(0x10000).vpn()]);

        assert_eq!(rm.state(), GovernorState::Active);
        assert_eq!(ctl.kernel.stats().conversions, 2);
        assert_eq!(rm.stats().retries, 1);
        assert_eq!(rm.stats().transient_recoveries, 1);
        assert_eq!(rm.stats().rollbacks, 0);
        assert_eq!(inj.stats().get(FaultPoint::Fork).fired, 1);
        // The backoff was charged in simulated cycles.
        assert!(ctl.cycles_added >= cfg.retry_backoff(1));
    }

    #[test]
    fn fork_exhaustion_rolls_back_and_governor_stays_down() {
        let (mut ctl, layout) = setup(2);
        let cfg = TmiConfig::default();
        let mut rm = RepairManager::new();
        let base = VAddr::new(0x10000);
        let t0 = ctl.tids[0];
        let home_pid = ctl.kernel.thread(t0).pid;
        let home_aspace = ctl.kernel.thread_aspace(t0);
        ctl.kernel
            .force_write(home_aspace, base, Width::W8, 1)
            .unwrap();
        let frames_before = ctl.kernel.physmem().allocated_frames();
        // Fork works once (thread 0), then latches persistent: thread 1's
        // conversion exhausts its retry budget and the governor rolls back.
        inject(
            &mut ctl,
            &mut rm,
            FaultPlan::quiet().with(FaultPoint::Fork, PointPlan::persistent_after(2, 1)),
        );
        rm.trigger(&mut ctl, &cfg, &layout, &[base.vpn()]);

        assert_eq!(rm.state(), GovernorState::Aborted);
        assert!(!rm.active());
        assert_eq!(rm.stats().rollbacks, 1);
        assert_eq!(rm.stats().retries, cfg.repair_retry_limit as u64);
        assert_eq!(
            rm.protected_pages(),
            0,
            "no page stays armed after rollback"
        );
        // The one converted thread was rejoined into its original process.
        assert_eq!(ctl.kernel.stats().conversions, 1);
        assert_eq!(ctl.kernel.stats().rejoins, 1);
        assert_eq!(ctl.kernel.thread(t0).pid, home_pid);
        assert_eq!(ctl.kernel.thread_aspace(t0), home_aspace);
        // Every frame the aborted repair touched came back.
        assert_eq!(ctl.kernel.physmem().allocated_frames(), frames_before);

        // Double trigger: after an abort the governor stays down.
        rm.trigger(&mut ctl, &cfg, &layout, &[VAddr::new(0x11000).vpn()]);
        assert_eq!(rm.state(), GovernorState::Aborted);
        assert_eq!(rm.stats().repair_rounds, 0);
        assert_eq!(ctl.kernel.stats().conversions, 1, "no further conversions");
        assert_eq!(rm.protected_pages(), 0);
        assert_eq!(rm.stats().rollbacks, 1, "re-trigger does not re-roll-back");
    }

    #[test]
    fn persistent_arming_failure_degrades_the_page() {
        let (mut ctl, layout) = setup(2);
        let cfg = TmiConfig::default();
        let mut rm = RepairManager::new();
        let hot = VAddr::new(0x10000).vpn();
        let root = ctl.kernel.thread_aspace(ctl.tids[0]);
        ctl.kernel
            .force_write(root, hot.base(), Width::W8, 1)
            .unwrap();
        // mprotect fails on every roll: the page can never be armed.
        inject(
            &mut ctl,
            &mut rm,
            FaultPlan::quiet().with(FaultPoint::ProtectPage, PointPlan::persistent_after(1, 1)),
        );
        rm.trigger(&mut ctl, &cfg, &layout, &[hot]);

        // Conversion still succeeded; only the page degraded to shared mode.
        assert_eq!(rm.state(), GovernorState::Active);
        assert_eq!(ctl.kernel.stats().conversions, 2);
        assert!(!rm.is_protected(hot));
        assert_eq!(rm.protected_pages(), 0);
        assert_eq!(rm.stats().pages_degraded, 1);
        assert_eq!(rm.stats().retries, cfg.repair_retry_limit as u64);
        // Writes through the unarmed page reach shared memory directly.
        let a0 = ctl.kernel.thread_aspace(ctl.tids[0]);
        let a1 = ctl.kernel.thread_aspace(ctl.tids[1]);
        ctl.kernel
            .force_write(a0, hot.base(), Width::W8, 7)
            .unwrap();
        assert_eq!(ctl.kernel.force_read(a1, hot.base(), Width::W8).unwrap(), 7);
    }

    #[test]
    fn persistent_twin_failure_degrades_on_cow() {
        let (mut ctl, layout) = setup(2);
        let cfg = TmiConfig::default();
        let mut rm = RepairManager::new();
        let base = VAddr::new(0x10000);
        let root = ctl.kernel.thread_aspace(ctl.tids[0]);
        ctl.kernel.force_write(root, base, Width::W8, 1).unwrap();
        inject(
            &mut ctl,
            &mut rm,
            FaultPlan::quiet().with(FaultPoint::TwinAlloc, PointPlan::persistent_after(1, 1)),
        );
        rm.trigger(&mut ctl, &cfg, &layout, &[base.vpn()]);
        let frames_armed = ctl.kernel.physmem().allocated_frames();

        let t0 = ctl.tids[0];
        let a0 = ctl.kernel.thread_aspace(t0);
        ctl.kernel.handle_fault(a0, base, true).unwrap();
        rm.on_cow(&mut ctl, t0, base.vpn(), 1, &cfg, &layout);

        // No twin could be taken, so the page degraded to shared mode —
        // safe, because the private copy held nothing buffered yet.
        assert_eq!(rm.state(), GovernorState::Active);
        assert!(!rm.is_protected(base.vpn()));
        assert_eq!(rm.stats().pages_degraded, 1);
        assert_eq!(rm.stats().retries, cfg.repair_retry_limit as u64);
        assert_eq!(rm.twins().current_bytes(), 0);
        assert!(!rm.has_dirty(&mut ctl, t0));
        // The orphaned private frame was freed with the degrade.
        assert_eq!(ctl.kernel.physmem().allocated_frames(), frames_armed);
        // Writes are immediately globally visible again.
        ctl.kernel.force_write(a0, base, Width::W8, 9).unwrap();
        let a1 = ctl.kernel.thread_aspace(ctl.tids[1]);
        assert_eq!(ctl.kernel.force_read(a1, base, Width::W8).unwrap(), 9);
    }

    #[test]
    fn revert_flushes_buffered_bytes_and_returns_all_memory() {
        let (mut ctl, layout) = setup(2);
        let cfg = TmiConfig::default();
        let mut rm = RepairManager::new();
        let base = VAddr::new(0x10000);
        let t0 = ctl.tids[0];
        let home_pid = ctl.kernel.thread(t0).pid;
        let home_aspace = ctl.kernel.thread_aspace(t0);
        ctl.kernel
            .force_write(home_aspace, base, Width::W8, 1)
            .unwrap();
        let frames_before = ctl.kernel.physmem().allocated_frames();

        rm.trigger(&mut ctl, &cfg, &layout, &[base.vpn()]);
        let a0 = ctl.kernel.thread_aspace(t0);
        ctl.kernel.handle_fault(a0, base, true).unwrap();
        rm.on_cow(&mut ctl, t0, base.vpn(), 1, &cfg, &layout);
        ctl.kernel.force_write(a0, base, Width::W8, 42).unwrap();
        assert!(rm.has_dirty(&mut ctl, t0));
        assert!(ctl.kernel.physmem().allocated_frames() > frames_before);
        assert!(rm.twins().current_bytes() > 0);

        rm.revert(&mut ctl, &cfg, &layout);

        assert_eq!(rm.state(), GovernorState::Reverted);
        assert_eq!(rm.stats().efficacy_reverts, 1);
        // The buffered byte was committed, not lost.
        assert!(rm.stats().bytes_merged >= 1);
        assert_eq!(
            ctl.kernel.force_read(home_aspace, base, Width::W8).unwrap(),
            42
        );
        // Threads are back in their original process and address space.
        assert_eq!(ctl.kernel.thread(t0).pid, home_pid);
        assert_eq!(ctl.kernel.thread_aspace(t0), home_aspace);
        assert_eq!(ctl.kernel.stats().rejoins, 2);
        // Every private frame and twin buffer came back: counters return
        // to their pre-repair values.
        assert_eq!(rm.protected_pages(), 0);
        assert_eq!(rm.twins().current_bytes(), 0);
        assert_eq!(ctl.kernel.physmem().allocated_frames(), frames_before);

        // Revert is idempotent and the governor stays down for good.
        rm.revert(&mut ctl, &cfg, &layout);
        assert_eq!(rm.stats().efficacy_reverts, 1);
        rm.trigger(&mut ctl, &cfg, &layout, &[base.vpn()]);
        assert_eq!(rm.state(), GovernorState::Reverted);
        assert_eq!(
            ctl.kernel.stats().conversions,
            2,
            "no re-conversion after revert"
        );
    }

    #[test]
    fn efficacy_monitor_reverts_via_on_tick() {
        let (mut ctl, layout) = setup(2);
        let cfg = TmiConfig {
            // Any commit overhead at all in a window trips the monitor.
            efficacy_revert_threshold: 0.0,
            ..TmiConfig::default()
        };
        let mut rt = TmiRuntime::new(cfg, layout);
        let base = VAddr::new(0x10000);
        let t0 = ctl.tids[0];
        let root = ctl.kernel.thread_aspace(t0);
        ctl.kernel.force_write(root, base, Width::W8, 1).unwrap();

        rt.force_repair(&mut ctl, &[base.vpn()]);
        assert!(rt.observe().repair().active());
        let a0 = ctl.kernel.thread_aspace(t0);
        let res = ctl.kernel.handle_fault(a0, base, true).unwrap();
        rt.on_fault(&mut ctl, t0, &res);
        ctl.kernel.force_write(a0, base, Width::W8, 42).unwrap();
        // A sync operation flushes the PTSB, accruing commit cycles.
        assert!(rt.on_sync(&mut ctl, t0, SyncEvent::MutexUnlock(base)) > 0);

        rt.on_tick(&mut ctl, 1_000_000);
        assert_eq!(rt.observe().repair().state(), GovernorState::Reverted);
        assert_eq!(rt.observe().repair().stats().efficacy_reverts, 1);
        assert_eq!(ctl.kernel.force_read(root, base, Width::W8).unwrap(), 42);
        // Later ticks are no-ops for the monitor.
        rt.on_tick(&mut ctl, 2_000_000);
        assert_eq!(rt.observe().repair().stats().efficacy_reverts, 1);
    }

    // ------------------------------------------------------------------
    // Governor transitions driven through the VM-op litmus vocabulary
    // (the transistency campaigns' mid-schedule repair forcing).
    // ------------------------------------------------------------------

    use tmi_os::FaultResolution;
    use tmi_program::VmOp;

    #[test]
    fn vm_t2p_denied_by_fork_mid_schedule_rolls_back_byte_for_byte() {
        let (mut ctl, layout) = setup(2);
        let mut rt = TmiRuntime::new(TmiConfig::default(), layout);
        let base = VAddr::new(0x10000);
        let t0 = ctl.tids[0];
        let home_pid = ctl.kernel.thread(t0).pid;
        let home_aspace = ctl.kernel.thread_aspace(t0);
        ctl.kernel
            .force_write(home_aspace, base, Width::W8, 11)
            .unwrap();
        let frames_before = ctl.kernel.physmem().allocated_frames();

        // Every fork is vetoed: the schedule's T2P op exhausts the retry
        // budget mid-conversion and the governor must roll back.
        let inj = FaultInjector::new(
            FaultPlan::quiet().with(FaultPoint::Fork, PointPlan::persistent_after(1, 1)),
        );
        ctl.kernel.set_fault_injector(inj.clone());
        rt.set_fault_injector(inj);

        assert_eq!(
            rt.on_vm_op(&mut ctl, t0, VmOp::T2p, base),
            0,
            "denied conversion reports the page unprotected"
        );
        assert_eq!(rt.observe().repair().state(), GovernorState::Aborted);
        assert_eq!(rt.observe().repair().stats().rollbacks, 1);
        assert_eq!(rt.observe().repair().protected_pages(), 0);
        assert_eq!(rt.observe().repair().twins().current_bytes(), 0);
        assert_eq!(
            ctl.kernel.physmem().allocated_frames(),
            frames_before,
            "aborted conversion must return every frame"
        );
        assert_eq!(ctl.kernel.thread(t0).pid, home_pid);
        assert_eq!(ctl.kernel.thread_aspace(t0), home_aspace);
        assert_eq!(
            ctl.kernel.force_read(home_aspace, base, Width::W8).unwrap(),
            11,
            "pre-repair memory contents survive the rollback byte-for-byte"
        );

        // The rest of the schedule's VM ops land on a downed governor:
        // all benign no-ops (bar the unconditional shootdown), no
        // resurrection, no leaked frames or twins.
        assert_eq!(rt.on_vm_op(&mut ctl, t0, VmOp::Mprotect, base), 0);
        assert_eq!(rt.on_vm_op(&mut ctl, t0, VmOp::TwinCommit, base), 0);
        assert_eq!(rt.on_vm_op(&mut ctl, t0, VmOp::CowBreak, base), 0);
        assert_eq!(rt.on_vm_op(&mut ctl, t0, VmOp::Shootdown, base), 1);
        assert_eq!(rt.observe().repair().state(), GovernorState::Aborted);
        assert_eq!(rt.observe().repair().stats().rollbacks, 1);
        assert_eq!(rt.observe().repair().twins().current_bytes(), 0);
        assert_eq!(ctl.kernel.physmem().allocated_frames(), frames_before);
    }

    #[test]
    fn seeded_fault_plans_leave_vm_schedules_in_consistent_states() {
        // The campaign convention: `FaultPlan::from_seed` schedules drive
        // a fixed VM-op sequence (T2P, COW break + write, commit, second
        // protect round); whatever the governor decides, an aborted run
        // must have restored frame and twin counters byte-for-byte.
        let (mut aborted, mut survived) = (0u32, 0u32);
        for seed in 0..200u64 {
            let (mut ctl, layout) = setup(2);
            let cfg = TmiConfig::default();
            let mut rm = RepairManager::new();
            let base = VAddr::new(0x10000);
            let t0 = ctl.tids[0];
            ctl.kernel
                .force_write(ctl.kernel.thread_aspace(t0), base, Width::W8, 5)
                .unwrap();
            let frames_before = ctl.kernel.physmem().allocated_frames();
            inject(&mut ctl, &mut rm, FaultPlan::from_seed(seed));

            rm.trigger(&mut ctl, &cfg, &layout, &[base.vpn()]);
            if rm.active() {
                let a0 = ctl.kernel.thread_aspace(t0);
                if ctl.kernel.translate(a0, base, true).is_err() {
                    if let Ok(FaultResolution::CowBroken { pages, .. }) =
                        ctl.kernel.handle_fault(a0, base, true)
                    {
                        rm.on_cow(&mut ctl, t0, base.vpn(), pages, &cfg, &layout);
                        ctl.kernel.force_write(a0, base, Width::W8, 6).unwrap();
                    }
                }
                rm.commit_thread(&mut ctl, t0, &cfg, &layout);
                rm.trigger(&mut ctl, &cfg, &layout, &[VAddr::new(0x11000).vpn()]);
            }

            if rm.state() == GovernorState::Aborted {
                aborted += 1;
                assert_eq!(rm.protected_pages(), 0, "seed {seed}");
                assert_eq!(rm.twins().current_bytes(), 0, "seed {seed}");
                assert_eq!(
                    ctl.kernel.physmem().allocated_frames(),
                    frames_before,
                    "seed {seed}: aborted repair must return every frame"
                );
            } else {
                survived += 1;
            }
            if aborted > 0 && survived > 0 && seed >= 31 {
                break;
            }
        }
        assert!(aborted > 0, "no seeded plan aborted — the sweep is vacuous");
        assert!(
            survived > 0,
            "every seeded plan aborted — the sweep is vacuous"
        );
    }

    /// Helper used in a test above.
    trait IntoAspace {
        fn into_aspace(self, k: &Kernel) -> tmi_os::AsId;
    }
    impl IntoAspace for Tid {
        fn into_aspace(self, k: &Kernel) -> tmi_os::AsId {
            k.thread_aspace(self)
        }
    }
}
