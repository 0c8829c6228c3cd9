//! The LASER baseline (Luo et al., HPCA '16), as characterized in §2 and
//! §4.3 of the TMI paper.
//!
//! LASER detects contention with the same PEBS HITM events as TMI but
//! repairs it with a *software store buffer*: stores to contended lines are
//! emulated into a thread-private buffer and drained in batches, which
//! removes the coherence ping-pong while preserving TSO (and hence
//! single-copy atomicity). The price:
//!
//! * every access to a repaired line pays an emulation tax, so LASER
//!   "attains only 24 % of the manual speedup on the benchmarks it
//!   repairs";
//! * TSO forces a full drain at every synchronization or ordering
//!   operation, so workloads with frequent synchronization (the Boost
//!   microbenchmarks) never activate repair at all.

use std::collections::HashSet;

use tmi::{AppLayout, DetectionLoop, SharingKind, FS_THRESHOLD_PER_SEC};
use tmi_machine::{AccessOutcome, LatencyModel, VAddr, LINE_SIZE};
use tmi_os::Tid;
use tmi_perf::PerfConfig;
use tmi_sim::{AccessInfo, EngineCtl, PreAccess, RegionEvent, Route, RuntimeHooks, SyncEvent};

/// Emulation cycles per buffered store.
const STORE_EMULATION_CYCLES: u64 = 12;
/// Emulation cycles per load that must consult the store buffer.
const LOAD_CHECK_CYCLES: u64 = 6;
/// One in `DRAIN_EVERY` buffered stores performs a real coherent write
/// (the batched drain).
const DRAIN_EVERY: u64 = 32;
/// Cycles of the full ordered drain a sync or ordering fence forces: half
/// a batch of emulated stores.
const FULL_DRAIN_CYCLES: u64 = STORE_EMULATION_CYCLES * DRAIN_EVERY / 2;
/// Repair is declined when the program synchronizes more often than this
/// (events per second per thread): TSO drains would dominate.
const MAX_SYNC_RATE_FOR_REPAIR: f64 = 200_000.0;

/// LASER runtime statistics.
#[derive(Clone, Debug, Default)]
pub struct LaserStats {
    /// Lines under store-buffer repair.
    pub repaired_lines: usize,
    /// Repairs declined because the sync rate exceeded the TSO budget.
    pub repairs_declined_tso: u64,
    /// Stores emulated through the buffer.
    pub emulated_stores: u64,
    /// Full drains forced by synchronization/ordering operations.
    pub drains: u64,
}

impl tmi_telemetry::MetricSource for LaserStats {
    fn metrics(&self, out: &mut tmi_telemetry::MetricSink) {
        out.u64("repaired_lines", self.repaired_lines as u64);
        out.u64("repairs_declined_tso", self.repairs_declined_tso);
        out.u64("emulated_stores", self.emulated_stores);
        out.u64("drains", self.drains);
    }
}

/// The LASER runtime.
#[derive(Debug)]
pub struct LaserRuntime {
    detection: DetectionLoop,
    repaired: HashSet<u64>,
    store_seq: u64,
    sync_events_window: u64,
    stats: LaserStats,
}

impl LaserRuntime {
    /// Creates a LASER runtime over the given layout, sampling HITM events
    /// with `perf`.
    pub fn new(perf: PerfConfig, layout: AppLayout) -> Self {
        LaserRuntime {
            detection: DetectionLoop::new(perf, layout),
            repaired: HashSet::new(),
            store_seq: 0,
            sync_events_window: 0,
            stats: LaserStats::default(),
        }
    }

    /// Runtime statistics.
    pub fn stats(&self) -> &LaserStats {
        &self.stats
    }

    /// True once any line is under repair.
    pub fn repaired(&self) -> bool {
        !self.repaired.is_empty()
    }

    fn is_repaired(&self, addr: VAddr) -> bool {
        !self.repaired.is_empty() && self.repaired.contains(&(addr.raw() / LINE_SIZE))
    }
}

impl tmi_telemetry::MetricSource for LaserRuntime {
    fn metrics(&self, out: &mut tmi_telemetry::MetricSink) {
        tmi_telemetry::MetricSource::metrics(&self.stats, out);
        out.u64("repaired", u64::from(self.repaired()));
        self.detection.metrics(out);
    }
}

impl RuntimeHooks for LaserRuntime {
    fn on_start(&mut self, ctl: &mut dyn EngineCtl) {
        self.detection.start(ctl);
    }

    fn pre_access(&mut self, _ctl: &mut dyn EngineCtl, _tid: Tid, acc: &AccessInfo) -> PreAccess {
        if !self.is_repaired(acc.vaddr) {
            return PreAccess::default();
        }
        if acc.kind.is_write() {
            self.stats.emulated_stores += 1;
            self.store_seq += 1;
            if self.store_seq.is_multiple_of(DRAIN_EVERY) {
                // The batched drain performs a real coherent store.
                PreAccess {
                    extra_cycles: STORE_EMULATION_CYCLES,
                    route: Route::Normal,
                }
            } else {
                PreAccess {
                    extra_cycles: STORE_EMULATION_CYCLES,
                    route: Route::Uncached,
                }
            }
        } else {
            PreAccess {
                extra_cycles: LOAD_CHECK_CYCLES,
                route: Route::Normal,
            }
        }
    }

    fn post_access(
        &mut self,
        _ctl: &mut dyn EngineCtl,
        tid: Tid,
        acc: &AccessInfo,
        outcome: &AccessOutcome,
    ) -> u64 {
        self.detection.capture(tid, acc, outcome)
    }

    fn on_sync(&mut self, _ctl: &mut dyn EngineCtl, _tid: Tid, _ev: SyncEvent) -> u64 {
        self.sync_events_window += 1;
        if self.repaired.is_empty() {
            return 0;
        }
        // TSO: a sync forces a full ordered drain of the store buffer.
        self.stats.drains += 1;
        FULL_DRAIN_CYCLES
    }

    fn on_region(&mut self, _ctl: &mut dyn EngineCtl, _tid: Tid, ev: RegionEvent) -> u64 {
        // Ordering fences drain too.
        match ev {
            RegionEvent::Fence(o) if o.is_ordering() && !self.repaired.is_empty() => {
                self.stats.drains += 1;
                FULL_DRAIN_CYCLES
            }
            _ => 0,
        }
    }

    fn on_tick(&mut self, ctl: &mut dyn EngineCtl, now: u64) {
        let window = self.detection.tick(ctl, now, FS_THRESHOLD_PER_SEC);
        let threads = ctl.tids().len().max(1) as f64;
        let sync_rate =
            self.sync_events_window as f64 / threads / LatencyModel::cycles_to_secs(window.cycles);
        self.sync_events_window = 0;
        for r in window.reports {
            if r.kind != SharingKind::FalseSharing {
                continue;
            }
            if sync_rate > MAX_SYNC_RATE_FOR_REPAIR {
                // TSO consistency is too restrictive for sync-heavy code
                // (the Boost microbenchmark case, §4.3).
                self.stats.repairs_declined_tso += 1;
                continue;
            }
            self.repaired.insert(r.vline);
        }
        self.stats.repaired_lines = self.repaired.len();
    }
}
