//! A Plastic-style comparator (Nanavati et al., EuroSys '13), as
//! characterized in §2 and Table 1 of the TMI paper.
//!
//! Plastic detects contention with (non-PEBS) HITM counters and repairs it
//! by remapping contended *bytes* to disjoint physical locations through a
//! custom hypervisor mapping plus dynamic binary instrumentation of the
//! code that touches them. We could not base this on Plastic's source
//! (never released; the paper notes "We were unable to obtain Plastic's
//! source code for a direct comparison"), so this model reproduces its
//! *reported characteristics*: ≈6 % baseline overhead from the
//! virtualization layer, and repair that captures only about a third of
//! the manual-fix benefit because every instrumented access pays a DBI
//! translation tax.

use std::collections::HashSet;

use tmi::{AppLayout, DetectionLoop, SharingKind, FS_THRESHOLD_PER_SEC};
use tmi_machine::{AccessOutcome, LINE_SIZE};
use tmi_os::Tid;
use tmi_perf::PerfConfig;
use tmi_sim::{AccessInfo, EngineCtl, PreAccess, Route, RuntimeHooks};

/// Hypervisor/virtualization overhead in hundredths of a cycle charged per
/// memory access (6 % ≈ 0.3 cycles on a ~5-cycle average access).
const BASE_OVERHEAD_X100: u64 = 55;
/// DBI emulation cycles per access to a remapped line.
const REMAP_ACCESS_CYCLES: u64 = 95;

/// Plastic-style runtime statistics.
#[derive(Clone, Debug, Default)]
pub struct PlasticStats {
    /// Lines remapped at byte granularity.
    pub remapped_lines: usize,
    /// Accesses that went through the DBI remap path.
    pub remapped_accesses: u64,
}

impl tmi_telemetry::MetricSource for PlasticStats {
    fn metrics(&self, out: &mut tmi_telemetry::MetricSink) {
        out.u64("remapped_lines", self.remapped_lines as u64);
        out.u64("remapped_accesses", self.remapped_accesses);
    }
}

/// The Plastic-style runtime.
#[derive(Debug)]
pub struct PlasticRuntime {
    detection: DetectionLoop,
    remapped: HashSet<u64>,
    overhead_acc: u64,
    stats: PlasticStats,
}

impl PlasticRuntime {
    /// Creates a Plastic-style runtime over the given layout, sampling its
    /// HITM counters with `perf`.
    pub fn new(perf: PerfConfig, layout: AppLayout) -> Self {
        PlasticRuntime {
            detection: DetectionLoop::new(perf, layout),
            remapped: HashSet::new(),
            overhead_acc: 0,
            stats: PlasticStats::default(),
        }
    }

    /// Runtime statistics.
    pub fn stats(&self) -> &PlasticStats {
        &self.stats
    }
}

impl tmi_telemetry::MetricSource for PlasticRuntime {
    fn metrics(&self, out: &mut tmi_telemetry::MetricSink) {
        tmi_telemetry::MetricSource::metrics(&self.stats, out);
        self.detection.metrics(out);
    }
}

impl RuntimeHooks for PlasticRuntime {
    fn on_start(&mut self, ctl: &mut dyn EngineCtl) {
        self.detection.start(ctl);
    }

    fn pre_access(&mut self, _ctl: &mut dyn EngineCtl, _tid: Tid, acc: &AccessInfo) -> PreAccess {
        // Flat virtualization overhead, accumulated in 1/100 cycles.
        self.overhead_acc += BASE_OVERHEAD_X100;
        let mut extra = self.overhead_acc / 100;
        self.overhead_acc %= 100;

        if !self.remapped.is_empty() && self.remapped.contains(&(acc.vaddr.raw() / LINE_SIZE)) {
            self.stats.remapped_accesses += 1;
            extra += REMAP_ACCESS_CYCLES;
            // Byte-granular remapping: the contended line is never touched.
            return PreAccess {
                extra_cycles: extra,
                route: Route::Uncached,
            };
        }
        PreAccess {
            extra_cycles: extra,
            route: Route::Normal,
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

    fn on_tick(&mut self, ctl: &mut dyn EngineCtl, now: u64) {
        let window = self.detection.tick(ctl, now, FS_THRESHOLD_PER_SEC);
        for r in window.reports {
            if r.kind == SharingKind::FalseSharing {
                self.remapped.insert(r.vline);
            }
        }
        self.stats.remapped_lines = self.remapped.len();
    }
}
