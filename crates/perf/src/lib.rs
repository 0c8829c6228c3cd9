#![warn(missing_docs)]

//! # tmi-perf — PEBS-style HITM sampling
//!
//! Models the Linux `perf_event_open` interface TMI uses for detection
//! (§2.1, §3.1): per-thread event buffers accumulating records of the
//! `MEM_LOAD_UOPS_LLC_HIT_RETIRED.XSNP_HITM` event, governed by a sampling
//! *period* — one record per *n* HITM events. Like the real PEBS hardware:
//!
//! * records carry the **virtual** data address and the PC, but *not*
//!   whether the access was a load or a store (the detector recovers that
//!   by disassembling the PC);
//! * store-triggered HITM events produce records at a lower rate than
//!   load-triggered ones;
//! * the data address is occasionally imprecise ("the PC in a PEBS record
//!   is more accurate than the data address"), modeled as a deterministic
//!   skid on every k-th record;
//! * capturing a record costs time on the triggering core, which is what
//!   makes small periods slow (Fig. 4).

use std::collections::HashMap;

use tmi_faultpoint::{FaultInjector, FaultPoint};
use tmi_machine::hitm::HitmKind;
use tmi_machine::VAddr;
use tmi_os::Tid;
use tmi_program::Pc;

/// Cycles charged to the triggering core per record captured (the PEBS
/// microcode assist plus buffer write).
pub const CAPTURE_CYCLES: u64 = 350;

/// Sampling configuration (the `perf_event_attr` of the simulator).
#[derive(Clone, Copy, Debug)]
pub struct PerfConfig {
    /// Sampling period: one record per `period` HITM events. The paper's
    /// experiments use 100 (§4.1); Fig. 4 sweeps {1, 5, 10, 50, 100, 1000}.
    pub period: u64,
    /// Extra period multiplier for store-triggered events.
    pub store_divisor: u64,
    /// Every `skid_every`-th record gets its data address perturbed by one
    /// word, modeling PEBS data-address imprecision. `0` disables skid.
    pub skid_every: u64,
    /// Per-thread ring-buffer capacity in records; the oldest records are
    /// dropped on overflow (the real buffer signals an interrupt; TMI's
    /// detection thread drains it, so overflow means lost records).
    pub buffer_capacity: usize,
}

impl Default for PerfConfig {
    fn default() -> Self {
        PerfConfig {
            period: 100,
            store_divisor: 4,
            skid_every: 64,
            buffer_capacity: 1 << 16,
        }
    }
}

impl PerfConfig {
    /// A config with the given sampling period and defaults elsewhere.
    pub fn with_period(period: u64) -> Self {
        PerfConfig {
            period: period.max(1),
            ..Default::default()
        }
    }
}

/// One PEBS record, as delivered to the detection thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PebsRecord {
    /// Thread whose access triggered the event.
    pub tid: Tid,
    /// PC of the triggering instruction (accurate).
    pub pc: Pc,
    /// Virtual data address (occasionally skidded).
    pub vaddr: VAddr,
}

#[derive(Debug, Default)]
struct ThreadCounter {
    loads_seen: u64,
    stores_seen: u64,
    /// (global capture sequence, record): the sequence restores true
    /// temporal order when buffers from many threads are drained together,
    /// which the detector's pairwise classification depends on.
    records: Vec<(u64, PebsRecord)>,
    dropped: u64,
}

/// The perf monitor: one HITM counter and ring buffer per thread.
///
/// ```
/// use tmi_perf::{PerfConfig, PerfMonitor};
/// use tmi_machine::{hitm::HitmKind, VAddr};
/// use tmi_os::Tid;
/// use tmi_program::Pc;
///
/// let mut m = PerfMonitor::new(PerfConfig { period: 10, skid_every: 0, ..Default::default() });
/// m.open_thread(Tid(0));
/// for _ in 0..100 {
///     m.on_hitm(Tid(0), Pc(0x400000), VAddr::new(0x1000), HitmKind::Load);
/// }
/// assert_eq!(m.records_taken(), 10); // 1-in-10 sampling
/// assert_eq!(m.events_seen(), 100);  // but every event counted
/// ```
#[derive(Debug)]
pub struct PerfMonitor {
    config: PerfConfig,
    threads: HashMap<Tid, ThreadCounter>,
    records_taken: u64,
    events_seen: u64,
    faults: Option<FaultInjector>,
    records_injected_dropped: u64,
}

impl PerfMonitor {
    /// Creates a monitor with the given sampling configuration.
    pub fn new(config: PerfConfig) -> Self {
        PerfMonitor {
            config,
            threads: HashMap::new(),
            records_taken: 0,
            events_seen: 0,
            faults: None,
            records_injected_dropped: 0,
        }
    }

    /// Installs a seeded fault schedule: each captured record rolls
    /// [`FaultPoint::PebsDrop`], and a firing roll loses the record at
    /// capture time (the microcode assist still runs — and still costs
    /// [`CAPTURE_CYCLES`] — but the buffer write is lost).
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.faults = Some(injector);
    }

    /// The sampling configuration.
    pub fn config(&self) -> &PerfConfig {
        &self.config
    }

    /// Opens the per-thread event buffer (TMI's interposed
    /// `pthread_create`, §3.1).
    pub fn open_thread(&mut self, tid: Tid) {
        self.threads.entry(tid).or_default();
    }

    /// Reports one HITM event from `tid`. Returns the cycles the record
    /// capture cost (0 if the event was merely counted).
    pub fn on_hitm(&mut self, tid: Tid, pc: Pc, vaddr: VAddr, kind: HitmKind) -> u64 {
        self.events_seen += 1;
        let cfg = self.config;
        let t = self.threads.entry(tid).or_default();
        let effective_period = match kind {
            HitmKind::Load => cfg.period,
            HitmKind::Store => cfg.period * cfg.store_divisor,
        };
        let count = match kind {
            HitmKind::Load => {
                t.loads_seen += 1;
                t.loads_seen
            }
            HitmKind::Store => {
                t.stores_seen += 1;
                t.stores_seen
            }
        };
        if count % effective_period != 0 {
            return 0;
        }
        self.records_taken += 1;
        if let Some(inj) = &self.faults {
            if inj.should_fail(FaultPoint::PebsDrop) {
                self.records_injected_dropped += 1;
                return CAPTURE_CYCLES;
            }
        }
        let vaddr = if cfg.skid_every > 0 && self.records_taken.is_multiple_of(cfg.skid_every) {
            vaddr.offset(8)
        } else {
            vaddr
        };
        if t.records.len() >= cfg.buffer_capacity {
            t.records.remove(0);
            t.dropped += 1;
        }
        t.records
            .push((self.records_taken, PebsRecord { tid, pc, vaddr }));
        CAPTURE_CYCLES
    }

    /// Drains all buffered records (the detection thread's consume pass),
    /// in capture order across threads — deterministic, and temporally
    /// faithful for the detector's consecutive-record classification.
    pub fn drain(&mut self) -> Vec<PebsRecord> {
        let mut tagged: Vec<(u64, PebsRecord)> = Vec::new();
        for t in self.threads.values_mut() {
            tagged.append(&mut t.records);
        }
        tagged.sort_unstable_by_key(|&(seq, _)| seq);
        tagged.into_iter().map(|(_, r)| r).collect()
    }

    /// Total HITM events observed (recorded or not).
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Total records captured.
    pub fn records_taken(&self) -> u64 {
        self.records_taken
    }

    /// Records dropped to buffer overflow.
    pub fn records_dropped(&self) -> u64 {
        self.threads.values().map(|t| t.dropped).sum()
    }

    /// Records lost to injected PEBS faults (capture-time drops).
    pub fn records_injected_dropped(&self) -> u64 {
        self.records_injected_dropped
    }

    /// Approximate memory footprint of the perf buffers in bytes
    /// (capacity × record size per opened thread), for Fig. 8.
    pub fn buffer_bytes(&self) -> u64 {
        (self.threads.len() * self.config.buffer_capacity * std::mem::size_of::<PebsRecord>())
            as u64
    }
}

impl tmi_telemetry::MetricSource for PerfMonitor {
    fn metrics(&self, out: &mut tmi_telemetry::MetricSink) {
        out.u64("events_seen", self.events_seen());
        out.u64("records_taken", self.records_taken());
        out.u64("records_dropped", self.records_dropped());
        out.u64("records_injected_dropped", self.records_injected_dropped());
        out.u64("buffer_bytes", self.buffer_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec_inputs() -> (Tid, Pc, VAddr) {
        (Tid(1), Pc(0x400010), VAddr::new(0x7000))
    }

    #[test]
    fn period_one_records_every_load_event() {
        let mut m = PerfMonitor::new(PerfConfig {
            period: 1,
            skid_every: 0,
            ..Default::default()
        });
        let (tid, pc, va) = rec_inputs();
        m.open_thread(tid);
        for _ in 0..10 {
            let cost = m.on_hitm(tid, pc, va, HitmKind::Load);
            assert!(cost > 0);
        }
        assert_eq!(m.records_taken(), 10);
        assert_eq!(m.drain().len(), 10);
    }

    #[test]
    fn period_n_records_one_in_n() {
        let mut m = PerfMonitor::new(PerfConfig {
            period: 10,
            skid_every: 0,
            ..Default::default()
        });
        let (tid, pc, va) = rec_inputs();
        for _ in 0..100 {
            m.on_hitm(tid, pc, va, HitmKind::Load);
        }
        assert_eq!(m.records_taken(), 10);
        assert_eq!(m.events_seen(), 100);
    }

    #[test]
    fn stores_record_at_lower_rate() {
        let cfg = PerfConfig {
            period: 10,
            store_divisor: 4,
            skid_every: 0,
            ..Default::default()
        };
        let mut m = PerfMonitor::new(cfg);
        let (tid, pc, va) = rec_inputs();
        for _ in 0..400 {
            m.on_hitm(tid, pc, va, HitmKind::Store);
        }
        assert_eq!(m.records_taken(), 10, "400 stores / (10*4) = 10 records");
    }

    #[test]
    fn skid_perturbs_every_kth_record() {
        let mut m = PerfMonitor::new(PerfConfig {
            period: 1,
            skid_every: 3,
            ..Default::default()
        });
        let (tid, pc, va) = rec_inputs();
        for _ in 0..6 {
            m.on_hitm(tid, pc, va, HitmKind::Load);
        }
        let recs = m.drain();
        let skidded = recs.iter().filter(|r| r.vaddr != va).count();
        assert_eq!(skidded, 2);
    }

    #[test]
    fn buffer_overflow_drops_oldest() {
        let mut m = PerfMonitor::new(PerfConfig {
            period: 1,
            skid_every: 0,
            buffer_capacity: 4,
            ..Default::default()
        });
        let (tid, pc, _) = rec_inputs();
        for i in 0..10u64 {
            m.on_hitm(tid, pc, VAddr::new(0x1000 + i * 64), HitmKind::Load);
        }
        let recs = m.drain();
        assert_eq!(recs.len(), 4);
        assert_eq!(m.records_dropped(), 6);
        assert_eq!(recs[0].vaddr, VAddr::new(0x1000 + 6 * 64), "oldest dropped");
        // Drained records arrive in capture order.
        for w in recs.windows(2) {
            assert!(w[0].vaddr < w[1].vaddr);
        }
    }

    #[test]
    fn per_thread_counters_are_independent() {
        let mut m = PerfMonitor::new(PerfConfig {
            period: 10,
            skid_every: 0,
            ..Default::default()
        });
        let pc = Pc(0x400000);
        let va = VAddr::new(0x9000);
        for _ in 0..9 {
            m.on_hitm(Tid(0), pc, va, HitmKind::Load);
            m.on_hitm(Tid(1), pc, va, HitmKind::Load);
        }
        assert_eq!(m.records_taken(), 0, "neither thread reached its period");
        m.on_hitm(Tid(0), pc, va, HitmKind::Load);
        assert_eq!(m.records_taken(), 1);
    }

    #[test]
    fn injected_pebs_drops_lose_records_but_still_cost_cycles() {
        use tmi_faultpoint::{FaultPlan, PointPlan};
        let mut m = PerfMonitor::new(PerfConfig {
            period: 1,
            skid_every: 0,
            ..Default::default()
        });
        // Every other captured record is dropped at capture time.
        m.set_fault_injector(FaultInjector::new(
            FaultPlan::quiet().with(FaultPoint::PebsDrop, PointPlan::transient(2, 1)),
        ));
        let (tid, pc, va) = rec_inputs();
        for _ in 0..10 {
            let cost = m.on_hitm(tid, pc, va, HitmKind::Load);
            assert!(cost > 0, "the assist runs whether or not the record lands");
        }
        assert_eq!(m.records_taken(), 10);
        assert_eq!(m.records_injected_dropped(), 5);
        assert_eq!(m.drain().len(), 5);
    }

    #[test]
    fn buffer_bytes_scales_with_threads() {
        let mut m = PerfMonitor::new(PerfConfig::default());
        assert_eq!(m.buffer_bytes(), 0);
        m.open_thread(Tid(0));
        m.open_thread(Tid(1));
        let per_thread =
            (PerfConfig::default().buffer_capacity * std::mem::size_of::<PebsRecord>()) as u64;
        assert_eq!(m.buffer_bytes(), 2 * per_thread);
    }
}
