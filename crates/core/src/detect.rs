//! The false-sharing detector (§3.1).
//!
//! Consumes PEBS records, disassembles each record's PC to recover the
//! access kind and width, and accumulates per-cache-line, per-thread byte
//! masks. A line is *falsely* shared when two threads touch **disjoint**
//! bytes of it (at least one writing) and *truly* shared when their byte
//! ranges overlap — the classification driving targeted repair.
//!
//! Following the paper, the detector:
//!
//! * filters addresses outside the monitored ranges (the `/proc/pid/maps`
//!   filter that excludes system libraries and stacks);
//! * scales record counts back to event counts by the sampling period
//!   ("Tmi assumes that if a period of n produces r records, each record
//!   corresponds to n/r actual events" — with per-kind periods, each
//!   record counts `period` (loads) or `period × store_divisor` (stores));
//! * analyzes once per detection tick and reports lines whose scaled event
//!   rate crosses the repair threshold;
//! * classifies sharing from *consecutive record pairs* on a line: "if a
//!   1-byte load to L1 followed by 1-byte store to L2 with L1 ≠ L2
//!   produces a HITM event, the false sharing detector would classify the
//!   HITM event as read-write false sharing" (§3.1). Pairwise temporal
//!   classification tolerates PEBS address skid and distinguishes a lock
//!   array (consecutive events on *different* words → false sharing) from
//!   a contended word (same word → true sharing).

use std::collections::HashMap;

use tmi_faultpoint::FaultInjector;
use tmi_machine::{AccessOutcome, LatencyModel, VAddr, LINE_SIZE};
use tmi_os::Tid;
use tmi_perf::{PebsRecord, PerfConfig, PerfMonitor};
use tmi_program::{CodeRegistry, InstrKind};
use tmi_sim::{AccessInfo, EngineCtl};

use crate::layout::AppLayout;

/// Kind of sharing diagnosed on a line.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SharingKind {
    /// Disjoint bytes from different threads, at least one writer:
    /// repairable by layout isolation.
    FalseSharing,
    /// Overlapping bytes from different threads: repair would not help
    /// (e.g. contended locks, shared counters).
    TrueSharing,
    /// Only one thread observed, or nobody writes.
    Private,
}

/// Per-thread access summary within one line: one bit per byte.
#[derive(Clone, Copy, Debug, Default)]
struct ByteMasks {
    read: u64,
    write: u64,
    events: f64,
}

/// Accumulated profile of one virtual cache line.
#[derive(Clone, Debug, Default)]
pub struct LineProfile {
    threads: HashMap<Tid, ByteMasks>,
    /// Scaled events per static instruction (for symbolized reports).
    pcs: HashMap<tmi_program::Pc, f64>,
    /// The previous record on this line: (thread, byte mask, writes).
    last: Option<(Tid, u64, bool)>,
    /// Scaled evidence for false sharing: consecutive cross-thread records
    /// touching disjoint bytes, at least one writing.
    pub fs_evidence: f64,
    /// Scaled evidence for true sharing: consecutive cross-thread records
    /// touching overlapping bytes, at least one writing.
    pub ts_evidence: f64,
    /// Scaled HITM events attributed to this line in the current window.
    pub window_events: f64,
    /// Scaled HITM events over the whole run.
    pub total_events: f64,
}

impl LineProfile {
    /// Classifies the sharing on this line from the accumulated pairwise
    /// evidence. Dominant evidence wins: a line with mostly same-word
    /// conflicts is truly shared even if occasional disjoint pairs appear
    /// (the leveldb queue, §4.2), and vice versa for lock arrays where a
    /// minority of conflicts land on the same slot (spinlockpool, §4.3).
    pub fn classify(&self) -> SharingKind {
        if self.threads.len() < 2 {
            return SharingKind::Private;
        }
        if self.fs_evidence == 0.0 && self.ts_evidence == 0.0 {
            return SharingKind::Private;
        }
        if self.fs_evidence > self.ts_evidence {
            SharingKind::FalseSharing
        } else {
            SharingKind::TrueSharing
        }
    }

    /// Number of distinct threads seen on this line.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Static instructions touching this line, hottest first, with their
    /// scaled event counts.
    pub fn top_pcs(&self) -> Vec<(tmi_program::Pc, f64)> {
        let mut v: Vec<(tmi_program::Pc, f64)> = self.pcs.iter().map(|(&p, &e)| (p, e)).collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Per-thread byte masks (read, write), for report rendering.
    pub fn thread_masks(&self) -> Vec<(Tid, u64, u64)> {
        let mut v: Vec<(Tid, u64, u64)> = self
            .threads
            .iter()
            .map(|(&t, m)| (t, m.read, m.write))
            .collect();
        v.sort_by_key(|&(t, _, _)| t);
        v
    }
}

/// One line crossing the detection threshold in a window.
#[derive(Clone, Copy, Debug)]
pub struct SharingReport {
    /// Virtual line number (virtual address / 64).
    pub vline: u64,
    /// Diagnosis.
    pub kind: SharingKind,
    /// Scaled events per second in the reporting window.
    pub events_per_sec: f64,
}

/// The detector state.
///
/// ```
/// use tmi::detect::{FalseSharingDetector, SharingKind};
/// use tmi_perf::{PebsRecord, PerfConfig};
/// use tmi_program::{CodeRegistry, InstrKind};
/// use tmi_machine::{VAddr, Width};
/// use tmi_os::Tid;
///
/// let mut code = CodeRegistry::new();
/// let st = code.instr("demo::store", InstrKind::Store, Width::W8);
/// let mut d = FalseSharingDetector::new(
///     PerfConfig { period: 1, skid_every: 0, ..Default::default() },
///     vec![(VAddr::new(0x1000), 0x1000)],
/// );
/// // Two threads' records alternate on disjoint words of one line.
/// for i in 0..10u32 {
///     d.ingest(&[PebsRecord {
///         tid: Tid(i % 2),
///         pc: st,
///         vaddr: VAddr::new(0x1000 + (i as u64 % 2) * 8),
///     }], &code);
/// }
/// let reports = d.analyze_window(1e-3, 1.0);
/// assert_eq!(reports[0].kind, SharingKind::FalseSharing);
/// ```
#[derive(Debug)]
pub struct FalseSharingDetector {
    perf: PerfConfig,
    /// Monitored address ranges (app heap/globals and the TMI-internal
    /// region); everything else is filtered like stack/syslib addresses.
    ranges: Vec<(VAddr, u64)>,
    lines: HashMap<u64, LineProfile>,
    records_ingested: u64,
    records_filtered: u64,
    records_undecodable: u64,
}

impl FalseSharingDetector {
    /// Creates a detector monitoring the given `[start, len)` ranges.
    pub fn new(perf: PerfConfig, ranges: Vec<(VAddr, u64)>) -> Self {
        FalseSharingDetector {
            perf,
            ranges,
            lines: HashMap::new(),
            records_ingested: 0,
            records_filtered: 0,
            records_undecodable: 0,
        }
    }

    fn in_ranges(&self, addr: VAddr) -> bool {
        self.ranges
            .iter()
            .any(|&(s, l)| addr >= s && addr.raw() < s.raw() + l)
    }

    /// Ingests a batch of PEBS records (one detection-thread pass).
    pub fn ingest(&mut self, records: &[PebsRecord], code: &CodeRegistry) {
        for rec in records {
            if !self.in_ranges(rec.vaddr) {
                self.records_filtered += 1;
                continue;
            }
            let Some(info) = code.disassemble(rec.pc) else {
                self.records_undecodable += 1;
                continue;
            };
            self.records_ingested += 1;
            let scale = match info.kind {
                InstrKind::Load => self.perf.period,
                InstrKind::Store => self.perf.period * self.perf.store_divisor,
                // An RMW's HITM is taken on its load half.
                InstrKind::Rmw => self.perf.period,
            } as f64;
            let vline = rec.vaddr.raw() / LINE_SIZE;
            let off = rec.vaddr.line_offset();
            let width = info.width.bytes().min(LINE_SIZE - off);
            let mask = byte_mask(off, width);
            let profile = self.lines.entry(vline).or_default();
            profile.window_events += scale;
            profile.total_events += scale;
            let writes = info.kind.writes();
            if let Some((ptid, pmask, pwrites)) = profile.last {
                if ptid != rec.tid && (writes || pwrites) {
                    if pmask & mask == 0 {
                        profile.fs_evidence += scale;
                    } else {
                        profile.ts_evidence += scale;
                    }
                }
            }
            profile.last = Some((rec.tid, mask, writes));
            *profile.pcs.entry(rec.pc).or_insert(0.0) += scale;
            let tm = profile.threads.entry(rec.tid).or_default();
            tm.events += scale;
            if info.kind.reads() {
                tm.read |= mask;
            }
            if writes {
                tm.write |= mask;
            }
        }
    }

    /// Analyzes the current window: returns every line whose scaled event
    /// rate crosses `threshold_per_sec`, then resets window counters.
    /// `window_secs` is the simulated duration since the last analysis.
    pub fn analyze_window(
        &mut self,
        window_secs: f64,
        threshold_per_sec: f64,
    ) -> Vec<SharingReport> {
        let mut out = Vec::new();
        for (&vline, profile) in &mut self.lines {
            let rate = profile.window_events / window_secs.max(1e-12);
            if rate >= threshold_per_sec {
                out.push(SharingReport {
                    vline,
                    kind: profile.classify(),
                    events_per_sec: rate,
                });
            }
            profile.window_events = 0.0;
        }
        // Rate-descending with a vline tiebreak: HashMap iteration order
        // must never leak into repair decisions (determinism).
        out.sort_by(|a, b| {
            b.events_per_sec
                .total_cmp(&a.events_per_sec)
                .then(a.vline.cmp(&b.vline))
        });
        out
    }

    /// The profile accumulated for a line, if any.
    pub fn line(&self, vline: u64) -> Option<&LineProfile> {
        self.lines.get(&vline)
    }

    /// All profiled lines sorted by total scaled events, hottest first
    /// (vline tiebreak for determinism).
    pub fn hottest_lines(&self) -> Vec<(u64, &LineProfile)> {
        let mut v: Vec<(u64, &LineProfile)> = self.lines.iter().map(|(&l, p)| (l, p)).collect();
        v.sort_by(|a, b| {
            b.1.total_events
                .total_cmp(&a.1.total_events)
                .then(a.0.cmp(&b.0))
        });
        v
    }

    /// Total scaled HITM events attributed to monitored lines.
    pub fn total_scaled_events(&self) -> f64 {
        self.lines.values().map(|l| l.total_events).sum()
    }

    /// Number of records accepted / filtered / undecodable.
    pub fn record_counts(&self) -> (u64, u64, u64) {
        (
            self.records_ingested,
            self.records_filtered,
            self.records_undecodable,
        )
    }

    /// Approximate detector memory footprint in bytes (line table plus
    /// per-thread masks), for Fig. 8.
    pub fn table_bytes(&self) -> u64 {
        let per_line = std::mem::size_of::<LineProfile>() as u64 + 16;
        let per_thread = 40u64;
        self.lines
            .values()
            .map(|l| per_line + per_thread * l.threads.len() as u64)
            .sum()
    }
}

impl tmi_telemetry::MetricSource for FalseSharingDetector {
    fn metrics(&self, out: &mut tmi_telemetry::MetricSink) {
        let (ingested, filtered, undecodable) = self.record_counts();
        out.u64("records_ingested", ingested);
        out.u64("records_filtered", filtered);
        out.u64("records_undecodable", undecodable);
        out.u64("lines_tracked", self.lines.len() as u64);
        out.u64("table_bytes", self.table_bytes());
        out.f64("total_scaled_events", self.total_scaled_events());
    }
}

/// The detection loop that TMI and the LASER and Plastic baselines share
/// (LASER detects with the same PEBS events, §2): a [`PerfMonitor`]
/// sampling HITM events on the application and internal regions, feeding
/// a [`FalseSharingDetector`] once per detection tick.
///
/// A runtime calls [`DetectionLoop::start`] from its `on_start` hook,
/// [`DetectionLoop::capture`] from `post_access` and
/// [`DetectionLoop::tick`] from `on_tick`, then acts on the reports.
#[derive(Debug)]
pub struct DetectionLoop {
    layout: AppLayout,
    perf: PerfMonitor,
    detector: FalseSharingDetector,
    last_tick: u64,
}

/// What one detection tick saw.
#[derive(Clone, Debug)]
pub struct DetectionWindow {
    /// PEBS records drained from the perf buffers.
    pub records: usize,
    /// Simulated cycles since the previous tick (at least 1).
    pub cycles: u64,
    /// Lines whose scaled HITM rate crossed the threshold, hottest first.
    pub reports: Vec<SharingReport>,
}

impl DetectionLoop {
    /// A loop sampling with `perf` and monitoring the application and
    /// internal regions of `layout`.
    pub fn new(perf: PerfConfig, layout: AppLayout) -> Self {
        let ranges = vec![
            (layout.app_start, layout.app_len),
            (layout.internal_start, layout.internal_len),
        ];
        DetectionLoop {
            layout,
            perf: PerfMonitor::new(perf),
            detector: FalseSharingDetector::new(perf, ranges),
            last_tick: 0,
        }
    }

    /// Installs a fault injector on the perf monitor's `pebs_drop` point.
    pub fn set_fault_injector(&mut self, faults: FaultInjector) {
        self.perf.set_fault_injector(faults);
    }

    /// Opens a perf buffer for every thread (the interposed
    /// `pthread_create` of §3.1).
    pub fn start(&mut self, ctl: &mut dyn EngineCtl) {
        for tid in ctl.tids() {
            self.perf.open_thread(tid);
        }
    }

    /// Reports the access's HITM event, if it had one on a monitored
    /// region, to the perf monitor. Returns the cycles the record capture
    /// cost the accessing core.
    #[inline]
    pub fn capture(&mut self, tid: Tid, acc: &AccessInfo, outcome: &AccessOutcome) -> u64 {
        let Some(hitm) = &outcome.hitm else { return 0 };
        if !self.layout.in_app(acc.vaddr) && !self.layout.in_internal(acc.vaddr) {
            return 0;
        }
        self.perf.on_hitm(tid, acc.pc, acc.vaddr, hitm.kind)
    }

    /// One detection-thread pass at cycle `now`: drains the perf buffers
    /// into the detector and reports the lines whose scaled event rate
    /// since the previous tick crosses `threshold_per_sec`.
    pub fn tick(
        &mut self,
        ctl: &mut dyn EngineCtl,
        now: u64,
        threshold_per_sec: f64,
    ) -> DetectionWindow {
        let records = self.perf.drain();
        self.detector.ingest(&records, ctl.code());
        let cycles = now.saturating_sub(self.last_tick).max(1);
        self.last_tick = now;
        let reports = self
            .detector
            .analyze_window(LatencyModel::cycles_to_secs(cycles), threshold_per_sec);
        DetectionWindow {
            records: records.len(),
            cycles,
            reports,
        }
    }

    /// The perf monitor (records and events, Fig. 4).
    pub fn perf(&self) -> &PerfMonitor {
        &self.perf
    }

    /// The detector (line profiles and record counts).
    pub fn detector(&self) -> &FalseSharingDetector {
        &self.detector
    }
}

impl tmi_telemetry::MetricSource for DetectionLoop {
    fn metrics(&self, out: &mut tmi_telemetry::MetricSink) {
        out.source("perf", &self.perf);
        out.source("detector", &self.detector);
    }
}

fn byte_mask(off: u64, width: u64) -> u64 {
    debug_assert!(off + width <= 64);
    if width >= 64 {
        u64::MAX
    } else {
        ((1u64 << width) - 1) << off
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmi_machine::Width;
    use tmi_program::Pc;

    fn detector(code: &mut CodeRegistry) -> (FalseSharingDetector, Pc, Pc) {
        let ld = code.instr("t::ld", InstrKind::Load, Width::W8);
        let st = code.instr("t::st", InstrKind::Store, Width::W8);
        let d = FalseSharingDetector::new(
            PerfConfig {
                period: 10,
                store_divisor: 4,
                skid_every: 0,
                ..Default::default()
            },
            vec![(VAddr::new(0x10000), 0x10000)],
        );
        (d, ld, st)
    }

    fn rec(tid: u32, pc: Pc, addr: u64) -> PebsRecord {
        PebsRecord {
            tid: Tid(tid),
            pc,
            vaddr: VAddr::new(addr),
        }
    }

    #[test]
    fn disjoint_writers_classified_false_sharing() {
        let mut code = CodeRegistry::new();
        let (mut d, _ld, st) = detector(&mut code);
        for _ in 0..5 {
            d.ingest(&[rec(0, st, 0x10000), rec(1, st, 0x10008)], &code);
        }
        let reports = d.analyze_window(0.001, 1.0);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, SharingKind::FalseSharing);
        assert_eq!(reports[0].vline, 0x10000 / 64);
    }

    #[test]
    fn overlapping_writers_classified_true_sharing() {
        let mut code = CodeRegistry::new();
        let (mut d, ld, st) = detector(&mut code);
        d.ingest(&[rec(0, st, 0x10040), rec(1, ld, 0x10040)], &code);
        let reports = d.analyze_window(0.001, 1.0);
        assert_eq!(reports[0].kind, SharingKind::TrueSharing);
    }

    #[test]
    fn read_read_is_private() {
        let mut code = CodeRegistry::new();
        let (mut d, ld, _st) = detector(&mut code);
        d.ingest(&[rec(0, ld, 0x10000), rec(1, ld, 0x10010)], &code);
        let reports = d.analyze_window(0.001, 0.0);
        assert_eq!(reports[0].kind, SharingKind::Private);
    }

    #[test]
    fn true_sharing_evidence_dominates() {
        // leveldb's queue: mostly true sharing with a little false sharing
        // mixed in — must not be reported as repairable.
        let mut code = CodeRegistry::new();
        let (mut d, _ld, st) = detector(&mut code);
        d.ingest(
            &[
                rec(0, st, 0x10000),
                rec(1, st, 0x10008), // disjoint pair (0,1)
                rec(2, st, 0x10008), // overlaps thread 1
            ],
            &code,
        );
        let reports = d.analyze_window(0.001, 0.0);
        assert_eq!(reports[0].kind, SharingKind::TrueSharing);
    }

    #[test]
    fn scaling_by_period_and_store_divisor() {
        let mut code = CodeRegistry::new();
        let (mut d, ld, st) = detector(&mut code);
        d.ingest(&[rec(0, ld, 0x10000)], &code); // 10 events
        d.ingest(&[rec(1, st, 0x10008)], &code); // 40 events
        assert!((d.total_scaled_events() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_records_filtered() {
        let mut code = CodeRegistry::new();
        let (mut d, ld, _st) = detector(&mut code);
        d.ingest(&[rec(0, ld, 0xdead_beef)], &code);
        let (ok, filtered, undec) = d.record_counts();
        assert_eq!((ok, filtered, undec), (0, 1, 0));
    }

    #[test]
    fn unknown_pc_counted_undecodable() {
        let mut code = CodeRegistry::new();
        let (mut d, _ld, _st) = detector(&mut code);
        d.ingest(&[rec(0, Pc(0x99), 0x10000)], &code);
        let (ok, _f, undec) = d.record_counts();
        assert_eq!((ok, undec), (0, 1));
    }

    #[test]
    fn window_resets_but_totals_accumulate() {
        let mut code = CodeRegistry::new();
        let (mut d, _ld, st) = detector(&mut code);
        d.ingest(&[rec(0, st, 0x10000), rec(1, st, 0x10020)], &code);
        let r1 = d.analyze_window(1.0, 1.0);
        assert_eq!(r1.len(), 1);
        let r2 = d.analyze_window(1.0, 1.0);
        assert!(r2.is_empty(), "window was reset");
        assert!(d.total_scaled_events() > 0.0);
    }

    #[test]
    fn threshold_suppresses_cold_lines() {
        let mut code = CodeRegistry::new();
        let (mut d, _ld, st) = detector(&mut code);
        d.ingest(&[rec(0, st, 0x10000), rec(1, st, 0x10008)], &code);
        // 80 scaled events over 1s << threshold of 1e6.
        let reports = d.analyze_window(1.0, 1_000_000.0);
        assert!(reports.is_empty());
    }

    #[test]
    fn byte_mask_helper() {
        assert_eq!(byte_mask(0, 8), 0xff);
        assert_eq!(byte_mask(8, 4), 0xf00);
        assert_eq!(byte_mask(0, 64), u64::MAX);
        assert_eq!(byte_mask(63, 1), 1 << 63);
    }

    #[test]
    fn width_clamped_at_line_end() {
        // An 8-byte access 4 bytes before the end of the line must not
        // overflow the mask (the hardware would split it; the detector
        // attributes it to the first line).
        let mut code = CodeRegistry::new();
        let (mut d, _ld, st) = detector(&mut code);
        d.ingest(&[rec(0, st, 0x1003c)], &code);
        assert!(d.line(0x10000 / 64).is_some());
    }
}
