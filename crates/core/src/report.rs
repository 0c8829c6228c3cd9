//! Human-readable cache-contention reports — the `perf c2c` / VTune view
//! of the detector's state (§5 compares TMI's instrumentation against
//! those tools; this module is the equivalent reporting surface), plus a
//! Cheetah-style prediction of the speedup a manual fix would yield
//! (Liu & Liu, CGO '16, discussed in §5).

use std::fmt::Write as _;

use tmi_machine::{LatencyModel, VAddr, LINE_SIZE};
use tmi_program::CodeRegistry;

use crate::detect::{FalseSharingDetector, SharingKind};

/// The stall one falsely-shared HITM costs, in cycles: the mean HITM
/// latency (base plus half the queuing cap) minus the local hit it would
/// have been.
const FS_EVENT_PENALTY: u64 = LatencyModel::HITM
    + LatencyModel::HITM_QUEUING_STEP * LatencyModel::HITM_QUEUING_CAP / 2
    - LatencyModel::LOCAL_HIT;

/// One line's entry in a [`ContentionReport`].
#[derive(Clone, Debug)]
pub struct LineReport {
    /// Virtual address of the line's first byte.
    pub addr: VAddr,
    /// Diagnosis.
    pub kind: SharingKind,
    /// Scaled HITM events attributed to the line over the run.
    pub total_events: f64,
    /// Threads observed on the line.
    pub threads: usize,
    /// Hottest static instructions, symbolized.
    pub top_symbols: Vec<(String, f64)>,
    /// Per-thread byte masks rendered as 64-character strings
    /// (`.` untouched, `r` read, `w` written, `b` both).
    pub masks: Vec<(u32, String)>,
}

/// A whole-run contention report.
#[derive(Clone, Debug, Default)]
pub struct ContentionReport {
    /// Hottest lines first.
    pub lines: Vec<LineReport>,
    /// Total scaled HITM events across monitored lines.
    pub total_events: f64,
    /// Scaled events on lines diagnosed as false sharing.
    pub false_sharing_events: f64,
    /// Scaled events on lines diagnosed as true sharing.
    pub true_sharing_events: f64,
}

impl ContentionReport {
    /// Builds a report from the detector's accumulated state.
    pub fn build(detector: &FalseSharingDetector, code: &CodeRegistry, max_lines: usize) -> Self {
        let mut report = ContentionReport::default();
        for (vline, profile) in detector.hottest_lines() {
            let kind = profile.classify();
            report.total_events += profile.total_events;
            match kind {
                SharingKind::FalseSharing => report.false_sharing_events += profile.total_events,
                SharingKind::TrueSharing => report.true_sharing_events += profile.total_events,
                SharingKind::Private => {}
            }
            if report.lines.len() >= max_lines {
                continue;
            }
            let top_symbols = profile
                .top_pcs()
                .into_iter()
                .take(4)
                .map(|(pc, ev)| {
                    let sym = code
                        .symbol(pc)
                        .map(str::to_owned)
                        .unwrap_or_else(|| format!("{pc}"));
                    (sym, ev)
                })
                .collect();
            let masks = profile
                .thread_masks()
                .into_iter()
                .map(|(tid, read, write)| {
                    let mut s = String::with_capacity(64);
                    for bit in 0..64 {
                        let r = read >> bit & 1 == 1;
                        let w = write >> bit & 1 == 1;
                        s.push(match (r, w) {
                            (false, false) => '.',
                            (true, false) => 'r',
                            (false, true) => 'w',
                            (true, true) => 'b',
                        });
                    }
                    (tid.0, s)
                })
                .collect();
            report.lines.push(LineReport {
                addr: VAddr::new(vline * LINE_SIZE),
                kind,
                total_events: profile.total_events,
                threads: profile.thread_count(),
                top_symbols,
                masks,
            });
        }
        report
    }

    /// The ratio of true-sharing to false-sharing events (the paper notes
    /// leveldb shows "roughly 10x more HITM events attributable to true
    /// sharing rather than false sharing", §4.2).
    pub fn true_to_false_ratio(&self) -> f64 {
        if self.false_sharing_events > 0.0 {
            self.true_sharing_events / self.false_sharing_events
        } else {
            f64::INFINITY
        }
    }

    /// Cheetah-style prediction of the speedup a manual fix of all
    /// false-sharing lines would yield: the fraction of runtime spent in
    /// (amortized) HITM stalls on falsely-shared lines is recovered.
    /// `run_cycles` is the observed wall time; `threads` the worker count.
    /// `actual_hitm_events`, if given, rescales the detector's
    /// period-reconstructed event counts to the true total (the runtime
    /// knows it from the counting side of perf even when only 1-in-n
    /// events produced records).
    pub fn predict_manual_speedup_calibrated(
        &self,
        run_cycles: u64,
        threads: usize,
        actual_hitm_events: Option<u64>,
    ) -> f64 {
        let _ = threads;
        // A ping-pong stalls its two participants alternately, so
        // wall-clock stall ≈ events × penalty / 2.
        let penalty = FS_EVENT_PENALTY as f64;
        let calibration = match actual_hitm_events {
            Some(actual) if self.total_events > 0.0 => actual as f64 / self.total_events,
            _ => 1.0,
        };
        let stall_cycles = self.false_sharing_events * calibration * penalty / 2.0;
        let run = run_cycles as f64;
        (run / (run - stall_cycles.min(run * 0.95))).max(1.0)
    }

    /// Renders the report as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "contention report: {:.0} scaled HITM events ({:.0} false sharing, {:.0} true sharing)",
            self.total_events, self.false_sharing_events, self.true_sharing_events
        );
        for l in &self.lines {
            let _ = writeln!(
                out,
                "\nline {:#x}  {:?}  {:.0} events  {} threads",
                l.addr.raw(),
                l.kind,
                l.total_events,
                l.threads
            );
            for (tid, mask) in &l.masks {
                let _ = writeln!(out, "  t{tid:<3} {mask}");
            }
            for (sym, ev) in &l.top_symbols {
                let _ = writeln!(out, "  {ev:>10.0}  {sym}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmi_machine::Width;
    use tmi_os::Tid;
    use tmi_perf::{PebsRecord, PerfConfig};
    use tmi_program::{CodeRegistry, InstrKind};

    fn build_detector() -> (FalseSharingDetector, CodeRegistry) {
        let mut code = CodeRegistry::new();
        let st = code.instr("app::bump_counter", InstrKind::Store, Width::W8);
        let rmw = code.atomic_instr("app::lock_word", InstrKind::Rmw, Width::W4);
        let mut d = FalseSharingDetector::new(
            PerfConfig {
                period: 10,
                skid_every: 0,
                ..Default::default()
            },
            vec![(VAddr::new(0x10000), 0x10000)],
        );
        // A falsely shared line: two threads, disjoint words.
        for i in 0..20 {
            d.ingest(
                &[PebsRecord {
                    tid: Tid(i % 2),
                    pc: st,
                    vaddr: VAddr::new(0x10000 + (i as u64 % 2) * 8),
                }],
                &code,
            );
        }
        // A truly shared line: both threads RMW the same word.
        for i in 0..10 {
            d.ingest(
                &[PebsRecord {
                    tid: Tid(i % 2),
                    pc: rmw,
                    vaddr: VAddr::new(0x10040),
                }],
                &code,
            );
        }
        (d, code)
    }

    #[test]
    fn report_orders_and_classifies_lines() {
        let (d, code) = build_detector();
        let r = ContentionReport::build(&d, &code, 10);
        assert_eq!(r.lines.len(), 2);
        assert!(r.lines[0].total_events >= r.lines[1].total_events);
        let kinds: Vec<SharingKind> = r.lines.iter().map(|l| l.kind).collect();
        assert!(kinds.contains(&SharingKind::FalseSharing));
        assert!(kinds.contains(&SharingKind::TrueSharing));
        assert!(r.false_sharing_events > 0.0);
        assert!(r.true_sharing_events > 0.0);
    }

    #[test]
    fn report_symbolizes_pcs() {
        let (d, code) = build_detector();
        let r = ContentionReport::build(&d, &code, 10);
        let fs_line = r
            .lines
            .iter()
            .find(|l| l.kind == SharingKind::FalseSharing)
            .unwrap();
        assert_eq!(fs_line.top_symbols[0].0, "app::bump_counter");
    }

    #[test]
    fn masks_render_byte_roles() {
        let (d, code) = build_detector();
        let r = ContentionReport::build(&d, &code, 10);
        let fs_line = r
            .lines
            .iter()
            .find(|l| l.kind == SharingKind::FalseSharing)
            .unwrap();
        let (_, mask0) = &fs_line.masks[0];
        assert!(
            mask0.starts_with("wwwwwwww"),
            "thread 0 wrote bytes 0-8: {mask0}"
        );
        assert!(mask0[8..].chars().all(|c| c == '.'));
    }

    #[test]
    fn speedup_prediction_is_sane() {
        let (d, code) = build_detector();
        let r = ContentionReport::build(&d, &code, 10);
        // All FS stalls ≈ half the runtime → predicted ≈ 2x.
        let penalty_events = r.false_sharing_events;
        let stall = penalty_events * FS_EVENT_PENALTY as f64;
        let run = stall as u64; // stall/2 of the run → predicted 2x
        let pred = r.predict_manual_speedup_calibrated(run, 1, None);
        assert!((1.8..2.2).contains(&pred), "{pred}");
        // No FS events → 1.0x.
        let empty = ContentionReport::default();
        assert_eq!(empty.predict_manual_speedup_calibrated(1000, 4, None), 1.0);
    }

    #[test]
    fn render_contains_key_fields() {
        let (d, code) = build_detector();
        let r = ContentionReport::build(&d, &code, 10);
        let text = r.render();
        assert!(text.contains("FalseSharing"));
        assert!(text.contains("app::bump_counter"));
        assert!(text.contains("0x10000"));
    }
}
