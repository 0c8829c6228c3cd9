//! Property tests for PEBS sampling: record counts follow the per-kind
//! periods exactly, buffers bound memory, and draining is lossless modulo
//! the documented overflow policy.

use proptest::prelude::*;
use tmi_machine::hitm::HitmKind;
use tmi_machine::VAddr;
use tmi_os::Tid;
use tmi_perf::{PerfConfig, PerfMonitor, CAPTURE_CYCLES};
use tmi_program::Pc;

proptest! {
    /// For any event mix, each thread's record count is exactly
    /// floor(loads/period) + floor(stores/(period*divisor)).
    #[test]
    fn record_counts_follow_periods_exactly(
        period in 1..64u64,
        divisor in 1..8u64,
        events in proptest::collection::vec((0..4u32, any::<bool>()), 1..500),
    ) {
        let mut m = PerfMonitor::new(PerfConfig {
            period,
            store_divisor: divisor,
            skid_every: 0,
            ..Default::default()
        });
        let mut loads = [0u64; 4];
        let mut stores = [0u64; 4];
        for &(t, is_store) in &events {
            let kind = if is_store { HitmKind::Store } else { HitmKind::Load };
            m.on_hitm(Tid(t), Pc(0x400000), VAddr::new(0x1000), kind);
            if is_store {
                stores[t as usize] += 1;
            } else {
                loads[t as usize] += 1;
            }
        }
        let expected: u64 = (0..4)
            .map(|t| loads[t] / period + stores[t] / (period * divisor))
            .sum();
        prop_assert_eq!(m.records_taken(), expected);
        prop_assert_eq!(m.events_seen(), events.len() as u64);
    }

    /// Draining returns everything captured (minus documented overflow
    /// drops) and leaves the buffers empty.
    #[test]
    fn drain_is_lossless_and_emptying(
        cap in 1..64usize,
        n in 1..300u64,
    ) {
        let mut m = PerfMonitor::new(PerfConfig {
            period: 1,
            skid_every: 0,
            buffer_capacity: cap,
            ..Default::default()
        });
        for i in 0..n {
            m.on_hitm(Tid(0), Pc(0x400000), VAddr::new(i * 64), HitmKind::Load);
        }
        let drained = m.drain();
        prop_assert_eq!(drained.len() as u64 + m.records_dropped(), n);
        prop_assert!(drained.len() <= cap);
        prop_assert!(m.drain().is_empty(), "second drain must be empty");
        // The survivors are the newest records, in order.
        let first_kept = n - drained.len() as u64;
        for (i, rec) in drained.iter().enumerate() {
            prop_assert_eq!(rec.vaddr, VAddr::new((first_kept + i as u64) * 64));
        }
    }

    /// Capture cost is charged exactly when a record is taken.
    #[test]
    fn capture_cost_accounting(period in 1..32u64, n in 1..200u64) {
        let cfg = PerfConfig { period, skid_every: 0, ..Default::default() };
        let mut m = PerfMonitor::new(cfg);
        let mut total = 0u64;
        for i in 0..n {
            total += m.on_hitm(Tid(0), Pc(0x400000), VAddr::new(i), HitmKind::Load);
        }
        prop_assert_eq!(total, (n / period) * CAPTURE_CYCLES);
    }
}
