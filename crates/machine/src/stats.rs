//! Aggregate machine statistics.

use tmi_telemetry::{MetricSink, MetricSource};

/// Counters accumulated by [`crate::Machine`] across a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Total memory accesses issued.
    pub accesses: u64,
    /// Loads (including the read half of RMWs).
    pub loads: u64,
    /// Stores (including the write half of RMWs).
    pub stores: u64,
    /// Hits in the requesting core's private cache.
    pub local_hits: u64,
    /// Transfers of a clean line from a sibling cache.
    pub remote_clean_transfers: u64,
    /// HITM events: requests that hit a remote modified line.
    pub hitm_events: u64,
    /// HITM events triggered by loads.
    pub hitm_loads: u64,
    /// HITM events triggered by stores.
    pub hitm_stores: u64,
    /// LLC hits.
    pub llc_hits: u64,
    /// Misses all the way to DRAM.
    pub dram_accesses: u64,
    /// Invalidation messages sent.
    pub invalidations: u64,
    /// Dirty evictions (writebacks) from private caches.
    pub writebacks: u64,
}

impl MachineStats {
    /// Fraction of accesses that generated a HITM event.
    pub fn hitm_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hitm_events as f64 / self.accesses as f64
        }
    }
}

impl MetricSource for MachineStats {
    fn metrics(&self, out: &mut MetricSink) {
        out.u64("accesses", self.accesses);
        out.u64("loads", self.loads);
        out.u64("stores", self.stores);
        out.u64("local_hits", self.local_hits);
        out.u64("remote_clean_transfers", self.remote_clean_transfers);
        out.u64("hitm_events", self.hitm_events);
        out.u64("hitm_loads", self.hitm_loads);
        out.u64("hitm_stores", self.hitm_stores);
        out.u64("llc_hits", self.llc_hits);
        out.u64("dram_accesses", self.dram_accesses);
        out.u64("invalidations", self.invalidations);
        out.u64("writebacks", self.writebacks);
        out.f64("hitm_rate", self.hitm_rate());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hitm_rate_handles_empty() {
        assert_eq!(MachineStats::default().hitm_rate(), 0.0);
        let s = MachineStats {
            accesses: 10,
            hitm_events: 5,
            ..Default::default()
        };
        assert!((s.hitm_rate() - 0.5).abs() < 1e-12);
    }
}
