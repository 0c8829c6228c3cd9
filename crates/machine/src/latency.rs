//! The access latency model, in core cycles.
//!
//! Values approximate the paper's 3.4 GHz Haswell (i7-4770K): a private
//! cache hit costs a handful of cycles, an LLC hit tens, a cache-to-cache
//! transfer of a remote-modified line (the HITM case) roughly 70, and DRAM
//! low hundreds. The absolute values matter less than their *ratios* — the
//! order-of-magnitude gap between a local hit and a HITM transfer is what
//! makes false sharing an order-of-magnitude slowdown (§1).

/// The one machine every experiment runs on: cycle costs for each kind of
/// memory-system outcome, and the clock that turns cycles into seconds.
pub enum LatencyModel {}

impl LatencyModel {
    /// Hit in the local private cache.
    pub const LOCAL_HIT: u64 = 4;
    /// Clean transfer from a sibling private cache (remote E/S).
    pub const REMOTE_CLEAN: u64 = 45;
    /// Dirty transfer from a sibling private cache (remote M — the HITM).
    pub const HITM: u64 = 70;
    /// Hit in the shared LLC.
    pub const LLC_HIT: u64 = 30;
    /// Full miss to DRAM.
    pub const DRAM: u64 = 180;
    /// Extra cost of an invalidating upgrade (S→M) or RFO broadcast.
    pub const INVALIDATE: u64 = 20;
    /// Extra cost of a locked/atomic operation (bus-lock-free LOCK prefix).
    pub const ATOMIC_EXTRA: u64 = 18;
    /// Cost of a full memory fence.
    pub const FENCE: u64 = 25;
    /// Queuing penalty added per unit of HITM *streak* on a line: sustained
    /// ping-pong saturates the coherence fabric, so each transfer in a
    /// storm costs more than an isolated one (this is what makes false
    /// sharing "slow memory accesses by an order of magnitude", §1).
    pub const HITM_QUEUING_STEP: u64 = 40;
    /// Streak cap for the queuing penalty.
    pub const HITM_QUEUING_CAP: u64 = 8;

    /// Simulated clock frequency in Hz (3.4 GHz, matching the repair
    /// machine in §4.1). Used to convert cycles to seconds in reports.
    pub const CLOCK_HZ: u64 = 3_400_000_000;

    /// Converts a cycle count to seconds at [`Self::CLOCK_HZ`].
    pub fn cycles_to_secs(cycles: u64) -> f64 {
        cycles as f64 / Self::CLOCK_HZ as f64
    }

    /// Converts seconds to cycles at [`Self::CLOCK_HZ`].
    pub fn secs_to_cycles(secs: f64) -> u64 {
        (secs * Self::CLOCK_HZ as f64) as u64
    }

    /// Converts microseconds to cycles.
    pub fn micros_to_cycles(us: f64) -> u64 {
        Self::secs_to_cycles(us * 1e-6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hitm_is_order_of_magnitude_slower_than_hit() {
        const { assert!(LatencyModel::HITM >= 10 * LatencyModel::LOCAL_HIT) };
        const { assert!(LatencyModel::DRAM > LatencyModel::LLC_HIT) };
        const { assert!(LatencyModel::LLC_HIT > LatencyModel::LOCAL_HIT) };
    }

    #[test]
    fn time_conversions_roundtrip() {
        let cycles = 3_400_000; // 1 ms
        let secs = LatencyModel::cycles_to_secs(cycles);
        assert!((secs - 1e-3).abs() < 1e-12);
        assert_eq!(LatencyModel::secs_to_cycles(secs), cycles);
        assert_eq!(LatencyModel::micros_to_cycles(1000.0), cycles);
    }
}
