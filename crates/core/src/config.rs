//! TMI runtime configuration.

use tmi_machine::LatencyModel;
use tmi_perf::PerfConfig;

/// Cost model for PTSB commits (the diff-and-merge of §2.2 / §3.3).
#[derive(Clone, Copy, Debug)]
pub struct CommitCostModel {
    /// Fixed cycles per committed page (syscall + bookkeeping).
    pub per_page_base: u64,
    /// Cycles per byte of the twin/private byte-level diff.
    pub diff_per_byte_x100: u64,
    /// Cycles per byte of the `memcmp` fast path used to skip identical
    /// 4 KiB chunks of a 2 MiB huge page (§4.4: "We optimize huge page
    /// commit by comparing 4KB regions of the 2MB page using memcmp before
    /// comparing the individual bytes").
    pub memcmp_per_byte_x100: u64,
    /// Cycles per byte actually merged into shared memory.
    pub merge_per_byte_x100: u64,
}

impl CommitCostModel {
    /// Default model: a vectorized (SSE `memcmp`-style) byte diff runs at
    /// ≈0.15 cycles/byte, the chunk-skip fast path at ≈0.06.
    pub const fn standard() -> Self {
        CommitCostModel {
            per_page_base: 350,
            diff_per_byte_x100: 15,
            memcmp_per_byte_x100: 6,
            merge_per_byte_x100: 100,
        }
    }
}

impl Default for CommitCostModel {
    fn default() -> Self {
        Self::standard()
    }
}

/// Operating mode and knobs of the TMI runtime.
#[derive(Clone, Copy, Debug)]
pub struct TmiConfig {
    /// PEBS sampling configuration (period 100 by default, §4.1).
    pub perf: PerfConfig,
    /// If false, TMI only detects (the `tmi-detect` configuration of
    /// Fig. 7); if true it also repairs (`TMI-protect`, Fig. 9).
    pub repair_enabled: bool,
    /// Code-centric consistency (§3.4). Disabling it reproduces the
    /// Sheriff-style semantic violations of Figs. 3, 11 and 12 and is used
    /// only for ablations and litmus tests.
    pub code_centric: bool,
    /// Targeted page protection (§3.3). If false, a detected repair
    /// protects *every* app page — the "PTSB-everywhere" ablation of §4.3.
    pub targeted: bool,
    /// False-sharing trigger threshold, in (scaled) HITM events per second
    /// on one line. The paper's repaired structures produce >100k/s (§4.3).
    pub fs_threshold_per_sec: f64,
    /// Cycles to convert one thread into a process (Table 3 reports 73–179
    /// µs for whole apps; ≈30 µs per thread).
    pub t2p_cycles_per_thread: u64,
    /// Cycles to stop the world with ptrace before conversion.
    pub stop_world_cycles: u64,
    /// Commit cost model.
    pub commit: CommitCostModel,
    /// Cycles for the lock-pointer indirection on each mutex operation.
    /// TMI always redirects pthread mutexes through process-shared lock
    /// objects (§3.2), because locks must survive T2P.
    pub lock_indirect_cycles: u64,
    /// Fixed detector memory overhead in bytes (disassembly tables and
    /// dynamic tracking structures; ≈90 MB floor in Fig. 8).
    pub detector_fixed_bytes: u64,
    /// Governor: extra attempts allowed when a repair-path kernel call
    /// fails transiently (fork veto, out-of-frames, mprotect EAGAIN)
    /// before the failure is treated as persistent.
    pub repair_retry_limit: u32,
    /// Governor: base backoff charged (in simulated cycles) before the
    /// first retry; doubles per attempt, capped at 64× base.
    pub repair_retry_backoff_cycles: u64,
    /// Governor: repair-efficacy revert threshold — the fraction of a
    /// detection window's wall-clock cycles spent in PTSB commits above
    /// which repair is judged a net loss and reverted (threads rejoined,
    /// pages unprotected, run continues in shared-memory mode). The
    /// default `f64::INFINITY` disables the monitor.
    pub efficacy_revert_threshold: f64,
}

impl Default for TmiConfig {
    fn default() -> Self {
        TmiConfig {
            perf: PerfConfig::default(),
            repair_enabled: true,
            code_centric: true,
            targeted: true,
            fs_threshold_per_sec: 100_000.0,
            t2p_cycles_per_thread: LatencyModel::micros_to_cycles(30.0),
            stop_world_cycles: LatencyModel::micros_to_cycles(15.0),
            commit: CommitCostModel::standard(),
            lock_indirect_cycles: 6,
            detector_fixed_bytes: 72 * 1024 * 1024,
            repair_retry_limit: 4,
            repair_retry_backoff_cycles: 500,
            efficacy_revert_threshold: f64::INFINITY,
        }
    }
}

impl TmiConfig {
    /// The `tmi-detect` configuration: monitoring only, no repair.
    pub fn detect_only() -> Self {
        TmiConfig {
            repair_enabled: false,
            ..Default::default()
        }
    }

    /// The full `TMI-protect` configuration.
    pub fn protect() -> Self {
        Self::default()
    }

    /// The PTSB-everywhere ablation (§4.3).
    pub fn ptsb_everywhere() -> Self {
        TmiConfig {
            targeted: false,
            ..Default::default()
        }
    }

    /// Backoff charged before retry number `attempt` (1-based): exponential
    /// in the attempt count, capped at 64× the base.
    pub fn retry_backoff(&self, attempt: u32) -> u64 {
        self.repair_retry_backoff_cycles << attempt.saturating_sub(1).min(6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_as_expected() {
        assert!(!TmiConfig::detect_only().repair_enabled);
        assert!(TmiConfig::protect().repair_enabled);
        assert!(!TmiConfig::ptsb_everywhere().targeted);
        assert!(TmiConfig::default().code_centric);
    }

    #[test]
    fn efficacy_monitor_is_disabled_by_default() {
        assert!(TmiConfig::default().efficacy_revert_threshold.is_infinite());
        assert!(TmiConfig::default().repair_retry_limit >= 4);
    }

    #[test]
    fn t2p_cost_is_tens_of_microseconds() {
        let c = TmiConfig::default();
        let us = c.t2p_cycles_per_thread as f64 / 3_400.0;
        assert!((10.0..100.0).contains(&us));
    }
}
