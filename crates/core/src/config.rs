//! TMI runtime configuration.

use tmi_perf::PerfConfig;

/// The default false-sharing trigger threshold, in (scaled) HITM events
/// per second on one line. The paper's repaired structures produce >100k/s
/// (§4.3). The LASER and Plastic baselines detect at the same rate.
pub const FS_THRESHOLD_PER_SEC: f64 = 100_000.0;

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
    /// on one line ([`FS_THRESHOLD_PER_SEC`] by default).
    pub fs_threshold_per_sec: f64,
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
            fs_threshold_per_sec: FS_THRESHOLD_PER_SEC,
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
    }
}
