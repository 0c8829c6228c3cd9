//! Memory-overhead accounting (Fig. 8).
//!
//! The paper reports absolute MB for plain pthreads vs TMI-full. TMI's
//! overheads come from: per-thread perf event buffers, the detector's
//! static-disassembly and dynamic tracking structures, twin pages and
//! buffered page state, and the process-shared lock objects.

/// A memory-usage breakdown in bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryBreakdown {
    /// Application memory: peak physical frames (heap, globals, twins'
    /// private frames are counted by the kernel too).
    pub app_bytes: u64,
    /// perf ring buffers.
    pub perf_bytes: u64,
    /// Detector line tables plus fixed disassembly/tracking overhead.
    pub detector_bytes: u64,
    /// Twin-page snapshots (high-water mark).
    pub twin_bytes: u64,
    /// Process-shared lock objects.
    pub lock_bytes: u64,
}

impl MemoryBreakdown {
    /// Total bytes.
    pub fn total(&self) -> u64 {
        self.app_bytes + self.perf_bytes + self.detector_bytes + self.twin_bytes + self.lock_bytes
    }

    /// Runtime overhead (everything but the application itself).
    pub fn overhead_bytes(&self) -> u64 {
        self.total() - self.app_bytes
    }
}

impl tmi_telemetry::MetricSource for MemoryBreakdown {
    fn metrics(&self, out: &mut tmi_telemetry::MetricSink) {
        out.u64("app_bytes", self.app_bytes);
        out.u64("perf_bytes", self.perf_bytes);
        out.u64("detector_bytes", self.detector_bytes);
        out.u64("twin_bytes", self.twin_bytes);
        out.u64("lock_bytes", self.lock_bytes);
        out.u64("total_bytes", self.total());
        out.u64("overhead_bytes", self.overhead_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let m = MemoryBreakdown {
            app_bytes: 10 << 20,
            perf_bytes: 2 << 20,
            detector_bytes: 64 << 20,
            twin_bytes: 1 << 20,
            lock_bytes: 4096,
        };
        assert_eq!(m.total(), m.app_bytes + m.overhead_bytes());
        assert_eq!(m.total(), (77 << 20) + 4096);
    }
}
