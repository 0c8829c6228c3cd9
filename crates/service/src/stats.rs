//! Service-level counters: one [`ServiceStats`] per server, exported
//! through the workspace metrics registry under the `service.` prefix.
//!
//! The aggregate names here are part of the telemetry schema
//! (`tests/golden/metric_names.txt`, enforced by `validate_telemetry`);
//! per-tenant counters are rendered with dynamic
//! `service.tenant.<name>.*` names into `stats` replies only, so tenant
//! churn never perturbs the golden schema.

use std::sync::atomic::{AtomicU64, Ordering};

use tmi_telemetry::{MetricSink, MetricSource, MetricsSnapshot};

/// Monotonic aggregate counters for one job server. All methods are
/// lock-free; snapshots are taken through the metrics registry.
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// Jobs admitted (accepted replies), including cache hits.
    pub jobs_submitted: AtomicU64,
    /// Jobs finished with a result payload (computed or cache-served).
    pub jobs_completed: AtomicU64,
    /// Jobs finished with an error.
    pub jobs_failed: AtomicU64,
    /// Requeues after a `worker_kill` firing abandoned an attempt.
    pub jobs_retried: AtomicU64,
    /// Submissions answered straight from the result cache.
    pub cache_hits: AtomicU64,
    /// Submissions that had to compute (admission-time misses).
    pub cache_misses: AtomicU64,
    /// Cache stores dropped by the `cache_drop` fault point.
    pub cache_drops: AtomicU64,
    /// Rejections because the admission queue was full (or the
    /// `queue_full` fault point forced load-shedding).
    pub reject_queue_full: AtomicU64,
    /// Rejections because the tenant hit its outstanding-job quota.
    pub reject_quota: AtomicU64,
    /// Rejections because the request itself was invalid.
    pub reject_bad_request: AtomicU64,
    /// Lines that failed to parse as a request.
    pub malformed_requests: AtomicU64,
    /// `worker_kill` fault-point firings.
    pub worker_kills: AtomicU64,
    /// High-water mark of any one priority class's queue depth.
    pub queue_peak_depth: AtomicU64,
    /// Distinct tenants seen since boot.
    pub tenants: AtomicU64,
    /// Journal records appended (write-ahead accepted/done/failed).
    pub journal_appended: AtomicU64,
    /// Intact journal records replayed at boot.
    pub journal_replayed: AtomicU64,
    /// Torn/corrupt journal records skipped during replay.
    pub journal_torn_skipped: AtomicU64,
    /// Boot-time journal compactions (rewrite to unfinished jobs only).
    pub journal_compactions: AtomicU64,
    /// Result payloads spilled to the on-disk cache.
    pub cache_stores: AtomicU64,
    /// Cache entries loaded intact from disk at boot.
    pub cache_loaded: AtomicU64,
    /// Admission cache hits served from a disk-loaded (warm) entry.
    pub cache_warm_hits: AtomicU64,
    /// Spilled cache entries dropped for checksum damage at load.
    pub cache_corrupt_dropped: AtomicU64,
    /// Durability flushes skipped by the `flush_fail` fault point.
    pub flush_fails: AtomicU64,
    /// Drain requests received (graceful-shutdown entries).
    pub drain_requests: AtomicU64,
    /// Submissions refused with a `draining` reply.
    pub drain_rejected_submits: AtomicU64,
}

impl ServiceStats {
    /// Adds one to a counter.
    pub fn inc(&self, c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// Raises the queue-depth high-water mark to at least `depth`.
    pub fn note_queue_depth(&self, depth: u64) {
        self.queue_peak_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// The `service.*` snapshot of these counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut sink = MetricSink::new();
        sink.source("service", self);
        sink.finish()
    }
}

impl MetricSource for ServiceStats {
    fn metrics(&self, out: &mut MetricSink) {
        let g = |c: &AtomicU64| c.load(Ordering::Relaxed);
        out.u64("jobs_submitted", g(&self.jobs_submitted));
        out.u64("jobs_completed", g(&self.jobs_completed));
        out.u64("jobs_failed", g(&self.jobs_failed));
        out.u64("jobs_retried", g(&self.jobs_retried));
        out.u64("cache_hits", g(&self.cache_hits));
        out.u64("cache_misses", g(&self.cache_misses));
        out.u64("cache_drops", g(&self.cache_drops));
        out.u64("reject_queue_full", g(&self.reject_queue_full));
        out.u64("reject_quota", g(&self.reject_quota));
        out.u64("reject_bad_request", g(&self.reject_bad_request));
        out.u64("malformed_requests", g(&self.malformed_requests));
        out.u64("worker_kills", g(&self.worker_kills));
        out.u64("queue_peak_depth", g(&self.queue_peak_depth));
        out.u64("tenants", g(&self.tenants));
        out.u64("persist.journal.appended", g(&self.journal_appended));
        out.u64("persist.journal.replayed", g(&self.journal_replayed));
        out.u64(
            "persist.journal.torn_skipped",
            g(&self.journal_torn_skipped),
        );
        out.u64("persist.journal.compactions", g(&self.journal_compactions));
        out.u64("persist.cache.stores", g(&self.cache_stores));
        out.u64("persist.cache.loaded", g(&self.cache_loaded));
        out.u64("persist.cache.warm_hits", g(&self.cache_warm_hits));
        out.u64(
            "persist.cache.corrupt_dropped",
            g(&self.cache_corrupt_dropped),
        );
        out.u64("persist.flush_fails", g(&self.flush_fails));
        out.u64("drain.requests", g(&self.drain_requests));
        out.u64("drain.rejected_submits", g(&self.drain_rejected_submits));
    }
}

/// The canonical `service.*` metric names, sorted — the service's
/// contribution to the telemetry schema, merged with the simulation
/// names by `validate_telemetry` and the schema gate tests.
pub fn service_metric_names() -> Vec<String> {
    ServiceStats::default()
        .snapshot()
        .names()
        .map(str::to_string)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_sorted_and_prefixed() {
        let names = service_metric_names();
        assert_eq!(names.len(), 25);
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "snapshot order is sorted");
        assert!(names.iter().all(|n| n.starts_with("service.")));
        assert!(names.contains(&"service.worker_kills".to_string()));
        assert!(names.contains(&"service.persist.cache.warm_hits".to_string()));
        assert!(names.contains(&"service.drain.requests".to_string()));
    }

    #[test]
    fn counters_flow_into_the_snapshot() {
        let s = ServiceStats::default();
        s.inc(&s.jobs_submitted);
        s.inc(&s.jobs_submitted);
        s.note_queue_depth(5);
        s.note_queue_depth(3);
        let snap = s.snapshot();
        assert_eq!(snap.u64("service.jobs_submitted"), 2);
        assert_eq!(snap.u64("service.queue_peak_depth"), 5);
        assert_eq!(snap.u64("service.jobs_failed"), 0);
    }
}
