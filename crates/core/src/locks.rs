//! Process-shared lock redirection (§3.2).
//!
//! TMI's interposed `pthread_mutex_init` replaces the application's lock
//! object with a pointer to a TMI-owned lock living in the process-shared
//! internal region, so locks keep working after threads become processes.
//!
//! Slot placement *mirrors the application's own layout*: a redirected
//! lock keeps its offset within the cache line, and locks that shared an
//! application line share an internal line. Interposition therefore
//! neither introduces nor hides lock false sharing — dense lock pools
//! (boost's `spinlock_pool`, §4.3) stay dense and detectable, padded lock
//! arrays stay padded. When the detector later finds false sharing on the
//! internal lock lines, [`LockRedirector::repad`] re-lays every slot out
//! at cache-line stride — "a new pthread_mutex_lock that is cache-line
//! sized to avoid false sharing".

use std::collections::HashMap;

use tmi_machine::{VAddr, LINE_SIZE};

/// Cycles for the lock-pointer indirection on each mutex operation. TMI
/// always redirects pthread mutexes through process-shared lock objects
/// (§3.2), because locks must survive T2P; Sheriff's interposed locks pay
/// the same.
pub const LOCK_INDIRECT_CYCLES: u64 = 6;

/// Redirection table from application lock addresses to internal slots.
#[derive(Debug)]
pub struct LockRedirector {
    region_start: VAddr,
    region_len: u64,
    /// app cache line → internal line index (layout mirroring).
    line_map: HashMap<u64, u64>,
    /// app lock address → internal slot address.
    map: HashMap<VAddr, VAddr>,
    next_line: u64,
    padded: bool,
    repads: u64,
}

impl LockRedirector {
    /// Creates a redirector allocating slots from `[start, start+len)` of
    /// the internal shared region.
    ///
    /// # Panics
    ///
    /// Panics unless `start` is line aligned.
    pub fn new(start: VAddr, len: u64) -> Self {
        assert!(
            start.raw().is_multiple_of(LINE_SIZE),
            "lock region must be line aligned"
        );
        LockRedirector {
            region_start: start,
            region_len: len,
            line_map: HashMap::new(),
            map: HashMap::new(),
            next_line: 0,
            padded: false,
            repads: 0,
        }
    }

    fn take_line(&mut self) -> u64 {
        assert!(
            (self.next_line + 1) * LINE_SIZE <= self.region_len,
            "internal lock region exhausted"
        );
        let l = self.next_line;
        self.next_line += 1;
        l
    }

    /// Returns the internal lock address for `app_lock`, allocating a slot
    /// on first use.
    ///
    /// # Panics
    ///
    /// Panics if the internal region is exhausted — size it for the
    /// workload's lock count.
    pub fn redirect(&mut self, app_lock: VAddr) -> VAddr {
        if let Some(&slot) = self.map.get(&app_lock) {
            return slot;
        }
        let slot = if self.padded {
            // Post-repair placement: one line per lock.
            let line = self.take_line();
            VAddr::new(self.region_start.raw() + line * LINE_SIZE)
        } else {
            // Layout-mirroring placement: same in-line offset, app lines
            // map 1:1 to internal lines.
            let app_line = app_lock.raw() / LINE_SIZE;
            let line = match self.line_map.get(&app_line) {
                Some(&l) => l,
                None => {
                    let l = self.take_line();
                    self.line_map.insert(app_line, l);
                    l
                }
            };
            let offset = app_lock.line_offset() & !3; // 4-byte lock word
            VAddr::new(self.region_start.raw() + line * LINE_SIZE + offset)
        };
        self.map.insert(app_lock, slot);
        slot
    }

    /// Re-lays every known lock out at cache-line stride — the repair for
    /// false sharing among the lock slots themselves. Idempotent.
    pub fn repad(&mut self) {
        if self.padded {
            return;
        }
        self.padded = true;
        let mut keys: Vec<VAddr> = self.map.keys().copied().collect();
        keys.sort_unstable(); // HashMap order must not leak into slot layout
        for k in keys {
            let line = self.take_line();
            self.map
                .insert(k, VAddr::new(self.region_start.raw() + line * LINE_SIZE));
        }
        self.repads += 1;
    }

    /// Whether slots are currently cache-line padded.
    pub fn padded(&self) -> bool {
        self.padded
    }

    /// Number of re-padding repairs performed.
    pub fn repads(&self) -> u64 {
        self.repads
    }

    /// Number of redirected locks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no lock has been redirected.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Bytes of internal region consumed (memory accounting; the lock
    /// indirection overhead of fluidanimate/water-spatial in Fig. 8).
    pub fn bytes_used(&self) -> u64 {
        self.next_line * LINE_SIZE
    }
}

impl tmi_telemetry::MetricSource for LockRedirector {
    fn metrics(&self, out: &mut tmi_telemetry::MetricSink) {
        out.u64("padded", u64::from(self.padded()));
        out.u64("repads", self.repads());
        out.u64("bytes_used", self.bytes_used());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn redirector() -> LockRedirector {
        LockRedirector::new(VAddr::new(0x80_0000), 1 << 20)
    }

    #[test]
    fn redirect_is_stable_per_lock() {
        let mut r = redirector();
        let a = r.redirect(VAddr::new(0x1000));
        let b = r.redirect(VAddr::new(0x1008));
        assert_ne!(a, b);
        assert_eq!(r.redirect(VAddr::new(0x1000)), a, "stable mapping");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn dense_app_locks_stay_dense() {
        // spinlockpool: 8-byte-spaced locks share lines before and after
        // redirection, so the false sharing remains detectable.
        let mut r = redirector();
        let a = r.redirect(VAddr::new(0x1000));
        let b = r.redirect(VAddr::new(0x1008));
        assert_eq!(a.raw() / LINE_SIZE, b.raw() / LINE_SIZE, "same line");
        assert_eq!(b.raw() - a.raw(), 8, "offsets mirrored");
    }

    #[test]
    fn padded_app_locks_stay_padded() {
        // dedup/water-spatial: line-spaced app locks must not be packed
        // together by redirection.
        let mut r = redirector();
        let a = r.redirect(VAddr::new(0x1000));
        let b = r.redirect(VAddr::new(0x1040));
        let c = r.redirect(VAddr::new(0x2000));
        assert_ne!(a.raw() / LINE_SIZE, b.raw() / LINE_SIZE);
        assert_ne!(b.raw() / LINE_SIZE, c.raw() / LINE_SIZE);
    }

    #[test]
    fn interleaved_first_use_does_not_change_layout() {
        // Two threads discovering locks in interleaved order must still
        // end up with the app's grouping.
        let mut r = redirector();
        let x0 = r.redirect(VAddr::new(0x1000)); // line A
        let y0 = r.redirect(VAddr::new(0x2000)); // line B
        let x1 = r.redirect(VAddr::new(0x1010)); // line A again
        assert_eq!(x0.raw() / LINE_SIZE, x1.raw() / LINE_SIZE);
        assert_ne!(x0.raw() / LINE_SIZE, y0.raw() / LINE_SIZE);
        assert_eq!(x1.raw() % LINE_SIZE, 0x10);
    }

    #[test]
    fn repad_moves_every_lock_to_its_own_line() {
        let mut r = redirector();
        let keys: Vec<VAddr> = (0..10u64).map(|i| VAddr::new(0x1000 + i * 4)).collect();
        for &k in &keys {
            r.redirect(k);
        }
        r.repad();
        assert!(r.padded());
        let mut lines: Vec<u64> = keys
            .iter()
            .map(|&k| r.redirect(k).raw() / LINE_SIZE)
            .collect();
        lines.sort_unstable();
        lines.dedup();
        assert_eq!(lines.len(), keys.len(), "one line per lock after repad");
    }

    #[test]
    fn repad_is_idempotent_and_new_locks_are_padded() {
        let mut r = redirector();
        r.redirect(VAddr::new(0x1000));
        r.repad();
        let slot = r.redirect(VAddr::new(0x1000));
        r.repad();
        assert_eq!(r.redirect(VAddr::new(0x1000)), slot);
        assert_eq!(r.repads(), 1);
        let a = r.redirect(VAddr::new(0x3000));
        let b = r.redirect(VAddr::new(0x3004));
        assert_ne!(a.raw() / LINE_SIZE, b.raw() / LINE_SIZE);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn region_exhaustion_panics() {
        let mut r = LockRedirector::new(VAddr::new(0x80_0000), 64);
        r.redirect(VAddr::new(0x1000));
        r.redirect(VAddr::new(0x2000));
    }

    #[test]
    fn bytes_used_tracks_lines() {
        let mut r = redirector();
        r.redirect(VAddr::new(0x1000));
        r.redirect(VAddr::new(0x1008)); // same line
        assert_eq!(r.bytes_used(), LINE_SIZE);
        r.redirect(VAddr::new(0x5000));
        assert_eq!(r.bytes_used(), 2 * LINE_SIZE);
    }
}
