//! The TMI process memory layout (Fig. 6).
//!
//! At program start TMI's allocator backs the application's heap, globals
//! and stacks with one shared-memory object so threads-turned-processes
//! can keep sharing it; a second, separate shared object holds TMI's own
//! state — most importantly the process-shared synchronization objects
//! that interposed `pthread_mutex_t`s point at (§3.2).

use tmi_machine::{VAddr, Vpn, FRAME_SIZE, LINE_SIZE};

/// Where everything lives in the application's virtual address space.
#[derive(Clone, Copy, Debug)]
pub struct AppLayout {
    /// Start of the primary (remappable) mapping of the app object.
    pub app_start: VAddr,
    /// Length of the app mapping in bytes.
    pub app_len: u64,
    /// Start of the internal mapping (pshared mutexes, TMI state).
    pub internal_start: VAddr,
    /// Length of the internal mapping.
    pub internal_len: u64,
    /// Whether the app mapping uses 2 MiB huge pages (§4.4).
    pub huge_pages: bool,
}

impl AppLayout {
    /// True if `addr` lies in the application range.
    pub fn in_app(&self, addr: VAddr) -> bool {
        addr >= self.app_start && addr.raw() < self.app_start.raw() + self.app_len
    }

    /// True if `addr` lies in TMI's internal range.
    pub fn in_internal(&self, addr: VAddr) -> bool {
        addr >= self.internal_start && addr.raw() < self.internal_start.raw() + self.internal_len
    }

    /// True if the given virtual cache line lies in the internal range.
    pub fn internal_line(&self, vline: u64) -> bool {
        self.in_internal(VAddr::new(vline * LINE_SIZE))
    }

    /// True if the given virtual cache line lies in the app range.
    pub fn app_line(&self, vline: u64) -> bool {
        self.in_app(VAddr::new(vline * LINE_SIZE))
    }

    /// The 4 KiB page(s) covering one virtual cache line, as protection
    /// targets. A line never spans pages (64 | 4096).
    pub fn line_page(&self, vline: u64) -> Vpn {
        VAddr::new(vline * LINE_SIZE).vpn()
    }

    /// All 4 KiB pages of the application mapping (the PTSB-everywhere
    /// ablation protects all of these).
    pub fn all_app_pages(&self) -> impl Iterator<Item = Vpn> + '_ {
        let first = self.app_start.vpn().0;
        let n = self.app_len / FRAME_SIZE;
        (first..first + n).map(Vpn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> AppLayout {
        AppLayout {
            app_start: VAddr::new(0x10000),
            app_len: 8 * FRAME_SIZE,
            internal_start: VAddr::new(0x80_0000),
            internal_len: 4 * FRAME_SIZE,
            huge_pages: false,
        }
    }

    #[test]
    fn range_membership() {
        let l = layout();
        assert!(l.in_app(VAddr::new(0x10000)));
        assert!(l.in_app(VAddr::new(0x10000 + 8 * FRAME_SIZE - 1)));
        assert!(!l.in_app(VAddr::new(0x10000 + 8 * FRAME_SIZE)));
        assert!(l.in_internal(VAddr::new(0x80_0040)));
        assert!(!l.in_internal(VAddr::new(0x10000)));
    }

    #[test]
    fn line_classification() {
        let l = layout();
        assert!(l.app_line(0x10000 / LINE_SIZE));
        assert!(l.internal_line(0x80_0000 / LINE_SIZE));
        assert!(!l.app_line(0x80_0000 / LINE_SIZE));
    }

    #[test]
    fn all_app_pages_enumerates_range() {
        let l = layout();
        let pages: Vec<Vpn> = l.all_app_pages().collect();
        assert_eq!(pages.len(), 8);
        assert_eq!(pages[0], VAddr::new(0x10000).vpn());
    }
}
