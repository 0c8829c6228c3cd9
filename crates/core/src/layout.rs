//! The TMI process memory layout (Fig. 6).
//!
//! At program start TMI's allocator backs the application's heap, globals
//! and stacks with one shared-memory object so threads-turned-processes
//! can keep sharing it; a second, separate shared object holds TMI's own
//! state — most importantly the process-shared synchronization objects
//! that interposed `pthread_mutex_t`s point at (§3.2).
//!
//! An [`AppLayout`] describes that process and builds it.
//! [`AppLayout::install`] creates the app object, then the internal
//! object, then the root address space; maps the app object (on 2 MiB
//! pages when [`AppLayout::huge_pages`] is set) and the internal object,
//! retrying transient map failures; and creates the root process. Every
//! harness, test and example that runs a simulated process builds it this
//! way. A kernel seam whose map rolls matter, such as a fault injector,
//! goes in before `install`.

use tmi_machine::{VAddr, Vpn, FRAME_SIZE, LINE_SIZE};
use tmi_os::{AsId, MapRequest};
use tmi_sim::{Engine, RuntimeHooks};

/// Extra attempts [`AppLayout::install`] gives a map that fails
/// transiently; an injected failure burst is far shorter.
const MAP_RETRIES: u32 = 8;

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
    /// Builds the process in `engine`'s kernel, in the order the module
    /// docs give, and returns the root address space.
    ///
    /// # Panics
    ///
    /// Panics if a map fails persistently or the layout is invalid (the
    /// regions overlap or are not page aligned).
    pub fn install<R: RuntimeHooks>(&self, engine: &mut Engine<R>) -> AsId {
        let kernel = &mut engine.core_mut().kernel;
        let app = kernel.create_object(self.app_len);
        let internal = kernel.create_object(self.internal_len);
        let aspace = kernel.create_aspace();
        let mut app_map = MapRequest::object(self.app_start, self.app_len, app, 0);
        if self.huge_pages {
            app_map = app_map.huge();
        }
        kernel
            .map_retrying(aspace, app_map, MAP_RETRIES)
            .expect("map app object");
        let internal_map = MapRequest::object(self.internal_start, self.internal_len, internal, 0);
        kernel
            .map_retrying(aspace, internal_map, MAP_RETRIES)
            .expect("map internal object");
        engine.create_root_process(aspace);
        aspace
    }

    /// The process-shared lock area (§3.2): it starts one line into the
    /// internal region, leaving line 0 for TMI state, and spans the
    /// region's first quarter. Returns `(start, len)`.
    pub fn lock_area(&self) -> (VAddr, u64) {
        (self.internal_start.offset(LINE_SIZE), self.internal_len / 4)
    }

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
    use tmi_faultpoint::{FaultInjector, FaultPlan, FaultPoint, PointPlan};
    use tmi_machine::addr::HUGE_PAGE_SIZE;
    use tmi_os::{Backing, ObjId, PageSize, Pid};
    use tmi_sim::{EngineConfig, NullRuntime};

    const LAYOUT: AppLayout = AppLayout {
        app_start: VAddr::new(0x10000),
        app_len: 8 * FRAME_SIZE,
        internal_start: VAddr::new(0x80_0000),
        internal_len: 4 * FRAME_SIZE,
        huge_pages: false,
    };

    #[test]
    fn range_membership() {
        let l = LAYOUT;
        assert!(l.in_app(VAddr::new(0x10000)));
        assert!(l.in_app(VAddr::new(0x10000 + 8 * FRAME_SIZE - 1)));
        assert!(!l.in_app(VAddr::new(0x10000 + 8 * FRAME_SIZE)));
        assert!(l.in_internal(VAddr::new(0x80_0040)));
        assert!(!l.in_internal(VAddr::new(0x10000)));
    }

    #[test]
    fn line_classification() {
        let l = LAYOUT;
        assert!(l.app_line(0x10000 / LINE_SIZE));
        assert!(l.internal_line(0x80_0000 / LINE_SIZE));
        assert!(!l.app_line(0x80_0000 / LINE_SIZE));
    }

    #[test]
    fn all_app_pages_enumerates_range() {
        let l = LAYOUT;
        let pages: Vec<Vpn> = l.all_app_pages().collect();
        assert_eq!(pages.len(), 8);
        assert_eq!(pages[0], VAddr::new(0x10000).vpn());
    }

    #[test]
    fn lock_area_is_the_first_quarter_after_line_zero() {
        let (start, len) = LAYOUT.lock_area();
        assert_eq!(
            (start, len),
            (VAddr::new(0x80_0000 + LINE_SIZE), FRAME_SIZE)
        );
    }

    /// Installs `layout` into a fresh engine, after `injector` if one is
    /// given, and checks what it built: the two object-backed mappings at
    /// the layout's addresses (app object first), the app on 2 MiB pages
    /// exactly when asked, and the root process owning the address space.
    fn install_and_check(layout: AppLayout, injector: Option<FaultInjector>) {
        let mut e = Engine::new(EngineConfig::with_cores(2), NullRuntime);
        if let Some(inj) = injector {
            e.core_mut().kernel.set_fault_injector(inj);
        }
        let aspace = layout.install(&mut e);
        let kernel = &e.core().kernel;
        let app_pages = if layout.huge_pages {
            PageSize::Huge
        } else {
            PageSize::Small
        };
        let want = [
            (layout.app_start, layout.app_len, app_pages),
            (layout.internal_start, layout.internal_len, PageSize::Small),
        ];
        let vmas = kernel.aspace(aspace).vmas();
        assert_eq!(vmas.len(), want.len());
        for (i, (vma, (start, len, page_size))) in vmas.iter().zip(want).enumerate() {
            let obj = ObjId(i as u32);
            assert_eq!((vma.start, vma.len, vma.page_size), (start, len, page_size));
            assert_eq!(vma.backing, Backing::Object { obj, offset: 0 });
            assert_eq!(kernel.object(obj).len(), len);
        }
        let root = kernel.process(Pid(0));
        assert_eq!((root.aspace, root.threads.len()), (aspace, 1));
    }

    #[test]
    fn install_builds_the_layouts_process() {
        install_and_check(LAYOUT, None);
        let huge = AppLayout {
            app_start: VAddr::new(HUGE_PAGE_SIZE),
            app_len: 2 * HUGE_PAGE_SIZE,
            huge_pages: true,
            ..LAYOUT
        };
        install_and_check(huge, None);
        install_and_check(
            AppLayout {
                huge_pages: false,
                ..huge
            },
            None,
        );
    }

    #[test]
    fn install_retries_a_transient_map_failure() {
        // Every second roll fails: the app map's roll passes, the internal
        // map's first roll fails and its retry passes.
        let plan = FaultPlan::quiet().with(FaultPoint::MapTransient, PointPlan::transient(2, 1));
        let inj = FaultInjector::new(plan);
        install_and_check(LAYOUT, Some(inj.clone()));
        let map = inj.stats().get(FaultPoint::MapTransient);
        assert_eq!((map.rolls, map.fired), (3, 1));
    }
}
