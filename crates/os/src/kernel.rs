//! The kernel façade: physical memory, objects, address spaces, processes,
//! threads, and page-fault resolution.

use std::collections::HashMap;

use tmi_faultpoint::{FaultInjector, FaultPoint};
use tmi_machine::addr::FRAMES_PER_HUGE_PAGE;
use tmi_machine::{FrameId, PhysAddr, PhysMem, VAddr, Vpn, Width, FRAME_SIZE};

use crate::aspace::{AddressSpace, AsId, Pte};
use crate::error::OsError;
use crate::object::{MemObject, ObjId};
use crate::stats::OsStats;
use crate::task::{Pid, Process, Thread, Tid};
use crate::tlb::TlbStats;
use crate::vma::{Backing, MapRequest, PageSize, Vma};

/// Why a translation failed (the hardware's view of the fault).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PageFault {
    /// No page-table entry for the address.
    NotPresent,
    /// An entry exists but the access was a write and the page is
    /// read-only (possibly copy-on-write).
    NotWritable,
}

/// How the kernel resolved a fault — the engine uses this to charge cycles
/// and runtimes use it to maintain twin-page state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultResolution {
    /// A page (or huge-page run) was demand-paged in.
    DemandPaged {
        /// First 4 KiB page of the populated run.
        vpn: Vpn,
        /// Whether backing frames had to be freshly allocated (a "major"
        /// fault in the file-backed sense).
        major: bool,
        /// Number of 4 KiB pages populated (1, or 512 for a huge page).
        pages: u64,
        /// Whether this was a huge-page fault.
        huge: bool,
    },
    /// A copy-on-write break: the page(s) now map freshly copied private
    /// frames. For a PTSB-armed page this is the moment the twin snapshot
    /// must be taken (the private copy still equals the shared page).
    CowBroken {
        /// First 4 KiB page of the broken run.
        vpn: Vpn,
        /// The shared (original) frame of the *first* page of the run.
        shared_frame: FrameId,
        /// The private copy of the *first* page of the run.
        private_frame: FrameId,
        /// Number of 4 KiB pages copied (1, or 512 for a huge page).
        pages: u64,
        /// Whether a whole 2 MiB huge page was copied.
        huge: bool,
    },
    /// The fault had already been resolved (e.g. raced with a prior call);
    /// nothing was done.
    Spurious,
}

/// The simulated kernel.
///
/// See the crate docs for an end-to-end example.
#[derive(Debug)]
pub struct Kernel {
    physmem: PhysMem,
    objects: Vec<MemObject>,
    aspaces: Vec<AddressSpace>,
    processes: Vec<Process>,
    threads: Vec<Thread>,
    /// Reference counts for *owned* (anonymous / COW-private) frames.
    frame_refs: HashMap<FrameId, u32>,
    stats: OsStats,
    /// Optional seeded fault schedule; `None` (the default) means every
    /// operation behaves exactly as before injection existed.
    faults: Option<FaultInjector>,
    /// Whether newly created address spaces get a live software TLB.
    tlb_enabled: bool,
    /// Whether PTE-mutation shootdowns land (see
    /// [`Kernel::set_tlb_shootdown`]); `false` only under the
    /// transistency ablation.
    tlb_precise: bool,
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel {
            physmem: PhysMem::default(),
            objects: Vec::new(),
            aspaces: Vec::new(),
            processes: Vec::new(),
            threads: Vec::new(),
            frame_refs: HashMap::new(),
            stats: OsStats::default(),
            faults: None,
            tlb_enabled: true,
            tlb_precise: true,
        }
    }
}

impl Kernel {
    /// Creates an empty kernel with the software TLBs on.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty kernel with the software TLBs of every future
    /// address space on (`true`, as [`Kernel::new`]) or off (`false`: every
    /// translation walks the page table). The walk-every-time kernel is a
    /// test seam, installed by differential runs that prove the TLB
    /// behaviorally invisible.
    pub fn with_tlb(enabled: bool) -> Self {
        Kernel {
            tlb_enabled: enabled,
            ..Self::default()
        }
    }

    /// Enables or disables the software TLBs of every current and future
    /// address space (test-only; production configuration is
    /// construction-time via [`Kernel::with_tlb`]). Safe at any point in a
    /// run: toggling empties each TLB, and lookups while disabled always
    /// fall through to the page table.
    #[cfg(test)]
    pub(crate) fn set_tlb_enabled(&mut self, enabled: bool) {
        self.tlb_enabled = enabled;
        for a in &self.aspaces {
            a.tlb().set_enabled(enabled);
        }
    }

    /// Enables or disables precise PTE-mutation TLB shootdowns in every
    /// current and future address space. `false` is the transistency
    /// ablation: PTE mutations stop invalidating cached translations
    /// (the "forgotten IPI" bug class), so stale entries survive until
    /// the next full flush or local fault — which the differential
    /// oracle must then flag. Real runs never turn this off.
    pub fn set_tlb_shootdown(&mut self, precise: bool) {
        self.tlb_precise = precise;
        for a in &self.aspaces {
            a.tlb().set_precise(precise);
        }
    }

    /// Explicit single-page shootdown request (the `Op::Vm` shootdown
    /// litmus op): invalidates `vpn`'s cached translation in `aspace`.
    /// Honors the [`Kernel::set_tlb_shootdown`] ablation — an ablated
    /// kernel drops explicit requests just like implicit ones.
    pub fn shootdown_page(&mut self, aspace: AsId, vpn: Vpn) {
        self.aspace(aspace).tlb().shootdown(vpn);
    }

    /// Software-TLB counters summed over every address space.
    pub fn tlb_stats(&self) -> TlbStats {
        let mut total = TlbStats::default();
        for a in &self.aspaces {
            let s = a.tlb().stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.shootdowns += s.shootdowns;
            total.flushes += s.flushes;
        }
        total
    }

    // ----- fault injection ------------------------------------------------

    /// Installs a seeded fault schedule. Kernel operations with named
    /// fault points then fail on the injector's say-so; callers see
    /// ordinary [`OsError`] values (`OutOfFrames`, `ForkDenied`,
    /// `TransientMapFailure`) they must already be prepared to handle.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.faults = Some(injector);
    }

    fn inject(&self, point: FaultPoint) -> bool {
        self.faults.as_ref().is_some_and(|i| i.should_fail(point))
    }

    /// Rolls the frame-allocation fault point; called exactly where a
    /// physical frame is really about to be allocated so seeded schedules
    /// track real allocation pressure.
    fn inject_frame_alloc(&self, context: &'static str) -> Result<(), OsError> {
        if self.inject(FaultPoint::FrameAlloc) {
            Err(OsError::OutOfFrames { context })
        } else {
            Ok(())
        }
    }

    // ----- objects ------------------------------------------------------

    /// Creates a shared-memory object of `len` bytes (page aligned), the
    /// analogue of `shm_open` + `ftruncate`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is not a multiple of 4 KiB.
    pub fn create_object(&mut self, len: u64) -> ObjId {
        let id = ObjId(self.objects.len() as u32);
        self.objects.push(MemObject::new(id, len));
        id
    }

    /// Read-only access to an object.
    pub fn object(&self, id: ObjId) -> &MemObject {
        &self.objects[id.0 as usize]
    }

    // ----- address spaces & mappings -------------------------------------

    /// Creates an empty address space.
    pub fn create_aspace(&mut self) -> AsId {
        let id = AsId(self.aspaces.len() as u32);
        let a = AddressSpace::new(self.tlb_enabled);
        a.tlb().set_precise(self.tlb_precise);
        self.aspaces.push(a);
        id
    }

    /// Read-only access to an address space.
    pub fn aspace(&self, id: AsId) -> &AddressSpace {
        &self.aspaces[id.0 as usize]
    }

    fn aspace_mut(&mut self, id: AsId) -> &mut AddressSpace {
        &mut self.aspaces[id.0 as usize]
    }

    /// Establishes a mapping, like `mmap`.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::InvalidMapping`] for misaligned or empty requests
    /// and [`OsError::MappingOverlap`] if the range collides with an
    /// existing VMA.
    pub fn map(&mut self, aspace: AsId, req: MapRequest) -> Result<(), OsError> {
        let page = req.page_size.bytes();
        if req.len == 0 {
            return Err(OsError::InvalidMapping("zero length"));
        }
        if !req.addr.raw().is_multiple_of(page) || !req.len.is_multiple_of(page) {
            return Err(OsError::InvalidMapping("range not aligned to page size"));
        }
        if let Backing::Object { obj, offset } = req.backing {
            if offset % page != 0 {
                return Err(OsError::InvalidMapping("object offset not page aligned"));
            }
            let o = self
                .objects
                .get(obj.0 as usize)
                .ok_or(OsError::NoSuchEntity("object"))?;
            if offset + req.len > o.len() {
                return Err(OsError::InvalidMapping("mapping extends past object end"));
            }
        }
        if self.aspace(aspace).any_overlap(req.addr, req.len) {
            return Err(OsError::MappingOverlap {
                addr: req.addr,
                len: req.len,
            });
        }
        // Only a fully validated request can fail transiently — invalid
        // requests keep their deterministic errors even under injection.
        if self.inject(FaultPoint::MapTransient) {
            return Err(OsError::TransientMapFailure { op: "map" });
        }
        self.aspace_mut(aspace).push_vma(Vma {
            start: req.addr,
            len: req.len,
            backing: req.backing,
            perms: req.perms,
            page_size: req.page_size,
        });
        Ok(())
    }

    /// [`Kernel::map`] with a bounded retry loop over transient failures
    /// (the `mmap`-until-it-sticks idiom of setup code). Non-transient
    /// errors return immediately.
    ///
    /// # Errors
    ///
    /// Returns the last transient error once `max_retries` extra attempts
    /// are exhausted, or the first non-transient error.
    pub fn map_retrying(
        &mut self,
        aspace: AsId,
        req: MapRequest,
        max_retries: u32,
    ) -> Result<(), OsError> {
        let mut last = None;
        for _ in 0..=max_retries {
            match self.map(aspace, req) {
                Err(e) if e.is_transient() => last = Some(e),
                other => return other,
            }
        }
        Err(last.expect("loop ran at least once"))
    }

    // ----- translation & faults ------------------------------------------

    /// Hardware-style translation: no architectural side effects. (The
    /// address space's software TLB may fill behind this call, exactly as
    /// a hardware TLB fills on a walk — never changing the result.)
    ///
    /// Every simulated access translates here, so the TLB lookup is forced
    /// inline: the engine's access path is one large function, and there a
    /// plain `#[inline]` hint was declined, costing an out-of-line call per
    /// access.
    ///
    /// # Errors
    ///
    /// Returns the [`PageFault`] the MMU would raise.
    #[inline(always)]
    pub fn translate(
        &self,
        aspace: AsId,
        addr: VAddr,
        is_write: bool,
    ) -> Result<PhysAddr, PageFault> {
        let a = self.aspace(aspace);
        match a.lookup_translation(addr.vpn()) {
            Some((_, writable)) if is_write && !writable => Err(PageFault::NotWritable),
            Some((frame, _)) => Ok(frame.base().offset(addr.page_offset())),
            None => Err(PageFault::NotPresent),
        }
    }

    /// Resolves a page fault at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::UnmappedAddress`] (SIGSEGV) if no VMA covers the
    /// address, or [`OsError::ProtectionViolation`] for a write to a
    /// read-only, non-COW page.
    pub fn handle_fault(
        &mut self,
        aspace: AsId,
        addr: VAddr,
        is_write: bool,
    ) -> Result<FaultResolution, OsError> {
        let vpn = addr.vpn();
        match self.aspace(aspace).pte(vpn) {
            None => self.demand_page(aspace, addr, is_write),
            Some(pte) if is_write && !pte.writable => {
                if pte.cow {
                    self.break_cow(aspace, addr)
                } else {
                    Err(OsError::ProtectionViolation { aspace, addr })
                }
            }
            Some(_) => {
                // The PTE already permits the access, so the fault can only
                // have come from a translation source that is out of date —
                // i.e. a stale TLB entry surviving under the shootdown
                // ablation. The faulting core always invalidates its own
                // entry (bypassing the ablation: that models a forgotten
                // remote IPI, not a core that cannot fix its own TLB), so
                // the retried access makes progress instead of spinning.
                // Unreachable with precise shootdowns on.
                self.aspace(aspace).tlb().invalidate(vpn);
                Ok(FaultResolution::Spurious)
            }
        }
    }

    fn demand_page(
        &mut self,
        aspace: AsId,
        addr: VAddr,
        is_write: bool,
    ) -> Result<FaultResolution, OsError> {
        let vma = self.vma(aspace, addr)?;
        if is_write && !vma.perms.write {
            return Err(OsError::ProtectionViolation { aspace, addr });
        }
        match (vma.backing, vma.page_size) {
            (Backing::Anon, PageSize::Small) => {
                self.inject_frame_alloc("anonymous demand paging")?;
                let frame = self.physmem.alloc_frame();
                self.frame_refs.insert(frame, 1);
                self.aspace_mut(aspace).set_pte(
                    addr.vpn(),
                    Pte {
                        frame,
                        writable: vma.perms.write,
                        cow: false,
                        owned: true,
                    },
                );
                self.stats.anon_faults += 1;
                Ok(FaultResolution::DemandPaged {
                    vpn: addr.vpn(),
                    major: false,
                    pages: 1,
                    huge: false,
                })
            }
            (Backing::Anon, PageSize::Huge) => {
                Err(OsError::InvalidMapping("anonymous huge pages unsupported"))
            }
            (Backing::Object { .. }, PageSize::Small) => {
                let (frame, fresh) = self.object_frame(&vma, addr, Some("object demand paging"))?;
                self.aspace_mut(aspace).set_pte(
                    addr.vpn(),
                    Pte {
                        frame,
                        writable: vma.perms.write,
                        cow: false,
                        owned: false,
                    },
                );
                if fresh {
                    self.stats.major_faults += 1;
                } else {
                    self.stats.minor_faults += 1;
                }
                Ok(FaultResolution::DemandPaged {
                    vpn: addr.vpn(),
                    major: fresh,
                    pages: 1,
                    huge: false,
                })
            }
            (Backing::Object { .. }, PageSize::Huge) => {
                // Populate the whole 2 MiB chunk containing `addr`.
                let first_vpn = huge_chunk(&vma, addr);
                let (obj, first_page_in_obj) = object_page(&vma, first_vpn.base())?;
                let object = &mut self.objects[obj.0 as usize];
                let needs_alloc = (0..FRAMES_PER_HUGE_PAGE)
                    .any(|i| object.frame(first_page_in_obj + i).is_none());
                if needs_alloc {
                    self.inject_frame_alloc("huge-page population")?;
                }
                let object = &mut self.objects[obj.0 as usize];
                let fresh =
                    object.populate_run(first_page_in_obj, FRAMES_PER_HUGE_PAGE, &mut self.physmem);
                for i in 0..FRAMES_PER_HUGE_PAGE {
                    let frame = object.frame(first_page_in_obj + i).expect("just populated");
                    self.aspaces[aspace.0 as usize].set_pte(
                        Vpn(first_vpn.0 + i),
                        Pte {
                            frame,
                            writable: vma.perms.write,
                            cow: false,
                            owned: false,
                        },
                    );
                }
                self.stats.huge_faults += 1;
                Ok(FaultResolution::DemandPaged {
                    vpn: first_vpn,
                    major: fresh > 0,
                    pages: FRAMES_PER_HUGE_PAGE,
                    huge: true,
                })
            }
        }
    }

    fn break_cow(&mut self, aspace: AsId, addr: VAddr) -> Result<FaultResolution, OsError> {
        let vma = self.vma(aspace, addr)?;
        // Rolled before any PTE is touched: a failed break leaves the
        // page exactly as it was, so the fault can simply be retried.
        self.inject_frame_alloc("copy-on-write break")?;
        let huge = vma.page_size == PageSize::Huge;
        let (first_vpn, pages) = if huge {
            (huge_chunk(&vma, addr), FRAMES_PER_HUGE_PAGE)
        } else {
            (addr.vpn(), 1)
        };
        let mut first_old = None;
        let mut first_new = None;
        for i in 0..pages {
            let vpn = Vpn(first_vpn.0 + i);
            let pte = self.aspaces[aspace.0 as usize]
                .pte(vpn)
                .expect("COW break of absent page");
            if pte.writable {
                continue; // already broken (possible inside a huge run)
            }
            let old = pte.frame;
            // Sole owner of a private frame: just flip the writable bit.
            if pte.owned && self.frame_refs.get(&old).copied() == Some(1) {
                self.aspaces[aspace.0 as usize].set_pte(
                    vpn,
                    Pte {
                        writable: true,
                        cow: false,
                        ..pte
                    },
                );
                first_old.get_or_insert(old);
                first_new.get_or_insert(old);
                continue;
            }
            let new = self.physmem.alloc_frame();
            self.physmem.copy_frame(old, new);
            self.frame_refs.insert(new, 1);
            if pte.owned {
                self.unref_frame(old);
            }
            self.aspaces[aspace.0 as usize].set_pte(
                vpn,
                Pte {
                    frame: new,
                    writable: true,
                    cow: false,
                    owned: true,
                },
            );
            first_old.get_or_insert(old);
            first_new.get_or_insert(new);
        }
        self.stats.cow_breaks += 1;
        if huge {
            self.stats.huge_cow_breaks += 1;
        }
        Ok(FaultResolution::CowBroken {
            vpn: first_vpn,
            shared_frame: first_old.expect("at least one page broken"),
            private_frame: first_new.expect("at least one page broken"),
            pages,
            huge,
        })
    }

    fn unref_frame(&mut self, frame: FrameId) {
        let refs = self
            .frame_refs
            .get_mut(&frame)
            .expect("unref of untracked frame");
        *refs -= 1;
        if *refs == 0 {
            self.frame_refs.remove(&frame);
            // An ablated kernel (see [`Kernel::set_tlb_shootdown`])
            // quarantines dead frames instead of recycling them: some
            // stale TLB entry may still point here, and on real hardware
            // that use-after-free reads the frame's stale bytes — which
            // the differential oracle must observe as a divergence, not
            // as a simulator panic on an unallocated frame.
            if self.tlb_precise {
                self.physmem.free_frame(frame);
            }
        }
    }

    // ----- protection (the PTSB arming API) -------------------------------

    /// Arms copy-on-write protection on one 4 KiB page that is backed by a
    /// shared object: the `mprotect(PROT_READ)` + private-remap step of
    /// targeted repair (§3.3). If the page is not yet resident it is
    /// populated silently first.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::NotProtectable`] if the page is anonymous or
    /// holds a private copy already, [`OsError::UnmappedAddress`] if no
    /// VMA covers it, and under fault injection
    /// [`OsError::TransientMapFailure`] / [`OsError::OutOfFrames`] (the
    /// call has no side effects in that case and may be retried).
    pub fn protect_page_cow(&mut self, aspace: AsId, vpn: Vpn) -> Result<(), OsError> {
        let addr = vpn.base();
        let vma = self.vma(aspace, addr)?;
        if vma.backing == Backing::Anon {
            return Err(OsError::NotProtectable { vpn });
        }
        if self.inject(FaultPoint::ProtectPage) {
            return Err(OsError::TransientMapFailure { op: "mprotect" });
        }
        let pte = match self.aspace(aspace).pte(vpn) {
            Some(p) => p,
            None => Pte {
                frame: self
                    .object_frame(&vma, addr, Some("protect-time population"))?
                    .0,
                writable: vma.perms.write,
                cow: false,
                owned: false,
            },
        };
        if pte.owned {
            return Err(OsError::NotProtectable { vpn });
        }
        self.aspace_mut(aspace).set_pte(
            vpn,
            Pte {
                writable: false,
                cow: true,
                ..pte
            },
        );
        Ok(())
    }

    /// After a PTSB commit: discards the private copy of `vpn` (if any),
    /// remaps the page to its shared object frame, and leaves it armed
    /// (read-only, COW) so subsequent writes are tracked again (§2.2 step 5).
    ///
    /// Returns the discarded private frame, if there was one.
    ///
    /// # Errors
    ///
    /// Propagates [`OsError::NotProtectable`] / [`OsError::UnmappedAddress`]
    /// from re-arming.
    pub fn discard_private_and_rearm(
        &mut self,
        aspace: AsId,
        vpn: Vpn,
    ) -> Result<Option<FrameId>, OsError> {
        let discarded = self.remove_private(aspace, vpn);
        self.protect_page_cow(aspace, vpn)?;
        Ok(discarded)
    }

    /// Fully disarms protection on `vpn`: discards any private copy and
    /// restores a writable shared mapping.
    ///
    /// This is the rollback/degradation path, so it is deliberately
    /// allocation-free in practice (a page can only be armed once its
    /// object frame exists) and carries **no** fault point: the governor
    /// must always be able to give a page back to shared memory.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::UnmappedAddress`] / [`OsError::NotProtectable`]
    /// if the page is not object-backed.
    pub fn unprotect_page(&mut self, aspace: AsId, vpn: Vpn) -> Result<Option<FrameId>, OsError> {
        let discarded = self.remove_private(aspace, vpn);
        let addr = vpn.base();
        let vma = self.vma(aspace, addr)?;
        let (frame, _) = self.object_frame(&vma, addr, None)?;
        self.aspace_mut(aspace).set_pte(
            vpn,
            Pte {
                frame,
                writable: vma.perms.write,
                cow: false,
                owned: false,
            },
        );
        Ok(discarded)
    }

    /// Removes the PTE for `vpn`, freeing a private frame if owned.
    fn remove_private(&mut self, aspace: AsId, vpn: Vpn) -> Option<FrameId> {
        let pte = self.aspace_mut(aspace).remove_pte(vpn)?;
        if pte.owned {
            self.unref_frame(pte.frame);
            Some(pte.frame)
        } else {
            None
        }
    }

    /// The private frame currently mapped at `vpn`, if the page has been
    /// COW-broken (i.e. the thread has buffered writes there).
    pub fn private_frame(&self, aspace: AsId, vpn: Vpn) -> Option<FrameId> {
        let pte = self.aspace(aspace).pte(vpn)?;
        (pte.owned && pte.writable).then_some(pte.frame)
    }

    /// The shared object frame that backs `addr` through its VMA, ignoring
    /// any private COW copy — the "first mapping is always shared" view of
    /// Fig. 6. Populates the object page if needed.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::UnmappedAddress`] if no VMA covers the address or
    /// [`OsError::NotProtectable`] if the VMA is anonymous.
    pub fn object_paddr(&mut self, aspace: AsId, addr: VAddr) -> Result<PhysAddr, OsError> {
        let vma = self.vma(aspace, addr)?;
        let (frame, _) = self.object_frame(&vma, addr, None)?;
        Ok(frame.base().offset(addr.page_offset()))
    }

    /// The VMA covering `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::UnmappedAddress`] (SIGSEGV) if none does.
    fn vma(&self, aspace: AsId, addr: VAddr) -> Result<Vma, OsError> {
        self.aspace(aspace)
            .vma_for(addr)
            .copied()
            .ok_or(OsError::UnmappedAddress { aspace, addr })
    }

    /// The object frame behind `addr` in `vma` — the always-shared first
    /// mapping of Fig. 6 — populated on first touch. With `alloc_context`
    /// set, a page that needs a fresh frame first rolls the
    /// frame-allocation fault point under that context. Returns the frame
    /// and whether it was freshly populated.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::NotProtectable`] if `vma` is anonymous, or
    /// [`OsError::OutOfFrames`] if the roll fires.
    fn object_frame(
        &mut self,
        vma: &Vma,
        addr: VAddr,
        alloc_context: Option<&'static str>,
    ) -> Result<(FrameId, bool), OsError> {
        let (obj, page) = object_page(vma, addr)?;
        if let Some(context) = alloc_context {
            if self.objects[obj.0 as usize].frame(page).is_none() {
                self.inject_frame_alloc(context)?;
            }
        }
        Ok(self.objects[obj.0 as usize].frame_or_populate(page, &mut self.physmem))
    }

    /// Drops all residency (PTEs) from an address space, freeing private
    /// frames. Object frames survive. Used to return to a cold-start state
    /// after host-side setup so that first touches fault during simulation.
    pub fn drop_residency(&mut self, aspace: AsId) {
        let vpns: Vec<Vpn> = self.aspace(aspace).ptes().map(|(v, _)| v).collect();
        for vpn in vpns {
            self.remove_private(aspace, vpn);
        }
    }

    // ----- processes & threads --------------------------------------------

    /// Creates a process around an existing address space, with one initial
    /// thread. Returns `(pid, tid)`.
    pub fn create_process(&mut self, aspace: AsId) -> (Pid, Tid) {
        let pid = Pid(self.processes.len() as u32);
        let tid = Tid(self.threads.len() as u32);
        self.processes.push(Process {
            pid,
            aspace,
            threads: vec![tid],
        });
        self.threads.push(Thread { tid, pid });
        (pid, tid)
    }

    /// Spawns an additional thread in `pid` (the `pthread_create` path).
    pub fn spawn_thread(&mut self, pid: Pid) -> Tid {
        let tid = Tid(self.threads.len() as u32);
        self.processes[pid.0 as usize].threads.push(tid);
        self.threads.push(Thread { tid, pid });
        tid
    }

    /// Read-only view of a thread.
    pub fn thread(&self, tid: Tid) -> &Thread {
        &self.threads[tid.0 as usize]
    }

    /// Read-only view of a process.
    pub fn process(&self, pid: Pid) -> &Process {
        &self.processes[pid.0 as usize]
    }

    /// The address space thread `tid` currently runs in.
    pub fn thread_aspace(&self, tid: Tid) -> AsId {
        self.process(self.thread(tid).pid).aspace
    }

    /// Clones an address space with full `fork()` copy-on-write semantics:
    /// shared-object pages stay shared; private pages become COW in both
    /// parent and child.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::ForkDenied`] when the fork fault point fires
    /// (nothing is created or modified in that case).
    pub fn fork_aspace(&mut self, src: AsId) -> Result<AsId, OsError> {
        if self.inject(FaultPoint::Fork) {
            return Err(OsError::ForkDenied { aspace: src });
        }
        let dst = self.create_aspace();
        let vmas: Vec<Vma> = self.aspace(src).vmas().to_vec();
        let ptes: Vec<(Vpn, Pte)> = self.aspace(src).ptes().collect();
        for vma in vmas {
            self.aspace_mut(dst).push_vma(vma);
        }
        for (vpn, pte) in ptes {
            let shared_pte = if pte.owned {
                *self.frame_refs.entry(pte.frame).or_insert(1) += 1;
                let cow_pte = Pte {
                    writable: false,
                    cow: true,
                    ..pte
                };
                // Parent's copy becomes COW as well.
                self.aspace_mut(src).set_pte(vpn, cow_pte);
                cow_pte
            } else {
                pte
            };
            self.aspace_mut(dst).set_pte(vpn, shared_pte);
        }
        // The per-entry rewrites above already shot down each remapped
        // slot; real fork() ends with a broadcast shootdown of the parent,
        // so bump its generation too (a full flush, counted as such).
        self.aspace(src).tlb().flush();
        self.stats.forks += 1;
        Ok(dst)
    }

    /// Converts a running thread into a process (§3.2): the thread leaves
    /// its current process and becomes the sole thread of a new process
    /// whose address space is a fork of the old one. The thread keeps its
    /// `Tid`; the engine models the ~100 µs cost separately (Table 3).
    ///
    /// # Errors
    ///
    /// Returns [`OsError::AlreadyConverted`] if the thread is already the
    /// only member of its process, or [`OsError::ForkDenied`] if the
    /// underlying fork is vetoed (the thread stays in its old process and
    /// the call may be retried).
    pub fn convert_thread_to_process(&mut self, tid: Tid) -> Result<Pid, OsError> {
        let old_pid = self.thread(tid).pid;
        if self.process(old_pid).threads.len() == 1 {
            return Err(OsError::AlreadyConverted { tid, pid: old_pid });
        }
        let new_aspace = self.fork_aspace(self.process(old_pid).aspace)?;
        let new_pid = Pid(self.processes.len() as u32);
        self.processes.push(Process {
            pid: new_pid,
            aspace: new_aspace,
            threads: vec![tid],
        });
        self.processes[old_pid.0 as usize]
            .threads
            .retain(|&t| t != tid);
        self.threads[tid.0 as usize].pid = new_pid;
        self.stats.conversions += 1;
        Ok(new_pid)
    }

    /// Reverses a prior thread-to-process conversion: `tid` leaves the
    /// process it solely owns and rejoins `target_pid`, and the forked
    /// address space's residency is dropped, returning every private frame
    /// it owned to the allocator. The empty process and address space keep
    /// their IDs (IDs are never reused) but hold no memory.
    ///
    /// Like [`Kernel::unprotect_page`], this is a rollback path and
    /// carries no fault point — the governor must always be able to put a
    /// thread back.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::NoSuchEntity`] if `tid` is not the sole thread
    /// of its process (nothing to rejoin from).
    pub fn rejoin_thread(&mut self, tid: Tid, target_pid: Pid) -> Result<(), OsError> {
        let old_pid = self.thread(tid).pid;
        if old_pid == target_pid {
            return Ok(());
        }
        if self.process(old_pid).threads != [tid] {
            return Err(OsError::NoSuchEntity("solo process to rejoin from"));
        }
        let old_aspace = self.process(old_pid).aspace;
        self.drop_residency(old_aspace);
        self.processes[old_pid.0 as usize].threads.clear();
        self.processes[target_pid.0 as usize].threads.push(tid);
        self.threads[tid.0 as usize].pid = target_pid;
        self.stats.rejoins += 1;
        Ok(())
    }

    // ----- data-plane helpers ---------------------------------------------

    /// Direct access to physical memory (the data plane).
    pub fn physmem(&self) -> &PhysMem {
        &self.physmem
    }

    /// Mutable access to physical memory.
    pub fn physmem_mut(&mut self) -> &mut PhysMem {
        &mut self.physmem
    }

    /// Accumulated fault/fork statistics.
    pub fn stats(&self) -> &OsStats {
        &self.stats
    }

    /// Setup-time write: faults pages in as needed and writes `value`.
    /// Intended for host-side workload initialization, not simulated code.
    ///
    /// # Errors
    ///
    /// Propagates translation/fault errors.
    pub fn force_write(
        &mut self,
        aspace: AsId,
        addr: VAddr,
        width: Width,
        value: u64,
    ) -> Result<(), OsError> {
        let pa = self.fault_in(aspace, addr, true)?;
        self.physmem.write(pa, width, value);
        Ok(())
    }

    /// Setup-time read; faults the page in if needed.
    ///
    /// # Errors
    ///
    /// Propagates translation/fault errors.
    pub fn force_read(&mut self, aspace: AsId, addr: VAddr, width: Width) -> Result<u64, OsError> {
        let pa = self.fault_in(aspace, addr, false)?;
        Ok(self.physmem.read(pa, width))
    }

    /// Translates, resolving faults until translation succeeds. Transient
    /// fault-handling errors (injected out-of-frames bursts) are retried
    /// up to a small internal budget — this is host-side setup code, so
    /// the retries are not cycle-charged.
    ///
    /// # Errors
    ///
    /// Propagates unresolvable faults (SIGSEGV-class errors), or the last
    /// transient error if the retry budget is exhausted.
    pub fn fault_in(
        &mut self,
        aspace: AsId,
        addr: VAddr,
        is_write: bool,
    ) -> Result<PhysAddr, OsError> {
        let mut transient_budget = 16u32;
        loop {
            match self.translate(aspace, addr, is_write) {
                Ok(pa) => return Ok(pa),
                Err(_) => match self.handle_fault(aspace, addr, is_write) {
                    Ok(_) => {}
                    Err(e) if e.is_transient() && transient_budget > 0 => {
                        transient_budget -= 1;
                    }
                    Err(e) => return Err(e),
                },
            }
        }
    }
}

/// The object and object page that back `addr` through `vma`.
///
/// # Errors
///
/// Returns [`OsError::NotProtectable`] if `vma` is anonymous.
fn object_page(vma: &Vma, addr: VAddr) -> Result<(ObjId, u64), OsError> {
    let Backing::Object { obj, offset } = vma.backing else {
        return Err(OsError::NotProtectable { vpn: addr.vpn() });
    };
    Ok((obj, (addr.raw() - vma.start.raw() + offset) / FRAME_SIZE))
}

/// The first page of the 2 MiB chunk of a huge-page `vma` that holds
/// `addr`: chunks are aligned to the VMA's start.
fn huge_chunk(vma: &Vma, addr: VAddr) -> Vpn {
    let huge = PageSize::Huge.bytes();
    let chunk_off = (addr.raw() - vma.start.raw()) / huge * huge;
    Vpn((vma.start.raw() + chunk_off) / FRAME_SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vma::Perms;

    const MB2: u64 = 2 * 1024 * 1024;

    fn setup() -> (Kernel, AsId, ObjId) {
        let mut k = Kernel::new();
        let obj = k.create_object(64 * FRAME_SIZE);
        let a = k.create_aspace();
        k.map(
            a,
            MapRequest::object(VAddr::new(0x10000), 64 * FRAME_SIZE, obj, 0),
        )
        .unwrap();
        (k, a, obj)
    }

    #[test]
    fn demand_paging_populates_object() {
        let (mut k, a, obj) = setup();
        let addr = VAddr::new(0x10000 + 5 * FRAME_SIZE + 8);
        assert_eq!(k.translate(a, addr, false), Err(PageFault::NotPresent));
        let res = k.handle_fault(a, addr, false).unwrap();
        assert!(matches!(
            res,
            FaultResolution::DemandPaged {
                major: true,
                pages: 1,
                ..
            }
        ));
        assert!(k.translate(a, addr, false).is_ok());
        assert_eq!(k.object(obj).populated_pages(), 1);
        assert_eq!(k.stats().major_faults, 1);
    }

    #[test]
    fn second_mapper_takes_minor_fault() {
        let (mut k, a, obj) = setup();
        let b = k.create_aspace();
        k.map(
            b,
            MapRequest::object(VAddr::new(0x10000), 64 * FRAME_SIZE, obj, 0),
        )
        .unwrap();
        let addr = VAddr::new(0x10000);
        k.handle_fault(a, addr, true).unwrap();
        let res = k.handle_fault(b, addr, false).unwrap();
        assert!(matches!(
            res,
            FaultResolution::DemandPaged { major: false, .. }
        ));
        // Both spaces translate to the same physical frame: shared memory.
        let pa = k.translate(a, addr, false).unwrap();
        let pb = k.translate(b, addr, false).unwrap();
        assert_eq!(pa, pb);
    }

    #[test]
    fn shared_writes_are_visible_across_spaces() {
        let (mut k, a, obj) = setup();
        let b = k.create_aspace();
        k.map(
            b,
            MapRequest::object(VAddr::new(0x40000), 64 * FRAME_SIZE, obj, 0),
        )
        .unwrap();
        k.force_write(a, VAddr::new(0x10010), Width::W8, 77)
            .unwrap();
        // Different virtual addresses, same object page.
        assert_eq!(k.force_read(b, VAddr::new(0x40010), Width::W8).unwrap(), 77);
    }

    #[test]
    fn unmapped_access_is_sigsegv() {
        let (mut k, a, _) = setup();
        let err = k
            .handle_fault(a, VAddr::new(0xdead0000), false)
            .unwrap_err();
        assert!(matches!(err, OsError::UnmappedAddress { .. }));
    }

    #[test]
    fn write_to_readonly_vma_is_protection_violation() {
        let mut k = Kernel::new();
        let obj = k.create_object(FRAME_SIZE);
        let a = k.create_aspace();
        k.map(
            a,
            MapRequest::object(VAddr::new(0x1000), FRAME_SIZE, obj, 0).perms(Perms::ro()),
        )
        .unwrap();
        let err = k.handle_fault(a, VAddr::new(0x1000), true).unwrap_err();
        assert!(matches!(err, OsError::ProtectionViolation { .. }));
    }

    #[test]
    fn ptsb_arm_break_and_commit_cycle() {
        let (mut k, a, _) = setup();
        let addr = VAddr::new(0x10000);
        let vpn = addr.vpn();
        k.force_write(a, addr, Width::W8, 1).unwrap();
        k.protect_page_cow(a, vpn).unwrap();
        assert_eq!(k.translate(a, addr, true), Err(PageFault::NotWritable));
        assert!(k.translate(a, addr, false).is_ok(), "reads still fine");

        // Write faults break COW into a private copy.
        let res = k.handle_fault(a, addr, true).unwrap();
        let FaultResolution::CowBroken {
            shared_frame,
            private_frame,
            ..
        } = res
        else {
            panic!("expected CowBroken, got {res:?}");
        };
        assert_ne!(shared_frame, private_frame);
        assert_eq!(k.private_frame(a, vpn), Some(private_frame));

        // Private copy starts equal to the shared page (twin invariant).
        assert_eq!(
            k.physmem().read(private_frame.base(), Width::W8),
            k.physmem().read(shared_frame.base(), Width::W8),
        );

        // A write through the private mapping does not touch shared memory.
        k.force_write(a, addr, Width::W8, 42).unwrap();
        assert_eq!(k.physmem().read(shared_frame.base(), Width::W8), 1);
        assert_eq!(k.physmem().read(private_frame.base(), Width::W8), 42);

        // Commit: discard private copy, re-arm.
        let discarded = k.discard_private_and_rearm(a, vpn).unwrap();
        assert_eq!(discarded, Some(private_frame));
        assert_eq!(k.translate(a, addr, true), Err(PageFault::NotWritable));
        // Reads now see shared data again.
        assert_eq!(k.force_read(a, addr, Width::W8).unwrap(), 1);
    }

    #[test]
    fn unprotect_restores_writable_shared_mapping() {
        let (mut k, a, _) = setup();
        let addr = VAddr::new(0x10000);
        k.force_write(a, addr, Width::W8, 9).unwrap();
        k.protect_page_cow(a, addr.vpn()).unwrap();
        k.handle_fault(a, addr, true).unwrap();
        k.unprotect_page(a, addr.vpn()).unwrap();
        assert!(k.translate(a, addr, true).is_ok());
        assert_eq!(k.force_read(a, addr, Width::W8).unwrap(), 9);
    }

    #[test]
    fn protect_anon_page_rejected() {
        let mut k = Kernel::new();
        let a = k.create_aspace();
        k.map(a, MapRequest::anon(VAddr::new(0x1000), FRAME_SIZE))
            .unwrap();
        k.handle_fault(a, VAddr::new(0x1000), true).unwrap();
        let err = k.protect_page_cow(a, VAddr::new(0x1000).vpn()).unwrap_err();
        assert!(matches!(err, OsError::NotProtectable { .. }));
    }

    #[test]
    fn fork_gives_cow_semantics_for_anon_memory() {
        let mut k = Kernel::new();
        let a = k.create_aspace();
        k.map(a, MapRequest::anon(VAddr::new(0x1000), FRAME_SIZE))
            .unwrap();
        let addr = VAddr::new(0x1000);
        k.force_write(a, addr, Width::W8, 5).unwrap();
        let b = k.fork_aspace(a).unwrap();
        // Both read the same value...
        assert_eq!(k.force_read(b, addr, Width::W8).unwrap(), 5);
        // ...child writes do not leak to the parent.
        k.force_write(b, addr, Width::W8, 6).unwrap();
        assert_eq!(k.force_read(a, addr, Width::W8).unwrap(), 5);
        assert_eq!(k.force_read(b, addr, Width::W8).unwrap(), 6);
        // Parent's subsequent write also COWs (or reclaims sole ownership).
        k.force_write(a, addr, Width::W8, 7).unwrap();
        assert_eq!(k.force_read(b, addr, Width::W8).unwrap(), 6);
    }

    #[test]
    fn t2p_conversion_shares_object_memory() {
        let (mut k, a, _) = setup();
        let (pid, t0) = k.create_process(a);
        let t1 = k.spawn_thread(pid);
        k.force_write(a, VAddr::new(0x10020), Width::W8, 11)
            .unwrap();

        let new_pid = k.convert_thread_to_process(t1).unwrap();
        assert_ne!(new_pid, pid);
        assert_eq!(k.thread(t1).pid, new_pid);
        assert_eq!(k.thread(t0).pid, pid);
        assert_eq!(k.process(pid).threads, vec![t0]);

        // Object memory stays shared after conversion.
        let b = k.thread_aspace(t1);
        assert_ne!(a, b);
        assert_eq!(k.force_read(b, VAddr::new(0x10020), Width::W8).unwrap(), 11);
        k.force_write(b, VAddr::new(0x10020), Width::W8, 12)
            .unwrap();
        assert_eq!(k.force_read(a, VAddr::new(0x10020), Width::W8).unwrap(), 12);
        assert_eq!(k.stats().conversions, 1);
    }

    #[test]
    fn t2p_of_sole_thread_errors() {
        let (mut k, a, _) = setup();
        let (_, t0) = k.create_process(a);
        let err = k.convert_thread_to_process(t0).unwrap_err();
        assert!(matches!(err, OsError::AlreadyConverted { .. }));
    }

    #[test]
    fn ptsb_after_t2p_isolates_only_protected_page() {
        // End-to-end skeleton of targeted repair: convert, protect one page,
        // check isolation on that page and sharing on the rest.
        let (mut k, a, _) = setup();
        let (pid, _t0) = k.create_process(a);
        let t1 = k.spawn_thread(pid);
        k.convert_thread_to_process(t1).unwrap();
        let b = k.thread_aspace(t1);

        let hot = VAddr::new(0x10000);
        let cold = VAddr::new(0x10000 + FRAME_SIZE);
        k.force_write(a, hot, Width::W8, 1).unwrap();
        k.protect_page_cow(b, hot.vpn()).unwrap();

        // t1's write to the hot page goes to a private frame...
        k.force_write(b, hot.offset(8), Width::W8, 2).unwrap();
        let pa_a = k.fault_in(a, hot.offset(8), false).unwrap();
        let pa_b = k.translate(b, hot.offset(8), false).unwrap();
        assert_ne!(pa_a.frame(), pa_b.frame(), "hot page is isolated");

        // ...but the cold page stays shared.
        k.force_write(b, cold, Width::W8, 3).unwrap();
        assert_eq!(k.force_read(a, cold, Width::W8).unwrap(), 3);
    }

    #[test]
    fn huge_page_mapping_faults_whole_chunk() {
        let mut k = Kernel::new();
        let obj = k.create_object(2 * MB2);
        let a = k.create_aspace();
        k.map(
            a,
            MapRequest::object(VAddr::new(4 * MB2), 2 * MB2, obj, 0).huge(),
        )
        .unwrap();
        let res = k
            .handle_fault(a, VAddr::new(4 * MB2 + 12345), false)
            .unwrap();
        assert!(matches!(
            res,
            FaultResolution::DemandPaged {
                huge: true,
                pages: 512,
                ..
            }
        ));
        assert_eq!(k.stats().huge_faults, 1);
        // The whole first chunk is now resident; the second is not.
        assert!(k.translate(a, VAddr::new(4 * MB2 + MB2 - 1), false).is_ok());
        assert!(k.translate(a, VAddr::new(5 * MB2), false).is_err());
        // Frames are physically contiguous, so line adjacency is preserved.
        let p0 = k.translate(a, VAddr::new(4 * MB2), false).unwrap();
        let p1 = k
            .translate(a, VAddr::new(4 * MB2 + FRAME_SIZE), false)
            .unwrap();
        assert_eq!(p1.raw() - p0.raw(), FRAME_SIZE);
    }

    #[test]
    fn huge_cow_break_copies_whole_chunk() {
        let mut k = Kernel::new();
        let obj = k.create_object(MB2);
        let a = k.create_aspace();
        k.map(a, MapRequest::object(VAddr::new(MB2), MB2, obj, 0).huge())
            .unwrap();
        k.handle_fault(a, VAddr::new(MB2), false).unwrap();
        for vpn_i in 0..512 {
            k.protect_page_cow(a, Vpn(MB2 / FRAME_SIZE + vpn_i))
                .unwrap();
        }
        let res = k
            .handle_fault(a, VAddr::new(MB2 + 8 * FRAME_SIZE), true)
            .unwrap();
        assert!(matches!(
            res,
            FaultResolution::CowBroken {
                huge: true,
                pages: 512,
                ..
            }
        ));
        assert_eq!(k.stats().huge_cow_breaks, 1);
        // Every page of the chunk is now private and writable.
        for vpn_i in 0..512 {
            assert!(k.private_frame(a, Vpn(MB2 / FRAME_SIZE + vpn_i)).is_some());
        }
    }

    #[test]
    fn drop_residency_forces_refaults() {
        let (mut k, a, _) = setup();
        k.force_write(a, VAddr::new(0x10000), Width::W8, 3).unwrap();
        assert!(k.aspace(a).resident_pages() > 0);
        k.drop_residency(a);
        assert_eq!(k.aspace(a).resident_pages(), 0);
        // Data survives in the object.
        assert_eq!(k.force_read(a, VAddr::new(0x10000), Width::W8).unwrap(), 3);
        assert!(k.stats().minor_faults >= 1);
    }

    #[test]
    fn overlapping_map_rejected() {
        let (mut k, a, obj) = setup();
        let err = k
            .map(
                a,
                MapRequest::object(VAddr::new(0x10000), FRAME_SIZE, obj, 0),
            )
            .unwrap_err();
        assert!(matches!(err, OsError::MappingOverlap { .. }));
    }

    #[test]
    fn map_validation() {
        let mut k = Kernel::new();
        let obj = k.create_object(FRAME_SIZE);
        let a = k.create_aspace();
        assert!(k
            .map(
                a,
                MapRequest::object(VAddr::new(0x1001), FRAME_SIZE, obj, 0)
            )
            .is_err());
        assert!(k
            .map(a, MapRequest::object(VAddr::new(0x1000), 0, obj, 0))
            .is_err());
        assert!(k
            .map(
                a,
                MapRequest::object(VAddr::new(0x1000), 2 * FRAME_SIZE, obj, 0)
            )
            .is_err());
    }

    #[test]
    fn tlb_shootdown_on_mprotect_cow_break_and_fork() {
        let (mut k, a, _) = setup();
        let addr = VAddr::new(0x10000);
        let vpn = addr.vpn();
        k.force_write(a, addr, Width::W8, 1).unwrap();
        // Warm the TLB, then check it answers.
        k.translate(a, addr, true).unwrap();
        k.translate(a, addr, true).unwrap();
        assert!(k.aspace(a).tlb().stats().hits >= 1);

        // mprotect analogue (PTSB arming) must shoot the cached entry
        // down: a cached writable translation would miss the write fault.
        let before = k.aspace(a).tlb().stats().shootdowns;
        k.protect_page_cow(a, vpn).unwrap();
        assert!(k.aspace(a).tlb().stats().shootdowns > before);
        assert_eq!(k.translate(a, addr, true), Err(PageFault::NotWritable));

        // COW break remaps onto a private frame; the read-only cached
        // entry must die so the new frame is visible.
        k.translate(a, addr, false).unwrap(); // cache the RO mapping
        let before = k.aspace(a).tlb().stats().shootdowns;
        k.handle_fault(a, addr, true).unwrap();
        assert!(k.aspace(a).tlb().stats().shootdowns > before);
        let private = k.private_frame(a, vpn).expect("broken");
        assert_eq!(k.translate(a, addr, true).unwrap().frame(), private);

        // Fork write-protects the parent's owned pages and ends with a
        // broadcast flush of the parent's TLB.
        let before = k.aspace(a).tlb().stats().flushes;
        let b = k.fork_aspace(a).unwrap();
        assert!(k.aspace(a).tlb().stats().flushes > before);
        assert_eq!(k.translate(a, addr, true), Err(PageFault::NotWritable));
        assert_eq!(k.translate(b, addr, true), Err(PageFault::NotWritable));
        assert!(k.translate(a, addr, false).is_ok());
    }

    #[test]
    fn pte_mutation_shootdowns_hit_only_the_targeted_page() {
        let (mut k, a, _) = setup();
        let hot = VAddr::new(0x10000); // vpn base + 0
        let cold = VAddr::new(0x10000 + FRAME_SIZE); // neighbor page
        k.force_write(a, hot, Width::W8, 1).unwrap();
        k.force_write(a, cold, Width::W8, 2).unwrap();
        // Warm both translations into the TLB.
        k.translate(a, hot, true).unwrap();
        k.translate(a, cold, true).unwrap();

        // Arm only `hot`: exactly its entry must be invalidated. The
        // neighbor keeps answering from the TLB — its hit counter moves
        // and its miss counter does not.
        k.protect_page_cow(a, hot.vpn()).unwrap();
        let s0 = k.aspace(a).tlb().stats();
        assert!(k.translate(a, cold, true).is_ok());
        let s1 = k.aspace(a).tlb().stats();
        assert_eq!((s1.hits, s1.misses), (s0.hits + 1, s0.misses));
        // The armed page itself walks the table and faults the write.
        assert_eq!(k.translate(a, hot, true), Err(PageFault::NotWritable));
        let s2 = k.aspace(a).tlb().stats();
        assert_eq!(s2.misses, s1.misses + 1);

        // Breaking the COW (a set_pte remap) is just as precise.
        k.translate(a, hot, false).unwrap(); // re-cache the RO entry
        k.translate(a, cold, false).unwrap();
        let before = k.aspace(a).tlb().stats().shootdowns;
        k.handle_fault(a, hot, true).unwrap();
        assert!(k.aspace(a).tlb().stats().shootdowns > before);
        let s3 = k.aspace(a).tlb().stats();
        assert!(k.translate(a, cold, false).is_ok());
        assert_eq!(k.aspace(a).tlb().stats().hits, s3.hits + 1);

        // Dropping the private copy (remove_pte + set_pte) shoots down
        // the remapped page, and only it.
        k.translate(a, hot, true).unwrap(); // cache the private mapping
        let before = k.aspace(a).tlb().stats().shootdowns;
        k.unprotect_page(a, hot.vpn()).unwrap();
        assert!(k.aspace(a).tlb().stats().shootdowns > before);
        let s4 = k.aspace(a).tlb().stats();
        assert!(k.translate(a, cold, false).is_ok());
        assert_eq!(k.aspace(a).tlb().stats().hits, s4.hits + 1);
    }

    #[test]
    fn fork_flush_leaves_no_stale_service_even_when_ablated() {
        // The shootdown ablation only drops per-PTE IPIs; fork's broadcast
        // flush is a generation bump and must keep working, so no entry
        // cached before the fork can ever serve a translation after it.
        let (mut k, a, _) = setup();
        k.set_tlb_shootdown(false);
        let addrs: Vec<VAddr> = (0..8)
            .map(|i| VAddr::new(0x10000 + i * FRAME_SIZE))
            .collect();
        for (i, &addr) in addrs.iter().enumerate() {
            k.force_write(a, addr, Width::W8, i as u64).unwrap();
            // Give each page a private (owned) frame — fork only
            // write-protects owned pages — then cache the writable entry.
            k.protect_page_cow(a, addr.vpn()).unwrap();
            k.handle_fault(a, addr, true).unwrap();
            k.translate(a, addr, true).unwrap();
        }
        let b = k.fork_aspace(a).unwrap();
        for &addr in &addrs {
            // A stale writable entry would let this write through; the
            // post-fork truth is read-only COW on both sides.
            assert_eq!(k.translate(a, addr, true), Err(PageFault::NotWritable));
            assert_eq!(k.translate(b, addr, true), Err(PageFault::NotWritable));
        }
    }

    #[test]
    fn ablated_shootdowns_leave_stale_entries_and_faults_self_heal() {
        let (mut k, a, _) = setup();
        k.set_tlb_shootdown(false);
        let addr = VAddr::new(0x10000);
        k.force_write(a, addr, Width::W8, 7).unwrap();
        k.translate(a, addr, true).unwrap(); // cache a writable entry
        k.protect_page_cow(a, addr.vpn()).unwrap();
        // The ablated kernel forgot the IPI: the stale writable entry
        // still answers a write the armed PTE should have faulted — this
        // is exactly the bug class the transistency oracle must catch.
        assert!(k.translate(a, addr, true).is_ok(), "stale entry serves");

        // Now build the opposite staleness: cache the read-only truth
        // (after deliberately dropping the stale entry via the enable
        // toggle, whose generation bump is not an IPI), then break the
        // COW so the cached entry is stale-RO.
        k.set_tlb_enabled(true);
        k.translate(a, addr, false).unwrap();
        k.handle_fault(a, addr, true).unwrap(); // COW break, IPI dropped
        assert_eq!(
            k.translate(a, addr, true),
            Err(PageFault::NotWritable),
            "stale read-only entry shadows the new private mapping"
        );
        // The local fault handler invalidates its own entry (Spurious
        // resolution), so the retried access makes progress instead of
        // spinning on the stale translation forever.
        assert!(matches!(
            k.handle_fault(a, addr, true),
            Ok(FaultResolution::Spurious)
        ));
        assert!(k.translate(a, addr, true).is_ok());

        // Explicit shootdown requests are dropped while ablated, and
        // land again once precision is restored.
        k.translate(a, addr, false).unwrap();
        let cached = k.aspace(a).tlb().stats().hits;
        k.shootdown_page(a, addr.vpn());
        k.translate(a, addr, false).unwrap();
        assert_eq!(k.aspace(a).tlb().stats().hits, cached + 1, "still cached");
        k.set_tlb_shootdown(true);
        k.shootdown_page(a, addr.vpn());
        let misses = k.aspace(a).tlb().stats().misses;
        k.translate(a, addr, false).unwrap();
        assert_eq!(k.aspace(a).tlb().stats().misses, misses + 1);
    }

    #[test]
    fn tlb_disabled_matches_reference_translation() {
        let run = |tlb: bool| {
            let (mut k, a, _) = setup();
            k.set_tlb_enabled(tlb);
            let mut log = Vec::new();
            for i in 0..16u64 {
                let addr = VAddr::new(0x10000 + i * 8 % (8 * FRAME_SIZE));
                log.push(k.translate(a, addr, i % 2 == 0));
                let _ = k.handle_fault(a, addr, i % 2 == 0);
                log.push(k.translate(a, addr, i % 2 == 0));
                if i % 5 == 0 {
                    // May fail once the page holds a private copy; both
                    // paths must agree on that too.
                    let armed = k.protect_page_cow(a, addr.vpn()).is_ok();
                    log.push(if armed {
                        k.translate(a, addr, true)
                    } else {
                        Err(PageFault::NotPresent)
                    });
                }
            }
            log
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn object_paddr_bypasses_protection() {
        let (mut k, a, _) = setup();
        let addr = VAddr::new(0x10000);
        k.force_write(a, addr, Width::W8, 1).unwrap();
        k.protect_page_cow(a, addr.vpn()).unwrap();
        k.handle_fault(a, addr, true).unwrap(); // break COW
        k.force_write(a, addr, Width::W8, 99).unwrap(); // private write
        let shared = k.object_paddr(a, addr).unwrap();
        assert_eq!(
            k.physmem().read(shared, Width::W8),
            1,
            "shared view unchanged"
        );
    }
}
