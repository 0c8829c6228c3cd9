//! Virtual memory areas: the per-address-space region list consulted on
//! page faults, mirroring Linux's VMA list (`/proc/pid/maps`, which TMI's
//! detector reads in §3.1 to filter addresses).

use tmi_machine::{VAddr, FRAME_SIZE};

use crate::object::ObjId;

/// Read/write permissions on a mapping.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Perms {
    /// Reads allowed.
    pub read: bool,
    /// Writes allowed.
    pub write: bool,
}

impl Perms {
    /// Read-write.
    pub const fn rw() -> Self {
        Perms {
            read: true,
            write: true,
        }
    }

    /// Read-only.
    pub const fn ro() -> Self {
        Perms {
            read: true,
            write: false,
        }
    }
}

/// Page size used to populate a mapping.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PageSize {
    /// Standard 4 KiB pages.
    #[default]
    Small,
    /// 2 MiB huge pages (`MAP_HUGETLB | MAP_HUGE_2MB`, §4.4). Faults
    /// populate 512 contiguous frames at once, and copy-on-write / diffing
    /// operate on the whole 2 MiB chunk.
    Huge,
}

impl PageSize {
    /// Bytes per page of this size.
    pub const fn bytes(self) -> u64 {
        match self {
            PageSize::Small => FRAME_SIZE,
            PageSize::Huge => tmi_machine::addr::HUGE_PAGE_SIZE,
        }
    }
}

/// What backs a mapping.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backing {
    /// A shared-memory object ([`crate::MemObject`]), like a `MAP_SHARED`
    /// file mapping: stores are visible to every mapping of the object.
    Object {
        /// The backing object.
        obj: ObjId,
        /// Byte offset of the mapping within the object.
        offset: u64,
    },
    /// Anonymous demand-zero memory private to the address space
    /// (`MAP_PRIVATE | MAP_ANONYMOUS`).
    Anon,
}

/// A contiguous mapped region of an address space.
#[derive(Clone, Copy, Debug)]
pub struct Vma {
    /// First mapped address.
    pub start: VAddr,
    /// Length in bytes (page aligned).
    pub len: u64,
    /// Backing store.
    pub backing: Backing,
    /// Permissions applied to pages faulted in through this VMA.
    pub perms: Perms,
    /// Page size for population and protection granularity.
    pub page_size: PageSize,
}

impl Vma {
    /// True if `addr` falls inside this region.
    pub fn contains(&self, addr: VAddr) -> bool {
        addr >= self.start && addr.raw() < self.start.raw() + self.len
    }

    /// True if this region overlaps `[start, start+len)`.
    pub fn overlaps(&self, start: VAddr, len: u64) -> bool {
        start.raw() < self.start.raw() + self.len && self.start.raw() < start.raw() + len
    }

    /// One past the last mapped address.
    pub fn end(&self) -> VAddr {
        VAddr::new(self.start.raw() + self.len)
    }
}

/// Builder-style description of a requested mapping, passed to
/// [`crate::Kernel::map`].
#[derive(Clone, Copy, Debug)]
pub struct MapRequest {
    /// First address of the requested range (must be page aligned).
    pub addr: VAddr,
    /// Length in bytes (must be a positive multiple of the page size).
    pub len: u64,
    /// Backing store.
    pub backing: Backing,
    /// Permissions.
    pub perms: Perms,
    /// Page size.
    pub page_size: PageSize,
}

impl MapRequest {
    /// A shared mapping of `obj` starting at byte `offset` within it.
    pub fn object(addr: VAddr, len: u64, obj: ObjId, offset: u64) -> Self {
        MapRequest {
            addr,
            len,
            backing: Backing::Object { obj, offset },
            perms: Perms::rw(),
            page_size: PageSize::Small,
        }
    }

    /// An anonymous private mapping.
    pub fn anon(addr: VAddr, len: u64) -> Self {
        MapRequest {
            addr,
            len,
            backing: Backing::Anon,
            perms: Perms::rw(),
            page_size: PageSize::Small,
        }
    }

    /// Sets the permissions.
    pub fn perms(mut self, perms: Perms) -> Self {
        self.perms = perms;
        self
    }

    /// Requests 2 MiB huge pages.
    pub fn huge(mut self) -> Self {
        self.page_size = PageSize::Huge;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vma(start: u64, len: u64) -> Vma {
        Vma {
            start: VAddr::new(start),
            len,
            backing: Backing::Anon,
            perms: Perms::rw(),
            page_size: PageSize::Small,
        }
    }

    #[test]
    fn containment() {
        let v = vma(0x1000, 0x2000);
        assert!(v.contains(VAddr::new(0x1000)));
        assert!(v.contains(VAddr::new(0x2fff)));
        assert!(!v.contains(VAddr::new(0x3000)));
        assert!(!v.contains(VAddr::new(0xfff)));
    }

    #[test]
    fn overlap() {
        let v = vma(0x1000, 0x1000);
        assert!(v.overlaps(VAddr::new(0x1800), 0x1000));
        assert!(v.overlaps(VAddr::new(0x0), 0x1001));
        assert!(!v.overlaps(VAddr::new(0x2000), 0x1000));
        assert!(!v.overlaps(VAddr::new(0x0), 0x1000));
    }

    #[test]
    fn page_size_geometry() {
        assert_eq!(PageSize::Small.bytes(), 4096);
        assert_eq!(PageSize::Huge.bytes(), 2 * 1024 * 1024);
    }
}
