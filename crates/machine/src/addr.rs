//! Address arithmetic newtypes shared across the simulator.
//!
//! Physical addresses, cache-line addresses and frame numbers are given
//! distinct types so that virtual/physical confusion (the central hazard in a
//! system that remaps pages behind a program's back) is a compile error
//! rather than a debugging session.

use std::fmt;

/// Size of a cache line in bytes (64 B, as on the Haswell machines in §4.1).
pub const LINE_SIZE: u64 = 64;

/// Size of a physical frame / small page in bytes (4 KiB).
pub const FRAME_SIZE: u64 = 4096;

/// Size of a huge page in bytes (2 MiB, `MAP_HUGE_2MB` in §4.4).
pub const HUGE_PAGE_SIZE: u64 = 2 * 1024 * 1024;

/// Number of 4 KiB frames backing one 2 MiB huge page.
pub const FRAMES_PER_HUGE_PAGE: u64 = HUGE_PAGE_SIZE / FRAME_SIZE;

/// Identifier of a core (hardware context).
pub type CoreId = usize;

/// A physical byte address.
///
/// Cache lines are indexed by physical address; this is the property that
/// makes TMI's remapping repair work (see crate docs).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(u64);

impl PhysAddr {
    /// Creates a physical address from a raw byte offset into physical memory.
    pub const fn new(raw: u64) -> Self {
        PhysAddr(raw)
    }

    /// Returns the raw byte address.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the cache line this address falls on.
    pub const fn line(self) -> LineAddr {
        LineAddr(self.0 / LINE_SIZE)
    }

    /// Returns the frame this address falls in.
    pub const fn frame(self) -> FrameId {
        FrameId((self.0 / FRAME_SIZE) as u32)
    }

    /// Returns the byte offset within the containing frame.
    pub const fn frame_offset(self) -> u64 {
        self.0 % FRAME_SIZE
    }

    /// Returns the byte offset within the containing cache line.
    pub const fn line_offset(self) -> u64 {
        self.0 % LINE_SIZE
    }

    /// Returns this address displaced by `delta` bytes.
    pub const fn offset(self, delta: u64) -> Self {
        PhysAddr(self.0 + delta)
    }
}

impl fmt::Debug for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PhysAddr({:#x})", self.0)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A cache-line number (physical address divided by [`LINE_SIZE`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from a raw line number.
    pub const fn new(raw: u64) -> Self {
        LineAddr(raw)
    }

    /// Returns the raw line number.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the physical address of the first byte of the line.
    pub const fn base(self) -> PhysAddr {
        PhysAddr(self.0 * LINE_SIZE)
    }

    /// Returns the frame containing this line.
    pub const fn frame(self) -> FrameId {
        self.base().frame()
    }
}

impl fmt::Debug for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LineAddr({:#x})", self.0)
    }
}

/// A physical frame number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FrameId(pub u32);

impl FrameId {
    /// Returns the physical address of the first byte of the frame.
    pub const fn base(self) -> PhysAddr {
        PhysAddr(self.0 as u64 * FRAME_SIZE)
    }

    /// Returns the raw frame number.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for FrameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FrameId({})", self.0)
    }
}

/// A virtual byte address, as issued by simulated program code.
///
/// Virtual addresses are translated to [`PhysAddr`]s through a per-process
/// page table (`tmi-os`). The whole point of TMI's repair is that *the same*
/// virtual address can map to *different* physical frames in different
/// processes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VAddr(u64);

impl VAddr {
    /// Creates a virtual address.
    pub const fn new(raw: u64) -> Self {
        VAddr(raw)
    }

    /// Returns the raw byte address.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the virtual page number.
    pub const fn vpn(self) -> Vpn {
        Vpn(self.0 / FRAME_SIZE)
    }

    /// Returns the byte offset within the containing 4 KiB page.
    pub const fn page_offset(self) -> u64 {
        self.0 % FRAME_SIZE
    }

    /// Returns the byte offset within the containing cache line.
    pub const fn line_offset(self) -> u64 {
        self.0 % LINE_SIZE
    }

    /// Returns this address displaced by `delta` bytes.
    pub const fn offset(self, delta: u64) -> Self {
        VAddr(self.0 + delta)
    }

    /// Returns true if the address is naturally aligned for `width`.
    pub const fn is_aligned(self, width: Width) -> bool {
        self.0.is_multiple_of(width.bytes())
    }
}

impl fmt::Debug for VAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VAddr({:#x})", self.0)
    }
}

impl fmt::Display for VAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A virtual page number (4 KiB granularity).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Vpn(pub u64);

impl Vpn {
    /// Returns the virtual address of the first byte of the page.
    pub const fn base(self) -> VAddr {
        VAddr(self.0 * FRAME_SIZE)
    }

    /// The 2 MiB-aligned huge page this 4 KiB page belongs to (its first
    /// constituent 4 KiB page number).
    pub const fn huge_base(self) -> Vpn {
        Vpn(self.0 / FRAMES_PER_HUGE_PAGE * FRAMES_PER_HUGE_PAGE)
    }
}

impl fmt::Debug for Vpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Vpn({:#x})", self.0)
    }
}

/// Width of a memory access in bytes.
///
/// The detector disassembles instruction PCs to recover widths (§3.1); the
/// consistency machinery cares about widths because *aligned multi-byte
/// store atomicity* (AMBSA, §2.2) is only meaningful for multi-byte accesses.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum Width {
    /// 1 byte.
    W1,
    /// 2 bytes.
    W2,
    /// 4 bytes.
    W4,
    /// 8 bytes.
    #[default]
    W8,
}

impl Width {
    /// Number of bytes covered by an access of this width.
    pub const fn bytes(self) -> u64 {
        match self {
            Width::W1 => 1,
            Width::W2 => 2,
            Width::W4 => 4,
            Width::W8 => 8,
        }
    }
}

impl fmt::Display for Width {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}B", self.bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phys_addr_decomposition() {
        let a = PhysAddr::new(2 * FRAME_SIZE + 3 * LINE_SIZE + 7);
        assert_eq!(a.frame(), FrameId(2));
        assert_eq!(a.frame_offset(), 3 * LINE_SIZE + 7);
        assert_eq!(a.line_offset(), 7);
        assert_eq!(a.line().base().raw(), 2 * FRAME_SIZE + 3 * LINE_SIZE);
    }

    #[test]
    fn line_of_adjacent_bytes_is_shared() {
        // The essence of false sharing: disjoint bytes, same line.
        let a = PhysAddr::new(0x1000);
        let b = PhysAddr::new(0x1008);
        assert_ne!(a, b);
        assert_eq!(a.line(), b.line());
        // ... and one line over, no sharing.
        let c = PhysAddr::new(0x1040);
        assert_ne!(a.line(), c.line());
    }

    #[test]
    fn frame_base_roundtrip() {
        let f = FrameId(123);
        assert_eq!(f.base().frame(), f);
        assert_eq!(f.base().frame_offset(), 0);
    }

    #[test]
    fn huge_page_constants_consistent() {
        assert_eq!(FRAMES_PER_HUGE_PAGE * FRAME_SIZE, HUGE_PAGE_SIZE);
        assert_eq!(FRAMES_PER_HUGE_PAGE, 512);
    }

    #[test]
    fn line_addr_frame() {
        let l = LineAddr::new(FRAME_SIZE / LINE_SIZE); // first line of frame 1
        assert_eq!(l.frame(), FrameId(1));
    }
}
