//! Physical memory: a pool of 4 KiB frames with explicit allocation.
//!
//! This is the data plane of the simulator. The OS layer (`tmi-os`) owns a
//! [`PhysMem`] and hands out frames to shared-memory objects, anonymous
//! mappings and copy-on-write copies; reference counting lives up there.
//! Down here a frame is just 4 KiB of bytes.

use crate::addr::{FrameId, PhysAddr, Width, FRAME_SIZE};

/// One 4 KiB physical frame.
type Frame = Box<[u8; FRAME_SIZE as usize]>;

fn zero_frame() -> Frame {
    // `vec![0; N].into_boxed_slice().try_into()` avoids a 4 KiB stack copy.
    vec![0u8; FRAME_SIZE as usize]
        .into_boxed_slice()
        .try_into()
        .expect("frame size mismatch")
}

/// A pool of physical frames addressed by [`PhysAddr`].
///
/// Frames are allocated with [`PhysMem::alloc_frame`] and freed with
/// [`PhysMem::free_frame`]; freed slots are recycled. All byte accessors
/// panic on access to an unallocated frame — in the simulator that is a
/// machine check, i.e. a bug in the OS layer, never in application code.
#[derive(Debug, Default)]
pub struct PhysMem {
    frames: Vec<Option<Frame>>,
    free: Vec<FrameId>,
    allocated: usize,
    /// High-water mark of simultaneously allocated frames, for memory
    /// accounting (Fig. 8).
    peak_allocated: usize,
}

impl PhysMem {
    /// Creates an empty physical memory pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a zeroed frame.
    pub fn alloc_frame(&mut self) -> FrameId {
        self.allocated += 1;
        self.peak_allocated = self.peak_allocated.max(self.allocated);
        if let Some(id) = self.free.pop() {
            self.frames[id.index()] = Some(zero_frame());
            return id;
        }
        let id = FrameId(self.frames.len() as u32);
        self.frames.push(Some(zero_frame()));
        id
    }

    /// Allocates `n` physically contiguous zeroed frames and returns the
    /// first. Used for 2 MiB huge pages, which must be frame-contiguous so
    /// that line addresses within the huge page are contiguous too.
    pub fn alloc_contiguous(&mut self, n: usize) -> FrameId {
        // Contiguity forces fresh allocation at the end of the pool.
        let first = FrameId(self.frames.len() as u32);
        for _ in 0..n {
            self.frames.push(Some(zero_frame()));
        }
        self.allocated += n;
        self.peak_allocated = self.peak_allocated.max(self.allocated);
        first
    }

    /// Frees a frame, recycling its slot.
    ///
    /// # Panics
    ///
    /// Panics if the frame is not currently allocated (double free).
    pub fn free_frame(&mut self, id: FrameId) {
        let slot = self
            .frames
            .get_mut(id.index())
            .expect("free of out-of-range frame");
        assert!(slot.is_some(), "double free of {id:?}");
        *slot = None;
        self.free.push(id);
        self.allocated -= 1;
    }

    /// Number of currently allocated frames.
    pub fn allocated_frames(&self) -> usize {
        self.allocated
    }

    /// High-water mark of allocated frames over the lifetime of the pool.
    pub fn peak_allocated_frames(&self) -> usize {
        self.peak_allocated
    }

    fn frame(&self, id: FrameId) -> &[u8; FRAME_SIZE as usize] {
        self.frames
            .get(id.index())
            .and_then(Option::as_ref)
            .unwrap_or_else(|| panic!("access to unallocated {id:?}"))
    }

    fn frame_mut(&mut self, id: FrameId) -> &mut [u8; FRAME_SIZE as usize] {
        self.frames
            .get_mut(id.index())
            .and_then(Option::as_mut)
            .unwrap_or_else(|| panic!("access to unallocated {id:?}"))
    }

    /// Reads an integer of the given width. The access must not cross a
    /// frame boundary (the engine enforces natural alignment, which
    /// guarantees this).
    ///
    /// # Panics
    ///
    /// Panics if the access crosses a frame boundary or the frame is free.
    pub fn read(&self, addr: PhysAddr, width: Width) -> u64 {
        let off = addr.frame_offset() as usize;
        let n = width.bytes() as usize;
        assert!(
            off + n <= FRAME_SIZE as usize,
            "physical read crosses frame boundary at {addr}"
        );
        let bytes = &self.frame(addr.frame())[off..off + n];
        let mut buf = [0u8; 8];
        buf[..n].copy_from_slice(bytes);
        u64::from_le_bytes(buf)
    }

    /// Writes the low `width` bytes of `value` at `addr` (little-endian).
    ///
    /// # Panics
    ///
    /// Panics if the access crosses a frame boundary or the frame is free.
    pub fn write(&mut self, addr: PhysAddr, width: Width, value: u64) {
        let off = addr.frame_offset() as usize;
        let n = width.bytes() as usize;
        assert!(
            off + n <= FRAME_SIZE as usize,
            "physical write crosses frame boundary at {addr}"
        );
        let frame = self.frame_mut(addr.frame());
        frame[off..off + n].copy_from_slice(&value.to_le_bytes()[..n]);
    }

    /// Returns the full contents of a frame (used to snapshot twin pages).
    pub fn frame_bytes(&self, id: FrameId) -> &[u8; FRAME_SIZE as usize] {
        self.frame(id)
    }

    /// Copies frame `src` into frame `dst` (the COW copy).
    pub fn copy_frame(&mut self, src: FrameId, dst: FrameId) {
        let data = *self.frame(src);
        *self.frame_mut(dst) = data;
    }

    /// Writes a single byte; used by the diff-and-merge commit, which must
    /// touch *only* the bytes identified by the diff (§2.2: updating other
    /// bytes "is tantamount to fabricating stores").
    pub fn write_byte(&mut self, addr: PhysAddr, value: u8) {
        self.frame_mut(addr.frame())[addr.frame_offset() as usize] = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_read_write_roundtrip() {
        let mut pm = PhysMem::new();
        let f = pm.alloc_frame();
        let addr = f.base().offset(16);
        pm.write(addr, Width::W8, 0xdead_beef_cafe_f00d);
        assert_eq!(pm.read(addr, Width::W8), 0xdead_beef_cafe_f00d);
        // Partial-width reads see the little-endian prefix.
        assert_eq!(pm.read(addr, Width::W2), 0xf00d);
        assert_eq!(pm.read(addr, Width::W1), 0x0d);
    }

    #[test]
    fn frames_are_zeroed_on_alloc_and_recycle() {
        let mut pm = PhysMem::new();
        let f = pm.alloc_frame();
        pm.write(f.base(), Width::W8, u64::MAX);
        pm.free_frame(f);
        let g = pm.alloc_frame();
        assert_eq!(g, f, "slot should be recycled");
        assert_eq!(pm.read(g.base(), Width::W8), 0, "recycled frame is zeroed");
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut pm = PhysMem::new();
        let f = pm.alloc_frame();
        pm.free_frame(f);
        pm.free_frame(f);
    }

    #[test]
    fn copy_frame_copies_bytes() {
        let mut pm = PhysMem::new();
        let a = pm.alloc_frame();
        let b = pm.alloc_frame();
        pm.write(a.base().offset(100), Width::W4, 0x12345678);
        pm.copy_frame(a, b);
        assert_eq!(pm.read(b.base().offset(100), Width::W4), 0x12345678);
        // Copies are snapshots, not aliases.
        pm.write(a.base().offset(100), Width::W4, 0);
        assert_eq!(pm.read(b.base().offset(100), Width::W4), 0x12345678);
    }

    #[test]
    fn contiguous_alloc_is_contiguous() {
        let mut pm = PhysMem::new();
        let _pad = pm.alloc_frame();
        let first = pm.alloc_contiguous(4);
        assert_eq!(pm.allocated_frames(), 5);
        let addr = FrameId(first.0 + 3).base();
        pm.write(addr, Width::W1, 7);
        assert_eq!(pm.read(addr, Width::W1), 7);
    }

    #[test]
    fn peak_tracking() {
        let mut pm = PhysMem::new();
        let a = pm.alloc_frame();
        let _b = pm.alloc_frame();
        pm.free_frame(a);
        assert_eq!(pm.allocated_frames(), 1);
        assert_eq!(pm.peak_allocated_frames(), 2);
    }

    #[test]
    fn byte_accessors() {
        let mut pm = PhysMem::new();
        let f = pm.alloc_frame();
        pm.write_byte(f.base().offset(5), 0xab);
        assert_eq!(pm.read(f.base().offset(5), Width::W1), 0xab);
        assert_eq!(pm.read(f.base().offset(4), Width::W1), 0);
    }

    #[test]
    #[should_panic(expected = "crosses frame boundary")]
    fn cross_frame_access_panics() {
        let mut pm = PhysMem::new();
        let f = pm.alloc_frame();
        let _ = pm.read(f.base().offset(FRAME_SIZE - 4), Width::W8);
    }
}
