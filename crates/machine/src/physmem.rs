//! Physical memory: a pool of 4 KiB frames with explicit allocation.
//!
//! This is the data plane of the simulator. The OS layer (`tmi-os`) owns a
//! [`PhysMem`] and hands out frames to shared-memory objects, anonymous
//! mappings and copy-on-write copies; reference counting lives up there.
//!
//! Frame *identities* are handed out eagerly, frame *storage* lazily, the
//! way Linux backs a mapped page that was never written with its shared
//! zero page. An allocated frame reads as zeros until its first write gives
//! it 4 KiB of host memory, a copy of such a frame stays without storage,
//! and a 2 MiB huge page costs nothing until its frames are written. Only
//! host memory depends on this: frame ids, their allocation order and
//! [`PhysMem::peak_allocated_frames`] (the app bytes of Fig. 8) are what
//! they would be if every frame were zero-filled when allocated.

use crate::addr::{FrameId, PhysAddr, Width, FRAME_SIZE};

/// The bytes of one 4 KiB physical frame.
type Frame = Box<[u8; FRAME_SIZE as usize]>;

/// What every allocated frame without storage reads as.
pub static ZERO_FRAME: [u8; FRAME_SIZE as usize] = [0; FRAME_SIZE as usize];

fn zero_frame() -> Frame {
    // `vec![0; N].into_boxed_slice().try_into()` avoids a 4 KiB stack copy.
    vec![0u8; FRAME_SIZE as usize]
        .into_boxed_slice()
        .try_into()
        .expect("frame size mismatch")
}

/// The `N` bytes of `frame` at `off`, which the caller has bounds-checked.
fn le_bytes<const N: usize>(frame: &[u8; FRAME_SIZE as usize], off: usize) -> [u8; N] {
    frame[off..off + N].try_into().expect("an N-byte slice")
}

/// A pool of physical frames addressed by [`PhysAddr`].
///
/// Frames are allocated with [`PhysMem::alloc_frame`] and freed with
/// [`PhysMem::free_frame`]; freed slots are recycled. All byte accessors
/// panic on access to an unallocated frame — in the simulator that is a
/// machine check, i.e. a bug in the OS layer, never in application code.
#[derive(Debug, Default)]
pub struct PhysMem {
    /// Storage of each slot: `Some` once an allocated frame is written,
    /// `None` for a free slot and for an allocated frame that reads as
    /// zeros.
    frames: Vec<Option<Frame>>,
    /// Whether each slot is allocated. An access consults it only for a
    /// `None` slot, so an access to a written frame never does.
    live: Vec<bool>,
    free: Vec<FrameId>,
    allocated: usize,
    /// High-water mark of simultaneously allocated frames, for memory
    /// accounting (Fig. 8).
    peak_allocated: usize,
    /// Frames that hold storage, and their high-water mark: the host
    /// memory behind the simulated frames.
    stored: usize,
    peak_stored: usize,
}

impl PhysMem {
    /// Creates an empty physical memory pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a frame, which reads as zeros.
    pub fn alloc_frame(&mut self) -> FrameId {
        self.allocated += 1;
        self.peak_allocated = self.peak_allocated.max(self.allocated);
        if let Some(id) = self.free.pop() {
            self.live[id.index()] = true;
            return id;
        }
        let id = FrameId(self.frames.len() as u32);
        self.frames.push(None);
        self.live.push(true);
        id
    }

    /// Allocates `n` physically contiguous frames, which read as zeros,
    /// and returns the first. Used for 2 MiB huge pages, which must be
    /// frame-contiguous so that line addresses within the huge page are
    /// contiguous too.
    pub fn alloc_contiguous(&mut self, n: usize) -> FrameId {
        // Contiguity forces fresh allocation at the end of the pool.
        let first = FrameId(self.frames.len() as u32);
        self.frames.resize_with(self.frames.len() + n, || None);
        self.live.resize(self.live.len() + n, true);
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
        let live = self
            .live
            .get_mut(id.index())
            .expect("free of out-of-range frame");
        assert!(*live, "double free of {id:?}");
        *live = false;
        if self.frames[id.index()].take().is_some() {
            self.stored -= 1;
        }
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

    /// Number of allocated frames that hold host storage: those written
    /// since their allocation or copied from such a frame. The others read
    /// as zeros and cost no host memory.
    pub fn stored_frames(&self) -> usize {
        self.stored
    }

    /// High-water mark of [`PhysMem::stored_frames`] over the lifetime of
    /// the pool.
    pub fn peak_stored_frames(&self) -> usize {
        self.peak_stored
    }

    fn assert_live(&self, id: FrameId) {
        assert!(
            self.live.get(id.index()).copied().unwrap_or(false),
            "access to unallocated {id:?}"
        );
    }

    /// The storage of allocated frame `id`, or `None` if it reads as zeros.
    fn stored(&self, id: FrameId) -> Option<&Frame> {
        let frame = self.frames.get(id.index()).and_then(Option::as_ref);
        if frame.is_none() {
            self.assert_live(id);
        }
        frame
    }

    /// Replaces the storage of allocated frame `id` (`None`: it reads as
    /// zeros), keeping the stored-frame counts.
    fn set_storage(&mut self, id: FrameId, storage: Option<Frame>) {
        self.assert_live(id);
        let slot = &mut self.frames[id.index()];
        self.stored = self.stored - usize::from(slot.is_some()) + usize::from(storage.is_some());
        self.peak_stored = self.peak_stored.max(self.stored);
        *slot = storage;
    }

    fn frame(&self, id: FrameId) -> &[u8; FRAME_SIZE as usize] {
        self.stored(id).map_or(&ZERO_FRAME, |frame| &**frame)
    }

    /// The bytes of allocated frame `id` for writing: its first write
    /// gives it storage.
    fn frame_mut(&mut self, id: FrameId) -> &mut [u8; FRAME_SIZE as usize] {
        if self.stored(id).is_none() {
            self.set_storage(id, Some(zero_frame()));
        }
        self.frames[id.index()]
            .as_mut()
            .expect("a written frame holds storage")
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
        assert!(
            off + width.bytes() as usize <= FRAME_SIZE as usize,
            "physical read crosses frame boundary at {addr}"
        );
        let frame = self.frame(addr.frame());
        match width {
            Width::W1 => u64::from(frame[off]),
            Width::W2 => u64::from(u16::from_le_bytes(le_bytes(frame, off))),
            Width::W4 => u64::from(u32::from_le_bytes(le_bytes(frame, off))),
            Width::W8 => u64::from_le_bytes(le_bytes(frame, off)),
        }
    }

    /// Writes the low `width` bytes of `value` at `addr` (little-endian).
    ///
    /// # Panics
    ///
    /// Panics if the access crosses a frame boundary or the frame is free.
    pub fn write(&mut self, addr: PhysAddr, width: Width, value: u64) {
        let off = addr.frame_offset() as usize;
        assert!(
            off + width.bytes() as usize <= FRAME_SIZE as usize,
            "physical write crosses frame boundary at {addr}"
        );
        let frame = self.frame_mut(addr.frame());
        match width {
            Width::W1 => frame[off] = value as u8,
            Width::W2 => frame[off..off + 2].copy_from_slice(&(value as u16).to_le_bytes()),
            Width::W4 => frame[off..off + 4].copy_from_slice(&(value as u32).to_le_bytes()),
            Width::W8 => frame[off..off + 8].copy_from_slice(&value.to_le_bytes()),
        }
    }

    /// Returns the contents of a frame that holds storage, or `None` for
    /// one that reads as zeros (the twin snapshot and the commit diff use
    /// it, so that the twin of a never-written page holds no storage
    /// either).
    ///
    /// # Panics
    ///
    /// Panics if the frame is free.
    pub fn frame_bytes(&self, id: FrameId) -> Option<&[u8; FRAME_SIZE as usize]> {
        self.stored(id).map(|frame| &**frame)
    }

    /// Copies frame `src` into frame `dst` (the COW copy). A copy of a
    /// frame that reads as zeros holds no storage.
    ///
    /// # Panics
    ///
    /// Panics if either frame is free.
    pub fn copy_frame(&mut self, src: FrameId, dst: FrameId) {
        let copy = self.stored(src).cloned();
        self.set_storage(dst, copy);
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

    #[test]
    #[should_panic(expected = "crosses frame boundary")]
    fn cross_frame_write_panics() {
        let mut pm = PhysMem::new();
        let f = pm.alloc_frame();
        pm.write(f.base().offset(FRAME_SIZE - 1), Width::W2, 0);
    }

    #[test]
    #[should_panic(expected = "free of out-of-range frame")]
    fn free_of_never_allocated_frame_panics() {
        PhysMem::new().free_frame(FrameId(0));
    }

    #[test]
    fn unwritten_frames_read_as_zeros_without_storage() {
        let mut pm = PhysMem::new();
        let a = pm.alloc_frame();
        let huge = pm.alloc_contiguous(512);
        let b = pm.alloc_frame();
        assert_eq!(pm.read(FrameId(huge.0 + 511).base(), Width::W8), 0);
        assert_eq!(pm.frame_bytes(a), None);
        pm.copy_frame(a, b);
        assert_eq!((pm.allocated_frames(), pm.stored_frames()), (514, 0));
        pm.write(b.base(), Width::W1, 9);
        pm.copy_frame(b, a);
        assert_eq!(pm.frame_bytes(a).map(|bytes| bytes[0]), Some(9));
        assert_eq!(pm.stored_frames(), 2);
        // A copy of an unwritten frame drops the target's storage.
        pm.copy_frame(huge, b);
        assert_eq!(pm.read(b.base(), Width::W1), 0);
        pm.free_frame(a);
        assert_eq!((pm.stored_frames(), pm.peak_stored_frames()), (0, 2));
    }

    /// A pool with one frame freed without ever being written, and one
    /// live frame.
    fn pool_with_freed_unwritten_frame() -> (PhysMem, FrameId, FrameId) {
        let mut pm = PhysMem::new();
        let freed = pm.alloc_frame();
        let live = pm.alloc_frame();
        pm.free_frame(freed);
        (pm, freed, live)
    }

    #[test]
    #[should_panic(expected = "access to unallocated")]
    fn read_of_freed_unwritten_frame_panics() {
        let (pm, freed, _) = pool_with_freed_unwritten_frame();
        let _ = pm.read(freed.base(), Width::W4);
    }

    #[test]
    #[should_panic(expected = "access to unallocated")]
    fn write_of_freed_unwritten_frame_panics() {
        let (mut pm, freed, _) = pool_with_freed_unwritten_frame();
        pm.write(freed.base(), Width::W4, 1);
    }

    #[test]
    #[should_panic(expected = "access to unallocated")]
    fn copy_of_freed_unwritten_frame_panics() {
        let (mut pm, freed, live) = pool_with_freed_unwritten_frame();
        pm.copy_frame(freed, live);
    }

    #[test]
    #[should_panic(expected = "access to unallocated")]
    fn copy_onto_freed_frame_panics() {
        let (mut pm, freed, live) = pool_with_freed_unwritten_frame();
        pm.copy_frame(live, freed);
    }

    #[test]
    #[should_panic(expected = "access to unallocated")]
    fn write_byte_of_freed_frame_panics() {
        let (mut pm, freed, _) = pool_with_freed_unwritten_frame();
        pm.write_byte(freed.base(), 1);
    }

    #[test]
    #[should_panic(expected = "access to unallocated")]
    fn frame_bytes_of_freed_frame_panics() {
        let (pm, freed, _) = pool_with_freed_unwritten_frame();
        let _ = pm.frame_bytes(freed);
    }
}
