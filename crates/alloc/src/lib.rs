#![warn(missing_docs)]

//! # tmi-alloc — simulated memory allocator
//!
//! The paper's evaluation is allocator-sensitive in three ways:
//!
//! 1. The **baseline** uses the Lockless allocator (16 % faster than glibc
//!    on their suite, §4.1), whose per-thread arenas also change *which*
//!    allocations end up adjacent — `lu-ncb`'s false sharing is repaired by
//!    the allocator switch alone (§4.3).
//! 2. **TMI's allocator** redirects all requests to TMI's process-shared
//!    memory object (`tmi-alloc` bars in Fig. 7) so that pages can later be
//!    remapped per-process.
//! 3. Repair experiments **force misalignment** ("we force the discovered
//!    false sharing behavior by requiring a mis-aligned allocation when
//!    appropriate", §4.3).
//!
//! [`SimAllocator`] models all three: a placement policy (glibc-style
//! shared bump vs Lockless-style per-thread arenas), an optional forced
//! misalignment, and whichever backing VMA the harness mapped the region
//! with (anonymous for plain pthreads, shared-object for TMI). It manages
//! *virtual addresses only*; backing frames materialize through page
//! faults like any other memory.

use tmi_machine::{VAddr, LINE_SIZE};

/// Placement policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AllocPolicy {
    /// One shared bump region for all threads, glibc-style: consecutive
    /// allocations from different threads pack next to each other (the
    /// layout that creates cross-thread false sharing).
    Glibc,
    /// Per-thread arenas carved in chunks, Lockless-style: small
    /// allocations from different threads land in different chunks.
    #[default]
    Lockless,
}

/// Allocator configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct AllocConfig {
    /// Placement policy.
    pub policy: AllocPolicy,
    /// Byte offset added to every allocation start, to force structures
    /// off cache-line boundaries (must keep 8-byte alignment; the repair
    /// experiments use 8–40). `0` disables.
    pub misalign: u64,
}

/// Minimum allocation alignment (both modeled allocators guarantee 16).
pub const MIN_ALIGN: u64 = 16;

/// Chunk size handed to each arena under [`AllocPolicy::Lockless`].
const CHUNK: u64 = 16 * 1024;

#[derive(Debug, Default, Clone, Copy)]
struct Arena {
    cursor: u64,
    end: u64,
}

/// A deterministic size-class allocator over a pre-mapped virtual range.
///
/// ```
/// use tmi_alloc::{AllocConfig, AllocPolicy, SimAllocator};
/// use tmi_machine::{VAddr, LINE_SIZE};
///
/// let mut a = SimAllocator::new(VAddr::new(0x10000), 1 << 20, AllocConfig {
///     policy: AllocPolicy::Glibc,
///     misalign: 0,
/// });
/// // glibc-style packing: two threads' records land on one line...
/// let x = a.alloc(0, 16);
/// let y = a.alloc(1, 16);
/// assert_eq!(x.raw() / LINE_SIZE, y.raw() / LINE_SIZE);
/// // ...which the manual fix pads apart.
/// let p = a.alloc_line_padded(0, 16);
/// assert_eq!(p.raw() % LINE_SIZE, 0);
/// ```
#[derive(Debug)]
pub struct SimAllocator {
    config: AllocConfig,
    start: VAddr,
    len: u64,
    bump: u64,
    arenas: Vec<Arena>,
}

/// Size classes in bytes: a small request takes its class's whole block,
/// so consecutive 24-byte allocations land 32 bytes apart. Larger
/// requests are line aligned.
const CLASSES: [u64; 9] = [16, 32, 48, 64, 128, 256, 512, 1024, 2048];

impl SimAllocator {
    /// Creates an allocator over `[start, start+len)`, which the caller
    /// must have mapped (anonymously or object-backed).
    ///
    /// # Panics
    ///
    /// Panics if `start` is not cache-line aligned or the misalignment is
    /// not a multiple of 8 (it would break natural alignment of 8-byte
    /// fields).
    pub fn new(start: VAddr, len: u64, config: AllocConfig) -> Self {
        assert!(
            start.raw().is_multiple_of(LINE_SIZE),
            "region must be line aligned"
        );
        assert!(
            config.misalign.is_multiple_of(8),
            "misalign must preserve 8B alignment"
        );
        SimAllocator {
            config,
            start,
            len,
            bump: 0,
            arenas: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AllocConfig {
        &self.config
    }

    fn bump_take(&mut self, size: u64, align: u64) -> VAddr {
        let base = self.start.raw() + self.bump;
        let aligned = base.next_multiple_of(align) + self.config.misalign;
        let end = aligned + size;
        assert!(
            end <= self.start.raw() + self.len,
            "simulated heap exhausted ({} of {} bytes)",
            end - self.start.raw(),
            self.len
        );
        self.bump = end - self.start.raw();
        VAddr::new(aligned)
    }

    fn arena_take(&mut self, arena: usize, size: u64, align: u64) -> VAddr {
        while self.arenas.len() <= arena {
            self.arenas.push(Arena::default());
        }
        let need_new_chunk = {
            let a = &self.arenas[arena];
            a.cursor.next_multiple_of(align) + self.config.misalign + size > a.end
        };
        if need_new_chunk {
            let chunk = CHUNK.max(size + align + self.config.misalign);
            let base = self.bump_take(chunk, LINE_SIZE).raw() - self.config.misalign;
            self.arenas[arena] = Arena {
                cursor: base,
                end: base + chunk,
            };
        }
        let a = &mut self.arenas[arena];
        let aligned = a.cursor.next_multiple_of(align) + self.config.misalign;
        a.cursor = aligned + size;
        VAddr::new(aligned)
    }

    /// Allocates `size` bytes on behalf of thread/arena `arena` with the
    /// allocator's default (16-byte) alignment.
    pub fn alloc(&mut self, arena: usize, size: u64) -> VAddr {
        self.alloc_aligned(arena, size, MIN_ALIGN)
    }

    /// Allocates with an explicit alignment (≥ 16; the manual-fix variants
    /// use 64 to pad data onto private cache lines).
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two or the heap is exhausted.
    pub fn alloc_aligned(&mut self, arena: usize, size: u64, align: u64) -> VAddr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let align = align.max(MIN_ALIGN);
        let size = size.max(1);
        // Explicitly aligned or forcibly misaligned requests take exactly
        // their size so placement stays predictable.
        let (size, align) = if align > MIN_ALIGN || self.config.misalign != 0 {
            (size, align)
        } else {
            match CLASSES.iter().find(|&&c| size <= c) {
                Some(&class_size) => (class_size, MIN_ALIGN),
                None => (size, LINE_SIZE),
            }
        };
        match self.config.policy {
            AllocPolicy::Glibc => self.bump_take(size, align),
            AllocPolicy::Lockless => self.arena_take(arena, size, align),
        }
    }

    /// Allocates `size` bytes padded and aligned to a full cache line — the
    /// manual false-sharing fix (§2: "false sharing can always be resolved
    /// by introducing padding or changing memory alignment").
    pub fn alloc_line_padded(&mut self, arena: usize, size: u64) -> VAddr {
        let padded = size.next_multiple_of(LINE_SIZE);
        let save = self.config.misalign;
        self.config.misalign = 0;
        let addr = self.alloc_aligned(arena, padded, LINE_SIZE);
        self.config.misalign = save;
        addr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(policy: AllocPolicy, misalign: u64) -> SimAllocator {
        SimAllocator::new(
            VAddr::new(0x10000),
            1 << 20,
            AllocConfig { policy, misalign },
        )
    }

    #[test]
    fn glibc_packs_cross_thread_allocations_adjacently() {
        let mut a = alloc(AllocPolicy::Glibc, 0);
        let x = a.alloc(0, 16);
        let y = a.alloc(1, 16);
        assert_eq!(y.raw() - x.raw(), 16, "adjacent: same cache line");
        assert_eq!(x.raw() / LINE_SIZE, y.raw() / LINE_SIZE);
    }

    #[test]
    fn lockless_separates_threads_into_chunks() {
        let mut a = alloc(AllocPolicy::Lockless, 0);
        let x = a.alloc(0, 16);
        let y = a.alloc(1, 16);
        assert!(
            y.raw().abs_diff(x.raw()) >= CHUNK,
            "different arenas: different chunks"
        );
        // Same-thread allocations stay adjacent.
        let x2 = a.alloc(0, 16);
        assert_eq!(x2.raw() - x.raw(), 16);
    }

    #[test]
    fn alignment_guarantees() {
        let mut a = alloc(AllocPolicy::Lockless, 0);
        for size in [1, 7, 16, 100, 5000] {
            let p = a.alloc(0, size);
            assert_eq!(p.raw() % MIN_ALIGN, 0, "size {size}");
        }
        let p = a.alloc_aligned(0, 10, 64);
        assert_eq!(p.raw() % 64, 0);
    }

    #[test]
    fn misalignment_forces_off_line_placement_but_keeps_8b() {
        let mut a = alloc(AllocPolicy::Lockless, 24);
        let p = a.alloc(0, 64);
        assert_eq!(p.raw() % 8, 0);
        assert_ne!(p.raw() % LINE_SIZE, 0, "must not be line aligned");
    }

    #[test]
    fn line_padded_is_line_aligned_even_with_misalign() {
        let mut a = alloc(AllocPolicy::Glibc, 24);
        let p = a.alloc_line_padded(0, 10);
        assert_eq!(p.raw() % LINE_SIZE, 0);
        let q = a.alloc_line_padded(0, 10);
        assert!(q.raw() - p.raw() >= LINE_SIZE, "padded to a full line");
    }

    #[test]
    #[should_panic(expected = "heap exhausted")]
    fn exhaustion_panics() {
        let mut a = SimAllocator::new(VAddr::new(0x10000), 4096, AllocConfig::default());
        let _ = a.alloc(0, 8192);
    }

    #[test]
    fn two_thread_16b_structs_share_a_line_under_glibc_only() {
        // The lu-ncb scenario: per-thread structs allocated back to back.
        let mut g = alloc(AllocPolicy::Glibc, 0);
        let a0 = g.alloc(0, 24);
        let a1 = g.alloc(1, 24);
        assert_eq!(
            a0.raw() / LINE_SIZE,
            a1.raw() / LINE_SIZE,
            "glibc: same line"
        );

        let mut l = alloc(AllocPolicy::Lockless, 0);
        let b0 = l.alloc(0, 24);
        let b1 = l.alloc(1, 24);
        assert_ne!(
            b0.raw() / LINE_SIZE,
            b1.raw() / LINE_SIZE,
            "lockless: separate"
        );
    }
}
