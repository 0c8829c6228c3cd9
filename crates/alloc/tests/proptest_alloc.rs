//! Property tests for the allocator: allocations never overlap,
//! alignment promises hold, and the policies place things where their
//! docs say.

use proptest::prelude::*;
use tmi_alloc::{AllocConfig, AllocPolicy, SimAllocator, MIN_ALIGN};
use tmi_machine::{VAddr, LINE_SIZE};

#[derive(Clone, Copy, Debug)]
enum AllocOp {
    Alloc {
        arena: usize,
        size: u64,
        align_pow: u32,
    },
    Padded {
        arena: usize,
        size: u64,
    },
}

fn op_strategy() -> impl Strategy<Value = AllocOp> {
    prop_oneof![
        4 => (0..4usize, 1..3000u64, 4..8u32)
            .prop_map(|(arena, size, align_pow)| AllocOp::Alloc { arena, size, align_pow }),
        2 => (0..4usize, 1..500u64).prop_map(|(arena, size)| AllocOp::Padded { arena, size }),
    ]
}

fn policies() -> impl Strategy<Value = AllocPolicy> {
    prop_oneof![Just(AllocPolicy::Glibc), Just(AllocPolicy::Lockless)]
}

proptest! {
    /// No two allocations overlap, under any policy, any op sequence.
    #[test]
    fn live_allocations_never_overlap(
        policy in policies(),
        misalign in prop_oneof![Just(0u64), Just(8), Just(24)],
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        let mut a = SimAllocator::new(
            VAddr::new(0x100000),
            8 << 20,
            AllocConfig { policy, misalign },
        );
        let mut live: Vec<(u64, u64)> = Vec::new(); // (start, size)
        for op in ops {
            match op {
                AllocOp::Alloc { arena, size, align_pow } => {
                    let align = 1u64 << align_pow;
                    let p = a.alloc_aligned(arena, size, align).raw();
                    prop_assert_eq!(p % align.max(MIN_ALIGN) % 8, 0);
                    for &(s, sz) in &live {
                        prop_assert!(
                            p + size <= s || s + sz <= p,
                            "[{p:#x},+{size}) overlaps [{s:#x},+{sz})"
                        );
                    }
                    live.push((p, size));
                }
                AllocOp::Padded { arena, size } => {
                    let p = a.alloc_line_padded(arena, size).raw();
                    prop_assert_eq!(p % LINE_SIZE, 0, "padded must be line aligned");
                    let padded = size.next_multiple_of(LINE_SIZE);
                    for &(s, sz) in &live {
                        prop_assert!(p + padded <= s || s + sz <= p);
                    }
                    live.push((p, padded));
                }
            }
        }
    }

    /// Alignment: default allocations are 16-byte aligned plus the
    /// configured misalignment, and explicit alignments are honored when
    /// no misalignment is forced.
    #[test]
    fn alignment_contract(
        policy in policies(),
        sizes in proptest::collection::vec(1..4000u64, 1..40),
    ) {
        let mut a = SimAllocator::new(VAddr::new(0x100000), 4 << 20, AllocConfig {
            policy,
            misalign: 0,
        });
        for (i, &size) in sizes.iter().enumerate() {
            let p = a.alloc(i % 4, size);
            prop_assert_eq!(p.raw() % MIN_ALIGN, 0);
            let q = a.alloc_aligned(i % 4, size, 64);
            prop_assert_eq!(q.raw() % 64, 0);
        }
    }

    /// Lockless policy: small allocations from different arenas never
    /// share a cache line (the property that auto-repairs lu-ncb, §4.3).
    #[test]
    fn lockless_separates_arenas(
        sizes in proptest::collection::vec(1..512u64, 2..30),
    ) {
        let mut a = SimAllocator::new(
            VAddr::new(0x100000),
            8 << 20,
            AllocConfig { policy: AllocPolicy::Lockless, misalign: 0 },
        );
        let mut by_arena: Vec<Vec<u64>> = vec![Vec::new(); 4];
        for (i, &size) in sizes.iter().enumerate() {
            let arena = i % 4;
            let p = a.alloc(arena, size);
            by_arena[arena].push(p.raw() / LINE_SIZE);
        }
        for i in 0..4 {
            for j in i + 1..4 {
                for &la in &by_arena[i] {
                    prop_assert!(
                        !by_arena[j].contains(&la),
                        "arenas {i} and {j} share line {la:#x}"
                    );
                }
            }
        }
    }
}
