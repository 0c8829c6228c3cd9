//! Set-associative cache tag arrays with MESI state per line.
//!
//! Only *metadata* lives here (tags, MESI states, LRU order) — line data is
//! in [`crate::PhysMem`]. That is sufficient because the execution engine
//! linearizes memory operations, so the value plane never diverges from what
//! a real coherent machine would observe for the interleaving being
//! simulated.
//!
//! The tag array is one contiguous `Box<[Way]>` (sets × ways, row-major):
//! a lookup computes the set's offset and scans a fixed-size slice, never
//! chasing a per-set `Vec` pointer and never allocating. Replacement is
//! exact LRU via a monotone stamp; stamps are assigned from a per-cache tick
//! that advances on every lookup/insert, so every resident way holds a
//! distinct stamp and the LRU victim is unique — replacement decisions do
//! not depend on scan order within a set.

use crate::addr::LineAddr;

/// Coherence state of a line in a private cache (the MESI protocol, §2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MesiState {
    /// Writable, dirty; SWMR guarantees no other cache holds the line.
    Modified,
    /// Writable-on-upgrade, clean, exclusive.
    Exclusive,
    /// Read-only, possibly replicated in other caches.
    Shared,
}

/// Geometry of a cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets; must be a power of two.
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// A 32 KiB, 8-way L1-like private cache (64 sets × 8 ways × 64 B).
    pub const fn l1() -> Self {
        CacheConfig { sets: 64, ways: 8 }
    }

    /// A 256 KiB, 8-way L2-like private cache. We model one level of
    /// private cache; using L2 capacity keeps working sets resident the way
    /// they are on the paper's Haswell parts.
    pub const fn private_default() -> Self {
        CacheConfig { sets: 512, ways: 8 }
    }

    /// An 8 MiB, 16-way shared LLC.
    pub const fn llc_default() -> Self {
        CacheConfig {
            sets: 8192,
            ways: 16,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Way {
    tag: LineAddr,
    state: MesiState,
    /// Monotone stamp for LRU replacement.
    stamp: u64,
    valid: bool,
}

impl Way {
    const INVALID: Way = Way {
        tag: LineAddr::new(0),
        state: MesiState::Shared,
        stamp: 0,
        valid: false,
    };
}

/// A set-associative tag array.
#[derive(Debug)]
pub struct Cache {
    config: CacheConfig,
    /// `sets * ways` slots, row-major: set `s` occupies
    /// `ways[s * config.ways .. (s + 1) * config.ways]`.
    ways: Box<[Way]>,
    tick: u64,
}

/// What happened when a line was inserted into a cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Insertion {
    /// There was room (or the line was already present and was updated).
    Placed,
    /// A victim line was evicted to make room.
    Evicted {
        /// The evicted line.
        line: LineAddr,
        /// Whether the victim was dirty (Modified) and thus written back.
        dirty: bool,
    },
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.sets.is_power_of_two(), "sets must be a power of two");
        assert!(config.ways > 0, "ways must be positive");
        Cache {
            config,
            ways: vec![Way::INVALID; config.sets * config.ways].into_boxed_slice(),
            tick: 0,
        }
    }

    /// Returns the cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    #[inline]
    fn set_range(&self, line: LineAddr) -> std::ops::Range<usize> {
        let set = (line.raw() as usize) & (self.config.sets - 1);
        let base = set * self.config.ways;
        base..base + self.config.ways
    }

    /// Returns the MESI state of `line`, if present, refreshing its LRU
    /// position.
    #[inline]
    pub fn lookup(&mut self, line: LineAddr) -> Option<MesiState> {
        self.tick += 1;
        let tick = self.tick;
        let range = self.set_range(line);
        for way in &mut self.ways[range] {
            if way.valid && way.tag == line {
                way.stamp = tick;
                return Some(way.state);
            }
        }
        None
    }

    /// Returns the MESI state of `line` without touching LRU state (used by
    /// snoop probes from other cores, which do not constitute a use).
    #[inline]
    pub fn peek(&self, line: LineAddr) -> Option<MesiState> {
        let range = self.set_range(line);
        self.ways[range]
            .iter()
            .find(|w| w.valid && w.tag == line)
            .map(|w| w.state)
    }

    /// Sets the state of a line already present.
    ///
    /// # Panics
    ///
    /// Panics if the line is not present.
    pub fn set_state(&mut self, line: LineAddr, state: MesiState) {
        let range = self.set_range(line);
        let way = self.ways[range]
            .iter_mut()
            .find(|w| w.valid && w.tag == line)
            .expect("set_state on absent line");
        way.state = state;
    }

    /// Removes a line (snoop invalidation), returning its former state.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<MesiState> {
        let range = self.set_range(line);
        self.ways[range]
            .iter_mut()
            .find(|w| w.valid && w.tag == line)
            .map(|w| {
                w.valid = false;
                w.state
            })
    }

    /// Inserts `line` with `state`, updating in place if already present.
    /// Returns whether a victim had to be evicted.
    pub fn insert(&mut self, line: LineAddr, state: MesiState) -> Insertion {
        self.tick += 1;
        let tick = self.tick;
        let range = self.set_range(line);
        let set = &mut self.ways[range];
        let mut free: Option<usize> = None;
        let mut victim = 0usize;
        let mut victim_stamp = u64::MAX;
        for (i, way) in set.iter_mut().enumerate() {
            if !way.valid {
                if free.is_none() {
                    free = Some(i);
                }
                continue;
            }
            if way.tag == line {
                way.state = state;
                way.stamp = tick;
                return Insertion::Placed;
            }
            if way.stamp < victim_stamp {
                victim_stamp = way.stamp;
                victim = i;
            }
        }
        if let Some(i) = free {
            set[i] = Way {
                tag: line,
                state,
                stamp: tick,
                valid: true,
            };
            return Insertion::Placed;
        }
        // Evict the LRU way (stamps are distinct, so the victim is unique).
        let old = set[victim];
        set[victim] = Way {
            tag: line,
            state,
            stamp: tick,
            valid: true,
        };
        Insertion::Evicted {
            line: old.tag,
            dirty: old.state == MesiState::Modified,
        }
    }

    /// Number of resident lines (for memory accounting and tests).
    pub fn resident_lines(&self) -> usize {
        self.ways.iter().filter(|w| w.valid).count()
    }

    /// Drops every resident line (e.g. when a simulated process is torn
    /// down in tests). Dirty data is already in physical memory, so no
    /// writeback is needed.
    pub fn clear(&mut self) {
        for way in self.ways.iter_mut() {
            way.valid = false;
        }
    }

    /// Visits every resident `(line, state)` pair (diagnostics and
    /// directory consistency checks; order is the array layout).
    pub fn for_each_resident(&self, mut f: impl FnMut(LineAddr, MesiState)) {
        for way in self.ways.iter() {
            if way.valid {
                f(way.tag, way.state);
            }
        }
    }
}

/// Empty-slot sentinel for [`LlcTags`]: line addresses are physical
/// addresses shifted right by the line-size bits, so the all-ones value
/// can never name a real line.
const EMPTY_TAG: u64 = u64::MAX;

/// Tag array specialized for the shared LLC.
///
/// The LLC differs from the private caches in two ways that allow a leaner
/// layout: its MESI state is never read back (the machine only asks
/// "present or not"), and it sits on every writeback path, so each HITM
/// pays a way scan. Storing tags and LRU stamps as separate dense arrays
/// keeps the 16-way tag scan inside two cache lines instead of walking six
/// lines of 24-byte way records. Replacement is exact LRU with the same
/// tick/stamp discipline as [`Cache`] — one tick per lookup or insert,
/// first-free-slot placement, unique minimum-stamp victim — so hit/miss
/// sequences are identical to the general layout (asserted differentially
/// in the tests).
#[derive(Debug)]
pub struct LlcTags {
    config: CacheConfig,
    /// Line address per way slot, or [`EMPTY_TAG`]; row-major sets as in
    /// [`Cache`].
    tags: Box<[u64]>,
    /// Monotone LRU stamp per way slot (meaningful where the tag is set).
    stamps: Box<[u64]>,
    tick: u64,
}

impl LlcTags {
    /// Creates an empty LLC tag array with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.sets.is_power_of_two(), "sets must be a power of two");
        assert!(config.ways > 0, "ways must be positive");
        LlcTags {
            config,
            tags: vec![EMPTY_TAG; config.sets * config.ways].into_boxed_slice(),
            stamps: vec![0u64; config.sets * config.ways].into_boxed_slice(),
            tick: 0,
        }
    }

    /// Returns the cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    #[inline]
    fn set_base(&self, line: LineAddr) -> usize {
        ((line.raw() as usize) & (self.config.sets - 1)) * self.config.ways
    }

    /// Whether `line` is resident, refreshing its LRU position if so.
    #[inline]
    pub fn lookup(&mut self, line: LineAddr) -> bool {
        self.tick += 1;
        let base = self.set_base(line);
        let raw = line.raw();
        for i in base..base + self.config.ways {
            if self.tags[i] == raw {
                self.stamps[i] = self.tick;
                return true;
            }
        }
        false
    }

    /// Inserts `line`, refreshing its LRU position if already present and
    /// evicting the LRU way if the set is full. LLC victims fall to
    /// memory, so the victim is not reported.
    #[inline]
    pub fn insert(&mut self, line: LineAddr) {
        self.tick += 1;
        let base = self.set_base(line);
        let raw = line.raw();
        let mut victim = base;
        let mut victim_stamp = u64::MAX;
        for i in base..base + self.config.ways {
            let tag = self.tags[i];
            if tag == raw {
                self.stamps[i] = self.tick;
                return;
            }
            if tag == EMPTY_TAG {
                // The LLC is never snoop-invalidated, so a set's occupied
                // slots form a prefix: reaching a free slot proves the
                // line is absent from the rest of the set, and first-free
                // placement matches [`Cache`] exactly.
                self.tags[i] = raw;
                self.stamps[i] = self.tick;
                return;
            }
            if self.stamps[i] < victim_stamp {
                victim_stamp = self.stamps[i];
                victim = i;
            }
        }
        self.tags[victim] = raw;
        self.stamps[victim] = self.tick;
    }

    /// Number of resident lines (memory accounting and tests).
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY_TAG).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn lookup_miss_then_hit() {
        let mut c = Cache::new(CacheConfig { sets: 4, ways: 2 });
        assert_eq!(c.lookup(line(5)), None);
        c.insert(line(5), MesiState::Exclusive);
        assert_eq!(c.lookup(line(5)), Some(MesiState::Exclusive));
    }

    #[test]
    fn state_transitions() {
        let mut c = Cache::new(CacheConfig { sets: 4, ways: 2 });
        c.insert(line(1), MesiState::Shared);
        c.set_state(line(1), MesiState::Modified);
        assert_eq!(c.peek(line(1)), Some(MesiState::Modified));
        assert_eq!(c.invalidate(line(1)), Some(MesiState::Modified));
        assert_eq!(c.peek(line(1)), None);
    }

    #[test]
    fn lru_eviction_picks_least_recent() {
        let mut c = Cache::new(CacheConfig { sets: 1, ways: 2 });
        c.insert(line(1), MesiState::Exclusive);
        c.insert(line(2), MesiState::Modified);
        // Touch line 1 so line 2 is LRU.
        assert!(c.lookup(line(1)).is_some());
        let ins = c.insert(line(3), MesiState::Exclusive);
        assert_eq!(
            ins,
            Insertion::Evicted {
                line: line(2),
                dirty: true
            }
        );
        assert!(c.peek(line(1)).is_some());
        assert!(c.peek(line(2)).is_none());
    }

    #[test]
    fn insert_existing_updates_in_place() {
        let mut c = Cache::new(CacheConfig { sets: 1, ways: 1 });
        c.insert(line(1), MesiState::Shared);
        assert_eq!(c.insert(line(1), MesiState::Modified), Insertion::Placed);
        assert_eq!(c.peek(line(1)), Some(MesiState::Modified));
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn sets_partition_lines() {
        let mut c = Cache::new(CacheConfig { sets: 2, ways: 1 });
        // Lines 0 and 2 map to set 0; line 1 maps to set 1.
        c.insert(line(0), MesiState::Exclusive);
        c.insert(line(1), MesiState::Exclusive);
        let ins = c.insert(line(2), MesiState::Exclusive);
        assert!(matches!(ins, Insertion::Evicted { line: l, .. } if l == line(0)));
        assert!(c.peek(line(1)).is_some(), "other set is untouched");
    }

    #[test]
    fn invalidated_slot_is_reused_before_eviction() {
        let mut c = Cache::new(CacheConfig { sets: 1, ways: 2 });
        c.insert(line(0), MesiState::Exclusive);
        c.insert(line(2), MesiState::Exclusive);
        c.invalidate(line(0));
        // The freed way must absorb the new line without an eviction.
        assert_eq!(c.insert(line(4), MesiState::Exclusive), Insertion::Placed);
        assert_eq!(c.resident_lines(), 2);
        assert!(c.peek(line(2)).is_some());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_rejected() {
        let _ = Cache::new(CacheConfig { sets: 3, ways: 1 });
    }

    #[test]
    fn llc_tags_match_general_layout_hit_for_hit() {
        // The dense LLC layout must reproduce the general cache's LRU
        // behavior exactly: same lookup hits, same residency, under a
        // mixed lookup/insert stream with heavy set conflicts.
        let cfg = CacheConfig { sets: 4, ways: 3 };
        let mut general = Cache::new(cfg);
        let mut dense = LlcTags::new(cfg);
        let mut x = 0xDEAD_BEEFu64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let l = line(x % 32); // 8 lines per set: constant thrash
            if x & 1 == 0 {
                assert_eq!(
                    general.lookup(l).is_some(),
                    dense.lookup(l),
                    "lookup({l:?})"
                );
            } else {
                general.insert(l, MesiState::Shared);
                dense.insert(l);
            }
            assert_eq!(general.resident_lines(), dense.resident_lines());
        }
    }

    #[test]
    fn llc_tags_evict_lru() {
        let mut t = LlcTags::new(CacheConfig { sets: 1, ways: 2 });
        t.insert(line(1));
        t.insert(line(2));
        assert!(t.lookup(line(1))); // line 2 becomes LRU
        t.insert(line(3));
        assert!(t.lookup(line(1)));
        assert!(!t.lookup(line(2)));
        assert!(t.lookup(line(3)));
        assert_eq!(t.resident_lines(), 2);
    }
}
