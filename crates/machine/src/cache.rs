//! Set-associative cache tag arrays with MESI state per line.
//!
//! Only *metadata* lives here (tags, MESI states, LRU order) — line data is
//! in [`crate::PhysMem`]. That is sufficient because the execution engine
//! linearizes memory operations, so the value plane never diverges from what
//! a real coherent machine would observe for the interleaving being
//! simulated.
//!
//! # Layouts
//!
//! Both tag arrays are flat and set-major: set `s` owns slots
//! `s * ways .. (s + 1) * ways` of every per-slot array, so a lookup
//! computes one offset and scans a fixed-size slice, never chasing a
//! pointer and never allocating. At the default geometries one set's tags
//! are 64 bytes, a host cache line's worth. The arrays are not aligned to
//! 64 bytes, so a set may straddle two lines; an aligned variant measured
//! no faster.
//!
//! * [`Cache`], the private caches (512 sets × 8 ways): one `u64` tag word
//!   per way, `line << 2 | MESI code` (codes 1–3, so the all-zero word is
//!   an empty way), beside a parallel array of `u64` LRU stamps. A hit
//!   reads the set's 64 bytes of tags and writes one stamp; a cache is
//!   64 KiB of host memory. Stamps come from a per-cache tick that advances on
//!   every lookup and insert, so resident ways hold distinct stamps and the
//!   victim, the minimum stamp, is unique: replacement never depends on
//!   scan order. Snoop invalidations free ways anywhere in a set, and an
//!   insertion takes the first free way.
//! * [`LlcTags`], the shared LLC (8192 sets × 16 ways): a `u32` tag per way,
//!   the line number above the set-index bits, and a `u8` LRU rank, 0 for
//!   the most recent. The whole array is 640 KiB, where 64-bit tags and
//!   stamps took 2 MiB. A tag is never truncated: the access path converts
//!   it with a checked conversion, which holds every line of a
//!   `FrameId(u32)` (up to 2^38 − 1) once the LLC has at least 64 sets.
//!
//! # Why rank LRU is exact
//!
//! The LLC is never snoop-invalidated and an insertion takes the first
//! free way, so a set's occupied ways are always a prefix and their ranks
//! a permutation of `0..occupied`: a way's rank is the number of resident
//! lines of its set used more recently. Using the way ranked `r` moves it
//! to 0 and every rank below `r` up by one; filling a set with `n`
//! occupied ways does the same with `r = n`. Under stamps the same use
//! gives that way the largest stamp and keeps the others' order, so rank
//! order is stamp order after every step. The victim of a full set, the
//! way ranked `ways - 1`, is therefore the unique minimum-stamp victim of
//! a stamp-LRU cache, and the two agree hit for hit (the tests run both
//! arrays against a stamp-LRU reference model). The private caches keep
//! stamps: invalidations break the prefix there, and a prototype of a
//! single rank-LRU type with 64-bit tags for both caches measured slower
//! (DESIGN §9).

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

/// Tag word of an empty way in [`Cache`]: a resident way's word carries a
/// nonzero MESI code in its low two bits.
const EMPTY_WAY: u64 = 0;

/// The tag word of the line whose key is `key` (`line << 2`), held in
/// `state`.
#[inline]
fn tag_word(key: u64, state: MesiState) -> u64 {
    key | match state {
        MesiState::Modified => 1,
        MesiState::Exclusive => 2,
        MesiState::Shared => 3,
    }
}

/// The MESI state of a resident tag word.
#[inline]
fn word_state(word: u64) -> MesiState {
    match word & 3 {
        1 => MesiState::Modified,
        2 => MesiState::Exclusive,
        _ => MesiState::Shared,
    }
}

/// Whether tag word `word` holds the line whose key is `key` (`line << 2`):
/// the word is `key | code` with a code in 1..=3, so it lies in
/// `key + 1 ..= key + 3`, which the empty word never does. One compare.
#[inline]
fn holds(word: u64, key: u64) -> bool {
    word.wrapping_sub(key + 1) < 3
}

/// A set-associative tag array.
#[derive(Debug)]
pub struct Cache {
    config: CacheConfig,
    /// `sets * ways` tag words, row-major: set `s` occupies
    /// `tags[s * config.ways .. (s + 1) * config.ways]`. A word is
    /// `line << 2 | MESI code` or [`EMPTY_WAY`].
    tags: Box<[u64]>,
    /// LRU stamp per slot, meaningful where the tag word is resident.
    stamps: Box<[u64]>,
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
        let slots = config.sets * config.ways;
        Cache {
            config,
            tags: vec![EMPTY_WAY; slots].into_boxed_slice(),
            stamps: vec![0; slots].into_boxed_slice(),
            tick: 0,
        }
    }

    /// Returns the cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// The slot range of `line`'s set and the line's tag key, `line << 2`.
    ///
    /// # Panics
    ///
    /// Panics if the line number does not fit in 62 bits (a line of a
    /// physical address never exceeds 58).
    #[inline]
    fn locate(&self, line: LineAddr) -> (std::ops::Range<usize>, u64) {
        let raw = line.raw();
        assert!(raw >> 62 == 0, "line {raw:#x} too wide for a tag word");
        let base = (raw as usize & (self.config.sets - 1)) * self.config.ways;
        (base..base + self.config.ways, raw << 2)
    }

    /// The slot holding `line`, if resident.
    #[inline]
    fn find(&self, line: LineAddr) -> Option<usize> {
        let (range, key) = self.locate(line);
        let base = range.start;
        self.tags[range]
            .iter()
            .position(|&word| holds(word, key))
            .map(|way| base + way)
    }

    /// Returns the MESI state of `line`, if present, refreshing its LRU
    /// position.
    #[inline]
    pub fn lookup(&mut self, line: LineAddr) -> Option<MesiState> {
        self.tick += 1;
        let slot = self.find(line)?;
        self.stamps[slot] = self.tick;
        Some(word_state(self.tags[slot]))
    }

    /// Returns the MESI state of `line` without touching LRU state (used by
    /// snoop probes from other cores, which do not constitute a use).
    #[inline]
    pub fn peek(&self, line: LineAddr) -> Option<MesiState> {
        self.find(line).map(|slot| word_state(self.tags[slot]))
    }

    /// Sets the state of a line already present.
    ///
    /// # Panics
    ///
    /// Panics if the line is not present.
    pub fn set_state(&mut self, line: LineAddr, state: MesiState) {
        let slot = self.find(line).expect("set_state on absent line");
        self.tags[slot] = tag_word(self.tags[slot] & !3, state);
    }

    /// Removes a line (snoop invalidation), returning its former state.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<MesiState> {
        let slot = self.find(line)?;
        let state = word_state(self.tags[slot]);
        self.tags[slot] = EMPTY_WAY;
        Some(state)
    }

    /// Inserts `line` with `state`, updating in place if already present.
    /// Returns whether a victim had to be evicted.
    pub fn insert(&mut self, line: LineAddr, state: MesiState) -> Insertion {
        self.tick += 1;
        let tick = self.tick;
        let (range, key) = self.locate(line);
        let word = tag_word(key, state);
        let tags = &mut self.tags[range.clone()];
        let stamps = &mut self.stamps[range];
        let mut free: Option<usize> = None;
        let mut victim = 0usize;
        let mut victim_stamp = u64::MAX;
        for way in 0..tags.len() {
            let old = tags[way];
            if old == EMPTY_WAY {
                free.get_or_insert(way);
                continue;
            }
            if holds(old, key) {
                tags[way] = word;
                stamps[way] = tick;
                return Insertion::Placed;
            }
            if stamps[way] < victim_stamp {
                victim_stamp = stamps[way];
                victim = way;
            }
        }
        if let Some(way) = free {
            tags[way] = word;
            stamps[way] = tick;
            return Insertion::Placed;
        }
        // Evict the LRU way (stamps are distinct, so the victim is unique).
        let old = tags[victim];
        tags[victim] = word;
        stamps[victim] = tick;
        Insertion::Evicted {
            line: LineAddr::new(old >> 2),
            dirty: word_state(old) == MesiState::Modified,
        }
    }

    /// Number of resident lines (for memory accounting and tests).
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&word| word != EMPTY_WAY).count()
    }

    /// Drops every resident line (e.g. when a simulated process is torn
    /// down in tests). Dirty data is already in physical memory, so no
    /// writeback is needed.
    pub fn clear(&mut self) {
        self.tags.fill(EMPTY_WAY);
    }

    /// Visits every resident `(line, state)` pair (diagnostics and
    /// directory consistency checks; order is the array layout).
    pub fn for_each_resident(&self, mut f: impl FnMut(LineAddr, MesiState)) {
        for &word in self.tags.iter().filter(|&&word| word != EMPTY_WAY) {
            f(LineAddr::new(word >> 2), word_state(word));
        }
    }
}

/// Rank of an empty way in [`LlcTags`]; real ranks are below `ways`.
const EMPTY_RANK: u8 = u8::MAX;

/// Tag array specialized for the shared LLC.
///
/// The LLC differs from the private caches in two ways that allow a leaner
/// layout: its MESI state is never read back (the machine only asks
/// "present or not"), and nothing invalidates it, so each set fills as a
/// prefix. Each way holds a 32-bit tag and a `u8` LRU rank; replacement is
/// exact LRU, identical hit for hit to [`Cache`]'s stamps (the module docs
/// give the argument, and the tests check it against a reference model).
#[derive(Debug)]
pub struct LlcTags {
    config: CacheConfig,
    /// `log2(sets)`: a tag is the line number shifted right by this.
    set_bits: u32,
    /// Tag per way slot, row-major sets as in [`Cache`]; meaningful where
    /// the rank is not [`EMPTY_RANK`].
    tags: Box<[u32]>,
    /// LRU rank per way slot (0 = most recent), or [`EMPTY_RANK`].
    ranks: Box<[u8]>,
}

impl LlcTags {
    /// Creates an empty LLC tag array with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is not in 1..=255.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.sets.is_power_of_two(), "sets must be a power of two");
        assert!(
            (1..=usize::from(EMPTY_RANK)).contains(&config.ways),
            "ways must be in 1..=255"
        );
        let slots = config.sets * config.ways;
        LlcTags {
            config,
            set_bits: config.sets.trailing_zeros(),
            tags: vec![0; slots].into_boxed_slice(),
            ranks: vec![EMPTY_RANK; slots].into_boxed_slice(),
        }
    }

    /// Returns the cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// The slot range of `line`'s set and the line's tag.
    ///
    /// # Panics
    ///
    /// Panics if the tag does not fit in 32 bits, which no line of a
    /// `FrameId(u32)` frame does once the LLC has 64 sets or more.
    #[inline]
    fn locate(&self, line: LineAddr) -> (std::ops::Range<usize>, u32) {
        let raw = line.raw();
        let tag = u32::try_from(raw >> self.set_bits)
            .unwrap_or_else(|_| panic!("line {raw:#x} has an LLC tag wider than 32 bits"));
        let base = (raw as usize & (self.config.sets - 1)) * self.config.ways;
        (base..base + self.config.ways, tag)
    }

    /// Whether `line` is resident, refreshing its LRU position if so.
    #[inline]
    pub fn lookup(&mut self, line: LineAddr) -> bool {
        let (range, tag) = self.locate(line);
        let Some(way) = self.tags[range.clone()].iter().position(|&t| t == tag) else {
            return false;
        };
        let ranks = &mut self.ranks[range];
        let rank = ranks[way];
        // The first equal tag may be a free way's stale tag; free ways are
        // a suffix of the set, so the line is absent.
        if rank == EMPTY_RANK {
            return false;
        }
        promote(ranks, way, rank);
        true
    }

    /// Inserts `line`, refreshing its LRU position if already present and
    /// evicting the LRU way if the set is full. LLC victims fall to
    /// memory, so the victim is not reported.
    #[inline]
    pub fn insert(&mut self, line: LineAddr) {
        let (range, tag) = self.locate(line);
        let tags = &mut self.tags[range.clone()];
        let ranks = &mut self.ranks[range];
        let lru = (tags.len() - 1) as u8;
        let mut victim = 0;
        for way in 0..tags.len() {
            let rank = ranks[way];
            if rank == EMPTY_RANK {
                // The first free way ends the occupied prefix: the line is
                // absent, and the `way` resident lines all rank above it.
                tags[way] = tag;
                promote(ranks, way, way as u8);
                return;
            }
            if tags[way] == tag {
                promote(ranks, way, rank);
                return;
            }
            if rank == lru {
                victim = way;
            }
        }
        tags[victim] = tag;
        promote(ranks, victim, lru);
    }

    /// Number of resident lines (memory accounting and tests).
    pub fn resident_lines(&self) -> usize {
        self.ranks.iter().filter(|&&r| r != EMPTY_RANK).count()
    }
}

/// Makes `way`, ranked `rank` (or about to fill a set with `rank` resident
/// lines), the most recent way of its set: every rank below `rank` moves
/// one place older. Free ways hold [`EMPTY_RANK`] and stay free. The
/// update is branch-free: ranks are in random order, and a branch per way
/// mispredicted often enough to double the cost of an LLC access.
#[inline]
fn promote(ranks: &mut [u8], way: usize, rank: u8) {
    for r in ranks.iter_mut() {
        *r += u8::from(*r < rank);
    }
    ranks[way] = 0;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    /// The largest line a `FrameId(u32)` can name: 2^32 frames of 64 lines.
    const TOP_LINE: u64 = (1 << 38) - 1;

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
            // 8 lines per set: constant thrash. The line skips bit 0 of
            // `x`, which picks the operation, so lookups also probe lines
            // that were inserted.
            let l = line((x >> 1) % 32);
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

    #[test]
    fn llc_tags_hold_the_highest_frame_line() {
        // At 64 sets the top line's tag is u32::MAX, and a free way's tag
        // must not pass for it; at the default geometry it is 2^25 - 1.
        for sets in [64, CacheConfig::llc_default().sets] {
            let mut t = LlcTags::new(CacheConfig { sets, ways: 16 });
            let top = line(TOP_LINE);
            let alias = line(TOP_LINE - sets as u64); // same set, tag - 1
            assert!(!t.lookup(top));
            t.insert(top);
            assert!(t.lookup(top), "{sets} sets");
            assert!(!t.lookup(alias), "{sets} sets: tags stay distinct");
            t.insert(alias);
            assert!(t.lookup(top) && t.lookup(alias));
            assert_eq!(t.resident_lines(), 2);
        }
    }

    #[test]
    #[should_panic(expected = "wider than 32 bits")]
    fn llc_tags_refuse_to_truncate_a_tag() {
        // 32 sets leave a 33-bit tag for the top line: refused, not cut.
        let mut t = LlcTags::new(CacheConfig { sets: 32, ways: 2 });
        t.insert(line(TOP_LINE));
    }

    #[test]
    fn default_geometries_fit_their_host_budget() {
        use std::mem::size_of_val;
        let c = Cache::new(CacheConfig::private_default());
        let cache_bytes = size_of_val(&*c.tags) + size_of_val(&*c.stamps);
        assert!(cache_bytes <= 64 << 10, "private cache: {cache_bytes} B");
        assert_eq!(
            size_of_val(&*c.tags) / c.config.sets,
            64,
            "64 bytes of tags per set"
        );
        let t = LlcTags::new(CacheConfig::llc_default());
        let llc_bytes = size_of_val(&*t.tags) + size_of_val(&*t.ranks);
        assert!(llc_bytes <= 640 << 10, "LLC: {llc_bytes} B");
        assert_eq!(
            size_of_val(&*t.tags) / t.config.sets,
            64,
            "64 bytes of tags per set"
        );
    }

    /// Stamp-LRU reference model: every way a `(line, state, stamp)` slot,
    /// one tick per lookup or insert, first-free placement and the
    /// minimum-stamp victim. Both tag arrays must agree with it exactly.
    struct StampLru {
        sets: usize,
        ways: Vec<Vec<Option<(LineAddr, MesiState, u64)>>>,
        tick: u64,
    }

    impl StampLru {
        fn new(config: CacheConfig) -> Self {
            StampLru {
                sets: config.sets,
                ways: vec![vec![None; config.ways]; config.sets],
                tick: 0,
            }
        }

        fn set(&mut self, l: LineAddr) -> &mut Vec<Option<(LineAddr, MesiState, u64)>> {
            &mut self.ways[l.raw() as usize % self.sets]
        }

        fn find(&mut self, l: LineAddr) -> Option<&mut (LineAddr, MesiState, u64)> {
            self.set(l).iter_mut().flatten().find(|w| w.0 == l)
        }

        fn lookup(&mut self, l: LineAddr) -> Option<MesiState> {
            self.tick += 1;
            let tick = self.tick;
            self.find(l).map(|w| {
                w.2 = tick;
                w.1
            })
        }

        fn peek(&mut self, l: LineAddr) -> Option<MesiState> {
            self.find(l).map(|w| w.1)
        }

        fn set_state(&mut self, l: LineAddr, state: MesiState) {
            self.find(l).expect("resident").1 = state;
        }

        fn invalidate(&mut self, l: LineAddr) -> Option<MesiState> {
            let slot = self
                .set(l)
                .iter_mut()
                .find(|w| w.is_some_and(|w| w.0 == l))?;
            slot.take().map(|w| w.1)
        }

        fn insert(&mut self, l: LineAddr, state: MesiState) -> Insertion {
            self.tick += 1;
            let tick = self.tick;
            if let Some(w) = self.find(l) {
                *w = (l, state, tick);
                return Insertion::Placed;
            }
            let set = self.set(l);
            if let Some(free) = set.iter_mut().find(|w| w.is_none()) {
                *free = Some((l, state, tick));
                return Insertion::Placed;
            }
            let victim = set
                .iter_mut()
                .min_by_key(|w| w.expect("full").2)
                .expect("ways > 0");
            let (old, old_state, _) = victim.replace((l, state, tick)).expect("full");
            Insertion::Evicted {
                line: old,
                dirty: old_state == MesiState::Modified,
            }
        }

        fn len(&self) -> usize {
            self.ways.iter().flatten().filter(|w| w.is_some()).count()
        }

        fn resident(&self) -> Vec<LineAddr> {
            let mut v: Vec<LineAddr> = self.ways.iter().flatten().flatten().map(|w| w.0).collect();
            v.sort_unstable();
            v
        }
    }

    fn llc_resident(t: &LlcTags) -> Vec<LineAddr> {
        let ways = t.config.ways;
        let mut v: Vec<LineAddr> = (0..t.tags.len())
            .filter(|&slot| t.ranks[slot] != EMPTY_RANK)
            .map(|slot| line(u64::from(t.tags[slot]) << t.set_bits | (slot / ways) as u64))
            .collect();
        v.sort_unstable();
        v
    }

    /// Runs `check` on every geometry of 1, 3, 8 and 16 ways by 1 to 64
    /// sets, twice: over low lines, and over the highest lines whose LLC
    /// tag fits 32 bits (at 64 sets they end at the top `FrameId` line).
    /// `next` yields a random roll and a line from a span of three lines
    /// per way, so every set keeps evicting.
    fn for_each_geometry(mut check: impl FnMut(CacheConfig, &mut dyn FnMut() -> (u64, LineAddr))) {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for ways in [1, 3, 8, 16] {
            for sets in [1usize, 2, 4, 8, 16, 32, 64] {
                let span = (3 * sets * ways) as u64;
                for first in [0, (1u64 << (32 + sets.trailing_zeros())) - span] {
                    let mut next = || {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        (x >> 32, line(first + x % span))
                    };
                    check(CacheConfig { sets, ways }, &mut next);
                }
            }
        }
    }

    #[test]
    fn cache_matches_stamp_lru_reference() {
        const STATES: [MesiState; 3] =
            [MesiState::Modified, MesiState::Exclusive, MesiState::Shared];
        for_each_geometry(|cfg, next| {
            let mut c = Cache::new(cfg);
            let mut r = StampLru::new(cfg);
            for step in 0..4_000 {
                let (roll, l) = next();
                let state = STATES[(roll % 3) as usize];
                match roll % 16 {
                    0..=5 => assert_eq!(c.lookup(l), r.lookup(l), "{cfg:?} step {step}"),
                    6..=11 => assert_eq!(
                        c.insert(l, state),
                        r.insert(l, state),
                        "{cfg:?} step {step}"
                    ),
                    12 | 13 => assert_eq!(c.invalidate(l), r.invalidate(l), "{cfg:?} step {step}"),
                    14 => assert_eq!(c.peek(l), r.peek(l), "{cfg:?} step {step}"),
                    _ => {
                        if r.peek(l).is_some() {
                            c.set_state(l, state);
                            r.set_state(l, state);
                        }
                        assert_eq!(c.peek(l), r.peek(l), "{cfg:?} step {step}");
                    }
                }
                assert_eq!(c.resident_lines(), r.len(), "{cfg:?} step {step}");
            }
            let mut resident = Vec::new();
            c.for_each_resident(|l, _| resident.push(l));
            resident.sort_unstable();
            assert_eq!(resident, r.resident(), "{cfg:?}");
        });
    }

    #[test]
    fn llc_tags_match_stamp_lru_reference() {
        for_each_geometry(|cfg, next| {
            let mut t = LlcTags::new(cfg);
            let mut r = StampLru::new(cfg);
            for step in 0..4_000 {
                let (roll, l) = next();
                if roll % 2 == 0 {
                    assert_eq!(t.lookup(l), r.lookup(l).is_some(), "{cfg:?} step {step}");
                } else {
                    t.insert(l);
                    r.insert(l, MesiState::Shared);
                }
                assert_eq!(t.resident_lines(), r.len(), "{cfg:?} step {step}");
            }
            assert_eq!(llc_resident(&t), r.resident(), "{cfg:?}");
        });
    }
}
