//! The sharer-directory table: an open-addressed map from [`LineAddr`] to
//! [`DirEntry`] laid out for exactly one cache line per probe.
//!
//! The generic [`crate::flat::LineTable`] keeps keys and values in parallel
//! slabs, so a hit costs two random cache lines — one for the key probe,
//! one for the value. The directory sits on every coherence miss, which
//! makes that second line the single largest fast-path-only cost on
//! contended workloads. This table interleaves each key with its entry in
//! a 32-byte slot aligned to 32 bytes: two slots per cache line, never
//! straddling a boundary, so a probe that finds its key has the entry in
//! the same line for free.
//!
//! Two structural simplifications make the packing possible:
//!
//! - **No deletion.** Promotion into the directory is sticky (entries
//!   drain to an empty sharer set rather than being removed), so the
//!   table needs no tombstones or backward-shift machinery.
//! - **Bounded streak.** The per-line HITM streak is stored as a
//!   saturating `u32`. Only `min(streak, cap)` (the queuing penalty) and
//!   the `== 2` promotion crossing are ever observed, so saturation far
//!   above both thresholds cannot change any outcome.
//!
//! Hashing and growth policy match [`crate::flat::LineTable`]: Fibonacci
//! multiplicative hashing, linear probing, growth at 87.5% load.

use crate::addr::LineAddr;
use crate::latency::LatencyModel;

/// Sentinel for "no core holds this line Modified".
pub(crate) const NO_OWNER: u8 = u8::MAX;

/// Sentinel for "no HITM recorded yet" in streak state ([`DirEntry`] and
/// the broadcast-path streak table share it so their fresh-entry behavior
/// is identical).
pub(crate) const NO_HITM: u64 = u64::MAX;

/// Sentinel for an empty slot. `LineAddr` values are physical addresses
/// divided by the line size, so `u64::MAX` can never be a live key.
const EMPTY: u64 = u64::MAX;

/// The HITM streak window in accesses: a HITM within this many accesses
/// of the line's previous one extends the streak; a longer gap resets it.
const HITM_STREAK_WINDOW: u64 = 2_000;

/// Grow at 87.5% load, as in [`crate::flat::LineTable`].
const GROW_NUM: usize = 7;
const GROW_DEN: usize = 8;

/// One directory entry: which private caches hold the line, which core
/// (if any) holds it Modified, and the line's HITM streak state — folded
/// in so a tracked HITM updates one table slot instead of two tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct DirEntry {
    /// Bit `c` set ⇔ core `c`'s private cache holds the line (any state).
    pub sharers: u64,
    /// Sequence number of the line's last HITM, or [`NO_HITM`].
    pub last_hitm: u64,
    /// Current back-to-back HITM streak length (saturating; see the
    /// module docs for why saturation is unobservable).
    pub streak: u32,
    /// The core holding the line Modified, or [`NO_OWNER`].
    pub owner: u8,
}

impl Default for DirEntry {
    fn default() -> Self {
        DirEntry {
            sharers: 0,
            last_hitm: NO_HITM,
            streak: 0,
            owner: NO_OWNER,
        }
    }
}

/// Advances one line's HITM streak state and returns the queuing penalty.
/// `last == NO_HITM` reproduces the fresh-entry path of the broadcast
/// streak table exactly: a first HITM starts the streak at one.
#[inline]
pub(crate) fn streak_step(seq: u64, lat: &LatencyModel, last: &mut u64, streak: &mut u64) -> u64 {
    if *last == NO_HITM {
        *streak = 1;
    } else if seq.saturating_sub(*last) < HITM_STREAK_WINDOW {
        *streak += 1;
    } else {
        *streak = 0;
    }
    *last = seq;
    lat.hitm_queuing_step * (*streak).min(lat.hitm_queuing_cap)
}

impl DirEntry {
    /// [`streak_step`] over the entry's own (saturating) streak state.
    #[inline]
    pub(crate) fn hitm_streak_step(&mut self, seq: u64, lat: &LatencyModel) -> u64 {
        let mut streak = self.streak as u64;
        let penalty = streak_step(seq, lat, &mut self.last_hitm, &mut streak);
        self.streak = streak.min(u32::MAX as u64) as u32;
        penalty
    }
}

/// Key and entry interleaved into exactly one half cache line.
#[derive(Clone, Copy, Debug)]
#[repr(C, align(32))]
struct Slot {
    /// Raw line number, or [`EMPTY`].
    key: u64,
    entry: DirEntry,
}

const _: () = assert!(
    std::mem::size_of::<Slot>() == 32,
    "slot must stay half a cache line"
);

impl Slot {
    const VACANT: Slot = Slot {
        key: EMPTY,
        entry: DirEntry {
            sharers: 0,
            last_hitm: NO_HITM,
            streak: 0,
            owner: NO_OWNER,
        },
    };
}

/// The sharer-directory map (see the module docs).
#[derive(Debug)]
pub(crate) struct DirTable {
    slots: Box<[Slot]>,
    len: usize,
    /// `capacity - 1`; capacity is always a power of two.
    mask: usize,
}

impl DirTable {
    /// Creates a table sized for at least `cap` entries before growing.
    pub fn with_capacity(cap: usize) -> Self {
        let capacity = cap.next_power_of_two().max(8);
        DirTable {
            slots: vec![Slot::VACANT; capacity].into_boxed_slice(),
            len: 0,
            mask: capacity - 1,
        }
    }

    /// Number of live entries (test observability).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Fibonacci multiplicative hash, as in [`crate::flat::LineTable`].
    #[inline]
    fn ideal_slot(&self, key: u64) -> usize {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize & self.mask
    }

    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        let mut i = self.ideal_slot(key);
        loop {
            let k = self.slots[i].key;
            if k == key {
                return Some(i);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Returns the entry for `line`, if tracked.
    #[inline]
    pub fn get(&self, line: LineAddr) -> Option<&DirEntry> {
        self.find(line.raw()).map(|i| &self.slots[i].entry)
    }

    /// Returns a mutable reference to the entry for `line`, if tracked.
    #[inline]
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut DirEntry> {
        self.find(line.raw()).map(move |i| &mut self.slots[i].entry)
    }

    /// Inserts or overwrites the entry for `line`.
    pub fn insert(&mut self, line: LineAddr, entry: DirEntry) {
        if self.len * GROW_DEN >= (self.mask + 1) * GROW_NUM {
            self.grow();
        }
        let key = line.raw();
        debug_assert_ne!(key, EMPTY, "LineAddr::MAX is reserved");
        let mut i = self.ideal_slot(key);
        loop {
            let k = self.slots[i].key;
            if k == key {
                self.slots[i].entry = entry;
                return;
            }
            if k == EMPTY {
                self.slots[i] = Slot { key, entry };
                self.len += 1;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Visits every live `(line, entry)` pair in unspecified order.
    pub fn for_each(&self, mut f: impl FnMut(LineAddr, &DirEntry)) {
        for s in self.slots.iter() {
            if s.key != EMPTY {
                f(LineAddr::new(s.key), &s.entry);
            }
        }
    }

    /// Drops every entry, keeping the allocation. Only the test-only
    /// mid-run directory toggle rebuilds from scratch.
    #[cfg(test)]
    pub fn clear(&mut self) {
        self.slots.fill(Slot::VACANT);
        self.len = 0;
    }

    fn grow(&mut self) {
        let new_cap = (self.mask + 1) * 2;
        let old = std::mem::replace(
            &mut self.slots,
            vec![Slot::VACANT; new_cap].into_boxed_slice(),
        );
        self.mask = new_cap - 1;
        self.len = 0;
        for s in old.iter() {
            if s.key != EMPTY {
                self.insert(LineAddr::new(s.key), s.entry);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    fn entry(sharers: u64) -> DirEntry {
        DirEntry {
            sharers,
            ..DirEntry::default()
        }
    }

    #[test]
    fn insert_get_overwrite() {
        let mut t = DirTable::with_capacity(8);
        assert!(t.get(line(7)).is_none());
        t.insert(line(7), entry(0b11));
        assert_eq!(t.get(line(7)).map(|e| e.sharers), Some(0b11));
        t.insert(line(7), entry(0b101));
        assert_eq!(t.get(line(7)).map(|e| e.sharers), Some(0b101));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut t = DirTable::with_capacity(8);
        for i in 0..1_000u64 {
            t.insert(line(i * 3), entry(i));
        }
        assert_eq!(t.len(), 1_000);
        for i in 0..1_000u64 {
            assert_eq!(t.get(line(i * 3)).map(|e| e.sharers), Some(i));
        }
    }

    #[test]
    fn mirror_against_hashmap() {
        let mut t = DirTable::with_capacity(8);
        let mut m: HashMap<u64, u64> = HashMap::new();
        let mut x = 0x1234_5678_9abc_def0u64;
        for _ in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 512;
            if x & 1 == 0 {
                t.insert(line(key), entry(x));
                m.insert(key, x);
            } else {
                assert_eq!(t.get(line(key)).map(|e| e.sharers), m.get(&key).copied());
            }
            assert_eq!(t.len(), m.len());
        }
        let mut seen = 0;
        t.for_each(|l, e| {
            assert_eq!(m.get(&l.raw()), Some(&e.sharers));
            seen += 1;
        });
        assert_eq!(seen, m.len());
        t.clear();
        assert!(t.is_empty());
        assert!(t.get(line(0)).is_none());
    }

    #[test]
    fn streak_step_matches_fresh_and_windowed_semantics() {
        let lat = LatencyModel::haswell();
        let mut e = DirEntry::default();
        // First HITM: streak 1.
        let p1 = e.hitm_streak_step(100, &lat);
        assert_eq!(e.streak, 1);
        assert_eq!(p1, lat.hitm_queuing_step);
        // Within the window: streak grows.
        let p2 = e.hitm_streak_step(200, &lat);
        assert_eq!(e.streak, 2);
        assert_eq!(p2, 2 * lat.hitm_queuing_step);
        // Outside the window: streak resets to zero (matching the
        // broadcast-path table), and the penalty with it.
        let p3 = e.hitm_streak_step(5_000, &lat);
        assert_eq!(e.streak, 0);
        assert_eq!(p3, 0);
        // The cap bounds the penalty, not the streak.
        for _ in 0..100 {
            e.hitm_streak_step(5_001, &lat);
        }
        let p = e.hitm_streak_step(5_002, &lat);
        assert_eq!(p, lat.hitm_queuing_cap * lat.hitm_queuing_step);
        assert!(u64::from(e.streak) > lat.hitm_queuing_cap);
    }
}
