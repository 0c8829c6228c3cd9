//! The sharer-directory table: an open-addressed map from [`LineAddr`] to
//! [`DirEntry`] laid out for exactly one cache line per probe.
//!
//! The directory sits on every private-cache miss, fill and eviction, so
//! its probe cost is the coherence layer's main host-time overhead. This
//! table interleaves each key with its entry in a 32-byte slot aligned to
//! 32 bytes: two slots per cache line, never straddling a boundary, so a
//! probe that finds its key has the entry in the same line for free.
//!
//! Hashing is Fibonacci multiplicative with linear probing; the table
//! grows at 87.5% load and never shrinks. Deletion shifts the tail of the
//! probe run backwards over the hole, so no tombstones accumulate as
//! entries come and go with the lines the caches hold.
//!
//! The per-line HITM streak is stored as a saturating `u32`. Only
//! `min(streak, cap)` (the queuing penalty) is ever observed, so
//! saturation far above the cap cannot change any outcome.

use crate::addr::LineAddr;
use crate::latency::LatencyModel;

/// Sentinel for "no core holds this line Modified".
pub(crate) const NO_OWNER: u8 = u8::MAX;

/// Sentinel for "no HITM recorded yet" in a [`DirEntry`]'s streak state.
pub(crate) const NO_HITM: u64 = u64::MAX;

/// Sentinel for an empty slot. `LineAddr` values are physical addresses
/// divided by the line size, so `u64::MAX` can never be a live key.
const EMPTY: u64 = u64::MAX;

/// The HITM streak window in accesses: a HITM within this many accesses
/// of the line's previous one extends the streak; a longer gap resets it.
const HITM_STREAK_WINDOW: u64 = 2_000;

/// Grow when `len * 8 >= capacity * 7` (87.5% load): linear probing stays
/// short well past this for the multiplicative hash.
const GROW_NUM: usize = 7;
const GROW_DEN: usize = 8;

/// One directory entry: which private caches hold the line, which core
/// (if any) holds it Modified, and the line's HITM streak state — folded
/// in so a HITM updates one table slot.
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

impl DirEntry {
    const NEW: DirEntry = DirEntry {
        sharers: 0,
        last_hitm: NO_HITM,
        streak: 0,
        owner: NO_OWNER,
    };

    /// Advances the line's HITM streak for a HITM at access sequence
    /// number `seq` and returns the queuing penalty. A first HITM starts
    /// the streak at one; a HITM within [`HITM_STREAK_WINDOW`] accesses of
    /// the previous one extends it; a longer gap resets it to zero.
    #[inline]
    pub(crate) fn hitm_streak_step(&mut self, seq: u64) -> u64 {
        if self.last_hitm == NO_HITM {
            self.streak = 1;
        } else if seq.saturating_sub(self.last_hitm) < HITM_STREAK_WINDOW {
            self.streak = self.streak.saturating_add(1);
        } else {
            self.streak = 0;
        }
        self.last_hitm = seq;
        LatencyModel::HITM_QUEUING_STEP * u64::from(self.streak).min(LatencyModel::HITM_QUEUING_CAP)
    }
}

impl Default for DirEntry {
    fn default() -> Self {
        Self::NEW
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
        entry: DirEntry::NEW,
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

    /// Fibonacci multiplicative hash: spreads consecutive line numbers
    /// (the common access pattern) across the table.
    #[inline]
    fn ideal_slot(&self, key: u64) -> usize {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // The high bits carry the mixing; fold them down onto the mask.
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

    /// Returns the entry for `line`, if tracked (test observability).
    #[cfg(test)]
    pub fn get(&self, line: LineAddr) -> Option<&DirEntry> {
        self.find(line.raw()).map(|i| &self.slots[i].entry)
    }

    /// Returns a mutable reference to the entry for `line`, if tracked.
    #[inline]
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut DirEntry> {
        self.find(line.raw()).map(move |i| &mut self.slots[i].entry)
    }

    /// Returns the entry for `line`, inserting a fresh one (no holders, no
    /// owner, no HITM history) if the line is untracked.
    #[inline]
    pub fn entry(&mut self, line: LineAddr) -> &mut DirEntry {
        if self.len * GROW_DEN >= (self.mask + 1) * GROW_NUM {
            self.grow();
        }
        let key = line.raw();
        debug_assert_ne!(key, EMPTY, "LineAddr::MAX is reserved");
        let mut i = self.ideal_slot(key);
        loop {
            let k = self.slots[i].key;
            if k == key {
                break;
            }
            if k == EMPTY {
                self.slots[i].key = key;
                self.len += 1;
                break;
            }
            i = (i + 1) & self.mask;
        }
        &mut self.slots[i].entry
    }

    /// Records the eviction of `core`'s copy of `line`: clears its sharer
    /// bit and ownership, and removes the entry once no copy is left and
    /// the line has no HITM history to keep.
    ///
    /// # Panics
    ///
    /// Panics if `line` is untracked (every resident line has an entry).
    pub fn drop_sharer(&mut self, line: LineAddr, core: usize) {
        let i = self
            .find(line.raw())
            .unwrap_or_else(|| panic!("evicted line {line:?} has no directory entry"));
        let e = &mut self.slots[i].entry;
        e.sharers &= !(1u64 << core);
        if usize::from(e.owner) == core {
            e.owner = NO_OWNER;
        }
        if e.sharers == 0 && e.last_hitm == NO_HITM {
            self.remove_slot(i);
        }
    }

    /// Removes `line`'s entry, returning it if it was tracked (test
    /// observability).
    #[cfg(test)]
    pub fn remove(&mut self, line: LineAddr) -> Option<DirEntry> {
        let i = self.find(line.raw())?;
        let removed = self.slots[i].entry;
        self.remove_slot(i);
        Some(removed)
    }

    /// Empties slot `hole` by shifting the tail of its probe run backwards
    /// over it, so lookups never scan over tombstones.
    fn remove_slot(&mut self, mut hole: usize) {
        self.len -= 1;
        let mut j = hole;
        loop {
            j = (j + 1) & self.mask;
            let k = self.slots[j].key;
            if k == EMPTY {
                break;
            }
            // `j`'s entry may move into the hole only if its ideal slot is
            // at or before the hole within this run (cyclic comparison).
            let ideal = self.ideal_slot(k);
            if (j.wrapping_sub(ideal) & self.mask) >= (j.wrapping_sub(hole) & self.mask) {
                self.slots[hole] = self.slots[j];
                hole = j;
            }
        }
        self.slots[hole] = Slot::VACANT;
    }

    /// Visits every live `(line, entry)` pair in unspecified order.
    pub fn for_each(&self, mut f: impl FnMut(LineAddr, &DirEntry)) {
        for s in self.slots.iter() {
            if s.key != EMPTY {
                f(LineAddr::new(s.key), &s.entry);
            }
        }
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
                *self.entry(LineAddr::new(s.key)) = s.entry;
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
    fn entry_get_overwrite_remove() {
        let mut t = DirTable::with_capacity(8);
        assert!(t.get(line(7)).is_none());
        assert_eq!(*t.entry(line(7)), DirEntry::default());
        t.entry(line(7)).sharers = 0b11;
        assert_eq!(t.get(line(7)).map(|e| e.sharers), Some(0b11));
        *t.entry(line(7)) = entry(0b101);
        assert_eq!(t.get(line(7)).map(|e| e.sharers), Some(0b101));
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(line(7)).map(|e| e.sharers), Some(0b101));
        assert!(t.get(line(7)).is_none());
        assert_eq!(t.remove(line(7)), None);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut t = DirTable::with_capacity(8);
        for i in 0..1_000u64 {
            *t.entry(line(i * 3)) = entry(i);
        }
        assert_eq!(t.len(), 1_000);
        for i in 0..1_000u64 {
            assert_eq!(t.get(line(i * 3)).map(|e| e.sharers), Some(i));
        }
    }

    #[test]
    fn backward_shift_keeps_probe_runs_intact() {
        // Keys that share an ideal slot form one probe run; deleting from
        // the middle of the run must leave its tail reachable.
        let mut t = DirTable::with_capacity(8);
        let mut by_slot: HashMap<usize, Vec<u64>> = HashMap::new();
        for k in 0..200u64 {
            by_slot.entry(t.ideal_slot(k)).or_default().push(k);
        }
        let run = by_slot
            .values()
            .find(|v| v.len() >= 3)
            .expect("some slot collides")
            .clone();
        for &k in &run[..3] {
            *t.entry(line(k)) = entry(k);
        }
        t.remove(line(run[0]));
        for &k in &run[1..3] {
            assert_eq!(
                t.get(line(k)).map(|e| e.sharers),
                Some(k),
                "key {k} lost after removal"
            );
        }
    }

    #[test]
    fn mirror_against_hashmap() {
        // Deterministic pseudo-random op sequence diffed against HashMap.
        let mut t = DirTable::with_capacity(8);
        let mut m: HashMap<u64, u64> = HashMap::new();
        let mut x = 0x1234_5678_9abc_def0u64;
        for _ in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 512;
            match x >> 61 {
                0..=3 => {
                    *t.entry(line(key)) = entry(x);
                    m.insert(key, x);
                }
                4 | 5 => {
                    assert_eq!(t.remove(line(key)).map(|e| e.sharers), m.remove(&key));
                }
                _ => {
                    assert_eq!(t.get(line(key)).map(|e| e.sharers), m.get(&key).copied());
                }
            }
            assert_eq!(t.len(), m.len());
        }
        let mut seen = 0;
        t.for_each(|l, e| {
            assert_eq!(m.get(&l.raw()), Some(&e.sharers));
            seen += 1;
        });
        assert_eq!(seen, m.len());
    }

    #[test]
    fn streak_step_matches_fresh_and_windowed_semantics() {
        let mut e = DirEntry::default();
        // First HITM: streak 1.
        let p1 = e.hitm_streak_step(100);
        assert_eq!(e.streak, 1);
        assert_eq!(p1, LatencyModel::HITM_QUEUING_STEP);
        // Within the window: streak grows.
        let p2 = e.hitm_streak_step(200);
        assert_eq!(e.streak, 2);
        assert_eq!(p2, 2 * LatencyModel::HITM_QUEUING_STEP);
        // Outside the window: streak resets to zero, and the penalty with
        // it.
        let p3 = e.hitm_streak_step(5_000);
        assert_eq!(e.streak, 0);
        assert_eq!(p3, 0);
        // The cap bounds the penalty, not the streak.
        for _ in 0..100 {
            e.hitm_streak_step(5_001);
        }
        let p = e.hitm_streak_step(5_002);
        assert_eq!(
            p,
            LatencyModel::HITM_QUEUING_CAP * LatencyModel::HITM_QUEUING_STEP
        );
        assert!(u64::from(e.streak) > LatencyModel::HITM_QUEUING_CAP);
    }
}
