//! Small open-addressing hash tables keyed by line address.
//!
//! The owner directory, the windowed engine's coherence image and the
//! per-L2 miss-taxonomy history all sit on the L2 miss path, where
//! `std::collections::HashMap`'s SipHash is pure overhead: line addresses
//! are already well-distributed integers and the tables are private to
//! one hierarchy, so a multiplicative hash with linear probing is both
//! safe and several times faster. Each slot holds a key and its value
//! side by side, so a probe reads one host cache line.
//!
//! [`LineMap`] maps a line to a bitmap and drops an entry whose bitmap
//! drains, leaving a tombstone. [`LineFlags`] maps a line to two flag
//! bits packed into the key's word; its entries never drain, so it needs
//! no tombstones and takes 8 bytes a slot.

const EMPTY: u64 = u64::MAX;
const TOMBSTONE: u64 = u64::MAX - 1;

/// Fibonacci-style multiplicative hash spreading low-entropy integer keys
/// across the high bits (the probe start uses the top `log2(capacity)`).
#[inline]
fn spread(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Home slot of `key` in a power-of-two table of `cap` slots.
#[inline]
fn home(key: u64, cap: usize) -> usize {
    (spread(key) >> (64 - cap.trailing_zeros())) as usize
}

/// An open-addressing map from `u64` keys (line addresses) to `u64`
/// bitmaps (holder masks over L2 indices).
///
/// Backs the sparse MESI owner directory (one entry per line resident in
/// *any* L2, so holder lookup, invalidation and state audits iterate the
/// popcount of actual sharers instead of scanning every L2) and the
/// windowed engine's coherence image. Keys `u64::MAX` and `u64::MAX - 1`
/// are reserved as slot markers; line addresses are physical addresses
/// shifted right by the line size, so they can never reach them. An entry
/// whose mask drains to zero is removed, keeping the table proportional to
/// the lines actually tracked.
#[derive(Debug, Clone, Default)]
pub(crate) struct LineMap {
    /// Power-of-two slot array of `[key, mask]`, the key `EMPTY`,
    /// `TOMBSTONE` or a stored key.
    slots: Vec<[u64; 2]>,
    /// Live entries.
    len: usize,
    /// Tombstones left by removals (cleared on rehash).
    tombs: usize,
}

impl LineMap {
    /// An empty map. Allocates nothing until the first insert.
    pub fn new() -> Self {
        LineMap::default()
    }

    /// Number of keys with a non-empty mask.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// The mask stored for `key`, or `0` if absent.
    #[inline]
    pub fn get(&self, key: u64) -> u64 {
        if self.slots.is_empty() {
            return 0;
        }
        let mask = self.slots.len() - 1;
        let mut i = home(key, self.slots.len());
        loop {
            let [k, v] = self.slots[i & mask];
            if k == key {
                return v;
            }
            if k == EMPTY {
                return 0;
            }
            i += 1;
        }
    }

    /// Set bit `bit` in the mask for `key`, inserting the entry if absent.
    pub fn set_bit(&mut self, key: u64, bit: u32) {
        debug_assert!(key < TOMBSTONE, "key collides with slot markers");
        debug_assert!(bit < 64, "holder index exceeds mask width");
        if (self.len + self.tombs + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = home(key, self.slots.len());
        let mut free: Option<usize> = None;
        loop {
            let slot = i & mask;
            let k = self.slots[slot][0];
            if k == key {
                self.slots[slot][1] |= 1 << bit;
                return;
            }
            if k == TOMBSTONE {
                free.get_or_insert(slot);
            } else if k == EMPTY {
                let target = free.unwrap_or(slot);
                if self.slots[target][0] == TOMBSTONE {
                    self.tombs -= 1;
                }
                self.slots[target] = [key, 1 << bit];
                self.len += 1;
                return;
            }
            i += 1;
        }
    }

    /// Clear bit `bit` in the mask for `key`; the entry is removed when its
    /// mask drains to zero. No-op if the key (or bit) is absent.
    pub fn clear_bit(&mut self, key: u64, bit: u32) {
        if self.slots.is_empty() {
            return;
        }
        let mask = self.slots.len() - 1;
        let mut i = home(key, self.slots.len());
        loop {
            let slot = &mut self.slots[i & mask];
            if slot[0] == key {
                slot[1] &= !(1u64 << bit);
                if slot[1] == 0 {
                    slot[0] = TOMBSTONE;
                    self.len -= 1;
                    self.tombs += 1;
                }
                return;
            }
            if slot[0] == EMPTY {
                return;
            }
            i += 1;
        }
    }

    /// Double the capacity (start at 16) and rehash, dropping tombstones.
    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![[EMPTY, 0]; new_cap]);
        self.tombs = 0;
        let mask = new_cap - 1;
        for [key, val] in old {
            if key < TOMBSTONE {
                let mut i = home(key, new_cap);
                while self.slots[i & mask][0] != EMPTY {
                    i += 1;
                }
                self.slots[i & mask] = [key, val];
            }
        }
    }
}

/// An insert-only open-addressing map from line addresses to two flag
/// bits, one `u64` word `(line << 2) | flags` per slot and `0` for an
/// empty slot. Line addresses are below 2^62 (byte addresses shifted by
/// at least three bits), so the key survives the shift.
///
/// An entry's flags never drain to zero — the per-L2 miss history sets
/// its ever-resident flag on the first miss, before anything can set or
/// clear its coherence-lost flag — so an entry, once stored, stays, and
/// no slot ever needs a tombstone. Debug builds assert it.
#[derive(Debug, Clone, Default)]
pub(crate) struct LineFlags {
    /// Power-of-two slot array of way-style words.
    slots: Vec<u64>,
    /// Stored entries.
    len: usize,
}

impl LineFlags {
    /// An empty table. Allocates nothing until the first update.
    pub fn new() -> Self {
        LineFlags::default()
    }

    /// Number of stored lines.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// The flags stored for `line`, or `0` if absent.
    #[cfg(test)]
    pub fn get(&self, line: u64) -> u64 {
        if self.slots.is_empty() {
            return 0;
        }
        let mask = self.slots.len() - 1;
        let mut i = home(line, self.slots.len());
        loop {
            let word = self.slots[i & mask];
            if word == 0 {
                return 0;
            }
            if word >> 2 == line {
                return word & 3;
            }
            i += 1;
        }
    }

    /// Replace the flags of `line` with `(old & !clear) | set`, inserting
    /// the entry if absent, and return the old flags (`0` if absent).
    ///
    /// # Panics
    /// Panics (debug) if the new flags are zero — entries never drain.
    #[inline]
    pub fn update(&mut self, line: u64, set: u64, clear: u64) -> u64 {
        debug_assert!(line < 1 << 62, "line address {line:#x} overflows the key");
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = home(line, self.slots.len());
        loop {
            let slot = &mut self.slots[i & mask];
            let word = *slot;
            if word == 0 || word >> 2 == line {
                let old = word & 3;
                let new = (old & !clear) | set;
                debug_assert!(new & 3 != 0, "entry for line {line:#x} drained");
                *slot = (line << 2) | (new & 3);
                self.len += (word == 0) as usize;
                return old;
            }
            i += 1;
        }
    }

    /// Double the capacity (start at 16) and rehash.
    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![0; new_cap]);
        let mask = new_cap - 1;
        for word in old.into_iter().filter(|&word| word != 0) {
            let mut i = home(word >> 2, new_cap);
            while self.slots[i & mask] != 0 {
                i += 1;
            }
            self.slots[i & mask] = word;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    #[test]
    fn zero_is_a_valid_key() {
        let mut m = LineMap::new();
        m.set_bit(0, 7);
        assert_eq!(m.get(0), 1 << 7);
        m.clear_bit(0, 7);
        assert_eq!(m.get(0), 0);
    }

    #[test]
    fn tombstones_do_not_break_probe_chains() {
        let mut m = LineMap::new();
        // Fill enough to force probe chains, then drain alternating keys.
        for k in 0..64u64 {
            m.set_bit(k, 1);
        }
        for k in (0..64u64).step_by(2) {
            m.clear_bit(k, 1);
        }
        for k in 0..64u64 {
            let expect = if k % 2 == 1 { 1u64 << 1 } else { 0 };
            assert_eq!(m.get(k), expect, "key {k}");
        }
        // Re-adding drained keys reuses tombstones.
        for k in (0..64u64).step_by(2) {
            m.set_bit(k, 1);
        }
        assert_eq!(m.len(), 64);
    }

    #[test]
    fn empty_map_answers_without_allocating() {
        let m = LineMap::new();
        assert_eq!(m.get(0), 0);
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn set_get_clear_roundtrip() {
        let mut m = LineMap::new();
        m.set_bit(42, 3);
        assert_eq!(m.get(42), 1 << 3);
        m.set_bit(42, 0);
        assert_eq!(m.get(42), (1 << 3) | 1);
        m.clear_bit(42, 3);
        assert_eq!(m.get(42), 1);
        m.clear_bit(42, 0);
        assert_eq!(m.get(42), 0);
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn clearing_absent_key_or_bit_is_a_noop() {
        let mut m = LineMap::new();
        m.clear_bit(7, 2); // empty map
        m.set_bit(7, 1);
        m.clear_bit(7, 2); // bit not set
        assert_eq!(m.get(7), 1 << 1);
        m.clear_bit(8, 1); // key not present
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn drained_entries_leave_reusable_tombstones() {
        let mut m = LineMap::new();
        for k in 0..64u64 {
            m.set_bit(k, (k % 64) as u32);
        }
        for k in (0..64u64).step_by(2) {
            m.clear_bit(k, (k % 64) as u32);
        }
        for k in 0..64u64 {
            let expect = if k % 2 == 1 { 1u64 << (k % 64) } else { 0 };
            assert_eq!(m.get(k), expect, "key {k}");
        }
        for k in (0..64u64).step_by(2) {
            m.set_bit(k, 5);
        }
        assert_eq!(m.len(), 64);
    }

    #[test]
    fn matches_std_hashmap_on_random_traffic() {
        let mut rng = SmallRng::seed_from_u64(0xD1_8EC7);
        for _ in 0..20 {
            let mut ours = LineMap::new();
            let mut std_map: HashMap<u64, u64> = HashMap::new();
            for _ in 0..3000 {
                let key = rng.gen_range(0u64..300);
                let bit = rng.gen_range(0u32..64);
                if rng.gen_bool(0.5) {
                    ours.set_bit(key, bit);
                    *std_map.entry(key).or_insert(0) |= 1 << bit;
                } else {
                    ours.clear_bit(key, bit);
                    if let Some(v) = std_map.get_mut(&key) {
                        *v &= !(1u64 << bit);
                        if *v == 0 {
                            std_map.remove(&key);
                        }
                    }
                }
            }
            assert_eq!(ours.len(), std_map.len());
            for key in 0..300 {
                assert_eq!(ours.get(key), std_map.get(&key).copied().unwrap_or(0));
            }
        }
    }

    #[test]
    fn line_flags_hold_line_zero_and_top_lines() {
        let mut m = LineFlags::new();
        let top = (1u64 << 61) - 1;
        assert_eq!(m.get(0), 0);
        assert_eq!(m.update(0, 1, 0), 0);
        assert_eq!(m.update(top, 2, 0), 0);
        assert_eq!(m.update(0, 2, 0), 1);
        assert_eq!(m.get(0), 3);
        assert_eq!(m.get(top), 2);
        assert_eq!(m.update(0, 0, 2), 3);
        assert_eq!(m.get(0), 1);
        assert_eq!(m.len(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "drained")]
    fn line_flags_refuse_to_drain() {
        let mut m = LineFlags::new();
        m.update(7, 2, 0);
        m.update(7, 0, 2);
    }

    #[test]
    fn line_flags_match_std_hashmap_on_random_traffic() {
        let mut rng = SmallRng::seed_from_u64(0xF1A6_5EED);
        let top = (1u64 << 61) - 512;
        for _ in 0..20 {
            let mut ours = LineFlags::new();
            let mut std_map: HashMap<u64, u64> = HashMap::new();
            for _ in 0..3000 {
                let pick = rng.gen_range(0u64..600);
                let line = if pick < 300 { pick } else { top + pick };
                let old = std_map.get(&line).copied().unwrap_or(0);
                let (set, clear) = if rng.gen_bool(0.5) {
                    (rng.gen_range(1u64..4), 0)
                } else {
                    (0, rng.gen_range(1u64..3))
                };
                // Entries never drain: a clear that would empty (or never
                // fill) an entry sets the other flag as well.
                let set = if (old & !clear) | set == 0 {
                    3 & !clear
                } else {
                    set
                };
                assert_eq!(ours.update(line, set, clear), old, "line {line:#x}");
                std_map.insert(line, (old & !clear) | set);
            }
            assert_eq!(ours.len(), std_map.len());
            for pick in 0..600 {
                let line = if pick < 300 { pick } else { top + pick };
                assert_eq!(ours.get(line), std_map.get(&line).copied().unwrap_or(0));
            }
        }
    }
}
