//! A generic set-associative cache of line metadata with LRU replacement.
//!
//! Only metadata is stored — tags and MESI state — because the simulator
//! never needs line *contents* (workloads compute on native Rust data).
//! One structure serves both L1s (which ignore the MESI field beyond
//! valid/invalid) and the coherent L2s.
//!
//! Every way is one `u64` word, `(line << 2) | state`, and `0` marks an
//! empty way. The sets are one flat array, `ways` words per set, and each
//! set keeps its lines packed at the front in recency order: way 0 holds
//! the most recently used line, the last occupied way the least. A hit
//! moves its line to the front, an insert into a full set drops the last
//! way, and a removal shifts the later ways down. Replacement therefore
//! needs no stamps, and an 8-way set of the paper's L2 is exactly one
//! 64-byte host cache line, aligned as one.

use crate::config::CacheConfig;
use crate::mesi::MesiState;

/// A cache-line-granular physical address (physical address >> line shift).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// Line address of a byte-granular physical address.
    #[inline]
    pub fn of(paddr: u64, line_shift: u32) -> Self {
        LineAddr(paddr >> line_shift)
    }
}

/// A line pushed out of the cache by replacement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// Which line was evicted.
    pub addr: LineAddr,
    /// The state it was in (dirty ⇒ writeback needed).
    pub state: MesiState,
}

/// The low two bits of a way word. `Invalid` has no code: invalid lines
/// are removed, never stored, so a resident way is never the empty word.
#[inline]
fn encode_state(state: MesiState) -> u64 {
    match state {
        MesiState::Modified => 1,
        MesiState::Exclusive => 2,
        MesiState::Shared => 3,
        MesiState::Invalid => panic!("invalid lines are removed, not stored"),
    }
}

#[inline]
fn decode_state(word: u64) -> MesiState {
    match word & 3 {
        1 => MesiState::Modified,
        2 => MesiState::Exclusive,
        _ => MesiState::Shared,
    }
}

/// The way word of `line` in `state`. Line addresses are byte addresses
/// shifted by at least three bits (line size ≥ 8), so the shift cannot
/// overflow.
#[inline]
fn way_word(line: u64, state: MesiState) -> u64 {
    (line << 2) | encode_state(state)
}

/// Position of the first way whose word, state bits aside, equals `key`
/// (a line address shifted left by two; an empty way matches key 0),
/// scanning four ways per iteration.
///
/// The four compares are evaluated unconditionally and OR-combined before
/// the single branch, so the four loads of one block are in flight
/// together instead of chaining a load→compare→branch per way (see the
/// `tag_compare` benchmark).
#[inline(always)]
fn scan4(set: &[u64], key: u64) -> Option<usize> {
    let hit = |i: usize| (set[i] ^ key) < 4;
    let n = set.len();
    let mut i = 0;
    while i + 4 <= n {
        let h0 = hit(i);
        let h1 = hit(i + 1);
        let h2 = hit(i + 2);
        let h3 = hit(i + 3);
        if h0 | h1 | h2 | h3 {
            let off = if h0 {
                0
            } else if h1 {
                1
            } else if h2 {
                2
            } else {
                3
            };
            return Some(i + off);
        }
        i += 4;
    }
    (i..n).find(|&i| hit(i))
}

/// Way of `line` within `set`, if resident. Only an empty way matches
/// the tag of line 0 without holding it, and empty ways follow every
/// resident one, so the first tag match is line 0's way if line 0 is
/// resident and the first empty way if not.
#[inline(always)]
fn find_way(set: &[u64], line: u64) -> Option<usize> {
    scan4(set, line << 2).filter(|&way| set[way] != 0)
}

/// Scalar way scan of a one-word-per-way set — the baseline the
/// `tag_compare` benchmark A/Bs against [`way_scan_unrolled`].
#[doc(hidden)]
pub fn way_scan_scalar(set: &[u64], line: LineAddr) -> Option<usize> {
    let key = line.0 << 2;
    set.iter()
        .position(|&word| (word ^ key) < 4)
        .filter(|&way| set[way] != 0)
}

/// The 4-wide way scan the caches run, exposed for the `tag_compare`
/// benchmark.
#[doc(hidden)]
pub fn way_scan_unrolled(set: &[u64], line: LineAddr) -> Option<usize> {
    find_way(set, line.0)
}

/// Move the line in `way` to the front of `set`, shifting the ways
/// before it back by one; returns its word. The shift is a loop rather
/// than `copy_within`, which would call `memmove` for a handful of words.
#[inline(always)]
fn to_front(set: &mut [u64], way: usize) -> u64 {
    let word = set[way];
    let mut carry = word;
    for slot in &mut set[..=way] {
        carry = std::mem::replace(slot, carry);
    }
    word
}

/// Words of one 64-byte host cache line.
const HOST_LINE_WORDS: usize = 8;

/// Set-associative cache of line metadata. Line addresses must be below
/// 2^62, which every byte address shifted by a line size of at least 8
/// is.
#[derive(Debug)]
pub struct Cache {
    ways: usize,
    /// `n_sets × ways` way words from index `base` on, set by set; the
    /// words before `base` pad set 0 to a host-line boundary.
    words: Vec<u64>,
    base: usize,
    n_sets: usize,
    /// `n_sets - 1` when the set count is a power of two, else `usize::MAX`.
    /// Lets the per-access index computation use a mask instead of a
    /// hardware divide.
    set_mask: usize,
    /// Lemire fastmod magic, `⌈2^64 / n_sets⌉`, for non-power-of-two set
    /// counts (the paper's 12288-set L2): `addr % n_sets` becomes two
    /// multiplies for any 32-bit line address.
    modmul: u64,
}

impl Cache {
    /// Create an empty cache.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see [`CacheConfig::validate`]).
    pub fn new(config: CacheConfig) -> Self {
        config.validate();
        let n_sets = config.sets();
        let words = vec![0; n_sets * config.ways + HOST_LINE_WORDS - 1];
        let misalign = words.as_ptr() as usize / 8 % HOST_LINE_WORDS;
        Cache {
            ways: config.ways,
            words,
            base: (HOST_LINE_WORDS - misalign) % HOST_LINE_WORDS,
            n_sets,
            set_mask: if n_sets.is_power_of_two() {
                n_sets - 1
            } else {
                usize::MAX
            },
            modmul: (u64::MAX / n_sets as u64).wrapping_add(1),
        }
    }

    #[inline]
    fn set_index(&self, addr: LineAddr) -> usize {
        if self.set_mask != usize::MAX {
            (addr.0 as usize) & self.set_mask
        } else if addr.0 <= u32::MAX as u64 {
            // Lemire's fastmod: exact `addr % n_sets` for 32-bit operands.
            let low = self.modmul.wrapping_mul(addr.0);
            ((low as u128 * self.n_sets as u128) >> 64) as usize
        } else {
            (addr.0 as usize) % self.n_sets
        }
    }

    /// Index in `words` of the first way of `addr`'s set.
    #[inline]
    fn set_start(&self, addr: LineAddr) -> usize {
        debug_assert!(addr.0 < 1 << 62, "line {addr:?} overflows a way word");
        self.base + self.set_index(addr) * self.ways
    }

    /// The ways of `addr`'s set, most recently used first.
    #[inline]
    fn ways_of(&self, addr: LineAddr) -> &[u64] {
        let start = self.set_start(addr);
        &self.words[start..start + self.ways]
    }

    #[inline]
    fn ways_of_mut(&mut self, addr: LineAddr) -> &mut [u64] {
        let start = self.set_start(addr);
        &mut self.words[start..start + self.ways]
    }

    /// State of `addr` if resident, making it the set's most recent line.
    #[inline]
    pub fn touch(&mut self, addr: LineAddr) -> Option<MesiState> {
        let set = self.ways_of_mut(addr);
        let way = find_way(set, addr.0)?;
        Some(decode_state(to_front(set, way)))
    }

    /// State of `addr` if resident, without touching LRU (snoop path).
    #[inline]
    pub fn peek(&self, addr: LineAddr) -> Option<MesiState> {
        let set = self.ways_of(addr);
        find_way(set, addr.0).map(|way| decode_state(set[way]))
    }

    /// Change the state of a resident line. Returns `false` if absent.
    pub fn set_state(&mut self, addr: LineAddr, state: MesiState) -> bool {
        self.replace_state(addr, state).is_some()
    }

    /// Change the state of a resident line, returning its previous state
    /// (`None` if absent). Recency is unchanged. One set scan where a
    /// `peek` + [`Cache::set_state`] pair would take two — the coherence
    /// miss paths read the old state and write the new one for every
    /// holder the owner directory names.
    #[inline]
    pub fn replace_state(&mut self, addr: LineAddr, state: MesiState) -> Option<MesiState> {
        debug_assert_ne!(state, MesiState::Invalid, "use remove() to invalidate");
        let set = self.ways_of_mut(addr);
        let way = find_way(set, addr.0)?;
        let old = set[way];
        set[way] = way_word(addr.0, state);
        Some(decode_state(old))
    }

    /// Put `addr` in front of `set`, shifting the occupied ways back by
    /// one. Returns the line shifted out of the last way if the set was
    /// full.
    #[inline]
    fn push_front(set: &mut [u64], addr: LineAddr, state: MesiState) -> Option<EvictedLine> {
        let mut carry = way_word(addr.0, state);
        for way in set.iter_mut() {
            carry = std::mem::replace(way, carry);
            if carry == 0 {
                return None;
            }
        }
        Some(EvictedLine {
            addr: LineAddr(carry >> 2),
            state: decode_state(carry),
        })
    }

    /// Install `addr` with `state`, evicting the LRU line of the set if it
    /// is full. Returns the evicted line, if any.
    ///
    /// # Panics
    /// Panics if `state` is `Invalid`, and (debug) if `addr` is already
    /// resident — callers must use [`Cache::set_state`] for state changes.
    pub fn insert(&mut self, addr: LineAddr, state: MesiState) -> Option<EvictedLine> {
        let set = self.ways_of_mut(addr);
        debug_assert!(
            find_way(set, addr.0).is_none(),
            "insert of already-resident line {addr:?}"
        );
        Self::push_front(set, addr, state)
    }

    /// Write-allocate probe: make `addr` the set's most recent line if it
    /// is resident, else install it with `state` (evicting the set's LRU
    /// line if full). One set scan instead of the touch-then-insert pair.
    /// Returns whether the line was already resident, plus any eviction.
    #[inline]
    pub fn touch_or_insert(
        &mut self,
        addr: LineAddr,
        state: MesiState,
    ) -> (bool, Option<EvictedLine>) {
        let set = self.ways_of_mut(addr);
        match find_way(set, addr.0) {
            Some(way) => {
                to_front(set, way);
                (true, None)
            }
            None => (false, Self::push_front(set, addr, state)),
        }
    }

    /// Install `addr` with `state` unless it is already resident; a
    /// resident line keeps its place in the recency order (the
    /// peek-then-insert pair this replaces did not touch it either).
    /// Returns any eviction.
    #[inline]
    pub fn insert_if_absent(&mut self, addr: LineAddr, state: MesiState) -> Option<EvictedLine> {
        let set = self.ways_of_mut(addr);
        if find_way(set, addr.0).is_some() {
            return None;
        }
        Self::push_front(set, addr, state)
    }

    /// Remove `addr` (coherence invalidation or back-invalidation). Returns
    /// the state it was in, if resident.
    #[inline]
    pub fn remove(&mut self, addr: LineAddr) -> Option<MesiState> {
        let set = self.ways_of_mut(addr);
        let way = find_way(set, addr.0)?;
        let word = set[way];
        for next in way + 1..set.len() {
            set[next - 1] = set[next];
        }
        set[set.len() - 1] = 0;
        Some(decode_state(word))
    }

    /// Iterate over all resident lines as `(addr, state)`.
    pub fn lines(&self) -> impl Iterator<Item = (LineAddr, MesiState)> + '_ {
        self.words[self.base..]
            .iter()
            .filter(|&&word| word != 0)
            .map(|&word| (LineAddr(word >> 2), decode_state(word)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets × 2 ways of 64-byte lines.
        Cache::new(CacheConfig {
            size_bytes: 64 * 8,
            line_size: 64,
            ways: 2,
            latency: 1,
        })
    }

    #[test]
    fn insert_then_touch() {
        let mut c = tiny();
        assert_eq!(c.touch(LineAddr(1)), None);
        c.insert(LineAddr(1), MesiState::Exclusive);
        assert_eq!(c.touch(LineAddr(1)), Some(MesiState::Exclusive));
    }

    #[test]
    fn peek_does_not_update_lru() {
        let mut c = tiny();
        // Set 0: lines 0, 4 (4 sets → addr & 3).
        c.insert(LineAddr(0), MesiState::Shared);
        c.insert(LineAddr(4), MesiState::Shared);
        // Peek line 0 — should NOT protect it from eviction.
        assert_eq!(c.peek(LineAddr(0)), Some(MesiState::Shared));
        let ev = c.insert(LineAddr(8), MesiState::Shared).unwrap();
        assert_eq!(ev.addr, LineAddr(0));
    }

    #[test]
    fn touch_protects_from_eviction() {
        let mut c = tiny();
        c.insert(LineAddr(0), MesiState::Shared);
        c.insert(LineAddr(4), MesiState::Shared);
        c.touch(LineAddr(0));
        let ev = c.insert(LineAddr(8), MesiState::Shared).unwrap();
        assert_eq!(ev.addr, LineAddr(4));
    }

    #[test]
    fn eviction_reports_dirty_state() {
        let mut c = tiny();
        c.insert(LineAddr(0), MesiState::Modified);
        c.insert(LineAddr(4), MesiState::Exclusive);
        let ev = c.insert(LineAddr(8), MesiState::Shared).unwrap();
        assert_eq!(ev.state, MesiState::Modified);
        assert!(ev.state.dirty());
    }

    #[test]
    fn remove_returns_state() {
        let mut c = tiny();
        c.insert(LineAddr(5), MesiState::Modified);
        assert_eq!(c.remove(LineAddr(5)), Some(MesiState::Modified));
        assert_eq!(c.remove(LineAddr(5)), None);
        assert_eq!(c.lines().count(), 0);
    }

    #[test]
    fn set_state_transitions() {
        let mut c = tiny();
        c.insert(LineAddr(2), MesiState::Exclusive);
        assert!(c.set_state(LineAddr(2), MesiState::Modified));
        assert_eq!(c.peek(LineAddr(2)), Some(MesiState::Modified));
        assert!(!c.set_state(LineAddr(99), MesiState::Shared));
    }

    #[test]
    fn occupancy_bounded_by_capacity() {
        let mut c = tiny();
        for i in 0..100 {
            if c.peek(LineAddr(i)).is_none() {
                c.insert(LineAddr(i), MesiState::Shared);
            }
        }
        assert!(c.lines().count() <= 8);
    }

    #[test]
    fn fastmod_matches_modulo_for_non_pow2_sets() {
        // The paper's L2 geometry: 12288 sets (3 · 4096) takes the Lemire
        // fastmod path for 32-bit line addresses and `%` above that.
        let c = Cache::new(CacheConfig {
            size_bytes: 64 * 12288 * 8,
            line_size: 64,
            ways: 8,
            latency: 15,
        });
        assert_eq!(c.n_sets, 12288);
        let samples = [
            0u64,
            1,
            12287,
            12288,
            12289,
            0xDEAD_BEEF,
            u32::MAX as u64 - 1,
            u32::MAX as u64,
            u32::MAX as u64 + 1,
            u64::MAX / 2,
            u64::MAX,
        ];
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        for i in 0..10_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = if i % 2 == 0 { x >> 32 } else { x };
            assert_eq!(
                c.set_index(LineAddr(a)),
                (a % 12288) as usize,
                "addr {a:#x}"
            );
        }
        for a in samples {
            assert_eq!(
                c.set_index(LineAddr(a)),
                (a % 12288) as usize,
                "addr {a:#x}"
            );
        }
    }

    #[test]
    fn sets_start_on_host_lines() {
        for ways in [1, 2, 4, 8, 16] {
            let c = Cache::new(CacheConfig {
                size_bytes: 64 * 16 * ways as u64,
                line_size: 64,
                ways,
                latency: 1,
            });
            assert_eq!(c.words[c.base..].as_ptr() as usize % 64, 0, "{ways} ways");
            assert_eq!(c.words.len() - c.base, 16 * ways + 7 - c.base);
        }
    }

    #[test]
    fn line_zero_is_resident_only_when_inserted() {
        let mut c = tiny();
        c.insert(LineAddr(4), MesiState::Modified);
        assert_eq!(c.peek(LineAddr(0)), None);
        assert_eq!(c.remove(LineAddr(0)), None);
        c.insert(LineAddr(0), MesiState::Shared);
        assert_eq!(c.touch(LineAddr(0)), Some(MesiState::Shared));
        assert_eq!(c.remove(LineAddr(0)), Some(MesiState::Shared));
        assert_eq!(c.peek(LineAddr(4)), Some(MesiState::Modified));
    }

    #[test]
    fn line_addr_of_strips_offset() {
        assert_eq!(LineAddr::of(0x1040, 6), LineAddr(0x41));
        assert_eq!(LineAddr::of(0x107F, 6), LineAddr(0x41));
        assert_eq!(LineAddr::of(0x1080, 6), LineAddr(0x42));
    }
}
