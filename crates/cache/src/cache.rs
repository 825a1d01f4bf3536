//! A generic set-associative cache of line metadata with LRU replacement.
//!
//! Only metadata is stored — tags, MESI state, LRU timestamps — because the
//! simulator never needs line *contents* (workloads compute on native Rust
//! data). One structure serves both L1s (which ignore the MESI field beyond
//! valid/invalid) and the coherent L2s.
//!
//! Sets are per-set `Vec<Line>`s grown lazily: a simulation builds a
//! fresh hierarchy per run and touches a sparse fraction of the paper L2's
//! 12288 sets, so allocation is paid only for sets actually used.

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

/// One resident line, packed to 16 bytes: the MESI state lives in the low
/// two bits of `meta`, the LRU stamp in the high bits. Whole-word `meta`
/// comparison orders lines by recency (stamps are unique — every probe
/// that stamps bumps the cache clock), which keeps the victim scan a bare
/// `u64` minimum.
#[derive(Debug, Clone)]
struct Line {
    addr: u64,
    meta: u64,
}

#[inline]
fn encode_state(state: MesiState) -> u64 {
    match state {
        MesiState::Modified => 0,
        MesiState::Exclusive => 1,
        MesiState::Shared => 2,
        MesiState::Invalid => 3,
    }
}

#[inline]
fn decode_state(meta: u64) -> MesiState {
    match meta & 3 {
        0 => MesiState::Modified,
        1 => MesiState::Exclusive,
        2 => MesiState::Shared,
        _ => MesiState::Invalid,
    }
}

#[inline]
fn pack_meta(state: MesiState, stamp: u64) -> u64 {
    (stamp << 2) | encode_state(state)
}

/// Position of the first index `i < n` with `tag(i) == addr`, scanning
/// four tags per iteration.
///
/// The four compares are evaluated unconditionally and OR-combined before
/// the single branch, u64x4-style: the compiler keeps all four (strided)
/// tag loads in flight instead of chaining a load→compare→branch per way,
/// which measurably beats the scalar scan on the paper's 8-way L2 (see the
/// `tag_compare` benchmark). Tag order inside a set is unrelated to
/// recency (LRU lives in `meta`), so returning the first match preserves
/// behaviour exactly.
#[inline(always)]
fn scan4(n: usize, addr: u64, tag: impl Fn(usize) -> u64) -> Option<usize> {
    let mut i = 0;
    while i + 4 <= n {
        let h0 = tag(i) == addr;
        let h1 = tag(i + 1) == addr;
        let h2 = tag(i + 2) == addr;
        let h3 = tag(i + 3) == addr;
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
    while i < n {
        if tag(i) == addr {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Way index of `addr` within `set`, if resident (4-wide unrolled scan).
#[inline(always)]
fn find_way(set: &[Line], addr: u64) -> Option<usize> {
    scan4(set.len(), addr, |i| set[i].addr)
}

/// Scalar way scan over `(tag, meta)` pairs — the pre-unroll baseline,
/// exposed only so the `tag_compare` benchmark can A/B it against
/// [`way_scan_unrolled`] on the exact 16-byte line layout the caches use.
#[doc(hidden)]
pub fn way_scan_scalar(set: &[(u64, u64)], addr: u64) -> Option<usize> {
    set.iter().position(|&(tag, _)| tag == addr)
}

/// Unrolled way scan over `(tag, meta)` pairs — the same 4-wide compare
/// the caches run internally, exposed for the `tag_compare` benchmark.
#[doc(hidden)]
pub fn way_scan_unrolled(set: &[(u64, u64)], addr: u64) -> Option<usize> {
    scan4(set.len(), addr, |i| set[i].0)
}

/// Set-associative cache of line metadata.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Per-set line storage, grown on first use.
    sets: Vec<Vec<Line>>,
    n_sets: usize,
    /// `n_sets - 1` when the set count is a power of two, else `usize::MAX`.
    /// Lets the per-access index computation use a mask instead of a
    /// hardware divide.
    set_mask: usize,
    /// Lemire fastmod magic, `⌈2^64 / n_sets⌉`, for non-power-of-two set
    /// counts (the paper's 12288-set L2): `addr % n_sets` becomes two
    /// multiplies for any 32-bit line address.
    modmul: u64,
    clock: u64,
    /// Address of the most recently stamped line (`u64::MAX` when unset),
    /// with its current state. Because this line holds the globally
    /// maximal LRU stamp, a repeat probe may return its state without
    /// re-stamping: bumping the maximum again cannot change the relative
    /// stamp order that replacement decisions depend on. Back-to-back
    /// probes of the same line — the common case under spatial locality —
    /// then skip the set scan entirely.
    hot_addr: u64,
    hot_state: MesiState,
}

impl Cache {
    /// Create an empty cache.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see [`CacheConfig::validate`]).
    pub fn new(config: CacheConfig) -> Self {
        config.validate();
        let n_sets = config.sets();
        Cache {
            config,
            sets: vec![Vec::new(); n_sets],
            n_sets,
            set_mask: if n_sets.is_power_of_two() {
                n_sets - 1
            } else {
                usize::MAX
            },
            modmul: (u64::MAX / n_sets as u64).wrapping_add(1),
            clock: 0,
            hot_addr: u64::MAX,
            hot_state: MesiState::Invalid,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
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

    /// State of `addr` if resident, touching LRU.
    #[inline]
    pub fn touch(&mut self, addr: LineAddr) -> Option<MesiState> {
        if addr.0 == self.hot_addr {
            return Some(self.hot_state);
        }
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_index(addr);
        let way = find_way(&self.sets[set], addr.0)?;
        let line = &mut self.sets[set][way];
        let state = decode_state(line.meta);
        line.meta = (clock << 2) | (line.meta & 3);
        self.hot_addr = addr.0;
        self.hot_state = state;
        Some(state)
    }

    /// State of `addr` if resident, without touching LRU (snoop path).
    #[inline]
    pub fn peek(&self, addr: LineAddr) -> Option<MesiState> {
        if addr.0 == self.hot_addr {
            return Some(self.hot_state);
        }
        let set = self.set_index(addr);
        let lines = &self.sets[set];
        find_way(lines, addr.0).map(|way| decode_state(lines[way].meta))
    }

    /// Change the state of a resident line. Returns `false` if absent.
    pub fn set_state(&mut self, addr: LineAddr, state: MesiState) -> bool {
        debug_assert_ne!(state, MesiState::Invalid, "use remove() to invalidate");
        let set = self.set_index(addr);
        if let Some(way) = find_way(&self.sets[set], addr.0) {
            let line = &mut self.sets[set][way];
            line.meta = (line.meta & !3) | encode_state(state);
            if addr.0 == self.hot_addr {
                self.hot_state = state;
            }
            true
        } else {
            false
        }
    }

    /// Change the state of a resident line, returning its previous state
    /// (`None` if absent). One set scan where a `peek` + [`Cache::set_state`]
    /// pair would take two — the coherence miss paths read the old state and
    /// write the new one for every holder the owner directory names.
    #[inline]
    pub fn replace_state(&mut self, addr: LineAddr, state: MesiState) -> Option<MesiState> {
        debug_assert_ne!(state, MesiState::Invalid, "use remove() to invalidate");
        let set = self.set_index(addr);
        let way = find_way(&self.sets[set], addr.0)?;
        let line = &mut self.sets[set][way];
        let old = decode_state(line.meta);
        line.meta = (line.meta & !3) | encode_state(state);
        if addr.0 == self.hot_addr {
            self.hot_state = state;
        }
        Some(old)
    }

    /// Evict the LRU way of a full `set`, clearing the hot-line memo if it
    /// was the victim.
    #[inline]
    fn evict_lru(&mut self, set: usize) -> EvictedLine {
        let lines = &mut self.sets[set];
        let victim_way = lines
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.meta)
            .expect("full set is non-empty")
            .0;
        let victim = lines.swap_remove(victim_way);
        if victim.addr == self.hot_addr {
            self.hot_addr = u64::MAX;
        }
        EvictedLine {
            addr: LineAddr(victim.addr),
            state: decode_state(victim.meta),
        }
    }

    /// Install `addr` with `state`, evicting the LRU line of the set if it
    /// is full. Returns the evicted line, if any.
    ///
    /// # Panics
    /// Panics (debug) if `addr` is already resident — callers must use
    /// [`Cache::set_state`] for state changes.
    pub fn insert(&mut self, addr: LineAddr, state: MesiState) -> Option<EvictedLine> {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_index(addr);
        debug_assert!(
            find_way(&self.sets[set], addr.0).is_none(),
            "insert of already-resident line {addr:?}"
        );
        let evicted = if self.sets[set].len() == self.config.ways {
            Some(self.evict_lru(set))
        } else {
            None
        };
        self.sets[set].push(Line {
            addr: addr.0,
            meta: pack_meta(state, clock),
        });
        self.hot_addr = addr.0;
        self.hot_state = state;
        evicted
    }

    /// Write-allocate probe: stamp LRU if `addr` is resident, else install
    /// it with `state` (evicting the set's LRU line if full). One set scan
    /// instead of the touch-then-insert pair; the relative order of LRU
    /// stamps — all that replacement decisions depend on — is identical.
    /// Returns whether the line was already resident, plus any eviction.
    #[inline]
    pub fn touch_or_insert(
        &mut self,
        addr: LineAddr,
        state: MesiState,
    ) -> (bool, Option<EvictedLine>) {
        if addr.0 == self.hot_addr {
            return (true, None);
        }
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_index(addr);
        if let Some(way) = find_way(&self.sets[set], addr.0) {
            let line = &mut self.sets[set][way];
            let resident = decode_state(line.meta);
            line.meta = (clock << 2) | (line.meta & 3);
            self.hot_addr = addr.0;
            self.hot_state = resident;
            return (true, None);
        }
        let evicted = if self.sets[set].len() == self.config.ways {
            Some(self.evict_lru(set))
        } else {
            None
        };
        self.sets[set].push(Line {
            addr: addr.0,
            meta: pack_meta(state, clock),
        });
        self.hot_addr = addr.0;
        self.hot_state = state;
        (false, evicted)
    }

    /// Install `addr` with `state` unless it is already resident; a
    /// resident line is left untouched (no LRU stamp — the peek-then-insert
    /// pair this replaces did not stamp either). Returns any eviction.
    #[inline]
    pub fn insert_if_absent(&mut self, addr: LineAddr, state: MesiState) -> Option<EvictedLine> {
        if addr.0 == self.hot_addr {
            return None;
        }
        let set = self.set_index(addr);
        if find_way(&self.sets[set], addr.0).is_some() {
            return None;
        }
        self.clock += 1;
        let clock = self.clock;
        let evicted = if self.sets[set].len() == self.config.ways {
            Some(self.evict_lru(set))
        } else {
            None
        };
        self.sets[set].push(Line {
            addr: addr.0,
            meta: pack_meta(state, clock),
        });
        self.hot_addr = addr.0;
        self.hot_state = state;
        evicted
    }

    /// Remove `addr` (coherence invalidation or back-invalidation). Returns
    /// the state it was in, if resident.
    #[inline]
    pub fn remove(&mut self, addr: LineAddr) -> Option<MesiState> {
        if addr.0 == self.hot_addr {
            self.hot_addr = u64::MAX;
        }
        let set = self.set_index(addr);
        let way = find_way(&self.sets[set], addr.0)?;
        Some(decode_state(self.sets[set].swap_remove(way).meta))
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Iterate over all resident lines as `(addr, state)`.
    pub fn lines(&self) -> impl Iterator<Item = (LineAddr, MesiState)> + '_ {
        self.sets
            .iter()
            .flatten()
            .map(|l| (LineAddr(l.addr), decode_state(l.meta)))
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
        assert_eq!(c.occupancy(), 0);
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
        assert!(c.occupancy() <= 8);
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
    fn line_addr_of_strips_offset() {
        assert_eq!(LineAddr::of(0x1040, 6), LineAddr(0x41));
        assert_eq!(LineAddr::of(0x107F, 6), LineAddr(0x41));
        assert_eq!(LineAddr::of(0x1080, 6), LineAddr(0x42));
    }
}
