//! The full memory hierarchy: private write-through L1s, shared write-back
//! L2s kept coherent with MESI over a snooping bus.
//!
//! Event accounting follows the paper's definitions:
//!
//! * an **invalidation** is one remote L2 copy destroyed because some core
//!   wrote the line (`BusRdX`/upgrade). Sibling-L1 invalidations under the
//!   *same* L2 are tracked separately — they never cross the interconnect
//!   and the paper's mapping does not target them.
//! * a **snoop transaction** is a miss whose data was supplied by another
//!   cache rather than memory ("a core requests data that is not present in
//!   its cache and has to retrieve the data from another cache", §VI-B).
//! * **L2 misses** are classified cold / capacity / coherence so that the
//!   invalidation-miss reduction of Section III-A is directly observable.
//!
//! Coherence among the groups a hierarchy owns applies inline; effects on
//! groups outside its range leave as [`CohMsg`]s, and their owner applies
//! them through the same `demote`/`invalidate` helpers (DESIGN.md §11).

use crate::cache::{Cache, LineAddr};
use crate::config::HierarchyConfig;
use crate::domain::{CohMsg, CoherenceImage, Inline, Remote, Windowed};
use crate::lineset::{LineFlags, LineMap};
use crate::mesi::MesiState;
use crate::stats::{CacheStats, MissKind};
use std::ops::Range;

/// [`MemoryHierarchy::history`] flag: the line has missed in this L2
/// before, so it was resident at some point (capacity, not cold, misses).
const HIST_EVER: u64 = 1;
/// [`MemoryHierarchy::history`] flag: the line's copy in this L2 was
/// destroyed by a coherence invalidation and has not re-missed yet.
const HIST_LOST: u64 = 2;

/// Load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOp {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Instruction fetch vs data access — routed to different L1s. The paper
/// notes data accesses dominate mapping-relevant communication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data access (L1D).
    Data,
    /// Instruction fetch (L1I).
    Instr,
}

/// Timing and routing result of one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Cycles the access took.
    pub cycles: u64,
    /// Whether the L1 hit.
    pub l1_hit: bool,
    /// Whether the L2 hit (meaningless when `l1_hit`).
    pub l2_hit: bool,
    /// Whether the access was serviced cache-to-cache.
    pub snooped: bool,
}

/// The coherent hierarchy for a contiguous range of L2 groups (by default
/// the whole machine). Group and core arguments are global ids; owned
/// state is indexed by `g - lo` and `core - base_core`.
pub struct MemoryHierarchy {
    cfg: HierarchyConfig,
    /// First owned L2 group; the range is `lo..lo + l2.len()`.
    lo: usize,
    /// Holder bitmap of the groups *outside* the owned range (zero for a
    /// spanning hierarchy).
    outside: u64,
    /// Global id of the first owned core (owned cores are contiguous).
    base_core: usize,
    l1i: Vec<Cache>,
    l1d: Vec<Cache>,
    l2: Vec<Cache>,
    /// `core_to_l2[core - base_core]` = the core's global L2-group id.
    core_to_l2: Vec<usize>,
    stats: CacheStats,
    /// Sibling-L1 copies invalidated under the same L2 (not an interconnect
    /// event; kept out of `CacheStats::invalidations`).
    l1_sibling_invalidations: u64,
    /// Per-L2 miss-taxonomy history, one [`LineFlags`] word per line that
    /// ever missed there, with the [`HIST_EVER`] (cold vs capacity) and
    /// [`HIST_LOST`] (lost to coherence invalidation) flags — one probe
    /// both classifies a miss and records it.
    history: Vec<LineFlags>,
    /// Sparse owner directory: line → bitmap of owned L2s holding it, kept
    /// by the only places L2 residency changes ([`Self::install_l2`] and
    /// [`Self::invalidate`]), and left empty when one L2 is owned: it has
    /// no other owned holder to find (DESIGN.md §11).
    directory: LineMap,
}

impl MemoryHierarchy {
    /// Build an empty hierarchy spanning every L2 group of `cfg`.
    ///
    /// # Panics
    /// Panics if the configuration is invalid or has more than 64 L2
    /// groups.
    pub fn new(cfg: HierarchyConfig) -> Self {
        let n_l2 = cfg.num_l2();
        Self::for_groups(cfg, 0..n_l2)
    }

    /// Build an empty hierarchy owning L2 groups `groups` of `cfg`, which
    /// reaches the rest through [`MemoryHierarchy::access_windowed`].
    ///
    /// # Panics
    /// Panics if the configuration is invalid, has more than 64 L2 groups,
    /// if `groups` is empty or out of range, or if the owned groups' cores
    /// are not one contiguous range of core ids.
    pub fn for_groups(cfg: HierarchyConfig, groups: Range<usize>) -> Self {
        cfg.validate();
        let n_l2 = cfg.num_l2();
        assert!(
            n_l2 <= 64,
            "owner directory packs holders into a u64 bitmap; got {n_l2} L2 groups"
        );
        let owned = &cfg.groups[groups.clone()];
        let base_core = owned.iter().flat_map(|grp| &grp.cores).copied().min();
        let base_core = base_core.expect("empty group range");
        let n_cores: usize = owned.iter().map(|grp| grp.cores.len()).sum();
        let mut core_to_l2 = vec![usize::MAX; n_cores];
        for (g, group) in groups.clone().zip(owned) {
            for &c in &group.cores {
                let slot = core_to_l2.get_mut(c - base_core);
                *slot.expect("owned groups' cores must be contiguous") = g;
            }
        }
        let ones = |n: usize| u64::MAX.checked_shr(64 - n as u32).unwrap_or(0);
        let outside = ones(n_l2) & !(ones(groups.len()) << groups.start);
        MemoryHierarchy {
            lo: groups.start,
            outside,
            base_core,
            l1i: (0..n_cores).map(|_| Cache::new(cfg.l1i)).collect(),
            l1d: (0..n_cores).map(|_| Cache::new(cfg.l1d)).collect(),
            l2: groups.clone().map(|_| Cache::new(cfg.l2)).collect(),
            core_to_l2,
            stats: CacheStats::default(),
            l1_sibling_invalidations: 0,
            history: vec![LineFlags::new(); groups.len()],
            directory: LineMap::new(),
            cfg,
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Sibling-L1 invalidations (same-L2; not part of [`CacheStats`]).
    pub fn l1_sibling_invalidations(&self) -> u64 {
        self.l1_sibling_invalidations
    }

    /// MESI state of `line` in owned L2 group `g` (test/diagnostic hook).
    pub fn l2_state(&self, g: usize, line: LineAddr) -> Option<MesiState> {
        self.l2[g - self.lo].peek(line)
    }

    /// Perform one memory access by `core` to physical address `paddr`
    /// on a UMA machine (no NUMA home-node accounting).
    #[inline]
    pub fn access(
        &mut self,
        core: usize,
        paddr: u64,
        op: MemOp,
        kind: AccessKind,
    ) -> AccessOutcome {
        self.access_numa(core, paddr, op, kind, None)
    }

    /// Perform one memory access with an optional NUMA home chip for the
    /// touched page: memory fetches from a different chip's node pay
    /// `numa_remote_penalty` extra cycles and are counted separately.
    /// Every holder must be owned, so this is for spanning hierarchies.
    #[inline]
    pub fn access_numa(
        &mut self,
        core: usize,
        paddr: u64,
        op: MemOp,
        kind: AccessKind,
        home_chip: Option<usize>,
    ) -> AccessOutcome {
        debug_assert_eq!(self.outside, 0, "a partial hierarchy needs access_windowed");
        self.access_via(core, paddr, op, kind, home_chip, &mut Inline)
    }

    /// Perform one UMA access by owned core `core`, seeing groups outside
    /// the range as `image` shows them and appending this hierarchy's
    /// directory deltas and its effects on those groups to `out`.
    pub fn access_windowed(
        &mut self,
        core: usize,
        paddr: u64,
        op: MemOp,
        kind: AccessKind,
        image: &CoherenceImage,
        out: &mut Vec<CohMsg>,
    ) -> AccessOutcome {
        self.access_via(core, paddr, op, kind, None, &mut Windowed { image, out })
    }

    /// Apply a [`CohMsg::Demote`] aimed at owned group `g`.
    pub fn deliver_demote(&mut self, g: usize, line: LineAddr) {
        self.demote(g, line, &mut Inline);
    }

    /// Apply a [`CohMsg::Invalidate`] aimed at owned group `g`, if it still holds the line.
    pub fn deliver_invalidate(&mut self, g: usize, line: LineAddr) {
        self.invalidate(g, line, &mut Inline);
    }

    #[inline(always)]
    fn access_via<R: Remote>(
        &mut self,
        core: usize,
        paddr: u64,
        op: MemOp,
        kind: AccessKind,
        home_chip: Option<usize>,
        r: &mut R,
    ) -> AccessOutcome {
        let line = LineAddr::of(paddr, self.cfg.l2.line_shift());
        let local = core - self.base_core;
        match op {
            MemOp::Read => self.read(local, line, kind, home_chip, r),
            MemOp::Write => self.write(local, line, kind, home_chip, r),
        }
    }

    /// Record a memory fetch by L2 `g`, returning the fetch latency with
    /// any NUMA penalty applied.
    fn memory_fetch(&mut self, g: usize, home_chip: Option<usize>) -> u64 {
        self.stats.memory_fetches += 1;
        match home_chip {
            Some(chip) if chip != self.cfg.groups[g].chip => {
                self.stats.mem_fetches_remote += 1;
                self.cfg.mem_latency + self.cfg.numa_remote_penalty
            }
            Some(_) => {
                self.stats.mem_fetches_local += 1;
                self.cfg.mem_latency
            }
            None => self.cfg.mem_latency,
        }
    }

    fn l1_mut(&mut self, local: usize, kind: AccessKind) -> &mut Cache {
        match kind {
            AccessKind::Data => &mut self.l1d[local],
            AccessKind::Instr => &mut self.l1i[local],
        }
    }

    fn note_l1(&mut self, kind: AccessKind, hit: bool) {
        match (kind, hit) {
            (AccessKind::Data, true) => self.stats.l1d_hits += 1,
            (AccessKind::Data, false) => self.stats.l1d_misses += 1,
            (AccessKind::Instr, true) => self.stats.l1i_hits += 1,
            (AccessKind::Instr, false) => self.stats.l1i_misses += 1,
        }
    }

    fn read<R: Remote>(
        &mut self,
        local: usize,
        line: LineAddr,
        kind: AccessKind,
        home_chip: Option<usize>,
        r: &mut R,
    ) -> AccessOutcome {
        let l1_latency = self.cfg.l1d.latency;
        if self.l1_mut(local, kind).touch(line).is_some() {
            self.note_l1(kind, true);
            return AccessOutcome {
                cycles: l1_latency,
                l1_hit: true,
                l2_hit: false,
                snooped: false,
            };
        }
        self.note_l1(kind, false);

        let g = self.core_to_l2[local];
        let l2_hit = self.l2[g - self.lo].touch(line).is_some();
        let (extra, snooped) = if l2_hit {
            self.stats.l2_hits += 1;
            (0, false)
        } else {
            // L2 read miss: classify, snoop, fetch, install.
            self.classify_miss(g, line);
            self.service_read_miss(g, line, home_chip, r)
        };
        self.l1_mut(local, kind)
            .insert_if_absent(line, MesiState::Shared);
        AccessOutcome {
            cycles: l1_latency + self.cfg.l2.latency + extra,
            l1_hit: false,
            l2_hit,
            snooped,
        }
    }

    fn write<R: Remote>(
        &mut self,
        local: usize,
        line: LineAddr,
        kind: AccessKind,
        home_chip: Option<usize>,
        r: &mut R,
    ) -> AccessOutcome {
        let g = self.core_to_l2[local];
        let mut cycles = self.cfg.l1d.latency;
        let mut snooped = false;
        // Only the upgrade and miss arms read the image's holders: a hit on
        // a Modified line needs no probe.
        let l2_hit = match self.l2[g - self.lo].touch(line) {
            Some(MesiState::Modified) => true,
            Some(MesiState::Exclusive) | Some(MesiState::Shared) => {
                // Upgrade: invalidate every other holder; silent iff there
                // is none (an Exclusive copy can have one only through a
                // stale image — the bounded-lag relaxation).
                let remote = r.holders(line) & self.outside;
                let (holders, _) = self.invalidate_others(g, line, remote, r);
                if holders != 0 {
                    cycles += self.cfg.write_invalidate_penalty;
                }
                self.l2[g - self.lo].set_state(line, MesiState::Modified);
                r.send(CohMsg::DirtyBit {
                    line,
                    g: g as u32,
                    dirty: true,
                });
                true
            }
            Some(MesiState::Invalid) | None => {
                // Write miss: read-for-ownership (BusRdX).
                self.classify_miss(g, line);
                let remote = r.holders(line) & self.outside;
                let (extra, was_snooped) = self.service_write_miss(g, line, remote, home_chip, r);
                cycles += self.cfg.l2.latency + extra;
                snooped = was_snooped;
                false
            }
        };
        if l2_hit {
            self.stats.l2_hits += 1;
        }

        // Keep sibling L1 copies (cores under the same L2) coherent: they
        // would otherwise read a stale line through their write-through L1.
        self.invalidate_sibling_l1s(local, g, line);

        // Write-allocate into the local L1 (write-through to L2 is implied).
        let (hit, _) = self
            .l1_mut(local, kind)
            .touch_or_insert(line, MesiState::Shared);
        self.note_l1(kind, hit);
        AccessOutcome {
            cycles,
            l1_hit: false,
            l2_hit,
            snooped,
        }
    }

    /// Read miss (`BusRd`) in group `g`: every other holder demotes to
    /// Shared — owned ones now, the rest at delivery — and the supplier,
    /// if any, transfers cache-to-cache; otherwise memory supplies and the
    /// line installs Exclusive. Returns `(extra_cycles, snooped)`.
    fn service_read_miss<R: Remote>(
        &mut self,
        g: usize,
        line: LineAddr,
        home_chip: Option<usize>,
        r: &mut R,
    ) -> (u64, bool) {
        #[cfg(debug_assertions)]
        let expected = self.find_holder_scan(g, line);
        let remote = r.holders(line) & self.outside;
        let mut dirty = r.dirty(line) & remote;
        let owned = self.directory.get(line.0) & !(1u64 << g);
        for other in bits(owned) {
            if self.demote(other, line, r) == Some(MesiState::Modified) {
                dirty |= 1 << other;
            }
        }
        for target in bits(remote) {
            let target = target as u32;
            r.send(CohMsg::Demote { line, target });
        }
        let holders = owned | remote;
        let supplier = self.pick_supplier(g, holders, dirty);
        #[cfg(debug_assertions)]
        debug_assert!(remote != 0 || supplier == expected);
        let (extra, state, snooped) = match supplier {
            Some(h) => (self.snoop(g, h), MesiState::Shared, true),
            None => (self.memory_fetch(g, home_chip), MesiState::Exclusive, false),
        };
        self.install_l2(g, line, state, r);
        (extra, snooped)
    }

    /// Write miss (`BusRdX`) in group `g`: every other copy is destroyed,
    /// and any holder supplies the data (dirty ownership migrates without
    /// a memory writeback). Returns `(extra_cycles, snooped)`.
    fn service_write_miss<R: Remote>(
        &mut self,
        g: usize,
        line: LineAddr,
        remote: u64,
        home_chip: Option<usize>,
        r: &mut R,
    ) -> (u64, bool) {
        #[cfg(debug_assertions)]
        let expected = self.find_holder_scan(g, line);
        let (holders, owned_dirty) = self.invalidate_others(g, line, remote, r);
        let dirty = owned_dirty | (r.dirty(line) & remote);
        let supplier = self.pick_supplier(g, holders, dirty);
        #[cfg(debug_assertions)]
        debug_assert!(remote != 0 || supplier == expected);
        let (mut extra, snooped) = match supplier {
            Some(h) => (self.snoop(g, h), true),
            None => (self.memory_fetch(g, home_chip), false),
        };
        if holders != 0 {
            extra += self.cfg.write_invalidate_penalty;
        }
        self.install_l2(g, line, MesiState::Modified, r);
        (extra, snooped)
    }

    /// `BusRdX` from group `g`: destroy every other copy of `line` — owned
    /// ones now, the `remote` ones at delivery. Returns the holder bitmap
    /// and the owned holders that were Modified.
    fn invalidate_others<R: Remote>(
        &mut self,
        g: usize,
        line: LineAddr,
        remote: u64,
        r: &mut R,
    ) -> (u64, u64) {
        let owned = self.directory.get(line.0) & !(1u64 << g);
        let mut dirty = 0u64;
        for other in bits(owned) {
            let state = self.invalidate(other, line, r);
            debug_assert!(state.is_some(), "directory bit set for non-resident line");
            if state == Some(MesiState::Modified) {
                dirty |= 1 << other;
            }
        }
        for target in bits(remote) {
            let target = target as u32;
            r.send(CohMsg::Invalidate { line, target });
        }
        (owned | remote, dirty)
    }

    /// Demote owned group `g`'s copy of `line` to Shared (`BusRd`
    /// observed); a Modified copy writes back. Returns the old state.
    fn demote<R: Remote>(&mut self, g: usize, line: LineAddr, r: &mut R) -> Option<MesiState> {
        let old = self.l2[g - self.lo].replace_state(line, MesiState::Shared);
        if old == Some(MesiState::Modified) {
            self.stats.writebacks += 1;
            r.send(CohMsg::DirtyBit {
                line,
                g: g as u32,
                dirty: false,
            });
        }
        old
    }

    /// Destroy owned group `g`'s copy of `line` (`BusRdX` observed) and
    /// the L1 copies behind it, marking its next miss a coherence miss.
    /// Returns the state the copy was in, `None` if it was not resident.
    fn invalidate<R: Remote>(&mut self, g: usize, line: LineAddr, r: &mut R) -> Option<MesiState> {
        let state = self.l2[g - self.lo].remove(line)?;
        self.stats.invalidations += 1;
        self.history[g - self.lo].update(line.0, HIST_LOST, 0);
        self.directory.clear_bit(line.0, g as u32);
        self.back_invalidate_l1s(g, line);
        r.send(CohMsg::Evict { line, g: g as u32 });
        Some(state)
    }

    /// The supplier among `holders` for a miss in group `g`, by the snoop
    /// scan's rule in ascending group order: the first `dirty` holder must
    /// supply (and the scan stops there), otherwise the first holder,
    /// preferring one on `g`'s chip (cheapest transfer).
    fn pick_supplier(&self, g: usize, holders: u64, dirty: u64) -> Option<usize> {
        if dirty != 0 {
            return Some(dirty.trailing_zeros() as usize);
        }
        bits(holders).fold(None, |best, other| {
            self.closer(g, other, best).then_some(other).or(best)
        })
    }

    /// The pre-directory holder search: peek every other owned L2 in
    /// ascending order. Kept as the oracle the directory-backed supplier
    /// choice is property-tested (and debug-asserted) against.
    #[doc(hidden)]
    pub fn find_holder_scan(&self, g: usize, line: LineAddr) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (other, l2) in (self.lo..).zip(&self.l2) {
            match l2.peek(line) {
                _ if other == g => {}
                Some(MesiState::Modified) => return Some(other),
                Some(_) if self.closer(g, other, best) => best = Some(other),
                _ => {}
            }
        }
        best
    }

    /// Directory-backed holder search (test hook): the supplier choice the
    /// miss paths make from the owner directory.
    #[doc(hidden)]
    pub fn find_holder_directory(&self, g: usize, line: LineAddr) -> Option<usize> {
        let holders = self.directory.get(line.0) & !(1u64 << g);
        let dirty = bits(holders)
            .filter(|&other| self.l2_state(other, line) == Some(MesiState::Modified))
            .fold(0, |mask, other| mask | 1 << other);
        self.pick_supplier(g, holders, dirty)
    }

    /// The owner directory's holder bitmap for `line` (test hook).
    #[doc(hidden)]
    pub fn directory_mask(&self, line: LineAddr) -> u64 {
        self.directory.get(line.0)
    }

    /// Residency bitmap rebuilt by peeking every owned L2 (test oracle for
    /// [`Self::directory_mask`]).
    #[doc(hidden)]
    pub fn residency_mask_scan(&self, line: LineAddr) -> u64 {
        let mut mask = 0u64;
        for (g, l2) in (self.lo..).zip(&self.l2) {
            if l2.peek(line).is_some() {
                mask |= 1 << g;
            }
        }
        mask
    }

    /// Count a cache-to-cache transfer from `h` to `g`; returns its
    /// latency.
    fn snoop(&mut self, g: usize, h: usize) -> u64 {
        self.stats.snoop_transactions += 1;
        if self.cfg.groups[g].chip == self.cfg.groups[h].chip {
            self.stats.snoops_intra_chip += 1;
            self.cfg.c2c_intra_chip
        } else {
            self.stats.snoops_inter_chip += 1;
            self.cfg.c2c_inter_chip
        }
    }

    /// Whether `other` beats the current supplier candidate `best` for a
    /// miss in `g`: any holder beats none, and a holder on `g`'s chip
    /// beats one off it.
    fn closer(&self, g: usize, other: usize, best: Option<usize>) -> bool {
        let chip = |x: usize| self.cfg.groups[x].chip;
        best.is_none_or(|b| chip(other) == chip(g) && chip(b) != chip(g))
    }

    /// Drop `line` from the L1s of every core behind owned L2 `g`
    /// (inclusive back-invalidation).
    fn back_invalidate_l1s(&mut self, g: usize, line: LineAddr) {
        for &c in &self.cfg.groups[g].cores {
            self.l1d[c - self.base_core].remove(line);
            self.l1i[c - self.base_core].remove(line);
        }
    }

    /// Drop `line` from the L1Ds of the siblings of owned core `local`
    /// under its L2 `g`.
    fn invalidate_sibling_l1s(&mut self, local: usize, g: usize, line: LineAddr) {
        for &c in &self.cfg.groups[g].cores {
            let sibling = c - self.base_core;
            if sibling != local && self.l1d[sibling].remove(line).is_some() {
                self.l1_sibling_invalidations += 1;
            }
        }
    }

    /// Install `line` into owned L2 `g` after [`Self::classify_miss`]
    /// recorded it, handling the evicted victim (writeback if dirty,
    /// back-invalidate L1s).
    fn install_l2<R: Remote>(&mut self, g: usize, line: LineAddr, state: MesiState, r: &mut R) {
        if self.l2.len() > 1 {
            self.directory.set_bit(line.0, g as u32);
        }
        r.send(CohMsg::Install {
            line,
            g: g as u32,
            dirty: state == MesiState::Modified,
        });
        if let Some(ev) = self.l2[g - self.lo].insert(line, state) {
            self.directory.clear_bit(ev.addr.0, g as u32);
            r.send(CohMsg::Evict {
                line: ev.addr,
                g: g as u32,
            });
            if ev.state.dirty() {
                self.stats.writebacks += 1;
            }
            self.back_invalidate_l1s(g, ev.addr);
        }
    }

    /// Count an L2 miss of `line` in `g` by its history, and record the
    /// line as resident there (every miss installs it) with no pending
    /// coherence loss.
    fn classify_miss(&mut self, g: usize, line: LineAddr) {
        let flags = self.history[g - self.lo].update(line.0, HIST_EVER, HIST_LOST);
        let kind = if flags & HIST_LOST != 0 {
            MissKind::Coherence
        } else if flags & HIST_EVER != 0 {
            MissKind::Capacity
        } else {
            MissKind::Cold
        };
        self.stats.record_l2_miss(kind);
    }

    /// Check the MESI exclusivity invariant for one line among the owned
    /// L2s: if any holds it Modified or Exclusive, no other may hold it at
    /// all. Used by property tests. Audits only the L2s the owner
    /// directory names, so the check is O(popcount) rather than O(groups).
    pub fn mesi_invariant_holds(&self, line: LineAddr) -> bool {
        let holders = self.directory.get(line.0);
        let mut exclusive_holders = 0;
        for g in bits(holders) {
            match self.l2_state(g, line) {
                Some(MesiState::Modified) | Some(MesiState::Exclusive) => exclusive_holders += 1,
                Some(_) => {}
                None => return false, // directory bit for a non-resident line
            }
        }
        exclusive_holders == 0 || holders.count_ones() == 1
    }

    /// Check the inclusion invariant: every line resident in a core's L1
    /// must also be resident in that core's L2 (the model back-invalidates
    /// L1s on L2 eviction/invalidation, so this must always hold). Used by
    /// property tests.
    pub fn inclusion_holds(&self) -> bool {
        self.core_to_l2.iter().enumerate().all(|(local, &g)| {
            [&self.l1d[local], &self.l1i[local]]
                .iter()
                .all(|l1| l1.lines().all(|(addr, _)| self.l2_state(g, addr).is_some()))
        })
    }
}

/// The groups of a holder bitmap, ascending.
#[inline]
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = (mask != 0).then(|| mask.trailing_zeros() as usize);
        mask &= mask.wrapping_sub(1);
        bit
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheConfig, L2Group};

    /// Small hierarchy: 4 cores, 2 L2s (one per chip), tiny caches.
    fn small() -> MemoryHierarchy {
        let l1 = CacheConfig {
            size_bytes: 64 * 8,
            line_size: 64,
            ways: 2,
            latency: 2,
        };
        let l2 = CacheConfig {
            size_bytes: 64 * 32,
            line_size: 64,
            ways: 4,
            latency: 8,
        };
        MemoryHierarchy::new(HierarchyConfig {
            l1i: l1,
            l1d: l1,
            l2,
            mem_latency: 200,
            c2c_intra_chip: 40,
            c2c_inter_chip: 120,
            write_invalidate_penalty: 20,
            numa_remote_penalty: 0,
            groups: vec![
                L2Group {
                    cores: vec![0, 1],
                    chip: 0,
                },
                L2Group {
                    cores: vec![2, 3],
                    chip: 1,
                },
            ],
        })
    }

    #[test]
    fn cold_read_fetches_from_memory() {
        let mut h = small();
        let out = h.access(0, 0x1000, MemOp::Read, AccessKind::Data);
        assert!(!out.l1_hit && !out.l2_hit && !out.snooped);
        assert_eq!(out.cycles, 2 + 8 + 200);
        assert_eq!(h.stats().memory_fetches, 1);
        assert_eq!(h.stats().l2_cold_misses, 1);
    }

    #[test]
    fn second_read_hits_l1() {
        let mut h = small();
        h.access(0, 0x1000, MemOp::Read, AccessKind::Data);
        let out = h.access(0, 0x1000, MemOp::Read, AccessKind::Data);
        assert!(out.l1_hit);
        assert_eq!(out.cycles, 2);
    }

    #[test]
    fn sibling_core_hits_shared_l2() {
        let mut h = small();
        h.access(0, 0x1000, MemOp::Read, AccessKind::Data);
        let out = h.access(1, 0x1000, MemOp::Read, AccessKind::Data);
        assert!(!out.l1_hit && out.l2_hit && !out.snooped);
        assert_eq!(out.cycles, 2 + 8);
        assert_eq!(h.stats().snoop_transactions, 0);
    }

    #[test]
    fn remote_read_is_a_snoop_transaction() {
        let mut h = small();
        h.access(0, 0x1000, MemOp::Read, AccessKind::Data);
        let out = h.access(2, 0x1000, MemOp::Read, AccessKind::Data);
        assert!(out.snooped);
        assert_eq!(out.cycles, 2 + 8 + 120); // inter-chip transfer
        assert_eq!(h.stats().snoop_transactions, 1);
        assert_eq!(h.stats().snoops_inter_chip, 1);
        // Both copies are now Shared.
        assert_eq!(
            h.l2_state(0, LineAddr::of(0x1000, 6)),
            Some(MesiState::Shared)
        );
        assert_eq!(
            h.l2_state(1, LineAddr::of(0x1000, 6)),
            Some(MesiState::Shared)
        );
    }

    #[test]
    fn write_to_shared_line_invalidates_remote_copy() {
        let mut h = small();
        h.access(0, 0x1000, MemOp::Read, AccessKind::Data);
        h.access(2, 0x1000, MemOp::Read, AccessKind::Data); // both Shared
        let out = h.access(0, 0x1000, MemOp::Write, AccessKind::Data);
        assert_eq!(h.stats().invalidations, 1);
        assert_eq!(h.l2_state(1, LineAddr::of(0x1000, 6)), None);
        assert_eq!(
            h.l2_state(0, LineAddr::of(0x1000, 6)),
            Some(MesiState::Modified)
        );
        assert!(out.cycles >= 20); // paid the invalidate penalty
    }

    #[test]
    fn invalidated_line_remiss_is_coherence_miss() {
        let mut h = small();
        h.access(0, 0x1000, MemOp::Read, AccessKind::Data);
        h.access(2, 0x1000, MemOp::Read, AccessKind::Data);
        h.access(0, 0x1000, MemOp::Write, AccessKind::Data); // invalidates L2 1
        h.access(2, 0x1000, MemOp::Read, AccessKind::Data); // must re-fetch
        assert_eq!(h.stats().l2_coherence_misses, 1);
    }

    #[test]
    fn dirty_remote_line_is_written_back_on_read() {
        let mut h = small();
        h.access(0, 0x1000, MemOp::Write, AccessKind::Data); // M in L2 0
        h.access(2, 0x1000, MemOp::Read, AccessKind::Data);
        assert_eq!(h.stats().writebacks, 1);
        assert_eq!(
            h.l2_state(0, LineAddr::of(0x1000, 6)),
            Some(MesiState::Shared)
        );
    }

    #[test]
    fn write_miss_steals_dirty_line_without_writeback() {
        let mut h = small();
        h.access(0, 0x1000, MemOp::Write, AccessKind::Data); // M in L2 0
        h.access(2, 0x1000, MemOp::Write, AccessKind::Data); // BusRdX
        assert_eq!(h.stats().writebacks, 0);
        assert_eq!(h.stats().invalidations, 1);
        assert_eq!(h.stats().snoop_transactions, 1);
        assert_eq!(h.l2_state(0, LineAddr::of(0x1000, 6)), None);
        assert_eq!(
            h.l2_state(1, LineAddr::of(0x1000, 6)),
            Some(MesiState::Modified)
        );
    }

    #[test]
    fn exclusive_upgrade_is_silent() {
        let mut h = small();
        h.access(0, 0x1000, MemOp::Read, AccessKind::Data); // E
        let inv_before = h.stats().invalidations;
        h.access(0, 0x1000, MemOp::Write, AccessKind::Data); // E→M, silent
        assert_eq!(h.stats().invalidations, inv_before);
        assert_eq!(
            h.l2_state(0, LineAddr::of(0x1000, 6)),
            Some(MesiState::Modified)
        );
    }

    #[test]
    fn sibling_l1_copy_invalidated_on_write() {
        let mut h = small();
        h.access(1, 0x1000, MemOp::Read, AccessKind::Data); // core 1 L1 has it
        h.access(0, 0x1000, MemOp::Write, AccessKind::Data); // sibling writes
        assert_eq!(h.l1_sibling_invalidations(), 1);
        // Not counted as an interconnect invalidation.
        assert_eq!(h.stats().invalidations, 0);
        // Core 1's next read must come from L2, not a stale L1.
        let out = h.access(1, 0x1000, MemOp::Read, AccessKind::Data);
        assert!(!out.l1_hit && out.l2_hit);
    }

    #[test]
    fn capacity_miss_classified_after_eviction() {
        let mut h = small();
        // L2 is 4-way x 8 sets. Fill one set beyond capacity: lines with the
        // same set index are 8 apart (32 lines / 4 ways = 8 sets).
        for i in 0..5u64 {
            h.access(0, i * 8 * 64, MemOp::Read, AccessKind::Data);
        }
        // Line 0 was evicted; re-reading it is a capacity miss.
        h.access(0, 0, MemOp::Read, AccessKind::Data);
        assert_eq!(h.stats().l2_capacity_misses, 1);
        assert_eq!(h.stats().l2_cold_misses, 5);
    }

    #[test]
    fn intra_chip_snoop_is_cheaper() {
        // Rebuild with both L2s on one chip to compare.
        let l1 = CacheConfig {
            size_bytes: 64 * 8,
            line_size: 64,
            ways: 2,
            latency: 2,
        };
        let l2 = CacheConfig {
            size_bytes: 64 * 32,
            line_size: 64,
            ways: 4,
            latency: 8,
        };
        let mut h = MemoryHierarchy::new(HierarchyConfig {
            l1i: l1,
            l1d: l1,
            l2,
            mem_latency: 200,
            c2c_intra_chip: 40,
            c2c_inter_chip: 120,
            write_invalidate_penalty: 20,
            numa_remote_penalty: 0,
            groups: vec![
                L2Group {
                    cores: vec![0, 1],
                    chip: 0,
                },
                L2Group {
                    cores: vec![2, 3],
                    chip: 0,
                },
            ],
        });
        h.access(0, 0x1000, MemOp::Read, AccessKind::Data);
        let out = h.access(2, 0x1000, MemOp::Read, AccessKind::Data);
        assert_eq!(out.cycles, 2 + 8 + 40);
        assert_eq!(h.stats().snoops_intra_chip, 1);
        assert_eq!(h.stats().snoops_inter_chip, 0);
    }

    #[test]
    fn mesi_invariant_after_mixed_traffic() {
        let mut h = small();
        let addrs = [0x0u64, 0x1000, 0x2000, 0x40, 0x1040];
        for (i, &a) in addrs.iter().cycle().take(100).enumerate() {
            let core = i % 4;
            let op = if i % 3 == 0 {
                MemOp::Write
            } else {
                MemOp::Read
            };
            h.access(core, a, op, AccessKind::Data);
            for &chk in &addrs {
                assert!(h.mesi_invariant_holds(LineAddr::of(chk, 6)));
            }
        }
    }

    #[test]
    fn numa_remote_fetch_pays_penalty_and_is_counted() {
        let l1 = CacheConfig {
            size_bytes: 64 * 8,
            line_size: 64,
            ways: 2,
            latency: 2,
        };
        let l2 = CacheConfig {
            size_bytes: 64 * 32,
            line_size: 64,
            ways: 4,
            latency: 8,
        };
        let mut h = MemoryHierarchy::new(HierarchyConfig {
            l1i: l1,
            l1d: l1,
            l2,
            mem_latency: 200,
            c2c_intra_chip: 40,
            c2c_inter_chip: 120,
            write_invalidate_penalty: 20,
            numa_remote_penalty: 150,
            groups: vec![
                L2Group {
                    cores: vec![0, 1],
                    chip: 0,
                },
                L2Group {
                    cores: vec![2, 3],
                    chip: 1,
                },
            ],
        });
        // Core 0 (chip 0) fetches a page homed on chip 1: remote.
        let remote = h.access_numa(0, 0x1000, MemOp::Read, AccessKind::Data, Some(1));
        assert_eq!(remote.cycles, 2 + 8 + 200 + 150);
        // Core 0 fetches a page homed on chip 0: local.
        let local = h.access_numa(0, 0x2000, MemOp::Read, AccessKind::Data, Some(0));
        assert_eq!(local.cycles, 2 + 8 + 200);
        assert_eq!(h.stats().mem_fetches_remote, 1);
        assert_eq!(h.stats().mem_fetches_local, 1);
        assert_eq!(h.stats().memory_fetches, 2);
    }

    #[test]
    fn uma_access_counts_no_numa_fetches() {
        let mut h = small();
        h.access(0, 0x1000, MemOp::Read, AccessKind::Data);
        assert_eq!(h.stats().memory_fetches, 1);
        assert_eq!(h.stats().mem_fetches_local, 0);
        assert_eq!(h.stats().mem_fetches_remote, 0);
    }

    #[test]
    fn numa_penalty_not_charged_on_cache_to_cache() {
        let l1 = CacheConfig {
            size_bytes: 64 * 8,
            line_size: 64,
            ways: 2,
            latency: 2,
        };
        let l2 = CacheConfig {
            size_bytes: 64 * 32,
            line_size: 64,
            ways: 4,
            latency: 8,
        };
        let mut h = MemoryHierarchy::new(HierarchyConfig {
            l1i: l1,
            l1d: l1,
            l2,
            mem_latency: 200,
            c2c_intra_chip: 40,
            c2c_inter_chip: 120,
            write_invalidate_penalty: 20,
            numa_remote_penalty: 150,
            groups: vec![
                L2Group {
                    cores: vec![0, 1],
                    chip: 0,
                },
                L2Group {
                    cores: vec![2, 3],
                    chip: 1,
                },
            ],
        });
        h.access_numa(0, 0x1000, MemOp::Read, AccessKind::Data, Some(1)); // remote fill
                                                                          // Core 2 now reads it cache-to-cache — NUMA is irrelevant.
        let out = h.access_numa(2, 0x1000, MemOp::Read, AccessKind::Data, Some(1));
        assert!(out.snooped);
        assert_eq!(out.cycles, 2 + 8 + 120);
        assert_eq!(h.stats().mem_fetches_remote, 1);
    }

    #[test]
    fn instruction_fetches_use_l1i() {
        let mut h = small();
        h.access(0, 0x1000, MemOp::Read, AccessKind::Instr);
        assert_eq!(h.stats().l1i_misses, 1);
        assert_eq!(h.stats().l1d_misses, 0);
        let out = h.access(0, 0x1000, MemOp::Read, AccessKind::Instr);
        assert!(out.l1_hit);
        assert_eq!(h.stats().l1i_hits, 1);
    }
}
