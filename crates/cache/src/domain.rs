//! What crosses between domains of the windowed engine.
//!
//! A **domain** is a [`crate::MemoryHierarchy`] owning one L2 group, run
//! by one shard. Coherence inside a domain applies inline, as in the
//! serial engine; coherence with other domains rides [`CohMsg`] values.
//! Each domain logs the messages it sends during a window; the barrier
//! closing the window applies them in `(sender domain, send order)`.
//!
//! During a window a domain sees remote residency only through a
//! [`CoherenceImage`] — the owner directory plus a dirty-holder mask,
//! frozen at the last barrier. Within one window two domains can therefore
//! both believe they hold a line exclusively; the image converges again at
//! the barrier (the *bounded-lag relaxation* — see DESIGN.md §16). Since
//! the protocol charges against the image, a windowed run is a pure
//! function of (trace, config, lag), independent of shard count and host
//! scheduling.

use crate::cache::LineAddr;
use crate::lineset::LineMap;

/// One cross-domain coherence event, produced while a domain executes a
/// window and applied at the closing barrier. `g`/`target` are L2-group
/// indices (the directory packs holders into a `u64`, so they fit `u32`).
///
/// The first three variants are **directory deltas** — the sender telling
/// the image about its own residency. The last two are **remote effects**
/// — the sender asking another domain's copy to change state. Barriers
/// apply all deltas first, then all remote effects, so an
/// invalidate/install pair delivered in the same batch cannot leave the
/// image pointing at a copy that was just destroyed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CohMsg {
    /// Sender's group `g` installed `line` (`dirty` = installed Modified).
    Install {
        /// The line installed.
        line: LineAddr,
        /// Installing L2 group.
        g: u32,
        /// Whether it was installed in the Modified state.
        dirty: bool,
    },
    /// Sender's group `g` changed the dirtiness of its resident copy (E→M
    /// / S→M upgrades set it; demotion clears it).
    DirtyBit {
        /// The line whose dirty bit changed.
        line: LineAddr,
        /// The L2 group whose copy changed.
        g: u32,
        /// New dirtiness.
        dirty: bool,
    },
    /// Sender's group `g` lost its copy of `line` (capacity victim, or
    /// invalidated inline by another group of the same sender).
    Evict {
        /// The line evicted.
        line: LineAddr,
        /// The L2 group that lost it.
        g: u32,
    },
    /// A read miss saw `target` holding `line` in the image: demote the
    /// copy to Shared (BusRd observed). The writeback for a dirty copy is
    /// counted by `target`'s owner at delivery, where the real state is
    /// known.
    Demote {
        /// The line being demoted.
        line: LineAddr,
        /// The L2 group whose copy must demote.
        target: u32,
    },
    /// A write saw `target` holding `line` in the image: destroy the copy
    /// (BusRdX observed).
    Invalidate {
        /// The line being invalidated.
        line: LineAddr,
        /// The L2 group whose copy must die.
        target: u32,
    },
}

/// The frozen cross-domain view: which L2 groups hold each line
/// (`holders`, the owner directory) and which of those copies are dirty
/// (`dirty`). Owned by the windowed engine's coordinator; domains read it
/// during a window, barriers update it from delivered [`CohMsg`]s.
#[derive(Debug, Clone, Default)]
pub struct CoherenceImage {
    holders: LineMap,
    dirty: LineMap,
}

impl CoherenceImage {
    /// An empty image (all caches cold).
    pub fn new() -> Self {
        Self::default()
    }

    /// Bitmap of L2 groups holding `line` as of the last barrier.
    pub fn holders(&self, line: LineAddr) -> u64 {
        self.holders.get(line.0)
    }

    /// Bitmap of L2 groups holding `line` *dirty* as of the last barrier.
    pub fn dirty_mask(&self, line: LineAddr) -> u64 {
        self.dirty.get(line.0)
    }

    /// Barrier pass 1: apply a sender's own directory delta
    /// (`Install`/`DirtyBit`/`Evict`). Remote effects are ignored here.
    pub fn apply_directory(&mut self, msg: &CohMsg) {
        match *msg {
            CohMsg::Install { line, g, dirty } => {
                self.holders.set_bit(line.0, g);
                self.set_dirty(line, g, dirty);
            }
            CohMsg::DirtyBit { line, g, dirty } => self.set_dirty(line, g, dirty),
            CohMsg::Evict { line, g } => {
                self.holders.clear_bit(line.0, g);
                self.dirty.clear_bit(line.0, g);
            }
            CohMsg::Demote { .. } | CohMsg::Invalidate { .. } => {}
        }
    }

    /// Barrier pass 2: apply the image-side effect of a remote request
    /// (`Demote` clears the target's dirty bit, `Invalidate` removes the
    /// target entirely). Directory deltas are ignored here.
    pub fn apply_remote(&mut self, msg: &CohMsg) {
        match *msg {
            CohMsg::Demote { line, target } => self.set_dirty(line, target, false),
            CohMsg::Invalidate { line, target } => {
                self.holders.clear_bit(line.0, target);
                self.dirty.clear_bit(line.0, target);
            }
            CohMsg::Install { .. } | CohMsg::DirtyBit { .. } | CohMsg::Evict { .. } => {}
        }
    }

    fn set_dirty(&mut self, line: LineAddr, g: u32, dirty: bool) {
        if dirty {
            self.dirty.set_bit(line.0, g);
        } else {
            self.dirty.clear_bit(line.0, g);
        }
    }
}

/// How a [`crate::MemoryHierarchy`] sees and reaches the L2 groups outside its
/// range. Generic so that the spanning case ([`Inline`]) compiles to the
/// bare inline protocol: no image probe, no message.
pub(crate) trait Remote {
    /// Bitmap of groups the image shows holding `line` (the caller masks
    /// out its own range).
    fn holders(&self, line: LineAddr) -> u64;
    /// Bitmap of groups the image shows holding `line` dirty.
    fn dirty(&self, line: LineAddr) -> u64;
    /// Queue a directory delta or remote effect for the next barrier.
    fn send(&mut self, msg: CohMsg);
}

/// Nothing outside the range: the whole machine is owned, or a delivered
/// remote effect is being applied.
pub(crate) struct Inline;

impl Remote for Inline {
    fn holders(&self, _: LineAddr) -> u64 {
        0
    }
    fn dirty(&self, _: LineAddr) -> u64 {
        0
    }
    fn send(&mut self, _: CohMsg) {}
}

/// A window of the windowed engine: the frozen image and the domain's
/// outbound message buffer.
pub(crate) struct Windowed<'a> {
    pub image: &'a CoherenceImage,
    pub out: &'a mut Vec<CohMsg>,
}

impl Remote for Windowed<'_> {
    fn holders(&self, line: LineAddr) -> u64 {
        self.image.holders(line)
    }
    fn dirty(&self, line: LineAddr) -> u64 {
        self.image.dirty_mask(line)
    }
    fn send(&mut self, msg: CohMsg) {
        self.out.push(msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheConfig, HierarchyConfig, L2Group};
    use crate::hierarchy::{AccessKind, MemOp};
    use crate::mesi::MesiState;
    use crate::MemoryHierarchy;

    fn two_group_cfg() -> HierarchyConfig {
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
        HierarchyConfig {
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
        }
    }

    fn per_group(cfg: HierarchyConfig) -> Vec<MemoryHierarchy> {
        (0..cfg.num_l2())
            .map(|g| MemoryHierarchy::for_groups(cfg.clone(), g..g + 1))
            .collect()
    }

    /// Apply a window's messages to the image and deliver remote effects —
    /// what the engine's barrier does with the senders' logs concatenated
    /// in domain order.
    fn barrier(image: &mut CoherenceImage, domains: &mut [MemoryHierarchy], msgs: &[CohMsg]) {
        for m in msgs {
            image.apply_directory(m);
        }
        for m in msgs {
            image.apply_remote(m);
            match *m {
                CohMsg::Demote { line, target } => {
                    domains[target as usize].deliver_demote(target as usize, line)
                }
                CohMsg::Invalidate { line, target } => {
                    domains[target as usize].deliver_invalidate(target as usize, line)
                }
                _ => {}
            }
        }
    }

    #[test]
    fn read_of_remote_dirty_line_snoops_demotes_and_writes_back() {
        let cfg = two_group_cfg();
        let mut domains = per_group(cfg);
        let mut image = CoherenceImage::new();
        let mut msgs = Vec::new();

        // Window 1: core 0 writes — domain 0 installs Modified.
        domains[0].access_windowed(0, 0x1000, MemOp::Write, AccessKind::Data, &image, &mut msgs);
        let w1 = std::mem::take(&mut msgs);
        barrier(&mut image, &mut domains, &w1);
        let line = LineAddr::of(0x1000, 6);
        assert_eq!(image.holders(line), 0b01);
        assert_eq!(image.dirty_mask(line), 0b01);

        // Window 2: core 2 reads — snooped inter-chip, demote requested.
        let out =
            domains[1].access_windowed(2, 0x1000, MemOp::Read, AccessKind::Data, &image, &mut msgs);
        assert!(out.snooped && !out.l2_hit);
        assert_eq!(out.cycles, 2 + 8 + 120);
        assert_eq!(domains[1].stats().snoops_inter_chip, 1);
        let w2 = std::mem::take(&mut msgs);
        assert!(w2.contains(&CohMsg::Demote { line, target: 0 }));
        barrier(&mut image, &mut domains, &w2);

        // The demote landed: domain 0's copy is Shared and wrote back.
        assert_eq!(domains[0].l2_state(0, line), Some(MesiState::Shared));
        assert_eq!(domains[0].stats().writebacks, 1);
        assert_eq!(image.holders(line), 0b11);
        assert_eq!(image.dirty_mask(line), 0);
    }

    #[test]
    fn write_invalidates_image_holders_and_reclassifies_their_miss() {
        let cfg = two_group_cfg();
        let mut domains = per_group(cfg);
        let mut image = CoherenceImage::new();
        let mut msgs = Vec::new();
        let line = LineAddr::of(0x1000, 6);

        // Window 1: domain 0 reads (installs Exclusive).
        domains[0].access_windowed(0, 0x1000, MemOp::Read, AccessKind::Data, &image, &mut msgs);
        let w1 = std::mem::take(&mut msgs);
        barrier(&mut image, &mut domains, &w1);

        // Window 2: core 2 write-misses — image holder supplies and dies.
        let out = domains[1].access_windowed(
            2,
            0x1000,
            MemOp::Write,
            AccessKind::Data,
            &image,
            &mut msgs,
        );
        assert!(out.snooped);
        // l1 + l2 + inter-chip c2c + invalidate penalty.
        assert_eq!(out.cycles, 2 + 8 + 120 + 20);
        let w2 = std::mem::take(&mut msgs);
        assert!(w2.contains(&CohMsg::Invalidate { line, target: 0 }));
        barrier(&mut image, &mut domains, &w2);

        assert_eq!(domains[0].stats().invalidations, 1);
        assert_eq!(domains[0].l2_state(0, line), None);
        assert_eq!(image.holders(line), 0b10);
        assert_eq!(image.dirty_mask(line), 0b10);

        // Domain 0's re-read is a coherence miss (HIST_LOST set).
        domains[0].access_windowed(0, 0x1000, MemOp::Read, AccessKind::Data, &image, &mut msgs);
        assert_eq!(domains[0].stats().l2_coherence_misses, 1);
    }

    #[test]
    fn stale_image_holder_is_a_harmless_no_op() {
        let cfg = two_group_cfg();
        let mut d0 = MemoryHierarchy::for_groups(cfg, 0..1);
        // The image claimed d0 held a line it has since evicted: delivery
        // finds nothing and counts nothing.
        let line = LineAddr::of(0x9000, 6);
        d0.deliver_invalidate(0, line);
        d0.deliver_demote(0, line);
        assert_eq!(d0.stats().invalidations, 0);
        assert_eq!(d0.stats().writebacks, 0);
    }

    #[test]
    fn silent_upgrade_with_image_holders_invalidates_like_shared() {
        // Bounded-lag relaxation: both domains installed the line E in the
        // same window. The later writer must not upgrade silently.
        let cfg = two_group_cfg();
        let mut domains = per_group(cfg);
        let mut image = CoherenceImage::new();
        let mut msgs = Vec::new();
        let line = LineAddr::of(0x1000, 6);

        // Same window: both read-miss to Exclusive against the cold image.
        domains[0].access_windowed(0, 0x1000, MemOp::Read, AccessKind::Data, &image, &mut msgs);
        domains[1].access_windowed(2, 0x1000, MemOp::Read, AccessKind::Data, &image, &mut msgs);
        let w1 = std::mem::take(&mut msgs);
        barrier(&mut image, &mut domains, &w1);
        assert_eq!(image.holders(line), 0b11);

        // Next window: domain 0 writes its Exclusive copy — the image says
        // domain 1 also holds it, so the upgrade pays and invalidates.
        let out = domains[0].access_windowed(
            0,
            0x1000,
            MemOp::Write,
            AccessKind::Data,
            &image,
            &mut msgs,
        );
        assert_eq!(out.cycles, 2 + 20);
        let w2 = std::mem::take(&mut msgs);
        assert!(w2.contains(&CohMsg::Invalidate { line, target: 1 }));
        barrier(&mut image, &mut domains, &w2);
        assert_eq!(domains[1].stats().invalidations, 1);
        assert_eq!(image.holders(line), 0b01);
    }
}
