//! A two-level page table with on-demand physical frame allocation.
//!
//! The simulator does not store page *contents* — workload kernels compute on
//! their own Rust data — so the page table's job is purely to provide a
//! stable, deterministic virtual→physical mapping plus a *walk cost* in
//! memory accesses, which the MMU converts into cycles.
//!
//! Frames are handed out by a bump allocator in first-touch order. This keeps
//! runs reproducible: the same trace always produces the same physical
//! layout, so cache-index conflicts are stable across repetitions.

use crate::addr::{PageGeometry, Pfn, Vpn};
use std::collections::HashMap;

/// Bijective frame-number scramble (the splitmix64 finalizer — every step
/// is invertible, so distinct counters yield distinct frames). A *linear*
/// scramble would not do: multiplying an arithmetic progression of
/// counters (stride = thread count under interleaved first touch) by any
/// constant yields another arithmetic progression, which still collapses
/// onto few cache colors. The xor-shift rounds break that structure and
/// make colors near-uniform.
#[inline]
fn scramble_frame(counter: u64) -> u64 {
    let mut z = counter;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Number of levels the modelled page table has. Each level costs one memory
/// access during a walk, mirroring a two-level SPARC-style or classic x86
/// table.
pub const WALK_LEVELS: u32 = 2;

/// Result of a page-table walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkResult {
    /// The frame the page maps to.
    pub pfn: Pfn,
    /// Number of memory accesses the walk performed (== [`WALK_LEVELS`] for
    /// a hit in the table, plus one extra when a frame had to be allocated,
    /// modelling the OS minor-fault path).
    pub memory_accesses: u32,
    /// Whether the walk allocated the frame (first touch).
    pub allocated: bool,
}

/// How physical frames are assigned to virtual pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrameAlloc {
    /// Bump counter in first-touch order, scrambled for color diversity.
    /// The frame a page gets depends on *when* it was first touched
    /// relative to every other page.
    #[default]
    FirstTouch,
    /// Frame is a pure (bijective) function of the VPN itself. Allocation
    /// order is irrelevant, so independent page-table replicas — one per
    /// execution domain in the windowed engine — agree on every
    /// translation without coordinating.
    VpnKeyed,
}

/// A process-wide page table shared by every core running that process.
#[derive(Debug, Clone)]
pub struct PageTable {
    geo: PageGeometry,
    map: HashMap<Vpn, Pfn>,
    next_frame: u64,
    alloc: FrameAlloc,
}

impl PageTable {
    /// Create an empty page table with first-touch frame allocation.
    pub fn new(geo: PageGeometry) -> Self {
        Self::with_alloc(geo, FrameAlloc::FirstTouch)
    }

    /// Create an empty page table with the given frame-allocation policy.
    pub fn with_alloc(geo: PageGeometry, alloc: FrameAlloc) -> Self {
        PageTable {
            geo,
            map: HashMap::new(),
            next_frame: 0,
            alloc,
        }
    }

    /// The geometry this table was built for.
    pub fn geometry(&self) -> PageGeometry {
        self.geo
    }

    /// Translate `vpn`, allocating a frame on first touch.
    pub fn walk(&mut self, vpn: Vpn) -> WalkResult {
        if let Some(&pfn) = self.map.get(&vpn) {
            WalkResult {
                pfn,
                memory_accesses: WALK_LEVELS,
                allocated: false,
            }
        } else {
            let counter = match self.alloc {
                FrameAlloc::FirstTouch => {
                    let c = self.next_frame;
                    self.next_frame += 1;
                    c
                }
                FrameAlloc::VpnKeyed => vpn.0,
            };
            let pfn = Pfn(scramble_frame(counter));
            self.map.insert(vpn, pfn);
            WalkResult {
                pfn,
                memory_accesses: WALK_LEVELS + 1,
                allocated: true,
            }
        }
    }

    /// Translate without allocating. Returns `None` for untouched pages.
    pub fn lookup(&self, vpn: Vpn) -> Option<Pfn> {
        self.map.get(&vpn).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_allocates_sequential_frames() {
        let mut pt = PageTable::new(PageGeometry::new_4k());
        let r0 = pt.walk(Vpn(100));
        let r1 = pt.walk(Vpn(42));
        assert!(r0.allocated && r1.allocated);
        assert_ne!(r0.pfn, r1.pfn);
        assert_eq!(r0.memory_accesses, WALK_LEVELS + 1);
    }

    #[test]
    fn second_walk_is_stable_and_cheaper() {
        let mut pt = PageTable::new(PageGeometry::new_4k());
        let first = pt.walk(Vpn(7));
        let second = pt.walk(Vpn(7));
        assert_eq!(first.pfn, second.pfn);
        assert!(!second.allocated);
        assert_eq!(second.memory_accesses, WALK_LEVELS);
    }

    #[test]
    fn lookup_does_not_allocate() {
        let mut pt = PageTable::new(PageGeometry::new_4k());
        assert_eq!(pt.lookup(Vpn(3)), None);
        let walk = pt.walk(Vpn(3));
        assert!(walk.allocated, "the lookup allocated a frame");
        assert_eq!(pt.lookup(Vpn(3)), Some(walk.pfn));
    }

    #[test]
    fn frame_colors_are_diverse_under_strided_allocation() {
        // Simulate 32 threads' interleaved first touches: the i-th
        // allocation belongs to thread i % 32. Each thread's frames must
        // spread over many cache colors (192 = a 6 MiB 8-way 64 B cache),
        // not collapse onto colors/32.
        let mut pt = PageTable::new(PageGeometry::new_4k());
        let mut colors_of_thread0 = std::collections::HashSet::new();
        for i in 0..(32 * 64) {
            let r = pt.walk(Vpn(1000 + i));
            if i % 32 == 0 {
                colors_of_thread0.insert(r.pfn.0 % 192);
            }
        }
        assert!(
            colors_of_thread0.len() > 30,
            "only {} colors for one thread's 64 pages",
            colors_of_thread0.len()
        );
    }

    #[test]
    fn distinct_vpns_get_distinct_frames() {
        let mut pt = PageTable::new(PageGeometry::new_4k());
        let a = pt.walk(Vpn(1)).pfn;
        let b = pt.walk(Vpn(2)).pfn;
        assert_ne!(a, b);
    }

    #[test]
    fn vpn_keyed_frames_ignore_touch_order() {
        let geo = PageGeometry::new_4k();
        let mut a = PageTable::with_alloc(geo, FrameAlloc::VpnKeyed);
        let mut b = PageTable::with_alloc(geo, FrameAlloc::VpnKeyed);
        // Opposite first-touch orders, identical translations.
        let fa: Vec<_> = [3u64, 9, 1, 7]
            .iter()
            .map(|&v| a.walk(Vpn(v)).pfn)
            .collect();
        let fb: Vec<_> = [7u64, 1, 9, 3]
            .iter()
            .map(|&v| b.walk(Vpn(v)).pfn)
            .collect();
        let mut fb_rev = fb.clone();
        fb_rev.reverse();
        assert_eq!(fa, fb_rev);
        // First touch still pays the allocation access, replica or not.
        assert_eq!(a.walk(Vpn(3)).memory_accesses, WALK_LEVELS);
        assert_eq!(b.walk(Vpn(100)).memory_accesses, WALK_LEVELS + 1);
        // Distinct VPNs still get distinct frames (bijective scramble).
        let mut seen: std::collections::HashSet<_> = fa.into_iter().collect();
        assert_eq!(seen.len(), 4);
        seen.extend((200..400u64).map(|v| a.walk(Vpn(v)).pfn));
        assert_eq!(seen.len(), 204);
    }
}
