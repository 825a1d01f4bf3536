//! Property-based tests of the coherent cache hierarchy.

use proptest::prelude::*;
use tlbmap_cache::{
    AccessKind, Cache, CacheConfig, CacheStats, CohMsg, CoherenceImage, EvictedLine,
    HierarchyConfig, L2Group, LineAddr, MemOp, MemoryHierarchy, MesiState,
};

fn small_hierarchy() -> MemoryHierarchy {
    MemoryHierarchy::new(small_config())
}

fn small_config() -> HierarchyConfig {
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

#[derive(Debug, Clone)]
struct Step {
    core: usize,
    addr: u64,
    write: bool,
    instr: bool,
}

fn step() -> impl Strategy<Value = Step> {
    (
        0usize..4,
        0u64..40,
        any::<bool>(),
        prop::bool::weighted(0.1),
    )
        .prop_map(|(core, line, write, instr)| Step {
            core,
            addr: line * 64 + (line % 8), // within-line offsets too
            write: write && !instr,       // no instruction writes
            instr,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After any access sequence: MESI exclusivity holds for every line,
    /// L1⊆L2 inclusion holds, and the miss taxonomy adds up.
    #[test]
    fn coherence_invariants(steps in prop::collection::vec(step(), 1..300)) {
        let mut h = small_hierarchy();
        let mut lines = std::collections::HashSet::new();
        for s in &steps {
            let op = if s.write { MemOp::Write } else { MemOp::Read };
            let kind = if s.instr { AccessKind::Instr } else { AccessKind::Data };
            h.access(s.core, s.addr, op, kind);
            lines.insert(LineAddr::of(s.addr, 6));
        }
        for &l in &lines {
            prop_assert!(h.mesi_invariant_holds(l), "MESI violated for {:?}", l);
        }
        prop_assert!(h.inclusion_holds(), "L1 line without L2 backing");
        let st = h.stats();
        prop_assert_eq!(
            st.l2_misses,
            st.l2_cold_misses + st.l2_capacity_misses + st.l2_coherence_misses
        );
        prop_assert_eq!(
            st.snoop_transactions,
            st.snoops_intra_chip + st.snoops_inter_chip
        );
        prop_assert_eq!(st.l1d_hits + st.l1d_misses + st.l1i_hits + st.l1i_misses,
            steps.len() as u64);
    }

    /// Reads never invalidate anything, and a single-core workload never
    /// produces coherence traffic.
    #[test]
    fn single_core_has_no_coherence_traffic(addrs in prop::collection::vec(0u64..100, 1..200)) {
        let mut h = small_hierarchy();
        for (i, &a) in addrs.iter().enumerate() {
            let op = if i % 3 == 0 { MemOp::Write } else { MemOp::Read };
            h.access(0, a * 64, op, AccessKind::Data);
        }
        prop_assert_eq!(h.stats().invalidations, 0);
        prop_assert_eq!(h.stats().snoop_transactions, 0);
        prop_assert_eq!(h.stats().l2_coherence_misses, 0);
    }

    /// Access cost is exactly one of the legal latency combinations.
    #[test]
    fn cycles_come_from_the_latency_model(steps in prop::collection::vec(step(), 1..100)) {
        let mut h = small_hierarchy();
        for s in &steps {
            let op = if s.write { MemOp::Write } else { MemOp::Read };
            let out = h.access(s.core, s.addr, op, AccessKind::Data);
            // Enumerate legal cost structures:
            //   reads: 2 | 2+8 | 2+8+{40,120,200}
            //   writes: 2 (+20 upgrade) | 2+8+{40,120,200} (+20)
            let legal = [
                2, 2 + 8, 2 + 8 + 40, 2 + 8 + 120, 2 + 8 + 200,
                2 + 20, 2 + 8 + 40 + 20, 2 + 8 + 120 + 20, 2 + 8 + 200 + 20,
            ];
            prop_assert!(
                legal.contains(&out.cycles),
                "unexpected access cost {} for {:?}",
                out.cycles,
                s
            );
        }
    }

    /// Writing threads placed behind the same L2 never cause interconnect
    /// invalidations; the same accesses split across chips can.
    #[test]
    fn co_location_eliminates_invalidations(lines in prop::collection::vec(0u64..16, 10..60)) {
        // Same-L2 pair: cores 0 and 1.
        let mut near = small_hierarchy();
        for (i, &l) in lines.iter().enumerate() {
            let core = i % 2; // cores 0,1
            let op = if i % 2 == 0 { MemOp::Write } else { MemOp::Read };
            near.access(core, l * 64, op, AccessKind::Data);
        }
        prop_assert_eq!(near.stats().invalidations, 0);
        // Cross-chip pair: cores 0 and 2, same access pattern.
        let mut far = small_hierarchy();
        let mut far_inv = 0;
        for (i, &l) in lines.iter().enumerate() {
            let core = if i % 2 == 0 { 0 } else { 2 };
            let op = if i % 2 == 0 { MemOp::Write } else { MemOp::Read };
            far.access(core, l * 64, op, AccessKind::Data);
            far_inv = far.stats().invalidations;
        }
        // Far placement is allowed to invalidate; near must not.
        prop_assert!(far_inv >= near.stats().invalidations);
    }
}

/// A hierarchy with `groups` L2 groups of two cores each, split across
/// `chips` chips. Tiny caches force evictions so the directory sees the
/// full install/evict/invalidate lifecycle, not just installs.
fn mixed_hierarchy(groups: usize, chips: usize) -> MemoryHierarchy {
    MemoryHierarchy::new(mixed_config(groups, chips, 2))
}

/// `groups` L2 groups of `per_group` contiguous cores each, split across
/// `chips` chips, with the tiny caches of [`mixed_hierarchy`].
fn mixed_config(groups: usize, chips: usize, per_group: usize) -> HierarchyConfig {
    let l1 = CacheConfig {
        size_bytes: 64 * 8,
        line_size: 64,
        ways: 2,
        latency: 2,
    };
    let l2 = CacheConfig {
        size_bytes: 64 * 16,
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
        groups: (0..groups)
            .map(|g| L2Group {
                cores: (g * per_group..(g + 1) * per_group).collect(),
                chip: g * chips / groups,
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The sparse owner directory must agree with a full snoop scan —
    /// both on who holds a line and on which supplier the miss path would
    /// pick — after every step of a random access sequence, across
    /// topologies from a single chip to eight L2 groups on four chips.
    #[test]
    fn directory_matches_full_snoop_scan(
        shape in prop::sample::select(vec![(2usize, 1usize), (2, 2), (4, 2), (8, 4)]),
        accesses in prop::collection::vec((0usize..16, 0u64..24, any::<bool>()), 1..250),
    ) {
        let (groups, chips) = shape;
        let cores = groups * 2;
        let mut h = mixed_hierarchy(groups, chips);
        let mut lines = std::collections::HashSet::new();
        for &(core, line, write) in &accesses {
            let op = if write { MemOp::Write } else { MemOp::Read };
            h.access(core % cores, line * 64, op, AccessKind::Data);
            lines.insert(LineAddr::of(line * 64, 6));
            for &l in &lines {
                prop_assert_eq!(
                    h.directory_mask(l),
                    h.residency_mask_scan(l),
                    "directory out of sync for {:?} after touching line {}",
                    l,
                    line
                );
                for g in 0..groups {
                    prop_assert_eq!(
                        h.find_holder_directory(g, l),
                        h.find_holder_scan(g, l),
                        "supplier choice diverged for {:?} from group {}",
                        l,
                        g
                    );
                }
            }
        }
    }
}

/// What the windowed engine's barrier does with the senders' logs
/// concatenated in domain order: apply every directory delta to the
/// image, then every remote effect to the image and to the domain owning
/// its target group (domain `d` owns groups `d * span..(d + 1) * span`).
fn barrier(
    image: &mut CoherenceImage,
    domains: &mut [MemoryHierarchy],
    span: usize,
    msgs: &mut Vec<CohMsg>,
) {
    for m in msgs.iter() {
        image.apply_directory(m);
    }
    for m in msgs.drain(..) {
        image.apply_remote(&m);
        match m {
            CohMsg::Demote { line, target } => {
                let g = target as usize;
                domains[g / span].deliver_demote(g, line)
            }
            CohMsg::Invalidate { line, target } => {
                let g = target as usize;
                domains[g / span].deliver_invalidate(g, line)
            }
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Domains of one or two L2 groups each, with a barrier after every
    /// access, are the spanning hierarchy: with the image never stale,
    /// message delivery of remote effects must charge exactly what inline
    /// delivery charges — per access, in the merged counters, and in
    /// sibling-L1 invalidations — and the image must show which L2s
    /// really hold each line. The (1, 1) shape is the single-group case,
    /// where no remote effect is ever sent.
    #[test]
    fn domain_hierarchies_match_the_spanning_hierarchy(
        shape in prop::sample::select(vec![(1usize, 1usize), (2, 1), (2, 2), (4, 2), (8, 4)]),
        per_group in 1usize..3,
        span in 1usize..3,
        accesses in prop::collection::vec(
            (0usize..16, 0u64..24, any::<bool>(), prop::bool::weighted(0.1)),
            1..250,
        ),
    ) {
        let (groups, chips) = shape;
        let span = span.min(groups);
        let cores = groups * per_group;
        let cfg = mixed_config(groups, chips, per_group);
        let mut spanning = MemoryHierarchy::new(cfg.clone());
        let mut domains: Vec<MemoryHierarchy> = (0..groups / span)
            .map(|d| MemoryHierarchy::for_groups(cfg.clone(), d * span..(d + 1) * span))
            .collect();
        let mut image = CoherenceImage::new();
        let mut msgs = Vec::new();
        for &(core, line, write, instr) in &accesses {
            let core = core % cores;
            let op = if write && !instr { MemOp::Write } else { MemOp::Read };
            let kind = if instr { AccessKind::Instr } else { AccessKind::Data };
            let want = spanning.access(core, line * 64, op, kind);
            let got = domains[core / per_group / span]
                .access_windowed(core, line * 64, op, kind, &image, &mut msgs);
            prop_assert_eq!(want, got, "outcome diverged at core {} line {}", core, line);
            barrier(&mut image, &mut domains, span, &mut msgs);
            let l = LineAddr::of(line * 64, 6);
            prop_assert_eq!(image.holders(l), spanning.residency_mask_scan(l));
        }
        let mut merged = CacheStats::default();
        for d in &domains {
            merged.merge(d.stats());
        }
        prop_assert_eq!(spanning.stats(), &merged);
        prop_assert_eq!(
            spanning.l1_sibling_invalidations(),
            domains.iter().map(|d| d.l1_sibling_invalidations()).sum::<u64>()
        );
    }
}

/// The naive set-associative LRU cache `Cache` must behave as: every
/// resident line carries a stamp from one global clock, probes that use a
/// line restamp it, and a full set evicts its minimum stamp.
/// `insert_if_absent` leaves a resident line's stamp alone; `peek` and the
/// state writers never stamp.
struct ModelCache {
    n_sets: u64,
    ways: usize,
    clock: u64,
    /// Per set: `(line, state, stamp)`, unordered.
    sets: Vec<Vec<(u64, MesiState, u64)>>,
}

impl ModelCache {
    fn new(cfg: CacheConfig) -> Self {
        let n_sets = cfg.sets();
        ModelCache {
            n_sets: n_sets as u64,
            ways: cfg.ways,
            clock: 0,
            sets: vec![Vec::new(); n_sets],
        }
    }

    fn find(&mut self, line: u64) -> Option<&mut (u64, MesiState, u64)> {
        let set = (line % self.n_sets) as usize;
        self.sets[set].iter_mut().find(|e| e.0 == line)
    }

    fn touch(&mut self, line: u64) -> Option<MesiState> {
        self.clock += 1;
        let clock = self.clock;
        let e = self.find(line)?;
        e.2 = clock;
        Some(e.1)
    }

    fn peek(&mut self, line: u64) -> Option<MesiState> {
        self.find(line).map(|e| e.1)
    }

    fn replace_state(&mut self, line: u64, state: MesiState) -> Option<MesiState> {
        let e = self.find(line)?;
        Some(std::mem::replace(&mut e.1, state))
    }

    fn insert(&mut self, line: u64, state: MesiState) -> Option<EvictedLine> {
        self.clock += 1;
        let set = &mut self.sets[(line % self.n_sets) as usize];
        let evicted = (set.len() == self.ways).then(|| {
            let victim = (0..set.len()).min_by_key(|&i| set[i].2).unwrap();
            let (addr, state, _) = set.swap_remove(victim);
            EvictedLine {
                addr: LineAddr(addr),
                state,
            }
        });
        set.push((line, state, self.clock));
        evicted
    }

    fn remove(&mut self, line: u64) -> Option<MesiState> {
        let set = &mut self.sets[(line % self.n_sets) as usize];
        let i = set.iter().position(|e| e.0 == line)?;
        Some(set.swap_remove(i).1)
    }

    fn lines(&self) -> Vec<(LineAddr, MesiState)> {
        let mut v: Vec<_> = self
            .sets
            .iter()
            .flatten()
            .map(|&(l, s, _)| (LineAddr(l), s))
            .collect();
        v.sort_by_key(|&(l, _)| l);
        v
    }
}

/// The geometries the model test covers: direct-mapped, 2-way with 4
/// sets, the paper's L1 and L2 (12288 sets, a non-power-of-two count),
/// and a 16-way cache.
fn model_geometries() -> Vec<CacheConfig> {
    let geometry = |sets: u64, ways: usize| CacheConfig {
        size_bytes: 64 * sets * ways as u64,
        line_size: 64,
        ways,
        latency: 1,
    };
    vec![
        geometry(4, 1),
        geometry(4, 2),
        CacheConfig::paper_l1(),
        CacheConfig::paper_l2(),
        geometry(8, 16),
    ]
}

/// A line address drawn so that a trace revisits a few sets often enough
/// to fill and evict them: `base + set + k * n_sets`. The bases put lines
/// below 2^32, straddling it, and far above it.
fn model_line(n_sets: u64, base: u8, set: u64, k: u64) -> u64 {
    let base = match base {
        0 => 0,
        1 => (1u64 << 32) - 3 * n_sets,
        _ => 1u64 << 45,
    };
    base + set + k * n_sets
}

fn model_state(s: u8) -> MesiState {
    match s {
        0 => MesiState::Modified,
        1 => MesiState::Exclusive,
        _ => MesiState::Shared,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Cache` matches the stamp-based LRU model on random op traces: every
    /// return value (hits, states, evicted lines and their states) and the
    /// final resident set.
    #[test]
    fn cache_matches_lru_reference_model(
        geometry in 0usize..5,
        ops in prop::collection::vec((0u8..8, 0u8..3, 0u64..3, 0u64..20, 0u8..3), 1..400),
    ) {
        let cfg = model_geometries()[geometry];
        let n_sets = cfg.sets() as u64;
        let mut cache = Cache::new(cfg);
        let mut model = ModelCache::new(cfg);
        for (i, &(op, base, set, k, state)) in ops.iter().enumerate() {
            let line = model_line(n_sets, base, set, k);
            let addr = LineAddr(line);
            let state = model_state(state);
            match op {
                0 => prop_assert_eq!(cache.touch(addr), model.touch(line), "touch at op {}", i),
                1 => prop_assert_eq!(cache.peek(addr), model.peek(line), "peek at op {}", i),
                2 => {
                    // `insert` requires an absent line.
                    if model.peek(line).is_none() {
                        prop_assert_eq!(
                            cache.insert(addr, state),
                            model.insert(line, state),
                            "insert at op {}",
                            i
                        );
                    }
                }
                3 => {
                    let want = match model.touch(line) {
                        Some(_) => (true, None),
                        None => (false, model.insert(line, state)),
                    };
                    prop_assert_eq!(
                        cache.touch_or_insert(addr, state),
                        want,
                        "touch_or_insert at op {}",
                        i
                    );
                }
                4 => {
                    let want = match model.peek(line) {
                        Some(_) => None,
                        None => model.insert(line, state),
                    };
                    prop_assert_eq!(
                        cache.insert_if_absent(addr, state),
                        want,
                        "insert_if_absent at op {}",
                        i
                    );
                }
                5 => prop_assert_eq!(
                    cache.replace_state(addr, state),
                    model.replace_state(line, state),
                    "replace_state at op {}",
                    i
                ),
                6 => prop_assert_eq!(
                    cache.set_state(addr, state),
                    model.replace_state(line, state).is_some(),
                    "set_state at op {}",
                    i
                ),
                _ => prop_assert_eq!(cache.remove(addr), model.remove(line), "remove at op {}", i),
            }
        }
        let mut lines: Vec<_> = cache.lines().collect();
        lines.sort_by_key(|&(l, _)| l);
        prop_assert_eq!(lines, model.lines());
    }
}
