//! The simulator's entry points and the [`ExecPlan`] that picks how a run
//! executes.
//!
//! Threads run their traces on the cores the [`Mapping`] pins them to,
//! smallest core clock first, and synchronize at OpenMP-style barriers.
//! One engine runs every plan: `lag == 0` is one domain spanning the
//! machine (the exact serial engine), a nonzero lag one domain per L2
//! group, synchronized every `lag` simulated cycles.

use crate::config::SimConfig;
use crate::hooks::SimHooks;
use crate::mapping::Mapping;
use crate::stats::RunStats;
use crate::topology::Topology;
use crate::trace::ThreadTrace;
use tlbmap_obs::Recorder;

/// Default bounded-lag window (simulated cycles) for sharded execution:
/// wide enough that per-domain batches amortize the barrier, narrow
/// enough that the coherence image stays fresh relative to the paper's
/// barrier cadence.
pub const DEFAULT_LAG: u64 = 8192;

/// How a run executes: how many OS threads shard the simulated domains,
/// and the bounded-lag window they synchronize on.
///
/// The metrics a run produces are a pure function of `lag` (and the
/// workload/config) — `shards` only chunks the per-domain work across OS
/// threads, so any shard count yields byte-identical results at a fixed
/// lag. `lag == 0` runs one domain spanning the machine — the exact serial
/// engine — and requires `shards == 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPlan {
    /// OS threads to shard domains across (1 = in-process, no spawning).
    pub shards: usize,
    /// Bounded-lag window in simulated cycles; 0 = exact serial engine.
    pub lag: u64,
}

impl ExecPlan {
    /// The exact serial engine (today's default).
    pub fn serial() -> Self {
        ExecPlan { shards: 1, lag: 0 }
    }

    /// Windowed execution over `shards` OS threads at [`DEFAULT_LAG`].
    pub fn sharded(shards: usize) -> Self {
        ExecPlan {
            shards,
            lag: DEFAULT_LAG,
        }
    }

    /// Windowed execution with an explicit lag.
    pub fn windowed(shards: usize, lag: u64) -> Self {
        ExecPlan { shards, lag }
    }
}

/// Run `traces` on the machine described by `cfg`/`topo` under `mapping`,
/// firing `hooks` at the architectural observation points.
///
/// # Panics
/// Panics if the mapping size does not match the trace count, a mapped core
/// id exceeds the topology, the hierarchy's core count disagrees with the
/// topology, or the traces have inconsistent barrier counts.
pub fn simulate(
    cfg: &SimConfig,
    topo: &Topology,
    traces: &[ThreadTrace],
    mapping: &Mapping,
    hooks: &mut dyn SimHooks,
) -> RunStats {
    simulate_observed(cfg, topo, traces, mapping, hooks, &Recorder::disabled())
}

/// [`simulate`], additionally feeding engine-level events (TLB misses,
/// barriers, migrations, ticks) and periodic snapshots into `rec`. Pass
/// [`Recorder::disabled`] to observe nothing; every probe then collapses
/// to a single branch.
///
/// # Panics
/// Same conditions as [`simulate`].
pub fn simulate_observed(
    cfg: &SimConfig,
    topo: &Topology,
    traces: &[ThreadTrace],
    mapping: &Mapping,
    hooks: &mut dyn SimHooks,
    rec: &Recorder,
) -> RunStats {
    simulate_observed_with_plan(cfg, topo, traces, mapping, hooks, rec, ExecPlan::serial())
        .expect("the serial plan accepts every run")
}

/// [`simulate`] under an [`ExecPlan`]: `plan.lag == 0` runs the exact
/// serial engine; a nonzero lag runs the windowed engine, sharded over
/// `plan.shards` OS threads.
///
/// # Errors
/// Rejects plans the windowed engine cannot honour deterministically:
/// zero shards, `shards > 1` with `lag == 0`, NUMA configs, hook sets
/// needing inline access, or non-contiguous L2 groups.
///
/// # Panics
/// Same conditions as [`simulate`].
pub fn simulate_with_plan(
    cfg: &SimConfig,
    topo: &Topology,
    traces: &[ThreadTrace],
    mapping: &Mapping,
    hooks: &mut dyn SimHooks,
    plan: ExecPlan,
) -> Result<RunStats, String> {
    simulate_observed_with_plan(
        cfg,
        topo,
        traces,
        mapping,
        hooks,
        &Recorder::disabled(),
        plan,
    )
}

/// [`simulate_observed`] under an [`ExecPlan`]; see [`simulate_with_plan`].
///
/// # Errors
/// Same conditions as [`simulate_with_plan`].
///
/// # Panics
/// Same conditions as [`simulate`].
pub fn simulate_observed_with_plan(
    cfg: &SimConfig,
    topo: &Topology,
    traces: &[ThreadTrace],
    mapping: &Mapping,
    hooks: &mut dyn SimHooks,
    rec: &Recorder,
    plan: ExecPlan,
) -> Result<RunStats, String> {
    if plan.shards == 0 {
        return Err("shards must be at least 1".to_string());
    }
    if plan.lag == 0 && plan.shards > 1 {
        return Err(format!(
            "{} shards require a bounded-lag window; pass a nonzero lag",
            plan.shards
        ));
    }
    // Monomorphize so the unobserved engine contains no probe code at all:
    // the per-event `advance` call would otherwise cost a branch in the
    // hottest loop of the simulator.
    if rec.is_enabled() {
        crate::shard::run::<true>(cfg, topo, traces, mapping, hooks, rec, plan)
    } else {
        crate::shard::run::<false>(cfg, topo, traces, mapping, hooks, rec, plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::{NoHooks, TlbView};
    use crate::trace::TraceEvent;
    use tlbmap_mem::{VirtAddr, Vpn};
    use tlbmap_obs::ProfId;

    fn topo() -> Topology {
        Topology::harpertown()
    }

    fn cfg() -> SimConfig {
        SimConfig::paper_software_managed(&topo())
    }

    fn page(i: u64) -> VirtAddr {
        VirtAddr(i * 4096)
    }

    #[test]
    fn empty_traces_finish_immediately() {
        let traces: Vec<ThreadTrace> = vec![ThreadTrace::new(); 8];
        let stats = simulate(
            &cfg(),
            &topo(),
            &traces,
            &Mapping::identity(8),
            &mut NoHooks,
        );
        assert_eq!(stats.total_cycles, 0);
        assert_eq!(stats.accesses, 0);
    }

    #[test]
    fn single_thread_sequential_costs() {
        let traces: Vec<ThreadTrace> = vec![vec![
            TraceEvent::Compute(100),
            TraceEvent::read(page(1)),
            TraceEvent::read(page(1)),
        ]
        .into()];
        // Machine still has 8 cores; one thread on core 0.
        let mut cfg8 = cfg();
        cfg8.barrier_cost = 0;
        let m = Mapping::new(vec![0]);
        let stats = simulate(&cfg8, &topo(), &traces, &m, &mut NoHooks);
        // 100 compute + (miss: trap 120 + 3*100 walk, then L1 miss → L2 miss
        // → memory: 2+8+200) + (hit: 0 translation, L1 hit: 2 cycles)
        assert_eq!(stats.total_cycles, 100 + 420 + 210 + 2);
        assert_eq!(stats.tlb_misses(), 1);
        assert_eq!(stats.accesses, 2);
    }

    #[test]
    fn profiler_accounts_every_simulated_cycle() {
        use tlbmap_obs::ObsConfig;
        // Same workload as `single_thread_sequential_costs`: the known
        // breakdown is 100 compute + 420 TLB (trap + walk) + 212 cache.
        let traces: Vec<ThreadTrace> = vec![vec![
            TraceEvent::Compute(100),
            TraceEvent::read(page(1)),
            TraceEvent::read(page(1)),
        ]
        .into()];
        let mut cfg8 = cfg();
        cfg8.barrier_cost = 0;
        let rec = Recorder::new(ObsConfig::new(1));
        let stats = simulate_observed(
            &cfg8,
            &topo(),
            &traces,
            &Mapping::new(vec![0]),
            &mut NoHooks,
            &rec,
        );
        assert_eq!(rec.prof_exclusive_cycles(ProfId::EngineCompute), 100);
        assert_eq!(rec.prof_exclusive_cycles(ProfId::TlbLookup), 420);
        assert_eq!(rec.prof_exclusive_cycles(ProfId::CacheAccess), 212);
        assert_eq!(rec.prof_calls(ProfId::EngineAccess), 2);
        assert_eq!(rec.prof_total_cycles(), stats.total_cycles);
        assert_eq!(
            rec.prof_inclusive_cycles(ProfId::Engine),
            stats.total_cycles
        );
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        // Thread 0 computes 1000 cycles, thread 1 computes 10; both then
        // read their own page. After the barrier both clocks align.
        let traces: Vec<ThreadTrace> = vec![
            vec![
                TraceEvent::Compute(1000),
                TraceEvent::Barrier,
                TraceEvent::Compute(1),
            ]
            .into(),
            vec![
                TraceEvent::Compute(10),
                TraceEvent::Barrier,
                TraceEvent::Compute(1),
            ]
            .into(),
        ];
        let mut c = cfg();
        c.barrier_cost = 500;
        let stats = simulate(
            &c,
            &topo(),
            &traces,
            &Mapping::new(vec![0, 1]),
            &mut NoHooks,
        );
        assert_eq!(stats.barriers, 1);
        assert_eq!(stats.core_cycles[0], 1000 + 500 + 1);
        assert_eq!(stats.core_cycles[1], 1000 + 500 + 1);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn inconsistent_barriers_rejected() {
        let traces: Vec<ThreadTrace> = vec![vec![TraceEvent::Barrier].into(), ThreadTrace::new()];
        simulate(
            &cfg(),
            &topo(),
            &traces,
            &Mapping::new(vec![0, 1]),
            &mut NoHooks,
        );
    }

    #[test]
    fn shared_page_hits_tlb_hook() {
        struct MissCounter {
            misses: u64,
            sharers_seen: u64,
        }
        impl SimHooks for MissCounter {
            fn on_tlb_miss(
                &mut self,
                core: usize,
                _t: usize,
                vpn: Vpn,
                _kind: tlbmap_cache::AccessKind,
                view: &TlbView<'_>,
            ) -> u64 {
                self.misses += 1;
                for other in 0..view.num_cores() {
                    if other != core && view.tlb(other).contains(vpn) {
                        self.sharers_seen += 1;
                    }
                }
                0
            }
        }
        // Thread 0 touches page 7 first; after the barrier thread 1 touches
        // it too and must observe thread 0's TLB entry.
        let traces: Vec<ThreadTrace> = vec![
            vec![TraceEvent::read(page(7)), TraceEvent::Barrier].into(),
            vec![TraceEvent::Barrier, TraceEvent::read(page(7))].into(),
        ];
        let mut hook = MissCounter {
            misses: 0,
            sharers_seen: 0,
        };
        simulate(
            &cfg(),
            &topo(),
            &traces,
            &Mapping::new(vec![0, 1]),
            &mut hook,
        );
        assert_eq!(hook.misses, 2);
        assert_eq!(hook.sharers_seen, 1);
    }

    #[test]
    fn tick_hook_fires_periodically() {
        struct TickCounter(u64);
        impl SimHooks for TickCounter {
            fn on_tick(&mut self, _now: u64, _view: &TlbView<'_>) -> u64 {
                self.0 += 1;
                1 // nonzero so the engine counts the search
            }
        }
        let traces: Vec<ThreadTrace> = vec![vec![TraceEvent::Compute(100); 100].into()]; // 10k cycles
        let mut c = cfg().with_tick_period(Some(1000));
        c.barrier_cost = 0;
        let mut hook = TickCounter(0);
        let stats = simulate(&c, &topo(), &traces, &Mapping::new(vec![0]), &mut hook);
        assert!(hook.0 >= 9, "expected ~10 ticks, got {}", hook.0);
        assert_eq!(stats.detection_searches, hook.0);
        assert_eq!(stats.detection_overhead_cycles, hook.0);
    }

    #[test]
    fn detection_overhead_slows_the_core() {
        struct Expensive;
        impl SimHooks for Expensive {
            fn on_tlb_miss(
                &mut self,
                _: usize,
                _: usize,
                _: Vpn,
                _: tlbmap_cache::AccessKind,
                _: &TlbView<'_>,
            ) -> u64 {
                10_000
            }
        }
        let traces: Vec<ThreadTrace> = vec![vec![TraceEvent::read(page(1))].into()];
        let m = Mapping::new(vec![0]);
        let base = simulate(&cfg(), &topo(), &traces, &m, &mut NoHooks);
        let slowed = simulate(&cfg(), &topo(), &traces, &m, &mut Expensive);
        assert_eq!(slowed.total_cycles, base.total_cycles + 10_000);
        assert_eq!(slowed.detection_overhead_cycles, 10_000);
    }

    #[test]
    fn mapping_changes_which_cores_work() {
        let traces: Vec<ThreadTrace> = vec![
            vec![TraceEvent::read(page(1))].into(),
            vec![TraceEvent::read(page(2))].into(),
        ];
        let stats = simulate(
            &cfg(),
            &topo(),
            &traces,
            &Mapping::new(vec![5, 2]),
            &mut NoHooks,
        );
        assert!(stats.core_cycles[5] > 0);
        assert!(stats.core_cycles[2] > 0);
        assert_eq!(stats.core_cycles[0], 0);
    }

    #[test]
    fn sharing_mapping_affects_snoops() {
        // Threads ping-pong writes on one page. On the same L2 there are no
        // interconnect snoops; on different chips every re-read snoops.
        let mut a = ThreadTrace::new();
        let mut b = ThreadTrace::new();
        for _ in 0..50 {
            a.push(TraceEvent::write(page(3)));
            a.push(TraceEvent::Barrier);
            b.push(TraceEvent::Barrier);
            b.push(TraceEvent::read(page(3)));
            a.push(TraceEvent::Barrier);
            b.push(TraceEvent::Barrier);
        }
        let near = simulate(
            &cfg(),
            &topo(),
            &[a.clone(), b.clone()],
            &Mapping::new(vec![0, 1]),
            &mut NoHooks,
        );
        let far = simulate(
            &cfg(),
            &topo(),
            &[a, b],
            &Mapping::new(vec![0, 4]),
            &mut NoHooks,
        );
        assert_eq!(near.cache.snoop_transactions, 0);
        assert!(far.cache.snoop_transactions > 10);
        assert!(far.cache.invalidations > 10);
        assert_eq!(near.cache.invalidations, 0);
    }

    #[test]
    fn deterministic_without_jitter() {
        let traces: Vec<ThreadTrace> = (0..4)
            .map(|t| {
                (0..100)
                    .map(|i| TraceEvent::read(page((t * 13 + i * 7) % 40)))
                    .collect()
            })
            .collect();
        let m = Mapping::new(vec![0, 2, 4, 6]);
        let a = simulate(&cfg(), &topo(), &traces, &m, &mut NoHooks);
        let b = simulate(&cfg(), &topo(), &traces, &m, &mut NoHooks);
        assert_eq!(a, b);
    }

    #[test]
    fn barrier_migration_moves_threads_and_charges_cost() {
        struct SwapOnce(bool);
        impl SimHooks for SwapOnce {
            fn on_barrier(&mut self, _idx: u64, _view: &TlbView<'_>) -> Option<Mapping> {
                if self.0 {
                    None
                } else {
                    self.0 = true;
                    Some(Mapping::new(vec![4, 1])) // thread 0: core 0 -> 4
                }
            }
        }
        // Two phases; thread 0 touches page 9 in both.
        let traces: Vec<ThreadTrace> = vec![
            vec![
                TraceEvent::read(page(9)),
                TraceEvent::Barrier,
                TraceEvent::read(page(9)),
            ]
            .into(),
            vec![TraceEvent::Barrier, TraceEvent::Compute(1)].into(),
        ];
        let mut c = cfg();
        c.barrier_cost = 0;
        c.migration_cost = 5_000;
        let stats = simulate(
            &c,
            &topo(),
            &traces,
            &Mapping::new(vec![0, 1]),
            &mut SwapOnce(false),
        );
        assert_eq!(stats.migrations, 1);
        // Thread 0 finished phase 2 on core 4.
        assert!(
            stats.core_cycles[4] > 0,
            "migrated thread must run on core 4"
        );
        // Migration cost is visible and the refetch is a TLB miss (cold
        // TLB on the new core): 2 misses total for thread 0's page.
        assert!(stats.core_cycles[4] >= 5_000);
        assert_eq!(stats.tlb_misses(), 2);
    }

    #[test]
    fn no_migration_when_hook_returns_same_mapping() {
        struct SameMapping;
        impl SimHooks for SameMapping {
            fn on_barrier(&mut self, _idx: u64, _view: &TlbView<'_>) -> Option<Mapping> {
                Some(Mapping::new(vec![0, 1]))
            }
        }
        let traces: Vec<ThreadTrace> = vec![
            vec![
                TraceEvent::read(page(1)),
                TraceEvent::Barrier,
                TraceEvent::read(page(1)),
            ]
            .into(),
            vec![TraceEvent::Barrier, TraceEvent::Compute(1)].into(),
        ];
        let stats = simulate(
            &cfg(),
            &topo(),
            &traces,
            &Mapping::new(vec![0, 1]),
            &mut SameMapping,
        );
        assert_eq!(stats.migrations, 0);
        // TLB survives: second read of page 1 hits.
        assert_eq!(stats.tlb_misses(), 1);
    }

    #[test]
    fn numa_first_touch_penalizes_cross_chip_consumers() {
        use crate::numa::NumaPolicy;
        use tlbmap_cache::{CacheConfig, HierarchyConfig, L2Group};
        // Tiny L2s so the producer's buffer spills to memory before the
        // consumer reads it — forcing true memory fetches.
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
        let topo = Topology::new(2, 1, 2); // 2 chips x 1 L2 x 2 cores
        let hierarchy = HierarchyConfig {
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
        };
        let mut c = SimConfig::paper_software_managed(&topo);
        c.hierarchy = hierarchy;
        c.numa = Some(crate::numa::NumaConfig {
            policy: NumaPolicy::FirstTouch,
        });
        c.barrier_cost = 0;

        // Producer (thread 0) writes 64 lines; consumer (thread 1) reads
        // them after a barrier.
        let mut producer = ThreadTrace::new();
        let mut consumer = ThreadTrace::new();
        consumer.push(TraceEvent::Barrier);
        for i in 0..64u64 {
            producer.push(TraceEvent::write(VirtAddr(i * 64)));
            consumer.push(TraceEvent::read(VirtAddr(i * 64)));
        }
        producer.push(TraceEvent::Barrier);
        let traces = vec![producer, consumer];

        // Same chip: all fetches local to the producer's node.
        let near = simulate(&c, &topo, &traces, &Mapping::new(vec![0, 1]), &mut NoHooks);
        // Cross chip: the consumer's fetches go remote.
        let far = simulate(&c, &topo, &traces, &Mapping::new(vec![0, 2]), &mut NoHooks);
        assert_eq!(near.cache.mem_fetches_remote, 0);
        assert!(
            far.cache.mem_fetches_remote > 0,
            "cross-chip consumer must fetch remotely"
        );
        assert!(
            far.total_cycles > near.total_cycles,
            "NUMA must penalize the cross-chip placement ({} vs {})",
            far.total_cycles,
            near.total_cycles
        );
    }

    /// A barriered harpertown workload whose pages are shared across L2
    /// groups and chips, with one large `Compute` per thread and phase.
    fn pinned_workload() -> Vec<ThreadTrace> {
        (0..8u64)
            .map(|t| {
                let mut tr = ThreadTrace::new();
                for ph in 0..3u64 {
                    tr.push(TraceEvent::Compute(4_000 + 1_500 * t));
                    for i in 0..48u64 {
                        let page = (t * 5 + i * 3 + ph * 7) % 19;
                        let addr = VirtAddr(page * 4096 + (i % 16) * 64);
                        if (i + t).is_multiple_of(4) {
                            tr.push(TraceEvent::write(addr));
                        } else {
                            tr.push(TraceEvent::read(addr));
                        }
                        if i % 5 == 0 {
                            tr.push(TraceEvent::Compute(30 + i));
                        }
                    }
                    tr.push(TraceEvent::Barrier);
                }
                tr
            })
            .collect()
    }

    /// FNV-1a over the `Debug` rendering: pins every `RunStats` field.
    fn digest(stats: &RunStats) -> u64 {
        format!("{stats:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            })
    }

    #[test]
    fn serial_observation_points_are_pinned() {
        use tlbmap_obs::{CounterId, ObsConfig};

        // HM style: the tick overhead is the number of TLB entries.
        struct TlbScan;
        impl SimHooks for TlbScan {
            fn on_tick(&mut self, _now: u64, view: &TlbView<'_>) -> u64 {
                (0..view.num_cores())
                    .map(|c| view.tlb(c).occupancy() as u64)
                    .sum()
            }
        }
        // SM style: the miss overhead grows with the page's other sharers.
        struct SharerScan;
        impl SimHooks for SharerScan {
            fn on_tlb_miss(
                &mut self,
                core: usize,
                _t: usize,
                vpn: Vpn,
                _kind: tlbmap_cache::AccessKind,
                view: &TlbView<'_>,
            ) -> u64 {
                let sharers = (0..view.num_cores())
                    .filter(|&c| c != core && view.tlb(c).contains(vpn))
                    .count() as u64;
                40 + 25 * sharers
            }
        }
        // A remapper that rotates every thread one core further at each
        // barrier.
        struct Rotate(usize);
        impl SimHooks for Rotate {
            fn on_barrier(&mut self, _idx: u64, _view: &TlbView<'_>) -> Option<Mapping> {
                self.0 += 1;
                Some(Mapping::new((0..8).map(|t| (t + self.0) % 8).collect()))
            }
        }

        let topo = topo();
        let traces = pinned_workload();
        let mapping = Mapping::new(vec![0, 2, 4, 6, 1, 3, 5, 7]);
        let run = |c: &SimConfig, hooks: &mut dyn SimHooks| {
            let rec = Recorder::new(
                ObsConfig::new(8)
                    .with_snapshot_period(Some(3_000))
                    .with_flight_window(Some(2_500)),
            );
            let stats = simulate_observed(c, &topo, &traces, &mapping, hooks, &rec);
            let counters = [
                CounterId::Ticks,
                CounterId::TlbMisses,
                CounterId::SnapshotsTaken,
                CounterId::FlightWindows,
            ]
            .map(|id| rec.counter(id));
            (stats, counters, rec.prof_total_cycles())
        };

        // Constants captured from the serial engine before it became one
        // domain spanning the machine: (RunStats digest, total cycles,
        // case figure, [ticks, tlb_misses, snapshots, flight windows],
        // profiled cycles).
        let hm = cfg().with_tick_period(Some(1_500));
        let (stats, counters, prof) = run(&hm, &mut TlbScan);
        assert_eq!(
            (
                digest(&stats),
                stats.total_cycles,
                stats.detection_overhead_cycles
            ),
            (3_385_848_032_232_553_831, 71_635, 5_583)
        );
        assert_eq!((counters, prof), ([47, 152, 23, 29], 428_779));

        let mut numa = cfg().with_numa(crate::numa::NumaPolicy::FirstTouch, 150);
        numa.hierarchy.l2.size_bytes = 64 * 16;
        numa.hierarchy.l2.ways = 4;
        let (stats, counters, prof) = run(&numa, &mut NoHooks);
        assert_eq!(
            (
                digest(&stats),
                stats.total_cycles,
                stats.cache.mem_fetches_remote
            ),
            (1_842_631_239_233_582_909, 86_421, 225)
        );
        assert_eq!((counters, prof), ([0, 152, 28, 35], 495_582));

        let (stats, counters, prof) = run(&cfg(), &mut Rotate(0));
        assert_eq!(
            (digest(&stats), stats.total_cycles, stats.migrations),
            (5_264_563_351_173_326_248, 90_651, 23)
        );
        assert_eq!(stats.core_cycles, vec![90_651; 8]);
        assert_eq!((counters, prof), ([0, 437, 30, 37], 577_668));

        let (stats, counters, prof) = run(&cfg().with_jitter(5), &mut SharerScan);
        assert_eq!(
            (
                digest(&stats),
                stats.total_cycles,
                stats.detection_overhead_cycles
            ),
            (195_914_501_806_099_707, 73_799, 19_380)
        );
        assert_eq!(stats.detection_searches, 152);
        assert_eq!((counters, prof), ([0, 152, 24, 30], 442_998));
    }

    #[test]
    fn jitter_varies_total_cycles() {
        let traces: Vec<ThreadTrace> = vec![vec![TraceEvent::Compute(10_000); 50].into()];
        let m = Mapping::new(vec![0]);
        let a = simulate(&cfg().with_jitter(1), &topo(), &traces, &m, &mut NoHooks);
        let b = simulate(&cfg().with_jitter(2), &topo(), &traces, &m, &mut NoHooks);
        assert_ne!(a.total_cycles, b.total_cycles);
    }
}
