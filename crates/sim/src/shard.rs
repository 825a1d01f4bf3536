//! The windowed (sharded) execution engine: deterministic bounded-lag
//! parallel simulation of one run.
//!
//! The serial engine interleaves all cores through one mutable borrow
//! spine (engine → MMUs → hierarchy), so one run can never use more than
//! one host core. This engine splits the machine along its natural seam —
//! the L2 group — into *domains*, each owning its cores' clocks, MMUs,
//! page-table replica and run queue, and a [`MemoryHierarchy`] whose range
//! is that one group (its L2 and private caches; the protocol is the
//! serial engine's, with effects on other groups sent as messages).
//! Execution proceeds in **epochs**: with `m` the minimum clock over
//! running threads, every domain independently executes its threads up to
//! the horizon `m + lag`, then all domains synchronize at a barrier where
//! cross-domain coherence messages are exchanged through the
//! deterministic [`DelayedQueue`] and the shared [`CoherenceImage`] is
//! updated.
//!
//! **Determinism contract.** Everything a run produces is a pure function
//! of (traces, config, mapping, lag). The shard count only chunks the
//! per-domain work over OS threads: domains share nothing during an epoch
//! (the image is frozen, each domain's state is private), and the barrier
//! applies messages in the queue's total order `(deliver_cycle, domain,
//! seq)` — so `--shards 1` and `--shards 8` are byte-identical, and CI
//! gates on exactly that.
//!
//! **Deviations from the serial engine** (all bounded by `lag` simulated
//! cycles; see DESIGN.md §16): remote residency is observed through the
//! image (stale up to one window); deferred TLB-miss hooks replay at epoch
//! ends against post-fill TLB state; ticks fire at epoch granularity; and
//! page tables are per-domain [`FrameAlloc::VpnKeyed`] replicas. A run
//! with `lag == 0` never reaches this module — the exact serial engine
//! runs instead.

use crate::config::SimConfig;
use crate::engine::{ExecPlan, ThreadState};
use crate::hooks::{SimHooks, TlbView};
use crate::jitter::ThreadJitter;
use crate::mapping::Mapping;
use crate::msgq::DelayedQueue;
use crate::sched::RunQueue;
use crate::stats::RunStats;
use crate::topology::Topology;
use crate::trace::{barriers_consistent, ThreadTrace, TraceEvent};
use tlbmap_cache::{AccessKind, CacheStats, CohMsg, CoherenceImage, MemoryHierarchy};
use tlbmap_mem::{FrameAlloc, Mmu, PageGeometry, PageTable, Vpn};
use tlbmap_obs::{CounterId, ProfId, Recorder};

/// Per-thread execution context, moved into a domain's worklist for the
/// epochs the thread runs in and parked with the coordinator otherwise.
struct ThreadCtx {
    /// Core the thread is pinned to (global id; changes only at barrier
    /// migrations, which the coordinator performs).
    core: usize,
    /// Trace read position.
    pos: usize,
    state: ThreadState,
    /// The thread's private jitter stream (identical to the serial
    /// engine's per-thread stream regardless of which shard runs it).
    jitter: ThreadJitter,
}

/// A TLB miss recorded during an epoch, replayed in deterministic global
/// order at the epoch barrier (observability + detection hooks).
#[derive(Debug, Clone, Copy)]
struct MissRec {
    cycle: u64,
    core: usize,
    thread: usize,
    vpn: u64,
    is_data: bool,
}

/// Everything one domain owns across the run.
struct DomainState {
    /// The domain's slice of the hierarchy: its one L2 group.
    dom: MemoryHierarchy,
    /// VPN-keyed page-table replica: every domain derives identical
    /// translations without coordinating (see [`FrameAlloc::VpnKeyed`]).
    pt: PageTable,
    /// Outbound coherence messages, in execution (per-sender FIFO) order.
    msgs: Vec<CohMsg>,
    /// TLB misses of the current epoch, in execution order.
    misses: Vec<MissRec>,
    /// Threads executing here this epoch, ascending thread id.
    work: Vec<(usize, ThreadCtx)>,
    accesses: u64,
    // Profile sums, settled into the recorder once at the end of the run
    // (identical totals to the serial engine's per-event charges).
    prof_compute_cycles: u64,
    prof_compute_calls: u64,
    prof_tlb_cycles: u64,
    prof_cache_cycles: u64,
    prof_access_calls: u64,
}

/// One domain's working set for an epoch: its state plus the slices of
/// the global per-core arrays covering its contiguous core range.
struct EpochUnit<'a> {
    ds: &'a mut DomainState,
    clocks: &'a mut [u64],
    mmus: &'a mut [Mmu],
    base: usize,
}

/// The running thread with the smallest `(clock, core)`; `None` when no
/// thread is running.
fn running_min(ctxs: &[Option<ThreadCtx>], clocks: &[u64]) -> Option<(u64, usize)> {
    let mut best: Option<(u64, usize)> = None;
    for ctx in ctxs.iter().flatten() {
        if ctx.state != ThreadState::Running {
            continue;
        }
        let key = (clocks[ctx.core], ctx.core);
        if best.is_none_or(|b| key < b) {
            best = Some(key);
        }
    }
    best
}

/// Execute one domain's worklist up to `horizon` against the frozen
/// `image`. Pure with respect to everything outside the unit: safe to run
/// on any OS thread, in any real-time order relative to other domains.
fn run_epoch(
    u: &mut EpochUnit<'_>,
    traces: &[ThreadTrace],
    horizon: u64,
    image: &CoherenceImage,
    geometry: PageGeometry,
) {
    let ds = &mut *u.ds;
    if ds.work.is_empty() {
        return;
    }
    let mut work = std::mem::take(&mut ds.work);
    // Keyed by local worklist index: the list is ascending by thread id,
    // so clock ties break toward the lowest thread id, as in the serial
    // engine's global queue.
    let mut runq = RunQueue::new(work.len());
    for (i, (_, ctx)) in work.iter().enumerate() {
        runq.push(i, u.clocks[ctx.core - u.base]);
    }
    while let Some((i, _)) = runq.peek() {
        let limit = runq.second_min_clock().min(horizon - 1);
        let (tid, ctx) = &mut work[i];
        let tid = *tid;
        let local = ctx.core - u.base;
        let trace = traces[tid].words();
        let mut p = ctx.pos;
        let mut clk = u.clocks[local];
        while ctx.state == ThreadState::Running && clk <= limit {
            let Some(&word) = trace.get(p) else {
                ctx.state = ThreadState::Done;
                break;
            };
            p += 1;
            match word.unpack() {
                TraceEvent::Compute(c) => {
                    let scaled = ctx.jitter.scale(c);
                    ds.prof_compute_cycles += scaled;
                    ds.prof_compute_calls += 1;
                    clk += scaled;
                }
                TraceEvent::Barrier => {
                    ctx.state = ThreadState::AtBarrier;
                }
                TraceEvent::Access { vaddr, op, kind } => {
                    ds.accesses += 1;
                    let mut cycles = 0u64;
                    let translation = match u.mmus[local].lookup(vaddr) {
                        Some(tr) => tr,
                        None => {
                            let vpn = vaddr.vpn(geometry);
                            ds.misses.push(MissRec {
                                cycle: clk,
                                core: ctx.core,
                                thread: tid,
                                vpn: vpn.0,
                                is_data: kind == AccessKind::Data,
                            });
                            u.mmus[local].fill(vaddr, &mut ds.pt)
                        }
                    };
                    cycles += translation.cycles;
                    let out = ds.dom.access_windowed(
                        ctx.core,
                        translation.paddr.0,
                        op,
                        kind,
                        image,
                        &mut ds.msgs,
                    );
                    cycles += out.cycles;
                    ds.prof_tlb_cycles += translation.cycles;
                    ds.prof_cache_cycles += out.cycles;
                    ds.prof_access_calls += 1;
                    clk += cycles;
                }
            }
            if p == trace.len() && ctx.state == ThreadState::Running {
                ctx.state = ThreadState::Done;
            }
        }
        ctx.pos = p;
        u.clocks[local] = clk;
        if ctx.state == ThreadState::Running && clk < horizon {
            runq.advance_min(clk);
        } else {
            // Parked at the horizon, blocked at a barrier, or done.
            runq.pop_min();
        }
    }
    ds.work = work;
}

pub(crate) fn run_windowed<const OBSERVED: bool>(
    cfg: &SimConfig,
    topo: &Topology,
    traces: &[ThreadTrace],
    mapping: &Mapping,
    hooks: &mut dyn SimHooks,
    rec: &Recorder,
    plan: ExecPlan,
) -> Result<RunStats, String> {
    let lag = plan.lag;
    let shards = plan.shards;
    debug_assert!(
        lag > 0 && shards >= 1,
        "dispatch guarantees a windowed plan"
    );
    if cfg.numa.is_some() {
        return Err(
            "the windowed engine does not model NUMA page homes; run serially (lag 0)".to_string(),
        );
    }
    if cfg.hierarchy.num_l2() > 64 {
        return Err(format!(
            "the windowed engine's coherence image packs holders into a u64 bitmap, \
             so it models at most 64 L2 groups; this machine has {}",
            cfg.hierarchy.num_l2()
        ));
    }
    let inert = hooks.is_inert();
    if hooks.needs_inline_access() {
        return Err(
            "this hook set needs inline per-access callbacks, which the windowed engine \
             cannot provide; run serially (lag 0)"
                .to_string(),
        );
    }

    let n_threads = traces.len();
    let n_cores = topo.num_cores();
    assert_eq!(
        mapping.num_threads(),
        n_threads,
        "mapping covers {} threads but {} traces were given",
        mapping.num_threads(),
        n_threads
    );
    assert_eq!(
        cfg.hierarchy.num_cores(),
        n_cores,
        "hierarchy configured for {} cores but topology has {}",
        cfg.hierarchy.num_cores(),
        n_cores
    );
    assert!(
        barriers_consistent(traces),
        "threads disagree on barrier count; the workload would deadlock"
    );

    // The per-core arrays are sliced per domain, so L2 groups must cover
    // the cores as consecutive contiguous ranges in group order.
    let n_domains = cfg.hierarchy.num_l2();
    let mut domain_base = Vec::with_capacity(n_domains);
    let mut domain_len = Vec::with_capacity(n_domains);
    let mut core_domain = vec![0usize; n_cores];
    let mut next = 0usize;
    for (g, group) in cfg.hierarchy.groups.iter().enumerate() {
        for (i, &c) in group.cores.iter().enumerate() {
            if c != next + i {
                return Err(format!(
                    "the windowed engine needs contiguous ascending L2 groups; \
                     group {g} breaks the pattern at core {c}"
                ));
            }
            core_domain[c] = g;
        }
        domain_base.push(next);
        domain_len.push(group.cores.len());
        next += group.cores.len();
    }

    let mut thread_on_core = mapping.threads_on_cores(n_cores);
    let mut ctxs: Vec<Option<ThreadCtx>> = (0..n_threads)
        .map(|t| {
            Some(ThreadCtx {
                core: mapping.core_of(t),
                pos: 0,
                state: if traces[t].is_empty() {
                    ThreadState::Done
                } else {
                    ThreadState::Running
                },
                jitter: ThreadJitter::new(cfg.jitter, t),
            })
        })
        .collect();

    let mut clocks = vec![0u64; n_cores];
    let mut mmus: Vec<Mmu> = (0..n_cores)
        .map(|_| Mmu::new(cfg.mmu, cfg.geometry))
        .collect();
    let mut domains: Vec<DomainState> = (0..n_domains)
        .map(|g| DomainState {
            dom: MemoryHierarchy::for_groups(cfg.hierarchy.clone(), g..g + 1),
            pt: PageTable::with_alloc(cfg.geometry, FrameAlloc::VpnKeyed),
            msgs: Vec::new(),
            misses: Vec::new(),
            work: Vec::new(),
            accesses: 0,
            prof_compute_cycles: 0,
            prof_compute_calls: 0,
            prof_tlb_cycles: 0,
            prof_cache_cycles: 0,
            prof_access_calls: 0,
        })
        .collect();

    let mut image = CoherenceImage::new();
    let mut queue: DelayedQueue<CohMsg> = DelayedQueue::new(n_domains);
    let mut delivered: Vec<(u32, CohMsg)> = Vec::new();

    let mut next_tick = cfg.tick_period;
    let mut detection_overhead = 0u64;
    let mut detection_searches = 0u64;
    let mut barriers_crossed = 0u64;
    let mut migrations = 0u64;
    let mut epochs = 0u64;
    let mut msgq_delivered = 0u64;

    loop {
        if running_min(&ctxs, &clocks).is_none() {
            // Nobody runnable: everyone is done, or every live thread
            // waits at the barrier — release it (serial engine's logic).
            if ctxs.iter().flatten().all(|c| c.state == ThreadState::Done) {
                break;
            }
            let release_at = ctxs
                .iter()
                .flatten()
                .filter(|c| c.state == ThreadState::AtBarrier)
                .map(|c| clocks[c.core])
                .max()
                .expect("at least one thread waits at the barrier")
                + cfg.barrier_cost;
            for ctx in ctxs.iter_mut().flatten() {
                if ctx.state == ThreadState::AtBarrier {
                    clocks[ctx.core] = release_at;
                    ctx.state = ThreadState::Running;
                }
            }
            barriers_crossed += 1;
            if OBSERVED {
                rec.record_barrier(barriers_crossed - 1, release_at);
                rec.prof_charge(ProfId::Barrier, cfg.barrier_cost);
            }
            let requested = if inert {
                None
            } else {
                let view = TlbView::new(&mmus, &thread_on_core);
                hooks.on_barrier(barriers_crossed - 1, &view)
            };
            if let Some(new_map) = requested {
                assert_eq!(
                    new_map.num_threads(),
                    n_threads,
                    "remapper returned a mapping for {} threads, run has {}",
                    new_map.num_threads(),
                    n_threads
                );
                let mut new_clocks = clocks.clone();
                for (t, slot) in ctxs.iter_mut().enumerate() {
                    let ctx = slot.as_mut().expect("contexts parked at barriers");
                    let oc = ctx.core;
                    let nc = new_map.core_of(t);
                    assert!(nc < n_cores, "remapper core {nc} out of range");
                    if ctx.state == ThreadState::Done {
                        ctx.core = nc;
                        continue;
                    }
                    if oc != nc {
                        migrations += 1;
                        if OBSERVED {
                            rec.record_migration(t, oc, nc);
                            rec.prof_charge(ProfId::Migration, cfg.migration_cost);
                        }
                        mmus[oc].flush();
                        mmus[nc].flush();
                        new_clocks[nc] = release_at + cfg.migration_cost;
                    }
                    ctx.core = nc;
                }
                clocks = new_clocks;
                thread_on_core = new_map.threads_on_cores(n_cores);
            }
            continue;
        }

        // Fire ticks that became due at the global minimum running clock
        // (epoch-granularity analogue of the serial in-batch tick loop);
        // the overhead lands on the minimum core, which recomputes the
        // minimum for the next due check.
        if let Some(period) = cfg.tick_period {
            let mut tick_at = next_tick.expect("next_tick set when period set");
            while let Some((min_clk, min_core)) = running_min(&ctxs, &clocks) {
                if tick_at > min_clk {
                    break;
                }
                if OBSERVED {
                    rec.set_cycle(tick_at);
                    rec.inc(CounterId::Ticks);
                }
                let overhead = if inert {
                    0
                } else {
                    let view = TlbView::new(&mmus, &thread_on_core);
                    hooks.on_tick(tick_at, &view)
                };
                if OBSERVED {
                    rec.prof_charge(ProfId::TickDetectScan, overhead);
                }
                if overhead > 0 {
                    detection_overhead += overhead;
                    detection_searches += 1;
                    clocks[min_core] += overhead;
                }
                tick_at += period;
            }
            next_tick = Some(tick_at);
        }
        let Some((m, _)) = running_min(&ctxs, &clocks) else {
            continue;
        };
        let horizon = m.saturating_add(lag);

        // Hand every running thread below the horizon to its domain.
        for (t, slot) in ctxs.iter_mut().enumerate() {
            let due = slot
                .as_ref()
                .is_some_and(|c| c.state == ThreadState::Running && clocks[c.core] < horizon);
            if due {
                let ctx = slot.take().expect("checked above");
                domains[core_domain[ctx.core]].work.push((t, ctx));
            }
        }
        epochs += 1;

        // Slice the per-core arrays along domain boundaries and execute
        // the epoch — inline for one shard, over scoped OS threads
        // otherwise. Chunking domains over shards is pure distribution:
        // each domain's evolution is a function of its own inputs only.
        {
            let mut units: Vec<EpochUnit<'_>> = Vec::with_capacity(n_domains);
            let mut clocks_rest: &mut [u64] = &mut clocks;
            let mut mmus_rest: &mut [Mmu] = &mut mmus;
            for (g, ds) in domains.iter_mut().enumerate() {
                let (c, cr) = clocks_rest.split_at_mut(domain_len[g]);
                let (mm, mr) = mmus_rest.split_at_mut(domain_len[g]);
                clocks_rest = cr;
                mmus_rest = mr;
                units.push(EpochUnit {
                    ds,
                    clocks: c,
                    mmus: mm,
                    base: domain_base[g],
                });
            }
            let geometry = cfg.geometry;
            let image_ref = &image;
            if shards == 1 {
                for u in &mut units {
                    run_epoch(u, traces, horizon, image_ref, geometry);
                }
            } else {
                let chunk = units.len().div_ceil(shards);
                std::thread::scope(|s| {
                    for chunk_units in units.chunks_mut(chunk) {
                        s.spawn(move || {
                            for u in chunk_units {
                                run_epoch(u, traces, horizon, image_ref, geometry);
                            }
                        });
                    }
                });
            }
        }

        // Simulated slack at this epoch's barrier: how far each working
        // domain stopped short of the horizon.
        if OBSERVED {
            let mut slack = 0u64;
            for ds in &domains {
                if ds.work.is_empty() {
                    continue;
                }
                let last = ds
                    .work
                    .iter()
                    .map(|(_, c)| clocks[c.core])
                    .max()
                    .expect("non-empty worklist")
                    .min(horizon);
                slack += horizon - last;
            }
            rec.prof_charge(ProfId::ShardBarrier, slack);
        }

        // Reclaim the worklists.
        for ds in &mut domains {
            for (t, ctx) in ds.work.drain(..) {
                ctxs[t] = Some(ctx);
            }
        }

        // Exchange coherence: every message rides the delayed queue with
        // delivery at the horizon, so the applied order is the queue's
        // total order (deliver_cycle, sender domain, per-sender seq) —
        // independent of which OS thread produced what when.
        for (g, ds) in domains.iter_mut().enumerate() {
            for msg in ds.msgs.drain(..) {
                queue.send(horizon, g as u32, msg);
            }
        }
        delivered.clear();
        msgq_delivered += queue.drain_until(horizon, |_, sender, msg| {
            delivered.push((sender, msg));
        });
        // Pass 1: directory deltas; pass 2: remote effects (see CohMsg).
        for (_, msg) in &delivered {
            image.apply_directory(msg);
        }
        for (_, msg) in &delivered {
            image.apply_remote(msg);
            match *msg {
                CohMsg::Demote { line, target } => {
                    let g = target as usize;
                    domains[g].dom.deliver_demote(g, line);
                }
                CohMsg::Invalidate { line, target } => {
                    let g = target as usize;
                    domains[g].dom.deliver_invalidate(g, line);
                }
                _ => {}
            }
        }

        // Replay the epoch's TLB misses in deterministic global order
        // (cycle, then domain, then per-domain execution order) for the
        // recorder and the detection hooks. The view is the post-epoch
        // TLB state — a bounded-lag deviation from the serial inline call.
        if OBSERVED || !inert {
            let mut order: Vec<(u64, usize, usize)> = Vec::new();
            for (g, ds) in domains.iter().enumerate() {
                for (i, mr) in ds.misses.iter().enumerate() {
                    order.push((mr.cycle, g, i));
                }
            }
            order.sort_unstable();
            for (cycle, g, i) in order {
                let mr = domains[g].misses[i];
                if OBSERVED {
                    rec.advance(cycle);
                    rec.record_tlb_miss(mr.core, mr.thread, mr.vpn, mr.is_data);
                }
                if !inert {
                    let kind = if mr.is_data {
                        AccessKind::Data
                    } else {
                        AccessKind::Instr
                    };
                    let overhead = {
                        let view = TlbView::new(&mmus, &thread_on_core);
                        hooks.on_tlb_miss(mr.core, mr.thread, Vpn(mr.vpn), kind, &view)
                    };
                    if overhead > 0 {
                        detection_overhead += overhead;
                        detection_searches += 1;
                        clocks[mr.core] += overhead;
                        if OBSERVED {
                            rec.prof_charge(ProfId::MissDetectScan, overhead);
                        }
                    }
                }
            }
        }
        for ds in &mut domains {
            ds.misses.clear();
        }
    }

    let total_cycles = clocks.iter().copied().max().unwrap_or(0);
    let accesses: u64 = domains.iter().map(|d| d.accesses).sum();
    let mut cache = CacheStats::default();
    for ds in &domains {
        cache.merge(ds.dom.stats());
    }
    if OBSERVED {
        for ds in &domains {
            rec.prof_charge_many(
                ProfId::EngineCompute,
                ds.prof_compute_cycles,
                ds.prof_compute_calls,
            );
            rec.prof_charge_many(ProfId::EngineAccess, 0, ds.prof_access_calls);
            rec.prof_charge_many(ProfId::TlbLookup, ds.prof_tlb_cycles, ds.prof_access_calls);
            rec.prof_charge_many(
                ProfId::CacheAccess,
                ds.prof_cache_cycles,
                ds.prof_access_calls,
            );
        }
        rec.add(CounterId::Accesses, accesses);
        rec.add(CounterId::ShardBarrierWaits, epochs);
        rec.add(CounterId::MsgqDelivered, msgq_delivered);
        rec.finish(total_cycles);
    }

    Ok(RunStats {
        total_cycles,
        core_cycles: clocks,
        tlb: mmus.iter().map(|m| m.tlb_stats()).collect(),
        cache,
        detection_overhead_cycles: detection_overhead,
        detection_searches,
        accesses,
        barriers: barriers_crossed,
        migrations,
        frequency_hz: cfg.frequency_hz,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, simulate_with_plan, DEFAULT_LAG};
    use crate::hooks::NoHooks;
    use tlbmap_mem::VirtAddr;

    /// A sharing-heavy multi-phase workload: threads read and write pages
    /// that overlap across L2 groups, with compute and barriers mixed in.
    fn workload(n_threads: usize, phases: usize) -> Vec<ThreadTrace> {
        (0..n_threads)
            .map(|t| {
                let mut tr = ThreadTrace::new();
                for ph in 0..phases {
                    for i in 0..60u64 {
                        let page = (t as u64 * 7 + i * 3 + ph as u64 * 11) % 23;
                        let addr = VirtAddr(page * 4096 + (i % 8) * 64);
                        if (i + t as u64).is_multiple_of(5) {
                            tr.push(TraceEvent::write(addr));
                        } else {
                            tr.push(TraceEvent::read(addr));
                        }
                        if i % 7 == 0 {
                            tr.push(TraceEvent::Compute(50 + i * 3));
                        }
                    }
                    tr.push(TraceEvent::Barrier);
                }
                tr
            })
            .collect()
    }

    #[test]
    fn single_domain_windowed_matches_serial_exactly() {
        // One L2 group ⇒ no cross-domain traffic, and the per-domain
        // executor is event-for-event the serial batch loop. With a
        // VPN-keyed serial page table the whole RunStats must agree.
        let topo = Topology::new(1, 1, 4);
        let cfg = SimConfig::paper_software_managed(&topo)
            .with_frame_alloc(FrameAlloc::VpnKeyed)
            .with_jitter(7);
        let traces = workload(4, 3);
        let mapping = Mapping::identity(4);
        let serial = simulate(&cfg, &topo, &traces, &mapping, &mut NoHooks);
        for lag in [1u64, 64, DEFAULT_LAG] {
            let windowed = simulate_with_plan(
                &cfg,
                &topo,
                &traces,
                &mapping,
                &mut NoHooks,
                ExecPlan::windowed(1, lag),
            )
            .unwrap();
            assert_eq!(serial, windowed, "diverged at lag {lag}");
        }
    }

    #[test]
    fn shard_count_never_changes_results() {
        // The tentpole's determinism contract: at a fixed lag, any shard
        // count gives identical RunStats (satellite 3's sweep).
        let topo = Topology::harpertown();
        let cfg = SimConfig::paper_software_managed(&topo).with_jitter(3);
        let traces = workload(8, 4);
        let mapping = Mapping::identity(8);
        let baseline = simulate_with_plan(
            &cfg,
            &topo,
            &traces,
            &mapping,
            &mut NoHooks,
            ExecPlan::windowed(1, DEFAULT_LAG),
        )
        .unwrap();
        assert!(baseline.cache.snoop_transactions > 0, "workload must share");
        for shards in [2usize, 4, 8] {
            let sharded = simulate_with_plan(
                &cfg,
                &topo,
                &traces,
                &mapping,
                &mut NoHooks,
                ExecPlan::windowed(shards, DEFAULT_LAG),
            )
            .unwrap();
            assert_eq!(baseline, sharded, "diverged at {shards} shards");
        }
    }

    #[test]
    fn lag_is_part_of_the_semantics() {
        // Different lags legitimately produce different (both valid)
        // trajectories — the contract fixes results per lag, not across.
        let topo = Topology::harpertown();
        let cfg = SimConfig::paper_software_managed(&topo);
        let traces = workload(8, 2);
        let mapping = Mapping::identity(8);
        let run = |lag| {
            simulate_with_plan(
                &cfg,
                &topo,
                &traces,
                &mapping,
                &mut NoHooks,
                ExecPlan::windowed(1, lag),
            )
            .unwrap()
        };
        let narrow = run(1);
        let wide = run(DEFAULT_LAG);
        // Totals stay close (bounded-lag), but cycle-exact equality is
        // not promised across lags.
        assert_eq!(narrow.accesses, wide.accesses);
        assert_eq!(narrow.barriers, wide.barriers);
    }

    #[test]
    fn windowed_reruns_are_deterministic() {
        let topo = Topology::harpertown();
        let cfg = SimConfig::paper_software_managed(&topo).with_jitter(11);
        let traces = workload(8, 3);
        let mapping = Mapping::identity(8);
        let run = || {
            simulate_with_plan(
                &cfg,
                &topo,
                &traces,
                &mapping,
                &mut NoHooks,
                ExecPlan::sharded(4),
            )
            .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn tlb_miss_hooks_replay_with_overhead() {
        struct Expensive(u64);
        impl SimHooks for Expensive {
            fn on_tlb_miss(
                &mut self,
                _: usize,
                _: usize,
                _: Vpn,
                _: AccessKind,
                _: &TlbView<'_>,
            ) -> u64 {
                self.0 += 1;
                1_000
            }
        }
        let topo = Topology::harpertown();
        let cfg = SimConfig::paper_software_managed(&topo);
        let traces = workload(8, 2);
        let mapping = Mapping::identity(8);
        let mut hook = Expensive(0);
        let stats = simulate_with_plan(
            &cfg,
            &topo,
            &traces,
            &mapping,
            &mut hook,
            ExecPlan::sharded(2),
        )
        .unwrap();
        assert!(hook.0 > 0, "workload must miss the TLB");
        assert_eq!(stats.detection_searches, hook.0);
        assert_eq!(stats.detection_overhead_cycles, hook.0 * 1_000);
    }

    #[test]
    fn barrier_migration_works_windowed() {
        struct SwapOnce(bool);
        impl SimHooks for SwapOnce {
            fn on_barrier(&mut self, _idx: u64, _view: &TlbView<'_>) -> Option<Mapping> {
                if self.0 {
                    None
                } else {
                    self.0 = true;
                    Some(Mapping::new(vec![4, 1]))
                }
            }
        }
        let topo = Topology::harpertown();
        let mut cfg = SimConfig::paper_software_managed(&topo);
        cfg.barrier_cost = 0;
        cfg.migration_cost = 5_000;
        let traces: Vec<ThreadTrace> = vec![
            vec![
                TraceEvent::read(VirtAddr(9 * 4096)),
                TraceEvent::Barrier,
                TraceEvent::read(VirtAddr(9 * 4096)),
            ]
            .into(),
            vec![TraceEvent::Barrier, TraceEvent::Compute(1)].into(),
        ];
        let stats = simulate_with_plan(
            &cfg,
            &topo,
            &traces,
            &Mapping::new(vec![0, 1]),
            &mut SwapOnce(false),
            ExecPlan::sharded(2),
        )
        .unwrap();
        assert_eq!(stats.migrations, 1);
        assert!(stats.core_cycles[4] >= 5_000);
        // Cold TLB on the new core: the page re-misses after migration.
        assert_eq!(stats.tlb_misses(), 2);
    }

    #[test]
    fn invalid_plans_are_rejected() {
        let topo = Topology::harpertown();
        let cfg = SimConfig::paper_software_managed(&topo);
        let traces = workload(8, 1);
        let mapping = Mapping::identity(8);
        let err = simulate_with_plan(
            &cfg,
            &topo,
            &traces,
            &mapping,
            &mut NoHooks,
            ExecPlan { shards: 4, lag: 0 },
        )
        .unwrap_err();
        assert!(err.contains("lag"), "unexpected error: {err}");
        let err = simulate_with_plan(
            &cfg,
            &topo,
            &traces,
            &mapping,
            &mut NoHooks,
            ExecPlan { shards: 0, lag: 1 },
        )
        .unwrap_err();
        assert!(err.contains("shards"), "unexpected error: {err}");

        let numa_cfg = cfg
            .clone()
            .with_numa(crate::numa::NumaPolicy::FirstTouch, 150);
        let err = simulate_with_plan(
            &numa_cfg,
            &topo,
            &traces,
            &mapping,
            &mut NoHooks,
            ExecPlan::sharded(2),
        )
        .unwrap_err();
        assert!(err.contains("NUMA"), "unexpected error: {err}");

        struct InlineTracer;
        impl SimHooks for InlineTracer {
            fn needs_inline_access(&self) -> bool {
                true
            }
        }
        let err = simulate_with_plan(
            &cfg,
            &topo,
            &traces,
            &mapping,
            &mut InlineTracer,
            ExecPlan::sharded(2),
        )
        .unwrap_err();
        assert!(err.contains("inline"), "unexpected error: {err}");

        // More L2 groups than the image's u64 holder bitmaps can name.
        let wide = Topology::new(1, 80, 1);
        let err = simulate_with_plan(
            &SimConfig::paper_software_managed(&wide),
            &wide,
            &workload(1, 1),
            &Mapping::identity(1),
            &mut NoHooks,
            ExecPlan::windowed(1, DEFAULT_LAG),
        )
        .unwrap_err();
        assert!(err.contains("64 L2 groups"), "unexpected error: {err}");
    }

    #[test]
    fn scaled_topologies_run_windowed() {
        // The A/B study's shape: larger machines, threads = cores.
        let topo = Topology::scaled(64).unwrap();
        let cfg = SimConfig::paper_software_managed(&topo);
        let traces = workload(64, 2);
        let mapping = Mapping::identity(64);
        let a = simulate_with_plan(
            &cfg,
            &topo,
            &traces,
            &mapping,
            &mut NoHooks,
            ExecPlan::windowed(1, DEFAULT_LAG),
        )
        .unwrap();
        let b = simulate_with_plan(
            &cfg,
            &topo,
            &traces,
            &mapping,
            &mut NoHooks,
            ExecPlan::windowed(4, DEFAULT_LAG),
        )
        .unwrap();
        assert_eq!(a, b);
        assert!(a.accesses > 0 && a.cache.snoop_transactions > 0);
    }
}
