//! The engine: one coordinator over *domains*, each run by one batch
//! executor.
//!
//! A domain owns a contiguous range of cores (clocks, MMUs, run queue), a
//! page table and a [`MemoryHierarchy`] over its L2 groups. In each
//! **epoch** every domain runs its threads smallest-clock-first up to the
//! epoch's horizon; the coordinator then releases barriers, remaps and
//! migrates threads, and settles what the domains deferred.
//! [`ExecPlan::lag`] picks the partition:
//!
//! * `lag == 0` — one domain spanning the machine, with an unbounded
//!   horizon (an epoch ends when every thread blocks at a barrier or
//!   finishes). It sees every MMU, so hooks, recorder probes, ticks and
//!   NUMA page homes all run inline, in serial order: the exact serial
//!   engine.
//! * `lag > 0` — one domain per L2 group, horizon `m + lag` for `m` the
//!   minimum running clock. A domain sees other groups through a frozen
//!   [`CoherenceImage`], sends its effects on them as [`CohMsg`]s and logs
//!   its TLB misses; at the barrier closing the epoch the messages apply
//!   straight from the domains' logs in `(sender domain, send order)`,
//!   the misses replay through the hooks, and due ticks fire. Domains share
//!   nothing during an epoch, so the shard count (OS threads the domains
//!   are chunked over) never changes a result, and CI gates on that.
//!   Deviations from the serial engine are bounded by `lag` cycles (see
//!   DESIGN.md §16): stale remote residency, miss hooks seeing post-fill
//!   TLBs, epoch-granular ticks, and per-domain [`FrameAlloc::VpnKeyed`]
//!   page tables.
//!
//! The executor meets the observation points through a compile-time
//! [`Mode`] ([`Inline`] or [`PerGroup`]): the per-event loop has no mode
//! branch.

use crate::config::SimConfig;
use crate::engine::ExecPlan;
use crate::hooks::{SimHooks, TlbView};
use crate::jitter::ThreadJitter;
use crate::mapping::Mapping;
use crate::numa::PageHomes;
use crate::sched::RunQueue;
use crate::stats::RunStats;
use crate::topology::Topology;
use crate::trace::{barriers_consistent, ThreadTrace, TraceEvent};
use tlbmap_cache::{AccessKind, CacheStats, CohMsg, CoherenceImage, MemOp, MemoryHierarchy};
use tlbmap_mem::{FrameAlloc, Mmu, PageGeometry, PageTable, Translation, VirtAddr, Vpn};
use tlbmap_obs::{CounterId, ProfId, Recorder};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadState {
    Running,
    AtBarrier,
    Done,
}

/// Per-thread execution context, moved into a domain's worklist for the
/// epochs the thread runs in and parked with the coordinator otherwise.
struct ThreadCtx {
    /// Core the thread is pinned to (changes only at barrier migrations).
    core: usize,
    /// Trace read position.
    pos: usize,
    state: ThreadState,
    /// The thread's own jitter stream, whichever domain or shard runs it.
    jitter: ThreadJitter,
}

/// One access, as the executor hands it to a [`Mode`].
#[derive(Debug, Clone, Copy)]
struct Access {
    core: usize,
    thread: usize,
    vaddr: VirtAddr,
    op: MemOp,
    kind: AccessKind,
}

/// Everything one domain owns across the run, besides its slices of the
/// per-core clock and MMU arrays.
struct DomainState {
    /// First core of the domain's contiguous core range.
    base: usize,
    /// The domain's slice of the hierarchy: the whole machine or one group.
    dom: MemoryHierarchy,
    /// The page table; per-group domains hold [`FrameAlloc::VpnKeyed`]
    /// replicas, which derive identical translations without coordinating.
    pt: PageTable,
    /// Threads executing here this epoch, ascending thread id.
    work: Vec<(usize, ThreadCtx)>,
    accesses: u64,
}

/// How a domain's executor meets the engine's observation points.
trait Mode {
    /// Before each event, at the running clock.
    fn event(&mut self, _clk: u64) {}
    /// A `Compute` event of `cycles` (jitter applied).
    fn compute(&mut self, cycles: u64);
    /// Every access, before translation.
    fn access(&mut self, _a: Access) {}
    /// A TLB miss at `clk`, before its fill. Returns the cycles it costs.
    fn tlb_miss(&mut self, mmus: &[Mmu], clk: u64, a: Access, vpn: Vpn) -> u64;
    /// Perform the translated access; returns its cycles plus `tr`'s.
    fn serve(&mut self, dom: &mut MemoryHierarchy, a: Access, tr: Translation) -> u64;
    /// After each event: fire the ticks due by `clk`, adding their cost.
    fn after_event(&mut self, _mmus: &[Mmu], _clk: &mut u64) {}
}

/// Every observation point runs inline. The spanning domain's [`Mode`] —
/// it sees every MMU — and the coordinator's caller of the hooks at epoch
/// barriers.
struct Inline<'a, const OBSERVED: bool> {
    hooks: &'a mut dyn SimHooks,
    /// An inert hook set is never called: the skipped bodies would observe
    /// nothing and charge zero cycles.
    inert: bool,
    rec: &'a Recorder,
    thread_on_core: Vec<Option<usize>>,
    /// NUMA page homes (`None` on a UMA machine).
    homes: Option<PageHomes>,
    topo: &'a Topology,
    geometry: PageGeometry,
    period: u64,
    /// When the next tick is due; `u64::MAX` (never) without a period.
    next_tick: u64,
    /// Detection cycles charged and searches run.
    overhead: u64,
    searches: u64,
}

impl<const OBSERVED: bool> Inline<'_, OBSERVED> {
    /// Fire the periodic (HM) interrupt due at `next_tick`. Returns the
    /// cycles its search costs.
    fn tick(&mut self, mmus: &[Mmu]) -> u64 {
        let at = self.next_tick;
        self.next_tick += self.period;
        if OBSERVED {
            self.rec.set_cycle(at);
            self.rec.inc(CounterId::Ticks);
        }
        let overhead = if self.inert {
            0
        } else {
            let view = TlbView::new(mmus, &self.thread_on_core);
            self.hooks.on_tick(at, &view)
        };
        if OBSERVED {
            self.rec.prof_charge(ProfId::TickDetectScan, overhead);
        }
        self.charge(overhead)
    }

    fn charge(&mut self, overhead: u64) -> u64 {
        if overhead > 0 {
            self.overhead += overhead;
            self.searches += 1;
        }
        overhead
    }
}

impl<const OBSERVED: bool> Mode for Inline<'_, OBSERVED> {
    fn event(&mut self, clk: u64) {
        // The running core's clock is the global minimum, so it is the
        // best cycle estimate for events and snapshot scheduling.
        if OBSERVED {
            self.rec.advance(clk);
        }
    }

    fn compute(&mut self, cycles: u64) {
        if OBSERVED {
            self.rec.prof_charge(ProfId::EngineCompute, cycles);
        }
    }

    fn access(&mut self, a: Access) {
        if !self.inert {
            self.hooks.on_access(a.core, a.thread, a.vaddr, a.op);
        }
    }

    /// The trap between the miss and its fill (SM).
    fn tlb_miss(&mut self, mmus: &[Mmu], _clk: u64, a: Access, vpn: Vpn) -> u64 {
        if OBSERVED {
            let data = a.kind == AccessKind::Data;
            self.rec.record_tlb_miss(a.core, a.thread, vpn.0, data);
        }
        if self.inert {
            return 0;
        }
        let view = TlbView::new(mmus, &self.thread_on_core);
        let overhead = self.hooks.on_tlb_miss(a.core, a.thread, vpn, a.kind, &view);
        if OBSERVED && overhead > 0 {
            self.rec.prof_charge(ProfId::MissDetectScan, overhead);
        }
        self.charge(overhead)
    }

    fn serve(&mut self, dom: &mut MemoryHierarchy, a: Access, tr: Translation) -> u64 {
        // Only a NUMA run computes the page and chip (`chip_of` divides).
        let (geometry, topo) = (self.geometry, self.topo);
        let home =
            (self.homes.as_mut()).map(|h| h.home_of(a.vaddr.vpn(geometry), topo.chip_of(a.core)));
        let out = dom.access_numa(a.core, tr.paddr.0, a.op, a.kind, home);
        if !self.inert {
            self.hooks.on_access_outcome(a.core, a.thread, &out);
        }
        if OBSERVED {
            self.rec.prof_charge(ProfId::EngineAccess, 0);
            self.rec.prof_charge(ProfId::TlbLookup, tr.cycles);
            self.rec.prof_charge(ProfId::CacheAccess, out.cycles);
        }
        tr.cycles + out.cycles
    }

    fn after_event(&mut self, mmus: &[Mmu], clk: &mut u64) {
        // The interrupt fires against the running core's clock, which
        // tracks global progress. One large `Compute` can jump several
        // periods; every interrupt that became due fires.
        while *clk >= self.next_tick {
            *clk += self.tick(mmus);
        }
    }
}

/// A TLB miss a per-group domain logged, replayed at the epoch barrier.
#[derive(Debug, Clone, Copy)]
struct MissRec {
    cycle: u64,
    vpn: Vpn,
    access: Access,
}

/// What a per-group domain defers to the epoch barrier.
#[derive(Default)]
struct GroupLog {
    /// Outbound coherence messages, in execution (per-sender FIFO) order.
    msgs: Vec<CohMsg>,
    /// TLB misses of the current epoch, in execution order.
    misses: Vec<MissRec>,
    // Profile sums, settled into the recorder once at the end of the run
    // (identical totals to per-event charges).
    prof_compute_cycles: u64,
    prof_compute_calls: u64,
    prof_tlb_cycles: u64,
    prof_cache_cycles: u64,
    prof_access_calls: u64,
}

/// A per-group domain's [`Mode`]. It sees only its own MMUs and the frozen
/// image, so it logs misses and coherence effects for the epoch barrier.
struct PerGroup<'a> {
    image: &'a CoherenceImage,
    log: &'a mut GroupLog,
}

impl Mode for PerGroup<'_> {
    fn compute(&mut self, cycles: u64) {
        self.log.prof_compute_cycles += cycles;
        self.log.prof_compute_calls += 1;
    }

    fn tlb_miss(&mut self, _mmus: &[Mmu], cycle: u64, access: Access, vpn: Vpn) -> u64 {
        self.log.misses.push(MissRec { cycle, vpn, access });
        0
    }

    fn serve(&mut self, dom: &mut MemoryHierarchy, a: Access, tr: Translation) -> u64 {
        let log = &mut *self.log;
        let out = dom.access_windowed(a.core, tr.paddr.0, a.op, a.kind, self.image, &mut log.msgs);
        log.prof_tlb_cycles += tr.cycles;
        log.prof_cache_cycles += out.cycles;
        log.prof_access_calls += 1;
        tr.cycles + out.cycles
    }
}

/// A per-group domain with its slices of the per-core clock and MMU arrays.
type GroupUnit<'a> = (
    &'a mut DomainState,
    &'a mut [u64],
    &'a mut [Mmu],
    PerGroup<'a>,
);

/// The running thread with the smallest `(clock, core)`; `None` when no
/// thread is running.
fn running_min(ctxs: &[Option<ThreadCtx>], clocks: &[u64]) -> Option<(u64, usize)> {
    let running = ctxs
        .iter()
        .flatten()
        .filter(|c| c.state == ThreadState::Running);
    running.map(|c| (clocks[c.core], c.core)).min()
}

/// Execute one domain's worklist up to `horizon`, given the domain's
/// slices of the per-core arrays. Touches nothing else but `mode`, so
/// per-group domains may run on any OS thread, in any real-time order.
///
/// Each batch runs the smallest-clock thread until its clock passes the
/// next runnable thread's (or the horizon), or it blocks or finishes. The
/// batch streams packed 8-byte words, with position and clock in locals.
fn run_epoch<M: Mode>(
    ds: &mut DomainState,
    clocks: &mut [u64],
    mmus: &mut [Mmu],
    mode: &mut M,
    traces: &[ThreadTrace],
    horizon: u64,
    geometry: PageGeometry,
) {
    if ds.work.is_empty() {
        return;
    }
    let mut work = std::mem::take(&mut ds.work);
    // Keyed by local worklist index: the list is ascending by thread id,
    // so clock ties break toward the lowest thread id.
    let mut runq = RunQueue::new(work.len());
    for (i, (_, ctx)) in work.iter().enumerate() {
        runq.push(i, clocks[ctx.core - ds.base]);
    }
    while let Some((i, _)) = runq.peek() {
        let limit = runq.second_min_clock().min(horizon - 1);
        let (thread, ctx) = &mut work[i];
        let (thread, core) = (*thread, ctx.core);
        let local = core - ds.base;
        let trace = traces[thread].words();
        let mut p = ctx.pos;
        let mut clk = clocks[local];
        while ctx.state == ThreadState::Running && clk <= limit {
            let Some(&word) = trace.get(p) else {
                // Trace ended on a barrier: nothing left after release.
                ctx.state = ThreadState::Done;
                break;
            };
            p += 1;
            mode.event(clk);
            match word.unpack() {
                TraceEvent::Compute(c) => {
                    let scaled = ctx.jitter.scale(c);
                    mode.compute(scaled);
                    clk += scaled;
                }
                TraceEvent::Barrier => {
                    ctx.state = ThreadState::AtBarrier;
                }
                TraceEvent::Access { vaddr, op, kind } => {
                    ds.accesses += 1;
                    let a = Access {
                        core,
                        thread,
                        vaddr,
                        op,
                        kind,
                    };
                    mode.access(a);
                    let mut cycles = 0u64;
                    let tr = match mmus[local].lookup(vaddr) {
                        Some(tr) => tr,
                        None => {
                            cycles += mode.tlb_miss(mmus, clk, a, vaddr.vpn(geometry));
                            mmus[local].fill(vaddr, &mut ds.pt)
                        }
                    };
                    clk += cycles + mode.serve(&mut ds.dom, a, tr);
                }
            }
            if p == trace.len() && ctx.state == ThreadState::Running {
                ctx.state = ThreadState::Done;
            }
            mode.after_event(mmus, &mut clk);
        }
        ctx.pos = p;
        clocks[local] = clk;
        if ctx.state == ThreadState::Running && clk < horizon {
            runq.advance_min(clk);
        } else {
            // Parked at the horizon, blocked at a barrier, or done.
            runq.pop_min();
        }
    }
    ds.work = work;
}

/// Run `traces` under `plan` (shard count and lag already validated): the
/// engine behind every `simulate*` entry point.
pub(crate) fn run<const OBSERVED: bool>(
    cfg: &SimConfig,
    topo: &Topology,
    traces: &[ThreadTrace],
    mapping: &Mapping,
    hooks: &mut dyn SimHooks,
    rec: &Recorder,
    plan: ExecPlan,
) -> Result<RunStats, String> {
    let spanning = plan.lag == 0;
    if !spanning {
        if cfg.numa.is_some() {
            return Err(
                "the windowed engine does not model NUMA page homes; run serially (lag 0)"
                    .to_string(),
            );
        }
        if cfg.hierarchy.num_l2() > 64 {
            return Err(format!(
                "the windowed engine's coherence image packs holders into a u64 bitmap, \
                 so it models at most 64 L2 groups; this machine has {}",
                cfg.hierarchy.num_l2()
            ));
        }
        if hooks.needs_inline_access() {
            return Err(
                "this hook set needs inline per-access callbacks, which the windowed engine \
                 cannot provide; run serially (lag 0)"
                    .to_string(),
            );
        }
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

    // The partition. Per-group domains slice the per-core arrays, so the
    // L2 groups must cover the cores as consecutive contiguous ranges in
    // group order. The spanning domain defers nothing, so it keeps no log.
    let domain = |base, dom, alloc| DomainState {
        base,
        dom,
        pt: PageTable::with_alloc(cfg.geometry, alloc),
        work: Vec::new(),
        accesses: 0,
    };
    let mut domains = Vec::new();
    let mut domain_len = Vec::new();
    let mut logs: Vec<GroupLog> = Vec::new();
    let mut core_domain = vec![0usize; n_cores];
    if spanning {
        let dom = MemoryHierarchy::new(cfg.hierarchy.clone());
        domains.push(domain(0, dom, cfg.frame_alloc));
        domain_len.push(n_cores);
    } else {
        let mut next = 0;
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
            let dom = MemoryHierarchy::for_groups(cfg.hierarchy.clone(), g..g + 1);
            domains.push(domain(next, dom, FrameAlloc::VpnKeyed));
            domain_len.push(group.cores.len());
            logs.push(GroupLog::default());
            next += group.cores.len();
        }
    }

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
    let mut inline = Inline::<OBSERVED> {
        inert: hooks.is_inert(),
        hooks,
        rec,
        thread_on_core: mapping.threads_on_cores(n_cores),
        homes: cfg.numa.map(|nc| PageHomes::new(nc.policy, topo.chips)),
        topo,
        geometry: cfg.geometry,
        period: cfg.tick_period.unwrap_or(0),
        next_tick: cfg.tick_period.unwrap_or(u64::MAX),
        overhead: 0,
        searches: 0,
    };

    let mut image = CoherenceImage::new();
    let mut barriers_crossed = 0u64;
    let mut migrations = 0u64;
    let mut epochs = 0u64;
    let mut msgq_delivered = 0u64;

    loop {
        let Some((mut m, mut min_core)) = running_min(&ctxs, &clocks) else {
            // Nobody runnable: everyone is done, or every live thread
            // waits at the barrier — release it.
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

            // Barrier release is the safe migration point: every live
            // thread is parked at the same cycle.
            let requested = if inline.inert {
                None
            } else {
                let view = TlbView::new(&mmus, &inline.thread_on_core);
                inline.hooks.on_barrier(barriers_crossed - 1, &view)
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
                    // Done threads are repositioned for bookkeeping
                    // consistency but pay no migration.
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
                        // The thread's translations stay behind on the old
                        // core and are useless to whoever arrives there;
                        // both TLBs start cold.
                        mmus[oc].flush();
                        mmus[nc].flush();
                        new_clocks[nc] = release_at + cfg.migration_cost;
                    }
                    ctx.core = nc;
                }
                clocks = new_clocks;
                inline.thread_on_core = new_map.threads_on_cores(n_cores);
            }
            continue;
        };

        let horizon = if spanning {
            u64::MAX
        } else {
            // Fire the ticks due by the global minimum running clock (the
            // epoch-granularity analogue of the inline per-event ticks);
            // the overhead lands on the minimum core, so the minimum is
            // recomputed for the next due check.
            while inline.next_tick <= m {
                clocks[min_core] += inline.tick(&mmus);
                (m, min_core) = running_min(&ctxs, &clocks).expect("ticks block no thread");
            }
            m.saturating_add(plan.lag)
        };

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

        if spanning {
            run_epoch(
                &mut domains[0],
                &mut clocks,
                &mut mmus,
                &mut inline,
                traces,
                horizon,
                cfg.geometry,
            );
        } else {
            epochs += 1;
            // Slice the per-core arrays along domain boundaries and run the
            // epoch — inline for one shard, chunked over scoped OS threads
            // otherwise; each domain depends on its own inputs only.
            let mut units = Vec::with_capacity(domains.len());
            let mut clocks_rest: &mut [u64] = &mut clocks;
            let mut mmus_rest: &mut [Mmu] = &mut mmus;
            for ((ds, log), &len) in domains.iter_mut().zip(&mut logs).zip(&domain_len) {
                let (c, cr) = clocks_rest.split_at_mut(len);
                let (mm, mr) = mmus_rest.split_at_mut(len);
                clocks_rest = cr;
                mmus_rest = mr;
                units.push((ds, c, mm, PerGroup { image: &image, log }));
            }
            let geometry = cfg.geometry;
            let chunk = units.len().div_ceil(plan.shards);
            let run_chunk = move |chunk: &mut [GroupUnit<'_>]| {
                for (ds, clocks, mmus, mode) in chunk {
                    run_epoch(ds, clocks, mmus, mode, traces, horizon, geometry);
                }
            };
            if plan.shards == 1 {
                run_chunk(&mut units);
            } else {
                std::thread::scope(|s| {
                    for c in units.chunks_mut(chunk) {
                        s.spawn(move || run_chunk(c));
                    }
                });
            }

            // Simulated slack at this epoch's barrier: how far each
            // working domain stopped short of the horizon.
            if OBSERVED {
                let mut slack = 0u64;
                for ds in &domains {
                    if let Some(last) = ds.work.iter().map(|(_, c)| clocks[c.core]).max() {
                        slack += horizon - last.min(horizon);
                    }
                }
                rec.prof_charge(ProfId::ShardBarrier, slack);
            }
        }

        // Reclaim the worklists.
        for ds in &mut domains {
            for (t, ctx) in ds.work.drain(..) {
                ctxs[t] = Some(ctx);
            }
        }

        // Exchange coherence: every message sent this epoch applies at its
        // closing barrier in (sender domain, send order) — independent of
        // which OS thread produced what when. Pass 1: directory deltas;
        // pass 2: remote effects (see CohMsg).
        for msg in logs.iter().flat_map(|log| &log.msgs) {
            image.apply_directory(msg);
        }
        for log in &mut logs {
            msgq_delivered += log.msgs.len() as u64;
            for msg in log.msgs.drain(..) {
                image.apply_remote(&msg);
                match msg {
                    CohMsg::Demote { line, target } => domains[target as usize]
                        .dom
                        .deliver_demote(target as usize, line),
                    CohMsg::Invalidate { line, target } => domains[target as usize]
                        .dom
                        .deliver_invalidate(target as usize, line),
                    _ => {}
                }
            }
        }

        // Replay the logged TLB misses in deterministic global order (cycle,
        // domain, execution order), seeing post-epoch TLB state — a
        // bounded-lag deviation from the inline trap.
        if OBSERVED || !inline.inert {
            let mut order: Vec<(u64, usize, usize)> = Vec::new();
            for (g, log) in logs.iter().enumerate() {
                for (i, mr) in log.misses.iter().enumerate() {
                    order.push((mr.cycle, g, i));
                }
            }
            order.sort_unstable();
            for (cycle, g, i) in order {
                let MissRec { vpn, access, .. } = logs[g].misses[i];
                if OBSERVED {
                    rec.advance(cycle);
                }
                clocks[access.core] += inline.tlb_miss(&mmus, cycle, access, vpn);
            }
        }
        for log in &mut logs {
            log.misses.clear();
        }
    }

    let total_cycles = clocks.iter().copied().max().unwrap_or(0);
    let accesses: u64 = domains.iter().map(|d| d.accesses).sum();
    let mut cache = CacheStats::default();
    for ds in &domains {
        cache.merge(ds.dom.stats());
    }
    if OBSERVED {
        for log in &logs {
            let calls = log.prof_access_calls;
            let compute = (log.prof_compute_cycles, log.prof_compute_calls);
            rec.prof_charge_many(ProfId::EngineCompute, compute.0, compute.1);
            rec.prof_charge_many(ProfId::EngineAccess, 0, calls);
            rec.prof_charge_many(ProfId::TlbLookup, log.prof_tlb_cycles, calls);
            rec.prof_charge_many(ProfId::CacheAccess, log.prof_cache_cycles, calls);
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
        detection_overhead_cycles: inline.overhead,
        detection_searches: inline.searches,
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
    fn windowed_exchange_is_pinned() {
        use crate::engine::simulate_observed_with_plan;
        use tlbmap_obs::ObsConfig;

        // Four L2 groups on two chips; threads of neighbouring ids sit on
        // different chips, and a 512-line L2 forces capacity misses.
        let topo = Topology::harpertown();
        let mut cfg = SimConfig::paper_software_managed(&topo).with_jitter(3);
        cfg.hierarchy.l2.size_bytes = 64 * 512;
        cfg.hierarchy.l2.ways = 4;
        let traces = workload(8, 4);
        let mapping = Mapping::new(vec![0, 4, 2, 6, 1, 5, 3, 7]);
        let run = |plan| {
            let rec = Recorder::new(ObsConfig::new(8));
            let hooks = &mut NoHooks;
            let stats =
                simulate_observed_with_plan(&cfg, &topo, &traces, &mapping, hooks, &rec, plan);
            let stats = stats.unwrap();
            let unobserved = simulate_with_plan(&cfg, &topo, &traces, &mapping, hooks, plan);
            assert_eq!(stats, unobserved.unwrap(), "observing changed {plan:?}");
            let c = &stats.cache;
            (
                [stats.total_cycles, c.invalidations, c.snoop_transactions],
                [
                    c.l2_cold_misses,
                    c.l2_capacity_misses,
                    c.l2_coherence_misses,
                ],
                c.writebacks,
                [CounterId::MsgqDelivered, CounterId::ShardBarrierWaits].map(|id| rec.counter(id)),
            )
        };

        // (total cycles, invalidations, snoops), (cold, capacity,
        // coherence L2 misses), writebacks, (messages delivered, epochs).
        let pinned = [
            (
                64,
                ([55_941, 325, 1_080], [736, 736, 209], 345, [4_250, 514]),
            ),
            (
                DEFAULT_LAG,
                ([47_631, 42, 1_218], [736, 908, 32], 330, [4_811, 7]),
            ),
        ];
        for (lag, want) in pinned {
            for shards in [1, 2] {
                let got = run(ExecPlan::windowed(shards, lag));
                assert_eq!(got, want, "lag {lag}, {shards} shards");
            }
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
