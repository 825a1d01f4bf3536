//! Layer tapes: what the MMU/TLB and cache-hierarchy layers received
//! during one serial run, recorded through `SimHooks::on_access`, and
//! their replay through fresh layer instances for host time per access.
//!
//! The same hook times every detector call (`on_tlb_miss`/`on_tick`)
//! into the wrapped detector, which gives the `core` layer's numbers.

use crate::report::Outcome;
use std::hint::black_box;
use std::time::{Duration, Instant};
use tlbmap_cache::{CacheStats, MemoryHierarchy};
use tlbmap_mem::{Mmu, PageTable, TlbStats, Vpn};
use tlbmap_sim::{
    AccessKind, Mapping, MemOp, PackedEvent, RunStats, SimConfig, SimHooks, ThreadTrace, TlbView,
    TraceEvent, VirtAddr,
};

/// Every access of one run, in global execution order.
#[derive(Debug, Default)]
pub struct Tape {
    /// The core that issued each access.
    pub cores: Vec<u8>,
    /// The access itself (address, load/store, data/instruction).
    pub words: Vec<PackedEvent>,
}

impl Tape {
    pub fn len(&self) -> usize {
        self.words.len()
    }
}

/// Records the tape and times the wrapped detector's hooks.
pub struct TapeHooks<'a, H> {
    pub inner: H,
    traces: &'a [ThreadTrace],
    /// Next unread word of each thread's trace: `on_access` carries no
    /// access kind, so it is read back from the trace itself.
    cursor: Vec<usize>,
    pub tape: Tape,
    /// Accesses whose address or op disagreed with the thread's trace.
    pub mismatches: u64,
    /// Detector calls timed, and the host time spent inside them.
    pub detector_calls: u64,
    pub detector_time: Duration,
}

impl<'a, H: SimHooks> TapeHooks<'a, H> {
    pub fn new(inner: H, traces: &'a [ThreadTrace]) -> Self {
        let accesses = traces.iter().map(ThreadTrace::len).sum();
        TapeHooks {
            inner,
            traces,
            cursor: vec![0; traces.len()],
            tape: Tape {
                cores: Vec::with_capacity(accesses),
                words: Vec::with_capacity(accesses),
            },
            mismatches: 0,
            detector_calls: 0,
            detector_time: Duration::ZERO,
        }
    }

    fn timed<R>(&mut self, call: impl FnOnce(&mut H) -> R) -> R {
        let start = Instant::now();
        let r = call(&mut self.inner);
        self.detector_time += start.elapsed();
        self.detector_calls += 1;
        r
    }
}

impl<H: SimHooks> SimHooks for TapeHooks<'_, H> {
    fn needs_inline_access(&self) -> bool {
        true
    }

    fn on_access(&mut self, core: usize, thread: usize, vaddr: VirtAddr, op: MemOp) {
        let words = self.traces[thread].words();
        let mut p = self.cursor[thread];
        let kind = loop {
            let Some(word) = words.get(p) else {
                self.mismatches += 1;
                return;
            };
            p += 1;
            if let TraceEvent::Access {
                vaddr: v,
                op: o,
                kind,
            } = word.unpack()
            {
                if v != vaddr || o != op {
                    self.mismatches += 1;
                }
                break kind;
            }
        };
        self.cursor[thread] = p;
        self.tape
            .cores
            .push(u8::try_from(core).expect("tapes cover at most 256 cores"));
        self.tape
            .words
            .push(PackedEvent::pack(TraceEvent::Access { vaddr, op, kind }));
    }

    fn on_tlb_miss(
        &mut self,
        core: usize,
        thread: usize,
        vpn: Vpn,
        kind: AccessKind,
        view: &TlbView<'_>,
    ) -> u64 {
        if self.inner.is_inert() {
            return 0;
        }
        self.timed(|h| h.on_tlb_miss(core, thread, vpn, kind, view))
    }

    fn on_tick(&mut self, now: u64, view: &TlbView<'_>) -> u64 {
        if self.inner.is_inert() {
            return 0;
        }
        self.timed(|h| h.on_tick(now, view))
    }

    fn on_barrier(&mut self, barrier_idx: u64, view: &TlbView<'_>) -> Option<Mapping> {
        self.inner.on_barrier(barrier_idx, view)
    }
}

/// The MMU/TLB layer's replay: physical addresses for the cache replay,
/// the per-core TLB counters, and the host time of the replay loop.
pub struct MemReplay {
    pub paddrs: Vec<u64>,
    pub tlb: Vec<TlbStats>,
    pub elapsed: Duration,
}

/// Replay `tape` through fresh per-core MMUs and a fresh page table,
/// exactly as the serial engine drives them: lookup, and fill on a miss.
pub fn replay_mem(tape: &Tape, cfg: &SimConfig, n_cores: usize) -> MemReplay {
    let mut page_table = PageTable::with_alloc(cfg.geometry, cfg.frame_alloc);
    let mut mmus: Vec<Mmu> = (0..n_cores)
        .map(|_| Mmu::new(cfg.mmu, cfg.geometry))
        .collect();
    let mut paddrs = Vec::with_capacity(tape.len());
    let start = Instant::now();
    for (&core, word) in tape.cores.iter().zip(&tape.words) {
        let TraceEvent::Access { vaddr, .. } = word.unpack() else {
            unreachable!("tapes hold accesses only");
        };
        let mmu = &mut mmus[usize::from(core)];
        let translation = match mmu.lookup(vaddr) {
            Some(t) => t,
            None => mmu.fill(vaddr, &mut page_table),
        };
        paddrs.push(translation.paddr.0);
    }
    let elapsed = start.elapsed();
    MemReplay {
        paddrs,
        tlb: mmus.iter().map(Mmu::tlb_stats).collect(),
        elapsed,
    }
}

/// Replay `tape`, translated to `paddrs`, through a fresh cache
/// hierarchy; returns its counters and the host time of the loop.
pub fn replay_cache(tape: &Tape, paddrs: &[u64], cfg: &SimConfig) -> (CacheStats, Duration) {
    let mut hierarchy = MemoryHierarchy::new(cfg.hierarchy.clone());
    let start = Instant::now();
    for ((&core, word), &paddr) in tape.cores.iter().zip(&tape.words).zip(paddrs) {
        let TraceEvent::Access { op, kind, .. } = word.unpack() else {
            unreachable!("tapes hold accesses only");
        };
        black_box(hierarchy.access(usize::from(core), paddr, op, kind));
    }
    let elapsed = start.elapsed();
    (*hierarchy.stats(), elapsed)
}

/// Replay `tape` through the MMU/TLB and cache layers, fail the run
/// unless the replayed counters equal the recorded run's exactly, and
/// report both layers plus the engine's self time: the traced run's wall
/// time minus the layers' replay times and the detector time. Also fail
/// it unless the tape holds every access of the run, in trace order.
pub fn report_layers<H>(
    out: &mut Outcome,
    hooks: &TapeHooks<'_, H>,
    cfg: &SimConfig,
    run: &RunStats,
    run_wall: Duration,
) {
    let tape = &hooks.tape;
    out.check(
        hooks.mismatches == 0 && tape.len() as u64 == run.accesses,
        || {
            format!(
                "tape disagrees with the traces: {} mismatches, {} of {} accesses",
                hooks.mismatches,
                tape.len(),
                run.accesses
            )
        },
    );
    let mem = replay_mem(tape, cfg, run.tlb.len());
    out.check(mem.tlb == run.tlb, || {
        "TLB counters replayed from the tape differ from the run's".to_string()
    });
    let (cache, cache_time) = replay_cache(tape, &mem.paddrs, cfg);
    out.check(cache == run.cache, || {
        format!(
            "cache counters replayed from the tape differ from the run's: {cache:?} vs {:?}",
            run.cache
        )
    });
    let accesses = tape.len().max(1) as f64;
    out.set(
        "mem.ns_per_access",
        mem.elapsed.as_nanos() as f64 / accesses,
    );
    out.set("mem.tlb_miss_ratio", run.tlb_miss_rate());
    out.set(
        "cache.ns_per_access",
        cache_time.as_nanos() as f64 / accesses,
    );
    let l2 = (run.cache.l2_hits + run.cache.l2_misses).max(1);
    out.set(
        "cache.l2_miss_ratio",
        run.cache.l2_misses as f64 / l2 as f64,
    );
    out.set("cache.invalidations", run.cache.invalidations as f64);
    out.set("cache.snoops", run.cache.snoop_transactions as f64);
    let layers = mem.elapsed + cache_time + hooks.detector_time;
    out.set(
        "sim.engine.self_s",
        run_wall.as_secs_f64() - layers.as_secs_f64(),
    );
}
