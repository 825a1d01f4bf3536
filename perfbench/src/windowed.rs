//! `windowed-coherence`: every thread writes its own pages and reads one
//! page of every other thread's, at 128 cores under identity placement,
//! on the windowed engine at the default lag with no hooks.
//!
//! The timed runs use one shard. Two shards need both of a 2-CPU host's
//! CPUs at every epoch, and on a shared host their run time spread by up
//! to 23% between runs against 6% for one shard; the two-shard plan runs
//! outside the timing, as a check and for the traced speed-up. The
//! pattern has no random structure, so the seed does not change the
//! inputs: a seeded placement would, but it moved the host time per run
//! by up to 9% between seeds.

use crate::report::{self, Outcome};
use crate::tape::{self, TapeHooks};
use crate::{repeat_for, timed_setups, Args};
use std::time::{Duration, Instant};
use tlbmap_obs::{CounterId, ObsConfig, Recorder};
use tlbmap_sim::{
    simulate_observed_with_plan, ExecPlan, FrameAlloc, Mapping, NoHooks, RunStats, SimConfig,
    SimHooks, ThreadTrace, Topology, DEFAULT_LAG,
};
use tlbmap_workloads::synthetic;

/// Shards of the timed runs.
const SHARDS: usize = 1;
/// Shards of the parallel plan the timed runs are checked and compared
/// against.
const PARALLEL_SHARDS: usize = 2;
/// Repetitions of each plan in the traced run's speed-up measurement.
const SPEEDUP_REPS: usize = 2;

/// Workload shape: cores, pages per thread, iterations.
fn shape(tiny: bool) -> (usize, u64, usize) {
    if tiny {
        (32, 8, 2)
    } else {
        (128, 40, 6)
    }
}

struct Inputs {
    traces: Vec<ThreadTrace>,
    topo: Topology,
    cfg: SimConfig,
    mapping: Mapping,
    events: u64,
    gen_s: f64,
}

fn setup(args: &Args) -> Inputs {
    let (cores, pages, iters) = shape(args.tiny);
    let start = Instant::now();
    let traces = synthetic::uniform_all_to_all(cores, pages, iters).traces;
    let gen_s = start.elapsed().as_secs_f64();
    let topo = Topology::scaled(cores).expect("a valid scaled topology");
    // The windowed engine always keys frames by VPN; the serial reference
    // uses the same physical layout so the two are comparable.
    let cfg = SimConfig::paper_hardware_managed(&topo)
        .with_tick_period(None)
        .with_frame_alloc(FrameAlloc::VpnKeyed);
    Inputs {
        events: traces.iter().map(|t| t.len() as u64).sum(),
        mapping: Mapping::identity(cores),
        traces,
        topo,
        cfg,
        gen_s,
    }
}

fn windowed(shards: usize) -> ExecPlan {
    ExecPlan::windowed(shards, DEFAULT_LAG)
}

fn sim(
    inp: &Inputs,
    plan: ExecPlan,
    hooks: &mut dyn SimHooks,
    rec: &Recorder,
) -> (RunStats, Duration) {
    let start = Instant::now();
    let stats = simulate_observed_with_plan(
        &inp.cfg,
        &inp.topo,
        &inp.traces,
        &inp.mapping,
        hooks,
        rec,
        plan,
    )
    .expect("the plan is accepted for an unhooked UMA run");
    (stats, start.elapsed())
}

fn plain(inp: &Inputs, plan: ExecPlan) -> (RunStats, Duration) {
    sim(inp, plan, &mut NoHooks, &Recorder::disabled())
}

/// The largest relative deviation, in percent, of the windowed run from
/// the serial engine over total cycles, invalidations, snoops and L2
/// misses.
fn deviation_pct(windowed: &RunStats, serial: &RunStats) -> f64 {
    [
        (windowed.total_cycles, serial.total_cycles),
        (windowed.cache.invalidations, serial.cache.invalidations),
        (
            windowed.cache.snoop_transactions,
            serial.cache.snoop_transactions,
        ),
        (windowed.cache.l2_misses, serial.cache.l2_misses),
    ]
    .iter()
    .map(|&(w, s)| 100.0 * (w as f64 - s as f64).abs() / s.max(1) as f64)
    .fold(0.0, f64::max)
}

pub fn run(args: &Args, out: &mut Outcome) {
    let (inp, setup_s) = timed_setups(|| setup(args));
    let (cores, pages, iters) = shape(args.tiny);
    out.set("setup_s", setup_s);
    out.param("pattern", "uniform_all_to_all");
    out.param("cores", cores);
    out.param("pages_per_thread", pages);
    out.param("iterations", iters);
    out.param("placement", "identity");
    out.param("plan", format!("{:?}", windowed(SHARDS)));
    out.param("events_per_run", inp.events);

    if args.trace {
        traced(&inp, out);
        return;
    }

    // Outside the timed repetitions: the serial reference for the error
    // figure, and, after them, the parallel run every timed run must
    // match exactly. Peak memory is read before the parallel run: its
    // shard threads' allocator arenas grow by a different amount on
    // every run.
    let (serial, _) = plain(&inp, ExecPlan::serial());
    let mut timed: Vec<RunStats> = Vec::new();
    let mut walls = Vec::new();
    repeat_for(args.seconds, 3, || {
        let (stats, wall) = plain(&inp, windowed(SHARDS));
        walls.push(wall.as_secs_f64());
        if timed.last() != Some(&stats) {
            timed.push(stats);
        }
    });
    out.set("peak_rss_mib", report::peak_rss_mib());
    let (parallel, _) = plain(&inp, windowed(PARALLEL_SHARDS));
    out.check(timed == [parallel.clone()], || {
        format!("{SHARDS}-shard counters vary or differ from the {PARALLEL_SHARDS}-shard run's")
    });
    let rates: Vec<f64> = walls.iter().map(|w| inp.events as f64 / w).collect();
    out.set("events_per_s", report::median(&rates));
    out.set("wall_s", report::median(&walls));
    out.note(format!(
        "{} runs; windowed deviation from the serial engine {:.3}%",
        walls.len(),
        deviation_pct(&parallel, &serial)
    ));
}

/// The traced run: the serial reference recorded onto a tape and replayed
/// layer by layer, the shard speed-up, and the epoch coordinator's
/// counters from a recorded windowed run.
fn traced(inp: &Inputs, out: &mut Outcome) {
    out.set("workloads.gen_s", inp.gen_s);

    let mut hooks = TapeHooks::new(NoHooks, &inp.traces);
    let (serial, serial_wall) = sim(inp, ExecPlan::serial(), &mut hooks, &Recorder::disabled());
    tape::report_layers(out, &hooks, &inp.cfg, &serial, serial_wall);
    drop(hooks);

    let mut walls = [Vec::new(), Vec::new()];
    let mut reference: Option<RunStats> = None;
    for _ in 0..SPEEDUP_REPS {
        for (shards, walls) in [SHARDS, PARALLEL_SHARDS].into_iter().zip(&mut walls) {
            let (stats, wall) = plain(inp, windowed(shards));
            walls.push(wall.as_secs_f64());
            match &reference {
                None => reference = Some(stats),
                Some(r) => out.check(stats == *r, || {
                    format!("{shards}-shard counters differ from the {SHARDS}-shard run's")
                }),
            }
        }
    }
    let reference = reference.expect("at least one windowed run");
    let [timed, parallel] = walls.map(|w| report::median(&w));
    out.set("sim.shard.speedup", timed / parallel);
    out.set("sim.shard.error_pct", deviation_pct(&reference, &serial));

    let rec = Recorder::new(ObsConfig::new(inp.traces.len()).with_ring_capacity(64));
    let (stats, wall) = sim(inp, windowed(SHARDS), &mut NoHooks, &rec);
    out.check(stats == reference, || {
        "recording changed the windowed run's counters".to_string()
    });
    out.set(
        "sim.shard.msgq_delivered",
        rec.counter(CounterId::MsgqDelivered) as f64,
    );
    out.set(
        "sim.shard.barrier_waits",
        rec.counter(CounterId::ShardBarrierWaits) as f64,
    );
    out.set(
        "trace.overhead_pct",
        report::overhead_pct(wall, Duration::from_secs_f64(timed)),
    );
}
