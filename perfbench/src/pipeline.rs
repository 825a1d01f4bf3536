//! `paper-pipeline`: the paper's own path, as `tlbmap report` runs it.
//! NPB IS on 16 threads: an SM-detector run under identity placement at
//! the paper's sampling threshold, the hierarchical mapper on the
//! detected matrix, then a run under that mapping and one under a seeded
//! random placement.

use crate::report::{self, Outcome};
use crate::tape::{self, TapeHooks};
use crate::{repeat_for, timed_setups, Args};
use std::time::Instant;
use tlbmap_core::{CommMatrix, SmConfig, SmDetector};
use tlbmap_mapping::{baselines, HierarchicalMapper};
use tlbmap_sim::{
    simulate_with_plan, ExecPlan, Mapping, NoHooks, RunStats, SimConfig, ThreadTrace, Topology,
};
use tlbmap_workloads::{NpbApp, NpbParams, ProblemScale};

const THREADS: usize = 16;
/// Mapper calls timed for `mapping.ns_per_map`.
const MAP_REPS: usize = 20;

struct Inputs {
    traces: Vec<ThreadTrace>,
    topo: Topology,
    /// The detection run's machine (software-managed TLB).
    detect_cfg: SimConfig,
    /// The evaluation runs' machine, as `tlbmap report` configures it.
    eval_cfg: SimConfig,
    random: Mapping,
    /// Trace events (words) per run.
    events: u64,
    /// Host seconds the workload generator took.
    gen_s: f64,
}

fn setup(args: &Args) -> Inputs {
    let params = NpbParams {
        n_threads: THREADS,
        scale: if args.tiny {
            ProblemScale::Small
        } else {
            ProblemScale::Workshop
        },
        seed: args.seed,
    };
    let start = Instant::now();
    let traces = NpbApp::Is.generate(&params).traces;
    let gen_s = start.elapsed().as_secs_f64();
    let topo = Topology::scaled(THREADS).expect("16 cores is a valid scaled topology");
    let events = traces.iter().map(|t| t.len() as u64).sum();
    Inputs {
        detect_cfg: SimConfig::paper_software_managed(&topo),
        eval_cfg: SimConfig::paper_hardware_managed(&topo).with_tick_period(None),
        random: baselines::random(THREADS, &topo, args.seed),
        traces,
        topo,
        events,
        gen_s,
    }
}

/// What one pass of the pipeline produced.
#[derive(PartialEq)]
struct Pass {
    detect: RunStats,
    mapping: Mapping,
    mapped: RunStats,
    random: RunStats,
}

impl Pass {
    fn gain_pct(&self) -> f64 {
        100.0 * (1.0 - self.mapped.total_cycles as f64 / self.random.total_cycles.max(1) as f64)
    }
}

fn sim(
    cfg: &SimConfig,
    inp: &Inputs,
    mapping: &Mapping,
    hooks: &mut dyn tlbmap_sim::SimHooks,
) -> RunStats {
    simulate_with_plan(
        cfg,
        &inp.topo,
        &inp.traces,
        mapping,
        hooks,
        ExecPlan::serial(),
    )
    .expect("the serial plan is always accepted")
}

fn detector() -> SmDetector {
    SmDetector::new(THREADS, SmConfig::paper_default())
}

/// Map the detected matrix and evaluate the mapping against the random
/// placement.
fn finish_pass(inp: &Inputs, detect: RunStats, matrix: &CommMatrix) -> Pass {
    let mapping = HierarchicalMapper::new().map(matrix, &inp.topo);
    let mapped = sim(&inp.eval_cfg, inp, &mapping, &mut NoHooks);
    let random = sim(&inp.eval_cfg, inp, &inp.random, &mut NoHooks);
    Pass {
        detect,
        mapping,
        mapped,
        random,
    }
}

fn pass(inp: &Inputs) -> Pass {
    let mut det = detector();
    let detect = sim(&inp.detect_cfg, inp, &Mapping::identity(THREADS), &mut det);
    finish_pass(inp, detect, det.matrix())
}

fn is_permutation(mapping: &Mapping, n_cores: usize) -> bool {
    let mut seen = vec![false; n_cores];
    mapping
        .as_slice()
        .iter()
        .all(|&c| c < n_cores && !std::mem::replace(&mut seen[c], true))
}

/// The pass's own checks: the mapping places every thread on its own
/// core, and it beats random placement (EXPERIMENTS.md: IS improves
/// under SM mapping).
fn check_pass(out: &mut Outcome, p: &Pass) {
    out.check(is_permutation(&p.mapping, THREADS), || {
        format!("mapping {:?} is not a permutation", p.mapping.as_slice())
    });
    out.check(p.gain_pct() > 0.0, || {
        format!("mapping gain {:.3}% is not positive", p.gain_pct())
    });
}

pub fn run(args: &Args, out: &mut Outcome) {
    let (inp, setup_s) = timed_setups(|| setup(args));
    out.set("setup_s", setup_s);
    out.param("app", "IS");
    out.param("threads", THREADS);
    out.param("scale", if args.tiny { "small" } else { "workshop" });
    out.param("sm_threshold", SmConfig::paper_default().sample_threshold);
    out.param("plan", format!("{:?}", ExecPlan::serial()));
    out.param("events_per_run", inp.events);

    if args.trace {
        traced(args, &inp, out);
        return;
    }

    let mut first: Option<Pass> = None;
    let mut walls = Vec::new();
    repeat_for(args.seconds, 3, || {
        let start = Instant::now();
        let p = pass(&inp);
        walls.push(start.elapsed().as_secs_f64());
        check_pass(out, &p);
        match &first {
            None => first = Some(p),
            Some(f) => out.check(*f == p, || {
                "simulated counters or mapping differ between repetitions".to_string()
            }),
        }
    });
    let first = first.expect("at least one pass ran");
    let events = 3.0 * inp.events as f64;
    let rates: Vec<f64> = walls.iter().map(|w| events / w).collect();
    out.set("events_per_s", report::median(&rates));
    out.set("wall_s", report::median(&walls));
    out.note(format!(
        "{} passes; mapping gain {:.3}% over random placement, detection overhead {:.3}%",
        walls.len(),
        first.gain_pct(),
        first.detect.detection_overhead_percent()
    ));
}

/// The traced run: one pass with the detection run recorded onto a tape
/// and its detector calls timed, the tape replayed layer by layer, the
/// mapper timed on the detected matrix, then the service layers.
fn traced(args: &Args, inp: &Inputs, out: &mut Outcome) {
    out.set("workloads.gen_s", inp.gen_s);

    let start = Instant::now();
    let mut plain_det = detector();
    let plain = sim(
        &inp.detect_cfg,
        inp,
        &Mapping::identity(THREADS),
        &mut plain_det,
    );
    let plain_wall = start.elapsed();

    let mut hooks = TapeHooks::new(detector(), &inp.traces);
    let start = Instant::now();
    let detect = sim(
        &inp.detect_cfg,
        inp,
        &Mapping::identity(THREADS),
        &mut hooks,
    );
    let traced_wall = start.elapsed();
    out.check(
        detect == plain && hooks.inner.matrix() == plain_det.matrix(),
        || "recording the tape changed the detection run's counters or matrix".to_string(),
    );
    tape::report_layers(out, &hooks, &inp.detect_cfg, &detect, traced_wall);

    let det = &hooks.inner;
    out.set("core.calls", hooks.detector_calls as f64);
    out.set(
        "core.ns_per_call",
        hooks.detector_time.as_nanos() as f64 / hooks.detector_calls.max(1) as f64,
    );
    out.set(
        "core.match_ratio",
        det.matches_found() as f64 / det.searches_run().max(1) as f64,
    );
    out.set(
        "core.detect_overhead_pct",
        detect.detection_overhead_percent(),
    );

    let matrix = det.matrix().clone();
    let mapper = HierarchicalMapper::new();
    let map_ns: Vec<f64> = (0..MAP_REPS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(mapper.map(&matrix, &inp.topo));
            start.elapsed().as_nanos() as f64
        })
        .collect();
    out.set("mapping.ns_per_map", report::median(&map_ns));

    let p = finish_pass(inp, detect, &matrix);
    check_pass(out, &p);
    out.set("mapping.gain_pct", p.gain_pct());
    out.set(
        "trace.overhead_pct",
        report::overhead_pct(traced_wall, plain_wall),
    );

    // The pipeline's mapping decision is what the service answers; its
    // layers are measured here as well as on `serve-mix`.
    crate::serve_mix::traced(args, out);
}
