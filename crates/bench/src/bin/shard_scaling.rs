//! A/B study: single-run simulation throughput vs `--shards`.
//!
//! A serial run is one domain spanning the machine, interleaving every
//! simulated core through one mutable borrow spine, so it can never use
//! more than one host core. A windowed run (`ExecPlan` with a nonzero lag)
//! splits the machine into L2-group domains behind a bounded-lag window
//! and chunks the domains over OS threads. This binary measures what that buys on large machines: it
//! runs the same coherence-heavy workload at 64/128/256 simulated cores
//! for a sweep of shard counts, checks that every shard count reproduces
//! the 1-shard run exactly (the determinism contract), and writes the
//! throughput points to a machine-readable JSON record.
//!
//! Usage: `shard_scaling [--out FILE] [--reps N] [--min-speedup X]
//!         [--cores-list 64,128,256] [--shards-list 1,2,4,8]`
//!
//! `--min-speedup X` turns the study into a CI gate: the run exits
//! non-zero unless some sharded point at >= 128 cores reaches X times the
//! 1-shard throughput of the same machine. The committed record carries
//! `host_cpus` so numbers from small hosts read as what they are.

use std::time::Instant;
use tlbmap_bench::Table;
use tlbmap_obs::Json;
use tlbmap_sim::{
    simulate_with_plan, ExecPlan, Mapping, NoHooks, RunStats, SimConfig, Topology, DEFAULT_LAG,
};
use tlbmap_workloads::synthetic;

struct Args {
    out: String,
    reps: usize,
    min_speedup: Option<f64>,
    cores_list: Vec<usize>,
    shards_list: Vec<usize>,
}

fn parse_list(raw: &str, flag: &str) -> Vec<usize> {
    raw.split(',')
        .map(|p| {
            p.trim()
                .parse()
                .unwrap_or_else(|e| panic!("{flag}: `{p}`: {e}"))
        })
        .collect()
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let mut a = Args {
        out: "results/BENCH_engine_shards.json".to_string(),
        reps: 3,
        min_speedup: None,
        cores_list: vec![64, 128, 256],
        shards_list: vec![1, 2, 4, 8],
    };
    let mut i = 1;
    while i < argv.len() {
        let need = |i: usize| -> &str {
            argv.get(i + 1)
                .unwrap_or_else(|| panic!("flag {} needs a value", argv[i]))
        };
        match argv[i].as_str() {
            "--out" => a.out = need(i).to_string(),
            "--reps" => a.reps = need(i).parse().expect("--reps takes an integer"),
            "--min-speedup" => {
                a.min_speedup = Some(need(i).parse().expect("--min-speedup takes a number"))
            }
            "--cores-list" => a.cores_list = parse_list(need(i), "--cores-list"),
            "--shards-list" => a.shards_list = parse_list(need(i), "--shards-list"),
            other => panic!("unknown flag {other}"),
        }
        i += 2;
    }
    assert!(a.reps >= 1, "--reps must be at least 1");
    a
}

struct Point {
    cores: usize,
    shards: usize,
    events: u64,
    wall_nanos: u64,
    events_per_sec: f64,
    speedup: f64,
    total_cycles: u64,
}

fn main() {
    let args = parse_args();
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "# shard scaling study: lag {DEFAULT_LAG}, {} reps, host has {host_cpus} CPUs",
        args.reps
    );

    let mut points: Vec<Point> = Vec::new();
    let mut table = Table::new(vec![
        "cores",
        "shards",
        "events",
        "ms (best)",
        "events/s",
        "speedup",
    ]);
    for &cores in &args.cores_list {
        let topo = Topology::scaled(cores).unwrap_or_else(|e| panic!("--cores-list: {e}"));
        // All-to-all sharing keeps the owner directory and the cross-domain
        // message queue on the hot path — the engine's worst case, not a
        // trivially partitionable best case.
        let workload = synthetic::uniform_all_to_all(cores, 24, 4);
        let events = workload.total_events() as u64;
        let mapping = Mapping::identity(cores);
        let sim = SimConfig::paper_hardware_managed(&topo).with_tick_period(None);

        let mut baseline: Option<(RunStats, f64)> = None;
        for &shards in &args.shards_list {
            let plan = ExecPlan::windowed(shards, DEFAULT_LAG);
            let mut best_nanos = u64::MAX;
            let mut stats = None;
            for _ in 0..args.reps {
                let start = Instant::now();
                let s =
                    simulate_with_plan(&sim, &topo, &workload.traces, &mapping, &mut NoHooks, plan)
                        .expect("windowed plan rejected");
                best_nanos = best_nanos.min(start.elapsed().as_nanos() as u64);
                stats = Some(s);
            }
            let stats = stats.expect("at least one rep ran");
            let events_per_sec = events as f64 / (best_nanos.max(1) as f64 / 1e9);
            let speedup = match &baseline {
                None => {
                    baseline = Some((stats.clone(), events_per_sec));
                    1.0
                }
                Some((base_stats, base_tp)) => {
                    // The determinism contract, re-proven on every study
                    // run: any shard count reproduces the 1-shard results.
                    assert_eq!(
                        base_stats, &stats,
                        "shard count {shards} changed simulation results at {cores} cores"
                    );
                    events_per_sec / base_tp
                }
            };
            table.row(vec![
                cores.to_string(),
                shards.to_string(),
                events.to_string(),
                format!("{:.1}", best_nanos as f64 / 1e6),
                format!("{:.0}", events_per_sec),
                format!("{speedup:.2}x"),
            ]);
            points.push(Point {
                cores,
                shards,
                events,
                wall_nanos: best_nanos,
                events_per_sec,
                speedup,
                total_cycles: stats.total_cycles,
            });
        }
    }
    print!("{}", table.render());

    let doc = Json::obj(vec![
        ("name", Json::Str("engine_shards".into())),
        ("schema", Json::U64(1)),
        ("workload", Json::Str("uniform".into())),
        ("lag", Json::U64(DEFAULT_LAG)),
        ("reps", Json::U64(args.reps as u64)),
        ("host_cpus", Json::U64(host_cpus as u64)),
        (
            "points",
            Json::Arr(
                points
                    .iter()
                    .map(|p| {
                        Json::obj(vec![
                            ("cores", Json::U64(p.cores as u64)),
                            ("shards", Json::U64(p.shards as u64)),
                            ("events", Json::U64(p.events)),
                            ("total_cycles", Json::U64(p.total_cycles)),
                            ("wall_nanos", Json::U64(p.wall_nanos)),
                            ("events_per_sec", Json::F64(p.events_per_sec)),
                            ("speedup_vs_1shard", Json::F64(p.speedup)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let mut text = doc.render();
    text.push('\n');
    std::fs::write(&args.out, text).unwrap_or_else(|e| panic!("{}: {e}", args.out));
    println!("# record written to {}", args.out);

    if let Some(min) = args.min_speedup {
        if host_cpus < 4 {
            // A speedup floor is a claim about parallel hardware; on a
            // starved host the study still proves determinism and records
            // honest numbers, but the floor is not enforceable.
            println!("# gate: skipped — host has {host_cpus} CPUs, need at least 4 to enforce");
            return;
        }
        let best = points
            .iter()
            .filter(|p| p.cores >= 128 && p.shards >= 4)
            .map(|p| p.speedup)
            .fold(0.0f64, f64::max);
        println!("# gate: best speedup at >=128 cores, >=4 shards: {best:.2}x (need {min:.2}x)");
        if best < min {
            eprintln!("shard scaling gate FAILED: {best:.2}x < {min:.2}x");
            std::process::exit(1);
        }
    }
}
