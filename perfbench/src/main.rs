//! The tlbmap benchmark. One invocation runs one workload for a fixed
//! host time and prints, as its last line, one JSON object with the
//! checks it made and its metrics: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--light-rps <r> --busy-rps <r>]
//! perfbench --self-test
//! ```
//!
//! Workloads: `paper-pipeline`, `windowed-coherence`, `serve-mix` (see
//! `README.md`). Inputs are generated from `--seed`; the same seed gives
//! the same inputs. `--self-test` runs every workload shrunk to run in
//! seconds, traced and untraced, and fails unless every check passes and
//! every metric of `BENCHMARK.json` is emitted with the unit and direction
//! listed there.

mod pipeline;
mod report;
mod serve_mix;
mod tape;
mod windowed;

use report::{MetricDef, Outcome, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::time::Instant;
use tlbmap_obs::Json;

const WORKLOADS: [&str; 3] = ["paper-pipeline", "windowed-coherence", "serve-mix"];
/// Set-ups per invocation; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Shrink every workload to run in seconds (the self-test).
    pub tiny: bool,
    /// `serve-mix` open-loop rates, requests per second.
    pub light_rps: f64,
    pub busy_rps: f64,
}

enum Mode {
    Run(Args),
    SelfTest,
}

const USAGE: &str = "usage: perfbench --workload <paper-pipeline|windowed-coherence|serve-mix> \
--seed <n> --seconds <s> --trace <0|1> [--light-rps <r> --busy-rps <r>]\n       perfbench --self-test";

fn parse(argv: &[String]) -> Result<Mode, String> {
    if argv == ["--self-test"] {
        return Ok(Mode::SelfTest);
    }
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let (mut light_rps, mut busy_rps) = (None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<f64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => seconds = Some(number(value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--light-rps" => light_rps = Some(number(value)?),
            "--busy-rps" => busy_rps = Some(number(value)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let (light_rps, busy_rps) = match (light_rps, busy_rps) {
        (Some(l), Some(b)) if l > 0.0 && b > 0.0 => (l, b),
        _ if workload != "serve-mix" => (0.0, 0.0),
        _ => return Err("serve-mix needs positive --light-rps and --busy-rps".to_string()),
    };
    Ok(Mode::Run(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        tiny: false,
        light_rps,
        busy_rps,
    }))
}

/// Run `rep` at least `min_reps` times, and again while the next one is
/// expected to finish within `seconds` of the first one's start.
pub fn repeat_for(seconds: f64, min_reps: usize, mut rep: impl FnMut()) {
    let start = Instant::now();
    for done in 1.. {
        let t = Instant::now();
        rep();
        let last = t.elapsed().as_secs_f64();
        if done >= min_reps && start.elapsed().as_secs_f64() + last > seconds {
            break;
        }
    }
}

/// Set up [`SETUP_REPS`] times, keeping the last result; returns it with
/// the median set-up time in seconds. Each earlier result is dropped
/// before the next set-up starts.
pub fn timed_setups<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), report::median(&times))
}

fn metric_defs(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Run one invocation and fill in every metric it reports.
fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "paper-pipeline" => pipeline::run(args, &mut out),
        "windowed-coherence" => windowed::run(args, &mut out),
        "serve-mix" => serve_mix::run(args, &mut out),
        other => unreachable!("workload {other} passed argument checks"),
    }
    if args.trace {
        out.zero_unset(PER_LAYER);
    } else {
        out.set_default("peak_rss_mib", report::peak_rss_mib());
    }
    out.set("ok_share", 1.0 - out.error_share());
    let missing = out.missing(metric_defs(args.trace));
    out.check(missing.is_empty(), || {
        format!("metrics not measured: {missing:?}")
    });
    out.set("ok_share", 1.0 - out.error_share());
    out
}

fn provenance(args: &Args, out: &Outcome) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    let params = out
        .params
        .iter()
        .map(|(k, v)| (k.to_string(), Json::Str(v.clone())))
        .collect();
    Json::obj(vec![
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::U64(args.seed)),
        ("seconds", Json::F64(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("tiny", Json::Bool(args.tiny)),
        ("host_cpus", Json::U64(cpus as u64)),
        ("cpu_model", Json::Str(report::cpu_model())),
        ("git_rev", Json::Str(report::git_rev())),
        ("params", Json::Obj(params)),
    ])
    .render()
}

/// Print the provenance, every metric with its unit and direction, the
/// notes and failures, and the result line last.
fn print(args: &Args, out: &Outcome) {
    println!("# provenance {}", provenance(args, out));
    for d in metric_defs(args.trace) {
        let v = out.values.get(d.name).copied().unwrap_or(f64::NAN);
        println!(
            "# {:<26} {:>16.6} {:<6} ({} is better)",
            d.name,
            v,
            d.unit,
            d.better.as_str()
        );
    }
    for note in &out.notes {
        println!("# {note}");
    }
    println!(
        "# checks: {} attempted, {} failed, error_share {}",
        out.attempted,
        out.failed,
        out.error_share()
    );
    for f in &out.failures {
        eprintln!("FAILED: {f}");
    }
    println!("{}", out.result_line(metric_defs(args.trace)));
}

/// Check `BENCHMARK.json` against the metric catalogue, then run every
/// workload tiny, untraced and traced, and check each outcome.
fn self_test() -> ExitCode {
    let mut problems = Vec::new();
    match std::fs::read_to_string("BENCHMARK.json") {
        Err(e) => problems.push(format!(
            "BENCHMARK.json: {e} (run from the repository root)"
        )),
        Ok(text) => match Json::parse(&text) {
            Err(e) => problems.push(format!("BENCHMARK.json: {e}")),
            Ok(doc) => problems.extend(check_manifest(&doc)),
        },
    }
    for workload in WORKLOADS {
        for trace in [false, true] {
            let args = Args {
                workload: workload.to_string(),
                seed: 424_242,
                seconds: 1.0,
                trace,
                tiny: true,
                light_rps: 100.0,
                busy_rps: 200.0,
            };
            let out = run(&args);
            let line = out.result_line(metric_defs(trace));
            let keys_ok = Json::parse(&line).ok().and_then(|doc| match doc {
                Json::Obj(pairs) => Some(pairs.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>()),
                _ => None,
            }) == Some(vec![
                "correct".into(),
                "attempted".into(),
                "failed".into(),
                "metrics".into(),
            ]);
            let status = if out.failed == 0 && keys_ok {
                "ok"
            } else {
                "FAILED"
            };
            println!(
                "# self-test {workload} --trace {}: {status} ({} checks)",
                u8::from(trace),
                out.attempted
            );
            if !keys_ok {
                problems.push(format!("{workload}: malformed result line {line}"));
            }
            problems.extend(out.failures.iter().map(|f| format!("{workload}: {f}")));
        }
    }
    for p in &problems {
        eprintln!("FAILED: {p}");
    }
    if problems.is_empty() {
        println!("# self-test passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Differences between the manifest's workloads and metrics and the
/// ones this program measures.
fn check_manifest(doc: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    // Each entry of the array `key`, as its `fields` joined by spaces.
    let entries = |key: &str, fields: &[&str]| -> Vec<String> {
        let field = |e: &Json, f: &str| e.get(f).and_then(Json::as_str).unwrap_or("").to_string();
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|e| {
                fields
                    .iter()
                    .map(|f| field(e, f))
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect()
    };
    let listed = entries("workloads", &["name"]);
    if listed.is_empty() || listed.iter().any(|w| !WORKLOADS.contains(&w.as_str())) {
        problems.push(format!(
            "BENCHMARK.json workloads {listed:?} are not among {WORKLOADS:?}"
        ));
    }
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = entries(key, &["name", "unit", "better"]);
        let measured: Vec<String> = defs
            .iter()
            .map(|d| format!("{} {} {}", d.name, d.unit, d.better.as_str()))
            .collect();
        if listed != measured {
            problems.push(format!(
                "BENCHMARK.json {key} {listed:?} != measured {measured:?}"
            ));
        }
    }
    problems
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv) {
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Mode::SelfTest) => self_test(),
        Ok(Mode::Run(args)) => {
            let out = run(&args);
            print(&args, &out);
            ExitCode::SUCCESS
        }
    }
}
