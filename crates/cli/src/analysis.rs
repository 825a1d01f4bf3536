//! `tlbmap analyze`, `tlbmap diff`, and `tlbmap bench` — the run-analysis
//! subcommands built on [`tlbmap_prof`].
//!
//! `analyze` pretty-prints the accuracy timeline and cycle profile out of
//! a recorded metrics document (or a `BENCH_*.json` record). `diff`
//! compares two documents and optionally gates on regressions. `bench`
//! runs a seeded workload under full observation, times it on the host
//! clock, and writes a machine-readable benchmark record.
//!
//! The renderers are string-returning so tests can assert byte-identical
//! output across identical seeded runs.

use crate::opts::{DiffOptions, Options};
use std::time::Instant;
use tlbmap_bench::{bar, Table};
use tlbmap_core::{SmConfig, SmDetector};
use tlbmap_mapping::Mapping;
use tlbmap_obs::{Json, ObsConfig, ProfId, Recorder, COUNTERS, PROF_NODES};
use tlbmap_prof::{diff_docs, BenchRecord, DiffReport, Timeline};
use tlbmap_sim::{simulate_observed_with_plan, SimConfig};

/// Width of the sparkline bars in `analyze` tables.
const BAR_WIDTH: usize = 20;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `tlbmap analyze --from <metrics.json | BENCH_*.json>`
pub fn analyze(o: Options) -> Result<(), String> {
    let path = o
        .from
        .as_ref()
        .ok_or_else(|| "analyze needs --from <metrics.json>".to_string())?;
    let doc = load(path)?;
    print!("{}", analyze_to_string(&doc)?);
    Ok(())
}

/// Render the analysis of a run document. Public within the crate so the
/// determinism tests can compare outputs without capturing stdout.
pub(crate) fn analyze_to_string(doc: &Json) -> Result<String, String> {
    if doc.get("kind").and_then(Json::as_str) == Some("bench") {
        let record = BenchRecord::from_json(doc)?;
        return Ok(render_bench(&record));
    }
    let counters = doc
        .get("counters")
        .ok_or("not a run document: no `counters` object (and not a bench record)")?;

    let mut out = String::new();
    out.push_str("== run summary ==\n");
    let mut t = Table::new(vec!["counter", "value"]);
    for c in COUNTERS {
        if let Some(v) = counters.get(c.as_str()).and_then(Json::as_u64) {
            if v > 0 {
                t.row(vec![c.as_str().to_string(), v.to_string()]);
            }
        }
    }
    out.push_str(&t.render());

    out.push('\n');
    out.push_str(&render_timeline(doc)?);
    out.push('\n');
    out.push_str(&render_profile(doc));
    Ok(out)
}

/// The accuracy-timeline section of `analyze`.
fn render_timeline(doc: &Json) -> Result<String, String> {
    let mut out = String::new();
    out.push_str("== accuracy timeline ==\n");
    let Some(section) = doc.get("timeline") else {
        out.push_str("none recorded (run with --snapshot-every and --metrics-out)\n");
        return Ok(out);
    };
    let tl = Timeline::from_json(section)?;
    if tl.entries.is_empty() {
        out.push_str("empty (no snapshots, or ground truth unavailable)\n");
        return Ok(out);
    }
    let mut t = Table::new(vec![
        "window", "cycle", "barrier", "pearson", "cosine", "nmse", "w.cosine", "phase", "trend",
    ]);
    for e in &tl.entries {
        t.row(vec![
            e.index.to_string(),
            e.cycle.to_string(),
            e.barrier.to_string(),
            format!("{:.4}", e.cumulative.pearson),
            format!("{:.4}", e.cumulative.cosine),
            format!("{:.4}", e.cumulative.nmse),
            format!("{:.4}", e.windowed.cosine),
            if e.phase_boundary { "*" } else { "" }.to_string(),
            bar(e.cumulative.cosine, 1.0, BAR_WIDTH),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "cumulative/windowed scores vs ground truth; phase threshold {}\n",
        tl.phase_threshold
    ));
    let boundaries = tl.phase_boundaries();
    if boundaries.is_empty() {
        out.push_str("phase boundaries: none\n");
    } else {
        let at: Vec<String> = boundaries
            .iter()
            .map(|&i| {
                format!(
                    "window {} (cycle {})",
                    tl.entries[i].index, tl.entries[i].cycle
                )
            })
            .collect();
        out.push_str(&format!("phase boundaries: {}\n", at.join(", ")));
    }
    Ok(out)
}

/// The cycle-profile section of `analyze`.
fn render_profile(doc: &Json) -> String {
    let mut out = String::new();
    out.push_str("== cycle profile ==\n");
    let Some(items) = doc.get("profile").and_then(Json::as_array) else {
        out.push_str("none recorded (metrics schema < 2)\n");
        return out;
    };
    if items.is_empty() {
        out.push_str("empty (nothing charged)\n");
        return out;
    }
    let total: u64 = items
        .iter()
        .filter_map(|i| i.get("exclusive_cycles").and_then(Json::as_u64))
        .sum();
    let mut t = Table::new(vec![
        "component",
        "calls",
        "exclusive",
        "inclusive",
        "share",
        "trend",
    ]);
    for item in items {
        let path = item
            .get("component")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let calls = item.get("calls").and_then(Json::as_u64).unwrap_or(0);
        let excl = item
            .get("exclusive_cycles")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        let incl = item
            .get("inclusive_cycles")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        let share = excl as f64 / total.max(1) as f64;
        t.row(vec![
            path,
            calls.to_string(),
            excl.to_string(),
            incl.to_string(),
            format!("{:.1}%", 100.0 * share),
            bar(share, 1.0, BAR_WIDTH),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("\n== collapsed stacks (flamegraph.pl / speedscope) ==\n");
    for item in items {
        let excl = item
            .get("exclusive_cycles")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        if let Some(path) = item.get("component").and_then(Json::as_str) {
            out.push_str(&format!("{path} {excl}\n"));
        }
    }
    out
}

/// Render a benchmark record (the `analyze` view of a `BENCH_*.json`).
fn render_bench(r: &BenchRecord) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "== bench record `{}` ({} @ {}, seed {}) ==\n",
        r.name, r.app, r.scale, r.seed
    ));
    let mut t = Table::new(vec!["stat", "value"]);
    t.row(vec!["events".to_string(), r.events.to_string()]);
    t.row(vec!["accesses".to_string(), r.accesses.to_string()]);
    t.row(vec!["tlb_misses".to_string(), r.tlb_misses.to_string()]);
    t.row(vec!["total_cycles".to_string(), r.total_cycles.to_string()]);
    t.row(vec!["wall_nanos".to_string(), r.wall_nanos.to_string()]);
    t.row(vec![
        "events_per_sec".to_string(),
        format!("{:.0}", r.events_per_sec),
    ]);
    t.row(vec![
        "misses_per_sec".to_string(),
        format!("{:.0}", r.misses_per_sec),
    ]);
    out.push_str(&t.render());
    out.push_str("\n== cycle shares ==\n");
    let mut t = Table::new(vec!["component", "share", "trend"]);
    for (path, share) in &r.cycle_shares {
        t.row(vec![
            path.clone(),
            format!("{:.1}%", 100.0 * share),
            bar(*share, 1.0, BAR_WIDTH),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// `tlbmap diff [--fail-above <pct>] <a.json> <b.json>`
///
/// Returns `Err` — a non-zero process exit — when the gate is armed and
/// any stat regressed beyond the threshold (or the schemas drifted).
pub fn diff(d: DiffOptions) -> Result<(), String> {
    let a = load(&d.baseline)?;
    let b = load(&d.candidate)?;
    let report = diff_docs(&a, &b, d.fail_above);
    print!("{}", diff_to_string(&report, &d.baseline, &d.candidate));
    let breaches = report.regressions().len();
    if breaches > 0 {
        return Err(format!(
            "{breaches} stat(s) regressed beyond {:.2}% (see table above)",
            d.fail_above.unwrap_or(0.0)
        ));
    }
    Ok(())
}

/// Render a diff report as an aligned table of changed stats.
pub(crate) fn diff_to_string(report: &DiffReport, a_name: &str, b_name: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("== diff: {a_name} -> {b_name} ==\n"));
    let changed = report.changed();
    if changed.is_empty() {
        out.push_str(&format!(
            "no differences ({} stats compared)\n",
            report.entries.len()
        ));
        return out;
    }
    let fmt = |v: Option<f64>| v.map_or_else(|| "missing".to_string(), |x| format!("{x}"));
    let mut t = Table::new(vec!["stat", "baseline", "candidate", "delta", "gate"]);
    for e in &changed {
        let delta = match e.delta_pct {
            Some(pct) => format!("{pct:+.2}%"),
            None if e.a.is_none() || e.b.is_none() => "schema drift".to_string(),
            None => "from zero".to_string(),
        };
        t.row(vec![
            e.key.clone(),
            fmt(e.a),
            fmt(e.b),
            delta,
            if e.regression { "BREACH" } else { "ok" }.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "{} stats compared, {} changed, {} regression(s)",
        report.entries.len(),
        changed.len(),
        report.regressions().len()
    ));
    match report.fail_above_pct {
        Some(pct) => out.push_str(&format!(" (gate: fail above {pct}%)\n")),
        None => out.push_str(" (no gate)\n"),
    }
    out
}

/// `tlbmap bench [APP] [--out BENCH_<name>.json]`
///
/// Runs the workload once under the SM detector with full observation,
/// times the simulation on the host clock, and writes a benchmark record.
/// The record's `workload`/`counters`/`cycle_shares` sections are
/// deterministic for a given seed; only the wall-clock stats vary.
pub fn bench(o: Options) -> Result<(), String> {
    let topo = o.topology();
    let n = topo.num_cores();
    let workload = o.workload()?;
    let mapping = Mapping::identity(n);
    let sim = SimConfig::paper_software_managed(&topo);
    let rec = Recorder::new(ObsConfig::new(n));
    let mut det = SmDetector::new(
        n,
        SmConfig {
            sample_threshold: o.sm_threshold,
        },
    )
    .with_recorder(rec.clone());

    let start = Instant::now();
    let stats = simulate_observed_with_plan(
        &sim,
        &topo,
        &workload.traces,
        &mapping,
        &mut det,
        &rec,
        o.exec_plan(),
    )?;
    let wall_nanos = (start.elapsed().as_nanos() as u64).max(1);

    let prof_total = rec.prof_total_cycles().max(1);
    let cycle_shares: Vec<(String, f64)> = PROF_NODES
        .iter()
        .filter(|&&id| rec.prof_calls(id) > 0 && !matches!(id, ProfId::Engine | ProfId::Mapper))
        .map(|&id| {
            (
                id.path(),
                rec.prof_exclusive_cycles(id) as f64 / prof_total as f64,
            )
        })
        .collect();

    let path = o
        .out
        .clone()
        .unwrap_or_else(|| format!("BENCH_{}.json", o.app));
    let name = std::path::Path::new(&path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| o.app.clone());
    let secs = wall_nanos as f64 / 1e9;
    let record = BenchRecord {
        name,
        app: o.app.clone(),
        scale: format!("{:?}", o.scale).to_lowercase(),
        seed: o.seed,
        events: workload.total_events() as u64,
        accesses: stats.accesses,
        tlb_misses: stats.tlb_misses(),
        total_cycles: stats.total_cycles,
        wall_nanos,
        events_per_sec: workload.total_events() as f64 / secs,
        misses_per_sec: stats.tlb_misses() as f64 / secs,
        cycle_shares,
    };

    let mut text = record.to_json().render();
    text.push('\n');
    std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))?;
    eprintln!(
        "# bench record written to {path}: {} events in {:.3} ms ({:.0} events/sec)",
        record.events,
        secs * 1e3,
        record.events_per_sec
    );
    print!("{}", render_bench(&record));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands;
    use crate::opts::Options;

    fn opts(words: &[&str]) -> Options {
        Options::parse(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("tlbmap_cli_analysis_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Run `detect` with metrics + snapshots into `name`, return the path.
    fn recorded_run(name: &str) -> String {
        let path = tmp(name).to_string_lossy().into_owned();
        let mut o = opts(&["ring", "--scale", "test", "--sm-threshold", "1"]);
        o.metrics_out = Some(path.clone());
        o.snapshot_every = Some(2_000);
        commands::detect(o).unwrap();
        path
    }

    #[test]
    fn analyze_renders_timeline_and_profile() {
        let path = recorded_run("metrics_analyze.json");
        let doc = load(&path).unwrap();
        let text = analyze_to_string(&doc).unwrap();
        assert!(text.contains("== run summary =="), "{text}");
        assert!(text.contains("== accuracy timeline =="), "{text}");
        assert!(text.contains("pearson"), "{text}");
        assert!(text.contains("== cycle profile =="), "{text}");
        assert!(text.contains("engine;access;tlb"), "{text}");
        assert!(text.contains("== collapsed stacks"), "{text}");
        // The command wrapper needs --from.
        assert!(analyze(opts(&[])).is_err());
        let mut o = opts(&[]);
        o.from = Some(path);
        analyze(o).unwrap();
    }

    #[test]
    fn regenerated_metrics_match_committed_golden_byte_for_byte() {
        // The counters-unchanged invariant behind the owner directory and
        // the packed trace encoding: regenerating the analysis-gate
        // artifact (`detect ring --scale test --sm-threshold 1
        // --snapshot-every 2000`) must reproduce the committed
        // results/golden_metrics.json exactly — not merely within a diff
        // tolerance. Any drift in modeled snoops, invalidations, miss
        // taxonomy or cycle charging shows up here first.
        let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../results/golden_metrics.json");
        let committed = std::fs::read_to_string(&golden)
            .unwrap_or_else(|e| panic!("{}: {e}", golden.display()));
        let fresh = std::fs::read_to_string(recorded_run("metrics_golden_check.json")).unwrap();
        assert_eq!(
            fresh, committed,
            "regenerated metrics drifted from results/golden_metrics.json — \
             a hot-path change altered modeled behavior"
        );
    }

    #[test]
    fn regenerated_windowed_metrics_match_committed_golden_byte_for_byte() {
        // The windowed engine's counterpart: a 4-shard `simulate ring
        // --scale test --mapping identity --lag 8192` must reproduce the
        // committed results/golden_metrics_shards.json exactly, so any
        // drift in cross-domain coherence shows up in `cargo test`.
        let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../results/golden_metrics_shards.json");
        let committed = std::fs::read_to_string(&golden)
            .unwrap_or_else(|e| panic!("{}: {e}", golden.display()));
        let path = tmp("metrics_shards_golden_check.json");
        let mut o = opts(&["ring", "--scale", "test", "--shards", "4", "--lag", "8192"]);
        o.mapping = "identity".to_string();
        o.metrics_out = Some(path.to_string_lossy().into_owned());
        commands::simulate_cmd(o).unwrap();
        let fresh = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            fresh, committed,
            "regenerated windowed metrics drifted from \
             results/golden_metrics_shards.json"
        );
    }

    #[test]
    fn analyze_rejects_non_run_documents() {
        let doc = Json::parse(r#"{"hello":"world"}"#).unwrap();
        assert!(analyze_to_string(&doc).is_err());
    }

    #[test]
    fn identical_seeded_runs_are_byte_identical() {
        // Satellite: determinism. Two identical seeded runs must produce
        // byte-identical metrics documents, analyze output, and a clean
        // diff even at a 0% gate.
        let a = recorded_run("metrics_det_a.json");
        let b = recorded_run("metrics_det_b.json");
        let text_a = std::fs::read_to_string(&a).unwrap();
        let text_b = std::fs::read_to_string(&b).unwrap();
        assert_eq!(text_a, text_b, "metrics artifacts must be reproducible");

        let doc_a = load(&a).unwrap();
        let doc_b = load(&b).unwrap();
        assert_eq!(
            analyze_to_string(&doc_a).unwrap(),
            analyze_to_string(&doc_b).unwrap()
        );

        let report = diff_docs(&doc_a, &doc_b, Some(0.0));
        assert!(report.passed(), "identical runs must pass a 0% gate");
        let rendered = diff_to_string(&report, "a", "b");
        assert!(rendered.contains("no differences"), "{rendered}");
        // The command form agrees: exit success.
        diff(DiffOptions {
            baseline: a,
            candidate: b,
            fail_above: Some(0.0),
        })
        .unwrap();
    }

    #[test]
    fn diff_gate_exit_semantics() {
        let a = tmp("gate_a.json");
        let b = tmp("gate_b.json");
        std::fs::write(&a, r#"{"counters":{"tlb_misses":100}}"#).unwrap();
        std::fs::write(&b, r#"{"counters":{"tlb_misses":110}}"#).unwrap();
        let d = |fail_above| DiffOptions {
            baseline: a.to_string_lossy().into_owned(),
            candidate: b.to_string_lossy().into_owned(),
            fail_above,
        };
        // 10% more misses: breaches a 5% gate, passes a 20% gate,
        // and passes with no gate at all.
        assert!(diff(d(Some(5.0))).is_err());
        assert!(diff(d(Some(20.0))).is_ok());
        assert!(diff(d(None)).is_ok());
    }

    #[test]
    fn bench_writes_a_valid_record() {
        let path = tmp("BENCH_test.json").to_string_lossy().into_owned();
        let mut o = opts(&["ring", "--scale", "test", "--sm-threshold", "1"]);
        o.out = Some(path.clone());
        bench(o).unwrap();
        let record = BenchRecord::from_json(&load(&path).unwrap()).unwrap();
        assert_eq!(record.name, "BENCH_test");
        assert_eq!(record.app, "ring");
        assert_eq!(record.scale, "test");
        assert!(record.events > 0);
        assert!(record.total_cycles > 0);
        assert!(record.events_per_sec > 0.0);
        let share_sum: f64 = record.cycle_shares.iter().map(|(_, s)| s).sum();
        assert!(
            (share_sum - 1.0).abs() < 1e-9,
            "leaf shares must partition charged cycles, got {share_sum}"
        );
        // Analyze understands bench records too.
        let text = analyze_to_string(&load(&path).unwrap()).unwrap();
        assert!(text.contains("== bench record"), "{text}");
        assert!(text.contains("== cycle shares =="), "{text}");
        // The deterministic sections survive a re-run; only the
        // wall-clock stats may differ between the two records.
        let path2 = tmp("BENCH_test2.json").to_string_lossy().into_owned();
        let mut o2 = opts(&["ring", "--scale", "test", "--sm-threshold", "1"]);
        o2.out = Some(path2.clone());
        bench(o2).unwrap();
        let record2 = BenchRecord::from_json(&load(&path2).unwrap()).unwrap();
        assert_eq!(record.events, record2.events);
        assert_eq!(record.accesses, record2.accesses);
        assert_eq!(record.tlb_misses, record2.tlb_misses);
        assert_eq!(record.total_cycles, record2.total_cycles);
        assert_eq!(record.cycle_shares, record2.cycle_shares);
    }
}
