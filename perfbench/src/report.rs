//! The metric catalogue, the per-run outcome (values plus checks), the
//! result line, and the small statistics the workloads share.

use std::collections::BTreeMap;
use std::time::Duration;
use tlbmap_obs::Json;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: its name, unit and better direction, exactly as
/// `BENCHMARK.json` lists it (the self-test holds the two in step).
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off. Every workload reports
/// every one of them; `README.md` gives each one's meaning per workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower),
    m("peak_rss_mib", "MiB", Lower),
    m("ok_share", "share", Higher),
    m("events_per_s", "1/s", Higher),
    m("wall_s", "s", Lower),
];

/// Per-layer metrics, from the traced run. Every workload reports every
/// one of them; a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("workloads.gen_s", "s", Lower),
    m("mem.ns_per_access", "ns", Lower),
    m("mem.tlb_miss_ratio", "share", Lower),
    m("cache.ns_per_access", "ns", Lower),
    m("cache.l2_miss_ratio", "share", Lower),
    m("cache.invalidations", "count", Lower),
    m("cache.snoops", "count", Lower),
    m("core.calls", "count", Lower),
    m("core.ns_per_call", "ns", Lower),
    m("core.match_ratio", "share", Higher),
    m("core.detect_overhead_pct", "%", Lower),
    m("mapping.ns_per_map", "ns", Lower),
    m("mapping.gain_pct", "%", Higher),
    m("sim.engine.self_s", "s", Lower),
    m("sim.shard.speedup", "x", Higher),
    m("sim.shard.msgq_delivered", "count", Lower),
    m("sim.shard.barrier_waits", "count", Lower),
    m("sim.shard.error_pct", "%", Lower),
    m("serve.rtt_us.hit", "us", Lower),
    m("serve.rtt_us.miss", "us", Lower),
    m("serve.protocol.encode_us", "us", Lower),
    m("serve.protocol.decode_us", "us", Lower),
    m("serve.frame_bytes", "bytes", Lower),
    m("serve.cache.hit_ratio", "share", Higher),
    m("serve.queue_us.p99", "us", Lower),
    m("serve.compute_us.p50", "us", Lower),
    m("serve.worker_util", "share", Lower),
    m("serve.batch.p50", "count", Higher),
    m("serve.light.p50_ms", "ms", Lower),
    m("serve.light.p99_ms", "ms", Lower),
    m("serve.busy.p99_ms", "ms", Lower),
    m("trace.overhead_pct", "%", Lower),
];

/// What one invocation measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
    /// Workload parameters and execution plan, for the provenance line.
    pub params: Vec<(&'static str, String)>,
    /// Human-readable lines printed above the result (phase counts,
    /// flags).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one operation or check; record why it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Count `n` operations of which `failed` failed.
    pub fn count_ops(&mut self, n: u64, failed: u64, what: &str) {
        self.attempted += n;
        if failed > 0 {
            self.failed += failed;
            self.failures.push(format!("{failed} of {n} {what} failed"));
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Set `name` unless it is already set.
    pub fn set_default(&mut self, name: &'static str, value: f64) {
        self.values.entry(name).or_insert(value);
    }

    pub fn param(&mut self, key: &'static str, value: impl ToString) {
        self.params.push((key, value.to_string()));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Failed over attempted operations and checks.
    pub fn error_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Set every layer metric this workload does not exercise to 0.
    pub fn zero_unset(&mut self, defs: &[MetricDef]) {
        for d in defs {
            self.values.entry(d.name).or_insert(0.0);
        }
    }

    /// The catalogue entries missing from this outcome, or carrying a
    /// value that is not a finite number.
    pub fn missing(&self, defs: &[MetricDef]) -> Vec<&'static str> {
        defs.iter()
            .filter(|d| !self.values.get(d.name).is_some_and(|v| v.is_finite()))
            .map(|d| d.name)
            .collect()
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric a `value` with its `unit`.
    pub fn result_line(&self, defs: &[MetricDef]) -> String {
        let metrics = defs
            .iter()
            .map(|d| {
                let v = self.values.get(d.name).copied().unwrap_or(f64::NAN);
                let entry = Json::obj(vec![
                    ("value", Json::F64(v)),
                    ("unit", Json::Str(d.unit.into())),
                ]);
                (d.name.to_string(), entry)
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::U64(self.attempted.max(1))),
            ("failed", Json::U64(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }
}

/// Median of `xs` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of `xs`; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where the
/// kernel does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host CPU model, from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit the working directory is checked out at, read from
/// `.git` without running git; "unknown" outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// How much longer the traced run took than the untraced one, in percent.
pub fn overhead_pct(traced: Duration, plain: Duration) -> f64 {
    100.0 * (traced.as_secs_f64() / plain.as_secs_f64().max(1e-9) - 1.0)
}
