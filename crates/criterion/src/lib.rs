//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! ships a minimal wall-clock benchmarking harness with the criterion API
//! surface its benches use: `Criterion::benchmark_group`, `bench_function`
//! / `bench_with_input`, `Throughput`, `BenchmarkId`, `black_box` and the
//! `criterion_group!` / `criterion_main!` macros. Reported times are the
//! median of the samples that survive MAD-based outlier rejection (see
//! `Bencher::robust_median`); there are no HTML reports.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Throughput annotation for a benchmark group.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A benchmark identifier: `function_name/parameter`.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", name.into(), parameter),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// Drives the timing loop inside a benchmark closure.
pub struct Bencher {
    samples: Vec<Duration>,
    target_sample_time: Duration,
    sample_count: usize,
}

impl Bencher {
    /// Time `f`, collecting `sample_count` samples of auto-scaled batches.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm up before sizing anything: the first calls of the first
        // benchmark in a process pay one-off costs (allocator growth, page
        // faults, CPU frequency ramp) that would otherwise both skew the
        // batch size and depress every sample of that entry. Spin for a
        // fixed wall-clock budget, then size the batch from the fastest
        // observed call.
        let warmup_budget = Duration::from_millis(200);
        let warmup_start = Instant::now();
        let mut once = Duration::MAX;
        loop {
            let start = Instant::now();
            black_box(f());
            once = once.min(start.elapsed());
            if warmup_start.elapsed() >= warmup_budget {
                break;
            }
        }
        let once = once.max(Duration::from_nanos(1));
        let per_sample = self.target_sample_time.max(once);
        let batch = (per_sample.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;

        self.samples.clear();
        for _ in 0..self.sample_count {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let total = start.elapsed();
            self.samples.push(total / batch as u32);
        }
    }

    fn median(&self) -> Duration {
        let mut s = self.samples.clone();
        if s.is_empty() {
            return Duration::ZERO;
        }
        s.sort_unstable();
        s[s.len() / 2]
    }

    /// Median after MAD-based outlier rejection, plus the rejected count.
    ///
    /// A sample is an outlier when it sits more than 3 scaled MADs from
    /// the sample median (the scale factor 1.4826 makes the MAD a
    /// consistent estimator of the standard deviation under normal noise,
    /// so the cut is the robust analogue of a 3-sigma filter). Shared CI
    /// runners produce occasional 2-10x samples from scheduler
    /// preemption; clipping them is what lets the perf-gate threshold sit
    /// well below the worst-case single-sample spike. When the MAD is
    /// zero (a majority of samples quantized to the same value) every
    /// sample is kept — a zero-width cut would reject legitimate jitter.
    fn robust_median(&self) -> (Duration, usize) {
        let med = self.median();
        if self.samples.is_empty() {
            return (Duration::ZERO, 0);
        }
        let med_ns = med.as_nanos() as f64;
        let mut dev: Vec<f64> = self
            .samples
            .iter()
            .map(|s| (s.as_nanos() as f64 - med_ns).abs())
            .collect();
        dev.sort_unstable_by(|a, b| a.total_cmp(b));
        let mad = dev[dev.len() / 2];
        if mad == 0.0 {
            return (med, 0);
        }
        let cut = 3.0 * 1.4826 * mad;
        let mut kept: Vec<Duration> = self
            .samples
            .iter()
            .copied()
            .filter(|s| (s.as_nanos() as f64 - med_ns).abs() <= cut)
            .collect();
        let rejected = self.samples.len() - kept.len();
        kept.sort_unstable();
        (kept[kept.len() / 2], rejected)
    }
}

/// A named set of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    throughput: Option<Throughput>,
    sample_size: usize,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Annotate the group's per-iteration throughput.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Run one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher {
            samples: Vec::new(),
            target_sample_time: Duration::from_millis(10),
            sample_count: self.sample_size,
        };
        f(&mut b);
        self.report(&id.id, &b);
        self
    }

    /// Run one benchmark with an explicit input value.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| f(b, input))
    }

    fn report(&self, id: &str, b: &Bencher) {
        let (med, rejected) = b.robust_median();
        let ns = med.as_nanos() as f64;
        let rate = match self.throughput {
            Some(Throughput::Elements(n)) if ns > 0.0 => {
                format!("  {:>12.0} elem/s", n as f64 / (ns / 1e9))
            }
            Some(Throughput::Bytes(n)) if ns > 0.0 => {
                format!("  {:>12.0} B/s", n as f64 / (ns / 1e9))
            }
            _ => String::new(),
        };
        let note = if rejected > 0 {
            format!("  ({rejected} outlier(s) clipped)")
        } else {
            String::new()
        };
        println!(
            "{}/{:<28} {:>12.1} ns/iter{}{}",
            self.name, id, ns, rate, note
        );
    }

    /// Finish the group (printing is incremental; this is a no-op).
    pub fn finish(&mut self) {}
}

/// Entry point mirroring `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Open a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            throughput: None,
            sample_size: 10,
            _criterion: self,
        }
    }

    /// Run a single ungrouped benchmark.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.benchmark_group("bench").bench_function(id, f);
        self
    }
}

/// Bundle benchmark functions under one group name.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Generate `main` for a `harness = false` bench target.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_and_reports() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("t");
        g.throughput(Throughput::Elements(100));
        g.sample_size(3);
        let mut runs = 0u64;
        g.bench_function("count", |b| b.iter(|| runs += 1));
        g.bench_with_input(BenchmarkId::new("sq", 4), &4u64, |b, &x| {
            b.iter(|| black_box(x * x))
        });
        g.finish();
        assert!(runs > 0, "benchmark closure never executed");
    }

    fn bencher_with(samples_ns: &[u64]) -> Bencher {
        Bencher {
            samples: samples_ns
                .iter()
                .map(|&n| Duration::from_nanos(n))
                .collect(),
            target_sample_time: Duration::from_millis(10),
            sample_count: samples_ns.len(),
        }
    }

    #[test]
    fn mad_filter_clips_preemption_spikes() {
        // Nine tight samples plus one 10x scheduler spike: the plain
        // median already resists it, but the filter must flag and drop it
        // so downstream trend-watching sees a clean sample set.
        let b = bencher_with(&[100, 101, 99, 102, 100, 98, 101, 100, 99, 1000]);
        let (med, rejected) = b.robust_median();
        assert_eq!(rejected, 1, "the 1000ns spike is an outlier");
        assert!((98..=102).contains(&(med.as_nanos() as u64)));
    }

    #[test]
    fn mad_zero_keeps_all_samples() {
        // Quantized clocks collapse most samples onto one value; a
        // zero-width cut must not reject the rest.
        let b = bencher_with(&[50, 50, 50, 50, 50, 50, 50, 53, 47, 50]);
        let (med, rejected) = b.robust_median();
        assert_eq!(rejected, 0);
        assert_eq!(med.as_nanos(), 50);
    }

    #[test]
    fn clean_samples_pass_through_unchanged() {
        let b = bencher_with(&[10, 12, 11, 13, 9, 11, 12, 10, 11, 12]);
        let (med, rejected) = b.robust_median();
        assert_eq!(rejected, 0);
        assert_eq!(med, b.median());
        let (empty_med, empty_rej) = bencher_with(&[]).robust_median();
        assert_eq!(empty_med, Duration::ZERO);
        assert_eq!(empty_rej, 0);
    }

    #[test]
    fn macros_expand() {
        fn bench_a(c: &mut Criterion) {
            c.benchmark_group("m")
                .sample_size(2)
                .bench_function("noop", |b| b.iter(|| black_box(1)));
        }
        criterion_group!(benches, bench_a);
        benches();
    }
}
