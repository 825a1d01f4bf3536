//! `serve-mix`: an in-process mapping server (2 workers, the default
//! 128-entry result cache) answering 64-thread communication matrices for
//! `Topology::scaled(64)`. Each matrix is a neighbour band plus noise,
//! the shape the detectors find in the NPB domain-decomposition kernels.
//! Three requests in four draw from a 64-matrix hot pool that the set-up
//! preloads into the cache; one in four is a fresh matrix the server must
//! map. Load comes from 2 connections, one thread each.

use crate::report::{self, Outcome};
use crate::{timed_setups, Args};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};
use tlbmap_core::CommMatrix;
use tlbmap_mapping::HierarchicalMapper;
use tlbmap_obs::{Json, ObsConfig, Recorder};
use tlbmap_serve::protocol::{AdminKind, Request, Response};
use tlbmap_serve::{Client, ServeConfig, ServeError, Server, ServerHandle};
use tlbmap_sim::Topology;

const THREADS: usize = 64;
const HOT_POOL: u64 = 64;
const WORKERS: usize = 2;
const CONNECTIONS: usize = 2;
/// One request in this many carries a fresh matrix.
const FRESH_ONE_IN: u64 = 4;
/// Unloaded round trips timed in the traced run.
const RTT_REQUESTS: u64 = 200;
/// Matrices the traced run times the protocol and the mapper on.
const LAYER_SAMPLES: u64 = 32;
/// Length of the slices each phase is cut into; latency and rate figures
/// are medians over the slices.
const WINDOW_S: f64 = 0.5;

fn topology() -> Topology {
    Topology::scaled(THREADS).expect("64 cores is a valid scaled topology")
}

/// Which matrix a request carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Hot(u64),
    Fresh(u64),
}

/// The matrix behind `key`: a heavy band between neighbouring threads
/// plus sparse light noise, drawn from the seed.
fn matrix(seed: u64, key: Key) -> CommMatrix {
    let id = match key {
        Key::Hot(i) => i,
        Key::Fresh(i) => (1 << 62) | i,
    };
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ id);
    let mut m = CommMatrix::new(THREADS);
    for i in 0..THREADS {
        for j in i + 1..THREADS {
            let w = if j == i + 1 {
                rng.gen_range(600..1400)
            } else if rng.gen_bool(0.1) {
                rng.gen_range(1..60)
            } else {
                0
            };
            m.add(i, j, w);
        }
    }
    m
}

/// The request sequence of one connection in one phase.
struct Stream {
    seed: u64,
    rng: SmallRng,
    fresh_base: u64,
    fresh: u64,
}

impl Stream {
    fn new(seed: u64, phase: u64, conn: usize) -> Self {
        let stream_id = (phase << 8) | conn as u64;
        Stream {
            seed,
            rng: SmallRng::seed_from_u64(seed ^ stream_id.wrapping_mul(0xD1B5_4A32_D192_ED03)),
            fresh_base: stream_id << 32,
            fresh: 0,
        }
    }

    fn next(&mut self) -> (Key, CommMatrix) {
        let key = if self.rng.gen_range(0..FRESH_ONE_IN) == 0 {
            self.fresh += 1;
            Key::Fresh(self.fresh_base | self.fresh)
        } else {
            Key::Hot(self.rng.gen_range(0..HOT_POOL))
        };
        (key, matrix(self.seed, key))
    }
}

/// One phase's requests, as its connections saw them.
#[derive(Default)]
struct Phase {
    length_s: f64,
    sent: u64,
    ok: u64,
    failed: u64,
    /// Each answered request: when it was due (the open loop) or sent (the
    /// closed loop), in seconds from the phase's start, and its latency in
    /// milliseconds from that moment.
    samples: Vec<(f64, f64)>,
    /// How late the generator sent a request, at worst.
    max_lag_ms: f64,
    wall_s: f64,
    /// Each answered request's matrix and a digest of the mapping it got.
    replies: Vec<(Key, u64)>,
    errors: Vec<String>,
}

fn digest(mapping: &[usize]) -> u64 {
    let mut h = DefaultHasher::new();
    mapping.hash(&mut h);
    h.finish()
}

impl Phase {
    fn merge(&mut self, other: Phase) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
        self.samples.extend(other.samples);
        self.max_lag_ms = self.max_lag_ms.max(other.max_lag_ms);
        self.replies.extend(other.replies);
        self.errors.extend(other.errors);
    }

    fn record(
        &mut self,
        key: Key,
        result: Result<Vec<usize>, ServeError>,
        start: Instant,
        begin: Instant,
    ) {
        self.sent += 1;
        match result {
            Ok(mapping) => {
                self.ok += 1;
                let at = start.saturating_duration_since(begin).as_secs_f64();
                self.samples.push((at, start.elapsed().as_secs_f64() * 1e3));
                self.replies.push((key, digest(&mapping)));
            }
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 4 {
                    self.errors.push(e.to_string());
                }
            }
        }
    }

    /// The latencies of each [`WINDOW_S`] slice of the phase (one slice
    /// for a shorter phase).
    fn windows(&self) -> Vec<Vec<f64>> {
        let n = ((self.length_s / WINDOW_S).round() as usize).max(1);
        let mut w = vec![Vec::new(); n];
        for &(at, ms) in &self.samples {
            let i = (at / self.length_s * n as f64) as usize;
            w[i.min(n - 1)].push(ms);
        }
        w
    }

    /// Percentile `pct` of the latencies: the median over the phase's
    /// windows of each window's percentile, so one stall of the host
    /// moves one window, not the figure.
    fn p(&self, pct: f64) -> f64 {
        let per_window: Vec<f64> = self
            .windows()
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| report::percentile(w, pct))
            .collect();
        report::median(&per_window)
    }

    /// Requests answered per second: the median over the windows.
    fn rate(&self) -> f64 {
        let windows = self.windows();
        let window_s = self.length_s / windows.len() as f64;
        let per_window: Vec<f64> = windows.iter().map(|w| w.len() as f64 / window_s).collect();
        report::median(&per_window)
    }
}

fn drive(
    addr: &str,
    seed: u64,
    phase: u64,
    conn: usize,
    rps: Option<f64>,
    begin: Instant,
    end: Instant,
) -> Phase {
    let mut out = Phase::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.record(Key::Hot(0), Err(e), begin, begin);
            return out;
        }
    };
    let topo = topology();
    let mut stream = Stream::new(seed, phase, conn);
    // The open loop: connection `conn` sends every `period`, offset so the
    // connections interleave evenly.
    let schedule = rps.map(|r| {
        let period = Duration::from_secs_f64(CONNECTIONS as f64 / r);
        (begin + Duration::from_secs_f64(conn as f64 / r), period)
    });
    let mut due = schedule.map(|(first, _)| first);
    loop {
        let (key, m) = stream.next();
        let now = Instant::now();
        let start = match due {
            Some(d) if d >= end => break,
            Some(d) => {
                if d > now {
                    std::thread::sleep(d - now);
                }
                out.max_lag_ms = out
                    .max_lag_ms
                    .max(Instant::now().saturating_duration_since(d).as_secs_f64() * 1e3);
                d
            }
            None if now >= end => break,
            None => now,
        };
        let result = client.map(&m, &topo, None, 0).map(|r| r.mapping);
        let lost = matches!(result, Err(ServeError::Transport(_)));
        out.record(key, result, start, begin);
        if lost {
            match Client::connect(addr) {
                Ok(c) => client = c,
                Err(_) => break,
            }
        }
        if let (Some(d), Some((_, period))) = (due.as_mut(), schedule) {
            *d += period;
        }
    }
    out
}

/// Run one phase over every connection: open loop at `rps` requests per
/// second, timed from each request's scheduled send, or closed loop when
/// `rps` is `None`.
fn run_phase(addr: &str, seed: u64, phase: u64, rps: Option<f64>, length: Duration) -> Phase {
    let begin = Instant::now();
    let end = begin + length;
    let mut total = Phase {
        length_s: length.as_secs_f64(),
        ..Phase::default()
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| scope.spawn(move || drive(addr, seed, phase, conn, rps, begin, end)))
            .collect();
        for h in handles {
            total.merge(h.join().expect("load thread panicked"));
        }
    });
    total.wall_s = begin.elapsed().as_secs_f64();
    total
}

/// A running server with its hot pool in the cache; shut down and joined
/// on drop.
struct Service {
    handle: Option<ServerHandle>,
    addr: String,
    preloaded: Vec<(Key, u64)>,
    preload_failures: u64,
}

impl Service {
    fn start(seed: u64, traced: bool) -> Service {
        let mut cfg = ServeConfig::new().with_workers(WORKERS);
        if traced {
            // Every request lands in the slow-request ring, which the
            // `admin trace` frame returns with its span timings.
            cfg = cfg.with_slow_threshold_us(1);
        }
        let rec = Recorder::new(ObsConfig::new(0).with_ring_capacity(64));
        let handle = Server::start("127.0.0.1:0", cfg, rec).expect("bind a loopback port");
        let addr = handle.addr().to_string();
        let mut service = Service {
            handle: Some(handle),
            addr,
            preloaded: Vec::new(),
            preload_failures: 0,
        };
        let topo = topology();
        let mut client = Client::connect(&service.addr).expect("connect to the local server");
        for i in 0..HOT_POOL {
            let key = Key::Hot(i);
            match client.map(&matrix(seed, key), &topo, None, 0) {
                Ok(r) => service.preloaded.push((key, digest(&r.mapping))),
                Err(_) => service.preload_failures += 1,
            }
        }
        service
    }

    fn admin(&self, kind: AdminKind) -> Json {
        Client::connect(&self.addr)
            .and_then(|mut c| c.admin(kind))
            .unwrap_or(Json::Null)
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
            handle.join();
        }
    }
}

/// Check every reply against the mapper run locally on the same matrix.
fn verify(out: &mut Outcome, seed: u64, replies: &[(Key, u64)]) {
    let topo = topology();
    let mapper = HierarchicalMapper::new();
    let want = |key: Key| digest(mapper.map(&matrix(seed, key), &topo).as_slice());
    let mut hot: HashMap<Key, u64> = HashMap::new();
    let mut wrong = 0;
    for &(key, got) in replies {
        let expected = match key {
            Key::Hot(_) => *hot.entry(key).or_insert_with(|| want(key)),
            Key::Fresh(_) => want(key),
        };
        if expected != got {
            wrong += 1;
        }
    }
    out.count_ops(
        replies.len() as u64,
        wrong,
        "replies equal to HierarchicalMapper::map on the same matrix",
    );
}

/// Count a phase's requests and describe it, flagging a generator that
/// ran late by more than a tenth of the phase's p99.
fn account(out: &mut Outcome, name: &str, phase: &Phase, rps: Option<f64>) {
    out.count_ops(
        phase.sent.max(1),
        phase.failed + u64::from(phase.sent == 0),
        &format!("{name} requests"),
    );
    for e in &phase.errors {
        out.note(format!("{name}: {e}"));
    }
    let offered = rps.map_or("closed loop".to_string(), |r| format!("{r} rps offered"));
    let p99 = phase.p(99.0);
    let flag = if rps.is_some() && phase.max_lag_ms > p99 / 10.0 {
        "  FLAG: generator lag exceeds a tenth of p99"
    } else {
        ""
    };
    out.note(format!(
        "{name} ({offered}, {:.1} s): sent {}, succeeded {}, failed {}, p50 {:.3} ms, p99 {:.3} ms ({} samples), max lag {:.3} ms{flag}",
        phase.wall_s,
        phase.sent,
        phase.ok,
        phase.failed,
        phase.p(50.0),
        p99,
        phase.samples.len(),
        phase.max_lag_ms
    ));
}

fn start_service(out: &mut Outcome, args: &Args, traced: bool) -> Service {
    let (service, setup_s) = timed_setups(|| Service::start(args.seed, traced));
    out.set_default("setup_s", setup_s);
    out.count_ops(HOT_POOL, service.preload_failures, "preload requests");
    service
}

pub fn run(args: &Args, out: &mut Outcome) {
    out.param("threads", THREADS);
    out.param("workers", WORKERS);
    out.param("connections", CONNECTIONS);
    out.param("cache_capacity", ServeConfig::new().cache_capacity);
    out.param("hot_pool", HOT_POOL);
    out.param("fresh_one_in", FRESH_ONE_IN);
    out.param("light_rps", args.light_rps);
    out.param("busy_rps", args.busy_rps);
    if args.trace {
        traced(args, out);
        return;
    }
    let mut service = start_service(out, args, false);
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let busy = run_phase(&service.addr, args.seed, 2, Some(args.busy_rps), half);
    let capacity = run_phase(&service.addr, args.seed, 3, None, half);
    let preloaded = std::mem::take(&mut service.preloaded);
    drop(service);

    account(out, "busy", &busy, Some(args.busy_rps));
    account(out, "capacity", &capacity, None);
    out.set("wall_s", busy.p(50.0) / 1e3);
    out.set("events_per_s", capacity.rate());
    for phase in [&busy, &capacity] {
        verify(out, args.seed, &phase.replies);
    }
    verify(out, args.seed, &preloaded);
}

fn get_f64(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Worker-busy microseconds since the server started, from an `admin
/// stats` document.
fn busy_us(stats: &Json) -> f64 {
    get_f64(stats, "utilization") * get_f64(stats, "uptime_ms") * 1e3 * get_f64(stats, "workers")
}

/// The traced run: unloaded round trips, the protocol and the mapper
/// timed alone, then the light and busy phases on a server that logs
/// every request's spans, scraped through its admin frames. The
/// `paper-pipeline` traced run ends with it too, so the service layers
/// are measured on that workload; metrics the caller already set (input
/// generation, mapper, tracing overhead) keep the caller's values.
pub fn traced(args: &Args, out: &mut Outcome) {
    let topo = topology();
    let start = Instant::now();
    let pool: Vec<CommMatrix> = (0..HOT_POOL)
        .map(|i| matrix(args.seed, Key::Hot(i)))
        .collect();
    out.set_default("workloads.gen_s", start.elapsed().as_secs_f64());
    drop(pool);
    let samples: Vec<CommMatrix> = (0..LAYER_SAMPLES)
        .map(|i| matrix(args.seed, Key::Fresh(i)))
        .collect();

    // The protocol layer alone: encode (to_json + render) and decode
    // (parse + from_json) a request and its reply.
    let (mut enc, mut dec, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    let mapper = HierarchicalMapper::new();
    let mut map_ns = Vec::new();
    for m in &samples {
        let t = Instant::now();
        let mapping = mapper.map(m, &topo).as_slice().to_vec();
        map_ns.push(t.elapsed().as_nanos() as f64);
        let req = Request::Map {
            matrix: m.clone(),
            topo,
            deadline_ms: None,
            delay_ms: 0,
        };
        let resp = Response::Map {
            mapping,
            cached: false,
        };
        let t = Instant::now();
        let (req_text, resp_text) = (req.to_json().render(), resp.to_json().render());
        enc.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let req_back = Json::parse(&req_text).map(|j| Request::from_json(&j));
        let resp_back = Json::parse(&resp_text).map(|j| Response::from_json(&j));
        dec.push(t.elapsed().as_secs_f64() * 1e6);
        out.check(
            matches!(req_back, Ok(Ok(ref r)) if *r == req)
                && matches!(resp_back, Ok(Ok(ref r)) if *r == resp),
            || "a protocol frame did not decode to what was encoded".to_string(),
        );
        // Each frame carries a 4-byte length prefix.
        bytes.push((req_text.len() + resp_text.len() + 8) as f64);
    }
    out.set("serve.protocol.encode_us", report::median(&enc));
    out.set("serve.protocol.decode_us", report::median(&dec));
    out.set("serve.frame_bytes", report::median(&bytes));
    out.set_default("mapping.ns_per_map", report::median(&map_ns));

    let mut service = start_service(out, args, true);
    let before = service.admin(AdminKind::Stats);

    // Unloaded round trips on one connection, split by whether the reply
    // came from the cache.
    let unloaded = {
        let mut client = Client::connect(&service.addr).expect("connect to the local server");
        let mut stream = Stream::new(args.seed, 0, 0);
        let (mut hit, mut miss) = (Vec::new(), Vec::new());
        let mut phase = Phase::default();
        let begin = Instant::now();
        for _ in 0..RTT_REQUESTS {
            let (key, m) = stream.next();
            let t = Instant::now();
            let result = client.map(&m, &topo, None, 0);
            let us = t.elapsed().as_secs_f64() * 1e6;
            if let Ok(r) = &result {
                if r.cached { &mut hit } else { &mut miss }.push(us);
            }
            phase.record(key, result.map(|r| r.mapping), t, begin);
        }
        phase.wall_s = begin.elapsed().as_secs_f64();
        phase.length_s = phase.wall_s;
        out.set("serve.rtt_us.hit", report::median(&hit));
        out.set("serve.rtt_us.miss", report::median(&miss));
        phase
    };

    let length = Duration::from_secs_f64(args.seconds / 3.0);
    let light = run_phase(&service.addr, args.seed, 1, Some(args.light_rps), length);
    let mid = service.admin(AdminKind::Stats);
    let busy = run_phase(&service.addr, args.seed, 2, Some(args.busy_rps), length);
    let after = service.admin(AdminKind::Stats);
    let spans = service.admin(AdminKind::Trace);

    out.set("serve.light.p50_ms", light.p(50.0));
    out.set("serve.light.p99_ms", light.p(99.0));
    out.set("serve.busy.p99_ms", busy.p(99.0));
    let uptime = get_f64(&after, "uptime_ms") - get_f64(&mid, "uptime_ms");
    out.set(
        "serve.worker_util",
        (busy_us(&after) - busy_us(&mid)) / (uptime.max(1.0) * 1e3 * WORKERS as f64),
    );
    let batch = after.get("loop").map_or(0.0, |l| get_f64(l, "batch_p50"));
    out.set("serve.batch.p50", batch);
    let delta = |key: &str| get_f64(&after, key) - get_f64(&before, key);
    let (hits, misses) = (delta("cache_hits"), delta("cache_misses"));
    out.set("serve.cache.hit_ratio", hits / (hits + misses).max(1.0));
    let entries = spans.as_array().unwrap_or(&[]);
    let span = |key: &str| -> Vec<f64> {
        entries
            .iter()
            .filter(|e| e.get("kind").and_then(Json::as_str) == Some("map"))
            .filter_map(|e| e.get(key).and_then(Json::as_f64))
            .collect()
    };
    out.check(!entries.is_empty(), || {
        "the server logged no request spans".to_string()
    });
    out.set(
        "serve.queue_us.p99",
        report::percentile(&span("queue_us"), 99.0),
    );
    out.set("serve.compute_us.p50", report::median(&span("compute_us")));

    // Tracing cost: closed-loop capacity with every request logged
    // against a server that logs none.
    let traced_cap = run_phase(&service.addr, args.seed, 3, None, length / 2);
    let preloaded = std::mem::take(&mut service.preloaded);
    drop(service);
    let plain = Service::start(args.seed, false);
    let plain_cap = run_phase(&plain.addr, args.seed, 3, None, length / 2);
    drop(plain);
    let per_request = |p: &Phase| Duration::from_secs_f64(p.wall_s / p.ok.max(1) as f64);
    out.set_default(
        "trace.overhead_pct",
        report::overhead_pct(per_request(&traced_cap), per_request(&plain_cap)),
    );

    for (name, phase, rps) in [
        ("unloaded", &unloaded, None),
        ("light", &light, Some(args.light_rps)),
        ("busy", &busy, Some(args.busy_rps)),
        ("traced capacity", &traced_cap, None),
        ("capacity", &plain_cap, None),
    ] {
        account(out, name, phase, rps);
        verify(out, args.seed, &phase.replies);
    }
    verify(out, args.seed, &preloaded);
}
