//! `serve_mixed`: the query API over a frozen world (`ServeState`),
//! driven by the closed-loop SimNet load harness
//! (`fw_serve::load::run_load`) against the pooled fast serve plane.
//! Untraced iterations register `ServeApi::serve_pool`; the traced
//! iteration registers its own `SimNet::listen_pool` that wraps each
//! connection in a timing `Connection` and calls `ServeApi::serve_fast`
//! — exactly what `serve_pool` does — and must produce the same digest.

use crate::measure::{
    measure_loop, measure_setups, nproc, percentile_truncated_us, percentile_us, phase, Phase,
    Usage,
};
use crate::report::{Checks, Hex, Layer, Outcome};
use crate::RunConfig;
use fw_dns::pdns::PdnsStore;
use fw_http::fast::read_request_fast;
use fw_http::parse::Limits;
use fw_http::Scratch;
use fw_net::{Connection, SimNet};
use fw_serve::load::run_load;
use fw_serve::{CacheConfig, LoadConfig, LoadPlan, LoadReport, ServeApi, ServeState};
use fw_workload::{World, WorldConfig};
use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const WORLD_SCALE: f64 = 0.1;
/// Clients per load run (each one connection, 1–3 keep-alive requests).
const CLIENTS: u64 = 30_000;
const CACHE_CAPACITY: usize = 8_192;
const WINDOW: Duration = Duration::from_secs(3600);
/// Set-up repetitions (world generation + `ServeState::build`) per run.
const SETUPS: usize = 3;
/// Pinned outputs at the sizes above, seed 42 (as printed by
/// `fw_serve_gate --clients 30000 --cache-capacity 8192`).
const PINNED_SEED: u64 = 42;
const PINNED_REQUESTS: u64 = 60_103;
const PINNED_DIGEST: u64 = 0x92a2_1a6d_b634_a02f;
const ADDR: &str = "10.99.0.1:8080";

struct Input {
    state: Arc<ServeState<PdnsStore>>,
    plan: LoadPlan,
}

fn setup(seed: u64) -> Input {
    let world = World::generate(WorldConfig {
        gen_workers: nproc(),
        ..WorldConfig::usage(seed, WORLD_SCALE)
    });
    let state = Arc::new(ServeState::build(world.pdns, nproc()));
    let plan = LoadPlan {
        function_fqdns: Arc::new(state.function_fqdns()),
    };
    Input { state, plan }
}

fn load_config(seed: u64) -> LoadConfig {
    LoadConfig {
        clients: CLIENTS,
        max_requests_per_client: 3,
        workers: nproc(),
        seed,
        window: WINDOW,
        ..LoadConfig::default()
    }
}

fn new_api(input: &Input) -> Arc<ServeApi<PdnsStore>> {
    Arc::new(ServeApi::new(
        Arc::clone(&input.state),
        CacheConfig {
            capacity: CACHE_CAPACITY,
            ..CacheConfig::default()
        },
    ))
}

/// One untraced load run against `serve_pool`.
fn untraced(input: &Input, seed: u64) -> (LoadReport, Phase) {
    let net = SimNet::new(seed);
    let addr: SocketAddr = ADDR.parse().expect("static addr");
    new_api(input).serve_pool(&net, addr, nproc());
    phase(|| run_load(&net, addr, &load_config(seed), &input.plan))
}

fn check_report(checks: &mut Checks, seed: u64, report: &LoadReport, reference: &LoadReport) {
    checks.expect_eq(
        "digest vs first run",
        Hex(report.digest),
        Hex(reference.digest),
    );
    checks.expect_eq("requests vs first run", report.requests, reference.requests);
    checks.expect_eq("status_other", report.status_other, 0);
    if seed == PINNED_SEED {
        checks.expect_eq("requests (pinned)", report.requests, PINNED_REQUESTS);
        checks.expect_eq("digest (pinned)", Hex(report.digest), Hex(PINNED_DIGEST));
    }
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    if cfg.trace {
        return run_traced(cfg);
    }
    let mut input = None;
    let setups = measure_setups(SETUPS, || {
        drop(input.take());
        let (i, ph) = phase(|| setup(cfg.seed));
        input = Some(i);
        Ok(ph)
    })?;
    let input = input.expect("at least one set-up");
    let runs = measure_loop("iteration", cfg.seconds, 3, |_| {
        Ok(untraced(&input, cfg.seed))
    })?;
    let mut checks = Checks::default();
    for (r, _) in &runs {
        check_report(&mut checks, cfg.seed, r, &runs[0].0);
    }
    let mut out = Outcome::new(checks);
    let measured: Vec<(u64, Phase)> = runs.iter().map(|(r, p)| (r.requests, *p)).collect();
    out.end_to_end(&setups, &measured);
    out.failed = runs.iter().map(|(r, _)| r.status_other).sum();
    knobs(&mut out, &runs[0].0);
    Ok(out)
}

fn knobs(out: &mut Outcome, report: &LoadReport) {
    out.knob("world_scale", WORLD_SCALE);
    out.knob("clients", CLIENTS);
    out.knob("requests", report.requests);
    out.knob("cache_capacity", CACHE_CAPACITY);
    out.knob("load_workers", nproc());
    out.knob("serve_workers", nproc());
    out.knob("gen_workers", nproc());
}

/// Server-side timing shared by the pool workers.
#[derive(Default)]
struct ServerTimes {
    /// Per request: from the `read` that completed it to the call of
    /// its `write_all` (parse, route, cache, render). The write itself
    /// is left out: it wakes the client, which on a shared core runs
    /// before the write returns.
    per_request: Vec<Duration>,
    /// Handler time outside blocking reads.
    busy: Duration,
    /// The first request bytes the server read, for the parse replay.
    request_bytes: Vec<u8>,
}

const RECORD_BYTES: usize = 1 << 20;

/// The timing connection handed to `serve_fast`.
#[derive(Debug)]
struct ServerConn {
    inner: Box<dyn Connection>,
    last_read: Instant,
    read_wait: Duration,
    per_request: Vec<Duration>,
    record: Option<Vec<u8>>,
}

impl Connection for ServerConn {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.per_request.push(self.last_read.elapsed());
        self.inner.write_all(buf)
    }
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let t = Instant::now();
        let r = self.inner.read(buf);
        self.last_read = Instant::now();
        self.read_wait += self.last_read - t;
        if let (Ok(n), Some(rec)) = (&r, self.record.as_mut()) {
            rec.extend_from_slice(&buf[..*n]);
        }
        r
    }
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(timeout)
    }
    fn shutdown_write(&mut self) {
        self.inner.shutdown_write()
    }
    fn peer_addr(&self) -> SocketAddr {
        self.inner.peer_addr()
    }
}

/// Replays recorded request bytes into `read_request_fast`.
#[derive(Debug)]
struct ReplayConn {
    bytes: Vec<u8>,
    pos: usize,
}

impl Connection for ReplayConn {
    fn write_all(&mut self, _buf: &[u8]) -> io::Result<()> {
        Ok(())
    }
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.bytes.len() - self.pos);
        buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
    fn set_read_timeout(&mut self, _timeout: Option<Duration>) -> io::Result<()> {
        Ok(())
    }
    fn shutdown_write(&mut self) {}
    fn peer_addr(&self) -> SocketAddr {
        ADDR.parse().expect("static addr")
    }
}

/// Mean `read_request_fast` time per request over `bytes`, in ns.
fn parse_ns(bytes: Vec<u8>) -> f64 {
    let mut conn = ReplayConn { bytes, pos: 0 };
    let mut scratch = Scratch::new();
    let limits = Limits::default();
    let mut requests = 0u64;
    let t = Instant::now();
    while read_request_fast(&mut conn, &mut scratch, &limits).is_ok() {
        requests += 1;
    }
    t.elapsed().as_nanos() as f64 / requests.max(1) as f64
}

/// The traced load run: `serve_fast` behind a timing connection.
fn traced_load(input: &Input, seed: u64) -> (LoadReport, Phase, ServerTimes, fw_serve::CacheStats) {
    let net = SimNet::new(seed);
    let addr: SocketAddr = ADDR.parse().expect("static addr");
    let api = new_api(input);
    let times = Arc::new(Mutex::new(ServerTimes::default()));
    {
        let api = Arc::clone(&api);
        let times = Arc::clone(&times);
        net.listen_pool(addr, nproc(), move |_w| {
            let api = Arc::clone(&api);
            let times = Arc::clone(&times);
            let mut scratch = Scratch::new();
            move |conn: Box<dyn Connection>| {
                let start = Instant::now();
                let record = times.lock().expect("times lock").request_bytes.len() < RECORD_BYTES;
                let mut conn = ServerConn {
                    inner: conn,
                    last_read: start,
                    read_wait: Duration::ZERO,
                    per_request: Vec::with_capacity(4),
                    record: record.then(Vec::new),
                };
                let _ = conn.set_read_timeout(None);
                api.serve_fast(&mut conn, &mut scratch);
                let busy = start.elapsed().saturating_sub(conn.read_wait);
                let mut t = times.lock().expect("times lock");
                t.busy += busy;
                t.per_request.extend_from_slice(&conn.per_request);
                if let Some(rec) = conn.record {
                    t.request_bytes.extend_from_slice(&rec);
                }
            }
        });
    }
    let (report, ph) = phase(|| run_load(&net, addr, &load_config(seed), &input.plan));
    // A client can finish before its server handler has recorded the
    // connection; give the handlers a moment to catch up.
    let deadline = Instant::now() + Duration::from_secs(5);
    while times.lock().expect("times lock").per_request.len() < report.requests as usize
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(1));
    }
    let cache = api.cache_stats();
    let times = std::mem::take(&mut *times.lock().expect("times lock"));
    (report, ph, times, cache)
}

/// Median time of each endpoint's body renderer (the cost a cache miss
/// pays), in µs, over a spread of the plan's keys.
fn render_p50s(input: &Input) -> [(&'static str, f64); 5] {
    let fqdns = &input.plan.function_fqdns;
    let keys: Vec<&str> = fqdns
        .iter()
        .step_by((fqdns.len() / 400).max(1))
        .map(String::as_str)
        .collect();
    let time_each = |f: &dyn Fn(usize) -> (u16, String), n: usize| -> f64 {
        let mut samples: Vec<Duration> = (0..n)
            .map(|i| {
                let t = Instant::now();
                std::hint::black_box(f(i));
                t.elapsed()
            })
            .collect();
        percentile_us(&mut samples, 50.0)
    };
    let state = &input.state;
    let figures = ["monthly_new", "monthly_requests", "ingress", "invocation"];
    [
        (
            "serve.render_verdict_p50_us",
            time_each(&|i| state.verdict_body(keys[i]), keys.len()),
        ),
        (
            "serve.render_usage_p50_us",
            time_each(&|i| state.usage_body(keys[i]), keys.len()),
        ),
        (
            "serve.render_abuse_p50_us",
            time_each(&|i| state.abuse_body(keys[i]), keys.len()),
        ),
        (
            "serve.render_candidates_p50_us",
            time_each(&|i| state.candidates_body((i % 8) * 20, 20), 200),
        ),
        (
            "serve.render_figure_p50_us",
            time_each(&|i| state.figure_body(figures[i % 4]), 40),
        ),
    ]
}

/// Bare SimNet request/response round trips at the serve plane's
/// thread counts (`nproc` pool workers, `nproc` clients): the floor
/// under the client-observed latency. Returns the p50 in µs.
fn roundtrip_p50_us(seed: u64) -> f64 {
    const CONNS: u64 = 2_000;
    const PER_CONN: usize = 2;
    const MSG: usize = 160;
    let net = SimNet::new(seed);
    let addr: SocketAddr = ADDR.parse().expect("static addr");
    net.listen_pool(addr, nproc(), |_w| {
        move |mut conn: Box<dyn Connection>| {
            let _ = conn.set_read_timeout(None);
            let mut buf = [0u8; MSG];
            while conn.read_exact(&mut buf).is_ok() {
                if conn.write_all(&buf).is_err() {
                    break;
                }
            }
            conn.shutdown_write();
        }
    });
    let workers = nproc() as u64;
    let handles: Vec<_> = (0..workers)
        .map(|w| {
            let registration = net.clock().register();
            let net = net.clone();
            std::thread::spawn(move || {
                let _active = registration.map(|r| r.activate());
                let mut samples = Vec::new();
                let mut buf = [7u8; MSG];
                for id in (w..CONNS).step_by(workers as usize) {
                    let mut conn = net.connect_flow_id(addr, id).expect("echo connect");
                    conn.set_read_timeout(None).expect("timeout");
                    for _ in 0..PER_CONN {
                        let t = Instant::now();
                        conn.write_all(&buf).expect("echo write");
                        conn.read_exact(&mut buf).expect("echo read");
                        samples.push(t.elapsed());
                    }
                }
                samples
            })
        })
        .collect();
    let mut all: Vec<Duration> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("echo client panicked"))
        .collect();
    percentile_us(&mut all, 50.0)
}

fn run_traced(cfg: &RunConfig) -> Result<Outcome, String> {
    let input = setup(cfg.seed);
    let (reference, untraced_phase) = untraced(&input, cfg.seed);
    let u0 = Usage::now();
    let (report, ph, times, cache) = traced_load(&input, cfg.seed);
    let ctx = Usage::now().since(&u0).ctx_switches;
    let mut checks = Checks::default();
    check_report(&mut checks, cfg.seed, &reference, &reference);
    check_report(&mut checks, cfg.seed, &report, &reference);
    checks.expect_eq(
        "server-side responses",
        times.per_request.len() as u64,
        report.requests,
    );

    let client_p50 = percentile_truncated_us(&report.latencies_us, 50.0);
    let client_p99 = percentile_truncated_us(&report.latencies_us, 99.0);
    let mut server = times.per_request.clone();
    let server_p50 = percentile_us(&mut server, 50.0);
    let server_p99 = percentile_us(&mut server, 99.0);
    let server_s: f64 = times.per_request.iter().map(Duration::as_secs_f64).sum();
    // Whole-µs client latencies; +0.5 µs each centres the truncation.
    let client_s: f64 = report
        .latencies_us
        .iter()
        .map(|&us| (us as f64 + 0.5) / 1e6)
        .sum();
    let load_workers = nproc() as f64;
    let layers = vec![
        Layer {
            name: "serve.server_s",
            busy_s: server_s,
            threads: load_workers,
            moves: "items_per_s",
        },
        Layer {
            name: "net.request_gap_s",
            busy_s: (client_s - server_s).max(0.0),
            threads: load_workers,
            moves: "items_per_s",
        },
    ];
    let mut out = Outcome::new(checks);
    out.attempted = reference.requests + report.requests;
    out.failed = reference.status_other + report.status_other;
    out.traced(&ph, untraced_phase.wall_s, layers);
    out.set("serve.client_p50_us", client_p50);
    out.set("serve.client_p99_us", client_p99);
    out.set("serve.server_p50_us", server_p50);
    out.set("serve.server_p99_us", server_p99);
    out.set("serve.client_gap_p50_us", client_p50 - server_p50);
    out.set(
        "serve.worker_busy_frac",
        times.busy.as_secs_f64() / (ph.wall_s * nproc() as f64),
    );
    out.set(
        "serve.error_rate",
        report.status_other as f64 / report.requests.max(1) as f64,
    );
    out.set("cache.hit_rate", cache.hit_rate());
    out.set("cache.evictions", cache.evictions as f64);
    out.set("cache.admit_reject", cache.admit_reject as f64);
    out.set(
        "net.ctx_switches_per_req",
        ctx as f64 / report.requests.max(1) as f64,
    );
    for (name, us) in render_p50s(&input) {
        out.set(name, us);
    }
    out.set("http.parse_request_ns", parse_ns(times.request_bytes));
    out.set("net.roundtrip_p50_us", roundtrip_p50_us(cfg.seed));
    eprintln!(
        "[serve] {} requests, digest {:016x}, client p50 {client_p50:.2} us p99 {client_p99:.2} us, server p50 {server_p50:.2} us, hit rate {:.3}",
        report.requests,
        report.digest,
        cache.hit_rate(),
    );
    knobs(&mut out, &report);
    Ok(out)
}
