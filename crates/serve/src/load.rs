//! SimNet load harness: millions of keep-alive virtual clients.
//!
//! Topology and virtual-time model (DESIGN.md §15): the API runs on a
//! SimNet `listen_pool` (`ServeApi::serve_pool`), a fixed set of
//! clock-registered accept workers, each running the keep-alive serve
//! loop on the connections steered to it. The harness side
//! is a fixed pool of pre-registered worker threads
//! (`fw_analysis::par::fork`); client ids are
//! partitioned round-robin (`id % workers`), and each worker plays its
//! clients one after another: sleep the *virtual* clock to the client's
//! arrival offset, connect, issue the client's keep-alive request
//! burst, disconnect. While any request is in flight both ends are
//! runnable and the clock is pinned, so request handling is
//! instantaneous in virtual time and wall time measures real server
//! cost; between arrivals every registered thread is blocked and the
//! clock jumps. One run compresses an hour of offered load into
//! wall-seconds without losing the arrival schedule.
//!
//! Determinism: everything a client does — arrival offset, burst
//! length, endpoint mix, target selection — comes from its own RNG
//! stream (`fnv::stream_seed(seed, client_id)`), so the multiset of
//! requests is independent of worker count and wall scheduling. Each
//! client's *response byte stream* is FNV-1a-digested as it is read off
//! the wire (`TapConn`), and per-client digests fold into the run
//! digest commutatively (wrapping add + xor of a mixed per-client
//! word) — two runs with the same seed are byte-identical iff their
//! digests match, at any worker count.

use fw_analysis::par::fork;
use fw_http::fast::{read_response_fast, render_get, Scratch};
use fw_http::parse::Limits;
use fw_net::{Connection, SimNet};
use fw_types::fnv::{self, fnv1a, mix, stream_seed};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::fmt::Write as _;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Host header every client sends.
const HOST: &str = "api.faaswild.sim";

/// Request mix weights (relative, not normalized).
#[derive(Debug, Clone, Copy)]
pub struct MixWeights {
    pub verdict: u32,
    pub usage: u32,
    pub abuse: u32,
    pub candidates: u32,
    pub figures: u32,
    pub status: u32,
    /// Lookups for fqdns nobody ever observed (the 404 path).
    pub unknown: u32,
}

impl Default for MixWeights {
    fn default() -> Self {
        MixWeights {
            verdict: 50,
            usage: 20,
            abuse: 10,
            candidates: 5,
            figures: 5,
            status: 2,
            unknown: 8,
        }
    }
}

impl MixWeights {
    fn total(&self) -> u32 {
        self.verdict
            + self.usage
            + self.abuse
            + self.candidates
            + self.figures
            + self.status
            + self.unknown
    }
}

/// Harness knobs.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Distinct virtual clients (one connection each).
    pub clients: u64,
    /// Per-client request burst: uniform in `1..=max_requests_per_client`.
    pub max_requests_per_client: u32,
    /// Worker threads driving clients (1 = serial).
    pub workers: usize,
    pub seed: u64,
    /// Virtual window client arrivals spread over.
    pub window: Duration,
    pub mix: MixWeights,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            clients: 10_000,
            max_requests_per_client: 3,
            workers: 8,
            seed: 42,
            window: Duration::from_secs(3600),
            mix: MixWeights::default(),
        }
    }
}

/// The key universe clients draw targets from.
#[derive(Debug, Clone)]
pub struct LoadPlan {
    /// Identified function fqdns (report order).
    pub function_fqdns: Arc<Vec<String>>,
}

/// Aggregated outcome of one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    pub clients: u64,
    pub requests: u64,
    /// Status class counts: deterministic per (seed, state).
    pub status_ok: u64,
    pub status_not_found: u64,
    pub status_other: u64,
    /// Requests per endpoint class, [`crate::Endpoint::ALL`] order.
    pub endpoint_counts: [u64; 7],
    /// Commutative FNV fold over every client's response byte stream.
    pub digest: u64,
    pub response_bytes: u64,
    /// Virtual time at the end of the run (≈ the configured window).
    pub virtual_us: u64,
    /// Wall time of the whole run.
    pub wall_ms: f64,
    /// Per-request wall latencies in µs, sorted ascending.
    pub latencies_us: Vec<u32>,
}

impl LoadReport {
    /// Nearest-rank percentile over the sorted latencies, in µs.
    pub fn latency_percentile_us(&self, p: f64) -> f64 {
        if self.latencies_us.is_empty() {
            return f64::NAN;
        }
        let rank = ((p / 100.0) * self.latencies_us.len() as f64).ceil() as usize;
        self.latencies_us[rank.clamp(1, self.latencies_us.len()) - 1] as f64
    }

    /// Achieved throughput: requests over the *wall* time the run took.
    /// This is the figure that measures real server cost.
    pub fn achieved_qps_wall(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            return 0.0;
        }
        self.requests as f64 / (self.wall_ms / 1e3)
    }

    /// Offered load: requests over the *virtual* arrival window. This
    /// is a property of the schedule, not of server speed — two runs
    /// with the same seed offer the same virtual qps no matter how fast
    /// the server drains them.
    pub fn offered_qps_virtual(&self) -> f64 {
        if self.virtual_us == 0 {
            return 0.0;
        }
        self.requests as f64 / (self.virtual_us as f64 / 1e6)
    }
}

/// Connection wrapper that FNV-digests every byte read — the client's
/// view of the server's exact response byte stream, framing included.
/// `mute` pauses the fold for the one endpoint whose body is *meant* to
/// vary run-to-run (`/v1/status` reports live cache counters, which
/// depend on wall scheduling); everything else is a pure function of
/// the frozen state and must digest identically.
struct TapConn {
    inner: Box<dyn Connection>,
    digest: u64,
    bytes: u64,
    mute: bool,
}

impl TapConn {
    fn new(inner: Box<dyn Connection>) -> TapConn {
        TapConn {
            inner,
            digest: fnv::OFFSET,
            bytes: 0,
            mute: false,
        }
    }

    fn fold(&mut self, chunk: &[u8]) {
        if !self.mute {
            self.digest = fnv::update(self.digest, chunk);
        }
        self.bytes += chunk.len() as u64;
    }
}

impl std::fmt::Debug for TapConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TapConn({:?})", self.inner)
    }
}

impl Connection for TapConn {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.inner.write_all(buf)
    }
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.fold(&buf[..n]);
        Ok(n)
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

#[derive(Default)]
struct WorkerAcc {
    requests: u64,
    status_ok: u64,
    status_not_found: u64,
    status_other: u64,
    endpoint_counts: [u64; 7],
    digest_xor: u64,
    digest_sum: u64,
    response_bytes: u64,
    latencies_us: Vec<u32>,
}

/// Pick a target into the reused `out` buffer, skewed so a small head
/// of fqdns takes most traffic (cubing the uniform draw sends ~22% of
/// lookups to the top 1%). The RNG draw sequence is identical to the
/// historical allocating version, so seeds keep their digests.
fn gen_target(rng: &mut SmallRng, plan: &LoadPlan, mix: &MixWeights, out: &mut String) -> usize {
    out.clear();
    let pick_fqdn = |rng: &mut SmallRng| -> &str {
        let n = plan.function_fqdns.len();
        if n == 0 {
            return "empty.invalid";
        }
        let r = rng.gen::<f64>();
        &plan.function_fqdns[((r * r * r) * n as f64) as usize % n]
    };
    let mut w = rng.gen_range(0..mix.total());
    if w < mix.verdict {
        let _ = write!(out, "/v1/verdict/{}", pick_fqdn(rng));
        return 1;
    }
    w -= mix.verdict;
    if w < mix.usage {
        let _ = write!(out, "/v1/usage/{}", pick_fqdn(rng));
        return 2;
    }
    w -= mix.usage;
    if w < mix.abuse {
        let _ = write!(out, "/v1/abuse/{}", pick_fqdn(rng));
        return 3;
    }
    w -= mix.abuse;
    if w < mix.candidates {
        let offset = rng.gen_range(0u32..8) * 20;
        let _ = write!(out, "/v1/candidates?offset={offset}&limit=20");
        return 4;
    }
    w -= mix.candidates;
    if w < mix.figures {
        let name =
            ["monthly_new", "monthly_requests", "ingress", "invocation"][rng.gen_range(0usize..4)];
        let _ = write!(out, "/v1/figures/{name}");
        return 5;
    }
    w -= mix.figures;
    if w < mix.status {
        out.push_str("/v1/status");
        return 0;
    }
    let _ = write!(
        out,
        "/v1/verdict/miss-{}.not-observed.example",
        rng.gen_range(0u32..10_000)
    );
    6
}

/// Per-worker reusable buffers: one response-parse scratch, one target
/// string, one request wire buffer. Nothing here allocates per request
/// once warm.
struct ClientScratch {
    parse: Scratch,
    target: String,
    wire: Vec<u8>,
}

impl ClientScratch {
    fn new() -> ClientScratch {
        ClientScratch {
            parse: Scratch::new(),
            target: String::with_capacity(128),
            wire: Vec::with_capacity(256),
        }
    }
}

/// One client's whole session; returns its response-stream digest.
fn run_client(
    net: &SimNet,
    addr: SocketAddr,
    id: u64,
    config: &LoadConfig,
    plan: &LoadPlan,
    acc: &mut WorkerAcc,
    scratch: &mut ClientScratch,
) -> io::Result<u64> {
    let mut rng = SmallRng::seed_from_u64(stream_seed(config.seed, id));
    let window_us = config.window.as_micros() as u64;
    let offset_us = if window_us == 0 {
        0
    } else {
        rng.gen_range(0..window_us)
    };
    let clock = net.clock().clone();
    {
        use fw_net::ClockSource;
        let now = clock.now_us();
        if offset_us > now {
            clock.sleep(Duration::from_micros(offset_us - now));
        }
    }
    let mut conn = TapConn::new(net.connect_flow_id(addr, id)?);
    conn.set_read_timeout(None)?;
    let limits = Limits::default();
    let burst = rng.gen_range(1..=config.max_requests_per_client.max(1));
    for _ in 0..burst {
        let ep = gen_target(&mut rng, plan, &config.mix, &mut scratch.target);
        // The rendered request is byte-identical to
        // `write_request(&Request::get(target, HOST))`.
        scratch.wire.clear();
        render_get(&mut scratch.wire, &scratch.target, HOST);
        // Status bodies carry live cache counters — scheduling-dependent
        // by design — so they stay out of the determinism digest.
        conn.mute = ep == 0;
        let t = Instant::now();
        conn.write_all(&scratch.wire)?;
        let resp =
            read_response_fast(&mut conn, &mut scratch.parse, &limits, false).map_err(io_of)?;
        conn.mute = false;
        acc.latencies_us
            .push(t.elapsed().as_micros().min(u32::MAX as u128) as u32);
        acc.requests += 1;
        acc.endpoint_counts[ep] += 1;
        match resp.status {
            200..=299 => acc.status_ok += 1,
            404 => acc.status_not_found += 1,
            _ => acc.status_other += 1,
        }
    }
    acc.response_bytes += conn.bytes;
    Ok(conn.digest)
}

fn io_of(e: fw_http::parse::HttpError) -> io::Error {
    match e {
        fw_http::parse::HttpError::Io(e) => e,
        other => io::Error::new(io::ErrorKind::InvalidData, format!("{other:?}")),
    }
}

/// Drive `config.clients` virtual clients against `addr` on `net`.
/// Panics if any client's exchange fails — the harness runs over a
/// fault-free SimNet, so a failure is a server bug, not weather.
pub fn run_load(
    net: &SimNet,
    addr: SocketAddr,
    config: &LoadConfig,
    plan: &LoadPlan,
) -> LoadReport {
    let span = fw_obs::span("serve/load");
    let workers = config.workers.max(1);
    let parts = fork(workers, "", Some(net.clock()), |w| {
        let mut acc = WorkerAcc::default();
        let mut scratch = ClientScratch::new();
        let mut id = w as u64;
        while id < config.clients {
            let digest = run_client(net, addr, id, config, plan, &mut acc, &mut scratch)
                .unwrap_or_else(|e| panic!("client {id} failed: {e}"));
            let word = mix(digest ^ mix(id.wrapping_add(1)));
            acc.digest_xor ^= word;
            acc.digest_sum = acc.digest_sum.wrapping_add(word);
            id += workers as u64;
        }
        acc
    });
    let mut total = WorkerAcc::default();
    for acc in parts {
        total.requests += acc.requests;
        total.status_ok += acc.status_ok;
        total.status_not_found += acc.status_not_found;
        total.status_other += acc.status_other;
        for (t, c) in total.endpoint_counts.iter_mut().zip(acc.endpoint_counts) {
            *t += c;
        }
        total.digest_xor ^= acc.digest_xor;
        total.digest_sum = total.digest_sum.wrapping_add(acc.digest_sum);
        total.response_bytes += acc.response_bytes;
        total.latencies_us.extend_from_slice(&acc.latencies_us);
    }
    total.latencies_us.sort_unstable();
    let virtual_us = {
        use fw_net::ClockSource;
        net.clock().now_us()
    };
    LoadReport {
        clients: config.clients,
        requests: total.requests,
        status_ok: total.status_ok,
        status_not_found: total.status_not_found,
        status_other: total.status_other,
        endpoint_counts: total.endpoint_counts,
        digest: fnv1a(
            &[
                total.digest_xor.to_le_bytes(),
                total.digest_sum.to_le_bytes(),
            ]
            .concat(),
        ),
        response_bytes: total.response_bytes,
        virtual_us,
        wall_ms: span.elapsed().as_secs_f64() * 1e3,
        latencies_us: total.latencies_us,
    }
}
