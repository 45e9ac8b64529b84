//! Microbenchmarks for the serving hot path: one request through the
//! zero-copy serve loop (cache-hit replay vs a miss that renders its
//! body, per endpoint class), raw sharded-cache churn under TinyLFU
//! admission, and a full client↔server round trip over a bare
//! `pipe_pair`.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use fw_dns::pdns::PdnsStore;
use fw_http::fast::{read_response_fast, render_get, Scratch};
use fw_http::parse::Limits;
use fw_net::{pipe_pair, Connection};
use fw_serve::cache::CachedResponse;
use fw_serve::{CacheConfig, ServeApi, ServeState};
use fw_types::{DayStamp, Fqdn, Rdata};
use std::io;
use std::net::{Ipv4Addr, SocketAddr};
use std::sync::Arc;
use std::time::Duration;

const FQDN: &str = "a1b2c3d4e5f6.lambda-url.us-east-1.on.aws";

/// A small store with a few identifiable functions plus noise.
fn api() -> ServeApi<PdnsStore> {
    let mut store = PdnsStore::new();
    for i in 0..32 {
        let f = Fqdn::parse(&format!("f{i:011x}.lambda-url.us-east-1.on.aws")).unwrap();
        let ip = Rdata::V4(Ipv4Addr::new(203, 0, 113, (i % 250) as u8 + 1));
        for d in 0..5 {
            store.observe_count(&f, &ip, DayStamp(19_100 + d), 20 + i as u64);
        }
    }
    let f = Fqdn::parse(FQDN).unwrap();
    let ip = Rdata::V4(Ipv4Addr::new(203, 0, 113, 251));
    for d in [19_100, 19_101, 19_102] {
        store.observe_count(&f, &ip, DayStamp(d), 40);
    }
    let noise = Fqdn::parse("www.example.com").unwrap();
    store.observe_count(&noise, &ip, DayStamp(19_100), 5);
    ServeApi::new(
        Arc::new(ServeState::build(store, 1)),
        CacheConfig::default(),
    )
}

/// Hands the serve loop one GET, then EOF; replies are discarded.
/// Rewinding it replays the request.
#[derive(Debug)]
struct OneShot {
    request: Vec<u8>,
    pos: usize,
}

impl OneShot {
    fn get(target: &str) -> OneShot {
        let mut request = Vec::new();
        render_get(&mut request, target, "api.sim");
        OneShot { request, pos: 0 }
    }

    fn rewind(&mut self) -> &mut OneShot {
        self.pos = 0;
        self
    }
}

impl Connection for OneShot {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        black_box(buf.len());
        Ok(())
    }
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = (self.request.len() - self.pos).min(buf.len());
        buf[..n].copy_from_slice(&self.request[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
    fn set_read_timeout(&mut self, _timeout: Option<Duration>) -> io::Result<()> {
        Ok(())
    }
    fn shutdown_write(&mut self) {}
    fn peer_addr(&self) -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }
}

fn bench_serve_fast(c: &mut Criterion) {
    let api = api();
    let mut scratch = Scratch::new();
    let mut verdict = OneShot::get(&format!("/v1/verdict/{FQDN}"));
    let mut figures = OneShot::get("/v1/figures/ingress");

    let mut g = c.benchmark_group("serve_fast");
    g.throughput(Throughput::Elements(1));
    // Warm the cache, then measure the pure hit path: parse, route, one
    // write of the stored wire image.
    api.serve_fast(verdict.rewind(), &mut scratch);
    g.bench_function("verdict_hit", |b| {
        b.iter(|| api.serve_fast(verdict.rewind(), &mut scratch))
    });
    g.bench_function("figures_hit", |b| {
        api.serve_fast(figures.rewind(), &mut scratch);
        b.iter(|| api.serve_fast(figures.rewind(), &mut scratch))
    });
    // Cold compute: a fresh API per batch so every request is a miss
    // and renders its body (a 20-entry page for the candidates list).
    for (name, target) in [
        ("verdict_miss", format!("/v1/verdict/{FQDN}")),
        ("usage_miss", format!("/v1/usage/{FQDN}")),
        ("candidates_miss", "/v1/candidates?offset=0&limit=20".into()),
    ] {
        let mut request = OneShot::get(&target);
        g.bench_function(name, |b| {
            b.iter_batched(
                api_fresh,
                |fresh| fresh.serve_fast(request.rewind(), &mut scratch),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn api_fresh() -> ServeApi<PdnsStore> {
    api()
}

fn bench_cache(c: &mut Criterion) {
    let body = Arc::new(CachedResponse::render(
        200,
        "application/json",
        &[b'x'; 256],
    ));
    let keys: Vec<String> = (0..2048).map(|i| format!("/v1/verdict/key-{i}")).collect();

    let mut g = c.benchmark_group("serve_cache");
    g.throughput(Throughput::Elements(1));

    // Pure hit path: capacity covers the whole keyspace.
    let hot = fw_serve::ShardedCache::new(CacheConfig {
        shards: 16,
        capacity: 4096,
        ..CacheConfig::default()
    });
    for k in &keys {
        hot.put(k, Arc::clone(&body));
    }
    let mut i = 0usize;
    g.bench_function("get_hit", |b| {
        b.iter(|| {
            i = (i + 1) % keys.len();
            black_box(hot.get(&keys[i]).is_some())
        })
    });

    // Churn under admission pressure: 2048 keys over 1024 slots keeps
    // every shard full, so each miss-then-put runs the TinyLFU filter.
    let churn = fw_serve::ShardedCache::new(CacheConfig {
        shards: 16,
        capacity: 1024,
        ..CacheConfig::default()
    });
    for k in &keys {
        churn.put(k, Arc::clone(&body));
    }
    let mut j = 0usize;
    g.bench_function("get_put_churn_admission", |b| {
        b.iter(|| {
            j = (j + 1) % keys.len();
            if churn.get(&keys[j]).is_none() {
                churn.put(&keys[j], Arc::clone(&body));
            }
        })
    });
    g.finish();
}

/// Full round trip over a bare `pipe_pair`: fast client renderer and
/// response parser on this thread, the zero-copy `serve_fast` loop on
/// a server thread. Measures the whole per-request path the load
/// harness exercises, minus SimNet scheduling.
fn bench_roundtrip(c: &mut Criterion) {
    let api = Arc::new(api());
    let (mut client, mut server) = pipe_pair(
        "10.0.0.1:50000".parse().unwrap(),
        "203.0.113.1:80".parse().unwrap(),
    );
    let srv_api = Arc::clone(&api);
    let srv = std::thread::spawn(move || {
        let mut scratch = Scratch::new();
        srv_api.serve_fast(&mut server, &mut scratch);
    });
    let target = format!("/v1/verdict/{FQDN}");
    let mut wire = Vec::with_capacity(256);
    let mut parse = Scratch::new();
    let limits = Limits::default();
    // Warm the cache so the steady state is the hit path.
    wire.clear();
    render_get(&mut wire, &target, "api.sim");
    client.write_all(&wire).unwrap();
    read_response_fast(&mut client, &mut parse, &limits, false).unwrap();

    let mut g = c.benchmark_group("serve_roundtrip");
    g.throughput(Throughput::Elements(1));
    g.bench_function("verdict_hit_e2e", |b| {
        b.iter(|| {
            wire.clear();
            render_get(&mut wire, &target, "api.sim");
            client.write_all(&wire).unwrap();
            let resp = read_response_fast(&mut client, &mut parse, &limits, false).unwrap();
            black_box(resp.status)
        })
    });
    g.finish();
    client.shutdown_write();
    drop(client);
    let _ = srv.join();
}

criterion_group!(benches, bench_serve_fast, bench_cache, bench_roundtrip);
criterion_main!(benches);
