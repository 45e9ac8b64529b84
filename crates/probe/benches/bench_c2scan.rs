//! Criterion benches for the C2-scan critical path (§5.1).
//!
//! `c2_scan_pipelined` replays the full 26-signature corpus against a
//! planted relay as one pipelined flight (one dial and one write, the
//! way `C2Scanner::scan_one` sends it); `c2_scan_reuse_on` sends the
//! same probes one `send` at a time through the client's keep-alive
//! slot (one dial, one round trip per signature); `c2_scan_reuse_off`
//! adds `Connection: close` to every request — the pre-keep-alive
//! behavior, one dial and handshake per signature.
//! `resolver_read_path` measures warm cache hits through
//! `Resolver::resolve` under the shard read lock.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use fw_abuse::c2::{corpus, relay_template};
use fw_cloud::behavior::Behavior;
use fw_cloud::platform::{CloudPlatform, DeploySpec, PlatformConfig};
use fw_dns::resolver::Resolver;
use fw_http::client::{Batch, ClientConfig, HttpClient, SimDialer};
use fw_net::SimNet;
use fw_probe::c2probe::C2Scanner;
use fw_types::{Fqdn, ProviderId, Rdata, RecordType};
use parking_lot::RwLock;
use std::net::{IpAddr, SocketAddr};
use std::sync::Arc;
use std::time::Duration;

fn world() -> (CloudPlatform, SimNet, Arc<RwLock<Resolver>>) {
    let net = SimNet::new(17);
    let resolver = Arc::new(RwLock::new(Resolver::new()));
    let platform = CloudPlatform::new(net.clone(), resolver.clone(), PlatformConfig::default());
    (platform, net, resolver)
}

fn deploy_relay(platform: &CloudPlatform, family_idx: usize) -> Fqdn {
    let tpl = relay_template(family_idx);
    platform
        .deploy(DeploySpec::new(
            ProviderId::Tencent,
            Behavior::C2Relay {
                family: tpl.family.to_string(),
                trigger_path: tpl.trigger_path,
                trigger_magic: tpl.trigger_magic,
                reply: tpl.reply,
            },
        ))
        .unwrap()
        .fqdn
}

fn relay_addr(resolver: &Arc<RwLock<Resolver>>, fqdn: &Fqdn, port: u16) -> SocketAddr {
    let answers = resolver
        .read()
        .resolve(fqdn, RecordType::A, 0)
        .expect("relay resolves");
    let ip = answers
        .addresses()
        .iter()
        .find_map(|r| match r {
            Rdata::V4(ip) => Some(*ip),
            _ => None,
        })
        .expect("relay has an A record");
    SocketAddr::new(IpAddr::V4(ip), port)
}

/// Replay every corpus signature against one relay as one flight, one
/// request at a time with connection reuse, and without it. The request
/// bodies are identical; "off" only adds `Connection: close`, which
/// bypasses the keep-alive slot exactly like the old one-dial-per-probe
/// client.
fn bench_corpus_replay(c: &mut Criterion) {
    let (platform, net, resolver) = world();
    let fqdn = deploy_relay(&platform, 0);
    let addr = relay_addr(&resolver, &fqdn, 443);
    let sigs = corpus();

    let mut group = c.benchmark_group("c2_corpus_replay");
    group.throughput(Throughput::Elements(sigs.len() as u64));
    group.bench_function("c2_scan_pipelined", |b| {
        b.iter(|| {
            let client = HttpClient::new(SimDialer::new(net.clone()), ClientConfig::default());
            let corpus: Batch = sigs
                .iter()
                .map(|sig| sig.probe.to_request(fqdn.as_str()))
                .collect();
            let ok = client
                .flight(addr, fqdn.as_str(), true, &corpus)
                .filter(Result::is_ok)
                .count();
            black_box(ok)
        })
    });
    group.bench_function("c2_scan_reuse_on", |b| {
        b.iter(|| {
            let client = HttpClient::new(SimDialer::new(net.clone()), ClientConfig::default());
            let mut ok = 0usize;
            for sig in sigs {
                let req = sig.probe.to_request(fqdn.as_str());
                if client.send(addr, fqdn.as_str(), true, &req).is_ok() {
                    ok += 1;
                }
            }
            black_box(ok)
        })
    });
    group.bench_function("c2_scan_reuse_off", |b| {
        b.iter(|| {
            let client = HttpClient::new(SimDialer::new(net.clone()), ClientConfig::default());
            let mut ok = 0usize;
            for sig in sigs {
                let mut req = sig.probe.to_request(fqdn.as_str());
                req.headers.insert("Connection", "close");
                if client.send(addr, fqdn.as_str(), true, &req).is_ok() {
                    ok += 1;
                }
            }
            black_box(ok)
        })
    });
    group.finish();
}

/// End-to-end `scan_one` over a mixed population: the scanner resolves,
/// dials once per port, and flies the corpus at it.
fn bench_scan_one(c: &mut Criterion) {
    let (platform, net, resolver) = world();
    let relay = deploy_relay(&platform, 0);
    let benign = platform
        .deploy(DeploySpec::new(
            ProviderId::Aws,
            Behavior::JsonApi {
                service: "clean".into(),
            },
        ))
        .unwrap()
        .fqdn;
    let scanner = C2Scanner::new(net, resolver).with_timeout(Duration::from_millis(500));

    let mut group = c.benchmark_group("c2_scan_one");
    group.bench_function("relay_first_hit", |b| {
        b.iter(|| black_box(scanner.scan_one(&relay)))
    });
    group.bench_function("benign_full_corpus", |b| {
        b.iter(|| black_box(scanner.scan_one(&benign)))
    });
    group.finish();
}

/// Warm-cache resolution through the shard read lock — the path the
/// prober and C2 scanner take on every lookup after the first.
fn bench_resolver_read_path(c: &mut Criterion) {
    let (platform, _net, resolver) = world();
    let fqdns: Vec<Fqdn> = (0..64)
        .map(|i| {
            platform
                .deploy(DeploySpec::new(
                    ProviderId::Aws,
                    Behavior::JsonApi {
                        service: format!("svc{i}"),
                    },
                ))
                .unwrap()
                .fqdn
        })
        .collect();
    // Warm every entry so the bench measures pure fast-path hits.
    for f in &fqdns {
        resolver.read().resolve(f, RecordType::A, 0).expect("warms");
    }

    let mut group = c.benchmark_group("resolver_read_path");
    group.throughput(Throughput::Elements(fqdns.len() as u64));
    group.bench_function("warm_hits_64", |b| {
        b.iter(|| {
            let guard = resolver.read();
            let mut n = 0usize;
            for f in &fqdns {
                n += guard
                    .resolve(f, RecordType::A, 0)
                    .map(|a| a.addresses().len())
                    .unwrap_or(0);
            }
            black_box(n)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_corpus_replay,
    bench_scan_one,
    bench_resolver_read_path
);
criterion_main!(benches);
