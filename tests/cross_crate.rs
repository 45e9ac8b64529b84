//! Cross-crate integration tests at the workspace root: exercise seams
//! between the substrates that no single crate's tests cover.

use faaswild::cloud::behavior::Behavior;
use faaswild::cloud::platform::{CloudPlatform, DeploySpec, PlatformConfig};
use faaswild::dns::pdns::SharedPdns;
use faaswild::dns::resolver::Resolver;
use faaswild::dns::zone::Zone;
use faaswild::http::client::{ClientConfig, HttpClient, SimDialer};
use faaswild::http::url::Url;
use faaswild::net::{FaultConfig, SimNet};
use faaswild::probe::prober::{ProbeConfig, Prober};
use faaswild::types::{Fqdn, ProviderId, Rdata, RecordType};
use parking_lot::RwLock;
use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::sync::Arc;
use std::time::Duration;

fn world() -> (CloudPlatform, SimNet, Arc<RwLock<Resolver>>, SharedPdns) {
    let net = SimNet::new(3);
    let resolver = Arc::new(RwLock::new(Resolver::new()));
    let pdns = SharedPdns::new();
    resolver.write().set_sensor(Arc::new(pdns.clone()));
    let platform = CloudPlatform::new(net.clone(), resolver.clone(), PlatformConfig::default());
    (platform, net, resolver, pdns)
}

/// DNS sensor → PDNS → identification: a probe's own resolutions land in
/// the store and identify back to the right provider.
#[test]
fn probe_resolutions_feed_pdns_and_identify() {
    let (platform, net, resolver, pdns) = world();
    let d = platform
        .deploy(DeploySpec::new(
            ProviderId::Google2,
            Behavior::JsonApi {
                service: "sensed".into(),
            },
        ))
        .unwrap();
    let prober = Prober::new(
        net,
        resolver,
        ProbeConfig {
            timeout: Duration::from_millis(500),
            workers: 1,
            ..ProbeConfig::default()
        },
    );
    let rec = prober.probe_one(&d.fqdn);
    assert_eq!(rec.outcome.status(), Some(200));

    let store = pdns.lock();
    let agg = store.aggregate(&d.fqdn).expect("sensed by the resolver");
    assert!(agg.total_request_cnt >= 1);
    let report = faaswild::core::identify::identify_functions(&*store);
    assert_eq!(report.functions.len(), 1);
    assert_eq!(report.functions[0].provider, ProviderId::Google2);
}

/// The §3.5 gateway exclusion: a custom domain says nothing about its
/// backend. `fn.api.examplecorp.com` CNAMEs to a deployed Google2
/// function and `vm.api.examplecorp.com` is a plain A record; the
/// sensor records both, and identification leaves both unidentified
/// while the backend's own domain identifies as Google2.
#[test]
fn custom_domains_identify_alike_whatever_their_backend() {
    let (platform, _net, resolver, pdns) = world();
    let backend = platform
        .deploy(DeploySpec::new(
            ProviderId::Google2,
            Behavior::JsonApi {
                service: "faas".into(),
            },
        ))
        .unwrap();
    let fq = |s: &str| Fqdn::parse(s).unwrap();
    let via_function = fq("fn.api.examplecorp.com");
    let via_vm = fq("vm.api.examplecorp.com");
    let mut zone = Zone::new(fq("api.examplecorp.com"));
    zone.add(via_function.clone(), Rdata::Name(backend.fqdn.clone()), 60);
    zone.add(
        via_vm.clone(),
        Rdata::V4(Ipv4Addr::new(198, 51, 100, 80)),
        60,
    );
    resolver.write().add_zone(zone);

    for name in [&via_function, &via_vm] {
        resolver.read().resolve(name, RecordType::A, 0).unwrap();
    }

    let store = pdns.lock();
    let report = faaswild::core::identify::identify_functions(&*store);
    for name in [&via_function, &via_vm] {
        assert!(store.aggregate(name).is_some(), "{name} not sensed");
        assert!(report.find(name).is_none(), "{name} identified");
    }
    let identified = report.find(&backend.fqdn).expect("backend identified");
    assert_eq!(identified.provider, ProviderId::Google2);
}

/// The prober under an adverse network (smoltcp-style fault injection):
/// results degrade to Unreachable/timeout but never panic, and the
/// ethics budget holds.
#[test]
fn prober_survives_adverse_network() {
    let (platform, net, resolver, _pdns) = world();
    let mut domains = Vec::new();
    for i in 0..12 {
        let d = platform
            .deploy(DeploySpec::new(
                ProviderId::Aws,
                Behavior::JsonApi {
                    service: format!("s{i}"),
                },
            ))
            .unwrap();
        domains.push(d.fqdn);
    }
    net.set_faults(FaultConfig {
        drop_chance: 0.3,
        corrupt_chance: 0.2,
        reset_chance: 0.1,
        refuse_chance: 0.1,
        delay_us: 10,
    });
    let prober = Prober::new(
        net,
        resolver,
        ProbeConfig {
            timeout: Duration::from_millis(80),
            workers: 4,
            ..ProbeConfig::default()
        },
    );
    let records = prober.probe_all(&domains);
    assert_eq!(records.len(), 12);
    for rec in &records {
        assert!(rec.requests_issued <= 3, "ethics budget violated: {rec:?}");
    }
    // With 30% chunk drops some probes fail; the run itself is total.
    let reachable = records.iter().filter(|r| r.outcome.is_reachable()).count();
    assert!(reachable <= 12);
}

/// Billing and cold starts metered through the real HTTP path, including
/// the keep-alive idle-expiry boundary.
#[test]
fn billing_and_cold_starts_through_http() {
    let (platform, net, resolver, _pdns) = world();
    let mut spec = DeploySpec::new(
        ProviderId::Tencent,
        Behavior::JsonApi {
            service: "billed".into(),
        },
    );
    spec.memory_mb = Some(512);
    spec.exec_ms = Some(2_000); // 1 GB-s per warm invocation
    let d = platform.deploy(spec).unwrap();

    let ip = {
        let res = resolver.read().resolve(&d.fqdn, RecordType::A, 0).unwrap();
        match res.addresses()[0] {
            Rdata::V4(ip) => ip,
            _ => unreachable!(),
        }
    };
    let client = HttpClient::new(SimDialer::new(net), ClientConfig::default());
    let url = Url::for_domain(d.fqdn.as_str(), true);
    for i in 0..4 {
        let resp = client
            .get_url(SocketAddr::new(IpAddr::V4(ip), 443), &url)
            .unwrap();
        assert_eq!(resp.status, 200);
        if i == 1 {
            // Expire the warm environment.
            platform.advance_ms(10_000_000);
        } else {
            platform.advance_ms(1_000);
        }
    }
    let usage = platform.with_billing(|b| b.usage(&d.fqdn));
    assert_eq!(usage.invocations, 4);
    // Two cold starts (first invocation + after expiry) add cold-start
    // execution time on top of 4 × 1 GB-s.
    assert!(usage.gb_seconds > 4.0, "gb_seconds = {}", usage.gb_seconds);
    let stats = platform.stats();
    assert_eq!(
        stats.cold_starts.load(std::sync::atomic::Ordering::Relaxed),
        2
    );
    assert_eq!(
        stats.warm_starts.load(std::sync::atomic::Ordering::Relaxed),
        2
    );
}

/// Anycast vs. regional ingress: Google resolves identically everywhere,
/// AWS functions in different regions resolve to different ingress
/// nodes, and the resolved addresses actually serve the right function.
#[test]
fn regional_vs_anycast_ingress_serve_correctly() {
    let (platform, net, resolver, _pdns) = world();
    let a = platform
        .deploy(
            DeploySpec::new(
                ProviderId::Aws,
                Behavior::JsonApi {
                    service: "east".into(),
                },
            )
            .in_region("us-east-1"),
        )
        .unwrap();
    let b = platform
        .deploy(
            DeploySpec::new(
                ProviderId::Aws,
                Behavior::JsonApi {
                    service: "tokyo".into(),
                },
            )
            .in_region("ap-northeast-1"),
        )
        .unwrap();
    let resolve = |fqdn: &faaswild::types::Fqdn| {
        let res = resolver.read().resolve(fqdn, RecordType::A, 0).unwrap();
        match res.addresses()[0] {
            Rdata::V4(ip) => ip,
            _ => unreachable!(),
        }
    };
    let (ip_a, ip_b) = (resolve(&a.fqdn), resolve(&b.fqdn));
    assert_ne!(ip_a, ip_b, "regional ingress differs across regions");

    // Each resolved ingress serves its own function by Host header.
    let client = HttpClient::new(SimDialer::new(net), ClientConfig::default());
    for (fqdn, ip, marker) in [(&a.fqdn, ip_a, "east"), (&b.fqdn, ip_b, "tokyo")] {
        let url = Url::for_domain(fqdn.as_str(), true);
        let resp = client
            .get_url(SocketAddr::new(IpAddr::V4(ip), 443), &url)
            .unwrap();
        assert!(resp.body_text().contains(marker));
    }
}

/// §6's "Warmonger" concern: egress IPs are a *shared* per-region pool,
/// so two unrelated tenants' functions emit traffic from overlapping
/// addresses — blocklisting one tenant's egress IP collaterally damages
/// the other. Demonstrated through real HTTP responses of two proxies.
#[test]
fn shared_egress_pool_across_tenants() {
    let (platform, net, resolver, _pdns) = world();
    let tenant_a = platform
        .deploy(DeploySpec::new(ProviderId::Aws, Behavior::VpnProxy).in_region("eu-west-1"))
        .unwrap();
    let tenant_b = platform
        .deploy(DeploySpec::new(ProviderId::Aws, Behavior::VpnProxy).in_region("eu-west-1"))
        .unwrap();
    let other_region = platform
        .deploy(DeploySpec::new(ProviderId::Aws, Behavior::VpnProxy).in_region("sa-east-1"))
        .unwrap();

    let client = HttpClient::new(SimDialer::new(net), ClientConfig::default());
    let egress_of = |fqdn: &faaswild::types::Fqdn| -> std::collections::HashSet<String> {
        let res = resolver.read().resolve(fqdn, RecordType::A, 0).unwrap();
        let Rdata::V4(ip) = res.addresses()[0] else {
            unreachable!()
        };
        let url = Url::for_domain(fqdn.as_str(), true);
        let mut ips = std::collections::HashSet::new();
        for _ in 0..16 {
            let resp = client
                .get_url(SocketAddr::new(IpAddr::V4(ip), 443), &url)
                .unwrap();
            // VpnProxy reports its egress: {"egress":"34.x.y.z",...}
            let body = resp.body_text();
            let egress = body
                .split("\"egress\":\"")
                .nth(1)
                .and_then(|s| s.split('"').next())
                .expect("egress in body")
                .to_string();
            ips.insert(egress);
        }
        ips
    };
    let a_ips = egress_of(&tenant_a.fqdn);
    let b_ips = egress_of(&tenant_b.fqdn);
    let far_ips = egress_of(&other_region.fqdn);
    // Same region → shared pool (full overlap in the simulator).
    assert!(
        !a_ips.is_disjoint(&b_ips),
        "same-region tenants share egress"
    );
    // Different region → disjoint pools.
    assert!(
        a_ips.is_disjoint(&far_ips),
        "regions have distinct egress pools"
    );
    // Rotation actually happens.
    assert!(
        a_ips.len() > 1,
        "egress rotates across invocations: {a_ips:?}"
    );
}

/// The full workload → pipeline path stays consistent for a different
/// seed (determinism is per-seed, results structurally stable across
/// seeds).
#[test]
fn pipeline_stable_across_seeds() {
    use faaswild::core::pipeline::Pipeline;
    for seed in [1u64, 99] {
        let w = faaswild::workload::World::generate(faaswild::workload::WorldConfig {
            seed,
            scale: 0.001,
            deploy_live: false,
            gen_workers: 0,
            platform: PlatformConfig::default(),
        });
        let report = Pipeline::run_usage(&w.pdns);
        assert_eq!(report.identification.functions.len(), w.functions.len());
        assert!(report.invocation.frac_under_5 > 0.6);
        assert!(report.invocation.frac_single_day > 0.6);
    }
}
