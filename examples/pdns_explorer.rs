//! PDNS explorer: work with the passive-DNS substrate directly — observe
//! resolutions through the recursive resolver (sensor attached), then
//! query the store the way §3.2/§4 do.
//!
//! ```sh
//! cargo run --release --example pdns_explorer
//! ```

use faaswild::cloud::behavior::Behavior;
use faaswild::cloud::platform::{CloudPlatform, DeploySpec, PlatformConfig};
use faaswild::core::identify::identify_functions;
use faaswild::dns::pdns::SharedPdns;
use faaswild::dns::resolver::Resolver;
use faaswild::net::SimNet;
use faaswild::types::{ProviderId, RecordType};
use parking_lot::RwLock;
use std::sync::Arc;

fn main() {
    // A resolver with a passive-DNS sensor — the paper's collaborating
    // DNS operator in miniature.
    let net = SimNet::new(7);
    let resolver = Arc::new(RwLock::new(Resolver::new()));
    let pdns = SharedPdns::new();
    resolver.write().set_sensor(Arc::new(pdns.clone()));

    let platform = CloudPlatform::new(net, resolver.clone(), PlatformConfig::default());

    // Deploy a few functions across providers.
    let tencent = platform
        .deploy(DeploySpec::new(ProviderId::Tencent, Behavior::EmptyOk))
        .unwrap();
    let aliyun = platform
        .deploy(DeploySpec::new(
            ProviderId::Aliyun,
            Behavior::JsonApi {
                service: "pay".into(),
            },
        ))
        .unwrap();
    let aws = platform
        .deploy(DeploySpec::new(ProviderId::Aws, Behavior::EmptyOk))
        .unwrap();

    // Clients resolve the functions over several (virtual) days; every
    // query lands in the PDNS store via the sensor.
    println!("driving DNS traffic through the recursive resolver...\n");
    for day in 0..5u64 {
        let now = fw_secs(day);
        let mut r = resolver.write();
        for _ in 0..(day + 1) * 3 {
            let _ = r.resolve(&tencent.fqdn, RecordType::A, now);
        }
        let _ = r.resolve(&aliyun.fqdn, RecordType::A, now);
        if day == 0 {
            let _ = r.resolve(&aws.fqdn, RecordType::A, now);
            let _ = r.resolve(&aws.fqdn, RecordType::Aaaa, now);
        }
        // Flush so each day's first query reaches the authority again.
        r.flush_cache();
    }

    // Explore the store like §3.2. (The guard must drop before any
    // further resolutions — the resolver's sensor locks this same store.)
    {
        let store = pdns.lock();
        println!(
            "PDNS store: {} fqdns, {} daily rows",
            store.fqdn_count(),
            store.record_count()
        );
        for fqdn in [&tencent.fqdn, &aliyun.fqdn, &aws.fqdn] {
            let agg = store.aggregate(fqdn).expect("observed");
            println!(
                "\n{fqdn}\n  first_seen {} last_seen {} days_count {} total_request_cnt {}",
                agg.first_seen_all, agg.last_seen_all, agg.days_count, agg.total_request_cnt
            );
            for (rdata, cnt) in &agg.rdata_dist {
                println!(
                    "    {:<5} {rdata:<45} {cnt} requests",
                    rdata.rtype().to_string()
                );
            }
        }

        // Identification over the sensed store.
        let report = identify_functions(&*store);
        println!(
            "\nidentification: {} function domains recognized, {} noise",
            report.functions.len(),
            report.unmatched
        );
        for f in &report.functions {
            println!(
                "  {:<8} region {:<14} {}",
                f.provider.label(),
                f.region.as_deref().unwrap_or("-"),
                f.fqdn
            );
        }
    }

    // Deletion semantics (§4.4): Tencent NXDOMAIN vs AWS wildcard.
    platform.delete(&tencent.fqdn);
    platform.delete(&aws.fqdn);
    let r = resolver.read();
    let tencent_now = r.resolve(&tencent.fqdn, RecordType::A, fw_secs(7));
    let aws_now = r.resolve(&aws.fqdn, RecordType::A, fw_secs(7));
    println!("\nafter deletion:");
    println!("  tencent resolve -> {tencent_now:?}");
    println!(
        "  aws resolve     -> {} answers (wildcard keeps resolving)",
        aws_now.map(|res| res.answers.len()).unwrap_or(0)
    );
}

/// Virtual seconds for a day offset within the measurement window.
fn fw_secs(day: u64) -> u64 {
    (faaswild::types::MEASUREMENT_START.0 as u64 + day) * 86_400
}
