//! Denial-of-Wallet: Finding 5 warns that unauthenticated function URLs
//! let anyone drive up the owner's bill. This example deploys an open
//! function and an IAM-protected one, floods both through the real HTTP
//! path, and prices the result with the §2.3 billing model.
//!
//! ```sh
//! cargo run --release --example dow_attack
//! ```

use faaswild::cloud::behavior::Behavior;
use faaswild::cloud::billing::PriceModel;
use faaswild::cloud::platform::{CloudPlatform, DeploySpec, PlatformConfig};
use faaswild::dns::resolver::Resolver;
use faaswild::http::client::{ClientConfig, HttpClient, SimDialer};
use faaswild::http::url::Url;
use faaswild::net::SimNet;
use faaswild::types::{ProviderId, Rdata, RecordType};
use parking_lot::RwLock;
use std::net::{IpAddr, SocketAddr};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let net = SimNet::new(1337);
    let resolver = Arc::new(RwLock::new(Resolver::new()));
    let platform = CloudPlatform::new(net.clone(), resolver.clone(), PlatformConfig::default());

    // A beefy, open function (the risky default §6 criticizes)...
    let mut open_spec = DeploySpec::new(
        ProviderId::Aws,
        Behavior::JsonApi {
            service: "image-renderer".into(),
        },
    );
    open_spec.memory_mb = Some(1024);
    open_spec.exec_ms = Some(800);
    let open = platform.deploy(open_spec).unwrap();

    // ...and its IAM-protected twin.
    let mut locked_spec = DeploySpec::new(
        ProviderId::Aws,
        Behavior::JsonApi {
            service: "image-renderer".into(),
        },
    )
    .with_auth();
    locked_spec.memory_mb = Some(1024);
    locked_spec.exec_ms = Some(800);
    let locked = platform.deploy(locked_spec).unwrap();

    println!("open function:      https://{}/", open.fqdn);
    println!("protected function: https://{}/", locked.fqdn);

    // The attacker only needs the URL (GitHub leak, search engine, §5).
    let client = HttpClient::new(
        SimDialer::new(net),
        ClientConfig {
            read_timeout: Duration::from_secs(2),
            ..ClientConfig::default()
        },
    );
    let resolve = |fqdn: &faaswild::types::Fqdn| -> IpAddr {
        let res = resolver.read().resolve(fqdn, RecordType::A, 0).unwrap();
        match res.addresses()[0] {
            Rdata::V4(ip) => IpAddr::V4(ip),
            _ => unreachable!("aws publishes v4"),
        }
    };

    const FLOOD: usize = 500;
    println!("\nflooding both with {FLOOD} requests each...");
    let mut open_200 = 0;
    let mut locked_401 = 0;
    for fqdn in [&open.fqdn, &locked.fqdn] {
        let ip = resolve(fqdn);
        let url = Url::for_domain(fqdn.as_str(), true);
        for _ in 0..FLOOD {
            let resp = client
                .get_url(SocketAddr::new(ip, 443), &url)
                .expect("reachable");
            match resp.status {
                200 => open_200 += 1,
                401 => locked_401 += 1,
                other => panic!("unexpected status {other}"),
            }
            // Keep the environment warm to simulate a steady flood.
            platform.advance_ms(50);
        }
    }
    println!("  open function served {open_200} × 200 (all billed!)");
    println!("  protected function answered {locked_401} × 401 (cheap rejections)");

    // Price what just happened, then extrapolate the §2.3 numbers.
    let model = PriceModel::for_provider(ProviderId::Aws);
    let open_usage = platform.with_billing(|b| b.usage(&open.fqdn));
    println!(
        "\nmetered usage on the open function: {} invocations, {:.1} GB-s",
        open_usage.invocations, open_usage.gb_seconds
    );
    let bill = model.monthly_cost(&open_usage);
    println!(
        "  → monthly bill so far: ${:.4} (free tier covering: {})",
        bill.total_usd, bill.within_free_tier
    );

    println!("\nextrapolation (paper §2.3 price model, AWS published rates):");
    for (rps, hours) in [(10.0, 24.0), (100.0, 24.0), (1000.0, 24.0 * 7.0)] {
        let bill = model.dow_cost(rps, hours * 3600.0, 1024, 800);
        println!(
            "  {rps:>6.0} req/s for {hours:>4.0} h → {:>12} invocations, bill ${:>10.2}",
            bill.invocations, bill.total_usd
        );
    }
    println!(
        "\nDenial of Wallet: the victim pays for every request an attacker sends; \
         IAM on the URL (the default the paper urges in §6) turns the same flood \
         into unbilled 401s."
    );

    // Cold/warm accounting, §2.3's execution model.
    let stats = platform.stats();
    println!(
        "\ncold starts {} / warm starts {} (cold adds init latency and billable time)",
        stats.cold_starts.load(std::sync::atomic::Ordering::Relaxed),
        stats.warm_starts.load(std::sync::atomic::Ordering::Relaxed)
    );
}
