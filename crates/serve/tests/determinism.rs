//! The load-harness determinism contract: same seed ⇒ same run, at any
//! worker count. Digest equality is byte equality — every client FNV-
//! digests its response stream off the wire, so two runs agree on the
//! digest iff every cacheable response byte was identical.

use fw_serve::{CacheConfig, LoadConfig, LoadPlan, ServeApi, ServeState};
use fw_workload::{World, WorldConfig};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 7;

fn run(workers: usize) -> fw_serve::LoadReport {
    let world = World::generate(WorldConfig::usage(SEED, 0.01));
    let state = Arc::new(ServeState::build(world.pdns, workers));
    let plan = LoadPlan {
        function_fqdns: Arc::new(state.function_fqdns()),
    };
    let net = fw_net::SimNet::new(SEED);
    let addr: SocketAddr = "10.99.0.1:8080".parse().unwrap();
    let api = Arc::new(ServeApi::new(state, CacheConfig::default()));
    api.serve_pool(&net, addr, workers.max(1));
    let config = LoadConfig {
        clients: 2_000,
        max_requests_per_client: 3,
        workers,
        seed: SEED,
        window: Duration::from_secs(600),
    };
    fw_serve::load::run_load(&net, addr, &config, &plan)
}

/// Everything a run is supposed to reproduce (wall-time fields and the
/// status-endpoint byte count are the only run-varying parts).
fn fingerprint(r: &fw_serve::LoadReport) -> (u64, u64, [u64; 7], u64, u64, u64, u64) {
    (
        r.requests,
        r.digest,
        r.endpoint_counts,
        r.status_ok,
        r.status_not_found,
        r.status_other,
        r.virtual_us,
    )
}

#[test]
fn same_seed_is_identical_across_worker_counts_and_reruns() {
    let serial = run(1);
    let wide = run(8);
    let wide_again = run(8);
    assert!(serial.requests >= 2_000, "every client issues >= 1 request");
    // Pinned: the seed-7 scale-0.01 run's request count, response-byte
    // digest and final virtual time.
    assert_eq!(serial.requests, 4_047);
    assert_eq!(format!("{:016x}", serial.digest), "600c20934205aaba");
    assert_eq!(serial.virtual_us, 599_908_385);
    assert_eq!(
        fingerprint(&serial),
        fingerprint(&wide),
        "workers=1 and workers=8 must produce identical requests and response bytes"
    );
    assert_eq!(
        fingerprint(&wide),
        fingerprint(&wide_again),
        "two same-config runs must be byte-identical"
    );
    // Sanity on the shape of the run: the mix exercised every endpoint
    // class and the unknown-fqdn slice produced real 404s.
    assert!(serial.endpoint_counts.iter().all(|&c| c > 0));
    assert!(serial.status_not_found > 0);
    assert!(serial.status_ok > serial.status_not_found);
}

#[test]
fn different_seed_changes_the_run() {
    let world = World::generate(WorldConfig::usage(SEED, 0.01));
    let state = Arc::new(ServeState::build(world.pdns, 4));
    let plan = LoadPlan {
        function_fqdns: Arc::new(state.function_fqdns()),
    };
    let net = fw_net::SimNet::new(SEED);
    let addr: SocketAddr = "10.99.0.2:8080".parse().unwrap();
    let api = Arc::new(ServeApi::new(state, CacheConfig::default()));
    api.serve_pool(&net, addr, 4);
    let mut config = LoadConfig {
        clients: 500,
        workers: 4,
        seed: SEED,
        window: Duration::from_secs(60),
        ..LoadConfig::default()
    };
    let a = fw_serve::load::run_load(&net, addr, &config, &plan);
    config.seed = SEED + 1;
    let b = fw_serve::load::run_load(&net, addr, &config, &plan);
    assert_ne!(
        a.digest, b.digest,
        "a different seed must draw a different request schedule"
    );
}
