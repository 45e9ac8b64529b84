//! The server's per-endpoint latency covers its own work and stops
//! before the response write; the write is timed on its own. A test
//! binary of its own, because it reads the process-global registry.

use fw_dns::pdns::PdnsStore;
use fw_http::fast::{read_response_fast, Scratch};
use fw_http::parse::{write_request, Limits};
use fw_http::types::Request;
use fw_net::{pipe_pair, Connection, PipeConn};
use fw_serve::{CacheConfig, ServeApi, ServeState};
use fw_types::{DayStamp, Fqdn, Rdata};
use std::io;
use std::net::{Ipv4Addr, SocketAddr};
use std::sync::Arc;
use std::time::Duration;

const FQDN: &str = "a1b2c3d4e5f6.lambda-url.us-east-1.on.aws";
const WRITE_DELAY: Duration = Duration::from_millis(20);

/// A server end whose every write first stalls for [`WRITE_DELAY`], the
/// way a write that wakes a client on a shared core can.
#[derive(Debug)]
struct SlowWrites(PipeConn);

impl Connection for SlowWrites {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        std::thread::sleep(WRITE_DELAY);
        self.0.write_all(buf)
    }
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.0.read(buf)
    }
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.0.set_read_timeout(timeout)
    }
    fn shutdown_write(&mut self) {
        self.0.shutdown_write()
    }
    fn peer_addr(&self) -> SocketAddr {
        self.0.peer_addr()
    }
}

#[test]
fn endpoint_latency_stops_before_the_response_write() {
    fw_obs::set_enabled(true);
    let mut store = PdnsStore::new();
    let fqdn = Fqdn::parse(FQDN).unwrap();
    let ip = Rdata::V4(Ipv4Addr::new(203, 0, 113, 9));
    for d in [19_100, 19_101, 19_102] {
        store.observe_count(&fqdn, &ip, DayStamp(d), 40);
    }
    let api = ServeApi::new(
        Arc::new(ServeState::build(store, 1)),
        CacheConfig::default(),
    );
    let (mut client, server) = pipe_pair(
        "10.0.0.1:50000".parse().unwrap(),
        "203.0.113.1:80".parse().unwrap(),
    );
    let srv = std::thread::spawn(move || {
        api.serve_fast(&mut SlowWrites(server), &mut Scratch::new());
    });
    write_request(
        &mut client,
        &Request::get(&format!("/v1/verdict/{FQDN}"), "api.sim"),
    )
    .unwrap();
    let mut scratch = Scratch::new();
    let resp = read_response_fast(&mut client, &mut scratch, &Limits::default(), false).unwrap();
    assert_eq!(resp.status, 200);
    client.shutdown_write();
    srv.join().unwrap();

    let registry = fw_obs::registry();
    let verdict = registry.histogram("fw.serve.latency_us.verdict");
    let write = registry.histogram("fw.serve.write_us");
    assert_eq!(verdict.count(), 1);
    assert!(
        verdict.max() < WRITE_DELAY.as_micros() as u64,
        "verdict latency {} us includes the write",
        verdict.max()
    );
    assert_eq!(write.count(), 1);
    assert!(
        write.max() >= WRITE_DELAY.as_micros() as u64,
        "write {} us",
        write.max()
    );
}
