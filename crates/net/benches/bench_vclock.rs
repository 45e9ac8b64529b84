//! Criterion benches for the virtual-time engine: raw advance
//! throughput, zero-advance request/response exchanges (one per fresh
//! connection, and 64 over one kept-alive connection, so per-connection
//! and per-exchange hand-off costs show separately), and the probing
//! hot path — a fan-out of workers all hitting a 300 ms timeout, which
//! on the wall clock would cost 300 ms of real time per sweep and here
//! costs microseconds.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use fw_net::{ClockSource as _, Connection, SimNet, VClock};
use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::time::Duration;

fn addr(last: u8, port: u16) -> SocketAddr {
    SocketAddr::new(IpAddr::V4(Ipv4Addr::new(203, 0, 113, last)), port)
}

/// A chain of timed sleeps on one registered thread: every sleep is a
/// clock advance, so this measures pure event-loop throughput.
fn bench_sleep_chain(c: &mut Criterion) {
    let mut group = c.benchmark_group("vclock_sleep_chain");
    group.throughput(Throughput::Elements(64));
    group.bench_function("64_sleeps_300ms", |b| {
        b.iter(|| {
            let clock = VClock::new();
            for _ in 0..64 {
                clock.sleep(Duration::from_millis(300));
            }
            black_box(clock.now_us())
        })
    });
    group.finish();
}

/// A responsive echo exchange: both sides stay runnable, so the clock
/// never advances — this is the zero-virtual-cost fast path.
fn bench_echo_roundtrip(c: &mut Criterion) {
    let net = SimNet::new(1);
    net.listen_fn(addr(1, 80), |mut conn| {
        let mut buf = [0u8; 256];
        while let Ok(n @ 1..) = conn.read(&mut buf) {
            if conn.write_all(&buf[..n]).is_err() {
                break;
            }
        }
    });
    let mut group = c.benchmark_group("vclock_echo");
    group.bench_function("connect_roundtrip", |b| {
        b.iter(|| {
            let mut conn = net.connect(addr(1, 80)).unwrap();
            conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            conn.write_all(b"ping").unwrap();
            let mut buf = [0u8; 16];
            black_box(conn.read(&mut buf).unwrap())
        })
    });
    let mut conn = net.connect(addr(1, 80)).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    group.throughput(Throughput::Elements(64));
    group.bench_function("keepalive_64_exchanges", |b| {
        b.iter(|| {
            let mut buf = [0u8; 16];
            for _ in 0..64 {
                conn.write_all(b"ping").unwrap();
                black_box(conn.read(&mut buf).unwrap());
            }
        })
    });
    group.finish();
}

/// The probing hot path: 8 workers each dial a silent server and wait
/// out a 300 ms read timeout. One sweep is 2.4 s of virtual time; on
/// the wall clock it would be 300 ms of real time (the workers run in
/// parallel), so per-sweep wall time here shows the speedup.
fn bench_timeout_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("vclock_timeout_fanout");
    group.sample_size(10);
    group.bench_function("8_workers_300ms_timeout", |b| {
        b.iter(|| {
            let net = SimNet::new(7);
            net.listen_fn(addr(1, 443), |mut conn| {
                let mut buf = [0u8; 16];
                let _ = conn.read(&mut buf); // never answers
            });
            let clock = net.clock().clone();
            let regs: Vec<_> = (0..8).map(|_| clock.register()).collect();
            let handles: Vec<_> = regs
                .into_iter()
                .map(|reg| {
                    let net = net.clone();
                    std::thread::spawn(move || {
                        let _active = reg.map(|r| r.activate());
                        let mut conn = net.connect(addr(1, 443)).unwrap();
                        conn.set_read_timeout(Some(Duration::from_millis(300)))
                            .unwrap();
                        let mut buf = [0u8; 16];
                        conn.read(&mut buf).unwrap_err()
                    })
                })
                .collect();
            for h in handles {
                black_box(h.join().unwrap());
            }
            black_box(net.clock().now_us())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sleep_chain,
    bench_echo_roundtrip,
    bench_timeout_fanout
);
criterion_main!(benches);
