//! Determinism properties of the virtual clock (DESIGN.md §10).
//!
//! The ISSUE-3 acceptance properties: for *any* generated workload of
//! concurrent sleep chains, (a) two runs produce the identical advance
//! trace — virtual time is a pure function of the workload, not of
//! host scheduling — and (b) total virtual elapsed time equals the
//! longest chain (parallel waits overlap, they don't serialize).

use fw_net::{ClockSource as _, Connection, SimNet, VClock};
use proptest::prelude::*;
use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Read timeout of every client in the SimNet property.
const CLIENT_TIMEOUT_US: u64 = 300_000;

/// Run one workload: chain `i` sleeps each of its durations (µs) in
/// order on its own registered thread. Returns the advance trace and
/// the final virtual now.
fn run_chains(chains: &[Vec<u64>]) -> (Vec<(u64, u32)>, u64) {
    let clock = VClock::new();
    // All registrations exist before any thread spawns, so no thread
    // can reach quiescence alone and race ahead.
    let regs: Vec<_> = chains.iter().map(|_| clock.register()).collect();
    let handles: Vec<_> = chains
        .iter()
        .zip(regs)
        .map(|(chain, reg)| {
            let clock = clock.clone();
            let chain = chain.clone();
            std::thread::spawn(move || {
                let _active = reg.activate();
                for us in chain {
                    clock.sleep(Duration::from_micros(us));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    (clock.advance_trace(), clock.now_us())
}

fn chain() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec((1u64..50_000).prop_map(|us| us), 0..6)
}

/// What the server does with one request.
#[derive(Debug, Clone, Copy)]
enum Reply {
    /// Echo at once.
    Echo,
    /// Echo after sleeping this many virtual µs (past the client's
    /// timeout, the client has given up by then).
    After(u64),
    /// Never answer: the client's read times out.
    Silent,
}

fn reply() -> impl Strategy<Value = Reply> {
    prop_oneof![
        Just(Reply::Echo),
        (1u64..2 * CLIENT_TIMEOUT_US).prop_map(Reply::After),
        Just(Reply::Silent),
    ]
}

/// One client's result per connection: bytes echoed (or `None` on a
/// read timeout) and the virtual time the read returned.
type Outcomes = Vec<Vec<(Option<Vec<u8>>, u64)>>;

/// The server side of one connection: read the request, answer as it
/// says.
fn answer(clock: &fw_net::Clock, mut conn: Box<dyn Connection>) {
    let mut req = [0u8; 9];
    if conn.read_exact(&mut req).is_err() {
        return;
    }
    let arg = u64::from_le_bytes(req[1..].try_into().unwrap());
    match req[0] {
        b'e' => {}
        b'a' => clock.sleep(Duration::from_micros(arg)),
        // Silent: wait for the client to hang up.
        _ => {
            let _ = conn.read(&mut [0u8; 1]);
            return;
        }
    }
    let _ = conn.write_all(&req);
}

/// Run one SimNet workload: client `i` is a registered thread that
/// opens one connection per entry of `clients[i]`, in order, to one of
/// two handler listeners. The request names the reply mode; the server
/// answers accordingly. Returns the advance trace, the final virtual
/// now and every client's outcomes.
fn run_simnet(clients: &[Vec<Reply>]) -> (Vec<(u64, u32)>, u64, Outcomes) {
    let net = SimNet::new(99);
    let addrs =
        [80u16, 443].map(|port| SocketAddr::new(IpAddr::V4(Ipv4Addr::new(203, 0, 113, 7)), port));
    let answered = Arc::new(AtomicUsize::new(0));
    for addr in addrs {
        let clock = net.clock().clone();
        let answered = answered.clone();
        net.listen_fn(addr, move |conn| {
            answer(&clock, conn);
            answered.fetch_add(1, Ordering::SeqCst);
        });
    }
    // Every client is registered before any spawns, so none can reach
    // quiescence alone and race ahead.
    let regs: Vec<_> = clients.iter().map(|_| net.clock().register()).collect();
    let handles: Vec<_> = clients
        .iter()
        .cloned()
        .zip(regs)
        .enumerate()
        .map(|(i, (replies, reg))| {
            let net = net.clone();
            std::thread::spawn(move || {
                let _active = reg.map(|r| r.activate());
                let clock = net.clock().clone();
                replies
                    .iter()
                    .enumerate()
                    .map(|(j, reply)| {
                        let (mode, arg) = match *reply {
                            Reply::Echo => (b'e', 0),
                            Reply::After(us) => (b'a', us),
                            Reply::Silent => (b's', 0),
                        };
                        let mut req = vec![mode];
                        req.extend_from_slice(&arg.to_le_bytes());
                        let mut conn = net.connect(addrs[(i + j) % 2]).unwrap();
                        conn.set_read_timeout(Some(Duration::from_micros(CLIENT_TIMEOUT_US)))
                            .unwrap();
                        conn.write_all(&req).unwrap();
                        let mut buf = [0u8; 9];
                        let got = match conn.read_exact(&mut buf) {
                            Ok(()) => Some(buf.to_vec()),
                            Err(e) if e.kind() == std::io::ErrorKind::TimedOut => None,
                            Err(e) => panic!("client {i} request {j}: {e}"),
                        };
                        (got, clock.now_us())
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let outcomes = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // A handler may still owe a late reply to a client that gave up.
    // Once every handler has returned no deadline is pending, so the
    // trace and the clock are final.
    let connections: usize = clients.iter().map(Vec::len).sum();
    let give_up = Instant::now() + Duration::from_secs(10);
    while answered.load(Ordering::SeqCst) < connections {
        assert!(Instant::now() < give_up, "handlers never returned");
        std::thread::yield_now();
    }
    let vclock = net.clock().vclock().expect("SimNet runs on virtual time");
    (vclock.advance_trace(), net.clock().now_us(), outcomes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Same workload, two runs: byte-identical advance traces.
    #[test]
    fn trace_is_identical_across_runs(chains in proptest::collection::vec(chain(), 1..5)) {
        let (trace_a, now_a) = run_chains(&chains);
        let (trace_b, now_b) = run_chains(&chains);
        prop_assert_eq!(trace_a, trace_b);
        prop_assert_eq!(now_a, now_b);
    }

    /// Registered clients against handler listeners that echo, reply
    /// late or never reply: two runs give the same advance trace, the
    /// same final virtual time and the same per-client outcomes, and
    /// each outcome is the one its reply mode dictates.
    #[test]
    fn simnet_outcomes_are_identical_across_runs(
        clients in proptest::collection::vec(proptest::collection::vec(reply(), 1..4), 1..4)
    ) {
        let (trace_a, now_a, out_a) = run_simnet(&clients);
        let (trace_b, now_b, out_b) = run_simnet(&clients);
        prop_assert_eq!(trace_a, trace_b);
        prop_assert_eq!(now_a, now_b);
        prop_assert_eq!(&out_a, &out_b);
        for (replies, outcomes) in clients.iter().zip(&out_a) {
            for (reply, (got, _)) in replies.iter().zip(outcomes) {
                let answered = match *reply {
                    Reply::Echo => true,
                    Reply::After(us) => us < CLIENT_TIMEOUT_US,
                    Reply::Silent => false,
                };
                prop_assert_eq!(got.is_some(), answered, "{:?}", reply);
            }
        }
    }

    /// Virtual elapsed time is the max over chains, not the sum:
    /// concurrent waiters share every advance they are due at.
    #[test]
    fn elapsed_is_max_over_chains(chains in proptest::collection::vec(chain(), 1..5)) {
        let (_, now) = run_chains(&chains);
        let expected = chains.iter().map(|c| c.iter().sum::<u64>()).max().unwrap_or(0);
        prop_assert_eq!(now, expected);
    }
}

/// A client's 300 ms read timeout is an event that fires *before* a
/// slower peer gets to answer: the handler needs 600 ms of virtual
/// time, so the client times out at exactly 300 000 µs and the
/// handler's reply hits a closed pipe.
#[test]
fn timeout_fires_before_slower_connect_completes() {
    let addr = SocketAddr::new(IpAddr::V4(Ipv4Addr::new(203, 0, 113, 9)), 443);
    let net = SimNet::new(21);
    let handler_clock = net.clock().clone();
    net.listen_fn(addr, move |mut conn| {
        let mut buf = [0u8; 16];
        let _ = conn.read(&mut buf);
        // Simulated slow backend: 600 ms of virtual work.
        handler_clock.sleep(Duration::from_millis(600));
        let _ = conn.write_all(b"too late");
    });

    let clock = net.clock().clone();
    let started = clock.now_us();
    let mut conn = net.connect(addr).unwrap();
    conn.write_all(b"ping").unwrap();
    conn.set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    let mut buf = [0u8; 16];
    let err = conn.read(&mut buf).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
    assert_eq!(
        clock.now_us() - started,
        300_000,
        "the timeout costs exactly its configured duration"
    );
}
