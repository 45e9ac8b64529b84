//! Virtual-time replay: stream batches over `SimNet` into a daemon.
//!
//! Topology: the daemon runs as a `SimNet` listener (its handler
//! is clock-registered by `SimNet` before the connection is handed to
//! a handler thread); the feeder
//! runs on its own pre-registered thread, connects, and for each batch
//! sleeps the *virtual* clock to the batch's arrival offset before
//! writing the frame. Virtual time advances only when every registered
//! thread is blocked in a clock wait, so:
//!
//! - while the daemon processes a batch its thread is runnable and the
//!   clock is pinned — processing is instantaneous in virtual time, and
//!   every batch is applied at exactly `offset_us`;
//! - between batches both threads block (daemon on the pipe, feeder on
//!   its sleep) and the clock jumps straight to the next arrival — two
//!   years of telemetry replay in wall-seconds.
//!
//! The run is fully deterministic: virtual timestamps, verdict deltas,
//! and detection latencies are pure functions of `(rows, config)`,
//! independent of wall-clock scheduling and worker count.

use crate::daemon::{DaemonFinal, StreamConfig, StreamDaemon};
use crate::source::Batch;
use crate::wire::{self, Frame};
use fw_analysis::par::fork;
use fw_dns::pdns::{PdnsBackend, PdnsStore};
use fw_net::vclock::ClockSource;
use fw_net::SimNet;
use fw_obs::counter_add;
use parking_lot::Mutex;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Outcome of a full replay.
#[derive(Debug)]
pub struct ReplayResult<B> {
    pub final_state: DaemonFinal<B>,
    /// Virtual time at end of stream (µs since stream start).
    pub virtual_us: u64,
    /// Wire bytes the feeder pushed.
    pub wire_bytes: u64,
}

/// Address the daemon listens on inside the simulated network.
const DAEMON_ADDR: &str = "10.99.0.1:7400";

/// Replay `batches` through a daemon over a fresh virtual-time
/// `SimNet`, absorbing rows into `store`. Blocks until the feeder has
/// streamed every batch and the daemon has acknowledged end-of-stream.
pub fn replay<B>(batches: Vec<Batch>, config: &StreamConfig, store: B, seed: u64) -> ReplayResult<B>
where
    B: PdnsBackend + Send + 'static,
{
    let _span = fw_obs::span("stream/replay");
    let net = SimNet::new(seed);
    let addr: SocketAddr = DAEMON_ADDR.parse().expect("static addr");

    let daemon = Arc::new(Mutex::new(Some(StreamDaemon::with_store(config, store))));
    let daemon_in_handler = Arc::clone(&daemon);
    let clock_in_handler = net.clock().clone();
    net.listen_fn(addr, move |mut conn| {
        let _ = conn.set_read_timeout(None);
        loop {
            match wire::read_frame(&mut conn) {
                Ok(Some(Frame::Batch {
                    seq: _,
                    watermark_day,
                    rows,
                })) => {
                    let now_us = clock_in_handler.now_us();
                    let mut guard = daemon_in_handler.lock();
                    if let Some(d) = guard.as_mut() {
                        d.apply_batch(watermark_day, &rows, now_us);
                    }
                }
                Ok(Some(Frame::Eos)) => {
                    let _ = conn.write_all(&[wire::ACK]);
                    break;
                }
                Ok(None) | Err(_) => break,
            }
        }
    });

    // The feeder runs on its own worker, registered with the virtual
    // clock before spawn so its sleeps participate in quiescence from
    // the first instruction.
    let (virtual_us, wire_bytes) = fork(1, "", Some(net.clock()), |_| feed(&net, addr, &batches))
        .pop()
        .expect("one feeder")
        .expect("feeder stream failed");
    drop(batches);
    counter_add!("fw.stream.wire_bytes", wire_bytes);

    let final_state = daemon
        .lock()
        .take()
        .expect("daemon consumed twice")
        .finish();
    ReplayResult {
        final_state,
        virtual_us,
        wire_bytes,
    }
}

/// Stream every batch to the daemon at `addr` at its virtual arrival
/// offset, then end-of-stream. Returns the virtual time of the daemon's
/// ack and the wire bytes sent.
fn feed(net: &SimNet, addr: SocketAddr, batches: &[Batch]) -> std::io::Result<(u64, u64)> {
    let clock = net.clock();
    let mut conn = net.connect(addr)?;
    conn.set_read_timeout(None)?;
    let mut wire_bytes = 0u64;
    for batch in batches {
        let now = clock.now_us();
        if batch.offset_us > now {
            clock.sleep(Duration::from_micros(batch.offset_us - now));
        }
        wire_bytes +=
            wire::write_batch(&mut conn, batch.seq, batch.watermark_day, &batch.rows)? as u64;
    }
    wire_bytes += wire::write_eos(&mut conn)? as u64;
    // Block until the daemon has applied everything; the ack pins the
    // end-of-stream virtual timestamp.
    let mut ack = [0u8; 1];
    conn.read_exact(&mut ack)?;
    debug_assert_eq!(ack[0], wire::ACK);
    Ok((clock.now_us(), wire_bytes))
}

/// [`replay`] into a fresh in-memory store.
pub fn replay_in_memory(
    batches: Vec<Batch>,
    config: &StreamConfig,
    seed: u64,
) -> ReplayResult<PdnsStore> {
    replay(batches, config, PdnsStore::new(), seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{collect_rows, day_batches, DAY_US};
    use fw_dns::pdns::PdnsStore;
    use fw_types::{DayStamp, Fqdn, Rdata};
    use std::net::Ipv4Addr;

    #[test]
    fn replay_applies_batches_at_their_virtual_offsets() {
        let mut store = PdnsStore::new();
        let f = Fqdn::parse("a1b2c3d4e5f6.lambda-url.us-east-1.on.aws").unwrap();
        let ip = Rdata::V4(Ipv4Addr::new(203, 0, 113, 1));
        // Three active days with a gap: days 0, 1, and 9.
        for (d, cnt) in [(19_100, 50), (19_101, 60), (19_109, 5)] {
            store.observe_count(&f, &ip, DayStamp(d), cnt);
        }
        let batches = day_batches(&collect_rows(&store), 1);
        assert_eq!(batches.len(), 3);
        let config = StreamConfig {
            workers: 1,
            ..StreamConfig::default()
        };
        let result = replay_in_memory(batches, &config, 42);
        // End-of-stream lands on the last batch's arrival: 9 virtual
        // days after start.
        assert_eq!(result.virtual_us, 9 * DAY_US);
        let cp = result.final_state.checkpoint;
        assert_eq!(cp.batches, 3);
        assert_eq!(cp.rows, 3);
        assert_eq!(cp.identified, 1);
        // Burst threshold (100 requests cumulative) crossed on day 1's
        // batch → detection latency exactly one virtual day.
        let det = &result.final_state.detections;
        assert_eq!(det.len(), 1);
        assert_eq!(det[0].first_seen_us, 0);
        assert_eq!(det[0].flagged_us, DAY_US);
        assert_eq!(det[0].latency_us(), DAY_US);
    }
}
