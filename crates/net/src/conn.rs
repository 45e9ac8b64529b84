//! Byte-stream connections and the in-memory duplex pipe.
//!
//! [`Connection`] is the transport abstraction every protocol layer in the
//! workspace is written against. Two implementations exist: [`PipeConn`]
//! (an in-memory half of a duplex pipe, used by the simulated internet) and
//! the `TcpStream` adapter in [`crate::tcp`].

use crate::vclock::{Clock, ClockSource as _, Registration, VClock, WaitOutcome};
use parking_lot::{Mutex, MutexGuard};
use std::collections::VecDeque;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Capacity of one pipe direction. Writers block when the peer's receive
/// buffer is full — backpressure, like a real TCP window.
const PIPE_CAPACITY: usize = 256 * 1024;

/// A blocking, deadline-aware byte-stream connection.
pub trait Connection: Send + std::fmt::Debug {
    /// Write the whole buffer (blocking on backpressure).
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;

    /// Read up to `buf.len()` bytes. Returns `Ok(0)` on a cleanly closed
    /// peer. Honors the configured read timeout with `ErrorKind::TimedOut`.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize>;

    /// Set (or clear) the read timeout used by subsequent [`Connection::read`] calls.
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()>;

    /// Close the write direction; the peer observes EOF after draining.
    fn shutdown_write(&mut self);

    /// The remote address of this connection.
    fn peer_addr(&self) -> SocketAddr;

    /// Read exactly `buf.len()` bytes or fail with `UnexpectedEof`.
    fn read_exact(&mut self, buf: &mut [u8]) -> io::Result<()> {
        let mut filled = 0;
        while filled < buf.len() {
            match self.read(&mut buf[filled..])? {
                0 => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "peer closed before filling buffer",
                    ))
                }
                n => filled += n,
            }
        }
        Ok(())
    }
}

impl Connection for Box<dyn Connection> {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        (**self).write_all(buf)
    }
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        (**self).read(buf)
    }
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        (**self).set_read_timeout(timeout)
    }
    fn shutdown_write(&mut self) {
        (**self).shutdown_write()
    }
    fn peer_addr(&self) -> SocketAddr {
        (**self).peer_addr()
    }
}

/// One direction of a duplex pipe.
#[derive(Debug)]
struct PipeState {
    buf: VecDeque<u8>,
    /// Writer closed: reader sees EOF after draining.
    write_closed: bool,
    /// Reader dropped: writer gets ConnectionReset.
    read_closed: bool,
    /// Hard reset injected by the fault layer.
    reset: bool,
    /// Threads waiting for this direction to change: the reader for
    /// bytes or the writer for room, never both (the buffer cannot be
    /// empty and full at once). State changes signal only while this
    /// is non-zero — e.g. a reader's drain of a never-full pipe wakes
    /// nobody and costs no syscall.
    waiters: u32,
}

/// One direction's state. Its waiters park on the world's clock, on
/// this pipe's [`Pipe::chan`].
#[derive(Debug)]
struct Pipe {
    state: Mutex<PipeState>,
}

impl Pipe {
    fn new() -> Arc<Pipe> {
        Arc::new(Pipe {
            state: Mutex::new(PipeState {
                buf: VecDeque::new(),
                write_closed: false,
                read_closed: false,
                reset: false,
                waiters: 0,
            }),
        })
    }

    /// Unlock after a state change, then wake the thread waiting on
    /// this direction, if any. Signalling after the unlock lets the
    /// woken thread take the lock without parking again.
    fn release(self: &Arc<Pipe>, st: MutexGuard<'_, PipeState>, clock: &VClock) {
        let parked = st.waiters > 0;
        drop(st);
        if parked {
            clock.notify_chan(self.chan());
        }
    }

    /// Wake channel identity for [`crate::vclock::VClock::notify_chan`]:
    /// the pipe's address, stable for its lifetime because both
    /// endpoints hold the `Arc`.
    fn chan(self: &Arc<Pipe>) -> u64 {
        Arc::as_ptr(self) as u64
    }
}

/// One endpoint of an in-memory duplex connection.
pub struct PipeConn {
    /// Data flowing *to* this endpoint.
    rx: Arc<Pipe>,
    /// Data flowing *from* this endpoint.
    tx: Arc<Pipe>,
    read_timeout: Option<Duration>,
    local: SocketAddr,
    peer: SocketAddr,
    /// Time source for blocking waits: reads and backpressure block on
    /// the clock, and a read timeout is a virtual deadline.
    clock: Arc<VClock>,
    /// Held when this endpoint was opened by a thread with no persistent
    /// clock registration (e.g. a test's main thread): the connection
    /// itself then counts as a runnable actor, so a registered peer's
    /// idle deadline cannot fire while the owner is between waits.
    /// Waits through a leased endpoint count against the lease instead
    /// of auto-registering.
    lease: Option<Registration>,
}

impl std::fmt::Debug for PipeConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipeConn")
            .field("local", &self.local)
            .field("peer", &self.peer)
            .finish()
    }
}

/// Create a connected pair of pipe endpoints on a fresh virtual clock of
/// their own.
///
/// `a_addr` is the address of the first endpoint (its peer sees it as the
/// remote), and vice versa.
pub fn pipe_pair(a_addr: SocketAddr, b_addr: SocketAddr) -> (PipeConn, PipeConn) {
    pipe_pair_with_clock(a_addr, b_addr, &Clock::default())
}

/// [`pipe_pair`] on an existing clock shared by both endpoints. A test
/// whose threads must all count toward quiescence (a peer still working
/// while the other end reads with a deadline) registers them on `clock`.
pub fn pipe_pair_with_clock(
    a_addr: SocketAddr,
    b_addr: SocketAddr,
    clock: &Clock,
) -> (PipeConn, PipeConn) {
    let clock = clock.vclock();
    let ab = Pipe::new(); // a → b
    let ba = Pipe::new(); // b → a
    let a = PipeConn {
        rx: ba.clone(),
        tx: ab.clone(),
        read_timeout: None,
        local: a_addr,
        peer: b_addr,
        clock: clock.clone(),
        lease: None,
    };
    let b = PipeConn {
        rx: ab,
        tx: ba,
        read_timeout: None,
        local: b_addr,
        peer: a_addr,
        clock: clock.clone(),
        lease: None,
    };
    (a, b)
}

impl PipeConn {
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Attach a connection lease (see the `lease` field).
    pub(crate) fn set_lease(&mut self, lease: Registration) {
        self.lease = Some(lease);
    }

    /// Is this endpoint holding a connection lease?
    pub(crate) fn is_leased(&self) -> bool {
        self.lease.is_some()
    }

    /// Inject a hard reset visible to both directions (fault layer).
    pub(crate) fn inject_reset(&self) {
        for pipe in [&self.rx, &self.tx] {
            let mut st = pipe.state.lock();
            st.reset = true;
            pipe.release(st, &self.clock);
        }
    }
}

impl Connection for PipeConn {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let mut written = 0;
        while written < buf.len() {
            let mut st = self.tx.state.lock();
            loop {
                if st.reset {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionReset,
                        "connection reset",
                    ));
                }
                if st.read_closed {
                    return Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        "peer closed read side",
                    ));
                }
                if st.write_closed {
                    return Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        "write after shutdown",
                    ));
                }
                if st.buf.len() < PIPE_CAPACITY {
                    break;
                }
                st.waiters += 1;
                // Register the waiter before releasing the pipe lock so
                // the reader's drain cannot slip past unnoticed, then
                // block on the clock.
                let token =
                    self.clock
                        .prepare_wait_chan(None, self.lease.is_some(), self.tx.chan());
                drop(st);
                self.clock.complete_wait(token);
                st = self.tx.state.lock();
                st.waiters -= 1;
            }
            let room = PIPE_CAPACITY - st.buf.len();
            let take = room.min(buf.len() - written);
            st.buf.extend(&buf[written..written + take]);
            written += take;
            self.tx.release(st, &self.clock);
        }
        Ok(())
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        // Deadlines are absolute microseconds on the virtual clock.
        let deadline = self
            .read_timeout
            .map(|t| self.clock.now_us() + t.as_micros() as u64);
        let mut st = self.rx.state.lock();
        loop {
            if st.reset {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "connection reset",
                ));
            }
            if !st.buf.is_empty() {
                // Bulk copy out of the ring's contiguous runs instead of
                // popping byte-by-byte.
                let take = st.buf.len().min(buf.len());
                let (head, tail) = st.buf.as_slices();
                if take <= head.len() {
                    buf[..take].copy_from_slice(&head[..take]);
                } else {
                    buf[..head.len()].copy_from_slice(head);
                    buf[head.len()..take].copy_from_slice(&tail[..take - head.len()]);
                }
                st.buf.drain(..take);
                self.rx.release(st, &self.clock);
                return Ok(take);
            }
            if st.write_closed {
                return Ok(0); // clean EOF
            }
            st.waiters += 1;
            let token =
                self.clock
                    .prepare_wait_chan(deadline, self.lease.is_some(), self.rx.chan());
            drop(st);
            let outcome = self.clock.complete_wait(token);
            st = self.rx.state.lock();
            st.waiters -= 1;
            if outcome == WaitOutcome::TimedOut {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "read timed out"));
            }
        }
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.read_timeout = timeout;
        Ok(())
    }

    fn shutdown_write(&mut self) {
        let mut st = self.tx.state.lock();
        st.write_closed = true;
        self.tx.release(st, &self.clock);
    }

    fn peer_addr(&self) -> SocketAddr {
        self.peer
    }
}

impl Drop for PipeConn {
    fn drop(&mut self) {
        // Closing an endpoint: our outbound direction sees write-close (peer
        // gets EOF), our inbound direction sees read-close (peer writer gets
        // BrokenPipe instead of blocking forever).
        let mut st = self.tx.state.lock();
        st.write_closed = true;
        self.tx.release(st, &self.clock);
        let mut st = self.rx.state.lock();
        st.read_closed = true;
        self.rx.release(st, &self.clock);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs() -> (SocketAddr, SocketAddr) {
        (
            "10.0.0.1:40000".parse().unwrap(),
            "203.0.113.1:443".parse().unwrap(),
        )
    }

    #[test]
    fn roundtrip_bytes() {
        let (la, ra) = addrs();
        let (mut a, mut b) = pipe_pair(la, ra);
        a.write_all(b"hello function").unwrap();
        let mut buf = [0u8; 64];
        let n = b.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello function");
    }

    #[test]
    fn eof_after_shutdown() {
        let (la, ra) = addrs();
        let (mut a, mut b) = pipe_pair(la, ra);
        a.write_all(b"x").unwrap();
        a.shutdown_write();
        let mut buf = [0u8; 8];
        assert_eq!(b.read(&mut buf).unwrap(), 1);
        assert_eq!(b.read(&mut buf).unwrap(), 0); // clean EOF
    }

    #[test]
    fn read_timeout_fires() {
        let (la, ra) = addrs();
        let (_a, mut b) = pipe_pair(la, ra);
        // A virtual deadline: the lone reader is quiescence, so the
        // minute elapses on the pipe's clock, not on the wall.
        b.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut buf = [0u8; 8];
            let kind = b.read(&mut buf).map_err(|e| e.kind());
            tx.send((kind, b.clock.now_us())).unwrap();
        });
        let (kind, now_us) = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("no real waiting");
        assert_eq!(kind, Err(io::ErrorKind::TimedOut));
        assert_eq!(now_us, 60_000_000);
    }

    #[test]
    fn drop_of_peer_reader_breaks_writer() {
        let (la, ra) = addrs();
        let (mut a, b) = pipe_pair(la, ra);
        drop(b);
        // Large enough to exceed any internal buffering immediately? The
        // pipe reports BrokenPipe as soon as the reader is gone.
        let err = a.write_all(&[0u8; 16]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn drop_of_peer_writer_gives_eof() {
        let (la, ra) = addrs();
        let (a, mut b) = pipe_pair(la, ra);
        drop(a);
        let mut buf = [0u8; 8];
        assert_eq!(b.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn reset_is_visible_to_both_sides() {
        let (la, ra) = addrs();
        let (mut a, mut b) = pipe_pair(la, ra);
        a.inject_reset();
        let mut buf = [0u8; 8];
        assert_eq!(
            b.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
        assert_eq!(
            a.write_all(b"x").unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
    }

    #[test]
    fn backpressure_blocks_then_resumes() {
        let (la, ra) = addrs();
        let (mut a, mut b) = pipe_pair(la, ra);
        let payload = vec![7u8; PIPE_CAPACITY + 1024];
        let writer = std::thread::spawn(move || {
            a.write_all(&payload).unwrap();
            a.shutdown_write();
        });
        // Drain slowly from the other end.
        let mut total = 0usize;
        let mut buf = [0u8; 8192];
        loop {
            match b.read(&mut buf).unwrap() {
                0 => break,
                n => total += n,
            }
        }
        writer.join().unwrap();
        assert_eq!(total, PIPE_CAPACITY + 1024);
    }

    #[test]
    fn read_exact_and_unexpected_eof() {
        let (la, ra) = addrs();
        let (mut a, mut b) = pipe_pair(la, ra);
        a.write_all(b"abc").unwrap();
        a.shutdown_write();
        let mut buf = [0u8; 3];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"abc");
        let mut more = [0u8; 1];
        assert_eq!(
            b.read_exact(&mut more).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn addresses_are_reported() {
        let (la, ra) = addrs();
        let (a, b) = pipe_pair(la, ra);
        assert_eq!(a.peer_addr(), ra);
        assert_eq!(b.peer_addr(), la);
        assert_eq!(a.local_addr(), la);
    }
}
