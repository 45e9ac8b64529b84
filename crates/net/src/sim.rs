//! The simulated internet.
//!
//! [`SimNet`] is a registry of listeners keyed by socket address. A client
//! [`SimNet::connect`]s to an address and receives a byte-stream
//! [`Connection`]; the listener's handler runs on a thread with the other
//! end of the duplex pipe, exactly as a blocking accept-loop server
//! would: a spare reused across connections (`Spares`) for a handler
//! listener, or one of its pre-spawned workers for a pooled listener
//! ([`SimNet::listen_pool`]). All connections pass through the fault layer,
//! whose plan ([`FaultConfig`]) is fixed when the world is built
//! ([`SimNet::with_faults`]); the `fw.net.*` counters of fw-obs make
//! fault behaviour observable.

use crate::conn::{pipe_pair_with_clock, Connection, PipeConn};
use crate::fault::{chunk_fate, ChunkFate, FaultConfig};
use crate::vclock::{Clock, Registration, VClock};
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Server-side connection handler. Runs on a handler thread of its own
/// for the connection's lifetime; returning closes the server end.
pub type Handler = Arc<dyn Fn(Box<dyn Connection>) + Send + Sync>;

/// How a listener accepts connections.
#[derive(Clone)]
enum Listener {
    /// Each connection runs the handler on a spare thread of its own
    /// (fine for probe workloads where connections are long-lived
    /// relative to their number).
    Handler(Handler),
    /// A fixed pool of pre-spawned, clock-registered workers with
    /// per-worker accept queues. Connections are steered to
    /// `flow % workers`, so a load harness partitioning clients the
    /// same way gets perfect affinity and zero cross-worker contention.
    Pool(Arc<AcceptPool>),
}

/// Accept queue for one pool worker.
struct AcceptQueue {
    state: Mutex<QueueState>,
    clock: Arc<VClock>,
}

struct QueueState {
    conns: VecDeque<Box<dyn Connection>>,
    closed: bool,
    /// Workers parked on the virtual clock for this queue.
    waiters: u32,
}

impl AcceptQueue {
    fn new(clock: Arc<VClock>) -> Arc<AcceptQueue> {
        Arc::new(AcceptQueue {
            state: Mutex::new(QueueState {
                conns: VecDeque::new(),
                closed: false,
                waiters: 0,
            }),
            clock,
        })
    }

    /// Wake channel: the queue's address (same convention as pipes).
    fn chan(self: &Arc<AcceptQueue>) -> u64 {
        Arc::as_ptr(self) as u64
    }

    /// Enqueue an accepted connection; dropped if the listener closed
    /// (the client then observes EOF, as with a refused accept).
    fn push(self: &Arc<AcceptQueue>, conn: Box<dyn Connection>) {
        let mut st = self.state.lock();
        if st.closed {
            return;
        }
        st.conns.push_back(conn);
        self.release(st);
    }

    /// Close the queue: workers drain what is already queued, then exit.
    fn close(self: &Arc<AcceptQueue>) {
        let mut st = self.state.lock();
        st.closed = true;
        self.release(st);
    }

    /// Unlock after a state change, then wake the parked worker, if any.
    fn release(self: &Arc<AcceptQueue>, st: MutexGuard<'_, QueueState>) {
        let parked = st.waiters > 0;
        drop(st);
        if parked {
            self.clock.notify_chan(self.chan());
        }
    }

    /// Blocking accept; `None` once closed and drained.
    fn accept(self: &Arc<AcceptQueue>) -> Option<Box<dyn Connection>> {
        let mut st = self.state.lock();
        loop {
            if let Some(c) = st.conns.pop_front() {
                return Some(c);
            }
            if st.closed {
                return None;
            }
            // Two-phase wait on the queue's channel; workers are
            // persistently registered, so no deadline and no
            // auto-registration: an idle worker is simply "blocked
            // forever" to quiescence detection.
            let token = self.clock.prepare_wait_chan(None, false, self.chan());
            st.waiters += 1;
            drop(st);
            self.clock.complete_wait(token);
            st = self.state.lock();
            st.waiters -= 1;
        }
    }
}

/// The per-worker queues of one pooled listener.
struct AcceptPool {
    queues: Vec<Arc<AcceptQueue>>,
}

impl AcceptPool {
    fn close(&self) {
        for q in &self.queues {
            q.close();
        }
    }
}

/// A connection handed to a handler thread.
struct Job {
    handler: Handler,
    conn: Box<dyn Connection>,
    /// Taken by the connector *before* the hand-off, so the clock
    /// cannot advance in the window where the connection exists but its
    /// handler has not run yet.
    registration: Registration,
}

impl Job {
    fn run(self) {
        let _active = self.registration.activate();
        (self.handler)(self.conn);
    }
}

/// One handler thread's mailbox.
#[derive(Default)]
struct Spare {
    slot: Mutex<Slot>,
    /// The idle spare parks here, never on the virtual clock: it holds
    /// no registration, so to quiescence it is an exited thread.
    cv: Condvar,
}

#[derive(Default)]
struct Slot {
    job: Option<Job>,
    exit: bool,
    parked: bool,
}

impl Spare {
    /// Post a job (or `None`: exit) and wake the spare if it is parked.
    fn post(&self, job: Option<Job>) {
        let mut slot = self.slot.lock();
        match job {
            Some(job) => slot.job = Some(job),
            None => slot.exit = true,
        }
        let parked = slot.parked;
        drop(slot);
        if parked {
            self.cv.notify_one();
        }
    }

    /// Park until the next job; `None` once told to exit.
    fn next(&self) -> Option<Job> {
        let mut slot = self.slot.lock();
        loop {
            if let Some(job) = slot.job.take() {
                return Some(job);
            }
            if slot.exit {
                return None;
            }
            slot.parked = true;
            self.cv.wait(&mut slot);
            slot.parked = false;
        }
    }
}

/// The idle handler threads of one world. A connection to a handler
/// listener runs on an idle spare; a thread is spawned only when none
/// is idle, so the handler threads a world spawns are bounded by its
/// peak number of handlers in flight, not by its number of connections.
#[derive(Default)]
struct Spares {
    idle: Mutex<Idle>,
}

#[derive(Default)]
struct Idle {
    spares: Vec<Arc<Spare>>,
    /// The world dropped: returning spares exit instead of idling.
    closed: bool,
}

impl Spares {
    /// Run `job` on an idle spare, or on a new thread if none is idle.
    fn dispatch(self: &Arc<Spares>, job: Job) -> io::Result<()> {
        let idle = self.idle.lock().spares.pop();
        if let Some(spare) = idle {
            spare.post(Some(job));
            return Ok(());
        }
        fw_obs::counter_inc!("fw.net.handler_threads");
        let spares = self.clone();
        std::thread::Builder::new()
            .name("sim-handler".into())
            .spawn(move || spares.serve(job))
            .map(drop)
    }

    /// A handler thread's life: run the job, go idle, take the next.
    /// A panicking handler ends its thread, which is off the idle list
    /// while it runs; the unwind releases its registration and server
    /// end as any exiting handler thread does.
    fn serve(self: Arc<Spares>, mut job: Job) {
        let me = Arc::new(Spare::default());
        loop {
            job.run();
            // A spare outlives its handlers, so its trace events cannot
            // wait for the flush at thread exit.
            fw_obs::flush_thread_trace();
            {
                let mut idle = self.idle.lock();
                if idle.closed {
                    return;
                }
                idle.spares.push(me.clone());
            }
            match me.next() {
                Some(next) => job = next,
                None => return,
            }
        }
    }

    /// Tell every idle spare to exit; busy ones exit when their
    /// handler returns.
    fn close(&self) {
        let idle = {
            let mut idle = self.idle.lock();
            idle.closed = true;
            std::mem::take(&mut idle.spares)
        };
        for spare in idle {
            spare.post(None);
        }
    }
}

struct Inner {
    listeners: RwLock<HashMap<SocketAddr, Listener>>,
    /// The world's fault plan, fixed at construction.
    faults: FaultConfig,
    /// The world's virtual clock: timeouts and injected delays are
    /// discrete events, not real sleeps.
    clock: Clock,
    spares: Arc<Spares>,
    seed: u64,
    /// Per-flow connection ordinals: fault draws are keyed by
    /// `(seed, flow, ordinal)` so outcomes do not depend on how
    /// concurrent flows interleave (see [`SimNet::connect_for`]).
    flow_seq: Mutex<HashMap<u64, u64>>,
    next_client_port: AtomicU64,
}

impl Drop for Inner {
    fn drop(&mut self) {
        // Release pooled accept workers (they drain and exit) and idle
        // handler threads. Without this, a dropped world would leak
        // parked threads.
        for listener in self.listeners.get_mut().values() {
            if let Listener::Pool(pool) = listener {
                pool.close();
            }
        }
        self.spares.close();
    }
}

/// FNV-1a 64-bit, the flow-key hash (stable across processes, unlike
/// the std hasher), and the splitmix64 finalizer that spreads structured
/// seed material across the whole word so nearby flows get unrelated
/// RNG streams.
use fw_types::fnv::{fnv1a as fnv64, mix};

/// Handle to the simulated internet. Cheap to clone.
#[derive(Clone)]
pub struct SimNet {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for SimNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimNet")
            .field("listeners", &self.inner.listeners.read().len())
            .finish()
    }
}

impl SimNet {
    /// Create a healthy network with a seeded fault RNG, running on
    /// deterministic virtual time (see [`crate::vclock`]).
    pub fn new(seed: u64) -> SimNet {
        SimNet::with_faults(seed, FaultConfig::default())
    }

    /// Create a network whose every connection passes through the fault
    /// plan `faults`, fixed for the world's life. Panics if a
    /// probability lies outside `[0, 1]`.
    pub fn with_faults(seed: u64, faults: FaultConfig) -> SimNet {
        faults.validate().expect("invalid fault config");
        SimNet {
            inner: Arc::new(Inner {
                listeners: RwLock::new(HashMap::new()),
                faults,
                clock: Clock::default(),
                spares: Arc::default(),
                seed,
                flow_seq: Mutex::new(HashMap::new()),
                next_client_port: AtomicU64::new(40_000),
            }),
        }
    }

    /// The world's time source.
    pub fn clock(&self) -> &Clock {
        &self.inner.clock
    }

    /// Install a listener. Replaces any previous listener on the address.
    pub fn listen(&self, addr: SocketAddr, handler: Handler) {
        self.install(addr, Listener::Handler(handler));
    }

    /// Convenience wrapper taking a closure.
    pub fn listen_fn<F>(&self, addr: SocketAddr, f: F)
    where
        F: Fn(Box<dyn Connection>) + Send + Sync + 'static,
    {
        self.listen(addr, Arc::new(f));
    }

    /// Install a pooled listener: `workers` pre-spawned, clock-registered
    /// accept loops, each fed by its own queue. `factory(w)` builds the
    /// per-worker handler (so each worker can own mutable scratch state
    /// with no locking); connections steer to `flow % workers` — the
    /// flow being the id given to [`SimNet::connect_flow_id`], or the
    /// flow key of [`SimNet::connect_for`].
    ///
    /// Unlike [`SimNet::listen`], handlers run *on the worker*, so a
    /// worker serves one connection at a time; suited to short
    /// request/response exchanges (the fw-serve plane), not long-lived
    /// streams. Like a spare, a worker flushes its trace buffer after
    /// each handler returns. A handler that panics ends only its own
    /// connection (the unwind drops it, counted as
    /// `fw.net.pool.handler_panics`); the worker keeps accepting the
    /// flows steered to it.
    pub fn listen_pool<F, H>(&self, addr: SocketAddr, workers: usize, mut factory: F)
    where
        F: FnMut(usize) -> H,
        H: FnMut(Box<dyn Connection>) + Send + 'static,
    {
        let workers = workers.max(1);
        let mut queues = Vec::with_capacity(workers);
        for w in 0..workers {
            let q = AcceptQueue::new(self.inner.clock.vclock().clone());
            let mut handler = factory(w);
            // Register before spawning so the clock cannot advance in
            // the window where the worker exists but has not parked yet.
            let registration = self.inner.clock.vclock().register();
            let worker_q = q.clone();
            std::thread::Builder::new()
                .name(format!("sim-accept-{addr}-{w}"))
                .spawn(move || {
                    let _active = registration.activate();
                    while let Some(conn) = worker_q.accept() {
                        if catch_unwind(AssertUnwindSafe(|| handler(conn))).is_err() {
                            fw_obs::counter_inc!("fw.net.pool.handler_panics");
                        }
                        // The worker outlives its connections, like a
                        // spare, so its trace cannot wait for thread exit.
                        fw_obs::flush_thread_trace();
                    }
                })
                .expect("spawn accept worker");
            queues.push(q);
        }
        self.install(addr, Listener::Pool(Arc::new(AcceptPool { queues })));
    }

    fn install(&self, addr: SocketAddr, listener: Listener) {
        let prev = self.inner.listeners.write().insert(addr, listener);
        if let Some(Listener::Pool(pool)) = prev {
            pool.close();
        }
    }

    /// Open a connection to `addr`. A handler listener runs its handler
    /// on a spare thread with the server end; a pooled listener queues
    /// the server end for one of its workers. Fault draws are keyed by
    /// the target address; concurrent callers hitting the same address
    /// should prefer [`SimNet::connect_for`] with a distinguishing flow
    /// name.
    pub fn connect(&self, addr: SocketAddr) -> io::Result<Box<dyn Connection>> {
        self.connect_for(addr, "")
    }

    /// Open a connection to `addr` as part of the named `flow` (e.g. the
    /// fqdn being probed). All fault decisions for the connection come
    /// from an RNG seeded by `(net seed, flow, addr, per-flow ordinal)`,
    /// so a multi-threaded client gets identical outcomes run-to-run no
    /// matter how its workers interleave — as long as each flow's own
    /// connects stay ordered (the prober probes one domain sequentially).
    pub fn connect_for(&self, addr: SocketAddr, flow: &str) -> io::Result<Box<dyn Connection>> {
        let key = fnv64(flow.as_bytes()) ^ fnv64(addr.to_string().as_bytes());
        let ordinal = {
            let mut seq = self.inner.flow_seq.lock();
            let slot = seq.entry(key).or_insert(0);
            let o = *slot;
            *slot += 1;
            o
        };
        self.connect_seeded(
            addr,
            mix(self.inner.seed ^ key ^ ordinal.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            key,
        )
    }

    /// [`SimNet::connect_for`] for callers that already have a unique
    /// numeric flow identity (e.g. a load-harness client id) and open
    /// **one** connection per flow. Skips the per-flow ordinal table and
    /// the string hashing entirely — with millions of one-shot clients
    /// the ordinal map would only grow without ever disambiguating
    /// anything — while keeping fault draws deterministic per
    /// `(net seed, flow_id)`.
    pub fn connect_flow_id(
        &self,
        addr: SocketAddr,
        flow_id: u64,
    ) -> io::Result<Box<dyn Connection>> {
        self.connect_seeded(addr, mix(self.inner.seed ^ mix(flow_id)), flow_id)
    }

    /// `steer` picks the worker of a pooled listener (`steer % workers`);
    /// it never feeds the fault RNG, so handler and pooled listeners
    /// observe identical fault draws for the same flow.
    fn connect_seeded(
        &self,
        addr: SocketAddr,
        conn_seed: u64,
        steer: u64,
    ) -> io::Result<Box<dyn Connection>> {
        let faults = &self.inner.faults;
        let mut rng = SmallRng::seed_from_u64(conn_seed);
        if faults.refuse_chance > 0.0 && rng.gen_bool(faults.refuse_chance) {
            fw_obs::counter_inc!("fw.net.refused");
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "connection refused (injected fault)",
            ));
        }
        let listener = match self.inner.listeners.read().get(&addr) {
            Some(l) => l.clone(),
            None => {
                fw_obs::counter_inc!("fw.net.refused");
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    format!("nothing listening on {addr}"),
                ));
            }
        };
        let port = self.inner.next_client_port.fetch_add(1, Ordering::Relaxed);
        let client_addr = SocketAddr::new(
            IpAddr::V4(Ipv4Addr::new(100, 64, (port >> 8) as u8 & 0x3f, port as u8)),
            (20_000 + (port % 40_000)) as u16,
        );
        let (mut client_end, server_end) =
            pipe_pair_with_clock(client_addr, addr, &self.inner.clock);
        // A caller with no persistent clock registration (a test main,
        // an example) is invisible to quiescence detection, so the
        // client end leases a registration for the connection's
        // lifetime — without it, the handler blocking on its idle
        // timeout would be instant quiescence and the timeout would
        // fire while the client is still composing its request.
        if !crate::vclock::thread_registered() {
            client_end.set_lease(self.inner.clock.vclock().register());
        }

        // Injected hard reset right after establishment.
        if faults.reset_chance > 0.0 && rng.gen_bool(faults.reset_chance) {
            client_end.inject_reset();
            fw_obs::counter_inc!("fw.net.resets_injected");
        }

        fw_obs::counter_inc!("fw.net.connections");
        // Each end draws chunk fates from its own stream of the
        // connection seed, so server-thread scheduling cannot reorder
        // the client's draws.
        let server_conn: Box<dyn Connection> = Box::new(FaultedConn {
            inner: server_end,
            rng: SmallRng::seed_from_u64(conn_seed ^ 0x5ca1_ab1e_0000_0001),
            net: self.inner.clone(),
            _trace: None,
        });
        match listener {
            Listener::Handler(handler) => self.inner.spares.dispatch(Job {
                handler,
                conn: server_conn,
                registration: self.inner.clock.vclock().register(),
            })?,
            Listener::Pool(pool) => {
                // Queue the server end for the steered worker, which is
                // already registered and parked.
                let w = (steer % pool.queues.len() as u64) as usize;
                pool.queues[w].push(server_conn);
            }
        }

        Ok(Box::new(FaultedConn {
            inner: client_end,
            rng,
            net: self.inner.clone(),
            // Connection lifetimes overlap arbitrarily with the opening
            // stack, so they trace as async (Chrome `b`/`e`) events
            // keyed by target port rather than nested sync spans.
            _trace: Some(fw_obs::trace_async("net/conn", addr.port() as u64)),
        }))
    }
}

/// A pipe endpoint whose writes pass through the fault layer, drawing
/// fates from its own per-connection RNG.
struct FaultedConn {
    inner: PipeConn,
    rng: SmallRng,
    net: Arc<Inner>,
    /// Open async trace span bracketing the connection's lifetime
    /// (client end only; the guard's drop emits the AsyncEnd event).
    _trace: Option<fw_obs::AsyncSpan>,
}

impl std::fmt::Debug for FaultedConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultedConn")
            .field("inner", &self.inner)
            .finish()
    }
}

impl Connection for FaultedConn {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let faults = &self.net.faults;
        fw_obs::counter_add!("fw.net.bytes_sent", buf.len() as u64);
        let fate = chunk_fate(faults, buf.len(), &mut self.rng);
        if faults.delay_us > 0 {
            // Injected latency is a scheduled event on this world's
            // virtual clock. A leased endpoint's sleep counts against
            // the lease (see `PipeConn::set_lease`), not a fresh
            // registration.
            self.net.clock.vclock().sleep_counted(
                Duration::from_micros(faults.delay_us),
                self.inner.is_leased(),
            );
        }
        match fate {
            ChunkFate::Deliver => self.inner.write_all(buf),
            ChunkFate::Drop => {
                fw_obs::counter_inc!("fw.net.chunks_dropped");
                Ok(()) // silently vanishes: the peer will time out
            }
            ChunkFate::Corrupt(off) => {
                fw_obs::counter_inc!("fw.net.chunks_corrupted");
                let mut copy = buf.to_vec();
                copy[off] ^= 0x20;
                self.inner.write_all(&copy)
            }
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(timeout)
    }

    fn shutdown_write(&mut self) {
        self.inner.shutdown_write()
    }

    fn peer_addr(&self) -> SocketAddr {
        self.inner.peer_addr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vclock::ClockSource as _;

    fn echo_handler() -> Handler {
        Arc::new(|mut conn: Box<dyn Connection>| {
            let mut buf = [0u8; 1024];
            loop {
                match conn.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        if conn.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                }
            }
        })
    }

    fn addr(last: u8, port: u16) -> SocketAddr {
        SocketAddr::new(IpAddr::V4(Ipv4Addr::new(203, 0, 113, last)), port)
    }

    #[test]
    fn connect_and_echo() {
        let net = SimNet::new(1);
        net.listen(addr(1, 80), echo_handler());
        let mut conn = net.connect(addr(1, 80)).unwrap();
        conn.write_all(b"ping").unwrap();
        let mut buf = [0u8; 16];
        conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let n = conn.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");
    }

    #[test]
    fn connect_to_nothing_is_refused() {
        let net = SimNet::new(1);
        let err = net.connect(addr(9, 80)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
    }

    #[test]
    fn injected_refusals_respect_probability() {
        let net = SimNet::with_faults(
            42,
            FaultConfig {
                refuse_chance: 1.0,
                ..FaultConfig::default()
            },
        );
        net.listen(addr(1, 80), echo_handler());
        for _ in 0..10 {
            assert!(net.connect(addr(1, 80)).is_err());
        }
    }

    #[test]
    fn injected_reset_surfaces_as_connection_reset() {
        let net = SimNet::with_faults(
            7,
            FaultConfig {
                reset_chance: 1.0,
                ..FaultConfig::default()
            },
        );
        net.listen(addr(1, 80), echo_handler());
        let mut conn = net.connect(addr(1, 80)).unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let mut buf = [0u8; 4];
        let kind = match conn.write_all(b"ping") {
            Err(e) => e.kind(),
            Ok(()) => conn.read(&mut buf).unwrap_err().kind(),
        };
        assert_eq!(kind, io::ErrorKind::ConnectionReset);
    }

    #[test]
    fn dropped_chunks_cause_peer_timeout() {
        let net = SimNet::with_faults(
            5,
            FaultConfig {
                drop_chance: 1.0,
                ..FaultConfig::default()
            },
        );
        net.listen(addr(1, 80), echo_handler());
        let mut conn = net.connect(addr(1, 80)).unwrap();
        conn.write_all(b"lost").unwrap(); // vanishes
        conn.set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(
            conn.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::TimedOut
        );
    }

    #[test]
    fn corruption_flips_exactly_one_byte() {
        let net = SimNet::with_faults(
            9,
            FaultConfig {
                corrupt_chance: 1.0,
                ..FaultConfig::default()
            },
        );
        // Both directions pass the fault layer, so the handler reports
        // how many bytes of the request it read differ from `aaaa`, then
        // answers with fresh bytes.
        let (report, diffs) = std::sync::mpsc::channel();
        net.listen_fn(addr(1, 80), move |mut conn| {
            let mut req = [0u8; 4];
            if conn.read_exact(&mut req).is_ok() {
                let _ = report.send(req.iter().filter(|b| **b != b'a').count());
                let _ = conn.write_all(b"bbbb");
            }
        });
        let mut conn = net.connect(addr(1, 80)).unwrap();
        conn.write_all(b"aaaa").unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut reply = [0u8; 4];
        conn.read_exact(&mut reply).unwrap();
        assert_eq!(diffs.recv().unwrap(), 1, "request: one byte flipped");
        let flipped = reply.iter().filter(|b| **b != b'b').count();
        assert_eq!(flipped, 1, "reply: one byte flipped, got {reply:?}");
    }

    #[test]
    fn many_concurrent_connections() {
        let net = SimNet::new(3);
        net.listen(addr(1, 80), echo_handler());
        let mut handles = Vec::new();
        for i in 0..32u8 {
            let net = net.clone();
            handles.push(std::thread::spawn(move || {
                let mut conn = net.connect(addr(1, 80)).unwrap();
                let msg = vec![i; 128];
                conn.write_all(&msg).unwrap();
                conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                let mut buf = vec![0u8; 128];
                conn.read_exact(&mut buf).unwrap();
                assert_eq!(buf, msg);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn pooled_listener_echoes_and_steers_by_flow_id() {
        let net = SimNet::new(21);
        // Each worker answers with its own index, proving steering.
        net.listen_pool(addr(1, 80), 2, |w| {
            move |mut conn: Box<dyn Connection>| {
                let mut buf = [0u8; 64];
                while let Ok(n) = conn.read(&mut buf) {
                    if n == 0 {
                        break;
                    }
                    if conn.write_all(&[w as u8]).is_err() {
                        break;
                    }
                }
            }
        });
        for id in 0..6u64 {
            let mut conn = net.connect_flow_id(addr(1, 80), id).unwrap();
            conn.write_all(b"ping").unwrap();
            conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let mut buf = [0u8; 1];
            conn.read_exact(&mut buf).unwrap();
            assert_eq!(u64::from(buf[0]), id % 2, "flow {id} steered wrong");
        }
    }

    #[test]
    fn pooled_workers_keep_per_worker_state() {
        let net = SimNet::new(22);
        // A per-worker counter (no locks) survives across connections.
        net.listen_pool(addr(2, 80), 1, |_w| {
            let mut served = 0u8;
            move |mut conn: Box<dyn Connection>| {
                served += 1;
                let mut buf = [0u8; 8];
                let _ = conn.read(&mut buf);
                let _ = conn.write_all(&[served]);
            }
        });
        for expect in 1..=3u8 {
            let mut conn = net.connect_flow_id(addr(2, 80), 0).unwrap();
            conn.write_all(b"x").unwrap();
            conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let mut buf = [0u8; 1];
            conn.read_exact(&mut buf).unwrap();
            assert_eq!(buf[0], expect);
        }
    }

    #[test]
    fn panicking_pooled_handler_ends_only_its_own_connection() {
        fw_obs::set_enabled(true);
        let net = SimNet::new(24);
        // One worker: `p` panics mid-connection, anything else echoes.
        net.listen_pool(addr(10, 80), 1, |_w| {
            move |mut conn: Box<dyn Connection>| {
                let mut buf = [0u8; 1];
                if conn.read_exact(&mut buf).is_ok() {
                    if buf[0] == b'p' {
                        panic!("handler panic (expected by the test)");
                    }
                    let _ = conn.write_all(&buf);
                }
            }
        });
        let mut conn = net.connect_flow_id(addr(10, 80), 0).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        conn.write_all(b"p").unwrap();
        let mut buf = [0u8; 1];
        // The unwind dropped the server end: clean EOF, no timeout.
        assert_eq!(conn.read(&mut buf).unwrap(), 0);
        drop(conn);

        // The same worker still takes the flows steered to it.
        let mut conn = net.connect_flow_id(addr(10, 80), 0).unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(300)))
            .unwrap();
        conn.write_all(b"x").unwrap();
        conn.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"x");
        assert_eq!(net.clock().now_us(), 0);
        assert_eq!(
            fw_obs::registry()
                .counter("fw.net.pool.handler_panics")
                .get(),
            1
        );
    }

    /// A pooled listener's workers drain their queues and exit, dropping
    /// their handlers, once the listener is replaced or the world is
    /// dropped.
    #[test]
    fn replaced_or_dropped_pool_shuts_down() {
        for drop_world in [false, true] {
            let net = SimNet::new(23);
            let (alive, exited) = std::sync::mpsc::channel::<()>();
            net.listen_pool(addr(3, 80), 2, |_w| {
                let alive = alive.clone();
                move |mut conn: Box<dyn Connection>| {
                    let _ = &alive;
                    let mut buf = [0u8; 8];
                    let _ = conn.read(&mut buf);
                    let _ = conn.write_all(b"ok");
                }
            });
            drop(alive);
            assert!(net.connect_flow_id(addr(3, 80), 1).is_ok());
            if drop_world {
                drop(net);
            } else {
                net.listen(addr(3, 80), echo_handler());
                assert!(net.connect_flow_id(addr(3, 80), 2).is_ok());
            }
            assert_eq!(
                exited.recv_timeout(Duration::from_secs(10)),
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected),
                "pool workers exited (drop_world={drop_world})"
            );
        }
    }

    #[test]
    fn distinct_client_addresses() {
        let net = SimNet::new(11);
        net.listen(addr(1, 80), echo_handler());
        let c1 = net.connect(addr(1, 80)).unwrap();
        let c2 = net.connect(addr(1, 80)).unwrap();
        assert_eq!(c1.peer_addr(), addr(1, 80));
        assert_eq!(c2.peer_addr(), addr(1, 80));
    }

    /// Block (bounded) until `n` handler threads of `net` are idle.
    /// A spare goes idle only after its handler returned and its trace
    /// buffer was flushed.
    fn wait_idle(net: &SimNet, n: usize) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while net.inner.spares.idle.lock().spares.len() < n {
            assert!(
                std::time::Instant::now() < deadline,
                "handler threads never went idle"
            );
            std::thread::yield_now();
        }
    }

    /// One echo exchange on a fresh connection, then close it.
    fn exchange(net: &SimNet, to: SocketAddr, msg: &[u8]) {
        let mut conn = net.connect(to).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        conn.write_all(msg).unwrap();
        let mut buf = vec![0u8; msg.len()];
        conn.read_exact(&mut buf).unwrap();
        assert_eq!(buf, msg);
    }

    #[test]
    fn sequential_connections_reuse_one_handler_thread() {
        let net = SimNet::new(31);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen_in_handler = seen.clone();
        let echo = echo_handler();
        net.listen_fn(addr(4, 80), move |conn| {
            seen_in_handler.lock().push(std::thread::current().id());
            echo(conn)
        });
        for i in 0..20u8 {
            exchange(&net, addr(4, 80), &[i; 8]);
            wait_idle(&net, 1);
        }
        let seen = seen.lock();
        assert_eq!(seen.len(), 20);
        assert!(
            seen.iter().all(|id| *id == seen[0]),
            "20 sequential connections ran on more than one thread: {seen:?}"
        );
    }

    #[test]
    fn simultaneous_connections_are_served_concurrently() {
        let net = SimNet::new(32);
        net.listen(addr(5, 80), echo_handler());
        let mut a = net.connect(addr(5, 80)).unwrap();
        let mut b = net.connect(addr(5, 80)).unwrap();
        // A hand-off that queued `b` behind `a`'s handler would leave
        // `b` unanswered while `a` is still open: its read times out.
        a.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        b.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut buf = [0u8; 4];
        for round in 0..4u8 {
            a.write_all(&[b'a', round, 0, 0]).unwrap();
            b.write_all(&[b'b', round, 0, 0]).unwrap();
            b.read_exact(&mut buf).unwrap();
            assert_eq!(buf, [b'b', round, 0, 0]);
            a.read_exact(&mut buf).unwrap();
            assert_eq!(buf, [b'a', round, 0, 0]);
        }
    }

    #[test]
    fn panicking_handler_leaves_listener_serving_and_clock_advancing() {
        let net = SimNet::new(33);
        // `p` panics mid-connection; anything else is read and never
        // answered, so the client's read timeout has to fire.
        net.listen_fn(addr(6, 80), |mut conn| {
            let mut buf = [0u8; 1];
            if conn.read(&mut buf).is_ok() && buf[0] == b'p' {
                panic!("handler panic (expected by the test)");
            }
            let _ = conn.read(&mut buf);
        });
        let mut conn = net.connect(addr(6, 80)).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        conn.write_all(b"p").unwrap();
        let mut buf = [0u8; 1];
        // The unwind dropped the server end: clean EOF, no timeout.
        assert_eq!(conn.read(&mut buf).unwrap(), 0);
        assert_eq!(net.clock().now_us(), 0);
        drop(conn);

        let mut conn = net.connect(addr(6, 80)).unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(300)))
            .unwrap();
        conn.write_all(b"x").unwrap();
        let err = conn.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        // A registration leaked by the panic would pin the clock and
        // hang this read instead.
        assert_eq!(net.clock().now_us(), 300_000);
    }

    #[test]
    fn spares_exit_when_the_world_drops() {
        let net = SimNet::new(34);
        net.listen(addr(7, 80), echo_handler());
        let conns: Vec<_> = (0..3).map(|_| net.connect(addr(7, 80)).unwrap()).collect();
        drop(conns);
        wait_idle(&net, 3);
        let spares = net.inner.spares.clone();
        drop(net);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while Arc::strong_count(&spares) > 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "{} spare threads still hold the spare list",
                Arc::strong_count(&spares) - 1
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The trace sink is global: tests that drain it take turns so one
    /// cannot drain the span another is looking for.
    static TRACE_DRAIN: Mutex<()> = Mutex::new(());

    /// Drain the trace and return the args of span `name`'s events.
    fn drained_args(name: &str) -> Vec<u64> {
        let dump = fw_obs::drain_trace();
        let Some(id) = dump.names.iter().position(|n| n == name) else {
            return Vec::new();
        };
        dump.events
            .iter()
            .filter(|e| e.name_id as usize == id)
            .map(|e| e.arg)
            .collect()
    }

    #[test]
    fn handler_spans_are_flushed_when_the_handler_returns() {
        const SPAN: &str = "net/test/spare_handler_span";
        let _turn = TRACE_DRAIN.lock();
        fw_obs::set_trace_enabled(true);
        let net = SimNet::new(35);
        let echo = echo_handler();
        net.listen_fn(addr(8, 80), move |conn| {
            let _span = fw_obs::trace_span(SPAN);
            echo(conn)
        });
        exchange(&net, addr(8, 80), b"traced");
        wait_idle(&net, 1);
        // The spare is parked, not exited, and the world is alive: only
        // the flush after the handler returned can have delivered it.
        assert!(
            !drained_args(SPAN).is_empty(),
            "handler span missing from the drained trace"
        );
        drop(net);
    }

    #[test]
    fn pooled_handler_spans_are_flushed_when_the_handler_returns() {
        const SPAN: &str = "net/test/pool_handler_span";
        let _turn = TRACE_DRAIN.lock();
        fw_obs::set_trace_enabled(true);
        let net = SimNet::new(36);
        net.listen_pool(addr(9, 80), 1, |_w| {
            let mut served = 0u64;
            move |mut conn: Box<dyn Connection>| {
                served += 1;
                let _span = fw_obs::trace_span_arg(SPAN, served);
                let mut buf = [0u8; 1];
                if conn.read_exact(&mut buf).is_ok() {
                    let _ = conn.write_all(&buf);
                }
            }
        });
        for msg in [b"1", b"2"] {
            let mut conn = net.connect_flow_id(addr(9, 80), 0).unwrap();
            conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            conn.write_all(msg).unwrap();
            let mut buf = [0u8; 1];
            conn.read_exact(&mut buf).unwrap();
        }
        // The one worker answered the second connection, so it returned
        // from the first handler; the world is alive, so only a flush
        // after that handler can have delivered its span.
        assert!(
            drained_args(SPAN).contains(&1),
            "first connection's span missing from the drained trace"
        );
        drop(net);
    }
}
