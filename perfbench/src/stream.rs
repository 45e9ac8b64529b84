//! `stream_hourly`: hourly batches of a generated world replayed over
//! SimNet into the sensing daemon (`fw_stream::replay_in_memory`).
//! Untraced iterations call `replay_in_memory`; the traced iteration
//! rebuilds the same topology from public parts — `write_batch` /
//! `read_frame` over a SimNet connection, and the four calls inside
//! `StreamDaemon::apply_batch` (`PdnsStore::observe_count`,
//! `IdentifyEngine::apply_rows`, `UsageState::apply`,
//! `CandidateScorer::observe`) — each wrapped in a timer, and must end
//! in the same state.

use crate::measure::{
    measure_loop, measure_setups, nproc, percentile_sorted, percentile_us, phase, Phase,
};
use crate::report::{Checks, Hex, Layer, Outcome};
use crate::RunConfig;
use fw_core::identify::IdentifyEngine;
use fw_core::usage::{invocation_report, monthly_new_fqdns, UsageState};
use fw_dns::pdns::PdnsStore;
use fw_net::{ClockSource, Connection, SimNet};
use fw_stream::wire::{self, Frame};
use fw_stream::{
    check_equivalence, collect_rows, day_batches, replay_in_memory, Batch, CandidateScorer,
    Checkpoint, DaemonFinal, Detection, ReplayResult, StreamConfig, DAY_US,
};
use fw_types::fnv::{fnv1a, fold, update};
use fw_types::{DayStamp, Fqdn};
use fw_workload::{World, WorldConfig};
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// World scale and source cadence.
pub const SCALE: f64 = 0.1;
const BATCHES_PER_DAY: u32 = 24;
/// Set-up repetitions (world generation + batch preparation) per run.
const SETUPS: usize = 3;
/// Pinned outputs at `SCALE`, seed 42.
const PINNED_SEED: u64 = 42;
const PINNED_ROWS: u64 = 344_428;
const PINNED_ABUSE: usize = 60;
const PINNED_STATE: u64 = 0x3d46_4487_e6e0_efaf;
const ADDR: &str = "10.99.0.2:7400";

struct Input {
    world: World,
    batches: Vec<Batch>,
    rows: u64,
}

fn setup(seed: u64) -> Input {
    let world = World::generate(WorldConfig {
        gen_workers: nproc(),
        ..WorldConfig::usage(seed, SCALE)
    });
    let batches = day_batches(&collect_rows(&world.pdns), BATCHES_PER_DAY);
    let rows = batches.iter().map(|b| b.rows.len() as u64).sum();
    Input {
        world,
        batches,
        rows,
    }
}

fn stream_config() -> StreamConfig {
    StreamConfig {
        workers: nproc(),
        batches_per_day: BATCHES_PER_DAY,
        ..StreamConfig::default()
    }
}

/// Detection latencies (virtual days) of the world's abuse functions
/// that were flagged, sorted, and the abuse total.
fn detect_latencies(world: &World, detections: &[Detection]) -> (Vec<f64>, usize) {
    let flagged: HashMap<&Fqdn, &Detection> = detections.iter().map(|d| (&d.fqdn, d)).collect();
    let mut total = 0;
    let mut lats: Vec<f64> = Vec::new();
    for f in world.abuse_functions() {
        total += 1;
        if let Some(d) = flagged.get(&f.fqdn) {
            lats.push(d.latency_us() as f64 / DAY_US as f64);
        }
    }
    lats.sort_by(f64::total_cmp);
    (lats, total)
}

/// Digest of the daemon's end state: its checkpoint and every
/// detection with its virtual timestamps.
fn state_digest(fin: &DaemonFinal<PdnsStore>) -> u64 {
    let cp = &fin.checkpoint;
    let mut h = fnv1a(b"perfbench-stream-v1");
    for v in [
        cp.watermark_day.map_or(0, |d| d.0 as u64),
        cp.batches,
        cp.rows,
        cp.late_rows,
        cp.identified,
        cp.unmatched,
        cp.total_requests,
        cp.candidates,
    ] {
        h = fold(h, v);
    }
    for d in &fin.detections {
        h = update(h, d.fqdn.as_str().as_bytes());
        h = fold(h, d.provider as u64);
        h = fold(fold(h, d.first_seen_us), d.flagged_us);
    }
    h
}

fn check_final(
    checks: &mut Checks,
    seed: u64,
    input: &Input,
    fin: &DaemonFinal<PdnsStore>,
    reference: Option<&DaemonFinal<PdnsStore>>,
) {
    let state = state_digest(fin);
    if let Some(reference) = reference {
        checks.expect_eq(
            "end state vs first replay",
            Hex(state),
            Hex(state_digest(reference)),
        );
    } else if let Err(e) = check_equivalence(fin, &input.world.pdns, nproc()) {
        checks.expect(false, || format!("streaming/batch equivalence: {e}"));
    }
    checks.expect_eq("rows applied", fin.checkpoint.rows, input.rows);
    if seed == PINNED_SEED {
        // Some seeds plant abuse campaigns that never cross the
        // candidate gate, so full recall is pinned, not required.
        let (lats, total) = detect_latencies(&input.world, &fin.detections);
        checks.expect_eq("abuse functions flagged (pinned)", lats.len(), total);
        checks.expect_eq("rows (pinned)", input.rows, PINNED_ROWS);
        checks.expect_eq("abuse functions (pinned)", total, PINNED_ABUSE);
        checks.expect_eq("end state digest (pinned)", Hex(state), Hex(PINNED_STATE));
    }
}

fn replay_once(input: &Input, seed: u64) -> (ReplayResult<PdnsStore>, Phase) {
    let batches = input.batches.clone();
    phase(|| replay_in_memory(batches, &stream_config(), seed))
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    if cfg.trace {
        return run_traced(cfg);
    }
    let mut input = None;
    let setups = measure_setups(SETUPS, || {
        drop(input.take());
        let (i, ph) = phase(|| setup(cfg.seed));
        input = Some(i);
        Ok(ph)
    })?;
    let input = input.expect("at least one set-up");
    let mut checks = Checks::default();
    let mut reference: Option<ReplayResult<PdnsStore>> = None;
    let runs = measure_loop("iteration", cfg.seconds, 3, |_| {
        let (result, ph) = replay_once(&input, cfg.seed);
        check_final(
            &mut checks,
            cfg.seed,
            &input,
            &result.final_state,
            reference.as_ref().map(|r| &r.final_state),
        );
        reference.get_or_insert(result);
        Ok((input.rows, ph))
    })?;
    let mut out = Outcome::new(checks);
    out.end_to_end(&setups, &runs);
    knobs(&mut out, &input);
    Ok(out)
}

fn knobs(out: &mut Outcome, input: &Input) {
    out.knob("scale", SCALE);
    out.knob("batches_per_day", BATCHES_PER_DAY);
    out.knob("batches", input.batches.len());
    out.knob("rows", input.rows);
    out.knob("gen_workers", nproc());
    out.knob("stream_workers", nproc());
}

/// A connection that accounts the time spent inside the inner
/// connection's `read` / `write_all` (blocking, copying, clock
/// handoffs) so codec time can be told apart from transport time.
#[derive(Debug)]
struct TimedConn {
    inner: Box<dyn Connection>,
    io: Duration,
}

impl Connection for TimedConn {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.write_all(buf);
        self.io += t.elapsed();
        r
    }
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let t = Instant::now();
        let r = self.inner.read(buf);
        self.io += t.elapsed();
        r
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

/// The daemon's state and the time its handler thread spends per part.
struct TracedDaemon {
    store: PdnsStore,
    engine: IdentifyEngine,
    usage: UsageState,
    scorer: CandidateScorer,
    watermark: Option<DayStamp>,
    batches: u64,
    rows: u64,
    late_rows: u64,
    observe: Duration,
    apply_rows: Duration,
    usage_apply: Duration,
    score: Duration,
    decode: Duration,
    read_wait: Duration,
    per_batch: Vec<Duration>,
}

impl TracedDaemon {
    fn new(config: &StreamConfig) -> TracedDaemon {
        TracedDaemon {
            store: PdnsStore::new(),
            engine: IdentifyEngine::with_workers(config.workers),
            usage: UsageState::new(),
            scorer: CandidateScorer::new(config.score),
            watermark: None,
            batches: 0,
            rows: 0,
            late_rows: 0,
            observe: Duration::ZERO,
            apply_rows: Duration::ZERO,
            usage_apply: Duration::ZERO,
            score: Duration::ZERO,
            decode: Duration::ZERO,
            read_wait: Duration::ZERO,
            per_batch: Vec::new(),
        }
    }

    /// `StreamDaemon::apply_batch`, one timed part at a time.
    fn apply(&mut self, watermark_day: DayStamp, rows: &[fw_dns::pdns::PdnsRow], now_us: u64) {
        let start = Instant::now();
        let late = self
            .watermark
            .map_or(0, |w| rows.iter().filter(|r| r.day < w).count() as u64);
        for row in rows {
            self.store
                .observe_count(&row.fqdn, &row.rdata, row.day, row.cnt);
        }
        let t1 = Instant::now();
        let changes = self.engine.apply_rows(rows);
        let t2 = Instant::now();
        for row in rows {
            if let Some(provider) = self.engine.provider_of(&row.fqdn) {
                self.usage
                    .apply(provider, row.rdata.rtype(), &row.rdata, row.day, row.cnt);
            }
        }
        let t3 = Instant::now();
        self.scorer.observe(&changes, now_us);
        let t4 = Instant::now();
        self.watermark = Some(
            self.watermark
                .map_or(watermark_day, |w| DayStamp(w.0.max(watermark_day.0))),
        );
        self.batches += 1;
        self.rows += rows.len() as u64;
        self.late_rows += late;
        self.observe += t1 - start;
        self.apply_rows += t2 - t1;
        self.usage_apply += t3 - t2;
        self.score += t4 - t3;
        self.per_batch.push(start.elapsed());
    }

    /// `StreamDaemon::finish`.
    fn finish(self) -> (DaemonFinal<PdnsStore>, TracedTimes) {
        let checkpoint = Checkpoint {
            watermark_day: self.watermark,
            batches: self.batches,
            rows: self.rows,
            late_rows: self.late_rows,
            identified: self.engine.function_count() as u64,
            unmatched: self.engine.unmatched_count(),
            total_requests: self.engine.total_requests(),
            candidates: self.scorer.candidate_count(),
        };
        let times = TracedTimes {
            observe: self.observe,
            apply_rows: self.apply_rows,
            usage_apply: self.usage_apply,
            score: self.score,
            decode: self.decode,
            read_wait: self.read_wait,
            per_batch: self.per_batch,
        };
        let report = self.engine.into_report();
        let request_series = self.usage.monthly_series();
        let ingress = self.usage.ingress_rows(&report);
        let fin = DaemonFinal {
            new_fqdns: monthly_new_fqdns(&report),
            invocation: invocation_report(&report),
            request_series,
            ingress,
            detections: self.scorer.into_detections(),
            checkpoint,
            store: self.store,
            report,
        };
        (fin, times)
    }
}

struct TracedTimes {
    observe: Duration,
    apply_rows: Duration,
    usage_apply: Duration,
    score: Duration,
    decode: Duration,
    read_wait: Duration,
    per_batch: Vec<Duration>,
}

/// `fw_stream::replay` with every layer timed.
fn traced_replay(
    batches: &[Batch],
    seed: u64,
) -> Result<(DaemonFinal<PdnsStore>, TracedTimes, Duration, u64, Duration), String> {
    let net = SimNet::new(seed);
    let addr: SocketAddr = ADDR.parse().expect("static addr");
    let daemon = Arc::new(Mutex::new(Some(TracedDaemon::new(&stream_config()))));
    let in_handler = Arc::clone(&daemon);
    let clock = net.clock().clone();
    net.listen_fn(addr, move |conn| {
        let mut conn = TimedConn {
            inner: conn,
            io: Duration::ZERO,
        };
        let _ = conn.set_read_timeout(None);
        loop {
            let io_before = conn.io;
            let t = Instant::now();
            let frame = wire::read_frame(&mut conn);
            let read = t.elapsed();
            let waited = conn.io - io_before;
            let mut guard = in_handler.lock().expect("daemon lock");
            let d = guard.as_mut().expect("daemon present");
            d.read_wait += waited;
            d.decode += read.saturating_sub(waited);
            match frame {
                Ok(Some(Frame::Batch {
                    watermark_day,
                    rows,
                    ..
                })) => d.apply(watermark_day, &rows, clock.now_us()),
                Ok(Some(Frame::Eos)) => {
                    let _ = conn.write_all(&[wire::ACK]);
                    break;
                }
                Ok(None) | Err(_) => break,
            }
        }
    });

    let registration = net.clock().register();
    let feeder_net = net.clone();
    let batches = batches.to_vec();
    let feeder = std::thread::spawn(move || -> io::Result<(u64, Duration)> {
        let _active = registration.map(|r| r.activate());
        let clock = feeder_net.clock().clone();
        let mut conn = TimedConn {
            inner: feeder_net.connect(addr)?,
            io: Duration::ZERO,
        };
        conn.set_read_timeout(None)?;
        let mut wire_bytes = 0u64;
        let mut encode = Duration::ZERO;
        for batch in &batches {
            let now = clock.now_us();
            if batch.offset_us > now {
                clock.sleep(Duration::from_micros(batch.offset_us - now));
            }
            let io_before = conn.io;
            let t = Instant::now();
            wire_bytes +=
                wire::write_batch(&mut conn, batch.seq, batch.watermark_day, &batch.rows)? as u64;
            encode += t.elapsed().saturating_sub(conn.io - io_before);
        }
        wire_bytes += wire::write_eos(&mut conn)? as u64;
        let mut ack = [0u8; 1];
        conn.read_exact(&mut ack)?;
        Ok((wire_bytes, encode))
    });
    let (wire_bytes, encode) = feeder
        .join()
        .expect("feeder thread panicked")
        .map_err(|e| format!("feeder stream failed: {e}"))?;
    let daemon = daemon
        .lock()
        .expect("daemon lock")
        .take()
        .expect("daemon present");
    let t = Instant::now();
    let (fin, times) = daemon.finish();
    Ok((fin, times, encode, wire_bytes, t.elapsed()))
}

fn run_traced(cfg: &RunConfig) -> Result<Outcome, String> {
    let input = setup(cfg.seed);
    let mut checks = Checks::default();
    let (reference, untraced_phase) = replay_once(&input, cfg.seed);
    check_final(&mut checks, cfg.seed, &input, &reference.final_state, None);
    let (traced, ph) = phase(|| traced_replay(&input.batches, cfg.seed));
    let (fin, times, encode, wire_bytes, finish) = traced?;
    check_final(
        &mut checks,
        cfg.seed,
        &input,
        &fin,
        Some(&reference.final_state),
    );

    // The feeder and the daemon take turns (the virtual clock only
    // advances when both block), so the layers are serial: while the
    // daemon waits in `read` the feeder is encoding or the clock is
    // handing over — that wait, less the encode time, is transport.
    let transport = times.read_wait.saturating_sub(encode);
    let s = |d: Duration| d.as_secs_f64();
    let layer = |name, busy_s, moves| Layer {
        name,
        busy_s,
        threads: 1.0,
        moves,
    };
    let layers = vec![
        layer("stream.wire_encode_s", s(encode), "items_per_s"),
        layer("stream.wire_decode_s", s(times.decode), "items_per_s"),
        layer("stream.transport_s", s(transport), "items_per_s"),
        layer(
            "pdns.observe_s",
            s(times.observe),
            "items_per_s peak_rss_mb",
        ),
        layer("identify.apply_rows_s", s(times.apply_rows), "items_per_s"),
        layer("usage.apply_s", s(times.usage_apply), "items_per_s"),
        layer("stream.score_s", s(times.score), "items_per_s"),
        layer("stream.finish_s", s(finish), "items_per_s"),
    ];
    let mut out = Outcome::new(checks);
    out.attempted = 2 * input.rows;
    out.traced(&ph, untraced_phase.wall_s, layers);
    let mut per_batch = times.per_batch;
    out.set(
        "stream.apply_batch_p50_us",
        percentile_us(&mut per_batch, 50.0),
    );
    out.set(
        "stream.apply_batch_p99_us",
        percentile_us(&mut per_batch, 99.0),
    );
    out.set(
        "stream.wire_bytes_per_row",
        wire_bytes as f64 / input.rows.max(1) as f64,
    );
    let (lats, total) = detect_latencies(&input.world, &fin.detections);
    out.set("stream.detect_p50_days", percentile_sorted(&lats, 50.0));
    out.set("stream.detect_p99_days", percentile_sorted(&lats, 99.0));
    out.set(
        "stream.detect_recall",
        lats.len() as f64 / total.max(1) as f64,
    );
    eprintln!(
        "[stream] {}/{total} abuse functions flagged, detection p50 {:.1} d, p99 {:.1} d",
        lats.len(),
        percentile_sorted(&lats, 50.0),
        percentile_sorted(&lats, 99.0),
    );
    knobs(&mut out, &input);
    Ok(out)
}
