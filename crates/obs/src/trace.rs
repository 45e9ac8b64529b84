//! Event-level tracing: causal span begin/end events.
//!
//! Where [`crate::Span`] folds every completed span into a path-summed
//! [`crate::StageStat`] (cheap, aggregate, loses individuals), this
//! layer records *every* span boundary as a discrete event — span id,
//! parent link, thread, optional worker/shard label, and dual
//! timestamps (wall nanoseconds since process trace epoch + the global
//! sim clock in microseconds, which the fw-net virtual clock advances).
//! The event stream reconstructs into a cross-thread span DAG that the
//! exporters turn into a Chrome `trace_event` file, a folded-stacks
//! flamegraph, and a critical-path attribution (DESIGN.md §13).
//!
//! ## Recording path
//!
//! Events go into a per-thread buffer (no locks, no allocation beyond
//! the `Vec` push; names are interned to `u32` ids once per distinct
//! string). Buffers flush into the process-wide sink when they reach
//! [`FLUSH_EVENTS`] events and when the thread exits, so a finished
//! worker's events are always visible to [`drain_trace`] after `join`.
//! The sink caps total retained events (`FW_TRACE_MAX`, default 8 M);
//! past the cap whole flushes are counted as dropped instead of
//! retained, bounding memory on runaway instrumentation.
//!
//! ## Gating
//!
//! Off by default; on with `FW_TRACE=1` (also `true`/`on`) or
//! [`set_trace_enabled`]`(true)` (the `--trace` flag of
//! `pipeline_gate`). While off, every instrumentation site reduces to
//! one relaxed atomic load and allocates nothing.
//!
//! ## Causality across threads
//!
//! Same-thread spans parent implicitly (thread-local span stack). A
//! worker pool makes the fork explicit: the spawning thread captures
//! [`current_trace_span`] and each worker opens its root with
//! [`trace_span_child_of`], so the forest stays connected and the
//! critical-path walk can cross the spawn edge. Connection lifetimes
//! (which outlive any single stack frame and drop out of LIFO order)
//! use [`trace_async`]: they parent like normal spans but never join
//! the thread stack, and export as Chrome async (`b`/`e`) events.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Instant;

/// `arg` value meaning "no label".
pub const ARG_NONE: u64 = u64::MAX;

/// Flush a thread buffer into the sink at this many events.
const FLUSH_EVENTS: usize = 8192;

/// Default retained-event cap (`FW_TRACE_MAX` overrides).
const DEFAULT_MAX_EVENTS: usize = 8_000_000;

/// One span boundary (or instant) in the event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    pub kind: TraceEventKind,
    /// Process-local trace thread id (1-based; see [`TraceDump::threads`]).
    pub tid: u32,
    /// Unique span id (never 0; instants get their own id).
    pub span_id: u64,
    /// Parent span id; 0 = root.
    pub parent_id: u64,
    /// Interned name (index into [`TraceDump::names`]).
    pub name_id: u32,
    /// Worker/shard/port label; [`ARG_NONE`] when unlabelled.
    pub arg: u64,
    /// Wall clock: nanoseconds since the process trace epoch.
    pub wall_ns: u64,
    /// Sim clock: [`crate::sim_now_micros`] at the event.
    pub sim_us: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// Sync span opened (on the thread's span stack).
    Begin,
    /// Sync span closed.
    End,
    /// Async span opened (off-stack; connection lifetimes).
    AsyncBegin,
    /// Async span closed (possibly on another thread).
    AsyncEnd,
    /// Point event.
    Instant,
}

impl TraceEventKind {
    /// Chrome `ph` phase char for this kind.
    pub fn phase(self) -> char {
        match self {
            TraceEventKind::Begin => 'B',
            TraceEventKind::End => 'E',
            TraceEventKind::AsyncBegin => 'b',
            TraceEventKind::AsyncEnd => 'e',
            TraceEventKind::Instant => 'i',
        }
    }

    pub fn from_phase(c: char) -> Option<TraceEventKind> {
        Some(match c {
            'B' => TraceEventKind::Begin,
            'E' => TraceEventKind::End,
            'b' => TraceEventKind::AsyncBegin,
            'e' => TraceEventKind::AsyncEnd,
            'i' => TraceEventKind::Instant,
            _ => return None,
        })
    }
}

// ---------------------------------------------------------------- gating

static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);
static TRACE_ENV: Once = Once::new();

/// Is event tracing recording? Consults `FW_TRACE` once; afterwards a
/// single relaxed load.
#[inline]
pub fn trace_enabled() -> bool {
    TRACE_ENV.call_once(|| {
        let on = matches!(
            std::env::var("FW_TRACE").ok().as_deref(),
            Some("1") | Some("true") | Some("on")
        );
        if on {
            TRACE_ENABLED.store(true, Ordering::Relaxed);
        }
    });
    TRACE_ENABLED.load(Ordering::Relaxed)
}

/// Force tracing on or off (overrides `FW_TRACE`); the `--trace` flag.
pub fn set_trace_enabled(on: bool) {
    TRACE_ENV.call_once(|| {});
    TRACE_ENABLED.store(on, Ordering::Relaxed);
}

// ---------------------------------------------------------------- sink

struct Interner {
    names: Vec<String>,
    index: HashMap<String, u32>,
}

struct Sink {
    events: Mutex<Vec<TraceEvent>>,
    threads: Mutex<Vec<(u32, String)>>,
    interner: Mutex<Interner>,
    retained: AtomicU64,
    dropped: AtomicU64,
    max_events: usize,
}

fn sink() -> &'static Sink {
    static SINK: OnceLock<Sink> = OnceLock::new();
    SINK.get_or_init(|| Sink {
        events: Mutex::new(Vec::new()),
        threads: Mutex::new(Vec::new()),
        interner: Mutex::new(Interner {
            names: Vec::new(),
            index: HashMap::new(),
        }),
        retained: AtomicU64::new(0),
        dropped: AtomicU64::new(0),
        max_events: std::env::var("FW_TRACE_MAX")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_MAX_EVENTS),
    })
}

fn intern(name: &str) -> u32 {
    let mut interner = sink().interner.lock().expect("interner lock");
    if let Some(&id) = interner.index.get(name) {
        return id;
    }
    let id = interner.names.len() as u32;
    interner.names.push(name.to_string());
    interner.index.insert(name.to_string(), id);
    id
}

/// Wall nanoseconds since the process trace epoch (first use).
fn wall_now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn flush_into_sink(events: &mut Vec<TraceEvent>) {
    if events.is_empty() {
        return;
    }
    let s = sink();
    let n = events.len() as u64;
    if s.retained.load(Ordering::Relaxed) as usize >= s.max_events {
        s.dropped.fetch_add(n, Ordering::Relaxed);
        crate::counter_add!("fw.trace.dropped", n);
        events.clear();
        return;
    }
    s.retained.fetch_add(n, Ordering::Relaxed);
    s.events.lock().expect("sink lock").append(events);
    crate::counter_add!("fw.trace.events", n);
    crate::counter_inc!("fw.trace.flushes");
}

struct ThreadBuf {
    tid: u32,
    buf: Vec<TraceEvent>,
    /// Open sync span ids, innermost last.
    stack: Vec<u64>,
}

impl ThreadBuf {
    fn new() -> ThreadBuf {
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed) as u32;
        let name = std::thread::current()
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("thread-{tid}"));
        sink()
            .threads
            .lock()
            .expect("threads lock")
            .push((tid, name));
        ThreadBuf {
            tid,
            buf: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        self.buf.push(ev);
        if self.buf.len() >= FLUSH_EVENTS {
            flush_into_sink(&mut self.buf);
        }
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        flush_into_sink(&mut self.buf);
    }
}

thread_local! {
    static TBUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf::new());
}

/// Run `f` against this thread's buffer; falls back to a sink-direct
/// push-less path during thread teardown (TLS already destroyed).
fn with_buf<R>(f: impl FnOnce(&mut ThreadBuf) -> R) -> Option<R> {
    TBUF.try_with(|tb| f(&mut tb.borrow_mut())).ok()
}

// ---------------------------------------------------------------- spans

/// RAII guard for one traced sync span. Inert (`id == 0`) when tracing
/// is off. Dropping pops the span from the thread stack *by position*,
/// so a guard dropped out of LIFO order cannot corrupt its siblings.
#[must_use = "a trace span measures the scope it is bound to"]
pub struct TraceSpan {
    id: u64,
    name_id: u32,
}

impl TraceSpan {
    /// A no-op guard (`id == 0`): records nothing on drop. For callers
    /// that need a guard of uniform type on an untraced branch.
    pub fn inert() -> TraceSpan {
        TraceSpan { id: 0, name_id: 0 }
    }

    /// The span id (0 when inert). Pass to [`trace_span_child_of`] on a
    /// worker to link a cross-thread fork edge.
    pub fn id(&self) -> u64 {
        self.id
    }
}

pub(crate) fn enter_traced(name: &str, arg: u64, explicit_parent: Option<u64>) -> TraceSpan {
    if !trace_enabled() {
        return TraceSpan::inert();
    }
    let name_id = intern(name);
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let wall_ns = wall_now_ns();
    let sim_us = crate::sim_now_micros();
    with_buf(|tb| {
        let parent = explicit_parent.unwrap_or_else(|| tb.stack.last().copied().unwrap_or(0));
        tb.stack.push(id);
        tb.push(TraceEvent {
            kind: TraceEventKind::Begin,
            tid: tb.tid,
            span_id: id,
            parent_id: parent,
            name_id,
            arg,
            wall_ns,
            sim_us,
        });
    });
    TraceSpan { id, name_id }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let wall_ns = wall_now_ns();
        let sim_us = crate::sim_now_micros();
        let (id, name_id) = (self.id, self.name_id);
        with_buf(|tb| {
            // Pop by position, not `pop()`: a mis-scoped guard dropped
            // out of order removes only itself.
            if let Some(pos) = tb.stack.iter().rposition(|&s| s == id) {
                tb.stack.remove(pos);
            }
            tb.push(TraceEvent {
                kind: TraceEventKind::End,
                tid: tb.tid,
                span_id: id,
                parent_id: 0,
                name_id,
                arg: ARG_NONE,
                wall_ns,
                sim_us,
            });
        });
    }
}

/// Open an unlabelled sync span under the thread's current span.
pub fn trace_span(name: &str) -> TraceSpan {
    enter_traced(name, ARG_NONE, None)
}

/// Open a sync span labelled with a worker/shard index.
pub fn trace_span_arg(name: &str, arg: u64) -> TraceSpan {
    enter_traced(name, arg, None)
}

/// Open a sync span with an explicit parent (cross-thread fork edge).
/// `parent == 0` makes it a root.
pub fn trace_span_child_of(parent: u64, name: &str, arg: u64) -> TraceSpan {
    enter_traced(name, arg, Some(parent))
}

/// The innermost open traced span on this thread (0 = none). Capture
/// before spawning workers; pass to [`trace_span_child_of`].
pub fn current_trace_span() -> u64 {
    if !trace_enabled() {
        return 0;
    }
    with_buf(|tb| tb.stack.last().copied().unwrap_or(0)).unwrap_or(0)
}

/// Record a point event under the current span.
pub fn trace_instant(name: &str, arg: u64) {
    if !trace_enabled() {
        return;
    }
    let name_id = intern(name);
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let wall_ns = wall_now_ns();
    let sim_us = crate::sim_now_micros();
    with_buf(|tb| {
        let parent = tb.stack.last().copied().unwrap_or(0);
        tb.push(TraceEvent {
            kind: TraceEventKind::Instant,
            tid: tb.tid,
            span_id: id,
            parent_id: parent,
            name_id,
            arg,
            wall_ns,
            sim_us,
        });
    });
}

/// RAII guard for an async span: parented like a normal span at open,
/// but never on the thread stack, and closable from any thread. Used
/// for object lifetimes (e.g. a SimNet connection) that cross scopes.
#[must_use = "an async trace span measures the lifetime it is bound to"]
pub struct AsyncSpan {
    id: u64,
    name_id: u32,
}

/// Open an async (off-stack) span under the current span.
pub fn trace_async(name: &str, arg: u64) -> AsyncSpan {
    if !trace_enabled() {
        return AsyncSpan { id: 0, name_id: 0 };
    }
    let name_id = intern(name);
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let wall_ns = wall_now_ns();
    let sim_us = crate::sim_now_micros();
    with_buf(|tb| {
        let parent = tb.stack.last().copied().unwrap_or(0);
        tb.push(TraceEvent {
            kind: TraceEventKind::AsyncBegin,
            tid: tb.tid,
            span_id: id,
            parent_id: parent,
            name_id,
            arg,
            wall_ns,
            sim_us,
        });
    });
    AsyncSpan { id, name_id }
}

impl Drop for AsyncSpan {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let wall_ns = wall_now_ns();
        let sim_us = crate::sim_now_micros();
        let (id, name_id) = (self.id, self.name_id);
        let pushed = with_buf(|tb| {
            tb.push(TraceEvent {
                kind: TraceEventKind::AsyncEnd,
                tid: tb.tid,
                span_id: id,
                parent_id: 0,
                name_id,
                arg: ARG_NONE,
                wall_ns,
                sim_us,
            });
        });
        if pushed.is_none() {
            // Thread teardown: TLS gone, append straight to the sink.
            let mut one = vec![TraceEvent {
                kind: TraceEventKind::AsyncEnd,
                tid: 0,
                span_id: id,
                parent_id: 0,
                name_id,
                arg: ARG_NONE,
                wall_ns,
                sim_us,
            }];
            flush_into_sink(&mut one);
        }
    }
}

// ---------------------------------------------------------------- drain

/// A drained snapshot of the trace: events (across all flushed
/// threads), the thread-name table, and the interned-name table.
#[derive(Debug, Clone, Default)]
pub struct TraceDump {
    pub events: Vec<TraceEvent>,
    /// `(tid, thread name)` in registration order.
    pub threads: Vec<(u32, String)>,
    /// Interned names; `TraceEvent::name_id` indexes here.
    pub names: Vec<String>,
    /// Events dropped by the retention cap.
    pub dropped: u64,
}

impl TraceDump {
    pub fn name(&self, id: u32) -> &str {
        self.names.get(id as usize).map_or("?", String::as_str)
    }
}

/// Flush this thread's buffer into the sink. Worker threads flush
/// automatically on exit; the draining thread calls this (via
/// [`drain_trace`]) for its own events.
pub fn flush_thread_trace() {
    with_buf(|tb| flush_into_sink(&mut tb.buf));
}

/// Take every flushed event out of the sink. Call after worker threads
/// are joined (their exit flushed their buffers); events still sitting
/// in other live threads' buffers are not included.
pub fn drain_trace() -> TraceDump {
    flush_thread_trace();
    let s = sink();
    let events = std::mem::take(&mut *s.events.lock().expect("sink lock"));
    s.retained.store(0, Ordering::Relaxed);
    let threads = s.threads.lock().expect("threads lock").clone();
    let names = s.interner.lock().expect("interner lock").names.clone();
    TraceDump {
        events,
        threads,
        names,
        dropped: s.dropped.swap(0, Ordering::Relaxed),
    }
}

/// Discard all flushed events (test isolation).
pub fn trace_reset() {
    flush_thread_trace();
    let s = sink();
    s.events.lock().expect("sink lock").clear();
    s.retained.store(0, Ordering::Relaxed);
    s.dropped.store(0, Ordering::Relaxed);
}

// ------------------------------------------------------ serialization

impl TraceDump {
    /// Raw event stream as JSON Lines: one meta line (threads, dropped
    /// count) then one self-contained object per event. This is the
    /// interchange format `fw_trace_report` consumes.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(64 * self.events.len() + 256);
        out.push_str("{\"meta\":1,\"dropped\":");
        out.push_str(&self.dropped.to_string());
        out.push_str(",\"threads\":[");
        for (i, (tid, name)) in self.threads.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{tid},"));
            out.push_str(&fw_types::json::escape(name));
            out.push(']');
        }
        out.push_str("]}\n");
        for ev in &self.events {
            out.push_str(&format!(
                "{{\"ph\":\"{}\",\"id\":{},\"par\":{},\"tid\":{},\"name\":",
                ev.kind.phase(),
                ev.span_id,
                ev.parent_id,
                ev.tid,
            ));
            out.push_str(&fw_types::json::escape(self.name(ev.name_id)));
            if ev.arg != ARG_NONE {
                out.push_str(&format!(",\"arg\":{}", ev.arg));
            }
            out.push_str(&format!(",\"w\":{},\"s\":{}}}\n", ev.wall_ns, ev.sim_us));
        }
        out
    }

    /// Parse a JSONL dump written by [`TraceDump::to_jsonl`]. Names are
    /// re-interned into a dump-local table.
    pub fn from_jsonl(text: &str) -> Result<TraceDump, String> {
        use crate::Json;
        let mut dump = TraceDump::default();
        let mut name_ids: HashMap<String, u32> = HashMap::new();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v = Json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            if v.get("meta").is_some() {
                dump.dropped = v.get("dropped").and_then(Json::as_u64).unwrap_or(0);
                if let Some(threads) = v.get("threads").and_then(Json::as_arr) {
                    for t in threads {
                        let pair = t.as_arr().ok_or("bad thread entry")?;
                        let tid = pair
                            .first()
                            .and_then(Json::as_u64)
                            .ok_or("bad thread tid")? as u32;
                        let name = pair
                            .get(1)
                            .and_then(Json::as_str)
                            .ok_or("bad thread name")?;
                        dump.threads.push((tid, name.to_string()));
                    }
                }
                continue;
            }
            let ph = v
                .get("ph")
                .and_then(Json::as_str)
                .and_then(|s| s.chars().next())
                .ok_or_else(|| format!("line {}: missing ph", lineno + 1))?;
            let kind = TraceEventKind::from_phase(ph)
                .ok_or_else(|| format!("line {}: bad phase {ph:?}", lineno + 1))?;
            let name = v.get("name").and_then(Json::as_str).unwrap_or("?");
            let name_id = match name_ids.get(name) {
                Some(&id) => id,
                None => {
                    let id = dump.names.len() as u32;
                    dump.names.push(name.to_string());
                    name_ids.insert(name.to_string(), id);
                    id
                }
            };
            let num = |k: &str| v.get(k).and_then(Json::as_u64);
            dump.events.push(TraceEvent {
                kind,
                tid: num("tid").unwrap_or(0) as u32,
                span_id: num("id").ok_or_else(|| format!("line {}: missing id", lineno + 1))?,
                parent_id: num("par").unwrap_or(0),
                name_id,
                arg: num("arg").unwrap_or(ARG_NONE),
                wall_ns: num("w").unwrap_or(0),
                sim_us: num("s").unwrap_or(0),
            });
        }
        Ok(dump)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Global-flag tests live in tests/trace_props.rs (own process);
    // here only the pieces with no global gating: serialization.
    #[test]
    fn jsonl_roundtrips() {
        let dump = TraceDump {
            events: vec![
                TraceEvent {
                    kind: TraceEventKind::Begin,
                    tid: 1,
                    span_id: 10,
                    parent_id: 0,
                    name_id: 0,
                    arg: 7,
                    wall_ns: 1000,
                    sim_us: 5,
                },
                TraceEvent {
                    kind: TraceEventKind::End,
                    tid: 1,
                    span_id: 10,
                    parent_id: 0,
                    name_id: 0,
                    arg: ARG_NONE,
                    wall_ns: 2000,
                    sim_us: 9,
                },
                TraceEvent {
                    kind: TraceEventKind::AsyncBegin,
                    tid: 2,
                    span_id: 11,
                    parent_id: 10,
                    name_id: 1,
                    arg: ARG_NONE,
                    wall_ns: 1500,
                    sim_us: 6,
                },
            ],
            threads: vec![(1, "main".to_string()), (2, "worker \"x\"".to_string())],
            names: vec!["gen/shard".to_string(), "net/conn".to_string()],
            dropped: 3,
        };
        let text = dump.to_jsonl();
        let back = TraceDump::from_jsonl(&text).expect("parse");
        assert_eq!(back.dropped, 3);
        assert_eq!(back.threads, dump.threads);
        assert_eq!(back.events.len(), dump.events.len());
        for (a, b) in dump.events.iter().zip(&back.events) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.span_id, b.span_id);
            assert_eq!(a.parent_id, b.parent_id);
            assert_eq!(a.tid, b.tid);
            assert_eq!(a.arg, b.arg);
            assert_eq!(a.wall_ns, b.wall_ns);
            assert_eq!(a.sim_us, b.sim_us);
            assert_eq!(dump.name(a.name_id), back.name(b.name_id));
        }
    }

    #[test]
    fn phase_chars_roundtrip() {
        for kind in [
            TraceEventKind::Begin,
            TraceEventKind::End,
            TraceEventKind::AsyncBegin,
            TraceEventKind::AsyncEnd,
            TraceEventKind::Instant,
        ] {
            assert_eq!(TraceEventKind::from_phase(kind.phase()), Some(kind));
        }
        assert_eq!(TraceEventKind::from_phase('X'), None);
    }
}
