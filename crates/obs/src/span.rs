//! Stage timers.
//!
//! A [`Span`] times one pipeline stage. It holds the start [`Instant`],
//! the trace span it opens under the same name and, while the metrics
//! layer is on, the registry's timer for that name: a [`Histogram`] of
//! span durations in nanoseconds. On drop it records the elapsed time
//! into that timer, so the `[stages]` report section shows every stage
//! as a distribution (count, total, p50, max) under the full name its
//! call site passed. Names carry their own qualification
//! (`pipeline/probe`, `abuse/c2scan`); nothing is derived from the
//! runtime nesting, which is the trace's to record.
//!
//! Opening or dropping a span formats nothing and, once its name's
//! timer exists, allocates nothing and takes no `Mutex`: the timer is
//! looked up once per span under the registry's read lock.

use crate::metric::Histogram;
use crate::trace::TraceSpan;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// RAII guard for one timed stage. With metrics and tracing both off it
/// costs two relaxed loads and one `Instant::now()`.
#[must_use = "a span times the scope it is bound to; bind it to a variable"]
pub struct Span {
    start: Instant,
    /// The registry's timer for this name; `None` while metrics are off.
    timer: Option<Arc<Histogram>>,
    /// Companion trace span, held for its drop (inert unless event
    /// tracing is on).
    _trace: TraceSpan,
}

/// Open a timed stage span called `name`. Bind the guard:
/// `let _span = fw_obs::span("pipeline/probe");`.
///
/// While metrics are on ([`crate::enabled`]) the drop records the
/// span's duration into [`crate::Registry::timer`]`(name)`. While event
/// tracing is on ([`crate::trace_enabled`]) the guard also emits
/// begin/end trace events under the same name, nested under the
/// thread's current trace span — each gate independently of the other.
pub fn span(name: &str) -> Span {
    let timer = crate::enabled().then(|| crate::registry().timer(name));
    Span {
        start: Instant::now(),
        timer,
        _trace: crate::trace::trace_span(name),
    }
}

impl Span {
    /// Time since the span opened, whichever gates are on.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(timer) = &self.timer {
            timer.record(self.start.elapsed().as_nanos() as u64);
        }
    }
}
