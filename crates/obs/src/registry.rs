//! The metric registry and its text exporter.

use crate::metric::{Counter, Gauge, Histogram};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

type Metrics<T> = RwLock<BTreeMap<String, Arc<T>>>;

/// A named collection of metrics and stage timers. Handles returned by
/// the getters are `Arc`s that stay valid for the registry's lifetime —
/// [`Registry::reset`] zeroes values in place and never invalidates a
/// cached handle.
#[derive(Default)]
pub struct Registry {
    counters: Metrics<Counter>,
    gauges: Metrics<Gauge>,
    histograms: Metrics<Histogram>,
    timers: Metrics<Histogram>,
}

fn get_or_create<T: Default>(map: &Metrics<T>, name: &str) -> Arc<T> {
    if let Some(m) = map.read().get(name) {
        return m.clone();
    }
    map.write()
        .entry(name.to_string())
        .or_insert_with(|| Arc::new(T::default()))
        .clone()
}

/// Append a `[section]` with one `name  values` row per metric for
/// which `values` renders something; an all-silent section is left out.
fn section<T>(
    out: &mut String,
    header: &str,
    map: &Metrics<T>,
    values: impl Fn(&T) -> Option<String>,
) {
    let mut rows = String::new();
    for (name, m) in map.read().iter() {
        if let Some(v) = values(m) {
            let _ = writeln!(rows, "  {name:<52} {v}");
        }
    }
    if !rows.is_empty() {
        let _ = write!(out, "\n{header}\n{rows}");
    }
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create the counter called `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&self.counters, name)
    }

    /// Get or create the gauge called `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create(&self.gauges, name)
    }

    /// Get or create the histogram called `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_create(&self.histograms, name)
    }

    /// Get or create the stage timer called `name`: the histogram of
    /// span durations, in nanoseconds, that [`crate::span`] records
    /// into and `[stages]` reports.
    pub fn timer(&self, name: &str) -> Arc<Histogram> {
        get_or_create(&self.timers, name)
    }

    /// Zero every metric and timer in place. Existing handles
    /// (including ones cached in `static`s by the recording macros and
    /// ones held by open spans) remain valid.
    pub fn reset(&self) {
        for c in self.counters.read().values() {
            c.reset();
        }
        for g in self.gauges.read().values() {
            g.reset();
        }
        for h in self
            .histograms
            .read()
            .values()
            .chain(self.timers.read().values())
        {
            h.reset();
        }
    }

    /// Human-readable report, suitable for diffing across runs. Zero
    /// counters and gauges and empty histograms and timers are elided.
    pub fn render_text(&self) -> String {
        let mut out = String::from("== fw metrics ==\n");
        section(&mut out, "[counters]", &self.counters, |c| {
            (c.get() > 0).then(|| c.get().to_string())
        });
        section(&mut out, "[gauges]", &self.gauges, |g| {
            (g.get() != 0).then(|| g.get().to_string())
        });
        section(&mut out, "[histograms]", &self.histograms, |h| {
            (h.count() > 0).then(|| {
                format!(
                    "n={} p50={} p90={} p99={} max={} mean={:.1}",
                    h.count(),
                    h.percentile(0.50),
                    h.percentile(0.90),
                    h.percentile(0.99),
                    h.max(),
                    h.mean(),
                )
            })
        });
        // Stage timers hold nanoseconds; their rows read in ms.
        section(&mut out, "[stages]  (wall ms)", &self.timers, |t| {
            let ms = |ns: u64| ns as f64 / 1e6;
            (t.count() > 0).then(|| {
                format!(
                    "n={} total={:.3} p50={:.3} max={:.3}",
                    t.count(),
                    ms(t.sum()),
                    ms(t.percentile(0.50)),
                    ms(t.max()),
                )
            })
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_per_name() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(2);
        b.inc();
        assert_eq!(r.counter("x").get(), 3);
    }

    #[test]
    fn reset_keeps_handles_valid() {
        let r = Registry::new();
        let c = r.counter("k");
        c.add(5);
        r.reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(r.counter("k").get(), 1);
    }

    #[test]
    fn concurrent_get_or_create_yields_one_metric() {
        // 8 threads racing to resolve-and-increment the same name must
        // converge on a single counter with no lost increments.
        let r = Registry::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        r.counter("fw.test.racy").inc();
                    }
                });
            }
        });
        assert_eq!(r.counter("fw.test.racy").get(), 80_000);
    }

    #[test]
    fn text_render_lists_nonzero_metrics() {
        let r = Registry::new();
        r.counter("fw.test.hits").add(7);
        r.counter("fw.test.silent");
        r.histogram("fw.test.lat").record(100);
        r.gauge("fw.test.depth").set(-4);
        r.gauge("fw.test.idle");
        r.timer("test/stage").record(2_500_000);
        r.timer("test/idle");
        let text = r.render_text();
        let row = |name: &str| text.lines().find(|l| l.trim_start().starts_with(name));
        assert!(row("fw.test.hits").unwrap().ends_with(" 7"));
        assert!(!text.contains("fw.test.silent"), "zero counters are elided");
        assert!(row("fw.test.lat").unwrap().contains("n=1 p50=100 "));
        assert!(row("fw.test.lat").unwrap().contains("p99=100 "));
        assert!(row("fw.test.depth").unwrap().ends_with(" -4"));
        assert!(!text.contains("fw.test.idle"), "zero gauges are elided");
        // One `[stages]` row per timer, under its full name, in ms.
        let stages = text.split("[stages]").nth(1).expect("[stages] section");
        assert!(stages.contains("test/stage"));
        assert!(row("test/stage")
            .unwrap()
            .ends_with("n=1 total=2.500 p50=2.500 max=2.500"));
        assert!(!text.contains("test/idle"), "empty timers are elided");
    }
}
