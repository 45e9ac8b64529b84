//! The metric registry and its exporters.

use crate::metric::{Counter, Gauge, Histogram};
use crate::span::StageStat;
use fw_types::json::write_str;
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// A named collection of metrics plus the accumulated stage-timing
/// tree. Handles returned by the getters are `Arc`s that stay valid for
/// the registry's lifetime — [`Registry::reset`] zeroes values in place
/// and never invalidates a cached handle.
#[derive(Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    stages: Mutex<BTreeMap<String, StageStat>>,
}

fn get_or_create<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(m) = map.read().get(name) {
        return m.clone();
    }
    map.write()
        .entry(name.to_string())
        .or_insert_with(|| Arc::new(T::default()))
        .clone()
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

    /// Fold one completed span into the stage tree.
    pub(crate) fn record_stage(&self, path: &str, wall_ns: u64, sim_us: u64) {
        let mut stages = self.stages.lock();
        let stat = stages.entry(path.to_string()).or_default();
        stat.count += 1;
        stat.wall_ns += wall_ns;
        stat.sim_us += sim_us;
    }

    /// Snapshot of the stage tree, sorted by path (parents precede
    /// their children).
    pub fn stages(&self) -> Vec<(String, StageStat)> {
        self.stages
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Accumulated stat for one exact stage path.
    pub fn stage(&self, path: &str) -> Option<StageStat> {
        self.stages.lock().get(path).copied()
    }

    /// Zero every metric in place and clear the stage tree. Existing
    /// handles (including ones cached in `static`s by the recording
    /// macros) remain valid.
    pub fn reset(&self) {
        for c in self.counters.read().values() {
            c.reset();
        }
        for g in self.gauges.read().values() {
            g.reset();
        }
        for h in self.histograms.read().values() {
            h.reset();
        }
        self.stages.lock().clear();
    }

    /// Human-readable report, suitable for diffing across runs.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("== fw metrics ==\n");

        let counters = self.counters.read();
        if counters.values().any(|c| c.get() > 0) {
            out.push_str("\n[counters]\n");
            for (name, c) in counters.iter() {
                if c.get() > 0 {
                    let _ = writeln!(out, "  {name:<52} {}", c.get());
                }
            }
        }
        drop(counters);

        let gauges = self.gauges.read();
        if gauges.values().any(|g| g.get() != 0) {
            out.push_str("\n[gauges]\n");
            for (name, g) in gauges.iter() {
                if g.get() != 0 {
                    let _ = writeln!(out, "  {name:<52} {}", g.get());
                }
            }
        }
        drop(gauges);

        let histograms = self.histograms.read();
        if histograms.values().any(|h| h.count() > 0) {
            out.push_str("\n[histograms]\n");
            for (name, h) in histograms.iter() {
                if h.count() == 0 {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "  {name:<52} n={} p50={} p90={} p99={} max={} mean={:.1}",
                    h.count(),
                    h.percentile(0.50),
                    h.percentile(0.90),
                    h.percentile(0.99),
                    h.max(),
                    h.mean(),
                );
            }
        }
        drop(histograms);

        let stages = self.stages();
        if !stages.is_empty() {
            out.push_str("\n[stages]  (wall ms | sim ms | count)\n");
            for (path, stat) in &stages {
                let depth = path.matches('/').count();
                let name = path.rsplit('/').next().unwrap_or(path);
                let _ = writeln!(
                    out,
                    "  {:indent$}{name:<width$} {:>10.3} {:>10.3} {:>6}",
                    "",
                    stat.wall_ns as f64 / 1e6,
                    stat.sim_us as f64 / 1e3,
                    stat.count,
                    indent = depth * 2,
                    width = 40usize.saturating_sub(depth * 2),
                );
            }
        }
        out
    }

    /// Machine-readable JSON report (stable key order).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");

        out.push_str("\"counters\":{");
        let counters = self.counters.read();
        for (i, (name, c)) in counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(&mut out, name);
            let _ = write!(out, ":{}", c.get());
        }
        drop(counters);
        out.push_str("},\"gauges\":{");
        let gauges = self.gauges.read();
        for (i, (name, g)) in gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(&mut out, name);
            let _ = write!(out, ":{}", g.get());
        }
        drop(gauges);
        out.push_str("},\"histograms\":{");
        let histograms = self.histograms.read();
        for (i, (name, h)) in histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(&mut out, name);
            let _ = write!(
                out,
                ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{:.3},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                h.mean(),
                h.percentile(0.50),
                h.percentile(0.90),
                h.percentile(0.99),
            );
        }
        drop(histograms);
        out.push_str("},\"stages\":{");
        for (i, (path, stat)) in self.stages().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(&mut out, path);
            let _ = write!(
                out,
                ":{{\"count\":{},\"wall_ns\":{},\"sim_us\":{}}}",
                stat.count, stat.wall_ns, stat.sim_us,
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Json;

    #[test]
    fn parses_registry_export() {
        let r = Registry::new();
        r.counter("fw.test.a\"quote").add(3);
        r.gauge("g").set(-7);
        r.histogram("h").record(100);
        r.record_stage("root/child", 12345, 6);
        let v = Json::parse(&r.render_json()).expect("registry JSON parses");
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("fw.test.a\"quote"))
                .and_then(Json::as_u64),
            Some(3)
        );
        assert_eq!(
            v.get("gauges")
                .and_then(|g| g.get("g"))
                .and_then(Json::as_f64),
            Some(-7.0)
        );
        assert_eq!(
            v.get("stages")
                .and_then(|s| s.get("root/child"))
                .and_then(|s| s.get("wall_ns"))
                .and_then(Json::as_u64),
            Some(12345)
        );
    }

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
        let text = r.render_text();
        assert!(text.contains("fw.test.hits"));
        assert!(!text.contains("fw.test.silent"), "zero counters are elided");
        assert!(text.contains("p50="));
        assert!(text.contains("p99="));
    }

    #[test]
    fn json_render_is_parseable_shape() {
        let r = Registry::new();
        r.counter("a\"b").inc();
        r.gauge("g").set(-4);
        r.histogram("h").record(9);
        r.record_stage("root/child", 1_000, 2);
        let json = r.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"a\\\"b\":1"));
        assert!(json.contains("\"g\":-4"));
        assert!(json.contains("\"wall_ns\":1000"));
    }
}
