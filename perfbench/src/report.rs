//! What one benchmark run hands back to `main`: correctness checks,
//! attempted/failed counts, metric values and the traced layer table.

use crate::measure::{median, peak_rss_mb, Phase};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported by every untraced run, with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("items_per_s", "1/s"),
];

/// Per-layer metrics, reported by every traced run, with units. A
/// layer a workload never enters reads 0.
pub const PER_LAYER: [(&str, &str); 68] = [
    // Every workload.
    ("obs.trace_overhead_pct", "%"),
    ("layers.unattributed_s", "s"),
    ("proc.user_cpu_s", "s"),
    ("proc.sys_cpu_s", "s"),
    ("proc.ctx_switches", "count"),
    ("proc.host_factor", "ratio"),
    // pipeline_full: fw-workload, fw-store, fw-core identify/usage.
    ("workload.generate_ingest_s", "s"),
    ("store.seal_s", "s"),
    ("store.seal_p99_ms", "ms"),
    ("store.scan_s", "s"),
    ("store.bytes_per_row", "B"),
    ("identify.classify_s", "s"),
    ("identify.classify_per_fqdn", "ratio"),
    ("identify.absorb_s", "s"),
    ("identify.lock_wait_s", "s"),
    ("identify.report_s", "s"),
    ("usage.apply_s", "s"),
    ("usage.merge_s", "s"),
    ("usage.materialize_s", "s"),
    ("pipeline.row_hash_s", "s"),
    ("pipeline.worker_skew", "ratio"),
    ("pipeline.digest_s", "s"),
    // stream_hourly: fw-stream, fw-dns pdns, fw-core identify/usage.
    ("stream.apply_batch_p50_us", "us"),
    ("stream.apply_batch_p99_us", "us"),
    ("pdns.observe_s", "s"),
    ("identify.apply_rows_s", "s"),
    ("stream.score_s", "s"),
    ("stream.wire_encode_s", "s"),
    ("stream.wire_decode_s", "s"),
    ("stream.wire_bytes_per_row", "B"),
    ("stream.transport_s", "s"),
    ("stream.finish_s", "s"),
    ("stream.detect_p50_days", "days"),
    ("stream.detect_p99_days", "days"),
    ("stream.detect_recall", "ratio"),
    // serve_mixed: fw-serve, its cache, fw-http fast codec, fw-net.
    ("serve.server_s", "s"),
    ("net.request_gap_s", "s"),
    ("serve.client_p50_us", "us"),
    ("serve.client_p99_us", "us"),
    ("serve.server_p50_us", "us"),
    ("serve.server_p99_us", "us"),
    ("serve.client_gap_p50_us", "us"),
    ("serve.worker_busy_frac", "ratio"),
    ("serve.render_verdict_p50_us", "us"),
    ("serve.render_usage_p50_us", "us"),
    ("serve.render_abuse_p50_us", "us"),
    ("serve.render_candidates_p50_us", "us"),
    ("serve.render_figure_p50_us", "us"),
    ("serve.error_rate", "ratio"),
    ("cache.hit_rate", "ratio"),
    ("cache.evictions", "count"),
    ("cache.admit_reject", "count"),
    ("http.parse_request_ns", "ns"),
    ("net.roundtrip_p50_us", "us"),
    ("net.ctx_switches_per_req", "count"),
    // probe_scan: fw-probe, fw-abuse, fw-http client, fw-net, fw-cloud.
    ("identify.functions_s", "s"),
    ("usage.tables_s", "s"),
    ("probe.probe_all_s", "s"),
    ("probe.probe_one_p50_us", "us"),
    ("probe.probe_one_p99_us", "us"),
    ("probe.status_s", "s"),
    ("abuse.scan_s", "s"),
    ("abuse.c2_scan_s", "s"),
    ("abuse.c2_scan_one_p50_us", "us"),
    ("abuse.c2_scan_one_p99_us", "us"),
    ("http.conn_dialed", "count"),
    ("http.conn_reused", "count"),
    ("net.connections", "count"),
];

/// Correctness checks of one run; any failure makes the run incorrect.
#[derive(Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn expect_eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        self.expect(got == want, || {
            format!("{what}: got {got:?}, want {want:?}")
        });
    }
}

/// A digest that prints as 16 hex digits in check messages.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Hex(pub u64);

impl std::fmt::Debug for Hex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One row of a traced layer table.
pub struct Layer {
    pub name: &'static str,
    /// Busy time summed over the threads that ran the layer.
    pub busy_s: f64,
    /// Threads the busy time was spread over; `busy_s / threads` is the
    /// layer's share of the traced wall time.
    pub threads: f64,
    /// The end-to-end metric this layer should move.
    pub moves: &'static str,
}

/// Everything a workload run produces.
pub struct Outcome {
    pub checks: Checks,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Traced runs only: the layer table and the wall time it divides.
    pub layers: Vec<Layer>,
    pub traced_wall_s: f64,
    /// Worker knobs and sizes, for the report header.
    pub knobs: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn new(checks: Checks) -> Outcome {
        Outcome {
            checks,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            layers: Vec::new(),
            traced_wall_s: 0.0,
            knobs: Vec::new(),
        }
    }

    pub fn knob(&mut self, name: &'static str, value: impl ToString) {
        self.knobs.push((name, value.to_string()));
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Fill the end-to-end metrics from the set-up phases and the
    /// measured iterations (`items` of work each).
    ///
    /// Times are in reference-host seconds: each phase's are divided by
    /// its own host factor.
    pub fn end_to_end(&mut self, setups: &[Phase], runs: &[(u64, Phase)]) {
        let setup_s: Vec<f64> = setups.iter().map(|p| p.wall_s / p.host).collect();
        let walls: Vec<f64> = runs.iter().map(|(_, p)| p.wall_s / p.host).collect();
        let cpus: Vec<f64> = runs.iter().map(|(_, p)| p.usage.cpu_s() / p.host).collect();
        let rates: Vec<f64> = runs
            .iter()
            .map(|(n, p)| *n as f64 * p.host / p.wall_s)
            .collect();
        self.set("setup_s", median(&setup_s));
        self.set("wall_s", median(&walls));
        self.set("cpu_s", median(&cpus));
        self.set("peak_rss_mb", peak_rss_mb());
        self.set("items_per_s", median(&rates));
        self.attempted += runs.iter().map(|(n, _)| *n).sum::<u64>();
    }

    /// Record the traced phase: its process accounting, the layer rows
    /// (each also reported as a metric under its own name), the
    /// unattributed remainder and the overhead against `untraced_wall_s`.
    pub fn traced(&mut self, phase: &Phase, untraced_wall_s: f64, layers: Vec<Layer>) {
        self.traced_wall_s = phase.wall_s;
        for l in &layers {
            self.metrics.insert(l.name, l.busy_s);
        }
        let attributed: f64 = layers.iter().map(|l| l.busy_s / l.threads).sum();
        self.set("layers.unattributed_s", phase.wall_s - attributed);
        self.set(
            "obs.trace_overhead_pct",
            (phase.wall_s / untraced_wall_s - 1.0) * 100.0,
        );
        self.set("proc.user_cpu_s", phase.usage.user_s);
        self.set("proc.sys_cpu_s", phase.usage.sys_s);
        self.set("proc.ctx_switches", phase.usage.ctx_switches as f64);
        self.layers = layers;
    }

    /// The layer table: time, share of the traced wall, and the
    /// end-to-end metric each layer should move.
    pub fn render_table(&self, workload: &str) -> String {
        let wall = self.traced_wall_s;
        let mut out = String::new();
        let _ = writeln!(out, "layer table: {workload} (traced wall {wall:.3} s)");
        let _ = writeln!(
            out,
            "  {:<28} {:>10} {:>8} {:>10} {:>7}  moves",
            "layer", "busy_s", "threads", "wall_eq_s", "share"
        );
        let mut row = |name: &str, busy: f64, threads: f64, moves: &str| {
            let eq = busy / threads;
            let _ = writeln!(
                out,
                "  {name:<28} {busy:>10.4} {threads:>8} {eq:>10.4} {:>6.1}%  {moves}",
                eq / wall * 100.0
            );
        };
        for l in &self.layers {
            row(l.name, l.busy_s, l.threads, l.moves);
        }
        let un = self.metrics["layers.unattributed_s"];
        row("unattributed", un, 1.0, "wall_s");
        let _ = writeln!(
            out,
            "  tracing overhead: {:+.1}% of the untraced median wall",
            self.metrics["obs.trace_overhead_pct"]
        );
        out
    }
}
