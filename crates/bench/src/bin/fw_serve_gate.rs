//! Serving gate: build the query API over a generated world, drive it
//! with the SimNet load harness, and report latency/throughput to
//! `BENCH_serve.json` (the [`fw_bench::gate`] schema; DESIGN.md
//! §15/§17; CI runs this at 100k clients and the committed baseline
//! carries a 1M-client run).
//!
//! ```text
//! fw_serve_gate [--clients <n>] [--workers <n>] [--serve-workers <n>]
//!               [--sweep] [--seed <u64>] [--world-scale <f64>]
//!               [--cache-capacity <n>] [--out <path>] [--metrics]
//!               [--trace] [--trace-out <path>]
//! ```
//!
//! Defaults: 100k clients, 8 serving workers, load workers 0 (= serve
//! workers), seed 42, world scale 0.1, JSON to `BENCH_serve.json`.
//! Every client bursts 1..=[`RPC_MAX`] requests, arriving over a
//! [`WINDOW_S`]-second virtual window.
//!
//! Stages:
//!
//! 1. **generate** — the PDNS-only world whose store the API serves.
//! 2. **build** — freeze the store into a [`ServeState`] (identify +
//!    usage + candidate replay, figure documents pre-rendered).
//! 3. **serve** — the load run against the pooled zero-copy serve
//!    plane: every client connects once over SimNet (flow-steered onto
//!    a serving worker), issues its keep-alive burst, and digests the
//!    response bytes. Wall time here yields the sustained qps figure.
//! 4. **sweep** (with `--sweep`) — re-run the same load at serving
//!    worker counts {1,2,4,8} over the *same* frozen state, die if any
//!    digest differs from the main run (worker count must never change
//!    a byte), and record per-count qps/latency plus the
//!    `scale_eff` = qps(max)/qps(1) efficiency ratio.
//!
//! Besides the stage walls, the gated metrics are `p50_us`/`p99_us`
//! (µs, lower is better) and `qps`, `hit_rate` and `scale_eff` (higher
//! is better). Throughput is reported both ways: `qps` is requests over
//! wall time (the real server-cost figure, also `achieved_qps_wall`)
//! and `offered_qps_virtual` is requests over the virtual arrival
//! window, a property of the schedule alone.
//!
//! Every run prints a `serve identity:` line holding only what is a
//! pure function of (clients, seed, world scale): CI diffs it between
//! runs at different worker counts.

use fw_analysis::stats::percentile;
use fw_bench::gate::{die, num, obj, opt, peak_rss_kb, Args, Better, Metric, Report, Stages};
use fw_serve::{CacheConfig, Endpoint, LoadConfig, LoadPlan, LoadReport, ServeApi, ServeState};
use fw_types::Json;
use fw_workload::{World, WorldConfig};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

const ADDR: &str = "10.99.0.1:8080";

/// Most requests one client's keep-alive burst issues.
const RPC_MAX: u32 = 3;

/// Virtual arrival window, seconds.
const WINDOW_S: u64 = 3600;

/// Serving worker counts the `--sweep` matrix exercises.
const SWEEP_WORKERS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    let mut args = Args::new(
        "fw_serve_gate [--clients <n>] [--workers <n>] [--serve-workers <n>] [--sweep] [--seed <u64>] [--world-scale <f64>] [--cache-capacity <n>]",
        "BENCH_serve.json",
    );
    let mut clients = 100_000u64;
    let mut workers = 0usize;
    let mut serve_workers = 8usize;
    let mut sweep = false;
    let mut seed = 42u64;
    let mut world_scale = 0.1f64;
    let mut cache_capacity = 65_536usize;
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--clients" => clients = args.value("--clients"),
            "--workers" => workers = args.value("--workers"),
            "--serve-workers" => serve_workers = args.value("--serve-workers"),
            "--sweep" => sweep = true,
            "--seed" => seed = args.value("--seed"),
            "--world-scale" => world_scale = args.value("--world-scale"),
            "--cache-capacity" => cache_capacity = args.value("--cache-capacity"),
            other => die(&format!("unknown flag {other}")),
        }
    }
    if clients == 0 {
        die("--clients must be >= 1");
    }
    if serve_workers == 0 {
        die("--serve-workers must be >= 1");
    }
    // Load drivers scale with the serving plane unless pinned.
    let workers = if workers == 0 { serve_workers } else { workers };
    // The report's headline scale: fraction of the paper-scale
    // million-client run, so `bench_regress` scale matching works the
    // same way it does for the pipeline gate.
    let scale = clients as f64 / 1e6;

    let root = fw_obs::span("gate/serve");
    let mut stages = Stages::start();

    // 1. Generate the world whose store the API will serve.
    eprintln!("[generate] world scale {world_scale} seed {seed}");
    let world = stages.run("generate", || {
        World::generate(WorldConfig::usage(seed, world_scale))
    });
    eprintln!(
        "[generate] {:.1} ms: {} fqdns, {} rows",
        stages.last_ms(),
        world.pdns.fqdn_count(),
        world.pdns.record_count()
    );

    // 2. Freeze the store into the queryable snapshot (shared by the
    // main run and every sweep run).
    let state = stages.run("build", || Arc::new(ServeState::build(world.pdns, workers)));
    eprintln!(
        "[build] {:.1} ms: {} functions, {} candidates",
        stages.last_ms(),
        state.report().functions.len(),
        state.candidate_count()
    );

    let plan = LoadPlan {
        function_fqdns: Arc::new(state.function_fqdns()),
    };
    let cache_config = CacheConfig {
        capacity: cache_capacity,
        ..CacheConfig::default()
    };
    let addr: SocketAddr = ADDR.parse().expect("static addr");

    // One full load run at `sw` serving workers over a fresh SimNet;
    // the frozen state (and its Arc'd figure bodies) is shared.
    let run_at = |sw: usize, load_workers: usize| -> (LoadReport, fw_serve::CacheStats) {
        let net = fw_net::SimNet::new(seed);
        let api = Arc::new(ServeApi::new(Arc::clone(&state), cache_config));
        api.serve_pool(&net, addr, sw);
        let config = LoadConfig {
            clients,
            max_requests_per_client: RPC_MAX,
            workers: load_workers,
            seed,
            window: Duration::from_secs(WINDOW_S),
        };
        let report = fw_serve::load::run_load(&net, addr, &config, &plan);
        let cache = api.cache_stats();
        (report, cache)
    };

    // 3. The main load run.
    let (report, cache) = stages.run("serve", || run_at(serve_workers, workers));
    let serve_ms = stages.last_ms();
    let p50_us = percentile(&report.latencies_us, 50.0);
    let p99_us = percentile(&report.latencies_us, 99.0);
    let qps = report.achieved_qps_wall();
    let hit_rate = cache.hit_rate();
    eprintln!(
        "[serve] {serve_ms:.1} ms wall for {} requests from {} clients over {} workers ({qps:.0} qps achieved, {:.0} qps offered over {:.0} virtual s)",
        report.requests,
        report.clients,
        serve_workers,
        report.offered_qps_virtual(),
        report.virtual_us as f64 / 1e6
    );
    eprintln!(
        "[serve] latency p50 {p50_us:.0} us p99 {p99_us:.0} us; cache hit rate {hit_rate:.3} ({} hits / {} misses / {} evictions; admission {} accepted / {} rejected)",
        cache.hits, cache.misses, cache.evictions, cache.admit_accept, cache.admit_reject
    );
    eprintln!("[serve] digest {:016x}", report.digest);

    // 4. The worker-scaling sweep: same seed, same state, serving
    // worker counts {1,2,4,8}. Byte-level reproducibility across the
    // matrix is a hard invariant — any digest drift is a bug, not a
    // number to report.
    let mut sweep_rows = Vec::new();
    let mut scale_eff = None;
    if sweep {
        let qps_at = stages.run("sweep", || {
            SWEEP_WORKERS.map(|sw| {
                let (r, c) = run_at(sw, sw);
                let (p50, p99) = (
                    percentile(&r.latencies_us, 50.0),
                    percentile(&r.latencies_us, 99.0),
                );
                eprintln!(
                    "[sweep] {sw} workers: {:.0} qps, p50 {p50:.0} us, p99 {p99:.0} us, hit {:.3}, digest {:016x}",
                    r.achieved_qps_wall(),
                    c.hit_rate(),
                    r.digest
                );
                if r.digest != report.digest || r.requests != report.requests {
                    die(&format!(
                        "sweep at {sw} serving workers diverged: digest {:016x} ({} requests) vs main {:016x} ({} requests) — worker count must never change response bytes",
                        r.digest, r.requests, report.digest, report.requests
                    ));
                }
                sweep_rows.push(obj([
                    ("serve_workers", Json::Num(sw as f64)),
                    ("qps", num(r.achieved_qps_wall().round())),
                    ("p50_us", num(p50)),
                    ("p99_us", num(p99)),
                    ("hit_rate", num(c.hit_rate())),
                    ("digest", Json::Str(format!("{:016x}", r.digest))),
                    ("requests", Json::Num(r.requests as f64)),
                ]));
                r.achieved_qps_wall()
            })
        });
        let last = SWEEP_WORKERS.len() - 1;
        if qps_at[0] > 0.0 {
            let eff = qps_at[last] / qps_at[0];
            scale_eff = Some(Metric::new("scale_eff", eff, "ratio", Better::Higher));
        }
        eprintln!(
            "[sweep] {:.1} ms; scale_eff (qps@{}w / qps@1w) = {:.3}",
            stages.last_ms(),
            SWEEP_WORKERS[last],
            scale_eff.as_ref().map_or(f64::NAN, |m| m.value)
        );
    }

    let mut extra = vec![
        Metric::new("p50_us", p50_us, "us", Better::Lower),
        Metric::new("p99_us", p99_us, "us", Better::Lower),
        Metric::new("qps", qps.round(), "1/s", Better::Higher),
    ];
    extra.extend(scale_eff);
    extra.push(Metric::new("hit_rate", hit_rate, "ratio", Better::Higher));
    let (metrics, stage_rss) = stages.finish(extra);

    let statuses = [
        ("ok", report.status_ok),
        ("not_found", report.status_not_found),
        ("other", report.status_other),
    ];
    let endpoints: Vec<(&str, u64)> = Endpoint::ALL
        .iter()
        .map(|ep| ep.label())
        .zip(report.endpoint_counts)
        .collect();
    let counts_json = |pairs: &[(&str, u64)]| {
        Json::Obj(
            pairs
                .iter()
                .map(|&(k, n)| (k.to_string(), Json::Num(n as f64)))
                .collect(),
        )
    };
    let mut detail = vec![
        ("stage_peak_rss_kb", stage_rss),
        ("clients", Json::Num(report.clients as f64)),
        ("achieved_qps_wall", num(qps.round())),
        (
            "offered_qps_virtual",
            num(report.offered_qps_virtual().round()),
        ),
        ("virtual_us", Json::Num(report.virtual_us as f64)),
        ("digest", Json::Str(format!("{:016x}", report.digest))),
        ("response_bytes", Json::Num(report.response_bytes as f64)),
        ("status", counts_json(&statuses)),
        ("endpoints", counts_json(&endpoints)),
        (
            "cache",
            obj([
                ("hits", Json::Num(cache.hits as f64)),
                ("misses", Json::Num(cache.misses as f64)),
                ("evictions", Json::Num(cache.evictions as f64)),
                ("entries", Json::Num(cache.entries as f64)),
                ("admit_accept", Json::Num(cache.admit_accept as f64)),
                ("admit_reject", Json::Num(cache.admit_reject as f64)),
            ]),
        ),
    ];
    if sweep {
        detail.push(("sweep", Json::Arr(sweep_rows)));
    }
    let gate_report = Report {
        gate: "serve",
        scale,
        config: obj([
            ("clients", Json::Num(clients as f64)),
            ("seed", Json::Num(seed as f64)),
            ("workers", Json::Num(workers as f64)),
            ("serve_workers", Json::Num(serve_workers as f64)),
            ("rpc_max", Json::Num(RPC_MAX as f64)),
            ("world_scale", Json::Num(world_scale)),
            ("window_s", Json::Num(WINDOW_S as f64)),
            ("cache_capacity", Json::Num(cache_capacity as f64)),
        ]),
        metrics,
        summary: vec![
            ("requests", Json::Num(report.requests as f64)),
            ("peak_rss_kb", opt(peak_rss_kb())),
        ],
        detail,
    };

    // Worker counts and wall time stay out of the identity line: it is
    // what two runs at different worker counts must agree on.
    let counts_text = |pairs: &[(&str, u64)]| {
        let pairs: Vec<String> = pairs.iter().map(|(k, n)| format!("{k}={n}")).collect();
        pairs.join(" ")
    };
    println!(
        "serve identity: clients {clients} seed {seed} requests {} digest {:016x} virtual_us {} status {} endpoints {}",
        report.requests,
        report.digest,
        report.virtual_us,
        counts_text(&statuses),
        counts_text(&endpoints)
    );
    println!(
        "serve gate: {clients} clients seed {seed} over {serve_workers} serving workers, {}; {qps:.0} qps, p50 {p50_us:.0} us, p99 {p99_us:.0} us, hit rate {hit_rate:.3}, digest {:016x}; report -> {}",
        gate_report.walls(),
        report.digest,
        args.out.display()
    );
    args.finish(root, &gate_report);
}
