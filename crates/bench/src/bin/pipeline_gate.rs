//! End-to-end data-plane gate: generate→ingest run as one overlapped
//! phase streaming rows straight into the store, then
//! seal+identify+usage overlapped per shard (DESIGN.md §16). The report
//! lands in `BENCH_pipeline.json` (the [`fw_bench::gate`] schema;
//! DESIGN.md §12; CI runs this at scale 0.1).
//!
//! ```text
//! pipeline_gate [--scale <f64>] [--seed <u64>] [--gen-workers <n>]
//!               [--workers <n>] [--sample <f64>] [--store <dir>]
//!               [--keep-store] [--out <path>] [--metrics]
//!               [--trace] [--trace-out <path>]
//! ```
//!
//! Defaults: scale 1.0, seed 42, every worker count 0 (one per core),
//! a temp store directory (removed on exit unless `--keep-store`),
//! JSON to `BENCH_pipeline.json`. The store always has [`SHARDS`]
//! shards.
//!
//! Every run prints a `pipeline identity:` line — the commutative
//! `rows_fnv` content hash of the stored rows plus a digest of every
//! figure the run produced. It is a pure function of (scale, seed) at
//! every worker count: CI diffs it across worker counts and checks it
//! against the values committed in `BENCH_pipeline.json`, and
//! `tests/fused_equivalence.rs` holds it to the in-memory batch path.
//! `--sample <rate>` switches the usage sweep to the deterministic
//! hash-sampled estimator (error bounds printed).
//!
//! Gated metrics: the `generate_ingest` and `seal_analyze` walls and
//! `total`. The report also carries per-shard ingest accounting
//! (including flush p99) and `ingest_rows_per_sec`, derived from the
//! *overlapped* ingest wall (pipeline start → last shard sealed) — a
//! serial-stage formula has no meaning when ingest hides inside
//! generation.

use fw_bench::fused::{figures_digest, run_fused, FusedOptions};
use fw_bench::gate::{die, num, obj, opt, peak_rss_kb, Args, Report, Stages};
use fw_types::Json;
use fw_workload::{SnapshotMeta, WorldConfig};
use std::path::PathBuf;

/// Store shard count (also the unit of seal/analyze overlap).
const SHARDS: usize = 16;

fn main() {
    let mut args = Args::new(
        "pipeline_gate [--scale <f64>] [--seed <u64>] [--gen-workers <n>] [--workers <n>] [--sample <f64>] [--store <dir>] [--keep-store]",
        "BENCH_pipeline.json",
    );
    let mut scale = 1.0f64;
    let mut seed = 42u64;
    let mut gen_workers = 0usize;
    let mut workers = 0usize;
    let mut sample: Option<f64> = None;
    let mut store_dir: Option<PathBuf> = None;
    let mut keep_store = false;
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--scale" => scale = args.value("--scale"),
            "--seed" => seed = args.value("--seed"),
            "--gen-workers" => gen_workers = args.value("--gen-workers"),
            "--workers" => workers = args.value("--workers"),
            "--sample" => sample = Some(args.value("--sample")),
            "--store" => store_dir = Some(args.value("--store")),
            "--keep-store" => keep_store = true,
            other => die(&format!("unknown flag {other}")),
        }
    }
    if let Some(rate) = sample {
        if rate.is_nan() || rate <= 0.0 {
            die("--sample needs a rate in (0, 1]");
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = if workers == 0 { cores } else { workers };
    let store = store_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("fw-pipeline-gate-{}", std::process::id()))
    });

    let root = fw_obs::span("gate/pipeline");
    let mut stages = Stages::start();
    eprintln!(
        "[generate_ingest] scale {scale} seed {seed} gen_workers {gen_workers} (0 = {cores} cores), {SHARDS} shards -> {}",
        store.display()
    );
    let mut config = WorldConfig::usage(seed, scale);
    config.gen_workers = gen_workers;
    let opts = FusedOptions {
        shards: SHARDS,
        workers,
        sample,
    };
    let run =
        run_fused(config, &store, &opts).unwrap_or_else(|e| die(&format!("fused run failed: {e}")));
    stages.record(
        "generate_ingest",
        run.generate_ingest_ms,
        run.generate_ingest_rss_kb,
    );
    stages.record("seal_analyze", run.seal_analyze_ms, peak_rss_kb());
    let (metrics, stage_rss) = stages.finish(Vec::new());
    let rows_per_sec = run.rows as f64 / (run.ingest_wall_ms / 1e3);
    let figures_fnv = figures_digest(&run.report, &run.monthly, &run.ingress);
    eprintln!(
        "[generate_ingest] {:.1} ms: {} functions, {} fqdns, {} rows streamed into the store",
        run.generate_ingest_ms,
        run.world.functions.len(),
        run.fqdns,
        run.rows
    );
    eprintln!(
        "[seal_analyze] {:.1} ms ({workers} workers): {} identified, {} unmatched, {} months, {} ingress rows; ingest wall {:.1} ms ({rows_per_sec:.0} rows/s)",
        run.seal_analyze_ms,
        run.report.functions.len(),
        run.report.unmatched,
        run.monthly.months.len(),
        run.ingress.len(),
        run.ingest_wall_ms
    );
    if let Some(s) = &run.sampled {
        eprintln!(
            "[sample] rate {}: {}/{} functions (factor {:.3}); est total {} vs exact {} (rel err {:.2}%, a-priori ±1\u{3c3} {:.2}%)",
            s.rate,
            s.sampled_functions,
            s.total_functions,
            s.scale_factor,
            s.est_total_requests,
            s.exact_total_requests,
            s.rel_err_total * 100.0,
            s.rel_std_err * 100.0
        );
    }

    // Manifest for kept stores, so figure binaries can `--snapshot` the
    // gate's output and verify its content hash.
    if let Err(e) = (SnapshotMeta {
        seed,
        scale,
        live: false,
        rows_fnv: run.rows_fnv,
    })
    .write(&store)
    {
        eprintln!("[meta] cannot write world.meta: {e}");
    }

    let shards = run.shard_stats.iter().map(|sh| {
        obj([
            ("shard", Json::Num(sh.shard as f64)),
            ("fqdns", Json::Num(sh.fqdns as f64)),
            ("rows", Json::Num(sh.rows as f64)),
            ("flushes", Json::Num(sh.flushes as f64)),
            ("flush_ms", num(sh.flush_ns as f64 / 1e6)),
            ("flush_p99_ms", num(sh.flush_p99_ns as f64 / 1e6)),
            ("bytes_written", Json::Num(sh.bytes_written as f64)),
            ("segments", Json::Num(sh.segments as f64)),
        ])
    });
    let report = Report {
        gate: "pipeline",
        scale,
        config: obj([
            ("seed", Json::Num(seed as f64)),
            ("gen_workers", Json::Num(gen_workers as f64)),
            ("workers", Json::Num(workers as f64)),
            ("shards", Json::Num(SHARDS as f64)),
        ]),
        metrics,
        summary: vec![
            ("rows", Json::Num(run.rows as f64)),
            ("ingest_rows_per_sec", num(rows_per_sec.round())),
            ("peak_rss_kb", opt(peak_rss_kb())),
        ],
        detail: vec![
            ("stage_peak_rss_kb", stage_rss),
            ("ingest_shards", Json::Arr(shards.collect())),
            ("ingest_wall_ms", num(run.ingest_wall_ms)),
            ("fqdns", Json::Num(run.fqdns as f64)),
            ("functions", Json::Num(run.world.functions.len() as f64)),
            ("identified", Json::Num(run.report.functions.len() as f64)),
            ("rows_fnv", Json::Str(format!("{:016x}", run.rows_fnv))),
            ("figures_fnv", Json::Str(format!("{figures_fnv:016x}"))),
        ],
    };

    // The identity line is worker-count-independent by construction:
    // CI diffs it across worker counts and against the committed
    // baseline's hashes.
    println!(
        "pipeline identity: scale {scale} seed {seed} rows {} rows_fnv={:016x} figures_fnv={figures_fnv:016x}",
        run.rows, run.rows_fnv
    );
    println!(
        "pipeline gate: scale {scale} seed {seed} {}; report -> {}",
        report.walls(),
        args.out.display()
    );
    args.finish(root, &report);

    if store_dir.is_none() && !keep_store {
        let _ = std::fs::remove_dir_all(&store);
    }
}
