//! Streaming gate: replay a generated world through the sensing daemon
//! in virtual time, prove the end state equals a batch run, and report
//! detection latency to `BENCH_stream.json` (the [`fw_bench::gate`]
//! schema; DESIGN.md §14; CI runs this at scale 0.1).
//!
//! ```text
//! fw_stream_gate [--scale <f64>] [--seed <u64>] [--batches-per-day <n>]
//!                [--workers <n>] [--out <path>] [--metrics]
//!                [--trace] [--trace-out <path>]
//! ```
//!
//! Defaults: scale 0.1, seed 42, one batch per virtual day, workers 0
//! (one per core), JSON to `BENCH_stream.json`.
//!
//! Stages:
//!
//! 1. **generate** — the PDNS-only world (same flavor the usage
//!    figures consume).
//! 2. **prepare** — flatten the store into time-ordered rows and cut
//!    them into watermarked batches.
//! 3. **stream** — replay every batch over `SimNet` into a
//!    [`fw_stream::StreamDaemon`] in accelerated virtual time; wall
//!    time here yields the sustained rows/s figure.
//! 4. **verify** — recompute everything with the batch pipeline and
//!    diff field-for-field against the daemon's incremental state
//!    ([`fw_stream::check_equivalence`]). Any divergence exits
//!    non-zero, so CI enforces the streaming ↔ batch contract on every
//!    run, not just in unit tests.
//!
//! Detection latency is scored against the world's ground truth: for
//! each abuse family, the virtual days from a function's first row to
//! the batch that flagged it, reported as p50/p99 plus coverage
//! (families whose campaigns never cross the candidate gate show up as
//! `detected < total`, not as silent omissions). The overall p50/p99
//! are the gated `detect_p50`/`detect_p99` metrics, in days (virtual
//! time, so fully deterministic for a given scale/seed): a change that
//! delays flagging fails `bench_regress` like a wall-time slowdown.

use fw_analysis::stats::percentile;
use fw_bench::gate::{die, num, obj, opt, peak_rss_kb, Args, Better, Metric, Report, Stages};
use fw_stream::{
    check_equivalence, collect_rows, day_batches, replay_in_memory, Detection, StreamConfig, DAY_US,
};
use fw_types::{Fqdn, Json};
use fw_workload::{AbuseCase, World, WorldConfig};
use std::collections::HashMap;

/// Detection-latency stats for one abuse family.
struct FamilyStats {
    case: AbuseCase,
    total: usize,
    detected: usize,
    p50_days: f64,
    p99_days: f64,
}

/// Join the scorer's detections against the world's abuse ground truth:
/// the per-family table, and every flagged abuse function's latency in
/// days, sorted.
fn family_table(world: &World, detections: &[Detection]) -> (Vec<FamilyStats>, Vec<f64>) {
    let flagged: HashMap<&Fqdn, &Detection> = detections.iter().map(|d| (&d.fqdn, d)).collect();
    let mut latencies: HashMap<AbuseCase, Vec<f64>> = HashMap::new();
    let mut totals: HashMap<AbuseCase, usize> = HashMap::new();
    for f in world.abuse_functions() {
        let case = f
            .truth
            .abuse_case()
            .expect("abuse_functions filters on Abuse");
        *totals.entry(case).or_insert(0) += 1;
        if let Some(d) = flagged.get(&f.fqdn) {
            latencies
                .entry(case)
                .or_default()
                .push(d.latency_us() as f64 / DAY_US as f64);
        }
    }
    let mut all: Vec<f64> = latencies.values().flatten().copied().collect();
    all.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let families = AbuseCase::ALL
        .iter()
        .map(|&case| {
            let mut lats = latencies.remove(&case).unwrap_or_default();
            lats.sort_by(|a, b| a.partial_cmp(b).unwrap());
            FamilyStats {
                case,
                total: totals.get(&case).copied().unwrap_or(0),
                detected: lats.len(),
                p50_days: percentile(&lats, 50.0),
                p99_days: percentile(&lats, 99.0),
            }
        })
        .collect();
    (families, all)
}

fn main() {
    let mut args = Args::new(
        "fw_stream_gate [--scale <f64>] [--seed <u64>] [--batches-per-day <n>] [--workers <n>]",
        "BENCH_stream.json",
    );
    let mut scale = 0.1f64;
    let mut seed = 42u64;
    let mut batches_per_day = 1u32;
    let mut workers = 0usize;
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--scale" => scale = args.value("--scale"),
            "--seed" => seed = args.value("--seed"),
            "--batches-per-day" => batches_per_day = args.value("--batches-per-day"),
            "--workers" => workers = args.value("--workers"),
            other => die(&format!("unknown flag {other}")),
        }
    }
    if batches_per_day == 0 {
        die("--batches-per-day must be >= 1");
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = if workers == 0 { cores } else { workers };

    let root = fw_obs::span("gate/stream");
    let mut stages = Stages::start();

    // 1. Generate the world the daemon will sense.
    eprintln!("[generate] scale {scale} seed {seed}");
    let world = stages.run("generate", || {
        World::generate(WorldConfig::usage(seed, scale))
    });
    eprintln!(
        "[generate] {:.1} ms: {} functions, {} fqdns, {} rows",
        stages.last_ms(),
        world.functions.len(),
        world.pdns.fqdn_count(),
        world.pdns.record_count()
    );

    // 2. Flatten into time-ordered rows and cut watermarked batches.
    let batches = stages.run("prepare", || {
        day_batches(&collect_rows(&world.pdns), batches_per_day)
    });
    let row_count: u64 = batches.iter().map(|b| b.rows.len() as u64).sum();
    eprintln!(
        "[prepare] {:.1} ms: {} batches ({batches_per_day}/day), {row_count} rows",
        stages.last_ms(),
        batches.len()
    );

    // 3. Replay through the daemon in virtual time.
    let config = StreamConfig {
        workers,
        batches_per_day,
        ..StreamConfig::default()
    };
    let result = stages.run("stream", || replay_in_memory(batches, &config, seed));
    let stream_ms = stages.last_ms();
    let rows_per_sec = row_count as f64 / (stream_ms / 1e3);
    let cp = result.final_state.checkpoint;
    let virtual_days = result.virtual_us as f64 / DAY_US as f64;
    eprintln!(
        "[stream] {stream_ms:.1} ms wall for {virtual_days:.0} virtual days: {} batches, {row_count} rows ({rows_per_sec:.0} rows/s), {} identified, {} candidates",
        cp.batches, cp.identified, cp.candidates
    );

    // 4. Verify streaming ↔ batch equivalence — the CI diff.
    stages.run("verify", || {
        if let Err(e) = check_equivalence(&result.final_state, &world.pdns, workers) {
            die(&format!("streaming/batch equivalence FAILED: {e}"));
        }
    });
    eprintln!(
        "[verify] {:.1} ms: daemon end state == batch pipeline ({} functions, {} unmatched)",
        stages.last_ms(),
        result.final_state.report.functions.len(),
        result.final_state.report.unmatched
    );

    // Detection latency vs ground truth, overall and per abuse family.
    let (families, all_lats) = family_table(&world, &result.final_state.detections);
    let abuse_total: usize = families.iter().map(|f| f.total).sum();
    let abuse_detected = all_lats.len();
    let detect_p50_days = percentile(&all_lats, 50.0);
    let detect_p99_days = percentile(&all_lats, 99.0);
    eprintln!(
        "[detect] {abuse_detected}/{abuse_total} abuse functions flagged; latency p50 {detect_p50_days:.1} d, p99 {detect_p99_days:.1} d (virtual)"
    );
    for f in &families {
        if f.detected > 0 {
            eprintln!(
                "[detect]   {:<24} {}/{} p50 {:.1} d p99 {:.1} d",
                f.case.label(),
                f.detected,
                f.total,
                f.p50_days,
                f.p99_days
            );
        } else {
            eprintln!(
                "[detect]   {:<24} 0/{} (coverage gap: below candidate gate)",
                f.case.label(),
                f.total
            );
        }
    }

    let (metrics, stage_rss) = stages.finish(vec![
        Metric::new("detect_p50", detect_p50_days, "days", Better::Lower),
        Metric::new("detect_p99", detect_p99_days, "days", Better::Lower),
    ]);
    let families = families.iter().map(|f| {
        obj([
            ("family", Json::Str(f.case.label().to_string())),
            ("total", Json::Num(f.total as f64)),
            ("detected", Json::Num(f.detected as f64)),
            ("p50_days", num(f.p50_days)),
            ("p99_days", num(f.p99_days)),
        ])
    });
    let report = Report {
        gate: "stream",
        scale,
        config: obj([
            ("seed", Json::Num(seed as f64)),
            ("workers", Json::Num(workers as f64)),
            ("batches_per_day", Json::Num(batches_per_day as f64)),
        ]),
        metrics,
        summary: vec![
            ("rows", Json::Num(row_count as f64)),
            ("stream_rows_per_sec", num(rows_per_sec.round())),
            ("peak_rss_kb", opt(peak_rss_kb())),
        ],
        detail: vec![
            ("stage_peak_rss_kb", stage_rss),
            ("virtual_days", num(virtual_days)),
            ("wire_bytes", Json::Num(result.wire_bytes as f64)),
            ("checkpoint", result.final_state.checkpoint.to_json()),
            (
                "abuse",
                obj([
                    ("total", Json::Num(abuse_total as f64)),
                    ("detected", Json::Num(abuse_detected as f64)),
                ]),
            ),
            ("families", Json::Arr(families.collect())),
        ],
    };

    println!(
        "stream gate: scale {scale} seed {seed} {}; {rows_per_sec:.0} rows/s, detect p50 {detect_p50_days:.1} d; report -> {}",
        report.walls(),
        args.out.display()
    );
    args.finish(root, &report);
}
