//! End-to-end data-plane gate: generate→ingest run as one overlapped
//! phase streaming rows straight into the store, then
//! seal+identify+usage overlapped per shard (DESIGN.md §16). Timing of
//! every stage lands in a machine-readable `BENCH_pipeline.json`
//! (DESIGN.md §12; CI runs this at scale 0.1).
//!
//! ```text
//! pipeline_gate [--scale <f64>] [--seed <u64>] [--gen-workers <n>]
//!               [--workers <n>] [--shards <n>] [--sample <f64>]
//!               [--store <dir>] [--keep-store] [--out <path>] [--metrics]
//!               [--trace] [--trace-out <path>]
//! ```
//!
//! Defaults: scale 1.0, seed 42, every worker count 0 (one per core),
//! 16 store shards, a temp store directory (removed on exit unless
//! `--keep-store`), JSON to `BENCH_pipeline.json`.
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
//! With `--trace` (or `FW_TRACE=1`), the run records causal span events
//! (DESIGN.md §13), dumps them next to the report as
//! `<out stem>.trace.jsonl`, and invokes the `fw_trace_report` sibling
//! binary to derive the Chrome trace, folded flamegraph stacks and the
//! critical-path attribution from the dump (falling back to writing
//! them in-process if the binary is not installed alongside).
//!
//! The JSON report carries per-stage wall time and peak RSS, per-shard
//! ingest accounting (including flush p99), and a rolling `history`
//! array (one entry per run, newest last) that `bench_regress` uses as
//! its baseline series. `ingest_rows_per_sec` is derived from the
//! *overlapped* ingest wall (pipeline start → last shard sealed) — a
//! serial-stage formula has no meaning when ingest hides inside
//! generation.

use fw_bench::fused::{figures_digest, run_fused, FusedOptions};
use fw_core::usage::SampledUsage;
use fw_obs::Json;
use fw_store::ShardIngestStats;
use fw_workload::{SnapshotMeta, WorldConfig};
use std::path::{Path, PathBuf};
use std::time::Instant;

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn arg_num<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    args.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| die(&format!("{flag} needs a number")))
}

/// Peak resident set (VmHWM) in KiB; `None` off Linux or if unreadable.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

struct Stage {
    name: &'static str,
    ms: f64,
    /// Process RSS high-water mark at the end of the stage. VmHWM is
    /// monotonic, so this reads as "the run had peaked at N KiB by the
    /// time this stage finished", not a per-stage delta.
    peak_rss_kb: Option<u64>,
}

/// Everything the run hands to the report emitter.
struct Outcome {
    stages: Vec<Stage>,
    shard_stats: Vec<ShardIngestStats>,
    rows: usize,
    fqdns: usize,
    functions: usize,
    identified: usize,
    rows_fnv: u64,
    figures_fnv: u64,
    rows_per_sec: f64,
    /// Pipeline start → last shard sealed.
    ingest_wall_ms: f64,
}

/// How many runs the report's `history` array retains (newest last).
const HISTORY_CAP: usize = 50;

/// Previous runs recorded in an existing report at `out`, rendered as
/// compact JSON objects ready to splice into the rewritten file.
fn prior_history(out: &Path) -> Vec<String> {
    let Ok(text) = std::fs::read_to_string(out) else {
        return Vec::new();
    };
    let Ok(old) = Json::parse(&text) else {
        eprintln!(
            "[history] existing {} is not valid JSON; starting a fresh history",
            out.display()
        );
        return Vec::new();
    };
    match old.get("history").and_then(Json::as_arr) {
        Some(entries) => entries.iter().map(Json::render).collect(),
        None => Vec::new(),
    }
}

/// Hand the trace dump to the `fw_trace_report` sibling binary (same
/// target directory as this gate); if it is missing or fails, derive
/// the reports in-process instead so `--trace` always yields artifacts.
fn emit_trace_reports(dump: &fw_obs::TraceDump, trace_path: &Path) {
    let sibling = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("fw_trace_report")));
    if let Some(bin) = sibling {
        if bin.exists() {
            match std::process::Command::new(&bin).arg(trace_path).status() {
                Ok(status) if status.success() => return,
                Ok(status) => eprintln!("[trace] fw_trace_report exited {status}; falling back"),
                Err(e) => eprintln!("[trace] cannot spawn {}: {e}; falling back", bin.display()),
            }
        }
    }
    match fw_obs::write_trace_reports(dump, trace_path) {
        Ok(paths) => {
            eprintln!("[trace] chrome trace   -> {}", paths.chrome.display());
            eprintln!("[trace] folded stacks  -> {}", paths.folded.display());
            eprintln!("[trace] critical path  -> {}", paths.critpath_txt.display());
            if let Some(crit) = &paths.crit {
                eprint!("{}", crit.render_text());
            }
        }
        Err(e) => eprintln!("[trace] cannot write trace reports: {e}"),
    }
}

fn print_sample_summary(s: &SampledUsage) {
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

#[allow(clippy::too_many_arguments)]
fn run_pipeline(
    scale: f64,
    seed: u64,
    gen_workers: usize,
    workers: usize,
    shards: usize,
    sample: Option<f64>,
    store: &Path,
    cores: usize,
) -> Outcome {
    eprintln!(
        "[generate_ingest] scale {scale} seed {seed} gen_workers {gen_workers} (0 = {cores} cores), {shards} shards -> {}",
        store.display()
    );
    let mut config = WorldConfig::usage(seed, scale);
    config.gen_workers = gen_workers;
    let opts = FusedOptions {
        shards,
        workers,
        sample,
    };
    let run =
        run_fused(config, store, &opts).unwrap_or_else(|e| die(&format!("fused run failed: {e}")));
    let rows_per_sec = run.rows as f64 / (run.ingest_wall_ms / 1e3);
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
        print_sample_summary(s);
    }

    Outcome {
        figures_fnv: figures_digest(&run.report, &run.monthly, &run.ingress),
        stages: vec![
            Stage {
                name: "generate_ingest",
                ms: run.generate_ingest_ms,
                peak_rss_kb: run.generate_ingest_rss_kb,
            },
            Stage {
                name: "seal_analyze",
                ms: run.seal_analyze_ms,
                peak_rss_kb: peak_rss_kb(),
            },
        ],
        shard_stats: run.shard_stats,
        rows: run.rows,
        fqdns: run.fqdns,
        functions: run.world.functions.len(),
        identified: run.report.functions.len(),
        rows_fnv: run.rows_fnv,
        rows_per_sec,
        ingest_wall_ms: run.ingest_wall_ms,
    }
}

fn main() {
    let mut scale = 1.0f64;
    let mut seed = 42u64;
    let mut gen_workers = 0usize;
    let mut workers = 0usize;
    let mut shards = 16usize;
    let mut sample: Option<f64> = None;
    let mut store_dir: Option<PathBuf> = None;
    let mut keep_store = false;
    let mut out = PathBuf::from("BENCH_pipeline.json");
    let mut trace_out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => scale = arg_num(&mut args, "--scale"),
            "--seed" => seed = arg_num(&mut args, "--seed"),
            "--gen-workers" => gen_workers = arg_num(&mut args, "--gen-workers"),
            "--workers" => workers = arg_num(&mut args, "--workers"),
            "--shards" => shards = arg_num(&mut args, "--shards"),
            "--sample" => sample = Some(arg_num(&mut args, "--sample")),
            "--store" => {
                store_dir = Some(PathBuf::from(
                    args.next().unwrap_or_else(|| die("--store needs a path")),
                ));
            }
            "--keep-store" => keep_store = true,
            "--out" => {
                out = PathBuf::from(args.next().unwrap_or_else(|| die("--out needs a path")));
            }
            "--metrics" => fw_obs::set_enabled(true),
            "--trace" => fw_obs::set_trace_enabled(true),
            "--trace-out" => {
                trace_out = Some(PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| die("--trace-out needs a path")),
                ));
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: pipeline_gate [--scale <f64>] [--seed <u64>] [--gen-workers <n>] [--workers <n>] [--shards <n>] [--sample <f64>] [--store <dir>] [--keep-store] [--out <path>] [--metrics] [--trace] [--trace-out <path>]"
                );
                std::process::exit(0);
            }
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

    let gate_span = fw_obs::span("gate/pipeline");
    let total_start = Instant::now();
    let outcome = run_pipeline(
        scale,
        seed,
        gen_workers,
        workers,
        shards,
        sample,
        &store,
        cores,
    );
    let total_ms = total_start.elapsed().as_secs_f64() * 1e3;
    let rss = peak_rss_kb();

    // Manifest for kept stores, so figure binaries can `--snapshot` the
    // gate's output and verify its content hash.
    if let Err(e) = (SnapshotMeta {
        seed,
        scale,
        live: false,
        rows_fnv: outcome.rows_fnv,
    })
    .write(&store)
    {
        eprintln!("[meta] cannot write world.meta: {e}");
    }

    // Close the root span before draining so its End event is in the
    // dump (the drain also flushes this thread's buffer).
    drop(gate_span);
    let tracing = fw_obs::trace_enabled();
    let trace_path = trace_out.unwrap_or_else(|| {
        let stem = out.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
        out.with_file_name(format!("{stem}.trace.jsonl"))
    });
    let dump = if tracing {
        Some(fw_obs::drain_trace())
    } else {
        None
    };

    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64);
    let rss_json = |kb: Option<u64>| kb.map_or("null".to_string(), |kb| kb.to_string());

    // This run's history entry: the per-stage walls and throughput that
    // bench_regress compares, one compact object per run. Every `_ms`
    // key except `unix_ms`/`total_ms` reads as a stage name there, so
    // the entry carries exactly the stage walls and nothing else.
    let mut entry = format!(
        "{{\"unix_ms\": {unix_ms}, \"scale\": {scale}, \"seed\": {seed}, \"workers\": {workers}, \"total_ms\": {total_ms:.3}"
    );
    for s in &outcome.stages {
        entry.push_str(&format!(", \"{}_ms\": {:.3}", s.name, s.ms));
    }
    entry.push_str(&format!(
        ", \"rows\": {}, \"ingest_rows_per_sec\": {:.0}, \"peak_rss_kb\": {}}}",
        outcome.rows,
        outcome.rows_per_sec,
        rss_json(rss)
    ));
    let mut history = prior_history(&out);
    history.push(entry);
    if history.len() > HISTORY_CAP {
        let drop_n = history.len() - HISTORY_CAP;
        history.drain(..drop_n);
    }

    // Hand-rolled JSON: flat, no escaping needed for the values we emit.
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"config\": {{\"scale\": {scale}, \"seed\": {seed}, \"gen_workers\": {gen_workers}, \"workers\": {workers}, \"shards\": {shards}}},\n"
    ));
    json.push_str("  \"stages\": {\n");
    for (i, s) in outcome.stages.iter().enumerate() {
        let comma = if i + 1 == outcome.stages.len() {
            ""
        } else {
            ","
        };
        json.push_str(&format!(
            "    \"{}\": {{\"ms\": {:.3}, \"peak_rss_kb\": {}}}{comma}\n",
            s.name,
            s.ms,
            rss_json(s.peak_rss_kb)
        ));
    }
    json.push_str("  },\n");
    json.push_str("  \"ingest_shards\": [\n");
    for (i, sh) in outcome.shard_stats.iter().enumerate() {
        let comma = if i + 1 == outcome.shard_stats.len() {
            ""
        } else {
            ","
        };
        json.push_str(&format!(
            "    {{\"shard\": {}, \"fqdns\": {}, \"rows\": {}, \"flushes\": {}, \"flush_ms\": {:.3}, \"flush_p99_ms\": {:.3}, \"bytes_written\": {}, \"segments\": {}}}{comma}\n",
            sh.shard,
            sh.fqdns,
            sh.rows,
            sh.flushes,
            sh.flush_ns as f64 / 1e6,
            sh.flush_p99_ns as f64 / 1e6,
            sh.bytes_written,
            sh.segments
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"total_ms\": {total_ms:.3},\n"));
    json.push_str(&format!(
        "  \"ingest_wall_ms\": {:.3},\n",
        outcome.ingest_wall_ms
    ));
    json.push_str(&format!("  \"rows\": {},\n", outcome.rows));
    json.push_str(&format!("  \"fqdns\": {},\n", outcome.fqdns));
    json.push_str(&format!("  \"functions\": {},\n", outcome.functions));
    json.push_str(&format!("  \"identified\": {},\n", outcome.identified));
    json.push_str(&format!("  \"rows_fnv\": \"{:016x}\",\n", outcome.rows_fnv));
    json.push_str(&format!(
        "  \"figures_fnv\": \"{:016x}\",\n",
        outcome.figures_fnv
    ));
    json.push_str(&format!(
        "  \"ingest_rows_per_sec\": {:.0},\n",
        outcome.rows_per_sec
    ));
    json.push_str(&format!("  \"peak_rss_kb\": {},\n", rss_json(rss)));
    json.push_str("  \"history\": [\n");
    for (i, entry) in history.iter().enumerate() {
        let comma = if i + 1 == history.len() { "" } else { "," };
        json.push_str(&format!("    {entry}{comma}\n"));
    }
    json.push_str("  ]\n");
    json.push_str("}\n");
    std::fs::write(&out, &json)
        .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", out.display())));

    // The identity line is worker-count-independent by construction:
    // CI diffs it across worker counts and against the committed
    // baseline's hashes.
    println!(
        "pipeline identity: scale {scale} seed {seed} rows {} rows_fnv={:016x} figures_fnv={:016x}",
        outcome.rows, outcome.rows_fnv, outcome.figures_fnv
    );
    let stage_summary: Vec<String> = outcome
        .stages
        .iter()
        .map(|s| format!("{} {:.0}", s.name, s.ms))
        .collect();
    println!(
        "pipeline gate: scale {scale} seed {seed} total {total_ms:.0} ms ({}); report -> {}",
        stage_summary.join(" / "),
        out.display()
    );

    if let Some(dump) = &dump {
        if let Err(e) = std::fs::write(&trace_path, dump.to_jsonl()) {
            die(&format!("cannot write {}: {e}", trace_path.display()));
        }
        eprintln!(
            "[trace] {} events ({} dropped) -> {}",
            dump.events.len(),
            dump.dropped,
            trace_path.display()
        );
        emit_trace_reports(dump, &trace_path);
    }

    if store_dir.is_none() && !keep_store {
        let _ = std::fs::remove_dir_all(&store);
    }
    if fw_obs::enabled() {
        eprint!("{}", fw_obs::registry().render_text());
    }
}
