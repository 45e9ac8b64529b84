//! `pipeline_full`: the fused generate → ingest → seal → scan →
//! identify → usage job (`fw_bench::fused::run_fused`) plus the figures
//! digest. Untraced iterations call `run_fused` itself; the traced
//! iteration makes the same public calls in the same order, each
//! wrapped in a benchmark-owned timer, and must reproduce the untraced
//! `rows_fnv` / `figures_fnv`.

use crate::measure::{measure_loop, measure_setups, nproc, percentile_sorted, phase, Phase};
use crate::report::{Checks, Hex, Layer, Outcome};
use crate::RunConfig;
use fw_bench::fused::{figures_digest, run_fused, FusedOptions};
use fw_core::identify::{classify_fqdn, IdentifyEngine};
use fw_core::usage::UsageState;
use fw_dns::pdns::{FqdnAggregate, PdnsBackend as _};
use fw_store::{scan_shard_visit, DiskStore, StoreConfig};
use fw_types::{Fqdn, ProviderId};
use fw_workload::{World, WorldConfig};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// World scale of one iteration.
pub const SCALE: f64 = 0.25;
const SHARDS: usize = 16;
/// Pinned outputs at `SCALE`, seed 42 (as printed by `pipeline_gate`).
const PINNED_SEED: u64 = 42;
const PINNED_ROWS: usize = 683_270;
const PINNED_ROWS_FNV: u64 = 0x5df1_4d40_7ff4_03c3;
const PINNED_FIGURES_FNV: u64 = 0x9780_01f6_e46d_8fbb;

/// What one pipeline iteration must agree on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Identity {
    rows: usize,
    rows_fnv: u64,
    figures_fnv: u64,
}

fn world_config(seed: u64) -> WorldConfig {
    WorldConfig {
        gen_workers: nproc(),
        ..WorldConfig::usage(seed, SCALE)
    }
}

fn store_config() -> StoreConfig {
    // The same configuration `run_fused` creates its store with.
    StoreConfig {
        shards: SHARDS,
        flush_rows: 0,
    }
}

/// One untraced iteration: `run_fused` + `figures_digest`.
fn untraced(seed: u64, dir: &Path) -> Result<(Identity, Phase), String> {
    let opts = FusedOptions {
        shards: SHARDS,
        workers: nproc(),
        sample: None,
    };
    let (out, ph) = phase(|| {
        run_fused(world_config(seed), dir, &opts).map(|run| Identity {
            rows: run.rows,
            rows_fnv: run.rows_fnv,
            figures_fnv: figures_digest(&run.report, &run.monthly, &run.ingress),
        })
    });
    let _ = std::fs::remove_dir_all(dir);
    out.map(|id| (id, ph))
        .map_err(|e| format!("fused run failed: {e}"))
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let base = cfg.work_dir.join("pipeline");
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).map_err(|e| format!("{}: {e}", base.display()))?;
    let result = if cfg.trace {
        run_traced(cfg, &base)
    } else {
        run_untraced(cfg, &base)
    };
    let _ = std::fs::remove_dir_all(&base);
    result
}

fn check_identity(checks: &mut Checks, seed: u64, reference: &Identity, id: &Identity) {
    checks.expect_eq("identity vs first iteration", id, reference);
    if seed == PINNED_SEED {
        checks.expect_eq("rows (pinned)", id.rows, PINNED_ROWS);
        checks.expect_eq("rows_fnv (pinned)", Hex(id.rows_fnv), Hex(PINNED_ROWS_FNV));
        checks.expect_eq(
            "figures_fnv (pinned)",
            Hex(id.figures_fnv),
            Hex(PINNED_FIGURES_FNV),
        );
    }
}

/// The set-up of `pipeline_full` is its cold start: the first
/// `run_fused` + `figures_digest` in a fresh process, which pays lazy
/// initialisation and the first growth of the heap. Nothing else comes
/// before the measured phase (`run_fused` creates its own empty store),
/// and the measured iterations that follow run warm.
fn run_untraced(cfg: &RunConfig, base: &Path) -> Result<Outcome, String> {
    let mut cold = None;
    let setups = measure_setups(1, || {
        let (id, ph) = untraced(cfg.seed, &base.join("cold"))?;
        cold = Some(id);
        Ok(ph)
    })?;
    let reference = cold.expect("one set-up");
    let runs = measure_loop("iteration", cfg.seconds, 2, |i| {
        untraced(cfg.seed, &base.join(format!("run-{i}")))
    })?;
    let mut checks = Checks::default();
    check_identity(&mut checks, cfg.seed, &reference, &reference);
    for (id, _) in &runs {
        check_identity(&mut checks, cfg.seed, &reference, id);
    }
    let mut out = Outcome::new(checks);
    let measured: Vec<(u64, Phase)> = runs.iter().map(|(id, p)| (id.rows as u64, *p)).collect();
    out.end_to_end(&setups, &measured);
    knobs(&mut out);
    Ok(out)
}

fn knobs(out: &mut Outcome) {
    out.knob("scale", SCALE);
    out.knob("shards", SHARDS);
    out.knob("gen_workers", nproc());
    out.knob("seal_workers", nproc());
}

/// Per-worker busy time, split by layer.
#[derive(Default)]
struct WorkerTimes {
    seal: Duration,
    seal_each: Vec<f64>,
    scan_total: Duration,
    classify: Duration,
    classify_calls: u64,
    usage_apply: Duration,
    row_hash: Duration,
    merge: Duration,
    lock_wait: Duration,
    absorb: Duration,
    bytes: u64,
    busy: Duration,
}

/// Classification verdict for one fqdn (as `classify_fqdn` returns it).
type Verdict = Option<(ProviderId, Option<String>)>;

/// Scan-time state shared by the row and aggregate visitors of one
/// shard (the same shape `run_fused` keeps).
struct ScanAcc<'t> {
    cur: Option<(Fqdn, Verdict)>,
    rows_fnv: u64,
    usage: UsageState,
    batch: Vec<(FqdnAggregate, Verdict)>,
    times: &'t mut WorkerTimes,
}

/// A traced iteration's output: its identity, layer rows, and the
/// per-layer metrics that are not busy times.
type TracedIteration = (Identity, Vec<Layer>, Vec<(&'static str, f64)>);

fn timed_classify(times: &mut WorkerTimes, fqdn: &Fqdn) -> Verdict {
    let t = Instant::now();
    let v = classify_fqdn(fqdn);
    times.classify += t.elapsed();
    times.classify_calls += 1;
    v
}

/// The traced iteration: `run_fused`'s calls, each timed.
fn traced_iteration(seed: u64, dir: &Path) -> Result<TracedIteration, String> {
    let err = |e: fw_store::StoreError| e.to_string();
    let store = DiskStore::create(dir, store_config()).map_err(err)?;
    let t = Instant::now();
    let _world = World::generate_into(world_config(seed), &store);
    let generate_ingest = t.elapsed();
    let rows = store.record_count();
    let fqdns = store.fqdn_count();

    let workers = nproc().clamp(1, SHARDS);
    let engine = Mutex::new(IdentifyEngine::batch(1));
    type Part = Result<(u64, UsageState, WorkerTimes), String>;
    let parts: Vec<Part> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let store = &store;
                let engine = &engine;
                scope.spawn(move || -> Part {
                    let start = Instant::now();
                    let mut times = WorkerTimes::default();
                    let mut worker_fnv = 0u64;
                    let mut worker_usage = UsageState::new();
                    for shard in (w..SHARDS).step_by(workers) {
                        let t = Instant::now();
                        store.seal_shard(shard).map_err(err)?;
                        times.bytes += store.shard_stats(shard).bytes_written;
                        store.release_shard_table(shard);
                        let sealed = t.elapsed();
                        times.seal += sealed;
                        times.seal_each.push(sealed.as_secs_f64() * 1e3);

                        let acc = RefCell::new(ScanAcc {
                            cur: None,
                            rows_fnv: 0,
                            usage: UsageState::new(),
                            batch: Vec::new(),
                            times: &mut times,
                        });
                        let t = Instant::now();
                        scan_shard_visit(
                            store.dir(),
                            shard,
                            &mut |agg| {
                                let a = &mut *acc.borrow_mut();
                                let verdict = match &a.cur {
                                    Some((f, v)) if *f == agg.fqdn => v.clone(),
                                    _ => timed_classify(a.times, &agg.fqdn),
                                };
                                a.batch.push((agg, verdict));
                            },
                            Some(&mut |fqdn, rdata, day, cnt| {
                                let a = &mut *acc.borrow_mut();
                                if a.cur.as_ref().is_none_or(|(f, _)| f != fqdn) {
                                    let v = timed_classify(a.times, fqdn);
                                    a.cur = Some((fqdn.clone(), v));
                                }
                                let t = Instant::now();
                                let mut k = fw_types::fnv::fnv1a(fqdn.as_str().as_bytes());
                                k = fw_types::fnv::fold(k, rdata.rtype() as u64);
                                k = rdata.with_text(|s| fw_types::fnv::update(k, s.as_bytes()));
                                k = fw_types::fnv::fold(k, day.0 as u64);
                                a.rows_fnv = a.rows_fnv.wrapping_add(k.wrapping_mul(cnt));
                                let hashed = Instant::now();
                                a.times.row_hash += hashed - t;
                                if let Some((_, Some((provider, _)))) = &a.cur {
                                    let provider = *provider;
                                    a.usage.apply(provider, rdata.rtype(), rdata, day, cnt);
                                    a.times.usage_apply += hashed.elapsed();
                                }
                            }),
                        )
                        .map_err(err)?;
                        let scan_wall = t.elapsed();
                        let acc = acc.into_inner();
                        acc.times.scan_total += scan_wall;
                        worker_fnv = worker_fnv.wrapping_add(acc.rows_fnv);
                        let t = Instant::now();
                        worker_usage.merge(acc.usage);
                        acc.times.merge += t.elapsed();
                        let t = Instant::now();
                        let mut engine = engine.lock().expect("engine lock");
                        acc.times.lock_wait += t.elapsed();
                        let t = Instant::now();
                        for (agg, verdict) in acc.batch {
                            engine.absorb_classified(agg, verdict);
                        }
                        acc.times.absorb += t.elapsed();
                    }
                    times.busy = start.elapsed() - times.lock_wait;
                    Ok((worker_fnv, worker_usage, times))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("seal/analyze workers do not panic"))
            .collect()
    });

    let mut rows_fnv = 0u64;
    let mut usage = UsageState::new();
    let mut all = WorkerTimes::default();
    let mut busy: Vec<f64> = Vec::new();
    for part in parts {
        let (fnv, part_usage, t) = part?;
        rows_fnv = rows_fnv.wrapping_add(fnv);
        let m = Instant::now();
        usage.merge(part_usage);
        all.merge += m.elapsed();
        all.seal += t.seal;
        all.seal_each.extend(t.seal_each);
        all.scan_total += t.scan_total;
        all.classify += t.classify;
        all.classify_calls += t.classify_calls;
        all.usage_apply += t.usage_apply;
        all.row_hash += t.row_hash;
        all.merge += t.merge;
        all.lock_wait += t.lock_wait;
        all.absorb += t.absorb;
        all.bytes += t.bytes;
        busy.push(t.busy.as_secs_f64());
    }
    let t = Instant::now();
    let report = engine.into_inner().expect("engine lock").into_report();
    let report_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let monthly = usage.monthly_series();
    let ingress = usage.ingress_rows(&report);
    let materialize_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let figures_fnv = figures_digest(&report, &monthly, &ingress);
    let digest_s = t.elapsed().as_secs_f64();

    // Visitor time sits inside `scan_shard_visit`; the store's own scan
    // cost (mmap, CRC, varint decode) is what remains.
    let visitors = all.classify + all.usage_apply + all.row_hash;
    let scan_s = all.scan_total.saturating_sub(visitors).as_secs_f64();
    all.seal_each.sort_by(f64::total_cmp);
    let w = workers as f64;
    let layer = |name, busy_s, threads, moves| Layer {
        name,
        busy_s,
        threads,
        moves,
    };
    let layers = vec![
        layer(
            "workload.generate_ingest_s",
            generate_ingest.as_secs_f64(),
            1.0,
            "wall_s",
        ),
        layer("store.seal_s", all.seal.as_secs_f64(), w, "wall_s cpu_s"),
        layer("store.scan_s", scan_s, w, "wall_s cpu_s"),
        layer(
            "identify.classify_s",
            all.classify.as_secs_f64(),
            w,
            "cpu_s",
        ),
        layer(
            "pipeline.row_hash_s",
            all.row_hash.as_secs_f64(),
            w,
            "wall_s",
        ),
        layer("usage.apply_s", all.usage_apply.as_secs_f64(), w, "wall_s"),
        layer("usage.merge_s", all.merge.as_secs_f64(), w, "wall_s"),
        layer(
            "identify.lock_wait_s",
            all.lock_wait.as_secs_f64(),
            w,
            "wall_s",
        ),
        layer("identify.absorb_s", all.absorb.as_secs_f64(), w, "wall_s"),
        layer("identify.report_s", report_s, 1.0, "wall_s"),
        layer("usage.materialize_s", materialize_s, 1.0, "wall_s"),
        layer("pipeline.digest_s", digest_s, 1.0, "wall_s"),
    ];
    let max = busy.iter().copied().fold(0.0, f64::max);
    let min = busy.iter().copied().fold(f64::INFINITY, f64::min);
    let extra = vec![
        ("store.seal_p99_ms", percentile_sorted(&all.seal_each, 99.0)),
        ("store.bytes_per_row", all.bytes as f64 / rows.max(1) as f64),
        (
            "identify.classify_per_fqdn",
            all.classify_calls as f64 / fqdns.max(1) as f64,
        ),
        ("pipeline.worker_skew", max / min.max(1e-9)),
    ];
    Ok((
        Identity {
            rows,
            rows_fnv,
            figures_fnv,
        },
        layers,
        extra,
    ))
}

fn run_traced(cfg: &RunConfig, base: &Path) -> Result<Outcome, String> {
    let (reference, untraced_phase) = untraced(cfg.seed, &base.join("untraced"))?;
    let dir: PathBuf = base.join("traced");
    let (traced, ph) = phase(|| traced_iteration(cfg.seed, &dir));
    let _ = std::fs::remove_dir_all(&dir);
    let (id, layers, extra) = traced?;
    let mut checks = Checks::default();
    check_identity(&mut checks, cfg.seed, &reference, &id);
    let mut out = Outcome::new(checks);
    out.attempted = (reference.rows + id.rows) as u64;
    out.traced(&ph, untraced_phase.wall_s, layers);
    for (name, v) in extra {
        out.set(name, v);
    }
    knobs(&mut out);
    Ok(out)
}
