//! The fused streaming pipeline (DESIGN.md §16).
//!
//! The in-memory batch pipeline (`World::generate` → identify → usage
//! sweeps) materializes the whole PDNS row set before analyzing it.
//! This module runs the same work as two overlapped phases over the
//! on-disk store:
//!
//! 1. **generate_ingest** — [`World::generate_into`] streams every
//!    sampled row straight into the [`DiskStore`] as generation runs,
//!    so the 1.8 GB in-memory `PdnsStore` never exists and the ingest
//!    wall is hidden inside the generate wall.
//! 2. **seal_analyze** — shard workers seal each store shard (its whole
//!    table as one segment) and immediately stream that sorted segment
//!    back through the mmap scan: rows feed a per-worker
//!    [`UsageState`] and the commutative `rows_fnv` content hash,
//!    per-fqdn aggregates feed the shared [`IdentifyEngine`] with the
//!    classification verdict computed exactly once at the scan site.
//!    Shard `k+workers` is being sealed while shard `k` is being
//!    analyzed, so neither phase waits for the other to finish.
//!
//! The output is provably identical to the batch pipeline's: the row
//! multiset landing in the store is the same (the generator's RNG
//! streams never see the sink), every accumulator downstream of the
//! scan is commutative and order-insensitive, and both finish through
//! the same report materializers. `tests/fused_equivalence.rs` compares
//! `rows_fnv` and [`figures_digest`] against the batch path and pins
//! them to golden values; CI checks `pipeline_gate`'s identity line
//! against the committed baseline.

use crate::gate::peak_rss_kb;
use fw_analysis::par::fork;
use fw_core::identify::{classify_fqdn, IdentificationReport, IdentifyEngine};
use fw_core::usage::{usage_sampled, IngressRow, MonthlySeries, SampledUsage, UsageState};
use fw_dns::pdns::{FqdnAggregate, PdnsBackend as _};
use fw_store::{scan_shard_visit, DiskStore, ShardIngestStats, StoreConfig, StoreError};
use fw_types::{Fqdn, ProviderId};
use fw_workload::{row_key_hash, FusedWorld, World, WorldConfig};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Knobs for one fused run.
#[derive(Debug, Clone)]
pub struct FusedOptions {
    /// Store shard count (also the unit of seal/analyze overlap).
    pub shards: usize,
    /// Seal/analyze worker threads (clamped to the shard count).
    pub workers: usize,
    /// Approximate-usage sampling rate (`--sample`); `None` runs the
    /// exact in-scan usage accumulation. Sampling keeps the shard
    /// tables resident (the sampled sweep reads them back), so it
    /// trades the fused pipeline's RSS win for sweep speed.
    pub sample: Option<f64>,
}

/// Everything a fused run produces, with the overlap accounting the
/// gate report needs.
pub struct FusedRun {
    pub world: FusedWorld,
    pub report: IdentificationReport,
    pub monthly: MonthlySeries,
    pub ingress: Vec<IngressRow>,
    /// Present iff `sample` was set; `monthly`/`ingress` then hold the
    /// scaled estimates from this sweep.
    pub sampled: Option<SampledUsage>,
    /// Distinct `(fqdn, rdata, pdate)` keys in the store.
    pub rows: usize,
    pub fqdns: usize,
    /// Commutative content hash of the scanned rows — equals
    /// `pdns_content_hash` of the same world's in-memory store.
    pub rows_fnv: u64,
    /// Per-shard ingest/flush accounting, captured at seal time
    /// (before any table release), sorted by shard index.
    pub shard_stats: Vec<ShardIngestStats>,
    /// Wall time of the fused generate+ingest phase.
    pub generate_ingest_ms: f64,
    /// Process RSS high-water mark (VmHWM, KiB) at the end of the
    /// generate+ingest phase — the headline memory number: an in-memory
    /// pipeline peaks here on the materialized row set.
    /// `None` off Linux.
    pub generate_ingest_rss_kb: Option<u64>,
    /// Wall time of the overlapped seal+analyze phase.
    pub seal_analyze_ms: f64,
    /// Pipeline start → last shard sealed: the interval during which
    /// rows were still becoming durable. `rows / ingest_wall` is the
    /// honest fused ingest throughput — the serial-stage formula
    /// (`rows / ingest_stage_ms`) has no meaning when ingest is hidden
    /// inside generation.
    pub ingest_wall_ms: f64,
}

/// Classification verdict for one fqdn: `None` if it matched no
/// provider pattern, else the provider and optional region.
type Verdict = Option<(ProviderId, Option<String>)>;

/// One worker's share of the sealed-shard sweep: the rows-fnv partial,
/// its usage accumulator, and per-shard ingest/seal stats.
type WorkerPart = Result<(u64, UsageState, Vec<ShardIngestStats>), StoreError>;

/// Mutable state shared by the row visitor and the aggregate visitor
/// of one shard scan (same thread, strictly alternating borrows).
struct ScanAcc {
    /// Current fqdn run and its classification verdict. The scan emits
    /// each fqdn's rows consecutively with the aggregate after the
    /// last row, so one cached verdict serves every row *and* the
    /// aggregate of a run.
    cur: Option<(Fqdn, Verdict)>,
    rows_fnv: u64,
    track_usage: bool,
    usage: UsageState,
    batch: Vec<(FqdnAggregate, Verdict)>,
}

/// Run the fused pipeline: generate `config`'s world straight into a
/// fresh store at `dir`, then seal and analyze its shards with
/// `opts.workers` overlapped workers.
pub fn run_fused(
    config: WorldConfig,
    dir: &Path,
    opts: &FusedOptions,
) -> Result<FusedRun, StoreError> {
    let _span = fw_obs::span("fused/pipeline");
    let t0 = Instant::now();
    let store = DiskStore::create(
        dir,
        StoreConfig {
            shards: opts.shards,
            // No threshold flushes: seal rewrites every shard from its
            // in-memory table as one terminal segment, so mid-ingest
            // segments would be encoded, written, and then deleted
            // without ever being read. Flushing doesn't evict the
            // table, so skipping it costs no memory either.
            flush_rows: 0,
        },
    )?;

    let world = {
        let _s = fw_obs::span("fused/generate_ingest");
        World::generate_into(config, &store)
    };
    let generate_ingest_ms = t0.elapsed().as_secs_f64() * 1e3;
    let generate_ingest_rss_kb = peak_rss_kb();
    let rows = store.record_count();
    let fqdns = store.fqdn_count();

    let seal_start = Instant::now();
    let shard_count = store.shard_count();
    let workers = opts.workers.clamp(1, shard_count);
    let track_usage = opts.sample.is_none();
    let engine = Mutex::new(IdentifyEngine::batch(1));
    let last_seal_ns = AtomicU64::new(0);

    let parts: Vec<WorkerPart> = fork(workers, "fused/seal_analyze", None, |w| {
        let mut worker_fnv = 0u64;
        let mut worker_usage = UsageState::new();
        let mut worker_stats = Vec::new();
        for shard in (w..shard_count).step_by(workers) {
            store.seal_shard(shard)?;
            last_seal_ns.fetch_max(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            worker_stats.push(store.shard_stats(shard));
            if track_usage {
                // The scan re-reads the sealed segment from disk; the
                // table is dead weight.
                store.release_shard_table(shard);
            }
            let acc = RefCell::new(ScanAcc {
                cur: None,
                rows_fnv: 0,
                track_usage,
                usage: UsageState::new(),
                batch: Vec::new(),
            });
            scan_shard_visit(
                store.dir(),
                shard,
                &mut |agg| {
                    let mut a = acc.borrow_mut();
                    let verdict = match &a.cur {
                        Some((f, v)) if *f == agg.fqdn => v.clone(),
                        _ => classify_fqdn(&agg.fqdn),
                    };
                    a.batch.push((agg, verdict));
                },
                Some(&mut |fqdn, rdata, day, cnt| {
                    let mut a = acc.borrow_mut();
                    if a.cur.as_ref().is_none_or(|(f, _)| f != fqdn) {
                        a.cur = Some((fqdn.clone(), classify_fqdn(fqdn)));
                    }
                    // The `pdns_content_hash` term of this row.
                    let k = row_key_hash(fqdn, rdata, day);
                    a.rows_fnv = a.rows_fnv.wrapping_add(k.wrapping_mul(cnt));
                    if a.track_usage {
                        if let Some((_, Some((provider, _)))) = &a.cur {
                            let provider = *provider;
                            a.usage.apply(provider, rdata.rtype(), rdata, day, cnt);
                        }
                    }
                }),
            )?;
            let acc = acc.into_inner();
            worker_fnv = worker_fnv.wrapping_add(acc.rows_fnv);
            worker_usage.merge(acc.usage);
            let mut engine = engine.lock();
            for (agg, verdict) in acc.batch {
                engine.absorb_classified(agg, verdict);
            }
        }
        Ok((worker_fnv, worker_usage, worker_stats))
    });

    let mut rows_fnv = 0u64;
    let mut usage = UsageState::new();
    let mut shard_stats = Vec::new();
    for part in parts {
        let (fnv, part_usage, stats) = part?;
        rows_fnv = rows_fnv.wrapping_add(fnv);
        usage.merge(part_usage);
        shard_stats.extend(stats);
    }
    shard_stats.sort_by_key(|s| s.shard);

    let report = engine.into_inner().into_report();
    let (monthly, ingress, sampled) = match opts.sample {
        None => (usage.monthly_series(), usage.ingress_rows(&report), None),
        Some(rate) => {
            let s = {
                let _s = fw_obs::span("fused/usage_sampled");
                usage_sampled(&report, &store, workers, rate)
            };
            (s.monthly.clone(), s.ingress.clone(), Some(s))
        }
    };
    let seal_analyze_ms = seal_start.elapsed().as_secs_f64() * 1e3;

    Ok(FusedRun {
        world,
        report,
        monthly,
        ingress,
        sampled,
        rows,
        fqdns,
        rows_fnv,
        shard_stats,
        generate_ingest_ms,
        generate_ingest_rss_kb,
        seal_analyze_ms,
        ingest_wall_ms: last_seal_ns.load(Ordering::Relaxed) as f64 / 1e6,
    })
}

/// Order-insensitive digest of everything the figure binaries would
/// print from a pipeline run: the identification report, the Figure 4
/// monthly series, and the Table 2 ingress rows (f64 cells hashed by
/// bit pattern — the fused and batch pipelines both reduce sorted count
/// multisets, so equal inputs give bit-equal floats). `pipeline_gate`
/// prints it on stdout; CI diffs it across worker counts and against
/// the committed baseline.
pub fn figures_digest(
    report: &IdentificationReport,
    monthly: &MonthlySeries,
    ingress: &[IngressRow],
) -> u64 {
    use fw_types::fnv::{fnv1a, fold, update};
    let mut h = fnv1a(b"fw-figures-v1");
    h = fold(h, report.functions.len() as u64);
    h = fold(h, report.unmatched);
    h = fold(h, report.total_requests);
    for f in &report.functions {
        h = update(h, f.fqdn.as_str().as_bytes());
        h = fold(h, f.provider as u64);
        h = update(h, f.region.as_deref().unwrap_or("-").as_bytes());
        h = fold(h, f.agg.total_request_cnt);
        h = fold(h, f.agg.first_seen_all.0 as u64);
        h = fold(h, f.agg.last_seen_all.0 as u64);
        h = fold(h, u64::from(f.agg.days_count));
        h = fold(h, f.agg.rdata_dist.len() as u64);
        for (rdata, cnt) in &f.agg.rdata_dist {
            h = update(h, rdata.text().as_bytes());
            h = fold(h, *cnt);
        }
    }
    for m in &monthly.months {
        h = fold(h, m.year as u64);
        h = fold(h, u64::from(m.month));
    }
    for provider in ProviderId::ALL {
        let Some(series) = monthly.per_provider.get(&provider) else {
            continue;
        };
        h = fold(h, provider as u64);
        for v in series {
            h = fold(h, *v);
        }
    }
    for row in ingress {
        h = fold(h, row.provider as u64);
        h = fold(h, row.domains);
        h = fold(h, row.total_requests);
        h = fold(h, row.regions);
        for share in [row.rtype_share.0, row.rtype_share.1, row.rtype_share.2] {
            h = fold(h, share.to_bits());
        }
        for cnt in [row.rdata_cnt.0, row.rdata_cnt.1, row.rdata_cnt.2] {
            h = fold(h, cnt);
        }
        for top in [row.top10.0, row.top10.1, row.top10.2] {
            h = fold(h, top.to_bits());
        }
        for e in [row.entropy_bits.0, row.entropy_bits.1, row.entropy_bits.2] {
            h = fold(h, e.to_bits());
        }
    }
    h
}
