//! The fused streaming pipeline (DESIGN.md §16).
//!
//! The in-memory batch pipeline (`World::generate`, then the batch fold
//! over the `PdnsStore`) materializes the whole PDNS row set before
//! analyzing it. This module runs the same work as two overlapped
//! phases over the on-disk store:
//!
//! 1. **generate_ingest** — [`World::generate_into`] streams every
//!    sampled row straight into the [`DiskStore`] as generation runs,
//!    so the 1.8 GB in-memory `PdnsStore` never exists and the ingest
//!    wall is hidden inside the generate wall.
//! 2. **seal_analyze** — shard workers seal each store shard (its whole
//!    table as one segment), release its table, and stream that sorted
//!    segment back through the store's one segment reader into fw-core's
//!    [`BatchFold`]: each fqdn is classified once, its rows go to the
//!    fold's usage state if it is identified (and, under `--sample`, in
//!    the sample), and its aggregate goes to the shared
//!    [`IdentifyEngine`]. The scan driver keeps only the commutative
//!    `rows_fnv` content hash of its own. Shard `k+workers` is being
//!    sealed while shard `k` is being analyzed, so neither phase waits
//!    for the other to finish.
//!
//! The output is provably identical to the batch pipeline's: the row
//! multiset landing in the store is the same (the generator's RNG
//! streams never see the sink), both feed the same fold, whose every
//! accumulator is commutative and order-insensitive, and both finish
//! through [`finish`]. `tests/fused_equivalence.rs` compares `rows_fnv`
//! and [`figures_digest`] against the batch path and pins them to
//! golden values; CI checks `pipeline_gate`'s identity lines against
//! pinned values.

use crate::gate::peak_rss_kb;
use fw_analysis::par::fork;
use fw_core::fold::{finish, BatchFold, SampledUsage};
use fw_core::identify::{IdentificationReport, IdentifyEngine};
use fw_core::usage::{IngressRow, MonthlySeries, UsageState};
use fw_dns::pdns::PdnsBackend as _;
use fw_store::{scan_shard_visit, DiskStore, ShardIngestStats, StoreConfig, StoreError};
use fw_types::ProviderId;
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
    /// Approximate-usage sampling rate (`--sample`); `None` routes
    /// every identified function's rows. A sampled run routes only the
    /// sampled functions' rows, in the same scan, and releases every
    /// sealed shard table like the exact run.
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
    /// sampled estimates.
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

/// One worker's share of the sealed-shard sweep: the rows-fnv partial,
/// its usage state, and per-shard ingest/seal stats.
type WorkerPart = Result<(u64, UsageState, Vec<ShardIngestStats>), StoreError>;

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
            // No threshold writes: seal writes every shard's whole
            // table once, so a mid-ingest write would encode a segment
            // only for the seal to replace it unread. A write doesn't
            // evict the table, so skipping it costs no memory either.
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
    let engine = Mutex::new(IdentifyEngine::batch(1));
    let last_seal_ns = AtomicU64::new(0);

    let parts: Vec<WorkerPart> = fork(workers, "fused/seal_analyze", None, |w| {
        let mut worker_fnv = 0u64;
        let fold = RefCell::new(BatchFold::new(opts.sample));
        let mut worker_stats = Vec::new();
        for shard in (w..shard_count).step_by(workers) {
            store.seal_shard(shard)?;
            last_seal_ns.fetch_max(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            worker_stats.push(store.shard_stats(shard));
            // The scan re-reads the sealed segment from disk; the table
            // is dead weight.
            store.release_shard_table(shard);
            scan_shard_visit(
                store.dir(),
                shard,
                &mut |agg| fold.borrow_mut().aggregate(agg),
                Some(&mut |fqdn, rdata, day, cnt| {
                    // The `pdns_content_hash` term of this row.
                    let k = row_key_hash(fqdn, rdata, day);
                    worker_fnv = worker_fnv.wrapping_add(k.wrapping_mul(cnt));
                    fold.borrow_mut().row(fqdn, rdata, day, cnt);
                }),
            )?;
            fold.borrow_mut().absorb_into(&mut engine.lock());
        }
        Ok((worker_fnv, fold.into_inner().into_usage(), worker_stats))
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

    let (usage, sampled) = finish(engine.into_inner(), &usage, opts.sample);
    let seal_analyze_ms = seal_start.elapsed().as_secs_f64() * 1e3;

    Ok(FusedRun {
        world,
        report: usage.identification,
        monthly: usage.request_series,
        ingress: usage.ingress,
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
            h = rdata.with_text(|text| update(h, text.as_bytes()));
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
