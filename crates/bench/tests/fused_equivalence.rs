//! The fused pipeline is a pure performance change: at the same
//! seed/scale it must produce the identical row content hash and the
//! identical figure digest as the in-memory batch pipeline —
//! `World::generate`, then the batch fold over the `PdnsStore` — at
//! every worker count, exact or sampled (DESIGN.md §16). Golden values
//! pin both paths, so they cannot drift together.

use fw_bench::fused::{figures_digest, run_fused, FusedOptions, FusedRun};
use fw_core::fold::measure;
use fw_core::pipeline::UsageReport;
use fw_store::{DiskStore, StoreConfig};
use fw_workload::{pdns_content_hash, World, WorldConfig};
use std::path::{Path, PathBuf};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("fw-fused-eq-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Pinned digests of one (seed, scale) usage world.
struct Golden {
    seed: u64,
    scale: f64,
    rows_fnv: u64,
    figures_fnv: u64,
    /// Figure digest of the usage tables sampled at rate 0.5.
    sampled_fnv: u64,
}

/// Values the disk-staged generate → ingest → scan → identify → usage
/// pipeline produced before it was retired.
const GOLDEN: [Golden; 2] = [
    Golden {
        seed: 7,
        scale: 0.003,
        rows_fnv: 0x3f27_67f4_dc99_842b,
        figures_fnv: 0x4f74_a88a_70eb_a7cc,
        sampled_fnv: 0x0c6e_0076_ad43_1084,
    },
    Golden {
        seed: 42,
        scale: 0.01,
        rows_fnv: 0x9eb4_8f31_6cf8_fdab,
        figures_fnv: 0xa965_e1f1_6688_0736,
        sampled_fnv: 0x15eb_965c_3afe_b530,
    },
];

fn usage_digest(usage: &UsageReport) -> u64 {
    figures_digest(&usage.identification, &usage.request_series, &usage.ingress)
}

fn fused_digest(run: &FusedRun) -> u64 {
    figures_digest(&run.report, &run.monthly, &run.ingress)
}

/// The in-memory batch reference: (rows_fnv, figures_fnv, sampled
/// figures_fnv).
fn batch_digests(config: WorldConfig) -> (u64, u64, u64) {
    let world = World::generate(config);
    (
        pdns_content_hash(&world.pdns),
        usage_digest(&measure(&world.pdns, 2, None).0),
        usage_digest(&measure(&world.pdns, 2, Some(0.5)).0),
    )
}

#[test]
fn batch_reference_matches_golden() {
    for g in &GOLDEN {
        assert_eq!(
            batch_digests(WorldConfig::usage(g.seed, g.scale)),
            (g.rows_fnv, g.figures_fnv, g.sampled_fnv),
            "seed {} scale {}",
            g.seed,
            g.scale
        );
    }
}

#[test]
fn fused_matches_batch_at_every_worker_count() {
    for g in &GOLDEN {
        for workers in [1usize, 4] {
            let dir = TempDir::new(&format!("{}-w{workers}", g.seed));
            let run = run_fused(
                WorldConfig::usage(g.seed, g.scale),
                dir.path(),
                &FusedOptions {
                    shards: 8,
                    workers,
                    sample: None,
                },
            )
            .expect("fused run");
            assert_eq!(
                run.rows_fnv, g.rows_fnv,
                "row content hash diverged: seed {} workers {workers}",
                g.seed
            );
            assert_eq!(
                fused_digest(&run),
                g.figures_fnv,
                "figure digest diverged: seed {} workers {workers}",
                g.seed
            );
            assert!(run.ingest_wall_ms > 0.0);
            assert_eq!(run.shard_stats.len(), 8);
            assert!(run
                .shard_stats
                .iter()
                .all(|s| s.flush_p99_ns > 0 || s.rows == 0));
        }
    }
}

#[test]
fn fused_sampled_matches_batch_sampled() {
    for g in &GOLDEN {
        let dir = TempDir::new(&format!("{}-sample", g.seed));
        let run = run_fused(
            WorldConfig::usage(g.seed, g.scale),
            dir.path(),
            &FusedOptions {
                shards: 8,
                workers: 4,
                sample: Some(0.5),
            },
        )
        .expect("fused sampled run");
        assert_eq!(run.rows_fnv, g.rows_fnv);
        let sampled = run.sampled.as_ref().expect("sampled summary present");
        assert!(sampled.sampled_functions <= sampled.total_functions);
        assert_eq!(
            fused_digest(&run),
            g.sampled_fnv,
            "sampled figure digest diverged: seed {}",
            g.seed
        );
    }
}

/// Sampling every function is the exact run: the sample decision, the
/// scaling and the scan driver's routing must all give way.
#[test]
fn fused_sampled_at_full_rate_is_exact() {
    let g = &GOLDEN[0];
    let dir = TempDir::new("full-rate");
    let run = run_fused(
        WorldConfig::usage(g.seed, g.scale),
        dir.path(),
        &FusedOptions {
            shards: 8,
            workers: 2,
            sample: Some(1.0),
        },
    )
    .expect("fused run at rate 1");
    let sampled = run.sampled.as_ref().expect("sampled summary present");
    assert_eq!(sampled.sampled_functions, sampled.total_functions);
    assert_eq!(run.rows_fnv, g.rows_fnv);
    assert_eq!(fused_digest(&run), g.figures_fnv);
}

/// The batch fold reads a `DiskStore` exactly as the `PdnsStore` its
/// rows came from, at every worker count, although the two tables split
/// a key's rows differently.
#[test]
fn batch_fold_over_disk_store_equals_memory_store() {
    let world = World::generate(WorldConfig::usage(7, 0.003));
    let dir = TempDir::new("disk-fold");
    let disk = DiskStore::create(
        dir.path(),
        StoreConfig {
            shards: 4,
            flush_rows: 0,
        },
    )
    .expect("create store");
    world
        .pdns
        .for_each_row(|fqdn, _rtype, rdata, day, cnt| disk.observe_count(fqdn, rdata, day, cnt));
    let memory = measure(&world.pdns, 1, None).0;
    assert!(memory.identification.functions.len() > 100);
    assert_eq!(usage_digest(&memory), GOLDEN[0].figures_fnv);
    for workers in [1, 3, 8] {
        assert_eq!(measure(&disk, workers, None).0, memory, "workers {workers}");
    }
}
