//! The fused pipeline is a pure performance change: at the same
//! seed/scale it must produce the identical row content hash and the
//! identical figure digest as the in-memory batch pipeline —
//! `World::generate`, then identify and the usage sweeps over the
//! `PdnsStore` — at every worker count, exact or sampled (DESIGN.md
//! §16). Golden values pin both paths, so they cannot drift together.

use fw_bench::fused::{figures_digest, run_fused, FusedOptions};
use fw_core::identify::identify_functions_with;
use fw_core::usage::{ingress_table_with, monthly_requests_with, usage_sampled};
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
    /// Figure digest of the usage sweep sampled at rate 0.5.
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

/// The in-memory batch reference: (rows_fnv, figures_fnv, sampled
/// figures_fnv).
fn batch_digests(config: WorldConfig) -> (u64, u64, u64) {
    let world = World::generate(config);
    let report = identify_functions_with(&world.pdns, 2);
    let monthly = monthly_requests_with(&report, &world.pdns, 2);
    let ingress = ingress_table_with(&report, &world.pdns, 2);
    let sampled = usage_sampled(&report, &world.pdns, 2, 0.5);
    (
        pdns_content_hash(&world.pdns),
        figures_digest(&report, &monthly, &ingress),
        figures_digest(&report, &sampled.monthly, &sampled.ingress),
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
                figures_digest(&run.report, &run.monthly, &run.ingress),
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
            figures_digest(&run.report, &run.monthly, &run.ingress),
            g.sampled_fnv,
            "sampled figure digest diverged: seed {}",
            g.seed
        );
    }
}
