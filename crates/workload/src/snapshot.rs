//! Persisting a generated world's PDNS feed as an on-disk snapshot.
//!
//! Generating a calibrated world at scale takes minutes; the PDNS rows
//! it produces are deterministic for a `(seed, scale)` pair. A snapshot
//! streams those rows into an `fw-store` [`DiskStore`] once, as they
//! are generated, so every figure binary can reopen them read-only
//! (`--snapshot <dir>`) instead of regenerating the world.

use crate::{World, WorldConfig};
use fw_dns::pdns::PdnsBackend;
use fw_store::{DiskStore, StoreConfig, StoreError};
use fw_types::{DayStamp, Fqdn, Rdata};
use std::path::Path;

/// What [`write_snapshot`] wrote, for progress reporting.
#[derive(Debug, Clone)]
pub struct SnapshotStats {
    pub fqdns: usize,
    /// Distinct `(fqdn, rdata, pdate)` rows.
    pub rows: usize,
    pub shards: usize,
}

/// Sidecar manifest (`world.meta`) recording which world a snapshot was
/// cut from, so consumers can inherit the seed/scale instead of the
/// caller having to repeat them on every replay invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapshotMeta {
    pub seed: u64,
    pub scale: f64,
    /// Whether the source world was live-deployed (`WorldConfig::live`)
    /// or PDNS-only (`WorldConfig::usage`); the two flavors mint
    /// different fqdn populations at the same seed.
    pub live: bool,
    /// Commutative content hash of the saved rows (see
    /// [`pdns_content_hash`]); `0` for manifests written before the
    /// field existed. Lets replay consumers check a snapshot matches
    /// its source world without reading every segment.
    pub rows_fnv: u64,
}

/// FNV hash of one `(fqdn, rtype, rdata, pdate)` row key: the term
/// [`pdns_content_hash`] weights by the row's count. Scans that hash
/// rows as they stream past call it directly.
#[inline]
pub fn row_key_hash(fqdn: &Fqdn, rdata: &Rdata, pdate: DayStamp) -> u64 {
    let k = fw_types::fnv::fnv1a(fqdn.as_str().as_bytes());
    let k = fw_types::fnv::fold(k, rdata.rtype() as u64);
    let k = rdata.with_text(|text| fw_types::fnv::update(k, text.as_bytes()));
    fw_types::fnv::fold(k, pdate.0 as u64)
}

/// Order- and merge-insensitive content hash of a PDNS backend: each
/// row's [`row_key_hash`] is weighted by its count and summed with
/// wrapping addition. Splitting a key's count across rows (as the
/// in-memory store may) or visiting rows in a different order cannot
/// change the result, so the in-memory store and any on-disk copy of
/// it hash identically.
pub fn pdns_content_hash<B: PdnsBackend + ?Sized>(pdns: &B) -> u64 {
    let mut h = 0u64;
    pdns.for_each_row(&mut |fqdn, _rtype, rdata, pdate, cnt| {
        h = h.wrapping_add(row_key_hash(fqdn, rdata, pdate).wrapping_mul(cnt));
    });
    h
}

/// File name of the manifest inside a snapshot directory. The store
/// itself only reads the superblock and `shard-*` directories, so the
/// sidecar never interferes with segment I/O.
pub const META_FILE: &str = "world.meta";

impl SnapshotMeta {
    pub fn write(&self, dir: &Path) -> std::io::Result<()> {
        let text = format!(
            "seed={}\nscale={}\nlive={}\nrows_fnv={:016x}\n",
            self.seed, self.scale, self.live, self.rows_fnv
        );
        std::fs::write(dir.join(META_FILE), text)
    }

    /// Read the manifest; `None` if absent or malformed (a bare
    /// [`DiskStore`] has no manifest).
    pub fn read(dir: &Path) -> Option<SnapshotMeta> {
        let text = std::fs::read_to_string(dir.join(META_FILE)).ok()?;
        let (mut seed, mut scale, mut live, mut rows_fnv) = (None, None, None, None);
        for line in text.lines() {
            match line.split_once('=')? {
                ("seed", v) => seed = v.parse().ok(),
                ("scale", v) => scale = v.parse().ok(),
                ("live", v) => live = v.parse().ok(),
                ("rows_fnv", v) => rows_fnv = u64::from_str_radix(v, 16).ok(),
                _ => {}
            }
        }
        Some(SnapshotMeta {
            seed: seed?,
            scale: scale?,
            live: live?,
            rows_fnv: rows_fnv.unwrap_or(0),
        })
    }
}

/// Generate `config`'s world straight into a fresh [`DiskStore`] at
/// `dir` (fails if a store already exists there), seal it to one
/// sorted segment per shard, and write its [`SnapshotMeta`] manifest.
/// The rows are those of `World::generate(config).pdns`, merged on the
/// exact `(fqdn, rdata, pdate)` key, at any `gen_workers` count.
pub fn write_snapshot(config: WorldConfig, dir: &Path) -> Result<SnapshotStats, StoreError> {
    let store = DiskStore::create(
        dir,
        StoreConfig {
            // `seal` writes each shard's whole table once; threshold
            // writes would only encode segments for it to replace.
            flush_rows: 0,
            ..StoreConfig::default()
        },
    )?;
    let (seed, scale, live) = (config.seed, config.scale, config.deploy_live);
    World::generate_into(config, &store);
    let rows_fnv = pdns_content_hash(&store);
    store.seal()?;
    SnapshotMeta {
        seed,
        scale,
        live,
        rows_fnv,
    }
    .write(dir)?;
    Ok(SnapshotStats {
        fqdns: store.fqdn_count(),
        rows: store.record_count(),
        shards: store.shard_count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct TempDir(PathBuf);

    impl TempDir {
        fn new() -> TempDir {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let p = std::env::temp_dir().join(format!(
                "fw-workload-snap-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            TempDir(p)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn tiny_config() -> WorldConfig {
        WorldConfig::usage(7, 0.002)
    }

    #[test]
    fn snapshot_equals_live_store() {
        for config in [tiny_config(), WorldConfig::live(7, 0.002)] {
            let world = World::generate(config.clone());
            let dir = TempDir::new();
            let stats = write_snapshot(config, &dir.0).unwrap();
            assert!(stats.fqdns > 0);
            assert_eq!(stats.fqdns, world.pdns.fqdn_count());

            let disk = DiskStore::open_read_only(&dir.0).unwrap();
            assert_eq!(stats.shards, disk.shard_count());
            assert_eq!(stats.rows, disk.record_count());
            for shard in 0..disk.shard_count() {
                assert_eq!(disk.shard_stats(shard).segments, 1, "shard {shard}");
            }
            assert_eq!(disk.all_aggregates(), world.pdns.all_aggregates());
        }
    }

    #[test]
    fn reopening_is_deterministic() {
        let dir = TempDir::new();
        write_snapshot(tiny_config(), &dir.0).unwrap();
        let a = DiskStore::open_read_only(&dir.0).unwrap().all_aggregates();
        let b = DiskStore::open_read_only(&dir.0).unwrap().all_aggregates();
        assert_eq!(a, b);
    }

    #[test]
    fn manifest_roundtrips_world_identity() {
        let world = World::generate(tiny_config());
        let dir = TempDir::new();
        write_snapshot(tiny_config(), &dir.0).unwrap();
        let meta = SnapshotMeta::read(&dir.0).expect("manifest written");
        assert_eq!(
            meta,
            SnapshotMeta {
                seed: 7,
                scale: 0.002,
                live: false,
                rows_fnv: pdns_content_hash(&world.pdns),
            }
        );
        assert_ne!(meta.rows_fnv, 0);
        // The on-disk copy hashes identically although the in-memory
        // store splits some keys across rows and the store does not.
        let disk = DiskStore::open_read_only(&dir.0).unwrap();
        assert_eq!(pdns_content_hash(&disk), meta.rows_fnv);
    }

    #[test]
    fn refuses_to_overwrite_existing_snapshot() {
        let dir = TempDir::new();
        write_snapshot(tiny_config(), &dir.0).unwrap();
        assert!(matches!(
            write_snapshot(tiny_config(), &dir.0),
            Err(StoreError::AlreadyExists(_))
        ));
    }
}
