//! # fw-store
//!
//! Persistent, sharded storage engine for PDNS daily-aggregate rows —
//! the ingest-once / query-many substrate that lets figure binaries
//! replay a snapshot instead of regenerating a synthetic world
//! (DESIGN.md §9).
//!
//! Three layers:
//!
//! * The immutable segment file (`segment.rs` has the byte layout):
//!   CRC-checksummed blocks of delta-encoded rows over per-segment
//!   dictionaries. [`SegmentBuilder`] is its one writer; one checked
//!   row loop, walked by reopen and the scan alike, is its one reader.
//! * [`DiskStore`] — N hash-sharded, lock-striped in-memory tables, each
//!   with one segment file on disk. `seal`, the one write (also taken
//!   automatically at the `flush_rows` threshold), encodes a shard's
//!   whole table into a temp file and renames it over the shard's
//!   segment, so a crash leaves the old segment or the new one.
//!   Reopening reads each segment back and reproduces identical
//!   [`fw_dns::pdns::FqdnAggregate`]s; [`scan_shard_visit`] streams a
//!   shard without building the table at all.
//! * [`fw_dns::pdns::PdnsBackend`] — the storage trait the measurement
//!   pipeline consumes; `DiskStore` and the in-memory `PdnsStore` are
//!   interchangeable behind it.
//!
//! Everything is `std`-only. Telemetry (`fw.store.*` counters and the
//! `fw.store.flush_us` histogram) flows through `fw-obs` and is inert
//! unless metrics are enabled.

pub mod codec;
mod crc;
mod scan;
mod segment;
mod store;

pub use crc::crc32;
pub use scan::{scan_shard_visit, RowVisitor};
pub use segment::SegmentBuilder;
pub use store::{DiskStore, ShardIngestStats};

use std::path::PathBuf;

/// Tuning knobs for [`DiskStore::create`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Number of hash shards (lock stripes / segment directories).
    pub shards: usize,
    /// Seal a shard again once it holds this many observations since
    /// its last write (0 disables the threshold; `seal` stays explicit).
    pub flush_rows: usize,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            shards: 16,
            flush_rows: 1 << 16,
        }
    }
}

/// Everything that can go wrong talking to a store.
#[derive(Debug)]
pub enum StoreError {
    Io(std::io::Error),
    /// Structural damage: bad magic, CRC mismatch, truncation,
    /// out-of-range indices.
    Corrupt(String),
    /// Format version from a different (future) build.
    Version {
        found: u64,
        expected: u64,
    },
    /// `create` refused to clobber an existing store.
    AlreadyExists(PathBuf),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt store data: {msg}"),
            StoreError::Version { found, expected } => {
                write!(
                    f,
                    "store format version {found}, this build reads {expected}"
                )
            }
            StoreError::AlreadyExists(dir) => {
                write!(f, "store already exists at {}", dir.display())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_dns::pdns::{PdnsBackend, PdnsStore};
    use fw_types::{DayStamp, Fqdn, Rdata, MEASUREMENT_START};
    use std::net::Ipv4Addr;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn fq(s: &str) -> Fqdn {
        Fqdn::parse(s).unwrap()
    }

    fn v4(a: u8, b: u8) -> Rdata {
        Rdata::V4(Ipv4Addr::new(198, 51, a, b))
    }

    fn day(n: i64) -> DayStamp {
        MEASUREMENT_START + n
    }

    /// Unique scratch directory per test invocation, removed on drop.
    pub(crate) struct TempDir(pub PathBuf);

    impl TempDir {
        pub(crate) fn new(tag: &str) -> TempDir {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "fw-store-test-{}-{tag}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = std::fs::remove_dir_all(&dir);
            TempDir(dir)
        }

        pub(crate) fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn small_config() -> StoreConfig {
        StoreConfig {
            shards: 4,
            flush_rows: 0,
        }
    }

    /// The store's segment files. Each must be its shard's one
    /// `seg-00000001.fws` (no temp file either), so the count is the
    /// number of shards written.
    fn segment_files(dir: &Path) -> Vec<PathBuf> {
        let mut out = Vec::new();
        for shard in std::fs::read_dir(dir).unwrap() {
            let shard = shard.unwrap().path();
            if !shard.is_dir() {
                continue;
            }
            for f in std::fs::read_dir(&shard).unwrap() {
                let f = f.unwrap().path();
                let name = f.file_name().unwrap().to_string_lossy().into_owned();
                if name.ends_with(".fws") {
                    assert_eq!(name, "seg-00000001.fws", "in {}", shard.display());
                    out.push(f);
                }
            }
        }
        out
    }

    #[test]
    fn create_seal_reopen_preserves_aggregates() {
        let tmp = TempDir::new("roundtrip");
        let store = DiskStore::create(tmp.path(), small_config()).unwrap();
        store.observe_count(&fq("a.on.aws"), &v4(100, 1), day(0), 5);
        store.observe_count(&fq("a.on.aws"), &v4(100, 1), day(0), 2);
        store.observe_count(&fq("a.on.aws"), &v4(100, 2), day(3), 1);
        store.observe_count(
            &fq("b.lambda-url.us-east-1.on.aws"),
            &v4(100, 3),
            day(10),
            9,
        );
        assert_eq!(store.fqdn_count(), 2);
        assert_eq!(store.record_count(), 3);
        let before = store.all_aggregates();
        store.seal().unwrap();
        drop(store);

        let reopened = DiskStore::open_read_only(tmp.path()).unwrap();
        assert_eq!(reopened.fqdn_count(), 2);
        assert_eq!(reopened.record_count(), 3);
        assert_eq!(reopened.all_aggregates(), before);
        let agg = reopened.aggregate(&fq("a.on.aws")).unwrap();
        assert_eq!(agg.total_request_cnt, 8);
        assert_eq!(agg.days_count, 2);
    }

    #[test]
    fn writes_after_seal_merge_into_one_segment() {
        let tmp = TempDir::new("deltas");
        let store = DiskStore::create(tmp.path(), small_config()).unwrap();
        store.observe_count(&fq("x.on.aws"), &v4(1, 1), day(0), 10);
        store.seal().unwrap();
        // Same key again after the seal: the next seal rewrites the
        // shard's one segment with the merged count.
        store.observe_count(&fq("x.on.aws"), &v4(1, 1), day(0), 7);
        store.observe_count(&fq("x.on.aws"), &v4(1, 2), day(1), 1);
        store.seal().unwrap();
        drop(store);
        assert_eq!(segment_files(tmp.path()).len(), 1);

        let reopened = DiskStore::open(tmp.path()).unwrap();
        let agg = reopened.aggregate(&fq("x.on.aws")).unwrap();
        assert_eq!(agg.total_request_cnt, 18);
        assert_eq!(reopened.record_count(), 2);
        let dist: u64 = agg
            .rdata_dist
            .iter()
            .filter(|(r, _)| *r == v4(1, 1))
            .map(|(_, c)| *c)
            .sum();
        assert_eq!(dist, 17);
    }

    #[test]
    fn repeated_seals_keep_one_segment_and_content() {
        let tmp = TempDir::new("seal");
        let store = DiskStore::create(
            tmp.path(),
            StoreConfig {
                shards: 2,
                flush_rows: 0,
            },
        )
        .unwrap();
        for round in 0..5i64 {
            for i in 0..20u8 {
                store.observe_count(&fq(&format!("f{i}.on.aws")), &v4(2, i), day(round), 1);
            }
            store.seal().unwrap();
            assert_eq!(segment_files(tmp.path()).len(), 2, "one segment per shard");
        }
        // Unwritten rows on top of the segments: some merge into written
        // keys, some are new keys.
        for i in 0..20u8 {
            store.observe_count(&fq(&format!("f{i}.on.aws")), &v4(2, i), day(0), 2);
            store.observe_count(&fq(&format!("g{i}.on.aws")), &v4(4, i), day(9), 1);
        }
        let before = store.all_aggregates();
        let rows = store.record_count();
        store.seal().unwrap();
        assert_eq!(segment_files(tmp.path()).len(), 2, "one segment per shard");
        assert_eq!(store.all_aggregates(), before);
        drop(store);
        let reopened = DiskStore::open(tmp.path()).unwrap();
        assert_eq!(reopened.record_count(), rows);
        assert_eq!(reopened.all_aggregates(), before);
    }

    #[test]
    fn threshold_write_kicks_in() {
        let tmp = TempDir::new("autoflush");
        let store = DiskStore::create(
            tmp.path(),
            StoreConfig {
                shards: 1,
                flush_rows: 10,
            },
        )
        .unwrap();
        let hot = fq("hot.on.aws");
        for i in 0..25i64 {
            store.observe_count(&hot, &v4(3, 1), day(i), 1);
        }
        // Threshold writes at the 10th and 20th observations; the last
        // five wait for the seal.
        assert_eq!(store.shard_stats(0).flushes, 2);
        let on_disk = DiskStore::open_read_only(tmp.path()).unwrap();
        assert_eq!(on_disk.aggregate(&hot).unwrap().days_count, 20);
        store.seal().unwrap();
        assert_eq!(segment_files(tmp.path()).len(), 1);
        drop(store);
        let reopened = DiskStore::open(tmp.path()).unwrap();
        assert_eq!(reopened.aggregate(&hot).unwrap().days_count, 25);
    }

    /// A failed write, explicit or at the threshold, is reported by the
    /// next seal, and the seal after that writes every row.
    #[test]
    fn failed_write_is_reported_then_retried() {
        for flush_rows in [0, 1] {
            let tmp = TempDir::new("retry");
            let config = StoreConfig {
                shards: 1,
                flush_rows,
            };
            let store = DiskStore::create(tmp.path(), config).unwrap();
            // A vanished shard directory makes every write fail.
            let shard = tmp.path().join("shard-000");
            std::fs::remove_dir_all(&shard).unwrap();
            store.observe_count(&fq("a.on.aws"), &v4(7, 7), day(0), 5);
            store.observe_count(&fq("a.on.aws"), &v4(7, 7), day(1), 2);
            assert!(matches!(store.seal(), Err(StoreError::Io(_))));
            std::fs::create_dir_all(&shard).unwrap();
            store.seal().unwrap();
            assert_eq!(segment_files(tmp.path()).len(), 1);
            drop(store);
            let reopened = DiskStore::open_read_only(tmp.path()).unwrap();
            let agg = reopened.aggregate(&fq("a.on.aws")).unwrap();
            assert_eq!(agg.total_request_cnt, 7, "flush_rows={flush_rows}");
        }
    }

    #[test]
    fn matches_in_memory_store() {
        let tmp = TempDir::new("equiv");
        let mut mem = PdnsStore::new();
        let store = DiskStore::create(tmp.path(), small_config()).unwrap();
        // Deterministic pseudo-random workload, no RNG dependency.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        for _ in 0..2_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let f = fq(&format!("f{}.on.aws", state % 97));
            let r = v4((state >> 16) as u8 % 7, (state >> 24) as u8 % 11);
            let d = day((state >> 32) as i64 % 200);
            let cnt = state % 5 + 1;
            mem.observe_count(&f, &r, d, cnt);
            store.observe_count(&f, &r, d, cnt);
        }
        store.seal().unwrap();
        assert_eq!(store.fqdn_count(), mem.fqdn_count());
        assert_eq!(store.all_aggregates(), mem.all_aggregates());
        drop(store);
        let reopened = DiskStore::open_read_only(tmp.path()).unwrap();
        assert_eq!(reopened.all_aggregates(), mem.all_aggregates());
    }

    /// A shard entry merges on the exact `(pdate, rdata)` key whether
    /// it scans its rows (up to 16) or indexes them, and whether it
    /// interns by scan (up to 8 rdatas) or by map: fqdns on both sides
    /// of both thresholds keep one row per key, in first-seen order.
    #[test]
    fn exact_key_merge_holds_across_both_thresholds() {
        let tmp = TempDir::new("thresholds");
        let store = DiskStore::create(tmp.path(), small_config()).unwrap();
        // Key `k` is rdata `k % 12` on day `k / 3`: distinct for every k.
        let key = |k: usize| (v4(0, (k % 12) as u8), day((k / 3) as i64));
        let mut rows = 0;
        for keys in [1usize, 8, 9, 16, 17, 40] {
            let f = fq(&format!("k{keys}.on.aws"));
            // Each round revisits every key, so no repeat is a tail row.
            for round in 1..=3 {
                for k in 0..keys {
                    let (r, d) = key(k);
                    store.observe_count(&f, &r, d, round);
                }
            }
            let mut got = Vec::new();
            store.for_each_row(&mut |g, _, r, d, cnt| {
                if *g == f {
                    got.push((r.clone(), d, cnt));
                }
            });
            let want: Vec<_> = (0..keys).map(|k| (key(k).0, key(k).1, 6)).collect();
            assert_eq!(got, want, "{keys} keys");
            rows += keys;
        }
        assert_eq!(store.record_count(), rows);
    }

    #[test]
    fn create_refuses_to_clobber() {
        let tmp = TempDir::new("clobber");
        let store = DiskStore::create(tmp.path(), small_config()).unwrap();
        drop(store);
        match DiskStore::create(tmp.path(), small_config()) {
            Err(StoreError::AlreadyExists(_)) => {}
            other => panic!("expected AlreadyExists, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn corrupted_segment_is_rejected_on_open() {
        let tmp = TempDir::new("corrupt");
        let store = DiskStore::create(tmp.path(), small_config()).unwrap();
        store.observe_count(&fq("c.on.aws"), &v4(5, 5), day(0), 3);
        store.seal().unwrap();
        drop(store);
        // Flip one byte in the middle of the (only) segment file.
        let [seg_path] = &segment_files(tmp.path())[..] else {
            panic!("one segment written");
        };
        let mut bytes = std::fs::read(seg_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(seg_path, &bytes).unwrap();
        match DiskStore::open(tmp.path()) {
            Err(StoreError::Corrupt(msg)) => {
                assert!(msg.contains("CRC") || msg.contains("corrupt") || !msg.is_empty())
            }
            other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn missing_superblock_is_io_error() {
        let tmp = TempDir::new("missing");
        match DiskStore::open(tmp.path()) {
            Err(StoreError::Io(_)) => {}
            other => panic!("expected Io, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn read_only_store_rejects_writes() {
        let tmp = TempDir::new("readonly");
        let store = DiskStore::create(tmp.path(), small_config()).unwrap();
        store.observe_count(&fq("r.on.aws"), &v4(9, 9), day(0), 1);
        store.seal().unwrap();
        drop(store);
        let ro = DiskStore::open_read_only(tmp.path()).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ro.observe_count(&fq("r.on.aws"), &v4(9, 9), day(1), 1);
        }));
        assert!(result.is_err(), "read-only store must reject writes");
    }

    #[test]
    fn concurrent_sharded_ingest() {
        use std::sync::Arc;
        let tmp = TempDir::new("concurrent");
        let store = Arc::new(
            DiskStore::create(
                tmp.path(),
                StoreConfig {
                    shards: 8,
                    flush_rows: 500,
                },
            )
            .unwrap(),
        );
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1_000i64 {
                    let f = fq(&format!("t{t}-{}.on.aws", i % 50));
                    store.observe_count(&f, &v4(t, (i % 256) as u8), day(i % 30), 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        store.seal().unwrap();
        assert_eq!(segment_files(tmp.path()).len(), 8);
        assert_eq!(store.fqdn_count(), 200);
        let total: u64 = store
            .all_aggregates()
            .iter()
            .map(|a| a.total_request_cnt)
            .sum();
        assert_eq!(total, 4_000);
        drop(store);
        // Note: Arc::try_unwrap not needed; reopen from disk instead.
        let reopened = DiskStore::open(tmp.path()).unwrap();
        let total: u64 = reopened
            .all_aggregates()
            .iter()
            .map(|a| a.total_request_cnt)
            .sum();
        assert_eq!(total, 4_000);
    }

    /// Build the same pseudo-random workload into both backend flavors.
    fn twin_stores(tmp: &TempDir) -> (PdnsStore, DiskStore) {
        let mut mem = PdnsStore::new();
        let store = DiskStore::create(tmp.path(), small_config()).unwrap();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..3_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let f = fq(&format!("f{}.on.aws", state % 83));
            let r = v4((state >> 16) as u8 % 5, (state >> 24) as u8 % 9);
            let d = day((state >> 32) as i64 % 120);
            let cnt = state % 7 + 1;
            mem.observe_count(&f, &r, d, cnt);
            store.observe_count(&f, &r, d, cnt);
        }
        (mem, store)
    }

    /// The non-allocating visitor must see exactly the rows — and the
    /// row order — its own backend's materializing read path produces.
    /// (Row *lists* are not comparable across backends: `PdnsStore`
    /// merges same-day duplicates only at the tail while `DiskStore`
    /// merges on exact key; only aggregates are backend-invariant.)
    #[test]
    fn record_visitor_matches_records_for_order() {
        let tmp = TempDir::new("visitor");
        let (mem, store) = twin_stores(&tmp);
        let mut checked = 0usize;
        for fqdn in mem.sorted_fqdns() {
            // PdnsStore: visitor ≡ records_for, element for element.
            let owned: Vec<_> = mem
                .records_for(&fqdn)
                .into_iter()
                .map(|r| (r.rtype, r.rdata, r.pdate, r.request_cnt))
                .collect();
            assert!(!owned.is_empty());
            let mut via_mem = Vec::new();
            mem.for_each_record_of(&fqdn, |rt, rd, pd, cnt| {
                via_mem.push((rt, rd.clone(), pd, cnt));
            });
            assert_eq!(via_mem, owned, "PdnsStore visitor diverges for {fqdn}");

            // DiskStore: visitor ≡ its own rows in canonical
            // `(pdate, rdata text)` order.
            let mut disk_rows = Vec::new();
            store.for_each_row(&mut |f, rt, rd, pd, cnt| {
                if *f == fqdn {
                    disk_rows.push((rt, rd.clone(), pd, cnt));
                }
            });
            disk_rows.sort_by_key(|a| (a.2, a.1.text()));
            let mut via_disk = Vec::new();
            store.for_each_record_of(&fqdn, &mut |rt, rd, pd, cnt| {
                via_disk.push((rt, rd.clone(), pd, cnt));
            });
            assert_eq!(via_disk, disk_rows, "DiskStore visitor diverges for {fqdn}");
            checked += owned.len();
        }
        assert!(checked > 100, "workload produced enough rows to matter");
        // Unknown fqdns: no rows, no panic.
        store.for_each_record_of(&fq("missing.on.aws"), &mut |_, _, _, _| {
            panic!("visited a row of an unknown fqdn")
        });
    }

    #[test]
    fn par_aggregates_is_worker_count_invariant() {
        let tmp = TempDir::new("paragg");
        let (mem, store) = twin_stores(&tmp);
        let want = mem.all_aggregates();
        for workers in [1, 3, 8] {
            assert_eq!(mem.par_aggregates(workers), want, "mem workers={workers}");
            assert_eq!(
                store.par_aggregates(workers),
                want,
                "disk workers={workers}"
            );
        }
    }
}
