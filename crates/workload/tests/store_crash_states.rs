//! Crash states of a store write (DESIGN.md §9).
//!
//! A shard write encodes the whole table into `.tmp-seg-00000001.fws`,
//! syncs it, and renames it over `seg-00000001.fws`. For one shard, this
//! test lays out every on-disk state that write passes through, from the
//! real bytes of successive seals, and requires both read paths
//! (`DiskStore::open_read_only` and `scan_shard_visit`) to see exactly
//! the state before the write or exactly the state after it, never a
//! sum of the two. A store reopened from a crashed write must then
//! finish the write over the stale temp file.

use fw_dns::pdns::{FqdnAggregate, PdnsBackend};
use fw_store::{scan_shard_visit, DiskStore, StoreConfig};
use fw_types::{Fqdn, Rdata, MEASUREMENT_START};
use fw_workload::{pdns_content_hash, row_key_hash};
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const SEG: &str = "seg-00000001.fws";
const TMP: &str = ".tmp-seg-00000001.fws";

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let p = std::env::temp_dir().join(format!(
            "fw-crash-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&p);
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What a reader sees: aggregates sorted by fqdn and the content hash.
type View = (Vec<FqdnAggregate>, u64);

fn config() -> StoreConfig {
    StoreConfig {
        shards: 1,
        flush_rows: 0,
    }
}

/// One round of observations. Every round repeats the day-0 keys, so a
/// reader that summed two segments would over-count them, and adds a
/// new day per fqdn.
fn observe_round(store: &DiskStore, round: i64) {
    for i in 0..30u8 {
        let fqdn = Fqdn::parse(&format!("fn{i}.lambda-url.us-east-1.on.aws")).unwrap();
        let rdata = Rdata::V4(Ipv4Addr::new(198, 51, 100, i));
        store.observe_count(&fqdn, &rdata, MEASUREMENT_START, 3);
        store.observe_count(&fqdn, &rdata, MEASUREMENT_START + round + 1, 1);
    }
}

fn table_view(store: &DiskStore) -> View {
    (store.all_aggregates(), pdns_content_hash(store))
}

/// The store at `dir` as both read paths see it; they must agree.
fn read_view(dir: &Path) -> View {
    let opened = table_view(&DiskStore::open_read_only(dir).unwrap());
    let mut aggs = Vec::new();
    let mut hash = 0u64;
    scan_shard_visit(
        dir,
        0,
        &mut |agg| aggs.push(agg),
        Some(&mut |fqdn, rdata, pdate, cnt| {
            hash = hash.wrapping_add(row_key_hash(fqdn, rdata, pdate).wrapping_mul(cnt));
        }),
    )
    .unwrap();
    aggs.sort_by(|a, b| a.fqdn.cmp(&b.fqdn));
    assert_eq!((aggs, hash), opened, "scan and open disagree");
    opened
}

/// Lay out a one-shard store with the given segment and temp files.
fn lay_out(dir: &Path, superblock: &[u8], seg: Option<&[u8]>, tmp: Option<&[u8]>) {
    let shard = dir.join("shard-000");
    std::fs::create_dir_all(&shard).unwrap();
    std::fs::write(dir.join("superblock.fws"), superblock).unwrap();
    if let Some(bytes) = seg {
        std::fs::write(shard.join(SEG), bytes).unwrap();
    }
    if let Some(bytes) = tmp {
        std::fs::write(shard.join(TMP), bytes).unwrap();
    }
}

fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn every_crash_state_of_a_shard_write_reads_old_or_new() {
    // The real states: never written, then after each of two seals.
    let src = TempDir::new("src");
    let store = DiskStore::create(&src.0, config()).unwrap();
    let superblock = std::fs::read(src.0.join("superblock.fws")).unwrap();
    assert_eq!(file_names(&src.0), ["shard-000", "superblock.fws"]);
    let shard = src.0.join("shard-000");
    let mut states: Vec<(Option<Vec<u8>>, View)> = vec![(None, table_view(&store))];
    for round in 0..2 {
        observe_round(&store, round);
        let view = table_view(&store);
        store.seal().unwrap();
        assert_eq!(file_names(&shard), [SEG]);
        states.push((Some(std::fs::read(shard.join(SEG)).unwrap()), view));
    }
    drop(store);

    for (round, pair) in states.windows(2).enumerate() {
        let (old_seg, old) = &pair[0];
        let (Some(new_seg), new) = &pair[1] else {
            unreachable!("every seal wrote a segment")
        };
        assert_ne!(old, new, "round {round} must change what a reader sees");
        let (old_seg, new_seg) = (old_seg.as_deref(), &new_seg[..]);
        let torn = &new_seg[..new_seg.len() / 2];
        let crash_states = [
            ("before the temp file", old_seg, None, old),
            ("truncated temp file", old_seg, Some(torn), old),
            ("complete temp file", old_seg, Some(new_seg), old),
            ("after the rename", Some(new_seg), None, new),
        ];
        for (what, seg, tmp, want) in crash_states {
            let dir = TempDir::new("state");
            lay_out(&dir.0, &superblock, seg, tmp);
            assert!(read_view(&dir.0) == *want, "round {round}, {what}");
            if tmp.is_none() {
                continue;
            }
            // Recovery: reopen, redo the round, seal. The write lands
            // over the stale temp file and leaves only the segment.
            let store = DiskStore::open(&dir.0).unwrap();
            observe_round(&store, round as i64);
            store.seal().unwrap();
            drop(store);
            assert_eq!(file_names(&dir.0.join("shard-000")), [SEG], "{what}");
            assert!(read_view(&dir.0) == *new, "round {round}, {what}, resealed");
        }
    }
}
