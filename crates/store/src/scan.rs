//! Streaming columnar scan: segment bytes → rows and per-fqdn
//! aggregates.
//!
//! `DiskStore::open` replays every segment into per-shard hash tables
//! before anything can be queried — the right trade when the store will
//! be queried repeatedly, but pure overhead for the fused pipeline's
//! analysis, which needs each row once and exactly one [`FqdnAggregate`]
//! per fqdn and never looks at the table again. This module decodes the
//! delta-encoded rows block directly instead: segment rows are sorted by
//! `(fqdn, pdate, rdata)`, so each fqdn is one contiguous run, the day
//! count is a run-length count over `pdate`, and no intermediate
//! `SegRow` vector, hash table, or `PdnsRecord` is ever materialized.
//!
//! The fast path requires one segment per shard — what `compact` and
//! `seal_shard` guarantee and every snapshot written by `fw_snapshot`
//! satisfies. A multi-segment shard (an uncompacted store) falls back
//! to replaying that shard through an in-memory [`PdnsStore`], trading
//! speed for the exact-merge semantics; the output is identical either
//! way.

use crate::segment::{next_row, parse_segment};
use crate::store::shard_segment_paths;
use crate::StoreError;
use fw_dns::pdns::{FqdnAggregate, PdnsBackend as _, PdnsStore};
use fw_types::{DayStamp, Fqdn, Rdata};
use std::path::Path;

/// Per-row scan callback: `(fqdn, rdata, pdate, request_cnt)` with the
/// dictionary entries already resolved.
pub type RowVisitor<'v> = dyn FnMut(&Fqdn, &Rdata, DayStamp, u64) + 'v;

/// Stream one segment's rows into per-fqdn aggregates, emitting each
/// aggregate as its run ends. Emission order is the segment's fqdn
/// dictionary order (lexicographic). With a row visitor attached, each
/// row is emitted as it decodes, and every fqdn's aggregate fires after
/// its last row and before the next fqdn's first row.
fn scan_segment_into(
    bytes: &[u8],
    emit: &mut dyn FnMut(FqdnAggregate),
    mut on_row: Option<&mut RowVisitor<'_>>,
) -> Result<(), StoreError> {
    let (dicts, mut r) = parse_segment(bytes)?;
    // Per-run state. `dist` maps segment rdata index → count via linear
    // scan: a run's distinct rdatas are few even when the segment's
    // dictionary is large.
    let mut run_fqdn: Option<u32> = None;
    let mut first = DayStamp(i64::MAX);
    let mut last = DayStamp(i64::MIN);
    let mut prev_day = DayStamp(i64::MIN);
    let mut days = 0u32;
    let mut total = 0u64;
    let mut dist: Vec<(u32, u64)> = Vec::new();
    let mut prev = 0u64;

    let mut flush = |fqdn_idx: u32,
                     first: DayStamp,
                     last: DayStamp,
                     days: u32,
                     total: u64,
                     dist: &mut Vec<(u32, u64)>| {
        let mut rdata_dist: Vec<(Rdata, u64)> = dist
            .drain(..)
            .map(|(ri, cnt)| (dicts.rdatas[ri as usize].clone(), cnt))
            .collect();
        rdata_dist.sort_by(|a, b| a.0.cmp(&b.0));
        emit(FqdnAggregate {
            fqdn: dicts.fqdns[fqdn_idx as usize].clone(),
            first_seen_all: first,
            last_seen_all: last,
            days_count: days,
            total_request_cnt: total,
            rdata_dist,
        });
    };

    for _ in 0..dicts.n_rows {
        let row = next_row(&mut r, &dicts, &mut prev)?;
        if run_fqdn != Some(row.fqdn) {
            if let Some(done) = run_fqdn {
                flush(done, first, last, days, total, &mut dist);
            }
            run_fqdn = Some(row.fqdn);
            first = row.pdate;
            last = row.pdate;
            prev_day = row.pdate;
            days = 1;
            total = 0;
        } else {
            // Rows are sorted, so within a run pdate is non-decreasing:
            // `last` is the current row and a new day is a transition.
            last = row.pdate;
            if row.pdate != prev_day {
                days += 1;
                prev_day = row.pdate;
            }
        }
        total += row.cnt;
        match dist.iter_mut().find(|(ri, _)| *ri == row.rdata) {
            Some((_, cnt)) => *cnt += row.cnt,
            None => dist.push((row.rdata, row.cnt)),
        }
        if let Some(visit) = on_row.as_deref_mut() {
            visit(
                &dicts.fqdns[row.fqdn as usize],
                &dicts.rdatas[row.rdata as usize],
                row.pdate,
                row.cnt,
            );
        }
    }
    if !r.is_empty() {
        return Err(StoreError::Corrupt(
            "trailing bytes in rows block".to_string(),
        ));
    }
    if let Some(done) = run_fqdn {
        flush(done, first, last, days, total, &mut dist);
    }
    Ok(())
}

/// Stream one shard of a snapshot directory in a single pass, emitting
/// both per-fqdn aggregates and individual rows.
///
/// Emission contract: each fqdn's rows arrive consecutively, and its
/// aggregate fires after its last row and before the next fqdn's first
/// row — so a caller can classify an fqdn once when its run starts and
/// reuse the verdict for every row and the trailing aggregate. This is
/// the per-shard feed for the fused pipeline, where identify and usage
/// consume a shard as soon as it seals. The single-segment fast path
/// decodes straight out of a read-only mmap; multi-segment shards fall
/// back to an exact-merge replay with the same emission contract.
pub fn scan_shard_visit(
    dir: &Path,
    shard: usize,
    on_agg: &mut dyn FnMut(FqdnAggregate),
    mut on_row: Option<&mut RowVisitor<'_>>,
) -> Result<(), StoreError> {
    let _trace = fw_obs::trace_span_arg("store/scan_shard", shard as u64);
    let paths = shard_segment_paths(dir, shard)?;
    match paths.as_slice() {
        [] => {}
        [single] => {
            let bytes = crate::mmap::map_file(single)?;
            fw_obs::counter_inc!("fw.store.scan.segments_streamed");
            scan_segment_into(&bytes, on_agg, on_row).map_err(|e| match e {
                StoreError::Corrupt(msg) => {
                    StoreError::Corrupt(format!("{}: {msg}", single.display()))
                }
                other => other,
            })?;
        }
        many => {
            fw_obs::counter_inc!("fw.store.scan.shards_replayed");
            let mut replay = PdnsStore::new();
            for path in many {
                let seg = crate::segment::read_segment(path)?;
                for row in &seg.rows {
                    replay.observe_count(
                        &seg.fqdns[row.fqdn as usize],
                        &seg.rdatas[row.rdata as usize],
                        row.pdate,
                        row.cnt,
                    );
                }
            }
            for fqdn in replay.sorted_fqdns() {
                if let Some(visit) = on_row.as_deref_mut() {
                    replay.for_each_record_of(&fqdn, |_rtype, rdata, pdate, cnt| {
                        visit(&fqdn, rdata, pdate, cnt);
                    });
                }
                on_agg(replay.aggregate(&fqdn).expect("fqdn is in the replay"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiskStore, StoreConfig};
    use fw_types::Fqdn;
    use std::net::Ipv4Addr;
    use std::path::PathBuf;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir = std::env::temp_dir().join(format!(
                "fw-scan-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            TempDir(dir)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn fq(s: &str) -> Fqdn {
        Fqdn::parse(s).unwrap()
    }

    /// Aggregate one shard.
    fn scan_shard(dir: &Path, shard: usize) -> Result<Vec<FqdnAggregate>, StoreError> {
        let mut out = Vec::new();
        scan_shard_visit(dir, shard, &mut |agg| out.push(agg), None)?;
        Ok(out)
    }

    /// Aggregate every shard of a snapshot directory, sorted by fqdn.
    fn scan_all(dir: &Path) -> Result<Vec<FqdnAggregate>, StoreError> {
        let mut out = Vec::new();
        for shard in 0..crate::store::read_superblock(dir)? {
            out.extend(scan_shard(dir, shard)?);
        }
        out.sort_by(|a, b| a.fqdn.cmp(&b.fqdn));
        Ok(out)
    }

    fn fill(store: &DiskStore) {
        let d0 = fw_types::MEASUREMENT_START;
        for i in 0..60u8 {
            let f = fq(&format!("fn{i}.fcapp.run"));
            for day in 0..5i64 {
                store.observe_count(&f, &Rdata::V4(Ipv4Addr::new(198, 51, 100, i)), d0 + day, 3);
                if day % 2 == 0 {
                    store.observe_count(&f, &Rdata::Name(fq("edge.fcapp.run")), d0 + day, 1);
                }
            }
        }
    }

    #[test]
    fn streamed_aggregates_equal_table_aggregates() {
        let tmp = TempDir::new("equal");
        let store = DiskStore::create(&tmp.0, StoreConfig::default()).unwrap();
        fill(&store);
        store.compact().unwrap();
        assert_eq!(scan_all(&tmp.0).unwrap(), store.all_aggregates());
    }

    #[test]
    fn multi_segment_shards_fall_back_to_replay() {
        let tmp = TempDir::new("multiseg");
        let store = DiskStore::create(
            &tmp.0,
            StoreConfig {
                shards: 2,
                flush_rows: 0,
            },
        )
        .unwrap();
        // Two flushes → two segments per touched shard, no compaction:
        // counts for the same (fqdn, pdate, rdata) key split across
        // segments and must be re-merged by the fallback.
        let d0 = fw_types::MEASUREMENT_START;
        for round in 0..2 {
            for i in 0..10u8 {
                let f = fq(&format!("fn{i}.fcapp.run"));
                store.observe_count(&f, &Rdata::V4(Ipv4Addr::new(198, 51, 100, i)), d0, 2);
                store.observe_count(
                    &f,
                    &Rdata::V4(Ipv4Addr::new(198, 51, 100, i)),
                    d0 + i64::from(round),
                    1,
                );
            }
            store.flush().unwrap();
        }
        assert!(store.segment_count() > store.shard_count());
        assert_eq!(scan_all(&tmp.0).unwrap(), store.all_aggregates());
    }

    #[test]
    fn shard_visit_rows_and_aggregates_are_consistent() {
        let tmp = TempDir::new("visit");
        let store = DiskStore::create(&tmp.0, StoreConfig::default()).unwrap();
        fill(&store);
        store.compact().unwrap();
        let want = store.all_aggregates();
        let shard_count = store.shard_count();
        drop(store);

        // Rows for an fqdn must arrive consecutively, each aggregate
        // right after its run, and totals must reconcile. Shared cells
        // because both callbacks observe the run state.
        use std::cell::{Cell, RefCell};
        let mut aggs = Vec::new();
        let row_total = Cell::new(0u64);
        let run_total = Cell::new(0u64);
        let cur: RefCell<Option<Fqdn>> = RefCell::new(None);
        let seen_runs: RefCell<Vec<Fqdn>> = RefCell::new(Vec::new());
        for shard in 0..shard_count {
            scan_shard_visit(
                &tmp.0,
                shard,
                &mut |agg: FqdnAggregate| {
                    assert_eq!(
                        cur.borrow().as_ref(),
                        Some(&agg.fqdn),
                        "aggregate closes its run"
                    );
                    assert_eq!(run_total.get(), agg.total_request_cnt);
                    run_total.set(0);
                    *cur.borrow_mut() = None;
                    aggs.push(agg);
                },
                Some(&mut |fqdn, _rdata, _day, cnt| {
                    if cur.borrow().as_ref() != Some(fqdn) {
                        assert!(
                            cur.borrow().is_none(),
                            "previous run not closed by an aggregate"
                        );
                        assert!(
                            !seen_runs.borrow().contains(fqdn),
                            "fqdn runs must be contiguous"
                        );
                        seen_runs.borrow_mut().push(fqdn.clone());
                        *cur.borrow_mut() = Some(fqdn.clone());
                    }
                    row_total.set(row_total.get() + cnt);
                    run_total.set(run_total.get() + cnt);
                }),
            )
            .unwrap();
        }
        aggs.sort_by(|a, b| a.fqdn.cmp(&b.fqdn));
        assert_eq!(aggs, want);
        assert_eq!(
            row_total.get(),
            want.iter().map(|a| a.total_request_cnt).sum::<u64>()
        );
    }

    #[test]
    fn mmap_scan_rejects_bit_rot() {
        let tmp = TempDir::new("bitrot");
        let store = DiskStore::create(&tmp.0, StoreConfig::default()).unwrap();
        fill(&store);
        store.compact().unwrap();
        drop(store);
        assert!(scan_all(&tmp.0).is_ok());

        // Flip one byte in the middle of each shard's segment: the
        // mmap-backed scan must reject every poisoned shard via CRC.
        let mut flipped = 0;
        for shard in 0..StoreConfig::default().shards {
            for path in shard_segment_paths(&tmp.0, shard).unwrap() {
                let mut bytes = std::fs::read(&path).unwrap();
                if bytes.len() < 64 {
                    continue;
                }
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x40;
                std::fs::write(&path, &bytes).unwrap();
                flipped += 1;
                let err = scan_shard(&tmp.0, shard);
                assert!(err.is_err(), "bit rot in {} must not scan", path.display());
                bytes[mid] ^= 0x40;
                std::fs::write(&path, &bytes).unwrap();
            }
        }
        assert!(flipped > 0, "test must have poisoned at least one segment");
        assert!(scan_all(&tmp.0).is_ok());
    }

    #[test]
    fn empty_store_streams_empty() {
        let tmp = TempDir::new("empty");
        let store = DiskStore::create(&tmp.0, StoreConfig::default()).unwrap();
        store.flush().unwrap();
        drop(store);
        assert!(scan_all(&tmp.0).unwrap().is_empty());
    }
}
