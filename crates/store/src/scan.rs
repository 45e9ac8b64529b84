//! Streaming columnar scan: segment bytes → rows and per-fqdn
//! aggregates.
//!
//! `DiskStore::open` reads every shard's segment into a hash table
//! before anything can be queried — the right trade when the store will
//! be queried repeatedly, but pure overhead for the fused pipeline's
//! analysis, which needs each row once and exactly one [`FqdnAggregate`]
//! per fqdn and never looks at the table again. This module decodes the
//! delta-encoded rows block directly instead: segment rows are sorted by
//! `(fqdn, pdate, rdata)`, so each fqdn is one contiguous run, the day
//! count is a run-length count over `pdate`, and no intermediate
//! `SegRow` vector, hash table, or `PdnsRecord` is ever materialized.

use crate::segment::{next_row, parse_segment};
use crate::store::shard_segment;
use crate::StoreError;
use fw_dns::pdns::FqdnAggregate;
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
    let (mut dicts, mut r) = parse_segment(bytes)?;
    // Each run's name moves out of the dictionary into its aggregate.
    // Row fqdn indices never decrease (`next_row` refuses a wrapping
    // delta), so the names are taken in dictionary order and none is
    // needed again after its run.
    let mut names = std::mem::take(&mut dicts.fqdns).into_iter();
    let mut next_name = 0u32;
    // Per-run state. `dist` maps segment rdata index → count via linear
    // scan: a run's distinct rdatas are few even when the segment's
    // dictionary is large.
    let mut run: Option<(u32, Fqdn)> = None;
    let mut first = DayStamp(i64::MAX);
    let mut last = DayStamp(i64::MIN);
    let mut prev_day = DayStamp(i64::MIN);
    let mut days = 0u32;
    let mut total = 0u64;
    let mut dist: Vec<(u32, u64)> = Vec::new();
    let mut prev = 0u64;

    let mut flush = |fqdn: Fqdn,
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
            fqdn,
            first_seen_all: first,
            last_seen_all: last,
            days_count: days,
            total_request_cnt: total,
            rdata_dist,
        });
    };

    for _ in 0..dicts.n_rows {
        let row = next_row(&mut r, &dicts, &mut prev)?;
        if run.as_ref().is_none_or(|(i, _)| *i != row.fqdn) {
            if let Some((_, done)) = run.take() {
                flush(done, first, last, days, total, &mut dist);
            }
            // A later run has a larger index; skip the names of any
            // fqdns without rows (a well-formed segment has none).
            let name = names
                .nth((row.fqdn - next_name) as usize)
                .expect("next_row bounds the index by the dictionary");
            next_name = row.fqdn + 1;
            run = Some((row.fqdn, name));
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
        if let (Some(visit), Some((_, fqdn))) = (on_row.as_deref_mut(), &run) {
            visit(fqdn, &dicts.rdatas[row.rdata as usize], row.pdate, row.cnt);
        }
    }
    if !r.is_empty() {
        return Err(StoreError::Corrupt(
            "trailing bytes in rows block".to_string(),
        ));
    }
    if let Some((_, done)) = run {
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
/// consume a shard as soon as it seals. The shard's one segment decodes
/// straight out of a read-only mmap; a shard never written streams
/// nothing, and any other segment file in its directory is a
/// [`StoreError::Corrupt`] naming that file.
pub fn scan_shard_visit(
    dir: &Path,
    shard: usize,
    on_agg: &mut dyn FnMut(FqdnAggregate),
    on_row: Option<&mut RowVisitor<'_>>,
) -> Result<(), StoreError> {
    let _trace = fw_obs::trace_span_arg("store/scan_shard", shard as u64);
    let Some(path) = shard_segment(dir, shard)? else {
        return Ok(());
    };
    let bytes = crate::mmap::map_file(&path)?;
    fw_obs::counter_inc!("fw.store.scan.segments_streamed");
    scan_segment_into(&bytes, on_agg, on_row).map_err(|e| match e {
        StoreError::Corrupt(msg) => StoreError::Corrupt(format!("{}: {msg}", path.display())),
        other => other,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiskStore, StoreConfig};
    use fw_dns::pdns::PdnsBackend as _;
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
        store.seal().unwrap();
        assert_eq!(scan_all(&tmp.0).unwrap(), store.all_aggregates());
    }

    #[test]
    fn second_segment_file_is_refused_by_open_and_scan() {
        let tmp = TempDir::new("multiseg");
        let store = DiskStore::create(
            &tmp.0,
            StoreConfig {
                shards: 2,
                flush_rows: 0,
            },
        )
        .unwrap();
        fill(&store);
        store.seal().unwrap();
        drop(store);
        // A second file beside the shard's segment (a multi-segment
        // writer's delta, say): summing it would double-count, so
        // neither read path touches the shard.
        let shard_dir = tmp.0.join("shard-000");
        let stray = shard_dir.join("seg-00000002.fws");
        std::fs::copy(shard_dir.join("seg-00000001.fws"), &stray).unwrap();
        let names_stray = |e: StoreError| match e {
            StoreError::Corrupt(msg) => {
                assert!(msg.contains(&stray.display().to_string()), "{msg}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        };
        names_stray(scan_shard(&tmp.0, 0).unwrap_err());
        let open_err = DiskStore::open_read_only(&tmp.0).err();
        names_stray(open_err.expect("open refuses"));
        assert!(scan_shard(&tmp.0, 1).is_ok(), "other shards still scan");
        std::fs::remove_file(&stray).unwrap();
        let store = DiskStore::open_read_only(&tmp.0).unwrap();
        assert_eq!(scan_all(&tmp.0).unwrap(), store.all_aggregates());
    }

    #[test]
    fn shard_visit_rows_and_aggregates_are_consistent() {
        let tmp = TempDir::new("visit");
        let store = DiskStore::create(&tmp.0, StoreConfig::default()).unwrap();
        fill(&store);
        store.seal().unwrap();
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
        store.seal().unwrap();
        drop(store);
        assert!(scan_all(&tmp.0).is_ok());

        // Flip one byte in the middle of each shard's segment: the
        // mmap-backed scan must reject every poisoned shard via CRC.
        let mut flipped = 0;
        for shard in 0..StoreConfig::default().shards {
            let Some(path) = shard_segment(&tmp.0, shard).unwrap() else {
                continue;
            };
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
        assert!(flipped > 0, "test must have poisoned at least one segment");
        assert!(scan_all(&tmp.0).is_ok());
    }

    #[test]
    fn wrapping_fqdn_delta_fails_the_scan() {
        // Row 3's delta wraps the index back to fqdn 0, whose name the
        // scan has already moved into fqdn 0's aggregate.
        let fqdns = ["a.on.aws", "b.on.aws"];
        let rows = [[0, 0, 0, 1], [1, 0, 0, 1], [u64::MAX, 0, 0, 1]];
        let mut aggs = 0;
        let result = scan_segment_into(
            &crate::segment::tests::raw_segment(&fqdns, &rows),
            &mut |_| aggs += 1,
            Some(&mut |_, _, _, _| {}),
        );
        assert!(matches!(result, Err(StoreError::Corrupt(_))), "{result:?}");
    }

    #[test]
    fn empty_store_streams_empty() {
        let tmp = TempDir::new("empty");
        let store = DiskStore::create(&tmp.0, StoreConfig::default()).unwrap();
        store.seal().unwrap();
        drop(store);
        assert!(scan_all(&tmp.0).unwrap().is_empty());
    }
}
