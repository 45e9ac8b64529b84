//! Streaming scan: a shard's segment → rows and per-fqdn aggregates.
//!
//! `DiskStore::open` reads every shard's segment into a hash table
//! before anything can be queried — the right trade when the store will
//! be queried repeatedly, but pure overhead for the fused pipeline's
//! analysis, which needs each row once and exactly one [`FqdnAggregate`]
//! per fqdn and never looks at the table again. The scan walks the
//! store's one segment reader instead (the row loop `DiskStore::open`
//! walks too) and folds each fqdn's run, which the loop hands over
//! whole and checked, straight into its aggregate: a run's rows are
//! sorted by `(pdate, rdata)`, so the day count is a run-length count
//! over `pdate`, and no hash table or `PdnsRecord` is materialized.

use crate::segment::read_runs;
use crate::store::shard_segment;
use crate::StoreError;
use fw_dns::pdns::FqdnAggregate;
use fw_types::{DayStamp, Fqdn, Rdata};
use std::path::Path;

/// Per-row scan callback: `(fqdn, rdata, pdate, request_cnt)` with the
/// dictionary entries already resolved.
pub type RowVisitor<'v> = dyn FnMut(&Fqdn, &Rdata, DayStamp, u64) + 'v;

/// Stream one shard of a snapshot directory in a single pass, emitting
/// both per-fqdn aggregates and individual rows.
///
/// Emission contract: each fqdn's rows arrive consecutively, and its
/// aggregate fires after its last row and before the next fqdn's first
/// row — so a caller can classify an fqdn once when its run starts and
/// reuse the verdict for every row and the trailing aggregate. Fqdns
/// arrive in the segment's dictionary order (lexicographic). This is
/// the per-shard feed for the fused pipeline, where identify and usage
/// consume a shard as soon as it seals. A shard never written streams
/// nothing; a segment the reader refuses, or any other segment file in
/// the shard's directory, is a [`StoreError::Corrupt`] naming the file.
pub fn scan_shard_visit(
    dir: &Path,
    shard: usize,
    on_agg: &mut dyn FnMut(FqdnAggregate),
    mut on_row: Option<&mut RowVisitor<'_>>,
) -> Result<(), StoreError> {
    let _trace = fw_obs::trace_span_arg("store/scan_shard", shard as u64);
    let Some(path) = shard_segment(dir, shard)? else {
        return Ok(());
    };
    fw_obs::counter_inc!("fw.store.scan.segments_streamed");
    // Segment rdata index → count, found by linear scan: a run's
    // distinct rdatas are few even when the dictionary is large.
    let mut dist: Vec<(u32, u64)> = Vec::new();
    read_runs(&path, &mut |fqdn, rows, total, rdatas| {
        let mut days = 0u32;
        let mut prev_day = None;
        for row in rows {
            if prev_day != Some(row.pdate) {
                days += 1;
                prev_day = Some(row.pdate);
            }
            // A partial sum of the run, so within its checked total.
            match dist.iter_mut().find(|(ri, _)| *ri == row.rdata) {
                Some((_, cnt)) => *cnt += row.cnt,
                None => dist.push((row.rdata, row.cnt)),
            }
            if let Some(visit) = on_row.as_deref_mut() {
                visit(&fqdn, &rdatas[row.rdata as usize], row.pdate, row.cnt);
            }
        }
        let mut rdata_dist: Vec<(Rdata, u64)> = dist
            .drain(..)
            .map(|(ri, cnt)| (rdatas[ri as usize].clone(), cnt))
            .collect();
        rdata_dist.sort_by(|a, b| a.0.cmp(&b.0));
        on_agg(FqdnAggregate {
            fqdn,
            first_seen_all: rows[0].pdate,
            last_seen_all: rows[rows.len() - 1].pdate,
            days_count: days,
            total_request_cnt: total,
            rdata_dist,
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::tests::raw_segment;
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
    fn scan_rejects_bit_rot() {
        let tmp = TempDir::new("bitrot");
        let store = DiskStore::create(&tmp.0, StoreConfig::default()).unwrap();
        fill(&store);
        store.seal().unwrap();
        drop(store);
        assert!(scan_all(&tmp.0).is_ok());

        // Flip one byte in the middle of each shard's segment: the scan
        // must reject every poisoned shard via CRC.
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

    /// A one-shard store whose segment is `bytes`.
    fn store_of(tag: &str, bytes: &[u8]) -> TempDir {
        let tmp = TempDir::new(tag);
        let config = StoreConfig {
            shards: 1,
            flush_rows: 0,
        };
        drop(DiskStore::create(&tmp.0, config).unwrap());
        std::fs::write(tmp.0.join("shard-000").join("seg-00000001.fws"), bytes).unwrap();
        tmp
    }

    /// Well-framed segments that break the row contract are `Corrupt`
    /// through the scan and through reopen alike, naming the file: a
    /// delta that wraps back to a name already moved into an aggregate,
    /// one key twice with counts `u64::MAX` and 1, and two distinct
    /// keys whose counts overflow.
    #[test]
    fn row_contract_breaks_fail_scan_and_open() {
        let v4 = |last| Rdata::V4(Ipv4Addr::new(198, 51, 100, last));
        let fqdns = ["a.on.aws", "b.on.aws"];
        let cases = [
            (
                "fqdn delta",
                vec![v4(1)],
                vec![[0, 0, 0, 1], [1, 0, 0, 1], [u64::MAX, 0, 0, 1]],
            ),
            (
                "row key not increasing within its fqdn",
                vec![v4(1)],
                vec![[0, 0, 0, u64::MAX], [0, 0, 0, 1]],
            ),
            (
                "total overflows",
                vec![v4(1), v4(2)],
                vec![[0, 0, 0, u64::MAX], [0, 0, 1, 1]],
            ),
        ];
        for (what, rdatas, rows) in cases {
            let tmp = store_of("contract", &raw_segment(&fqdns, &rdatas, &rows));
            let corrupt = |e: StoreError| match e {
                StoreError::Corrupt(msg) => {
                    assert!(
                        msg.contains(what) && msg.contains("seg-00000001.fws"),
                        "{msg}"
                    )
                }
                other => panic!("expected Corrupt({what}), got {other:?}"),
            };
            corrupt(scan_shard(&tmp.0, 0).unwrap_err());
            corrupt(DiskStore::open(&tmp.0).err().expect("open refuses"));
        }
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
