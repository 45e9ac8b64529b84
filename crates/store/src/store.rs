//! The persistent sharded store.
//!
//! Layout of a store directory:
//!
//! ```text
//! <dir>/superblock.fws          versioned superblock (magic, shard count, CRC)
//! <dir>/shard-000/seg-00000001.fws
//! <dir>/shard-001/seg-00000001.fws
//! <dir>/shard-002/...
//! ```
//!
//! Ingestion is lock-striped: an fqdn hashes (FNV-1a, stable across
//! processes) to one of N shards, each behind its own mutex, so
//! concurrent sensors contend only when they touch the same shard.
//! Each shard keeps a merged in-memory table (the query view) and at
//! most one segment file on disk. Every write — `seal`, or the
//! automatic one at the `flush_rows` threshold — encodes the shard's
//! whole table into a temp file, syncs it, renames it over the shard's
//! segment and syncs the shard directory. A crash therefore leaves the
//! old segment or the new one, never a torn file and never two files to
//! sum; a shard directory holding any other segment file is refused as
//! corrupt. Reopening a store reads each shard's one segment back into
//! its table through the same reader as the streaming scan.

use crate::segment::{read_runs, SegmentBuilder};
use crate::{StoreConfig, StoreError};
use fw_analysis::par::{fork, par_map};
use fw_dns::pdns::{DailyRow, FqdnAggregate, FqdnRows, PdnsBackend};
use fw_types::fnv::FnvBuildHasher;
use fw_types::{DayStamp, Fqdn, Rdata, RecordType};
use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

const SUPER_MAGIC: &[u8; 8] = b"FWSUPER\x01";
const SUPER_VERSION: u32 = 1;
const SUPERBLOCK: &str = "superblock.fws";
/// The one segment file in each shard directory.
const SEGMENT: &str = "seg-00000001.fws";

/// One shard-table entry: the fqdn's rows (fw-dns's shared table)
/// plus the exact-key merge index only this table keeps.
#[derive(Debug, Default)]
struct Entry {
    table: FqdnRows,
    /// `(pdate, rdata_idx) → position in rows`: the exact-key merge
    /// index, built only once the entry holds more than
    /// [`ROW_IDX_MIN`] rows (most entries hold one or two, and a scan
    /// of a few rows is cheaper than a map). Once built it indexes
    /// every row.
    row_idx: Option<HashMap<(i64, u32), u32, FnvBuildHasher>>,
}

/// The most rows an [`Entry`] merges into by scanning them from the
/// tail before it builds its `row_idx`.
const ROW_IDX_MIN: usize = 16;

impl Entry {
    /// Merge one observation on the exact `(pdate, rdata)` key. Returns
    /// whether it added a row.
    fn merge(&mut self, rdata: &Rdata, day: DayStamp, count: u64) -> bool {
        let idx = self.table.intern(rdata);
        let rows = &mut self.table.rows;
        let key = (day.0, idx);
        let pos = if rows.len() > ROW_IDX_MIN {
            let row_idx = self.row_idx.get_or_insert_with(|| {
                rows.iter()
                    .enumerate()
                    .map(|(i, r)| ((r.pdate.0, r.rdata), i as u32))
                    .collect()
            });
            row_idx.get(&key).map(|&pos| pos as usize)
        } else {
            rows.iter().rposition(|r| (r.pdate.0, r.rdata) == key)
        };
        if let Some(pos) = pos {
            rows[pos].cnt += count;
            return false;
        }
        if let Some(row_idx) = &mut self.row_idx {
            row_idx.insert(key, rows.len() as u32);
        }
        rows.push(DailyRow {
            pdate: day,
            rdata: idx,
            cnt: count,
        });
        true
    }
}

#[derive(Debug)]
struct Shard {
    /// This shard's index, for trace labels and per-shard stats.
    idx: usize,
    dir: PathBuf,
    /// FNV-keyed: ingest does two lookups per observed row and SipHash
    /// was a measurable slice of single-core ingest wall time.
    table: HashMap<Fqdn, Entry, FnvBuildHasher>,
    /// Distinct `(fqdn, rdata, pdate)` keys.
    rows: usize,
    /// Observations since the last write.
    pending: usize,
    /// Lifetime write count through this handle.
    flushes: u64,
    /// Wall nanoseconds spent writing.
    flush_ns: u64,
    /// Duration of every individual write, for tail-latency (p99)
    /// accounting in the gate report.
    flush_samples_ns: Vec<u64>,
    /// Segment bytes written by this shard.
    bytes_written: u64,
}

impl Shard {
    fn new(idx: usize, dir: PathBuf) -> Shard {
        Shard {
            idx,
            dir,
            table: HashMap::default(),
            rows: 0,
            pending: 0,
            flushes: 0,
            flush_ns: 0,
            flush_samples_ns: Vec::new(),
            bytes_written: 0,
        }
    }

    /// Merge a batch of rows sharing one fqdn into the table on the
    /// exact `(pdate, rdata)` key: the table lookup is paid once per
    /// batch instead of once per row. Zero counts are skipped. Returns
    /// the number of rows observed.
    fn observe_rows<'r>(
        &mut self,
        fqdn: &Fqdn,
        rows: impl Iterator<Item = (&'r Rdata, DayStamp, u64)>,
    ) -> u64 {
        let mut observed = 0u64;
        let mut new_rows = 0usize;
        if !self.table.contains_key(fqdn) {
            self.table.insert(fqdn.clone(), Entry::default());
        }
        let entry = self.table.get_mut(fqdn).expect("key just ensured");
        for (rdata, day, count) in rows {
            if count == 0 {
                continue;
            }
            observed += 1;
            new_rows += usize::from(entry.merge(rdata, day, count));
        }
        self.rows += new_rows;
        self.pending += observed as usize;
        observed
    }

    /// The store's one write: encode the whole in-memory table as one
    /// sorted segment and [`write_atomic`] it over the shard's segment
    /// file. A no-op when nothing was observed since the last write; a
    /// failed write leaves the observations pending, so the next seal
    /// retries it.
    fn seal(&mut self) -> Result<(), StoreError> {
        if self.pending == 0 {
            return Ok(());
        }
        let start = Instant::now();
        let _trace = fw_obs::trace_span_arg("store/seal", self.idx as u64);
        let mut builder = SegmentBuilder::for_distinct_fqdns(self.table.len(), self.rows);
        for (fqdn, entry) in &self.table {
            let table = &entry.table;
            // Table keys are distinct, so the map-free per-fqdn push
            // applies; the builder borrows every name and rdata from
            // the table, so the seal copies none of them.
            builder.push_fqdn_rows(
                fqdn,
                table
                    .rows
                    .iter()
                    .map(|row| (table.rdata(row), row.pdate, row.cnt)),
            );
        }
        let Some(bytes) = builder.finish() else {
            return Ok(());
        };
        write_atomic(&self.dir.join(SEGMENT), &bytes)?;
        self.pending = 0;
        let elapsed_ns = start.elapsed().as_nanos() as u64;
        self.flushes += 1;
        self.flush_ns += elapsed_ns;
        self.flush_samples_ns.push(elapsed_ns);
        self.bytes_written += bytes.len() as u64;
        fw_obs::histogram_record!("fw.store.flush_us", elapsed_ns / 1_000);
        fw_obs::counter_inc!("fw.store.segments_written");
        fw_obs::counter_add!("fw.store.bytes_written", bytes.len() as u64);
        Ok(())
    }
}

/// Durably replace `path` with `bytes`: write `.tmp-<name>` beside it,
/// sync it, rename it over `path`, and sync the directory so the rename
/// itself survives a power cut. A crash leaves the old file or the new
/// one whole, and the next write truncates a stale temp file. The
/// superblock and every segment are written this way.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let name = path.file_name().expect("a store file name");
    let tmp = path.with_file_name(format!(".tmp-{}", name.to_string_lossy()));
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)?;
    std::fs::File::open(path.parent().expect("a store file's directory"))?.sync_all()?;
    Ok(())
}

/// Persistent, sharded PDNS store: one in-memory table and one segment
/// file per shard.
///
/// Implements [`PdnsBackend`], so the whole measurement pipeline runs
/// against it exactly as against the in-memory [`fw_dns::pdns::PdnsStore`].
pub struct DiskStore {
    dir: PathBuf,
    shards: Vec<Mutex<Shard>>,
    flush_rows: usize,
    read_only: bool,
    /// First error from a threshold write inside `observe_count` (which
    /// has no error channel); surfaced by the next `seal`/`seal_shard`.
    deferred_err: Mutex<Option<StoreError>>,
}

impl DiskStore {
    /// Create a fresh store directory. Fails if one already exists there.
    pub fn create(dir: &Path, config: StoreConfig) -> Result<DiskStore, StoreError> {
        let shard_count = config.shards.clamp(1, 4096);
        if dir.join(SUPERBLOCK).exists() {
            return Err(StoreError::AlreadyExists(dir.to_path_buf()));
        }
        std::fs::create_dir_all(dir)?;
        let mut superblock = Vec::with_capacity(24);
        superblock.extend_from_slice(SUPER_MAGIC);
        superblock.extend_from_slice(&SUPER_VERSION.to_le_bytes());
        superblock.extend_from_slice(&(shard_count as u32).to_le_bytes());
        superblock.extend_from_slice(&0u32.to_le_bytes()); // flags
        superblock.extend_from_slice(&crate::crc32(&superblock).to_le_bytes());
        write_atomic(&dir.join(SUPERBLOCK), &superblock)?;

        let mut shards = Vec::with_capacity(shard_count);
        for i in 0..shard_count {
            let shard_dir = dir.join(format!("shard-{i:03}"));
            std::fs::create_dir_all(&shard_dir)?;
            shards.push(Mutex::new(Shard::new(i, shard_dir)));
        }
        // Make the shard directories' entries durable.
        std::fs::File::open(dir)?.sync_all()?;
        Ok(DiskStore {
            dir: dir.to_path_buf(),
            shards,
            flush_rows: config.flush_rows,
            read_only: false,
            deferred_err: Mutex::new(None),
        })
    }

    /// Open an existing store for further writes.
    pub fn open(dir: &Path) -> Result<DiskStore, StoreError> {
        Self::open_inner(dir, false)
    }

    /// Open an existing store read-only (the snapshot replay path):
    /// `observe_count` panics rather than silently mutating a snapshot.
    pub fn open_read_only(dir: &Path) -> Result<DiskStore, StoreError> {
        Self::open_inner(dir, true)
    }

    fn open_inner(dir: &Path, read_only: bool) -> Result<DiskStore, StoreError> {
        let _span = fw_obs::span("store/open");
        let shard_count = read_superblock(dir)?;

        // Shards are independent on disk, so load them concurrently —
        // on a multi-core host this takes open from O(total rows) to
        // O(largest shard).
        let shards = fork(shard_count, "", None, |i| {
            Self::load_shard(dir, i).map(Mutex::new)
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;

        Ok(DiskStore {
            dir: dir.to_path_buf(),
            shards,
            flush_rows: StoreConfig::default().flush_rows,
            read_only,
            deferred_err: Mutex::new(None),
        })
    }

    /// Read one shard's segment back into an in-memory table. Each fqdn
    /// is one run with unique keys, so its name moves out of the
    /// segment's dictionary into a new entry, and its rows append
    /// without the merge index (an observe that touches a large entry
    /// later builds it).
    fn load_shard(dir: &Path, i: usize) -> Result<Shard, StoreError> {
        let mut shard = Shard::new(i, dir.join(format!("shard-{i:03}")));
        let Some(path) = shard_segment(dir, i)? else {
            return Ok(shard);
        };
        read_runs(&path, &mut |fqdn, rows, _, rdatas| {
            let table = &mut shard.table.entry(fqdn).or_default().table;
            table.rows.reserve(rows.len());
            for row in rows {
                let rdata = table.intern(&rdatas[row.rdata as usize]);
                table.rows.push(DailyRow {
                    pdate: row.pdate,
                    rdata,
                    cnt: row.cnt,
                });
            }
            shard.rows += rows.len();
        })?;
        Ok(shard)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, fqdn: &Fqdn) -> MutexGuard<'_, Shard> {
        // FNV-1a, stable across processes (unlike SipHash with a random
        // key) so a reopened store shards identically.
        let h = fw_types::fnv::fnv1a(fqdn.as_str().as_bytes());
        self.shards[(h % self.shards.len() as u64) as usize].lock()
    }

    /// Record `count` observations. Lock-striped: concurrent callers on
    /// different shards proceed in parallel.
    pub fn observe_count(&self, fqdn: &Fqdn, rdata: &Rdata, day: DayStamp, count: u64) {
        self.observe_rows(fqdn, std::iter::once((rdata, day, count)));
    }

    /// Record a batch of observations sharing one fqdn under a single
    /// shard lock. Once a shard holds `flush_rows` observations since
    /// its last write, it is sealed again; the check runs once per
    /// batch, which can only shift *when* that write happens, never
    /// the merged row content.
    pub fn observe_rows<'r>(
        &self,
        fqdn: &Fqdn,
        rows: impl Iterator<Item = (&'r Rdata, DayStamp, u64)>,
    ) {
        let mut rows = rows.filter(|(_, _, c)| *c > 0).peekable();
        if rows.peek().is_none() {
            return;
        }
        assert!(
            !self.read_only,
            "observe_rows on a read-only snapshot store"
        );
        let mut shard = self.shard_of(fqdn);
        let observed = shard.observe_rows(fqdn, rows);
        fw_obs::counter_add!("fw.store.ingest.rows", observed);
        // After a failed write the rows stay pending; the next `seal`
        // reports the error and retries, not every later batch.
        if self.flush_rows > 0
            && shard.pending >= self.flush_rows
            && self.deferred_err.lock().is_none()
        {
            if let Err(e) = shard.seal() {
                self.deferred_err.lock().get_or_insert(e);
            }
        }
    }

    /// [`seal_shard`](Self::seal_shard) every shard concurrently (shards
    /// write independent files): afterwards each shard's segment holds
    /// its whole table, which is what reopening and the streaming scan
    /// read.
    pub fn seal(&self) -> Result<(), StoreError> {
        let _span = fw_obs::span("store/seal");
        fork(self.shards.len(), "", None, |shard| self.seal_shard(shard))
            .into_iter()
            .collect()
    }

    /// Seal one shard: rewrite its segment from the whole table, unless
    /// nothing was observed since its last write. The per-shard half of
    /// [`seal`](Self::seal): the fused pipeline seals shards individually
    /// so identify/usage can consume a sealed shard while later shards
    /// are still sealing. Also surfaces any deferred threshold-write
    /// error.
    pub fn seal_shard(&self, shard: usize) -> Result<(), StoreError> {
        if let Some(e) = self.deferred_err.lock().take() {
            return Err(e);
        }
        if self.read_only {
            return Ok(());
        }
        let _trace = fw_obs::trace_span_arg("store/seal_shard", shard as u64);
        self.shards[shard].lock().seal()
    }

    /// Drop one shard's in-memory table, keeping its on-disk segment
    /// and write accounting. After release, table reads (aggregates,
    /// `for_each_*`) see the shard as empty — only ingest-then-scan
    /// pipelines that re-read sealed shards from disk should call this;
    /// they do it to bound peak RSS to roughly one shard instead of the
    /// whole store.
    pub fn release_shard_table(&self, shard: usize) {
        let mut s = self.shards[shard].lock();
        assert_eq!(
            s.pending, 0,
            "release_shard_table on a shard with unwritten rows"
        );
        s.table = HashMap::default();
        s.rows = 0;
    }

    /// One shard's [`ShardIngestStats`], for callers that seal and
    /// release shards individually and need the counts before the table
    /// is dropped.
    pub fn shard_stats(&self, shard: usize) -> ShardIngestStats {
        stats_of(&self.shards[shard].lock())
    }
}

fn stats_of(s: &Shard) -> ShardIngestStats {
    let flush_p99_ns = if s.flush_samples_ns.is_empty() {
        0
    } else {
        let mut sorted = s.flush_samples_ns.clone();
        sorted.sort_unstable();
        sorted[(sorted.len() * 99).div_ceil(100).saturating_sub(1)]
    };
    ShardIngestStats {
        shard: s.idx,
        fqdns: s.table.len(),
        rows: s.rows,
        flushes: s.flushes,
        flush_ns: s.flush_ns,
        flush_p99_ns,
        bytes_written: s.bytes_written,
        segments: usize::from(s.dir.join(SEGMENT).is_file()),
    }
}

/// Per-shard ingest accounting, surfaced in `pipeline_gate`'s JSON so
/// the bench regression gate can localize IO/skew regressions to a
/// shard instead of a whole stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardIngestStats {
    pub shard: usize,
    /// Distinct fqdns resident in the shard table.
    pub fqdns: usize,
    /// Distinct `(fqdn, rdata, pdate)` rows.
    pub rows: usize,
    /// Segment writes (`seal` or threshold) through this handle.
    pub flushes: u64,
    /// Wall nanoseconds spent in those writes.
    pub flush_ns: u64,
    /// p99 of individual write durations through this handle (0 if the
    /// shard was never written).
    pub flush_p99_ns: u64,
    /// Segment bytes written through this handle.
    pub bytes_written: u64,
    /// Segment files on disk: 1 once the shard was written, else 0.
    pub segments: usize,
}

/// Read and verify a store directory's superblock; returns the shard
/// count.
pub(crate) fn read_superblock(dir: &Path) -> Result<usize, StoreError> {
    let superblock = std::fs::read(dir.join(SUPERBLOCK))?;
    if superblock.len() != 24 || &superblock[..8] != SUPER_MAGIC {
        return Err(StoreError::Corrupt(format!(
            "{}: bad superblock",
            dir.display()
        )));
    }
    let crc = u32::from_le_bytes(superblock[20..24].try_into().expect("4 bytes"));
    if crate::crc32(&superblock[..20]) != crc {
        return Err(StoreError::Corrupt(format!(
            "{}: superblock CRC mismatch",
            dir.display()
        )));
    }
    let version = u32::from_le_bytes(superblock[8..12].try_into().expect("4 bytes"));
    if version != SUPER_VERSION {
        return Err(StoreError::Version {
            found: u64::from(version),
            expected: u64::from(SUPER_VERSION),
        });
    }
    let shard_count = u32::from_le_bytes(superblock[12..16].try_into().expect("4 bytes")) as usize;
    if !(1..=4096).contains(&shard_count) {
        return Err(StoreError::Corrupt(format!(
            "{}: implausible shard count {shard_count}",
            dir.display()
        )));
    }
    Ok(shard_count)
}

/// Shard `shard`'s segment file, or `None` if the shard was never
/// written. Any other `seg-*.fws` file in the shard directory (a store
/// from a multi-segment writer, or a stray copy) is
/// [`StoreError::Corrupt`] naming that file, so such a shard is
/// refused, never half-read. Shared by `DiskStore::load_shard` and the
/// streaming scan.
pub(crate) fn shard_segment(dir: &Path, shard: usize) -> Result<Option<PathBuf>, StoreError> {
    let shard_dir = dir.join(format!("shard-{shard:03}"));
    let mut found = None;
    if shard_dir.is_dir() {
        for entry in std::fs::read_dir(&shard_dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == SEGMENT {
                found = Some(path);
            } else if name.starts_with("seg-") && name.ends_with(".fws") {
                return Err(StoreError::Corrupt(format!(
                    "{}: unexpected segment file; a shard holds only {SEGMENT}",
                    path.display()
                )));
            }
        }
    }
    Ok(found)
}

impl PdnsBackend for DiskStore {
    fn observe_count(&mut self, fqdn: &Fqdn, rdata: &Rdata, day: DayStamp, count: u64) {
        DiskStore::observe_count(self, fqdn, rdata, day, count);
    }

    fn fqdn_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().table.len()).sum()
    }

    fn record_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().rows).sum()
    }

    fn for_each_fqdn(&self, f: &mut dyn FnMut(&Fqdn)) {
        // Snapshot each shard's keys before invoking the callback:
        // consumers routinely call `aggregate` from inside it (the
        // identification stage does), which would re-take the shard lock.
        for shard in &self.shards {
            let keys: Vec<Fqdn> = shard.lock().table.keys().cloned().collect();
            for fqdn in &keys {
                f(fqdn);
            }
        }
    }

    fn for_each_row(&self, f: &mut dyn FnMut(&Fqdn, RecordType, &Rdata, DayStamp, u64)) {
        for shard in &self.shards {
            let shard = shard.lock();
            for (fqdn, entry) in &shard.table {
                let table = &entry.table;
                for row in &table.rows {
                    let rdata = table.rdata(row);
                    f(fqdn, rdata.rtype(), rdata, row.pdate, row.cnt);
                }
            }
        }
    }

    fn aggregate(&self, fqdn: &Fqdn) -> Option<FqdnAggregate> {
        let shard = self.shard_of(fqdn);
        Some(shard.table.get(fqdn)?.table.aggregate(fqdn))
    }

    fn for_each_record_of(
        &self,
        fqdn: &Fqdn,
        f: &mut dyn FnMut(RecordType, &Rdata, DayStamp, u64),
    ) {
        let shard = self.shard_of(fqdn);
        let Some(entry) = shard.table.get(fqdn) else {
            return;
        };
        for (row, rdata) in entry.table.sorted() {
            f(rdata.rtype(), rdata, row.pdate, row.cnt);
        }
    }

    /// Shard-parallel override: each worker sweeps whole shards under
    /// one lock acquisition instead of re-hashing every fqdn through
    /// `aggregate`. The final sort by fqdn makes the output identical to
    /// the provided implementation at any worker count.
    fn par_aggregates(&self, workers: usize) -> Vec<FqdnAggregate> {
        let parts = par_map(
            &self.shards,
            workers,
            "store/agg_worker",
            None,
            |_, shard| {
                let shard = shard.lock();
                shard
                    .table
                    .iter()
                    .map(|(fqdn, entry)| entry.table.aggregate(fqdn))
                    .collect::<Vec<_>>()
            },
        );
        let mut out: Vec<FqdnAggregate> = parts.into_iter().flatten().collect();
        out.sort_by(|a, b| a.fqdn.cmp(&b.fqdn));
        out
    }
}
