//! The persistent sharded store.
//!
//! Layout of a store directory:
//!
//! ```text
//! <dir>/superblock.fws          versioned superblock (magic, shard count, CRC)
//! <dir>/shard-000/seg-00000001.fws
//! <dir>/shard-000/seg-00000002.fws
//! <dir>/shard-001/...
//! ```
//!
//! Ingestion is lock-striped: an fqdn hashes (FNV-1a, stable across
//! processes) to one of N shards, each behind its own mutex, so
//! concurrent sensors contend only when they touch the same shard.
//! Each shard keeps a merged in-memory table (the query view) plus
//! per-row flush watermarks; `flush` writes the unflushed deltas as one
//! immutable sorted segment. Reopening a store replays all segments,
//! summing duplicate `(fqdn, rdata, pdate)` keys, which makes segments
//! append-only and crash-tolerant: a half-written segment fails its CRC
//! and is reported, never silently merged. `seal` rewrites each shard's
//! whole table as a single segment and deletes the rest — the shape
//! the streaming scan reads.

use crate::segment::{read_segment, SegmentBuilder};
use crate::{StoreConfig, StoreError};
use fw_analysis::par::{fork, par_map};
use fw_dns::pdns::{FqdnAggregate, PdnsBackend};
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

#[derive(Debug, Clone, Copy)]
struct Row {
    pdate: i64,
    rdata: u32,
    cnt: u64,
    /// How much of `cnt` is already durable in some segment.
    flushed: u64,
}

#[derive(Debug, Default)]
struct Entry {
    rdatas: Vec<Rdata>,
    rdata_idx: HashMap<Rdata, u32, FnvBuildHasher>,
    rows: Vec<Row>,
    /// `(pdate, rdata_idx) → position in rows`: exact-key merge.
    row_idx: HashMap<(i64, u32), u32, FnvBuildHasher>,
    dirty: bool,
}

impl Entry {
    fn intern(&mut self, rdata: &Rdata) -> u32 {
        if let Some(&i) = self.rdata_idx.get(rdata) {
            return i;
        }
        let i = self.rdatas.len() as u32;
        self.rdatas.push(rdata.clone());
        self.rdata_idx.insert(rdata.clone(), i);
        i
    }

    /// Rebuild `row_idx` from `rows`. Segment replay skips building the
    /// merge index for fqdns loaded from a single segment (the common
    /// case after a seal); anything that merges into an existing entry
    /// calls this first.
    fn ensure_row_idx(&mut self) {
        if self.row_idx.is_empty() && !self.rows.is_empty() {
            self.row_idx = self
                .rows
                .iter()
                .enumerate()
                .map(|(i, r)| ((r.pdate, r.rdata), i as u32))
                .collect();
        }
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
    /// Rows with an unflushed delta.
    pending: usize,
    /// Fqdns with unflushed deltas (each appears once: guarded by
    /// `Entry::dirty`).
    dirty: Vec<Fqdn>,
    next_seg: u64,
    segments: Vec<PathBuf>,
    /// Lifetime flush count (segments written by `flush`).
    flushes: u64,
    /// Wall nanoseconds spent inside `flush`.
    flush_ns: u64,
    /// Duration of every individual flush, for tail-latency (p99)
    /// accounting in the gate report.
    flush_samples_ns: Vec<u64>,
    /// Segment bytes written by this shard (flush + seal).
    bytes_written: u64,
}

impl Shard {
    /// Merge a batch of rows sharing one fqdn into the table on the
    /// exact `(pdate, rdata)` key: the table lookup and dirty
    /// bookkeeping are paid once per batch instead of once per row.
    /// Zero counts are skipped. Returns the number of rows observed.
    fn observe_rows<'r>(
        &mut self,
        fqdn: &Fqdn,
        rows: impl Iterator<Item = (&'r Rdata, DayStamp, u64)>,
    ) -> u64 {
        let mut observed = 0u64;
        let mut new_rows = 0usize;
        let mut newly_pending = 0usize;
        let mut any = false;
        if !self.table.contains_key(fqdn) {
            self.table.insert(fqdn.clone(), Entry::default());
        }
        let entry = self.table.get_mut(fqdn).expect("key just ensured");
        entry.ensure_row_idx();
        for (rdata, day, count) in rows {
            if count == 0 {
                continue;
            }
            any = true;
            observed += 1;
            let idx = entry.intern(rdata);
            let key = (day.0, idx);
            let was_clean;
            match entry.row_idx.get(&key) {
                Some(&pos) => {
                    let row = &mut entry.rows[pos as usize];
                    was_clean = row.cnt == row.flushed;
                    row.cnt += count;
                }
                None => {
                    entry.row_idx.insert(key, entry.rows.len() as u32);
                    entry.rows.push(Row {
                        pdate: day.0,
                        rdata: idx,
                        cnt: count,
                        flushed: 0,
                    });
                    new_rows += 1;
                    was_clean = true;
                }
            }
            if was_clean {
                newly_pending += 1;
            }
        }
        if any && !entry.dirty {
            entry.dirty = true;
            self.dirty.push(fqdn.clone());
        }
        self.rows += new_rows;
        self.pending += newly_pending;
        observed
    }

    /// Write unflushed deltas as one segment. Returns bytes written.
    fn flush(&mut self) -> Result<u64, StoreError> {
        if self.pending == 0 {
            self.dirty.clear();
            return Ok(0);
        }
        let start = Instant::now();
        let _trace = fw_obs::trace_span_arg("store/flush", self.idx as u64);
        // `dirty`/`pending` bound the dictionary and row counts exactly,
        // so the builder never regrows mid-flush — this was the shard
        // flush tail-latency outlier at scale 1.0.
        let mut builder = SegmentBuilder::with_capacity(self.dirty.len(), self.pending);
        for fqdn in self.dirty.drain(..) {
            let entry = self.table.get_mut(&fqdn).expect("dirty fqdn in table");
            entry.dirty = false;
            for row in &mut entry.rows {
                if row.cnt > row.flushed {
                    builder.push(
                        &fqdn,
                        &entry.rdatas[row.rdata as usize],
                        DayStamp(row.pdate),
                        row.cnt - row.flushed,
                    );
                    row.flushed = row.cnt;
                }
            }
        }
        self.pending = 0;
        let Some(bytes) = builder.finish() else {
            return Ok(0);
        };
        let path = self.write_segment(&bytes)?;
        self.segments.push(path);
        self.flushes += 1;
        let elapsed_ns = start.elapsed().as_nanos() as u64;
        self.flush_ns += elapsed_ns;
        self.flush_samples_ns.push(elapsed_ns);
        self.bytes_written += bytes.len() as u64;
        fw_obs::counter_inc!("fw.store.segments_written");
        fw_obs::counter_add!("fw.store.bytes_written", bytes.len() as u64);
        fw_obs::histogram_record!("fw.store.flush_us", start.elapsed().as_micros() as u64);
        Ok(bytes.len() as u64)
    }

    /// Terminal write for an ingest-then-scan pipeline: encode the whole
    /// in-memory table — flushed rows and pending deltas alike — as one
    /// segment and drop the incremental segments.
    fn seal(&mut self) -> Result<(), StoreError> {
        if self.pending == 0 && self.segments.len() < 2 {
            self.dirty.clear();
            return Ok(());
        }
        let start = Instant::now();
        let _trace = fw_obs::trace_span_arg("store/seal", self.idx as u64);
        let had_pending = self.pending > 0;
        let mut builder = SegmentBuilder::for_distinct_fqdns(self.table.len(), self.rows);
        for (fqdn, entry) in &mut self.table {
            entry.dirty = false;
            let rdatas = &entry.rdatas;
            // Table keys are distinct, so the map-free per-fqdn push
            // applies (one dictionary clone per fqdn, no dedupe hashes).
            builder.push_fqdn_rows(
                fqdn,
                entry.rows.iter_mut().map(|row| {
                    row.flushed = row.cnt;
                    (&rdatas[row.rdata as usize], DayStamp(row.pdate), row.cnt)
                }),
            );
        }
        self.dirty.clear();
        self.pending = 0;
        let Some(bytes) = builder.finish() else {
            return Ok(());
        };
        let path = self.write_segment(&bytes)?;
        for old in std::mem::take(&mut self.segments) {
            std::fs::remove_file(&old)?;
        }
        self.segments.push(path);
        self.bytes_written += bytes.len() as u64;
        // The seal write retires the pending deltas, so it counts as a
        // flush in the ingest stats (tail-latency accounting included).
        if had_pending {
            let elapsed_ns = start.elapsed().as_nanos() as u64;
            self.flushes += 1;
            self.flush_ns += elapsed_ns;
            self.flush_samples_ns.push(elapsed_ns);
            fw_obs::histogram_record!("fw.store.flush_us", start.elapsed().as_micros() as u64);
        }
        fw_obs::counter_inc!("fw.store.segments_written");
        fw_obs::counter_add!("fw.store.bytes_written", bytes.len() as u64);
        Ok(())
    }

    /// Durably write `bytes` as the next segment (tmp file + rename).
    fn write_segment(&mut self, bytes: &[u8]) -> Result<PathBuf, StoreError> {
        let name = format!("seg-{:08}.fws", self.next_seg);
        self.next_seg += 1;
        let tmp = self.dir.join(format!(".tmp-{name}"));
        let path = self.dir.join(name);
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }
}

/// Persistent, sharded, append-only PDNS store.
///
/// Implements [`PdnsBackend`], so the whole measurement pipeline runs
/// against it exactly as against the in-memory [`fw_dns::pdns::PdnsStore`].
pub struct DiskStore {
    dir: PathBuf,
    shards: Vec<Mutex<Shard>>,
    flush_rows: usize,
    read_only: bool,
    /// First error from an auto-flush inside `observe_count` (which has
    /// no error channel); surfaced by the next explicit `flush`.
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
        std::fs::write(dir.join(SUPERBLOCK), &superblock)?;

        let mut shards = Vec::with_capacity(shard_count);
        for i in 0..shard_count {
            let shard_dir = dir.join(format!("shard-{i:03}"));
            std::fs::create_dir_all(&shard_dir)?;
            shards.push(Mutex::new(Shard {
                idx: i,
                dir: shard_dir,
                table: HashMap::default(),
                rows: 0,
                pending: 0,
                dirty: Vec::new(),
                next_seg: 1,
                segments: Vec::new(),
                flushes: 0,
                flush_ns: 0,
                flush_samples_ns: Vec::new(),
                bytes_written: 0,
            }));
        }
        Ok(DiskStore {
            dir: dir.to_path_buf(),
            shards,
            flush_rows: config.flush_rows,
            read_only: false,
            deferred_err: Mutex::new(None),
        })
    }

    /// Open an existing store for appending.
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

        // Shards are independent on disk, so replay them concurrently —
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

    /// Replay one shard directory's segments into an in-memory table.
    fn load_shard(dir: &Path, i: usize) -> Result<Shard, StoreError> {
        let shard_dir = dir.join(format!("shard-{i:03}"));
        let seg_paths = shard_segment_paths(dir, i)?;
        let next_seg = seg_paths
            .iter()
            .filter_map(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .and_then(|n| n[4..n.len() - 4].parse::<u64>().ok())
            })
            .max()
            .unwrap_or(0)
            + 1;

        let mut shard = Shard {
            idx: i,
            dir: shard_dir,
            table: HashMap::default(),
            rows: 0,
            pending: 0,
            dirty: Vec::new(),
            next_seg,
            segments: seg_paths.clone(),
            flushes: 0,
            flush_ns: 0,
            flush_samples_ns: Vec::new(),
            bytes_written: 0,
        };
        for path in &seg_paths {
            let seg = read_segment(path)?;
            // Segment rows are sorted, so each fqdn forms one contiguous
            // run: resolve the table entry once per run, not per row.
            let rows = &seg.rows;
            let mut r = 0;
            while r < rows.len() {
                let fqdn_idx = rows[r].fqdn;
                let mut end = r + 1;
                while end < rows.len() && rows[end].fqdn == fqdn_idx {
                    end += 1;
                }
                let fqdn = &seg.fqdns[fqdn_idx as usize];
                let entry = shard.table.entry(fqdn.clone()).or_default();
                if entry.rows.is_empty() {
                    // First segment touching this fqdn. A builder-written
                    // run carries unique (pdate, rdata) keys, so append
                    // without maintaining the merge index; it is rebuilt
                    // on demand if another segment (or a later observe)
                    // touches this entry.
                    entry.rows.reserve(end - r);
                    for row in &rows[r..end] {
                        let idx = entry.intern(&seg.rdatas[row.rdata as usize]);
                        entry.rows.push(Row {
                            pdate: row.pdate.0,
                            rdata: idx,
                            cnt: row.cnt,
                            flushed: row.cnt,
                        });
                    }
                    shard.rows += end - r;
                } else {
                    entry.ensure_row_idx();
                    for row in &rows[r..end] {
                        let idx = entry.intern(&seg.rdatas[row.rdata as usize]);
                        let key = (row.pdate.0, idx);
                        match entry.row_idx.get(&key) {
                            Some(&pos) => {
                                let q = &mut entry.rows[pos as usize];
                                q.cnt += row.cnt;
                                q.flushed += row.cnt;
                            }
                            None => {
                                entry.row_idx.insert(key, entry.rows.len() as u32);
                                entry.rows.push(Row {
                                    pdate: row.pdate.0,
                                    rdata: idx,
                                    cnt: row.cnt,
                                    flushed: row.cnt,
                                });
                                shard.rows += 1;
                            }
                        }
                    }
                }
                r = end;
            }
        }
        Ok(shard)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total on-disk segment files across shards.
    pub fn segment_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().segments.len()).sum()
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
    /// shard lock. The flush-threshold check runs once per batch, which
    /// can only shift *where* a flush-mode store cuts its segments,
    /// never the merged row content.
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
        if self.flush_rows > 0 && shard.pending >= self.flush_rows {
            if let Err(e) = shard.flush() {
                self.deferred_err.lock().get_or_insert(e);
            }
        }
    }

    /// Flush all unflushed deltas to segments. Also surfaces any error an
    /// earlier auto-flush hit inside `observe_count`.
    pub fn flush(&self) -> Result<u64, StoreError> {
        if let Some(e) = self.deferred_err.lock().take() {
            return Err(e);
        }
        if self.read_only {
            return Ok(0);
        }
        let _span = fw_obs::span("store/flush");
        // Shards flush to independent files: do them concurrently.
        fork(self.shards.len(), "", None, |i| {
            self.shards[i].lock().flush()
        })
        .into_iter()
        .sum()
    }

    /// [`seal_shard`](Self::seal_shard) every shard concurrently, as
    /// `flush` does: afterwards each shard is one sorted segment holding
    /// its whole table, which is what the streaming scan reads.
    pub fn seal(&self) -> Result<(), StoreError> {
        let _span = fw_obs::span("store/seal");
        fork(self.shards.len(), "", None, |shard| self.seal_shard(shard))
            .into_iter()
            .collect()
    }

    /// Seal one shard, leaving it a single sorted segment ready for the
    /// streaming scan. The per-shard half of [`seal`](Self::seal): the
    /// fused pipeline seals shards individually so identify/usage can
    /// consume a sealed shard while later shards are still sealing.
    /// Also surfaces any deferred auto-flush error.
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

    /// Drop one shard's in-memory table, keeping its on-disk segments
    /// and flush accounting. After release, table reads (aggregates,
    /// `for_each_*`) see the shard as empty — only ingest-then-scan
    /// pipelines that re-read sealed shards from disk should call this;
    /// they do it to bound peak RSS to roughly one shard instead of the
    /// whole store.
    pub fn release_shard_table(&self, shard: usize) {
        let mut s = self.shards[shard].lock();
        assert_eq!(
            s.pending, 0,
            "release_shard_table on a shard with unflushed rows"
        );
        s.table = HashMap::default();
        s.dirty = Vec::new();
        s.rows = 0;
    }

    /// One shard's [`ShardIngestStats`], for callers that seal and
    /// release shards individually and need the counts before the table
    /// is dropped.
    pub fn shard_stats(&self, shard: usize) -> ShardIngestStats {
        stats_of(&self.shards[shard].lock())
    }

    fn aggregate_inner(&self, fqdn: &Fqdn) -> Option<FqdnAggregate> {
        let shard = self.shard_of(fqdn);
        let entry = shard.table.get(fqdn)?;
        Some(aggregate_entry(fqdn, entry))
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
        segments: s.segments.len(),
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
    /// Segments written by `flush` through this handle.
    pub flushes: u64,
    /// Wall nanoseconds spent in `flush` through this handle.
    pub flush_ns: u64,
    /// p99 of individual flush durations through this handle (0 if the
    /// shard never flushed).
    pub flush_p99_ns: u64,
    /// Segment bytes written (flush + seal) through this handle.
    pub bytes_written: u64,
    /// Segment files currently on disk.
    pub segments: usize,
}

/// Read and verify a store directory's superblock; returns the shard
/// count. Shared by `DiskStore::open` and the streaming snapshot scan,
/// which reads segments without building shard tables.
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

/// List one shard directory's segment files in replay order. Shared by
/// `DiskStore::load_shard` and the streaming snapshot scan.
pub(crate) fn shard_segment_paths(dir: &Path, shard: usize) -> Result<Vec<PathBuf>, StoreError> {
    let shard_dir = dir.join(format!("shard-{shard:03}"));
    let mut seg_paths: Vec<PathBuf> = Vec::new();
    if shard_dir.is_dir() {
        for entry in std::fs::read_dir(&shard_dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("seg-") && name.ends_with(".fws") {
                seg_paths.push(path);
            }
        }
    }
    seg_paths.sort();
    Ok(seg_paths)
}

/// Aggregate one in-memory entry (shared by the point lookup and the
/// per-shard parallel sweep).
fn aggregate_entry(fqdn: &Fqdn, entry: &Entry) -> FqdnAggregate {
    let mut first = i64::MAX;
    let mut last = i64::MIN;
    let mut total = 0u64;
    let mut dist: Vec<u64> = vec![0; entry.rdatas.len()];
    let mut days: Vec<i64> = Vec::with_capacity(entry.rows.len());
    for row in &entry.rows {
        first = first.min(row.pdate);
        last = last.max(row.pdate);
        total += row.cnt;
        dist[row.rdata as usize] += row.cnt;
        days.push(row.pdate);
    }
    days.sort_unstable();
    days.dedup();
    let mut rdata_dist: Vec<(Rdata, u64)> = entry.rdatas.iter().cloned().zip(dist).collect();
    rdata_dist.sort_by(|a, b| a.0.cmp(&b.0));
    FqdnAggregate {
        fqdn: fqdn.clone(),
        first_seen_all: DayStamp(first),
        last_seen_all: DayStamp(last),
        days_count: days.len() as u32,
        total_request_cnt: total,
        rdata_dist,
    }
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
                for row in &entry.rows {
                    let rdata = &entry.rdatas[row.rdata as usize];
                    f(fqdn, rdata.rtype(), rdata, DayStamp(row.pdate), row.cnt);
                }
            }
        }
    }

    fn aggregate(&self, fqdn: &Fqdn) -> Option<FqdnAggregate> {
        self.aggregate_inner(fqdn)
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
        // Canonical `(pdate, rdata text)` order, matching
        // `PdnsStore::records_for`; texts render once per distinct rdata.
        let texts: Vec<String> = entry.rdatas.iter().map(|r| r.text()).collect();
        let mut order: Vec<&Row> = entry.rows.iter().collect();
        order.sort_by(|a, b| {
            (a.pdate, texts[a.rdata as usize].as_str())
                .cmp(&(b.pdate, texts[b.rdata as usize].as_str()))
        });
        for row in order {
            let rdata = &entry.rdatas[row.rdata as usize];
            f(rdata.rtype(), rdata, DayStamp(row.pdate), row.cnt);
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
                    .map(|(fqdn, entry)| aggregate_entry(fqdn, entry))
                    .collect::<Vec<_>>()
            },
        );
        let mut out: Vec<FqdnAggregate> = parts.into_iter().flatten().collect();
        out.sort_by(|a, b| a.fqdn.cmp(&b.fqdn));
        out
    }
}
