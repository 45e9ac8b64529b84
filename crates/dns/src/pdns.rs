//! Passive-DNS store.
//!
//! Mirrors the dataset of paper §3.2: records aggregated at the daily level
//! as `<fqdn, rtype, rdata, first_seen, last_seen, request_cnt, pdate>`
//! tuples, plus the per-fqdn aggregation used throughout §4:
//! `first_seen_all`, `last_seen_all`, `days_count`, `total_request_cnt` and
//! the distribution of resolution results.
//!
//! Rdata values are interned per fqdn, so the memory cost of a row is one
//! day stamp, one small index and one counter — the store comfortably holds
//! full-scale (531k-domain) synthetic worlds.

use crate::resolver::Sensor;
use fw_types::{DayStamp, Fqdn, Rdata, RecordType};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// One materialized PDNS tuple (daily aggregate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PdnsRecord {
    pub fqdn: Fqdn,
    pub rtype: RecordType,
    pub rdata: Rdata,
    /// First observation on `pdate` (day granularity in this store).
    pub first_seen: DayStamp,
    /// Last observation on `pdate`.
    pub last_seen: DayStamp,
    pub request_cnt: u64,
    pub pdate: DayStamp,
}

/// One streamed daily observation — the wire-level unit the sensing
/// daemon (`fw-stream`) ingests and the delta-driven identify/usage
/// updaters in `fw-core` consume. Unlike [`PdnsRecord`] it carries no
/// derived first/last-seen state: it is a raw `(fqdn, rdata, day, cnt)`
/// fact, and replaying any permutation of the same multiset of rows
/// into a [`PdnsBackend`] (or the incremental engines) yields the same
/// aggregates. The record type is derivable via `rdata.rtype()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PdnsRow {
    pub fqdn: Fqdn,
    pub rdata: Rdata,
    pub day: DayStamp,
    pub cnt: u64,
}

#[derive(Debug, Clone, Copy)]
struct DailyRow {
    pdate: DayStamp,
    rdata_idx: u32,
    cnt: u64,
}

#[derive(Debug, Default)]
struct FqdnEntry {
    rdatas: Vec<Rdata>,
    /// rdata → index side table; high-fanout ingress fqdns (anycast
    /// frontends) see hundreds of distinct rdatas, so interning must not
    /// scan `rdatas` linearly per observation.
    rdata_index: HashMap<Rdata, u32>,
    rows: Vec<DailyRow>,
}

impl FqdnEntry {
    fn intern(&mut self, rdata: &Rdata) -> u32 {
        if let Some(&i) = self.rdata_index.get(rdata) {
            return i;
        }
        let i = self.rdatas.len() as u32;
        self.rdatas.push(rdata.clone());
        self.rdata_index.insert(rdata.clone(), i);
        i
    }
}

/// Per-fqdn aggregate (paper §3.2 "key metrics").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FqdnAggregate {
    pub fqdn: Fqdn,
    pub first_seen_all: DayStamp,
    pub last_seen_all: DayStamp,
    /// Number of distinct days with observed resolutions.
    pub days_count: u32,
    pub total_request_cnt: u64,
    /// Distribution of resolution results: `(rdata, total requests)`.
    pub rdata_dist: Vec<(Rdata, u64)>,
}

impl FqdnAggregate {
    /// Lifespan in days, inclusive of both endpoints (≥ 1).
    pub fn lifespan_days(&self) -> i64 {
        self.last_seen_all - self.first_seen_all + 1
    }

    /// Activity density: fraction of lifespan days with observed activity.
    /// Single-day functions have density 1 by definition.
    pub fn activity_density(&self) -> f64 {
        self.days_count as f64 / self.lifespan_days() as f64
    }
}

/// Storage-engine abstraction over PDNS daily aggregates.
///
/// The measurement pipeline (`fw-core`) only needs this narrow, object-safe
/// surface, so it runs unchanged against the in-memory [`PdnsStore`] and the
/// persistent sharded segment store in `fw-store`. Callbacks take
/// `&mut dyn FnMut` so the trait stays object-safe; iteration order is
/// backend-defined and consumers must not rely on it.
///
/// `Sync` is a supertrait: both shipped backends are trivially shareable,
/// and requiring it here lets the provided [`PdnsBackend::par_aggregates`]
/// fan read-only aggregation out across threads for any backend —
/// including through `&dyn PdnsBackend`.
pub trait PdnsBackend: Sync {
    /// Record `count` observations of `fqdn → rdata` on `day`.
    fn observe_count(&mut self, fqdn: &Fqdn, rdata: &Rdata, day: DayStamp, count: u64);

    /// Number of distinct fqdns observed.
    fn fqdn_count(&self) -> usize;

    /// Number of daily-aggregate rows. One `(fqdn, rdata, pdate)` key
    /// may span several rows, and backends split keys differently
    /// ([`PdnsStore`] merges only into the tail run of same-day rows,
    /// the disk store on the exact key), so this is a storage metric,
    /// not an analysis input. Aggregates and content hashes sum a
    /// key's rows and do not depend on the split.
    fn record_count(&self) -> usize;

    /// Visit every observed fqdn (backend-defined order).
    fn for_each_fqdn(&self, f: &mut dyn FnMut(&Fqdn));

    /// Visit every daily row as `(fqdn, rtype, rdata, pdate, request_cnt)`.
    /// The callback must not call back into the same backend (sharded
    /// backends hold a shard lock across the visit); `for_each_fqdn` has
    /// no such restriction — calling [`PdnsBackend::aggregate`] from its
    /// callback is the expected identification-stage pattern.
    fn for_each_row(&self, f: &mut dyn FnMut(&Fqdn, RecordType, &Rdata, DayStamp, u64));

    /// Per-fqdn aggregate (paper §3.2), or `None` if the fqdn is unknown.
    fn aggregate(&self, fqdn: &Fqdn) -> Option<FqdnAggregate>;

    /// Visit one fqdn's daily rows as `(rtype, rdata, pdate, request_cnt)`
    /// in `(pdate, rdata text)` order — exactly the rows and order of
    /// `PdnsStore::records_for`, without allocating owned `PdnsRecord`s.
    /// A no-op for unknown fqdns. Sharded backends may hold a shard lock
    /// across the visit, so the callback must not call back into the same
    /// backend.
    fn for_each_record_of(&self, fqdn: &Fqdn, f: &mut dyn FnMut(RecordType, &Rdata, DayStamp, u64));

    /// All aggregates, sorted by fqdn — deterministic across backends, so
    /// equivalence tests can compare stores element-wise.
    fn all_aggregates(&self) -> Vec<FqdnAggregate> {
        let mut out = Vec::with_capacity(self.fqdn_count());
        self.for_each_fqdn(&mut |fqdn| {
            out.push(self.aggregate(fqdn).expect("fqdn is in the store"));
        });
        out.sort_by(|a, b| a.fqdn.cmp(&b.fqdn));
        out
    }

    /// All observed fqdns, sorted. The deterministic work-list the
    /// parallel aggregation path fans out over.
    fn sorted_fqdns(&self) -> Vec<Fqdn> {
        let mut out = Vec::with_capacity(self.fqdn_count());
        self.for_each_fqdn(&mut |fqdn| out.push(fqdn.clone()));
        out.sort();
        out
    }

    /// [`PdnsBackend::all_aggregates`], computed on up to `workers`
    /// threads. Identical output at any worker count: the work-list is
    /// the sorted fqdn list and `par_map` merges in input order.
    /// Backends with cheaper internal parallelism (per-shard locks)
    /// override this.
    fn par_aggregates(&self, workers: usize) -> Vec<FqdnAggregate> {
        let fqdns = self.sorted_fqdns();
        fw_analysis::par::par_map(&fqdns, workers, "", None, |_, fqdn| {
            self.aggregate(fqdn).expect("fqdn is in the store")
        })
    }
}

/// Order one entry's rows by `(pdate, rdata text)` — the canonical
/// `records_for` order, shared by the owned and visitor read paths.
/// Each interned rdata's text is rendered once; sorting by
/// `rdata.text()` directly would re-allocate the text per comparison.
fn sorted_rows<'e>(rows: &'e [DailyRow], rdatas: &'e [Rdata]) -> Vec<(&'e DailyRow, &'e Rdata)> {
    let texts: Vec<String> = rdatas.iter().map(|r| r.text()).collect();
    let mut order: Vec<&DailyRow> = rows.iter().collect();
    order.sort_by(|a, b| {
        (a.pdate, texts[a.rdata_idx as usize].as_str())
            .cmp(&(b.pdate, texts[b.rdata_idx as usize].as_str()))
    });
    order
        .into_iter()
        .map(|row| (row, &rdatas[row.rdata_idx as usize]))
        .collect()
}

/// The passive-DNS record store.
///
/// Merge contract: one `(fqdn, rdata, pdate)` key may span several
/// rows. [`PdnsStore::observe_count`] merges an observation into the
/// tail run of its fqdn's same-day rows only, so a key observed again
/// after a row for another day starts a new row — the generator's
/// request-total top-up does this, and so do concurrent sensors.
/// `World::generate(WorldConfig::usage(42, 0.1))` holds 344,428 rows
/// for 342,511 distinct keys. Aggregates, the content hash and every
/// figure sum a key's rows, so none of them depends on how a key is
/// split; `record_count` and `records_for` do.
#[derive(Debug, Default)]
pub struct PdnsStore {
    entries: HashMap<Fqdn, FqdnEntry>,
    total_rows: usize,
}

impl PdnsStore {
    pub fn new() -> PdnsStore {
        PdnsStore::default()
    }

    /// Record one observation of `fqdn → rdata` on `day`.
    pub fn observe(&mut self, fqdn: &Fqdn, rdata: &Rdata, day: DayStamp) {
        self.observe_count(fqdn, rdata, day, 1);
    }

    /// Record `count` observations at once (bulk ingestion path used by the
    /// workload generator, which produces daily aggregates directly).
    pub fn observe_count(&mut self, fqdn: &Fqdn, rdata: &Rdata, day: DayStamp, count: u64) {
        if count == 0 {
            return;
        }
        fw_obs::counter_inc!("fw.dns.pdns.rows_ingested");
        // Most rows repeat a known fqdn: copy the key only on insert.
        let entry = match self.entries.get_mut(fqdn) {
            Some(entry) => entry,
            None => self.entries.entry(fqdn.clone()).or_default(),
        };
        let idx = entry.intern(rdata);
        // Merge into the tail run of same-day rows only: a cheap
        // best effort, not a keyed merge (see the type's merge contract).
        for row in entry.rows.iter_mut().rev() {
            if row.pdate != day {
                break;
            }
            if row.rdata_idx == idx {
                row.cnt += count;
                fw_obs::counter_inc!("fw.dns.pdns.dedup_merged");
                return;
            }
        }
        entry.rows.push(DailyRow {
            pdate: day,
            rdata_idx: idx,
            cnt: count,
        });
        self.total_rows += 1;
    }

    /// Number of distinct fqdns observed.
    pub fn fqdn_count(&self) -> usize {
        self.entries.len()
    }

    /// Number of daily-aggregate rows.
    pub fn record_count(&self) -> usize {
        self.total_rows
    }

    /// Iterate all fqdns (arbitrary order).
    pub fn fqdns(&self) -> impl Iterator<Item = &Fqdn> {
        self.entries.keys()
    }

    /// Materialize the records for one fqdn, sorted by `(pdate, rdata)`.
    pub fn records_for(&self, fqdn: &Fqdn) -> Vec<PdnsRecord> {
        let Some(entry) = self.entries.get(fqdn) else {
            return Vec::new();
        };
        sorted_rows(&entry.rows, &entry.rdatas)
            .into_iter()
            .map(|(row, rdata)| PdnsRecord {
                fqdn: fqdn.clone(),
                rtype: rdata.rtype(),
                rdata: rdata.clone(),
                first_seen: row.pdate,
                last_seen: row.pdate,
                request_cnt: row.cnt,
                pdate: row.pdate,
            })
            .collect()
    }

    /// Visit one fqdn's rows in `records_for` order (`(pdate, rdata
    /// text)`) without materializing owned `PdnsRecord`s — the hot-path
    /// replacement for `records_for` in `identify`/`usage`, which only
    /// read each row once.
    pub fn for_each_record_of<F>(&self, fqdn: &Fqdn, mut f: F)
    where
        F: FnMut(RecordType, &Rdata, DayStamp, u64),
    {
        let Some(entry) = self.entries.get(fqdn) else {
            return;
        };
        for (row, rdata) in sorted_rows(&entry.rows, &entry.rdatas) {
            f(rdata.rtype(), rdata, row.pdate, row.cnt);
        }
    }

    /// Move another store's entries into this one. Entry moves are O(1)
    /// per fqdn when the key sets are disjoint (the parallel generator's
    /// shard merge — each fqdn is minted by exactly one shard); colliding
    /// fqdns fall back to row-by-row replay with exact `(pdate, rdata)`
    /// merging, which commutes, so the merged store is independent of
    /// absorb order for a given shard sequence.
    pub fn absorb(&mut self, other: PdnsStore) {
        if self.entries.is_empty() {
            *self = other;
            return;
        }
        for (fqdn, src) in other.entries {
            match self.entries.entry(fqdn) {
                std::collections::hash_map::Entry::Vacant(v) => {
                    self.total_rows += src.rows.len();
                    v.insert(src);
                }
                std::collections::hash_map::Entry::Occupied(mut o) => {
                    let dst = o.get_mut();
                    let mut by_key: HashMap<(DayStamp, u32), usize> = dst
                        .rows
                        .iter()
                        .enumerate()
                        .map(|(i, r)| ((r.pdate, r.rdata_idx), i))
                        .collect();
                    for row in src.rows {
                        let idx = dst.intern(&src.rdatas[row.rdata_idx as usize]);
                        match by_key.entry((row.pdate, idx)) {
                            std::collections::hash_map::Entry::Occupied(pos) => {
                                dst.rows[*pos.get()].cnt += row.cnt;
                            }
                            std::collections::hash_map::Entry::Vacant(slot) => {
                                slot.insert(dst.rows.len());
                                dst.rows.push(DailyRow {
                                    pdate: row.pdate,
                                    rdata_idx: idx,
                                    cnt: row.cnt,
                                });
                                self.total_rows += 1;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Visit every daily row without materializing owned records. The
    /// visitor receives `(fqdn, rtype, rdata, pdate, request_cnt)`.
    pub fn for_each_row<F>(&self, mut f: F)
    where
        F: FnMut(&Fqdn, RecordType, &Rdata, DayStamp, u64),
    {
        for (fqdn, entry) in &self.entries {
            for row in &entry.rows {
                let rdata = &entry.rdatas[row.rdata_idx as usize];
                f(fqdn, rdata.rtype(), rdata, row.pdate, row.cnt);
            }
        }
    }

    /// Per-fqdn aggregate (paper §3.2).
    pub fn aggregate(&self, fqdn: &Fqdn) -> Option<FqdnAggregate> {
        let entry = self.entries.get(fqdn)?;
        let mut first = DayStamp(i64::MAX);
        let mut last = DayStamp(i64::MIN);
        let mut total = 0u64;
        let mut dist: Vec<u64> = vec![0; entry.rdatas.len()];
        let mut days: Vec<DayStamp> = Vec::with_capacity(entry.rows.len());
        for row in &entry.rows {
            first = first.min(row.pdate);
            last = last.max(row.pdate);
            total += row.cnt;
            dist[row.rdata_idx as usize] += row.cnt;
            days.push(row.pdate);
        }
        days.sort_unstable();
        days.dedup();
        // Sorted by rdata so aggregates from different backends (whose
        // interning orders differ) compare equal with plain `==`.
        let mut rdata_dist: Vec<(Rdata, u64)> = entry.rdatas.iter().cloned().zip(dist).collect();
        rdata_dist.sort_by(|a, b| a.0.cmp(&b.0));
        Some(FqdnAggregate {
            fqdn: fqdn.clone(),
            first_seen_all: first,
            last_seen_all: last,
            days_count: days.len() as u32,
            total_request_cnt: total,
            rdata_dist,
        })
    }

    /// Aggregates for every fqdn (arbitrary order).
    pub fn aggregates(&self) -> impl Iterator<Item = FqdnAggregate> + '_ {
        self.entries
            .keys()
            .map(|f| self.aggregate(f).expect("known fqdn aggregates"))
    }
}

impl PdnsStore {
    /// Materialize any backend's rows into a fresh in-memory store (used
    /// when an analysis needs mutation on top of a read-only snapshot).
    pub fn from_backend<B: PdnsBackend + ?Sized>(backend: &B) -> PdnsStore {
        let mut store = PdnsStore::new();
        backend.for_each_row(&mut |fqdn, _rtype, rdata, pdate, cnt| {
            store.observe_count(fqdn, rdata, pdate, cnt);
        });
        store
    }
}

impl PdnsBackend for PdnsStore {
    fn observe_count(&mut self, fqdn: &Fqdn, rdata: &Rdata, day: DayStamp, count: u64) {
        PdnsStore::observe_count(self, fqdn, rdata, day, count);
    }

    fn fqdn_count(&self) -> usize {
        PdnsStore::fqdn_count(self)
    }

    fn record_count(&self) -> usize {
        PdnsStore::record_count(self)
    }

    fn for_each_fqdn(&self, f: &mut dyn FnMut(&Fqdn)) {
        for fqdn in self.fqdns() {
            f(fqdn);
        }
    }

    fn for_each_row(&self, f: &mut dyn FnMut(&Fqdn, RecordType, &Rdata, DayStamp, u64)) {
        PdnsStore::for_each_row(self, |fqdn, rtype, rdata, pdate, cnt| {
            f(fqdn, rtype, rdata, pdate, cnt)
        });
    }

    fn aggregate(&self, fqdn: &Fqdn) -> Option<FqdnAggregate> {
        PdnsStore::aggregate(self, fqdn)
    }

    fn for_each_record_of(
        &self,
        fqdn: &Fqdn,
        f: &mut dyn FnMut(RecordType, &Rdata, DayStamp, u64),
    ) {
        PdnsStore::for_each_record_of(self, fqdn, |rtype, rdata, pdate, cnt| {
            f(rtype, rdata, pdate, cnt)
        });
    }
}

/// Shareable PDNS store usable as a resolver [`Sensor`].
#[derive(Clone, Default)]
pub struct SharedPdns(pub Arc<Mutex<PdnsStore>>);

impl SharedPdns {
    pub fn new() -> SharedPdns {
        SharedPdns::default()
    }

    pub fn lock(&self) -> parking_lot::MutexGuard<'_, PdnsStore> {
        self.0.lock()
    }
}

impl Sensor for SharedPdns {
    fn observe(&self, fqdn: &Fqdn, rdata: &Rdata, day: DayStamp) {
        self.0.lock().observe(fqdn, rdata, day);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn fq(s: &str) -> Fqdn {
        Fqdn::parse(s).unwrap()
    }

    fn a(last: u8) -> Rdata {
        Rdata::V4(Ipv4Addr::new(198, 51, 100, last))
    }

    fn day(n: i64) -> DayStamp {
        fw_types::MEASUREMENT_START + n
    }

    #[test]
    fn same_day_same_rdata_merges() {
        let mut s = PdnsStore::new();
        let f = fq("x.on.aws");
        s.observe(&f, &a(1), day(0));
        s.observe(&f, &a(1), day(0));
        s.observe(&f, &a(1), day(0));
        assert_eq!(s.record_count(), 1);
        let recs = s.records_for(&f);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].request_cnt, 3);
        assert_eq!(recs[0].pdate, day(0));
    }

    #[test]
    fn different_rdata_same_day_splits_rows() {
        let mut s = PdnsStore::new();
        let f = fq("x.on.aws");
        s.observe(&f, &a(1), day(0));
        s.observe(&f, &a(2), day(0));
        s.observe(&f, &a(1), day(0));
        assert_eq!(s.record_count(), 2);
        let recs = s.records_for(&f);
        let total: u64 = recs.iter().map(|r| r.request_cnt).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn aggregate_matches_paper_fields() {
        let mut s = PdnsStore::new();
        let f = fq("fn.a.run.app");
        s.observe_count(&f, &a(1), day(0), 5);
        s.observe_count(&f, &a(1), day(3), 2);
        s.observe_count(&f, &Rdata::Name(fq("edge.a.run.app")), day(3), 1);
        let agg = s.aggregate(&f).unwrap();
        assert_eq!(agg.first_seen_all, day(0));
        assert_eq!(agg.last_seen_all, day(3));
        assert_eq!(agg.days_count, 2);
        assert_eq!(agg.total_request_cnt, 8);
        assert_eq!(agg.lifespan_days(), 4);
        assert!((agg.activity_density() - 0.5).abs() < 1e-9);
        assert_eq!(agg.rdata_dist.len(), 2);
    }

    #[test]
    fn single_day_density_is_one() {
        let mut s = PdnsStore::new();
        let f = fq("oneday.on.aws");
        s.observe(&f, &a(1), day(10));
        let agg = s.aggregate(&f).unwrap();
        assert_eq!(agg.lifespan_days(), 1);
        assert!((agg.activity_density() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_count_is_ignored() {
        let mut s = PdnsStore::new();
        s.observe_count(&fq("z.on.aws"), &a(1), day(0), 0);
        assert_eq!(s.fqdn_count(), 0);
        assert_eq!(s.record_count(), 0);
    }

    #[test]
    fn unknown_fqdn_has_no_aggregate() {
        let s = PdnsStore::new();
        assert!(s.aggregate(&fq("missing.on.aws")).is_none());
        assert!(s.records_for(&fq("missing.on.aws")).is_empty());
    }

    #[test]
    fn for_each_row_visits_everything() {
        let mut s = PdnsStore::new();
        s.observe_count(&fq("a.on.aws"), &a(1), day(0), 4);
        s.observe_count(&fq("b.on.aws"), &a(2), day(1), 6);
        let mut total = 0u64;
        let mut rows = 0usize;
        s.for_each_row(|_, _, _, _, cnt| {
            total += cnt;
            rows += 1;
        });
        assert_eq!(total, 10);
        assert_eq!(rows, 2);
    }

    #[test]
    fn shared_store_acts_as_sensor() {
        use crate::resolver::Sensor;
        let shared = SharedPdns::new();
        shared.observe(&fq("s.on.aws"), &a(3), day(2));
        assert_eq!(shared.lock().fqdn_count(), 1);
    }

    #[test]
    fn backend_trait_mirrors_inherent_api() {
        let mut s = PdnsStore::new();
        s.observe_count(&fq("a.on.aws"), &a(1), day(0), 4);
        s.observe_count(&fq("b.on.aws"), &a(2), day(1), 6);
        let backend: &dyn PdnsBackend = &s;
        assert_eq!(backend.fqdn_count(), 2);
        assert_eq!(backend.record_count(), 2);
        let mut seen = Vec::new();
        backend.for_each_fqdn(&mut |f| seen.push(f.clone()));
        seen.sort();
        assert_eq!(seen, vec![fq("a.on.aws"), fq("b.on.aws")]);
        let aggs = backend.all_aggregates();
        assert_eq!(aggs.len(), 2);
        assert_eq!(aggs[0].fqdn, fq("a.on.aws"));
        assert_eq!(aggs[0].total_request_cnt, 4);

        let copy = PdnsStore::from_backend(&s);
        assert_eq!(copy.all_aggregates(), aggs);
    }

    #[test]
    fn intern_index_stays_consistent_under_many_rdatas() {
        let mut s = PdnsStore::new();
        let f = fq("fanout.on.aws");
        for i in 0..300u16 {
            let r = Rdata::V4(Ipv4Addr::new(198, 51, (i >> 8) as u8, (i & 0xff) as u8));
            s.observe(&f, &r, day(0));
            // Re-observing must reuse the interned index, not mint rows.
            s.observe(&f, &r, day(0));
        }
        assert_eq!(s.record_count(), 300);
        let agg = s.aggregate(&f).unwrap();
        assert_eq!(agg.rdata_dist.len(), 300);
        assert_eq!(agg.total_request_cnt, 600);
    }

    #[test]
    fn absorb_disjoint_and_colliding_stores() {
        // Disjoint: plain entry moves.
        let mut base = PdnsStore::new();
        base.observe_count(&fq("a.on.aws"), &a(1), day(0), 4);
        let mut other = PdnsStore::new();
        other.observe_count(&fq("b.on.aws"), &a(2), day(1), 6);
        base.absorb(other);
        assert_eq!(base.fqdn_count(), 2);
        assert_eq!(base.record_count(), 2);

        // Colliding fqdn: exact (pdate, rdata) keys merge, new keys append.
        let mut collide = PdnsStore::new();
        collide.observe_count(&fq("a.on.aws"), &a(1), day(0), 10); // merges
        collide.observe_count(&fq("a.on.aws"), &a(3), day(0), 1); // new rdata
        collide.observe_count(&fq("a.on.aws"), &a(1), day(5), 2); // new day
        base.absorb(collide);
        assert_eq!(base.fqdn_count(), 2);
        assert_eq!(base.record_count(), 4);
        let agg = base.aggregate(&fq("a.on.aws")).unwrap();
        assert_eq!(agg.total_request_cnt, 17);
        assert_eq!(agg.days_count, 2);

        // Absorbing into an empty store is a move.
        let mut empty = PdnsStore::new();
        empty.absorb(PdnsStore::from_backend(&base));
        assert_eq!(empty.all_aggregates(), base.all_aggregates());
        assert_eq!(empty.record_count(), base.record_count());
    }

    #[test]
    fn sharded_build_and_absorb_equals_serial_build() {
        // The parallel generator's merge pattern: each fqdn's rows all
        // come from one shard; absorbing in shard order must reproduce
        // the serially built store exactly (aggregates and row dumps).
        let build = |stores: &mut [PdnsStore]| {
            for i in 0..40u8 {
                let f = fq(&format!("fn{i}.on.aws"));
                let shard = (i % stores.len() as u8) as usize;
                for d in 0..4 {
                    stores[shard].observe_count(&f, &a(i % 7), day(d), u64::from(i) + 1);
                }
            }
        };
        let mut serial = vec![PdnsStore::new()];
        build(&mut serial);
        let serial = serial.pop().unwrap();
        for shards in [2usize, 3, 8] {
            let mut parts: Vec<PdnsStore> = (0..shards).map(|_| PdnsStore::new()).collect();
            build(&mut parts);
            let mut merged = PdnsStore::new();
            for part in parts {
                merged.absorb(part);
            }
            assert_eq!(merged.all_aggregates(), serial.all_aggregates());
            assert_eq!(merged.record_count(), serial.record_count());
        }
    }

    #[test]
    fn par_aggregates_default_matches_all_aggregates() {
        let mut s = PdnsStore::new();
        for i in 0..30u8 {
            s.observe_count(&fq(&format!("p{i}.on.aws")), &a(i), day(i64::from(i)), 2);
        }
        let want = s.all_aggregates();
        for workers in [1, 3, 8] {
            assert_eq!(s.par_aggregates(workers), want, "workers={workers}");
        }
        assert_eq!(
            s.sorted_fqdns(),
            want.iter().map(|a| a.fqdn.clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn records_sorted_by_date() {
        let mut s = PdnsStore::new();
        let f = fq("sorted.on.aws");
        s.observe(&f, &a(1), day(5));
        s.observe(&f, &a(1), day(1));
        s.observe(&f, &a(1), day(3));
        let recs = s.records_for(&f);
        let dates: Vec<_> = recs.iter().map(|r| r.pdate).collect();
        assert_eq!(dates, vec![day(1), day(3), day(5)]);
    }
}
