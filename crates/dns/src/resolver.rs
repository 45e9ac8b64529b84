//! A recursive resolver with TTL caching and a passive-DNS sensor hook.
//!
//! This plays the role of the collaborating DNS operator in the paper: all
//! client queries flow through recursive resolvers, and a sensor records
//! `(fqdn, rdata)` observations into the PDNS store (`fw-dns::pdns`).

use crate::zone::{LookupOutcome, Zone};
use fw_types::{DayStamp, Fqdn, Rdata, RecordType};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Maximum CNAME chain length before giving up.
const MAX_CHAIN: usize = 8;

/// Observer of resolved answers — the passive-DNS tap.
pub trait Sensor: Send + Sync {
    /// Called once per `(owner name, rdata)` answer pair of a successful
    /// resolution observed on `day`.
    fn observe(&self, fqdn: &Fqdn, rdata: &Rdata, day: DayStamp);
}

/// Resolution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// Name does not exist (authoritative NXDOMAIN).
    NxDomain,
    /// Name exists but has no records of the requested type.
    NoRecords,
    /// No zone is authoritative for the name (simulated internet only
    /// contains provider zones).
    NoZone,
    /// CNAME chain exceeded `MAX_CHAIN` (8) links.
    ChainTooLong,
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::NxDomain => write!(f, "NXDOMAIN"),
            ResolveError::NoRecords => write!(f, "no records of requested type"),
            ResolveError::NoZone => write!(f, "no authoritative zone"),
            ResolveError::ChainTooLong => write!(f, "cname chain too long"),
        }
    }
}

impl std::error::Error for ResolveError {}

/// A successful resolution: the full answer chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resolution {
    /// `(owner, rdata)` pairs, CNAMEs first, then terminal records.
    pub answers: Vec<(Fqdn, Rdata)>,
    /// Whether the answer came from the resolver cache.
    pub from_cache: bool,
}

impl Resolution {
    /// Terminal addresses (A/AAAA) of the chain.
    pub fn addresses(&self) -> Vec<Rdata> {
        self.answers
            .iter()
            .filter(|(_, r)| r.rtype() != RecordType::Cname)
            .map(|(_, r)| r.clone())
            .collect()
    }
}

#[derive(Debug, Clone)]
struct CacheEntry {
    answers: Vec<(Fqdn, Rdata)>,
    expires_at: u64,
}

/// Resolver counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolverStats {
    pub queries: u64,
    pub cache_hits: u64,
    pub nxdomain: u64,
    pub servfail: u64,
}

/// Internal atomic counters, snapshot as [`ResolverStats`].
#[derive(Debug, Default)]
struct AtomicStats {
    queries: AtomicU64,
    cache_hits: AtomicU64,
    nxdomain: AtomicU64,
    servfail: AtomicU64,
}

/// Number of cache shards. Keys are spread by an FNV-1a hash, so 16
/// probe workers hitting distinct domains almost never contend on the
/// same shard lock.
const CACHE_SHARDS: usize = 16;

type CacheShard = RwLock<HashMap<(Fqdn, RecordType), CacheEntry>>;

/// The recursive resolver.
///
/// The cache and counters are interior-mutable (sharded `RwLock`s and
/// atomics), so [`Resolver::resolve`] serves lookups — cached or
/// not — through `&self`. Callers that hold the resolver inside an
/// outer `Arc<RwLock<..>>` can therefore stay on the outer **read**
/// lock for the entire scan/probe path; the outer write lock is only
/// needed for topology changes (`add_zone`, `zone_for_mut`,
/// `set_sensor`, `flush_cache`), which then exclude all readers.
pub struct Resolver {
    zones: Vec<Zone>,
    cache: Vec<CacheShard>,
    sensor: Option<Arc<dyn Sensor>>,
    stats: AtomicStats,
}

impl fmt::Debug for Resolver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Resolver")
            .field("zones", &self.zones.len())
            .field("cache_entries", &self.cache_len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for Resolver {
    fn default() -> Self {
        Self::new()
    }
}

impl Resolver {
    pub fn new() -> Resolver {
        Resolver {
            zones: Vec::new(),
            cache: (0..CACHE_SHARDS).map(|_| RwLock::default()).collect(),
            sensor: None,
            stats: AtomicStats::default(),
        }
    }

    /// FNV-1a over the owner name and record type picks the shard.
    fn shard(&self, name: &Fqdn, rtype: RecordType) -> &CacheShard {
        let h = fw_types::fnv::fold(fw_types::fnv::fnv1a(name.as_str().as_bytes()), rtype as u64);
        &self.cache[(h % CACHE_SHARDS as u64) as usize]
    }

    fn cache_len(&self) -> usize {
        self.cache.iter().map(|s| s.read().len()).sum()
    }

    /// Attach the passive-DNS sensor.
    pub fn set_sensor(&mut self, sensor: Arc<dyn Sensor>) {
        self.sensor = Some(sensor);
    }

    /// Register an authoritative zone.
    pub fn add_zone(&mut self, zone: Zone) {
        self.zones.push(zone);
    }

    /// Mutable access to the zone covering `name` (longest-origin match).
    pub fn zone_for_mut(&mut self, name: &Fqdn) -> Option<&mut Zone> {
        self.zones
            .iter_mut()
            .filter(|z| z.covers(name) || z.origin() == name)
            .max_by_key(|z| z.origin().as_str().len())
    }

    fn zone_for(&self, name: &Fqdn) -> Option<&Zone> {
        self.zones
            .iter()
            .filter(|z| z.covers(name) || z.origin() == name)
            .max_by_key(|z| z.origin().as_str().len())
    }

    /// Counters since construction (atomic snapshot).
    pub fn stats(&self) -> ResolverStats {
        ResolverStats {
            queries: self.stats.queries.load(Ordering::Relaxed),
            cache_hits: self.stats.cache_hits.load(Ordering::Relaxed),
            nxdomain: self.stats.nxdomain.load(Ordering::Relaxed),
            servfail: self.stats.servfail.load(Ordering::Relaxed),
        }
    }

    /// Drop all cached entries.
    pub fn flush_cache(&mut self) {
        for shard in &self.cache {
            shard.write().clear();
        }
    }

    /// Resolve `name` for record type `rtype` at virtual time `now`
    /// (seconds), through `&self`.
    ///
    /// Cached, unexpired entries are served under a shard **read** lock
    /// (the fast path — no exclusive lock anywhere); misses walk the
    /// zones (immutable under `&self`) and publish the entry under a
    /// brief shard write lock. Every client query — cached or not — is
    /// observed by the sensor, matching how a recursive-resolver PDNS
    /// vantage point sees traffic; the sensor's own interior mutability
    /// (e.g. `SharedPdns`) makes the observation append-friendly, so a
    /// cache hit never needs `&mut Resolver`.
    pub fn resolve(
        &self,
        name: &Fqdn,
        rtype: RecordType,
        now: u64,
    ) -> Result<Resolution, ResolveError> {
        self.stats.queries.fetch_add(1, Ordering::Relaxed);
        let key = (name.clone(), rtype);
        let shard = self.shard(name, rtype);
        // Fast path: shared lock, no writes.
        let cached = {
            let guard = shard.read();
            guard
                .get(&key)
                .and_then(|entry| (entry.expires_at > now).then(|| entry.answers.clone()))
        };
        if let Some(answers) = cached {
            self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            fw_obs::counter_inc!("fw.dns.resolve.fast_hit");
            self.sense(&answers, now);
            return Ok(Resolution {
                answers,
                from_cache: true,
            });
        }
        fw_obs::counter_inc!("fw.dns.resolve.slow_path");
        let _trace = fw_obs::trace_span("dns/resolve_slow");
        // Evict an expired entry (if a racing thread refreshed it in the
        // meantime, serve the refreshed copy instead).
        {
            let mut guard = shard.write();
            if let Some(entry) = guard.get(&key) {
                if entry.expires_at > now {
                    let answers = entry.answers.clone();
                    drop(guard);
                    self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                    self.sense(&answers, now);
                    return Ok(Resolution {
                        answers,
                        from_cache: true,
                    });
                }
                guard.remove(&key);
            }
        }

        let mut answers: Vec<(Fqdn, Rdata)> = Vec::new();
        let mut min_ttl: u32 = u32::MAX;
        let mut cur = name.clone();
        for _hop in 0..MAX_CHAIN {
            let zone = match self.zone_for(&cur) {
                Some(z) => z,
                None => {
                    // Off-platform CNAME target (e.g. a telecom ingress
                    // domain): the chain ends here with what we have.
                    if answers.is_empty() {
                        return Err(ResolveError::NoZone);
                    }
                    break;
                }
            };
            match zone.lookup(&cur, rtype) {
                LookupOutcome::Records(recs) => {
                    let mut next: Option<Fqdn> = None;
                    for (rdata, ttl) in recs {
                        min_ttl = min_ttl.min(ttl);
                        if rdata.rtype() == RecordType::Cname && rtype != RecordType::Cname {
                            if let Rdata::Name(target) = &rdata {
                                next = Some(target.clone());
                            }
                        }
                        answers.push((cur.clone(), rdata));
                    }
                    match next {
                        Some(target) => cur = target,
                        None => break,
                    }
                }
                LookupOutcome::NoData => {
                    if answers.is_empty() {
                        return Err(ResolveError::NoRecords);
                    }
                    break;
                }
                LookupOutcome::NxDomain => {
                    if answers.is_empty() {
                        self.stats.nxdomain.fetch_add(1, Ordering::Relaxed);
                        return Err(ResolveError::NxDomain);
                    }
                    break;
                }
            }
            if answers.len() > 64 {
                return Err(ResolveError::ChainTooLong);
            }
        }
        if answers.is_empty() {
            return Err(ResolveError::ChainTooLong);
        }

        let ttl = if min_ttl == u32::MAX { 60 } else { min_ttl };
        shard.write().insert(
            key,
            CacheEntry {
                answers: answers.clone(),
                expires_at: now + u64::from(ttl),
            },
        );
        self.sense(&answers, now);
        Ok(Resolution {
            answers,
            from_cache: false,
        })
    }

    fn sense(&self, answers: &[(Fqdn, Rdata)], now: u64) {
        if let Some(sensor) = &self.sensor {
            let day = DayStamp((now / 86_400) as i64);
            for (owner, rdata) in answers {
                sensor.observe(owner, rdata, day);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::net::Ipv4Addr;

    fn fq(s: &str) -> Fqdn {
        Fqdn::parse(s).unwrap()
    }

    fn a(last: u8) -> Rdata {
        Rdata::V4(Ipv4Addr::new(203, 0, 113, last))
    }

    struct VecSensor(Mutex<Vec<(Fqdn, Rdata, DayStamp)>>);

    impl Sensor for VecSensor {
        fn observe(&self, fqdn: &Fqdn, rdata: &Rdata, day: DayStamp) {
            self.0.lock().push((fqdn.clone(), rdata.clone(), day));
        }
    }

    fn resolver_with_tencent() -> Resolver {
        let mut r = Resolver::new();
        let mut z = Zone::new(fq("scf.tencentcs.com"));
        z.add(
            fq("1300000001-abcdefghij-gz.scf.tencentcs.com"),
            Rdata::Name(fq("gz.scf.tencentcs.com")),
            120,
        );
        z.add(fq("gz.scf.tencentcs.com"), a(1), 60);
        r.add_zone(z);
        r
    }

    #[test]
    fn follows_cname_chain() {
        let r = resolver_with_tencent();
        let res = r
            .resolve(
                &fq("1300000001-abcdefghij-gz.scf.tencentcs.com"),
                RecordType::A,
                0,
            )
            .unwrap();
        assert_eq!(res.answers.len(), 2);
        assert_eq!(res.answers[0].1.rtype(), RecordType::Cname);
        assert_eq!(res.addresses(), vec![a(1)]);
    }

    #[test]
    fn caches_within_ttl_and_expires_after() {
        let r = resolver_with_tencent();
        let name = fq("1300000001-abcdefghij-gz.scf.tencentcs.com");
        let first = r.resolve(&name, RecordType::A, 0).unwrap();
        assert!(!first.from_cache);
        let second = r.resolve(&name, RecordType::A, 30).unwrap();
        assert!(second.from_cache);
        // min TTL of chain is 60 → expired at t=61.
        let third = r.resolve(&name, RecordType::A, 61).unwrap();
        assert!(!third.from_cache);
        assert_eq!(r.stats().cache_hits, 1);
        assert_eq!(r.stats().queries, 3);
    }

    #[test]
    fn sensor_sees_every_query_including_cache_hits() {
        let sensor = Arc::new(VecSensor(Mutex::new(Vec::new())));
        let mut r = resolver_with_tencent();
        r.set_sensor(sensor.clone());
        let name = fq("1300000001-abcdefghij-gz.scf.tencentcs.com");
        r.resolve(&name, RecordType::A, 0).unwrap();
        r.resolve(&name, RecordType::A, 10).unwrap();
        // Two queries × two answers each (CNAME + A).
        assert_eq!(sensor.0.lock().len(), 4);
    }

    #[test]
    fn nxdomain_for_unknown_tencent_name() {
        // Tencent zone has no wildcard — the paper's deleted-function case.
        let r = resolver_with_tencent();
        let err = r
            .resolve(
                &fq("9999999999-deleted000-gz.scf.tencentcs.com"),
                RecordType::A,
                0,
            )
            .unwrap_err();
        assert_eq!(err, ResolveError::NxDomain);
        assert_eq!(r.stats().nxdomain, 1);
    }

    #[test]
    fn wildcard_zone_answers_deleted_names() {
        let mut r = Resolver::new();
        let mut z = Zone::new(fq("on.aws"));
        z.set_wildcard(vec![(a(50), 60)]);
        r.add_zone(z);
        let res = r
            .resolve(&fq("deleted.lambda-url.us-east-1.on.aws"), RecordType::A, 0)
            .unwrap();
        assert_eq!(res.addresses(), vec![a(50)]);
    }

    #[test]
    fn no_zone_error_for_foreign_names() {
        let r = resolver_with_tencent();
        assert_eq!(
            r.resolve(&fq("example.org"), RecordType::A, 0),
            Err(ResolveError::NoZone)
        );
    }

    #[test]
    fn off_platform_cname_target_ends_chain() {
        // Baidu-style third-party telecom ingress: CNAME points outside any
        // zone we serve; the resolution still succeeds with the CNAME.
        let mut r = Resolver::new();
        let mut z = Zone::new(fq("baidubce.com"));
        z.add(
            fq("abcdefghij123.cfc-execute.bj.baidubce.com"),
            Rdata::Name(fq("ingress.ct-telecom.example.net")),
            60,
        );
        r.add_zone(z);
        let res = r
            .resolve(
                &fq("abcdefghij123.cfc-execute.bj.baidubce.com"),
                RecordType::A,
                0,
            )
            .unwrap();
        assert_eq!(res.answers.len(), 1);
        assert_eq!(res.answers[0].1.rtype(), RecordType::Cname);
    }

    /// The §4 query schedule used by the read-path equivalence tests:
    /// 20 wildcard names, each queried four times across two days.
    fn pdns_schedule() -> Vec<(Fqdn, u64)> {
        let mut schedule = Vec::new();
        for i in 0..20u32 {
            let name = fq(&format!("fn{i}.lambda-url.us-east-1.on.aws"));
            for q in 0..4u64 {
                // Cache hits within the TTL, refreshes across days.
                schedule.push((name.clone(), q * 40_000));
            }
        }
        schedule
    }

    fn wildcard_resolver(sensor: Arc<dyn Sensor>) -> Resolver {
        let mut r = Resolver::new();
        let mut z = Zone::new(fq("on.aws"));
        z.set_wildcard(vec![(a(50), 60)]);
        r.add_zone(z);
        r.set_sensor(sensor);
        r
    }

    /// PDNS sensing is unchanged by the lock-free read path: the same
    /// query schedule, issued through `resolve` from one thread and
    /// from 8 concurrent threads, yields the same per-key request
    /// counts, the same per-fqdn aggregates and the same query count.
    ///
    /// Rows and cache hits are not compared: both depend on the
    /// schedule. A key may span several rows (the `PdnsStore` merge
    /// contract), and the threads issue the schedule's timestamps out
    /// of order, so an entry cached at a later `now` turns another
    /// thread's earlier query into a hit.
    #[test]
    fn shared_read_path_senses_identically_to_write_path() {
        use crate::pdns::{FqdnAggregate, SharedPdns};
        use std::collections::BTreeMap;

        let schedule = pdns_schedule();

        // One thread.
        let serial_pdns = SharedPdns::new();
        let serial = wildcard_resolver(Arc::new(serial_pdns.clone()));
        for (name, now) in &schedule {
            serial.resolve(name, RecordType::A, *now).unwrap();
        }

        // 8 threads round-robin over the same schedule.
        let shared_pdns = SharedPdns::new();
        let shared = wildcard_resolver(Arc::new(shared_pdns.clone()));
        std::thread::scope(|scope| {
            for w in 0..8 {
                let shared = &shared;
                let schedule = &schedule;
                scope.spawn(move || {
                    for (name, now) in schedule.iter().skip(w).step_by(8) {
                        shared.resolve(name, RecordType::A, *now).unwrap();
                    }
                });
            }
        });

        type Key = (Fqdn, RecordType, Rdata, DayStamp);
        let key_sums = |p: &SharedPdns| {
            let mut sums: BTreeMap<Key, u64> = BTreeMap::new();
            p.lock().for_each_row(|fqdn, rtype, rdata, day, cnt| {
                *sums
                    .entry((fqdn.clone(), rtype, rdata.clone(), day))
                    .or_default() += cnt;
            });
            sums
        };
        let aggregates = |p: &SharedPdns| {
            let mut v: Vec<FqdnAggregate> = p.lock().aggregates().collect();
            v.sort_by(|a, b| a.fqdn.cmp(&b.fqdn));
            v
        };
        let serial_sums = key_sums(&serial_pdns);
        assert!(!serial_sums.is_empty());
        assert_eq!(serial_sums, key_sums(&shared_pdns));
        assert_eq!(aggregates(&serial_pdns), aggregates(&shared_pdns));
        assert_eq!(serial.stats().queries, shared.stats().queries);
    }

    /// Concurrent readers on the fast path never lose counter updates
    /// and always see the cached answers.
    #[test]
    fn concurrent_fast_path_hits_are_counted() {
        let r = resolver_with_tencent();
        let name = fq("1300000001-abcdefghij-gz.scf.tencentcs.com");
        // Warm the cache.
        r.resolve(&name, RecordType::A, 0).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let r = &r;
                let name = &name;
                scope.spawn(move || {
                    for _ in 0..50 {
                        let res = r.resolve(name, RecordType::A, 10).unwrap();
                        assert!(res.from_cache);
                    }
                });
            }
        });
        assert_eq!(r.stats().queries, 401);
        assert_eq!(r.stats().cache_hits, 400);
    }
}
