//! Sharded in-memory LRU response cache with TinyLFU admission.
//!
//! Same spreading scheme as the PR-4 resolver cache: the request target
//! FNV-hashes to one of a fixed set of shards, each an independently
//! locked true-LRU map (hash map into a slab-backed doubly linked
//! recency list — O(1) get/put/evict, no scan on eviction). Entries are
//! whole pre-rendered **wire images** behind an `Arc`: status line,
//! headers and body exactly as `fw_http::parse::write_response` would
//! emit them, so a hit is one pointer clone plus one `write_all` of the
//! stored bytes — no header re-rendering, no body copy.
//!
//! Admission (TinyLFU, per shard): a 4-row count-min sketch of 4-bit
//! saturating frequency counters tracks how often each key *hash* is
//! looked up. When a full shard would evict its LRU tail to admit a new
//! key, the candidate is admitted only if its estimated frequency is at
//! least the tail's — one-hit wonders bounce off the sketch instead of
//! flushing the hot head of the recency list. Counters halve every
//! `8 × capacity` recorded touches so the sketch ages with the
//! workload. Admission only shifts *which* keys are cached, never the
//! bytes a key maps to, so run digests are unaffected.
//!
//! Counters: `fw.serve.cache.{hit,miss,evict}` and
//! `fw.serve.cache.{admit_accept,admit_reject}` mirror the cache's own
//! atomic stats into the telemetry registry when metrics are enabled.

use fw_obs::{counter_add, counter_inc};
use fw_types::fnv::{fnv1a, FnvBuildHasher};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One cached response: the full pre-rendered wire image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedResponse {
    pub status: u16,
    head_len: u32,
    wire: Vec<u8>,
}

impl CachedResponse {
    /// Render the wire image for a body-carrying response; bytes are
    /// identical to `write_response(&Response::with_body(status,
    /// content_type, body))` on the wire.
    pub fn render(status: u16, content_type: &str, body: &[u8]) -> CachedResponse {
        let mut wire = Vec::with_capacity(64 + content_type.len() + body.len());
        let head_len = fw_http::fast::render_response(&mut wire, status, content_type, false, body);
        CachedResponse {
            status,
            head_len: head_len as u32,
            wire,
        }
    }

    /// The full response byte stream (head + body).
    pub fn wire(&self) -> &[u8] {
        &self.wire
    }

    /// Just the body bytes.
    pub fn body(&self) -> &[u8] {
        &self.wire[self.head_len as usize..]
    }
}

/// Cache sizing knobs.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Shard count (locking granularity). The resolver uses 16; the
    /// serve cache defaults the same.
    pub shards: usize,
    /// Total entry capacity, split evenly across shards (each shard
    /// holds at least one entry).
    pub capacity: usize,
    /// TinyLFU admission on full shards. Off = plain LRU (every new
    /// key evicts the tail); the reference-model property tests pin
    /// this off to keep the model exact.
    pub admission: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            shards: 16,
            capacity: 65_536,
            admission: true,
        }
    }
}

/// Monotonic counters, readable without locking any shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub entries: u64,
    /// New keys admitted (into free room, or displacing the LRU tail).
    pub admit_accept: u64,
    /// New keys the admission filter bounced off a full shard.
    pub admit_reject: u64,
}

impl CacheStats {
    /// Hit fraction over all lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

const NIL: usize = usize::MAX;

/// 4-row count-min sketch of 4-bit saturating counters — the TinyLFU
/// frequency estimator. One per shard, sized to the shard's capacity,
/// halved every `HALVE_FACTOR × capacity` recorded touches.
struct FreqSketch {
    rows: Vec<u8>,
    mask: u64,
    width: usize,
    touches: u64,
    halve_at: u64,
}

const SKETCH_ROWS: usize = 4;
const SKETCH_SAT: u8 = 15;
const HALVE_FACTOR: u64 = 8;

/// Odd multipliers deriving four independent row indexes from one hash.
const ROW_SEEDS: [u64; SKETCH_ROWS] = [
    0x9e37_79b9_7f4a_7c15,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
    0xff51_afd7_ed55_8ccd,
];

impl FreqSketch {
    fn new(capacity: usize) -> FreqSketch {
        let width = (capacity.max(16) * 2).next_power_of_two();
        FreqSketch {
            rows: vec![0u8; width * SKETCH_ROWS],
            mask: width as u64 - 1,
            width,
            touches: 0,
            halve_at: HALVE_FACTOR * capacity.max(1) as u64,
        }
    }

    fn slot(&self, row: usize, h: u64) -> usize {
        row * self.width + ((h.wrapping_mul(ROW_SEEDS[row]) >> 13) & self.mask) as usize
    }

    /// Record one touch of `h` (saturating), aging the sketch when due.
    fn record(&mut self, h: u64) {
        for row in 0..SKETCH_ROWS {
            let s = self.slot(row, h);
            if self.rows[s] < SKETCH_SAT {
                self.rows[s] += 1;
            }
        }
        self.touches += 1;
        if self.touches >= self.halve_at {
            self.touches = 0;
            for c in &mut self.rows {
                *c >>= 1;
            }
        }
    }

    /// Count-min estimate: the minimum over the four rows.
    fn estimate(&self, h: u64) -> u8 {
        (0..SKETCH_ROWS)
            .map(|row| self.rows[self.slot(row, h)])
            .min()
            .unwrap_or(0)
    }
}

struct Node {
    key: String,
    /// FNV hash of `key`, kept so victim-frequency lookups on eviction
    /// never rehash the string.
    hash: u64,
    value: Arc<CachedResponse>,
    prev: usize,
    next: usize,
}

/// One shard: map + slab-backed recency list (head = most recent) +
/// TinyLFU admission sketch.
struct LruShard {
    map: HashMap<String, usize, FnvBuildHasher>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
    admission: bool,
    sketch: FreqSketch,
}

/// What a shard-level put did, for the stats mirror.
enum PutOutcome {
    Refreshed,
    Admitted,
    AdmittedEvicting,
    Rejected,
}

impl LruShard {
    fn new(capacity: usize, admission: bool) -> LruShard {
        LruShard {
            map: HashMap::with_capacity_and_hasher(capacity, FnvBuildHasher::default()),
            nodes: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            admission,
            sketch: FreqSketch::new(capacity),
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        match prev {
            NIL => self.head = next,
            p => self.nodes[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n].prev = prev,
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        match self.head {
            NIL => self.tail = idx,
            h => self.nodes[h].prev = idx,
        }
        self.head = idx;
    }

    fn get(&mut self, key: &str, h: u64) -> Option<Arc<CachedResponse>> {
        // Every lookup — hit or miss — feeds the admission sketch, so a
        // key earns frequency before it is ever admitted.
        self.sketch.record(h);
        let idx = *self.map.get(key)?;
        self.unlink(idx);
        self.push_front(idx);
        Some(Arc::clone(&self.nodes[idx].value))
    }

    /// Insert, refresh, or (on a full shard) run the admission filter.
    fn put(&mut self, key: &str, h: u64, value: Arc<CachedResponse>) -> PutOutcome {
        if let Some(&idx) = self.map.get(key) {
            self.nodes[idx].value = value;
            self.unlink(idx);
            self.push_front(idx);
            return PutOutcome::Refreshed;
        }
        let mut outcome = PutOutcome::Admitted;
        if self.map.len() >= self.capacity {
            // TinyLFU admission: the candidate must be at least as
            // frequent as the LRU victim to displace it.
            let lru = self.tail;
            debug_assert_ne!(lru, NIL);
            if self.admission
                && self.sketch.estimate(h) < self.sketch.estimate(self.nodes[lru].hash)
            {
                return PutOutcome::Rejected;
            }
            self.unlink(lru);
            let old = std::mem::take(&mut self.nodes[lru].key);
            self.map.remove(&old);
            self.free.push(lru);
            outcome = PutOutcome::AdmittedEvicting;
        }
        let node = Node {
            key: key.to_string(),
            hash: h,
            value,
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot] = node;
                slot
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        self.push_front(idx);
        self.map.insert(key.to_string(), idx);
        outcome
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// FNV-addressed sharded LRU over pre-rendered responses.
pub struct ShardedCache {
    shards: Vec<Mutex<LruShard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    admit_accept: AtomicU64,
    admit_reject: AtomicU64,
}

impl ShardedCache {
    pub fn new(config: CacheConfig) -> ShardedCache {
        let shards = config.shards.max(1);
        let per_shard = (config.capacity / shards).max(1);
        // Zero-register the admission counters so they exist in the
        // registry even before the first full-shard decision.
        counter_add!("fw.serve.cache.admit_accept", 0);
        counter_add!("fw.serve.cache.admit_reject", 0);
        ShardedCache {
            shards: (0..shards)
                .map(|_| Mutex::new(LruShard::new(per_shard, config.admission)))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            admit_accept: AtomicU64::new(0),
            admit_reject: AtomicU64::new(0),
        }
    }

    /// The key hash used for shard addressing and the admission sketch;
    /// callers that already hold it can use the `_h` entry points.
    pub fn hash_key(key: &str) -> u64 {
        fnv1a(key.as_bytes())
    }

    pub fn get(&self, key: &str) -> Option<Arc<CachedResponse>> {
        self.get_h(key, Self::hash_key(key))
    }

    /// `get` with the caller-supplied key hash (must be [`Self::hash_key`]).
    pub fn get_h(&self, key: &str, h: u64) -> Option<Arc<CachedResponse>> {
        let found = self.shards[(h as usize) % self.shards.len()]
            .lock()
            .get(key, h);
        match &found {
            Some(_) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                counter_inc!("fw.serve.cache.hit");
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                counter_inc!("fw.serve.cache.miss");
            }
        }
        found
    }

    pub fn put(&self, key: &str, value: Arc<CachedResponse>) {
        self.put_h(key, Self::hash_key(key), value)
    }

    /// `put` with the caller-supplied key hash (must be [`Self::hash_key`]).
    pub fn put_h(&self, key: &str, h: u64, value: Arc<CachedResponse>) {
        let outcome = self.shards[(h as usize) % self.shards.len()]
            .lock()
            .put(key, h, value);
        match outcome {
            PutOutcome::Refreshed => {}
            PutOutcome::Admitted => {
                self.admit_accept.fetch_add(1, Ordering::Relaxed);
                counter_inc!("fw.serve.cache.admit_accept");
            }
            PutOutcome::AdmittedEvicting => {
                self.admit_accept.fetch_add(1, Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                counter_inc!("fw.serve.cache.admit_accept");
                counter_inc!("fw.serve.cache.evict");
            }
            PutOutcome::Rejected => {
                self.admit_reject.fetch_add(1, Ordering::Relaxed);
                counter_inc!("fw.serve.cache.admit_reject");
            }
        }
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.shards.iter().map(|s| s.lock().len() as u64).sum(),
            admit_accept: self.admit_accept.load(Ordering::Relaxed),
            admit_reject: self.admit_reject.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(n: u16) -> Arc<CachedResponse> {
        Arc::new(CachedResponse::render(
            200,
            "application/json",
            &n.to_be_bytes(),
        ))
    }

    fn single_shard(capacity: usize) -> ShardedCache {
        ShardedCache::new(CacheConfig {
            shards: 1,
            capacity,
            ..CacheConfig::default()
        })
    }

    #[test]
    fn wire_image_matches_scalar_serializer() {
        use fw_http::parse::write_response;
        use fw_http::types::Response;
        use fw_net::{pipe_pair, Connection};
        let body = b"{\"verdict\": \"function\"}";
        let cached = CachedResponse::render(200, "application/json", body);
        let (mut a, mut b) = pipe_pair(
            "10.0.0.1:50000".parse().unwrap(),
            "203.0.113.1:80".parse().unwrap(),
        );
        write_response(
            &mut a,
            &Response::with_body(200, "application/json", body.to_vec()),
        )
        .unwrap();
        a.shutdown_write();
        let mut raw = Vec::new();
        let mut buf = [0u8; 512];
        loop {
            match b.read(&mut buf).unwrap() {
                0 => break,
                n => raw.extend_from_slice(&buf[..n]),
            }
        }
        assert_eq!(cached.wire(), raw.as_slice());
        assert_eq!(cached.body(), body);
    }

    #[test]
    fn get_put_roundtrip_and_stats() {
        let c = single_shard(4);
        assert!(c.get("a").is_none());
        c.put("a", resp(1));
        assert_eq!(c.get("a").unwrap().body(), 1u16.to_be_bytes());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.entries), (1, 1, 0, 1));
        assert_eq!((s.admit_accept, s.admit_reject), (1, 0));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eviction_is_lru_order() {
        let c = single_shard(2);
        c.put("a", resp(1));
        c.put("b", resp(2));
        // Touch "a" so "b" becomes the LRU entry, and touch "c" (a
        // miss) so its sketch frequency matches the victim's and the
        // admission filter lets it in.
        assert!(c.get("a").is_some());
        assert!(c.get("c").is_none());
        c.put("c", resp(3));
        assert!(c.get("b").is_none(), "LRU entry should have been evicted");
        assert!(c.get("a").is_some());
        assert!(c.get("c").is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().entries, 2);
    }

    #[test]
    fn refresh_does_not_evict() {
        let c = single_shard(2);
        c.put("a", resp(1));
        c.put("b", resp(2));
        c.put("a", resp(9));
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.get("a").unwrap().body(), 9u16.to_be_bytes());
        assert!(c.get("b").is_some());
    }

    #[test]
    fn admission_rejects_cold_keys_on_a_full_shard() {
        let c = single_shard(2);
        // Warm both residents with several touches each.
        c.put("hot1", resp(1));
        c.put("hot2", resp(2));
        for _ in 0..4 {
            assert!(c.get("hot1").is_some());
            assert!(c.get("hot2").is_some());
        }
        // A brand-new key with zero recorded touches must bounce.
        c.put("cold", resp(3));
        let s = c.stats();
        assert_eq!(s.admit_reject, 1);
        assert_eq!(s.evictions, 0);
        assert!(c.get("hot1").is_some());
        assert!(c.get("hot2").is_some());
        assert!(c.get("cold").is_none());
    }

    #[test]
    fn admission_lets_frequent_keys_displace_the_tail() {
        let c = single_shard(2);
        c.put("a", resp(1));
        c.put("b", resp(2));
        // "c" misses repeatedly — each miss records a sketch touch.
        for _ in 0..6 {
            assert!(c.get("c").is_none());
        }
        c.put("c", resp(3));
        let s = c.stats();
        assert_eq!(s.admit_reject, 0);
        assert_eq!(s.evictions, 1);
        assert!(c.get("c").is_some());
    }

    #[test]
    fn sketch_halving_ages_out_stale_frequency() {
        let mut sk = FreqSketch::new(16);
        for _ in 0..10 {
            sk.record(0xdead_beef);
        }
        assert!(sk.estimate(0xdead_beef) >= 8);
        // Drive enough touches of other keys to cross the halving
        // threshold (8 × 16 = 128 touches).
        for i in 0..200u64 {
            sk.record(i.wrapping_mul(0x1234_5678_9abc_def1));
        }
        assert!(sk.estimate(0xdead_beef) <= SKETCH_SAT / 2 + 1);
    }

    #[test]
    fn shards_partition_the_keyspace() {
        let c = ShardedCache::new(CacheConfig {
            shards: 8,
            capacity: 64,
            ..CacheConfig::default()
        });
        for i in 0..64 {
            c.put(&format!("key-{i}"), resp(i as u16));
        }
        for i in 0..64 {
            // Per-shard capacity is 8 and FNV does not spread 64 keys
            // perfectly evenly, so some keys may have been evicted or
            // rejected — but every surviving key must return its own
            // value.
            if let Some(v) = c.get(&format!("key-{i}")) {
                assert_eq!(v.body(), (i as u16).to_be_bytes());
            }
        }
        assert!(c.stats().entries <= 64);
    }
}
