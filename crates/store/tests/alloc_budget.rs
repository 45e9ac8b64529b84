//! Allocation budgets of the store's row path (DESIGN.md §16, "The
//! single-core cost model"): observing a small fqdn, sealing a shard and
//! scanning it back each allocate a bounded number of heap blocks, so a
//! change that starts copying names or rdatas per fqdn again fails here.
//!
//! The test binary declares a counting global allocator over `System`.
//! Its counter is a const-initialised thread-local `Cell<u64>` with no
//! destructor, so counting never allocates or re-enters the allocator,
//! and each test reads only the allocations of its own thread. It
//! counts allocations, not reallocations: a `Vec` growing in place is
//! one block, however often it moves.

// The counting allocator implements the unsafe `GlobalAlloc`; the
// workspace denies `unsafe_code` everywhere else.
#![allow(unsafe_code)]

use fw_dns::pdns::FqdnAggregate;
use fw_store::{scan_shard_visit, DiskStore, StoreConfig};
use fw_types::{DayStamp, Fqdn, Rdata, MEASUREMENT_START};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::{Ipv4Addr, Ipv6Addr};
use std::path::PathBuf;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` never panics inside the allocator, even while the
    // thread's locals are being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` through this allocator, and
        // the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` and return how many allocations this thread made in it.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

struct TempStore(PathBuf);

impl TempStore {
    /// A fresh one-shard store without threshold writes.
    fn new(tag: &str) -> (TempStore, DiskStore) {
        let dir = std::env::temp_dir().join(format!(
            "fw-alloc-budget-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = StoreConfig {
            shards: 1,
            flush_rows: 0,
        };
        let store = DiskStore::create(&dir, config).expect("create store");
        (TempStore(dir), store)
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One fqdn's rows: `(rdata, day, count)`.
type Rows = Vec<(Rdata, DayStamp, u64)>;

/// The fixed rdata pool every fqdn draws from: A and AAAA only, so a
/// copied rdata never allocates and only name copies can show.
fn pool() -> Vec<Rdata> {
    (0..24u8)
        .map(|i| match i % 3 {
            2 => Rdata::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, u16::from(i))),
            _ => Rdata::V4(Ipv4Addr::new(198, 51, 100, i)),
        })
        .collect()
}

/// `n` fqdns, fqdn `i` with 1–8 distinct rdatas and 1–16 rows, some
/// of which repeat a `(day, rdata)` key and so merge.
fn world(n: usize, tag: &str) -> Vec<(Fqdn, Rows)> {
    let pool = pool();
    (0..n)
        .map(|i| {
            let fqdn = Fqdn::parse(&format!("fn{i}-{tag}.lambda-url.us-east-1.on.aws"))
                .expect("valid fqdn");
            let distinct = 1 + i % 8;
            let rows = (0..1 + i % 16)
                .map(|k| {
                    let rdata = pool[(i + k % distinct) % pool.len()].clone();
                    (rdata, MEASUREMENT_START + (k / 2) as i64, 1 + k as u64)
                })
                .collect();
            (fqdn, rows)
        })
        .collect()
}

fn observe(store: &DiskStore, world: &[(Fqdn, Rows)]) {
    for (fqdn, rows) in world {
        store.observe_rows(fqdn, rows.iter().map(|(r, d, c)| (r, *d, *c)));
    }
}

/// Allocations of sealing a one-shard store that holds `n` fqdns.
fn seal_allocations(n: usize) -> u64 {
    let (_dir, store) = TempStore::new(&format!("seal-{n}"));
    observe(&store, &world(n, "seal"));
    let (allocs, sealed) = allocations(|| store.seal_shard(0));
    sealed.expect("seal");
    allocs
}

#[test]
fn seal_allocates_per_segment_not_per_fqdn() {
    // Warm any lazily initialised handle on this thread first.
    seal_allocations(50);
    let small = seal_allocations(1_000);
    let large = seal_allocations(4_000);
    assert_eq!(
        small, large,
        "sealing 1,000 and 4,000 fqdns over one rdata pool must allocate alike"
    );
}

#[test]
fn observing_a_small_fqdn_allocates_its_key_and_two_vecs() {
    let n = 4_000;
    let (_dir, store) = TempStore::new("observe");
    observe(&store, &world(1, "warm"));
    let fresh = world(n, "observe");
    let (allocs, ()) = allocations(|| observe(&store, &fresh));
    // Key, rdata `Vec` and row `Vec` per fqdn, plus the shard map's own
    // doublings.
    let budget = 3 * n as u64 + 2 * u64::from(n.ilog2());
    assert!(
        allocs <= budget,
        "observing {n} fqdns made {allocs} allocations, budget {budget}"
    );
}

#[test]
fn scan_allocates_a_name_and_a_distribution_per_fqdn() {
    let n = 2_000;
    let (dir, store) = TempStore::new("scan");
    observe(&store, &world(n, "scan"));
    store.seal_shard(0).expect("seal");
    let mut aggs = 0;
    let (allocs, scanned) = allocations(|| {
        scan_shard_visit(
            &dir.0,
            0,
            &mut |agg: FqdnAggregate| aggs += usize::from(!agg.rdata_dist.is_empty()),
            Some(&mut |_, _, _, _| {}),
        )
    });
    scanned.expect("scan");
    assert_eq!(aggs, n);
    // Each fqdn's dictionary name and its aggregate's rdata
    // distribution, plus the segment's own buffers.
    let budget = 2 * n as u64 + 64;
    assert!(
        allocs <= budget,
        "scanning {n} fqdns made {allocs} allocations, budget {budget}"
    );
}
