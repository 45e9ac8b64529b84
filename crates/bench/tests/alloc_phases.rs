//! Heap allocations of one perfbench `pipeline_full` iteration
//! (`run_fused` + `figures_digest`, scale 0.25, seed 42, 16 shards, two
//! generation and two seal/analyze workers), split by phase. The table
//! is EXPERIMENTS.md's "Allocation-lean row path"; the test holds the
//! iteration to 2.0M allocations. Slow outside release builds, so it is
//! ignored by default:
//!
//! ```text
//! cargo test --release --offline -p fw-bench --test alloc_phases -- --ignored --nocapture
//! ```
//!
//! The test binary's global allocator counts the allocations of every
//! thread in one relaxed atomic; reallocations are not counted. The
//! phase rows replay `run_fused`'s public calls one shard at a time on
//! this thread; the budget row is a `run_fused` call itself.

// The counting allocator implements the unsafe `GlobalAlloc`; the
// workspace denies `unsafe_code` everywhere else.
#![allow(unsafe_code)]

use fw_bench::fused::{figures_digest, run_fused, FusedOptions};
use fw_core::fold::{finish, BatchFold};
use fw_core::identify::IdentifyEngine;
use fw_dns::pdns::PdnsBackend as _;
use fw_store::{scan_shard_visit, DiskStore, StoreConfig};
use fw_workload::{row_key_hash, World, WorldConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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

const SCALE: f64 = 0.25;
const SEED: u64 = 42;
const SHARDS: usize = 16;
const WORKERS: usize = 2;
/// perfbench's `figures_fnv` pin for this world.
const FIGURES_FNV: u64 = 0x9780_01f6_e46d_8fbb;
/// The iteration's allocation budget.
const BUDGET: u64 = 2_000_000;

fn config() -> WorldConfig {
    WorldConfig {
        gen_workers: WORKERS,
        ..WorldConfig::usage(SEED, SCALE)
    }
}

/// Run `f` and return the allocations every thread made meanwhile.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

#[test]
#[ignore = "release-mode measurement at scale 0.25; run with --ignored"]
fn pipeline_full_iteration_fits_its_allocation_budget() {
    let base = std::env::temp_dir().join(format!("fw-alloc-phases-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let store_config = StoreConfig {
        shards: SHARDS,
        flush_rows: 0,
    };

    let store = DiskStore::create(&base.join("phases"), store_config).expect("create store");
    let (generate, _world) = allocations(|| World::generate_into(config(), &store));
    let fqdns = store.fqdn_count();
    let mut fold = BatchFold::new(None);
    let mut engine = IdentifyEngine::batch(1);
    let (mut seal, mut scan) = (0, 0);
    for shard in 0..SHARDS {
        seal += allocations(|| store.seal_shard(shard).expect("seal")).0;
        store.release_shard_table(shard);
        scan += allocations(|| {
            let fold = RefCell::new(&mut fold);
            scan_shard_visit(
                store.dir(),
                shard,
                &mut |agg| fold.borrow_mut().aggregate(agg),
                Some(&mut |fqdn, rdata, day, cnt| {
                    std::hint::black_box(row_key_hash(fqdn, rdata, day));
                    fold.borrow_mut().row(fqdn, rdata, day, cnt);
                }),
            )
            .expect("scan");
            fold.borrow_mut().absorb_into(&mut engine);
        })
        .0;
    }
    let (report, (usage, _)) = allocations(|| finish(engine, &fold.into_usage(), None));
    let (digest, figures) = allocations(|| {
        figures_digest(&usage.identification, &usage.request_series, &usage.ingress)
    });
    assert_eq!(
        figures, FIGURES_FNV,
        "the replayed phases reproduce the pin"
    );

    let opts = FusedOptions {
        shards: SHARDS,
        workers: WORKERS,
        sample: None,
    };
    let (iteration, figures) = allocations(|| {
        let run = run_fused(config(), &base.join("run"), &opts).expect("fused run");
        figures_digest(&run.report, &run.monthly, &run.ingress)
    });
    assert_eq!(figures, FIGURES_FNV);
    let _ = std::fs::remove_dir_all(&base);

    println!("phase                 allocations  per fqdn ({fqdns} fqdns)");
    for (phase, n) in [
        ("generate+ingest", generate),
        ("seal", seal),
        ("scan+fold", scan),
        ("finish", report),
        ("figures digest", digest),
        ("iteration (run_fused)", iteration),
    ] {
        println!("{phase:<21} {n:>11}  {:>8.2}", n as f64 / fqdns as f64);
    }
    assert!(
        iteration <= BUDGET,
        "a pipeline_full iteration made {iteration} allocations, budget {BUDGET}"
    );
}
