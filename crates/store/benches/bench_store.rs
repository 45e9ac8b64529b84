//! Criterion benches for the storage engine: sharded ingest, segment
//! encoding, snapshot save (seal) / load (open), full-scan throughput,
//! the shard scan — the paths that gate snapshot replay speed — and the
//! fused pipeline's seal-then-scan of one shard.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use fw_dns::pdns::PdnsBackend;
use fw_store::{DiskStore, SegmentBuilder, StoreConfig};
use fw_types::{DayStamp, Fqdn, Rdata, MEASUREMENT_START};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Deterministic synthetic PDNS row stream (no RNG dependency).
fn rows(n: usize) -> Vec<(Fqdn, Rdata, DayStamp, u64)> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let fqdn = Fqdn::parse(&format!("f{}.lambda-url.us-east-1.on.aws", state % 5_000)).unwrap();
        let rdata = Rdata::V4(Ipv4Addr::new(
            198,
            51,
            (state >> 16) as u8 % 4,
            (state >> 24) as u8,
        ));
        let day = MEASUREMENT_START + ((state >> 32) % 731) as i64;
        out.push((fqdn, rdata, day, state % 9 + 1));
    }
    out
}

fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "fw-store-bench-{}-{tag}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn bench_ingest(c: &mut Criterion) {
    let data = rows(50_000);
    let mut group = c.benchmark_group("store_ingest");
    group.throughput(Throughput::Elements(data.len() as u64));
    group.bench_function("observe_50k_rows_16_shards", |b| {
        b.iter(|| {
            let dir = scratch("ingest");
            let store = DiskStore::create(
                &dir,
                StoreConfig {
                    shards: 16,
                    flush_rows: 0,
                },
            )
            .unwrap();
            for (f, r, d, cnt) in &data {
                store.observe_count(f, r, *d, *cnt);
            }
            let n = store.record_count();
            drop(store);
            std::fs::remove_dir_all(&dir).unwrap();
            black_box(n)
        })
    });
    group.finish();
}

fn bench_segment_builder(c: &mut Criterion) {
    // The seal's input shape: each fqdn once, its `(rdata, day)` keys
    // merged.
    let mut table: HashMap<Fqdn, HashMap<(Rdata, DayStamp), u64>> = HashMap::new();
    for (f, r, d, cnt) in rows(50_000) {
        *table.entry(f).or_default().entry((r, d)).or_default() += cnt;
    }
    let keys: usize = table.values().map(HashMap::len).sum();
    let mut group = c.benchmark_group("segment_builder");
    group.throughput(Throughput::Elements(keys as u64));
    group.bench_function("encode_50k_rows", |b| {
        b.iter(|| {
            let mut builder = SegmentBuilder::for_distinct_fqdns(table.len(), keys);
            for (fqdn, rows) in &table {
                builder.push_fqdn_rows(fqdn, rows.iter().map(|((r, d), cnt)| (r, *d, *cnt)));
            }
            black_box(builder.finish().unwrap().len())
        })
    });
    group.finish();
}

fn bench_snapshot_save_load(c: &mut Criterion) {
    let data = rows(50_000);
    let mut group = c.benchmark_group("snapshot");
    group.throughput(Throughput::Elements(data.len() as u64));
    group.bench_function("save_50k_rows", |b| {
        b.iter(|| {
            let dir = scratch("save");
            let store = DiskStore::create(
                &dir,
                StoreConfig {
                    shards: 16,
                    flush_rows: 0,
                },
            )
            .unwrap();
            for (f, r, d, cnt) in &data {
                store.observe_count(f, r, *d, *cnt);
            }
            store.seal().unwrap();
            drop(store);
            std::fs::remove_dir_all(&dir).unwrap();
        })
    });

    // One persisted store reused across load iterations.
    let dir = scratch("load");
    {
        let store = DiskStore::create(
            &dir,
            StoreConfig {
                shards: 16,
                flush_rows: 0,
            },
        )
        .unwrap();
        for (f, r, d, cnt) in &data {
            store.observe_count(f, r, *d, *cnt);
        }
        store.seal().unwrap();
    }
    group.bench_function("load_50k_rows", |b| {
        b.iter(|| black_box(DiskStore::open_read_only(&dir).unwrap().record_count()))
    });

    let store = DiskStore::open_read_only(&dir).unwrap();
    group.bench_function("full_scan_50k_rows", |b| {
        b.iter(|| {
            let mut total = 0u64;
            store.for_each_row(&mut |_f, _t, _r, _d, cnt| total += cnt);
            black_box(total)
        })
    });
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
    group.finish();
}

fn bench_varint_decode(c: &mut Criterion) {
    // Mixed-width varints shaped like real segment columns: mostly 1-2
    // byte counts/deltas with a long tail of wide values.
    let mut state = 0xD1B5_4A32_D192_ED03u64;
    let mut values = Vec::with_capacity(100_000);
    for _ in 0..100_000 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let width = state % 10;
        values.push(if width < 6 {
            state % 128
        } else if width < 9 {
            state % (1 << 14)
        } else {
            state % (1 << 40)
        });
    }
    let mut encoded = Vec::new();
    for v in &values {
        fw_store::codec::put_uvarint(&mut encoded, *v);
    }

    let mut group = c.benchmark_group("varint_decode");
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("scalar_100k", |b| {
        b.iter(|| {
            let mut r = fw_store::codec::Reader::new(&encoded);
            let mut sum = 0u64;
            for _ in 0..values.len() {
                sum = sum.wrapping_add(r.uvarint().unwrap());
            }
            black_box(sum)
        })
    });
    group.bench_function("swar_100k", |b| {
        b.iter(|| {
            let mut r = fw_store::codec::Reader::new(&encoded);
            let mut sum = 0u64;
            for _ in 0..values.len() {
                sum = sum.wrapping_add(r.uvarint_swar().unwrap());
            }
            black_box(sum)
        })
    });
    group.bench_function("swar_batch4_100k", |b| {
        b.iter(|| {
            let mut r = fw_store::codec::Reader::new(&encoded);
            let mut sum = 0u64;
            for _ in 0..values.len() / 4 {
                for v in r.uvarint4().unwrap() {
                    sum = sum.wrapping_add(v);
                }
            }
            black_box(sum)
        })
    });
    group.finish();
}

fn bench_shard_scan(c: &mut Criterion) {
    // One sealed shard (single sorted segment), scanned through the
    // segment reader and visitor path the fused pipeline runs per shard.
    let data = rows(50_000);
    let dir = scratch("shard-scan");
    {
        let store = DiskStore::create(
            &dir,
            StoreConfig {
                shards: 1,
                flush_rows: 0,
            },
        )
        .unwrap();
        for (f, r, d, cnt) in &data {
            store.observe_count(f, r, *d, *cnt);
        }
        store.seal().unwrap();
    }
    let mut group = c.benchmark_group("shard_scan");
    group.throughput(Throughput::Elements(data.len() as u64));
    group.bench_function("scan_shard_visit_50k_rows", |b| {
        b.iter(|| {
            let mut aggs = 0usize;
            let mut total = 0u64;
            fw_store::scan_shard_visit(
                &dir,
                0,
                &mut |_agg| aggs += 1,
                Some(&mut |_f, _r, _d, cnt| total += cnt),
            )
            .unwrap();
            black_box((aggs, total))
        })
    });
    group.finish();
    std::fs::remove_dir_all(&dir).unwrap();
}

fn bench_seal_scan(c: &mut Criterion) {
    // The fused pipeline's per-shard step on one shard: seal the table
    // through the borrowing segment builder, release it, and stream the
    // segment back with the scan moving each name into its aggregate.
    let data = rows(50_000);
    let mut group = c.benchmark_group("seal_scan");
    group.throughput(Throughput::Elements(data.len() as u64));
    group.bench_function("seal_then_scan_one_shard_50k_rows", |b| {
        b.iter_batched(
            || {
                let dir = scratch("seal-scan");
                let store = DiskStore::create(
                    &dir,
                    StoreConfig {
                        shards: 1,
                        flush_rows: 0,
                    },
                )
                .unwrap();
                for (f, r, d, cnt) in &data {
                    store.observe_count(f, r, *d, *cnt);
                }
                (dir, store)
            },
            |(dir, store)| {
                store.seal_shard(0).unwrap();
                store.release_shard_table(0);
                let mut aggs = 0usize;
                let mut total = 0u64;
                fw_store::scan_shard_visit(
                    &dir,
                    0,
                    &mut |agg| aggs += agg.rdata_dist.len(),
                    Some(&mut |_f, _r, _d, cnt| total += cnt),
                )
                .unwrap();
                drop(store);
                std::fs::remove_dir_all(&dir).unwrap();
                (aggs, total)
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_ingest,
    bench_segment_builder,
    bench_snapshot_save_load,
    bench_varint_decode,
    bench_shard_scan,
    bench_seal_scan
);
criterion_main!(benches);
