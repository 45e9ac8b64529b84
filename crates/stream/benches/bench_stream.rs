//! Microbenchmarks for the streaming ingest path: one batch frame
//! through the wire codec over a bare `pipe_pair`, and one day of
//! hourly batches folded into a fresh measurement state.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use fw_dns::pdns::PdnsRow;
use fw_net::{pipe_pair, Connection};
use fw_stream::wire::{read_frame, write_batch, Frame};
use fw_stream::{collect_rows, day_batches, Measurement, ScoreConfig};
use fw_workload::{World, WorldConfig};

/// Every row of the scale-0.01 usage world, seed 42, in replay order.
fn world_rows() -> Vec<PdnsRow> {
    collect_rows(&World::generate(WorldConfig::usage(42, 0.01)).pdns)
}

/// One 20-row frame, encoded once, written to the pipe and decoded
/// back per iteration: the daemon's side of one hourly batch.
fn bench_read_frame(c: &mut Criterion, rows: &[PdnsRow]) {
    let rows = &rows[rows.len() / 2..][..20];
    let (mut tx, mut rx) = pipe_pair(
        "10.0.0.1:7400".parse().unwrap(),
        "10.0.0.2:7400".parse().unwrap(),
    );
    let len = write_batch(&mut tx, 1, rows[0].day, rows).unwrap();
    let mut frame = vec![0u8; len];
    rx.read_exact(&mut frame).unwrap();

    let mut g = c.benchmark_group("stream");
    g.throughput(Throughput::Elements(rows.len() as u64));
    g.bench_function("read_frame_20_rows", |b| {
        b.iter(|| {
            tx.write_all(&frame).unwrap();
            match read_frame(&mut rx).unwrap() {
                Some(Frame::Batch { rows, .. }) => black_box(rows.len()),
                other => panic!("expected a batch, read {other:?}"),
            }
        })
    });
    g.finish();
}

/// The hourly batches of the world's busiest day, applied to a fresh
/// one-worker measurement state.
fn bench_measurement_day(c: &mut Criterion, rows: &[PdnsRow]) {
    let batches = day_batches(rows, 24);
    let busiest = batches
        .iter()
        .max_by_key(|b| {
            let day = b.watermark_day;
            batches
                .iter()
                .filter(|o| o.watermark_day == day)
                .map(|o| o.rows.len())
                .sum::<usize>()
        })
        .expect("a non-empty world")
        .watermark_day;
    let day: Vec<_> = batches
        .into_iter()
        .filter(|b| b.watermark_day == busiest)
        .collect();
    let day_rows: usize = day.iter().map(|b| b.rows.len()).sum();

    let mut g = c.benchmark_group("stream");
    g.sample_size(200);
    g.throughput(Throughput::Elements(day_rows as u64));
    g.bench_function("measurement_apply_day", |b| {
        b.iter_batched(
            || Measurement::new(1, ScoreConfig::default()),
            |mut m| {
                for batch in &day {
                    m.apply(&batch.rows, batch.offset_us);
                }
                m
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn bench_stream(c: &mut Criterion) {
    let rows = world_rows();
    bench_read_frame(c, &rows);
    bench_measurement_day(c, &rows);
}

criterion_group!(benches, bench_stream);
criterion_main!(benches);
