//! Criterion benches for the end-to-end stages: world generation, PDNS
//! identification + usage analyses, and the full probe-and-scan pipeline
//! at a tiny scale.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use fw_cloud::platform::PlatformConfig;
use fw_core::pipeline::Pipeline;
use fw_probe::prober::ProbeConfig;
use fw_workload::{World, WorldConfig};
use std::time::Duration;

fn usage_config() -> WorldConfig {
    WorldConfig {
        seed: 77,
        scale: 0.002,
        deploy_live: false,
        gen_workers: 0,
        platform: PlatformConfig::default(),
    }
}

fn bench_world_generation(c: &mut Criterion) {
    c.bench_function("pipeline/world_generate_scale0.002", |b| {
        b.iter(|| {
            let w = World::generate(black_box(usage_config()));
            black_box(w.functions.len())
        })
    });
}

fn bench_usage_pipeline(c: &mut Criterion) {
    let w = World::generate(usage_config());
    c.bench_function("pipeline/usage_analyses_scale0.002", |b| {
        b.iter(|| {
            let report = Pipeline::run_usage(black_box(&w.pdns));
            black_box(report.invocation.functions)
        })
    });
}

fn bench_full_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.bench_function("full_probe_and_scan_scale0.001", |b| {
        b.iter_batched(
            || {
                World::generate(WorldConfig {
                    seed: 11,
                    scale: 0.001,
                    deploy_live: true,
                    gen_workers: 0,
                    platform: PlatformConfig {
                        hang_ms: 200,
                        ..PlatformConfig::default()
                    },
                })
            },
            |w| {
                let pipeline = Pipeline::new(w.net.clone(), w.resolver.clone());
                let config = fw_core::pipeline::PipelineConfig {
                    probe: ProbeConfig {
                        timeout: Duration::from_millis(100),
                        workers: 8,
                        ..ProbeConfig::default()
                    },
                    abuse: fw_core::abusescan::AbuseScanConfig {
                        c2_timeout: Duration::from_millis(200),
                        ..Default::default()
                    },
                };
                let report = pipeline.run(&w.pdns, &config);
                black_box(report.abuse.total_abused_functions())
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_world_generation,
    bench_usage_pipeline,
    bench_full_pipeline
);
criterion_main!(benches);
