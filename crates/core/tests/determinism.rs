//! Worker-count determinism: the CI gate byte-diffs the probing
//! figures, so every parallel stage must produce identical output at
//! any worker count. This test drives the §5 analysis (and through it
//! `par_map`, `cluster_corpus_par` and
//! `C2Scanner::scan_parallel`) at worker counts {1, 3, 8, 16} against
//! one generated world and asserts the reports are equal field-by-field.

use fw_cloud::platform::PlatformConfig;
use fw_core::abusescan::{abuse_scan, AbuseScanConfig};
use fw_core::pipeline::{Pipeline, PipelineConfig};
use fw_probe::prober::ProbeConfig;
use fw_workload::{World, WorldConfig};
use std::time::Duration;

#[test]
fn abuse_scan_is_identical_at_every_worker_count() {
    let w = World::generate(WorldConfig {
        seed: 2024,
        scale: 0.003,
        deploy_live: true,
        gen_workers: 0,
        platform: PlatformConfig {
            hang_ms: 400,
            ..PlatformConfig::default()
        },
    });
    let pipeline = Pipeline::new(w.net.clone(), w.resolver.clone());
    let config = PipelineConfig {
        probe: ProbeConfig {
            timeout: Duration::from_millis(150),
            workers: 8,
            ..ProbeConfig::default()
        },
        abuse: AbuseScanConfig {
            c2_timeout: Duration::from_millis(300),
            ..AbuseScanConfig::default()
        },
    };
    let full = pipeline.run(&w.pdns, &config);

    let abuse_at = |workers: usize| {
        abuse_scan(
            &full.probe_records,
            &full.identification,
            &w.pdns,
            &w.net,
            &w.resolver,
            &AbuseScanConfig {
                c2_timeout: Duration::from_millis(300),
                workers,
                ..AbuseScanConfig::default()
            },
        )
    };

    let baseline = abuse_at(1);
    assert!(
        !baseline.detections.is_empty(),
        "world must plant detectable abuse for this test to bite"
    );
    for workers in [3, 8, 16] {
        let report = abuse_at(workers);
        assert_eq!(
            report, baseline,
            "abuse_scan must be schedule-independent (workers={workers})"
        );
    }
}
