//! Quickstart: generate a small simulated world, run the complete
//! measurement pipeline (§3–§5 of the paper), and print a summary.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use faaswild::cloud::platform::PlatformConfig;
use faaswild::core::pipeline::{Pipeline, PipelineConfig};
use faaswild::probe::prober::ProbeConfig;
use faaswild::workload::{World, WorldConfig};
use std::time::Duration;

fn main() {
    // 1. Build a world: nine providers, calibrated PDNS history, live
    //    functions on a simulated internet. `scale` is relative to the
    //    paper's 531k-domain population.
    println!("generating world (scale 0.01 = ~5.3k function domains)...");
    let world = World::generate(WorldConfig {
        seed: 1,
        scale: 0.01,
        deploy_live: true,
        gen_workers: 0,
        platform: PlatformConfig {
            hang_ms: 500,
            ..PlatformConfig::default()
        },
    });
    println!(
        "  {} functions, {} PDNS rows, {} in probing scope",
        world.functions.len(),
        world.pdns.record_count(),
        world.probed_domains().len()
    );

    // 2. Run the pipeline: identification → usage analyses → active
    //    probing → abuse scan. The pipeline sees only PDNS tuples and
    //    live HTTP responses — never the ground truth.
    let pipeline = Pipeline::new(world.net.clone(), world.resolver.clone());
    let config = PipelineConfig {
        probe: ProbeConfig {
            timeout: Duration::from_millis(200),
            workers: 8,
            ..ProbeConfig::default()
        },
        ..PipelineConfig::default()
    };
    println!("running measurement pipeline...");
    let report = pipeline.run(&world.pdns, &config);

    // 3. Headlines.
    println!();
    println!("== identification (§3.2) ==");
    println!(
        "  identified {} function domains ({} requests observed)",
        report.identification.functions.len(),
        report.identification.total_requests
    );
    for (provider, count) in {
        let mut v: Vec<_> = report
            .identification
            .domains_per_provider()
            .into_iter()
            .collect();
        v.sort_by_key(|(p, _)| *p);
        v
    } {
        println!("    {provider:<8} {count}");
    }

    println!();
    println!("== usage (§4) ==");
    let inv = &report.invocation;
    println!(
        "  {:.1}% of functions invoked < 5 times; {:.1}% single-day lifespan; mean lifespan {:.1} d",
        100.0 * inv.frac_under_5,
        100.0 * inv.frac_single_day,
        inv.mean_lifespan_days
    );

    println!();
    println!("== probing (§4.4) ==");
    let s = &report.status;
    println!(
        "  {} probed; {:.2}% unreachable; 404 {:.1}%, 200 {:.1}%, 502 {:.1}%",
        s.probed,
        100.0 * s.frac_unreachable(),
        100.0 * s.frac_status(404),
        100.0 * s.frac_status(200),
        100.0 * s.frac_status(502),
    );

    println!();
    println!("== abuse (§5, Table 3) ==");
    for row in &report.abuse.table3 {
        println!(
            "  {:<26} {:>3} functions {:>9} requests",
            row.case, row.functions, row.requests
        );
    }
    println!(
        "  TOTAL {} abused functions; {} sensitive items found (Finding 5); \
         threat intel flags {} (Finding 10)",
        report.abuse.total_abused_functions(),
        report.abuse.sensitive_total,
        report.abuse.ti_flagged
    );

    // 4. Score against the world's ground truth (the luxury a simulation
    //    affords that the paper's authors did not have).
    let truth_abused = world.abuse_functions().filter(|f| f.probed).count();
    let detected = report.abuse.detections.len();
    println!();
    println!("== ground-truth score ==");
    println!("  planted abusive functions (probed scope): {truth_abused}");
    println!("  detected by the pipeline:                 {detected}");
}
