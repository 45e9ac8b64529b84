//! Generate a world's PDNS feed straight into an fw-store snapshot.
//!
//! ```text
//! fw_snapshot --snapshot-out <dir> [--scale <f64>] [--seed <u64>]
//!             [--gen-workers <n>] [--live] [--metrics]
//! ```
//!
//! Rows stream into the store as they are generated (the fused
//! pipeline's writer, [`fw_workload::write_snapshot`]); the store is
//! then sealed to one segment per shard and a `world.meta` manifest
//! records the seed, scale, flavor and content hash. Any figure
//! binary reopens it read-only via `--snapshot <dir>`, skipping world
//! generation entirely for the usage-only figures.
//!
//! A default (usage) snapshot matches the feed the usage figures
//! (fig3/4/5, table1/2) generate; `--live` instead generates the live
//! world the probing figures (fig6/7, table3, finding5) use — the two
//! feeds mint different fqdns at the same seed, so pick the flavor
//! matching the binaries you want to replay.

use fw_bench::gate::{die, value};
use fw_workload::{write_snapshot, WorldConfig};
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let mut out: Option<PathBuf> = None;
    let mut scale = 0.1f64;
    let mut seed = 42u64;
    let mut gen_workers = 0usize;
    let mut live = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--snapshot-out" => out = Some(value(&mut args, "--snapshot-out")),
            "--scale" => scale = value(&mut args, "--scale"),
            "--seed" => seed = value(&mut args, "--seed"),
            "--gen-workers" => gen_workers = value(&mut args, "--gen-workers"),
            "--live" => live = true,
            "--metrics" => fw_obs::set_enabled(true),
            "--help" | "-h" => {
                eprintln!(
                    "usage: fw_snapshot --snapshot-out <dir> [--scale <f64>] [--seed <u64>] [--gen-workers <n>] [--live] [--metrics]"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown flag {other}")),
        }
    }
    let out = out.unwrap_or_else(|| die("--snapshot-out <dir> is required"));

    let flavor = if live { "live" } else { "PDNS only" };
    eprintln!(
        "generating world into snapshot {}: scale {scale} seed {seed} ({flavor})...",
        out.display()
    );
    let start = Instant::now();
    let mut config = if live {
        WorldConfig::live(seed, scale)
    } else {
        WorldConfig::usage(seed, scale)
    };
    config.gen_workers = gen_workers;
    let stats = write_snapshot(config, &out)
        .unwrap_or_else(|e| die(&format!("snapshot write failed: {e}")));
    println!(
        "snapshot: {} fqdns, {} rows, {} shards, seed {}, scale {}",
        stats.fqdns, stats.rows, stats.shards, seed, scale
    );
    eprintln!("written in {:.2?}", start.elapsed());
    if fw_obs::enabled() {
        eprint!("{}", fw_obs::registry().render_text());
    }
}
