//! # fw-bench
//!
//! Shared plumbing for the table/figure regeneration binaries
//! (`src/bin/*.rs`, one per paper table/figure — see DESIGN.md §3) and
//! the criterion performance benches (`benches/`).
//!
//! Every binary accepts:
//!
//! ```text
//! --scale <f64>     population scale vs. the paper (default varies)
//! --seed <u64>      world seed (default 42)
//! --snapshot <dir>  reopen a saved fw-store PDNS snapshot (written by
//!                   fw_snapshot) instead of regenerating the feed;
//!                   stdout is byte-identical to a live run at the same
//!                   seed/scale
//! --gen-workers <n> world-generation worker threads (0 = one per
//!                   core); output is byte-identical at every count
//! --tsv             additionally print machine-readable TSV series
//! --metrics         enable fw-obs telemetry; report dumped to stderr
//!                   on exit (equivalent: FW_METRICS=1 in the env)
//! ```
//!
//! The simulated world always runs on deterministic virtual time
//! (DESIGN.md §10), so probing figures are byte-identical run to run.

pub mod anchors;
pub mod fused;
pub mod gate;
pub mod regress;

use fw_core::abusescan::AbuseScanConfig;
use fw_core::pipeline::{FullReport, Pipeline, PipelineConfig, UsageReport};
use fw_dns::pdns::PdnsBackend as _;
use fw_probe::prober::ProbeConfig;
use fw_store::DiskStore;
use fw_workload::{World, WorldConfig};
use gate::{die, value};
use std::path::PathBuf;
use std::time::Duration;

/// Parsed common CLI options.
#[derive(Debug, Clone)]
pub struct Cli {
    pub scale: f64,
    pub seed: u64,
    pub tsv: bool,
    /// PDNS snapshot directory to reopen instead of generating the feed.
    pub snapshot: Option<PathBuf>,
    /// World-generation worker threads (`--gen-workers`; 0 = one per
    /// core). Output is byte-identical at every worker count.
    pub gen_workers: usize,
    /// Free-form extra flags (binary-specific).
    pub flags: Vec<String>,
}

impl Cli {
    /// Parse `std::env::args`, with a default scale.
    ///
    /// With `--snapshot <dir>`, the snapshot's `world.meta` manifest
    /// supplies the seed/scale the snapshot was cut from, so paper
    /// reference columns (and, for probing binaries, the regenerated
    /// live world) line up without repeating `--scale`/`--seed` —
    /// explicit flags still win.
    pub fn parse(default_scale: f64) -> Cli {
        let mut cli = Cli {
            scale: default_scale,
            seed: 42,
            tsv: false,
            snapshot: None,
            gen_workers: 0,
            flags: Vec::new(),
        };
        let (mut explicit_scale, mut explicit_seed) = (false, false);
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--scale" => {
                    explicit_scale = true;
                    cli.scale = value(&mut args, "--scale");
                }
                "--seed" => {
                    explicit_seed = true;
                    cli.seed = value(&mut args, "--seed");
                }
                "--snapshot" => cli.snapshot = Some(value(&mut args, "--snapshot")),
                "--gen-workers" => cli.gen_workers = value(&mut args, "--gen-workers"),
                "--tsv" => cli.tsv = true,
                "--metrics" => fw_obs::set_enabled(true),
                "--help" | "-h" => {
                    eprintln!(
                        "usage: [--scale <f64>] [--seed <u64>] [--snapshot <dir>] [--gen-workers <n>] [--tsv] [--metrics] [binary-specific flags]"
                    );
                    std::process::exit(0);
                }
                other => cli.flags.push(other.to_string()),
            }
        }
        if let Some(dir) = &cli.snapshot {
            if let Some(meta) = fw_workload::SnapshotMeta::read(dir) {
                if !explicit_scale {
                    cli.scale = meta.scale;
                }
                if !explicit_seed {
                    cli.seed = meta.seed;
                }
            }
        }
        cli
    }

    /// Open the `--snapshot` store read-only, if one was given. Exits
    /// with a diagnostic if the directory is missing or corrupt.
    pub fn snapshot_store(&self) -> Option<DiskStore> {
        let dir = self.snapshot.as_ref()?;
        eprintln!("opening PDNS snapshot {}...", dir.display());
        let start = std::time::Instant::now();
        match DiskStore::open_read_only(dir) {
            Ok(store) => {
                eprintln!(
                    "snapshot ready in {:.2?}: {} fqdns, {} rows",
                    start.elapsed(),
                    store.fqdn_count(),
                    store.record_count()
                );
                Some(store)
            }
            Err(e) => die(&format!("cannot open snapshot {}: {e}", dir.display())),
        }
    }

    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

/// Build a PDNS-only world (fast; for §4 figures).
pub fn usage_world(cli: &Cli) -> World {
    let mut config = WorldConfig::usage(cli.seed, cli.scale);
    config.gen_workers = cli.gen_workers;
    World::generate(config)
}

/// Build a live world (for probing figures).
pub fn live_world(cli: &Cli) -> World {
    let mut config = WorldConfig::live(cli.seed, cli.scale);
    config.gen_workers = cli.gen_workers;
    World::generate(config)
}

/// The pipeline configuration used by probing binaries: the paper's
/// semantics with simulation-friendly timeouts.
pub fn pipeline_config(single_shot: bool) -> PipelineConfig {
    PipelineConfig {
        probe: ProbeConfig {
            timeout: Duration::from_millis(300),
            workers: 16,
            // Appendix A: "< 3 content requests" per function, i.e. at
            // most 2 (HTTPS + HTTP fallback).
            max_requests_per_function: if single_shot { 1 } else { 2 },
            now: 0,
        },
        abuse: AbuseScanConfig {
            c2_timeout: Duration::from_millis(300),
            ..AbuseScanConfig::default()
        },
    }
}

/// Run §4 analyses only. With `--snapshot`, world generation is skipped
/// entirely (the world slot is `None`) and the analyses run against the
/// reopened disk store — stdout is byte-identical to the live run.
pub fn run_usage(cli: &Cli) -> (Option<World>, UsageReport) {
    if let Some(store) = cli.snapshot_store() {
        return (None, Pipeline::run_usage(&store));
    }
    eprintln!(
        "generating world: scale {} seed {} (PDNS only)...",
        cli.scale, cli.seed
    );
    let w = usage_world(cli);
    eprintln!(
        "world ready: {} functions, {} pdns rows",
        w.functions.len(),
        w.pdns.record_count()
    );
    let report = Pipeline::run_usage(&w.pdns);
    (Some(w), report)
}

/// Run the full pipeline including probing. Probing needs the simulated
/// platform, so a live world is generated either way; with `--snapshot`
/// the passive feed is read from the reopened disk store instead of the
/// freshly generated one (same seed/scale ⇒ same rows). On the default
/// virtual clock, probe outcomes are a pure function of the seed, so
/// stdout is byte-identical run-to-run and live-vs-snapshot.
pub fn run_full(cli: &Cli) -> (World, FullReport) {
    run_full_with(cli, &pipeline_config(cli.has_flag("--single-shot")))
}

/// [`run_full`] with the pipeline configuration given.
pub fn run_full_with(cli: &Cli, config: &PipelineConfig) -> (World, FullReport) {
    eprintln!(
        "generating world: scale {} seed {} (live deployment, virtual time)...",
        cli.scale, cli.seed
    );
    let w = live_world(cli);
    eprintln!(
        "world ready: {} functions ({} probed), {} pdns rows; probing...",
        w.functions.len(),
        w.probed_domains().len(),
        w.pdns.record_count()
    );
    let pipeline = Pipeline::new(w.net.clone(), w.resolver.clone());
    let report = match cli.snapshot_store() {
        Some(store) => pipeline.run(&store, config),
        None => pipeline.run(&w.pdns, config),
    };
    (w, report)
}

/// Scale a paper count for display next to measured numbers.
pub fn paper_scaled(full: u64, scale: f64) -> u64 {
    ((full as f64 * scale).round() as u64).max(if full > 0 { 1 } else { 0 })
}

/// Section header.
pub fn header(title: &str) {
    println!();
    println!("== {title} ==");
    println!();
}

/// Dump the fw-obs telemetry report to **stderr** if metrics are
/// enabled (`--metrics` or `FW_METRICS=1`); a no-op otherwise, so
/// stdout stays byte-identical either way. Call at the end of `main`.
pub fn maybe_dump_metrics() {
    if fw_obs::enabled() {
        eprint!("{}", fw_obs::registry().render_text());
    }
}
