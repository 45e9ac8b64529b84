//! The faaswild benchmark.
//!
//! ```text
//! perfbench --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! One process runs one workload (so VmHWM belongs to it alone) and
//! prints, as its last stdout line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end set, measured untraced over
//! `--seconds` of back-to-back iterations (medians). With `--trace 1`
//! the run makes one untraced and one traced iteration and reports the
//! per-layer set, after printing the layer table. Every run checks its
//! workload's output and exits non-zero on a mismatch. See README.md.

mod measure;
mod pipeline;
mod probe;
mod report;
mod serve;
mod stream;

use fw_types::Json;
use report::{Outcome, END_TO_END, PER_LAYER};
use std::path::PathBuf;

const WORKLOADS: [&str; 4] = [
    "pipeline_full",
    "stream_hourly",
    "serve_mixed",
    "probe_scan",
];

/// One run's parameters.
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory inside the working directory.
    pub work_dir: PathBuf,
}

fn die(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut workload: Option<String> = None;
    let mut seed = 42u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| die(&format!("{a} needs a value")))
        };
        match a.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => {
                seed = value()
                    .parse()
                    .unwrap_or_else(|_| die("--seed needs a u64"))
            }
            "--seconds" => {
                seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| die("--seconds needs a positive number"))
            }
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => die("--trace takes 0 or 1"),
                }
            }
            other => die(&format!("unknown argument {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| die("--workload is required"));
    // Every workload runs pinned to one CPU, so `nproc` (and with it
    // every worker knob) reads 1. On a shared multi-core VM the wall
    // time of threads that hand work to each other (serve, stream,
    // probe) or wait for the slowest of a parallel phase (pipeline)
    // follows the hypervisor's cross-core scheduling, which swings up
    // to 2x between runs; on one core the same work is CPU-bound and
    // repeatable.
    let cpu = measure::pin_to_one_cpu().unwrap_or_else(|e| die(&e));
    measure::one_malloc_arena().unwrap_or_else(|e| die(&e));
    let cfg = RunConfig {
        seed,
        seconds,
        trace,
        work_dir: PathBuf::from(".perfbench_work")
            .join(format!("{workload}-{}", std::process::id())),
    };
    println!(
        "perfbench: workload {workload} seed {seed} seconds {seconds} trace {} on {}, pinned to cpu {cpu}",
        u8::from(trace),
        measure::machine()
    );
    // Traced runs report the host's speed around the run, so two layer
    // tables from different moments can be compared.
    let mut calibrator = trace.then(measure::Calibrator::new);
    let before = calibrator.as_mut().map(measure::Calibrator::run);
    let result = match workload.as_str() {
        "pipeline_full" => pipeline::run(&cfg),
        "stream_hourly" => stream::run(&cfg),
        "serve_mixed" => serve::run(&cfg),
        "probe_scan" => probe::run(&cfg),
        other => die(&format!("unknown workload {other} (one of {WORKLOADS:?})")),
    };
    let _ = std::fs::remove_dir(cfg.work_dir.parent().expect("work dir has a parent"));
    let mut out = result.unwrap_or_else(|e| die(&format!("{workload} failed: {e}")));
    if let (Some(c), Some(before)) = (calibrator.as_mut(), before) {
        let host = (before + c.run()) / 2.0 / measure::CALIBRATION_REF_S;
        out.set("proc.host_factor", host);
    }
    emit(&workload, trace, &out);
    if !out.checks.failures.is_empty() {
        std::process::exit(1);
    }
}

/// Print the knobs, the layer table (traced) and the final JSON line.
fn emit(workload: &str, trace: bool, out: &Outcome) {
    let knobs: Vec<String> = out.knobs.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("knobs: {workload} {}", knobs.join(" "));
    if trace {
        print!("{}", out.render_table(workload));
    }
    for f in &out.checks.failures {
        eprintln!("[perfbench] CHECK FAILED: {f}");
    }
    let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for name in out.metrics.keys() {
        assert!(
            names.iter().any(|(n, _)| n == name),
            "metric {name} is not in the declared set"
        );
    }
    let metrics = names
        .iter()
        .map(|(name, unit)| {
            let value = out.metrics.get(name).copied().unwrap_or(0.0);
            assert!(value.is_finite(), "metric {name} is not finite");
            (
                name.to_string(),
                Json::Obj(vec![
                    ("value".to_string(), Json::Num(value)),
                    ("unit".to_string(), Json::Str(unit.to_string())),
                ]),
            )
        })
        .collect();
    let doc = Json::Obj(vec![
        (
            "correct".to_string(),
            Json::Bool(out.checks.failures.is_empty()),
        ),
        (
            "attempted".to_string(),
            Json::Num(out.attempted.max(1) as f64),
        ),
        ("failed".to_string(), Json::Num(out.failed as f64)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ]);
    println!("{}", doc.render());
}
