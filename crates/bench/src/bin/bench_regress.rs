//! CLI wrapper over [`fw_bench::regress`]: compare a fresh gate report
//! against the committed baseline of the same gate and exit non-zero on
//! regression (CI runs it after each gate).
//!
//! ```text
//! bench_regress --baseline BENCH_pipeline.json --current BENCH_current.json
//!               [--tolerance <frac>] [--total-tolerance <frac>]
//!               [--abs-slack-ms <ms>]
//! ```
//!
//! Exit codes: 0 comparison ran and passed, 1 regression detected,
//! 2 usage or unreadable/shape-mismatched input.

use fw_bench::gate::{die, value};
use fw_bench::regress::{compare, RegressConfig};
use fw_types::Json;
use std::path::PathBuf;

fn load(path: &PathBuf, what: &str) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(&format!("cannot read {what} {}: {e}", path.display())));
    Json::parse(&text)
        .unwrap_or_else(|e| die(&format!("cannot parse {what} {}: {e}", path.display())))
}

fn main() {
    let mut baseline = PathBuf::from("BENCH_pipeline.json");
    let mut current: Option<PathBuf> = None;
    let mut config = RegressConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--baseline" => baseline = value(&mut args, "--baseline"),
            "--current" => current = Some(value(&mut args, "--current")),
            "--tolerance" => config.tolerance = value(&mut args, "--tolerance"),
            "--total-tolerance" => config.total_tolerance = value(&mut args, "--total-tolerance"),
            "--abs-slack-ms" => config.abs_slack_ms = value(&mut args, "--abs-slack-ms"),
            "--help" | "-h" => {
                eprintln!(
                    "usage: bench_regress --current <report.json> [--baseline <report.json>] [--tolerance <frac>] [--total-tolerance <frac>] [--abs-slack-ms <ms>]"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown flag {other}")),
        }
    }
    let current = current.unwrap_or_else(|| die("--current <report.json> is required"));

    let base_doc = load(&baseline, "baseline");
    let cur_doc = load(&current, "candidate");
    match compare(&base_doc, &cur_doc, &config) {
        Ok(report) => {
            print!("{}", report.render_text(&config));
            std::process::exit(if report.regressed() { 1 } else { 0 });
        }
        Err(e) => die(&e),
    }
}
