//! Figure 6 + §4.4: active-probing outcome distribution — top status
//! codes, reachability, DNS-failure share, HTTPS support.
//!
//! `--single-shot` runs the ethics-budget ablation (one request per
//! function, no HTTP fallback) and reports the reachability difference.

use fw_bench::anchors::{self, Source};
use fw_bench::{header, run_full, Cli};
use fw_core::report::bar_chart;

fn main() {
    let cli = Cli::parse(0.02);
    let (_w, report) = run_full(&cli);
    let s = &report.status;

    header("Figure 6 — top-10 HTTP status codes (share of reachable)");
    let entries: Vec<(String, f64)> = s
        .top_statuses(10)
        .into_iter()
        .map(|(code, cnt)| (code.to_string(), cnt as f64 / s.reachable.max(1) as f64))
        .collect();
    println!("{}", bar_chart(&entries, 56));

    header("§4.4 anchors (paper vs. measured)");
    anchors::print("fig6", Source::Full(&report), cli.scale);

    if cli.has_flag("--single-shot") {
        println!();
        println!(
            "NOTE: ran with --single-shot (1 request, no HTTP fallback). Compare the \
             unreachable share against a default run to see what the HTTPS→HTTP \
             fallback buys (paper §3.3 justifies the ≤3-request ethics budget)."
        );
    }
    fw_bench::maybe_dump_metrics();
}
