//! Figure 5 + §4.3: distribution of per-function total request counts
//! (CDF and log10 histogram) and the lifespan/activity-density findings.

use fw_bench::anchors::{self, Source};
use fw_bench::{header, run_usage, Cli};
use fw_core::report::bar_chart;

fn main() {
    let cli = Cli::parse(0.05, &[]);
    let (_w, report) = run_usage(&cli);
    let inv = &report.invocation;

    header("Figure 5 — log10 histogram of total request counts");
    let entries: Vec<(String, f64)> = inv
        .log_histogram
        .iter()
        .map(|b| (format!("10^{:.2}–10^{:.2}", b.lo, b.hi), b.count as f64))
        .collect();
    println!("{}", bar_chart(&entries, 56));

    header("Figure 5 / §4.3 anchors (paper vs. measured)");
    anchors::print("fig5", Source::Usage(&report), cli.scale);

    if cli.tsv {
        println!("\nlog10_lo\tlog10_hi\tcount");
        for b in &inv.log_histogram {
            println!("{:.3}\t{:.3}\t{}", b.lo, b.hi, b.count);
        }
        println!("\nlog10_requests\tcdf");
        for (x, y) in &inv.cdf {
            println!("{x:.4}\t{y:.6}");
        }
    }
    fw_bench::maybe_dump_metrics();
}
