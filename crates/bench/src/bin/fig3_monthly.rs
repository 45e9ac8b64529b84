//! Figure 3: monthly newly-observed function FQDNs (cumulative total and
//! per-month additions), with the AWS function-URL launch spike.

use fw_bench::anchors::{self, Source};
use fw_bench::{header, run_usage, Cli};
use fw_core::report::{bar_chart, tsv};

fn main() {
    let cli = Cli::parse(0.05);
    let (_w, report) = run_usage(&cli);

    header("Figure 3 — monthly newly observed FQDNs");
    let series = &report.new_fqdns;
    let total = series.total();
    let entries: Vec<(String, f64)> = series
        .months
        .iter()
        .zip(&total)
        .map(|(m, v)| (m.label(), *v as f64))
        .collect();
    println!("{}", bar_chart(&entries, 56));

    let cumulative: Vec<u64> = total
        .iter()
        .scan(0u64, |acc, v| {
            *acc += v;
            Some(*acc)
        })
        .collect();
    header("Cumulative identified function domains");
    anchors::print("fig3", Source::Usage(&report), cli.scale);

    if cli.tsv {
        let rows: Vec<Vec<String>> = series
            .months
            .iter()
            .enumerate()
            .map(|(i, m)| vec![m.label(), total[i].to_string(), cumulative[i].to_string()])
            .collect();
        println!("\n{}", tsv(&["month", "new_fqdns", "cumulative"], &rows));
    }
    fw_bench::maybe_dump_metrics();
}
