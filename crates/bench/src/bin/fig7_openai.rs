//! Figure 7: trend of cloud-function misuse for OpenAI API-key resale —
//! monthly request volume and newly-appearing resale functions, with the
//! ChatGPT-release alignment check.

use fw_bench::anchors::{self, Source};
use fw_bench::{header, run_full, Cli};
use fw_core::report::{bar_chart, tsv};

fn main() {
    let cli = Cli::parse(0.02, &[]);
    let (_w, report) = run_full(&cli);
    let abuse = &report.abuse;

    let months = &report.new_fqdns.months;

    header("Figure 7 — monthly request volume of OpenAI-key-resale functions");
    let entries: Vec<(String, f64)> = months
        .iter()
        .zip(&abuse.openai_monthly_requests)
        .map(|(m, v)| (m.label(), *v as f64))
        .collect();
    println!("{}", bar_chart(&entries, 56));

    header("Shape checks (paper vs. measured)");
    anchors::print("fig7", Source::Full(&report), cli.scale);

    if cli.tsv {
        let rows: Vec<Vec<String>> = months
            .iter()
            .enumerate()
            .map(|(i, m)| {
                vec![
                    m.label(),
                    abuse.openai_monthly_requests[i].to_string(),
                    abuse.openai_monthly_new[i].to_string(),
                ]
            })
            .collect();
        println!("\n{}", tsv(&["month", "requests", "new_functions"], &rows));
    }
    fw_bench::maybe_dump_metrics();
}
