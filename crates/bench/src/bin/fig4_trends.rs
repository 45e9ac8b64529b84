//! Figure 4: invocation trends of cloud functions per provider, with the
//! annotated market events of §4.1.

use fw_bench::anchors::{self, Source};
use fw_bench::{header, run_usage, Cli};
use fw_core::report::tsv;
use fw_types::ProviderId;

fn main() {
    let cli = Cli::parse(0.05, &[]);
    let (_w, report) = run_usage(&cli);
    let series = &report.request_series;

    header("Figure 4 — monthly invocation (request) volume per provider");
    // Compact log-scale sparkline table: one row per provider.
    let glyphs = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    for provider in ProviderId::ALL {
        let Some(s) = series.for_provider(provider) else {
            continue;
        };
        let max = *s.iter().max().unwrap_or(&1) as f64;
        let line: String = s
            .iter()
            .map(|v| {
                if *v == 0 {
                    ' '
                } else {
                    let idx = (((*v as f64).ln() / max.max(2.0).ln()) * (glyphs.len() - 1) as f64)
                        .round() as usize;
                    glyphs[idx.min(glyphs.len() - 1)]
                }
            })
            .collect();
        println!(
            "{:<8} |{line}|  total {}",
            provider.label(),
            s.iter().sum::<u64>()
        );
    }
    println!(
        "          {}",
        series
            .months
            .iter()
            .map(|m| if m.month == 1 { "J" } else { "·" })
            .collect::<String>()
    );
    if let [first, .., last] = &series.months[..] {
        println!("          window: {first} .. {last}");
    }

    header("§4.1 event checks (paper vs. measured)");
    anchors::print("fig4", Source::Usage(&report), cli.scale);

    if cli.tsv {
        let mut rows = Vec::new();
        for (i, m) in series.months.iter().enumerate() {
            let mut row = vec![m.label()];
            for p in ProviderId::ALL {
                row.push(
                    series
                        .for_provider(p)
                        .map(|s| s[i].to_string())
                        .unwrap_or_else(|| "0".into()),
                );
            }
            rows.push(row);
        }
        let mut headers = vec!["month"];
        for p in &ProviderId::ALL {
            headers.push(p.label());
        }
        println!("\n{}", tsv(&headers, &rows));
    }
    fw_bench::maybe_dump_metrics();
}
