//! Table 2: usage and resolution results of cloud functions across
//! providers — domains, request totals, regions, rtype mix, rdata pool
//! sizes and top-10 concentration. Prints paper vs. measured side by
//! side, plus the entropy-based concentration ablation.

use fw_bench::{header, paper_scaled, run_usage, Cli};
use fw_core::report::{pct, thousands, TextTable};
use fw_workload::calib;

fn main() {
    let cli = Cli::parse(0.05, &[]);
    let (_w, report) = run_usage(&cli);

    header(&format!(
        "Table 2 — measured at scale {} (paper values scaled for counts; \
         shares are scale-invariant)",
        cli.scale
    ));

    let mut table = TextTable::new(vec![
        "Provider",
        "Domains (paper→meas)",
        "Requests (paper→meas)",
        "Regions (p→m)",
        "A% (p→m)",
        "CNAME% (p→m)",
        "AAAA% (p→m)",
        "rdata A (p→m)",
        "Top10 A (p→m)",
    ]);
    for c in &calib::PROVIDERS {
        let Some(row) = report.ingress.iter().find(|r| r.provider == c.provider) else {
            continue;
        };
        let regions_paper = fw_cloud::provider::spec(c.provider).regions.len();
        table.row(vec![
            c.provider.label().to_string(),
            format!(
                "{} → {}",
                thousands(paper_scaled(c.domains, cli.scale)),
                thousands(row.domains)
            ),
            format!(
                "{} → {}",
                thousands(paper_scaled(c.total_requests, cli.scale)),
                thousands(row.total_requests)
            ),
            format!("{} → {}", regions_paper, row.regions),
            format!("{} → {}", pct(c.rtype_share.0), pct(row.rtype_share.0)),
            format!("{} → {}", pct(c.rtype_share.1), pct(row.rtype_share.1)),
            format!("{} → {}", pct(c.rtype_share.2), pct(row.rtype_share.2)),
            format!(
                "{} → {}",
                paper_scaled(u64::from(c.rdata_pool.0), cli.scale),
                row.rdata_cnt.0
            ),
            format!("{} → {}", pct(c.top10.0), pct(row.top10.0)),
        ]);
    }
    println!("{}", table.render());

    header("Concentration ablation: Top-10 share vs. Shannon entropy (A records)");
    let mut ab = TextTable::new(vec![
        "Provider",
        "Top10 share",
        "Entropy (bits)",
        "rdata_cnt",
    ]);
    for row in &report.ingress {
        ab.row(vec![
            row.provider.label().to_string(),
            pct(row.top10.0),
            // Entropy is never negative, but one address sums to -0.0.
            format!("{:.2}", row.entropy_bits.0.abs()),
            row.rdata_cnt.0.to_string(),
        ]);
    }
    println!("{}", ab.render());
    println!(
        "reading: concentrated ingress (Aliyun/Tencent/Google) shows high Top10 AND low \
         entropy; AWS's dispersed ingress shows low Top10 and high entropy — the two \
         metrics agree, so the paper's simpler Top10 metric loses little."
    );

    // Headline check: CNAME-heavy providers per §4.2.
    header("§4.2 checks");
    for c in &calib::PROVIDERS {
        let Some(row) = report.ingress.iter().find(|r| r.provider == c.provider) else {
            continue;
        };
        let paper_cname_heavy = c.rtype_share.1 > 0.7;
        let measured_cname_heavy = row.rtype_share.1 > 0.7;
        println!(
            "{:<8} CNAME-heavy: paper {} / measured {}  {}",
            c.provider.label(),
            paper_cname_heavy,
            measured_cname_heavy,
            if paper_cname_heavy == measured_cname_heavy {
                "OK"
            } else {
                "MISMATCH"
            }
        );
    }
    fw_bench::maybe_dump_metrics();
}
