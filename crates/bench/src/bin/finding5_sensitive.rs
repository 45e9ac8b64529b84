//! Finding 5: sensitive-data exposure through unauthorized access —
//! per-category counts and the DoW (Denial-of-Wallet) arithmetic the
//! finding warns about.

use fw_bench::anchors::{self, Source, FINDING5_KINDS};
use fw_bench::{header, paper_scaled, run_full, Cli};
use fw_cloud::billing::PriceModel;
use fw_core::report::TextTable;
use fw_workload::calib;

fn main() {
    let cli = Cli::parse(0.02, &[]);
    let (_w, report) = run_full(&cli);
    let abuse = &report.abuse;

    header("Finding 5 — sensitive data in function responses");
    let mut table = TextTable::new(vec!["Category", "Paper (scaled)", "Measured"]);
    for (kind, paper) in FINDING5_KINDS {
        table.row(vec![
            kind.label().to_string(),
            paper_scaled(paper, cli.scale).to_string(),
            abuse.sensitive.get(&kind).copied().unwrap_or(0).to_string(),
        ]);
    }
    table.row(vec![
        "TOTAL".to_string(),
        paper_scaled(calib::SENSITIVE_TOTAL, cli.scale).to_string(),
        abuse.sensitive_total.to_string(),
    ]);
    println!("{}", table.render());

    anchors::print("finding5", Source::Full(&report), cli.scale);

    header("DoW threat model (§2.3 price model)");
    // An attacker driving 100 rps for a day against a 1 GB / 1 s function.
    let bill = PriceModel::AWS.dow_cost(100.0, 86_400.0, 1024, 1000);
    println!(
        "attack: 100 req/s × 24 h against a 1 GB / 1 s AWS function\n\
         → {} invocations, {:.0} GB-s, bill ${:.2} (request ${:.2} + compute ${:.2})",
        bill.invocations,
        bill.gb_seconds,
        bill.total_usd,
        bill.request_cost_usd,
        bill.compute_cost_usd
    );
    let gentle = PriceModel::AWS.dow_cost(1.0, 3600.0, 128, 20);
    println!(
        "baseline: 1 req/s × 1 h against a 128 MB / 20 ms function → within free tier: {}",
        gentle.within_free_tier
    );
    fw_bench::maybe_dump_metrics();
}
