//! Table 3 + §5: abuse inventory — detected cases, functions, requests —
//! plus the §3.4 clustering stage, the §5.3 contact groups, and the
//! Finding 10 defence gap.
//!
//! `--threshold <f32>` overrides the clustering cut (ablation:
//! 0.05/0.1/0.2).

use fw_bench::anchors::{self, Source, TABLE3_CASES};
use fw_bench::{header, paper_scaled, pipeline_config, run_full_with, Cli};
use fw_core::report::{thousands, TextTable};
use fw_workload::calib;

fn main() {
    let cli = Cli::parse(0.02, &["--threshold <f32>"]);
    let mut config = pipeline_config(false);
    // Optional clustering-threshold ablation.
    if let Some(t) = cli.threshold {
        config.abuse.cluster_params.distance_threshold = t;
        eprintln!("clustering threshold override: {t}");
    }

    let (_w, report) = run_full_with(&cli, &config);
    let abuse = &report.abuse;

    header("§3.4 — content corpus and clustering");
    anchors::print("table3.corpus", Source::Full(&report), cli.scale);

    header("Table 3 — abused cloud functions (paper scaled → measured)");
    let mut table = TextTable::new(vec![
        "Case",
        "Functions (paper→meas)",
        "Requests (paper→meas)",
    ]);
    let mut total_fn = 0u64;
    let mut total_req = 0u64;
    for (case, pc) in TABLE3_CASES {
        let row = abuse.table3.iter().find(|r| r.case == case);
        let (f, r) = row.map(|r| (r.functions, r.requests)).unwrap_or((0, 0));
        total_fn += f;
        total_req += r;
        table.row(vec![
            case.to_string(),
            format!("{} → {}", paper_scaled(pc.functions, cli.scale), f),
            format!(
                "{} → {}",
                thousands(paper_scaled(pc.requests, cli.scale)),
                thousands(r)
            ),
        ]);
    }
    table.row(vec![
        "TOTAL".to_string(),
        format!(
            "{} → {}",
            paper_scaled(calib::ABUSE_TOTAL_FUNCTIONS, cli.scale),
            total_fn
        ),
        format!(
            "{} → {}",
            thousands(paper_scaled(calib::ABUSE_TOTAL_REQUESTS, cli.scale)),
            thousands(total_req)
        ),
    ]);
    println!("{}", table.render());
    anchors::print("table3.abused", Source::Full(&report), cli.scale);

    header("§5.3 — OpenAI resale group structure (contact → functions)");
    for (contact, count) in abuse.openai_groups.iter().take(6) {
        println!("  {contact:<28} {count} functions");
    }
    anchors::print("table3.groups", Source::Full(&report), cli.scale);

    header(&format!(
        "§5.3 — extracted redirect targets (paper: {} flagged by WebAdvisor)",
        anchors::REDIRECTS_FLAGGED
    ));
    for (target, verdict) in &abuse.redirect_targets {
        println!("  {target:<52} {verdict:?}");
    }

    header("§6 — provider-management audit (computed recommendations)");
    let findings = fw_core::advice::audit(&report);
    print!("{}", fw_core::advice::render(&findings));

    header("Finding 10 — defence gap");
    anchors::print("table3.intel", Source::Full(&report), cli.scale);

    header("Finding 5 — sensitive data (see finding5_sensitive for detail)");
    anchors::print("table3.sensitive", Source::Full(&report), cli.scale);
    fw_bench::maybe_dump_metrics();
}
