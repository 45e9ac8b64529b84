//! Table 1: URL formats and domain regular expressions across providers.
//!
//! Regenerates the table, then validates each expression the way §3.1
//! does: mint k function URLs per provider and check that (a) each
//! matches its own expression and (b) `identify` maps it back to the
//! right provider. With `--suffix-only`, runs the DESIGN.md ablation
//! showing the precision gap of naive suffix matching.

use fw_bench::anchors::{self, Source};
use fw_bench::{header, Cli};
use fw_cloud::formats::{all_formats, identify};
use fw_core::identify::suffix_only_ablation;
use fw_core::report::TextTable;
use fw_pattern::{Pattern, Sampler, SamplerConfig, XorShiftRng};

fn main() {
    let cli = Cli::parse(0.1);
    header("Table 1 — URL formats and domain regular expressions");

    let mut table = TextTable::new(vec![
        "Provider",
        "Launch",
        "Template",
        "Mode",
        "Collected",
        "Probed",
    ]);
    for f in all_formats() {
        let p = f.provider;
        table.row(vec![
            p.product_name().to_string(),
            p.launch_year().to_string(),
            f.template.to_string(),
            p.generation_mode().to_string(),
            if p.dns_identifiable() {
                "yes"
            } else {
                "no (suffix collision)"
            }
            .to_string(),
            if p.function_identifiable() {
                "yes"
            } else {
                "no (path-identified)"
            }
            .to_string(),
        ]);
    }
    println!("{}", table.render());

    header("Expression validation (1,000 minted URLs per provider)");
    let mut rng = XorShiftRng::new(cli.seed);
    let mut all_ok = true;
    for f in all_formats() {
        let pattern = Pattern::compile(f.regex).expect("table 1 regex compiles");
        // Domain-friendly sampling: `(.*)` components stay non-empty so
        // every sample is a well-formed fqdn.
        let sampler = Sampler::with_config(&pattern, SamplerConfig::domain_friendly());
        let mut self_match = 0;
        let mut identified = 0;
        const N: usize = 1_000;
        for _ in 0..N {
            let domain = sampler.sample(&mut rng);
            if pattern.is_match(&domain) {
                self_match += 1;
            }
            if let Ok(fqdn) = fw_types::Fqdn::parse(&domain) {
                if identify(&fqdn) == Some(f.provider)
                    || (!f.provider.dns_identifiable() && identify(&fqdn).is_none())
                {
                    identified += 1;
                }
            }
        }
        let ok = self_match == N && identified == N;
        all_ok &= ok;
        println!(
            "{:<38} regex {:<60} self-match {self_match}/{N}  identify {identified}/{N}  {}",
            f.provider.product_name(),
            f.regex,
            if ok { "OK" } else { "FAIL" }
        );
    }
    println!();
    println!(
        "validation: {}",
        if all_ok {
            "all formats OK"
        } else {
            "FAILURES present"
        }
    );

    if cli.has_flag("--suffix-only") {
        header("Ablation: expression matching vs. suffix-only matching");
        // The ablation injects noise rows, so a read-only snapshot is
        // first materialized into a mutable in-memory store.
        let mut pdns = match cli.snapshot_store() {
            Some(store) => fw_dns::pdns::PdnsStore::from_backend(&store),
            None => fw_bench::usage_world(&cli).pdns,
        };
        // Inject Azure-style collisions and malformed lookalikes to show
        // what suffix matching would wrongly sweep in.
        let noise = [
            "random-blog.azurewebsites.net",
            "www.scf.tencentcs.com",
            "mail.on.aws",
            "shop.fcapp.run",
        ];
        for n in noise {
            pdns.observe(
                &fw_types::Fqdn::parse(n).unwrap(),
                &fw_types::Rdata::V4(std::net::Ipv4Addr::new(203, 0, 113, 9)),
                fw_types::MEASUREMENT_START,
            );
        }
        let (full, suffix) = suffix_only_ablation(&pdns);
        println!("full Table-1 expressions matched : {full}");
        println!("suffix-only matching would match : {suffix}");
        println!(
            "false-positive surface removed    : {} domains",
            suffix - full
        );
    }

    // Paper-vs-implementation inventory line.
    println!();
    anchors::print("table1", Source::Inventory, cli.scale);
    fw_bench::maybe_dump_metrics();
}
