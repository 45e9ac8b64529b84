//! End-to-end pipeline test: generate a world, run the full §3–§5
//! pipeline, score against ground truth and the paper's shapes.

use fw_cloud::behavior::AbuseCase;
use fw_cloud::platform::PlatformConfig;
use fw_core::abusescan::{AbuseScanConfig, DetectionKind};
use fw_core::pipeline::{Pipeline, PipelineConfig};
use fw_probe::prober::ProbeConfig;
use fw_workload::{World, WorldConfig};
use std::time::Duration;

fn world() -> World {
    World::generate(WorldConfig {
        seed: 2024,
        scale: 0.003,
        deploy_live: true,
        gen_workers: 0,
        platform: PlatformConfig {
            // Hangs must outlast the probe timeout below.
            hang_ms: 400,
            ..PlatformConfig::default()
        },
    })
}

fn config() -> PipelineConfig {
    PipelineConfig {
        probe: ProbeConfig {
            timeout: Duration::from_millis(150),
            workers: 8,
            ..ProbeConfig::default()
        },
        abuse: AbuseScanConfig {
            c2_timeout: Duration::from_millis(300),
            ..AbuseScanConfig::default()
        },
    }
}

#[test]
fn full_pipeline_reproduces_paper_shapes() {
    let w = world();
    let pipeline = Pipeline::new(w.net.clone(), w.resolver.clone());
    let report = pipeline.run(&w.pdns, &config());

    // ---- §3.2 identification: every generated function identified. ----
    assert_eq!(
        report.identification.functions.len(),
        w.functions.len(),
        "identification must find every planted function"
    );
    assert_eq!(report.identification.unmatched, 0);

    // ---- §4.4 / Figure 6 shape. ----
    let status = &report.status;
    assert_eq!(status.probed as usize, w.probed_domains().len());
    // 404 dominates.
    assert!(
        status.frac_status(404) > 0.80,
        "404 share = {}",
        status.frac_status(404)
    );
    // HTTPS is nearly universal.
    assert!(
        status.frac_https() > 0.95,
        "https = {}",
        status.frac_https()
    );
    // Unreachable fraction is small and DNS failures exist (deleted
    // Tencent functions).
    assert!(status.frac_unreachable() < 0.08);
    assert!(status.dns_failures > 0, "deleted Tencent → NXDOMAIN");
    // DNS failures only happen for Tencent domains.
    for rec in &report.probe_records {
        if matches!(rec.outcome, fw_probe::prober::ProbeOutcome::DnsFailure(_)) {
            assert!(
                rec.fqdn.as_str().ends_with("scf.tencentcs.com"),
                "{} had a DNS failure but is not Tencent",
                rec.fqdn
            );
        }
    }

    // ---- §5 abuse detection: perfect recall on planted abuse within the
    // content scope, and zero false positives against ground truth. ----
    let truth: std::collections::HashMap<_, _> = w
        .functions
        .iter()
        .map(|f| (f.fqdn.clone(), f.truth.clone()))
        .collect();

    for d in &report.abuse.detections {
        let t = truth
            .get(&d.fqdn)
            .expect("detection refers to a real function");
        assert!(
            matches!(t, fw_workload::Truth::Abuse(_)),
            "false positive: {} detected as {:?} but truth is {:?}",
            d.fqdn,
            d.kind,
            t
        );
    }

    let detected: std::collections::HashSet<_> = report
        .abuse
        .detections
        .iter()
        .map(|d| d.fqdn.clone())
        .collect();
    let mut missed = Vec::new();
    for f in w.abuse_functions() {
        // Abuse planted on probed providers must be found.
        if f.probed && !detected.contains(&f.fqdn) {
            missed.push((f.fqdn.clone(), f.truth.clone()));
        }
    }
    assert!(missed.is_empty(), "missed planted abuse: {missed:?}");

    // Case-level agreement.
    for case in AbuseCase::ALL {
        let planted = w
            .abuse_functions()
            .filter(|f| f.probed && f.truth.abuse_case() == Some(case))
            .count() as u64;
        let label = match case {
            AbuseCase::C2 => "Hide C2 server",
            AbuseCase::Gambling => "Gambling Website",
            AbuseCase::Porn => "Porn-related Sites",
            AbuseCase::Cheat => "Cheating Tool",
            AbuseCase::Redirect => "Redirect to New Domains",
            AbuseCase::OpenAiResale => "Resale of OpenAI Key",
            AbuseCase::IllegalProxy => "Illegal Service Proxy",
            AbuseCase::GeoProxy => "Geo-bypass Proxy",
        };
        let found = report
            .abuse
            .table3
            .iter()
            .find(|r| r.case == label)
            .map(|r| r.functions)
            .unwrap_or(0);
        assert_eq!(found, planted, "case {label}");
    }

    // C2 hits carry family attribution.
    let c2_families: Vec<&str> = report
        .abuse
        .detections
        .iter()
        .filter_map(|d| match &d.kind {
            DetectionKind::C2 { family } => Some(*family),
            _ => None,
        })
        .collect();
    assert!(!c2_families.is_empty());
    for fam in &c2_families {
        assert!(
            ["CobaltStrike", "InfoStealer"].contains(fam),
            "unexpected family {fam}"
        );
    }

    // ---- Finding 5: sensitive data found and categorized. ----
    assert!(report.abuse.sensitive_total > 0);

    // ---- Finding 10: threat intel flags only (up to) 4, all C2. ----
    assert!(report.abuse.ti_flagged <= 4);
    assert!(report.abuse.ti_flagged <= c2_families.len());

    // ---- Figure 7: resale activity concentrated in early 2023. ----
    let openai = &report.abuse.openai_monthly_requests;
    let wave: u64 = openai[9..=13].iter().sum();
    let total: u64 = openai.iter().sum();
    assert!(total > 0);
    assert!(
        wave as f64 / total as f64 > 0.9,
        "resale volume must concentrate in Jan–May 2023: {openai:?}"
    );

    // ---- Figure 3: AWS April-2022 spike. ----
    let aws_series = report
        .new_fqdns
        .for_provider(fw_types::ProviderId::Aws)
        .expect("aws present");
    let aws_peak = *aws_series.iter().max().unwrap();
    assert_eq!(aws_series[0], aws_peak, "AWS new-function peak at Apr 2022");

    // ---- Table 2: rtype mixes. ----
    let ingress = &report.ingress;
    let aliyun = ingress
        .iter()
        .find(|r| r.provider == fw_types::ProviderId::Aliyun)
        .unwrap();
    assert!(
        aliyun.rtype_share.1 > 0.5,
        "Aliyun is CNAME-dominant: {:?}",
        aliyun.rtype_share
    );
    let aws = ingress
        .iter()
        .find(|r| r.provider == fw_types::ProviderId::Aws)
        .unwrap();
    assert!(aws.rtype_share.0 > 0.5, "AWS is A-dominant");
    assert!(aws.rtype_share.2 > 0.05, "AWS serves AAAA");
    assert_eq!(aws.rtype_share.1, 0.0, "AWS never CNAMEs");
}

#[test]
fn usage_only_pipeline_without_live_network() {
    // PDNS-only worlds skip deployment entirely — the §4 analyses still
    // run (this is the configuration the big usage figures use).
    let w = World::generate(WorldConfig {
        seed: 7,
        scale: 0.004,
        deploy_live: false,
        gen_workers: 0,
        platform: PlatformConfig::default(),
    });
    let report = Pipeline::run_usage(&w.pdns);
    assert_eq!(report.identification.functions.len(), w.functions.len());

    // Figure 5 anchors at loose tolerance for a small population.
    let inv = &report.invocation;
    assert!(
        (inv.frac_under_5 - 0.7814).abs() < 0.06,
        "under-5 = {}",
        inv.frac_under_5
    );
    assert!(
        (inv.frac_single_day - 0.8130).abs() < 0.06,
        "single-day = {}",
        inv.frac_single_day
    );
    assert!(
        inv.frac_density_one > 0.7,
        "density-1 = {}",
        inv.frac_density_one
    );
    assert!(
        inv.mean_lifespan_days > 5.0 && inv.mean_lifespan_days < 60.0,
        "mean lifespan = {}",
        inv.mean_lifespan_days
    );
}
