//! Abuse-status analysis (§5): the content pipeline and the C2 scan.
//!
//! Order of operations mirrors §3.4/§5:
//!
//! 1. take the 200-with-content corpus (plus redirect responses);
//! 2. scan for sensitive data and anonymize it (Finding 5) *before* any
//!    content analysis;
//! 3. bucket by content type and cluster within each type (TF-IDF +
//!    average linkage at 90% similarity);
//! 4. dual-rule review of cluster exemplars, labels propagated to
//!    members that independently pass review;
//! 5. active C2 fingerprint scan over the probed domains (§5.1);
//! 6. cross-check detections against the threat-intel oracle
//!    (Finding 10) and assemble Table 3 and the Figure 7 series.

use crate::identify::IdentificationReport;
use fw_abuse::illicit::{detect_openai_promo, extract_contacts, extract_redirects};
use fw_abuse::review::{review_exemplar, AbuseType};
use fw_abuse::sensitive::{SensitiveKind, SensitiveScanner};
use fw_abuse::threatintel::{ThreatIntel, UrlReputation, UrlVerdict};
use fw_analysis::cluster::{cluster_corpus_par, ClusterParams};
use fw_analysis::content::ContentType;
use fw_analysis::par::par_map;
use fw_dns::pdns::PdnsBackend;
use fw_dns::resolver::Resolver;
use fw_http::types::Response;
use fw_net::SimNet;
use fw_probe::c2probe::C2Scanner;
use fw_probe::prober::{ProbeOutcome, ProbeRecord};
use fw_types::{Fqdn, MEASUREMENT_END, MEASUREMENT_START};
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

/// Configuration for the abuse scan.
#[derive(Debug, Clone)]
pub struct AbuseScanConfig {
    pub cluster_params: ClusterParams,
    /// 10-character anonymization salt (Appendix A).
    pub salt: String,
    /// Run the active C2 fingerprint scan (network access required).
    pub scan_c2: bool,
    /// Timeout per C2 probe.
    pub c2_timeout: Duration,
    /// Worker threads for the data-parallel stages (sensitive scan,
    /// content typing, TF-IDF vectorization) and the C2 scan. Every
    /// stage is deterministic in this knob — reports are identical at
    /// any worker count.
    pub workers: usize,
}

impl Default for AbuseScanConfig {
    fn default() -> Self {
        AbuseScanConfig {
            cluster_params: ClusterParams::default(),
            salt: "faas-wild1".to_string(),
            scan_c2: true,
            c2_timeout: Duration::from_secs(10),
            workers: 8,
        }
    }
}

/// One detection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DetectionKind {
    C2 { family: &'static str },
    Content(AbuseType),
}

impl DetectionKind {
    /// Table 3 row label.
    pub fn label(&self) -> &'static str {
        match self {
            DetectionKind::C2 { .. } => "Hide C2 server",
            DetectionKind::Content(t) => t.label(),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    pub fqdn: Fqdn,
    pub kind: DetectionKind,
}

/// A Table 3 row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    pub case: &'static str,
    pub functions: u64,
    pub requests: u64,
}

/// The §5 report.
#[derive(Debug, Clone, PartialEq)]
pub struct AbuseScanReport {
    /// Finding 5: sensitive items by kind.
    pub sensitive: HashMap<SensitiveKind, u64>,
    pub sensitive_total: u64,
    /// §3.4 content mix over the content corpus.
    pub content_mix: HashMap<ContentType, u64>,
    /// Cluster count (the manual-review workload metric).
    pub clusters: usize,
    /// Size of the 200-with-content corpus.
    pub corpus_size: usize,
    pub detections: Vec<Detection>,
    pub table3: Vec<Table3Row>,
    /// Figure 7: monthly request volume of the OpenAI-resale functions.
    pub openai_monthly_requests: Vec<u64>,
    /// Figure 7 companion: newly-seen resale functions per month.
    pub openai_monthly_new: Vec<u64>,
    /// §5.3: contact handle → function count (group structure).
    pub openai_groups: Vec<(String, usize)>,
    /// §5.3: redirect targets extracted from redirect-flagged functions,
    /// with the URL-reputation verdict (the WebAdvisor step: the paper
    /// found 3 of 13 extracted URLs flagged).
    pub redirect_targets: Vec<(String, UrlVerdict)>,
    /// Finding 10: how many detected-abuse domains threat intel flags.
    pub ti_flagged: usize,
    pub ti_total_abused: usize,
}

impl AbuseScanReport {
    pub fn total_abused_functions(&self) -> u64 {
        self.table3.iter().map(|r| r.functions).sum()
    }
}

/// Run the full §5 analysis.
pub fn abuse_scan<B: PdnsBackend + ?Sized>(
    records: &[ProbeRecord],
    identification: &IdentificationReport,
    pdns: &B,
    net: &SimNet,
    resolver: &Arc<RwLock<Resolver>>,
    config: &AbuseScanConfig,
) -> AbuseScanReport {
    // 1. Corpus: 200-with-content plus redirect responses.
    let corpus_span = fw_obs::span("corpus");
    let mut corpus: Vec<(Fqdn, Response)> = Vec::new();
    let mut redirects: Vec<(Fqdn, Response)> = Vec::new();
    for rec in records {
        if let ProbeOutcome::Responded { response, .. } = &rec.outcome {
            if response.status == 200 && !response.body.is_empty() {
                corpus.push((rec.fqdn.clone(), response.clone()));
            } else if response.is_redirect() {
                redirects.push((rec.fqdn.clone(), response.clone()));
            }
        }
    }
    drop(corpus_span);

    // 2. Sensitive scan + anonymization before any analysis. The
    // per-document scan is a pure function, so it fans out over
    // `par_map`; counts are then merged serially in input order
    // — identical to the old serial loop at any worker count.
    let sensitive_span = fw_obs::span("sensitive");
    let scanner = SensitiveScanner::new(&config.salt);
    let scanned = par_map(
        &corpus,
        config.workers,
        "abuse/sensitive",
        None,
        |_, (_, resp)| scanner.scan_and_anonymize(&resp.body_text()),
    );
    let mut sensitive: HashMap<SensitiveKind, u64> = HashMap::new();
    let mut sanitized: Vec<(Fqdn, Response)> = Vec::with_capacity(corpus.len());
    for ((fqdn, resp), (clean, findings)) in corpus.into_iter().zip(scanned) {
        for f in &findings {
            *sensitive.entry(f.kind).or_insert(0) += 1;
        }
        let mut clean_resp = resp;
        clean_resp.body = clean.into_bytes();
        sanitized.push((fqdn, clean_resp));
    }
    let sensitive_total: u64 = sensitive.values().sum();
    drop(sensitive_span);

    // 3. Content typing + per-type clustering. Classification is
    // per-document pure, merged in index order.
    let cluster_span = fw_obs::span("cluster");
    let types = par_map(
        &sanitized,
        config.workers,
        "abuse/classify",
        None,
        |_, (_, resp)| ContentType::classify(&resp.body_text(), resp.headers.get("content-type")),
    );
    let mut content_mix: HashMap<ContentType, u64> = HashMap::new();
    let mut by_type: HashMap<ContentType, Vec<usize>> = HashMap::new();
    for (i, ct) in types.into_iter().enumerate() {
        *content_mix.entry(ct).or_insert(0) += 1;
        by_type.entry(ct).or_default().push(i);
    }
    let mut clusters_total = 0usize;
    let mut detections: Vec<Detection> = Vec::new();
    let mut detected: HashSet<Fqdn> = HashSet::new();
    // Iterate types (and clusters below) in sorted order so the
    // `detections` Vec comes out in a fixed order run-to-run; every
    // downstream aggregate is order-independent, but a stable order
    // makes reports directly comparable.
    let mut typed: Vec<(&ContentType, &Vec<usize>)> = by_type.iter().collect();
    typed.sort_by_key(|(ct, _)| **ct);
    for (_, indices) in typed {
        let docs: Vec<String> = indices
            .iter()
            .map(|i| sanitized[*i].1.body_text())
            .collect();
        let clustering = cluster_corpus_par(&docs, &config.cluster_params, config.workers);
        clusters_total += clustering.cluster_count;

        // 4. Review exemplars; propagate to members that independently
        // pass review with the same label.
        let mut members: Vec<(u32, Vec<usize>)> = clustering.members().into_iter().collect();
        members.sort_by_key(|(c, _)| *c);
        for (_cluster, member_ids) in members {
            let exemplar_idx = indices[member_ids[0]];
            let Some(label) = review_exemplar(&sanitized[exemplar_idx].1) else {
                continue;
            };
            for m in member_ids {
                let idx = indices[m];
                let (fqdn, resp) = &sanitized[idx];
                if detected.contains(fqdn) {
                    continue;
                }
                if review_exemplar(resp) == Some(label) {
                    detected.insert(fqdn.clone());
                    detections.push(Detection {
                        fqdn: fqdn.clone(),
                        kind: DetectionKind::Content(label),
                    });
                }
            }
        }
    }

    drop(cluster_span);

    // Redirect responses (3xx) reviewed directly — their body is empty so
    // clustering adds nothing.
    let review_span = fw_obs::span("review");
    for (fqdn, resp) in &redirects {
        if detected.contains(fqdn) {
            continue;
        }
        if let Some(label) = review_exemplar(resp) {
            detected.insert(fqdn.clone());
            detections.push(Detection {
                fqdn: fqdn.clone(),
                kind: DetectionKind::Content(label),
            });
        }
    }

    drop(review_span);

    // 5. C2 fingerprint scan over all probed domains.
    let c2_span = fw_obs::span("c2scan");
    let mut c2_domains: Vec<Fqdn> = Vec::new();
    if config.scan_c2 {
        let scanner = C2Scanner::new(net.clone(), resolver.clone()).with_timeout(config.c2_timeout);
        let candidates: Vec<Fqdn> = records
            .iter()
            .filter(|r| r.outcome.is_reachable())
            .map(|r| r.fqdn.clone())
            .collect();
        for hit in scanner.scan_parallel(&candidates, config.workers) {
            if detected.insert(hit.fqdn.clone()) {
                c2_domains.push(hit.fqdn.clone());
                detections.push(Detection {
                    fqdn: hit.fqdn,
                    kind: DetectionKind::C2 { family: hit.family },
                });
            }
        }
    }

    drop(c2_span);

    // 6. Table 3 + Figure 7 + Finding 10.
    let _report_span = fw_obs::span("report");
    if fw_obs::enabled() {
        // Per-family verdict counters (dynamic names, so the registry is
        // addressed directly instead of via the handle-caching macros).
        let registry = fw_obs::registry();
        for d in &detections {
            registry
                .counter(&format!(
                    "fw.abuse.verdict.{}",
                    metric_suffix(d.kind.label())
                ))
                .inc();
        }
    }
    let requests_of: HashMap<&Fqdn, u64> = identification
        .functions
        .iter()
        .map(|f| (&f.fqdn, f.agg.total_request_cnt))
        .collect();
    let case_order: [&'static str; 8] = [
        "Hide C2 server",
        "Gambling Website",
        "Porn-related Sites",
        "Cheating Tool",
        "Redirect to New Domains",
        "Resale of OpenAI Key",
        "Illegal Service Proxy",
        "Geo-bypass Proxy",
    ];
    let mut rows: HashMap<&'static str, Table3Row> = HashMap::new();
    for d in &detections {
        let row = rows.entry(d.kind.label()).or_insert(Table3Row {
            case: d.kind.label(),
            functions: 0,
            requests: 0,
        });
        row.functions += 1;
        row.requests += requests_of.get(&d.fqdn).copied().unwrap_or(0);
    }
    let table3: Vec<Table3Row> = case_order
        .iter()
        .filter_map(|case| rows.remove(case))
        .collect();

    // Figure 7 series for the resale functions.
    let resale_fqdns: HashSet<&Fqdn> = detections
        .iter()
        .filter(|d| matches!(d.kind, DetectionKind::Content(AbuseType::OpenAiResale)))
        .map(|d| &d.fqdn)
        .collect();
    let mut openai_monthly_requests = vec![0u64; 24];
    pdns.for_each_row(&mut |fqdn, _rtype, _rdata, pdate, cnt| {
        if !resale_fqdns.contains(fqdn) {
            return;
        }
        if let Some(idx) = month_index_of(pdate) {
            openai_monthly_requests[idx] += cnt;
        }
    });
    let mut openai_monthly_new = vec![0u64; 24];
    for f in &identification.functions {
        if resale_fqdns.contains(&f.fqdn) {
            if let Some(idx) = month_index_of(f.agg.first_seen_all) {
                openai_monthly_new[idx] += 1;
            }
        }
    }

    // §5.3 group structure: contact → function count. `sanitized` is
    // indexed by fqdn once, so this pass is O(detections) instead of
    // O(detections × corpus).
    let mut sanitized_by_fqdn: HashMap<&Fqdn, &Response> = HashMap::with_capacity(sanitized.len());
    for (f, r) in &sanitized {
        // First occurrence wins, matching the old linear `find`.
        sanitized_by_fqdn.entry(f).or_insert(r);
    }
    let mut groups: HashMap<String, usize> = HashMap::new();
    for d in &detections {
        if !matches!(d.kind, DetectionKind::Content(AbuseType::OpenAiResale)) {
            continue;
        }
        if let Some(resp) = sanitized_by_fqdn.get(&d.fqdn) {
            let body = resp.body_text();
            if detect_openai_promo(&body).is_some() {
                for c in extract_contacts(&body) {
                    *groups.entry(c.value().to_string()).or_insert(0) += 1;
                }
            }
        }
    }
    let mut openai_groups: Vec<(String, usize)> = groups.into_iter().collect();
    openai_groups.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    // §5.3: extract and assess redirect targets (the WebAdvisor step).
    let reputation = UrlReputation::new();
    let mut redirect_targets: Vec<(String, UrlVerdict)> = Vec::new();
    {
        let redirect_fqdns: HashSet<&Fqdn> = detections
            .iter()
            .filter(|d| matches!(d.kind, DetectionKind::Content(AbuseType::Redirect)))
            .map(|d| &d.fqdn)
            .collect();
        let mut seen_targets: HashSet<String> = HashSet::new();
        for (fqdn, resp) in sanitized.iter().chain(redirects.iter()) {
            if !redirect_fqdns.contains(fqdn) {
                continue;
            }
            for finding in extract_redirects(resp) {
                if seen_targets.insert(finding.target.clone()) {
                    let verdict = reputation.assess(&finding.target);
                    redirect_targets.push((finding.target, verdict));
                }
            }
        }
        redirect_targets.sort();
    }

    // Finding 10.
    let ti = ThreatIntel::with_paper_coverage(&c2_domains);
    let all_abused: Vec<&Fqdn> = detections.iter().map(|d| &d.fqdn).collect();
    let ti_flagged = ti.flagged_among(all_abused.iter().copied());

    AbuseScanReport {
        sensitive,
        sensitive_total,
        content_mix,
        clusters: clusters_total,
        corpus_size: sanitized.len(),
        ti_total_abused: detections.len(),
        detections,
        table3,
        openai_monthly_requests,
        openai_monthly_new,
        openai_groups,
        redirect_targets,
        ti_flagged,
    }
}

/// `"Hide C2 server"` → `hide_c2_server`, for metric names.
fn metric_suffix(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

fn month_index_of(day: fw_types::DayStamp) -> Option<usize> {
    let start = MEASUREMENT_START.month();
    let m = day.month();
    if day < MEASUREMENT_START || day > MEASUREMENT_END {
        return None;
    }
    let idx = (m.year - start.year) * 12 + (m.month as i32 - start.month as i32);
    (0..24).contains(&idx).then_some(idx as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identify::identify_functions;
    use fw_dns::pdns::PdnsStore;
    use fw_probe::prober::ProbeRecord;
    use fw_types::{DayStamp, Rdata};
    use std::net::Ipv4Addr;

    fn responded(fqdn: &str, resp: Response) -> ProbeRecord {
        ProbeRecord {
            fqdn: Fqdn::parse(fqdn).unwrap(),
            outcome: ProbeOutcome::Responded {
                https: true,
                response: resp,
            },
            requests_issued: 1,
        }
    }

    fn scan(records: &[ProbeRecord], pdns: &PdnsStore) -> AbuseScanReport {
        let identification = identify_functions(pdns);
        let net = SimNet::new(1);
        let resolver = Arc::new(RwLock::new(Resolver::new()));
        abuse_scan(
            records,
            &identification,
            pdns,
            &net,
            &resolver,
            &AbuseScanConfig {
                scan_c2: false, // no live network in these unit tests
                ..AbuseScanConfig::default()
            },
        )
    }

    fn pdns_for(domains: &[(&str, u64)]) -> PdnsStore {
        let mut s = PdnsStore::new();
        for (d, cnt) in domains {
            s.observe_count(
                &Fqdn::parse(d).unwrap(),
                &Rdata::V4(Ipv4Addr::new(203, 0, 113, 1)),
                DayStamp(19_100),
                *cnt,
            );
        }
        s
    }

    const GAMBLING: &str = r#"<html><head><meta name="google-site-verification" content="g-7">
        </head><body>slot slot slot betting casino jackpot deposit bonus spin</body></html>"#;

    #[test]
    fn detects_gambling_and_counts_requests() {
        let fqdn = "luckyfn-a1b2c3d4e5-uc.a.run.app";
        let pdns = pdns_for(&[(fqdn, 77)]);
        let records = vec![responded(fqdn, Response::html(200, GAMBLING))];
        let report = scan(&records, &pdns);
        assert_eq!(report.total_abused_functions(), 1);
        let row = &report.table3[0];
        assert_eq!(row.case, "Gambling Website");
        assert_eq!(row.requests, 77);
    }

    #[test]
    fn sensitive_data_counted_and_masked_before_review() {
        let fqdn = "leaky-a1b2c3d4e5-uc.a.run.app";
        let pdns = pdns_for(&[(fqdn, 5)]);
        let body = r#"{"service":"db","password": "hunter22","ip":"10.0.0.9"}"#;
        let records = vec![responded(fqdn, Response::json(200, body))];
        let report = scan(&records, &pdns);
        assert_eq!(report.sensitive_total, 2);
        assert_eq!(report.sensitive[&SensitiveKind::Password], 1);
        assert_eq!(report.sensitive[&SensitiveKind::NetworkId], 1);
        // The leak itself is not an abuse case.
        assert_eq!(report.total_abused_functions(), 0);
    }

    #[test]
    fn content_mix_and_clusters_reported() {
        let pdns = pdns_for(&[
            ("a1-a1b2c3d4e5-uc.a.run.app", 1),
            ("b2-a1b2c3d4e5-uc.a.run.app", 1),
            ("c3-a1b2c3d4e5-uc.a.run.app", 1),
        ]);
        let records = vec![
            responded(
                "a1-a1b2c3d4e5-uc.a.run.app",
                Response::json(200, r#"{"x":1}"#),
            ),
            responded(
                "b2-a1b2c3d4e5-uc.a.run.app",
                Response::html(200, "<html><body>hi</body></html>"),
            ),
            responded(
                "c3-a1b2c3d4e5-uc.a.run.app",
                Response::text(200, "plain log line"),
            ),
        ];
        let report = scan(&records, &pdns);
        assert_eq!(report.corpus_size, 3);
        assert_eq!(report.content_mix[&ContentType::Json], 1);
        assert_eq!(report.content_mix[&ContentType::Html], 1);
        assert_eq!(report.content_mix[&ContentType::Plaintext], 1);
        assert_eq!(report.clusters, 3);
    }

    #[test]
    fn redirect_302_detected_without_body() {
        let fqdn = "rd-a1b2c3d4e5-uc.a.run.app";
        let pdns = pdns_for(&[(fqdn, 12)]);
        let records = vec![responded(
            fqdn,
            Response::redirect(302, "https://fxbtg-hidden.example-illicit.net/x"),
        )];
        let report = scan(&records, &pdns);
        assert_eq!(report.total_abused_functions(), 1);
        assert_eq!(report.table3[0].case, "Redirect to New Domains");
        // The target was extracted and assessed (FXBTG lookalike →
        // flagged, like the §5.3 WebAdvisor check).
        assert_eq!(report.redirect_targets.len(), 1);
        assert_eq!(report.redirect_targets[0].1, UrlVerdict::Flagged);
    }

    #[test]
    fn random_splice_target_extracted_as_wildcard() {
        let fqdn = "sp-a1b2c3d4e5-uc.a.run.app";
        let pdns = pdns_for(&[(fqdn, 3)]);
        let body = "<html><head><script>var Rand = Math.round(Math.random() * 999999)\n\
                    location.href=\"https://\"+Rand+\".yerbsdga.xyz\"</script></head></html>";
        let records = vec![responded(fqdn, Response::html(200, body))];
        let report = scan(&records, &pdns);
        assert_eq!(report.total_abused_functions(), 1);
        let (target, verdict) = &report.redirect_targets[0];
        assert_eq!(target, "*.yerbsdga.xyz");
        assert_eq!(*verdict, UrlVerdict::Flagged);
    }

    #[test]
    fn benign_corpus_produces_no_detections() {
        let pdns = pdns_for(&[("ok-a1b2c3d4e5-uc.a.run.app", 3)]);
        let records = vec![responded(
            "ok-a1b2c3d4e5-uc.a.run.app",
            Response::json(200, r#"{"status":"ok"}"#),
        )];
        let report = scan(&records, &pdns);
        assert!(report.detections.is_empty());
        assert_eq!(report.ti_flagged, 0);
    }

    #[test]
    fn openai_groups_and_fig7_series() {
        let promo = "To purchase an OpenAI API key (sk-s5S5BoV***), contact via \
                     WeChat: wx_shop_a. 10 RMB, in stock.";
        let f1 = "p1-proj-abcdefghij.cn-shanghai.fcapp.run";
        let f2 = "p2-proj-abcdefghij.cn-shanghai.fcapp.run";
        let mut pdns = PdnsStore::new();
        // Requests in Jan 2023 (month index 9).
        let jan2023 = fw_types::DayStamp::from_ymd(2023, 1, 15);
        for f in [f1, f2] {
            pdns.observe_count(
                &Fqdn::parse(f).unwrap(),
                &Rdata::V4(Ipv4Addr::new(203, 0, 113, 2)),
                jan2023,
                40,
            );
        }
        let records = vec![
            responded(f1, Response::text(200, promo)),
            responded(f2, Response::text(200, promo)),
        ];
        let report = scan(&records, &pdns);
        let resale = report
            .table3
            .iter()
            .find(|r| r.case == "Resale of OpenAI Key")
            .expect("resale row");
        assert_eq!(resale.functions, 2);
        assert_eq!(resale.requests, 80);
        assert_eq!(report.openai_monthly_requests[9], 80);
        assert_eq!(report.openai_monthly_new[9], 2);
        assert_eq!(report.openai_groups[0], ("wx_shop_a".to_string(), 2));
    }
}
