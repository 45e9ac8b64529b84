//! The queryable serving snapshot.
//!
//! [`ServeState::build`] folds a backend's rows — one batch per day, in
//! the canonical order the streaming source uses — through the same
//! [`Measurement`] the sensing daemon runs, then freezes its output
//! behind point-lookup indexes and pre-rendered figure documents.
//! Every response body is a pure function of this state, so the cache
//! in front of the router can never serve a stale or divergent byte.

use fw_core::identify::IdentificationReport;
use fw_core::usage::{IngressRow, MonthlySeries};
use fw_dns::pdns::PdnsBackend;
use fw_stream::{collect_rows, day_batches, Detection, Measurement, ScoreConfig};
use fw_types::{Fqdn, Json, MonthStamp, ProviderId};
use std::collections::{BTreeMap, HashMap};

/// Immutable measurement state plus the backing store's read path.
pub struct ServeState<B: PdnsBackend> {
    backend: B,
    report: IdentificationReport,
    /// Candidate detections, fqdn-sorted for stable listing.
    detections: Vec<Detection>,
    by_fqdn: HashMap<Fqdn, usize>,
    store_rows: u64,
    /// Pre-rendered figure documents, keyed by endpoint name.
    figures: Vec<(&'static str, String)>,
}

impl<B: PdnsBackend> ServeState<B> {
    /// Build the snapshot by folding `backend`'s day batches through a
    /// [`Measurement`] classifying on `workers` threads.
    pub fn build(backend: B, workers: usize) -> ServeState<B> {
        let _span = fw_obs::span("serve/build");
        let batches = day_batches(&collect_rows(&backend), 1);
        let store_rows = batches.iter().map(|b| b.rows.len() as u64).sum();
        let mut measurement = Measurement::new(workers, ScoreConfig::default());
        for batch in batches {
            measurement.apply(&batch.rows, batch.offset_us);
        }
        let (usage, mut detections) = measurement.finish();

        let figures = vec![
            ("monthly_new", series_json(&usage.new_fqdns).render()),
            (
                "monthly_requests",
                series_json(&usage.request_series).render(),
            ),
            ("ingress", ingress_json(&usage.ingress).render()),
            ("invocation", invocation_json(&usage.invocation).render()),
        ];

        detections.sort_by(|a, b| a.fqdn.cmp(&b.fqdn));
        let by_fqdn = detections
            .iter()
            .enumerate()
            .map(|(i, d)| (d.fqdn.clone(), i))
            .collect();

        ServeState {
            backend,
            report: usage.identification,
            detections,
            by_fqdn,
            store_rows,
            figures,
        }
    }

    pub fn report(&self) -> &IdentificationReport {
        &self.report
    }

    pub fn candidate_count(&self) -> usize {
        self.detections.len()
    }

    /// Identified function fqdns in report order — the load harness's
    /// key universe.
    pub fn function_fqdns(&self) -> Vec<String> {
        self.report
            .functions
            .iter()
            .map(|f| f.fqdn.to_string())
            .collect()
    }

    /// Status document body (counts only; the router appends live cache
    /// stats).
    pub fn status_json(&self) -> Json {
        Json::Obj(vec![
            ("functions".into(), num(self.report.functions.len() as f64)),
            ("unmatched".into(), num(self.report.unmatched as f64)),
            ("candidates".into(), num(self.detections.len() as f64)),
            (
                "total_requests".into(),
                num(self.report.total_requests as f64),
            ),
            ("store_fqdns".into(), num(self.backend.fqdn_count() as f64)),
            ("store_rows".into(), num(self.store_rows as f64)),
        ])
    }

    /// `GET /v1/verdict/{fqdn}` — identified / noise / unknown.
    pub fn verdict_body(&self, raw: &str) -> (u16, String) {
        let Ok(fqdn) = Fqdn::parse(raw) else {
            return error_body(400, "invalid fqdn");
        };
        if let Some(f) = self.report.find(&fqdn) {
            let mut obj = vec![
                ("fqdn".into(), Json::Str(raw.to_string())),
                ("verdict".into(), Json::Str("function".into())),
                ("provider".into(), Json::Str(f.provider.label().into())),
                (
                    "region".into(),
                    f.region
                        .as_ref()
                        .map_or(Json::Null, |r| Json::Str(r.clone())),
                ),
                ("first_seen_day".into(), num(f.agg.first_seen_all.0 as f64)),
                ("last_seen_day".into(), num(f.agg.last_seen_all.0 as f64)),
                ("days_active".into(), num(f.agg.days_count as f64)),
                ("total_requests".into(), num(f.agg.total_request_cnt as f64)),
                ("lifespan_days".into(), num(f.agg.lifespan_days() as f64)),
            ];
            obj.push((
                "activity_density".into(),
                num((f.agg.activity_density() * 1e6).round() / 1e6),
            ));
            return (200, Json::Obj(obj).render());
        }
        if self.backend.aggregate(&fqdn).is_some() {
            return (
                200,
                Json::Obj(vec![
                    ("fqdn".into(), Json::Str(raw.to_string())),
                    ("verdict".into(), Json::Str("noise".into())),
                ])
                .render(),
            );
        }
        error_body(404, "fqdn not observed")
    }

    /// `GET /v1/usage/{fqdn}` — the per-function read path: monthly
    /// request buckets and per-rtype totals swept from the backend on
    /// demand (this is the query the LRU cache earns its keep on).
    pub fn usage_body(&self, raw: &str) -> (u16, String) {
        let Ok(fqdn) = Fqdn::parse(raw) else {
            return error_body(400, "invalid fqdn");
        };
        if self.backend.aggregate(&fqdn).is_none() {
            return error_body(404, "fqdn not observed");
        }
        let mut months: BTreeMap<MonthStamp, u64> = BTreeMap::new();
        let mut by_rtype = [0u64; 3];
        let mut total = 0u64;
        self.backend
            .for_each_record_of(&fqdn, &mut |rtype, _rdata, day, cnt| {
                *months.entry(day.month()).or_insert(0) += cnt;
                by_rtype[rtype as usize] += cnt;
                total += cnt;
            });
        let provider = self
            .report
            .find(&fqdn)
            .map_or(Json::Null, |f| Json::Str(f.provider.label().into()));
        let body = Json::Obj(vec![
            ("fqdn".into(), Json::Str(raw.to_string())),
            ("provider".into(), provider),
            (
                "months".into(),
                Json::Arr(months.keys().map(|m| Json::Str(m.label())).collect()),
            ),
            (
                "requests".into(),
                Json::Arr(months.values().map(|&v| num(v as f64)).collect()),
            ),
            (
                "by_rtype".into(),
                Json::Obj(
                    ["A", "CNAME", "AAAA"]
                        .iter()
                        .zip(by_rtype)
                        .map(|(name, v)| (name.to_string(), num(v as f64)))
                        .collect(),
                ),
            ),
            ("total_requests".into(), num(total as f64)),
        ]);
        (200, body.render())
    }

    /// `GET /v1/abuse/{fqdn}` — candidate status from the scorer state.
    pub fn abuse_body(&self, raw: &str) -> (u16, String) {
        let Ok(fqdn) = Fqdn::parse(raw) else {
            return error_body(400, "invalid fqdn");
        };
        if let Some(&i) = self.by_fqdn.get(&fqdn) {
            return (200, detection_json(&self.detections[i]).render());
        }
        match self.report.find(&fqdn) {
            Some(f) => (
                200,
                Json::Obj(vec![
                    ("fqdn".into(), Json::Str(raw.to_string())),
                    ("candidate".into(), Json::Bool(false)),
                    ("days_active".into(), num(f.agg.days_count as f64)),
                    ("total_requests".into(), num(f.agg.total_request_cnt as f64)),
                ])
                .render(),
            ),
            None => error_body(404, "not an identified function"),
        }
    }

    /// `GET /v1/candidates?offset=&limit=` — paged candidate listing.
    pub fn candidates_body(&self, offset: usize, limit: usize) -> (u16, String) {
        let end = (offset + limit.clamp(1, 1000)).min(self.detections.len());
        let page = if offset < end {
            &self.detections[offset..end]
        } else {
            &[]
        };
        let body = Json::Obj(vec![
            ("count".into(), num(self.detections.len() as f64)),
            ("offset".into(), num(offset as f64)),
            (
                "candidates".into(),
                Json::Arr(page.iter().map(detection_json).collect()),
            ),
        ]);
        (200, body.render())
    }

    /// `GET /v1/figures/{name}` — pre-rendered figure documents.
    pub fn figure_body(&self, name: &str) -> (u16, String) {
        match self.figures.iter().find(|(n, _)| *n == name) {
            Some((_, body)) => (200, body.clone()),
            None => error_body(404, "unknown figure"),
        }
    }
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn error_body(status: u16, msg: &str) -> (u16, String) {
    (
        status,
        Json::Obj(vec![("error".into(), Json::Str(msg.into()))]).render(),
    )
}

fn detection_json(d: &Detection) -> Json {
    Json::Obj(vec![
        ("fqdn".into(), Json::Str(d.fqdn.to_string())),
        ("candidate".into(), Json::Bool(true)),
        ("provider".into(), Json::Str(d.provider.label().into())),
        ("first_seen_us".into(), num(d.first_seen_us as f64)),
        ("flagged_us".into(), num(d.flagged_us as f64)),
        ("latency_us".into(), num(d.latency_us() as f64)),
    ])
}

/// Figure 3/4 series as JSON. Providers render in `ProviderId::ALL`
/// order so the document is byte-stable (the series' own map is a
/// `HashMap`).
fn series_json(s: &MonthlySeries) -> Json {
    Json::Obj(vec![
        (
            "months".into(),
            Json::Arr(s.months.iter().map(|m| Json::Str(m.label())).collect()),
        ),
        (
            "total".into(),
            Json::Arr(s.total().iter().map(|&v| num(v as f64)).collect()),
        ),
        (
            "per_provider".into(),
            Json::Obj(
                ProviderId::ALL
                    .iter()
                    .filter_map(|&p| {
                        s.for_provider(p).map(|vals| {
                            (
                                p.label().to_string(),
                                Json::Arr(vals.iter().map(|&v| num(v as f64)).collect()),
                            )
                        })
                    })
                    .collect(),
            ),
        ),
    ])
}

fn triple(name: &str, (a, c, aaaa): (f64, f64, f64)) -> (String, Json) {
    (
        name.to_string(),
        Json::Arr(vec![num(round6(a)), num(round6(c)), num(round6(aaaa))]),
    )
}

fn round6(v: f64) -> f64 {
    (v * 1e6).round() / 1e6
}

fn ingress_json(rows: &[IngressRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::Obj(vec![
                    ("provider".into(), Json::Str(r.provider.label().into())),
                    ("domains".into(), num(r.domains as f64)),
                    ("total_requests".into(), num(r.total_requests as f64)),
                    ("regions".into(), num(r.regions as f64)),
                    triple("rtype_share", r.rtype_share),
                    (
                        "rdata_cnt".into(),
                        Json::Arr(vec![
                            num(r.rdata_cnt.0 as f64),
                            num(r.rdata_cnt.1 as f64),
                            num(r.rdata_cnt.2 as f64),
                        ]),
                    ),
                    triple("top10", r.top10),
                    triple("entropy_bits", r.entropy_bits),
                ])
            })
            .collect(),
    )
}

fn invocation_json(r: &fw_core::usage::InvocationReport) -> Json {
    Json::Obj(vec![
        ("functions".into(), num(r.functions as f64)),
        ("frac_under_5".into(), num(round6(r.frac_under_5))),
        ("frac_over_100".into(), num(round6(r.frac_over_100))),
        ("frac_single_day".into(), num(round6(r.frac_single_day))),
        ("frac_under_5_days".into(), num(round6(r.frac_under_5_days))),
        (
            "mean_lifespan_days".into(),
            num(round6(r.mean_lifespan_days)),
        ),
        ("frac_density_one".into(), num(round6(r.frac_density_one))),
        (
            "full_window_functions".into(),
            num(r.full_window_functions as f64),
        ),
        (
            "histogram".into(),
            Json::Arr(
                r.log_histogram
                    .iter()
                    .map(|b| {
                        Json::Obj(vec![
                            ("lo".into(), num(round6(b.lo))),
                            ("hi".into(), num(round6(b.hi))),
                            ("count".into(), num(b.count as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_dns::pdns::PdnsStore;
    use fw_types::{DayStamp, Rdata};
    use std::net::Ipv4Addr;

    fn test_store() -> PdnsStore {
        let mut store = PdnsStore::new();
        let lambda = Fqdn::parse("a1b2c3d4e5f6.lambda-url.us-east-1.on.aws").unwrap();
        let noise = Fqdn::parse("www.example.com").unwrap();
        let ip = Rdata::V4(Ipv4Addr::new(203, 0, 113, 7));
        // Three active days: crosses the min_active_days candidate gate.
        for d in [19_100, 19_101, 19_102] {
            store.observe_count(&lambda, &ip, DayStamp(d), 10);
        }
        store.observe_count(&noise, &ip, DayStamp(19_100), 99);
        store
    }

    #[test]
    fn verdict_distinguishes_function_noise_unknown() {
        let state = ServeState::build(test_store(), 1);
        let (code, body) = state.verdict_body("a1b2c3d4e5f6.lambda-url.us-east-1.on.aws");
        assert_eq!(code, 200);
        let doc = Json::parse(&body).unwrap();
        assert_eq!(doc.get("verdict").and_then(Json::as_str), Some("function"));
        assert_eq!(doc.get("provider").and_then(Json::as_str), Some("AWS"));
        assert_eq!(doc.get("total_requests").and_then(Json::as_f64), Some(30.0));

        let (code, body) = state.verdict_body("www.example.com");
        assert_eq!(code, 200);
        let doc = Json::parse(&body).unwrap();
        assert_eq!(doc.get("verdict").and_then(Json::as_str), Some("noise"));

        let (code, _) = state.verdict_body("never-seen.example.net");
        assert_eq!(code, 404);
        let (code, _) = state.verdict_body("");
        assert_eq!(code, 400);
    }

    #[test]
    fn usage_sweeps_monthly_buckets() {
        let state = ServeState::build(test_store(), 1);
        let (code, body) = state.usage_body("a1b2c3d4e5f6.lambda-url.us-east-1.on.aws");
        assert_eq!(code, 200);
        let doc = Json::parse(&body).unwrap();
        assert_eq!(doc.get("total_requests").and_then(Json::as_f64), Some(30.0));
        let months = doc.get("months").and_then(Json::as_arr).unwrap();
        assert_eq!(months.len(), 1);
    }

    #[test]
    fn abuse_flags_the_sustained_function() {
        let state = ServeState::build(test_store(), 1);
        assert_eq!(state.candidate_count(), 1);
        let (code, body) = state.abuse_body("a1b2c3d4e5f6.lambda-url.us-east-1.on.aws");
        assert_eq!(code, 200);
        let doc = Json::parse(&body).unwrap();
        assert_eq!(doc.get("candidate"), Some(&Json::Bool(true)));
        // Flagged on the third active day: 2 virtual days of latency.
        assert_eq!(
            doc.get("latency_us").and_then(Json::as_f64),
            Some(2.0 * fw_stream::DAY_US as f64)
        );
        let (_, body) = state.candidates_body(0, 10);
        let doc = Json::parse(&body).unwrap();
        assert_eq!(doc.get("count").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn figures_render_and_are_stable() {
        let state = ServeState::build(test_store(), 1);
        for name in ["monthly_new", "monthly_requests", "ingress", "invocation"] {
            let (code, body) = state.figure_body(name);
            assert_eq!(code, 200, "figure {name}");
            Json::parse(&body).unwrap_or_else(|e| panic!("figure {name} not JSON: {e}"));
        }
        let (code, _) = state.figure_body("nope");
        assert_eq!(code, 404);
    }
}
