//! The queryable serving snapshot.
//!
//! [`ServeState::build`] folds a backend's rows — one batch per day, in
//! the canonical order the streaming source uses — through the same
//! [`Measurement`] the sensing daemon runs, then freezes its output
//! behind point-lookup indexes and pre-rendered figure documents.
//! Every response body is a pure function of this state, so the cache
//! in front of the router can never serve a stale or divergent byte.
//!
//! Bodies are written in one pass: each renderer appends its document
//! straight into the response `String` through [`fw_types::json`]'s
//! writer, with no intermediate value tree.

use crate::cache::CacheStats;
use fw_core::identify::IdentificationReport;
use fw_core::usage::{IngressRow, InvocationReport, MonthlySeries};
use fw_dns::pdns::PdnsBackend;
use fw_stream::{collect_rows, day_batches, Detection, Measurement, ScoreConfig};
use fw_types::json::{Array, Object};
use fw_types::{Fqdn, MonthStamp, ProviderId};
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

/// Room for a verdict, abuse or error body without regrowing.
const BODY_CAPACITY: usize = 256;
/// Room for one candidate entry of a listing page.
const DETECTION_CAPACITY: usize = 192;

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
            ("monthly_new", series_body(&usage.new_fqdns)),
            ("monthly_requests", series_body(&usage.request_series)),
            ("ingress", ingress_body(&usage.ingress)),
            ("invocation", invocation_body(&usage.invocation)),
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

    /// `GET /v1/status` — the snapshot's counts, then the live `cache`
    /// counters the router passes in.
    pub fn status_body(&self, cache: &CacheStats) -> String {
        let mut out = String::with_capacity(BODY_CAPACITY);
        let mut doc = Object::new(&mut out);
        doc.num("functions", self.report.functions.len() as f64)
            .num("unmatched", self.report.unmatched as f64)
            .num("candidates", self.detections.len() as f64)
            .num("total_requests", self.report.total_requests as f64)
            .num("store_fqdns", self.backend.fqdn_count() as f64)
            .num("store_rows", self.store_rows as f64);
        let mut counters = Object::new(doc.field("cache"));
        counters
            .num("hits", cache.hits as f64)
            .num("misses", cache.misses as f64)
            .num("evictions", cache.evictions as f64)
            .num("entries", cache.entries as f64);
        counters.end();
        doc.end();
        out
    }

    /// `GET /v1/verdict/{fqdn}` — identified / noise / unknown.
    pub fn verdict_body(&self, raw: &str) -> (u16, String) {
        let Ok(fqdn) = Fqdn::parse(raw) else {
            return error_body(400, "invalid fqdn");
        };
        let found = self.report.find(&fqdn);
        if found.is_none() && self.backend.aggregate(&fqdn).is_none() {
            return error_body(404, "fqdn not observed");
        }
        let mut out = String::with_capacity(BODY_CAPACITY);
        let mut doc = Object::new(&mut out);
        doc.str("fqdn", raw);
        match found {
            Some(f) => doc
                .str("verdict", "function")
                .str("provider", f.provider.label())
                .opt_str("region", f.region.as_deref())
                .num("first_seen_day", f.agg.first_seen_all.0 as f64)
                .num("last_seen_day", f.agg.last_seen_all.0 as f64)
                .num("days_active", f.agg.days_count as f64)
                .num("total_requests", f.agg.total_request_cnt as f64)
                .num("lifespan_days", f.agg.lifespan_days() as f64)
                .num("activity_density", round6(f.agg.activity_density())),
            None => doc.str("verdict", "noise"),
        };
        doc.end();
        (200, out)
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
        let mut out = String::with_capacity(BODY_CAPACITY + 24 * months.len());
        let mut doc = Object::new(&mut out);
        doc.str("fqdn", raw).opt_str(
            "provider",
            self.report.find(&fqdn).map(|f| f.provider.label()),
        );
        month_labels(doc.field("months"), months.keys());
        nums(doc.field("requests"), months.values().map(|&v| v as f64));
        let mut rtypes = Object::new(doc.field("by_rtype"));
        for (name, v) in ["A", "CNAME", "AAAA"].into_iter().zip(by_rtype) {
            rtypes.num(name, v as f64);
        }
        rtypes.end();
        doc.num("total_requests", total as f64);
        doc.end();
        (200, out)
    }

    /// `GET /v1/abuse/{fqdn}` — candidate status from the scorer state.
    pub fn abuse_body(&self, raw: &str) -> (u16, String) {
        let Ok(fqdn) = Fqdn::parse(raw) else {
            return error_body(400, "invalid fqdn");
        };
        if let Some(&i) = self.by_fqdn.get(&fqdn) {
            let mut out = String::with_capacity(BODY_CAPACITY);
            write_detection(&mut out, &self.detections[i]);
            return (200, out);
        }
        let Some(f) = self.report.find(&fqdn) else {
            return error_body(404, "not an identified function");
        };
        let mut out = String::with_capacity(BODY_CAPACITY);
        let mut doc = Object::new(&mut out);
        doc.str("fqdn", raw)
            .bool("candidate", false)
            .num("days_active", f.agg.days_count as f64)
            .num("total_requests", f.agg.total_request_cnt as f64);
        doc.end();
        (200, out)
    }

    /// `GET /v1/candidates?offset=&limit=` — paged candidate listing.
    /// The limit is clamped to 1..=1000; an offset past the end (up to
    /// `usize::MAX`) gets an empty page.
    pub fn candidates_body(&self, offset: usize, limit: usize) -> (u16, String) {
        let end = offset
            .saturating_add(limit.clamp(1, 1000))
            .min(self.detections.len());
        let page = self.detections.get(offset..end).unwrap_or(&[]);
        let mut out = String::with_capacity(64 + DETECTION_CAPACITY * page.len());
        let mut doc = Object::new(&mut out);
        doc.num("count", self.detections.len() as f64)
            .num("offset", offset as f64);
        let mut list = Array::new(doc.field("candidates"));
        for d in page {
            write_detection(list.item(), d);
        }
        list.end();
        doc.end();
        (200, out)
    }

    /// `GET /v1/figures/{name}` — pre-rendered figure documents.
    pub fn figure_body(&self, name: &str) -> (u16, String) {
        match self.figures.iter().find(|(n, _)| *n == name) {
            Some((_, body)) => (200, body.clone()),
            None => error_body(404, "unknown figure"),
        }
    }
}

fn error_body(status: u16, msg: &str) -> (u16, String) {
    let mut out = String::with_capacity(BODY_CAPACITY);
    let mut doc = Object::new(&mut out);
    doc.str("error", msg);
    doc.end();
    (status, out)
}

fn write_detection(out: &mut String, d: &Detection) {
    let mut doc = Object::new(out);
    doc.str("fqdn", d.fqdn.as_str())
        .bool("candidate", true)
        .str("provider", d.provider.label())
        .num("first_seen_us", d.first_seen_us as f64)
        .num("flagged_us", d.flagged_us as f64)
        .num("latency_us", d.latency_us() as f64);
    doc.end();
}

/// A JSON array of numbers.
fn nums(out: &mut String, values: impl IntoIterator<Item = f64>) {
    let mut list = Array::new(out);
    for v in values {
        list.num(v);
    }
    list.end();
}

/// A JSON array of `YYYY-MM` month labels.
fn month_labels<'a>(out: &mut String, months: impl IntoIterator<Item = &'a MonthStamp>) {
    let mut list = Array::new(out);
    for m in months {
        list.str(&m.label());
    }
    list.end();
}

fn round6(v: f64) -> f64 {
    (v * 1e6).round() / 1e6
}

/// Figure 3/4 series. Providers render in `ProviderId::ALL` order so
/// the document is byte-stable (the series' own map is a `HashMap`).
fn series_body(s: &MonthlySeries) -> String {
    let mut out = String::new();
    let mut doc = Object::new(&mut out);
    month_labels(doc.field("months"), &s.months);
    nums(doc.field("total"), s.total().iter().map(|&v| v as f64));
    let mut per_provider = Object::new(doc.field("per_provider"));
    for p in ProviderId::ALL {
        if let Some(vals) = s.for_provider(p) {
            nums(
                per_provider.field(p.label()),
                vals.iter().map(|&v| v as f64),
            );
        }
    }
    per_provider.end();
    doc.end();
    out
}

/// Table 2's ingress rows; shares, top-10 fractions and entropies
/// rounded to six decimals.
fn ingress_body(rows: &[IngressRow]) -> String {
    let triple = |(a, c, aaaa): (f64, f64, f64)| [round6(a), round6(c), round6(aaaa)];
    let mut out = String::new();
    let mut list = Array::new(&mut out);
    for r in rows {
        let mut row = Object::new(list.item());
        row.str("provider", r.provider.label())
            .num("domains", r.domains as f64)
            .num("total_requests", r.total_requests as f64)
            .num("regions", r.regions as f64);
        nums(row.field("rtype_share"), triple(r.rtype_share));
        let (a, c, aaaa) = r.rdata_cnt;
        nums(row.field("rdata_cnt"), [a as f64, c as f64, aaaa as f64]);
        nums(row.field("top10"), triple(r.top10));
        nums(row.field("entropy_bits"), triple(r.entropy_bits));
        row.end();
    }
    list.end();
    out
}

/// Figure 5's invocation summary and log-scale histogram.
fn invocation_body(r: &InvocationReport) -> String {
    let mut out = String::new();
    let mut doc = Object::new(&mut out);
    doc.num("functions", r.functions as f64)
        .num("frac_under_5", round6(r.frac_under_5))
        .num("frac_over_100", round6(r.frac_over_100))
        .num("frac_single_day", round6(r.frac_single_day))
        .num("frac_under_5_days", round6(r.frac_under_5_days))
        .num("mean_lifespan_days", round6(r.mean_lifespan_days))
        .num("frac_density_one", round6(r.frac_density_one))
        .num("full_window_functions", r.full_window_functions as f64);
    let mut bins = Array::new(doc.field("histogram"));
    for b in &r.log_histogram {
        let mut bin = Object::new(bins.item());
        bin.num("lo", round6(b.lo))
            .num("hi", round6(b.hi))
            .num("count", b.count as f64);
        bin.end();
    }
    bins.end();
    doc.end();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_dns::pdns::PdnsStore;
    use fw_types::{DayStamp, Json, Rdata};
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

    const AWS: &str = "a1b2c3d4e5f6.lambda-url.us-east-1.on.aws";
    const GCF: &str = "us-proj-fn.cloudfunctions.net";

    /// Four identified functions (three of them candidates), an Azure
    /// host and a plain domain the identifier leaves unmatched; `AWS`
    /// spans two months and all three record types.
    fn pin_state() -> ServeState<PdnsStore> {
        let mut store = PdnsStore::new();
        let v4 = Rdata::V4(Ipv4Addr::new(203, 0, 113, 7));
        let v6 = Rdata::V6("2001:db8::7".parse().unwrap());
        let cname = Rdata::Name(Fqdn::parse("edge.example.net").unwrap());
        let aws = Fqdn::parse(AWS).unwrap();
        for d in [19_100, 19_101, 19_102] {
            store.observe_count(&aws, &v4, DayStamp(d), 10);
        }
        store.observe_count(&aws, &cname, DayStamp(19_125), 7);
        store.observe_count(&aws, &v6, DayStamp(19_126), 3);
        store.observe_count(&Fqdn::parse(GCF).unwrap(), &v4, DayStamp(19_110), 150);
        for (name, n) in [
            ("0f1e2d3c4b5a.lambda-url.eu-west-1.on.aws", 4),
            ("99aa88bb77cc.lambda-url.ap-south-1.on.aws", 6),
        ] {
            let f = Fqdn::parse(name).unwrap();
            for d in [19_130, 19_140, 19_150] {
                store.observe_count(&f, &v4, DayStamp(d), n);
            }
        }
        let azure = Fqdn::parse("myapp.azurewebsites.net").unwrap();
        store.observe_count(&azure, &v4, DayStamp(19_111), 5);
        let noise = Fqdn::parse("www.example.com").unwrap();
        store.observe_count(&noise, &v4, DayStamp(19_100), 99);
        ServeState::build(store, 1)
    }

    fn pinned(got: (u16, String), code: u16, body: &str) {
        assert_eq!(got, (code, body.to_string()));
    }

    /// Every keyed body shape, byte for byte as the serving plane has
    /// always written it.
    #[test]
    fn keyed_bodies_match_pinned_bytes() {
        let state = pin_state();
        pinned(
            state.verdict_body(AWS),
            200,
            concat!(
                r#"{"fqdn":"a1b2c3d4e5f6.lambda-url.us-east-1.on.aws","verdict":"function","#,
                r#""provider":"AWS","region":"us-east-1","first_seen_day":19100,"#,
                r#""last_seen_day":19126,"days_active":5,"total_requests":40,"#,
                r#""lifespan_days":27,"activity_density":0.185185}"#,
            ),
        );
        pinned(
            state.verdict_body("www.example.com"),
            200,
            r#"{"fqdn":"www.example.com","verdict":"noise"}"#,
        );
        pinned(
            state.verdict_body("never-seen.example.net"),
            404,
            r#"{"error":"fqdn not observed"}"#,
        );
        pinned(
            state.verdict_body("bad..fqdn"),
            400,
            r#"{"error":"invalid fqdn"}"#,
        );
        pinned(
            state.usage_body(AWS),
            200,
            concat!(
                r#"{"fqdn":"a1b2c3d4e5f6.lambda-url.us-east-1.on.aws","provider":"AWS","#,
                r#""months":["2022-04","2022-05"],"requests":[30,10],"#,
                r#""by_rtype":{"A":30,"CNAME":7,"AAAA":3},"total_requests":40}"#,
            ),
        );
        pinned(
            state.usage_body("never-seen.example.net"),
            404,
            r#"{"error":"fqdn not observed"}"#,
        );
        pinned(
            state.abuse_body(AWS),
            200,
            concat!(
                r#"{"fqdn":"a1b2c3d4e5f6.lambda-url.us-east-1.on.aws","candidate":true,"#,
                r#""provider":"AWS","first_seen_us":0,"flagged_us":172800000000,"#,
                r#""latency_us":172800000000}"#,
            ),
        );
        pinned(
            state.abuse_body(GCF),
            200,
            concat!(
                r#"{"fqdn":"us-proj-fn.cloudfunctions.net","candidate":false,"#,
                r#""days_active":1,"total_requests":150}"#,
            ),
        );
        pinned(
            state.candidates_body(1, 2),
            200,
            concat!(
                r#"{"count":3,"offset":1,"candidates":["#,
                r#"{"fqdn":"99aa88bb77cc.lambda-url.ap-south-1.on.aws","candidate":true,"#,
                r#""provider":"AWS","first_seen_us":2592000000000,"#,
                r#""flagged_us":4320000000000,"latency_us":1728000000000},"#,
                r#"{"fqdn":"a1b2c3d4e5f6.lambda-url.us-east-1.on.aws","candidate":true,"#,
                r#""provider":"AWS","first_seen_us":0,"flagged_us":172800000000,"#,
                r#""latency_us":172800000000}]}"#,
            ),
        );
        pinned(
            state.candidates_body(5, 20),
            200,
            r#"{"count":3,"offset":5,"candidates":[]}"#,
        );
    }

    /// The four figure documents of the seed-7 scale-0.01 world, pinned
    /// by length and FNV-1a digest.
    #[test]
    fn figures_match_pinned_bytes() {
        let world = fw_workload::World::generate(fw_workload::WorldConfig::usage(7, 0.01));
        let state = ServeState::build(world.pdns, 2);
        for (name, len, fnv) in [
            ("monthly_new", 992, 0x8a83_0799_0dab_305f),
            ("monthly_requests", 1589, 0x2067_2588_e68d_88fb),
            ("ingress", 1498, 0xb610_8626_6dce_f24e),
            ("invocation", 992, 0x536e_bde5_25df_287b),
        ] {
            let (code, body) = state.figure_body(name);
            assert_eq!(code, 200, "figure {name}");
            assert_eq!(
                (body.len(), fw_types::fnv::fnv1a(body.as_bytes())),
                (len, fnv),
                "figure {name}"
            );
        }
    }
}
