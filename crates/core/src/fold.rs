//! The batch measurement fold (DESIGN.md §16): the paper's passive
//! measurement as one pass over a PDNS table.
//!
//! §3.2 classifies each fqdn against Table 1 and keeps its aggregate;
//! §4 sums the identified functions' rows into Figures 3–5 and
//! Table 2. A [`BatchFold`] does both in one visit per fqdn: it
//! classifies the fqdn once ([`classify_fqdn`]), keeps
//! `(aggregate, verdict)` for [`IdentifyEngine::absorb_classified`],
//! and routes the fqdn's rows into its [`UsageState`] only when the
//! fqdn is identified and, under a sample rate, falls in the hash
//! sample. The sample decision is made per fqdn, so an exact run pays
//! nothing extra per row.
//!
//! Two drivers feed the fold: [`measure`] walks any [`PdnsBackend`]
//! (the in-memory pipeline, [`identify_functions`](crate::identify_functions),
//! the batch side of `fw_stream::check_equivalence`), and the fused
//! pipeline's shard scan feeds it rows and aggregates as a sealed
//! segment decodes. Both end in [`finish`], which `fw_stream`'s
//! `Measurement` shares: the streaming side feeds the same engine and
//! state from row deltas instead, and stays the independent path the
//! fold is checked against.

use crate::identify::{classify_fqdn, IdentifyEngine};
use crate::pipeline::UsageReport;
use crate::usage::{invocation_report, monthly_new_fqdns, UsageState};
use fw_analysis::par::par_map;
use fw_dns::pdns::{FqdnAggregate, PdnsBackend};
use fw_types::{DayStamp, Fqdn, ProviderId, Rdata};

/// Classification verdict for one fqdn, as [`classify_fqdn`] returns
/// it: `None` if it matched no provider pattern, else the provider and
/// optional region.
type Verdict = Option<(ProviderId, Option<String>)>;

/// Deterministic sample membership: an fqdn is in the sample iff its
/// FNV-1a hash falls under the rate threshold. Hash-based (rather than
/// RNG-based) selection makes the sample a pure function of the fqdn —
/// identical across worker counts, runs, and machines. A rate of 1 or
/// more takes every fqdn.
fn in_sample(fqdn: &Fqdn, rate: f64) -> bool {
    rate >= 1.0
        || (fw_types::fnv::fnv1a(fqdn.as_str().as_bytes()) as f64) < rate * (u64::MAX as f64)
}

/// One worker's share of the batch fold.
///
/// Feed it fqdn by fqdn, either through [`row`](Self::row) and
/// [`aggregate`](Self::aggregate) as a scan emits them (each fqdn's rows
/// consecutively, its aggregate before or after them), or through
/// [`measure`]'s backend walk. Hand the kept aggregates to the shared
/// engine with [`absorb_into`](Self::absorb_into) as often as the driver
/// likes; the usage state merges commutatively, so the result does not
/// depend on how fqdns were split among folds.
pub struct BatchFold {
    sample: Option<f64>,
    /// The fqdn being folded, its verdict, and the provider its rows
    /// route to (`None`: noise, or outside the sample). One classify
    /// serves every row and the aggregate of a run.
    cur: Option<(Fqdn, Verdict, Option<ProviderId>)>,
    usage: UsageState,
    batch: Vec<(FqdnAggregate, Verdict)>,
}

impl BatchFold {
    /// An empty fold; `sample` is the approximate-usage rate, `None`
    /// for the exact tables.
    pub fn new(sample: Option<f64>) -> BatchFold {
        BatchFold {
            sample,
            cur: None,
            usage: UsageState::new(),
            batch: Vec::new(),
        }
    }

    /// The provider an fqdn with `verdict` routes its rows to.
    fn route(&self, fqdn: &Fqdn, verdict: &Verdict) -> Option<ProviderId> {
        match verdict {
            Some((provider, _)) if self.sample.is_none_or(|rate| in_sample(fqdn, rate)) => {
                Some(*provider)
            }
            _ => None,
        }
    }

    /// Make `fqdn` the current fqdn, classifying it unless it already
    /// is, and return where its rows route. The current name's buffer is
    /// reused (`clone_from`), so a new fqdn allocates only when its name
    /// outgrows every earlier one.
    fn enter(&mut self, fqdn: &Fqdn) -> Option<ProviderId> {
        if let Some((f, _, route)) = &self.cur {
            if f == fqdn {
                return *route;
            }
        }
        let verdict = classify_fqdn(fqdn);
        let route = self.route(fqdn, &verdict);
        match &mut self.cur {
            Some((f, v, r)) => {
                f.clone_from(fqdn);
                (*v, *r) = (verdict, route);
            }
            None => self.cur = Some((fqdn.clone(), verdict, route)),
        }
        route
    }

    /// Fold in one row of `fqdn`.
    pub fn row(&mut self, fqdn: &Fqdn, rdata: &Rdata, day: DayStamp, cnt: u64) {
        if let Some(provider) = self.enter(fqdn) {
            self.usage.apply(provider, rdata.rtype(), rdata, day, cnt);
        }
    }

    /// Fold in one fqdn's aggregate, keeping it with the fqdn's verdict.
    /// The verdict moves into the kept pair; the fqdn's route stays, so
    /// its rows may still arrive after its aggregate.
    pub fn aggregate(&mut self, agg: FqdnAggregate) {
        self.enter(&agg.fqdn);
        let verdict = self.cur.as_mut().and_then(|(_, v, _)| v.take());
        self.batch.push((agg, verdict));
    }

    /// Fold in one fqdn of `pdns`: its aggregate, then its rows if they
    /// route.
    fn visit<B: PdnsBackend + ?Sized>(&mut self, pdns: &B, fqdn: &Fqdn) {
        let agg = pdns.aggregate(fqdn).expect("fqdn is in the store");
        let verdict = classify_fqdn(fqdn);
        if let Some(provider) = self.route(fqdn, &verdict) {
            let usage = &mut self.usage;
            pdns.for_each_record_of(fqdn, &mut |rtype, rdata, day, cnt| {
                usage.apply(provider, rtype, rdata, day, cnt)
            });
        }
        self.batch.push((agg, verdict));
    }

    /// Hand the kept `(aggregate, verdict)` pairs to `engine`.
    pub fn absorb_into(&mut self, engine: &mut IdentifyEngine) {
        for (agg, verdict) in self.batch.drain(..) {
            engine.absorb_classified(agg, verdict);
        }
    }

    /// The routed rows' usage state. Absorb the aggregates first.
    pub fn into_usage(self) -> UsageState {
        debug_assert!(self.batch.is_empty(), "absorb the aggregates first");
        self.usage
    }
}

/// The fold over any backend: `workers` [`par_map`] workers each fold
/// one contiguous chunk of the sorted fqdns, and the chunks' aggregates
/// reach the engine in fqdn order. The result is worker-count
/// invariant: classification is per-fqdn pure and the usage sums
/// commute.
pub fn measure<B: PdnsBackend + ?Sized>(
    pdns: &B,
    workers: usize,
    sample: Option<f64>,
) -> (UsageReport, Option<SampledUsage>) {
    // The fqdn list is dropped before the engine grows.
    let folds = {
        let fqdns = pdns.sorted_fqdns();
        let chunks: Vec<&[Fqdn]> = fqdns
            .chunks(fqdns.len().div_ceil(workers.max(1)).max(1))
            .collect();
        par_map(&chunks, workers, "fold/worker", None, |_, chunk| {
            let mut fold = BatchFold::new(sample);
            fold.batch.reserve_exact(chunk.len());
            for fqdn in *chunk {
                fold.visit(pdns, fqdn);
            }
            fold
        })
    };
    let mut engine = IdentifyEngine::batch(workers);
    let mut usage = UsageState::new();
    for mut fold in folds {
        fold.absorb_into(&mut engine);
        usage.merge(fold.into_usage());
    }
    finish(engine, &usage, sample)
}

/// The one finisher of the measurement: the engine's identification
/// report plus Figures 3 and 4, Table 2 and Figure 5 read off `usage`.
/// Under a sample rate, Figure 4 is scaled to an estimate and the
/// sample's error accounting comes with it.
pub fn finish(
    engine: IdentifyEngine,
    usage: &UsageState,
    sample: Option<f64>,
) -> (UsageReport, Option<SampledUsage>) {
    let identification = engine.into_report();
    let mut report = UsageReport {
        new_fqdns: monthly_new_fqdns(&identification),
        request_series: usage.monthly_series(),
        ingress: usage.ingress_rows(&identification),
        invocation: invocation_report(&identification),
        identification,
    };
    let sampled = sample.map(|rate| SampledUsage::estimate(&mut report, rate));
    (report, sampled)
}

/// The error accounting of a sampled fold (`--sample`): the report's
/// Figure 4 holds inverse-probability scaled estimates, and this makes
/// the speed/accuracy trade explicit.
///
/// Table 2 then covers the sampled functions only. Its concentration
/// metrics (rtype share, top-10, entropy) are scale-invariant;
/// `rdata_cnt` is the distinct count *observed in the sample* and
/// undercounts the exact table — documented, not corrected.
#[derive(Debug, Clone)]
pub struct SampledUsage {
    /// Requested sampling rate.
    pub rate: f64,
    pub sampled_functions: u64,
    pub total_functions: u64,
    /// Self-normalized inverse-probability factor `N / n`.
    pub scale_factor: f64,
    /// Estimated grand request total (`scale_factor × sampled total`).
    pub est_total_requests: u64,
    /// Exact grand total, free from the report's aggregates — lets the
    /// caller print the realized error next to the a-priori bound.
    pub exact_total_requests: u64,
    /// Realized relative error of `est_total_requests`.
    pub rel_err_total: f64,
    /// A-priori ±1σ relative error of the total estimator under
    /// simple-random-sampling (finite population correction applied).
    pub rel_std_err: f64,
}

impl SampledUsage {
    /// Scale `report`'s Figure 4 by `N / n` (each cell rounded) and
    /// account the estimate. A rate of 1 or more is the exact fold
    /// (factor 1, zero error bound).
    fn estimate(report: &mut UsageReport, rate: f64) -> SampledUsage {
        let functions = &report.identification.functions;
        let total_functions = functions.len() as u64;
        let exact_total_requests: u64 = functions.iter().map(|f| f.agg.total_request_cnt).sum();
        // SRS total estimator: T̂ = N·ȳ over per-function request totals,
        // Var(T̂) = N²(1 − n/N)s²/n.
        let totals: Vec<f64> = functions
            .iter()
            .filter(|f| in_sample(&f.fqdn, rate))
            .map(|f| f.agg.total_request_cnt as f64)
            .collect();
        let n = totals.len() as u64;
        let scale_factor = if n == 0 {
            0.0
        } else {
            total_functions as f64 / n as f64
        };
        if scale_factor != 1.0 {
            for series in report.request_series.per_provider.values_mut() {
                for v in series.iter_mut() {
                    *v = (*v as f64 * scale_factor).round() as u64;
                }
            }
        }
        let est_total = if totals.is_empty() {
            0.0
        } else {
            scale_factor * totals.iter().sum::<f64>()
        };
        let rel_std_err = if totals.len() < 2 || est_total == 0.0 || total_functions == 0 {
            0.0
        } else {
            let n_f = totals.len() as f64;
            let big_n = total_functions as f64;
            let mean = totals.iter().sum::<f64>() / n_f;
            let s2 = totals.iter().map(|y| (y - mean).powi(2)).sum::<f64>() / (n_f - 1.0);
            let var = big_n * big_n * (1.0 - n_f / big_n) * s2 / n_f;
            var.sqrt() / est_total
        };
        let rel_err_total = if exact_total_requests == 0 {
            0.0
        } else {
            (est_total - exact_total_requests as f64).abs() / exact_total_requests as f64
        };
        SampledUsage {
            rate,
            sampled_functions: n,
            total_functions,
            scale_factor,
            est_total_requests: est_total.round() as u64,
            exact_total_requests,
            rel_err_total,
            rel_std_err,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_dns::pdns::PdnsStore;
    use fw_types::MEASUREMENT_START;
    use std::net::Ipv4Addr;

    fn day(n: i64) -> DayStamp {
        MEASUREMENT_START + n
    }

    fn v4(last: u8) -> Rdata {
        Rdata::V4(Ipv4Addr::new(198, 51, 100, last))
    }

    fn fq(s: &str) -> Fqdn {
        Fqdn::parse(s).unwrap()
    }

    /// Rows of two identified functions, one path-identified domain
    /// and one noise domain.
    fn store() -> PdnsStore {
        let mut s = PdnsStore::new();
        let aws = fq("abc123.lambda-url.us-east-1.on.aws");
        let g2 = fq("myfn-a1b2c3d4e5-uc.a.run.app");
        s.observe_count(&aws, &v4(1), day(3), 3);
        s.observe_count(&g2, &v4(2), day(10), 60);
        s.observe_count(&g2, &v4(3), day(40), 60);
        s.observe_count(
            &fq("us-central1-proj.cloudfunctions.net"),
            &v4(4),
            day(100),
            1000,
        );
        s.observe_count(&fq("www.example.com"), &v4(5), day(1), 99);
        s
    }

    /// The fold routes only the rows of an identified fqdn in the
    /// sample: a noise fqdn and an identified fqdn outside the sample
    /// reach the engine's counters, never the usage state.
    #[test]
    fn fold_routes_only_identified_rows_in_the_sample() {
        let kept = fq("abc123.lambda-url.us-east-1.on.aws");
        let dropped = fq("myfn-a1b2c3d4e5-uc.a.run.app");
        let noise = fq("www.example.com");
        let share = |f: &Fqdn| fw_types::fnv::fnv1a(f.as_str().as_bytes()) as f64 / u64::MAX as f64;
        // A rate between the two functions' hash shares samples exactly
        // the lower one.
        let (kept, dropped) = if share(&kept) < share(&dropped) {
            (kept, dropped)
        } else {
            (dropped, kept)
        };
        let rate = (share(&kept) + share(&dropped)) / 2.0;
        assert!(in_sample(&kept, rate) && !in_sample(&dropped, rate));

        let mut fold = BatchFold::new(Some(rate));
        let mut source = PdnsStore::new();
        // Scan order: each fqdn's rows, then its aggregate.
        for (fqdn, cnt) in [(&dropped, 7), (&kept, 5), (&noise, 11)] {
            for d in [0, 31] {
                fold.row(fqdn, &v4(9), day(d), cnt);
                source.observe_count(fqdn, &v4(9), day(d), cnt);
            }
            fold.aggregate(source.aggregate(fqdn).unwrap());
        }
        let mut engine = IdentifyEngine::batch(1);
        fold.absorb_into(&mut engine);
        let (report, sampled) = finish(engine, &fold.into_usage(), Some(rate));

        let id = &report.identification;
        assert_eq!(id.functions.len(), 2);
        assert_eq!(id.unmatched, 1);
        assert_eq!(id.total_requests, 2 * 7 + 2 * 5);
        let provider = classify_fqdn(&kept).unwrap().0;
        // Only `kept`'s rows reached the state: 5 requests in each of
        // two months, scaled by N / n = 2.
        assert_eq!(report.request_series.total().iter().sum::<u64>(), 2 * 2 * 5);
        assert_eq!(report.request_series.per_provider.len(), 1);
        assert_eq!(report.ingress.len(), 1);
        assert_eq!(report.ingress[0].provider, provider);
        assert_eq!(report.ingress[0].rdata_cnt, (1, 0, 0));
        let sampled = sampled.expect("a sampled fold accounts its sample");
        assert_eq!((sampled.sampled_functions, sampled.total_functions), (1, 2));
        assert_eq!(sampled.exact_total_requests, 24);
        assert_eq!(sampled.est_total_requests, 20);
    }

    #[test]
    fn measure_is_worker_count_invariant() {
        let s = store();
        for sample in [None, Some(0.5)] {
            let accounting =
                |s: Option<SampledUsage>| s.map(|s| (s.sampled_functions, s.est_total_requests));
            let (base, base_sampled) = measure(&s, 1, sample);
            let base_sampled = accounting(base_sampled);
            for workers in [3, 8] {
                let (got, got_sampled) = measure(&s, workers, sample);
                assert_eq!(got, base, "workers {workers} sample {sample:?}");
                assert_eq!(accounting(got_sampled), base_sampled);
            }
        }
    }

    #[test]
    fn sampled_fold_at_full_rate_is_exact() {
        let s = store();
        let (exact, none) = measure(&s, 2, None);
        assert!(none.is_none());
        let (report, sampled) = measure(&s, 4, Some(1.0));
        let sampled = sampled.unwrap();
        assert_eq!(report, exact);
        assert_eq!(sampled.sampled_functions, sampled.total_functions);
        assert_eq!(sampled.scale_factor, 1.0);
        assert_eq!(sampled.est_total_requests, sampled.exact_total_requests);
        assert_eq!(sampled.rel_err_total, 0.0);
        assert_eq!(sampled.rel_std_err, 0.0);
    }

    #[test]
    fn sampled_fold_is_bounded_and_keeps_identification_exact() {
        let s = store();
        let (exact, _) = measure(&s, 1, None);
        let (report, sampled) = measure(&s, 1, Some(0.5));
        let sampled = sampled.unwrap();
        assert_eq!(report.identification, exact.identification);
        assert_eq!(report.invocation, exact.invocation);
        assert!(sampled.sampled_functions <= sampled.total_functions);
        assert_eq!(sampled.exact_total_requests, 1123);
        assert!(sampled.rel_std_err >= 0.0);
        if sampled.sampled_functions > 0 {
            assert!(sampled.scale_factor >= 1.0);
        } else {
            assert_eq!(sampled.est_total_requests, 0);
        }
    }
}
