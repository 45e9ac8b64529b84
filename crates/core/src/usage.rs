//! Usage-status analyses (§4): trends, ingress, invocation patterns.
//!
//! Since DESIGN.md §14 the per-row accumulation lives in
//! [`UsageState`], a delta-driven state machine shared by the streaming
//! daemon (one `apply` per routed row) and the batch sweeps (each
//! worker builds a partial state over its function chunk, partials
//! merge commutatively). Both paths finish through the same
//! materializers, so their outputs are identical for the same rows.

use crate::identify::{IdentificationReport, IdentifiedFunction};
use fw_analysis::par::{default_workers, par_map};
use fw_analysis::stats;
use fw_dns::pdns::PdnsBackend;
use fw_types::fnv::FnvBuildHasher;
use fw_types::{
    DayStamp, MonthStamp, ProviderId, Rdata, RecordType, MEASUREMENT_END, MEASUREMENT_START,
};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::ops::Range;

/// Split `report.functions` into up to `workers` contiguous index
/// ranges for data-parallel per-function sweeps. Contiguous (rather
/// than round-robin) chunks keep each worker on one stretch of the
/// fqdn-sorted function list, which clusters shard-lock reuse in
/// `for_each_record_of`.
fn function_chunks(n: usize, workers: usize) -> Vec<Range<usize>> {
    let w = workers.clamp(1, n.max(1));
    (0..w).map(|i| (n * i / w)..(n * (i + 1) / w)).collect()
}

/// The batch usage sweep: fold every row of `functions` into a state
/// built by `new_state`. Each worker visits one contiguous function
/// chunk through [`PdnsBackend::for_each_record_of`] (rather than
/// scanning every row in the store against an fqdn map), and the
/// partial states merge commutatively, so the result is worker-count
/// invariant.
fn sweep_functions<B, F>(
    functions: &[F],
    pdns: &B,
    workers: usize,
    label: &str,
    new_state: fn() -> UsageState,
) -> UsageState
where
    B: PdnsBackend + ?Sized,
    F: Borrow<IdentifiedFunction> + Sync,
{
    let chunks = function_chunks(functions.len(), workers);
    let parts = par_map(&chunks, workers, label, None, |_, range| {
        let mut part = new_state();
        for f in &functions[range.clone()] {
            let f = f.borrow();
            part.touch_ingress(f.provider);
            pdns.for_each_record_of(&f.fqdn, &mut |rtype, rdata, pdate, cnt| {
                part.apply(f.provider, rtype, rdata, pdate, cnt);
            });
        }
        part
    });
    let mut state = new_state();
    for part in parts {
        state.merge(part);
    }
    state
}

/// Figure 3/4 series: per-month values for one provider (or the total).
#[derive(Debug, Clone, PartialEq)]
pub struct MonthlySeries {
    pub months: Vec<MonthStamp>,
    /// provider → per-month value; `None` key handled via [`MonthlySeries::total`].
    pub per_provider: HashMap<ProviderId, Vec<u64>>,
}

impl MonthlySeries {
    /// Sum across providers per month.
    pub fn total(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.months.len()];
        for series in self.per_provider.values() {
            for (i, v) in series.iter().enumerate() {
                out[i] += v;
            }
        }
        out
    }

    pub fn for_provider(&self, p: ProviderId) -> Option<&[u64]> {
        self.per_provider.get(&p).map(|v| v.as_slice())
    }
}

fn month_index_of(day: fw_types::DayStamp) -> Option<usize> {
    let start = MEASUREMENT_START.month();
    let m = day.month();
    let idx = (m.year - start.year) * 12 + (m.month as i32 - start.month as i32);
    if idx < 0 {
        return None;
    }
    let idx = idx as usize;
    (idx < 24).then_some(idx)
}

fn window_months() -> Vec<MonthStamp> {
    MEASUREMENT_START
        .month()
        .range_inclusive(MEASUREMENT_END.month())
        .collect()
}

/// Incremental usage accumulator (DESIGN.md §14): per-provider monthly
/// request sums (Figure 4) and per-provider/rtype rdata distributions
/// (Table 2), folded in one row at a time.
///
/// All updates are commutative sums, so states built from any
/// partition and ordering of the same rows [`merge`](Self::merge) to
/// the same result — the property the batch wrappers (per-worker
/// partial states) and the streaming daemon (one long-lived state)
/// both lean on. Tracking is opt-in per table so the batch sweeps
/// don't pay for a table they won't read.
///
/// Table 2's rdata tables are keyed by [`Rdata`] itself, not by its
/// rendered text. That gives the same table: each slot's rtype fixes
/// its rdata variant, and each variant's text maps one-to-one to its
/// value, so every slot holds the same multiset of counts, and
/// [`ingress_rows`](Self::ingress_rows) reads only the sorted counts.
#[derive(Debug, Clone)]
pub struct UsageState {
    track_monthly: bool,
    track_ingress: bool,
    n_months: usize,
    monthly: HashMap<ProviderId, Vec<u64>, FnvBuildHasher>,
    /// provider → rtype slot `(A, CNAME, AAAA)` → rdata → requests.
    ingress: HashMap<ProviderId, [HashMap<Rdata, u64, FnvBuildHasher>; 3], FnvBuildHasher>,
}

impl UsageState {
    /// Track both tables (the streaming daemon's configuration).
    pub fn new() -> Self {
        Self::tracking(true, true)
    }

    /// Track only the monthly request series.
    pub fn monthly_only() -> Self {
        Self::tracking(true, false)
    }

    /// Track only the ingress rdata distributions.
    pub fn ingress_only() -> Self {
        Self::tracking(false, true)
    }

    fn tracking(monthly: bool, ingress: bool) -> Self {
        UsageState {
            track_monthly: monthly,
            track_ingress: ingress,
            n_months: window_months().len(),
            monthly: HashMap::default(),
            ingress: HashMap::default(),
        }
    }

    /// Fold in one row of an *identified* function (routing rows by
    /// verdict is the caller's job; classification is per-fqdn pure, so
    /// streaming and batch route identically).
    pub fn apply(
        &mut self,
        provider: ProviderId,
        rtype: RecordType,
        rdata: &Rdata,
        day: DayStamp,
        cnt: u64,
    ) {
        if self.track_monthly {
            if let Some(idx) = month_index_of(day) {
                self.monthly
                    .entry(provider)
                    .or_insert_with(|| vec![0; self.n_months])[idx] += cnt;
            }
        }
        if self.track_ingress {
            let slot = match rtype {
                RecordType::A => 0,
                RecordType::Cname => 1,
                RecordType::Aaaa => 2,
            };
            let table = &mut self.ingress.entry(provider).or_default()[slot];
            // Repeat keys are the common case: clone only on first sight.
            match table.get_mut(rdata) {
                Some(requests) => *requests += cnt,
                None => {
                    table.insert(rdata.clone(), cnt);
                }
            }
        }
    }

    /// Ensure the provider has an (possibly empty) ingress entry — the
    /// row-scan formulation produced one for every provider with an
    /// identified function, even a function with no stored rows.
    fn touch_ingress(&mut self, provider: ProviderId) {
        if self.track_ingress {
            self.ingress.entry(provider).or_default();
        }
    }

    /// Merge a partial state in (commutative, associative).
    pub fn merge(&mut self, other: UsageState) {
        for (provider, series) in other.monthly {
            match self.monthly.entry(provider) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(series);
                }
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    for (acc, v) in e.get_mut().iter_mut().zip(series) {
                        *acc += v;
                    }
                }
            }
        }
        for (provider, maps) in other.ingress {
            let acc = self.ingress.entry(provider).or_default();
            for (slot, map) in maps.into_iter().enumerate() {
                for (rdata, cnt) in map {
                    *acc[slot].entry(rdata).or_insert(0) += cnt;
                }
            }
        }
    }

    /// Materialize the Figure 4 monthly series.
    pub fn monthly_series(&self) -> MonthlySeries {
        // The row-scan formulation only created a provider entry when a
        // row fell inside the measurement window; keep that contract.
        let per_provider: HashMap<ProviderId, Vec<u64>> = self
            .monthly
            .iter()
            .filter(|(_, series)| series.iter().any(|v| *v > 0))
            .map(|(p, series)| (*p, series.clone()))
            .collect();
        MonthlySeries {
            months: window_months(),
            per_provider,
        }
    }

    /// Materialize the Table 2 rows against an identification report
    /// (domain/request/region columns come from the report; the rdata
    /// distribution columns from this state).
    pub fn ingress_rows(&self, report: &IdentificationReport) -> Vec<IngressRow> {
        let mut rows = Vec::new();
        let domains = report.domains_per_provider();
        let requests = report.requests_per_provider();
        for provider in ProviderId::ALL {
            let Some(maps) = self.ingress.get(&provider) else {
                continue;
            };
            let regions: u64 = {
                let mut set: Vec<&str> = report
                    .functions
                    .iter()
                    .filter(|f| f.provider == provider)
                    .filter_map(|f| f.region.as_deref())
                    .collect();
                set.sort_unstable();
                set.dedup();
                set.len() as u64
            };
            let totals: Vec<u64> = maps.iter().map(|m| m.values().sum::<u64>()).collect();
            let grand: u64 = totals.iter().sum();
            let share = |slot: usize| {
                if grand == 0 {
                    0.0
                } else {
                    totals[slot] as f64 / grand as f64
                }
            };
            let per_slot = |slot: usize| -> (u64, f64, f64) {
                // Sorted so the f64 reductions below are a pure function
                // of the count multiset — the HashMap's iteration order
                // (which differs between incremental and swept states)
                // must not leak into the table through float rounding.
                let mut counts: Vec<u64> = maps[slot].values().copied().collect();
                counts.sort_unstable();
                (
                    counts.len() as u64,
                    stats::top_k_share(&counts, 10),
                    stats::entropy_bits(&counts),
                )
            };
            let (c0, t0, e0) = per_slot(0);
            let (c1, t1, e1) = per_slot(1);
            let (c2, t2, e2) = per_slot(2);
            rows.push(IngressRow {
                provider,
                domains: domains.get(&provider).copied().unwrap_or(0),
                total_requests: requests.get(&provider).copied().unwrap_or(0),
                regions,
                rtype_share: (share(0), share(1), share(2)),
                rdata_cnt: (c0, c1, c2),
                top10: (t0, t1, t2),
                entropy_bits: (e0, e1, e2),
            });
        }
        rows
    }
}

impl Default for UsageState {
    fn default() -> Self {
        Self::new()
    }
}

/// Figure 3: newly-observed function fqdns per month (by
/// `first_seen_all`).
pub fn monthly_new_fqdns(report: &IdentificationReport) -> MonthlySeries {
    let months = window_months();
    let mut per_provider: HashMap<ProviderId, Vec<u64>> = HashMap::new();
    for f in &report.functions {
        if let Some(idx) = month_index_of(f.agg.first_seen_all) {
            per_provider
                .entry(f.provider)
                .or_insert_with(|| vec![0; months.len()])[idx] += 1;
        }
    }
    MonthlySeries {
        months,
        per_provider,
    }
}

/// Figure 4: invocation (request) volume per provider per month.
pub fn monthly_requests<B: PdnsBackend + ?Sized>(
    report: &IdentificationReport,
    pdns: &B,
) -> MonthlySeries {
    monthly_requests_with(report, pdns, default_workers())
}

/// [`monthly_requests`] with an explicit worker count: one
/// function-chunk sweep whose per-month sums merge commutatively.
pub fn monthly_requests_with<B: PdnsBackend + ?Sized>(
    report: &IdentificationReport,
    pdns: &B,
    workers: usize,
) -> MonthlySeries {
    sweep_functions(
        &report.functions,
        pdns,
        workers,
        "usage/monthly",
        UsageState::monthly_only,
    )
    .monthly_series()
}

/// Table 2 row computed from the measured data.
#[derive(Debug, Clone, PartialEq)]
pub struct IngressRow {
    pub provider: ProviderId,
    pub domains: u64,
    pub total_requests: u64,
    /// Distinct region codes seen in domains.
    pub regions: u64,
    /// Per rtype `(A, CNAME, AAAA)`: share of requests.
    pub rtype_share: (f64, f64, f64),
    /// Per rtype: distinct rdata count.
    pub rdata_cnt: (u64, u64, u64),
    /// Per rtype: top-10 concentration.
    pub top10: (f64, f64, f64),
    /// Per rtype: Shannon entropy of the rdata distribution (bits) — the
    /// DESIGN.md concentration-metric ablation.
    pub entropy_bits: (f64, f64, f64),
}

/// Compute Table 2 from the identified functions and the store.
pub fn ingress_table<B: PdnsBackend + ?Sized>(
    report: &IdentificationReport,
    pdns: &B,
) -> Vec<IngressRow> {
    ingress_table_with(report, pdns, default_workers())
}

/// [`ingress_table`] with an explicit worker count: the same sweep as
/// [`monthly_requests_with`], whose per-rdata request sums merge
/// commutatively.
pub fn ingress_table_with<B: PdnsBackend + ?Sized>(
    report: &IdentificationReport,
    pdns: &B,
    workers: usize,
) -> Vec<IngressRow> {
    sweep_functions(
        &report.functions,
        pdns,
        workers,
        "usage/ingress",
        UsageState::ingress_only,
    )
    .ingress_rows(report)
}

/// Deterministic sample membership for the approximate usage sweep:
/// an fqdn is in the sample iff its FNV-1a hash falls under the rate
/// threshold. Hash-based (rather than RNG-based) selection makes the
/// sample a pure function of the fqdn — identical across worker
/// counts, runs, and machines.
fn in_sample(fqdn: &fw_types::Fqdn, rate: f64) -> bool {
    (fw_types::fnv::fnv1a(fqdn.as_str().as_bytes()) as f64) < rate * (u64::MAX as f64)
}

/// Output of the sampled usage sweep: scaled estimates plus the error
/// accounting that makes the speed/accuracy trade explicit.
#[derive(Debug, Clone)]
pub struct SampledUsage {
    /// Monthly request series, inverse-probability scaled (each cell
    /// multiplied by `scale_factor` and rounded).
    pub monthly: MonthlySeries,
    /// Ingress table over the sampled functions. The concentration
    /// metrics (rtype share, top-10, entropy) are scale-invariant;
    /// `rdata_cnt` is the distinct count *observed in the sample* and
    /// undercounts the full sweep — documented, not corrected.
    pub ingress: Vec<IngressRow>,
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

/// Approximate usage sweep (`--sample`): visit only a deterministic
/// hash-selected fraction of the identified functions, scale the
/// additive counts back up, and report both the realized and the
/// predicted error of the estimate. One pass computes both the monthly
/// series and the ingress table. `rate >= 1` degenerates to the exact
/// sweep (factor 1, zero error bound).
pub fn usage_sampled<B: PdnsBackend + ?Sized>(
    report: &IdentificationReport,
    pdns: &B,
    workers: usize,
    rate: f64,
) -> SampledUsage {
    let total_functions = report.functions.len() as u64;
    let exact_total_requests: u64 = report
        .functions
        .iter()
        .map(|f| f.agg.total_request_cnt)
        .sum();
    let sampled: Vec<&IdentifiedFunction> = report
        .functions
        .iter()
        .filter(|f| rate >= 1.0 || in_sample(&f.fqdn, rate))
        .collect();
    let n = sampled.len() as u64;
    let scale_factor = if n == 0 {
        0.0
    } else {
        total_functions as f64 / n as f64
    };

    let state = sweep_functions(&sampled, pdns, workers, "usage/sampled", UsageState::new);

    let mut monthly = state.monthly_series();
    if scale_factor != 1.0 {
        for series in monthly.per_provider.values_mut() {
            for v in series.iter_mut() {
                *v = (*v as f64 * scale_factor).round() as u64;
            }
        }
    }

    // SRS total estimator: T̂ = N·ȳ over per-function request totals,
    // Var(T̂) = N²(1 − n/N)s²/n.
    let totals: Vec<f64> = sampled
        .iter()
        .map(|f| f.agg.total_request_cnt as f64)
        .collect();
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
        monthly,
        ingress: state.ingress_rows(report),
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

/// Figure 5 + §4.3 statistics over function-identifiable providers.
#[derive(Debug, Clone, PartialEq)]
pub struct InvocationReport {
    pub functions: u64,
    /// Fraction with fewer than 5 total requests.
    pub frac_under_5: f64,
    /// Fraction with more than 100 total requests.
    pub frac_over_100: f64,
    /// log10 histogram of request counts (Figure 5 histogram).
    pub log_histogram: Vec<stats::Bin>,
    /// CDF points over log10(requests) (Figure 5 curve).
    pub cdf: Vec<(f64, f64)>,
    /// Lifespan stats (§4.3).
    pub frac_single_day: f64,
    pub frac_under_5_days: f64,
    pub mean_lifespan_days: f64,
    /// Fraction with activity density exactly 1.
    pub frac_density_one: f64,
    /// Functions active across the whole 730/731-day window.
    pub full_window_functions: u64,
}

/// Compute the Figure 5/§4.3 report. Excludes providers whose domains do
/// not map to single functions (Google, IBM, Oracle) — like the paper.
pub fn invocation_report(report: &IdentificationReport) -> InvocationReport {
    let funcs: Vec<&IdentifiedFunction> = report.function_identifiable().collect();
    let n = funcs.len().max(1) as f64;
    let counts: Vec<f64> = funcs
        .iter()
        .map(|f| f.agg.total_request_cnt as f64)
        .collect();
    let lifespans: Vec<f64> = funcs.iter().map(|f| f.agg.lifespan_days() as f64).collect();
    let window = (MEASUREMENT_END - MEASUREMENT_START + 1) as f64;
    InvocationReport {
        functions: funcs.len() as u64,
        frac_under_5: counts.iter().filter(|c| **c < 5.0).count() as f64 / n,
        frac_over_100: counts.iter().filter(|c| **c > 100.0).count() as f64 / n,
        log_histogram: stats::log10_histogram(&counts, 4),
        cdf: stats::cdf_points(&counts.iter().map(|c| c.log10()).collect::<Vec<_>>()),
        frac_single_day: lifespans.iter().filter(|l| **l <= 1.0).count() as f64 / n,
        frac_under_5_days: lifespans.iter().filter(|l| **l < 5.0).count() as f64 / n,
        mean_lifespan_days: stats::mean(&lifespans),
        frac_density_one: funcs
            .iter()
            .filter(|f| (f.agg.activity_density() - 1.0).abs() < 1e-9)
            .count() as f64
            / n,
        full_window_functions: lifespans.iter().filter(|l| **l >= window).count() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identify::identify_functions;
    use fw_dns::pdns::PdnsStore;
    use fw_types::{DayStamp, Fqdn};
    use std::net::Ipv4Addr;

    fn day(n: i64) -> DayStamp {
        MEASUREMENT_START + n
    }

    fn v4(last: u8) -> Rdata {
        Rdata::V4(Ipv4Addr::new(198, 51, 100, last))
    }

    fn store() -> PdnsStore {
        let mut s = PdnsStore::new();
        let aws = Fqdn::parse("abc123.lambda-url.us-east-1.on.aws").unwrap();
        let g2 = Fqdn::parse("myfn-a1b2c3d4e5-uc.a.run.app").unwrap();
        let goog = Fqdn::parse("us-central1-proj.cloudfunctions.net").unwrap();
        // AWS function: 3 requests on one day (month 0).
        s.observe_count(&aws, &v4(1), day(3), 3);
        // Google2 function: requests across two months.
        s.observe_count(&g2, &v4(2), day(10), 60);
        s.observe_count(&g2, &v4(3), day(40), 60);
        // Google (path-identified): excluded from invocation stats.
        s.observe_count(&goog, &v4(4), day(100), 1000);
        // Noise.
        s.observe_count(&Fqdn::parse("www.example.com").unwrap(), &v4(5), day(1), 99);
        s
    }

    #[test]
    fn figure3_new_fqdns_by_month() {
        let s = store();
        let report = identify_functions(&s);
        let series = monthly_new_fqdns(&report);
        assert_eq!(series.months.len(), 24);
        let total = series.total();
        assert_eq!(total[0], 2); // aws + google2 first seen in April 2022
        assert_eq!(total.iter().sum::<u64>(), 3);
        assert_eq!(series.for_provider(ProviderId::Aws).unwrap()[0], 1);
    }

    #[test]
    fn figure4_requests_by_month() {
        let s = store();
        let report = identify_functions(&s);
        let series = monthly_requests(&report, &s);
        let g2 = series.for_provider(ProviderId::Google2).unwrap();
        assert_eq!(g2[0], 60); // April 2022
        assert_eq!(g2[1], 60); // May 2022
                               // Noise (www.example.com) contributes nothing.
        assert_eq!(series.total().iter().sum::<u64>(), 3 + 120 + 1000);
    }

    #[test]
    fn table2_row_fields() {
        let s = store();
        let report = identify_functions(&s);
        let rows = ingress_table(&report, &s);
        let aws = rows.iter().find(|r| r.provider == ProviderId::Aws).unwrap();
        assert_eq!(aws.domains, 1);
        assert_eq!(aws.total_requests, 3);
        assert_eq!(aws.regions, 1);
        assert!((aws.rtype_share.0 - 1.0).abs() < 1e-9);
        assert_eq!(aws.rdata_cnt.0, 1);
        assert!((aws.top10.0 - 1.0).abs() < 1e-9);

        let g2 = rows
            .iter()
            .find(|r| r.provider == ProviderId::Google2)
            .unwrap();
        assert_eq!(g2.rdata_cnt.0, 2); // two distinct A rdata
    }

    #[test]
    fn figure5_invocation_stats_exclude_path_identified() {
        let s = store();
        let report = identify_functions(&s);
        let inv = invocation_report(&report);
        // Only the AWS (3 reqs) and Google2 (120 reqs) functions count.
        assert_eq!(inv.functions, 2);
        assert!((inv.frac_under_5 - 0.5).abs() < 1e-9);
        assert!((inv.frac_over_100 - 0.5).abs() < 1e-9);
        assert!((inv.frac_single_day - 0.5).abs() < 1e-9);
        // AWS lifespan 1 day, Google2 lifespan 31 days → mean 16.
        assert!((inv.mean_lifespan_days - 16.0).abs() < 1e-9);
        // Google2 has 2 active days over a 31-day span → density < 1.
        assert!((inv.frac_density_one - 0.5).abs() < 1e-9);
    }

    #[test]
    fn usage_sweeps_are_worker_count_invariant() {
        let s = store();
        let report = identify_functions(&s);
        let base_months = monthly_requests_with(&report, &s, 1);
        let base_table = ingress_table_with(&report, &s, 1);
        for workers in [3, 8] {
            let months = monthly_requests_with(&report, &s, workers);
            assert_eq!(months.months, base_months.months);
            assert_eq!(months.per_provider, base_months.per_provider);
            let table = ingress_table_with(&report, &s, workers);
            assert_eq!(table.len(), base_table.len());
            for (a, b) in table.iter().zip(&base_table) {
                assert_eq!(a.provider, b.provider);
                assert_eq!(a.total_requests, b.total_requests);
                assert_eq!(a.rdata_cnt, b.rdata_cnt);
                assert_eq!(a.rtype_share, b.rtype_share);
                assert_eq!(a.top10, b.top10);
            }
        }
    }

    #[test]
    fn sampled_sweep_at_full_rate_is_exact() {
        let s = store();
        let report = identify_functions(&s);
        let exact_months = monthly_requests(&report, &s);
        let exact_table = ingress_table(&report, &s);
        let sampled = usage_sampled(&report, &s, 4, 1.0);
        assert_eq!(sampled.sampled_functions, sampled.total_functions);
        assert_eq!(sampled.scale_factor, 1.0);
        assert_eq!(sampled.monthly.per_provider, exact_months.per_provider);
        assert_eq!(sampled.ingress, exact_table);
        assert_eq!(sampled.est_total_requests, sampled.exact_total_requests);
        assert_eq!(sampled.rel_err_total, 0.0);
        assert_eq!(sampled.rel_std_err, 0.0);
    }

    #[test]
    fn sampled_sweep_is_deterministic_and_bounded() {
        let s = store();
        let report = identify_functions(&s);
        let a = usage_sampled(&report, &s, 1, 0.5);
        let b = usage_sampled(&report, &s, 8, 0.5);
        // Hash-threshold membership: identical at any worker count.
        assert_eq!(a.sampled_functions, b.sampled_functions);
        assert_eq!(a.monthly.per_provider, b.monthly.per_provider);
        assert_eq!(a.est_total_requests, b.est_total_requests);
        assert!(a.sampled_functions <= a.total_functions);
        assert_eq!(a.exact_total_requests, 1123);
        assert!(a.rel_std_err >= 0.0);
        // Estimator self-consistency: monthly cells scale with the
        // sample, so the scaled grand total matches the estimate.
        if a.sampled_functions > 0 {
            assert!(a.scale_factor >= 1.0);
        } else {
            assert_eq!(a.est_total_requests, 0);
        }
    }

    /// Table 2 from `Rdata`-keyed tables equals Table 2 from tables
    /// keyed by the rendered text, including for a CNAME target that
    /// reads like an IPv4 address.
    #[test]
    fn rdata_keyed_tables_match_text_keyed_reference() {
        let aws = Fqdn::parse("abc123.lambda-url.us-east-1.on.aws").unwrap();
        let g2 = Fqdn::parse("myfn-a1b2c3d4e5-uc.a.run.app").unwrap();
        let v6 = |s: &str| Rdata::V6(s.parse().unwrap());
        let name = |s: &str| Rdata::Name(Fqdn::parse(s).unwrap());
        let rows = [
            (&aws, v4(1), 3, 5),
            (&aws, v4(1), 4, 7),
            (&aws, v4(2), 4, 1),
            (&aws, Rdata::V4(Ipv4Addr::new(1, 2, 3, 4)), 5, 2),
            (&aws, name("1.2.3.4"), 5, 11),
            (&aws, name("edge.cdn.example.net"), 6, 4),
            (&aws, name("1.2.3.4"), 7, 3),
            (&aws, v6("2001:db8::1"), 6, 9),
            (&aws, v6("::ffff:1.2.3.4"), 6, 2),
            (&g2, v4(3), 10, 60),
            (&g2, v4(4), 11, 20),
            (&g2, v6("2001:db8::1"), 12, 8),
            (&g2, name("ghs.googlehosted.com"), 13, 1),
        ];
        let mut store = PdnsStore::new();
        for (fqdn, rdata, d, cnt) in &rows {
            store.observe_count(fqdn, rdata, day(*d), *cnt);
        }
        let report = identify_functions(&store);

        let mut state = UsageState::new();
        let mut by_text: HashMap<ProviderId, [HashMap<String, u64>; 3]> = HashMap::new();
        for (fqdn, rdata, d, cnt) in &rows {
            let provider = report
                .functions
                .iter()
                .find(|f| &f.fqdn == *fqdn)
                .unwrap()
                .provider;
            state.apply(provider, rdata.rtype(), rdata, day(*d), *cnt);
            let slot = match rdata.rtype() {
                RecordType::A => 0,
                RecordType::Cname => 1,
                RecordType::Aaaa => 2,
            };
            *by_text.entry(provider).or_default()[slot]
                .entry(rdata.text())
                .or_insert(0) += cnt;
        }

        let table = state.ingress_rows(&report);
        assert_eq!(table, ingress_table(&report, &store));
        assert_eq!(table.len(), by_text.len());
        for row in &table {
            let maps = &by_text[&row.provider];
            let per_slot = |slot: usize| {
                let mut counts: Vec<u64> = maps[slot].values().copied().collect();
                counts.sort_unstable();
                (
                    counts.len() as u64,
                    stats::top_k_share(&counts, 10),
                    stats::entropy_bits(&counts),
                )
            };
            let (c0, t0, e0) = per_slot(0);
            let (c1, t1, e1) = per_slot(1);
            let (c2, t2, e2) = per_slot(2);
            assert_eq!(row.rdata_cnt, (c0, c1, c2), "{:?}", row.provider);
            assert_eq!(row.top10, (t0, t1, t2), "{:?}", row.provider);
            assert_eq!(row.entropy_bits, (e0, e1, e2), "{:?}", row.provider);
            let totals: Vec<u64> = maps.iter().map(|m| m.values().sum()).collect();
            let grand: u64 = totals.iter().sum();
            let share = |slot: usize| totals[slot] as f64 / grand as f64;
            assert_eq!(row.rtype_share, (share(0), share(1), share(2)));
        }
        let aws_row = table.iter().find(|r| r.provider == ProviderId::Aws);
        assert_eq!(aws_row.unwrap().rdata_cnt, (3, 2, 2));
    }

    #[test]
    fn empty_report_is_safe() {
        let s = PdnsStore::new();
        let report = identify_functions(&s);
        let inv = invocation_report(&report);
        assert_eq!(inv.functions, 0);
        assert!(ingress_table(&report, &s).is_empty());
        assert_eq!(monthly_new_fqdns(&report).total().iter().sum::<u64>(), 0);
    }
}
