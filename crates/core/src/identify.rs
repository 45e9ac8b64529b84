//! Serverless function identification (§3.2).
//!
//! The paper converts Table 1's URL formats into domain regular
//! expressions and filters the PDNS feed through them. Here the same
//! compiled expressions (from `fw-cloud::formats`, engine from
//! `fw-pattern`) scan every fqdn in the store; matches are aggregated per
//! function with the §3.2 key metrics.
//!
//! Since DESIGN.md §14 the implementation is a delta-driven state
//! machine, [`IdentifyEngine`]: the streaming daemon feeds it raw
//! [`PdnsRow`]s batch by batch and consumes [`VerdictChange`] deltas,
//! while the batch fold ([`crate::fold`], behind
//! [`identify_functions`]) loads the same engine with per-fqdn
//! aggregates it classified once — so a daemon's final state is
//! provably identical to a batch run over the same rows.

use crate::fold::measure;
use fw_analysis::par::{default_workers, par_map};
use fw_cloud::formats::{format_by_suffix, identify, identify_with_region};
use fw_dns::pdns::{FqdnAggregate, PdnsBackend, PdnsRow};
use fw_types::{DayStamp, Fqdn, ProviderId, Rdata};
use std::collections::HashMap;

/// One identified serverless function domain.
#[derive(Debug, Clone, PartialEq)]
pub struct IdentifiedFunction {
    pub fqdn: Fqdn,
    pub provider: ProviderId,
    /// Region code extracted from the domain, where the format encodes
    /// one.
    pub region: Option<String>,
    /// §3.2 aggregate: first/last seen, days_count, total_request_cnt,
    /// rdata distribution.
    pub agg: FqdnAggregate,
}

/// Identification summary.
#[derive(Debug, Clone, PartialEq)]
pub struct IdentificationReport {
    pub functions: Vec<IdentifiedFunction>,
    /// fqdns in the store that matched no provider expression.
    pub unmatched: u64,
    /// Total request count across identified functions.
    pub total_requests: u64,
}

impl IdentificationReport {
    /// Count of identified domains per provider (Table 2 "Domains").
    pub fn domains_per_provider(&self) -> HashMap<ProviderId, u64> {
        let mut out = HashMap::new();
        for f in &self.functions {
            *out.entry(f.provider).or_insert(0) += 1;
        }
        out
    }

    /// Per-provider request totals (Table 2 "All Request").
    pub fn requests_per_provider(&self) -> HashMap<ProviderId, u64> {
        let mut out = HashMap::new();
        for f in &self.functions {
            *out.entry(f.provider).or_insert(0) += f.agg.total_request_cnt;
        }
        out
    }

    /// Functions belonging to providers whose domains map one-to-one to
    /// functions (the §4.3 / probing scope).
    pub fn function_identifiable(&self) -> impl Iterator<Item = &IdentifiedFunction> {
        self.functions
            .iter()
            .filter(|f| f.provider.function_identifiable())
    }

    /// Domains to actively probe (§3.3 scope).
    pub fn probe_scope(&self) -> Vec<Fqdn> {
        self.function_identifiable()
            .map(|f| f.fqdn.clone())
            .collect()
    }

    /// Point lookup by fqdn. `functions` is sorted by fqdn
    /// ([`IdentifyEngine::into_report`] guarantees it), so
    /// the serving read path can binary-search instead of scanning.
    pub fn find(&self, fqdn: &Fqdn) -> Option<&IdentifiedFunction> {
        debug_assert!(self.functions.windows(2).all(|w| w[0].fqdn <= w[1].fqdn));
        self.functions
            .binary_search_by(|f| f.fqdn.cmp(fqdn))
            .ok()
            .map(|i| &self.functions[i])
    }
}

/// One delta emitted by [`IdentifyEngine::apply_rows`].
///
/// A fqdn's classification is a pure function of its name, so it is
/// decided once — on the batch that first mentions it — and never
/// revised: `Identified`/`Unmatched` each fire at most once per fqdn.
/// `Evidence` fires once per batch for every identified function the
/// batch touched, carrying the function's *cumulative* §3.2 metrics so
/// downstream scorers can re-score candidates as evidence accrues.
#[derive(Debug, Clone, PartialEq)]
pub enum VerdictChange {
    Identified {
        fqdn: Fqdn,
        provider: ProviderId,
        region: Option<String>,
    },
    Unmatched {
        fqdn: Fqdn,
    },
    Evidence {
        fqdn: Fqdn,
        provider: ProviderId,
        total_requests: u64,
        days_count: u32,
        first_seen: DayStamp,
        last_seen: DayStamp,
    },
}

/// Classification verdict for one fqdn — the per-fqdn CPU cost, shared
/// by the streaming and batch paths. A single pattern-engine run yields
/// both the provider verdict and the region code.
fn classify(fqdn: &Fqdn) -> Option<(ProviderId, Option<String>)> {
    identify_with_region(fqdn)
}

/// Public form of the engine's classifier, for pipelines that classify
/// an fqdn once at the scan site (e.g. the fused per-shard scan, which
/// needs the provider while streaming rows) and then hand the verdict
/// to [`IdentifyEngine::absorb_classified`] so it is not recomputed.
pub fn classify_fqdn(fqdn: &Fqdn) -> Option<(ProviderId, Option<String>)> {
    classify(fqdn)
}

/// Classification fans out to worker threads only above this many new
/// fqdns per batch; tiny streaming batches run inline. Purely a
/// scheduling choice — `par_map` is order-identical to serial, so
/// results never depend on it.
const PAR_CLASSIFY_MIN: usize = 64;

/// Cumulative per-function aggregate state. On the row-fed path `days`
/// holds the sorted distinct observation days; on the aggregate-fed
/// path (the batch fold) the day set is already collapsed into
/// `days_count` and `days` stays empty — an engine is fed by one path
/// or the other, never both.
#[derive(Debug)]
struct FnState {
    fqdn: Fqdn,
    provider: ProviderId,
    region: Option<String>,
    first: DayStamp,
    last: DayStamp,
    days: Vec<DayStamp>,
    days_count: u32,
    total: u64,
    /// `(rdata, total requests)`, sorted by rdata — the same order both
    /// store backends produce, so reports compare byte-identically.
    rdata: Vec<(Rdata, u64)>,
}

impl FnState {
    fn new(fqdn: Fqdn, provider: ProviderId, region: Option<String>) -> Self {
        FnState {
            fqdn,
            provider,
            region,
            first: DayStamp(i64::MAX),
            last: DayStamp(i64::MIN),
            days: Vec::new(),
            days_count: 0,
            total: 0,
            rdata: Vec::new(),
        }
    }

    fn from_aggregate(agg: FqdnAggregate, provider: ProviderId, region: Option<String>) -> Self {
        FnState {
            fqdn: agg.fqdn,
            provider,
            region,
            first: agg.first_seen_all,
            last: agg.last_seen_all,
            days: Vec::new(),
            days_count: agg.days_count,
            total: agg.total_request_cnt,
            rdata: agg.rdata_dist,
        }
    }

    /// Fold one row in. Every update is commutative and associative
    /// over rows (min, max, set-insert, sum), so any arrival order of
    /// the same multiset of rows produces the same state.
    fn absorb_row(&mut self, row: &PdnsRow) {
        self.first = self.first.min(row.day);
        self.last = self.last.max(row.day);
        if let Err(pos) = self.days.binary_search(&row.day) {
            self.days.insert(pos, row.day);
            self.days_count = self.days.len() as u32;
        }
        self.total += row.cnt;
        match self.rdata.binary_search_by(|(r, _)| r.cmp(&row.rdata)) {
            Ok(pos) => self.rdata[pos].1 += row.cnt,
            Err(pos) => self.rdata.insert(pos, (row.rdata.clone(), row.cnt)),
        }
    }

    fn into_identified(self) -> IdentifiedFunction {
        IdentifiedFunction {
            agg: FqdnAggregate {
                fqdn: self.fqdn.clone(),
                first_seen_all: self.first,
                last_seen_all: self.last,
                days_count: self.days_count,
                total_request_cnt: self.total,
                rdata_dist: self.rdata,
            },
            fqdn: self.fqdn,
            provider: self.provider,
            region: self.region,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Class {
    Function(u32),
    Noise,
}

/// Incremental identification state machine (DESIGN.md §14).
///
/// Feed it rows with [`apply_rows`](Self::apply_rows) (streaming) or
/// classified aggregates with
/// [`absorb_classified`](Self::absorb_classified) (the batch fold),
/// then consume it into an [`IdentificationReport`]
/// with [`into_report`](Self::into_report). Both paths share the
/// classifier and the report shape, and every aggregate update commutes
/// over rows, so final state depends only on the multiset of rows seen
/// — not batching, ordering, or worker count.
#[derive(Debug)]
pub struct IdentifyEngine {
    workers: usize,
    /// Maintain the fqdn → verdict map. The streaming row path needs it
    /// to route rows and dedupe verdicts; aggregate-fed batch engines
    /// see each fqdn exactly once and skip it (one key clone + map
    /// insert per fqdn, which dominates absorb cost at PDNS scale).
    lookup: bool,
    class: HashMap<Fqdn, Class>,
    states: Vec<FnState>,
    unmatched: u64,
    total_requests: u64,
}

impl IdentifyEngine {
    pub fn new() -> Self {
        Self::with_workers(default_workers())
    }

    pub fn with_workers(workers: usize) -> Self {
        IdentifyEngine {
            workers: workers.max(1),
            lookup: true,
            class: HashMap::new(),
            states: Vec::new(),
            unmatched: 0,
            total_requests: 0,
        }
    }

    /// Batch-mode engine for aggregate-fed pipelines: skips the
    /// fqdn → verdict lookup map, so [`provider_of`](Self::provider_of)
    /// always returns `None` and [`apply_rows`](Self::apply_rows) must
    /// not be used. Reports are identical to a tracking engine fed the
    /// same aggregates.
    pub fn batch(workers: usize) -> Self {
        IdentifyEngine {
            lookup: false,
            ..Self::with_workers(workers)
        }
    }

    /// Fold one batch of rows into the engine and return the verdict
    /// deltas, deterministically ordered: `Identified`/`Unmatched` for
    /// first-seen fqdns sorted by fqdn, then one `Evidence` per touched
    /// identified function, sorted by fqdn. Row order *within* the
    /// batch never affects the deltas or the final state.
    pub fn apply_rows(&mut self, rows: &[PdnsRow]) -> Vec<VerdictChange> {
        self.apply_rows_routed(rows, |_, _| {})
    }

    /// [`apply_rows`](Self::apply_rows) that also hands each row of an
    /// identified function, with its provider, to `route`, in batch
    /// order, from the loop that absorbs the row. A row's fqdn is
    /// looked up once; only the rows of fqdns first seen in this batch
    /// are looked up again, once their verdicts are in.
    pub fn apply_rows_routed(
        &mut self,
        rows: &[PdnsRow],
        mut route: impl FnMut(&PdnsRow, ProviderId),
    ) -> Vec<VerdictChange> {
        assert!(
            self.lookup,
            "apply_rows needs the verdict map; use a tracking engine, not IdentifyEngine::batch"
        );
        let known: Vec<Option<Class>> = rows
            .iter()
            .map(|r| self.class.get(&r.fqdn).copied())
            .collect();
        // New fqdns this batch, sorted so verdict deltas (and state
        // indices) are independent of row order.
        let mut fresh: Vec<&Fqdn> = rows
            .iter()
            .zip(&known)
            .filter(|(_, class)| class.is_none())
            .map(|(r, _)| &r.fqdn)
            .collect();
        fresh.sort_unstable();
        fresh.dedup();

        let verdicts: Vec<Option<(ProviderId, Option<String>)>> =
            if fresh.len() >= PAR_CLASSIFY_MIN && self.workers > 1 {
                par_map(&fresh, self.workers, "identify/verdicts", None, |_, f| {
                    classify(f)
                })
            } else {
                fresh.iter().map(|f| classify(f)).collect()
            };

        let mut changes = Vec::new();
        for (fqdn, verdict) in fresh.into_iter().zip(verdicts) {
            match verdict {
                Some((provider, region)) => {
                    let idx = self.states.len() as u32;
                    self.states
                        .push(FnState::new(fqdn.clone(), provider, region.clone()));
                    self.class.insert(fqdn.clone(), Class::Function(idx));
                    changes.push(VerdictChange::Identified {
                        fqdn: fqdn.clone(),
                        provider,
                        region,
                    });
                }
                None => {
                    self.class.insert(fqdn.clone(), Class::Noise);
                    self.unmatched += 1;
                    changes.push(VerdictChange::Unmatched { fqdn: fqdn.clone() });
                }
            }
        }

        let mut touched: Vec<u32> = Vec::new();
        for (row, class) in rows.iter().zip(known) {
            let class = class.unwrap_or_else(|| {
                *self
                    .class
                    .get(&row.fqdn)
                    .expect("every first-seen fqdn was classified above")
            });
            if let Class::Function(idx) = class {
                let state = &mut self.states[idx as usize];
                state.absorb_row(row);
                self.total_requests += row.cnt;
                touched.push(idx);
                route(row, state.provider);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        // Indices are engine-lifetime insertion order; deltas sort by
        // fqdn so consumers see a batching-independent order.
        touched.sort_by(|a, b| {
            self.states[*a as usize]
                .fqdn
                .cmp(&self.states[*b as usize].fqdn)
        });
        for idx in touched {
            let st = &self.states[idx as usize];
            changes.push(VerdictChange::Evidence {
                fqdn: st.fqdn.clone(),
                provider: st.provider,
                total_requests: st.total,
                days_count: st.days_count,
                first_seen: st.first,
                last_seen: st.last,
            });
        }
        changes
    }

    /// Absorb one aggregate whose verdict was already computed (via
    /// [`classify_fqdn`]) at the scan site. The batch fold's entry
    /// point: each fold classifies an fqdn once, routes its rows with
    /// the verdict and feeds the `(aggregate, verdict)` pair here, so
    /// classification cost is paid exactly once. Final state is
    /// independent of the order folds land in — `into_report` sorts by
    /// fqdn and the unmatched/total counters are commutative sums.
    pub fn absorb_classified(
        &mut self,
        agg: FqdnAggregate,
        verdict: Option<(ProviderId, Option<String>)>,
    ) {
        match verdict {
            Some((provider, region)) => {
                let idx = self.states.len() as u32;
                self.total_requests += agg.total_request_cnt;
                if self.lookup {
                    self.class.insert(agg.fqdn.clone(), Class::Function(idx));
                }
                self.states
                    .push(FnState::from_aggregate(agg, provider, region));
            }
            None => {
                if self.lookup {
                    self.class.insert(agg.fqdn.clone(), Class::Noise);
                }
                self.unmatched += 1;
            }
        }
    }

    /// Provider of an already-identified fqdn (`None` for noise or
    /// never-seen fqdns). O(1); the daemon uses this to route usage
    /// rows without waiting on the delta stream.
    pub fn provider_of(&self, fqdn: &Fqdn) -> Option<ProviderId> {
        match self.class.get(fqdn) {
            Some(Class::Function(idx)) => Some(self.states[*idx as usize].provider),
            _ => None,
        }
    }

    /// Identified functions so far.
    pub fn function_count(&self) -> usize {
        self.states.len()
    }

    /// Distinct non-matching fqdns so far.
    pub fn unmatched_count(&self) -> u64 {
        self.unmatched
    }

    /// Total requests across identified functions so far.
    pub fn total_requests(&self) -> u64 {
        self.total_requests
    }

    /// Consume the engine into its final report.
    pub fn into_report(self) -> IdentificationReport {
        let unmatched = self.unmatched;
        let total_requests = self.total_requests;
        // Order indices, not states: each ~150-byte function record is
        // then moved into place exactly once. Aggregate-fed engines see
        // one fqdn-sorted run per scanned shard, so detecting the run
        // boundaries and k-way merging costs O(n log k) comparisons
        // instead of a full O(n log n) sort; a row-fed engine's states
        // degrade to many short runs and the merge becomes the sort.
        // Fqdns are unique keys, so no tie-breaking is ever needed.
        let n = self.states.len();
        let mut runs: Vec<(usize, usize)> = Vec::new();
        let mut run_start = 0;
        for i in 1..=n {
            if i == n || self.states[i].fqdn < self.states[i - 1].fqdn {
                runs.push((run_start, i));
                run_start = i;
            }
        }
        let mut order: Vec<u32> = Vec::with_capacity(n);
        if runs.len() <= 1 {
            order.extend(0..n as u32);
        } else {
            use std::cmp::Reverse;
            use std::collections::BinaryHeap;
            let mut cursor: Vec<usize> = runs.iter().map(|&(s, _)| s).collect();
            let mut heap: BinaryHeap<Reverse<(&Fqdn, usize)>> = runs
                .iter()
                .enumerate()
                .map(|(r, &(s, _))| Reverse((&self.states[s].fqdn, r)))
                .collect();
            while let Some(Reverse((_, r))) = heap.pop() {
                order.push(cursor[r] as u32);
                cursor[r] += 1;
                if cursor[r] < runs[r].1 {
                    heap.push(Reverse((&self.states[cursor[r]].fqdn, r)));
                }
            }
        }
        let mut slots: Vec<Option<FnState>> = self.states.into_iter().map(Some).collect();
        let functions: Vec<IdentifiedFunction> = order
            .into_iter()
            .map(|i| slots[i as usize].take().expect("each index appears once"))
            .map(FnState::into_identified)
            .collect();
        IdentificationReport {
            functions,
            unmatched,
            total_requests,
        }
    }
}

impl Default for IdentifyEngine {
    fn default() -> Self {
        Self::new()
    }
}

/// Scan a PDNS backend and identify all serverless function domains:
/// the identification report of the batch fold ([`measure`]). Functions
/// come sorted by fqdn and their aggregates pass through verbatim.
pub fn identify_functions<B: PdnsBackend + ?Sized>(pdns: &B) -> IdentificationReport {
    measure(pdns, default_workers(), None).0.identification
}

/// Ablation (DESIGN.md §5.4): identification precision of suffix-only
/// matching vs. the full expressions. Returns `(full_matches,
/// suffix_only_matches)` — the gap is the false-positive surface the
/// Table 1 expressions eliminate.
pub fn suffix_only_ablation<B: PdnsBackend + ?Sized>(pdns: &B) -> (u64, u64) {
    let mut full = 0u64;
    let mut suffix_only = 0u64;
    pdns.for_each_fqdn(&mut |fqdn| {
        if identify(fqdn).is_some() {
            full += 1;
        }
        if format_by_suffix(fqdn).is_some() {
            suffix_only += 1;
        }
    });
    (full, suffix_only)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_dns::pdns::PdnsStore;
    use fw_types::{DayStamp, Rdata};
    use std::net::Ipv4Addr;

    fn store_with(domains: &[(&str, u64)]) -> PdnsStore {
        let mut s = PdnsStore::new();
        let ip = Rdata::V4(Ipv4Addr::new(203, 0, 113, 1));
        for (d, cnt) in domains {
            s.observe_count(&Fqdn::parse(d).unwrap(), &ip, DayStamp(19_100), *cnt);
        }
        s
    }

    #[test]
    fn identifies_provider_domains_and_skips_noise() {
        let s = store_with(&[
            ("1300000001-abcde12345-ap-guangzhou.scf.tencentcs.com", 10),
            ("myfn-a1b2c3d4e5-uc.a.run.app", 7),
            ("x2h5k7m9p1q3.lambda-url.us-east-1.on.aws", 3),
            ("www.example.com", 100),
            ("mail.google.com", 50),
        ]);
        let report = identify_functions(&s);
        assert_eq!(report.functions.len(), 3);
        assert_eq!(report.unmatched, 2);
        assert_eq!(report.total_requests, 20);
        let per = report.domains_per_provider();
        assert_eq!(per[&ProviderId::Tencent], 1);
        assert_eq!(per[&ProviderId::Google2], 1);
        assert_eq!(per[&ProviderId::Aws], 1);
    }

    #[test]
    fn regions_extracted() {
        let s = store_with(&[("1300000001-abcde12345-ap-guangzhou.scf.tencentcs.com", 1)]);
        let report = identify_functions(&s);
        assert_eq!(report.functions[0].region.as_deref(), Some("ap-guangzhou"));
    }

    #[test]
    fn azure_like_domains_are_not_identified() {
        // Azure is excluded from collection (§3.2): its suffix collides
        // with ordinary web apps.
        let s = store_with(&[("random-blog.azurewebsites.net", 5)]);
        let report = identify_functions(&s);
        assert!(report.functions.is_empty());
        assert_eq!(report.unmatched, 1);
    }

    #[test]
    fn probe_scope_excludes_path_identified() {
        let s = store_with(&[
            ("us-central1-proj.cloudfunctions.net", 9), // Google 1st gen
            ("myfn-a1b2c3d4e5-uc.a.run.app", 7),        // Google2
        ]);
        let report = identify_functions(&s);
        assert_eq!(report.functions.len(), 2);
        let scope = report.probe_scope();
        assert_eq!(scope.len(), 1);
        assert!(scope[0].as_str().ends_with("a.run.app"));
    }

    #[test]
    fn suffix_ablation_shows_precision_gap() {
        let s = store_with(&[
            // Valid function.
            ("1300000001-abcde12345-ap-guangzhou.scf.tencentcs.com", 1),
            // Suffix matches, expression rejects (malformed prefix).
            ("www.scf.tencentcs.com", 1),
            ("something.on.aws", 1),
        ]);
        let (full, suffix_only) = suffix_only_ablation(&s);
        assert_eq!(full, 1);
        assert_eq!(suffix_only, 3);
    }

    #[test]
    fn worker_count_invariant() {
        let s = store_with(&[
            ("1300000001-abcde12345-ap-guangzhou.scf.tencentcs.com", 10),
            ("myfn-a1b2c3d4e5-uc.a.run.app", 7),
            ("x2h5k7m9p1q3.lambda-url.us-east-1.on.aws", 3),
            ("www.example.com", 100),
        ]);
        let base = measure(&s, 1, None).0.identification;
        for workers in [3, 8] {
            let got = measure(&s, workers, None).0.identification;
            assert_eq!(got.unmatched, base.unmatched);
            assert_eq!(got.total_requests, base.total_requests);
            assert_eq!(got.functions.len(), base.functions.len());
            for (a, b) in got.functions.iter().zip(&base.functions) {
                assert_eq!(a.fqdn, b.fqdn);
                assert_eq!(a.provider, b.provider);
                assert_eq!(a.region, b.region);
                assert_eq!(a.agg, b.agg);
            }
        }
    }

    fn rows_of(s: &PdnsStore) -> Vec<PdnsRow> {
        let mut rows = Vec::new();
        s.for_each_row(|fqdn, _rtype, rdata, day, cnt| {
            rows.push(PdnsRow {
                fqdn: fqdn.clone(),
                rdata: rdata.clone(),
                day,
                cnt,
            });
        });
        rows.sort_by(|a, b| (a.day, &a.fqdn).cmp(&(b.day, &b.fqdn)));
        rows
    }

    #[test]
    fn engine_rows_match_batch_sweep() {
        let mut s = store_with(&[
            ("1300000001-abcde12345-ap-guangzhou.scf.tencentcs.com", 10),
            ("myfn-a1b2c3d4e5-uc.a.run.app", 7),
            ("x2h5k7m9p1q3.lambda-url.us-east-1.on.aws", 3),
            ("www.example.com", 100),
        ]);
        // Second day + second rdata for one function so day/rdata sets
        // actually accumulate across batches.
        let g2 = Fqdn::parse("myfn-a1b2c3d4e5-uc.a.run.app").unwrap();
        s.observe_count(
            &g2,
            &Rdata::V4(Ipv4Addr::new(203, 0, 113, 9)),
            DayStamp(19_101),
            5,
        );
        let batch_report = identify_functions(&s);

        let rows = rows_of(&s);
        // One batch, and row-by-row batches, must both converge on the
        // batch fold's exact report.
        for batch_size in [rows.len(), 1] {
            let mut engine = IdentifyEngine::with_workers(1);
            for chunk in rows.chunks(batch_size.max(1)) {
                engine.apply_rows(chunk);
            }
            let streamed = engine.into_report();
            assert_eq!(streamed.unmatched, batch_report.unmatched);
            assert_eq!(streamed.total_requests, batch_report.total_requests);
            assert_eq!(streamed.functions.len(), batch_report.functions.len());
            for (a, b) in streamed.functions.iter().zip(&batch_report.functions) {
                assert_eq!(a.fqdn, b.fqdn);
                assert_eq!(a.provider, b.provider);
                assert_eq!(a.region, b.region);
                assert_eq!(a.agg, b.agg);
            }
        }
    }

    #[test]
    fn engine_deltas_fire_once_and_in_fqdn_order() {
        let s = store_with(&[
            ("myfn-a1b2c3d4e5-uc.a.run.app", 7),
            ("x2h5k7m9p1q3.lambda-url.us-east-1.on.aws", 3),
            ("www.example.com", 100),
        ]);
        let rows = rows_of(&s);
        let mut engine = IdentifyEngine::with_workers(1);
        let first = engine.apply_rows(&rows);
        // 2 Identified + 1 Unmatched + 2 Evidence, fqdn-sorted within
        // each group.
        let identified: Vec<_> = first
            .iter()
            .filter_map(|c| match c {
                VerdictChange::Identified { fqdn, .. } => Some(fqdn.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(identified.len(), 2);
        assert!(identified[0] < identified[1]);
        assert_eq!(
            first
                .iter()
                .filter(|c| matches!(c, VerdictChange::Unmatched { .. }))
                .count(),
            1
        );
        let evidence: Vec<_> = first
            .iter()
            .filter_map(|c| match c {
                VerdictChange::Evidence { fqdn, .. } => Some(fqdn.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(evidence, identified);

        // Replaying the same fqdns: no new verdicts, only evidence.
        let again = engine.apply_rows(&rows);
        assert!(again
            .iter()
            .all(|c| matches!(c, VerdictChange::Evidence { .. })));
        let ev = again
            .iter()
            .find_map(|c| match c {
                VerdictChange::Evidence {
                    fqdn,
                    total_requests,
                    ..
                } if fqdn.as_str().ends_with("a.run.app") => Some(*total_requests),
                _ => None,
            })
            .unwrap();
        assert_eq!(ev, 14, "evidence carries cumulative totals");
    }

    /// The routed rows are exactly the rows `provider_of` would route
    /// after the batch, in batch order, and routing leaves the deltas
    /// as they are, for fqdns first seen in the batch and known ones.
    #[test]
    fn routed_rows_match_provider_of_after_the_batch() {
        let mut s = store_with(&[
            ("1300000001-abcde12345-ap-guangzhou.scf.tencentcs.com", 10),
            ("myfn-a1b2c3d4e5-uc.a.run.app", 7),
            ("x2h5k7m9p1q3.lambda-url.us-east-1.on.aws", 3),
            ("www.example.com", 100),
        ]);
        let g2 = Fqdn::parse("myfn-a1b2c3d4e5-uc.a.run.app").unwrap();
        for day in 19_101..19_104 {
            s.observe_count(
                &g2,
                &Rdata::V4(Ipv4Addr::new(203, 0, 113, 9)),
                DayStamp(day),
                2,
            );
        }
        let rows = rows_of(&s);
        let mut routed_engine = IdentifyEngine::with_workers(1);
        let mut plain_engine = IdentifyEngine::with_workers(1);
        let mut total_routed = 0;
        for chunk in rows.chunks(3) {
            let mut routed = Vec::new();
            let with_routing =
                routed_engine.apply_rows_routed(chunk, |row, p| routed.push((row.clone(), p)));
            assert_eq!(with_routing, plain_engine.apply_rows(chunk));
            let expected: Vec<(PdnsRow, ProviderId)> = chunk
                .iter()
                .filter_map(|r| plain_engine.provider_of(&r.fqdn).map(|p| (r.clone(), p)))
                .collect();
            assert_eq!(routed, expected);
            total_routed += routed.len();
        }
        assert_eq!(total_routed, rows.len() - 1, "every row but the noise row");
    }

    #[test]
    fn deterministic_ordering() {
        let s = store_with(&[
            ("zzz-a1b2c3d4e5-uc.a.run.app", 1),
            ("aaa-a1b2c3d4e5-uc.a.run.app", 1),
        ]);
        let report = identify_functions(&s);
        assert!(report.functions[0].fqdn < report.functions[1].fqdn);
    }
}
