//! The sensing daemon: incremental identify/usage state with an
//! explicit watermark (DESIGN.md §14).
//!
//! One [`StreamDaemon`] owns the four pieces of always-on state:
//!
//! 1. an [`IdentifyEngine`] fed row deltas (verdicts + cumulative
//!    §3.2 aggregates),
//! 2. a [`UsageState`] accumulating the §4 monthly/ingress tables for
//!    rows the engine routes to identified functions,
//! 3. the backing [`PdnsBackend`] (any implementation — the in-memory
//!    store by default, the persistent `fw-store` engine for a durable
//!    deployment), absorbing every row so the daemon can serve batch
//!    sweeps and snapshots at any time,
//! 4. a [`CandidateScorer`] re-scoring abuse candidates on each
//!    batch's evidence.
//!
//! The watermark is the contract with the source: a batch stamped with
//! watermark day `D` promises no further rows for days before `D` will
//! follow. Rows *below* the current watermark are still applied —
//! every aggregate update commutes, so correctness never depends on
//! ordering — but they are counted (`fw.stream.late_rows`) as feed
//! disorder, which a production deployment would alert on.

use crate::checkpoint::Checkpoint;
use crate::score::{CandidateScorer, ScoreConfig};
use fw_core::identify::{IdentificationReport, IdentifyEngine, VerdictChange};
use fw_core::usage::{
    ingress_table_with, invocation_report, monthly_new_fqdns, monthly_requests_with, IngressRow,
    InvocationReport, MonthlySeries, UsageState,
};
use fw_dns::pdns::{PdnsBackend, PdnsRow, PdnsStore};
use fw_obs::{counter_add, counter_inc, histogram_record, trace_span_arg};
use fw_types::DayStamp;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Worker threads for per-batch classification (1 = inline).
    pub workers: usize,
    /// Source granularity: batches per virtual day (1 = daily,
    /// 4 = 6-hourly, 24 = hourly).
    pub batches_per_day: u32,
    pub score: ScoreConfig,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            workers: fw_analysis::par::default_workers(),
            batches_per_day: 1,
            score: ScoreConfig::default(),
        }
    }
}

/// Outcome of one applied batch.
#[derive(Debug, Clone)]
pub struct BatchSummary {
    /// Verdict deltas the batch produced (fqdn-sorted per group; see
    /// [`IdentifyEngine::apply_rows`]).
    pub changes: Vec<VerdictChange>,
    /// Functions newly flagged as abuse candidates.
    pub newly_flagged: u64,
    /// Rows below the pre-batch watermark.
    pub late_rows: u64,
}

/// Final materialized state of a finished daemon — field-for-field the
/// shape of a batch `Pipeline::run_usage`, plus the streaming-only
/// outputs (detections, checkpoint, the absorbed store).
#[derive(Debug)]
pub struct DaemonFinal<B> {
    pub report: IdentificationReport,
    pub new_fqdns: MonthlySeries,
    pub request_series: MonthlySeries,
    pub ingress: Vec<IngressRow>,
    pub invocation: InvocationReport,
    pub detections: Vec<crate::score::Detection>,
    pub checkpoint: Checkpoint,
    pub store: B,
}

/// Long-lived incremental sensing state over any PDNS backend.
pub struct StreamDaemon<B: PdnsBackend = PdnsStore> {
    engine: IdentifyEngine,
    usage: UsageState,
    store: B,
    scorer: CandidateScorer,
    watermark_day: Option<DayStamp>,
    batches: u64,
    rows: u64,
    late_rows: u64,
}

impl StreamDaemon<PdnsStore> {
    /// Daemon over a fresh in-memory store.
    pub fn new(config: &StreamConfig) -> Self {
        Self::with_store(config, PdnsStore::new())
    }
}

impl<B: PdnsBackend> StreamDaemon<B> {
    /// Daemon absorbing rows into a caller-provided backend (e.g. a
    /// persistent `fw-store` `DiskStore`).
    pub fn with_store(config: &StreamConfig, store: B) -> Self {
        StreamDaemon {
            engine: IdentifyEngine::with_workers(config.workers),
            usage: UsageState::new(),
            store,
            scorer: CandidateScorer::new(config.score),
            watermark_day: None,
            batches: 0,
            rows: 0,
            late_rows: 0,
        }
    }

    /// Fold one batch in, stamped with its virtual arrival time.
    ///
    /// `watermark_day` is the day this batch closes; it must be
    /// non-decreasing across calls (the source contract). Rows are
    /// applied in one pass each to the backing store, the identify
    /// engine, and — for rows of identified functions — the usage
    /// state; the batch's verdict deltas then drive the candidate
    /// scorer.
    pub fn apply_batch(
        &mut self,
        watermark_day: DayStamp,
        rows: &[PdnsRow],
        now_us: u64,
    ) -> BatchSummary {
        let _span = trace_span_arg("stream/batch", self.batches);
        if self
            .watermark_day
            .map(|w| watermark_day.0 > w.0)
            .unwrap_or(true)
        {
            // A new epoch: the watermark advanced.
            fw_obs::trace_instant("stream/epoch", watermark_day.0 as u64);
            counter_inc!("fw.stream.epochs");
        }
        let late = self
            .watermark_day
            .map(|w| rows.iter().filter(|r| r.day < w).count() as u64)
            .unwrap_or(0);

        for row in rows {
            self.store
                .observe_count(&row.fqdn, &row.rdata, row.day, row.cnt);
        }
        let changes = self.engine.apply_rows(rows);
        for row in rows {
            if let Some(provider) = self.engine.provider_of(&row.fqdn) {
                self.usage
                    .apply(provider, row.rdata.rtype(), &row.rdata, row.day, row.cnt);
            }
        }
        let newly_flagged = self.scorer.observe(&changes, now_us);

        self.watermark_day = Some(match self.watermark_day {
            Some(w) => DayStamp(w.0.max(watermark_day.0)),
            None => watermark_day,
        });
        self.batches += 1;
        self.rows += rows.len() as u64;
        self.late_rows += late;

        counter_inc!("fw.stream.batches");
        counter_add!("fw.stream.rows", rows.len() as u64);
        counter_add!("fw.stream.late_rows", late);
        counter_add!(
            "fw.stream.verdicts",
            changes
                .iter()
                .filter(|c| {
                    matches!(
                        c,
                        VerdictChange::Identified { .. } | VerdictChange::Unmatched { .. }
                    )
                })
                .count() as u64
        );
        counter_add!("fw.stream.candidates", newly_flagged);
        histogram_record!("fw.stream.batch_rows", rows.len() as u64);

        BatchSummary {
            changes,
            newly_flagged,
            late_rows: late,
        }
    }

    /// Current progress summary.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            watermark_day: self.watermark_day,
            batches: self.batches,
            rows: self.rows,
            late_rows: self.late_rows,
            identified: self.engine.function_count() as u64,
            unmatched: self.engine.unmatched_count(),
            total_requests: self.engine.total_requests(),
            candidates: self.scorer.candidate_count(),
        }
    }

    /// Read access to the absorbed backend.
    pub fn store(&self) -> &B {
        &self.store
    }

    /// Consume the daemon into its final materialized reports. The
    /// identification report and the §4 tables come straight out of
    /// the incremental state — no sweep over the store — yet match a
    /// batch sweep byte-for-byte (see [`crate::equiv`]).
    pub fn finish(self) -> DaemonFinal<B> {
        let checkpoint = self.checkpoint();
        let report = self.engine.into_report();
        let request_series = self.usage.monthly_series();
        let ingress = self.usage.ingress_rows(&report);
        DaemonFinal {
            new_fqdns: monthly_new_fqdns(&report),
            invocation: invocation_report(&report),
            request_series,
            ingress,
            detections: self.scorer.into_detections(),
            checkpoint,
            store: self.store,
            report,
        }
    }

    /// Materialize the §4 tables by sweeping the backing store with
    /// the *batch* code path (provided-method sweeps over aggregates).
    /// Only used by tests/tools to cross-check the incremental state;
    /// the daemon itself never re-sweeps.
    pub fn sweep_usage(&self, workers: usize) -> (MonthlySeries, Vec<IngressRow>) {
        let report = self.engine.report();
        (
            monthly_requests_with(&report, &self.store, workers),
            ingress_table_with(&report, &self.store, workers),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_types::{Fqdn, Rdata};
    use std::net::Ipv4Addr;

    fn row(fqdn: &str, last: u8, day: i64, cnt: u64) -> PdnsRow {
        PdnsRow {
            fqdn: Fqdn::parse(fqdn).unwrap(),
            rdata: Rdata::V4(Ipv4Addr::new(198, 51, 100, last)),
            day: DayStamp(day),
            cnt,
        }
    }

    #[test]
    fn watermark_advances_and_late_rows_count() {
        let mut d = StreamDaemon::new(&StreamConfig {
            workers: 1,
            ..StreamConfig::default()
        });
        assert_eq!(d.checkpoint().watermark_day, None);
        d.apply_batch(
            DayStamp(19_100),
            &[row(
                "a1b2c3d4e5f6.lambda-url.us-east-1.on.aws",
                1,
                19_100,
                4,
            )],
            0,
        );
        assert_eq!(d.checkpoint().watermark_day, Some(DayStamp(19_100)));
        // A batch with one on-time and one late row.
        let summary = d.apply_batch(
            DayStamp(19_101),
            &[
                row("a1b2c3d4e5f6.lambda-url.us-east-1.on.aws", 1, 19_101, 2),
                row("a1b2c3d4e5f6.lambda-url.us-east-1.on.aws", 2, 19_099, 1),
            ],
            DAY_US_TEST,
        );
        assert_eq!(summary.late_rows, 1);
        let cp = d.checkpoint();
        assert_eq!(cp.watermark_day, Some(DayStamp(19_101)));
        assert_eq!(cp.batches, 2);
        assert_eq!(cp.rows, 3);
        assert_eq!(cp.late_rows, 1);
        assert_eq!(cp.identified, 1);
        assert_eq!(cp.total_requests, 7);
        // Late row was applied anyway: first_seen reflects day 19_099.
        let fin = d.finish();
        assert_eq!(fin.report.functions.len(), 1);
        assert_eq!(fin.report.functions[0].agg.first_seen_all, DayStamp(19_099));
        assert_eq!(fin.report.functions[0].agg.days_count, 3);
        assert_eq!(fin.checkpoint.rows, 3);
        assert_eq!(fin.store.record_count(), 3);
    }

    const DAY_US_TEST: u64 = crate::source::DAY_US;

    #[test]
    fn incremental_usage_matches_store_sweep() {
        let rows = [
            row("a1b2c3d4e5f6.lambda-url.us-east-1.on.aws", 1, 19_100, 4),
            row("myfn-a1b2c3d4e5-uc.a.run.app", 2, 19_130, 60),
            row("myfn-a1b2c3d4e5-uc.a.run.app", 3, 19_160, 60),
            row("www.example.com", 4, 19_100, 99),
        ];
        let mut d = StreamDaemon::new(&StreamConfig {
            workers: 1,
            ..StreamConfig::default()
        });
        for (i, r) in rows.iter().enumerate() {
            d.apply_batch(r.day, std::slice::from_ref(r), i as u64 * DAY_US_TEST);
        }
        let (swept_months, swept_ingress) = d.sweep_usage(1);
        let fin = d.finish();
        assert_eq!(fin.request_series, swept_months);
        assert_eq!(fin.ingress, swept_ingress);
        assert_eq!(fin.report.unmatched, 1);
    }
}
