//! The sensing daemon: a [`Measurement`] plus a store and an explicit
//! watermark (DESIGN.md §14).
//!
//! A [`StreamDaemon`] adds to the measurement state only what a
//! long-lived process needs:
//!
//! 1. the backing [`PdnsBackend`] (any implementation — the in-memory
//!    store by default, the persistent `fw-store` engine for a durable
//!    deployment), absorbing every row before the measurement sees it,
//! 2. the watermark and its batch/row/late-row counters, reported as a
//!    [`Checkpoint`],
//! 3. the `fw.stream.*` counters and the per-batch trace span.
//!
//! The watermark is the contract with the source: a batch stamped with
//! watermark day `D` promises no further rows for days before `D` will
//! follow. Rows *below* the current watermark are still applied —
//! every aggregate update commutes, so correctness never depends on
//! ordering — but they are counted (`fw.stream.late_rows`) as feed
//! disorder, which a production deployment would alert on.

use crate::checkpoint::Checkpoint;
use crate::measurement::Measurement;
use crate::score::ScoreConfig;
use fw_core::identify::IdentificationReport;
use fw_core::usage::{IngressRow, InvocationReport, MonthlySeries};
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
    measurement: Measurement,
    store: B,
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
            measurement: Measurement::new(config.workers, config.score),
            store,
            watermark_day: None,
            batches: 0,
            rows: 0,
            late_rows: 0,
        }
    }

    /// Fold one batch in, stamped with its virtual arrival time.
    ///
    /// `watermark_day` is the day this batch closes; it must be
    /// non-decreasing across calls (the source contract). Rows go to
    /// the backing store, then through [`Measurement::apply`].
    pub fn apply_batch(&mut self, watermark_day: DayStamp, rows: &[PdnsRow], now_us: u64) {
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
        let before = self.measurement.checkpoint();
        self.measurement.apply(rows, now_us);
        let after = self.measurement.checkpoint();

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
        // Each first-seen fqdn gets exactly one verdict.
        counter_add!(
            "fw.stream.verdicts",
            (after.identified + after.unmatched) - (before.identified + before.unmatched)
        );
        counter_add!("fw.stream.candidates", after.candidates - before.candidates);
        histogram_record!("fw.stream.batch_rows", rows.len() as u64);
    }

    /// Current progress summary.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            watermark_day: self.watermark_day,
            batches: self.batches,
            rows: self.rows,
            late_rows: self.late_rows,
            ..self.measurement.checkpoint()
        }
    }

    /// Consume the daemon into its final materialized reports, straight
    /// out of [`Measurement::finish`].
    pub fn finish(self) -> DaemonFinal<B> {
        let checkpoint = self.checkpoint();
        let (usage, detections) = self.measurement.finish();
        DaemonFinal {
            report: usage.identification,
            new_fqdns: usage.new_fqdns,
            request_series: usage.request_series,
            ingress: usage.ingress,
            invocation: usage.invocation,
            detections,
            checkpoint,
            store: self.store,
        }
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
        d.apply_batch(
            DayStamp(19_101),
            &[
                row("a1b2c3d4e5f6.lambda-url.us-east-1.on.aws", 1, 19_101, 2),
                row("a1b2c3d4e5f6.lambda-url.us-east-1.on.aws", 2, 19_099, 1),
            ],
            DAY_US_TEST,
        );
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
        let fin = d.finish();
        crate::check_equivalence(&fin, &fin.store, 1).unwrap();
        assert_eq!(fin.report.unmatched, 1);
    }
}
