//! The measurement state: the paper's passive measurement as one fold
//! over PDNS rows (DESIGN.md §14).
//!
//! A [`Measurement`] owns the three pieces of incremental state that
//! turn rows into findings:
//!
//! 1. a tracking [`IdentifyEngine`] fed row deltas (§3.2 verdicts and
//!    cumulative per-function aggregates),
//! 2. a [`UsageState`] accumulating the §4 monthly/ingress tables for
//!    rows of identified functions,
//! 3. a [`CandidateScorer`] re-scoring §5 abuse candidates on each
//!    batch's verdict deltas.
//!
//! It is the only replay loop in the workspace. The sensing daemon
//! wraps one with a store and a watermark; the query API
//! (`fw_serve::ServeState`) folds a store's day batches through one
//! and freezes what [`finish`](Measurement::finish) yields.

use crate::checkpoint::Checkpoint;
use crate::score::{CandidateScorer, Detection, ScoreConfig};
use fw_core::identify::IdentifyEngine;
use fw_core::pipeline::UsageReport;
use fw_core::usage::{invocation_report, monthly_new_fqdns, UsageState};
use fw_dns::pdns::PdnsRow;

/// Incremental identify/usage/candidate state.
pub struct Measurement {
    engine: IdentifyEngine,
    usage: UsageState,
    scorer: CandidateScorer,
}

impl Measurement {
    /// Empty state classifying new fqdns on `workers` threads.
    pub fn new(workers: usize, score: ScoreConfig) -> Measurement {
        Measurement {
            engine: IdentifyEngine::with_workers(workers),
            usage: UsageState::new(),
            scorer: CandidateScorer::new(score),
        }
    }

    /// Fold one batch in, stamped with its virtual arrival time: the
    /// engine takes every row, the usage state the rows of identified
    /// functions, and the batch's verdict deltas drive the scorer. The
    /// engine routes each usage row from the lookup that absorbs it.
    pub fn apply(&mut self, rows: &[PdnsRow], now_us: u64) {
        let usage = &mut self.usage;
        let changes = self.engine.apply_rows_routed(rows, |row, provider| {
            usage.apply(provider, row.rdata.rtype(), &row.rdata, row.day, row.cnt)
        });
        self.scorer.observe(&changes, now_us);
    }

    /// The measurement's counts (identified, unmatched, total requests,
    /// candidates). The watermark and the batch/row counters belong to
    /// whoever feeds the rows and stay zero here.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            identified: self.engine.function_count() as u64,
            unmatched: self.engine.unmatched_count(),
            total_requests: self.engine.total_requests(),
            candidates: self.scorer.candidate_count(),
            ..Checkpoint::default()
        }
    }

    /// Consume the state into the batch pipeline's report shape plus
    /// the detections in flag order. Nothing re-sweeps a store, yet the
    /// report matches a batch sweep byte-for-byte (see [`crate::equiv`]).
    pub fn finish(self) -> (UsageReport, Vec<Detection>) {
        let identification = self.engine.into_report();
        let report = UsageReport {
            new_fqdns: monthly_new_fqdns(&identification),
            request_series: self.usage.monthly_series(),
            ingress: self.usage.ingress_rows(&identification),
            invocation: invocation_report(&identification),
            identification,
        };
        (report, self.scorer.into_detections())
    }
}
