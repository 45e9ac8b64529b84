//! # fw-stream
//!
//! The always-on sensing daemon (DESIGN.md §14). The paper's
//! measurement is a one-shot snapshot; this crate turns the same
//! pipeline into a long-lived process that ingests PDNS rows
//! continuously as time-ordered batches and keeps its verdicts
//! current as evidence arrives:
//!
//! - [`source`] slices a store's rows into per-virtual-day batches
//!   (optionally sub-day), each stamped with the watermark day it
//!   closes.
//! - [`wire`] is the length-delimited frame codec that carries batches
//!   over a [`fw_net::Connection`].
//! - [`measurement`] is the measurement itself, the workspace's one
//!   replay loop: a [`Measurement`] folds row batches through an
//!   [`fw_core::IdentifyEngine`] (verdicts), a [`fw_core::UsageState`]
//!   (the §4 tables) and the abuse-candidate
//!   [`score::CandidateScorer`], and finishes into the batch
//!   pipeline's [`fw_core::pipeline::UsageReport`] plus detections.
//!   The query API (`fw-serve`) freezes that output.
//! - [`daemon`] is a [`Measurement`] plus what only a daemon has: the
//!   backing [`PdnsBackend`](fw_dns::pdns::PdnsBackend), the watermark
//!   and its counters.
//! - [`replay`](mod@replay) drives a full run over `SimNet` in
//!   accelerated virtual time: a registered feeder thread sleeps the
//!   virtual clock to each batch's arrival offset while the daemon
//!   consumes frames on a listener thread — so "two years of
//!   telemetry" replays in seconds of wall time with deterministic
//!   virtual timestamps.
//! - [`equiv`] proves the point of the design: a daemon's final state
//!   is byte-identical to a batch pipeline sweep over the same rows,
//!   at any batch granularity and worker count.
//!
//! fw-bench's `fw_stream_gate` binary benchmarks the daemon (sustained
//! rows/s, detection-latency p50/p99 by abuse family) into
//! `BENCH_stream.json` and enforces the equivalence in CI.

pub mod checkpoint;
pub mod daemon;
pub mod equiv;
pub mod measurement;
pub mod replay;
pub mod score;
pub mod source;
pub mod wire;

pub use checkpoint::Checkpoint;
pub use daemon::{DaemonFinal, StreamConfig, StreamDaemon};
pub use equiv::check_equivalence;
pub use measurement::Measurement;
pub use replay::{replay, replay_in_memory, ReplayResult};
pub use score::{CandidateScorer, Detection, ScoreConfig};
pub use source::{collect_rows, day_batches, Batch, DAY_US};
