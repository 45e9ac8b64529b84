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
//! - [`daemon`] holds the incremental state: an
//!   [`fw_core::IdentifyEngine`] fed row deltas, a
//!   [`fw_core::UsageState`] for the §4 tables, the backing
//!   [`PdnsBackend`](fw_dns::pdns::PdnsBackend), a watermark, and the
//!   abuse-candidate [`score::CandidateScorer`].
//! - [`replay`] drives a full run over `SimNet` in accelerated virtual
//!   time: a registered feeder thread sleeps the virtual clock to each
//!   batch's arrival offset while the daemon consumes frames on a
//!   listener thread — so "two years of telemetry" replays in seconds
//!   of wall time with deterministic virtual timestamps.
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
pub mod replay;
pub mod score;
pub mod source;
pub mod wire;

pub use checkpoint::Checkpoint;
pub use daemon::{BatchSummary, DaemonFinal, StreamConfig, StreamDaemon};
pub use equiv::check_equivalence;
pub use replay::{replay, replay_in_memory, ReplayResult};
pub use score::{CandidateScorer, Detection, ScoreConfig};
pub use source::{collect_rows, day_batches, Batch, DAY_US};
