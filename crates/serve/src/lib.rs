//! The serving layer (DESIGN.md §15): an HTTP/1.1 query API over any
//! [`fw_dns::pdns::PdnsBackend`], pointed *inward* at the measurement
//! state the pipeline produces.
//!
//! The pipeline's batch binaries answer one question per run; this
//! crate turns the same state into an always-up read path:
//!
//! * [`state::ServeState`] — the queryable snapshot: the output of the
//!   store's rows folded through the sensing daemon's
//!   [`fw_stream::Measurement`], frozen behind point-lookup indexes
//!   and pre-rendered figure documents. Every response body is written
//!   in one pass straight into its `String` through
//!   [`fw_types::json`]'s writer, with no `Json` value tree;
//! * [`api::ServeApi`] — request routing over `fw-http`, fronted by a
//!   sharded in-memory LRU ([`cache::ShardedCache`]) keyed on the
//!   request target, with per-endpoint latency histograms and trace
//!   spans;
//! * [`load`] — a SimNet load harness driving millions of keep-alive
//!   virtual clients with deterministic per-client RNG streams, so a
//!   whole load run is byte-reproducible (every client's response byte
//!   stream is FNV-digested and the digests combine commutatively).
//!
//! fw-bench's `fw_serve_gate` ties the three together into the CI
//! serving gate (`BENCH_serve.json`).

pub mod api;
pub mod cache;
pub mod load;
pub mod state;

pub use api::{Endpoint, ServeApi};
pub use cache::{CacheConfig, CacheStats, ShardedCache};
pub use load::{LoadConfig, LoadPlan, LoadReport};
pub use state::ServeState;
