//! # fw-workload
//!
//! The calibrated synthetic-world generator — the substitute for the
//! paper's proprietary inputs (the 114DNS passive-DNS feed and the live
//! population of cloud functions on nine commercial providers).
//!
//! [`World::generate`] builds, from a seed and a scale factor:
//!
//! * a simulated internet (`fw-net`) with the nine providers' ingress
//!   deployed on it (`fw-cloud`), live functions included,
//! * a passive-DNS store (`fw-dns::pdns`) holding two years of
//!   daily-aggregated resolution records whose marginals are calibrated
//!   to every number the paper reports (see [`calib`] for the citations),
//! * ground-truth metadata per function ([`WorldFunction`]) so
//!   experiments can score the pipeline's precision/recall — the pipeline
//!   itself never reads the ground truth.
//!
//! [`World::generate_into`] samples the same world but streams its PDNS
//! rows into an `fw-store` `DiskStore` instead of an in-memory store.
//! Both writers of a sealed segment store run on it: the fused pipeline
//! seals and scans the store shard by shard, and [`write_snapshot`]
//! seals it whole as a snapshot the figure binaries replay
//! (`--snapshot <dir>`).

pub mod calib;
mod gen;
pub mod snapshot;

pub use gen::{AbuseCase, BenignClass, FusedWorld, Truth, World, WorldConfig, WorldFunction};
pub use snapshot::{pdns_content_hash, row_key_hash, write_snapshot, SnapshotMeta, SnapshotStats};
