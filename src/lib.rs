//! # faaswild
//!
//! A from-scratch Rust reproduction of *"Dive into the Cloud: Unveiling the
//! (Ab)Usage of Serverless Cloud Function in the Wild"* (IMC 2025).
//!
//! This umbrella crate re-exports every subsystem of the workspace so that
//! examples and downstream users can depend on a single crate:
//!
//! * [`types`] — shared vocabulary (providers, day stamps, domains, records)
//! * [`pattern`] — the regex-lite engine behind Table 1's domain expressions
//! * [`dns`] — authority zones, the caching resolver and the PDNS store
//! * [`net`] — in-memory simulated internet with fault injection
//! * [`http`] — from-scratch HTTP/1.1 model, parser, client and server
//! * [`cloud`] — the serverless platform simulator (nine providers)
//! * [`analysis`] — TF-IDF, clustering and statistics
//! * [`abuse`] — sensitive-data scanning, C2 fingerprints, abuse detectors
//! * [`probe`] — the active prober (paper §3.3)
//! * [`workload`] — the calibrated synthetic-world generator
//! * [`core`] — the end-to-end measurement pipeline (paper §3–§5)
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the substitution
//! table mapping each proprietary input of the paper onto the simulator
//! built here.

pub use fw_abuse as abuse;
pub use fw_analysis as analysis;
pub use fw_cloud as cloud;
pub use fw_core as core;
pub use fw_dns as dns;
pub use fw_http as http;
pub use fw_net as net;
pub use fw_pattern as pattern;
pub use fw_probe as probe;
pub use fw_types as types;
pub use fw_workload as workload;
