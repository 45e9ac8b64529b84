//! # fw-core
//!
//! The paper's measurement pipeline, end to end:
//!
//! * [`identify`] — §3.2: filter passive-DNS fqdns through the Table 1
//!   domain expressions, aggregate per function, extract regions.
//! * [`fold`] — the batch measurement fold: one pass over a PDNS table
//!   that classifies each fqdn once, keeps its aggregate and routes an
//!   identified function's rows into the §4 usage state.
//! * [`usage`] — §4: monthly trends (Figures 3/4), ingress architecture
//!   (Table 2), invocation-frequency and lifespan distributions
//!   (Figure 5, §4.3).
//! * [`status`] — §4.4: active-probing outcome distribution (Figure 6).
//! * [`abusescan`] — §5: sensitive-data exclusion (Finding 5), content
//!   typing and clustering (§3.4), dual-rule review, C2 fingerprint scan,
//!   redirect/promo/proxy detection, threat-intel cross-check
//!   (Finding 10) — producing Table 3 and the Figure 7 series.
//! * [`pipeline`] — orchestration: run everything against a world's PDNS
//!   store and simulated network, yielding a [`pipeline::FullReport`].
//! * [`report`] — text rendering (aligned tables, ASCII bar charts, TSV
//!   series) used by the figure-regeneration binaries.
//!
//! The pipeline never reads ground truth: it sees exactly what the
//! paper's authors saw — PDNS tuples and live HTTP responses.

pub mod abusescan;
pub mod advice;
pub mod fold;
pub mod identify;
pub mod pipeline;
pub mod report;
pub mod status;
pub mod usage;

pub use identify::{
    identify_functions, IdentificationReport, IdentifiedFunction, IdentifyEngine, VerdictChange,
};
pub use pipeline::{FullReport, Pipeline, PipelineConfig};
pub use usage::UsageState;
