//! # fw-types
//!
//! Shared vocabulary for the `faaswild` workspace: provider identifiers,
//! calendar timestamps at the granularity passive DNS uses (whole days),
//! fully-qualified domain names (and the error their parser returns), DNS
//! record types and rdata.
//!
//! Everything here is deliberately small and dependency-light so that every
//! other crate in the workspace can share one set of core types without
//! pulling in simulation or analysis machinery.

pub mod day;
pub mod domain;
pub mod error;
pub mod fnv;
pub mod json;
pub mod memmem;
pub mod provider;
pub mod record;

pub use day::{DayStamp, MonthStamp, MEASUREMENT_END, MEASUREMENT_START};
pub use domain::Fqdn;
pub use error::FwError;
pub use json::Json;
pub use provider::ProviderId;
pub use record::{Rdata, RecordType};
