//! # fw-cloud
//!
//! The serverless cloud platform simulator: every provider behaviour the
//! paper measures *through DNS and HTTP* is reproduced at the interface.
//! The invocation paths the paper excludes, API gateways (§3.5) and
//! event triggers (§2.2), are not simulated; DESIGN.md §6 says why.
//!
//! * [`formats`] — Table 1: per-provider function-URL formats, domain
//!   generation, and the domain regular expressions (compiled with
//!   `fw-pattern`).
//! * [`provider`] — structural facts per provider: region catalogues,
//!   ingress architecture (direct IPs, anycast, CNAME load balancing,
//!   third-party dependencies), wildcard-DNS policy, deleted-function
//!   status-code semantics.
//! * [`behavior`] — function handler archetypes: the benign population
//!   (JSON APIs, HTML pages, path-gated 404s, 401 IAM, 502 crashers) and
//!   the eight abuse cases of Table 3 (C2 relay, gambling/porn/cheat
//!   sites, redirect services, OpenAI key resale promos, illegal-service
//!   and geo-bypass proxies) plus sensitive-data leakers.
//! * [`platform`] — deployment, DNS zone wiring, ingress HTTP(S) listeners
//!   with Host-header routing, invocation lifecycle with a cold/warm-start
//!   model, function deletion semantics.
//! * [`billing`] — the §2.3 price model: per-invocation plus GB-second
//!   metering with free tiers (the substrate for Denial-of-Wallet
//!   analysis).

pub mod behavior;
pub mod billing;
pub mod formats;
pub mod platform;
pub mod provider;

pub use behavior::{Behavior, BehaviorContext};
pub use billing::{BillingLedger, PriceModel};
pub use formats::{UrlFormat, UrlParts};
pub use platform::{CloudPlatform, DeployError, DeploySpec, Deployed, PlatformConfig};
pub use provider::{IngressArch, ProviderSpec};
