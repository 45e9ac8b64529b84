//! # fw-http
//!
//! A from-scratch blocking HTTP/1.1 implementation over the byte-stream
//! [`fw_net::Connection`] abstraction — the protocol layer both the active
//! prober (paper §3.3) and the simulated cloud ingress speak.
//!
//! * [`types`] — methods, status codes, case-insensitive header map,
//!   request/response representations.
//! * [`url`] — `http(s)://host[:port]/path?query` parsing.
//! * [`fast`] — the one reader: allocation-free in-place parsing of
//!   requests and responses into a reusable per-connection [`Scratch`]
//!   (body framing via `Content-Length`, `Transfer-Encoding: chunked`,
//!   or read-to-EOF), plus byte-exact render helpers.
//! * [`parse`] — size limits, the typed [`HttpError`], and the
//!   `Content-Length`-framing serializers.
//! * [`client`] — request serialization + response reading with deadlines,
//!   over any [`Dialer`] (simulated network or real TCP). Requests go
//!   out as pipelined *flights* of a rendered [`Batch`]; a keep-alive
//!   slot parks a connection together with its scratch.
//! * [`server`] — a per-connection serve loop with keep-alive semantics,
//!   used by the cloud ingress nodes.
//!
//! The reader is defensive: header/body size caps, typed errors, no panics
//! on malformed input. `tests/` property-tests it against a scalar
//! reference reader kept there as the oracle.

pub mod client;
pub mod fast;
pub mod parse;
pub mod server;
pub mod types;
pub mod url;

pub use client::{Batch, ClientConfig, Dialer, HttpClient, SimDialer, TcpDialer};
pub use fast::{FastRequest, FastResponse, Scratch};
pub use parse::HttpError;
pub use types::{HeaderMap, Method, Request, Response};
pub use url::Url;
