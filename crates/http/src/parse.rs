//! HTTP/1.1 parse limits, errors and serialization.
//!
//! Reading lives in [`crate::fast`]; this module holds what its callers
//! share with the writers: explicit size caps ([`Limits`]), the typed
//! [`HttpError`] every malformed-input path returns, and the
//! `Content-Length`-framing serializers.

use crate::types::{Request, Response};
use fw_net::Connection;
use std::io;

/// Parser limits (defensive caps).
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes of request/status line plus headers.
    pub max_head: usize,
    /// Maximum body bytes (content-length, chunked total, or EOF-read).
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head: 16 * 1024,
            max_body: 4 * 1024 * 1024,
        }
    }
}

/// Protocol-level failure.
#[derive(Debug)]
pub enum HttpError {
    /// Transport failure (includes timeouts as `ErrorKind::TimedOut`).
    Io(io::Error),
    /// Malformed message.
    Parse(&'static str),
    /// A size limit was exceeded.
    TooLarge(&'static str),
    /// Clean EOF before any bytes of a message (keep-alive close).
    Eof,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "http io error: {e}"),
            HttpError::Parse(m) => write!(f, "http parse error: {m}"),
            HttpError::TooLarge(what) => write!(f, "http limit exceeded: {what}"),
            HttpError::Eof => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

impl HttpError {
    /// Was this a read timeout?
    pub fn is_timeout(&self) -> bool {
        matches!(self, HttpError::Io(e) if e.kind() == io::ErrorKind::TimedOut)
    }
}

/// Serialize a request (adds `Content-Length` when a body is present).
pub fn write_request(conn: &mut dyn Connection, req: &Request) -> Result<(), HttpError> {
    let mut out = Vec::with_capacity(256 + req.body.len());
    out.extend_from_slice(req.method.as_str().as_bytes());
    out.push(b' ');
    out.extend_from_slice(req.target.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\n");
    let mut wrote_len = false;
    for (n, v) in req.headers.iter() {
        out.extend_from_slice(n.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(v.as_bytes());
        out.extend_from_slice(b"\r\n");
        if n.eq_ignore_ascii_case("content-length") {
            wrote_len = true;
        }
    }
    if !req.body.is_empty() && !wrote_len {
        out.extend_from_slice(format!("Content-Length: {}\r\n", req.body.len()).as_bytes());
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(&req.body);
    conn.write_all(&out)?;
    Ok(())
}

/// Serialize a response with `Content-Length` framing.
pub fn write_response(conn: &mut dyn Connection, resp: &Response) -> Result<(), HttpError> {
    let mut out = Vec::with_capacity(256 + resp.body.len());
    out.extend_from_slice(format!("HTTP/1.1 {} {}\r\n", resp.status, resp.reason).as_bytes());
    let mut wrote_len = false;
    for (n, v) in resp.headers.iter() {
        if n.eq_ignore_ascii_case("content-length") {
            wrote_len = true;
        }
        out.extend_from_slice(n.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(v.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    if !wrote_len {
        out.extend_from_slice(format!("Content-Length: {}\r\n", resp.body.len()).as_bytes());
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(&resp.body);
    conn.write_all(&out)?;
    Ok(())
}
